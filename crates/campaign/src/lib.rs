//! vcabench-campaign: declarative scenario specs, a parallel campaign
//! executor, and a content-addressed result cache.
//!
//! The paper's headline figures are all *sweeps* — kinds × capacities × seeds
//! (Fig 1), incumbents × competitors (Figs 8–11), disruption grids
//! (Figs 4–5). This crate turns such sweeps into data:
//!
//! 1. **Specs** ([`ScenarioSpec`], [`CampaignSpec`]): JSON-loadable
//!    descriptions of every run the harness can execute, with sweep axes
//!    expanded into a deterministic Cartesian product ([`CampaignSpec::expand`]).
//! 2. **Executor** ([`run_indexed`]): a scoped worker pool that evaluates
//!    one closure per run in parallel and returns the values in expansion
//!    order — `--jobs N` output is byte-identical to `--jobs 1`. The store
//!    hands it a closure that runs a scenario and makes its record line.
//! 3. **Store** ([`run_cached`], [`content_hash`]): an append-only JSONL
//!    result store keyed by content hash of the normalized spec, so repeated
//!    invocations recompute only what changed.
//!
//! The crate deliberately knows nothing about the harness: callers supply a
//! runner callback `Fn(&ScenarioSpec) -> ScenarioOutcome`, keeping the
//! dependency graph acyclic (harness → campaign, never the reverse).

#![warn(missing_docs)]

pub mod exec;
pub mod expand;
pub mod outcome;
pub mod spec;
pub mod store;

pub use exec::run_indexed;
pub use expand::{Axes, CampaignSpec, ExpandedRun, ScenarioTemplate, SeedAxis};
pub use outcome::{CompetitionRecord, MultipartyRecord, Sample, ScenarioOutcome, TwoPartyRecord};
pub use spec::{
    float_slug, slug, ClientKnobs, CompetitionSpec, CompetitorSpec, MultipartySpec, ScenarioSpec,
    TwoPartySpec,
};
pub use store::{content_hash, run_cached, run_cached_with, CampaignSummary, StoredRecord};
