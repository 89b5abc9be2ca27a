//! # vcabench-bench
//!
//! Deterministic benchmark subsystem for the simulation engine, plus the
//! `repro` binary.
//!
//! The paper's measurement matrix (kinds × capacities × seeds) makes
//! end-to-end engine throughput the binding constraint on scenario
//! coverage, so this crate turns "how fast is the engine" into a pinned,
//! versioned, diffable number:
//!
//! - [`scenario`] — the pinned suite (two-party, competition, multiparty ×
//!   Zoom/Meet/Teams) with fixed durations and seeds;
//! - [`mod@measure`] — wall-clock timing over the real campaign glue with
//!   telemetry disabled, reading the engine's own event counters;
//! - [`report`] — schema-versioned `BENCH_<label>.json` artifacts and the
//!   baseline regression gate used by `repro bench --baseline`.
//!
//! `benches/experiments.rs` and `benches/substrates.rs` are the Criterion
//! counterparts for statistics-grade micro-benchmarks; `repro bench` is the
//! no-deps harness cheap enough to gate CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod measure;
pub mod report;
pub mod scenario;

pub use measure::{measure, measure_suite};
pub use report::{
    compare, render_table, BenchReport, Comparison, ScenarioResult, DEFAULT_THRESHOLD, SCHEMA,
};
pub use scenario::{pinned, BenchScenario, Stage};

/// Run the pinned suite end to end and assemble the report.
/// `progress` fires after each scenario (the CLI prints a line per run).
pub fn run_bench(label: &str, quick: bool, progress: impl FnMut(&ScenarioResult)) -> BenchReport {
    let suite = scenario::pinned(quick);
    let results = measure::measure_suite(&suite, progress);
    BenchReport::new(label, quick, results)
}
