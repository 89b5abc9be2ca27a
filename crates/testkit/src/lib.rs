//! Test kit: property-based scenario fuzzing and golden-trace regression.
//!
//! The simulator's value rests on two claims the unit tests cannot carry
//! alone: that its conservation laws hold under *arbitrary* valid
//! configurations (not just the handful the experiments use), and that its
//! output is bit-stable across refactors. This crate attacks both, on the
//! build that ships: it has no scenario language and no runner of its own.
//!
//! - [`scenario`] draws random-but-valid `vcabench_campaign::ScenarioSpec`s
//!   (all three topologies, every competitor, client knobs, seeds) plus the
//!   piecewise rate profiles a spec cannot put on a competition bottleneck
//!   or a multiparty access link, and runs them through
//!   `vcabench_harness::run::{two_party_on, competition_on, multiparty_on}`
//!   — the build under every figure — under every invariant audit. The
//!   audit hooks are ordinary code behind `cfg!(debug_assertions)`: debug
//!   builds (plain `cargo test`) audit, release builds do not, and a run
//!   that audited nothing is refused rather than passed. Deep fuzz at
//!   release speed with `CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true
//!   cargo test --release -p vcabench-testkit`.
//! - [`golden`] snapshots compact, integer-exact per-link summaries of a
//!   fixed scenario matrix and compares new runs against the committed JSON
//!   fixtures with tolerance-free equality.
//! - [`share`] holds what a test of competing senders reads beyond the
//!   paper's link share: Jain's fairness index.
//!
//! Workflows. *Bless*: after an intended model change,
//! `VCABENCH_BLESS=1 cargo test -p vcabench-testkit --test golden_traces`
//! rewrites `tests/golden/*.json` (only the exact value `1` blesses; twice
//! in a row is byte-identical); commit the diff. *Regressions*:
//! `PROPTEST_CASES=64 cargo test -p vcabench-testkit --test fuzz` re-runs
//! every `cc <seed>` line of `proptest-regressions/tests/fuzz.txt` before
//! its fresh cases and appends the seed of any case that fails — commit
//! that line with the fix. The hand-pinned seeds at the top of that file
//! each say what they generate; re-derive them when the strategy's draw
//! order changes (`scenario::tests::generated_scenarios_are_valid` says
//! what 200 seeds must still reach).

pub mod golden;
pub mod scenario;
pub mod share;

pub use golden::{check_golden, golden_path, LinkSummary, TraceSummary};
pub use scenario::{run_scenario, Audited};
