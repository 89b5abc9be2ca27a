//! Property-based scenario fuzzing: every generated configuration must run
//! with zero invariant violations, identical seeds must produce
//! byte-identical summaries, and a recorder must not be able to change a
//! run by watching it.
//!
//! Case count defaults to 64 and honors `PROPTEST_CASES`. Failing seeds are
//! persisted to `proptest-regressions/tests/fuzz.txt` and re-run first on
//! subsequent invocations — commit that file when the fuzzer finds a bug.

use proptest::{prop_assert, prop_assert_eq, proptest};
use vcabench_telemetry::{EventLog, Telemetry};
use vcabench_testkit::scenario::arb_scenario;
use vcabench_testkit::{golden, run_scenario};

proptest! {
    /// Conservation, ordering, occupancy, capacity, monotonicity and
    /// congestion-bound invariants hold for arbitrary valid scenarios.
    #[test]
    fn fuzz_invariants(sc in arb_scenario(8, 30)) {
        let out = run_scenario(&sc.0, sc.1.as_ref(), &Telemetry::disabled());
        let vacuous = out.vacuous();
        prop_assert!(vacuous.is_none(), "vacuous pass for {sc:?}: {vacuous:?}");
        prop_assert!(
            out.violations.is_empty(),
            "{} invariant violation(s) for {:?}:\n{}",
            out.violations.len(),
            sc,
            out.violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// The simulator is deterministic: the same scenario (including seed)
    /// run twice yields identical integer summaries — and, where the spec
    /// says all of it, the same bytes in the result store.
    #[test]
    fn fuzz_determinism(sc in arb_scenario(8, 14)) {
        let (spec, overlay) = (&sc.0, sc.1.as_ref());
        let a = run_scenario(spec, overlay, &Telemetry::disabled());
        let b = run_scenario(spec, overlay, &Telemetry::disabled());
        prop_assert_eq!(
            golden::render(&a.summary),
            golden::render(&b.summary)
        );
        if overlay.is_none() {
            let stored = || {
                serde_json::to_string(&vcabench_harness::run_spec(spec)).expect("outcome serializes")
            };
            prop_assert_eq!(stored(), stored());
        }
    }

    /// Attaching a recorder changes zero engine events: a run that keeps
    /// its whole event log is, to the engine's counters and every summary
    /// integer, the run nobody watched.
    #[test]
    fn fuzz_recorder_changes_nothing(sc in arb_scenario(8, 14)) {
        let (spec, overlay) = (&sc.0, sc.1.as_ref());
        let unwatched = run_scenario(spec, overlay, &Telemetry::disabled());
        let (tel, log) = Telemetry::with_log(EventLog::unbounded());
        let watched = run_scenario(spec, overlay, &tel);
        prop_assert!(!log.borrow().is_empty(), "nothing was recorded for {sc:?}");
        prop_assert_eq!(unwatched.engine, watched.engine);
        prop_assert_eq!(
            golden::render(&unwatched.summary),
            golden::render(&watched.summary)
        );
    }
}
