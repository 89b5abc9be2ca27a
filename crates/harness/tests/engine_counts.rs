//! Exact engine and telemetry counters for the pinned quick suite, gated
//! at 1.0×.
//!
//! For every scenario of [`pinned_suite`]`(true)` the plain run and every
//! recorder path (event log, infer tap bank, fingerprint bank, observe span
//! builder) must report identical [`EngineStats`] — a recorder is a passive
//! tap, so attaching one may not add, remove or reorder a single engine
//! event — and those counters, with the number of telemetry events the run
//! emits (what every recorder is handed, and so the deterministic half of
//! what a recorder costs; the nanoseconds per event are `benchmark/`'s
//! `observe.span_ns_per_event` row), must equal the committed golden. A
//! mismatch means the simulated workload changed: either a bug, or a
//! deliberate behaviour change that also re-blesses the trace goldens, in
//! which case re-bless this one with:
//!
//! ```text
//! VCABENCH_BLESS=1 cargo test -p vcabench-harness --test engine_counts
//! ```

use std::path::PathBuf;

use vcabench_harness::{
    pinned_suite, run_spec_fingerprint_metered, run_spec_infer_metered, run_spec_metered,
    run_spec_observe_metered,
};
use vcabench_observe::ObserveConfig;
use vcabench_telemetry::{EventLog, Telemetry};
use vcabench_testkit::golden::check_fixture;

const FIXTURE: &str = "tests/golden/engine_counts.txt";

#[test]
fn every_recorder_path_reproduces_the_golden_engine_counters() {
    let mut current = String::new();
    for (name, spec) in pinned_suite(true) {
        let plain = run_spec_metered(&spec, &Telemetry::disabled()).1;
        assert!(plain.events_processed > 1000, "{name} is a busy run");
        let (tel, log) = Telemetry::with_log(EventLog::unbounded());
        let logged = run_spec_metered(&spec, &tel).1;
        let telemetry_events = log.borrow().len();
        assert!(telemetry_events > 1000, "{name} has a busy trace");
        let recorded = [
            ("event log", logged),
            ("infer", run_spec_infer_metered(&spec).1),
            ("fingerprint", run_spec_fingerprint_metered(&spec).1),
            ("observe", run_spec_observe_metered(&spec, &ObserveConfig).1),
        ];
        for (path, engine) in recorded {
            assert_eq!(
                engine, plain,
                "{name}: the {path} recorder perturbed the engine"
            );
        }
        current.push_str(&format!(
            "{name} {} {} {telemetry_events}\n",
            plain.events_processed, plain.peak_queue_depth
        ));
    }
    check_fixture(
        &PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(FIXTURE),
        &current,
        "VCABENCH_BLESS=1 cargo test -p vcabench-harness --test engine_counts",
    );
}

#[test]
fn full_and_quick_suites_differ_only_in_duration() {
    let (full, quick) = (pinned_suite(false), pinned_suite(true));
    assert_eq!(full.len(), 11);
    assert_eq!(quick.len(), full.len());
    for ((full_name, full_spec), (quick_name, quick_spec)) in full.iter().zip(&quick) {
        assert_eq!(full_name, quick_name);
        assert_eq!(full_spec.seed(), quick_spec.seed());
        assert_ne!(full_spec, quick_spec, "{full_name}: quick mode is shorter");
        full_spec.validate().expect("pinned spec valid");
        quick_spec.validate().expect("pinned spec valid");
    }
}
