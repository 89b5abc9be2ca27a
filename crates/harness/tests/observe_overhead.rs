//! The streaming diagnoser must stay a cheap tap.

use std::time::Instant;

use vcabench_harness::{pinned_suite, run_spec_metered, run_spec_observe_metered};
use vcabench_observe::ObserveConfig;
use vcabench_telemetry::Telemetry;

#[test]
fn observe_overhead_stays_within_gate() {
    // What the recorder costs is a fixed amount of work per telemetry
    // event, so that is what the gate bounds: (best-of-5 wall time with
    // the observe recorder attached − best-of-5 plain) / telemetry events
    // of the run, interleaved so ambient noise hits both sides alike. (A
    // ratio to the plain run would tighten every time the engine got
    // faster.) Measured 10–25 ns per event optimized (up to 44 ns on a
    // noisy host) and 130–340 ns unoptimized. The budget is a claim about
    // optimized code, so debug runs get a looser one — the recorder's
    // constant factors are not what debug builds measure.
    let budget_ns = if cfg!(debug_assertions) { 600.0 } else { 60.0 };
    let (_, spec) = pinned_suite(true)
        .into_iter()
        .find(|(name, _)| name == "observe_two_party_zoom")
        .expect("suite has an observe scenario");
    let (tel, log) = Telemetry::with_log(vcabench_telemetry::EventLog::unbounded());
    run_spec_metered(&spec, &tel);
    let events = log.borrow().total_recorded();
    assert!(events > 1000, "the observe scenario sees a busy trace");
    let mut with_observe = f64::INFINITY;
    let mut plain = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        run_spec_observe_metered(&spec, &ObserveConfig::default());
        with_observe = with_observe.min(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        run_spec_metered(&spec, &Telemetry::disabled());
        plain = plain.min(t1.elapsed().as_secs_f64());
    }
    let per_event_ns = (with_observe - plain) * 1e9 / events as f64;
    assert!(
        per_event_ns <= budget_ns,
        "observe recorder costs {per_event_ns:.1} ns per telemetry event, over the \
         {budget_ns} ns budget (observed {with_observe:.4}s vs plain {plain:.4}s, \
         {events} events)"
    );
}
