//! Wall-clock measurement of pinned scenarios.
//!
//! Each scenario runs once through the real campaign glue
//! ([`vcabench_harness::run_spec_metered`]) with telemetry disabled, so the
//! measured path is exactly the hot path every campaign run takes. The
//! engine itself supplies the event counters ([`EngineStats`]); this module
//! only adds the stopwatch.

use std::time::Instant;

use vcabench_harness::{
    run_spec_fingerprint_metered, run_spec_infer_metered, run_spec_metered,
    run_spec_observe_metered,
};
use vcabench_netsim::EngineStats;
use vcabench_observe::ObserveConfig;
use vcabench_telemetry::Telemetry;

use crate::report::ScenarioResult;
use crate::scenario::{BenchScenario, Stage};

/// Run one scenario and time it. Inference-stage scenarios run through
/// [`run_spec_infer_metered`] instead, with the passive tap bank attached;
/// identification-stage scenarios through [`run_spec_fingerprint_metered`],
/// with the fingerprint accumulators attached; observability-stage
/// scenarios through [`run_spec_observe_metered`], with the streaming
/// span-deriving diagnoser attached; boosted-inference scenarios run the
/// tap bank *and* the builtin GBT ensemble over every extracted window, so
/// the stopwatch covers tree-walk prediction cost too.
pub fn measure(sc: &BenchScenario) -> ScenarioResult {
    let t0 = Instant::now();
    let engine = match sc.stage {
        Stage::Engine => run_spec_metered(&sc.spec, &Telemetry::disabled()).1,
        Stage::Infer => run_spec_infer_metered(&sc.spec).1,
        Stage::Identify => run_spec_fingerprint_metered(&sc.spec).1,
        Stage::Observe => run_spec_observe_metered(&sc.spec, &ObserveConfig::default()).1,
        Stage::Gbt => {
            let (outcome, engine) = run_spec_infer_metered(&sc.spec);
            let model = vcabench_infer::GbtModel::builtin();
            for w in outcome.send.iter().chain(outcome.recv.iter()) {
                std::hint::black_box(vcabench_infer::Estimator::estimate(&model, w));
            }
            engine
        }
    };
    let wall_secs = t0.elapsed().as_secs_f64();
    from_parts(sc, engine, wall_secs)
}

/// Assemble a [`ScenarioResult`] from raw counters (separated from
/// [`measure`] so the derived-rate arithmetic is testable without a run).
pub fn from_parts(sc: &BenchScenario, engine: EngineStats, wall_secs: f64) -> ScenarioResult {
    // A zero-duration wall clock only happens on degenerate workloads;
    // clamp so the derived rates stay finite.
    let wall = wall_secs.max(1e-9);
    ScenarioResult {
        name: sc.name.clone(),
        wall_secs,
        sim_secs: sc.sim_secs,
        events_processed: engine.events_processed,
        peak_queue_depth: engine.peak_queue_depth,
        events_per_sec: engine.events_processed as f64 / wall,
        sim_per_wall: sc.sim_secs / wall,
    }
}

/// Run the whole suite, invoking `progress` after each scenario completes.
pub fn measure_suite(
    suite: &[BenchScenario],
    mut progress: impl FnMut(&ScenarioResult),
) -> Vec<ScenarioResult> {
    let mut out = Vec::with_capacity(suite.len());
    for sc in suite {
        let r = measure(sc);
        progress(&r);
        out.push(r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::pinned;

    #[test]
    fn derived_rates_are_consistent() {
        let sc = &pinned(true)[0];
        let engine = EngineStats {
            events_processed: 1000,
            peak_queue_depth: 32,
        };
        let r = from_parts(sc, engine, 0.5);
        assert_eq!(r.events_processed, 1000);
        assert_eq!(r.peak_queue_depth, 32);
        assert!((r.events_per_sec - 2000.0).abs() < 1e-9);
        assert!((r.sim_per_wall - sc.sim_secs / 0.5).abs() < 1e-9);
    }

    #[test]
    fn zero_wall_clock_stays_finite() {
        let sc = &pinned(true)[0];
        let engine = EngineStats {
            events_processed: 10,
            peak_queue_depth: 1,
        };
        let r = from_parts(sc, engine, 0.0);
        assert!(r.events_per_sec.is_finite());
        assert!(r.sim_per_wall.is_finite());
    }

    #[test]
    fn observe_stage_measures_the_same_workload() {
        // The observe recorder is a passive tap: the measured engine
        // counters must match the plain run of the same spec exactly,
        // or the overhead number would compare different workloads.
        let sc = pinned(true)
            .into_iter()
            .find(|s| s.stage == Stage::Observe)
            .expect("suite has an observe stage");
        let observed = measure(&sc);
        let plain = vcabench_harness::run_spec_metered(
            &sc.spec,
            &vcabench_telemetry::Telemetry::disabled(),
        )
        .1;
        assert_eq!(observed.events_processed, plain.events_processed);
        assert_eq!(observed.peak_queue_depth, plain.peak_queue_depth);
        assert!(observed.events_processed > 1000);
    }

    #[test]
    fn observe_overhead_stays_within_gate() {
        // The streaming diagnoser must stay a cheap tap. What it costs is
        // a fixed amount of work per telemetry event, so that is what the
        // gate bounds: (best-of-5 wall time with the observe recorder
        // attached − best-of-5 plain) / telemetry events of the run,
        // interleaved so ambient noise hits both sides alike. (A ratio to
        // the plain run would tighten every time the engine got faster.)
        // Measured 10–25 ns per event optimized (up to 44 ns on a noisy
        // host) and 130–340 ns unoptimized. The budget is a claim about
        // optimized code, so debug runs get a looser one — the recorder's
        // constant factors are not what debug builds measure.
        let budget_ns = if cfg!(debug_assertions) { 600.0 } else { 60.0 };
        let sc = pinned(true)
            .into_iter()
            .find(|s| s.stage == Stage::Observe)
            .expect("suite has an observe stage");
        let (tel, log) = Telemetry::with_log(vcabench_telemetry::EventLog::unbounded());
        run_spec_metered(&sc.spec, &tel);
        let events = log.borrow().total_recorded();
        assert!(events > 1000, "the observe stage sees a busy trace");
        let mut with_observe = f64::INFINITY;
        let mut plain = f64::INFINITY;
        for _ in 0..5 {
            let t0 = Instant::now();
            run_spec_observe_metered(&sc.spec, &ObserveConfig::default());
            with_observe = with_observe.min(t0.elapsed().as_secs_f64());
            let t1 = Instant::now();
            run_spec_metered(&sc.spec, &Telemetry::disabled());
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

    #[test]
    fn gbt_stage_measures_the_same_workload() {
        // The GBT estimator runs after the simulation over already-sealed
        // windows: the measured engine counters must match the plain run
        // of the same spec exactly.
        let sc = pinned(true)
            .into_iter()
            .find(|s| s.stage == Stage::Gbt)
            .expect("suite has a gbt stage");
        let boosted = measure(&sc);
        let plain = vcabench_harness::run_spec_metered(
            &sc.spec,
            &vcabench_telemetry::Telemetry::disabled(),
        )
        .1;
        assert_eq!(boosted.events_processed, plain.events_processed);
        assert_eq!(boosted.peak_queue_depth, plain.peak_queue_depth);
        assert!(boosted.events_processed > 1000);
    }

    #[test]
    fn measured_run_counts_events() {
        // The smallest pinned scenario, measured for real: the engine must
        // report a non-trivial number of processed events and a bounded
        // queue depth.
        let sc = &pinned(true)[0];
        let r = measure(sc);
        assert!(r.events_processed > 1000, "two-party quick run is busy");
        assert!(r.peak_queue_depth > 0);
        assert!(r.wall_secs > 0.0);
    }
}
