//! Cross-crate integration: determinism guarantees of the whole pipeline.
//!
//! Every experiment must be exactly reproducible from its seed — this is
//! what makes the regenerated tables and figures meaningful.

use vcabench::prelude::*;

fn run_once(seed: u64) -> (Vec<f64>, u64) {
    let spec = TwoPartySpec {
        kind: VcaKind::Zoom,
        up: RateProfile::constant_mbps(1.0),
        down: RateProfile::constant_mbps(1000.0),
        duration_secs: 40.0,
        seed,
        knobs: None,
    };
    let read = |call: &run::TwoPartyCall, end| {
        let series = call
            .net
            .link(call.topo.c1_up)
            .traces
            .total()
            .series_mbps(end);
        let c1: &VcaClient = call.net.agent(call.topo.c1);
        (series, c1.frames_decoded_from(1))
    };
    run::two_party_on(&spec, |_| {}, &Telemetry::disabled(), read).0
}

#[test]
fn same_seed_same_everything() {
    let (a_series, a_frames) = run_once(7);
    let (b_series, b_frames) = run_once(7);
    assert_eq!(a_frames, b_frames);
    assert_eq!(a_series.len(), b_series.len());
    for (i, (x, y)) in a_series.iter().zip(&b_series).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "series diverged at bin {i}");
    }
}

#[test]
fn different_seeds_differ() {
    let (a_series, _) = run_once(7);
    let (b_series, _) = run_once(8);
    let identical = a_series
        .iter()
        .zip(&b_series)
        .all(|(x, y)| x.to_bits() == y.to_bits());
    assert!(!identical, "different seeds must perturb the source noise");
}

#[test]
fn competition_runs_are_deterministic() {
    let spec = CompetitionSpec::paper(VcaKind::Meet, CompetitorSpec::IperfUp, 2.0, 3);
    let a = run::competition(&spec, &Telemetry::disabled()).0;
    let b = run::competition(&spec, &Telemetry::disabled()).0;
    let ra =
        TwoPartyOutcome::rate_between(&a.inc_up, SimTime::from_secs(60), SimTime::from_secs(120));
    let rb =
        TwoPartyOutcome::rate_between(&b.inc_up, SimTime::from_secs(60), SimTime::from_secs(120));
    assert_eq!(ra.to_bits(), rb.to_bits());
}

/// Everything a competition run reports, with floats as bit patterns.
fn competition_fingerprint(
    spec: &CompetitionSpec,
) -> (Vec<Vec<u64>>, String, vcabench::netsim::EngineStats) {
    let (out, engine) = run::competition(spec, &Telemetry::disabled());
    let series = [&out.inc_up, &out.inc_down, &out.comp_up, &out.comp_down]
        .map(|s| s.iter().map(|v| v.to_bits()).collect())
        .to_vec();
    let rest = format!(
        "{:?} {:?} {:?} {:?}",
        out.duration, out.netflix, out.netflix_conns, out.c1_stats
    );
    (series, rest, engine)
}

/// A starved Netflix competitor fans out over parallel connections, so the
/// ABR server and the client both walk several live connections per tick.
/// The walk order feeds packet order and the throughput EWMA: it must come
/// from the connection ids, not from a per-process hash seed — neither a
/// second run in this process nor a run on a fresh thread (whose hash maps
/// would be keyed differently) may differ in a single bit.
#[test]
fn starved_netflix_competition_is_a_pure_function_of_spec_and_seed() {
    let spec = CompetitionSpec::paper(VcaKind::Zoom, CompetitorSpec::Netflix, 0.5, 1);
    let first = competition_fingerprint(&spec);
    assert!(
        first.1.contains("parallel: 2"),
        "the scenario must actually fan out, or it proves nothing"
    );
    let second = competition_fingerprint(&spec);
    let threaded = {
        let spec = spec.clone();
        std::thread::spawn(move || competition_fingerprint(&spec))
            .join()
            .expect("competition run panicked")
    };
    assert_eq!(first.2, second.2, "EngineStats differ between two runs");
    assert_eq!(first.2, threaded.2, "EngineStats differ across threads");
    assert!(first == second, "outcome differs between two runs");
    assert!(first == threaded, "outcome differs across threads");
}
