//! Harness ↔ campaign glue: execute declarative [`ScenarioSpec`]s on the
//! simulator.
//!
//! `vcabench-campaign` owns the spec language, the parallel executor and the
//! result store but deliberately knows nothing about the simulator; this
//! module supplies the runner callback mapping each spec onto the shared
//! runners in [`crate::run`] and summarizing the outcome into the campaign
//! crate's serializable records.
//!
//! Every way of running a spec — plain, metered, traced, or with a
//! passive recorder attached ([`crate::infer`], [`crate::fingerprint`],
//! [`crate::observe`]) — goes through `simulate`, and every recorder is
//! attached by `record_run`.

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;

use vcabench_campaign::{
    CampaignSpec, CampaignSummary, CompetitionRecord, CompetitorSpec, MultipartyRecord, Sample,
    ScenarioOutcome, ScenarioSpec, TwoPartyRecord,
};
use vcabench_netsim::{EngineStats, RateProfile};
use vcabench_simcore::SimTime;
use vcabench_telemetry::{Recorder, Telemetry};
use vcabench_vca::{StatsSample, VcaKind};

use crate::run::{self, CompetitionOutcome, MultipartyOutcome, TwoPartyOutcome, BIN};

/// Convert a 100 ms-binned Mbps series into `(t_secs, mbps)` samples.
fn samples(series: &[f64]) -> Vec<Sample> {
    series
        .iter()
        .enumerate()
        .map(|(i, &v)| ((i as u64 * BIN.as_micros()) as f64 / 1e6, v))
        .collect()
}

/// Find a disruption window in a shaping profile: the first step that drops
/// the rate, paired with the next step that raises it back.
fn disruption_window(profile: &RateProfile) -> Option<(SimTime, SimTime)> {
    let steps = profile.steps();
    let drop = steps.windows(2).position(|w| w[1].1 < w[0].1)? + 1;
    let recover = steps[drop..]
        .iter()
        .find(|(_, rate)| *rate > steps[drop].1)?;
    Some((steps[drop].0, recover.0))
}

/// A simulated scenario, before anyone has decided what to read off it:
/// the campaign path summarises it into a record, the passive paths take
/// C1's ground truth and the end time.
pub(crate) enum Simulated {
    /// A two-party call.
    TwoParty(TwoPartyOutcome),
    /// A competition run.
    Competition(CompetitionOutcome),
    /// A multiparty call.
    Multiparty(MultipartyOutcome),
}

impl Simulated {
    /// C1's per-second stats samples and the simulated end time.
    pub(crate) fn into_ground_truth(self) -> (Vec<StatsSample>, SimTime) {
        match self {
            Simulated::TwoParty(out) => (out.c1_stats, out.duration),
            Simulated::Competition(out) => (out.c1_stats, out.duration),
            Simulated::Multiparty(out) => (out.c1_stats, out.duration),
        }
    }
}

/// Simulate one scenario, recording trace events through `tel`: the one
/// place a spec is handed to its topology's runner. Pure in the spec:
/// equal specs produce equal outcomes (the determinism the result cache
/// relies on).
pub(crate) fn simulate(spec: &ScenarioSpec, tel: &Telemetry) -> (Simulated, EngineStats) {
    match spec {
        ScenarioSpec::TwoParty(s) => {
            let (out, engine) = run::two_party(s, tel);
            (Simulated::TwoParty(out), engine)
        }
        ScenarioSpec::Competition(s) => {
            let (out, engine) = run::competition(s, tel);
            (Simulated::Competition(out), engine)
        }
        ScenarioSpec::Multiparty(s) => {
            let (out, engine) = run::multiparty(s, tel);
            (Simulated::Multiparty(out), engine)
        }
    }
}

/// Simulate `spec` with `recorder` attached and hand the recorder back
/// with the run's result: the one place a recorder is shared with a
/// simulation and recovered from it.
pub(crate) fn record_run<R: Recorder + 'static>(
    spec: &ScenarioSpec,
    recorder: R,
) -> (R, Simulated, EngineStats) {
    let shared = Rc::new(RefCell::new(recorder));
    let tel = Telemetry::attach(shared.clone());
    let (sim, engine) = simulate(spec, &tel);
    drop(tel);
    let recorder = Rc::try_unwrap(shared)
        .ok()
        .expect("run finished; the recorder has a sole owner")
        .into_inner();
    (recorder, sim, engine)
}

/// Execute one concrete scenario. Pure in the spec: equal specs produce
/// equal outcomes.
pub fn run_spec(spec: &ScenarioSpec) -> ScenarioOutcome {
    run_spec_metered(spec, &Telemetry::disabled()).0
}

/// Like [`run_spec`], recording trace events through `tel` and
/// additionally returning the engine's throughput counters (`benchmark/`
/// reads these).
pub fn run_spec_metered(spec: &ScenarioSpec, tel: &Telemetry) -> (ScenarioOutcome, EngineStats) {
    let (sim, engine) = simulate(spec, tel);
    (summarise(spec, sim), engine)
}

/// Summarise the simulation of `spec` into its campaign record.
pub(crate) fn summarise(spec: &ScenarioSpec, sim: Simulated) -> ScenarioOutcome {
    match sim {
        Simulated::TwoParty(out) => {
            let ScenarioSpec::TwoParty(s) = spec else {
                unreachable!("a two-party outcome comes from a two-party spec");
            };
            let settle = SimTime::ZERO + (out.duration - SimTime::ZERO) / 4;
            let steady = |series| TwoPartyOutcome::median_between(series, settle, out.duration);
            // A disruption on either direction of C1's access link is scored
            // on that direction's series.
            let disrupted = disruption_window(&s.up)
                .map(|w| (w, &out.up_series))
                .or_else(|| disruption_window(&s.down).map(|w| (w, &out.down_series)));
            let ttr = disrupted.map(|((d_start, d_end), series)| out.ttr(series, d_start, d_end));
            ScenarioOutcome::TwoParty(TwoPartyRecord {
                steady_up_mbps: steady(&out.up_series),
                steady_down_mbps: steady(&out.down_series),
                ttr_secs: ttr.as_ref().and_then(|t| t.ttr).map(|d| d.as_secs_f64()),
                nominal_mbps: ttr.map(|t| t.nominal_mbps),
                firs_received: out.c1_firs_received,
                freeze_secs: out.c1_freeze_time.as_secs_f64(),
                frames_decoded: out.c1_frames_decoded,
                target_series: out
                    .c1_stats
                    .iter()
                    .map(|s| (s.t.as_secs_f64(), s.target_mbps))
                    .collect(),
                up_series: samples(&out.up_series),
                down_series: samples(&out.down_series),
            })
        }
        Simulated::Competition(out) => {
            let (up_share, down_share) = out.shares();
            ScenarioOutcome::Competition(CompetitionRecord {
                up_share,
                down_share,
                netflix_conns: out.netflix_conns as usize,
                inc_up: samples(&out.inc_up),
                inc_down: samples(&out.inc_down),
                comp_up: samples(&out.comp_up),
                comp_down: samples(&out.comp_down),
            })
        }
        Simulated::Multiparty(out) => ScenarioOutcome::Multiparty(MultipartyRecord {
            c1_up_mbps: out.c1_up_mbps,
            c1_down_mbps: out.c1_down_mbps,
        }),
    }
}

/// A two-party spec with unconstrained links and no knobs (the usual
/// starting point for campaign templates).
pub fn unshaped_two_party(kind: VcaKind, duration_secs: f64, seed: u64) -> ScenarioSpec {
    ScenarioSpec::TwoParty(vcabench_campaign::TwoPartySpec {
        kind,
        up: run::unconstrained(),
        down: run::unconstrained(),
        duration_secs,
        seed,
        knobs: None,
    })
}

/// The pinned evaluation suite `repro infer` scores when no campaign spec
/// is given: per VCA kind an unshaped two-party call, a self-competition
/// on a 2.5 Mbps bottleneck and a 4-party call, then two uplink-shaped
/// two-party calls that stress the passive stages.
/// `quick` shrinks every duration; names, shapes and seeds are the same in
/// both modes (reports and `tests/golden/engine_counts.txt` join on the
/// names).
pub fn pinned_suite(quick: bool) -> Vec<(String, ScenarioSpec)> {
    use vcabench_campaign::{slug, CompetitionSpec, MultipartySpec, TwoPartySpec};
    // The suite's own pinned order, not `VcaKind::NATIVE`'s.
    const KINDS: [VcaKind; 3] = [VcaKind::Zoom, VcaKind::Meet, VcaKind::Teams];
    let mut out = Vec::new();
    for kind in KINDS {
        let duration_secs = if quick { 15.0 } else { 60.0 };
        out.push((
            format!("two_party_{}", slug(kind.name())),
            unshaped_two_party(kind, duration_secs, 1),
        ));
    }
    for kind in KINDS {
        let (start, dur, total) = if quick {
            (5.0, 10.0, 20.0)
        } else {
            (10.0, 40.0, 60.0)
        };
        out.push((
            format!("competition_{}", slug(kind.name())),
            ScenarioSpec::Competition(CompetitionSpec {
                competitor_start_secs: Some(start),
                competitor_duration_secs: Some(dur),
                total_secs: Some(total),
                ..CompetitionSpec::paper(kind, CompetitorSpec::Vca(kind), 2.5, 1)
            }),
        ));
    }
    for kind in KINDS {
        out.push((
            format!("multiparty_{}", slug(kind.name())),
            ScenarioSpec::Multiparty(MultipartySpec {
                kind,
                n: 4,
                pin_c1: Some(false),
                duration_secs: if quick { 10.0 } else { 40.0 },
                seed: 1,
            }),
        ));
    }
    // A Zoom call squeezed into 0.5 Mbps is FEC-heavy, queue- and
    // freeze-prone (every packet class, every span transition); the Teams
    // call has a throttled uplink and an open downlink, so its two flow
    // accumulators see very different traffic.
    for (name, kind, up_mbps) in [
        ("infer_two_party_zoom", VcaKind::Zoom, 0.5),
        ("identify_two_party_mixed", VcaKind::Teams, 0.7),
    ] {
        out.push((
            name.to_string(),
            ScenarioSpec::TwoParty(TwoPartySpec {
                kind,
                up: RateProfile::constant_mbps(up_mbps),
                down: run::unconstrained(),
                duration_secs: if quick { 10.0 } else { 30.0 },
                seed: 1,
                knobs: None,
            }),
        ));
    }
    out
}

/// Expand and execute a campaign with the content-addressed result store
/// under `dir`; cached runs are not recomputed unless `rerun`.
pub fn run_campaign_cached(
    campaign: &CampaignSpec,
    jobs: usize,
    dir: &Path,
    rerun: bool,
) -> Result<CampaignSummary, String> {
    vcabench_campaign::run_cached(campaign, jobs, dir, rerun, &run_spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcabench_campaign::{CompetitionSpec, MultipartySpec};
    use vcabench_simcore::SimDuration;

    #[test]
    fn disruption_window_detection() {
        let flat = RateProfile::constant_mbps(1.0);
        assert_eq!(disruption_window(&flat), None);
        let dip = RateProfile::disruption(
            1e9,
            0.25e6,
            SimTime::from_secs(60),
            SimDuration::from_secs(30),
        );
        let (start, end) = disruption_window(&dip).unwrap();
        assert_eq!(start, SimTime::from_secs(60));
        assert_eq!(end, SimTime::from_secs(90));
    }

    #[test]
    fn competition_and_multiparty_specs_run() {
        let comp = ScenarioSpec::Competition(CompetitionSpec {
            competitor_start_secs: Some(10.0),
            competitor_duration_secs: Some(40.0),
            total_secs: Some(60.0),
            ..CompetitionSpec::paper(VcaKind::Teams, CompetitorSpec::IperfUp, 2.0, 3)
        });
        match run_spec(&comp) {
            ScenarioOutcome::Competition(r) => {
                assert!(r.up_share > 0.0 && r.up_share < 1.0, "share {}", r.up_share);
                assert!(!r.inc_up.is_empty());
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        let multi = ScenarioSpec::Multiparty(MultipartySpec {
            kind: VcaKind::Meet,
            n: 3,
            pin_c1: None,
            duration_secs: 20.0,
            seed: 5,
        });
        match run_spec(&multi) {
            ScenarioOutcome::Multiparty(r) => assert!(r.c1_up_mbps > 0.0),
            other => panic!("unexpected outcome {other:?}"),
        }
    }
}
