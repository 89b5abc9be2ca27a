//! Pinned benchmark scenarios.
//!
//! The benchmark surface is a fixed set of scenarios — two-party,
//! competition, and multiparty, one of each per VCA kind — with pinned
//! shaping profiles, durations, and seeds. Pinning matters twice over:
//! wall-time numbers are only comparable across engine versions if the
//! simulated workload is byte-identical, and the baseline gate (see
//! [`crate::report`]) matches scenarios by name.

use vcabench_campaign::{
    CompetitionSpec, CompetitorSpec, MultipartySpec, ScenarioSpec, TwoPartySpec,
};
use vcabench_netsim::RateProfile;
use vcabench_vca::VcaKind;

/// One named benchmark workload: a campaign [`ScenarioSpec`] plus the
/// simulated length it covers (used for the sim-seconds-per-wall-second
/// figure of merit).
#[derive(Debug, Clone)]
pub struct BenchScenario {
    /// Stable scenario name (`two_party_zoom`, `competition_meet`, …).
    pub name: String,
    /// The workload to run.
    pub spec: ScenarioSpec,
    /// Simulated seconds the run covers.
    pub sim_secs: f64,
    /// What runs on top of the engine (at most one bank per scenario, so
    /// each stage's overhead stays attributable).
    pub stage: Stage,
}

/// The passive stage a benchmark scenario measures on top of the plain
/// engine hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Telemetry disabled: the bare engine.
    Engine,
    /// The passive-inference extractors attached (the `vcabench-infer`
    /// tap bank): streaming-extraction overhead.
    Infer,
    /// The flow-level fingerprint bank attached (the
    /// `vcabench-fingerprint` accumulators): classifier
    /// feature-extraction overhead.
    Identify,
    /// The streaming span-deriving diagnoser attached (the
    /// `vcabench-observe` recorder): observability overhead.
    Observe,
    /// The tap bank attached *and* the builtin GBT estimator applied to
    /// every extracted window: the tree ensemble's inference overhead on
    /// top of the extraction path.
    Gbt,
}

/// All three VCA kinds in pinned order.
const KINDS: [VcaKind; 3] = [VcaKind::Zoom, VcaKind::Meet, VcaKind::Teams];

/// The pinned benchmark suite. `quick` shrinks every duration (CI and
/// smoke runs); the scenario *shapes* are identical in both modes.
pub fn pinned(quick: bool) -> Vec<BenchScenario> {
    let mut out = Vec::new();
    for kind in KINDS {
        let tag = vcabench_campaign::slug(kind.name());
        let duration_secs = if quick { 15.0 } else { 60.0 };
        out.push(BenchScenario {
            name: format!("two_party_{tag}"),
            spec: ScenarioSpec::TwoParty(TwoPartySpec {
                kind,
                up: RateProfile::constant_mbps(1000.0),
                down: RateProfile::constant_mbps(1000.0),
                duration_secs,
                seed: 1,
                knobs: None,
            }),
            sim_secs: duration_secs,
            stage: Stage::Engine,
        });
    }
    for kind in KINDS {
        let tag = vcabench_campaign::slug(kind.name());
        let (start, dur, total) = if quick {
            (5.0, 10.0, 20.0)
        } else {
            (10.0, 40.0, 60.0)
        };
        out.push(BenchScenario {
            name: format!("competition_{tag}"),
            spec: ScenarioSpec::Competition(CompetitionSpec {
                incumbent: kind,
                competitor: CompetitorSpec::Vca(kind),
                capacity_mbps: 2.5,
                competitor_start_secs: Some(start),
                competitor_duration_secs: Some(dur),
                total_secs: Some(total),
                seed: 1,
            }),
            sim_secs: total,
            stage: Stage::Engine,
        });
    }
    for kind in KINDS {
        let tag = vcabench_campaign::slug(kind.name());
        let duration_secs = if quick { 10.0 } else { 40.0 };
        out.push(BenchScenario {
            name: format!("multiparty_{tag}"),
            spec: ScenarioSpec::Multiparty(MultipartySpec {
                kind,
                n: 4,
                pin_c1: Some(false),
                duration_secs,
                seed: 1,
            }),
            sim_secs: duration_secs,
            stage: Stage::Engine,
        });
    }
    // The passive-stage scenarios: shaped two-party calls, each with one
    // bank attached, so the benchmark gate tracks every recorder's
    // hot-path overhead too.
    let mut staged = |name: &str, kind, up_mbps, stage| {
        let duration_secs = if quick { 10.0 } else { 30.0 };
        out.push(BenchScenario {
            name: name.to_string(),
            spec: ScenarioSpec::TwoParty(TwoPartySpec {
                kind,
                up: RateProfile::constant_mbps(up_mbps),
                down: RateProfile::constant_mbps(1000.0),
                duration_secs,
                seed: 1,
                knobs: None,
            }),
            sim_secs: duration_secs,
            stage,
        });
    };
    // Inference: a Zoom call squeezed into 0.5 Mbps — FEC-heavy and
    // freeze-prone, so the extractors see every packet class.
    staged("infer_two_party_zoom", VcaKind::Zoom, 0.5, Stage::Infer);
    // Identification: a mixed-shaping Teams call (uplink throttled,
    // downlink open — the two flow accumulators see very different
    // traffic).
    staged(
        "identify_two_party_mixed",
        VcaKind::Teams,
        0.7,
        Stage::Identify,
    );
    // Observability: the inference stage's call (queue- and freeze-heavy,
    // so the span builder sees every kind of transition).
    staged("observe_two_party_zoom", VcaKind::Zoom, 0.5, Stage::Observe);
    // Boosted inference: the same call again, with the builtin GBT
    // ensemble applied to every extracted window.
    staged("gbt_two_party_zoom", VcaKind::Zoom, 0.5, Stage::Gbt);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_pinned_and_valid() {
        for quick in [false, true] {
            let suite = pinned(quick);
            assert_eq!(suite.len(), 13);
            let names: Vec<&str> = suite.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(
                names,
                [
                    "two_party_zoom",
                    "two_party_meet",
                    "two_party_teams",
                    "competition_zoom",
                    "competition_meet",
                    "competition_teams",
                    "multiparty_zoom",
                    "multiparty_meet",
                    "multiparty_teams",
                    "infer_two_party_zoom",
                    "identify_two_party_mixed",
                    "observe_two_party_zoom",
                    "gbt_two_party_zoom",
                ]
            );
            for s in &suite {
                s.spec.validate().expect("pinned spec valid");
                assert!(s.sim_secs > 0.0);
            }
            // Each passive stage is exercised by exactly one scenario.
            let staged: Vec<(Stage, &str)> = suite
                .iter()
                .filter(|s| s.stage != Stage::Engine)
                .map(|s| (s.stage, s.name.as_str()))
                .collect();
            assert_eq!(
                staged,
                [
                    (Stage::Infer, "infer_two_party_zoom"),
                    (Stage::Identify, "identify_two_party_mixed"),
                    (Stage::Observe, "observe_two_party_zoom"),
                    (Stage::Gbt, "gbt_two_party_zoom"),
                ]
            );
        }
    }

    #[test]
    fn quick_mode_only_shrinks_durations() {
        for (full, quick) in pinned(false).iter().zip(pinned(true).iter()) {
            assert_eq!(full.name, quick.name);
            assert_eq!(full.spec.seed(), quick.spec.seed());
            assert!(quick.sim_secs < full.sim_secs);
        }
    }
}
