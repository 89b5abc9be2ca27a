//! Scenario generation and execution under every invariant audit.
//!
//! A scenario is a `vcabench_campaign` [`ScenarioSpec`] — the language every
//! figure is written in — plus, optionally, an *overlay*: `[up, down]`
//! piecewise rate profiles laid over the spec's measured hops (the shared
//! bottleneck of a competition, every access pair of a multiparty call),
//! which the spec language keeps constant there. [`run_scenario`] runs it
//! through the harness runners' own build (`harness::run::*_on`) and reads
//! the finished network with the audit reader: the invariant verdict plus
//! an integer-exact [`TraceSummary`] for determinism and golden
//! comparisons. What is audited is what produces the figures. The audit
//! hooks run in builds with debug assertions only, so a release test run
//! audits nothing and [`Audited::assert_clean`] refuses it; fuzz deep at
//! release speed with `CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true`.
//!
//! Drawn rates are integer *centi-Mbps* and drawn times whole seconds, so
//! a fuzz failure message identifies the case fully.

use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
use vcabench_campaign::{
    ClientKnobs, CompetitionSpec, CompetitorSpec, MultipartySpec, ScenarioSpec, TwoPartySpec,
};
use vcabench_harness::run::{self, Lab};
use vcabench_netsim::{EngineStats, LinkId, Network, NodeId, RateProfile};
use vcabench_simcore::{SimDuration, SimTime, Violation};
use vcabench_telemetry::Telemetry;
use vcabench_transport::Wire;
use vcabench_vca::{VcaClient, VcaKind};

use crate::golden::{LinkSummary, TraceSummary};

/// Hard cap on fuzzed scenario length, in simulated seconds.
pub const MAX_DURATION_S: u32 = 30;

/// Verdict and summary of one scenario run.
#[derive(Debug, Clone)]
pub struct Audited {
    /// Hook checks performed, `(layer, count)`: the engine clock, the link
    /// audits, the RTP receivers.
    pub checks: [(&'static str, u64); 3],
    /// Every violation recorded anywhere; empty on a healthy run.
    pub violations: Vec<Violation>,
    /// Integer-exact run summary for determinism/golden comparison.
    pub summary: TraceSummary,
    /// The engine's throughput counters.
    pub engine: EngineStats,
}

impl Audited {
    /// Why this run proves nothing, if it does not: a layer whose hooks
    /// never ran (every scenario moves media, so each layer sees thousands
    /// of checks once the hooks are compiled in).
    pub fn vacuous(&self) -> Option<String> {
        let (layer, _) = self.checks.iter().find(|(_, n)| *n == 0)?;
        Some(format!(
            "no {layer} check ran: the audit hooks are compiled only with debug assertions \
             (in a release build, CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true)"
        ))
    }

    /// Panic with a readable report if any invariant was violated or a
    /// layer went unaudited (a vacuous pass proves nothing).
    pub fn assert_clean(&self) {
        if let Some(why) = self.vacuous() {
            panic!("{why}");
        }
        if !self.violations.is_empty() {
            let lines: Vec<String> = self.violations.iter().map(|v| v.to_string()).collect();
            panic!(
                "{} invariant violation(s):\n{}",
                self.violations.len(),
                lines.join("\n")
            );
        }
    }
}

/// Build `spec` the way the harness does — with `overlay`'s `[up, down]`
/// profiles on its measured hops, if any — run it recording through `tel`,
/// and audit the finished network.
pub fn run_scenario(
    spec: &ScenarioSpec,
    overlay: Option<&[RateProfile; 2]>,
    tel: &Telemetry,
) -> Audited {
    let shape = |lab: &mut Lab| {
        if let Some([up, down]) = overlay {
            lab.up.rate = up.clone();
            lab.down.rate = down.clone();
        }
    };
    let scenario = match overlay {
        Some(overlay) => format!("{spec:?} under {overlay:?}"),
        None => format!("{spec:?}"),
    };
    match spec {
        ScenarioSpec::TwoParty(s) => {
            let read = |call: &run::TwoPartyCall, end| {
                let t = &call.topo;
                let links = [
                    ("c1_up", t.c1_up),
                    ("c1_down", t.c1_down),
                    ("wan_up", t.wan_up),
                    ("wan_down", t.wan_down),
                    ("c2_up", t.c2_up),
                    ("c2_down", t.c2_down),
                ]
                .map(|(name, id)| LinkSummary::of(name, call.net.link(id), end));
                audit(scenario, &call.net, &call.handles.clients, &[], &links, end)
            };
            run::two_party_on(s, shape, tel, read).0
        }
        ScenarioSpec::Competition(s) => {
            let read = |call: &run::CompetitionCall, end| {
                let t = &call.topo;
                let links = [
                    ("bottleneck_up", t.bottleneck_up),
                    ("bottleneck_down", t.bottleneck_down),
                ]
                .map(|(name, id)| LinkSummary::of(name, call.net.link(id), end));
                // A competing call's clients are VCA clients too.
                let rivals: &[NodeId] = match s.competitor {
                    CompetitorSpec::Vca(_) => &[t.f1, t.f2],
                    _ => &[],
                };
                let clients = &call.handles.clients;
                audit(scenario, &call.net, clients, rivals, &links, end)
            };
            run::competition_on(s, shape, tel, read).0
        }
        ScenarioSpec::Multiparty(s) => {
            let read = |call: &run::MultipartyCall, end| {
                let numbered = |stem, ids: &[LinkId]| -> Vec<LinkSummary> {
                    let of =
                        |(i, &id)| LinkSummary::of(&format!("{stem}{i}"), call.net.link(id), end);
                    ids.iter().enumerate().map(of).collect()
                };
                let mut links = numbered("up", &call.topo.uplinks);
                links.extend(numbered("down", &call.topo.downlinks));
                audit(scenario, &call.net, &call.handles.clients, &[], &links, end)
            };
            run::multiparty_on(s, shape, tel, read).0
        }
    }
}

/// The audit reader: every violation and check count in `net` — the engine
/// clock and link audits, routing health, the RTP receivers of the measured
/// call's `clients` and of any `rivals` — and the summary over `links`.
fn audit(
    scenario: String,
    net: &Network<Wire>,
    clients: &[NodeId],
    rivals: &[NodeId],
    links: &[LinkSummary],
    end: SimTime,
) -> Audited {
    let mut violations = net.invariant_violations();
    let (clock_checks, link_checks) = net.invariant_checks();
    // Routing is part of conservation at network scope: a packet that fell
    // off the routing table disappeared without being dropped by a queue.
    if net.unrouted_drops > 0 {
        violations.push(Violation {
            at: net.now(),
            invariant: "no-unrouted-packets",
            detail: format!("{} packet(s) had no route", net.unrouted_drops),
        });
    }
    let mut rtp_checks = 0;
    for &node in clients.iter().chain(rivals) {
        let client: &VcaClient = net.agent(node);
        rtp_checks += client.audit_checks();
        violations.extend(client.audit_violations());
    }
    let (c1, c2): (&VcaClient, &VcaClient) = (net.agent(clients[0]), net.agent(clients[1]));
    let summary = TraceSummary {
        scenario,
        duration_s: (end - SimTime::ZERO).as_secs_f64() as u32,
        links: links.to_vec(),
        c1_frames_decoded: (1..clients.len() as u32)
            .map(|sender| c1.frames_decoded_from(sender))
            .sum(),
        c2_frames_decoded: c2.frames_decoded_from(0),
    };
    Audited {
        checks: [
            ("engine-clock", clock_checks),
            ("link", link_checks),
            ("RTP-receiver", rtp_checks),
        ],
        violations,
        summary,
        engine: net.engine_stats(),
    }
}

/// Proptest strategy over valid scenarios, durations in
/// `[min_duration_s, max_duration_s]`.
#[derive(Debug, Clone, Copy)]
pub struct ArbScenario {
    min_duration_s: u32,
    max_duration_s: u32,
}

/// Strategy generating arbitrary valid `(spec, overlay)` scenarios with
/// durations in `[min_s, max_s]` (clamped to [`MAX_DURATION_S`]).
pub fn arb_scenario(min_s: u32, max_s: u32) -> ArbScenario {
    assert!(min_s >= 6, "runs shorter than 6 s never exchange media");
    let max_s = max_s.min(MAX_DURATION_S);
    assert!(min_s <= max_s);
    ArbScenario {
        min_duration_s: min_s,
        max_duration_s: max_s,
    }
}

fn draw_u32(rng: &mut TestRng, lo: u32, hi_incl: u32) -> u32 {
    lo + (rng.next_u64() % (hi_incl - lo + 1) as u64) as u32
}

fn draw_of<T: Copy>(rng: &mut TestRng, of: &[T]) -> T {
    of[(rng.next_u64() % of.len() as u64) as usize]
}

/// A rate in 0.3–10 Mbps, as centi-Mbps: below the paper's lowest
/// disruption floor up to comfortably unconstrained for a single call.
fn draw_cmbps(rng: &mut TestRng) -> f64 {
    draw_u32(rng, 30, 1000) as f64
}

/// A constant, stepped or disrupted (the §4 transient) schedule, mirroring
/// the paper's `tc` shapes.
fn draw_profile(rng: &mut TestRng, duration_s: u32) -> RateProfile {
    let secs = |s: u32| SimTime::from_secs(s as u64);
    // 1 centi-Mbps = 1e4 bps.
    match rng.next_u64() % 3 {
        0 => RateProfile::constant(draw_cmbps(rng) * 1e4),
        1 => {
            let start = RateProfile::constant(draw_cmbps(rng) * 1e4);
            let at = secs(draw_u32(rng, 2, duration_s - 2));
            start.step(at, draw_cmbps(rng) * 1e4)
        }
        _ => {
            let start_s = draw_u32(rng, 2, duration_s - 4);
            let nominal = draw_cmbps(rng) * 1e4;
            let reduced = draw_u32(rng, 25, 100) as f64 * 1e4;
            let dur_s = draw_u32(rng, 2, (duration_s - start_s).min(10));
            let dur = SimDuration::from_secs(dur_s as u64);
            RateProfile::disruption(nominal, reduced, secs(start_s), dur)
        }
    }
}

/// Three times in four, the piecewise profiles a spec cannot say for itself.
fn draw_overlay(rng: &mut TestRng, duration_s: u32) -> Option<[RateProfile; 2]> {
    (draw_u32(rng, 0, 3) != 0)
        .then(|| [draw_profile(rng, duration_s), draw_profile(rng, duration_s)])
}

/// One time in three, knobs on C1: the width bug forced either way, and
/// half the time a paired rate floor and ceiling.
fn draw_knobs(rng: &mut TestRng) -> Option<ClientKnobs> {
    (draw_u32(rng, 0, 2) == 0).then(|| {
        let floor = draw_u32(rng, 5, 50) as f64 / 100.0;
        let bounds = (draw_u32(rng, 0, 1) == 0).then(|| (floor, floor + draw_cmbps(rng) / 100.0));
        ClientKnobs {
            teams_width_bug: draw_of(rng, &[None, Some(false), Some(true)]),
            min_rate_mbps: bounds.map(|b| b.0),
            max_rate_mbps: bounds.map(|b| b.1),
        }
    })
}

impl Strategy for ArbScenario {
    type Value = (ScenarioSpec, Option<[RateProfile; 2]>);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let kind = draw_of(rng, &VcaKind::ALL);
        let duration_s = draw_u32(rng, self.min_duration_s, self.max_duration_s);
        let duration_secs = duration_s as f64;
        match rng.next_u64() % 4 {
            0 | 1 => {
                let spec = ScenarioSpec::TwoParty(TwoPartySpec {
                    kind,
                    up: draw_profile(rng, duration_s),
                    down: draw_profile(rng, duration_s),
                    duration_secs,
                    seed: rng.next_u64(),
                    knobs: draw_knobs(rng),
                });
                (spec, None)
            }
            2 => {
                let spec = ScenarioSpec::Multiparty(MultipartySpec {
                    kind,
                    n: draw_u32(rng, 3, 5) as usize,
                    pin_c1: draw_of(rng, &[None, Some(false), Some(true)]),
                    duration_secs,
                    seed: rng.next_u64(),
                });
                (spec, draw_overlay(rng, duration_s))
            }
            _ => {
                let competitor = match rng.next_u64() % 5 {
                    0 => CompetitorSpec::Vca(draw_of(rng, &VcaKind::ALL)),
                    1 => CompetitorSpec::IperfUp,
                    2 => CompetitorSpec::IperfDown,
                    3 => CompetitorSpec::Netflix,
                    _ => CompetitorSpec::Youtube,
                };
                // The competitor joins a third of the way in and stays.
                let start_s = duration_s / 3;
                let spec = ScenarioSpec::Competition(CompetitionSpec {
                    incumbent: kind,
                    competitor,
                    capacity_mbps: draw_cmbps(rng) / 100.0,
                    competitor_start_secs: Some(start_s as f64),
                    competitor_duration_secs: Some((duration_s - start_s) as f64),
                    total_secs: Some(duration_secs),
                    seed: rng.next_u64(),
                });
                (spec, draw_overlay(rng, duration_s))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_scenarios_are_valid() {
        let strat = arb_scenario(8, 16);
        // Coverage cannot narrow silently: 200 seeds reach every topology,
        // every competitor, every optional spec field, and a stepped and a
        // disrupted profile on the measured hops of each topology.
        let mut reached = std::collections::BTreeSet::new();
        for seed in 0..200 {
            let (spec, overlay) = strat.generate(&mut TestRng::seed_from_u64(seed));
            spec.validate().expect("drawn specs are valid");
            let topology = spec.type_tag();
            reached.insert(topology.to_string());
            let mut measured: Vec<&RateProfile> = overlay.iter().flatten().collect();
            let duration_secs = match &spec {
                ScenarioSpec::TwoParty(s) => {
                    assert!(overlay.is_none(), "a two-party spec says its own profiles");
                    measured.extend([&s.up, &s.down]);
                    if let Some(knobs) = &s.knobs {
                        reached.extend(knobs.teams_width_bug.map(|_| "width bug".to_string()));
                        reached.extend(knobs.min_rate_mbps.map(|_| "rate bounds".to_string()));
                    }
                    s.duration_secs
                }
                ScenarioSpec::Multiparty(s) => {
                    assert!((3..=5).contains(&s.n));
                    reached.extend((s.pin_c1 == Some(true)).then(|| "pin_c1".to_string()));
                    s.duration_secs
                }
                ScenarioSpec::Competition(s) => {
                    reached.insert(match s.competitor {
                        CompetitorSpec::Vca(_) => "vs vca".to_string(),
                        other => format!("vs {}", other.tag()),
                    });
                    s.timing_secs().2
                }
            };
            assert!((8.0..=16.0).contains(&duration_secs));
            for profile in measured {
                let shape = match profile.steps().len() {
                    1 => continue,
                    2 => "stepped",
                    _ => "disrupted",
                };
                reached.insert(format!("{shape} {topology}"));
            }
        }
        let reached: Vec<&str> = reached.iter().map(String::as_str).collect();
        let all = [
            "competition",
            "disrupted competition",
            "disrupted multiparty",
            "disrupted two_party",
            "multiparty",
            "pin_c1",
            "rate bounds",
            "stepped competition",
            "stepped multiparty",
            "stepped two_party",
            "two_party",
            "vs iperf_down",
            "vs iperf_up",
            "vs netflix",
            "vs vca",
            "vs youtube",
            "width bug",
        ];
        assert_eq!(reached, all);
    }

    #[test]
    fn minimal_two_party_scenario_runs_clean() {
        let spec = ScenarioSpec::TwoParty(TwoPartySpec {
            kind: VcaKind::Meet,
            up: RateProfile::constant_mbps(1.0),
            down: RateProfile::constant_mbps(1.0),
            duration_secs: 8.0,
            seed: 1,
            knobs: None,
        });
        let out = run_scenario(&spec, None, &Telemetry::disabled());
        out.assert_clean();
        for (layer, n) in out.checks {
            assert!(n > 1_000, "expected real {layer} audit volume, got {n}");
        }
        assert!(out.summary.links.iter().any(|l| l.delivered_pkts > 0));
    }

    /// The guard against a vacuous pass can fail: a run whose hooks never
    /// ran (what a release build produces) is refused, not waved through.
    #[test]
    #[should_panic(expected = "CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true")]
    fn a_run_that_audited_nothing_is_refused() {
        let unaudited = Audited {
            checks: [("engine-clock", 0), ("link", 0), ("RTP-receiver", 0)],
            violations: Vec::new(),
            summary: TraceSummary {
                scenario: String::new(),
                duration_s: 0,
                links: Vec::new(),
                c1_frames_decoded: 0,
                c2_frames_decoded: 0,
            },
            engine: EngineStats::default(),
        };
        unaudited.assert_clean();
    }
}
