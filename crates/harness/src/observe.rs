//! Observability harness: run scenarios with the streaming diagnoser
//! attached, build the suite report, and gate the pinned disruption
//! scenarios.
//!
//! This is the harness half of `vcabench-observe` (see that crate for
//! the span deriver, anomaly detector, and diff engine). It attaches a
//! [`SpanBuilder`] to live runs exactly like the inference and
//! fingerprinting harnesses attach their banks, diagnoses every run,
//! and — for the pinned suite — asserts the seeded causal story: every
//! disrupted run must contain a freeze explained by the complete
//! disruption → queue-buildup → freeze chain, and every unconstrained
//! run must diagnose perfectly clean. Everything is a pure function of
//! the specs, so reports are byte-identical for any `--jobs` value.

use serde::Serialize;
use vcabench_campaign::{run_indexed, ScenarioSpec, TwoPartySpec};
use vcabench_netsim::{EngineStats, RateProfile};
use vcabench_observe::{diagnose, Diagnosis, ObserveConfig, SpanBuilder};
use vcabench_simcore::{SimDuration, SimTime};
use vcabench_telemetry::artifact;
use vcabench_vca::VcaKind;

use crate::campaign::record_run;

/// Schema tag of the suite-level observe report artifact.
pub const OBSERVE_REPORT_SCHEMA: &str = "vcabench-observe-report/v1";

/// One named run to diagnose, with the pinned suite's expectation
/// attached: `Some(true)` = seeded disruption (the causal chain must be
/// found), `Some(false)` = unconstrained (zero anomalies allowed),
/// `None` = no expectation (campaign-spec mode, report only).
#[derive(Debug, Clone)]
pub struct ObserveScenario {
    /// Run label.
    pub name: String,
    /// Gate expectation.
    pub expect: Option<bool>,
    /// The scenario to run.
    pub spec: ScenarioSpec,
}

/// One diagnosed run of a suite (a `runs[]` entry of the report).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ObserveRun {
    /// Run label.
    pub name: String,
    /// Gate expectation carried over from the scenario (`null` for a
    /// report-only run).
    #[serde(rename = "expect_disruption")]
    pub expect: Option<bool>,
    /// The full diagnosis, as its own `vcabench-diagnosis/v1` document.
    pub diagnosis: Diagnosis,
}

/// The suite report: every run diagnosed, in suite order — the
/// `vcabench-observe-report/v1` artifact behind its tag.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ObserveReport {
    /// Diagnosed runs.
    pub runs: Vec<ObserveRun>,
}

/// Run one scenario with a [`SpanBuilder`] attached (streaming, online —
/// no event log is kept) and diagnose the derived timeline, also
/// returning the engine's counters (`benchmark/` reads these).
pub fn run_spec_observe_metered(
    spec: &ScenarioSpec,
    cfg: &ObserveConfig,
) -> (Diagnosis, EngineStats) {
    let builder = SpanBuilder::new(cfg.clone());
    let (builder, sim, engine) = record_run(spec, builder);
    let duration = sim.into_ground_truth().1;
    (diagnose(builder.finish(duration), cfg), engine)
}

/// The pinned disruption suite: for each VCA family, one two-party run
/// whose uplink collapses mid-call (3 Mbps → 0.3 Mbps) and one fully
/// unconstrained control run. `quick` shortens every run for smoke use;
/// both variants seed the same causal chain.
pub fn pinned_disruption_suite(quick: bool) -> Vec<ObserveScenario> {
    let (total_secs, start_secs, dip_secs) = if quick {
        (30.0, 8.0, 10.0)
    } else {
        (60.0, 20.0, 15.0)
    };
    let kinds = [VcaKind::Meet, VcaKind::Zoom, VcaKind::Teams];
    let mut suite = Vec::new();
    for kind in kinds {
        let up = RateProfile::disruption(
            3.0e6,
            0.3e6,
            SimTime::from_secs_f64(start_secs),
            SimDuration::from_secs_f64(dip_secs),
        );
        suite.push(ObserveScenario {
            name: format!("disrupted_{}", kind.name().to_lowercase()),
            expect: Some(true),
            spec: ScenarioSpec::TwoParty(TwoPartySpec {
                kind,
                up,
                down: crate::run::unconstrained(),
                duration_secs: total_secs,
                seed: 1,
                knobs: None,
            }),
        });
    }
    for kind in kinds {
        suite.push(ObserveScenario {
            name: format!("unconstrained_{}", kind.name().to_lowercase()),
            expect: Some(false),
            spec: crate::campaign::unshaped_two_party(kind, total_secs, 1),
        });
    }
    suite
}

/// Diagnose a suite on `jobs` workers. Output order and bytes are
/// independent of `jobs`.
pub fn observe_suite(scenarios: &[ObserveScenario], jobs: usize) -> ObserveReport {
    let runs = run_indexed(scenarios.len(), jobs, |i| ObserveRun {
        name: scenarios[i].name.clone(),
        expect: scenarios[i].expect,
        diagnosis: run_spec_observe_metered(&scenarios[i].spec, &ObserveConfig).0,
    });
    ObserveReport { runs }
}

/// Evaluate the gate: disrupted runs must contain at least one freeze
/// carrying the complete disruption → queue-buildup → freeze chain;
/// unconstrained runs must have zero anomalies and zero freezes. Runs
/// without an expectation are not gated. Returns one message per
/// failure, empty on pass.
pub fn gate_failures(report: &ObserveReport) -> Vec<String> {
    let mut failures = Vec::new();
    for run in &report.runs {
        let h = &run.diagnosis.health;
        match run.expect {
            Some(true) if h.chains_complete == 0 => {
                failures.push(format!(
                    "{}: seeded disruption not diagnosed — {} freezes, {} with the \
                     complete disruption->queue-buildup->freeze chain",
                    run.name, h.freezes, h.chains_complete
                ));
            }
            Some(false) if h.anomalies != 0 || h.freezes != 0 => {
                failures.push(format!(
                    "{}: expected a clean run, found {} anomalies and {} freezes",
                    run.name, h.anomalies, h.freezes
                ));
            }
            _ => {}
        }
    }
    failures
}

/// Render the suite report as deterministic text.
pub fn render_observe_report(report: &ObserveReport) -> String {
    let mut s = String::new();
    s.push_str(&format!("observe: {} runs diagnosed\n", report.runs.len()));
    for run in &report.runs {
        let h = &run.diagnosis.health;
        let classes: Vec<String> = h
            .by_class
            .iter()
            .map(|(class, n)| format!("{class}:{n}"))
            .collect();
        s.push_str(&format!(
            "  {:<22} grade={:<8} score={:<3} spans={:<3} anomalies={} [{}] \
             freezes={} ({:.1}s) chains={}/{}\n",
            run.name,
            h.grade,
            h.score,
            h.spans,
            h.anomalies,
            classes.join(" "),
            h.freezes,
            h.freeze_us as f64 * 1e-6,
            h.chains_complete,
            h.freezes,
        ));
        for ex in &run.diagnosis.explanations {
            s.push_str(&format!(
                "    freeze @ {:.2}s-{:.2}s client {} <- {} verdict={} contributors={}{}\n",
                ex.start.as_secs_f64(),
                ex.end.as_secs_f64(),
                ex.client,
                ex.sender,
                ex.verdict,
                ex.contributors.len(),
                if ex.chain_complete {
                    " chain=complete"
                } else {
                    ""
                },
            ));
        }
        for a in &run.diagnosis.anomalies {
            s.push_str(&format!(
                "    {} [{}] @ {:.2}s-{:.2}s {}: {}\n",
                a.class,
                a.severity.name(),
                a.start.as_secs_f64(),
                a.end.as_secs_f64(),
                a.subject,
                a.detail,
            ));
        }
    }
    s
}

/// Serialize the suite report as a stable JSON artifact (fixed key
/// order, pretty-printed, trailing newline).
pub fn observe_report_json(report: &ObserveReport) -> String {
    artifact::to_json(OBSERVE_REPORT_SCHEMA, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::unshaped_two_party;
    use vcabench_observe::diagnose_jsonl;
    use vcabench_telemetry::{events_jsonl, EventLog, Telemetry};

    fn disrupted_quick(kind: VcaKind) -> ScenarioSpec {
        pinned_disruption_suite(true)
            .into_iter()
            .find(|s| s.spec_kind() == kind && s.expect == Some(true))
            .expect("suite covers every kind")
            .spec
    }

    impl ObserveScenario {
        fn spec_kind(&self) -> VcaKind {
            match &self.spec {
                ScenarioSpec::TwoParty(s) => s.kind,
                other => panic!("pinned suite is two-party only: {other:?}"),
            }
        }
    }

    #[test]
    fn live_and_offline_diagnosis_are_identical() {
        let spec = disrupted_quick(VcaKind::Zoom);
        let cfg = ObserveConfig;
        let live = run_spec_observe_metered(&spec, &cfg).0;
        // Offline: capture the full event log of an identical run, then
        // replay the JSONL export through a fresh builder.
        let (tel, log) = Telemetry::with_log(EventLog::unbounded());
        crate::campaign::run_spec_metered(&spec, &tel);
        let jsonl = events_jsonl(&log.borrow());
        let offline = diagnose_jsonl(&jsonl, &cfg, Some(live.timeline.end)).expect("replay");
        assert_eq!(live, offline);
        assert!(!live.timeline.spans.is_empty());
    }

    #[test]
    fn quick_disruption_run_carries_the_complete_chain() {
        let spec = disrupted_quick(VcaKind::Meet);
        let d = run_spec_observe_metered(&spec, &ObserveConfig).0;
        assert!(d.health.freezes > 0, "disruption must freeze the call");
        assert!(
            d.health.chains_complete > 0,
            "chain not found; explanations: {:?}",
            d.explanations
        );
        assert!(
            d.anomalies.iter().any(|a| a.class == "sustained_queue"),
            "queue buildup expected"
        );
    }

    #[test]
    fn quick_unconstrained_run_is_clean() {
        let spec = unshaped_two_party(VcaKind::Teams, 30.0, 1);
        let d = run_spec_observe_metered(&spec, &ObserveConfig).0;
        assert_eq!(d.health.grade, "healthy");
        assert_eq!(d.health.anomalies, 0);
        assert_eq!(d.health.freezes, 0);
        assert_eq!(d.health.score, 100);
    }

    #[test]
    fn suite_output_is_independent_of_jobs() {
        let scenarios: Vec<ObserveScenario> = vec![
            ObserveScenario {
                name: "disrupted_zoom".to_string(),
                expect: Some(true),
                spec: disrupted_quick(VcaKind::Zoom),
            },
            ObserveScenario {
                name: "clean_meet".to_string(),
                expect: Some(false),
                spec: unshaped_two_party(VcaKind::Meet, 12.0, 2),
            },
        ];
        let one = observe_suite(&scenarios, 1);
        let many = observe_suite(&scenarios, 4);
        assert_eq!(one, many);
        assert_eq!(observe_report_json(&one), observe_report_json(&many));
        assert_eq!(render_observe_report(&one), render_observe_report(&many));
    }

    #[test]
    fn gate_flags_the_right_runs() {
        let clean =
            run_spec_observe_metered(&unshaped_two_party(VcaKind::Meet, 10.0, 1), &ObserveConfig).0;
        let report = ObserveReport {
            runs: vec![
                ObserveRun {
                    name: "claims_disruption".to_string(),
                    expect: Some(true),
                    diagnosis: clean.clone(),
                },
                ObserveRun {
                    name: "claims_clean".to_string(),
                    expect: Some(false),
                    diagnosis: clean.clone(),
                },
                ObserveRun {
                    name: "ungated".to_string(),
                    expect: None,
                    diagnosis: clean,
                },
            ],
        };
        let failures = gate_failures(&report);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("claims_disruption:"));
    }

    #[test]
    fn pinned_suite_shape() {
        for quick in [false, true] {
            let suite = pinned_disruption_suite(quick);
            assert_eq!(suite.len(), 6);
            assert_eq!(suite.iter().filter(|s| s.expect == Some(true)).count(), 3);
            let names: Vec<&str> = suite.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(
                names,
                [
                    "disrupted_meet",
                    "disrupted_zoom",
                    "disrupted_teams",
                    "unconstrained_meet",
                    "unconstrained_zoom",
                    "unconstrained_teams",
                ]
            );
        }
    }
}
