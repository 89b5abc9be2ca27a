//! Anomaly detection and causal annotation over a derived [`Timeline`].
//!
//! The detector classifies five episode families — sustained queue,
//! congestion-controller oscillation, stall with an idle link, FEC
//! spike, slow recovery — each with a severity and a time range, and
//! annotates every freeze with the spans that plausibly caused it: all
//! diagnostic spans overlapping a lookback window ending at the freeze.
//! A freeze whose lookback contains both a *reduced* rate regime and a
//! queue-buildup episode carries the full disruption → queue-buildup →
//! freeze causal chain (`chain_complete`); that chain is what the
//! `repro observe` gate asserts on the pinned disruption scenarios.
//!
//! Everything is a pure function of the timeline, so the online and
//! offline paths (and every `--jobs` level) produce identical output.

use std::collections::BTreeMap;

use serde::{json, Serialize};
use serde_json::Value;
use vcabench_simcore::SimTime;
use vcabench_telemetry::artifact;

use crate::span::{
    ObserveConfig, Span, SpanKind, Timeline, FEC_ELEVATED_FRACTION, QUEUE_ENTER_BYTES,
};

/// Schema tag of the per-run diagnosis JSON object.
pub const DIAGNOSIS_SCHEMA: &str = "vcabench-diagnosis/v1";

/// Minimum buildup length (seconds) to classify `sustained_queue`.
const SUSTAINED_QUEUE_SECS: f64 = 1.0;
/// A cc epoch shorter than this (seconds) counts as flappy.
const FLAPPY_EPOCH_SECS: f64 = 1.0;
/// Consecutive flappy epochs needed to classify `cc_oscillation`.
const OSCILLATION_EPOCHS: usize = 6;
/// Minimum elevation length (seconds) to classify `fec_spike`.
const FEC_SPIKE_SECS: f64 = 1.0;
/// A buildup outliving a rate recovery by more than this (seconds)
/// classifies `slow_recovery`.
const SLOW_RECOVERY_SECS: f64 = 2.0;
/// How far back (seconds) from a freeze the causal annotator looks for
/// contributory spans.
const LOOKBACK_SECS: f64 = 10.0;

/// How bad an anomaly is. Ordered: `Info < Warn < Critical`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Notable but expected under the configured workload.
    Info,
    /// Quality was degraded.
    Warn,
    /// Quality was degraded and data was lost.
    Critical,
}

impl Severity {
    /// Stable lowercase tag for reports.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Critical => "critical",
        }
    }
}

/// Serializes as its [`name`](Severity::name), not as the variant's.
impl Serialize for Severity {
    fn write_json(&self, out: &mut String) {
        self.name().write_json(out);
    }
}

/// All anomaly class tags the detector can emit, sorted.
pub const ANOMALY_CLASSES: [&str; 5] = [
    "cc_oscillation",
    "fec_spike",
    "slow_recovery",
    "stall_with_idle_link",
    "sustained_queue",
];

/// One classified episode (an `anomalies[]` entry of the diagnosis).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Anomaly {
    /// Class tag (one of [`ANOMALY_CLASSES`]).
    pub class: &'static str,
    /// Severity of the episode.
    pub severity: Severity,
    /// Episode start.
    #[serde(rename = "start_us")]
    pub start: SimTime,
    /// Episode end.
    #[serde(rename = "end_us")]
    pub end: SimTime,
    /// What the episode is about (`"link 0"` / `"client 1"`).
    pub subject: String,
    /// One-line human-readable description.
    pub detail: String,
    /// Indices into the diagnosis span list of the spans this episode
    /// was derived from, ascending.
    pub causes: Vec<usize>,
}

/// The causal annotation of one freeze span: what was going on in the
/// lookback window that ended at the freeze (an `explanations[]` entry).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Explanation {
    /// Index of the freeze span in the diagnosis span list.
    pub freeze_span: usize,
    /// Client whose render path froze.
    pub client: u64,
    /// Sending client.
    pub sender: u64,
    /// Freeze interval start.
    #[serde(rename = "start_us")]
    pub start: SimTime,
    /// Freeze interval end.
    #[serde(rename = "end_us")]
    pub end: SimTime,
    /// `"congestion"` (a queue built up), `"loss"` (packets were dropped
    /// with no buildup), or `"decoder_stall"` (the network was idle).
    pub verdict: &'static str,
    /// Indices of contributory spans overlapping the lookback window,
    /// ascending: queue buildups, reduced rate regimes, backoff cc
    /// epochs, FEC elevations.
    pub contributors: Vec<usize>,
    /// True when the contributors contain both a reduced rate regime and
    /// a queue-buildup episode — the full disruption → queue-buildup →
    /// freeze chain.
    pub chain_complete: bool,
}

/// The per-run scorecard (the diagnosis' `health` member).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HealthReport {
    /// `"healthy"`, `"degraded"`, or `"critical"`.
    pub grade: &'static str,
    /// 0–100; 100 minus penalties (5 per info, 10 per warn, 25 per
    /// critical anomaly, 5 per freeze), floored at 0.
    pub score: u64,
    /// Run length in whole microseconds.
    pub duration_us: u64,
    /// Spans derived.
    pub spans: u64,
    /// Anomalies detected.
    pub anomalies: u64,
    /// Anomaly counts per class tag, sorted by tag.
    pub by_class: BTreeMap<&'static str, u64>,
    /// Freeze spans.
    pub freezes: u64,
    /// Total frozen time across all freeze spans, microseconds.
    pub freeze_us: u64,
    /// Freezes whose explanation carries the complete causal chain.
    pub chains_complete: u64,
}

/// The full diagnosis of one run: the timeline plus everything derived
/// from it.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnosis {
    /// The derived timeline (spans + per-second windows).
    pub timeline: Timeline,
    /// Classified episodes, sorted by (start, end, class, subject).
    pub anomalies: Vec<Anomaly>,
    /// One explanation per freeze span, in span order.
    pub explanations: Vec<Explanation>,
    /// The scorecard.
    pub health: HealthReport,
}

/// The `vcabench-diagnosis/v1` document, tag included, so that a report
/// embedding a diagnosis derives through it. Hand-written because the
/// timeline is flattened into `end_us` and `spans`, and its raw windows are
/// left out (they live in the spans artifact and the diff engine).
impl Serialize for Diagnosis {
    fn write_json(&self, out: &mut String) {
        let members: [(&str, &dyn Serialize); 5] = [
            ("end_us", &self.timeline.end),
            ("spans", &self.timeline.spans),
            ("anomalies", &self.anomalies),
            ("explanations", &self.explanations),
            ("health", &self.health),
        ];
        artifact::envelope(DIAGNOSIS_SCHEMA, &json::Members(&members)).write_json(out);
    }
}

impl Diagnosis {
    /// The `vcabench-diagnosis/v1` document as a tree: what [`Serialize`]
    /// writes, parsed back (`serde_json::to_value`).
    pub fn to_json_value(&self) -> Value {
        serde_json::to_value(self).expect("a diagnosis serializes")
    }
}

/// A cc state that means the controller is backing off — a causal
/// contributor when it precedes a freeze.
fn is_backoff_state(state: &str, signal: Option<&str>) -> bool {
    matches!(state, "decrease" | "fall" | "decay") || signal == Some("overuse")
}

/// Total drops recorded in the per-second windows overlapping
/// `[from, to]`.
fn drops_in(timeline: &Timeline, from: SimTime, to: SimTime) -> u64 {
    let w0 = (from.as_micros() / 1_000_000) as usize;
    let w1 = (to.as_micros() / 1_000_000) as usize;
    timeline
        .windows
        .iter()
        .skip(w0)
        .take(w1.saturating_sub(w0) + 1)
        .map(|w| w.drops)
        .sum()
}

/// Classify episodes and annotate freezes (the thresholds are this
/// module's constants). Pure: identical timelines yield identical
/// diagnoses.
pub fn diagnose(timeline: Timeline, _: &ObserveConfig) -> Diagnosis {
    let spans = &timeline.spans;
    let mut anomalies: Vec<Anomaly> = Vec::new();

    // sustained_queue: a buildup episode outliving the threshold.
    // Critical when it tail-dropped packets, Warn otherwise.
    for (i, sp) in spans.iter().enumerate() {
        if let SpanKind::QueueBuildup {
            peak_bytes, drops, ..
        } = sp.kind
        {
            if sp.secs() >= SUSTAINED_QUEUE_SECS {
                anomalies.push(Anomaly {
                    class: "sustained_queue",
                    severity: if drops > 0 {
                        Severity::Critical
                    } else {
                        Severity::Warn
                    },
                    start: sp.start,
                    end: sp.end,
                    subject: sp.kind.subject(),
                    detail: format!(
                        "queue held above {} B for {:.1} s (peak {} B, {} drops)",
                        QUEUE_ENTER_BYTES,
                        sp.secs(),
                        peak_bytes,
                        drops
                    ),
                    causes: vec![i],
                });
            }
        }
    }

    // cc_oscillation: a run of consecutive flappy epochs on one client.
    let mut per_client: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, sp) in spans.iter().enumerate() {
        if let SpanKind::CcEpoch { client, .. } = sp.kind {
            per_client.entry(client).or_default().push(i);
        }
    }
    for epochs in per_client.values() {
        let mut run: Vec<usize> = Vec::new();
        let flush = |run: &mut Vec<usize>, anomalies: &mut Vec<Anomaly>| {
            if run.len() >= OSCILLATION_EPOCHS {
                let first = &spans[run[0]];
                let last = &spans[*run.last().expect("run is non-empty")];
                anomalies.push(Anomaly {
                    class: "cc_oscillation",
                    severity: Severity::Warn,
                    start: first.start,
                    end: last.end,
                    subject: first.kind.subject(),
                    detail: format!(
                        "{} consecutive cc epochs each under {:.1} s",
                        run.len(),
                        FLAPPY_EPOCH_SECS
                    ),
                    causes: run.clone(),
                });
            }
            run.clear();
        };
        for &i in epochs {
            if spans[i].secs() < FLAPPY_EPOCH_SECS {
                run.push(i);
            } else {
                flush(&mut run, &mut anomalies);
            }
        }
        flush(&mut run, &mut anomalies);
    }

    // fec_spike: a sustained FEC-elevation window.
    for (i, sp) in spans.iter().enumerate() {
        if let SpanKind::FecElevation { peak_fraction, .. } = sp.kind {
            if sp.secs() >= FEC_SPIKE_SECS {
                anomalies.push(Anomaly {
                    class: "fec_spike",
                    severity: Severity::Info,
                    start: sp.start,
                    end: sp.end,
                    subject: sp.kind.subject(),
                    detail: format!(
                        "planned FEC fraction held at or above {:.2} for {:.1} s (peak {:.2})",
                        FEC_ELEVATED_FRACTION,
                        sp.secs(),
                        peak_fraction
                    ),
                    causes: vec![i],
                });
            }
        }
    }

    // slow_recovery: a buildup on a link that outlives the link's rate
    // recovery (the end of a reduced regime) by more than the threshold.
    for (ri, regime) in spans.iter().enumerate() {
        let SpanKind::RateRegime {
            link,
            reduced: true,
            ..
        } = regime.kind
        else {
            continue;
        };
        if regime.end >= timeline.end {
            continue; // never recovered: the buildup is the disruption's fault
        }
        let recovery = regime.end;
        let slack = SimTime::from_secs_f64(SLOW_RECOVERY_SECS).as_micros();
        for (bi, buildup) in spans.iter().enumerate() {
            let SpanKind::QueueBuildup { link: bl, .. } = buildup.kind else {
                continue;
            };
            if bl != link || buildup.start > recovery {
                continue;
            }
            if buildup.end.as_micros() > recovery.as_micros() + slack {
                anomalies.push(Anomaly {
                    class: "slow_recovery",
                    severity: Severity::Warn,
                    start: recovery,
                    end: buildup.end,
                    subject: regime.kind.subject(),
                    detail: format!(
                        "queue stayed built up {:.1} s past the rate recovery",
                        (buildup.end - recovery).as_secs_f64()
                    ),
                    causes: vec![ri.min(bi), ri.max(bi)],
                });
            }
        }
    }

    // Causal annotation: one explanation per freeze span.
    let lookback = SimTime::from_secs_f64(LOOKBACK_SECS).as_micros();
    let mut explanations: Vec<Explanation> = Vec::new();
    for (fi, fsp) in spans.iter().enumerate() {
        let SpanKind::Freeze { client, sender, .. } = fsp.kind else {
            continue;
        };
        let from = SimTime::from_micros(fsp.start.as_micros().saturating_sub(lookback));
        let to = fsp.end;
        let mut contributors: Vec<usize> = Vec::new();
        let mut saw_buildup = false;
        let mut saw_reduced = false;
        for (i, sp) in spans.iter().enumerate() {
            if i == fi || !sp.overlaps(from, to) {
                continue;
            }
            let contributes = match &sp.kind {
                SpanKind::QueueBuildup { .. } => {
                    saw_buildup = true;
                    true
                }
                SpanKind::RateRegime { reduced, .. } => {
                    saw_reduced |= reduced;
                    *reduced
                }
                SpanKind::CcEpoch { state, signal, .. } => is_backoff_state(state, *signal),
                SpanKind::FecElevation { .. } => true,
                SpanKind::Freeze { .. } => false,
            };
            if contributes {
                contributors.push(i);
            }
        }
        let verdict = if saw_buildup {
            "congestion"
        } else if drops_in(&timeline, from, to) > 0 {
            "loss"
        } else {
            "decoder_stall"
        };
        explanations.push(Explanation {
            freeze_span: fi,
            client,
            sender,
            start: fsp.start,
            end: fsp.end,
            verdict,
            contributors,
            chain_complete: saw_buildup && saw_reduced,
        });
    }

    // stall_with_idle_link: a freeze the lookback cannot pin on the
    // network at all — no buildup, no drops.
    for ex in &explanations {
        if ex.verdict == "decoder_stall" {
            anomalies.push(Anomaly {
                class: "stall_with_idle_link",
                severity: Severity::Warn,
                start: ex.start,
                end: ex.end,
                subject: spans[ex.freeze_span].kind.subject(),
                detail: format!(
                    "render froze for {:.1} s with no queue buildup or drops in the \
                     {:.0} s lookback",
                    (ex.end - ex.start).as_secs_f64(),
                    LOOKBACK_SECS
                ),
                causes: vec![ex.freeze_span],
            });
        }
    }

    anomalies.sort_by(|a, b| {
        a.start
            .cmp(&b.start)
            .then(a.end.cmp(&b.end))
            .then(a.class.cmp(b.class))
            .then(a.subject.cmp(&b.subject))
    });

    // Scorecard.
    let mut by_class: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut penalty: u64 = 0;
    for a in &anomalies {
        *by_class.entry(a.class).or_insert(0) += 1;
        penalty += match a.severity {
            Severity::Info => 5,
            Severity::Warn => 10,
            Severity::Critical => 25,
        };
    }
    let freezes: Vec<&Span> = timeline.spans_of("freeze").collect();
    penalty += 5 * freezes.len() as u64;
    let freeze_us: u64 = freezes
        .iter()
        .map(|s| s.end.as_micros() - s.start.as_micros())
        .sum();
    let worst = anomalies.iter().map(|a| a.severity).max();
    let grade = if worst >= Some(Severity::Critical) {
        "critical"
    } else if worst.is_some() || !freezes.is_empty() {
        "degraded"
    } else {
        "healthy"
    };
    let health = HealthReport {
        grade,
        score: 100u64.saturating_sub(penalty),
        duration_us: timeline.end.as_micros(),
        spans: timeline.spans.len() as u64,
        anomalies: anomalies.len() as u64,
        by_class,
        freezes: freezes.len() as u64,
        freeze_us,
        chains_complete: explanations.iter().filter(|e| e.chain_complete).count() as u64,
    };

    Diagnosis {
        timeline,
        anomalies,
        explanations,
        health,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanBuilder;
    use vcabench_telemetry::{EventKind, Recorder};

    fn builder() -> SpanBuilder {
        SpanBuilder::new(ObserveConfig)
    }

    fn diagnose_built(b: SpanBuilder, end_secs: u64) -> Diagnosis {
        diagnose(b.finish(SimTime::from_secs(end_secs)), &ObserveConfig)
    }

    fn enq(link: u64, queue_bytes: u64) -> EventKind {
        EventKind::PacketEnqueued {
            link,
            flow: 10,
            pkt: 0,
            bytes: 1200,
            queue_bytes,
            queue_pkts: 1,
        }
    }

    #[test]
    fn empty_timeline_is_healthy() {
        let d = diagnose_built(builder(), 10);
        assert!(d.anomalies.is_empty());
        assert!(d.explanations.is_empty());
        assert_eq!(d.health.grade, "healthy");
        assert_eq!(d.health.score, 100);
    }

    #[test]
    fn sustained_queue_with_drops_is_critical() {
        let mut b = builder();
        b.record(SimTime::from_secs(1), enq(0, 10_000));
        b.record(
            SimTime::from_secs(2),
            EventKind::PacketDropped {
                link: 0,
                flow: 10,
                pkt: 1,
                bytes: 1200,
                queue_bytes: 32_000,
                reason: "queue_full",
            },
        );
        b.record(SimTime::from_secs(4), enq(0, 100));
        let d = diagnose_built(b, 10);
        assert_eq!(d.anomalies.len(), 1);
        let a = &d.anomalies[0];
        assert_eq!(a.class, "sustained_queue");
        assert_eq!(a.severity, Severity::Critical);
        assert_eq!(a.subject, "link 0");
        assert_eq!(d.health.grade, "critical");
        assert_eq!(d.health.score, 75);
    }

    #[test]
    fn cc_oscillation_fires_on_flappy_epochs_only() {
        let mut b = builder();
        // Seven 0.5 s epochs, then a long stable one.
        for i in 0..7u64 {
            b.record(
                SimTime::from_millis(500 * i),
                EventKind::CcState {
                    client: 0,
                    controller: "gcc",
                    state: if i % 2 == 0 { "increase" } else { "decrease" },
                    signal: None,
                    target_mbps: 1.0,
                },
            );
        }
        let d = diagnose_built(b, 30);
        let osc: Vec<&Anomaly> = d
            .anomalies
            .iter()
            .filter(|a| a.class == "cc_oscillation")
            .collect();
        assert_eq!(osc.len(), 1);
        assert_eq!(
            osc[0].causes.len(),
            6,
            "the final long epoch breaks the run"
        );
        assert_eq!(osc[0].severity, Severity::Warn);

        // Three flappy epochs are below the threshold: no anomaly.
        let mut b = builder();
        for i in 0..4u64 {
            b.record(
                SimTime::from_millis(500 * i),
                EventKind::CcState {
                    client: 0,
                    controller: "gcc",
                    state: "hold",
                    signal: None,
                    target_mbps: 1.0,
                },
            );
        }
        let d = diagnose_built(b, 30);
        assert!(d.anomalies.iter().all(|a| a.class != "cc_oscillation"));
    }

    #[test]
    fn fec_spike_is_info_grade() {
        let mut b = builder();
        b.record(
            SimTime::from_secs(1),
            EventKind::FecRatio {
                client: 0,
                fraction: 0.3,
                fec_per_media: 0.3,
            },
        );
        b.record(
            SimTime::from_secs(4),
            EventKind::FecRatio {
                client: 0,
                fraction: 0.01,
                fec_per_media: 0.01,
            },
        );
        let d = diagnose_built(b, 10);
        assert_eq!(d.anomalies.len(), 1);
        assert_eq!(d.anomalies[0].class, "fec_spike");
        assert_eq!(d.anomalies[0].severity, Severity::Info);
        assert_eq!(d.health.grade, "degraded");
        assert_eq!(d.health.score, 95);
    }

    #[test]
    fn slow_recovery_needs_a_buildup_outliving_the_recovery() {
        let mut b = builder();
        let step = |bps| EventKind::RateStep { link: 0, bps };
        b.record(SimTime::from_secs(0), step(3e6));
        b.record(SimTime::from_secs(10), step(3e5)); // disruption
        b.record(SimTime::from_secs(11), enq(0, 20_000)); // buildup opens
        b.record(SimTime::from_secs(20), step(3e6)); // recovery
        b.record(SimTime::from_secs(25), enq(0, 100)); // buildup closes 5 s later
        let d = diagnose_built(b, 30);
        let slow: Vec<&Anomaly> = d
            .anomalies
            .iter()
            .filter(|a| a.class == "slow_recovery")
            .collect();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].start, SimTime::from_secs(20));
        assert_eq!(slow[0].end, SimTime::from_secs(25));
        assert_eq!(slow[0].causes.len(), 2);
    }

    #[test]
    fn freeze_during_disruption_explains_as_complete_congestion_chain() {
        let mut b = builder();
        b.record(
            SimTime::from_secs(0),
            EventKind::RateStep { link: 0, bps: 3e6 },
        );
        b.record(
            SimTime::from_secs(20),
            EventKind::RateStep { link: 0, bps: 3e5 },
        );
        b.record(SimTime::from_millis(20_500), enq(0, 30_000));
        b.record(
            SimTime::from_secs(25),
            EventKind::Freeze {
                client: 1,
                sender: 0,
                count: 1,
                total_ms: 2000.0,
            },
        );
        b.record(
            SimTime::from_secs(35),
            EventKind::RateStep { link: 0, bps: 3e6 },
        );
        b.record(SimTime::from_secs(36), enq(0, 100));
        let d = diagnose_built(b, 60);
        assert_eq!(d.explanations.len(), 1);
        let ex = &d.explanations[0];
        assert_eq!(ex.verdict, "congestion");
        assert!(
            ex.chain_complete,
            "reduced regime + buildup both in lookback"
        );
        assert!(ex.contributors.len() >= 2);
        assert_eq!(d.health.chains_complete, 1);
        assert!(d
            .anomalies
            .iter()
            .all(|a| a.class != "stall_with_idle_link"));
    }

    #[test]
    fn freeze_on_an_idle_link_is_a_decoder_stall_anomaly() {
        let mut b = builder();
        b.record(
            SimTime::from_secs(15),
            EventKind::Freeze {
                client: 1,
                sender: 0,
                count: 1,
                total_ms: 1500.0,
            },
        );
        let d = diagnose_built(b, 30);
        assert_eq!(d.explanations.len(), 1);
        assert_eq!(d.explanations[0].verdict, "decoder_stall");
        assert!(!d.explanations[0].chain_complete);
        assert_eq!(d.anomalies.len(), 1);
        assert_eq!(d.anomalies[0].class, "stall_with_idle_link");
        assert_eq!(d.health.grade, "degraded");
    }

    #[test]
    fn freeze_after_drops_without_buildup_is_loss() {
        let mut b = builder();
        b.record(
            SimTime::from_secs(14),
            EventKind::PacketDropped {
                link: 0,
                flow: 10,
                pkt: 1,
                bytes: 1200,
                queue_bytes: 0,
                reason: "impairment",
            },
        );
        b.record(
            SimTime::from_secs(15),
            EventKind::Freeze {
                client: 1,
                sender: 0,
                count: 1,
                total_ms: 500.0,
            },
        );
        let d = diagnose_built(b, 30);
        assert_eq!(d.explanations[0].verdict, "loss");
        assert!(d
            .anomalies
            .iter()
            .all(|a| a.class != "stall_with_idle_link"));
    }

    #[test]
    fn anomaly_classes_are_sorted_and_complete() {
        let mut sorted = ANOMALY_CLASSES;
        sorted.sort_unstable();
        assert_eq!(sorted, ANOMALY_CLASSES);
    }

    #[test]
    fn diagnosis_json_has_schema_and_fixed_top_level_keys() {
        let d = diagnose_built(builder(), 5);
        let v = d.to_json_value();
        assert_eq!(
            v.get("schema"),
            Some(&Value::String(DIAGNOSIS_SCHEMA.to_string()))
        );
        let Value::Object(m) = v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "schema",
                "end_us",
                "spans",
                "anomalies",
                "explanations",
                "health"
            ]
        );
    }
}
