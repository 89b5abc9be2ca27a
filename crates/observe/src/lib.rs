//! # vcabench-observe
//!
//! Streaming diagnosis over the telemetry stream: the layer that turns
//! raw traces into findings. The paper's core analyses are causal
//! narratives — a rate disruption fills a bottleneck queue, the
//! congestion controller backs off, the receiver freezes, recovery is
//! VCA-specific — and this crate reconstructs those narratives
//! automatically instead of leaving them to JSONL archaeology.
//!
//! - [`span`] — the [`SpanBuilder`] (a [`vcabench_telemetry::Recorder`],
//!   so it runs online during a simulation or offline over exported
//!   `.events.jsonl` traces, provably identically) folds the flat event
//!   stream into a [`Timeline`] of typed intervals — cc-state epochs,
//!   rate regimes, freeze intervals, FEC-elevation windows,
//!   queue-buildup episodes — plus per-second [`WindowMetrics`], and
//!   exports the `vcabench-spans/v1` JSONL artifact.
//! - [`anomaly`] — [`diagnose`] classifies episodes (sustained queue,
//!   cc oscillation, stall with idle link, FEC spike, slow recovery)
//!   with severity and time range, annotates every freeze with its
//!   contributory spans in a lookback window ([`Explanation`], including
//!   the disruption → queue-buildup → freeze `chain_complete` marker),
//!   and scores the run as a [`HealthReport`].
//! - [`diff`] — [`diff_runs`]/[`DiffReport`] compare two diagnosed runs
//!   or trace sets (aligned window deltas, anomalies appearing and
//!   disappearing, span-duration shifts), frozen as the
//!   `vcabench-diff/v1` artifact.
//!
//! The harness layer (`vcabench-harness::observe`) wires these into live
//! runs, the pinned disruption suite, and the `repro observe` /
//! `repro diff` subcommands.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anomaly;
pub mod diff;
pub mod span;

pub use anomaly::{
    diagnose, Anomaly, Diagnosis, Explanation, HealthReport, Severity, ANOMALY_CLASSES,
    DIAGNOSIS_SCHEMA,
};
pub use diff::{diff_runs, AnomalyDelta, DiffReport, RunDiff, SpanShift, WindowDelta, DIFF_SCHEMA};
pub use span::{ObserveConfig, Span, SpanBuilder, SpanKind, Timeline, WindowMetrics, SPANS_SCHEMA};

use vcabench_simcore::SimTime;
use vcabench_telemetry::{EventKind, Recorder};

/// Wrapper recorder remembering the last event timestamp, so an offline
/// replay can close still-open spans at the end of the trace when the
/// caller does not know the run duration.
struct LastAt<'a> {
    inner: &'a mut SpanBuilder,
    last: SimTime,
}

impl Recorder for LastAt<'_> {
    fn record(&mut self, at: SimTime, kind: EventKind) {
        self.last = at;
        self.inner.record(at, kind);
    }
}

/// Diagnose an exported `.events.jsonl` trace offline.
///
/// `end` closes still-open spans; pass the real run duration when known
/// (the online path does), otherwise the last event timestamp is used.
/// With the same events and the same `end`, the result is identical to
/// attaching a [`SpanBuilder`] to the live run — proven by the harness
/// identity test.
pub fn diagnose_jsonl(
    text: &str,
    cfg: &ObserveConfig,
    end: Option<SimTime>,
) -> Result<Diagnosis, String> {
    let mut builder = SpanBuilder::new(cfg.clone());
    let mut tap = LastAt {
        inner: &mut builder,
        last: SimTime::ZERO,
    };
    vcabench_telemetry::replay_jsonl(text, &mut tap)?;
    let end = end.unwrap_or(tap.last).max(tap.last);
    Ok(diagnose(builder.finish(end), cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offline_diagnosis_defaults_end_to_the_last_event() {
        let text = "{\"t\":0,\"kind\":\"rate_step\",\"link\":0,\"bps\":3000000}\n\
                    {\"t\":20000000,\"kind\":\"rate_step\",\"link\":0,\"bps\":300000}\n";
        let d = diagnose_jsonl(text, &ObserveConfig, None).unwrap();
        assert_eq!(d.timeline.end, SimTime::from_secs(20));
        assert_eq!(d.timeline.spans.len(), 2);
        let explicit = diagnose_jsonl(text, &ObserveConfig, Some(SimTime::from_secs(60))).unwrap();
        assert_eq!(explicit.timeline.end, SimTime::from_secs(60));
        // The open regime now closes at the explicit end.
        assert_eq!(explicit.timeline.spans[1].end, SimTime::from_secs(60));
    }

    #[test]
    fn offline_diagnosis_rejects_malformed_traces() {
        assert!(diagnose_jsonl("not json", &ObserveConfig, None).is_err());
    }
}
