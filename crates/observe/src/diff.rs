//! The trace-diff engine: structured before/after comparison of two
//! diagnosed runs (or two campaign trace directories, matched by label
//! upstream).
//!
//! A diff answers the triage questions an engine-optimization or
//! scenario-change PR raises: which per-second windows diverged and by
//! how much, which anomalies appeared or disappeared, and how the time
//! spent in each span family shifted. The result freezes as a
//! `vcabench-diff/v1` JSON artifact with fixed key order — byte-identical
//! for identical inputs regardless of `--jobs`.

use std::collections::BTreeMap;

use serde::Serialize;
use vcabench_telemetry::artifact;

use crate::anomaly::Diagnosis;
use crate::span::WindowMetrics;

/// Schema tag of the diff artifact.
pub const DIFF_SCHEMA: &str = "vcabench-diff/v1";

/// How many top diverging windows a run diff keeps.
const TOP_WINDOWS: usize = 5;

/// Signed per-window metric deltas (B minus A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct WindowDelta {
    /// Window index (seconds).
    pub window: u64,
    /// Enqueued-bytes delta.
    pub d_enq_bytes: i64,
    /// Drop-count delta.
    pub d_drops: i64,
    /// Peak-queue-depth delta, bytes.
    pub d_peak_queue_bytes: i64,
    /// Freeze-event delta.
    pub d_freezes: i64,
}

impl WindowDelta {
    fn between(w: u64, a: &WindowMetrics, b: &WindowMetrics) -> Self {
        WindowDelta {
            window: w,
            d_enq_bytes: b.enq_bytes as i64 - a.enq_bytes as i64,
            d_drops: b.drops as i64 - a.drops as i64,
            d_peak_queue_bytes: b.peak_queue_bytes as i64 - a.peak_queue_bytes as i64,
            d_freezes: b.freezes as i64 - a.freezes as i64,
        }
    }

    /// Divergence magnitude used to rank windows: byte-scale deltas plus
    /// heavily weighted packet-loss and freeze deltas.
    fn magnitude(&self) -> u64 {
        self.d_enq_bytes.unsigned_abs()
            + self.d_peak_queue_bytes.unsigned_abs()
            + 10_000 * (self.d_drops.unsigned_abs() + self.d_freezes.unsigned_abs())
    }
}

/// Occurrence counts of one (class, subject) anomaly key in each run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct AnomalyDelta {
    /// Anomaly class tag.
    pub class: String,
    /// Anomaly subject (`"link 0"` / `"client 1"`).
    pub subject: String,
    /// Occurrences in run A.
    pub count_a: u64,
    /// Occurrences in run B.
    pub count_b: u64,
}

/// Aggregate span time of one (kind, subject) key in each run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SpanShift {
    /// Span kind tag.
    pub kind: String,
    /// Span subject.
    pub subject: String,
    /// Spans of this key in run A.
    pub count_a: u64,
    /// Spans of this key in run B.
    pub count_b: u64,
    /// Total span time in run A, microseconds.
    pub us_a: u64,
    /// Total span time in run B, microseconds.
    pub us_b: u64,
}

/// The structured comparison of one pair of diagnosed runs (an
/// `entries[]` element of the diff artifact).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunDiff {
    /// Run label (the campaign label in dir mode; caller-chosen for a
    /// single pair).
    pub label: String,
    /// Health grade of run A / run B.
    pub grade_a: &'static str,
    /// Health grade of run B.
    pub grade_b: &'static str,
    /// Health score of run A.
    pub score_a: u64,
    /// Health score of run B.
    pub score_b: u64,
    /// Per-second windows in run A.
    pub windows_a: u64,
    /// Per-second windows in run B.
    pub windows_b: u64,
    /// Total enqueued-bytes delta (B minus A).
    pub d_enq_bytes_total: i64,
    /// Total drop-count delta.
    pub d_drops_total: i64,
    /// Total freeze-event delta.
    pub d_freezes_total: i64,
    /// The most diverging windows, ranked by magnitude (ties: earlier
    /// window first); at most `TOP_WINDOWS` (5), only windows that differ.
    pub top_windows: Vec<WindowDelta>,
    /// Anomaly keys more frequent in B than in A, sorted by key.
    pub appearing: Vec<AnomalyDelta>,
    /// Anomaly keys more frequent in A than in B, sorted by key.
    pub disappearing: Vec<AnomalyDelta>,
    /// Span keys whose count or total time changed, sorted by key.
    pub span_shifts: Vec<SpanShift>,
}

/// Compare two diagnosed runs (B relative to A).
pub fn diff_runs(label: &str, a: &Diagnosis, b: &Diagnosis) -> RunDiff {
    // Aligned per-window deltas over the union of window ranges; a
    // missing window counts as all-zero.
    let zero = WindowMetrics::default();
    let n = a.timeline.windows.len().max(b.timeline.windows.len());
    let mut deltas: Vec<WindowDelta> = Vec::new();
    let mut d_enq_bytes_total = 0i64;
    let mut d_drops_total = 0i64;
    let mut d_freezes_total = 0i64;
    for w in 0..n {
        let wa = a.timeline.windows.get(w).unwrap_or(&zero);
        let wb = b.timeline.windows.get(w).unwrap_or(&zero);
        let d = WindowDelta::between(w as u64, wa, wb);
        d_enq_bytes_total += d.d_enq_bytes;
        d_drops_total += d.d_drops;
        d_freezes_total += d.d_freezes;
        if d.magnitude() > 0 {
            deltas.push(d);
        }
    }
    deltas.sort_by(|x, y| {
        y.magnitude()
            .cmp(&x.magnitude())
            .then(x.window.cmp(&y.window))
    });
    deltas.truncate(TOP_WINDOWS);

    // Anomaly census per (class, subject).
    let census = |d: &Diagnosis| -> BTreeMap<(String, String), u64> {
        let mut m = BTreeMap::new();
        for an in &d.anomalies {
            *m.entry((an.class.to_string(), an.subject.clone()))
                .or_insert(0) += 1;
        }
        m
    };
    let ca = census(a);
    let cb = census(b);
    let mut keys: Vec<&(String, String)> = ca.keys().chain(cb.keys()).collect();
    keys.sort();
    keys.dedup();
    let mut appearing = Vec::new();
    let mut disappearing = Vec::new();
    for key in keys {
        let na = ca.get(key).copied().unwrap_or(0);
        let nb = cb.get(key).copied().unwrap_or(0);
        let delta = AnomalyDelta {
            class: key.0.clone(),
            subject: key.1.clone(),
            count_a: na,
            count_b: nb,
        };
        if nb > na {
            appearing.push(delta);
        } else if na > nb {
            disappearing.push(delta);
        }
    }

    // Span-duration census per (kind, subject).
    let span_census = |d: &Diagnosis| -> BTreeMap<(String, String), (u64, u64)> {
        let mut m: BTreeMap<(String, String), (u64, u64)> = BTreeMap::new();
        for sp in &d.timeline.spans {
            let e = m
                .entry((sp.kind.name().to_string(), sp.kind.subject()))
                .or_insert((0, 0));
            e.0 += 1;
            e.1 += sp.end.as_micros() - sp.start.as_micros();
        }
        m
    };
    let sa = span_census(a);
    let sb = span_census(b);
    let mut span_keys: Vec<&(String, String)> = sa.keys().chain(sb.keys()).collect();
    span_keys.sort();
    span_keys.dedup();
    let mut span_shifts = Vec::new();
    for key in span_keys {
        let (count_a, us_a) = sa.get(key).copied().unwrap_or((0, 0));
        let (count_b, us_b) = sb.get(key).copied().unwrap_or((0, 0));
        if count_a != count_b || us_a != us_b {
            span_shifts.push(SpanShift {
                kind: key.0.clone(),
                subject: key.1.clone(),
                count_a,
                count_b,
                us_a,
                us_b,
            });
        }
    }

    RunDiff {
        label: label.to_string(),
        grade_a: a.health.grade,
        grade_b: b.health.grade,
        score_a: a.health.score,
        score_b: b.health.score,
        windows_a: a.timeline.windows.len() as u64,
        windows_b: b.timeline.windows.len() as u64,
        d_enq_bytes_total,
        d_drops_total,
        d_freezes_total,
        top_windows: deltas,
        appearing,
        disappearing,
        span_shifts,
    }
}

impl RunDiff {
    /// True when the two runs diagnosed identically at every compared
    /// dimension.
    pub fn is_identical(&self) -> bool {
        self.grade_a == self.grade_b
            && self.score_a == self.score_b
            && self.d_enq_bytes_total == 0
            && self.top_windows.is_empty()
            && self.appearing.is_empty()
            && self.disappearing.is_empty()
            && self.span_shifts.is_empty()
    }
}

/// The `vcabench-diff/v1` artifact: one or many paired run diffs plus
/// the labels only one side had (dir mode).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DiffReport {
    /// Name of side A (path or label, caller-chosen).
    pub side_a: String,
    /// Name of side B.
    pub side_b: String,
    /// Paired diffs, in label order.
    pub entries: Vec<RunDiff>,
    /// Labels present only on side A, sorted.
    pub only_a: Vec<String>,
    /// Labels present only on side B, sorted.
    pub only_b: Vec<String>,
}

impl DiffReport {
    /// Serialize as the full `vcabench-diff/v1` artifact with fixed key
    /// order, pretty-printed with a trailing newline.
    pub fn to_json(&self) -> String {
        artifact::to_json(DIFF_SCHEMA, self)
    }

    /// Deterministic text rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("trace diff: {} vs {}\n", self.side_a, self.side_b));
        for e in &self.entries {
            out.push_str(&format!("\n[{}]\n", e.label));
            out.push_str(&format!(
                "  health {} ({}) -> {} ({})\n",
                e.grade_a, e.score_a, e.grade_b, e.score_b
            ));
            out.push_str(&format!(
                "  windows {} vs {} | d_enq_bytes {:+} | d_drops {:+} | d_freezes {:+}\n",
                e.windows_a, e.windows_b, e.d_enq_bytes_total, e.d_drops_total, e.d_freezes_total
            ));
            if e.is_identical() {
                out.push_str("  identical\n");
                continue;
            }
            for w in &e.top_windows {
                out.push_str(&format!(
                    "  window {:>4}: enq_bytes {:+} peak_queue {:+} drops {:+} freezes {:+}\n",
                    w.window, w.d_enq_bytes, w.d_peak_queue_bytes, w.d_drops, w.d_freezes
                ));
            }
            for a in &e.appearing {
                out.push_str(&format!(
                    "  + {} @ {} ({} -> {})\n",
                    a.class, a.subject, a.count_a, a.count_b
                ));
            }
            for a in &e.disappearing {
                out.push_str(&format!(
                    "  - {} @ {} ({} -> {})\n",
                    a.class, a.subject, a.count_a, a.count_b
                ));
            }
            for s in &e.span_shifts {
                out.push_str(&format!(
                    "  ~ {} @ {}: {}x {:.1}s -> {}x {:.1}s\n",
                    s.kind,
                    s.subject,
                    s.count_a,
                    s.us_a as f64 * 1e-6,
                    s.count_b,
                    s.us_b as f64 * 1e-6
                ));
            }
        }
        if !self.only_a.is_empty() {
            out.push_str(&format!(
                "\nonly in {}: {}\n",
                self.side_a,
                self.only_a.join(", ")
            ));
        }
        if !self.only_b.is_empty() {
            out.push_str(&format!(
                "\nonly in {}: {}\n",
                self.side_b,
                self.only_b.join(", ")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anomaly::diagnose;
    use crate::span::{ObserveConfig, SpanBuilder};
    use vcabench_simcore::SimTime;
    use vcabench_telemetry::{EventKind, Recorder};

    fn enq(t_ms: u64, queue_bytes: u64) -> (SimTime, EventKind) {
        (
            SimTime::from_millis(t_ms),
            EventKind::PacketEnqueued {
                link: 0,
                flow: 10,
                pkt: 0,
                bytes: 1200,
                queue_bytes,
                queue_pkts: 1,
            },
        )
    }

    fn diagnose_events(events: &[(SimTime, EventKind)], end_secs: u64) -> Diagnosis {
        let mut b = SpanBuilder::new(ObserveConfig);
        for (at, kind) in events {
            b.record(*at, kind.clone());
        }
        diagnose(b.finish(SimTime::from_secs(end_secs)), &ObserveConfig)
    }

    #[test]
    fn identical_runs_diff_as_identical() {
        let evs = vec![enq(500, 1000), enq(1500, 2000)];
        let a = diagnose_events(&evs, 5);
        let b = diagnose_events(&evs, 5);
        let d = diff_runs("same", &a, &b);
        assert!(d.is_identical());
        assert_eq!(d.d_enq_bytes_total, 0);
        assert!(d.top_windows.is_empty());
    }

    #[test]
    fn disruption_appears_in_the_diff() {
        let clean = diagnose_events(&[enq(500, 1000)], 10);
        let disrupted = diagnose_events(
            &[
                enq(500, 1000),
                enq(2000, 20_000),
                (
                    SimTime::from_secs(5),
                    EventKind::Freeze {
                        client: 1,
                        sender: 0,
                        count: 1,
                        total_ms: 1000.0,
                    },
                ),
                enq(8000, 100),
            ],
            10,
        );
        let d = diff_runs("run", &clean, &disrupted);
        assert!(!d.is_identical());
        assert_eq!(d.d_freezes_total, 1);
        assert!(d.d_enq_bytes_total > 0);
        assert!(
            d.appearing.iter().any(|a| a.class == "sustained_queue"),
            "buildup anomaly appears: {:?}",
            d.appearing
        );
        assert!(d.disappearing.is_empty());
        assert!(d
            .span_shifts
            .iter()
            .any(|s| s.kind == "queue_buildup" && s.count_a == 0 && s.count_b == 1));
        // Reversing the comparison flips appearing/disappearing.
        let r = diff_runs("run", &disrupted, &clean);
        assert!(r.appearing.is_empty());
        assert!(r.disappearing.iter().any(|a| a.class == "sustained_queue"));
        assert_eq!(r.d_freezes_total, -1);
    }

    #[test]
    fn top_windows_rank_by_magnitude_and_cap_at_five() {
        let mut evs = Vec::new();
        for w in 0..8u64 {
            // Window w gains (w+1) extra kB of enqueued bytes in run B.
            for _ in 0..=w {
                evs.push(enq(w * 1000 + 10, 100));
            }
        }
        let a = diagnose_events(&[], 8);
        let b = diagnose_events(&evs, 8);
        let d = diff_runs("run", &a, &b);
        assert_eq!(d.top_windows.len(), 5);
        assert_eq!(d.top_windows[0].window, 7, "largest divergence first");
        let mags: Vec<u64> = d.top_windows.iter().map(|w| w.magnitude()).collect();
        assert!(mags.windows(2).all(|p| p[0] >= p[1]));
    }

    #[test]
    fn diff_report_json_is_schema_tagged_and_stable() {
        let a = diagnose_events(&[], 2);
        let b = diagnose_events(&[], 2);
        let report = DiffReport {
            side_a: "a".to_string(),
            side_b: "b".to_string(),
            entries: vec![diff_runs("x", &a, &b)],
            only_a: vec![],
            only_b: vec!["extra".to_string()],
        };
        let json = report.to_json();
        assert!(json.starts_with("{\n  \"schema\": \"vcabench-diff/v1\","));
        assert!(json.ends_with('\n'));
        assert_eq!(json, report.to_json(), "serialization is deterministic");
        let text = report.render();
        assert!(text.contains("identical"));
        assert!(text.contains("only in b: extra"));
    }
}
