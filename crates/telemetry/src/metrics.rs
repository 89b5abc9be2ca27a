//! Counters, gauges, and histograms with deterministic snapshots.
//!
//! Every collection is a `BTreeMap`, so a snapshot serializes with sorted
//! keys — two runs that record the same values produce byte-identical
//! snapshot JSON, which is what lets manifests be diffed and cached.

use std::collections::BTreeMap;

use serde::Serialize;
use serde_json::Value;

use crate::event::EventKind;
use crate::recorder::EventLog;

/// A fixed-bucket histogram: `bounds` are inclusive upper edges, plus an
/// implicit overflow bucket.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` buckets; the last catches values above all edges.
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// A histogram with the given inclusive upper bucket edges
    /// (must be sorted ascending).
    pub fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Per-bucket counts (last bucket is overflow).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }
}

/// A registry of named counters, gauges, and histograms.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Add `by` to the named counter (created at zero).
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Set the named gauge to its latest value.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Record an observation into the named histogram, creating it with
    /// `bounds` on first use (later calls ignore `bounds`).
    pub fn observe(&mut self, name: &str, bounds: &[f64], v: f64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .observe(v);
    }

    /// Read a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Read a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Read a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Deterministic snapshot: a JSON object whose keys — sections and
    /// metric names alike — are sorted.
    pub fn snapshot(&self) -> Value {
        self.to_json_value()
    }

    /// Derive standard run metrics from an event log: per-kind event
    /// counters, drop counters by reason, a queue-depth histogram over
    /// enqueues, and last-seen per-client controller targets.
    pub fn from_events(log: &EventLog) -> Self {
        const QUEUE_BOUNDS: [f64; 6] = [1024.0, 4096.0, 16384.0, 65536.0, 262_144.0, 1_048_576.0];
        let mut reg = MetricsRegistry::new();
        for (kind, &n) in log.counts() {
            reg.inc(&format!("events.{kind}"), n);
        }
        // Accumulate under cheap keys and name the metrics once after the
        // loop: a run has tens of thousands of enqueues and a handful of
        // distinct reasons and clients.
        let mut queue_bytes = Histogram::new(&QUEUE_BOUNDS);
        let mut drops: BTreeMap<&str, u64> = BTreeMap::new();
        let mut cc_targets: BTreeMap<u64, f64> = BTreeMap::new();
        let mut fec_ratios: BTreeMap<u64, f64> = BTreeMap::new();
        for ev in log.events() {
            match &ev.kind {
                EventKind::PacketDropped { reason, .. } => {
                    *drops.entry(reason).or_insert(0) += 1;
                }
                EventKind::PacketEnqueued { queue_bytes: q, .. } => {
                    queue_bytes.observe(*q as f64);
                }
                EventKind::CcState {
                    client,
                    target_mbps,
                    ..
                } => {
                    cc_targets.insert(*client, *target_mbps);
                }
                EventKind::FecRatio {
                    client,
                    fec_per_media,
                    ..
                } => {
                    fec_ratios.insert(*client, *fec_per_media);
                }
                _ => {}
            }
        }
        for (reason, n) in drops {
            reg.inc(&format!("drops.{reason}"), n);
        }
        if queue_bytes.count() > 0 {
            reg.histograms
                .insert("link.queue_bytes".to_string(), queue_bytes);
        }
        for (client, v) in cc_targets {
            reg.set_gauge(&format!("cc.c{client}.target_mbps"), v);
        }
        for (client, v) in fec_ratios {
            reg.set_gauge(&format!("fec.c{client}.per_media"), v);
        }
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcabench_simcore::SimTime;

    use crate::recorder::Recorder;

    #[test]
    fn snapshot_keys_are_sorted_regardless_of_insertion_order() {
        let mut reg = MetricsRegistry::new();
        reg.inc("zeta", 2);
        reg.inc("alpha", 1);
        reg.set_gauge("z.g", 1.5);
        reg.set_gauge("a.g", -0.25);
        reg.observe("h", &[1.0, 2.0], 1.5);
        let text = serde_json::to_string(&reg.snapshot()).unwrap();
        assert_eq!(
            text,
            "{\"counters\":{\"alpha\":1,\"zeta\":2},\
             \"gauges\":{\"a.g\":-0.25,\"z.g\":1.5},\
             \"histograms\":{\"h\":{\"bounds\":[1,2],\"buckets\":[0,1,0],\"count\":1,\"sum\":1.5}}}"
        );
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[10.0, 100.0]);
        for v in [5.0, 10.0, 50.0, 1000.0] {
            h.observe(v);
        }
        assert_eq!(h.buckets(), &[2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1065.0);
    }

    #[test]
    fn from_events_counts_drops_by_reason() {
        let mut log = EventLog::unbounded();
        for (i, reason) in ["queue_full", "impairment", "queue_full"]
            .iter()
            .enumerate()
        {
            log.record(
                SimTime::from_micros(i as u64),
                EventKind::PacketDropped {
                    link: 0,
                    flow: 0,
                    pkt: i as u64,
                    bytes: 100,
                    queue_bytes: 0,
                    reason,
                },
            );
        }
        let reg = MetricsRegistry::from_events(&log);
        assert_eq!(reg.counter("events.packet_drop"), 3);
        assert_eq!(reg.counter("drops.queue_full"), 2);
        assert_eq!(reg.counter("drops.impairment"), 1);
    }

    #[test]
    fn from_events_equals_recording_every_event_by_name() {
        let kinds = [
            EventKind::PacketEnqueued {
                link: 0,
                flow: 1,
                pkt: 1,
                bytes: 1200,
                queue_bytes: 900,
                queue_pkts: 1,
            },
            EventKind::CcState {
                client: 1,
                controller: "gcc",
                state: "hold",
                signal: None,
                target_mbps: 2.5,
            },
            EventKind::PacketEnqueued {
                link: 0,
                flow: 1,
                pkt: 2,
                bytes: 1200,
                queue_bytes: 2_000_000,
                queue_pkts: 2,
            },
            EventKind::FecRatio {
                client: 0,
                fraction: 0.2,
                fec_per_media: 0.25,
            },
            EventKind::CcState {
                client: 1,
                controller: "gcc",
                state: "decrease",
                signal: Some("overuse"),
                target_mbps: 1.5,
            },
            EventKind::CcState {
                client: 0,
                controller: "fbra",
                state: "ramp",
                signal: None,
                target_mbps: 0.5,
            },
            EventKind::FecRatio {
                client: 0,
                fraction: 0.3,
                fec_per_media: 0.4,
            },
        ];
        let mut log = EventLog::unbounded();
        let mut want = MetricsRegistry::new();
        for (i, kind) in kinds.into_iter().enumerate() {
            want.inc(&format!("events.{}", kind.name()), 1);
            match &kind {
                EventKind::PacketEnqueued { queue_bytes, .. } => want.observe(
                    "link.queue_bytes",
                    &[1024.0, 4096.0, 16384.0, 65536.0, 262_144.0, 1_048_576.0],
                    *queue_bytes as f64,
                ),
                EventKind::CcState {
                    client,
                    target_mbps,
                    ..
                } => want.set_gauge(&format!("cc.c{client}.target_mbps"), *target_mbps),
                EventKind::FecRatio {
                    client,
                    fec_per_media,
                    ..
                } => want.set_gauge(&format!("fec.c{client}.per_media"), *fec_per_media),
                _ => {}
            }
            log.record(SimTime::from_micros(i as u64), kind);
        }
        let got = MetricsRegistry::from_events(&log);
        assert_eq!(got, want);
        assert_eq!(got.gauge("cc.c1.target_mbps"), Some(1.5), "last seen wins");
        assert_eq!(got.histogram("link.queue_bytes").unwrap().buckets()[6], 1);
        // No enqueue, no histogram: the snapshot of an idle log stays empty.
        assert_eq!(
            MetricsRegistry::from_events(&EventLog::unbounded()),
            MetricsRegistry::new()
        );
    }
}
