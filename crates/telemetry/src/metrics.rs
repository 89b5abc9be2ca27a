//! The run manifest's `metrics`: counters, gauges and histograms derived
//! from an event log.
//!
//! Every collection is a `BTreeMap`, so the metrics serialize with sorted
//! keys — two runs that record the same values produce byte-identical
//! JSON, which is what lets manifests be diffed and cached.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::event::EventKind;
use crate::recorder::EventLog;

/// A fixed-bucket histogram: `bounds` are inclusive upper edges, plus an
/// implicit overflow bucket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// The metrics a run manifest carries, derived from its event log.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// `events.<kind>` per event kind and `drops.<reason>` per drop reason.
    pub counters: BTreeMap<String, u64>,
    /// Last-seen per-client values: `cc.c<client>.target_mbps` and
    /// `fec.c<client>.per_media`.
    pub gauges: BTreeMap<String, f64>,
    /// `link.queue_bytes`, the queue depth seen by every enqueue (absent
    /// when nothing was enqueued).
    pub histograms: BTreeMap<String, Histogram>,
}

impl RunMetrics {
    /// Derive the run metrics from an event log: per-kind event counters,
    /// drop counters by reason, a queue-depth histogram over enqueues, and
    /// last-seen per-client controller targets.
    pub fn from_events(log: &EventLog) -> Self {
        const QUEUE_BOUNDS: [f64; 6] = [1024.0, 4096.0, 16384.0, 65536.0, 262_144.0, 1_048_576.0];
        let mut m = RunMetrics::default();
        for (kind, n) in log.counts() {
            m.counters.insert(format!("events.{kind}"), n);
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
            m.counters.insert(format!("drops.{reason}"), n);
        }
        if queue_bytes.count() > 0 {
            m.histograms
                .insert("link.queue_bytes".to_string(), queue_bytes);
        }
        for (client, v) in cc_targets {
            m.gauges.insert(format!("cc.c{client}.target_mbps"), v);
        }
        for (client, v) in fec_ratios {
            m.gauges.insert(format!("fec.c{client}.per_media"), v);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcabench_simcore::SimTime;

    use crate::recorder::Recorder;

    #[test]
    fn snapshot_keys_are_sorted_regardless_of_insertion_order() {
        let mut m = RunMetrics::default();
        m.counters.insert("zeta".to_string(), 2);
        m.counters.insert("alpha".to_string(), 1);
        m.gauges.insert("z.g".to_string(), 1.5);
        m.gauges.insert("a.g".to_string(), -0.25);
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.observe(1.5);
        m.histograms.insert("h".to_string(), h);
        let text = serde_json::to_string(&m).unwrap();
        assert_eq!(
            text,
            "{\"counters\":{\"alpha\":1,\"zeta\":2},\
             \"gauges\":{\"a.g\":-0.25,\"z.g\":1.5},\
             \"histograms\":{\"h\":{\"bounds\":[1,2],\"buckets\":[0,1,0],\"count\":1,\"sum\":1.5}}}"
        );
        assert_eq!(serde_json::from_str::<RunMetrics>(&text).unwrap(), m);
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
        let m = RunMetrics::from_events(&log);
        assert_eq!(m.counters["events.packet_drop"], 3);
        assert_eq!(m.counters["drops.queue_full"], 2);
        assert_eq!(m.counters["drops.impairment"], 1);
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
        let mut want = RunMetrics::default();
        let mut queue_bytes =
            Histogram::new(&[1024.0, 4096.0, 16384.0, 65536.0, 262_144.0, 1_048_576.0]);
        for (i, kind) in kinds.into_iter().enumerate() {
            *want
                .counters
                .entry(format!("events.{}", kind.name()))
                .or_insert(0) += 1;
            match &kind {
                EventKind::PacketEnqueued { queue_bytes: q, .. } => queue_bytes.observe(*q as f64),
                EventKind::CcState {
                    client,
                    target_mbps,
                    ..
                } => {
                    want.gauges
                        .insert(format!("cc.c{client}.target_mbps"), *target_mbps);
                }
                EventKind::FecRatio {
                    client,
                    fec_per_media,
                    ..
                } => {
                    want.gauges
                        .insert(format!("fec.c{client}.per_media"), *fec_per_media);
                }
                _ => {}
            }
            log.record(SimTime::from_micros(i as u64), kind);
        }
        want.histograms
            .insert("link.queue_bytes".to_string(), queue_bytes);
        let got = RunMetrics::from_events(&log);
        assert_eq!(got, want);
        assert_eq!(got.gauges["cc.c1.target_mbps"], 1.5, "last seen wins");
        assert_eq!(got.histograms["link.queue_bytes"].buckets()[6], 1);
        // No enqueue, no histogram: the metrics of an idle log stay empty.
        assert_eq!(
            RunMetrics::from_events(&EventLog::unbounded()),
            RunMetrics::default()
        );
    }
}
