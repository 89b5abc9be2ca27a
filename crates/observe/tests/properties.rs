//! Property tests for the span deriver: timelines are well-formed over
//! randomized event streams, window accounting conserves the input, and
//! the online diagnosis equals the offline (JSONL-replayed) one.

use std::collections::BTreeMap;

use proptest::prelude::*;
use vcabench_observe::{diagnose, diagnose_jsonl, ObserveConfig, SpanBuilder};
use vcabench_simcore::SimTime;
use vcabench_telemetry::{events_jsonl, EventKind, EventLog, Recorder};

/// One synthetic event: a timestamp plus a raw word the kind is decoded
/// from (the vendored proptest subset has no tuple strategies).
#[derive(Debug, Clone, Copy)]
struct Raw {
    at_us: u64,
    word: u64,
}

/// Decode a time-sorted event stream. Freeze events carry *cumulative*
/// per-(client, sender) counters in the real schema, so the generator
/// tracks running totals instead of emitting raw random values.
fn stream_of(raw: &[u64]) -> Vec<(SimTime, EventKind)> {
    let mut ordered: Vec<Raw> = raw
        .iter()
        .map(|&word| Raw {
            at_us: (word >> 16) % 15_000_000,
            word,
        })
        .collect();
    ordered.sort_by_key(|r| r.at_us);
    let mut freeze_totals: BTreeMap<(u64, u64), (u64, f64)> = BTreeMap::new();
    let mut out = Vec::with_capacity(ordered.len());
    for r in &ordered {
        let a = (r.word >> 8) & 0xffff;
        let b = (r.word >> 24) & 0xffff;
        let c = (r.word >> 40) & 0x3;
        let kind = match r.word % 7 {
            0 => EventKind::PacketEnqueued {
                link: c,
                flow: a % 8,
                pkt: b,
                bytes: 40 + a % 1460,
                queue_bytes: (b * 7) % 40_000,
                queue_pkts: b % 64,
            },
            1 => EventKind::PacketDequeued {
                link: c,
                flow: a % 8,
                pkt: b,
                bytes: 40 + a % 1460,
                queue_bytes: (b * 5) % 40_000,
            },
            2 => EventKind::PacketDropped {
                link: c,
                flow: a % 8,
                pkt: b,
                bytes: 40 + a % 1460,
                queue_bytes: (b * 3) % 40_000,
                reason: if r.word & 0x10000 == 0 {
                    "queue_full"
                } else {
                    "impairment"
                },
            },
            3 => EventKind::RateStep {
                link: c,
                bps: (1 + a % 3000) as f64 * 1000.0,
            },
            4 => {
                const CONTROLLERS: [&str; 3] = ["fbra", "gcc", "teams"];
                const STATES: [&str; 6] =
                    ["decrease", "hold", "increase", "probe", "ramp", "recover"];
                const SIGNALS: [&str; 3] = ["normal", "overuse", "underuse"];
                EventKind::CcState {
                    client: c,
                    controller: CONTROLLERS[(a % 3) as usize],
                    state: STATES[(b % 6) as usize],
                    signal: match r.word % 4 {
                        0 => None,
                        n => Some(SIGNALS[(n - 1) as usize]),
                    },
                    target_mbps: (a % 400) as f64 / 100.0,
                }
            }
            5 => EventKind::FecRatio {
                client: c,
                fraction: (a % 1000) as f64 / 1000.0,
                fec_per_media: (b % 2000) as f64 / 1000.0,
            },
            _ => {
                let entry = freeze_totals.entry((c, (c + 1) % 4)).or_insert((0, 0.0));
                entry.0 += 1;
                entry.1 += (1 + b % 4000) as f64 / 2.0;
                EventKind::Freeze {
                    client: c,
                    sender: (c + 1) % 4,
                    count: entry.0,
                    total_ms: entry.1,
                }
            }
        };
        out.push((SimTime::from_micros(r.at_us), kind));
    }
    out
}

proptest! {
    /// Timelines derived from arbitrary valid streams are well-formed:
    /// span intervals are ordered and inside the run, spans are sorted,
    /// the window vector is dense, and window accounting conserves the
    /// enqueue/drop input exactly.
    #[test]
    fn timelines_are_well_formed(raw in proptest::collection::vec(any::<u64>(), 0..300)) {
        let stream = stream_of(&raw);
        let end = SimTime::from_secs(16);
        let mut builder = SpanBuilder::new(ObserveConfig);
        for &(at, ref kind) in &stream {
            builder.record(at, kind.clone());
        }
        let tl = builder.finish(end);
        prop_assert_eq!(tl.end, end);
        for span in &tl.spans {
            prop_assert!(span.start <= span.end, "span interval ordered: {span:?}");
            prop_assert!(span.end <= tl.end, "span inside the run: {span:?}");
        }
        prop_assert!(
            tl.spans.windows(2).all(|w| w[0].start <= w[1].start),
            "spans sorted by start"
        );
        prop_assert_eq!(tl.windows.len(), 16);
        prop_assert!(tl.windows.iter().enumerate().all(|(i, w)| w.window == i as u64));
        let mut enq_pkts = 0u64;
        let mut enq_bytes = 0u64;
        let mut drops = 0u64;
        for (_, kind) in &stream {
            match kind {
                EventKind::PacketEnqueued { bytes, .. } => {
                    enq_pkts += 1;
                    enq_bytes += bytes;
                }
                EventKind::PacketDropped { .. } => drops += 1,
                _ => {}
            }
        }
        prop_assert_eq!(tl.windows.iter().map(|w| w.enq_pkts).sum::<u64>(), enq_pkts);
        prop_assert_eq!(tl.windows.iter().map(|w| w.enq_bytes).sum::<u64>(), enq_bytes);
        prop_assert_eq!(tl.windows.iter().map(|w| w.drops).sum::<u64>(), drops);
    }

    /// Online diagnosis (events fed directly) equals offline diagnosis
    /// (events exported to JSONL and replayed) over randomized streams —
    /// the randomized version of the harness's live-vs-offline test.
    #[test]
    fn online_and_offline_diagnosis_agree(raw in proptest::collection::vec(any::<u64>(), 0..300)) {
        let stream = stream_of(&raw);
        let end = SimTime::from_secs(16);
        let cfg = ObserveConfig;
        let mut builder = SpanBuilder::new(cfg.clone());
        let mut log = EventLog::unbounded();
        for &(at, ref kind) in &stream {
            builder.record(at, kind.clone());
            log.record(at, kind.clone());
        }
        let online = diagnose(builder.finish(end), &cfg);
        let offline = diagnose_jsonl(&events_jsonl(&log), &cfg, Some(end)).expect("replay");
        prop_assert_eq!(online, offline);
    }
}
