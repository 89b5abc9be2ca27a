//! Property tests for the fingerprint bank: fingerprints are invariant to
//! how *other* flows' events interleave with the tapped flow's, and the
//! online path (events fed directly) is byte-identical to the offline path
//! (events exported to JSONL and replayed). And the fingerprint agrees with
//! the inference extractor's windows on everything it sums from them.

use proptest::prelude::*;
use vcabench_fingerprint::FingerprintBank;
use vcabench_infer::{TapBank, TapSpec, Vantage};
use vcabench_simcore::SimTime;
use vcabench_telemetry::{events_jsonl, replay_jsonl, EventKind, EventLog, Recorder};

/// One synthetic packet observation in a randomized trace.
#[derive(Debug, Clone)]
struct Obs {
    at_us: u64,
    link: u64,
    flow: u64,
    bytes: u64,
    kind: u8, // 0 = enqueue, 1 = dequeue, 2 = drop
}

/// Decode one raw u64 into an observation (the vendored proptest subset
/// has no tuple strategies, so traces are vectors of raw words).
fn decode(raw: u64) -> Obs {
    Obs {
        at_us: (raw >> 16) % 5_000_000,
        link: (raw >> 15) & 1,
        flow: 10 + (raw & 0x3),
        bytes: 40 + ((raw >> 2) & 0x7ff).min(1459),
        kind: ((raw >> 13) % 3) as u8,
    }
}

/// A time-sorted randomized trace over a handful of flows on two links.
fn trace_of(raw: &[u64]) -> Vec<Obs> {
    let mut v: Vec<Obs> = raw.iter().map(|&r| decode(r)).collect();
    v.sort_by_key(|o| o.at_us);
    v
}

fn event_of(o: &Obs) -> EventKind {
    match o.kind {
        0 => EventKind::PacketEnqueued {
            link: o.link,
            flow: o.flow,
            pkt: 0,
            bytes: o.bytes,
            queue_bytes: 0,
            queue_pkts: 0,
        },
        1 => EventKind::PacketDequeued {
            link: o.link,
            flow: o.flow,
            pkt: 0,
            bytes: o.bytes,
            queue_bytes: 0,
        },
        _ => EventKind::PacketDropped {
            link: o.link,
            flow: o.flow,
            pkt: 0,
            bytes: o.bytes,
            queue_bytes: 0,
            reason: "queue_full",
        },
    }
}

fn tap() -> TapSpec {
    TapSpec {
        link: 1,
        flow: 11,
        vantage: Vantage::Recv,
    }
}

proptest! {
    /// Feeding the full interleaved trace equals feeding only the tapped
    /// flow's events: foreign flows cannot perturb a fingerprint.
    #[test]
    fn fingerprint_is_invariant_to_cross_flow_interleaving(raw in proptest::collection::vec(any::<u64>(), 0..200)) {
        let trace = trace_of(&raw);
        let mut interleaved = FingerprintBank::new(&[tap()]);
        let mut isolated = FingerprintBank::new(&[tap()]);
        for o in &trace {
            let at = SimTime::from_micros(o.at_us);
            interleaved.record(at, event_of(o));
            if o.flow == 11 {
                isolated.record(at, event_of(o));
            }
        }
        let end = SimTime::from_secs(6);
        prop_assert_eq!(interleaved.finish(end), isolated.finish(end));
    }

    /// Online (events fed directly) and offline (exported to JSONL, then
    /// replayed) fingerprints are identical over randomized traces.
    #[test]
    fn online_and_offline_fingerprints_are_identical(raw in proptest::collection::vec(any::<u64>(), 0..200)) {
        let trace = trace_of(&raw);
        let taps = [
            TapSpec { link: 1, flow: 10, vantage: Vantage::Send },
            tap(),
        ];
        let mut online = FingerprintBank::new(&taps);
        let mut log = EventLog::unbounded();
        for o in &trace {
            let at = SimTime::from_micros(o.at_us);
            online.record(at, event_of(o));
            log.record(at, event_of(o));
        }
        let mut offline = FingerprintBank::new(&taps);
        replay_jsonl(&events_jsonl(&log), &mut offline).expect("replay");
        let end = SimTime::from_secs(6);
        prop_assert_eq!(online.finish(end), offline.finish(end));
    }

    /// Over any packet stream, the extractor's per-second windows sum to
    /// the fingerprint's call-level counts on the same tap.
    #[test]
    fn windows_sum_to_the_fingerprint(raw in proptest::collection::vec(any::<u64>(), 0..300), pick in any::<u64>()) {
        let tap = TapSpec {
            link: pick & 1,
            flow: 10 + ((pick >> 1) & 0x3),
            vantage: if pick & 8 == 0 { Vantage::Send } else { Vantage::Recv },
        };
        let mut windows = TapBank::new(&[tap]);
        let mut fingerprint = FingerprintBank::new(&[tap]);
        for o in &trace_of(&raw) {
            let at = SimTime::from_micros(o.at_us);
            windows.record(at, event_of(o));
            fingerprint.record(at, event_of(o));
        }
        // On a second boundary after the last event: every window sealed.
        let end = SimTime::from_secs(5);
        let windows = windows.finish(end).remove(0);
        let fp = fingerprint.finish(end).remove(0);
        prop_assert_eq!(windows.len(), 5);
        let sum = |f: &dyn Fn(&vcabench_infer::WindowFeatures) -> u64| -> u64 {
            windows.iter().map(f).sum()
        };
        prop_assert_eq!(sum(&|w| w.wire_bytes), fp.wire_bytes);
        prop_assert_eq!(sum(&|w| w.video_pkts), fp.video_pkts);
        prop_assert_eq!(sum(&|w| w.full_pkts), fp.full_pkts);
        prop_assert_eq!(sum(&|w| w.small_pkts), fp.small_pkts);
        prop_assert_eq!(sum(&|w| w.video_payload_bytes), fp.video_payload_bytes);
        prop_assert_eq!(sum(&|w| w.frames), fp.frames);
    }
}
