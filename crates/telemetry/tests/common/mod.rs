//! Event generators shared by the telemetry integration tests.
//!
//! The vendored proptest subset has no tuple or enum strategies, so event
//! sequences are decoded from vectors of raw `u64` words.
#![allow(dead_code)] // each test binary uses its own subset

use vcabench_simcore::SimTime;
use vcabench_telemetry::{Event, EventKind};

/// Decode one raw u64 into an event kind covering every schema variant
/// with in-vocabulary strings and representable floats.
pub fn decode_kind(raw: u64) -> EventKind {
    let a = (raw >> 8) & 0xffff;
    let b = (raw >> 24) & 0xffff;
    let c = (raw >> 40) & 0xff;
    match raw % 10 {
        0 => EventKind::PacketEnqueued {
            link: c % 4,
            flow: a % 8,
            pkt: b,
            bytes: 40 + a % 1460,
            queue_bytes: b * 3,
            queue_pkts: c,
        },
        1 => EventKind::PacketDequeued {
            link: c % 4,
            flow: a % 8,
            pkt: b,
            bytes: 40 + a % 1460,
            queue_bytes: b,
        },
        2 => EventKind::PacketDropped {
            link: c % 4,
            flow: a % 8,
            pkt: b,
            bytes: 40 + a % 1460,
            queue_bytes: b,
            reason: if raw & 0x10000 == 0 {
                "queue_full"
            } else {
                "impairment"
            },
        },
        3 => EventKind::RateStep {
            link: c % 4,
            bps: (a + 1) as f64 * 1000.0 + (b % 100) as f64 / 4.0,
        },
        4 => {
            const CONTROLLERS: [&str; 3] = ["fbra", "gcc", "teams"];
            const STATES: [&str; 11] = [
                "decay",
                "decrease",
                "fall",
                "hold",
                "increase",
                "probe",
                "probe-hold",
                "ramp",
                "recover",
                "stay",
                "track",
            ];
            const SIGNALS: [&str; 3] = ["normal", "overuse", "underuse"];
            EventKind::CcState {
                client: c % 4,
                controller: CONTROLLERS[(a % 3) as usize],
                state: STATES[(b % 11) as usize],
                signal: match raw % 4 {
                    0 => None,
                    n => Some(SIGNALS[(n - 1) as usize]),
                },
                target_mbps: (a % 5000) as f64 / 100.0,
            }
        }
        5 => EventKind::FecRatio {
            client: c % 4,
            fraction: (a % 1000) as f64 / 1000.0,
            fec_per_media: (b % 2000) as f64 / 1000.0,
        },
        6 => EventKind::LayerSwitch {
            client: c % 4,
            streams: c % 4,
            top_width: a,
            top_fps: (b % 61) as f64 / 2.0,
        },
        7 => EventKind::Fir {
            client: c % 4,
            ssrc: b,
            dir: if raw & 0x10000 == 0 {
                "sent"
            } else {
                "received"
            },
        },
        8 => EventKind::Freeze {
            client: c % 4,
            sender: a % 4,
            count: c,
            total_ms: a as f64 / 8.0,
        },
        _ => EventKind::InvariantViolation {
            invariant: format!("invariant_{}", a % 4),
            detail: format!("violated with margin {}", b),
        },
    }
}

/// A valid (time-ordered) event sequence from raw words: timestamps are
/// the sorted low bits, kinds decoded from the full words.
pub fn sequence_of(raw: &[u64]) -> Vec<Event> {
    let mut at: Vec<u64> = raw.iter().map(|&r| (r >> 16) % 10_000_000).collect();
    at.sort_unstable();
    at.iter()
        .zip(raw.iter())
        .map(|(&at_us, &r)| Event {
            at: SimTime::from_micros(at_us),
            kind: decode_kind(r),
        })
        .collect()
}

/// SplitMix64: a seeded word stream for the plain (non-proptest) tests.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
