//! Call-level fingerprints, summed from the inference extractor's
//! windows.
//!
//! A tap is folded once: the [`Extractor`] of `vcabench-infer` reads each
//! packet that crosses it into per-second [`WindowFeatures`], and a
//! [`FlowFingerprint`] is the call-level sum of those windows
//! ([`FlowFingerprint::of`]). Per tap the fingerprint path therefore holds
//! what the extractor holds — O(1) state plus one 160-byte
//! `WindowFeatures` per second — and keeps nothing of its own.
//! [`FingerprintBank`] is the [`vcabench_telemetry::Recorder`] to attach
//! when a run only fingerprints: a [`TapBank`] read through
//! [`fingerprints`]. Either runs *online* (attached to a live simulation
//! through a [`vcabench_telemetry::Telemetry`] handle) or *offline* (fed
//! from an exported `.events.jsonl` trace via
//! [`vcabench_telemetry::replay_jsonl`]); both paths see the identical
//! event stream and therefore produce identical fingerprints.
//!
//! Unlike `vcabench-infer`, which estimates per-second QoE, this stage
//! answers a prior question: *which application is this flow?* What a
//! packet is (its class, whether it crossed the tap, whether it ended a
//! frame) is the flow core's answer ([`vcabench_infer::flow`]), the same
//! one inference gets; the observables summed from it are the ones
//! MacMillan et al. and the header-free classification literature lean
//! on:
//!
//! - **Packet-class mix** — full-MTU video vs smaller video vs non-video
//!   (audio/RTCP) packets, as the flow core classifies them. FEC parity
//!   packets are always full-sized, so a FEC-heavy sender (Zoom) has a
//!   high full fraction.
//! - **Inter-arrival statistics** — mean and coefficient of variation
//!   of video packet gaps (pacing smoothness differs per controller).
//! - **Burst/frame cadence** — frames as the core's frame segmenter
//!   delimits them.
//! - **Rate-oscillation signature** — the temporal coefficient of
//!   variation of per-second video bytes (Teams' controller oscillates
//!   around its nominal rate; GCC and FBRA hold steadier).
//! - **Directional byte ratio** — uplink vs downlink volume, combined
//!   at the call level by [`CallFingerprint`].

use vcabench_infer::flow::{window_of, TapSpec};
use vcabench_infer::{Extractor, TapBank, WindowFeatures};
use vcabench_simcore::SimTime;
use vcabench_telemetry::{EventKind, Recorder};

/// Call-level fingerprint of one tapped flow: everything the classifier
/// sees about one direction of a call.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowFingerprint {
    /// The tap the fingerprint was taken on.
    pub tap: TapSpec,
    /// Observation span, seconds (the `end` it was taken at).
    pub duration_s: f64,
    /// Total wire bytes observed.
    pub wire_bytes: u64,
    /// Video payload bytes (wire minus
    /// [`vcabench_infer::flow::HEADER_BYTES`] per video packet).
    pub video_payload_bytes: u64,
    /// Video-classified packets.
    pub video_pkts: u64,
    /// Video packets of exactly full wire size.
    pub full_pkts: u64,
    /// Non-video packets (audio, RTCP, signaling).
    pub small_pkts: u64,
    /// Frame boundaries detected: a video packet shorter than
    /// [`FULL_WIRE`](vcabench_infer::flow::FULL_WIRE) ends a frame, and a
    /// pause longer than
    /// [`FRAME_CLOSE_GAP_S`](vcabench_infer::flow::FRAME_CLOSE_GAP_S) closes
    /// one.
    pub frames: u64,
    /// Coefficient of variation of the video inter-arrival gaps.
    pub iat_cv: f64,
    /// Temporal coefficient of variation of per-second video payload
    /// bytes (the rate-oscillation signature).
    pub rate_cv: f64,
}

impl FlowFingerprint {
    /// The fingerprint of everything `ex` folded, observed over
    /// `[0, end)`. The counts sum every window the extractor opened, the
    /// one a packet at `end` opened included; `rate_cv` reads the complete
    /// seconds before `end` only.
    pub fn of(ex: &Extractor, end: SimTime) -> FlowFingerprint {
        let sum = |field: fn(&WindowFeatures) -> u64| ex.windows().map(field).sum();
        FlowFingerprint {
            tap: ex.tap(),
            duration_s: end.as_secs_f64(),
            wire_bytes: sum(|w| w.wire_bytes),
            video_payload_bytes: sum(|w| w.video_payload_bytes),
            video_pkts: sum(|w| w.video_pkts),
            full_pkts: sum(|w| w.full_pkts),
            small_pkts: sum(|w| w.small_pkts),
            frames: sum(|w| w.frames),
            iat_cv: ex.iat().cv(),
            rate_cv: rate_cv(ex, window_of(end)),
        }
    }

    /// Mean video payload rate over the observation span, Mbps.
    pub fn video_mbps(&self) -> f64 {
        if self.duration_s <= 0.0 {
            0.0
        } else {
            self.video_payload_bytes as f64 * 8e-6 / self.duration_s
        }
    }

    /// Fraction of video packets that were full-sized (high under heavy
    /// FEC, whose parity packets are always full-sized).
    pub fn full_fraction(&self) -> f64 {
        if self.video_pkts == 0 {
            0.0
        } else {
            self.full_pkts as f64 / self.video_pkts as f64
        }
    }

    /// Mean video payload per packet, bytes.
    pub fn mean_video_payload(&self) -> f64 {
        if self.video_pkts == 0 {
            0.0
        } else {
            self.video_payload_bytes as f64 / self.video_pkts as f64
        }
    }

    /// Inferred frame rate over the observation span, frames per second.
    pub fn fps(&self) -> f64 {
        if self.duration_s <= 0.0 {
            0.0
        } else {
            self.frames as f64 / self.duration_s
        }
    }

    /// Mean video payload per inferred frame, kilobytes.
    pub fn payload_per_frame_kb(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.video_payload_bytes as f64 * 1e-3 / self.frames as f64
        }
    }

    /// Non-video packets per second (audio + control cadence).
    pub fn small_rate(&self) -> f64 {
        if self.duration_s <= 0.0 {
            0.0
        } else {
            self.small_pkts as f64 / self.duration_s
        }
    }
}

/// Temporal CV of the per-second video payload over the `secs` complete
/// seconds from zero; a second no window reached counts as silent.
fn rate_cv(ex: &Extractor, secs: u64) -> f64 {
    if secs == 0 {
        return 0.0;
    }
    let n = secs as f64;
    let per_second = || {
        let bytes = ex.windows().map(|w| w.video_payload_bytes);
        bytes.chain(std::iter::repeat(0)).take(secs as usize)
    };
    let mean = per_second().sum::<u64>() as f64 / n;
    if mean <= 0.0 {
        return 0.0;
    }
    let sumsq: f64 = per_second()
        .map(|b| {
            let b = b as f64;
            (b - mean) * (b - mean)
        })
        .sum();
    (sumsq / n).sqrt() / mean
}

/// The fingerprint of each of `bank`'s taps over `[0, end)`, in tap order.
pub fn fingerprints(bank: &TapBank, end: SimTime) -> Vec<FlowFingerprint> {
    let extractors = bank.extractors().iter();
    extractors.map(|ex| FlowFingerprint::of(ex, end)).collect()
}

/// The two directions of one call, fingerprinted together: what the
/// classifier consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct CallFingerprint {
    /// Uplink (send-side) fingerprint.
    pub up: FlowFingerprint,
    /// Downlink (recv-side) fingerprint.
    pub down: FlowFingerprint,
}

/// Number of classifier input features.
pub const NUM_FP_FEATURES: usize = 17;

/// Feature names, in the order [`CallFingerprint::feature_vector`]
/// produces them. Part of the model artifact schema.
pub const FP_FEATURE_NAMES: [&str; NUM_FP_FEATURES] = [
    "up_video_mbps",
    "up_full_fraction",
    "up_mean_video_payload_kb",
    "up_fps",
    "up_payload_per_frame_kb",
    "up_iat_cv",
    "up_rate_cv",
    "up_small_rate",
    "down_video_mbps",
    "down_full_fraction",
    "down_mean_video_payload_kb",
    "down_fps",
    "down_payload_per_frame_kb",
    "down_iat_cv",
    "down_rate_cv",
    "down_small_rate",
    "up_down_byte_ratio",
];

fn tap_features(f: &FlowFingerprint) -> [f64; 8] {
    [
        f.video_mbps(),
        f.full_fraction(),
        f.mean_video_payload() * 1e-3,
        f.fps(),
        f.payload_per_frame_kb(),
        f.iat_cv,
        f.rate_cv,
        f.small_rate(),
    ]
}

impl CallFingerprint {
    /// Uplink-to-downlink wire byte ratio (downlink floored at one byte).
    pub fn byte_ratio(&self) -> f64 {
        self.up.wire_bytes as f64 / (self.down.wire_bytes.max(1)) as f64
    }

    /// The classifier's input vector ([`FP_FEATURE_NAMES`] order).
    pub fn feature_vector(&self) -> [f64; NUM_FP_FEATURES] {
        let mut out = [0.0; NUM_FP_FEATURES];
        out[..8].copy_from_slice(&tap_features(&self.up));
        out[8..16].copy_from_slice(&tap_features(&self.down));
        out[16] = self.byte_ratio();
        out
    }
}

/// The [`Recorder`] to attach when a run only fingerprints: one extractor
/// per tap, read through [`fingerprints`] when the run ends.
#[derive(Debug, Clone, Default)]
pub struct FingerprintBank {
    taps: TapBank,
}

impl FingerprintBank {
    /// One extractor per tap.
    pub fn new(taps: &[TapSpec]) -> Self {
        FingerprintBank {
            taps: TapBank::new(taps),
        }
    }

    /// Every tap's fingerprint over `[0, end)`, in tap order.
    pub fn finish(self, end: SimTime) -> Vec<FlowFingerprint> {
        fingerprints(&self.taps, end)
    }
}

impl Recorder for FingerprintBank {
    fn record(&mut self, at: SimTime, kind: EventKind) {
        self.taps.record(at, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcabench_infer::flow::{PacketObs, PacketOp, Vantage, AUDIO_WIRE, FULL_WIRE, HEADER_BYTES};

    const SEND_TAP: TapSpec = TapSpec {
        link: 0,
        flow: 10,
        vantage: Vantage::Send,
    };
    const RECV_TAP: TapSpec = TapSpec {
        link: 1,
        flow: 11,
        vantage: Vantage::Recv,
    };

    /// A packet of `bytes` crossing `tap` at `at`.
    fn crossing(tap: TapSpec, at: SimTime, bytes: u64) -> PacketObs {
        PacketObs {
            at,
            op: match tap.vantage {
                Vantage::Send => PacketOp::Enqueued,
                Vantage::Recv => PacketOp::Dequeued,
            },
            link: tap.link,
            flow: tap.flow,
            bytes,
        }
    }

    fn recv(at_ms: u64, bytes: u64) -> PacketObs {
        crossing(RECV_TAP, SimTime::from_millis(at_ms), bytes)
    }

    /// Send a frame of `full` full packets plus one sub-full tail.
    fn frame(ex: &mut Extractor, at_ms: u64, full: u64) {
        let at = |i| SimTime::from_millis(at_ms) + vcabench_simcore::SimDuration::from_micros(i);
        for i in 0..full {
            ex.observe(crossing(RECV_TAP, at(i), FULL_WIRE));
        }
        ex.observe(crossing(RECV_TAP, at(full), 500));
    }

    #[test]
    fn histogram_frames_and_rates_accumulate() {
        let mut ex = Extractor::new(RECV_TAP);
        for i in 0..30u64 {
            frame(&mut ex, 33 * i, 2);
        }
        for i in 0..50u64 {
            ex.observe(recv(20 * i, AUDIO_WIRE));
        }
        let fp = FlowFingerprint::of(&ex, SimTime::from_secs(1));
        assert_eq!(fp.frames, 30);
        assert_eq!(fp.video_pkts, 90);
        assert_eq!(fp.full_pkts, 60);
        assert_eq!(fp.small_pkts, 50);
        assert!((fp.full_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!((fp.fps() - 30.0).abs() < 1e-9);
        let payload = 60 * (FULL_WIRE - HEADER_BYTES) + 30 * (500 - HEADER_BYTES);
        assert_eq!(fp.video_payload_bytes, payload);
        assert!((fp.video_mbps() - payload as f64 * 8e-6).abs() < 1e-9);
    }

    #[test]
    fn iat_and_rate_statistics_are_computed() {
        // Perfectly periodic full packets: IAT CV ~ 0; constant rate per
        // second: rate CV ~ 0 (with a sub-full tail each, one frame per).
        let mut ex = Extractor::new(RECV_TAP);
        for i in 0..100u64 {
            ex.observe(recv(20 * i, 600));
        }
        let fp = FlowFingerprint::of(&ex, SimTime::from_secs(2));
        assert!(fp.iat_cv < 1e-9);
        assert!(fp.rate_cv < 1e-9);
        // Bursty seconds: all bytes in even seconds -> CV = 1.
        let mut ex = Extractor::new(RECV_TAP);
        for sec in [0u64, 2, 4, 6] {
            for i in 0..10u64 {
                ex.observe(recv(sec * 1000 + 20 * i, 600));
            }
        }
        let fp = FlowFingerprint::of(&ex, SimTime::from_secs(8));
        assert!((fp.rate_cv - 1.0).abs() < 1e-9, "{}", fp.rate_cv);
    }

    #[test]
    fn call_fingerprint_combines_directions() {
        let mut up = Extractor::new(SEND_TAP);
        let mut down = Extractor::new(RECV_TAP);
        for i in 0..10u64 {
            up.observe(crossing(SEND_TAP, SimTime::from_millis(30 * i), 640));
            down.observe(recv(30 * i, 340));
        }
        let call = CallFingerprint {
            up: FlowFingerprint::of(&up, SimTime::from_secs(1)),
            down: FlowFingerprint::of(&down, SimTime::from_secs(1)),
        };
        assert!((call.byte_ratio() - 640.0 / 340.0).abs() < 1e-9);
        let x = call.feature_vector();
        assert_eq!(x.len(), NUM_FP_FEATURES);
        assert_eq!(FP_FEATURE_NAMES.len(), NUM_FP_FEATURES);
        assert!((x[0] - call.up.video_mbps()).abs() < 1e-12);
        assert!((x[8] - call.down.video_mbps()).abs() < 1e-12);
        assert!((x[16] - call.byte_ratio()).abs() < 1e-12);
    }

    #[test]
    fn bank_fans_out_and_preserves_tap_order() {
        let taps = [SEND_TAP, RECV_TAP];
        let mut bank = FingerprintBank::new(&taps);
        bank.record(
            SimTime::from_millis(1),
            EventKind::PacketEnqueued {
                link: 0,
                flow: 10,
                pkt: 0,
                bytes: FULL_WIRE,
                queue_bytes: 0,
                queue_pkts: 0,
            },
        );
        bank.record(
            SimTime::from_millis(2),
            EventKind::PacketDequeued {
                link: 1,
                flow: 11,
                pkt: 0,
                bytes: 500,
                queue_bytes: 0,
            },
        );
        bank.record(
            SimTime::from_millis(3),
            EventKind::RateStep { link: 1, bps: 1e6 },
        );
        let fps = bank.finish(SimTime::from_secs(1));
        assert_eq!(fps.len(), 2);
        assert_eq!(fps[0].tap, taps[0]);
        assert_eq!(fps[0].video_pkts, 1);
        assert_eq!(fps[1].frames, 1);
    }
}
