//! Streaming, single-pass fingerprint accumulation from packet-level
//! telemetry.
//!
//! A [`FlowAccumulator`] watches one tap — a [`TapSpec`] of the shared
//! flow core ([`vcabench_infer::flow`]) — and folds the packet events
//! that cross it into one call-level [`FlowFingerprint`]. It implements
//! [`vcabench_telemetry::Recorder`], so the same code runs *online*
//! (attached to a live simulation through a
//! [`vcabench_telemetry::Telemetry`] handle) and *offline* (fed from an
//! exported `.events.jsonl` trace via
//! [`vcabench_telemetry::replay_jsonl`]); both paths see the identical
//! event stream and therefore produce identical fingerprints.
//!
//! Unlike `vcabench-infer`, which estimates per-second QoE, this stage
//! answers a prior question: *which application is this flow?* What a
//! packet is (its class, whether it crossed the tap, whether it ended a
//! frame) is the flow core's answer, the same one inference gets; the
//! observables folded from it are the ones MacMillan et al. and the
//! header-free classification literature lean on:
//!
//! - **Packet-class mix** — full-MTU video vs smaller video vs non-video
//!   (audio/RTCP) packets, as the flow core classifies them. FEC parity
//!   packets are always full-sized, so a FEC-heavy sender (Zoom) has a
//!   high full fraction.
//! - **Inter-arrival statistics** — mean and coefficient of variation
//!   of video packet gaps (pacing smoothness differs per controller).
//! - **Burst/frame cadence** — frames as the core's
//!   [`FrameSegmenter`] delimits them.
//! - **Rate-oscillation signature** — the temporal coefficient of
//!   variation of per-second video bytes (Teams' controller oscillates
//!   around its nominal rate; GCC and FBRA hold steadier).
//! - **Directional byte ratio** — uplink vs downlink volume, combined
//!   at the call level by [`CallFingerprint`].

use vcabench_infer::flow::{window_of, FrameSegmenter, PacketObs, Sighting, TapSpec};
use vcabench_simcore::SimTime;
use vcabench_telemetry::{EventKind, Recorder};

/// Call-level fingerprint of one tapped flow: everything the classifier
/// sees about one direction of a call.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowFingerprint {
    /// The tap the fingerprint was accumulated on.
    pub tap: TapSpec,
    /// Observation span, seconds (the `end` passed to `finish`).
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
    /// Frame boundaries detected (marker or gap-closed).
    pub frames: u64,
    /// Mean inter-arrival gap between video packets, seconds.
    pub iat_mean_s: f64,
    /// Coefficient of variation of the video inter-arrival gaps.
    pub iat_cv: f64,
    /// Temporal coefficient of variation of per-second video payload
    /// bytes (the rate-oscillation signature).
    pub rate_cv: f64,
}

impl FlowFingerprint {
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

/// Single-pass fingerprint accumulator for one tap.
///
/// Feed it events in simulation-time order (the [`Recorder`] contract),
/// then call [`FlowAccumulator::finish`]. State is O(1) plus one byte
/// bucket per observed second — no packets are buffered.
#[derive(Debug, Clone)]
pub struct FlowAccumulator {
    tap: TapSpec,
    wire_bytes: u64,
    video_payload_bytes: u64,
    video_pkts: u64,
    full_pkts: u64,
    small_pkts: u64,
    frames: u64,
    segmenter: FrameSegmenter,
    // Inter-arrival accumulators over video packets.
    iat_n: u64,
    iat_sum: f64,
    iat_sumsq: f64,
    // Per-second video payload buckets (rate-oscillation signature).
    sec_bytes: Vec<u64>,
}

impl FlowAccumulator {
    /// An accumulator for `tap` with no events seen yet.
    pub fn new(tap: TapSpec) -> Self {
        FlowAccumulator {
            tap,
            wire_bytes: 0,
            video_payload_bytes: 0,
            video_pkts: 0,
            full_pkts: 0,
            small_pkts: 0,
            frames: 0,
            segmenter: FrameSegmenter::default(),
            iat_n: 0,
            iat_sum: 0.0,
            iat_sumsq: 0.0,
            sec_bytes: Vec::new(),
        }
    }

    /// The tap this accumulator watches.
    pub fn tap(&self) -> TapSpec {
        self.tap
    }

    /// Fold one packet event into the fingerprint, if it crossed the tap
    /// (a loss elsewhere on the flow leaves no mark on a fingerprint).
    pub fn observe(&mut self, p: PacketObs) {
        let Some(Sighting::Crossed | Sighting::DroppedHere) = self.tap.sees(&p) else {
            return;
        };
        let seg = self.segmenter.on_packet(p.at.as_secs_f64(), p.bytes);
        self.frames += u64::from(seg.stale.is_some());
        self.wire_bytes += p.bytes;
        let Some(video) = seg.video else {
            self.small_pkts += 1;
            return;
        };
        self.video_pkts += 1;
        self.video_payload_bytes += video.payload;
        let sec = window_of(p.at) as usize;
        if sec >= self.sec_bytes.len() {
            self.sec_bytes.resize(sec + 1, 0);
        }
        self.sec_bytes[sec] += video.payload;
        if let Some(dt) = video.gap_s {
            self.iat_n += 1;
            self.iat_sum += dt;
            self.iat_sumsq += dt * dt;
        }
        match video.frame {
            None => self.full_pkts += 1,
            Some(_) => self.frames += 1,
        }
    }

    /// Seal the accumulator into a [`FlowFingerprint`] covering `[0, end)`.
    /// A frame still pending at `end` never completed and is dropped.
    pub fn finish(self, end: SimTime) -> FlowFingerprint {
        let duration_s = end.as_secs_f64();
        let (iat_mean_s, iat_cv) = if self.iat_n == 0 {
            (0.0, 0.0)
        } else {
            let n = self.iat_n as f64;
            let mean = self.iat_sum / n;
            let var = (self.iat_sumsq / n - mean * mean).max(0.0);
            let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
            (mean, cv)
        };
        // Temporal CV over every *complete* second in [0, end): pad the
        // buckets with zeros out to the span so silence counts.
        let secs = window_of(end);
        let rate_cv = if secs == 0 {
            0.0
        } else {
            let n = secs as f64;
            let total: u64 = self.sec_bytes.iter().take(secs as usize).sum();
            let mean = total as f64 / n;
            if mean <= 0.0 {
                0.0
            } else {
                let sumsq: f64 = (0..secs as usize)
                    .map(|i| {
                        let b = self.sec_bytes.get(i).copied().unwrap_or(0) as f64;
                        (b - mean) * (b - mean)
                    })
                    .sum();
                (sumsq / n).sqrt() / mean
            }
        };
        FlowFingerprint {
            tap: self.tap,
            duration_s,
            wire_bytes: self.wire_bytes,
            video_payload_bytes: self.video_payload_bytes,
            video_pkts: self.video_pkts,
            full_pkts: self.full_pkts,
            small_pkts: self.small_pkts,
            frames: self.frames,
            iat_mean_s,
            iat_cv,
            rate_cv,
        }
    }
}

impl Recorder for FlowAccumulator {
    fn record(&mut self, at: SimTime, kind: EventKind) {
        if let Some(p) = PacketObs::decode(at, &kind) {
            self.observe(p);
        }
    }
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

/// A bank of accumulators sharing one event stream: the [`Recorder`] to
/// attach when a run fingerprints several taps at once.
#[derive(Debug, Clone, Default)]
pub struct FingerprintBank {
    accs: Vec<FlowAccumulator>,
}

impl FingerprintBank {
    /// One accumulator per tap.
    pub fn new(taps: &[TapSpec]) -> Self {
        FingerprintBank {
            accs: taps.iter().map(|&t| FlowAccumulator::new(t)).collect(),
        }
    }

    /// Finish every accumulator, returning fingerprints in tap order.
    pub fn finish(self, end: SimTime) -> Vec<FlowFingerprint> {
        self.accs.into_iter().map(|a| a.finish(end)).collect()
    }
}

impl Recorder for FingerprintBank {
    fn record(&mut self, at: SimTime, kind: EventKind) {
        if let Some(p) = PacketObs::decode(at, &kind) {
            for a in &mut self.accs {
                a.observe(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcabench_infer::flow::{PacketOp, Vantage, AUDIO_WIRE, FULL_WIRE, HEADER_BYTES};

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

    /// Send a frame of `full` full packets plus one marker tail.
    fn frame(acc: &mut FlowAccumulator, at_ms: u64, full: u64) {
        let at = |i| SimTime::from_millis(at_ms) + vcabench_simcore::SimDuration::from_micros(i);
        for i in 0..full {
            acc.observe(crossing(RECV_TAP, at(i), FULL_WIRE));
        }
        acc.observe(crossing(RECV_TAP, at(full), 500));
    }

    #[test]
    fn histogram_frames_and_rates_accumulate() {
        let mut acc = FlowAccumulator::new(RECV_TAP);
        for i in 0..30u64 {
            frame(&mut acc, 33 * i, 2);
        }
        for i in 0..50u64 {
            acc.observe(recv(20 * i, AUDIO_WIRE));
        }
        let fp = acc.finish(SimTime::from_secs(1));
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
        // second: rate CV ~ 0 (with a marker tail each, one frame per).
        let mut acc = FlowAccumulator::new(RECV_TAP);
        for i in 0..100u64 {
            acc.observe(recv(20 * i, 600));
        }
        let fp = acc.finish(SimTime::from_secs(2));
        assert!((fp.iat_mean_s - 0.020).abs() < 1e-9, "{}", fp.iat_mean_s);
        assert!(fp.iat_cv < 1e-9);
        assert!(fp.rate_cv < 1e-9);
        // Bursty seconds: all bytes in even seconds -> CV = 1.
        let mut acc = FlowAccumulator::new(RECV_TAP);
        for sec in [0u64, 2, 4, 6] {
            for i in 0..10u64 {
                acc.observe(recv(sec * 1000 + 20 * i, 600));
            }
        }
        let fp = acc.finish(SimTime::from_secs(8));
        assert!((fp.rate_cv - 1.0).abs() < 1e-9, "{}", fp.rate_cv);
    }

    #[test]
    fn call_fingerprint_combines_directions() {
        let mut up = FlowAccumulator::new(SEND_TAP);
        let mut down = FlowAccumulator::new(RECV_TAP);
        for i in 0..10u64 {
            up.observe(crossing(SEND_TAP, SimTime::from_millis(30 * i), 640));
            down.observe(recv(30 * i, 340));
        }
        let call = CallFingerprint {
            up: up.finish(SimTime::from_secs(1)),
            down: down.finish(SimTime::from_secs(1)),
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
