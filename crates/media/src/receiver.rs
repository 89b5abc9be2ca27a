//! Receive-side video pipeline: frame reassembly, freeze detection, FIR.
//!
//! Implements the paper's §3.2 receiver metrics exactly:
//!
//! * a **freeze** occurs "if the frame inter-arrival > max(3δ, δ + 150 ms),
//!   where δ is the average frame duration";
//! * the **freeze ratio** normalizes total freeze duration by call duration;
//! * a **FIR** (Full Intra Request) is issued when the receiver cannot decode
//!   — here, when frames keep failing reassembly and the decoder needs a new
//!   intra frame to resynchronize (the Fig 3b upstream metric).

use vcabench_simcore::{SimDuration, SimTime};
use vcabench_transport::rtp::RtpPacket;

/// The paper's fixed freeze offset (150 ms).
pub const FREEZE_OFFSET: SimDuration = SimDuration::from_millis(150);
/// How long a partial frame waits for its missing packets before it is
/// abandoned.
pub const STALE_AFTER: SimDuration = SimDuration::from_millis(2000);

/// Outcome of feeding a packet to the assembler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AssembleEvent {
    /// Frame still incomplete.
    Pending,
    /// A frame completed reassembly (decodable).
    FrameComplete {
        /// Frame id.
        frame_id: u64,
        /// Total frame bytes.
        bytes: usize,
        /// Whether it was a keyframe.
        keyframe: bool,
    },
}

#[derive(Debug, Clone, Default)]
struct PartialFrame {
    received: u16,
    expected: u16,
    bytes: usize,
    keyframe: bool,
    first_seen: SimTime,
}

/// Reassembles RTP packets into frames and tracks decodability.
///
/// The decoder model: delta frames decode only if the decoder is in sync
/// (no reference frame was skipped); a completed keyframe always restores
/// sync. Losing any packet of a frame makes that frame undecodable. Odd
/// frame ids are droppable temporal-enhancement frames: every VCA stream
/// may be thinned by its server (Meet at mid rates, Teams in large calls,
/// §6.1), so only a skipped even id breaks the reference chain.
#[derive(Debug, Clone)]
pub struct FrameAssembler {
    /// Frames still reassembling, by frame id: a handful at a time, the
    /// newest usually last. The `Vec` keeps its capacity, so a frame costs
    /// no allocation.
    partial: Vec<(u64, PartialFrame)>,
    /// Highest frame id fully decoded.
    last_decoded: Option<u64>,
    /// Decoder lost its reference chain and needs a keyframe.
    pub needs_keyframe: bool,
    /// Frames that completed reassembly and were decodable.
    pub frames_decoded: u64,
    /// Frames abandoned (packet loss or stale).
    pub frames_dropped: u64,
}

impl FrameAssembler {
    /// New assembler.
    pub fn new() -> Self {
        FrameAssembler {
            partial: Vec::new(),
            last_decoded: None,
            needs_keyframe: false,
            frames_decoded: 0,
            frames_dropped: 0,
        }
    }

    /// Feed one media packet. Returns whether a frame became decodable.
    pub fn on_packet(&mut self, now: SimTime, pkt: &RtpPacket, bytes: usize) -> AssembleEvent {
        let i = self.find(pkt.frame_id).unwrap_or_else(|| {
            let frame = PartialFrame {
                expected: pkt.frame_pkts.max(1),
                first_seen: now,
                ..PartialFrame::default()
            };
            self.partial.push((pkt.frame_id, frame));
            self.partial.len() - 1
        });
        let entry = &mut self.partial[i].1;
        entry.received += 1;
        entry.bytes += bytes;
        entry.keyframe |= pkt.meta.map(|m| m.keyframe).unwrap_or(false);
        let complete = entry.received >= entry.expected;

        // Expire stale partial frames (their packets were lost).
        self.expire_stale(now, pkt.frame_id);

        if !complete {
            return AssembleEvent::Pending;
        }
        let i = self.find(pkt.frame_id).expect("entry exists");
        let (_, frame) = self.partial.swap_remove(i);
        let decodable = if frame.keyframe {
            self.needs_keyframe = false;
            true
        } else {
            !self.needs_keyframe
        };
        // A skipped frame id breaks the reference chain for later deltas
        // unless it is odd (a droppable temporal-enhancement frame).
        if let Some(last) = self.last_decoded {
            let gap_breaks = (last + 1..pkt.frame_id).any(|id| id % 2 == 0);
            if gap_breaks && !frame.keyframe {
                // A reference was missed; this delta cannot decode.
                self.needs_keyframe = true;
                self.frames_dropped += 1;
                self.last_decoded = Some(pkt.frame_id);
                return AssembleEvent::Pending;
            }
        }
        self.last_decoded = Some(pkt.frame_id);
        if decodable {
            self.frames_decoded += 1;
            AssembleEvent::FrameComplete {
                frame_id: pkt.frame_id,
                bytes: frame.bytes,
                keyframe: frame.keyframe,
            }
        } else {
            self.frames_dropped += 1;
            AssembleEvent::Pending
        }
    }

    /// Where frame `id` sits in `partial`.
    fn find(&self, id: u64) -> Option<usize> {
        self.partial.iter().rposition(|&(f, _)| f == id)
    }

    fn expire_stale(&mut self, now: SimTime, current: u64) {
        let before = self.partial.len();
        self.partial
            .retain(|(id, f)| *id == current || now.saturating_since(f.first_seen) <= STALE_AFTER);
        let removed = before - self.partial.len();
        if removed > 0 {
            self.frames_dropped += removed as u64;
            self.needs_keyframe = true;
        }
    }

    /// Partial frames currently buffered.
    pub fn pending_frames(&self) -> usize {
        self.partial.len()
    }
}

impl Default for FrameAssembler {
    fn default() -> Self {
        Self::new()
    }
}

/// Implements the paper's freeze rule over decoded-frame render times.
#[derive(Debug, Clone)]
pub struct FreezeDetector {
    last_frame: Option<SimTime>,
    /// EMA of inter-frame duration (δ), seconds.
    avg_frame_dur_s: f64,
    /// Total frozen time.
    pub freeze_time: SimDuration,
    /// Number of distinct freezes.
    pub freeze_count: u64,
    /// Total frames observed.
    pub frames: u64,
}

impl FreezeDetector {
    /// Detector assuming a starting frame rate of `initial_fps`.
    pub fn new(initial_fps: f64) -> Self {
        FreezeDetector {
            last_frame: None,
            avg_frame_dur_s: 1.0 / initial_fps.max(1.0),
            freeze_time: SimDuration::ZERO,
            freeze_count: 0,
            frames: 0,
        }
    }

    /// Record a rendered frame at `now`.
    pub fn on_frame(&mut self, now: SimTime) {
        self.frames += 1;
        if let Some(last) = self.last_frame {
            let gap_s = now.saturating_since(last).as_secs_f64();
            let delta = self.avg_frame_dur_s;
            let threshold = (3.0 * delta).max(delta + FREEZE_OFFSET.as_secs_f64());
            if gap_s > threshold {
                self.freeze_count += 1;
                self.freeze_time += SimDuration::from_secs_f64(gap_s - delta);
            }
            // EMA update, ignoring freeze gaps so δ tracks the nominal rate.
            if gap_s <= threshold {
                self.avg_frame_dur_s = 0.95 * self.avg_frame_dur_s + 0.05 * gap_s;
            }
        }
        self.last_frame = Some(now);
    }

    /// Freeze ratio over a call of `duration`.
    pub fn freeze_ratio(&self, duration: SimDuration) -> f64 {
        if duration.is_zero() {
            return 0.0;
        }
        (self.freeze_time.as_secs_f64() / duration.as_secs_f64()).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcabench_transport::rtp::{FrameMeta, Layer, StreamKind};

    fn pkt(frame_id: u64, idx: u16, of: u16, keyframe: bool) -> RtpPacket {
        RtpPacket {
            ssrc: 1,
            seq: frame_id * 100 + idx as u64,
            kind: StreamKind::Video,
            layer: Layer::default(),
            frame_id,
            marker: idx + 1 == of,
            frame_pkts: of,
            is_fec: false,
            is_retransmit: false,
            capture_ts: SimTime::ZERO,
            meta: Some(FrameMeta {
                width: 640,
                height: 360,
                fps: 30.0,
                qp: 30.0,
                keyframe,
            }),
        }
    }

    #[test]
    fn complete_frame_decodes() {
        let mut a = FrameAssembler::new();
        let t = SimTime::from_millis(10);
        assert_eq!(
            a.on_packet(t, &pkt(0, 0, 2, true), 500),
            AssembleEvent::Pending
        );
        match a.on_packet(t, &pkt(0, 1, 2, true), 500) {
            AssembleEvent::FrameComplete {
                bytes, keyframe, ..
            } => {
                assert_eq!(bytes, 1000);
                assert!(keyframe);
            }
            other => panic!("expected completion, got {other:?}"),
        }
        assert_eq!(a.frames_decoded, 1);
    }

    #[test]
    fn missing_reference_blocks_deltas_until_keyframe() {
        let mut a = FrameAssembler::new();
        let t = SimTime::from_millis(1);
        // Keyframe 0 decodes.
        a.on_packet(t, &pkt(0, 0, 1, true), 500);
        // Frame 1 lost entirely: an odd (droppable) frame, so delta 2
        // still decodes.
        assert!(matches!(
            a.on_packet(t, &pkt(2, 0, 1, false), 500),
            AssembleEvent::FrameComplete { .. }
        ));
        // Frames 3 and 4 lost: 4 was a reference, so delta 5 completes but
        // cannot decode.
        let ev = a.on_packet(t, &pkt(5, 0, 1, false), 500);
        assert_eq!(ev, AssembleEvent::Pending);
        assert!(a.needs_keyframe);
        // Delta 6 also refused.
        assert_eq!(
            a.on_packet(t, &pkt(6, 0, 1, false), 500),
            AssembleEvent::Pending
        );
        // Keyframe 7 restores sync.
        assert!(matches!(
            a.on_packet(t, &pkt(7, 0, 1, true), 500),
            AssembleEvent::FrameComplete { .. }
        ));
        assert!(!a.needs_keyframe);
    }

    #[test]
    fn stale_partial_frames_expire() {
        let mut a = FrameAssembler::new();
        a.on_packet(SimTime::ZERO, &pkt(0, 0, 2, false), 500); // half a frame
                                                               // Three seconds later another frame's packet triggers expiry.
        a.on_packet(SimTime::from_secs(3), &pkt(10, 0, 2, false), 500);
        assert_eq!(a.frames_dropped, 1);
        assert!(a.needs_keyframe);
        assert_eq!(a.pending_frames(), 1); // only frame 10 remains
    }

    #[test]
    fn freeze_rule_matches_paper_formula() {
        let mut d = FreezeDetector::new(30.0);
        // 30 fps cadence: δ = 33.3 ms; threshold = max(100 ms, 183 ms) = 183 ms.
        let mut t = SimTime::ZERO;
        for _ in 0..30 {
            d.on_frame(t);
            t += SimDuration::from_micros(33_333);
        }
        assert_eq!(d.freeze_count, 0);
        // A 150 ms gap is below threshold: no freeze.
        t += SimDuration::from_millis(150);
        d.on_frame(t);
        assert_eq!(d.freeze_count, 0);
        // A 400 ms gap exceeds it: freeze.
        t += SimDuration::from_millis(400);
        d.on_frame(t);
        assert_eq!(d.freeze_count, 1);
        assert!(d.freeze_time >= SimDuration::from_millis(300));
    }

    #[test]
    fn freeze_threshold_scales_with_low_fps() {
        // At 5 fps (δ=200 ms) the 3δ term dominates: 550 ms gap is fine.
        let mut d = FreezeDetector::new(5.0);
        let mut t = SimTime::ZERO;
        for _ in 0..20 {
            d.on_frame(t);
            t += SimDuration::from_millis(200);
        }
        // After the loop `t` is one cadence past the last frame, so adding
        // 350 ms produces an actual inter-frame gap of 550 ms < 3δ = 600 ms.
        t += SimDuration::from_millis(350);
        d.on_frame(t);
        assert_eq!(d.freeze_count, 0, "below 3δ at low fps");
        t += SimDuration::from_millis(700);
        d.on_frame(t);
        assert_eq!(d.freeze_count, 1);
    }

    #[test]
    fn freeze_ratio_normalizes() {
        let mut d = FreezeDetector::new(30.0);
        d.on_frame(SimTime::ZERO);
        d.on_frame(SimTime::from_secs(1)); // 1 s freeze
        let ratio = d.freeze_ratio(SimDuration::from_secs(10));
        assert!(ratio > 0.08 && ratio < 0.11, "ratio {ratio}");
    }

    #[test]
    fn gap_exactly_at_threshold_is_not_a_freeze() {
        // The rule is strict: gap > max(3δ, δ + 150 ms). At 4 fps both δ
        // (250 ms) and the 3δ threshold (750 ms) are exactly representable
        // in f64, so a 750 ms gap sits precisely on the boundary.
        let mut d = FreezeDetector::new(4.0);
        d.on_frame(SimTime::ZERO);
        d.on_frame(SimTime::from_micros(750_000));
        assert_eq!(d.freeze_count, 0, "boundary gap must not count");
        assert_eq!(d.freeze_time, SimDuration::ZERO);
        // The boundary gap feeds the EMA like any non-freeze gap:
        // δ ← 0.95·0.25 + 0.05·0.75 = 0.275 s.
        assert!((d.avg_frame_dur_s * 1000.0 - 275.0).abs() < 1e-9);
        // One microsecond past the boundary is a freeze.
        let mut d = FreezeDetector::new(4.0);
        d.on_frame(SimTime::ZERO);
        d.on_frame(SimTime::from_micros(750_001));
        assert_eq!(d.freeze_count, 1);
        // Frozen time is the gap beyond one nominal frame duration, and a
        // freeze gap must NOT feed the EMA (δ keeps the nominal rate).
        assert!((d.freeze_time.as_secs_f64() - 0.500_001).abs() < 1e-5);
        assert!((d.avg_frame_dur_s * 1000.0 - 250.0).abs() < 1e-9);
    }

    #[test]
    fn first_frame_only_establishes_the_timeline() {
        // No gap exists before the first frame: a detector created at t=0
        // whose first frame lands late must not count a startup freeze —
        // the paper's rule is over inter-frame gaps of rendered frames.
        let mut d = FreezeDetector::new(30.0);
        d.on_frame(SimTime::from_secs(5));
        assert_eq!(d.frames, 1);
        assert_eq!(d.freeze_count, 0);
        assert_eq!(d.freeze_time, SimDuration::ZERO);
        // δ still carries the initial-fps prior until a second frame
        // arrives; the gap is then measured from the first frame, and the
        // frozen time discounts one nominal (prior) frame duration.
        assert!((d.avg_frame_dur_s * 1000.0 - 1000.0 / 30.0).abs() < 1e-9);
        d.on_frame(SimTime::from_secs(6));
        assert_eq!(d.freeze_count, 1);
        assert!((d.freeze_time.as_secs_f64() - (1.0 - 1.0 / 30.0)).abs() < 1e-5);
    }

    #[test]
    fn delta_initialization_clamps_degenerate_fps() {
        // `new(0.0)` must not divide by zero: the fps prior clamps to 1,
        // so δ starts at one second and the threshold at 3δ = 3 s.
        let mut d = FreezeDetector::new(0.0);
        assert!((d.avg_frame_dur_s * 1000.0 - 1000.0).abs() < 1e-9);
        d.on_frame(SimTime::ZERO);
        d.on_frame(SimTime::from_secs(3));
        assert_eq!(d.freeze_count, 0, "3 s gap is exactly the threshold");
        let mut d = FreezeDetector::new(0.0);
        d.on_frame(SimTime::ZERO);
        d.on_frame(SimTime::from_micros(3_000_001));
        assert_eq!(d.freeze_count, 1);
    }
}
