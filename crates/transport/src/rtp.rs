//! RTP media packets and send/receive session state.
//!
//! All three VCAs transmit media over RTP or a variant of it (§2.1). The
//! simulation carries a structured [`RtpPacket`] instead of wire bytes: the
//! fields are exactly the header information the measurement relies on
//! (SSRC, sequence number, marker bit) plus frame metadata that a real
//! receiver would recover from the codec bitstream (resolution, FPS, QP) and
//! that the paper reads out of `chrome://webrtc-internals`.

use vcabench_simcore::{InvariantLog, SimDuration, SimTime, Violation};

/// Media stream type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKind {
    /// Video RTP stream.
    Video,
    /// Audio RTP stream (small constant bitrate).
    Audio,
}

/// Layer of a packet (used by simulcast and SVC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Layer {
    /// Spatial layer / simulcast stream index (0 = lowest quality).
    pub spatial: u8,
}

/// Encoding parameters attached to a video frame, mirroring what the
/// WebRTC stats API exposes per second (§3.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameMeta {
    /// Frame width in pixels (the paper reports this dimension).
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Frames per second the encoder is currently producing.
    pub fps: f64,
    /// Quantization parameter (higher = coarser).
    pub qp: f64,
    /// True for intra (key) frames.
    pub keyframe: bool,
}

/// A simulated RTP packet.
#[derive(Debug, Clone, PartialEq)]
pub struct RtpPacket {
    /// Synchronization source: one per (sender, stream, layer).
    pub ssrc: u32,
    /// Sequence number. The simulation uses a u64 to avoid u16 wrap
    /// bookkeeping; loss detection semantics are identical.
    pub seq: u64,
    /// Media stream kind.
    pub kind: StreamKind,
    /// Layer of this packet.
    pub layer: Layer,
    /// Frame this packet belongs to.
    pub frame_id: u64,
    /// Marker bit: last packet of the frame.
    pub marker: bool,
    /// Total packets in this frame (lets the receiver detect completeness
    /// without waiting for sequence-gap inference).
    pub frame_pkts: u16,
    /// True for FEC/redundancy packets (Zoom's probing padding).
    pub is_fec: bool,
    /// True when this is a NACK-triggered retransmission (recovered packets
    /// must not erase the loss signal congestion control relies on).
    pub is_retransmit: bool,
    /// Capture timestamp at the sender (for one-way-delay measurement).
    pub capture_ts: SimTime,
    /// Frame metadata (video only; replicated on each packet of the frame).
    pub meta: Option<FrameMeta>,
}

/// Per-SSRC sender state: assigns sequence numbers and frame ids.
#[derive(Debug, Clone)]
pub struct RtpSendState {
    /// The stream's SSRC.
    pub ssrc: u32,
    next_seq: u64,
    next_frame: u64,
}

impl RtpSendState {
    /// New sender state for `ssrc`.
    pub fn new(ssrc: u32) -> Self {
        RtpSendState {
            ssrc,
            next_seq: 0,
            next_frame: 0,
        }
    }

    /// Allocate the next sequence number.
    pub fn next_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Allocate the next frame id.
    pub fn next_frame(&mut self) -> u64 {
        let f = self.next_frame;
        self.next_frame += 1;
        f
    }
}

/// Aggregate receive statistics over one report interval.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IntervalStats {
    /// Packets received this interval.
    pub received: u64,
    /// Packets detected lost (sequence gaps) this interval.
    pub lost: u64,
    /// Bytes received this interval.
    pub bytes: u64,
    /// Minimum one-way delay in the interval, ms. Delay-gradient controllers
    /// should prefer this: it tracks the *standing* queue while ignoring
    /// intra-frame serialization sawtooth.
    pub min_owd_ms: f64,
}

impl IntervalStats {
    /// Loss fraction in `[0, 1]`, before any recovery.
    pub fn loss_fraction(&self) -> f64 {
        let total = self.received + self.lost;
        if total == 0 {
            0.0
        } else {
            self.lost as f64 / total as f64
        }
    }

    /// Delivery rate over `interval`, Mbps.
    pub fn receive_rate_mbps(&self, interval: SimDuration) -> f64 {
        let s = interval.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.bytes as f64 * 8.0 / s / 1e6
        }
    }
}

/// Several streams' intervals as one report's: counts summed in stream
/// order and the minimum delay over the streams that received packets (0
/// when nothing arrived).
impl std::iter::Sum for IntervalStats {
    fn sum<I: Iterator<Item = IntervalStats>>(streams: I) -> Self {
        let mut total = IntervalStats::default();
        let mut min_owd_ms = f64::INFINITY;
        for s in streams {
            total.received += s.received;
            total.lost += s.lost;
            total.bytes += s.bytes;
            if s.received > 0 {
                min_owd_ms = min_owd_ms.min(s.min_owd_ms);
            }
        }
        if total.received > 0 {
            total.min_owd_ms = min_owd_ms;
        }
        total
    }
}

/// Per-SSRC receiver state: detects gaps, measures delay, accumulates
/// interval statistics for RTCP reports.
#[derive(Debug, Clone)]
pub struct RtpRecvState {
    highest_seq: Option<u64>,
    current: IntervalStats,
    owd_min_ms: f64,
    /// Sequence numbers delivered at least once, one bit per seq: bit
    /// `seq % 64` of word `seq / 64` (fed only in builds with debug
    /// assertions; the simulated network never duplicates, so a second
    /// first-delivery of a seq is an engine bug, not network behavior).
    /// A send state numbers from 0, so the set is dense.
    seen_seqs: Vec<u64>,
    audit_log: InvariantLog,
}

impl RtpRecvState {
    /// Fresh receiver state.
    pub fn new() -> Self {
        RtpRecvState {
            highest_seq: None,
            current: IntervalStats::default(),
            owd_min_ms: f64::INFINITY,
            seen_seqs: Vec::new(),
            audit_log: InvariantLog::new(),
        }
    }

    /// Ingest a packet that arrived at `now` with on-wire size `size`.
    pub fn on_packet(&mut self, now: SimTime, pkt: &RtpPacket, size: usize) {
        if cfg!(debug_assertions) {
            let seq = pkt.seq;
            let word = (seq / 64) as usize;
            if word >= self.seen_seqs.len() {
                self.seen_seqs.resize(word + 1, 0);
            }
            let bit = 1u64 << (seq % 64);
            let fresh = self.seen_seqs[word] & bit == 0;
            self.seen_seqs[word] |= bit;
            self.audit_log
                .check(now, "rtp-no-duplicate", fresh || pkt.is_retransmit, || {
                    format!("seq {seq} delivered twice without being a retransmission")
                });
            let capture = pkt.capture_ts;
            self.audit_log
                .check(now, "rtp-causal-arrival", now >= capture, || {
                    format!("packet captured at {capture} arrived earlier, at {now}")
                });
        }
        self.current.received += 1;
        self.current.bytes += size as u64;
        let owd_ms = now.saturating_since(pkt.capture_ts).as_micros() as f64 / 1000.0;
        self.owd_min_ms = self.owd_min_ms.min(owd_ms);
        match self.highest_seq {
            None => self.highest_seq = Some(pkt.seq),
            Some(h) if pkt.seq > h => {
                let gap = pkt.seq - h - 1;
                self.current.lost += gap;
                self.highest_seq = Some(pkt.seq);
            }
            Some(_) => {
                // Reordered packet previously counted lost: repair the count
                // — unless it is a retransmission, which repairs the *frame*
                // but must leave the loss signal intact (WebRTC reports
                // pre-recovery loss to the bandwidth estimator).
                if !pkt.is_retransmit && self.current.lost > 0 {
                    self.current.lost -= 1;
                }
            }
        }
    }

    /// Close the current interval, returning its statistics.
    pub fn take_interval(&mut self) -> IntervalStats {
        let mut stats = std::mem::take(&mut self.current);
        stats.min_owd_ms = if stats.received > 0 {
            self.owd_min_ms
        } else {
            0.0
        };
        self.owd_min_ms = f64::INFINITY;
        stats
    }

    /// Highest sequence number seen (None before the first packet).
    pub fn highest_seq(&self) -> Option<u64> {
        self.highest_seq
    }

    /// Violations recorded by this receiver's auditor.
    pub fn audit_violations(&self) -> &[Violation] {
        self.audit_log.violations()
    }

    /// Number of invariant checks this receiver has performed.
    pub fn audit_checks(&self) -> u64 {
        self.audit_log.checks_performed()
    }
}

impl Default for RtpRecvState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(seq: u64, capture: SimTime) -> RtpPacket {
        RtpPacket {
            ssrc: 1,
            seq,
            kind: StreamKind::Video,
            layer: Layer::default(),
            frame_id: seq / 3,
            marker: seq % 3 == 2,
            frame_pkts: 3,
            is_fec: false,
            is_retransmit: false,
            capture_ts: capture,
            meta: None,
        }
    }

    #[test]
    fn send_state_allocates_monotonic() {
        let mut s = RtpSendState::new(7);
        assert_eq!(s.next_seq(), 0);
        assert_eq!(s.next_seq(), 1);
        assert_eq!(s.next_frame(), 0);
        assert_eq!(s.next_frame(), 1);
    }

    #[test]
    fn recv_counts_in_order_packets() {
        let mut r = RtpRecvState::new();
        for i in 0..10 {
            r.on_packet(
                SimTime::from_millis(i * 10 + 5),
                &pkt(i, SimTime::from_millis(i * 10)),
                1200,
            );
        }
        let s = r.take_interval();
        assert_eq!(s.received, 10);
        assert_eq!(s.lost, 0);
        assert_eq!(s.bytes, 12_000);
        assert!((s.min_owd_ms - 5.0).abs() < 1e-9);
        assert_eq!(s.loss_fraction(), 0.0);
    }

    #[test]
    fn recv_detects_gaps() {
        let mut r = RtpRecvState::new();
        r.on_packet(SimTime::from_millis(1), &pkt(0, SimTime::ZERO), 100);
        r.on_packet(SimTime::from_millis(2), &pkt(4, SimTime::ZERO), 100);
        let s = r.take_interval();
        assert_eq!(s.lost, 3);
        assert!((s.loss_fraction() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn reordering_repairs_loss_count() {
        let mut r = RtpRecvState::new();
        r.on_packet(SimTime::from_millis(1), &pkt(0, SimTime::ZERO), 100);
        r.on_packet(SimTime::from_millis(2), &pkt(2, SimTime::ZERO), 100);
        r.on_packet(SimTime::from_millis(3), &pkt(1, SimTime::ZERO), 100);
        let s = r.take_interval();
        assert_eq!(s.lost, 0, "reordered packet is not a loss");
        assert_eq!(s.received, 3);
    }

    #[cfg_attr(not(debug_assertions), ignore = "audit hooks need debug assertions")]
    #[test]
    fn duplicate_delivery_is_flagged() {
        let mut r = RtpRecvState::new();
        r.on_packet(SimTime::from_millis(1), &pkt(0, SimTime::ZERO), 100);
        r.on_packet(SimTime::from_millis(2), &pkt(0, SimTime::ZERO), 100);
        assert_eq!(r.audit_violations().len(), 1);
        assert_eq!(r.audit_violations()[0].invariant, "rtp-no-duplicate");
        // A retransmitted copy of a seen seq is legitimate recovery.
        let mut retx = pkt(0, SimTime::ZERO);
        retx.is_retransmit = true;
        r.on_packet(SimTime::from_millis(3), &retx, 100);
        assert_eq!(r.audit_violations().len(), 1);
        assert!(r.audit_checks() >= 6);
    }

    #[test]
    fn interval_resets() {
        let mut r = RtpRecvState::new();
        r.on_packet(SimTime::from_millis(1), &pkt(0, SimTime::ZERO), 100);
        let _ = r.take_interval();
        let s2 = r.take_interval();
        assert_eq!(s2.received, 0);
        assert_eq!(s2.min_owd_ms, 0.0);
    }

    #[test]
    fn intervals_sum_into_one_report() {
        let stream = |received, lost, bytes, min_owd_ms| IntervalStats {
            received,
            lost,
            bytes,
            min_owd_ms,
        };
        let total: IntervalStats = [
            stream(3, 1, 300, 8.0),
            // Lost everything: its delays (none measured) count nowhere.
            stream(0, 2, 0, 0.0),
            stream(1, 0, 100, 30.0),
        ]
        .into_iter()
        .sum();
        assert_eq!(total, stream(4, 3, 400, 8.0));
        assert!((total.loss_fraction() - 3.0 / 7.0).abs() < 1e-12);
        // Nothing received: no delay, not an infinite one.
        let lost: IntervalStats = [stream(0, 5, 0, 0.0)].into_iter().sum();
        assert_eq!(lost, stream(0, 5, 0, 0.0));
        assert_eq!(
            std::iter::empty().sum::<IntervalStats>(),
            IntervalStats::default()
        );
    }

    #[test]
    fn receive_rate_computation() {
        let s = IntervalStats {
            bytes: 12_500, // at 100 ms -> 1 Mbps
            ..Default::default()
        };
        assert!((s.receive_rate_mbps(SimDuration::from_millis(100)) - 1.0).abs() < 1e-9);
        assert_eq!(s.receive_rate_mbps(SimDuration::ZERO), 0.0);
    }
}
