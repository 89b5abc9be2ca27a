//! The passive flow core: what a header-free on-path observer can say
//! about one packet, defined once for every consumer.
//!
//! Both passive stages — per-second QoE features ([`crate::features`])
//! and call-level fingerprints (`vcabench-fingerprint`) — watch a
//! [`TapSpec`] and see only timestamps, wire sizes and drop
//! notifications. Everything they share lives here:
//!
//! - **Packet classes.** Audio packets are small and near-constant
//!   (≤ [`AUDIO_WIRE`] bytes on the wire, like the paper's Zoom audio at
//!   ~0.04 Mbps × 50 pkt/s), as are RTCP and signaling. Anything strictly
//!   larger is video ([`VIDEO_MIN_WIRE`]); a video packet of
//!   [`FULL_WIRE`] bytes carries a full MTU payload.
//! - **The tap filter.** [`PacketObs::decode`] reads a telemetry event
//!   once into a `Copy` observation; [`TapSpec::sees`] says what that
//!   packet is to one tap ([`Sighting`]).
//! - **Frame boundaries.** Encoders packetize a frame into MTU-sized
//!   packets plus one partial tail, so a video packet smaller than
//!   [`FULL_WIRE`] marks the end of a frame (the classic silence/marker
//!   heuristic). Frames whose size is an exact multiple of the payload
//!   MTU have no partial tail; a pending frame is force-closed when the
//!   video stream pauses for more than [`FRAME_CLOSE_GAP_S`]
//!   ([`FrameSegmenter`]).
//! - **The window clock.** [`window_of`]: one-second windows from time
//!   zero.

use vcabench_simcore::SimTime;
use vcabench_telemetry::EventKind;

/// Per-packet header overhead on the wire: RTP (12) + UDP/IP (28).
pub const HEADER_BYTES: u64 = 40;
/// Largest wire size still classified as audio/control (the constant-rate
/// audio stream is exactly this size; RTCP and signaling are smaller).
pub const AUDIO_WIRE: u64 = 140;
/// Smallest wire size classified as video.
pub const VIDEO_MIN_WIRE: u64 = AUDIO_WIRE + 1;
/// Wire size of a full (MTU-payload) video packet; smaller video packets
/// are partial tails that mark a frame boundary.
pub const FULL_WIRE: u64 = 1140;
/// Video-stream silence that force-closes a pending frame whose tail
/// packet was full-sized (frame bytes an exact MTU multiple), seconds.
pub const FRAME_CLOSE_GAP_S: f64 = 0.080;

/// Index of the one-second window `[w, w+1)` that contains `at`.
pub fn window_of(at: SimTime) -> u64 {
    at.as_micros() / 1_000_000
}

/// Which side of the tap link the virtual observer sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vantage {
    /// Before the queue: sees every packet the sender emitted, i.e.
    /// enqueues *and* drops on the tap link (they are mutually exclusive
    /// per packet).
    Send,
    /// After the queue: sees dequeues on the tap link; drops anywhere on
    /// the flow are visible only as damage (the proxy for sequence gaps).
    Recv,
}

/// One passive observation point: a link, a flow on it, and a vantage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapSpec {
    /// Link index to watch.
    pub link: u64,
    /// Flow to watch on that link.
    pub flow: u64,
    /// Observer position.
    pub vantage: Vantage,
}

/// What a link did with a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketOp {
    /// Accepted into the link's queue.
    Enqueued,
    /// Left the queue onto the wire.
    Dequeued,
    /// Discarded instead of queued.
    Dropped,
}

/// One packet event, decoded once per bank and handed by value to every
/// tap behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketObs {
    /// When it happened.
    pub at: SimTime,
    /// What the link did.
    pub op: PacketOp,
    /// Link index.
    pub link: u64,
    /// Flow the packet belongs to.
    pub flow: u64,
    /// Wire size, headers included.
    pub bytes: u64,
}

impl PacketObs {
    /// The packet event in `kind`, if it is one.
    pub fn decode(at: SimTime, kind: &EventKind) -> Option<PacketObs> {
        let (op, link, flow, bytes) = match *kind {
            EventKind::PacketEnqueued {
                link, flow, bytes, ..
            } => (PacketOp::Enqueued, link, flow, bytes),
            EventKind::PacketDequeued {
                link, flow, bytes, ..
            } => (PacketOp::Dequeued, link, flow, bytes),
            EventKind::PacketDropped {
                link, flow, bytes, ..
            } => (PacketOp::Dropped, link, flow, bytes),
            _ => return None,
        };
        Some(PacketObs {
            at,
            op,
            link,
            flow,
            bytes,
        })
    }
}

/// What one packet event is to one tap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sighting {
    /// The packet crossed the tap.
    Crossed,
    /// Pre-queue observer: the sender emitted this packet — it crossed
    /// the tap — even though the tap link's queue then discarded it.
    DroppedHere,
    /// Post-queue observer: the packet was dropped somewhere on the tap's
    /// flow and never arrives; downstream it shows up as a sequence gap.
    Lost,
}

impl TapSpec {
    /// What `p` is to this tap; `None` when the tap cannot see it.
    pub fn sees(&self, p: &PacketObs) -> Option<Sighting> {
        // Link before flow: most packets are on another link, so that
        // test predicts; which of a call's flows a packet belongs to is a
        // coin toss (testing it first cost trace replay 6 %).
        let here = p.link == self.link && p.flow == self.flow;
        match (self.vantage, p.op) {
            (Vantage::Send, PacketOp::Enqueued) | (Vantage::Recv, PacketOp::Dequeued) if here => {
                Some(Sighting::Crossed)
            }
            (Vantage::Send, PacketOp::Dropped) if here => Some(Sighting::DroppedHere),
            (Vantage::Recv, PacketOp::Dropped) if p.flow == self.flow => Some(Sighting::Lost),
            _ => None,
        }
    }
}

/// A frame boundary inferred by the [`FrameSegmenter`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frame {
    /// Video payload bytes of the frame's packets.
    pub payload: u64,
    /// Arrival of the frame's last packet, seconds.
    pub end_s: f64,
}

/// The video part of a [`Segmented`] packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VideoPacket {
    /// Wire size minus [`HEADER_BYTES`]. Includes FEC payload — a passive
    /// observer cannot tell them apart.
    pub payload: u64,
    /// Gap to the previous video packet, seconds (`None` for the first).
    pub gap_s: Option<f64>,
    /// The frame this packet completes when it is a partial tail; `None`
    /// for a full-sized packet ([`FULL_WIRE`] or more).
    pub frame: Option<Frame>,
}

/// What the segmenter made of one packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segmented {
    /// A pending frame force-closed by the video silence *before* this
    /// packet (its true end lies at the last video packet).
    pub stale: Option<Frame>,
    /// The packet's video reading; `None` for a small (audio, RTCP,
    /// signaling) packet.
    pub video: Option<VideoPacket>,
}

/// Size/gap frame segmentation over the packets crossing one tap.
///
/// O(1) state, no buffering. A frame still pending when the stream ends
/// never completed and is never reported, like an assembler discarding a
/// partial frame.
#[derive(Debug, Clone, Default)]
pub struct FrameSegmenter {
    pending_payload: u64,
    last_video_s: Option<f64>,
}

impl FrameSegmenter {
    /// Account one packet of `bytes` wire bytes crossing the tap at
    /// `now_s`.
    pub fn on_packet(&mut self, now_s: f64, bytes: u64) -> Segmented {
        let stale = match self.last_video_s {
            Some(last) if self.pending_payload > 0 && now_s - last > FRAME_CLOSE_GAP_S => {
                Some(self.close(last))
            }
            _ => None,
        };
        if bytes < VIDEO_MIN_WIRE {
            return Segmented { stale, video: None };
        }
        let payload = bytes - HEADER_BYTES;
        let gap_s = self.last_video_s.map(|last| (now_s - last).max(0.0));
        self.pending_payload += payload;
        self.last_video_s = Some(now_s);
        let frame = (bytes < FULL_WIRE).then(|| self.close(now_s));
        Segmented {
            stale,
            video: Some(VideoPacket {
                payload,
                gap_s,
                frame,
            }),
        }
    }

    fn close(&mut self, end_s: f64) -> Frame {
        Frame {
            payload: std::mem::take(&mut self.pending_payload),
            end_s,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn deq(link: u64, flow: u64, bytes: u64) -> EventKind {
        EventKind::PacketDequeued {
            link,
            flow,
            pkt: 0,
            bytes,
            queue_bytes: 0,
        }
    }

    pub(crate) fn enq(link: u64, flow: u64, bytes: u64) -> EventKind {
        EventKind::PacketEnqueued {
            link,
            flow,
            pkt: 0,
            bytes,
            queue_bytes: 0,
            queue_pkts: 0,
        }
    }

    pub(crate) fn drop(link: u64, flow: u64, bytes: u64) -> EventKind {
        EventKind::PacketDropped {
            link,
            flow,
            pkt: 0,
            bytes,
            queue_bytes: 0,
            reason: "queue_full",
        }
    }

    fn sighting(tap: TapSpec, kind: EventKind) -> Option<Sighting> {
        PacketObs::decode(SimTime::from_millis(1), &kind).and_then(|p| tap.sees(&p))
    }

    #[test]
    fn vantage_filters_links_flows_and_event_kinds() {
        let recv = TapSpec {
            link: 1,
            flow: 11,
            vantage: Vantage::Recv,
        };
        // Recv tap: dequeues on its link and flow, nothing else crosses.
        assert_eq!(
            sighting(recv, deq(1, 11, FULL_WIRE)),
            Some(Sighting::Crossed)
        );
        assert_eq!(sighting(recv, enq(1, 11, FULL_WIRE)), None);
        assert_eq!(sighting(recv, deq(0, 11, FULL_WIRE)), None);
        assert_eq!(sighting(recv, deq(1, 10, FULL_WIRE)), None);
        // A drop anywhere on the flow is a loss downstream.
        assert_eq!(sighting(recv, drop(1, 11, FULL_WIRE)), Some(Sighting::Lost));
        assert_eq!(sighting(recv, drop(4, 11, FULL_WIRE)), Some(Sighting::Lost));
        assert_eq!(sighting(recv, drop(1, 10, FULL_WIRE)), None);
        // Send tap sees enqueues AND same-link drops (the pre-queue view).
        let send = TapSpec {
            link: 0,
            flow: 10,
            vantage: Vantage::Send,
        };
        assert_eq!(
            sighting(send, enq(0, 10, FULL_WIRE)),
            Some(Sighting::Crossed)
        );
        assert_eq!(
            sighting(send, drop(0, 10, FULL_WIRE)),
            Some(Sighting::DroppedHere)
        );
        assert_eq!(sighting(send, drop(4, 10, FULL_WIRE)), None); // other link: not ours
        assert_eq!(sighting(send, deq(0, 10, 500)), None); // dequeue: invisible pre-queue
        assert_eq!(sighting(send, enq(0, 11, 500)), None);
        // Anything that is not a packet event decodes to nothing.
        let rate = EventKind::RateStep { link: 0, bps: 1e6 };
        assert_eq!(PacketObs::decode(SimTime::ZERO, &rate), None);
    }

    #[test]
    fn a_stalled_full_sized_tail_is_gap_closed() {
        // A frame that is an exact MTU multiple: both packets full-sized.
        let mut seg = FrameSegmenter::default();
        seg.on_packet(0.000, FULL_WIRE);
        seg.on_packet(0.001, FULL_WIRE);
        // Within the close gap nothing happens.
        assert_eq!(seg.on_packet(0.050, AUDIO_WIRE).stale, None);
        // Far beyond it, whatever packet comes next — here audio — closes
        // the frame at its last video packet.
        let closed = seg.on_packet(0.200, AUDIO_WIRE);
        assert_eq!(
            closed.stale,
            Some(Frame {
                payload: 2 * (FULL_WIRE - HEADER_BYTES),
                end_s: 0.001
            })
        );
        // Closed once: nothing pending any more.
        assert_eq!(seg.on_packet(0.400, AUDIO_WIRE).stale, None);
        // A video packet can close the stale frame and start the next.
        let mut seg = FrameSegmenter::default();
        seg.on_packet(0.0, FULL_WIRE);
        let next = seg.on_packet(0.2, FULL_WIRE);
        assert_eq!(next.stale.expect("stale frame").end_s, 0.0);
        let video = next.video.expect("video");
        assert_eq!(video.frame, None);
        assert!((video.gap_s.expect("gap") - 0.2).abs() < 1e-12);
    }
}
