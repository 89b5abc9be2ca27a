//! The unified on-wire payload type used by every vcabench experiment.
//!
//! `netsim` is generic over its packet payload; everything above it (VCA
//! clients, SFU servers, competing applications) instantiates the network as
//! `Network<Wire>` so RTP media, RTCP control, and TCP segments can share
//! links and queues — which is the whole point of the §5 competition
//! experiments.

use crate::rtcp::RtcpPacket;
use crate::rtp::RtpPacket;

/// Per-packet IP+UDP header overhead, bytes.
/// engineering: the IPv4 (20) and UDP (8) headers.
pub const UDP_OVERHEAD: usize = 28;
/// RTP header bytes (IP+UDP come on top: [`UDP_OVERHEAD`]).
/// engineering: RTP's fixed header, without CSRCs or extensions.
pub const RTP_HEADER: usize = 12;
/// Payload bytes of a full RTP media or FEC packet.
/// fitted: unattributed.
pub const RTP_PAYLOAD: usize = 1100;
/// Per-packet IP+TCP header overhead, bytes.
/// engineering: the IPv4 (20) and TCP (20) headers, without options.
pub const TCP_OVERHEAD: usize = 40;

/// A TCP segment (data or pure ACK) on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpSegment {
    /// Connection identifier (unique per experiment).
    pub conn: u64,
    /// First payload byte offset (data segments).
    pub seq: u64,
    /// Payload length; 0 for a pure ACK.
    pub len: usize,
    /// Cumulative acknowledgement carried by this segment, if any.
    pub ack: Option<u64>,
}

impl TcpSegment {
    /// On-wire size including headers.
    pub fn wire_size(&self) -> usize {
        self.len + TCP_OVERHEAD
    }
}

/// Application-level signalling carried by [`Wire::Signal`] packets:
/// layout changes (the work PyAutoGUI did in the paper's lab) plus segment
/// requests for the streaming-application models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalMsg {
    /// A client announces its viewing layout: `pinned` is the index of the
    /// participant it pinned (speaker mode), or `None` for gallery mode.
    Layout {
        /// Pinned participant index, if any.
        pinned: Option<u32>,
    },
    /// An ABR client requests `bytes` over connection `conn` (Netflix/
    /// YouTube segment fetch).
    SegmentRequest {
        /// Connection id the response should use.
        conn: u64,
        /// Segment size in bytes.
        bytes: u64,
    },
}

/// Union of every protocol the simulation carries.
#[derive(Debug, Clone, PartialEq)]
pub enum Wire {
    /// RTP media.
    Rtp(RtpPacket),
    /// RTCP control.
    Rtcp(RtcpPacket),
    /// TCP segment (iPerf3, Netflix) or QUIC datagram (YouTube — modelled
    /// with the same segment structure; see `apps::youtube`).
    Tcp(TcpSegment),
    /// Application signalling (layout changes, segment requests).
    Signal(SignalMsg),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_wire_size_includes_headers() {
        let seg = TcpSegment {
            conn: 1,
            seq: 0,
            len: 1200,
            ack: None,
        };
        assert_eq!(seg.wire_size(), 1240);
        let ack = TcpSegment {
            conn: 1,
            seq: 0,
            len: 0,
            ack: Some(1200),
        };
        assert_eq!(ack.wire_size(), 40);
    }
}
