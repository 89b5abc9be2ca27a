//! RTCP control messages: receiver reports and Full Intra Requests.
//!
//! RTCP shares performance statistics and control information during a call
//! (§2.1). Two message types matter for the paper's measurements:
//!
//! * **Receiver reports** carry the loss/delay/rate feedback the senders'
//!   congestion controllers consume (every VCA has some variant of this);
//! * **FIR (Full Intra Request)** is sent when the receiver cannot decode —
//!   the paper uses the FIR count as its proxy for upstream-direction video
//!   freezes (Fig 3b).

use vcabench_simcore::{SimDuration, SimTime};

/// Feedback payload of a receiver report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReceiverReport {
    /// SSRC being reported on.
    pub ssrc: u32,
    /// Loss fraction since the last report, `[0, 1]`.
    pub loss_fraction: f64,
    /// Receiver-measured delivery rate over the interval, Mbps.
    pub receive_rate_mbps: f64,
    /// Minimum relative one-way delay over the interval, ms.
    pub one_way_delay_ms: f64,
    /// Largest video width (pixels) any subscriber currently wants from the
    /// report's recipient — how the SFU communicates layout-driven
    /// resolution demand back to senders (§6).
    pub max_requested_width: u32,
    /// Number of clients in the call (lets senders implement call-size
    /// dependent behaviour such as Teams' pinned-uplink growth, Fig 15c).
    pub call_size: u32,
}

/// An RTCP message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RtcpPacket {
    /// Periodic receiver report.
    Report(ReceiverReport),
    /// Full Intra Request: the receiver needs a keyframe to resume decoding.
    Fir {
        /// SSRC the request applies to.
        ssrc: u32,
        /// When the receiver issued the request.
        issued_at: SimTime,
    },
    /// Negative acknowledgement: ask for retransmission of one packet.
    /// Handled by the SFU (which rewrites sequence numbers and keeps a short
    /// retransmission buffer per subscriber), as real SFUs do.
    Nack {
        /// SSRC of the stream with the gap.
        ssrc: u32,
        /// Missing (egress) sequence number.
        seq: u64,
    },
}

/// On-wire size of a receiver report, bytes.
/// engineering: a compound RTCP report with its IP and UDP headers.
pub const REPORT_WIRE: usize = 96;
/// On-wire size of a FIR, bytes.
/// engineering: RTCP's 12-byte feedback header, one 8-byte FCI entry, and
/// the IP and UDP headers.
pub const FIR_WIRE: usize = 48;
/// On-wire size of a NACK, bytes.
/// engineering: RTCP's 12-byte feedback header, one 4-byte FCI entry, and
/// the IP and UDP headers.
pub const NACK_WIRE: usize = 44;

impl RtcpPacket {
    /// On-wire size of the message, bytes (header + report block + UDP/IP).
    pub fn wire_size(&self) -> usize {
        match self {
            RtcpPacket::Report(_) => REPORT_WIRE,
            RtcpPacket::Fir { .. } => FIR_WIRE,
            RtcpPacket::Nack { .. } => NACK_WIRE,
        }
    }
}

/// Minimum spacing between two FIRs of one receiver: long enough that a
/// starved receiver does not force keyframes worth seconds of bitrate
/// budget, short enough that decode recovery does not add whole seconds of
/// freeze.
/// fitted: unattributed.
pub const FIR_HOLDOFF: SimDuration = SimDuration::from_millis(1000);

/// Tracks FIR issuance with a hold-off ([`FIR_HOLDOFF`]) so a stalled
/// receiver does not flood the sender (WebRTC enforces a similar minimum
/// spacing).
#[derive(Debug, Clone, Default)]
pub struct FirTracker {
    last_sent: Option<SimTime>,
    /// Total FIRs issued (the Fig 3b metric).
    pub count: u64,
}

impl FirTracker {
    /// Request a FIR at `now`; returns the message if the hold-off allows it.
    pub fn request(&mut self, now: SimTime, ssrc: u32) -> Option<RtcpPacket> {
        let allowed = self
            .last_sent
            .map(|t| now.saturating_since(t) >= FIR_HOLDOFF)
            .unwrap_or(true);
        if allowed {
            self.last_sent = Some(now);
            self.count += 1;
            Some(RtcpPacket::Fir {
                ssrc,
                issued_at: now,
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_are_plausible() {
        let rr = RtcpPacket::Report(ReceiverReport {
            ssrc: 1,
            loss_fraction: 0.0,
            receive_rate_mbps: 1.0,
            one_way_delay_ms: 20.0,
            max_requested_width: 1280,
            call_size: 2,
        });
        assert!(rr.wire_size() > 40 && rr.wire_size() < 200);
        let fir = RtcpPacket::Fir {
            ssrc: 1,
            issued_at: SimTime::ZERO,
        };
        assert!(fir.wire_size() > 40 && fir.wire_size() < 100);
    }

    #[test]
    fn fir_holdoff_suppresses_floods() {
        let mut t = FirTracker::default();
        assert!(t.request(SimTime::from_millis(0), 1).is_some());
        assert!(t.request(SimTime::from_millis(100), 1).is_none());
        assert!(t.request(SimTime::from_millis(999), 1).is_none());
        assert!(t.request(SimTime::from_millis(1000), 1).is_some());
        assert_eq!(t.count, 2);
    }
}
