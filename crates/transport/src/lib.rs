//! # vcabench-transport
//!
//! Transport-layer models for vcabench: RTP media packets and session state,
//! RTCP receiver reports and FIR tracking, and a TCP implementation with
//! CUBIC congestion control (also YouTube's one long-lived QUIC connection:
//! a CUBIC `Connection`, unpaced).
//!
//! Everything here is a pure state machine — no I/O, no timers of its own —
//! driven by the simulation agents in `vcabench-vca` and `vcabench-apps`.
//!
//! Every number is a named constant whose doc ends in its source
//! (`published:`, `fitted:` or `engineering:`, as in `vcabench-congestion`).
//! A TCP connection has no settings: [`TcpConfig`] has no fields, and every
//! value a connection uses is a constant of [`tcp`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rtcp;
pub mod rtp;
pub mod tcp;
pub mod wire;

pub use rtcp::{FirTracker, ReceiverReport, RtcpPacket};
pub use rtp::{FrameMeta, IntervalStats, Layer, RtpPacket, RtpRecvState, RtpSendState, StreamKind};
pub use tcp::{Connection, SendAction, TcpConfig, TcpReceiver, TcpStats};
pub use wire::{SignalMsg, TcpSegment, Wire, RTP_HEADER, RTP_PAYLOAD, TCP_OVERHEAD, UDP_OVERHEAD};

#[cfg(test)]
mod closed_loop {
    //! End-to-end sanity: a TCP connection over an in-test bottleneck link
    //! must fill the pipe, recover from loss, and stay stable.

    use super::*;
    use std::collections::VecDeque;
    use vcabench_simcore::{SimDuration, SimTime};

    /// Minimal FIFO bottleneck: serializes at `rate_bps`, queues up to
    /// `queue_bytes`, delivers after `delay`.
    struct Pipe {
        rate_bps: f64,
        delay: SimDuration,
        queue_bytes: usize,
        queued: VecDeque<(SimTime, u64, usize)>, // (ready_at, seq, len)
        busy_until: SimTime,
        backlog: usize,
        pub drops: u64,
    }

    impl Pipe {
        fn new(rate_mbps: f64) -> Self {
            Pipe {
                rate_bps: rate_mbps * 1e6,
                delay: SimDuration::from_millis(10),
                queue_bytes: 32 * 1024,
                queued: VecDeque::new(),
                busy_until: SimTime::ZERO,
                backlog: 0,
                drops: 0,
            }
        }

        fn offer(&mut self, now: SimTime, seq: u64, len: usize, wire: usize) {
            if self.backlog + wire > self.queue_bytes {
                self.drops += 1;
                return;
            }
            self.backlog += wire;
            let start = self.busy_until.max(now);
            let tx = vcabench_simcore::transmission_time(wire, self.rate_bps);
            self.busy_until = start + tx;
            self.queued
                .push_back((self.busy_until + self.delay, seq, len));
        }

        fn deliver_due(&mut self, now: SimTime) -> Vec<(u64, usize)> {
            let mut out = Vec::new();
            while let Some(&(ready, seq, len)) = self.queued.front() {
                if ready <= now {
                    self.queued.pop_front();
                    self.backlog -= len + TCP_OVERHEAD;
                    out.push((seq, len));
                } else {
                    break;
                }
            }
            out
        }
    }

    #[test]
    fn cubic_fills_a_2mbps_pipe() {
        let mut conn = Connection::new(TcpConfig, None);
        let mut recv = TcpReceiver::new();
        let mut pipe = Pipe::new(2.0);
        let mut acks: VecDeque<(SimTime, u64)> = VecDeque::new(); // (arrive, ack)
        let tick = SimDuration::from_millis(5);
        let mut now = SimTime::ZERO;
        let horizon = SimTime::from_secs(30);
        while now < horizon {
            now += tick;
            // Ack channel (no bottleneck, 10 ms delay).
            while let Some(&(t, a)) = acks.front() {
                if t <= now {
                    acks.pop_front();
                    for s in conn.on_ack(now, a) {
                        pipe.offer(now, s.seq, s.len, s.len + TCP_OVERHEAD);
                    }
                } else {
                    break;
                }
            }
            for s in conn.poll(now) {
                pipe.offer(now, s.seq, s.len, s.len + TCP_OVERHEAD);
            }
            for (seq, len) in pipe.deliver_due(now) {
                let ack = recv.on_segment(seq, len);
                acks.push_back((now + SimDuration::from_millis(10), ack));
            }
        }
        let goodput_mbps = recv.bytes_received as f64 * 8.0 / 30.0 / 1e6;
        assert!(
            goodput_mbps > 1.6 && goodput_mbps <= 2.05,
            "goodput {goodput_mbps} Mbps on a 2 Mbps pipe"
        );
        assert!(pipe.drops > 0, "CUBIC must probe into loss");
        assert!(
            conn.stats.fast_retransmits > 0,
            "loss should be recovered via fast retransmit"
        );
        assert!(
            conn.stats.timeouts <= 3,
            "steady state should rarely RTO, got {}",
            conn.stats.timeouts
        );
    }

    #[test]
    fn two_connections_share_a_pipe() {
        // Not a strict fairness theorem — just both must make real progress.
        let mut c1 = Connection::new(TcpConfig, None);
        let mut c2 = Connection::new(TcpConfig, None);
        let mut r1 = TcpReceiver::new();
        let mut r2 = TcpReceiver::new();
        let mut pipe = Pipe::new(2.0);
        // Tag flows by odd/even shifted seq: use conn id in the seq's high bit.
        const F2: u64 = 1 << 60;
        let mut acks: VecDeque<(SimTime, u64, u8)> = VecDeque::new();
        let tick = SimDuration::from_millis(5);
        let mut now = SimTime::ZERO;
        while now < SimTime::from_secs(40) {
            now += tick;
            while let Some(&(t, a, which)) = acks.front() {
                if t > now {
                    break;
                }
                acks.pop_front();
                let outs = if which == 1 {
                    c1.on_ack(now, a)
                } else {
                    c2.on_ack(now, a)
                };
                for s in outs {
                    let tag = if which == 1 { 0 } else { F2 };
                    pipe.offer(now, s.seq | tag, s.len, s.len + TCP_OVERHEAD);
                }
            }
            for s in c1.poll(now) {
                pipe.offer(now, s.seq, s.len, s.len + TCP_OVERHEAD);
            }
            for s in c2.poll(now) {
                pipe.offer(now, s.seq | F2, s.len, s.len + TCP_OVERHEAD);
            }
            for (seq, len) in pipe.deliver_due(now) {
                if seq & F2 == 0 {
                    let ack = r1.on_segment(seq, len);
                    acks.push_back((now + SimDuration::from_millis(10), ack, 1));
                } else {
                    let ack = r2.on_segment(seq & !F2, len);
                    acks.push_back((now + SimDuration::from_millis(10), ack, 2));
                }
            }
        }
        let g1 = r1.bytes_received as f64 * 8.0 / 40.0 / 1e6;
        let g2 = r2.bytes_received as f64 * 8.0 / 40.0 / 1e6;
        assert!(g1 + g2 > 1.5, "combined goodput {g1}+{g2}");
        assert!(g1 > 0.3 && g2 > 0.3, "both progress: {g1} vs {g2}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use vcabench_simcore::SimTime;

    proptest! {
        /// The receiver's cumulative ack never decreases and bytes_received
        /// equals the ack point, for any arrival order of a contiguous
        /// segment sequence.
        #[test]
        fn receiver_ack_monotone(order in proptest::sample::subsequence((0usize..30).collect::<Vec<_>>(), 1..30)) {
            let mut r = TcpReceiver::new();
            let mut last = 0u64;
            for &i in &order {
                let ack = r.on_segment(i as u64 * 100, 100);
                prop_assert!(ack >= last);
                last = ack;
            }
            prop_assert_eq!(r.bytes_received, last);
        }

        /// RTP receive state: for an arbitrary strictly-increasing delivered
        /// subset, one interval's received + lost == span of sequence
        /// numbers seen.
        #[test]
        fn rtp_loss_accounting(delivered in proptest::collection::btree_set(0u64..500, 1..200)) {
            let mut r = RtpRecvState::new();
            for &seq in &delivered {
                let pkt = RtpPacket {
                    ssrc: 1, seq, kind: StreamKind::Video, layer: Layer::default(),
                    frame_id: 0, marker: false, frame_pkts: 1, is_fec: false, is_retransmit: false,
                    capture_ts: SimTime::ZERO, meta: None,
                };
                r.on_packet(SimTime::from_millis(seq), &pkt, 100);
            }
            let first = *delivered.iter().next().unwrap();
            let last = *delivered.iter().last().unwrap();
            let span = last - first + 1;
            let s = r.take_interval();
            prop_assert_eq!(s.received + s.lost, span);
        }
    }
}
