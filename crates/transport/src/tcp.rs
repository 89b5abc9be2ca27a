//! TCP with CUBIC congestion control.
//!
//! The competition experiments (§5) pit the VCAs against a long iPerf3 TCP
//! flow ("The iPerf3 server uses TCP CUBIC"), against Netflix (many parallel
//! TCP connections), and against YouTube (QUIC, which the referenced study
//! shows behaves CUBIC-like for fairness purposes). This module implements
//! the sender ([`Connection`]) and receiver ([`TcpReceiver`]) halves as pure
//! state machines: the owning simulation agent moves [`SendAction`]s and
//! acks across the network and calls [`Connection::poll`] on a timer.
//!
//! Loss recovery is deliberately simple but faithful in its dynamics:
//! slow start, CUBIC congestion avoidance (with the TCP-friendly region),
//! fast retransmit on three duplicate ACKs (window ×0.7), and go-back-N on
//! retransmission timeout (window to 1 MSS, exponential RTO backoff).
//!
//! Neither half allocates per segment: the sender keeps its in-flight
//! segments in a deque in `seq` order and hands [`Connection::on_ack`]'s
//! segments out of a reused buffer, and the receiver buffers out-of-order
//! segments in a sorted `Vec` that keeps its capacity across loss episodes.
//! The one exception is [`Connection::poll`], which returns a fresh `Vec`
//! whenever it sends.
//!
//! Every number is a tagged constant of this module: CUBIC's and the RTO
//! estimator's are `published:` (RFC 8312, RFC 6298), the sender's own
//! choices `fitted: unattributed`.

use std::collections::VecDeque;

use vcabench_simcore::{SimDuration, SimTime};

/// Maximum segment size, payload bytes.
/// fitted: unattributed.
pub const MSS: usize = 1200;
/// Initial congestion window, segments.
/// fitted: unattributed.
pub const INIT_CWND: f64 = 10.0;
/// Initial slow-start threshold, segments. Modern stacks bound the
/// initial exponential burst (route caching / HyStart); unbounded slow
/// start overshoots drop-tail queues by a whole window and the cumulative
/// -ACK recovery here (no SACK) pays one RTT per lost segment.
/// fitted: unattributed.
pub const INIT_SSTHRESH: f64 = 45.0;
/// Consecutive holes retransmitted per partial ACK during recovery — a
/// cumulative-ACK approximation of SACK-based loss recovery.
/// fitted: unattributed.
pub const RECOVERY_BURST: usize = 4;
/// Minimum retransmission timeout: 300 ms rather than Linux's 200 ms (or
/// RFC 6298's 1 s). The simulated access queues can add >200 ms of bloat
/// within one RTT of slow-start overshoot, which would fire spurious
/// timeouts before the RTT estimator catches up (real stacks mitigate this
/// with F-RTO).
/// fitted: unattributed.
pub const MIN_RTO: SimDuration = SimDuration::from_millis(300);
/// Retransmission timeout before the first RTT sample.
/// published: RFC 6298, the initial RTO.
pub const INITIAL_RTO: SimDuration = SimDuration::from_millis(1000);
/// Ceiling on the retransmission timeout.
/// published: RFC 6298, a maximum of at least 60 s.
pub const MAX_RTO: SimDuration = SimDuration::from_secs(60);
/// Weight of a new RTT sample in the smoothed RTT (α).
/// published: RFC 6298.
pub const SRTT_GAIN: f64 = 0.125;
/// Weight of a new deviation in the RTT variation (β).
/// published: RFC 6298.
pub const RTTVAR_GAIN: f64 = 0.25;
/// Multiple of the RTT variation the timeout adds to the smoothed RTT (K).
/// published: RFC 6298.
pub const RTTVAR_WEIGHT: f64 = 4.0;
/// Successive timeouts after which the peer counts as gone; the timeout
/// stops doubling there too.
/// engineering: a cap on the exponential backoff.
pub const MAX_BACKOFFS: u32 = 6;
/// CUBIC β (multiplicative decrease factor).
/// published: RFC 8312.
pub const BETA: f64 = 0.7;
/// CUBIC C (aggressiveness constant).
/// published: RFC 8312.
pub const CUBIC_C: f64 = 0.4;
/// The 3 of the TCP-friendly region's window, `3(1 − β)/(1 + β) · t/RTT`.
/// published: RFC 8312.
pub const FRIENDLY_FACTOR: f64 = 3.0;
/// RTT the CUBIC curve assumes before the first sample, seconds.
/// engineering: a fallback.
pub const FALLBACK_RTT_S: f64 = 0.1;
/// Growth per acknowledged segment, × 1 / cwnd, while the CUBIC target is
/// below the window.
/// engineering: keeps the window from standing still.
pub const PLATEAU_GROWTH: f64 = 0.01;
/// Largest congestion window, segments.
/// engineering: a cap.
pub const MAX_CWND: f64 = 10_000.0;

/// What a [`Connection`]'s owner chooses: nothing, since every value is a
/// constant of this module. The type stays only because the benchmark
/// surface names it in `Connection::new`; ROADMAP item 10, which unfreezes
/// that surface, deletes it.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpConfig;

/// A segment the connection wants transmitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendAction {
    /// First byte offset of the segment.
    pub seq: u64,
    /// Payload length, bytes.
    pub len: usize,
    /// True when this is a retransmission.
    pub retransmit: bool,
}

/// Lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpStats {
    /// Fast retransmits triggered.
    pub fast_retransmits: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// Total segments emitted (including retransmissions).
    pub segments_sent: u64,
}

/// Sender half of a TCP connection.
///
/// ```
/// use vcabench_simcore::SimTime;
/// use vcabench_transport::tcp::{Connection, TcpConfig, TcpReceiver};
///
/// let mut tx = Connection::new(TcpConfig, Some(30_000));
/// let mut rx = TcpReceiver::new();
/// let mut now = SimTime::ZERO;
/// let mut wire = tx.poll(now);
/// while !tx.done() {
///     now = now + vcabench_simcore::SimDuration::from_millis(20);
///     let acks: Vec<u64> = wire.drain(..).map(|s| rx.on_segment(s.seq, s.len)).collect();
///     for a in acks {
///         wire.extend(tx.on_ack(now, a));
///     }
///     wire.extend(tx.poll(now));
/// }
/// assert_eq!(rx.bytes_received, 30_000);
/// ```
#[derive(Debug, Clone)]
pub struct Connection {
    /// Next never-sent byte.
    next_new_seq: u64,
    /// Lowest unacknowledged byte.
    snd_una: u64,
    /// Total bytes the application will send (`None` = unbounded, iPerf3).
    app_total: Option<u64>,
    /// Congestion window, segments.
    cwnd: f64,
    ssthresh: f64,
    // CUBIC state.
    w_max: f64,
    epoch_start: Option<SimTime>,
    // RTT estimation (RFC 6298).
    srtt: Option<f64>,
    rttvar: f64,
    rto: SimDuration,
    rto_backoff: u32,
    /// In-flight segments `(seq, len, time sent, was retransmitted)`, in
    /// ascending `seq`: a new segment starts at `next_new_seq`, above every
    /// one in flight (a timeout empties the deque before it rewinds
    /// `next_new_seq`), so sends push to the back, cumulative ACKs pop from
    /// the front and retransmissions rewrite in place.
    sent: VecDeque<(u64, usize, SimTime, bool)>,
    /// What [`Connection::on_ack`] hands out, kept for its allocation.
    out: Vec<SendAction>,
    dup_acks: u32,
    /// In fast recovery until `snd_una` passes this sequence.
    recovery_end: Option<u64>,
    /// Lifetime counters.
    pub stats: TcpStats,
}

impl Connection {
    /// New connection. `app_total` bounds the bytes to send (None = endless).
    pub fn new(_: TcpConfig, app_total: Option<u64>) -> Self {
        Connection {
            next_new_seq: 0,
            snd_una: 0,
            app_total,
            cwnd: INIT_CWND,
            ssthresh: INIT_SSTHRESH,
            w_max: 0.0,
            epoch_start: None,
            srtt: None,
            rttvar: 0.0,
            rto: INITIAL_RTO,
            rto_backoff: 0,
            sent: VecDeque::new(),
            out: Vec::new(),
            dup_acks: 0,
            recovery_end: None,
            stats: TcpStats::default(),
        }
    }

    /// Add more application bytes to a bounded connection.
    pub fn enqueue(&mut self, bytes: u64) {
        if let Some(t) = self.app_total.as_mut() {
            *t += bytes;
        }
    }

    /// Congestion window in segments (diagnostics).
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Bytes acknowledged so far.
    pub fn bytes_acked(&self) -> u64 {
        self.snd_una
    }

    /// True once every application byte is acknowledged.
    pub fn done(&self) -> bool {
        self.app_total == Some(self.snd_una)
    }

    /// True when the peer has stopped responding (successive exponential
    /// RTO backoffs exhausted) — the sender should tear the connection down
    /// rather than retransmit forever (an abandoned Netflix range request).
    pub fn abandoned(&self) -> bool {
        self.rto_backoff >= MAX_BACKOFFS
    }

    /// Smoothed RTT estimate, if measured.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt.map(SimDuration::from_secs_f64)
    }

    fn in_flight_segments(&self) -> f64 {
        self.sent.len() as f64
    }

    fn available_bytes(&self) -> u64 {
        match self.app_total {
            Some(total) => total.saturating_sub(self.next_new_seq),
            None => u64::MAX,
        }
    }

    fn update_rtt(&mut self, sample_s: f64) {
        match self.srtt {
            None => {
                self.srtt = Some(sample_s);
                self.rttvar = sample_s / 2.0;
            }
            Some(srtt) => {
                self.rttvar =
                    (1.0 - RTTVAR_GAIN) * self.rttvar + RTTVAR_GAIN * (srtt - sample_s).abs();
                self.srtt = Some((1.0 - SRTT_GAIN) * srtt + SRTT_GAIN * sample_s);
            }
        }
        let rto_s = self.srtt.unwrap() + RTTVAR_WEIGHT * self.rttvar;
        self.rto = SimDuration::from_secs_f64(rto_s).max(MIN_RTO).min(MAX_RTO);
        self.rto_backoff = 0;
    }

    fn cubic_k(&self) -> f64 {
        (self.w_max * (1.0 - BETA) / CUBIC_C).cbrt()
    }

    fn grow_window(&mut self, now: SimTime, acked_segments: f64) {
        if self.recovery_end.is_some() {
            return; // no growth during fast recovery
        }
        if self.cwnd < self.ssthresh {
            // Slow start, capped at ssthresh.
            self.cwnd = (self.cwnd + acked_segments).min(self.ssthresh);
            return;
        }
        // CUBIC (RFC 8312).
        let epoch = *self.epoch_start.get_or_insert(now);
        let srtt = self.srtt.unwrap_or(FALLBACK_RTT_S);
        let t = now.saturating_since(epoch).as_secs_f64() + srtt;
        let k = self.cubic_k();
        let w_cubic = CUBIC_C * (t - k).powi(3) + self.w_max;
        // TCP-friendly region (RFC 8312 §4.2).
        let w_est = self.w_max * BETA + FRIENDLY_FACTOR * (1.0 - BETA) / (1.0 + BETA) * (t / srtt);
        let target = w_cubic.max(w_est);
        if target > self.cwnd {
            self.cwnd += (target - self.cwnd) / self.cwnd * acked_segments;
        } else {
            self.cwnd += PLATEAU_GROWTH * acked_segments / self.cwnd;
        }
        self.cwnd = self.cwnd.min(MAX_CWND);
    }

    fn enter_loss_recovery(&mut self, now: SimTime) {
        self.w_max = self.cwnd;
        self.ssthresh = (self.cwnd * BETA).max(2.0);
        self.cwnd = self.ssthresh;
        self.epoch_start = None;
        self.recovery_end = Some(self.next_new_seq);
        self.stats.fast_retransmits += 1;
        let _ = now;
    }

    /// Process a cumulative acknowledgement. Yields the segments to
    /// transmit, out of a buffer the connection keeps.
    pub fn on_ack(&mut self, now: SimTime, ack: u64) -> std::vec::Drain<'_, SendAction> {
        let mut out = std::mem::take(&mut self.out);
        if ack > self.snd_una {
            // New data acknowledged.
            let mut acked_segments = 0.0;
            let mut rtt_sample: Option<f64> = None;
            while let Some(&(seq, _, sent_at, retx)) = self.sent.front() {
                if seq >= ack {
                    break;
                }
                self.sent.pop_front();
                acked_segments += 1.0;
                if !retx {
                    rtt_sample = Some(now.saturating_since(sent_at).as_secs_f64());
                }
            }
            if let Some(s) = rtt_sample {
                self.update_rtt(s);
            }
            self.snd_una = ack;
            self.dup_acks = 0;
            if let Some(end) = self.recovery_end {
                if ack >= end {
                    self.recovery_end = None;
                } else {
                    // NewReno partial ACK: the following holes are known lost
                    // too. Retransmit a small burst of the oldest unacked
                    // segments (a cumulative-ACK stand-in for SACK recovery)
                    // instead of paying one RTT per hole.
                    for seg in self.sent.iter_mut().take(RECOVERY_BURST) {
                        out.push(retransmit(seg, now));
                        self.stats.segments_sent += 1;
                    }
                }
            }
            self.grow_window(now, acked_segments);
        } else if ack == self.snd_una && !self.sent.is_empty() {
            self.dup_acks += 1;
            if self.dup_acks == 3 && self.recovery_end.is_none() {
                self.enter_loss_recovery(now);
                // Retransmit the first unacked segment.
                if let Some(seg) = self.sent.front_mut() {
                    out.push(retransmit(seg, now));
                    self.stats.segments_sent += 1;
                }
            }
        }
        self.send_permitted(now, &mut out);
        self.out = out;
        self.out.drain(..)
    }

    /// Periodic maintenance: RTO detection and (re)filling the window.
    /// Call every few milliseconds.
    pub fn poll(&mut self, now: SimTime) -> Vec<SendAction> {
        if let Some(&(_, _, sent_at, _)) = self.sent.front() {
            let effective_rto = self.rto * 2u64.pow(self.rto_backoff.min(MAX_BACKOFFS));
            if now.saturating_since(sent_at) >= effective_rto {
                // Timeout: collapse the window and go back N.
                self.stats.timeouts += 1;
                self.w_max = self.cwnd;
                self.ssthresh = (self.cwnd * 0.5).max(2.0);
                self.cwnd = 1.0;
                self.epoch_start = None;
                self.recovery_end = None;
                self.dup_acks = 0;
                self.rto_backoff += 1;
                self.sent.clear();
                self.next_new_seq = self.snd_una;
            }
        }
        let mut out = Vec::new();
        self.send_permitted(now, &mut out);
        out
    }

    /// Fill the window with new data, appending the segments to `out`.
    fn send_permitted(&mut self, now: SimTime, out: &mut Vec<SendAction>) {
        while self.in_flight_segments() < self.cwnd.floor() && self.available_bytes() > 0 {
            let len = (MSS as u64).min(self.available_bytes()) as usize;
            let seq = self.next_new_seq;
            self.sent.push_back((seq, len, now, false));
            self.next_new_seq += len as u64;
            self.stats.segments_sent += 1;
            out.push(SendAction {
                seq,
                len,
                retransmit: false,
            });
        }
    }
}

/// Mark the in-flight segment `seg` as resent at `now`.
fn retransmit(seg: &mut (u64, usize, SimTime, bool), now: SimTime) -> SendAction {
    let (seq, len, sent_at, retx) = seg;
    (*sent_at, *retx) = (now, true);
    SendAction {
        seq: *seq,
        len: *len,
        retransmit: true,
    }
}

/// Receiver half: cumulative acknowledgements with out-of-order buffering.
#[derive(Debug, Clone, Default)]
pub struct TcpReceiver {
    expected: u64,
    /// Segments past a hole, `(seq, len)` sorted by `seq`, one per `seq`.
    /// Drained, not dropped, so it keeps its capacity across loss episodes.
    ooo: Vec<(u64, usize)>,
    /// Total in-order bytes delivered to the application.
    pub bytes_received: u64,
}

impl TcpReceiver {
    /// Fresh receiver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest a data segment; returns the cumulative ACK to send back.
    pub fn on_segment(&mut self, seq: u64, len: usize) -> u64 {
        let end = seq + len as u64;
        if self.ooo.is_empty() && seq <= self.expected {
            // In order (or a duplicate) with nothing buffered behind it.
            self.advance_to(end);
            return self.expected;
        }
        if end > self.expected {
            // A repeated `seq` replaces its length, as a map insert would.
            match self.ooo.binary_search_by_key(&seq, |&(s, _)| s) {
                Ok(i) => self.ooo[i].1 = len,
                Err(i) => self.ooo.insert(i, (seq, len)),
            }
        }
        // Advance over any now-contiguous buffered segments.
        let mut k = 0;
        while let Some(&(s, l)) = self.ooo.get(k) {
            if s > self.expected {
                break;
            }
            self.advance_to(s + l as u64);
            k += 1;
        }
        self.ooo.drain(..k);
        self.expected
    }

    /// Deliver the bytes up to `end`, if it is past the ACK point.
    fn advance_to(&mut self, end: u64) {
        if end > self.expected {
            self.bytes_received += end - self.expected;
            self.expected = end;
        }
    }

    /// Next expected byte (the cumulative ACK value).
    pub fn expected(&self) -> u64 {
        self.expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receiver_cumulative_and_ooo() {
        let mut r = TcpReceiver::new();
        assert_eq!(r.on_segment(0, 100), 100);
        assert_eq!(r.on_segment(200, 100), 100, "gap: ack stays");
        assert_eq!(r.on_segment(100, 100), 300, "gap filled: ack jumps");
        assert_eq!(r.bytes_received, 300);
        // Duplicate does nothing.
        assert_eq!(r.on_segment(0, 100), 300);
        assert_eq!(r.bytes_received, 300);
    }

    #[test]
    fn a_repeated_buffered_seq_keeps_its_latest_length() {
        let mut r = TcpReceiver::new();
        assert_eq!(r.on_segment(200, 300), 0);
        assert_eq!(r.on_segment(400, 100), 0);
        // The same seq again, shorter: it replaces the buffered length.
        assert_eq!(r.on_segment(200, 50), 0);
        assert_eq!(r.on_segment(0, 200), 250, "only the latest 50 bytes count");
        assert_eq!(r.on_segment(250, 150), 500, "then the segment at 400 joins");
        assert_eq!(r.bytes_received, 500);
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut c = Connection::new(TcpConfig, None);
        let t0 = SimTime::ZERO;
        let first = c.poll(t0);
        assert_eq!(first.len(), 10, "initial window");
        // Ack everything after 50 ms: cwnd should grow by the acked count.
        let acked = first.iter().map(|s| s.len as u64).sum::<u64>();
        let more = c.on_ack(SimTime::from_millis(50), acked).len();
        assert!(c.cwnd() >= 19.0, "cwnd {}", c.cwnd());
        assert!(more >= 19, "window refill {more} segments");
    }

    #[test]
    fn fast_retransmit_on_three_dupacks() {
        let mut c = Connection::new(TcpConfig, None);
        let t0 = SimTime::ZERO;
        let segs = c.poll(t0);
        assert!(segs.len() >= 4);
        let cwnd_before = c.cwnd();
        // Three duplicate ACKs for seq 0.
        let mut retx = Vec::new();
        for i in 1..=3u64 {
            retx = c.on_ack(SimTime::from_millis(i * 10), 0).collect();
        }
        assert_eq!(c.stats.fast_retransmits, 1);
        assert!(retx.iter().any(|s| s.retransmit && s.seq == 0));
        assert!(c.cwnd() < cwnd_before, "cwnd cut by beta");
        assert!((c.cwnd() - cwnd_before * 0.7).abs() < 1e-6);
    }

    #[test]
    fn rto_collapses_window_and_goes_back_n() {
        let mut c = Connection::new(TcpConfig, None);
        c.poll(SimTime::ZERO);
        // No acks for 5 seconds → timeout.
        let again = c.poll(SimTime::from_secs(5));
        assert_eq!(c.stats.timeouts, 1);
        assert!((c.cwnd() - 1.0).abs() < 1e-9);
        assert_eq!(again.len(), 1, "only one segment in flight after RTO");
        assert_eq!(again[0].seq, 0, "go-back-N restarts at snd_una");
    }

    #[test]
    fn bounded_transfer_completes() {
        let mut c = Connection::new(TcpConfig, Some(5000));
        let mut r = TcpReceiver::new();
        let mut now = SimTime::ZERO;
        let mut to_send = c.poll(now);
        let mut guard = 0;
        while !c.done() {
            guard += 1;
            assert!(guard < 1000, "transfer must terminate");
            now += SimDuration::from_millis(10);
            let mut acks = Vec::new();
            for s in to_send.drain(..) {
                acks.push(r.on_segment(s.seq, s.len));
            }
            let mut next = Vec::new();
            for a in acks {
                next.extend(c.on_ack(now, a));
            }
            next.extend(c.poll(now));
            to_send = next;
        }
        assert_eq!(c.bytes_acked(), 5000);
        assert_eq!(r.bytes_received, 5000);
    }

    #[test]
    fn cubic_window_grows_concave_then_convex() {
        let mut c = Connection::new(TcpConfig, None);
        // Prime: establish an RTT long enough that the cubic region (not the
        // TCP-friendly Reno bound) governs growth, and a known w_max.
        c.poll(SimTime::ZERO);
        c.on_ack(SimTime::from_millis(300), 1200 * 10);
        // Force congestion avoidance with a known w_max.
        c.w_max = 100.0;
        c.ssthresh = 70.0;
        c.cwnd = 70.0;
        c.epoch_start = None;
        let mut deltas = Vec::new();
        let mut prev = c.cwnd();
        for i in 0..200 {
            let now = SimTime::from_millis(100 + i * 100);
            c.grow_window(now, 10.0);
            deltas.push(c.cwnd() - prev);
            prev = c.cwnd();
        }
        // Concave first (slowing into the w_max plateau around t=K≈4.2 s),
        // convex later (accelerating past it).
        let early: f64 = deltas[..10].iter().sum();
        let plateau: f64 = deltas[35..45].iter().sum();
        let late: f64 = deltas[120..130].iter().sum();
        assert!(
            early > plateau,
            "growth slows near w_max: early {early} plateau {plateau}"
        );
        assert!(
            late > plateau,
            "growth accelerates past plateau: late {late} plateau {plateau}"
        );
    }

    #[test]
    fn rtt_estimation_reasonable() {
        let mut c = Connection::new(TcpConfig, None);
        let segs = c.poll(SimTime::ZERO);
        let bytes: u64 = segs.iter().map(|s| s.len as u64).sum();
        c.on_ack(SimTime::from_millis(80), bytes);
        let srtt = c.srtt().expect("measured");
        assert_eq!(srtt.as_millis(), 80);
    }

    /// After a timeout rewinds to `snd_una`, the ACK for the resent head
    /// can cover everything the receiver had buffered — and go-back-N then
    /// resends those bytes from below the new `snd_una`.
    #[test]
    #[ignore = "ROADMAP item 4: go-back-N resend; the fix moves competition goldens"]
    fn go_back_n_never_resends_acknowledged_bytes() {
        let mut c = Connection::new(TcpConfig, Some(60_000));
        let mut r = TcpReceiver::new();
        let first = c.poll(SimTime::ZERO);
        // The head is lost, the rest buffered; no ACK makes it back.
        for s in &first[1..] {
            r.on_segment(s.seq, s.len);
        }
        let mut now = SimTime::from_secs(2);
        let mut wire = c.poll(now);
        assert_eq!((c.stats.timeouts, wire.len()), (1, 1), "the head alone");
        while !c.done() {
            now += SimDuration::from_millis(10);
            let mut next = Vec::new();
            for s in wire.drain(..) {
                let ack = r.on_segment(s.seq, s.len);
                let sent: Vec<_> = c.on_ack(now, ack).collect();
                let una = c.bytes_acked();
                for s in &sent {
                    assert!(s.seq >= una, "sent {} below snd_una {una}", s.seq);
                }
                next.extend(sent);
            }
            next.extend(c.poll(now));
            wire = next;
        }
    }

    #[test]
    fn karn_ignores_retransmitted_samples() {
        let mut c = Connection::new(TcpConfig, None);
        c.poll(SimTime::ZERO);
        for i in 1..=3u64 {
            c.on_ack(SimTime::from_millis(i), 0); // dupacks → retransmit seq 0
        }
        // Ack only the retransmitted segment much later; srtt must not be
        // polluted by the ambiguous sample.
        c.on_ack(SimTime::from_secs(10), 1200);
        assert!(c.srtt().is_none() || c.srtt().unwrap() < SimDuration::from_secs(5));
    }
}
