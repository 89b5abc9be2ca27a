//! Differential test: the sender and receiver against the `BTreeMap`
//! implementations they replaced, kept verbatim below as the oracle.
//!
//! [`Connection`] keeps its in-flight segments in a deque and yields
//! [`Connection::on_ack`]'s segments from a reused buffer; [`TcpReceiver`]
//! takes an in-order segment without touching its out-of-order map. Neither
//! may change what a connection does. Proptest drives both pairs through
//! the same transfer — segments delivered out of order or lost, ACKs
//! reordered and duplicated, stalls long enough for timeouts (and the
//! go-back-N that follows them), application bytes enqueued on bounded
//! connections, stray overlapping segments at the receiver — and after
//! every step the two must agree on the segments emitted, `cwnd()` to the
//! bit, `srtt()`, `stats`, the ACK point and `bytes_received`.

use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRng};
use vcabench_simcore::{SimDuration, SimTime};
use vcabench_transport::tcp::{Connection, SendAction, TcpConfig, TcpReceiver};

/// One step of a transfer. `pick` indexes what is in flight, counted from
/// the oldest, so a non-zero pick reorders.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// The sender's timer tick.
    Poll { after_ms: u64 },
    /// A data segment in flight reaches the receiver, which ACKs it.
    Deliver { pick: usize, after_ms: u64 },
    /// A data segment in flight is lost.
    Lose { pick: usize },
    /// An ACK in flight reaches the sender.
    Ack { pick: usize, after_ms: u64 },
    /// The last ACK the sender saw arrives again.
    DupAck,
    /// Nothing arrives for whole seconds, then the timer ticks: timeouts.
    Stall { secs: u64 },
    /// The application hands a bounded connection more bytes.
    Enqueue { bytes: u64 },
    /// A segment within what the sender has sent so far, at an arbitrary
    /// offset and length (overlaps and duplicates at the receiver).
    Stray { at: u64, len: u64 },
}

fn decode(raw: u64) -> Op {
    let arg = raw >> 8;
    let pick = (arg % 4) as usize;
    let after_ms = (arg >> 8) % 4;
    match raw % 32 {
        0..=5 => Op::Poll { after_ms: arg % 20 },
        6..=14 => Op::Deliver { pick, after_ms },
        15 | 16 => Op::Lose { pick },
        17..=24 => Op::Ack { pick, after_ms },
        25 | 26 => Op::DupAck,
        27 => Op::Stall { secs: 1 + arg % 4 },
        28 | 29 => Op::Enqueue {
            bytes: arg % 10_000,
        },
        _ => Op::Stray {
            at: arg >> 4,
            len: arg % 2_500,
        },
    }
}

/// The connection and its receiver next to their oracles, stepped in
/// lockstep over one shared network.
struct Pair {
    tx: Connection,
    tx_oracle: oracle::Connection,
    rx: TcpReceiver,
    rx_oracle: oracle::TcpReceiver,
    now: SimTime,
    /// Data segments in flight, oldest first.
    wire: Vec<SendAction>,
    /// ACKs in flight, oldest first.
    acks: Vec<u64>,
    last_ack: Option<u64>,
    /// End of the highest byte ever sent.
    high: u64,
    /// Segments emitted below the ACK point (ROADMAP item 4).
    below_una: u64,
    /// Steps after which a bounded connection had every byte ACKed.
    steps_done: u64,
}

impl Pair {
    fn new(app_total: Option<u64>) -> Self {
        Pair {
            tx: Connection::new(TcpConfig, app_total),
            tx_oracle: oracle::Connection::new(oracle::TcpConfig::default(), app_total),
            rx: TcpReceiver::new(),
            rx_oracle: oracle::TcpReceiver::new(),
            now: SimTime::ZERO,
            wire: Vec::new(),
            acks: Vec::new(),
            last_ack: None,
            high: 0,
            below_una: 0,
            steps_done: 0,
        }
    }

    /// Both senders emitted these; they must be the same segments.
    fn emitted(
        &mut self,
        got: Vec<SendAction>,
        want: Vec<SendAction>,
        what: &str,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(&got, &want, "{} emitted different segments", what);
        for s in &got {
            self.high = self.high.max(s.seq + s.len as u64);
            self.below_una += (s.seq < self.tx.bytes_acked()) as u64;
        }
        self.wire.extend(got);
        Ok(())
    }

    fn poll(&mut self) -> Result<(), TestCaseError> {
        let got = self.tx.poll(self.now);
        let want = self.tx_oracle.poll(self.now);
        self.emitted(got, want, "poll")
    }

    fn ack(&mut self, ack: u64) -> Result<(), TestCaseError> {
        self.last_ack = Some(ack);
        let got = self.tx.on_ack(self.now, ack).collect();
        let want = self.tx_oracle.on_ack(self.now, ack);
        self.emitted(got, want, "on_ack")
    }

    fn segment(&mut self, seq: u64, len: usize) -> Result<u64, TestCaseError> {
        let ack = self.rx.on_segment(seq, len);
        prop_assert_eq!(
            ack,
            self.rx_oracle.on_segment(seq, len),
            "on_segment({}, {}) ACKed differently",
            seq,
            len
        );
        Ok(ack)
    }

    fn apply(&mut self, op: Op) -> Result<(), TestCaseError> {
        match op {
            Op::Poll { after_ms } => {
                self.now += SimDuration::from_millis(after_ms);
                self.poll()?;
            }
            Op::Deliver { pick, after_ms } => {
                self.now += SimDuration::from_millis(after_ms);
                if !self.wire.is_empty() {
                    let s = self.wire.remove(pick % self.wire.len());
                    let ack = self.segment(s.seq, s.len)?;
                    self.acks.push(ack);
                }
            }
            Op::Lose { pick } => {
                if !self.wire.is_empty() {
                    self.wire.remove(pick % self.wire.len());
                }
            }
            Op::Ack { pick, after_ms } => {
                self.now += SimDuration::from_millis(after_ms);
                if !self.acks.is_empty() {
                    let ack = self.acks.remove(pick % self.acks.len());
                    self.ack(ack)?;
                }
            }
            Op::DupAck => {
                if let Some(ack) = self.last_ack {
                    self.ack(ack)?;
                }
            }
            Op::Stall { secs } => {
                self.now += SimDuration::from_secs(secs);
                self.poll()?;
            }
            Op::Enqueue { bytes } => {
                self.tx.enqueue(bytes);
                self.tx_oracle.enqueue(bytes);
            }
            Op::Stray { at, len } => {
                if self.high > 0 {
                    let seq = at % self.high;
                    let len = len.min(self.high - seq) as usize;
                    self.segment(seq, len)?;
                }
            }
        }
        self.steps_done += self.tx.done() as u64;
        self.agree()
    }

    /// Everything observable about the four state machines agrees.
    fn agree(&self) -> Result<(), TestCaseError> {
        let (tx, old) = (&self.tx, &self.tx_oracle);
        prop_assert_eq!(tx.cwnd().to_bits(), old.cwnd().to_bits(), "cwnd");
        prop_assert_eq!(tx.srtt(), old.srtt(), "srtt");
        prop_assert_eq!(tx.stats, old.stats, "stats");
        prop_assert_eq!(tx.bytes_acked(), old.bytes_acked(), "bytes_acked");
        prop_assert_eq!(tx.done(), old.done(), "done");
        prop_assert_eq!(tx.abandoned(), old.abandoned(), "abandoned");
        let (rx, old) = (&self.rx, &self.rx_oracle);
        prop_assert_eq!(rx.expected(), old.expected(), "expected");
        prop_assert_eq!(rx.bytes_received, old.bytes_received, "bytes_received");
        Ok(())
    }
}

fn run(pair: &mut Pair, ops: impl IntoIterator<Item = Op>) -> Result<(), TestCaseError> {
    for op in ops {
        pair.apply(op)?;
    }
    Ok(())
}

/// The transfer a draw describes: `kind` picks whether the connection is
/// bounded, `raw_ops` the steps after a first poll.
fn drawn(kind: u64, raw_ops: &[u64]) -> Result<Pair, TestCaseError> {
    let app_total = (kind >> 2 & 1 == 1).then_some((kind >> 8) % 30_000);
    let mut pair = Pair::new(app_total);
    run(&mut pair, [Op::Poll { after_ms: 0 }])?;
    run(&mut pair, raw_ops.iter().map(|&r| decode(r)))?;
    Ok(pair)
}

fn scripted(pair: &mut Pair, ops: &[Op]) {
    if let Err(e) = run(pair, ops.iter().copied()) {
        panic!("{}", e.message);
    }
}

const DELIVER: Op = Op::Deliver {
    pick: 0,
    after_ms: 1,
};
const ACK: Op = Op::Ack {
    pick: 0,
    after_ms: 1,
};

/// The path ROADMAP item 4 records: a timeout rewinds `next_new_seq` to
/// `snd_una`, the resent head fills the receiver's gap, and the cumulative
/// ACK jumps past everything the sender will now resend. Both
/// implementations resend the acknowledged bytes the same way.
#[test]
fn go_back_n_past_buffered_data_matches_the_oracle() {
    let mut pair = Pair::new(Some(60_000));
    let mut ops = vec![Op::Poll { after_ms: 0 }, Op::Lose { pick: 0 }];
    ops.extend([DELIVER; 9]);
    // Nine duplicate ACKs of 0: fast retransmit, whose resend is lost too.
    ops.extend([ACK; 9]);
    ops.extend([Op::Lose { pick: 0 }, Op::Stall { secs: 2 }, DELIVER, ACK]);
    scripted(&mut pair, &ops);
    assert_eq!(pair.tx.stats.timeouts, 1);
    let acked = pair.tx.bytes_acked();
    assert!(
        acked >= 12_000,
        "the ACK covered the buffered data: {acked}"
    );
    assert!(
        pair.below_una > 0,
        "the path under test sends below snd_una"
    );
    // And the transfer still completes, identically.
    for _ in 0..400 {
        scripted(&mut pair, &[DELIVER, ACK, Op::Poll { after_ms: 5 }]);
    }
    assert!(pair.tx.done() && pair.tx_oracle.done());
}

/// The property's draws reach every recovery path it claims to cover, so
/// a passing run says something about each.
#[test]
fn the_drawn_transfers_reach_every_recovery_path() {
    let ops = proptest::collection::vec(any::<u64>(), 1..400);
    let mut rng = TestRng::seed_from_u64(26);
    let (mut fast, mut timeouts, mut below_una, mut done) = (0, 0, 0, 0);
    for _ in 0..64 {
        let kind = any::<u64>().generate(&mut rng);
        let pair = drawn(kind, &ops.generate(&mut rng)).expect("agrees");
        fast += pair.tx.stats.fast_retransmits;
        timeouts += pair.tx.stats.timeouts;
        below_una += pair.below_una;
        done += pair.steps_done;
    }
    assert!(
        fast > 0 && timeouts > 0,
        "{fast} fast retransmits, {timeouts} timeouts"
    );
    assert!(below_una > 0, "no go-back-N past buffered data");
    assert!(done > 0, "no bounded transfer ever caught up");
}

proptest! {
    #[test]
    fn connection_and_receiver_match_the_btreemap_oracle(
        kind in any::<u64>(),
        raw_ops in proptest::collection::vec(any::<u64>(), 1..400),
    ) {
        drawn(kind, &raw_ops)?;
    }
}

/// The sender and receiver as they were before the deque and the reused
/// buffers, verbatim but for this module's imports, a dropped doc example,
/// the Reno branch the product sender no longer has and a private copy of
/// the configuration it read, whose seven values are now constants of
/// `vcabench_transport::tcp`.
#[allow(dead_code)]
mod oracle {
    use std::collections::BTreeMap;

    use vcabench_simcore::{SimDuration, SimTime};
    use vcabench_transport::tcp::{SendAction, TcpStats};

    /// Connection configuration.
    #[derive(Debug, Clone)]
    pub struct TcpConfig {
        /// Maximum segment size, payload bytes.
        pub mss: usize,
        /// Initial congestion window, segments.
        pub init_cwnd: f64,
        /// Minimum retransmission timeout.
        pub min_rto: SimDuration,
        /// CUBIC β (multiplicative decrease factor).
        pub beta: f64,
        /// CUBIC C (aggressiveness constant).
        pub cubic_c: f64,
        /// Initial slow-start threshold, segments.
        pub init_ssthresh: f64,
        /// Consecutive holes retransmitted per partial ACK during recovery.
        pub recovery_burst: usize,
    }

    impl Default for TcpConfig {
        fn default() -> Self {
            TcpConfig {
                mss: 1200,
                init_cwnd: 10.0,
                min_rto: SimDuration::from_millis(300),
                beta: 0.7,
                cubic_c: 0.4,
                init_ssthresh: 45.0,
                recovery_burst: 4,
            }
        }
    }

    /// Sender half of a TCP connection.
    #[derive(Debug, Clone)]
    pub struct Connection {
        cfg: TcpConfig,
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
        /// In-flight segments: seq → (len, time sent, was retransmitted).
        sent: BTreeMap<u64, (usize, SimTime, bool)>,
        dup_acks: u32,
        /// In fast recovery until `snd_una` passes this sequence.
        recovery_end: Option<u64>,
        /// Lifetime counters.
        pub stats: TcpStats,
    }

    impl Connection {
        /// New connection. `app_total` bounds the bytes to send (None = endless).
        pub fn new(cfg: TcpConfig, app_total: Option<u64>) -> Self {
            let cwnd = cfg.init_cwnd;
            let ssthresh = cfg.init_ssthresh;
            Connection {
                cfg,
                next_new_seq: 0,
                snd_una: 0,
                app_total,
                cwnd,
                ssthresh,
                w_max: 0.0,
                epoch_start: None,
                srtt: None,
                rttvar: 0.0,
                rto: SimDuration::from_millis(1000),
                rto_backoff: 0,
                sent: BTreeMap::new(),
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
            self.rto_backoff >= 6
        }

        /// Smoothed RTT estimate, if measured.
        pub fn srtt(&self) -> Option<SimDuration> {
            self.srtt.map(SimDuration::from_secs_f64)
        }

        /// MSS in bytes.
        pub fn mss(&self) -> usize {
            self.cfg.mss
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
                    self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - sample_s).abs();
                    self.srtt = Some(0.875 * srtt + 0.125 * sample_s);
                }
            }
            let rto_s = self.srtt.unwrap() + 4.0 * self.rttvar;
            self.rto = SimDuration::from_secs_f64(rto_s)
                .max(self.cfg.min_rto)
                .min(SimDuration::from_secs(60));
            self.rto_backoff = 0;
        }

        fn cubic_k(&self) -> f64 {
            (self.w_max * (1.0 - self.cfg.beta) / self.cfg.cubic_c).cbrt()
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
            let epoch = *self.epoch_start.get_or_insert(now);
            let srtt = self.srtt.unwrap_or(0.1);
            let t = now.saturating_since(epoch).as_secs_f64() + srtt;
            let k = self.cubic_k();
            let w_cubic = self.cfg.cubic_c * (t - k).powi(3) + self.w_max;
            // TCP-friendly region (RFC 8312 §4.2).
            let w_est = self.w_max * self.cfg.beta
                + 3.0 * (1.0 - self.cfg.beta) / (1.0 + self.cfg.beta) * (t / srtt);
            let target = w_cubic.max(w_est);
            if target > self.cwnd {
                self.cwnd += (target - self.cwnd) / self.cwnd * acked_segments;
            } else {
                self.cwnd += 0.01 * acked_segments / self.cwnd;
            }
            self.cwnd = self.cwnd.min(10_000.0);
        }

        fn enter_loss_recovery(&mut self, now: SimTime) {
            self.w_max = self.cwnd;
            self.ssthresh = (self.cwnd * self.cfg.beta).max(2.0);
            self.cwnd = self.ssthresh;
            self.epoch_start = None;
            self.recovery_end = Some(self.next_new_seq);
            self.stats.fast_retransmits += 1;
            let _ = now;
        }

        /// Process a cumulative acknowledgement. Returns segments to transmit.
        pub fn on_ack(&mut self, now: SimTime, ack: u64) -> Vec<SendAction> {
            let mut out = Vec::new();
            if ack > self.snd_una {
                // New data acknowledged.
                let mut acked_segments = 0.0;
                let acked_keys: Vec<u64> = self.sent.range(..ack).map(|(&s, _)| s).collect();
                let mut rtt_sample: Option<f64> = None;
                for k in acked_keys {
                    if let Some((_, sent_at, retx)) = self.sent.remove(&k) {
                        acked_segments += 1.0;
                        if !retx {
                            rtt_sample = Some(now.saturating_since(sent_at).as_secs_f64());
                        }
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
                        let burst: Vec<(u64, usize)> = self
                            .sent
                            .iter()
                            .take(self.cfg.recovery_burst)
                            .map(|(&seq, &(len, _, _))| (seq, len))
                            .collect();
                        for (seq, len) in burst {
                            self.sent.insert(seq, (len, now, true));
                            self.stats.segments_sent += 1;
                            out.push(SendAction {
                                seq,
                                len,
                                retransmit: true,
                            });
                        }
                    }
                }
                self.grow_window(now, acked_segments);
            } else if ack == self.snd_una && !self.sent.is_empty() {
                self.dup_acks += 1;
                if self.dup_acks == 3 && self.recovery_end.is_none() {
                    self.enter_loss_recovery(now);
                    // Retransmit the first unacked segment.
                    if let Some((&seq, &(len, _, _))) = self.sent.iter().next() {
                        self.sent.insert(seq, (len, now, true));
                        self.stats.segments_sent += 1;
                        out.push(SendAction {
                            seq,
                            len,
                            retransmit: true,
                        });
                    }
                }
            }
            out.extend(self.send_permitted(now));
            out
        }

        /// Periodic maintenance: RTO detection and (re)filling the window.
        /// Call every few milliseconds.
        pub fn poll(&mut self, now: SimTime) -> Vec<SendAction> {
            let mut out = Vec::new();
            if let Some((&_first_seq, &(_, sent_at, _))) = self.sent.iter().next() {
                let effective_rto = self.rto * 2u64.pow(self.rto_backoff.min(6));
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
            out.extend(self.send_permitted(now));
            out
        }

        fn send_permitted(&mut self, now: SimTime) -> Vec<SendAction> {
            let mut out = Vec::new();
            while self.in_flight_segments() < self.cwnd.floor() && self.available_bytes() > 0 {
                let len = (self.cfg.mss as u64).min(self.available_bytes()) as usize;
                let seq = self.next_new_seq;
                self.sent.insert(seq, (len, now, false));
                self.next_new_seq += len as u64;
                self.stats.segments_sent += 1;
                out.push(SendAction {
                    seq,
                    len,
                    retransmit: false,
                });
            }
            out
        }
    }

    /// Receiver half: cumulative acknowledgements with out-of-order buffering.
    #[derive(Debug, Clone, Default)]
    pub struct TcpReceiver {
        expected: u64,
        ooo: BTreeMap<u64, usize>,
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
            if seq + len as u64 > self.expected {
                self.ooo.insert(seq, len);
            }
            // Advance over any now-contiguous buffered segments.
            loop {
                let mut advanced = false;
                let keys: Vec<u64> = self.ooo.range(..=self.expected).map(|(&s, _)| s).collect();
                for k in keys {
                    let l = self.ooo.remove(&k).expect("key exists");
                    let end = k + l as u64;
                    if end > self.expected {
                        self.bytes_received += end - self.expected;
                        self.expected = end;
                        advanced = true;
                    }
                }
                if !advanced {
                    break;
                }
            }
            self.expected
        }

        /// Next expected byte (the cumulative ACK value).
        pub fn expected(&self) -> u64 {
            self.expected
        }
    }
}
