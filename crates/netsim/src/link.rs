//! Unidirectional links: rate shaping, serialization, drop-tail queueing.
//!
//! A link models one direction of a physical hop: packets serialize one at a
//! time at the profile rate in effect when serialization starts, wait in a
//! byte-bounded drop-tail FIFO while the link is busy, and arrive at the far
//! node one propagation delay after serialization completes.
//!
//! A packet's departure is fixed when the link accepts it: service starts at
//! `max(now, previous departure)` and lasts the packet's serialization time
//! at the rate in force at that start. The link keeps each accepted packet's
//! header with its departure until [`Link::complete`] retires it; the caller
//! retires every departure at or before `now` before offering a packet at
//! `now`, so a departure at t frees its bytes before an arrival at t.
//!
//! The drop-tail queue is where every effect in the paper ultimately comes
//! from: self-inflicted queueing delay (sensed by delay-based congestion
//! control), loss under overload (sensed by loss-based control and by video
//! receivers as freezes), and the bandwidth contention of §5.

use std::collections::VecDeque;

use vcabench_simcore::{
    transmission_time, InvariantLog, SimDuration, SimTime, SmallMap, Violation,
};

use crate::packet::{FlowId, NodeId, Packet};
use crate::profile::RateProfile;
use crate::trace::FlowTraces;

/// Configuration of one unidirectional link.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Rate schedule (the `tc` shaping applied to this hop).
    pub rate: RateProfile,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Drop-tail queue capacity in bytes (excludes the packet in service).
    pub queue_bytes: usize,
    /// Random-impairment model: drop every `n`-th packet deterministically
    /// (`0` = no impairment). Used by the §8 "other network conditions"
    /// extension experiments; periodic loss keeps runs reproducible.
    pub drop_every: u64,
    /// Jitter: each packet's propagation delay is extended by a
    /// deterministic pseudo-random amount in `[0, jitter]` derived from the
    /// packet id (reproducible, and reordering-capable like real jitter).
    pub jitter: SimDuration,
}

impl LinkConfig {
    /// A link with the given constant rate in Mbps, delay, and the default
    /// 64 KiB queue (a typical home-router buffer).
    pub fn mbps(mbps: f64, delay: SimDuration) -> Self {
        LinkConfig {
            rate: RateProfile::constant_mbps(mbps),
            delay,
            queue_bytes: 64 * 1024,
            drop_every: 0,
            jitter: SimDuration::ZERO,
        }
    }

    /// Replace the rate profile.
    pub fn with_profile(mut self, rate: RateProfile) -> Self {
        self.rate = rate;
        self
    }

    /// Replace the queue capacity.
    pub fn with_queue_bytes(mut self, bytes: usize) -> Self {
        self.queue_bytes = bytes;
        self
    }

    /// Impair the link: drop every `n`-th packet (`0` disables). A loss rate
    /// of p maps to `n = (1/p).round()`.
    pub fn with_drop_every(mut self, n: u64) -> Self {
        self.drop_every = n;
        self
    }

    /// Impair the link with an approximate random-loss probability.
    pub fn with_loss_rate(self, p: f64) -> Self {
        if p <= 0.0 {
            self.with_drop_every(0)
        } else {
            self.with_drop_every((1.0 / p).round().max(1.0) as u64)
        }
    }
}

/// One flow's counters on one link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowCount {
    /// Packets fully delivered.
    pub delivered: u64,
    /// Packets dropped (queue tail or impairment).
    pub dropped: u64,
    /// Bytes delivered.
    pub delivered_bytes: u64,
}

/// Drop and delivery counters: one ledger row per flow (ascending flow id),
/// so a delivered packet costs one lookup.
#[derive(Debug, Clone, Default)]
pub struct LinkStats {
    /// Counters of every flow that was offered to the link.
    pub flows: SmallMap<FlowId, FlowCount>,
}

impl LinkStats {
    /// Total packets dropped across flows.
    pub fn total_dropped(&self) -> u64 {
        self.flows.values().map(|c| c.dropped).sum()
    }

    /// Total packets delivered across flows.
    pub fn total_delivered(&self) -> u64 {
        self.flows.values().map(|c| c.delivered).sum()
    }

    /// Total bytes delivered across flows.
    pub fn total_delivered_bytes(&self) -> u64 {
        self.flows.values().map(|c| c.delivered_bytes).sum()
    }

    /// Loss fraction for one flow (drops / (drops + deliveries)).
    pub fn loss_fraction(&self, flow: FlowId) -> f64 {
        let c = self.flows.get(&flow).copied().unwrap_or_default();
        let (d, ok) = (c.dropped as f64, c.delivered as f64);
        if d + ok == 0.0 {
            0.0
        } else {
            d / (d + ok)
        }
    }

    fn flow_mut(&mut self, flow: FlowId) -> &mut FlowCount {
        self.flows.get_or_insert_with(flow, FlowCount::default)
    }
}

/// Outcome of offering a packet to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// The link was idle; serialization starts now and completes at the
    /// contained time.
    StartTx(SimTime),
    /// The packet joined the queue behind the packet in service; it departs
    /// at [`Link::last_departure`].
    Queued,
    /// The queue was full; the packet was dropped.
    Dropped,
}

/// Independent ledger the link auditor keeps alongside the link's own
/// bookkeeping (fed only in builds with debug assertions; empty, it
/// allocates nothing). Cross-checking two separately maintained accounts is
/// what lets the audit catch a forgotten counter increment or a lost packet
/// rather than merely re-deriving the bug.
#[derive(Debug, Default)]
struct LinkAudit {
    log: InvariantLog,
    /// Ids of accepted packets in service order (front = in service).
    fifo: VecDeque<u64>,
    /// Bytes delivered, counted by the auditor at completion time.
    delivered_bytes: u64,
    /// Largest packet accepted so far (sizes the capacity-check slack).
    max_pkt_bytes: usize,
}

/// One unidirectional link instance.
#[derive(Debug)]
pub struct Link<P> {
    cfg: LinkConfig,
    /// Node packets are delivered to.
    pub to: NodeId,
    /// Accepted packets in service order, each with its departure time. The
    /// front is in service; the rest wait.
    fifo: VecDeque<(SimTime, Packet<P>)>,
    /// Bytes waiting behind the front.
    queued_bytes: usize,
    /// Packets offered so far (drives the periodic impairment).
    offered: u64,
    /// Delivery/drop counters.
    pub stats: LinkStats,
    /// Departure-side throughput traces (bytes counted when serialization
    /// completes, i.e. the on-wire rate a passive tap would measure).
    pub traces: FlowTraces,
    audit: LinkAudit,
}

impl<P> Link<P> {
    /// Create a link delivering to `to`.
    pub fn new(cfg: LinkConfig, to: NodeId) -> Self {
        Link {
            cfg,
            to,
            fifo: VecDeque::new(),
            queued_bytes: 0,
            offered: 0,
            stats: LinkStats::default(),
            traces: FlowTraces::new(),
            audit: LinkAudit::default(),
        }
    }

    /// Configured propagation delay.
    pub fn delay(&self) -> SimDuration {
        self.cfg.delay
    }

    /// Propagation delay for a specific packet, including its deterministic
    /// jitter draw (a splitmix-style hash of the packet id).
    pub fn delay_for(&self, pkt_id: u64) -> SimDuration {
        if self.cfg.jitter.is_zero() {
            return self.cfg.delay;
        }
        let mut z = pkt_id.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let extra = z % (self.cfg.jitter.as_micros() + 1);
        self.cfg.delay + SimDuration::from_micros(extra)
    }

    /// Rate in effect at `t` (bps).
    pub fn rate_at(&self, t: SimTime) -> f64 {
        self.cfg.rate.rate_at(t)
    }

    /// Bytes currently waiting (excluding the packet in service).
    pub fn backlog_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// Packets currently waiting.
    pub fn backlog_packets(&self) -> usize {
        self.fifo.len().saturating_sub(1)
    }

    /// Departure of the packet in service, if any: the next packet
    /// [`Link::complete`] retires.
    pub fn next_departure(&self) -> Option<SimTime> {
        self.fifo.front().map(|&(done, _)| done)
    }

    /// Departure of the last accepted packet, if the link holds any.
    pub fn last_departure(&self) -> Option<SimTime> {
        self.fifo.back().map(|&(done, _)| done)
    }

    /// Whether the next offered packet will be discarded by the periodic
    /// drop-every-N impairment (as opposed to a full queue). Lets the
    /// engine's telemetry hook classify an upcoming drop before handing
    /// the packet to [`Link::enqueue`].
    pub fn next_offer_hits_impairment(&self) -> bool {
        self.cfg.drop_every > 0 && (self.offered + 1).is_multiple_of(self.cfg.drop_every)
    }

    /// Offer a packet. If the link is idle the packet enters service and the
    /// returned time is when serialization completes; otherwise it queues
    /// (departing at [`Link::last_departure`]) or drops. Departures at or
    /// before `now` must have been retired with [`Link::complete`] first.
    pub fn enqueue(&mut self, now: SimTime, pkt: Packet<P>) -> EnqueueOutcome {
        let (pkt_id, pkt_size) = (pkt.id, pkt.size);
        self.offered += 1;
        let idle = self.fifo.is_empty();
        let outcome = if self.cfg.drop_every > 0 && self.offered.is_multiple_of(self.cfg.drop_every)
            || (!idle && self.queued_bytes + pkt.size > self.cfg.queue_bytes)
        {
            self.stats.flow_mut(pkt.flow).dropped += 1;
            EnqueueOutcome::Dropped
        } else {
            let start = self.last_departure().map_or(now, |prev| prev.max(now));
            let done = start + transmission_time(pkt.size, self.rate_at(start));
            self.fifo.push_back((done, pkt));
            if idle {
                EnqueueOutcome::StartTx(done)
            } else {
                self.queued_bytes += pkt_size;
                EnqueueOutcome::Queued
            }
        };
        if cfg!(debug_assertions) {
            self.audit_enqueue(now, pkt_id, pkt_size, outcome);
        }
        outcome
    }

    /// Retire the packet in service at its departure `now`. Returns the
    /// delivered packet and, if another packet starts serialization, the
    /// time it will complete.
    ///
    /// Panics if the link holds no packet (an engine bug).
    pub fn complete(&mut self, now: SimTime) -> (Packet<P>, Option<SimTime>) {
        let (_, pkt) = self.fifo.pop_front().expect("complete on an idle link");
        let count = self.stats.flow_mut(pkt.flow);
        count.delivered += 1;
        count.delivered_bytes += pkt.size as u64;
        self.traces.record(pkt.flow, now, pkt.size);
        let next_done = self.fifo.front().map(|&(done, ref next)| {
            self.queued_bytes -= next.size;
            done
        });
        if cfg!(debug_assertions) {
            self.audit_complete(now, pkt.id, pkt.size);
        }
        (pkt, next_done)
    }
}

/// The link audit: hooks called from [`Link::enqueue`] / [`Link::complete`]
/// in builds with debug assertions, and the read-outs (always present,
/// empty when the hooks never ran).
impl<P> Link<P> {
    fn audit_enqueue(&mut self, now: SimTime, pkt_id: u64, pkt_size: usize, out: EnqueueOutcome) {
        if !matches!(out, EnqueueOutcome::Dropped) {
            self.audit.fifo.push_back(pkt_id);
            self.audit.max_pkt_bytes = self.audit.max_pkt_bytes.max(pkt_size);
        }
        let (backlog, limit) = (self.queued_bytes, self.cfg.queue_bytes);
        self.audit
            .log
            .check(now, "queue-occupancy", backlog <= limit, || {
                format!("backlog {backlog} B exceeds drop-tail limit {limit} B")
            });
        self.audit_conservation(now);
    }

    fn audit_complete(&mut self, now: SimTime, pkt_id: u64, pkt_size: usize) {
        let head = self.audit.fifo.pop_front();
        self.audit
            .log
            .check(now, "fifo-order", head == Some(pkt_id), || {
                format!("delivered pkt {pkt_id} but accepted-ledger head was {head:?}")
            });
        self.audit.delivered_bytes += pkt_size as u64;
        // Cumulative capacity: bytes delivered by `now` must fit the
        // profile's byte budget. Slack: a packet's service rate is fixed when
        // serialization starts, so each rate drop can let one already-started
        // max-size packet exceed the integral, plus one for boundary
        // rounding of the packet completing exactly at `now`.
        let slack = (self.cfg.rate.changes_between(SimTime::ZERO, now) + 1)
            * self.audit.max_pkt_bytes.max(1);
        let budget = self.cfg.rate.max_bytes_between(SimTime::ZERO, now) + slack as f64 + 1.0;
        let delivered = self.audit.delivered_bytes;
        self.audit
            .log
            .check(now, "capacity", (delivered as f64) <= budget, || {
                format!("delivered {delivered} B by {now}, profile allows at most {budget:.0} B")
            });
        let stats_bytes = self.stats.total_delivered_bytes();
        self.audit
            .log
            .check(now, "stats-bytes", stats_bytes == delivered, || {
                format!("stats count {stats_bytes} delivered bytes, audit ledger {delivered}")
            });
        self.audit_conservation(now);
    }

    /// Packet conservation: everything offered is delivered, dropped, or
    /// still held by the link — and the audit's independently maintained
    /// ledger of accepted ids agrees with the link's own holdings.
    fn audit_conservation(&mut self, now: SimTime) {
        let offered = self.offered;
        let held = self.fifo.len();
        let accounted = self.stats.total_delivered() + self.stats.total_dropped() + held as u64;
        self.audit
            .log
            .check(now, "packet-conservation", offered == accounted, || {
                format!("offered {offered} != delivered+dropped+held {accounted}")
            });
        let ledger = self.audit.fifo.len();
        self.audit
            .log
            .check(now, "accept-ledger", ledger == held, || {
                format!("accepted ledger holds {ledger} ids, link holds {held} packets")
            });
    }

    /// Violations recorded by this link's auditor.
    pub fn audit_violations(&self) -> &[Violation] {
        self.audit.log.violations()
    }

    /// Number of invariant checks this link's auditor has performed.
    pub fn audit_checks(&self) -> u64 {
        self.audit.log.checks_performed()
    }
}

#[cfg(test)]
impl<P> Link<P> {
    /// Packets the link holds: waiting plus the one in service.
    pub(crate) fn held_packets(&self) -> usize {
        self.fifo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcabench_simcore::SimTime;

    fn pkt(id: u64, size: usize) -> Packet<()> {
        Packet {
            id,
            flow: FlowId(1),
            src: NodeId(0),
            dst: NodeId(1),
            size,
            sent_at: SimTime::ZERO,
            payload: (),
        }
    }

    #[test]
    fn idle_link_starts_tx_immediately() {
        let mut l = Link::new(
            LinkConfig::mbps(1.0, SimDuration::from_millis(5)),
            NodeId(1),
        );
        // 1500 B at 1 Mbps = 12 ms serialization.
        match l.enqueue(SimTime::ZERO, pkt(1, 1500)) {
            EnqueueOutcome::StartTx(t) => assert_eq!(t, SimTime::from_millis(12)),
            other => panic!("expected StartTx, got {other:?}"),
        }
    }

    #[test]
    fn busy_link_queues_then_serves_fifo() {
        let mut l = Link::new(LinkConfig::mbps(1.0, SimDuration::ZERO), NodeId(1));
        assert!(matches!(
            l.enqueue(SimTime::ZERO, pkt(1, 1500)),
            EnqueueOutcome::StartTx(_)
        ));
        assert_eq!(
            l.enqueue(SimTime::ZERO, pkt(2, 1000)),
            EnqueueOutcome::Queued
        );
        assert_eq!(l.backlog_packets(), 1);
        let (p1, next) = l.complete(SimTime::from_millis(12));
        assert_eq!(p1.id, 1);
        // 1000 B at 1 Mbps = 8 ms.
        assert_eq!(next, Some(SimTime::from_millis(20)));
        let (p2, next2) = l.complete(SimTime::from_millis(20));
        assert_eq!(p2.id, 2);
        assert!(next2.is_none());
        assert_eq!(l.stats.total_delivered(), 2);
    }

    #[test]
    fn full_queue_drops_tail() {
        let cfg = LinkConfig::mbps(1.0, SimDuration::ZERO).with_queue_bytes(2000);
        let mut l = Link::new(cfg, NodeId(1));
        l.enqueue(SimTime::ZERO, pkt(1, 1500)); // in service
        assert_eq!(
            l.enqueue(SimTime::ZERO, pkt(2, 1500)),
            EnqueueOutcome::Queued
        );
        assert_eq!(
            l.enqueue(SimTime::ZERO, pkt(3, 1500)),
            EnqueueOutcome::Dropped
        );
        assert_eq!(l.stats.total_dropped(), 1);
        assert!(l.stats.loss_fraction(FlowId(1)) > 0.0);
    }

    #[test]
    fn rate_change_applies_to_next_service_start() {
        let profile = RateProfile::constant_mbps(1.0).step(SimTime::from_millis(10), 0.5e6);
        let cfg = LinkConfig::mbps(1.0, SimDuration::ZERO).with_profile(profile);
        let mut l = Link::new(cfg, NodeId(1));
        l.enqueue(SimTime::ZERO, pkt(1, 1500));
        l.enqueue(SimTime::ZERO, pkt(2, 1500));
        let (_, next) = l.complete(SimTime::from_millis(12));
        // Second packet starts at 12 ms when the rate is 0.5 Mbps -> 24 ms tx.
        assert_eq!(next, Some(SimTime::from_millis(36)));
    }

    #[test]
    fn traces_count_departures() {
        let mut l = Link::new(LinkConfig::mbps(8.0, SimDuration::ZERO), NodeId(1));
        l.enqueue(SimTime::ZERO, pkt(1, 1000));
        l.complete(SimTime::from_millis(1));
        assert_eq!(l.traces.total().total_bytes(), 1000);
        assert_eq!(l.traces.flow(FlowId(1)).unwrap().total_bytes(), 1000);
    }

    #[test]
    fn periodic_impairment_drops_every_nth() {
        let cfg = LinkConfig::mbps(1000.0, SimDuration::ZERO).with_drop_every(4);
        let mut l = Link::new(cfg, NodeId(1));
        let mut dropped = 0;
        let mut t = SimTime::ZERO;
        for i in 0..40u64 {
            match l.enqueue(t, pkt(i, 100)) {
                EnqueueOutcome::Dropped => dropped += 1,
                EnqueueOutcome::StartTx(done) => {
                    t = done;
                    let _ = l.complete(t);
                }
                EnqueueOutcome::Queued => unreachable!("link drained each step"),
            }
        }
        assert_eq!(dropped, 10, "exactly every 4th packet dropped");
    }

    #[test]
    fn loss_rate_maps_to_period() {
        let a = LinkConfig::mbps(1.0, SimDuration::ZERO).with_loss_rate(0.01);
        assert_eq!(a.drop_every, 100);
        let b = LinkConfig::mbps(1.0, SimDuration::ZERO).with_loss_rate(0.0);
        assert_eq!(b.drop_every, 0);
        let c = LinkConfig::mbps(1.0, SimDuration::ZERO).with_loss_rate(0.05);
        assert_eq!(c.drop_every, 20);
    }

    #[test]
    #[should_panic(expected = "complete on an idle link")]
    fn complete_on_idle_panics() {
        let mut l: Link<()> = Link::new(LinkConfig::mbps(1.0, SimDuration::ZERO), NodeId(1));
        l.complete(SimTime::ZERO);
    }
}
