//! The network: nodes, static routing, links, agents, and the event loop.
//!
//! A [`Network`] owns every link and agent in an experiment and drives a
//! single deterministic event queue. Agents (VCA clients, SFU servers, TCP
//! endpoints, traffic sources) interact with the world only through a
//! [`Ctx`] handed to their callbacks: they can send packets and set timers,
//! and they receive packets addressed to their node. A callback's sends and
//! timers are buffered as actions and executed when it returns, which keeps
//! ownership simple (no `Rc<RefCell>` webs) while preserving a strict total
//! order of effects.
//!
//! The engine moves a handle, not the packet. [`Ctx::send`] writes the
//! [`Packet`] into the network's packet slab once, and
//! [`Agent::on_packet`] takes it out once; in between only its 4-byte
//! [`PacketHandle`] travels, in the action buffer and in the packet's one
//! pending `Arrive` event. A pending event is 16 bytes whatever the payload
//! type `P` is — node indices travel as `u32` — so the queue's heap entry,
//! event plus `(time, seq)`, is 32.
//!
//! One hop is one event. A link fixes a packet's departure when it accepts
//! it, so [`Network`] schedules the packet's `Arrive` at the far node right
//! then; the link keeps a payload-free header copy until the departure is
//! retired into its stats and traces. Retirement is lazy — when the link is
//! next offered a packet, and at the end of [`Network::run_until`] — except
//! while telemetry is enabled, when departures are retired before each
//! event in `(departure, link)` order so `packet_dequeue` events stay
//! time-ordered. When a departure is retired changes no simulation decision.

use std::any::Any;

use vcabench_simcore::{EventQueue, MonotonicClock, SimDuration, SimTime, Slab, Violation};
use vcabench_telemetry::{EventKind, Telemetry};

use crate::link::{EnqueueOutcome, Link, LinkConfig};
use crate::packet::{FlowId, LinkId, NodeId, Packet};

/// Name of an in-flight packet: its slot in the network's packet slab.
/// What the engine's pending `Arrive` events carry in place of a payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketHandle(u32);

/// Events processed by the network engine; nodes by `u32` index
/// (`add_node` checks that every index fits).
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A packet arrived at a node (after propagation).
    Arrive(u32, PacketHandle),
    /// An agent timer fired.
    Timer(u32, u64),
}

/// Deferred effects produced by an agent callback.
enum Action {
    Send(PacketHandle),
    Timer { node: NodeId, at: SimTime, id: u64 },
}

/// The interface agents use to act on the world from inside a callback.
pub struct Ctx<'a, P> {
    /// Current simulation time.
    pub now: SimTime,
    /// The node this agent occupies.
    pub node: NodeId,
    actions: &'a mut Vec<Action>,
    packets: &'a mut Slab<Packet<P>>,
    next_pkt_id: &'a mut u64,
}

impl<'a, P> Ctx<'a, P> {
    /// Send a packet from this node. Returns the assigned packet id.
    pub fn send(&mut self, flow: FlowId, dst: NodeId, size: usize, payload: P) -> u64 {
        let id = *self.next_pkt_id;
        *self.next_pkt_id += 1;
        let handle = self.packets.insert(Packet {
            id,
            flow,
            src: self.node,
            dst,
            size,
            sent_at: self.now,
            payload,
        });
        self.actions.push(Action::Send(PacketHandle(handle)));
        id
    }

    /// Fire `on_timer(id)` on this agent after `delay`.
    pub fn set_timer_after(&mut self, delay: SimDuration, id: u64) {
        self.actions.push(Action::Timer {
            node: self.node,
            at: self.now + delay,
            id,
        });
    }

    /// Fire `on_timer(id)` on this agent at absolute time `at`.
    pub fn set_timer_at(&mut self, at: SimTime, id: u64) {
        assert!(at >= self.now, "timer in the past");
        self.actions.push(Action::Timer {
            node: self.node,
            at,
            id,
        });
    }
}

/// A protocol endpoint or middlebox attached to a node.
///
/// Implementations must also provide `as_any`/`as_any_mut` so experiments can
/// recover the concrete type after a run to read final statistics.
pub trait Agent<P>: 'static {
    /// Called once when the simulation starts.
    fn start(&mut self, _ctx: &mut Ctx<'_, P>) {}
    /// Called for every packet whose destination is this agent's node.
    fn on_packet(&mut self, ctx: &mut Ctx<'_, P>, pkt: Packet<P>);
    /// Called when a timer set via [`Ctx::set_timer_after`] fires.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, P>, _timer: u64) {}
    /// Upcast for typed post-run access.
    fn as_any(&self) -> &dyn Any;
    /// Mutable upcast for typed post-run access.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Engine throughput counters, maintained O(1) by the event loop.
///
/// These are *measurement* outputs (`benchmark/` reads them);
/// they never feed back into simulation behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events popped and handled by [`Network::run_until`] so far.
    pub events_processed: u64,
    /// Peak number of simultaneously pending events in the queue.
    pub peak_queue_depth: u64,
}

/// The simulated network.
pub struct Network<P> {
    now: SimTime,
    started: bool,
    events: EventQueue<Event>,
    stats: EngineStats,
    /// Every packet between `Ctx::send` and `Agent::on_packet` (or a drop).
    packets: Slab<Packet<P>>,
    links: Vec<Link<()>>,
    /// Per-node forwarding table, indexed by destination node id (node
    /// counts are small, so a flat table beats hashing on every hop).
    routes: Vec<Vec<Option<LinkId>>>,
    default_route: Vec<Option<LinkId>>,
    agents: Vec<Option<Box<dyn Agent<P>>>>,
    /// Reused action buffer for agent dispatch (see [`Network::apply`]).
    action_scratch: Vec<Action>,
    next_pkt_id: u64,
    /// Packets discarded because no route existed (usually a wiring bug).
    pub unrouted_drops: u64,
    /// Trace hook; disabled by default, so every emission below is one
    /// branch and never constructs the event.
    telemetry: Telemetry,
    /// Last service rate emitted per link (bits, NaN = never sampled);
    /// lets enqueue/dequeue hooks detect shaping-profile steps without a
    /// separate poller.
    tel_rates: Vec<f64>,
    /// Audit of processed-event timestamps (fed only in builds with debug
    /// assertions, like every audit hook).
    clock: MonotonicClock,
    /// Violations already forwarded to the telemetry recorder.
    tel_violations_seen: usize,
    /// Pending `Arrive` events (counted only in builds with debug
    /// assertions, for the `packet-handles` audit: each holds one live
    /// handle).
    audit_arrivals_pending: usize,
}

impl<P: 'static> Network<P> {
    /// Create an empty network.
    pub fn new() -> Self {
        Network {
            now: SimTime::ZERO,
            started: false,
            events: EventQueue::new(),
            stats: EngineStats::default(),
            packets: Slab::new(),
            links: Vec::new(),
            routes: Vec::new(),
            default_route: Vec::new(),
            agents: Vec::new(),
            action_scratch: Vec::new(),
            next_pkt_id: 0,
            unrouted_drops: 0,
            telemetry: Telemetry::disabled(),
            tel_rates: Vec::new(),
            clock: MonotonicClock::new(),
            tel_violations_seen: 0,
            audit_arrivals_pending: 0,
        }
    }

    /// Attach a telemetry handle; the engine emits packet
    /// enqueue/dequeue/drop and rate-step events through it (and, in builds
    /// with debug assertions, invariant violations in event order).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The engine's telemetry handle (clone it into agents so one
    /// recorder sees the whole run).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Engine throughput counters (events handled, peak queue depth).
    pub fn engine_stats(&self) -> EngineStats {
        self.stats
    }

    /// Schedule an engine event, tracking pending depth for [`EngineStats`]
    /// (the engine never cancels, so the queue's length is the depth).
    fn sched(&mut self, at: SimTime, ev: Event) {
        self.events.schedule(at, ev);
        let depth = self.events.len() as u64;
        if depth > self.stats.peak_queue_depth {
            self.stats.peak_queue_depth = depth;
        }
    }

    /// Add a node with no agent (router/switch).
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.agents.len());
        assert!(u32::try_from(id.0).is_ok(), "node index fits u32");
        self.agents.push(None);
        self.routes.push(Vec::new());
        self.default_route.push(None);
        id
    }

    /// Add a node occupied by `agent`.
    pub fn add_agent(&mut self, agent: Box<dyn Agent<P>>) -> NodeId {
        let id = self.add_node();
        self.agents[id.0] = Some(agent);
        id
    }

    /// Attach an agent to an existing (empty) node.
    pub fn set_agent(&mut self, node: NodeId, agent: Box<dyn Agent<P>>) {
        assert!(
            self.agents[node.0].is_none(),
            "node {node} already has an agent"
        );
        self.agents[node.0] = Some(agent);
        if self.started {
            // Late-attached agents still get their start callback.
            self.dispatch(node, |agent, ctx| agent.start(ctx));
        }
    }

    /// Add a unidirectional link from `from` to `to`.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, cfg: LinkConfig) -> LinkId {
        let id = LinkId(self.links.len());
        assert!(u32::try_from(id.0).is_ok(), "link index fits u32");
        self.links.push(Link::new(cfg, to));
        // A link is only useful if some route points at it; set a
        // destination-specific route for the far node by default.
        let table = &mut self.routes[from.0];
        if table.len() <= to.0 {
            table.resize(to.0 + 1, None);
        }
        if table[to.0].is_none() {
            table[to.0] = Some(id);
        }
        id
    }

    /// Add a pair of links between `a` and `b` with per-direction configs.
    pub fn add_duplex(
        &mut self,
        a: NodeId,
        b: NodeId,
        a_to_b: LinkConfig,
        b_to_a: LinkConfig,
    ) -> (LinkId, LinkId) {
        (self.add_link(a, b, a_to_b), self.add_link(b, a, b_to_a))
    }

    /// Route packets at `node` destined to `dst` over `link`.
    pub fn route(&mut self, node: NodeId, dst: NodeId, link: LinkId) {
        let table = &mut self.routes[node.0];
        if table.len() <= dst.0 {
            table.resize(dst.0 + 1, None);
        }
        table[dst.0] = Some(link);
    }

    /// Fallback route at `node` for any unmatched destination.
    pub fn default_route(&mut self, node: NodeId, link: LinkId) {
        self.default_route[node.0] = Some(link);
    }

    /// Immutable access to a link (stats, traces; departures up to
    /// [`Network::now`] are retired).
    pub fn link(&self, id: LinkId) -> &Link<()> {
        &self.links[id.0]
    }

    /// Typed access to an agent.
    pub fn agent<T: 'static>(&self, node: NodeId) -> &T {
        self.agents[node.0]
            .as_ref()
            .expect("no agent at node")
            .as_any()
            .downcast_ref::<T>()
            .expect("agent type mismatch")
    }

    /// Typed mutable access to an agent.
    pub fn agent_mut<T: 'static>(&mut self, node: NodeId) -> &mut T {
        self.agents[node.0]
            .as_mut()
            .expect("no agent at node")
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("agent type mismatch")
    }

    /// Deliver all `start` callbacks. Called automatically by `run_until` if
    /// not invoked explicitly.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.agents.len() {
            self.dispatch(NodeId(i), |agent, ctx| agent.start(ctx));
        }
    }

    /// Run the event loop until simulation time `until` (inclusive of events
    /// at exactly `until`), then advance the clock to `until` and retire
    /// every link departure up to it. The clock never moves backwards: an
    /// `until` already in the past processes nothing and leaves
    /// [`Network::now`] where it was.
    pub fn run_until(&mut self, until: SimTime) {
        self.start();
        for link in &mut self.links {
            link.traces.reserve_until(until);
        }
        while let Some(at) = self.events.peek_time() {
            if at > until {
                break;
            }
            if self.telemetry.enabled() {
                self.retire_all(at);
            }
            let (at, ev) = self.events.pop().expect("peeked event");
            self.stats.events_processed += 1;
            if cfg!(debug_assertions) {
                self.clock.on_event(at);
            }
            self.now = at;
            self.handle(ev);
            if cfg!(debug_assertions) {
                self.emit_new_violations();
            }
        }
        self.now = self.now.max(until);
        self.retire_all(self.now);
        if cfg!(debug_assertions) {
            // What agents read as `Ctx::now` from here on.
            self.clock.on_event(self.now);
        }
    }

    /// Retire every link departure at or before `t`, in `(departure, link)`
    /// order.
    fn retire_all(&mut self, t: SimTime) {
        while let Some((done, i)) = (self.links.iter().enumerate())
            .filter_map(|(i, link)| Some((link.next_departure()?, i)))
            .min()
            .filter(|&(done, _)| done <= t)
        {
            self.retire(LinkId(i), done);
        }
    }

    /// Retire link `lid`'s packet in service, which departs at `done`.
    fn retire(&mut self, lid: LinkId, done: SimTime) {
        let (pkt, _) = self.links[lid.0].complete(done);
        if self.telemetry.enabled() {
            self.note_rate(lid, done);
            let queue_bytes = self.links[lid.0].backlog_bytes() as u64;
            let (link, flow, id, bytes) = (lid.0 as u64, pkt.flow.0, pkt.id, pkt.size as u64);
            self.telemetry.emit(done, || EventKind::PacketDequeued {
                link,
                flow,
                pkt: id,
                bytes,
                queue_bytes,
            });
        }
    }

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::Arrive(node, handle) => {
                let node = NodeId(node as usize);
                if cfg!(debug_assertions) {
                    self.audit_arrivals_pending -= 1;
                }
                if self.packet(handle).dst == node {
                    let pkt = self.packets.remove(handle.0).expect("live handle");
                    self.dispatch(node, |agent, ctx| agent.on_packet(ctx, pkt));
                } else {
                    self.forward(node, handle);
                }
            }
            Event::Timer(node, id) => {
                self.dispatch(NodeId(node as usize), |agent, ctx| agent.on_timer(ctx, id));
            }
        }
    }

    /// The in-flight packet behind `handle`.
    fn packet(&self, handle: PacketHandle) -> &Packet<P> {
        self.packets.get(handle.0).expect("live handle")
    }

    fn sched_arrive(&mut self, at: SimTime, node: NodeId, handle: PacketHandle) {
        if cfg!(debug_assertions) {
            self.audit_arrivals_pending += 1;
        }
        self.sched(at, Event::Arrive(node.0 as u32, handle));
    }

    /// Offer the packet behind `handle` to `node`'s link towards its
    /// destination, after retiring that link's departures up to now. An
    /// accepted packet's `Arrive` at the far node is scheduled at once; a
    /// drop — no route, queue full, impairment — ends the packet's life and
    /// frees its handle.
    fn forward(&mut self, node: NodeId, handle: PacketHandle) {
        let pkt = self.packet(handle);
        let link = self.routes[node.0]
            .get(pkt.dst.0)
            .copied()
            .flatten()
            .or(self.default_route[node.0]);
        let Some(lid) = link else {
            self.unrouted_drops += 1;
            self.packets.remove(handle.0);
            return;
        };
        // What the link keeps: the packet's header.
        let header = Packet {
            id: pkt.id,
            flow: pkt.flow,
            src: pkt.src,
            dst: pkt.dst,
            size: pkt.size,
            sent_at: pkt.sent_at,
            payload: (),
        };
        while let Some(done) = self.links[lid.0].next_departure() {
            if done > self.now {
                break;
            }
            self.retire(lid, done);
        }
        let enabled = self.telemetry.enabled();
        let impairment = enabled && self.links[lid.0].next_offer_hits_impairment();
        if enabled {
            self.note_rate(lid, self.now);
        }
        let (flow, id, bytes) = (header.flow.0, header.id, header.size as u64);
        let link = &mut self.links[lid.0];
        let outcome = link.enqueue(self.now, header);
        if outcome == EnqueueOutcome::Dropped {
            self.packets.remove(handle.0);
        } else {
            let done = link
                .last_departure()
                .expect("the accepted packet is the link's last");
            let (to, arrive_at) = (link.to, done + link.delay_for(id));
            self.sched_arrive(arrive_at, to, handle);
        }
        if enabled {
            let l = &self.links[lid.0];
            let (queue_bytes, queue_pkts) = (l.backlog_bytes() as u64, l.backlog_packets() as u64);
            let link = lid.0 as u64;
            if matches!(outcome, EnqueueOutcome::Dropped) {
                self.telemetry.emit(self.now, || EventKind::PacketDropped {
                    link,
                    flow,
                    pkt: id,
                    bytes,
                    queue_bytes,
                    reason: if impairment {
                        "impairment"
                    } else {
                        "queue_full"
                    },
                });
            } else {
                self.telemetry.emit(self.now, || EventKind::PacketEnqueued {
                    link,
                    flow,
                    pkt: id,
                    bytes,
                    queue_bytes,
                    queue_pkts,
                });
            }
        }
    }

    /// Emit a `rate_step` event when the link's shaping profile has moved
    /// since the last packet touched it. Sampling at packet touch points
    /// keeps the hook event-driven (no poller) while still recording every
    /// step a packet could observe.
    fn note_rate(&mut self, lid: LinkId, at: SimTime) {
        if self.tel_rates.len() < self.links.len() {
            self.tel_rates.resize(self.links.len(), f64::NAN);
        }
        let bps = self.links[lid.0].rate_at(at);
        if self.tel_rates[lid.0].to_bits() != bps.to_bits() {
            self.tel_rates[lid.0] = bps;
            let link = lid.0 as u64;
            self.telemetry
                .emit(at, || EventKind::RateStep { link, bps });
        }
    }

    /// Run one callback of the agent at `node` (if any) against a [`Ctx`]
    /// over the reused action buffer, then execute what it queued.
    fn dispatch(&mut self, node: NodeId, call: impl FnOnce(&mut dyn Agent<P>, &mut Ctx<'_, P>)) {
        let mut actions = std::mem::take(&mut self.action_scratch);
        if let Some(agent) = self.agents[node.0].as_mut() {
            let mut ctx = Ctx {
                now: self.now,
                node,
                actions: &mut actions,
                packets: &mut self.packets,
                next_pkt_id: &mut self.next_pkt_id,
            };
            call(agent.as_mut(), &mut ctx);
        }
        self.apply(&mut actions);
        // Hand the (now empty) buffer back for the next dispatch.
        self.action_scratch = actions;
    }

    /// Drain and execute deferred actions. Never re-enters dispatch
    /// (loopback sends go through the event queue), so the single
    /// `action_scratch` buffer `dispatch` reuses is sufficient.
    fn apply(&mut self, actions: &mut Vec<Action>) {
        for a in actions.drain(..) {
            match a {
                Action::Send(handle) => {
                    let pkt = self.packet(handle);
                    let (src, dst) = (pkt.src, pkt.dst);
                    if dst == src {
                        // Loopback: deliver on the next event cycle.
                        self.sched_arrive(self.now, dst, handle);
                    } else {
                        self.forward(src, handle);
                    }
                }
                Action::Timer { node, at, id } => {
                    self.sched(at, Event::Timer(node.0 as u32, id));
                }
            }
        }
    }
}

/// Audit read-outs: always present, empty unless the hooks ran (builds with
/// debug assertions).
impl<P: 'static> Network<P> {
    /// Every invariant violation recorded anywhere in this network: the
    /// engine clock and each link's auditor.
    pub fn invariant_violations(&self) -> Vec<Violation> {
        let mut out: Vec<Violation> = self.clock.violations().to_vec();
        for link in &self.links {
            out.extend(link.audit_violations().iter().cloned());
        }
        out.sort_by_key(|v| v.at);
        out.extend(self.audit_packet_handles());
        out
    }

    /// Handle conservation, checked at read-out: every live handle is held
    /// by exactly one pending `Arrive` event (a queued packet's too: the
    /// link keeps only its header), so a leaked (or doubly freed) handle
    /// shows up as a count mismatch.
    fn audit_packet_handles(&self) -> Option<Violation> {
        let live = self.packets.len();
        let pending = self.audit_arrivals_pending;
        (cfg!(debug_assertions) && live != pending).then(|| Violation {
            at: self.now,
            invariant: "packet-handles",
            detail: format!("{live} live handles != {pending} pending arrivals"),
        })
    }

    /// Invariant checks performed so far, as `(engine clock, all links)`.
    /// A clean run with zero checks in a layer proves nothing about it, so
    /// callers assert on these too.
    pub fn invariant_checks(&self) -> (u64, u64) {
        (
            self.clock.checks_performed(),
            self.links.iter().map(|l| l.audit_checks()).sum(),
        )
    }

    /// Forward invariant violations detected since the last call into the
    /// telemetry recorder, so a failing trace shows the violation amid the
    /// packet events that led up to it. Cheap when nothing is wrong: one
    /// count comparison per processed event.
    fn emit_new_violations(&mut self) {
        if !self.telemetry.enabled() {
            return;
        }
        let n = self.violation_count();
        if n > self.tel_violations_seen {
            let all = self.invariant_violations();
            for v in &all[self.tel_violations_seen..] {
                let (invariant, detail) = (v.invariant.to_string(), v.detail.clone());
                self.telemetry
                    .emit(self.now, || EventKind::InvariantViolation {
                        invariant,
                        detail,
                    });
            }
            self.tel_violations_seen = n;
        }
    }

    /// Total violations recorded so far, without allocating the merged
    /// report that [`Network::invariant_violations`] builds.
    fn violation_count(&self) -> usize {
        self.clock.violations().len()
            + self
                .links
                .iter()
                .map(|l| l.audit_violations().len())
                .sum::<usize>()
    }
}

impl<P: 'static> Default for Network<P> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcabench_simcore::SimDuration;

    impl<P: 'static> Network<P> {
        /// Panic with a readable report if any invariant was violated.
        fn assert_invariants(&self) {
            let violations = self.invariant_violations();
            if !violations.is_empty() {
                let report: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
                panic!(
                    "{} invariant violation(s):\n{}",
                    violations.len(),
                    report.join("\n")
                );
            }
        }
    }

    /// Sends `count` packets of `size` bytes at fixed spacing.
    struct Source {
        flow: FlowId,
        dst: NodeId,
        count: u64,
        size: usize,
        spacing: SimDuration,
        sent: u64,
    }

    impl Agent<()> for Source {
        fn start(&mut self, ctx: &mut Ctx<'_, ()>) {
            ctx.set_timer_after(SimDuration::ZERO, 0);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_, ()>, _pkt: Packet<()>) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _timer: u64) {
            if self.sent < self.count {
                ctx.send(self.flow, self.dst, self.size, ());
                self.sent += 1;
                ctx.set_timer_after(self.spacing, 0);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Counts received packets and remembers the last arrival time.
    #[derive(Default)]
    struct Sink {
        received: u64,
        bytes: u64,
        last_arrival: Option<SimTime>,
    }

    impl Agent<()> for Sink {
        fn on_packet(&mut self, ctx: &mut Ctx<'_, ()>, pkt: Packet<()>) {
            self.received += 1;
            self.bytes += pkt.size as u64;
            self.last_arrival = Some(ctx.now);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn build_chain(rate_mbps: f64) -> (Network<()>, NodeId, NodeId, NodeId, LinkId) {
        // src -- router -- dst with the shaped hop src->router.
        let mut net = Network::new();
        let src = net.add_node();
        let router = net.add_node();
        let dst = net.add_agent(Box::new(Sink::default()));
        let up = net.add_link(
            src,
            router,
            LinkConfig::mbps(rate_mbps, SimDuration::from_millis(1)),
        );
        let fwd = net.add_link(
            router,
            dst,
            LinkConfig::mbps(1000.0, SimDuration::from_millis(1)),
        );
        net.route(src, dst, up);
        net.route(router, dst, fwd);
        (net, src, router, dst, up)
    }

    #[test]
    fn end_to_end_delivery_and_timing() {
        let (mut net, src, _router, dst, _up) = build_chain(1.0);
        net.set_agent(
            src,
            Box::new(Source {
                flow: FlowId(7),
                dst,
                count: 1,
                size: 1500,
                spacing: SimDuration::from_millis(100),
                sent: 0,
            }),
        );
        net.run_until(SimTime::from_secs(1));
        let sink: &Sink = net.agent(dst);
        assert_eq!(sink.received, 1);
        // 12 ms serialization at 1 Mbps + 1 ms prop + ~0 ms at 1 Gbps + 1 ms prop.
        let t = sink.last_arrival.unwrap();
        assert!(
            t >= SimTime::from_millis(14) && t <= SimTime::from_millis(15),
            "{t}"
        );
    }

    #[test]
    fn conservation_under_overload() {
        // 10 Mbps offered into a 1 Mbps link: sent == delivered + dropped + queued.
        let (mut net, src, _router, dst, up) = build_chain(1.0);
        let count = 500;
        net.set_agent(
            src,
            Box::new(Source {
                flow: FlowId(7),
                dst,
                count,
                size: 1250,
                spacing: SimDuration::from_millis(1), // 10 Mbps
                sent: 0,
            }),
        );
        net.run_until(SimTime::from_secs(2));
        let delivered = net.link(up).stats.total_delivered();
        let dropped = net.link(up).stats.total_dropped();
        let queued = net.link(up).backlog_packets() as u64;
        // +1 for a possible packet in service at cutoff.
        assert!(
            delivered + dropped + queued <= count && delivered + dropped + queued + 1 >= count,
            "delivered={delivered} dropped={dropped} queued={queued}"
        );
        assert!(dropped > 0, "overload must drop");
        let sink: &Sink = net.agent(dst);
        assert_eq!(sink.received, delivered);
    }

    #[test]
    fn telemetry_records_packet_lifecycle() {
        // Same overload setup as `conservation_under_overload`, with a
        // recorder attached: every engine-side drop must appear in the log.
        let (mut net, src, _router, dst, up) = build_chain(1.0);
        let (tel, log) =
            vcabench_telemetry::Telemetry::with_log(vcabench_telemetry::EventLog::unbounded());
        net.set_telemetry(tel);
        net.set_agent(
            src,
            Box::new(Source {
                flow: FlowId(7),
                dst,
                count: 500,
                size: 1250,
                spacing: SimDuration::from_millis(1), // 10 Mbps into 1 Mbps
                sent: 0,
            }),
        );
        net.run_until(SimTime::from_secs(2));
        let dropped = net.link(up).stats.total_dropped();
        assert!(dropped > 0, "overload must drop");
        let log = log.borrow();
        assert_eq!(log.count("packet_drop"), dropped);
        assert!(log.count("packet_enqueue") > 0);
        assert!(log.count("packet_dequeue") > 0);
        // Each link reports its shaping rate the first time it is touched.
        assert!(log.count("rate_step") >= 2);
        // Events land in nondecreasing sim-time order (the JSONL contract).
        let mut last = SimTime::ZERO;
        for ev in log.events() {
            assert!(ev.at >= last, "out of order at {}", ev.at);
            last = ev.at;
        }
    }

    #[test]
    fn shaped_link_matches_configured_rate() {
        let (mut net, src, _router, dst, up) = build_chain(2.0);
        net.set_agent(
            src,
            Box::new(Source {
                flow: FlowId(1),
                dst,
                count: 10_000,
                size: 1250,
                spacing: SimDuration::from_millis(1), // 10 Mbps offered
                sent: 0,
            }),
        );
        net.run_until(SimTime::from_secs(5));
        let rate = net
            .link(up)
            .traces
            .total()
            .rate_mbps_between(SimTime::from_secs(1), SimTime::from_secs(4));
        assert!((rate - 2.0).abs() < 0.1, "measured {rate} Mbps");
    }

    #[test]
    fn unrouted_packet_is_counted() {
        let mut net: Network<()> = Network::new();
        let a = net.add_node();
        let b = net.add_node();
        net.set_agent(
            a,
            Box::new(Source {
                flow: FlowId(0),
                dst: b,
                count: 1,
                size: 100,
                spacing: SimDuration::from_millis(1),
                sent: 0,
            }),
        );
        net.run_until(SimTime::from_secs(1));
        assert_eq!(net.unrouted_drops, 1);
    }

    #[test]
    fn default_route_forwards_unknown_destinations() {
        let mut net: Network<()> = Network::new();
        let src = net.add_node();
        let router = net.add_node();
        let dst = net.add_agent(Box::new(Sink::default()));
        let l1 = net.add_link(src, router, LinkConfig::mbps(10.0, SimDuration::ZERO));
        let l2 = net.add_link(router, dst, LinkConfig::mbps(10.0, SimDuration::ZERO));
        net.default_route(src, l1);
        net.default_route(router, l2);
        net.set_agent(
            src,
            Box::new(Source {
                flow: FlowId(0),
                dst,
                count: 3,
                size: 100,
                spacing: SimDuration::from_millis(1),
                sent: 0,
            }),
        );
        net.run_until(SimTime::from_secs(1));
        assert_eq!(net.agent::<Sink>(dst).received, 3);
    }

    /// An overloaded link (drops, deep queue, rate shaping) must still
    /// satisfy every audit: conservation, occupancy, FIFO, capacity,
    /// monotonic time.
    #[cfg_attr(not(debug_assertions), ignore = "audit hooks need debug assertions")]
    #[test]
    fn invariants_clean_under_overload() {
        let (mut net, src, _router, dst, up) = build_chain(1.0);
        net.set_agent(
            src,
            Box::new(Source {
                flow: FlowId(7),
                dst,
                count: 500,
                size: 1250,
                spacing: SimDuration::from_millis(1),
                sent: 0,
            }),
        );
        net.run_until(SimTime::from_secs(2));
        assert!(net.link(up).stats.total_dropped() > 0, "overload must drop");
        let (clock, links) = net.invariant_checks();
        assert!(clock > 500 && links > 1_000, "audits ran: {clock} {links}");
        net.assert_invariants();
    }

    /// The telemetry-disabled path must be free: a run with the default
    /// disabled handle is event-for-event identical to one with a live
    /// recorder (telemetry never perturbs simulation), and the disabled
    /// handle reports `enabled() == false` so the engine's hot paths skip
    /// all argument gathering (the recorder layer separately proves the
    /// event closure is never even built).
    #[test]
    fn disabled_telemetry_is_inert() {
        let run = |with_recorder: bool| {
            let (mut net, src, _router, dst, up) = build_chain(2.0);
            let log = if with_recorder {
                let (tel, log) = vcabench_telemetry::Telemetry::with_log(
                    vcabench_telemetry::EventLog::unbounded(),
                );
                net.set_telemetry(tel);
                Some(log)
            } else {
                assert!(!net.telemetry().enabled(), "default handle is disabled");
                None
            };
            net.set_agent(
                src,
                Box::new(Source {
                    flow: FlowId(7),
                    dst,
                    count: 200,
                    size: 1250,
                    spacing: SimDuration::from_millis(1),
                    sent: 0,
                }),
            );
            net.run_until(SimTime::from_secs(1));
            let events = log.map(|l| l.borrow().events().count()).unwrap_or(0);
            (
                net.engine_stats(),
                net.link(up).stats.total_delivered(),
                net.agent::<Sink>(dst).bytes,
                events,
            )
        };
        let (stats_off, delivered_off, bytes_off, events_off) = run(false);
        let (stats_on, delivered_on, bytes_on, events_on) = run(true);
        assert_eq!(stats_off, stats_on, "telemetry changed engine behavior");
        assert_eq!(delivered_off, delivered_on);
        assert_eq!(bytes_off, bytes_on);
        assert_eq!(events_off, 0, "disabled handle must record nothing");
        assert!(events_on > 0, "recorder saw the same run");
    }

    #[test]
    fn run_until_never_rewinds_the_clock() {
        /// Records `ctx.now` at start and arms a relative timer.
        #[derive(Default)]
        struct Late {
            started_at: Option<SimTime>,
            fired_at: Option<SimTime>,
        }
        impl Agent<()> for Late {
            fn start(&mut self, ctx: &mut Ctx<'_, ()>) {
                self.started_at = Some(ctx.now);
                ctx.set_timer_after(SimDuration::from_millis(1), 0);
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_, ()>, _pkt: Packet<()>) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _timer: u64) {
                self.fired_at = Some(ctx.now);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let (mut net, src, _router, dst, _up) = build_chain(1.0);
        net.set_agent(
            src,
            Box::new(Source {
                flow: FlowId(7),
                dst,
                count: 10,
                size: 1250,
                spacing: SimDuration::from_millis(100),
                sent: 0,
            }),
        );
        net.run_until(SimTime::from_secs(2));
        // A caller scripting the call mid-run asks for a time already past.
        net.run_until(SimTime::from_secs(1));
        assert_eq!(net.now(), SimTime::from_secs(2), "the clock is monotone");
        let late = net.add_node();
        net.set_agent(late, Box::new(Late::default()));
        net.run_until(SimTime::from_secs(3));
        let agent: &Late = net.agent(late);
        assert_eq!(agent.started_at, Some(SimTime::from_secs(2)));
        assert_eq!(agent.fired_at, Some(SimTime::from_millis(2_001)));
        if cfg!(debug_assertions) {
            net.assert_invariants();
        }
    }

    /// A sender on a node with one impaired, shallow, slow link towards
    /// `dst` and no route at all towards `nowhere`.
    fn lossy_pair() -> (Network<()>, NodeId, NodeId, NodeId, LinkId) {
        let mut net = Network::new();
        let src = net.add_node();
        let dst = net.add_agent(Box::new(Sink::default()));
        let nowhere = net.add_node();
        let cfg = LinkConfig::mbps(1.0, SimDuration::from_millis(20))
            .with_queue_bytes(5_000)
            .with_drop_every(7);
        let link = net.add_link(src, dst, cfg);
        (net, src, dst, nowhere, link)
    }

    #[test]
    fn every_drop_frees_its_handle() {
        // 10 Mbps into an impaired 1 Mbps link with a 4-packet queue, then
        // packets to a node nothing routes to.
        let (mut net, src, dst, nowhere, link) = lossy_pair();
        let burst = |dst, count| Source {
            flow: FlowId(7),
            dst,
            count,
            size: 1250,
            spacing: SimDuration::from_millis(1),
            sent: 0,
        };
        net.set_agent(src, Box::new(burst(dst, 300)));
        let mut peak_in_flight = 0;
        for ms in 1..=400 {
            net.run_until(SimTime::from_millis(ms));
            peak_in_flight = peak_in_flight.max(net.packets.len());
            let held = net.link(link).held_packets();
            assert!(net.packets.len() >= held, "a queued packet lost its handle");
        }
        let impaired = 300 / 7;
        let dropped = net.link(link).stats.total_dropped();
        assert!(dropped > impaired, "queue-full drops too");
        // Only the queue, the wire and the 20 ms of propagation hold
        // packets: dropped ones must not.
        assert!(peak_in_flight <= 4 + 1 + 3, "peak {peak_in_flight}");
        net.run_until(SimTime::from_secs(2));
        let delivered = net.link(link).stats.total_delivered();
        assert_eq!(net.agent::<Sink>(dst).received, delivered);
        assert!(net.packets.is_empty(), "delivered, or dropped and freed");

        let stray = net.add_node();
        net.set_agent(stray, Box::new(burst(nowhere, 50)));
        net.run_until(SimTime::from_secs(3));
        assert_eq!(net.unrouted_drops, 50);
        assert!(net.packets.is_empty(), "unrouted packets are freed");
        // +1: a packet about to be dropped is in the slab while offered.
        assert!(
            net.packets.slots() <= peak_in_flight + 1,
            "slab grew to {} slots for a peak of {peak_in_flight} in flight",
            net.packets.slots()
        );
        if cfg!(debug_assertions) {
            net.assert_invariants();
        }
    }

    #[cfg_attr(not(debug_assertions), ignore = "audit hooks need debug assertions")]
    #[test]
    fn a_leaked_handle_fails_the_audit() {
        let (mut net, src, dst, _nowhere, _link) = lossy_pair();
        net.set_agent(
            src,
            Box::new(Source {
                flow: FlowId(7),
                dst,
                count: 20,
                size: 1250,
                spacing: SimDuration::from_millis(1),
                sent: 0,
            }),
        );
        // Mid-run, with packets queued, in service and propagating.
        net.run_until(SimTime::from_millis(15));
        assert!(net.packets.len() >= 3);
        net.assert_invariants();
        let leaked = net.packets.insert(Packet {
            id: u64::MAX,
            flow: FlowId(7),
            src,
            dst,
            size: 1,
            sent_at: net.now(),
            payload: (),
        });
        let names: Vec<_> = net
            .invariant_violations()
            .iter()
            .map(|v| v.invariant)
            .collect();
        assert_eq!(names, vec!["packet-handles"]);
        net.packets.remove(leaked);
        net.assert_invariants();
    }

    #[test]
    fn engine_event_is_two_words() {
        let event_bytes = std::mem::size_of::<Event>();
        assert!(event_bytes <= 16, "{event_bytes}");
        assert_eq!(std::mem::size_of::<PacketHandle>(), 4);
    }

    #[test]
    fn loopback_send_delivers_to_self() {
        struct SelfSender {
            got: bool,
        }
        impl Agent<()> for SelfSender {
            fn start(&mut self, ctx: &mut Ctx<'_, ()>) {
                let me = ctx.node;
                ctx.send(FlowId(0), me, 10, ());
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_, ()>, _pkt: Packet<()>) {
                self.got = true;
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut net = Network::new();
        let n = net.add_agent(Box::new(SelfSender { got: false }));
        net.run_until(SimTime::from_millis(1));
        assert!(net.agent::<SelfSender>(n).got);
    }
}
