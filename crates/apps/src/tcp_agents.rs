//! Generic TCP endpoint agents: a bulk sender and an acking sink.
//!
//! These wrap `vcabench-transport`'s [`Connection`]/[`TcpReceiver`] state
//! machines into network agents. The iPerf3 model (§5.2) is a bulk sender
//! with an activation window; the streaming models build on the same
//! plumbing with application logic on top.

use std::any::Any;

use vcabench_netsim::{Agent, Ctx, FlowId, NodeId, Packet};
use vcabench_simcore::{SimDuration, SimTime, SmallMap};
use vcabench_transport::{
    tcp::{Connection, SendAction, TcpConfig},
    wire::{TcpSegment, Wire},
    TcpReceiver,
};

/// Sender tick interval (drives RTO checks and window refills).
/// engineering: fine against the shortest RTT simulated.
pub const TCP_TICK: SimDuration = SimDuration::from_millis(5);
/// engineering: a timer id.
const TIMER_TICK: u64 = 1;
/// engineering: a timer id.
const TIMER_START: u64 = 2;
/// The connection id a bulk sender's segments carry.
/// engineering: a bulk sender runs one connection.
const BULK_CONN: u64 = 1;

/// Put the segments a [`Connection`] emitted on the wire to `peer`.
pub(crate) fn pump(
    ctx: &mut Ctx<'_, Wire>,
    flow: FlowId,
    peer: NodeId,
    conn_id: u64,
    actions: impl IntoIterator<Item = SendAction>,
) {
    for a in actions {
        let seg = TcpSegment {
            conn: conn_id,
            seq: a.seq,
            len: a.len,
            ack: None,
        };
        ctx.send(flow, peer, seg.wire_size(), Wire::Tcp(seg));
    }
}

/// A bulk TCP sender (the iPerf3 client or any one-directional upload).
pub struct TcpSenderAgent {
    /// The TCP state machine.
    pub conn: Connection,
    peer: NodeId,
    flow: FlowId,
    /// When to start sending.
    pub active_from: SimTime,
    /// When to stop (no new data after this instant).
    pub active_until: SimTime,
    started: bool,
    stopped: bool,
}

impl TcpSenderAgent {
    /// Bulk sender toward `peer` on `flow`, active in the given window.
    pub fn new(peer: NodeId, flow: FlowId, active_from: SimTime, active_until: SimTime) -> Self {
        TcpSenderAgent {
            conn: Connection::new(TcpConfig, None),
            peer,
            flow,
            active_from,
            active_until,
            started: false,
            stopped: false,
        }
    }

    /// Bytes acknowledged end-to-end.
    pub fn bytes_acked(&self) -> u64 {
        self.conn.bytes_acked()
    }
}

impl Agent<Wire> for TcpSenderAgent {
    fn start(&mut self, ctx: &mut Ctx<'_, Wire>) {
        if self.active_from > ctx.now {
            ctx.set_timer_at(self.active_from, TIMER_START);
        } else {
            self.started = true;
            ctx.set_timer_after(TCP_TICK, TIMER_TICK);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Wire>, pkt: Packet<Wire>) {
        if self.stopped {
            return;
        }
        if let Wire::Tcp(seg) = &pkt.payload {
            if seg.conn == BULK_CONN {
                if let Some(ack) = seg.ack {
                    let actions = self.conn.on_ack(ctx.now, ack);
                    pump(ctx, self.flow, self.peer, BULK_CONN, actions);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire>, timer: u64) {
        match timer {
            TIMER_START => {
                self.started = true;
                ctx.set_timer_after(SimDuration::ZERO, TIMER_TICK);
            }
            TIMER_TICK => {
                if ctx.now >= self.active_until {
                    self.stopped = true;
                    return; // stop ticking: flow ends
                }
                if self.started {
                    let actions = self.conn.on_tick(ctx.now);
                    pump(ctx, self.flow, self.peer, BULK_CONN, actions);
                    ctx.set_timer_after(TCP_TICK, TIMER_TICK);
                }
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A TCP sink: acknowledges everything it receives, per connection id.
pub struct TcpSinkAgent {
    /// Per-connection receiver state.
    pub receivers: SmallMap<u64, TcpReceiver>,
    /// Flow id used for the ACK traffic (reverse direction).
    pub ack_flow: FlowId,
}

impl TcpSinkAgent {
    /// Sink acking on `ack_flow`.
    pub fn new(ack_flow: FlowId) -> Self {
        TcpSinkAgent {
            receivers: SmallMap::new(),
            ack_flow,
        }
    }
}

impl Agent<Wire> for TcpSinkAgent {
    fn on_packet(&mut self, ctx: &mut Ctx<'_, Wire>, pkt: Packet<Wire>) {
        if let Wire::Tcp(seg) = &pkt.payload {
            if seg.len > 0 {
                let ack = self
                    .receivers
                    .get_or_insert_with(seg.conn, TcpReceiver::new)
                    .on_segment(seg.seq, seg.len);
                let rsp = TcpSegment {
                    conn: seg.conn,
                    seq: 0,
                    len: 0,
                    ack: Some(ack),
                };
                ctx.send(self.ack_flow, pkt.src, rsp.wire_size(), Wire::Tcp(rsp));
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcabench_netsim::{LinkConfig, Network, RateProfile};

    impl TcpSinkAgent {
        /// Total bytes received across connections.
        fn total_bytes(&self) -> u64 {
            self.receivers.values().map(|r| r.bytes_received).sum()
        }
    }

    fn pipe_net(rate_mbps: f64) -> (Network<Wire>, NodeId, NodeId) {
        let mut net: Network<Wire> = Network::new();
        let a = net.add_node();
        let b = net.add_node();
        let cfg = LinkConfig::mbps(1.0, SimDuration::from_millis(10))
            .with_profile(RateProfile::constant_mbps(rate_mbps))
            .with_queue_bytes(32 * 1024);
        let l1 = net.add_link(a, b, cfg.clone());
        let l2 = net.add_link(b, a, LinkConfig::mbps(1000.0, SimDuration::from_millis(10)));
        net.route(a, b, l1);
        net.route(b, a, l2);
        (net, a, b)
    }

    #[test]
    fn bulk_sender_fills_pipe() {
        let (mut net, a, b) = pipe_net(2.0);
        let end = SimTime::from_secs(30);
        net.set_agent(
            a,
            Box::new(TcpSenderAgent::new(b, FlowId(1), SimTime::ZERO, end)),
        );
        net.set_agent(b, Box::new(TcpSinkAgent::new(FlowId(2))));
        net.run_until(end);
        let sink: &TcpSinkAgent = net.agent(b);
        let goodput = sink.total_bytes() as f64 * 8.0 / 30.0 / 1e6;
        assert!(
            goodput > 1.6 && goodput < 2.05,
            "goodput {goodput} on 2 Mbps pipe"
        );
    }

    #[test]
    fn activation_window_respected() {
        let (mut net, a, b) = pipe_net(10.0);
        net.set_agent(
            a,
            Box::new(TcpSenderAgent::new(
                b,
                FlowId(1),
                SimTime::from_secs(5),
                SimTime::from_secs(10),
            )),
        );
        net.set_agent(b, Box::new(TcpSinkAgent::new(FlowId(2))));
        net.run_until(SimTime::from_secs(4));
        assert_eq!(
            net.agent::<TcpSinkAgent>(b).total_bytes(),
            0,
            "not yet active"
        );
        net.run_until(SimTime::from_secs(20));
        let sink: &TcpSinkAgent = net.agent(b);
        let bytes_at_20 = sink.total_bytes();
        assert!(bytes_at_20 > 1_000_000, "sent while active: {bytes_at_20}");
        net.run_until(SimTime::from_secs(25));
        let after = net.agent::<TcpSinkAgent>(b).total_bytes();
        // Only in-flight stragglers after the window closes.
        assert!(
            after - bytes_at_20 < 200_000,
            "tail {}",
            after - bytes_at_20
        );
    }
}
