//! # vcabench-netsim
//!
//! Packet-level network simulator for vcabench: links with `tc`-style rate
//! profiles and drop-tail queues, static-routed topologies, and per-flow
//! throughput traces.
//!
//! This crate plays the role of the paper's laboratory network (§2.2): the
//! two laptops, home router, switch, and shaped access links become nodes
//! and [`Link`]s; Linux `tc` shaping becomes a [`RateProfile`]; the passive
//! traffic captures become [`trace::FlowTraces`]. VCA clients, servers, and
//! competing applications attach to nodes as [`Agent`]s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod link;
pub mod network;
pub mod packet;
pub mod profile;
pub mod topology;
pub mod trace;

pub use link::{EnqueueOutcome, FlowCount, Link, LinkConfig, LinkStats};
pub use network::{Agent, Ctx, EngineStats, Network, PacketHandle};
pub use packet::{FlowId, LinkId, NodeId, Packet};
pub use profile::RateProfile;
pub use trace::{BinTrace, FlowTraces};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use vcabench_simcore::{SimDuration, SimTime};

    proptest! {
        /// Multiparty topologies of any size wire every client to the server
        /// and back (no unrouted packets for any pair).
        #[test]
        fn multiparty_topology_fully_routed(n in 2usize..12) {
            use crate::network::{Agent, Ctx};
            use std::any::Any;

            struct Ping { dst: NodeId, got: bool }
            impl Agent<u8> for Ping {
                fn start(&mut self, ctx: &mut Ctx<'_, u8>) {
                    ctx.send(FlowId(1), self.dst, 64, 0);
                }
                fn on_packet(&mut self, _ctx: &mut Ctx<'_, u8>, pkt: Packet<u8>) {
                    if pkt.payload == 1 { self.got = true; }
                }
                fn as_any(&self) -> &dyn Any { self }
                fn as_any_mut(&mut self) -> &mut dyn Any { self }
            }
            struct Echo;
            impl Agent<u8> for Echo {
                fn on_packet(&mut self, ctx: &mut Ctx<'_, u8>, pkt: Packet<u8>) {
                    ctx.send(pkt.flow, pkt.src, pkt.size, 1);
                }
                fn as_any(&self) -> &dyn Any { self }
                fn as_any_mut(&mut self) -> &mut dyn Any { self }
            }

            let mut net: Network<u8> = Network::new();
            let ten = || topology::star_access(RateProfile::constant_mbps(10.0));
            let topo = topology::multiparty_on(&mut net, n, ten(), ten());
            for &c in &topo.clients {
                net.set_agent(c, Box::new(Ping { dst: topo.server, got: false }));
            }
            net.set_agent(topo.server, Box::new(Echo));
            net.run_until(SimTime::from_secs(2));
            prop_assert_eq!(net.unrouted_drops, 0);
            for &c in &topo.clients {
                prop_assert!(net.agent::<Ping>(c).got, "client {} unreachable", c);
            }
        }

        /// Jitter never delivers a packet before the base propagation delay
        /// and never beyond base + jitter.
        #[test]
        fn jitter_bounded(pkt_id in 0u64..10_000, jitter_ms in 1u64..200) {
            let mut cfg = link::LinkConfig::mbps(10.0, SimDuration::from_millis(10));
            cfg.jitter = SimDuration::from_millis(jitter_ms);
            let l: link::Link<()> = link::Link::new(cfg, NodeId(1));
            let d = l.delay_for(pkt_id);
            prop_assert!(d >= SimDuration::from_millis(10));
            prop_assert!(d <= SimDuration::from_millis(10 + jitter_ms));
        }

        /// Over any measurement window, a link's delivered bytes never imply
        /// a rate above its configured capacity (plus quantization slack).
        #[test]
        fn link_never_exceeds_rate(
            rate_kbps in 100u64..10_000,
            sizes in proptest::collection::vec(64usize..1500, 10..200),
        ) {
            let rate = rate_kbps as f64 * 1000.0;
            let cfg = link::LinkConfig::mbps(1.0, SimDuration::ZERO)
                .with_profile(RateProfile::constant(rate))
                .with_queue_bytes(usize::MAX >> 1);
            let mut l: link::Link<()> = link::Link::new(cfg, NodeId(1));
            let mut now = SimTime::ZERO;
            let mut pending: Option<SimTime> = None;
            // Offer everything at t=0; drain by following completion times.
            for (i, &s) in sizes.iter().enumerate() {
                let pkt = Packet { id: i as u64, flow: FlowId(0), src: NodeId(0), dst: NodeId(1), size: s, sent_at: now, payload: () };
                if let link::EnqueueOutcome::StartTx(t) = l.enqueue(now, pkt) {
                    pending = Some(t);
                }
            }
            let mut last_done = SimTime::ZERO;
            while let Some(t) = pending {
                now = t;
                last_done = t;
                let (_, next) = l.complete(now);
                pending = next;
            }
            let total_bytes: usize = sizes.iter().sum();
            let implied = total_bytes as f64 * 8.0 / last_done.as_secs_f64();
            prop_assert!(implied <= rate * 1.01, "implied {implied} > {rate}");
        }

        /// Byte conservation at the queue: every offered packet is exactly one
        /// of delivered, dropped, queued, or in service.
        #[test]
        fn queue_conserves_packets(
            sizes in proptest::collection::vec(64usize..1500, 1..100),
            queue_bytes in 1000usize..20_000,
        ) {
            let cfg = link::LinkConfig::mbps(0.5, SimDuration::ZERO).with_queue_bytes(queue_bytes);
            let mut l: link::Link<()> = link::Link::new(cfg, NodeId(1));
            let mut dropped_now = 0u64;
            for (i, &s) in sizes.iter().enumerate() {
                let pkt = Packet { id: i as u64, flow: FlowId(0), src: NodeId(0), dst: NodeId(1), size: s, sent_at: SimTime::ZERO, payload: () };
                if matches!(l.enqueue(SimTime::ZERO, pkt), link::EnqueueOutcome::Dropped) {
                    dropped_now += 1;
                }
            }
            let in_service = 1u64; // first packet always enters service
            prop_assert_eq!(
                sizes.len() as u64,
                in_service + l.backlog_packets() as u64 + dropped_now
            );
            prop_assert_eq!(l.stats.total_dropped(), dropped_now);
        }
    }
}
