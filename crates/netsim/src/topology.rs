//! Topology builders matching the paper's laboratory setups (§2.2, §5, §6).
//!
//! Three shapes cover every experiment:
//!
//! * **Two-party** (§2.2): client C1 behind a shaped access link to the home
//!   router, a fast path to the VCA relay/SFU server, and an unconstrained
//!   counter-party C2.
//! * **Competition** (§5, Fig 7): C1 and the competing host F1 sit behind a
//!   switch; the switch↔router link is the shaped shared bottleneck; C2, the
//!   VCA server, and the competing application's remote endpoint F2 are all
//!   on the far side.
//! * **Multiparty** (§6): N clients, each with its own access link, all
//!   connected to one SFU server.
//!
//! Builders create nodes, links, and routes around the measured hops the
//! caller passes in (start from [`access`] or [`star_access`]); the caller
//! attaches agents to the returned node ids afterwards.

use vcabench_simcore::SimDuration;

use crate::link::LinkConfig;
use crate::network::Network;
use crate::packet::{LinkId, NodeId};
use crate::profile::RateProfile;

/// Default one-way delay of the access hop (client ↔ home router).
pub const ACCESS_DELAY: SimDuration = SimDuration::from_millis(2);
/// Default one-way delay of the wide-area hop (router ↔ VCA server).
pub const WAN_DELAY: SimDuration = SimDuration::from_millis(15);
/// Rate of unconstrained hops: the paper's dedicated 1 Gbps line.
pub const UNCONSTRAINED_MBPS: f64 = 1000.0;
/// Queue size of the shaped access hop. 32 KiB ≈ 250 ms of buffer at 1 Mbps,
/// in the range of consumer router defaults.
pub const ACCESS_QUEUE_BYTES: usize = 32 * 1024;

fn fast(delay: SimDuration) -> LinkConfig {
    LinkConfig::mbps(UNCONSTRAINED_MBPS, delay).with_queue_bytes(1 << 20)
}

fn shaped(profile: RateProfile, delay: SimDuration) -> LinkConfig {
    LinkConfig::mbps(1.0, delay)
        .with_profile(profile)
        .with_queue_bytes(ACCESS_QUEUE_BYTES)
}

/// Node and link ids of the two-party topology.
#[derive(Debug, Clone, Copy)]
pub struct TwoParty {
    /// The measured client (behind the shaped link).
    pub c1: NodeId,
    /// The VCA relay/SFU server.
    pub server: NodeId,
    /// The unconstrained counter-party.
    pub c2: NodeId,
    /// Shaped uplink C1 → router.
    pub c1_up: LinkId,
    /// Shaped downlink router → C1.
    pub c1_down: LinkId,
    /// Router → server (unconstrained WAN).
    pub wan_up: LinkId,
    /// Server → router.
    pub wan_down: LinkId,
    /// C2 → server.
    pub c2_up: LinkId,
    /// Server → C2.
    pub c2_down: LinkId,
}

/// The default C1 access hop under `profile`: [`ACCESS_DELAY`] and an
/// [`ACCESS_QUEUE_BYTES`] queue. Impairment studies start from this and
/// change the fields they sweep.
pub fn access(profile: RateProfile) -> LinkConfig {
    shaped(profile, ACCESS_DELAY)
}

/// Build the §2.2 two-party topology around an arbitrary C1 access pair
/// (`c1_up`: C1 → router, `c1_down`: router → C1); every other hop is the
/// unconstrained WAN.
pub fn two_party_on<P: 'static>(
    net: &mut Network<P>,
    c1_up: LinkConfig,
    c1_down: LinkConfig,
) -> TwoParty {
    let c1 = net.add_node();
    let router = net.add_node();
    let server = net.add_node();
    let c2 = net.add_node();

    let c1_up = net.add_link(c1, router, c1_up);
    let c1_down = net.add_link(router, c1, c1_down);
    let wan_up = net.add_link(router, server, fast(WAN_DELAY));
    let wan_down = net.add_link(server, router, fast(WAN_DELAY));
    let c2_up = net.add_link(c2, server, fast(WAN_DELAY));
    let c2_down = net.add_link(server, c2, fast(WAN_DELAY));

    // Everything C1 sends goes up its access link; the router forwards
    // upstream to the server side and downstream to C1.
    net.default_route(c1, c1_up);
    net.default_route(router, wan_up);
    net.route(router, c1, c1_down);
    net.default_route(c2, c2_up);
    net.route(server, c1, wan_down);
    net.route(server, c2, c2_down);

    TwoParty {
        c1,
        server,
        c2,
        c1_up,
        c1_down,
        wan_up,
        wan_down,
        c2_up,
        c2_down,
    }
}

/// Node and link ids of the §5 competition topology (Fig 7).
#[derive(Debug, Clone, Copy)]
pub struct Competition {
    /// Incumbent VCA client.
    pub c1: NodeId,
    /// Competing host (second VCA client, iPerf3 client, or streaming client).
    pub f1: NodeId,
    /// VCA server for the incumbent call.
    pub vca_server: NodeId,
    /// Remote endpoint of the competing application (second VCA server,
    /// iPerf3 server, or CDN).
    pub f_server: NodeId,
    /// Counter-party of the incumbent call.
    pub c2: NodeId,
    /// Counter-party of a competing VCA call (unused otherwise).
    pub f2: NodeId,
    /// Shared bottleneck switch → router (uplink direction).
    pub bottleneck_up: LinkId,
    /// Shared bottleneck router → switch (downlink direction).
    pub bottleneck_down: LinkId,
}

/// Build the competition topology around an arbitrary bottleneck pair
/// (`up`: switch → router, `down`: router → switch).
pub fn competition_on<P: 'static>(
    net: &mut Network<P>,
    up: LinkConfig,
    down: LinkConfig,
) -> Competition {
    let c1 = net.add_node();
    let f1 = net.add_node();
    let switch = net.add_node();
    let router = net.add_node();
    let vca_server = net.add_node();
    let f_server = net.add_node();
    let c2 = net.add_node();
    let f2 = net.add_node();

    // LAN hops: sub-millisecond, gigabit.
    let lan = SimDuration::from_micros(200);
    let (c1_up, c1_down) = net.add_duplex(c1, switch, fast(lan), fast(lan));
    let (f1_up, f1_down) = net.add_duplex(f1, switch, fast(lan), fast(lan));
    let bottleneck_up = net.add_link(switch, router, up);
    let bottleneck_down = net.add_link(router, switch, down);
    let (wan_up, wan_down) = net.add_duplex(router, vca_server, fast(WAN_DELAY), fast(WAN_DELAY));
    // The iPerf3 server in the paper is close (2 ms RTT); CDNs are farther.
    // We place F2's server one WAN hop away and let experiments tune delay by
    // reconfiguring if needed.
    let (fwan_up, fwan_down) = net.add_duplex(router, f_server, fast(WAN_DELAY), fast(WAN_DELAY));
    let (c2_up, c2_down) = net.add_duplex(c2, vca_server, fast(WAN_DELAY), fast(WAN_DELAY));
    let (f2_up, f2_down) = net.add_duplex(f2, f_server, fast(WAN_DELAY), fast(WAN_DELAY));

    net.default_route(c1, c1_up);
    net.default_route(f1, f1_up);
    net.default_route(switch, bottleneck_up);
    net.route(switch, c1, c1_down);
    net.route(switch, f1, f1_down);
    net.default_route(router, wan_up);
    net.route(router, c1, bottleneck_down);
    net.route(router, f1, bottleneck_down);
    net.route(router, f_server, fwan_up);
    net.route(router, f2, fwan_up);
    net.default_route(c2, c2_up);
    net.default_route(f2, f2_up);
    net.route(vca_server, c1, wan_down);
    net.route(vca_server, c2, c2_down);
    net.route(f_server, f1, fwan_down);
    net.route(f_server, f2, f2_down);

    Competition {
        c1,
        f1,
        vca_server,
        f_server,
        c2,
        f2,
        bottleneck_up,
        bottleneck_down,
    }
}

/// Node and link ids of the §6 multiparty topology.
#[derive(Debug, Clone)]
pub struct Multiparty {
    /// Clients C1..Cn. C1 is the measured client.
    pub clients: Vec<NodeId>,
    /// The SFU server all clients connect to.
    pub server: NodeId,
    /// Shaped uplink of each client.
    pub uplinks: Vec<LinkId>,
    /// Shaped downlink of each client.
    pub downlinks: Vec<LinkId>,
}

/// The default access path of one star client under `profile`: the access
/// and WAN hops of the two-party setup folded into one link.
pub fn star_access(profile: RateProfile) -> LinkConfig {
    shaped(profile, ACCESS_DELAY + WAN_DELAY)
}

/// Build an N-party star with every client on a copy of the access pair
/// (`up`: client → server, `down`: server → client).
pub fn multiparty_on<P: 'static>(
    net: &mut Network<P>,
    n: usize,
    up: LinkConfig,
    down: LinkConfig,
) -> Multiparty {
    assert!(n >= 2, "a call needs at least two clients");
    let server = net.add_node();
    let mut clients = Vec::with_capacity(n);
    let mut uplinks = Vec::with_capacity(n);
    let mut downlinks = Vec::with_capacity(n);
    for _ in 0..n {
        let c = net.add_node();
        let ul = net.add_link(c, server, up.clone());
        let dl = net.add_link(server, c, down.clone());
        net.default_route(c, ul);
        net.route(server, c, dl);
        clients.push(c);
        uplinks.push(ul);
        downlinks.push(dl);
    }
    Multiparty {
        clients,
        server,
        uplinks,
        downlinks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Agent, Ctx};
    use crate::packet::{FlowId, Packet};
    use std::any::Any;
    use vcabench_simcore::SimTime;

    struct Ping {
        dst: NodeId,
        echoed: bool,
    }
    impl Agent<u8> for Ping {
        fn start(&mut self, ctx: &mut Ctx<'_, u8>) {
            ctx.send(FlowId(1), self.dst, 100, 0);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_, u8>, pkt: Packet<u8>) {
            assert_eq!(pkt.payload, 1);
            self.echoed = true;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    struct Echo;
    impl Agent<u8> for Echo {
        fn on_packet(&mut self, ctx: &mut Ctx<'_, u8>, pkt: Packet<u8>) {
            ctx.send(pkt.flow, pkt.src, pkt.size, 1);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn two_party_round_trip() {
        let mut net: Network<u8> = Network::new();
        let ten = || access(RateProfile::constant_mbps(10.0));
        let topo = two_party_on(&mut net, ten(), ten());
        net.set_agent(
            topo.c1,
            Box::new(Ping {
                dst: topo.c2,
                echoed: false,
            }),
        );
        net.set_agent(topo.c2, Box::new(Echo));
        net.run_until(SimTime::from_secs(1));
        assert!(net.agent::<Ping>(topo.c1).echoed, "C1 <-> C2 path broken");
        assert_eq!(net.unrouted_drops, 0);
    }

    #[test]
    fn competition_paths_work() {
        let mut net: Network<u8> = Network::new();
        let ten = || access(RateProfile::constant_mbps(10.0));
        let topo = competition_on(&mut net, ten(), ten());
        net.set_agent(
            topo.c1,
            Box::new(Ping {
                dst: topo.c2,
                echoed: false,
            }),
        );
        net.set_agent(topo.c2, Box::new(Echo));
        net.set_agent(
            topo.f1,
            Box::new(Ping {
                dst: topo.f_server,
                echoed: false,
            }),
        );
        net.set_agent(topo.f_server, Box::new(Echo));
        net.run_until(SimTime::from_secs(1));
        assert!(net.agent::<Ping>(topo.c1).echoed);
        assert!(net.agent::<Ping>(topo.f1).echoed);
        assert_eq!(net.unrouted_drops, 0);
        // Both flows crossed the shared bottleneck.
        let up = net.link(topo.bottleneck_up);
        assert!(up.stats.total_delivered() >= 2);
    }

    #[test]
    fn multiparty_star_connects_all() {
        let mut net: Network<u8> = Network::new();
        let ten = || star_access(RateProfile::constant_mbps(10.0));
        let topo = multiparty_on(&mut net, 4, ten(), ten());
        // Every client pings the server.
        for &c in &topo.clients {
            net.set_agent(
                c,
                Box::new(Ping {
                    dst: topo.server,
                    echoed: false,
                }),
            );
        }
        net.set_agent(topo.server, Box::new(Echo));
        net.run_until(SimTime::from_secs(1));
        for &c in &topo.clients {
            assert!(net.agent::<Ping>(c).echoed, "client {c} unreachable");
        }
        assert_eq!(net.unrouted_drops, 0);
    }
}
