//! Call orchestration: wiring clients and a server onto a topology.
//!
//! This is the simulation's stand-in for the paper's PyAutoGUI automation
//! (§2.2): it "joins" every participant, sets viewing modes, and assigns the
//! flow ids the measurement infrastructure traces.

use vcabench_netsim::{topology, FlowId, Network, NodeId, RateProfile};
use vcabench_simcore::SimRng;
use vcabench_transport::Wire;

use crate::client::VcaClient;
use crate::config::VcaKind;
use crate::layout::ViewMode;
use crate::server::VcaServer;

/// Handles to an established call.
#[derive(Debug, Clone)]
pub struct CallHandles {
    /// Application the call runs.
    pub kind: VcaKind,
    /// Server node.
    pub server: NodeId,
    /// Client nodes, by call index.
    pub clients: Vec<NodeId>,
    /// Uplink flow of each client (client → server traffic).
    pub up_flows: Vec<FlowId>,
    /// Downlink flow of each client (server → client traffic).
    pub down_flows: Vec<FlowId>,
}

/// Attach a call of `kind` to existing nodes: one [`VcaClient`] per entry of
/// `clients` and a [`VcaServer`] at `server`. Flow ids are derived from
/// `flow_base` (uplink `flow_base + 2i`, downlink `flow_base + 2i + 1`).
pub fn wire_call(
    net: &mut Network<Wire>,
    kind: VcaKind,
    server: NodeId,
    clients: &[NodeId],
    modes: &[ViewMode],
    flow_base: u64,
    rng: &mut SimRng,
) -> CallHandles {
    wire_call_at(
        net,
        kind,
        server,
        clients,
        modes,
        flow_base,
        rng,
        vcabench_simcore::SimTime::ZERO,
    )
}

/// Like [`wire_call`], with every client joining at `join_at` (the paper's
/// staggered competition starts, §5).
#[allow(clippy::too_many_arguments)]
pub fn wire_call_at(
    net: &mut Network<Wire>,
    kind: VcaKind,
    server: NodeId,
    clients: &[NodeId],
    modes: &[ViewMode],
    flow_base: u64,
    rng: &mut SimRng,
    join_at: vcabench_simcore::SimTime,
) -> CallHandles {
    assert!(clients.len() >= 2, "a call needs two participants");
    assert_eq!(clients.len(), modes.len());
    let up_flows: Vec<FlowId> = (0..clients.len())
        .map(|i| FlowId(flow_base + 2 * i as u64))
        .collect();
    let down_flows: Vec<FlowId> = (0..clients.len())
        .map(|i| FlowId(flow_base + 2 * i as u64 + 1))
        .collect();
    net.set_agent(
        server,
        Box::new(VcaServer::new(kind, clients.to_vec(), down_flows.clone())),
    );
    for (i, (&node, &mode)) in clients.iter().zip(modes).enumerate() {
        let client =
            VcaClient::new(kind, i as u32, server, up_flows[i], mode, rng).with_join_at(join_at);
        net.set_agent(node, Box::new(client));
    }
    CallHandles {
        kind,
        server,
        clients: clients.to_vec(),
        up_flows,
        down_flows,
    }
}

/// A fully-built two-party experiment (the §2.2/§3/§4 setup).
pub struct TwoPartyCall {
    /// The network; run it with `run_until`.
    pub net: Network<Wire>,
    /// Topology node/link ids.
    pub topo: topology::TwoParty,
    /// Call handles (client 0 = C1, client 1 = C2).
    pub handles: CallHandles,
}

/// Build a two-party call with independent shaping profiles on C1's access
/// link (the measured client).
pub fn two_party_call(
    kind: VcaKind,
    up: RateProfile,
    down: RateProfile,
    seed: u64,
) -> TwoPartyCall {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut net: Network<Wire> = Network::new();
    let topo = topology::two_party(&mut net, up, down);
    let handles = wire_call(
        &mut net,
        kind,
        topo.server,
        &[topo.c1, topo.c2],
        &[ViewMode::Gallery, ViewMode::Gallery],
        10,
        &mut rng,
    );
    TwoPartyCall { net, topo, handles }
}

/// A fully-built multiparty experiment (the §6 setup).
pub struct MultipartyCall {
    /// The network; run it with `run_until`.
    pub net: Network<Wire>,
    /// Topology node/link ids.
    pub topo: topology::Multiparty,
    /// Call handles; client 0 = C1, the measured client.
    pub handles: CallHandles,
}

/// Build an `n`-party call with every client on an unconstrained (but
/// traced) access path. `modes` assigns each client's viewing mode.
pub fn multiparty_call(kind: VcaKind, n: usize, modes: &[ViewMode], seed: u64) -> MultipartyCall {
    assert_eq!(modes.len(), n);
    let mut rng = SimRng::seed_from_u64(seed);
    let mut net: Network<Wire> = Network::new();
    let topo = topology::multiparty(
        &mut net,
        n,
        RateProfile::constant_mbps(topology::UNCONSTRAINED_MBPS),
        RateProfile::constant_mbps(topology::UNCONSTRAINED_MBPS),
    );
    let clients = topo.clients.clone();
    let handles = wire_call(&mut net, kind, topo.server, &clients, modes, 10, &mut rng);
    MultipartyCall { net, topo, handles }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcabench_simcore::SimTime;

    #[test]
    fn two_party_call_exchanges_media() {
        let mut call = two_party_call(
            VcaKind::Meet,
            RateProfile::constant_mbps(1000.0),
            RateProfile::constant_mbps(1000.0),
            7,
        );
        call.net.run_until(SimTime::from_secs(30));
        assert_eq!(call.net.unrouted_drops, 0);
        let c1: &VcaClient = call.net.agent(call.topo.c1);
        let c2: &VcaClient = call.net.agent(call.topo.c2);
        // Both directions decode real video.
        assert!(
            c1.frames_decoded_from(1) > 200,
            "C1 decoded {}",
            c1.frames_decoded_from(1)
        );
        assert!(
            c2.frames_decoded_from(0) > 200,
            "C2 decoded {}",
            c2.frames_decoded_from(0)
        );
        // Per-second stats got sampled.
        assert!(c1.stats.samples().len() >= 25);
    }

    #[test]
    fn flow_ids_are_distinct() {
        let call = two_party_call(
            VcaKind::Zoom,
            RateProfile::constant_mbps(10.0),
            RateProfile::constant_mbps(10.0),
            1,
        );
        let mut all = call.handles.up_flows.clone();
        all.extend(&call.handles.down_flows);
        let unique: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
    }

    #[test]
    fn engine_event_stays_within_its_layout_budget() {
        // A packet is written into the engine's slab once and read back
        // once, and only its 4-byte handle rides the event queue — so a
        // pending event is two words whatever `Wire` holds (a 32-byte heap
        // entry with its time and sequence number), and a fatter `Wire`
        // taxes the two copies and the slab's footprint, not every hop.
        // Growing past these sizes should be a decision, not an accident.
        use std::mem::size_of;
        use vcabench_netsim::{engine_event_bytes, Packet};
        assert!(size_of::<Packet<Wire>>() <= 128);
        assert!(engine_event_bytes() <= 16);
    }

    #[test]
    fn multiparty_call_builds_and_runs() {
        let modes = vec![ViewMode::Gallery; 4];
        let mut call = multiparty_call(VcaKind::Zoom, 4, &modes, 3);
        call.net.run_until(SimTime::from_secs(20));
        assert_eq!(call.net.unrouted_drops, 0);
        let c1: &VcaClient = call.net.agent(call.handles.clients[0]);
        // C1 sees video from every other participant.
        for sender in 1..4u32 {
            assert!(
                c1.frames_decoded_from(sender) > 50,
                "no video from participant {sender}"
            );
        }
    }
}
