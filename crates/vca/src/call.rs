//! Call orchestration: wiring clients and a server onto a topology.
//!
//! This is the simulation's stand-in for the paper's PyAutoGUI automation
//! (§2.2): it "joins" every participant, sets viewing modes, and assigns the
//! flow ids the measurement infrastructure traces.

use vcabench_netsim::{FlowId, Network, NodeId};
use vcabench_simcore::{SimRng, SimTime};
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
/// `clients` and a [`VcaServer`] at `server`, every client joining at
/// `join_at` (`SimTime::ZERO`, or later for the paper's staggered
/// competition starts, §5). Flow ids are derived from `flow_base` (uplink
/// `flow_base + 2i`, downlink `flow_base + 2i + 1`).
#[allow(clippy::too_many_arguments)]
pub fn wire_call(
    net: &mut Network<Wire>,
    kind: VcaKind,
    server: NodeId,
    clients: &[NodeId],
    modes: &[ViewMode],
    flow_base: u64,
    rng: &mut SimRng,
    join_at: SimTime,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_stays_within_its_layout_budget() {
        // A packet is written into the engine's slab once and read back
        // once, and only its 4-byte handle rides the event queue (netsim's
        // `engine_event_is_two_words`, whatever `Wire` holds), so a fatter
        // `Wire` taxes the two copies and the slab's footprint, not every
        // hop. Growing past this size should be a decision, not an accident.
        use std::mem::size_of;
        use vcabench_netsim::Packet;
        assert!(size_of::<Packet<Wire>>() <= 128);
    }
}
