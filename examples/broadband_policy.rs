//! The policy question that motivated the paper: is the FCC's 25/3 Mbps
//! "broadband" definition enough for a household of video calls?
//!
//! §3's takeaway: "The FCC currently recommends a 25/3 Mbps minimum
//! connection. Such a connection may not suffice even for two simultaneous
//! video calls." The binding constraint is the 3 Mbps *uplink*. This example
//! stacks concurrent calls of each VCA onto a 3 Mbps shared uplink and
//! reports when quality collapses.
//!
//! ```text
//! cargo run --release --example broadband_policy
//! ```

use vcabench::netsim::{topology, LinkConfig, Network};
use vcabench::prelude::*;

/// Build `k` concurrent two-party calls whose C1-side clients share one
/// 3 Mbps uplink (the 25/3 household), each talking to its own server and
/// counter-party on the open side.
fn household(kind: VcaKind, k: usize, seed: u64) -> Vec<f64> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut net: Network<Wire> = Network::new();
    // Home side: k clients behind one switch and a 3/25 Mbps access link.
    let switch = net.add_node();
    let router = net.add_node();
    let lan = SimDuration::from_micros(200);
    let fast = LinkConfig::mbps(1000.0, lan).with_queue_bytes(1 << 20);
    let up = net.add_link(
        switch,
        router,
        LinkConfig::mbps(3.0, topology::ACCESS_DELAY)
            .with_queue_bytes(topology::ACCESS_QUEUE_BYTES),
    );
    let down = net.add_link(
        router,
        switch,
        LinkConfig::mbps(25.0, topology::ACCESS_DELAY)
            .with_queue_bytes(topology::ACCESS_QUEUE_BYTES),
    );
    net.default_route(switch, up);

    let mut calls = Vec::new();
    for i in 0..k {
        let c1 = net.add_node();
        let server = net.add_node();
        let c2 = net.add_node();
        let (c1_up, c1_down) = net.add_duplex(c1, switch, fast.clone(), fast.clone());
        let (wan_up, wan_down) = net.add_duplex(router, server, fast.clone(), fast.clone());
        let (c2_up, c2_down) = net.add_duplex(c2, server, fast.clone(), fast.clone());
        let _ = (c1_up, wan_up, c2_up);
        net.route(switch, c1, c1_down);
        net.route(router, server, wan_up);
        net.route(router, c1, down);
        net.route(router, c2, wan_up);
        net.default_route(c1, c1_up);
        net.default_route(c2, c2_up);
        net.route(server, c1, wan_down);
        net.route(server, c2, c2_down);
        let handles = wire_call(
            &mut net,
            kind,
            server,
            &[c1, c2],
            &[ViewMode::Gallery, ViewMode::Gallery],
            (10 + 10 * i) as u64,
            &mut rng,
            SimTime::ZERO,
        );
        calls.push((c2, handles));
    }
    net.run_until(SimTime::from_secs(90));
    // Quality proxy: fraction of the call each counter-party spent frozen
    // (the §3.2 freeze ratio).
    calls
        .iter()
        .map(|(c2, _)| {
            let c: &VcaClient = net.agent(*c2);
            c.primary_freeze()
                .map(|f| f.freeze_time.as_secs_f64() / 90.0)
                .unwrap_or(1.0)
        })
        .collect()
}

fn main() {
    println!("How many simultaneous calls fit a 25/3 'broadband' uplink?\n");
    println!("(freeze ratio at each call's far end; 0% is perfect, >10% is rough)\n");
    for kind in [VcaKind::Meet, VcaKind::Teams, VcaKind::Zoom] {
        println!("{}:", kind.name());
        for k in [1usize, 2, 3, 4] {
            let freezes = household(kind, k, 9);
            let rendered: Vec<String> = freezes
                .iter()
                .map(|f| format!("{:.0}%", f * 100.0))
                .collect();
            let worst = freezes.iter().cloned().fold(0.0f64, f64::max);
            let verdict = if worst <= 0.02 {
                "fine"
            } else if worst <= 0.10 {
                "degraded"
            } else {
                "unusable"
            };
            println!(
                "  {k} call(s): freeze = [{}]  → {verdict}",
                rendered.join(", ")
            );
        }
        println!();
    }
    println!("Paper §3.2: \"[a 25/3 connection] may not suffice even for two");
    println!("simultaneous video calls\" — Teams alone books ~1.8 Mbps of uplink.");
}
