//! Cross-crate integration: the public API a downstream user builds with.
//!
//! Exercises custom topologies, custom agents alongside VCA calls, the
//! WebRTC-style stats API, and the shaping profile builders — everything a
//! user would touch when extending vcabench to a new scenario, without
//! reaching into crate internals.

use vcabench::netsim::{topology, FlowId};
use vcabench::prelude::*;

#[test]
fn custom_topology_with_mixed_traffic() {
    // Build the paper's competition topology by hand, attach a Teams call
    // and a Netflix stream, and watch the shared bottleneck.
    let mut rng = SimRng::seed_from_u64(1);
    let mut net: Network<Wire> = Network::new();
    let shaped = || topology::access(RateProfile::constant_mbps(3.0));
    let topo = topology::competition_on(&mut net, shaped(), shaped());
    let call = wire_call(
        &mut net,
        VcaKind::Teams,
        topo.vca_server,
        &[topo.c1, topo.c2],
        &[ViewMode::Gallery, ViewMode::Gallery],
        10,
        &mut rng,
        SimTime::ZERO,
    );
    net.set_agent(
        topo.f1,
        Box::new(vcabench::apps::NetflixClient::new(
            topo.f_server,
            FlowId(70),
            SimTime::from_secs(10),
            SimTime::from_secs(60),
        )),
    );
    net.set_agent(
        topo.f_server,
        Box::new(vcabench::apps::AbrServer::new(FlowId(71))),
    );
    net.run_until(SimTime::from_secs(60));

    assert_eq!(net.unrouted_drops, 0, "wiring must be complete");
    let down = net.link(topo.bottleneck_down);
    let call_bytes = down
        .traces
        .flow(call.down_flows[0])
        .map(|t| t.bytes_between(SimTime::ZERO, SimTime::from_secs(60)))
        .unwrap_or(0);
    let netflix_bytes = down
        .traces
        .flow(FlowId(71))
        .map(|t| t.bytes_between(SimTime::ZERO, SimTime::from_secs(60)))
        .unwrap_or(0);
    assert!(call_bytes > 1_000_000, "call media flowed: {call_bytes}");
    assert!(netflix_bytes > 1_000_000, "stream flowed: {netflix_bytes}");
    let nf: &vcabench::apps::NetflixClient = net.agent(topo.f1);
    assert!(
        nf.samples.iter().any(|s| s.buffer_s > 0.0),
        "the client buffered a finished segment"
    );
}

#[test]
fn stats_api_matches_paper_fields() {
    let spec = TwoPartySpec {
        kind: VcaKind::Meet,
        up: RateProfile::constant_mbps(OPEN),
        down: RateProfile::constant_mbps(0.5),
        duration_secs: 45.0,
        seed: 3,
        knobs: None,
    };
    let read = |call: &run::TwoPartyCall, _| {
        let c1: &VcaClient = call.net.agent(call.topo.c1);
        c1.stats.samples().to_vec()
    };
    let samples = run::two_party_on(&spec, |_| {}, &Telemetry::disabled(), read).0;
    assert!(
        samples.len() >= 40,
        "per-second sampling: {}",
        samples.len()
    );
    // The receiver-visible fields the paper reads from webrtc-internals.
    let late = &samples[samples.len() - 1];
    assert!(late.recv_fps > 0.0);
    assert!(late.recv_width > 0);
    assert!(late.recv_qp > 0.0);
    // Freeze accounting is monotone.
    for w in samples.windows(2) {
        assert!(w[1].freeze_time >= w[0].freeze_time);
        assert!(w[1].firs_sent >= w[0].firs_sent);
    }
}

const OPEN: f64 = 1000.0;

#[test]
fn rate_profiles_compose() {
    // A profile with a mid-call upgrade: 0.5 Mbps for a minute, then 2 Mbps.
    let profile = RateProfile::constant_mbps(0.5).step(SimTime::from_secs(60), 2e6);
    let spec = TwoPartySpec {
        kind: VcaKind::Zoom,
        up: profile,
        down: RateProfile::constant_mbps(OPEN),
        duration_secs: 120.0,
        seed: 9,
        knobs: None,
    };
    let out = run::two_party(&spec, &Telemetry::disabled()).0;
    let before = TwoPartyOutcome::rate_between(
        &out.up_series,
        SimTime::from_secs(30),
        SimTime::from_secs(60),
    );
    let after = TwoPartyOutcome::rate_between(
        &out.up_series,
        SimTime::from_secs(90),
        SimTime::from_secs(120),
    );
    assert!(before < 0.6, "capped phase: {before}");
    assert!(
        after > before + 0.15,
        "Zoom should use the upgrade: {before} -> {after}"
    );
}

#[test]
fn view_mode_changes_are_visible_to_the_server() {
    // Speaker mode from the start (everyone else pins C1): the pinned sender
    // ramps its uplink higher than a gallery call of the same size.
    let c1_up = |pin_c1| {
        let spec = MultipartySpec {
            kind: VcaKind::Meet,
            n: 4,
            pin_c1,
            duration_secs: 45.0,
            seed: 5,
        };
        let read = |call: &run::MultipartyCall, _| {
            let up = &call.net.link(call.topo.uplinks[0]).traces;
            up.total()
                .rate_mbps_between(SimTime::from_secs(15), SimTime::from_secs(45))
        };
        run::multiparty_on(&spec, |_| {}, &Telemetry::disabled(), read).0
    };
    let (g_up, p_up) = (c1_up(None), c1_up(Some(true)));

    assert!(
        p_up > g_up,
        "pinning raises the pinned sender's uplink: {g_up} vs {p_up}"
    );
}
