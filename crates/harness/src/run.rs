//! The runners: one function per topology that builds the network a
//! campaign spec describes, runs it, and reads off the traces and client
//! statistics every table/figure needs.
//!
//! Each runner mirrors one of the paper's lab procedures (§2.2, §3–§6):
//! [`two_party`] calls under shaping profiles, the [`competition`] setup
//! of Fig 7, and [`multiparty`] calls. Runs are deterministic in their
//! spec; nothing else in this workspace turns a spec into a wired network
//! or steps one. Each runner is its `_on` form — [`two_party_on`],
//! [`competition_on`], [`multiparty_on`] — with the identity [`Lab`] hook
//! and the standard reader; the impairment study and the test kit's
//! invariant audits bring their own hook or reader to the same build.

use vcabench_apps::{
    AbrServer, NetflixClient, NetflixSample, TcpSenderAgent, TcpSinkAgent, YoutubeClient,
};
use vcabench_campaign::{
    ClientKnobs, CompetitionSpec, CompetitorSpec, MultipartySpec, TwoPartySpec,
};
use vcabench_netsim::{topology, EngineStats, FlowId, LinkConfig, Network, NodeId, RateProfile};
use vcabench_simcore::{SimDuration, SimRng, SimTime};
use vcabench_stats::{share, time_to_recovery};
use vcabench_telemetry::Telemetry;
use vcabench_transport::Wire;
use vcabench_vca::{wire_call, CallHandles, StatsSample, VcaClient, ViewMode};

/// The lab before a call is placed on it: the default configuration of the
/// two measured hops — C1's access pair (two-party), the shared bottleneck
/// (competition), every client's access pair (multiparty). A runner hands
/// it to its caller's `prepare` hook and builds from what comes back. The
/// hook is the identity for everything the spec language can say; the §8
/// impairment study adds delay, loss and jitter there, and the test kit
/// lays piecewise rate profiles over hops a spec keeps constant.
pub struct Lab {
    /// The measured hop toward the WAN.
    pub up: LinkConfig,
    /// The measured hop toward the client(s).
    pub down: LinkConfig,
}

impl Lab {
    fn prepared(up: LinkConfig, down: LinkConfig, prepare: impl FnOnce(&mut Lab)) -> Lab {
        let mut lab = Lab { up, down };
        prepare(&mut lab);
        lab
    }
}

/// The lab's dedicated, unshaped 1 Gbps line.
pub fn unconstrained() -> RateProfile {
    RateProfile::constant_mbps(topology::UNCONSTRAINED_MBPS)
}

/// Clone one telemetry handle into the engine and every VCA client, so a
/// single recorder sees packet-level and client-level events interleaved
/// in simulation order.
fn attach_telemetry(net: &mut Network<Wire>, tel: &Telemetry, clients: &[NodeId]) {
    if !tel.enabled() {
        return;
    }
    net.set_telemetry(tel.clone());
    for &node in clients {
        net.agent_mut::<VcaClient>(node).set_telemetry(tel.clone());
    }
}

/// Apply a spec's optional client knobs to C1.
fn apply_knobs(knobs: Option<&ClientKnobs>, c1: &mut VcaClient) {
    if let Some(knobs) = knobs {
        if let Some(enable) = knobs.teams_width_bug {
            c1.set_teams_width_bug(enable);
        }
        if let (Some(min), Some(max)) = (knobs.min_rate_mbps, knobs.max_rate_mbps) {
            c1.set_rate_bounds(min, max);
        }
    }
}

/// Bin width of all bitrate series.
pub use vcabench_netsim::trace::DEFAULT_BIN as BIN;

/// Outcome of a two-party run.
#[derive(Debug, Clone)]
pub struct TwoPartyOutcome {
    /// Call duration simulated.
    pub duration: SimTime,
    /// C1 uplink bitrate series (Mbps per 100 ms bin), all flows on the link.
    pub up_series: Vec<f64>,
    /// C1 downlink bitrate series.
    pub down_series: Vec<f64>,
    /// C2 uplink bitrate series (Fig 6 needs the counter-party's sender).
    pub c2_up_series: Vec<f64>,
    /// C1's per-second WebRTC-style samples.
    pub c1_stats: Vec<StatsSample>,
    /// FIRs C1 received about its upstream video (Fig 3b).
    pub c1_firs_received: u64,
    /// C1's cumulative freeze time on received video.
    pub c1_freeze_time: SimDuration,
    /// Frames C1 decoded from C2.
    pub c1_frames_decoded: u64,
}

/// The bins of `series` that lie in `[from, to)`.
fn window(series: &[f64], from: SimTime, to: SimTime) -> &[f64] {
    let lo = (from.as_micros() / BIN.as_micros()) as usize;
    let hi = ((to.as_micros() / BIN.as_micros()) as usize).min(series.len());
    series.get(lo..hi).unwrap_or_default()
}

impl TwoPartyOutcome {
    /// Average Mbps of a series over `[from, to)`; 0 over an empty window.
    pub fn rate_between(series: &[f64], from: SimTime, to: SimTime) -> f64 {
        match window(series, from, to) {
            [] => 0.0,
            bins => bins.iter().sum::<f64>() / bins.len() as f64,
        }
    }

    /// Median Mbps of a series over `[from, to)` (the paper's Fig 1 metric);
    /// 0 over an empty window.
    pub fn median_between(series: &[f64], from: SimTime, to: SimTime) -> f64 {
        match window(series, from, to) {
            [] => 0.0,
            bins => vcabench_stats::median(bins),
        }
    }

    /// Time to recovery per the paper's §4 definition, on the chosen series.
    pub fn ttr(
        &self,
        series: &[f64],
        disruption_start: SimTime,
        disruption_end: SimTime,
    ) -> vcabench_stats::Ttr {
        time_to_recovery(series, BIN, disruption_start, disruption_end)
    }
}

/// A built two-party call (the §2.2/§3/§4 setup), as a two-party `read`
/// is handed it.
pub struct TwoPartyCall {
    /// The network.
    pub net: Network<Wire>,
    /// Topology node/link ids.
    pub topo: topology::TwoParty,
    /// Call handles (client 0 = C1, client 1 = C2).
    pub handles: CallHandles,
}

/// Run the two-party call `spec` describes, recording trace events through
/// `tel`; also returns the engine's throughput counters (`benchmark/`
/// reads these).
pub fn two_party(spec: &TwoPartySpec, tel: &Telemetry) -> (TwoPartyOutcome, EngineStats) {
    two_party_on(
        spec,
        |_| {},
        tel,
        |call, end| {
            let series = |link| call.net.link(link).traces.total().series_mbps(end);
            let c1: &VcaClient = call.net.agent(call.topo.c1);
            TwoPartyOutcome {
                duration: end,
                up_series: series(call.topo.c1_up),
                down_series: series(call.topo.c1_down),
                c2_up_series: series(call.topo.c2_up),
                c1_stats: c1.stats.samples().to_vec(),
                c1_firs_received: c1.firs_received,
                c1_freeze_time: c1
                    .primary_freeze()
                    .map(|f| f.freeze_time)
                    .unwrap_or(SimDuration::ZERO),
                c1_frames_decoded: c1.frames_decoded_from(1),
            }
        },
    )
}

/// The two-party build → run → read body: `spec`'s call placed on the
/// [`Lab`] `prepare` leaves (the measured hops are C1's access pair), run
/// to its end and handed to `read`.
pub fn two_party_on<T>(
    spec: &TwoPartySpec,
    prepare: impl FnOnce(&mut Lab),
    tel: &Telemetry,
    read: impl FnOnce(&TwoPartyCall, SimTime) -> T,
) -> (T, EngineStats) {
    let (up, down) = (spec.up.clone(), spec.down.clone());
    let lab = Lab::prepared(topology::access(up), topology::access(down), prepare);
    let mut net = Network::new();
    let topo = topology::two_party_on(&mut net, lab.up, lab.down);
    let handles = wire_call(
        &mut net,
        spec.kind,
        topo.server,
        &[topo.c1, topo.c2],
        &[ViewMode::Gallery; 2],
        10,
        &mut SimRng::seed_from_u64(spec.seed),
        SimTime::ZERO,
    );
    attach_telemetry(&mut net, tel, &handles.clients);
    apply_knobs(spec.knobs.as_ref(), net.agent_mut::<VcaClient>(topo.c1));
    let end = SimTime::ZERO + SimDuration::from_secs_f64(spec.duration_secs);
    net.run_until(end);
    let call = TwoPartyCall { net, topo, handles };
    (read(&call, end), call.net.engine_stats())
}

/// Offset of the share-measurement window from the competitor's start
/// (Fig 8/10 measure after a 3 s ramp).
pub const SHARE_WINDOW_DELAY: SimDuration = SimDuration::from_secs(3);
/// Length of the share-measurement window: the early contention window.
/// (Deviation note: in this model the loss-feedback dynamics slowly erode
/// a same-VCA incumbent's advantage and can even flip the winner after
/// ~60 s; the paper's incumbents held their advantage for the full 120 s.
/// See EXPERIMENTS.md.)
pub const SHARE_WINDOW_LEN: SimDuration = SimDuration::from_secs(45);

/// Outcome of a competition run.
#[derive(Debug, Clone)]
pub struct CompetitionOutcome {
    /// Simulated duration.
    pub duration: SimTime,
    /// When the competitor entered.
    pub competitor_start: SimTime,
    /// When the competitor left.
    pub competitor_end: SimTime,
    /// Incumbent C1 uplink series on the shared bottleneck.
    pub inc_up: Vec<f64>,
    /// Incumbent C1 downlink series on the shared bottleneck.
    pub inc_down: Vec<f64>,
    /// Competitor uplink series (data toward the WAN).
    pub comp_up: Vec<f64>,
    /// Competitor downlink series.
    pub comp_down: Vec<f64>,
    /// Netflix client samples, when the competitor is Netflix.
    pub netflix: Option<Vec<NetflixSample>>,
    /// Netflix connections opened in total.
    pub netflix_conns: u64,
    /// Incumbent C1's per-second samples (passive-inference ground truth).
    pub c1_stats: Vec<StatsSample>,
}

impl CompetitionOutcome {
    /// The incumbent's `(uplink, downlink)` shares over the share window:
    /// [`SHARE_WINDOW_LEN`] from [`SHARE_WINDOW_DELAY`] after the
    /// competitor's start.
    pub fn shares(&self) -> (f64, f64) {
        let from = self.competitor_start + SHARE_WINDOW_DELAY;
        let to = from + SHARE_WINDOW_LEN;
        (self.up_share(from, to), self.down_share(from, to))
    }

    /// Mean Mbps of one of this run's series over the last three quarters of
    /// the competitor's lifetime (Figs 12 and 14 let both sides settle).
    pub fn contended_rate(&self, series: &[f64]) -> f64 {
        let from = self.competitor_start + (self.competitor_end - self.competitor_start) / 4;
        TwoPartyOutcome::rate_between(series, from, self.competitor_end)
    }

    /// Share of the uplink taken by the incumbent over `[from, to)`.
    pub fn up_share(&self, from: SimTime, to: SimTime) -> f64 {
        let rate = |series| TwoPartyOutcome::rate_between(series, from, to);
        share(rate(&self.inc_up), rate(&self.comp_up))
    }

    /// Share of the downlink taken by the incumbent over `[from, to)`.
    pub fn down_share(&self, from: SimTime, to: SimTime) -> f64 {
        let rate = |series| TwoPartyOutcome::rate_between(series, from, to);
        share(rate(&self.inc_down), rate(&self.comp_down))
    }
}

/// A fully-built §5 competition experiment (the Fig 7 setup).
pub struct CompetitionCall {
    /// The network.
    pub net: Network<Wire>,
    /// Topology node/link ids.
    pub topo: topology::Competition,
    /// The incumbent call's handles (client 0 = C1).
    pub handles: CallHandles,
    /// The competitor's `[uplink, downlink]` data flows on the bottleneck.
    pub competitor_flows: [FlowId; 2],
    /// When the competitor enters.
    pub competitor_start: SimTime,
    /// When the competitor leaves.
    pub competitor_end: SimTime,
}

/// Run the §5 competition experiment `spec` describes (an absent timing
/// field is the paper's: competitor in at 30 s for 120 s, 210 s in all),
/// recording trace events through `tel`; also returns the engine's
/// throughput counters.
pub fn competition(spec: &CompetitionSpec, tel: &Telemetry) -> (CompetitionOutcome, EngineStats) {
    competition_on(
        spec,
        |_| {},
        tel,
        |call, end| {
            let up = &call.net.link(call.topo.bottleneck_up).traces;
            let down = &call.net.link(call.topo.bottleneck_down).traces;
            let [comp_up, comp_down] = call.competitor_flows;
            let (netflix, netflix_conns) = if spec.competitor == CompetitorSpec::Netflix {
                let c: &NetflixClient = call.net.agent(call.topo.f1);
                (Some(c.samples.clone()), c.connections_opened)
            } else {
                (None, 0)
            };
            let c1: &VcaClient = call.net.agent(call.topo.c1);
            CompetitionOutcome {
                duration: end,
                competitor_start: call.competitor_start,
                competitor_end: call.competitor_end,
                inc_up: up.combined_series_mbps(&[call.handles.up_flows[0]], end),
                inc_down: down.combined_series_mbps(&[call.handles.down_flows[0]], end),
                comp_up: up.combined_series_mbps(&[comp_up], end),
                comp_down: down.combined_series_mbps(&[comp_down], end),
                netflix,
                netflix_conns,
                c1_stats: c1.stats.samples().to_vec(),
            }
        },
    )
}

/// The competition build → run → read body: `spec`'s incumbent call and
/// competitor placed on the [`Lab`] `prepare` leaves (the measured hops
/// are the shared bottleneck), run to its end and handed to `read`.
pub fn competition_on<T>(
    spec: &CompetitionSpec,
    prepare: impl FnOnce(&mut Lab),
    tel: &Telemetry,
    read: impl FnOnce(&CompetitionCall, SimTime) -> T,
) -> (T, EngineStats) {
    let (start, lifetime, total) = spec.timing_secs();
    let capacity = || topology::access(RateProfile::constant_mbps(spec.capacity_mbps));
    let lab = Lab::prepared(capacity(), capacity(), prepare);
    let mut net = Network::new();
    let topo = topology::competition_on(&mut net, lab.up, lab.down);
    let mut rng = SimRng::seed_from_u64(spec.seed);
    let handles = wire_call(
        &mut net,
        spec.incumbent,
        topo.vca_server,
        &[topo.c1, topo.c2],
        &[ViewMode::Gallery; 2],
        10,
        &mut rng,
        SimTime::ZERO,
    );
    attach_telemetry(&mut net, tel, &handles.clients);
    let comp_start = SimTime::ZERO + SimDuration::from_secs_f64(start);
    let comp_end = comp_start + SimDuration::from_secs_f64(lifetime);
    let mut competitor_flows = [FlowId(70), FlowId(71)];
    let [comp_up_flow, comp_down_flow] = competitor_flows;
    match spec.competitor {
        CompetitorSpec::Vca(kind) => {
            let h2 = wire_call(
                &mut net,
                kind,
                topo.f_server,
                &[topo.f1, topo.f2],
                &[ViewMode::Gallery; 2],
                50,
                &mut rng,
                comp_start,
            );
            attach_telemetry(&mut net, tel, &h2.clients);
            competitor_flows = [h2.up_flows[0], h2.down_flows[0]];
        }
        CompetitorSpec::IperfUp => {
            net.set_agent(
                topo.f1,
                Box::new(TcpSenderAgent::new(
                    topo.f_server,
                    comp_up_flow,
                    comp_start,
                    comp_end,
                )),
            );
            net.set_agent(topo.f_server, Box::new(TcpSinkAgent::new(comp_down_flow)));
        }
        CompetitorSpec::IperfDown => {
            net.set_agent(
                topo.f_server,
                Box::new(TcpSenderAgent::new(
                    topo.f1,
                    comp_down_flow,
                    comp_start,
                    comp_end,
                )),
            );
            net.set_agent(topo.f1, Box::new(TcpSinkAgent::new(comp_up_flow)));
        }
        CompetitorSpec::Netflix => {
            net.set_agent(
                topo.f1,
                Box::new(NetflixClient::new(
                    topo.f_server,
                    comp_up_flow,
                    comp_start,
                    comp_end,
                )),
            );
            net.set_agent(topo.f_server, Box::new(AbrServer::new(comp_down_flow)));
        }
        CompetitorSpec::Youtube => {
            net.set_agent(
                topo.f1,
                Box::new(YoutubeClient::new(
                    topo.f_server,
                    comp_up_flow,
                    comp_start,
                    comp_end,
                )),
            );
            net.set_agent(topo.f_server, Box::new(AbrServer::new(comp_down_flow)));
        }
    }
    let end = SimTime::ZERO + SimDuration::from_secs_f64(total);
    net.run_until(end);
    let call = CompetitionCall {
        net,
        topo,
        handles,
        competitor_flows,
        competitor_start: comp_start,
        competitor_end: comp_end,
    };
    (read(&call, end), call.net.engine_stats())
}

/// Outcome of a multiparty (§6) run.
#[derive(Debug, Clone)]
pub struct MultipartyOutcome {
    /// Simulated duration.
    pub duration: SimTime,
    /// C1's downlink average over the steady window, Mbps.
    pub c1_down_mbps: f64,
    /// C1's uplink average, Mbps.
    pub c1_up_mbps: f64,
    /// C1's per-second samples (passive-inference ground truth).
    pub c1_stats: Vec<StatsSample>,
}

/// A built multiparty call (the §6 setup), as a multiparty `read` is
/// handed it.
pub struct MultipartyCall {
    /// The network.
    pub net: Network<Wire>,
    /// Topology node/link ids.
    pub topo: topology::Multiparty,
    /// Call handles; client 0 = C1, the measured client.
    pub handles: CallHandles,
}

/// Run the n-party call `spec` describes (`pin_c1` puts every other
/// participant in speaker mode pinned on C1, the Fig 15c modality),
/// recording trace events through `tel`; also returns the engine's
/// throughput counters.
pub fn multiparty(spec: &MultipartySpec, tel: &Telemetry) -> (MultipartyOutcome, EngineStats) {
    multiparty_on(
        spec,
        |_| {},
        tel,
        |call, end| {
            let settle = SimTime::ZERO + (end - SimTime::ZERO) / 4;
            let steady = |link| {
                let carried = call.net.link(link).traces.total();
                carried.rate_mbps_between(settle, end)
            };
            let c1: &VcaClient = call.net.agent(call.topo.clients[0]);
            MultipartyOutcome {
                duration: end,
                c1_down_mbps: steady(call.topo.downlinks[0]),
                c1_up_mbps: steady(call.topo.uplinks[0]),
                c1_stats: c1.stats.samples().to_vec(),
            }
        },
    )
}

/// The multiparty build → run → read body: `spec`'s call placed on the
/// [`Lab`] `prepare` leaves (the measured hops are every client's access
/// pair, unconstrained by default), run to its end and handed to `read`.
pub fn multiparty_on<T>(
    spec: &MultipartySpec,
    prepare: impl FnOnce(&mut Lab),
    tel: &Telemetry,
    read: impl FnOnce(&MultipartyCall, SimTime) -> T,
) -> (T, EngineStats) {
    let open = || topology::star_access(unconstrained());
    let lab = Lab::prepared(open(), open(), prepare);
    let mut net = Network::new();
    let topo = topology::multiparty_on(&mut net, spec.n, lab.up, lab.down);
    // Everyone but C1 watches in the mode under study; C1 stays in gallery.
    let others = match spec.pin_c1 {
        Some(true) => ViewMode::Speaker(0),
        _ => ViewMode::Gallery,
    };
    let mut modes = vec![others; spec.n];
    modes[0] = ViewMode::Gallery;
    let handles = wire_call(
        &mut net,
        spec.kind,
        topo.server,
        &topo.clients,
        &modes,
        10,
        &mut SimRng::seed_from_u64(spec.seed),
        SimTime::ZERO,
    );
    attach_telemetry(&mut net, tel, &handles.clients);
    let end = SimTime::ZERO + SimDuration::from_secs_f64(spec.duration_secs);
    net.run_until(end);
    let call = MultipartyCall { net, topo, handles };
    (read(&call, end), call.net.engine_stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcabench_vca::VcaKind;

    #[test]
    fn window_helpers_edges() {
        let series = vec![1.0; 100]; // 10 s at 100 ms bins
                                     // Full window.
        let r = TwoPartyOutcome::rate_between(&series, SimTime::ZERO, SimTime::from_secs(10));
        assert!((r - 1.0).abs() < 1e-12);
        // Empty and inverted windows are zero.
        assert_eq!(
            TwoPartyOutcome::rate_between(&series, SimTime::from_secs(5), SimTime::from_secs(5)),
            0.0
        );
        assert_eq!(
            TwoPartyOutcome::rate_between(&series, SimTime::from_secs(8), SimTime::from_secs(2)),
            0.0
        );
        // Windows past the end clamp to the data.
        let r =
            TwoPartyOutcome::rate_between(&series, SimTime::from_secs(9), SimTime::from_secs(99));
        assert!((r - 1.0).abs() < 1e-12);
        // Median of a half-constant window.
        let mut bi = vec![0.0; 50];
        bi.extend(vec![2.0; 50]);
        let m = TwoPartyOutcome::median_between(&bi, SimTime::ZERO, SimTime::from_secs(10));
        assert!((0.0..=2.0).contains(&m));
    }

    #[test]
    fn two_party_runner_produces_series() {
        let out = two_party(&open_call(VcaKind::Zoom, 30.0, 1), &Telemetry::disabled()).0;
        assert_eq!(out.up_series.len(), 300);
        let rate = TwoPartyOutcome::rate_between(
            &out.up_series,
            SimTime::from_secs(15),
            SimTime::from_secs(30),
        );
        assert!(rate > 0.4, "zoom uplink alive: {rate}");
        assert!(!out.c1_stats.is_empty());
        assert!(out.c1_frames_decoded > 100);
    }

    /// A two-party spec with both of C1's hops open.
    fn open_call(kind: VcaKind, duration_secs: f64, seed: u64) -> TwoPartySpec {
        TwoPartySpec {
            kind,
            up: unconstrained(),
            down: unconstrained(),
            duration_secs,
            seed,
            knobs: None,
        }
    }

    #[test]
    fn two_party_call_exchanges_media() {
        let spec = open_call(VcaKind::Meet, 30.0, 7);
        let read = |call: &TwoPartyCall, _| {
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
        };
        two_party_on(&spec, |_| {}, &Telemetry::disabled(), read);
    }

    #[test]
    fn flow_ids_are_distinct() {
        let spec = open_call(VcaKind::Zoom, 1.0, 1);
        let read = |call: &TwoPartyCall, _| {
            let mut all = call.handles.up_flows.clone();
            all.extend(&call.handles.down_flows);
            let unique: std::collections::BTreeSet<_> = all.iter().collect();
            assert_eq!(unique.len(), all.len());
        };
        two_party_on(&spec, |_| {}, &Telemetry::disabled(), read);
    }

    #[test]
    fn multiparty_call_builds_and_runs() {
        let spec = MultipartySpec {
            kind: VcaKind::Zoom,
            n: 4,
            pin_c1: None,
            duration_secs: 20.0,
            seed: 3,
        };
        let read = |call: &MultipartyCall, _| {
            assert_eq!(call.net.unrouted_drops, 0);
            let c1: &VcaClient = call.net.agent(call.handles.clients[0]);
            // C1 sees video from every other participant.
            for sender in 1..4u32 {
                assert!(
                    c1.frames_decoded_from(sender) > 50,
                    "no video from participant {sender}"
                );
            }
        };
        multiparty_on(&spec, |_| {}, &Telemetry::disabled(), read);
    }

    #[test]
    fn competition_runner_iperf() {
        let spec = CompetitionSpec {
            competitor_start_secs: Some(10.0),
            competitor_duration_secs: Some(40.0),
            total_secs: Some(60.0),
            ..CompetitionSpec::paper(VcaKind::Teams, CompetitorSpec::IperfUp, 2.0, 3)
        };
        let out = competition(&spec, &Telemetry::disabled()).0;
        assert_eq!(out.competitor_start, SimTime::from_secs(10));
        assert_eq!(out.competitor_end, SimTime::from_secs(50));
        let share = out.up_share(SimTime::from_secs(25), SimTime::from_secs(50));
        assert!(share < 0.5, "Teams passive vs TCP: share {share}");
        // Before the competitor starts, the incumbent owns the link.
        let early = out.up_share(SimTime::from_secs(5), SimTime::from_secs(10));
        assert!(early > 0.95, "incumbent alone early: {early}");
    }

    #[test]
    fn multiparty_runner_cliffs() {
        let zoom = |n| {
            let spec = MultipartySpec {
                kind: VcaKind::Zoom,
                n,
                pin_c1: None,
                duration_secs: 40.0,
                seed: 5,
            };
            multiparty(&spec, &Telemetry::disabled()).0
        };
        let (four, five) = (zoom(4), zoom(5));
        assert!(
            five.c1_up_mbps < four.c1_up_mbps * 0.8,
            "Zoom uplink cliff at n=5: {} vs {}",
            four.c1_up_mbps,
            five.c1_up_mbps
        );
    }
}
