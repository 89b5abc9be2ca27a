//! Shared experiment runners: build a scenario, run it, extract the traces
//! and client statistics every table/figure needs.
//!
//! Each runner mirrors one of the paper's lab procedures (§2.2, §3–§6):
//! two-party calls under shaping profiles, the competition setup of Fig 7,
//! and multiparty calls. Runs are deterministic in their seed.

use vcabench_apps::{
    AbrServer, NetflixClient, NetflixSample, TcpSenderAgent, TcpSinkAgent, YoutubeClient,
};
use vcabench_netsim::{topology, EngineStats, FlowId, Network, NodeId, RateProfile};
use vcabench_simcore::{SimDuration, SimRng, SimTime};
use vcabench_stats::time_to_recovery;
use vcabench_telemetry::Telemetry;
use vcabench_transport::Wire;
use vcabench_vca::{wire_call, StatsSample, VcaClient, VcaKind, ViewMode};

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

/// Bin width of all bitrate series (matches `netsim::trace::DEFAULT_BIN`).
pub const BIN: SimDuration = SimDuration::from_millis(100);

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
    /// C2's per-second samples.
    pub c2_stats: Vec<StatsSample>,
    /// FIRs C1 received about its upstream video (Fig 3b).
    pub c1_firs_received: u64,
    /// C1's cumulative freeze time on received video.
    pub c1_freeze_time: SimDuration,
    /// Frames C1 decoded from C2.
    pub c1_frames_decoded: u64,
}

impl TwoPartyOutcome {
    /// Average Mbps of a series over `[from, to)`.
    pub fn rate_between(series: &[f64], from: SimTime, to: SimTime) -> f64 {
        let lo = (from.as_micros() / BIN.as_micros()) as usize;
        let hi = ((to.as_micros() / BIN.as_micros()) as usize).min(series.len());
        if hi <= lo {
            return 0.0;
        }
        series[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
    }

    /// Median Mbps of a series over `[from, to)` (the paper's Fig 1 metric).
    pub fn median_between(series: &[f64], from: SimTime, to: SimTime) -> f64 {
        let lo = (from.as_micros() / BIN.as_micros()) as usize;
        let hi = ((to.as_micros() / BIN.as_micros()) as usize).min(series.len());
        if hi <= lo {
            return 0.0;
        }
        vcabench_stats::median(&series[lo..hi])
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

/// Run a two-party call of `kind` with the given shaping profiles on C1's
/// access link.
pub fn run_two_party(
    kind: VcaKind,
    up: RateProfile,
    down: RateProfile,
    duration: SimDuration,
    seed: u64,
) -> TwoPartyOutcome {
    run_two_party_with(kind, up, down, duration, seed, |_| {})
}

/// Like [`run_two_party`], applying `configure` to C1's client before the
/// simulation starts (used by ablation experiments to flip model knobs).
pub fn run_two_party_with(
    kind: VcaKind,
    up: RateProfile,
    down: RateProfile,
    duration: SimDuration,
    seed: u64,
    configure: impl FnOnce(&mut VcaClient),
) -> TwoPartyOutcome {
    let tel = Telemetry::disabled();
    run_two_party_metered(kind, up, down, duration, seed, &tel, configure).0
}

/// Like [`run_two_party_with`], recording trace events through `tel` and
/// additionally returning the engine's throughput counters (`benchmark/`
/// reads these).
pub fn run_two_party_metered(
    kind: VcaKind,
    up: RateProfile,
    down: RateProfile,
    duration: SimDuration,
    seed: u64,
    tel: &Telemetry,
    configure: impl FnOnce(&mut VcaClient),
) -> (TwoPartyOutcome, EngineStats) {
    let mut call = vcabench_vca::two_party_call(kind, up, down, seed);
    attach_telemetry(&mut call.net, tel, &call.handles.clients.clone());
    configure(call.net.agent_mut::<VcaClient>(call.topo.c1));
    let end = SimTime::ZERO + duration;
    call.net.run_until(end);
    let up_series = call
        .net
        .link(call.topo.c1_up)
        .traces
        .total()
        .series_mbps(end);
    let down_series = call
        .net
        .link(call.topo.c1_down)
        .traces
        .total()
        .series_mbps(end);
    let c2_up_series = call
        .net
        .link(call.topo.c2_up)
        .traces
        .total()
        .series_mbps(end);
    let engine = call.net.engine_stats();
    let c1: &VcaClient = call.net.agent(call.topo.c1);
    let c2: &VcaClient = call.net.agent(call.topo.c2);
    let outcome = TwoPartyOutcome {
        duration: end,
        up_series,
        down_series,
        c2_up_series,
        c1_stats: c1.stats.samples().to_vec(),
        c2_stats: c2.stats.samples().to_vec(),
        c1_firs_received: c1.firs_received,
        c1_freeze_time: c1
            .primary_freeze()
            .map(|f| f.freeze_time)
            .unwrap_or(SimDuration::ZERO),
        c1_frames_decoded: c1.frames_decoded_from(1),
    };
    (outcome, engine)
}

/// Which application competes with the incumbent VCA (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Competitor {
    /// A second VCA call.
    Vca(VcaKind),
    /// Bulk TCP upload through the bottleneck (iPerf3 client at F1).
    IperfUp,
    /// Bulk TCP download through the bottleneck (iPerf3 reverse mode).
    IperfDown,
    /// Netflix streaming at F1.
    Netflix,
    /// YouTube streaming at F1.
    Youtube,
}

/// Outcome of a competition run.
#[derive(Debug, Clone)]
pub struct CompetitionOutcome {
    /// Simulated duration.
    pub duration: SimTime,
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
    /// Share of the uplink taken by the incumbent over `[from, to)`.
    pub fn up_share(&self, from: SimTime, to: SimTime) -> f64 {
        let a = TwoPartyOutcome::rate_between(&self.inc_up, from, to);
        let b = TwoPartyOutcome::rate_between(&self.comp_up, from, to);
        if a + b == 0.0 {
            0.0
        } else {
            a / (a + b)
        }
    }

    /// Share of the downlink taken by the incumbent over `[from, to)`.
    pub fn down_share(&self, from: SimTime, to: SimTime) -> f64 {
        let a = TwoPartyOutcome::rate_between(&self.inc_down, from, to);
        let b = TwoPartyOutcome::rate_between(&self.comp_down, from, to);
        if a + b == 0.0 {
            0.0
        } else {
            a / (a + b)
        }
    }
}

/// Parameters of a competition run.
#[derive(Debug, Clone)]
pub struct CompetitionConfig {
    /// Incumbent application.
    pub incumbent: VcaKind,
    /// Competing application.
    pub competitor: Competitor,
    /// Symmetric bottleneck capacity, Mbps.
    pub capacity_mbps: f64,
    /// When the competitor starts (paper: ~30 s in).
    pub competitor_start: SimDuration,
    /// How long the competitor runs (paper: 120 s).
    pub competitor_duration: SimDuration,
    /// Total simulated time.
    pub total: SimDuration,
    /// Seed.
    pub seed: u64,
}

impl CompetitionConfig {
    /// The paper's §5 procedure: competitor enters at 30 s for 120 s; the
    /// incumbent continues one more minute.
    pub fn paper(
        incumbent: VcaKind,
        competitor: Competitor,
        capacity_mbps: f64,
        seed: u64,
    ) -> Self {
        CompetitionConfig {
            incumbent,
            competitor,
            capacity_mbps,
            competitor_start: SimDuration::from_secs(30),
            competitor_duration: SimDuration::from_secs(120),
            total: SimDuration::from_secs(210),
            seed,
        }
    }
}

/// Run a §5 competition experiment.
pub fn run_competition(cfg: &CompetitionConfig) -> CompetitionOutcome {
    run_competition_metered(cfg, &Telemetry::disabled()).0
}

/// Like [`run_competition`], recording trace events through `tel` and
/// additionally returning the engine's throughput counters.
pub fn run_competition_metered(
    cfg: &CompetitionConfig,
    tel: &Telemetry,
) -> (CompetitionOutcome, EngineStats) {
    let mut rng = SimRng::seed_from_u64(cfg.seed);
    let mut net: Network<Wire> = Network::new();
    let topo = topology::competition(
        &mut net,
        RateProfile::constant_mbps(cfg.capacity_mbps),
        RateProfile::constant_mbps(cfg.capacity_mbps),
    );
    let h1 = wire_call(
        &mut net,
        cfg.incumbent,
        topo.vca_server,
        &[topo.c1, topo.c2],
        &[ViewMode::Gallery, ViewMode::Gallery],
        10,
        &mut rng,
    );
    attach_telemetry(&mut net, tel, &h1.clients.clone());
    let comp_start = SimTime::ZERO + cfg.competitor_start;
    let comp_end = comp_start + cfg.competitor_duration;
    let comp_up_flow = FlowId(70);
    let comp_down_flow = FlowId(71);
    let mut comp_up_flows = vec![comp_up_flow];
    let mut comp_down_flows = vec![comp_down_flow];
    match cfg.competitor {
        Competitor::Vca(kind) => {
            let h2 = vcabench_vca::wire_call_at(
                &mut net,
                kind,
                topo.f_server,
                &[topo.f1, topo.f2],
                &[ViewMode::Gallery, ViewMode::Gallery],
                50,
                &mut rng,
                comp_start,
            );
            attach_telemetry(&mut net, tel, &h2.clients.clone());
            comp_up_flows = vec![h2.up_flows[0]];
            comp_down_flows = vec![h2.down_flows[0]];
        }
        Competitor::IperfUp => {
            net.set_agent(
                topo.f1,
                Box::new(TcpSenderAgent::new(
                    1,
                    topo.f_server,
                    comp_up_flow,
                    comp_start,
                    Some(comp_end),
                )),
            );
            net.set_agent(topo.f_server, Box::new(TcpSinkAgent::new(comp_down_flow)));
        }
        Competitor::IperfDown => {
            net.set_agent(
                topo.f_server,
                Box::new(TcpSenderAgent::new(
                    1,
                    topo.f1,
                    comp_down_flow,
                    comp_start,
                    Some(comp_end),
                )),
            );
            net.set_agent(topo.f1, Box::new(TcpSinkAgent::new(comp_up_flow)));
        }
        Competitor::Netflix => {
            net.set_agent(
                topo.f1,
                Box::new(NetflixClient::new(
                    topo.f_server,
                    comp_up_flow,
                    comp_start,
                    Some(comp_end),
                )),
            );
            net.set_agent(topo.f_server, Box::new(AbrServer::new(comp_down_flow)));
        }
        Competitor::Youtube => {
            net.set_agent(
                topo.f1,
                Box::new(YoutubeClient::new(
                    topo.f_server,
                    comp_up_flow,
                    comp_start,
                    Some(comp_end),
                )),
            );
            net.set_agent(topo.f_server, Box::new(AbrServer::new_quic(comp_down_flow)));
        }
    }
    let end = SimTime::ZERO + cfg.total;
    net.run_until(end);

    let up = net.link(topo.bottleneck_up);
    let down = net.link(topo.bottleneck_down);
    let inc_up = up.traces.combined_series_mbps(&[h1.up_flows[0]], end);
    let inc_down = down.traces.combined_series_mbps(&[h1.down_flows[0]], end);
    let comp_up = up.traces.combined_series_mbps(&comp_up_flows, end);
    let comp_down = down.traces.combined_series_mbps(&comp_down_flows, end);
    let (netflix, netflix_conns) = if cfg.competitor == Competitor::Netflix {
        let c: &NetflixClient = net.agent(topo.f1);
        (Some(c.samples.clone()), c.connections_opened)
    } else {
        (None, 0)
    };
    let c1_stats = net.agent::<VcaClient>(topo.c1).stats.samples().to_vec();
    let outcome = CompetitionOutcome {
        duration: end,
        inc_up,
        inc_down,
        comp_up,
        comp_down,
        netflix,
        netflix_conns,
        c1_stats,
    };
    (outcome, net.engine_stats())
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

/// Run an n-party call; `pin_c1` puts every other participant in speaker
/// mode pinned on C1 (the Fig 15c modality).
pub fn run_multiparty(
    kind: VcaKind,
    n: usize,
    pin_c1: bool,
    duration: SimDuration,
    seed: u64,
) -> MultipartyOutcome {
    run_multiparty_metered(kind, n, pin_c1, duration, seed, &Telemetry::disabled()).0
}

/// Like [`run_multiparty`], recording trace events through `tel` and
/// additionally returning the engine's throughput counters.
pub fn run_multiparty_metered(
    kind: VcaKind,
    n: usize,
    pin_c1: bool,
    duration: SimDuration,
    seed: u64,
    tel: &Telemetry,
) -> (MultipartyOutcome, EngineStats) {
    let modes: Vec<ViewMode> = (0..n)
        .map(|i| {
            if pin_c1 && i != 0 {
                ViewMode::Speaker(0)
            } else {
                ViewMode::Gallery
            }
        })
        .collect();
    let mut call = vcabench_vca::multiparty_call(kind, n, &modes, seed);
    attach_telemetry(&mut call.net, tel, &call.handles.clients.clone());
    let end = SimTime::ZERO + duration;
    call.net.run_until(end);
    let settle = SimTime::ZERO + duration / 4;
    let c1_down = call
        .net
        .link(call.topo.downlinks[0])
        .traces
        .total()
        .rate_mbps_between(settle, end);
    let c1_up = call
        .net
        .link(call.topo.uplinks[0])
        .traces
        .total()
        .rate_mbps_between(settle, end);
    let c1_stats = call
        .net
        .agent::<VcaClient>(call.topo.clients[0])
        .stats
        .samples()
        .to_vec();
    let outcome = MultipartyOutcome {
        duration: end,
        c1_down_mbps: c1_down,
        c1_up_mbps: c1_up,
        c1_stats,
    };
    (outcome, call.net.engine_stats())
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let out = run_two_party(
            VcaKind::Zoom,
            RateProfile::constant_mbps(1000.0),
            RateProfile::constant_mbps(1000.0),
            SimDuration::from_secs(30),
            1,
        );
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

    #[test]
    fn competition_runner_iperf() {
        let cfg = CompetitionConfig {
            incumbent: VcaKind::Teams,
            competitor: Competitor::IperfUp,
            capacity_mbps: 2.0,
            competitor_start: SimDuration::from_secs(10),
            competitor_duration: SimDuration::from_secs(40),
            total: SimDuration::from_secs(60),
            seed: 3,
        };
        let out = run_competition(&cfg);
        let share = out.up_share(SimTime::from_secs(25), SimTime::from_secs(50));
        assert!(share < 0.5, "Teams passive vs TCP: share {share}");
        // Before the competitor starts, the incumbent owns the link.
        let early = out.up_share(SimTime::from_secs(5), SimTime::from_secs(10));
        assert!(early > 0.95, "incumbent alone early: {early}");
    }

    #[test]
    fn multiparty_runner_cliffs() {
        let four = run_multiparty(VcaKind::Zoom, 4, false, SimDuration::from_secs(40), 5);
        let five = run_multiparty(VcaKind::Zoom, 5, false, SimDuration::from_secs(40), 5);
        assert!(
            five.c1_up_mbps < four.c1_up_mbps * 0.8,
            "Zoom uplink cliff at n=5: {} vs {}",
            four.c1_up_mbps,
            five.c1_up_mbps
        );
    }
}
