//! The simulated VCA client: encoder, pacer, congestion controller, and
//! receive pipeline in one network agent.
//!
//! A client plays both roles of §2.2's laptops: it captures the talking-head
//! source, encodes it according to its VCA's adaptation policy, paces RTP
//! packets (plus FEC for Zoom) toward the call server, and decodes whatever
//! the server forwards, producing the WebRTC-style statistics the paper
//! samples every second.

use std::any::Any;

use vcabench_congestion::{
    FbraConfig, FbraController, FeedbackReport, GccConfig, GccController, RateController,
    TeamsConfig, TeamsController,
};
use vcabench_media::{
    policy::StreamPlan, FrameAssembler, FreezeDetector, MeetPolicy, TeamsPolicy, ZoomLadder,
    ZoomPolicy,
};
use vcabench_netsim::{Agent, Ctx, FlowId, NodeId, Packet};
use vcabench_simcore::{SimDuration, SimRng, SimTime, SmallMap};
use vcabench_telemetry::{EventKind, Telemetry};
use vcabench_transport::{
    rtcp::{FirTracker, ReceiverReport, RtcpPacket},
    rtp::{FrameMeta, IntervalStats, RtpPacket, RtpRecvState, RtpSendState, StreamKind},
    wire::{SignalMsg, Wire, RTP_HEADER, RTP_PAYLOAD, UDP_OVERHEAD},
};

use crate::config::VcaKind;
use crate::layout::ViewMode;
use crate::stats_api::{StatsCollector, StatsSample};

/// Audio stream rate of every VCA, Mbps (Opus-like constant bitrate).
pub(crate) const AUDIO_RATE_MBPS: f64 = 0.04;
/// Audio packet cadence.
const AUDIO_INTERVAL: SimDuration = SimDuration::from_millis(20);
/// Report and replan cadence.
const TICK: SimDuration = SimDuration::from_millis(100);

const TIMER_RTCP: u64 = 1;
const TIMER_PACE: u64 = 5;
const TIMER_BOOT: u64 = 6;
const TIMER_AUDIO: u64 = 2;
const TIMER_STATS: u64 = 3;
const TIMER_REPLAN: u64 = 4;
const TIMER_FRAME_BASE: u64 = 100;

/// What a client of one VCA kind sends: its congestion controller, its
/// encoder policy and its reaction to the layout the server reports,
/// picked once in [`VcaClient::new`]. Each variant owns exactly the state
/// it reads.
enum Sender {
    /// Meet: GCC over a two-copy simulcast.
    Meet {
        cc: GccController,
        policy: MeetPolicy,
    },
    /// Zoom: FBRA over three SVC layers, padded to its target with FEC.
    Zoom {
        cc: FbraController,
        policy: ZoomPolicy,
        fec: ClientFec,
    },
    /// Teams: the loss-based controller over one stream.
    Teams {
        cc: TeamsController,
        policy: TeamsPolicy,
    },
}

/// Zoom's client-side FEC: redundancy filling the gap between the
/// controller target and the quantized layer stack, so the on-wire rate
/// tracks the target *continuously* — the layer ladder alone would make it
/// jump in 0.3 Mbps steps.
struct ClientFec {
    /// FEC bytes to emit per media byte (recomputed at each replan).
    per_media: f64,
    /// FEC bytes owed that do not yet fill a packet.
    debt_bytes: f64,
    /// FEC rides its own SSRC: middleboxes that strip it (Zoom's relay
    /// regenerates FEC server-side) must not leave sequence gaps in the
    /// media stream.
    send: RtpSendState,
}

impl Sender {
    /// The variant's congestion controller.
    fn cc(&mut self) -> &mut dyn RateController {
        match self {
            Sender::Meet { cc, .. } => cc,
            Sender::Zoom { cc, .. } => cc,
            Sender::Teams { cc, .. } => cc,
        }
    }

    /// Controller family, state and detector signal (GCC's only), in the
    /// telemetry vocabulary.
    fn cc_state(&self) -> (&'static str, &'static str, Option<&'static str>) {
        match self {
            Sender::Meet { cc, .. } => ("gcc", cc.state_name(), Some(cc.signal_name())),
            Sender::Zoom { cc, .. } => ("fbra", cc.state_name(), None),
            Sender::Teams { cc, .. } => ("teams", cc.state_name(), None),
        }
    }

    /// React to the layout the server reports — the largest width a
    /// subscriber wants from this sender, and the call size — before the
    /// report reaches the controller.
    fn on_layout(&mut self, max_width: u32, call_size: u32) {
        match self {
            Sender::Meet { policy, .. } => policy.max_requested_width = max_width,
            // Zoom's encoder ceiling follows the layout demand: pinned
            // senders push ~1 Mbps (§6.2); small tiles cap the SVC stack
            // (the n=5 uplink cliff of Fig 15b). Without lowering the
            // *controller* ceiling, FEC padding would fill the gap the layer
            // cap opened.
            Sender::Zoom { cc, policy, .. } => {
                cc.set_media_max(ZoomLadder::ceiling_for_width(max_width));
                policy.set_max_requested_width(max_width);
            }
            // Teams' pinned-sender anomaly (§6.2): uplink grows with the
            // call size when pinned, far beyond the other VCAs.
            Sender::Teams { cc, .. } => {
                let pinned = max_width >= 1000 && call_size >= 3;
                cc.set_nominal(pinned.then_some(0.65 + 0.28 * call_size as f64))
            }
        }
    }

    /// Refill `plans` for the controller's current target. Returns the
    /// controller's FEC fraction and the FEC bytes per media byte that fill
    /// what the plan left of the target (Zoom's; 0 for the others).
    fn plan(&mut self, plans: &mut Vec<StreamPlan>) -> (f64, f64) {
        let (target, fraction) = (self.cc().target_mbps(), self.cc().fec_fraction());
        let media_budget = (target * (1.0 - fraction)).max(0.02);
        match self {
            Sender::Meet { policy, .. } => policy.plan(media_budget, plans),
            Sender::Teams { policy, .. } => policy.plan(media_budget, plans),
            Sender::Zoom { policy, fec, .. } => {
                policy.plan(media_budget, plans);
                // FEC fills whatever the quantized plan left of the target.
                let planned: f64 = plans.iter().map(|p| p.rate_mbps).sum();
                fec.per_media = if fraction > 0.0 && planned > 0.02 {
                    ((target - planned) / planned).clamp(0.0, 2.0)
                } else {
                    0.0
                };
                return (fraction, fec.per_media);
            }
        }
        (fraction, 0.0)
    }
}

/// Pacer queue: (wire size, payload). Real WebRTC paces media at ~2.5× the
/// target rate so keyframe bursts do not slam the access queue.
#[derive(Default)]
struct Pacer {
    queue: std::collections::VecDeque<(usize, Wire)>,
    /// Whether a pace timer is pending.
    pacing: bool,
}

impl Pacer {
    fn push(&mut self, ctx: &mut Ctx<'_, Wire>, size: usize, payload: Wire) {
        self.queue.push_back((size, payload));
        if !self.pacing {
            self.pacing = true;
            ctx.set_timer_after(SimDuration::ZERO, TIMER_PACE);
        }
    }
}

/// Receive-side state for one inbound SSRC.
struct RecvStream {
    rtp: RtpRecvState,
    assembler: FrameAssembler,
    last_meta: Option<FrameMeta>,
    /// Last packet arrival (stats must ignore streams the SFU stopped
    /// forwarding, or a stale simulcast copy's metadata would linger).
    last_arrival: SimTime,
}

/// Render state per remote sender (freeze detection spans SSRC switches).
struct RenderState {
    freeze: FreezeDetector,
    fir: FirTracker,
    frames_total: u64,
}

/// One simulated VCA client.
pub struct VcaClient {
    /// This client's index within the call (0-based).
    pub index: u32,
    server: NodeId,
    uplink_flow: FlowId,
    sender: Sender,
    plans: Vec<StreamPlan>,
    sources: Vec<vcabench_media::TalkingHeadSource>,
    send_states: Vec<RtpSendState>,
    frame_timer_active: Vec<bool>,
    audio_send: RtpSendState,
    pacer: Pacer,
    rng: SimRng,
    /// Viewing mode announced to the server.
    pub mode: ViewMode,
    /// Receive state by inbound SSRC.
    recv: SmallMap<u32, RecvStream>,
    /// Render state by remote sender index.
    render: SmallMap<u32, RenderState>,
    /// Per-second WebRTC-style samples.
    pub stats: StatsCollector,
    /// FIRs received from remotes about this client's upstream (Fig 3b).
    pub firs_received: u64,
    /// Cumulative video media payload bytes handed to the pacer
    /// (passive-inference ground truth; excludes FEC/audio/headers).
    send_media_bytes: u64,
    /// Cumulative non-FEC video payload bytes received (ground truth).
    recv_media_bytes: u64,
    max_requested_width: u32,
    call_size: u32,
    last_stats_frames: u64,
    /// When the client joins the call (simulation of the paper's staggered
    /// starts: competing applications enter ~30 s into the experiment).
    pub join_at: SimTime,
    /// Trace hook (disabled by default; see [`VcaClient::set_telemetry`]).
    tel: Telemetry,
    /// Last emitted (state, signal) pair, for change detection.
    tel_cc: Option<(&'static str, &'static str)>,
    /// Last emitted (fraction, fec_per_media) bit patterns.
    tel_fec: Option<(u64, u64)>,
    /// Last emitted plan shape: (streams, top width, top fps bits).
    tel_plan: Option<(usize, u32, u64)>,
}

impl VcaClient {
    /// Build a client of `kind` with call index `index`, talking to `server`
    /// over `uplink_flow`. The RNG seeds the source noise and any controller
    /// jitter so repeated runs are reproducible. The only place a client
    /// reads its kind: it picks the `Sender` (controller, encoder policy
    /// and layout reaction) the client runs.
    pub fn new(
        kind: VcaKind,
        index: u32,
        server: NodeId,
        uplink_flow: FlowId,
        mode: ViewMode,
        rng: &mut SimRng,
    ) -> Self {
        let mut rng = rng.fork(&format!("client-{index}"));
        let teams = |cfg: TeamsConfig, rng: &mut SimRng| Sender::Teams {
            cc: TeamsController::new(cfg, rng),
            policy: TeamsPolicy::default(),
        };
        let sender = match kind {
            VcaKind::Meet => Sender::Meet {
                // Encoder ceiling: low (0.19) + high (0.76) simulcast streams.
                cc: GccController::new(GccConfig { max_mbps: 0.96 }),
                policy: MeetPolicy::default(),
            },
            VcaKind::Zoom | VcaKind::ZoomChrome => Sender::Zoom {
                cc: FbraController::new(FbraConfig {
                    reprobe_jitter: 0.8 + 0.4 * rng.uniform(),
                }),
                policy: ZoomPolicy::default(),
                fec: ClientFec {
                    per_media: 0.0,
                    debt_bytes: 0.0,
                    send: RtpSendState::new(Self::ssrc_base(index) + 500),
                },
            },
            VcaKind::Teams => teams(TeamsConfig::default(), &mut rng),
            // Lower target bitrates and a more timid controller than the
            // native client (Fig 1c).
            VcaKind::TeamsChrome => teams(
                TeamsConfig {
                    nominal_mbps: 1.10,
                    osc_amplitude_mbps: 0.18,
                    backoff_factor: 0.5,
                    slow_phase: SimDuration::from_secs(12),
                    slow_mbps_per_s: 0.015,
                    fast_per_s: 0.10,
                },
                &mut rng,
            ),
        };
        VcaClient {
            index,
            server,
            uplink_flow,
            sender,
            plans: Vec::new(),
            sources: Vec::new(),
            send_states: Vec::new(),
            frame_timer_active: Vec::new(),
            audio_send: RtpSendState::new(Self::ssrc_base(index) + 99),
            pacer: Pacer::default(),
            rng,
            mode,
            recv: SmallMap::new(),
            render: SmallMap::new(),
            stats: StatsCollector::new(),
            firs_received: 0,
            send_media_bytes: 0,
            recv_media_bytes: 0,
            max_requested_width: 640,
            call_size: 2,
            last_stats_frames: 0,
            join_at: SimTime::ZERO,
            tel: Telemetry::disabled(),
            tel_cc: None,
            tel_fec: None,
            tel_plan: None,
        }
    }

    /// Attach a telemetry handle; the client emits congestion-controller
    /// state transitions, FEC-ratio changes, layer switches, FIR and
    /// freeze events through it. Use the same handle as the network so one
    /// recorder sees the whole run in event order.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Delay this client's join until `at`.
    pub fn with_join_at(mut self, at: SimTime) -> Self {
        self.join_at = at;
        self
    }

    /// Enable/disable the Teams low-rate width-bug emulation (§3.2) on this
    /// client — the counterfactual knob for the ablation experiments; other
    /// kinds have no such bug.
    pub fn set_teams_width_bug(&mut self, enable: bool) {
        if let Sender::Teams { policy, .. } = &mut self.sender {
            policy.emulate_low_rate_bug = enable;
        }
    }

    /// Clamp the congestion controller's target range, Mbps (a declarative
    /// what-if knob for scenario specs: emulate clients provisioned with a
    /// lower encoder ceiling or a higher floor).
    pub fn set_rate_bounds(&mut self, min_mbps: f64, max_mbps: f64) {
        assert!(
            min_mbps > 0.0 && max_mbps >= min_mbps,
            "invalid rate bounds: [{min_mbps}, {max_mbps}]"
        );
        self.sender.cc().set_bounds(min_mbps, max_mbps);
    }

    /// SSRC base of client `index`: streams are base+i, audio base+99.
    pub fn ssrc_base(index: u32) -> u32 {
        (index + 1) * 1000
    }

    /// Sender index that owns `ssrc` (server FEC streams map to u32::MAX).
    pub fn sender_of(ssrc: u32) -> u32 {
        if ssrc >= 1000 {
            ssrc / 1000 - 1
        } else {
            u32::MAX
        }
    }

    fn ensure_stream_state(&mut self, count: usize) {
        while self.sources.len() < count {
            let i = self.sources.len();
            self.sources.push(vcabench_media::TalkingHeadSource::new(
                self.rng.fork(&format!("source-{i}")),
            ));
            self.send_states
                .push(RtpSendState::new(Self::ssrc_base(self.index) + i as u32));
            self.frame_timer_active.push(false);
        }
    }

    fn replan(&mut self, ctx: &mut Ctx<'_, Wire>) {
        let (fec, fec_per_media) = self.sender.plan(&mut self.plans);
        if self.tel.enabled() {
            let client = self.index as u64;
            let fec_key = (fec.to_bits(), fec_per_media.to_bits());
            if self.tel_fec != Some(fec_key) {
                self.tel_fec = Some(fec_key);
                self.tel.emit(ctx.now, || EventKind::FecRatio {
                    client,
                    fraction: fec,
                    fec_per_media,
                });
            }
            let top = self.plans.last();
            let shape = (
                self.plans.len(),
                top.map(|p| p.params.width).unwrap_or(0),
                top.map(|p| p.params.fps.to_bits()).unwrap_or(0),
            );
            if self.tel_plan != Some(shape) {
                self.tel_plan = Some(shape);
                let top_fps = top.map(|p| p.params.fps).unwrap_or(0.0);
                self.tel.emit(ctx.now, || EventKind::LayerSwitch {
                    client,
                    streams: shape.0 as u64,
                    top_width: shape.1 as u64,
                    top_fps,
                });
            }
        }
        self.ensure_stream_state(self.plans.len());
        for i in 0..self.plans.len() {
            if !self.frame_timer_active[i] {
                self.frame_timer_active[i] = true;
                ctx.set_timer_after(SimDuration::ZERO, TIMER_FRAME_BASE + i as u64);
            }
        }
    }

    fn emit_frame(&mut self, ctx: &mut Ctx<'_, Wire>, stream: usize) {
        let Some(plan) = self.plans.get(stream).copied() else {
            // Stream currently dropped: stop its timer and make sure it
            // restarts with a keyframe (subscribers must resync).
            if stream < self.frame_timer_active.len() {
                self.frame_timer_active[stream] = false;
                self.sources[stream].request_keyframe();
            }
            return;
        };
        let frame = self.sources[stream].next_frame(
            plan.rate_mbps,
            plan.params.fps,
            plan.params.width,
            plan.params.height,
        );
        let meta = FrameMeta {
            width: plan.params.width,
            height: plan.params.height,
            fps: plan.params.fps,
            qp: plan.params.qp,
            keyframe: frame.keyframe,
        };
        let frame_id = self.send_states[stream].next_frame();
        let ssrc = self.send_states[stream].ssrc;
        self.send_media_bytes += frame.bytes as u64;
        let pkts = frame.bytes.div_ceil(RTP_PAYLOAD).max(1) as u16;
        let mut remaining = frame.bytes;
        for p in 0..pkts {
            let payload = remaining.min(RTP_PAYLOAD);
            remaining -= payload;
            let seq = self.send_states[stream].next_seq();
            let rtp = RtpPacket {
                ssrc,
                seq,
                kind: StreamKind::Video,
                layer: plan.layer,
                frame_id,
                marker: p + 1 == pkts,
                frame_pkts: pkts,
                is_fec: false,
                is_retransmit: false,
                capture_ts: ctx.now,
                meta: Some(meta),
            };
            self.pacer
                .push(ctx, payload + RTP_HEADER + UDP_OVERHEAD, Wire::Rtp(rtp));
        }
        // Client-side FEC (Zoom): redundancy filling the target-to-plan gap,
        // emitted as extra packets on a dedicated SSRC.
        if let Sender::Zoom { fec, .. } = &mut self.sender {
            fec.debt_bytes += frame.bytes as f64 * fec.per_media;
            while fec.debt_bytes >= RTP_PAYLOAD as f64 {
                fec.debt_bytes -= RTP_PAYLOAD as f64;
                let rtp = RtpPacket {
                    ssrc: fec.send.ssrc,
                    seq: fec.send.next_seq(),
                    kind: StreamKind::Video,
                    layer: plan.layer,
                    frame_id,
                    marker: false,
                    frame_pkts: pkts,
                    is_fec: true,
                    is_retransmit: false,
                    capture_ts: ctx.now,
                    meta: None,
                };
                let size = RTP_PAYLOAD + RTP_HEADER + UDP_OVERHEAD;
                self.pacer.push(ctx, size, Wire::Rtp(rtp));
            }
        }
        // Schedule the next frame at the *current* plan's cadence.
        let fps = plan.params.fps.max(1.0);
        ctx.set_timer_after(
            SimDuration::from_secs_f64(1.0 / fps),
            TIMER_FRAME_BASE + stream as u64,
        );
    }

    fn pace_one(&mut self, ctx: &mut Ctx<'_, Wire>) {
        let Some((size, mut payload)) = self.pacer.queue.pop_front() else {
            self.pacer.pacing = false;
            return;
        };
        // Transport timestamps are taken at socket-write time: pacing delay
        // must not masquerade as network one-way delay, or delay-based
        // controllers (GCC) would react to their own pacer.
        if let Wire::Rtp(rtp) = &mut payload {
            rtp.capture_ts = ctx.now;
        }
        ctx.send(self.uplink_flow, self.server, size, payload);
        if self.pacer.queue.is_empty() {
            self.pacer.pacing = false;
        } else {
            // Pace at 1.25x the controller target, never below 300 kbps so
            // the queue always drains. (WebRTC's default factor is 2.5x, but
            // a drop-tail bottleneck punishes the burstier of two competing
            // flows disproportionately — with a high factor the simulated
            // incumbent loses its share to a smoother newcomer within
            // seconds, which real calls do not exhibit.)
            let pace_mbps = (1.25 * self.sender.cc().target_mbps()).max(0.3);
            // ±30% spacing jitter: strictly periodic arrivals phase-lock
            // with the bottleneck's drain pattern, letting one flow slip
            // through a full queue while another eats every drop.
            let jitter = self.rng.uniform_range(0.7, 1.3);
            let next = SimDuration::from_secs_f64(size as f64 * 8.0 * jitter / (pace_mbps * 1e6));
            ctx.set_timer_after(next, TIMER_PACE);
        }
    }

    fn emit_audio(&mut self, ctx: &mut Ctx<'_, Wire>) {
        // 0.04 Mbps at 20 ms cadence = 100 payload bytes per packet.
        let payload = (AUDIO_RATE_MBPS * 1e6 / 8.0 * AUDIO_INTERVAL.as_secs_f64()) as usize;
        let rtp = RtpPacket {
            ssrc: self.audio_send.ssrc,
            seq: self.audio_send.next_seq(),
            kind: StreamKind::Audio,
            layer: Default::default(),
            frame_id: 0,
            marker: true,
            frame_pkts: 1,
            is_fec: false,
            is_retransmit: false,
            capture_ts: ctx.now,
            meta: None,
        };
        ctx.send(
            self.uplink_flow,
            self.server,
            payload + RTP_HEADER + UDP_OVERHEAD,
            Wire::Rtp(rtp),
        );
        ctx.set_timer_after(AUDIO_INTERVAL, TIMER_AUDIO);
    }

    fn send_receiver_report(&mut self, ctx: &mut Ctx<'_, Wire>) {
        // All inbound SSRCs make one downlink report.
        let stats: IntervalStats = self
            .recv
            .values_mut()
            .map(|rs| rs.rtp.take_interval())
            .sum();
        if stats.received + stats.lost > 0 {
            let report = RtcpPacket::Report(ReceiverReport {
                ssrc: 0,
                loss_fraction: stats.loss_fraction(),
                receive_rate_mbps: stats.receive_rate_mbps(TICK),
                one_way_delay_ms: stats.min_owd_ms,
                max_requested_width: self.max_requested_width,
                call_size: self.call_size,
            });
            let size = report.wire_size();
            ctx.send(self.uplink_flow, self.server, size, Wire::Rtcp(report));
        }
        ctx.set_timer_after(TICK, TIMER_RTCP);
    }

    fn sample_stats(&mut self, ctx: &mut Ctx<'_, Wire>) {
        let top = self.plans.last();
        let (frames, freeze_time, freeze_count, firs_sent) = match self.primary_render() {
            Some(r) => (
                r.freeze.frames,
                r.freeze.freeze_time,
                r.freeze.freeze_count,
                r.fir.count,
            ),
            None => (self.last_stats_frames, SimDuration::ZERO, 0, 0),
        };
        let recv_fps = (frames - self.last_stats_frames) as f64;
        self.last_stats_frames = frames;
        let fresh = SimDuration::from_millis(1200);
        let (recv_width, recv_qp) = self
            .recv
            .values()
            .filter(|rs| ctx.now.saturating_since(rs.last_arrival) < fresh)
            .filter_map(|rs| rs.last_meta)
            .map(|m| (m.width, m.qp))
            .max_by_key(|&(w, _)| w)
            .unwrap_or((0, 0.0));
        self.stats.push(StatsSample {
            t: ctx.now,
            target_mbps: self.sender.cc().target_mbps(),
            send_width: top.map(|p| p.params.width).unwrap_or(0),
            send_fps: top.map(|p| p.params.fps).unwrap_or(0.0),
            send_qp: top.map(|p| p.params.qp).unwrap_or(0.0),
            recv_width,
            recv_fps,
            recv_qp,
            freeze_time,
            freeze_count,
            firs_sent,
            firs_received: self.firs_received,
            send_media_bytes: self.send_media_bytes,
            recv_media_bytes: self.recv_media_bytes,
            frames_decoded: self.render.values().map(|r| r.frames_total).sum(),
        });
        ctx.set_timer_after(SimDuration::from_secs(1), TIMER_STATS);
    }

    fn on_rtp(&mut self, ctx: &mut Ctx<'_, Wire>, pkt: &Packet<Wire>, rtp: &RtpPacket) {
        let rs = self.recv.get_or_insert_with(rtp.ssrc, || RecvStream {
            rtp: RtpRecvState::new(),
            assembler: FrameAssembler::new(),
            last_meta: None,
            last_arrival: ctx.now,
        });
        rs.last_arrival = ctx.now;
        let prev_highest = rs.rtp.highest_seq();
        rs.rtp.on_packet(ctx.now, rtp, pkt.size);
        // NACK sequence gaps on media streams (WebRTC-style retransmission;
        // the SFU answers from its per-subscriber buffer). Capped per event.
        if rtp.kind == StreamKind::Video && !rtp.is_fec && !rtp.is_retransmit {
            if let Some(h) = prev_highest {
                if rtp.seq > h + 1 {
                    for missing in (h + 1..rtp.seq).take(10) {
                        let nack = RtcpPacket::Nack {
                            ssrc: rtp.ssrc,
                            seq: missing,
                        };
                        ctx.send(
                            self.uplink_flow,
                            self.server,
                            nack.wire_size(),
                            Wire::Rtcp(nack),
                        );
                    }
                }
            }
        }
        if rtp.kind != StreamKind::Video || rtp.is_fec {
            return;
        }
        self.recv_media_bytes += pkt.size.saturating_sub(RTP_HEADER + UDP_OVERHEAD) as u64;
        if let Some(m) = rtp.meta {
            rs.last_meta = Some(m);
        }
        let ev = rs.assembler.on_packet(ctx.now, rtp, pkt.size);
        let needs_kf = rs.assembler.needs_keyframe;
        let sender = Self::sender_of(rtp.ssrc);
        let render = self.render.get_or_insert_with(sender, || RenderState {
            freeze: FreezeDetector::new(30.0),
            // 1 s hold-off: long enough that a starved receiver does not
            // force keyframes worth seconds of bitrate budget, short enough
            // that decode recovery does not add whole seconds of freeze.
            fir: FirTracker::new(SimDuration::from_millis(1000)),
            frames_total: 0,
        });
        if let vcabench_media::AssembleEvent::FrameComplete { .. } = ev {
            let freezes_before = render.freeze.freeze_count;
            render.freeze.on_frame(ctx.now);
            render.frames_total += 1;
            if render.freeze.freeze_count > freezes_before {
                let client = self.index as u64;
                let count = render.freeze.freeze_count;
                let total_ms = render.freeze.freeze_time.as_secs_f64() * 1000.0;
                self.tel.emit(ctx.now, || EventKind::Freeze {
                    client,
                    sender: sender as u64,
                    count,
                    total_ms,
                });
            }
        }
        if needs_kf {
            if let Some(fir) = render.fir.request(ctx.now, rtp.ssrc) {
                let size = fir.wire_size();
                ctx.send(self.uplink_flow, self.server, size, Wire::Rtcp(fir));
                let (client, ssrc) = (self.index as u64, rtp.ssrc as u64);
                self.tel.emit(ctx.now, || EventKind::Fir {
                    client,
                    ssrc,
                    dir: "sent",
                });
            }
        }
    }

    fn on_rtcp(&mut self, ctx: &mut Ctx<'_, Wire>, rtcp: &RtcpPacket) {
        match rtcp {
            RtcpPacket::Report(r) => {
                self.max_requested_width = r.max_requested_width;
                self.call_size = r.call_size;
                self.sender.on_layout(r.max_requested_width, r.call_size);
                let fb = FeedbackReport {
                    now: ctx.now,
                    loss_fraction: r.loss_fraction,
                    receive_rate_mbps: r.receive_rate_mbps,
                    one_way_delay_ms: r.one_way_delay_ms,
                };
                self.sender.cc().on_report(&fb);
                if self.tel.enabled() {
                    let (controller, state, signal) = self.sender.cc_state();
                    let key = (state, signal.unwrap_or(""));
                    if self.tel_cc != Some(key) {
                        self.tel_cc = Some(key);
                        let client = self.index as u64;
                        let target_mbps = self.sender.cc().target_mbps();
                        self.tel.emit(ctx.now, || EventKind::CcState {
                            client,
                            controller,
                            state,
                            signal,
                            target_mbps,
                        });
                    }
                }
            }
            RtcpPacket::Nack { .. } => {
                // Retransmissions are handled at the SFU (which owns the
                // egress sequence space); a client never serves NACKs.
            }
            RtcpPacket::Fir { ssrc, .. } => {
                self.firs_received += 1;
                let (client, fir_ssrc) = (self.index as u64, *ssrc as u64);
                self.tel.emit(ctx.now, || EventKind::Fir {
                    client,
                    ssrc: fir_ssrc,
                    dir: "received",
                });
                let base = Self::ssrc_base(self.index);
                let idx = ssrc.saturating_sub(base) as usize;
                if let Some(src) = self.sources.get_mut(idx) {
                    src.request_keyframe();
                }
            }
        }
    }

    /// Total frames decoded from remote sender `sender`.
    pub fn frames_decoded_from(&self, sender: u32) -> u64 {
        self.render
            .get(&sender)
            .map(|r| r.frames_total)
            .unwrap_or(0)
    }

    /// Primary rendered remote: lowest sender index that isn't us.
    fn primary_render(&self) -> Option<&RenderState> {
        self.render
            .iter()
            .find(|(&s, _)| s != self.index)
            .map(|(_, r)| r)
    }

    /// Freeze detector of the primary rendered remote, if any.
    pub fn primary_freeze(&self) -> Option<&FreezeDetector> {
        self.primary_render().map(|r| &r.freeze)
    }
}

/// Audit read-outs (empty unless the RTP receivers' hooks ran: builds with
/// debug assertions).
impl VcaClient {
    /// Invariant violations recorded by this client's RTP receivers
    /// (duplicate delivery, acausal arrival), ordered by SSRC.
    pub fn audit_violations(&self) -> Vec<vcabench_simcore::Violation> {
        self.recv
            .values()
            .flat_map(|r| r.rtp.audit_violations().to_vec())
            .collect()
    }

    /// Total invariant checks performed by this client's RTP receivers.
    pub fn audit_checks(&self) -> u64 {
        self.recv.values().map(|r| r.rtp.audit_checks()).sum()
    }
}

impl Agent<Wire> for VcaClient {
    fn start(&mut self, ctx: &mut Ctx<'_, Wire>) {
        if self.join_at > ctx.now {
            ctx.set_timer_at(self.join_at, TIMER_BOOT);
            return;
        }
        self.boot(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Wire>, pkt: Packet<Wire>) {
        if ctx.now < self.join_at {
            return;
        }
        match &pkt.payload {
            Wire::Rtp(rtp) => self.on_rtp(ctx, &pkt, rtp),
            Wire::Rtcp(rtcp) => self.on_rtcp(ctx, rtcp),
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire>, timer: u64) {
        match timer {
            TIMER_BOOT => self.boot(ctx),
            TIMER_RTCP => self.send_receiver_report(ctx),
            TIMER_PACE => self.pace_one(ctx),
            TIMER_AUDIO => self.emit_audio(ctx),
            TIMER_STATS => self.sample_stats(ctx),
            TIMER_REPLAN => {
                self.replan(ctx);
                ctx.set_timer_after(TICK, TIMER_REPLAN);
            }
            t if t >= TIMER_FRAME_BASE => self.emit_frame(ctx, (t - TIMER_FRAME_BASE) as usize),
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

impl VcaClient {
    fn boot(&mut self, ctx: &mut Ctx<'_, Wire>) {
        let pinned = match self.mode {
            ViewMode::Gallery => None,
            ViewMode::Speaker(p) => Some(p),
        };
        ctx.send(
            self.uplink_flow,
            self.server,
            80,
            Wire::Signal(SignalMsg::Layout { pinned }),
        );
        self.replan(ctx);
        ctx.set_timer_after(TICK, TIMER_RTCP);
        ctx.set_timer_after(AUDIO_INTERVAL, TIMER_AUDIO);
        ctx.set_timer_after(SimDuration::from_secs(1), TIMER_STATS);
        ctx.set_timer_after(TICK, TIMER_REPLAN);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcabench_congestion::SyntheticLink;

    #[test]
    fn ssrc_mapping_round_trips() {
        for idx in 0..32u32 {
            let base = VcaClient::ssrc_base(idx);
            // Every stream ssrc (media, fec, audio) maps back to its sender.
            for off in [0, 1, 2, 99, 500] {
                assert_eq!(VcaClient::sender_of(base + off), idx, "offset {off}");
            }
        }
        // Server-generated FEC ssrcs (< 1000) have no sender.
        assert_eq!(VcaClient::sender_of(100), u32::MAX);
        assert_eq!(VcaClient::sender_of(0), u32::MAX);
    }

    fn client(kind: VcaKind, rng: &mut SimRng) -> VcaClient {
        let (server, flow) = (vcabench_netsim::NodeId(9), vcabench_netsim::FlowId(1));
        VcaClient::new(kind, 0, server, flow, ViewMode::Gallery, rng)
    }

    /// `c`'s plan with its controller pinned at `target_mbps`.
    fn plan_at(c: &mut VcaClient, target_mbps: f64) -> (f64, f64) {
        c.set_rate_bounds(target_mbps, target_mbps);
        c.sender.plan(&mut c.plans)
    }

    #[test]
    fn controller_kind_matches_vca() {
        let mut rng = SimRng::seed_from_u64(1);
        for kind in VcaKind::ALL {
            let sender = client(kind, &mut rng).sender;
            let family = sender.cc_state().0;
            match kind {
                VcaKind::Meet => assert!(matches!(sender, Sender::Meet { .. }) && family == "gcc"),
                VcaKind::Zoom | VcaKind::ZoomChrome => {
                    assert!(matches!(sender, Sender::Zoom { .. }) && family == "fbra")
                }
                VcaKind::Teams | VcaKind::TeamsChrome => {
                    assert!(matches!(sender, Sender::Teams { .. }) && family == "teams")
                }
            }
        }
    }

    #[test]
    fn chrome_teams_is_more_timid() {
        let mut rng = SimRng::seed_from_u64(1);
        // Its lower nominal (1.10 vs 1.65 Mbps) is pinned by
        // `teams_pins_its_nominal_to_the_call_size_only_when_pinned`.
        let [native, chrome] = [VcaKind::Teams, VcaKind::TeamsChrome].map(|kind| {
            let mut c = client(kind, &mut rng);
            // One lossy report at 1 Mbps received: the target drops to the
            // backoff factor times the receive rate.
            let mut lossy = FeedbackReport::quiet(SimTime::from_secs(1), 1.0, 20.0);
            lossy.loss_fraction = 0.2;
            c.sender.cc().on_report(&lossy);
            c.sender.cc().target_mbps()
        });
        assert!(
            chrome < native,
            "Chrome backs off harder: {chrome} vs {native}"
        );
    }

    #[test]
    fn teams_pins_its_nominal_to_the_call_size_only_when_pinned() {
        let mut rng = SimRng::seed_from_u64(2);
        let t = SimTime::from_secs(13);
        for (kind, configured) in [(VcaKind::Teams, 1.65), (VcaKind::TeamsChrome, 1.10)] {
            let mut c = client(kind, &mut rng);
            // The set-point is the nominal plus an oscillation fixed by `t`.
            let mut nominal_at = |width, n| {
                c.sender.on_layout(width, n);
                let Sender::Teams { cc, .. } = &c.sender else {
                    unreachable!()
                };
                cc.setpoint_mbps(t)
            };
            let configured_sp = nominal_at(640, 4);
            for (width, n, nominal) in [
                (1280, 4, 0.65 + 0.28 * 4.0),
                (1000, 3, 0.65 + 0.28 * 3.0),
                (1280, 2, configured),
                (999, 6, configured),
                (1280, 8, 0.65 + 0.28 * 8.0),
                (640, 8, configured),
            ] {
                let shift = nominal_at(width, n) - configured_sp;
                let want = nominal - configured;
                assert!(
                    (shift - want).abs() < 1e-12,
                    "{kind:?} {width} px, n = {n}: {shift} vs {want}"
                );
            }
        }
    }

    #[test]
    fn only_the_teams_policy_has_the_width_bug() {
        for kind in VcaKind::ALL {
            let mut rng = SimRng::seed_from_u64(5);
            let mut with_bug = client(kind, &mut rng.clone());
            let mut without = client(kind, &mut rng);
            without.set_teams_width_bug(false);
            // A sustained 0.2 Mbps target: the bug jumps back to 720p.
            for _ in 0..300 {
                plan_at(&mut with_bug, 0.2);
                plan_at(&mut without, 0.2);
            }
            let is_teams = matches!(kind, VcaKind::Teams | VcaKind::TeamsChrome);
            assert_eq!(with_bug.plans != without.plans, is_teams, "{kind:?}");
            if is_teams {
                assert_eq!(with_bug.plans[0].params.width, 1280);
                assert!(without.plans[0].params.width < 1280);
            }
        }
    }

    #[test]
    fn zoom_follows_the_width_ceiling_and_pads_with_fec() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut c = client(VcaKind::Zoom, &mut rng);
        for width in [200, 350, 640, 1280] {
            c.sender.on_layout(width, 4);
            let ceiling = ZoomLadder::ceiling_for_width(width);
            let Sender::Zoom { cc, policy, .. } = &c.sender else {
                unreachable!()
            };
            let mut fresh = FbraController::new(FbraConfig::default());
            fresh.set_media_max(ceiling);
            assert_eq!(cc.nominal_mbps(), fresh.nominal_mbps(), "{width} px");
            assert_eq!(policy.max_layers, ZoomLadder::layers_for_width(width));
        }
        for target in [0.08, 0.3, 0.55, 0.9, 1.4, 3.0] {
            let (fraction, per_media) = plan_at(&mut c, target);
            assert!(fraction > 0.0, "FBRA always carries its steady FEC");
            let planned: f64 = c.plans.iter().map(|p| p.rate_mbps).sum();
            let want = ((target - planned) / planned).clamp(0.0, 2.0);
            assert_eq!(per_media.to_bits(), want.to_bits(), "target {target}");
            let Sender::Zoom { fec, .. } = &c.sender else {
                unreachable!()
            };
            assert_eq!(fec.per_media.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn meet_caps_its_high_copy_by_the_requested_width() {
        let mut rng = SimRng::seed_from_u64(4);
        let mut c = client(VcaKind::Meet, &mut rng);
        for (width, copies) in [
            (1280, vec![320, 960]),
            (640, vec![320, 640]),
            (320, vec![320]),
        ] {
            c.sender.on_layout(width, 4);
            let (fraction, per_media) = plan_at(&mut c, 0.96);
            assert_eq!((fraction, per_media), (0.0, 0.0), "Meet sends no FEC");
            let widths: Vec<u32> = c.plans.iter().map(|p| p.params.width).collect();
            assert_eq!(widths, copies, "{width} px");
        }
    }

    #[test]
    fn zoom_draws_its_reprobe_jitter_once() {
        let mut parent = SimRng::seed_from_u64(6);
        let mut expected = parent.fork("client-0");
        let jitter = 0.8 + 0.4 * expected.uniform();
        assert!((0.8..1.2).contains(&jitter));
        let mut c = client(VcaKind::Zoom, &mut parent);
        // Exactly one draw: the client's own stream continues after it.
        assert_eq!(c.rng.uniform().to_bits(), expected.uniform().to_bits());
        // And it is the controller's: a 0.5 Mbps link that lifts to 2 Mbps
        // at 30 s gives FBRA a ceiling to re-probe, on the jittered
        // schedule (72–108 s in); a reference with that jitter stays in step.
        let mut reference = FbraController::new(FbraConfig {
            reprobe_jitter: jitter,
        });
        let mut links = [SyntheticLink::new(0.5), SyntheticLink::new(0.5)];
        for tick in 1..=1500 {
            if tick == 300 {
                links = [SyntheticLink::new(2.0), SyntheticLink::new(2.0)];
            }
            let now = SimTime::from_millis(100 * tick);
            reference.on_report(&links[0].step(now, reference.target_mbps(), TICK));
            let cc = c.sender.cc();
            cc.on_report(&links[1].step(now, cc.target_mbps(), TICK));
            let got = cc.target_mbps();
            assert_eq!(
                got.to_bits(),
                reference.target_mbps().to_bits(),
                "tick {tick}"
            );
        }
    }

    #[test]
    fn join_delay_is_stored() {
        let mut rng = SimRng::seed_from_u64(1);
        let c = VcaClient::new(
            VcaKind::Meet,
            0,
            vcabench_netsim::NodeId(9),
            vcabench_netsim::FlowId(1),
            ViewMode::Gallery,
            &mut rng,
        )
        .with_join_at(SimTime::from_secs(30));
        assert_eq!(c.join_at, SimTime::from_secs(30));
    }

    #[test]
    fn two_clients_same_seed_same_rng_streams() {
        // Client construction forks the experiment RNG by index, so two
        // builds from identical parent state are identical.
        for kind in VcaKind::ALL {
            let mut a = client(kind, &mut SimRng::seed_from_u64(7));
            let mut b = client(kind, &mut SimRng::seed_from_u64(7));
            assert_eq!(
                a.rng.uniform().to_bits(),
                b.rng.uniform().to_bits(),
                "{kind:?}"
            );
            // Same oscillator phase → same set-point trajectory.
            if let (Sender::Teams { cc: x, .. }, Sender::Teams { cc: y, .. }) =
                (&a.sender, &b.sender)
            {
                let t = SimTime::from_secs(13);
                assert_eq!(x.setpoint_mbps(t).to_bits(), y.setpoint_mbps(t).to_bits());
            }
        }
    }
}
