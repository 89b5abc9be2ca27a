//! The call server: Meet's simulcast SFU, Zoom's SVC SFU with server-side
//! FEC, and Teams' pure relay.
//!
//! The paper traces every major inter-VCA difference in §4–§6 to what this
//! box does:
//!
//! * **Meet** (§3.1, §4.2): the server receives both simulcast copies and
//!   forwards one per receiver based on its downlink estimate, thinning the
//!   high stream temporally at mid rates. Switching copies is instant, so
//!   downlink disruptions recover in under ten seconds (Fig 5b), and the
//!   sender's uplink never reacts to a receiver's downlink problems (Fig 6).
//! * **Zoom** (§3.1, §4.2): the server receives SVC layers, forwards the
//!   stack each receiver's estimate supports, and adds FEC on the way down —
//!   the source of the sent/received asymmetry in Table 2.
//! * **Teams** (§4.2, Fig 6): the server only relays packets and receiver
//!   reports; all adaptation happens end-to-end at the sending client, which
//!   is why Teams recovers slowly in both directions.

use std::any::Any;

use vcabench_congestion::FeedbackReport;
use vcabench_media::ZoomLadder;
use vcabench_netsim::{Agent, Ctx, FlowId, NodeId, Packet};
use vcabench_simcore::{SimDuration, SimTime, SmallMap};
use vcabench_transport::{
    rtcp::{ReceiverReport, RtcpPacket},
    rtp::{RtpPacket, RtpRecvState, RtpSendState, StreamKind},
    wire::{SignalMsg, Wire},
};

use crate::client::VcaClient;
use crate::config::VcaKind;
use crate::layout::{requested_width, GridStyle, ViewMode};

const TICK: SimDuration = SimDuration::from_millis(100);
const TIMER_SENDER_REPORTS: u64 = 1;

/// Ring of recently forwarded packets: (egress seq, packet, wire size).
type RetxBuffer = std::collections::VecDeque<(u64, RtpPacket, usize)>;

/// Zoom's SFU cuts the stack against the unpinned ladder at a 5 % margin:
/// its elastic FEC absorbs the difference, so the stack fills the estimate
/// instead of wasting allocation on quantization.
const ZOOM_SFU_MARGIN: f64 = 0.95;

/// Per-receiver downlink rate estimation at the server.
enum DownEstimator {
    /// Loss-driven tracker — follow delivered rate down when loss exceeds
    /// `tolerance`, grow geometrically when clean (stream/layer switching at
    /// the SFU is cheap). Zoom's tolerance is high because its FEC absorbs
    /// moderate loss.
    Tracker {
        /// Estimated available downlink, Mbps.
        est: f64,
        /// Loss fraction below which delivery is considered unharmed.
        tolerance: f64,
    },
    /// Meet: a probing simulcast selector. Tier 0 = low copy, 1 = thinned
    /// high, 2 = full high. After `backoff_s` seconds of clean delivery it
    /// probes the next tier; a delivery collapse drops a tier and doubles
    /// the backoff (capped). This reproduces Meet's downlink signature:
    /// parked on the low copy at 0.5 Mbps (Fig 1b's floor), oscillating at
    /// 0.7, at nominal against an elastic TCP competitor (Fig 12b), and
    /// recovering within seconds after a disruption (Fig 5b).
    Probing {
        /// Current simulcast tier (0..=2).
        tier: u8,
        /// Seconds of clean delivery at the current tier.
        clean_s: f64,
        /// Seconds of clean delivery required before probing up.
        backoff_s: f64,
        /// Seconds spent at the current tier.
        at_tier_s: f64,
        /// Consecutive seconds of collapsed delivery.
        lossy_s: f64,
    },
    /// Teams: the server does not estimate.
    None,
}

impl DownEstimator {
    fn on_report(&mut self, fb: &FeedbackReport) {
        match self {
            DownEstimator::Tracker { est, tolerance } => {
                if fb.loss_fraction > *tolerance {
                    *est = (fb.receive_rate_mbps * 0.95).max(0.05);
                } else {
                    // Grow whenever loss stays within the tolerance budget
                    // (for Zoom, anything its FEC repairs): ~20 %/s, so layer
                    // switching recovers downlinks fast (Fig 5b).
                    *est = (*est * 1.02).min(20.0);
                }
            }
            DownEstimator::Probing {
                tier,
                clean_s,
                backoff_s,
                at_tier_s,
                lossy_s,
            } => {
                let dt = 0.1; // report cadence
                *at_tier_s += dt;
                if fb.loss_fraction > 0.08 {
                    // Only a *sustained* delivery collapse (a second or more)
                    // steps the tier down — an elastic competitor's transient
                    // loss bursts (TCP probing the queue) must not evict a
                    // copy that fits once the competitor backs off.
                    *lossy_s += dt;
                    *clean_s = 0.0;
                    if *lossy_s >= 1.0 {
                        if *tier > 0 {
                            *tier -= 1;
                        }
                        *backoff_s = (*backoff_s * 2.0).min(60.0);
                        *lossy_s = 0.0;
                        *at_tier_s = 0.0;
                    }
                } else if fb.loss_fraction < 0.02 {
                    *lossy_s = 0.0;
                    *clean_s += dt;
                    // A tier that has survived a while proves itself: relax
                    // the probe backoff.
                    if *at_tier_s > 8.0 {
                        *backoff_s = 6.0;
                    }
                    if *clean_s >= *backoff_s && *tier < 2 {
                        *tier += 1;
                        *clean_s = 0.0;
                        *at_tier_s = 0.0;
                    }
                } else {
                    *lossy_s = 0.0;
                    *clean_s = 0.0;
                }
            }
            DownEstimator::None => {}
        }
    }

    /// Per-sender share a probing estimator's tier corresponds to (used in
    /// place of a rate estimate for tier-based kinds).
    fn tier_share(tier: u8) -> f64 {
        match tier {
            0 => 0.40,
            1 => 0.58,
            _ => 0.90,
        }
    }

    /// Per-sender share this estimator grants (probing estimators bypass the
    /// rate-division arithmetic).
    fn share(&self, watched: f64, audio_total: f64) -> f64 {
        match self {
            DownEstimator::Probing { tier, .. } => Self::tier_share(*tier),
            other => ((other.estimate_mbps_raw() - audio_total) / watched).max(0.0),
        }
    }

    fn estimate_mbps_raw(&self) -> f64 {
        match self {
            DownEstimator::Tracker { est, .. } => *est,
            DownEstimator::Probing { tier, .. } => Self::tier_share(*tier) + 0.05,
            DownEstimator::None => f64::INFINITY,
        }
    }
}

/// Meet: which simulcast copy of one sender a receiver is being forwarded.
#[derive(Clone, Copy, Default)]
struct MeetCopy {
    /// The copy currently forwarded (`None` until the first video packet).
    current: Option<u8>,
    /// A pending switch: (tier, requested at). Switches are keyframe-gated
    /// — the old copy keeps flowing until the new copy's intra frame
    /// arrives, so the receiver never loses its decode chain on a switch.
    pending: Option<(u8, SimTime)>,
}

/// Per-receiver forwarding state.
struct ReceiverState {
    node: NodeId,
    flow: FlowId,
    mode: ViewMode,
    est: DownEstimator,
    /// Zoom server-side FEC bookkeeping.
    fec_debt_bytes: f64,
    fec_send: RtpSendState,
    /// Meet: simulcast copy selection, by sender index.
    meet: Vec<MeetCopy>,
    /// Retransmission buffer: the last forwarded video packets (post
    /// seq-rewrite) per ssrc. Serves NACKs the way real SFUs do.
    retx_buf: SmallMap<u32, RetxBuffer>,
    /// Egress sequence rewriting per ssrc: selective forwarding must not
    /// leave sequence gaps, or subscribers would report phantom loss (real
    /// SFUs rewrite RTP sequence numbers the same way).
    egress_seq: SmallMap<u32, u64>,
}

/// The call server agent.
pub struct VcaServer {
    /// Application this server serves.
    pub kind: VcaKind,
    grid: GridStyle,
    /// Client roster: index → node.
    clients: Vec<NodeId>,
    /// Roster index by node id (`None` for nodes outside the call).
    node_to_idx: Vec<Option<usize>>,
    receivers: Vec<ReceiverState>,
    /// Ingress accounting per sender and SSRC (drives sender RTCP for
    /// Meet/Zoom). Sequence spaces are per-SSRC; a combined tracker would
    /// garble gap detection.
    ingress: Vec<SmallMap<u32, RtpRecvState>>,
    /// Last time each video stream was seen at ingress, by sender index
    /// and spatial layer — a copy switch is only attempted toward a stream
    /// that is flowing.
    stream_seen: Vec<SmallMap<u8, SimTime>>,
}

impl VcaServer {
    /// Build a server for `kind` with the call roster and each client's
    /// downlink flow id.
    pub fn new(kind: VcaKind, clients: Vec<NodeId>, down_flows: Vec<FlowId>) -> Self {
        assert_eq!(clients.len(), down_flows.len());
        let grid = match kind {
            VcaKind::Zoom | VcaKind::ZoomChrome => GridStyle::Square,
            VcaKind::Meet => GridStyle::MeetTiles,
            VcaKind::Teams | VcaKind::TeamsChrome => GridStyle::FixedFour,
        };
        let n = clients.len();
        let mut node_to_idx = vec![None; clients.iter().map(|c| c.0 + 1).max().unwrap_or(0)];
        for (i, c) in clients.iter().enumerate() {
            node_to_idx[c.0] = Some(i);
        }
        let receivers = clients
            .iter()
            .zip(&down_flows)
            .enumerate()
            .map(|(i, (&node, &flow))| ReceiverState {
                node,
                flow,
                mode: ViewMode::Gallery,
                est: match kind {
                    // The SFU-side estimator is loss-driven and recovers
                    // quickly (simulcast switching is cheap — Fig 5b), and it
                    // only yields to *delivery* degradation, not queueing
                    // delay — which is why Meet is not TCP-friendly on the
                    // downlink (§5.2: 75 % of a 0.5 Mbps link against TCP).
                    VcaKind::Meet => DownEstimator::Probing {
                        tier: 0,
                        clean_s: 0.0,
                        backoff_s: 6.0,
                        at_tier_s: 0.0,
                        lossy_s: 0.0,
                    },
                    // Fresh estimators start low, like a newly joined
                    // client's ramp — a newcomer's downlink must not leap to
                    // a full allocation on a contended link (Fig 9a/10).
                    VcaKind::Zoom | VcaKind::ZoomChrome => DownEstimator::Tracker {
                        est: 0.2,
                        tolerance: 0.12,
                    },
                    _ => DownEstimator::None,
                },
                fec_debt_bytes: 0.0,
                fec_send: RtpSendState::new(100 + i as u32),
                meet: vec![MeetCopy::default(); n],
                retx_buf: SmallMap::new(),
                egress_seq: SmallMap::new(),
            })
            .collect();
        VcaServer {
            kind,
            grid,
            clients,
            node_to_idx,
            receivers,
            ingress: vec![SmallMap::new(); n],
            stream_seen: vec![SmallMap::new(); n],
        }
    }

    fn call_size(&self) -> usize {
        self.clients.len()
    }

    /// Width the most demanding subscriber wants from sender `s`.
    fn max_requested_width_for(&self, s: usize) -> u32 {
        let n = self.call_size();
        self.receivers
            .iter()
            .enumerate()
            .filter(|(r, _)| *r != s)
            .map(|(_, rs)| requested_width(self.grid, rs.mode, n, s as u32))
            .max()
            .unwrap_or(640)
    }

    /// Number of video senders a receiver `r` watches.
    fn watched_senders(&self) -> usize {
        let n = self.call_size();
        crate::layout::visible_remote_tiles(self.grid, n).min(n - 1)
    }

    /// Should sender `s`'s tile be visible to receiver `r`? (Teams shows at
    /// most four remote tiles; others show everyone.)
    fn visible(&self, r: usize, s: usize) -> bool {
        let limit = crate::layout::visible_remote_tiles(self.grid, self.call_size());
        // Deterministic selection: the lowest-index senders occupy tiles.
        let mut count = 0;
        for idx in 0..self.clients.len() {
            if idx == r {
                continue;
            }
            if idx == s {
                return count < limit;
            }
            count += 1;
        }
        false
    }

    /// Roster index of the client at `node`, if it is in the call.
    fn idx_of(&self, node: NodeId) -> Option<usize> {
        self.node_to_idx.get(node.0).copied().flatten()
    }

    fn next_egress_seq(&mut self, r: usize, ssrc: u32) -> u64 {
        let e = self.receivers[r].egress_seq.get_or_insert_with(ssrc, || 0);
        let s = *e;
        *e += 1;
        s
    }

    /// Zoom's server FEC ratio, shrunk when the receiver's headroom over the
    /// forwarded media stack is small.
    fn effective_fec_ratio(&self, share: f64) -> f64 {
        let base = self.kind.server_fec_ratio();
        if base == 0.0 {
            return 0.0;
        }
        // Headroom over the currently selected media stack.
        let ladder = ZoomLadder::GALLERY;
        let stack = ladder.cumulative[ladder.layers_fitting(share, ZOOM_SFU_MARGIN) - 1];
        ((share / stack - 1.0).max(0.0)).min(base)
    }

    /// Per-receiver per-sender share of the receiver's estimated downlink.
    fn share_for(&self, r: usize) -> f64 {
        let watched = self.watched_senders().max(1) as f64;
        let audio_total = self.call_size().saturating_sub(1) as f64 * self.kind.audio_rate_mbps();
        self.receivers[r].est.share(watched, audio_total)
    }

    fn forward_rtp(&mut self, ctx: &mut Ctx<'_, Wire>, pkt: &Packet<Wire>, rtp: &RtpPacket) {
        let Some(s) = self.idx_of(pkt.src) else {
            return;
        };
        self.ingress[s]
            .get_or_insert_with(rtp.ssrc, RtpRecvState::new)
            .on_packet(ctx.now, rtp, pkt.size);
        if rtp.kind == StreamKind::Video && !rtp.is_fec {
            self.stream_seen[s].insert(rtp.layer.spatial, ctx.now);
        }
        let n = self.call_size();
        for r in 0..self.receivers.len() {
            if r == s {
                continue;
            }
            // Zoom's relay strips client FEC and generates its own on the
            // way down (per the Zoom patent the paper cites) — this is what
            // makes downstream > upstream in Table 2.
            if rtp.is_fec && matches!(self.kind, VcaKind::Zoom | VcaKind::ZoomChrome) {
                continue;
            }
            if rtp.kind == StreamKind::Audio {
                let flow = self.receivers[r].flow;
                let node = self.receivers[r].node;
                let mut fwd = rtp.clone();
                if !matches!(self.kind, VcaKind::Teams | VcaKind::TeamsChrome) {
                    fwd.seq = self.next_egress_seq(r, rtp.ssrc);
                }
                ctx.send(flow, node, pkt.size, Wire::Rtp(fwd));
                continue;
            }
            if !self.visible(r, s) {
                continue;
            }
            let share = self.share_for(r);
            let req_width = requested_width(self.grid, self.receivers[r].mode, n, s as u32);
            let forward = match self.kind {
                VcaKind::Meet => {
                    // Choose the simulcast copy; thin the high copy
                    // temporally at mid rates. The switch threshold carries a
                    // margin (0.55) so a 0.5 Mbps downlink sits firmly on the
                    // low copy — the paper's 0.19 Mbps utilization floor.
                    // Switches are keyframe-gated (see `MeetCopy::pending`).
                    let fresh_high = self.stream_seen[s]
                        .get(&1)
                        .map(|&t| ctx.now.saturating_since(t) < SimDuration::from_millis(500))
                        .unwrap_or(false);
                    let want_high = req_width >= 350 && share >= 0.55 && fresh_high;
                    let desired: u8 = if want_high { 1 } else { 0 };
                    let copy = &mut self.receivers[r].meet[s];
                    let current = *copy.current.get_or_insert(desired);
                    let mut forward_tier = current;
                    if desired != current {
                        let need_request = match copy.pending {
                            Some((tier, _)) => tier != desired,
                            None => true,
                        };
                        if need_request {
                            copy.pending = Some((desired, ctx.now));
                            // Ask the sender for an intra frame on the
                            // desired copy so the receiver can join it.
                            let ssrc = VcaClient::ssrc_base(s as u32) + desired as u32;
                            let fir = RtcpPacket::Fir {
                                ssrc,
                                issued_at: ctx.now,
                            };
                            let s_flow = self.receivers[s].flow;
                            let s_node = self.receivers[s].node;
                            ctx.send(s_flow, s_node, fir.wire_size(), Wire::Rtcp(fir));
                        }
                    } else {
                        copy.pending = None;
                    }
                    let copy = &mut self.receivers[r].meet[s];
                    if let Some((tier, since)) = copy.pending {
                        let is_pending_stream = rtp.layer.spatial == tier;
                        let keyframe = rtp.meta.map(|m| m.keyframe).unwrap_or(false);
                        if is_pending_stream && keyframe {
                            // Promote on the new copy's intra frame.
                            copy.current = Some(tier);
                            copy.pending = None;
                            forward_tier = tier;
                        } else if ctx.now.saturating_since(since) > SimDuration::from_secs(2) {
                            // The keyframe never came (sender stopped the
                            // copy, heavy loss): give up on the switch.
                            copy.pending = None;
                        }
                    }
                    if rtp.layer.spatial != forward_tier {
                        false
                    } else if forward_tier == 1 {
                        // Thin to ~22 fps when the share is marginal (only
                        // odd frame ids are droppable enhancement frames).
                        !(share < 0.62 && rtp.frame_id % 4 == 1 && !rtp.is_fec)
                    } else {
                        true
                    }
                }
                VcaKind::Zoom | VcaKind::ZoomChrome => {
                    // Forward the SVC stack the receiver's estimate supports,
                    // bounded by layout demand.
                    let layers = ZoomLadder::GALLERY
                        .layers_fitting(share, ZOOM_SFU_MARGIN)
                        .min(ZoomLadder::layers_for_width(req_width));
                    (rtp.layer.spatial as usize) < layers
                }
                VcaKind::Teams | VcaKind::TeamsChrome => {
                    // Pure relay; in large calls the observed (unexplained)
                    // §6.1 downstream reduction is emulated as temporal
                    // thinning beyond five participants.
                    !(n > 5 && rtp.frame_id % 2 == 1 && !rtp.is_fec)
                }
            };
            if !forward {
                continue;
            }
            let flow = self.receivers[r].flow;
            let node = self.receivers[r].node;
            let mut fwd = rtp.clone();
            // Adapting SFUs (Meet, Zoom) rewrite sequence numbers per
            // subscriber so selective forwarding is not mistaken for loss.
            // Teams' box is a *pure relay*: sequence numbers pass through, so
            // uplink loss stays visible to the receiver whose reports drive
            // the sender (§4.2) — except in large thinned calls, where the
            // relay must rewrite to hide its own frame dropping.
            let rewrite = match self.kind {
                VcaKind::Teams | VcaKind::TeamsChrome => n > 5,
                _ => true,
            };
            if rewrite {
                fwd.seq = self.next_egress_seq(r, rtp.ssrc);
            }
            if fwd.kind == StreamKind::Video && !fwd.is_fec {
                let buf = self.receivers[r]
                    .retx_buf
                    .get_or_insert_with(fwd.ssrc, RetxBuffer::new);
                buf.push_back((fwd.seq, fwd.clone(), pkt.size));
                while buf.len() > 128 {
                    buf.pop_front();
                }
            }
            ctx.send(flow, node, pkt.size, Wire::Rtp(fwd));
            // Zoom server-side FEC on the downlink, elastic: the redundancy
            // ratio shrinks to fit the receiver's estimate so FEC never
            // starves media of a constrained link.
            let ratio = self.effective_fec_ratio(share);
            if ratio > 0.0 && !rtp.is_fec {
                let rs = &mut self.receivers[r];
                rs.fec_debt_bytes += pkt.size as f64 * ratio;
                while rs.fec_debt_bytes >= 1100.0 {
                    rs.fec_debt_bytes -= 1100.0;
                    let fec = RtpPacket {
                        ssrc: rs.fec_send.ssrc,
                        seq: rs.fec_send.next_seq(),
                        kind: StreamKind::Video,
                        layer: Default::default(),
                        frame_id: 0,
                        marker: false,
                        frame_pkts: 1,
                        is_fec: true,
                        is_retransmit: false,
                        capture_ts: ctx.now,
                        meta: None,
                    };
                    ctx.send(flow, node, 1140, Wire::Rtp(fec));
                }
            }
        }
    }

    fn on_receiver_report(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        from: NodeId,
        report: &ReceiverReport,
    ) {
        let Some(r) = self.idx_of(from) else {
            return;
        };
        let fb = FeedbackReport {
            now: ctx.now,
            loss_fraction: report.loss_fraction,
            receive_rate_mbps: report.receive_rate_mbps,
            one_way_delay_ms: report.one_way_delay_ms,
            rtt: SimDuration::from_secs_f64((report.rtt_ms / 1000.0).max(0.001)),
        };
        match self.kind {
            VcaKind::Meet | VcaKind::Zoom | VcaKind::ZoomChrome => {
                self.receivers[r].est.on_report(&fb);
            }
            VcaKind::Teams | VcaKind::TeamsChrome => {
                // Relay the report to every sender, rewriting the layout
                // demand fields for each destination.
                let n = self.call_size() as u32;
                for s in 0..self.clients.len() {
                    if s == r {
                        continue;
                    }
                    let mut fwd = *report;
                    fwd.max_requested_width =
                        requested_width(self.grid, self.receivers[r].mode, n as usize, s as u32);
                    fwd.call_size = n;
                    let flow = self.receivers[s].flow;
                    let node = self.receivers[s].node;
                    let size = RtcpPacket::Report(fwd).wire_size();
                    ctx.send(flow, node, size, Wire::Rtcp(RtcpPacket::Report(fwd)));
                }
            }
        }
    }

    fn send_sender_reports(&mut self, ctx: &mut Ctx<'_, Wire>) {
        if matches!(
            self.kind,
            VcaKind::Meet | VcaKind::Zoom | VcaKind::ZoomChrome
        ) {
            let n = self.call_size() as u32;
            for s in 0..self.clients.len() {
                // Aggregate the sender's streams; one-way delay is the
                // minimum across streams (standing queue, not burst noise).
                let mut received = 0u64;
                let mut lost = 0u64;
                let mut bytes = 0u64;
                let mut min_owd = f64::INFINITY;
                let mut mean_owd_w = 0.0;
                for st in self.ingress[s].values_mut() {
                    let iv = st.take_interval();
                    received += iv.received;
                    lost += iv.lost;
                    bytes += iv.bytes;
                    if iv.received > 0 {
                        min_owd = min_owd.min(iv.min_owd_ms);
                        mean_owd_w += iv.mean_owd_ms * iv.received as f64;
                    }
                }
                if received + lost == 0 {
                    continue;
                }
                let stats = vcabench_transport::rtp::IntervalStats {
                    received,
                    lost,
                    bytes,
                    mean_owd_ms: if received > 0 {
                        mean_owd_w / received as f64
                    } else {
                        0.0
                    },
                    min_owd_ms: if min_owd.is_finite() { min_owd } else { 0.0 },
                };
                // The report carries no cap from receiver downlinks:
                // simulcast decouples the sender from its subscribers'
                // problems — Fig 6 shows a Meet sender's rate unchanged
                // while its peer's downlink is crushed. Layout-driven caps
                // travel via `max_requested_width` instead.
                let report = ReceiverReport {
                    ssrc: VcaClient::ssrc_base(s as u32),
                    loss_fraction: stats.loss_fraction(),
                    receive_rate_mbps: stats.receive_rate_mbps(TICK),
                    one_way_delay_ms: stats.min_owd_ms,
                    rtt_ms: 2.0 * stats.mean_owd_ms,
                    max_requested_width: self.max_requested_width_for(s),
                    call_size: n,
                };
                let flow = self.receivers[s].flow;
                let node = self.receivers[s].node;
                let size = RtcpPacket::Report(report).wire_size();
                ctx.send(flow, node, size, Wire::Rtcp(RtcpPacket::Report(report)));
            }
        }
        ctx.set_timer_after(TICK, TIMER_SENDER_REPORTS);
    }

    /// Route a FIR from receiver `from` to the sender that owns `ssrc`.
    fn route_fir(&mut self, ctx: &mut Ctx<'_, Wire>, fir: RtcpPacket, ssrc: u32) {
        let sender = VcaClient::sender_of(ssrc);
        if sender == u32::MAX {
            return; // server-generated FEC stream: nothing to ask
        }
        let s = sender as usize;
        if s < self.receivers.len() {
            let flow = self.receivers[s].flow;
            let node = self.receivers[s].node;
            ctx.send(flow, node, fir.wire_size(), Wire::Rtcp(fir));
        }
    }
}

impl Agent<Wire> for VcaServer {
    fn start(&mut self, ctx: &mut Ctx<'_, Wire>) {
        ctx.set_timer_after(TICK, TIMER_SENDER_REPORTS);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Wire>, pkt: Packet<Wire>) {
        match &pkt.payload {
            Wire::Rtp(rtp) => {
                let rtp = rtp.clone();
                self.forward_rtp(ctx, &pkt, &rtp);
            }
            Wire::Rtcp(RtcpPacket::Report(report)) => {
                let report = *report;
                self.on_receiver_report(ctx, pkt.src, &report);
            }
            Wire::Rtcp(fir @ RtcpPacket::Fir { ssrc, .. }) => {
                let (fir, ssrc) = (*fir, *ssrc);
                self.route_fir(ctx, fir, ssrc);
            }
            Wire::Rtcp(RtcpPacket::Nack { ssrc, seq }) => {
                if let Some(r) = self.idx_of(pkt.src) {
                    if let Some(buf) = self.receivers[r].retx_buf.get(ssrc) {
                        if let Some((_, p, size)) = buf.iter().find(|(s, _, _)| s == seq) {
                            let mut retx = p.clone();
                            retx.is_retransmit = true;
                            let flow = self.receivers[r].flow;
                            let node = self.receivers[r].node;
                            ctx.send(flow, node, *size, Wire::Rtp(retx));
                        }
                    }
                }
            }
            Wire::Signal(SignalMsg::Layout { pinned }) => {
                if let Some(idx) = self.idx_of(pkt.src) {
                    self.receivers[idx].mode = match pinned {
                        Some(p) => ViewMode::Speaker(*p),
                        None => ViewMode::Gallery,
                    };
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire>, timer: u64) {
        if timer == TIMER_SENDER_REPORTS {
            self.send_sender_reports(ctx);
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

    fn fb(now_s: u64, loss: f64, rate: f64) -> FeedbackReport {
        FeedbackReport {
            now: vcabench_simcore::SimTime::from_secs(now_s),
            loss_fraction: loss,
            receive_rate_mbps: rate,
            one_way_delay_ms: 20.0,
            rtt: SimDuration::from_millis(40),
        }
    }

    fn probing() -> DownEstimator {
        DownEstimator::Probing {
            tier: 0,
            clean_s: 0.0,
            backoff_s: 4.0,
            at_tier_s: 0.0,
            lossy_s: 0.0,
        }
    }

    #[test]
    fn probing_climbs_on_clean_delivery() {
        let mut e = probing();
        // 4 s of clean reports → tier 1; 4 more → tier 2.
        for i in 0..100 {
            e.on_report(&fb(i, 0.0, 1.0));
        }
        match e {
            DownEstimator::Probing { tier, .. } => assert_eq!(tier, 2),
            _ => unreachable!(),
        }
    }

    #[test]
    fn probing_ignores_transient_loss_but_steps_down_on_sustained() {
        let mut e = probing();
        for i in 0..100 {
            e.on_report(&fb(i, 0.0, 1.0));
        }
        // A sub-second loss burst: tier unchanged.
        for i in 100..105 {
            e.on_report(&fb(i, 0.3, 0.4));
        }
        match e {
            DownEstimator::Probing { tier, .. } => assert_eq!(tier, 2, "transient tolerated"),
            _ => unreachable!(),
        }
        // Sustained collapse: steps down with backoff growth.
        for i in 105..130 {
            e.on_report(&fb(i, 0.3, 0.4));
        }
        match e {
            DownEstimator::Probing {
                tier, backoff_s, ..
            } => {
                assert!(tier < 2, "sustained loss steps down: {tier}");
                assert!(backoff_s > 4.0, "backoff grew: {backoff_s}");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn tier_shares_match_forwarding_thresholds() {
        // tier 0 must sit below the want_high threshold (0.55), tier 1 in the
        // thinned band [0.55, 0.62), tier 2 above.
        assert!(DownEstimator::tier_share(0) < 0.55);
        let t1 = DownEstimator::tier_share(1);
        assert!((0.55..0.62).contains(&t1));
        assert!(DownEstimator::tier_share(2) >= 0.62);
    }

    #[test]
    fn zoom_tracker_tolerates_fec_covered_loss() {
        let mut e = DownEstimator::Tracker {
            est: 0.5,
            tolerance: 0.12,
        };
        // 8% loss is within Zoom's FEC budget: the estimate keeps growing.
        for i in 0..50 {
            e.on_report(&fb(i, 0.08, 0.5));
        }
        match e {
            DownEstimator::Tracker { est, .. } => assert!(est > 0.5, "grew through loss: {est}"),
            _ => unreachable!(),
        }
        // 20% loss exceeds it: track the delivered rate down.
        e.on_report(&fb(60, 0.2, 0.3));
        match e {
            DownEstimator::Tracker { est, .. } => assert!((est - 0.285).abs() < 1e-9),
            _ => unreachable!(),
        }
    }

    #[test]
    fn server_kinds_and_grids() {
        let s = VcaServer::new(
            VcaKind::Teams,
            vec![vcabench_netsim::NodeId(0), vcabench_netsim::NodeId(1)],
            vec![vcabench_netsim::FlowId(1), vcabench_netsim::FlowId(2)],
        );
        assert_eq!(s.call_size(), 2);
        assert!(matches!(s.grid, GridStyle::FixedFour));
        let z = VcaServer::new(
            VcaKind::Zoom,
            vec![vcabench_netsim::NodeId(0), vcabench_netsim::NodeId(1)],
            vec![vcabench_netsim::FlowId(1), vcabench_netsim::FlowId(2)],
        );
        assert!(matches!(z.grid, GridStyle::Square));
    }

    #[test]
    fn visibility_limits_teams_tiles() {
        let nodes: Vec<_> = (0..8).map(vcabench_netsim::NodeId).collect();
        let flows: Vec<_> = (0..8).map(vcabench_netsim::FlowId).collect();
        let s = VcaServer::new(VcaKind::Teams, nodes.clone(), flows.clone());
        // Receiver 7 sees only the first four other senders.
        let visible: Vec<usize> = (0..7).filter(|&x| s.visible(7, x)).collect();
        assert_eq!(visible, vec![0, 1, 2, 3]);
        // A Zoom call shows everyone.
        let z = VcaServer::new(VcaKind::Zoom, nodes, flows);
        let visible: Vec<usize> = (0..7).filter(|&x| z.visible(7, x)).collect();
        assert_eq!(visible.len(), 7);
    }
}
