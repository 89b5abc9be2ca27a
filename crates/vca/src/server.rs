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
//!
//! Each is one forwarding `Policy`, picked in [`VcaServer::new`] and owning exactly
//! the state it reads; routing FIR / NACK / layout messages, the
//! retransmission ring and egress sequence rewriting are shared.

use std::any::Any;

use vcabench_congestion::FeedbackReport;
use vcabench_media::ZoomLadder;
use vcabench_netsim::{Agent, Ctx, FlowId, NodeId, Packet};
use vcabench_simcore::{SimDuration, SimTime, SmallMap};
use vcabench_transport::{
    rtcp::{ReceiverReport, RtcpPacket},
    rtp::{IntervalStats, RtpPacket, RtpRecvState, RtpSendState, StreamKind},
    wire::{SignalMsg, Wire, RTP_HEADER, RTP_PAYLOAD, UDP_OVERHEAD},
};

use crate::client::{VcaClient, AUDIO_RATE_MBPS};
use crate::config::VcaKind;
use crate::layout::{requested_width, visible_remote_tiles, GridStyle, ViewMode};

const TICK: SimDuration = SimDuration::from_millis(100);
/// Wire size of one server FEC packet: a full RTP payload with its headers.
const FEC_WIRE: usize = RTP_PAYLOAD + RTP_HEADER + UDP_OVERHEAD;
const TIMER_SENDER_REPORTS: u64 = 1;

/// Ring of recently forwarded packets: (egress seq, packet, wire size).
type RetxBuffer = std::collections::VecDeque<(u64, RtpPacket, usize)>;

/// Packets a retransmission ring holds per receiver and SSRC: the newest
/// ones, allocated once at full size.
const RETX_DEPTH: usize = 128;

/// An adapting SFU's ingress accounting per sender and SSRC (drives its
/// sender reports). Sequence spaces are per-SSRC; a combined tracker would
/// garble gap detection.
type Ingress = Vec<SmallMap<u32, RtpRecvState>>;

/// Per-sender share below which Meet forwards the low simulcast copy. The
/// margin keeps a 0.5 Mbps downlink firmly on the low copy — the paper's
/// 0.19 Mbps utilization floor.
const HIGH_COPY_SHARE: f64 = 0.55;
/// Per-sender share below which Meet thins the high copy to ~22 fps.
const FULL_RATE_SHARE: f64 = 0.62;

/// Zoom's SFU cuts the stack against the unpinned ladder at a 5 % margin:
/// its elastic FEC absorbs the difference, so the stack fills the estimate
/// instead of wasting allocation on quantization.
const ZOOM_SFU_MARGIN: f64 = 0.95;
/// Zoom's downlink FEC ratio at full headroom. Table 2 measures the
/// resulting asymmetry (up 0.78 vs down 0.95 Mbps ⇒ ~30–40 % server-side
/// redundancy).
const ZOOM_SERVER_FEC_RATIO: f64 = 0.30;
/// Loss Zoom's downlink estimate tolerates: what its FEC repairs.
const ZOOM_FEC_COVERED_LOSS: f64 = 0.12;

/// How the server forwards media, chosen once from the VCA kind.
enum Policy {
    /// Meet: one simulcast copy per receiver.
    Simulcast(Simulcast),
    /// Zoom: the SVC stack each receiver's estimate supports, plus FEC.
    Svc(Svc),
    /// Teams: a relay.
    Relay(Relay),
}

impl Policy {
    fn ingress(&mut self) -> Option<&mut Ingress> {
        match self {
            Policy::Simulcast(p) => Some(&mut p.ingress),
            Policy::Svc(p) => Some(&mut p.ingress),
            Policy::Relay(_) => None,
        }
    }

    /// Account a packet from sender `s` at ingress.
    fn on_ingress(&mut self, s: usize, rtp: &RtpPacket, size: usize, now: SimTime) {
        if let Some(ingress) = self.ingress() {
            let stream = ingress[s].get_or_insert_with(rtp.ssrc, RtpRecvState::new);
            stream.on_packet(now, rtp, size);
        }
        if let Policy::Simulcast(p) = self {
            if rtp.kind == StreamKind::Video && !rtp.is_fec {
                p.stream_seen[s].insert(rtp.layer.spatial, now);
            }
        }
    }

    /// Sender `s`'s ingress over the last report interval (`None` for the
    /// relay, which has no reports of its own to send).
    fn take_interval(&mut self, s: usize) -> Option<IntervalStats> {
        let streams = self.ingress()?[s].values_mut();
        Some(streams.map(RtpRecvState::take_interval).sum())
    }

    /// Whether receiver `r` is forwarded sender `s`'s packet, given the
    /// `width` its layout asks of `s`; and the SSRC `s` must first be asked
    /// for an intra frame on, if any.
    fn admits(
        &mut self,
        r: usize,
        s: usize,
        rtp: &RtpPacket,
        now: SimTime,
        width: u32,
    ) -> (bool, Option<u32>) {
        match self {
            // Zoom strips client FEC and generates its own on the way down
            // (per the Zoom patent the paper cites) — this is what makes
            // downstream > upstream in Table 2.
            Policy::Svc(_) if rtp.is_fec => (false, None),
            _ if rtp.kind == StreamKind::Audio => (true, None),
            Policy::Simulcast(p) => p.admits(r, s, rtp, now, width),
            Policy::Svc(p) => ((rtp.layer.spatial as usize) < p.layers(r, width), None),
            Policy::Relay(p) => (p.admits(rtp), None),
        }
    }

    /// Whether forwarded packets of `kind` get per-receiver sequence
    /// numbers. Adapting SFUs rewrite them so selective forwarding is not
    /// mistaken for loss (real SFUs do the same); the relay does not, so
    /// uplink loss stays visible to the receiver whose reports drive the
    /// sender (§4.2) — except for the video it thins.
    fn rewrites(&self, kind: StreamKind) -> bool {
        match self {
            Policy::Relay(p) => p.thins && kind == StreamKind::Video,
            _ => true,
        }
    }
}

/// Meet's probing simulcast selector, one per receiver. Tier 0 = low copy,
/// 1 = thinned high, 2 = full high. After `backoff_s` seconds of clean
/// delivery it probes the next tier; a delivery collapse drops a tier and
/// doubles the backoff (capped). This reproduces Meet's downlink signature:
/// parked on the low copy at 0.5 Mbps (Fig 1b's floor), oscillating at 0.7,
/// at nominal against an elastic TCP competitor (Fig 12b), and recovering
/// within seconds after a disruption (Fig 5b). It only yields to *delivery*
/// degradation, not queueing delay — which is why Meet is not TCP-friendly
/// on the downlink (§5.2: 75 % of a 0.5 Mbps link against TCP).
struct TierProbe {
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
}

impl TierProbe {
    fn new() -> Self {
        TierProbe {
            tier: 0,
            clean_s: 0.0,
            backoff_s: 6.0,
            at_tier_s: 0.0,
            lossy_s: 0.0,
        }
    }

    fn on_report(&mut self, fb: &FeedbackReport) {
        let dt = 0.1; // report cadence
        self.at_tier_s += dt;
        if fb.loss_fraction > 0.08 {
            // Only a *sustained* delivery collapse (a second or more) steps
            // the tier down — an elastic competitor's transient loss bursts
            // (TCP probing the queue) must not evict a copy that fits once
            // the competitor backs off.
            self.lossy_s += dt;
            self.clean_s = 0.0;
            if self.lossy_s >= 1.0 {
                self.tier = self.tier.saturating_sub(1);
                self.backoff_s = (self.backoff_s * 2.0).min(60.0);
                self.lossy_s = 0.0;
                self.at_tier_s = 0.0;
            }
        } else if fb.loss_fraction < 0.02 {
            self.lossy_s = 0.0;
            self.clean_s += dt;
            // A tier that has survived a while proves itself: relax the
            // probe backoff.
            if self.at_tier_s > 8.0 {
                self.backoff_s = 6.0;
            }
            if self.clean_s >= self.backoff_s && self.tier < 2 {
                self.tier += 1;
                self.clean_s = 0.0;
                self.at_tier_s = 0.0;
            }
        } else {
            self.lossy_s = 0.0;
            self.clean_s = 0.0;
        }
    }

    /// Per-sender share the tier stands for.
    fn share(&self) -> f64 {
        match self.tier {
            0 => 0.40,
            1 => 0.58,
            _ => 0.90,
        }
    }
}

/// Which simulcast copy of one sender one receiver is forwarded — the
/// upgrade / downgrade state of a per-subscriber layer filter.
#[derive(Clone, Copy, Default)]
struct CopyFilter {
    /// The copy currently forwarded (`None` until the first video packet).
    current: Option<u8>,
    /// A pending switch: (copy, requested at). Switches are keyframe-gated
    /// — the old copy keeps flowing until the new copy's intra frame
    /// arrives, so the receiver never loses its decode chain on a switch.
    pending: Option<(u8, SimTime)>,
}

impl CopyFilter {
    /// Aim at copy `desired`; true when that opens a switch, whose intra
    /// frame the sender must be asked for.
    fn retarget(&mut self, desired: u8, now: SimTime) -> bool {
        if *self.current.get_or_insert(desired) == desired {
            self.pending = None;
            false
        } else if self.pending.is_some_and(|(copy, _)| copy == desired) {
            false
        } else {
            self.pending = Some((desired, now));
            true
        }
    }

    /// Whether `rtp` goes through at per-sender `share`: the pending copy
    /// is promoted on its keyframe (or given up after 2 s), and the high
    /// copy is thinned at a marginal share (only odd frame ids are
    /// droppable enhancement frames).
    fn admits(&mut self, rtp: &RtpPacket, now: SimTime, share: f64) -> bool {
        if let Some((copy, since)) = self.pending {
            if rtp.layer.spatial == copy && rtp.meta.is_some_and(|m| m.keyframe) {
                self.current = Some(copy);
                self.pending = None;
            } else if now.saturating_since(since) > SimDuration::from_secs(2) {
                // The keyframe never came (sender stopped the copy, heavy
                // loss): give up on the switch.
                self.pending = None;
            }
        }
        match self.current {
            Some(1) if rtp.layer.spatial == 1 => {
                !(share < FULL_RATE_SHARE && rtp.frame_id % 4 == 1 && !rtp.is_fec)
            }
            Some(copy) => rtp.layer.spatial == copy,
            None => false,
        }
    }
}

/// Meet's simulcast SFU.
struct Simulcast {
    /// Downlink tier, by receiver.
    tiers: Vec<TierProbe>,
    /// Copy selection, by receiver and sender.
    copies: Vec<Vec<CopyFilter>>,
    /// Last time each video stream was seen at ingress, by sender and
    /// spatial layer — a copy switch is only attempted toward a stream that
    /// is flowing.
    stream_seen: Vec<SmallMap<u8, SimTime>>,
    ingress: Ingress,
}

impl Simulcast {
    fn new(n: usize) -> Self {
        Simulcast {
            tiers: (0..n).map(|_| TierProbe::new()).collect(),
            copies: vec![vec![CopyFilter::default(); n]; n],
            stream_seen: vec![SmallMap::new(); n],
            ingress: vec![SmallMap::new(); n],
        }
    }

    fn admits(
        &mut self,
        r: usize,
        s: usize,
        rtp: &RtpPacket,
        now: SimTime,
        width: u32,
    ) -> (bool, Option<u32>) {
        let share = self.tiers[r].share();
        let fresh_high = self.stream_seen[s]
            .get(&1)
            .is_some_and(|&t| now.saturating_since(t) < SimDuration::from_millis(500));
        let desired = u8::from(width >= 350 && share >= HIGH_COPY_SHARE && fresh_high);
        let copy = &mut self.copies[r][s];
        let fir = copy.retarget(desired, now);
        let fir = fir.then(|| VcaClient::ssrc_base(s as u32) + desired as u32);
        (copy.admits(rtp, now, share), fir)
    }
}

/// One receiver's downlink at Zoom's SFU.
struct SvcDownlink {
    /// Estimated available downlink, Mbps: follows the delivered rate down
    /// when loss exceeds what FEC repairs, grows geometrically otherwise.
    est_mbps: f64,
    /// Media bytes forwarded but not yet covered by server FEC, × ratio.
    fec_debt_bytes: f64,
    fec_send: RtpSendState,
}

impl SvcDownlink {
    fn on_report(&mut self, fb: &FeedbackReport) {
        self.est_mbps = if fb.loss_fraction > ZOOM_FEC_COVERED_LOSS {
            (fb.receive_rate_mbps * 0.95).max(0.05)
        } else {
            // ~20 %/s while loss stays within what FEC repairs, so layer
            // switching recovers downlinks fast (Fig 5b).
            (self.est_mbps * 1.02).min(20.0)
        };
    }
}

/// Zoom's SVC SFU with elastic server FEC.
struct Svc {
    /// By receiver.
    downlinks: Vec<SvcDownlink>,
    /// Audio every receiver gets from everyone else, Mbps.
    audio_mbps: f64,
    /// Senders every receiver watches.
    watched: f64,
    ingress: Ingress,
}

impl Svc {
    fn new(n: usize, watched: usize, audio_mbps: f64) -> Self {
        let downlinks = (0..n)
            .map(|r| SvcDownlink {
                // Fresh estimates start low, like a newly joined client's
                // ramp — a newcomer's downlink must not leap to a full
                // allocation on a contended link (Fig 9a/10).
                est_mbps: 0.2,
                fec_debt_bytes: 0.0,
                fec_send: RtpSendState::new(100 + r as u32),
            })
            .collect();
        Svc {
            downlinks,
            audio_mbps: n.saturating_sub(1) as f64 * audio_mbps,
            watched: watched.max(1) as f64,
            ingress: vec![SmallMap::new(); n],
        }
    }

    /// Receiver `r`'s estimate per watched sender.
    fn share(&self, r: usize) -> f64 {
        ((self.downlinks[r].est_mbps - self.audio_mbps) / self.watched).max(0.0)
    }

    /// Layers forwarded to `r` of a sender its layout shows `width` wide:
    /// what the estimate supports, bounded by what the tile needs.
    fn layers(&self, r: usize, width: u32) -> usize {
        let fitting = ZoomLadder::GALLERY.layers_fitting(self.share(r), ZOOM_SFU_MARGIN);
        fitting.min(ZoomLadder::layers_for_width(width))
    }

    /// The FEC ratio at per-sender `share`, shrunk to the headroom over the
    /// stack that share selects.
    fn fec_ratio(share: f64) -> f64 {
        let ladder = ZoomLadder::GALLERY;
        let stack = ladder.cumulative[ladder.layers_fitting(share, ZOOM_SFU_MARGIN) - 1];
        (share / stack - 1.0).clamp(0.0, ZOOM_SERVER_FEC_RATIO)
    }

    /// `send` the FEC packets owed to `r` once a `size`-byte media packet
    /// has gone down. Elastic: the ratio shrinks to fit the receiver's
    /// estimate, so FEC never starves media of a constrained link.
    fn repair(&mut self, r: usize, size: usize, now: SimTime, mut send: impl FnMut(RtpPacket)) {
        let ratio = Self::fec_ratio(self.share(r));
        let down = &mut self.downlinks[r];
        down.fec_debt_bytes += size as f64 * ratio;
        while down.fec_debt_bytes >= RTP_PAYLOAD as f64 {
            down.fec_debt_bytes -= RTP_PAYLOAD as f64;
            send(RtpPacket {
                ssrc: down.fec_send.ssrc,
                seq: down.fec_send.next_seq(),
                kind: StreamKind::Video,
                layer: Default::default(),
                frame_id: 0,
                marker: false,
                frame_pkts: 1,
                is_fec: true,
                is_retransmit: false,
                capture_ts: now,
                meta: None,
            });
        }
    }
}

/// Teams' relay: it passes packets and receiver reports on and estimates
/// nothing.
struct Relay {
    /// Above five participants the observed (unexplained) §6.1 downstream
    /// reduction is emulated as temporal thinning, with sequence numbers
    /// rewritten to hide the dropped frames.
    thins: bool,
}

impl Relay {
    fn admits(&self, rtp: &RtpPacket) -> bool {
        !(self.thins && rtp.frame_id % 2 == 1 && !rtp.is_fec)
    }
}

/// Forwarding state every policy keeps per receiver.
struct ReceiverState {
    node: NodeId,
    flow: FlowId,
    mode: ViewMode,
    /// Retransmission buffer: the last forwarded video packets (post
    /// seq-rewrite) per ssrc. Serves NACKs the way real SFUs do.
    retx_buf: SmallMap<u32, RetxBuffer>,
    /// Egress sequence numbers per ssrc, where the policy rewrites them.
    egress_seq: SmallMap<u32, u64>,
}

/// The call server agent.
pub struct VcaServer {
    grid: GridStyle,
    /// Roster index by node id (`None` for nodes outside the call).
    node_to_idx: Vec<Option<usize>>,
    /// By roster index.
    receivers: Vec<ReceiverState>,
    policy: Policy,
}

impl VcaServer {
    /// Build a server for `kind` with the call roster and each client's
    /// downlink flow id.
    pub fn new(kind: VcaKind, clients: Vec<NodeId>, down_flows: Vec<FlowId>) -> Self {
        assert_eq!(clients.len(), down_flows.len());
        let n = clients.len();
        let (grid, policy) = match kind {
            VcaKind::Meet => (GridStyle::MeetTiles, Policy::Simulcast(Simulcast::new(n))),
            VcaKind::Zoom | VcaKind::ZoomChrome => {
                let watched = visible_remote_tiles(GridStyle::Square, n).min(n.saturating_sub(1));
                let svc = Svc::new(n, watched, AUDIO_RATE_MBPS);
                (GridStyle::Square, Policy::Svc(svc))
            }
            VcaKind::Teams | VcaKind::TeamsChrome => {
                (GridStyle::FixedFour, Policy::Relay(Relay { thins: n > 5 }))
            }
        };
        let mut node_to_idx = vec![None; clients.iter().map(|c| c.0 + 1).max().unwrap_or(0)];
        for (i, c) in clients.iter().enumerate() {
            node_to_idx[c.0] = Some(i);
        }
        let receivers = clients
            .iter()
            .zip(&down_flows)
            .map(|(&node, &flow)| ReceiverState {
                node,
                flow,
                mode: ViewMode::Gallery,
                retx_buf: SmallMap::new(),
                egress_seq: SmallMap::new(),
            })
            .collect();
        VcaServer {
            grid,
            node_to_idx,
            receivers,
            policy,
        }
    }

    fn call_size(&self) -> usize {
        self.receivers.len()
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

    /// Should sender `s`'s tile be visible to receiver `r`? The
    /// lowest-index senders occupy the tiles (Teams shows at most four
    /// remote tiles; others show everyone).
    fn visible(&self, r: usize, s: usize) -> bool {
        let rank = if s > r { s - 1 } else { s };
        s != r && rank < visible_remote_tiles(self.grid, self.call_size())
    }

    /// Roster index of the client at `node`, if it is in the call.
    fn idx_of(&self, node: NodeId) -> Option<usize> {
        self.node_to_idx.get(node.0).copied().flatten()
    }

    /// Send `wire` down client `i`'s downlink.
    fn send_to(&self, ctx: &mut Ctx<'_, Wire>, i: usize, size: usize, wire: Wire) {
        ctx.send(self.receivers[i].flow, self.receivers[i].node, size, wire);
    }

    fn next_egress_seq(&mut self, r: usize, ssrc: u32) -> u64 {
        let e = self.receivers[r].egress_seq.get_or_insert_with(ssrc, || 0);
        let s = *e;
        *e += 1;
        s
    }

    fn forward_rtp(&mut self, ctx: &mut Ctx<'_, Wire>, pkt: &Packet<Wire>, rtp: &RtpPacket) {
        let Some(s) = self.idx_of(pkt.src) else {
            return;
        };
        self.policy.on_ingress(s, rtp, pkt.size, ctx.now);
        let n = self.call_size();
        let video = rtp.kind == StreamKind::Video;
        for r in 0..n {
            if r == s || (video && !self.visible(r, s)) {
                continue;
            }
            let width = requested_width(self.grid, self.receivers[r].mode, n, s as u32);
            let (forward, fir) = self.policy.admits(r, s, rtp, ctx.now, width);
            if let Some(ssrc) = fir {
                let fir = RtcpPacket::Fir {
                    ssrc,
                    issued_at: ctx.now,
                };
                self.send_to(ctx, s, fir.wire_size(), Wire::Rtcp(fir));
            }
            if !forward {
                continue;
            }
            let (flow, node) = (self.receivers[r].flow, self.receivers[r].node);
            let mut fwd = rtp.clone();
            if self.policy.rewrites(rtp.kind) {
                fwd.seq = self.next_egress_seq(r, rtp.ssrc);
            }
            if video && !fwd.is_fec {
                let buf = self.receivers[r]
                    .retx_buf
                    .get_or_insert_with(fwd.ssrc, || RetxBuffer::with_capacity(RETX_DEPTH));
                if buf.len() == RETX_DEPTH {
                    buf.pop_front();
                }
                buf.push_back((fwd.seq, fwd.clone(), pkt.size));
            }
            ctx.send(flow, node, pkt.size, Wire::Rtp(fwd));
            if let (Policy::Svc(svc), true) = (&mut self.policy, video) {
                svc.repair(r, pkt.size, ctx.now, |fec| {
                    ctx.send(flow, node, FEC_WIRE, Wire::Rtp(fec));
                });
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
        };
        match &mut self.policy {
            Policy::Simulcast(p) => p.tiers[r].on_report(&fb),
            Policy::Svc(p) => p.downlinks[r].on_report(&fb),
            Policy::Relay(_) => {
                // Relay the report to every sender, rewriting the layout
                // demand fields for each destination.
                let n = self.call_size();
                for s in (0..n).filter(|&s| s != r) {
                    let mut fwd = *report;
                    fwd.max_requested_width =
                        requested_width(self.grid, self.receivers[r].mode, n, s as u32);
                    fwd.call_size = n as u32;
                    let fwd = RtcpPacket::Report(fwd);
                    self.send_to(ctx, s, fwd.wire_size(), Wire::Rtcp(fwd));
                }
            }
        }
    }

    fn send_sender_reports(&mut self, ctx: &mut Ctx<'_, Wire>) {
        let n = self.call_size();
        for s in 0..n {
            let Some(stats) = self.policy.take_interval(s) else {
                break;
            };
            if stats.received + stats.lost == 0 {
                continue;
            }
            // The report carries no cap from receiver downlinks: simulcast
            // decouples the sender from its subscribers' problems — Fig 6
            // shows a Meet sender's rate unchanged while its peer's
            // downlink is crushed. Layout-driven caps travel via
            // `max_requested_width` instead. One-way delay is the minimum
            // across streams (standing queue, not burst noise).
            let report = RtcpPacket::Report(ReceiverReport {
                ssrc: VcaClient::ssrc_base(s as u32),
                loss_fraction: stats.loss_fraction(),
                receive_rate_mbps: stats.receive_rate_mbps(TICK),
                one_way_delay_ms: stats.min_owd_ms,
                max_requested_width: self.max_requested_width_for(s),
                call_size: n as u32,
            });
            self.send_to(ctx, s, report.wire_size(), Wire::Rtcp(report));
        }
        ctx.set_timer_after(TICK, TIMER_SENDER_REPORTS);
    }

    /// Route a FIR to the sender that owns `ssrc` (no sender owns a
    /// server-generated FEC stream: nothing to ask).
    fn route_fir(&self, ctx: &mut Ctx<'_, Wire>, fir: RtcpPacket, ssrc: u32) {
        let s = VcaClient::sender_of(ssrc) as usize;
        if s < self.call_size() {
            self.send_to(ctx, s, fir.wire_size(), Wire::Rtcp(fir));
        }
    }
}

impl Agent<Wire> for VcaServer {
    fn start(&mut self, ctx: &mut Ctx<'_, Wire>) {
        // The relay has no reports of its own to send.
        if self.policy.ingress().is_some() {
            ctx.set_timer_after(TICK, TIMER_SENDER_REPORTS);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Wire>, pkt: Packet<Wire>) {
        match &pkt.payload {
            Wire::Rtp(rtp) => self.forward_rtp(ctx, &pkt, rtp),
            Wire::Rtcp(RtcpPacket::Report(report)) => {
                self.on_receiver_report(ctx, pkt.src, report);
            }
            Wire::Rtcp(fir @ RtcpPacket::Fir { ssrc, .. }) => {
                self.route_fir(ctx, *fir, *ssrc);
            }
            Wire::Rtcp(RtcpPacket::Nack { ssrc, seq }) => {
                if let Some(r) = self.idx_of(pkt.src) {
                    if let Some(buf) = self.receivers[r].retx_buf.get(ssrc) {
                        if let Some((_, p, size)) = buf.iter().find(|(s, _, _)| s == seq) {
                            let mut retx = p.clone();
                            retx.is_retransmit = true;
                            self.send_to(ctx, r, *size, Wire::Rtp(retx));
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
    use vcabench_transport::rtp::{FrameMeta, Layer};

    fn fb(now_s: u64, loss: f64, rate: f64) -> FeedbackReport {
        FeedbackReport {
            now: SimTime::from_secs(now_s),
            loss_fraction: loss,
            receive_rate_mbps: rate,
            one_way_delay_ms: 20.0,
        }
    }

    fn server(kind: VcaKind, n: usize) -> VcaServer {
        let nodes = (0..n).map(NodeId).collect();
        VcaServer::new(kind, nodes, (0..n as u64).map(FlowId).collect())
    }

    fn rtp(kind: StreamKind, spatial: u8, frame_id: u64, keyframe: bool) -> RtpPacket {
        RtpPacket {
            ssrc: VcaClient::ssrc_base(0) + spatial as u32,
            seq: 0,
            kind,
            layer: Layer { spatial },
            frame_id,
            marker: false,
            frame_pkts: 1,
            is_fec: false,
            is_retransmit: false,
            capture_ts: SimTime::ZERO,
            meta: Some(FrameMeta {
                width: 640,
                height: 360,
                fps: 30.0,
                qp: 30.0,
                keyframe,
            }),
        }
    }

    fn video(spatial: u8, frame_id: u64, keyframe: bool) -> RtpPacket {
        rtp(StreamKind::Video, spatial, frame_id, keyframe)
    }

    fn probing() -> TierProbe {
        TierProbe {
            backoff_s: 4.0,
            ..TierProbe::new()
        }
    }

    #[test]
    fn probing_climbs_on_clean_delivery() {
        let mut e = probing();
        // 4 s of clean reports → tier 1; 4 more → tier 2.
        for i in 0..100 {
            e.on_report(&fb(i, 0.0, 1.0));
        }
        assert_eq!(e.tier, 2);
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
        assert_eq!(e.tier, 2, "transient tolerated");
        // Sustained collapse: steps down with backoff growth.
        for i in 105..130 {
            e.on_report(&fb(i, 0.3, 0.4));
        }
        assert!(e.tier < 2, "sustained loss steps down: {}", e.tier);
        assert!(e.backoff_s > 4.0, "backoff grew: {}", e.backoff_s);
    }

    #[test]
    fn tier_shares_match_forwarding_thresholds() {
        // Tier 0 must sit below the high-copy threshold, tier 1 in the
        // thinned band, tier 2 above.
        let share = |tier| TierProbe { tier, ..probing() }.share();
        assert!(share(0) < HIGH_COPY_SHARE);
        assert!((HIGH_COPY_SHARE..FULL_RATE_SHARE).contains(&share(1)));
        assert!(share(2) >= FULL_RATE_SHARE);
    }

    #[test]
    fn a_copy_switch_asks_once_and_promotes_on_the_new_keyframe() {
        let t = SimTime::from_secs;
        let mut copy = CopyFilter::default();
        assert!(!copy.retarget(0, t(0)), "the first target is taken as is");
        assert!(copy.admits(&video(0, 0, false), t(0), 0.9));
        // One FIR per pending copy, however often the switch is asked for.
        assert!(copy.retarget(1, t(1)));
        assert!(!copy.retarget(1, t(1)));
        // The old copy flows until the new one's keyframe arrives.
        assert!(!copy.admits(&video(1, 2, false), t(1), 0.9));
        assert!(copy.admits(&video(0, 2, false), t(1), 0.9));
        assert!(copy.admits(&video(1, 3, true), t(1), 0.9));
        assert!(!copy.admits(&video(0, 3, false), t(1), 0.9));
        assert_eq!((copy.current, copy.pending), (Some(1), None));
        // Back on target: nothing pending, nothing to ask.
        assert!(!copy.retarget(1, t(2)));
        // A new target asks again.
        assert!(copy.retarget(0, t(3)));
        assert!(!copy.retarget(0, t(3)));
    }

    #[test]
    fn a_copy_switch_gives_up_after_two_seconds() {
        let mut copy = CopyFilter::default();
        copy.retarget(0, SimTime::ZERO);
        assert!(copy.retarget(1, SimTime::ZERO));
        copy.admits(&video(0, 0, false), SimTime::from_secs(2), 0.9);
        assert!(copy.pending.is_some(), "2 s is not yet past the deadline");
        copy.admits(&video(0, 1, false), SimTime::from_millis(2001), 0.9);
        assert_eq!((copy.current, copy.pending), (Some(0), None));
        // The keyframe arriving late no longer switches.
        assert!(!copy.admits(&video(1, 2, true), SimTime::from_secs(3), 0.9));
        // Asking again opens a new switch.
        assert!(copy.retarget(1, SimTime::from_secs(3)));
    }

    #[test]
    fn the_high_copy_is_thinned_below_its_full_rate_share() {
        let mut high = CopyFilter {
            current: Some(1),
            pending: None,
        };
        let low_share = FULL_RATE_SHARE - 0.01;
        for frame in 0..8 {
            let p = video(1, frame, false);
            assert!(high.admits(&p, SimTime::ZERO, FULL_RATE_SHARE));
            assert_eq!(high.admits(&p, SimTime::ZERO, low_share), frame % 4 != 1);
        }
        // The low copy is never thinned.
        let mut low = CopyFilter {
            current: Some(0),
            pending: None,
        };
        assert!((0..8).all(|f| low.admits(&video(0, f, false), SimTime::ZERO, 0.0)));
    }

    #[test]
    fn the_simulcast_sfu_asks_for_the_high_copy_once_it_flows() {
        let mut s = server(VcaKind::Meet, 3);
        let Policy::Simulcast(meet) = &mut s.policy else {
            unreachable!()
        };
        meet.tiers[1].tier = 2;
        let t = SimTime::from_secs(1);
        // The high copy has not been seen: stay low, ask nothing.
        assert_eq!(meet.admits(1, 0, &video(0, 0, false), t, 640), (true, None));
        meet.stream_seen[0].insert(1, t);
        let fir = Some(VcaClient::ssrc_base(0) + 1);
        assert_eq!(meet.admits(1, 0, &video(0, 1, false), t, 640), (true, fir));
        assert_eq!(meet.admits(1, 0, &video(0, 2, false), t, 640), (true, None));
        // A small tile keeps the low copy.
        let (_, fir) = meet.admits(2, 0, &video(0, 0, false), t, 320);
        assert_eq!(fir, None);
    }

    #[test]
    fn zoom_tracker_tolerates_fec_covered_loss() {
        let mut s = Svc::new(2, 1, 0.04);
        s.downlinks[0].est_mbps = 0.5;
        let e = &mut s.downlinks[0];
        // 8% loss is within Zoom's FEC budget: the estimate keeps growing.
        for i in 0..50 {
            e.on_report(&fb(i, 0.08, 0.5));
        }
        assert!(e.est_mbps > 0.5, "grew through loss: {}", e.est_mbps);
        // 20% loss exceeds it: track the delivered rate down.
        e.on_report(&fb(60, 0.2, 0.3));
        assert!((e.est_mbps - 0.285).abs() < 1e-9);
    }

    #[test]
    fn the_svc_layer_cut_is_the_lower_of_estimate_and_layout() {
        // Two participants: one watched sender, 0.04 Mbps of audio.
        let mut s = Svc::new(2, 1, 0.04);
        let cut = |s: &Svc, width| s.layers(0, width);
        s.downlinks[0].est_mbps = 5.0;
        assert_eq!([cut(&s, 640), cut(&s, 400), cut(&s, 200)], [3, 2, 1]);
        s.downlinks[0].est_mbps = 0.04 + 0.40;
        assert_eq!([cut(&s, 640), cut(&s, 400), cut(&s, 200)], [2, 2, 1]);
        s.downlinks[0].est_mbps = 0.2;
        assert_eq!([cut(&s, 640), cut(&s, 400), cut(&s, 200)], [1, 1, 1]);
    }

    #[test]
    fn the_svc_fec_ratio_shrinks_to_the_headroom() {
        let stacks = ZoomLadder::GALLERY.cumulative;
        // Exactly on a stack: no headroom, no FEC.
        assert_eq!(Svc::fec_ratio(stacks[1]), 0.0);
        // A little above: the headroom.
        let ratio = Svc::fec_ratio(stacks[1] * 1.1);
        assert!((ratio - 0.1).abs() < 1e-9, "{ratio}");
        // Far above the top: the full ratio.
        assert_eq!(Svc::fec_ratio(5.0), ZOOM_SERVER_FEC_RATIO);
    }

    #[test]
    fn only_the_svc_policy_adds_fec() {
        for kind in VcaKind::ALL {
            let mut s = server(kind, 2);
            let zoom = matches!(kind, VcaKind::Zoom | VcaKind::ZoomChrome);
            let Policy::Svc(svc) = &mut s.policy else {
                assert!(!zoom, "{kind:?}");
                continue;
            };
            assert!(zoom, "{kind:?}");
            svc.downlinks[1].est_mbps = 5.0;
            let mut fec = Vec::new();
            for _ in 0..11 {
                svc.repair(1, 1100, SimTime::ZERO, |p| fec.push(p));
            }
            // 11 packets × 0.30 of redundancy: three FEC packets on the
            // server's own stream.
            assert_eq!(fec.len(), 3);
            assert!(fec.iter().all(|p| p.is_fec && p.ssrc == 101));
            assert_eq!(fec.iter().map(|p| p.seq).collect::<Vec<_>>(), [0, 1, 2]);
        }
    }

    #[test]
    fn the_relay_thins_and_rewrites_only_above_five() {
        for n in 2..=8 {
            let mut s = server(VcaKind::Teams, n);
            let thinned: Vec<u64> = (0..4)
                .filter(|&f| {
                    !s.policy
                        .admits(1, 0, &video(0, f, false), SimTime::ZERO, 640)
                        .0
                })
                .collect();
            let large = n > 5;
            assert_eq!(thinned, if large { vec![1, 3] } else { vec![] }, "n = {n}");
            assert_eq!(s.policy.rewrites(StreamKind::Video), large, "n = {n}");
            assert!(!s.policy.rewrites(StreamKind::Audio), "n = {n}");
        }
    }

    #[test]
    fn audio_always_goes_through_and_only_the_relay_keeps_its_seq() {
        for kind in VcaKind::ALL {
            for n in [2, 4, 8] {
                let mut s = server(kind, n);
                for frame in 0..4 {
                    let audio = rtp(StreamKind::Audio, 0, frame, false);
                    for width in [0, 320, 1280] {
                        let admitted = s.policy.admits(1, 0, &audio, SimTime::ZERO, width);
                        assert_eq!(admitted, (true, None), "{kind:?} n = {n}");
                    }
                }
                let relay = matches!(kind, VcaKind::Teams | VcaKind::TeamsChrome);
                assert_eq!(s.policy.rewrites(StreamKind::Audio), !relay, "{kind:?}");
            }
        }
    }

    #[test]
    fn server_kinds_and_grids() {
        let s = server(VcaKind::Teams, 2);
        assert_eq!(s.call_size(), 2);
        assert!(matches!(s.grid, GridStyle::FixedFour));
        assert!(matches!(s.policy, Policy::Relay(_)));
        let z = server(VcaKind::Zoom, 2);
        assert!(matches!(z.grid, GridStyle::Square));
        assert!(matches!(z.policy, Policy::Svc(_)));
        let m = server(VcaKind::Meet, 2);
        assert!(matches!(m.grid, GridStyle::MeetTiles));
        assert!(matches!(m.policy, Policy::Simulcast(_)));
    }

    #[test]
    fn visibility_limits_teams_tiles() {
        let s = server(VcaKind::Teams, 8);
        // Receiver 7 sees only the first four other senders.
        let visible: Vec<usize> = (0..7).filter(|&x| s.visible(7, x)).collect();
        assert_eq!(visible, vec![0, 1, 2, 3]);
        // Receiver 2 skips itself: senders 0, 1, 3, 4.
        let visible: Vec<usize> = (0..8).filter(|&x| s.visible(2, x)).collect();
        assert_eq!(visible, vec![0, 1, 3, 4]);
        // A Zoom call shows everyone.
        let z = server(VcaKind::Zoom, 8);
        let visible: Vec<usize> = (0..7).filter(|&x| z.visible(7, x)).collect();
        assert_eq!(visible.len(), 7);
    }
}
