//! The Netflix client model: segment ABR over many short TCP connections.
//!
//! The paper observes (§5.3, Fig 14): competing with Zoom on a 0.5 Mbps
//! downlink, Netflix opened **28 TCP connections** over the 120-second
//! experiment — at one point **11 in parallel** — yet still could not win
//! more than ~0.1 Mbps from Zoom. The model reproduces the mechanism: every
//! segment rides a fresh connection, and under starvation the client fans
//! the next segment out over parallel range requests.
//!
//! A fresh connection is fresh *state* on recycled buffers: the receiver of
//! a finished or abandoned download is reset for the next request (as the
//! server reopens its retired senders), so a stream allocates per
//! connection slot, not per segment, however long it runs.

use std::any::Any;

use vcabench_netsim::{Agent, Ctx, FlowId, NodeId, Packet};
use vcabench_simcore::{SimDuration, SimTime, SmallMap};
use vcabench_transport::{
    wire::{SignalMsg, TcpSegment, Wire},
    TcpReceiver,
};

use crate::abr::{
    pick_level, ThroughputEstimator, BUFFER_TARGET_S, DEFAULT_LEVELS, SEGMENT_SECONDS,
};

const TIMER_TICK: u64 = 1;
const TIMER_START: u64 = 2;
const TICK: SimDuration = SimDuration::from_millis(100);

struct Download {
    requested: u64,
    receiver: TcpReceiver,
    started_at: SimTime,
    segment: u64,
}

/// Per-second sample of the client's state (Fig 14b's connection counts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetflixSample {
    /// Sample time.
    pub t: SimTime,
    /// Connections currently transferring.
    pub parallel: usize,
    /// Playback buffer, seconds.
    pub buffer_s: f64,
}

/// The Netflix streaming client.
pub struct NetflixClient {
    server: NodeId,
    /// Flow for requests/ACKs toward the server.
    pub up_flow: FlowId,
    /// When the stream starts.
    pub active_from: SimTime,
    /// When the viewer closes the tab.
    pub active_until: Option<SimTime>,
    levels: Vec<f64>,
    est: ThroughputEstimator,
    /// In-flight downloads by connection id (ordered: the tick walks them
    /// oldest connection first, so throughput samples land in a fixed order).
    downloads: SmallMap<u64, Download>,
    /// Receivers of finished or abandoned downloads, kept for their buffers.
    spare: Vec<TcpReceiver>,
    /// The segments a tick abandons, then those it finishes; kept for its
    /// allocation.
    segments: Vec<u64>,
    next_conn: u64,
    next_segment: u64,
    buffer_s: f64,
    playing: bool,
    /// Consecutive slow segments (drives the parallel fan-out).
    starved_score: u32,
    /// Total connections opened (the Fig 14b headline count).
    pub connections_opened: u64,
    /// Per-second samples.
    pub samples: Vec<NetflixSample>,
}

impl NetflixClient {
    /// New client streaming from `server`, active in the given window.
    pub fn new(
        server: NodeId,
        up_flow: FlowId,
        active_from: SimTime,
        active_until: Option<SimTime>,
    ) -> Self {
        NetflixClient {
            server,
            up_flow,
            active_from,
            active_until,
            levels: DEFAULT_LEVELS.to_vec(),
            est: ThroughputEstimator::new(),
            downloads: SmallMap::new(),
            spare: Vec::new(),
            segments: Vec::new(),
            next_conn: 1,
            next_segment: 0,
            buffer_s: 0.0,
            playing: false,
            starved_score: 0,
            connections_opened: 0,
            samples: Vec::new(),
        }
    }

    /// Current quality level.
    pub fn level(&self) -> usize {
        pick_level(&self.levels, self.est.estimate_mbps())
    }

    fn request_next_segment(&mut self, ctx: &mut Ctx<'_, Wire>) {
        let level = self.level();
        let seg_bytes = (self.levels[level] * 1e6 / 8.0 * SEGMENT_SECONDS) as u64;
        // Fan out when starved: each consecutive slow segment doubles the
        // parallelism (capped), mirroring Netflix's observed behaviour of up
        // to 11 concurrent connections under contention.
        let parts = match self.starved_score {
            0 => 1,
            1 => 2,
            2 => 3,
            3 => 5,
            4 => 7,
            _ => 11,
        }
        .min(11);
        let per_part = (seg_bytes / parts as u64).max(20_000);
        let segment = self.next_segment;
        self.next_segment += 1;
        for _ in 0..parts {
            let conn = self.next_conn;
            self.next_conn += 1;
            self.connections_opened += 1;
            let mut receiver = self.spare.pop().unwrap_or_default();
            receiver.reset();
            self.downloads.insert(
                conn,
                Download {
                    requested: per_part,
                    receiver,
                    started_at: ctx.now,
                    segment,
                },
            );
            let msg = SignalMsg::SegmentRequest {
                conn,
                bytes: per_part,
            };
            ctx.send(self.up_flow, self.server, 120, Wire::Signal(msg));
        }
    }

    fn tick(&mut self, ctx: &mut Ctx<'_, Wire>) {
        if let Some(until) = self.active_until {
            if ctx.now >= until {
                self.downloads.clear();
                return; // stream closed
            }
        }
        // Playback drain.
        if self.playing {
            if self.buffer_s > 0.0 {
                self.buffer_s = (self.buffer_s - TICK.as_secs_f64()).max(0.0);
            } else {
                self.playing = false;
            }
        }
        // In-progress starvation: a segment stuck well past its duration is
        // abandoned and refetched with more parallelism (the mechanism that
        // drives Fig 14b's 11 concurrent connections — a stuck download
        // never completes and so could never raise the score by itself).
        let now = ctx.now;
        let mut segments = std::mem::take(&mut self.segments);
        segments.clear();
        let (est, spare) = (&mut self.est, &mut self.spare);
        self.downloads.retain(|_, d| {
            let elapsed = now.saturating_since(d.started_at);
            if elapsed.as_secs_f64() <= 3.0 * SEGMENT_SECONDS {
                return true;
            }
            // An abandoned download is still a throughput sample — without
            // it a client primed at high quality would keep requesting
            // segments it can never finish and the ladder level would stay
            // pinned high forever.
            est.on_download(d.receiver.bytes_received, elapsed);
            if !segments.contains(&d.segment) {
                segments.push(d.segment);
            }
            spare.push(std::mem::take(&mut d.receiver));
            false
        });
        // Refetch the abandoned segment(s); next_segment rewinds to the
        // earliest so playback order is preserved.
        if let Some(&earliest) = segments.iter().min() {
            self.starved_score = (self.starved_score + 1).min(6);
            self.next_segment = earliest;
            self.request_next_segment(ctx);
        }
        // Segment completion check.
        segments.clear();
        let (est, spare, score) = (&mut self.est, &mut self.spare, &mut self.starved_score);
        self.downloads.retain(|_, d| {
            if d.receiver.bytes_received < d.requested {
                return true;
            }
            let elapsed = now.saturating_since(d.started_at);
            est.on_download(d.receiver.bytes_received, elapsed);
            if elapsed.as_secs_f64() > SEGMENT_SECONDS * 2.75 {
                *score = (*score + 1).min(6);
            } else if elapsed.as_secs_f64() < SEGMENT_SECONDS * 2.5 {
                *score = score.saturating_sub(1);
            }
            segments.push(d.segment);
            spare.push(std::mem::take(&mut d.receiver));
            false
        });
        // A segment counts once all its parts are in.
        for seg in &segments {
            if !self.downloads.values().any(|d| d.segment == *seg) {
                self.buffer_s += SEGMENT_SECONDS;
                if self.buffer_s >= SEGMENT_SECONDS * 2.0 {
                    self.playing = true;
                }
            }
        }
        self.segments = segments;
        // Fetch-ahead.
        if self.downloads.is_empty() && self.buffer_s < BUFFER_TARGET_S {
            self.request_next_segment(ctx);
        }
        // Once-a-second sampling.
        if ctx.now.as_millis() % 1000 < TICK.as_millis() {
            self.samples.push(NetflixSample {
                t: ctx.now,
                parallel: self.downloads.len(),
                buffer_s: self.buffer_s,
            });
        }
        ctx.set_timer_after(TICK, TIMER_TICK);
    }
}

impl Agent<Wire> for NetflixClient {
    fn start(&mut self, ctx: &mut Ctx<'_, Wire>) {
        if self.active_from > ctx.now {
            ctx.set_timer_at(self.active_from, TIMER_START);
        } else {
            ctx.set_timer_after(SimDuration::ZERO, TIMER_TICK);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Wire>, pkt: Packet<Wire>) {
        if let Wire::Tcp(seg) = &pkt.payload {
            if seg.len > 0 {
                if let Some(d) = self.downloads.get_mut(&seg.conn) {
                    let ack = d.receiver.on_segment(seg.seq, seg.len);
                    let rsp = TcpSegment {
                        conn: seg.conn,
                        seq: 0,
                        len: 0,
                        ack: Some(ack),
                    };
                    ctx.send(self.up_flow, pkt.src, rsp.wire_size(), Wire::Tcp(rsp));
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire>, timer: u64) {
        match timer {
            TIMER_START => {
                self.request_next_segment(ctx);
                ctx.set_timer_after(TICK, TIMER_TICK);
            }
            TIMER_TICK => self.tick(ctx),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abr::AbrServer;
    use vcabench_netsim::{LinkConfig, LinkId, Network, RateProfile};

    /// Whether a per-second sample after `from` shows the buffer run dry
    /// once playback had buffered anything.
    fn rebuffered(c: &NetflixClient, from: SimTime) -> bool {
        let started = c.samples.iter().skip_while(|s| s.buffer_s == 0.0);
        started.filter(|s| s.t > from).any(|s| s.buffer_s == 0.0)
    }

    fn stream_net(down_mbps: f64) -> (Network<Wire>, NodeId, NodeId) {
        stream_net_with(RateProfile::constant_mbps(down_mbps))
    }

    fn stream_net_with(profile: RateProfile) -> (Network<Wire>, NodeId, NodeId) {
        let mut net: Network<Wire> = Network::new();
        let client = net.add_node();
        let server = net.add_node();
        let down = LinkConfig::mbps(1.0, SimDuration::from_millis(15))
            .with_profile(profile)
            .with_queue_bytes(32 * 1024);
        let l_down = net.add_link(server, client, down);
        let l_up = net.add_link(
            client,
            server,
            LinkConfig::mbps(1000.0, SimDuration::from_millis(15)),
        );
        net.route(server, client, l_down);
        net.route(client, server, l_up);
        (net, client, server)
    }

    #[test]
    fn streams_at_high_quality_on_fat_link() {
        let (mut net, client, server) = stream_net(20.0);
        net.set_agent(
            client,
            Box::new(NetflixClient::new(server, FlowId(1), SimTime::ZERO, None)),
        );
        net.set_agent(server, Box::new(AbrServer::new(FlowId(2))));
        net.run_until(SimTime::from_secs(60));
        let c: &NetflixClient = net.agent(client);
        assert!(
            c.level() >= 3,
            "should reach a high level, got {}",
            c.level()
        );
        assert!(c.buffer_s > 5.0, "buffer built: {}", c.buffer_s);
        assert!(!rebuffered(c, SimTime::ZERO));
        // The server → client link is the first one `stream_net_with` adds.
        assert!(net.link(LinkId(0)).stats.total_delivered_bytes() > 4_000_000);
        // One connection per segment, no starvation fan-out.
        assert!(c.starved_score <= 1);
    }

    #[test]
    fn buffer_drains_and_rebuffers_after_collapse() {
        // 30 s at 20 Mbps builds the playback buffer toward its 20 s
        // target; then the link collapses to 0.02 Mbps — far below even the
        // bottom ladder level — so playback drains the buffer at 1 s/s and
        // the client must eventually rebuffer and pin the quality floor.
        let profile = RateProfile::constant_mbps(20.0).step(SimTime::from_secs(30), 0.02 * 1e6);
        let (mut net, client, server) = stream_net_with(profile);
        net.set_agent(
            client,
            Box::new(NetflixClient::new(server, FlowId(1), SimTime::ZERO, None)),
        );
        net.set_agent(server, Box::new(AbrServer::new(FlowId(2))));
        net.run_until(SimTime::from_secs(30));
        let buffer_at_collapse = {
            let c: &NetflixClient = net.agent(client);
            assert!(c.buffer_s > 10.0, "buffer built first: {}", c.buffer_s);
            assert!(
                !rebuffered(c, SimTime::ZERO),
                "healthy phase must not rebuffer"
            );
            c.buffer_s
        };
        net.run_until(SimTime::from_secs(120));
        let c: &NetflixClient = net.agent(client);
        assert!(
            c.buffer_s < buffer_at_collapse / 2.0,
            "buffer drained: {} -> {}",
            buffer_at_collapse,
            c.buffer_s
        );
        assert!(
            rebuffered(c, SimTime::from_secs(30)),
            "starved playback rebuffers"
        );
        assert_eq!(c.level(), 0, "quality pinned at the ladder floor");
    }

    #[test]
    fn starvation_opens_parallel_connections() {
        // 0.08 Mbps for a 0.3 Mbps bottom level: chronically starved —
        // segments exceed the abandon threshold and the client fans out
        // (the §5.3 behaviour; at mild starvation it stays sequential).
        let (mut net, client, server) = stream_net(0.08);
        net.set_agent(
            client,
            Box::new(NetflixClient::new(server, FlowId(1), SimTime::ZERO, None)),
        );
        net.set_agent(server, Box::new(AbrServer::new(FlowId(2))));
        net.run_until(SimTime::from_secs(120));
        let c: &NetflixClient = net.agent(client);
        let max_parallel = c.samples.iter().map(|s| s.parallel).max().unwrap_or(0);
        assert!(
            max_parallel >= 3,
            "starved client should fan out, max parallel {max_parallel}"
        );
        assert!(
            c.connections_opened >= 10,
            "many connections over 120 s: {}",
            c.connections_opened
        );
        assert_eq!(c.level(), 0, "pinned at the bottom of the ladder");
    }
}
