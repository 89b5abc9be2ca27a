//! The YouTube client model: segment ABR over a single QUIC connection.
//!
//! §5.3 pits the VCAs against YouTube, "which uses QUIC, a UDP-based
//! transport protocol, which can be TCP-friendly depending on some
//! configuration values". For bandwidth-sharing purposes the referenced
//! study (Corbel et al.) finds QUIC's CUBIC configuration competes like TCP,
//! so the model reuses the CUBIC state machine over a single long-lived
//! connection — the structural difference from Netflix (no connection
//! churn, no parallel fan-out).

use std::any::Any;

use vcabench_netsim::{Agent, Ctx, FlowId, NodeId, Packet};
use vcabench_simcore::{SimDuration, SimTime};
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
/// The one QUIC connection id.
const QUIC_CONN: u64 = 9000;

/// The YouTube streaming client.
pub struct YoutubeClient {
    server: NodeId,
    /// Flow for requests/ACKs toward the server.
    pub up_flow: FlowId,
    /// Stream start time.
    pub active_from: SimTime,
    /// Stream end time.
    pub active_until: Option<SimTime>,
    receiver: TcpReceiver,
    est: ThroughputEstimator,
    /// Bytes expected by the end of the current segment (cumulative).
    expected_total: u64,
    segment_started: Option<SimTime>,
    segment_bytes: u64,
    buffer_s: f64,
    playing: bool,
}

impl YoutubeClient {
    /// New client streaming from `server` in the given activation window.
    pub fn new(
        server: NodeId,
        up_flow: FlowId,
        active_from: SimTime,
        active_until: Option<SimTime>,
    ) -> Self {
        YoutubeClient {
            server,
            up_flow,
            active_from,
            active_until,
            receiver: TcpReceiver::new(),
            est: ThroughputEstimator::new(),
            expected_total: 0,
            segment_started: None,
            segment_bytes: 0,
            buffer_s: 0.0,
            playing: false,
        }
    }

    /// Current ladder level.
    pub fn level(&self) -> usize {
        pick_level(&DEFAULT_LEVELS, self.est.estimate_mbps())
    }

    fn request_segment(&mut self, ctx: &mut Ctx<'_, Wire>) {
        let level = self.level();
        let bytes = (DEFAULT_LEVELS[level] * 1e6 / 8.0 * SEGMENT_SECONDS) as u64;
        self.expected_total += bytes;
        self.segment_started = Some(ctx.now);
        self.segment_bytes = bytes;
        let msg = SignalMsg::SegmentRequest {
            conn: QUIC_CONN,
            bytes,
        };
        ctx.send(self.up_flow, self.server, 120, Wire::Signal(msg));
    }

    fn tick(&mut self, ctx: &mut Ctx<'_, Wire>) {
        if let Some(until) = self.active_until {
            if ctx.now >= until {
                return;
            }
        }
        if self.playing {
            if self.buffer_s > 0.0 {
                self.buffer_s = (self.buffer_s - TICK.as_secs_f64()).max(0.0);
            } else {
                self.playing = false;
            }
        }
        // Segment complete?
        if let Some(started) = self.segment_started {
            if self.receiver.bytes_received >= self.expected_total {
                self.est
                    .on_download(self.segment_bytes, ctx.now.saturating_since(started));
                self.segment_started = None;
                self.buffer_s += SEGMENT_SECONDS;
                if self.buffer_s >= SEGMENT_SECONDS * 2.0 {
                    self.playing = true;
                }
            }
        }
        if self.segment_started.is_none() && self.buffer_s < BUFFER_TARGET_S {
            self.request_segment(ctx);
        }
        ctx.set_timer_after(TICK, TIMER_TICK);
    }
}

impl Agent<Wire> for YoutubeClient {
    fn start(&mut self, ctx: &mut Ctx<'_, Wire>) {
        if self.active_from > ctx.now {
            ctx.set_timer_at(self.active_from, TIMER_START);
        } else {
            ctx.set_timer_after(SimDuration::ZERO, TIMER_TICK);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Wire>, pkt: Packet<Wire>) {
        if let Wire::Tcp(seg) = &pkt.payload {
            if seg.len > 0 && seg.conn == QUIC_CONN {
                let ack = self.receiver.on_segment(seg.seq, seg.len);
                let rsp = TcpSegment {
                    conn: QUIC_CONN,
                    seq: 0,
                    len: 0,
                    ack: Some(ack),
                };
                ctx.send(self.up_flow, pkt.src, rsp.wire_size(), Wire::Tcp(rsp));
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire>, timer: u64) {
        match timer {
            TIMER_START => {
                self.request_segment(ctx);
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
    use vcabench_netsim::{LinkConfig, Network, RateProfile};

    #[test]
    fn youtube_streams_and_adapts() {
        let mut net: Network<Wire> = Network::new();
        let client = net.add_node();
        let server = net.add_node();
        let down = LinkConfig::mbps(1.0, SimDuration::from_millis(15))
            .with_profile(RateProfile::constant_mbps(3.0))
            .with_queue_bytes(32 * 1024);
        let l_down = net.add_link(server, client, down);
        let l_up = net.add_link(
            client,
            server,
            LinkConfig::mbps(1000.0, SimDuration::from_millis(15)),
        );
        net.route(server, client, l_down);
        net.route(client, server, l_up);
        net.set_agent(
            client,
            Box::new(YoutubeClient::new(server, FlowId(1), SimTime::ZERO, None)),
        );
        net.set_agent(server, Box::new(AbrServer::new(FlowId(2))));
        // Once playing, playback never stalls.
        let mut played = false;
        for s in 1..=90 {
            net.run_until(SimTime::from_secs(s));
            let c: &YoutubeClient = net.agent(client);
            assert!(!played || c.playing, "rebuffered at {s} s");
            played |= c.playing;
        }
        let c: &YoutubeClient = net.agent(client);
        assert!(played);
        assert!(c.receiver.bytes_received > 3_000_000);
        // Ladder settles below the 3 Mbps link with the safety factor.
        assert!(c.level() >= 2, "level {}", c.level());
        assert!(c.level() <= 3);
    }
}
