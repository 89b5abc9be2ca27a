//! Adaptive-bitrate (ABR) streaming machinery shared by the Netflix and
//! YouTube models (§5.3).
//!
//! Both services fetch fixed-duration segments over reliable transport,
//! estimate throughput from completed downloads, and pick the highest
//! quality level the estimate supports. They differ in transport usage:
//! Netflix opens many short TCP connections (and fans out in parallel when
//! starved — Fig 14b counts 28 connections, up to 11 concurrent); YouTube
//! multiplexes one QUIC connection.
//!
//! Each Netflix segment gets fresh connection *state* on recycled buffers:
//! the server keeps the connections it retires and reopens one for the next
//! request, so a stream allocates per connection slot, not per segment.

use std::any::Any;

use vcabench_netsim::{Agent, Ctx, FlowId, NodeId, Packet};
use vcabench_simcore::{SimDuration, SimTime, SmallMap};
use vcabench_transport::{
    tcp::{Connection, TcpConfig},
    wire::{SignalMsg, Wire},
};

use crate::tcp_agents::{pump, TCP_TICK};

/// Bitrate ladder in Mbps (typical premium-VOD encodes).
/// fitted: unattributed.
pub const DEFAULT_LEVELS: [f64; 5] = [0.3, 0.7, 1.2, 2.3, 4.0];
/// Segment duration.
/// fitted: unattributed.
pub const SEGMENT_SECONDS: f64 = 4.0;
/// Playback buffer target.
/// fitted: unattributed.
pub const BUFFER_TARGET_S: f64 = 20.0;
/// Share of the throughput estimate a level may use.
/// fitted: unattributed.
const SAFETY_FACTOR: f64 = 0.8;
/// Weight of a new download in the throughput estimate.
/// fitted: unattributed.
const ESTIMATE_GAIN: f64 = 0.4;
/// The shortest download time a throughput sample divides by, seconds.
/// engineering: keeps a sample finite.
const MIN_SAMPLE_S: f64 = 1e-3;
/// How long a finished connection lingers for a persistent client's next
/// request.
/// engineering: outlives the gap between two segment requests.
const LINGER: SimDuration = SimDuration::from_secs(30);
/// Wire size of a segment request, bytes.
/// engineering: a wire size.
pub(crate) const REQUEST_WIRE: usize = 120;

/// Pick the highest ladder level sustainable at `est_mbps` with the standard
/// safety factor.
pub fn pick_level(levels: &[f64], est_mbps: f64) -> usize {
    let budget = est_mbps * SAFETY_FACTOR;
    levels.iter().rposition(|&l| l <= budget).unwrap_or(0)
}

/// EWMA throughput estimator over completed downloads.
#[derive(Debug, Clone)]
pub struct ThroughputEstimator {
    est_mbps: Option<f64>,
}

impl ThroughputEstimator {
    /// Fresh estimator.
    pub fn new() -> Self {
        ThroughputEstimator { est_mbps: None }
    }

    /// Record a completed download.
    pub fn on_download(&mut self, bytes: u64, elapsed: SimDuration) {
        let secs = elapsed.as_secs_f64().max(MIN_SAMPLE_S);
        let sample = bytes as f64 * 8.0 / secs / 1e6;
        self.est_mbps = Some(match self.est_mbps {
            Some(prev) => (1.0 - ESTIMATE_GAIN) * prev + ESTIMATE_GAIN * sample,
            None => sample,
        });
    }

    /// Current estimate (defaults to the bottom of the ladder).
    pub fn estimate_mbps(&self) -> f64 {
        self.est_mbps.unwrap_or(DEFAULT_LEVELS[0])
    }
}

impl Default for ThroughputEstimator {
    fn default() -> Self {
        Self::new()
    }
}

/// The origin/CDN server: answers segment requests by streaming `bytes`
/// over a per-request TCP connection (Netflix) or a shared one (YouTube —
/// the client simply reuses one connection id).
pub struct AbrServer {
    /// Flow id for data toward the client.
    pub data_flow: FlowId,
    /// Connections by (client node, connection id) with their last use;
    /// ordered, so the timer pumps them in the same order on every run.
    conns: SmallMap<(NodeId, u64), (Connection, SimTime)>,
    /// Retired connections, kept for their buffers: a new request reopens
    /// one of these before it builds a connection.
    retired: Vec<Connection>,
}

impl AbrServer {
    /// New server sending data on `data_flow`.
    pub fn new(data_flow: FlowId) -> Self {
        AbrServer {
            data_flow,
            conns: SmallMap::new(),
            retired: Vec::new(),
        }
    }
}

/// A connection with nothing to send yet, on a retired one's buffers when
/// there is one.
fn open(retired: &mut Vec<Connection>) -> Connection {
    let Some(mut c) = retired.pop() else {
        return Connection::new(TcpConfig, Some(0));
    };
    c.reopen(Some(0));
    c
}

impl Agent<Wire> for AbrServer {
    fn start(&mut self, ctx: &mut Ctx<'_, Wire>) {
        ctx.set_timer_after(TCP_TICK, 1);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Wire>, pkt: Packet<Wire>) {
        match &pkt.payload {
            Wire::Signal(SignalMsg::SegmentRequest { conn, bytes }) => {
                let key = (pkt.src, *conn);
                let now = ctx.now;
                let retired = &mut self.retired;
                let (c, last) = self.conns.get_or_insert_with(key, || (open(retired), now));
                *last = now;
                c.enqueue(*bytes);
                let actions = c.on_tick(ctx.now);
                pump(ctx, self.data_flow, pkt.src, *conn, actions);
            }
            Wire::Tcp(seg) => {
                if let Some(ack) = seg.ack {
                    if let Some((c, last)) = self.conns.get_mut(&(pkt.src, seg.conn)) {
                        *last = ctx.now;
                        let actions = c.on_ack(ctx.now, ack);
                        pump(ctx, self.data_flow, pkt.src, seg.conn, actions);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire>, _timer: u64) {
        for (&(peer, conn_id), (c, _)) in self.conns.iter_mut() {
            if !c.abandoned() {
                let actions = c.on_tick(ctx.now);
                pump(ctx, self.data_flow, peer, conn_id, actions);
            }
        }
        // Connections linger after completing their current request so a
        // persistent client (YouTube's single QUIC connection) can keep
        // using them — dropping early would restart sequence numbers.
        let now = ctx.now;
        let retired = &mut self.retired;
        self.conns.retain(|_, (c, last)| {
            let finished = c.done() || c.abandoned();
            let keep = !finished || now.saturating_since(*last) < LINGER;
            if !keep {
                retired.push(std::mem::replace(c, Connection::new(TcpConfig, Some(0))));
            }
            keep
        });
        ctx.set_timer_after(TCP_TICK, 1);
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

    #[test]
    fn level_picker_uses_safety_margin() {
        assert_eq!(pick_level(&DEFAULT_LEVELS, 10.0), 4);
        assert_eq!(pick_level(&DEFAULT_LEVELS, 1.0), 1); // 0.8 budget -> 0.7
        assert_eq!(pick_level(&DEFAULT_LEVELS, 0.2), 0);
        assert_eq!(pick_level(&DEFAULT_LEVELS, 3.0), 3);
    }

    #[test]
    fn quality_switches_follow_throughput() {
        // Drive estimator + picker through a bandwidth collapse and
        // recovery: the selected ladder level must ratchet down within a
        // few slow segments and climb back once downloads speed up again.
        let mut e = ThroughputEstimator::new();
        // Five fast segments: 3 MB in 4 s = 6 Mbps → top level (4.0 Mbps).
        for _ in 0..5 {
            e.on_download(3_000_000, SimDuration::from_secs(4));
        }
        assert_eq!(pick_level(&DEFAULT_LEVELS, e.estimate_mbps()), 4);
        // Collapse: 250 kB in 4 s = 0.5 Mbps. The EWMA (0.6 retain) needs a
        // handful of samples to converge; after six the pick must be at the
        // bottom of the ladder.
        let mut picks = Vec::new();
        for _ in 0..6 {
            e.on_download(250_000, SimDuration::from_secs(4));
            picks.push(pick_level(&DEFAULT_LEVELS, e.estimate_mbps()));
        }
        assert_eq!(
            *picks.last().unwrap(),
            0,
            "picks during collapse: {picks:?}"
        );
        // The downswitch is monotone — no upward flapping mid-collapse.
        assert!(picks.windows(2).all(|w| w[1] <= w[0]), "{picks:?}");
        // Recovery: fast segments again restore a high level.
        for _ in 0..6 {
            e.on_download(3_000_000, SimDuration::from_secs(4));
        }
        assert!(
            pick_level(&DEFAULT_LEVELS, e.estimate_mbps()) >= 3,
            "recovered estimate {}",
            e.estimate_mbps()
        );
    }

    #[test]
    fn estimator_ewma() {
        let mut e = ThroughputEstimator::new();
        assert_eq!(e.estimate_mbps(), DEFAULT_LEVELS[0]);
        // 1 MB in 4 s = 2 Mbps.
        e.on_download(1_000_000, SimDuration::from_secs(4));
        assert!((e.estimate_mbps() - 2.0).abs() < 1e-9);
        e.on_download(250_000, SimDuration::from_secs(4)); // 0.5 Mbps
        let est = e.estimate_mbps();
        assert!(est < 2.0 && est > 0.5, "smoothed: {est}");
    }
}
