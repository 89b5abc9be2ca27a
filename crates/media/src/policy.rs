//! Per-VCA encoder adaptation policies (§3.2).
//!
//! Given a media-rate target from the congestion controller, each policy
//! chooses the concrete encoding operating points. The policies are written
//! to reproduce the qualitative behaviour in Figure 2 of the paper:
//!
//! * **Teams**: one stream; adapts "mainly by increasing the quantization
//!   parameter and reducing the frame width, while keeping the FPS almost
//!   constant". At sustained targets under `TEAMS_BUG_BELOW_MBPS` it
//!   exhibits the paper's surprising bug: the frame width *increases*
//!   again — which, combined with the keyframe size floor in
//!   [`crate::source`], produces the FIR storm of Fig 3b.
//! * **Meet**: simulcast of a 320×180 low stream and a 640×360 high stream.
//!   The high stream adapts QP first, then FPS; below ~0.4 Mbps the high
//!   stream is dropped entirely (the receiver-visible width falls to 320 and
//!   the SFU forwards the low stream).
//! * **Zoom**: three-layer SVC (spatial+temporal); the sender transmits the
//!   deepest stack of layers whose cumulative rate fits the target.

use vcabench_transport::rtp::Layer;

use crate::codec::{bitrate_mbps, qp_for_bitrate, EncodingParams, BASE_QP, LADDER, QP_MAX};

/// The smallest media rate a policy is asked for or gives one stream,
/// Mbps; a plan under it carries no media worth padding.
/// engineering: a floor that keeps the rate model's inverse finite.
pub const MIN_MEDIA_MBPS: f64 = 0.02;
/// Frame rate of a full-quality stream: Teams' one stream, Meet's copies
/// and Zoom's top temporal layer.
/// fitted: Fig 2, the frame rate the streams hold unconstrained.
pub const FULL_FPS: f64 = 30.0;
/// Frame rate of a temporally halved stream: Zoom's base temporal layer
/// and Meet's starved low copy.
/// fitted: Fig 2.
pub const HALF_FPS: f64 = 15.0;
/// A subscriber wanting at least this width, px, has pinned the sender
/// (full-window view) rather than tiled it.
/// engineering: splits a pinned view from any gallery tile.
pub const PINNED_VIEW_WIDTH: u32 = 1000;
/// A tile at least this wide, px, is sent a second layer: Meet's high
/// copy, Zoom's L1.
/// fitted: Fig 15b, the n = 7 (Meet) and n = 5 (Zoom) uplink cliffs.
pub const SECOND_LAYER_WIDTH: u32 = 350;
/// A tile at least this wide, px, is sent Zoom's third layer.
/// fitted: Fig 15b.
pub const THIRD_LAYER_WIDTH: u32 = 600;

/// Weight of a new target in Teams' smoothed target.
/// fitted: Fig 2f, the bug shows on sustained, not transient, starvation.
const TEAMS_TARGET_GAIN: f64 = 0.02;
/// QP above which Teams steps down a ladder rung.
/// fitted: Fig 2.
const TEAMS_QP_STEP_DOWN: f64 = 42.0;
/// QP below which Teams steps up a ladder rung.
/// fitted: Fig 2.
const TEAMS_QP_STEP_UP: f64 = 31.0;
/// Smoothed target under which Teams jumps back to 720p frames, Mbps.
/// fitted: Fig 2f.
const TEAMS_BUG_BELOW_MBPS: f64 = 0.30;
/// Frame size of Meet's high copy in a pinned (full-window) view, px.
/// fitted: Fig 15c.
const MEET_PINNED_HIGH_SIZE: (u32, u32) = (960, 540);
/// Frame size of Meet's high copy in a tiled view, px.
/// fitted: unattributed.
const MEET_TILED_HIGH_SIZE: (u32, u32) = (640, 360);
/// QP of Meet's pinned 960×540 high copy at full quality (≈ 0.81 Mbps, a
/// pinned total of ≈ 1.0).
/// fitted: Fig 15c.
const MEET_PINNED_QP: f64 = 34.8;
/// Target cap when every subscriber's tile is tiny, Mbps.
/// fitted: Fig 15b, the n = 7 uplink cliff to 0.2 Mbps.
const MEET_TINY_TILES_MBPS: f64 = 0.25;
/// Target from which Meet's low copy runs at full rate and quality, Mbps.
/// fitted: Fig 2.
const MEET_LOW_FULL_MBPS: f64 = 0.15;
/// The least rate Meet's low copy is given, Mbps.
/// engineering: a floor under a starved low copy.
const MEET_LOW_MIN_MBPS: f64 = 0.05;
/// Target under which a running high copy is dropped, Mbps.
/// fitted: Fig 2f, the frame-width cliff at 0.4 Mbps.
const MEET_HIGH_KEEP_MBPS: f64 = 0.36;
/// Target from which a stopped high copy is restarted, Mbps.
/// fitted: Fig 2f.
const MEET_HIGH_START_MBPS: f64 = 0.42;
/// The least budget left by the low copy that keeps a high copy, Mbps.
/// fitted: Fig 2f.
const MEET_HIGH_MIN_BUDGET_MBPS: f64 = 0.1;
/// Share of the high copy's full rate down to which it adapts QP alone;
/// below it, frame rate goes.
/// fitted: Fig 2, QP adapts over the 0.7–1.0 Mbps sweep.
const MEET_QP_REGION: f64 = 0.45;
/// The lowest frame rate of Meet's high copy before it is dropped.
/// fitted: Fig 2.
const MEET_MIN_FPS: f64 = 7.5;
/// Share of a stack's rate a Zoom sender's target must reach to encode it:
/// the client pads the difference with FEC.
/// fitted: unattributed.
const ZOOM_SENDER_MARGIN: f64 = 0.90;

/// One stream/layer the encoder will emit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamPlan {
    /// Layer tag carried in the RTP packets.
    pub layer: Layer,
    /// Operating point.
    pub params: EncodingParams,
    /// Target rate of this stream, Mbps.
    pub rate_mbps: f64,
}

/// Microsoft Teams: single stream, QP-then-width adaptation, constant FPS.
#[derive(Debug, Clone)]
pub struct TeamsPolicy {
    /// Current rung in the resolution ladder.
    rung: usize,
    /// Smoothed target (gates the low-rate bug on *sustained* starvation,
    /// not on transient backoff dips).
    target_ema: f64,
    /// Emulate the paper's low-rate width bug (§3.2: the frame width
    /// "increases as uplink capacity is reduced to 0.3 Mbps", which the
    /// authors call "a poor design decision or implementation bug").
    pub emulate_low_rate_bug: bool,
}

impl Default for TeamsPolicy {
    fn default() -> Self {
        TeamsPolicy {
            rung: 0, // 1280x720
            target_ema: 1.0,
            emulate_low_rate_bug: true,
        }
    }
}

impl TeamsPolicy {
    /// Refill `plans` for the media-rate target (Mbps).
    pub fn plan(&mut self, target: f64, plans: &mut Vec<StreamPlan>) {
        let target = target.max(MIN_MEDIA_MBPS);
        self.target_ema = (1.0 - TEAMS_TARGET_GAIN) * self.target_ema + TEAMS_TARGET_GAIN * target;
        // Adjust the rung with hysteresis: QP past the step-down QP → step
        // down; QP under the step-up QP → step up.
        let (mut w, mut h) = LADDER[self.rung];
        let mut qp = qp_for_bitrate(w, h, FULL_FPS, target);
        if qp > TEAMS_QP_STEP_DOWN && self.rung + 1 < LADDER.len() {
            self.rung += 1;
        } else if qp < TEAMS_QP_STEP_UP && self.rung > 0 {
            self.rung -= 1;
        }
        // The bug: at very low targets the width climbs back up a rung
        // instead of continuing down.
        let mut effective_rung = self.rung;
        if self.emulate_low_rate_bug && self.target_ema < TEAMS_BUG_BELOW_MBPS {
            // The paper's Fig 2f anomaly: at sustained ~0.3 Mbps targets the
            // client jumps back to full 720p frames.
            effective_rung = 0;
        }
        (w, h) = LADDER[effective_rung];
        qp = qp_for_bitrate(w, h, FULL_FPS, target);
        plans.clear();
        plans.push(StreamPlan {
            layer: Layer::default(),
            params: EncodingParams::new(w, h, FULL_FPS, qp),
            rate_mbps: bitrate_mbps(w, h, FULL_FPS, qp),
        });
    }
}

/// Google Meet: simulcast {320×180, 640×360}.
#[derive(Debug, Clone)]
pub struct MeetPolicy {
    /// Largest width any subscriber wants (from the SFU, §6).
    pub max_requested_width: u32,
    /// Whether the high stream is currently encoded (hysteresis state).
    high_active: bool,
}

impl Default for MeetPolicy {
    fn default() -> Self {
        MeetPolicy {
            max_requested_width: 640,
            high_active: false,
        }
    }
}

impl MeetPolicy {
    /// Refill `plans` for the media-rate target (Mbps).
    pub fn plan(&mut self, target: f64, plans: &mut Vec<StreamPlan>) {
        let mut target = target.max(MIN_MEDIA_MBPS);
        // Tiny tiles everywhere → no subscriber can use the high stream, so
        // the sender stops encoding it (the n=7 uplink cliff of Fig 15b).
        // A pinned (full-window) view upgrades the high stream to 960×540
        // (the ~1 Mbps pinned uplink of Fig 15c).
        let pinned = self.max_requested_width >= PINNED_VIEW_WIDTH;
        let (high_w, high_h) = if pinned {
            MEET_PINNED_HIGH_SIZE
        } else {
            MEET_TILED_HIGH_SIZE
        };
        // The high stream's full-quality rate: ≈0.81 pinned, ≈0.76 tiled.
        let high_qp = if pinned { MEET_PINNED_QP } else { BASE_QP };
        let high_full = bitrate_mbps(high_w, high_h, FULL_FPS, high_qp);
        if self.max_requested_width < SECOND_LAYER_WIDTH {
            target = target.min(MEET_TINY_TILES_MBPS);
        }
        plans.clear();
        // Low stream: always present; degrades only under extreme targets.
        // At full rate and quality it is the codec's calibration point.
        let (low_fps, low_qp) = if target >= MEET_LOW_FULL_MBPS {
            (FULL_FPS, BASE_QP)
        } else {
            (HALF_FPS, qp_for_bitrate(320, 180, HALF_FPS, target))
        };
        let low = StreamPlan {
            layer: Layer { spatial: 0 },
            params: EncodingParams::new(320, 180, low_fps, low_qp),
            rate_mbps: bitrate_mbps(320, 180, low_fps, low_qp).min(target.max(MEET_LOW_MIN_MBPS)),
        };
        let low_cost = low.rate_mbps;
        plans.push(low);
        // High stream: QP first, FPS second, dropped below
        // `MEET_HIGH_KEEP_MBPS` with hysteresis (re-added at
        // `MEET_HIGH_START_MBPS`) so the stream does not flap — every
        // restart costs a keyframe burst.
        let budget = target - low_cost;
        // Thresholds chosen so a GCC decrease at 0.5 Mbps shaping
        // (β·receive ≈ 0.40) keeps the high stream alive, while at 0.4 Mbps
        // shaping it falls below the keep threshold and the stream is
        // dropped — matching Fig 2f's frame-width cliff at 0.4 Mbps.
        let threshold = if self.high_active {
            MEET_HIGH_KEEP_MBPS
        } else {
            MEET_HIGH_START_MBPS
        };
        self.high_active = target >= threshold && budget > MEET_HIGH_MIN_BUDGET_MBPS;
        if self.high_active {
            if budget >= high_full {
                plans.push(StreamPlan {
                    layer: Layer { spatial: 1 },
                    params: EncodingParams::new(
                        high_w,
                        high_h,
                        FULL_FPS,
                        qp_for_bitrate(high_w, high_h, FULL_FPS, high_full),
                    ),
                    rate_mbps: high_full,
                });
            } else if budget >= MEET_QP_REGION * high_full {
                // QP adaptation region (the 0.7–1.0 Mbps sweep).
                let qp = qp_for_bitrate(high_w, high_h, FULL_FPS, budget);
                plans.push(StreamPlan {
                    layer: Layer { spatial: 1 },
                    params: EncodingParams::new(high_w, high_h, FULL_FPS, qp),
                    rate_mbps: budget,
                });
            } else {
                // FPS adaptation region before the stream is dropped.
                let fps = (FULL_FPS * budget / (MEET_QP_REGION * high_full))
                    .clamp(MEET_MIN_FPS, FULL_FPS);
                let qp = qp_for_bitrate(high_w, high_h, fps, budget);
                plans.push(StreamPlan {
                    layer: Layer { spatial: 1 },
                    params: EncodingParams::new(high_w, high_h, fps, qp),
                    rate_mbps: budget,
                });
            }
        }
    }
}

/// Zoom's SVC ladder: the cumulative media rate of each layer stack and the
/// tile widths that cap it (§3.1, §6). These numbers are written here and
/// nowhere else — [`ZoomPolicy`], the SFU's layer cut and the client's
/// encoder ceiling all read them through this type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoomLadder {
    /// Cumulative rates of the layer stacks, Mbps.
    pub cumulative: [f64; 3],
}

impl ZoomLadder {
    /// L0: 320x180@15; L0+L1: 640x360@15; L0+L1+L2: 640x360@30 — the top is
    /// Zoom's encoder ceiling for the 720p talking-head source.
    /// fitted: unattributed.
    pub const GALLERY: ZoomLadder = ZoomLadder {
        cumulative: [0.10, 0.40, 0.68],
    };

    /// The ladder a sender encodes when its most demanding subscriber wants
    /// `width` px: a pinned (full-window) view lifts the top stack to
    /// ~1 Mbps (§6.2).
    pub fn for_width(width: u32) -> ZoomLadder {
        let mut ladder = Self::GALLERY;
        if width >= PINNED_VIEW_WIDTH {
            ladder.cumulative[2] = 1.0;
        }
        ladder
    }

    /// Layers a tile `width` px wide can use (§6).
    pub fn layers_for_width(width: u32) -> usize {
        if width >= THIRD_LAYER_WIDTH {
            3
        } else if width >= SECOND_LAYER_WIDTH {
            2
        } else {
            1
        }
    }

    /// Deepest stack (at least one layer) whose rate, scaled by `margin`,
    /// fits within `rate`. Callers pass a margin under 1: FEC flexes to
    /// absorb the overshoot, and a strict fit would strand the rate at the
    /// previous stack.
    #[inline] // the SFU calls it per forwarded packet, from another crate
    pub fn layers_fitting(&self, rate: f64, margin: f64) -> usize {
        let mut n = 1;
        for (i, &c) in self.cumulative.iter().enumerate().skip(1) {
            if rate >= c * margin {
                n = i + 1;
            }
        }
        n
    }

    /// Encoder ceiling for a requested width: the rate of the deepest stack
    /// that width allows.
    pub fn ceiling_for_width(width: u32) -> f64 {
        Self::for_width(width).cumulative[Self::layers_for_width(width) - 1]
    }
}

/// Zoom: three-layer SVC. Layers are cumulative: receivers subscribing to
/// more layers see higher fidelity.
#[derive(Debug, Clone)]
pub struct ZoomPolicy {
    /// The ladder being encoded (its top stack is lifted while pinned).
    ladder: ZoomLadder,
    /// Layers the layout demand allows (from requested width, §6).
    pub max_layers: usize,
}

impl Default for ZoomPolicy {
    fn default() -> Self {
        ZoomPolicy {
            ladder: ZoomLadder::GALLERY,
            max_layers: 3,
        }
    }
}

impl ZoomPolicy {
    /// Number of layers that fit within `target` (at least 1), bounded by
    /// the layout demand. 10% under-margin: the client pads the difference
    /// with up to 2x redundancy.
    pub fn layers_for(&self, target: f64) -> usize {
        self.ladder
            .layers_fitting(target, ZOOM_SENDER_MARGIN)
            .min(self.max_layers.max(1))
    }

    /// The operating point seen by a receiver subscribed to `layers`.
    pub fn params_for_layers(&self, layers: usize) -> EncodingParams {
        match layers {
            1 => EncodingParams::new(
                320,
                180,
                HALF_FPS,
                qp_for_bitrate(320, 180, HALF_FPS, self.ladder.cumulative[0]),
            ),
            2 => EncodingParams::new(
                640,
                360,
                HALF_FPS,
                qp_for_bitrate(640, 360, HALF_FPS, self.ladder.cumulative[1]),
            ),
            _ => EncodingParams::new(
                640,
                360,
                FULL_FPS,
                qp_for_bitrate(640, 360, FULL_FPS, self.ladder.cumulative[2]),
            ),
        }
    }

    /// Refill `plans` for the media-rate target (Mbps).
    pub fn plan(&mut self, target: f64, plans: &mut Vec<StreamPlan>) {
        let target = target.max(MIN_MEDIA_MBPS);
        let n = self.layers_for(target);
        plans.clear();
        let mut prev = 0.0;
        for i in 0..n {
            let cum = self.ladder.cumulative[i].min(target.max(self.ladder.cumulative[0]));
            let delta = (cum - prev).max(MIN_MEDIA_MBPS);
            let p = self.params_for_layers(i + 1);
            plans.push(StreamPlan {
                layer: Layer { spatial: i as u8 },
                params: p,
                rate_mbps: delta,
            });
            prev = cum;
        }
        // Sub-L0 targets squeeze the base layer's QP.
        if n == 1 && target < self.ladder.cumulative[0] {
            let qp = qp_for_bitrate(320, 180, HALF_FPS, target).min(QP_MAX);
            plans[0].params.qp = qp;
            plans[0].rate_mbps = target;
        }
    }

    /// Encode the ladder and the layer count a subscriber `width` px wide
    /// can use (§6).
    pub fn set_max_requested_width(&mut self, width: u32) {
        self.ladder = ZoomLadder::for_width(width);
        self.max_layers = ZoomLadder::layers_for_width(width);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn teams_constant_fps_qp_then_width() {
        let mut p = TeamsPolicy {
            emulate_low_rate_bug: false,
            ..TeamsPolicy::default()
        };
        // Walk the target down, letting the rung hysteresis settle at each
        // level; fps must never change, width must never increase.
        let mut last_width = u32::MAX;
        let mut plans = Vec::new();
        for t in [1.8, 1.2, 0.9, 0.6, 0.45] {
            p.plan(t, &mut plans);
            p.plan(t, &mut plans);
            let plan = plans[0];
            assert_eq!(plan.params.fps, 30.0, "FPS held constant");
            assert!(
                plan.params.width <= last_width,
                "width monotone non-increasing: {} then {}",
                last_width,
                plan.params.width
            );
            last_width = plan.params.width;
        }
        assert!(last_width < 1280, "width must eventually step down");
    }

    #[test]
    fn teams_bug_raises_width_at_low_rate() {
        let mut plans = Vec::new();
        let mut p = TeamsPolicy::default();
        // Walk the target down so the rung and the EMA adapt naturally.
        for t in [1.5, 1.0, 0.7, 0.5] {
            for _ in 0..30 {
                p.plan(t, &mut plans);
            }
        }
        for _ in 0..200 {
            p.plan(0.4, &mut plans);
        }
        p.plan(0.4, &mut plans);
        let at_04 = plans[0].params.width;
        for _ in 0..200 {
            p.plan(0.28, &mut plans);
        }
        p.plan(0.28, &mut plans);
        let at_03 = plans[0].params.width;
        assert!(
            at_03 > at_04,
            "bug emulation: width at 0.3 ({at_03}) must exceed width at 0.4 ({at_04})"
        );
        // With the bug disabled the width is monotone.
        let mut q = TeamsPolicy {
            emulate_low_rate_bug: false,
            ..TeamsPolicy::default()
        };
        for t in [1.5, 1.0, 0.7, 0.5] {
            for _ in 0..30 {
                q.plan(t, &mut plans);
            }
        }
        for _ in 0..200 {
            q.plan(0.4, &mut plans);
        }
        q.plan(0.4, &mut plans);
        let qa = plans[0].params.width;
        for _ in 0..200 {
            q.plan(0.28, &mut plans);
        }
        q.plan(0.28, &mut plans);
        let qb = plans[0].params.width;
        assert!(qb <= qa);
    }

    #[test]
    fn meet_two_streams_at_nominal() {
        let mut p = MeetPolicy::default();
        let mut plans = Vec::new();
        p.plan(0.95, &mut plans);
        assert_eq!(plans.len(), 2);
        assert_eq!(plans[0].params.width, 320);
        assert_eq!(plans[1].params.width, 640);
        let total: f64 = plans.iter().map(|s| s.rate_mbps).sum();
        assert!((total - 0.95).abs() < 0.05, "total {total}");
    }

    #[test]
    fn meet_raises_qp_in_mid_band() {
        let mut p = MeetPolicy::default();
        let mut at_09 = Vec::new();
        p.plan(0.9, &mut at_09);
        let mut at_06 = Vec::new();
        p.plan(0.6, &mut at_06);
        assert_eq!(at_06.len(), 2);
        assert!(
            at_06[1].params.qp > at_09[1].params.qp,
            "QP adapts first: {} vs {}",
            at_06[1].params.qp,
            at_09[1].params.qp
        );
        assert_eq!(at_06[1].params.fps, 30.0, "FPS held in QP region");
    }

    #[test]
    fn meet_drops_high_stream_below_045() {
        let mut p = MeetPolicy::default();
        let mut plans = Vec::new();
        p.plan(0.35, &mut plans);
        assert_eq!(plans.len(), 1, "high stream dropped");
        assert_eq!(plans[0].params.width, 320);
        assert_eq!(plans[0].params.fps, 30.0, "low stream keeps its frame rate");
    }

    #[test]
    fn meet_degrades_low_stream_only_at_extremes() {
        let mut p = MeetPolicy::default();
        let mut plans = Vec::new();
        p.plan(0.1, &mut plans);
        assert_eq!(plans.len(), 1);
        assert!(plans[0].params.fps < 30.0);
    }

    #[test]
    fn zoom_layers_monotone_in_target() {
        let p = ZoomPolicy::default();
        assert_eq!(p.layers_for(0.05), 1);
        assert_eq!(p.layers_for(0.2), 1);
        assert_eq!(p.layers_for(0.45), 2);
        assert_eq!(p.layers_for(0.7), 3);
        assert_eq!(p.layers_for(2.0), 3);
    }

    #[test]
    fn zoom_ladder_width_cut_and_ceiling() {
        assert_eq!(
            [200, 350, 599, 600, 1280].map(ZoomLadder::layers_for_width),
            [1, 2, 2, 3, 3]
        );
        // What `VcaClient::on_rtcp` spelled as an `if` chain.
        assert_eq!(
            [200, 350, 640, 1280].map(ZoomLadder::ceiling_for_width),
            [0.10, 0.40, 0.68, 1.0]
        );
        // The SFU's 5 % margin against the policy's 10 %.
        let g = ZoomLadder::GALLERY;
        assert_eq!(g.layers_fitting(0.37, 0.95), 1);
        assert_eq!(g.layers_fitting(0.37, 0.90), 2);
        assert_eq!(g.layers_fitting(0.05, 0.95), 1, "never below one layer");
    }

    #[test]
    fn zoom_plan_rates_sum_to_stack() {
        let mut p = ZoomPolicy::default();
        let mut plans = Vec::new();
        p.plan(0.68, &mut plans);
        assert_eq!(plans.len(), 3);
        let total: f64 = plans.iter().map(|s| s.rate_mbps).sum();
        assert!((total - 0.68).abs() < 0.02, "total {total}");
        // Layer tags are distinct.
        assert_ne!(plans[0].layer, plans[1].layer);
    }

    #[test]
    fn zoom_single_layer_squeezes_qp() {
        let mut p = ZoomPolicy::default();
        let mut plans = Vec::new();
        p.plan(0.06, &mut plans);
        assert_eq!(plans.len(), 1);
        assert!(plans[0].params.qp > 30.0);
        assert!(plans[0].rate_mbps <= 0.07);
    }
}
