//! The talking-head video source.
//!
//! The paper feeds every client a pre-recorded 1280×720 talking-head video
//! via ffmpeg, "to both replicate a real video call and ensure consistency
//! across experiments" (a static webcam scene would compress to almost
//! nothing). We model the *statistics* of that source: a frame-size process
//! with a seeded noise term, periodic keyframes several times larger than
//! delta frames, and — critically for the Teams FIR result (Fig 3b) — a
//! **keyframe size floor proportional to resolution**: an intra frame cannot
//! compress below a minimum number of bits per pixel, no matter the QP, so a
//! high-resolution stream at a starved bitrate emits keyframes that take
//! hundreds of milliseconds to drain through the link.

use vcabench_simcore::SimRng;

/// Minimum compressed keyframe size, bytes per pixel (VP8/H.264 intra floors
/// for natural content at conferencing quality sit around 0.02–0.05 B/px).
/// fitted: Fig 3b, the Teams FIR storm.
pub const KEYFRAME_FLOOR_BYTES_PER_PIXEL: f64 = 0.025;
/// Keyframe size multiplier relative to the mean frame size.
/// fitted: unattributed.
pub const KEYFRAME_GAIN: f64 = 4.0;
/// Default keyframe interval, frames. Real-time encoders run a near-infinite
/// GOP (intra frames only on request/refresh); 1200 frames ≈ 40 s of periodic
/// refresh keeps decoder resync possible without hammering the delay-based
/// congestion controllers with bursts every few seconds.
/// engineering: a refresh rare enough not to disturb the controllers.
pub const KEYFRAME_INTERVAL: u64 = 1200;
/// Standard deviation of one step of the scene-activity random walk.
/// fitted: unattributed.
const ACTIVITY_STEP_SD: f64 = 0.01;
/// Lower bound of the scene-activity walk.
/// fitted: unattributed.
const ACTIVITY_MIN: f64 = 0.9;
/// Upper bound of the scene-activity walk.
/// fitted: unattributed.
const ACTIVITY_MAX: f64 = 1.1;
/// Standard deviation of a frame's size noise around its mean.
/// fitted: unattributed.
const SIZE_NOISE_SD: f64 = 0.15;
/// Lower clamp of the size-noise factor.
/// engineering: keeps a frame's size positive.
const SIZE_NOISE_MIN: f64 = 0.4;
/// Upper clamp of the size-noise factor.
/// engineering: bounds a frame's burst.
const SIZE_NOISE_MAX: f64 = 1.8;

/// Seeded talking-head frame-size generator for one encoded stream.
#[derive(Debug, Clone)]
pub struct TalkingHeadSource {
    rng: SimRng,
    frames_emitted: u64,
    keyframe_interval: u64,
    /// Pending forced keyframe (FIR response).
    force_keyframe: bool,
    /// Multiplicative scene-activity modulation (slow random walk around 1).
    activity: f64,
}

/// One frame produced by the source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceFrame {
    /// Compressed size, bytes.
    pub bytes: usize,
    /// Whether this is an intra (key) frame.
    pub keyframe: bool,
}

impl TalkingHeadSource {
    /// New source with its own RNG stream.
    pub fn new(rng: SimRng) -> Self {
        TalkingHeadSource {
            rng,
            frames_emitted: 0,
            keyframe_interval: KEYFRAME_INTERVAL,
            force_keyframe: true, // first frame is always intra
            activity: 1.0,
        }
    }

    /// Request an intra frame at the next opportunity (FIR handling).
    pub fn request_keyframe(&mut self) {
        self.force_keyframe = true;
    }

    /// Produce the next frame for a stream currently targeting
    /// `rate_mbps` at `fps` with `width`×`height` resolution.
    pub fn next_frame(&mut self, rate_mbps: f64, fps: f64, width: u32, height: u32) -> SourceFrame {
        let fps = fps.max(1.0);
        let mean_bytes = (rate_mbps * 1e6 / 8.0 / fps).max(1.0);
        // Slow scene-activity random walk: keeps per-frame sizes correlated
        // the way head motion does. The band is tight (±10 %) because the
        // paper deliberately used a pre-recorded talking-head video for
        // consistency; wider swings would dominate rate metrics like TTR.
        self.activity = (self.activity + self.rng.normal_with(0.0, ACTIVITY_STEP_SD))
            .clamp(ACTIVITY_MIN, ACTIVITY_MAX);
        let keyframe = self.force_keyframe
            || (self.frames_emitted > 0
                && self.frames_emitted.is_multiple_of(self.keyframe_interval));
        self.force_keyframe = false;
        self.frames_emitted += 1;

        let noise =
            (1.0 + self.rng.normal_with(0.0, SIZE_NOISE_SD)).clamp(SIZE_NOISE_MIN, SIZE_NOISE_MAX);
        let bytes = if keyframe {
            let floor = width as f64 * height as f64 * KEYFRAME_FLOOR_BYTES_PER_PIXEL;
            (mean_bytes * KEYFRAME_GAIN * noise).max(floor)
        } else {
            // Delta frames shrink slightly to compensate the keyframe bulge,
            // keeping the stream near its target rate.
            let kf_share = KEYFRAME_GAIN / self.keyframe_interval as f64;
            mean_bytes * (1.0 - kf_share) * self.activity * noise
        };
        SourceFrame {
            bytes: bytes.round().max(1.0) as usize,
            keyframe,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source(seed: u64) -> TalkingHeadSource {
        TalkingHeadSource::new(SimRng::seed_from_u64(seed))
    }

    #[test]
    fn long_run_rate_matches_target() {
        let mut s = source(1);
        let fps = 30.0;
        let target = 0.76; // Mbps
        let n = 3000;
        let total: usize = (0..n)
            .map(|_| s.next_frame(target, fps, 640, 360).bytes)
            .sum();
        let rate = total as f64 * 8.0 * fps / n as f64 / 1e6;
        assert!(
            (rate - target).abs() / target < 0.15,
            "long-run rate {rate} vs target {target}"
        );
    }

    #[test]
    fn first_frame_is_keyframe() {
        let mut s = source(2);
        assert!(s.next_frame(0.5, 30.0, 640, 360).keyframe);
        assert!(!s.next_frame(0.5, 30.0, 640, 360).keyframe);
    }

    #[test]
    fn periodic_keyframes() {
        let mut s = source(3);
        let mut key_idx = Vec::new();
        for i in 0..=2 * KEYFRAME_INTERVAL {
            if s.next_frame(0.5, 30.0, 640, 360).keyframe {
                key_idx.push(i);
            }
        }
        assert!(key_idx.contains(&0));
        assert!(key_idx.contains(&KEYFRAME_INTERVAL));
        assert!(key_idx.contains(&(2 * KEYFRAME_INTERVAL)));
        assert_eq!(key_idx.len(), 3);
    }

    #[test]
    fn fir_forces_keyframe() {
        let mut s = source(4);
        s.next_frame(0.5, 30.0, 640, 360);
        s.next_frame(0.5, 30.0, 640, 360);
        s.request_keyframe();
        assert!(s.next_frame(0.5, 30.0, 640, 360).keyframe);
    }

    #[test]
    fn keyframe_floor_scales_with_resolution() {
        // At a starved rate, a 640x360 keyframe must be at least
        // pixels * floor bytes, far larger than the rate-derived size.
        let mut s = source(5);
        let kf = s.next_frame(0.1, 30.0, 640, 360);
        assert!(kf.keyframe);
        let floor = (640.0 * 360.0 * KEYFRAME_FLOOR_BYTES_PER_PIXEL) as usize;
        assert!(kf.bytes >= floor, "kf {} < floor {floor}", kf.bytes);
        // The same starved rate at 160x90 produces a much smaller keyframe
        // (the floor no longer binds; the rate-derived size does).
        let mut s2 = source(5);
        let kf2 = s2.next_frame(0.1, 30.0, 160, 90);
        assert!(kf2.bytes < kf.bytes / 2, "{} vs {}", kf2.bytes, kf.bytes);
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = source(9);
        let mut b = source(9);
        for _ in 0..100 {
            assert_eq!(
                a.next_frame(0.5, 30.0, 640, 360),
                b.next_frame(0.5, 30.0, 640, 360)
            );
        }
    }
}
