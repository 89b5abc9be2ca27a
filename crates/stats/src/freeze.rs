//! The §3.2 freeze rule, written once.
//!
//! The paper counts a freeze "if the frame inter-arrival > max(3δ, δ +
//! 150 ms), where δ is the average frame duration" (the webrtc-internals
//! definition). [`FrameDelta`] holds δ and judges one inter-frame gap at a
//! time; each caller keeps its own clock and accumulators: the receiver's
//! ground-truth detector (`media::FreezeDetector`, in microsecond
//! durations) and the passive extractor (`infer::Extractor`, in seconds).

/// Multiple of δ a gap must exceed to be a freeze.
/// paper: §3.2, the 3δ term.
pub const DELTA_FACTOR: f64 = 3.0;
/// Additive term of the threshold, seconds.
/// paper: §3.2, the δ + 150 ms term.
pub const FREEZE_OFFSET_S: f64 = 0.150;
/// Weight of a new non-freeze gap in the δ average; freeze gaps are left
/// out so δ tracks the nominal frame rate.
/// fitted: unattributed.
pub const DELTA_GAIN: f64 = 0.05;
/// Frame rate δ starts from, before any gap is seen.
/// engineering: a starting guess δ averages away, the streams' full rate.
pub const INITIAL_FPS: f64 = 30.0;

/// δ, the average frame duration the freeze threshold scales with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameDelta {
    delta_s: f64,
}

impl FrameDelta {
    /// δ starting at one frame of `initial_fps` (at least 1 fps).
    pub fn new(initial_fps: f64) -> Self {
        FrameDelta {
            delta_s: 1.0 / initial_fps.max(1.0),
        }
    }

    /// Judge one inter-frame gap of `gap_s` seconds: a gap over
    /// max(3δ, δ + 150 ms) is a freeze, and its frozen time `gap_s − δ` is
    /// returned; any other gap moves δ toward itself.
    pub fn step(&mut self, gap_s: f64) -> Option<f64> {
        let delta = self.delta_s;
        let threshold = (DELTA_FACTOR * delta).max(delta + FREEZE_OFFSET_S);
        if gap_s > threshold {
            Some(gap_s - delta)
        } else {
            self.delta_s = (1.0 - DELTA_GAIN) * delta + DELTA_GAIN * gap_s;
            None
        }
    }
}

impl Default for FrameDelta {
    /// δ starting at one frame of [`INITIAL_FPS`].
    fn default() -> Self {
        FrameDelta::new(INITIAL_FPS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_low_frame_rates_the_threshold_is_three_frames() {
        // δ = 250 ms: 3δ = 750 ms beats δ + 150 ms = 400 ms.
        let mut d = FrameDelta::new(4.0);
        assert_eq!(d.step(0.75), None, "exactly 3δ is not a freeze");
        let mut d = FrameDelta::new(4.0);
        assert_eq!(d.step(0.5), None, "above δ + 150 ms, below 3δ");
        let mut d = FrameDelta::new(4.0);
        let frozen = d.step(0.8).expect("over 3δ");
        assert!((frozen - 0.55).abs() < 1e-12, "gap − δ: {frozen}");
    }

    #[test]
    fn at_high_frame_rates_the_threshold_is_delta_plus_150_ms() {
        // δ = 1/30 s: δ + 150 ms ≈ 183 ms beats 3δ = 100 ms.
        let mut d = FrameDelta::new(30.0);
        assert_eq!(d.step(0.15), None, "over 3δ, under δ + 150 ms");
        let frozen = d.step(0.2).expect("over δ + 150 ms");
        let delta = 0.95 / 30.0 + 0.05 * 0.15;
        assert!((frozen - (0.2 - delta)).abs() < 1e-12, "gap − δ: {frozen}");
    }

    #[test]
    fn a_freeze_gap_leaves_delta_alone() {
        let mut d = FrameDelta::default();
        assert_eq!(d, FrameDelta::new(30.0));
        let before = d;
        assert!(d.step(5.0).is_some());
        assert_eq!(d, before, "a freeze gap does not move δ");
        assert_eq!(d.step(0.1), None);
        assert!((d.delta_s - (0.95 / 30.0 + 0.05 * 0.1)).abs() < 1e-15);
        // Below 1 fps the start is clamped to one frame per second.
        assert_eq!(FrameDelta::new(0.0), FrameDelta::new(1.0));
    }
}
