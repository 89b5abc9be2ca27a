//! Pluggable per-window QoE estimators.
//!
//! An [`Estimator`] maps the passive [`WindowFeatures`] of one window to a
//! [`WindowEstimate`] of the application-layer metrics the paper reads
//! from `webrtc-internals`: media bitrate, frame rate, and freezes. Two
//! implementations ship:
//!
//! - [`HeuristicEstimator`] — closed-form rules with no training: video
//!   payload rate as the bitrate, inferred decodable frames as the FPS,
//!   the §3.2 freeze rule's verdicts passed through. It over-reads the
//!   bitrate of FEC-heavy senders (Zoom ships up to 2× the media rate in
//!   parity packets that a passive observer cannot distinguish).
//! - [`crate::GbtModel`] — gradient-boosted trees fit against
//!   ground-truth stats from the pinned training campaign, which learn
//!   the FEC discount per traffic regime (see [`crate::gbt`]).

use crate::features::WindowFeatures;

/// Estimated application-layer metrics for one window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowEstimate {
    /// Window index (copied from the features).
    pub window: u64,
    /// Estimated media bitrate, Mbps.
    pub media_mbps: f64,
    /// Estimated decoded-frame rate, frames per window.
    pub fps: f64,
    /// Freezes inferred in this window.
    pub freeze_count: u64,
    /// Inferred freeze time, seconds.
    pub freeze_time_s: f64,
}

/// A per-window estimator. Implementations must be pure functions of the
/// features — the validation harness relies on byte-identical reports
/// across worker counts.
pub trait Estimator {
    /// Stable name used in reports.
    fn name(&self) -> &'static str;
    /// Estimate one window.
    fn estimate(&self, w: &WindowFeatures) -> WindowEstimate;
}

/// Training-free burst/marker heuristic.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeuristicEstimator;

impl Estimator for HeuristicEstimator {
    fn name(&self) -> &'static str {
        "heuristic"
    }

    fn estimate(&self, w: &WindowFeatures) -> WindowEstimate {
        WindowEstimate {
            window: w.window,
            media_mbps: w.video_mbps(),
            fps: w.frames_decodable as f64,
            freeze_count: w.freeze_count,
            freeze_time_s: w.freeze_time_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristic_reads_features_directly() {
        let w = WindowFeatures {
            window: 7,
            video_payload_bytes: 125_000, // 1 Mbps over 1 s
            video_pkts: 120,
            full_pkts: 100,
            frames: 32,
            frames_decodable: 30,
            freeze_count: 1,
            freeze_time_s: 0.4,
            ..WindowFeatures::default()
        };
        let e = HeuristicEstimator.estimate(&w);
        assert_eq!(e.window, 7);
        assert!((e.media_mbps - 1.0).abs() < 1e-12);
        assert_eq!(e.fps, 30.0);
        assert_eq!(e.freeze_count, 1);
        assert!((e.freeze_time_s - 0.4).abs() < 1e-12);
        assert_eq!(HeuristicEstimator.name(), "heuristic");
    }
}
