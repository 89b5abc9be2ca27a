//! Video codec rate model: bitrate as a function of encoding parameters.
//!
//! The paper reads three knobs out of the WebRTC stats API (§3.2): frame
//! width, frames per second, and the quantization parameter. VCAs "adapt the
//! video quality by adjusting the encoding parameters to achieve a target
//! bitrate estimate provided by the transport". We model the forward map
//! (parameters → bitrate) with the standard codec power law and calibrate it
//! against the one absolute anchor the paper provides: Meet's low simulcast
//! stream, 320×180 at ~30 fps, measured at **0.19 Mbps** (§3.1).
//!
//! `bitrate = 0.19 Mbps · (w·h / 320·180) · (fps/30)^0.9 · 2^((30−qp)/6)`
//!
//! The 2^(−qp/6) factor is the familiar "+6 QP halves the rate" rule of
//! H.264/VP8-family encoders; the sub-linear fps exponent reflects smaller
//! inter-frame deltas at higher frame rates.

/// Reference bitrate of the calibration point (320×180 @ 30 fps, QP 30).
pub const BASE_MBPS: f64 = 0.19;
/// Calibration resolution.
pub const BASE_PIXELS: f64 = 320.0 * 180.0;
/// Calibration frame rate.
pub const BASE_FPS: f64 = 30.0;
/// Calibration QP.
pub const BASE_QP: f64 = 30.0;
/// Valid QP range (H.264-style).
pub const QP_MIN: f64 = 10.0;
/// Upper end of the usable QP range.
pub const QP_MAX: f64 = 50.0;

/// A concrete encoding operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodingParams {
    /// Frame width, pixels.
    pub width: u32,
    /// Frame height, pixels.
    pub height: u32,
    /// Frames per second.
    pub fps: f64,
    /// Quantization parameter.
    pub qp: f64,
}

impl EncodingParams {
    /// Convenience constructor.
    pub fn new(width: u32, height: u32, fps: f64, qp: f64) -> Self {
        EncodingParams {
            width,
            height,
            fps,
            qp,
        }
    }

    /// Bitrate this operating point produces, Mbps.
    pub fn bitrate_mbps(&self) -> f64 {
        bitrate_mbps(self.width, self.height, self.fps, self.qp)
    }
}

/// Forward rate model.
///
/// ```
/// use vcabench_media::codec::{bitrate_mbps, qp_for_bitrate};
///
/// // The calibration anchor: Meet's low simulcast copy.
/// assert!((bitrate_mbps(320, 180, 30.0, 30.0) - 0.19).abs() < 1e-12);
/// // The inverse hits any in-range target.
/// let qp = qp_for_bitrate(640, 360, 30.0, 0.5);
/// assert!((bitrate_mbps(640, 360, 30.0, qp) - 0.5).abs() < 1e-9);
/// ```
pub fn bitrate_mbps(width: u32, height: u32, fps: f64, qp: f64) -> f64 {
    let pixels = width as f64 * height as f64;
    BASE_MBPS
        * (pixels / BASE_PIXELS)
        * (fps / BASE_FPS).powf(0.9)
        * 2f64.powf((BASE_QP - qp) / 6.0)
}

/// Inverse model: the QP that hits `target_mbps` at the given resolution and
/// frame rate, clamped to the valid range.
pub fn qp_for_bitrate(width: u32, height: u32, fps: f64, target_mbps: f64) -> f64 {
    assert!(target_mbps > 0.0, "target must be positive");
    let at_base_qp = bitrate_mbps(width, height, fps, BASE_QP);
    let qp = BASE_QP - 6.0 * (target_mbps / at_base_qp).log2();
    qp.clamp(QP_MIN, QP_MAX)
}

/// Standard resolution ladder used by the adaptation policies, highest first.
pub const LADDER: &[(u32, u32)] = &[
    (1280, 720),
    (960, 540),
    (640, 360),
    (480, 270),
    (320, 180),
    (160, 90),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_point_matches_paper() {
        // Meet's low simulcast stream: 320x180 @30 ≈ 0.19 Mbps (§3.1).
        let r = bitrate_mbps(320, 180, 30.0, BASE_QP);
        assert!((r - 0.19).abs() < 1e-12);
    }

    #[test]
    fn high_simulcast_stream_rate() {
        // 640x360 is 4x the pixels: ~0.76 Mbps at the same QP — together with
        // the low stream this reproduces Meet's ~0.95 Mbps upstream (Table 2).
        let r = bitrate_mbps(640, 360, 30.0, BASE_QP);
        assert!((r - 0.76).abs() < 1e-9);
    }

    #[test]
    fn qp_halves_rate_every_six_steps() {
        let r30 = bitrate_mbps(640, 360, 30.0, 30.0);
        let r36 = bitrate_mbps(640, 360, 30.0, 36.0);
        let r24 = bitrate_mbps(640, 360, 30.0, 24.0);
        assert!((r30 / r36 - 2.0).abs() < 1e-9);
        assert!((r24 / r30 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fps_scaling_sublinear() {
        let r30 = bitrate_mbps(640, 360, 30.0, 30.0);
        let r15 = bitrate_mbps(640, 360, 15.0, 30.0);
        assert!(r15 > r30 / 2.0, "halving fps saves less than half the bits");
        assert!(r15 < r30 * 0.65);
    }

    #[test]
    fn inverse_round_trips() {
        for &(w, h) in LADDER {
            for target in [0.1, 0.3, 0.8, 1.5] {
                let qp = qp_for_bitrate(w, h, 30.0, target);
                if (QP_MIN + 0.01..QP_MAX - 0.01).contains(&qp) {
                    let back = bitrate_mbps(w, h, 30.0, qp);
                    assert!(
                        (back - target).abs() / target < 1e-9,
                        "{w}x{h} target {target}: qp {qp} -> {back}"
                    );
                }
            }
        }
    }

    #[test]
    fn inverse_clamps_out_of_range() {
        // Absurdly high target at tiny resolution → QP pinned at minimum.
        assert_eq!(qp_for_bitrate(160, 90, 30.0, 100.0), QP_MIN);
        // Tiny target at high resolution → QP pinned at maximum.
        assert_eq!(qp_for_bitrate(1280, 720, 30.0, 0.01), QP_MAX);
    }
}
