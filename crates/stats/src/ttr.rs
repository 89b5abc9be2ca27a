//! Time to recovery (TTR), §4 of the paper.
//!
//! > "We define TTR as the time between when the interruption ends and when
//! > the five-second rolling median bitrate reaches the median bitrate
//! > before interruption, also referred to as nominal bitrate."
//!
//! Inputs are a bitrate series in fixed-width bins (from
//! `netsim::trace::BinTrace::series_mbps`), the disruption window, and the
//! bin width.

use vcabench_simcore::{SimDuration, SimTime};

/// Length of the rolling-median window, µs.
/// paper: §4, "the five-second rolling median".
const ROLLING_WINDOW_US: u64 = 5_000_000;
/// Share of the nominal bitrate at which a series counts as recovered:
/// medians of two steady windows of the same process differ by a few
/// percent, and an exact-crossing rule would report tens of seconds of
/// phantom recovery time.
/// engineering: a tolerance for the noise between steady medians.
const RECOVERED_SHARE: f64 = 0.97;

/// Rolling median over a trailing window of `window` samples.
/// Output index i is the median of `xs[i+1-window ..= i]` (short prefix
/// windows use every sample available so the series has the same length).
pub fn rolling_median(xs: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    let mut out = Vec::with_capacity(xs.len());
    for i in 0..xs.len() {
        let lo = (i + 1).saturating_sub(window);
        out.push(crate::summary::median(&xs[lo..=i]));
    }
    out
}

/// Result of a TTR computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ttr {
    /// Median bitrate before the disruption (the nominal bitrate), Mbps.
    pub nominal_mbps: f64,
    /// Time from the end of the disruption until recovery; `None` if the
    /// series never recovers within the measurement.
    pub ttr: Option<SimDuration>,
}

/// Compute TTR per the paper's definition.
///
/// ```
/// use vcabench_simcore::{SimDuration, SimTime};
/// use vcabench_stats::time_to_recovery;
///
/// // 1 Mbps nominal, 30 s crushed to 0.25, instant recovery.
/// let mut series = vec![1.0; 600];
/// series.extend(vec![0.25; 300]);
/// series.extend(vec![1.0; 600]);
/// let r = time_to_recovery(
///     &series,
///     SimDuration::from_millis(100),
///     SimTime::from_secs(60),
///     SimTime::from_secs(90),
/// );
/// assert!((r.nominal_mbps - 1.0).abs() < 1e-9);
/// assert!(r.ttr.unwrap().as_secs_f64() < 3.0);
/// ```
///
/// * `series` — bitrate per bin, Mbps, covering the whole call.
/// * `bin` — bin width of the series.
/// * `disruption_start` / `disruption_end` — the shaped window.
/// * `settle` — samples at the very start of the call to skip when computing
///   the nominal bitrate (ramp-up); the paper starts calls a minute before
///   disrupting, we skip the first quarter of the pre-disruption window.
pub fn time_to_recovery(
    series: &[f64],
    bin: SimDuration,
    disruption_start: SimTime,
    disruption_end: SimTime,
) -> Ttr {
    let bin_us = bin.as_micros();
    let start_idx = (disruption_start.as_micros() / bin_us) as usize;
    let end_idx = (disruption_end.as_micros() / bin_us) as usize;
    let settle = start_idx / 4;
    let pre = &series[settle.min(start_idx)..start_idx.min(series.len())];
    let nominal = crate::summary::median(pre);

    // Five-second rolling median, evaluated from the end of the disruption.
    let window = ((ROLLING_WINDOW_US / bin_us) as usize).max(1);
    let rolled = rolling_median(series, window);
    let recovered_at = rolled
        .iter()
        .enumerate()
        .skip(end_idx)
        .find(|(_, &v)| v >= RECOVERED_SHARE * nominal)
        .map(|(i, _)| SimTime::from_micros(i as u64 * bin_us));

    Ttr {
        nominal_mbps: nominal,
        ttr: recovered_at.map(|t| t.saturating_since(disruption_end)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_median_basics() {
        let xs = [1.0, 9.0, 1.0, 9.0, 1.0];
        let r = rolling_median(&xs, 3);
        assert_eq!(r.len(), xs.len());
        assert_eq!(r[0], 1.0);
        assert_eq!(r[2], 1.0); // median(1,9,1)
        assert_eq!(r[3], 9.0); // median(9,1,9)
    }

    #[test]
    fn rolling_median_window_one_is_identity() {
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(rolling_median(&xs, 1), xs.to_vec());
    }

    fn synthetic(recovery_bins: usize) -> Vec<f64> {
        // 100 ms bins: 60 s nominal at 1.0, 30 s disrupted at 0.25,
        // `recovery_bins` of linear ramp, then nominal again out to 300 s.
        let mut s = vec![1.0; 600];
        s.extend(vec![0.25; 300]);
        for i in 0..recovery_bins {
            s.push(0.25 + 0.75 * (i as f64 + 1.0) / recovery_bins as f64);
        }
        while s.len() < 3000 {
            s.push(1.0);
        }
        s
    }

    #[test]
    fn ttr_detects_recovery_point() {
        let bin = SimDuration::from_millis(100);
        let series = synthetic(200); // 20 s ramp
        let r = time_to_recovery(&series, bin, SimTime::from_secs(60), SimTime::from_secs(90));
        assert!((r.nominal_mbps - 1.0).abs() < 1e-9);
        let ttr = r.ttr.expect("must recover").as_secs_f64();
        // The 5-second rolling median reaches nominal a little after the ramp
        // tops out (~20 s) because the window still contains ramp samples.
        assert!((20.0..=26.0).contains(&ttr), "ttr={ttr}");
    }

    #[test]
    fn ttr_longer_ramp_longer_ttr() {
        let bin = SimDuration::from_millis(100);
        let fast = time_to_recovery(
            &synthetic(50),
            bin,
            SimTime::from_secs(60),
            SimTime::from_secs(90),
        );
        let slow = time_to_recovery(
            &synthetic(400),
            bin,
            SimTime::from_secs(60),
            SimTime::from_secs(90),
        );
        assert!(slow.ttr.unwrap() > fast.ttr.unwrap());
    }

    #[test]
    fn ttr_never_recovers() {
        let bin = SimDuration::from_millis(100);
        let mut series = vec![1.0; 600];
        series.extend(vec![0.2; 1000]);
        let r = time_to_recovery(&series, bin, SimTime::from_secs(60), SimTime::from_secs(90));
        assert_eq!(r.ttr, None);
    }

    #[test]
    fn instant_recovery_is_zero_ish() {
        let bin = SimDuration::from_millis(100);
        // Recovery is instantaneous at disruption end; rolling median needs
        // half a window of good samples to flip back.
        let mut series = vec![1.0; 600];
        series.extend(vec![0.25; 300]);
        series.extend(vec![1.0; 1000]);
        let r = time_to_recovery(&series, bin, SimTime::from_secs(60), SimTime::from_secs(90));
        let ttr = r.ttr.unwrap().as_secs_f64();
        assert!(ttr <= 3.0, "ttr={ttr}");
    }
}
