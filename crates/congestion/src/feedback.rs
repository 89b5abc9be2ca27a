//! Feedback reports driving the rate controllers.
//!
//! All three VCAs run proprietary congestion control above RTP, fed by
//! RTCP-style receiver reports (§2.1). We model one report structure carrying
//! the signals the published algorithms use: loss fraction (TFRC/Teams),
//! one-way delay (GCC's gradient filter) and the receiver's measured goodput
//! (GCC's REMB, FBRA's capacity estimate).

use vcabench_simcore::{SimDuration, SimTime};

/// Length assumed for a controller's first report interval, seconds: the
/// receivers' report period.
/// engineering: a controller has no previous report to measure from.
pub const FIRST_INTERVAL_S: f64 = 0.1;
/// Round-trip time of a [`FeedbackReport::quiet`] report.
/// engineering: a placeholder; no controller reads `rtt`.
pub const QUIET_RTT: SimDuration = SimDuration::from_millis(40);

/// A receiver feedback report, generated periodically (default every 100 ms).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedbackReport {
    /// Time the report is processed at the sender.
    pub now: SimTime,
    /// Fraction of packets lost since the previous report, in `[0, 1]`.
    pub loss_fraction: f64,
    /// Receiver-measured delivery rate over the report interval, Mbps.
    pub receive_rate_mbps: f64,
    /// Mean relative one-way delay over the interval, milliseconds.
    ///
    /// "Relative" means offset by an arbitrary per-session constant (clock
    /// sync is not assumed); controllers only use its *changes*.
    pub one_way_delay_ms: f64,
    /// Smoothed round-trip time estimate.
    pub rtt: SimDuration,
}

impl FeedbackReport {
    /// A quiescent report: no loss, rate matching `rate`, flat delay.
    pub fn quiet(now: SimTime, rate_mbps: f64, owd_ms: f64) -> Self {
        FeedbackReport {
            now,
            loss_fraction: 0.0,
            receive_rate_mbps: rate_mbps,
            one_way_delay_ms: owd_ms,
            rtt: QUIET_RTT,
        }
    }
}

/// Seconds since the report before the one at `now` ([`FIRST_INTERVAL_S`]
/// for the first), clamped to one second; `now` becomes `last_report`.
pub(crate) fn interval_s(last_report: &mut Option<SimTime>, now: SimTime) -> f64 {
    let dt = last_report
        .map(|t| now.saturating_since(t).as_secs_f64())
        .unwrap_or(FIRST_INTERVAL_S)
        .clamp(0.0, 1.0);
    *last_report = Some(now);
    dt
}

/// Common interface of the media rate controllers.
pub trait RateController {
    /// Ingest a feedback report and update the target rate.
    fn on_report(&mut self, report: &FeedbackReport);
    /// Current target *total* send rate (media + any redundancy), Mbps.
    fn target_mbps(&self) -> f64;
    /// Clamp the controller output to `[min, max]` Mbps. Implementations
    /// apply the clamp to current and future targets.
    fn set_bounds(&mut self, min_mbps: f64, max_mbps: f64);
    /// Fraction of the target rate that is FEC/redundancy (0 when the
    /// algorithm sends no redundancy).
    fn fec_fraction(&self) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_report_is_quiescent() {
        let r = FeedbackReport::quiet(SimTime::from_secs(1), 1.0, 20.0);
        assert_eq!(r.loss_fraction, 0.0);
        assert_eq!(r.receive_rate_mbps, 1.0);
    }
}
