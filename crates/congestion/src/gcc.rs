//! Google Congestion Control (GCC) — the WebRTC algorithm Meet uses.
//!
//! Implemented from Carlucci et al., *"Analysis and design of the google
//! congestion control for web real-time communication"* (MMSys 2016), the
//! reference the paper cites for Meet's behaviour:
//!
//! * a **trendline filter** estimates the gradient of one-way queueing delay
//!   over the last [`WINDOW`] reports;
//! * an **adaptive-threshold overuse detector** turns the gradient into
//!   overuse / normal / underuse signals;
//! * an **AIMD rate controller** (multiplicative increase [`ETA_PER_S`] far
//!   from convergence, additive [`ADDITIVE_MBPS_PER_S`] near it;
//!   multiplicative decrease to [`BETA`] × the receive rate) reacts to the
//!   signals;
//! * a **loss-based bound**: above 6 % loss ([`HEAVY_LOSS`]) the target is
//!   multiplied by (1 − 0.7 · loss) ([`LOSS_SCALE`]), and between 2 %
//!   ([`MODERATE_LOSS`]) and 6 % an increasing target is held to 1.05 × the
//!   receive rate ([`MODERATE_HEADROOM`]).
//!
//! Every number is a constant of this module, and each constant's doc ends
//! in its source:
//!
//! * `published:` [`BETA`] and [`ETA_PER_S`], the decrease factor and the
//!   far-from-convergence increase the list above attributes to Carlucci
//!   et al. The repository does not hold that paper's text, so neither
//!   value has been checked against it.
//! * `fitted: unattributed`: the start rate, the additive increase, the
//!   trendline window, the detector's initial threshold, gains and clamp,
//!   the decrease spacing and hold, the receive-rate and anchor smoothing,
//!   the near-convergence band and every number of the loss bound. No
//!   repository text ties one of them to a figure; the module is credited
//!   with §5's competition shares as a whole.
//! * `engineering:` the floor ([`MIN_MBPS`]) and the scale that turns the
//!   detector's per-report gains into a rate ([`THRESHOLD_GAIN_SCALE`]).
//!
//! Where the code departs from its cited rule: the loss bound's thresholds
//! and factor are not those of the GCC draft's loss-based controller; the
//! spacing of decreases ([`DECREASE_SPACING`]) and the cap at
//! [`STRESS_CAP`] × the smoothed receive rate under stress follow how
//! WebRTC's implementation behaves, not the paper; and the detector's
//! gains, initial threshold and clamp have not been checked against the
//! paper (ROADMAP item 19).
//!
//! Being delay-based, GCC keeps queues short — and therefore yields to
//! loss-based competitors (Zoom) while sharing fairly with itself, exactly
//! the competition behaviour in §5 of the measurement paper.

use std::collections::VecDeque;

use vcabench_simcore::{SimDuration, SimTime};

use crate::feedback::{interval_s, FeedbackReport, RateController};

/// Overuse detector output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Signal {
    /// Queueing delay rising beyond threshold.
    Overuse,
    /// Queueing delay falling: queues draining.
    Underuse,
    /// Steady.
    Normal,
}

/// Trendline regression window, samples.
/// fitted: unattributed.
pub const WINDOW: usize = 10;
/// The overuse threshold before any report moves it, ms/s.
/// fitted: unattributed.
pub const INITIAL_THRESHOLD_MS_PER_S: f64 = 10.0;
/// Gain with which the threshold rises toward a delay slope above it.
/// fitted: unattributed.
pub const THRESHOLD_GAIN_UP: f64 = 0.087;
/// Gain with which the threshold decays toward a delay slope below it.
/// fitted: unattributed.
pub const THRESHOLD_GAIN_DOWN: f64 = 0.039;
/// Scale from the per-report gains above to a rate per second of elapsed
/// time.
/// engineering: the gains are stated per 100 ms report.
pub const THRESHOLD_GAIN_SCALE: f64 = 10.0;
/// Floor of the overuse threshold, ms/s. Calibrated to the
/// serialization jitter of sub-Mbps access links (one 1.1 kB packet at
/// 0.8 Mbps is 11 ms): below it the detector would chase per-packet noise
/// instead of standing queues.
/// fitted: unattributed.
pub const THRESHOLD_MIN_MS_PER_S: f64 = 8.0;
/// Ceiling of the overuse threshold, ms/s.
/// fitted: unattributed.
pub const THRESHOLD_MAX_MS_PER_S: f64 = 60.0;

/// Trendline estimator + adaptive-threshold detector over one-way delay.
#[derive(Debug, Clone)]
pub(crate) struct TrendlineDetector {
    samples: VecDeque<(f64, f64)>, // (time s, owd ms)
    threshold_ms_per_s: f64,
    overuse_count: u32,
    last_update_s: Option<f64>,
}

impl TrendlineDetector {
    /// Detector with a [`WINDOW`]-sample regression.
    pub(crate) fn new() -> Self {
        TrendlineDetector {
            samples: VecDeque::new(),
            threshold_ms_per_s: INITIAL_THRESHOLD_MS_PER_S,
            overuse_count: 0,
            last_update_s: None,
        }
    }

    /// Least-squares slope of the delay samples, ms per second.
    fn slope(&self) -> f64 {
        let n = self.samples.len();
        if n < 3 {
            return 0.0;
        }
        let mean_t = self.samples.iter().map(|s| s.0).sum::<f64>() / n as f64;
        let mean_d = self.samples.iter().map(|s| s.1).sum::<f64>() / n as f64;
        let mut num = 0.0;
        let mut den = 0.0;
        for &(t, d) in &self.samples {
            num += (t - mean_t) * (d - mean_d);
            den += (t - mean_t) * (t - mean_t);
        }
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }

    /// Feed one delay sample; returns the detector signal.
    pub(crate) fn update(&mut self, now: SimTime, owd_ms: f64) -> Signal {
        let t = now.as_secs_f64();
        self.samples.push_back((t, owd_ms));
        while self.samples.len() > WINDOW {
            self.samples.pop_front();
        }
        let slope = self.slope();

        // Adaptive threshold (WebRTC-style): the threshold chases |slope|,
        // rising quickly (k_u) and decaying slowly (k_d), bounded to keep the
        // detector sane.
        let dt = self
            .last_update_s
            .map(|last| (t - last).clamp(0.0, 1.0))
            .unwrap_or(0.0);
        self.last_update_s = Some(t);
        let k = if slope.abs() > self.threshold_ms_per_s {
            THRESHOLD_GAIN_UP
        } else {
            THRESHOLD_GAIN_DOWN
        };
        self.threshold_ms_per_s +=
            k * (slope.abs() - self.threshold_ms_per_s) * dt * THRESHOLD_GAIN_SCALE;
        self.threshold_ms_per_s = self
            .threshold_ms_per_s
            .clamp(THRESHOLD_MIN_MS_PER_S, THRESHOLD_MAX_MS_PER_S);

        if slope > self.threshold_ms_per_s {
            self.overuse_count += 1;
            if self.overuse_count >= 2 {
                return Signal::Overuse;
            }
            Signal::Normal
        } else if slope < -self.threshold_ms_per_s {
            self.overuse_count = 0;
            Signal::Underuse
        } else {
            self.overuse_count = 0;
            Signal::Normal
        }
    }
}

/// Rate-controller state (per the GCC state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Increase,
    Hold,
    Decrease,
}

/// Initial target, Mbps.
/// fitted: unattributed.
pub const START_MBPS: f64 = 0.3;
/// Floor, Mbps, until [`RateController::set_bounds`] moves it (WebRTC uses
/// ~50 kbps; video becomes unusable below).
/// engineering: a floor for the target.
pub const MIN_MBPS: f64 = 0.05;
/// Multiplicative increase per second when far from convergence.
/// published: Carlucci et al. (MMSys 2016), as this module's doc cites it.
pub const ETA_PER_S: f64 = 0.08;
/// Additive increase per second near convergence, Mbps/s.
/// fitted: unattributed.
pub const ADDITIVE_MBPS_PER_S: f64 = 0.10;
/// Decrease factor applied to the receive rate on overuse.
/// published: Carlucci et al. (MMSys 2016), as this module's doc cites it.
pub const BETA: f64 = 0.85;
/// How long an underuse signal, or the end of a decrease, holds the rate
/// before it may increase again.
/// fitted: unattributed.
pub const HOLD: SimDuration = SimDuration::from_millis(300);
/// Least time between two multiplicative decreases: a single delay spike
/// keeps the trendline positive for several report intervals while it
/// transits the regression window, and cutting on each of them would
/// collapse the rate far below β × receive (WebRTC rate-limits decreases
/// the same way).
/// fitted: unattributed.
pub const DECREASE_SPACING: SimDuration = SimDuration::from_millis(600);
/// Weight of the newest report in the smoothed receive rate.
/// fitted: unattributed.
pub const RECV_EMA_GAIN: f64 = 0.3;
/// Weight of a new decrease's receive rate in the near-convergence anchor.
/// fitted: unattributed.
pub const ANCHOR_EMA_GAIN: f64 = 0.05;
/// Lower edge of the near-convergence band, × the anchor.
/// fitted: unattributed.
pub const NEAR_BELOW: f64 = 0.9;
/// Upper edge of the near-convergence band, × the anchor.
/// fitted: unattributed.
pub const NEAR_ABOVE: f64 = 1.3;
/// Loss fraction above which the target is scaled down by the loss.
/// fitted: unattributed.
pub const HEAVY_LOSS: f64 = 0.06;
/// Target cut per unit of heavy loss: × (1 − `LOSS_SCALE` · loss).
/// fitted: unattributed.
pub const LOSS_SCALE: f64 = 0.7;
/// Loss fraction above which the path counts as stressed and an increasing
/// target is held to the receive rate.
/// fitted: unattributed.
pub const MODERATE_LOSS: f64 = 0.02;
/// Headroom over the receive rate an increasing target keeps under
/// moderate loss, ×.
/// fitted: unattributed.
pub const MODERATE_HEADROOM: f64 = 1.05;
/// Receive rate, Mbps, below which the rate says too little to cap the
/// target against.
/// fitted: unattributed.
pub const MEANINGFUL_RECV_MBPS: f64 = 0.05;
/// Ceiling on the target under stress, × the smoothed receive rate.
/// fitted: unattributed.
pub const STRESS_CAP: f64 = 1.5;

/// What a [`GccController`]'s sender chooses: its encoder ceiling.
#[derive(Debug, Clone, PartialEq)]
pub struct GccConfig {
    /// Ceiling, Mbps (the encoder's maximum useful bitrate), until
    /// [`RateController::set_bounds`] moves it.
    pub max_mbps: f64,
}

impl Default for GccConfig {
    fn default() -> Self {
        GccConfig { max_mbps: 2.0 }
    }
}

/// The GCC delay + loss rate controller.
///
/// ```
/// use vcabench_congestion::{GccConfig, GccController, RateController, SyntheticLink};
/// use vcabench_simcore::{SimDuration, SimTime};
///
/// let mut cc = GccController::new(GccConfig::default());
/// let mut link = SyntheticLink::new(1.0); // a 1 Mbps bottleneck
/// for i in 0..600 {
///     let fb = link.step(
///         SimTime::from_millis(i * 100),
///         cc.target_mbps(),
///         SimDuration::from_millis(100),
///     );
///     cc.on_report(&fb);
/// }
/// let t = cc.target_mbps();
/// assert!(t > 0.7 && t < 1.3, "converges near capacity: {t}");
/// ```
#[derive(Debug, Clone)]
pub struct GccController {
    /// Floor on the target, Mbps: [`MIN_MBPS`] until `set_bounds` moves it.
    min_mbps: f64,
    /// Ceiling on the target, Mbps: the configured one until `set_bounds`
    /// moves it.
    max_mbps: f64,
    detector: TrendlineDetector,
    state: State,
    target: f64,
    /// EMA of the receive rate around decreases: the "link capacity" anchor
    /// used to decide near-convergence.
    avg_max_mbps: Option<f64>,
    last_report: Option<SimTime>,
    hold_until: Option<SimTime>,
    last_decrease: Option<SimTime>,
    /// Smoothed receive rate (decreases anchor to this, not to the noisy
    /// instantaneous 100 ms sample).
    recv_ema: Option<f64>,
    /// Most recent detector signal (diagnostics / telemetry).
    last_signal: Signal,
}

impl GccController {
    /// Create a controller with the given configuration.
    pub fn new(cfg: GccConfig) -> Self {
        GccController {
            min_mbps: MIN_MBPS,
            max_mbps: cfg.max_mbps,
            detector: TrendlineDetector::new(),
            state: State::Increase,
            target: START_MBPS.clamp(MIN_MBPS, cfg.max_mbps),
            avg_max_mbps: None,
            last_report: None,
            hold_until: None,
            last_decrease: None,
            recv_ema: None,
            last_signal: Signal::Normal,
        }
    }

    /// Current state name (diagnostics / telemetry).
    pub fn state_name(&self) -> &'static str {
        match self.state {
            State::Increase => "increase",
            State::Hold => "hold",
            State::Decrease => "decrease",
        }
    }

    /// Most recent detector signal name (diagnostics / telemetry).
    pub fn signal_name(&self) -> &'static str {
        match self.last_signal {
            Signal::Overuse => "overuse",
            Signal::Underuse => "underuse",
            Signal::Normal => "normal",
        }
    }

    /// Detector signal handling → state machine transition.
    fn transition(&mut self, signal: Signal, now: SimTime) {
        self.last_signal = signal;
        match signal {
            Signal::Overuse => self.state = State::Decrease,
            Signal::Underuse => {
                self.state = State::Hold;
                self.hold_until = Some(now + HOLD);
            }
            Signal::Normal => {
                if self.state == State::Decrease {
                    self.state = State::Hold;
                    self.hold_until = Some(now + HOLD);
                } else if self.state == State::Hold
                    && self.hold_until.map(|t| now >= t).unwrap_or(true)
                {
                    self.state = State::Increase;
                }
            }
        }
    }
}

impl RateController for GccController {
    fn on_report(&mut self, r: &FeedbackReport) {
        let dt = interval_s(&mut self.last_report, r.now);

        let recv = match self.recv_ema {
            Some(prev) => (1.0 - RECV_EMA_GAIN) * prev + RECV_EMA_GAIN * r.receive_rate_mbps,
            None => r.receive_rate_mbps,
        };
        self.recv_ema = Some(recv);

        let signal = self.detector.update(r.now, r.one_way_delay_ms);
        self.transition(signal, r.now);

        match self.state {
            State::Decrease => {
                // At most one multiplicative decrease per DECREASE_SPACING.
                let spaced = self
                    .last_decrease
                    .map(|t| r.now.saturating_since(t) >= DECREASE_SPACING)
                    .unwrap_or(true);
                if spaced {
                    self.last_decrease = Some(r.now);
                    self.target = (BETA * recv).max(self.min_mbps);
                    // Anchor the near-convergence detector at the rate where
                    // congestion appeared.
                    self.avg_max_mbps = Some(match self.avg_max_mbps {
                        Some(avg) => (1.0 - ANCHOR_EMA_GAIN) * avg + ANCHOR_EMA_GAIN * recv,
                        None => recv,
                    });
                }
            }
            State::Hold => {}
            State::Increase => {
                // Near convergence = within a band around the anchor where
                // congestion last appeared. Far *below* (post-disruption) and
                // far *above* (the anchor is stale) both use multiplicative
                // increase.
                let near = self
                    .avg_max_mbps
                    .map(|m| self.target > NEAR_BELOW * m && self.target < NEAR_ABOVE * m)
                    .unwrap_or(false);
                if near {
                    self.target += ADDITIVE_MBPS_PER_S * dt;
                } else {
                    self.target *= 1.0 + ETA_PER_S * dt;
                }
            }
        }

        // Loss-based bound: sustained loss overrides delay control (a pegged
        // drop-tail queue has zero delay *gradient*, so the trendline goes
        // blind exactly when loss appears), moderate loss inhibits increase.
        if r.loss_fraction > HEAVY_LOSS {
            self.target = self
                .target
                .min(self.target * (1.0 - LOSS_SCALE * r.loss_fraction));
        } else if r.loss_fraction > MODERATE_LOSS && self.state == State::Increase {
            // hold: undo this interval's increase by re-clamping to the
            // receive rate when it is meaningful.
            if r.receive_rate_mbps > MEANINGFUL_RECV_MBPS {
                self.target = self.target.min(r.receive_rate_mbps * MODERATE_HEADROOM);
            }
        }

        // Never run far beyond what is actually getting through — but only
        // when the path shows stress. A video sender is often app-limited
        // (the encoder sends less than the target allows); capping against
        // the app-limited receive rate would wedge the estimate at the
        // encoder's current output (WebRTC handles app-limited phases the
        // same way).
        let stressed = r.loss_fraction > MODERATE_LOSS || self.state == State::Decrease;
        if stressed && recv > MEANINGFUL_RECV_MBPS {
            self.target = self.target.min(STRESS_CAP * recv);
        }
        self.target = self.target.clamp(self.min_mbps, self.max_mbps);
        debug_assert!(
            self.target.is_finite() && self.target >= self.min_mbps && self.target <= self.max_mbps,
            "GCC target {} outside [{}, {}]",
            self.target,
            self.min_mbps,
            self.max_mbps
        );
    }

    fn target_mbps(&self) -> f64 {
        self.target
    }

    fn set_bounds(&mut self, min_mbps: f64, max_mbps: f64) {
        self.min_mbps = min_mbps;
        self.max_mbps = max_mbps;
        self.target = self.target.clamp(min_mbps, max_mbps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticLink;

    const DT: SimDuration = SimDuration::from_millis(100);

    fn run_loop(
        cc: &mut GccController,
        link: &mut SyntheticLink,
        from_s: u64,
        to_s: u64,
    ) -> Vec<f64> {
        let mut rates = Vec::new();
        let steps_from = from_s * 10;
        let steps_to = to_s * 10;
        for i in steps_from..steps_to {
            let now = SimTime::from_millis(i * 100);
            let r = link.step(now, cc.target_mbps(), DT);
            cc.on_report(&r);
            rates.push(cc.target_mbps());
        }
        rates
    }

    #[test]
    fn converges_to_capacity_without_heavy_loss() {
        let mut cc = GccController::new(GccConfig::default());
        let mut link = SyntheticLink::new(1.0);
        let rates = run_loop(&mut cc, &mut link, 0, 60);
        let late = &rates[rates.len() - 100..];
        let avg: f64 = late.iter().sum::<f64>() / late.len() as f64;
        assert!(avg > 0.8 && avg < 1.3, "late avg {avg}");
        // Delay-based control must keep the standing queue modest.
        assert!(link.queue_ms() < 150.0, "queue {}", link.queue_ms());
    }

    #[test]
    fn respects_max_bound_on_fat_link() {
        let mut cc = GccController::new(GccConfig { max_mbps: 0.95 });
        let mut link = SyntheticLink::new(1000.0);
        let rates = run_loop(&mut cc, &mut link, 0, 60);
        let last = *rates.last().unwrap();
        assert!(
            (last - 0.95).abs() < 1e-6,
            "should pin at encoder max, got {last}"
        );
    }

    #[test]
    fn detector_flags_rising_delay() {
        let mut det = TrendlineDetector::new();
        let mut sig = Signal::Normal;
        for i in 0..30 {
            // 20 ms/s upward ramp.
            sig = det.update(SimTime::from_millis(i * 100), 20.0 + 2.0 * i as f64);
        }
        assert_eq!(sig, Signal::Overuse);
    }

    #[test]
    fn detector_flags_draining_queue_as_underuse() {
        let mut det = TrendlineDetector::new();
        let mut sig = Signal::Normal;
        for i in 0..30 {
            sig = det.update(SimTime::from_millis(i * 100), 100.0 - 3.0 * i as f64);
        }
        assert_eq!(sig, Signal::Underuse);
    }

    #[test]
    fn recovery_time_grows_with_severity() {
        // Converge on a fat link capped at 0.96 (Meet nominal), disrupt to
        // `sev` for 30 s, then measure time back to 90% of nominal.
        let recover = |sev: f64| -> f64 {
            let mut cc = GccController::new(GccConfig { max_mbps: 0.96 });
            let mut link = SyntheticLink::new(100.0);
            run_loop(&mut cc, &mut link, 0, 60);
            link.capacity_mbps = sev;
            run_loop(&mut cc, &mut link, 60, 90);
            link.capacity_mbps = 100.0;
            let rates = run_loop(&mut cc, &mut link, 90, 200);
            rates
                .iter()
                .position(|&r| r >= 0.9 * 0.96)
                .map(|i| i as f64 * 0.1)
                .unwrap_or(f64::INFINITY)
        };
        let severe = recover(0.25);
        let mild = recover(0.75);
        assert!(severe.is_finite() && mild.is_finite());
        assert!(severe > mild, "severe {severe}s should exceed mild {mild}s");
        assert!(
            severe > 5.0,
            "severe recovery should take many seconds: {severe}"
        );
    }

    #[test]
    fn heavy_loss_caps_rate() {
        let mut cc = GccController::new(GccConfig::default());
        // Feed artificial 30% loss reports at a generous receive rate.
        for i in 0..100 {
            cc.on_report(&FeedbackReport {
                now: SimTime::from_millis(i * 100),
                loss_fraction: 0.3,
                receive_rate_mbps: 1.0,
                one_way_delay_ms: 20.0,
                rtt: SimDuration::from_millis(40),
            });
        }
        assert!(cc.target_mbps() < 0.2, "got {}", cc.target_mbps());
    }

    #[test]
    fn loss_bound_scales_heavy_loss_and_holds_moderate_loss_to_the_receive_rate() {
        // One report to a fresh controller: the detector has too few
        // samples to signal, so the state stays Increase and the target
        // grows for the default 100 ms before the loss rule applies.
        let target_after = |loss_fraction| {
            let mut cc = GccController::new(GccConfig::default());
            cc.on_report(&FeedbackReport {
                loss_fraction,
                ..FeedbackReport::quiet(SimTime::ZERO, 0.2, 20.0)
            });
            cc.target_mbps()
        };
        let grown = START_MBPS * (1.0 + ETA_PER_S * 0.1);
        for (loss, want) in [
            (0.0199, grown),
            (0.0201, 0.2 * 1.05),
            (0.0599, 0.2 * 1.05),
            (0.0601, grown * (1.0 - 0.7 * 0.0601)),
            (0.2, grown * (1.0 - 0.7 * 0.2)),
        ] {
            let got = target_after(loss);
            assert!((got - want).abs() < 1e-12, "{loss} loss: {got} vs {want}");
        }
    }

    #[test]
    fn set_bounds_clamps_immediately() {
        let mut cc = GccController::new(GccConfig::default());
        cc.set_bounds(0.5, 0.6);
        assert!(cc.target_mbps() >= 0.5 && cc.target_mbps() <= 0.6);
    }

    #[test]
    fn two_gcc_flows_share_fairly() {
        // The Fig 9b result: two Meet clients converge to ~fair share.
        let mut a = GccController::new(GccConfig::default());
        let mut b = GccController::new(GccConfig::default());
        let mut link = SyntheticLink::new(0.5);
        let mut share_a = 0.0;
        let mut share_b = 0.0;
        for i in 0..3000 {
            let now = SimTime::from_millis(i * 100);
            let reports = link.step_shared(now, &[a.target_mbps(), b.target_mbps()], DT);
            a.on_report(&reports[0]);
            b.on_report(&reports[1]);
            if i > 2500 {
                share_a += a.target_mbps();
                share_b += b.target_mbps();
            }
        }
        let ratio = share_a / (share_a + share_b);
        assert!(
            (0.3..=0.7).contains(&ratio),
            "GCC vs GCC should be roughly fair, ratio {ratio}"
        );
    }
}
