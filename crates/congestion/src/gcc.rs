//! Google Congestion Control (GCC) — the WebRTC algorithm Meet uses.
//!
//! Implemented from Carlucci et al., *"Analysis and design of the google
//! congestion control for web real-time communication"* (MMSys 2016), the
//! reference the paper cites for Meet's behaviour:
//!
//! * a **trendline filter** estimates the gradient of one-way queueing delay;
//! * an **adaptive-threshold overuse detector** turns the gradient into
//!   overuse / normal / underuse signals;
//! * an **AIMD rate controller** (multiplicative increase ~8 %/s far from
//!   convergence, additive near it; multiplicative decrease to
//!   0.85 × receive rate) reacts to the signals;
//! * a **loss-based bound** caps the rate when loss exceeds 10 %.
//!
//! Being delay-based, GCC keeps queues short — and therefore yields to
//! loss-based competitors (Zoom) while sharing fairly with itself, exactly
//! the competition behaviour in §5 of the measurement paper.

use std::collections::VecDeque;

use vcabench_simcore::SimTime;

use crate::feedback::{FeedbackReport, RateController};

/// Overuse detector output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// Queueing delay rising beyond threshold.
    Overuse,
    /// Queueing delay falling: queues draining.
    Underuse,
    /// Steady.
    Normal,
}

/// Trendline estimator + adaptive-threshold detector over one-way delay.
#[derive(Debug, Clone)]
pub struct TrendlineDetector {
    window: usize,
    samples: VecDeque<(f64, f64)>, // (time s, owd ms)
    threshold_ms_per_s: f64,
    overuse_count: u32,
    last_update_s: Option<f64>,
}

impl TrendlineDetector {
    /// Detector with a `window`-sample regression.
    pub fn new(window: usize) -> Self {
        TrendlineDetector {
            window,
            samples: VecDeque::new(),
            threshold_ms_per_s: 10.0,
            overuse_count: 0,
            last_update_s: None,
        }
    }

    /// Least-squares slope of the delay samples, ms per second.
    pub fn slope(&self) -> f64 {
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
    pub fn update(&mut self, now: SimTime, owd_ms: f64) -> Signal {
        let t = now.as_secs_f64();
        self.samples.push_back((t, owd_ms));
        while self.samples.len() > self.window {
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
            0.087
        } else {
            0.039
        };
        self.threshold_ms_per_s += k * (slope.abs() - self.threshold_ms_per_s) * dt * 10.0;
        // Floor calibrated to the serialization-jitter of sub-Mbps access
        // links (one 1.1 kB packet at 0.8 Mbps is 11 ms): below it the
        // detector would chase per-packet noise instead of standing queues.
        self.threshold_ms_per_s = self.threshold_ms_per_s.clamp(8.0, 60.0);

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

/// Configuration of [`GccController`].
#[derive(Debug, Clone, PartialEq)]
pub struct GccConfig {
    /// Initial target, Mbps.
    pub start_mbps: f64,
    /// Hard floor, Mbps (WebRTC uses ~50 kbps; video becomes unusable below).
    pub min_mbps: f64,
    /// Hard ceiling, Mbps (the encoder's maximum useful bitrate).
    pub max_mbps: f64,
    /// Multiplicative increase per second when far from convergence.
    pub eta_per_s: f64,
    /// Additive increase per second near convergence, Mbps/s.
    pub additive_mbps_per_s: f64,
    /// Decrease factor applied to the receive rate on overuse.
    pub beta: f64,
    /// Trendline regression window, samples.
    pub window: usize,
}

impl Default for GccConfig {
    fn default() -> Self {
        GccConfig {
            start_mbps: 0.3,
            min_mbps: 0.05,
            max_mbps: 2.0,
            eta_per_s: 0.08,
            additive_mbps_per_s: 0.10,
            beta: 0.85,
            window: 10,
        }
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
    cfg: GccConfig,
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
        let target = cfg.start_mbps.clamp(cfg.min_mbps, cfg.max_mbps);
        GccController {
            detector: TrendlineDetector::new(cfg.window),
            state: State::Increase,
            target,
            avg_max_mbps: None,
            last_report: None,
            hold_until: None,
            last_decrease: None,
            recv_ema: None,
            last_signal: Signal::Normal,
            cfg,
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
                self.hold_until = Some(now + vcabench_simcore::SimDuration::from_millis(300));
            }
            Signal::Normal => {
                if self.state == State::Decrease {
                    self.state = State::Hold;
                    self.hold_until = Some(now + vcabench_simcore::SimDuration::from_millis(300));
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
        let dt = self
            .last_report
            .map(|t| r.now.saturating_since(t).as_secs_f64())
            .unwrap_or(0.1)
            .clamp(0.0, 1.0);
        self.last_report = Some(r.now);

        let recv = match self.recv_ema {
            Some(prev) => 0.7 * prev + 0.3 * r.receive_rate_mbps,
            None => r.receive_rate_mbps,
        };
        self.recv_ema = Some(recv);

        let signal = self.detector.update(r.now, r.one_way_delay_ms);
        self.transition(signal, r.now);

        match self.state {
            State::Decrease => {
                // At most one multiplicative decrease per 600 ms: a single
                // delay spike keeps the trendline positive for several report
                // intervals while it transits the regression window, and
                // cutting on each of them would collapse the rate far below
                // β × receive (WebRTC rate-limits decreases the same way).
                let spaced = self
                    .last_decrease
                    .map(|t| {
                        r.now.saturating_since(t) >= vcabench_simcore::SimDuration::from_millis(600)
                    })
                    .unwrap_or(true);
                if spaced {
                    self.last_decrease = Some(r.now);
                    self.target = (self.cfg.beta * recv).max(self.cfg.min_mbps);
                    // Anchor the near-convergence detector at the rate where
                    // congestion appeared.
                    self.avg_max_mbps = Some(match self.avg_max_mbps {
                        Some(avg) => 0.95 * avg + 0.05 * recv,
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
                    .map(|m| self.target > 0.9 * m && self.target < 1.3 * m)
                    .unwrap_or(false);
                if near {
                    self.target += self.cfg.additive_mbps_per_s * dt;
                } else {
                    self.target *= 1.0 + self.cfg.eta_per_s * dt;
                }
            }
        }

        // Loss-based bound: sustained loss overrides delay control (a pegged
        // drop-tail queue has zero delay *gradient*, so the trendline goes
        // blind exactly when loss appears), moderate loss inhibits increase.
        if r.loss_fraction > 0.06 {
            self.target = self.target.min(self.target * (1.0 - 0.7 * r.loss_fraction));
        } else if r.loss_fraction > 0.02 && self.state == State::Increase {
            // hold: undo this interval's increase by re-clamping to the
            // receive rate when it is meaningful.
            if r.receive_rate_mbps > 0.05 {
                self.target = self.target.min(r.receive_rate_mbps * 1.05);
            }
        }

        // Never run far beyond what is actually getting through — but only
        // when the path shows stress. A video sender is often app-limited
        // (the encoder sends less than the target allows); capping against
        // the app-limited receive rate would wedge the estimate at the
        // encoder's current output (WebRTC handles app-limited phases the
        // same way).
        let stressed = r.loss_fraction > 0.02 || self.state == State::Decrease;
        if stressed && recv > 0.05 {
            self.target = self.target.min(1.5 * recv);
        }
        self.target = self.target.clamp(self.cfg.min_mbps, self.cfg.max_mbps);
        debug_assert!(
            self.target.is_finite()
                && self.target >= self.cfg.min_mbps
                && self.target <= self.cfg.max_mbps,
            "GCC target {} outside [{}, {}]",
            self.target,
            self.cfg.min_mbps,
            self.cfg.max_mbps
        );
    }

    fn target_mbps(&self) -> f64 {
        self.target
    }

    fn set_bounds(&mut self, min_mbps: f64, max_mbps: f64) {
        self.cfg.min_mbps = min_mbps;
        self.cfg.max_mbps = max_mbps;
        self.target = self.target.clamp(min_mbps, max_mbps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticLink;
    use vcabench_simcore::SimDuration;

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
        let mut cc = GccController::new(GccConfig {
            max_mbps: 0.95,
            ..GccConfig::default()
        });
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
        let mut det = TrendlineDetector::new(10);
        let mut sig = Signal::Normal;
        for i in 0..30 {
            // 20 ms/s upward ramp.
            sig = det.update(SimTime::from_millis(i * 100), 20.0 + 2.0 * i as f64);
        }
        assert_eq!(sig, Signal::Overuse);
    }

    #[test]
    fn detector_flags_draining_queue_as_underuse() {
        let mut det = TrendlineDetector::new(10);
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
            let mut cc = GccController::new(GccConfig {
                max_mbps: 0.96,
                ..GccConfig::default()
            });
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
