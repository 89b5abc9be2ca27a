//! Teams-style conservative loss-based rate control.
//!
//! The paper's observations about Microsoft Teams' proprietary controller:
//!
//! * a **high nominal bitrate** (~1.4–1.9 Mbps, Table 2) with visibly more
//!   run-to-run variability than Meet or Zoom (the wide CIs in Fig 1);
//! * a **sharp backoff** on congestion followed by a **slow linear phase**
//!   "immediately after the interruption before increasing quickly back to
//!   normal" (Fig 4a) — giving Teams the longest recovery times (Figs 4b, 5b);
//! * extreme **passivity against TCP** (Fig 12: ≤37 % of a 2 Mbps uplink,
//!   ≤20 % of the downlink) and against other VCAs on the downlink (Fig 10),
//!   because every loss event triggers another backoff-and-slow-climb cycle;
//! * **end-to-end control** through a dumb relay: the far sender reduces its
//!   rate to what the receiver can take and must re-probe after a disruption
//!   (Fig 6) — modelled in the `vca` crate by wiring this controller at the
//!   sending client rather than at the server.

use vcabench_simcore::{SimDuration, SimRng, SimTime};

use crate::feedback::{FeedbackReport, RateController};

/// Initial target, Mbps.
pub const START_MBPS: f64 = 0.8;
/// Floor, Mbps, until [`RateController::set_bounds`] moves it.
pub const MIN_MBPS: f64 = 0.10;
/// Period of the nominal oscillation.
pub const OSC_PERIOD: SimDuration = SimDuration::from_secs(47);
/// Loss fraction that triggers a backoff.
pub const LOSS_THRESHOLD: f64 = 0.02;

/// What a [`TeamsController`]'s sender chooses: the native client and
/// Teams-in-Chrome differ in each of these (Fig 1c).
#[derive(Debug, Clone, PartialEq)]
pub struct TeamsConfig {
    /// Center of the nominal band, Mbps, until
    /// [`TeamsController::set_nominal`] moves it.
    pub nominal_mbps: f64,
    /// Amplitude of the slow nominal oscillation, Mbps (run-to-run
    /// variability the paper observes for Teams).
    pub osc_amplitude_mbps: f64,
    /// Multiplier applied to the receive rate on backoff.
    pub backoff_factor: f64,
    /// Duration of the slow (linear) recovery phase.
    pub slow_phase: SimDuration,
    /// Slope of the slow phase, Mbps/s.
    pub slow_mbps_per_s: f64,
    /// Multiplicative climb per second in the fast phase.
    pub fast_per_s: f64,
}

impl Default for TeamsConfig {
    fn default() -> Self {
        TeamsConfig {
            nominal_mbps: 1.65,
            osc_amplitude_mbps: 0.25,
            backoff_factor: 0.6,
            slow_phase: SimDuration::from_secs(8),
            slow_mbps_per_s: 0.02,
            fast_per_s: 0.15,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Climbing after start or a backoff: first linear, then multiplicative.
    Recover,
    /// At nominal, tracking the oscillating set-point.
    Track,
}

/// The Teams-style controller.
#[derive(Debug, Clone)]
pub struct TeamsController {
    cfg: TeamsConfig,
    /// Center of the nominal band, Mbps: the configured one until
    /// [`TeamsController::set_nominal`] moves it.
    nominal_mbps: f64,
    state: State,
    target: f64,
    backoff_at: Option<SimTime>,
    phase: f64,
    last_report: Option<SimTime>,
    min_bound: f64,
    max_bound: f64,
}

impl TeamsController {
    /// Create a controller; `rng` seeds the oscillator phase so repeated
    /// runs reproduce the paper's run-to-run variability deterministically.
    pub fn new(cfg: TeamsConfig, rng: &mut SimRng) -> Self {
        let phase = rng.uniform() * std::f64::consts::TAU;
        TeamsController {
            nominal_mbps: cfg.nominal_mbps,
            state: State::Recover,
            target: START_MBPS,
            backoff_at: None,
            phase,
            last_report: None,
            min_bound: MIN_MBPS,
            max_bound: f64::INFINITY,
            cfg,
        }
    }

    /// The oscillating nominal set-point at time `t`.
    pub fn setpoint_mbps(&self, t: SimTime) -> f64 {
        let w = std::f64::consts::TAU / OSC_PERIOD.as_secs_f64();
        self.nominal_mbps + self.cfg.osc_amplitude_mbps * (w * t.as_secs_f64() + self.phase).sin()
    }

    /// Whether the controller is in its post-backoff recovery.
    pub fn recovering(&self) -> bool {
        self.state == State::Recover
    }

    /// Current state name (diagnostics / telemetry).
    pub fn state_name(&self) -> &'static str {
        match self.state {
            State::Recover => "recover",
            State::Track => "track",
        }
    }

    /// Move the nominal set-point to `nominal_mbps` (Teams' pinned-sender
    /// behaviour, whose uplink grows with call size — §6.2), or with `None`
    /// back to the configured one.
    pub fn set_nominal(&mut self, nominal_mbps: Option<f64>) {
        self.nominal_mbps = nominal_mbps.unwrap_or(self.cfg.nominal_mbps).max(MIN_MBPS);
    }
}

impl RateController for TeamsController {
    fn on_report(&mut self, r: &FeedbackReport) {
        let dt = self
            .last_report
            .map(|t| r.now.saturating_since(t).as_secs_f64())
            .unwrap_or(0.1)
            .clamp(0.0, 1.0);
        self.last_report = Some(r.now);

        // Any loss above the (low) threshold causes a sharp backoff. This
        // hair-trigger is what makes Teams passive against TCP and on
        // contended downlinks.
        if r.loss_fraction > LOSS_THRESHOLD {
            let floor = (self.cfg.backoff_factor * r.receive_rate_mbps).max(MIN_MBPS);
            if floor < self.target {
                self.target = floor;
            }
            self.backoff_at = Some(r.now);
            self.state = State::Recover;
        } else {
            match self.state {
                State::Recover => {
                    let since = self
                        .backoff_at
                        .map(|t| r.now.saturating_since(t))
                        .unwrap_or(SimDuration::MAX);
                    if since < self.cfg.slow_phase {
                        // The paper's "increases the upstream bitrate slowly
                        // immediately after the interruption".
                        self.target += self.cfg.slow_mbps_per_s * dt;
                    } else {
                        // "...before increasing quickly back to normal".
                        self.target *= 1.0 + self.cfg.fast_per_s * dt;
                    }
                    if self.target >= self.setpoint_mbps(r.now) {
                        self.state = State::Track;
                    }
                }
                State::Track => {
                    // Chase the oscillating set-point with a low-pass filter.
                    let sp = self.setpoint_mbps(r.now);
                    self.target += (sp - self.target) * (0.5 * dt).min(1.0);
                }
            }
        }

        self.target = self.target.clamp(self.min_bound, self.max_bound);
        debug_assert!(
            self.target.is_finite()
                && self.target >= self.min_bound
                && self.target <= self.max_bound,
            "Teams target {} outside [{}, {}]",
            self.target,
            self.min_bound,
            self.max_bound
        );
    }

    fn target_mbps(&self) -> f64 {
        self.target
    }

    fn set_bounds(&mut self, min_mbps: f64, max_mbps: f64) {
        self.min_bound = min_mbps;
        self.max_bound = max_mbps;
        self.target = self.target.clamp(min_mbps, max_mbps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticLink;

    const DT: SimDuration = SimDuration::from_millis(100);

    fn new_cc(seed: u64) -> TeamsController {
        let mut rng = SimRng::seed_from_u64(seed);
        TeamsController::new(TeamsConfig::default(), &mut rng)
    }

    fn drive(
        cc: &mut TeamsController,
        link: &mut SyntheticLink,
        from_s: u64,
        to_s: u64,
    ) -> Vec<f64> {
        let mut out = Vec::new();
        for i in from_s * 10..to_s * 10 {
            let now = SimTime::from_millis(i * 100);
            let fb = link.step(now, cc.target_mbps(), DT);
            cc.on_report(&fb);
            out.push(cc.target_mbps());
        }
        out
    }

    #[test]
    fn reaches_high_nominal_band_and_oscillates() {
        let mut cc = new_cc(1);
        let mut link = SyntheticLink::new(1000.0);
        let rates = drive(&mut cc, &mut link, 0, 180);
        let late = &rates[rates.len() - 600..];
        let avg: f64 = late.iter().sum::<f64>() / late.len() as f64;
        assert!((1.3..=2.0).contains(&avg), "nominal band, got {avg}");
        let min = late.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = late.iter().cloned().fold(0.0f64, f64::max);
        assert!(max - min > 0.2, "should oscillate visibly: {min}..{max}");
    }

    #[test]
    fn phase_differs_across_seeds() {
        let a = new_cc(1);
        let b = new_cc(2);
        let t = SimTime::from_secs(10);
        assert!((a.setpoint_mbps(t) - b.setpoint_mbps(t)).abs() > 1e-6);
    }

    #[test]
    fn backoff_then_slow_then_fast_recovery() {
        let mut cc = new_cc(3);
        let mut link = SyntheticLink::new(1000.0);
        drive(&mut cc, &mut link, 0, 120);
        let before = cc.target_mbps();
        // 30 s crush to 0.25 Mbps.
        link.capacity_mbps = 0.25;
        drive(&mut cc, &mut link, 120, 150);
        assert!(cc.target_mbps() < 0.4, "crushed to {}", cc.target_mbps());
        link.capacity_mbps = 1000.0;
        let rec = drive(&mut cc, &mut link, 150, 300);
        // Slow phase: after 5 s we must still be way below nominal.
        assert!(
            rec[50] < 0.6,
            "recovery must start slowly, at 5 s rate was {}",
            rec[50]
        );
        // Eventually recovers to the pre-disruption band.
        let t_rec = rec
            .iter()
            .position(|&v| v >= before * 0.9)
            .map(|i| i as f64 * 0.1)
            .expect("must recover");
        assert!(
            t_rec > 15.0 && t_rec < 120.0,
            "Teams recovery should be slow but finite: {t_rec}s"
        );
    }

    #[test]
    fn persistent_loss_keeps_teams_pinned_low() {
        // Against a competitor that keeps the queue overflowing, Teams keeps
        // backing off (the Fig 12 passivity).
        let mut cc = new_cc(4);
        let mut link = SyntheticLink::new(2.0);
        let mut sum = 0.0;
        let mut n = 0;
        for i in 0..1800 {
            let now = SimTime::from_millis(i * 100);
            // Background flow pushes 2.2 Mbps regardless (bulk TCP-ish).
            let fbs = link.step_shared(now, &[cc.target_mbps(), 2.2], DT);
            cc.on_report(&fbs[0]);
            if i > 900 {
                sum += cc.target_mbps();
                n += 1;
            }
        }
        let avg = sum / n as f64;
        assert!(avg < 0.9, "Teams must stay passive under loss, got {avg}");
    }

    #[test]
    fn bounds_clamp_target() {
        let mut cc = new_cc(5);
        cc.set_bounds(0.2, 0.9);
        let mut link = SyntheticLink::new(1000.0);
        let rates = drive(&mut cc, &mut link, 0, 60);
        assert!(rates
            .iter()
            .all(|&v| (0.2 - 1e-9..=0.9 + 1e-9).contains(&v)));
    }
}
