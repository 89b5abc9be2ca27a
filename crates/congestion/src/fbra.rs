//! Zoom-style FEC-based probing rate control.
//!
//! The paper attributes Zoom's distinctive behaviour to congestion control in
//! the spirit of FBRA (Nagy et al., *"Congestion control using FEC for
//! conversational multimedia communication"*, MMSys 2014), combined with a
//! relay server and scalable video coding:
//!
//! * recovery after a disruption is **almost linear, then stepwise**: raise
//!   the rate, hold, raise again (Fig 4a) — the extra rate is redundant FEC,
//!   so induced loss does not hurt the user's video;
//! * probing continues **well above the nominal bitrate** before settling
//!   back, taking up to two minutes to return to steady state;
//! * the controller yields to loss only reluctantly, making Zoom highly
//!   **aggressive** under competition (Figs 8, 13, 14) — it can hold 75 % of
//!   a constrained link against another VCA, a TCP flow, or Netflix;
//! * during a constraint it tracks the available capacity closely (>85 %
//!   utilization, Fig 1a).

use vcabench_simcore::{SimDuration, SimTime};

use crate::feedback::{FeedbackReport, RateController};

/// Configuration of [`FbraController`].
#[derive(Debug, Clone, PartialEq)]
pub struct FbraConfig {
    /// Initial target, Mbps.
    pub start_mbps: f64,
    /// Hard floor, Mbps.
    pub min_mbps: f64,
    /// Encoder ceiling for the media payload, Mbps (720p talking head).
    pub media_max_mbps: f64,
    /// FEC overhead fraction in steady state (Zoom's relay adds ~15–25 %,
    /// §3.1 asymmetry analysis).
    pub steady_fec: f64,
    /// Maximum FEC overhead fraction while probing.
    pub probe_fec_max: f64,
    /// Linear ramp slope right after a disruption, Mbps/s.
    pub ramp_mbps_per_s: f64,
    /// Rate step added at each probe increment, Mbps.
    pub probe_step_mbps: f64,
    /// Hold time between probe increments.
    pub probe_hold: SimDuration,
    /// How long to stay at the probe ceiling before decaying.
    pub post_probe_hold: SimDuration,
    /// Decay slope back to nominal after probing, Mbps/s.
    pub decay_mbps_per_s: f64,
    /// Interval between spontaneous re-probes in steady state (Fig 13).
    pub reprobe_after: SimDuration,
    /// Multiplier on `reprobe_after` for this instance. Give each client a
    /// different jitter (e.g. drawn from the experiment RNG) so concurrent
    /// Zoom flows do not probe in lockstep — synchronized probing is a
    /// simulation artifact real deployments do not exhibit.
    pub reprobe_jitter: f64,
}

impl Default for FbraConfig {
    fn default() -> Self {
        FbraConfig {
            start_mbps: 0.15,
            min_mbps: 0.05,
            media_max_mbps: 0.68,
            steady_fec: 0.05,
            probe_fec_max: 0.60,
            ramp_mbps_per_s: 0.035,
            probe_step_mbps: 0.10,
            probe_hold: SimDuration::from_secs(6),
            post_probe_hold: SimDuration::from_secs(40),
            decay_mbps_per_s: 0.02,
            reprobe_after: SimDuration::from_secs(90),
            reprobe_jitter: 1.0,
        }
    }
}

impl FbraConfig {
    /// Nominal steady-state total rate (media ceiling + steady FEC).
    pub fn nominal_mbps(&self) -> f64 {
        self.media_max_mbps * (1.0 + self.steady_fec)
    }

    /// Probe ceiling (media ceiling + maximum FEC).
    pub fn probe_ceiling_mbps(&self) -> f64 {
        self.media_max_mbps * (1.0 + self.probe_fec_max)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Linear climb after start or a disruption.
    Ramp,
    /// Stepwise climb above nominal with elevated FEC.
    Probe,
    /// Sitting at the probe ceiling.
    ProbeHold,
    /// Decaying from the ceiling back to nominal.
    Decay,
    /// Steady state at nominal (or at the discovered capacity).
    Stay,
    /// Tracking a collapsed link during a disruption.
    Fall,
}

/// Zoom's FEC-probing controller.
#[derive(Debug, Clone)]
pub struct FbraController {
    cfg: FbraConfig,
    state: State,
    target: f64,
    /// Capacity discovered through loss, if any (None on an open link).
    capacity_estimate: Option<f64>,
    state_since: SimTime,
    last_step_at: SimTime,
    last_probe_finished: SimTime,
    /// Target when the current probe began and steps taken so far: a probe
    /// that dies on its first step reverts instead of re-anchoring to the
    /// (momentarily inflated) receive rate.
    pre_probe_target: f64,
    probe_steps: u32,
    /// Smoothed loss fraction (Stay-state decisions use this: per-interval
    /// loss samples are noisy in a way that systematically penalizes the
    /// larger of two competing flows).
    loss_ema: f64,
    clean_reports: u32,
    lossy_reports: u32,
    collapse_reports: u32,
    /// True after a Fall: the next Ramp ends in the stepwise probe phase
    /// (Fig 4a); the initial call ramp goes straight to nominal instead.
    recovering: bool,
    last_report: Option<SimTime>,
    min_bound: f64,
    max_bound: f64,
}

impl FbraController {
    /// Create a controller with the given configuration.
    pub fn new(cfg: FbraConfig) -> Self {
        FbraController {
            state: State::Ramp,
            target: cfg.start_mbps,
            capacity_estimate: None,
            state_since: SimTime::ZERO,
            last_step_at: SimTime::ZERO,
            last_probe_finished: SimTime::ZERO,
            clean_reports: 0,
            lossy_reports: 0,
            collapse_reports: 0,
            recovering: false,
            pre_probe_target: 0.0,
            probe_steps: 0,
            loss_ema: 0.0,
            last_report: None,
            min_bound: cfg.min_mbps,
            max_bound: f64::INFINITY,
            cfg,
        }
    }

    /// Current state name (diagnostics / tests).
    pub fn state_name(&self) -> &'static str {
        match self.state {
            State::Ramp => "ramp",
            State::Probe => "probe",
            State::ProbeHold => "probe-hold",
            State::Decay => "decay",
            State::Stay => "stay",
            State::Fall => "fall",
        }
    }

    /// Adjust the encoder media ceiling (pinned Zoom senders push ~1 Mbps
    /// regardless of call size, §6.2).
    pub fn set_media_max(&mut self, media_max_mbps: f64) {
        self.cfg.media_max_mbps = media_max_mbps.max(0.1);
    }

    /// The controller's notion of nominal total rate.
    pub fn nominal_mbps(&self) -> f64 {
        match self.capacity_estimate {
            Some(cap) => cap.min(self.cfg.nominal_mbps()),
            None => self.cfg.nominal_mbps(),
        }
    }

    fn enter(&mut self, state: State, now: SimTime) {
        if state == State::Probe && self.state != State::Probe {
            self.pre_probe_target = self.target;
            self.probe_steps = 0;
        }
        self.state = state;
        self.state_since = now;
        self.last_step_at = now;
    }
}

impl RateController for FbraController {
    fn on_report(&mut self, r: &FeedbackReport) {
        let dt = self
            .last_report
            .map(|t| r.now.saturating_since(t).as_secs_f64())
            .unwrap_or(0.1)
            .clamp(0.0, 1.0);
        self.last_report = Some(r.now);

        self.loss_ema = 0.8 * self.loss_ema + 0.2 * r.loss_fraction;
        // Severity bookkeeping.
        if r.loss_fraction < 0.02 {
            self.clean_reports += 1;
            self.lossy_reports = 0;
        } else {
            self.clean_reports = 0;
            if r.loss_fraction > 0.05 {
                self.lossy_reports += 1;
            }
        }

        // A collapse pre-empts every state: track the delivered rate, as the
        // paper observes Zoom doing during the disruption window. A collapse
        // is heavy *sustained* loss with a receive rate far below the send
        // rate — a competitor joining the queue causes loss too, but delivery
        // stays near the send rate, and Zoom must not reset in that case (it
        // holds its ground; Fig 8c/9a).
        if r.loss_fraction > 0.40 && r.receive_rate_mbps < 0.45 * self.target {
            self.collapse_reports += 1;
        } else {
            self.collapse_reports = 0;
        }
        if self.collapse_reports >= 3 && self.state != State::Fall {
            self.capacity_estimate = Some(r.receive_rate_mbps.max(self.cfg.min_mbps));
            self.target = (r.receive_rate_mbps * 0.95).max(self.cfg.min_mbps);
            self.recovering = true;
            self.enter(State::Fall, r.now);
        }

        match self.state {
            State::Fall => {
                if r.loss_fraction > 0.15 {
                    // Keep following the link down.
                    self.target = (r.receive_rate_mbps * 0.95).max(self.cfg.min_mbps);
                } else if self.clean_reports >= 3 {
                    // Link healed (or we reached the new capacity): climb.
                    self.enter(State::Ramp, r.now);
                }
            }
            State::Ramp => {
                if self.lossy_reports >= 2 {
                    // Capacity found during the climb. Two consecutive lossy
                    // reports are required (as in Probe): a single noisy
                    // report under low *random* loss — which FEC repairs —
                    // must not anchor the target below nominal.
                    self.capacity_estimate = Some(r.receive_rate_mbps.max(self.cfg.min_mbps));
                    self.target = (r.receive_rate_mbps * 0.97).max(self.cfg.min_mbps);
                    self.enter(State::Stay, r.now);
                } else {
                    self.target += self.cfg.ramp_mbps_per_s * dt;
                    // After a disruption, switch to the stepwise probing the
                    // paper shows in Fig 4a once at roughly half of nominal.
                    // The *initial* call ramp instead climbs straight to
                    // nominal (Fig 4a's flat first minute).
                    if self.recovering && self.target >= 0.55 * self.cfg.nominal_mbps() {
                        self.enter(State::Probe, r.now);
                    } else if !self.recovering && self.target >= self.cfg.nominal_mbps() {
                        self.target = self.cfg.nominal_mbps();
                        self.last_probe_finished = r.now;
                        self.enter(State::Stay, r.now);
                    }
                }
            }
            State::Probe => {
                if self.lossy_reports >= 2 {
                    self.capacity_estimate = Some(r.receive_rate_mbps.max(self.cfg.min_mbps));
                    // A probe that hit loss before reaching the ceiling found
                    // a full link: put the target back where it was (minus a
                    // nudge) rather than re-anchor to the inflated
                    // during-probe receive rate — otherwise every failed
                    // probe ratchets competing flows toward equality and
                    // erases the incumbent advantage. Post-disruption
                    // recoveries still keep their gains: the recovery climb
                    // itself raised `pre_probe_target`.
                    self.target = if self.recovering {
                        (r.receive_rate_mbps * 0.97)
                            .min(self.cfg.nominal_mbps())
                            .max(self.cfg.min_mbps)
                    } else {
                        (self.pre_probe_target * 0.97).max(self.cfg.min_mbps)
                    };
                    self.last_probe_finished = r.now;
                    self.enter(State::Stay, r.now);
                } else if r.now.saturating_since(self.last_step_at) >= self.cfg.probe_hold {
                    self.target += self.cfg.probe_step_mbps;
                    self.probe_steps += 1;
                    self.last_step_at = r.now;
                    if self.target >= self.cfg.probe_ceiling_mbps() {
                        self.target = self.cfg.probe_ceiling_mbps();
                        self.recovering = false;
                        self.enter(State::ProbeHold, r.now);
                    }
                }
            }
            State::ProbeHold => {
                if self.lossy_reports >= 2 {
                    self.capacity_estimate = Some(r.receive_rate_mbps.max(self.cfg.min_mbps));
                    self.target = (r.receive_rate_mbps * 0.97)
                        .min(self.cfg.nominal_mbps())
                        .max(self.cfg.min_mbps);
                    self.last_probe_finished = r.now;
                    self.enter(State::Stay, r.now);
                } else if r.now.saturating_since(self.state_since) >= self.cfg.post_probe_hold {
                    // No capacity ceiling found: the link is open.
                    self.capacity_estimate = None;
                    self.enter(State::Decay, r.now);
                }
            }
            State::Decay => {
                self.target -= self.cfg.decay_mbps_per_s * dt;
                if self.target <= self.nominal_mbps() {
                    self.target = self.nominal_mbps();
                    self.last_probe_finished = r.now;
                    self.enter(State::Stay, r.now);
                }
            }
            State::Stay => {
                // Reluctant *multiplicative* yield under moderate sustained
                // loss, and multiplicative creep when clean: both preserve
                // the ratio between competing Zoom flows, which is what makes
                // the incumbent advantage of Fig 9a persist (no AIMD-style
                // convergence to fairness). Decisions use the smoothed loss.
                if self.loss_ema > 0.12 {
                    // Yield only when loss exceeds what FEC repairs — losses
                    // the redundancy covers don't degrade Zoom's video, so
                    // its controller ignores them. This tolerance is the core
                    // of Zoom's aggressiveness against competing traffic
                    // (§5: ≥75 % of the link against VCAs, TCP, and Netflix).
                    // The yield stays multiplicative (ratio-preserving).
                    let yield_per_s = 0.05 + 0.4 * (self.loss_ema - 0.12).max(0.0);
                    self.target *= 1.0 - yield_per_s * dt;
                    self.capacity_estimate = Some(
                        self.capacity_estimate
                            .map(|c| 0.9 * c + 0.1 * r.receive_rate_mbps)
                            .unwrap_or(r.receive_rate_mbps),
                    );
                } else if self.loss_ema < 0.05 {
                    // Loss at or below the steady FEC budget is repaired
                    // transparently, so the controller treats the link as
                    // clean — random loss of a couple percent must not park
                    // the target in a dead zone below nominal.
                    // A post-disruption recovery that reached Stay early
                    // (Zoom tracks the constrained link cleanly, so Fall
                    // exits during the disruption) still owes the stepwise
                    // probe of Fig 4a once it has climbed halfway back.
                    if self.recovering && self.target >= 0.55 * self.cfg.nominal_mbps() {
                        self.enter(State::Probe, r.now);
                        return;
                    }
                    // A clean link slowly restores confidence: the capacity
                    // estimate drifts upward so a constraint that has lifted
                    // is eventually rediscovered even between probes.
                    if let Some(cap) = self.capacity_estimate.as_mut() {
                        *cap *= 1.0 + 0.01 * dt;
                    }
                    // Creep back toward nominal, strictly proportionally.
                    // Both the loss yield above and this creep must preserve
                    // the *ratio* between competing Zoom flows: an additive
                    // floor here (tried earlier) turns the yield/creep cycle
                    // into AIMD, which converges to fairness and erases the
                    // incumbent advantage of Fig 9a (the paper's incumbent
                    // holds ~75 % for the whole competition). The creep aims
                    // at the configured nominal, not at the remembered
                    // capacity estimate: when the path is clean, Zoom
                    // re-contests bandwidth and lets loss (beyond FEC) be the
                    // brake. The estimate only schedules re-probes.
                    if self.target < self.cfg.nominal_mbps() {
                        let step = 0.04 * self.target * dt;
                        self.target = (self.target + step).min(self.cfg.nominal_mbps());
                    }
                    // Spontaneous re-probe to test whether a previously
                    // discovered ceiling has lifted (Fig 13's burst against
                    // iPerf3). On a link where no ceiling was ever found the
                    // controller has nothing to test and stays at nominal
                    // (Table 2's flat 0.78 Mbps average).
                    let reprobe = self
                        .cfg
                        .reprobe_after
                        .mul_f64(self.cfg.reprobe_jitter.max(0.1));
                    if self.capacity_estimate.is_some()
                        && r.now.saturating_since(self.last_probe_finished) >= reprobe
                        && r.now.saturating_since(self.state_since) >= reprobe / 2
                    {
                        self.enter(State::Probe, r.now);
                    }
                }
            }
        }

        self.target = self.target.clamp(
            self.min_bound,
            self.max_bound.min(self.cfg.probe_ceiling_mbps()),
        );
        debug_assert!(
            self.target.is_finite() && self.target >= self.min_bound,
            "FBRA target {} below floor {}",
            self.target,
            self.min_bound
        );
        debug_assert!(
            self.target <= self.max_bound.min(self.cfg.probe_ceiling_mbps()),
            "FBRA target {} above ceiling {}",
            self.target,
            self.max_bound.min(self.cfg.probe_ceiling_mbps())
        );
        debug_assert!(
            (0.0..1.0).contains(&self.fec_fraction()),
            "FBRA FEC fraction {} outside [0, 1)",
            self.fec_fraction()
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

    fn fec_fraction(&self) -> f64 {
        // Media is capped at the encoder ceiling; everything above it is FEC,
        // with at least the steady-state overhead always present.
        let media = (self.target / (1.0 + self.cfg.steady_fec)).min(self.cfg.media_max_mbps);
        if self.target <= 0.0 {
            0.0
        } else {
            ((self.target - media) / self.target).clamp(0.0, 0.95)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticLink;

    const DT: SimDuration = SimDuration::from_millis(100);

    fn drive(
        cc: &mut FbraController,
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
    fn settles_at_nominal_on_open_link() {
        let cfg = FbraConfig::default();
        let nominal = cfg.nominal_mbps();
        let mut cc = FbraController::new(cfg);
        let mut link = SyntheticLink::new(1000.0);
        let rates = drive(&mut cc, &mut link, 0, 240);
        let last = *rates.last().unwrap();
        assert!(
            (last - nominal).abs() < 0.05,
            "expected nominal {nominal}, got {last}"
        );
        // The *initial* ramp must NOT run the stepwise probe: the paper's
        // Fig 4a shows a flat first minute at nominal. (The probe overshoot
        // is exercised by the disruption-recovery test.)
        let peak = rates.iter().cloned().fold(0.0, f64::max);
        assert!(peak <= nominal * 1.1, "initial ramp overshot: peak {peak}");
    }

    #[test]
    fn tracks_constrained_capacity_efficiently() {
        let mut cc = FbraController::new(FbraConfig::default());
        let mut link = SyntheticLink::new(0.5);
        let rates = drive(&mut cc, &mut link, 0, 150);
        let late = &rates[rates.len() - 300..];
        let avg: f64 = late.iter().sum::<f64>() / late.len() as f64;
        assert!(
            avg > 0.40 && avg < 0.60,
            "should utilize >80% of a 0.5 Mbps link, got {avg}"
        );
    }

    #[test]
    fn disruption_recovery_is_stepwise_and_slow() {
        let cfg = FbraConfig::default();
        let nominal = cfg.nominal_mbps();
        let mut cc = FbraController::new(cfg);
        let mut link = SyntheticLink::new(1000.0);
        drive(&mut cc, &mut link, 0, 240); // settle
        link.capacity_mbps = 0.25;
        drive(&mut cc, &mut link, 240, 270); // 30 s disruption
        assert!(
            cc.target_mbps() < 0.3,
            "should track the collapsed link, at {}",
            cc.target_mbps()
        );
        link.capacity_mbps = 1000.0;
        let rec = drive(&mut cc, &mut link, 270, 470);
        let t_nominal = rec
            .iter()
            .position(|&r| r >= nominal)
            .map(|i| i as f64 * 0.1)
            .expect("must eventually recover");
        assert!(
            t_nominal > 15.0,
            "severe recovery should be slow, took {t_nominal}s"
        );
        // Overshoot after recovery (probing above nominal).
        let peak = rec.iter().cloned().fold(0.0, f64::max);
        assert!(peak > nominal * 1.15, "peak {peak}");
        // And eventually settles back to nominal.
        let last = *rec.last().unwrap();
        assert!((last - nominal).abs() < 0.08, "settled at {last}");
    }

    #[test]
    fn incumbent_beats_newcomer() {
        // Fig 9a: Zoom is not even fair to itself.
        let mut a = FbraController::new(FbraConfig {
            reprobe_jitter: 0.9,
            ..FbraConfig::default()
        });
        let mut b = FbraController::new(FbraConfig {
            reprobe_jitter: 1.3,
            ..FbraConfig::default()
        });
        let mut link = SyntheticLink::new(0.5);
        // Incumbent converges alone for 60 s.
        for i in 0..600 {
            let now = SimTime::from_millis(i * 100);
            let fb = link.step(now, a.target_mbps(), DT);
            a.on_report(&fb);
        }
        // Competitor joins for 120 s.
        let mut a_sum = 0.0;
        let mut b_sum = 0.0;
        for i in 600..1800 {
            let now = SimTime::from_millis(i * 100);
            let fbs = link.step_shared(now, &[a.target_mbps(), b.target_mbps()], DT);
            a.on_report(&fbs[0]);
            b.on_report(&fbs[1]);
            if i > 1200 {
                a_sum += a.target_mbps();
                b_sum += b.target_mbps();
            }
        }
        let share = a_sum / (a_sum + b_sum);
        assert!(share > 0.6, "incumbent Zoom should dominate, share {share}");
    }

    #[test]
    fn fec_fraction_rises_when_probing() {
        // Probing (and its FEC boost) only happens after a disruption; the
        // initial ramp goes straight to nominal with steady FEC.
        let cfg = FbraConfig::default();
        let mut cc = FbraController::new(cfg.clone());
        let mut link = SyntheticLink::new(1000.0);
        drive(&mut cc, &mut link, 0, 120);
        let steady = cfg.steady_fec / (1.0 + cfg.steady_fec);
        assert!(
            (cc.fec_fraction() - steady).abs() < 0.05,
            "pre-disruption FEC {} vs steady {steady}",
            cc.fec_fraction()
        );
        // Disrupt and restore: the recovery probe boosts FEC well above
        // the steady overhead.
        link.capacity_mbps = 0.25;
        drive(&mut cc, &mut link, 120, 150);
        link.capacity_mbps = 1000.0;
        let mut max_fec: f64 = 0.0;
        for i in 1500..3500 {
            let now = SimTime::from_millis(i * 100);
            let fb = link.step(now, cc.target_mbps(), DT);
            cc.on_report(&fb);
            max_fec = max_fec.max(cc.fec_fraction());
        }
        assert!(
            max_fec > steady + 0.1,
            "recovery probing must boost FEC, max {max_fec}"
        );
        // And it settles back to steady afterwards.
        assert!(
            (cc.fec_fraction() - steady).abs() < 0.05,
            "post-probe FEC {} vs steady {steady}",
            cc.fec_fraction()
        );
    }

    #[test]
    fn set_bounds_respected() {
        let mut cc = FbraController::new(FbraConfig::default());
        cc.set_bounds(0.1, 0.3);
        let mut link = SyntheticLink::new(1000.0);
        let rates = drive(&mut cc, &mut link, 0, 60);
        assert!(rates.iter().all(|&r| r <= 0.3 + 1e-9));
    }
}
