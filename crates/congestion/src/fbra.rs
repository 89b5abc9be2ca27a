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
//!
//! A constant's `fitted:` tag names the figure the bullets above, or a
//! comment at its use, credit it with. No value is FBRA's own: the paper
//! describes Zoom's behaviour, not its constants.

use vcabench_simcore::{SimDuration, SimTime};

use crate::feedback::{interval_s, FeedbackReport, RateController};

/// Initial target, Mbps.
/// fitted: unattributed.
pub const START_MBPS: f64 = 0.15;
/// Floor, Mbps, until [`RateController::set_bounds`] moves it.
/// engineering: a floor for the target.
pub const MIN_MBPS: f64 = 0.05;
/// Encoder ceiling for the media payload, Mbps (720p talking head), until
/// [`FbraController::set_media_max`] moves it.
/// fitted: Table 2, Zoom's flat 0.78 Mbps on an open link.
pub const MEDIA_MAX_MBPS: f64 = 0.68;
/// Lowest media ceiling [`FbraController::set_media_max`] accepts, Mbps.
/// engineering: a floor for the ceiling.
pub const MEDIA_MAX_FLOOR_MBPS: f64 = 0.1;
/// FEC overhead fraction in steady state (Zoom's relay adds ~15–25 %,
/// §3.1 asymmetry analysis).
/// fitted: Table 2, with [`MEDIA_MAX_MBPS`] the nominal total rate.
pub const STEADY_FEC: f64 = 0.05;
/// Maximum FEC overhead fraction while probing.
/// fitted: Fig 4a, the overshoot above nominal.
pub const PROBE_FEC_MAX: f64 = 0.60;
/// Largest FEC fraction [`RateController::fec_fraction`] reports.
/// engineering: keeps the fraction below 1.
pub const FEC_FRACTION_MAX: f64 = 0.95;
/// Linear ramp slope right after a disruption, Mbps/s.
/// fitted: Fig 4a.
pub const RAMP_MBPS_PER_S: f64 = 0.035;
/// Share of the nominal rate at which a post-disruption climb turns into
/// the stepwise probe.
/// fitted: Fig 4a.
pub const PROBE_FROM_NOMINAL: f64 = 0.55;
/// Rate step added at each probe increment, Mbps.
/// fitted: Fig 4a.
pub const PROBE_STEP_MBPS: f64 = 0.10;
/// Hold time between probe increments.
/// fitted: Fig 4a.
pub const PROBE_HOLD: SimDuration = SimDuration::from_secs(6);
/// How long to stay at the probe ceiling before decaying.
/// fitted: Fig 4a.
pub const POST_PROBE_HOLD: SimDuration = SimDuration::from_secs(40);
/// Decay slope back to nominal after probing, Mbps/s.
/// fitted: Fig 4a.
pub const DECAY_MBPS_PER_S: f64 = 0.02;
/// Interval between spontaneous re-probes in steady state, before
/// [`FbraConfig::reprobe_jitter`] scales it.
/// fitted: Fig 13.
pub const REPROBE_AFTER: SimDuration = SimDuration::from_secs(90);
/// Smallest [`FbraConfig::reprobe_jitter`] honoured.
/// engineering: keeps the re-probe interval positive.
pub const JITTER_FLOOR: f64 = 0.1;
/// Weight of the newest report in the smoothed loss fraction.
/// fitted: Fig 9a, the incumbent advantage between Zoom flows.
pub const LOSS_EMA_GAIN: f64 = 0.2;
/// A report with less loss than this is clean.
/// fitted: unattributed.
pub const CLEAN_LOSS: f64 = 0.02;
/// A report with more loss than this is lossy; in steady state, smoothed
/// loss below it is what the steady FEC repairs and counts as clean.
/// fitted: unattributed.
pub const LOSSY_LOSS: f64 = 0.05;
/// Consecutive lossy reports that mean a capacity was found: a single
/// noisy report under low *random* loss, which FEC repairs, must not anchor
/// the target below nominal.
/// fitted: unattributed.
pub const LOSSY_REPORTS: u32 = 2;
/// Loss fraction above which a report may count toward a collapse.
/// fitted: Fig 8c, a competitor's join is no collapse.
pub const COLLAPSE_LOSS: f64 = 0.40;
/// Delivered share of the target below which a lossy report counts toward
/// a collapse.
/// fitted: Fig 8c, a competitor's join is no collapse.
pub const COLLAPSE_DELIVERY: f64 = 0.45;
/// While falling, the target is this share of the receive rate.
/// fitted: Fig 1a, tracking a constrained link closely.
pub const FALL_TRACK: f64 = 0.95;
/// Loss fraction above which a fall keeps following the link down.
/// fitted: Fig 1a.
pub const FALL_LOSS: f64 = 0.15;
/// Share of the receive rate (or, after a failed probe, of the pre-probe
/// target) the target backs off to once a capacity is found.
/// fitted: unattributed.
pub const BACKOFF: f64 = 0.97;
/// Smoothed loss above which the steady state yields rate.
/// fitted: Fig 8, Zoom's aggressiveness under competition.
pub const YIELD_LOSS: f64 = 0.12;
/// Yield per second at [`YIELD_LOSS`].
/// fitted: Fig 8.
pub const YIELD_BASE_PER_S: f64 = 0.05;
/// Extra yield per second per unit of smoothed loss above [`YIELD_LOSS`].
/// fitted: Fig 8.
pub const YIELD_SLOPE: f64 = 0.4;
/// Weight of the newest receive rate in the capacity estimate while
/// yielding.
/// fitted: unattributed.
pub const CAPACITY_EMA_GAIN: f64 = 0.1;
/// Upward drift per second of the capacity estimate on a clean link.
/// fitted: unattributed.
pub const CAPACITY_DRIFT_PER_S: f64 = 0.01;
/// Proportional creep per second back toward nominal on a clean link.
/// fitted: Fig 9a, the incumbent advantage between Zoom flows.
pub const CREEP_PER_S: f64 = 0.04;

/// What an [`FbraController`]'s sender chooses: its re-probe jitter.
#[derive(Debug, Clone, PartialEq)]
pub struct FbraConfig {
    /// Multiplier on [`REPROBE_AFTER`] for this instance. Give each client a
    /// different jitter (e.g. drawn from the experiment RNG) so concurrent
    /// Zoom flows do not probe in lockstep — synchronized probing is a
    /// simulation artifact real deployments do not exhibit.
    pub reprobe_jitter: f64,
}

impl Default for FbraConfig {
    fn default() -> Self {
        FbraConfig {
            reprobe_jitter: 1.0,
        }
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
    /// Re-probe interval, [`REPROBE_AFTER`] scaled by the configured jitter.
    reprobe_after: SimDuration,
    /// Encoder media ceiling, Mbps: [`MEDIA_MAX_MBPS`] until
    /// [`FbraController::set_media_max`] moves it.
    media_max_mbps: f64,
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
            reprobe_after: REPROBE_AFTER.mul_f64(cfg.reprobe_jitter.max(JITTER_FLOOR)),
            media_max_mbps: MEDIA_MAX_MBPS,
            state: State::Ramp,
            target: START_MBPS,
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
            min_bound: MIN_MBPS,
            max_bound: f64::INFINITY,
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
        self.media_max_mbps = media_max_mbps.max(MEDIA_MAX_FLOOR_MBPS);
    }

    /// Nominal steady-state total rate (media ceiling + steady FEC).
    fn configured_nominal_mbps(&self) -> f64 {
        self.media_max_mbps * (1.0 + STEADY_FEC)
    }

    /// Probe ceiling (media ceiling + maximum FEC).
    fn probe_ceiling_mbps(&self) -> f64 {
        self.media_max_mbps * (1.0 + PROBE_FEC_MAX)
    }

    /// The controller's notion of nominal total rate: the media ceiling
    /// plus steady FEC, or less once loss has revealed a smaller capacity.
    pub fn nominal_mbps(&self) -> f64 {
        match self.capacity_estimate {
            Some(cap) => cap.min(self.configured_nominal_mbps()),
            None => self.configured_nominal_mbps(),
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
        let dt = interval_s(&mut self.last_report, r.now);

        self.loss_ema = (1.0 - LOSS_EMA_GAIN) * self.loss_ema + LOSS_EMA_GAIN * r.loss_fraction;
        // Severity bookkeeping.
        if r.loss_fraction < CLEAN_LOSS {
            self.clean_reports += 1;
            self.lossy_reports = 0;
        } else {
            self.clean_reports = 0;
            if r.loss_fraction > LOSSY_LOSS {
                self.lossy_reports += 1;
            }
        }

        // A collapse pre-empts every state: track the delivered rate, as the
        // paper observes Zoom doing during the disruption window. A collapse
        // is heavy *sustained* loss with a receive rate far below the send
        // rate — a competitor joining the queue causes loss too, but delivery
        // stays near the send rate, and Zoom must not reset in that case (it
        // holds its ground; Fig 8c/9a).
        if r.loss_fraction > COLLAPSE_LOSS && r.receive_rate_mbps < COLLAPSE_DELIVERY * self.target
        {
            self.collapse_reports += 1;
        } else {
            self.collapse_reports = 0;
        }
        if self.collapse_reports >= 3 && self.state != State::Fall {
            self.capacity_estimate = Some(r.receive_rate_mbps.max(MIN_MBPS));
            self.target = (r.receive_rate_mbps * FALL_TRACK).max(MIN_MBPS);
            self.recovering = true;
            self.enter(State::Fall, r.now);
        }

        match self.state {
            State::Fall => {
                if r.loss_fraction > FALL_LOSS {
                    // Keep following the link down.
                    self.target = (r.receive_rate_mbps * FALL_TRACK).max(MIN_MBPS);
                } else if self.clean_reports >= 3 {
                    // Link healed (or we reached the new capacity): climb.
                    self.enter(State::Ramp, r.now);
                }
            }
            State::Ramp => {
                if self.lossy_reports >= LOSSY_REPORTS {
                    // Capacity found during the climb.
                    self.capacity_estimate = Some(r.receive_rate_mbps.max(MIN_MBPS));
                    self.target = (r.receive_rate_mbps * BACKOFF).max(MIN_MBPS);
                    self.enter(State::Stay, r.now);
                } else {
                    self.target += RAMP_MBPS_PER_S * dt;
                    // After a disruption, switch to the stepwise probing the
                    // paper shows in Fig 4a once at roughly half of nominal.
                    // The *initial* call ramp instead climbs straight to
                    // nominal (Fig 4a's flat first minute).
                    if self.recovering
                        && self.target >= PROBE_FROM_NOMINAL * self.configured_nominal_mbps()
                    {
                        self.enter(State::Probe, r.now);
                    } else if !self.recovering && self.target >= self.configured_nominal_mbps() {
                        self.target = self.configured_nominal_mbps();
                        self.last_probe_finished = r.now;
                        self.enter(State::Stay, r.now);
                    }
                }
            }
            State::Probe => {
                if self.lossy_reports >= LOSSY_REPORTS {
                    self.capacity_estimate = Some(r.receive_rate_mbps.max(MIN_MBPS));
                    // A probe that hit loss before reaching the ceiling found
                    // a full link: put the target back where it was (minus a
                    // nudge) rather than re-anchor to the inflated
                    // during-probe receive rate — otherwise every failed
                    // probe ratchets competing flows toward equality and
                    // erases the incumbent advantage. Post-disruption
                    // recoveries still keep their gains: the recovery climb
                    // itself raised `pre_probe_target`.
                    self.target = if self.recovering {
                        (r.receive_rate_mbps * BACKOFF)
                            .min(self.configured_nominal_mbps())
                            .max(MIN_MBPS)
                    } else {
                        (self.pre_probe_target * BACKOFF).max(MIN_MBPS)
                    };
                    self.last_probe_finished = r.now;
                    self.enter(State::Stay, r.now);
                } else if r.now.saturating_since(self.last_step_at) >= PROBE_HOLD {
                    self.target += PROBE_STEP_MBPS;
                    self.probe_steps += 1;
                    self.last_step_at = r.now;
                    if self.target >= self.probe_ceiling_mbps() {
                        self.target = self.probe_ceiling_mbps();
                        self.recovering = false;
                        self.enter(State::ProbeHold, r.now);
                    }
                }
            }
            State::ProbeHold => {
                if self.lossy_reports >= LOSSY_REPORTS {
                    self.capacity_estimate = Some(r.receive_rate_mbps.max(MIN_MBPS));
                    self.target = (r.receive_rate_mbps * BACKOFF)
                        .min(self.configured_nominal_mbps())
                        .max(MIN_MBPS);
                    self.last_probe_finished = r.now;
                    self.enter(State::Stay, r.now);
                } else if r.now.saturating_since(self.state_since) >= POST_PROBE_HOLD {
                    // No capacity ceiling found: the link is open.
                    self.capacity_estimate = None;
                    self.enter(State::Decay, r.now);
                }
            }
            State::Decay => {
                self.target -= DECAY_MBPS_PER_S * dt;
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
                if self.loss_ema > YIELD_LOSS {
                    // Yield only when loss exceeds what FEC repairs — losses
                    // the redundancy covers don't degrade Zoom's video, so
                    // its controller ignores them. This tolerance is the core
                    // of Zoom's aggressiveness against competing traffic
                    // (§5: ≥75 % of the link against VCAs, TCP, and Netflix).
                    // The yield stays multiplicative (ratio-preserving).
                    let yield_per_s =
                        YIELD_BASE_PER_S + YIELD_SLOPE * (self.loss_ema - YIELD_LOSS).max(0.0);
                    self.target *= 1.0 - yield_per_s * dt;
                    self.capacity_estimate = Some(
                        self.capacity_estimate
                            .map(|c| {
                                (1.0 - CAPACITY_EMA_GAIN) * c
                                    + CAPACITY_EMA_GAIN * r.receive_rate_mbps
                            })
                            .unwrap_or(r.receive_rate_mbps),
                    );
                } else if self.loss_ema < LOSSY_LOSS {
                    // Loss at or below the steady FEC budget is repaired
                    // transparently, so the controller treats the link as
                    // clean — random loss of a couple percent must not park
                    // the target in a dead zone below nominal.
                    // A post-disruption recovery that reached Stay early
                    // (Zoom tracks the constrained link cleanly, so Fall
                    // exits during the disruption) still owes the stepwise
                    // probe of Fig 4a once it has climbed halfway back.
                    if self.recovering
                        && self.target >= PROBE_FROM_NOMINAL * self.configured_nominal_mbps()
                    {
                        self.enter(State::Probe, r.now);
                        return;
                    }
                    // A clean link slowly restores confidence: the capacity
                    // estimate drifts upward so a constraint that has lifted
                    // is eventually rediscovered even between probes.
                    if let Some(cap) = self.capacity_estimate.as_mut() {
                        *cap *= 1.0 + CAPACITY_DRIFT_PER_S * dt;
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
                    if self.target < self.configured_nominal_mbps() {
                        let step = CREEP_PER_S * self.target * dt;
                        self.target = (self.target + step).min(self.configured_nominal_mbps());
                    }
                    // Spontaneous re-probe to test whether a previously
                    // discovered ceiling has lifted (Fig 13's burst against
                    // iPerf3). On a link where no ceiling was ever found the
                    // controller has nothing to test and stays at nominal
                    // (Table 2's flat 0.78 Mbps average).
                    let reprobe = self.reprobe_after;
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
            self.max_bound.min(self.probe_ceiling_mbps()),
        );
        debug_assert!(
            self.target.is_finite() && self.target >= self.min_bound,
            "FBRA target {} below floor {}",
            self.target,
            self.min_bound
        );
        debug_assert!(
            self.target <= self.max_bound.min(self.probe_ceiling_mbps()),
            "FBRA target {} above ceiling {}",
            self.target,
            self.max_bound.min(self.probe_ceiling_mbps())
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
        let media = (self.target / (1.0 + STEADY_FEC)).min(self.media_max_mbps);
        if self.target <= 0.0 {
            0.0
        } else {
            ((self.target - media) / self.target).clamp(0.0, FEC_FRACTION_MAX)
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
        let mut cc = FbraController::new(FbraConfig::default());
        let nominal = cc.nominal_mbps();
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
        let mut cc = FbraController::new(FbraConfig::default());
        let nominal = cc.nominal_mbps();
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
        });
        let mut b = FbraController::new(FbraConfig {
            reprobe_jitter: 1.3,
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
        let mut cc = FbraController::new(FbraConfig::default());
        let mut link = SyntheticLink::new(1000.0);
        drive(&mut cc, &mut link, 0, 120);
        let steady = STEADY_FEC / (1.0 + STEADY_FEC);
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
