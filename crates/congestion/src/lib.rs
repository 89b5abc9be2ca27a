//! # vcabench-congestion
//!
//! Rate controllers for real-time media, one per VCA studied in the paper:
//!
//! | VCA   | Controller | Basis |
//! |-------|-----------|-------|
//! | Meet  | [`GccController`] | Google Congestion Control (delay-gradient + loss bound), per Carlucci et al. and the WebRTC implementation Meet runs in Chrome |
//! | Zoom  | [`FbraController`] | FEC-based probing in the style of FBRA (Nagy et al.), matching the stepwise ramps, above-nominal probing, and competition aggressiveness the paper measures |
//! | Teams | [`TeamsController`] | conservative loss-based control with sharp backoff and a slow-then-fast recovery, matching Figs 4–6 and Teams' passivity in §5 |
//!
//! All controllers consume the same [`FeedbackReport`] stream and expose the
//! [`RateController`] trait; [`synthetic::SyntheticLink`] provides a
//! closed-form bottleneck for studying them in isolation.
//!
//! Each controller's tuning is constants of its module ([`gcc::BETA`],
//! [`fbra::PROBE_HOLD`], [`teams::LOSS_THRESHOLD`], …), and so is every
//! other number in this crate. Each constant's doc ends in one tag saying
//! where its value comes from: `paper:` (the measurement paper's own
//! number), `published:` (the module's cited algorithm), `fitted:` (chosen
//! to reproduce the named figure or table, or `unattributed` when no
//! repository text ties it to one) or `engineering:` (a floor, clamp or
//! placeholder with no behavioural claim). A
//! controller's config holds only what a sender chooses: [`GccConfig`] Meet's encoder ceiling,
//! [`FbraConfig`] a per-client re-probe jitter, [`TeamsConfig`] the six
//! values Teams-in-Chrome sets apart from the native client. What changes
//! during a call (the bounds of [`RateController::set_bounds`],
//! [`FbraController::set_media_max`], [`TeamsController::set_nominal`]) is
//! controller state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fbra;
pub mod feedback;
pub mod gcc;
pub mod synthetic;
pub mod teams;

pub use fbra::{FbraConfig, FbraController};
pub use feedback::{FeedbackReport, RateController};
pub use gcc::{GccConfig, GccController};
pub use synthetic::SyntheticLink;
pub use teams::{TeamsConfig, TeamsController};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use vcabench_simcore::{SimDuration, SimRng, SimTime};

    fn arbitrary_report(i: u64, loss: f64, rate: f64, owd: f64) -> FeedbackReport {
        FeedbackReport {
            now: SimTime::from_millis(i * 100),
            loss_fraction: loss,
            receive_rate_mbps: rate,
            one_way_delay_ms: owd,
            rtt: SimDuration::from_millis(40),
        }
    }

    proptest! {
        /// Every controller's target stays within its configured bounds no
        /// matter what feedback it ingests.
        #[test]
        fn targets_respect_bounds(
            losses in proptest::collection::vec(0.0f64..0.8, 50..150),
            rates in proptest::collection::vec(0.01f64..5.0, 50..150),
            owds in proptest::collection::vec(5.0f64..400.0, 50..150),
        ) {
            let mut rng = SimRng::seed_from_u64(1);
            let mut ctrls: Vec<Box<dyn RateController>> = vec![
                Box::new(GccController::new(GccConfig::default())),
                Box::new(FbraController::new(FbraConfig::default())),
                Box::new(TeamsController::new(TeamsConfig::default(), &mut rng)),
            ];
            for c in ctrls.iter_mut() {
                c.set_bounds(0.05, 3.0);
            }
            let n = losses.len().min(rates.len()).min(owds.len());
            for i in 0..n {
                for c in ctrls.iter_mut() {
                    c.on_report(&arbitrary_report(i as u64, losses[i], rates[i], owds[i]));
                    let t = c.target_mbps();
                    prop_assert!((0.05..=3.0).contains(&t), "target {t} out of bounds");
                    prop_assert!(t.is_finite());
                    let f = c.fec_fraction();
                    prop_assert!((0.0..1.0).contains(&f), "fec fraction {f}");
                }
            }
        }

        /// The synthetic link conserves sanity: loss in [0,1], delivery never
        /// exceeds capacity, delay includes the base.
        #[test]
        fn synthetic_link_invariants(sends in proptest::collection::vec(0.0f64..10.0, 1..100)) {
            let mut link = SyntheticLink::new(1.0);
            for (i, &s) in sends.iter().enumerate() {
                let fb = link.step(SimTime::from_millis(i as u64 * 100), s, SimDuration::from_millis(100));
                prop_assert!((0.0..=1.0).contains(&fb.loss_fraction));
                prop_assert!(fb.receive_rate_mbps <= 1.0 + 1e-9);
                prop_assert!(fb.one_way_delay_ms >= link.base_owd_ms - 1e-9);
            }
        }
    }
}

#[cfg(test)]
mod cross_tests {
    //! Cross-controller comparisons that encode the paper's rankings.
    use super::*;
    use vcabench_simcore::{SimDuration, SimRng, SimTime};

    const DT: SimDuration = SimDuration::from_millis(100);

    fn drive(
        cc: &mut dyn RateController,
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

    /// Time (s) from restoration until the controller regains 90 % of its
    /// pre-disruption rate.
    fn recovery_secs(cc: &mut dyn RateController, sev_mbps: f64) -> f64 {
        let mut link = SyntheticLink::new(1000.0);
        drive(cc, &mut link, 0, 240);
        let before = cc.target_mbps();
        link.capacity_mbps = sev_mbps;
        drive(cc, &mut link, 240, 270);
        link.capacity_mbps = 1000.0;
        let rec = drive(cc, &mut link, 270, 470);
        rec.iter()
            .position(|&v| v >= 0.9 * before)
            .map(|i| i as f64 * 0.1)
            .unwrap_or(f64::INFINITY)
    }

    #[test]
    fn all_controllers_take_long_to_recover_from_severe_drop() {
        // §4 headline: "all VCAs take at least 20 seconds to recover from
        // severe uplink drops to 0.25 Mbps". At controller level we check
        // all are slow (>10 s) and finite.
        let mut rng = SimRng::seed_from_u64(42);
        let mut meet = GccController::new(GccConfig { max_mbps: 0.96 });
        let mut zoom = FbraController::new(FbraConfig::default());
        let mut teams = TeamsController::new(TeamsConfig::default(), &mut rng);
        let t_meet = recovery_secs(&mut meet, 0.25);
        let t_zoom = recovery_secs(&mut zoom, 0.25);
        let t_teams = recovery_secs(&mut teams, 0.25);
        for (name, t) in [("meet", t_meet), ("zoom", t_zoom), ("teams", t_teams)] {
            assert!(t.is_finite(), "{name} never recovered");
            assert!(t > 10.0, "{name} recovered implausibly fast: {t}s");
        }
        // Teams' nominal is the highest, so it has the most ground to cover.
        assert!(t_teams > t_meet, "teams {t_teams} vs meet {t_meet}");
    }

    #[test]
    fn zoom_dominates_meet_under_competition() {
        // Fig 8a: an incumbent Meet backs off when Zoom joins.
        let mut meet = GccController::new(GccConfig { max_mbps: 0.96 });
        let mut zoom = FbraController::new(FbraConfig::default());
        let mut link = SyntheticLink::new(0.5);
        for i in 0..600 {
            let now = SimTime::from_millis(i * 100);
            let fb = link.step(now, meet.target_mbps(), DT);
            meet.on_report(&fb);
        }
        let mut meet_sum = 0.0;
        let mut zoom_sum = 0.0;
        for i in 600..2400 {
            let now = SimTime::from_millis(i * 100);
            let fbs = link.step_shared(now, &[meet.target_mbps(), zoom.target_mbps()], DT);
            meet.on_report(&fbs[0]);
            zoom.on_report(&fbs[1]);
            if i > 1800 {
                meet_sum += meet.target_mbps();
                zoom_sum += zoom.target_mbps();
            }
        }
        let zoom_share = zoom_sum / (zoom_sum + meet_sum);
        assert!(
            zoom_share > 0.5,
            "Zoom must win against delay-based Meet even as newcomer: {zoom_share}"
        );
    }

    #[test]
    fn nominal_rate_ordering_matches_table2() {
        // Teams > Meet ≈ Zoom on an open link.
        let mut rng = SimRng::seed_from_u64(7);
        let mut meet = GccController::new(GccConfig { max_mbps: 0.96 });
        let mut zoom = FbraController::new(FbraConfig::default());
        let mut teams = TeamsController::new(TeamsConfig::default(), &mut rng);
        let mut l1 = SyntheticLink::new(1000.0);
        let mut l2 = SyntheticLink::new(1000.0);
        let mut l3 = SyntheticLink::new(1000.0);
        let m = drive(&mut meet, &mut l1, 0, 240);
        let z = drive(&mut zoom, &mut l2, 0, 240);
        let t = drive(&mut teams, &mut l3, 0, 240);
        let avg = |v: &[f64]| v[v.len() - 300..].iter().sum::<f64>() / 300.0;
        let (am, az, at) = (avg(&m), avg(&z), avg(&t));
        assert!(at > am && at > az, "Teams highest: t={at} m={am} z={az}");
        assert!((am - 0.96).abs() < 0.15, "Meet ~0.96: {am}");
        assert!((az - 0.78).abs() < 0.15, "Zoom ~0.78: {az}");
    }
}
