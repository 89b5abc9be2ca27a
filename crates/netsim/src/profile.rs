//! Time-varying link rate profiles — the simulator's equivalent of `tc`.
//!
//! The paper shapes the access link with Linux traffic control: static
//! shaping for the capacity sweeps (§3), 30-second transient reductions for
//! the disruption experiments (§4), and symmetric caps for the competition
//! experiments (§5). All of these are piecewise-constant rate schedules,
//! which is exactly what [`RateProfile`] expresses.

use vcabench_simcore::{SimDuration, SimTime};

/// A piecewise-constant schedule of link rates in bits per second.
#[derive(Debug, Clone, PartialEq)]
pub struct RateProfile {
    /// `(from, rate_bps)` steps, sorted by `from`; first entry is at t=0.
    steps: Vec<(SimTime, f64)>,
}

impl RateProfile {
    /// A constant rate for the whole simulation.
    pub fn constant(bps: f64) -> Self {
        assert!(bps > 0.0, "rate must be positive");
        RateProfile {
            steps: vec![(SimTime::ZERO, bps)],
        }
    }

    /// Convenience: constant rate given in Mbps.
    pub fn constant_mbps(mbps: f64) -> Self {
        Self::constant(mbps * 1e6)
    }

    /// Append a step: from `at` onward the rate is `bps`.
    ///
    /// Steps must be added in increasing time order.
    pub fn step(mut self, at: SimTime, bps: f64) -> Self {
        assert!(bps > 0.0, "rate must be positive");
        assert!(
            self.steps.last().map(|&(t, _)| at >= t).unwrap_or(true),
            "steps must be time-ordered"
        );
        if let Some(last) = self.steps.last_mut() {
            if last.0 == at {
                last.1 = bps;
                return self;
            }
        }
        self.steps.push((at, bps));
        self
    }

    /// The paper's disruption profile (§4): run at `nominal_bps`, reduce to
    /// `reduced_bps` during `[start, start+duration)`, then restore.
    pub fn disruption(
        nominal_bps: f64,
        reduced_bps: f64,
        start: SimTime,
        duration: SimDuration,
    ) -> Self {
        Self::constant(nominal_bps)
            .step(start, reduced_bps)
            .step(start + duration, nominal_bps)
    }

    /// Rate in effect at time `t`.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        match self.steps.binary_search_by(|&(st, _)| st.cmp(&t)) {
            Ok(i) => self.steps[i].1,
            Err(0) => self.steps[0].1, // before first step: use initial rate
            Err(i) => self.steps[i - 1].1,
        }
    }

    /// The next instant strictly after `t` at which the rate changes.
    pub fn next_change_after(&self, t: SimTime) -> Option<SimTime> {
        self.steps.iter().map(|&(st, _)| st).find(|&st| st > t)
    }

    /// Number of rate changes strictly inside `(from, to]`.
    pub fn changes_between(&self, from: SimTime, to: SimTime) -> usize {
        self.steps
            .iter()
            .filter(|&&(st, _)| st > from && st <= to)
            .count()
    }

    /// Upper bound on the bytes a link following this profile can serialize
    /// in `[from, to]`: the integral of the rate over the window, in bytes.
    pub fn max_bytes_between(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        let mut bytes = 0.0;
        let mut cursor = from;
        while cursor < to {
            let rate = self.rate_at(cursor);
            let next = self
                .next_change_after(cursor)
                .filter(|&c| c < to)
                .unwrap_or(to);
            bytes += rate / 8.0 * next.saturating_since(cursor).as_secs_f64();
            cursor = next;
        }
        bytes
    }

    /// The raw `(from, rate_bps)` step schedule.
    pub fn steps(&self) -> &[(SimTime, f64)] {
        &self.steps
    }

    /// Rebuild a profile from a raw step schedule (the inverse of
    /// [`RateProfile::steps`]). Steps must be time-ordered, start no later
    /// than t=0, and carry positive rates.
    pub fn from_steps(steps: Vec<(SimTime, f64)>) -> Result<Self, String> {
        let Some(&(first, _)) = steps.first() else {
            return Err("profile needs at least one step".to_string());
        };
        if first != SimTime::ZERO {
            return Err("first step must be at t=0".to_string());
        }
        let mut profile = RateProfile {
            steps: vec![steps[0]],
        };
        if steps[0].1 <= 0.0 || !steps[0].1.is_finite() {
            return Err(format!("rate must be positive and finite: {}", steps[0].1));
        }
        for &(at, bps) in &steps[1..] {
            if bps <= 0.0 || !bps.is_finite() {
                return Err(format!("rate must be positive and finite: {bps}"));
            }
            if profile.steps.last().map(|&(t, _)| at < t).unwrap_or(false) {
                return Err(format!("steps must be time-ordered (step at {at})"));
            }
            profile = profile.step(at, bps);
        }
        Ok(profile)
    }
}

impl serde::Serialize for RateProfile {
    /// Canonical form: `{"steps": [[at_us, rate_bps], ...]}`.
    fn write_json(&self, out: &mut String) {
        serde::json::Members(&[("steps", &self.steps)]).write_json(out);
    }
}

impl serde::Deserialize for RateProfile {
    /// Accepts the canonical form plus two authoring-friendly shorthands:
    ///
    /// * `{"constant_mbps": 1.0}`
    /// * `{"steps_mbps": [[0, 1.0], [60, 0.25], [90, 1.0]]}` — `(seconds,
    ///   Mbps)` pairs
    /// * `{"disruption_mbps": {"nominal": 1000, "reduced": 0.25,
    ///   "start_secs": 60, "duration_secs": 30}}` — the paper's §4 shape
    /// * `{"steps": [[at_us, rate_bps], ...]}` — canonical
    fn from_json_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let fail = |e: String| serde::DeError::msg(e).in_field("RateProfile");
        if let Some(mbps) = v.get("constant_mbps") {
            let mbps = f64::from_json_value(mbps).map_err(|e| e.in_field("constant_mbps"))?;
            if mbps <= 0.0 || !mbps.is_finite() {
                return Err(fail(format!("constant_mbps must be positive: {mbps}")));
            }
            return Ok(RateProfile::constant_mbps(mbps));
        }
        if let Some(steps) = v.get("steps_mbps") {
            let steps: Vec<(f64, f64)> =
                serde::Deserialize::from_json_value(steps).map_err(|e| e.in_field("steps_mbps"))?;
            for &(secs, _) in &steps {
                if !secs.is_finite() || secs < 0.0 {
                    return Err(fail(format!("step time must be non-negative: {secs}")));
                }
            }
            return RateProfile::from_steps(
                steps
                    .into_iter()
                    .map(|(secs, mbps)| (SimTime::from_secs_f64(secs), mbps * 1e6))
                    .collect(),
            )
            .map_err(fail);
        }
        if let Some(d) = v.get("disruption_mbps") {
            let get = |k: &str| -> Result<f64, serde::DeError> {
                d.get(k)
                    .and_then(serde::Value::as_f64)
                    .ok_or_else(|| serde::DeError::missing(k).in_field("disruption_mbps"))
            };
            let nominal = get("nominal")?;
            let reduced = get("reduced")?;
            let start = get("start_secs")?;
            let duration = get("duration_secs")?;
            let positive = |v: f64| v > 0.0 && v.is_finite();
            if !(positive(nominal) && positive(reduced)) {
                return Err(fail("disruption rates must be positive".to_string()));
            }
            let non_negative = |v: f64| v >= 0.0 && v.is_finite();
            if !(non_negative(start) && non_negative(duration)) {
                return Err(fail(format!(
                    "disruption times must be non-negative: {start} + {duration}"
                )));
            }
            return Ok(RateProfile::disruption(
                nominal * 1e6,
                reduced * 1e6,
                SimTime::from_secs_f64(start),
                vcabench_simcore::SimDuration::from_secs_f64(duration),
            ));
        }
        if let Some(steps) = v.get("steps") {
            let steps: Vec<(SimTime, f64)> =
                serde::Deserialize::from_json_value(steps).map_err(|e| e.in_field("steps"))?;
            return RateProfile::from_steps(steps).map_err(fail);
        }
        Err(serde::DeError::msg(
            "RateProfile: expected an object with `constant_mbps`, `steps_mbps`, \
             `disruption_mbps`, or `steps`",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_profile() {
        let p = RateProfile::constant_mbps(1.0);
        assert_eq!(p.rate_at(SimTime::ZERO), 1e6);
        assert_eq!(p.rate_at(SimTime::from_secs(1000)), 1e6);
        assert_eq!(p.next_change_after(SimTime::ZERO), None);
    }

    #[test]
    fn step_lookup() {
        let p = RateProfile::constant(100.0)
            .step(SimTime::from_secs(10), 50.0)
            .step(SimTime::from_secs(20), 75.0);
        assert_eq!(p.rate_at(SimTime::from_secs(9)), 100.0);
        assert_eq!(p.rate_at(SimTime::from_secs(10)), 50.0);
        assert_eq!(p.rate_at(SimTime::from_secs(15)), 50.0);
        assert_eq!(p.rate_at(SimTime::from_secs(20)), 75.0);
        assert_eq!(p.rate_at(SimTime::from_secs(100)), 75.0);
    }

    #[test]
    fn disruption_shape() {
        let p = RateProfile::disruption(
            1e9,
            0.25e6,
            SimTime::from_secs(60),
            SimDuration::from_secs(30),
        );
        assert_eq!(p.rate_at(SimTime::from_secs(59)), 1e9);
        assert_eq!(p.rate_at(SimTime::from_secs(60)), 0.25e6);
        assert_eq!(p.rate_at(SimTime::from_secs(89)), 0.25e6);
        assert_eq!(p.rate_at(SimTime::from_secs(90)), 1e9);
    }

    #[test]
    fn next_change_walks_steps() {
        let p = RateProfile::constant(1.0).step(SimTime::from_secs(5), 2.0);
        assert_eq!(
            p.next_change_after(SimTime::ZERO),
            Some(SimTime::from_secs(5))
        );
        assert_eq!(p.next_change_after(SimTime::from_secs(5)), None);
    }

    #[test]
    fn same_time_step_overwrites() {
        let p = RateProfile::constant(1.0)
            .step(SimTime::from_secs(5), 2.0)
            .step(SimTime::from_secs(5), 3.0);
        assert_eq!(p.rate_at(SimTime::from_secs(5)), 3.0);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_step_panics() {
        let _ = RateProfile::constant(1.0)
            .step(SimTime::from_secs(5), 2.0)
            .step(SimTime::from_secs(4), 3.0);
    }

    #[test]
    fn serde_canonical_round_trip() {
        let p = RateProfile::disruption(
            1e9,
            0.25e6,
            SimTime::from_secs(60),
            SimDuration::from_secs(30),
        );
        let text = serde_json::to_string(&p).unwrap();
        assert!(text.starts_with("{\"steps\":[[0,1000000000],[60000000,250000]"));
        assert_eq!(serde_json::from_str::<RateProfile>(&text).unwrap(), p);
    }

    #[test]
    fn serde_authoring_shorthands() {
        use serde::Deserialize;
        let c: RateProfile = serde_json::from_str(r#"{"constant_mbps": 1.5}"#).unwrap();
        assert_eq!(c, RateProfile::constant_mbps(1.5));
        let s: RateProfile =
            serde_json::from_str(r#"{"steps_mbps": [[0, 1.0], [60, 0.25], [90, 1.0]]}"#).unwrap();
        assert_eq!(
            s,
            RateProfile::constant_mbps(1.0)
                .step(SimTime::from_secs(60), 0.25e6)
                .step(SimTime::from_secs(90), 1e6)
        );
        let d: RateProfile = serde_json::from_str(
            r#"{"disruption_mbps": {"nominal": 1000, "reduced": 0.25, "start_secs": 60, "duration_secs": 30}}"#,
        )
        .unwrap();
        assert_eq!(
            d,
            RateProfile::disruption(
                1e9,
                0.25e6,
                SimTime::from_secs(60),
                SimDuration::from_secs(30)
            )
        );
        assert!(serde_json::from_str::<RateProfile>(r#"{"constant_mbps": -1}"#).is_err());
        assert!(serde_json::from_str::<RateProfile>(r#"{"steps_mbps": []}"#).is_err());
        assert!(serde_json::from_str::<RateProfile>(r#"{"steps_mbps": [[5, 1.0]]}"#).is_err());
        assert!(RateProfile::from_json_value(&serde::Value::Null).is_err());
    }
}
