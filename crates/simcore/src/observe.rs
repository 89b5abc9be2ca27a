//! Simulation invariant checking.
//!
//! The engine and the layers above it (links, transports, controllers)
//! maintain properties that must hold on every event: time never goes
//! backwards, queues conserve packets, rates respect configured bounds.
//! This module provides the shared vocabulary for *auditing* those
//! properties at runtime: a [`Violation`] record and an [`InvariantLog`]
//! that concrete audits accumulate into ([`MonotonicClock`] here, the link
//! and RTP-receiver audits in the crates above).
//!
//! The types are always compiled (empty, they allocate nothing); the *hook
//! calls* that feed them sit behind `if cfg!(debug_assertions)`. Debug
//! builds audit, release builds do not; deep fuzz at release speed with
//! `CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true`.

use std::fmt;

use crate::time::SimTime;

/// Cap on stored violations per log: a broken invariant usually fires on
/// every subsequent event, and the first few occurrences carry all the
/// diagnostic value. Later violations are dropped; their checks still count.
const MAX_STORED_VIOLATIONS: usize = 32;

/// One observed breach of a simulation invariant.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Simulation time at which the breach was detected.
    pub at: SimTime,
    /// Name of the invariant that failed (stable, greppable).
    pub invariant: &'static str,
    /// Human-readable specifics (observed vs. expected values).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.at, self.invariant, self.detail)
    }
}

/// Accumulator shared by concrete audits: counts every check performed and
/// stores the first `MAX_STORED_VIOLATIONS` (32) violations.
///
/// Tracking the check count matters as much as the violations themselves: a
/// suite that reports "no violations" after performing zero checks proves
/// nothing, so the test kit asserts both.
#[derive(Debug, Clone, Default)]
pub struct InvariantLog {
    violations: Vec<Violation>,
    checks: u64,
}

impl InvariantLog {
    /// Fresh, empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Perform one check: record a violation when `ok` is false. The detail
    /// closure only runs on failure.
    pub fn check(
        &mut self,
        at: SimTime,
        invariant: &'static str,
        ok: bool,
        detail: impl FnOnce() -> String,
    ) {
        self.checks += 1;
        if !ok {
            self.record(at, invariant, detail());
        }
    }

    /// Record a violation directly (for checks counted elsewhere).
    pub fn record(&mut self, at: SimTime, invariant: &'static str, detail: String) {
        if self.violations.len() < MAX_STORED_VIOLATIONS {
            self.violations.push(Violation {
                at,
                invariant,
                detail,
            });
        }
    }

    /// Number of checks performed so far.
    pub fn checks_performed(&self) -> u64 {
        self.checks
    }

    /// Stored violations (capped: the rest are dropped).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }
}

/// The fundamental engine invariant: processed-event timestamps never
/// decrease.
#[derive(Debug, Clone, Default)]
pub struct MonotonicClock {
    last: Option<SimTime>,
    log: InvariantLog,
}

impl MonotonicClock {
    /// Fresh clock check.
    pub fn new() -> Self {
        Self::default()
    }

    /// Check the timestamp of one processed event against the last.
    pub fn on_event(&mut self, at: SimTime) {
        let last = self.last;
        self.log.check(
            at,
            "sim-time-monotonic",
            last.map(|l| at >= l).unwrap_or(true),
            || {
                format!(
                    "event at {at} after event at {}",
                    last.unwrap_or(SimTime::ZERO)
                )
            },
        );
        self.last = Some(at);
    }

    /// Violations observed so far.
    pub fn violations(&self) -> &[Violation] {
        self.log.violations()
    }

    /// Number of events checked.
    pub fn checks_performed(&self) -> u64 {
        self.log.checks_performed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_counts_checks_and_violations() {
        let mut log = InvariantLog::new();
        log.check(SimTime::ZERO, "x", true, || unreachable!());
        log.check(SimTime::from_secs(1), "x", false, || "boom".into());
        assert_eq!(log.checks_performed(), 2);
        assert_eq!(log.violations().len(), 1);
        assert_eq!(log.violations()[0].invariant, "x");
        assert_eq!(log.violations()[0].detail, "boom");
    }

    #[test]
    fn log_caps_stored_violations() {
        let mut log = InvariantLog::new();
        for i in 0..100 {
            log.check(SimTime::from_micros(i), "x", false, || "v".into());
        }
        assert_eq!(log.violations().len(), MAX_STORED_VIOLATIONS);
        assert_eq!(log.checks_performed(), 100, "overflow checked, not stored");
    }

    #[test]
    fn monotonic_clock_accepts_ordered_events() {
        let mut c = MonotonicClock::new();
        for t in [0u64, 5, 5, 9] {
            c.on_event(SimTime::from_micros(t));
        }
        assert!(c.violations().is_empty());
        assert_eq!(c.checks_performed(), 4);
    }

    #[test]
    fn monotonic_clock_flags_regression() {
        let mut c = MonotonicClock::new();
        c.on_event(SimTime::from_secs(2));
        c.on_event(SimTime::from_secs(1));
        let v = &c.violations()[0];
        assert_eq!(v.invariant, "sim-time-monotonic");
        assert!(v.detail.contains("after"), "{}", v.detail);
    }

    #[test]
    fn violation_displays_fields() {
        let v = Violation {
            at: SimTime::from_secs(3),
            invariant: "queue-bound",
            detail: "65537 > 65536".into(),
        };
        let s = v.to_string();
        assert!(s.contains("queue-bound") && s.contains("65537"), "{s}");
    }
}
