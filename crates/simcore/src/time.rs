//! Virtual time for the discrete-event simulation.
//!
//! All simulation time is expressed in integer microseconds since the start
//! of the simulation. Integer time keeps the engine deterministic: there is
//! no floating-point drift, and two events scheduled for the same instant
//! compare equal exactly.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulation time, in microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as a sentinel for "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from microseconds since simulation start.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from milliseconds since simulation start.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Construct from whole seconds since simulation start.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Construct from fractional seconds. Panics on negative or non-finite input.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid time: {s}");
        SimTime((s * 1e6).round() as u64)
    }

    /// Microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since simulation start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since simulation start, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier`. Saturates at zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Maximum representable duration; used as a sentinel for "forever".
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Construct from fractional seconds. Panics on negative or non-finite input.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        SimDuration((s * 1e6).round() as u64)
    }

    /// Microseconds in this duration.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds in this duration (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True when the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiply by a non-negative float, rounding to the nearest microsecond.
    pub fn mul_f64(self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid factor: {factor}"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> Self {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics if `rhs` is later than `self`; use [`SimTime::saturating_since`]
    /// when the ordering is not guaranteed.
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("negative SimDuration"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("negative SimDuration"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl serde::Serialize for SimTime {
    /// Serializes as integer microseconds since simulation start.
    fn write_json(&self, out: &mut String) {
        serde::json::write_u64(out, self.0);
    }
}

impl serde::Deserialize for SimTime {
    fn from_json_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        v.as_u64()
            .map(SimTime::from_micros)
            .ok_or_else(|| serde::DeError::expected("microseconds (unsigned integer)", v))
    }
}

impl serde::Serialize for SimDuration {
    /// Serializes as integer microseconds.
    fn write_json(&self, out: &mut String) {
        serde::json::write_u64(out, self.0);
    }
}

impl serde::Deserialize for SimDuration {
    fn from_json_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        v.as_u64()
            .map(SimDuration::from_micros)
            .ok_or_else(|| serde::DeError::expected("microseconds (unsigned integer)", v))
    }
}

/// Duration needed to serialize `bytes` onto a link running at `bits_per_sec`.
///
/// Rounds up to the next microsecond so a packet never finishes "early",
/// which would let a link momentarily exceed its configured rate.
pub fn transmission_time(bytes: usize, bits_per_sec: f64) -> SimDuration {
    assert!(bits_per_sec > 0.0, "link rate must be positive");
    let micros = bytes as f64 * 8.0 / bits_per_sec * 1e6;
    // `micros.ceil() as u64` without the libm `ceil` call the baseline
    // x86-64 target compiles it to: truncate, then bump if that lost a
    // fraction. Equal for every input (the cast saturates either way).
    let whole = micros as u64;
    SimDuration::from_micros(whole.saturating_add(((whole as f64) < micros) as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2_000);
        assert!((SimTime::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(3);
        assert_eq!(t + d, SimTime::from_secs(13));
        assert_eq!(t - d, SimTime::from_secs(7));
        assert_eq!(t - SimTime::from_secs(4), SimDuration::from_secs(6));
        assert_eq!(d * 2, SimDuration::from_secs(6));
        assert_eq!(d / 3, SimDuration::from_secs(1));
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "negative SimDuration")]
    fn negative_duration_panics() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn transmission_time_rounds_up() {
        // 1500 bytes at 1 Mbps = 12 ms exactly.
        assert_eq!(transmission_time(1500, 1e6), SimDuration::from_millis(12));
        // 1 byte at 1 Gbps = 8 ns -> rounds up to 1 us.
        assert_eq!(transmission_time(1, 1e9), SimDuration::from_micros(1));
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_micros(100);
        assert_eq!(d.mul_f64(1.5), SimDuration::from_micros(150));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500s");
        assert_eq!(SimDuration::from_millis(250).to_string(), "0.250s");
    }

    #[test]
    fn serde_round_trip_micros() {
        use serde::{Deserialize, Serialize};
        let (t, d) = (SimTime::from_millis(1500), SimDuration::from_secs(2));
        let mut text = String::new();
        (t, d).write_json(&mut text);
        assert_eq!(text, "[1500000,2000000]");
        assert_eq!(
            SimTime::from_json_value(&serde::Value::U64(1_500_000)),
            Ok(t)
        );
        assert_eq!(
            SimDuration::from_json_value(&serde::Value::U64(2_000_000)),
            Ok(d)
        );
        assert!(SimDuration::from_json_value(&serde::Value::F64(1.5)).is_err());
    }
}
