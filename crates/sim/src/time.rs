//! Simulated-time primitives.
//!
//! The simulation measures *reference time* — the Time Authority's notion of
//! real time in the paper — as nanoseconds since the start of the scenario.
//! Two newtypes keep instants and durations from being confused
//! ([`SimTime`] vs [`SimDuration`]), mirroring `std::time::Instant` /
//! `std::time::Duration` but with a fully deterministic, simulation-owned
//! epoch.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant of simulated reference time, in nanoseconds since scenario
/// start.
///
/// `SimTime` is totally ordered and starts at [`SimTime::ZERO`]. Arithmetic
/// with [`SimDuration`] is checked in debug builds (overflow panics).
///
/// # Examples
///
/// ```
/// use sim::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_secs(2);
/// assert_eq!(t.as_secs_f64(), 2.0);
/// assert_eq!(t - SimTime::ZERO, SimDuration::from_secs(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated reference time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use sim::SimDuration;
///
/// let d = SimDuration::from_millis(1_500);
/// assert_eq!(d.as_secs_f64(), 1.5);
/// assert_eq!(d * 2, SimDuration::from_secs(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The scenario start instant.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from nanoseconds since scenario start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant from whole seconds since scenario start.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is not representable in `u64` nanoseconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(SimDuration::from_secs(secs).0)
    }

    /// Creates an instant from fractional seconds since scenario start.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not representable in nanoseconds.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(SimDuration::from_secs_f64(secs).as_nanos())
    }

    /// Nanoseconds since scenario start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since scenario start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`, or `None` if `earlier` is later
    /// than `self`.
    pub fn checked_duration_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }

    /// Duration elapsed since `earlier`, clamped to zero if `earlier` is in
    /// the future.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Instant advanced by `d`, or `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// `count` units of `unit_ns` nanoseconds; panics instead of wrapping
    /// in release builds.
    const fn scaled(count: u64, unit_ns: u64) -> Self {
        match count.checked_mul(unit_ns) {
            Some(ns) => SimDuration(ns),
            None => panic!("duration overflows u64 nanoseconds"),
        }
    }

    /// Creates a duration from microseconds.
    ///
    /// # Panics
    ///
    /// Panics if the result is not representable in `u64` nanoseconds
    /// (and so for every multiplying constructor below).
    pub const fn from_micros(us: u64) -> Self {
        SimDuration::scaled(us, 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration::scaled(ms, 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration::scaled(secs, 1_000_000_000)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration::scaled(mins, 60 * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be finite and non-negative, got {secs}"
        );
        let ns = secs * 1e9;
        assert!(ns <= u64::MAX as f64, "duration overflows u64 nanoseconds");
        SimDuration(ns.round() as u64)
    }

    /// Length in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Length in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, rhs: SimDuration) -> Option<SimDuration> {
        self.0.checked_add(rhs.0).map(SimDuration)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies the duration by a fractional factor, rounding to the
    /// nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative, NaN, or the result overflows.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics if `rhs` is later than `self`; use
    /// [`SimTime::checked_duration_since`] when ordering is unknown.
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimTime subtraction went negative"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration subtraction went negative"))
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
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div for SimDuration {
    type Output = f64;
    /// Ratio of two durations.
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimDuration::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimDuration::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimDuration::from_mins(2), SimDuration::from_secs(120));
        assert_eq!(SimTime::from_secs(1).as_nanos(), 1_000_000_000);
        let largest = u64::MAX / 1_000_000_000;
        assert_eq!(SimTime::from_secs(largest).as_nanos(), largest * 1_000_000_000);
    }

    /// One second past the largest representable one used to wrap to
    /// ~0.29 s in release builds.
    #[test]
    #[should_panic(expected = "overflows u64 nanoseconds")]
    fn overflowing_constructors_panic_instead_of_wrapping() {
        let _ = SimTime::from_secs(u64::MAX / 1_000_000_000 + 1);
    }

    #[test]
    fn fractional_seconds() {
        let d = SimDuration::from_secs_f64(1.25);
        assert_eq!(d.as_nanos(), 1_250_000_000);
        assert!((d.as_secs_f64() - 1.25).abs() < 1e-12);
        assert_eq!(SimTime::from_secs_f64(0.5).as_nanos(), 500_000_000);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn instant_arithmetic() {
        let t0 = SimTime::from_secs(10);
        let t1 = t0 + SimDuration::from_millis(500);
        assert_eq!(t1 - t0, SimDuration::from_millis(500));
        assert_eq!(t1.checked_duration_since(t0), Some(SimDuration::from_millis(500)));
        assert_eq!(t0.checked_duration_since(t1), None);
        assert_eq!(t0.saturating_duration_since(t1), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "went negative")]
    fn negative_instant_subtraction_panics() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_millis(100);
        assert_eq!(d * 3, SimDuration::from_millis(300));
        assert_eq!(d / 2, SimDuration::from_millis(50));
        assert!((SimDuration::from_secs(1) / SimDuration::from_millis(250) - 4.0).abs() < 1e-12);
        assert_eq!(d.mul_f64(2.5), SimDuration::from_millis(250));
        assert_eq!(d.saturating_sub(SimDuration::from_secs(1)), SimDuration::ZERO);
    }

    #[test]
    fn summing_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
        assert_eq!(SimTime::from_secs(1).to_string(), "t=1.000000s");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimDuration::from_millis(999) < SimDuration::from_secs(1));
    }
}
