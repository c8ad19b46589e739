//! Virtual time types.
//!
//! Simulated time is kept as an integer number of microseconds so that event
//! ordering is exact (no floating-point comparison hazards) while still
//! offering sub-millisecond resolution for the latency experiments (Fig. 5 of
//! the paper reports component latencies down to 0.08 ms).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of microseconds per second.
const MICROS_PER_SEC: u64 = 1_000_000;

/// An absolute instant on the simulation clock, in microseconds since the
/// start of the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Constructs an instant from integer microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Constructs an instant from integer milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Constructs an instant from integer seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * MICROS_PER_SEC)
    }

    /// Constructs an instant from fractional seconds (rounded to the nearest
    /// microsecond; negative values clamp to zero).
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime(secs_to_micros(s))
    }

    /// This instant as integer microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is in
    /// the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The maximum representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Constructs a duration from integer microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Constructs a duration from integer milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Constructs a duration from integer seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * MICROS_PER_SEC)
    }

    /// Constructs a duration from fractional seconds (rounded to the nearest
    /// microsecond; negative values clamp to zero).
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration(secs_to_micros(s))
    }

    /// This duration as integer microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// True if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

fn secs_to_micros(s: f64) -> u64 {
    if s <= 0.0 || !s.is_finite() {
        if s.is_finite() {
            0
        } else if s > 0.0 {
            u64::MAX
        } else {
            0
        }
    } else {
        let us = s * MICROS_PER_SEC as f64;
        if us >= u64::MAX as f64 {
            u64::MAX
        } else {
            us.round() as u64
        }
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
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
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
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self
            .0
            .checked_sub(rhs.0)
            .expect("SimDuration subtraction underflow");
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T+{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3 * MICROS_PER_SEC);
        assert_eq!(SimTime::from_millis(2).as_micros(), 2_000);
        assert_eq!(SimTime::from_micros(7).as_micros(), 7);
        assert!((SimTime::from_secs_f64(1.25).as_secs_f64() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!(t + d, SimTime::from_secs(14));
        assert_eq!(t - d, SimTime::from_secs(6));
        assert_eq!(SimTime::from_secs(14) - t, d);
        assert_eq!(d * 3, SimDuration::from_secs(12));
        assert_eq!(d / 2, SimDuration::from_secs(2));
        assert_eq!(d + d, SimDuration::from_secs(8));
    }

    #[test]
    fn float_multiplication_rounds() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d * 0.5, SimDuration::from_secs(5));
        assert_eq!(d * 0.0, SimDuration::ZERO);
    }

    #[test]
    fn saturating_since() {
        let a = SimTime::from_secs(5);
        let b = SimTime::from_secs(8);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(3));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn strict_subtraction_panics_on_underflow() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn negative_and_nonfinite_seconds_clamp() {
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
        assert_eq!(
            SimDuration::from_secs_f64(f64::NEG_INFINITY),
            SimDuration::ZERO
        );
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimDuration::from_millis(999) < SimDuration::from_secs(1));
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500");
        assert_eq!(format!("{}", SimDuration::from_millis(250)), "0.250");
    }
}
