//! Simulated time types.
//!
//! Simulated time is a monotone counter of milliseconds since the start of
//! the simulation. It is deliberately a distinct type from
//! [`std::time::Instant`] so that simulation code can never accidentally
//! mix simulated and wall-clock time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// A point in simulated time, measured in milliseconds from simulation
/// start.
///
/// `SimTime` is ordered, hashable and cheap to copy. Arithmetic with
/// [`SimDuration`] is saturating on underflow and panics on overflow (an
/// overflowed simulation clock is always a bug).
///
/// # Example
///
/// ```
/// use dcsim::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_secs(90);
/// assert_eq!(t.as_millis(), 90_000);
/// assert_eq!(t - SimTime::ZERO, SimDuration::from_secs(90));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time point at `millis` milliseconds from simulation start.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis)
    }

    /// Creates a time point at `secs` seconds from simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1000)
    }

    /// Creates a time point at `mins` minutes from simulation start.
    pub const fn from_mins(mins: u64) -> Self {
        SimTime(mins * 60_000)
    }

    /// Creates a time point at `hours` hours from simulation start.
    pub const fn from_hours(hours: u64) -> Self {
        SimTime(hours * 3_600_000)
    }

    /// Milliseconds since simulation start.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds since simulation start (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1000
    }

    /// Seconds since simulation start as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// The earlier of two time points.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// The later of two time points.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_secs = self.0 / 1000;
        let ms = self.0 % 1000;
        let (h, m, s) = (total_secs / 3600, (total_secs / 60) % 60, total_secs % 60);
        if ms == 0 {
            write!(f, "{h:02}:{m:02}:{s:02}")
        } else {
            write!(f, "{h:02}:{m:02}:{s:02}.{ms:03}")
        }
    }
}

/// A span of simulated time in milliseconds.
///
/// # Example
///
/// ```
/// use dcsim::SimDuration;
///
/// let poll = SimDuration::from_secs(3);
/// assert_eq!(poll * 3, SimDuration::from_secs(9));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1000)
    }

    /// Creates a duration of `mins` minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60_000)
    }

    /// Creates a duration of `hours` hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600_000)
    }

    /// Creates a duration from a float number of seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative, got {secs}"
        );
        SimDuration((secs * 1000.0).round() as u64)
    }

    /// The duration in whole milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// The duration in whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1000
    }

    /// The duration in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// True if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1000) {
            write!(f, "{}s", self.0 / 1000)
        } else {
            write!(f, "{}ms", self.0)
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("simulation clock overflow"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("subtracted a later SimTime from an earlier one"),
        )
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("subtracted a longer SimDuration from a shorter one"),
        )
    }
}

impl std::ops::Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl std::ops::Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_construction_and_accessors() {
        let t = SimTime::from_secs(12);
        assert_eq!(t.as_millis(), 12_000);
        assert_eq!(t.as_secs(), 12);
        assert_eq!(t.as_secs_f64(), 12.0);
        assert_eq!(SimTime::from_millis(500).as_secs(), 0);
        assert_eq!(SimTime::from_mins(2).as_secs(), 120);
        assert_eq!(SimTime::from_hours(3).as_secs(), 10_800);
    }

    #[test]
    fn duration_construction() {
        assert_eq!(SimDuration::from_secs(3).as_millis(), 3000);
        assert_eq!(SimDuration::from_mins(2).as_secs(), 120);
        assert_eq!(SimDuration::from_hours(1).as_secs(), 3600);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_millis(), 1500);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn duration_from_negative_secs_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn arithmetic_round_trips() {
        let t0 = SimTime::from_secs(10);
        let d = SimDuration::from_millis(2500);
        let t1 = t0 + d;
        assert_eq!(t1 - t0, d);
        assert_eq!(t1.as_millis(), 12_500);
    }

    #[test]
    #[should_panic(expected = "later SimTime")]
    fn negative_interval_panics() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn duration_scalar_ops() {
        assert_eq!(SimDuration::from_secs(3) * 3, SimDuration::from_secs(9));
        assert_eq!(SimDuration::from_secs(9) / 3, SimDuration::from_secs(3));
        assert!(SimDuration::ZERO.is_zero());
        assert!(!SimDuration::from_millis(1).is_zero());
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_secs(3661).to_string(), "01:01:01");
        assert_eq!(SimTime::from_millis(1500).to_string(), "00:00:01.500");
        assert_eq!(SimDuration::from_secs(3).to_string(), "3s");
        assert_eq!(SimDuration::from_millis(250).to_string(), "250ms");
    }

    #[test]
    fn ordering_and_min_max() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }
}
