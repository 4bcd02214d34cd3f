//! Electrical power units.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Electrical power in watts.
///
/// A thin newtype over `f64` that keeps watt quantities from mixing with
/// unrelated floats (utilization fractions, ratios, seconds). Negative
/// values are representable — power *cuts* and headroom calculations
/// produce them naturally — but constructors for physical draws validate
/// non-negativity where it matters.
///
/// # Example
///
/// ```
/// use powerinfra::Power;
///
/// let rack = Power::from_kilowatts(12.6);
/// let server = Power::from_watts(300.0);
/// assert_eq!((rack - server * 2.0).as_watts(), 12_000.0);
/// assert!(rack.ratio_of(Power::from_kilowatts(25.2)) - 0.5 < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Power(f64);

impl Power {
    /// Zero watts.
    pub const ZERO: Power = Power(0.0);

    /// Creates a power value from watts.
    pub const fn from_watts(watts: f64) -> Self {
        Power(watts)
    }

    /// Creates a power value from kilowatts.
    pub fn from_kilowatts(kw: f64) -> Self {
        Power(kw * 1e3)
    }

    /// Creates a power value from megawatts.
    pub fn from_megawatts(mw: f64) -> Self {
        Power(mw * 1e6)
    }

    /// The value in watts.
    pub const fn as_watts(self) -> f64 {
        self.0
    }

    /// The value in kilowatts.
    pub fn as_kilowatts(self) -> f64 {
        self.0 / 1e3
    }

    /// This power as a fraction of `denom` (e.g. draw over rating).
    ///
    /// # Panics
    ///
    /// Panics if `denom` is zero or negative — ratios against non-positive
    /// ratings are always a modelling bug.
    pub fn ratio_of(self, denom: Power) -> f64 {
        assert!(denom.0 > 0.0, "ratio_of against non-positive power {denom}");
        self.0 / denom.0
    }

    /// The smaller of two power values.
    pub fn min(self, other: Power) -> Power {
        Power(self.0.min(other.0))
    }

    /// The larger of two power values.
    pub fn max(self, other: Power) -> Power {
        Power(self.0.max(other.0))
    }

    /// Clamps into `[lo, hi]`.
    pub fn clamp(self, lo: Power, hi: Power) -> Power {
        Power(self.0.clamp(lo.0, hi.0))
    }

    /// `self - other`, floored at zero. Convenient for headroom math.
    pub fn saturating_sub(self, other: Power) -> Power {
        Power((self.0 - other.0).max(0.0))
    }

    /// True if the value is a finite, non-negative number — i.e. a
    /// physically meaningful draw.
    pub fn is_valid_draw(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }

    /// Absolute value.
    pub fn abs(self) -> Power {
        Power(self.0.abs())
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.0;
        if w.abs() >= 1e6 {
            write!(f, "{:.3} MW", w / 1e6)
        } else if w.abs() >= 1e3 {
            write!(f, "{:.2} kW", w / 1e3)
        } else {
            write!(f, "{w:.1} W")
        }
    }
}

impl Add for Power {
    type Output = Power;
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}
impl AddAssign for Power {
    fn add_assign(&mut self, rhs: Power) {
        self.0 += rhs.0;
    }
}
impl Sub for Power {
    type Output = Power;
    fn sub(self, rhs: Power) -> Power {
        Power(self.0 - rhs.0)
    }
}
impl SubAssign for Power {
    fn sub_assign(&mut self, rhs: Power) {
        self.0 -= rhs.0;
    }
}
impl Mul<f64> for Power {
    type Output = Power;
    fn mul(self, rhs: f64) -> Power {
        Power(self.0 * rhs)
    }
}
impl Div<f64> for Power {
    type Output = Power;
    fn div(self, rhs: f64) -> Power {
        Power(self.0 / rhs)
    }
}
impl Neg for Power {
    type Output = Power;
    fn neg(self) -> Power {
        Power(-self.0)
    }
}
impl Sum for Power {
    fn sum<I: Iterator<Item = Power>>(iter: I) -> Power {
        Power(iter.map(|p| p.0).sum())
    }
}
impl<'a> Sum<&'a Power> for Power {
    fn sum<I: Iterator<Item = &'a Power>>(iter: I) -> Power {
        Power(iter.map(|p| p.0).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        assert_eq!(Power::from_kilowatts(1.0).as_watts(), 1000.0);
        assert_eq!(Power::from_megawatts(2.5).as_kilowatts(), 2500.0);
        assert_eq!(Power::from_watts(250.0).as_kilowatts(), 0.25);
        assert_eq!(Power::from_megawatts(30.0).as_watts(), 30e6);
    }

    #[test]
    fn arithmetic() {
        let a = Power::from_watts(100.0);
        let b = Power::from_watts(40.0);
        assert_eq!((a + b).as_watts(), 140.0);
        assert_eq!((a - b).as_watts(), 60.0);
        assert_eq!((a * 2.0).as_watts(), 200.0);
        assert_eq!((a / 4.0).as_watts(), 25.0);
        assert_eq!((-a).as_watts(), -100.0);
    }

    #[test]
    fn sum_over_iterator() {
        let draws = vec![
            Power::from_watts(1.0),
            Power::from_watts(2.0),
            Power::from_watts(3.0),
        ];
        let total: Power = draws.iter().sum();
        assert_eq!(total.as_watts(), 6.0);
        let owned: Power = draws.into_iter().sum();
        assert_eq!(owned.as_watts(), 6.0);
    }

    #[test]
    fn ratio_of_rating() {
        let draw = Power::from_kilowatts(190.0);
        let rating = Power::from_kilowatts(190.0);
        assert!((draw.ratio_of(rating) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-positive power")]
    fn ratio_of_zero_panics() {
        Power::from_watts(1.0).ratio_of(Power::ZERO);
    }

    #[test]
    fn saturating_sub_floors_at_zero() {
        let a = Power::from_watts(10.0);
        let b = Power::from_watts(25.0);
        assert_eq!(a.saturating_sub(b), Power::ZERO);
        assert_eq!(b.saturating_sub(a).as_watts(), 15.0);
    }

    #[test]
    fn validity_checks() {
        assert!(Power::from_watts(0.0).is_valid_draw());
        assert!(Power::from_watts(200.0).is_valid_draw());
        assert!(!Power::from_watts(-1.0).is_valid_draw());
        assert!(!Power::from_watts(f64::NAN).is_valid_draw());
        assert!(!Power::from_watts(f64::INFINITY).is_valid_draw());
    }

    #[test]
    fn min_max_clamp() {
        let a = Power::from_watts(100.0);
        let b = Power::from_watts(200.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(Power::from_watts(300.0).clamp(a, b), b);
        assert_eq!(Power::from_watts(50.0).clamp(a, b), a);
    }

    #[test]
    fn display_picks_natural_unit() {
        assert_eq!(Power::from_watts(220.0).to_string(), "220.0 W");
        assert_eq!(Power::from_kilowatts(127.5).to_string(), "127.50 kW");
        assert_eq!(Power::from_megawatts(2.5).to_string(), "2.500 MW");
    }
}
