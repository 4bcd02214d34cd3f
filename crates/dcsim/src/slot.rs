//! An `Option<f64>` in eight bytes.

use serde::{Deserialize, Serialize};

/// An `f64` or none, in one `f64`: a single NaN bit pattern is "none",
/// so a slot costs eight bytes where an `Option<f64>` pads to sixteen.
/// Holds any value but NaN — meant for quantities that are never NaN
/// (a Box-Muller variate, a power reading, a cap).
///
/// The test for "none" is an integer compare of the bits, like an
/// `Option`'s tag: a float NaN test would turn "add if present" into a
/// blend on a sum's dependency chain instead of a predictable branch.
/// Equality is by bits, so two empty slots are equal.
///
/// # Example
///
/// ```
/// use dcsim::OptF64;
///
/// let mut slot = OptF64::some(1.5);
/// assert_eq!(slot.take(), Some(1.5));
/// assert_eq!(slot, OptF64::NONE);
/// assert_eq!(slot.get(), None);
/// ```
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct OptF64(f64);

/// The bits of [`OptF64::NONE`].
const NONE_BITS: u64 = 0x7ff8_0000_0000_0000;

impl OptF64 {
    /// No value.
    pub const NONE: OptF64 = OptF64(f64::from_bits(NONE_BITS));

    /// A slot holding `value`, which must not be NaN.
    #[inline]
    pub const fn some(value: f64) -> Self {
        debug_assert!(!value.is_nan(), "a slot holds no NaN");
        OptF64(value)
    }

    /// The value held, if any.
    #[inline]
    pub fn get(self) -> Option<f64> {
        self.is_some().then_some(self.0)
    }

    /// Whether the slot holds a value.
    #[inline]
    pub fn is_some(self) -> bool {
        self.0.to_bits() != NONE_BITS
    }

    /// The value held, if any, leaving the slot empty.
    #[inline]
    pub fn take(&mut self) -> Option<f64> {
        std::mem::replace(self, OptF64::NONE).get()
    }
}

impl PartialEq for OptF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}

impl Eq for OptF64 {}

impl From<Option<f64>> for OptF64 {
    fn from(value: Option<f64>) -> Self {
        value.map_or(OptF64::NONE, OptF64::some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slot_is_an_option_in_eight_bytes() {
        assert_eq!(std::mem::size_of::<OptF64>(), 8);
        assert_eq!(OptF64::NONE.get(), None);
        assert!(!OptF64::from(None).is_some());
        for v in [0.0, -0.0, 1e-300, 210.0, f64::INFINITY, f64::NEG_INFINITY] {
            let back = OptF64::some(v).get().expect("a value reads back");
            assert_eq!(back.to_bits(), v.to_bits());
            assert_eq!(OptF64::from(Some(v)), OptF64::some(v));
        }
        assert_ne!(OptF64::some(0.0), OptF64::some(-0.0), "equal by bits");
    }
}
