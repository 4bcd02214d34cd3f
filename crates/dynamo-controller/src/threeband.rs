//! The three-band capping/uncapping algorithm (Figure 10).

use powerinfra::Power;
use serde::{Deserialize, Serialize};

/// The three bands, expressed as fractions of the protected device's
/// effective power limit.
///
/// * Above `capping_threshold × limit` → cap down to
///   `capping_target × limit`.
/// * Below `uncapping_threshold × limit` → remove caps.
/// * In between → hold (hysteresis kills oscillation).
///
/// Every deployed controller runs [`PAPER_BANDS`], which is also the
/// default.
///
/// # Example
///
/// ```
/// use dynamo_controller::ThreeBandConfig;
///
/// let bands = ThreeBandConfig::default();
/// assert_eq!(bands.capping_threshold, 0.99);
/// assert_eq!(bands.capping_target, 0.95);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThreeBandConfig {
    /// Fraction of the limit above which capping triggers.
    pub capping_threshold: f64,
    /// Fraction of the limit capping aims for.
    pub capping_target: f64,
    /// Fraction of the limit below which uncapping triggers.
    pub uncapping_threshold: f64,
}

/// The bands every leaf and upper controller runs (§III-C2): the
/// capping threshold "is typically 99% of the limit of the breaker" and
/// the capping target "is conservatively chosen to be 5% below the
/// breaker limit for safety"; uncapping below 90% leaves a 5% hold band
/// under the target.
pub const PAPER_BANDS: ThreeBandConfig = ThreeBandConfig {
    capping_threshold: 0.99,
    capping_target: 0.95,
    uncapping_threshold: 0.90,
};

// The ordering `ThreeBandConfig::new` checks.
const _: () = assert!(
    0.0 < PAPER_BANDS.uncapping_threshold
        && PAPER_BANDS.uncapping_threshold < PAPER_BANDS.capping_target
        && PAPER_BANDS.capping_target < PAPER_BANDS.capping_threshold
        && PAPER_BANDS.capping_threshold <= 1.0
);

impl Default for ThreeBandConfig {
    fn default() -> Self {
        PAPER_BANDS
    }
}

impl ThreeBandConfig {
    /// Creates a configuration, validating band ordering.
    ///
    /// # Panics
    ///
    /// Panics unless
    /// `0 < uncapping_threshold < capping_target < capping_threshold <= 1`
    /// — any other ordering oscillates or never acts.
    pub fn new(capping_threshold: f64, capping_target: f64, uncapping_threshold: f64) -> Self {
        assert!(
            0.0 < uncapping_threshold
                && uncapping_threshold < capping_target
                && capping_target < capping_threshold
                && capping_threshold <= 1.0,
            "bands must satisfy 0 < uncap ({uncapping_threshold}) < target ({capping_target}) \
             < cap ({capping_threshold}) <= 1"
        );
        ThreeBandConfig {
            capping_threshold,
            capping_target,
            uncapping_threshold,
        }
    }

    /// The absolute capping threshold for a given limit.
    pub fn threshold_power(&self, limit: Power) -> Power {
        limit * self.capping_threshold
    }

    /// The absolute capping target for a given limit.
    pub fn target_power(&self, limit: Power) -> Power {
        limit * self.capping_target
    }

    /// The absolute uncapping threshold for a given limit.
    pub fn uncap_power(&self, limit: Power) -> Power {
        limit * self.uncapping_threshold
    }
}

/// The outcome of a three-band comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BandDecision {
    /// Aggregated power breached the capping threshold; remove
    /// `total_cut` to reach the capping target.
    Cap {
        /// Power to shed.
        total_cut: Power,
    },
    /// Aggregated power fell below the uncapping threshold while caps
    /// were active; release them.
    Uncap,
    /// Power is between the bands (or below the cap threshold with no
    /// caps active); do nothing.
    Hold,
}

/// Applies the three-band algorithm (§III-C2).
///
/// `caps_active` provides the hysteresis: uncapping only fires if there
/// is something to uncap.
///
/// # Panics
///
/// Panics if `limit` is not strictly positive or `total` is not a valid
/// draw.
///
/// # Example
///
/// ```
/// use dynamo_controller::{three_band_decision, BandDecision, ThreeBandConfig};
/// use powerinfra::Power;
///
/// let bands = ThreeBandConfig::default();
/// let limit = Power::from_kilowatts(100.0);
/// let hot = Power::from_kilowatts(99.5);
/// match three_band_decision(hot, limit, bands, false) {
///     BandDecision::Cap { total_cut } => {
///         assert!((total_cut.as_kilowatts() - 4.5).abs() < 1e-9)
///     }
///     other => panic!("expected a cap, got {other:?}"),
/// }
/// ```
pub fn three_band_decision(
    total: Power,
    limit: Power,
    bands: ThreeBandConfig,
    caps_active: bool,
) -> BandDecision {
    assert!(
        limit.as_watts() > 0.0,
        "limit must be positive, got {limit}"
    );
    assert!(total.is_valid_draw(), "invalid aggregated power {total:?}");
    if total >= bands.threshold_power(limit) {
        BandDecision::Cap {
            total_cut: total - bands.target_power(limit),
        }
    } else if caps_active && total <= bands.uncap_power(limit) {
        BandDecision::Uncap
    } else {
        BandDecision::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMIT: Power = Power::from_watts(100_000.0);

    fn decide(total_kw: f64, caps: bool) -> BandDecision {
        three_band_decision(
            Power::from_kilowatts(total_kw),
            LIMIT,
            ThreeBandConfig::default(),
            caps,
        )
    }

    #[test]
    fn above_threshold_caps_to_target() {
        match decide(99.5, false) {
            BandDecision::Cap { total_cut } => {
                assert!((total_cut.as_kilowatts() - 4.5).abs() < 1e-9);
            }
            other => panic!("expected cap, got {other:?}"),
        }
    }

    #[test]
    fn at_threshold_caps() {
        assert!(matches!(decide(99.0, false), BandDecision::Cap { .. }));
    }

    #[test]
    fn between_bands_holds_regardless_of_caps() {
        assert_eq!(decide(95.0, false), BandDecision::Hold);
        assert_eq!(decide(95.0, true), BandDecision::Hold);
        assert_eq!(decide(91.0, true), BandDecision::Hold);
    }

    #[test]
    fn below_uncap_threshold_uncapps_only_with_active_caps() {
        assert_eq!(decide(89.0, true), BandDecision::Uncap);
        assert_eq!(decide(89.0, false), BandDecision::Hold);
    }

    #[test]
    fn hysteresis_prevents_oscillation() {
        // A power level just below the capping target must neither cap
        // nor uncap — the band gap absorbs it.
        let steady = 94.0;
        assert_eq!(decide(steady, true), BandDecision::Hold);
        assert_eq!(decide(steady, false), BandDecision::Hold);
    }

    #[test]
    fn overload_far_beyond_limit_requests_a_big_cut() {
        match decide(130.0, false) {
            BandDecision::Cap { total_cut } => {
                assert!((total_cut.as_kilowatts() - 35.0).abs() < 1e-9);
            }
            other => panic!("expected cap, got {other:?}"),
        }
    }

    #[test]
    fn custom_bands_apply() {
        // Per-controller configurability (§III-C2: "we can configure the
        // capping and uncapping thresholds on a per-controller basis").
        let tight = ThreeBandConfig::new(0.9, 0.8, 0.7);
        let d = three_band_decision(Power::from_kilowatts(91.0), LIMIT, tight, false);
        match d {
            BandDecision::Cap { total_cut } => {
                assert!((total_cut.as_kilowatts() - 11.0).abs() < 1e-9);
            }
            other => panic!("expected cap, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "bands must satisfy")]
    fn inverted_bands_panic() {
        ThreeBandConfig::new(0.9, 0.95, 0.8);
    }

    #[test]
    #[should_panic(expected = "limit must be positive")]
    fn zero_limit_panics() {
        three_band_decision(
            Power::from_watts(1.0),
            Power::ZERO,
            ThreeBandConfig::default(),
            false,
        );
    }

    #[test]
    fn absolute_band_helpers() {
        let b = ThreeBandConfig::default();
        assert_eq!(b.threshold_power(LIMIT), Power::from_kilowatts(99.0));
        assert_eq!(b.target_power(LIMIT), Power::from_kilowatts(95.0));
        assert_eq!(b.uncap_power(LIMIT), Power::from_kilowatts(90.0));
    }
}
