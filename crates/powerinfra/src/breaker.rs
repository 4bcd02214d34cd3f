//! Circuit breaker models.
//!
//! §II-A of the paper measures breaker trip time as a function of power
//! overdraw (Figure 3) and makes two observations this module reproduces:
//!
//! 1. A breaker trips only when (a) draw exceeds the rating and (b) the
//!    overdraw is *sustained* for a time inversely related to its size.
//! 2. Lower levels of the hierarchy tolerate relatively more overdraw:
//!    an RPP sustains a 40% overdraw for ~60 s while an MSB sustains only
//!    ~15% for the same period; RPPs and racks hold a 10% overdraw for
//!    ~17 minutes; an MSB trips on a ~5% overdraw in as little as ~2 min.
//!
//! The model is the classic inverse-time (thermal) characteristic
//! `t_trip(r) = K / (r - 1)^alpha` anchored to those published points,
//! integrated as a thermal accumulator so that arbitrary power waveforms —
//! not just step overloads — trip correctly.

use dcsim::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use dcsim::SimDuration;
use serde::{Deserialize, Serialize};

use crate::units::Power;

/// An inverse-time trip characteristic: how long a breaker sustains a
/// given normalized overload before tripping.
///
/// Calibrated per hierarchy level from the paper's Figure 3 anchor points.
///
/// # Example
///
/// ```
/// use powerinfra::TripCurve;
///
/// let rpp = TripCurve::rpp();
/// // ~10% overdraw sustained for around 17 minutes (paper §II-A).
/// let t = rpp.trip_time(1.10).unwrap().as_secs();
/// assert!((900..1200).contains(&t), "got {t}s");
/// // Larger overloads trip much faster.
/// assert!(rpp.trip_time(1.4).unwrap() < rpp.trip_time(1.1).unwrap());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TripCurve {
    /// Scale constant `K` in seconds.
    k: f64,
    /// Curve steepness `alpha`.
    alpha: f64,
    /// Fastest possible trip (magnetic/instantaneous region), seconds.
    min_trip_secs: f64,
    /// Overload ratio at which the instantaneous region begins.
    instant_ratio: f64,
}

impl TripCurve {
    /// Builds a curve from two anchor points `(ratio, seconds)` read off a
    /// manufacturer chart, as we did from Figure 3.
    ///
    /// # Panics
    ///
    /// Panics unless `1 < r1 < r2` and `t1 > t2 > 0` (inverse-time curves
    /// are strictly decreasing).
    pub fn from_anchors(r1: f64, t1: f64, r2: f64, t2: f64) -> Self {
        assert!(
            r1 > 1.0 && r2 > r1,
            "anchor ratios must satisfy 1 < r1 < r2"
        );
        assert!(t1 > t2 && t2 > 0.0, "anchor times must satisfy t1 > t2 > 0");
        let alpha = (t1 / t2).ln() / ((r2 - 1.0) / (r1 - 1.0)).ln();
        let k = t1 * (r1 - 1.0).powf(alpha);
        TripCurve {
            k,
            alpha,
            min_trip_secs: 2.0,
            instant_ratio: 3.0,
        }
    }

    /// The curve for rack-level breakers (12.6 kW shelf).
    ///
    /// Anchors: 10% overdraw ≈ 20 min, 40% overdraw ≈ 80 s. Racks are
    /// the most overdraw-tolerant devices in Figure 3 (the anchors are
    /// chosen so the rack curve dominates the RPP curve over the whole
    /// 1×–2× range, as in the figure).
    pub fn rack() -> Self {
        TripCurve::from_anchors(1.10, 1200.0, 1.40, 80.0)
    }

    /// The curve for RPP breakers (190 kW panel).
    ///
    /// Anchors: 10% ≈ 17 min, 40% ≈ 60 s (paper §II-A).
    pub fn rpp() -> Self {
        TripCurve::from_anchors(1.10, 1020.0, 1.40, 60.0)
    }

    /// The curve for SB breakers (1.25 MW switch board).
    ///
    /// Intermediate tolerance: 10% ≈ 8 min, 30% ≈ 60 s.
    pub fn sb() -> Self {
        TripCurve::from_anchors(1.10, 480.0, 1.30, 60.0)
    }

    /// The curve for MSB breakers (2.5 MW main switch board).
    ///
    /// Anchors: ~5% overdraw trips in ≈ 2 min (paper §II-C); a 15%
    /// overdraw in ≈ 40 s, slightly more conservative than the paper's
    /// ≈ 60 s so the MSB is the fastest-tripping level across the whole
    /// 1×–2× range of Figure 3.
    pub fn msb() -> Self {
        TripCurve::from_anchors(1.05, 120.0, 1.15, 40.0)
    }

    /// Time a constant overload of `ratio` (draw / rating) is sustained
    /// before the breaker trips. Returns `None` when `ratio <= 1`
    /// (a breaker under its rating never trips).
    pub fn trip_time(&self, ratio: f64) -> Option<SimDuration> {
        if ratio <= 1.0 {
            return None;
        }
        let secs = if ratio >= self.instant_ratio {
            self.min_trip_secs
        } else {
            (self.k / (ratio - 1.0).powf(self.alpha)).max(self.min_trip_secs)
        };
        Some(SimDuration::from_secs_f64(secs))
    }

    /// The heating rate contributed by running at `ratio` for one second,
    /// as a fraction of the trip threshold. Zero at or below rating.
    fn heat_rate(&self, ratio: f64) -> f64 {
        match self.trip_time(ratio) {
            Some(t) => 1.0 / t.as_secs_f64(),
            None => 0.0,
        }
    }
}

/// The reported condition of a [`Breaker`] after a simulation step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerStatus {
    /// Draw at or below rating; thermal state cooling toward zero.
    Nominal,
    /// Draw above rating; the thermal accumulator is charging. The breaker
    /// has not tripped yet.
    Overloaded,
    /// The breaker has tripped. It stays tripped until [`Breaker::reset`].
    Tripped,
}

impl BreakerStatus {
    /// The status's stable snapshot code.
    pub fn snap_code(self) -> u8 {
        match self {
            BreakerStatus::Nominal => 0,
            BreakerStatus::Overloaded => 1,
            BreakerStatus::Tripped => 2,
        }
    }

    /// Decodes a status from its stable snapshot code.
    pub fn from_snap_code(code: u8) -> Result<Self, SnapError> {
        match code {
            0 => Ok(BreakerStatus::Nominal),
            1 => Ok(BreakerStatus::Overloaded),
            2 => Ok(BreakerStatus::Tripped),
            other => Err(SnapError::Corrupt(format!("bad breaker status {other}"))),
        }
    }
}

/// A stateful circuit breaker: a [`TripCurve`] plus a thermal accumulator.
///
/// Feed it the instantaneous draw each simulation tick via
/// [`Breaker::step`]; it integrates heating when overloaded and cooling
/// when not, and latches [`BreakerStatus::Tripped`] once the accumulated
/// thermal state crosses the trip threshold. This reproduces the paper's
/// observation that breakers tolerate brief spikes but trip on sustained
/// overdraw.
///
/// # Example
///
/// ```
/// use dcsim::SimDuration;
/// use powerinfra::{Breaker, BreakerStatus, Power, TripCurve};
///
/// let mut b = Breaker::new(Power::from_kilowatts(190.0), TripCurve::rpp());
/// // A brief 40% spike does not trip...
/// for _ in 0..10 {
///     b.step(Power::from_kilowatts(266.0), SimDuration::from_secs(1));
/// }
/// assert_eq!(b.status(), BreakerStatus::Overloaded);
/// // ...but a sustained one does.
/// for _ in 0..120 {
///     b.step(Power::from_kilowatts(266.0), SimDuration::from_secs(1));
/// }
/// assert_eq!(b.status(), BreakerStatus::Tripped);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Breaker {
    rating: Power,
    curve: TripCurve,
    /// Thermal accumulator in `[0, 1]`; trips at 1.
    heat: f64,
    status: BreakerStatus,
    /// Cooling time constant: seconds for a fully heated breaker to shed
    /// ~63% of its thermal state once the overload clears.
    cooling_tau_secs: f64,
}

impl Breaker {
    /// Creates a breaker with the given rating and trip characteristic.
    ///
    /// # Panics
    ///
    /// Panics if `rating` is not strictly positive.
    pub fn new(rating: Power, curve: TripCurve) -> Self {
        assert!(
            rating.as_watts() > 0.0,
            "breaker rating must be positive, got {rating}"
        );
        Breaker {
            rating,
            curve,
            heat: 0.0,
            status: BreakerStatus::Nominal,
            cooling_tau_secs: 120.0,
        }
    }

    /// The rated power of this breaker.
    pub fn rating(&self) -> Power {
        self.rating
    }

    /// The trip characteristic.
    pub fn curve(&self) -> &TripCurve {
        &self.curve
    }

    /// Current status (latched once tripped).
    pub fn status(&self) -> BreakerStatus {
        self.status
    }

    /// Current thermal accumulator level in `[0, 1]`.
    pub fn thermal_state(&self) -> f64 {
        self.heat
    }

    /// Advances the thermal model by `dt` with instantaneous draw `draw`,
    /// returning the post-step status.
    ///
    /// A tripped breaker stays tripped regardless of the draw.
    ///
    /// # Panics
    ///
    /// Panics if `draw` is not a valid (finite, non-negative) power draw.
    pub fn step(&mut self, draw: Power, dt: SimDuration) -> BreakerStatus {
        assert!(draw.is_valid_draw(), "invalid breaker draw: {draw:?}");
        if self.status == BreakerStatus::Tripped {
            return self.status;
        }
        let ratio = draw.ratio_of(self.rating);
        let dt_secs = dt.as_secs_f64();
        if ratio > 1.0 {
            self.heat += self.curve.heat_rate(ratio) * dt_secs;
            if self.heat >= 1.0 {
                self.heat = 1.0;
                self.status = BreakerStatus::Tripped;
            } else {
                self.status = BreakerStatus::Overloaded;
            }
        } else {
            // Exponential cool-down toward zero.
            self.heat *= (-dt_secs / self.cooling_tau_secs).exp();
            if self.heat < 1e-9 {
                self.heat = 0.0;
            }
            self.status = BreakerStatus::Nominal;
        }
        self.status
    }

    /// Manually resets a tripped breaker (operator action after an
    /// outage). Clears the thermal state.
    pub fn reset(&mut self) {
        self.heat = 0.0;
        self.status = BreakerStatus::Nominal;
    }

    /// This breaker in the thermal state of `saved`: heat and status
    /// are taken from it and nothing else. Rating, trip curve and
    /// cooling constant are configuration, so `saved` must carry this
    /// breaker's own, and a thermal level in `[0, 1]`.
    pub fn restored(&self, saved: &Breaker) -> Result<Breaker, SnapError> {
        let restored = Breaker {
            heat: saved.heat,
            status: saved.status,
            ..self.clone()
        };
        // `!=` also refuses a NaN anywhere in `saved`.
        if restored != *saved || !(0.0..=1.0).contains(&saved.heat) {
            return Err(SnapError::Corrupt(format!(
                "breaker in snapshot ({saved:?}) is not a state of the configured one ({self:?})"
            )));
        }
        Ok(restored)
    }
}

impl Snapshot for Breaker {
    const KIND: &'static str = "powerinfra.Breaker";
    const VERSION: u32 = 1;

    fn encode_body(&self, w: &mut SnapWriter) {
        w.put_f64(self.rating.as_watts());
        w.put_f64(self.curve.k);
        w.put_f64(self.curve.alpha);
        w.put_f64(self.curve.min_trip_secs);
        w.put_f64(self.curve.instant_ratio);
        w.put_f64(self.heat);
        w.put_u8(self.status.snap_code());
        w.put_f64(self.cooling_tau_secs);
    }

    fn decode_body(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let rating = Power::from_watts(r.get_f64()?);
        if !(rating.as_watts() > 0.0 && rating.as_watts().is_finite()) {
            return Err(SnapError::Corrupt(format!("bad breaker rating {rating}")));
        }
        let curve = TripCurve {
            k: r.get_f64()?,
            alpha: r.get_f64()?,
            min_trip_secs: r.get_f64()?,
            instant_ratio: r.get_f64()?,
        };
        Ok(Breaker {
            rating,
            curve,
            heat: r.get_f64()?,
            status: BreakerStatus::from_snap_code(r.get_u8()?)?,
            cooling_tau_secs: r.get_f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_anchor_points_round_trip() {
        let c = TripCurve::from_anchors(1.1, 1000.0, 1.4, 60.0);
        let t1 = c.trip_time(1.1).unwrap().as_secs_f64();
        let t2 = c.trip_time(1.4).unwrap().as_secs_f64();
        assert!((t1 - 1000.0).abs() < 1.0, "t1={t1}");
        assert!((t2 - 60.0).abs() < 1.0, "t2={t2}");
    }

    #[test]
    fn under_rating_never_trips() {
        let c = TripCurve::rpp();
        assert!(c.trip_time(1.0).is_none());
        assert!(c.trip_time(0.5).is_none());
    }

    #[test]
    fn trip_time_monotonically_decreases() {
        for curve in [
            TripCurve::rack(),
            TripCurve::rpp(),
            TripCurve::sb(),
            TripCurve::msb(),
        ] {
            let mut prev = f64::INFINITY;
            let mut r = 1.01;
            while r <= 2.0 {
                let t = curve.trip_time(r).unwrap().as_secs_f64();
                assert!(t <= prev, "trip time must not increase with overload");
                prev = t;
                r += 0.01;
            }
        }
    }

    #[test]
    fn lower_levels_tolerate_more_overdraw() {
        // Paper: at 15-40% overdraw, rack/RPP sustain longer than SB/MSB.
        for ratio in [1.15, 1.2, 1.3, 1.4] {
            let rack = TripCurve::rack().trip_time(ratio).unwrap();
            let rpp = TripCurve::rpp().trip_time(ratio).unwrap();
            let sb = TripCurve::sb().trip_time(ratio).unwrap();
            let msb = TripCurve::msb().trip_time(ratio).unwrap();
            assert!(rack >= rpp, "rack {rack} < rpp {rpp} at {ratio}");
            assert!(rpp >= sb, "rpp {rpp} < sb {sb} at {ratio}");
            assert!(sb >= msb, "sb {sb} < msb {msb} at {ratio}");
        }
    }

    #[test]
    fn paper_anchor_rpp_10pct_17min() {
        let t = TripCurve::rpp().trip_time(1.10).unwrap().as_secs();
        assert!((960..1080).contains(&t), "expected ~17min, got {t}s");
    }

    #[test]
    fn paper_anchor_msb_5pct_2min() {
        let t = TripCurve::msb().trip_time(1.05).unwrap().as_secs();
        assert!((110..130).contains(&t), "expected ~2min, got {t}s");
    }

    #[test]
    fn paper_anchor_rpp_40pct_60s() {
        let t = TripCurve::rpp().trip_time(1.40).unwrap().as_secs();
        assert!((55..65).contains(&t), "expected ~60s, got {t}s");
    }

    #[test]
    fn instantaneous_region_floors_trip_time() {
        let c = TripCurve::rpp();
        let extreme = c.trip_time(5.0).unwrap();
        assert_eq!(extreme.as_secs_f64(), 2.0);
    }

    #[test]
    #[should_panic(expected = "anchor ratios")]
    fn bad_anchor_ratios_panic() {
        TripCurve::from_anchors(1.4, 100.0, 1.1, 60.0);
    }

    #[test]
    #[should_panic(expected = "anchor times")]
    fn bad_anchor_times_panic() {
        TripCurve::from_anchors(1.1, 60.0, 1.4, 100.0);
    }

    fn rpp_breaker() -> Breaker {
        Breaker::new(Power::from_kilowatts(190.0), TripCurve::rpp())
    }

    #[test]
    fn sustained_overload_trips_near_curve_time() {
        let mut b = rpp_breaker();
        let draw = Power::from_kilowatts(190.0 * 1.4);
        let expected = TripCurve::rpp().trip_time(1.4).unwrap().as_secs();
        let mut elapsed = 0;
        while b.step(draw, SimDuration::from_secs(1)) != BreakerStatus::Tripped {
            elapsed += 1;
            assert!(elapsed < 10 * expected, "breaker never tripped");
        }
        let diff = (elapsed as i64 - expected as i64).abs();
        assert!(diff <= 2, "tripped at {elapsed}s, curve says {expected}s");
    }

    #[test]
    fn brief_spike_then_recovery_does_not_trip() {
        let mut b = rpp_breaker();
        let spike = Power::from_kilowatts(190.0 * 1.3);
        let normal = Power::from_kilowatts(150.0);
        for _ in 0..20 {
            b.step(spike, SimDuration::from_secs(1));
        }
        assert_eq!(b.status(), BreakerStatus::Overloaded);
        for _ in 0..600 {
            b.step(normal, SimDuration::from_secs(1));
        }
        assert_eq!(b.status(), BreakerStatus::Nominal);
        assert!(b.thermal_state() < 0.01);
    }

    #[test]
    fn repeated_spikes_accumulate_heat() {
        // Spikes separated by short recovery windows should heat faster
        // than full cool-down would allow.
        let mut b = rpp_breaker();
        let spike = Power::from_kilowatts(190.0 * 1.5);
        let normal = Power::from_kilowatts(100.0);
        let mut tripped = false;
        for _ in 0..40 {
            for _ in 0..20 {
                if b.step(spike, SimDuration::from_secs(1)) == BreakerStatus::Tripped {
                    tripped = true;
                }
            }
            for _ in 0..5 {
                if b.status() != BreakerStatus::Tripped {
                    b.step(normal, SimDuration::from_secs(1));
                }
            }
            if tripped {
                break;
            }
        }
        assert!(tripped, "duty-cycled overload should eventually trip");
    }

    #[test]
    fn tripped_latches_until_reset() {
        let mut b = rpp_breaker();
        let draw = Power::from_kilowatts(190.0 * 2.0);
        while b.step(draw, SimDuration::from_secs(1)) != BreakerStatus::Tripped {}
        // Even at zero draw the breaker stays tripped.
        assert_eq!(
            b.step(Power::ZERO, SimDuration::from_secs(60)),
            BreakerStatus::Tripped
        );
        b.reset();
        assert_eq!(b.status(), BreakerStatus::Nominal);
        assert_eq!(b.thermal_state(), 0.0);
    }

    #[test]
    #[should_panic(expected = "rating must be positive")]
    fn zero_rating_panics() {
        Breaker::new(Power::ZERO, TripCurve::rpp());
    }

    #[test]
    #[should_panic(expected = "invalid breaker draw")]
    fn nan_draw_panics() {
        rpp_breaker().step(Power::from_watts(f64::NAN), SimDuration::from_secs(1));
    }

    /// `<= 0.0` lets NaN through, and a NaN rating panics the next
    /// step's `ratio_of`.
    #[test]
    fn a_rating_that_is_not_a_number_does_not_decode() {
        let mut w = SnapWriter::new();
        rpp_breaker().encode_body(&mut w);
        let mut bytes = w.into_bytes();
        for bad in [f64::NAN, f64::INFINITY, -1.0, 0.0] {
            bytes[..8].copy_from_slice(&bad.to_bits().to_le_bytes());
            let decoded = Breaker::decode_body(&mut SnapReader::new(&bytes));
            assert!(matches!(decoded, Err(SnapError::Corrupt(_))), "{bad}");
        }
    }

    #[test]
    fn restored_takes_the_thermal_state_and_nothing_else() {
        let mut hot = rpp_breaker();
        hot.step(Power::from_kilowatts(266.0), SimDuration::from_secs(10));
        let restored = rpp_breaker().restored(&hot).unwrap();
        assert_eq!(restored, hot);
        let mut overheated = hot.clone();
        overheated.heat = 1.5;
        assert!(rpp_breaker().restored(&overheated).is_err());
        overheated.heat = f64::NAN;
        assert!(rpp_breaker().restored(&overheated).is_err());
        let other = Breaker::new(Power::from_kilowatts(380.0), TripCurve::rpp());
        assert!(other.restored(&hot).is_err());
    }
}
