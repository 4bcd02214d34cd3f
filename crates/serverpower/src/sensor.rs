//! Power sensors and the sensorless estimation model (§III-B).

use dcsim::SimRng;
use powerinfra::Power;
use serde::{Deserialize, Serialize};

use crate::curve::PowerCurve;

/// An on-board power sensor.
///
/// "Nearly all new servers (2011 or newer) at Facebook are equipped with
/// an on-board power sensor, which provides accurate power readings."
/// The model adds small zero-mean gaussian noise plus quantization, which
/// is enough to exercise aggregation robustness in the controllers.
///
/// # Example
///
/// ```
/// use dcsim::SimRng;
/// use powerinfra::Power;
/// use serverpower::PowerSensor;
///
/// let sensor = PowerSensor::new(0.01); // 1% noise
/// let mut rng = SimRng::seed_from(1);
/// let reading = sensor.read(Power::from_watts(200.0), &mut rng);
/// assert!((reading.as_watts() - 200.0).abs() < 10.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerSensor {
    /// Relative standard deviation of the reading noise.
    noise_frac: f64,
    /// Reading resolution in watts (sensor firmware reports whole watts).
    resolution_watts: f64,
}

impl PowerSensor {
    /// Creates a sensor with the given relative noise (e.g. `0.01` = 1%).
    ///
    /// # Panics
    ///
    /// Panics if `noise_frac` is negative or not finite.
    pub fn new(noise_frac: f64) -> Self {
        assert!(
            noise_frac >= 0.0 && noise_frac.is_finite(),
            "invalid noise {noise_frac}"
        );
        PowerSensor {
            noise_frac,
            resolution_watts: 1.0,
        }
    }

    /// A noiseless, full-resolution sensor (useful in tests).
    pub fn ideal() -> Self {
        PowerSensor {
            noise_frac: 0.0,
            resolution_watts: 0.0,
        }
    }

    /// Reads `true_power` through the sensor.
    #[inline]
    pub fn read(&self, true_power: Power, rng: &mut SimRng) -> Power {
        let mut w = true_power.as_watts();
        if self.noise_frac > 0.0 {
            w *= 1.0 + rng.normal(0.0, self.noise_frac);
        }
        if self.resolution_watts > 0.0 {
            w = (w / self.resolution_watts).round() * self.resolution_watts;
        }
        Power::from_watts(w.max(0.0))
    }
}

/// The power estimation model for servers without sensors.
///
/// §III-B: "we build a power estimation model similar to [Isci &
/// Martonosi] by measuring server power with respect to CPU utilization
/// with a Yokogawa power meter. Once a server's power model is built, the
/// agent estimates its power on-the-fly using system statistics such as
/// CPU utilization, memory traffic, and network traffic."
///
/// The estimator owns a calibrated [`PowerCurve`] (the bench-measurement
/// step) and evaluates it against observed utilization, with a systematic
/// model error to reflect calibration drift.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerEstimator {
    curve: PowerCurve,
    /// Multiplicative systematic error of the fitted model (e.g. `0.03`
    /// means the model reads 3% high).
    bias_frac: f64,
    /// Weights for the secondary inputs; CPU dominates.
    memory_weight: Power,
    network_weight: Power,
}

impl PowerEstimator {
    /// Builds an estimator from a calibration curve.
    pub fn new(curve: PowerCurve) -> Self {
        PowerEstimator {
            curve,
            bias_frac: 0.0,
            memory_weight: Power::from_watts(15.0),
            network_weight: Power::from_watts(5.0),
        }
    }

    /// Applies a systematic calibration bias (fraction; may be negative).
    ///
    /// # Panics
    ///
    /// Panics unless `bias_frac` is within ±50% — anything larger is a
    /// broken calibration, not a model.
    pub fn with_bias(mut self, bias_frac: f64) -> Self {
        assert!(
            bias_frac.abs() <= 0.5,
            "implausible calibration bias {bias_frac}"
        );
        self.bias_frac = bias_frac;
        self
    }

    /// Estimates power from CPU utilization alone.
    pub fn estimate(&self, cpu_utilization: f64) -> Power {
        self.estimate_full(cpu_utilization, 0.0, 0.0)
    }

    /// Estimates power from CPU utilization plus normalized memory and
    /// network activity in `[0, 1]`.
    pub fn estimate_full(&self, cpu: f64, memory: f64, network: f64) -> Power {
        let base = self.curve.power_at(cpu);
        let extras = self.memory_weight * memory.clamp(0.0, 1.0)
            + self.network_weight * network.clamp(0.0, 1.0);
        (base + extras) * (1.0 + self.bias_frac)
    }

    /// The underlying calibration curve.
    pub fn curve(&self) -> &PowerCurve {
        &self.curve
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::ServerGeneration;

    #[test]
    fn ideal_sensor_is_exact() {
        let s = PowerSensor::ideal();
        let mut rng = SimRng::seed_from(1);
        let p = Power::from_watts(213.7);
        assert_eq!(s.read(p, &mut rng), p);
    }

    #[test]
    fn noisy_sensor_is_unbiased() {
        let s = PowerSensor::new(0.02);
        let mut rng = SimRng::seed_from(2);
        let truth = Power::from_watts(250.0);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| s.read(truth, &mut rng).as_watts())
            .sum::<f64>()
            / n as f64;
        assert!((mean - 250.0).abs() < 0.5, "biased sensor: mean {mean}");
    }

    #[test]
    fn sensor_quantizes_to_whole_watts() {
        let s = PowerSensor::new(0.0);
        let mut rng = SimRng::seed_from(3);
        let r = s.read(Power::from_watts(199.4), &mut rng);
        assert_eq!(r.as_watts(), 199.0);
    }

    #[test]
    fn sensor_never_reads_negative() {
        let s = PowerSensor::new(2.0); // absurd noise to force negatives pre-clamp
        let mut rng = SimRng::seed_from(4);
        for _ in 0..1000 {
            assert!(s.read(Power::from_watts(5.0), &mut rng).as_watts() >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "invalid noise")]
    fn negative_noise_panics() {
        PowerSensor::new(-0.1);
    }

    #[test]
    fn estimator_tracks_curve() {
        let curve = ServerGeneration::Westmere2011.power_curve();
        let est = PowerEstimator::new(curve.clone());
        for i in 0..=10 {
            let u = i as f64 / 10.0;
            assert_eq!(est.estimate(u), curve.power_at(u));
        }
    }

    #[test]
    fn estimator_bias_shifts_readings() {
        let curve = ServerGeneration::Westmere2011.power_curve();
        let est = PowerEstimator::new(curve.clone()).with_bias(0.05);
        let raw = curve.power_at(0.5).as_watts();
        let biased = est.estimate(0.5).as_watts();
        assert!((biased - raw * 1.05).abs() < 1e-9);
    }

    #[test]
    fn secondary_inputs_add_power() {
        let est = PowerEstimator::new(ServerGeneration::Haswell2015.power_curve());
        let base = est.estimate(0.5);
        let loaded = est.estimate_full(0.5, 1.0, 1.0);
        assert_eq!((loaded - base).as_watts(), 20.0);
        // Out-of-range activity clamps rather than extrapolating.
        let clamped = est.estimate_full(0.5, 7.0, -3.0);
        assert_eq!((clamped - base).as_watts(), 15.0);
    }

    #[test]
    #[should_panic(expected = "implausible calibration bias")]
    fn huge_bias_panics() {
        let _ = PowerEstimator::new(ServerGeneration::Haswell2015.power_curve()).with_bias(0.9);
    }
}
