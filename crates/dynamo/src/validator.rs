//! Breaker-reading cross-validation (§III-C1 and §VI).
//!
//! "Dynamo uses the power breaker readings only for validating that the
//! aggregated power from servers is correct", and §VI adds: "use the
//! (coarse-grained) power readings from the power breaker to validate
//! and dynamically tune the server power estimation and aggregation."
//!
//! Breakers at Facebook report power only at minute granularity, so the
//! validator consumes a 1-minute breaker sample per leaf device,
//! compares it against the controller's own server-sum aggregate,
//! maintains an exponentially-weighted correction factor, and raises an
//! alert when the two disagree persistently (broken sensors, stale
//! metadata, mis-wired rows).

use dcsim::snap::{SnapError, SnapReader, SnapWriter};
use dcsim::{CycleSchedule, SimDuration, SimRng, SimTime};
use powerinfra::{DeviceId, Power};

/// Per-device validation state.
#[derive(Debug, Clone)]
struct DeviceState {
    /// EWMA of breaker/aggregate ratio — the tuning factor §VI talks
    /// about. 1.0 means the aggregation is spot on.
    correction: f64,
    /// Consecutive samples with relative error above the alert band.
    bad_streak: u32,
    /// Total samples seen.
    samples: u64,
}

/// A persistent mismatch between a breaker reading and the controller's
/// aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationAlert {
    /// When the alert fired.
    pub at: SimTime,
    /// The leaf device whose aggregation looks wrong.
    pub device: DeviceId,
    /// The breaker's reading at that point.
    pub breaker: Power,
    /// The controller's aggregate at that point.
    pub aggregate: Power,
}

/// Validates leaf-controller aggregates against coarse breaker readings
/// and maintains per-device correction factors.
///
/// Feed it one `(device, breaker_reading, controller_aggregate)` triple
/// per device per validation interval via [`BreakerValidator::observe`].
#[derive(Debug)]
pub struct BreakerValidator {
    /// Relative error tolerated before a sample counts as "bad".
    tolerance: f64,
    /// Bad samples in a row before alerting.
    alert_streak: u32,
    /// Relative noise of the breaker's own metering.
    meter_noise: f64,
    states: Vec<Option<DeviceState>>,
    alerts: Vec<ValidationAlert>,
    schedule: CycleSchedule,
    rng: SimRng,
}

impl BreakerValidator {
    /// Creates a validator sampling at the breaker's native 1-minute
    /// granularity, tolerating 5% disagreement, alerting after 3
    /// consecutive bad minutes.
    pub fn new(device_count: usize, rng: SimRng) -> Self {
        let interval = SimDuration::from_secs(60);
        BreakerValidator {
            tolerance: 0.05,
            alert_streak: 3,
            meter_noise: 0.005,
            states: vec![None; device_count],
            alerts: Vec::new(),
            schedule: CycleSchedule::new(interval),
            rng,
        }
    }

    /// True when a validation pass is due at `now`.
    pub fn due(&self, now: SimTime) -> bool {
        self.schedule.due(now)
    }

    /// Marks the validation pass at `now` as done and schedules the
    /// next one.
    pub fn advance(&mut self, now: SimTime) {
        self.schedule.fire(now);
    }

    /// Observes one device: the true power at the breaker (metered with
    /// small noise) against the controller's server-sum aggregate.
    pub fn observe(&mut self, now: SimTime, device: DeviceId, true_power: Power, aggregate: Power) {
        let metered = true_power * (1.0 + self.rng.normal(0.0, self.meter_noise));
        let idx = device.index();
        let state = self.states[idx].get_or_insert(DeviceState {
            correction: 1.0,
            bad_streak: 0,
            samples: 0,
        });
        state.samples += 1;
        if aggregate.as_watts() <= 1.0 {
            // Nothing aggregated (blackout or empty device): skip.
            return;
        }
        let ratio = metered.as_watts() / aggregate.as_watts();
        // EWMA tune: slow enough to ignore transient skew, fast enough
        // to converge on a real calibration bias within ~10 minutes.
        state.correction = 0.9 * state.correction + 0.1 * ratio;
        let rel_err = (ratio - 1.0).abs();
        if rel_err > self.tolerance {
            state.bad_streak += 1;
            if state.bad_streak == self.alert_streak {
                self.alerts.push(ValidationAlert {
                    at: now,
                    device,
                    breaker: metered,
                    aggregate,
                });
            }
        } else {
            state.bad_streak = 0;
        }
    }

    /// The current correction factor for a device: multiply controller
    /// aggregates by this to match the breaker. `None` until the device
    /// has been observed.
    pub fn correction(&self, device: DeviceId) -> Option<f64> {
        self.states
            .get(device.index())?
            .as_ref()
            .map(|s| s.correction)
    }

    /// All alerts raised so far.
    pub fn alerts(&self) -> &[ValidationAlert] {
        &self.alerts
    }

    /// Saves the validator's dynamic state. The tolerance knobs are
    /// run configuration and not saved; the RNG stream must round-trip
    /// because every observation draws meter noise before any skip
    /// check.
    pub fn save(&self, w: &mut SnapWriter) {
        w.put_config(|d| self.schedule.fold_config(d));
        w.put_u64(self.states.len() as u64);
        for state in &self.states {
            match state {
                None => w.put_u8(0),
                Some(s) => {
                    w.put_u8(1);
                    w.put_f64(s.correction);
                    w.put_u32(s.bad_streak);
                    w.put_u64(s.samples);
                }
            }
        }
        w.put_u64(self.alerts.len() as u64);
        for a in &self.alerts {
            w.put_u64(a.at.as_millis());
            w.put_u32(a.device.index() as u32);
            w.put_f64(a.breaker.as_watts());
            w.put_f64(a.aggregate.as_watts());
        }
        self.schedule.save(w);
        self.rng.save(w);
    }

    /// Loads what [`BreakerValidator::save`] wrote into a validator
    /// built for the same topology.
    pub fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.config("validator", |d| self.schedule.fold_config(d))?;
        r.get_len(self.states.len(), "validated devices")?;
        for state in &mut self.states {
            *state = match r.get_u8()? {
                0 => None,
                1 => Some(DeviceState {
                    correction: r.get_f64()?,
                    bad_streak: r.get_u32()?,
                    samples: r.get_count()?,
                }),
                other => {
                    return Err(SnapError::Corrupt(format!(
                        "bad validator device-state tag {other}"
                    )))
                }
            };
            // A streak counts samples.
            if let Some(s) = state
                .as_ref()
                .filter(|s| u64::from(s.bad_streak) > s.samples)
            {
                return Err(SnapError::Corrupt(format!(
                    "validator streak of {} in {} samples",
                    s.bad_streak, s.samples
                )));
            }
        }
        self.alerts = r.get_vec(|r| {
            Ok(ValidationAlert {
                at: SimTime::from_millis(r.get_u64()?),
                device: DeviceId::from_index(r.get_u32()? as usize),
                breaker: Power::from_watts(r.get_f64()?),
                aggregate: Power::from_watts(r.get_f64()?),
            })
        })?;
        self.schedule.load(r)?;
        self.rng = SimRng::decode(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerinfra::{DeviceLevel, TopologyBuilder};

    fn device() -> DeviceId {
        let topo = TopologyBuilder::new()
            .sbs_per_msb(1)
            .rpps_per_sb(1)
            .racks_per_rpp(1)
            .servers_per_rack(1)
            .build();
        topo.devices_at(DeviceLevel::Rpp)[0]
    }

    fn validator() -> BreakerValidator {
        BreakerValidator::new(8, SimRng::seed_from(9))
    }

    #[test]
    fn agreeing_readings_raise_no_alert() {
        let dev = device();
        let mut v = validator();
        for m in 0..30 {
            let p = Power::from_kilowatts(100.0);
            v.observe(SimTime::from_mins(m), dev, p, p);
        }
        assert!(v.alerts().is_empty());
        let corr = v.correction(dev).unwrap();
        assert!((corr - 1.0).abs() < 0.01, "correction drifted: {corr}");
    }

    #[test]
    fn persistent_mismatch_alerts_once_per_streak() {
        let dev = device();
        let mut v = validator();
        for m in 0..10 {
            v.observe(
                SimTime::from_mins(m),
                dev,
                Power::from_kilowatts(100.0),
                Power::from_kilowatts(80.0), // aggregate reads 20% low
            );
        }
        assert_eq!(v.alerts().len(), 1, "one alert per sustained streak");
        assert_eq!(v.alerts()[0].device, dev);
    }

    #[test]
    fn transient_mismatch_does_not_alert() {
        let dev = device();
        let mut v = validator();
        for m in 0..20 {
            let aggregate = if m % 3 == 0 {
                Power::from_kilowatts(85.0) // occasional bad minute
            } else {
                Power::from_kilowatts(100.0)
            };
            v.observe(
                SimTime::from_mins(m),
                dev,
                Power::from_kilowatts(100.0),
                aggregate,
            );
        }
        assert!(v.alerts().is_empty(), "isolated bad minutes must not alert");
    }

    #[test]
    fn correction_converges_to_the_true_bias() {
        let dev = device();
        let mut v = validator();
        // Aggregation reads 10% low -> true/aggregate ratio is ~1.111.
        for m in 0..60 {
            v.observe(
                SimTime::from_mins(m),
                dev,
                Power::from_kilowatts(100.0),
                Power::from_kilowatts(90.0),
            );
        }
        let corr = v.correction(dev).unwrap();
        assert!((corr - 100.0 / 90.0).abs() < 0.02, "correction {corr}");
    }

    #[test]
    fn blackout_samples_are_skipped() {
        let dev = device();
        let mut v = validator();
        for m in 0..10 {
            v.observe(SimTime::from_mins(m), dev, Power::ZERO, Power::ZERO);
        }
        assert!(v.alerts().is_empty());
        // Correction untouched at its prior.
        assert_eq!(v.correction(dev), Some(1.0));
    }

    #[test]
    fn schedule_runs_on_the_minute() {
        let mut v = validator();
        assert!(v.due(SimTime::ZERO));
        v.advance(SimTime::ZERO);
        assert!(!v.due(SimTime::from_secs(59)));
        assert!(v.due(SimTime::from_secs(60)));
    }

    fn saved(v: &BreakerValidator) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.save(&mut w);
        w.into_bytes()
    }

    /// A streak counts bad samples, so one longer than the device's
    /// sample count is no state a run reaches: a file saying so loads
    /// as a typed error. The honest bytes load and save back unchanged.
    #[test]
    fn load_rejects_a_streak_longer_than_its_samples() {
        let dev = device();
        let mut v = validator();
        for m in 0..4 {
            let (p, low) = (Power::from_kilowatts(100.0), Power::from_kilowatts(80.0));
            v.observe(SimTime::from_mins(m), dev, p, low);
        }
        let honest = saved(&v);
        let mut twin = validator();
        twin.load(&mut SnapReader::new(&honest))
            .expect("honest bytes load");
        assert_eq!(saved(&twin), honest);

        let state = twin.states[dev.index()].as_mut().expect("observed");
        state.bad_streak = state.samples as u32 + 1;
        let forged = saved(&twin);
        match validator().load(&mut SnapReader::new(&forged)) {
            Err(SnapError::Corrupt(msg)) => {
                assert!(msg.contains("validator streak of 5 in 4 samples"), "{msg}")
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
    }
}
