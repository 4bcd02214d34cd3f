//! DC Uninterruptible Power Supplies (§II-A).
//!
//! "Each RPP supplies power to (1) the racks in its row and (2) a set of
//! DC Uninterruptible Power Supplies (DCUPS). Each DCUPS provides 90 s
//! of power backup to six racks." Dynamo neither monitors nor controls
//! DCUPS, but they determine how long a subtree rides through an
//! upstream interruption — the window an operator has during events
//! like Figure 12's before servers actually go dark.

use dcsim::snap::{ConfigDigest, SnapError, SnapReader, SnapWriter};
use dcsim::SimDuration;
use serde::{Deserialize, Serialize};

use crate::units::Power;

/// Battery state of one DCUPS unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DcupsState {
    /// Utility power present; battery charged or charging.
    Standby,
    /// Utility power lost; battery carrying the load.
    Discharging,
    /// Battery exhausted; the backed racks are dark.
    Depleted,
}

/// One DCUPS unit: a battery sized to carry its design load for a fixed
/// ride-through time (90 s per the OCP spec), with recharge on utility
/// return.
///
/// # Example
///
/// ```
/// use dcsim::SimDuration;
/// use powerinfra::{Dcups, DcupsState, Power};
///
/// // Sized for six 12.6 kW racks.
/// let mut ups = Dcups::new(Power::from_kilowatts(75.6));
/// // Utility drops; the unit carries the load...
/// let load = Power::from_kilowatts(60.0);
/// assert_eq!(ups.step(false, load, SimDuration::from_secs(30)), DcupsState::Discharging);
/// // ...for longer than 90 s at partial load.
/// for _ in 0..80 {
///     ups.step(false, load, SimDuration::from_secs(1));
/// }
/// assert_eq!(ups.state(), DcupsState::Discharging);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dcups {
    /// Design load the 90 s rating is quoted against.
    design_load: Power,
    /// Energy capacity in joules (watt-seconds).
    capacity_j: f64,
    /// Remaining charge in joules.
    charge_j: f64,
    /// Recharge power as a fraction of design load.
    recharge_frac: f64,
    state: DcupsState,
}

/// OCP ride-through rating.
pub const RIDE_THROUGH: SimDuration = SimDuration::from_secs(90);

impl Dcups {
    /// Creates a fully-charged unit sized to carry `design_load` for the
    /// OCP 90-second rating.
    ///
    /// # Panics
    ///
    /// Panics if `design_load` is not strictly positive.
    pub fn new(design_load: Power) -> Self {
        Self::with_recharge_frac(design_load, 0.1)
    }

    /// Creates a fully-charged unit with an explicit recharge rate,
    /// expressed as a fraction of design load (the classic unit
    /// recharges at a tenth of design load).
    ///
    /// # Panics
    ///
    /// Panics if `design_load` is not strictly positive or
    /// `recharge_frac` is outside `(0, 1]`.
    pub fn with_recharge_frac(design_load: Power, recharge_frac: f64) -> Self {
        assert!(design_load.as_watts() > 0.0, "design load must be positive");
        assert!(
            recharge_frac > 0.0 && recharge_frac <= 1.0,
            "recharge fraction {recharge_frac} outside (0, 1]"
        );
        let capacity_j = design_load.as_watts() * RIDE_THROUGH.as_secs_f64();
        Dcups {
            design_load,
            capacity_j,
            charge_j: capacity_j,
            recharge_frac,
            state: DcupsState::Standby,
        }
    }

    /// Folds the unit's configuration, its sizing (design load,
    /// capacity, recharge rate), into its section's digest.
    pub fn fold_config(&self, d: &mut ConfigDigest) {
        d.put_f64(self.design_load.as_watts());
        d.put_f64(self.capacity_j);
        d.put_f64(self.recharge_frac);
    }

    /// Writes the unit's state: its charge and state. The sizing is
    /// configuration ([`Dcups::fold_config`]).
    pub fn save(&self, w: &mut SnapWriter) {
        w.put_f64(self.charge_j);
        w.put_u8(match self.state {
            DcupsState::Standby => 0,
            DcupsState::Discharging => 1,
            DcupsState::Depleted => 2,
        });
    }

    /// Loads what [`Dcups::save`] wrote into this unit. The stored
    /// charge must lie within the capacity, or the difference is noted
    /// ([`SnapReader::mismatch`]) and the unit stays as it is.
    pub fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let charge_j = r.get_f64()?;
        let state = match r.get_u8()? {
            0 => DcupsState::Standby,
            1 => DcupsState::Discharging,
            2 => DcupsState::Depleted,
            other => return Err(SnapError::Corrupt(format!("bad DCUPS state {other}"))),
        };
        // `contains` also refuses a NaN.
        if (0.0..=self.capacity_j).contains(&charge_j) {
            (self.charge_j, self.state) = (charge_j, state);
        } else {
            r.mismatch(SnapError::Corrupt(format!(
                "DCUPS in snapshot ({state:?} holding {charge_j} J) is not a state of the \
                 configured one ({self:?})"
            )));
        }
        Ok(())
    }

    /// The design load.
    pub fn design_load(&self) -> Power {
        self.design_load
    }

    /// The recharge rate as a fraction of design load.
    pub fn recharge_frac(&self) -> f64 {
        self.recharge_frac
    }

    /// Energy capacity in joules.
    pub fn capacity_joules(&self) -> f64 {
        self.capacity_j
    }

    /// Remaining charge in joules.
    pub fn charge_joules(&self) -> f64 {
        self.charge_j
    }

    /// The charge-reserve floor (joules) that preserves the full
    /// [`RIDE_THROUGH`] outage rating at `load`: a demand-response
    /// controller discharging this unit on purpose must stop here, or
    /// a real utility outage arriving mid-event would go dark early.
    pub fn reserve_floor_joules(&self, load: Power) -> f64 {
        (load.as_watts().max(0.0) * RIDE_THROUGH.as_secs_f64()).min(self.capacity_j)
    }

    /// Energy (joules) available for intentional discharge above the
    /// reserve floor at `load`. Zero when the unit is at or below the
    /// floor.
    pub fn available_discharge_joules(&self, load: Power) -> f64 {
        (self.charge_j - self.reserve_floor_joules(load)).max(0.0)
    }

    /// Remaining charge as a fraction of capacity.
    pub fn charge_fraction(&self) -> f64 {
        self.charge_j / self.capacity_j
    }

    /// Current state.
    pub fn state(&self) -> DcupsState {
        self.state
    }

    /// Time the battery can carry `load` from its current charge, or
    /// `None` for a non-positive load (it lasts indefinitely).
    #[cfg(test)]
    pub fn runtime_at(&self, load: Power) -> Option<SimDuration> {
        if load.as_watts() <= 0.0 {
            return None;
        }
        Some(SimDuration::from_secs_f64(self.charge_j / load.as_watts()))
    }

    /// Advances the unit by `dt`. `utility_present` is the upstream
    /// supply condition; `load` is the racks' current draw.
    ///
    /// Returns the post-step state.
    ///
    /// # Panics
    ///
    /// Panics if `load` is not a valid draw.
    pub fn step(&mut self, utility_present: bool, load: Power, dt: SimDuration) -> DcupsState {
        assert!(load.is_valid_draw(), "invalid DCUPS load {load:?}");
        if utility_present {
            // Recharge at `recharge_frac` of design load until full.
            let recharge = self.design_load.as_watts() * self.recharge_frac * dt.as_secs_f64();
            self.charge_j = (self.charge_j + recharge).min(self.capacity_j);
            self.state = DcupsState::Standby;
        } else {
            self.charge_j -= load.as_watts() * dt.as_secs_f64();
            if self.charge_j <= 0.0 {
                self.charge_j = 0.0;
                self.state = DcupsState::Depleted;
            } else {
                self.state = DcupsState::Discharging;
            }
        }
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn six_racks() -> Dcups {
        Dcups::new(Power::from_kilowatts(6.0 * 12.6))
    }

    #[test]
    fn rides_through_exactly_90s_at_design_load() {
        let mut ups = six_racks();
        let load = ups.design_load();
        let mut elapsed = 0;
        while ups.step(false, load, SimDuration::from_secs(1)) != DcupsState::Depleted {
            elapsed += 1;
            assert!(elapsed < 200, "never depleted");
        }
        assert!(
            (89..=91).contains(&elapsed),
            "ride-through {elapsed}s, spec 90s"
        );
    }

    #[test]
    fn lasts_longer_at_partial_load() {
        let ups = six_racks();
        let runtime = ups.runtime_at(ups.design_load() * 0.5).unwrap();
        assert_eq!(runtime.as_secs(), 180);
    }

    #[test]
    fn zero_load_runs_forever() {
        let ups = six_racks();
        assert!(ups.runtime_at(Power::ZERO).is_none());
    }

    #[test]
    fn recharges_on_utility_return() {
        let mut ups = six_racks();
        let load = ups.design_load();
        for _ in 0..45 {
            ups.step(false, load, SimDuration::from_secs(1));
        }
        assert!((ups.charge_fraction() - 0.5).abs() < 0.02);
        // Recharge at 10% of design load: ~450 s back to full.
        let mut t = 0;
        while ups.charge_fraction() < 1.0 {
            ups.step(true, load, SimDuration::from_secs(1));
            t += 1;
            assert!(t < 1000, "never recharged");
        }
        assert!((440..=470).contains(&t), "recharged in {t}s");
        assert_eq!(ups.state(), DcupsState::Standby);
    }

    #[test]
    fn depleted_latches_until_recharged() {
        let mut ups = six_racks();
        let load = ups.design_load();
        for _ in 0..120 {
            ups.step(false, load, SimDuration::from_secs(1));
        }
        assert_eq!(ups.state(), DcupsState::Depleted);
        ups.step(true, load, SimDuration::from_secs(10));
        assert_eq!(ups.state(), DcupsState::Standby);
        assert!(ups.charge_fraction() > 0.0);
    }

    #[test]
    fn runtime_tracks_charge() {
        let mut ups = six_racks();
        let load = ups.design_load();
        assert_eq!(ups.runtime_at(load).unwrap().as_secs(), 90);
        for _ in 0..30 {
            ups.step(false, load, SimDuration::from_secs(1));
        }
        assert_eq!(ups.runtime_at(load).unwrap().as_secs(), 60);
    }

    #[test]
    #[should_panic(expected = "design load must be positive")]
    fn zero_design_load_panics() {
        Dcups::new(Power::ZERO);
    }

    #[test]
    fn recharge_frac_is_configurable() {
        let design = Power::from_kilowatts(75.6);
        let mut fast = Dcups::with_recharge_frac(design, 0.5);
        assert_eq!(fast.recharge_frac(), 0.5);
        for _ in 0..45 {
            fast.step(false, design, SimDuration::from_secs(1));
        }
        // Half empty; at 50% of design load it refills in ~90 s.
        let mut t = 0;
        while fast.charge_fraction() < 1.0 {
            fast.step(true, design, SimDuration::from_secs(1));
            t += 1;
            assert!(t < 200, "never recharged");
        }
        assert!((85..=95).contains(&t), "recharged in {t}s");
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn out_of_range_recharge_frac_panics() {
        Dcups::with_recharge_frac(Power::from_kilowatts(10.0), 1.5);
    }

    #[test]
    fn reserve_floor_preserves_ride_through() {
        let design = Power::from_kilowatts(10.0);
        let mut ups = Dcups::with_recharge_frac(design, 0.2);
        let load = design * 0.6;
        // Fully charged: available = capacity - load * 90 s.
        let avail = ups.available_discharge_joules(load);
        assert!((avail - 0.4 * ups.capacity_joules()).abs() < 1e-6);
        // Discharge down to exactly the floor: a subsequent outage at
        // `load` still rides the full 90 s.
        while ups.available_discharge_joules(load) > 0.0 {
            let take =
                Power::from_watts((ups.available_discharge_joules(load)).min(load.as_watts()));
            ups.step(false, take, SimDuration::from_secs(1));
        }
        let runtime = ups.runtime_at(load).unwrap();
        assert!(runtime >= RIDE_THROUGH, "{runtime:?} < 90s at the floor");
        // The floor never exceeds capacity, whatever the load.
        assert_eq!(
            ups.reserve_floor_joules(design * 5.0),
            ups.capacity_joules()
        );
        assert_eq!(ups.reserve_floor_joules(Power::ZERO), 0.0);
    }

    /// `saved` written as a section of one unit and loaded into `into`:
    /// what the load refused, if anything, and what `into` then holds.
    fn load(saved: &Dcups, mut into: Dcups) -> (Result<(), SnapError>, Dcups) {
        let mut w = SnapWriter::new();
        w.put_config(|d| saved.fold_config(d));
        saved.save(&mut w);
        let mut r = SnapReader::new(w.as_bytes());
        r.config("DCUPS", |d| into.fold_config(d))
            .and_then(|()| into.load(&mut r))
            .expect("a unit's bytes read");
        (r.finish("DCUPS"), into)
    }

    /// Whether `loaded` refused a file for its section's digest.
    fn digest_refused(loaded: &Result<(), SnapError>) -> bool {
        matches!(loaded, Err(SnapError::Corrupt(m)) if m.starts_with("DCUPS configuration"))
    }

    #[test]
    fn a_custom_recharge_frac_round_trips() {
        let configured = || Dcups::with_recharge_frac(Power::from_kilowatts(20.0), 0.25);
        let mut ups = configured();
        ups.step(
            false,
            Power::from_kilowatts(12.0),
            SimDuration::from_secs(30),
        );
        assert_eq!(load(&ups, configured()), (Ok(()), ups.clone()));
        // The classic unit recharges at a tenth: another configuration.
        let classic = Dcups::new(Power::from_kilowatts(20.0));
        assert!(digest_refused(&load(&ups, classic).0));
    }

    #[test]
    fn load_takes_charge_and_state_and_nothing_else() {
        let mut drained = six_racks();
        drained.step(false, drained.design_load(), SimDuration::from_secs(30));
        assert_eq!(load(&drained, six_racks()), (Ok(()), drained.clone()));
        // More charge than the battery holds, or none that is a number.
        for bad in [drained.capacity_j * 2.0, -1.0, f64::NAN] {
            let mut forged = drained.clone();
            forged.charge_j = bad;
            let (loaded, into) = load(&forged, six_racks());
            assert!(
                matches!(&loaded, Err(SnapError::Corrupt(m)) if m.contains("not a state")),
                "{bad}: {loaded:?}"
            );
            assert_eq!(into, six_racks(), "{bad}");
        }
        let bigger = Dcups::new(Power::from_kilowatts(100.0));
        assert!(digest_refused(&load(&drained, bigger).0));
    }
}
