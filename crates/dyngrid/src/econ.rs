//! The site economic controller: grid signals in, one site-wide
//! contractual limit out.
//!
//! Sits *above* Dynamo's capping hierarchy on a deliberately slow
//! [`CycleSchedule`] ([`ECON_PERIOD`], versus 3 s leaf / 9 s upper
//! cycles). Each cycle it reduces the current [`GridSignal`] to a
//! single **utility target** — the most binding of the curtailment
//! limit, the price-response target and the under-frequency droop
//! target — and moves the pushed contract toward `target + battery
//! headroom` under two stability rules:
//!
//! * **ramp limiting** — the contract moves at most [`RAMP_FRAC`] of
//!   capacity per cycle, so the hierarchy below sees a staircase, not a
//!   step;
//! * **asymmetric deadband** — upward moves (releasing a limit) are
//!   suppressed inside [`DEADBAND_FRAC`] of capacity, so a signal
//!   hovering at a threshold cannot make the controller flap; downward
//!   moves always land exactly on the desired limit, because
//!   containment beats hysteresis.
//!
//! Battery headroom is quantized to deadband steps before it widens the
//! contract: a slowly draining DCUPS bank retargets the contract at
//! most once per step it actually loses, bounding limit churn over an
//! episode by `initial_headroom / deadband + 2` pushes. Headroom only
//! ever *widens* a contract on the way in — while a target is in force
//! and has not risen, recovered headroom never loosens the pushed
//! limit. (Capping below the contract makes the banks' sustain look
//! better precisely because the contract is working; releasing on that
//! signal would re-raise the draw, re-drain the banks and oscillate —
//! the flap the deadband exists to prevent.)
//!
//! # Tunables
//!
//! The paper's Dynamo has no utility side, so none of these comes from
//! it; each is fixed here with the reason it has its value, and the
//! relations the control law needs between them are compile-time
//! assertions below.

use dcsim::snap::{ConfigDigest, SnapError, SnapReader, SnapWriter};
use dcsim::{CycleSchedule, SimDuration, SimTime};
use powerinfra::Power;

use crate::signal::{GridSignal, NOMINAL_FREQUENCY_HZ, NOMINAL_PRICE};

/// Economic cycle period, phase zero. It must dominate the capping
/// loops below it (3 s leaf, 9 s upper) for the timescale-separation
/// argument to hold (Peivandizadeh et al., PAPERS.md); at 60 s a
/// contract push has settled through both tiers several times over
/// before the next one. The `dynamo` crate asserts the relation at
/// compile time against its own cycle constants.
pub const ECON_PERIOD: SimDuration = SimDuration::from_secs(60);

/// Upward contract moves smaller than this fraction of site capacity
/// are suppressed, and battery headroom is quantized to it. 1 %: a
/// relaxed signal releases to within a percent of its target, and a
/// draining bank can push at most `initial_headroom / deadband + 2`
/// contracts an episode (module docs).
const DEADBAND_FRAC: f64 = 0.01;

/// Most the contract moves in one cycle, as a fraction of capacity.
/// Every target sits at or above [`FLOOR_FRAC`], so half of capacity
/// reaches any of them from an uncontracted site in one cycle; the grid
/// layer's containment budget of two periods leaves the capping
/// hierarchy the second one to settle.
const RAMP_FRAC: f64 = 0.5;

/// Price ($/MWh) at or above which the site sheds to
/// [`PRICE_TARGET_FRAC`] of capacity: five times the nominal price, so
/// the `price-spike` preset (400) triggers it and the `brownout`
/// preset's elevated 120 does not.
const PRICE_THRESHOLD: f64 = 5.0 * NOMINAL_PRICE;

/// Utility-draw target during a price event, as a fraction of capacity:
/// a 10 % economic shed, shallower than any curtailment preset.
const PRICE_TARGET_FRAC: f64 = 0.90;

/// Frequency deviation below nominal that is ignored (Hz), so that
/// normal grid wander never moves the contract.
const FREQ_DEADBAND_HZ: f64 = 0.05;

/// Droop gain: fraction of capacity shed per Hz of under-frequency
/// beyond the deadband. At 1.0 the `frequency-excursion` preset's
/// 59.75 Hz dip sheds 20 % and its 59.90 Hz tail 5 %.
const DROOP_PER_HZ: f64 = 1.0;

/// The controller never targets below this fraction of capacity,
/// whatever the signal asks — the site's essential load.
const FLOOR_FRAC: f64 = 0.50;

// What the control law needs of the tunables.
const _: () = assert!(ECON_PERIOD.as_millis() > 0);
const _: () = assert!(0.0 < DEADBAND_FRAC && DEADBAND_FRAC < 1.0);
const _: () = assert!(DEADBAND_FRAC < RAMP_FRAC && RAMP_FRAC <= 1.0);
const _: () = assert!(0.0 < PRICE_TARGET_FRAC && PRICE_TARGET_FRAC <= 1.0);
const _: () = assert!(0.0 < FLOOR_FRAC && FLOOR_FRAC <= PRICE_TARGET_FRAC);
const _: () = assert!(DROOP_PER_HZ >= 0.0 && FREQ_DEADBAND_HZ >= 0.0);
const _: () = assert!(PRICE_THRESHOLD.is_finite());

/// What one economic cycle decided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EconDecision {
    /// The site-wide contractual limit now in force (`None` = cleared:
    /// the hierarchy runs on physical ratings alone).
    pub contract: Option<Power>,
    /// Whether this cycle changed the pushed contract.
    pub changed: bool,
    /// The utility-draw target derived from the signal, before battery
    /// headroom (`None` = the grid asks nothing).
    pub utility_target: Option<Power>,
}

/// The site economic controller. See the module docs for the control
/// law.
#[derive(Debug, Clone)]
pub struct EconController {
    /// Site contractual capacity all fractions are quoted against.
    capacity: Power,
    schedule: CycleSchedule,
    /// Currently pushed site-wide contract (watts), if any.
    pushed_w: Option<f64>,
    /// Last derived utility target (watts), if the grid is asking.
    utility_target_w: Option<f64>,
    cycles: u64,
    limit_changes: u64,
}

impl EconController {
    /// Builds a controller for a site of `capacity` contractual watts.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive capacity.
    pub fn new(capacity: Power) -> Self {
        assert!(capacity.as_watts() > 0.0, "site capacity must be positive");
        EconController {
            capacity,
            schedule: CycleSchedule::new(ECON_PERIOD),
            pushed_w: None,
            utility_target_w: None,
            cycles: 0,
            limit_changes: 0,
        }
    }

    /// The site contractual capacity.
    pub fn capacity(&self) -> Power {
        self.capacity
    }

    /// Whether a cycle is due at `now`.
    pub fn due(&self, now: SimTime) -> bool {
        self.schedule.due(now)
    }

    /// The currently pushed site contract, if any.
    pub fn pushed(&self) -> Option<Power> {
        self.pushed_w.map(Power::from_watts)
    }

    /// The utility-draw target from the last cycle, if the grid is
    /// asking for one. The fast battery loop shaves utility draw above
    /// this between cycles.
    pub fn utility_target(&self) -> Option<Power> {
        self.utility_target_w.map(Power::from_watts)
    }

    /// Cycles run.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Contract changes pushed (the churn the deadband bounds).
    pub fn limit_changes(&self) -> u64 {
        self.limit_changes
    }

    /// Reduces `signal` to the most binding utility-draw target, or
    /// `None` when the grid asks nothing.
    fn target_w(&self, signal: &GridSignal) -> Option<f64> {
        let c = self.capacity.as_watts();
        let mut t = f64::INFINITY;
        if let Some(frac) = signal.curtail_frac {
            t = t.min(c * frac);
        }
        if signal.price_per_mwh >= PRICE_THRESHOLD {
            t = t.min(c * PRICE_TARGET_FRAC);
        }
        let under = (NOMINAL_FREQUENCY_HZ - FREQ_DEADBAND_HZ) - signal.frequency_hz;
        if under > 0.0 {
            t = t.min(c * (1.0 - DROOP_PER_HZ * under));
        }
        t.is_finite().then(|| t.max(c * FLOOR_FRAC))
    }

    /// Runs one economic cycle: fires the schedule and moves the pushed
    /// contract toward `target + ride_headroom` under the ramp and
    /// deadband rules. `ride_headroom` is the battery power the site
    /// can sustain for one full period above its reserve floor.
    ///
    /// # Panics
    ///
    /// Panics (debug) if called when no cycle is due.
    pub fn cycle(
        &mut self,
        now: SimTime,
        signal: &GridSignal,
        ride_headroom: Power,
    ) -> EconDecision {
        let fired = self.schedule.fire(now);
        debug_assert!(fired, "economic cycle invoked when not due");
        self.cycles += 1;

        let c = self.capacity.as_watts();
        let deadband = DEADBAND_FRAC * c;
        let ramp = RAMP_FRAC * c;
        let prev_target = self.utility_target_w;
        let target = self.target_w(signal);
        self.utility_target_w = target;

        // Quantize headroom to deadband steps (see module docs).
        let headroom = (ride_headroom.as_watts().max(0.0) / deadband).floor() * deadband;
        let desired = target.map(|t| (t + headroom).min(c));

        let cur = self.pushed_w.unwrap_or(c);
        let mut changed = false;
        match desired {
            Some(d) if d < cur => {
                // Containment beats hysteresis: step down, ramp-limited,
                // landing exactly on the desired limit.
                self.pushed_w = Some((cur - ramp).max(d));
                changed = true;
            }
            Some(d) => {
                // Releasing only past the deadband, and only when the
                // *signal* relaxed: a steady or tightening target with
                // recovered battery headroom keeps the pushed limit in
                // force (see module docs).
                let signal_relaxed = match (prev_target, target) {
                    (Some(p), Some(t)) => t > p,
                    (None, Some(_)) => true,
                    _ => unreachable!("desired is Some only when target is"),
                };
                if signal_relaxed && d - cur >= deadband {
                    self.pushed_w = Some((cur + ramp).min(d));
                    changed = true;
                }
            }
            None => {
                // Signal cleared: ramp back up, then drop the contract.
                if self.pushed_w.is_some() {
                    let next = cur + ramp;
                    self.pushed_w = (next < c).then_some(next);
                    changed = true;
                }
            }
        }
        if changed {
            self.limit_changes += 1;
        }
        EconDecision {
            contract: self.pushed(),
            changed,
            utility_target: self.utility_target(),
        }
    }

    /// Folds the controller's configuration, its site capacity and
    /// cycle schedule, into its section's digest.
    pub fn fold_config(&self, d: &mut ConfigDigest) {
        d.put_f64(self.capacity.as_watts());
        self.schedule.fold_config(d);
    }

    /// Saves the controller's dynamic state.
    pub fn save(&self, w: &mut SnapWriter) {
        self.schedule.save(w);
        w.put_opt_f64(self.pushed_w);
        w.put_opt_f64(self.utility_target_w);
        w.put_u64(self.cycles);
        w.put_u64(self.limit_changes);
    }

    /// Loads state written by [`EconController::save`]. A next cycle
    /// off the [`ECON_PERIOD`] grid is a mismatch
    /// ([`CycleSchedule::load`]).
    pub fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.schedule.load(r)?;
        self.pushed_w = r.get_opt_f64()?;
        self.utility_target_w = r.get_opt_f64()?;
        self.cycles = r.get_count()?;
        self.limit_changes = r.get_count()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::GridScenario;

    const MW: f64 = 1_000_000.0;

    fn controller() -> EconController {
        EconController::new(Power::from_watts(MW))
    }

    fn curtailed(frac: f64) -> GridSignal {
        GridSignal {
            curtail_frac: Some(frac),
            ..GridSignal::nominal()
        }
    }

    #[test]
    fn reaches_curtail_target_within_two_cycles() {
        let mut ec = controller();
        let sig = curtailed(0.2); // below floor — clamps to 0.5 C
        let d1 = ec.cycle(SimTime::ZERO, &sig, Power::ZERO);
        assert!(d1.changed);
        assert_eq!(d1.contract.unwrap().as_watts(), 0.5 * MW);
        let d2 = ec.cycle(SimTime::from_secs(60), &sig, Power::ZERO);
        assert!(!d2.changed, "already at target, deadband holds");
        assert_eq!(ec.limit_changes(), 1);
    }

    #[test]
    fn battery_headroom_widens_the_contract_and_quantizes() {
        let mut ec = controller();
        let sig = curtailed(0.8);
        // 123.4 kW of headroom quantizes down to 120 kW (12 deadbands).
        let d = ec.cycle(SimTime::ZERO, &sig, Power::from_watts(123_400.0));
        assert_eq!(d.contract.unwrap().as_watts(), 0.8 * MW + 120_000.0);
        assert_eq!(d.utility_target.unwrap().as_watts(), 0.8 * MW);
        // Headroom shrinking by less than a deadband changes nothing.
        let d2 = ec.cycle(SimTime::from_secs(60), &sig, Power::from_watts(121_000.0));
        assert!(!d2.changed);
        // A full step lost retargets once.
        let d3 = ec.cycle(SimTime::from_secs(120), &sig, Power::from_watts(70_000.0));
        assert!(d3.changed);
        assert_eq!(d3.contract.unwrap().as_watts(), 0.8 * MW + 70_000.0);
    }

    #[test]
    fn recovered_headroom_never_loosens_an_in_force_contract() {
        let mut ec = controller();
        let sig = curtailed(0.8);
        // Push in with no battery help: contract lands on the target.
        let d1 = ec.cycle(SimTime::ZERO, &sig, Power::ZERO);
        assert_eq!(d1.contract.unwrap().as_watts(), 0.8 * MW);
        // Capping below the contract makes the banks look healthy
        // again — that must NOT release the limit.
        let d2 = ec.cycle(SimTime::from_secs(60), &sig, Power::from_watts(100_000.0));
        assert!(!d2.changed, "headroom recovery loosened the contract");
        assert_eq!(ec.pushed().unwrap().as_watts(), 0.8 * MW);
        // The signal itself relaxing does release, headroom and all.
        let d3 = ec.cycle(
            SimTime::from_secs(120),
            &curtailed(0.85),
            Power::from_watts(100_000.0),
        );
        assert!(d3.changed);
        assert_eq!(d3.contract.unwrap().as_watts(), 0.85 * MW + 100_000.0);
    }

    #[test]
    fn clearing_ramps_up_then_drops_the_contract() {
        let mut ec = controller();
        ec.cycle(SimTime::ZERO, &curtailed(0.8), Power::ZERO);
        assert!(ec.pushed().is_some());
        let quiet = GridSignal::nominal();
        let d1 = ec.cycle(SimTime::from_secs(60), &quiet, Power::ZERO);
        assert!(d1.changed);
        assert!(d1.contract.is_none(), "0.8 + 0.5 ramp clears in one cycle");
        let d2 = ec.cycle(SimTime::from_secs(120), &quiet, Power::ZERO);
        assert!(!d2.changed, "cleared controller stays quiet");
    }

    #[test]
    fn price_and_frequency_targets_compose_min() {
        let ec = controller();
        let sig = GridSignal {
            price_per_mwh: 400.0, // -> 0.90 C
            frequency_hz: 59.75,  // 0.20 Hz under deadband -> 0.80 C
            curtail_frac: Some(0.85),
        };
        let t = ec.target_w(&sig).unwrap();
        assert!((t - 0.80 * MW).abs() < 1.0, "droop target {t}");
        let quiet = GridSignal::nominal();
        assert!(ec.target_w(&quiet).is_none());
    }

    #[test]
    fn quiet_scenario_never_changes_anything() {
        let mut ec = controller();
        let scenario = GridScenario::nominal();
        for k in 0..10 {
            let now = SimTime::from_secs(60 * k);
            let d = ec.cycle(now, scenario.signal_at(now), Power::ZERO);
            assert!(!d.changed);
            assert!(d.contract.is_none());
        }
        assert_eq!(ec.limit_changes(), 0);
        assert_eq!(ec.cycles(), 10);
    }

    #[test]
    fn state_round_trips_through_snapshot_bytes() {
        let saved = |ec: &EconController| {
            let mut w = SnapWriter::new();
            ec.save(&mut w);
            w.into_bytes()
        };
        let mut ec = controller();
        ec.cycle(SimTime::ZERO, &curtailed(0.8), Power::from_watts(50_000.0));
        let bytes = saved(&ec);

        let mut other = controller();
        let mut r = SnapReader::new(&bytes);
        other.load(&mut r).unwrap();
        r.finish("econ").unwrap();
        assert_eq!(saved(&other), bytes);
        assert_eq!(other.pushed(), ec.pushed());
        assert_eq!(other.cycles(), ec.cycles());

        // A file written where the schedule cycles every 30 s: its
        // bytes load, and the reader notes its section's digest.
        let mut thirty = ec.clone();
        thirty.schedule = CycleSchedule::new(SimDuration::from_secs(30));
        let mut w = SnapWriter::new();
        w.put_config(|d| thirty.fold_config(d));
        thirty.save(&mut w);
        let forged = w.into_bytes();
        let mut r = SnapReader::new(&forged);
        let mut into = controller();
        r.config("grid layer", |d| into.fold_config(d)).unwrap();
        into.load(&mut r).unwrap();
        assert!(matches!(
            r.finish("econ"),
            Err(SnapError::Corrupt(m)) if m.starts_with("grid layer configuration")
        ));
    }
}
