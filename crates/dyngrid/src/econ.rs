//! The site economic controller: grid signals in, one site-wide
//! contractual limit out.
//!
//! Sits *above* Dynamo's capping hierarchy on a deliberately slow
//! [`CycleSchedule`] (60 s default, versus 3 s leaf / 9 s upper
//! cycles). Each cycle it reduces the current [`GridSignal`] to a
//! single **utility target** — the most binding of the curtailment
//! limit, the price-response target and the under-frequency droop
//! target — and moves the pushed contract toward `target + battery
//! headroom` under two stability rules:
//!
//! * **ramp limiting** — the contract moves at most `ramp_frac` of
//!   capacity per cycle, so the hierarchy below sees a staircase, not a
//!   step;
//! * **asymmetric deadband** — upward moves (releasing a limit) are
//!   suppressed inside `deadband_frac` of capacity, so a signal
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

use dcsim::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use dcsim::{CycleSchedule, SimDuration, SimTime};
use powerinfra::Power;

use crate::signal::{GridSignal, NOMINAL_FREQUENCY_HZ};

/// Tunables for the economic controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EconConfig {
    /// Cycle period. Must dominate the capping-loop periods below it
    /// (3 s / 9 s) for the timescale-separation argument to hold.
    pub period: SimDuration,
    /// Phase offset of the cycle schedule.
    pub phase: SimDuration,
    /// Deadband as a fraction of site capacity: upward contract moves
    /// smaller than this are suppressed.
    pub deadband_frac: f64,
    /// Maximum contract movement per cycle as a fraction of capacity.
    /// The default (0.5) reaches any curtailment target within two
    /// cycles — the containment budget the acceptance criteria quote.
    pub ramp_frac: f64,
    /// Price ($/MWh) at or above which the site sheds to
    /// `price_target_frac` of capacity.
    pub price_threshold: f64,
    /// Utility-draw target during a price event, as a fraction of
    /// capacity.
    pub price_target_frac: f64,
    /// Frequency deviation below nominal that is ignored (Hz).
    pub freq_deadband_hz: f64,
    /// Droop gain: fraction of capacity shed per Hz of under-frequency
    /// beyond the deadband.
    pub droop_per_hz: f64,
    /// The controller never targets below this fraction of capacity,
    /// whatever the signal asks — the site's essential load.
    pub floor_frac: f64,
}

impl Default for EconConfig {
    fn default() -> Self {
        EconConfig {
            period: SimDuration::from_secs(60),
            phase: SimDuration::ZERO,
            deadband_frac: 0.01,
            ramp_frac: 0.5,
            price_threshold: 200.0,
            price_target_frac: 0.90,
            freq_deadband_hz: 0.05,
            droop_per_hz: 1.0,
            floor_frac: 0.50,
        }
    }
}

impl EconConfig {
    /// Checks the configuration for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first inconsistent knob.
    pub fn validate(&self) -> Result<(), String> {
        if self.period.as_millis() == 0 {
            return Err("economic period must be positive".into());
        }
        if !(self.deadband_frac > 0.0 && self.deadband_frac < 1.0) {
            return Err(format!(
                "deadband_frac {} outside (0, 1)",
                self.deadband_frac
            ));
        }
        if !(self.ramp_frac > self.deadband_frac && self.ramp_frac <= 1.0) {
            return Err(format!(
                "ramp_frac {} must exceed deadband_frac {} and be <= 1",
                self.ramp_frac, self.deadband_frac
            ));
        }
        if !(self.price_target_frac > 0.0 && self.price_target_frac <= 1.0) {
            return Err(format!(
                "price_target_frac {} outside (0, 1]",
                self.price_target_frac
            ));
        }
        if !(self.floor_frac > 0.0 && self.floor_frac <= self.price_target_frac) {
            return Err(format!(
                "floor_frac {} outside (0, price_target_frac]",
                self.floor_frac
            ));
        }
        if self.droop_per_hz < 0.0 || self.freq_deadband_hz < 0.0 {
            return Err("droop_per_hz and freq_deadband_hz must be non-negative".into());
        }
        if !self.price_threshold.is_finite() {
            return Err("price_threshold must be finite".into());
        }
        Ok(())
    }
}

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
    config: EconConfig,
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
    /// Panics on an invalid configuration or non-positive capacity.
    pub fn new(config: EconConfig, capacity: Power) -> Self {
        config
            .validate()
            .expect("invalid economic controller config");
        assert!(capacity.as_watts() > 0.0, "site capacity must be positive");
        EconController {
            config,
            capacity,
            schedule: CycleSchedule::with_phase(config.period, config.phase),
            pushed_w: None,
            utility_target_w: None,
            cycles: 0,
            limit_changes: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &EconConfig {
        &self.config
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
        if signal.price_per_mwh >= self.config.price_threshold {
            t = t.min(c * self.config.price_target_frac);
        }
        let under = (NOMINAL_FREQUENCY_HZ - self.config.freq_deadband_hz) - signal.frequency_hz;
        if under > 0.0 {
            t = t.min(c * (1.0 - self.config.droop_per_hz * under));
        }
        t.is_finite().then(|| t.max(c * self.config.floor_frac))
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
        let deadband = self.config.deadband_frac * c;
        let ramp = self.config.ramp_frac * c;
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

    /// Captures the controller's dynamic state.
    pub fn state(&self) -> EconControllerState {
        EconControllerState {
            schedule: self.schedule,
            pushed_w: self.pushed_w,
            utility_target_w: self.utility_target_w,
            cycles: self.cycles,
            limit_changes: self.limit_changes,
        }
    }

    /// Restores dynamic state captured by [`EconController::state`].
    ///
    /// # Errors
    ///
    /// Rejects a schedule whose period or phase disagrees with this
    /// controller's configuration.
    pub fn restore(&mut self, state: &EconControllerState) -> Result<(), SnapError> {
        self.schedule = self.schedule.restored(&state.schedule)?;
        self.pushed_w = state.pushed_w;
        self.utility_target_w = state.utility_target_w;
        self.cycles = state.cycles;
        self.limit_changes = state.limit_changes;
        Ok(())
    }
}

/// Snapshot of an [`EconController`]'s dynamic state.
#[derive(Debug, Clone, PartialEq)]
pub struct EconControllerState {
    /// The cycle schedule (period, phase, next fire).
    pub schedule: CycleSchedule,
    /// Pushed site contract (watts), if any.
    pub pushed_w: Option<f64>,
    /// Last derived utility target (watts), if any.
    pub utility_target_w: Option<f64>,
    /// Cycles run.
    pub cycles: u64,
    /// Contract changes pushed.
    pub limit_changes: u64,
}

fn put_opt_f64(w: &mut SnapWriter, v: Option<f64>) {
    match v {
        Some(x) => {
            w.put_u8(1);
            w.put_f64(x);
        }
        None => w.put_u8(0),
    }
}

fn get_opt_f64(r: &mut SnapReader<'_>) -> Result<Option<f64>, SnapError> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.get_f64()?)),
        other => Err(SnapError::Corrupt(format!("bad option tag {other}"))),
    }
}

impl Snapshot for EconControllerState {
    const KIND: &'static str = "dyngrid.EconControllerState";
    const VERSION: u32 = 1;

    fn encode_body(&self, w: &mut SnapWriter) {
        self.schedule.encode_body(w);
        put_opt_f64(w, self.pushed_w);
        put_opt_f64(w, self.utility_target_w);
        w.put_u64(self.cycles);
        w.put_u64(self.limit_changes);
    }

    fn decode_body(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(EconControllerState {
            schedule: CycleSchedule::decode_body(r)?,
            pushed_w: get_opt_f64(r)?,
            utility_target_w: get_opt_f64(r)?,
            cycles: r.get_count()?,
            limit_changes: r.get_count()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::GridScenario;

    const MW: f64 = 1_000_000.0;

    fn controller() -> EconController {
        EconController::new(EconConfig::default(), Power::from_watts(MW))
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
    fn deep_target_takes_the_ramp_staircase() {
        let mut ec = EconController::new(
            EconConfig {
                ramp_frac: 0.15,
                floor_frac: 0.3,
                ..EconConfig::default()
            },
            Power::from_watts(MW),
        );
        let sig = curtailed(0.7);
        let d1 = ec.cycle(SimTime::ZERO, &sig, Power::ZERO);
        assert_eq!(d1.contract.unwrap().as_watts(), 0.85 * MW);
        let d2 = ec.cycle(SimTime::from_secs(60), &sig, Power::ZERO);
        assert_eq!(d2.contract.unwrap().as_watts(), 0.70 * MW);
        assert_eq!(ec.limit_changes(), 2);
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
        let mut ec = controller();
        ec.cycle(SimTime::ZERO, &curtailed(0.8), Power::from_watts(50_000.0));
        let state = ec.state();
        let bytes = state.to_snap_bytes();
        let decoded = EconControllerState::from_snap_bytes(&bytes).unwrap();
        assert_eq!(decoded, state);
        assert_eq!(bytes, decoded.to_snap_bytes());

        let mut other = controller();
        other.restore(&decoded).unwrap();
        assert_eq!(other.pushed(), ec.pushed());
        assert_eq!(other.cycles(), ec.cycles());

        let mut mismatched = EconController::new(
            EconConfig {
                period: SimDuration::from_secs(30),
                ..EconConfig::default()
            },
            Power::from_watts(MW),
        );
        assert!(mismatched.restore(&decoded).is_err());
    }

    #[test]
    fn invalid_configs_are_named() {
        for (cfg, needle) in [
            (
                EconConfig {
                    deadband_frac: 0.0,
                    ..EconConfig::default()
                },
                "deadband",
            ),
            (
                EconConfig {
                    ramp_frac: 0.005,
                    ..EconConfig::default()
                },
                "ramp",
            ),
            (
                EconConfig {
                    floor_frac: 0.95,
                    ..EconConfig::default()
                },
                "floor",
            ),
        ] {
            let err = cfg.validate().unwrap_err();
            assert!(err.contains(needle), "{err}");
        }
    }
}
