//! A proportional-integral capping controller — the "more complex power
//! capping algorithms" the paper leaves as future work (§III-E:
//! "Algorithm selection ... In the future, we may explore more complex
//! power capping algorithms").
//!
//! Where the three-band algorithm jumps straight to the capping target
//! in one conservative step, the PI controller trims the allowed power
//! incrementally in proportion to the error and its history. The
//! ablation in the `experiments` crate compares the two on settling
//! time, time spent over the limit, and actuation churn.

use powerinfra::Power;
use serde::{Deserialize, Serialize};

/// PI controller gains and bands.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PiConfig {
    /// Setpoint as a fraction of the effective limit (default 0.95 —
    /// the same margin the three-band capping target uses).
    pub setpoint_frac: f64,
    /// Error band (fraction of the limit) inside which the controller
    /// holds rather than chasing noise.
    pub deadband_frac: f64,
    /// Proportional gain: fraction of the error corrected per cycle.
    pub kp: f64,
    /// Integral gain: fraction of the accumulated error corrected per
    /// cycle.
    pub ki: f64,
    /// Anti-windup clamp on the integral term, as a fraction of the
    /// limit.
    pub integral_clamp_frac: f64,
}

impl Default for PiConfig {
    fn default() -> Self {
        PiConfig {
            setpoint_frac: 0.95,
            deadband_frac: 0.01,
            kp: 0.8,
            ki: 0.3,
            integral_clamp_frac: 0.10,
        }
    }
}

/// One PI cycle's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PiDecision {
    /// Lower the fleet's allowed power to this value (issue caps that
    /// sum to `current - allowed`).
    Allow(Power),
    /// Remove all caps: power has been comfortably under the setpoint
    /// long enough that no allowance is needed.
    Release,
    /// Do nothing this cycle.
    Hold,
}

/// The PI capping controller. Feed it the aggregated power each control
/// cycle via [`PiController::update`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PiController {
    config: PiConfig,
    /// Accumulated error in watts.
    integral: f64,
    /// Whether the controller currently holds caps on the fleet.
    engaged: bool,
    /// Consecutive cycles with power safely below the setpoint while
    /// engaged.
    calm_cycles: u32,
    /// The last allowance issued, to distinguish "demand fell" from
    /// "our own cap is binding" when deciding to release.
    last_allowed: Option<f64>,
}

impl PiController {
    /// Creates a controller with the given gains.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < setpoint_frac <= 1`, gains are non-negative,
    /// and the deadband is smaller than the setpoint margin.
    pub fn new(config: PiConfig) -> Self {
        assert!(
            config.setpoint_frac > 0.0 && config.setpoint_frac <= 1.0,
            "setpoint must be in (0,1], got {}",
            config.setpoint_frac
        );
        assert!(
            config.kp >= 0.0 && config.ki >= 0.0,
            "gains must be non-negative"
        );
        assert!(
            config.deadband_frac >= 0.0 && config.deadband_frac < config.setpoint_frac,
            "deadband must be smaller than the setpoint margin"
        );
        PiController {
            config,
            integral: 0.0,
            engaged: false,
            calm_cycles: 0,
            last_allowed: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> PiConfig {
        self.config
    }

    /// Runs one control cycle: observes the aggregated power against
    /// the effective limit and returns what to do.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is not strictly positive or `total` is not a
    /// valid draw.
    pub fn update(&mut self, total: Power, limit: Power) -> PiDecision {
        assert!(limit.as_watts() > 0.0, "limit must be positive");
        assert!(total.is_valid_draw(), "invalid total power {total:?}");
        let setpoint = limit.as_watts() * self.config.setpoint_frac;
        let deadband = limit.as_watts() * self.config.deadband_frac;
        let error = total.as_watts() - setpoint;

        if !self.engaged {
            if error <= deadband {
                return PiDecision::Hold;
            }
            self.engaged = true;
            self.integral = 0.0;
            self.calm_cycles = 0;
        }

        // Engaged: track the setpoint with PI action.
        let clamp = limit.as_watts() * self.config.integral_clamp_frac;
        self.integral = (self.integral + error).clamp(-clamp, clamp);

        // "Calm" means power is below the setpoint because demand fell —
        // not because our own allowance is binding (power hugging the
        // allowance from below is the controller's doing).
        let demand_fell = self
            .last_allowed
            .is_none_or(|a| total.as_watts() < a - deadband);
        if error < -deadband && demand_fell {
            self.calm_cycles += 1;
            // Hysteresis on release: several consecutive calm cycles, so
            // noise cannot flap the engagement state.
            if self.calm_cycles >= 3 {
                self.engaged = false;
                self.integral = 0.0;
                self.calm_cycles = 0;
                self.last_allowed = None;
                return PiDecision::Release;
            }
        } else {
            self.calm_cycles = 0;
        }

        let correction = self.config.kp * error + self.config.ki * self.integral;
        if correction.abs() < deadband * 0.5 {
            return PiDecision::Hold;
        }
        let allowed = (total.as_watts() - correction).max(0.0);
        self.last_allowed = Some(allowed);
        PiDecision::Allow(Power::from_watts(allowed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMIT: Power = Power::from_watts(100_000.0);

    fn kw(v: f64) -> Power {
        Power::from_kilowatts(v)
    }

    /// A first-order plant: power chases min(demand, allowed).
    fn plant_step(power: &mut f64, demand: f64, allowed: f64) {
        let target = demand.min(allowed);
        *power += (target - *power) * 0.8;
    }

    #[test]
    fn below_setpoint_holds() {
        let mut pi = PiController::new(PiConfig::default());
        assert_eq!(pi.update(kw(80.0), LIMIT), PiDecision::Hold);
        assert!(!pi.engaged);
    }

    #[test]
    fn engages_and_converges_to_setpoint() {
        let mut pi = PiController::new(PiConfig::default());
        let demand = 110_000.0;
        let mut power = demand;
        let mut allowed = f64::INFINITY;
        for _ in 0..40 {
            match pi.update(Power::from_watts(power), LIMIT) {
                PiDecision::Allow(a) => allowed = a.as_watts(),
                PiDecision::Release => allowed = f64::INFINITY,
                PiDecision::Hold => {}
            }
            plant_step(&mut power, demand, allowed);
        }
        assert!(pi.engaged);
        let setpoint = 95_000.0;
        assert!(
            (power - setpoint).abs() < 2_000.0,
            "did not converge to the setpoint: {power}"
        );
    }

    #[test]
    fn releases_after_sustained_calm() {
        let mut pi = PiController::new(PiConfig::default());
        // Engage on a surge...
        pi.update(kw(110.0), LIMIT);
        assert!(pi.engaged);
        // ...then the demand disappears: three calm cycles later, release.
        let mut released = false;
        for _ in 0..5 {
            if pi.update(kw(70.0), LIMIT) == PiDecision::Release {
                released = true;
                break;
            }
        }
        assert!(released);
        assert!(!pi.engaged);
    }

    #[test]
    fn noise_inside_deadband_does_not_flap() {
        let mut pi = PiController::new(PiConfig::default());
        pi.update(kw(110.0), LIMIT);
        // Power hovering right at the setpoint: no release, few actions.
        let mut actions = 0;
        for i in 0..20 {
            let wiggle = if i % 2 == 0 { 0.4 } else { -0.4 };
            match pi.update(kw(95.0 + wiggle), LIMIT) {
                PiDecision::Release => panic!("released inside the deadband"),
                PiDecision::Allow(_) => actions += 1,
                PiDecision::Hold => {}
            }
        }
        assert!(actions <= 20);
        assert!(pi.engaged);
    }

    #[test]
    fn integral_is_clamped() {
        let mut pi = PiController::new(PiConfig::default());
        // A huge persistent error must not wind the integral beyond the
        // clamp: the correction stays bounded.
        let mut last_allowed = f64::INFINITY;
        for _ in 0..100 {
            if let PiDecision::Allow(a) = pi.update(kw(140.0), LIMIT) {
                last_allowed = a.as_watts();
            }
        }
        // kp * error + ki * clamp = 0.8*45k + 0.3*10k = 39k below 140k.
        assert!(
            last_allowed > 95_000.0,
            "windup drove allowance to {last_allowed}"
        );
    }

    #[test]
    #[should_panic(expected = "setpoint must be in")]
    fn bad_setpoint_panics() {
        PiController::new(PiConfig {
            setpoint_frac: 0.0,
            ..PiConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "deadband must be smaller")]
    fn bad_deadband_panics() {
        PiController::new(PiConfig {
            deadband_frac: 0.99,
            ..PiConfig::default()
        });
    }
}
