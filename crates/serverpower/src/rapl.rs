//! RAPL power-limit actuator model.
//!
//! §III-B of the paper measures that "once a RAPL capping/uncapping
//! command is issued, it takes about two seconds for it to take effect on
//! the target server and stabilize" (Figure 9). This module models RAPL
//! as a first-order lag toward `min(demand, limit)` with a time constant
//! chosen so the output settles within ~2 s, which is the property the
//! controller design depends on (it forces the pulling period above 2 s).

use dcsim::SimDuration;
use powerinfra::Power;
use serde::{Deserialize, Serialize};

/// The RAPL actuator state for one server.
///
/// Call [`Rapl::set_limit`] / [`Rapl::clear_limit`] (the agent does this
/// on capping requests) and [`Rapl::step`] once per simulation tick with
/// the power the workload *wants* to draw; `step` returns the power
/// actually drawn after actuation dynamics.
///
/// # Example
///
/// ```
/// use dcsim::SimDuration;
/// use powerinfra::Power;
/// use serverpower::Rapl;
///
/// let mut rapl = Rapl::new();
/// let demand = Power::from_watts(240.0);
/// // Uncapped: output converges to demand.
/// for _ in 0..5 { rapl.step(demand, SimDuration::from_secs(1)); }
/// assert!((rapl.output() - demand).abs().as_watts() < 1.0);
/// // Capped: output settles near the limit within ~2 s.
/// rapl.set_limit(Power::from_watts(180.0));
/// rapl.step(demand, SimDuration::from_secs(1));
/// rapl.step(demand, SimDuration::from_secs(1));
/// assert!(rapl.output().as_watts() < 185.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rapl {
    limit: Option<Power>,
    output: Power,
    initialized: bool,
}

impl Default for Rapl {
    fn default() -> Self {
        Self::new()
    }
}

impl Rapl {
    /// First-order time constant in seconds, the same for every server:
    /// ~95% settled after 1.8 s, matching Figure 9.
    pub const TAU_SECS: f64 = 0.6;

    /// Creates an uncapped actuator.
    pub fn new() -> Self {
        Rapl {
            limit: None,
            output: Power::ZERO,
            initialized: false,
        }
    }

    /// The currently programmed limit, if any.
    pub fn limit(&self) -> Option<Power> {
        self.limit
    }

    /// True if a power limit is currently set.
    #[cfg(test)]
    pub fn is_capped(&self) -> bool {
        self.limit.is_some()
    }

    /// Programs a power limit (a capping request).
    ///
    /// # Panics
    ///
    /// Panics if `limit` is not a valid positive power.
    pub fn set_limit(&mut self, limit: Power) {
        assert!(
            limit.is_valid_draw() && limit.as_watts() > 0.0,
            "RAPL limit must be positive, got {limit:?}"
        );
        self.limit = Some(limit);
    }

    /// Removes the power limit (an uncapping request).
    pub fn clear_limit(&mut self) {
        self.limit = None;
    }

    /// Advances the actuator by `dt` given the workload's demanded power;
    /// returns the power actually drawn.
    ///
    /// The first call snaps the output to the target so servers do not
    /// all "power up from zero" at simulation start.
    ///
    /// # Panics
    ///
    /// Panics if `demand` is not a valid power draw.
    pub fn step(&mut self, demand: Power, dt: SimDuration) -> Power {
        assert!(demand.is_valid_draw(), "invalid power demand {demand:?}");
        let target = match self.limit {
            Some(l) => demand.min(l),
            None => demand,
        };
        if !self.initialized {
            self.output = target;
            self.initialized = true;
            return self.output;
        }
        let alpha = crate::kernel::settle_alpha(dt.as_secs_f64(), Rapl::TAU_SECS);
        self.output = Power::from_watts(crate::kernel::settle(
            self.output.as_watts(),
            target.as_watts(),
            alpha,
        ));
        self.output
    }

    /// The most recent actual power (after dynamics).
    pub fn output(&self) -> Power {
        self.output
    }

    /// The steady-state power for a given demand under the current limit.
    pub fn steady_state(&self, demand: Power) -> Power {
        match self.limit {
            Some(l) => demand.min(l),
            None => demand,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: SimDuration = SimDuration::from_millis(100);

    fn settle(rapl: &mut Rapl, demand: Power, secs: f64) -> Power {
        let steps = (secs / 0.1) as usize;
        let mut out = Power::ZERO;
        for _ in 0..steps {
            out = rapl.step(demand, DT);
        }
        out
    }

    #[test]
    fn first_step_snaps_to_demand() {
        let mut rapl = Rapl::new();
        let out = rapl.step(Power::from_watts(220.0), DT);
        assert_eq!(out, Power::from_watts(220.0));
    }

    #[test]
    fn capping_settles_within_two_seconds() {
        // The Figure 9 property: cap takes effect and stabilizes in ~2 s.
        let mut rapl = Rapl::new();
        let demand = Power::from_watts(240.0);
        rapl.step(demand, DT);
        rapl.set_limit(Power::from_watts(180.0));
        let after_2s = settle(&mut rapl, demand, 2.0);
        assert!(
            (after_2s - Power::from_watts(180.0)).abs().as_watts() < 5.0,
            "not settled after 2s: {after_2s}"
        );
    }

    #[test]
    fn uncapping_recovers_within_two_seconds() {
        let mut rapl = Rapl::new();
        let demand = Power::from_watts(240.0);
        rapl.step(demand, DT);
        rapl.set_limit(Power::from_watts(160.0));
        settle(&mut rapl, demand, 3.0);
        rapl.clear_limit();
        let recovered = settle(&mut rapl, demand, 2.0);
        assert!(
            (recovered - demand).abs().as_watts() < 5.0,
            "not recovered after 2s: {recovered}"
        );
    }

    #[test]
    fn limit_above_demand_is_inert() {
        let mut rapl = Rapl::new();
        let demand = Power::from_watts(150.0);
        rapl.step(demand, DT);
        rapl.set_limit(Power::from_watts(300.0));
        let out = settle(&mut rapl, demand, 2.0);
        assert!((out - demand).abs().as_watts() < 1.0);
    }

    #[test]
    fn output_moves_monotonically_toward_target() {
        let mut rapl = Rapl::new();
        let demand = Power::from_watts(240.0);
        rapl.step(demand, DT);
        rapl.set_limit(Power::from_watts(180.0));
        let mut prev = rapl.output();
        for _ in 0..50 {
            let out = rapl.step(demand, DT);
            assert!(out <= prev + Power::from_watts(1e-9));
            prev = out;
        }
    }

    #[test]
    fn steady_state_respects_limit() {
        let mut rapl = Rapl::new();
        assert_eq!(
            rapl.steady_state(Power::from_watts(250.0)),
            Power::from_watts(250.0)
        );
        rapl.set_limit(Power::from_watts(200.0));
        assert_eq!(
            rapl.steady_state(Power::from_watts(250.0)),
            Power::from_watts(200.0)
        );
        assert_eq!(
            rapl.steady_state(Power::from_watts(150.0)),
            Power::from_watts(150.0)
        );
    }

    #[test]
    fn is_capped_tracks_limit() {
        let mut rapl = Rapl::new();
        assert!(!rapl.is_capped());
        rapl.set_limit(Power::from_watts(100.0));
        assert!(rapl.is_capped());
        assert_eq!(rapl.limit(), Some(Power::from_watts(100.0)));
        rapl.clear_limit();
        assert!(!rapl.is_capped());
    }

    #[test]
    #[should_panic(expected = "limit must be positive")]
    fn zero_limit_panics() {
        Rapl::new().set_limit(Power::ZERO);
    }
}
