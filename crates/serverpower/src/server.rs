//! A simulated server host: power curve + RAPL + sensor + Turbo Boost.

use std::sync::Arc;

use dcsim::{SimDuration, SimRng};
use powerinfra::Power;
use serde::{Deserialize, Serialize};

use crate::curve::{PowerCurve, PowerLut, ServerGeneration};
use crate::rapl::Rapl;
use crate::sensor::{PowerEstimator, PowerSensor};

/// Turbo Boost over-clocking parameters (§IV-B).
///
/// The paper's Hadoop measurements: enabling Turbo Boost "could improve
/// their performance by around 13% while also increasing their power
/// consumption by about 20%".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TurboBoost {
    /// Multiplier on the dynamic (above-idle) power draw. Paper: ≈1.20.
    pub power_factor: f64,
    /// Multiplier on delivered performance. Paper: ≈1.13.
    pub perf_factor: f64,
}

impl Default for TurboBoost {
    fn default() -> Self {
        TurboBoost {
            power_factor: 1.20,
            perf_factor: 1.13,
        }
    }
}

/// Static configuration of one server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Hardware generation (selects the power curve).
    pub generation: ServerGeneration,
    /// Whether the host has an on-board power sensor. Servers without
    /// one fall back to the estimation model (§III-B).
    pub has_sensor: bool,
    /// Relative sensor noise (ignored without a sensor).
    pub sensor_noise: f64,
    /// Turbo Boost state; `None` means disabled.
    pub turbo: Option<TurboBoost>,
    /// Systematic calibration bias of the power estimation model used
    /// when there is no sensor (fraction; 0.05 reads 5% high).
    pub estimator_bias: f64,
}

impl ServerConfig {
    /// A sensored, turbo-off server of the given generation with 1%
    /// sensor noise.
    pub fn new(generation: ServerGeneration) -> Self {
        ServerConfig {
            generation,
            has_sensor: true,
            sensor_noise: 0.01,
            turbo: None,
            estimator_bias: 0.0,
        }
    }

    /// Disables the on-board sensor (agent will estimate power).
    pub fn without_sensor(mut self) -> Self {
        self.has_sensor = false;
        self
    }

    /// Enables Turbo Boost with default (paper) parameters.
    pub fn with_turbo(mut self) -> Self {
        self.turbo = Some(TurboBoost::default());
        self
    }

    /// Sets the sensor noise fraction.
    pub fn with_sensor_noise(mut self, noise: f64) -> Self {
        self.sensor_noise = noise;
        self
    }

    /// Sets the estimation-model calibration bias (sensorless path).
    pub fn with_estimator_bias(mut self, bias: f64) -> Self {
        self.estimator_bias = bias;
        self
    }
}

/// Instantaneous power breakdown returned by the agent alongside total
/// power (§III-B: "CPU power, socket power, AC-DC power loss, etc.").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerBreakdown {
    /// CPU socket power.
    pub cpu: Power,
    /// Memory subsystem power.
    pub memory: Power,
    /// Everything else on the board (disks, NIC, fans).
    pub other: Power,
    /// AC-DC conversion loss.
    pub conversion_loss: Power,
}

impl PowerBreakdown {
    /// Sum of all components (equals the server's total draw).
    pub fn total(&self) -> Power {
        self.cpu + self.memory + self.other + self.conversion_loss
    }
}

/// The latency slowdown caused by capping a server's power by the given
/// fraction, following the measured shape of Figure 13: slowdown grows
/// slowly up to a ~20% power reduction, then much faster once CPU
/// frequency becomes the bottleneck.
///
/// Returns the *relative* slowdown (0.10 = 10% higher latency).
///
/// # Panics
///
/// Panics if `power_reduction` is not within `[0, 1]`.
///
/// # Example
///
/// ```
/// use serverpower::capping_slowdown;
///
/// assert!(capping_slowdown(0.10) < 0.08);        // gentle region
/// assert!(capping_slowdown(0.40) > 0.5);         // past the knee
/// assert!(capping_slowdown(0.30) > 2.0 * capping_slowdown(0.15));
/// ```
pub fn capping_slowdown(power_reduction: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&power_reduction),
        "power reduction must be in [0,1], got {power_reduction}"
    );
    const KNEE: f64 = 0.20;
    const GENTLE: f64 = 0.5; // slope below the knee
    const STEEP: f64 = 3.0; // slope above the knee
    if power_reduction <= KNEE {
        GENTLE * power_reduction
    } else {
        GENTLE * KNEE + STEEP * (power_reduction - KNEE)
    }
}

/// Everything about a server that is a pure function of its
/// [`ServerConfig`]: the power curve and its lookup table, the sensor,
/// the estimation model. Immutable, so one model is shared (behind an
/// [`Arc`]) by every server with an equal configuration; the dynamic
/// scalars — drawn power, liveness, demand — are arguments, owned by
/// whoever steps the physics (a [`Server`], or the fleet's columns).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerModel {
    config: ServerConfig,
    curve: PowerCurve,
    lut: Arc<PowerLut>,
    sensor: PowerSensor,
    estimator: PowerEstimator,
}

impl ServerModel {
    /// Builds the model for `config`.
    pub fn new(config: ServerConfig) -> Self {
        let curve = config.generation.power_curve();
        ServerModel {
            lut: config.generation.power_lut(),
            sensor: PowerSensor::new(config.sensor_noise),
            estimator: PowerEstimator::new(curve.clone()).with_bias(config.estimator_bias),
            curve,
            config,
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The power curve in use.
    pub fn curve(&self) -> &PowerCurve {
        &self.curve
    }

    /// The shared lookup-table form of the power curve.
    pub fn lut(&self) -> &Arc<PowerLut> {
        &self.lut
    }

    /// Power the workload wants to draw at `demand_util` (before
    /// capping), including the Turbo Boost premium on the dynamic
    /// component.
    pub fn demand_power(&self, demand_util: f64) -> Power {
        let base = self.lut.power_at_w(demand_util);
        let w = match self.config.turbo {
            Some(t) => crate::kernel::turbo_demand_w(base, self.lut.idle_w(), t.power_factor),
            None => base,
        };
        Power::from_watts(w)
    }

    /// Reads power the way the agent does: through the sensor if there
    /// is one, otherwise through the estimation model. `drawn` is the
    /// host's true draw; a dead host reads zero without touching `rng`.
    #[inline]
    pub fn read_power(&self, drawn: Power, alive: bool, rng: &mut SimRng) -> Power {
        if !alive {
            return Power::ZERO;
        }
        if self.config.has_sensor {
            self.sensor.read(drawn, rng)
        } else {
            // The estimator sees the *achieved* utilization: under a cap
            // the OS reports the throttled activity level.
            self.estimator.estimate(self.achieved_utilization_at(drawn))
        }
    }

    /// Instantaneous component breakdown of a `drawn` total.
    ///
    /// Split: ~8% conversion loss off the top; of the remaining DC power,
    /// idle is shared evenly while dynamic power is 70% CPU, 20% memory,
    /// 10% other.
    pub fn breakdown(&self, drawn: Power) -> PowerBreakdown {
        let loss = drawn * 0.08;
        let dc = drawn - loss;
        let idle_dc = self.curve.idle().min(dc) * 0.92;
        let dynamic = dc.saturating_sub(idle_dc);
        PowerBreakdown {
            cpu: idle_dc * 0.4 + dynamic * 0.7,
            memory: idle_dc * 0.3 + dynamic * 0.2,
            other: idle_dc * 0.3 + dynamic * 0.1,
            conversion_loss: loss,
        }
    }

    /// The utilization level a live server achieves while drawing
    /// `drawn` (inverse of the power curve at the drawn power).
    pub fn achieved_utilization_at(&self, drawn: Power) -> f64 {
        // Remove the turbo premium before inverting the base curve.
        let base_equiv = match self.config.turbo {
            Some(t) => {
                let idle = self.curve.idle();
                idle + (drawn.saturating_sub(idle)) * (1.0 / t.power_factor)
            }
            None => drawn,
        };
        self.curve.utilization_at(base_equiv)
    }

    /// Relative performance of a live server wanting `demand` and
    /// drawing `drawn`, versus a turbo-off, uncapped baseline.
    ///
    /// Combines the Turbo Boost speedup with the Figure 13 capping
    /// slowdown: `perf = turbo_factor / (1 + slowdown)`.
    pub fn performance_factor(&self, demand: Power, drawn: Power) -> f64 {
        let turbo = self.config.turbo.map_or(1.0, |t| t.perf_factor);
        let reduction = if demand.as_watts() <= 0.0 {
            0.0
        } else {
            (1.0 - drawn.as_watts() / demand.as_watts()).clamp(0.0, 1.0)
        };
        turbo / (1.0 + capping_slowdown(reduction))
    }
}

/// One simulated server: a [`ServerModel`] plus the dynamic scalars it
/// is evaluated against (demand, RAPL actuator state, liveness). This is
/// the scalar reference the fleet's batched columns are held to.
///
/// Drive it with [`Server::set_demand`] (the workload layer does this)
/// and [`Server::step`] every tick; query power, breakdowns and
/// performance afterwards. Capping goes through [`Server::rapl_mut`].
///
/// # Example
///
/// ```
/// use dcsim::SimDuration;
/// use serverpower::{Server, ServerConfig, ServerGeneration};
///
/// let mut s = Server::new(7, ServerConfig::new(ServerGeneration::Westmere2011));
/// s.set_demand(1.0);
/// s.step(SimDuration::from_secs(1));
/// assert!(s.power().as_watts() > 150.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Server {
    id: u32,
    model: Arc<ServerModel>,
    rapl: Rapl,
    demand_util: f64,
    alive: bool,
}

impl Server {
    /// Creates a server with the given id and configuration.
    pub fn new(id: u32, config: ServerConfig) -> Self {
        Server {
            id,
            model: Arc::new(ServerModel::new(config)),
            rapl: Rapl::new(),
            demand_util: 0.0,
            alive: true,
        }
    }

    /// This server's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The immutable per-configuration model.
    pub fn model(&self) -> &ServerModel {
        &self.model
    }

    /// The static configuration.
    pub fn config(&self) -> &ServerConfig {
        self.model.config()
    }

    /// The power curve in use.
    pub fn curve(&self) -> &PowerCurve {
        self.model.curve()
    }

    /// The shared lookup-table form of the power curve.
    pub fn lut(&self) -> &Arc<PowerLut> {
        self.model.lut()
    }

    /// Sets the workload's demanded CPU utilization (clamped to [0, 1]).
    pub fn set_demand(&mut self, utilization: f64) {
        self.demand_util = utilization.clamp(0.0, 1.0);
    }

    /// The current demanded utilization.
    pub fn demand(&self) -> f64 {
        self.demand_util
    }

    /// Power the workload wants to draw right now (before capping),
    /// including the Turbo Boost premium on the dynamic component.
    pub fn demand_power(&self) -> Power {
        self.model.demand_power(self.demand_util)
    }

    /// Advances the server by `dt`; returns actual drawn power.
    ///
    /// A dead server (see [`Server::set_alive`]) draws nothing.
    pub fn step(&mut self, dt: SimDuration) -> Power {
        if !self.alive {
            return Power::ZERO;
        }
        self.rapl.step(self.demand_power(), dt)
    }

    /// The power drawn at the last step.
    pub fn power(&self) -> Power {
        if self.alive {
            self.rapl.output()
        } else {
            Power::ZERO
        }
    }

    /// Immutable access to the RAPL actuator.
    pub fn rapl(&self) -> &Rapl {
        &self.rapl
    }

    /// Mutable access to the RAPL actuator (capping/uncapping).
    pub fn rapl_mut(&mut self) -> &mut Rapl {
        &mut self.rapl
    }

    /// Reads power the way the agent does — see
    /// [`ServerModel::read_power`].
    pub fn read_power(&self, rng: &mut SimRng) -> Power {
        self.model.read_power(self.power(), self.alive, rng)
    }

    /// Instantaneous component breakdown of the current draw — see
    /// [`ServerModel::breakdown`].
    pub fn breakdown(&self) -> PowerBreakdown {
        self.model.breakdown(self.power())
    }

    /// The utilization level the server actually achieves under its
    /// current cap (inverse of the power curve at the drawn power).
    pub fn achieved_utilization(&self) -> f64 {
        if !self.alive {
            return 0.0;
        }
        self.model.achieved_utilization_at(self.power())
    }

    /// Relative performance versus a turbo-off, uncapped baseline — see
    /// [`ServerModel::performance_factor`]. A dead server performs
    /// nothing.
    pub fn performance_factor(&self) -> f64 {
        if !self.alive {
            return 0.0;
        }
        self.model
            .performance_factor(self.demand_power(), self.power())
    }

    /// Marks the server dead (hardware failure) or alive. Dead servers
    /// draw no power and report none.
    pub fn set_alive(&mut self, alive: bool) {
        self.alive = alive;
    }

    /// Whether the server is alive.
    pub fn is_alive(&self) -> bool {
        self.alive
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stepped(server: &mut Server, util: f64, secs: u64) -> Power {
        server.set_demand(util);
        let mut p = Power::ZERO;
        for _ in 0..secs {
            p = server.step(SimDuration::from_secs(1));
        }
        p
    }

    #[test]
    fn power_tracks_demand_curve() {
        let mut s = Server::new(0, ServerConfig::new(ServerGeneration::Haswell2015));
        let p = stepped(&mut s, 0.6, 10);
        let expected = ServerGeneration::Haswell2015.power_curve().power_at(0.6);
        assert!(
            (p - expected).abs().as_watts() < 1.0,
            "p={p} expected={expected}"
        );
    }

    #[test]
    fn turbo_increases_dynamic_power_about_20pct() {
        let base = {
            let mut s = Server::new(0, ServerConfig::new(ServerGeneration::Haswell2015));
            stepped(&mut s, 1.0, 10)
        };
        let turbo = {
            let mut s = Server::new(
                0,
                ServerConfig::new(ServerGeneration::Haswell2015).with_turbo(),
            );
            stepped(&mut s, 1.0, 10)
        };
        let idle = ServerGeneration::Haswell2015.idle_power();
        let dyn_ratio = (turbo - idle).as_watts() / (base - idle).as_watts();
        assert!((dyn_ratio - 1.2).abs() < 0.01, "dynamic ratio {dyn_ratio}");
    }

    #[test]
    fn capping_reduces_power_and_performance() {
        let mut s = Server::new(0, ServerConfig::new(ServerGeneration::Haswell2015));
        let uncapped = stepped(&mut s, 0.9, 5);
        assert!((s.performance_factor() - 1.0).abs() < 1e-6);
        s.rapl_mut().set_limit(uncapped * 0.7);
        let capped = stepped(&mut s, 0.9, 5);
        assert!(capped < uncapped * 0.72);
        assert!(
            s.performance_factor() < 0.8,
            "perf {}",
            s.performance_factor()
        );
    }

    #[test]
    fn slowdown_curve_has_figure13_knee() {
        // Gentle below 20% reduction, steep after.
        let below = capping_slowdown(0.19) - capping_slowdown(0.18);
        let above = capping_slowdown(0.31) - capping_slowdown(0.30);
        assert!(
            above > 4.0 * below,
            "knee missing: below={below} above={above}"
        );
        assert_eq!(capping_slowdown(0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn slowdown_rejects_out_of_range() {
        capping_slowdown(1.5);
    }

    #[test]
    fn turbo_perf_bonus_without_cap() {
        let mut s = Server::new(
            0,
            ServerConfig::new(ServerGeneration::Haswell2015).with_turbo(),
        );
        stepped(&mut s, 0.8, 5);
        assert!((s.performance_factor() - 1.13).abs() < 0.01);
    }

    #[test]
    fn sensored_read_is_close_to_truth() {
        let mut s = Server::new(
            0,
            ServerConfig::new(ServerGeneration::Westmere2011).with_sensor_noise(0.01),
        );
        stepped(&mut s, 0.5, 5);
        let mut rng = SimRng::seed_from(5);
        let truth = s.power().as_watts();
        let n = 200;
        let mean: f64 = (0..n)
            .map(|_| s.read_power(&mut rng).as_watts())
            .sum::<f64>()
            / n as f64;
        assert!((mean - truth).abs() < 2.0, "mean {mean} truth {truth}");
    }

    #[test]
    fn sensorless_read_uses_estimator() {
        let mut s = Server::new(
            0,
            ServerConfig::new(ServerGeneration::Westmere2011).without_sensor(),
        );
        stepped(&mut s, 0.5, 5);
        let mut rng = SimRng::seed_from(6);
        let read = s.read_power(&mut rng);
        let expected = ServerGeneration::Westmere2011.power_curve().power_at(0.5);
        assert!((read - expected).abs().as_watts() < 2.0);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let mut s = Server::new(0, ServerConfig::new(ServerGeneration::Haswell2015));
        stepped(&mut s, 0.7, 5);
        let b = s.breakdown();
        assert!((b.total() - s.power()).abs().as_watts() < 1e-9);
        assert!(b.cpu > b.memory && b.memory >= b.other);
        assert!(b.conversion_loss.as_watts() > 0.0);
    }

    #[test]
    fn dead_server_draws_nothing() {
        let mut s = Server::new(0, ServerConfig::new(ServerGeneration::Haswell2015));
        stepped(&mut s, 0.8, 5);
        s.set_alive(false);
        assert_eq!(s.power(), Power::ZERO);
        assert_eq!(s.step(SimDuration::from_secs(1)), Power::ZERO);
        assert_eq!(s.performance_factor(), 0.0);
        let mut rng = SimRng::seed_from(7);
        assert_eq!(s.read_power(&mut rng), Power::ZERO);
        assert!(!s.is_alive());
    }

    #[test]
    fn achieved_utilization_tracks_cap() {
        let mut s = Server::new(0, ServerConfig::new(ServerGeneration::Haswell2015));
        stepped(&mut s, 1.0, 5);
        assert!((s.achieved_utilization() - 1.0).abs() < 0.01);
        // Cap at the 60%-utilization power level.
        let p60 = s.curve().power_at(0.6);
        s.rapl_mut().set_limit(p60);
        stepped(&mut s, 1.0, 5);
        assert!((s.achieved_utilization() - 0.6).abs() < 0.02);
    }

    #[test]
    fn estimator_bias_flows_into_reads() {
        let mut s = Server::new(
            0,
            ServerConfig::new(ServerGeneration::Westmere2011)
                .without_sensor()
                .with_estimator_bias(0.10),
        );
        stepped(&mut s, 0.5, 5);
        let mut rng = SimRng::seed_from(8);
        let read = s.read_power(&mut rng).as_watts();
        let truth = s.power().as_watts();
        assert!(
            (read / truth - 1.10).abs() < 0.02,
            "biased read {read} vs truth {truth}"
        );
    }

    #[test]
    fn demand_clamps() {
        let mut s = Server::new(0, ServerConfig::new(ServerGeneration::Haswell2015));
        s.set_demand(3.0);
        assert_eq!(s.demand(), 1.0);
        s.set_demand(-1.0);
        assert_eq!(s.demand(), 0.0);
    }
}
