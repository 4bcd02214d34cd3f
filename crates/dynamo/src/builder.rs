//! Datacenter construction.

use std::collections::HashSet;

use dcsim::{SimDuration, SimRng};
use dyngrid::GridScenario;
use dynrpc::LinkProfile;
use powerinfra::{DeviceLevel, Power, Topology, TopologyBuilder};
use serverpower::{ServerConfig, ServerGeneration};
use workloads::{ServiceKind, TrafficPattern};

use crate::control_plane::{DynamoSystem, SystemConfig};
use crate::datacenter::{Datacenter, ParallelMode};
use crate::fleet::Fleet;
use crate::grid::GridLayer;
use crate::telemetry::Telemetry;
use crate::validator::BreakerValidator;

/// How services are assigned to servers.
#[derive(Debug, Clone)]
pub enum ServicePlan {
    /// Every server runs the same service.
    Uniform(ServiceKind),
    /// Each RPP row is composed of the given `(service, count)` blocks,
    /// assigned to the row's servers in order and cycled if the row has
    /// more servers than the blocks cover. This is how the paper's
    /// Figure 15 row (≈200 web + 200 cache + 40 feed) is expressed.
    RowComposition(Vec<(ServiceKind, usize)>),
    /// Random assignment with the given weights.
    Mix(Vec<(ServiceKind, f64)>),
}

/// Builder for a complete simulated datacenter with the Dynamo control
/// plane deployed.
///
/// # Example
///
/// ```
/// use dynamo::{DatacenterBuilder, ServicePlan};
/// use workloads::ServiceKind;
///
/// let dc = DatacenterBuilder::new()
///     .sbs_per_msb(2)
///     .rpps_per_sb(2)
///     .racks_per_rpp(2)
///     .servers_per_rack(5)
///     .service_plan(ServicePlan::Mix(vec![
///         (ServiceKind::Web, 0.6),
///         (ServiceKind::Cache, 0.4),
///     ]))
///     .seed(11)
///     .build();
/// assert_eq!(dc.fleet().len(), 2 * 2 * 2 * 5);
/// ```
#[derive(Debug, Clone)]
pub struct DatacenterBuilder {
    topo: TopologyBuilder,
    plan: ServicePlan,
    traffic: Vec<(ServiceKind, TrafficPattern)>,
    turbo_services: HashSet<ServiceKind>,
    generation: ServerGeneration,
    sensorless_fraction: f64,
    estimation_bias: f64,
    crash_rate_per_hour: f64,
    seed: u64,
    worker_threads: usize,
    profile: bool,
    demand_hold: u32,
    system: SystemConfig,
    watched: Vec<DeviceLevel>,
    grid: Option<GridScenario>,
}

impl Default for DatacenterBuilder {
    fn default() -> Self {
        DatacenterBuilder {
            topo: TopologyBuilder::new(),
            plan: ServicePlan::Uniform(ServiceKind::Web),
            traffic: Vec::new(),
            turbo_services: HashSet::new(),
            generation: ServerGeneration::Haswell2015,
            sensorless_fraction: 0.02,
            estimation_bias: 0.0,
            crash_rate_per_hour: 0.0,
            seed: 0,
            worker_threads: 1,
            profile: false,
            demand_hold: 1,
            system: SystemConfig::default(),
            watched: vec![DeviceLevel::Rpp, DeviceLevel::Sb, DeviceLevel::Msb],
            grid: None,
        }
    }
}

impl DatacenterBuilder {
    /// Starts from the defaults: one MSB, 4 SBs × 4 RPPs × 4 racks × 30
    /// Haswell web servers, Dynamo capping enabled, 1 s tick.
    pub fn new() -> Self {
        Self::default()
    }

    /// MSBs per suite.
    pub fn msbs_per_suite(mut self, n: usize) -> Self {
        self.topo = self.topo.msbs_per_suite(n);
        self
    }

    /// SBs per MSB.
    pub fn sbs_per_msb(mut self, n: usize) -> Self {
        self.topo = self.topo.sbs_per_msb(n);
        self
    }

    /// RPPs per SB.
    pub fn rpps_per_sb(mut self, n: usize) -> Self {
        self.topo = self.topo.rpps_per_sb(n);
        self
    }

    /// Racks per RPP.
    pub fn racks_per_rpp(mut self, n: usize) -> Self {
        self.topo = self.topo.racks_per_rpp(n);
        self
    }

    /// Servers per rack.
    pub fn servers_per_rack(mut self, n: usize) -> Self {
        self.topo = self.topo.servers_per_rack(n);
        self
    }

    /// Overrides the RPP (leaf breaker) rating, e.g. the 127.5 kW PDU
    /// breaker of Figure 11.
    pub fn rpp_rating(mut self, rating: Power) -> Self {
        self.topo = self.topo.rpp_rating(rating);
        self
    }

    /// Overrides the SB rating.
    pub fn sb_rating(mut self, rating: Power) -> Self {
        self.topo = self.topo.sb_rating(rating);
        self
    }

    /// Overrides the MSB rating.
    pub fn msb_rating(mut self, rating: Power) -> Self {
        self.topo = self.topo.msb_rating(rating);
        self
    }

    /// Sets the service assignment plan.
    pub fn service_plan(mut self, plan: ServicePlan) -> Self {
        self.plan = plan;
        self
    }

    /// Shorthand: every server runs `kind`.
    pub fn uniform_service(self, kind: ServiceKind) -> Self {
        self.service_plan(ServicePlan::Uniform(kind))
    }

    /// Sets the traffic pattern for one service.
    pub fn traffic(mut self, kind: ServiceKind, pattern: TrafficPattern) -> Self {
        self.traffic.push((kind, pattern));
        self
    }

    /// Enables Turbo Boost on all servers of a service (§IV-B).
    pub fn turbo(mut self, kind: ServiceKind) -> Self {
        self.turbo_services.insert(kind);
        self
    }

    /// Server hardware generation for the whole fleet.
    pub fn generation(mut self, generation: ServerGeneration) -> Self {
        self.generation = generation;
        self
    }

    /// Fraction of servers without power sensors (they use the
    /// estimation model).
    ///
    /// # Panics
    ///
    /// Panics if outside `[0, 1]`.
    pub fn sensorless_fraction(mut self, frac: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&frac),
            "invalid sensorless fraction {frac}"
        );
        self.sensorless_fraction = frac;
        self
    }

    /// Calibration bias applied to sensorless servers' estimation
    /// models (fraction; negative reads low). Exercises the §VI
    /// breaker-validation path.
    pub fn estimation_bias(mut self, bias: f64) -> Self {
        self.estimation_bias = bias;
        self
    }

    /// Agent crash injection rate (per server-hour).
    pub fn agent_crash_rate(mut self, per_hour: f64) -> Self {
        self.crash_rate_per_hour = per_hour;
        self
    }

    /// Root RNG seed — same seed, same run.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker threads for fleet physics and leaf control cycles,
    /// the stepping thread included (default 1; clamped at the leaf
    /// count, see [`Datacenter::set_worker_threads`]; the simulation is
    /// bit-identical at any thread count).
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn worker_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker thread");
        self.worker_threads = threads;
        self
    }

    /// Frozen surface, a no-op: [`ParallelMode`] has one value, the
    /// persistent pool [`DatacenterBuilder::worker_threads`] wide that
    /// every datacenter runs on. Kept because `dynbench` calls it; do
    /// not grow it.
    pub fn parallel_mode(self, _mode: ParallelMode) -> Self {
        self
    }

    /// Enables the per-phase tick profiler (default off): each
    /// [`Datacenter::step`] records its phase wall times into the
    /// `dynamo_tick_phase_seconds_*` histogram family. Wall clocks are
    /// non-deterministic; leave this off when comparing output across
    /// runs. See [`Datacenter::set_profile_ticks`].
    pub fn profile_ticks(mut self, enabled: bool) -> Self {
        self.profile = enabled;
        self
    }

    /// Demand redraw period in ticks (default 1 = redraw every tick,
    /// bit-identical to the always-redraw model). Larger periods hold
    /// each leaf's demand between leaf-phased redraws — an opt-in model
    /// coarsening that lets fully settled leaves skip physics outright
    /// (see [`crate::Fleet::set_demand_hold`]), the lever behind the
    /// full-site steady-state throughput rows.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn demand_hold(mut self, ticks: u32) -> Self {
        assert!(ticks >= 1, "demand hold must be >= 1 tick");
        self.demand_hold = ticks;
        self
    }

    /// Disables capping: Dynamo monitors but never acts (the no-Dynamo
    /// baseline).
    pub fn capping_enabled(mut self, enabled: bool) -> Self {
        self.system.capping_enabled = enabled;
        self
    }

    /// Controller↔agent link profile.
    pub fn rpc_profile(mut self, profile: LinkProfile) -> Self {
        self.system.rpc = profile;
        self
    }

    /// Dry-run mode: controllers decide and log but never actuate
    /// (§VI's production end-to-end testing aid).
    pub fn dry_run(mut self, enabled: bool) -> Self {
        self.system.dry_run = enabled;
        self
    }

    /// Staggers controller cycle phases evenly across `spread`:
    /// controller `i` of an `n`-instance tier starts its cycles at
    /// `spread · i / n`. Zero spread (the default) is lockstep: every
    /// controller of a tier cycles at the same instants. A spread of
    /// one leaf interval spaces the leaf cycles maximally, like the
    /// unsynchronized daemons of the deployed system (§IV). Per-leaf
    /// cadence is unaffected — only the phase moves.
    pub fn phase_spread(mut self, spread: SimDuration) -> Self {
        self.system.phase_spread = spread;
        self
    }

    /// Configures the observability subsystem ([`dynobs`]): metrics
    /// registry, cycle tracing, flight recorder and incident dumps.
    /// Disabled by default; `ObsConfig::on()` enables everything.
    pub fn observability(mut self, config: dynobs::ObsConfig) -> Self {
        self.system.obs = config;
        self
    }

    /// Hierarchy levels to record power traces for (default RPP, SB
    /// and MSB). Tracing every rack in a big run is expensive;
    /// experiments pick what they need.
    pub fn watch_levels(mut self, levels: Vec<DeviceLevel>) -> Self {
        self.watched = levels;
        self
    }

    /// Deploys the grid-interactive layer under `scenario`: a site
    /// economic controller pushing contractual limits onto the MSB
    /// controllers on its own slow cycle, and per-leaf DCUPS banks
    /// riding short curtailments. See [`crate::GridLayer`].
    pub fn grid(mut self, scenario: GridScenario) -> Self {
        self.grid = Some(scenario);
        self
    }

    /// Shorthand: deploys the grid layer under a named preset scenario
    /// from [`GridScenario::preset`].
    ///
    /// # Panics
    ///
    /// Panics on an unknown preset name.
    pub fn grid_scenario(self, name: &str) -> Self {
        let scenario = GridScenario::preset(name)
            .unwrap_or_else(|| panic!("unknown grid scenario preset {name:?}"));
        self.grid(scenario)
    }

    /// Builds the datacenter.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration (empty mix, non-positive
    /// weights, an empty row composition).
    pub fn build(self) -> Datacenter {
        let topo = self.topo.build();
        let n = topo.server_count();
        let mut rng = SimRng::seed_from(self.seed);

        let services = assign_services(&topo, &self.plan, &mut rng.split("service-plan"));
        assert_eq!(services.len(), n);

        let mut sensor_rng = rng.split("sensors");
        let fleet_rng = rng.split("fleet");
        let system = DynamoSystem::build(&topo, &services, self.system, &mut rng.split("system"));

        // The fleet is built straight into the control plane's leaves,
        // each server's configuration drawn as the build reaches it (in
        // id order, as the sensor stream requires).
        let (generation, sensorless, bias) = (
            self.generation,
            self.sensorless_fraction,
            self.estimation_bias,
        );
        let turbo = &self.turbo_services;
        let configs = services.iter().map(|kind| {
            let mut c = ServerConfig::new(generation);
            if sensor_rng.chance(sensorless) {
                c = c.without_sensor().with_estimator_bias(bias);
            }
            if turbo.contains(kind) {
                c = c.with_turbo();
            }
            c
        });
        let mut fleet = Fleet::new(configs, services.clone(), fleet_rng, system.leaf_spans());
        for (kind, pattern) in self.traffic {
            fleet.set_traffic(kind, pattern);
        }
        fleet.set_crash_rate(self.crash_rate_per_hour);
        fleet.set_demand_hold(self.demand_hold);

        let watched: Vec<_> = self
            .watched
            .iter()
            .flat_map(|&lvl| topo.devices_at(lvl))
            .collect();
        let telemetry = Telemetry::new(watched);
        let validator = BreakerValidator::new(topo.device_count(), rng.split("breaker-validation"));

        let grid = self.grid.map(|scenario| {
            GridLayer::build(
                scenario,
                &topo,
                system.leaf_devices(),
                system.upper_devices(),
            )
        });

        let mut dc = Datacenter::assemble(topo, fleet, system, telemetry, validator, grid);
        dc.set_worker_threads(self.worker_threads);
        dc.set_profile_ticks(self.profile);
        dc
    }
}

/// Resolves a [`ServicePlan`] into one service per server.
fn assign_services(topo: &Topology, plan: &ServicePlan, rng: &mut SimRng) -> Vec<ServiceKind> {
    let n = topo.server_count();
    match plan {
        ServicePlan::Uniform(kind) => vec![*kind; n],
        ServicePlan::Mix(weights) => {
            assert!(!weights.is_empty(), "mix plan needs at least one service");
            let total: f64 = weights.iter().map(|&(_, w)| w).sum();
            assert!(total > 0.0, "mix weights must sum to a positive value");
            (0..n)
                .map(|_| {
                    let mut x = rng.uniform(0.0, total);
                    for &(kind, w) in weights {
                        if x < w {
                            return kind;
                        }
                        x -= w;
                    }
                    weights.last().expect("non-empty").0
                })
                .collect()
        }
        ServicePlan::RowComposition(blocks) => {
            assert!(
                !blocks.is_empty(),
                "row composition needs at least one block"
            );
            assert!(
                blocks.iter().all(|&(_, c)| c > 0),
                "row composition blocks need positive counts"
            );
            let mut services = vec![ServiceKind::Web; n];
            for rpp in topo.devices_at(DeviceLevel::Rpp) {
                let row = topo.servers_under(rpp);
                let blocks = blocks
                    .iter()
                    .flat_map(|&(kind, count)| std::iter::repeat_n(kind, count))
                    .cycle();
                for (service, kind) in services[row.start as usize..row.end as usize]
                    .iter_mut()
                    .zip(blocks)
                {
                    *service = kind;
                }
            }
            services
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DatacenterBuilder {
        DatacenterBuilder::new()
            .sbs_per_msb(1)
            .rpps_per_sb(1)
            .racks_per_rpp(2)
            .servers_per_rack(5)
    }

    #[test]
    fn uniform_plan_assigns_everywhere() {
        let dc = tiny().uniform_service(ServiceKind::Cache).seed(1).build();
        assert!(dc
            .fleet()
            .iter_services()
            .all(|(_, k)| k == ServiceKind::Cache));
    }

    #[test]
    fn row_composition_fills_rows_in_order() {
        let dc = tiny()
            .service_plan(ServicePlan::RowComposition(vec![
                (ServiceKind::Web, 6),
                (ServiceKind::Cache, 4),
            ]))
            .seed(1)
            .build();
        let kinds: Vec<ServiceKind> = dc.fleet().iter_services().map(|(_, k)| k).collect();
        assert_eq!(kinds.iter().filter(|&&k| k == ServiceKind::Web).count(), 6);
        assert_eq!(
            kinds.iter().filter(|&&k| k == ServiceKind::Cache).count(),
            4
        );
        assert!(kinds[..6].iter().all(|&k| k == ServiceKind::Web));
    }

    #[test]
    fn mix_plan_is_roughly_proportional() {
        let dc = DatacenterBuilder::new()
            .sbs_per_msb(2)
            .rpps_per_sb(2)
            .racks_per_rpp(4)
            .servers_per_rack(25)
            .service_plan(ServicePlan::Mix(vec![
                (ServiceKind::Web, 0.75),
                (ServiceKind::Hadoop, 0.25),
            ]))
            .seed(5)
            .build();
        let n = dc.fleet().len() as f64;
        let web = dc
            .fleet()
            .iter_services()
            .filter(|&(_, k)| k == ServiceKind::Web)
            .count() as f64;
        assert!((web / n - 0.75).abs() < 0.08, "web fraction {}", web / n);
    }

    #[test]
    fn same_seed_same_datacenter() {
        let run = |seed| {
            let mut dc = tiny().uniform_service(ServiceKind::Web).seed(seed).build();
            dc.run_for(SimDuration::from_secs(30));
            dc.device_power(dc.topology().root()).as_watts()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn turbo_raises_fleet_power() {
        let base = {
            let mut dc = tiny().uniform_service(ServiceKind::Hadoop).seed(9).build();
            dc.run_for(SimDuration::from_secs(30));
            dc.fleet().stats().total_power
        };
        let turbo = {
            let mut dc = tiny()
                .uniform_service(ServiceKind::Hadoop)
                .turbo(ServiceKind::Hadoop)
                .seed(9)
                .build();
            dc.run_for(SimDuration::from_secs(30));
            dc.fleet().stats().total_power
        };
        assert!(turbo > base * 1.05, "turbo {turbo} vs base {base}");
    }

    #[test]
    fn sensorless_fraction_applies() {
        let dc = DatacenterBuilder::new()
            .sbs_per_msb(1)
            .rpps_per_sb(1)
            .racks_per_rpp(4)
            .servers_per_rack(25)
            .sensorless_fraction(0.5)
            .seed(2)
            .build();
        let sensorless = (0..dc.fleet().len() as u32)
            .filter(|&s| !dc.fleet().config_of(s).has_sensor)
            .count();
        let frac = sensorless as f64 / dc.fleet().len() as f64;
        assert!((frac - 0.5).abs() < 0.15, "sensorless fraction {frac}");
    }
}
