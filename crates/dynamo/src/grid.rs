//! The grid-interactive layer: utility signals in, §III-D contractual
//! limits and DCUPS buffering out.
//!
//! Sits between the utility meter and Dynamo's capping hierarchy, and
//! runs on two timescales:
//!
//! * **slow (60 s default)** — the [`dyngrid::EconController`] reduces
//!   the current [`dyngrid::GridSignal`] to one site-wide contractual
//!   limit and apportions it across the MSB upper controllers by
//!   rating share, through [`crate::DynamoSystem::set_upper_contract`].
//!   The existing 9 s upper / 3 s leaf machinery does the rest; ramp
//!   limiting and the deadband in the economic controller keep those
//!   loops from ever seeing an oscillating setpoint.
//! * **fast (every tick)** — per-leaf [`powerinfra::Dcups`] banks shave
//!   utility draw above the economic target: while a curtailment is
//!   being ramped into (or ridden through entirely), batteries supply
//!   `servers − target`, each bank respecting the charge-reserve floor
//!   that preserves its 90 s outage rating at the leaf's current load.
//!   When the signal clears, banks recharge at their configured rate —
//!   and that recharge power counts *into* utility draw.
//!
//! Utility draw is therefore `servers − discharge + recharge`; breaker
//! thermal models keep seeing true server draw, so the subtree-power
//! path and every determinism invariant are untouched.

use std::sync::Arc;

use dcsim::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use dcsim::{SimDuration, SimTime};
use dyngrid::{EconConfig, EconController, EconControllerState, GridScenario};
use powerinfra::{Dcups, DeviceId, DeviceLevel, Power, Topology};

use crate::control_plane::DynamoSystem;
use crate::fleet::LeafColumns;

/// Configuration of the per-leaf DCUPS banks the grid layer may ride.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcupsBankConfig {
    /// Whether banks participate at all. Disabled, the economic
    /// controller still pushes contracts; there is just no buffer.
    pub enabled: bool,
    /// Recharge rate as a fraction of design load (see
    /// [`Dcups::with_recharge_frac`]).
    pub recharge_frac: f64,
    /// Extra charge kept above the ride-through reserve floor, as a
    /// fraction of capacity — margin against load rising between the
    /// reserve computation and a real outage.
    pub reserve_margin_frac: f64,
}

impl Default for DcupsBankConfig {
    fn default() -> Self {
        DcupsBankConfig {
            enabled: true,
            recharge_frac: 0.1,
            reserve_margin_frac: 0.05,
        }
    }
}

/// Configuration of the whole grid layer, passed to
/// [`crate::DatacenterBuilder::grid`].
#[derive(Debug, Clone, PartialEq)]
pub struct GridConfig {
    /// The utility signal schedule.
    pub scenario: GridScenario,
    /// Economic-controller tunables.
    pub econ: EconConfig,
    /// DCUPS bank policy.
    pub dcups: DcupsBankConfig,
}

impl GridConfig {
    /// A grid layer running `scenario` with default economics and
    /// battery policy.
    pub fn for_scenario(scenario: GridScenario) -> Self {
        GridConfig {
            scenario,
            econ: EconConfig::default(),
            dcups: DcupsBankConfig::default(),
        }
    }
}

/// An active curtailment window's bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Episode {
    started: SimTime,
    /// First settlement boundary whose interval-mean utility draw was
    /// at or under the limit.
    contained_at: Option<SimTime>,
    /// Whether an interval mean breached the limit past the
    /// containment budget.
    violated: bool,
}

/// Condensed grid-layer statistics for reports and experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSummary {
    /// Scenario name.
    pub scenario: String,
    /// Curtailment windows entered.
    pub curtailments: u64,
    /// Windows contained within the budget (and never breached after).
    pub contained: u64,
    /// Seconds of over-limit utility draw past the containment budget.
    pub violation_secs: u64,
    /// Seconds with at least one bank intentionally discharging.
    pub discharge_secs: u64,
    /// Economic cycles run.
    pub econ_cycles: u64,
    /// Contract changes pushed (the churn the deadband bounds).
    pub limit_changes: u64,
    /// Utility draw right now.
    pub utility_draw: Power,
    /// The site contract in force, if any.
    pub site_contract: Option<Power>,
    /// Aggregate bank charge fraction right now.
    pub charge_fraction: f64,
    /// Lowest aggregate charge fraction seen.
    pub charge_low_water: f64,
    /// Settle time of the most recent contained window: first
    /// in-budget settlement boundary minus window start, in seconds.
    pub last_containment_secs: Option<u64>,
}

/// The grid-interactive layer. Owned by [`crate::Datacenter`] when the
/// builder configures one; stepped once per simulation tick between
/// the breaker pass and the controller cycles.
pub struct GridLayer {
    scenario: GridScenario,
    econ: EconController,
    dcups_cfg: DcupsBankConfig,
    /// MSB devices carrying upper controllers, with their rating share
    /// of site capacity, in build order.
    msbs: Vec<(DeviceId, f64)>,
    /// One aggregate DCUPS bank per leaf, in leaf build order.
    banks: Vec<Dcups>,
    /// Interned name for flight records.
    name: Arc<str>,
    /// Per-bank available-discharge scratch (watts), sized once.
    avail_scratch: Vec<f64>,
    /// Whether any bank is below full charge (recharge fast-path skip).
    any_below_full: bool,
    /// Cached aggregate charge fraction; exact while no bank stepped.
    charge_frac: f64,
    /// Utility draw last tick (watts).
    utility_draw_w: f64,
    episode: Option<Episode>,
    curtailments: u64,
    contained: u64,
    violation_ms: u64,
    discharge_ms: u64,
    charge_low_water: f64,
    /// Utility energy accumulated in the open settlement interval (J).
    period_energy_j: f64,
    /// Length of the open settlement interval so far (ms).
    period_ms: u64,
    /// Settle time of the most recent contained interval: first
    /// in-budget settlement boundary minus window start, in ms.
    last_containment_ms: Option<u64>,
}

/// Half the 1 W sensor quantum: an interval mean within this of the
/// limit counts as contained, mirroring the settle kernels' snap band.
const CONTAIN_EPS_W: f64 = 0.5;

impl GridLayer {
    /// Builds the layer over the topology's MSB controllers and one
    /// bank per leaf device.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration or a topology without MSB
    /// controllers.
    pub(crate) fn build(
        config: GridConfig,
        topo: &Topology,
        leaf_devices: &[DeviceId],
        upper_devices: &[DeviceId],
    ) -> Self {
        config
            .econ
            .validate()
            .expect("invalid grid economic config");
        assert!(
            config.dcups.recharge_frac > 0.0 && config.dcups.recharge_frac <= 1.0,
            "DCUPS recharge fraction {} outside (0, 1]",
            config.dcups.recharge_frac
        );
        assert!(
            (0.0..1.0).contains(&config.dcups.reserve_margin_frac),
            "DCUPS reserve margin {} outside [0, 1)",
            config.dcups.reserve_margin_frac
        );
        let msb_devices: Vec<DeviceId> = upper_devices
            .iter()
            .copied()
            .filter(|&d| topo.device(d).level == DeviceLevel::Msb)
            .collect();
        assert!(
            !msb_devices.is_empty(),
            "grid layer needs at least one MSB upper controller"
        );
        let capacity: Power = msb_devices
            .iter()
            .map(|&d| topo.device(d).rating)
            .fold(Power::ZERO, |a, b| a + b);
        let msbs: Vec<(DeviceId, f64)> = msb_devices
            .iter()
            .map(|&d| (d, topo.device(d).rating.as_watts() / capacity.as_watts()))
            .collect();
        let banks: Vec<Dcups> = if config.dcups.enabled {
            leaf_devices
                .iter()
                .map(|&d| {
                    Dcups::with_recharge_frac(topo.device(d).rating, config.dcups.recharge_frac)
                })
                .collect()
        } else {
            Vec::new()
        };
        let n_banks = banks.len();
        GridLayer {
            scenario: config.scenario,
            econ: EconController::new(config.econ, capacity),
            dcups_cfg: config.dcups,
            msbs,
            banks,
            name: "grid-econ".into(),
            avail_scratch: vec![0.0; n_banks],
            any_below_full: false,
            charge_frac: 1.0,
            utility_draw_w: 0.0,
            episode: None,
            curtailments: 0,
            contained: 0,
            violation_ms: 0,
            discharge_ms: 0,
            charge_low_water: 1.0,
            period_energy_j: 0.0,
            period_ms: 0,
            last_containment_ms: None,
        }
    }

    /// The MSB devices carrying the apportioned site contract, with
    /// their rating share, in build order.
    pub(crate) fn msbs(&self) -> &[(DeviceId, f64)] {
        &self.msbs
    }

    /// The utility-signal schedule.
    pub fn scenario(&self) -> &GridScenario {
        &self.scenario
    }

    /// The site economic controller.
    pub fn econ(&self) -> &EconController {
        &self.econ
    }

    /// The per-leaf DCUPS banks (leaf build order; empty when banks are
    /// disabled).
    pub fn banks(&self) -> &[Dcups] {
        &self.banks
    }

    /// Utility draw last tick: servers minus discharge plus recharge.
    pub fn utility_draw(&self) -> Power {
        Power::from_watts(self.utility_draw_w)
    }

    /// Whether a curtailment window is active right now.
    pub fn curtailment_active(&self) -> bool {
        self.episode.is_some()
    }

    /// Condensed statistics for reports.
    pub fn summary(&self) -> GridSummary {
        GridSummary {
            scenario: self.scenario.name().to_string(),
            curtailments: self.curtailments,
            contained: self.contained,
            violation_secs: self.violation_ms / 1000,
            discharge_secs: self.discharge_ms / 1000,
            econ_cycles: self.econ.cycles(),
            limit_changes: self.econ.limit_changes(),
            utility_draw: self.utility_draw(),
            site_contract: self.econ.pushed(),
            charge_fraction: self.charge_frac,
            charge_low_water: self.charge_low_water,
            last_containment_secs: self.last_containment_ms.map(|ms| ms / 1000),
        }
    }

    /// Energy a bank may discharge on purpose: above both the
    /// ride-through floor at `load` and the configured margin.
    fn bank_available_j(&self, i: usize, load: Power) -> f64 {
        let bank = &self.banks[i];
        let margin_j = self.dcups_cfg.reserve_margin_frac * bank.capacity_joules();
        (bank.available_discharge_joules(load) - margin_j).max(0.0)
    }

    /// Battery power the site can plan a contract around: half of what
    /// the banks could sustain for one economic period above every
    /// reserve floor. Planning on the full sustain would budget the
    /// banks down to the reserve floor within a single period, leaving
    /// nothing to bridge the capping hierarchy's settle transient after
    /// the next contract push — the half not planned is that bridge.
    /// The spend therefore decays geometrically toward the floor
    /// instead of slamming into it.
    fn ride_headroom(&self, leaves: &[LeafColumns]) -> Power {
        if !self.dcups_cfg.enabled || self.banks.is_empty() {
            return Power::ZERO;
        }
        let plan_s = 2.0 * self.econ.config().period.as_millis() as f64 / 1000.0;
        let mut total = 0.0;
        for (i, leaf) in leaves.iter().enumerate() {
            let avail_w = (self.bank_available_j(i, leaf.power()) / plan_s)
                .min(self.banks[i].design_load().as_watts());
            total += avail_w;
        }
        Power::from_watts(total)
    }

    /// Closes the settlement interval ending at `now`: judges the open
    /// curtailment window (if any) on the interval's *mean* utility
    /// draw, then resets the accumulators. Intervals ending within two
    /// economic periods of the window start are the containment budget:
    /// they may prove containment but never count as violations, giving
    /// the contract push and the capping loops below time to settle
    /// without the brief over-limit noise of an uncontrolled site
    /// being booked as a breach.
    fn settle_period(&mut self, now: SimTime, limit_w: Option<f64>, system: &mut DynamoSystem) {
        if self.period_ms == 0 {
            return;
        }
        let period_ms = self.period_ms;
        let mean_w = self.period_energy_j / (period_ms as f64 / 1000.0);
        self.period_energy_j = 0.0;
        self.period_ms = 0;
        let (Some(mut ep), Some(limit_w)) = (self.episode, limit_w) else {
            return;
        };
        if mean_w <= limit_w + CONTAIN_EPS_W {
            if ep.contained_at.is_none() {
                ep.contained_at = Some(now);
                self.last_containment_ms = Some(now.as_millis() - ep.started.as_millis());
                self.episode = Some(ep);
            }
            return;
        }
        let budget = SimDuration::from_millis(2 * self.econ.config().period.as_millis());
        if now > ep.started + budget {
            self.violation_ms += period_ms;
            let first = !ep.violated;
            ep.violated = true;
            self.episode = Some(ep);
            let obs = system.observability_mut();
            obs.record_grid_violation_tick(period_ms / 1000);
            if first {
                obs.record_curtailment_violation(now, &self.name, limit_w, mean_w);
            }
        }
    }

    /// Recomputes the cached aggregate charge fraction (only called in
    /// ticks where a bank actually stepped).
    fn refresh_charge_frac(&mut self) {
        let mut charge = 0.0;
        let mut cap = 0.0;
        for b in &self.banks {
            charge += b.charge_joules();
            cap += b.capacity_joules();
        }
        self.charge_frac = if cap > 0.0 { charge / cap } else { 1.0 };
        self.charge_low_water = self.charge_low_water.min(self.charge_frac);
    }

    /// Advances the layer by one tick. `site_draw` is the true server
    /// draw at MSB level; `leaves` the fleet's leaves, whose power
    /// partials are the load each leaf's bank carries. Pushes contracts
    /// and records metrics through `system`.
    pub(crate) fn step(
        &mut self,
        now: SimTime,
        dt: SimDuration,
        site_draw: Power,
        leaves: &[LeafColumns],
        system: &mut DynamoSystem,
    ) {
        let signal = *self.scenario.signal_at(now);
        let capacity_w = self.econ.capacity().as_watts();
        let curtail_w = signal.curtail_frac.map(|f| f * capacity_w);

        // Curtailment window transitions.
        match (self.episode.is_some(), curtail_w.is_some()) {
            (false, true) => {
                self.episode = Some(Episode {
                    started: now,
                    contained_at: None,
                    violated: false,
                });
                self.curtailments += 1;
                system.observability_mut().record_grid_curtailment_start();
            }
            (true, false) => {
                let ep = self.episode.take().expect("episode checked above");
                let contained = ep.contained_at.is_some() && !ep.violated;
                if contained {
                    self.contained += 1;
                }
                system
                    .observability_mut()
                    .record_grid_curtailment_end(contained);
            }
            _ => {}
        }

        // Slow loop: close the settlement interval, then run the
        // economic cycle.
        if self.econ.due(now) {
            self.settle_period(now, curtail_w, system);
            let headroom = self.ride_headroom(leaves);
            let decision = self.econ.cycle(now, &signal, headroom);
            if decision.changed {
                for &(dev, share) in &self.msbs {
                    system.set_upper_contract(dev, decision.contract.map(|c| c * share));
                }
            }
            system
                .observability_mut()
                .record_grid_econ_cycle(decision.changed);
        }

        // Fast loop: DCUPS buffering against the current utility target.
        let dt_s = dt.as_millis() as f64 / 1000.0;
        let mut discharge_w = 0.0;
        let mut recharge_w = 0.0;
        if self.dcups_cfg.enabled && !self.banks.is_empty() {
            let target_w = self.econ.utility_target().map(|p| p.as_watts());
            let need_w = target_w
                .map(|t| (site_draw.as_watts() - t).max(0.0))
                .unwrap_or(0.0);
            if need_w > 0.0 {
                // Proportional take: every bank contributes its share of
                // available power, so no leaf's reserve drains first.
                let mut total_avail = 0.0;
                for (i, leaf) in leaves.iter().enumerate() {
                    let avail_w = (self.bank_available_j(i, leaf.power()) / dt_s)
                        .min(self.banks[i].design_load().as_watts());
                    self.avail_scratch[i] = avail_w;
                    total_avail += avail_w;
                }
                if total_avail > 0.0 {
                    let scale = (need_w / total_avail).min(1.0);
                    for i in 0..self.banks.len() {
                        let take = self.avail_scratch[i] * scale;
                        if take > 0.0 {
                            self.banks[i].step(false, Power::from_watts(take), dt);
                            discharge_w += take;
                        }
                    }
                }
                if discharge_w > 0.0 {
                    self.any_below_full = true;
                    self.discharge_ms += dt.as_millis();
                    system
                        .observability_mut()
                        .record_dcups_discharge(dt.as_millis() / 1000);
                    self.refresh_charge_frac();
                }
            } else if self.any_below_full && target_w.is_none() {
                // Quiet grid: recharge. The recharge power is real load
                // and counts into utility draw.
                let mut all_full = true;
                for bank in &mut self.banks {
                    if bank.charge_joules() < bank.capacity_joules() {
                        let before = bank.charge_joules();
                        bank.step(true, Power::ZERO, dt);
                        recharge_w += (bank.charge_joules() - before) / dt_s;
                        if bank.charge_joules() < bank.capacity_joules() {
                            all_full = false;
                        }
                    }
                }
                self.any_below_full = !all_full;
                self.refresh_charge_frac();
            }
        }

        let utility_w = site_draw.as_watts() - discharge_w + recharge_w;
        self.utility_draw_w = utility_w;

        // Settlement metering: utility energy accrues into the open
        // interval; judgment happens at the next economic boundary,
        // above, on the interval mean — the quantity a utility meters.
        self.period_energy_j += utility_w * dt_s;
        self.period_ms += dt.as_millis();

        let obs = system.observability_mut();
        if obs.is_enabled() {
            obs.set_grid_gauges(
                signal.price_per_mwh,
                signal.frequency_hz,
                curtail_w.unwrap_or(0.0),
                utility_w,
                self.econ.pushed().map_or(0.0, |p| p.as_watts()),
                self.charge_frac,
            );
        }
    }

    /// Captures the layer's dynamic state.
    pub(crate) fn state(&self) -> GridLayerState {
        GridLayerState {
            econ: self.econ.state(),
            banks: self.banks.clone(),
            episode: self.episode.map(|e| EpisodeState {
                started_ms: e.started.as_millis(),
                contained_at_ms: e.contained_at.map(|t| t.as_millis()),
                violated: e.violated,
            }),
            curtailments: self.curtailments,
            contained: self.contained,
            violation_ms: self.violation_ms,
            discharge_ms: self.discharge_ms,
            charge_low_water: self.charge_low_water,
            utility_draw_w: self.utility_draw_w,
            any_below_full: self.any_below_full,
            period_energy_j: self.period_energy_j,
            period_ms: self.period_ms,
            last_containment_ms: self.last_containment_ms,
        }
    }

    /// Restores dynamic state captured by [`GridLayer::state`].
    pub(crate) fn restore(
        &mut self,
        state: &GridLayerState,
        now: SimTime,
    ) -> Result<(), SnapError> {
        // A window opened, and was contained, before the snapshot.
        let episode = state.episode.iter();
        let times = episode.flat_map(|e| [Some(e.started_ms), e.contained_at_ms]);
        if let Some(ms) = times.flatten().find(|&ms| ms > now.as_millis()) {
            return Err(SnapError::Corrupt(format!(
                "curtailment episode dated t={ms} ms in a snapshot taken at {now:?}"
            )));
        }
        if state.banks.len() != self.banks.len() {
            return Err(SnapError::Corrupt(format!(
                "grid snapshot has {} DCUPS banks, rebuilt layer has {}",
                state.banks.len(),
                self.banks.len()
            )));
        }
        // A bank's sizing is this build's, not the file's: only charge
        // and state move.
        let mut banks = Vec::with_capacity(self.banks.len());
        for (i, (bank, saved)) in self.banks.iter().zip(&state.banks).enumerate() {
            let restored = bank.restored(saved);
            banks.push(restored.map_err(|e| e.within(format_args!("leaf {i} bank")))?);
        }
        self.econ.restore(&state.econ)?;
        self.banks = banks;
        self.episode = state.episode.as_ref().map(|e| Episode {
            started: SimTime::from_millis(e.started_ms),
            contained_at: e.contained_at_ms.map(SimTime::from_millis),
            violated: e.violated,
        });
        self.curtailments = state.curtailments;
        self.contained = state.contained;
        self.violation_ms = state.violation_ms;
        self.discharge_ms = state.discharge_ms;
        self.charge_low_water = state.charge_low_water;
        self.utility_draw_w = state.utility_draw_w;
        self.any_below_full = state.any_below_full;
        self.period_energy_j = state.period_energy_j;
        self.period_ms = state.period_ms;
        self.last_containment_ms = state.last_containment_ms;
        // Cached aggregate, recomputed from the restored banks.
        let mut charge = 0.0;
        let mut cap = 0.0;
        for b in &self.banks {
            charge += b.charge_joules();
            cap += b.capacity_joules();
        }
        self.charge_frac = if cap > 0.0 { charge / cap } else { 1.0 };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Datacenter, DatacenterBuilder, ServicePlan};
    use dcsim::SimDuration;
    use dyngrid::GridScenario;
    use workloads::ServiceKind;

    /// A small datacenter whose MSB rating is pinned to ~1.15× its
    /// steady draw, so the default presets' 0.80 curtailment actually
    /// binds (0.92× draw) while the physical three-band stays in Hold.
    fn grid_dc(seed: u64, config: GridConfig) -> Datacenter {
        let baseline = {
            let mut dc = base(seed).build();
            dc.run_for(SimDuration::from_secs(60));
            dc.fleet().stats().total_power
        };
        base(seed).msb_rating(baseline * 1.15).grid(config).build()
    }

    fn base(seed: u64) -> DatacenterBuilder {
        DatacenterBuilder::new()
            .sbs_per_msb(2)
            .rpps_per_sb(2)
            .racks_per_rpp(2)
            .servers_per_rack(4)
            .service_plan(ServicePlan::Mix(vec![
                (ServiceKind::Web, 0.6),
                (ServiceKind::Cache, 0.4),
            ]))
            .seed(seed)
    }

    fn no_batteries(scenario: GridScenario) -> GridConfig {
        GridConfig {
            scenario,
            econ: EconConfig::default(),
            dcups: DcupsBankConfig {
                enabled: false,
                ..DcupsBankConfig::default()
            },
        }
    }

    #[test]
    fn curtailment_contained_by_contract_pushes_alone() {
        let scenario = GridScenario::preset("curtailment-window").unwrap();
        let mut dc = grid_dc(31, no_batteries(scenario));
        // Window is 300..900 s; the containment budget is two 60 s
        // economic periods. Run well past the clear.
        dc.run_for(SimDuration::from_secs(1000));
        let summary = dc.grid().expect("grid configured").summary();
        assert_eq!(summary.curtailments, 1, "{summary:?}");
        assert_eq!(summary.contained, 1, "window not contained: {summary:?}");
        assert_eq!(summary.violation_secs, 0, "{summary:?}");
        assert_eq!(summary.discharge_secs, 0, "batteries are disabled");
        // Contained within the two-period budget.
        assert!(summary.last_containment_secs.unwrap() <= 120, "{summary:?}");
        // Churn bound: one push down (ramp covers 20% in one 50% step),
        // one clear staircase back up — far fewer than the cycle count.
        assert!(
            summary.limit_changes <= 6,
            "limit churn {} too high",
            summary.limit_changes
        );
        assert!(summary.econ_cycles >= 16, "{summary:?}");
        // After the clear the staircase must fully release the site.
        assert_eq!(summary.site_contract, None, "{summary:?}");
    }

    #[test]
    fn batteries_ride_through_and_recharge() {
        let scenario = GridScenario::preset("curtailment-window").unwrap();
        let mut dc = grid_dc(33, GridConfig::for_scenario(scenario));
        dc.run_until(dcsim::SimTime::from_millis(600_000));
        let grid = dc.grid().unwrap();
        assert!(grid.curtailment_active());
        let mid = grid.summary();
        // The banks dwarf this tiny site's draw, so the window rides on
        // discharge: utility draw is held at the curtailed target while
        // true server draw may sit above it.
        assert!(mid.discharge_secs > 0, "{mid:?}");
        assert_eq!(mid.violation_secs, 0, "{mid:?}");
        assert!(mid.charge_fraction < 1.0, "{mid:?}");
        dc.run_for(SimDuration::from_secs(1500));
        let end = dc.grid().unwrap().summary();
        assert_eq!(end.curtailments, 1, "{end:?}");
        assert_eq!(end.contained, 1, "{end:?}");
        // Quiet grid after the clear: banks recharge back to full.
        assert!(
            end.charge_fraction > 0.999,
            "banks did not recharge: {end:?}"
        );
        assert!(end.charge_low_water < 1.0, "{end:?}");
    }

    #[test]
    fn quiet_scenario_never_touches_contracts() {
        let mut dc = grid_dc(35, GridConfig::for_scenario(GridScenario::nominal()));
        dc.run_for(SimDuration::from_secs(600));
        let summary = dc.grid().unwrap().summary();
        assert_eq!(summary.limit_changes, 0, "{summary:?}");
        assert_eq!(summary.curtailments, 0, "{summary:?}");
        assert_eq!(summary.discharge_secs, 0, "{summary:?}");
        assert_eq!(summary.site_contract, None, "{summary:?}");
        assert!(summary.econ_cycles >= 9, "{summary:?}");
        // No discharge, no recharge: utility draw is exactly server
        // draw, to the bit.
        let root = dc.topology().root();
        assert_eq!(
            summary.utility_draw.as_watts().to_bits(),
            dc.device_power(root).as_watts().to_bits()
        );
    }

    #[test]
    fn grid_runs_bit_identically_across_thread_counts() {
        let scenario = || GridScenario::preset("brownout").unwrap();
        let run = |threads: usize| {
            let mut dc = grid_dc(37, GridConfig::for_scenario(scenario()));
            dc.set_worker_threads(threads);
            dc.run_for(SimDuration::from_secs(400));
            let root = dc.topology().root();
            (
                dc.device_power(root).as_watts().to_bits(),
                dc.grid().unwrap().summary(),
            )
        };
        let (p1, s1) = run(1);
        let (p2, s2) = run(2);
        assert_eq!(p1, p2);
        assert_eq!(s1, s2);
    }

    /// A bank's sizing is configuration: a file that doubles a
    /// battery's capacity (or says it holds more than it can) is not a
    /// state of this site.
    #[test]
    fn restore_rejects_a_bank_that_is_not_the_configured_one() {
        let scenario = GridScenario::preset("curtailment-window").unwrap();
        let mut dc = grid_dc(39, GridConfig::for_scenario(scenario));
        dc.run_for(SimDuration::from_secs(400));
        let refused = |dc: &mut Datacenter, bank: Dcups, what: &str| {
            let mut state = dc.state();
            state.grid.as_mut().unwrap().banks[1] = bank;
            match dc.restore(&state) {
                Err(SnapError::Corrupt(msg)) => assert!(msg.contains(what), "{msg}"),
                other => panic!("expected a refusal naming {what:?}, got {other:?}"),
            }
        };
        let honest = dc.grid().unwrap().banks()[1].clone();
        let doubled = Dcups::with_recharge_frac(honest.design_load() * 2.0, honest.recharge_frac());
        refused(&mut dc, doubled, "leaf 1 bank: DCUPS in snapshot");
        let faster = Dcups::with_recharge_frac(honest.design_load(), 1.0);
        refused(&mut dc, faster, "leaf 1 bank: DCUPS in snapshot");
        let honest = dc.state();
        assert!(dc.restore(&honest).is_ok());
    }

    #[test]
    fn grid_layer_state_round_trips_mid_curtailment() {
        let scenario = GridScenario::preset("curtailment-window").unwrap();
        let mut dc = grid_dc(39, GridConfig::for_scenario(scenario));
        dc.run_for(SimDuration::from_secs(400));
        assert!(dc.grid().unwrap().curtailment_active());
        let state = dc.grid().unwrap().state();
        let bytes = state.to_snap_bytes();
        let back = GridLayerState::from_snap_bytes(&bytes).expect("decode");
        assert_eq!(state, back);
        assert!(back.episode.is_some());
        assert!(!back.banks.is_empty());
    }
}

/// An in-flight curtailment window, snapshot form.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EpisodeState {
    pub(crate) started_ms: u64,
    pub(crate) contained_at_ms: Option<u64>,
    pub(crate) violated: bool,
}

/// The grid layer's dynamic state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GridLayerState {
    pub(crate) econ: EconControllerState,
    pub(crate) banks: Vec<Dcups>,
    pub(crate) episode: Option<EpisodeState>,
    pub(crate) curtailments: u64,
    pub(crate) contained: u64,
    pub(crate) violation_ms: u64,
    pub(crate) discharge_ms: u64,
    pub(crate) charge_low_water: f64,
    pub(crate) utility_draw_w: f64,
    pub(crate) any_below_full: bool,
    pub(crate) period_energy_j: f64,
    pub(crate) period_ms: u64,
    pub(crate) last_containment_ms: Option<u64>,
}

impl Snapshot for GridLayerState {
    const KIND: &'static str = "dynamo.GridLayerState";
    const VERSION: u32 = 1;

    fn encode_body(&self, w: &mut SnapWriter) {
        self.econ.encode_body(w);
        w.put_u64(self.banks.len() as u64);
        for b in &self.banks {
            b.encode_body(w);
        }
        match &self.episode {
            Some(e) => {
                w.put_u8(1);
                w.put_u64(e.started_ms);
                match e.contained_at_ms {
                    Some(ms) => {
                        w.put_u8(1);
                        w.put_u64(ms);
                    }
                    None => w.put_u8(0),
                }
                w.put_bool(e.violated);
            }
            None => w.put_u8(0),
        }
        w.put_u64(self.curtailments);
        w.put_u64(self.contained);
        w.put_u64(self.violation_ms);
        w.put_u64(self.discharge_ms);
        w.put_f64(self.charge_low_water);
        w.put_f64(self.utility_draw_w);
        w.put_bool(self.any_below_full);
        w.put_f64(self.period_energy_j);
        w.put_u64(self.period_ms);
        match self.last_containment_ms {
            Some(ms) => {
                w.put_u8(1);
                w.put_u64(ms);
            }
            None => w.put_u8(0),
        }
    }

    fn decode_body(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let econ = EconControllerState::decode_body(r)?;
        let banks = r.get_vec(Dcups::decode_body)?;
        let episode = match r.get_u8()? {
            0 => None,
            1 => {
                let started_ms = r.get_count()?;
                let contained_at_ms = match r.get_u8()? {
                    0 => None,
                    1 => Some(r.get_count()?),
                    other => {
                        return Err(SnapError::Corrupt(format!("bad containment tag {other}")))
                    }
                };
                Some(EpisodeState {
                    started_ms,
                    contained_at_ms,
                    violated: r.get_bool()?,
                })
            }
            other => return Err(SnapError::Corrupt(format!("bad episode tag {other}"))),
        };
        Ok(GridLayerState {
            econ,
            banks,
            episode,
            curtailments: r.get_count()?,
            contained: r.get_count()?,
            violation_ms: r.get_count()?,
            discharge_ms: r.get_count()?,
            charge_low_water: r.get_f64()?,
            utility_draw_w: r.get_f64()?,
            any_below_full: r.get_bool()?,
            period_energy_j: r.get_f64()?,
            period_ms: r.get_count()?,
            last_containment_ms: match r.get_u8()? {
                0 => None,
                1 => Some(r.get_count()?),
                other => {
                    return Err(SnapError::Corrupt(format!(
                        "bad containment-time tag {other}"
                    )))
                }
            },
        })
    }
}
