//! The deployed controller hierarchy, each controller on its own cycle
//! schedule.

use std::sync::Arc;

use dcsim::snap::{ConfigDigest, SnapError, SnapReader, SnapWriter};
use dcsim::{CycleSchedule, SimDuration, SimRng, SimTime};
use dynobs::ObsConfig;
use dynrpc::LinkProfile;
use powerinfra::{DeviceId, Power, Topology};
use workloads::ServiceKind;

use crate::events::{collect_due, load_tier, save_tier, tier_schedules, ControllerEvent};
use crate::failover::Failover;
use crate::fleet::Fleet;
use crate::leaf_exec::LeafTier;
use crate::obs::Observability;
use crate::upper_exec::UpperTier;
use dynpool::WorkerPool;

/// Leaf pulling cycle (§III-C1: every leaf controller pulls its
/// servers' power every 3 s).
const LEAF_PERIOD: SimDuration = SimDuration::from_secs(3);

/// Upper pulling cycle (paper: 9 s), three leaf cycles: upper
/// controllers coordinate children that have each cycled since the
/// last contract push.
const UPPER_PERIOD: SimDuration = SimDuration::from_secs(9);

// The stacked loops stay timescale-separated: each tier cycles slower
// than the tier it drives, up to the grid layer's economic cycle.
const _: () = assert!(
    LEAF_PERIOD.as_millis() < UPPER_PERIOD.as_millis()
        && UPPER_PERIOD.as_millis() < dyngrid::ECON_PERIOD.as_millis()
);

/// Deployment configuration for the control plane. Every controller
/// runs [`dynamo_controller::PAPER_BANDS`], leaves every 3 s and uppers
/// every 9 s.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// The window each tier's cycle phases are staggered evenly over:
    /// controller `i` of an `n`-instance tier first fires at
    /// `phase_spread · i / n`. Zero (the default) is lockstep.
    pub phase_spread: SimDuration,
    /// Controller↔agent link characteristics.
    pub rpc: LinkProfile,
    /// Master switch: with capping disabled Dynamo only monitors —
    /// the baseline configuration for "what if we had no Dynamo"
    /// experiments.
    pub capping_enabled: bool,
    /// Dry-run mode (§VI): leaf controllers compute and log decisions
    /// but never actuate.
    pub dry_run: bool,
    /// Observability configuration ([`dynobs`]). Disabled by default:
    /// every recording call short-circuits and the exporters render an
    /// all-zero registry.
    pub obs: ObsConfig,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            phase_spread: SimDuration::ZERO,
            rpc: LinkProfile::datacenter(),
            capping_enabled: true,
            dry_run: false,
            obs: ObsConfig::default(),
        }
    }
}

/// The full Dynamo control plane for one datacenter: a leaf controller
/// per RPP and an upper controller per SB and MSB, mirroring §IV's
/// production configuration ("we configure RPPs or PDU Breakers as the
/// leaf controllers and skip rack-level power monitoring").
///
/// Each controller instance owns its own [`CycleSchedule`], like the
/// independent daemons of the deployed system; nothing forces cycles to
/// coincide. Under the default zero phase spread every schedule has
/// phase zero and all cycles of a tier fall due at the same instants.
pub struct DynamoSystem {
    config: SystemConfig,
    pub(crate) leaves: LeafTier,
    pub(crate) uppers: UpperTier,
    pub(crate) failover: Failover,
    /// One cycle schedule per leaf controller, by leaf index.
    pub(crate) leaf_cycles: Vec<CycleSchedule>,
    /// One cycle schedule per upper controller, by upper index.
    pub(crate) upper_cycles: Vec<CycleSchedule>,
    obs: Observability,
    /// Persistent worker pool for same-instant leaf dispatch, shared
    /// with the fleet by the embedding [`crate::Datacenter`]; its size
    /// is the dispatch's shard count (one shard, run inline, without a
    /// pool). The paper runs ~100 leaf controllers as concurrent
    /// threads in one consolidated binary (§IV); the result is
    /// bit-identical at any width because every leaf owns a disjoint
    /// server span and a private RPC RNG stream.
    pool: Option<Arc<WorkerPool>>,
    /// Scratch: leaf indices due this tick, ascending. Reused.
    leaf_due: Vec<usize>,
    /// Scratch: upper indices due this tick, ascending. Reused.
    upper_due: Vec<usize>,
    /// Reused scratch for the leaves that ran: the post-elision due list
    /// (see [`LeafTier::filter_quiescent`]), or the takeovers of a
    /// monitoring-only tick.
    live_due: Vec<usize>,
}

impl DynamoSystem {
    /// Builds the controller hierarchy for `topo`, server `i` running
    /// `services[i]`, whose controller-facing metadata is
    /// [`crate::service_class_of`].
    ///
    /// # Panics
    ///
    /// Panics if the topology has no RPP devices, or if `services` does
    /// not name one service per server.
    pub fn build(
        topo: &Topology,
        services: &[ServiceKind],
        config: SystemConfig,
        rng: &mut SimRng,
    ) -> Self {
        let mut obs = Observability::new(&config.obs);
        let leaves = LeafTier::build(topo, services, &config, rng, &obs);
        let uppers = UpperTier::build(topo, &leaves);
        obs.name_tracks(topo, &leaves.devices, &uppers.devices);
        let leaf_cycles = tier_schedules(LEAF_PERIOD, config.phase_spread, leaves.len());
        let upper_cycles = tier_schedules(UPPER_PERIOD, config.phase_spread, uppers.len());
        let failover = Failover::new(leaves.len(), uppers.len());
        DynamoSystem {
            config,
            leaves,
            uppers,
            failover,
            leaf_cycles,
            upper_cycles,
            obs,
            pool: None,
            leaf_due: Vec::new(),
            upper_due: Vec::new(),
            live_due: Vec::new(),
        }
    }

    /// Attaches a persistent worker pool for same-instant leaf
    /// dispatch. The datacenter shares one pool between fleet physics
    /// and the control plane so both fan-outs reuse the same parked
    /// workers.
    pub fn attach_pool(&mut self, pool: Arc<WorkerPool>) {
        self.pool = Some(pool);
    }

    /// Detaches the worker pool; leaf dispatch runs as one shard on
    /// the caller.
    pub fn detach_pool(&mut self) {
        self.pool = None;
    }

    /// The per-leaf server-id spans: every leaf owns a contiguous
    /// ascending range and the ranges tile the fleet in leaf order.
    /// The fleet this system ticks must be built in exactly these
    /// ([`Fleet::new`]), as the datacenter builder does.
    pub fn leaf_spans(&self) -> &[std::ops::Range<usize>] {
        &self.leaves.spans
    }

    /// The deployment configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Number of leaf controllers.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Number of upper controllers.
    pub fn upper_count(&self) -> usize {
        self.uppers.len()
    }

    /// The leaf controller protecting `device`, if any.
    pub fn leaf_for(&self, device: DeviceId) -> Option<&dynamo_controller::LeafController> {
        self.leaves
            .index_of
            .get(&device)
            .map(|&i| &self.leaves.leaves[i].controller)
    }

    /// The upper controller protecting `device`, if any.
    pub fn upper_for(&self, device: DeviceId) -> Option<&dynamo_controller::UpperController> {
        self.uppers
            .index_of
            .get(&device)
            .map(|&i| &self.uppers.controllers[i])
    }

    /// The last aggregated power the leaf controller for `device`
    /// computed, if the device has one.
    pub fn leaf_aggregate(&self, device: DeviceId) -> Option<Power> {
        self.leaves
            .index_of
            .get(&device)
            .map(|&i| self.leaves.leaves[i].last_aggregate)
    }

    /// All leaf-protected devices, in build order.
    pub fn leaf_devices(&self) -> &[DeviceId] {
        &self.leaves.devices
    }

    /// The cycle phase offset of the leaf controller for `device`, if
    /// the device has one. Zero at a zero phase spread.
    pub fn leaf_phase(&self, device: DeviceId) -> Option<SimDuration> {
        self.leaves
            .index_of
            .get(&device)
            .map(|&i| self.leaf_cycles[i].phase())
    }

    /// §VI staged rollout: "we use a four-phase staged roll-out for new
    /// changes to the agent or control logic, so any serious issues will
    /// be captured in early phases before going wide."
    ///
    /// Phase 1 activates capping on ~1% of leaf controllers (at least
    /// one), phase 2 on 10%, phase 3 on 50%, phase 4 on all; the rest
    /// run in dry-run mode — deciding and logging without actuating.
    /// Returns the number of active (non-dry-run) leaf controllers.
    ///
    /// # Panics
    ///
    /// Panics unless `phase` is 1–4.
    pub fn set_rollout_phase(&mut self, phase: u8) -> usize {
        assert!(
            (1..=4).contains(&phase),
            "rollout phase must be 1-4, got {phase}"
        );
        let frac = match phase {
            1 => 0.01,
            2 => 0.10,
            3 => 0.50,
            _ => 1.0,
        };
        let n = self.leaves.len();
        let active = ((n as f64 * frac).ceil() as usize).clamp(1, n);
        for (i, leaf) in self.leaves.leaves.iter_mut().enumerate() {
            leaf.controller.set_dry_run(i >= active);
            // Conservatively force a real cycle everywhere after a
            // rollout change; dry-run flips are rare operator actions.
            leaf.quiet = false;
        }
        active
    }

    /// Operator override: pushes (or clears) a contractual limit on the
    /// leaf controller protecting `device`. This is how production
    /// end-to-end tests "manually trigger the power capping by lowering
    /// the capping threshold during the test" (§IV-C).
    ///
    /// # Panics
    ///
    /// Panics if no leaf controller protects `device`.
    pub fn set_leaf_contract(&mut self, device: DeviceId, limit: Option<Power>) {
        let &i = self
            .leaves
            .index_of
            .get(&device)
            .unwrap_or_else(|| panic!("no leaf controller protects {device}"));
        let leaf = &mut self.leaves.leaves[i];
        leaf.quiet = false;
        leaf.controller.set_contractual_limit(limit);
    }

    /// Pushes (or clears) a contractual limit on the upper controller
    /// protecting `device` (an SB or MSB). This is the §III-D actuation
    /// surface a grid-facing layer drives: the controller obeys
    /// `min(physical, contractual)` from its next cycle and propagates
    /// tighter child contracts down the hierarchy itself.
    ///
    /// # Panics
    ///
    /// Panics if no upper controller protects `device`.
    pub fn set_upper_contract(&mut self, device: DeviceId, limit: Option<Power>) {
        let &i = self
            .uppers
            .index_of
            .get(&device)
            .unwrap_or_else(|| panic!("no upper controller protects {device}"));
        self.uppers.controllers[i].set_contractual_limit(limit);
    }

    /// The devices with upper controllers, SBs before MSBs in build
    /// order.
    pub fn upper_devices(&self) -> &[DeviceId] {
        &self.uppers.devices
    }

    /// Total failovers so far.
    pub fn failovers(&self) -> u64 {
        self.failover.count()
    }

    /// Cycles each leaf controller skipped to a backup takeover, as
    /// `(controller name, skipped cycles)` in leaf build order.
    pub fn skipped_cycles_per_leaf(&self) -> Vec<(String, u64)> {
        self.leaves
            .leaves
            .iter()
            .zip(self.failover.leaf_skipped())
            .map(|(l, &n)| (l.controller.name().to_string(), n))
            .collect()
    }

    /// The control plane's observability state (metrics registry, trace
    /// ring, flight recorder, exporters).
    pub fn observability(&self) -> &Observability {
        &self.obs
    }

    /// Mutable observability access for the embedding simulation
    /// (gauges, datacenter-level incidents, incident flushing).
    pub fn observability_mut(&mut self) -> &mut Observability {
        &mut self.obs
    }

    /// Simulates a primary controller crash for `device`; the redundant
    /// backup takes over at that controller's next cycle (§III-E).
    ///
    /// # Panics
    ///
    /// Panics if no controller protects `device`.
    pub fn fail_primary(&mut self, device: DeviceId) {
        if let Some(&i) = self.leaves.index_of.get(&device) {
            self.leaves.leaves[i].failed = true;
        } else if let Some(&i) = self.uppers.index_of.get(&device) {
            self.failover.fail_upper(i);
        } else {
            panic!("no controller protects {device}");
        }
    }

    /// All alerts raised by any controller, each with the device its
    /// raiser protects: leaves in leaf build order, then uppers.
    pub fn alerts(&self) -> Vec<(DeviceId, dynamo_controller::Alert)> {
        let leaves = self.leaves.devices.iter().zip(&self.leaves.leaves);
        let leaves = leaves.map(|(&d, l)| (d, l.controller.alerts()));
        let uppers = self.uppers.devices.iter().zip(&self.uppers.controllers);
        let uppers = uppers.map(|(&d, c)| (d, c.alerts()));
        leaves
            .chain(uppers)
            .flat_map(|(d, alerts)| alerts.iter().map(move |a| (d, a.clone())))
            .collect()
    }

    /// Folds the control plane's configuration into its section's
    /// digest: every controller's cycle schedule and the rings'
    /// capacities.
    fn fold_config(&self, d: &mut ConfigDigest) {
        for s in self.leaf_cycles.iter().chain(&self.upper_cycles) {
            s.fold_config(d);
        }
        self.obs.fold_config(d);
    }

    /// Saves the control plane's full dynamic state: its configuration
    /// digest, both tiers, failover bookkeeping, per-controller cycle
    /// schedules, and observability.
    pub(crate) fn save(&self, w: &mut SnapWriter) {
        w.put_config(|d| self.fold_config(d));
        self.leaves.save(w, self.obs.is_enabled());
        self.uppers.save(w);
        self.failover.save(w);
        save_tier(&self.leaf_cycles, w);
        save_tier(&self.upper_cycles, w);
        self.obs.save(w);
    }

    /// Loads what [`DynamoSystem::save`] wrote into a system built
    /// with the same configuration.
    pub(crate) fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.config("control plane", |d| self.fold_config(d))?;
        self.leaves.load(r)?;
        self.uppers.load(r)?;
        self.failover.load(r)?;
        load_tier(&mut self.leaf_cycles, r, "leaf")?;
        load_tier(&mut self.upper_cycles, r, "upper")?;
        self.obs.load(r)
    }

    /// Runs any controller cycles due at `now`. Call once per simulation
    /// tick; each controller tracks its own cycle schedule, so with a
    /// nonzero phase spread different leaves fire on different ticks.
    /// Leaves due at the same instant are batched into one dispatch,
    /// sharded over the attached pool.
    ///
    /// # Panics
    ///
    /// Panics if `fleet`'s leaf spans are not this system's
    /// ([`DynamoSystem::leaf_spans`]).
    pub fn tick(&mut self, now: SimTime, fleet: &mut Fleet) -> Vec<ControllerEvent> {
        let mut events = Vec::new();
        collect_due(&mut self.leaf_cycles, now, &mut self.leaf_due);
        collect_due(&mut self.upper_cycles, now, &mut self.upper_due);
        let due = &self.leaf_due;
        if !due.is_empty() {
            assert!(
                fleet.leaf_spans().eq(self.leaf_spans().iter().cloned()),
                "the fleet's leaf spans are not the control plane's: \
                 build it with Fleet::new(.., system.leaf_spans())"
            );
            let mut ran = std::mem::take(&mut self.live_due);
            if self.config.capping_enabled {
                // Quiescent-cycle elision: split the due list into
                // leaves that must run and cycles that are provably
                // no-op recomputations. The filter runs serially before
                // the dispatch, so the split — and everything
                // downstream — is identical at any width.
                self.leaves.filter_quiescent(due, fleet, &mut ran);
                self.obs
                    .record_elided_cycles((due.len() - ran.len()) as u64);
                if !ran.is_empty() {
                    let pool = self.pool.as_deref();
                    self.leaves.run_due(now, &ran, pool, fleet, self.obs.ids());
                }
            } else {
                self.leaves.monitor_due(now, due, fleet, &mut ran);
            }
            // Merge what the leaves that ran kept, in leaf index order,
            // so the registry and the rings are bit-identical at any
            // width. An elided leaf kept nothing.
            self.obs.merge_leaves(now, &ran, &mut self.leaves.leaves);
            self.leaves
                .collect_events(&ran, &mut self.failover, &mut events);
            self.live_due = ran;
        }
        if !self.upper_due.is_empty() && self.config.capping_enabled {
            self.uppers.run_due(
                now,
                &self.upper_due,
                &mut self.leaves.leaves,
                &mut self.failover,
                &mut events,
                &mut self.obs,
            );
        }
        events
    }
}
