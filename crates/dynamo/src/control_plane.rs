//! The deployed controller hierarchy, driven by per-controller
//! scheduled cycles on the `dcsim` event queue.

use std::sync::Arc;

use dcsim::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use dcsim::{CycleSchedule, SimDuration, SimRng, SimTime};
use dynamo_controller::{ServiceClass, ThreeBandConfig};
use dynobs::ObsConfig;
use dynrpc::LinkProfile;
use powerinfra::{DeviceId, Power, Topology};

use crate::events::{ControllerEvent, CycleDispatcher, PhasePolicy};
use crate::failover::{Failover, FailoverState};
use crate::fleet::Fleet;
use crate::leaf_exec::{LeafTier, LeafTierState};
use crate::obs::{Observability, ObservabilityState};
use crate::upper_exec::{UpperTier, UpperTierState};
use dynpool::WorkerPool;

/// Deployment configuration for the control plane.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Bands for leaf controllers.
    pub leaf_bands: ThreeBandConfig,
    /// Bands for upper controllers.
    pub upper_bands: ThreeBandConfig,
    /// Leaf pulling cycle (paper: 3 s).
    pub leaf_interval: SimDuration,
    /// Upper pulling cycle (paper: 9 s).
    pub upper_interval: SimDuration,
    /// How per-controller cycle phases are assigned within each tier.
    /// [`PhasePolicy::Lockstep`] (the default) reproduces the legacy
    /// global-schedule control plane bit-for-bit.
    pub phase: PhasePolicy,
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
            leaf_bands: ThreeBandConfig::default(),
            upper_bands: ThreeBandConfig::default(),
            leaf_interval: SimDuration::from_secs(3),
            upper_interval: SimDuration::from_secs(9),
            phase: PhasePolicy::Lockstep,
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
/// Each controller instance owns its own [`CycleSchedule`] on a
/// cycle-dispatcher event queue, like the independent daemons of the
/// deployed system; nothing forces cycles to coincide. Under the default
/// [`PhasePolicy::Lockstep`] every schedule has phase zero, all cycles
/// of a tier fall due at the same instants, and the output is
/// bit-identical to the pre-event-driven lockstep control plane.
pub struct DynamoSystem {
    config: SystemConfig,
    leaves: LeafTier,
    uppers: UpperTier,
    failover: Failover,
    dispatcher: CycleDispatcher,
    obs: Observability,
    /// Persistent worker pool for same-instant leaf dispatch, shared
    /// with the fleet by the embedding [`crate::Datacenter`]; its size
    /// is the dispatch's shard count (one shard, run inline, without a
    /// pool). The paper runs ~100 leaf controllers as concurrent
    /// threads in one consolidated binary (§IV); the result is
    /// bit-identical at any width because every leaf owns a disjoint
    /// server span and a private RPC RNG stream.
    pool: Option<Arc<WorkerPool>>,
    /// Reused scratch for the post-elision due list (see
    /// [`LeafTier::filter_quiescent`]).
    live_due: Vec<usize>,
}

impl DynamoSystem {
    /// Builds the controller hierarchy for `topo`, using `service_of`
    /// to fetch the controller-facing metadata of each server.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no RPP devices.
    pub fn build(
        topo: &Topology,
        service_of: &dyn Fn(u32) -> ServiceClass,
        config: SystemConfig,
        rng: &mut SimRng,
    ) -> Self {
        let obs = Observability::new(&config.obs);
        let leaves = LeafTier::build(topo, service_of, &config, rng, &obs);
        let uppers = UpperTier::build(topo, &config, &leaves);
        let leaf_cycles: Vec<CycleSchedule> = config
            .phase
            .offsets(leaves.len())
            .into_iter()
            .map(|o| CycleSchedule::with_phase(config.leaf_interval, o))
            .collect();
        let upper_cycles: Vec<CycleSchedule> = config
            .phase
            .offsets(uppers.len())
            .into_iter()
            .map(|o| CycleSchedule::with_phase(config.upper_interval, o))
            .collect();
        let failover = Failover::new(leaves.len(), uppers.len());
        let dispatcher = CycleDispatcher::new(leaf_cycles, upper_cycles);
        DynamoSystem {
            config,
            leaves,
            uppers,
            failover,
            dispatcher,
            obs,
            pool: None,
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
    /// The fleet this system ticks must be registered with exactly
    /// these ([`Fleet::set_leaf_spans`]).
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
    /// the device has one. Zero under [`PhasePolicy::Lockstep`].
    pub fn leaf_phase(&self, device: DeviceId) -> Option<SimDuration> {
        self.leaves
            .index_of
            .get(&device)
            .map(|&i| self.dispatcher.leaf_cycle(i).phase())
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
            .map(|(l, &n)| (l.controller.name_shared().to_string(), n))
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

    /// All alerts raised by any controller.
    pub fn alerts(&self) -> Vec<dynamo_controller::Alert> {
        let mut out = Vec::new();
        for leaf in &self.leaves.leaves {
            out.extend_from_slice(leaf.controller.alerts());
        }
        for c in &self.uppers.controllers {
            out.extend_from_slice(c.alerts());
        }
        out
    }

    /// Captures the control plane's full dynamic state for a snapshot:
    /// both tiers, failover bookkeeping, per-controller cycle
    /// schedules, and observability. The sections are the flat wire
    /// structs they have always been; what a leaf owns of the failover
    /// and observability sections (its pending-failure flag, its last
    /// band) is gathered here and split back by
    /// [`LeafTier::restore`]. Pending incident dumps must be flushed
    /// first (see [`crate::Datacenter`]'s checkpoint path).
    pub(crate) fn state(&self) -> SystemState {
        let (leaf_schedules, upper_schedules) = self.dispatcher.schedules();
        let leaves = &self.leaves.leaves;
        let failed = leaves.iter().map(|l| l.failed).collect();
        let shard_bands = leaves.iter().map(|l| l.band.code()).collect();
        SystemState {
            leaves: self.leaves.state(),
            uppers: self.uppers.state(),
            failover: self.failover.state(failed),
            leaf_schedules: leaf_schedules.to_vec(),
            upper_schedules: upper_schedules.to_vec(),
            obs: self.obs.state(shard_bands),
        }
    }

    /// Restores the control plane from a decoded snapshot taken against
    /// an identically-configured system.
    pub(crate) fn restore(&mut self, state: &SystemState) -> Result<(), SnapError> {
        self.leaves.restore(
            &state.leaves,
            &state.failover.leaf_failed,
            &state.obs.shard_bands,
        )?;
        self.uppers.restore(&state.uppers)?;
        self.failover.restore(&state.failover)?;
        self.dispatcher
            .restore_schedules(state.leaf_schedules.clone(), state.upper_schedules.clone())?;
        self.obs.restore(&state.obs)?;
        Ok(())
    }

    /// Runs any controller cycles due at `now`. Call once per simulation
    /// tick; each controller tracks its own cycle schedule on the
    /// dispatcher's event queue, so with a nonzero phase spread
    /// different leaves fire on different ticks. Leaves due at the same
    /// instant are batched into one dispatch, sharded over the attached
    /// pool.
    ///
    /// # Panics
    ///
    /// Panics if `fleet`'s leaf spans are not this system's
    /// ([`DynamoSystem::leaf_spans`]).
    pub fn tick(&mut self, now: SimTime, fleet: &mut Fleet) -> Vec<ControllerEvent> {
        let mut events = Vec::new();
        self.dispatcher.collect_due(now);
        let due = self.dispatcher.leaf_due();
        if !due.is_empty() {
            assert!(
                fleet.leaf_spans().eq(self.leaf_spans().iter().cloned()),
                "the fleet's leaf spans are not the control plane's: \
                 call fleet.set_leaf_spans(system.leaf_spans()) first"
            );
            let mut live = std::mem::take(&mut self.live_due);
            let ran: &[usize] = if self.config.capping_enabled {
                // Quiescent-cycle elision: split the due list into
                // leaves that must run and cycles that are provably
                // no-op recomputations. The filter runs serially before
                // the dispatch, so the split — and everything
                // downstream — is identical at any width.
                self.leaves.filter_quiescent(due, fleet, &mut live);
                self.obs
                    .record_elided_cycles((due.len() - live.len()) as u64);
                if !live.is_empty() {
                    self.leaves.run_due(
                        now,
                        &live,
                        self.pool.as_deref(),
                        &mut self.failover,
                        fleet,
                        &mut events,
                        self.obs.ids(),
                    );
                }
                &live
            } else {
                self.leaves.monitor_due(
                    now,
                    due,
                    &mut self.failover,
                    fleet,
                    &mut events,
                    self.obs.ids(),
                );
                due
            };
            // Fold the shards of the leaves that ran into the registry
            // in leaf index order, so the merged state is bit-identical
            // at any width. An elided leaf wrote nothing to its shard.
            self.obs
                .merge_leaves(ran, &mut self.leaves.leaves, |l| &mut l.obs);
            self.live_due = live;
        }
        if !self.dispatcher.upper_due().is_empty() && self.config.capping_enabled {
            self.uppers.run_due(
                now,
                self.dispatcher.upper_due(),
                &mut self.leaves.leaves,
                &mut self.failover,
                &mut events,
                &mut self.obs,
            );
        }
        events
    }
}

/// The control plane's full dynamic state: both controller tiers,
/// failover bookkeeping, every per-controller cycle schedule, and the
/// observability subsystem. Everything else the system holds — config,
/// topology-derived geometry, the worker pool, scratch buffers — is
/// rebuilt from the run parameters on restore.
pub(crate) struct SystemState {
    pub(crate) leaves: LeafTierState,
    pub(crate) uppers: UpperTierState,
    pub(crate) failover: FailoverState,
    pub(crate) leaf_schedules: Vec<CycleSchedule>,
    pub(crate) upper_schedules: Vec<CycleSchedule>,
    pub(crate) obs: ObservabilityState,
}

impl Snapshot for SystemState {
    const KIND: &'static str = "dynamo.SystemState";
    const VERSION: u32 = 1;

    fn encode_body(&self, w: &mut SnapWriter) {
        self.leaves.encode_body(w);
        self.uppers.encode_body(w);
        self.failover.encode_body(w);
        w.put_u64(self.leaf_schedules.len() as u64);
        for s in &self.leaf_schedules {
            s.encode_body(w);
        }
        w.put_u64(self.upper_schedules.len() as u64);
        for s in &self.upper_schedules {
            s.encode_body(w);
        }
        self.obs.encode_body(w);
    }

    fn decode_body(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let leaves = LeafTierState::decode_body(r)?;
        let uppers = UpperTierState::decode_body(r)?;
        let failover = FailoverState::decode_body(r)?;
        let leaf_schedules = r.get_vec(CycleSchedule::decode_body)?;
        let upper_schedules = r.get_vec(CycleSchedule::decode_body)?;
        Ok(SystemState {
            leaves,
            uppers,
            failover,
            leaf_schedules,
            upper_schedules,
            obs: ObservabilityState::decode_body(r)?,
        })
    }
}
