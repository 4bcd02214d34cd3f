//! The end-to-end datacenter simulation.
//!
//! [`Datacenter::step`] is the one tick: fleet physics and the leaf
//! control dispatch are each a single implementation sharded over one
//! shared [`WorkerPool`] ([`crate::shard`]); the worker-thread setting
//! only sizes that pool, and one thread means one shard run inline, not
//! a different path. Between the two, the breaker pass steps every
//! device serially against its subtree's power.
//!
//! # Subtree power
//!
//! The hierarchy aggregates bottom-up (§III-C, §III-D): the fleet keeps
//! one exact power partial per leaf, refolded by every step and by
//! [`Fleet::set_server_alive`], and everything on the tick that needs a
//! device's draw — the breaker pass, the grid layer's site draw, the
//! §VI validator, the telemetry sample — reads it through
//! `Subtree::draw`. A device whose covering leaves tile its servers
//! exactly (every RPP, SB and MSB) sums those partials; a device inside
//! one leaf (a rack) folds its servers flat and keeps that fold until
//! the leaf's power epoch moves. See DESIGN.md §12 for the counts
//! behind that split.

use std::ops::Range;
use std::sync::Arc;

use dcsim::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use dcsim::{SimDuration, SimTime};
use dynpool::WorkerPool;
use powerinfra::{Breaker, BreakerStatus, DeviceId, Power, Topology};
use workloads::ServiceKind;

use crate::control_plane::{DynamoSystem, SystemState};
use crate::fleet::{Fleet, FleetState};
use crate::grid::{GridLayer, GridLayerState};
use crate::obs::TickPhase;
use crate::telemetry::{BreakerEvent, Telemetry, TelemetryState};
use crate::validator::{BreakerValidator, ValidatorState};

/// The one way the tick's fan-outs (fleet physics, same-instant leaf
/// control dispatch) run: on a persistent pool as wide as the requested
/// worker threads (the stepping thread included; at most one per
/// leaf), created once and asleep while idle. Frozen surface:
/// `dynbench` names [`ParallelMode::Pooled`], so the type stays until
/// that package is next editable; it selects nothing and must not grow
/// a variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParallelMode {
    /// The requested width whatever the host's core count — tests need
    /// widths above the host's cores. A caller that does not want to
    /// oversubscribe (`dynamo-sim`, `repro`) asks for no more than the
    /// host has.
    #[default]
    Pooled,
}

/// A running datacenter: topology + fleet + control plane + telemetry,
/// advanced by a fixed simulation tick.
///
/// Construct one with [`crate::DatacenterBuilder`]. Each [`Datacenter::step`]:
///
/// 1. advances workloads and server physics by one tick,
/// 2. aggregates subtree power and steps every breaker's thermal model
///    (a trip blacks out the subtree until [`Datacenter::reset_breaker`]),
/// 3. runs any controller cycles due (3 s leaves, 9 s uppers),
/// 4. records telemetry samples on the 3 s grid.
pub struct Datacenter {
    topo: Topology,
    fleet: Fleet,
    system: DynamoSystem,
    telemetry: Telemetry,
    now: SimTime,
    tick: SimDuration,
    /// Where each device's subtree sits in the fleet, by device index.
    subtrees: Vec<Subtree>,
    /// Device ids in index order.
    device_ids: Vec<DeviceId>,
    /// Devices with telemetry traces.
    watched: Vec<DeviceId>,
    /// Last observed breaker status per device index.
    breaker_status: Vec<BreakerStatus>,
    /// Cross-validation of controller aggregates against coarse breaker
    /// readings (§VI).
    validator: BreakerValidator,
    /// Reused buffer for per-sample watched-device readings.
    watched_scratch: Vec<(DeviceId, Power)>,
    /// Validator alerts already forwarded to observability.
    alerts_seen: usize,
    /// Grid-interactive layer (utility signals, economic contracts,
    /// DCUPS buffering), when the builder configured one.
    grid: Option<GridLayer>,
    /// Record per-phase tick wall time into the observability
    /// registry's `dynamo_tick_phase_seconds_*` family. Off by
    /// default: wall clocks are non-deterministic, so determinism
    /// tests never enable it.
    profile_ticks: bool,
}

/// Where one device's subtree sits in the fleet's id space, fixed at
/// assembly, and how its power is read on the tick.
struct Subtree {
    /// The servers the device feeds: always one contiguous ascending id
    /// range ([`Datacenter::assemble`] asserts it).
    servers: Range<u32>,
    /// The fleet leaves overlapping `servers`.
    leaves: Range<usize>,
    /// Whether `leaves` tile `servers` exactly — every device at leaf
    /// level and above. Such a device draws the sum of the fleet's
    /// maintained per-leaf partials: O(leaves) additions over values
    /// that are already exact, so there is nothing to cache (a
    /// watermark over the same leaves would cost as many additions as
    /// the sum it guards). At leaf level that is the flat ascending
    /// fold itself; above it the fold associates per leaf, one fixed
    /// association for the whole run. A device that is not tiled sits
    /// inside one leaf (a rack) and folds its servers flat.
    tiled: bool,
    /// The flat fold of a device inside one leaf, kept while
    /// `memo_key` still reads what it was folded at: most leaves of a
    /// settled fleet change no power bit on most ticks, and every rack
    /// is stepped every tick.
    memo_w: f64,
    /// `(span generation, power epoch of the one covering leaf)` at
    /// fold time. Every change to a server's drawn power bumps its
    /// leaf's epoch; re-registering spans restarts epochs at zero, so
    /// the generation is part of the key.
    memo_key: (u64, u64),
}

/// A `memo_key` no fold was ever taken at.
const NEVER_FOLDED: (u64, u64) = (u64::MAX, u64::MAX);

impl Subtree {
    /// Locates the subtree feeding `ids` (ascending) among the fleet's
    /// leaf `spans`.
    ///
    /// # Panics
    ///
    /// Panics, naming the device, unless `ids` is one contiguous
    /// ascending range that whole leaves tile or one leaf contains —
    /// the only shapes [`powerinfra::TopologyBuilder`] lays out.
    fn locate(name: &str, ids: &[u32], spans: &[Range<usize>]) -> Subtree {
        let start = ids.first().copied().unwrap_or(0);
        assert!(
            !ids.is_empty() && ids.iter().zip(start..).all(|(&sid, k)| sid == k),
            "device {name} does not feed one contiguous ascending server range"
        );
        let (lo, hi) = (start as usize, start as usize + ids.len());
        let leaves =
            spans.partition_point(|s| s.end <= lo)..spans.partition_point(|s| s.start < hi);
        let tiled = spans[leaves.start].start == lo && spans[leaves.end - 1].end == hi;
        assert!(
            tiled || leaves.len() == 1,
            "device {name} is neither tiled by whole leaves nor inside one leaf"
        );
        Subtree {
            servers: start..hi as u32,
            leaves,
            tiled,
            memo_w: 0.0,
            memo_key: NEVER_FOLDED,
        }
    }

    /// The subtree's true power right now.
    fn draw(&mut self, fleet: &Fleet) -> Power {
        let leaves = &fleet.leaves()[self.leaves.clone()];
        if self.tiled {
            return Power::from_watts(leaves.iter().map(|l| l.power().as_watts()).sum());
        }
        let key = (fleet.leaf_span_generation(), leaves[0].power_epoch());
        if self.memo_key != key {
            self.memo_w = leaves[0].power_sum(self.servers.clone());
            self.memo_key = key;
        }
        Power::from_watts(self.memo_w)
    }
}

impl Datacenter {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        topo: Topology,
        fleet: Fleet,
        system: DynamoSystem,
        telemetry: Telemetry,
        watched: Vec<DeviceId>,
        tick: SimDuration,
        validator: BreakerValidator,
        grid: Option<GridLayer>,
    ) -> Self {
        let device_ids: Vec<DeviceId> = topo.iter().map(|d| d.id).collect();
        let breaker_status = vec![BreakerStatus::Nominal; topo.device_count()];
        let mut fleet = fleet;
        // The fleet is partitioned into the control plane's leaves.
        let spans = system.leaf_spans();
        fleet.set_leaf_spans(spans);
        let subtrees = topo
            .iter()
            .map(|d| Subtree::locate(&d.name, &topo.servers_under(d.id), spans))
            .collect();
        Datacenter {
            topo,
            fleet,
            system,
            telemetry,
            now: SimTime::ZERO,
            tick,
            subtrees,
            device_ids,
            watched,
            breaker_status,
            validator,
            watched_scratch: Vec::new(),
            alerts_seen: 0,
            grid,
            profile_ticks: false,
        }
    }

    /// Enables or disables the per-phase tick profiler. Observations
    /// land in the `dynamo_tick_phase_seconds_*` histogram family
    /// (registered unconditionally; all-zero until enabled) and in
    /// [`crate::Observability::tick_phase_profile`]. Wall-clock values
    /// are inherently non-deterministic — leave this off (the default)
    /// when comparing reports or Prometheus output across runs.
    pub fn set_profile_ticks(&mut self, enabled: bool) {
        self.profile_ticks = enabled;
    }

    /// Sets how many threads fleet physics *and* leaf control cycles
    /// fan out over, creating or replacing the persistent pool they
    /// share. The pool's width is `threads` clamped at the leaf count —
    /// both fan-outs shard leaves, so a wider pool would hold threads
    /// no shard ever runs on — and at [`dynpool::MAX_WORKERS`]; it
    /// counts the thread that calls [`Datacenter::step`], which runs
    /// the first shard itself, so width 1 (one thread asked for, or a
    /// one-leaf datacenter) spawns nothing and builds no pool. The
    /// simulation is bit-identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn set_worker_threads(&mut self, threads: usize) {
        assert!(threads >= 1, "need at least one worker thread");
        let width = threads.min(self.system.leaf_count());
        if width > 1 {
            // One pool behind both fan-outs, held by the two of them.
            let pool = Arc::new(WorkerPool::new(width));
            self.fleet.attach_pool(Arc::clone(&pool));
            self.system.attach_pool(pool);
        } else {
            // Every fan-out is one inline shard.
            self.fleet.detach_pool();
            self.system.detach_pool();
        }
    }

    /// The server ids fed by `device`, ascending.
    fn servers_under(&self, device: DeviceId) -> Range<u32> {
        self.subtrees[device.index()].servers.clone()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The power topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The server fleet.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Mutable fleet access (changing traffic patterns or failure rates
    /// mid-run).
    pub fn fleet_mut(&mut self) -> &mut Fleet {
        &mut self.fleet
    }

    /// The control plane.
    pub fn system(&self) -> &DynamoSystem {
        &self.system
    }

    /// Mutable control-plane access (failing primaries in experiments).
    pub fn system_mut(&mut self) -> &mut DynamoSystem {
        &mut self.system
    }

    /// The telemetry store.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The grid-interactive layer, when one was configured.
    pub fn grid(&self) -> Option<&GridLayer> {
        self.grid.as_ref()
    }

    /// True power currently flowing through `device`: the flat
    /// ascending fold over its servers.
    pub fn device_power(&self, device: DeviceId) -> Power {
        self.fleet.power_sum(self.servers_under(device))
    }

    /// True when every device's draw, as the tick reads it, equals bit
    /// for bit an independent fold of the per-server watts in that
    /// device's association — per covering leaf, then across leaves,
    /// for a device its leaves tile; flat for one inside a leaf. It
    /// audits the fleet's maintained partials and the rack memo alike.
    /// Reading a draw may refresh a memo, so this needs `&mut self`; it
    /// never changes what any subsequent read returns.
    pub fn draw_cache_is_exact(&mut self) -> bool {
        let fleet = &self.fleet;
        let flat = |r: Range<u32>| fleet.power_sum(r).as_watts();
        self.subtrees.iter_mut().all(|t| {
            let fresh: f64 = if t.tiled {
                fleet.leaves()[t.leaves.clone()]
                    .iter()
                    .map(|l| l.span())
                    .map(|s| flat(s.start as u32..s.end as u32))
                    .sum()
            } else {
                flat(t.servers.clone())
            };
            t.draw(fleet).as_watts().to_bits() == fresh.to_bits()
        })
    }

    /// Power through `device` attributable to one service (Figure 15's
    /// breakdown view).
    pub fn service_power(&self, device: DeviceId, kind: ServiceKind) -> Power {
        self.fleet
            .power_sum_of_service(self.servers_under(device), kind)
    }

    /// Number of servers currently capped under `device`.
    pub fn capped_under(&self, device: DeviceId) -> usize {
        self.servers_under(device)
            .filter(|&s| self.fleet.cap_of(s).is_some())
            .count()
    }

    /// Mean performance factor of the servers under `device`.
    pub fn performance_under(&self, device: DeviceId) -> f64 {
        self.fleet.mean_performance(self.servers_under(device))
    }

    /// Advances the simulation by one tick.
    pub fn step(&mut self) {
        let now = self.now;
        let mut lap = Lap::new(self.profile_ticks);
        let mut phase_secs = [0.0f64; 7];

        // 1. Workloads and server physics, tile by tile. The wall time
        // lands in the `fused_tile` family; `fleet_step` (the retired
        // phase-at-a-time pass) stays in the exposition, all zeros.
        self.fleet.step(now, self.tick);
        lap.mark(&mut phase_secs, TickPhase::FusedTile);

        // 2. Breaker thermal models over true subtree power, in device
        // order — a parent before its children — each against the draw
        // read at that moment, so a trip's blackout is seen by every
        // later device of the same tick.
        for i in 0..self.device_ids.len() {
            let id = self.device_ids[i];
            let draw = self.subtrees[i].draw(&self.fleet);
            let status = self.topo.device_mut(id).breaker.step(draw, self.tick);
            if status != self.breaker_status[i] {
                self.breaker_status[i] = status;
                self.telemetry.record_breaker_event(BreakerEvent {
                    at: now,
                    device: id,
                    status,
                });
                if status == BreakerStatus::Tripped {
                    self.system.observability_mut().record_breaker_trip(
                        now,
                        i as u32,
                        self.topo.device(id).name.as_str().into(),
                    );
                    // A tripped breaker blacks out everything below
                    // it. Routed through the fleet's alive hook so the
                    // power column and the leaf partials stay exact
                    // mid-pass.
                    for s in self.servers_under(id) {
                        self.fleet.set_server_alive(s, false);
                    }
                }
            }
        }
        lap.mark(&mut phase_secs, TickPhase::BreakerFold);

        // 2b. Grid-interactive layer: read the utility signal, run any
        // economic cycle due (pushing contractual limits onto the MSB
        // controllers the next stage will act on), and ride the DCUPS
        // banks against the utility target.
        if let Some(grid) = self.grid.as_mut() {
            let mut site_w = 0.0;
            for &(d, _) in grid.msbs() {
                site_w += self.subtrees[d.index()].draw(&self.fleet).as_watts();
            }
            grid.step(
                now,
                self.tick,
                Power::from_watts(site_w),
                self.fleet.leaves(),
                &mut self.system,
            );
        }
        lap.mark(&mut phase_secs, TickPhase::Grid);

        // 3. Controller cycles.
        let events = self.system.tick(now, &mut self.fleet);
        lap.mark(&mut phase_secs, TickPhase::LeafDispatch);
        self.telemetry.record_controller_events(events);
        lap.mark(&mut phase_secs, TickPhase::TelemetryMerge);

        // 4. Breaker-reading cross-validation (1-minute cadence, §VI):
        // compare each leaf controller's aggregate against the coarse
        // metered power at its breaker.
        if self.validator.due(now) {
            for dev in self.system.leaf_devices() {
                let dev = *dev;
                if let Some(aggregate) = self.system.leaf_aggregate(dev) {
                    let true_power = self.subtrees[dev.index()].draw(&self.fleet);
                    self.validator.observe(now, dev, true_power, aggregate);
                }
            }
            self.validator.advance(now);
            let alerts = self.validator.alerts().len();
            if alerts > self.alerts_seen {
                let delta = (alerts - self.alerts_seen) as u64;
                self.alerts_seen = alerts;
                let obs = self.system.observability_mut();
                if obs.is_enabled() {
                    obs.record_validator_alerts(now, delta, &"breaker-validator".into());
                }
            }
        }
        lap.mark(&mut phase_secs, TickPhase::Validator);

        // 5. Telemetry sampling.
        if self.telemetry.sample_due(now) {
            let mut watched = std::mem::take(&mut self.watched_scratch);
            watched.clear();
            for &d in &self.watched {
                watched.push((d, self.subtrees[d.index()].draw(&self.fleet)));
            }
            let stats = self.fleet.stats();
            let obs = self.system.observability_mut();
            if obs.is_enabled() {
                obs.set_gauges(now, stats.total_power.as_watts(), stats.capped_servers);
            }
            self.telemetry
                .record_sample(now, &watched, stats.capped_servers, stats.total_power);
            self.watched_scratch = watched;
        }
        lap.mark(&mut phase_secs, TickPhase::TelemetryMerge);

        if lap.enabled() {
            let obs = self.system.observability_mut();
            for (k, &secs) in phase_secs.iter().enumerate() {
                obs.observe_tick_phase(TICK_PHASE_ORDER[k], secs);
            }
        }

        // Best-effort incident-dump shipping: a write failure leaves
        // the dumps pending for the next step's retry.
        let _ = self.system.observability_mut().flush_incidents();

        self.now += self.tick;
    }

    /// Runs the simulation for a duration.
    pub fn run_for(&mut self, duration: SimDuration) {
        let steps = duration.as_millis() / self.tick.as_millis();
        for _ in 0..steps {
            self.step();
        }
    }

    /// Runs until the clock reaches `deadline` (no-op if already past).
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.now < deadline {
            self.step();
        }
    }

    /// The breaker-reading validator (§VI): correction factors and
    /// aggregation-mismatch alerts.
    pub fn validator(&self) -> &BreakerValidator {
        &self.validator
    }

    /// Captures the full dynamic state of the simulation as a
    /// versioned snapshot value. Call between steps (a tick boundary):
    /// the fleet's batch arrays must be authoritative and any pending
    /// incident dumps are flushed to disk first so a resumed run cannot
    /// drop or duplicate an incident file.
    ///
    /// Everything reconstructible from the builder configuration —
    /// topology geometry, power LUTs, worker pools, subtree caches —
    /// is *not* captured; [`Datacenter::restore`] expects a datacenter
    /// freshly built with the identical configuration.
    ///
    /// # Panics
    ///
    /// Panics if pending incident dumps cannot be written to disk.
    pub fn state(&mut self) -> DatacenterState {
        self.system
            .observability_mut()
            .flush_incidents()
            .expect("flush pending incident dumps before snapshotting");
        DatacenterState {
            now_ms: self.now.as_millis(),
            fleet: self.fleet.state(),
            system: self.system.state(),
            telemetry: self.telemetry.state(),
            breakers: self
                .device_ids
                .iter()
                .map(|&id| self.topo.device(id).breaker.clone())
                .collect(),
            breaker_status: self.breaker_status.clone(),
            validator: self.validator.state(),
            alerts_seen: self.alerts_seen as u64,
            grid: self.grid.as_ref().map(|g| g.state()),
        }
    }

    /// Restores the simulation from a snapshot taken by
    /// [`Datacenter::state`] against an identically-configured
    /// datacenter. After a successful restore the run continues
    /// bit-identically to the run that took the snapshot, at any worker
    /// thread count.
    ///
    /// # Errors
    ///
    /// Fails without touching wall-clock state if the snapshot
    /// disagrees with this datacenter's shape (different topology,
    /// server mix, controller count, or ring capacities).
    pub fn restore(&mut self, state: &DatacenterState) -> Result<(), SnapError> {
        if state.breakers.len() != self.device_ids.len()
            || state.breaker_status.len() != self.device_ids.len()
        {
            return Err(SnapError::Corrupt(format!(
                "snapshot covers {} devices, rebuilt topology has {}",
                state.breakers.len(),
                self.device_ids.len()
            )));
        }
        match (&mut self.grid, &state.grid) {
            (Some(_), None) | (None, Some(_)) => {
                return Err(SnapError::Corrupt(
                    "snapshot and rebuilt datacenter disagree on grid layer presence".into(),
                ))
            }
            _ => {}
        }
        // Every step advances the clock by one tick and the fleet by one
        // physics tick: two words of the file that must agree, or every
        // schedule and redraw interval is measured against a forged one.
        let ticks = state.fleet.tick_index;
        if ticks.checked_mul(self.tick.as_millis()) != Some(state.now_ms) {
            return Err(SnapError::Corrupt(format!(
                "snapshot clock t={} ms is not its fleet's {ticks} ticks of {}",
                state.now_ms, self.tick
            )));
        }
        // Ticks deliver controller events in time order and the recorder
        // asserts it: none stored may be dated at or after the clock.
        let events = &state.telemetry.controller_events;
        if let Some(e) = events.iter().find(|e| e.at.as_millis() >= state.now_ms) {
            return Err(SnapError::Corrupt(format!(
                "controller event at {:?} in a snapshot taken at t={} ms",
                e.at, state.now_ms
            )));
        }
        // A breaker's rating and trip curve are this build's, not the
        // file's: only the thermal state moves.
        let mut breakers = Vec::with_capacity(self.device_ids.len());
        for (&id, saved) in self.device_ids.iter().zip(&state.breakers) {
            let restored = self.topo.device(id).breaker.restored(saved);
            breakers.push(restored.map_err(|e| e.within(id))?);
        }
        self.fleet.restore(&state.fleet)?;
        self.system.restore(&state.system)?;
        self.telemetry.restore(&state.telemetry)?;
        for (&id, breaker) in self.device_ids.iter().zip(breakers) {
            self.topo.device_mut(id).breaker = breaker;
        }
        self.breaker_status.clone_from(&state.breaker_status);
        self.validator.restore(&state.validator)?;
        if let (Some(grid), Some(gs)) = (&mut self.grid, &state.grid) {
            grid.restore(gs, SimTime::from_millis(state.now_ms))?;
        }
        self.alerts_seen = state.alerts_seen as usize;
        self.now = SimTime::from_millis(state.now_ms);
        // The restored epochs are another run's: no memo survives.
        for t in &mut self.subtrees {
            t.memo_key = NEVER_FOLDED;
        }
        Ok(())
    }

    /// Operator action after an outage: resets `device`'s breaker and
    /// powers its subtree back on — except the servers still behind
    /// another open breaker, above `device` or below it: nothing would
    /// re-apply that breaker's blackout (a tripped breaker no longer
    /// steps), so they stay dark until it is reset too.
    ///
    /// # Panics
    ///
    /// Panics if `device` is not part of this topology.
    pub fn reset_breaker(&mut self, device: DeviceId) {
        self.topo.device_mut(device).breaker.reset();
        self.breaker_status[device.index()] = BreakerStatus::Nominal;
        // What is still behind an open breaker: an ancestor's range
        // covers the whole subtree, a descendant's part of it.
        let dark: Vec<Range<u32>> = (0..self.device_ids.len())
            .filter(|&j| self.breaker_status[j] == BreakerStatus::Tripped)
            .map(|j| self.subtrees[j].servers.clone())
            .collect();
        for s in self.servers_under(device) {
            if !dark.iter().any(|r| r.contains(&s)) {
                self.fleet.set_server_alive(s, true);
            }
        }
    }
}

/// The full dynamic state of a [`Datacenter`], produced by
/// [`Datacenter::state`] and consumed by [`Datacenter::restore`].
///
/// The layers nest the way the simulation does: fleet physics, the
/// control plane (both tiers, schedules, failover, observability),
/// telemetry, per-device breaker thermal state, and the breaker
/// validator. Serialize with [`Snapshot::to_snap_bytes`].
pub struct DatacenterState {
    /// Simulated time at the tick boundary the snapshot was taken.
    pub now_ms: u64,
    pub(crate) fleet: FleetState,
    pub(crate) system: SystemState,
    pub(crate) telemetry: TelemetryState,
    pub(crate) breakers: Vec<Breaker>,
    pub(crate) breaker_status: Vec<BreakerStatus>,
    pub(crate) validator: ValidatorState,
    pub(crate) alerts_seen: u64,
    pub(crate) grid: Option<GridLayerState>,
}

impl Snapshot for DatacenterState {
    const KIND: &'static str = "dynamo.DatacenterState";
    // v2: appends the optional grid-interactive layer state.
    // v3: the fleet section carries per-agent columns (noise stream,
    // process-up flag, hardware generation) instead of per-agent
    // objects, drops the control-flush watermarks and stores the masks
    // as bools.
    const VERSION: u32 = 3;

    fn encode_body(&self, w: &mut SnapWriter) {
        w.put_u64(self.now_ms);
        self.fleet.encode_body(w);
        self.system.encode_body(w);
        self.telemetry.encode_body(w);
        w.put_u64(self.breakers.len() as u64);
        for b in &self.breakers {
            b.encode_body(w);
        }
        w.put_u64(self.breaker_status.len() as u64);
        for &s in &self.breaker_status {
            w.put_u8(s.snap_code());
        }
        self.validator.encode_body(w);
        w.put_u64(self.alerts_seen);
        match &self.grid {
            Some(g) => {
                w.put_u8(1);
                g.encode_body(w);
            }
            None => w.put_u8(0),
        }
    }

    fn decode_body(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let now_ms = r.get_u64()?;
        let fleet = FleetState::decode_body(r)?;
        let system = SystemState::decode_body(r)?;
        let telemetry = TelemetryState::decode_body(r)?;
        let breakers = r.get_vec(Breaker::decode_body)?;
        let breaker_status = r.get_vec(|r| BreakerStatus::from_snap_code(r.get_u8()?))?;
        let validator = ValidatorState::decode_body(r)?;
        let alerts_seen = r.get_u64()?;
        let grid = match r.get_u8()? {
            0 => None,
            1 => Some(GridLayerState::decode_body(r)?),
            other => return Err(SnapError::Corrupt(format!("bad grid-layer tag {other}"))),
        };
        Ok(DatacenterState {
            now_ms,
            fleet,
            system,
            telemetry,
            breakers,
            breaker_status,
            validator,
            alerts_seen,
            grid,
        })
    }
}

/// All tick phases in accumulator-array order (`TickPhase as usize`),
/// used to flush the per-tick sums into the registry.
const TICK_PHASE_ORDER: [TickPhase; 7] = [
    TickPhase::FleetStep,
    TickPhase::BreakerFold,
    TickPhase::Grid,
    TickPhase::LeafDispatch,
    TickPhase::Validator,
    TickPhase::TelemetryMerge,
    TickPhase::FusedTile,
];

/// Phase stopwatch for the tick profiler: an inert no-op when
/// profiling is off, so the hot loop pays one branch per phase
/// boundary. `mark` accumulates rather than assigns, which lets the
/// split telemetry work (event merge after dispatch, sampling at the
/// end of the tick) land in one phase bucket with one observation per
/// tick.
struct Lap {
    at: Option<std::time::Instant>,
}

impl Lap {
    fn new(enabled: bool) -> Self {
        Lap {
            at: enabled.then(std::time::Instant::now),
        }
    }

    fn enabled(&self) -> bool {
        self.at.is_some()
    }

    fn mark(&mut self, acc: &mut [f64; 7], phase: TickPhase) {
        if let Some(prev) = self.at {
            let now = std::time::Instant::now();
            acc[phase as usize] += (now - prev).as_secs_f64();
            self.at = Some(now);
        }
    }
}

impl std::fmt::Debug for Datacenter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Datacenter")
            .field("now", &self.now)
            .field("servers", &self.fleet.len())
            .field("devices", &self.topo.device_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatacenterBuilder, ServicePlan};
    use dcsim::{CycleSchedule, PeriodicSchedule};
    use powerinfra::{DeviceLevel, TripCurve};
    use workloads::{ServiceKind, TrafficPattern};

    /// 1 MSB / 2 SBs / 4 RPP leaves / 32 servers, with SB breakers so
    /// tight and no capping, so one trips within seconds. With two
    /// racks per RPP the tree has a multi-leaf device (MSB, SBs), a
    /// device that is exactly one leaf (RPP) and a sub-leaf device
    /// (rack); with one, the rack tiles a leaf too.
    fn small_dc(seed: u64, racks_per_rpp: usize) -> Datacenter {
        DatacenterBuilder::new()
            .sbs_per_msb(2)
            .rpps_per_sb(2)
            .racks_per_rpp(racks_per_rpp)
            .servers_per_rack(8 / racks_per_rpp)
            .sb_rating(Power::from_kilowatts(2.0))
            .capping_enabled(false)
            .service_plan(ServicePlan::Mix(vec![
                (ServiceKind::Web, 0.6),
                (ServiceKind::Cache, 0.4),
            ]))
            .traffic(ServiceKind::Web, TrafficPattern::flat(1.5))
            .seed(seed)
            .build()
    }

    /// Device `d`'s draw folded from `power_of` alone, in the
    /// association the tick promises: per covering leaf and then across
    /// leaves when whole leaves tile the subtree, flat otherwise.
    /// Shares nothing with [`Subtree`]: ids come from the topology,
    /// leaves from the control plane.
    fn independent_draw(dc: &Datacenter, d: DeviceId) -> f64 {
        let ids = dc.topo.servers_under(d);
        let (lo, hi) = (ids[0] as usize, ids[ids.len() - 1] as usize + 1);
        let flat =
            |r: Range<usize>| -> f64 { r.map(|s| dc.fleet.power_of(s as u32).as_watts()).sum() };
        let spans = dc.system.leaf_spans();
        let inside: Vec<Range<usize>> = spans
            .iter()
            .filter(|l| lo <= l.start && l.end <= hi)
            .cloned()
            .collect();
        let tiled = inside.first().is_some_and(|l| l.start == lo)
            && inside.last().is_some_and(|l| l.end == hi);
        if tiled {
            inside.into_iter().map(flat).sum()
        } else {
            flat(lo..hi)
        }
    }

    /// Every device's draw, as the tick reads it, must carry the bits
    /// of the independent fold — and the public probe must agree.
    fn assert_draws_exact(dc: &mut Datacenter, when: &str) {
        for i in 0..dc.device_ids.len() {
            let served = dc.subtrees[i].draw(&dc.fleet).as_watts();
            let fresh = independent_draw(dc, dc.device_ids[i]);
            assert_eq!(
                served.to_bits(),
                fresh.to_bits(),
                "{when}: device {} drew {served} W, its servers fold to {fresh} W",
                dc.topo.device(dc.device_ids[i]).name
            );
        }
        assert!(dc.draw_cache_is_exact(), "{when}: probe disagrees");
    }

    #[test]
    fn device_draw_is_exact_for_every_device_class_under_churn() {
        for racks_per_rpp in [2, 1] {
            let mut dc = small_dc(17, racks_per_rpp);
            let leaves_of = |level| {
                let ids = dc.topo.devices_at(level);
                let t = &dc.subtrees[ids[0].index()];
                (t.tiled, t.leaves.len())
            };
            assert_eq!(leaves_of(DeviceLevel::Msb), (true, 4));
            assert_eq!(leaves_of(DeviceLevel::Sb), (true, 2));
            assert_eq!(leaves_of(DeviceLevel::Rpp), (true, 1));
            assert_eq!(leaves_of(DeviceLevel::Rack), (racks_per_rpp == 1, 1));

            dc.step();
            dc.step();
            assert_draws_exact(&mut dc, "warm");

            // Kill and revive out of band, in a leaf whose epoch lags
            // its sibling's: every device above either must follow.
            let spans: Vec<Range<usize>> = dc.system.leaf_spans().to_vec();
            let (lag, lead) = (spans[2].start as u32, spans[3].start as u32);
            for _ in 0..4 {
                dc.fleet.set_server_alive(lead, false);
                dc.fleet.set_server_alive(lead, true);
            }
            assert!(dc.fleet.power_of(lag).as_watts() > 0.0);
            dc.fleet.set_server_alive(lag, false);
            assert_draws_exact(&mut dc, "after a kill");
            dc.fleet.set_server_alive(lag, true);
            assert_draws_exact(&mut dc, "after a revive");

            // A RAPL cap programmed out of band moves no power until
            // the next step: exact before it and after it.
            dc.fleet
                .agent_rpc(lag, dynrpc::Request::SetCap(Power::from_watts(80.0)));
            assert_draws_exact(&mut dc, "cap programmed");
            dc.step();
            assert_draws_exact(&mut dc, "cap stepped");

            // The first SB trips on its own and blacks out its half.
            let sb = dc.topo.devices_at(DeviceLevel::Sb)[0];
            while dc.breaker_status[sb.index()] != BreakerStatus::Tripped {
                dc.step();
                assert_draws_exact(&mut dc, "stepping toward the trip");
                assert!(dc.now < SimTime::from_secs(60), "the SB never tripped");
            }
            assert_eq!(dc.subtrees[sb.index()].draw(&dc.fleet), Power::ZERO);
            dc.reset_breaker(sb);
            assert_draws_exact(&mut dc, "after the reset");
            assert!(dc.subtrees[sb.index()].draw(&dc.fleet) > Power::ZERO);

            // Re-register the same spans: leaf epochs restart at zero.
            // Fold every memo at epoch 1, re-span, change a server's
            // power and walk its leaf's epoch back to 1 — a memo keyed
            // on the epoch alone would serve the pre-re-span sum.
            dc.fleet.set_leaf_spans(&spans);
            dc.fleet.set_server_alive(lag, false);
            assert_draws_exact(&mut dc, "memos folded at epoch 1");
            dc.fleet.set_leaf_spans(&spans);
            dc.fleet.set_server_alive(lag, true);
            assert_draws_exact(&mut dc, "epoch 1 again, one generation on");
            for k in 0..6 {
                dc.fleet
                    .set_server_alive(spans[k % 4].start as u32, k % 2 == 1);
                dc.step();
                assert_draws_exact(&mut dc, "churn after the re-span");
            }
        }
    }

    /// What stepping breakers against live draws buys: the tick an SB
    /// trips, the RPPs and racks below it — later in device order —
    /// already step against the blackout, so their heat stops rising.
    #[test]
    fn a_trip_is_visible_to_later_devices_in_the_same_tick() {
        let mut dc = DatacenterBuilder::new()
            .sbs_per_msb(1)
            .rpps_per_sb(2)
            .racks_per_rpp(2)
            // ~305 W a server: every rack (12.6 kW) and RPP runs a few
            // per cent over its rating, the SB at more than twice.
            .servers_per_rack(48)
            .sb_rating(Power::from_kilowatts(24.0))
            .rpp_rating(Power::from_kilowatts(28.0))
            .capping_enabled(false)
            .uniform_service(ServiceKind::Web)
            .traffic(ServiceKind::Web, TrafficPattern::flat(1.5))
            .seed(1)
            .build();
        let sb = dc.topo.devices_at(DeviceLevel::Sb)[0];
        let below: Vec<DeviceId> = [DeviceLevel::Rpp, DeviceLevel::Rack]
            .into_iter()
            .flat_map(|level| dc.topo.devices_at(level))
            .collect();
        let heat = |dc: &Datacenter| -> Vec<f64> {
            below
                .iter()
                .map(|&d| dc.topo.device(d).breaker.thermal_state())
                .collect()
        };
        let mut before = heat(&dc);
        loop {
            dc.step();
            let after = heat(&dc);
            if dc.breaker_status[sb.index()] == BreakerStatus::Tripped {
                for (k, &d) in below.iter().enumerate() {
                    assert!(
                        before[k] > 0.0 && after[k] < before[k],
                        "{} heated from {} to {} in the tick its SB tripped",
                        dc.topo.device(d).name,
                        before[k],
                        after[k]
                    );
                    assert_eq!(dc.breaker_status[d.index()], BreakerStatus::Nominal);
                }
                break;
            }
            for (k, &d) in below.iter().enumerate() {
                assert!(
                    after[k] > before[k],
                    "{} should be overloaded until the SB trips",
                    dc.topo.device(d).name
                );
            }
            before = after;
            assert!(dc.now < SimTime::from_secs(60), "the SB never tripped");
        }
    }

    /// 1 SB / 2 RPPs / 4 racks / 32 servers, nominal load, warmed up.
    fn idle_row() -> Datacenter {
        let mut dc = DatacenterBuilder::new()
            .sbs_per_msb(1)
            .rpps_per_sb(2)
            .racks_per_rpp(2)
            .servers_per_rack(8)
            .uniform_service(ServiceKind::Web)
            .seed(1)
            .build();
        dc.run_for(SimDuration::from_secs(5));
        dc
    }

    /// Trips `d`'s breaker with a surge; the next tick notices and
    /// blacks its subtree out.
    fn trip(dc: &mut Datacenter, d: DeviceId) {
        let dev = dc.topo.device_mut(d);
        let surge = dev.rating * 100.0;
        while dev.breaker.step(surge, SimDuration::from_secs(60)) != BreakerStatus::Tripped {}
        dc.step();
        assert_eq!(dc.breaker_status[d.index()], BreakerStatus::Tripped);
        assert_eq!(dc.device_power(d), Power::ZERO);
    }

    // No server may draw power behind an open breaker, whichever
    // breaker the operator resets: a tripped breaker no longer steps,
    // so nothing would black its subtree out again.

    #[test]
    fn resetting_a_breaker_below_an_open_one_powers_nothing_on() {
        let mut dc = idle_row();
        let sb = dc.topo.devices_at(DeviceLevel::Sb)[0];
        let rpps = dc.topo.devices_at(DeviceLevel::Rpp);
        trip(&mut dc, sb);
        dc.reset_breaker(rpps[0]);
        dc.run_for(SimDuration::from_secs(10));
        assert_eq!(dc.breaker_status[sb.index()], BreakerStatus::Tripped);
        assert_eq!(dc.device_power(sb), Power::ZERO);
        // Resetting the SB itself brings everything back.
        dc.reset_breaker(sb);
        assert!(dc.device_power(rpps[0]) > Power::ZERO);
        assert!(dc.device_power(rpps[1]) > Power::ZERO);
    }

    #[test]
    fn resetting_a_breaker_above_an_open_one_skips_its_subtree() {
        let mut dc = idle_row();
        let sb = dc.topo.devices_at(DeviceLevel::Sb)[0];
        let rpps = dc.topo.devices_at(DeviceLevel::Rpp);
        trip(&mut dc, rpps[0]);
        trip(&mut dc, sb);
        dc.reset_breaker(sb);
        dc.run_for(SimDuration::from_secs(10));
        assert_eq!(dc.breaker_status[rpps[0].index()], BreakerStatus::Tripped);
        assert_eq!(dc.device_power(rpps[0]), Power::ZERO);
        assert!(dc.device_power(rpps[1]) > Power::ZERO);
        assert_eq!(dc.device_power(sb), dc.device_power(rpps[1]));
    }

    #[test]
    fn restore_rejects_a_band_code_no_band_has() {
        let mut dc = small_dc(3, 2);
        let mut state = dc.state();
        assert!(dc.restore(&state).is_ok());
        state.system.obs.shard_bands[1] = 4;
        let err = dc.restore(&state).unwrap_err();
        assert!(
            err.to_string().contains("leaf 1 has unknown band code 4"),
            "{err}"
        );
    }

    /// `restore` must refuse `forged`, naming `what`, with nothing of
    /// it installed: the datacenter still snapshots to `before`.
    fn assert_refused(dc: &mut Datacenter, forged: &DatacenterState, what: &str) {
        let before = dc.state().to_snap_bytes();
        match dc.restore(forged) {
            Err(SnapError::Corrupt(msg)) => assert!(msg.contains(what), "{msg}"),
            other => panic!("expected a refusal naming {what:?}, got {other:?}"),
        }
        assert_eq!(dc.state().to_snap_bytes(), before);
    }

    /// A breaker's rating is configuration. Restored from the file, an
    /// RPP rewritten from 900 W to 1800 W resumed into a report of one
    /// trip where the unbroken run has two.
    #[test]
    fn restore_rejects_a_breaker_that_is_not_the_configured_one() {
        let mut dc = small_dc(3, 2);
        dc.run_for(SimDuration::from_secs(5));
        let rpp = dc.topo.devices_at(DeviceLevel::Rpp)[1];
        let honest = dc.topo.device(rpp).breaker.clone();
        let mut state = dc.state();
        state.breakers[rpp.index()] = Breaker::new(honest.rating() * 2.0, *honest.curve());
        assert_refused(&mut dc, &state, &format!("{rpp}: breaker in snapshot"));
        let mut state = dc.state();
        state.breakers[rpp.index()] = Breaker::new(honest.rating(), TripCurve::msb());
        assert_refused(&mut dc, &state, &format!("{rpp}: breaker in snapshot"));
        let honest = dc.state();
        assert!(dc.restore(&honest).is_ok());
    }

    /// So is every schedule's period and phase: a leaf that cycles
    /// every 3 s does not resume cycling every 4.
    #[test]
    fn restore_rejects_a_schedule_that_is_not_the_configured_one() {
        let mut dc = small_dc(3, 2);
        dc.run_for(SimDuration::from_secs(5));
        let period = SimDuration::from_secs(4);
        let mut state = dc.state();
        state.system.leaf_schedules[2] = CycleSchedule::new(period);
        assert_refused(&mut dc, &state, "leaf controller 2: schedule");
        let mut state = dc.state();
        state.system.upper_schedules[0] =
            CycleSchedule::with_phase(SimDuration::from_secs(9), SimDuration::from_secs(1));
        assert_refused(&mut dc, &state, "upper controller 0: schedule");
        let mut state = dc.state();
        state.telemetry.schedule = PeriodicSchedule::new(period);
        assert_refused(&mut dc, &state, "schedule");
    }

    /// The clock and the fleet's tick count advance together; a file
    /// that moves one (found by the forge loop of
    /// `tests/snapshot_roundtrip.rs`: a run-until-killed, or a
    /// `duration overflow` panic in the next redraw) is refused.
    #[test]
    fn restore_rejects_a_clock_that_is_not_the_fleets_tick_count() {
        let mut dc = small_dc(3, 2);
        dc.run_for(SimDuration::from_secs(5));
        let mut state = dc.state();
        state.now_ms = 0xfff0_0000_0000_0000;
        assert_refused(&mut dc, &state, "snapshot clock");
        let mut state = dc.state();
        state.fleet.tick_index = 1 << 40;
        assert_refused(&mut dc, &state, "snapshot clock");
    }

    #[test]
    #[should_panic(expected = "device rack-x does not feed one contiguous")]
    fn a_subtree_with_a_gap_panics_naming_the_device() {
        Subtree::locate("rack-x", &[4, 5, 7], &[0..4, 4..8]);
    }

    #[test]
    #[should_panic(expected = "device pdu-y is neither tiled")]
    fn a_subtree_straddling_leaves_panics_naming_the_device() {
        Subtree::locate("pdu-y", &[2, 3, 4, 5], &[0..4, 4..8]);
    }
}
