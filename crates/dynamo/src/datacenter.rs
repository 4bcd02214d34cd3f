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
//! the leaf's epoch moves. See DESIGN.md §12 for the counts
//! behind that split.

use std::ops::Range;
use std::sync::Arc;

use dcsim::snap::{ConfigDigest, SnapError, SnapReader, SnapWriter, Snapshot};
use dcsim::{SimDuration, SimTime};
use dynpool::WorkerPool;
use powerinfra::{BreakerStatus, DeviceId, Power, Topology};
use workloads::ServiceKind;

use crate::control_plane::DynamoSystem;
use crate::fleet::Fleet;
use crate::grid::GridLayer;
use crate::obs::TickPhase;
use crate::telemetry::{BreakerEvent, Telemetry};
use crate::validator::BreakerValidator;

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

/// The simulation tick: every [`Datacenter::step`] advances the clock,
/// server physics and every breaker by one second.
const TICK: SimDuration = SimDuration::from_secs(1);

/// A running datacenter: topology + fleet + control plane + telemetry,
/// advanced by a fixed one-second simulation tick.
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
    /// Where each device's subtree sits in the fleet, by device index.
    subtrees: Vec<Subtree>,
    /// Device ids in index order.
    device_ids: Vec<DeviceId>,
    /// Cross-validation of controller aggregates against coarse breaker
    /// readings (§VI).
    validator: BreakerValidator,
    /// Validator alerts already forwarded to observability.
    alerts_seen: usize,
    /// Grid-interactive layer (utility signals, economic contracts,
    /// DCUPS buffering), when the builder configured one.
    pub(crate) grid: Option<GridLayer>,
    /// Record per-phase tick wall time into the observability
    /// registry's `dynamo_tick_phase_seconds_*` family. Off by
    /// default: wall clocks are non-deterministic, so determinism
    /// tests never enable it.
    profile_ticks: bool,
}

/// Where one device's subtree sits in the fleet's id space, fixed at
/// assembly, and how its power is read on the tick.
struct Subtree {
    /// The servers the device feeds: its [`powerinfra::Device::servers`].
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
    /// The epoch of the one covering leaf at fold time. Every change
    /// to a server's drawn power bumps its leaf's epoch (so do redraws,
    /// crashes and restarts, which only refold to the same bits), and a
    /// leaf keeps its epoch for the run; only a restore installs
    /// another run's, and it drops every memo.
    memo_key: u64,
}

/// A `memo_key` no fold was ever taken at.
const NEVER_FOLDED: u64 = u64::MAX;

impl Subtree {
    /// Locates the subtree feeding `servers` among the fleet's leaf
    /// `spans`.
    ///
    /// # Panics
    ///
    /// Panics, naming the device, unless `servers` is a non-empty range
    /// that whole leaves tile or one leaf contains — the only shapes
    /// [`powerinfra::TopologyBuilder`] lays out.
    fn locate(name: &str, servers: Range<u32>, spans: &[Range<usize>]) -> Subtree {
        assert!(!servers.is_empty(), "device {name} feeds no servers");
        let (lo, hi) = (servers.start as usize, servers.end as usize);
        let leaves =
            spans.partition_point(|s| s.end <= lo)..spans.partition_point(|s| s.start < hi);
        let tiled = spans[leaves.start].start == lo && spans[leaves.end - 1].end == hi;
        assert!(
            tiled || leaves.len() == 1,
            "device {name} is neither tiled by whole leaves nor inside one leaf"
        );
        Subtree {
            servers,
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
        let key = leaves[0].epoch();
        if self.memo_key != key {
            self.memo_w = leaves[0].power_sum(self.servers.clone());
            self.memo_key = key;
        }
        Power::from_watts(self.memo_w)
    }
}

impl Datacenter {
    pub(crate) fn assemble(
        topo: Topology,
        fleet: Fleet,
        system: DynamoSystem,
        telemetry: Telemetry,
        validator: BreakerValidator,
        grid: Option<GridLayer>,
    ) -> Self {
        let device_ids: Vec<DeviceId> = topo.iter().map(|d| d.id).collect();
        let spans = system.leaf_spans();
        assert!(
            fleet.leaf_spans().eq(spans.iter().cloned()),
            "the fleet is not built in the control plane's leaves"
        );
        let subtrees = topo
            .iter()
            .map(|d| Subtree::locate(&d.name, d.servers.clone(), spans))
            .collect();
        Datacenter {
            topo,
            fleet,
            system,
            telemetry,
            now: SimTime::ZERO,
            subtrees,
            device_ids,
            validator,
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
        self.fleet.step(now, TICK);
        lap.mark(&mut phase_secs, TickPhase::FusedTile);

        // 2. Breaker thermal models over true subtree power, in device
        // order — a parent before its children — each against the draw
        // read at that moment, so a trip's blackout is seen by every
        // later device of the same tick. A transition is a status the
        // step moved.
        for i in 0..self.device_ids.len() {
            let id = self.device_ids[i];
            let draw = self.subtrees[i].draw(&self.fleet);
            let breaker = &mut self.topo.device_mut(id).breaker;
            let was = breaker.status();
            let status = breaker.step(draw, TICK);
            if status != was {
                self.telemetry.record_breaker_event(BreakerEvent {
                    at: now,
                    device: id,
                    status,
                });
                if status == BreakerStatus::Tripped {
                    self.system
                        .observability_mut()
                        .record_breaker_trip(now, i as u32);
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
                TICK,
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
                self.system
                    .observability_mut()
                    .record_validator_alerts(now, delta);
            }
        }
        lap.mark(&mut phase_secs, TickPhase::Validator);

        // 5. Telemetry sampling.
        if self.telemetry.sample_due(now) {
            let stats = self.fleet.stats();
            let obs = self.system.observability_mut();
            if obs.is_enabled() {
                obs.set_gauges(now, stats.total_power.as_watts(), stats.capped_servers);
            }
            let (subtrees, fleet) = (&mut self.subtrees, &self.fleet);
            self.telemetry.record_sample(
                now,
                |d| subtrees[d.index()].draw(fleet),
                stats.capped_servers,
                stats.total_power,
            );
        }
        lap.mark(&mut phase_secs, TickPhase::TelemetryMerge);

        if lap.enabled() {
            let obs = self.system.observability_mut();
            for (k, &secs) in phase_secs.iter().enumerate() {
                obs.observe_tick_phase(k, secs);
            }
        }

        // Best-effort incident-dump shipping: a write failure leaves
        // the dumps pending for the next step's retry.
        let _ = self.system.observability_mut().flush_incidents();

        self.now += TICK;
    }

    /// Runs the simulation for a duration.
    pub fn run_for(&mut self, duration: SimDuration) {
        let steps = duration.as_millis() / TICK.as_millis();
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
        let mut w = SnapWriter::new();
        self.save(&mut w);
        // The writer grew by doubling: keep only the bytes written.
        let mut body = w.into_bytes();
        body.shrink_to_fit();
        DatacenterState { body }
    }

    /// Restores the simulation from a snapshot taken by
    /// [`Datacenter::state`] against an identically-configured
    /// datacenter. After a successful restore the run continues
    /// bit-identically to the run that took the snapshot, at any worker
    /// thread count.
    ///
    /// Each layer loads its part in place, checking it as it reads. A
    /// refused snapshot changes nothing: the datacenter reloads the
    /// bytes it saved just before the attempt.
    ///
    /// # Errors
    ///
    /// Fails if the snapshot disagrees with this datacenter's shape
    /// (different topology, server mix, controller count, or ring
    /// capacities) or configuration, or holds a value no run could
    /// have produced.
    pub fn restore(&mut self, state: &DatacenterState) -> Result<(), SnapError> {
        let mut before = SnapWriter::new();
        self.save(&mut before);
        let loaded = self.load_body(&state.body);
        if loaded.is_err() {
            self.load_body(before.as_bytes())
                .expect("a datacenter reloads the bytes it saved");
        }
        // The restored epochs are another run's: no memo survives.
        for t in &mut self.subtrees {
            t.memo_key = NEVER_FOLDED;
        }
        loaded
    }

    /// Writes the body of a [`DatacenterState`]: the clock, then each
    /// layer's part in the order the simulation nests them.
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.now.as_millis());
        self.fleet.save(w);
        self.system.save(w);
        self.telemetry.save(w);
        w.put_config(|d| self.fold_breakers(d));
        w.put_u64(self.device_ids.len() as u64);
        for &id in &self.device_ids {
            self.topo.device(id).breaker.save(w);
        }
        self.validator.save(w);
        w.put_u64(self.alerts_seen as u64);
        match &self.grid {
            Some(g) => {
                w.put_u8(1);
                g.save(w);
            }
            None => w.put_u8(0),
        }
    }

    /// Folds every breaker's configuration, in device order, into the
    /// breakers' section digest.
    fn fold_breakers(&self, d: &mut ConfigDigest) {
        for &id in &self.device_ids {
            self.topo.device(id).breaker.fold_config(d);
        }
    }

    /// Loads all of `body`, a body written by [`Datacenter::save`]: no
    /// byte left over and no configuration mismatch noted.
    fn load_body(&mut self, body: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(body);
        self.load(&mut r)?;
        r.finish(DatacenterState::KIND)
    }

    /// Reads a body written by [`Datacenter::save`] into this
    /// datacenter, layer by layer, as [`Datacenter::restore`] describes.
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let now_ms = r.get_u64()?;
        self.fleet.load(r)?;
        // Every step advances the clock by one tick and the fleet by one
        // physics tick: two words of the file that must agree, or every
        // schedule and redraw interval is measured against a forged one.
        let ticks = self.fleet.tick_index();
        if ticks.checked_mul(TICK.as_millis()) != Some(now_ms) {
            return Err(SnapError::Corrupt(format!(
                "snapshot clock t={now_ms} ms is not its fleet's {ticks} ticks of {TICK}"
            )));
        }
        self.system.load(r)?;
        self.telemetry.load(r)?;
        // Ticks deliver controller events in time order and the recorder
        // asserts it: none stored may be dated at or after the clock.
        let events = self.telemetry.controller_events();
        if let Some(e) = events.iter().find(|e| e.at.as_millis() >= now_ms) {
            return Err(SnapError::Corrupt(format!(
                "controller event at {:?} in a snapshot taken at t={now_ms} ms",
                e.at
            )));
        }
        // A controller event's device names the controller that acted,
        // and a breaker event's the breaker: one that names no such
        // device was made by no run.
        let system = &self.system;
        let protected = |d| system.leaf_for(d).is_some() || system.upper_for(d).is_some();
        if let Some(e) = events.iter().find(|e| !protected(e.device)) {
            return Err(SnapError::Corrupt(format!(
                "controller event on {}, which no controller protects",
                e.device
            )));
        }
        let breakers = self.device_ids.len();
        let events = self.telemetry.breaker_events();
        if let Some(e) = events.iter().find(|e| e.device.index() >= breakers) {
            return Err(SnapError::Corrupt(format!(
                "breaker event on {}, past the last of {breakers} devices",
                e.device
            )));
        }
        // A breaker's rating and trip curve are this build's, not the
        // file's: only the thermal state moves.
        r.config("breakers", |d| self.fold_breakers(d))?;
        r.get_len(self.device_ids.len(), "devices")?;
        for &id in &self.device_ids {
            let breaker = &mut self.topo.device_mut(id).breaker;
            r.within(id, |r| breaker.load(r))?;
        }
        self.validator.load(r)?;
        self.alerts_seen = r.get_u64()? as usize;
        match (r.get_u8()?, &mut self.grid) {
            (0, None) => {}
            (1, Some(grid)) => grid.load(r, SimTime::from_millis(now_ms))?,
            (0 | 1, _) => {
                return Err(SnapError::Corrupt(
                    "snapshot and rebuilt datacenter disagree on grid layer presence".into(),
                ))
            }
            (other, _) => return Err(SnapError::Corrupt(format!("bad grid-layer tag {other}"))),
        }
        self.now = SimTime::from_millis(now_ms);
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
        // What is still behind an open breaker: an ancestor's range
        // covers the whole subtree, a descendant's part of it.
        let dark: Vec<Range<u32>> = (self.device_ids.iter().zip(&self.subtrees))
            .filter(|(&id, _)| self.topo.device(id).breaker.status() == BreakerStatus::Tripped)
            .map(|(_, t)| t.servers.clone())
            .collect();
        for s in self.servers_under(device) {
            if !dark.iter().any(|r| r.contains(&s)) {
                self.fleet.set_server_alive(s, true);
            }
        }
    }
}

/// The full dynamic state of a [`Datacenter`], produced by
/// [`Datacenter::state`] and consumed by [`Datacenter::restore`]: the
/// body bytes of its section. Serialize with
/// [`Snapshot::to_snap_bytes`].
///
/// The layers nest the way the simulation does: the clock, fleet
/// physics, the control plane (both tiers, failover, schedules,
/// observability), telemetry, per-device breaker thermal state, the
/// breaker validator and the optional grid layer. Nothing is checked
/// until a datacenter loads them.
pub struct DatacenterState {
    pub(crate) body: Vec<u8>,
}

impl Snapshot for DatacenterState {
    const KIND: &'static str = "dynamo.DatacenterState";
    // v2: appends the optional grid-interactive layer state.
    // v3: the fleet section carries per-agent columns (noise stream,
    // process-up flag, hardware generation) instead of per-agent
    // objects, drops the control-flush watermarks and stores the masks
    // as bools.
    // v4: each leaf link's call counters and latency sum (five `u64`)
    // left the control-plane section.
    // v5: the breakers' cooling constant, the same in every breaker,
    // left their bodies, and each leaf's power and agent epochs (fleet
    // section) and its three seen markers (control-plane section)
    // became one epoch each.
    // v6: nothing a restore can derive is stored: the fleet section lost
    // its demand, drawn-power and leaf-partial columns and the retired
    // span-generation slot, the failover section its takeover count and
    // the grid layer its recharge flag; each leaf's pending-failure flag
    // and last band moved from the failover and observability sections
    // into the leaf tier's.
    // v7: the breaker-status section, a copy of the status each breaker
    // body holds, went, and telemetry's sampling schedule is saved as
    // every schedule is (period, phase, next; it stored period and next).
    // v8: configuration left the wire: each section stores one digest of
    // it (fleet, control plane, telemetry, breakers, validator, grid
    // layer) where the fleet echoed each server's service calibration,
    // generation and place in the permutation, and breakers, DCUPS
    // units, schedules and rings their ratings, sizing, periods and
    // capacities; span and flight records lost their names (their
    // tracks name them), telemetry series went on the wire packed as
    // they are held, the fleet's flags as their mask words, and a leaf's
    // band only in an observed run.
    // v9: a controller event lost its controller's name (its device
    // names the controller).
    const VERSION: u32 = 9;

    fn encode_body(&self, w: &mut SnapWriter) {
        w.put_raw(&self.body);
    }

    /// Takes the rest of the section: it holds a datacenter's body and
    /// nothing else.
    fn decode_body(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let body = r.get_raw(r.remaining())?.to_vec();
        Ok(DatacenterState { body })
    }
}

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
pub(crate) mod tests {
    use super::*;
    use crate::events::{ControllerEvent, ControllerEventKind};
    use crate::{DatacenterBuilder, ServicePlan};
    use dcsim::CycleSchedule;
    use dynobs::{Band, FlightKind};
    use powerinfra::{Breaker, DeviceLevel, TripCurve};
    use workloads::{ServiceKind, TrafficPattern};

    /// 1 MSB / 2 SBs / 4 RPP leaves / 32 servers, with SB breakers so
    /// tight and no capping, so one trips within seconds. With two
    /// racks per RPP the tree has a multi-leaf device (MSB, SBs), a
    /// device that is exactly one leaf (RPP) and a sub-leaf device
    /// (rack); with one, the rack tiles a leaf too.
    fn small_dc(seed: u64, racks_per_rpp: usize) -> Datacenter {
        small(seed, racks_per_rpp).build()
    }

    /// [`small_dc`]'s builder.
    fn small(seed: u64, racks_per_rpp: usize) -> DatacenterBuilder {
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
    }

    /// Device `d`'s draw folded from `power_of` alone, in the
    /// association the tick promises: per covering leaf and then across
    /// leaves when whole leaves tile the subtree, flat otherwise.
    /// Shares nothing with [`Subtree`]: ids come from the topology,
    /// leaves from the control plane.
    fn independent_draw(dc: &Datacenter, d: DeviceId) -> f64 {
        let ids = dc.topo.servers_under(d);
        let (lo, hi) = (ids.start as usize, ids.end as usize);
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
            while dc.topo.device(sb).breaker.status() != BreakerStatus::Tripped {
                dc.step();
                assert_draws_exact(&mut dc, "stepping toward the trip");
                assert!(dc.now < SimTime::from_secs(60), "the SB never tripped");
            }
            assert_eq!(dc.subtrees[sb.index()].draw(&dc.fleet), Power::ZERO);
            dc.reset_breaker(sb);
            assert_draws_exact(&mut dc, "after the reset");
            assert!(dc.subtrees[sb.index()].draw(&dc.fleet) > Power::ZERO);
        }
    }

    /// A rack's memo is keyed on its leaf's epoch alone, so a key
    /// recurs only when a restore installs another run's epochs. Two
    /// same-shape runs on different seeds, stepped alike, reach the
    /// same epochs with different watts: restoring one into the other
    /// must not serve the sums the memos folded before it.
    #[test]
    fn a_restore_drops_every_rack_memo() {
        let build = |seed| {
            DatacenterBuilder::new()
                .sbs_per_msb(2)
                .rpps_per_sb(2)
                .racks_per_rpp(2)
                .servers_per_rack(4)
                .uniform_service(ServiceKind::Web)
                .seed(seed)
                .build()
        };
        let (mut a, mut b) = (build(17), build(18));
        for _ in 0..3 {
            a.step();
            b.step();
        }
        let epochs =
            |dc: &Datacenter| -> Vec<u64> { dc.fleet.leaves().iter().map(|l| l.epoch()).collect() };
        assert_eq!(epochs(&a), epochs(&b), "vacuous: the epochs differ");
        assert_ne!(a.fleet.stats().total_power, b.fleet.stats().total_power);
        b.restore(&a.state()).expect("a same-shape state restores");
        assert_draws_exact(&mut b, "right after the restore");
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
            if dc.topo.device(sb).breaker.status() == BreakerStatus::Tripped {
                for (k, &d) in below.iter().enumerate() {
                    assert!(
                        before[k] > 0.0 && after[k] < before[k],
                        "{} heated from {} to {} in the tick its SB tripped",
                        dc.topo.device(d).name,
                        before[k],
                        after[k]
                    );
                    assert_eq!(dc.topo.device(d).breaker.status(), BreakerStatus::Nominal);
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

    /// Trips `d`'s breaker in the breaker pass, which blacks its
    /// subtree out: a 1 W breaker stands in until it trips, then the
    /// configured one goes back, tripped out of band by a surge.
    fn trip(dc: &mut Datacenter, d: DeviceId) {
        let honest = dc.topo.device(d).breaker.clone();
        let weak = Breaker::new(Power::from_watts(1.0), *honest.curve());
        dc.topo.device_mut(d).breaker = weak;
        while dc.topo.device(d).breaker.status() != BreakerStatus::Tripped {
            dc.step();
        }
        let mut tripped = honest;
        let surge = tripped.rating() * 100.0;
        while tripped.step(surge, SimDuration::from_secs(60)) != BreakerStatus::Tripped {}
        dc.topo.device_mut(d).breaker = tripped;
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
        assert_eq!(dc.topo.device(sb).breaker.status(), BreakerStatus::Tripped);
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
        assert_eq!(
            dc.topo.device(rpps[0]).breaker.status(),
            BreakerStatus::Tripped
        );
        assert_eq!(dc.device_power(rpps[0]), Power::ZERO);
        assert!(dc.device_power(rpps[1]) > Power::ZERO);
        assert_eq!(dc.device_power(sb), dc.device_power(rpps[1]));
    }

    /// Bytes `save` writes.
    pub(crate) fn saved_len(save: impl FnOnce(&mut SnapWriter)) -> usize {
        let mut w = SnapWriter::new();
        save(&mut w);
        w.len()
    }

    /// `state` as a file forged to say `edit` would: restored into
    /// `twin`, a fresh build of the datacenter that took it, edited
    /// there, saved again.
    pub(crate) fn forged(
        mut twin: Datacenter,
        state: &DatacenterState,
        edit: impl FnOnce(&mut Datacenter),
    ) -> DatacenterState {
        twin.restore(state).expect("an honest state restores");
        edit(&mut twin);
        twin.state()
    }

    /// Writes `bytes` over the body of `state` at `at`.
    fn poke(state: &mut DatacenterState, at: usize, bytes: &[u8]) {
        state.body[at..at + bytes.len()].copy_from_slice(bytes);
    }

    /// Takes a snapshot of `dc`, forges it with `forge` (which reads
    /// the offsets it needs off `dc` as it was then), runs `dc` 10 s on
    /// and hands it the forgery: `restore` must refuse it, naming
    /// `what`, and leave `dc` exactly as it was — it still snapshots to
    /// the same bytes.
    pub(crate) fn assert_refused(
        dc: &mut Datacenter,
        forge: impl FnOnce(&Datacenter, &mut DatacenterState),
        what: &str,
    ) {
        let mut forged = dc.state();
        forge(dc, &mut forged);
        dc.run_for(SimDuration::from_secs(10));
        let before = dc.state().to_snap_bytes();
        match dc.restore(&forged) {
            Err(SnapError::Corrupt(msg)) => assert!(msg.contains(what), "{msg}"),
            other => panic!("expected a refusal naming {what:?}, got {other:?}"),
        }
        assert_eq!(
            dc.state().to_snap_bytes(),
            before,
            "{what}: the refusal changed state"
        );
    }

    /// A breaker's status is saved in its body, beside the heat that
    /// fixes it. A file whose status its heat does not have would have
    /// the next step book a second trip of a breaker already open, or a
    /// `Nominal` event no breaker made with its subtree left dark: both
    /// are refused, naming the device.
    #[test]
    fn restore_rejects_a_breaker_status_its_breaker_does_not_read() {
        let mut dc = small_dc(3, 2);
        let sb = dc.topo.devices_at(DeviceLevel::Sb)[0];
        while dc.topo.device(sb).breaker.status() != BreakerStatus::Tripped {
            dc.step();
            assert!(dc.now < SimTime::from_secs(60), "the SB never tripped");
        }
        let rpp = dc.topo.devices_at(DeviceLevel::Rpp)[3];
        assert_eq!(dc.topo.device(rpp).breaker.status(), BreakerStatus::Nominal);
        for (d, status) in [(sb, BreakerStatus::Nominal), (rpp, BreakerStatus::Tripped)] {
            let forge = |dc: &Datacenter, s: &mut DatacenterState| {
                // The clock, the layers, the breakers' digest and count,
                // the breaker bodies up to `d`'s, whose last byte is its
                // status.
                let end = saved_len(|w| {
                    w.put_u64(0);
                    dc.fleet.save(w);
                    dc.system.save(w);
                    dc.telemetry.save(w);
                    w.put_u64(0);
                    w.put_u64(0);
                    for &id in &dc.device_ids[..=d.index()] {
                        dc.topo.device(id).breaker.save(w);
                    }
                });
                poke(s, end - 1, &[status.snap_code()]);
            };
            assert_refused(&mut dc, forge, &format!("{d}: breaker in snapshot"));
        }
        let honest = dc.state();
        assert!(dc.restore(&honest).is_ok());
    }

    /// A controller event names its controller by the device it
    /// protects: an event on a rack, which no controller protects, or
    /// on a device past the last is refused, naming the device.
    #[test]
    fn restore_rejects_a_controller_event_on_a_device_no_controller_protects() {
        let mut dc = small_dc(3, 2);
        dc.run_for(SimDuration::from_secs(30));
        let rack = dc.topo.devices_at(DeviceLevel::Rack)[0];
        let past = DeviceId::from_index(dc.topo.device_count() + 1000);
        for device in [rack, past] {
            let forge = |_: &Datacenter, s: &mut DatacenterState| {
                *s = forged(small_dc(3, 2), s, |t| {
                    let last = t.telemetry.controller_events().last();
                    let at = last.map_or(SimTime::ZERO, |e| e.at);
                    let kind = ControllerEventKind::LeafUncapped;
                    let event = ControllerEvent { at, device, kind };
                    t.telemetry.record_controller_events(vec![event]);
                })
            };
            let what = format!("controller event on {device}, which no controller protects");
            assert_refused(&mut dc, forge, &what);
        }
        let honest = dc.state();
        assert!(dc.restore(&honest).is_ok());
    }

    /// A breaker event names its breaker's device: a forged trip past the
    /// last device, which the report would count, is refused.
    #[test]
    fn restore_rejects_a_breaker_event_past_the_last_device() {
        let mut dc = small_dc(3, 2);
        dc.run_for(SimDuration::from_secs(30));
        let device = DeviceId::from_index(dc.topo.device_count() + 2000);
        let forge = |_: &Datacenter, s: &mut DatacenterState| {
            *s = forged(small_dc(3, 2), s, |t| {
                let (at, status) = (SimTime::ZERO, BreakerStatus::Tripped);
                t.telemetry
                    .record_breaker_event(BreakerEvent { at, device, status });
            })
        };
        let devices = dc.topo.device_count();
        let what = format!("breaker event on {device}, past the last of {devices} devices");
        assert_refused(&mut dc, forge, &what);
        let honest = dc.state();
        assert!(dc.restore(&honest).is_ok());
    }

    /// A band code is checked in the leaf tier's section, after the
    /// fleet's and the leaf controllers' have loaded. Only an observed
    /// run reads a leaf's band, so only its file holds one.
    #[test]
    fn restore_rejects_a_band_code_no_band_has() {
        let observed = || small(3, 2).observability(crate::ObsConfig::on()).build();
        let mut dc = observed();
        let honest = dc.state();
        assert!(dc.restore(&honest).is_ok());
        // No band has code 4, so no twin can save it: move leaf 1 to
        // another band in a twin to find its code, and write 4 there.
        let forge = |_: &Datacenter, s: &mut DatacenterState| {
            let moved = forged(observed(), s, |t| {
                let band = &mut t.system.leaves.leaves[1].band;
                *band = if *band == Band::Cap {
                    Band::Hold
                } else {
                    Band::Cap
                };
            });
            let at = (s.body.iter().zip(&moved.body))
                .position(|(a, b)| a != b)
                .expect("the band moved");
            poke(s, at, &[4])
        };
        assert_refused(&mut dc, forge, "leaf 1 has unknown band code 4");
    }

    /// A leaf's pending-failure flag is saved with the leaf. Taken
    /// before the cycle that consumes it, a checkpoint resumes into the
    /// same one skipped cycle the unbroken run records; a flag column a
    /// leaf too long is refused.
    #[test]
    fn a_pending_leaf_failure_survives_a_checkpoint() {
        let mut dc = small_dc(3, 2);
        let victim = dc.system().leaf_devices()[1];
        let i = dc.system.leaves.index_of[&victim];
        dc.system_mut().fail_primary(victim);
        let state = dc.state();
        let mut resumed = small_dc(3, 2);
        resumed.restore(&state).expect("an honest state restores");
        assert!(resumed.system.leaves.leaves[i].failed, "the flag was lost");
        for run in [&mut dc, &mut resumed] {
            run.run_for(SimDuration::from_secs(10));
            let skipped = run.system().skipped_cycles_per_leaf();
            let per_leaf: Vec<u64> = skipped.iter().map(|(_, n)| *n).collect();
            let mut expected = vec![0; per_leaf.len()];
            expected[i] = 1;
            assert_eq!((run.system().failovers(), per_leaf), (1, expected));
        }
        assert_eq!(dc.state().to_snap_bytes(), resumed.state().to_snap_bytes());
        let forge = |_: &Datacenter, s: &mut DatacenterState| {
            // Leaf `i`'s flag is the first byte a twin with it flipped
            // saves differently; the column's count sits before the
            // flags of the leaves ahead of it.
            let flipped = forged(small_dc(3, 2), s, |t| {
                t.system.leaves.leaves[i].failed ^= true;
            });
            let flag = (s.body.iter().zip(&flipped.body))
                .position(|(a, b)| a != b)
                .expect("the flag moved");
            let n = small_dc(3, 2).system.leaves.leaves.len() as u64;
            let at = flag - i - 8;
            assert_eq!(s.body[at..at + 8], n.to_le_bytes(), "the column's count");
            poke(s, at, &(n + 1).to_le_bytes());
        };
        assert_refused(&mut dc, forge, "leaf failover flags");
    }

    /// A ring's header must be one that pushes write. A file whose
    /// trace ring stores a `next` other than its total modulo its
    /// capacity resumes into a ring that, once full, overwrites a span
    /// other than the oldest, and its incident dumps silently differ
    /// from the unbroken run's: it is refused.
    #[test]
    fn restore_rejects_a_ring_header_no_run_writes() {
        let mut dc = DatacenterBuilder::new()
            .sbs_per_msb(1)
            .rpps_per_sb(2)
            .racks_per_rpp(2)
            .servers_per_rack(4)
            .observability(crate::ObsConfig::on())
            .seed(3)
            .build();
        dc.run_for(SimDuration::from_secs(30));
        let forge = |dc: &Datacenter, s: &mut DatacenterState| {
            let trace = dc.system().observability().trace();
            let (cap, total) = (trace.capacity() as u64, trace.total_recorded());
            let len = trace.len() as u64;
            assert!((2..cap).contains(&len), "vacuous: {len} spans");
            let header: Vec<u8> = [total % cap, total, len]
                .iter()
                .flat_map(|word| word.to_le_bytes())
                .collect();
            let at = (s.body.windows(header.len()))
                .position(|w| w == header)
                .expect("the trace ring's header");
            poke(s, at, &(total % cap - 1).to_le_bytes());
        };
        assert_refused(&mut dc, forge, "trace ring geometry invalid");
    }

    /// A breaker's rating is configuration. Restored from the file, an
    /// RPP rewritten from 900 W to 1800 W resumed into a report of one
    /// trip where the unbroken run has two: a file written where one
    /// breaker is rated, or curved, otherwise is refused for the
    /// breakers' digest.
    #[test]
    fn restore_rejects_a_breaker_that_is_not_the_configured_one() {
        let mut dc = small_dc(3, 2);
        dc.run_for(SimDuration::from_secs(5));
        let rpp = dc.topo.devices_at(DeviceLevel::Rpp)[1];
        let honest = dc.topo.device(rpp).breaker.clone();
        let doubled = Breaker::new(honest.rating() * 2.0, *honest.curve());
        let recurved = Breaker::new(honest.rating(), TripCurve::msb());
        for breaker in [doubled, recurved] {
            let forge = |_: &Datacenter, s: &mut DatacenterState| {
                *s = forged(small_dc(3, 2), s, |t| {
                    t.topo.device_mut(rpp).breaker = breaker;
                })
            };
            assert_refused(&mut dc, forge, "breakers configuration is not this build's");
        }
        let honest = dc.state();
        assert!(dc.restore(&honest).is_ok());
    }

    /// So is every schedule's period and phase: a leaf that cycles
    /// every 3 s does not resume cycling every 4. A file written where
    /// one schedule is another is refused for its section's digest.
    #[test]
    fn restore_rejects_a_schedule_that_is_not_the_configured_one() {
        let mut dc = small_dc(3, 2);
        dc.run_for(SimDuration::from_secs(5));
        let forge_with = |edit: fn(&mut Datacenter)| {
            move |_: &Datacenter, s: &mut DatacenterState| *s = forged(small_dc(3, 2), s, edit)
        };
        let forge =
            forge_with(|t| t.system.leaf_cycles[2] = CycleSchedule::new(SimDuration::from_secs(4)));
        assert_refused(
            &mut dc,
            forge,
            "control plane configuration is not this build's",
        );
        let forge = forge_with(|t| {
            t.system.upper_cycles[0] =
                CycleSchedule::with_phase(SimDuration::from_secs(9), SimDuration::from_secs(1))
        });
        assert_refused(
            &mut dc,
            forge,
            "control plane configuration is not this build's",
        );
        // Telemetry has one schedule, in its own section.
        let forge =
            forge_with(|t| t.telemetry.schedule = CycleSchedule::new(SimDuration::from_secs(4)));
        assert_refused(
            &mut dc,
            forge,
            "telemetry configuration is not this build's",
        );
    }

    /// Telemetry traces this build's watched devices, or none before
    /// the first sample. A file that traces one more device (an
    /// unwatched rack), one fewer, or none once sampling has begun is
    /// refused, naming telemetry and the first device the sets differ
    /// on.
    #[test]
    fn restore_rejects_a_traced_device_set_that_is_not_the_watched_one() {
        let mut dc = small_dc(3, 2);
        let unsampled = dc.state();
        small_dc(3, 2)
            .restore(&unsampled)
            .expect("no sample yet, no trace");
        dc.run_for(SimDuration::from_secs(5));
        let rack = dc.topo.devices_at(DeviceLevel::Rack)[0];
        let last = *dc.telemetry.watched.last().expect("a watched device");
        type Edit = fn(&mut Telemetry, DeviceId);
        let edits: [(Edit, String); 3] = [
            (
                |t, rack| {
                    let at = t.watched.partition_point(|&d| d < rack);
                    t.watched.insert(at, rack);
                    t.device_series.insert(at, t.device_series[0].clone());
                },
                format!("telemetry traces {rack} where this build watches"),
            ),
            (
                |t, _| {
                    t.watched.pop();
                    t.device_series.pop();
                },
                format!("telemetry traces no device where this build watches {last}"),
            ),
            (
                |t, _| t.device_series.clear(),
                "telemetry traces no device where this build watches dev#".into(),
            ),
        ];
        for (edit, what) in edits {
            let forge = |_: &Datacenter, s: &mut DatacenterState| {
                *s = forged(small_dc(3, 2), s, |t| edit(&mut t.telemetry, rack))
            };
            assert_refused(&mut dc, forge, &what);
        }
        let honest = dc.state();
        assert!(dc.restore(&honest).is_ok());
    }

    /// A checkpoint holds only state. On an observed run with a
    /// failover, the fleet's section is the bytes its layout gives its
    /// state — streams, process state and columns, no configuration
    /// ([`Fleet::layout_len`]); a breaker is its heat and status; a span
    /// record is its fixed 21 bytes and a flight record its time, track
    /// and kind; and no controller's name is anywhere in the
    /// observability or telemetry section. A name or a configuration
    /// echo coming back fails here.
    #[test]
    fn checkpoint_carries_only_state() {
        let mut dc = small(3, 2)
            .capping_enabled(true)
            .observability(crate::ObsConfig::on())
            .build();
        dc.run_for(SimDuration::from_mins(2));
        let leaf = dc.system().leaf_devices()[1];
        dc.system_mut().fail_primary(leaf);
        dc.run_for(SimDuration::from_mins(1));
        let fleet = saved_len(|w| dc.fleet.save(w));
        assert_eq!(fleet, dc.fleet.layout_len(), "fleet section");
        println!("fleet section: {fleet} B for {} servers", dc.fleet.len());
        for &id in &dc.device_ids {
            assert_eq!(saved_len(|w| dc.topo.device(id).breaker.save(w)), 9);
        }
        let obs = dc.system().observability();
        let (trace, flight) = (obs.trace(), obs.flight());
        assert!(trace.len() > 10 && flight.len() > 2, "vacuous rings");
        assert_eq!(saved_len(|w| trace.save(w)), 24 + 21 * trace.len());
        let payload = |kind: &FlightKind| match kind {
            FlightKind::LeafCapped { .. } => 14,
            FlightKind::LeafInvalid { .. } | FlightKind::UpperCapped { .. } => 5,
            FlightKind::BandTransition { .. } => 9,
            FlightKind::CurtailmentViolation { .. } => 17,
            _ => 1,
        };
        let records: usize = flight.iter().map(|r| 12 + payload(&r.kind)).sum();
        assert_eq!(saved_len(|w| flight.save(w)), 24 + records);
        assert!(
            flight.iter().any(|r| r.kind == FlightKind::Failover),
            "vacuous: no takeover"
        );
        assert!(!dc.telemetry.controller_events().is_empty(), "vacuous");
        let mut w = SnapWriter::new();
        obs.save(&mut w);
        dc.telemetry.save(&mut w);
        let sections = w.into_bytes();
        let system = dc.system();
        for &id in system.leaf_devices().iter().chain(system.upper_devices()) {
            let name = &dc.topo.device(id).name;
            let named = sections.windows(name.len()).any(|w| w == name.as_bytes());
            assert!(!named, "a saved section names {name}");
        }
    }

    /// A state and its framed bytes hold exactly what was written: a
    /// body left in the doubling writer's buffer would keep up to twice
    /// its size alive for as long as the state is held.
    #[test]
    fn snapshot_buffers_hold_only_their_bytes() {
        let mut dc = small_dc(3, 2);
        dc.run_for(SimDuration::from_secs(30));
        let state = dc.state();
        assert_eq!(state.body.capacity(), state.body.len());
        let bytes = state.to_snap_bytes();
        assert_eq!(bytes.capacity(), bytes.len());
    }

    /// The clock and the fleet's tick count advance together; a file
    /// that moves one (found by the forge loop of
    /// `tests/snapshot_roundtrip.rs`: a run-until-killed, or a
    /// `duration overflow` panic in the next redraw) is refused.
    #[test]
    fn restore_rejects_a_clock_that_is_not_the_fleets_tick_count() {
        let mut dc = small_dc(3, 2);
        dc.run_for(SimDuration::from_secs(5));
        let forge = |_: &Datacenter, s: &mut DatacenterState| {
            *s = forged(small_dc(3, 2), s, |t| {
                t.now = SimTime::from_millis(0xfff0_0000_0000_0000)
            })
        };
        assert_refused(&mut dc, forge, "snapshot clock");
        let forge = |_: &Datacenter, s: &mut DatacenterState| {
            *s = forged(small_dc(3, 2), s, |t| t.fleet.tick_index = 1 << 40)
        };
        assert_refused(&mut dc, forge, "snapshot clock");
    }

    /// Leaf `leaf`'s controller section in `state`, taken from `dc`,
    /// with slot `pos` of its readings (`column` 0) or its caps (1)
    /// rewritten to hold `watts`.
    fn forge_slot(
        dc: &Datacenter,
        state: &mut DatacenterState,
        (leaf, column, pos): (usize, usize, u64),
        watts: f64,
    ) {
        let leaves = &dc.system.leaves.leaves;
        // The clock, the fleet, the control plane's digest, the
        // controller count, the leaves before.
        let start = saved_len(|w| {
            w.put_u64(0);
            dc.fleet.save(w);
            w.put_u64(0);
            w.put_u64(0);
            leaves[..leaf].iter().for_each(|l| l.controller.save(w));
        });
        let section = start..start + saved_len(|w| leaves[leaf].controller.save(w));
        let (mut r, mut w) = (
            SnapReader::new(&state.body[section.clone()]),
            SnapWriter::new(),
        );
        for c in 0..2 {
            let n = r.get_u64().unwrap();
            w.put_u64(n);
            for p in 0..n {
                let slot = r.get_opt_f64().unwrap();
                if (c, p) != (column, pos) {
                    w.put_opt_f64(slot);
                    continue;
                }
                assert!(c == 1 || slot.is_some(), "vacuous: no reading at {pos}");
                w.put_opt_f64(Some(watts));
            }
        }
        w.put_raw(r.get_raw(r.remaining()).unwrap());
        state.body.splice(section, w.into_bytes());
    }

    /// A leaf controller's stored readings become the estimate for every
    /// later failed pull without live peers, and its stored caps its cap
    /// state: forged bytes holding a NaN or negative reading, or a cap
    /// that is no finite positive power, decode and are then refused by
    /// `restore` as a typed error naming the leaf and the position.
    #[test]
    fn restore_rejects_leaf_readings_and_caps_no_cycle_could_have_stored() {
        let build = || {
            DatacenterBuilder::new()
                .sbs_per_msb(1)
                .rpps_per_sb(2)
                .racks_per_rpp(2)
                .servers_per_rack(8)
                .seed(4)
                .build()
        };
        let mut dc = build();
        dc.run_for(SimDuration::from_secs(7));
        let leaf = dc.system().leaf_devices()[1];
        let name = dc
            .system()
            .leaf_for(leaf)
            .expect("a leaf")
            .name()
            .to_string();
        let forgeries = [
            (0, f64::NAN, "reading NaN W is not a valid draw"),
            (0, -5.0, "reading -5"),
            (1, 0.0, "cap 0"),
            (1, -1.0, "cap -1"),
            (1, f64::INFINITY, "cap inf"),
            (1, f64::NAN, "cap NaN"),
        ];
        for (column, watts, what) in forgeries {
            let forge = |dc: &Datacenter, s: &mut DatacenterState| {
                forge_slot(dc, s, (1, column, 5), watts);
                let bytes = s.to_snap_bytes();
                *s = DatacenterState::from_snap_bytes(&bytes).expect("forged bytes decode");
            };
            assert_refused(&mut dc, forge, &format!("leaf '{name}' position 5: {what}"));
        }
        let honest =
            DatacenterState::from_snap_bytes(&dc.state().to_snap_bytes()).expect("decodes");
        build().restore(&honest).expect("the honest state restores");
    }

    #[test]
    #[should_panic(expected = "device rack-x feeds no servers")]
    fn a_subtree_feeding_no_servers_panics_naming_the_device() {
        Subtree::locate("rack-x", 4..4, &[0..4, 4..8]);
    }

    #[test]
    #[should_panic(expected = "device pdu-y is neither tiled")]
    fn a_subtree_straddling_leaves_panics_naming_the_device() {
        Subtree::locate("pdu-y", 2..6, &[0..4, 4..8]);
    }

    /// Observability converts round trips the unobserved run never
    /// converts, and must move nothing else: the same script — lossy
    /// links, a capping episode, a primary failover — observed and not
    /// ends with every leaf's link stream and the report equal.
    #[test]
    fn observing_a_run_moves_no_link_draw() {
        let run = |obs: crate::ObsConfig| {
            let mut dc = DatacenterBuilder::new()
                .sbs_per_msb(1)
                .rpps_per_sb(2)
                .racks_per_rpp(2)
                .servers_per_rack(8)
                .rpp_rating(Power::from_kilowatts(4.2))
                .uniform_service(ServiceKind::Web)
                .traffic(ServiceKind::Web, TrafficPattern::flat(1.4))
                .rpc_profile(dynrpc::LinkProfile::lossy(0.05, 0.05))
                .observability(obs)
                .seed(23)
                .build();
            dc.run_for(SimDuration::from_mins(2));
            let victim = dc.system().leaf_devices()[0];
            dc.system_mut().fail_primary(victim);
            dc.run_for(SimDuration::from_mins(2));
            let report = crate::RunReport::from_datacenter(&dc);
            assert!(report.leaf_cap_events > 0, "vacuous: nothing capped");
            assert!(report.failovers > 0, "vacuous: no failover");
            // The fleet, every controller, every leaf's link stream,
            // the failover tallies. A leaf's last band is the
            // recorder's own, kept only by an observed run.
            let mut w = SnapWriter::new();
            let system = &dc.system;
            dc.fleet.save(&mut w);
            system.leaves.save(&mut w, false);
            system.uppers.save(&mut w);
            system.failover.save(&mut w);
            (w.into_bytes(), report.to_string())
        };
        let (observed, unobserved) = (run(crate::ObsConfig::on()), run(Default::default()));
        assert_eq!(observed.0, unobserved.0, "fleet and controller tiers");
        assert_eq!(observed.1, unobserved.1, "run report");
    }
}
