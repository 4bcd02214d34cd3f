//! The end-to-end datacenter simulation.
//!
//! [`Datacenter::step`] is the one tick: fleet physics, the breaker
//! pre-fold and the leaf control dispatch are each a single
//! implementation sharded over one shared [`WorkerPool`]
//! ([`crate::shard`]); the worker-thread setting only sizes that pool,
//! and one thread means one shard run inline, not a different path.

use std::ops::Range;
use std::sync::Arc;

use dcsim::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use dcsim::{SimDuration, SimTime};
use dynpool::{WorkerPool, MAX_WORKERS};
use powerinfra::{Breaker, BreakerStatus, DeviceId, DeviceLevel, Power, Topology};
use workloads::ServiceKind;

use crate::control_plane::{DynamoSystem, SystemState};
use crate::fleet::{Fleet, FleetState};
use crate::grid::{GridLayer, GridLayerState};
use crate::obs::TickPhase;
use crate::shard::{self, front, front_mut};
use crate::telemetry::{BreakerEvent, Telemetry, TelemetryState};
use crate::validator::{BreakerValidator, ValidatorState};

/// How the requested worker-thread count becomes the size of the
/// persistent pool shared by the tick's fan-outs (fleet physics, the
/// breaker pre-fold, same-instant leaf control dispatch). Workers are
/// created once, parked between dispatches, and woken through
/// atomic-flag mailboxes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParallelMode {
    /// Exactly the requested thread count (the default), whatever the
    /// host — tests need exact widths above the host's cores.
    #[default]
    Pooled,
    /// Clamped to the host's available parallelism: requesting more
    /// threads than cores oversubscribes the host and slows the run
    /// down, so the extra workers are simply not created. The
    /// simulation stays bit-identical — only wall clock changes.
    PooledAuto,
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
    /// Servers fed by each device, cached by device index.
    subtree: Vec<Vec<u32>>,
    /// Device ids in index order.
    device_ids: Vec<DeviceId>,
    /// Devices with telemetry traces.
    watched: Vec<DeviceId>,
    /// Last observed breaker status per device index.
    breaker_status: Vec<BreakerStatus>,
    /// Cross-validation of controller aggregates against coarse breaker
    /// readings (§VI).
    validator: BreakerValidator,
    /// Requested worker threads for the tick's fan-outs.
    worker_threads: usize,
    /// How the request is clamped.
    parallel_mode: ParallelMode,
    /// The shared persistent worker pool, sized to the thread count
    /// after the mode's clamping (none for one thread: every fan-out is
    /// then one inline shard).
    pool: Option<Arc<WorkerPool>>,
    /// Contiguous server-id range per device, when its subtree is one —
    /// always true for grid topologies — so subtree power aggregation
    /// is a flat slice scan instead of an id-list walk.
    subtree_range: Vec<Option<Range<usize>>>,
    /// Reused buffer for per-sample watched-device readings.
    watched_scratch: Vec<(DeviceId, Power)>,
    /// Validator alerts already forwarded to observability.
    alerts_seen: usize,
    /// Epoch-keyed cache of per-device subtree draws (see [`DrawCache`]).
    draw_cache: DrawCache,
    /// Grid-interactive layer (utility signals, economic contracts,
    /// DCUPS buffering), when the builder configured one.
    grid: Option<GridLayer>,
    /// Record per-phase tick wall time into the observability
    /// registry's `dynamo_tick_phase_seconds_*` family. Off by
    /// default: wall clocks are non-deterministic, so determinism
    /// tests never enable it.
    profile_ticks: bool,
    /// Telemetry samples recorded since the last forced full refresh
    /// of the fleet's memoized total-power fold. Run-control state
    /// like `profile_ticks` (the refresh recomputes a value the memo
    /// already holds bit-identically, so a reset-on-resume counter
    /// changes nothing observable) — deliberately not snapshotted.
    samples_since_refresh: u32,
}

/// Telemetry samples between forced full recomputations of the
/// memoized total-power fold: keyed to the sampling cadence (one
/// refresh per minute of simulated time at the 3 s grid), so a drift
/// bug could never ride the memo for more than a cadence period.
const TELEMETRY_REFRESH_SAMPLES: u32 = 20;

/// Epoch-keyed cache of per-device subtree power sums.
///
/// The breaker pass folds the subtree draw of *every* device *every*
/// tick — `servers × tree-depth` additions that would dominate the
/// full-site hot loop once active-set physics stops touching the
/// settled majority. The fleet versions each leaf with a monotone
/// epoch that is bumped whenever the leaf's drawn power may have
/// changed bits; a device's cached sum therefore stays exact while the
/// *sum* of the epochs over its covering leaves equals the watermark
/// recorded when the sum was folded. The sum — not the max — is the
/// key because leaf epochs advance independently: a lagging leaf can
/// change without moving the covering max, but every bump raises the
/// sum, so any covering-leaf change is witnessed. (Overflow would need
/// 2⁶⁴ total bumps; unreachable.) The cached value *is* the stored
/// result of the same fold over the same bits, so serving it is
/// bit-identical to re-folding.
///
/// Bypassed entirely while the fleet's span generation differs from
/// the one this cache was built against (a mid-run
/// [`Fleet::set_leaf_spans`] resets leaf epochs and invalidates the
/// covering-range geometry wholesale), and for devices whose subtree
/// is not one contiguous id range.
struct DrawCache {
    /// Per-device covering leaf-index range into the fleet's leaf
    /// spans (`None` = this device cannot be cached). Devices below
    /// leaf level (racks) cover a sub-range of one leaf; any change
    /// inside that leaf bumps its epoch, so the watermark still
    /// invalidates conservatively.
    leaf_range: Vec<Option<Range<usize>>>,
    /// Whether the covering leaf range *exactly* tiles the device's
    /// server range (true for every device at leaf level and above on
    /// grid topologies). A refold for such a device sums the fleet's
    /// per-leaf power partials — O(leaves) instead of O(servers). At
    /// leaf level this is the very same ascending fold; above it the
    /// fold associates per leaf instead of flat, which is equally
    /// deterministic (the partials are maintained in a fixed order) but
    /// not bit-identical to the pre-0.6 flat scan (an ulp-level,
    /// documented behavior change — see CHANGELOG 0.6.0). The fallback
    /// fold uses the same per-leaf association for tiled devices, so a
    /// device's draw never flips association within a run; the
    /// leaf-level validator comparison is unaffected either way.
    tiled: Vec<bool>,
    /// Cached subtree draw in watts.
    draw_w: Vec<f64>,
    /// Sum of covering-leaf epochs at fold time (`u64::MAX` = never
    /// folded; epochs start at 0 so no real sum collides with it
    /// before the first fold).
    watermark: Vec<u64>,
    /// [`Fleet::leaf_span_generation`] when this cache's geometry
    /// (`leaf_range`, `tiled`) was derived. A mismatch disables the
    /// cache: re-registered spans reset leaf epochs and re-index
    /// leaves, so both the watermarks and the covering ranges are
    /// meaningless against the new spans.
    generation: u64,
    /// Fixed fold order for the parallel breaker pass: device indices
    /// laid out level-by-level bottom-up (racks, then RPPs, then SBs,
    /// then MSBs), ascending within each level — the level-order SoA
    /// view of the tree. Each device's fold reads only fleet arrays
    /// (never another device's draw), so positions are independent and
    /// [`Datacenter::precompute_draws`] chunks them across
    /// workers; the order is fixed so chunk boundaries, and therefore
    /// which worker computes what, never affect the result. Empty when
    /// the topology has a device outside the four grid levels, which
    /// disables the pre-fold rather than stepping a breaker against a
    /// stale draw.
    fold_order: Vec<u32>,
    /// Per-fold-position refold cost estimate (covering leaves for
    /// tiled devices, subtree servers otherwise) used to balance the
    /// chunks.
    weight: Vec<u64>,
    /// Per-fold-position worker output: the draw in watts…
    scratch_draw: Vec<f64>,
    /// …and the covering-epoch watermark it is exact for (`u64::MAX`
    /// for uncacheable devices).
    scratch_mark: Vec<u64>,
    /// Cached chunk ends (exclusive, into `fold_order`) so the
    /// steady-state dispatch allocates nothing.
    chunk_ends: Vec<usize>,
    /// Worker count `chunk_ends` was balanced for (0 = never).
    chunks_for: usize,
}

/// Subtree power of device `i` through the epoch cache; falls back to
/// the direct fold (and does not populate the cache) when the spans
/// were re-registered or the device is uncacheable. A free function
/// over split field borrows so callers can hold `&mut` topology state.
fn cached_subtree_power(
    cache: &mut DrawCache,
    fleet: &Fleet,
    subtree_range: &[Option<Range<usize>>],
    subtree: &[Vec<u32>],
    i: usize,
) -> Power {
    if fleet.leaf_span_generation() != cache.generation {
        // Spans were re-registered after this cache's geometry was
        // derived: covering ranges and watermarks are both stale.
        return match &subtree_range[i] {
            Some(range) => fleet.power_sum_range(range.clone()),
            None => fleet.power_sum(&subtree[i]),
        };
    }
    if let Some(Some(lr)) = cache.leaf_range.get(i) {
        let epochs = fleet.leaf_epochs();
        if lr.end <= epochs.len() {
            // Keyed on the SUM of covering epochs: each epoch is
            // monotone, so any leaf bump raises the sum even when
            // it does not move the covering max (a lagging leaf
            // catching up must still invalidate).
            let mark = epochs[lr.clone()].iter().sum::<u64>();
            if cache.watermark[i] == mark {
                return Power::from_watts(cache.draw_w[i]);
            }
            let p = fold_subtree(
                &cache.tiled,
                &cache.leaf_range,
                fleet,
                subtree_range,
                subtree,
                i,
            );
            cache.draw_w[i] = p.as_watts();
            cache.watermark[i] = mark;
            return p;
        }
    }
    fold_subtree(
        &cache.tiled,
        &cache.leaf_range,
        fleet,
        subtree_range,
        subtree,
        i,
    )
}

/// The uncached subtree fold for device `i`, with one fixed
/// association per device: tiled devices (leaf level and above) fold
/// per covering leaf and then sum the partials, everything else folds
/// flat. The cached path stores exactly these results, and the fleet's
/// maintained partials are the same per-leaf ascending folds, so a
/// device's draw is bit-stable across cache hits and refolds within a
/// run. Only meaningful while the
/// cache's span generation matches the fleet's. Takes the cache's
/// geometry as plain slices so the pre-fold can call it from workers
/// while the owner holds `&mut` scratch.
fn fold_subtree(
    tiled: &[bool],
    leaf_range: &[Option<Range<usize>>],
    fleet: &Fleet,
    subtree_range: &[Option<Range<usize>>],
    subtree: &[Vec<u32>],
    i: usize,
) -> Power {
    if tiled[i] {
        let lr = leaf_range[i]
            .clone()
            .expect("tiled devices have covering leaves");
        return Power::from_watts(fleet.leaf_power_partials()[lr].iter().sum());
    }
    match &subtree_range[i] {
        Some(range) => fleet.power_sum_range(range.clone()),
        None => fleet.power_sum(&subtree[i]),
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
        let subtree: Vec<Vec<u32>> = topo.iter().map(|d| topo.servers_under(d.id)).collect();
        let subtree_range: Vec<Option<Range<usize>>> =
            subtree.iter().map(|ids| contiguous_range(ids)).collect();
        let device_ids: Vec<DeviceId> = topo.iter().map(|d| d.id).collect();
        let breaker_status = vec![BreakerStatus::Nominal; topo.device_count()];
        let mut fleet = fleet;
        // The fleet carves its shards, and maintains per-leaf power
        // partials, over the control plane's leaves.
        let spans = system.leaf_spans();
        fleet.set_leaf_spans(spans);
        let n_dev = topo.device_count();
        let leaf_range: Vec<Option<Range<usize>>> = subtree_range
            .iter()
            .map(|r| {
                r.as_ref().map(|r| {
                    let l0 = spans.partition_point(|s| s.end <= r.start);
                    let l1 = spans.partition_point(|s| s.start < r.end);
                    l0..l1
                })
            })
            .collect();
        let tiled: Vec<bool> = leaf_range
            .iter()
            .zip(&subtree_range)
            .map(|(lr, sr)| match (lr, sr) {
                (Some(lr), Some(sr)) if lr.start < lr.end => {
                    spans[lr.start].start == sr.start && spans[lr.end - 1].end == sr.end
                }
                _ => false,
            })
            .collect();
        // Level-order fold layout for the breaker pre-fold:
        // bottom-up so a chunk boundary can only ever split within a
        // level, never interleave levels.
        let mut fold_order: Vec<u32> = Vec::with_capacity(n_dev);
        for level in [
            DeviceLevel::Rack,
            DeviceLevel::Rpp,
            DeviceLevel::Sb,
            DeviceLevel::Msb,
        ] {
            fold_order.extend(topo.devices_at(level).iter().map(|d| d.index() as u32));
        }
        if fold_order.len() != n_dev {
            // A device outside the four grid levels: no level-order
            // view, so the pre-fold stays disabled.
            fold_order.clear();
        }
        let weight: Vec<u64> = fold_order
            .iter()
            .map(|&idx| {
                let i = idx as usize;
                match (&leaf_range[i], tiled[i]) {
                    (Some(lr), true) => (lr.end - lr.start).max(1) as u64,
                    _ => subtree[i].len().max(1) as u64,
                }
            })
            .collect();
        let n_fold = fold_order.len();
        let draw_cache = DrawCache {
            leaf_range,
            tiled,
            draw_w: vec![0.0; n_dev],
            watermark: vec![u64::MAX; n_dev],
            // Captured after the set_leaf_spans call above: any later
            // re-registration bumps the fleet's generation and disables
            // this cache rather than risking stale-watermark collisions.
            generation: fleet.leaf_span_generation(),
            fold_order,
            weight,
            scratch_draw: vec![0.0; n_fold],
            scratch_mark: vec![u64::MAX; n_fold],
            chunk_ends: Vec::with_capacity(MAX_WORKERS),
            chunks_for: 0,
        };
        Datacenter {
            topo,
            fleet,
            system,
            telemetry,
            now: SimTime::ZERO,
            tick,
            subtree,
            device_ids,
            watched,
            breaker_status,
            validator,
            worker_threads: 1,
            parallel_mode: ParallelMode::default(),
            pool: None,
            subtree_range,
            watched_scratch: Vec::new(),
            alerts_seen: 0,
            draw_cache,
            grid,
            profile_ticks: false,
            samples_since_refresh: 0,
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

    /// Sets the number of worker threads used for fleet physics, the
    /// breaker pre-fold *and* leaf control cycles, creating or resizing
    /// the persistent worker pool they share. The simulation is
    /// bit-identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn set_worker_threads(&mut self, threads: usize) {
        assert!(threads >= 1, "need at least one worker thread");
        self.worker_threads = threads;
        self.apply_threads();
    }

    /// Sets how the thread count is clamped (default
    /// [`ParallelMode::Pooled`]: not at all) and re-applies the current
    /// count under it.
    pub fn set_parallel_mode(&mut self, mode: ParallelMode) {
        self.parallel_mode = mode;
        self.apply_threads();
    }

    /// The threads actually in use after the mode's clamping —
    /// [`ParallelMode::PooledAuto`] caps at the host's available
    /// parallelism, both modes at the pool's maximum size.
    pub fn effective_worker_threads(&self) -> usize {
        self.pool.as_ref().map_or(1, |p| p.workers())
    }

    /// Resolves `(worker_threads, parallel_mode)` into the shared
    /// pool, tearing it down or rebuilding it only when the effective
    /// size changes.
    fn apply_threads(&mut self) {
        let cap = match self.parallel_mode {
            ParallelMode::Pooled => MAX_WORKERS,
            ParallelMode::PooledAuto => std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(MAX_WORKERS),
        };
        let threads = self.worker_threads.min(cap);
        if threads > 1 {
            if self.pool.as_ref().map(|p| p.workers()) != Some(threads) {
                self.pool = Some(Arc::new(WorkerPool::new(threads)));
            }
            let pool = self.pool.as_ref().expect("pool built above");
            self.fleet.attach_pool(Arc::clone(pool));
            self.system.attach_pool(Arc::clone(pool));
        } else {
            self.pool = None;
            self.fleet.detach_pool();
            self.system.detach_pool();
        }
    }

    /// True subtree power of device index `i`: a flat contiguous scan
    /// when the subtree is one server-id run (grid topologies), the
    /// id-list walk otherwise. Both are the same ascending fold, so the
    /// result is bit-identical either way.
    fn subtree_power(&self, i: usize) -> Power {
        match &self.subtree_range[i] {
            Some(range) => self.fleet.power_sum_range(range.clone()),
            None => self.fleet.power_sum(&self.subtree[i]),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The simulation tick.
    pub fn tick_interval(&self) -> SimDuration {
        self.tick
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

    /// True power currently flowing through `device` (sum of subtree
    /// servers).
    pub fn device_power(&self, device: DeviceId) -> Power {
        self.subtree_power(device.index())
    }

    /// True when every device's epoch-cached draw matches a fresh fold
    /// bit for bit. Serving a draw through the cache is allowed to
    /// populate it, so this needs `&mut self`; it never changes what
    /// any subsequent read returns.
    ///
    /// When a mid-run re-span has disabled the cache (generation
    /// mismatch), serving falls back to flat folds — the audit then
    /// compares against the same flat association, so the probe stays
    /// meaningful in every cache regime.
    pub fn draw_cache_is_exact(&mut self) -> bool {
        let bypassed = self.fleet.leaf_span_generation() != self.draw_cache.generation;
        for i in 0..self.subtree.len() {
            let served = cached_subtree_power(
                &mut self.draw_cache,
                &self.fleet,
                &self.subtree_range,
                &self.subtree,
                i,
            );
            let fresh = if bypassed {
                match &self.subtree_range[i] {
                    Some(range) => self.fleet.power_sum_range(range.clone()),
                    None => self.fleet.power_sum(&self.subtree[i]),
                }
            } else {
                fold_subtree(
                    &self.draw_cache.tiled,
                    &self.draw_cache.leaf_range,
                    &self.fleet,
                    &self.subtree_range,
                    &self.subtree,
                    i,
                )
            };
            if served.as_watts().to_bits() != fresh.as_watts().to_bits() {
                return false;
            }
        }
        true
    }

    /// Power through `device` attributable to one service (Figure 15's
    /// breakdown view).
    pub fn service_power(&self, device: DeviceId, kind: ServiceKind) -> Power {
        self.fleet
            .power_sum_of_service(&self.subtree[device.index()], kind)
    }

    /// Number of servers currently capped under `device`.
    pub fn capped_under(&self, device: DeviceId) -> usize {
        self.subtree[device.index()]
            .iter()
            .filter(|&&s| self.fleet.cap_of(s).is_some())
            .count()
    }

    /// Mean performance factor of the servers under `device`.
    pub fn performance_under(&self, device: DeviceId) -> f64 {
        self.fleet.mean_performance(&self.subtree[device.index()])
    }

    /// The breaker pre-fold: computes every device's subtree draw into
    /// the cache's level-order scratch arrays, sharded over the worker
    /// pool (one inline shard without one), then folds the results back
    /// into the cache serially in fold order. Each position's value is
    /// exactly what a live cached fold would produce for that device
    /// *before any breaker stepped this tick* — same watermark check,
    /// same per-device fold association — so the pass is bit-identical
    /// at any width.
    ///
    /// Returns `false` (leaving the cache untouched) when the pass
    /// cannot run: a stale span generation or no level-order layout.
    /// The caller then steps breakers against live cached folds.
    fn precompute_draws(&mut self) -> bool {
        let n = self.draw_cache.fold_order.len();
        if n == 0
            || n != self.device_ids.len()
            || self.fleet.leaf_span_generation() != self.draw_cache.generation
        {
            return false;
        }
        let pool = self.pool.as_deref();
        let shards = shard::width(pool, n);
        let DrawCache {
            leaf_range,
            tiled,
            draw_w,
            watermark,
            generation: _,
            fold_order,
            weight,
            scratch_draw,
            scratch_mark,
            chunk_ends,
            chunks_for,
        } = &mut self.draw_cache;

        if *chunks_for != shards {
            // Re-balance the chunk boundaries by refold cost. Only on a
            // width change; the steady state reuses them.
            chunk_ends.clear();
            let total: u64 = weight.iter().sum();
            let mut acc = 0u64;
            for (pos, &w) in weight.iter().enumerate() {
                acc += w;
                if chunk_ends.len() < shards - 1
                    && acc * shards as u64 >= (chunk_ends.len() as u64 + 1) * total
                {
                    chunk_ends.push(pos + 1);
                }
            }
            while chunk_ends.len() < shards - 1 {
                chunk_ends.push(n);
            }
            chunk_ends.push(n);
            *chunks_for = shards;
        }

        {
            // Shared immutable context for the shards; `&Fleet` is
            // `Sync` (owned data only), and the cache's draw/watermark
            // arrays are read-only here — shards write scratch.
            let fleet = &self.fleet;
            let epochs = fleet.leaf_epochs();
            let subtree_range = &self.subtree_range[..];
            let subtree = &self.subtree[..];
            let leaf_range = &leaf_range[..];
            let tiled = &tiled[..];
            let draw_w = &draw_w[..];
            let watermark = &watermark[..];

            // What a live cached fold would compute for device `i` at
            // this instant: a cache hit when the covering-epoch sum
            // still matches, the fixed-association refold otherwise.
            let compute = |i: usize| -> (f64, u64) {
                if let Some(lr) = &leaf_range[i] {
                    if lr.end <= epochs.len() {
                        let mark = epochs[lr.clone()].iter().sum::<u64>();
                        if watermark[i] == mark {
                            return (draw_w[i], mark);
                        }
                        let p = fold_subtree(tiled, leaf_range, fleet, subtree_range, subtree, i);
                        return (p.as_watts(), mark);
                    }
                }
                let p = fold_subtree(tiled, leaf_range, fleet, subtree_range, subtree, i);
                (p.as_watts(), u64::MAX)
            };

            struct FoldJob<'a> {
                order: &'a [u32],
                draws: &'a mut [f64],
                marks: &'a mut [u64],
            }
            let mut order_rest = &fold_order[..];
            let mut draw_rest = &mut scratch_draw[..];
            let mut mark_rest = &mut scratch_mark[..];
            let mut ends = chunk_ends.iter();
            let mut start = 0;
            let carve = || {
                let end = *ends.next().expect("one chunk end per shard");
                let take = end - start;
                start = end;
                FoldJob {
                    order: front(&mut order_rest, take),
                    draws: front_mut(&mut draw_rest, take),
                    marks: front_mut(&mut mark_rest, take),
                }
            };
            shard::run_sharded(pool, shards, carve, |job| {
                for (k, &idx) in job.order.iter().enumerate() {
                    (job.draws[k], job.marks[k]) = compute(idx as usize);
                }
            });
        }

        // Serial copy-back in fold order: after this, the cache holds
        // for every device exactly what a live fold would have stored
        // while stepping it.
        for (pos, &idx) in fold_order.iter().enumerate() {
            let i = idx as usize;
            draw_w[i] = scratch_draw[pos];
            if scratch_mark[pos] != u64::MAX {
                watermark[i] = scratch_mark[pos];
            }
        }
        true
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

        // 2. Breaker thermal models over true subtree power. Draws go
        // through the epoch cache: with active-set physics on, most
        // leaves' power is bit-unchanged most ticks, so most devices
        // serve their cached fold instead of re-summing the subtree.
        // The pre-fold computes every draw first, sharded over the
        // pool; breakers then step serially against those values,
        // falling back to live folds from the first trip on so later
        // devices observe the blackout (the kill bumps the victims'
        // leaf epochs, so a stale pre-folded draw is never served).
        let mut live_draws = !self.precompute_draws();
        for i in 0..self.device_ids.len() {
            let id = self.device_ids[i];
            let draw = if live_draws {
                cached_subtree_power(
                    &mut self.draw_cache,
                    &self.fleet,
                    &self.subtree_range,
                    &self.subtree,
                    i,
                )
            } else {
                Power::from_watts(self.draw_cache.draw_w[i])
            };
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
                    // cached power arrays stay exact mid-step.
                    for &s in &self.subtree[i] {
                        self.fleet.set_server_alive(s, false);
                    }
                    live_draws = true;
                }
            }
        }
        lap.mark(&mut phase_secs, TickPhase::BreakerFold);

        // 2b. Grid-interactive layer: read the utility signal, run any
        // economic cycle due (pushing contractual limits onto the MSB
        // controllers the next stage will act on), and ride the DCUPS
        // banks against the utility target. Site draw reuses the epoch
        // cache populated by the breaker pass above, so this is a few
        // cache hits per tick.
        if let Some(grid) = self.grid.as_mut() {
            let mut site_w = 0.0;
            for &(d, _) in grid.msbs() {
                site_w += cached_subtree_power(
                    &mut self.draw_cache,
                    &self.fleet,
                    &self.subtree_range,
                    &self.subtree,
                    d.index(),
                )
                .as_watts();
            }
            grid.step(
                now,
                self.tick,
                Power::from_watts(site_w),
                self.fleet.leaf_power_partials(),
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
                    let true_power = cached_subtree_power(
                        &mut self.draw_cache,
                        &self.fleet,
                        &self.subtree_range,
                        &self.subtree,
                        dev.index(),
                    );
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

        // 5. Telemetry sampling. The fleet's total power comes from a
        // quiescence-keyed memo; every
        // `TELEMETRY_REFRESH_SAMPLES`-th sample forces a full
        // recomputation (and, in debug builds, cross-checks the memo
        // against the flat fold), so the merged sample stream can
        // never ride a stale memo for more than a cadence period.
        if self.telemetry.sample_due(now) {
            self.samples_since_refresh += 1;
            if self.samples_since_refresh >= TELEMETRY_REFRESH_SAMPLES {
                self.samples_since_refresh = 0;
                self.fleet.refresh_total_power();
            }
            let mut watched = std::mem::take(&mut self.watched_scratch);
            watched.clear();
            for &d in &self.watched {
                let p = cached_subtree_power(
                    &mut self.draw_cache,
                    &self.fleet,
                    &self.subtree_range,
                    &self.subtree,
                    d.index(),
                );
                watched.push((d, p));
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
        self.fleet.restore(&state.fleet)?;
        self.system.restore(&state.system)?;
        self.telemetry.restore(&state.telemetry)?;
        for (i, &id) in self.device_ids.iter().enumerate() {
            self.topo.device_mut(id).breaker = state.breakers[i].clone();
        }
        self.breaker_status.clone_from(&state.breaker_status);
        self.validator.restore(&state.validator)?;
        if let (Some(grid), Some(gs)) = (&mut self.grid, &state.grid) {
            grid.restore(gs)?;
        }
        self.alerts_seen = state.alerts_seen as usize;
        self.now = SimTime::from_millis(state.now_ms);
        // The draw cache keys on leaf epochs that just changed under
        // it: force a refold of every device at the next read.
        for w in &mut self.draw_cache.watermark {
            *w = u64::MAX;
        }
        self.draw_cache.generation = self.fleet.leaf_span_generation();
        Ok(())
    }

    /// Operator action after an outage: resets `device`'s breaker and
    /// powers its subtree back on.
    ///
    /// # Panics
    ///
    /// Panics if `device` is not part of this topology.
    pub fn reset_breaker(&mut self, device: DeviceId) {
        self.topo.device_mut(device).breaker.reset();
        self.breaker_status[device.index()] = BreakerStatus::Nominal;
        for &s in &self.subtree[device.index()] {
            self.fleet.set_server_alive(s, true);
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

/// `Some(start..end)` when `ids` is the contiguous ascending run
/// `start..end`, else `None`.
fn contiguous_range(ids: &[u32]) -> Option<Range<usize>> {
    let first = *ids.first()? as usize;
    ids.iter()
        .enumerate()
        .all(|(k, &sid)| sid as usize == first + k)
        .then(|| first..first + ids.len())
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
    use workloads::ServiceKind;

    /// 1 MSB / 2 SBs / 4 RPP leaves / 8 racks / 32 servers: every
    /// device class the cache distinguishes (multi-leaf tiled, exactly
    /// one leaf, sub-leaf rack).
    fn small_dc(seed: u64) -> Datacenter {
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
            .build()
    }

    /// Every device's served draw must equal a fresh fold of the same
    /// association, bitwise, regardless of which leaves changed since
    /// its watermark was recorded.
    fn assert_cache_exact(dc: &mut Datacenter) {
        for i in 0..dc.device_ids.len() {
            let fresh = fold_subtree(
                &dc.draw_cache.tiled,
                &dc.draw_cache.leaf_range,
                &dc.fleet,
                &dc.subtree_range,
                &dc.subtree,
                i,
            );
            let served = cached_subtree_power(
                &mut dc.draw_cache,
                &dc.fleet,
                &dc.subtree_range,
                &dc.subtree,
                i,
            );
            assert_eq!(
                served.as_watts().to_bits(),
                fresh.as_watts().to_bits(),
                "device {i} served a stale cached draw"
            );
        }
    }

    #[test]
    fn draw_cache_never_serves_stale_sums_across_mutations() {
        let mut dc = small_dc(17);
        for _ in 0..5 {
            dc.step();
        }
        assert_cache_exact(&mut dc);

        let spans: Vec<Range<usize>> = dc.system.leaf_spans().to_vec();
        let lag = spans[0].start as u32;
        let lead = spans[1].start as u32;

        // Run leaf 1's epoch ahead of leaf 0's (kill + revive restores
        // the exact retained output, so only the epochs move), then
        // fold everything so watermarks record asymmetric epochs.
        for _ in 0..4 {
            dc.fleet.set_server_alive(lead, false);
            dc.fleet.set_server_alive(lead, true);
        }
        assert_cache_exact(&mut dc);

        // The regression: a change in the *lagging* leaf bumps its
        // epoch without moving the covering max, so a max-keyed
        // watermark would keep serving the pre-kill sums for the SB,
        // MSB and root above leaf 0. The sum key must refold.
        assert!(
            dc.fleet.power_of(lag).as_watts() > 0.0,
            "kill must change the subtree draw for the test to bite"
        );
        dc.fleet.set_server_alive(lag, false);
        assert_cache_exact(&mut dc);
        dc.fleet.set_server_alive(lag, true);
        assert_cache_exact(&mut dc);

        // A RAPL cap programmed out of band moves no power until the
        // next step: draws stay exact before it and after it.
        dc.fleet
            .agent_rpc(lag, dynrpc::Request::SetCap(Power::from_watts(80.0)));
        assert_cache_exact(&mut dc);
        dc.step();
        assert_cache_exact(&mut dc);

        // Breaker-style churn: kills and restarts in rotating leaves,
        // interleaved with full steps.
        for k in 0..6 {
            let sid = spans[k % spans.len()].start as u32;
            dc.fleet.set_server_alive(sid, k % 2 == 1);
            dc.step();
            assert_cache_exact(&mut dc);
        }
    }

    #[test]
    fn respanning_mid_run_disables_the_draw_cache() {
        let mut dc = small_dc(23);
        for _ in 0..3 {
            dc.step();
        }
        assert_cache_exact(&mut dc);

        // Re-register the same spans out of band: leaf epochs restart
        // at zero and could climb back into coincidence with a stale
        // watermark. The generation mismatch must bypass the cache so
        // every draw is a direct fold.
        let spans: Vec<Range<usize>> = dc.system.leaf_spans().to_vec();
        dc.fleet.set_leaf_spans(&spans);
        for _ in 0..10 {
            dc.fleet.set_server_alive(0, false);
            dc.fleet.set_server_alive(0, true);
            for i in 0..dc.device_ids.len() {
                let served = cached_subtree_power(
                    &mut dc.draw_cache,
                    &dc.fleet,
                    &dc.subtree_range,
                    &dc.subtree,
                    i,
                );
                let direct = match &dc.subtree_range[i] {
                    Some(r) => dc.fleet.power_sum_range(r.clone()),
                    None => dc.fleet.power_sum(&dc.subtree[i]),
                };
                assert_eq!(
                    served.as_watts().to_bits(),
                    direct.as_watts().to_bits(),
                    "device {i} served a stale draw after a mid-run re-span"
                );
            }
            dc.step();
        }
    }
}
