//! The simulated server fleet: agents, workloads, failures.
//!
//! # Hot-path layout (struct of arrays)
//!
//! The fleet holds no per-server object. The mutable state of every
//! server (its workload process — RNG stream, mean-reverting noise,
//! burst in flight — demanded watts, RAPL limit, settled output,
//! first-step flag, liveness, the agent's sensor-noise stream and
//! process-up bit) lives in flat parallel columns, and two kernels walk
//! them per tick: [`workloads::kernel::draw_batch`] draws every
//! process's utilization, one call per run with the service's
//! parameters, traffic target, burst probability and
//! Ornstein-Uhlenbeck coefficients ([`OuCoeffs`]) hoisted out of the
//! element loop, and one branchless pass of
//! [`serverpower::kernel::step_batch`] advances the physics.
//! Power-curve evaluation in between goes through the per-generation
//! [`PowerLut`] uniform-grid tables. Each kernel shares its element
//! step with the scalar model (`ServiceWorkload`, `Rapl`), so column
//! and scalar are the same arithmetic by construction.
//!
//! ## Batched run order (stable permutation)
//!
//! At build time servers are grouped into *runs* of equal
//! `(generation, service, turbo)` so the demand loop has no per-element
//! branching on service parameters, static cap, or turbo factor. The
//! grouping is a *leaf-local stable permutation*: server ids, leaf span
//! membership, per-server RNG streams, and every externally visible
//! array stay in server-id order, so results are bit-identical to the
//! unpermuted layout (each workload process owns a private RNG stream,
//! making evaluation order unobservable). Positions (`perm`/`inv`) are
//! only an internal storage order.
//!
//! The id-ordered views ([`Fleet::power_of`], [`Fleet::power_sum`],
//! per-leaf partials) are scattered back from the batch arrays each
//! step with the same ascending-index `f64` folds as before, so all
//! aggregates remain bit-identical at any worker count.
//!
//! ## One step
//!
//! [`Fleet::step`] is the only physics step. It carves the fleet into
//! whole-leaf shards — as many as the attached [`WorkerPool`] has
//! workers, one without a pool — and hands them to [`run_sharded`]:
//! a single shard runs inline on the caller, more go to the pool's
//! parked workers. "Serial" is therefore one shard of the same path,
//! not a second implementation. Within a shard every leaf is walked
//! tile by tile ([`FUSE_TILE`] servers): demand draw, settle kernel and
//! power scatter run back to back while the tile is cache-hot.
//!
//! ## Aggregates
//!
//! The fleet keeps the bottom layer of the hierarchy's bottom-up
//! aggregation (§III-C): one power partial per leaf, the ascending flat
//! fold of the leaf's servers, refolded by every step that walks the
//! leaf and by [`Fleet::set_server_alive`]. Everything above a leaf is
//! a sum of those partials, taken by the datacenter's breaker pass. No
//! other sum is stored: [`Fleet::stats`] folds the per-server watts
//! flat on every call, [`Fleet::power_sum`] over whatever ids it is
//! given. A per-leaf power epoch versions each leaf's watts for the one
//! consumer that keeps a sum below leaf level (a rack's draw), and a
//! snapshot's partials are checked against its per-server watts on the
//! way back in.
//!
//! ## State ownership
//!
//! The columns are the only store: every per-server quantity exists
//! exactly once, here, and what is a pure function of a server's
//! configuration lives in a small table of shared [`ServerModel`]s.
//! Nothing is copied out for the control plane. The leaf dispatch
//! borrows a [`LeafAgents`] view over one leaf's slices
//! ([`Fleet::agent_columns`]) and serves each RPC through a
//! [`dynamo_agent::Host`] built over one server's entries — the same
//! request handler the standalone [`dynamo_agent::Agent`] runs — so
//! `ReadPower` reads `out_w[pos]` and `SetCap` / `ClearCap` write
//! `limit_w[pos]` in place — and a controller's whole pull reads a
//! leaf's servers straight off the columns
//! ([`LeafAgents::read_power`], the same [`ServerModel::read_power`]
//! the handler calls). The view notes, at the moment of the write,
//! whether a limit changed bits and how the capped tally moved; the
//! only work left past the join is folding those per-leaf notes into
//! the shared settled flags and tally
//! ([`Fleet::finish_fused_control`]). Outside a dispatch,
//! [`Fleet::agent_rpc`] serves one request through the same view, and
//! the breaker blackout path uses [`Fleet::set_server_alive`]; both
//! keep every cached aggregate exact.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use dcsim::{SimDuration, SimRng, SimTime};
use dynpool::WorkerPool;
use dynrpc::{AgentEndpoint, Request, Response};
use powerinfra::Power;
use serverpower::{kernel, PowerLut, Rapl, ServerConfig, ServerModel};
use workloads::kernel::{draw_batch, DrawStep};
use workloads::{OuCoeffs, ServiceKind, TrafficPattern};

use crate::shard::{self, front, front_mut};

mod snapshot;
mod view;

pub use snapshot::FleetState;
pub(crate) use view::{AgentColumns, LeafAgents};

/// Aggregate fleet statistics at an instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetStats {
    /// Servers currently under a RAPL cap.
    pub capped_servers: usize,
    /// Servers whose agent process is down.
    pub agents_down: usize,
    /// Total true power of all servers.
    pub total_power: Power,
}

/// Analytical main-memory roofline of one worst-case tick: the bytes
/// the hot loop must move through DRAM when every leaf redraws, every
/// controller cycles, and the tick samples telemetry, assuming the
/// caches hold nothing across passes but everything within one
/// `FUSE_TILE` (a tile touched by consecutive stages stays resident).
///
/// Computed from the live allocation sizes, not constants, so a layout
/// regression — an array added to the settle stride, a mask unpacked
/// back to `f64` — moves the number even before it shows up in wall
/// time. `crates/bench` gates it against a baked baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickTraffic {
    /// Bytes per worst-case tick: one streaming pass over the hot set —
    /// settle, telemetry partial and per-leaf partial all ride the tile
    /// while it is resident — plus the breaker pass reading the
    /// per-leaf partials back (O(leaves), counted exactly).
    pub fused: u64,
}

/// One maximal contiguous position range of servers sharing a
/// generation, service, and turbo setting. All batch-loop constants of
/// the demand computation are hoisted here once at build time.
struct Run {
    /// Position range (`perm` order) this run covers.
    range: Range<usize>,
    /// The generation's shared power LUT.
    lut: Arc<PowerLut>,
    /// Idle watts of the generation (LUT node 0).
    idle_w: f64,
    /// Turbo power factor; meaningful only when `turbo` is true.
    turbo_pf: f64,
    /// Whether turbo is enabled for this run. A per-run branch, hoisted
    /// out of the element loop: routing non-turbo servers through the
    /// turbo expression with factor 1.0 would not be a float identity.
    turbo: bool,
    /// [`ServiceKind::index`] — the traffic-multiplier / static-cap /
    /// OU-coefficient index for the whole run.
    svc: u8,
}

/// Every server in the datacenter as parallel columns: its hardware
/// model, its agent's state, its service assignment, its utilization
/// process and physics, plus fleet-level failure injection.
pub struct Fleet {
    /// The fleet's distinct server models — one per distinct
    /// [`ServerConfig`], shared by every server configured alike.
    models: Vec<Arc<ServerModel>>,
    /// Server id → index into `models`.
    model_ix: Vec<u32>,
    /// Per-agent sensor-noise streams, server-id order.
    agent_rng: Vec<SimRng>,
    /// Bit-packed agent-process-up mask: bit `sid % 64` of word
    /// `sid / 64` is set while server `sid`'s agent is running.
    running_bits: Vec<u64>,
    services: Vec<ServiceKind>,
    /// Per-server workload processes as columns, *position* order (see
    /// `perm`): each process's private RNG stream, its mean-reverting
    /// noise, and its burst in flight as expiry + added utilization
    /// (`SimTime::ZERO` / `0.0` when none — the
    /// [`workloads::kernel`] encoding). The parameters are the
    /// service's calibrated ones, hoisted per [`Run`].
    wl_rng: Vec<SimRng>,
    wl_noise: Vec<f64>,
    wl_burst_until: Vec<SimTime>,
    wl_burst_add: Vec<f64>,
    /// Per-service traffic patterns; services without an entry see
    /// constant nominal traffic.
    traffic: HashMap<ServiceKind, TrafficPattern>,
    /// Optional static utilization clamp per service, indexed by
    /// [`ServiceKind::index`] (the pre-Dynamo baseline for the search
    /// cluster in §IV-D: "all servers ... were required to limit their
    /// clock frequency").
    static_util_caps: [Option<f64>; ServiceKind::COUNT],
    /// Probability per server-hour of an agent crash.
    crash_rate_per_hour: f64,
    /// Watchdog restart delay.
    watchdog_delay: SimDuration,
    /// Crashed agents pending restart: (server, restart time).
    pending_restarts: Vec<(u32, SimTime)>,
    rng: SimRng,
    /// Position → server id: a leaf-local stable sort by
    /// `(generation, service, turbo)`.
    perm: Vec<u32>,
    /// Server id → position (inverse of `perm`).
    inv: Vec<u32>,
    /// Maximal equal-key position ranges with hoisted loop constants.
    runs: Vec<Run>,
    /// Batch state, position order: demanded watts (incl. turbo premium).
    demand_w: Vec<f64>,
    /// Batch state, position order: RAPL limit in watts
    /// (`f64::INFINITY` when uncapped, making `min` branchless).
    limit_w: Vec<f64>,
    /// Batch state, position order: settled RAPL output watts.
    out_w: Vec<f64>,
    /// Bit-packed first-step mask, one bit per server (bit set = not
    /// yet live-stepped, forcing the exact first-step snap). Packed in
    /// per-leaf regions (see [`Fleet::mask_base`]) so whole-leaf
    /// shards own disjoint words. The hot/cold split: what
    /// used to be two `f64` arrays in the settle stride is now a
    /// quarter byte per server.
    not_init_bits: Vec<u64>,
    /// Bit-packed liveness mask, one bit per server (bit set = alive),
    /// same region layout as [`Fleet::not_init_bits`].
    alive_bits: Vec<u64>,
    /// Mask region directory: entry `l` is `(first word, first
    /// position)` of leaf `l`'s mask words, with a final sentinel of
    /// `(total words, server count)`. Every region starts on a fresh
    /// word, so a worker owning whole leaves owns whole words — the
    /// parallel-carving invariant the packed masks rest on.
    mask_base: Vec<(usize, usize)>,
    /// Post-clamp demand utilization at the last step, position order.
    util: Vec<f64>,
    /// Uniform RAPL time constant of the fleet's servers.
    tau_secs: f64,
    /// SoA hot path: true power draw (watts) of each server after its
    /// last physics step, in server-id order (`out_w * alive`, scattered
    /// through `perm`).
    power_w: Vec<f64>,
    /// Per-leaf server spans (ascending, tiling `0..n`, never empty):
    /// the single span `0..n` until the control plane registers its
    /// own through [`Fleet::set_leaf_spans`].
    leaf_spans: Vec<Range<usize>>,
    /// Monotone count of [`Fleet::set_leaf_spans`] registrations.
    /// Re-registering spans resets every per-leaf epoch to zero, so any
    /// consumer keying a cached aggregate on an epoch must also compare
    /// this generation — a restarted epoch can coincidentally reach its
    /// pre-re-span value.
    span_generation: u64,
    /// Per-leaf power partial sums (watts), rebuilt by every step as
    /// the ascending flat fold over the leaf's span.
    leaf_power_w: Vec<f64>,
    /// Persistent worker pool shared with the leaf control plane; its
    /// size is the step's shard count (one shard without a pool).
    pool: Option<Arc<WorkerPool>>,
    /// Physics ticks completed so far; drives the leaf-phased demand
    /// redraw schedule. Incremented exactly once per step.
    tick_index: u64,
    /// Demand redraw period in ticks. `1` (the default) redraws every
    /// workload every tick — bit-identical to the always-redraw model.
    /// Larger values hold each leaf's demand between leaf-phased
    /// redraws, which is what lets a fully settled leaf skip physics.
    demand_hold: u32,
    /// Per-leaf active-set flags, bit-packed (bit `l % 64` of word
    /// `l / 64`): set iff the leaf's last physics pass was a *fixed
    /// point* (changed no bit of `out_w`/`not_init`), so repeating it
    /// with unchanged inputs is the exact floating-point identity.
    /// Cleared at every limit / liveness mutation site; a redraw steps
    /// the leaf regardless.
    settled_bits: Vec<u64>,
    /// Unpacked mirror of [`Fleet::settled_bits`], one `bool` per leaf.
    /// The step paths need per-worker `&mut` carving at leaf
    /// granularity, which packed words cannot give without `unsafe`;
    /// the bits are unpacked into this persistent scratch before a step
    /// and repacked after. Authoritative only inside a step.
    settled_scratch: Vec<bool>,
    /// Per-leaf tick of the last demand redraw; held redraws scale the
    /// workload step `dt` by the elapsed tick count.
    last_draw_tick: Vec<u64>,
    /// Per-leaf monotone power version: bumped whenever the leaf's
    /// drawn power may have changed bits. The datacenter keys each
    /// rack's memoized draw on its leaf's epoch.
    leaf_epoch: Vec<u64>,
    /// Per-leaf monotone *agent* version: bumped whenever something a
    /// leaf controller's pull could observe changes outside the power
    /// epochs — an agent process crashing or restarting, a server's
    /// liveness flipping.
    /// Together with [`Fleet::leaf_epoch`] and
    /// [`Fleet::last_draw_tick`] this is the control plane's staleness
    /// witness for quiescent-cycle elision.
    agent_epoch: Vec<u64>,
    /// Maintained count of servers with a RAPL limit programmed. Caps
    /// change only through the agent view, which reports every flip of
    /// a limit between finite and `+Inf`. Keeps [`Fleet::stats`] O(1)
    /// instead of scanning every server.
    capped_count: usize,
    /// Maintained count of agents whose process is down. Crash and
    /// watchdog restart both route through
    /// [`Fleet::process_failures`].
    down_count: usize,
}

/// Step tile size in servers: each tile's demand draw, settle
/// kernel, and power scatter run back-to-back while the tile's slices
/// are cache-hot, instead of three leaf-wide array passes. A tile
/// spans ~5 hot `f64` arrays × 8 B × 2048 ≈ 80 KiB — comfortably
/// L2-resident — and must stay a multiple of 64 so every tile covers
/// whole mask words (and of the kernel lane width, which divides 64).
const FUSE_TILE: usize = 2048;

impl Fleet {
    /// Assembles a fleet. `configs[i]` and `services[i]` describe server
    /// `i`; workload processes get independent RNG streams from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `configs` and `services` differ in length or are empty.
    pub fn new(configs: Vec<ServerConfig>, services: Vec<ServiceKind>, mut rng: SimRng) -> Self {
        assert_eq!(
            configs.len(),
            services.len(),
            "configs/services length mismatch"
        );
        assert!(!configs.is_empty(), "fleet cannot be empty");
        let n = configs.len();
        let mut models: Vec<Arc<ServerModel>> = Vec::new();
        let mut model_ix = Vec::with_capacity(n);
        let mut agent_rng = Vec::with_capacity(n);
        let mut wl_rng = Vec::with_capacity(n);
        let mut agent_streams = rng.split("agents");
        let mut wl_streams = rng.split("workloads");
        for (i, config) in configs.into_iter().enumerate() {
            let ix = models
                .iter()
                .position(|m| *m.config() == config)
                .unwrap_or_else(|| {
                    models.push(Arc::new(ServerModel::new(config)));
                    models.len() - 1
                });
            model_ix.push(ix as u32);
            agent_rng.push(agent_streams.split_index(i as u64));
            wl_rng.push(wl_streams.split_index(i as u64));
        }
        let no_burst = workloads::kernel::burst_to_columns(None);
        let mut fleet = Fleet {
            models,
            model_ix,
            agent_rng,
            // Fresh agents are all running (bits past `n` are never read).
            running_bits: vec![u64::MAX; n.div_ceil(64)],
            services,
            // Id order until the first layout build; a fresh process
            // has no noise and no burst.
            wl_rng,
            wl_noise: vec![0.0; n],
            wl_burst_until: vec![no_burst.0; n],
            wl_burst_add: vec![no_burst.1; n],
            traffic: HashMap::new(),
            static_util_caps: [None; ServiceKind::COUNT],
            crash_rate_per_hour: 0.0,
            watchdog_delay: SimDuration::from_secs(30),
            pending_restarts: Vec::new(),
            rng: rng.split("fleet-events"),
            perm: Vec::new(),
            inv: Vec::new(),
            runs: Vec::new(),
            demand_w: Vec::new(),
            limit_w: Vec::new(),
            out_w: Vec::new(),
            not_init_bits: Vec::new(),
            alive_bits: Vec::new(),
            mask_base: Vec::new(),
            util: Vec::new(),
            tau_secs: Rapl::new().tau_secs(),
            // Pre-step, every server's RAPL output is zero, matching a
            // live read.
            power_w: vec![0.0; n],
            // One leaf spanning the fleet until spans are registered.
            leaf_spans: std::iter::once(0..n).collect(),
            span_generation: 0,
            leaf_power_w: Vec::new(),
            pool: None,
            tick_index: 0,
            demand_hold: 1,
            settled_bits: Vec::new(),
            settled_scratch: Vec::new(),
            last_draw_tick: Vec::new(),
            leaf_epoch: Vec::new(),
            agent_epoch: Vec::new(),
            // No limit is programmed on a fresh server.
            capped_count: 0,
            down_count: 0,
        };
        fleet.reset_leaf_state();
        fleet
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// Always false — construction rejects empty fleets.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Sets the traffic pattern for a service.
    pub fn set_traffic(&mut self, kind: ServiceKind, pattern: TrafficPattern) {
        self.traffic.insert(kind, pattern);
    }

    /// Applies a static utilization clamp to every server of a service
    /// (the frequency-limit baseline of §IV-D).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is outside `(0, 1]`.
    pub fn set_static_util_cap(&mut self, kind: ServiceKind, cap: Option<f64>) {
        if let Some(c) = cap {
            assert!(
                c > 0.0 && c <= 1.0,
                "static util cap must be in (0,1], got {c}"
            );
        }
        self.static_util_caps[kind.index()] = cap;
    }

    /// Enables agent crash injection at the given rate (per server-hour).
    pub fn set_crash_rate(&mut self, per_hour: f64) {
        assert!(
            per_hour >= 0.0 && per_hour.is_finite(),
            "invalid crash rate {per_hour}"
        );
        self.crash_rate_per_hour = per_hour;
    }

    /// Attaches a persistent worker pool: [`Fleet::step`] carves the
    /// fleet into as many shards as the pool has workers. The
    /// datacenter shares one pool between fleet physics and leaf
    /// control cycles so both fan-outs reuse the same parked workers.
    pub fn attach_pool(&mut self, pool: Arc<WorkerPool>) {
        self.pool = Some(pool);
    }

    /// Detaches the worker pool; the step runs as one shard on the
    /// caller.
    pub fn detach_pool(&mut self) {
        self.pool = None;
    }

    /// Registers the control plane's per-leaf server spans: the step
    /// maintains per-leaf power partials and carves whole-leaf shards
    /// over them, and the batch arrays are regrouped leaf-locally by
    /// `(generation, service, turbo)`. Also resets the per-leaf
    /// active-set state (everything starts unsettled) and bumps the
    /// span generation, which invalidates anything keyed on the
    /// previous spans' epochs (a restarted epoch could otherwise climb
    /// back to the value a stale entry was keyed on).
    ///
    /// # Panics
    ///
    /// Panics unless the spans ascend and tile `0..len`.
    pub fn set_leaf_spans(&mut self, spans: &[Range<usize>]) {
        let mut next = 0;
        for (l, span) in spans.iter().enumerate() {
            assert!(
                span.start == next && span.end > span.start,
                "leaf span {l} is {span:?}; spans must ascend and tile the fleet from {next}"
            );
            next = span.end;
        }
        assert_eq!(next, self.len(), "leaf spans must cover the fleet");
        self.leaf_spans = spans.to_vec();
        self.span_generation += 1;
        self.reset_leaf_state();
    }

    /// Rebuilds everything derived from `leaf_spans`: the batch layout
    /// and the per-leaf partials, active-set flags and epochs.
    fn reset_leaf_state(&mut self) {
        self.rebuild_layout();
        let leaves = self.leaf_spans.len();
        self.leaf_power_w = self
            .leaf_spans
            .iter()
            .map(|span| self.power_w[span.clone()].iter().sum())
            .collect();
        self.settled_bits = vec![0; leaves.div_ceil(64)];
        self.settled_scratch = vec![false; leaves];
        // Pretend every leaf just redrew: a mid-run re-span must not
        // integrate the whole pre-span history into the next redraw.
        self.last_draw_tick = vec![self.tick_index; leaves];
        self.leaf_epoch = vec![0; leaves];
        self.agent_epoch = vec![0; leaves];
    }

    /// Sets the demand redraw period in ticks.
    ///
    /// `1` (the default) redraws every workload every tick and is
    /// bit-identical to the always-redraw model — active-set skipping
    /// can never engage because every leaf is due every tick. Larger
    /// periods are an opt-in model coarsening: each leaf holds its
    /// demand between redraws (leaf-phased, so `1/hold` of the leaves
    /// redraw per tick) and a redraw integrates the skipped interval by
    /// scaling the workload step `dt` by the elapsed tick count.
    /// Between redraws a fully settled leaf's physics pass is the exact
    /// floating-point identity and is skipped outright.
    ///
    /// # Panics
    ///
    /// Panics if `ticks` is zero.
    pub fn set_demand_hold(&mut self, ticks: u32) {
        assert!(ticks >= 1, "demand hold must be >= 1 tick, got {ticks}");
        self.demand_hold = ticks;
    }

    /// Current demand redraw period (ticks).
    pub fn demand_hold(&self) -> u32 {
        self.demand_hold
    }

    /// Number of leaves currently settled (their next physics pass
    /// would be the exact identity).
    pub fn settled_leaf_count(&self) -> usize {
        self.settled_bits
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Whether leaf `leaf` is settled (bit read of the packed flags).
    fn is_settled(&self, leaf: usize) -> bool {
        get_bit(&self.settled_bits, leaf)
    }

    /// Sets or clears leaf `leaf`'s settled flag.
    fn set_settled(&mut self, leaf: usize, v: bool) {
        put_bit(&mut self.settled_bits, leaf, v);
    }

    /// Unpacks the settled bits into the per-leaf `bool` scratch the
    /// step paths carve per worker. Zero-alloc: the scratch is sized at
    /// span registration.
    fn unpack_settled(&mut self) {
        for (l, s) in self.settled_scratch.iter_mut().enumerate() {
            *s = get_bit(&self.settled_bits, l);
        }
    }

    /// Repacks the step's per-leaf settled results into the bits.
    fn pack_settled(&mut self) {
        for (l, &s) in self.settled_scratch.iter().enumerate() {
            put_bit(&mut self.settled_bits, l, s);
        }
    }

    /// Whether server at position `pos` is alive (packed-mask read).
    fn alive_at(&self, pos: usize) -> bool {
        get_bit(&self.alive_bits, mask_bit(&self.mask_base, pos))
    }

    /// Whether server at position `pos` still awaits its first live
    /// step (packed-mask read).
    fn not_init_at(&self, pos: usize) -> bool {
        get_bit(&self.not_init_bits, mask_bit(&self.mask_base, pos))
    }

    /// Sets or clears the liveness bit of position `pos`.
    fn set_alive_at(&mut self, pos: usize, v: bool) {
        put_bit(&mut self.alive_bits, mask_bit(&self.mask_base, pos), v);
    }

    /// Sets or clears the first-step bit of position `pos`.
    fn set_not_init_at(&mut self, pos: usize, v: bool) {
        put_bit(&mut self.not_init_bits, mask_bit(&self.mask_base, pos), v);
    }

    /// Per-leaf monotone power epochs (see the field docs).
    pub(crate) fn leaf_epochs(&self) -> &[u64] {
        &self.leaf_epoch
    }

    /// The per-leaf server spans (`0..len` until registered).
    pub(crate) fn leaf_spans(&self) -> &[Range<usize>] {
        &self.leaf_spans
    }

    /// Monotone count of span registrations; see the field docs.
    /// Anything keyed on a [`Fleet::leaf_epochs`] entry is only valid
    /// while this matches the generation it was keyed at.
    pub(crate) fn leaf_span_generation(&self) -> u64 {
        self.span_generation
    }

    /// Per-leaf monotone agent versions (see the field docs).
    pub(crate) fn agent_epochs(&self) -> &[u64] {
        &self.agent_epoch
    }

    /// Per-leaf tick index of the last demand redraw.
    pub(crate) fn last_draw_ticks(&self) -> &[u64] {
        &self.last_draw_tick
    }

    /// The maintained per-leaf power partials (watts): `partials[l]`
    /// is the ascending flat fold over leaf `l`'s span.
    pub(crate) fn leaf_power_partials(&self) -> &[f64] {
        &self.leaf_power_w
    }

    /// The leaf owning server `sid` (the spans tile the fleet).
    fn leaf_of(&self, sid: usize) -> usize {
        self.leaf_spans.partition_point(|s| s.end <= sid)
    }

    /// Bumps the agent epoch of the leaf owning server `sid`.
    fn bump_agent_epoch(&mut self, sid: usize) {
        let leaf = self.leaf_of(sid);
        self.agent_epoch[leaf] += 1;
    }

    /// Test hook: forces every leaf back into the active set, making
    /// the next step recompute everything — the skip-free reference the
    /// active-set equivalence tests compare against.
    #[cfg(test)]
    fn clear_settled(&mut self) {
        self.settled_bits.fill(0);
    }

    /// (Re)builds the batch layout: the leaf-local stable permutation,
    /// its inverse, the equal-key runs, and the position-ordered state
    /// arrays. Existing state (including each server's workload process
    /// and RNG stream) is carried through the re-ordering untouched.
    fn rebuild_layout(&mut self) {
        let n = self.len();
        // Gather current state back to id order under the old perm. At
        // construction (`perm` empty) the workload columns are already
        // in id order and the physics state takes its pre-step defaults.
        let mut demand_id = vec![0.0; n];
        let mut limit_id = vec![f64::INFINITY; n];
        let mut out_id = vec![0.0; n];
        let mut ni_id = vec![true; n];
        let mut alive_id = vec![true; n];
        let mut util_id = vec![0.0; n];
        if self.perm.is_empty() {
            for (id, demand) in demand_id.iter_mut().enumerate() {
                // Pre-step demand power is the idle draw (demand
                // utilization 0), matching a live `demand_power` read.
                *demand = self.models[self.model_ix[id] as usize].lut().idle_w();
            }
        } else {
            for (pos, &id) in self.perm.iter().enumerate() {
                let id = id as usize;
                demand_id[id] = self.demand_w[pos];
                limit_id[id] = self.limit_w[pos];
                out_id[id] = self.out_w[pos];
                // `mask_base` still describes the old packing here: the
                // mask words are rebuilt only after the new permutation
                // is in place, so this gather decodes the old layout.
                let bit = mask_bit(&self.mask_base, pos);
                ni_id[id] = get_bit(&self.not_init_bits, bit);
                alive_id[id] = get_bit(&self.alive_bits, bit);
                util_id[id] = self.util[pos];
            }
        }
        // The new permutation: identity, then a stable sort of each
        // leaf span by run key (leaf-local, so a whole-leaf shard's id
        // range equals its position range).
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for span in &self.leaf_spans {
            perm[span.clone()]
                .sort_by_key(|&id| run_key(self.config_of(id), self.services[id as usize]));
        }
        let mut inv = vec![0u32; n];
        for (pos, &id) in perm.iter().enumerate() {
            inv[id as usize] = pos as u32;
        }
        // The workload columns move straight from old position to new.
        let old_inv = std::mem::replace(&mut self.inv, inv);
        let old_pos = |id: u32| {
            old_inv
                .get(id as usize)
                .map_or(id as usize, |&p| p as usize)
        };
        self.wl_rng = regroup(&self.wl_rng, &perm, old_pos);
        self.wl_noise = regroup(&self.wl_noise, &perm, old_pos);
        self.wl_burst_until = regroup(&self.wl_burst_until, &perm, old_pos);
        self.wl_burst_add = regroup(&self.wl_burst_add, &perm, old_pos);
        self.demand_w = perm.iter().map(|&id| demand_id[id as usize]).collect();
        self.limit_w = perm.iter().map(|&id| limit_id[id as usize]).collect();
        self.out_w = perm.iter().map(|&id| out_id[id as usize]).collect();
        self.util = perm.iter().map(|&id| util_id[id as usize]).collect();
        self.perm = perm;
        // Repack the bit masks under the new permutation and region
        // directory (one word-aligned region per leaf).
        self.rebuild_mask_layout();
        for pos in 0..n {
            let id = self.perm[pos] as usize;
            self.set_not_init_at(pos, ni_id[id]);
            self.set_alive_at(pos, alive_id[id]);
        }
        self.rebuild_runs();
    }

    /// Rebuilds the mask region directory and zeroes the bit words for
    /// the current leaf spans: one region per leaf, each starting on a
    /// fresh word, plus a `(total words, server count)` sentinel. Word
    /// alignment per leaf is what lets whole-leaf shards carve the
    /// packed words with safe `split_at_mut`.
    fn rebuild_mask_layout(&mut self) {
        let n = self.len();
        self.mask_base.clear();
        let mut w = 0usize;
        for span in &self.leaf_spans {
            self.mask_base.push((w, span.start));
            w += span.len().div_ceil(64);
        }
        self.mask_base.push((w, n));
        self.alive_bits.clear();
        self.alive_bits.resize(w, 0);
        self.not_init_bits.clear();
        self.not_init_bits.resize(w, 0);
    }

    /// Scans the position order into maximal equal-key runs with their
    /// hoisted demand-loop constants.
    fn rebuild_runs(&mut self) {
        let n = self.len();
        self.runs.clear();
        let key_at = |pos: usize| {
            let id = self.perm[pos] as usize;
            let config = self.models[self.model_ix[id] as usize].config();
            run_key(config, self.services[id])
        };
        let mut start = 0;
        for pos in 1..=n {
            if pos < n && key_at(pos) == key_at(start) {
                continue;
            }
            let id = self.perm[start] as usize;
            let lut = self.model_of(id).lut().clone();
            let turbo = self.model_of(id).config().turbo;
            self.runs.push(Run {
                range: start..pos,
                idle_w: lut.idle_w(),
                lut,
                turbo_pf: turbo.map_or(1.0, |t| t.power_factor),
                turbo: turbo.is_some(),
                svc: self.services[id].index() as u8,
            });
            start = pos;
        }
    }

    /// The service running on server `sid`.
    pub fn service_of(&self, sid: u32) -> ServiceKind {
        self.services[sid as usize]
    }

    /// The shared hardware model of server `sid`.
    fn model_of(&self, sid: usize) -> &ServerModel {
        &self.models[self.model_ix[sid] as usize]
    }

    /// The static configuration of server `sid`.
    pub fn config_of(&self, sid: u32) -> &ServerConfig {
        self.model_of(sid as usize).config()
    }

    /// The RAPL limit currently programmed on server `sid`, if any.
    pub fn cap_of(&self, sid: u32) -> Option<Power> {
        let limit = self.limit_w[self.inv[sid as usize] as usize];
        limit.is_finite().then(|| Power::from_watts(limit))
    }

    /// Whether server `sid`'s agent process is up. A crashed agent
    /// cannot answer RPCs (the dispatch surfaces this as
    /// [`dynrpc::RpcError::AgentDown`]).
    pub fn agent_running(&self, sid: u32) -> bool {
        get_bit(&self.running_bits, sid as usize)
    }

    /// Serves one request at server `sid`'s agent, outside a control
    /// dispatch (experiment and test hook) — through the same view and
    /// bookkeeping the dispatch uses, so every cached aggregate stays
    /// exact: a programmed cap is what the next [`Fleet::step`] settles
    /// toward and what [`Fleet::stats`] counts immediately. A crashed
    /// agent answers `CapAck { ok: false }`.
    pub fn agent_rpc(&mut self, sid: u32, req: Request) -> Response {
        let leaf = self.leaf_of(sid as usize);
        let mut columns = self.agent_columns();
        let mut agents = columns.leaf(leaf);
        let resp = agents.agent(sid).handle(req);
        let (changed, delta) = agents.finish();
        self.note_cap_writes(leaf, changed, delta);
        resp
    }

    /// Applies the side effects the control dispatch deferred past the
    /// join, per due leaf: unsettling when a limit changed bits (the
    /// settle target moved, so the next pass is no longer known to be
    /// the identity) and the capped-server tally, folded in ascending
    /// due order. The leaf epoch is *not* bumped: a limit change
    /// affects drawn power only at the next physics step, which bumps
    /// the epoch itself if anything moves.
    pub(crate) fn finish_fused_control(&mut self, due: &[usize], changed: &[bool], deltas: &[i64]) {
        for &leaf in due {
            self.note_cap_writes(leaf, changed[leaf], deltas[leaf]);
        }
    }

    /// Folds what one leaf's [`LeafAgents`] view reported into the
    /// shared settled flags and capped tally.
    fn note_cap_writes(&mut self, leaf: usize, changed: bool, delta: i64) {
        if changed {
            self.set_settled(leaf, false);
        }
        self.capped_count = (self.capped_count as i64 + delta) as usize;
    }

    /// Powers a server on or off (breaker blackout path), keeping the
    /// cached power arrays exact — a dead server reads zero watts
    /// immediately, a revived one its retained actuator output.
    pub fn set_server_alive(&mut self, sid: u32, alive: bool) {
        let i = sid as usize;
        // A pull to this server now reads differently.
        self.bump_agent_epoch(i);
        let pos = self.inv[i] as usize;
        self.set_alive_at(pos, alive);
        self.power_w[i] = if alive { self.out_w[pos] } else { 0.0 };
        let leaf = self.leaf_of(i);
        self.leaf_power_w[leaf] = self.power_w[self.leaf_spans[leaf].clone()].iter().sum();
        // The liveness mask is a kernel input and drawn power changed
        // right now: unsettle and version.
        self.set_settled(leaf, false);
        self.leaf_epoch[leaf] += 1;
    }

    /// The true (physics) power of server `sid` right now.
    pub fn power_of(&self, sid: u32) -> Power {
        Power::from_watts(self.power_w[sid as usize])
    }

    /// Sum of true power over `sids`, folded flat in the order given
    /// (ascending ids everywhere in this crate).
    pub fn power_sum(&self, sids: impl IntoIterator<Item = u32>) -> Power {
        Power::from_watts(sids.into_iter().map(|s| self.power_w[s as usize]).sum())
    }

    /// The maintained power partial of leaf `leaf`: the ascending flat
    /// fold over the leaf's span — the exact sum [`Fleet::power_sum`]
    /// would compute over its ids.
    pub(crate) fn leaf_power(&self, leaf: usize) -> Power {
        Power::from_watts(self.leaf_power_w[leaf])
    }

    /// Sum of true power over `sids`, restricted to one service
    /// (Figure 15's per-service breakdown).
    pub fn power_sum_of_service(
        &self,
        sids: impl IntoIterator<Item = u32>,
        kind: ServiceKind,
    ) -> Power {
        Power::from_watts(
            sids.into_iter()
                .filter(|&s| self.services[s as usize] == kind)
                .map(|s| self.power_w[s as usize])
                .sum(),
        )
    }

    /// The post-clamp demand utilization server `sid` was stepped with
    /// most recently.
    pub fn utilization_of(&self, sid: u32) -> f64 {
        self.util[self.inv[sid as usize] as usize]
    }

    /// The utilization level server `sid` actually achieves under its
    /// current cap — [`ServerModel::achieved_utilization_at`] its drawn
    /// power; a dead server achieves nothing.
    pub fn achieved_utilization_of(&self, sid: u32) -> f64 {
        let i = sid as usize;
        if !self.alive_at(self.inv[i] as usize) {
            return 0.0;
        }
        self.model_of(i)
            .achieved_utilization_at(Power::from_watts(self.power_w[i]))
    }

    /// Advances every server by one tick: samples traffic, draws demand
    /// from each workload process, applies static clamps, steps server
    /// physics tile by tile, and processes agent crash/restart events.
    ///
    /// The fleet is carved into contiguous whole-leaf shards, one per
    /// worker of the attached pool ([`Fleet::attach_pool`]; one shard
    /// without a pool, run inline on the caller). Per-server workload
    /// processes own independent RNG streams and every fold is a fixed
    /// ascending one, so the result is bit-identical at any width — this
    /// mirrors the production deployment where one consolidated binary
    /// runs ~100 controller/agent threads (§IV). A warm step allocates
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics.
    pub fn step(&mut self, now: SimTime, dt: SimDuration) {
        self.unpack_settled();
        // Built inline (not via a &self helper) so `ctx` holds
        // field-precise borrows of `runs`/`perm`, disjoint from the
        // mutable state arrays below.
        let ctx = StepCtx {
            runs: &self.runs,
            perm: &self.perm,
            mults: self.traffic_multipliers(now),
            caps: self.static_util_caps,
            ou: ou_coefficients(dt),
            alpha: kernel::settle_alpha(dt.as_secs_f64(), self.tau_secs),
            now,
            dt,
            tick: self.tick_index,
            hold: self.demand_hold as u64,
        };
        let pool = self.pool.as_deref();
        let leaves = self.leaf_spans.len();
        let (per, shards) = shard::chunking(pool, leaves);

        let leaf_spans = &self.leaf_spans[..];
        let mask_base = &self.mask_base[..];
        let mut limit_w = &self.limit_w[..];
        let mut alive_bits = &self.alive_bits[..];
        let mut wl_rng = &mut self.wl_rng[..];
        let mut wl_noise = &mut self.wl_noise[..];
        let mut wl_burst_until = &mut self.wl_burst_until[..];
        let mut wl_burst_add = &mut self.wl_burst_add[..];
        let mut util = &mut self.util[..];
        let mut demand_w = &mut self.demand_w[..];
        let mut not_init_bits = &mut self.not_init_bits[..];
        let mut out_w = &mut self.out_w[..];
        let mut power_w = &mut self.power_w[..];
        let mut leaf_power_w = &mut self.leaf_power_w[..];
        let mut settled = &mut self.settled_scratch[..];
        let mut last_draw = &mut self.last_draw_tick[..];
        let mut leaf_epoch = &mut self.leaf_epoch[..];
        let mut lo = 0usize;
        // Shard `lo..hi` of the leaves: its servers (ids and positions
        // coincide on whole leaves), its mask words (every leaf's
        // region starts on a fresh word) and its per-leaf state.
        let carve = || {
            let hi = (lo + per).min(leaves);
            let base = leaf_spans[lo].start;
            let servers = leaf_spans[hi - 1].end - base;
            let words = mask_base[hi].0 - mask_base[lo].0;
            let job = StepJob {
                wl_rng: front_mut(&mut wl_rng, servers),
                wl_noise: front_mut(&mut wl_noise, servers),
                wl_burst_until: front_mut(&mut wl_burst_until, servers),
                wl_burst_add: front_mut(&mut wl_burst_add, servers),
                util: front_mut(&mut util, servers),
                demand_w: front_mut(&mut demand_w, servers),
                limit_w: front(&mut limit_w, servers),
                alive_bits: front(&mut alive_bits, words),
                not_init_bits: front_mut(&mut not_init_bits, words),
                word_base: &mask_base[lo..=hi],
                out_w: front_mut(&mut out_w, servers),
                power_w: front_mut(&mut power_w, servers),
                leaf_power_w: front_mut(&mut leaf_power_w, hi - lo),
                settled: front_mut(&mut settled, hi - lo),
                last_draw: front_mut(&mut last_draw, hi - lo),
                leaf_epoch: front_mut(&mut leaf_epoch, hi - lo),
                spans: &leaf_spans[lo..hi],
                base,
                leaf_base: lo,
            };
            lo = hi;
            job
        };
        shard::run_sharded(pool, shards, carve, |job| step_leaves(&ctx, job));
        self.pack_settled();
        self.tick_index += 1;
        self.process_failures(now, dt);
    }

    /// Per-service traffic multipliers at `now`, indexed by
    /// [`ServiceKind::index`]. A fixed array instead of a per-tick
    /// `HashMap`: the fleet step allocates nothing.
    fn traffic_multipliers(&self, now: SimTime) -> [f64; ServiceKind::COUNT] {
        let mut mults = [1.0; ServiceKind::COUNT];
        for kind in ServiceKind::all() {
            if let Some(pattern) = self.traffic.get(&kind) {
                mults[kind.index()] = pattern.multiplier(now);
            }
        }
        mults
    }

    /// Failure injection: crashes are per-server Poisson events; the
    /// watchdog restarts agents after a fixed delay (§III-E).
    fn process_failures(&mut self, now: SimTime, dt: SimDuration) {
        if self.crash_rate_per_hour > 0.0 {
            let p = self.crash_rate_per_hour * dt.as_secs_f64() / 3600.0;
            for i in 0..self.len() {
                if get_bit(&self.running_bits, i) && self.rng.chance(p) {
                    put_bit(&mut self.running_bits, i, false);
                    self.down_count += 1;
                    self.bump_agent_epoch(i);
                    self.pending_restarts
                        .push((i as u32, now + self.watchdog_delay));
                }
            }
        }
        let due: Vec<u32> = self
            .pending_restarts
            .iter()
            .filter(|&&(_, t)| t <= now)
            .map(|&(s, _)| s)
            .collect();
        self.pending_restarts.retain(|&(_, t)| t > now);
        for s in due {
            // A restarted agent finds the host's RAPL limit as it left
            // it — the limit lives in hardware, not in the process.
            if !get_bit(&self.running_bits, s as usize) {
                put_bit(&mut self.running_bits, s as usize, true);
                self.down_count -= 1;
            }
            self.bump_agent_epoch(s as usize);
        }
    }

    /// Mean performance factor over `sids` (1.0 = turbo-off uncapped
    /// baseline): [`ServerModel::performance_factor`] of each live
    /// server's demanded and drawn watts, zero for a dead one; NaN over
    /// no servers.
    pub fn mean_performance<I>(&self, sids: I) -> f64
    where
        I: IntoIterator<Item = u32>,
        I::IntoIter: ExactSizeIterator,
    {
        let sids = sids.into_iter();
        let count = sids.len();
        let sum: f64 = sids
            .map(|s| {
                let i = s as usize;
                let pos = self.inv[i] as usize;
                if !self.alive_at(pos) {
                    return 0.0;
                }
                self.model_of(i).performance_factor(
                    Power::from_watts(self.demand_w[pos]),
                    Power::from_watts(self.power_w[i]),
                )
            })
            .sum();
        sum / count as f64
    }

    /// Instantaneous fleet statistics: O(1) in the cap/down tallies
    /// (maintained at their mutation sites) plus the flat ascending
    /// fold over the per-server watts.
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            capped_servers: self.capped_count,
            agents_down: self.down_count,
            total_power: Power::from_watts(self.power_w.iter().sum()),
        }
    }

    /// The worst-case per-tick DRAM roofline — see [`TickTraffic`]. Every
    /// term is derived from the live allocation lengths of the arrays
    /// the tick actually streams.
    pub fn bytes_per_tick(&self) -> TickTraffic {
        const F64: u64 = 8;
        const U32: u64 = 4;
        let mask_bytes =
            (self.not_init_bits.len() + self.alive_bits.len() + self.settled_bits.len()) as u64 * 8;
        // The settle stride: demand/limit gathered, out/util read and
        // rewritten, the packed masks tested, and the result scattered
        // into id-ordered `power_w` through `perm`.
        let settle = (self.demand_w.len() + self.limit_w.len()) as u64 * F64
            + (self.out_w.len() + self.util.len()) as u64 * 2 * F64
            + self.perm.len() as u64 * U32
            + self.power_w.len() as u64 * F64
            + mask_bytes;
        // Per-leaf partial sums, written once per step.
        let partials = self.leaf_power_w.len() as u64 * F64;
        // One pass over the hot set (telemetry partials ride the
        // tile) plus the breaker pass reading the partials back.
        TickTraffic {
            fused: settle + partials + self.leaf_spans.len() as u64 * F64,
        }
    }

    /// Iterates `(server_id, service)` pairs.
    pub fn iter_services(&self) -> impl Iterator<Item = (u32, ServiceKind)> + '_ {
        self.services
            .iter()
            .enumerate()
            .map(|(i, &k)| (i as u32, k))
    }
}

/// Reads bit `i` of a flat packed mask.
#[inline]
fn get_bit(words: &[u64], i: usize) -> bool {
    (words[i / 64] >> (i % 64)) & 1 == 1
}

/// Sets or clears bit `i` of a flat packed mask.
#[inline]
fn put_bit(words: &mut [u64], i: usize, v: bool) {
    let bit = 1u64 << (i % 64);
    if v {
        words[i / 64] |= bit;
    } else {
        words[i / 64] &= !bit;
    }
}

/// Re-orders a position-ordered column for a new permutation: element
/// `pos` of the result is the old column's entry for server
/// `perm[pos]`, found through `old_pos`.
fn regroup<T: Clone>(column: &[T], perm: &[u32], old_pos: impl Fn(u32) -> usize) -> Vec<T> {
    perm.iter().map(|&id| column[old_pos(id)].clone()).collect()
}

/// Resolves position `pos` to its flat bit index under a mask region
/// directory (see [`Fleet::mask_base`]): binary search for the owning
/// region, then offset from its first word.
#[inline]
fn mask_bit(mask_base: &[(usize, usize)], pos: usize) -> usize {
    let r = mask_base.partition_point(|&(_, p0)| p0 <= pos) - 1;
    let (w0, p0) = mask_base[r];
    w0 * 64 + (pos - p0)
}

/// The batching key: servers with equal keys share every hoisted
/// constant of the demand loop. Stable-sorting a leaf span by this key
/// groups its servers into maximal runs.
fn run_key(config: &ServerConfig, service: ServiceKind) -> (u8, u8, u8, u64, u64) {
    let turbo = config.turbo;
    (
        config.generation.index() as u8,
        service.index() as u8,
        turbo.is_some() as u8,
        turbo.map_or(0, |t| t.power_factor.to_bits()),
        turbo.map_or(0, |t| t.perf_factor.to_bits()),
    )
}

/// Per-service OU coefficients for this tick length, hoisting the
/// per-step `exp`/`sqrt` out of the inner demand loop.
fn ou_coefficients(dt: SimDuration) -> [OuCoeffs; ServiceKind::COUNT] {
    let mut out = [OuCoeffs {
        decay: 0.0,
        innovation: 0.0,
    }; ServiceKind::COUNT];
    for kind in ServiceKind::all() {
        out[kind.index()] = OuCoeffs::for_kind(kind, dt);
    }
    out
}

/// Per-tick constants of the physics step, shared by every shard.
struct StepCtx<'a> {
    /// Maximal equal-key position ranges with hoisted loop constants.
    runs: &'a [Run],
    /// Position → server id.
    perm: &'a [u32],
    /// Per-service traffic multipliers at `now`.
    mults: [f64; ServiceKind::COUNT],
    /// Per-service static utilization clamps.
    caps: [Option<f64>; ServiceKind::COUNT],
    /// Per-service OU coefficients for a single-tick step.
    ou: [OuCoeffs; ServiceKind::COUNT],
    /// Settle coefficient for a single-tick step.
    alpha: f64,
    now: SimTime,
    dt: SimDuration,
    /// Tick index of this step; with `hold`, drives the leaf-phased
    /// redraw schedule (a pure function of `(tick, leaf index, hold)`,
    /// so the schedule is identical at any worker count).
    tick: u64,
    /// Demand redraw period in ticks (1 = redraw every tick).
    hold: u64,
}

/// One shard of [`Fleet::step`]: a contiguous run of whole leaves and
/// the disjoint views of the fleet arrays that cover it. All slices are
/// local to the shard — element 0 is server id / position `base` (the
/// two coincide on whole leaves), mask word 0 is the first word of the
/// shard's first leaf.
struct StepJob<'a> {
    /// The workload columns (see the [`Fleet`] field docs).
    wl_rng: &'a mut [SimRng],
    wl_noise: &'a mut [f64],
    wl_burst_until: &'a mut [SimTime],
    wl_burst_add: &'a mut [f64],
    util: &'a mut [f64],
    demand_w: &'a mut [f64],
    limit_w: &'a [f64],
    alive_bits: &'a [u64],
    not_init_bits: &'a mut [u64],
    /// Global mask directory entries for the shard's leaves
    /// (`spans.len() + 1` of them, the last the next shard's first
    /// region / the sentinel), from which each leaf's local word offset
    /// is derived.
    word_base: &'a [(usize, usize)],
    out_w: &'a mut [f64],
    power_w: &'a mut [f64],
    /// Per-leaf outputs and active-set state, one element per leaf.
    leaf_power_w: &'a mut [f64],
    settled: &'a mut [bool],
    last_draw: &'a mut [u64],
    leaf_epoch: &'a mut [u64],
    /// The shard's leaves as global server-id ranges.
    spans: &'a [Range<usize>],
    base: usize,
    /// Global index of `spans[0]`.
    leaf_base: usize,
}

/// Draws fresh demand for the shard-local subrange `a..b`: per run, one
/// [`draw_batch`] over the workload columns with everything uniform
/// across the run — the service's parameters, the traffic target, the
/// burst probability, the OU coefficients — hoisted into one
/// [`DrawStep`], the static clamp into `util`, then the batched LUT
/// evaluation and (per turbo run) the batched turbo premium: the vector
/// passes feeding [`kernel::step_batch`], each bit-identical to its
/// scalar form.
///
/// `elapsed` is the tick count since this span's last redraw; held
/// redraws integrate the skipped interval by scaling the workload step
/// to `dt * elapsed` (OU coefficients recomputed for the longer step).
/// `elapsed == 1` reuses the hoisted per-tick coefficients and is
/// bit-identical to the always-redraw demand pass.
fn demand_pass(ctx: &StepCtx, job: &mut StepJob, a: usize, b: usize, elapsed: u64) {
    let dt_eff = ctx.dt * elapsed;
    let base = job.base;
    let (glo, ghi) = (base + a, base + b);
    let first = ctx.runs.partition_point(|r| r.range.end <= glo);
    for run in &ctx.runs[first..] {
        if run.range.start >= ghi {
            break;
        }
        let ra = run.range.start.max(glo) - base;
        let rb = run.range.end.min(ghi) - base;
        let k = run.svc as usize;
        // The fleet only builds processes with their service's
        // calibrated parameters (restore rejects anything else), so one
        // `params()` per run stands for every element's.
        let params = ServiceKind::all()[k].params();
        let oc = if elapsed == 1 {
            ctx.ou[k]
        } else {
            OuCoeffs::for_params(&params, dt_eff)
        };
        let step = DrawStep::new(&params, ctx.now, ctx.mults[k], dt_eff, oc);
        draw_batch(
            &step,
            &mut job.wl_rng[ra..rb],
            &mut job.wl_noise[ra..rb],
            &mut job.wl_burst_until[ra..rb],
            &mut job.wl_burst_add[ra..rb],
            &mut job.util[ra..rb],
        );
        if let Some(cap) = ctx.caps[k] {
            for u in &mut job.util[ra..rb] {
                *u = u.min(cap);
            }
        }
        run.lut
            .power_batch_w(&job.util[ra..rb], &mut job.demand_w[ra..rb]);
        if run.turbo {
            kernel::turbo_demand_batch(&mut job.demand_w[ra..rb], run.idle_w, run.turbo_pf);
        }
    }
}

/// Scatters drawn power (`out_w * alive`) for the local subrange `a..b`
/// back to id order, reading liveness from the packed words.
/// `alive_words[0]` must hold element `a`'s bit at bit 0 (tile starts
/// are word-aligned). `(bit as f64)` is exactly `0.0`/`1.0`, the same
/// multiplicand the f64 mask carried — bit-identical. Leaf alignment
/// guarantees `perm` maps the range onto itself, so the scatter stays
/// within the local `power_w` view.
fn scatter_power(
    perm: &[u32],
    base: usize,
    a: usize,
    b: usize,
    alive_words: &[u64],
    out_w: &[f64],
    power_w: &mut [f64],
) {
    for j in a..b {
        let k = j - a;
        let alive = ((alive_words[k / 64] >> (k % 64)) & 1) as f64;
        power_w[perm[base + j] as usize - base] = out_w[j] * alive;
    }
}

/// Advances one shard of whole leaves, the active-set hot path. Per
/// leaf:
///
/// 1. **Skip check** — a leaf that is settled (its last pass was a
///    fixed point) and not due for a redraw is skipped outright: its
///    next pass is provably the exact floating-point identity, so its
///    arrays, drawn power, and partial already hold the step's result.
/// 2. **Tiles** — the leaf is walked in [`FUSE_TILE`]-sized,
///    word-aligned tiles; per tile the demand redraw (when due under
///    the leaf-phased hold schedule, with the elapsed interval folded
///    into `dt`), the packed-mask settle kernel, and the power scatter
///    run back-to-back while the tile is cache-hot, instead of three
///    leaf-wide array passes re-streaming from DRAM. Tiling is
///    unobservable: every pass is elementwise, so the bits match
///    whole-leaf passes exactly.
/// 3. **Publish** — after all tiles, the leaf partial is re-folded in
///    id order over the whole span (same ascending fold as always —
///    fusing it into the permuted scatter would change association),
///    the leaf's settled flag becomes the AND of its tiles' fixed-point
///    reports, and the leaf epoch is bumped iff any tile changed state
///    bits.
fn step_leaves(ctx: &StepCtx, job: &mut StepJob) {
    let base = job.base;
    let w_org = job.word_base[0].0;
    let spans = job.spans;
    for (l, span) in spans.iter().enumerate() {
        let due = ctx.hold <= 1 || ctx.tick % ctx.hold == (job.leaf_base + l) as u64 % ctx.hold;
        if job.settled[l] && !due {
            continue;
        }
        let (a, b) = (span.start - base, span.end - base);
        let elapsed = if due {
            let e = (ctx.tick - job.last_draw[l]).max(1);
            job.last_draw[l] = ctx.tick;
            e
        } else {
            0
        };
        let lw = job.word_base[l].0 - w_org;
        let mut fixed = true;
        let mut t0 = a;
        while t0 < b {
            let t1 = (t0 + FUSE_TILE).min(b);
            if due {
                demand_pass(ctx, job, t0, t1, elapsed);
            }
            let (wa, wb) = (lw + (t0 - a) / 64, lw + (t1 - a).div_ceil(64));
            fixed &= kernel::step_batch_settled_bits(
                &job.demand_w[t0..t1],
                &job.limit_w[t0..t1],
                &job.alive_bits[wa..wb],
                &mut job.not_init_bits[wa..wb],
                &mut job.out_w[t0..t1],
                ctx.alpha,
            );
            scatter_power(
                ctx.perm,
                base,
                t0,
                t1,
                &job.alive_bits[wa..wb],
                job.out_w,
                job.power_w,
            );
            t0 = t1;
        }
        job.leaf_power_w[l] = job.power_w[a..b].iter().sum();
        job.settled[l] = fixed;
        if !fixed {
            job.leaf_epoch[l] += 1;
        }
    }
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("servers", &self.len())
            .field("crash_rate_per_hour", &self.crash_rate_per_hour)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serverpower::ServerGeneration;

    fn small_fleet(n: usize, kind: ServiceKind) -> Fleet {
        let configs = vec![ServerConfig::new(ServerGeneration::Haswell2015); n];
        let services = vec![kind; n];
        Fleet::new(configs, services, SimRng::seed_from(11))
    }

    fn run(fleet: &mut Fleet, secs: u64) -> SimTime {
        let mut t = SimTime::ZERO;
        for _ in 0..secs {
            fleet.step(t, SimDuration::from_secs(1));
            t += SimDuration::from_secs(1);
        }
        t
    }

    #[test]
    fn servers_draw_power_after_stepping() {
        let mut fleet = small_fleet(8, ServiceKind::Web);
        run(&mut fleet, 10);
        for i in 0..8 {
            assert!(fleet.power_of(i).as_watts() > 90.0, "server {i} idle");
        }
        let total = fleet.stats().total_power;
        assert!((total - fleet.power_sum(0..8)).abs().as_watts() < 1e-9);
    }

    #[test]
    fn per_service_power_split_sums_to_total() {
        let configs = vec![ServerConfig::new(ServerGeneration::Haswell2015); 6];
        let services = vec![
            ServiceKind::Web,
            ServiceKind::Web,
            ServiceKind::Cache,
            ServiceKind::Cache,
            ServiceKind::NewsFeed,
            ServiceKind::NewsFeed,
        ];
        let mut fleet = Fleet::new(configs, services, SimRng::seed_from(3));
        run(&mut fleet, 10);
        let split: Power = [ServiceKind::Web, ServiceKind::Cache, ServiceKind::NewsFeed]
            .iter()
            .map(|&k| fleet.power_sum_of_service(0..6, k))
            .sum();
        assert!((split - fleet.power_sum(0..6)).abs().as_watts() < 1e-9);
    }

    #[test]
    fn static_util_cap_lowers_power() {
        let mut capped = small_fleet(10, ServiceKind::Hadoop);
        capped.set_static_util_cap(ServiceKind::Hadoop, Some(0.3));
        run(&mut capped, 30);
        let mut free = small_fleet(10, ServiceKind::Hadoop);
        run(&mut free, 30);
        assert!(
            capped.stats().total_power < free.stats().total_power * 0.85,
            "clamp had no effect: {} vs {}",
            capped.stats().total_power,
            free.stats().total_power
        );
    }

    #[test]
    fn traffic_pattern_modulates_demand() {
        let mut fleet = small_fleet(10, ServiceKind::Web);
        fleet.set_traffic(ServiceKind::Web, TrafficPattern::flat(0.4));
        run(&mut fleet, 30);
        let low = fleet.stats().total_power;
        let mut busy = small_fleet(10, ServiceKind::Web);
        busy.set_traffic(ServiceKind::Web, TrafficPattern::flat(1.3));
        run(&mut busy, 30);
        assert!(busy.stats().total_power > low * 1.1);
    }

    #[test]
    fn crashes_and_watchdog_restarts() {
        let mut fleet = small_fleet(50, ServiceKind::Web);
        fleet.set_crash_rate(3600.0); // ~1 per server-second: crash storm
        let mut t = SimTime::ZERO;
        for _ in 0..5 {
            fleet.step(t, SimDuration::from_secs(1));
            t += SimDuration::from_secs(1);
        }
        assert!(fleet.stats().agents_down > 0, "no crashes observed");
        // Stop crashing; watchdog (30 s) brings everyone back.
        fleet.set_crash_rate(0.0);
        for _ in 0..40 {
            fleet.step(t, SimDuration::from_secs(1));
            t += SimDuration::from_secs(1);
        }
        assert_eq!(
            fleet.stats().agents_down,
            0,
            "watchdog failed to restart agents"
        );
    }

    #[test]
    fn capped_server_count_tracks_rapl() {
        let mut fleet = small_fleet(4, ServiceKind::Web);
        run(&mut fleet, 5);
        assert_eq!(fleet.stats().capped_servers, 0);
        let ack = fleet.agent_rpc(2, Request::SetCap(Power::from_watts(150.0)));
        assert_eq!(ack, Response::CapAck { ok: true });
        assert_eq!(fleet.stats().capped_servers, 1);
        assert_eq!(fleet.cap_of(2), Some(Power::from_watts(150.0)));
        assert_eq!(fleet.cap_of(1), None);
    }

    fn mixed_fleet(seed: u64) -> Fleet {
        let configs = vec![ServerConfig::new(ServerGeneration::Haswell2015); 200];
        let services: Vec<ServiceKind> = (0..200).map(|i| ServiceKind::all()[i % 6]).collect();
        Fleet::new(configs, services, SimRng::seed_from(seed))
    }

    /// Programs `limit` on every server in `ids` the way a controller
    /// cycle would: one `SetCap` RPC each.
    fn cap_servers(fleet: &mut Fleet, ids: Range<u32>, limit: Power) {
        for id in ids {
            fleet.agent_rpc(id, Request::SetCap(limit));
        }
    }

    #[test]
    fn step_is_bit_identical_at_every_width() {
        // Eight 25-server leaves under a demand hold, so the active set
        // engages: one inline shard vs 2 and 4 pool shards (5 workers
        // over 8 leaves round up to 2 leaves per shard).
        let build = |workers: usize| {
            let mut fleet = mixed_fleet(91);
            let spans: Vec<Range<usize>> = (0..8).map(|l| l * 25..(l + 1) * 25).collect();
            fleet.set_leaf_spans(&spans);
            fleet.set_demand_hold(30);
            if workers > 1 {
                fleet.attach_pool(Arc::new(WorkerPool::new(workers)));
            }
            fleet
        };
        let mut one = build(1);
        let mut two = build(2);
        let mut five = build(5);
        let mut t = SimTime::ZERO;
        for step in 0..150 {
            for f in [&mut one, &mut two, &mut five] {
                if step == 60 {
                    f.set_server_alive(30, false);
                    cap_servers(f, 100..125, Power::from_watts(140.0));
                }
                f.step(t, SimDuration::from_secs(1));
            }
            t += SimDuration::from_secs(1);
        }
        for wide in [&two, &five] {
            for i in 0..200 {
                assert_eq!(
                    one.power_of(i).as_watts().to_bits(),
                    wide.power_of(i).as_watts().to_bits(),
                    "server {i} power"
                );
                assert_eq!(one.utilization_of(i), wide.utilization_of(i), "server {i}");
            }
            assert_eq!(one.leaf_power_w, wide.leaf_power_w);
            assert_eq!(one.leaf_epoch, wide.leaf_epoch);
            assert_eq!(one.settled_bits, wide.settled_bits);
            assert_eq!(one.stats(), wide.stats());
        }
    }

    #[test]
    fn pooled_step_with_leaf_spans_maintains_partials() {
        let mut fleet = mixed_fleet(79);
        let spans: Vec<Range<usize>> = (0..4).map(|l| l * 50..(l + 1) * 50).collect();
        fleet.set_leaf_spans(&spans);
        fleet.attach_pool(Arc::new(WorkerPool::new(3)));
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            fleet.step(t, SimDuration::from_secs(1));
            t += SimDuration::from_secs(1);
        }
        for (l, span) in spans.iter().enumerate() {
            assert_eq!(
                fleet.leaf_power(l).as_watts(),
                fleet
                    .power_sum(span.start as u32..span.end as u32)
                    .as_watts(),
                "leaf {l} partial drifted from its span sum"
            );
        }
    }

    #[test]
    fn batched_permutation_is_observationally_invisible() {
        // Servers are regrouped by (generation, service, turbo) within
        // each leaf span. Per-server RNG streams make the evaluation
        // order unobservable: every per-id result must be bit-identical
        // whether the grouping runs over four leaves or over the
        // fleet-wide default span.
        let mut plain = mixed_fleet(80);
        let mut grouped = mixed_fleet(80);
        let spans: Vec<Range<usize>> = (0..4).map(|l| l * 50..(l + 1) * 50).collect();
        grouped.set_leaf_spans(&spans);
        let mut t = SimTime::ZERO;
        for _ in 0..25 {
            plain.step(t, SimDuration::from_secs(1));
            grouped.step(t, SimDuration::from_secs(1));
            t += SimDuration::from_secs(1);
        }
        for i in 0..200 {
            assert_eq!(
                plain.power_of(i).as_watts(),
                grouped.power_of(i).as_watts(),
                "server {i} diverged under batching permutation"
            );
            assert_eq!(
                plain.utilization_of(i),
                grouped.utilization_of(i),
                "server {i} utilization diverged under batching permutation"
            );
        }
    }

    #[test]
    fn regrouping_mid_run_preserves_state() {
        // set_leaf_spans after stepping must carry all physics state
        // through the permutation rebuild.
        let mut plain = mixed_fleet(81);
        let mut regrouped = mixed_fleet(81);
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            plain.step(t, SimDuration::from_secs(1));
            regrouped.step(t, SimDuration::from_secs(1));
            t += SimDuration::from_secs(1);
        }
        let spans: Vec<Range<usize>> = (0..4).map(|l| l * 50..(l + 1) * 50).collect();
        regrouped.set_leaf_spans(&spans);
        for _ in 0..10 {
            plain.step(t, SimDuration::from_secs(1));
            regrouped.step(t, SimDuration::from_secs(1));
            t += SimDuration::from_secs(1);
        }
        for i in 0..200 {
            assert_eq!(
                plain.power_of(i).as_watts(),
                regrouped.power_of(i).as_watts(),
                "server {i} diverged after mid-run regrouping"
            );
        }
    }

    #[test]
    fn a_cap_programmed_by_rpc_is_what_the_next_step_settles_toward() {
        for workers in [1usize, 2, 8] {
            let mut fleet = small_fleet(8, ServiceKind::Web);
            fleet.set_leaf_spans(&[0..4, 4..8]);
            fleet.set_demand_hold(30);
            if workers > 1 {
                fleet.attach_pool(Arc::new(WorkerPool::new(workers)));
            }
            let t = run(&mut fleet, 40);
            assert_eq!(fleet.settled_leaf_count(), 2, "fleet failed to settle");
            let before = fleet.power_of(5);
            let cap = before - Power::from_watts(30.0);
            let epoch = fleet.leaf_epoch[1];

            let ack = fleet.agent_rpc(5, Request::SetCap(cap));
            assert_eq!(ack, Response::CapAck { ok: true });
            // Visible at once, with no step in between…
            assert_eq!(fleet.cap_of(5), Some(cap));
            assert_eq!(fleet.stats().capped_servers, 1);
            assert!(!fleet.is_settled(1), "a new limit must unsettle its leaf");
            assert!(fleet.is_settled(0), "the other leaf is untouched");
            // …while drawn power (and so every cached sum) has not moved.
            assert_eq!(fleet.power_of(5), before);
            assert_eq!(fleet.leaf_epoch[1], epoch);

            fleet.step(t, SimDuration::from_secs(1));
            let after = fleet.power_of(5);
            assert!(
                cap < after && after < before,
                "one step moves toward the cap: {before} -> {after} (cap {cap})"
            );
            assert!(fleet.leaf_epoch[1] > epoch);
            for _ in 0..10 {
                fleet.step(t, SimDuration::from_secs(1));
            }
            assert_eq!(fleet.power_of(5), cap, "settles exactly on the cap");

            // Rejected and repeated requests leave the tally alone.
            let nack = fleet.agent_rpc(5, Request::SetCap(Power::ZERO));
            assert_eq!(nack, Response::CapAck { ok: false });
            fleet.agent_rpc(5, Request::SetCap(cap));
            assert_eq!(fleet.stats().capped_servers, 1);
            fleet.agent_rpc(5, Request::ClearCap);
            assert_eq!(fleet.stats().capped_servers, 0);
            assert_eq!(fleet.cap_of(5), None);
        }
    }

    #[test]
    fn set_server_alive_keeps_cache_exact() {
        let mut fleet = small_fleet(8, ServiceKind::Web);
        let spans = vec![0..4, 4..8];
        fleet.set_leaf_spans(&spans);
        run(&mut fleet, 10);
        let leaf0_before = fleet.leaf_power(0);
        fleet.set_server_alive(1, false);
        assert_eq!(fleet.power_of(1), Power::ZERO);
        let leaf0_after = fleet.leaf_power(0);
        assert!(leaf0_after < leaf0_before);
        assert_eq!(leaf0_after.as_watts(), fleet.power_sum(0..4).as_watts());
        fleet.set_server_alive(1, true);
        assert!(fleet.power_of(1).as_watts() > 0.0);
    }

    /// A 200-server, 4-leaf mixed fleet with a demand-hold period — the
    /// configuration where active-set skipping can actually engage.
    fn spanned_fleet(seed: u64, hold: u32) -> Fleet {
        let mut fleet = mixed_fleet(seed);
        let spans: Vec<Range<usize>> = (0..4).map(|l| l * 50..(l + 1) * 50).collect();
        fleet.set_leaf_spans(&spans);
        fleet.set_demand_hold(hold);
        fleet
    }

    #[test]
    fn active_set_skipping_is_bit_identical_to_full_compute() {
        // `skipping` runs the real active-set path; `full` has its
        // settled flags force-cleared before every tick, so every leaf
        // recomputes every step. Identical bits across a run spanning
        // every mutation site prove a skipped pass truly is the FP
        // identity.
        let mut skipping = spanned_fleet(90, 30);
        let mut full = spanned_fleet(90, 30);
        let mut t = SimTime::ZERO;
        let mut max_settled = 0;
        for step in 0..400u64 {
            full.clear_settled();
            if step == 120 {
                for f in [&mut skipping, &mut full] {
                    f.set_traffic(ServiceKind::Web, TrafficPattern::flat(2.0));
                }
            }
            if step == 200 {
                for f in [&mut skipping, &mut full] {
                    f.set_server_alive(17, false);
                }
            }
            if step == 260 {
                for f in [&mut skipping, &mut full] {
                    f.set_server_alive(17, true);
                }
            }
            if step == 300 {
                for f in [&mut skipping, &mut full] {
                    cap_servers(f, 60..61, Power::from_watts(140.0));
                }
            }
            skipping.step(t, SimDuration::from_secs(1));
            full.step(t, SimDuration::from_secs(1));
            t += SimDuration::from_secs(1);
            max_settled = max_settled.max(skipping.settled_leaf_count());
            for i in 0..200 {
                assert_eq!(
                    skipping.power_of(i).as_watts().to_bits(),
                    full.power_of(i).as_watts().to_bits(),
                    "server {i} diverged under active-set skipping at step {step}"
                );
            }
        }
        for l in 0..4 {
            assert_eq!(
                skipping.leaf_power(l).as_watts().to_bits(),
                full.leaf_power(l).as_watts().to_bits(),
                "leaf {l} partial diverged under active-set skipping"
            );
        }
        assert!(max_settled > 0, "skipping never engaged: vacuous test");
    }

    #[test]
    fn settled_leaf_reenters_active_set_on_every_mutation_site() {
        let mut fleet = spanned_fleet(92, 50);
        let mut t = SimTime::ZERO;
        let tick = |f: &mut Fleet, t: &mut SimTime| {
            f.step(*t, SimDuration::from_secs(1));
            *t += SimDuration::from_secs(1);
        };
        // Warm up past each leaf's first redraw (ticks 0..3) and well
        // into the hold window: everything settles.
        for _ in 0..40 {
            tick(&mut fleet, &mut t);
        }
        assert_eq!(fleet.settled_leaf_count(), 4, "fleet failed to settle");

        // Crash: immediate zero draw, leaf unsettled, epoch bumped.
        let epoch0 = fleet.leaf_epoch[0];
        fleet.set_server_alive(0, false);
        assert_eq!(fleet.power_of(0), Power::ZERO);
        assert!(!fleet.is_settled(0), "crash must unsettle its leaf");
        assert_eq!(fleet.leaf_epoch[0], epoch0 + 1);
        tick(&mut fleet, &mut t);

        // Revive: draw returns to the retained actuator output.
        fleet.set_server_alive(0, true);
        assert!(!fleet.is_settled(0), "revive must unsettle its leaf");
        assert!(fleet.power_of(0).as_watts() > 0.0);

        // RAPL limit change via the agent view: leaf 1
        // unsettles and its power settles down toward the cap.
        for _ in 0..10 {
            tick(&mut fleet, &mut t);
        }
        let before_cap = fleet.leaf_power(1);
        cap_servers(&mut fleet, 50..100, Power::from_watts(130.0));
        assert!(!fleet.is_settled(1), "cap change must unsettle its leaf");
        for _ in 0..15 {
            tick(&mut fleet, &mut t);
        }
        assert!(
            fleet.leaf_power(1) < before_cap * 0.95,
            "cap never bit: {} vs {}",
            fleet.leaf_power(1),
            before_cap
        );

        // Demand spike: a settled leaf reacts at its next due redraw.
        // Leaf 1 is the exception that proves the model: its servers
        // are capped at 130 W and the snap band parked them *exactly*
        // on the cap, so a spike above the cap leaves the clamped
        // target — and therefore the leaf's power bits — unchanged.
        fleet.set_traffic(ServiceKind::Web, TrafficPattern::flat(3.0));
        let before_spike: Vec<u64> = fleet.leaf_epoch.clone();
        for _ in 0..55 {
            tick(&mut fleet, &mut t);
        }
        for l in [0, 2, 3] {
            assert!(
                fleet.leaf_epoch[l] > before_spike[l],
                "leaf {l} never reacted to the traffic spike"
            );
        }
        assert_eq!(
            fleet.leaf_epoch[1], before_spike[1],
            "cap-clamped leaf must stay at its fixed point through the spike"
        );
        assert_eq!(fleet.leaf_power(1), Power::from_watts(130.0) * 50.0);
    }

    #[test]
    fn hold_one_is_bit_identical_to_always_redraw() {
        // The default hold of 1 must reproduce the pre-active-set model
        // exactly; `clear_settled` turns the skip logic off wholesale.
        let mut held = spanned_fleet(93, 1);
        let mut reference = spanned_fleet(93, 1);
        let mut t = SimTime::ZERO;
        for _ in 0..60 {
            reference.clear_settled();
            held.step(t, SimDuration::from_secs(1));
            reference.step(t, SimDuration::from_secs(1));
            t += SimDuration::from_secs(1);
        }
        for i in 0..200 {
            assert_eq!(
                held.power_of(i).as_watts().to_bits(),
                reference.power_of(i).as_watts().to_bits(),
                "server {i} diverged at hold=1"
            );
        }
    }

    #[test]
    #[should_panic(expected = "demand hold")]
    fn zero_demand_hold_panics() {
        small_fleet(1, ServiceKind::Web).set_demand_hold(0);
    }

    #[test]
    #[should_panic(expected = "leaf span 1 is 5..8")]
    fn leaf_spans_with_a_gap_panic_naming_the_leaf() {
        small_fleet(8, ServiceKind::Web).set_leaf_spans(&[0..4, 5..8]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_construction_panics() {
        Fleet::new(
            vec![ServerConfig::new(ServerGeneration::Haswell2015)],
            vec![],
            SimRng::seed_from(1),
        );
    }

    #[test]
    #[should_panic(expected = "static util cap")]
    fn invalid_static_cap_panics() {
        small_fleet(1, ServiceKind::Web).set_static_util_cap(ServiceKind::Web, Some(0.0));
    }
}
