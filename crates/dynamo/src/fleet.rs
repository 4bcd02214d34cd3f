//! The simulated server fleet: configuration, the leaves that own its
//! state, by-server-id accessors, failure injection, re-span.
//!
//! # Storage
//!
//! The fleet holds no per-server object and no fleet-wide column. It
//! is a `Vec` of leaves ([`LeafColumns`], one per leaf controller; one
//! spanning the fleet until [`Fleet::set_leaf_spans`] registers the
//! control plane's), and a leaf owns everything about its servers that
//! a tick mutates: the workload processes, demand, RAPL limit, settled
//! output, utilization, drawn watts, the agents' noise streams, the
//! packed liveness / first-step / process-up masks, its layout, and
//! its own aggregates — power partial, settled flag, last-redraw tick,
//! power and agent epochs, capped tally. What is a pure function of
//! configuration stays here: the table of shared [`ServerModel`]s and
//! each server's service. Every index inside a leaf is leaf-local;
//! only the by-`sid` accessors below find the leaf first
//! ([`Fleet::locate`]).
//!
//! # One step
//!
//! [`Fleet::step`] is the only physics step. A shard is a contiguous
//! sub-slice of the leaves — as many shards as the attached
//! [`WorkerPool`] has workers, one without a pool — handed to
//! [`shard::run_sharded`]: the first shard runs inline on the caller,
//! the rest on the pool's threads. "Serial" is therefore one
//! shard of the same path, not a second implementation. Per-server
//! workload processes own independent RNG streams and every fold is a
//! fixed ascending one, so the result is bit-identical at any width.
//! The step of one leaf is in [`leaf`].
//!
//! # Aggregates
//!
//! Each leaf keeps the bottom layer of the hierarchy's bottom-up
//! aggregation (§III-C): the ascending flat fold of its servers' drawn
//! watts, refolded by every step that walks it and by
//! [`Fleet::set_server_alive`]. Everything above a leaf is a sum of
//! those partials, taken by the datacenter's breaker pass. No other
//! sum is stored: [`Fleet::stats`] folds the per-server watts flat on
//! every call, [`Fleet::power_sum`] over whatever ids it is given. A
//! per-leaf power epoch versions the leaf's watts for the one consumer
//! that keeps a sum below leaf level (a rack's draw), and a snapshot's
//! partials are checked against its per-server watts on the way back
//! in.
//!
//! # The control plane's view
//!
//! Nothing is copied out for the control plane. A leaf controller's
//! cycle borrows a [`LeafAgents`] view — its leaf's columns plus the
//! model table — and serves each RPC through a [`dynamo_agent::Host`]
//! built over one server's entries, the same request handler the
//! standalone [`dynamo_agent::Agent`] runs. The leaf dispatch hands
//! each of its shards the same kind of sub-slice of the leaves the
//! step does ([`Fleet::agent_leaves`]); outside a dispatch
//! [`Fleet::agent_rpc`] serves one request through the same view.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use dcsim::{SimDuration, SimRng, SimTime};
use dynpool::WorkerPool;
use dynrpc::{AgentEndpoint, Request, Response};
use powerinfra::Power;
use serverpower::{kernel, Rapl, ServerConfig, ServerModel};
use workloads::{OuCoeffs, ServiceKind, TrafficPattern};

use crate::shard;
use leaf::{get_bit, put_bit, StepCtx};

mod leaf;
mod snapshot;

pub(crate) use leaf::{LeafAgents, LeafColumns, Markers};
pub use snapshot::FleetState;

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
/// caches hold nothing across passes but everything within one step
/// tile (a tile touched by consecutive stages stays resident).
///
/// Computed from the live allocation sizes, not constants, so a layout
/// regression — an array added to the settle stride, a mask unpacked
/// back to `f64` — moves the number even before it shows up in wall
/// time. `crates/dynamo/tests/roofline.rs` gates it against a baked
/// baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickTraffic {
    /// Bytes per worst-case tick: one streaming pass over the hot set —
    /// settle, telemetry partial and per-leaf partial all ride the tile
    /// while it is resident — plus the breaker pass reading the
    /// per-leaf partials back (O(leaves), counted exactly).
    pub fused: u64,
}

/// Every server in the datacenter: its hardware model, its agent's
/// state, its service assignment, its utilization process and physics,
/// plus fleet-level failure injection.
pub struct Fleet {
    /// The fleet's distinct server models — one per distinct
    /// [`ServerConfig`], shared by every server configured alike.
    models: Vec<Arc<ServerModel>>,
    /// Each server's service, id order.
    services: Vec<ServiceKind>,
    /// The leaves, ascending and tiling `0..len`, never empty.
    leaves: Vec<LeafColumns>,
    /// Monotone count of [`Fleet::set_leaf_spans`] registrations.
    /// Re-registering spans resets every per-leaf epoch to zero, so any
    /// consumer keying a cached aggregate on an epoch must also compare
    /// this generation — a restarted epoch can coincidentally reach its
    /// pre-re-span value.
    span_generation: u64,
    /// Per-service traffic patterns; services without an entry see
    /// constant nominal traffic.
    traffic: HashMap<ServiceKind, TrafficPattern>,
    /// Probability per server-hour of an agent crash.
    crash_rate_per_hour: f64,
    /// Watchdog restart delay.
    watchdog_delay: SimDuration,
    /// Crashed agents pending restart: (server, restart time).
    pending_restarts: Vec<(u32, SimTime)>,
    rng: SimRng,
    /// Uniform RAPL time constant of the fleet's servers.
    tau_secs: f64,
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
    /// Maintained count of agents whose process is down. Crash and
    /// watchdog restart both route through
    /// [`Fleet::process_failures`].
    down_count: usize,
}

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
        // A fresh fleet in id order: every agent running, every server
        // alive and awaiting its first step, no noise, no burst, no
        // limit, zero output (matching a live read) and idle demand
        // (demand utilization 0, matching a live `demand_power` read).
        let mut seed = LeafColumns::blank(0, 0..n, 0);
        seed.model_ix.reserve(n);
        seed.demand_w.reserve(n);
        seed.agent_rng.reserve(n);
        seed.wl_rng.reserve(n);
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
            seed.model_ix.push(ix as u32);
            seed.demand_w.push(models[ix].lut().idle_w());
            seed.agent_rng.push(agent_streams.split_index(i as u64));
            seed.wl_rng.push(wl_streams.split_index(i as u64));
        }
        let no_burst = workloads::kernel::burst_to_columns(None);
        seed.wl_noise = vec![0.0; n];
        seed.wl_burst_until = vec![no_burst.0; n];
        seed.wl_burst_add = vec![no_burst.1; n];
        seed.util = vec![0.0; n];
        seed.limit_w = vec![f64::INFINITY; n];
        seed.out_w = vec![0.0; n];
        seed.power_w = vec![0.0; n];
        seed.not_init = vec![u64::MAX; n.div_ceil(64)];
        seed.alive = seed.not_init.clone();
        seed.running = seed.not_init.clone();
        let mut fleet = Fleet {
            models,
            services,
            leaves: vec![seed],
            span_generation: 0,
            traffic: HashMap::new(),
            crash_rate_per_hour: 0.0,
            watchdog_delay: SimDuration::from_secs(30),
            pending_restarts: Vec::new(),
            rng: rng.split("fleet-events"),
            tau_secs: Rapl::new().tau_secs(),
            pool: None,
            tick_index: 0,
            demand_hold: 1,
            down_count: 0,
        };
        // One leaf spanning the fleet until spans are registered.
        fleet.repartition(std::slice::from_ref(&(0..n)));
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

    /// Enables agent crash injection at the given rate (per server-hour).
    pub fn set_crash_rate(&mut self, per_hour: f64) {
        assert!(
            per_hour >= 0.0 && per_hour.is_finite(),
            "invalid crash rate {per_hour}"
        );
        self.crash_rate_per_hour = per_hour;
    }

    /// Attaches a persistent worker pool: [`Fleet::step`] cuts the
    /// leaves into as many shards as the pool has workers. The
    /// datacenter shares one pool between fleet physics and leaf
    /// control cycles so both fan-outs reuse the same threads.
    pub fn attach_pool(&mut self, pool: Arc<WorkerPool>) {
        self.pool = Some(pool);
    }

    /// Detaches the worker pool; the step runs as one shard on the
    /// caller.
    pub fn detach_pool(&mut self) {
        self.pool = None;
    }

    /// Registers the control plane's per-leaf server spans: the fleet
    /// is re-partitioned into one leaf per span, every column carried
    /// across and regrouped leaf-locally by `(generation, service,
    /// turbo)`. Every leaf starts over unsettled with zero epochs, and
    /// the span generation is bumped, which invalidates anything keyed
    /// on the previous leaves' epochs (a restarted epoch could
    /// otherwise climb back to the value a stale entry was keyed on).
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
        self.span_generation += 1;
        self.repartition(spans);
    }

    /// Replaces the leaves with one per span (which must tile the
    /// fleet), carrying all server state across.
    fn repartition(&mut self, spans: &[Range<usize>]) {
        let old = std::mem::take(&mut self.leaves);
        self.leaves = leaf::repartition(old, spans, &self.models, &self.services, self.tick_index);
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
        self.leaves.iter().filter(|l| l.settled).count()
    }

    /// The leaves, ascending.
    pub(crate) fn leaves(&self) -> &[LeafColumns] {
        &self.leaves
    }

    /// The leaves and the model table their agent views index
    /// ([`LeafAgents::new`]), borrowed together for a leaf dispatch.
    pub(crate) fn agent_leaves(&mut self) -> (&mut [LeafColumns], &[Arc<ServerModel>]) {
        (&mut self.leaves, &self.models)
    }

    /// The per-leaf server spans (`0..len` until registered).
    pub(crate) fn leaf_spans(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.leaves.iter().map(LeafColumns::span)
    }

    /// Monotone count of span registrations; see the field docs.
    /// Anything keyed on a leaf's power epoch is only valid while this
    /// matches the generation it was keyed at.
    pub(crate) fn leaf_span_generation(&self) -> u64 {
        self.span_generation
    }

    /// The leaf owning server `sid` (the leaves tile the fleet) and
    /// the server's id within it.
    fn locate(&self, sid: u32) -> (&LeafColumns, usize) {
        let leaf = &self.leaves[self.leaf_of(sid)];
        (leaf, sid as usize - leaf.first)
    }

    /// Index of the leaf owning server `sid`.
    fn leaf_of(&self, sid: u32) -> usize {
        self.leaves
            .partition_point(|l| l.span().end <= sid as usize)
    }

    /// [`Fleet::locate`] for each of `sids`, searching only when a
    /// server is not under the previous one's leaf.
    fn located<'a>(
        &'a self,
        sids: impl IntoIterator<Item = u32> + 'a,
    ) -> impl Iterator<Item = (&'a LeafColumns, usize)> + 'a {
        let mut leaf = &self.leaves[0];
        sids.into_iter().map(move |sid| {
            if !leaf.span().contains(&(sid as usize)) {
                leaf = self.locate(sid).0;
            }
            (leaf, sid as usize - leaf.first)
        })
    }

    /// The service running on server `sid`.
    pub fn service_of(&self, sid: u32) -> ServiceKind {
        self.services[sid as usize]
    }

    /// The shared hardware model of `leaf`'s server `id`.
    fn model_of(&self, leaf: &LeafColumns, id: usize) -> &ServerModel {
        &self.models[leaf.model_ix[id] as usize]
    }

    /// The static configuration of server `sid`.
    pub fn config_of(&self, sid: u32) -> &ServerConfig {
        let (leaf, id) = self.locate(sid);
        self.model_of(leaf, id).config()
    }

    /// The RAPL limit currently programmed on server `sid`, if any.
    pub fn cap_of(&self, sid: u32) -> Option<Power> {
        let (leaf, id) = self.locate(sid);
        let limit = leaf.limit_w[leaf.inv[id] as usize];
        limit.is_finite().then(|| Power::from_watts(limit))
    }

    /// Whether server `sid`'s agent process is up. A crashed agent
    /// cannot answer RPCs (the dispatch surfaces this as
    /// [`dynrpc::RpcError::AgentDown`]).
    pub fn agent_running(&self, sid: u32) -> bool {
        let (leaf, id) = self.locate(sid);
        get_bit(&leaf.running, id)
    }

    /// Serves one request at server `sid`'s agent, outside a control
    /// dispatch (experiment and test hook) — through the same view the
    /// dispatch uses, so every aggregate stays exact: a programmed cap
    /// is what the next [`Fleet::step`] settles toward and what
    /// [`Fleet::stats`] counts immediately. A crashed agent answers
    /// `CapAck { ok: false }`.
    pub fn agent_rpc(&mut self, sid: u32, req: Request) -> Response {
        let leaf = self.leaf_of(sid);
        LeafAgents::new(&mut self.leaves[leaf], &self.models)
            .agent(sid)
            .handle(req)
    }

    /// Powers a server on or off (breaker blackout path), keeping the
    /// drawn power and the leaf partial exact — a dead server reads
    /// zero watts immediately, a revived one its retained actuator
    /// output.
    pub fn set_server_alive(&mut self, sid: u32, alive: bool) {
        let leaf = self.leaf_of(sid);
        let leaf = &mut self.leaves[leaf];
        leaf.set_alive(sid as usize - leaf.first, alive);
    }

    /// The true (physics) power of server `sid` right now.
    pub fn power_of(&self, sid: u32) -> Power {
        let (leaf, id) = self.locate(sid);
        Power::from_watts(leaf.power_w[id])
    }

    /// Sum of true power over `sids`, folded flat in the order given
    /// (ascending ids everywhere in this crate).
    pub fn power_sum(&self, sids: impl IntoIterator<Item = u32>) -> Power {
        Power::from_watts(self.located(sids).map(|(leaf, id)| leaf.power_w[id]).sum())
    }

    /// The maintained power partial of leaf `leaf`: the ascending flat
    /// fold over the leaf's span — the exact sum [`Fleet::power_sum`]
    /// would compute over its ids.
    pub(crate) fn leaf_power(&self, leaf: usize) -> Power {
        self.leaves[leaf].power()
    }

    /// Sum of true power over `sids`, restricted to one service
    /// (Figure 15's per-service breakdown).
    pub fn power_sum_of_service(
        &self,
        sids: impl IntoIterator<Item = u32>,
        kind: ServiceKind,
    ) -> Power {
        let sids = sids
            .into_iter()
            .filter(|&s| self.services[s as usize] == kind);
        self.power_sum(sids)
    }

    /// The demand utilization server `sid` was stepped with most
    /// recently.
    pub fn utilization_of(&self, sid: u32) -> f64 {
        let (leaf, id) = self.locate(sid);
        leaf.util[leaf.inv[id] as usize]
    }

    /// The utilization level server `sid` actually achieves under its
    /// current cap — [`ServerModel::achieved_utilization_at`] its drawn
    /// power; a dead server achieves nothing.
    pub fn achieved_utilization_of(&self, sid: u32) -> f64 {
        let (leaf, id) = self.locate(sid);
        if !leaf.is_alive(id) {
            return 0.0;
        }
        self.model_of(leaf, id)
            .achieved_utilization_at(Power::from_watts(leaf.power_w[id]))
    }

    /// Advances every server by one tick: samples traffic, steps every
    /// leaf (`LeafColumns::step`: demand draw, settle kernel, power
    /// scatter, tile by tile), and processes agent crash/restart
    /// events.
    ///
    /// The leaves are cut into contiguous shards, one per worker of the
    /// attached pool ([`Fleet::attach_pool`]; one shard without a pool,
    /// run inline on the caller) — this mirrors the production
    /// deployment where one consolidated binary runs ~100
    /// controller/agent threads (§IV). A warm step allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics.
    pub fn step(&mut self, now: SimTime, dt: SimDuration) {
        let ctx = StepCtx {
            mults: self.traffic_multipliers(now),
            ou: ou_coefficients(dt),
            alpha: kernel::settle_alpha(dt.as_secs_f64(), self.tau_secs),
            now,
            dt,
            tick: self.tick_index,
            hold: self.demand_hold as u64,
        };
        let pool = self.pool.as_deref();
        let (per, shards) = shard::chunking(pool, self.leaves.len());
        let mut chunks = self.leaves.chunks_mut(per);
        shard::run_sharded(
            pool,
            shards,
            || chunks.next().expect("one chunk of leaves per shard"),
            |leaves| leaves.iter_mut().for_each(|leaf| leaf.step(&ctx)),
        );
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

    /// Failure injection: crashes are per-server Poisson events, drawn
    /// in server-id order; the watchdog restarts agents after a fixed
    /// delay (§III-E).
    fn process_failures(&mut self, now: SimTime, dt: SimDuration) {
        if self.crash_rate_per_hour > 0.0 {
            let p = self.crash_rate_per_hour * dt.as_secs_f64() / 3600.0;
            for leaf in &mut self.leaves {
                for id in 0..leaf.len() {
                    if get_bit(&leaf.running, id) && self.rng.chance(p) {
                        put_bit(&mut leaf.running, id, false);
                        leaf.agent_epoch += 1;
                        self.down_count += 1;
                        self.pending_restarts
                            .push(((leaf.first + id) as u32, now + self.watchdog_delay));
                    }
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
            let leaf = self.leaf_of(s);
            let leaf = &mut self.leaves[leaf];
            let id = s as usize - leaf.first;
            if !get_bit(&leaf.running, id) {
                put_bit(&mut leaf.running, id, true);
                self.down_count -= 1;
            }
            leaf.agent_epoch += 1;
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
        let sum: f64 = self
            .located(sids)
            .map(|(leaf, id)| {
                if !leaf.is_alive(id) {
                    return 0.0;
                }
                self.model_of(leaf, id).performance_factor(
                    Power::from_watts(leaf.demand_w[leaf.inv[id] as usize]),
                    Power::from_watts(leaf.power_w[id]),
                )
            })
            .sum();
        sum / count as f64
    }

    /// Instantaneous fleet statistics: the leaves' capped tallies and
    /// the down tally (each maintained at its mutation sites) plus the
    /// flat ascending fold over the per-server watts.
    pub fn stats(&self) -> FleetStats {
        let watts = self.leaves.iter().flat_map(|l| &l.power_w);
        FleetStats {
            capped_servers: self.leaves.iter().map(|l| l.capped).sum(),
            agents_down: self.down_count,
            total_power: Power::from_watts(watts.sum()),
        }
    }

    /// The worst-case per-tick DRAM roofline — see [`TickTraffic`]: one
    /// pass over every leaf's hot set (telemetry partials ride the
    /// tile) plus the breaker pass reading the partials back.
    pub fn bytes_per_tick(&self) -> TickTraffic {
        let step: u64 = self.leaves.iter().map(LeafColumns::step_bytes).sum();
        TickTraffic {
            fused: step + self.leaves.len() as u64 * 8,
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

    /// Forces every leaf back into the active set, making the next step
    /// recompute everything — the skip-free reference the active-set
    /// equivalence tests compare against.
    fn clear_settled(fleet: &mut Fleet) {
        for leaf in &mut fleet.leaves {
            leaf.settled = false;
        }
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

    fn mixed_fleet_of(n: usize, seed: u64) -> Fleet {
        let configs = vec![ServerConfig::new(ServerGeneration::Haswell2015); n];
        let services: Vec<ServiceKind> = (0..n).map(|i| ServiceKind::all()[i % 6]).collect();
        Fleet::new(configs, services, SimRng::seed_from(seed))
    }

    fn mixed_fleet(seed: u64) -> Fleet {
        mixed_fleet_of(200, seed)
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
            let per_leaf = |f: &Fleet| -> Vec<(u64, u64, bool)> {
                let row = |l: &LeafColumns| (l.partial_w.to_bits(), l.power_epoch, l.settled);
                f.leaves.iter().map(row).collect()
            };
            assert_eq!(per_leaf(&one), per_leaf(wide));
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
        // each leaf, and every leaf packs its own mask words from bit
        // 0. Per-server RNG streams make the evaluation order
        // unobservable: every per-id result must be bit-identical to
        // the single-leaf twin however the fleet is cut — evenly, at
        // sizes around the mask-word edge, and around the step-tile
        // edge (2,048; the last leaf there is more than one tile) — at
        // any width, through a cap, a kill and a revive.
        let cases: [(usize, &[usize]); 3] = [
            (200, &[50, 50, 50, 50]),
            (200, &[1, 63, 64, 65, 7]),
            (4200, &[2047, 2, 2151]),
        ];
        for (n, sizes) in cases {
            for workers in [1usize, 4] {
                let mut plain = mixed_fleet_of(n, 80);
                let mut grouped = mixed_fleet_of(n, 80);
                let mut start = 0;
                let spans: Vec<Range<usize>> = sizes
                    .iter()
                    .map(|&len| {
                        start += len;
                        start - len..start
                    })
                    .collect();
                grouped.set_leaf_spans(&spans);
                if workers > 1 {
                    grouped.attach_pool(Arc::new(WorkerPool::new(workers)));
                }
                let mut t = SimTime::ZERO;
                for step in 0..25 {
                    for f in [&mut plain, &mut grouped] {
                        if step == 8 {
                            for sid in (0..n as u32).step_by(37) {
                                f.agent_rpc(sid, Request::SetCap(Power::from_watts(140.0)));
                            }
                        }
                        if step == 8 || step == 16 {
                            for sid in (5..n as u32).step_by(61) {
                                f.set_server_alive(sid, step == 16);
                            }
                        }
                        f.step(t, SimDuration::from_secs(1));
                    }
                    t += SimDuration::from_secs(1);
                }
                for i in 0..n as u32 {
                    let what = format!("server {i} of {n} cut {sizes:?} at width {workers}");
                    assert_eq!(
                        plain.power_of(i).as_watts().to_bits(),
                        grouped.power_of(i).as_watts().to_bits(),
                        "{what}: power"
                    );
                    assert_eq!(
                        plain.utilization_of(i).to_bits(),
                        grouped.utilization_of(i).to_bits(),
                        "{what}: utilization"
                    );
                    assert_eq!(plain.cap_of(i), grouped.cap_of(i), "{what}: cap");
                }
                assert_eq!(plain.stats(), grouped.stats());
                assert!(plain.stats().capped_servers > n / 40);
            }
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
            let epoch = fleet.leaves[1].power_epoch;

            let ack = fleet.agent_rpc(5, Request::SetCap(cap));
            assert_eq!(ack, Response::CapAck { ok: true });
            // Visible at once, with no step in between…
            assert_eq!(fleet.cap_of(5), Some(cap));
            assert_eq!(fleet.stats().capped_servers, 1);
            assert!(
                !fleet.leaves[1].settled,
                "a new limit must unsettle its leaf"
            );
            assert!(fleet.leaves[0].settled, "the other leaf is untouched");
            // …while drawn power (and so every cached sum) has not moved.
            assert_eq!(fleet.power_of(5), before);
            assert_eq!(fleet.leaves[1].power_epoch, epoch);

            fleet.step(t, SimDuration::from_secs(1));
            let after = fleet.power_of(5);
            assert!(
                cap < after && after < before,
                "one step moves toward the cap: {before} -> {after} (cap {cap})"
            );
            assert!(fleet.leaves[1].power_epoch > epoch);
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
            clear_settled(&mut full);
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
        let epoch0 = fleet.leaves[0].power_epoch;
        fleet.set_server_alive(0, false);
        assert_eq!(fleet.power_of(0), Power::ZERO);
        assert!(!fleet.leaves[0].settled, "crash must unsettle its leaf");
        assert_eq!(fleet.leaves[0].power_epoch, epoch0 + 1);
        tick(&mut fleet, &mut t);

        // Revive: draw returns to the retained actuator output.
        fleet.set_server_alive(0, true);
        assert!(!fleet.leaves[0].settled, "revive must unsettle its leaf");
        assert!(fleet.power_of(0).as_watts() > 0.0);

        // RAPL limit change via the agent view: leaf 1
        // unsettles and its power settles down toward the cap.
        for _ in 0..10 {
            tick(&mut fleet, &mut t);
        }
        let before_cap = fleet.leaf_power(1);
        cap_servers(&mut fleet, 50..100, Power::from_watts(130.0));
        assert!(
            !fleet.leaves[1].settled,
            "cap change must unsettle its leaf"
        );
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
        let before_spike: Vec<u64> = fleet.leaves.iter().map(|l| l.power_epoch).collect();
        for _ in 0..55 {
            tick(&mut fleet, &mut t);
        }
        for l in [0, 2, 3] {
            assert!(
                fleet.leaves[l].power_epoch > before_spike[l],
                "leaf {l} never reacted to the traffic spike"
            );
        }
        assert_eq!(
            fleet.leaves[1].power_epoch, before_spike[1],
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
            clear_settled(&mut reference);
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
}
