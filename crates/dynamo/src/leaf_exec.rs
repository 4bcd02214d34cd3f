//! The leaf controller tier: one [`LeafController`] per RPP and the
//! one dispatch that runs their cycles.
//!
//! [`LeafTier::run_due`] runs only the leaves the
//! [`crate::events::CycleDispatcher`] marked due this tick (minus the
//! provably quiescent ones), carved into contiguous shards — as many as
//! the attached [`WorkerPool`] has workers, one (run inline on the
//! caller) without a pool. This mirrors the paper's consolidated binary
//! running ~100 controller threads (§IV): each shard owns a private
//! disjoint `&mut [Agent]` slice of the fleet and every leaf's RPC RNG
//! stream is its own, so a cycle computes the same thing in any shard;
//! events are buffered per leaf and merged in leaf-index order after
//! the join, making the whole run bit-identical at any width. Shard
//! jobs are stack slots holding disjoint slices of the tier's parallel
//! arrays, so a warm steady-state dispatch allocates nothing.
//!
//! Each leaf's cycle is bracketed by the control hand-off: the fleet's
//! batch-owned physics state is flushed into the leaf's server models
//! right before the cycle and freshly programmed RAPL limits are
//! absorbed right after, while the leaf's agents are hot (see
//! [`crate::fleet`]'s state-ownership notes).

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use dcsim::snap::{
    get_bool_vec, get_f64_vec, get_u64_vec, put_bool_slice, put_f64_slice, put_u64_slice,
    SnapError, SnapReader, SnapWriter, Snapshot,
};
use dcsim::{SimDuration, SimRng, SimTime};
use dynamo_agent::Agent;
use dynamo_controller::{
    ControlAction, LeafConfig, LeafController, LeafControllerState, ServerHandle, ServiceClass,
};
use dynobs::{Band, Shard};
use dynpool::WorkerPool;
use dynrpc::codec::{self, TelemetryEvent, TelemetryEventKind};
use dynrpc::{Network, NetworkState, Request, RpcError};
use powerinfra::{DeviceId, DeviceLevel, Power, Topology};

use crate::control_plane::SystemConfig;
use crate::events::{ControllerEvent, ControllerEventKind};
use crate::failover::FailoverState;
use crate::fleet::{fuse_absorb_leaf, fuse_sync_leaf, Fleet};
use crate::obs::{band_of, record_leaf_cycle, record_leaf_failover, ObsIds, Observability};
use crate::shard::{self, front_mut};

/// The leaf tier as parallel arrays, so cycles can split borrows.
pub(crate) struct LeafTier {
    pub(crate) devices: Vec<DeviceId>,
    pub(crate) controllers: Vec<LeafController>,
    networks: Vec<Network>,
    pub(crate) last_aggregate: Vec<Power>,
    /// Each leaf's contiguous ascending server-id range; the ranges
    /// tile `0..server_count` in leaf order, so the dispatch can hand
    /// each leaf a private disjoint `&mut [Agent]` slice.
    pub(crate) spans: Vec<Range<usize>>,
    /// Per-leaf event buffers, reused across dispatches (cleared,
    /// capacity kept) and merged in leaf index order after the join.
    event_bufs: Vec<Vec<ControllerEvent>>,
    /// Per-leaf telemetry wire buffers: each shard encodes its leaf's
    /// cycle events as a [`dynrpc::codec`] telemetry batch and decodes
    /// them back, so the codec work the deployed system pays to ship
    /// telemetry is on the tick. Reused (cleared, capacity kept).
    wire_bufs: Vec<Vec<u8>>,
    /// Per-leaf decode scratch for the wire round-trip.
    wire_events: Vec<Vec<TelemetryEvent>>,
    /// Planned-peak quotas from topology metadata, by leaf index.
    pub(crate) quotas: Vec<Power>,
    pub(crate) index_of: HashMap<DeviceId, usize>,
    /// Per-leaf quiescence flag: the leaf's last real cycle was a clean
    /// Hold — no pull failures, no active caps, no failover takeover —
    /// so, as long as the fleet-side markers below are unchanged and
    /// the link is lossless, re-running the cycle would observe the
    /// same fleet state and decide Hold again. Cleared by anything that
    /// could change the next decision from outside the fleet: an upper
    /// directive, an operator contract override, a rollout-phase flip,
    /// a primary failover.
    pub(crate) quiet: Vec<bool>,
    /// Fleet markers captured after each leaf's last real cycle
    /// (`u64::MAX` = never ran): power epoch, demand-redraw tick and
    /// agent epoch. See [`LeafTier::filter_quiescent`].
    seen_power_epoch: Vec<u64>,
    seen_draw_tick: Vec<u64>,
    seen_agent_epoch: Vec<u64>,
    /// Per-leaf outputs of the hand-off's absorb step — whether any
    /// limit bit changed, and the signed capped-count delta — recorded
    /// by the shards and applied serially after the join by
    /// [`Fleet::finish_fused_control`]. Meaningful only for the leaves
    /// of the last dispatch's due set.
    absorb_changed: Vec<bool>,
    absorb_delta: Vec<i64>,
}

impl LeafTier {
    /// Builds one leaf controller per RPP in `topo`, in device order.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no RPP devices, or if the leaves'
    /// servers do not tile the fleet contiguously in leaf order
    /// ([`powerinfra::TopologyBuilder`] always lays them out that way).
    pub(crate) fn build(
        topo: &Topology,
        service_of: &dyn Fn(u32) -> ServiceClass,
        config: &SystemConfig,
        rng: &mut SimRng,
    ) -> Self {
        let rpps = topo.devices_at(DeviceLevel::Rpp);
        assert!(!rpps.is_empty(), "topology has no RPPs to protect");

        let mut devices = Vec::new();
        let mut controllers = Vec::new();
        let mut networks = Vec::new();
        let mut index_of = HashMap::new();
        for rpp in rpps {
            let dev = topo.device(rpp);
            let servers: Vec<ServerHandle> = topo
                .servers_under(rpp)
                .into_iter()
                .map(|sid| ServerHandle {
                    server_id: sid,
                    service: service_of(sid),
                })
                .collect();
            let leaf_config = LeafConfig {
                physical_limit: dev.rating,
                bands: config.leaf_bands,
                poll_interval: config.leaf_interval,
                bucket_width: Power::from_watts(20.0),
                max_failure_frac: 0.20,
                non_server_overhead: config.leaf_overhead,
                dry_run: config.dry_run,
            };
            index_of.insert(rpp, controllers.len());
            controllers.push(LeafController::new(dev.name.clone(), leaf_config, servers));
            networks.push(Network::new(config.rpc, rng.split(&dev.name)));
            devices.push(rpp);
        }

        let n = devices.len();
        let quotas: Vec<Power> = devices.iter().map(|&d| topo.device(d).quota).collect();
        let spans = tile_leaf_spans(&controllers, topo.server_count());
        LeafTier {
            devices,
            controllers,
            networks,
            last_aggregate: vec![Power::ZERO; n],
            spans,
            event_bufs: vec![Vec::new(); n],
            wire_bufs: vec![Vec::new(); n],
            wire_events: vec![Vec::new(); n],
            quotas,
            index_of,
            quiet: vec![false; n],
            seen_power_epoch: vec![u64::MAX; n],
            seen_draw_tick: vec![u64::MAX; n],
            seen_agent_epoch: vec![u64::MAX; n],
            absorb_changed: vec![false; n],
            absorb_delta: vec![0; n],
        }
    }

    /// Splits `due` into the leaves that must run and the cycles that
    /// can be elided, pushing the former into `out` (cleared first) in
    /// the same ascending order and counting the latter into each
    /// leaf's shard (merged later with the full due list, so the
    /// registry stays bit-identical at any thread count).
    ///
    /// A leaf's cycle is elided only when it is *provably* a no-op
    /// recomputation: the leaf decided a clean Hold last time
    /// ([`LeafTier::quiet`]), its link cannot drop or time out, no
    /// failover is pending, and every fleet-side marker — power epoch,
    /// demand-redraw tick, agent epoch — still reads what the last real
    /// cycle captured. The elided cycle's RPC and sensor-noise RNG
    /// draws are *not* consumed, so elision (like the demand hold that
    /// enables it — with `demand_hold == 1` the redraw tick changes
    /// every tick and nothing ever elides) changes the trajectory
    /// relative to a run without it, while remaining deterministic and
    /// thread-count independent.
    pub(crate) fn filter_quiescent(
        &self,
        due: &[usize],
        fleet: &Fleet,
        failover: &FailoverState,
        obs: &mut Observability,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        let power_epochs = fleet.leaf_epochs();
        let draw_ticks = fleet.last_draw_ticks();
        let agent_epochs = fleet.agent_epochs();
        let markers_known = !fleet.power_cache_dirty();
        let (shards, ids) = obs.shard_ctx();
        for &i in due {
            let elidable = markers_known
                && self.quiet[i]
                && !failover.leaf_pending(i)
                && self.networks[i].profile().is_lossless()
                && self.seen_power_epoch[i] == power_epochs[i]
                && self.seen_draw_tick[i] == draw_ticks[i]
                && self.seen_agent_epoch[i] == agent_epochs[i];
            if elidable {
                shards[i].inc(ids.leaf_cycles_elided);
            } else {
                out.push(i);
            }
        }
    }

    /// Captures the fleet markers for the leaves that just ran a real
    /// cycle.
    fn note_markers(&mut self, ran: &[usize], fleet: &Fleet) {
        let power_epochs = fleet.leaf_epochs();
        let draw_ticks = fleet.last_draw_ticks();
        let agent_epochs = fleet.agent_epochs();
        if fleet.power_cache_dirty() {
            return; // Markers unknown: `seen` stays stale, nothing elides.
        }
        for &i in ran {
            self.seen_power_epoch[i] = power_epochs[i];
            self.seen_draw_tick[i] = draw_ticks[i];
            self.seen_agent_epoch[i] = agent_epochs[i];
        }
    }

    /// Number of leaf controllers.
    pub(crate) fn len(&self) -> usize {
        self.controllers.len()
    }

    /// Monitoring-only baseline (capping disabled): no RPC cycle runs;
    /// each due leaf just tracks its true aggregate so upper tiers and
    /// telemetry still see power. The fleet's per-leaf partial
    /// (maintained by its step as the same ascending fold) makes this a
    /// single lookup.
    pub(crate) fn monitor_due(
        &mut self,
        now: SimTime,
        due: &[usize],
        failover: &mut FailoverState,
        fleet: &Fleet,
        events: &mut Vec<ControllerEvent>,
        obs: &mut Observability,
    ) {
        let (shards, ids) = obs.shard_ctx();
        for &i in due {
            if failover.take_leaf(i) {
                events.push(take_over(
                    now,
                    self.devices[i],
                    &self.controllers[i],
                    &mut shards[i],
                    ids,
                    i as u32,
                ));
                continue;
            }
            self.last_aggregate[i] = fleet
                .leaf_power(i)
                .unwrap_or_else(|| fleet.power_sum_range(self.spans[i].clone()));
        }
    }

    /// Runs the due leaves' cycles. The due set is cut into contiguous
    /// chunks, one shard each ([`shard::chunking`] over `pool`); a
    /// shard holds disjoint `&mut` slices of the tier's parallel arrays
    /// and of the fleet's agent and limit arrays, split once at chunk
    /// boundaries. Per leaf, in the shard: flush the fleet's state into
    /// the server models, run the cycle (or consume a pending primary
    /// failure), round-trip the emitted events through the telemetry
    /// wire format, absorb the programmed caps. After the join, events
    /// are merged in leaf index order and the hand-off's deferred
    /// shared-state effects are applied, so the result is bit-identical
    /// at any width.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_due(
        &mut self,
        now: SimTime,
        due: &[usize],
        pool: Option<&WorkerPool>,
        failover: &mut FailoverState,
        fleet: &mut Fleet,
        events: &mut Vec<ControllerEvent>,
        obs: &mut Observability,
    ) {
        /// One shard's disjoint view of the leaf tier: the arrays are
        /// split at due-chunk boundaries, so slices may include
        /// non-due leaves — the shard walks only its `due` sublist,
        /// indexing relative to `base`.
        struct LeafJob<'a> {
            due: &'a [usize],
            /// Leaf index of element 0 of the sliced arrays.
            base: usize,
            controllers: &'a mut [LeafController],
            networks: &'a mut [Network],
            aggregates: &'a mut [Power],
            failed: &'a mut [bool],
            bufs: &'a mut [Vec<ControllerEvent>],
            wire: &'a mut [Vec<u8>],
            wire_ev: &'a mut [Vec<TelemetryEvent>],
            shards: &'a mut [Shard],
            quiet: &'a mut [bool],
            absorb_changed: &'a mut [bool],
            absorb_delta: &'a mut [i64],
            agents: &'a mut [Agent],
            /// RAPL limits of the same servers as `agents`.
            limit_w: &'a mut [f64],
            /// Server id of `agents[0]` (and, leaf grouping being
            /// leaf-local, the position of `limit_w[0]`).
            server_base: usize,
        }

        let (per, shards) = shard::chunking(pool, due.len());
        {
            let devices = &self.devices;
            let spans = &self.spans;
            let (mut obs_shards, ids) = obs.shard_ctx();
            let mut controllers = &mut self.controllers[..];
            let mut networks = &mut self.networks[..];
            let mut aggregates = &mut self.last_aggregate[..];
            let mut failed = failover.leaf_flags_mut();
            let mut bufs = &mut self.event_bufs[..];
            let mut wire = &mut self.wire_bufs[..];
            let mut wire_ev = &mut self.wire_events[..];
            let mut quiet = &mut self.quiet[..];
            let mut absorb_changed = &mut self.absorb_changed[..];
            let mut absorb_delta = &mut self.absorb_delta[..];
            let (mut agents, mut limits, fsh) = fleet.fused_control_parts();
            let mut chunks = due.chunks(per);
            let mut next_leaf = 0usize;
            let mut next_server = 0usize;
            let carve = || {
                let chunk = chunks.next().expect("one due chunk per shard");
                let lo = chunk[0];
                let hi = chunk[chunk.len() - 1] + 1;
                let (skip, take) = (lo - next_leaf, hi - lo);
                next_leaf = hi;
                let server_base = spans[lo].start;
                let (skip_servers, servers) =
                    (server_base - next_server, spans[hi - 1].end - server_base);
                next_server = server_base + servers;
                LeafJob {
                    due: chunk,
                    base: lo,
                    controllers: window(&mut controllers, skip, take),
                    networks: window(&mut networks, skip, take),
                    aggregates: window(&mut aggregates, skip, take),
                    failed: window(&mut failed, skip, take),
                    bufs: window(&mut bufs, skip, take),
                    wire: window(&mut wire, skip, take),
                    wire_ev: window(&mut wire_ev, skip, take),
                    shards: window(&mut obs_shards, skip, take),
                    quiet: window(&mut quiet, skip, take),
                    absorb_changed: window(&mut absorb_changed, skip, take),
                    absorb_delta: window(&mut absorb_delta, skip, take),
                    agents: window(&mut agents, skip_servers, servers),
                    limit_w: window(&mut limits, skip_servers, servers),
                    server_base,
                }
            };
            shard::run_sharded(pool, shards, carve, |job| {
                for &i in job.due {
                    let r = i - job.base;
                    job.bufs[r].clear();
                    fuse_sync_leaf(&fsh, i, job.agents, job.server_base);
                    if job.failed[r] {
                        // Backup takes over: one cycle of downtime,
                        // then the redundant instance (sharing the same
                        // decision state via its own polling)
                        // continues. The merge below records it — the
                        // shard cannot touch the shared counters.
                        job.failed[r] = false;
                        job.quiet[r] = false;
                        job.bufs[r].push(take_over(
                            now,
                            devices[i],
                            &job.controllers[r],
                            &mut job.shards[r],
                            ids,
                            i as u32,
                        ));
                    } else {
                        job.quiet[r] = run_one_leaf_cycle(
                            now,
                            devices[i],
                            &mut job.controllers[r],
                            &mut job.networks[r],
                            job.agents,
                            job.server_base,
                            &mut job.aggregates[r],
                            &mut job.bufs[r],
                            &mut job.shards[r],
                            ids,
                            i as u32,
                        );
                    }
                    wire_roundtrip_events(
                        &job.controllers[r],
                        &mut job.bufs[r],
                        &mut job.wire[r],
                        &mut job.wire_ev[r],
                    );
                    (job.absorb_changed[r], job.absorb_delta[r]) =
                        fuse_absorb_leaf(&fsh, i, job.agents, job.limit_w, job.server_base);
                }
            });
        }
        // Deterministic merge: drain the per-leaf event buffers in leaf
        // index order.
        for &i in due {
            for event in self.event_bufs[i].drain(..) {
                if matches!(event.kind, ControllerEventKind::Failover) {
                    failover.record_leaf(i);
                }
                events.push(event);
            }
        }
        fleet.finish_fused_control(due, &self.absorb_changed, &self.absorb_delta);
        // Capture the fleet markers the cycles saw (the control tick
        // does not step the fleet, so they have not moved).
        self.note_markers(due, fleet);
    }

    /// Captures the tier's dynamic state for a snapshot. Everything
    /// else — devices, quotas, spans, server ids — is topology-derived
    /// and rebuilt from config on restore. Event buffers are drained by
    /// every dispatch, so at a tick boundary they are empty and not
    /// saved.
    pub(crate) fn state(&self) -> LeafTierState {
        LeafTierState {
            controllers: self.controllers.iter().map(|c| c.state()).collect(),
            networks: self.networks.iter().map(|n| n.state()).collect(),
            last_aggregate_w: self.last_aggregate.iter().map(|p| p.as_watts()).collect(),
            quiet: self.quiet.clone(),
            seen_power_epoch: self.seen_power_epoch.clone(),
            seen_draw_tick: self.seen_draw_tick.clone(),
            seen_agent_epoch: self.seen_agent_epoch.clone(),
        }
    }

    /// Restores the tier's dynamic state from a decoded snapshot taken
    /// against an identically-configured control plane.
    pub(crate) fn restore(&mut self, state: &LeafTierState) -> Result<(), SnapError> {
        let n = self.len();
        if state.controllers.len() != n {
            return Err(SnapError::Corrupt(format!(
                "leaf tier snapshot has {} controllers, rebuilt control plane has {}",
                state.controllers.len(),
                n
            )));
        }
        for (c, s) in self.controllers.iter_mut().zip(&state.controllers) {
            c.restore(s)?;
        }
        for (net, s) in self.networks.iter_mut().zip(&state.networks) {
            net.restore(s);
        }
        for (p, &w) in self.last_aggregate.iter_mut().zip(&state.last_aggregate_w) {
            *p = Power::from_watts(w);
        }
        self.quiet.clone_from(&state.quiet);
        self.seen_power_epoch.clone_from(&state.seen_power_epoch);
        self.seen_draw_tick.clone_from(&state.seen_draw_tick);
        self.seen_agent_epoch.clone_from(&state.seen_agent_epoch);
        Ok(())
    }
}

/// The leaf tier's dynamic state: controller decision state, RPC RNG
/// streams, last aggregates, and the quiescence markers that drive
/// cycle elision. The markers must round-trip exactly or a resumed run
/// would elide (or re-run) cycles the unbroken run did not.
pub(crate) struct LeafTierState {
    pub(crate) controllers: Vec<LeafControllerState>,
    pub(crate) networks: Vec<NetworkState>,
    pub(crate) last_aggregate_w: Vec<f64>,
    pub(crate) quiet: Vec<bool>,
    pub(crate) seen_power_epoch: Vec<u64>,
    pub(crate) seen_draw_tick: Vec<u64>,
    pub(crate) seen_agent_epoch: Vec<u64>,
}

impl Snapshot for LeafTierState {
    const KIND: &'static str = "dynamo.LeafTierState";
    const VERSION: u32 = 1;

    fn encode_body(&self, w: &mut SnapWriter) {
        w.put_u64(self.controllers.len() as u64);
        for c in &self.controllers {
            c.encode_body(w);
        }
        w.put_u64(self.networks.len() as u64);
        for n in &self.networks {
            n.encode_body(w);
        }
        put_f64_slice(w, &self.last_aggregate_w);
        put_bool_slice(w, &self.quiet);
        put_u64_slice(w, &self.seen_power_epoch);
        put_u64_slice(w, &self.seen_draw_tick);
        put_u64_slice(w, &self.seen_agent_epoch);
    }

    fn decode_body(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let nc = r.get_u64()? as usize;
        let mut controllers = Vec::with_capacity(nc.min(1 << 20));
        for _ in 0..nc {
            controllers.push(LeafControllerState::decode_body(r)?);
        }
        let nn = r.get_u64()? as usize;
        let mut networks = Vec::with_capacity(nn.min(1 << 20));
        for _ in 0..nn {
            networks.push(NetworkState::decode_body(r)?);
        }
        let state = LeafTierState {
            controllers,
            networks,
            last_aggregate_w: get_f64_vec(r)?,
            quiet: get_bool_vec(r)?,
            seen_power_epoch: get_u64_vec(r)?,
            seen_draw_tick: get_u64_vec(r)?,
            seen_agent_epoch: get_u64_vec(r)?,
        };
        let n = state.controllers.len();
        if state.networks.len() != n
            || state.last_aggregate_w.len() != n
            || state.quiet.len() != n
            || state.seen_power_epoch.len() != n
            || state.seen_draw_tick.len() != n
            || state.seen_agent_epoch.len() != n
        {
            return Err(SnapError::Corrupt(
                "leaf tier snapshot arrays disagree on leaf count".into(),
            ));
        }
        Ok(state)
    }
}

/// Carves elements `skip..skip + take` off the front of `*rest`.
fn window<'a, T>(rest: &mut &'a mut [T], skip: usize, take: usize) -> &'a mut [T] {
    front_mut(rest, skip);
    front_mut(rest, take)
}

/// A backup controller taking over after a primary failure: records the
/// takeover in the leaf's shard and builds its event. The caller skips
/// the leaf's cycle.
fn take_over(
    now: SimTime,
    device: DeviceId,
    controller: &LeafController,
    shard: &mut Shard,
    ids: &ObsIds,
    track: u32,
) -> ControllerEvent {
    let name = controller.name_shared();
    record_leaf_failover(shard, ids, now, track, Arc::clone(&name));
    ControllerEvent {
        at: now,
        device,
        controller: name,
        kind: ControllerEventKind::Failover,
    }
}

/// One leaf controller cycle against its private agent span.
///
/// `agents` is the shard's slice of agents and `span_start` the server
/// id of `agents[0]`.
///
/// Returns whether the cycle was *quiescent* — a clean Hold with no
/// pull failures and no caps left active — which is the controller-side
/// half of the elision precondition (see
/// [`LeafTier::filter_quiescent`]).
#[allow(clippy::too_many_arguments)]
fn run_one_leaf_cycle(
    now: SimTime,
    device: DeviceId,
    controller: &mut LeafController,
    network: &mut Network,
    agents: &mut [Agent],
    span_start: usize,
    last_aggregate: &mut Power,
    events: &mut Vec<ControllerEvent>,
    shard: &mut Shard,
    ids: &ObsIds,
    track: u32,
) -> bool {
    let caps_before = controller.active_cap_count();
    let dry_run = controller.config().dry_run;
    let mut pull_rtt = SimDuration::ZERO;
    let mut act_rtt = SimDuration::ZERO;
    // Per-RPC recording runs a couple of thousand times per cycle, so
    // the counters accumulate in locals (one shard add at the end —
    // same totals) and RTTs go through a HistScope, which hoists the
    // shard's per-observation indirections out of the loop. Same
    // slots, same sums, same order: the merged registry stays
    // bit-identical to per-call shard recording.
    let mut rpc_calls = 0u64;
    let mut rpc_agent_down = 0u64;
    let mut rpc_drops = 0u64;
    let mut rpc_timeouts = 0u64;
    let mut rtt_hist = shard.hist_scope(ids.rpc_rtt);
    let outcome = controller.cycle(now, |sid, req| {
        let agent = &mut agents[sid as usize - span_start];
        rpc_calls += 1;
        if !agent.is_running() {
            rpc_agent_down += 1;
            return Err(RpcError::AgentDown);
        }
        let pulling = matches!(req, Request::ReadPower);
        match network.call_with_latency(agent, req) {
            Ok((resp, rtt)) => {
                rtt_hist.observe(rtt.as_secs_f64());
                if pulling {
                    pull_rtt += rtt;
                } else {
                    act_rtt += rtt;
                }
                Ok(resp)
            }
            Err(err) => {
                match err {
                    RpcError::Dropped => rpc_drops += 1,
                    RpcError::Timeout => rpc_timeouts += 1,
                    RpcError::AgentDown => {}
                }
                Err(err)
            }
        }
    });
    drop(rtt_hist);
    shard.add(ids.rpc_calls, rpc_calls);
    shard.add(ids.rpc_agent_down, rpc_agent_down);
    shard.add(ids.rpc_drops, rpc_drops);
    shard.add(ids.rpc_timeouts, rpc_timeouts);
    if let Some(total) = outcome.aggregated {
        *last_aggregate = total;
    }
    shard.inc(ids.leaf_cycles);
    shard.add(ids.pull_failures, outcome.pull_failures as u64);
    shard.add(ids.estimated_readings, outcome.estimated as u64);
    shard.inc(match band_of(&outcome.action) {
        Band::Hold => ids.band_hold,
        Band::Cap => ids.band_cap,
        Band::Uncap => ids.band_uncap,
        Band::Invalid => ids.band_invalid,
    });
    if shard.is_enabled() {
        record_leaf_cycle(
            shard,
            ids,
            now,
            track,
            controller,
            &outcome,
            caps_before,
            dry_run,
            pull_rtt,
            act_rtt,
        );
    }
    let kind = match &outcome.action {
        ControlAction::Capped {
            total_cut,
            commands,
        } => Some(ControllerEventKind::LeafCapped {
            total_cut: *total_cut,
            servers: commands.len(),
        }),
        ControlAction::Uncapped => Some(ControllerEventKind::LeafUncapped),
        ControlAction::Invalid => Some(ControllerEventKind::LeafInvalid {
            failures: outcome.pull_failures,
        }),
        ControlAction::Hold => None,
    };
    if let Some(kind) = kind {
        events.push(ControllerEvent {
            at: now,
            device,
            controller: controller.name_shared(),
            kind,
        });
    }
    matches!(outcome.action, ControlAction::Hold)
        && outcome.pull_failures == 0
        && controller.active_cap_count() == 0
}

/// One controller event as a wire telemetry event. Lossless: the watt
/// field crosses as the raw `f64` bit pattern and the counts are far
/// below `u32::MAX`, so [`from_wire`] rebuilds an equal event.
fn to_wire(ev: &ControllerEvent) -> TelemetryEvent {
    TelemetryEvent {
        at_ms: ev.at.as_millis(),
        device: ev.device.index() as u32,
        kind: match ev.kind {
            ControllerEventKind::LeafCapped { total_cut, servers } => TelemetryEventKind::Capped {
                cut_watts: total_cut.as_watts(),
                servers: servers as u32,
            },
            ControllerEventKind::LeafUncapped => TelemetryEventKind::Uncapped,
            ControllerEventKind::LeafInvalid { failures } => TelemetryEventKind::Invalid {
                failures: failures as u32,
            },
            ControllerEventKind::UpperCapped { contracts } => TelemetryEventKind::UpperCapped {
                contracts: contracts as u32,
            },
            ControllerEventKind::UpperUncapped => TelemetryEventKind::UpperUncapped,
            ControllerEventKind::Failover => TelemetryEventKind::Failover,
        },
    }
}

/// Rebuilds a controller event from its wire form. Controller identity
/// travels out of band — the batch is per-controller — so the caller
/// passes the leaf's interned name and the rebuild allocates nothing.
fn from_wire(ev: &TelemetryEvent, controller: &Arc<str>) -> ControllerEvent {
    ControllerEvent {
        at: SimTime::from_millis(ev.at_ms),
        device: DeviceId::from_index(ev.device as usize),
        controller: Arc::clone(controller),
        kind: match ev.kind {
            TelemetryEventKind::Capped { cut_watts, servers } => ControllerEventKind::LeafCapped {
                total_cut: Power::from_watts(cut_watts),
                servers: servers as usize,
            },
            TelemetryEventKind::Uncapped => ControllerEventKind::LeafUncapped,
            TelemetryEventKind::Invalid { failures } => ControllerEventKind::LeafInvalid {
                failures: failures as usize,
            },
            TelemetryEventKind::UpperCapped { contracts } => ControllerEventKind::UpperCapped {
                contracts: contracts as usize,
            },
            TelemetryEventKind::UpperUncapped => ControllerEventKind::UpperUncapped,
            TelemetryEventKind::Failover => ControllerEventKind::Failover,
        },
    }
}

/// Round-trips one leaf's freshly-buffered cycle events through the
/// [`dynrpc::codec`] telemetry-batch wire format, inside the shard that
/// produced them. The deployed system serializes telemetry off the
/// controller host; doing the encode *and* the decode here keeps that
/// cost on the tick, in the shard, and proves the format lossless on
/// every event the simulation ever emits. Quiescent leaves emit no
/// events and skip entirely, so the steady state stays allocation-free;
/// churning leaves reuse the warm wire/scratch buffers.
fn wire_roundtrip_events(
    controller: &LeafController,
    buf: &mut Vec<ControllerEvent>,
    wire: &mut Vec<u8>,
    scratch: &mut Vec<TelemetryEvent>,
) {
    if buf.is_empty() {
        return;
    }
    wire.clear();
    scratch.clear();
    for ev in buf.iter() {
        scratch.push(to_wire(ev));
    }
    codec::encode_telemetry_batch_into(wire, scratch);
    scratch.clear();
    codec::decode_telemetry_batch_into(&*wire, scratch)
        .expect("self-encoded telemetry batch must decode");
    let name = controller.name_shared();
    buf.clear();
    for ev in scratch.iter() {
        buf.push(from_wire(ev, &name));
    }
}

/// Each leaf's server ids as one contiguous ascending range, the ranges
/// tiling `0..server_count` in leaf order — the precondition for
/// handing each leaf a disjoint `&mut [Agent]` slice via progressive
/// splits. [`powerinfra::TopologyBuilder`], the only way to construct a
/// topology, always lays servers out this way.
///
/// # Panics
///
/// Panics, naming the offending leaf, if the layout is anything else.
fn tile_leaf_spans(controllers: &[LeafController], server_count: usize) -> Vec<Range<usize>> {
    let mut next = 0usize;
    let spans = controllers
        .iter()
        .map(|c| {
            let start = next;
            for h in c.servers() {
                assert_eq!(
                    h.server_id as usize,
                    next,
                    "leaf {} does not own a contiguous server range in leaf order",
                    c.name_shared()
                );
                next += 1;
            }
            assert!(next > start, "leaf {} has no servers", c.name_shared());
            start..next
        })
        .collect();
    assert_eq!(next, server_count, "leaf spans must cover the fleet");
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(name: &str, ids: &[u32]) -> LeafController {
        let servers = ids
            .iter()
            .map(|&server_id| ServerHandle {
                server_id,
                service: ServiceClass::new("web", 1, Power::from_watts(200.0)),
            })
            .collect();
        LeafController::new(name, LeafConfig::new(Power::from_kilowatts(100.0)), servers)
    }

    #[test]
    fn contiguous_leaves_tile_the_fleet() {
        let leaves = [leaf("a", &[0, 1, 2]), leaf("b", &[3, 4]), leaf("c", &[5])];
        assert_eq!(tile_leaf_spans(&leaves, 6), vec![0..3, 3..5, 5..6]);
    }

    #[test]
    #[should_panic(expected = "leaf rpp-b does not own a contiguous server range")]
    fn a_gap_names_the_offending_leaf() {
        tile_leaf_spans(&[leaf("rpp-a", &[0, 1]), leaf("rpp-b", &[3, 4])], 5);
    }

    #[test]
    #[should_panic(expected = "leaf rpp-b does not own a contiguous server range")]
    fn interleaved_leaves_name_the_offending_leaf() {
        tile_leaf_spans(&[leaf("rpp-a", &[0, 1]), leaf("rpp-b", &[3, 2])], 4);
    }

    #[test]
    #[should_panic(expected = "leaf spans must cover the fleet")]
    fn a_short_tiling_panics() {
        tile_leaf_spans(&[leaf("rpp-a", &[0, 1, 2])], 4);
    }
}
