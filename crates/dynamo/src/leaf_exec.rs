//! The leaf controller tier: one [`LeafController`] per RPP and the
//! one dispatch that runs their cycles.
//!
//! [`LeafTier::run_due`] runs only the leaves the
//! [`crate::events::CycleDispatcher`] marked due this tick (minus the
//! provably quiescent ones), carved into contiguous shards — as many as
//! the attached [`WorkerPool`] has workers, one (run inline on the
//! caller) without a pool. This mirrors the paper's consolidated binary
//! running ~100 controller threads (§IV): each shard owns the entries
//! of its leaves' servers in the fleet's writable columns and every
//! leaf's RPC RNG stream is its own, so a cycle computes the same thing
//! in any shard; events are buffered per leaf and merged in leaf-index
//! order after the join, making the whole run bit-identical at any
//! width. Shard jobs are stack slots holding disjoint slices of the
//! tier's parallel arrays, so a warm steady-state dispatch allocates
//! nothing.
//!
//! A cycle's RPCs land on the fleet's columns directly: the shard
//! borrows a [`LeafAgents`] view of the leaf, `ReadPower` reads the
//! settled output in place and `SetCap` / `ClearCap` write the limit
//! column in place. Nothing is copied in before the cycle or out after
//! it; the view hands back only whether a limit changed and how the
//! capped tally moved, which the fleet folds in after the join (see
//! [`crate::fleet`]'s state-ownership notes).

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use dcsim::snap::{
    get_bool_vec, get_f64_vec, get_u64_vec, put_bool_slice, put_f64_slice, put_u64_slice,
    SnapError, SnapReader, SnapWriter, Snapshot,
};
use dcsim::{SimDuration, SimRng, SimTime};
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
use crate::fleet::{AgentColumns, Fleet, LeafAgents};
use crate::obs::{band_of, record_leaf_cycle, record_leaf_failover, ObsIds, Observability};
use crate::shard::{self, front_mut};

/// The leaf tier as parallel arrays, so cycles can split borrows.
pub(crate) struct LeafTier {
    pub(crate) devices: Vec<DeviceId>,
    pub(crate) controllers: Vec<LeafController>,
    networks: Vec<Network>,
    pub(crate) last_aggregate: Vec<Power>,
    /// Each leaf's contiguous ascending server-id range; the ranges
    /// tile `0..server_count` in leaf order, so the dispatch can carve
    /// each shard its servers' entries of the fleet's columns.
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
    /// What each leaf's agent view reported at the end of its cycle —
    /// whether any limit bit changed, and the signed capped-count
    /// delta — recorded by the shards and applied serially after the
    /// join by [`Fleet::finish_fused_control`]. Meaningful only for the
    /// leaves of the last dispatch's due set.
    cap_changed: Vec<bool>,
    cap_delta: Vec<i64>,
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
            cap_changed: vec![false; n],
            cap_delta: vec![0; n],
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
        let (shards, ids) = obs.shard_ctx();
        for &i in due {
            let elidable = self.quiet[i]
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
            self.last_aggregate[i] = fleet.leaf_power(i);
        }
    }

    /// Runs the due leaves' cycles. The due set is cut into contiguous
    /// chunks, one shard each ([`shard::chunking`] over `pool`); a
    /// shard holds disjoint `&mut` slices of the tier's parallel arrays
    /// and its servers' entries of the fleet's writable columns, split
    /// once at chunk boundaries. Per leaf, in the shard: run the cycle
    /// against the leaf's agent view (or consume a pending primary
    /// failure), then round-trip the emitted events through the
    /// telemetry wire format. After the join, events are merged in leaf
    /// index order and the views' cap notes are folded into the fleet,
    /// so the result is bit-identical at any width.
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
            cap_changed: &'a mut [bool],
            cap_delta: &'a mut [i64],
            /// The fleet's columns, carved to this shard's servers.
            columns: AgentColumns<'a>,
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
            let mut cap_changed = &mut self.cap_changed[..];
            let mut cap_delta = &mut self.cap_delta[..];
            let mut columns = fleet.agent_columns();
            let mut chunks = due.chunks(per);
            let mut next_leaf = 0usize;
            let carve = || {
                let chunk = chunks.next().expect("one due chunk per shard");
                let lo = chunk[0];
                let hi = chunk[chunk.len() - 1] + 1;
                let (skip, take) = (lo - next_leaf, hi - lo);
                next_leaf = hi;
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
                    cap_changed: window(&mut cap_changed, skip, take),
                    cap_delta: window(&mut cap_delta, skip, take),
                    columns: columns.carve(spans[lo].start..spans[hi - 1].end),
                }
            };
            shard::run_sharded(pool, shards, carve, |job| {
                for &i in job.due {
                    let r = i - job.base;
                    job.bufs[r].clear();
                    let mut agents = job.columns.leaf(i);
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
                            &mut agents,
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
                    (job.cap_changed[r], job.cap_delta[r]) = agents.finish();
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
        fleet.finish_fused_control(due, &self.cap_changed, &self.cap_delta);
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
        let state = LeafTierState {
            controllers: r.get_vec(LeafControllerState::decode_body)?,
            networks: r.get_vec(NetworkState::decode_body)?,
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

/// One leaf controller cycle against the leaf's agent view.
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
    agents: &mut LeafAgents<'_>,
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
        let mut agent = agents.agent(sid);
        rpc_calls += 1;
        if !agent.is_running() {
            rpc_agent_down += 1;
            return Err(RpcError::AgentDown);
        }
        let pulling = matches!(req, Request::ReadPower);
        match network.call_with_latency(&mut agent, req) {
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
/// carving each shard its servers' column entries via progressive
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
