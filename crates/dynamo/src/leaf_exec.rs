//! The leaf controller tier: one [`Leaf`] per RPP — its
//! [`LeafController`] with everything a cycle mutates — and the one
//! dispatch that runs their cycles.
//!
//! [`LeafTier::run_due`] runs only the leaves the
//! [`crate::events::CycleDispatcher`] marked due this tick (minus the
//! provably quiescent ones), cut into contiguous shards — as many as
//! the attached [`WorkerPool`] has workers, one (run inline on the
//! caller) without a pool. This mirrors the paper's consolidated binary
//! running ~100 controller threads (§IV). A shard is two sub-slices:
//! its leaves here and the same leaves of the fleet
//! ([`Fleet::agent_leaves`]). A leaf on either side owns its state, so
//! a cycle computes the same thing in any shard and leaves nothing to
//! apply after the join except what is shared: events are buffered per
//! leaf and merged in leaf-index order, and so is what the cycle
//! recorded — the leaf's [`dynobs::Shard`], filled from the cycle's RPC
//! tally and round-trip buffer when the cycle ends and merged, for the
//! leaves that ran, by [`Observability::merge_leaves`] — making the
//! whole run bit-identical at any width, and a warm steady-state
//! dispatch allocates nothing.
//!
//! A cycle reaches its leaf's columns through a [`LeafLink`] — the
//! leaf's [`Network`] in front of a borrowed [`LeafAgents`] view —
//! which is the controller's [`LeafTransport`]. Step 1 of the cycle,
//! the pull, is not 160 RPC round trips through a handler but two
//! passes over the leaf's columns: the first walks the leaf's link
//! stream alone and decides every call's fate ([`Network::attempt`]:
//! drop, timeout, round trip; a crashed agent costs no draw), the
//! second reads each delivered server through
//! [`serverpower::ServerModel::read_power`] on its own noise stream,
//! writing readings and the failed list in place. The link stream and
//! the agents' streams are independent and each is consumed in exactly
//! the per-call order, so the split changes no draw (the test
//! `two_pass_pull_is_the_per_call_pull` pins it against the trait's
//! provided per-call loop). `SetCap` / `ClearCap` go one call at a
//! time through the same link and land on the `dynamo_agent::Host`
//! handler, writing the limit column in place (see [`crate::fleet`]).

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use dcsim::snap::{
    get_bool_vec, get_f64_vec, get_u64_vec, put_bool_slice, put_f64_slice, put_u64_slice,
    SnapError, SnapReader, SnapWriter, Snapshot,
};
use dcsim::{SimDuration, SimRng, SimTime};
use dynamo_controller::{
    ControlAction, LeafConfig, LeafController, LeafControllerState, LeafTransport, ServerHandle,
    ServiceClass,
};
use dynobs::{Band, Shard};
use dynpool::WorkerPool;
use dynrpc::{AgentEndpoint, Network, NetworkState, Request, Response, RpcError};
use powerinfra::{DeviceId, DeviceLevel, Power, Topology};

use crate::control_plane::SystemConfig;
use crate::events::{ControllerEvent, ControllerEventKind};
use crate::failover::Failover;
use crate::fleet::{Fleet, LeafAgents, LeafColumns, Markers};
use crate::obs::{band_of, record_leaf_cycle, record_leaf_failover, ObsIds, Observability};
use crate::shard::{self, front_mut};

/// One leaf controller and everything its cycle mutates.
pub(crate) struct Leaf {
    pub(crate) controller: LeafController,
    /// The controller's link to its agents, with its own RNG stream.
    network: Network,
    /// The last aggregate the controller computed; upper tiers read it.
    pub(crate) last_aggregate: Power,
    /// Planned-peak quota from topology metadata.
    pub(crate) quota: Power,
    /// The leaf's last real cycle was a clean Hold — no pull failures,
    /// no active caps, no failover takeover — so, as long as `seen`
    /// still matches the fleet and the link is lossless, re-running the
    /// cycle would observe the same fleet state and decide Hold again.
    /// Cleared by anything that could change the next decision from
    /// outside the fleet: an upper directive, an operator contract
    /// override, a rollout-phase flip, a primary failover.
    pub(crate) quiet: bool,
    /// The fleet leaf's markers as of the last real cycle
    /// ([`NEVER_RAN`] before the first). See
    /// [`LeafTier::filter_quiescent`].
    seen: Markers,
    /// The primary has crashed: the next cycle is skipped while the
    /// backup takes over (§III-E).
    pub(crate) failed: bool,
    /// The leaf's recording shard (see [`crate::obs`]): written by the
    /// leaf's cycle, merged and emptied after the dispatch that ran it.
    pub(crate) obs: Shard,
    /// The band the leaf's last recorded cycle landed in, to tell a
    /// band transition from a repeat.
    pub(crate) band: Band,
    /// The round trips of the cycle's delivered RPCs, in call order,
    /// handed to the shard in one batch when the cycle ends. Reused
    /// across cycles (cleared, capacity kept); untouched with
    /// observability off.
    rtts: Vec<f64>,
    /// The cycle's events, merged in leaf index order after the join.
    /// Reused across dispatches (cleared, capacity kept).
    events: Vec<ControllerEvent>,
}

/// [`Leaf::seen`] before the leaf's first real cycle.
const NEVER_RAN: Markers = Markers {
    power_epoch: u64::MAX,
    draw_tick: u64::MAX,
    agent_epoch: u64::MAX,
};

/// The leaf tier: its leaves, plus the immutable per-leaf geometry the
/// public accessors return as slices.
pub(crate) struct LeafTier {
    pub(crate) leaves: Vec<Leaf>,
    pub(crate) devices: Vec<DeviceId>,
    /// Each leaf's contiguous ascending server-id range; the ranges
    /// tile `0..server_count` in leaf order, and the fleet is
    /// partitioned on exactly these.
    pub(crate) spans: Vec<Range<usize>>,
    pub(crate) index_of: HashMap<DeviceId, usize>,
}

impl LeafTier {
    /// Builds one leaf controller per RPP in `topo`, in device order,
    /// each recording into its own shard of `obs`.
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
        obs: &Observability,
    ) -> Self {
        let devices = topo.devices_at(DeviceLevel::Rpp);
        assert!(!devices.is_empty(), "topology has no RPPs to protect");

        let mut leaves = Vec::new();
        let mut index_of = HashMap::new();
        for &rpp in &devices {
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
                non_server_overhead: Power::ZERO,
                dry_run: config.dry_run,
            };
            index_of.insert(rpp, leaves.len());
            leaves.push(Leaf {
                controller: LeafController::new(dev.name.clone(), leaf_config, servers),
                network: Network::new(config.rpc, rng.split(&dev.name)),
                last_aggregate: Power::ZERO,
                quota: dev.quota,
                quiet: false,
                seen: NEVER_RAN,
                failed: false,
                obs: obs.new_shard(),
                band: Band::Hold,
                rtts: Vec::new(),
                events: Vec::new(),
            });
        }
        let spans = tile_leaf_spans(leaves.iter().map(|l| &l.controller), topo.server_count());
        LeafTier {
            leaves,
            devices,
            spans,
            index_of,
        }
    }

    /// Splits `due` into the leaves that must run and the cycles that
    /// can be elided, pushing the former into `out` (cleared first) in
    /// the same ascending order; the rest of `due` is the elided tally.
    ///
    /// A leaf's cycle is elided only when it is *provably* a no-op
    /// recomputation: the leaf decided a clean Hold last time
    /// ([`Leaf::quiet`]), its link cannot drop or time out, no
    /// failover is pending, and every marker of its fleet leaf — power
    /// epoch, demand-redraw tick, agent epoch — still reads what the
    /// last real cycle captured. The elided cycle's RPC and
    /// sensor-noise RNG draws are *not* consumed, so elision (like the
    /// demand hold that enables it — with `demand_hold == 1` the redraw
    /// tick changes every tick and nothing ever elides) changes the
    /// trajectory relative to a run without it, while remaining
    /// deterministic and thread-count independent.
    pub(crate) fn filter_quiescent(&self, due: &[usize], fleet: &Fleet, out: &mut Vec<usize>) {
        out.clear();
        for &i in due {
            let leaf = &self.leaves[i];
            let elidable = leaf.quiet
                && !leaf.failed
                && leaf.network.profile().is_lossless()
                && leaf.seen == fleet.leaves()[i].markers();
            if !elidable {
                out.push(i);
            }
        }
    }

    /// Number of leaf controllers.
    pub(crate) fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Monitoring-only baseline (capping disabled): no RPC cycle runs;
    /// each due leaf just tracks its true aggregate so upper tiers and
    /// telemetry still see power. The fleet leaf's partial (maintained
    /// by its step as the same ascending fold) makes this a single
    /// lookup.
    pub(crate) fn monitor_due(
        &mut self,
        now: SimTime,
        due: &[usize],
        failover: &mut Failover,
        fleet: &Fleet,
        events: &mut Vec<ControllerEvent>,
        ids: &ObsIds,
    ) {
        for &i in due {
            let leaf = &mut self.leaves[i];
            if std::mem::take(&mut leaf.failed) {
                failover.record_leaf(i);
                events.push(leaf.take_over(now, self.devices[i], ids, i as u32));
                continue;
            }
            leaf.last_aggregate = fleet.leaf_power(i);
        }
    }

    /// Runs the due leaves' cycles. The due set is cut into contiguous
    /// chunks, one shard each ([`shard::chunking`] over `pool`); a
    /// shard holds the sub-slice of the tier's leaves and of the
    /// fleet's leaves from its first due leaf to its last, so it may
    /// include non-due leaves — it walks only its `due` sublist. Per
    /// leaf, in the shard: [`Leaf::run`] against the leaf's agent view.
    /// After the join, events are merged in leaf index order, so the
    /// result is bit-identical at any width.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_due(
        &mut self,
        now: SimTime,
        due: &[usize],
        pool: Option<&WorkerPool>,
        failover: &mut Failover,
        fleet: &mut Fleet,
        events: &mut Vec<ControllerEvent>,
        ids: &ObsIds,
    ) {
        struct LeafJob<'a> {
            due: &'a [usize],
            /// Leaf index of element 0 of both slices.
            base: usize,
            leaves: &'a mut [Leaf],
            columns: &'a mut [LeafColumns],
        }

        let (per, shards) = shard::chunking(pool, due.len());
        let devices = &self.devices;
        let mut leaves = &mut self.leaves[..];
        let (mut columns, models) = fleet.agent_leaves();
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
                leaves: window(&mut leaves, skip, take),
                columns: window(&mut columns, skip, take),
            }
        };
        shard::run_sharded(pool, shards, carve, |job| {
            for &i in job.due {
                let r = i - job.base;
                let mut agents = LeafAgents::new(&mut job.columns[r], models);
                job.leaves[r].run(now, devices[i], &mut agents, ids, i as u32);
            }
        });
        // Deterministic merge: drain the per-leaf event buffers in leaf
        // index order, counting each takeover into the shared tallies
        // the shards cannot touch.
        for &i in due {
            for event in self.leaves[i].events.drain(..) {
                if matches!(event.kind, ControllerEventKind::Failover) {
                    failover.record_leaf(i);
                }
                events.push(event);
            }
        }
    }

    /// Captures the tier's dynamic state for a snapshot, gathered from
    /// the leaves into flat arrays (the pending-failure flags and last
    /// bands travel in the failover and observability sections —
    /// see [`crate::control_plane::DynamoSystem::state`]). Everything
    /// else — devices, quotas, spans, server ids — is topology-derived
    /// and rebuilt from config on restore. Event buffers are drained by
    /// every dispatch, so at a tick boundary they are empty and not
    /// saved.
    pub(crate) fn state(&self) -> LeafTierState {
        let leaves = &self.leaves;
        LeafTierState {
            controllers: leaves.iter().map(|l| l.controller.state()).collect(),
            networks: leaves.iter().map(|l| l.network.state()).collect(),
            last_aggregate_w: leaves.iter().map(|l| l.last_aggregate.as_watts()).collect(),
            quiet: leaves.iter().map(|l| l.quiet).collect(),
            seen_power_epoch: leaves.iter().map(|l| l.seen.power_epoch).collect(),
            seen_draw_tick: leaves.iter().map(|l| l.seen.draw_tick).collect(),
            seen_agent_epoch: leaves.iter().map(|l| l.seen.agent_epoch).collect(),
        }
    }

    /// Restores the tier's dynamic state from a decoded snapshot taken
    /// against an identically-configured control plane: the flat
    /// arrays, the failover section's pending-failure flags and the
    /// observability section's band codes, split back into the leaves.
    pub(crate) fn restore(
        &mut self,
        state: &LeafTierState,
        failed: &[bool],
        shard_bands: &[u32],
    ) -> Result<(), SnapError> {
        let n = self.len();
        // `decode_body` held the state's other arrays to this length.
        if state.controllers.len() != n || failed.len() != n || shard_bands.len() != n {
            return Err(SnapError::Corrupt(format!(
                "snapshot has {} leaf controllers, {} leaf failover flags and {} leaf shards, \
                 rebuilt control plane has {n} leaves",
                state.controllers.len(),
                failed.len(),
                shard_bands.len()
            )));
        }
        for (i, leaf) in self.leaves.iter_mut().enumerate() {
            leaf.band = Band::from_code(shard_bands[i]).ok_or_else(|| {
                SnapError::Corrupt(format!("leaf {i} has unknown band code {}", shard_bands[i]))
            })?;
            leaf.controller.restore(&state.controllers[i])?;
            leaf.network.restore(&state.networks[i]);
            leaf.last_aggregate = Power::from_watts(state.last_aggregate_w[i]);
            leaf.quiet = state.quiet[i];
            leaf.seen = Markers {
                power_epoch: state.seen_power_epoch[i],
                draw_tick: state.seen_draw_tick[i],
                agent_epoch: state.seen_agent_epoch[i],
            };
            leaf.failed = failed[i];
        }
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

impl Leaf {
    /// One due cycle, in whichever shard the leaf landed: the cycle
    /// against the leaf's agent view (or the backup's takeover), and
    /// the markers the cycle saw (the control tick does not step the
    /// fleet, and a cap write moves no marker, so they read the same
    /// before and after it).
    fn run(
        &mut self,
        now: SimTime,
        device: DeviceId,
        agents: &mut LeafAgents<'_>,
        ids: &ObsIds,
        track: u32,
    ) {
        self.events.clear();
        if std::mem::take(&mut self.failed) {
            // One cycle of downtime, then the redundant instance
            // (sharing the same decision state via its own polling)
            // continues.
            self.quiet = false;
            let event = self.take_over(now, device, ids, track);
            self.events.push(event);
        } else {
            self.quiet = self.cycle(now, device, agents, ids, track);
        }
        self.seen = agents.markers();
    }

    /// The backup controller taking over after a primary failure:
    /// records the takeover in the leaf's shard and builds its event.
    /// The caller skips the leaf's cycle.
    fn take_over(
        &mut self,
        now: SimTime,
        device: DeviceId,
        ids: &ObsIds,
        track: u32,
    ) -> ControllerEvent {
        let name = self.controller.name_shared();
        record_leaf_failover(&mut self.obs, ids, now, track, Arc::clone(&name));
        ControllerEvent {
            at: now,
            device,
            controller: name,
            kind: ControllerEventKind::Failover,
        }
    }

    /// One controller cycle against the leaf's agent view, its event
    /// (if any) buffered in `events`.
    ///
    /// Returns whether the cycle was *quiescent* — a clean Hold with no
    /// pull failures and no caps left active — which is the
    /// controller-side half of the elision precondition (see
    /// [`LeafTier::filter_quiescent`]).
    fn cycle(
        &mut self,
        now: SimTime,
        device: DeviceId,
        agents: &mut LeafAgents<'_>,
        ids: &ObsIds,
        track: u32,
    ) -> bool {
        let caps_before = self.controller.active_cap_count();
        let dry_run = self.controller.config().dry_run;
        let shard = &mut self.obs;
        let mut link = LeafLink {
            network: &mut self.network,
            agents,
            rtts: shard.is_enabled().then_some(&mut self.rtts),
            tally: RpcTally::default(),
        };
        let outcome = self.controller.cycle_over(now, &mut link);
        let RpcTally {
            pull_rtt,
            act_rtt,
            calls,
            agent_down,
            drops,
            timeouts,
        } = link.tally;
        shard.observe_batch(ids.rpc_rtt, &self.rtts);
        self.rtts.clear();
        shard.add(ids.rpc_calls, calls);
        shard.add(ids.rpc_agent_down, agent_down);
        shard.add(ids.rpc_drops, drops);
        shard.add(ids.rpc_timeouts, timeouts);
        if let Some(total) = outcome.aggregated {
            self.last_aggregate = total;
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
                &mut self.band,
                ids,
                now,
                track,
                &self.controller,
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
            self.events.push(ControllerEvent {
                at: now,
                device,
                controller: self.controller.name_shared(),
                kind,
            });
        }
        matches!(outcome.action, ControlAction::Hold)
            && outcome.pull_failures == 0
            && self.controller.active_cap_count() == 0
    }
}

/// One leaf's transport for one cycle: its [`Network`] link in front of
/// its agent view, plus the cycle's RPC accounting.
///
/// Per-RPC recording runs a couple of hundred times per cycle, so the
/// counters accumulate here (one shard add each at the end — same
/// totals) and a delivered call's round trip is one store into the
/// leaf's buffer, folded into the RTT histogram in one batch when the
/// cycle ends ([`Shard::observe_batch`]). Same slots, same sums, same
/// order: the merged registry stays bit-identical to per-call shard
/// recording.
struct LeafLink<'c, 'a> {
    network: &'c mut Network,
    agents: &'c mut LeafAgents<'a>,
    /// [`Leaf::rtts`]; `None` with observability off.
    rtts: Option<&'c mut Vec<f64>>,
    tally: RpcTally,
}

/// What one cycle's RPCs added up to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct RpcTally {
    /// Summed round trips of delivered reads / actuations.
    pull_rtt: SimDuration,
    act_rtt: SimDuration,
    calls: u64,
    agent_down: u64,
    drops: u64,
    timeouts: u64,
}

impl LeafLink<'_, '_> {
    /// The link half of one call to server `sid`: a crashed agent
    /// answers nothing and costs no link draw; otherwise the link
    /// decides ([`Network::attempt`]). Counts the outcome and observes
    /// a delivered call's round trip.
    #[inline(always)]
    fn attempt(&mut self, sid: u32) -> Result<SimDuration, RpcError> {
        self.tally.calls += 1;
        if !self.agents.is_running(sid) {
            self.tally.agent_down += 1;
            return Err(RpcError::AgentDown);
        }
        match self.network.attempt() {
            Ok(rtt) => {
                if let Some(rtts) = &mut self.rtts {
                    rtts.push(rtt.as_secs_f64());
                }
                Ok(rtt)
            }
            Err(err) => {
                match err {
                    RpcError::Dropped => self.tally.drops += 1,
                    RpcError::Timeout => self.tally.timeouts += 1,
                    RpcError::AgentDown => {}
                }
                Err(err)
            }
        }
    }
}

impl LeafTransport for LeafLink<'_, '_> {
    fn call(&mut self, sid: u32, req: Request) -> Result<Response, RpcError> {
        let rtt = self.attempt(sid)?;
        if matches!(req, Request::ReadPower) {
            self.tally.pull_rtt += rtt;
        } else {
            self.tally.act_rtt += rtt;
        }
        Ok(self.agents.agent(sid).handle(req))
    }

    /// The pull as two passes over the leaf's columns. Pass 1 walks the
    /// leaf's link stream alone, deciding every call's fate in server
    /// order; pass 2 reads each delivered server on its own agent
    /// stream. The link stream and the agent streams are independent
    /// and each is consumed in exactly the per-call order, so the split
    /// changes no draw — it only replaces one long dependent chain per
    /// server (link draws → handler → response) with a tight serial
    /// loop on one stream and a loop of independent reads.
    fn pull(
        &mut self,
        servers: &[ServerHandle],
        readings: &mut [Option<Power>],
        failed: &mut Vec<u32>,
    ) {
        // The leaf's handles are exactly its contiguous server-id span,
        // in order — [`tile_leaf_spans`] asserts it when the tier is
        // built — so both passes count ids up from the span's start
        // instead of streaming the 48-byte handles through the cache.
        let ids = self.agents.server_ids();
        assert_eq!(servers.len(), ids.len(), "leaf handles are not its span");
        debug_assert!(servers.iter().map(|h| h.server_id).eq(ids.clone()));
        // A delivered call's slot is marked until pass 2 fills it in.
        const DELIVERED: Option<Power> = Some(Power::ZERO);
        for (sid, slot) in ids.clone().zip(readings.iter_mut()) {
            if let Ok(rtt) = self.attempt(sid) {
                self.tally.pull_rtt += rtt;
                *slot = DELIVERED;
            }
        }
        for (pos, (sid, slot)) in ids.zip(readings.iter_mut()).enumerate() {
            if slot.is_some() {
                let total = self.agents.read_power(sid);
                if total.is_valid_draw() {
                    *slot = Some(total);
                    continue;
                }
                *slot = None;
            }
            failed.push(pos as u32);
        }
    }
}

/// Each leaf's server ids as one contiguous ascending range, the ranges
/// tiling `0..server_count` in leaf order — the precondition for
/// partitioning the fleet into one leaf per controller.
/// [`powerinfra::TopologyBuilder`], the only way to construct a
/// topology, always lays servers out this way.
///
/// # Panics
///
/// Panics, naming the offending leaf, if the layout is anything else.
fn tile_leaf_spans<'a>(
    controllers: impl IntoIterator<Item = &'a LeafController>,
    server_count: usize,
) -> Vec<Range<usize>> {
    let mut next = 0usize;
    let spans = controllers
        .into_iter()
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

    /// A [`LeafLink`] stripped of its `pull` override: the same per-call
    /// method under the trait's provided per-server loop.
    struct PerCall<'x, 'c, 'a>(&'x mut LeafLink<'c, 'a>);

    impl LeafTransport for PerCall<'_, '_, '_> {
        fn call(&mut self, sid: u32, req: Request) -> Result<Response, RpcError> {
            self.0.call(sid, req)
        }
    }

    /// A one-leaf fleet with one of everything the pull distinguishes:
    /// sensored, sensorless with estimator bias, turbo, another
    /// generation with noisier sensors; then a dead host and a few
    /// crashed agents.
    fn motley_fleet() -> Fleet {
        use serverpower::{ServerConfig, ServerGeneration};
        use workloads::ServiceKind;
        let base = ServerConfig::new(ServerGeneration::Haswell2015);
        let configs: Vec<ServerConfig> = (0..48)
            .map(|i| match i % 4 {
                0 => base.clone(),
                1 => base.clone().without_sensor().with_estimator_bias(0.07),
                2 => base.clone().with_turbo(),
                _ => ServerConfig::new(ServerGeneration::Westmere2011).with_sensor_noise(0.03),
            })
            .collect();
        let n = configs.len();
        let mut fleet = Fleet::new(configs, vec![ServiceKind::Web; n], SimRng::seed_from(31));
        fleet.set_leaf_spans(std::slice::from_ref(&(0..n)));
        // A crash storm for a few ticks, then calm: some agents stay
        // down (the watchdog is 30 s away), most stay up.
        fleet.set_crash_rate(400.0);
        for s in 0..3 {
            fleet.step(SimTime::from_secs(s), SimDuration::from_secs(1));
        }
        fleet.set_crash_rate(0.0);
        let down = fleet.stats().agents_down;
        assert!(0 < down && down < n / 2, "{down} of {n} agents crashed");
        fleet.set_server_alive(5, false);
        fleet
    }

    /// The two-pass pull against the provided per-call loop, on twin
    /// fleets over a lossy link: same readings, same failed list, same
    /// link state and statistics, same per-agent noise streams, same
    /// RPC tally, same RTT histogram.
    #[test]
    fn two_pass_pull_is_the_per_call_pull() {
        use dynrpc::LinkProfile;
        const ROUNDS: u64 = 40;
        let run = |batched: bool| {
            let mut fleet = motley_fleet();
            let n = fleet.len();
            let servers: Vec<ServerHandle> = (0..n as u32)
                .map(|server_id| ServerHandle {
                    server_id,
                    service: ServiceClass::new("web", 1, Power::from_watts(200.0)),
                })
                .collect();
            let mut network = Network::new(LinkProfile::lossy(0.05, 0.05), SimRng::seed_from(7));
            let mut obs = Observability::new(&dynobs::ObsConfig::on());
            let mut shard = [obs.new_shard()];
            let mut rtts = Vec::new();
            let mut pulled = Vec::new();
            let mut tally = RpcTally::default();
            for round in 0..ROUNDS {
                fleet.step(SimTime::from_secs(3 + round), SimDuration::from_secs(1));
                let (leaves, models) = fleet.agent_leaves();
                let mut agents = LeafAgents::new(&mut leaves[0], models);
                let mut link = LeafLink {
                    network: &mut network,
                    agents: &mut agents,
                    rtts: Some(&mut rtts),
                    tally,
                };
                let mut readings = vec![None; n];
                let mut failed = Vec::new();
                if batched {
                    link.pull(&servers, &mut readings, &mut failed);
                } else {
                    PerCall(&mut link).pull(&servers, &mut readings, &mut failed);
                }
                tally = link.tally;
                shard[0].observe_batch(obs.ids().rpc_rtt, &rtts);
                rtts.clear();
                obs.merge_leaves(&[0], &mut shard, |s| s);
                let bits: Vec<Option<u64>> = readings
                    .iter()
                    .map(|r: &Option<Power>| r.map(|p| p.as_watts().to_bits()))
                    .collect();
                pulled.push((bits, failed));
            }
            (
                pulled,
                network.state(),
                fleet.state().agent_rng,
                tally,
                obs.prometheus_text(),
            )
        };
        let (two_pass, per_call) = (run(true), run(false));
        assert_eq!(two_pass.0, per_call.0, "readings / failed lists");
        assert_eq!(two_pass.1, per_call.1, "link stream and statistics");
        assert_eq!(two_pass.2, per_call.2, "per-agent noise streams");
        assert_eq!(two_pass.3, per_call.3, "rpc tally");
        assert_eq!(two_pass.4, per_call.4, "merged registry");

        // Not vacuous: every kind of outcome occurred.
        let tally = two_pass.3;
        assert!(tally.agent_down > 0 && tally.drops > 0 && tally.timeouts > 0);
        assert_eq!(tally.calls, ROUNDS * 48);
        assert_eq!(two_pass.1.stats.calls, tally.calls - tally.agent_down);
        let (bits, failed) = &two_pass.0[0];
        assert_eq!(bits[5], Some(0f64.to_bits()), "a dead host reads zero");
        assert!(!failed.is_empty() && failed.windows(2).all(|w| w[0] < w[1]));
        assert!(two_pass.4.contains("rpc_rtt"), "the RTT histogram exported");
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
