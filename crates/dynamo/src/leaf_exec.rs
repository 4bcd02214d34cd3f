//! The leaf controller tier: one [`Leaf`] per RPP — its
//! [`LeafController`] with everything a cycle mutates — and the one
//! dispatch that runs their cycles.
//!
//! [`LeafTier::run_due`] runs only the leaves whose cycle schedules
//! fell due this tick ([`crate::events::collect_due`]; minus the
//! provably quiescent ones), cut into contiguous shards — as many as
//! the attached [`WorkerPool`] has workers, one (run inline on the
//! caller) without a pool. This mirrors the paper's consolidated binary
//! running ~100 controller threads (§IV). A shard is two sub-slices:
//! its leaves here and the same leaves of the fleet
//! ([`Fleet::agent_leaves`]). A leaf on either side owns its state, so
//! a cycle computes the same thing in any shard and leaves nothing to
//! apply after the join except what is shared. A cycle keeps its action
//! as at most one event, and its counters and histograms in the leaf's
//! [`dynobs::Shard`] (written round trip by round trip, and from the
//! cycle's RPC tally when the cycle ends). For the leaves that ran,
//! [`Observability::merge_leaves`] then folds the shards and builds the
//! spans and flight records from the events, and
//! [`LeafTier::collect_events`] hands the events on, both in leaf-index
//! order — making the whole run bit-identical at any width, and a warm
//! steady-state dispatch allocates nothing.
//!
//! A cycle reaches its leaf's columns through a [`LeafLink`] — the
//! leaf's [`Network`] in front of a borrowed [`LeafAgents`] view —
//! which is the controller's [`LeafTransport`]. Step 1 of the cycle,
//! the pull, is not 160 RPC round trips through a handler but two
//! passes over the leaf's columns: the first walks the leaf's link
//! stream alone and decides every call's fate ([`Network::attempt`]:
//! drop, timeout, round trip; a crashed agent costs no draw; the round
//! trip is read off the tier's [`RttTable`] only when the leaf records
//! it), the second reads
//! each delivered server through
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

use dcsim::snap::{SnapError, SnapReader, SnapWriter};
use dcsim::{SimDuration, SimRng, SimTime};
use dynamo_controller::{
    ClassTable, ControlAction, LeafConfig, LeafController, LeafTransport, PowerSlot,
};
use dynobs::{Band, HistogramRecorder, Prebucketed, Shard};
use dynpool::WorkerPool;
use dynrpc::{AgentEndpoint, Network, Request, Response, RpcError, RttTable};
use powerinfra::{DeviceId, DeviceLevel, Power, Topology};
use workloads::ServiceKind;

use crate::control_plane::SystemConfig;
use crate::events::{ControllerEvent, ControllerEventKind};
use crate::failover::Failover;
use crate::fleet::{Fleet, LeafAgents, LeafColumns};
use crate::obs::{band_of, ObsIds, Observability};
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
    /// still reads the fleet leaf's epoch and the link is lossless,
    /// re-running the cycle would observe the same fleet state and
    /// decide Hold again.
    /// Cleared by anything that could change the next decision from
    /// outside the fleet: an upper directive, an operator contract
    /// override, a rollout-phase flip, a primary failover.
    pub(crate) quiet: bool,
    /// The fleet leaf's epoch ([`LeafColumns::epoch`]) as of the last
    /// real cycle. Read only while `quiet`, which no leaf is before its
    /// first real cycle. See [`LeafTier::filter_quiescent`].
    seen: u64,
    /// The primary has crashed: the next cycle is skipped while the
    /// backup takes over (§III-E).
    pub(crate) failed: bool,
    /// The leaf's recording shard (see [`crate::obs`]): written by the
    /// leaf's cycle, merged and emptied after the dispatch that ran it.
    pub(crate) obs: Shard,
    /// The band the leaf's last recorded cycle landed in, to tell a
    /// band transition from a repeat.
    pub(crate) band: Band,
    /// What the leaf's last run did — its cycle's action (`None`: a
    /// hold) or a backup's takeover — until the dispatch's merge takes
    /// it ([`LeafTier::collect_events`]).
    pub(crate) event: Option<ControllerEvent>,
    /// The last cycle's summed round trips of delivered reads and of
    /// actuations (zero with observability off).
    pub(crate) pull_rtt: SimDuration,
    pub(crate) act_rtt: SimDuration,
    /// Whether the last cycle's cap, if it capped, opened a capping
    /// episode: no caps were active before it, and it actuates.
    pub(crate) episode_start: bool,
}

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
    /// What the leaves record round trips with; `None` with
    /// observability off, when no table is built or read.
    rtt: Option<RttRecording>,
}

/// How the tier records round trips: one [`RttTable`] for the
/// configured link rate, shared by every leaf, and the RTT histogram's
/// bucket for each millisecond the table covers. A link whose profile
/// was changed mid-run ([`Network::set_profile`]) still reads it: the
/// table converts a round trip of another rate exactly.
struct RttRecording {
    table: RttTable,
    /// `SimDuration::from_millis(ms).as_secs_f64()` in its bucket, for
    /// `ms` in `0..RttTable::SPAN_MS`.
    buckets: Prebucketed,
}

impl LeafTier {
    /// Builds one leaf controller per RPP in `topo`, in device order,
    /// each recording into its own shard of `obs`. Server `i` runs
    /// `services[i]`; every controller indexes one shared table of the
    /// [`crate::service_class_of`] every service kind maps to.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no RPP devices, if `services` does
    /// not name one service per server, or if the leaves' servers do
    /// not tile the fleet contiguously in leaf order
    /// ([`powerinfra::TopologyBuilder`] always lays them out that way).
    pub(crate) fn build(
        topo: &Topology,
        services: &[ServiceKind],
        config: &SystemConfig,
        rng: &mut SimRng,
        obs: &Observability,
    ) -> Self {
        let devices = topo.devices_at(DeviceLevel::Rpp);
        assert!(!devices.is_empty(), "topology has no RPPs to protect");
        assert_eq!(
            services.len(),
            topo.server_count(),
            "the control plane needs one service per server"
        );
        let spans = tile_leaf_spans(
            devices
                .iter()
                .map(|&rpp| (&*topo.device(rpp).name, topo.servers_under(rpp))),
            topo.server_count(),
        );
        let classes = Arc::new(ClassTable::new(
            ServiceKind::all().map(crate::service_class_of).to_vec(),
        ));

        let mut leaves = Vec::with_capacity(devices.len());
        let mut index_of = HashMap::with_capacity(devices.len());
        for (&rpp, span) in devices.iter().zip(&spans) {
            let dev = topo.device(rpp);
            let ids = (span.start as u32..span.end as u32).collect();
            let class_of = services[span.clone()]
                .iter()
                .map(|k| k.index() as u32)
                .collect();
            let mut leaf_config = LeafConfig::new(dev.rating);
            leaf_config.dry_run = config.dry_run;
            index_of.insert(rpp, leaves.len());
            leaves.push(Leaf {
                controller: LeafController::with_classes(
                    dev.name.clone(),
                    leaf_config,
                    ids,
                    Arc::clone(&classes),
                    class_of,
                ),
                network: Network::new(config.rpc, rng.split(&dev.name)),
                last_aggregate: Power::ZERO,
                quota: dev.quota,
                quiet: false,
                seen: 0,
                failed: false,
                obs: obs.new_shard(),
                band: Band::Hold,
                event: None,
                pull_rtt: SimDuration::ZERO,
                act_rtt: SimDuration::ZERO,
                episode_start: false,
            });
        }
        let rtt = obs.is_enabled().then(|| RttRecording {
            table: RttTable::new(&config.rpc),
            buckets: rtt_buckets(obs),
        });
        LeafTier {
            leaves,
            devices,
            spans,
            index_of,
            rtt,
        }
    }

    /// Splits `due` into the leaves that must run and the cycles that
    /// can be elided, pushing the former into `out` (cleared first) in
    /// the same ascending order; the rest of `due` is the elided tally.
    ///
    /// A leaf's cycle is elided only when it is *provably* a no-op
    /// recomputation: the leaf decided a clean Hold last time
    /// ([`Leaf::quiet`]), its link cannot drop or time out, no
    /// failover is pending, and its fleet leaf's epoch still reads what
    /// the last real cycle captured: since then no server of the leaf
    /// was redrawn, changed drawn-power or RAPL-output bits, crashed,
    /// was restarted or changed liveness. The elided cycle's RPC and
    /// sensor-noise RNG draws are *not* consumed, so elision (like the
    /// demand hold that enables it — with `demand_hold == 1` every leaf
    /// redraws every tick and nothing ever elides) changes the
    /// trajectory relative to a run without it, while remaining
    /// deterministic and thread-count independent.
    pub(crate) fn filter_quiescent(&self, due: &[usize], fleet: &Fleet, out: &mut Vec<usize>) {
        out.clear();
        for &i in due {
            let leaf = &self.leaves[i];
            let elidable = leaf.quiet
                && !leaf.failed
                && leaf.network.profile().is_lossless()
                && leaf.seen == fleet.leaves()[i].epoch();
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
    /// lookup. A failed primary's backup takes over instead; those
    /// leaves are the ones that ran, pushed into `ran` (cleared first).
    pub(crate) fn monitor_due(
        &mut self,
        now: SimTime,
        due: &[usize],
        fleet: &Fleet,
        ran: &mut Vec<usize>,
    ) {
        ran.clear();
        for &i in due {
            let leaf = &mut self.leaves[i];
            if std::mem::take(&mut leaf.failed) {
                leaf.event = Some(leaf.take_over(now, self.devices[i]));
                ran.push(i);
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
    /// What each leaf kept is merged after the join, in leaf index
    /// order, so the result is bit-identical at any width.
    pub(crate) fn run_due(
        &mut self,
        now: SimTime,
        due: &[usize],
        pool: Option<&WorkerPool>,
        fleet: &mut Fleet,
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
        let rtt = self.rtt.as_ref();
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
                job.leaves[r].run(now, devices[i], &mut agents, rtt, ids);
            }
        });
    }

    /// Moves the events of the leaves that `ran` into `events`, in leaf
    /// index order, counting each takeover into the failover tallies
    /// the shards cannot touch.
    pub(crate) fn collect_events(
        &mut self,
        ran: &[usize],
        failover: &mut Failover,
        events: &mut Vec<ControllerEvent>,
    ) {
        for &i in ran {
            if let Some(event) = self.leaves[i].event.take() {
                if event.kind == ControllerEventKind::Failover {
                    failover.record_leaf(i);
                }
                events.push(event);
            }
        }
    }

    /// Saves the tier's dynamic state as flat per-leaf columns:
    /// controller decision state, link streams, last aggregates, the
    /// quiet flags and seen epochs that drive cycle elision (they must
    /// round-trip exactly, or a resumed run would elide, or re-run,
    /// cycles the unbroken run did not), the pending-failure flags and,
    /// when the run is `observed`, the last bands (only the observed
    /// merge reads them), behind a tag that says whether they follow. Everything else — devices, quotas, spans,
    /// server ids — is topology-derived and rebuilt from config. Every
    /// dispatch takes the events it left and the merge reads the
    /// round-trip sums and episode flags before the next cycle
    /// overwrites them, so none of them is saved.
    pub(crate) fn save(&self, w: &mut SnapWriter, observed: bool) {
        let column = |w: &mut SnapWriter, put: &dyn Fn(&mut SnapWriter, &Leaf)| {
            w.put_u64(self.leaves.len() as u64);
            for leaf in &self.leaves {
                put(w, leaf);
            }
        };
        column(w, &|w, l| l.controller.save(w));
        column(w, &|w, l| l.network.save(w));
        column(w, &|w, l| w.put_f64(l.last_aggregate.as_watts()));
        column(w, &|w, l| w.put_bool(l.quiet));
        column(w, &|w, l| w.put_u64(l.seen));
        column(w, &|w, l| w.put_bool(l.failed));
        w.put_bool(observed);
        if observed {
            column(w, &|w, l| w.put_u8(l.band.code() as u8));
        }
    }

    /// Loads what [`LeafTier::save`] wrote into a tier built with the
    /// same leaves. A file from an unobserved run holds no bands: every
    /// leaf's is then the `Hold` such a run keeps, observed here or not.
    pub(crate) fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = self.leaves.len();
        r.get_len(n, "leaf controllers")?;
        for l in &mut self.leaves {
            l.controller.load(r)?;
        }
        r.get_len(n, "leaf links")?;
        for l in &mut self.leaves {
            l.network.load(r)?;
        }
        r.get_len(n, "leaf aggregates")?;
        for l in &mut self.leaves {
            l.last_aggregate = Power::from_watts(r.get_f64()?);
        }
        r.get_len(n, "leaf quiet flags")?;
        for l in &mut self.leaves {
            l.quiet = r.get_bool()?;
        }
        r.get_len(n, "leaf epochs")?;
        for l in &mut self.leaves {
            l.seen = r.get_u64()?;
        }
        r.get_len(n, "leaf failover flags")?;
        for l in &mut self.leaves {
            l.failed = r.get_bool()?;
        }
        if !r.get_bool()? {
            self.leaves.iter_mut().for_each(|l| l.band = Band::Hold);
            return Ok(());
        }
        r.get_len(n, "leaf bands")?;
        for (i, l) in self.leaves.iter_mut().enumerate() {
            let code = r.get_u8()?;
            l.band = Band::from_code(code.into()).ok_or_else(|| {
                SnapError::Corrupt(format!("leaf {i} has unknown band code {code}"))
            })?;
        }
        Ok(())
    }
}

/// The RTT histogram's bucket for each whole millisecond an
/// [`RttTable`] covers, as [`RttRecording::buckets`].
fn rtt_buckets(obs: &Observability) -> Prebucketed {
    let ms = 0..RttTable::SPAN_MS as u64;
    obs.registry().prebucket(
        obs.ids().rpc_rtt,
        ms.map(|ms| SimDuration::from_millis(ms).as_secs_f64()),
    )
}

/// Carves elements `skip..skip + take` off the front of `*rest`.
fn window<'a, T>(rest: &mut &'a mut [T], skip: usize, take: usize) -> &'a mut [T] {
    front_mut(rest, skip);
    front_mut(rest, take)
}

impl Leaf {
    /// One due cycle, in whichever shard the leaf landed: the cycle
    /// against the leaf's agent view (or the backup's takeover), and
    /// the epoch the cycle saw (the control tick does not step the
    /// fleet, and a cap write moves no epoch, so it reads the same
    /// before and after it).
    fn run(
        &mut self,
        now: SimTime,
        device: DeviceId,
        agents: &mut LeafAgents<'_>,
        rtt: Option<&RttRecording>,
        ids: &ObsIds,
    ) {
        if std::mem::take(&mut self.failed) {
            // One cycle of downtime, then the redundant instance
            // (sharing the same decision state via its own polling)
            // continues.
            self.quiet = false;
            self.event = Some(self.take_over(now, device));
        } else {
            self.quiet = self.cycle(now, device, agents, rtt, ids);
        }
        self.seen = agents.epoch();
    }

    /// The backup controller taking over after a primary failure. The
    /// caller skips the leaf's cycle.
    fn take_over(&self, now: SimTime, device: DeviceId) -> ControllerEvent {
        ControllerEvent {
            at: now,
            device,
            kind: ControllerEventKind::Failover,
        }
    }

    /// One controller cycle against the leaf's agent view: its counters
    /// and histograms go into the leaf's shard, its action into
    /// [`Leaf::event`].
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
        rtt: Option<&RttRecording>,
        ids: &ObsIds,
    ) -> bool {
        self.episode_start =
            self.controller.active_cap_count() == 0 && !self.controller.config().dry_run;
        let shard = &mut self.obs;
        let mut link = LeafLink {
            network: &mut self.network,
            agents,
            rtt: rtt.and_then(|rtt| shard.recorder(&rtt.buckets).map(|hist| (&rtt.table, hist))),
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
        (self.pull_rtt, self.act_rtt) = (pull_rtt, act_rtt);
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
        let action = match &outcome.action {
            ControlAction::Capped {
                total_cut,
                commands,
            } => {
                let dist = self.controller.last_distribution();
                shard.observe(ids.cut_watts, total_cut.as_watts());
                shard.observe(ids.capped_servers, commands.len() as f64);
                shard.observe(ids.dist_buckets, f64::from(dist.buckets_expanded));
                shard.add(ids.dist_groups, u64::from(dist.groups_touched));
                if dist.leftover_watts > 0.0 {
                    shard.inc(ids.dist_shortfalls);
                }
                Some(ControllerEventKind::LeafCapped {
                    total_cut: *total_cut,
                    servers: commands.len(),
                })
            }
            ControlAction::Uncapped => Some(ControllerEventKind::LeafUncapped),
            ControlAction::Invalid => Some(ControllerEventKind::LeafInvalid {
                failures: outcome.pull_failures,
            }),
            ControlAction::Hold => None,
        };
        shard.inc(match band_of(action.as_ref()) {
            Band::Hold => ids.band_hold,
            Band::Cap => ids.band_cap,
            Band::Uncap => ids.band_uncap,
            Band::Invalid => ids.band_invalid,
        });
        self.event = action.map(|kind| ControllerEvent {
            at: now,
            device,
            kind,
        });
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
/// totals) and a delivered call's round trip goes straight into the
/// leaf's RTT histogram: its milliseconds off the tier's [`RttTable`]
/// (which converts one of another link rate), then that millisecond's
/// bucket and seconds, resolved when the tier was built
/// ([`HistogramRecorder::observe_nth`]); only a round trip past the
/// table converts and searches the bounds. Same
/// slots, same sum in the same order: the merged registry stays
/// bit-identical to one `observe` of each converted round trip. With
/// observability off the link draws the round trip and nothing reads
/// it.
struct LeafLink<'c, 'a> {
    network: &'c mut Network,
    agents: &'c mut LeafAgents<'a>,
    /// The tier's table and the leaf's open RTT histogram; `None`
    /// with observability off.
    rtt: Option<(&'c RttTable, HistogramRecorder<'c>)>,
    tally: RpcTally,
}

/// What one cycle's RPCs added up to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct RpcTally {
    /// Summed round trips of delivered reads / actuations, in whole
    /// milliseconds; summed only when [`LeafLink::rtt`] records them,
    /// zero otherwise.
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
    /// decides ([`Network::attempt`]). Counts the outcome and, when
    /// recording, a delivered call's round trip into the histogram and
    /// the read (`pull`) or actuation sum.
    #[inline(always)]
    fn attempt(&mut self, sid: u32, pull: bool) -> Result<(), RpcError> {
        self.tally.calls += 1;
        if !self.agents.is_running(sid) {
            self.tally.agent_down += 1;
            return Err(RpcError::AgentDown);
        }
        match self.network.attempt() {
            Ok(rtt) => {
                if let Some((table, hist)) = &mut self.rtt {
                    let ms = table.millis(rtt);
                    if ms < RttTable::SPAN_MS as u64 {
                        hist.observe_nth(ms as usize);
                    } else {
                        hist.observe(SimDuration::from_millis(ms).as_secs_f64());
                    }
                    let sum = if pull {
                        &mut self.tally.pull_rtt
                    } else {
                        &mut self.tally.act_rtt
                    };
                    *sum += SimDuration::from_millis(ms);
                }
                Ok(())
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
        self.attempt(sid, matches!(req, Request::ReadPower))?;
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
    fn pull(&mut self, ids: &[u32], readings: &mut [PowerSlot], failed: &mut Vec<u32>) {
        // The leaf's ids are exactly its contiguous server-id span, in
        // order — the tier builds them from it — so both passes count
        // ids up from the span's start instead of streaming the id
        // column through the cache.
        let span = self.agents.server_ids();
        assert_eq!(ids.len(), span.len(), "leaf ids are not its span");
        debug_assert!(ids.iter().copied().eq(span.clone()));
        // A delivered call's slot is marked until pass 2 fills it in.
        const DELIVERED: PowerSlot = PowerSlot::some(Power::ZERO);
        for (sid, slot) in span.clone().zip(readings.iter_mut()) {
            if self.attempt(sid, true).is_ok() {
                *slot = DELIVERED;
            }
        }
        for (pos, (sid, slot)) in span.zip(readings.iter_mut()).enumerate() {
            if slot.is_some() {
                let total = self.agents.read_power(sid);
                if total.is_valid_draw() {
                    *slot = PowerSlot::some(total);
                    continue;
                }
                *slot = PowerSlot::NONE;
            }
            failed.push(pos as u32);
        }
    }
}

/// Each named leaf's server range as a fleet span, checking that the
/// ranges tile `0..server_count` in leaf order — the precondition for
/// partitioning the fleet into one leaf per controller.
/// [`powerinfra::TopologyBuilder`], the only way to construct a
/// topology, always lays servers out this way.
///
/// # Panics
///
/// Panics, naming the offending leaf, if the layout is anything else.
fn tile_leaf_spans<'a>(
    leaves: impl IntoIterator<Item = (&'a str, Range<u32>)>,
    server_count: usize,
) -> Vec<Range<usize>> {
    let mut next = 0usize;
    let spans = leaves
        .into_iter()
        .map(|(name, servers)| {
            let span = servers.start as usize..servers.end as usize;
            assert_eq!(
                span.start, next,
                "leaf {name} does not own a contiguous server range in leaf order"
            );
            assert!(!span.is_empty(), "leaf {name} has no servers");
            next = span.end;
            span
        })
        .collect();
    assert_eq!(next, server_count, "leaf spans must cover the fleet");
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut fleet = Fleet::new(
            configs,
            vec![ServiceKind::Web; n],
            SimRng::seed_from(31),
            std::slice::from_ref(&(0..n)),
        );
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
    /// fleets over a lossy link, both recording through the tier's RTT
    /// recorder: same readings, same failed list, same link stream,
    /// same per-agent noise streams, same RPC tally, same merged
    /// registry.
    #[test]
    fn two_pass_pull_is_the_per_call_pull() {
        use dynrpc::LinkProfile;
        const ROUNDS: u64 = 40;
        let run = |batched: bool| {
            let mut fleet = motley_fleet();
            let n = fleet.len();
            let ids: Vec<u32> = (0..n as u32).collect();
            let profile = LinkProfile::lossy(0.05, 0.05);
            let mut network = Network::new(profile, SimRng::seed_from(7));
            let obs = Observability::new(&dynobs::ObsConfig::on());
            let mut registry = obs.registry().clone();
            let mut shard = obs.new_shard();
            let table = RttTable::new(&profile);
            let buckets = rtt_buckets(&obs);
            let mut pulled = Vec::new();
            let mut tally = RpcTally::default();
            for round in 0..ROUNDS {
                fleet.step(SimTime::from_secs(3 + round), SimDuration::from_secs(1));
                let (leaves, models) = fleet.agent_leaves();
                let mut agents = LeafAgents::new(&mut leaves[0], models);
                let mut link = LeafLink {
                    network: &mut network,
                    agents: &mut agents,
                    rtt: shard.recorder(&buckets).map(|hist| (&table, hist)),
                    tally,
                };
                let mut readings = vec![PowerSlot::NONE; n];
                let mut failed = Vec::new();
                if batched {
                    link.pull(&ids, &mut readings, &mut failed);
                } else {
                    PerCall(&mut link).pull(&ids, &mut readings, &mut failed);
                }
                tally = link.tally;
                registry.merge_shard(&mut shard);
                let bits: Vec<Option<u64>> = readings
                    .iter()
                    .map(|r| r.get().map(|p| p.as_watts().to_bits()))
                    .collect();
                pulled.push((bits, failed));
            }
            (
                pulled,
                network,
                {
                    // The agents' noise streams, with the rest of the fleet.
                    let mut w = dcsim::snap::SnapWriter::new();
                    fleet.save(&mut w);
                    w.into_bytes()
                },
                tally,
                dynobs::render_prometheus(&registry),
            )
        };
        let (two_pass, per_call) = (run(true), run(false));
        assert_eq!(two_pass.0, per_call.0, "readings / failed lists");
        assert_eq!(two_pass.1, per_call.1, "link stream");
        assert_eq!(
            two_pass.2, per_call.2,
            "per-agent noise streams, and the fleet"
        );
        assert_eq!(two_pass.3, per_call.3, "rpc tally");
        assert_eq!(two_pass.4, per_call.4, "merged registry");

        // Not vacuous: every kind of outcome occurred.
        let tally = two_pass.3;
        assert!(tally.agent_down > 0 && tally.drops > 0 && tally.timeouts > 0);
        assert_eq!(tally.calls, ROUNDS * 48);
        assert!(tally.pull_rtt > SimDuration::ZERO, "recorded round trips");
        let (bits, failed) = &two_pass.0[0];
        assert_eq!(bits[5], Some(0f64.to_bits()), "a dead host reads zero");
        assert!(!failed.is_empty() && failed.windows(2).all(|w| w[0] < w[1]));
        assert!(two_pass.4.contains("rpc_rtt"), "the RTT histogram exported");
    }

    /// FNV-1a over what an observed run exports: the report, the
    /// Prometheus text (RTT histogram included) and the fleet-wide
    /// power trace.
    fn tail_fingerprint(dc: &crate::Datacenter) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut fnv = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        fnv(crate::RunReport::from_datacenter(dc).to_string().as_bytes());
        fnv(dc.system().observability().prometheus_text().as_bytes());
        for v in dc.telemetry().total_power().values() {
            fnv(&v.to_bits().to_le_bytes());
        }
        hash
    }

    /// [`tail_fingerprint`] of [`observed_tail_churn`], recorded before
    /// round trips were read off a table, when every one was converted
    /// through `ln`.
    const TAIL_GOLDEN: u64 = 0x5659_638c_f245_e160;

    /// A churn run on slow lossy links (20 ms mean one way, so about a
    /// fifth of the round trips reach 64 ms), observed, with a crash, a
    /// failover and one link moved to another rate mid-run.
    fn observed_tail_churn(threads: usize) -> crate::Datacenter {
        use dynrpc::LinkProfile;
        use workloads::{ServiceKind, TrafficPattern};
        let mut dc = crate::DatacenterBuilder::new()
            .sbs_per_msb(2)
            .rpps_per_sb(2)
            .racks_per_rpp(2)
            .servers_per_rack(8)
            .rpp_rating(Power::from_kilowatts(3.2))
            .uniform_service(ServiceKind::Web)
            .traffic(ServiceKind::Web, TrafficPattern::flat(1.5))
            .rpc_profile(LinkProfile {
                drop_prob: 0.01,
                timeout_prob: 0.01,
                mean_latency: SimDuration::from_millis(20),
            })
            .observability(dynobs::ObsConfig::on())
            .seed(42)
            .worker_threads(threads)
            .build();
        dc.run_for(SimDuration::from_secs(45));
        dc.fleet_mut().set_server_alive(3, false);
        dc.run_for(SimDuration::from_secs(15));
        let victim = dc.system().leaf_devices()[0];
        dc.system_mut().fail_primary(victim);
        dc.run_for(SimDuration::from_secs(30));
        dc.system_mut().leaves.leaves[2]
            .network
            .set_profile(LinkProfile {
                drop_prob: 0.005,
                timeout_prob: 0.02,
                mean_latency: SimDuration::from_millis(35),
            });
        dc.run_for(SimDuration::from_secs(45));
        dc
    }

    #[test]
    fn observed_tail_churn_is_pinned_at_every_width() {
        for threads in [1usize, 2, 8] {
            let dc = observed_tail_churn(threads);
            if threads == 1 {
                let obs = dc.system().observability();
                let rtt = obs.registry().histogram(obs.ids().rpc_rtt);
                let past_64_ms: u64 = rtt
                    .bounds
                    .iter()
                    .zip(rtt.buckets)
                    .filter(|(&b, _)| b > 0.064)
                    .map(|(_, &n)| n)
                    .sum::<u64>()
                    + rtt.buckets[rtt.bounds.len()];
                assert!(
                    past_64_ms * 10 > rtt.count,
                    "vacuous: {past_64_ms} of {} round trips past 64 ms",
                    rtt.count
                );
            }
            let hash = tail_fingerprint(&dc);
            assert_eq!(
                hash, TAIL_GOLDEN,
                "observed tail churn moved at threads={threads}: {hash:#018x}"
            );
        }
    }

    #[test]
    fn an_unobserved_tier_builds_no_table() {
        let dc = crate::DatacenterBuilder::new()
            .sbs_per_msb(1)
            .rpps_per_sb(2)
            .racks_per_rpp(1)
            .servers_per_rack(4)
            .build();
        assert!(dc.system().leaves.rtt.is_none());
    }

    #[test]
    fn contiguous_leaves_tile_the_fleet() {
        let leaves = [("a", 0..3), ("b", 3..5), ("c", 5..6)];
        assert_eq!(tile_leaf_spans(leaves, 6), vec![0..3, 3..5, 5..6]);
    }

    #[test]
    #[should_panic(expected = "leaf rpp-b does not own a contiguous server range")]
    fn a_gap_names_the_offending_leaf() {
        tile_leaf_spans([("rpp-a", 0..2), ("rpp-b", 3..5)], 5);
    }

    #[test]
    #[should_panic(expected = "leaf rpp-b does not own a contiguous server range")]
    fn overlapping_leaves_name_the_offending_leaf() {
        tile_leaf_spans([("rpp-a", 0..2), ("rpp-b", 1..4)], 4);
    }

    #[test]
    #[should_panic(expected = "leaf spans must cover the fleet")]
    fn a_short_tiling_panics() {
        tile_leaf_spans([("rpp-a", 0..3)], 4);
    }
}
