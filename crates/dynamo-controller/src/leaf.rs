//! The leaf power controller (§III-C).

use std::collections::HashMap;
use std::sync::Arc;

use dcsim::snap::{SnapError, SnapReader, SnapWriter};
use dcsim::SimTime;
use powerinfra::Power;
use serde::{Deserialize, Serialize};

use crate::distribution::{distribute_cut, DistributionStats};
use crate::threeband::{three_band_decision, BandDecision, PAPER_BANDS};
use crate::types::{
    Alert, CapCommand, ClassTable, ControlAction, PowerSlot, ServerHandle, ServiceClass,
};
use dynrpc::{Request, Response, RpcError};

/// High-bucket-first bucket width (§III-C3): "a bucket size between 10
/// and 30 W works well ... a bucket size of 20 W is used".
const BUCKET_WIDTH: Power = Power::from_watts(20.0);

/// Pull-failure fraction above which a cycle's aggregation is declared
/// invalid (§III-C1: 20%).
const MAX_FAILURE_FRAC: f64 = 0.20;

/// The most servers one controller protects: a position's class index
/// is a `u16`, and a leaf has no more classes than servers.
const MAX_SERVERS: usize = 1 << 16;

/// Configuration of a [`LeafController`]. The bands are
/// [`PAPER_BANDS`], fractions of the *effective* limit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeafConfig {
    /// The physical breaker limit of the protected device.
    pub physical_limit: Power,
    /// Dry-run mode (§VI): the controller computes decisions and logs
    /// them but never sends actuation RPCs. Used for end-to-end testing
    /// of service-specific logic "without actually throttling the
    /// servers in those critical services".
    pub dry_run: bool,
}

impl LeafConfig {
    /// Paper-default configuration for a device with the given breaker
    /// limit.
    ///
    /// # Panics
    ///
    /// Panics if `physical_limit` is not strictly positive.
    pub fn new(physical_limit: Power) -> Self {
        assert!(
            physical_limit.as_watts() > 0.0,
            "physical limit must be positive"
        );
        LeafConfig {
            physical_limit,
            dry_run: false,
        }
    }
}

/// How a [`LeafController`] reaches its servers' agents for one cycle.
///
/// The one required method performs a single RPC; that is all a
/// transport has to provide, and [`LeafController::cycle`] wraps a plain
/// closure in exactly that. [`LeafTransport::pull`] — step 1 of the
/// cycle, "pull power from all the downstream servers" (§III-C1) — is
/// provided on top of it as the per-server loop, and a transport that
/// can serve a whole leaf's reads at once overrides it. Actuation
/// (`SetCap` / `ClearCap`) always goes through [`LeafTransport::call`].
pub trait LeafTransport {
    /// Performs one RPC to server `server_id`'s agent.
    ///
    /// # Errors
    ///
    /// Whatever the transport's failure surface is: a lost or timed-out
    /// call, an agent that is down.
    fn call(&mut self, server_id: u32, req: Request) -> Result<Response, RpcError>;

    /// Reads every server's power, in `ids` order (position `pos` is
    /// server `ids[pos]`). On return `readings[pos]` holds the reading
    /// when the pull succeeded and returned a valid draw, and stays
    /// [`PowerSlot::NONE`] otherwise, with `pos` appended to `failed`
    /// (ascending). `readings` arrives all none and as long as `ids`;
    /// `failed` arrives empty.
    ///
    /// An override must leave exactly what this loop would have left.
    fn pull(&mut self, ids: &[u32], readings: &mut [PowerSlot], failed: &mut Vec<u32>) {
        for (pos, &sid) in ids.iter().enumerate() {
            match self.call(sid, Request::ReadPower) {
                Ok(Response::Power(r)) if r.total.is_valid_draw() => {
                    readings[pos] = PowerSlot::some(r.total);
                }
                _ => failed.push(pos as u32),
            }
        }
    }
}

/// The buffers a cycle's pull fills: one reading slot per server and
/// the positions whose pull failed. A cycle holds them only while it
/// runs, so one pair serves every controller cycled one after another:
/// a tier of controllers lends one pair to each thread that cycles them
/// ([`LeafController::cycle_with`]), and a controller cycled through
/// [`LeafController::cycle`] keeps its own.
#[derive(Debug, Clone, Default)]
pub struct PullScratch {
    readings: Vec<PowerSlot>,
    failed: Vec<u32>,
}

impl PullScratch {
    /// Buffers that no valid cycle of a leaf of up to `servers` servers
    /// grows: a reading slot for every server, and room for the most
    /// failed pulls a valid cycle can have.
    pub fn for_servers(servers: usize) -> Self {
        PullScratch {
            readings: Vec::with_capacity(servers),
            failed: Vec::with_capacity(most_failures(servers)),
        }
    }

    /// Readies the buffers for a pull of `n` servers: every slot none,
    /// no failure, and room for as many failures as a valid cycle can
    /// have — grown here, once, if they were made smaller.
    fn reset(&mut self, n: usize) {
        self.readings.clear();
        self.readings.resize(n, PowerSlot::NONE);
        self.failed.clear();
        self.failed.reserve(most_failures(n));
    }
}

/// The most failed pulls a cycle over `n` servers can have and still be
/// valid.
fn most_failures(n: usize) -> usize {
    ((n as f64 * MAX_FAILURE_FRAC) as usize).min(n)
}

/// A per-call closure as a [`LeafTransport`].
struct CallFn<F>(F);

impl<F> LeafTransport for CallFn<F>
where
    F: FnMut(u32, Request) -> Result<Response, RpcError>,
{
    fn call(&mut self, server_id: u32, req: Request) -> Result<Response, RpcError> {
        (self.0)(server_id, req)
    }
}

/// What one control cycle observed and did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CycleOutcome {
    /// Cycle timestamp.
    pub at: SimTime,
    /// Aggregated power (servers + overhead), `None` if invalid.
    pub aggregated: Option<Power>,
    /// Number of pull failures this cycle.
    pub pull_failures: usize,
    /// Of the failures, how many were covered by peer estimates.
    pub estimated: usize,
    /// The action taken.
    pub action: ControlAction,
}

/// The leaf power controller: protects one leaf power device by polling
/// the Dynamo agents of all downstream servers and issuing cap/uncap
/// commands (§III-C).
///
/// The controller is transport-agnostic: each cycle takes a closure that
/// performs one RPC to a given server id ([`LeafController::cycle`]) or
/// a [`LeafTransport`] ([`LeafController::cycle_over`]), so production
/// Thrift, the simulated [`dynrpc::Network`], or a scripted fake all
/// plug in.
///
/// Per server it keeps what §III-C needs and no more: the id, which of
/// a few distinct [`ServiceClass`]es the server runs (a 16-bit index
/// into a [`ClassTable`] it may share with other controllers), and the
/// last reading and the cap in force as [`PowerSlot`]s — everything
/// position-indexed, in the order the servers were given. What a pull
/// fills lives only as long as the cycle, in a [`PullScratch`].
///
/// # Example
///
/// ```
/// use dcsim::{SimDuration, SimTime};
/// use dynamo_controller::{
///     ControlAction, LeafConfig, LeafController, ServerHandle, ServiceClass,
/// };
/// use dynrpc::{PowerReading, Request, Response};
/// use powerinfra::Power;
///
/// let servers: Vec<ServerHandle> = (0..4)
///     .map(|i| ServerHandle {
///         server_id: i,
///         service: ServiceClass::new("web", 1, Power::from_watts(210.0)),
///     })
///     .collect();
/// let mut leaf = LeafController::new(
///     "rpp0", LeafConfig::new(Power::from_kilowatts(1.3)), servers);
///
/// // Every server reports 330 W -> 1.32 kW total, over the 1.3 kW limit.
/// let outcome = leaf.cycle(SimTime::ZERO, |_, req| match req {
///     Request::ReadPower => Ok(Response::Power(PowerReading::total_only(
///         Power::from_watts(330.0),
///     ))),
///     _ => Ok(Response::CapAck { ok: true }),
/// });
/// assert!(matches!(outcome.action, ControlAction::Capped { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct LeafController {
    /// Name, shared with whoever built the controller: a controller
    /// named after its device holds that device's one copy.
    name: Arc<str>,
    config: LeafConfig,
    /// Each position's server id.
    ids: Vec<u32>,
    /// The service classes `class_of` indexes.
    classes: Arc<ClassTable>,
    /// Each position's index into `classes`.
    class_of: Vec<u16>,
    /// Most recent reading (or estimate) per position.
    last_power: Vec<PowerSlot>,
    /// Caps currently in force, per position.
    active_caps: Vec<PowerSlot>,
    /// Number of filled slots in `active_caps`.
    active_cap_count: usize,
    /// Contractual limit pushed down by the parent controller (§III-D).
    contractual_limit: Option<Power>,
    alerts: Vec<Alert>,
    cycles: u64,
    /// The pull buffers of cycles run through
    /// [`LeafController::cycle_over`]: sized by
    /// [`LeafController::new`], empty after
    /// [`LeafController::with_classes`] until such a cycle first needs
    /// them, so a controller whose cycles are lent buffers
    /// ([`LeafController::cycle_with`]) never holds any.
    scratch: PullScratch,
    /// Stats of the most recent cut distribution (observability).
    last_distribution: DistributionStats,
}

impl LeafController {
    /// Creates a controller protecting one leaf device. Only each
    /// handle's id and an index into a table of the leaf's distinct
    /// service classes, in order of first appearance, are kept; two
    /// servers are estimation peers when their services have the same
    /// name.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty — a leaf controller with nothing to
    /// control is a configuration error — names a server twice, which
    /// would count its draw twice, or, naming the leaf, holds more than
    /// 65,536 servers.
    pub fn new(name: impl Into<Arc<str>>, config: LeafConfig, servers: Vec<ServerHandle>) -> Self {
        let name = name.into();
        check_server_count(&name, servers.len());
        let n = servers.len();
        let mut ids = Vec::with_capacity(n);
        let mut class_of = Vec::with_capacity(n);
        // A leaf runs a handful of services: scanning the classes seen
        // so far beats hashing every name.
        let mut classes: Vec<ServiceClass> = Vec::new();
        for ServerHandle { server_id, service } in servers {
            let class = classes.iter().position(|c| *c == service);
            // A leaf has no more classes than its at most 65,536
            // servers, so every index fits.
            class_of.push(class.unwrap_or(classes.len()) as u16);
            if class.is_none() {
                classes.push(service);
            }
            ids.push(server_id);
        }
        let classes = Arc::new(ClassTable::new(classes));
        let mut controller = LeafController::with_classes(name, config, ids, classes, class_of);
        controller.scratch = PullScratch::for_servers(n);
        controller
    }

    /// Creates a controller protecting the servers `ids`, position
    /// `pos` running class `class_of[pos]` of the shared `classes`:
    /// what [`LeafController::new`] builds from handles, without a
    /// handle or a class per server, and without pull buffers of its
    /// own until a cycle needs them (see [`LeafController::cycle_with`]).
    ///
    /// # Panics
    ///
    /// Panics if `ids` is empty, names a server twice, or is not as
    /// long as `class_of`, if a class index is out of the table, or,
    /// naming the leaf, if `ids` holds more than 65,536 servers.
    pub fn with_classes(
        name: impl Into<Arc<str>>,
        config: LeafConfig,
        ids: Vec<u32>,
        classes: Arc<ClassTable>,
        class_of: Vec<u16>,
    ) -> Self {
        let name = name.into();
        check_server_count(&name, ids.len());
        assert_eq!(
            ids.len(),
            class_of.len(),
            "leaf controller {name} needs one class index per server"
        );
        assert!(
            class_of.iter().all(|&k| usize::from(k) < classes.len()),
            "leaf controller {name} is given a class outside its table"
        );
        if let Some(dup) = first_duplicate(&ids) {
            panic!("leaf controller {name} is given server {dup} twice");
        }
        let n = ids.len();
        LeafController {
            name,
            config,
            ids,
            classes,
            class_of,
            last_power: vec![PowerSlot::NONE; n],
            active_caps: vec![PowerSlot::NONE; n],
            active_cap_count: 0,
            contractual_limit: None,
            alerts: Vec::new(),
            cycles: 0,
            scratch: PullScratch::default(),
            last_distribution: DistributionStats::default(),
        }
    }

    /// The controller's name (usually the protected device's name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configuration in use.
    pub fn config(&self) -> &LeafConfig {
        &self.config
    }

    /// The ids of the servers under this controller, in the order
    /// they were given.
    pub fn server_ids(&self) -> &[u32] {
        &self.ids
    }

    /// The effective limit: `min(physical, contractual)` (§III-D).
    pub fn effective_limit(&self) -> Power {
        match self.contractual_limit {
            Some(c) => c.min(self.config.physical_limit),
            None => self.config.physical_limit,
        }
    }

    /// Sets or clears the contractual limit from the parent controller.
    ///
    /// # Panics
    ///
    /// Panics if the limit is not strictly positive.
    pub fn set_contractual_limit(&mut self, limit: Option<Power>) {
        if let Some(l) = limit {
            assert!(
                l.as_watts() > 0.0,
                "contractual limit must be positive, got {l}"
            );
        }
        self.contractual_limit = limit;
    }

    /// The contractual limit currently in force, if any.
    pub fn contractual_limit(&self) -> Option<Power> {
        self.contractual_limit
    }

    /// Toggles dry-run mode at runtime (staged rollouts flip this as a
    /// controller graduates from shadow to active duty).
    pub fn set_dry_run(&mut self, dry_run: bool) {
        self.config.dry_run = dry_run;
    }

    /// Caps currently in force (server → cap). Built on demand: the
    /// controller stores caps position-indexed internally, so this is a
    /// cold-path convenience view.
    pub fn active_caps(&self) -> HashMap<u32, Power> {
        by_id(&self.ids, &self.active_caps)
    }

    /// Number of caps currently in force (allocation-free).
    pub fn active_cap_count(&self) -> usize {
        self.active_cap_count
    }

    /// The last aggregated per-server readings (server → power). Built
    /// on demand, like [`LeafController::active_caps`].
    pub fn last_power(&self) -> HashMap<u32, Power> {
        by_id(&self.ids, &self.last_power)
    }

    /// Alerts raised so far.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Number of completed cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Stats of the most recent power-cut distribution (how many
    /// priority groups and power buckets the walk touched, victims,
    /// unabsorbed watts). Zeroed until the first capping cycle.
    pub fn last_distribution(&self) -> DistributionStats {
        self.last_distribution
    }

    /// Saves the controller's dynamic state: Hold-band trackers
    /// (`last_power`), capping-episode state (`active_caps`), the pushed
    /// contract, alerts, cycle count, distribution stats and the
    /// runtime-mutable dry-run flag. Static config and server handles
    /// are rebuilt by the owner.
    pub fn save(&self, w: &mut SnapWriter) {
        for column in [&self.last_power, &self.active_caps] {
            w.put_u64(column.len() as u64);
            for slot in column {
                w.put_opt_f64(slot.get().map(Power::as_watts));
            }
        }
        w.put_opt_f64(self.contractual_limit.map(Power::as_watts));
        w.put_u64(self.alerts.len() as u64);
        for a in &self.alerts {
            a.save(w);
        }
        w.put_u64(self.cycles);
        w.put_u32(self.last_distribution.groups_touched);
        w.put_u32(self.last_distribution.buckets_expanded);
        w.put_u32(self.last_distribution.victims);
        w.put_f64(self.last_distribution.leftover_watts);
        w.put_bool(self.config.dry_run);
    }

    /// Loads state written by [`LeafController::save`] into a
    /// controller built with the same servers.
    ///
    /// # Errors
    ///
    /// Fails with [`SnapError::Corrupt`] if the state was saved by a
    /// controller with a different server count, or holds a reading
    /// that is no valid draw (every later failed pull without live
    /// peers would be estimated from it) or a cap or contract that is
    /// not a finite positive power.
    pub fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let refuse = |pos: usize, bad: String| {
            SnapError::Corrupt(format!("leaf '{}' position {pos}: {bad}", self.name))
        };
        let servers = |e: SnapError| e.within(format_args!("leaf '{}' servers", self.name));
        r.get_len(self.ids.len(), "readings").map_err(servers)?;
        for (pos, slot) in self.last_power.iter_mut().enumerate() {
            let reading = r.get_opt_f64()?.map(Power::from_watts);
            if let Some(p) = reading.filter(|p| !p.is_valid_draw()) {
                return Err(refuse(pos, format!("reading {p} is not a valid draw")));
            }
            *slot = reading.into();
        }
        r.get_len(self.ids.len(), "caps").map_err(servers)?;
        for (pos, slot) in self.active_caps.iter_mut().enumerate() {
            let cap = r.get_opt_f64()?.map(Power::from_watts);
            if let Some(c) = cap.filter(|c| !(c.as_watts().is_finite() && c.as_watts() > 0.0)) {
                return Err(refuse(
                    pos,
                    format!("cap {c} is not a finite positive power"),
                ));
            }
            *slot = cap.into();
        }
        self.active_cap_count = self.active_caps.iter().filter(|c| c.is_some()).count();
        self.contractual_limit = get_contract(r)?;
        self.alerts = r.get_vec(Alert::decode)?;
        self.cycles = r.get_count()?;
        self.last_distribution = DistributionStats {
            groups_touched: r.get_u32()?,
            buckets_expanded: r.get_u32()?,
            victims: r.get_u32()?,
            leftover_watts: r.get_f64()?,
        };
        self.config.dry_run = r.get_bool()?;
        Ok(())
    }

    /// Runs one 3-second control cycle at time `now`:
    ///
    /// 1. Pull power from every downstream agent.
    /// 2. Estimate failed pulls from same-service peers; above the 20%
    ///    failure threshold, declare the aggregation invalid, alert, and
    ///    take no action (§III-C1, §III-E).
    /// 3. Apply the three-band algorithm against the effective limit.
    /// 4. On capping: distribute the cut (priority groups,
    ///    high-bucket-first) and send `SetCap`s; on uncapping: send
    ///    `ClearCap`s.
    pub fn cycle<F>(&mut self, now: SimTime, call: F) -> CycleOutcome
    where
        F: FnMut(u32, Request) -> Result<Response, RpcError>,
    {
        self.cycle_over(now, &mut CallFn(call))
    }

    /// [`LeafController::cycle`] over a [`LeafTransport`]: step 1 is the
    /// transport's [`pull`](LeafTransport::pull), every actuation its
    /// [`call`](LeafTransport::call). The pull fills the controller's
    /// own buffers ([`LeafController::cycle_with`] lends others).
    pub fn cycle_over<T>(&mut self, now: SimTime, transport: &mut T) -> CycleOutcome
    where
        T: LeafTransport + ?Sized,
    {
        let mut scratch = std::mem::take(&mut self.scratch);
        let outcome = self.cycle_with(now, transport, &mut scratch);
        self.scratch = scratch;
        outcome
    }

    /// [`LeafController::cycle_over`] with the pull filling `scratch`,
    /// which the cycle leaves holding nothing the next one reads: one
    /// pair serves any number of controllers cycled in turn. Buffers
    /// from [`PullScratch::for_servers`] at least this leaf's size are
    /// grown by no valid cycle.
    pub fn cycle_with<T>(
        &mut self,
        now: SimTime,
        transport: &mut T,
        scratch: &mut PullScratch,
    ) -> CycleOutcome
    where
        T: LeafTransport + ?Sized,
    {
        self.cycles += 1;
        let n = self.ids.len();

        // -- 1. Pull power readings into the lent buffers.
        scratch.reset(n);
        let PullScratch { readings, failed } = scratch;
        transport.pull(&self.ids, readings, failed);
        let failures = failed.len();

        // -- 2. Failure handling.
        let failure_frac = failures as f64 / n as f64;
        if failure_frac > MAX_FAILURE_FRAC {
            self.alerts.push(Alert {
                at: now,
                message: format!(
                    "power aggregation invalid: {failures}/{n} pulls failed ({:.0}% > {:.0}%)",
                    failure_frac * 100.0,
                    MAX_FAILURE_FRAC * 100.0
                ),
            });
            return CycleOutcome {
                at: now,
                aggregated: None,
                pull_failures: failures,
                estimated: 0,
                action: ControlAction::Invalid,
            };
        }
        let mut estimated = 0;
        let group = |i: usize| self.classes.peer_group(u32::from(self.class_of[i]));
        for &pos in failed.iter() {
            let pos = pos as usize;
            if let Some(est) = estimate_for(group, &self.last_power, readings, pos) {
                readings[pos] = PowerSlot::some(est);
                estimated += 1;
            }
        }
        // This cycle's readings become the last ones.
        self.last_power.copy_from_slice(readings);

        // -- 3. Aggregate and decide.
        let mut total = Power::ZERO;
        for reading in &self.last_power {
            if let Some(p) = reading.get() {
                total += p;
            }
        }
        let limit = self.effective_limit();
        let decision = three_band_decision(total, limit, PAPER_BANDS, self.active_cap_count > 0);

        // -- 4. Act.
        let action = match decision {
            BandDecision::Cap { total_cut } => {
                // (position, cap) per victim, in the walk's order.
                let mut cuts: Vec<(usize, Power)> = Vec::new();
                let (leftover, dist_stats) = distribute_cut(
                    n,
                    |i| {
                        let class = self.classes.class(u32::from(self.class_of[i]));
                        (class.priority, class.sla_min_cap)
                    },
                    |i| self.last_power[i].get().unwrap_or(Power::ZERO),
                    total_cut,
                    BUCKET_WIDTH,
                    &mut |i, _, cap| cuts.push((i, cap)),
                );
                self.last_distribution = dist_stats;
                if leftover.as_watts() > 1.0 {
                    self.alerts.push(Alert {
                        at: now,
                        message: format!(
                            "SLA floors prevented {leftover} of a {total_cut} cut; device may overload"
                        ),
                    });
                }
                let mut commands = Vec::with_capacity(cuts.len());
                for (pos, cap) in cuts {
                    let cmd = CapCommand {
                        server_id: self.ids[pos],
                        cap,
                    };
                    if self.config.dry_run {
                        // Log the decision without touching the fleet.
                        commands.push(cmd);
                        continue;
                    }
                    // Failed actuations are retried implicitly: the next
                    // cycle re-measures and re-decides.
                    if let Ok(Response::CapAck { ok: true }) =
                        transport.call(cmd.server_id, Request::SetCap(cap))
                    {
                        if !self.active_caps[pos].is_some() {
                            self.active_cap_count += 1;
                        }
                        self.active_caps[pos] = PowerSlot::some(cap);
                        commands.push(cmd);
                    }
                }
                ControlAction::Capped {
                    total_cut,
                    commands,
                }
            }
            BandDecision::Uncap => {
                for pos in 0..n {
                    if !self.active_caps[pos].is_some() || self.config.dry_run {
                        continue;
                    }
                    if let Ok(Response::CapAck { ok: true }) =
                        transport.call(self.ids[pos], Request::ClearCap)
                    {
                        self.active_caps[pos] = PowerSlot::NONE;
                        self.active_cap_count -= 1;
                    }
                }
                ControlAction::Uncapped
            }
            BandDecision::Hold => ControlAction::Hold,
        };

        CycleOutcome {
            at: now,
            aggregated: Some(total),
            pull_failures: failures,
            estimated,
            action,
        }
    }
}

/// Estimates power for a failed pull "using power readings from
/// neighboring servers running similar workloads" (§III-C1): the mean
/// of this cycle's successful same-service readings (including earlier
/// estimates), falling back to the server's own last known value. Both
/// slices are position-indexed; two positions run the same service when
/// their `group`s are equal.
fn estimate_for(
    group: impl Fn(usize) -> u32,
    last_power: &[PowerSlot],
    readings: &[PowerSlot],
    pos: usize,
) -> Option<Power> {
    let own = group(pos);
    let mut sum = Power::ZERO;
    let mut peers = 0usize;
    for (i, reading) in readings.iter().enumerate() {
        if i == pos || group(i) != own {
            continue;
        }
        if let Some(p) = reading.get() {
            sum += p;
            peers += 1;
        }
    }
    if peers > 0 {
        return Some(sum / peers as f64);
    }
    last_power[pos].get()
}

/// The filled slots of a position-indexed column, by server id.
fn by_id(ids: &[u32], slots: &[PowerSlot]) -> HashMap<u32, Power> {
    ids.iter()
        .zip(slots)
        .filter_map(|(&id, slot)| slot.get().map(|p| (id, p)))
        .collect()
}

/// Refuses a server count no controller holds: none, or, naming the
/// leaf, more than [`MAX_SERVERS`].
fn check_server_count(name: &str, n: usize) {
    assert!(n > 0, "leaf controller needs at least one server");
    assert!(
        n <= MAX_SERVERS,
        "leaf controller {name} has {n} servers; a leaf holds at most {MAX_SERVERS}"
    );
}

/// The first id that occurs twice, if any. Leaves are usually handed
/// their servers in ascending order, which needs no copy to check.
fn first_duplicate(ids: &[u32]) -> Option<u32> {
    if ids.windows(2).all(|w| w[0] < w[1]) {
        return None;
    }
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

/// Reads a stored contract: none, or what
/// [`LeafController::set_contractual_limit`] would have accepted.
pub(crate) fn get_contract(r: &mut SnapReader<'_>) -> Result<Option<Power>, SnapError> {
    match r.get_opt_f64()?.map(Power::from_watts) {
        Some(l) if l.as_watts().is_nan() || l.as_watts() <= 0.0 => Err(SnapError::Corrupt(
            format!("contractual limit {l} in snapshot is not positive"),
        )),
        limit => Ok(limit),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ServiceClass;
    use dynrpc::PowerReading;

    fn watts(v: f64) -> Power {
        Power::from_watts(v)
    }

    fn web_servers(n: u32) -> Vec<ServerHandle> {
        (0..n)
            .map(|i| ServerHandle {
                server_id: i,
                service: ServiceClass::new("web", 1, watts(210.0)),
            })
            .collect()
    }

    /// A scripted fleet: per-server power, per-server reachability.
    struct Fleet {
        power: HashMap<u32, Power>,
        down: Vec<u32>,
        caps: HashMap<u32, Power>,
    }

    impl Fleet {
        fn new(powers: &[(u32, f64)]) -> Self {
            Fleet {
                power: powers.iter().map(|&(i, p)| (i, watts(p))).collect(),
                down: Vec::new(),
                caps: HashMap::new(),
            }
        }

        fn call(&mut self, sid: u32, req: Request) -> Result<Response, RpcError> {
            if self.down.contains(&sid) {
                return Err(RpcError::AgentDown);
            }
            match req {
                Request::ReadPower => {
                    let raw = self.power[&sid];
                    let eff = self.caps.get(&sid).map_or(raw, |&c| raw.min(c));
                    Ok(Response::Power(PowerReading::total_only(eff)))
                }
                Request::SetCap(c) => {
                    self.caps.insert(sid, c);
                    Ok(Response::CapAck { ok: true })
                }
                Request::ClearCap => {
                    self.caps.remove(&sid);
                    Ok(Response::CapAck { ok: true })
                }
            }
        }
    }

    fn leaf(limit_w: f64, servers: Vec<ServerHandle>) -> LeafController {
        LeafController::new("rpp-test", LeafConfig::new(watts(limit_w)), servers)
    }

    #[test]
    fn under_threshold_holds() {
        let mut fleet = Fleet::new(&[(0, 200.0), (1, 200.0)]);
        let mut c = leaf(1000.0, web_servers(2));
        let out = c.cycle(SimTime::ZERO, |s, r| fleet.call(s, r));
        assert_eq!(out.action, ControlAction::Hold);
        assert_eq!(out.aggregated, Some(watts(400.0)));
        assert!(c.active_caps().is_empty());
    }

    #[test]
    fn over_threshold_caps_down_to_target() {
        // 4 × 300 W = 1200 W against a 1200 W limit → threshold 1188.
        let mut fleet = Fleet::new(&[(0, 300.0), (1, 300.0), (2, 300.0), (3, 300.0)]);
        let mut c = leaf(1200.0, web_servers(4));
        let out = c.cycle(SimTime::ZERO, |s, r| fleet.call(s, r));
        match &out.action {
            ControlAction::Capped {
                total_cut,
                commands,
            } => {
                assert!((total_cut.as_watts() - 60.0).abs() < 1e-6);
                assert!(!commands.is_empty());
            }
            other => panic!("expected cap, got {other:?}"),
        }
        // Next cycle reads capped powers: total at target, within bands.
        let out2 = c.cycle(SimTime::from_secs(3), |s, r| fleet.call(s, r));
        assert_eq!(out2.action, ControlAction::Hold);
        let total = out2.aggregated.unwrap().as_watts();
        assert!((total - 1140.0).abs() < 1.0, "settled at {total}");
    }

    #[test]
    fn uncaps_when_power_falls() {
        let mut fleet = Fleet::new(&[(0, 300.0), (1, 300.0), (2, 300.0), (3, 300.0)]);
        let mut c = leaf(1200.0, web_servers(4));
        c.cycle(SimTime::ZERO, |s, r| fleet.call(s, r));
        assert!(!c.active_caps().is_empty());
        // Load drops well below the uncap threshold (90% of 1200 = 1080).
        for p in fleet.power.values_mut() {
            *p = watts(220.0);
        }
        let out = c.cycle(SimTime::from_secs(3), |s, r| fleet.call(s, r));
        assert_eq!(out.action, ControlAction::Uncapped);
        assert!(c.active_caps().is_empty());
        assert!(fleet.caps.is_empty());
    }

    #[test]
    fn no_oscillation_between_bands() {
        let mut fleet = Fleet::new(&[(0, 300.0), (1, 300.0), (2, 300.0), (3, 300.0)]);
        let mut c = leaf(1200.0, web_servers(4));
        c.cycle(SimTime::ZERO, |s, r| fleet.call(s, r));
        // Power sits at the capped level (between uncap and cap bands):
        // repeated cycles must all hold.
        for k in 1..20 {
            let out = c.cycle(SimTime::from_secs(3 * k), |s, r| fleet.call(s, r));
            assert_eq!(out.action, ControlAction::Hold, "cycle {k} oscillated");
        }
    }

    #[test]
    fn pull_failures_are_estimated_from_peers() {
        let mut fleet = Fleet::new(&[(0, 300.0), (1, 300.0), (2, 300.0), (3, 300.0), (4, 300.0)]);
        fleet.down = vec![4];
        let mut c = leaf(10_000.0, web_servers(5));
        let out = c.cycle(SimTime::ZERO, |s, r| fleet.call(s, r));
        assert_eq!(out.pull_failures, 1);
        assert_eq!(out.estimated, 1);
        // The estimate equals the peer mean, so the total is exact.
        assert_eq!(out.aggregated, Some(watts(1500.0)));
    }

    #[test]
    fn exceeding_failure_threshold_invalidates_and_alerts() {
        let mut fleet = Fleet::new(&[(0, 300.0), (1, 300.0), (2, 300.0), (3, 300.0), (4, 300.0)]);
        fleet.down = vec![0, 1]; // 40% > 20%
        let mut c = leaf(1000.0, web_servers(5)); // would otherwise cap
        let out = c.cycle(SimTime::ZERO, |s, r| fleet.call(s, r));
        assert_eq!(out.action, ControlAction::Invalid);
        assert_eq!(out.aggregated, None);
        assert_eq!(c.alerts().len(), 1);
        assert!(c.alerts()[0].message.contains("invalid"));
        assert!(fleet.caps.is_empty(), "no false-positive capping");
    }

    #[test]
    fn estimation_falls_back_to_last_known_value() {
        // Five web servers and one db server; the db server (with no
        // live service peer) goes down, staying under the 20% failure
        // threshold (1/6 ≈ 17%).
        let mut fleet = Fleet::new(&[
            (0, 260.0),
            (1, 260.0),
            (2, 260.0),
            (3, 260.0),
            (4, 260.0),
            (5, 320.0),
        ]);
        let mut servers = web_servers(5);
        servers.push(ServerHandle {
            server_id: 5,
            service: ServiceClass::new("db", 2, watts(250.0)),
        });
        let mut c = LeafController::new("rpp", LeafConfig::new(watts(10_000.0)), servers);
        c.cycle(SimTime::ZERO, |s, r| fleet.call(s, r));
        fleet.down = vec![5];
        let out = c.cycle(SimTime::from_secs(3), |s, r| fleet.call(s, r));
        assert_eq!(out.pull_failures, 1);
        assert_eq!(out.estimated, 1);
        // The db server's last known 320 W reading fills the gap.
        assert_eq!(out.aggregated, Some(watts(5.0 * 260.0 + 320.0)));
    }

    #[test]
    fn peers_are_the_same_service_wherever_they_sit() {
        // web, db, web, db, web interleaved: the failed db server at
        // position 3 is estimated from the db server at position 1
        // alone, the failed web server at 0 from positions 2 and 4.
        let mut fleet = Fleet::new(&[
            (0, 200.0),
            (1, 320.0),
            (2, 210.0),
            (3, 330.0),
            (4, 220.0),
            (5, 230.0),
            (6, 240.0),
            (7, 250.0),
            (8, 260.0),
            (9, 270.0),
        ]);
        let servers = (0..10)
            .map(|i| ServerHandle {
                server_id: i,
                service: if i == 1 || i == 3 {
                    ServiceClass::new("db", 2, watts(250.0))
                } else {
                    ServiceClass::new("web", 1, watts(150.0))
                },
            })
            .collect();
        fleet.down = vec![0, 3];
        let mut c = LeafController::new("rpp", LeafConfig::new(watts(10_000.0)), servers);
        let out = c.cycle(SimTime::ZERO, |s, r| fleet.call(s, r));
        assert_eq!((out.pull_failures, out.estimated), (2, 2));
        // Seven live web servers averaging 240 W, one live db at 320 W:
        // whole watts throughout, so the sum is exact in any order.
        assert_eq!(
            out.aggregated,
            Some(watts(240.0 + 7.0 * 240.0 + 2.0 * 320.0))
        );
    }

    #[test]
    fn contractual_limit_tightens_effective_limit() {
        let mut fleet = Fleet::new(&[(0, 300.0), (1, 300.0), (2, 300.0), (3, 300.0)]);
        let mut c = leaf(2000.0, web_servers(4));
        // Without contract: 1200 W under 2000 W limit → hold.
        let out = c.cycle(SimTime::ZERO, |s, r| fleet.call(s, r));
        assert_eq!(out.action, ControlAction::Hold);
        // Parent pushes a 1150 W contractual limit → must cap.
        c.set_contractual_limit(Some(watts(1150.0)));
        assert_eq!(c.effective_limit(), watts(1150.0));
        let out2 = c.cycle(SimTime::from_secs(3), |s, r| fleet.call(s, r));
        assert!(out2.action.is_capped());
        // Contract above physical is clamped by min().
        c.set_contractual_limit(Some(watts(99_000.0)));
        assert_eq!(c.effective_limit(), watts(2000.0));
    }

    #[test]
    fn failed_actuation_is_not_recorded_as_active() {
        let mut fleet = Fleet::new(&[(0, 300.0), (1, 300.0), (2, 300.0), (3, 300.0)]);
        let mut c = leaf(1200.0, web_servers(4));
        let down = std::cell::Cell::new(false);
        let out = c.cycle(SimTime::ZERO, |s, r| {
            if matches!(r, Request::SetCap(_)) && !down.get() {
                down.set(true);
                return Err(RpcError::Timeout);
            }
            fleet.call(s, r)
        });
        match out.action {
            ControlAction::Capped { commands, .. } => {
                // One SetCap timed out → one fewer active cap.
                assert_eq!(commands.len(), c.active_caps().len());
                assert_eq!(fleet.caps.len(), c.active_caps().len());
            }
            other => panic!("expected cap, got {other:?}"),
        }
    }

    #[test]
    fn priority_groups_respected_through_cycle() {
        // 2 hadoop + 2 cache servers; cut must land on hadoop only.
        let servers = vec![
            ServerHandle {
                server_id: 0,
                service: ServiceClass::new("hadoop", 0, watts(140.0)),
            },
            ServerHandle {
                server_id: 1,
                service: ServiceClass::new("hadoop", 0, watts(140.0)),
            },
            ServerHandle {
                server_id: 2,
                service: ServiceClass::new("cache", 3, watts(260.0)),
            },
            ServerHandle {
                server_id: 3,
                service: ServiceClass::new("cache", 3, watts(260.0)),
            },
        ];
        let mut fleet = Fleet::new(&[(0, 300.0), (1, 300.0), (2, 300.0), (3, 300.0)]);
        let mut c = LeafController::new("rpp", LeafConfig::new(watts(1200.0)), servers);
        let out = c.cycle(SimTime::ZERO, |s, r| fleet.call(s, r));
        match out.action {
            ControlAction::Capped { commands, .. } => {
                assert!(commands.iter().all(|cmd| cmd.server_id < 2), "{commands:?}");
            }
            other => panic!("expected cap, got {other:?}"),
        }
    }

    /// A transport that serves the whole pull at once: the cycle must
    /// take its readings and failed list from the override, never fall
    /// back to per-server reads, and still actuate through `call`.
    #[test]
    fn an_overridden_pull_replaces_only_the_reads() {
        struct Batched {
            fleet: Fleet,
            reads: u32,
            acts: u32,
        }
        impl LeafTransport for Batched {
            fn call(&mut self, sid: u32, req: Request) -> Result<Response, RpcError> {
                match req {
                    Request::ReadPower => self.reads += 1,
                    _ => self.acts += 1,
                }
                self.fleet.call(sid, req)
            }

            fn pull(&mut self, ids: &[u32], readings: &mut [PowerSlot], failed: &mut Vec<u32>) {
                for (pos, sid) in ids.iter().enumerate() {
                    if self.fleet.down.contains(sid) {
                        failed.push(pos as u32);
                    } else {
                        readings[pos] = PowerSlot::some(self.fleet.power[sid]);
                    }
                }
            }
        }

        let powers = [(0, 300.0), (1, 300.0), (2, 300.0), (3, 300.0), (4, 300.0)];
        let mut batched = Batched {
            fleet: Fleet::new(&powers),
            reads: 0,
            acts: 0,
        };
        batched.fleet.down = vec![4];
        let mut scripted = Fleet::new(&powers);
        scripted.down = vec![4];
        let mut a = leaf(1500.0, web_servers(5));
        let mut b = leaf(1500.0, web_servers(5));
        let over = a.cycle_over(SimTime::ZERO, &mut batched);
        let per_call = b.cycle(SimTime::ZERO, |s, r| scripted.call(s, r));
        assert_eq!(over, per_call);
        assert!(over.action.is_capped());
        assert_eq!((over.pull_failures, over.estimated), (1, 1));
        assert_eq!(batched.reads, 0, "the override served every read");
        assert!(batched.acts > 0, "caps still go through `call`");
        assert_eq!(batched.fleet.caps, scripted.caps);
        assert_eq!(a.last_power(), b.last_power());
    }

    /// A server listed twice would be pulled and counted twice: the
    /// constructor names it instead.
    #[test]
    #[should_panic(expected = "leaf controller rpp is given server 7 twice")]
    fn a_duplicate_server_id_panics_with_the_id() {
        let mut servers = web_servers(9);
        servers[2].server_id = 7;
        LeafController::new("rpp", LeafConfig::new(watts(1000.0)), servers);
    }

    /// Estimation peers are the same service *name*: a web server in
    /// another priority group (another class) is still a peer, a cache
    /// server with web's priority is not.
    #[test]
    fn peers_share_a_name_across_priorities() {
        let servers = vec![
            ServerHandle {
                server_id: 0,
                service: ServiceClass::new("web", 1, watts(150.0)),
            },
            ServerHandle {
                server_id: 1,
                service: ServiceClass::new("web", 2, watts(150.0)),
            },
            ServerHandle {
                server_id: 2,
                service: ServiceClass::new("cache", 1, watts(150.0)),
            },
            ServerHandle {
                server_id: 3,
                service: ServiceClass::new("web", 1, watts(150.0)),
            },
            ServerHandle {
                server_id: 4,
                service: ServiceClass::new("cache", 1, watts(150.0)),
            },
            ServerHandle {
                server_id: 5,
                service: ServiceClass::new("web", 1, watts(150.0)),
            },
        ];
        let mut fleet = Fleet::new(&[
            (0, 200.0),
            (1, 300.0),
            (2, 500.0),
            (3, 0.0),
            (4, 700.0),
            (5, 220.0),
        ]);
        fleet.down = vec![3];
        let mut c = LeafController::new("rpp", LeafConfig::new(watts(10_000.0)), servers);
        let out = c.cycle(SimTime::ZERO, |s, r| fleet.call(s, r));
        assert_eq!((out.pull_failures, out.estimated), (1, 1));
        // Server 3 is estimated as the mean of webs 0, 1 and 5: 240 W.
        assert_eq!(c.last_power()[&3], watts(240.0));
    }

    fn saved(c: &LeafController) -> Vec<u8> {
        let mut w = SnapWriter::new();
        c.save(&mut w);
        w.into_bytes()
    }

    /// `bytes`, a saved controller, with slot `pos` of its readings
    /// (`column` 0) or its caps (1) rewritten to hold `watts`.
    fn forge_slot(bytes: &[u8], column: usize, pos: u64, watts: f64) -> Vec<u8> {
        let (mut r, mut w) = (SnapReader::new(bytes), SnapWriter::new());
        for c in 0..2 {
            let n = r.get_u64().unwrap();
            w.put_u64(n);
            for p in 0..n {
                let slot = r.get_opt_f64().unwrap();
                w.put_opt_f64(if (c, p) == (column, pos) {
                    Some(watts)
                } else {
                    slot
                });
            }
        }
        w.put_raw(r.get_raw(r.remaining()).unwrap());
        w.into_bytes()
    }

    /// A snapshot's readings become estimates and its caps become the
    /// cap state: a NaN or negative reading, or a cap that is no finite
    /// positive power, is refused naming the leaf and the position.
    /// (Leaving nothing of the forgery behind is the datacenter's
    /// rollback, tested there.)
    #[test]
    fn load_refuses_readings_and_caps_no_cycle_could_have_stored() {
        let mut fleet = Fleet::new(&[(0, 300.0), (1, 300.0), (2, 300.0), (3, 300.0)]);
        let mut c = leaf(1200.0, web_servers(4));
        c.cycle(SimTime::ZERO, |s, r| fleet.call(s, r));
        let honest = saved(&c);
        assert!(c.active_cap_count() > 0);
        let forgeries = [
            (0, f64::NAN, "position 2: reading NaN W is not a valid draw"),
            (0, -5.0, "position 2: reading -5"),
            (1, 0.0, "position 2: cap 0"),
            (1, f64::INFINITY, "position 2: cap inf"),
            (1, f64::NAN, "position 2: cap NaN"),
        ];
        for (column, watts, what) in forgeries {
            let forged = forge_slot(&honest, column, 2, watts);
            let mut target = leaf(1200.0, web_servers(4));
            match target.load(&mut SnapReader::new(&forged)) {
                Err(SnapError::Corrupt(msg)) => {
                    assert!(
                        msg.contains("leaf 'rpp-test'") && msg.contains(what),
                        "{msg}"
                    )
                }
                other => panic!("{what}: expected a refusal, got {other:?}"),
            }
        }
        let mut twin = leaf(1200.0, web_servers(4));
        let mut r = SnapReader::new(&honest);
        twin.load(&mut r).expect("an honest state loads");
        assert_eq!(r.remaining(), 0);
        assert_eq!(saved(&twin), honest);
        assert_eq!(twin.active_caps(), c.active_caps());
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_server_list_panics() {
        LeafController::new("rpp", LeafConfig::new(watts(1000.0)), vec![]);
    }

    /// `n` web servers on one shared class, by index.
    fn indexed(name: &str, n: u32) -> LeafController {
        let classes = Arc::new(ClassTable::new(vec![ServiceClass::new(
            "web",
            1,
            watts(210.0),
        )]));
        let config = LeafConfig::new(watts(1e9));
        let class_of = vec![0; n as usize];
        LeafController::with_classes(name, config, (0..n).collect(), classes, class_of)
    }

    /// A position's class index is 16 bits: 65,536 servers is a leaf,
    /// one more is refused naming it, by both constructors.
    #[test]
    fn a_leaf_of_65_536_servers_is_the_largest() {
        let c = indexed("rpp-wide", 1 << 16);
        assert_eq!(c.server_ids().len(), 65_536);
    }

    #[test]
    #[should_panic(
        expected = "leaf controller rpp-wide has 65537 servers; a leaf holds at most 65536"
    )]
    fn a_leaf_of_65_537_indexed_servers_panics_naming_it() {
        indexed("rpp-wide", (1 << 16) + 1);
    }

    #[test]
    #[should_panic(
        expected = "leaf controller rpp-wide has 65537 servers; a leaf holds at most 65536"
    )]
    fn a_leaf_of_65_537_handles_panics_naming_it() {
        LeafController::new("rpp-wide", LeafConfig::new(watts(1e9)), web_servers(65_537));
    }

    /// One lent pair of buffers serves controllers of different sizes
    /// cycled in turn, and a cycle through it decides exactly what the
    /// controller's own buffers would: readings, estimates, failures.
    #[test]
    fn lent_buffers_cycle_like_the_controllers_own() {
        let mut scratch = PullScratch::for_servers(6);
        for n in [6u32, 2, 5] {
            let powers: Vec<(u32, f64)> = (0..n).map(|i| (i, 250.0 + f64::from(i))).collect();
            let (mut a, mut b) = (Fleet::new(&powers), Fleet::new(&powers));
            a.down = vec![1];
            b.down = vec![1];
            let (mut lent, mut own) = (indexed("lent", n), indexed("own", n));
            for t in 0..3 {
                let now = SimTime::from_secs(3 * t);
                let x = lent.cycle_with(now, &mut CallFn(|s, r| a.call(s, r)), &mut scratch);
                let y = own.cycle(now, |s, r| b.call(s, r));
                assert_eq!(x, y, "{n} servers, cycle {t}");
            }
            assert_eq!(lent.last_power(), own.last_power());
            assert_eq!(
                lent.scratch.readings.capacity(),
                0,
                "lent cycles keep no buffer"
            );
        }
    }

    #[test]
    fn dry_run_logs_decisions_without_actuating() {
        let mut fleet = Fleet::new(&[(0, 300.0), (1, 300.0), (2, 300.0), (3, 300.0)]);
        let cfg = LeafConfig::new(watts(1200.0));
        let mut c = LeafController::new("rpp-dry", cfg, web_servers(4));
        c.set_dry_run(true);
        let out = c.cycle(SimTime::ZERO, |s, r| fleet.call(s, r));
        match out.action {
            ControlAction::Capped { commands, .. } => {
                assert!(
                    !commands.is_empty(),
                    "dry run must still compute the decision"
                );
            }
            other => panic!("expected cap decision, got {other:?}"),
        }
        // ...but nothing reached the fleet and no state was recorded.
        assert!(fleet.caps.is_empty(), "dry run actuated caps");
        assert!(c.active_caps().is_empty());
        // Repeated cycles stay consistent (no phantom uncaps).
        let out2 = c.cycle(SimTime::from_secs(3), |s, r| fleet.call(s, r));
        assert!(out2.action.is_capped());
        assert!(fleet.caps.is_empty());
    }

    #[test]
    fn sla_shortfall_raises_alert() {
        // One web server, limit forces a cut (300 − 190 = 110 W) bigger
        // than the 90 W headroom above the 210 W SLA floor.
        let mut fleet = Fleet::new(&[(0, 300.0)]);
        let mut c = leaf(200.0, web_servers(1));
        let out = c.cycle(SimTime::ZERO, |s, r| fleet.call(s, r));
        assert!(out.action.is_capped());
        assert!(
            c.alerts().iter().any(|a| a.message.contains("SLA")),
            "{:?}",
            c.alerts()
        );
    }
}
