//! The leaf power controller (§III-C).

use std::collections::HashMap;
use std::sync::Arc;

use dcsim::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use dcsim::{SimDuration, SimTime};
use powerinfra::Power;
use serde::{Deserialize, Serialize};

use crate::distribution::{distribute_power_cut_with_stats, DistributionStats};
use crate::threeband::{three_band_decision, BandDecision, ThreeBandConfig};
use crate::types::{Alert, ControlAction, ServerHandle};
use dynrpc::{Request, Response, RpcError};

/// Configuration of a [`LeafController`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeafConfig {
    /// The physical breaker limit of the protected device.
    pub physical_limit: Power,
    /// Three-band thresholds (fractions of the *effective* limit).
    pub bands: ThreeBandConfig,
    /// Power pulling cycle. Paper: 3 s — fast enough for sub-minute
    /// variations, slow enough for RAPL to settle between actions.
    pub poll_interval: SimDuration,
    /// High-bucket-first bucket width. Paper: "a bucket size between 10
    /// and 30 W works well ... a bucket size of 20 W is used".
    pub bucket_width: Power,
    /// Pull-failure fraction above which the aggregation is declared
    /// invalid. Paper: 20%.
    pub max_failure_frac: f64,
    /// Constant draw of non-server components behind the same breaker
    /// (top-of-rack switches etc., §III-C1); monitored but not
    /// controllable.
    pub non_server_overhead: Power,
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
            bands: ThreeBandConfig::default(),
            poll_interval: SimDuration::from_secs(3),
            bucket_width: Power::from_watts(20.0),
            max_failure_frac: 0.20,
            non_server_overhead: Power::ZERO,
            dry_run: false,
        }
    }

    /// Enables dry-run mode (compute and log decisions, never actuate).
    pub fn with_dry_run(mut self) -> Self {
        self.dry_run = true;
        self
    }

    /// Overrides the three-band thresholds.
    pub fn with_bands(mut self, bands: ThreeBandConfig) -> Self {
        self.bands = bands;
        self
    }

    /// Sets the uncontrolled non-server draw behind the breaker.
    pub fn with_overhead(mut self, overhead: Power) -> Self {
        self.non_server_overhead = overhead;
        self
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

    /// Reads every server's power, in `servers` order. On return
    /// `readings[pos]` holds server `pos`'s reading when the pull
    /// succeeded and returned a valid draw, and stays `None` otherwise,
    /// with `pos` appended to `failed` (ascending). `readings` arrives
    /// all `None` and as long as `servers`; `failed` arrives empty.
    ///
    /// An override must leave exactly what this loop would have left.
    fn pull(
        &mut self,
        servers: &[ServerHandle],
        readings: &mut [Option<Power>],
        failed: &mut Vec<u32>,
    ) {
        for (pos, handle) in servers.iter().enumerate() {
            match self.call(handle.server_id, Request::ReadPower) {
                Ok(Response::Power(r)) if r.total.is_valid_draw() => {
                    readings[pos] = Some(r.total);
                }
                _ => failed.push(pos as u32),
            }
        }
    }
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
/// # Example
///
/// ```
/// use dcsim::{SimDuration, SimTime};
/// use dynamo_controller::{LeafConfig, LeafController, ServerHandle, ServiceClass};
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
/// assert!(outcome.action.is_capped());
/// ```
#[derive(Debug, Clone)]
pub struct LeafController {
    /// Interned name: cloning it for telemetry events is a refcount
    /// bump, not a heap allocation.
    name: Arc<str>,
    config: LeafConfig,
    servers: Vec<ServerHandle>,
    /// Position of each server id in `servers` (cold-path lookups).
    pos_of: HashMap<u32, usize>,
    /// Each position's service group: the first position whose service
    /// has the same name. Fixed at construction, so the §III-C1
    /// estimator finds a failed pull's peers by comparing integers.
    service_group: Vec<u32>,
    /// Most recent reading (or estimate) per server, indexed by
    /// position in `servers`.
    last_power: Vec<Option<Power>>,
    /// Caps currently in force, indexed by position in `servers`.
    active_caps: Vec<Option<Power>>,
    /// Number of `Some` entries in `active_caps`.
    active_cap_count: usize,
    /// Contractual limit pushed down by the parent controller (§III-D).
    contractual_limit: Option<Power>,
    alerts: Vec<Alert>,
    cycles: u64,
    /// Per-cycle pull results, reused across cycles so the steady-state
    /// (Hold) cycle path allocates nothing.
    scratch_readings: Vec<Option<Power>>,
    /// Positions whose pull failed this cycle, reused across cycles.
    scratch_failed: Vec<u32>,
    /// Stats of the most recent cut distribution (observability).
    last_distribution: DistributionStats,
}

impl LeafController {
    /// Creates a controller protecting one leaf device.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty — a leaf controller with nothing to
    /// control is a configuration error.
    pub fn new(name: impl Into<Arc<str>>, config: LeafConfig, servers: Vec<ServerHandle>) -> Self {
        assert!(
            !servers.is_empty(),
            "leaf controller needs at least one server"
        );
        let n = servers.len();
        let pos_of = servers
            .iter()
            .enumerate()
            .map(|(i, h)| (h.server_id, i))
            .collect();
        // A leaf runs a handful of services: scanning the groups seen
        // so far beats hashing every name. Their first positions are
        // collected in the failed-pull scratch list, idle until the
        // first cycle, so construction frees nothing it allocated.
        let mut scratch_failed: Vec<u32> = Vec::new();
        let service_group = servers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                let seen = scratch_failed
                    .iter()
                    .copied()
                    .find(|&f| servers[f as usize].service.name == h.service.name);
                seen.unwrap_or_else(|| {
                    scratch_failed.push(i as u32);
                    i as u32
                })
            })
            .collect();
        scratch_failed.clear();
        LeafController {
            name: name.into(),
            config,
            servers,
            pos_of,
            service_group,
            last_power: vec![None; n],
            active_caps: vec![None; n],
            active_cap_count: 0,
            contractual_limit: None,
            alerts: Vec::new(),
            cycles: 0,
            scratch_readings: Vec::with_capacity(n),
            scratch_failed,
            last_distribution: DistributionStats::default(),
        }
    }

    /// The controller's name (usually the protected device's name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The interned name; cloning the returned `Arc` is allocation-free.
    pub fn name_shared(&self) -> Arc<str> {
        Arc::clone(&self.name)
    }

    /// The configuration in use.
    pub fn config(&self) -> &LeafConfig {
        &self.config
    }

    /// The servers under this controller.
    pub fn servers(&self) -> &[ServerHandle] {
        &self.servers
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
        self.servers
            .iter()
            .zip(&self.active_caps)
            .filter_map(|(h, cap)| cap.map(|c| (h.server_id, c)))
            .collect()
    }

    /// Number of caps currently in force (allocation-free).
    pub fn active_cap_count(&self) -> usize {
        self.active_cap_count
    }

    /// The last aggregated per-server readings (server → power). Built
    /// on demand, like [`LeafController::active_caps`].
    pub fn last_power(&self) -> HashMap<u32, Power> {
        self.servers
            .iter()
            .zip(&self.last_power)
            .filter_map(|(h, p)| p.map(|v| (h.server_id, v)))
            .collect()
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

    /// Captures the controller's dynamic state: Hold-band trackers
    /// (`last_power`), capping-episode state (`active_caps`), the pushed
    /// contract, alerts, cycle count, distribution stats and the
    /// runtime-mutable dry-run flag. Static config and server handles
    /// are rebuilt by the owner.
    pub fn state(&self) -> LeafControllerState {
        LeafControllerState {
            last_power: self.last_power.clone(),
            active_caps: self.active_caps.clone(),
            contractual_limit: self.contractual_limit,
            alerts: self.alerts.clone(),
            cycles: self.cycles,
            last_distribution: self.last_distribution,
            dry_run: self.config.dry_run,
        }
    }

    /// Restores state captured by [`LeafController::state`].
    ///
    /// # Errors
    ///
    /// Fails with [`SnapError::Corrupt`] if the state was captured from
    /// a controller with a different server count.
    pub fn restore(&mut self, state: &LeafControllerState) -> Result<(), SnapError> {
        let n = self.servers.len();
        if state.last_power.len() != n || state.active_caps.len() != n {
            return Err(SnapError::Corrupt(format!(
                "leaf '{}' has {} servers; state was captured with {}/{}",
                self.name,
                n,
                state.last_power.len(),
                state.active_caps.len()
            )));
        }
        check_contract(state.contractual_limit)?;
        self.last_power.clone_from(&state.last_power);
        self.active_caps.clone_from(&state.active_caps);
        self.active_cap_count = self.active_caps.iter().filter(|c| c.is_some()).count();
        self.contractual_limit = state.contractual_limit;
        self.alerts.clone_from(&state.alerts);
        self.cycles = state.cycles;
        self.last_distribution = state.last_distribution;
        self.config.dry_run = state.dry_run;
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
    /// [`call`](LeafTransport::call).
    pub fn cycle_over<T>(&mut self, now: SimTime, transport: &mut T) -> CycleOutcome
    where
        T: LeafTransport + ?Sized,
    {
        self.cycles += 1;
        let n = self.servers.len();

        // -- 1. Pull power readings into reusable scratch buffers.
        self.scratch_readings.clear();
        self.scratch_readings.resize(n, None);
        self.scratch_failed.clear();
        transport.pull(
            &self.servers,
            &mut self.scratch_readings,
            &mut self.scratch_failed,
        );
        let failures = self.scratch_failed.len();

        // -- 2. Failure handling.
        let failure_frac = failures as f64 / n as f64;
        if failure_frac > self.config.max_failure_frac {
            self.alerts.push(Alert {
                at: now,
                controller: self.name.to_string(),
                message: format!(
                    "power aggregation invalid: {failures}/{n} pulls failed ({:.0}% > {:.0}%)",
                    failure_frac * 100.0,
                    self.config.max_failure_frac * 100.0
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
        for k in 0..self.scratch_failed.len() {
            let pos = self.scratch_failed[k] as usize;
            if let Some(est) = estimate_for(
                &self.service_group,
                &self.last_power,
                &self.scratch_readings,
                pos,
            ) {
                self.scratch_readings[pos] = Some(est);
                estimated += 1;
            }
        }
        self.last_power.clone_from(&self.scratch_readings);

        // -- 3. Aggregate and decide.
        let mut total = self.config.non_server_overhead;
        for reading in &self.scratch_readings {
            if let Some(p) = *reading {
                total += p;
            }
        }
        let limit = self.effective_limit();
        let decision =
            three_band_decision(total, limit, self.config.bands, self.active_cap_count > 0);

        // -- 4. Act.
        let action = match decision {
            BandDecision::Cap { total_cut } => {
                let powers: Vec<Power> = self
                    .scratch_readings
                    .iter()
                    .map(|r| r.unwrap_or(Power::ZERO))
                    .collect();
                let (cuts, leftover, dist_stats) = distribute_power_cut_with_stats(
                    &self.servers,
                    &powers,
                    total_cut,
                    self.config.bucket_width,
                );
                self.last_distribution = dist_stats;
                if leftover.as_watts() > 1.0 {
                    self.alerts.push(Alert {
                        at: now,
                        controller: self.name.to_string(),
                        message: format!(
                            "SLA floors prevented {leftover} of a {total_cut} cut; device may overload"
                        ),
                    });
                }
                let mut commands = Vec::with_capacity(cuts.len());
                for cut in cuts {
                    let cmd = cut.to_command();
                    if self.config.dry_run {
                        // Log the decision without touching the fleet.
                        commands.push(cmd);
                        continue;
                    }
                    // Failed actuations are retried implicitly: the next
                    // cycle re-measures and re-decides.
                    if let Ok(Response::CapAck { ok: true }) =
                        transport.call(cmd.server_id, Request::SetCap(cmd.cap))
                    {
                        let pos = self.pos_of[&cmd.server_id];
                        if self.active_caps[pos].is_none() {
                            self.active_cap_count += 1;
                        }
                        self.active_caps[pos] = Some(cmd.cap);
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
                    if self.active_caps[pos].is_none() || self.config.dry_run {
                        continue;
                    }
                    if let Ok(Response::CapAck { ok: true }) =
                        transport.call(self.servers[pos].server_id, Request::ClearCap)
                    {
                        self.active_caps[pos] = None;
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
/// estimates), falling back to the server's own last known value. All
/// slices are indexed by position in `servers`; two positions run the
/// same service when their `service_group` entries are equal.
fn estimate_for(
    service_group: &[u32],
    last_power: &[Option<Power>],
    readings: &[Option<Power>],
    pos: usize,
) -> Option<Power> {
    let group = service_group[pos];
    let mut sum = Power::ZERO;
    let mut peers = 0usize;
    for (i, reading) in readings.iter().enumerate() {
        if i == pos || service_group[i] != group {
            continue;
        }
        if let Some(p) = *reading {
            sum += p;
            peers += 1;
        }
    }
    if peers > 0 {
        return Some(sum / peers as f64);
    }
    last_power[pos]
}

/// The dynamic state of one [`LeafController`]. Implements
/// [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct LeafControllerState {
    /// Most recent per-server reading, position-indexed.
    pub last_power: Vec<Option<Power>>,
    /// Caps in force, position-indexed.
    pub active_caps: Vec<Option<Power>>,
    /// Contract pushed down by the parent.
    pub contractual_limit: Option<Power>,
    /// Alerts raised so far.
    pub alerts: Vec<Alert>,
    /// Completed cycle count.
    pub cycles: u64,
    /// Stats of the most recent cut distribution.
    pub last_distribution: DistributionStats,
    /// Runtime dry-run flag (staged rollouts mutate it mid-run).
    pub dry_run: bool,
}

fn put_opt_power_slice(w: &mut SnapWriter, xs: &[Option<Power>]) {
    w.put_u64(xs.len() as u64);
    for x in xs {
        w.put_opt_f64(x.map(Power::as_watts));
    }
}

/// A stored contract is what [`LeafController::set_contractual_limit`]
/// would have accepted.
pub(crate) fn check_contract(limit: Option<Power>) -> Result<(), SnapError> {
    match limit {
        Some(l) if l.as_watts().is_nan() || l.as_watts() <= 0.0 => Err(SnapError::Corrupt(
            format!("contractual limit {l} in snapshot is not positive"),
        )),
        _ => Ok(()),
    }
}

fn get_opt_power_vec(r: &mut SnapReader<'_>) -> Result<Vec<Option<Power>>, SnapError> {
    r.get_vec(|r| Ok(r.get_opt_f64()?.map(Power::from_watts)))
}

fn put_alerts(w: &mut SnapWriter, alerts: &[Alert]) {
    w.put_u64(alerts.len() as u64);
    for a in alerts {
        a.encode_body(w);
    }
}

fn get_alerts(r: &mut SnapReader<'_>) -> Result<Vec<Alert>, SnapError> {
    r.get_vec(Alert::decode_body)
}

impl Snapshot for LeafControllerState {
    const KIND: &'static str = "dynamo_controller.LeafControllerState";
    const VERSION: u32 = 1;

    fn encode_body(&self, w: &mut SnapWriter) {
        put_opt_power_slice(w, &self.last_power);
        put_opt_power_slice(w, &self.active_caps);
        w.put_opt_f64(self.contractual_limit.map(Power::as_watts));
        put_alerts(w, &self.alerts);
        w.put_u64(self.cycles);
        w.put_u32(self.last_distribution.groups_touched);
        w.put_u32(self.last_distribution.buckets_expanded);
        w.put_u32(self.last_distribution.victims);
        w.put_f64(self.last_distribution.leftover_watts);
        w.put_bool(self.dry_run);
    }

    fn decode_body(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(LeafControllerState {
            last_power: get_opt_power_vec(r)?,
            active_caps: get_opt_power_vec(r)?,
            contractual_limit: r.get_opt_f64()?.map(Power::from_watts),
            alerts: get_alerts(r)?,
            cycles: r.get_count()?,
            last_distribution: DistributionStats {
                groups_touched: r.get_u32()?,
                buckets_expanded: r.get_u32()?,
                victims: r.get_u32()?,
                leftover_watts: r.get_f64()?,
            },
            dry_run: r.get_bool()?,
        })
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
    fn overhead_counts_toward_the_limit() {
        let servers = web_servers(2);
        let cfg = LeafConfig::new(watts(1000.0)).with_overhead(watts(300.0));
        let mut c = LeafController::new("rpp", cfg, servers);
        let mut fleet = Fleet::new(&[(0, 350.0), (1, 350.0)]);
        let out = c.cycle(SimTime::ZERO, |s, r| fleet.call(s, r));
        // 700 + 300 = 1000 ≥ 99% threshold → cap.
        assert!(out.action.is_capped());
        assert_eq!(out.aggregated, Some(watts(1000.0)));
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

            fn pull(
                &mut self,
                servers: &[ServerHandle],
                readings: &mut [Option<Power>],
                failed: &mut Vec<u32>,
            ) {
                for (pos, handle) in servers.iter().enumerate() {
                    if self.fleet.down.contains(&handle.server_id) {
                        failed.push(pos as u32);
                    } else {
                        readings[pos] = Some(self.fleet.power[&handle.server_id]);
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

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_server_list_panics() {
        LeafController::new("rpp", LeafConfig::new(watts(1000.0)), vec![]);
    }

    #[test]
    fn dry_run_logs_decisions_without_actuating() {
        let mut fleet = Fleet::new(&[(0, 300.0), (1, 300.0), (2, 300.0), (3, 300.0)]);
        let cfg = LeafConfig::new(watts(1200.0)).with_dry_run();
        let mut c = LeafController::new("rpp-dry", cfg, web_servers(4));
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
