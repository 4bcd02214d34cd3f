//! Control-plane observability: the [`dynobs`] registry, trace ring and
//! flight recorder wired through the controller hierarchy.
//!
//! Every leaf controller owns one [`dynobs::Shard`]
//! ([`Observability::new_shard`]), which travels with the leaf into
//! whichever shard of the leaf dispatch runs it, so hot-path recording
//! is lock-free and allocation-free; after every leaf dispatch
//! [`Observability::merge_leaves`] folds the shards of the leaves that
//! ran back in ascending leaf-index order, which keeps the merged
//! registry (float histogram sums included) bit-identical at any
//! worker-thread count. Everything that runs serially — elided cycles
//! (counted once per dispatch, before it), upper controllers, and
//! datacenter-level sources (breakers, the validator) — records into
//! the registry directly.

use std::path::PathBuf;
use std::sync::Arc;

use dcsim::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use dcsim::{SimDuration, SimTime};
use dynamo_controller::{ControlAction, CycleOutcome, LeafController};
use dynobs::{
    Band, Buckets, CounterId, FlightKind, FlightRecord, FlightRecorder, GaugeId, HistogramId,
    ObsConfig, Registry, RegistryBuilder, RegistryState, Shard, SpanKind, SpanRecord, TraceRing,
};

/// Tick phases instrumented by the `--profile-ticks` profiler, in the
/// order `Datacenter::step` runs them. Index positions are frozen:
/// `Observability::observe_tick_phase` takes the index, and the
/// exported metric family is `dynamo_tick_phase_seconds_<name>`.
pub const TICK_PHASES: [&str; 7] = [
    "fleet_step",
    "breaker_fold",
    "grid",
    "leaf_dispatch",
    "validator",
    "telemetry_merge",
    "fused_tile",
];

/// Index of each tick phase in [`TICK_PHASES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
#[allow(missing_docs)]
pub enum TickPhase {
    FleetStep = 0,
    BreakerFold = 1,
    Grid = 2,
    LeafDispatch = 3,
    Validator = 4,
    TelemetryMerge = 5,
    /// The tile-at-a-time settle pass — the only physics step, so
    /// phase 1 wall time always lands here. `fleet_step` (the retired
    /// phase-at-a-time pass) keeps its family, observing zeros, so the
    /// seven exported names and their order never change.
    FusedTile = 6,
}

/// Frozen metric handles for every instrumentation point.
#[allow(missing_docs)]
pub(crate) struct ObsIds {
    // RPC layer (recorded per leaf shard).
    pub(crate) rpc_calls: CounterId,
    pub(crate) rpc_drops: CounterId,
    pub(crate) rpc_timeouts: CounterId,
    pub(crate) rpc_agent_down: CounterId,
    pub(crate) rpc_rtt: HistogramId,
    // Leaf controllers.
    pub(crate) leaf_cycles: CounterId,
    pub(crate) leaf_cycles_elided: CounterId,
    pub(crate) band_hold: CounterId,
    pub(crate) band_cap: CounterId,
    pub(crate) band_uncap: CounterId,
    pub(crate) band_invalid: CounterId,
    pub(crate) pull_failures: CounterId,
    pub(crate) estimated_readings: CounterId,
    pub(crate) cut_watts: HistogramId,
    pub(crate) capped_servers: HistogramId,
    // Cut distribution.
    pub(crate) dist_buckets: HistogramId,
    pub(crate) dist_groups: CounterId,
    pub(crate) dist_shortfalls: CounterId,
    // Upper controllers (registry-direct, serial only).
    pub(crate) upper_cycles: CounterId,
    pub(crate) upper_capped: CounterId,
    pub(crate) upper_uncapped: CounterId,
    pub(crate) upper_contracts: CounterId,
    // Incidents and datacenter-level sources.
    pub(crate) failovers: CounterId,
    pub(crate) breaker_trips: CounterId,
    pub(crate) validator_alerts: CounterId,
    pub(crate) incidents: CounterId,
    // Gauges (owner-side only).
    pub(crate) fleet_power: GaugeId,
    pub(crate) capped_now: GaugeId,
    pub(crate) sim_time: GaugeId,
    // Grid layer and DCUPS banks (registry-direct, serial only).
    pub(crate) grid_econ_cycles: CounterId,
    pub(crate) grid_limit_changes: CounterId,
    pub(crate) grid_curtailments: CounterId,
    pub(crate) grid_curtailments_contained: CounterId,
    pub(crate) grid_violation_seconds: CounterId,
    pub(crate) dcups_discharge_seconds: CounterId,
    pub(crate) grid_price: GaugeId,
    pub(crate) grid_frequency: GaugeId,
    pub(crate) grid_curtail_limit: GaugeId,
    pub(crate) grid_utility_draw: GaugeId,
    pub(crate) grid_site_contract: GaugeId,
    pub(crate) dcups_charge: GaugeId,
    // Tick-phase profiler (owner-side, recorded only under
    // `--profile-ticks`; registered unconditionally so the exposition
    // and snapshot layouts never depend on the flag).
    pub(crate) tick_phase: [HistogramId; 7],
}

fn register(b: &mut RegistryBuilder) -> ObsIds {
    // 1 µs to ~65 ms in doublings: spans a sub-microsecond no-op phase
    // up to a full-site worst-case tick.
    let tick_phase = TICK_PHASES.map(|phase| {
        b.histogram(
            &format!("dynamo_tick_phase_seconds_{phase}"),
            match phase {
                "fleet_step" => "Wall seconds per tick settling servers, workloads and agents",
                "breaker_fold" => {
                    "Wall seconds per tick aggregating subtree draws and stepping breakers"
                }
                "grid" => "Wall seconds per tick in the grid-interactive layer",
                "leaf_dispatch" => {
                    "Wall seconds per tick dispatching due controller cycles (both tiers)"
                }
                "validator" => "Wall seconds per tick in the breaker validator scan",
                "fused_tile" => "Wall seconds per tick in the fused tile-at-a-time settle pass",
                _ => "Wall seconds per tick merging telemetry events and samples",
            },
            Buckets::log_linear(1e-6, 1, 16),
        )
    });
    ObsIds {
        tick_phase,
        rpc_calls: b.counter(
            "dynamo_rpc_calls_total",
            "RPC call attempts from leaf controllers to agents",
        ),
        rpc_drops: b.counter("dynamo_rpc_drops_total", "RPC calls lost in transit"),
        rpc_timeouts: b.counter("dynamo_rpc_timeouts_total", "RPC calls that timed out"),
        rpc_agent_down: b.counter(
            "dynamo_rpc_agent_down_total",
            "RPC calls to agents whose process was down",
        ),
        rpc_rtt: b.histogram(
            "dynamo_rpc_rtt_seconds",
            "Round-trip time of successful agent RPCs",
            Buckets::log_linear(0.001, 2, 8),
        ),
        leaf_cycles: b.counter("dynamo_leaf_cycles_total", "Completed leaf control cycles"),
        leaf_cycles_elided: b.counter(
            "dynamo_leaf_cycles_elided_total",
            "Leaf control cycles elided as provably quiescent",
        ),
        band_hold: b.counter(
            "dynamo_leaf_band_hold_total",
            "Leaf cycles that landed in the hold band",
        ),
        band_cap: b.counter(
            "dynamo_leaf_band_cap_total",
            "Leaf cycles that landed in the capping band",
        ),
        band_uncap: b.counter(
            "dynamo_leaf_band_uncap_total",
            "Leaf cycles that landed in the uncapping band",
        ),
        band_invalid: b.counter(
            "dynamo_leaf_band_invalid_total",
            "Leaf cycles with an invalid aggregation",
        ),
        pull_failures: b.counter(
            "dynamo_leaf_pull_failures_total",
            "Failed power pulls across leaf cycles",
        ),
        estimated_readings: b.counter(
            "dynamo_leaf_estimated_readings_total",
            "Readings filled in from service peers after a failed pull",
        ),
        cut_watts: b.histogram(
            "dynamo_leaf_cut_watts",
            "Magnitude of leaf power cuts",
            Buckets::log_linear(25.0, 2, 10),
        ),
        capped_servers: b.histogram(
            "dynamo_leaf_capped_servers",
            "Servers capped per leaf capping cycle",
            Buckets::log_linear(1.0, 1, 10),
        ),
        dist_buckets: b.histogram(
            "dynamo_distribution_buckets_expanded",
            "Power buckets included per cut before the cut fit",
            Buckets::log_linear(1.0, 1, 8),
        ),
        dist_groups: b.counter(
            "dynamo_distribution_groups_touched_total",
            "Priority groups that absorbed part of a cut",
        ),
        dist_shortfalls: b.counter(
            "dynamo_distribution_shortfalls_total",
            "Cut distributions that hit every SLA floor with watts left over",
        ),
        upper_cycles: b.counter(
            "dynamo_upper_cycles_total",
            "Completed upper control cycles",
        ),
        upper_capped: b.counter(
            "dynamo_upper_capped_total",
            "Upper cycles that pushed contracts down",
        ),
        upper_uncapped: b.counter(
            "dynamo_upper_uncapped_total",
            "Upper cycles that released contracts",
        ),
        upper_contracts: b.counter(
            "dynamo_upper_contracts_total",
            "Contractual limits pushed to children",
        ),
        failovers: b.counter(
            "dynamo_failovers_total",
            "Primary controller failures absorbed by backups",
        ),
        breaker_trips: b.counter("dynamo_breaker_trips_total", "Breakers that tripped"),
        validator_alerts: b.counter(
            "dynamo_validator_alerts_total",
            "Breaker-validator aggregation-mismatch alerts",
        ),
        incidents: b.counter(
            "dynamo_incidents_total",
            "Flight-recorder incident triggers (failover, capping episode, alert, trip)",
        ),
        fleet_power: b.gauge("dynamo_fleet_power_watts", "Total fleet power draw"),
        capped_now: b.gauge("dynamo_capped_servers", "Servers currently capped"),
        sim_time: b.gauge("dynamo_sim_time_seconds", "Simulated time"),
        grid_econ_cycles: b.counter(
            "dynamo_grid_econ_cycles_total",
            "Site economic-controller cycles run",
        ),
        grid_limit_changes: b.counter(
            "dynamo_grid_limit_changes_total",
            "Site contractual-limit changes pushed by the economic controller",
        ),
        grid_curtailments: b.counter(
            "dynamo_grid_curtailments_total",
            "Utility curtailment windows entered",
        ),
        grid_curtailments_contained: b.counter(
            "dynamo_grid_curtailments_contained_total",
            "Curtailment windows contained within the economic budget",
        ),
        grid_violation_seconds: b.counter(
            "dynamo_grid_curtailment_violation_seconds_total",
            "Seconds of utility draw above an active curtailment limit past the containment budget",
        ),
        dcups_discharge_seconds: b.counter(
            "dynamo_dcups_discharge_seconds_total",
            "Seconds with at least one DCUPS bank intentionally discharging",
        ),
        grid_price: b.gauge(
            "dynamo_grid_price_per_mwh",
            "Utility wholesale price signal",
        ),
        grid_frequency: b.gauge("dynamo_grid_frequency_hz", "Grid frequency signal"),
        grid_curtail_limit: b.gauge(
            "dynamo_grid_curtail_limit_watts",
            "Active utility curtailment limit (0 when no window is active)",
        ),
        grid_utility_draw: b.gauge(
            "dynamo_grid_utility_draw_watts",
            "Power drawn from the utility: servers minus DCUPS discharge plus recharge",
        ),
        grid_site_contract: b.gauge(
            "dynamo_grid_site_contract_watts",
            "Site-wide contractual limit pushed by the economic controller (0 when cleared)",
        ),
        dcups_charge: b.gauge(
            "dynamo_dcups_charge_fraction",
            "Aggregate DCUPS bank charge as a fraction of capacity",
        ),
    }
}

/// The control plane's observability state: metrics registry, span
/// ring, flight recorder, and pending incident dumps.
///
/// Obtain a shared reference through
/// [`crate::DynamoSystem::observability`]. With observability disabled
/// (the default) every recording call is a no-op — the registry
/// ignores writes, and a method that also pushes to a ring returns
/// first — and the exporters render an all-zero registry.
pub struct Observability {
    registry: Registry,
    ids: ObsIds,
    trace: TraceRing,
    flight: FlightRecorder,
    incident_dir: Option<PathBuf>,
    incident_seq: u64,
    /// Incident dumps not yet written to disk. Only ever non-empty when
    /// an incident directory is configured.
    pending: Vec<(PathBuf, String)>,
}

/// Spans retained for trace export.
const TRACE_SPANS: usize = 16_384;
/// Flight records retained per incident dump.
const FLIGHT_RECORDS: usize = 256;

impl Observability {
    /// Builds the registry, rings and recorder.
    pub(crate) fn new(config: &ObsConfig) -> Self {
        let mut b = RegistryBuilder::new();
        let ids = register(&mut b);
        Observability {
            registry: b.build(config.enabled),
            ids,
            trace: TraceRing::new(TRACE_SPANS),
            flight: FlightRecorder::new(FLIGHT_RECORDS),
            incident_dir: config
                .enabled
                .then(|| config.incident_dir.clone())
                .flatten(),
            incident_seq: 0,
            pending: Vec::new(),
        }
    }

    /// Whether recording is live.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_enabled()
    }

    /// The merged metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The span ring (cycle tracing).
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// The flight recorder ring.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Renders the registry in Prometheus text exposition format.
    pub fn prometheus_text(&self) -> String {
        dynobs::render_prometheus(&self.registry)
    }

    /// Renders the span ring as chrome-tracing JSON.
    pub fn chrome_trace(&self) -> String {
        self.trace.to_chrome_json()
    }

    /// Incident triggers fired so far.
    pub fn incidents(&self) -> u64 {
        self.registry.counter_value(self.ids.incidents)
    }

    /// Writes any pending incident dumps into the configured incident
    /// directory, returning the number written. No-op (and `Ok(0)`)
    /// when nothing is pending.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-write failures; the
    /// pending dumps that were not written are kept for a retry.
    pub fn flush_incidents(&mut self) -> std::io::Result<usize> {
        if self.pending.is_empty() {
            return Ok(0);
        }
        if let Some(dir) = &self.incident_dir {
            std::fs::create_dir_all(dir)?;
        }
        let mut written = 0;
        while let Some((path, json)) = self.pending.first() {
            std::fs::write(path, json)?;
            written += 1;
            self.pending.remove(0);
        }
        Ok(written)
    }

    /// A recording shard for one leaf controller to own.
    pub(crate) fn new_shard(&self) -> Shard {
        self.registry.shard()
    }

    /// The metric ids a leaf records into its shard with.
    pub(crate) fn ids(&self) -> &ObsIds {
        &self.ids
    }

    /// Counts `n` leaf cycles elided as provably quiescent (serial
    /// context: the filter runs before the dispatch).
    pub(crate) fn record_elided_cycles(&mut self, n: u64) {
        self.registry.add(self.ids.leaf_cycles_elided, n);
    }

    /// Folds the shards (`shard_of` a leaf) of the leaves that `ran`
    /// into the registry and drains their span/flight buffers, in
    /// ascending leaf-index order (`ran` is sorted). Incident triggers
    /// found among the flight records (failovers, capping-episode
    /// starts) fire here, after the record is in the ring, so the dump
    /// contains its own trigger.
    pub(crate) fn merge_leaves<L>(
        &mut self,
        ran: &[usize],
        leaves: &mut [L],
        shard_of: impl Fn(&mut L) -> &mut Shard,
    ) {
        if !self.registry.is_enabled() {
            return;
        }
        // Incident triggers are deferred until every shard is in the
        // ring, so a dump carries the full tick's context. The buffer
        // only allocates in ticks that actually trigger.
        let mut triggers: Vec<(&'static str, u64)> = Vec::new();
        for &i in ran {
            let shard = shard_of(&mut leaves[i]);
            self.registry.merge_shard(shard);
            for span in shard.take_spans() {
                self.trace.push(span);
            }
            for record in shard.take_flights() {
                let at_ms = record.at_ms;
                let trigger = match &record.kind {
                    FlightKind::Failover => Some("failover"),
                    FlightKind::LeafCapped {
                        episode_start: true,
                        ..
                    } => Some("capping-episode"),
                    _ => None,
                };
                self.flight.push(record);
                if let Some(trigger) = trigger {
                    triggers.push((trigger, at_ms));
                }
            }
        }
        for (trigger, at_ms) in triggers {
            self.incident(trigger, at_ms);
        }
    }

    /// Records one upper-controller cycle (serial context).
    pub(crate) fn record_upper_cycle(
        &mut self,
        now: SimTime,
        track: u32,
        name: &Arc<str>,
        capped: bool,
        uncapped: bool,
        contracts: u32,
    ) {
        if !self.registry.is_enabled() {
            return;
        }
        self.registry.inc(self.ids.upper_cycles);
        self.trace.push(SpanRecord {
            kind: SpanKind::UpperCycle,
            track,
            start_us: now.as_millis() * 1000,
            dur_us: 0,
            name: Arc::clone(name),
        });
        if capped {
            self.registry.inc(self.ids.upper_capped);
            self.registry
                .add(self.ids.upper_contracts, contracts as u64);
            self.flight.push(FlightRecord {
                at_ms: now.as_millis(),
                track,
                controller: Arc::clone(name),
                kind: FlightKind::UpperCapped { contracts },
            });
        } else if uncapped {
            self.registry.inc(self.ids.upper_uncapped);
            self.flight.push(FlightRecord {
                at_ms: now.as_millis(),
                track,
                controller: Arc::clone(name),
                kind: FlightKind::UpperUncapped,
            });
        }
    }

    /// Records an upper-controller failover (serial context).
    pub(crate) fn record_upper_failover(&mut self, now: SimTime, track: u32, name: &Arc<str>) {
        if !self.registry.is_enabled() {
            return;
        }
        self.registry.inc(self.ids.failovers);
        self.trace.push(SpanRecord {
            kind: SpanKind::Failover,
            track,
            start_us: now.as_millis() * 1000,
            dur_us: 0,
            name: Arc::clone(name),
        });
        self.flight.push(FlightRecord {
            at_ms: now.as_millis(),
            track,
            controller: Arc::clone(name),
            kind: FlightKind::Failover,
        });
        self.incident("failover", now.as_millis());
    }

    /// Records a breaker trip (datacenter context).
    pub(crate) fn record_breaker_trip(&mut self, now: SimTime, track: u32, name: Arc<str>) {
        if !self.registry.is_enabled() {
            return;
        }
        self.registry.inc(self.ids.breaker_trips);
        self.flight.push(FlightRecord {
            at_ms: now.as_millis(),
            track,
            controller: name,
            kind: FlightKind::BreakerTrip,
        });
        self.incident("breaker-trip", now.as_millis());
    }

    /// Records `n` new breaker-validator alerts (datacenter context).
    pub(crate) fn record_validator_alerts(&mut self, now: SimTime, n: u64, name: &Arc<str>) {
        if !self.registry.is_enabled() || n == 0 {
            return;
        }
        self.registry.add(self.ids.validator_alerts, n);
        for _ in 0..n {
            self.flight.push(FlightRecord {
                at_ms: now.as_millis(),
                track: 0,
                controller: Arc::clone(name),
                kind: FlightKind::ValidatorAlert,
            });
        }
        self.incident("validator-alert", now.as_millis());
    }

    /// Updates the grid-layer gauges (datacenter context, every tick a
    /// grid layer is active). Inactive limits are exported as 0 so the
    /// exposition keeps a fixed shape.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn set_grid_gauges(
        &mut self,
        price_per_mwh: f64,
        frequency_hz: f64,
        curtail_limit_watts: f64,
        utility_draw_watts: f64,
        site_contract_watts: f64,
        dcups_charge_fraction: f64,
    ) {
        self.registry.set_gauge(self.ids.grid_price, price_per_mwh);
        self.registry
            .set_gauge(self.ids.grid_frequency, frequency_hz);
        self.registry
            .set_gauge(self.ids.grid_curtail_limit, curtail_limit_watts);
        self.registry
            .set_gauge(self.ids.grid_utility_draw, utility_draw_watts);
        self.registry
            .set_gauge(self.ids.grid_site_contract, site_contract_watts);
        self.registry
            .set_gauge(self.ids.dcups_charge, dcups_charge_fraction);
    }

    /// Records one economic-controller cycle (serial context).
    pub(crate) fn record_grid_econ_cycle(&mut self, changed: bool) {
        self.registry.inc(self.ids.grid_econ_cycles);
        if changed {
            self.registry.inc(self.ids.grid_limit_changes);
        }
    }

    /// Records a curtailment window opening.
    pub(crate) fn record_grid_curtailment_start(&mut self) {
        self.registry.inc(self.ids.grid_curtailments);
    }

    /// Records a curtailment window closing, contained or not.
    pub(crate) fn record_grid_curtailment_end(&mut self, contained: bool) {
        if contained {
            self.registry.inc(self.ids.grid_curtailments_contained);
        }
    }

    /// Accumulates a tick of intentional DCUPS discharge.
    pub(crate) fn record_dcups_discharge(&mut self, secs: u64) {
        self.registry.add(self.ids.dcups_discharge_seconds, secs);
    }

    /// Accumulates a tick of utility draw above an active curtailment
    /// limit past the containment budget.
    pub(crate) fn record_grid_violation_tick(&mut self, secs: u64) {
        self.registry.add(self.ids.grid_violation_seconds, secs);
    }

    /// Records the first budget-exceeding breach of a curtailment
    /// window: a flight record plus the `curtailment-violation`
    /// incident trigger (once per window, at the caller's discretion).
    pub(crate) fn record_curtailment_violation(
        &mut self,
        now: SimTime,
        name: &Arc<str>,
        limit_watts: f64,
        draw_watts: f64,
    ) {
        if !self.registry.is_enabled() {
            return;
        }
        self.flight.push(FlightRecord {
            at_ms: now.as_millis(),
            track: 0,
            controller: Arc::clone(name),
            kind: FlightKind::CurtailmentViolation {
                limit_watts,
                draw_watts,
            },
        });
        self.incident("curtailment-violation", now.as_millis());
    }

    /// Records one tick phase's wall-clock duration (datacenter
    /// context, only under `--profile-ticks`). Wall clocks are
    /// inherently non-deterministic, which is why the profiler is
    /// opt-in and stays off in every determinism test.
    pub(crate) fn observe_tick_phase(&mut self, phase: TickPhase, secs: f64) {
        self.registry
            .observe(self.ids.tick_phase[phase as usize], secs);
    }

    /// The profiler's accumulated `(phase, ticks observed, total
    /// seconds)` rows, in [`TICK_PHASES`] order. All-zero unless the
    /// run recorded phases.
    pub fn tick_phase_profile(&self) -> [(&'static str, u64, f64); 7] {
        let mut rows = [("", 0u64, 0.0f64); 7];
        for (i, (&phase, &id)) in TICK_PHASES.iter().zip(&self.ids.tick_phase).enumerate() {
            let h = self.registry.histogram(id);
            rows[i] = (phase, h.count, h.sum);
        }
        rows
    }

    /// Updates the fleet gauges (datacenter context, sampling cadence).
    pub(crate) fn set_gauges(&mut self, now: SimTime, fleet_power_watts: f64, capped: usize) {
        self.registry
            .set_gauge(self.ids.fleet_power, fleet_power_watts);
        self.registry.set_gauge(self.ids.capped_now, capped as f64);
        self.registry
            .set_gauge(self.ids.sim_time, now.as_secs_f64());
    }

    /// Captures the observability state for a snapshot: registry
    /// values, the leaves' last decision bands, both rings, and the
    /// incident sequence counter. Shards are empty at tick boundaries
    /// (every dispatch merges what it wrote), so nothing of them is
    /// saved.
    ///
    /// # Panics
    ///
    /// Panics if incident dumps are pending — callers flush to disk
    /// before snapshotting so a resume cannot silently drop or
    /// duplicate an incident file.
    pub(crate) fn state(&self, shard_bands: Vec<u32>) -> ObservabilityState {
        assert!(
            self.pending.is_empty(),
            "flush_incidents() before snapshotting observability"
        );
        ObservabilityState {
            registry: self.registry.state(),
            shard_bands,
            trace: self.trace.clone(),
            flight: self.flight.clone(),
            incident_seq: self.incident_seq,
        }
    }

    /// Restores the observability state from a decoded snapshot taken
    /// against an identically-configured control plane. The caller
    /// installs `state.shard_bands` on the leaves.
    pub(crate) fn restore(&mut self, state: &ObservabilityState) -> Result<(), SnapError> {
        if state.trace.capacity() != TRACE_SPANS || state.flight.capacity() != FLIGHT_RECORDS {
            return Err(SnapError::Corrupt(format!(
                "observability snapshot ring capacities (trace {}, flight {}) are not this \
                 build's (trace {TRACE_SPANS}, flight {FLIGHT_RECORDS})",
                state.trace.capacity(),
                state.flight.capacity(),
            )));
        }
        self.registry.restore(&state.registry)?;
        // Into the live rings' own buffers: a decoded ring is only as
        // large as what it holds, and installing it would put the first
        // records after a resume back on the heap.
        self.trace.restore_from(&state.trace);
        self.flight.restore_from(&state.flight);
        self.incident_seq = state.incident_seq;
        Ok(())
    }

    /// Fires one incident trigger: counts it and, when an incident
    /// directory is configured, queues a dump of the flight ring. With
    /// no directory this is a counter bump — no allocation.
    fn incident(&mut self, trigger: &str, at_ms: u64) {
        self.registry.inc(self.ids.incidents);
        if let Some(dir) = &self.incident_dir {
            self.incident_seq += 1;
            let json = self.flight.incident_json(trigger, at_ms, self.incident_seq);
            let file = dir.join(format!("incident-{:04}-{trigger}.json", self.incident_seq));
            self.pending.push((file, json));
        }
    }
}

/// The observability subsystem's dynamic state.
pub(crate) struct ObservabilityState {
    pub(crate) registry: RegistryState,
    /// Each leaf's last decision band ([`Band::code`]).
    pub(crate) shard_bands: Vec<u32>,
    pub(crate) trace: TraceRing,
    pub(crate) flight: FlightRecorder,
    pub(crate) incident_seq: u64,
}

impl Snapshot for ObservabilityState {
    const KIND: &'static str = "dynamo.ObservabilityState";
    const VERSION: u32 = 1;

    fn encode_body(&self, w: &mut SnapWriter) {
        self.registry.encode_body(w);
        w.put_u64(self.shard_bands.len() as u64);
        for &band in &self.shard_bands {
            w.put_u32(band);
        }
        self.trace.encode_body(w);
        self.flight.encode_body(w);
        w.put_u64(self.incident_seq);
    }

    fn decode_body(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let registry = RegistryState::decode_body(r)?;
        let shard_bands = r.get_vec(|r| r.get_u32())?;
        Ok(ObservabilityState {
            registry,
            shard_bands,
            trace: TraceRing::decode_body(r)?,
            flight: FlightRecorder::decode_body(r)?,
            incident_seq: r.get_count()?,
        })
    }
}

/// Records a leaf failover into the leaf's shard — shared by the serial
/// loop and the parallel workers so both paths buffer the identical
/// records.
pub(crate) fn record_leaf_failover(
    shard: &mut Shard,
    ids: &ObsIds,
    now: SimTime,
    track: u32,
    name: Arc<str>,
) {
    shard.inc(ids.failovers);
    if shard.is_enabled() {
        shard.span(SpanRecord {
            kind: SpanKind::Failover,
            track,
            start_us: now.as_millis() * 1000,
            dur_us: 0,
            name: Arc::clone(&name),
        });
        shard.flight(FlightRecord {
            at_ms: now.as_millis(),
            track,
            controller: name,
            kind: FlightKind::Failover,
        });
    }
}

/// Maps a leaf control action to its decision band.
pub(crate) fn band_of(action: &ControlAction) -> Band {
    match action {
        ControlAction::Capped { .. } => Band::Cap,
        ControlAction::Uncapped => Band::Uncap,
        ControlAction::Invalid => Band::Invalid,
        ControlAction::Hold => Band::Hold,
    }
}

/// Records the detailed (enabled-only) telemetry of one leaf cycle into
/// the leaf's shard: band transitions (moving `last_band`, the leaf's
/// band after its previous recorded cycle), capping flights,
/// distribution stats and the cycle/pull/distribution/actuation spans.
/// The cheap always-on counters are recorded at the call site; callers
/// gate this behind [`Shard::is_enabled`] so the disabled path never
/// clones a name.
#[allow(clippy::too_many_arguments)]
pub(crate) fn record_leaf_cycle(
    shard: &mut Shard,
    last_band: &mut Band,
    ids: &ObsIds,
    now: SimTime,
    track: u32,
    controller: &LeafController,
    outcome: &CycleOutcome,
    caps_before: usize,
    dry_run: bool,
    pull_rtt: SimDuration,
    act_rtt: SimDuration,
) {
    let name = controller.name_shared();
    let at_ms = now.as_millis();
    let start_us = at_ms * 1000;
    let band = band_of(&outcome.action);
    let prev = std::mem::replace(last_band, band);
    if prev != band {
        shard.flight(FlightRecord {
            at_ms,
            track,
            controller: Arc::clone(&name),
            kind: FlightKind::BandTransition {
                from: prev,
                to: band,
            },
        });
    }
    match &outcome.action {
        ControlAction::Capped {
            total_cut,
            commands,
        } => {
            let dist = controller.last_distribution();
            shard.observe(ids.cut_watts, total_cut.as_watts());
            shard.observe(ids.capped_servers, commands.len() as f64);
            shard.observe(ids.dist_buckets, f64::from(dist.buckets_expanded));
            shard.add(ids.dist_groups, u64::from(dist.groups_touched));
            if dist.leftover_watts > 0.0 {
                shard.inc(ids.dist_shortfalls);
            }
            shard.flight(FlightRecord {
                at_ms,
                track,
                controller: Arc::clone(&name),
                kind: FlightKind::LeafCapped {
                    cut_watts: total_cut.as_watts(),
                    servers: commands.len() as u32,
                    episode_start: caps_before == 0 && !dry_run,
                },
            });
        }
        ControlAction::Uncapped => shard.flight(FlightRecord {
            at_ms,
            track,
            controller: Arc::clone(&name),
            kind: FlightKind::LeafUncapped,
        }),
        ControlAction::Invalid => shard.flight(FlightRecord {
            at_ms,
            track,
            controller: Arc::clone(&name),
            kind: FlightKind::LeafInvalid {
                failures: outcome.pull_failures as u32,
            },
        }),
        ControlAction::Hold => {}
    }
    let pull_us = pull_rtt.as_millis() * 1000;
    let act_us = act_rtt.as_millis() * 1000;
    shard.span(SpanRecord {
        kind: SpanKind::RpcPull,
        track,
        start_us,
        dur_us: pull_us,
        name: Arc::clone(&name),
    });
    if outcome.action.is_capped() {
        shard.span(SpanRecord {
            kind: SpanKind::Distribution,
            track,
            start_us: start_us + pull_us,
            dur_us: 0,
            name: Arc::clone(&name),
        });
    }
    if act_us > 0 {
        shard.span(SpanRecord {
            kind: SpanKind::Actuation,
            track,
            start_us: start_us + pull_us,
            dur_us: act_us,
            name: Arc::clone(&name),
        });
    }
    shard.span(SpanRecord {
        kind: SpanKind::LeafCycle,
        track,
        start_us,
        dur_us: pull_us + act_us,
        name,
    });
}
