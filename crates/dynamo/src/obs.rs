//! Control-plane observability: the [`dynobs`] registry, trace ring and
//! flight recorder wired through the controller hierarchy.
//!
//! Every leaf controller owns one [`dynobs::Shard`]
//! ([`Observability::new_shard`]), which travels with the leaf into
//! whichever shard of the leaf dispatch runs it, so its counters and
//! histograms are recorded lock-free and allocation-free. A leaf cycle
//! writes nothing else: it keeps its action as at most one
//! [`crate::ControllerEvent`], its two round-trip sums and whether a cap
//! opened an episode. After every leaf dispatch
//! [`Observability::merge_leaves`] walks the leaves that ran in
//! ascending leaf-index order, folds each shard into the registry and
//! builds the leaf's spans and flight records from what it kept, which
//! keeps the registry (float histogram sums included) and both rings
//! bit-identical at any worker-thread count. Everything that runs
//! serially — elided cycles (counted once per dispatch, before it),
//! upper controllers, and datacenter-level sources (breakers, the
//! validator) — records into the registry directly; an upper controller
//! hands its event to the same builders a leaf's goes through.

use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;

use dcsim::snap::{ConfigDigest, SnapError, SnapReader, SnapWriter};
use dcsim::SimTime;
use dynobs::{
    Band, Buckets, CounterId, FlightKind, FlightRecord, FlightRecorder, GaugeId, HistogramId,
    ObsConfig, Registry, RegistryBuilder, Shard, SpanKind, SpanRecord, TraceRing,
};
use powerinfra::{DeviceId, Topology};

use crate::events::ControllerEventKind;
use crate::leaf_exec::Leaf;

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
    /// What the records' tracks name, looked up when text is rendered.
    names: Names,
}

/// The names a record's kind and track look up, built once with the
/// control plane whether or not it records: every device's, by index (a
/// breaker trip's track), and the device each controller track protects
/// — leaf `i` on track `i`, upper `j` on track `leaves + j`. A name is
/// the topology's one allocation, which the device's controller shares
/// too.
#[derive(Default)]
struct Names {
    devices: Vec<Arc<str>>,
    /// The device index of each track's controller, leaves then uppers.
    tracks: Vec<u32>,
    /// How many of the tracks are leaves'.
    leaves: usize,
}

impl Names {
    /// The tracks of the leaf tier, of the upper tier, and of both.
    fn tiers(&self) -> [Range<usize>; 3] {
        let all = 0..self.tracks.len();
        [0..self.leaves, self.leaves..all.end, all]
    }

    /// The name of the controller on `track`, if `tier` holds the track.
    fn controller(&self, track: u32, tier: Range<usize>) -> Option<&str> {
        let track = track as usize;
        tier.contains(&track)
            .then(|| &*self.devices[self.tracks[track] as usize])
    }

    /// What made `span`, if its track has a controller of the span
    /// kind's tier: an upper cycle is an upper's, a takeover either
    /// tier's, the rest a leaf's.
    fn span(&self, span: &SpanRecord) -> Option<&str> {
        let [leaves, uppers, all] = self.tiers();
        let tier = match span.kind {
            SpanKind::UpperCycle => uppers,
            SpanKind::Failover => all,
            SpanKind::LeafCycle
            | SpanKind::RpcPull
            | SpanKind::Distribution
            | SpanKind::Actuation => leaves,
        };
        self.controller(span.track, tier)
    }

    /// What made `record`, if its track names something of its kind: a
    /// device for a breaker trip, the validator or the grid layer on
    /// track 0, else the controller of its tier on that track.
    fn flight(&self, record: &FlightRecord) -> Option<&str> {
        let [leaves, uppers, all] = self.tiers();
        let on_zero = |name| (record.track == 0).then_some(name);
        match record.kind {
            FlightKind::BreakerTrip => self.devices.get(record.track as usize).map(|n| &**n),
            FlightKind::ValidatorAlert => on_zero("breaker-validator"),
            FlightKind::CurtailmentViolation { .. } => on_zero("grid-econ"),
            FlightKind::Failover => self.controller(record.track, all),
            FlightKind::UpperCapped { .. } | FlightKind::UpperUncapped => {
                self.controller(record.track, uppers)
            }
            FlightKind::LeafCapped { .. }
            | FlightKind::LeafUncapped
            | FlightKind::LeafInvalid { .. }
            | FlightKind::BandTransition { .. } => self.controller(record.track, leaves),
        }
    }
}

/// Why a ring's record must have a name: every record is pushed with a
/// track the build named, or refused at load.
const UNNAMED: &str = "a record's track names nothing: tracks not named at build";

/// Spans retained for trace export.
const TRACE_SPANS: usize = 16_384;
/// Flight records retained per incident dump.
const FLIGHT_RECORDS: usize = 256;

impl Observability {
    /// Builds the registry, rings and recorder. No track names anything
    /// until [`Observability::name_tracks`], so nothing may be recorded,
    /// loaded or rendered before it.
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
            names: Names::default(),
        }
    }

    /// Names what the tracks point at: the devices of `topo`, by index,
    /// and the controller tracks, `leaves` in leaf order, then `uppers`
    /// in upper order.
    pub(crate) fn name_tracks(
        &mut self,
        topo: &Topology,
        leaves: &[DeviceId],
        uppers: &[DeviceId],
    ) {
        let tracks = leaves.iter().chain(uppers);
        self.names = Names {
            devices: topo.iter().map(|d| Arc::clone(&d.name)).collect(),
            tracks: tracks.map(|d| d.index() as u32).collect(),
            leaves: leaves.len(),
        };
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

    /// The name of what made `record`, one of [`Observability::flight`]'s:
    /// the controller on its track, the device a breaker trip names, the
    /// breaker validator or the grid layer.
    ///
    /// # Panics
    ///
    /// Panics if `record`'s track names nothing of its kind here, as no
    /// record this run made or loaded does.
    pub fn recorded_by(&self, record: &FlightRecord) -> &str {
        self.names.flight(record).expect(UNNAMED)
    }

    /// Renders the registry in Prometheus text exposition format.
    pub fn prometheus_text(&self) -> String {
        dynobs::render_prometheus(&self.registry)
    }

    /// Renders the span ring as chrome-tracing JSON.
    pub fn chrome_trace(&self) -> String {
        let name = |s: &SpanRecord| self.names.span(s).expect(UNNAMED);
        self.trace.to_chrome_json(name)
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

    /// Folds what the leaves that `ran` at `now` kept into the registry
    /// and the rings, in ascending leaf-index order (`ran` is sorted):
    /// each leaf's shard ([`Registry::merge_shard`]), then the records
    /// its takeover or cycle makes. Incident triggers (failovers,
    /// capping-episode starts) fire once every leaf is in the ring, so a
    /// dump carries the full tick's leaf context and contains its own
    /// trigger, and before any upper record of the tick.
    pub(crate) fn merge_leaves(&mut self, now: SimTime, ran: &[usize], leaves: &mut [Leaf]) {
        if !self.registry.is_enabled() {
            return;
        }
        // Only allocates in ticks that actually trigger.
        let mut triggers: Vec<&'static str> = Vec::new();
        for &i in ran {
            let leaf = &mut leaves[i];
            self.registry.merge_shard(&mut leaf.obs);
            triggers.extend(self.record_leaf(now, i as u32, leaf));
        }
        for trigger in triggers {
            self.incident(trigger, now.as_millis());
        }
    }

    /// Records what leaf `track` did at `now`: its takeover, or its
    /// cycle — the pull, distribution, actuation and cycle spans, a band
    /// transition (moving [`Leaf::band`]) and the action's flight
    /// record. Returns the incident trigger it fired, if any.
    fn record_leaf(&mut self, now: SimTime, track: u32, leaf: &mut Leaf) -> Option<&'static str> {
        let action = leaf.event.as_ref().map(|e| &e.kind);
        if let Some(takeover @ ControllerEventKind::Failover) = action {
            return self.record_action(now, track, takeover, false);
        }
        let start_us = now.as_millis() * 1000;
        let pull_us = leaf.pull_rtt.as_millis() * 1000;
        let act_us = leaf.act_rtt.as_millis() * 1000;
        self.push_span(SpanKind::RpcPull, track, start_us, pull_us);
        let band = band_of(action);
        if band == Band::Cap {
            self.push_span(SpanKind::Distribution, track, start_us + pull_us, 0);
        }
        if act_us > 0 {
            self.push_span(SpanKind::Actuation, track, start_us + pull_us, act_us);
        }
        self.push_span(SpanKind::LeafCycle, track, start_us, pull_us + act_us);
        let from = std::mem::replace(&mut leaf.band, band);
        if from != band {
            self.push_flight(now, track, FlightKind::BandTransition { from, to: band });
        }
        self.record_action(now, track, action?, leaf.episode_start)
    }

    /// Records what upper controller `track` did at `now` (serial
    /// context): its takeover, or its cycle — a span, and `action`'s
    /// flight record when it pushed or released contracts.
    pub(crate) fn record_upper(
        &mut self,
        now: SimTime,
        track: u32,
        action: Option<&ControllerEventKind>,
    ) {
        if !self.registry.is_enabled() {
            return;
        }
        if !matches!(action, Some(ControllerEventKind::Failover)) {
            self.registry.inc(self.ids.upper_cycles);
            self.push_span(SpanKind::UpperCycle, track, now.as_millis() * 1000, 0);
        }
        if let Some(trigger) = action.and_then(|a| self.record_action(now, track, a, false)) {
            self.incident(trigger, now.as_millis());
        }
    }

    /// Records controller action `action` at `now` on `track`, for
    /// either tier: its counters, a takeover's span, and its flight
    /// record ([`flight_kind`]). Returns the incident trigger the action
    /// fires — a takeover, or a cap that opened a capping episode — for
    /// the caller to fire when the tick's context is in the ring.
    fn record_action(
        &mut self,
        now: SimTime,
        track: u32,
        action: &ControllerEventKind,
        episode_start: bool,
    ) -> Option<&'static str> {
        let kind = flight_kind(action, episode_start);
        let trigger = match kind {
            FlightKind::Failover => {
                self.registry.inc(self.ids.failovers);
                self.push_span(SpanKind::Failover, track, now.as_millis() * 1000, 0);
                Some("failover")
            }
            FlightKind::LeafCapped {
                episode_start: true,
                ..
            } => Some("capping-episode"),
            FlightKind::UpperCapped { contracts } => {
                self.registry.inc(self.ids.upper_capped);
                self.registry
                    .add(self.ids.upper_contracts, u64::from(contracts));
                None
            }
            FlightKind::UpperUncapped => {
                self.registry.inc(self.ids.upper_uncapped);
                None
            }
            _ => None,
        };
        self.push_flight(now, track, kind);
        trigger
    }

    /// Records a breaker trip on device `track`, its index (datacenter
    /// context).
    pub(crate) fn record_breaker_trip(&mut self, now: SimTime, track: u32) {
        if !self.registry.is_enabled() {
            return;
        }
        self.registry.inc(self.ids.breaker_trips);
        self.push_flight(now, track, FlightKind::BreakerTrip);
        self.incident("breaker-trip", now.as_millis());
    }

    /// Records `n` new breaker-validator alerts (datacenter context).
    pub(crate) fn record_validator_alerts(&mut self, now: SimTime, n: u64) {
        if !self.registry.is_enabled() || n == 0 {
            return;
        }
        self.registry.add(self.ids.validator_alerts, n);
        for _ in 0..n {
            self.push_flight(now, 0, FlightKind::ValidatorAlert);
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
        limit_watts: f64,
        draw_watts: f64,
    ) {
        if !self.registry.is_enabled() {
            return;
        }
        let kind = FlightKind::CurtailmentViolation {
            limit_watts,
            draw_watts,
        };
        self.push_flight(now, 0, kind);
        self.incident("curtailment-violation", now.as_millis());
    }

    /// Records the wall-clock duration of tick phase `phase`, its index
    /// in [`TICK_PHASES`] (datacenter context, only under
    /// `--profile-ticks`). Wall clocks are
    /// inherently non-deterministic, which is why the profiler is
    /// opt-in and stays off in every determinism test.
    pub(crate) fn observe_tick_phase(&mut self, phase: usize, secs: f64) {
        self.registry.observe(self.ids.tick_phase[phase], secs);
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

    /// Folds the rings' capacities into the control plane's digest.
    pub(crate) fn fold_config(&self, d: &mut ConfigDigest) {
        self.trace.fold_config(d);
        self.flight.fold_config(d);
    }

    /// Saves the observability state: registry values, both rings, and
    /// the incident sequence counter. Shards are empty at tick
    /// boundaries (every dispatch merges what it wrote), and pending
    /// incident dumps are not state — [`crate::Datacenter::state`]
    /// writes them out first, so a resume can neither drop nor
    /// duplicate an incident file.
    pub(crate) fn save(&self, w: &mut SnapWriter) {
        self.registry.save(w);
        self.trace.save(w);
        self.flight.save(w);
        w.put_u64(self.incident_seq);
    }

    /// Loads what [`Observability::save`] wrote into a subsystem built
    /// with the same configuration. A record whose track names nothing
    /// of its kind ([`Names`]) is refused: no run records one.
    pub(crate) fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.registry.load(r)?;
        self.trace.load(r)?;
        if let Some(s) = self.trace.iter().find(|s| self.names.span(s).is_none()) {
            return Err(SnapError::Corrupt(format!(
                "{} span on track {} names no controller",
                s.kind.label(),
                s.track
            )));
        }
        self.flight.load(r)?;
        if let Some(f) = self.flight.iter().find(|f| self.names.flight(f).is_none()) {
            return Err(SnapError::Corrupt(format!(
                "{} record on track {} names nothing of its kind",
                f.kind.label(),
                f.track
            )));
        }
        self.incident_seq = r.get_count()?;
        Ok(())
    }

    /// Pushes one span onto the trace ring.
    fn push_span(&mut self, kind: SpanKind, track: u32, start_us: u64, dur_us: u64) {
        self.trace.push(SpanRecord {
            kind,
            track,
            start_us,
            dur_us,
        });
    }

    /// Pushes one record onto the flight ring.
    fn push_flight(&mut self, now: SimTime, track: u32, kind: FlightKind) {
        self.flight.push(FlightRecord {
            at_ms: now.as_millis(),
            track,
            kind,
        });
    }

    /// Fires one incident trigger: counts it and, when an incident
    /// directory is configured, queues a dump of the flight ring. With
    /// no directory this is a counter bump — no allocation.
    fn incident(&mut self, trigger: &str, at_ms: u64) {
        self.registry.inc(self.ids.incidents);
        if let Some(dir) = &self.incident_dir {
            self.incident_seq += 1;
            let seq = self.incident_seq;
            let name = |f: &FlightRecord| self.names.flight(f).expect(UNNAMED);
            let json = self.flight.incident_json(trigger, at_ms, seq, name);
            let file = dir.join(format!("incident-{seq:04}-{trigger}.json"));
            self.pending.push((file, json));
        }
    }
}

/// The decision band a leaf cycle whose action is `action` lands in;
/// `None` is a hold.
pub(crate) fn band_of(action: Option<&ControllerEventKind>) -> Band {
    match action {
        Some(ControllerEventKind::LeafCapped { .. }) => Band::Cap,
        Some(ControllerEventKind::LeafUncapped) => Band::Uncap,
        Some(ControllerEventKind::LeafInvalid { .. }) => Band::Invalid,
        _ => Band::Hold,
    }
}

/// The flight record kind of controller action `action`, for either
/// tier; `episode_start` says whether a leaf cap opened a capping
/// episode.
fn flight_kind(action: &ControllerEventKind, episode_start: bool) -> FlightKind {
    match *action {
        ControllerEventKind::LeafCapped { total_cut, servers } => FlightKind::LeafCapped {
            cut_watts: total_cut.as_watts(),
            servers: servers as u32,
            episode_start,
        },
        ControllerEventKind::LeafUncapped => FlightKind::LeafUncapped,
        ControllerEventKind::LeafInvalid { failures } => FlightKind::LeafInvalid {
            failures: failures as u32,
        },
        ControllerEventKind::UpperCapped { contracts } => FlightKind::UpperCapped {
            contracts: contracts as u32,
        },
        ControllerEventKind::UpperUncapped => FlightKind::UpperUncapped,
        ControllerEventKind::Failover => FlightKind::Failover,
    }
}

#[cfg(test)]
mod tests {
    use dcsim::snap::{SnapError, Snapshot};
    use dcsim::SimDuration;
    use powerinfra::Power;
    use workloads::{ServiceKind, TrafficPattern};

    use super::*;
    use crate::{Datacenter, DatacenterBuilder, DatacenterState};

    /// An observed eight-leaf row over lossy links, tight enough at its
    /// RPPs to cap, run `threads` wide.
    fn observed(threads: usize) -> Datacenter {
        row(threads).observability(ObsConfig::on()).build()
    }

    /// [`observed`]'s builder, recording nothing.
    fn row(threads: usize) -> DatacenterBuilder {
        DatacenterBuilder::new()
            .sbs_per_msb(2)
            .rpps_per_sb(4)
            .racks_per_rpp(2)
            .servers_per_rack(4)
            .rpp_rating(Power::from_kilowatts(2.1))
            .uniform_service(ServiceKind::Web)
            .traffic(ServiceKind::Web, TrafficPattern::flat(1.4))
            .rpc_profile(dynrpc::LinkProfile::lossy(0.05, 0.05))
            .worker_threads(threads)
            .seed(29)
    }

    /// [`observed`] one wide, run through every kind of record: caps,
    /// takeovers in both tiers, a breaker trip and validator alerts.
    fn scripted() -> Datacenter {
        let mut dc = observed(1);
        dc.run_for(SimDuration::from_mins(2));
        let (leaf, upper) = (
            dc.system().leaf_devices()[3],
            dc.system().upper_devices()[1],
        );
        dc.system_mut().fail_primary(leaf);
        dc.system_mut().fail_primary(upper);
        dc.run_for(SimDuration::from_mins(1));
        let now = dc.now();
        let obs = dc.system_mut().observability_mut();
        obs.record_breaker_trip(now, 5);
        obs.record_validator_alerts(now, 2);
        dc.run_for(SimDuration::from_secs(30));
        dc
    }

    /// The name of the controller on `track`, from the tier it lives in.
    fn controller(dc: &Datacenter, track: u32) -> &str {
        let system = dc.system();
        let leaves = system.leaf_devices();
        match leaves.get(track as usize) {
            Some(&d) => system.leaf_for(d).map(|c| c.name()),
            None => {
                let d = system.upper_devices()[track as usize - leaves.len()];
                system.upper_for(d).map(|c| c.name())
            }
        }
        .expect("every track names a controller")
    }

    /// A restored twin, at one worker and at eight, names its records by
    /// their tracks after its own controllers and devices, and renders
    /// the trace and the next incident dump byte for byte as the
    /// unbroken run does.
    #[test]
    fn restored_rings_name_records_by_their_tracks() {
        for threads in [1, 8] {
            let mut unbroken = scripted();
            let state = DatacenterState::from_snap_bytes(&unbroken.state().to_snap_bytes())
                .expect("own snapshot decodes");
            let mut twin = observed(threads);
            twin.restore(&state).expect("twin restores");
            let obs = twin.system().observability();
            let kinds: Vec<&str> = obs.flight().iter().map(|r| r.kind.label()).collect();
            for kind in ["leaf_capped", "failover", "breaker_trip", "validator_alert"] {
                assert!(kinds.contains(&kind), "vacuous: no {kind} record");
            }
            let upper = |s: &SpanRecord| s.kind == SpanKind::UpperCycle;
            assert!(obs.trace().iter().any(upper), "vacuous: no upper span");
            for span in obs.trace().iter() {
                let name = obs.names.span(span);
                assert_eq!(name, Some(controller(&twin, span.track)), "{span:?}");
            }
            for record in obs.flight().iter() {
                let owner = match record.kind {
                    FlightKind::BreakerTrip => &twin.topology().iter().nth(5).unwrap().name,
                    FlightKind::ValidatorAlert => "breaker-validator",
                    _ => controller(&twin, record.track),
                };
                assert_eq!(obs.recorded_by(record), owner, "{record:?}");
            }
            let (a, b) = (unbroken.system(), twin.system());
            assert_eq!(
                a.observability().chrome_trace(),
                b.observability().chrome_trace(),
                "{threads} wide"
            );
            // Both runs on to the next incident: it dumps the same ring.
            let seen = unbroken.system().observability().incidents();
            while unbroken.system().observability().incidents() == seen {
                unbroken.step();
                twin.step();
                assert!(
                    unbroken.now() < SimTime::from_mins(30),
                    "no further incident"
                );
            }
            let dump = |dc: &Datacenter| {
                let obs = dc.system().observability();
                let name = |r: &FlightRecord| obs.recorded_by(r);
                let json = obs.flight().incident_json("next", 0, 0, name);
                (obs.incidents(), json)
            };
            assert_eq!(dump(&unbroken), dump(&twin), "{threads} wide");
            assert_eq!(
                unbroken.system().observability().chrome_trace(),
                twin.system().observability().chrome_trace()
            );
        }
    }

    /// Whether a run records is chosen per leg (a `dynamo-sim` resume
    /// may add or drop `--metrics-out`): a recorded file restores into
    /// a twin that records nothing, its records named as the recording
    /// run named them, and an unrecorded file into a twin that records,
    /// every leaf's band the `Hold` an unrecorded run keeps.
    #[test]
    fn a_file_restores_whether_or_not_the_twin_records() {
        let mut recorded = scripted();
        let mut quiet = row(1).build();
        quiet
            .restore(&recorded.state())
            .expect("a recorded file restores");
        let names = |dc: &Datacenter| -> Vec<String> {
            let obs = dc.system().observability();
            let spans = obs.trace().iter().map(|s| obs.names.span(s).unwrap());
            let flights = obs.flight().iter().map(|r| obs.recorded_by(r));
            spans.chain(flights).map(str::to_string).collect()
        };
        assert_eq!(names(&quiet), names(&recorded));
        assert!(names(&quiet).iter().any(|n| n.contains("rpp")), "vacuous");

        let mut unrecorded = row(1).build();
        unrecorded.run_for(SimDuration::from_mins(2));
        let mut twin = scripted();
        twin.restore(&unrecorded.state())
            .expect("an unrecorded file restores");
        let leaves = &twin.system().leaves.leaves;
        assert!(leaves.iter().all(|l| l.band == Band::Hold));
    }

    /// `dc`'s state with `edit` made to its rings, restored into a twin:
    /// the refusal.
    fn refusal(edit: impl FnOnce(&mut Observability)) -> SnapError {
        let mut dc = scripted();
        edit(dc.system_mut().observability_mut());
        let state = dc.state();
        match observed(1).restore(&state) {
            Err(e) => e,
            Ok(()) => panic!("a forged ring restored"),
        }
    }

    /// A span's track is an index into the controllers, leaves then
    /// uppers: one past the last names nothing, and a leaf's kind of
    /// span on an upper's track is no span a run records.
    #[test]
    fn restore_rejects_a_span_track_past_the_controllers() {
        let dc = observed(1);
        let tracks = (dc.system().leaf_count() + dc.system().upper_count()) as u32;
        let leaves = dc.system().leaf_count() as u32;
        for (kind, track) in [
            (SpanKind::UpperCycle, tracks),
            (SpanKind::Failover, tracks),
            (SpanKind::RpcPull, leaves),
        ] {
            let err = refusal(|obs| obs.push_span(kind, track, 0, 0));
            let what = format!("{} span on track {track} names no controller", kind.label());
            assert!(
                matches!(&err, SnapError::Corrupt(m) if m.contains(&what)),
                "{err}"
            );
        }
    }

    /// A breaker trip's track is a device index, and a validator alert's
    /// is 0: a trip past the last device, an alert on another track, or
    /// an upper's record on a leaf's track names nothing of its kind.
    #[test]
    fn restore_rejects_a_flight_record_whose_track_names_no_device_of_its_kind() {
        let devices = observed(1).topology().device_count() as u32;
        for (kind, track) in [
            (FlightKind::BreakerTrip, devices),
            (FlightKind::ValidatorAlert, 1),
            (FlightKind::UpperUncapped, 0),
        ] {
            let err = refusal(|obs| obs.push_flight(SimTime::ZERO, track, kind));
            let what = format!("{} record on track {track} names nothing", kind.label());
            assert!(
                matches!(&err, SnapError::Corrupt(m) if m.contains(&what)),
                "{err}"
            );
        }
    }
}
