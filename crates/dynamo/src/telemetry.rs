//! Fine-grained power monitoring (§VI: "Monitoring is as important as
//! capping").

use std::collections::HashMap;
use std::sync::Arc;

use dcsim::snap::{get_f64_vec, put_f64_slice, SnapError, SnapReader, SnapWriter, Snapshot};
use dcsim::{PeriodicSchedule, SimDuration, SimTime};
use powerinfra::{BreakerStatus, DeviceId, DeviceLevel, Power};
use powerstats::Trace;

use crate::events::{ControllerEvent, ControllerEventKind};

/// What the telemetry recorder samples.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Sampling interval (3 s in production — Table I's "fine-grained
    /// real-time monitoring: 3-second granularity power readings").
    pub sample_interval: SimDuration,
    /// Hierarchy levels whose devices get power traces. Tracing every
    /// rack in a big run is expensive; experiments pick what they need.
    pub levels: Vec<DeviceLevel>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            sample_interval: SimDuration::from_secs(3),
            levels: vec![DeviceLevel::Rpp, DeviceLevel::Sb, DeviceLevel::Msb],
        }
    }
}

/// A breaker state change worth recording.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerEvent {
    /// When it happened.
    pub at: SimTime,
    /// Which device's breaker.
    pub device: DeviceId,
    /// The new status.
    pub status: BreakerStatus,
}

/// The telemetry store for one simulation run: per-device power traces
/// at the sampling interval, the capped-server count series, controller
/// events, and breaker events.
#[derive(Debug)]
pub struct Telemetry {
    config: TelemetryConfig,
    device_traces: HashMap<DeviceId, Trace>,
    capped_servers: Trace,
    total_power: Trace,
    controller_events: Vec<ControllerEvent>,
    breaker_events: Vec<BreakerEvent>,
    schedule: PeriodicSchedule,
}

impl Telemetry {
    /// Creates an empty store.
    pub fn new(config: TelemetryConfig) -> Self {
        let interval = config.sample_interval;
        Telemetry {
            config,
            device_traces: HashMap::new(),
            capped_servers: Trace::empty(interval),
            total_power: Trace::empty(interval),
            controller_events: Vec::new(),
            breaker_events: Vec::new(),
            schedule: PeriodicSchedule::new(interval),
        }
    }

    /// The recorder's configuration.
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// True if a sample is due at `now`.
    pub fn sample_due(&self, now: SimTime) -> bool {
        self.schedule.due(now)
    }

    /// Records one sample row. `device_power` yields the current power
    /// of each watched device; `capped` and `total` are fleet-level.
    ///
    /// Call only when [`Telemetry::sample_due`]; the recorder advances
    /// its own schedule.
    pub fn record_sample(
        &mut self,
        now: SimTime,
        watched: &[(DeviceId, Power)],
        capped: usize,
        total: Power,
    ) {
        for &(dev, p) in watched {
            self.device_traces
                .entry(dev)
                .or_insert_with(|| Trace::empty(self.config.sample_interval).with_start(now))
                .push(p.as_watts());
        }
        self.capped_servers.push(capped as f64);
        self.total_power.push(total.as_watts());
        self.schedule.fire(now);
    }

    /// Appends controller events, keeping the store sorted by
    /// `(at, device)`.
    ///
    /// The parallel leaf path merges per-leaf buffers in leaf-index
    /// order and the event-driven dispatcher can interleave tiers, so a
    /// batch arrives grouped by controller, not by key; sorting here
    /// gives consumers one canonical order regardless of thread count
    /// or phase policy.
    ///
    /// # Panics
    ///
    /// Panics if a batch contains an event older than the newest event
    /// already stored — ticks must deliver batches in time order.
    pub fn record_controller_events(&mut self, mut events: Vec<ControllerEvent>) {
        events.sort_by_key(|e| (e.at, e.device));
        if let (Some(first), Some(last)) = (events.first(), self.controller_events.last()) {
            assert!(
                first.at >= last.at,
                "controller event batch at {:?} arrived after events at {:?}",
                first.at,
                last.at
            );
        }
        self.controller_events.extend(events);
    }

    /// Appends a breaker event.
    pub fn record_breaker_event(&mut self, event: BreakerEvent) {
        self.breaker_events.push(event);
    }

    /// The power trace of `device`, if watched.
    pub fn device_trace(&self, device: DeviceId) -> Option<&Trace> {
        self.device_traces.get(&device)
    }

    /// The capped-server count series.
    pub fn capped_servers(&self) -> &Trace {
        &self.capped_servers
    }

    /// The fleet total power series.
    pub fn total_power(&self) -> &Trace {
        &self.total_power
    }

    /// All controller events so far.
    pub fn controller_events(&self) -> &[ControllerEvent] {
        &self.controller_events
    }

    /// All breaker events so far.
    pub fn breaker_events(&self) -> &[BreakerEvent] {
        &self.breaker_events
    }

    /// Breaker trips only (the outages Dynamo exists to prevent).
    pub fn breaker_trips(&self) -> Vec<BreakerEvent> {
        self.breaker_events
            .iter()
            .filter(|e| e.status == BreakerStatus::Tripped)
            .copied()
            .collect()
    }

    /// Captures the recorder's state for a snapshot: every trace, the
    /// event stores, and the sampling schedule. Device traces are keyed
    /// by raw device index in ascending order so the bytes are
    /// deterministic regardless of hash-map iteration order.
    pub fn state(&self) -> TelemetryState {
        let mut traces: Vec<(u32, u64, Vec<f64>)> = self
            .device_traces
            .iter()
            .map(|(dev, t)| {
                (
                    dev.index() as u32,
                    t.start().as_millis(),
                    t.values().to_vec(),
                )
            })
            .collect();
        traces.sort_unstable_by_key(|&(i, _, _)| i);
        TelemetryState {
            device_traces: traces,
            capped_servers: (
                self.capped_servers.start().as_millis(),
                self.capped_servers.values().to_vec(),
            ),
            total_power: (
                self.total_power.start().as_millis(),
                self.total_power.values().to_vec(),
            ),
            controller_events: self.controller_events.clone(),
            breaker_events: self.breaker_events.clone(),
            schedule: self.schedule,
        }
    }

    /// Restores the recorder from a decoded snapshot taken against the
    /// same topology and telemetry configuration.
    pub fn restore(&mut self, state: &TelemetryState) -> Result<(), SnapError> {
        let interval = self.config.sample_interval;
        let schedule = self.schedule.restored(&state.schedule)?;
        self.device_traces.clear();
        for (idx, start_ms, values) in &state.device_traces {
            let trace =
                Trace::new(interval, values.clone()).with_start(SimTime::from_millis(*start_ms));
            self.device_traces
                .insert(DeviceId::from_index(*idx as usize), trace);
        }
        self.capped_servers = Trace::new(interval, state.capped_servers.1.clone())
            .with_start(SimTime::from_millis(state.capped_servers.0));
        self.total_power = Trace::new(interval, state.total_power.1.clone())
            .with_start(SimTime::from_millis(state.total_power.0));
        self.controller_events.clone_from(&state.controller_events);
        self.breaker_events.clone_from(&state.breaker_events);
        self.schedule = schedule;
        Ok(())
    }
}

/// The telemetry recorder's dynamic state. Traces are stored as
/// `(start millis, raw values)`; the sampling interval is part of the
/// run configuration and re-applied on restore.
pub struct TelemetryState {
    /// `(device index, trace start, values)`, ascending by index.
    pub device_traces: Vec<(u32, u64, Vec<f64>)>,
    /// Capped-server count series as `(start millis, values)`.
    pub capped_servers: (u64, Vec<f64>),
    /// Fleet total power series as `(start millis, values)`.
    pub total_power: (u64, Vec<f64>),
    /// All controller events recorded so far.
    pub controller_events: Vec<ControllerEvent>,
    /// All breaker events recorded so far.
    pub breaker_events: Vec<BreakerEvent>,
    /// The sampling schedule (next due time).
    pub schedule: PeriodicSchedule,
}

fn put_controller_event(w: &mut SnapWriter, e: &ControllerEvent) {
    w.put_u64(e.at.as_millis());
    w.put_u32(e.device.index() as u32);
    w.put_str(&e.controller);
    match &e.kind {
        ControllerEventKind::LeafCapped { total_cut, servers } => {
            w.put_u8(0);
            w.put_f64(total_cut.as_watts());
            w.put_u64(*servers as u64);
        }
        ControllerEventKind::LeafUncapped => w.put_u8(1),
        ControllerEventKind::LeafInvalid { failures } => {
            w.put_u8(2);
            w.put_u64(*failures as u64);
        }
        ControllerEventKind::UpperCapped { contracts } => {
            w.put_u8(3);
            w.put_u64(*contracts as u64);
        }
        ControllerEventKind::UpperUncapped => w.put_u8(4),
        ControllerEventKind::Failover => w.put_u8(5),
    }
}

fn get_controller_event(r: &mut SnapReader<'_>) -> Result<ControllerEvent, SnapError> {
    let at = SimTime::from_millis(r.get_u64()?);
    let device = DeviceId::from_index(r.get_u32()? as usize);
    let controller: Arc<str> = r.get_str()?.into();
    let kind = match r.get_u8()? {
        0 => ControllerEventKind::LeafCapped {
            total_cut: Power::from_watts(r.get_f64()?),
            servers: r.get_u64()? as usize,
        },
        1 => ControllerEventKind::LeafUncapped,
        2 => ControllerEventKind::LeafInvalid {
            failures: r.get_u64()? as usize,
        },
        3 => ControllerEventKind::UpperCapped {
            contracts: r.get_u64()? as usize,
        },
        4 => ControllerEventKind::UpperUncapped,
        5 => ControllerEventKind::Failover,
        other => {
            return Err(SnapError::Corrupt(format!(
                "bad controller event kind tag {other}"
            )))
        }
    };
    Ok(ControllerEvent {
        at,
        device,
        controller,
        kind,
    })
}

impl Snapshot for TelemetryState {
    const KIND: &'static str = "dynamo.TelemetryState";
    const VERSION: u32 = 1;

    fn encode_body(&self, w: &mut SnapWriter) {
        w.put_u64(self.device_traces.len() as u64);
        for (idx, start_ms, values) in &self.device_traces {
            w.put_u32(*idx);
            w.put_u64(*start_ms);
            put_f64_slice(w, values);
        }
        w.put_u64(self.capped_servers.0);
        put_f64_slice(w, &self.capped_servers.1);
        w.put_u64(self.total_power.0);
        put_f64_slice(w, &self.total_power.1);
        w.put_u64(self.controller_events.len() as u64);
        for e in &self.controller_events {
            put_controller_event(w, e);
        }
        w.put_u64(self.breaker_events.len() as u64);
        for e in &self.breaker_events {
            w.put_u64(e.at.as_millis());
            w.put_u32(e.device.index() as u32);
            w.put_u8(e.status.snap_code());
        }
        self.schedule.encode_body(w);
    }

    fn decode_body(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut prev: Option<u32> = None;
        let device_traces = r.get_vec(|r| {
            let idx = r.get_u32()?;
            if prev.is_some_and(|p| p >= idx) {
                return Err(SnapError::Corrupt(
                    "telemetry device traces not strictly ascending by device index".into(),
                ));
            }
            prev = Some(idx);
            Ok((idx, r.get_u64()?, get_f64_vec(r)?))
        })?;
        let capped_servers = (r.get_u64()?, get_f64_vec(r)?);
        let total_power = (r.get_u64()?, get_f64_vec(r)?);
        let controller_events = r.get_vec(get_controller_event)?;
        let breaker_events = r.get_vec(|r| {
            Ok(BreakerEvent {
                at: SimTime::from_millis(r.get_u64()?),
                device: DeviceId::from_index(r.get_u32()? as usize),
                status: BreakerStatus::from_snap_code(r.get_u8()?)?,
            })
        })?;
        Ok(TelemetryState {
            device_traces,
            capped_servers,
            total_power,
            controller_events,
            breaker_events,
            schedule: PeriodicSchedule::decode_body(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::ControllerEventKind;

    fn dev(topo: &powerinfra::Topology) -> DeviceId {
        topo.devices_at(DeviceLevel::Rpp)[0]
    }

    fn topo() -> powerinfra::Topology {
        powerinfra::TopologyBuilder::new()
            .sbs_per_msb(1)
            .rpps_per_sb(1)
            .racks_per_rpp(1)
            .servers_per_rack(2)
            .build()
    }

    #[test]
    fn samples_follow_the_schedule() {
        let mut t = Telemetry::new(TelemetryConfig::default());
        assert!(t.sample_due(SimTime::ZERO));
        t.record_sample(SimTime::ZERO, &[], 0, Power::ZERO);
        assert!(!t.sample_due(SimTime::from_secs(2)));
        assert!(t.sample_due(SimTime::from_secs(3)));
    }

    #[test]
    fn device_traces_accumulate() {
        let topo = topo();
        let d = dev(&topo);
        let mut t = Telemetry::new(TelemetryConfig::default());
        for k in 0..5u64 {
            t.record_sample(
                SimTime::from_secs(3 * k),
                &[(d, Power::from_kilowatts(100.0 + k as f64))],
                k as usize,
                Power::from_kilowatts(100.0),
            );
        }
        let trace = t.device_trace(d).unwrap();
        assert_eq!(trace.len(), 5);
        assert_eq!(trace.values()[4], 104_000.0);
        assert_eq!(t.capped_servers().values(), &[0.0, 1.0, 2.0, 3.0, 4.0]);
        assert!(t.device_trace(topo.root()).is_none());
    }

    #[test]
    fn breaker_trips_filters_status() {
        let topo = topo();
        let d = dev(&topo);
        let mut t = Telemetry::new(TelemetryConfig::default());
        t.record_breaker_event(BreakerEvent {
            at: SimTime::ZERO,
            device: d,
            status: BreakerStatus::Overloaded,
        });
        t.record_breaker_event(BreakerEvent {
            at: SimTime::from_secs(9),
            device: d,
            status: BreakerStatus::Tripped,
        });
        assert_eq!(t.breaker_events().len(), 2);
        assert_eq!(t.breaker_trips().len(), 1);
        assert_eq!(t.breaker_trips()[0].at, SimTime::from_secs(9));
    }

    #[test]
    fn controller_events_append() {
        let topo = topo();
        let d = dev(&topo);
        let mut t = Telemetry::new(TelemetryConfig::default());
        t.record_controller_events(vec![ControllerEvent {
            at: SimTime::ZERO,
            device: d,
            controller: "rpp0".into(),
            kind: ControllerEventKind::LeafUncapped,
        }]);
        assert_eq!(t.controller_events().len(), 1);
    }

    fn event(at: SimTime, device: DeviceId) -> ControllerEvent {
        ControllerEvent {
            at,
            device,
            controller: "c".into(),
            kind: ControllerEventKind::LeafUncapped,
        }
    }

    #[test]
    fn controller_events_stay_sorted_by_time_then_device() {
        let topo = powerinfra::TopologyBuilder::new()
            .sbs_per_msb(1)
            .rpps_per_sb(2)
            .racks_per_rpp(1)
            .servers_per_rack(2)
            .build();
        let rpps = topo.devices_at(DeviceLevel::Rpp);
        let mut t = Telemetry::new(TelemetryConfig::default());
        // A parallel-path batch arrives in leaf-index order with mixed
        // devices; a staggered-phase batch can even mix timestamps.
        t.record_controller_events(vec![
            event(SimTime::from_secs(3), rpps[1]),
            event(SimTime::from_secs(3), rpps[0]),
        ]);
        t.record_controller_events(vec![
            event(SimTime::from_secs(6), rpps[0]),
            event(SimTime::from_secs(4), rpps[1]),
        ]);
        let keys: Vec<(SimTime, DeviceId)> = t
            .controller_events()
            .iter()
            .map(|e| (e.at, e.device))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "store must be monotone in (at, device)");
        assert_eq!(keys[0].1, rpps[0]);
    }

    #[test]
    #[should_panic(expected = "arrived after events")]
    fn out_of_order_batches_are_rejected() {
        let topo = topo();
        let d = dev(&topo);
        let mut t = Telemetry::new(TelemetryConfig::default());
        t.record_controller_events(vec![event(SimTime::from_secs(9), d)]);
        t.record_controller_events(vec![event(SimTime::from_secs(3), d)]);
    }
}
