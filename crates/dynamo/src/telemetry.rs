//! Fine-grained power monitoring (§VI: "Monitoring is as important as
//! capping").

use std::collections::HashMap;
use std::sync::Arc;

use dcsim::snap::{get_f64_vec, put_f64_slice, SnapError, SnapReader, SnapWriter};
use dcsim::{CycleSchedule, SimDuration, SimTime};
use powerinfra::{BreakerStatus, DeviceId, Power};
use powerstats::Trace;

use crate::events::{ControllerEvent, ControllerEventKind};

/// Sampling interval: Table I's "fine-grained real-time monitoring:
/// 3-second granularity power readings".
const SAMPLE_PERIOD: SimDuration = SimDuration::from_secs(3);

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
    device_traces: HashMap<DeviceId, Trace>,
    capped_servers: Trace,
    total_power: Trace,
    controller_events: Vec<ControllerEvent>,
    breaker_events: Vec<BreakerEvent>,
    pub(crate) schedule: CycleSchedule,
}

impl Telemetry {
    /// Creates an empty store.
    pub(crate) fn new() -> Self {
        Telemetry {
            device_traces: HashMap::new(),
            capped_servers: Trace::empty(SAMPLE_PERIOD),
            total_power: Trace::empty(SAMPLE_PERIOD),
            controller_events: Vec::new(),
            breaker_events: Vec::new(),
            schedule: CycleSchedule::new(SAMPLE_PERIOD),
        }
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
                .or_insert_with(|| Trace::empty(SAMPLE_PERIOD).with_start(now))
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
    /// order and a tick runs the leaf tier before the upper one, so a
    /// batch arrives grouped by controller, not by key; sorting here
    /// gives consumers one canonical order regardless of thread count
    /// or phase spread.
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

    /// Saves the recorder's state: every trace as `(start millis, raw
    /// values)`, the event stores, and the sampling schedule. Device
    /// traces are keyed by raw device index in ascending order so the
    /// bytes are deterministic regardless of hash-map iteration order;
    /// the sampling interval is configuration.
    pub fn save(&self, w: &mut SnapWriter) {
        let put_trace = |w: &mut SnapWriter, t: &Trace| {
            w.put_u64(t.start().as_millis());
            put_f64_slice(w, t.values());
        };
        let mut traces: Vec<(&DeviceId, &Trace)> = self.device_traces.iter().collect();
        traces.sort_unstable_by_key(|&(dev, _)| dev.index());
        w.put_u64(traces.len() as u64);
        for (dev, t) in traces {
            w.put_u32(dev.index() as u32);
            put_trace(w, t);
        }
        put_trace(w, &self.capped_servers);
        put_trace(w, &self.total_power);
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
        self.schedule.save(w);
    }

    /// Loads what [`Telemetry::save`] wrote. A schedule that is not the
    /// 3 s sampling grid's is a mismatch ([`CycleSchedule::load`]).
    pub fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let get_trace = |r: &mut SnapReader<'_>| -> Result<Trace, SnapError> {
            let start = SimTime::from_millis(r.get_u64()?);
            Ok(Trace::new(SAMPLE_PERIOD, get_f64_vec(r)?).with_start(start))
        };
        self.device_traces.clear();
        let mut prev: Option<u32> = None;
        for _ in 0..r.get_u64()? {
            let idx = r.get_u32()?;
            if prev.is_some_and(|p| p >= idx) {
                return Err(SnapError::Corrupt(
                    "telemetry device traces not strictly ascending by device index".into(),
                ));
            }
            prev = Some(idx);
            let trace = get_trace(r)?;
            self.device_traces
                .insert(DeviceId::from_index(idx as usize), trace);
        }
        self.capped_servers = get_trace(r)?;
        self.total_power = get_trace(r)?;
        self.controller_events = r.get_vec(get_controller_event)?;
        self.breaker_events = r.get_vec(|r| {
            Ok(BreakerEvent {
                at: SimTime::from_millis(r.get_u64()?),
                device: DeviceId::from_index(r.get_u32()? as usize),
                status: BreakerStatus::from_snap_code(r.get_u8()?)?,
            })
        })?;
        self.schedule.load(r)?;
        Ok(())
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::ControllerEventKind;
    use powerinfra::DeviceLevel;

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
        let mut t = Telemetry::new();
        assert!(t.sample_due(SimTime::ZERO));
        t.record_sample(SimTime::ZERO, &[], 0, Power::ZERO);
        assert!(!t.sample_due(SimTime::from_secs(2)));
        assert!(t.sample_due(SimTime::from_secs(3)));
    }

    #[test]
    fn device_traces_accumulate() {
        let topo = topo();
        let d = dev(&topo);
        let mut t = Telemetry::new();
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
        let mut t = Telemetry::new();
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
        let mut t = Telemetry::new();
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
        let mut t = Telemetry::new();
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
        let mut t = Telemetry::new();
        t.record_controller_events(vec![event(SimTime::from_secs(9), d)]);
        t.record_controller_events(vec![event(SimTime::from_secs(3), d)]);
    }
}
