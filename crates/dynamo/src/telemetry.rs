//! Fine-grained power monitoring (§VI: "Monitoring is as important as
//! capping").

use dcsim::snap::{SnapError, SnapReader, SnapWriter};
use dcsim::{CycleSchedule, SimDuration, SimTime};
use powerinfra::{BreakerStatus, DeviceId, Power};
use powerstats::{PackedTrace, Trace};

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
///
/// Every series is kept XOR-packed ([`PackedTrace`]) and decoded when
/// read: a held demand repeats most samples bit for bit, and a repeat
/// costs one bit.
#[derive(Debug)]
pub struct Telemetry {
    /// The devices traced, ascending by index.
    pub(crate) watched: Vec<DeviceId>,
    /// One series per watched device, in `watched` order, from the
    /// first sample on; none before it.
    pub(crate) device_series: Vec<PackedTrace>,
    capped_servers: PackedTrace,
    total_power: PackedTrace,
    controller_events: Vec<ControllerEvent>,
    breaker_events: Vec<BreakerEvent>,
    pub(crate) schedule: CycleSchedule,
}

impl Telemetry {
    /// Creates an empty store tracing `watched` (each device once).
    pub(crate) fn new(mut watched: Vec<DeviceId>) -> Self {
        watched.sort_unstable();
        watched.dedup();
        Telemetry {
            watched,
            device_series: Vec::new(),
            capped_servers: PackedTrace::empty(SAMPLE_PERIOD),
            total_power: PackedTrace::empty(SAMPLE_PERIOD),
            controller_events: Vec::new(),
            breaker_events: Vec::new(),
            schedule: CycleSchedule::new(SAMPLE_PERIOD),
        }
    }

    /// True if a sample is due at `now`.
    pub fn sample_due(&self, now: SimTime) -> bool {
        self.schedule.due(now)
    }

    /// Records one sample row: `power_of` reads the current power of
    /// each watched device, in ascending index order; `capped` and
    /// `total` are fleet-level.
    ///
    /// Call only when [`Telemetry::sample_due`]; the recorder advances
    /// its own schedule.
    pub(crate) fn record_sample(
        &mut self,
        now: SimTime,
        mut power_of: impl FnMut(DeviceId) -> Power,
        capped: usize,
        total: Power,
    ) {
        if self.device_series.is_empty() {
            let series = PackedTrace::empty(SAMPLE_PERIOD).with_start(now);
            self.device_series = vec![series; self.watched.len()];
        }
        for (series, &dev) in self.device_series.iter_mut().zip(&self.watched) {
            series.push(power_of(dev).as_watts());
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

    /// The power trace of `device`, decoded, if watched and sampled.
    pub fn device_trace(&self, device: DeviceId) -> Option<Trace> {
        self.packed_trace(device).map(PackedTrace::decode)
    }

    /// The packed series of `device`, if watched and sampled.
    pub(crate) fn packed_trace(&self, device: DeviceId) -> Option<&PackedTrace> {
        let i = self.watched.binary_search(&device).ok()?;
        self.device_series.get(i)
    }

    /// The capped-server count series, decoded.
    pub fn capped_servers(&self) -> Trace {
        self.capped_servers.decode()
    }

    /// The fleet total power series, decoded.
    pub fn total_power(&self) -> Trace {
        self.total_power.decode()
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

    /// Saves the recorder's state: the digest of its sampling period,
    /// every series packed as it is held ([`PackedTrace::save`]), the
    /// event stores, and the sampling schedule's state. Device series
    /// are keyed by raw device index in ascending order.
    pub fn save(&self, w: &mut SnapWriter) {
        w.put_config(|d| self.schedule.fold_config(d));
        w.put_u64(self.device_series.len() as u64);
        for (dev, s) in self.watched.iter().zip(&self.device_series) {
            w.put_u32(dev.index() as u32);
            s.save(w);
        }
        self.capped_servers.save(w);
        self.total_power.save(w);
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

    /// Loads what [`Telemetry::save`] wrote, each series as it was held
    /// and checked to decode to its count ([`PackedTrace::load`]). The
    /// traced devices are this build's watched set, or none before the
    /// first sample: another set is a mismatch, and so is a sampling
    /// period that is not this build's.
    pub fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.config("telemetry", |d| self.schedule.fold_config(d))?;
        let get_series = |r: &mut SnapReader<'_>| -> Result<PackedTrace, SnapError> {
            let mut series = PackedTrace::empty(SAMPLE_PERIOD);
            series.load(r)?;
            Ok(series)
        };
        let mut devices = Vec::new();
        self.device_series.clear();
        for _ in 0..r.get_u64()? {
            devices.push(DeviceId::from_index(r.get_u32()? as usize));
            self.device_series.push(get_series(r)?);
        }
        self.capped_servers = get_series(r)?;
        self.total_power = get_series(r)?;
        let unsampled = devices.is_empty() && self.capped_servers.is_empty();
        if devices != self.watched && !unsampled {
            // The first device the two sets disagree on.
            let at = devices
                .iter()
                .zip(&self.watched)
                .take_while(|(a, b)| a == b)
                .count();
            let name = |set: &[DeviceId]| set.get(at).map_or("no device".into(), |d| d.to_string());
            r.mismatch(SnapError::Corrupt(format!(
                "telemetry traces {} where this build watches {}",
                name(&devices),
                name(&self.watched)
            )));
        }
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
    Ok(ControllerEvent { at, device, kind })
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
        let mut t = Telemetry::new(Vec::new());
        assert!(t.sample_due(SimTime::ZERO));
        t.record_sample(SimTime::ZERO, |_| Power::ZERO, 0, Power::ZERO);
        assert!(!t.sample_due(SimTime::from_secs(2)));
        assert!(t.sample_due(SimTime::from_secs(3)));
    }

    #[test]
    fn device_traces_accumulate() {
        let topo = topo();
        let d = dev(&topo);
        let mut t = Telemetry::new(vec![d]);
        assert!(t.device_trace(d).is_none(), "no sample yet");
        for k in 0..5u64 {
            t.record_sample(
                SimTime::from_secs(3 * k),
                |_| Power::from_kilowatts(100.0 + k as f64),
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
        let mut t = Telemetry::new(Vec::new());
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
        let mut t = Telemetry::new(Vec::new());
        t.record_controller_events(vec![ControllerEvent {
            at: SimTime::ZERO,
            device: d,
            kind: ControllerEventKind::LeafUncapped,
        }]);
        assert_eq!(t.controller_events().len(), 1);
    }

    fn event(at: SimTime, device: DeviceId) -> ControllerEvent {
        ControllerEvent {
            at,
            device,
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
        let mut t = Telemetry::new(Vec::new());
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

    /// Under held demand most samples repeat their predecessor bit for
    /// bit, and a repeat costs one bit: a lossless `demand_hold(30)` run
    /// keeps its RPP series in under a quarter of their raw bytes.
    #[test]
    fn held_demand_packs_rpp_series_under_a_quarter_of_raw() {
        let mut dc = crate::DatacenterBuilder::new()
            .sbs_per_msb(2)
            .rpps_per_sb(4)
            .racks_per_rpp(4)
            .servers_per_rack(10)
            .uniform_service(workloads::ServiceKind::Web)
            .traffic(
                workloads::ServiceKind::Web,
                workloads::TrafficPattern::flat(0.7),
            )
            .demand_hold(30)
            .rpc_profile(dynrpc::LinkProfile::reliable())
            .seed(2016)
            .build();
        dc.run_for(SimDuration::from_mins(10));
        let rpps = dc.topology().devices_at(DeviceLevel::Rpp);
        let (mut packed, mut samples) = (0, 0);
        for &rpp in &rpps {
            let series = dc.telemetry().packed_trace(rpp).expect("RPPs are watched");
            packed += series.encoded_bits();
            samples += series.len();
        }
        assert_eq!(samples, rpps.len() * 200);
        let bits_per_sample = packed as f64 / samples as f64;
        assert!(bits_per_sample < 16.0, "{bits_per_sample} bits a sample");
    }

    #[test]
    #[should_panic(expected = "arrived after events")]
    fn out_of_order_batches_are_rejected() {
        let topo = topo();
        let d = dev(&topo);
        let mut t = Telemetry::new(Vec::new());
        t.record_controller_events(vec![event(SimTime::from_secs(9), d)]);
        t.record_controller_events(vec![event(SimTime::from_secs(3), d)]);
    }
}
