//! The snapshot contract, property-tested across every implementing
//! type reachable from public APIs:
//!
//! 1. **Lossless round-trip** — `encode → decode → encode` is
//!    byte-identical. (A decode that loses information would silently
//!    corrupt resumed runs.)
//! 2. **Version skew fails loudly** — a snapshot written at a bumped
//!    version is rejected with a clear [`SnapError::VersionMismatch`]
//!    instead of being misread into live state.
//! 3. **Kind and framing violations** are detected, never misapplied.
//!
//! Composite states (controller tiers, observability, the whole
//! datacenter) are exercised through a live run's `DatacenterState`,
//! whose encoding nests every one of their bodies.

use dcsim::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use dcsim::{CycleSchedule, PeriodicSchedule, SimDuration, SimRng, SimTime};
use dynamo_repro::dynamo::{DatacenterBuilder, ObsConfig};
use dynamo_repro::dynrpc::{LinkProfile, Network};
use dynamo_repro::powerinfra::{Breaker, Dcups, Power, TripCurve};
use dynamo_repro::serverpower::Rapl;
use dynamo_repro::workloads::{ServiceKind, ServiceWorkload, TrafficPattern};

/// The property: one full cycle through the binary format loses
/// nothing, proven by re-encoding.
fn roundtrip<T: Snapshot>(value: &T) -> T {
    let bytes = value.to_snap_bytes();
    let decoded = T::from_snap_bytes(&bytes)
        .unwrap_or_else(|e| panic!("{} failed to decode its own encoding: {e}", T::KIND));
    assert_eq!(
        bytes,
        decoded.to_snap_bytes(),
        "{} encode -> decode -> encode is not byte-identical",
        T::KIND
    );
    decoded
}

#[test]
fn dcsim_types_roundtrip() {
    roundtrip(&SimTime::from_millis(86_399_123));
    roundtrip(&SimDuration::from_millis(2_750));

    // An advanced RNG stream: position and underlying state both carry.
    let mut rng = SimRng::seed_from(123);
    for _ in 0..17 {
        rng.next_u64();
    }
    rng.normal(0.0, 1.0);
    let restored = roundtrip(&rng);
    let mut a = rng.clone();
    let mut b = restored;
    for _ in 0..32 {
        assert_eq!(a.next_u64(), b.next_u64(), "restored stream diverged");
    }

    let mut cycle = CycleSchedule::with_phase(SimDuration::from_secs(3), SimDuration::from_secs(1));
    cycle.fire(SimTime::from_secs(4));
    roundtrip(&cycle);

    let mut periodic = PeriodicSchedule::new(SimDuration::from_secs(60));
    periodic.fire(SimTime::from_secs(60));
    roundtrip(&periodic);
}

#[test]
fn powerinfra_types_roundtrip() {
    // A breaker with accumulated thermal state, mid-way to a trip.
    let mut breaker = Breaker::new(Power::from_kilowatts(10.0), TripCurve::rpp());
    for _ in 0..30 {
        breaker.step(Power::from_kilowatts(14.0), SimDuration::from_secs(1));
    }
    assert!(breaker.thermal_state() > 0.0, "vacuity: no heat built up");
    roundtrip(&breaker);

    // A DCUPS that has been discharging on battery.
    let mut dcups = Dcups::new(Power::from_kilowatts(50.0));
    for _ in 0..60 {
        dcups.step(
            false,
            Power::from_kilowatts(40.0),
            SimDuration::from_secs(1),
        );
    }
    assert!(dcups.charge_fraction() < 1.0, "vacuity: battery still full");
    roundtrip(&dcups);
}

#[test]
fn serverpower_types_roundtrip() {
    let mut rapl = Rapl::new();
    rapl.set_limit(Power::from_watts(180.0));
    rapl.step(Power::from_watts(240.0), SimDuration::from_secs(1));
    roundtrip(&rapl);
}

#[test]
fn agent_network_and_workload_roundtrip() {
    // Per-agent state (noise stream, process-up bit) is columns of the
    // fleet snapshot now; `whole_datacenter_state_roundtrips` covers it.
    let network = Network::new(LinkProfile::datacenter(), SimRng::seed_from(11));
    roundtrip(&network.state());

    let mut workload = ServiceWorkload::new(ServiceKind::Cache, SimRng::seed_from(31));
    for t in 0..20 {
        workload.utilization(SimTime::from_secs(t), 1.3, SimDuration::from_secs(1));
    }
    roundtrip(&workload.state());
}

/// A live datacenter's full state: nests FleetState, SystemState (leaf
/// and upper controller tiers, failover flags, schedules,
/// observability rings and registry), TelemetryState, breakers and the
/// validator — the round-trip property therefore covers every
/// composite `Snapshot` body in one pass.
#[test]
fn whole_datacenter_state_roundtrips() {
    let mut dc = DatacenterBuilder::new()
        .sbs_per_msb(1)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .servers_per_rack(8)
        .rpp_rating(Power::from_kilowatts(4.2))
        .uniform_service(ServiceKind::Web)
        .traffic(ServiceKind::Web, TrafficPattern::flat(1.4))
        .agent_crash_rate(1.0)
        .observability(ObsConfig::on())
        .seed(13)
        .build();
    dc.run_for(SimDuration::from_mins(4));
    let victim = dc.system().leaf_devices()[0];
    dc.system_mut().fail_primary(victim);
    dc.run_for(SimDuration::from_mins(1));

    let state = roundtrip(&dc.state());
    // And the decoded state is usable, not just re-encodable.
    let mut fresh = DatacenterBuilder::new()
        .sbs_per_msb(1)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .servers_per_rack(8)
        .rpp_rating(Power::from_kilowatts(4.2))
        .uniform_service(ServiceKind::Web)
        .traffic(ServiceKind::Web, TrafficPattern::flat(1.4))
        .agent_crash_rate(1.0)
        .observability(ObsConfig::on())
        .seed(13)
        .build();
    fresh.restore(&state).expect("decoded state must restore");
    assert_eq!(fresh.now(), SimTime::from_mins(5));
}

/// Same property under the parallel tick: a pooled 4-worker run (real
/// workers — `Pooled` does not clamp to the host's cores) exercises
/// the sharded telemetry scratch, the worker-side RPC codec round-trip
/// and the parallel breaker precompute, none of which may leak derived
/// state into the snapshot. The state must be byte-stable through the
/// codec, restore into a *serial* twin, and continue bit-identically —
/// proving the snapshot is thread-count-free.
#[test]
fn threaded_datacenter_state_roundtrips_into_serial_twin() {
    use dynamo_repro::dynamo::{ParallelMode, RunReport};
    let build = |threads: usize| {
        DatacenterBuilder::new()
            .sbs_per_msb(1)
            .rpps_per_sb(2)
            .racks_per_rpp(2)
            .servers_per_rack(8)
            .rpp_rating(Power::from_kilowatts(4.2))
            .uniform_service(ServiceKind::Web)
            .traffic(ServiceKind::Web, TrafficPattern::flat(1.4))
            .observability(ObsConfig::on())
            .worker_threads(threads)
            .parallel_mode(ParallelMode::Pooled)
            .seed(19)
            .build()
    };
    let mut dc = build(4);
    dc.run_for(SimDuration::from_mins(3));

    let state = roundtrip(&dc.state());
    let mut serial = build(1);
    serial.restore(&state).expect("decoded state must restore");
    assert_eq!(serial.now(), SimTime::from_mins(3));

    // Continue both for two more minutes: the resumed serial run must
    // match the unbroken threaded one byte for byte.
    dc.run_for(SimDuration::from_mins(2));
    serial.run_for(SimDuration::from_mins(2));
    assert_eq!(
        RunReport::from_datacenter(&dc).to_string(),
        RunReport::from_datacenter(&serial).to_string(),
        "resumed serial run diverged from the unbroken threaded run"
    );
    assert_eq!(
        dc.system().observability().prometheus_text(),
        serial.system().observability().prometheus_text(),
        "metrics diverged between threaded and restored-serial runs"
    );
    assert_eq!(
        dc.state().to_snap_bytes(),
        serial.state().to_snap_bytes(),
        "post-continuation snapshots are not byte-identical"
    );
}

/// Same property with the grid-interactive layer live: the nested
/// `GridLayerState` (economic controller schedule, battery banks, the
/// open curtailment episode and settlement accumulators) must survive
/// the byte cycle mid-curtailment.
#[test]
fn gridded_datacenter_state_roundtrips_mid_curtailment() {
    let build = || {
        DatacenterBuilder::new()
            .sbs_per_msb(1)
            .rpps_per_sb(2)
            .racks_per_rpp(2)
            .servers_per_rack(8)
            .rpp_rating(Power::from_kilowatts(4.2))
            .msb_rating(Power::from_kilowatts(8.4))
            .uniform_service(ServiceKind::Web)
            .traffic(ServiceKind::Web, TrafficPattern::flat(1.4))
            .grid_scenario("curtailment-window")
            .observability(ObsConfig::on())
            .seed(17)
            .build()
    };
    let mut dc = build();
    dc.run_for(SimDuration::from_mins(7)); // window opens at 5 min
    assert!(
        dc.grid().expect("grid configured").curtailment_active(),
        "vacuity: snapshot must land inside the curtailment window"
    );

    let state = roundtrip(&dc.state());
    let mut fresh = build();
    fresh
        .restore(&state)
        .expect("decoded grid state must restore");
    assert_eq!(fresh.now(), SimTime::from_mins(7));
    assert!(fresh.grid().unwrap().curtailment_active());
}

// ---------------------------------------------------------------------------
// Version skew and framing violations.
// ---------------------------------------------------------------------------

/// Pretends to be a future revision of the RNG snapshot: same kind
/// string, bumped version, arbitrary body.
struct FutureRng;

impl Snapshot for FutureRng {
    const KIND: &'static str = <SimRng as Snapshot>::KIND;
    const VERSION: u32 = <SimRng as Snapshot>::VERSION + 1;

    fn encode_body(&self, w: &mut SnapWriter) {
        w.put_u64(0xDEAD_BEEF);
    }

    fn decode_body(_: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(FutureRng)
    }
}

#[test]
fn bumped_version_is_rejected_with_a_clear_error() {
    let bytes = FutureRng.to_snap_bytes();
    let err = SimRng::from_snap_bytes(&bytes).expect_err("future snapshot must not decode");
    match &err {
        SnapError::VersionMismatch {
            kind,
            found,
            supported,
        } => {
            assert_eq!(*kind, <SimRng as Snapshot>::KIND.to_string());
            assert_eq!(*found, <SimRng as Snapshot>::VERSION + 1);
            assert_eq!(*supported, <SimRng as Snapshot>::VERSION);
        }
        other => panic!("expected VersionMismatch, got {other}"),
    }
    let msg = err.to_string();
    assert!(
        msg.contains("version") && msg.contains(<SimRng as Snapshot>::KIND),
        "error must name the kind and the version problem: {msg}"
    );
}

/// Snapshots are same-build resume legs: a file written before the
/// fleet section became columns (envelope version 2) is refused by
/// version, before a single body byte is interpreted.
#[test]
fn a_v2_datacenter_envelope_is_a_version_mismatch() {
    use dynamo_repro::dynamo::DatacenterState;
    let mut w = SnapWriter::new();
    w.put_u32(dcsim::snap::SECTION_MAGIC);
    w.put_str(DatacenterState::KIND);
    w.put_u32(2);
    w.put_u64(8);
    w.put_u64(0);
    match DatacenterState::from_snap_bytes(&w.into_bytes()) {
        Err(SnapError::VersionMismatch {
            kind,
            found,
            supported,
        }) => {
            assert_eq!(kind, DatacenterState::KIND);
            assert_eq!((found, supported), (2, 3));
        }
        Err(other) => panic!("expected VersionMismatch, got {other}"),
        Ok(_) => panic!("a v2 envelope must not decode"),
    }
}

#[test]
fn wrong_kind_is_rejected() {
    let bytes = SimTime::from_secs(1).to_snap_bytes();
    let err = SimDuration::from_snap_bytes(&bytes).expect_err("kind mismatch must not decode");
    assert!(
        matches!(err, SnapError::KindMismatch { .. }),
        "expected KindMismatch, got {err}"
    );
}

#[test]
fn truncated_and_padded_sections_are_rejected() {
    let bytes = SimRng::seed_from(1).to_snap_bytes();
    assert!(
        SimRng::from_snap_bytes(&bytes[..bytes.len() - 3]).is_err(),
        "truncated snapshot must not decode"
    );
    let mut padded = bytes.clone();
    padded.extend_from_slice(&[0, 0, 0]);
    assert!(
        SimRng::from_snap_bytes(&padded).is_err(),
        "trailing garbage must not decode"
    );
}

// ---------------------------------------------------------------------------
// Hostile state: a checkpoint is outside input.
// ---------------------------------------------------------------------------

/// A forged checkpoint may be refused or may run; it may not panic.
/// Overwrites one random 8-byte window of a live state's bytes with a
/// value a range check is likeliest to have missed, then decodes,
/// restores into a fresh twin and steps it.
#[test]
fn a_forged_state_is_a_typed_error_or_a_run_never_a_panic() {
    use dynamo_repro::dynamo::{Datacenter, DatacenterState};
    const FORGERIES: [u64; 9] = [
        0x7ff8_0000_0000_0000, // NaN
        0x7ff0_0000_0000_0000, // +inf
        0xfff0_0000_0000_0000, // -inf
        0xbff0_0000_0000_0000, // -1.0
        0x7fe1_ccf3_85eb_c8a0, // 1e308
        1,                     // 5e-324
        u64::MAX,
        1 << 40,
        0,
    ];
    let small = || {
        DatacenterBuilder::new()
            .sbs_per_msb(1)
            .rpps_per_sb(2)
            .racks_per_rpp(2)
            .servers_per_rack(8)
            .rpp_rating(Power::from_kilowatts(4.2))
            .uniform_service(ServiceKind::Web)
            .traffic(ServiceKind::Web, TrafficPattern::flat(1.4))
            .observability(ObsConfig::on())
    };
    let gridless = || small().agent_crash_rate(1.0).seed(13).build();
    let gridded = || {
        small()
            .msb_rating(Power::from_kilowatts(8.4))
            .grid_scenario("curtailment-window")
            .seed(17)
            .build()
    };
    let cases: [(&str, &dyn Fn() -> Datacenter, u64, u64); 2] = [
        ("grid-less", &gridless, 5, 0x21),
        ("grid-layer", &gridded, 7, 0x22),
    ];
    let mut panics = Vec::new();
    for (name, build, warmup_mins, seed) in cases {
        let mut dc = build();
        dc.run_for(SimDuration::from_mins(warmup_mins));
        let bytes = dc.state().to_snap_bytes();
        let mut rng = SimRng::seed_from(seed);
        let (mut refused, mut ran) = (0, 0);
        for case in 0..1500 {
            let at = rng.next_below((bytes.len() - 7) as u64) as usize;
            let value = FORGERIES[rng.next_below(FORGERIES.len() as u64) as usize];
            let mut forged = bytes.clone();
            forged[at..at + 8].copy_from_slice(&value.to_le_bytes());
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let Ok(state) = DatacenterState::from_snap_bytes(&forged) else {
                    return false;
                };
                let mut twin = build();
                if twin.restore(&state).is_err() {
                    return false;
                }
                for _ in 0..30 {
                    twin.step();
                }
                true
            }));
            match outcome {
                Ok(true) => ran += 1,
                Ok(false) => refused += 1,
                Err(_) => panics.push(format!(
                    "{name} (seed {seed:#x}) case {case}: {value:#018x} over bytes {at}..{}",
                    at + 8
                )),
            }
        }
        assert!(
            refused > 50 && ran > 50,
            "vacuity: {name} refused {refused}, ran {ran}"
        );
    }
    assert!(panics.is_empty(), "{}", panics.join("\n"));
}
