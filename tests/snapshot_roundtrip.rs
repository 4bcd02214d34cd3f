//! The snapshot contract, property-tested across the parts reachable
//! from public APIs:
//!
//! 1. **Lossless round-trip** — `save → load → save` is byte-identical
//!    for every part, and `encode → decode → encode` for the framed
//!    `DatacenterState`. (A load that loses information would silently
//!    corrupt resumed runs.)
//! 2. **Version skew fails loudly** — a state written at another
//!    version is rejected with a clear [`SnapError::VersionMismatch`]
//!    instead of being misread into live state.
//! 3. **Kind and framing violations** are detected, never misapplied.
//!
//! A part has no section of its own: it loads into a value built from
//! the same configuration, and the layers rebuilt from configuration
//! (controller tiers, observability, the whole datacenter) are
//! exercised through a live run's `DatacenterState`, whose body nests
//! every one of theirs.

use dcsim::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use dcsim::{CycleSchedule, SimDuration, SimRng, SimTime};
use dynamo_repro::dynamo::{Datacenter, DatacenterBuilder, DatacenterState, ObsConfig};
use dynamo_repro::dynrpc::{LinkProfile, Network};
use dynamo_repro::powerinfra::{Breaker, Dcups, Power, TripCurve};
use dynamo_repro::workloads::kernel::{self, DrawStep};
use dynamo_repro::workloads::{get_process, put_process, OuCoeffs, ServiceKind, TrafficPattern};

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

/// The property for a part: `value` saved and loaded into `into`, a
/// value built as `value` was, leaves every byte read and saves the
/// same bytes again. Returns the loaded part.
fn reloaded<T>(
    value: &T,
    mut into: T,
    save: fn(&T, &mut SnapWriter),
    load: fn(&mut T, &mut SnapReader<'_>) -> Result<(), SnapError>,
) -> T {
    let mut w = SnapWriter::new();
    save(value, &mut w);
    let bytes = w.into_bytes();
    let mut r = SnapReader::new(&bytes);
    load(&mut into, &mut r)
        .and_then(|()| r.finish("part"))
        .unwrap_or_else(|e| panic!("a part failed to load its own bytes: {e}"));
    let mut again = SnapWriter::new();
    save(&into, &mut again);
    assert_eq!(
        again.into_bytes(),
        bytes,
        "save -> load -> save moved a byte"
    );
    into
}

#[test]
fn dcsim_types_roundtrip() {
    // An advanced RNG stream: position and underlying state both carry.
    let mut rng = SimRng::seed_from(123);
    for _ in 0..17 {
        rng.next_u64();
    }
    rng.normal(0.0, 1.0);
    let mut restored = reloaded(&rng, SimRng::seed_from(0), SimRng::save, |rng, r| {
        *rng = SimRng::decode(r)?;
        Ok(())
    });
    let mut a = rng.clone();
    for _ in 0..32 {
        assert_eq!(
            a.next_u64(),
            restored.next_u64(),
            "restored stream diverged"
        );
    }

    let configured =
        || CycleSchedule::with_phase(SimDuration::from_secs(3), SimDuration::from_secs(1));
    let mut cycle = configured();
    cycle.fire(SimTime::from_secs(4));
    let loaded = reloaded(
        &cycle,
        configured(),
        CycleSchedule::save,
        CycleSchedule::load,
    );
    assert_eq!(loaded, cycle);
}

#[test]
fn powerinfra_types_roundtrip() {
    // A breaker with accumulated thermal state, mid-way to a trip.
    let rpp = || Breaker::new(Power::from_kilowatts(10.0), TripCurve::rpp());
    let mut breaker = rpp();
    for _ in 0..30 {
        breaker.step(Power::from_kilowatts(14.0), SimDuration::from_secs(1));
    }
    assert!(breaker.thermal_state() > 0.0, "vacuity: no heat built up");
    assert_eq!(
        reloaded(&breaker, rpp(), Breaker::save, Breaker::load),
        breaker
    );

    // A DCUPS that has been discharging on battery.
    let unit = || Dcups::new(Power::from_kilowatts(50.0));
    let mut dcups = unit();
    for _ in 0..60 {
        dcups.step(
            false,
            Power::from_kilowatts(40.0),
            SimDuration::from_secs(1),
        );
    }
    assert!(dcups.charge_fraction() < 1.0, "vacuity: battery still full");
    assert_eq!(reloaded(&dcups, unit(), Dcups::save, Dcups::load), dcups);
}

#[test]
fn agent_network_and_workload_roundtrip() {
    // Per-agent state (noise stream, process-up bit) is columns of the
    // fleet snapshot now; `whole_datacenter_state_roundtrips` covers it.
    // A link saves its stream alone and loads it into a link built with
    // its profile: save -> load -> save is byte-identical.
    let profile = LinkProfile::lossy(0.1, 0.1);
    let mut network = Network::new(profile, SimRng::seed_from(11));
    for _ in 0..17 {
        let _ = network.attempt();
    }
    let mut w = SnapWriter::new();
    network.save(&mut w);
    let bytes = w.into_bytes();
    let mut loaded = Network::new(profile, SimRng::seed_from(12));
    let mut r = SnapReader::new(&bytes);
    loaded.load(&mut r).expect("a link loads its own bytes");
    assert_eq!(r.remaining(), 0);
    let mut again = SnapWriter::new();
    loaded.save(&mut again);
    assert_eq!(
        again.into_bytes(),
        bytes,
        "save -> load -> save moved a byte"
    );
    assert_eq!(loaded, network);
    for _ in 0..32 {
        assert_eq!(
            loaded.attempt(),
            network.attempt(),
            "loaded stream diverged"
        );
    }

    // A workload process is columns, as the fleet keeps it: a
    // checkpoint writes it with `put_process` and loads it into the
    // columns of a process built with another stream.
    struct Process {
        rng: SimRng,
        noise: f64,
        burst: (SimTime, f64),
    }
    let (kind, dt) = (ServiceKind::Cache, SimDuration::from_secs(1));
    let params = kind.params();
    let ou = OuCoeffs::for_params(&params, dt);
    let step = |p: &mut Process, t: u64| {
        let step = DrawStep::new(&params, SimTime::from_secs(t), 1.3, dt, ou);
        let (until, add) = &mut p.burst;
        kernel::step_element(&step, &mut p.rng, &mut p.noise, until, add)
    };
    let put = |p: &Process| {
        let mut w = SnapWriter::new();
        put_process(&mut w, p.noise, p.burst, &p.rng);
        w.into_bytes()
    };
    let fresh = |seed| Process {
        rng: SimRng::seed_from(seed),
        noise: 0.0,
        burst: kernel::burst_to_columns(None),
    };
    let mut workload = fresh(31);
    for t in 0..20 {
        step(&mut workload, t);
    }
    let bytes = put(&workload);
    let mut loaded = fresh(32);
    let mut r = SnapReader::new(&bytes);
    let burst = (&mut loaded.burst.0, &mut loaded.burst.1);
    get_process(&mut r, &mut loaded.noise, burst, &mut loaded.rng)
        .expect("a process loads its own bytes");
    assert_eq!(r.remaining(), 0);
    assert_eq!(put(&loaded), bytes, "save -> load -> save moved a byte");
    for t in 20..60 {
        assert_eq!(
            step(&mut loaded, t).to_bits(),
            step(&mut workload, t).to_bits(),
            "loaded process diverged at t={t} s"
        );
    }
}

/// `restored`, just restored from a state `original` took, draws what
/// `original` draws: every server's watts and its demand (through the
/// fleet's performance factor, a function of both), and every device's
/// draw as the tick reads it is the fold of its servers' watts. None of
/// these is on the wire; restore derives them.
fn assert_restored_draws(original: &Datacenter, restored: &mut Datacenter) {
    let (a, b) = (original.fleet(), restored.fleet());
    let n = a.len() as u32;
    for sid in 0..n {
        let (was, is) = (a.power_of(sid).as_watts(), b.power_of(sid).as_watts());
        assert_eq!(
            was.to_bits(),
            is.to_bits(),
            "server {sid}: {was} W → {is} W"
        );
    }
    let (was, is) = (a.mean_performance(0..n), b.mean_performance(0..n));
    assert_eq!(was.to_bits(), is.to_bits(), "mean performance {was} → {is}");
    assert!(
        restored.draw_cache_is_exact(),
        "a restored draw is not its servers' fold"
    );
}

/// A live datacenter's full state: nests the fleet, the control plane
/// (leaf and upper controller tiers, failover flags, schedules,
/// observability rings and registry), telemetry, breakers and the
/// validator — the round-trip property therefore covers every layer's
/// body in one pass.
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
    assert_restored_draws(&dc, &mut fresh);
    assert_eq!(fresh.now(), SimTime::from_mins(5));
    assert_eq!(
        fresh.state().to_snap_bytes(),
        state.to_snap_bytes(),
        "save -> load -> save is not byte-identical"
    );
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
    assert_restored_draws(&dc, &mut serial);
    assert_eq!(serial.now(), SimTime::from_mins(3));
    assert_eq!(
        serial.state().to_snap_bytes(),
        state.to_snap_bytes(),
        "save -> load -> save is not byte-identical"
    );

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

/// Same property with the grid-interactive layer live: its nested body
/// (economic controller schedule, battery banks, the open curtailment
/// episode and settlement accumulators) must survive the byte cycle
/// mid-curtailment.
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
    assert_restored_draws(&dc, &mut fresh);
    assert_eq!(fresh.now(), SimTime::from_mins(7));
    assert!(fresh.grid().unwrap().curtailment_active());
    assert_eq!(
        fresh.state().to_snap_bytes(),
        state.to_snap_bytes(),
        "save -> load -> save is not byte-identical"
    );
}

// ---------------------------------------------------------------------------
// Version skew and framing violations.
// ---------------------------------------------------------------------------

/// A section of `kind` at `version` around `body`.
fn framed(kind: &str, version: u32, body: &[u8]) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put_u32(dcsim::snap::SECTION_MAGIC);
    w.put_str(kind);
    w.put_u32(version);
    w.put_u64(body.len() as u64);
    w.put_raw(body);
    w.into_bytes()
}

/// The state of a small datacenter a minute into its run.
fn small_state() -> DatacenterState {
    let mut dc = DatacenterBuilder::new()
        .sbs_per_msb(1)
        .rpps_per_sb(1)
        .racks_per_rpp(2)
        .servers_per_rack(4)
        .seed(5)
        .build();
    dc.run_for(SimDuration::from_mins(1));
    dc.state()
}

/// The body of `state`, unframed.
fn body_of(state: &DatacenterState) -> Vec<u8> {
    let mut w = SnapWriter::new();
    state.encode_body(&mut w);
    w.into_bytes()
}

/// A live state's body framed as a future revision would frame it is
/// refused by version, naming the kind, before a body byte is read.
#[test]
fn bumped_version_is_rejected_with_a_clear_error() {
    let next = DatacenterState::VERSION + 1;
    let bytes = framed(DatacenterState::KIND, next, &body_of(&small_state()));
    let err = match DatacenterState::from_snap_bytes(&bytes) {
        Ok(_) => panic!("a future snapshot must not decode"),
        Err(e) => e,
    };
    match &err {
        SnapError::VersionMismatch {
            kind,
            found,
            supported,
        } => {
            assert_eq!(kind, DatacenterState::KIND);
            assert_eq!((*found, *supported), (next, DatacenterState::VERSION));
        }
        other => panic!("expected VersionMismatch, got {other}"),
    }
    let msg = err.to_string();
    assert!(
        msg.contains("version") && msg.contains(DatacenterState::KIND),
        "error must name the kind and the version problem: {msg}"
    );
}

/// Decodes a `DatacenterState` section framed at `version` around an
/// eight-byte body and expects it refused by version, before a single
/// body byte is interpreted.
fn assert_datacenter_version_refused(version: u32) {
    let bytes = framed(DatacenterState::KIND, version, &0u64.to_le_bytes());
    match DatacenterState::from_snap_bytes(&bytes) {
        Err(SnapError::VersionMismatch {
            kind,
            found,
            supported,
        }) => {
            assert_eq!(kind, DatacenterState::KIND);
            assert_eq!((found, supported), (version, DatacenterState::VERSION));
        }
        Err(other) => panic!("expected VersionMismatch, got {other}"),
        Ok(_) => panic!("a v{version} envelope must not decode"),
    }
}

/// Snapshots are same-build resume legs: a file written before the
/// fleet section became columns (envelope version 2) is refused.
#[test]
fn a_v2_datacenter_envelope_is_a_version_mismatch() {
    assert_datacenter_version_refused(2);
}

/// A file written while each leaf link still carried its call counters
/// and latency sum (envelope version 3) is refused.
#[test]
fn a_v3_datacenter_envelope_is_a_version_mismatch() {
    assert_datacenter_version_refused(3);
}

/// A file written while every breaker carried the cooling constant and
/// each leaf its power and agent epochs (envelope version 4) is refused.
#[test]
fn a_v4_datacenter_envelope_is_a_version_mismatch() {
    assert_datacenter_version_refused(4);
}

/// A file written while the fleet section still stored drawn power,
/// demand and the leaf partials beside the state they are functions of
/// (envelope version 5) is refused.
#[test]
fn a_v5_datacenter_envelope_is_a_version_mismatch() {
    assert_datacenter_version_refused(5);
}

/// A file written while a section repeated each breaker's status beside
/// the body that holds it, and telemetry stored its schedule in a form
/// of its own (envelope version 6), is refused.
#[test]
fn a_v6_datacenter_envelope_is_a_version_mismatch() {
    assert_datacenter_version_refused(6);
}

/// A file written while every section echoed its configuration, span
/// and flight records their names and telemetry its samples raw
/// (envelope version 7) is refused.
#[test]
fn a_v7_datacenter_envelope_is_a_version_mismatch() {
    assert_datacenter_version_refused(7);
}

#[test]
fn wrong_kind_is_rejected() {
    let body = body_of(&small_state());
    let bytes = framed("dynamo-sim.Checkpoint", DatacenterState::VERSION, &body);
    match DatacenterState::from_snap_bytes(&bytes) {
        Err(SnapError::KindMismatch { expected, found }) => {
            assert_eq!(
                (expected.as_str(), found.as_str()),
                (DatacenterState::KIND, "dynamo-sim.Checkpoint")
            );
        }
        Err(other) => panic!("expected KindMismatch, got {other}"),
        Ok(_) => panic!("kind mismatch must not decode"),
    }
}

#[test]
fn truncated_and_padded_sections_are_rejected() {
    let bytes = small_state().to_snap_bytes();
    assert!(
        matches!(
            DatacenterState::from_snap_bytes(&bytes[..bytes.len() - 3]),
            Err(SnapError::UnexpectedEof { .. })
        ),
        "truncated snapshot must not decode"
    );
    let mut padded = bytes.clone();
    padded.extend_from_slice(&[0, 0, 0]);
    assert!(
        matches!(
            DatacenterState::from_snap_bytes(&padded),
            Err(SnapError::TrailingBytes { extra: 3, .. })
        ),
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
