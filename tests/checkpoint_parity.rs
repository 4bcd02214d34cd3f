//! Checkpoint/restore parity: a run snapshotted at an arbitrary tick
//! boundary and resumed into a freshly built datacenter must be
//! bit-identical — report string and Prometheus exposition — to the
//! unbroken run, at any thread count.
//!
//! This is the executable statement of the snapshot contract: every
//! stateful layer (sim clock, RNG streams, fleet physics, controller
//! tiers, failover flags, schedules, telemetry, observability rings,
//! breaker heat, validator EWMAs) round-trips exactly; everything else
//! is provably rebuilt from configuration.

use dcsim::snap::Snapshot;
use dcsim::SimDuration;
use dynamo_repro::dynamo::{
    Datacenter, DatacenterBuilder, DatacenterState, ObsConfig, RunReport, ServicePlan,
};
use dynamo_repro::powerinfra::Power;
use dynamo_repro::workloads::{ServiceKind, TrafficPattern};

fn build(threads: usize) -> Datacenter {
    DatacenterBuilder::new()
        .sbs_per_msb(2)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .servers_per_rack(16)
        .rpp_rating(Power::from_kilowatts(18.0))
        .service_plan(ServicePlan::Mix(vec![
            (ServiceKind::Web, 0.5),
            (ServiceKind::Cache, 0.3),
            (ServiceKind::Hadoop, 0.2),
        ]))
        .traffic(ServiceKind::Web, TrafficPattern::diurnal())
        .agent_crash_rate(0.5)
        .phase_spread(SimDuration::from_secs(2))
        .observability(ObsConfig {
            enabled: true,
            ..ObsConfig::default()
        })
        .worker_threads(threads)
        .seed(41)
        .build()
}

/// Everything an operator can see: the condensed report plus the full
/// Prometheus exposition (every counter, gauge and histogram bucket).
fn observable(dc: &Datacenter) -> (String, String) {
    (
        RunReport::from_datacenter(dc).to_string(),
        dc.system().observability().prometheus_text(),
    )
}

/// Runs 500 ticks with a failover injected at t=100 s and t=300 s —
/// one on each side of the would-be checkpoint.
fn run_straight(threads: usize) -> (String, String) {
    let mut dc = build(threads);
    run_with_faults(&mut dc, 0, 500);
    observable(&dc)
}

/// Runs 250 ticks, snapshots through the full binary encoding, restores
/// into a *separately built* datacenter, and runs the remaining 250.
fn run_resumed(threads: usize) -> (String, String) {
    let mut first = build(threads);
    run_with_faults(&mut first, 0, 250);
    let bytes = first.state().to_snap_bytes();
    drop(first);

    let state = DatacenterState::from_snap_bytes(&bytes).expect("snapshot must decode");
    let mut resumed = build(threads);
    resumed.restore(&state).expect("snapshot must restore");
    assert_eq!(resumed.now().as_secs(), 250);
    run_with_faults(&mut resumed, 250, 500);
    observable(&resumed)
}

/// Steps tick by tick from `from` to `to` seconds, injecting a primary
/// controller failure at the fixed fault times that fall in the window.
fn run_with_faults(dc: &mut Datacenter, from: u64, to: u64) {
    for t in from..to {
        if t == 100 || t == 300 {
            let victim = dc.system().leaf_devices()[(t / 100) as usize % 4];
            dc.system_mut().fail_primary(victim);
        }
        dc.step();
    }
    assert_eq!(dc.now().as_secs(), to);
}

/// The grid-interactive variant: same fleet, MSB rating pinned low
/// enough that the curtailment-window preset's 0.80 limit actually
/// binds, batteries and economic controller live. The checkpoint at
/// t=400 s lands mid-curtailment (window is 300..900 s), so the open
/// episode, settlement accumulators, bank charge and pushed contract
/// all cross the snapshot boundary.
fn build_grid(threads: usize) -> Datacenter {
    DatacenterBuilder::new()
        .sbs_per_msb(2)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .servers_per_rack(16)
        .rpp_rating(Power::from_kilowatts(18.0))
        .msb_rating(Power::from_kilowatts(36.0))
        .service_plan(ServicePlan::Mix(vec![
            (ServiceKind::Web, 0.5),
            (ServiceKind::Cache, 0.3),
            (ServiceKind::Hadoop, 0.2),
        ]))
        .traffic(ServiceKind::Web, TrafficPattern::diurnal())
        .grid_scenario("curtailment-window")
        .observability(ObsConfig {
            enabled: true,
            ..ObsConfig::default()
        })
        .worker_threads(threads)
        .seed(47)
        .build()
}

fn run_straight_grid(threads: usize) -> (String, String) {
    let mut dc = build_grid(threads);
    run_with_faults(&mut dc, 0, 700);
    observable(&dc)
}

fn run_resumed_grid(threads: usize) -> (String, String) {
    let mut first = build_grid(threads);
    run_with_faults(&mut first, 0, 400);
    assert!(
        first.grid().expect("grid configured").curtailment_active(),
        "checkpoint must land mid-curtailment for this test to bite"
    );
    let bytes = first.state().to_snap_bytes();
    drop(first);

    let state = DatacenterState::from_snap_bytes(&bytes).expect("snapshot must decode");
    let mut resumed = build_grid(threads);
    resumed.restore(&state).expect("snapshot must restore");
    assert!(resumed.grid().unwrap().curtailment_active());
    run_with_faults(&mut resumed, 400, 700);
    observable(&resumed)
}

#[test]
fn grid_resume_mid_curtailment_is_bit_identical() {
    let baseline = run_straight_grid(1);
    assert!(
        baseline.0.contains("grid [curtailment-window]"),
        "report must carry the grid section:\n{}",
        baseline.0
    );
    for threads in [1, 2, 8] {
        let resumed = run_resumed_grid(threads);
        assert_eq!(
            baseline.0, resumed.0,
            "grid report diverged after resume at {threads} threads"
        );
        assert_eq!(
            baseline.1, resumed.1,
            "grid metrics diverged after resume at {threads} threads"
        );
    }
}

#[test]
fn grid_restore_rejects_gridless_snapshot() {
    let mut plain = build(1);
    plain.run_for(SimDuration::from_secs(10));
    let bytes = plain.state().to_snap_bytes();
    let state = DatacenterState::from_snap_bytes(&bytes).unwrap();
    let mut gridded = build_grid(1);
    let err = gridded.restore(&state).unwrap_err();
    assert!(
        err.to_string().contains("grid"),
        "mismatch error should name the grid layer, got: {err}"
    );
}

#[test]
fn resume_is_bit_identical_serial() {
    assert_eq!(run_straight(1), run_resumed(1));
}

#[test]
fn resume_is_bit_identical_across_threads_and_modes() {
    let baseline = run_straight(1);
    for threads in [2, 8] {
        let resumed = run_resumed(threads);
        assert_eq!(
            baseline.0, resumed.0,
            "report diverged after resume at {threads} threads"
        );
        assert_eq!(
            baseline.1, resumed.1,
            "metrics diverged after resume at {threads} threads"
        );
    }
}

#[test]
fn snapshot_bytes_are_stable_across_encode_cycles() {
    let mut dc = build(1);
    run_with_faults(&mut dc, 0, 250);
    let bytes = dc.state().to_snap_bytes();
    let decoded = DatacenterState::from_snap_bytes(&bytes).unwrap();
    assert_eq!(
        bytes,
        decoded.to_snap_bytes(),
        "encode -> decode -> encode must be byte-identical"
    );
}

#[test]
fn restore_rejects_topology_mismatch() {
    let mut small = build(1);
    small.run_for(SimDuration::from_secs(30));
    let state_bytes = small.state().to_snap_bytes();
    let state = DatacenterState::from_snap_bytes(&state_bytes).unwrap();

    let mut other = DatacenterBuilder::new()
        .sbs_per_msb(1)
        .rpps_per_sb(1)
        .racks_per_rpp(1)
        .servers_per_rack(4)
        .uniform_service(ServiceKind::Web)
        .seed(41)
        .build();
    let err = other.restore(&state).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("snapshot") || msg.contains("devices") || msg.contains("servers"),
        "mismatch error should name the shape problem, got: {msg}"
    );
}
