//! Checkpoints: a run resumed from one must equal the reference oracle
//! and the unbroken run at any width (`scenario/mod.rs`), and a
//! checkpoint refuses what it cannot restore and keeps its bytes
//! stable. The grid layer mid-curtailment is the `grid_curtailment`
//! case of `schedules.rs`.

mod common;
mod oracle;
mod scenario;

use common::{mixed, Spec};
use dcsim::snap::Snapshot;
use dcsim::SimDuration;
use dynamo_repro::dynamo::{Datacenter, DatacenterState};
use scenario::{check, checkpointed_case, widths};

/// A mixed fleet with crashing agents and staggered phases.
fn build() -> Datacenter {
    checkpointed_case().spec.builder(1).build()
}

/// Resumed at 250 s, between the two failovers, on one thread.
#[test]
fn resume_is_bit_identical_serial() {
    check(&checkpointed_case(), &widths(Some(250), &[1]));
}

/// Resumed at 250 s into the sharded tick, at 2 and 8 workers.
#[test]
fn resume_is_bit_identical_across_threads_and_modes() {
    check(&checkpointed_case(), &widths(Some(250), &[2, 8]));
}

#[test]
fn grid_restore_rejects_gridless_snapshot() {
    let mut plain = build();
    plain.run_for(SimDuration::from_secs(10));
    let bytes = plain.state().to_snap_bytes();
    let state = DatacenterState::from_snap_bytes(&bytes).unwrap();
    // The grid layer's curtailment window binding on a low MSB rating.
    let mut spec = mixed([Some(18.0), None, Some(36.0)], 0.0, 47);
    spec.grid = Some("curtailment-window");
    let mut gridded = spec.builder(1).build();
    let err = gridded.restore(&state).unwrap_err();
    assert!(
        err.to_string().contains("grid"),
        "mismatch error should name the grid layer, got: {err}"
    );
}

#[test]
fn snapshot_bytes_are_stable_across_encode_cycles() {
    let mut dc = build();
    dc.run_for(SimDuration::from_secs(100));
    let victim = dc.system().leaf_devices()[1];
    dc.system_mut().fail_primary(victim);
    dc.run_for(SimDuration::from_secs(150));
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
    let mut small = build();
    small.run_for(SimDuration::from_secs(30));
    let state_bytes = small.state().to_snap_bytes();
    let state = DatacenterState::from_snap_bytes(&state_bytes).unwrap();

    let mut other = Spec::new([1, 1, 1, 4], 41).builder(1).build();
    let err = other.restore(&state).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("snapshot") || msg.contains("devices") || msg.contains("servers"),
        "mismatch error should name the shape problem, got: {msg}"
    );
}
