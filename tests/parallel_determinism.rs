//! The parallel leaf control plane under stress: a tight RPP rating,
//! crashing agents, lossy links and two failovers. At every worker
//! width the run must equal the reference oracle bit for bit, and its
//! report and merged metrics registry the straight width-1 run's — the
//! statement of `scenario/mod.rs`.

mod common;
mod oracle;
mod scenario;

use scenario::{check, stressed_case, stressed_guards, widths};

#[test]
fn parallel_control_plane_is_bit_identical() {
    // 3, 5 and 7 do not divide the 4-leaf tier, so the shard carve and
    // the ascending-order merge leave the power-of-two path; 16 is more
    // workers than leaves.
    let schedules = widths(None, &[1, 2, 3, 5, 7, 8, 16]);
    stressed_guards(&check(&stressed_case(None), &schedules));
}

#[test]
fn control_threads_cap_at_leaf_count() {
    // More worker threads than leaves is fine: the pool clamps.
    stressed_guards(&check(&stressed_case(None), &widths(None, &[64])));
}
