//! The persistent worker pool must change wall clock only, never
//! results: the run report and the full Prometheus registry rendering
//! must be bit-identical to the one-thread run at any thread count —
//! including thread counts that don't divide the leaf count and counts
//! exceeding it. (Pool shutdown is
//! covered by `tests/pool_shutdown.rs`, which needs a process of its
//! own to count threads reliably.)

use dcsim::SimTime;
use dynamo_repro::dynamo::{Datacenter, DatacenterBuilder, ObsConfig, RunReport, ServicePlan};
use dynamo_repro::dynrpc::LinkProfile;
use dynamo_repro::powerinfra::Power;
use dynamo_repro::workloads::{ServiceKind, TrafficPattern};

/// A stressed datacenter (tight RPP rating, crashes, lossy RPC) so the
/// comparison covers capping, failover and estimation paths.
fn build(threads: usize) -> Datacenter {
    DatacenterBuilder::new()
        .sbs_per_msb(2)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .servers_per_rack(16)
        .rpp_rating(Power::from_kilowatts(7.4))
        .service_plan(ServicePlan::Mix(vec![
            (ServiceKind::Web, 0.5),
            (ServiceKind::Cache, 0.3),
            (ServiceKind::Hadoop, 0.2),
        ]))
        .traffic(ServiceKind::Web, TrafficPattern::diurnal())
        .agent_crash_rate(0.5)
        .rpc_profile(LinkProfile::lossy(0.05, 0.05))
        .observability(ObsConfig::on())
        .worker_threads(threads)
        .seed(41)
        .build()
}

/// Runs 4 simulated minutes with a failover injection mid-run and
/// returns (run report, Prometheus registry rendering).
fn run(threads: usize) -> (RunReport, String) {
    let mut dc = build(threads);
    dc.run_until(SimTime::from_mins(2));
    let leaf = dc.system().leaf_devices()[1];
    dc.system_mut().fail_primary(leaf);
    dc.run_until(SimTime::from_mins(4));
    (
        RunReport::from_datacenter(&dc),
        dc.system().observability().prometheus_text(),
    )
}

#[test]
fn pooled_runs_are_bit_identical_at_odd_thread_counts() {
    let (serial_report, serial_metrics) = run(1);
    assert!(
        serial_report.leaf_cap_events > 0,
        "no capping activity:\n{serial_report}"
    );
    // 3, 5 and 7 don't divide the 4-leaf tier evenly, so chunk carving
    // and the ascending-order merge are both exercised off the easy
    // power-of-two path.
    for threads in [3usize, 5, 7] {
        let (report, metrics) = run(threads);
        assert_eq!(
            serial_report, report,
            "run report diverged at {threads} pooled threads"
        );
        assert_eq!(
            serial_metrics, metrics,
            "metrics registry diverged at {threads} pooled threads"
        );
    }
}

#[test]
fn more_pool_workers_than_leaves_is_safe_and_identical() {
    let (serial_report, serial_metrics) = run(1);
    // 16 workers, 4 leaves: the dispatch clamps to the due set.
    let (report, metrics) = run(16);
    assert_eq!(serial_report, report);
    assert_eq!(serial_metrics, metrics);
}
