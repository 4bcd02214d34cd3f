//! The parallel leaf control plane must be bit-identical to the serial
//! one: same `ControllerEvent` stream (same order), same leaf
//! aggregates, same final run report — at any worker thread count, even
//! with agent crashes, lossy RPC and controller failover injected.

use dcsim::{SimDuration, SimTime};
use dynamo_repro::dynamo::{
    ControllerEvent, Datacenter, DatacenterBuilder, ObsConfig, RunReport, ServicePlan,
};
use dynamo_repro::dynrpc::LinkProfile;
use dynamo_repro::powerinfra::Power;
use dynamo_repro::workloads::{ServiceKind, TrafficPattern};

/// A stressed datacenter: a tight RPP rating keeps the three-band
/// controller oscillating between Cap and Uncap, agents crash, and the
/// RPC links drop and time out.
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

struct Observed {
    events: Vec<ControllerEvent>,
    aggregates: Vec<(String, Option<Power>)>,
    report: RunReport,
    /// Prometheus rendering of the merged metrics registry — float
    /// histogram sums included, so string equality is bit-level
    /// equality of the whole registry.
    metrics: String,
}

/// Runs 5 simulated minutes with two failover injections mid-run.
fn run(threads: usize) -> Observed {
    let mut dc = build(threads);
    dc.run_until(SimTime::from_mins(2));
    let leaves: Vec<_> = dc.system().leaf_devices().to_vec();
    dc.system_mut().fail_primary(leaves[0]);
    dc.run_until(SimTime::from_mins(3));
    dc.system_mut().fail_primary(leaves[2]);
    dc.run_until(SimTime::from_mins(5));

    let aggregates = leaves
        .iter()
        .map(|&d| (d.to_string(), dc.system().leaf_aggregate(d)))
        .collect();
    Observed {
        events: dc.telemetry().controller_events().to_vec(),
        aggregates,
        report: RunReport::from_datacenter(&dc),
        metrics: dc.system().observability().prometheus_text(),
    }
}

#[test]
fn parallel_control_plane_is_bit_identical() {
    let serial = run(1);

    // The run must actually exercise the interesting paths, or the
    // comparison proves nothing.
    assert!(
        serial.report.leaf_cap_events > 0,
        "no capping activity:\n{}",
        serial.report
    );
    assert!(serial.report.failovers >= 2, "failover injection missed");
    assert!(!serial.events.is_empty());
    for family in [
        "dynamo_leaf_cycles_total",
        "dynamo_rpc_drops_total",
        "dynamo_failovers_total",
        "dynamo_leaf_cut_watts_sum",
    ] {
        assert!(
            serial.metrics.contains(family),
            "metrics missing {family}:\n{}",
            serial.metrics
        );
    }

    // 3, 5 and 7 do not divide the 4-leaf tier, so the shard carve and
    // the ascending-order merge leave the power-of-two path; 16 is
    // more workers than leaves.
    for threads in [2usize, 3, 5, 7, 8, 16] {
        let parallel = run(threads);
        assert_eq!(
            serial.events.len(),
            parallel.events.len(),
            "event count diverged at {threads} threads"
        );
        for (i, (s, p)) in serial.events.iter().zip(&parallel.events).enumerate() {
            assert_eq!(s, p, "event {i} diverged at {threads} threads");
        }
        assert_eq!(
            serial.aggregates, parallel.aggregates,
            "leaf aggregates diverged at {threads} threads"
        );
        assert_eq!(
            serial.report, parallel.report,
            "run report diverged at {threads} threads"
        );
        assert_eq!(
            serial.metrics, parallel.metrics,
            "merged metrics registry diverged at {threads} threads"
        );
    }
}

#[test]
fn control_threads_cap_at_leaf_count() {
    // More worker threads than leaves is fine — chunks clamp.
    let serial = run(1);
    let oversubscribed = run(64);
    assert_eq!(serial.events, oversubscribed.events);
    assert_eq!(serial.report, oversubscribed.report);
    assert_eq!(serial.metrics, oversubscribed.metrics);
}

#[test]
fn dry_run_parallel_matches_serial() {
    let run_dry = |threads: usize| {
        let mut dc = DatacenterBuilder::new()
            .sbs_per_msb(1)
            .rpps_per_sb(2)
            .racks_per_rpp(2)
            .servers_per_rack(16)
            .rpp_rating(Power::from_kilowatts(9.5))
            .uniform_service(ServiceKind::Web)
            .traffic(ServiceKind::Web, TrafficPattern::flat(1.4))
            .dry_run(true)
            .worker_threads(threads)
            .seed(13)
            .build();
        dc.run_for(SimDuration::from_mins(3));
        (
            dc.telemetry().controller_events().to_vec(),
            RunReport::from_datacenter(&dc),
        )
    };
    assert_eq!(run_dry(1), run_dry(8));
}
