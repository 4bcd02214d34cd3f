//! The parallel leaf control plane must be bit-identical to the serial
//! one: same `ControllerEvent` stream (same order), same leaf
//! aggregates, same final run report — at any worker thread count, even
//! with agent crashes, lossy RPC and controller failover injected.

use dcsim::{SimDuration, SimTime};
use dynamo_repro::dynamo::{
    ControllerEvent, Datacenter, DatacenterBuilder, ObsConfig, RunReport, ServicePlan,
};
use dynamo_repro::dynrpc::LinkProfile;
use dynamo_repro::powerinfra::{DeviceLevel, Power};
use dynamo_repro::powerstats::Trace;
use dynamo_repro::workloads::{ServiceKind, TrafficEvent, TrafficPattern};

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

/// The widths the two `repro`-shaped tests below run at: one thread,
/// an even and an uneven cut of the leaves, and more threads than
/// leaves (the pool clamps).
const WIDTHS: [usize; 4] = [1, 2, 3, 8];

fn bits(trace: &Trace) -> Vec<u64> {
    trace.values().iter().map(|v| v.to_bits()).collect()
}

/// `repro --quick fig5`'s datacenter, which `repro` now runs at host
/// width: capping off, all four levels watched, services racked in
/// contiguous rows, diurnal traffic. Every device trace must carry the
/// same bits at any width — Figure 5 is computed from nothing else.
#[test]
fn fig5_shaped_monitoring_run_traces_the_same_bits_at_any_width() {
    let levels = [
        DeviceLevel::Rack,
        DeviceLevel::Rpp,
        DeviceLevel::Sb,
        DeviceLevel::Msb,
    ];
    let traces = |threads: usize| {
        let mut dc = DatacenterBuilder::new()
            .sbs_per_msb(2)
            .rpps_per_sb(2)
            .racks_per_rpp(4)
            .servers_per_rack(15)
            .service_plan(ServicePlan::RowComposition(vec![
                (ServiceKind::Web, 36),
                (ServiceKind::Cache, 18),
                (ServiceKind::Hadoop, 24),
                (ServiceKind::Database, 12),
                (ServiceKind::NewsFeed, 18),
                (ServiceKind::F4Storage, 12),
            ]))
            .traffic(ServiceKind::Web, TrafficPattern::diurnal())
            .traffic(ServiceKind::NewsFeed, TrafficPattern::diurnal())
            .traffic(ServiceKind::Cache, TrafficPattern::diurnal_with(0.7, 20.0))
            .traffic(
                ServiceKind::Database,
                TrafficPattern::diurnal_with(0.7, 20.0),
            )
            .capping_enabled(false)
            .watch_levels(levels.to_vec())
            .worker_threads(threads)
            .seed(5)
            .build();
        dc.run_for(SimDuration::from_mins(40));
        let mut out = Vec::new();
        for level in levels {
            for dev in dc.topology().devices_at(level) {
                let trace = dc.telemetry().device_trace(dev).expect("level was watched");
                out.push((dev.to_string(), bits(trace)));
            }
        }
        out
    };
    let serial = traces(1);
    assert_eq!(serial.len(), 16 + 4 + 2 + 1, "every device of every level");
    assert!(serial.iter().all(|(_, t)| t.len() == 800), "3 s samples");
    for threads in &WIDTHS[1..] {
        let parallel = traces(*threads);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s, p, "trace of {} diverged at {threads} threads", s.0);
        }
    }
}

/// `repro --quick fig14`'s datacenter, likewise: a turbo Hadoop
/// cluster under an SB that its job waves overrun, so the run has real
/// cap and uncap episodes driven by traffic events.
#[test]
fn fig14_shaped_capping_run_is_bit_identical_at_any_width() {
    let observe = |threads: usize| {
        let wave = TrafficEvent::new(SimTime::from_mins(20), SimTime::from_mins(50), 1.5)
            .with_ramp(SimDuration::from_mins(5));
        let mut dc = DatacenterBuilder::new()
            .sbs_per_msb(1)
            .rpps_per_sb(2)
            .racks_per_rpp(4)
            .servers_per_rack(30)
            .rpp_rating(Power::from_kilowatts(48.0))
            .sb_rating(Power::from_kilowatts(80.0))
            .uniform_service(ServiceKind::Hadoop)
            .turbo(ServiceKind::Hadoop)
            .traffic(
                ServiceKind::Hadoop,
                TrafficPattern::flat(0.85).with_event(wave),
            )
            .worker_threads(threads)
            .seed(14)
            .build();
        dc.run_for(SimDuration::from_mins(80));
        (
            dc.telemetry().controller_events().to_vec(),
            RunReport::from_datacenter(&dc),
            bits(dc.telemetry().total_power()),
            bits(dc.telemetry().capped_servers()),
        )
    };
    let serial = observe(1);
    let caps = serial.1.leaf_cap_events + serial.1.upper_cap_events;
    assert!(caps > 0, "the wave never capped:\n{}", serial.1);
    assert!(
        serial.1.leaf_uncap_events > 0,
        "caps never released:\n{}",
        serial.1
    );
    assert_eq!(serial.1.breaker_trips, 0);
    for threads in &WIDTHS[1..] {
        assert_eq!(serial, observe(*threads), "diverged at {threads} threads");
    }
}
