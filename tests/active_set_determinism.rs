//! Active-set physics at the datacenter level.
//!
//! With `demand_hold(30)` the fleet skips the settle pass for leaves
//! whose batch reached its floating-point fixed point, and the
//! datacenter keeps each rack's draw while its leaf's power epoch
//! stands still. Neither optimization may move a single bit: the
//! controller event stream, leaf aggregates, run report and the merged
//! metrics registry must be identical at every worker thread count,
//! under agent crashes, lossy RPC, failover injections and an
//! out-of-band server kill (the path that must invalidate a rack's
//! memoized draw).

use dcsim::SimTime;
use dynamo_repro::dynamo::{
    ControllerEvent, Datacenter, DatacenterBuilder, ObsConfig, RunReport, ServicePlan,
};
use dynamo_repro::dynrpc::LinkProfile;
use dynamo_repro::powerinfra::{DeviceLevel, Power};
use dynamo_repro::workloads::{ServiceKind, TrafficPattern};

/// Same stressed configuration as `parallel_determinism`, plus the
/// demand-hold knob that turns the active set on.
fn build(threads: usize, hold: u32) -> Datacenter {
    builder(threads, hold).build()
}

fn builder(threads: usize, hold: u32) -> DatacenterBuilder {
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
        .demand_hold(hold)
        .seed(41)
}

struct Observed {
    events: Vec<ControllerEvent>,
    aggregates: Vec<(String, Option<Power>)>,
    report: RunReport,
    metrics: String,
    /// Peak settled-leaf count sampled over the final stretch — the
    /// vacuity guard: zero would mean the active set never engaged and
    /// the equality assertions proved nothing.
    max_settled: usize,
}

/// Five simulated minutes with two failover injections and one
/// out-of-band server kill + revive through `fleet_mut()` (bumps the
/// leaf epoch, and so invalidates the racks' memoized draws, without
/// going through a step).
fn run(threads: usize, hold: u32) -> Observed {
    let mut dc = build(threads, hold);
    assert_eq!(dc.fleet().demand_hold(), hold);
    dc.run_until(SimTime::from_mins(2));

    let leaves: Vec<_> = dc.system().leaf_devices().to_vec();
    dc.system_mut().fail_primary(leaves[0]);
    let victim = dc.topology().servers_under(leaves[1])[0];
    dc.fleet_mut().set_server_alive(victim, false);
    dc.run_until(SimTime::from_mins(3));
    dc.fleet_mut().set_server_alive(victim, true);
    dc.system_mut().fail_primary(leaves[2]);

    // Step the final stretch tick by tick so the settled population can
    // be sampled; identical to `run_until(from_mins(5))` otherwise.
    let mut max_settled = 0;
    while dc.now() < SimTime::from_mins(5) {
        dc.step();
        max_settled = max_settled.max(dc.fleet().settled_leaf_count());
    }

    let aggregates = leaves
        .iter()
        .map(|&d| (d.to_string(), dc.system().leaf_aggregate(d)))
        .collect();
    Observed {
        events: dc.telemetry().controller_events().to_vec(),
        aggregates,
        report: RunReport::from_datacenter(&dc),
        metrics: dc.system().observability().prometheus_text(),
        max_settled,
    }
}

#[test]
fn active_set_control_plane_is_bit_identical_across_threads() {
    let serial = run(1, 30);

    // The run must exercise the interesting paths.
    assert!(
        serial.report.leaf_cap_events > 0,
        "no capping activity:\n{}",
        serial.report
    );
    assert!(serial.report.failovers >= 2, "failover injection missed");
    assert!(!serial.events.is_empty());
    assert!(
        serial.max_settled > 0,
        "no leaf ever settled — active set never engaged"
    );

    for threads in [2usize, 8, 64] {
        let parallel = run(threads, 30);
        assert_eq!(
            serial.events, parallel.events,
            "controller events diverged at {threads} threads"
        );
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
        assert_eq!(serial.max_settled, parallel.max_settled);
    }
}

#[test]
fn hold_of_one_matches_the_default_builder() {
    // `demand_hold(1)` is the documented identity: every leaf redraws
    // every tick, exactly the pre-knob behaviour.
    let explicit = run(1, 1);
    let default = {
        let mut dc = DatacenterBuilder::new()
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
            .worker_threads(1)
            .seed(41)
            .build();
        assert_eq!(dc.fleet().demand_hold(), 1);
        dc.run_until(SimTime::from_mins(2));
        let leaves: Vec<_> = dc.system().leaf_devices().to_vec();
        dc.system_mut().fail_primary(leaves[0]);
        let victim = dc.topology().servers_under(leaves[1])[0];
        dc.fleet_mut().set_server_alive(victim, false);
        dc.run_until(SimTime::from_mins(3));
        dc.fleet_mut().set_server_alive(victim, true);
        dc.system_mut().fail_primary(leaves[2]);
        dc.run_until(SimTime::from_mins(5));
        (
            dc.telemetry().controller_events().to_vec(),
            RunReport::from_datacenter(&dc),
            dc.system().observability().prometheus_text(),
        )
    };
    assert_eq!(explicit.events, default.0);
    assert_eq!(explicit.report, default.1);
    assert_eq!(explicit.metrics, default.2);
}

#[test]
fn draw_cache_tracks_out_of_band_kills() {
    // What the tick serves — the draw the breaker pass steps against is
    // the draw a telemetry sample records — must follow a mutation that
    // bypasses `step`, and `set_server_alive` is exactly that. Racks
    // are the devices with something to go stale: their draw is kept
    // while their leaf's power epoch stands still.
    let mut dc = builder(1, 30)
        .watch_levels(vec![DeviceLevel::Rack, DeviceLevel::Rpp])
        .build();
    dc.run_until(SimTime::from_mins(2));

    let target = dc.topology().devices_at(DeviceLevel::Rpp)[1];
    let rack = dc.topology().device(target).children[0];
    let sampled = |dc: &Datacenter, d| {
        let trace = dc.telemetry().device_trace(d).expect("device is watched");
        (trace.len(), *trace.values().last().expect("sampled"))
    };
    let (samples, rack_before) = sampled(&dc, rack);
    let (_, rpp_before) = sampled(&dc, target);
    assert!(rack_before > 0.0 && rpp_before > rack_before);
    assert!(dc.draw_cache_is_exact());

    // Kill every server under the RPP out of band. The next sample must
    // read exactly zero for the RPP and for the rack below it, however
    // warm the rack's memo was.
    let victims = dc.topology().servers_under(target);
    for &sid in &victims {
        dc.fleet_mut().set_server_alive(sid, false);
    }
    assert!(dc.draw_cache_is_exact(), "stale draw right after the kill");
    for _ in 0..3 {
        dc.step();
    }
    let (now, rack_dark) = sampled(&dc, rack);
    assert!(now > samples, "no sample landed after the kill");
    assert_eq!(rack_dark, 0.0, "stale rack draw after the blackout");
    assert_eq!(sampled(&dc, target).1, 0.0, "stale RPP draw");

    // Revive and settle: power must come back through the same reads.
    for &sid in &victims {
        dc.fleet_mut().set_server_alive(sid, true);
    }
    assert!(
        dc.draw_cache_is_exact(),
        "stale draw right after the revive"
    );
    dc.run_until(SimTime::from_mins(4));
    let rack_revived = sampled(&dc, rack).1;
    assert!(
        rack_revived > rack_before * 0.5,
        "rack never recovered: {rack_revived} W (was {rack_before} W)"
    );
    assert!(sampled(&dc, target).1 > rpp_before * 0.5);
    assert!(dc.draw_cache_is_exact());
}
