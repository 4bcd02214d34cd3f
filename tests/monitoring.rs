//! Integration tests of the monitoring plane (§VI: "Monitoring is as
//! important as capping"): telemetry traces, event logs, and alerting.

use dcsim::{SimDuration, SimTime};
use dynamo_repro::dynamo::{ControllerEventKind, DatacenterBuilder};
use dynamo_repro::dynrpc::LinkProfile;
use dynamo_repro::powerinfra::{DeviceLevel, Power};
use dynamo_repro::powerstats::sliding_variation;
use dynamo_repro::workloads::{ServiceKind, TrafficPattern};

fn small_dc() -> DatacenterBuilder {
    DatacenterBuilder::new()
        .sbs_per_msb(2)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .servers_per_rack(10)
        .uniform_service(ServiceKind::Web)
        .traffic(ServiceKind::Web, TrafficPattern::flat(1.2))
        .seed(61)
}

#[test]
fn telemetry_samples_on_the_3s_grid() {
    let mut dc = small_dc().build();
    dc.run_for(SimDuration::from_mins(5));
    // Table I: "3-second granularity power readings".
    let rpp = dc.topology().devices_at(DeviceLevel::Rpp)[0];
    let trace = dc
        .telemetry()
        .device_trace(rpp)
        .expect("RPP watched by default");
    assert_eq!(trace.interval(), SimDuration::from_secs(3));
    // 5 minutes / 3 s = 100 samples (±1 boundary sample).
    assert!(
        (99..=101).contains(&trace.len()),
        "got {} samples",
        trace.len()
    );
    // Samples are plausible watts for 40 servers.
    assert!(trace.min() > 1_000.0 && trace.max() < 40.0 * 400.0);
}

#[test]
fn telemetry_traces_support_the_variation_analysis() {
    // The monitoring data must feed the §II-B analysis pipeline
    // directly: a device trace into sliding_variation.
    let mut dc = small_dc().capping_enabled(false).build();
    dc.run_for(SimDuration::from_mins(30));
    let sb = dc.topology().devices_at(DeviceLevel::Sb)[0];
    let trace = dc.telemetry().device_trace(sb).unwrap();
    let vars = sliding_variation(&trace, SimDuration::from_secs(60));
    assert!(!vars.is_empty());
    assert!(vars.iter().all(|&v| v >= 0.0));
    // Some variation exists: web workloads move.
    assert!(vars.iter().cloned().fold(0.0, f64::max) > 0.0);
}

#[test]
fn watch_levels_control_what_is_traced() {
    // A level listed twice is traced once: one sample a row.
    let levels = vec![DeviceLevel::Sb, DeviceLevel::Sb];
    let mut dc = small_dc().watch_levels(levels).build();
    dc.run_for(SimDuration::from_mins(1));
    let sb = dc.topology().devices_at(DeviceLevel::Sb)[0];
    let rpp = dc.topology().devices_at(DeviceLevel::Rpp)[0];
    let trace = dc.telemetry().device_trace(sb).expect("SBs are watched");
    assert_eq!(trace.len(), dc.telemetry().total_power().len());
    assert!(dc.telemetry().device_trace(rpp).is_none());
}

#[test]
fn total_power_and_capped_series_align() {
    let mut dc = small_dc().build();
    dc.run_for(SimDuration::from_mins(3));
    let total = dc.telemetry().total_power();
    let capped = dc.telemetry().capped_servers();
    assert_eq!(total.len(), capped.len(), "telemetry series misaligned");
    assert!(total.mean() > 0.0);
}

#[test]
fn degraded_network_raises_invalid_aggregation_alerts() {
    // A network losing ~35% of calls exceeds the 20% failure threshold
    // on most cycles: the controllers must alert, not act.
    let mut dc = small_dc().rpc_profile(LinkProfile::lossy(0.2, 0.2)).build();
    dc.run_for(SimDuration::from_mins(3));
    let invalids = dc
        .telemetry()
        .controller_events()
        .iter()
        .filter(|e| matches!(e.kind, ControllerEventKind::LeafInvalid { .. }))
        .count();
    assert!(
        invalids > 0,
        "no invalid-aggregation events under a broken network"
    );
    let alerts = dc.system().alerts();
    assert!(!alerts.is_empty(), "no operator alerts raised");
    assert!(alerts.iter().all(|a| a.at <= dc.now()));
}

#[test]
fn controller_events_carry_device_and_time() {
    let mut dc = DatacenterBuilder::new()
        .sbs_per_msb(1)
        .rpps_per_sb(1)
        .racks_per_rpp(2)
        .servers_per_rack(20)
        .rpp_rating(Power::from_kilowatts(11.0))
        .uniform_service(ServiceKind::Web)
        .traffic(ServiceKind::Web, TrafficPattern::flat(1.7))
        .seed(62)
        .build();
    dc.run_for(SimDuration::from_mins(2));
    let rpp = dc.topology().devices_at(DeviceLevel::Rpp)[0];
    let events = dc.telemetry().controller_events();
    assert!(!events.is_empty());
    for e in events {
        assert_eq!(e.device, rpp, "event attributed to the wrong device");
        assert!(e.at >= SimTime::ZERO && e.at <= dc.now());
        assert!(
            e.controller.contains("rpp"),
            "controller name {:?}",
            e.controller
        );
    }
}
