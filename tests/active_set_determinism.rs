//! Active-set physics at the datacenter level: with `demand_hold(30)`
//! settled leaves skip their settle pass and each rack keeps its draw
//! while its leaf's power epoch stands still, so a mutation that
//! bypasses the step must still reach every read, and the held run must
//! equal the reference oracle at every width (`scenario/mod.rs`).

mod common;
mod oracle;
mod scenario;

use common::mixed;
use dcsim::SimTime;
use dynamo_repro::dynamo::Datacenter;
use dynamo_repro::dynrpc::LinkProfile;
use dynamo_repro::powerinfra::DeviceLevel;
use scenario::{check, stressed_case, stressed_guards, widths};

/// Hold 30 lets settled leaves skip physics and racks keep their draws,
/// under crashes, lossy links, two failovers and an out-of-band kill
/// and revive of leaf 1's first server.
#[test]
fn active_set_control_plane_is_bit_identical_across_threads() {
    let base = check(&stressed_case(Some(30)), &widths(None, &[1, 2, 8, 64]));
    stressed_guards(&base);
    assert!(base.max_settled > 0, "no leaf ever settled");
}

/// An explicit hold of 1 is the default builder's model: every leaf
/// redraws every tick.
#[test]
fn hold_of_one_matches_the_default_builder() {
    let one = check(&stressed_case(Some(1)), &[]);
    let mut default = stressed_case(Some(1));
    default.spec.hold = None;
    let default = check(&default, &[]);
    assert!(one.texts == default.texts, "hold 1 differs");
}

#[test]
fn draw_cache_tracks_out_of_band_kills() {
    // What the tick serves — the draw the breaker pass steps against is
    // the draw a telemetry sample records — must follow a mutation that
    // bypasses `step`, and `set_server_alive` is exactly that. Racks
    // are the devices with something to go stale: their draw is kept
    // while their leaf's power epoch stands still.
    // The stressed fleet, with the demand hold that turns the active
    // set on.
    let mut spec = mixed([Some(7.4), None, None], 0.5, 41);
    (spec.rpc, spec.hold) = (Some(LinkProfile::lossy(0.05, 0.05)), Some(30));
    spec.watch = Some(vec![DeviceLevel::Rack, DeviceLevel::Rpp]);
    let mut dc = spec.builder(1).build();
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
    for sid in victims.clone() {
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
    for sid in victims {
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
