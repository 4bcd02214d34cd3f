//! Contractual-limit churn (§III-D): limits applied, cleared and
//! re-applied mid-run — the exact traffic the grid layer's economic
//! controller generates — must leave the simulation bit-identical at
//! any thread count, and no device may draw a stale subtree sum across
//! the capping transitions the churn causes.

use dcsim::SimDuration;
use dynamo_repro::dynamo::{Datacenter, DatacenterBuilder, ObsConfig, RunReport, ServicePlan};
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
            (ServiceKind::Web, 0.6),
            (ServiceKind::Cache, 0.4),
        ]))
        .traffic(ServiceKind::Web, TrafficPattern::diurnal())
        .observability(ObsConfig {
            enabled: true,
            ..ObsConfig::default()
        })
        .worker_threads(threads)
        .seed(53)
        .build()
}

/// Drives 600 s of churn on both tiers: contracts sized off the
/// *measured* draw at t=60 (bit-identical at every thread count, so
/// every run pushes the same limits), applied at t=120, cleared at
/// t=240, re-applied tighter at t=360. At each boundary and every
/// 50 ticks every device's draw is audited against a fresh fold.
fn run_churned(threads: usize) -> (String, String) {
    let mut dc = build(threads);
    let leaf = dc.system().leaf_devices()[0];
    let upper = *dc
        .system()
        .upper_devices()
        .last()
        .expect("upper tier present");
    let mut leaf_limit = Power::ZERO;
    let mut upper_limit = Power::ZERO;
    for t in 0..600u64 {
        match t {
            60 => {
                leaf_limit = dc.device_power(leaf) * 0.85;
                upper_limit = dc.device_power(upper) * 0.9;
            }
            120 => {
                dc.system_mut().set_leaf_contract(leaf, Some(leaf_limit));
                dc.system_mut().set_upper_contract(upper, Some(upper_limit));
            }
            240 => {
                dc.system_mut().set_leaf_contract(leaf, None);
                dc.system_mut().set_upper_contract(upper, None);
            }
            360 => {
                dc.system_mut()
                    .set_leaf_contract(leaf, Some(leaf_limit * 0.95));
                dc.system_mut()
                    .set_upper_contract(upper, Some(upper_limit * 0.95));
            }
            _ => {}
        }
        dc.step();
        if t % 50 == 0 || t == 120 || t == 240 || t == 360 {
            assert!(
                dc.draw_cache_is_exact(),
                "a device drew a stale sum at t={t} ({threads} threads)"
            );
        }
    }
    (
        RunReport::from_datacenter(&dc).to_string(),
        dc.system().observability().prometheus_text(),
    )
}

#[test]
fn contract_churn_caps_and_releases() {
    let mut dc = build(1);
    let leaf = dc.system().leaf_devices()[0];
    dc.run_for(SimDuration::from_secs(60));
    let limit = dc.device_power(leaf) * 0.85;
    dc.system_mut().set_leaf_contract(leaf, Some(limit));
    dc.run_for(SimDuration::from_secs(120));
    let mid = RunReport::from_datacenter(&dc);
    assert!(mid.leaf_cap_events > 0, "contract never capped: {mid}");
    dc.system_mut().set_leaf_contract(leaf, None);
    dc.run_for(SimDuration::from_secs(120));
    let report = RunReport::from_datacenter(&dc);
    assert!(
        report.leaf_uncap_events > 0,
        "clearing the contract never uncapped: {report}"
    );
    assert_eq!(report.breaker_trips, 0, "{report}");
}

#[test]
fn contract_churn_is_bit_identical_across_threads() {
    let baseline = run_churned(1);
    assert!(
        baseline.0.contains("capping:"),
        "report should summarize the churn:\n{}",
        baseline.0
    );
    for threads in [2, 8, 64] {
        let other = run_churned(threads);
        assert_eq!(
            baseline.0, other.0,
            "report diverged under churn at {threads} threads"
        );
        assert_eq!(
            baseline.1, other.1,
            "metrics diverged under churn at {threads} threads"
        );
    }
}

/// An over-subscribed, monitor-only fleet on a weak RPP: with capping
/// off the first leaf's breaker genuinely trips. The run then layers
/// every remaining cache-churn source on top: out-of-band server
/// kills and revivals, a breaker reset that powers the subtree back
/// on, and a mid-run re-registration of the same leaf spans (which
/// restarts leaf epochs and must disable the epoch-keyed cache rather
/// than risk watermark collisions).
fn build_faulty(threads: usize) -> Datacenter {
    DatacenterBuilder::new()
        .sbs_per_msb(2)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .servers_per_rack(16)
        // ~10 kW of draw on a 7 kW rating is a ~140% overload — the
        // inverse-time curve trips that in tens of seconds, where the
        // paper's ~110% point would outlast the whole 240 s run.
        .rpp_rating(Power::from_kilowatts(7.0))
        .uniform_service(ServiceKind::Web)
        .traffic(ServiceKind::Web, TrafficPattern::flat(1.6))
        .capping_enabled(false)
        .observability(ObsConfig {
            enabled: true,
            ..ObsConfig::default()
        })
        .worker_threads(threads)
        .seed(77)
        .build()
}

/// 240 s of trip/kill/revive/re-span churn with every device's draw
/// audited against a fresh fold at every boundary. Returns (report, metrics,
/// breaker trips) so callers can both byte-compare runs and assert the
/// trip actually happened.
fn run_fault_churned(threads: usize) -> (String, String, usize) {
    let mut dc = build_faulty(threads);
    let tripped = dc.system().leaf_devices()[0];
    let span_len = dc.fleet().len() / dc.system().leaf_devices().len();
    let spans: Vec<std::ops::Range<usize>> = (0..dc.system().leaf_devices().len())
        .map(|i| i * span_len..(i + 1) * span_len)
        .collect();
    for t in 0..240u64 {
        match t {
            // Kill a handful of servers in the *last* leaf out of band
            // (the first leaf is busy tripping its own breaker), then
            // revive them: epoch bumps in both directions.
            40 => {
                for s in 0..6u32 {
                    let sid = (dc.fleet().len() - 1) as u32 - s;
                    dc.fleet_mut().set_server_alive(sid, false);
                }
            }
            80 => {
                for s in 0..6u32 {
                    let sid = (dc.fleet().len() - 1) as u32 - s;
                    dc.fleet_mut().set_server_alive(sid, true);
                }
            }
            // Operator resets the tripped breaker: the whole subtree
            // powers back on at once (and promptly trips again under
            // the same load).
            120 => dc.reset_breaker(tripped),
            // Re-register the same spans: leaf epochs restart at zero,
            // so the generation bump must invalidate every rack memo.
            160 => dc.fleet_mut().set_leaf_spans(&spans),
            _ => {}
        }
        dc.step();
        if t % 20 == 0 || matches!(t, 40 | 80 | 120 | 160) {
            assert!(
                dc.draw_cache_is_exact(),
                "a device drew a stale sum at t={t} ({threads} threads)"
            );
        }
    }
    let trips = dc.telemetry().breaker_trips().len();
    (
        RunReport::from_datacenter(&dc).to_string(),
        dc.system().observability().prometheus_text(),
        trips,
    )
}

#[test]
fn fault_churn_is_bit_identical_across_threads_and_modes() {
    let baseline = run_fault_churned(1);
    assert!(
        baseline.2 > 0,
        "fault-churn scenario never tripped a breaker:\n{}",
        baseline.0
    );
    for threads in [2, 8, 64] {
        let other = run_fault_churned(threads);
        assert_eq!(
            baseline.0, other.0,
            "report diverged under fault churn at {threads} pooled threads"
        );
        assert_eq!(
            baseline.1, other.1,
            "metrics diverged under fault churn at {threads} pooled threads"
        );
    }
}
