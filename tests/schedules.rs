//! The table of named scenarios, each run under a list of schedules and
//! held to the one statement of `scenario/mod.rs`: at every schedule the
//! run equals the reference oracle bit for bit, and its report and
//! Prometheus text equal its straight width-1 run's. The stressed,
//! held, steady-elision and checkpointed cases live beside the
//! mechanics they exercise, in `parallel_determinism.rs`,
//! `active_set_determinism.rs`, `cycle_elision.rs` and
//! `checkpoint_parity.rs`.

mod common;
mod oracle;
mod scenario;

use common::{flat, mixed, Spec};
use dcsim::{SimDuration, SimTime};
use dynamo_repro::dynamo::{ControllerEventKind, ObsConfig, ServicePlan};
use dynamo_repro::powerinfra::DeviceLevel;
use dynamo_repro::workloads::{ServiceKind, TrafficEvent, TrafficPattern};
use oracle::{Act, On};
use scenario::{case, check, fail, leaf, widths, TWO_FAILOVERS};

#[test]
fn dry_run() {
    let mut spec = flat([1, 2, 2, 16], 9.5, TrafficPattern::flat(1.4), 13);
    spec.dry_run = true;
    let base = check(&case(spec, 180, []), &widths(None, &[1, 8]));
    let caps = base.report.leaf_cap_events;
    assert!(caps > 0, "the dry run decided nothing");
    assert_eq!(base.dc.fleet().stats().capped_servers, 0, "it actuated");
}

/// `repro --quick fig5`'s datacenter: capping off, every level watched,
/// services racked in rows. Figure 5 is computed from these traces.
#[test]
fn fig5_monitoring() {
    use ServiceKind::*;
    let rows = [(Web, 36), (Cache, 18), (Hadoop, 24)];
    let rows = [
        &rows[..],
        &[(Database, 12), (NewsFeed, 18), (F4Storage, 12)],
    ];
    let day = TrafficPattern::diurnal();
    let evening = TrafficPattern::diurnal_with(0.7, 20.0);
    let mut spec = Spec::new([2, 2, 4, 15], 5);
    spec.plan = Some(ServicePlan::RowComposition(rows.concat()));
    spec.traffic = vec![(Web, day.clone()), (NewsFeed, day)];
    spec.traffic
        .extend([(Cache, evening.clone()), (Database, evening)]);
    (spec.monitor_only, spec.watch) = (true, Some(DeviceLevel::all().to_vec()));
    let base = check(&case(spec, 40 * 60, []), &widths(None, &[1, 2, 3, 8]));
    let traces = &base.seen.traces;
    assert_eq!(traces.len(), 1 + 2 + 4 + 16, "every device of every level");
    assert!(traces.iter().all(|(_, t)| t.len() == 800), "3 s samples");
}

/// `repro --quick fig14`'s datacenter: a turbo Hadoop cluster under an
/// SB its job wave overruns, so caps open and release on traffic.
#[test]
fn fig14_capping() {
    let wave = TrafficEvent::new(SimTime::from_mins(20), SimTime::from_mins(50), 1.5);
    let wave = TrafficPattern::flat(0.85).with_event(wave.with_ramp(SimDuration::from_mins(5)));
    let hadoop = ServiceKind::Hadoop;
    let mut spec = Spec::new([1, 2, 4, 30], 14);
    (spec.kw, spec.traffic) = ([Some(48.0), Some(80.0), None], vec![(hadoop, wave)]);
    (spec.plan, spec.turbo) = (Some(ServicePlan::Uniform(hadoop)), Some(hadoop));
    let report = check(&case(spec, 80 * 60, []), &widths(None, &[1, 2, 3, 8])).report;
    let caps = report.leaf_cap_events + report.upper_cap_events;
    assert!(caps > 0 && report.leaf_uncap_events > 0, "{report}");
    assert_eq!(report.breaker_trips, 0);
}

/// Contractual limits (§III-D) on a leaf and on the MSB, sized off their
/// draws at 60 s, applied at 120 s, cleared at 240 s and re-applied
/// tighter at 360 s — the traffic the grid layer's economic controller
/// makes — with every device's draw audited along the way.
#[test]
fn contract_churn() {
    let mut spec = mixed([Some(18.0), None, None], 0.0, 53);
    let plan = ServicePlan::Mix(vec![(ServiceKind::Web, 0.6), (ServiceKind::Cache, 0.4)]);
    spec.plan = Some(plan);
    let msb = (DeviceLevel::Msb, 0);
    let set = |t, tighter: Option<f64>| {
        let limit = |n, factor: f64| tighter.map(|k| (n, factor * k));
        let (at_leaf, at_msb) = (On::Contract(limit(0, 0.85)), On::Contract(limit(1, 0.9)));
        [(t, Act::At(leaf(0), at_leaf)), (t, Act::At(msb, at_msb))]
    };
    let measure = [leaf(0), msb].map(|d| (60, Act::At(d, On::Measure)));
    let mut sc = case(spec, 600, measure);
    let churn = [set(120, Some(1.0)), set(240, None), set(360, Some(0.95))];
    sc.script.extend(churn.into_iter().flatten());
    let after_steps = (0..600).step_by(50).chain([120, 240, 360]);
    sc.script.extend(after_steps.map(|t| (t + 1, Act::Audit)));
    let base = check(&sc, &widths(None, &[1, 2, 8, 64]));
    assert!(base.texts.0.contains("capping:"), "{}", base.texts.0);
}

/// A monitor-only fleet on a weak RPP trips breakers; the last leaf's
/// last six servers are killed and revived out of band, and a tripped
/// breaker is reset (and trips again under the same load). Each act is
/// audited at once, and every device's draw again after the steps.
#[test]
fn fault_churn() {
    // ~10 kW on a 7 kW rating trips in tens of seconds.
    let mut spec = flat([2, 2, 2, 16], 7.0, TrafficPattern::flat(1.6), 77);
    (spec.monitor_only, spec.obs) = (true, ObsConfig::on());
    let (kill, revive) = (Act::Kill(122..128), Act::Revive(122..128));
    let reset = Act::At(leaf(0), On::Reset);
    let mut sc = case(spec, 240, [(40, kill), (80, revive), (120, reset)]);
    sc.script.extend([40, 80, 120].map(|t| (t, Act::Audit)));
    let after_steps = (0..240).step_by(20).chain([40, 80, 120]);
    sc.script.extend(after_steps.map(|t| (t + 1, Act::Audit)));
    let base = check(&sc, &widths(None, &[1, 2, 8, 64]));
    assert!(base.report.breaker_trips > 0, "nothing tripped");
}

/// The grid layer's curtailment window (300–900 s) binds on a low MSB
/// rating; the checkpoint at 400 s lands inside it, so the open episode,
/// settlement, bank charge and pushed contract cross it.
#[test]
fn grid_curtailment() {
    let mut spec = mixed([Some(18.0), None, Some(36.0)], 0.0, 47);
    spec.grid = Some("curtailment-window");
    let mut sc = case(spec, 700, TWO_FAILOVERS);
    sc.at_resume = |dc| dc.grid().expect("a grid layer").curtailment_active();
    let base = check(&sc, &widths(Some(400), &[1, 2, 8]));
    assert!(base.texts.0.contains("grid [curtailment-window]"));
}

/// Phases staggered over one leaf interval: each tick dispatches only
/// the due subset of leaves.
#[test]
fn staggered() {
    let mut spec = flat([2, 2, 2, 16], 7.4, TrafficPattern::flat(1.4), 41);
    spec.spread = SimDuration::from_secs(3);
    let base = check(&case(spec, 240, []), &widths(None, &[1, 2, 4]));
    assert!(base.report.leaf_cap_events > 0, "no capping activity");
}

/// Two leaf primaries fail on a cycle boundary, an SB's and a third
/// leaf's off one (§III-E).
#[test]
fn failover() {
    let spec = flat([2, 2, 1, 8], 3.7, TrafficPattern::flat(1.3), 23);
    let sb = (DeviceLevel::Sb, 0);
    let fails = [(10, leaf(0)), (10, leaf(3)), (20, sb), (20, leaf(1))];
    let sc = case(spec, 40, fails.map(|(t, d)| (t, fail(d))));
    let base = check(&sc, &widths(None, &[1, 2, 4, 8, 64]));
    assert_eq!(base.dc.system().failovers(), 4, "all four injections land");
    let kinds = base.seen.events.iter().map(|e| &e.kind);
    let takeovers = kinds.filter(|&k| *k == ControllerEventKind::Failover);
    assert_eq!(takeovers.count(), 4);
    // Each victim loses exactly the one cycle its backup took over in.
    let c: Vec<u64> = base.seen.leaves.iter().map(|&(_, c)| c).collect();
    assert_eq!(c, [c[2] - 1, c[2] - 1, c[2], c[2] - 1]);
}

#[test]
fn determinism() {
    let mut spec = mixed([Some(18.0), None, None], 0.5, 23);
    spec.obs = ObsConfig::default();
    check(&case(spec, 300, []), &widths(None, &[1, 4]));
}
