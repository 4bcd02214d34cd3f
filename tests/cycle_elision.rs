//! Quiescent-cycle elision at the datacenter level.
//!
//! On lossless agent links, with demand held between redraws, a leaf
//! whose controller last saw a clean Hold and whose fleet markers are
//! unchanged would recompute byte-identical state — the control plane
//! elides that cycle outright. These tests pin the three properties
//! that make the elision safe to ship:
//!
//! 1. It actually engages (vacuity guard on the elided-cycle counter).
//! 2. It changes nothing observable, at any worker-thread count.
//! 3. Every invalidation source — demand redraw, out-of-band kill,
//!    cap-state change — forces the next cycle to really run, so the
//!    control plane never acts on stale aggregates.

use dcsim::SimTime;
use dynamo_repro::dynamo::{Datacenter, DatacenterBuilder, ObsConfig};
use dynamo_repro::dynrpc::LinkProfile;
use dynamo_repro::workloads::{ServiceKind, TrafficPattern};

/// The steady-state configuration from the bench matrix, scaled down:
/// an under-budget fleet (no active caps) on lossless links, demand
/// redraws held for 30 ticks.
fn build_steady(threads: usize) -> Datacenter {
    DatacenterBuilder::new()
        .sbs_per_msb(2)
        .rpps_per_sb(4)
        .racks_per_rpp(2)
        .servers_per_rack(20)
        .uniform_service(ServiceKind::Web)
        .traffic(ServiceKind::Web, TrafficPattern::flat(0.7))
        .rpc_profile(LinkProfile::reliable())
        .observability(ObsConfig::on())
        .worker_threads(threads)
        .demand_hold(30)
        .seed(97)
        .build()
}

fn metric(dc: &Datacenter, name: &str) -> u64 {
    dc.system()
        .observability()
        .prometheus_text()
        .lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<f64>().ok())
        .map(|v| v as u64)
        .unwrap_or(0)
}

#[test]
fn elision_engages_and_changes_nothing_across_threads() {
    let run = |threads: usize| {
        let mut dc = build_steady(threads);
        dc.run_until(SimTime::from_mins(5));
        let leaves: Vec<_> = dc.system().leaf_devices().to_vec();
        let aggregates: Vec<_> = leaves
            .iter()
            .map(|&d| (d.to_string(), dc.system().leaf_aggregate(d)))
            .collect();
        (
            metric(&dc, "dynamo_leaf_cycles_elided_total"),
            metric(&dc, "dynamo_leaf_cycles_total"),
            aggregates,
            dc.telemetry().controller_events().to_vec(),
            dc.system().observability().prometheus_text(),
        )
    };

    let serial = run(1);
    // Vacuity guard: a steady fleet on lossless links must elide the
    // bulk of its due cycles, and still run real ones around each
    // 30-tick demand redraw.
    assert!(
        serial.0 > serial.1,
        "elision never dominated: {} elided vs {} run",
        serial.0,
        serial.1
    );
    assert!(serial.1 > 0, "no real cycles at all — schedule broken");
    // Every due cycle is counted exactly once, as run (in the leaf's
    // shard) or as elided (straight into the registry): 8 leaves on a
    // lockstep 3 s cycle for 5 minutes.
    assert_eq!(
        serial.0 + serial.1,
        8 * (5 * 60 / 3),
        "a due cycle went uncounted"
    );

    for threads in [2usize, 4, 8] {
        let parallel = run(threads);
        assert_eq!(serial.0, parallel.0, "elided count diverged at {threads}");
        assert_eq!(serial.2, parallel.2, "aggregates diverged at {threads}");
        assert_eq!(serial.3, parallel.3, "events diverged at {threads}");
        assert_eq!(serial.4, parallel.4, "metrics diverged at {threads}");
    }
}

#[test]
fn elided_leaf_reruns_after_out_of_band_kill() {
    let mut dc = build_steady(1);
    dc.run_until(SimTime::from_mins(5));

    // The fleet is deep in the steady state: pick a leaf and confirm
    // its aggregate tracks a mid-window kill instead of being served
    // from the elided controller's stale view.
    let leaf = dc.system().leaf_devices()[1];
    let before = dc
        .system()
        .leaf_aggregate(leaf)
        .expect("leaf has an aggregate after warmup");
    let victims = dc.topology().servers_under(leaf);
    for sid in victims {
        dc.fleet_mut().set_server_alive(sid, false);
    }
    // Two full 3-tick cycle periods: the kill bumps the leaf's agent
    // epoch, so the next due cycle must really run and re-aggregate.
    for _ in 0..6 {
        dc.step();
    }
    let after = dc
        .system()
        .leaf_aggregate(leaf)
        .expect("aggregate still published");
    assert!(
        after < before * 0.2,
        "controller still reports {after} for a blacked-out leaf (was {before}) — \
         the kill did not invalidate elision"
    );
}

#[test]
fn elision_pauses_while_demand_resettles() {
    let mut dc = build_steady(1);
    dc.run_until(SimTime::from_mins(5));

    // Across one full hold window every leaf redraws once, so real
    // cycles must keep happening even in the deepest steady state —
    // elision may only skip the provably-identical recomputations in
    // between.
    let ran_before = metric(&dc, "dynamo_leaf_cycles_total");
    for _ in 0..30 {
        dc.step();
    }
    let ran_after = metric(&dc, "dynamo_leaf_cycles_total");
    let leaves = dc.system().leaf_devices().len() as u64;
    assert!(
        ran_after - ran_before >= leaves,
        "only {} real cycles over a full hold window for {leaves} leaves — \
         redraws are not re-entering the active set",
        ran_after - ran_before
    );
}

#[test]
fn lossy_links_never_elide() {
    // The datacenter default profile drops and times out; a lost
    // reply means the controller's view can diverge from the fleet,
    // so elision is gated on provably lossless links.
    let mut dc = DatacenterBuilder::new()
        .sbs_per_msb(2)
        .rpps_per_sb(4)
        .racks_per_rpp(2)
        .servers_per_rack(20)
        .uniform_service(ServiceKind::Web)
        .traffic(ServiceKind::Web, TrafficPattern::flat(0.7))
        .observability(ObsConfig::on())
        .worker_threads(1)
        .demand_hold(30)
        .seed(97)
        .build();
    dc.run_until(SimTime::from_mins(5));
    assert_eq!(
        metric(&dc, "dynamo_leaf_cycles_elided_total"),
        0,
        "elision engaged on a lossy link profile"
    );
}

#[test]
fn resume_elides_exactly_like_the_unbroken_run() {
    // Snapshot deep in the steady state — most leaves settled, most
    // controller cycles eliding — and resume into a freshly built
    // datacenter. The restored run must elide *exactly* the cycles the
    // unbroken run elides: a fleet rebuild that reset the active-set
    // flags without restoring the controllers' seen-markers (or vice
    // versa) would either recompute cycles the unbroken run skipped or,
    // worse, skip cycles it ran.
    use dcsim::snap::Snapshot;
    use dynamo_repro::dynamo::DatacenterState;

    let observe = |dc: &Datacenter| {
        (
            metric(dc, "dynamo_leaf_cycles_elided_total"),
            metric(dc, "dynamo_leaf_cycles_total"),
            dc.system().observability().prometheus_text(),
        )
    };

    let mut unbroken = build_steady(2);
    unbroken.run_until(SimTime::from_mins(8));
    let expected = observe(&unbroken);
    assert!(expected.0 > expected.1, "vacuity: elision never dominated");

    let mut first = build_steady(2);
    first.run_until(SimTime::from_mins(5));
    let settled_at_snapshot = first.fleet().settled_leaf_count();
    assert!(
        settled_at_snapshot > 0,
        "vacuity: no leaf settled at the snapshot point"
    );
    let bytes = first.state().to_snap_bytes();
    drop(first);

    let state = DatacenterState::from_snap_bytes(&bytes).unwrap();
    let mut resumed = build_steady(2);
    resumed.restore(&state).unwrap();
    assert_eq!(
        resumed.fleet().settled_leaf_count(),
        settled_at_snapshot,
        "restore must bring back the settled set exactly"
    );
    resumed.run_until(SimTime::from_mins(8));
    let got = observe(&resumed);
    assert_eq!(
        expected.0, got.0,
        "elided-cycle count diverged after resume"
    );
    assert_eq!(expected.1, got.1, "run-cycle count diverged after resume");
    assert_eq!(expected.2, got.2, "metrics diverged after resume");
}

#[test]
fn maintained_stats_match_live_scans_under_caps_and_crashes() {
    // Oversubscribed fleet with agent crashes: caps are programmed and
    // cleared continuously and the watchdog restarts agents, so the
    // maintained O(1) capped/down tallies cross every mutation site.
    let mut dc = DatacenterBuilder::new()
        .sbs_per_msb(2)
        .rpps_per_sb(4)
        .racks_per_rpp(2)
        .servers_per_rack(20)
        .rpp_rating(dynamo_repro::powerinfra::Power::from_kilowatts(7.4))
        .uniform_service(ServiceKind::Web)
        .traffic(ServiceKind::Web, TrafficPattern::flat(1.2))
        .agent_crash_rate(0.5)
        .worker_threads(1)
        .demand_hold(30)
        .seed(23)
        .build();
    for minutes in [2u64, 4, 6] {
        dc.run_until(SimTime::from_mins(minutes));
        let stats = dc.fleet().stats();
        let fleet = dc.fleet();
        let capped = (0..fleet.len() as u32)
            .filter(|&sid| fleet.cap_of(sid).is_some())
            .count();
        let down = (0..fleet.len() as u32)
            .filter(|&sid| !fleet.agent_running(sid))
            .count();
        assert_eq!(stats.capped_servers, capped, "capped tally drifted");
        assert_eq!(stats.agents_down, down, "down tally drifted");
        assert!(
            stats.capped_servers > 0,
            "vacuity: nothing ever capped in the oversubscribed fleet"
        );
    }
}
