//! Quiescent-cycle elision at the datacenter level.
//!
//! On lossless agent links, with demand held between redraws, a leaf
//! whose controller last saw a clean Hold and whose servers are
//! unchanged would recompute byte-identical state — the control plane
//! elides that cycle outright. It must engage and change nothing the
//! reference oracle can see, at any width and across a checkpoint
//! (`scenario/mod.rs`). The other tests pin its mechanics: every invalidation source — demand redraw, out-of-band
//! kill, a lossy link — forces the next cycle to really run, and the
//! maintained tallies it reads match live scans.

mod common;
mod oracle;
mod scenario;

use common::{flat, metric, web, Spec};
use dcsim::SimTime;
use dynamo_repro::dynamo::{Datacenter, ObsConfig};
use dynamo_repro::dynrpc::LinkProfile;
use dynamo_repro::workloads::TrafficPattern;
use scenario::{case, check, widths, Run, Scenario};

/// The steady-state configuration from the bench matrix, scaled down:
/// an under-budget fleet (no active caps) on `rpc` links, demand
/// redraws held for 30 ticks.
fn steady(rpc: Option<LinkProfile>) -> Spec {
    let mut spec = Spec::new([2, 4, 2, 20], 97);
    (spec.traffic, spec.rpc) = (web(TrafficPattern::flat(0.7)), rpc);
    (spec.obs, spec.hold) = (ObsConfig::on(), Some(30));
    spec
}

fn build_steady(rpc: Option<LinkProfile>) -> Datacenter {
    steady(rpc).builder(1).build()
}

/// The steady state on lossless links over `secs`, agents crashing now
/// and then.
fn crashing_steady(secs: u64) -> Scenario {
    let mut spec = steady(Some(LinkProfile::reliable()));
    spec.crash_rate = 0.5;
    case(spec, secs, [])
}

fn counter(dc: &Datacenter, name: &str) -> u64 {
    metric(&dc.system().observability().prometheus_text(), name)
}

/// Elided and run cycles by the run's metrics.
fn cycle_counts(run: &Run) -> (u64, u64) {
    let elided = metric(&run.texts.1, "dynamo_leaf_cycles_elided_total");
    (elided, metric(&run.texts.1, "dynamo_leaf_cycles_total"))
}

/// With agents crashing now and then, most due cycles are elided, at
/// every width.
#[test]
fn elision_engages_and_changes_nothing_across_threads() {
    let base = check(&crashing_steady(300), &widths(None, &[1, 2, 4, 8]));
    let (elided, ran) = cycle_counts(&base);
    assert!(elided > ran && ran > 0, "{elided} elided, {ran} ran");
    // Every due cycle counted once: 8 leaves every 3 s for 5 minutes.
    assert_eq!(elided + ran, 8 * 100, "a due cycle went uncounted");
}

/// A checkpoint deep in the steady state, at 5 minutes, resumes eliding
/// the same cycles through 8 minutes.
#[test]
fn resume_elides_exactly_like_the_unbroken_run() {
    let mut sc = crashing_steady(480);
    sc.at_resume = |dc| dc.fleet().settled_leaf_count() > 0;
    let (elided, ran) = cycle_counts(&check(&sc, &widths(Some(300), &[2])));
    assert!(elided > ran, "{elided} elided, {ran} ran");
}

#[test]
fn elided_leaf_reruns_after_out_of_band_kill() {
    let mut dc = build_steady(Some(LinkProfile::reliable()));
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
    let mut dc = build_steady(Some(LinkProfile::reliable()));
    dc.run_until(SimTime::from_mins(5));

    // Across one full hold window every leaf redraws once, so real
    // cycles must keep happening even in the deepest steady state —
    // elision may only skip the provably-identical recomputations in
    // between.
    let ran_before = counter(&dc, "dynamo_leaf_cycles_total");
    for _ in 0..30 {
        dc.step();
    }
    let ran_after = counter(&dc, "dynamo_leaf_cycles_total");
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
    let mut dc = build_steady(None);
    dc.run_until(SimTime::from_mins(5));
    assert_eq!(
        counter(&dc, "dynamo_leaf_cycles_elided_total"),
        0,
        "elision engaged on a lossy link profile"
    );
}

#[test]
fn maintained_stats_match_live_scans_under_caps_and_crashes() {
    // Oversubscribed fleet with agent crashes: caps are programmed and
    // cleared continuously and the watchdog restarts agents, so the
    // maintained O(1) capped/down tallies cross every mutation site.
    let mut spec = flat([2, 4, 2, 20], 7.4, TrafficPattern::flat(1.2), 23);
    (spec.crash_rate, spec.hold) = (0.5, Some(30));
    let mut dc = spec.builder(1).build();
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
