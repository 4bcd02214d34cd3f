//! The one statement a scenario is held to, under a list of schedules:
//! at every schedule the run equals the reference oracle
//! (`oracle/mod.rs`) bit for bit — controller events, each leaf's
//! aggregate and cycle count, breaker transitions, watched device
//! traces, the capped and total series and every server's final watts —
//! and its run report and Prometheus text equal its straight width-1
//! run's. A schedule is a worker width and, optionally, a tick at which
//! the run is snapshotted through the full encoding, restored into a
//! freshly built datacenter and carried on. Each case's own assertions
//! are vacuity guards: the run must exercise what the statement is
//! about, or equality proves nothing.
//!
//! `schedules.rs` is the table of cases; a few cases live beside the
//! mechanics they exercise (`parallel_determinism.rs`,
//! `active_set_determinism.rs`, `cycle_elision.rs`,
//! `checkpoint_parity.rs`). A test file uses what it needs of it.

#![allow(dead_code)]

use std::ops::Range;

use crate::common::{mixed, Spec};
use crate::oracle::{Act, Dev, Observed, On, Oracle, Site};
use dcsim::snap::Snapshot;
use dcsim::SimDuration;
use dynamo_repro::dynamo::{Datacenter, DatacenterState, RunReport};
use dynamo_repro::dynrpc::LinkProfile;
use dynamo_repro::powerinfra::{DeviceLevel, Power};

pub const fn leaf(i: usize) -> Dev {
    (DeviceLevel::Rpp, i)
}

pub const fn fail(d: Dev) -> Act {
    Act::At(d, On::Fail)
}

pub struct Scenario {
    pub spec: Spec,
    pub secs: u64,
    /// Acts by tick.
    pub script: Vec<(u64, Act)>,
    /// What must hold at a checkpoint, in the run that takes it and in
    /// the run restored from it.
    pub at_resume: fn(&Datacenter) -> bool,
}

pub fn case(spec: Spec, secs: u64, script: impl IntoIterator<Item = (u64, Act)>) -> Scenario {
    let script = script.into_iter().collect();
    Scenario {
        spec,
        secs,
        script,
        at_resume: |_| true,
    }
}

/// A worker width and the tick a checkpoint is taken and resumed at.
pub type Schedule = (usize, Option<u64>);

pub fn widths(resume_at: Option<u64>, ws: &[usize]) -> Vec<Schedule> {
    ws.iter().map(|&w| (w, resume_at)).collect()
}

/// A finished run of the datacenter under test.
pub struct Run {
    pub dc: Datacenter,
    pub seen: Observed,
    pub report: RunReport,
    /// The report's text and the Prometheus exposition.
    pub texts: (String, String),
    /// The most leaves the fleet held settled after any tick.
    pub max_settled: usize,
}

/// Steps `site` over `ticks`, each tick's acts first, calling `after`
/// after each step.
fn drive<S: Site>(
    site: &mut S,
    sc: &Scenario,
    ticks: Range<u64>,
    noted: &mut Vec<Power>,
    mut after: impl FnMut(&S),
) {
    for t in ticks {
        for (_, act) in sc.script.iter().filter(|&&(at, _)| at == t) {
            site.act(act, noted);
        }
        site.step();
        after(site);
    }
}

/// Snapshots `dc` and restores it into a freshly built twin.
fn resume(sc: &Scenario, mut dc: Datacenter, width: usize) -> Datacenter {
    assert!((sc.at_resume)(&dc), "the checkpoint misses its point");
    let bytes = dc.state().to_snap_bytes();
    let state = DatacenterState::from_snap_bytes(&bytes).expect("a snapshot decodes");
    let mut fresh = sc.spec.builder(width).build();
    fresh.restore(&state).expect("a snapshot restores");
    assert_eq!(fresh.now(), dc.now());
    let settled = |dc: &Datacenter| dc.fleet().settled_leaf_count();
    assert_eq!(settled(&fresh), settled(&dc), "the settled set restores");
    assert!((sc.at_resume)(&fresh), "the restore loses the point");
    fresh
}

fn run(sc: &Scenario, (width, resume_at): Schedule) -> Run {
    let mut dc = sc.spec.builder(width).build();
    let (mut noted, mut max_settled) = (Vec::new(), 0);
    let mut after = |dc: &Datacenter| {
        max_settled = max_settled.max(dc.fleet().settled_leaf_count());
    };
    let split = resume_at.unwrap_or(sc.secs);
    drive(&mut dc, sc, 0..split, &mut noted, &mut after);
    if split < sc.secs {
        dc = resume(sc, dc, width);
        drive(&mut dc, sc, split..sc.secs, &mut noted, &mut after);
    }
    let report = RunReport::from_datacenter(&dc);
    let texts = (
        report.to_string(),
        dc.system().observability().prometheus_text(),
    );
    let seen = Observed::of(&dc);
    Run {
        dc,
        seen,
        report,
        texts,
        max_settled,
    }
}

/// Holds `got` to `want` by their pretty `Debug` texts, naming the first
/// line that differs and the field it is in.
fn same(what: &str, got: &Observed, want: &Observed) {
    let (got, want) = (format!("{got:#?}"), format!("{want:#?}"));
    let mut field = "";
    for (i, (a, b)) in got.lines().zip(want.lines()).enumerate() {
        if a.starts_with("    ") && !a.starts_with("     ") {
            field = a;
        }
        assert!(a == b, "{what}: line {i}, in {field}: {a} against {b}");
    }
    assert_eq!(got.lines().count(), want.lines().count(), "{what}: length");
}

/// The statement: `sc` run straight at width 1 against the oracle, then
/// under each of `schedules`. The oracle has no grid layer: a case with
/// one is judged by its straight width-1 run. Returns the straight run
/// for the case's guards.
pub fn check(sc: &Scenario, schedules: &[Schedule]) -> Run {
    let base = run(sc, (1, None));
    let oracle = sc.spec.grid.is_none().then(|| {
        let mut oracle = Oracle::new(&sc.spec, &sc.spec.builder(1).build());
        drive(&mut oracle, sc, 0..sc.secs, &mut Vec::new(), |_| {});
        let seen = oracle.observed();
        same("the straight width-1 run", &base.seen, &seen);
        seen
    });
    let want = oracle.as_ref().unwrap_or(&base.seen);
    for &s in schedules.iter().filter(|&&s| s != (1, None)) {
        let got = run(sc, s);
        same(&format!("{s:?}"), &got.seen, want);
        assert!(got.texts == base.texts, "{s:?}: report or metrics differ");
        assert_eq!(got.max_settled, base.max_settled, "{s:?}: settled leaves");
    }
    base
}

/// A tight RPP rating keeps the three-band controller moving between
/// Cap and Uncap, agents crash, links drop and time out, and two
/// failovers are injected. With a demand hold, leaf 1's first server is
/// also killed out of band and revived, each audited at once.
pub fn stressed_case(hold: Option<u32>) -> Scenario {
    let mut spec = mixed([Some(7.4), None, None], 0.5, 41);
    (spec.rpc, spec.hold) = (Some(LinkProfile::lossy(0.05, 0.05)), hold);
    let mut sc = case(spec, 300, [(120, fail(leaf(0))), (180, fail(leaf(2)))]);
    if hold.is_some() {
        let (kill, revive) = (Act::Kill(32..33), Act::Revive(32..33));
        sc.script.extend([(120, kill), (180, revive)]);
        sc.script.extend([120, 180].map(|t| (t, Act::Audit)));
    }
    sc
}

pub fn stressed_guards(run: &Run) {
    let report = &run.report;
    assert!(report.leaf_cap_events > 0, "no capping activity:\n{report}");
    assert!(report.failovers >= 2, "failover injection missed");
    let families = "cycles_total rpc_drops_total failovers_total cut_watts_sum";
    for family in families.split(' ') {
        assert!(run.texts.1.contains(family), "metrics miss {family}");
    }
}

/// Leaf failovers at 100 s and 300 s: one on each side of a checkpoint
/// at 250 s or 400 s.
pub const TWO_FAILOVERS: [(u64, Act); 2] = [(100, fail(leaf(1))), (300, fail(leaf(3)))];

/// Every stateful layer crosses a checkpoint at 250 s: clock, RNG
/// streams, fleet physics, both tiers, failover flags, staggered
/// schedules, telemetry, observability, breaker heat and the validator.
pub fn checkpointed_case() -> Scenario {
    let mut spec = mixed([Some(18.0), None, None], 0.5, 41);
    spec.spread = SimDuration::from_secs(2);
    case(spec, 500, TWO_FAILOVERS)
}
