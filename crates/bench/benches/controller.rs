//! Microbenchmarks of the Dynamo decision logic.
//!
//! These answer the deployment question behind §III: how expensive is
//! one control cycle at production fan-outs (a leaf controller pulls "a
//! few hundred servers or more"; consolidated binaries run ~100
//! controller threads)?
//!
//! The final section measures the whole control plane end to end — a
//! ticks/sec matrix over RPP count × worker threads — and records it in
//! `BENCH_controlplane.json` at the workspace root.

use std::hint::black_box;
use std::time::Instant;

use bench::{ROOFLINE_BASELINE_COMMIT, ROOFLINE_BASELINE_FUSED_768, ROOFLINE_GATE_MAX_REGRESSION};
use dcsim::{SimDuration, SimTime};
use dynamo::{Datacenter, DatacenterBuilder, ObsConfig, ParallelMode};
use dynamo_controller::{
    distribute_power_cut, three_band_decision, ChildReport, LeafConfig, LeafController,
    ServerHandle, ServiceClass, ThreeBandConfig, UpperConfig, UpperController,
};
use dynrpc::{LinkProfile, PowerReading, Request, Response};
use experiments::common::staggered_leaf_spread;
use powerinfra::Power;
use workloads::{ServiceKind, TrafficPattern};

fn watts(v: f64) -> Power {
    Power::from_watts(v)
}

fn make_handles(n: usize) -> Vec<ServerHandle> {
    (0..n)
        .map(|i| {
            let (name, prio, sla) = match i % 3 {
                0 => ("web", 1, 210.0),
                1 => ("cache", 3, 260.0),
                _ => ("hadoop", 0, 140.0),
            };
            ServerHandle {
                server_id: i as u32,
                service: ServiceClass::new(name, prio, watts(sla)),
            }
        })
        .collect()
}

fn make_powers(n: usize) -> Vec<Power> {
    (0..n).map(|i| watts(220.0 + (i % 120) as f64)).collect()
}

fn bench_three_band() {
    let bands = ThreeBandConfig::default();
    let limit = Power::from_kilowatts(190.0);
    bench::bench("three_band_decision", || {
        three_band_decision(black_box(Power::from_kilowatts(189.0)), limit, bands, true)
    });
}

fn bench_distribution() {
    for &n in &[100usize, 400, 1000] {
        let handles = make_handles(n);
        let powers = make_powers(n);
        let cut = watts(30.0 * n as f64 / 4.0);
        bench::bench(&format!("distribute_power_cut/{n}"), || {
            distribute_power_cut(black_box(&handles), black_box(&powers), cut, watts(20.0))
        });
    }
}

fn bench_leaf_cycle() {
    for &n in &[100usize, 400, 1000] {
        // Limit sized so each cycle actually computes a capping action —
        // the worst-case path.
        let mean_power = 279.5;
        let limit = watts(mean_power * n as f64 * 0.98);
        let handles = make_handles(n);
        let powers = make_powers(n);
        let mut leaf = LeafController::new("bench", LeafConfig::new(limit), handles);
        let mut t = 0u64;
        bench::bench(&format!("leaf_cycle/{n}"), || {
            t += 3;
            leaf.cycle(SimTime::from_secs(t), |sid, req| match req {
                Request::ReadPower => Ok(Response::Power(PowerReading::total_only(
                    powers[sid as usize],
                ))),
                _ => Ok(Response::CapAck { ok: true }),
            })
        });
    }
}

fn bench_upper_cycle() {
    for &n in &[4usize, 16, 64] {
        let reports: Vec<ChildReport> = (0..n)
            .map(|i| ChildReport {
                power: Power::from_kilowatts(180.0 + (i % 7) as f64 * 5.0),
                quota: Power::from_kilowatts(170.0),
                physical_limit: Power::from_kilowatts(190.0),
            })
            .collect();
        let limit = Power::from_kilowatts(185.0 * n as f64);
        let mut upper = UpperController::new("bench", UpperConfig::new(limit), n);
        let mut t = 0u64;
        bench::bench(&format!("upper_cycle/{n}"), || {
            t += 9;
            upper.cycle(SimTime::from_secs(t), black_box(&reports))
        });
    }
}

/// One point of the control-plane throughput matrix.
struct MatrixPoint {
    rpps: usize,
    servers: usize,
    threads: usize,
    /// Threads actually used after the mode's clamping (PooledAuto
    /// caps at the host's cores).
    effective_threads: usize,
    mode: &'static str,
    phase_spread_ms: u64,
    /// Demand-hold in ticks: 1 = every leaf redraws every tick (the
    /// pre-active-set semantics), >1 = steady-state cells where settled
    /// leaves are skipped between redraws.
    demand_hold: u32,
    /// Which [`Workload`] flavour the cell ran.
    workload: &'static str,
    ticks_per_sec: f64,
    /// Throughput ratio against the same `(rpps, threads, spread)`
    /// cell of the PR 5 run of this bench on the same host class;
    /// `None` where PR 5 had no such cell (steady-state and full-site
    /// rows are new).
    speedup_vs_pr5: Option<f64>,
    /// Throughput ratio against the same
    /// `(workload, rpps, threads, spread, hold)` cell of the
    /// immediately preceding PR's run ([`PR9_BASELINE`]) — the
    /// marginal win of *this* PR, where `speedup_vs_pr5` is the
    /// cumulative win of the perf series.
    speedup_vs_prev: Option<f64>,
}

/// PR 5 ticks/sec keyed by `(rpps, threads, phase_spread_ms)` —
/// measured by building the PR 5 tip commit and running its bench
/// matrix on the *same host, same day* as the current numbers, so the
/// per-cell ratios are apples-to-apples. (The JSON PR 5 originally
/// recorded was taken on a faster host state — e.g. 346.8 ticks/s at
/// the 256-RPP serial cell where the same commit measures ~287 today —
/// so comparing against it would overstate the host and understate the
/// code.) Serial-equivalent cells only: this host clamps every mode to
/// one worker.
const PR5_BASELINE: &[(usize, usize, u64, f64)] = &[
    (1, 1, 0, 108661.0),
    (1, 1, 3000, 112124.0),
    (1, 8, 0, 111121.0),
    (1, 8, 3000, 111996.0),
    (4, 1, 0, 28413.0),
    (4, 1, 3000, 28117.0),
    (4, 8, 0, 26193.0),
    (4, 8, 3000, 25959.0),
    (16, 1, 0, 6158.0),
    (16, 1, 3000, 5941.0),
    (16, 8, 0, 4441.0),
    (16, 8, 3000, 4936.0),
    (64, 1, 0, 1338.0),
    (64, 1, 3000, 1384.0),
    (64, 8, 0, 1231.0),
    (64, 8, 3000, 1308.0),
    (256, 1, 0, 287.0),
    (256, 1, 3000, 278.0),
    (256, 8, 0, 282.0),
    (256, 8, 3000, 295.0),
];

fn pr5_baseline(rpps: usize, threads: usize, spread_ms: u64) -> Option<f64> {
    PR5_BASELINE
        .iter()
        .find(|&&(r, t, s, _)| r == rpps && t == threads && s == spread_ms)
        .map(|&(_, _, _, v)| v)
}

/// The immediately preceding PR's full matrix, keyed by
/// `(workload, rpps, threads, phase_spread_ms, demand_hold)` —
/// measured by building [`BASELINE_COMMIT`] (the PR 9 tip) in a
/// worktree and running its bench on the same host, same day, so
/// `speedup_vs_prev` isolates what *this* PR's changes bought (where
/// `speedup_vs_pr5` accumulates the whole perf series). Unlike
/// [`PR5_BASELINE`] it covers every cell, including steady-state and
/// full-site rows. Re-measured, not copied from the stored JSON —
/// host drift between bake days has historically been worth ~10%.
const PR9_BASELINE: &[(&str, usize, usize, u64, u32, f64)] = &[
    ("worst_case", 1, 1, 0, 1, 101372.0),
    ("worst_case", 1, 8, 0, 1, 101965.0),
    ("worst_case", 1, 1, 3000, 1, 97925.0),
    ("worst_case", 1, 8, 3000, 1, 99438.0),
    ("worst_case", 4, 1, 0, 1, 25187.0),
    ("worst_case", 4, 8, 0, 1, 26179.0),
    ("worst_case", 4, 1, 3000, 1, 25561.0),
    ("worst_case", 4, 8, 3000, 1, 24109.0),
    ("worst_case", 16, 1, 0, 1, 5963.0),
    ("worst_case", 16, 8, 0, 1, 5907.0),
    ("worst_case", 16, 1, 3000, 1, 5842.0),
    ("worst_case", 16, 8, 3000, 1, 5875.0),
    ("worst_case", 64, 1, 0, 1, 1338.0),
    ("worst_case", 64, 8, 0, 1, 1268.0),
    ("worst_case", 64, 1, 3000, 1, 1249.0),
    ("worst_case", 64, 8, 3000, 1, 1364.0),
    ("worst_case", 256, 1, 0, 1, 288.0),
    ("worst_case", 256, 8, 0, 1, 320.0),
    ("worst_case", 256, 1, 3000, 1, 330.0),
    ("worst_case", 256, 8, 3000, 1, 287.0),
    ("worst_case", 768, 1, 0, 1, 79.0),
    ("worst_case", 768, 8, 0, 1, 77.0),
    ("steady_state", 64, 1, 0, 30, 10460.0),
    ("steady_state", 64, 8, 0, 30, 9944.0),
    ("steady_state", 256, 1, 0, 30, 2092.0),
    ("steady_state", 256, 8, 0, 30, 2149.0),
    ("steady_state", 768, 1, 0, 30, 581.0),
    ("steady_state", 768, 8, 0, 30, 578.0),
];

fn pr9_baseline(
    workload: &str,
    rpps: usize,
    threads: usize,
    spread_ms: u64,
    hold: u32,
) -> Option<f64> {
    PR9_BASELINE
        .iter()
        .find(|&&(w, r, t, s, h, _)| {
            w == workload && r == rpps && t == threads && s == spread_ms && h == hold
        })
        .map(|&(_, _, _, _, _, v)| v)
}

/// The two workload flavours the matrix measures.
///
/// `WorstCase` is the PR 5 configuration verbatim: an over-subscribed
/// fleet (flat 1.2x demand keeps ~80% of servers under active caps,
/// so every controller cycle re-programs limits) on the lossy
/// `LinkProfile::datacenter()` transport, with every leaf redrawing
/// its OU demand every tick. Nothing ever settles; the active set and
/// cycle elision buy nothing by construction, so these cells isolate
/// the kernel-level wins.
///
/// `Steady` is a healthy production fleet: demand at 0.7x (under
/// budget, no active caps to churn), redraws held for `demand_hold`
/// ticks, and lossless agent links — the regime the paper's deployment
/// sits in almost all the time (§V: capping events are rare). Here
/// settled leaves skip their settle arithmetic and quiescent controller
/// cycles are elided outright, which is the active-set payoff these
/// rows exist to measure.
#[derive(Clone, Copy, PartialEq)]
enum Workload {
    WorstCase,
    Steady,
}

impl Workload {
    fn label(self) -> &'static str {
        match self {
            Workload::WorstCase => "worst_case",
            Workload::Steady => "steady_state",
        }
    }
}

fn matrix_datacenter(
    msbs: usize,
    sbs: usize,
    rpps_per_sb: usize,
    threads: usize,
    mode: ParallelMode,
    phase_spread: SimDuration,
) -> Datacenter {
    matrix_datacenter_hold(
        msbs,
        sbs,
        rpps_per_sb,
        threads,
        mode,
        phase_spread,
        1,
        Workload::WorstCase,
    )
}

#[allow(clippy::too_many_arguments)]
fn matrix_datacenter_hold(
    msbs: usize,
    sbs: usize,
    rpps_per_sb: usize,
    threads: usize,
    mode: ParallelMode,
    phase_spread: SimDuration,
    demand_hold: u32,
    workload: Workload,
) -> Datacenter {
    // 160 servers per RPP: the paper's leaf controllers each pull "a
    // few hundred servers or more" (§IV). The 256-RPP point spreads
    // over 4 MSBs so each stays inside its 2.5 MW OCP rating, and the
    // full-site 768-RPP point is the paper's whole ~30 MW suite:
    // 12 MSBs x 4 SBs x 16 RPPs x 160 servers = 122,880 servers.
    let util = match workload {
        Workload::WorstCase => 1.2,
        Workload::Steady => 0.7,
    };
    let mut b = DatacenterBuilder::new()
        .msbs_per_suite(msbs)
        .sbs_per_msb(sbs)
        .rpps_per_sb(rpps_per_sb)
        .racks_per_rpp(4)
        .servers_per_rack(40)
        .uniform_service(ServiceKind::Web)
        .traffic(ServiceKind::Web, TrafficPattern::flat(util))
        .seed(42)
        .worker_threads(threads)
        .parallel_mode(mode)
        .phase_spread(phase_spread)
        .demand_hold(demand_hold);
    if workload == Workload::Steady {
        b = b.rpc_profile(LinkProfile::reliable());
    }
    b.build()
}

fn mode_label(mode: ParallelMode) -> &'static str {
    match mode {
        ParallelMode::Pooled => "pooled",
        ParallelMode::PooledAuto => "pooled-auto",
    }
}

/// Interleaved best-of-`rounds` comparison of two configurations over
/// 600 ms windows. Rounds alternate sides and each side keeps its best
/// window, so scheduler noise — which only ever slows a window down —
/// cannot bias the ratio.
fn paired_best_of(
    rounds: usize,
    mut a: impl FnMut() -> Datacenter,
    mut b: impl FnMut() -> Datacenter,
) -> (f64, f64) {
    let mut best_a = 0.0f64;
    let mut best_b = 0.0f64;
    for _ in 0..rounds {
        best_a = best_a.max(measure_ticks_per_sec_for(&mut a(), 600));
        best_b = best_b.max(measure_ticks_per_sec_for(&mut b(), 600));
    }
    (best_a, best_b)
}

fn measure_ticks_per_sec(dc: &mut Datacenter) -> f64 {
    measure_ticks_per_sec_for(dc, 300)
}

fn measure_ticks_per_sec_for(dc: &mut Datacenter, window_ms: u128) -> f64 {
    for _ in 0..10 {
        dc.step();
    }
    let mut ticks = 0u64;
    let start = Instant::now();
    loop {
        for _ in 0..20 {
            dc.step();
        }
        ticks += 20;
        if start.elapsed().as_millis() >= window_ms {
            break;
        }
    }
    ticks as f64 / start.elapsed().as_secs_f64()
}

/// Observability overhead: instrumented vs. baseline ticks/sec.
struct ObsOverhead {
    baseline: f64,
    instrumented: f64,
    /// Regression as a fraction of baseline (positive = slower with
    /// observability on). Budget: ≤ 4%.
    delta: f64,
}

/// Measures the tick-rate cost of live `dynobs` recording on a
/// mid-size fleet (16 RPPs, 2560 servers, serial lockstep — the
/// configuration where per-cycle recording is the largest share of
/// tick time).
///
/// Host noise here (frequency drift, hypervisor steal) swings whole
/// measurement windows by far more than the recording cost itself and
/// oscillates over tens of seconds, so separate windows per side — at
/// any pairing or ordering — cannot resolve a few percent reliably.
/// Instead both datacenters advance together: 20-tick bursts
/// alternate between the two sides on separate accumulated clocks,
/// with burst order flipping every iteration, so drift lands on both
/// sides of every ~7 ms pair almost equally. The budget check uses
/// the median delta of several such interleaved trials.
fn bench_observability_overhead() -> ObsOverhead {
    let build = |obs: bool| {
        let mut builder = DatacenterBuilder::new()
            .sbs_per_msb(4)
            .rpps_per_sb(4)
            .racks_per_rpp(4)
            .servers_per_rack(40)
            .uniform_service(ServiceKind::Web)
            .traffic(ServiceKind::Web, TrafficPattern::flat(1.2))
            .seed(42)
            .worker_threads(1);
        if obs {
            builder = builder.observability(ObsConfig::on());
        }
        builder.build()
    };
    // One pair of datacenters stepped in interleaved 100-tick bursts
    // (a burst spans exactly five 60 s cycle boundaries at 3 s/tick,
    // so every burst does identical work). Host load drifts on a
    // timescale much longer than one ~30 ms pair, so the per-pair
    // delta cancels the drift; the median over all pairs is the
    // estimate. A run-total ratio (the old estimator) swung 1.8%-3.7%
    // between runs of the same binary on this host.
    const BURST_TICKS: u32 = 100;
    let mut base_dc = build(false);
    let mut inst_dc = build(true);
    for _ in 0..30 {
        base_dc.step();
        inst_dc.step();
    }
    let mut pair_deltas = Vec::new();
    let mut t_base_best = std::time::Duration::MAX;
    let mut t_inst_best = std::time::Duration::MAX;
    let trial = Instant::now();
    let mut inst_first = false;
    while trial.elapsed().as_millis() < 10_000 {
        let burst = |dc: &mut Datacenter| {
            let t0 = Instant::now();
            for _ in 0..BURST_TICKS {
                dc.step();
            }
            t0.elapsed()
        };
        let (b, i) = if inst_first {
            let i = burst(&mut inst_dc);
            let b = burst(&mut base_dc);
            (b, i)
        } else {
            let b = burst(&mut base_dc);
            let i = burst(&mut inst_dc);
            (b, i)
        };
        pair_deltas.push((i.as_secs_f64() - b.as_secs_f64()) / b.as_secs_f64());
        t_base_best = t_base_best.min(b);
        t_inst_best = t_inst_best.min(i);
        inst_first = !inst_first;
    }
    pair_deltas.sort_by(f64::total_cmp);
    let delta = pair_deltas[pair_deltas.len() / 2];
    let baseline = f64::from(BURST_TICKS) / t_base_best.as_secs_f64();
    let instrumented = f64::from(BURST_TICKS) / t_inst_best.as_secs_f64();
    println!("\nobservability overhead (16 RPPs, 2560 servers, serial lockstep):");
    println!("  baseline     {baseline:>10.0} ticks/s");
    println!("  instrumented {instrumented:>10.0} ticks/s");
    println!(
        "  delta        {:>9.2}% (median of interleaved pair deltas, budget ≤ 4%)",
        delta * 100.0
    );
    if delta > OBS_BUDGET {
        eprintln!(
            "FAIL: observability overhead {:.2}% exceeds the {:.1}% budget",
            delta * 100.0,
            OBS_BUDGET * 100.0
        );
        std::process::exit(1);
    }
    ObsOverhead {
        baseline,
        instrumented,
        delta,
    }
}

/// Hard budget on the tick-rate cost of live observability recording.
/// The bench *fails* (nonzero exit) when breached, so CI blocks the
/// regression instead of shipping a warning nobody reads.
///
/// Originally 3%, set from the run-total estimator's reading. The
/// drift-cancelling pair-delta estimator shows the true overhead has
/// been ~3.2% all along (measured identically on the PR 8 tip and
/// today's tree — the old estimator under-read on a quiet host), so
/// 3% gated on measurement luck, not regressions. 4% keeps the same
/// ~0.8-point guard band above the true value the 3% budget was
/// believed to have.
const OBS_BUDGET: f64 = 0.04;

/// Grid layer overhead when the utility is quiet: with-grid vs.
/// baseline ticks/sec.
struct GridOverhead {
    baseline: f64,
    with_grid: f64,
    /// Regression as a fraction of baseline (positive = slower with the
    /// grid layer configured). Budget: ≤ 1%.
    delta: f64,
}

/// Measures the tick-rate cost of an *idle* grid layer — the nominal
/// scenario asks nothing, so every tick pays only the layer's fixed
/// work: signal lookup, episode check, DCUPS availability scan and
/// settlement accumulation. Same paired interleaved methodology as the
/// observability bench; a site that never sees a curtailment must not
/// pay more than 1% for having the layer deployed.
fn bench_grid_overhead() -> GridOverhead {
    let build = |grid: bool| {
        let mut builder = DatacenterBuilder::new()
            .sbs_per_msb(4)
            .rpps_per_sb(4)
            .racks_per_rpp(4)
            .servers_per_rack(40)
            .uniform_service(ServiceKind::Web)
            .traffic(ServiceKind::Web, TrafficPattern::flat(1.2))
            .seed(42)
            .worker_threads(1);
        if grid {
            builder = builder.grid_scenario("nominal");
        }
        builder.build()
    };
    let mut baseline = 0.0f64;
    let mut with_grid = 0.0f64;
    let mut deltas = Vec::new();
    for _ in 0..5 {
        let mut base_dc = build(false);
        let mut grid_dc = build(true);
        for _ in 0..30 {
            base_dc.step();
            grid_dc.step();
        }
        let mut t_base = std::time::Duration::ZERO;
        let mut t_grid = std::time::Duration::ZERO;
        let mut ticks = 0u64;
        let trial = Instant::now();
        let mut grid_first = false;
        while trial.elapsed().as_millis() < 2000 {
            let burst = |dc: &mut Datacenter| {
                let t0 = Instant::now();
                for _ in 0..20 {
                    dc.step();
                }
                t0.elapsed()
            };
            if grid_first {
                t_grid += burst(&mut grid_dc);
                t_base += burst(&mut base_dc);
            } else {
                t_base += burst(&mut base_dc);
                t_grid += burst(&mut grid_dc);
            }
            grid_first = !grid_first;
            ticks += 20;
        }
        let base = ticks as f64 / t_base.as_secs_f64();
        let grid = ticks as f64 / t_grid.as_secs_f64();
        baseline = baseline.max(base);
        with_grid = with_grid.max(grid);
        deltas.push((base - grid) / base);
    }
    deltas.sort_by(f64::total_cmp);
    let delta = deltas[deltas.len() / 2];
    println!("\ngrid idle overhead (16 RPPs, 2560 servers, nominal signal, serial lockstep):");
    println!("  baseline     {baseline:>10.0} ticks/s");
    println!("  with grid    {with_grid:>10.0} ticks/s");
    println!(
        "  delta        {:>9.2}% (median of interleaved trials, budget ≤ 1%)",
        delta * 100.0
    );
    if delta > GRID_IDLE_BUDGET {
        eprintln!(
            "FAIL: idle grid overhead {:.2}% exceeds the {:.1}% budget",
            delta * 100.0,
            GRID_IDLE_BUDGET * 100.0
        );
        std::process::exit(1);
    }
    GridOverhead {
        baseline,
        with_grid,
        delta,
    }
}

/// Hard budget on the tick-rate cost of a deployed-but-idle grid
/// layer, enforced the same way as [`OBS_BUDGET`].
const GRID_IDLE_BUDGET: f64 = 0.01;

/// The commit whose re-measured bench is baked into
/// [`PR9_BASELINE`]: the PR 9 tip.
const BASELINE_COMMIT: &str = "b3f5e71";

/// The worst-case 768-RPP per-tick DRAM roofline, with the always-armed
/// regression gate applied ([`bench::roofline_gate_passes`] against the
/// baseline baked in `crates/bench/src/lib.rs`). Building the
/// 122,880-server site takes a few seconds and no stepping — the
/// roofline reads allocation lengths, not wall time.
fn roofline_768() -> dynamo::TickTraffic {
    let dc = matrix_datacenter_hold(
        12,
        4,
        16,
        1,
        ParallelMode::PooledAuto,
        SimDuration::ZERO,
        1,
        Workload::WorstCase,
    );
    let t = dc.fleet().bytes_per_tick();
    println!("\nbytes/tick roofline (768 RPPs, 122880 servers, worst case):");
    println!(
        "  fused      {:>12} bytes/tick   (baseline {ROOFLINE_BASELINE_FUSED_768} @ {ROOFLINE_BASELINE_COMMIT}, gate at +{:.0}%)",
        t.fused,
        ROOFLINE_GATE_MAX_REGRESSION * 100.0
    );
    if !bench::roofline_gate_passes(t.fused) {
        eprintln!(
            "FAIL: roofline {} bytes/tick exceeds the baked baseline {ROOFLINE_BASELINE_FUSED_768} by more than {:.0}% \
             — the hot loop grew a memory pass or the hot set widened",
            t.fused,
            ROOFLINE_GATE_MAX_REGRESSION * 100.0
        );
        std::process::exit(1);
    }
    t
}

/// CI throughput floor for the full-site steady-state smoke (768 RPPs,
/// 122,880 servers, demand hold 30, serial). Enforced by
/// `examples/paper_scale.rs --full-site`; recorded here so the bench
/// JSON documents the floor next to the measured rate. The measured
/// single-core rate is ~490 ticks/s; 150 leaves 3x headroom for a
/// loaded CI runner while still failing if the active set or cycle
/// elision stop engaging (either alone drops the rate under ~100).
const FULL_SITE_SMOKE_FLOOR: f64 = 150.0;

/// Regression gate on the worst-case matrix: every 8-thread cell must
/// stay within 5% of its one-thread twin. The wider tick is allowed to
/// not help on a given shape; it is never allowed to meaningfully
/// hurt. Armed only on multi-core hosts — with every mode clamped to
/// one worker the two cells are the same configuration and the gate
/// would fire on measurement noise.
const WORST_CASE_GATE_FLOOR: f64 = 0.95;

/// Ticks/sec of the full simulation loop (physics + leaf control
/// cycles) over RPP count × worker threads × phase policy (lockstep
/// vs. cycles staggered across one leaf interval), recorded as JSON.
/// Staggering spreads the per-tick control work across the interval —
/// smaller due-batches per tick — where lockstep concentrates it.
///
/// Parallel cells run [`ParallelMode::PooledAuto`] — the persistent
/// worker pool, clamped to the host's cores, which is what a real
/// deployment should run. The headline `speedup_64rpps_8_threads` is a
/// separate paired interleaved best-of comparison so scheduler noise
/// cannot bias it. The JSON records the host parallelism and each
/// cell's effective thread count so every number is interpretable.
fn bench_control_plane_matrix(obs: &ObsOverhead, grid: &GridOverhead) {
    let roofline = roofline_768();
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("\ncontrol plane ticks/sec (RPPs x threads x phase x hold), host cores: {host_cpus}");
    let mut points: Vec<MatrixPoint> = Vec::new();

    // (msbs, sbs, rpps_per_sb, spread, demand_hold, workload) per
    // cell; threads sweep {1, 8} for each. The first five topologies
    // at hold=1 are the PR 5 matrix verbatim — the worst-case
    // workload, where every leaf redraws every tick and nothing ever
    // settles, so any speedup there is kernel-level only. Steady-state
    // cells run the healthy-fleet workload (see [`Workload`]) at
    // hold=30 (each leaf redraws every 30 ticks, staggered by leaf
    // index): settled leaves skip the settle pass and quiescent
    // controller cycles are elided. The (12, 4, 16) rows are the full
    // ~30 MW site in both flavours.
    let stagger = staggered_leaf_spread();
    let mut cells: Vec<(usize, usize, usize, SimDuration, u32, Workload)> = Vec::new();
    for &(msbs, sbs, rpps_per_sb) in &[
        (1usize, 1usize, 1usize),
        (1, 2, 2),
        (1, 4, 4),
        (1, 8, 8),
        (4, 4, 16),
    ] {
        for &spread in &[SimDuration::ZERO, stagger] {
            cells.push((msbs, sbs, rpps_per_sb, spread, 1, Workload::WorstCase));
        }
    }
    // Steady-state rows at the two biggest PR 5 sizes, then the
    // full-site row in both worst-case and steady-state flavours.
    cells.push((1, 8, 8, SimDuration::ZERO, 30, Workload::Steady));
    cells.push((4, 4, 16, SimDuration::ZERO, 30, Workload::Steady));
    cells.push((12, 4, 16, SimDuration::ZERO, 1, Workload::WorstCase));
    cells.push((12, 4, 16, SimDuration::ZERO, 30, Workload::Steady));

    for &(msbs, sbs, rpps_per_sb, spread, hold, workload) in &cells {
        let rpps = msbs * sbs * rpps_per_sb;
        for &threads in &[1usize, 8] {
            let mode = ParallelMode::PooledAuto;
            let mut dc = matrix_datacenter_hold(
                msbs,
                sbs,
                rpps_per_sb,
                threads,
                mode,
                spread,
                hold,
                workload,
            );
            let servers = dc.fleet().len();
            let effective_threads = dc.effective_worker_threads();
            let phase_spread_ms = spread.as_millis();
            let label = if spread.is_zero() {
                "lockstep "
            } else {
                "staggered"
            };
            // Best of three windows per cell: host slowdowns
            // (frequency drift, steal) persist for whole windows
            // and would otherwise be recorded as the cell's rate.
            let ticks_per_sec = (0..3)
                .map(|_| measure_ticks_per_sec(&mut dc))
                .fold(0.0, f64::max);
            // PR 5 had neither a demand-hold knob nor workload
            // flavours — its cells always redrew and settled every
            // leaf every tick under the worst-case workload — so both
            // the hold=1 cells (pure kernel speedup, identical config)
            // and the steady-state cells (kernel + active-set +
            // elision, against PR 5's only way to run this fleet size)
            // compare against the same `(rpps, threads, spread)`
            // baseline.
            let speedup_vs_pr5 =
                pr5_baseline(rpps, threads, phase_spread_ms).map(|base| ticks_per_sec / base);
            let speedup_vs_prev =
                pr9_baseline(workload.label(), rpps, threads, phase_spread_ms, hold)
                    .map(|base| ticks_per_sec / base);
            let vs = speedup_vs_pr5
                .map(|s| format!("{s:>5.2}x vs pr5"))
                .unwrap_or_else(|| "   (no pr5 cell)".into());
            let vs_prev = speedup_vs_prev
                .map(|s| format!("{s:>5.2}x vs prev"))
                .unwrap_or_else(|| "    (no prev cell)".into());
            println!("  rpps={rpps:<3} servers={servers:<6} threads={threads} (eff {effective_threads}) {label} hold={hold:<2} {:<12} {ticks_per_sec:>10.0} ticks/s  {vs}  {vs_prev}", workload.label());
            points.push(MatrixPoint {
                rpps,
                servers,
                threads,
                effective_threads,
                mode: mode_label(mode),
                phase_spread_ms,
                demand_hold: hold,
                workload: workload.label(),
                ticks_per_sec,
                speedup_vs_pr5,
                speedup_vs_prev,
            });
        }
    }

    let rate = |rpps: usize, threads: usize, spread_ms: u64| {
        points
            .iter()
            .find(|p| {
                p.rpps == rpps
                    && p.threads == threads
                    && p.phase_spread_ms == spread_ms
                    && p.demand_hold == 1
            })
            .map(|p| p.ticks_per_sec)
            .unwrap_or(f64::NAN)
    };
    let stagger_ratio = rate(64, 1, staggered_leaf_spread().as_millis()) / rate(64, 1, 0);

    // Parallel speedup numbers are only meaningful when at least one
    // cell actually ran more than one worker. On a single-core host
    // PooledAuto clamps every cell to 1 thread, and a "speedup" would
    // just be run-to-run noise presented as a result — refuse to emit
    // the summary fields instead.
    let any_parallel = points.iter().any(|p| p.effective_threads > 1);
    let speedups = if any_parallel {
        // Headline: what `--threads 8` actually buys over serial at 64
        // RPPs under the auto-clamped pool, paired and interleaved.
        let (serial, auto8) = paired_best_of(
            7,
            || matrix_datacenter(1, 8, 8, 1, ParallelMode::PooledAuto, SimDuration::ZERO),
            || matrix_datacenter(1, 8, 8, 8, ParallelMode::PooledAuto, SimDuration::ZERO),
        );
        let speedup = auto8 / serial;
        println!("  speedup at 64 RPPs, 8 threads (auto) vs 1: {speedup:.2}x ({auto8:.0} vs {serial:.0} ticks/s)");
        Some(speedup)
    } else {
        println!("  single-core host: every cell clamped to 1 worker; speedup fields suppressed");
        None
    };
    println!("  staggered vs lockstep at 64 RPPs, 1 thread: {stagger_ratio:.2}x");

    // Worst-case parallel efficiency and the 8-thread regression gate.
    // Both compare each worst-case 8-thread cell against its serial
    // twin (same rpps/spread). On a single-core host the two cells run
    // the same single clamped worker, so both stay disarmed — run-to-
    // run noise must not be reported as a speedup or fail the build.
    let armed = host_cpus >= 2;
    let wc_cell = |rpps: usize, threads: usize, spread_ms: u64| {
        points.iter().find(|p| {
            p.workload == "worst_case"
                && p.rpps == rpps
                && p.threads == threads
                && p.phase_spread_ms == spread_ms
        })
    };
    let efficiency = if armed {
        wc_cell(768, 1, 0).zip(wc_cell(768, 8, 0)).map(|(s, p8)| {
            let speedup = p8.ticks_per_sec / s.ticks_per_sec;
            let eff = speedup / p8.effective_threads as f64;
            println!(
                "  full-site worst-case: {speedup:.2}x at {} effective threads ({:.0}% parallel efficiency)",
                p8.effective_threads,
                eff * 100.0
            );
            (s.ticks_per_sec, p8.ticks_per_sec, speedup, p8.effective_threads, eff)
        })
    } else {
        None
    };
    let mut worst_gate: Option<(usize, u64, f64)> = None;
    if armed {
        for p8 in points
            .iter()
            .filter(|p| p.workload == "worst_case" && p.threads == 8 && p.effective_threads > 1)
        {
            if let Some(serial) = wc_cell(p8.rpps, 1, p8.phase_spread_ms) {
                let ratio = p8.ticks_per_sec / serial.ticks_per_sec;
                if worst_gate.is_none_or(|(_, _, w)| ratio < w) {
                    worst_gate = Some((p8.rpps, p8.phase_spread_ms, ratio));
                }
            }
        }
    }

    // Schema notes: `host_parallelism` is recorded per point only (a
    // matrix regenerated cell-by-cell on different hosts stays
    // interpretable); suppression of the parallel-speedup summary is a
    // structured `suppressed_reason` code, not prose.
    let mut json = String::from("{\n  \"bench\": \"controlplane_ticks_per_sec\",\n");
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let vs_pr5 = p
            .speedup_vs_pr5
            .map(|s| format!("{s:.2}"))
            .unwrap_or_else(|| "null".into());
        let vs_prev = p
            .speedup_vs_prev
            .map(|s| format!("{s:.2}"))
            .unwrap_or_else(|| "null".into());
        json.push_str(&format!(
            "    {{\"rpps\": {}, \"servers\": {}, \"threads\": {}, \"effective_threads\": {}, \"host_parallelism\": {host_cpus}, \"mode\": \"{}\", \"phase_spread_ms\": {}, \"demand_hold\": {}, \"workload\": \"{}\", \"ticks_per_sec\": {:.1}, \"speedup_vs_pr5\": {}, \"speedup_vs_prev\": {}}}{}\n",
            p.rpps,
            p.servers,
            p.threads,
            p.effective_threads,
            p.mode,
            p.phase_spread_ms,
            p.demand_hold,
            p.workload,
            p.ticks_per_sec,
            vs_pr5,
            vs_prev,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    if let Some(speedup) = speedups {
        json.push_str(&format!(
            "  \"parallel_speedup\": {{\"speedup_64rpps_8_threads\": {speedup:.3}}},\n"
        ));
    } else {
        json.push_str("  \"parallel_speedup\": {\"suppressed_reason\": \"single_core_host\"},\n");
    }
    if let Some((serial, threads8, speedup, eff_threads, eff)) = efficiency {
        json.push_str(&format!(
            "  \"parallel_efficiency_worst_case\": {{\"rpps\": 768, \"serial_ticks_per_sec\": {serial:.1}, \"threads8_ticks_per_sec\": {threads8:.1}, \"speedup\": {speedup:.3}, \"effective_threads\": {eff_threads}, \"efficiency\": {eff:.3}}},\n"
        ));
    } else {
        json.push_str(
            "  \"parallel_efficiency_worst_case\": {\"suppressed_reason\": \"single_core_host\"},\n",
        );
    }
    match worst_gate {
        Some((rpps, spread_ms, ratio)) => json.push_str(&format!(
            "  \"worst_case_regression_gate\": {{\"armed\": true, \"floor_ratio\": {WORST_CASE_GATE_FLOOR:.2}, \"worst_ratio\": {ratio:.3}, \"worst_cell\": {{\"rpps\": {rpps}, \"phase_spread_ms\": {spread_ms}}}}},\n"
        )),
        None => json.push_str(&format!(
            "  \"worst_case_regression_gate\": {{\"armed\": false, \"suppressed_reason\": \"single_core_host\", \"floor_ratio\": {WORST_CASE_GATE_FLOOR:.2}}},\n"
        )),
    }
    json.push_str(&format!(
        "  \"staggered_vs_lockstep_64rpps_serial\": {stagger_ratio:.3},\n"
    ));
    json.push_str(&format!("  \"baseline_commit\": \"{BASELINE_COMMIT}\",\n"));
    json.push_str(&format!(
        "  \"bytes_per_tick\": {{\"rpps\": 768, \"servers\": 122880, \"workload\": \"worst_case\", \"fused\": {}, \"baseline_fused\": {ROOFLINE_BASELINE_FUSED_768}, \"baseline_commit\": \"{ROOFLINE_BASELINE_COMMIT}\", \"gate\": {{\"armed\": true, \"max_regression_pct\": {:.1}, \"enforced_by\": \"cargo bench -p bench --bench controller -- --roofline-gate\"}}}},\n",
        roofline.fused,
        ROOFLINE_GATE_MAX_REGRESSION * 100.0
    ));
    json.push_str(&format!(
        "  \"full_site_smoke\": {{\"rpps\": 768, \"servers\": 122880, \"msbs\": 12, \"demand_hold\": 30, \"workload\": \"steady_state\", \"floor_ticks_per_sec\": {FULL_SITE_SMOKE_FLOOR:.1}, \"enforced_by\": \"examples/paper_scale.rs --full-site\"}},\n"
    ));
    json.push_str(&format!(
        "  \"observability_overhead\": {{\"baseline_ticks_per_sec\": {:.1}, \"instrumented_ticks_per_sec\": {:.1}, \"delta_pct\": {:.2}, \"budget_pct\": 4.0}},\n",
        obs.baseline,
        obs.instrumented,
        obs.delta * 100.0
    ));
    json.push_str(&format!(
        "  \"grid_idle_overhead\": {{\"baseline_ticks_per_sec\": {:.1}, \"with_grid_ticks_per_sec\": {:.1}, \"delta_pct\": {:.2}, \"budget_pct\": 1.0, \"scenario\": \"nominal\"}}\n}}\n",
        grid.baseline,
        grid.with_grid,
        grid.delta * 100.0
    ));
    let path = bench::workspace_path("BENCH_controlplane.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => eprintln!("  failed to write {}: {e}", path.display()),
    }
    // Enforce the gate after the JSON lands, so a failing run still
    // leaves its evidence on disk.
    if let Some((rpps, spread_ms, ratio)) = worst_gate {
        if ratio < WORST_CASE_GATE_FLOOR {
            eprintln!(
                "FAIL: worst-case 8-thread cell (rpps={rpps}, spread={spread_ms} ms) is \
                 {ratio:.3}x its one-thread twin, below the {WORST_CASE_GATE_FLOOR:.2}x floor"
            );
            std::process::exit(1);
        }
    }
}

/// CI thread-scaling smoke: serial vs `--threads 8` (auto-clamped
/// pool) at 64 RPPs, paired interleaved best-of-5. Exits nonzero if
/// the parallel configuration falls below 0.9× serial — the pool (or
/// its clamp) must never make the simulation meaningfully slower.
fn scaling_smoke() {
    let (serial, auto8) = paired_best_of(
        5,
        || matrix_datacenter(1, 8, 8, 1, ParallelMode::PooledAuto, SimDuration::ZERO),
        || matrix_datacenter(1, 8, 8, 8, ParallelMode::PooledAuto, SimDuration::ZERO),
    );
    let ratio = auto8 / serial;
    println!("thread-scaling smoke (64 RPPs, 10240 servers, lockstep):");
    println!("  threads=1       {serial:>10.0} ticks/s");
    println!("  threads=8(auto) {auto8:>10.0} ticks/s");
    println!("  ratio           {ratio:>10.2}x (floor 0.90x)");
    if ratio.is_nan() || ratio < 0.90 {
        eprintln!("FAIL: parallel throughput below 0.9x serial");
        std::process::exit(1);
    }
}

fn main() {
    if std::env::args().any(|a| a == "--scaling-smoke") {
        scaling_smoke();
        return;
    }
    if std::env::args().any(|a| a == "--roofline-gate") {
        roofline_768();
        return;
    }
    bench_three_band();
    bench_distribution();
    bench_leaf_cycle();
    bench_upper_cycle();
    let obs = bench_observability_overhead();
    let grid = bench_grid_overhead();
    bench_control_plane_matrix(&obs, &grid);
}
