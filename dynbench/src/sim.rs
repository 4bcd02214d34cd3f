//! The three simulator workloads: closed-loop, fixed work per
//! repetition, one process, at most `nproc` runnable threads.
//!
//! A run is a sequence of *repetitions*. Each one builds the datacenter
//! afresh from the same seed (one `setup_s` sample) and steps it a fixed
//! number of ticks, timed in fixed-size chunks (one throughput sample
//! per chunk). Because the work per repetition is fixed, everything the
//! simulation reports — digest, trips, cap events — repeats exactly on
//! any host; only the number of repetitions follows `--seconds`.

use std::time::{Duration, Instant};

use dcsim::snap::Snapshot;
use dcsim::{SimDuration, SimTime};
use dynamo::{
    Datacenter, DatacenterBuilder, DatacenterState, ObsConfig, ParallelMode, RunReport, ServicePlan,
};
use dynrpc::LinkProfile;
use powerinfra::{DeviceLevel, Power};
use workloads::{ServiceKind, TrafficEvent, TrafficPattern};

use crate::alloc_count::count_allocations;
use crate::host;
use crate::metrics::{Values, DEFAULT_SEED};
use crate::outcome::{Outcome, RunCfg};
use crate::probes::{self, LEAF_SERVERS};
use crate::stats::{fnv1a64, median, percentile, tail_percentile};
use crate::trace::{Aggregate, SpanId, Tracer, ROOT};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    SiteWorstCase,
    SiteSteadyState,
    SuiteDay,
}

/// The fixed work of one repetition.
struct Spec {
    kind: SimKind,
    /// Untimed ticks first: first-touch of the big arrays, controller
    /// start-up, the first caps.
    warmup_ticks: u64,
    chunk_ticks: u64,
    chunks: u64,
    /// Tick at which the first leaf's primary controller is failed.
    failover_at: Option<u64>,
    threads: usize,
    /// Checkpoint write + restore round trips after the first
    /// repetition (0 = none), and how far the restored twin then runs
    /// beside the original.
    checkpoint_cycles: usize,
    twin_ticks: u64,
}

impl Spec {
    fn new(kind: SimKind, smoke: bool) -> Spec {
        let pick = |full: u64, smoke_size: u64| if smoke { smoke_size } else { full };
        match kind {
            // The only threaded workload. Chunks of 60 ticks are ~0.3 s.
            SimKind::SiteWorstCase => Spec {
                kind,
                warmup_ticks: pick(60, 30),
                chunk_ticks: pick(60, 20),
                chunks: pick(9, 3),
                failover_at: None,
                threads: host::nproc().min(2),
                checkpoint_cycles: 0,
                twin_ticks: 0,
            },
            // Warm-up and chunk are whole demand-hold periods (30
            // ticks), so every chunk holds the same mix of redraw and
            // quiet ticks.
            SimKind::SiteSteadyState => Spec {
                kind,
                warmup_ticks: pick(60, 30),
                chunk_ticks: pick(300, 60),
                chunks: pick(10, 3),
                failover_at: None,
                threads: 1,
                checkpoint_cycles: 0,
                twin_ticks: 0,
            },
            // One chunk is the whole simulated hour: load is not
            // stationary inside it, so only the whole is comparable.
            SimKind::SuiteDay => Spec {
                kind,
                warmup_ticks: 0,
                chunk_ticks: 3600,
                chunks: 1,
                failover_at: Some(900),
                threads: 1,
                checkpoint_cycles: pick(15, 3) as usize,
                twin_ticks: 300,
            },
        }
    }

    fn rep_ticks(&self) -> u64 {
        self.warmup_ticks + self.chunk_ticks * self.chunks
    }

    /// The inputs, built from the seed; the simulator sees only these.
    fn builder(&self, cfg: &RunCfg, threads: usize, traced: bool) -> DatacenterBuilder {
        let b = DatacenterBuilder::new()
            .sbs_per_msb(4)
            .racks_per_rpp(4)
            .servers_per_rack(LEAF_SERVERS / 4)
            .seed(cfg.seed)
            .worker_threads(threads)
            .parallel_mode(ParallelMode::Pooled);
        let site = |b: DatacenterBuilder, load: f64| {
            // The paper's whole 30 MW site: 12 MSB x 4 SB x 16 RPP x
            // 160 servers = 122,880 servers under 768 leaf controllers.
            // A smoke run keeps one MSB whole: the MSB rating is what
            // binds at 1.2x load.
            b.msbs_per_suite(if cfg.smoke { 1 } else { 12 })
                .rpps_per_sb(16)
                .uniform_service(ServiceKind::Web)
                .traffic(ServiceKind::Web, TrafficPattern::flat(load))
        };
        let b = match self.kind {
            SimKind::SiteWorstCase => site(b, 1.2).demand_hold(1),
            SimKind::SiteSteadyState => site(b, 0.7)
                .demand_hold(30)
                .rpc_profile(LinkProfile::reliable()),
            SimKind::SuiteDay => {
                // A day's shape in one simulated hour: trough at 0.55 of
                // peak, a 15-minute rise from tick 300, 15 minutes at
                // peak, a 15-minute fall, then the trough again.
                let day = TrafficPattern::flat(0.55).with_event(
                    TrafficEvent::new(
                        SimTime::from_secs(300),
                        SimTime::from_secs(3000),
                        1.0 / 0.55,
                    )
                    .with_ramp(SimDuration::from_secs(900)),
                );
                let mut b = b
                    .msbs_per_suite(1)
                    .rpps_per_sb(if cfg.smoke { 4 } else { 16 })
                    .service_plan(ServicePlan::Mix(vec![
                        (ServiceKind::Web, 0.40),
                        (ServiceKind::Cache, 0.20),
                        (ServiceKind::Hadoop, 0.15),
                        (ServiceKind::Database, 0.10),
                        (ServiceKind::NewsFeed, 0.10),
                        (ServiceKind::F4Storage, 0.05),
                    ]))
                    // Tight enough that the peak drives real leaf capping.
                    .rpp_rating(Power::from_kilowatts(36.5))
                    .phase_spread(SimDuration::from_secs(2))
                    .observability(ObsConfig::on());
                for kind in ServiceKind::all() {
                    b = b.traffic(kind, day.clone());
                }
                b
            }
        };
        // The simulator's phase profile records nothing unless
        // observability is on, so the traced pass turns both on.
        if traced {
            b.observability(ObsConfig::on()).profile_ticks(true)
        } else {
            b
        }
    }
}

/// One repetition: a fresh datacenter stepped through the fixed work.
struct Rep {
    dc: Datacenter,
    build_s: f64,
    /// Ticks per host second, one per completed timed chunk.
    chunk_rates: Vec<f64>,
    /// `false` if the deadline cut the repetition short.
    complete: bool,
    ticks: u64,
    allocations: u64,
}

fn run_rep(
    spec: &Spec,
    builder: &DatacenterBuilder,
    tracer: &mut Tracer,
    traced: bool,
    deadline: Option<Instant>,
) -> Rep {
    let rep_span = tracer.begin(if traced { "rep.traced" } else { "rep.timed" }, ROOT);
    let (mut dc, build_s) = tracer.time("dynamo.build", rep_span, || builder.clone().build());
    let first_leaf = dc.system().leaf_devices()[0];
    if traced {
        // So recording a step span does not allocate while counting.
        tracer.spans.reserve(spec.rep_ticks() as usize);
    }
    let mut tick = 0u64;
    let mut chunk_rates = Vec::with_capacity(spec.chunks as usize);
    let mut complete = true;
    let mut run_ticks = |dc: &mut Datacenter, tracer: &mut Tracer, n: u64| {
        for _ in 0..n {
            if spec.failover_at == Some(tick) {
                dc.system_mut().fail_primary(first_leaf);
            }
            if traced {
                let step = tracer.begin("dynamo.step", rep_span);
                dc.step();
                tracer.end(step);
            } else {
                dc.step();
            }
            tick += 1;
        }
    };
    let mut all_ticks = || {
        run_ticks(&mut dc, tracer, spec.warmup_ticks);
        for chunk in 0..spec.chunks {
            let started = Instant::now();
            run_ticks(&mut dc, tracer, spec.chunk_ticks);
            chunk_rates.push(spec.chunk_ticks as f64 / started.elapsed().as_secs_f64());
            if deadline.is_some_and(|d| Instant::now() >= d) && chunk + 1 < spec.chunks {
                complete = false;
                break;
            }
        }
    };
    let allocations = if traced {
        count_allocations(&mut all_ticks).1
    } else {
        all_ticks();
        0
    };
    tracer.end(rep_span);
    Rep {
        dc,
        build_s,
        chunk_rates,
        complete,
        ticks: tick,
        allocations,
    }
}

/// Everything the simulation lets an operator see, and its digest.
struct Observed {
    report: RunReport,
    report_text: String,
    prometheus_text: String,
    digest: u64,
}

fn observe(dc: &Datacenter, tracer: &mut Tracer, parent: SpanId) -> Observed {
    let ((report, report_text), _) = tracer.time("dynamo.report", parent, || {
        let report = RunReport::from_datacenter(dc);
        let text = report.to_string();
        (report, text)
    });
    let (prometheus_text, _) = tracer.time("dynobs.prometheus_text", parent, || {
        dc.system().observability().prometheus_text()
    });
    let digest = fnv1a64([report_text.as_bytes(), prometheus_text.as_bytes()]);
    Observed {
        report,
        report_text,
        prometheus_text,
        digest,
    }
}

/// Longest run of consecutive telemetry samples in which any RPP, SB or
/// MSB drew more than its rating, in simulated seconds.
fn overdraw_max_sim_s(dc: &Datacenter) -> f64 {
    let topo = dc.topology();
    let mut over: Vec<bool> = Vec::new();
    let mut interval_s = 0.0;
    for level in [DeviceLevel::Rpp, DeviceLevel::Sb, DeviceLevel::Msb] {
        for device in topo.devices_at(level) {
            let Some(trace) = dc.telemetry().device_trace(device) else {
                continue;
            };
            interval_s = trace.interval().as_secs_f64();
            let rating_w = topo.device(device).rating.as_watts();
            if over.len() < trace.len() {
                over.resize(trace.len(), false);
            }
            for (flag, &w) in over.iter_mut().zip(trace.values()) {
                *flag |= w > rating_w;
            }
        }
    }
    let longest = over.split(|&o| !o).map(<[bool]>::len).max().unwrap_or(0);
    longest as f64 * interval_s
}

/// 100 x (1 - server-weighted mean performance factor) over the MSBs.
fn perf_loss_pct(dc: &Datacenter) -> f64 {
    let topo = dc.topology();
    let (mut weighted, mut servers) = (0.0, 0.0);
    for &msb in topo.roots() {
        let n = topo.servers_under(msb).len() as f64;
        weighted += dc.performance_under(msb) * n;
        servers += n;
    }
    100.0 * (1.0 - weighted / servers)
}

fn counter(dc: &Datacenter, name: &str) -> f64 {
    dc.system()
        .observability()
        .registry()
        .counters()
        .find(|(n, _, _)| *n == name)
        .map_or(0.0, |(_, _, v)| v as f64)
}

/// Checkpoint write and restore round trips on `dc`, each step in its
/// own span. Returns the last restored twin and the snapshot size.
fn checkpoint_cycles(
    spec: &Spec,
    builder: &DatacenterBuilder,
    dc: &mut Datacenter,
    tracer: &mut Tracer,
    workload: &str,
) -> (Datacenter, usize) {
    let path = host::output_dir().join(format!("{workload}.{}.snap", std::process::id()));
    let mut last = None;
    for _ in 0..spec.checkpoint_cycles {
        let write = tracer.begin("checkpoint.write", ROOT);
        let (state, _) = tracer.time("dynamo.state", write, || dc.state());
        let (bytes, _) = tracer.time("dcsim.snap_encode", write, || state.to_snap_bytes());
        tracer.time("checkpoint.io", write, || {
            std::fs::write(&path, &bytes).expect("write the checkpoint file")
        });
        tracer.end(write);
        drop((state, bytes));

        let restore = tracer.begin("checkpoint.restore", ROOT);
        let (bytes, _) = tracer.time("checkpoint.io", restore, || {
            std::fs::read(&path).expect("read the checkpoint file back")
        });
        let (state, _) = tracer.time("dcsim.snap_decode", restore, || {
            DatacenterState::from_snap_bytes(&bytes).expect("the checkpoint decodes")
        });
        let (mut twin, _) = tracer.time("dynamo.build", restore, || builder.clone().build());
        tracer.time("dynamo.restore", restore, || {
            twin.restore(&state).expect("the checkpoint restores")
        });
        tracer.end(restore);
        last = Some((twin, bytes.len()));
    }
    // Best effort: the file sits in the build directory either way.
    let _ = std::fs::remove_file(&path);
    last.expect("at least one checkpoint cycle")
}

/// What the simulation itself reported at the end of the first
/// repetition. Simulated, so it repeats exactly for a seed.
struct SimResults {
    servers: usize,
    breaker_trips: usize,
    overdraw_max_sim_s: f64,
    perf_loss_pct: f64,
    capped_frac: f64,
    cap_events: usize,
    uncap_events: usize,
    upper_contracts: usize,
    alerts: usize,
    failovers: u64,
}

/// The correctness checks on the first repetition's end state.
fn check_first_rep(
    kind: SimKind,
    cfg: &RunCfg,
    dc: &Datacenter,
    report: &RunReport,
    out: &mut Outcome,
) -> SimResults {
    let servers = dc.fleet().len();
    let sim = SimResults {
        servers,
        breaker_trips: report.breaker_trips,
        overdraw_max_sim_s: overdraw_max_sim_s(dc),
        perf_loss_pct: perf_loss_pct(dc),
        capped_frac: report.currently_capped as f64 / servers as f64,
        cap_events: report.leaf_cap_events,
        uncap_events: report.leaf_uncap_events,
        upper_contracts: report.upper_cap_events,
        alerts: report.alerts,
        failovers: report.failovers,
    };
    let fleet_w = dc.fleet().stats().total_power.as_watts();
    let rated_w: f64 = dc
        .topology()
        .roots()
        .iter()
        .map(|&d| dc.topology().device(d).rating.as_watts())
        .sum();
    out.check(
        "no_breaker_trips",
        sim.breaker_trips == 0,
        format!("{} trips", sim.breaker_trips),
    );
    out.check(
        "fleet_power_within_msb_ratings",
        fleet_w <= rated_w,
        format!("{:.0} kW of {:.0} kW", fleet_w / 1e3, rated_w / 1e3),
    );
    match kind {
        SimKind::SiteWorstCase => out.check(
            "most_servers_capped",
            sim.capped_frac > 0.5,
            format!("{:.1}% capped", sim.capped_frac * 100.0),
        ),
        SimKind::SiteSteadyState => {
            out.check(
                "no_caps",
                sim.cap_events == 0 && report.currently_capped == 0,
                format!("{} cap events", sim.cap_events),
            );
            out.check(
                "healthy",
                report.is_healthy(),
                format!("{} alerts", sim.alerts),
            );
        }
        SimKind::SuiteDay => {
            let min_caps = if cfg.seed == DEFAULT_SEED && !cfg.smoke {
                50
            } else {
                1
            };
            out.check(
                "peak_drives_leaf_capping",
                sim.cap_events >= min_caps,
                format!("{} cap events, need {min_caps}", sim.cap_events),
            );
            out.check(
                "caps_are_released",
                sim.uncap_events >= 1,
                format!("{} uncap events", sim.uncap_events),
            );
            out.check(
                "one_failover",
                sim.failovers == 1,
                format!("{}", sim.failovers),
            );
            out.check(
                "no_invalid_aggregations",
                report.invalid_aggregations == 0,
                format!("{}", report.invalid_aggregations),
            );
        }
    }
    sim
}

/// Runs one simulator workload for `cfg.seconds` and fills `out`.
pub fn run(kind: SimKind, workload: &str, cfg: &RunCfg, tracer: &mut Tracer, out: &mut Outcome) {
    let started = Instant::now();
    let spec = Spec::new(kind, cfg.smoke);
    let builder = spec.builder(cfg, spec.threads, false);
    // With tracing on, the first 40% of the time still runs untraced:
    // the checks, the digest and the rate tracing is compared against.
    let untraced_share = if cfg.trace { 0.4 } else { 1.0 };
    let untraced_deadline = started + Duration::from_secs_f64(cfg.seconds * untraced_share);

    // -- First repetition: never cut short, everything is checked on it.
    let mut first = run_rep(&spec, &builder, tracer, false, None);
    let mut build_s = vec![first.build_s];
    let mut rates = first.chunk_rates.clone();
    let seen = observe(&first.dc, tracer, ROOT);
    out.digest = seen.digest;
    let sim = check_first_rep(kind, cfg, &first.dc, &seen.report, out);

    // -- Checkpoint round trips, then the restored twin runs beside the
    // original and must stay indistinguishable from it.
    let mut checkpoint_bytes = 0;
    if spec.checkpoint_cycles > 0 {
        let (mut twin, bytes) = checkpoint_cycles(&spec, &builder, &mut first.dc, tracer, workload);
        checkpoint_bytes = bytes;
        for _ in 0..spec.twin_ticks {
            first.dc.step();
            twin.step();
        }
        let original = observe(&first.dc, tracer, ROOT);
        let restored = observe(&twin, tracer, ROOT);
        out.check(
            "restored_twin_matches_original",
            original.report_text == restored.report_text
                && original.prometheus_text == restored.prometheus_text,
            format!("after {} more ticks", spec.twin_ticks),
        );
    }
    // Fixed work up to here, so this repeats from run to run; later
    // repetitions reuse the freed memory.
    let peak_rss_mb = host::peak_rss_mb();
    drop(first);

    // -- More untraced repetitions until the time is used.
    let mut reps_agree = true;
    let mut complete_reps = 1;
    while Instant::now() < untraced_deadline {
        let rep = run_rep(&spec, &builder, tracer, false, Some(untraced_deadline));
        build_s.push(rep.build_s);
        rates.extend(&rep.chunk_rates);
        if rep.complete {
            complete_reps += 1;
            reps_agree &= observe(&rep.dc, tracer, ROOT).digest == out.digest;
        }
    }
    out.check(
        "repetitions_agree",
        reps_agree,
        format!("{complete_reps} complete repetitions, one digest"),
    );
    while build_s.len() < 5 {
        let (dc, secs) = tracer.time("dynamo.build", ROOT, || builder.clone().build());
        drop(dc);
        build_s.push(secs);
    }
    let rate = median(&rates);
    out.notes.push(format!(
        "{} servers, {} threads, {} ticks per repetition; {} throughput samples \
         ({}-tick chunks) over {complete_reps} complete repetitions, {} builds",
        sim.servers,
        spec.threads,
        spec.rep_ticks(),
        rates.len(),
        spec.chunk_ticks,
        build_s.len(),
    ));

    if cfg.trace {
        let deadline = started + Duration::from_secs_f64(cfg.seconds);
        traced_pass(
            &spec,
            cfg,
            &sim,
            rate,
            checkpoint_bytes,
            deadline,
            tracer,
            out,
        );
    } else {
        out.values.set("setup_s", median(&build_s));
        out.values.set("throughput", rate);
        out.values.set("peak_rss_mb", peak_rss_mb);
    }
}

/// Work counted by `dynobs` and the fleet during one traced repetition.
/// Counts repeat exactly from repetition to repetition.
struct Counters {
    cycles_ran: f64,
    cycles_elided: f64,
    rpc_calls: f64,
    rpc_failures: f64,
    settled_leaf_frac: f64,
    bytes_per_tick: f64,
}

impl Counters {
    fn read(dc: &Datacenter) -> Counters {
        Counters {
            cycles_ran: counter(dc, "dynamo_leaf_cycles_total"),
            cycles_elided: counter(dc, "dynamo_leaf_cycles_elided_total"),
            rpc_calls: counter(dc, "dynamo_rpc_calls_total"),
            rpc_failures: counter(dc, "dynamo_rpc_drops_total")
                + counter(dc, "dynamo_rpc_timeouts_total")
                + counter(dc, "dynamo_rpc_agent_down_total"),
            settled_leaf_frac: dc.fleet().settled_leaf_count() as f64
                / dc.system().leaf_count() as f64,
            bytes_per_tick: dc.fleet().bytes_per_tick().fused as f64,
        }
    }
}

/// The per-layer half of a `--trace 1` run: traced repetitions until
/// `deadline` (observability and the phase profiler on, a span around
/// every step, allocations counted), the serial twin, the layer probes
/// and the reconciliations. `untraced_rate` is the rate the untraced
/// repetitions of this process measured.
#[allow(clippy::too_many_arguments)]
fn traced_pass(
    spec: &Spec,
    cfg: &RunCfg,
    sim: &SimResults,
    untraced_rate: f64,
    checkpoint_bytes: usize,
    deadline: Instant,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let traced_builder = spec.builder(cfg, spec.threads, true);
    let mut traced_reps = 0u64;
    let mut traced_ticks = 0u64;
    let mut traced_rates = Vec::new();
    let mut allocations = 0u64;
    let mut phases = [0.0f64; 7];
    let mut counters = None;
    loop {
        let rep = run_rep(spec, &traced_builder, tracer, true, None);
        traced_reps += 1;
        traced_ticks += rep.ticks;
        traced_rates.extend(&rep.chunk_rates);
        allocations += rep.allocations;
        let obs = rep.dc.system().observability();
        for (total, (_, _, secs)) in phases.iter_mut().zip(obs.tick_phase_profile()) {
            *total += secs;
        }
        counters.get_or_insert_with(|| Counters::read(&rep.dc));
        observe(&rep.dc, tracer, ROOT);
        if Instant::now() >= deadline {
            break;
        }
    }
    let c = counters.expect("at least one traced repetition");
    let per_rep = |total: f64| total / traced_reps as f64;
    let ticks = per_rep(traced_ticks as f64);
    let step_s = tracer.durations_s("dynamo.step");
    let step_total_s: f64 = step_s.iter().sum();
    let tail = tail_percentile(step_s.len());
    out.notes.push(format!(
        "{traced_reps} traced repetitions, {} step spans; dynamo.step_p99_us is p{tail} \
         (the highest percentile with ten samples beyond it); *_s values are per repetition",
        step_s.len()
    ));
    let unattributed = 1.0 - phases.iter().sum::<f64>() / step_total_s;
    out.check(
        "phases_account_for_the_steps",
        unattributed < 0.05,
        format!(
            "{:.2}% of step time outside every phase",
            unattributed * 100.0
        ),
    );
    for (name, secs) in dynamo::TICK_PHASES.iter().zip(phases) {
        tracer.aggregates.push(Aggregate {
            name: format!("dynamo.phase.{name}"),
            parent_name: "dynamo.step",
            count: traced_ticks,
            total_s: secs,
        });
    }
    let med = |name: &str| median(&tracer.durations_s(name));
    let v = &mut out.values;
    v.set("dynamo.build_s", med("dynamo.build"));
    v.set("dynamo.step_s", per_rep(step_total_s));
    v.set("dynamo.step_p50_us", median(&step_s) * 1e6);
    v.set("dynamo.step_p99_us", percentile(&step_s, tail) * 1e6);
    v.set("dynamo.ticks", ticks);
    v.set("dynamo.server_steps", ticks * sim.servers as f64);
    // TICK_PHASES order: fleet_step, breaker_fold, grid, leaf_dispatch,
    // validator, telemetry_merge, fused_tile.
    let [fleet_step, breaker_fold, grid, leaf_dispatch, validator, telemetry_merge, fused_tile] =
        phases.map(per_rep);
    v.set("dynamo.phase.fused_tile_s", fused_tile);
    v.set("dynamo.phase.fleet_step_s", fleet_step);
    v.set("dynamo.phase.leaf_dispatch_s", leaf_dispatch);
    v.set("dynamo.phase.breaker_fold_s", breaker_fold);
    v.set("dynamo.phase.telemetry_merge_s", telemetry_merge);
    v.set("dynamo.phase.validator_s", validator);
    v.set("dynamo.phase.grid_s", grid);
    v.set("dynamo.phase.unattributed_frac", unattributed);
    v.set("dynamo.leaf_cycles_ran", c.cycles_ran);
    v.set("dynamo.leaf_cycles_elided", c.cycles_elided);
    let cycles = c.cycles_ran + c.cycles_elided;
    v.set(
        "dynamo.leaf_elide_ratio",
        if cycles > 0.0 {
            c.cycles_elided / cycles
        } else {
            0.0
        },
    );
    v.set("dynamo.settled_leaf_frac", c.settled_leaf_frac);
    v.set("dynamo.cap_events", sim.cap_events as f64);
    v.set("dynamo.uncap_events", sim.uncap_events as f64);
    v.set("dynamo.upper_contracts", sim.upper_contracts as f64);
    v.set("dynamo.alerts", sim.alerts as f64);
    v.set("dynamo.failovers", sim.failovers as f64);
    v.set("dynamo.bytes_per_tick", c.bytes_per_tick);
    v.set("dynrpc.calls", c.rpc_calls);
    v.set("dynrpc.failures", c.rpc_failures);
    v.set("alloc.per_tick", allocations as f64 / traced_ticks as f64);
    v.set("dynobs.prometheus_text_s", med("dynobs.prometheus_text"));
    v.set("dynamo.report_s", med("dynamo.report"));
    v.set(
        "trace.overhead_pct",
        100.0 * (1.0 - median(&traced_rates) / untraced_rate),
    );
    v.set("sim.breaker_trips", sim.breaker_trips as f64);
    v.set("sim.overdraw_max_sim_s", sim.overdraw_max_sim_s);
    v.set("sim.perf_loss_pct", sim.perf_loss_pct);
    v.set("sim.capped_frac", sim.capped_frac);
    v.set("host.worker_threads", spec.threads as f64);

    if spec.checkpoint_cycles > 0 {
        let mb = checkpoint_bytes as f64 / 1e6;
        v.set("checkpoint.write_s", med("checkpoint.write"));
        v.set("checkpoint.restore_s", med("checkpoint.restore"));
        v.set("checkpoint.mb", mb);
        // Each cycle has one write span and one read span of this name.
        v.set("checkpoint.io_s", 2.0 * med("checkpoint.io"));
        v.set("dynamo.state_s", med("dynamo.state"));
        v.set("dynamo.restore_s", med("dynamo.restore"));
        v.set("dcsim.snap_encode_mb_per_s", mb / med("dcsim.snap_encode"));
        v.set("dcsim.snap_decode_mb_per_s", mb / med("dcsim.snap_decode"));
    }

    // -- The repository's bit-identity property, checked once: the same
    // inputs on one thread give the same digest; its rate is the base
    // of the parallel efficiency.
    if spec.threads > 1 {
        let serial = run_rep(spec, &spec.builder(cfg, 1, false), tracer, false, None);
        let serial_digest = observe(&serial.dc, tracer, ROOT).digest;
        out.check(
            "serial_twin_has_the_same_digest",
            serial_digest == out.digest,
            format!("{} threads vs 1", spec.threads),
        );
        out.values.set(
            "dynpool.parallel_efficiency",
            untraced_rate / (spec.threads as f64 * median(&serial.chunk_rates)),
        );
    } else if spec.kind == SimKind::SiteWorstCase {
        out.notes.push(
            "one core: the serial twin and dynpool.parallel_efficiency are skipped".to_string(),
        );
    }

    // -- Layer probes, then the two reconciliations: what the probes'
    // per-call times, multiplied by the counted work, explain of the
    // phase the work ran in. Both phases fan out over the pool, so the
    // explained work is divided by the threads.
    let v = &mut out.values;
    probes::run(sim.servers, spec.threads, v);
    let probe_s = |v: &Values, name: &str| v.get(name).expect("set by probes::run") * 1e-9;
    let threads = spec.threads as f64;
    let fleet_work_s = ticks
        * sim.servers as f64
        * (probe_s(v, "workloads.draw_ns")
            + probe_s(v, "serverpower.lut_ns")
            + probe_s(v, "serverpower.settle_ns"));
    v.set(
        "recon.fleet_explained_frac",
        fleet_work_s / threads / (fused_tile + fleet_step),
    );
    let leaf_cycle = if spec.kind == SimKind::SiteWorstCase {
        "dynamo-controller.leaf_cycle_cap_ns"
    } else {
        "dynamo-controller.leaf_cycle_hold_ns"
    };
    let leaf_work_s = c.cycles_ran * LEAF_SERVERS as f64 * probe_s(v, leaf_cycle)
        + c.rpc_calls
            * (probe_s(v, "dynamo-agent.handle_read_ns")
                + probe_s(v, "dynrpc.codec_roundtrip_ns")
                + probe_s(v, "dynrpc.network_call_ns"));
    v.set(
        "recon.leaf_explained_frac",
        leaf_work_s / threads / leaf_dispatch,
    );
}
