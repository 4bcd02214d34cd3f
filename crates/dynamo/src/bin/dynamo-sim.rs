//! `dynamo-sim` — run a simulated datacenter under the Dynamo control
//! plane from the command line.
//!
//! ```text
//! dynamo-sim [--sbs N] [--rpps N] [--racks N] [--servers N]
//!            [--rpp-kw KW] [--sb-kw KW] [--msb-kw KW] [--service NAME]
//!            [--generation NAME] [--traffic X]
//!            [--minutes N] [--seed N] [--threads N] [--phase-spread SECS]
//!            [--no-capping] [--dry-run] [--turbo] [--report-every N]
//!            [--metrics-out FILE] [--trace-out FILE] [--incident-dir DIR]
//!            [--report-out FILE] [--profile-ticks] [--fail-leaf MIN]
//!            [--checkpoint-every MIN] [--checkpoint-dir DIR]
//!            [--resume FILE]
//!            [--grid-scenario NAME | --grid-signal-file FILE]
//! dynamo-sim replay --incident FILE --from SNAPSHOT [--out DIR]
//! ```
//!
//! Example — an oversubscribed web row that Dynamo must hold:
//!
//! ```text
//! dynamo-sim --rpps 1 --racks 2 --servers 20 --rpp-kw 11 --traffic 1.7
//! ```
//!
//! Checkpoints are versioned binary snapshots of every stateful layer
//! (clock, RNG streams, fleet physics, controllers, telemetry, rings).
//! A resumed run is bit-identical to the unbroken one: same report,
//! same Prometheus exposition, at any thread count. `replay`
//! re-executes an incident window deterministically from the nearest
//! checkpoint and verifies the regenerated flight-recorder dump matches
//! the original byte for byte.

use std::path::PathBuf;
use std::time::Instant;

use dcsim::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use dcsim::SimDuration;
use dynamo::{Datacenter, DatacenterBuilder, DatacenterState, GridConfig, ObsConfig, RunReport};
use dyngrid::GridScenario;
use powerinfra::Power;
use serverpower::ServerGeneration;
use workloads::{ServiceKind, TrafficPattern};

#[derive(Debug)]
struct Args {
    sbs: usize,
    rpps: usize,
    racks: usize,
    servers: usize,
    rpp_kw: Option<f64>,
    sb_kw: Option<f64>,
    msb_kw: Option<f64>,
    service: ServiceKind,
    generation: ServerGeneration,
    traffic: f64,
    minutes: u64,
    seed: u64,
    threads: usize,
    phase_spread: f64,
    capping: bool,
    dry_run: bool,
    turbo: bool,
    report_every: u64,
    metrics_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    incident_dir: Option<PathBuf>,
    report_out: Option<PathBuf>,
    fail_leaf: Option<u64>,
    checkpoint_every: Option<u64>,
    checkpoint_dir: Option<PathBuf>,
    resume: Option<PathBuf>,
    grid_scenario: Option<String>,
    grid_signal_file: Option<PathBuf>,
    profile_ticks: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            sbs: 1,
            rpps: 2,
            racks: 2,
            servers: 20,
            rpp_kw: None,
            sb_kw: None,
            msb_kw: None,
            service: ServiceKind::Web,
            generation: ServerGeneration::Haswell2015,
            traffic: 1.2,
            minutes: 10,
            seed: 0,
            threads: 1,
            phase_spread: 0.0,
            capping: true,
            dry_run: false,
            turbo: false,
            report_every: 1,
            metrics_out: None,
            trace_out: None,
            incident_dir: None,
            report_out: None,
            fail_leaf: None,
            checkpoint_every: None,
            checkpoint_dir: None,
            resume: None,
            grid_scenario: None,
            grid_signal_file: None,
            profile_ticks: false,
        }
    }
}

impl Args {
    fn observing(&self) -> bool {
        self.metrics_out.is_some()
            || self.trace_out.is_some()
            || self.incident_dir.is_some()
            // The profiler observes into the registry's tick-phase
            // histograms, so it needs recording on.
            || self.profile_ticks
    }

    /// Every range check on the arguments, shared by the command line
    /// and the checkpoint envelope (which is outside input too), so
    /// that nothing the builder asserts can be reached from either.
    fn validate(&self) -> Result<(), String> {
        for (flag, zero) in [
            ("--sbs", self.sbs == 0),
            ("--rpps", self.rpps == 0),
            ("--racks", self.racks == 0),
            ("--servers", self.servers == 0),
            ("--minutes", self.minutes == 0),
            ("--report-every", self.report_every == 0),
            ("--threads", self.threads == 0),
            ("--checkpoint-every", self.checkpoint_every == Some(0)),
        ] {
            if zero {
                return Err(format!("{flag} must be at least 1"));
            }
        }
        for (flag, kw) in [
            ("--rpp-kw", self.rpp_kw),
            ("--sb-kw", self.sb_kw),
            ("--msb-kw", self.msb_kw),
        ] {
            if kw.is_some_and(|kw| !kw.is_finite() || kw <= 0.0) {
                return Err(format!("{flag} must be a positive number of kilowatts"));
            }
        }
        for (flag, x) in [
            ("--traffic", self.traffic),
            ("--phase-spread", self.phase_spread),
        ] {
            if !x.is_finite() || x < 0.0 {
                return Err(format!("{flag} must be a finite, non-negative number"));
            }
        }
        if let Some(m) = self.fail_leaf {
            if m == 0 || m > self.minutes {
                return Err(format!(
                    "--fail-leaf must be between 1 and --minutes ({}), got {m}",
                    self.minutes
                ));
            }
        }
        if self.grid_scenario.is_some() && self.grid_signal_file.is_some() {
            return Err(
                "--grid-scenario and --grid-signal-file are mutually exclusive".to_string(),
            );
        }
        // The envelope is one `key=value` per line: a line break inside
        // a value would read back as further keys.
        fn path(p: &Option<PathBuf>) -> Option<std::borrow::Cow<'_, str>> {
            p.as_ref().map(|p| p.to_string_lossy())
        }
        for (flag, text) in [
            ("--metrics-out", path(&self.metrics_out)),
            ("--trace-out", path(&self.trace_out)),
            ("--incident-dir", path(&self.incident_dir)),
            ("--report-out", path(&self.report_out)),
            ("--checkpoint-dir", path(&self.checkpoint_dir)),
            ("--resume", path(&self.resume)),
            (
                "--grid-scenario",
                self.grid_scenario.as_deref().map(Into::into),
            ),
            ("--grid-signal-file", path(&self.grid_signal_file)),
        ] {
            if text.is_some_and(|t| t.contains(char::is_control)) {
                return Err(format!("{flag} must not contain control characters"));
            }
        }
        Ok(())
    }
}

fn parse_service(name: &str) -> Result<ServiceKind, String> {
    ServiceKind::all()
        .into_iter()
        .find(|k| k.label() == name)
        .ok_or_else(|| {
            let names: Vec<&str> = ServiceKind::all().iter().map(|k| k.label()).collect();
            format!("unknown service '{name}'; one of: {}", names.join(", "))
        })
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    fn value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a str, String> {
        it.next()
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    }
    fn num<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String> {
        v.parse()
            .map_err(|_| format!("invalid value '{v}' for {flag}"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--sbs" => args.sbs = num(value(&mut it, flag)?, flag)?,
            "--rpps" => args.rpps = num(value(&mut it, flag)?, flag)?,
            "--racks" => args.racks = num(value(&mut it, flag)?, flag)?,
            "--servers" => args.servers = num(value(&mut it, flag)?, flag)?,
            "--rpp-kw" => args.rpp_kw = Some(num(value(&mut it, flag)?, flag)?),
            "--sb-kw" => args.sb_kw = Some(num(value(&mut it, flag)?, flag)?),
            "--msb-kw" => args.msb_kw = Some(num(value(&mut it, flag)?, flag)?),
            "--service" => args.service = parse_service(value(&mut it, flag)?)?,
            "--generation" => {
                let v = value(&mut it, flag)?;
                args.generation = ServerGeneration::from_label(v)
                    .ok_or_else(|| format!("unknown generation '{v}'"))?;
            }
            "--traffic" => args.traffic = num(value(&mut it, flag)?, flag)?,
            "--minutes" => args.minutes = num(value(&mut it, flag)?, flag)?,
            "--seed" => args.seed = num(value(&mut it, flag)?, flag)?,
            "--threads" => args.threads = num(value(&mut it, flag)?, flag)?,
            "--phase-spread" => args.phase_spread = num(value(&mut it, flag)?, flag)?,
            "--report-every" => args.report_every = num(value(&mut it, flag)?, flag)?,
            "--metrics-out" => args.metrics_out = Some(PathBuf::from(value(&mut it, flag)?)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value(&mut it, flag)?)),
            "--incident-dir" => args.incident_dir = Some(PathBuf::from(value(&mut it, flag)?)),
            "--report-out" => args.report_out = Some(PathBuf::from(value(&mut it, flag)?)),
            "--fail-leaf" => args.fail_leaf = Some(num(value(&mut it, flag)?, flag)?),
            "--checkpoint-every" => args.checkpoint_every = Some(num(value(&mut it, flag)?, flag)?),
            "--checkpoint-dir" => args.checkpoint_dir = Some(PathBuf::from(value(&mut it, flag)?)),
            "--resume" => args.resume = Some(PathBuf::from(value(&mut it, flag)?)),
            "--grid-scenario" => {
                let v = value(&mut it, flag)?;
                if GridScenario::preset(v).is_none() {
                    return Err(format!(
                        "unknown grid scenario '{v}'; one of: {}",
                        GridScenario::preset_names().join(", ")
                    ));
                }
                args.grid_scenario = Some(v.to_string());
            }
            "--grid-signal-file" => {
                args.grid_signal_file = Some(PathBuf::from(value(&mut it, flag)?))
            }
            "--no-capping" => args.capping = false,
            "--dry-run" => args.dry_run = true,
            "--turbo" => args.turbo = true,
            "--profile-ticks" => args.profile_ticks = true,
            "--help" | "-h" => return Err("help".to_string()),
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    args.validate()?;
    Ok(args)
}

fn usage() -> &'static str {
    "dynamo-sim: simulate a datacenter under the Dynamo power control plane\n\
     \n\
     topology:  --sbs N --rpps N --racks N --servers N (per rack)\n\
     ratings:   --rpp-kw KW --sb-kw KW --msb-kw KW (defaults: OCP 190 kW / 1.25 MW / 2.5 MW)\n\
     workload:  --service web|cache|hadoop|database|newsfeed|f4storage\n\
     \x20          --generation westmere2011|sandybridge2012|ivybridge2013|haswell2015\n\
     \x20          --traffic X (multiplier, 1.0 = nominal) --turbo\n\
     run:       --minutes N --seed N --report-every N\n\
     \x20          --threads N (worker threads for fleet physics and leaf\n\
     \x20          control cycles; results are bit-identical at any count)\n\
     \x20          --phase-spread SECS (stagger controller cycle phases\n\
     \x20          evenly across this window; 0 = lockstep, the default)\n\
     modes:     --no-capping (monitor only) --dry-run (decide, don't act)\n\
     observability (enabling any of these turns recording on):\n\
     \x20          --metrics-out FILE (Prometheus text exposition)\n\
     \x20          --trace-out FILE (chrome-tracing JSON of controller cycles)\n\
     \x20          --incident-dir DIR (flight-recorder incident dumps)\n\
     \x20          --report-out FILE (final run report, for byte diffs)\n\
     \x20          --profile-ticks (time each tick phase into the\n\
     \x20          dynamo_tick_phase_seconds histograms and print an\n\
     \x20          Amdahl attribution table after the run)\n\
     faults:    --fail-leaf MIN (crash the first leaf controller's primary\n\
     \x20          at the start of that minute; the backup takes over)\n\
     snapshots: --checkpoint-every MIN (write a versioned snapshot of every\n\
     \x20          stateful layer at that cadence; resumed runs are\n\
     \x20          bit-identical to unbroken ones)\n\
     \x20          --checkpoint-dir DIR (default: checkpoints)\n\
     \x20          --resume FILE (continue a checkpointed run; topology,\n\
     \x20          workload and seed come from the snapshot — only run\n\
     \x20          horizon, threads, cadence and output flags may change)\n\
     replay:    dynamo-sim replay --incident FILE --from SNAPSHOT [--out DIR]\n\
     \x20          re-execute an incident window from the nearest checkpoint\n\
     \x20          and verify the regenerated dump is byte-identical\n\
     grid:      --grid-scenario nominal|brownout|curtailment-window|\n\
     \x20          frequency-excursion|price-spike (deploy the grid-interactive\n\
     \x20          layer with a named utility-signal preset)\n\
     \x20          --grid-signal-file FILE (custom schedule: lines of\n\
     \x20          'start_s price_per_mwh frequency_hz curtail_frac|-')"
}

// ---------------------------------------------------------------------------
// Checkpoint file: an args envelope (so `--resume` can rebuild the exact
// same datacenter) plus the full DatacenterState snapshot.
// ---------------------------------------------------------------------------

/// One checkpoint file. The envelope is the canonical `key=value`
/// rendering of the original invocation's builder-relevant arguments;
/// the state is every stateful layer of the simulation.
struct Checkpoint {
    envelope: String,
    state: DatacenterState,
}

impl Snapshot for Checkpoint {
    const KIND: &'static str = "dynamo-sim.Checkpoint";
    // Bump when the envelope key set changes, so an old binary rejects
    // a newer checkpoint instead of misreading it.
    // v2: grid_scenario/grid_signal_file envelope keys, grid layer in
    // the datacenter state.
    const VERSION: u32 = 2;

    fn encode_body(&self, w: &mut SnapWriter) {
        w.put_str(&self.envelope);
        self.state.encode_body(w);
    }

    fn decode_body(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Checkpoint {
            envelope: r.get_str()?,
            state: DatacenterState::decode_body(r)?,
        })
    }
}

/// Renders the arguments that determine the simulated universe (plus
/// the run schedule) as deterministic `key=value` lines. Floats use
/// Rust's shortest-round-trip formatting, so parsing is exact.
fn envelope_of(args: &Args) -> String {
    let mut s = String::new();
    let mut kv = |k: &str, v: String| {
        s.push_str(k);
        s.push('=');
        s.push_str(&v);
        s.push('\n');
    };
    kv("sbs", args.sbs.to_string());
    kv("rpps", args.rpps.to_string());
    kv("racks", args.racks.to_string());
    kv("servers", args.servers.to_string());
    if let Some(kw) = args.rpp_kw {
        kv("rpp_kw", format!("{kw:?}"));
    }
    if let Some(kw) = args.sb_kw {
        kv("sb_kw", format!("{kw:?}"));
    }
    if let Some(kw) = args.msb_kw {
        kv("msb_kw", format!("{kw:?}"));
    }
    kv("service", args.service.label().to_string());
    kv("generation", args.generation.label().to_string());
    kv("traffic", format!("{:?}", args.traffic));
    kv("minutes", args.minutes.to_string());
    kv("seed", args.seed.to_string());
    kv("threads", args.threads.to_string());
    kv("phase_spread", format!("{:?}", args.phase_spread));
    kv("capping", args.capping.to_string());
    kv("dry_run", args.dry_run.to_string());
    kv("turbo", args.turbo.to_string());
    kv("report_every", args.report_every.to_string());
    if let Some(p) = &args.metrics_out {
        kv("metrics_out", p.display().to_string());
    }
    if let Some(p) = &args.trace_out {
        kv("trace_out", p.display().to_string());
    }
    if let Some(p) = &args.incident_dir {
        kv("incident_dir", p.display().to_string());
    }
    if let Some(m) = args.fail_leaf {
        kv("fail_leaf", m.to_string());
    }
    if let Some(name) = &args.grid_scenario {
        kv("grid_scenario", name.clone());
    }
    if let Some(p) = &args.grid_signal_file {
        kv("grid_signal_file", p.display().to_string());
    }
    s
}

/// Parses an envelope back into [`Args`]. Unknown keys are an error —
/// an envelope written by a newer binary must fail loudly, not be
/// half-applied — and so is a repeated key: [`envelope_of`] writes each
/// once, so a second occurrence is not its work.
fn args_from_envelope(envelope: &str) -> Result<Args, String> {
    let mut args = Args::default();
    let mut seen: Vec<&str> = Vec::new();
    for line in envelope.lines() {
        if line.is_empty() {
            continue;
        }
        let (k, v) = line
            .split_once('=')
            .ok_or_else(|| format!("malformed envelope line '{line}'"))?;
        if seen.contains(&k) {
            return Err(format!("envelope key '{k}' appears twice"));
        }
        seen.push(k);
        fn num<T: std::str::FromStr>(v: &str, k: &str) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("invalid envelope value '{v}' for {k}"))
        }
        match k {
            "sbs" => args.sbs = num(v, k)?,
            "rpps" => args.rpps = num(v, k)?,
            "racks" => args.racks = num(v, k)?,
            "servers" => args.servers = num(v, k)?,
            "rpp_kw" => args.rpp_kw = Some(num(v, k)?),
            "sb_kw" => args.sb_kw = Some(num(v, k)?),
            "msb_kw" => args.msb_kw = Some(num(v, k)?),
            "service" => args.service = parse_service(v)?,
            "generation" => {
                args.generation = ServerGeneration::from_label(v)
                    .ok_or_else(|| format!("unknown generation '{v}' in envelope"))?;
            }
            "traffic" => args.traffic = num(v, k)?,
            "minutes" => args.minutes = num(v, k)?,
            "seed" => args.seed = num(v, k)?,
            "threads" => args.threads = num(v, k)?,
            "phase_spread" => args.phase_spread = num(v, k)?,
            "capping" => args.capping = num(v, k)?,
            "dry_run" => args.dry_run = num(v, k)?,
            "turbo" => args.turbo = num(v, k)?,
            "report_every" => args.report_every = num(v, k)?,
            "metrics_out" => args.metrics_out = Some(PathBuf::from(v)),
            "trace_out" => args.trace_out = Some(PathBuf::from(v)),
            "incident_dir" => args.incident_dir = Some(PathBuf::from(v)),
            "fail_leaf" => args.fail_leaf = Some(num(v, k)?),
            "grid_scenario" => args.grid_scenario = Some(v.to_string()),
            "grid_signal_file" => args.grid_signal_file = Some(PathBuf::from(v)),
            other => {
                return Err(format!(
                    "unknown envelope key '{other}' — checkpoint written by a newer dynamo-sim?"
                ))
            }
        }
    }
    args.validate()?;
    Ok(args)
}

/// Resolves the grid flags into a scenario: a named preset, or a
/// custom schedule file parsed by [`GridScenario::parse`].
fn grid_scenario_of(args: &Args) -> Result<Option<GridScenario>, String> {
    if let Some(name) = &args.grid_scenario {
        let scenario =
            GridScenario::preset(name).ok_or_else(|| format!("unknown grid scenario '{name}'"))?;
        return Ok(Some(scenario));
    }
    if let Some(path) = &args.grid_signal_file {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "custom".to_string());
        let scenario =
            GridScenario::parse(&name, &text).map_err(|e| format!("{}: {e}", path.display()))?;
        return Ok(Some(scenario));
    }
    Ok(None)
}

/// Worker threads to actually start for a `--threads` request: more
/// than the host has cores would only oversubscribe it, and the thread
/// count never changes a result, so the request is capped here — the
/// library builds exactly the pool it is asked for.
fn pool_width(requested: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    requested.min(cores)
}

/// Builds the datacenter exactly as the original invocation did.
fn build_datacenter(args: &Args) -> Result<Datacenter, String> {
    let mut builder = DatacenterBuilder::new()
        .sbs_per_msb(args.sbs)
        .rpps_per_sb(args.rpps)
        .racks_per_rpp(args.racks)
        .servers_per_rack(args.servers)
        .uniform_service(args.service)
        .generation(args.generation)
        .traffic(args.service, TrafficPattern::flat(args.traffic))
        .capping_enabled(args.capping)
        .dry_run(args.dry_run)
        .worker_threads(pool_width(args.threads))
        .phase_spread(SimDuration::from_secs_f64(args.phase_spread))
        .seed(args.seed);
    if let Some(kw) = args.rpp_kw {
        builder = builder.rpp_rating(Power::from_kilowatts(kw));
    }
    if let Some(kw) = args.sb_kw {
        builder = builder.sb_rating(Power::from_kilowatts(kw));
    }
    if let Some(kw) = args.msb_kw {
        builder = builder.msb_rating(Power::from_kilowatts(kw));
    }
    if args.turbo {
        builder = builder.turbo(args.service);
    }
    if let Some(scenario) = grid_scenario_of(args)? {
        builder = builder.grid(GridConfig::for_scenario(scenario));
    }
    if args.observing() {
        builder = builder.observability(ObsConfig {
            enabled: true,
            incident_dir: args.incident_dir.clone(),
        });
    }
    builder = builder.profile_ticks(args.profile_ticks);
    Ok(builder.build())
}

fn write_checkpoint(dc: &mut Datacenter, args: &Args, minute: u64) -> Result<PathBuf, String> {
    let dir = args
        .checkpoint_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("checkpoints"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let cp = Checkpoint {
        envelope: envelope_of(args),
        state: dc.state(),
    };
    let path = dir.join(format!("checkpoint-{minute:05}.snap"));
    std::fs::write(&path, cp.to_snap_bytes()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn load_checkpoint(path: &PathBuf) -> Result<Checkpoint, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Checkpoint::from_snap_bytes(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// Flags that define the simulated universe and therefore cannot be
/// changed on `--resume` — the snapshot's envelope is authoritative.
const FROZEN_ON_RESUME: &[&str] = &[
    "--sbs",
    "--rpps",
    "--racks",
    "--servers",
    "--rpp-kw",
    "--sb-kw",
    "--msb-kw",
    "--service",
    "--generation",
    "--traffic",
    "--seed",
    "--phase-spread",
    "--no-capping",
    "--dry-run",
    "--turbo",
    "--fail-leaf",
    "--grid-scenario",
    "--grid-signal-file",
];

/// Merges a resume invocation into the checkpoint's stored arguments:
/// universe-defining flags are frozen, run-control and output flags may
/// be overridden by the current command line.
fn merge_resume_args(stored: Args, current: &Args, argv: &[String]) -> Result<Args, String> {
    let explicit = |flag: &str| argv.iter().any(|a| a == flag);
    for flag in FROZEN_ON_RESUME {
        if explicit(flag) {
            return Err(format!(
                "{flag} cannot be changed on --resume; it is fixed by the checkpoint"
            ));
        }
    }
    let mut merged = stored;
    if explicit("--minutes") {
        merged.minutes = current.minutes;
    }
    if explicit("--report-every") {
        merged.report_every = current.report_every;
    }
    if explicit("--threads") {
        merged.threads = current.threads;
    }
    if explicit("--metrics-out") {
        merged.metrics_out = current.metrics_out.clone();
    }
    if explicit("--trace-out") {
        merged.trace_out = current.trace_out.clone();
    }
    if explicit("--incident-dir") {
        merged.incident_dir = current.incident_dir.clone();
    }
    if explicit("--report-out") {
        merged.report_out = current.report_out.clone();
    }
    if explicit("--profile-ticks") {
        merged.profile_ticks = current.profile_ticks;
    }
    merged.checkpoint_every = current.checkpoint_every;
    merged.checkpoint_dir = current.checkpoint_dir.clone();
    merged.resume = None;
    // Each side passed alone; the mix (a shorter horizon under a stored
    // --fail-leaf) must too, or this run writes envelopes it would
    // itself refuse to resume.
    merged.validate()?;
    Ok(merged)
}

/// Runs minutes `start_minute+1 ..= args.minutes`, injecting the
/// scheduled fault, reporting, and checkpointing. Returns the exit code.
fn run(dc: &mut Datacenter, args: &Args, start_minute: u64) -> i32 {
    for m in (start_minute + 1)..=args.minutes {
        if args.fail_leaf == Some(m) {
            let victim = dc.system().leaf_devices()[0];
            dc.system_mut().fail_primary(victim);
            println!("t={m:>4} min  injected primary failure at {victim}");
        }
        dc.run_for(SimDuration::from_mins(1));
        if m % args.report_every == 0 {
            let stats = dc.fleet().stats();
            println!(
                "t={m:>4} min  power {:>9.2} kW  capped {:>4}  trips {}  alerts {}",
                stats.total_power.as_kilowatts(),
                stats.capped_servers,
                dc.telemetry().breaker_trips().len(),
                dc.system().alerts().len()
            );
        }
        if let Some(every) = args.checkpoint_every {
            if m % every == 0 {
                let started = Instant::now();
                match write_checkpoint(dc, args, m) {
                    Ok(path) => println!(
                        "t={m:>4} min  checkpoint {} ({} ms)",
                        path.display(),
                        started.elapsed().as_millis()
                    ),
                    Err(e) => {
                        eprintln!("error: could not write checkpoint: {e}");
                        return 1;
                    }
                }
            }
        }
    }
    if args.observing() {
        if let Err(e) = dc.system_mut().observability_mut().flush_incidents() {
            eprintln!("error: could not write incident dumps: {e}");
            return 1;
        }
        let obs = dc.system().observability();
        if let Some(path) = &args.metrics_out {
            if let Err(e) = std::fs::write(path, obs.prometheus_text()) {
                eprintln!("error: could not write {}: {e}", path.display());
                return 1;
            }
            println!("metrics:   {}", path.display());
        }
        if let Some(path) = &args.trace_out {
            if let Err(e) = std::fs::write(path, obs.chrome_trace()) {
                eprintln!("error: could not write {}: {e}", path.display());
                return 1;
            }
            println!("trace:     {}", path.display());
        }
        if let Some(dir) = &args.incident_dir {
            println!("incidents: {} in {}", obs.incidents(), dir.display());
        }
    }
    if args.profile_ticks {
        print_tick_profile(dc);
    }
    let report = RunReport::from_datacenter(dc);
    if let Some(path) = &args.report_out {
        if let Err(e) = std::fs::write(path, report.to_string()) {
            eprintln!("error: could not write {}: {e}", path.display());
            return 1;
        }
        println!("report:    {}", path.display());
    }
    println!("\n{report}");
    i32::from(!report.is_healthy())
}

/// Prints the per-phase tick-time attribution recorded by
/// `--profile-ticks`: where the wall clock of a worst-case tick goes,
/// and therefore what Amdahl's law says further threads can buy.
fn print_tick_profile(dc: &Datacenter) {
    let rows = dc.system().observability().tick_phase_profile();
    let total: f64 = rows.iter().map(|&(_, _, sum)| sum).sum();
    println!("\ntick phase profile (wall time inside Datacenter::step):");
    println!(
        "  {:<16} {:>10} {:>12} {:>11} {:>7}",
        "phase", "ticks", "total s", "mean \u{00b5}s", "share"
    );
    for (phase, count, sum) in rows {
        let mean_us = if count > 0 {
            sum / count as f64 * 1e6
        } else {
            0.0
        };
        let share = if total > 0.0 {
            sum / total * 100.0
        } else {
            0.0
        };
        println!("  {phase:<16} {count:>10} {sum:>12.4} {mean_us:>11.1} {share:>6.1}%");
    }
    println!("  {:<16} {:>10} {total:>12.4}", "total", "");
}

// ---------------------------------------------------------------------------
// replay: re-execute an incident window from the nearest checkpoint.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct ReplayArgs {
    incident: PathBuf,
    from: PathBuf,
    out: PathBuf,
}

fn parse_replay_args(argv: &[String]) -> Result<ReplayArgs, String> {
    let mut incident = None;
    let mut from = None;
    let mut out = PathBuf::from("replay-incidents");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .map(PathBuf::from)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--incident" => incident = Some(value(flag)?),
            "--from" => from = Some(value(flag)?),
            "--out" => out = value(flag)?,
            "--help" | "-h" => return Err("help".to_string()),
            other => return Err(format!("unknown replay flag '{other}' (try --help)")),
        }
    }
    Ok(ReplayArgs {
        incident: incident.ok_or("replay needs --incident FILE")?,
        from: from.ok_or("replay needs --from SNAPSHOT")?,
        out,
    })
}

/// Pulls a `"key":<u64>` field out of a flat incident JSON dump.
fn json_u64_field(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let digits: String = json[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Pulls a `"key":"<string>"` field out of a flat incident JSON dump.
fn json_str_field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":\"");
    let start = json.find(&needle)? + needle.len();
    let end = json[start..].find('"')?;
    Some(&json[start..start + end])
}

fn replay(argv: &[String]) -> i32 {
    let rargs = match parse_replay_args(argv) {
        Ok(a) => a,
        Err(e) if e == "help" => {
            println!("{}", usage());
            return 0;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return 2;
        }
    };
    let original = match std::fs::read_to_string(&rargs.incident) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {}: {e}", rargs.incident.display());
            return 2;
        }
    };
    let (Some(seq), Some(at_ms), Some(trigger)) = (
        json_u64_field(&original, "incident"),
        json_u64_field(&original, "at_ms"),
        json_str_field(&original, "trigger"),
    ) else {
        eprintln!(
            "error: {} does not look like an incident dump (missing incident/at_ms/trigger)",
            rargs.incident.display()
        );
        return 2;
    };
    let cp = match load_checkpoint(&rargs.from) {
        Ok(cp) => cp,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let mut args = match args_from_envelope(&cp.envelope) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    if args.incident_dir.is_none() {
        eprintln!("error: the checkpointed run recorded no incidents (--incident-dir was not set)");
        return 2;
    }
    // Redirect regenerated dumps so the originals are never touched.
    args.incident_dir = Some(rargs.out.clone());

    let mut dc = match build_datacenter(&args) {
        Ok(dc) => dc,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    if let Err(e) = dc.restore(&cp.state) {
        eprintln!("error: restore from {}: {e}", rargs.from.display());
        return 2;
    }
    if dc.now().as_millis() > at_ms {
        eprintln!(
            "error: snapshot is at t={} s, after the incident at t={} s; use an earlier checkpoint",
            dc.now().as_secs(),
            at_ms / 1000
        );
        return 2;
    }
    println!(
        "replay: incident {seq} ({trigger}) at t={} s, from checkpoint at t={} s",
        at_ms / 1000,
        dc.now().as_secs()
    );

    let expected = rargs.out.join(format!("incident-{seq:04}-{trigger}.json"));
    let horizon_ms = args.minutes * 60_000;
    while dc.now().as_millis() < horizon_ms {
        if let Some(m) = args.fail_leaf {
            if dc.now().as_millis() == (m - 1) * 60_000 {
                let victim = dc.system().leaf_devices()[0];
                dc.system_mut().fail_primary(victim);
            }
        }
        dc.step();
        if let Err(e) = dc.system_mut().observability_mut().flush_incidents() {
            eprintln!("error: could not write replayed incident dumps: {e}");
            return 2;
        }
        if expected.exists() {
            break;
        }
    }
    let replayed = match std::fs::read_to_string(&expected) {
        Ok(s) => s,
        Err(_) => {
            eprintln!(
                "error: replay reached the run horizon without regenerating incident {seq}; \
                 is {} the right checkpoint for this incident?",
                rargs.from.display()
            );
            return 1;
        }
    };
    if replayed == original {
        println!(
            "replay: {} reproduced byte-for-byte ({} bytes)",
            expected.display(),
            replayed.len()
        );
        0
    } else {
        eprintln!(
            "error: replayed dump {} differs from {} ({} vs {} bytes)",
            expected.display(),
            rargs.incident.display(),
            replayed.len(),
            original.len()
        );
        1
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("replay") {
        std::process::exit(replay(&argv[1..]));
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) if e == "help" => {
            println!("{}", usage());
            return;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            std::process::exit(2);
        }
    };

    let (args, mut dc, start_minute) = if let Some(path) = &args.resume {
        let cp = match load_checkpoint(path) {
            Ok(cp) => cp,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        let stored = match args_from_envelope(&cp.envelope) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        let merged = match merge_resume_args(stored, &args, &argv) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        let started = Instant::now();
        let mut dc = match build_datacenter(&merged) {
            Ok(dc) => dc,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        if let Err(e) = dc.restore(&cp.state) {
            eprintln!("error: restore from {}: {e}", path.display());
            std::process::exit(2);
        }
        let start_minute = dc.now().as_millis() / 60_000;
        if start_minute >= merged.minutes {
            eprintln!(
                "error: checkpoint is at minute {start_minute}, at or past the {} minute horizon; \
                 extend with --minutes",
                merged.minutes
            );
            std::process::exit(2);
        }
        println!(
            "dynamo-sim: resumed {} at t={} min ({} ms load+restore)\n",
            path.display(),
            start_minute,
            started.elapsed().as_millis()
        );
        (merged, dc, start_minute)
    } else {
        let dc = match build_datacenter(&args) {
            Ok(dc) => dc,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        (args, dc, 0)
    };

    if start_minute == 0 {
        println!(
            "dynamo-sim: {} {} servers, capping={}, dry_run={}, {} min at seed {}\n",
            dc.fleet().len(),
            args.service.label(),
            args.capping,
            args.dry_run,
            args.minutes,
            args.seed
        );
    }
    std::process::exit(run(&mut dc, &args, start_minute));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_apply_with_no_flags() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.servers, 20);
        assert!(a.capping);
        assert!(!a.dry_run);
        assert_eq!(a.service, ServiceKind::Web);
    }

    #[test]
    fn full_flag_set_parses() {
        let a = parse(&[
            "--sbs",
            "2",
            "--rpps",
            "3",
            "--racks",
            "4",
            "--servers",
            "10",
            "--rpp-kw",
            "12.5",
            "--service",
            "hadoop",
            "--generation",
            "westmere2011",
            "--traffic",
            "1.5",
            "--minutes",
            "30",
            "--seed",
            "9",
            "--threads",
            "4",
            "--no-capping",
            "--turbo",
        ])
        .unwrap();
        assert_eq!((a.sbs, a.rpps, a.racks, a.servers), (2, 3, 4, 10));
        assert_eq!(a.rpp_kw, Some(12.5));
        assert_eq!(a.service, ServiceKind::Hadoop);
        assert_eq!(a.generation, ServerGeneration::Westmere2011);
        assert!(!a.capping && a.turbo);
        assert_eq!(a.threads, 4);
    }

    #[test]
    fn unknown_flag_and_missing_value_error() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--servers"]).is_err());
        assert!(parse(&["--servers", "lots"]).is_err());
        assert!(parse(&["--service", "excel"]).is_err());
        assert!(parse(&["--minutes", "0"]).is_err());
    }

    #[test]
    fn out_of_range_values_are_errors_naming_the_flag() {
        for (flag, bad) in [
            ("--sbs", "0"),
            ("--rpps", "0"),
            ("--racks", "0"),
            ("--servers", "0"),
            ("--rpp-kw", "0"),
            ("--rpp-kw", "-5"),
            ("--rpp-kw", "inf"),
            ("--sb-kw", "-1"),
            ("--msb-kw", "-1"),
            ("--traffic", "NaN"),
            ("--traffic", "-1"),
        ] {
            let e = parse(&[flag, bad]).unwrap_err();
            assert!(e.contains(flag), "{flag} {bad}: {e}");
        }
        assert!(parse(&["--traffic", "0"]).is_ok());
    }

    #[test]
    fn envelope_applies_the_same_range_checks() {
        let good = envelope_of(&parse(&[]).unwrap());
        assert!(args_from_envelope(&good).is_ok());
        for bad in [
            "threads=0",
            "minutes=0",
            "report_every=0",
            "phase_spread=NaN",
            "fail_leaf=0",
            "fail_leaf=11",
            "servers=0",
            "sbs=0",
            "rpp_kw=-5.0",
            "msb_kw=0.0",
            "traffic=NaN",
            "traffic=-1.0",
        ] {
            let key = bad.split_once('=').unwrap().0;
            let mut lines: Vec<&str> = good
                .lines()
                .filter(|l| l.split_once('=').unwrap().0 != key)
                .collect();
            lines.push(bad);
            let r = args_from_envelope(&lines.join("\n"));
            assert!(r.is_err(), "{bad} was accepted");
        }
    }

    /// A line break in a path would write an envelope whose extra lines
    /// read back as keys of their own — a resumed run on another
    /// universe.
    #[test]
    fn a_path_cannot_forge_envelope_keys() {
        for (flag, value) in [
            ("--trace-out", "t.json\ntraffic=0.1"),
            ("--metrics-out", "out.prom\nservers=9"),
            ("--incident-dir", "inc\r"),
            ("--report-out", "r\u{85}.txt"),
            ("--checkpoint-dir", "cps\t"),
            ("--resume", "cp\n.snap"),
            ("--grid-signal-file", "sig\n.txt"),
        ] {
            let e = parse(&[flag, value]).unwrap_err();
            assert!(e.contains(flag), "{flag}: {e}");
        }
        let e = args_from_envelope("grid_scenario=brown\tout\n").unwrap_err();
        assert!(e.contains("--grid-scenario"), "{e}");
        // Whoever wrote it, a key is read once.
        let e = args_from_envelope("traffic=1.2\ntraffic=0.1\n").unwrap_err();
        assert!(e.contains("'traffic' appears twice"), "{e}");
    }

    /// Arguments drawn to sit on every side of every check, with the
    /// fields the envelope does not carry left at their defaults.
    fn random_args(rng: &mut dcsim::SimRng) -> Args {
        fn count(rng: &mut dcsim::SimRng) -> u64 {
            rng.next_below(12)
        }
        fn real(rng: &mut dcsim::SimRng) -> f64 {
            const REALS: [f64; 10] = [
                0.0,
                -0.0,
                0.1,
                0.30000000000000004,
                1.5,
                5e-324,
                f64::MAX,
                -1.0,
                f64::NAN,
                f64::INFINITY,
            ];
            let valid_only = rng.chance(0.9);
            REALS[rng.next_below(if valid_only { 7 } else { 10 }) as usize]
        }
        fn text(rng: &mut dcsim::SimRng) -> String {
            const CHARS: [char; 12] = [
                'a', 'Z', '7', '/', '.', '=', ' ', 'é', '\u{2028}', '\n', '\r', '\u{85}',
            ];
            let hazards = if rng.chance(0.8) { 9 } else { 12 };
            (0..rng.next_below(6))
                .map(|_| CHARS[rng.next_below(hazards) as usize])
                .collect()
        }
        fn maybe<T>(rng: &mut dcsim::SimRng, draw: fn(&mut dcsim::SimRng) -> T) -> Option<T> {
            rng.chance(0.5).then(|| draw(rng))
        }
        let mut a = Args {
            sbs: count(rng) as usize,
            rpps: count(rng) as usize,
            racks: count(rng) as usize,
            servers: count(rng) as usize,
            rpp_kw: maybe(rng, real),
            sb_kw: maybe(rng, real),
            msb_kw: maybe(rng, real),
            service: ServiceKind::all()[rng.next_below(ServiceKind::COUNT as u64) as usize],
            generation: ServerGeneration::all()[rng.next_below(4) as usize],
            traffic: real(rng),
            minutes: count(rng),
            seed: rng.next_u64(),
            threads: count(rng) as usize,
            phase_spread: real(rng),
            capping: rng.chance(0.5),
            dry_run: rng.chance(0.5),
            turbo: rng.chance(0.5),
            report_every: count(rng),
            metrics_out: maybe(rng, text).map(PathBuf::from),
            trace_out: maybe(rng, text).map(PathBuf::from),
            incident_dir: maybe(rng, text).map(PathBuf::from),
            fail_leaf: maybe(rng, count),
            ..Args::default()
        };
        match rng.next_below(4) {
            0 => a.grid_scenario = Some(text(rng)),
            1 => a.grid_signal_file = Some(PathBuf::from(text(rng))),
            _ => {}
        }
        a
    }

    #[test]
    fn the_envelope_reproduces_every_accepted_argument_set() {
        let mut rng = dcsim::SimRng::seed_from(20);
        let (mut accepted, mut refused_for_text) = (0, 0);
        for case in 0..4000 {
            let a = random_args(&mut rng);
            match a.validate() {
                Ok(()) => {
                    let back = args_from_envelope(&envelope_of(&a))
                        .unwrap_or_else(|e| panic!("case {case}: {a:?} read back as: {e}"));
                    assert_eq!(format!("{back:?}"), format!("{a:?}"), "case {case}");
                    accepted += 1;
                }
                Err(e) => refused_for_text += usize::from(e.contains("control characters")),
            }
        }
        assert!(
            accepted > 200 && refused_for_text > 50,
            "{accepted} / {refused_for_text}"
        );
    }

    #[test]
    fn pool_width_never_exceeds_the_request_or_the_host() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(pool_width(1), 1);
        assert_eq!(pool_width(64), 64.min(cores));
        assert_eq!(pool_width(usize::MAX), cores);
    }

    #[test]
    fn help_is_signalled() {
        assert_eq!(parse(&["--help"]).unwrap_err(), "help");
        assert!(usage().contains("--no-capping"));
        assert!(usage().contains("--phase-spread"));
        assert!(usage().contains("--checkpoint-every"));
        assert!(usage().contains("--resume"));
        assert!(usage().contains("replay"));
    }

    #[test]
    fn observability_flags_parse() {
        let a = parse(&[
            "--metrics-out",
            "m.prom",
            "--trace-out",
            "t.json",
            "--incident-dir",
            "incidents",
            "--fail-leaf",
            "3",
        ])
        .unwrap();
        assert_eq!(a.metrics_out, Some(PathBuf::from("m.prom")));
        assert_eq!(a.trace_out, Some(PathBuf::from("t.json")));
        assert_eq!(a.incident_dir, Some(PathBuf::from("incidents")));
        assert_eq!(a.fail_leaf, Some(3));
        assert!(usage().contains("--metrics-out"));
        assert!(usage().contains("--fail-leaf"));
    }

    #[test]
    fn profile_ticks_flag_parses_and_stays_out_of_the_envelope() {
        assert!(!parse(&[]).unwrap().profile_ticks);
        let a = parse(&["--profile-ticks"]).unwrap();
        assert!(a.profile_ticks);
        // Profiling observes into the registry, so it must switch
        // recording on by itself.
        assert!(a.observing());
        // It is a run-control/output flag: keeping it out of the
        // checkpoint envelope means old binaries keep reading new
        // checkpoints (the envelope rejects unknown keys).
        assert!(!envelope_of(&a).contains("profile"));
        assert!(usage().contains("--profile-ticks"));
    }

    #[test]
    fn fail_leaf_is_bounded_by_minutes() {
        assert!(parse(&["--fail-leaf", "0"]).is_err());
        assert!(parse(&["--minutes", "5", "--fail-leaf", "6"]).is_err());
        assert!(parse(&["--minutes", "5", "--fail-leaf", "5"]).is_ok());
    }

    #[test]
    fn phase_spread_parses_and_rejects_bad_values() {
        assert_eq!(parse(&[]).unwrap().phase_spread, 0.0);
        assert_eq!(parse(&["--phase-spread", "1.5"]).unwrap().phase_spread, 1.5);
        assert!(parse(&["--phase-spread"]).is_err());
        assert!(parse(&["--phase-spread", "-2"]).is_err());
        assert!(parse(&["--phase-spread", "NaN"]).is_err());
    }

    #[test]
    fn checkpoint_flags_parse() {
        let a = parse(&[
            "--checkpoint-every",
            "5",
            "--checkpoint-dir",
            "cps",
            "--report-out",
            "report.txt",
        ])
        .unwrap();
        assert_eq!(a.checkpoint_every, Some(5));
        assert_eq!(a.checkpoint_dir, Some(PathBuf::from("cps")));
        assert_eq!(a.report_out, Some(PathBuf::from("report.txt")));
        assert!(parse(&["--checkpoint-every", "0"]).is_err());
        let r = parse(&["--resume", "cps/checkpoint-00005.snap"]).unwrap();
        assert_eq!(r.resume, Some(PathBuf::from("cps/checkpoint-00005.snap")));
    }

    #[test]
    fn envelope_round_trips_every_field() {
        let a = parse(&[
            "--sbs",
            "2",
            "--rpps",
            "3",
            "--racks",
            "4",
            "--servers",
            "10",
            "--rpp-kw",
            "12.5",
            "--msb-kw",
            "2600.0",
            "--service",
            "hadoop",
            "--generation",
            "westmere2011",
            "--traffic",
            "1.5",
            "--minutes",
            "30",
            "--seed",
            "9",
            "--threads",
            "4",
            "--phase-spread",
            "2.25",
            "--no-capping",
            "--turbo",
            "--metrics-out",
            "m.prom",
            "--incident-dir",
            "incidents",
            "--fail-leaf",
            "3",
        ])
        .unwrap();
        let back = args_from_envelope(&envelope_of(&a)).unwrap();
        assert_eq!(envelope_of(&back), envelope_of(&a));
        assert_eq!(back.rpp_kw, Some(12.5));
        assert_eq!(back.msb_kw, Some(2600.0));
        assert_eq!(back.phase_spread, 2.25);
        assert_eq!(back.service, ServiceKind::Hadoop);
        assert_eq!(back.fail_leaf, Some(3));
        assert!(!back.capping && back.turbo);
    }

    #[test]
    fn envelope_rejects_unknown_keys() {
        let e = args_from_envelope("sbs=1\nflux_capacitor=88\n").unwrap_err();
        assert!(e.contains("flux_capacitor"), "{e}");
    }

    #[test]
    fn resume_freezes_universe_flags() {
        let argv: Vec<String> = ["--resume", "x.snap", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let current = parse(&["--resume", "x.snap", "--seed", "7"]).unwrap();
        let e = merge_resume_args(Args::default(), &current, &argv).unwrap_err();
        assert!(e.contains("--seed"), "{e}");

        let argv: Vec<String> = ["--resume", "x.snap", "--minutes", "40", "--threads", "8"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let current = parse(&["--resume", "x.snap", "--minutes", "40", "--threads", "8"]).unwrap();
        let merged = merge_resume_args(Args::default(), &current, &argv).unwrap();
        assert_eq!(merged.minutes, 40);
        assert_eq!(merged.threads, 8);
        assert_eq!(merged.seed, 0, "stored seed wins");
        assert!(merged.resume.is_none());

        // A horizon cut below the stored fault minute is refused now,
        // not by the next resume of a checkpoint this run would write.
        let stored = parse(&["--minutes", "8", "--fail-leaf", "5"]).unwrap();
        let argv: Vec<String> = ["--resume", "x.snap", "--minutes", "4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let current = parse(&["--resume", "x.snap", "--minutes", "4"]).unwrap();
        let e = merge_resume_args(stored, &current, &argv).unwrap_err();
        assert!(e.contains("--fail-leaf"), "{e}");
    }

    #[test]
    fn grid_flags_parse_and_validate() {
        let a = parse(&["--grid-scenario", "curtailment-window"]).unwrap();
        assert_eq!(a.grid_scenario.as_deref(), Some("curtailment-window"));
        assert!(a.grid_signal_file.is_none());
        let a = parse(&["--grid-signal-file", "sig.txt"]).unwrap();
        assert_eq!(a.grid_signal_file, Some(PathBuf::from("sig.txt")));
        assert!(parse(&["--grid-scenario", "blackout"]).is_err());
        assert!(parse(&[
            "--grid-scenario",
            "brownout",
            "--grid-signal-file",
            "sig.txt"
        ])
        .is_err());
        assert!(usage().contains("--grid-scenario"));
        assert!(usage().contains("--grid-signal-file"));
    }

    #[test]
    fn grid_flags_round_trip_the_envelope_and_freeze_on_resume() {
        let a = parse(&["--grid-scenario", "brownout"]).unwrap();
        let back = args_from_envelope(&envelope_of(&a)).unwrap();
        assert_eq!(back.grid_scenario.as_deref(), Some("brownout"));
        let a = parse(&["--grid-signal-file", "sig.txt"]).unwrap();
        let back = args_from_envelope(&envelope_of(&a)).unwrap();
        assert_eq!(back.grid_signal_file, Some(PathBuf::from("sig.txt")));

        let argv: Vec<String> = ["--resume", "x.snap", "--grid-scenario", "brownout"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let current = parse(&["--resume", "x.snap", "--grid-scenario", "brownout"]).unwrap();
        let e = merge_resume_args(Args::default(), &current, &argv).unwrap_err();
        assert!(e.contains("--grid-scenario"), "{e}");
    }

    #[test]
    fn replay_args_parse() {
        let argv: Vec<String> = [
            "--incident",
            "i/incident-0001-failover.json",
            "--from",
            "cps/checkpoint-00005.snap",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let r = parse_replay_args(&argv).unwrap();
        assert_eq!(r.incident, PathBuf::from("i/incident-0001-failover.json"));
        assert_eq!(r.out, PathBuf::from("replay-incidents"));
        assert!(parse_replay_args(&["--incident".to_string()]).is_err());
        assert!(parse_replay_args(&[]).is_err());
    }

    #[test]
    fn incident_json_fields_parse() {
        let json = "{\"incident\":7,\"trigger\":\"failover\",\"at_ms\":123000,\"records\":[]}";
        assert_eq!(json_u64_field(json, "incident"), Some(7));
        assert_eq!(json_u64_field(json, "at_ms"), Some(123000));
        assert_eq!(json_str_field(json, "trigger"), Some("failover"));
        assert_eq!(json_u64_field(json, "missing"), None);
    }
}
