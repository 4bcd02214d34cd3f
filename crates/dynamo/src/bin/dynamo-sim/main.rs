//! `dynamo-sim` — run a simulated datacenter under the Dynamo control
//! plane from the command line. `dynamo-sim --help` lists every flag
//! (the list is generated from the one table in [`args`]).
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

mod args;

use std::path::{Path, PathBuf};
use std::time::Instant;

use dcsim::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use dcsim::SimDuration;
use dynamo::{Datacenter, DatacenterBuilder, DatacenterState, ObsConfig, RunReport};
use dyngrid::GridScenario;
use powerinfra::Power;
use workloads::TrafficPattern;

use args::{args_from_envelope, envelope_of, merge_resume_args, parse_args, usage, Args};

/// One checkpoint file: what `--resume` needs to rebuild the exact same
/// datacenter, plus the full [`DatacenterState`] snapshot.
struct Checkpoint {
    /// The original invocation's arguments ([`envelope_of`]).
    envelope: String,
    /// [`schedule_digest`] of the run. The envelope holds
    /// `--grid-signal-file` as a path; this holds what the file said.
    schedule_digest: u64,
    state: DatacenterState,
}

impl Snapshot for Checkpoint {
    const KIND: &'static str = "dynamo-sim.Checkpoint";
    // Bump when the envelope key set changes, so an old binary rejects
    // a newer checkpoint instead of misreading it.
    // v2: grid_scenario/grid_signal_file envelope keys, grid layer in
    // the datacenter state.
    // v3: the schedule digest.
    // v4: the datacenter state's leaf links lost their counters
    // (`dynamo.DatacenterState` v4).
    // v5: the datacenter state's breakers lost their cooling constant
    // and its leaves came to keep one epoch (`dynamo.DatacenterState`
    // v5).
    // v6: the datacenter state stores nothing a restore can derive, and
    // a leaf's failover flag and band moved into the leaf tier's section
    // (`dynamo.DatacenterState` v6).
    // v7: the datacenter state is a framed section of its own, whose
    // version is checked on its own; this one moves only with the
    // envelope.
    const VERSION: u32 = 7;

    fn encode_body(&self, w: &mut SnapWriter) {
        w.put_str(&self.envelope);
        w.put_u64(self.schedule_digest);
        self.state.write_section(w);
    }

    fn decode_body(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Checkpoint {
            envelope: r.get_str()?,
            schedule_digest: r.get_u64()?,
            state: DatacenterState::read_section(r)?,
        })
    }
}

/// FNV-1a over the utility-signal schedule `dc` runs under — every
/// segment's start, price, frequency and curtail fraction, by bits.
fn schedule_digest(dc: &Datacenter) -> u64 {
    let segments = dc.grid().map_or(&[][..], |g| g.scenario().segments());
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for s in segments {
        for word in [
            s.start.as_millis(),
            s.signal.price_per_mwh.to_bits(),
            s.signal.frequency_hz.to_bits(),
            // Not the bits of any fraction the parser accepts.
            s.signal.curtail_frac.map_or(u64::MAX, f64::to_bits),
        ] {
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
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
/// library clamps a pool at the leaf count, never at the host's cores.
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
        builder = builder.grid(scenario);
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

/// Writes this file or says why not.
fn write_file(path: &Path, contents: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("could not write {}: {e}", path.display()))
}

fn write_checkpoint(dc: &mut Datacenter, args: &Args, minute: u64) -> Result<PathBuf, String> {
    let dir = args
        .checkpoint_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("checkpoints"));
    std::fs::create_dir_all(&dir)
        .map_err(|e| format!("could not create {}: {e}", dir.display()))?;
    // A snapshot carries no pending dump: write them out first.
    dc.system_mut()
        .observability_mut()
        .flush_incidents()
        .map_err(|e| format!("could not write incident dumps: {e}"))?;
    let cp = Checkpoint {
        envelope: envelope_of(args),
        schedule_digest: schedule_digest(dc),
        state: dc.state(),
    };
    let path = dir.join(format!("checkpoint-{minute:05}.snap"));
    write_file(&path, cp.to_snap_bytes())?;
    Ok(path)
}

/// Opens a checkpoint: the arguments it was taken under, checked like
/// a command line, and everything else in the file.
fn load_checkpoint(path: &Path) -> Result<(Args, Checkpoint), String> {
    let in_file = |e: String| format!("{}: {e}", path.display());
    let bytes = std::fs::read(path).map_err(|e| in_file(e.to_string()))?;
    let cp = Checkpoint::from_snap_bytes(&bytes).map_err(|e| in_file(e.to_string()))?;
    let stored = args_from_envelope(&cp.envelope).map_err(in_file)?;
    Ok((stored, cp))
}

/// Builds the datacenter `args` describe and restores `cp` into it.
/// `args` are the checkpoint's own, but for what a resume may override;
/// what they cannot pin — the content of a signal file — is compared.
fn restore_datacenter(args: &Args, cp: &Checkpoint, path: &Path) -> Result<Datacenter, String> {
    let mut dc = build_datacenter(args)?;
    if schedule_digest(&dc) != cp.schedule_digest {
        return Err(format!(
            "{} was taken under another utility-signal schedule than --grid-scenario / \
             --grid-signal-file give now; a resumed run needs the schedule it started with",
            path.display()
        ));
    }
    dc.restore(&cp.state)
        .map_err(|e| format!("restore from {}: {e}", path.display()))?;
    Ok(dc)
}

/// Runs minutes `start_minute+1 ..= args.minutes`, injecting the
/// scheduled fault, reporting, and checkpointing. Returns the exit code.
fn run(dc: &mut Datacenter, args: &Args, start_minute: u64) -> Result<i32, String> {
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
        if args.checkpoint_every.is_some_and(|every| m % every == 0) {
            let started = Instant::now();
            let path = write_checkpoint(dc, args, m)?;
            println!(
                "t={m:>4} min  checkpoint {} ({} ms)",
                path.display(),
                started.elapsed().as_millis()
            );
        }
    }
    if args.observing() {
        dc.system_mut()
            .observability_mut()
            .flush_incidents()
            .map_err(|e| format!("could not write incident dumps: {e}"))?;
        let obs = dc.system().observability();
        if let Some(path) = &args.metrics_out {
            write_file(path, obs.prometheus_text())?;
            println!("metrics:   {}", path.display());
        }
        if let Some(path) = &args.trace_out {
            write_file(path, obs.chrome_trace())?;
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
        write_file(path, report.to_string())?;
        println!("report:    {}", path.display());
    }
    println!("\n{report}");
    Ok(i32::from(!report.is_healthy()))
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

/// Re-executes an incident window from a checkpoint. Exit code 0 if
/// the regenerated dump is the original byte for byte, 1 if it is not.
fn replay(argv: &[String]) -> Result<i32, String> {
    let rargs = parse_replay_args(argv).map_err(with_usage)?;
    let original = std::fs::read_to_string(&rargs.incident)
        .map_err(|e| format!("{}: {e}", rargs.incident.display()))?;
    let (Some(seq), Some(at_ms), Some(trigger)) = (
        json_u64_field(&original, "incident"),
        json_u64_field(&original, "at_ms"),
        json_str_field(&original, "trigger"),
    ) else {
        return Err(format!(
            "{} does not look like an incident dump (missing incident/at_ms/trigger)",
            rargs.incident.display()
        ));
    };
    let (mut args, cp) = load_checkpoint(&rargs.from)?;
    if args.incident_dir.is_none() {
        return Err(
            "the checkpointed run recorded no incidents (--incident-dir was not set)".to_string(),
        );
    }
    // Redirect regenerated dumps so the originals are never touched.
    args.incident_dir = Some(rargs.out.clone());
    let mut dc = restore_datacenter(&args, &cp, &rargs.from)?;
    if dc.now().as_millis() > at_ms {
        return Err(format!(
            "snapshot is at t={} s, after the incident at t={} s; use an earlier checkpoint",
            dc.now().as_secs(),
            at_ms / 1000
        ));
    }
    println!(
        "replay: incident {seq} ({trigger}) at t={} s, from checkpoint at t={} s",
        at_ms / 1000,
        dc.now().as_secs()
    );

    let expected = rargs.out.join(format!("incident-{seq:04}-{trigger}.json"));
    let horizon_ms = args.minutes.saturating_mul(60_000);
    while dc.now().as_millis() < horizon_ms {
        if let Some(m) = args.fail_leaf {
            if dc.now().as_millis() == (m - 1) * 60_000 {
                let victim = dc.system().leaf_devices()[0];
                dc.system_mut().fail_primary(victim);
            }
        }
        dc.step();
        dc.system_mut()
            .observability_mut()
            .flush_incidents()
            .map_err(|e| format!("could not write replayed incident dumps: {e}"))?;
        if expected.exists() {
            break;
        }
    }
    let Ok(replayed) = std::fs::read_to_string(&expected) else {
        eprintln!(
            "replay: reached the run horizon without regenerating incident {seq}; \
             is {} the right checkpoint for this incident?",
            rargs.from.display()
        );
        return Ok(1);
    };
    if replayed != original {
        eprintln!(
            "replay: {} differs from {} ({} vs {} bytes)",
            expected.display(),
            rargs.incident.display(),
            replayed.len(),
            original.len()
        );
        return Ok(1);
    }
    println!(
        "replay: {} reproduced byte-for-byte ({} bytes)",
        expected.display(),
        replayed.len()
    );
    Ok(0)
}

/// An argument error prints the usage after it.
fn with_usage(e: String) -> String {
    if e == "help" {
        return e;
    }
    format!("{e}\n\n{}", usage())
}

fn real_main(argv: &[String]) -> Result<i32, String> {
    if argv.first().map(String::as_str) == Some("replay") {
        return replay(&argv[1..]);
    }
    let args = parse_args(argv).map_err(with_usage)?;
    let Some(path) = &args.resume else {
        let mut dc = build_datacenter(&args)?;
        println!(
            "dynamo-sim: {} {} servers, capping={}, dry_run={}, {} min at seed {}\n",
            dc.fleet().len(),
            args.service.label(),
            args.capping,
            args.dry_run,
            args.minutes,
            args.seed
        );
        return run(&mut dc, &args, 0);
    };
    let started = Instant::now();
    let (stored, cp) = load_checkpoint(path)?;
    let args = merge_resume_args(stored, argv)?;
    let mut dc = restore_datacenter(&args, &cp, path)?;
    let start_minute = dc.now().as_millis() / 60_000;
    if start_minute >= args.minutes {
        return Err(format!(
            "checkpoint is at minute {start_minute}, at or past the {} minute horizon; \
             extend with --minutes",
            args.minutes
        ));
    }
    println!(
        "dynamo-sim: resumed {} at t={} min ({} ms load+restore)\n",
        path.display(),
        start_minute,
        started.elapsed().as_millis()
    );
    run(&mut dc, &args, start_minute)
}

/// The one exit: `--help` prints the usage, a failure prints
/// `error: ...` and exits 2, a run exits with its verdict.
fn main() {
    let argv: Result<Vec<String>, _> = std::env::args_os()
        .skip(1)
        .map(|word| word.into_string())
        .collect();
    let outcome = argv
        .map_err(|word| format!("argument {word:?} is not valid UTF-8"))
        .and_then(|argv| real_main(&argv));
    std::process::exit(match outcome {
        Ok(code) => code,
        Err(e) if e == "help" => {
            println!("{}", usage());
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_width_never_exceeds_the_request_or_the_host() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(pool_width(1), 1);
        assert_eq!(pool_width(64), 64.min(cores));
        assert_eq!(pool_width(usize::MAX), cores);
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

    /// The envelope stores `--grid-signal-file` as a path, and a resumed
    /// run reads the file again: the checkpoint pins what it said.
    #[test]
    fn a_resume_under_an_edited_signal_file_is_refused() {
        let dir = std::env::temp_dir().join(format!("dynamo-sim-signal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let signal = dir.join("sig.txt");
        std::fs::write(&signal, "0 42 60 -\n60 420 60 0.5\n").unwrap();
        let words = [
            "--rpps",
            "2",
            "--racks",
            "1",
            "--servers",
            "4",
            "--minutes",
            "4",
            "--grid-signal-file",
            signal.to_str().unwrap(),
            "--checkpoint-dir",
            dir.to_str().unwrap(),
        ];
        let args = parse_args(&words.map(String::from)).unwrap();
        let mut dc = build_datacenter(&args).unwrap();
        dc.run_for(SimDuration::from_mins(2));
        let path = write_checkpoint(&mut dc, &args, 2).unwrap();
        dc.run_for(SimDuration::from_mins(2));
        let straight = RunReport::from_datacenter(&dc).to_string();

        let (stored, cp) = load_checkpoint(&path).unwrap();
        let mut resumed = restore_datacenter(&stored, &cp, &path).unwrap();
        resumed.run_for(SimDuration::from_mins(2));
        assert_eq!(RunReport::from_datacenter(&resumed).to_string(), straight);

        std::fs::write(&signal, "0 30 60 -\n").unwrap();
        let e = restore_datacenter(&stored, &cp, &path).unwrap_err();
        assert!(e.contains("--grid-signal-file"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An incident directory that cannot be created fails a checkpoint
    /// with the error a run without checkpoints gives, not a panic.
    #[test]
    fn a_checkpoint_under_an_unwritable_incident_dir_is_an_error() {
        let dir = std::env::temp_dir().join(format!("dynamo-sim-incidents-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("not-a-dir");
        std::fs::write(&file, "").unwrap();
        let incidents = file.join("inc");
        let words = [
            "--rpps",
            "2",
            "--racks",
            "2",
            "--servers",
            "16",
            "--rpp-kw",
            "7.5",
            "--traffic",
            "1.6",
            "--minutes",
            "2",
            "--incident-dir",
            incidents.to_str().unwrap(),
            "--checkpoint-dir",
            dir.to_str().unwrap(),
        ];
        let args = parse_args(&words.map(String::from)).unwrap();
        let mut dc = build_datacenter(&args).unwrap();
        // A failover leaves an incident dump pending.
        let victim = dc.system().leaf_devices()[0];
        dc.system_mut().fail_primary(victim);
        dc.run_for(SimDuration::from_mins(2));
        let e = write_checkpoint(&mut dc, &args, 2).unwrap_err();
        assert!(e.starts_with("could not write incident dumps"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
