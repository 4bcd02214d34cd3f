//! `dynbench`: one command, four workloads, end-to-end and per-layer
//! numbers for the Dynamo simulator. See `README.md` beside this
//! package and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! dynbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]   one run, as the driver makes it
//! dynbench --workload all [--seed N] [--seconds S] [--repeat N]       every workload, timed then traced
//! dynbench --print-benchmark-json                                     the text of BENCHMARK.json
//! ```

mod alloc_count;
mod figures;
mod host;
mod json;
mod metrics;
mod outcome;
mod probes;
mod sim;
mod stats;
mod suite;
mod trace;

use std::process::ExitCode;

use json::Json;
use metrics::{MetricDef, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use outcome::{Outcome, RunCfg};
use sim::SimKind;
use trace::Tracer;

#[global_allocator]
static ALLOCATOR: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

/// Digests recorded at the default seed: `workload digest` per line.
const EXPECTED_DIGESTS: &str = include_str!("../expected_digests.txt");

const USAGE: &str = "usage: dynbench --workload <site_worst_case|site_steady_state|suite_day|\
repro_figures|all> [--seed N] [--seconds S] [--trace 0|1] [--repeat N] [--smoke]\n       \
dynbench --print-benchmark-json";

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    workload: String,
    cfg: RunCfg,
    repeat: usize,
}

#[derive(Debug, PartialEq)]
enum Cli {
    Run(Args),
    PrintBenchmarkJson,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    if args == ["--print-benchmark-json"] {
        return Ok(Cli::PrintBenchmarkJson);
    }
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut repeat = 1;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--repeat" => {
                repeat = value.parse().map_err(|_| bad())?;
                if repeat == 0 {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Cli::Run(Args {
        workload,
        cfg: RunCfg {
            seed,
            seconds: seconds.unwrap_or(if smoke { 1.0 } else { RUN_SECONDS as f64 }),
            trace,
            smoke,
        },
        repeat,
    }))
}

/// The digest recorded for `workload`, if this run is comparable to it.
fn expected_digest(workload: &str, cfg: &RunCfg) -> Option<u64> {
    if cfg.smoke || (cfg.seed != DEFAULT_SEED && workload != "repro_figures") {
        return None;
    }
    EXPECTED_DIGESTS.lines().find_map(|line| {
        let (name, hex) = line.split_once(' ')?;
        (name == workload)
            .then(|| u64::from_str_radix(hex.trim(), 16).ok())
            .flatten()
    })
}

/// Runs one workload in this process and returns what it produced.
pub fn run_workload(workload: &str, cfg: &RunCfg) -> Outcome {
    let mut tracer = Tracer::new();
    let mut out = Outcome::default();
    match workload {
        "site_worst_case" => sim::run(SimKind::SiteWorstCase, workload, cfg, &mut tracer, &mut out),
        "site_steady_state" => sim::run(
            SimKind::SiteSteadyState,
            workload,
            cfg,
            &mut tracer,
            &mut out,
        ),
        "suite_day" => sim::run(SimKind::SuiteDay, workload, cfg, &mut tracer, &mut out),
        "repro_figures" => figures::run(cfg, &mut tracer, &mut out),
        other => unreachable!("parse_args admitted workload {other:?}"),
    }
    out.digest_match = expected_digest(workload, cfg).map(|expected| expected == out.digest);
    let finite = metric_defs(cfg.trace)
        .iter()
        .all(|m| out.values.get(m.name).unwrap_or(0.0).is_finite());
    out.check("metrics_are_finite", finite, "no NaN or infinity measured");
    if cfg.trace {
        out.values.set(
            "sim.digest_match",
            out.digest_match.map_or(-1.0, |m| f64::from(u8::from(m))),
        );
        out.values.set("checks.total", out.checks.len() as f64);
        out.values.set("checks.failed", out.failed_checks() as f64);
        let path = host::output_dir().join(format!("{workload}.trace.json"));
        let run_id = format!("{workload}-seed{}-pid{}", cfg.seed, std::process::id());
        std::fs::write(&path, tracer.to_json(workload, &run_id).encode())
            .expect("write the trace file");
        out.notes.push(format!(
            "{} spans written to {}",
            tracer.spans.len(),
            path.display()
        ));
    }
    out
}

fn metric_defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Prints one run the way a person and the driver read it; the last
/// line is the driver's JSON object.
fn print_run(workload: &str, cfg: &RunCfg, out: &Outcome) {
    println!(
        "# dynbench {workload} seed {} seconds {} trace {}{}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        if cfg.smoke {
            " SMOKE (numbers mean nothing)"
        } else {
            ""
        }
    );
    for note in &out.notes {
        println!("# {note}");
    }
    let mut metrics = Vec::new();
    for m in metric_defs(cfg.trace) {
        // A per-layer metric this workload does not exercise reads 0.
        let value = out.values.get(m.name).unwrap_or(0.0);
        println!("{workload} {} {value:?} {}", m.name, m.unit);
        metrics.push((
            m.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
        ));
    }
    for c in &out.checks {
        let verdict = if c.pass { "pass" } else { "FAIL" };
        println!("check {workload} {} {verdict} ({})", c.name, c.detail);
    }
    let digest_match = out
        .digest_match
        .map_or("unrecorded".to_string(), |m| m.to_string());
    println!(
        "digest {workload} {:016x} digest_match: {digest_match}",
        out.digest
    );
    let failed = out.failed_checks();
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::Int(out.checks.len() as i64)),
            ("failed", Json::Int(failed as i64)),
            ("metrics", Json::obj(metrics)),
        ])
        .encode()
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(Cli::PrintBenchmarkJson) => {
            print!("{}", metrics::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Ok(Cli::Run(args)) => args,
        Err(e) => {
            eprintln!("dynbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return suite::run_all(&args.cfg, args.repeat);
    }
    let out = run_workload(&args.workload, &args.cfg);
    print_run(&args.workload, &args.cfg, &out);
    if out.failed_checks() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let Ok(Cli::Run(args)) = parse(&[
            "--workload",
            "suite_day",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]) else {
            panic!("the driver's arguments must parse");
        };
        assert_eq!(args.workload, "suite_day");
        assert_eq!(
            (args.cfg.seed, args.cfg.seconds, args.cfg.trace),
            (7, 20.0, true)
        );
        assert_eq!(args.repeat, 1);
        assert_eq!(
            parse(&["--print-benchmark-json"]),
            Ok(Cli::PrintBenchmarkJson)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "suite_day", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "suite_day", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "suite_day", "--seed"]).is_err());
        assert!(parse(&["--workload", "all", "--repeat", "0"]).is_err());
    }

    #[test]
    fn a_digest_is_recorded_for_every_workload() {
        let cfg = RunCfg {
            seed: DEFAULT_SEED,
            seconds: 1.0,
            trace: false,
            smoke: false,
        };
        for w in &WORKLOADS {
            assert!(expected_digest(w.name, &cfg).is_some(), "{}", w.name);
        }
        let other_seed = RunCfg {
            seed: 1,
            ..cfg.clone()
        };
        assert!(expected_digest("suite_day", &other_seed).is_none());
        assert!(expected_digest("repro_figures", &other_seed).is_some());
        let smoke = RunCfg { smoke: true, ..cfg };
        assert!(expected_digest("suite_day", &smoke).is_none());
    }

    /// The whole pipeline at smoke size — every workload, timed and
    /// traced, checks included — in well under two seconds each.
    #[test]
    fn smoke_runs_the_whole_pipeline() {
        for w in &WORKLOADS {
            for trace in [false, true] {
                let cfg = RunCfg {
                    seed: DEFAULT_SEED,
                    seconds: 0.2,
                    trace,
                    smoke: true,
                };
                let out = run_workload(w.name, &cfg);
                assert!(!out.checks.is_empty(), "{} has no checks", w.name);
                for c in &out.checks {
                    assert!(c.pass, "{} check {} failed: {}", w.name, c.name, c.detail);
                }
                let defs = metric_defs(trace);
                if !trace {
                    for m in defs {
                        let v = out
                            .values
                            .get(m.name)
                            .expect("every end-to-end metric is set");
                        assert!(v > 0.0, "{} {} = {v}", w.name, m.name);
                    }
                } else if w.name != "repro_figures" {
                    let unattributed = out
                        .values
                        .get("dynamo.phase.unattributed_frac")
                        .expect("set on simulator workloads");
                    assert!(unattributed < 0.5, "{} unattributed {unattributed}", w.name);
                }
            }
        }
    }
}
