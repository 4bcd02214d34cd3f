//! `--workload all`: every workload in a child process of its own,
//! first timed (tracing off), then traced; one result file; and with
//! `--repeat N`, N sets back to back compared against the bounds.

use std::process::{Command, ExitCode};

use crate::host;
use crate::json::Json;
use crate::metrics::{END_TO_END, WORKLOADS};
use crate::outcome::RunCfg;

/// What the parent reads back from one child's output.
#[derive(Debug, Default, Clone, PartialEq)]
struct ChildResult {
    /// `(name, value, unit)` in the order printed.
    metrics: Vec<(String, f64, String)>,
    /// `(name, passed)`.
    checks: Vec<(String, bool)>,
    digest: String,
    digest_match: String,
    exit_ok: bool,
}

impl ChildResult {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::obj([
                            ("value", Json::Num(*value)),
                            ("unit", Json::str(unit.clone())),
                        ]),
                    )
                })),
            ),
            (
                "checks",
                Json::obj(
                    self.checks
                        .iter()
                        .map(|(name, pass)| (name.clone(), Json::Bool(*pass))),
                ),
            ),
            (
                "checks_failed",
                Json::Int(self.checks.iter().filter(|c| !c.1).count() as i64),
            ),
            ("sim_digest", Json::str(self.digest.clone())),
            ("digest_match", Json::str(self.digest_match.clone())),
            ("exit_ok", Json::Bool(self.exit_ok)),
        ])
    }
}

/// Reads the `workload metric value unit`, `check ...` and `digest ...`
/// lines a child printed.
fn parse_child_output(workload: &str, stdout: &str) -> ChildResult {
    let mut r = ChildResult::default();
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            [w, name, value, unit] if *w == workload => {
                if let Ok(v) = value.parse() {
                    r.metrics.push((name.to_string(), v, unit.to_string()));
                }
            }
            ["check", w, name, verdict, ..] if *w == workload => {
                r.checks.push((name.to_string(), *verdict == "pass"));
            }
            ["digest", w, hex, "digest_match:", m] if *w == workload => {
                r.digest = hex.to_string();
                r.digest_match = m.to_string();
            }
            _ => {}
        }
    }
    r
}

fn run_child(workload: &str, cfg: &RunCfg, trace: bool) -> ChildResult {
    let exe = std::env::current_exe().expect("the path of this executable");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child; its stderr is not captured, so a
    // panic message reaches the terminal as it happens.
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("start a child dynbench");
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let mut r = parse_child_output(workload, &stdout);
    r.exit_ok = output.status.success();
    r
}

/// Relative worsening of `b` against `a` in the metric's bad
/// direction (negative when `b` is better).
fn worsening(a: f64, b: f64, better: &str) -> f64 {
    match better {
        "lower" => (b - a) / a,
        _ => (a - b) / a,
    }
}

pub fn run_all(cfg: &RunCfg, repeat: usize) -> ExitCode {
    let mut ok = true;
    // sets[set][workload] = (timed, traced)
    let mut sets: Vec<Vec<(ChildResult, ChildResult)>> = Vec::new();
    for set in 0..repeat {
        let mut results = Vec::new();
        for w in &WORKLOADS {
            eprintln!(
                "dynbench: set {} of {repeat}: {} timed, then traced",
                set + 1,
                w.name
            );
            let timed = run_child(w.name, cfg, false);
            let traced = run_child(w.name, cfg, true);
            for r in [&timed, &traced] {
                ok &= r.exit_ok && r.checks.iter().all(|c| c.1);
            }
            results.push((timed, traced));
        }
        sets.push(results);
    }

    // Every set against the first, metric by metric.
    let mut comparisons = Vec::new();
    for (set, results) in sets.iter().enumerate().skip(1) {
        for (i, w) in WORKLOADS.iter().enumerate() {
            let (first, _) = &sets[0][i];
            let (again, again_traced) = &results[i];
            for m in &END_TO_END {
                let (Some(a), Some(b)) = (first.metric(m.name), again.metric(m.name)) else {
                    ok = false;
                    continue;
                };
                // Two runs of the same code: neither is "the parent",
                // so a difference in either direction counts.
                let diff = worsening(a, b, m.better);
                let within = diff.abs() <= m.bound;
                ok &= within;
                println!(
                    "repeat {} {} first {a:?} set{} {b:?} rel_diff {diff:+.4} bound {} within_bound {within}",
                    w.name,
                    m.name,
                    set + 1,
                    m.bound
                );
                comparisons.push(Json::obj([
                    ("workload", Json::str(w.name)),
                    ("metric", Json::str(m.name)),
                    ("first", Json::Num(a)),
                    ("again", Json::Num(b)),
                    ("set", Json::Int(set as i64 + 1)),
                    ("rel_diff", Json::Num(diff)),
                    ("bound", Json::Num(m.bound)),
                    ("within_bound", Json::Bool(within)),
                ]));
            }
            // Simulated results must be bit-equal between sets.
            let sim_equal = first.digest == again.digest
                && sets[0][i]
                    .1
                    .metrics
                    .iter()
                    .filter(|(n, _, _)| n.starts_with("sim."))
                    .all(|(n, v, _)| again_traced.metric(n) == Some(*v));
            ok &= sim_equal;
            println!("repeat {} simulated_results_equal {sim_equal}", w.name);
        }
    }

    let threads = sets[0][0].1.metric("host.worker_threads").unwrap_or(0.0) as usize;
    let result = Json::obj([
        ("host", host::host_block(threads)),
        ("seed", Json::Int(cfg.seed as i64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("smoke", Json::Bool(cfg.smoke)),
        (
            "sets",
            Json::Arr(
                sets.iter()
                    .map(|results| {
                        Json::obj(WORKLOADS.iter().zip(results).map(|(w, (timed, traced))| {
                            (
                                w.name,
                                Json::obj([
                                    ("timed", timed.to_json()),
                                    ("traced", traced.to_json()),
                                ]),
                            )
                        }))
                    })
                    .collect(),
            ),
        ),
        ("repeat", Json::Arr(comparisons)),
        ("ok", Json::Bool(ok)),
    ]);
    let path = host::output_dir().join("results.json");
    std::fs::write(&path, result.encode_pretty()).expect("write the result file");
    println!("# results written to {}; ok: {ok}", path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_back_what_a_child_prints() {
        let stdout = "# dynbench suite_day seed 2016 seconds 20 trace 0\n\
                      # a note with suite_day in it 1 s\n\
                      suite_day setup_s 0.0071 s\n\
                      suite_day throughput 1412.5 1/s\n\
                      other_workload throughput 1.0 1/s\n\
                      check suite_day one_failover pass (1)\n\
                      check suite_day no_breaker_trips FAIL (2 trips)\n\
                      digest suite_day 00ff00ff00ff00ff digest_match: true\n\
                      {\"correct\": false}\n";
        let r = parse_child_output("suite_day", stdout);
        assert_eq!(r.metric("setup_s"), Some(0.0071));
        assert_eq!(r.metric("throughput"), Some(1412.5));
        assert_eq!(r.metrics.len(), 2);
        assert_eq!(
            r.checks,
            vec![
                ("one_failover".to_string(), true),
                ("no_breaker_trips".to_string(), false)
            ]
        );
        assert_eq!(
            (r.digest.as_str(), r.digest_match.as_str()),
            ("00ff00ff00ff00ff", "true")
        );
    }

    #[test]
    fn worsening_follows_the_metrics_direction() {
        assert!((worsening(100.0, 110.0, "lower") - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "higher") - 0.10).abs() < 1e-12);
        assert!(worsening(100.0, 110.0, "higher") < 0.0);
    }
}
