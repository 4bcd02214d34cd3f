//! `repro_figures`: what a reader of the paper runs — every `repro`
//! target at full scale, called in-process, output captured.
//!
//! The targets carry their own seeds, so `--seed` changes nothing here.

use std::time::{Duration, Instant};

use experiments::{
    ablation, coordination, diagrams, fig1, fig10, fig11, fig12, fig13, fig14, fig15, fig16, fig3,
    fig4, fig5, fig6, fig9, grid, implications, table1, Scale,
};

use crate::host;
use crate::outcome::{Outcome, RunCfg};
use crate::probes;
use crate::stats::{fnv1a64, median};
use crate::trace::{Tracer, ROOT};

type Target = (&'static str, fn(Scale) -> String);

/// The 21 targets of `repro all`, in its order.
const TARGETS: [Target; 21] = [
    ("fig1", |_| fig1::run().to_string()),
    ("fig2", |_| diagrams::fig2().to_string()),
    ("fig3", |_| fig3::run().to_string()),
    ("fig4", |_| fig4::run().to_string()),
    ("fig5", |s| fig5::run(s).to_string()),
    ("fig6", |s| fig6::run(s).to_string()),
    ("fig7", |_| diagrams::fig7().to_string()),
    ("fig8", |_| diagrams::fig8().to_string()),
    ("fig9", |_| fig9::run().to_string()),
    ("fig10", |_| fig10::run().to_string()),
    ("fig11", |s| fig11::run(s).to_string()),
    ("fig12", |s| fig12::run(s).to_string()),
    ("fig13", |_| fig13::run().to_string()),
    ("fig14", |s| fig14::run(s).to_string()),
    ("fig15", |s| fig15::run(s).to_string()),
    ("fig16", |s| fig16::run(s).to_string()),
    ("table1", |s| table1::run(s).to_string()),
    ("ablation", |_| ablation::run().to_string()),
    ("implications", |s| implications::run(s).to_string()),
    ("coordination", |_| coordination::run().to_string()),
    ("grid", |s| grid::run(s).to_string()),
];

/// Targets with a per-layer metric of their own; the rest are summed
/// into `experiments.other_s`.
const NAMED: [(&str, &str); 7] = [
    ("fig5", "experiments.fig5_s"),
    ("fig6", "experiments.fig6_s"),
    ("fig11", "experiments.fig11_s"),
    ("fig12", "experiments.fig12_s"),
    ("fig14", "experiments.fig14_s"),
    ("table1", "experiments.table1_s"),
    ("implications", "experiments.implications_s"),
];

/// Fleet size the probes use here: the builder's default datacenter,
/// the size most figure targets build.
const PROBE_SERVERS: usize = 1920;

pub fn run(cfg: &RunCfg, tracer: &mut Tracer, out: &mut Outcome) {
    let started = Instant::now();
    out.notes
        .push("--seed is ignored: every figure target carries its own seeds".to_string());

    // -- Set-up: three quick-scale passes. They warm every lazily built
    // table the targets share, and their outputs must agree.
    let mut quick_s = Vec::new();
    let mut quick_outputs: Vec<Vec<String>> = Vec::new();
    for _ in 0..3 {
        let (outputs, secs): (Vec<String>, f64) =
            tracer.time("experiments.quick_pass", ROOT, || {
                TARGETS.iter().map(|(_, run)| run(Scale::Quick)).collect()
            });
        quick_s.push(secs);
        quick_outputs.push(outputs);
    }
    out.check(
        "quick_passes_agree",
        quick_outputs.iter().all(|o| *o == quick_outputs[0]),
        "three quick-scale passes, identical output",
    );

    // -- Measured: full-scale targets in `repro all` order, round and
    // round until the time is used. The first round always completes.
    let scale = if cfg.smoke { Scale::Quick } else { Scale::Full };
    let deadline = started + Duration::from_secs_f64(cfg.seconds);
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); TARGETS.len()];
    let mut first_outputs: Vec<String> = Vec::new();
    let mut repeats_agree = true;
    let mut peak_rss_mb = 0.0;
    'rounds: for round in 0.. {
        for (i, (name, run)) in TARGETS.iter().enumerate() {
            if round > 0 && Instant::now() >= deadline {
                break 'rounds;
            }
            let (output, secs) = tracer.time(name, ROOT, || run(scale));
            samples[i].push(secs);
            if round == 0 {
                first_outputs.push(output);
            } else {
                repeats_agree &= output == first_outputs[i];
            }
        }
        if round == 0 {
            // Fixed work up to here, so this repeats from run to run.
            peak_rss_mb = host::peak_rss_mb();
        }
    }
    let empty: Vec<&str> = TARGETS
        .iter()
        .zip(&first_outputs)
        .filter(|(_, o)| o.trim().is_empty())
        .map(|((name, _), _)| *name)
        .collect();
    out.check(
        "every_target_prints",
        empty.is_empty(),
        format!("empty: {empty:?}"),
    );
    out.check(
        "repeated_targets_agree",
        repeats_agree,
        "every target run again printed what it printed the first time",
    );
    out.digest = fnv1a64(first_outputs.iter().map(String::as_bytes));

    let per_target: Vec<f64> = samples.iter().map(|s| median(s)).collect();
    let wall_s: f64 = per_target.iter().sum();
    let runs: usize = samples.iter().map(Vec::len).sum();
    out.notes.push(format!(
        "{runs} target runs; wall time of one pass is the sum of per-target medians"
    ));
    if !cfg.trace {
        out.values.set("setup_s", median(&quick_s));
        out.values.set("throughput", TARGETS.len() as f64 / wall_s);
        out.values.set("peak_rss_mb", peak_rss_mb);
        return;
    }

    let mut other_s = wall_s;
    for (target, metric) in NAMED {
        let i = TARGETS
            .iter()
            .position(|(name, _)| *name == target)
            .expect("a named target is a target");
        out.values.set(metric, per_target[i]);
        other_s -= per_target[i];
    }
    out.values.set("experiments.other_s", other_s);
    out.values.set("experiments.wall_s", wall_s);
    out.values.set("host.worker_threads", 1.0);
    probes::run(PROBE_SERVERS, 1, &mut out.values);
}
