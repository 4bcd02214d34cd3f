//! `repro` — regenerate the tables and figures of the Dynamo paper.
//!
//! Usage:
//!
//! ```text
//! repro [--quick] <target>...
//! repro --quick all
//! ```
//!
//! Targets: `fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11
//! fig12 fig13 fig14 fig15 fig16 table1 ablation implications
//! coordination grid all`. `--quick` runs the reduced-scale variants
//! (seconds instead of minutes). Every name is checked before anything
//! runs: an unknown one exits 2 with nothing on stdout.

use experiments::{
    ablation, coordination, diagrams, fig1, fig10, fig11, fig12, fig13, fig14, fig15, fig16, fig3,
    fig4, fig5, fig6, fig9, grid, implications, table1, Scale,
};

/// A target's name and how to render it.
type Target = (&'static str, fn(Scale) -> String);

/// Every target, in the order `all` runs them.
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

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if let Some(pos) = args.iter().position(|a| a == "--quick") {
        args.remove(pos);
        Scale::Quick
    } else {
        Scale::Full
    };
    if args.is_empty() {
        let names: Vec<&str> = TARGETS.iter().map(|(name, _)| *name).collect();
        eprintln!("usage: repro [--quick] <{}|all>...", names.join("|"));
        std::process::exit(2);
    }
    // Resolve every name before running any: a full-scale target can
    // run for minutes, so a typo is reported first.
    let mut targets: Vec<&Target> = Vec::new();
    for arg in &args {
        match TARGETS.iter().find(|(name, _)| name == arg) {
            Some(target) => targets.push(target),
            None if arg == "all" => {}
            None => {
                eprintln!("unknown target '{arg}'");
                std::process::exit(2);
            }
        }
    }
    if args.iter().any(|a| a == "all") {
        targets = TARGETS.iter().collect();
    }
    for (name, run) in targets {
        let started = std::time::Instant::now();
        println!("==================================================================");
        println!("{}", run(scale));
        eprintln!("[{name} done in {:.1}s]", started.elapsed().as_secs_f64());
    }
}
