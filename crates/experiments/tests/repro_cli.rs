//! The `repro` binary's argument handling, through the binary.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

/// A mistyped target is reported before any target runs: `fig5` at
/// full scale simulates twelve hours, and used to do so before the
/// binary got to `bogus`.
#[test]
fn an_unknown_target_exits_2_before_anything_runs() {
    for args in [
        &["fig5", "bogus"][..],
        &["bogus", "fig3"],
        &["--quick", "all", "bogus"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed before failing");
        // The whole of stderr: a target that ran would have left its
        // "[fig5 done in ...]" line there.
        assert_eq!(
            String::from_utf8_lossy(&out.stderr).trim(),
            "unknown target 'bogus'",
            "{args:?}"
        );
    }
}

#[test]
fn no_target_is_a_usage_error_naming_every_target() {
    let out = repro(&[]);
    assert_eq!(out.status.code(), Some(2));
    let usage = String::from_utf8_lossy(&out.stderr);
    for target in ["fig2", "fig7", "fig8", "ablation", "implications", "grid"] {
        assert!(usage.contains(target), "usage lacks {target}: {usage}");
    }
}

#[test]
fn known_targets_run_in_the_order_given() {
    let out = repro(&["--quick", "fig3", "fig1"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let fig3 = stdout.find("Figure 3").expect("fig3 printed");
    let fig1 = stdout.find("Figure 1").expect("fig1 printed");
    assert!(fig3 < fig1);
}
