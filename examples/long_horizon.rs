//! Month-long resumable horizon: one month of simulated time run as
//! four checkpoint/resume legs, verified bit-identical to the unbroken
//! run.
//!
//! §VI of the paper evaluates Dynamo over months of production
//! operation; reproducing those horizons in one process is fragile
//! (preemption, host maintenance). This example is the repro's answer:
//! run a leg, snapshot every stateful layer to disk, start a fresh
//! process-equivalent (a freshly built datacenter), restore, continue —
//! and prove at the end that the legged run's report and full
//! Prometheus exposition are byte-identical to running the month
//! unbroken.
//!
//! Also prints the checkpoint mechanics — the final snapshot's size and
//! the worst write and load+restore latency over the legs — for a look;
//! the recorded checkpoint numbers are `dynbench`'s `checkpoint.*`
//! metrics on `suite_day`.
//!
//! ```sh
//! cargo run --release --example long_horizon            # 30 days
//! cargo run --release --example long_horizon -- --quick # 2 days (CI)
//! ```

use std::path::PathBuf;
use std::time::Instant;

use dcsim::snap::Snapshot;
use dcsim::{SimDuration, SimTime};
use dynamo::{Datacenter, DatacenterBuilder, DatacenterState, ObsConfig, RunReport};
use dynrpc::LinkProfile;
use workloads::{ServiceKind, TrafficPattern};

const LEGS: u64 = 4;

/// A steady-state fleet small enough that a simulated month is a
/// coffee-break run: 160 servers under budget on lossless links, demand
/// held 30 ticks so the active-set physics and cycle elision carry the
/// quiet stretches — exactly the regime a month-long horizon spends
/// most of its time in.
fn build() -> Datacenter {
    DatacenterBuilder::new()
        .sbs_per_msb(1)
        .rpps_per_sb(4)
        .racks_per_rpp(2)
        .servers_per_rack(20)
        .uniform_service(ServiceKind::Web)
        .traffic(ServiceKind::Web, TrafficPattern::diurnal())
        .rpc_profile(LinkProfile::reliable())
        .observability(ObsConfig::on())
        .demand_hold(30)
        .phase_spread(SimDuration::from_secs(2))
        .seed(2016)
        .build()
}

fn observable(dc: &Datacenter) -> (String, String) {
    (
        RunReport::from_datacenter(dc).to_string(),
        dc.system().observability().prometheus_text(),
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let days: u64 = if quick { 2 } else { 30 };
    let horizon = SimTime::from_secs(days * 86_400);
    let dir = PathBuf::from("target/long_horizon");
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");

    println!("long_horizon: {days} simulated days, unbroken vs {LEGS} checkpointed legs\n");

    // The reference: one process, no interruptions.
    let wall = Instant::now();
    let mut unbroken = build();
    unbroken.run_until(horizon);
    let expected = observable(&unbroken);
    println!(
        "unbroken : {days} days in {:.1} s wall ({:.0} ticks/s)",
        wall.elapsed().as_secs_f64(),
        (days * 86_400) as f64 / wall.elapsed().as_secs_f64()
    );
    drop(unbroken);

    // The same month as four legs, each resumed from the previous
    // leg's on-disk snapshot by a freshly built datacenter.
    let mut dc = build();
    let (mut file_bytes, mut write_ms, mut load_restore_ms) = (0u64, 0.0f64, 0.0f64);
    for leg in 1..=LEGS {
        let wall = Instant::now();
        dc.run_until(SimTime::from_secs(days * 86_400 * leg / LEGS));
        let ran = wall.elapsed().as_secs_f64();

        let path = dir.join(format!("leg-{leg}.snap"));
        let write = Instant::now();
        let bytes = dc.state().to_snap_bytes();
        std::fs::write(&path, &bytes).expect("write checkpoint");
        let wrote = write.elapsed().as_secs_f64() * 1e3;
        file_bytes = bytes.len() as u64;
        write_ms = write_ms.max(wrote);
        drop(dc);

        // A fresh "process": rebuild from configuration, restore every
        // stateful layer from the snapshot.
        let load = Instant::now();
        let raw = std::fs::read(&path).expect("read checkpoint");
        let state = DatacenterState::from_snap_bytes(&raw).expect("decode checkpoint");
        dc = build();
        dc.restore(&state).expect("restore checkpoint");
        let loaded = load.elapsed().as_secs_f64() * 1e3;
        load_restore_ms = load_restore_ms.max(loaded);

        println!(
            "leg {leg}/{LEGS}  : ran to t={:>7} s in {ran:>5.1} s, snapshot {} KiB \
             (write {wrote:.1} ms, load+restore {loaded:.1} ms)",
            dc.now().as_secs(),
            file_bytes / 1024,
        );
    }
    let got = observable(&dc);

    assert_eq!(dc.now(), horizon, "legged run ended at the wrong time");
    if expected == got {
        println!(
            "\nPASS: legged run is bit-identical to the unbroken month \
             (report {} bytes, metrics {} bytes)",
            got.0.len(),
            got.1.len()
        );
        println!("\n{}", got.0);
        println!(
            "checkpoint: {file_bytes} bytes; worst of {LEGS} legs: write {write_ms:.1} ms, \
             load+restore {load_restore_ms:.1} ms"
        );
    } else {
        if expected.0 != got.0 {
            eprintln!(
                "FAIL: report diverged.\n--- unbroken ---\n{}\n--- legged ---\n{}",
                expected.0, got.0
            );
        }
        if expected.1 != got.1 {
            let diff = expected
                .1
                .lines()
                .zip(got.1.lines())
                .find(|(a, b)| a != b)
                .map(|(a, b)| format!("first diff:\n  unbroken: {a}\n  legged:   {b}"))
                .unwrap_or_else(|| "length mismatch".to_string());
            eprintln!("FAIL: Prometheus exposition diverged. {diff}");
        }
        std::process::exit(1);
    }
}
