//! CI's thread-scaling smoke: on a 64-RPP worst-case fleet, the widest
//! pool this host can seat (at most 8 workers) must not fall below
//! 0.9x of one thread. Facebook's consolidated binary runs ~100
//! controller threads (§IV); the pool that mirrors it may fail to help
//! on a small shape, but it must never meaningfully hurt.
//!
//! ```sh
//! cargo bench -p bench --bench controller -- --scaling-smoke
//! ```
//!
//! This is a gate, not a benchmark: it prints what it compared and
//! exits nonzero on failure, and records nothing. Speed numbers come
//! from `dynbench` (see `bench-results/README.md`). The binary does one
//! thing, so arguments (the flag above, cargo's own `--bench`) are
//! accepted and ignored.

use std::time::Instant;

use dynamo::{Datacenter, DatacenterBuilder};
use workloads::{ServiceKind, TrafficPattern};

/// The worst-case workload at 64 RPPs x 160 servers: flat 1.2x demand
/// keeps most servers under churning caps on lossy links and every leaf
/// redraws every tick, so nothing settles and no cycle is elided — the
/// pool's dispatch cost is never hidden by skipped work.
fn fleet(threads: usize) -> Datacenter {
    DatacenterBuilder::new()
        .sbs_per_msb(8)
        .rpps_per_sb(8)
        .racks_per_rpp(4)
        .servers_per_rack(40)
        .uniform_service(ServiceKind::Web)
        .traffic(ServiceKind::Web, TrafficPattern::flat(1.2))
        .seed(42)
        .worker_threads(threads)
        .build()
}

/// Ticks per second over one 600 ms window, after a 10-tick warm-up.
fn ticks_per_sec(dc: &mut Datacenter) -> f64 {
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
        if start.elapsed().as_millis() >= 600 {
            break;
        }
    }
    ticks as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    // The library builds exactly the pool it is asked for; not seating
    // more workers than the host has cores is the caller's decision.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let wide = 8.min(cores);
    // Rounds alternate the two sides and each keeps its best window, so
    // scheduler noise — which only ever slows a window down — cannot
    // bias the ratio.
    let (mut serial, mut pooled) = (0.0f64, 0.0f64);
    for _ in 0..5 {
        serial = serial.max(ticks_per_sec(&mut fleet(1)));
        pooled = pooled.max(ticks_per_sec(&mut fleet(wide)));
    }
    let ratio = pooled / serial;
    println!("thread-scaling smoke (64 RPPs, 10240 servers, lockstep, {cores} host cores):");
    println!("  threads=1  {serial:>10.0} ticks/s");
    println!("  threads={wide}  {pooled:>10.0} ticks/s");
    println!("  ratio      {ratio:>10.2}x (floor 0.90x)");
    if ratio.is_nan() || ratio < 0.90 {
        eprintln!("FAIL: parallel throughput below 0.9x serial");
        std::process::exit(1);
    }
}
