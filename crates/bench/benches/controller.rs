//! CI's thread-scaling smoke: on each of two worst-case shapes for the
//! pool, the widest pool this host can seat (at most 8 threads) must
//! not fall below 0.9x of one thread. Facebook's consolidated binary
//! runs ~100 controller threads (§IV); the pool that mirrors it may
//! fail to help on some shape, but it must never meaningfully hurt.
//! The large shape keeps every leaf busy, so a slow fan-out shows as
//! lost scaling; the small one is Figure 14's cluster, whose whole tick
//! is tens of microseconds, so a fan-out that sleeps costs more than
//! the work it spreads.
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
use powerinfra::Power;
use workloads::{ServiceKind, TrafficPattern};

/// The worst-case workload at 64 RPPs x 160 servers: flat 1.2x demand
/// keeps most servers under churning caps on lossy links and every leaf
/// redraws every tick, so nothing settles and no cycle is elided — the
/// pool's dispatch cost is never hidden by skipped work.
fn site(threads: usize) -> Datacenter {
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

/// Figure 14's cluster, 8 RPPs x 120 turbo Hadoop servers, at the base
/// load it spends most of its day at: no wave, so nothing caps and the
/// tick is at its cheapest — two fan-outs around ~45 us of work, where
/// a dispatch that costs a futex round trip is slower than no pool.
fn hadoop_cluster(threads: usize) -> Datacenter {
    DatacenterBuilder::new()
        .sbs_per_msb(1)
        .rpps_per_sb(8)
        .racks_per_rpp(4)
        .servers_per_rack(30)
        .rpp_rating(Power::from_kilowatts(48.0))
        .sb_rating(Power::from_kilowatts(320.0))
        .uniform_service(ServiceKind::Hadoop)
        .turbo(ServiceKind::Hadoop)
        .traffic(ServiceKind::Hadoop, TrafficPattern::flat(0.85))
        .seed(14)
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
    // The library clamps a pool at the leaf count, not at the host's
    // cores: not oversubscribing the host is the caller's decision.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let wide = 8.min(cores);
    type Build = fn(usize) -> Datacenter;
    let shapes: [(&str, Build); 2] = [
        ("64 RPPs, 10240 web servers at 1.2x", site),
        ("8 RPPs, 960 turbo Hadoop servers", hadoop_cluster),
    ];
    let mut failed = false;
    for (name, fleet) in shapes {
        // Rounds alternate the two sides and each keeps its best
        // window, so scheduler noise — which only ever slows a window
        // down — cannot bias the ratio.
        let (mut serial, mut pooled) = (0.0f64, 0.0f64);
        for _ in 0..5 {
            serial = serial.max(ticks_per_sec(&mut fleet(1)));
            pooled = pooled.max(ticks_per_sec(&mut fleet(wide)));
        }
        let ratio = pooled / serial;
        println!("thread-scaling smoke ({name}, lockstep, {cores} host cores):");
        println!("  threads=1  {serial:>10.0} ticks/s");
        println!("  threads={wide}  {pooled:>10.0} ticks/s");
        println!("  ratio      {ratio:>10.2}x (floor 0.90x)");
        if ratio.is_nan() || ratio < 0.90 {
            eprintln!("FAIL: parallel throughput below 0.9x serial on {name}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
