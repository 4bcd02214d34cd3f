//! Dropping a `Datacenter` must join every persistent pool worker
//! promptly: no leaked or hung threads. This lives in its own test
//! binary (process) so the `/proc` thread census cannot race other
//! tests that build pools concurrently.

// The `/proc/self/task` census has no Miri equivalent (isolated
// interpreter, no procfs); the dynpool Miri job covers the pool's
// synchronization instead.
#![cfg(not(miri))]

use std::time::Duration;

use dcsim::SimTime;
use dynamo_repro::dynamo::{DatacenterBuilder, ParallelMode};
use dynamo_repro::workloads::ServiceKind;

/// Counts live threads of this process whose name starts with
/// `dynpool-` (worker threads are named at spawn).
fn live_pool_threads() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        // Not on Linux: fall back to "can't count", covered by the
        // timeout check alone.
        return 0;
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("dynpool-"))
        .count()
}

#[test]
fn dropping_the_datacenter_joins_all_pool_workers() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        // (RPPs = leaves, threads asked for): the stepping thread is
        // one of the pool, so a datacenter holds min(threads, leaves) - 1
        // spawned threads — none at all for one thread or one leaf.
        for (leaves, threads) in [(2, 4), (4, 3), (4, 4), (4, 1), (1, 8)] {
            let mut dc = DatacenterBuilder::new()
                .sbs_per_msb(1)
                .rpps_per_sb(leaves)
                .racks_per_rpp(2)
                .servers_per_rack(16)
                .uniform_service(ServiceKind::Web)
                .worker_threads(threads)
                .parallel_mode(ParallelMode::Pooled)
                .seed(7)
                .build();
            dc.run_until(SimTime::from_mins(1));
            let while_alive = live_pool_threads();
            drop(dc);
            tx.send((leaves, threads, while_alive, live_pool_threads()))
                .unwrap();
        }
    });
    // A hung worker would leave the drop (which joins) blocked forever;
    // the timeout turns that into a failure instead of a wedged suite.
    for _ in 0..5 {
        let (leaves, threads, while_alive, after_drop) = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("datacenter drop did not finish: pool worker leaked or hung");
        // Off Linux the census reads 0 throughout; the timeout above is
        // the check there.
        if cfg!(target_os = "linux") {
            assert_eq!(
                while_alive,
                threads.min(leaves) - 1,
                "{threads} threads over {leaves} leaves"
            );
        }
        assert_eq!(after_drop, 0, "pool workers survived the datacenter drop");
    }
}
