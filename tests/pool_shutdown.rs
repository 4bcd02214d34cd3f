//! Dropping a `Datacenter` must join every persistent pool worker
//! promptly: no leaked or hung threads. This lives in its own test
//! binary (process) so the `/proc` thread census cannot race other
//! tests that build pools concurrently.

// The `/proc/self/task` census has no Miri equivalent (isolated
// interpreter, no procfs); the dynpool Miri job covers the pool's
// synchronization instead.
#![cfg(not(miri))]

use std::time::{Duration, Instant};

use dcsim::SimTime;
use dynamo_repro::dynamo::{DatacenterBuilder, ParallelMode};
use dynamo_repro::workloads::ServiceKind;

/// `PF_EXITING`: set in a task's kernel flags once it enters `exit`.
const PF_EXITING: u64 = 0x4;

/// This process's threads as (tid, exiting). A thread is listed from
/// `clone`, before it has run or named itself, until the kernel
/// releases it; that is slightly after `join` returns, by which time
/// the thread is exiting. Off Linux the census is empty.
fn tasks() -> Vec<(String, bool)> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.filter_map(|task| {
        let task = task.ok()?;
        // Unreadable: released since the listing, so gone.
        let stat = std::fs::read_to_string(task.path().join("stat")).ok()?;
        // The flags are the seventh field after the parenthesised name.
        let flags: u64 = stat
            .rsplit(')')
            .next()?
            .split_whitespace()
            .nth(6)?
            .parse()
            .ok()?;
        Some((
            task.file_name().into_string().ok()?,
            flags & PF_EXITING != 0,
        ))
    })
    .collect()
}

/// The exiting flags of the threads not in `baseline`.
fn spawned_since(baseline: &[String]) -> Vec<bool> {
    tasks()
        .into_iter()
        .filter(|(tid, _)| !baseline.contains(tid))
        .map(|(_, exiting)| exiting)
        .collect()
}

#[test]
fn dropping_the_datacenter_joins_all_pool_workers() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        // (RPPs = leaves, threads asked for): the stepping thread is
        // one of the pool, so a datacenter holds min(threads, leaves) - 1
        // spawned threads — none at all for one thread or one leaf.
        for (leaves, threads) in [(2, 4), (4, 3), (4, 4), (4, 1), (1, 8)] {
            let baseline: Vec<String> = tasks().into_iter().map(|(tid, _)| tid).collect();
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
            let while_alive = spawned_since(&baseline).len();
            drop(dc);
            // Every worker was joined, so any still listed is exiting…
            let running = spawned_since(&baseline).iter().filter(|&&e| !e).count();
            // …and the kernel releases it within moments.
            let deadline = Instant::now() + Duration::from_secs(1);
            while !spawned_since(&baseline).is_empty() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            let after_drop = spawned_since(&baseline).len();
            tx.send((leaves, threads, while_alive, running, after_drop))
                .unwrap();
        }
    });
    // A hung worker would leave the drop (which joins) blocked forever;
    // the timeout turns that into a failure instead of a wedged suite.
    for _ in 0..5 {
        let (leaves, threads, while_alive, running, after_drop) = rx
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
        assert_eq!(
            running, 0,
            "pool workers still running after the drop returned"
        );
        assert_eq!(after_drop, 0, "pool workers survived the datacenter drop");
    }
}
