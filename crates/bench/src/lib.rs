//! The calibrated timing loop `dynbench` links ([`measure_ns`]), and
//! the little the two bench binaries left in `benches/` call.
//!
//! `dynbench` (its own package at the repository root, described by
//! `BENCHMARK.json`) is the one place a speed number is produced, and
//! `bench-results/` the one place it is recorded. What remains here:
//!
//! * `benches/controller.rs` — CI's thread-scaling smoke: a gate that
//!   needs a clock, so it cannot be a `#[test]`.
//! * `benches/substrate.rs` — per-server probes of the two shipping
//!   column kernels, which no `dynbench` metric isolates yet; they move
//!   there when that package is next editable.

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::time::Instant;

/// Runs `f` repeatedly until a batch takes at least this long, then
/// reports per-iteration time from the fastest of three such batches.
const BATCH_BUDGET_NS: u128 = 25_000_000;

/// Measures mean wall-clock nanoseconds per call of `f`, with automatic
/// warmup and batch-size calibration. Suitable for nanosecond- to
/// millisecond-scale bodies.
pub fn measure_ns<T, F: FnMut() -> T>(mut f: F) -> f64 {
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = start.elapsed().as_nanos();
        if elapsed >= BATCH_BUDGET_NS {
            let mut best = elapsed as f64 / iters as f64;
            for _ in 0..2 {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                let ns = start.elapsed().as_nanos() as f64 / iters as f64;
                if ns < best {
                    best = ns;
                }
            }
            return best;
        }
        // Grow towards the budget in one step, but never more than 100x.
        let growth = BATCH_BUDGET_NS
            .checked_div(elapsed)
            .map_or(100, |g| (g + 1) as u64);
        iters = iters.saturating_mul(growth.clamp(2, 100));
    }
}

/// Prints one aligned result line with a human-readable time unit.
pub fn report(name: &str, ns: f64) {
    println!("{name:<44} {:>12}", format_ns(ns));
}

/// Formats nanoseconds with an adaptive unit.
fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_positive_finite_time() {
        let ns = measure_ns(|| (0..100).sum::<u64>());
        assert!(ns.is_finite() && ns > 0.0, "{ns}");
    }

    #[test]
    fn format_picks_sane_units() {
        assert!(format_ns(12.3).ends_with("ns"));
        assert!(format_ns(12_300.0).ends_with("µs"));
        assert!(format_ns(12_300_000.0).ends_with("ms"));
        assert!(format_ns(12_300_000_000.0).ends_with(" s"));
    }
}
