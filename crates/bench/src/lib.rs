//! Benchmark support crate: a minimal self-contained timing harness.
//!
//! The actual benchmarks live in `benches/` (all `harness = false`,
//! plain `fn main()` binaries):
//!
//! * `figures` — one benchmark per paper table/figure, running the
//!   corresponding `experiments` entry point at quick scale.
//! * `controller` — microbenchmarks of the decision logic (three-band,
//!   cut distribution, leaf/upper cycles) across fleet sizes, plus the
//!   parallel control-plane ticks/sec matrix written to
//!   `BENCH_controlplane.json`.
//! * `simulation` — whole-datacenter step throughput and ablations
//!   (tick granularity, RPC loss, worker threads).
//! * `substrate` — breaker stepping, PRNG, sliding-window variation.

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

/// Measures `f` with a fixed number of samples, one call per sample,
/// reporting the fastest. For second-scale bodies where calibration
/// would be too slow.
pub fn measure_samples_ns<T, F: FnMut() -> T>(samples: u32, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        black_box(f());
        let ns = start.elapsed().as_nanos() as f64;
        if ns < best {
            best = ns;
        }
    }
    best
}

/// Calibrated benchmark: measure, print one `name ... time` line,
/// return ns/iter.
pub fn bench<T, F: FnMut() -> T>(name: &str, f: F) -> f64 {
    let ns = measure_ns(f);
    report(name, ns);
    ns
}

/// Fixed-sample benchmark for slow bodies: measure, print, return
/// ns/iter.
pub fn bench_samples<T, F: FnMut() -> T>(name: &str, samples: u32, f: F) -> f64 {
    let ns = measure_samples_ns(samples, f);
    report(name, ns);
    ns
}

/// Prints one aligned result line with a human-readable time unit.
pub fn report(name: &str, ns: f64) {
    println!("{name:<44} {:>12}", format_ns(ns));
}

/// Formats nanoseconds with an adaptive unit.
pub fn format_ns(ns: f64) -> String {
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

/// Resolves a path at the workspace root (where `BENCH_*.json` files
/// live), independent of the benchmark binary's working directory.
pub fn workspace_path(file: &str) -> std::path::PathBuf {
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => std::path::Path::new(&dir).join("../..").join(file),
        Err(_) => std::path::PathBuf::from(file),
    }
}

/// Baked roofline baseline for the worst-case 768-RPP shape (122,880
/// servers), in bytes per tick: the value
/// `dynamo::Fleet::bytes_per_tick().fused` reports for that site at
/// [`ROOFLINE_BASELINE_COMMIT`]. `benches/controller.rs
/// --roofline-gate` fails when the *current* roofline exceeds this by
/// more than [`ROOFLINE_GATE_MAX_REGRESSION`]: the model is analytical
/// (derived from live allocation lengths, no timing involved), so the
/// gate is always armed — a single-core or noisy host cannot produce a
/// false positive, only a real layout regression (an array added to the
/// settle stride, a mask unpacked back to `f64`) can.
pub const ROOFLINE_BASELINE_FUSED_768: u64 = 7_422_048;

// A zero baseline makes the ceiling zero and the gate fail for every
// layout, which is how it shipped once.
const _: () = assert!(ROOFLINE_BASELINE_FUSED_768 > 0);

/// The commit [`ROOFLINE_BASELINE_FUSED_768`] was read at.
pub const ROOFLINE_BASELINE_COMMIT: &str = "9efe935";

/// Allowed growth of the roofline before the gate fails: 5%.
pub const ROOFLINE_GATE_MAX_REGRESSION: f64 = 0.05;

/// Whether a 768-RPP roofline of `fused` bytes per tick passes the
/// gate. Lives here rather than in the `harness = false` bench binary
/// so `cargo test` can run it.
pub fn roofline_gate_passes(fused: u64) -> bool {
    fused as f64 <= ROOFLINE_BASELINE_FUSED_768 as f64 * (1.0 + ROOFLINE_GATE_MAX_REGRESSION)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roofline_gate_passes_at_the_baseline_and_fails_past_five_percent() {
        assert!(roofline_gate_passes(ROOFLINE_BASELINE_FUSED_768));
        assert!(roofline_gate_passes(
            ROOFLINE_BASELINE_FUSED_768 * 104 / 100
        ));
        assert!(!roofline_gate_passes(
            ROOFLINE_BASELINE_FUSED_768 * 106 / 100
        ));
    }

    #[test]
    fn measure_returns_positive_time() {
        let ns = measure_samples_ns(3, || std::hint::black_box((0..100).sum::<u64>()));
        assert!(ns > 0.0);
    }

    #[test]
    fn format_picks_sane_units() {
        assert!(format_ns(12.3).ends_with("ns"));
        assert!(format_ns(12_300.0).ends_with("µs"));
        assert!(format_ns(12_300_000.0).ends_with("ms"));
        assert!(format_ns(12_300_000_000.0).ends_with(" s"));
    }
}
