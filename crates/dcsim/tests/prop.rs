//! Randomized property tests for the simulation kernel, driven by the
//! kernel's own deterministic [`SimRng`] stream.

use dcsim::{CycleSchedule, SimDuration, SimRng, SimTime, SnapReader, SnapWriter};

const CASES: usize = 200;

/// A schedule fires at a tick exactly when its grid `phase + k·period`
/// has a point since the previous tick (at or before the first), at any
/// period, phase and tick size; and a schedule built alike that loads
/// its saved bytes mid-run fires on the same ticks.
#[test]
fn schedule_fires_on_the_ticks_that_reach_its_grid() {
    let mut rng = SimRng::seed_from(0xD_51).split("cycle-grid");
    for _ in 0..CASES {
        let period = 1 + rng.next_below(20_000);
        let phase = match rng.next_below(4) {
            0 => 0,
            1 => u64::MAX - rng.next_below(1 << 20),
            _ => rng.next_below(60_000),
        };
        let tick = 1 + rng.next_below(10_000);
        let resume_at = rng.next_below(200);
        let configured = CycleSchedule::with_phase(
            SimDuration::from_millis(period),
            SimDuration::from_millis(phase),
        );
        let mut s = configured;
        let mut copy = None;
        let mut prev: Option<u64> = None;
        for k in 0..200 {
            if k == resume_at {
                let mut w = SnapWriter::new();
                s.save(&mut w);
                let (mut loaded, mut r) = (configured, SnapReader::new(w.as_bytes()));
                loaded.load(&mut r).unwrap();
                r.finish("schedule")
                    .expect("a schedule loads its own position");
                copy = Some(loaded);
            }
            let now = k * tick;
            let reached = now.checked_sub(phase).is_some_and(|since| {
                let last = u128::from(phase) + u128::from(since / period * period);
                prev.is_none_or(|p| last > u128::from(p))
            });
            let t = SimTime::from_millis(now);
            assert_eq!(s.fire(t), reached, "period {period} phase {phase} t={now}");
            assert!(!s.fire(t), "fired twice at t={now}");
            if let Some(c) = &mut copy {
                assert_eq!(c.fire(t), reached, "loaded copy diverged at t={now}");
            }
            prev = Some(now);
        }
    }
}

/// Uniform draws respect their bounds for arbitrary finite ranges.
#[test]
fn uniform_respects_arbitrary_bounds() {
    let mut meta = SimRng::seed_from(0xD_51).split("uniform-bounds");
    for _ in 0..CASES {
        let seed = meta.next_u64();
        let lo = meta.uniform(-1e6, 1e6);
        let width = meta.uniform(0.0, 1e6);
        let hi = lo + width;
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..50 {
            let x = rng.uniform(lo, hi);
            assert!(
                x >= lo && (x < hi || width == 0.0),
                "{x} outside [{lo}, {hi})"
            );
        }
    }
}

/// `next_below(n)` is always `< n`.
#[test]
fn next_below_in_range() {
    let mut meta = SimRng::seed_from(0xD_51).split("next-below");
    for _ in 0..CASES {
        let seed = meta.next_u64();
        let n = 1 + meta.next_below(u64::MAX - 1);
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..20 {
            assert!(rng.next_below(n) < n);
        }
    }
}

/// Split streams with different labels never coincide on their first
/// draws (collision probability ~2^-64 — a failure means the label
/// hashing broke).
#[test]
fn split_labels_decorrelate() {
    let mut meta = SimRng::seed_from(0xD_51).split("split-labels");
    for _ in 0..CASES {
        let seed = meta.next_u64();
        let len_a = 1 + meta.next_below(12) as usize;
        let len_b = 1 + meta.next_below(12) as usize;
        let rand_label = |meta: &mut SimRng, len: usize| -> String {
            (0..len)
                .map(|_| (b'a' + meta.next_below(26) as u8) as char)
                .collect()
        };
        let a = rand_label(&mut meta, len_a);
        let b = rand_label(&mut meta, len_b);
        if a == b {
            continue;
        }
        let mut root1 = SimRng::seed_from(seed);
        let mut root2 = SimRng::seed_from(seed);
        let mut ra = root1.split(&a);
        let mut rb = root2.split(&b);
        assert_ne!(
            ra.next_u64(),
            rb.next_u64(),
            "labels {a:?} and {b:?} collided"
        );
    }
}

/// Time arithmetic round-trips: (t + d) - t == d.
#[test]
fn time_addition_round_trips() {
    let mut rng = SimRng::seed_from(0xD_51).split("time-arith");
    for _ in 0..CASES {
        let t = rng.next_below(u64::MAX / 4);
        let d = rng.next_below(u64::MAX / 4);
        let base = SimTime::from_millis(t);
        let dur = SimDuration::from_millis(d);
        assert_eq!((base + dur) - base, dur);
    }
}

/// Normal samples are finite for any valid parameters.
#[test]
fn normal_is_finite() {
    let mut meta = SimRng::seed_from(0xD_51).split("normal-finite");
    for _ in 0..CASES {
        let seed = meta.next_u64();
        let mean = meta.uniform(-1e9, 1e9);
        let sd = meta.uniform(0.0, 1e6);
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..20 {
            assert!(rng.normal(mean, sd).is_finite());
        }
    }
}

/// Shuffling preserves the multiset of elements.
#[test]
fn shuffle_preserves_elements() {
    let mut meta = SimRng::seed_from(0xD_51).split("shuffle");
    for _ in 0..CASES {
        let seed = meta.next_u64();
        let n = meta.next_below(64) as usize;
        let mut items: Vec<u32> = (0..n).map(|_| meta.next_u64() as u32).collect();
        let mut expect = items.clone();
        let mut rng = SimRng::seed_from(seed);
        rng.shuffle(&mut items);
        items.sort_unstable();
        expect.sort_unstable();
        assert_eq!(items, expect);
    }
}
