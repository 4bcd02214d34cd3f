//! Sliding-window power variation and power slope (§II-B, Figure 4).

use std::collections::VecDeque;

use dcsim::SimDuration;

use crate::trace::Trace;

/// Computes the worst-case power variation (max − min) in every sliding
/// window of length `window` over the trace — the metric illustrated by
/// Figure 4 of the paper.
///
/// A window of `w` samples covers `(w − 1) × interval` of time; the
/// function chooses `w` so the window spans at least `window` (i.e. a 60 s
/// window over 3 s samples uses 21 samples). Returns one value per window
/// position ([`variation_windows`] of them), as
/// [`for_each_variation`] visits them.
///
/// Returns an empty vector when the trace is shorter than one window.
///
/// # Panics
///
/// Panics if `window` is zero.
///
/// # Example
///
/// ```
/// use dcsim::SimDuration;
/// use powerstats::{sliding_variation, Trace};
///
/// let t = Trace::new(SimDuration::from_secs(3), vec![100.0, 140.0, 90.0, 110.0]);
/// let v = sliding_variation(&t, SimDuration::from_secs(6));
/// assert_eq!(v, vec![50.0, 50.0]); // windows of 3 samples
/// ```
pub fn sliding_variation(trace: &Trace, window: SimDuration) -> Vec<f64> {
    let mut out = Vec::with_capacity(variation_windows(trace, window));
    for_each_variation(trace, window, |v| out.push(v));
    out
}

/// How many window positions [`sliding_variation`] yields over `trace`:
/// none when the trace is shorter than one window.
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn variation_windows(trace: &Trace, window: SimDuration) -> usize {
    assert!(!window.is_zero(), "variation window must be positive");
    (trace.len() + 1).saturating_sub(window_samples(trace.interval(), window))
}

/// Hands `visit` each window's variation, in window order — what
/// [`sliding_variation`] collects, for a caller that keeps none of them.
/// Runs in `O(n)` using monotonic deques.
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn for_each_variation(trace: &Trace, window: SimDuration, mut visit: impl FnMut(f64)) {
    if variation_windows(trace, window) == 0 {
        return;
    }
    let w = window_samples(trace.interval(), window);
    let values = trace.values();
    let mut maxq: VecDeque<usize> = VecDeque::new();
    let mut minq: VecDeque<usize> = VecDeque::new();
    for i in 0..values.len() {
        while maxq.back().is_some_and(|&j| values[j] <= values[i]) {
            maxq.pop_back();
        }
        maxq.push_back(i);
        while minq.back().is_some_and(|&j| values[j] >= values[i]) {
            minq.pop_back();
        }
        minq.push_back(i);
        if i + 1 >= w {
            let lo = i + 1 - w;
            while *maxq.front().expect("nonempty") < lo {
                maxq.pop_front();
            }
            while *minq.front().expect("nonempty") < lo {
                minq.pop_front();
            }
            visit(values[*maxq.front().unwrap()] - values[*minq.front().unwrap()]);
        }
    }
}

/// Computes the power *slope* per window: the largest increase from the
/// window's start sample to any later sample within the window, divided by
/// the elapsed time — "the rate at which power can increase in a specific
/// time window" (§II-B). Units: value-units per second.
///
/// Returns an empty vector when the trace is shorter than one window.
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn power_slope(trace: &Trace, window: SimDuration) -> Vec<f64> {
    assert!(!window.is_zero(), "slope window must be positive");
    let w = window_samples(trace.interval(), window);
    let values = trace.values();
    if values.len() < w || w < 2 {
        return Vec::new();
    }
    let dt = trace.interval().as_secs_f64();
    let mut out = Vec::with_capacity(values.len() - w + 1);
    for start in 0..=(values.len() - w) {
        let base = values[start];
        let mut best = 0.0f64;
        for (k, &v) in values[start + 1..start + w].iter().enumerate() {
            let slope = (v - base) / ((k + 1) as f64 * dt);
            best = best.max(slope);
        }
        out.push(best);
    }
    out
}

/// Number of samples covering `window` at the trace's sampling interval.
fn window_samples(interval: SimDuration, window: SimDuration) -> usize {
    let ratio = window.as_millis().div_ceil(interval.as_millis());
    (ratio as usize + 1).max(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(vals: &[f64]) -> Trace {
        Trace::new(SimDuration::from_secs(3), vals.to_vec())
    }

    #[test]
    fn flat_trace_has_zero_variation() {
        let t = trace(&[50.0; 40]);
        let v = sliding_variation(&t, SimDuration::from_secs(30));
        assert!(!v.is_empty());
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn step_is_captured_by_covering_windows() {
        let mut vals = vec![100.0; 20];
        vals.extend(vec![150.0; 20]);
        let t = trace(&vals);
        let v = sliding_variation(&t, SimDuration::from_secs(9));
        assert_eq!(v.iter().cloned().fold(0.0, f64::max), 50.0);
        // Windows far from the step see zero.
        assert_eq!(v[0], 0.0);
        assert_eq!(*v.last().unwrap(), 0.0);
    }

    #[test]
    fn matches_brute_force() {
        // Deterministic pseudo-random walk.
        let mut x = 100.0f64;
        let vals: Vec<f64> = (0..200)
            .map(|i| {
                x += ((i * 37 % 17) as f64 - 8.0) * 1.5;
                x
            })
            .collect();
        let t = trace(&vals);
        let w = SimDuration::from_secs(30);
        let fast = sliding_variation(&t, w);
        let wlen = 11; // 30s / 3s + 1
        let slow: Vec<f64> = vals
            .windows(wlen)
            .map(|win| {
                let mx = win.iter().cloned().fold(f64::MIN, f64::max);
                let mn = win.iter().cloned().fold(f64::MAX, f64::min);
                mx - mn
            })
            .collect();
        assert_eq!(fast.len(), slow.len());
        for (f, s) in fast.iter().zip(&slow) {
            assert!((f - s).abs() < 1e-9);
        }
    }

    #[test]
    fn larger_windows_have_larger_or_equal_variation() {
        // Paper observation 1 on Figure 5.
        let mut x = 0.0f64;
        let vals: Vec<f64> = (0..500)
            .map(|i| {
                x += ((i * 13 % 7) as f64 - 3.0) * 2.0;
                200.0 + x
            })
            .collect();
        let t = trace(&vals);
        let small = sliding_variation(&t, SimDuration::from_secs(30));
        let large = sliding_variation(&t, SimDuration::from_secs(300));
        let max_small = small.iter().cloned().fold(0.0, f64::max);
        let max_large = large.iter().cloned().fold(0.0, f64::max);
        assert!(max_large >= max_small);
    }

    #[test]
    fn short_trace_yields_empty() {
        let t = trace(&[1.0, 2.0]);
        assert!(sliding_variation(&t, SimDuration::from_secs(60)).is_empty());
        assert!(power_slope(&t, SimDuration::from_secs(60)).is_empty());
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        sliding_variation(&trace(&[1.0; 10]), SimDuration::ZERO);
    }

    #[test]
    fn slope_detects_ramp_rate() {
        // 10 units per 3 s sample = 3.333 units/s.
        let vals: Vec<f64> = (0..30).map(|i| 100.0 + 10.0 * i as f64).collect();
        let t = trace(&vals);
        let slopes = power_slope(&t, SimDuration::from_secs(30));
        for s in slopes {
            assert!((s - 10.0 / 3.0).abs() < 1e-9, "slope {s}");
        }
    }

    #[test]
    fn slope_of_decreasing_trace_is_zero() {
        let vals: Vec<f64> = (0..30).map(|i| 300.0 - 5.0 * i as f64).collect();
        let t = trace(&vals);
        let slopes = power_slope(&t, SimDuration::from_secs(15));
        assert!(slopes.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn window_sample_count_covers_duration() {
        // 60s window over 3s samples: 21 samples span exactly 60s.
        assert_eq!(
            window_samples(SimDuration::from_secs(3), SimDuration::from_secs(60)),
            21
        );
        // Non-divisible durations round up.
        assert_eq!(
            window_samples(SimDuration::from_secs(3), SimDuration::from_secs(10)),
            5
        );
        // Degenerate: window smaller than interval still uses 2 samples.
        assert_eq!(
            window_samples(SimDuration::from_secs(3), SimDuration::from_secs(1)),
            2
        );
    }
}
