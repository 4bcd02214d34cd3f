//! Regularly-sampled time series.

use dcsim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A power trace: values sampled at a fixed interval, starting at
/// simulation time zero unless offset.
///
/// The value unit is up to the caller (the workspace uses watts); the
/// analysis functions in this crate are unit-agnostic.
///
/// # Example
///
/// ```
/// use dcsim::{SimDuration, SimTime};
/// use powerstats::Trace;
///
/// let mut t = Trace::empty(SimDuration::from_secs(3));
/// t.push(100.0);
/// t.push(130.0);
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.time_of(1), SimTime::from_secs(3));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    interval: SimDuration,
    start: SimTime,
    values: Vec<f64>,
}

impl Trace {
    /// Creates a trace from existing samples.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: SimDuration, values: Vec<f64>) -> Self {
        assert!(!interval.is_zero(), "trace interval must be positive");
        Trace {
            interval,
            start: SimTime::ZERO,
            values,
        }
    }

    /// Creates an empty trace that will be filled with [`Trace::push`].
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn empty(interval: SimDuration) -> Self {
        Trace::new(interval, Vec::new())
    }

    /// Sets the timestamp of the first sample (default
    /// [`SimTime::ZERO`]).
    pub fn with_start(mut self, start: SimTime) -> Self {
        self.start = start;
        self
    }

    /// Appends a sample.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// The sampling interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Timestamp of the first sample.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// The samples.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the trace holds no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The timestamp of sample `i`.
    pub fn time_of(&self, i: usize) -> SimTime {
        self.start + self.interval * (i as u64)
    }

    /// Iterates `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(i, &v)| (self.time_of(i), v))
    }

    /// Arithmetic mean of the samples (`NaN` for an empty trace).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            f64::NAN
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Largest sample (`NaN` for an empty trace).
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(f64::NAN, f64::max)
    }

    /// Smallest sample (`NaN` for an empty trace).
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::NAN, f64::min)
    }

    /// Mean of the top `fraction` of samples — "average power during peak
    /// hours", the normalization denominator used by Figure 5.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0, 1]`.
    pub fn peak_mean(&self, fraction: f64) -> f64 {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0,1], got {fraction}"
        );
        if self.values.is_empty() {
            return f64::NAN;
        }
        let descending = |a: &f64, b: &f64| b.partial_cmp(a).expect("NaN in trace");
        let mut values = self.values.clone();
        let k = ((values.len() as f64 * fraction).ceil() as usize).max(1);
        // Only the top `k` are read: select them, then sort just those,
        // so the sum runs over the same values in the same descending
        // order a full sort would give.
        values.select_nth_unstable_by(k - 1, descending);
        let top = &mut values[..k];
        top.sort_unstable_by(descending);
        top.iter().sum::<f64>() / k as f64
    }

    /// Sums aligned traces sample-by-sample (aggregating servers up to a
    /// power device). All traces must share interval and length.
    ///
    /// # Panics
    ///
    /// Panics if traces disagree on interval/length, or `traces` is empty.
    pub fn sum_aligned(traces: &[&Trace]) -> Trace {
        let first = traces
            .first()
            .expect("sum_aligned needs at least one trace");
        let mut out = vec![0.0; first.len()];
        for t in traces {
            assert_eq!(t.interval, first.interval, "trace interval mismatch");
            assert_eq!(t.len(), first.len(), "trace length mismatch");
            for (acc, v) in out.iter_mut().zip(&t.values) {
                *acc += v;
            }
        }
        Trace {
            interval: first.interval,
            start: first.start,
            values: out,
        }
    }

    /// Downsamples by averaging every `factor` consecutive samples
    /// (trailing partial bucket dropped). Used to derive 1-minute series
    /// from 3-second samples.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn downsample(&self, factor: usize) -> Trace {
        assert!(factor > 0, "downsample factor must be positive");
        let values: Vec<f64> = self
            .values
            .chunks_exact(factor)
            .map(|c| c.iter().sum::<f64>() / factor as f64)
            .collect();
        Trace {
            interval: self.interval * factor as u64,
            start: self.start,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_time_of() {
        let mut t = Trace::empty(SimDuration::from_secs(3));
        t.push(1.0);
        t.push(2.0);
        t.push(3.0);
        assert_eq!(t.time_of(2), SimTime::from_secs(6));
        assert_eq!(t.values(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn with_start_offsets_times() {
        let t =
            Trace::new(SimDuration::from_secs(1), vec![0.0; 3]).with_start(SimTime::from_secs(100));
        assert_eq!(t.time_of(0), SimTime::from_secs(100));
        assert_eq!(t.time_of(2), SimTime::from_secs(102));
    }

    #[test]
    fn iter_yields_pairs() {
        let t = Trace::new(SimDuration::from_secs(2), vec![5.0, 6.0]);
        let pairs: Vec<_> = t.iter().collect();
        assert_eq!(
            pairs,
            vec![(SimTime::ZERO, 5.0), (SimTime::from_secs(2), 6.0)]
        );
    }

    #[test]
    fn basic_stats() {
        let t = Trace::new(SimDuration::from_secs(1), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.min(), 1.0);
        assert_eq!(t.max(), 4.0);
    }

    #[test]
    fn empty_trace_stats_are_nan() {
        let t = Trace::empty(SimDuration::from_secs(1));
        assert!(t.mean().is_nan());
        assert!(t.min().is_nan());
        assert!(t.max().is_nan());
        assert!(t.is_empty());
    }

    #[test]
    fn peak_mean_takes_top_fraction() {
        let t = Trace::new(SimDuration::from_secs(1), vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(t.peak_mean(0.5), 35.0); // top 2 samples
        assert_eq!(t.peak_mean(0.25), 40.0); // top 1
        assert_eq!(t.peak_mean(1.0), 25.0); // all
    }

    /// Selecting the top `k` before sorting them changes no bit of the
    /// mean a full descending sort gives, ties included.
    #[test]
    fn peak_mean_matches_a_full_sort_bit_for_bit() {
        let mut rng = dcsim::SimRng::seed_from(0x9eac);
        for case in 0..200 {
            let n = 1 + rng.next_below(400) as usize;
            let values: Vec<f64> = (0..n)
                .map(|_| {
                    let v = rng.normal(250.0, 40.0);
                    if case % 2 == 0 {
                        v.round()
                    } else {
                        v
                    }
                })
                .collect();
            let fraction = [0.3, 1.0, 1e-9, rng.uniform(0.01, 1.0)][case % 4];
            let mut sorted = values.clone();
            sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
            let k = ((n as f64 * fraction).ceil() as usize).max(1);
            let expected = sorted[..k].iter().sum::<f64>() / k as f64;
            let got = Trace::new(SimDuration::from_secs(3), values).peak_mean(fraction);
            assert_eq!(
                got.to_bits(),
                expected.to_bits(),
                "case {case}: n {n} k {k}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "fraction must be in")]
    fn peak_mean_rejects_zero_fraction() {
        Trace::new(SimDuration::from_secs(1), vec![1.0]).peak_mean(0.0);
    }

    #[test]
    fn sum_aligned_aggregates() {
        let a = Trace::new(SimDuration::from_secs(3), vec![1.0, 2.0]);
        let b = Trace::new(SimDuration::from_secs(3), vec![10.0, 20.0]);
        let s = Trace::sum_aligned(&[&a, &b]);
        assert_eq!(s.values(), &[11.0, 22.0]);
        assert_eq!(s.interval(), SimDuration::from_secs(3));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn sum_aligned_rejects_mismatched_lengths() {
        let a = Trace::new(SimDuration::from_secs(3), vec![1.0, 2.0]);
        let b = Trace::new(SimDuration::from_secs(3), vec![10.0]);
        Trace::sum_aligned(&[&a, &b]);
    }

    #[test]
    fn downsample_averages_buckets() {
        let t = Trace::new(SimDuration::from_secs(3), vec![1.0, 3.0, 5.0, 7.0, 9.0]);
        let d = t.downsample(2);
        assert_eq!(d.values(), &[2.0, 6.0]); // trailing 9.0 dropped
        assert_eq!(d.interval(), SimDuration::from_secs(6));
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_panics() {
        Trace::empty(SimDuration::ZERO);
    }
}
