//! Empirical cumulative distribution functions.

use serde::{Deserialize, Serialize};

/// Where the type-7 `q`-quantile of `n` order statistics lies: the two
/// ranks it falls between and the weight of the upper one.
fn type7_position(n: usize, q: f64) -> (usize, usize, f64) {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    (lo, pos.ceil() as usize, pos - lo as f64)
}

/// The type-7 interpolation between two adjacent order statistics.
fn type7_between(lo: f64, hi: f64, frac: f64) -> f64 {
    lo * (1.0 - frac) + hi * frac
}

/// Panics unless `samples` can carry a distribution: at least one, none
/// of them NaN.
fn check_samples(samples: &[f64]) {
    assert!(!samples.is_empty(), "cannot build a CDF from zero samples");
    assert!(
        samples.iter().all(|v| !v.is_nan()),
        "NaN sample in CDF input"
    );
}

/// One quantile of a throw-away sample pool, by selection instead of a
/// full sort: what `Cdf::from_samples(samples).quantile(q)` returns, to
/// the bit, in O(n) — for a pool that is read once. `samples` is left
/// reordered.
///
/// The one exception to "to the bit": zeros of both signs compare equal
/// and only the stable sort has an order for them, so a quantile that
/// lands on such a tie may differ in the sign of its zero.
///
/// # Panics
///
/// Panics if `samples` is empty or contains NaN, or `q` is outside
/// `[0, 1]`.
///
/// # Example
///
/// ```
/// use powerstats::{quantile_of, Cdf};
///
/// let mut pool = vec![4.0, 1.0, 5.0, 2.0, 3.0];
/// assert_eq!(quantile_of(&mut pool.clone(), 0.9), Cdf::from_samples(pool).quantile(0.9));
/// ```
pub fn quantile_of(samples: &mut [f64], q: f64) -> f64 {
    check_samples(samples);
    let (lo, hi, frac) = type7_position(samples.len(), q);
    if samples.len() == 1 {
        return samples[0];
    }
    let ascending = |a: &f64, b: &f64| a.partial_cmp(b).expect("NaN checked above");
    // The upper order statistic lands at `hi` with everything not
    // above it to its left; the lower one, when it is a different
    // rank, is the rank just below: the largest of that left side.
    let (below, &mut upper, _) = samples.select_nth_unstable_by(hi, ascending);
    let lower = if lo == hi {
        upper
    } else {
        below.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    };
    type7_between(lower, upper, frac)
}

/// An empirical CDF over a set of samples.
///
/// Quantiles use linear interpolation between order statistics (the common
/// "type 7" estimator), matching what one gets from standard plotting
/// stacks — appropriate since we are reproducing published CDF figures.
///
/// # Example
///
/// ```
/// use powerstats::Cdf;
///
/// let cdf = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
/// assert_eq!(cdf.quantile(0.5), 3.0);
/// assert_eq!(cdf.fraction_below(3.0), 0.4); // strictly below
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples (need not be sorted).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains NaN.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        check_samples(&samples);
        samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN checked above"));
        Cdf { sorted: samples }
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false: construction requires at least one sample.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The `q`-quantile for `q` in `[0, 1]`, e.g. `quantile(0.99)` is p99.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        let (lo, hi, frac) = type7_position(self.sorted.len(), q);
        if self.sorted.len() == 1 {
            return self.sorted[0];
        }
        type7_between(self.sorted[lo], self.sorted[hi], frac)
    }

    /// Median (p50).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// 99th percentile, quoted throughout the paper's Figures 5 and 6.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Fraction of samples strictly below `x` (the y-value plotted at `x`).
    pub fn fraction_below(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v < x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Minimum sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty by construction")
    }

    /// Evenly-spaced `(value, cumulative_fraction)` points for plotting,
    /// with `points >= 2`.
    ///
    /// # Panics
    ///
    /// Panics if `points < 2`.
    pub fn plot_points(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "need at least 2 plot points");
        (0..points)
            .map(|i| {
                let q = i as f64 / (points - 1) as f64;
                (self.quantile(q), q)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcsim::SimRng;

    #[test]
    fn quantiles_interpolate() {
        let cdf = Cdf::from_samples(vec![0.0, 10.0]);
        assert_eq!(cdf.quantile(0.0), 0.0);
        assert_eq!(cdf.quantile(0.5), 5.0);
        assert_eq!(cdf.quantile(1.0), 10.0);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let cdf = Cdf::from_samples(vec![7.0]);
        assert_eq!(cdf.quantile(0.0), 7.0);
        assert_eq!(cdf.median(), 7.0);
        assert_eq!(cdf.p99(), 7.0);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let cdf = Cdf::from_samples(vec![3.0, 1.0, 2.0]);
        assert_eq!(cdf.min(), 1.0);
        assert_eq!(cdf.max(), 3.0);
        assert_eq!(cdf.median(), 2.0);
    }

    #[test]
    fn p99_close_to_max_for_large_uniform() {
        let samples: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let cdf = Cdf::from_samples(samples);
        assert!((cdf.p99() - 989.01).abs() < 0.1, "p99={}", cdf.p99());
    }

    #[test]
    fn fraction_below_is_strict() {
        let cdf = Cdf::from_samples(vec![1.0, 2.0, 2.0, 3.0]);
        assert_eq!(cdf.fraction_below(2.0), 0.25);
        assert_eq!(cdf.fraction_below(2.5), 0.75);
        assert_eq!(cdf.fraction_below(100.0), 1.0);
        assert_eq!(cdf.fraction_below(0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_input_panics() {
        Cdf::from_samples(vec![]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_input_panics() {
        Cdf::from_samples(vec![1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn out_of_range_quantile_panics() {
        Cdf::from_samples(vec![1.0]).quantile(1.5);
    }

    #[test]
    fn plot_points_span_the_range() {
        let cdf = Cdf::from_samples((0..=10).map(|i| i as f64).collect());
        let pts = cdf.plot_points(11);
        assert_eq!(pts.first().unwrap(), &(0.0, 0.0));
        assert_eq!(pts.last().unwrap(), &(10.0, 1.0));
        // Monotone in both coordinates.
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0 && w[0].1 <= w[1].1);
        }
    }

    /// The selection quantile is the sorted one to the bit — over ties,
    /// a single sample, and the quantiles whose ranks coincide (`lo ==
    /// hi`: 0, 1, the median of an odd count) or do not.
    #[test]
    fn selection_quantile_matches_the_sorted_one_bit_for_bit() {
        let mut rng = SimRng::seed_from(0x5e1ec7);
        for case in 0..400 {
            let n = match case % 4 {
                0 => 1,
                1 => 2 + rng.next_below(3) as usize,
                _ => 5 + rng.next_below(600) as usize,
            };
            // Every other case rounds to a coarse grid, so most ranks
            // sit inside a run of equal samples.
            let samples: Vec<f64> = (0..n)
                .map(|_| {
                    let v = rng.normal(20.0, 15.0).abs();
                    if case % 2 == 0 {
                        v.round()
                    } else {
                        v
                    }
                })
                .collect();
            let cdf = Cdf::from_samples(samples.clone());
            for q in [0.0, 0.5, 0.99, 1.0, rng.next_f64()] {
                let selected = quantile_of(&mut samples.clone(), q);
                assert_eq!(
                    selected.to_bits(),
                    cdf.quantile(q).to_bits(),
                    "case {case}: n {n}, q {q}: {selected} vs {}",
                    cdf.quantile(q)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn selection_from_nothing_panics() {
        quantile_of(&mut [], 0.5);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn selection_over_nan_panics() {
        quantile_of(&mut [1.0, f64::NAN], 0.5);
    }

    #[test]
    fn quantiles_are_monotone() {
        let cdf = Cdf::from_samples(vec![5.0, 1.0, 9.0, 3.0, 3.0, 8.0]);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=100 {
            let q = cdf.quantile(i as f64 / 100.0);
            assert!(q >= prev);
            prev = q;
        }
    }
}
