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

/// One upper-tail quantile of a pool streamed past once, whose size is
/// known before the pass: what [`quantile_of`] returns on the whole
/// pool, to the bit, holding only its top `k` values.
///
/// The type-7 `q`-quantile of `n` values reads the order statistics at
/// ranks ⌊q(n−1)⌋ and ⌈q(n−1)⌉, so only the `k = n − ⌊q(n−1)⌋` largest
/// values can matter — for p99, the top ~1%. The selector buffers
/// values until it holds `2k`, then keeps the top `k` by selection and
/// from then on drops anything below the smallest of them. It never
/// holds more than `2k` values (or `n`, if that is fewer).
///
/// The same signed-zero caveat as [`quantile_of`]: zeros of both signs
/// compare equal, so a quantile that lands on such a tie may differ in
/// the sign of its zero.
///
/// # Example
///
/// ```
/// use powerstats::{quantile_of, TailQuantile};
///
/// let pool: Vec<f64> = (0..1000).map(|i| ((i * 7919) % 1000) as f64).collect();
/// let mut tail = TailQuantile::new(pool.len(), 0.99);
/// for &v in &pool {
///     tail.push(v);
/// }
/// assert_eq!(tail.finish(), quantile_of(&mut pool.clone(), 0.99));
/// ```
#[derive(Debug, Clone)]
pub struct TailQuantile {
    n: usize,
    q: f64,
    /// How many of the largest values are kept after a compaction.
    k: usize,
    seen: usize,
    /// The top `k` of what was seen, plus what arrived since the last
    /// compaction that was not below `floor`.
    held: Vec<f64>,
    /// The smallest of the top `k` at the last compaction: a value
    /// below it is not among the top `k` of the pool.
    floor: f64,
}

impl TailQuantile {
    /// A selector for the `q`-quantile of a pool of exactly `n` values.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `q` is outside `[0, 1]`.
    pub fn new(n: usize, q: f64) -> Self {
        assert!(n > 0, "cannot build a CDF from zero samples");
        let (lo, _, _) = type7_position(n, q);
        let k = n - lo;
        TailQuantile {
            n,
            q,
            k,
            seen: 0,
            held: Vec::with_capacity((2 * k).min(n)),
            floor: f64::NEG_INFINITY,
        }
    }

    /// Feeds the next value of the pool.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN or the pool already had its `n` values.
    #[inline]
    pub fn push(&mut self, value: f64) {
        assert!(!value.is_nan(), "NaN sample in CDF input");
        assert!(
            self.seen < self.n,
            "more than the {} samples announced",
            self.n
        );
        self.seen += 1;
        if value < self.floor {
            return;
        }
        self.held.push(value);
        if self.held.len() == 2 * self.k {
            self.keep_top_k();
        }
    }

    /// Selects the top `k` into `held[..k]`, the smallest of them at
    /// `k − 1`.
    fn select_top_k(&mut self) {
        let descending = |a: &f64, b: &f64| b.partial_cmp(a).expect("NaN refused by push");
        self.held.select_nth_unstable_by(self.k - 1, descending);
    }

    fn keep_top_k(&mut self) {
        self.select_top_k();
        self.held.truncate(self.k);
        self.floor = self.held[self.k - 1];
    }

    /// The `q`-quantile of the pool.
    ///
    /// # Panics
    ///
    /// Panics unless exactly the announced `n` values were pushed.
    pub fn finish(mut self) -> f64 {
        assert_eq!(self.seen, self.n, "pool announced {} samples", self.n);
        if self.n == 1 {
            return self.held[0];
        }
        let (lo, hi, frac) = type7_position(self.n, self.q);
        // Rank `lo` is the k-th largest; rank `hi`, when it is another
        // rank, the (k−1)-th: the smallest of the values above it.
        self.select_top_k();
        let lower = self.held[self.k - 1];
        let upper = if lo == hi {
            lower
        } else {
            self.held[..self.k - 1]
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min)
        };
        type7_between(lower, upper, frac)
    }
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
/// assert_eq!(cdf.quantile(0.25), 2.0);
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
        assert_eq!(cdf.quantile(0.5), 7.0);
        assert_eq!(cdf.quantile(0.99), 7.0);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let cdf = Cdf::from_samples(vec![3.0, 1.0, 2.0]);
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(1.0), 3.0);
        assert_eq!(cdf.quantile(0.5), 2.0);
    }

    #[test]
    fn p99_close_to_max_for_large_uniform() {
        let samples: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let cdf = Cdf::from_samples(samples);
        let p99 = cdf.quantile(0.99);
        assert!((p99 - 989.01).abs() < 0.1, "p99={p99}");
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

    /// Streams `pool` through a [`TailQuantile`] in the given order,
    /// checking after every value that it never held more than `2k` of
    /// them (nor more than the pool) — its buffer, allocated at that
    /// bound, has not grown — and returns its answer.
    fn stream(pool: &[f64], q: f64) -> f64 {
        let mut tail = TailQuantile::new(pool.len(), q);
        let bound = (2 * tail.k).min(pool.len());
        for &v in pool {
            tail.push(v);
            assert!(
                tail.held.capacity() <= bound,
                "n {}, q {q}: grew to hold {} > {bound}",
                pool.len(),
                tail.held.capacity()
            );
        }
        tail.finish()
    }

    /// The pool in the orders that stress the selector: as drawn,
    /// ascending (every value clears the floor, so it compacts every `k`
    /// values), descending (the first compaction sets the floor at the
    /// answer's rank and nothing later is held) and a sawtooth of
    /// ascending runs (the floor falls behind at every tooth).
    fn feed_orders(pool: &[f64]) -> [Vec<f64>; 4] {
        let ascending = Cdf::from_samples(pool.to_vec()).sorted;
        let descending = ascending.iter().rev().copied().collect();
        let teeth = 1 + pool.len() / 7;
        let sawtooth = (0..teeth)
            .flat_map(|t| ascending.iter().skip(t).step_by(teeth).copied())
            .collect();
        [pool.to_vec(), ascending, descending, sawtooth]
    }

    /// The streamed tail quantile is the selected and the sorted one to
    /// the bit — over continuous pools, heavy ties, all-equal pools,
    /// pools of one and two, every feed order, and quantiles whose ranks
    /// coincide (0, 1, and `q(n − 1)` integral) or do not.
    #[test]
    fn tail_quantile_matches_selection_and_sort_bit_for_bit() {
        let mut rng = SimRng::seed_from(0x7a11);
        for case in 0..600 {
            let n = match case % 5 {
                0 => 1,
                1 => 2,
                2 => 3 + rng.next_below(20) as usize,
                _ => 20 + rng.next_below(3000) as usize,
            };
            let pool: Vec<f64> = (0..n)
                .map(|_| {
                    let v = rng.normal(20.0, 15.0).abs();
                    match case % 3 {
                        0 => v,
                        1 => v.round().min(30.0),
                        _ => 7.0,
                    }
                })
                .collect();
            let cdf = Cdf::from_samples(pool.clone());
            // A q with `q(n − 1)` integral: the two ranks coincide.
            let exact = (rng.next_below(n as u64) as f64) / (n - 1).max(1) as f64;
            for q in [0.0, 0.5, 0.99, 1.0, exact, rng.next_f64()] {
                let reference = cdf.quantile(q);
                assert_eq!(
                    quantile_of(&mut pool.clone(), q).to_bits(),
                    reference.to_bits()
                );
                for (order, fed) in feed_orders(&pool).iter().enumerate() {
                    let streamed = stream(fed, q);
                    assert_eq!(
                        streamed.to_bits(),
                        reference.to_bits(),
                        "case {case}: n {n}, q {q}, order {order}: {streamed} vs {reference}"
                    );
                }
            }
        }
    }

    /// At p99 of 10,001 values the ranks coincide (9,900 exactly) and
    /// the selector keeps 101, in either feed order; pools of one and
    /// two, and q = 1, read their ranks directly.
    #[test]
    fn tail_quantile_at_an_exact_rank_keeps_the_top_k() {
        let pool: Vec<f64> = (0..10_001).rev().map(f64::from).collect();
        let tail = TailQuantile::new(pool.len(), 0.99);
        assert_eq!(tail.k, 101);
        assert_eq!(stream(&pool, 0.99), 9_900.0);
        let ascending: Vec<f64> = pool.iter().rev().copied().collect();
        assert_eq!(stream(&ascending, 0.99), 9_900.0);
        assert_eq!(stream(&[3.0], 0.99), 3.0);
        assert_eq!(stream(&[3.0, 5.0], 0.99), 3.0 * 0.01 + 5.0 * 0.99);
        assert_eq!(stream(&[5.0, 3.0], 1.0), 5.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn tail_quantile_over_nan_panics() {
        stream(&[1.0, f64::NAN, 2.0], 0.99);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn tail_quantile_of_nothing_panics() {
        TailQuantile::new(0, 0.99);
    }

    #[test]
    #[should_panic(expected = "announced")]
    fn tail_quantile_refuses_a_short_pool() {
        let mut tail = TailQuantile::new(3, 0.99);
        tail.push(1.0);
        tail.finish();
    }

    #[test]
    #[should_panic(expected = "announced")]
    fn tail_quantile_refuses_a_long_pool() {
        let mut tail = TailQuantile::new(1, 0.99);
        tail.push(1.0);
        tail.push(2.0);
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
