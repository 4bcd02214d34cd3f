//! Randomized tests for the analysis substrate, driven by the
//! deterministic [`SimRng`] stream.

use dcsim::{SimDuration, SimRng};
use powerstats::{sliding_variation, Cdf, PackedTrace, Trace};

const CASES: usize = 100;

fn brute_force_variation(values: &[f64], w: usize) -> Vec<f64> {
    if values.len() < w {
        return Vec::new();
    }
    values
        .windows(w)
        .map(|win| {
            let mx = win.iter().cloned().fold(f64::MIN, f64::max);
            let mn = win.iter().cloned().fold(f64::MAX, f64::min);
            mx - mn
        })
        .collect()
}

fn random_values(rng: &mut SimRng, min_len: usize, max_len: usize, lo: f64, hi: f64) -> Vec<f64> {
    let n = min_len + rng.next_below((max_len - min_len) as u64) as usize;
    (0..n).map(|_| rng.uniform(lo, hi)).collect()
}

/// The monotonic-deque sliding variation matches the O(n·w) brute
/// force on arbitrary traces and window sizes.
#[test]
fn sliding_variation_matches_brute_force() {
    let mut rng = SimRng::seed_from(0x57A7).split("variation");
    for _ in 0..CASES {
        let values = random_values(&mut rng, 2, 300, 0.0, 1e5);
        let window_secs = 3 + rng.next_below(97);
        let trace = Trace::new(SimDuration::from_secs(3), values.clone());
        let fast = sliding_variation(&trace, SimDuration::from_secs(window_secs));
        let w = (window_secs.div_ceil(3) + 1).max(2) as usize;
        let slow = brute_force_variation(&values, w);
        assert_eq!(fast.len(), slow.len());
        for (f, s) in fast.iter().zip(&slow) {
            assert!((f - s).abs() < 1e-9);
        }
    }
}

/// Window monotonicity: a longer window never sees smaller maximum
/// variation over the same trace.
#[test]
fn longer_windows_dominate() {
    let mut rng = SimRng::seed_from(0x57A7).split("windows");
    for _ in 0..CASES {
        let values = random_values(&mut rng, 50, 300, 0.0, 1e5);
        let trace = Trace::new(SimDuration::from_secs(3), values);
        let mut prev_max = 0.0f64;
        for w in [6u64, 30, 60, 120] {
            let vars = sliding_variation(&trace, SimDuration::from_secs(w));
            if vars.is_empty() {
                break;
            }
            let mx = vars.iter().cloned().fold(0.0, f64::max);
            assert!(mx >= prev_max - 1e-9);
            prev_max = mx;
        }
    }
}

/// CDF quantiles are monotone in q and bounded by the smallest and
/// largest sample.
#[test]
fn cdf_quantiles_monotone_and_bounded() {
    let mut rng = SimRng::seed_from(0x57A7).split("quantiles");
    for _ in 0..CASES {
        let samples = random_values(&mut rng, 1, 200, -1e6, 1e6);
        let cdf = Cdf::from_samples(samples);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=50 {
            let q = cdf.quantile(i as f64 / 50.0);
            assert!(q >= prev);
            assert!(q >= cdf.quantile(0.0) - 1e-9 && q <= cdf.quantile(1.0) + 1e-9);
            prev = q;
        }
    }
}

/// Downsampling preserves the overall mean (up to the dropped tail).
#[test]
fn downsample_preserves_mean() {
    let mut rng = SimRng::seed_from(0x57A7).split("downsample");
    for _ in 0..CASES {
        let values = random_values(&mut rng, 8, 200, 0.0, 1e4);
        let factor = 1 + rng.next_below(7) as usize;
        let trace = Trace::new(SimDuration::from_secs(3), values.clone());
        let down = trace.downsample(factor);
        if !down.is_empty() {
            let kept = factor * down.len();
            let mean_kept = values[..kept].iter().sum::<f64>() / kept as f64;
            assert!((down.mean() - mean_kept).abs() < 1e-9 * (1.0 + mean_kept));
        }
    }
}

/// Packs `values` and reads them back: every bit of every sample, read
/// before and after a last push.
fn assert_round_trips(values: &[f64]) {
    let mut packed = PackedTrace::empty(SimDuration::from_secs(3));
    for &v in values {
        packed.push(v);
    }
    let bits = |vs: &[f64]| vs.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    let decoded = packed.decode();
    assert_eq!(bits(decoded.values()), bits(values));
    assert_eq!(decoded.values().len(), packed.len());
    // A push after a read extends the series as if no read happened.
    let tail = f64::from_bits(0x7ff8_dead_beef_0001);
    packed.push(tail);
    let mut extended = values.to_vec();
    extended.push(tail);
    assert_eq!(bits(packed.decode().values()), bits(&extended));
    assert_eq!(packed.values().count(), extended.len());
}

/// The packed series gives back every value it took bit for bit: NaN
/// payloads, signed zeros, infinities, subnormals, long repeat runs,
/// alternating values and random walks, at 0, 1 and many samples.
#[test]
fn packed_traces_round_trip_every_bit() {
    let specials = [
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::from_bits(0xfff4_0000_0000_0000),
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE / 4.0,
        -f64::from_bits(1),
        f64::from_bits(1),
        f64::MAX,
        f64::MIN,
        1.0,
    ];
    assert_round_trips(&[]);
    for &v in &specials {
        assert_round_trips(&[v]);
        assert_round_trips(&[v; 3000]);
    }
    let mut rng = SimRng::seed_from(0x57A7).split("packed");
    for _ in 0..CASES {
        let n = rng.next_below(2000) as usize;
        let mut v = rng.uniform(0.0, 1e5);
        let values: Vec<f64> = (0..n)
            .map(|i| {
                match rng.next_below(6) {
                    // Held: the last value again.
                    0 | 1 => {}
                    2 => v = rng.uniform(0.0, 1e5),
                    3 => v += rng.normal(0.0, 10.0),
                    4 => v = specials[rng.next_below(specials.len() as u64) as usize],
                    _ => v = if i % 2 == 0 { 1.0 } else { -2.5e-300 },
                }
                v
            })
            .collect();
        assert_round_trips(&values);
        let alternating: Vec<f64> = (0..n).map(|i| specials[i % 2 + 4]).collect();
        assert_round_trips(&alternating);
    }
}
