//! Order statistics and the digest the benchmark reports.

/// Median of `samples` (mean of the two middle values for an even
/// count). `0.0` for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `pct`-th percentile (nearest rank) of `samples`.
///
/// # Panics
///
/// Panics if `samples` is empty or `pct` is outside `(0, 100]`.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(pct > 0.0 && pct <= 100.0, "percentile {pct} out of range");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (pct / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of p99 / p95 / p90 / p75 that still has at least ten
/// samples beyond it, so the tail figure is never one outlier: p99
/// needs 1,000 samples, p95 200, p90 100, p75 40. Below that only the
/// median is reported.
pub fn tail_percentile(samples: usize) -> f64 {
    [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| samples as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .unwrap_or(50.0)
}

/// FNV-1a, 64 bit, over a sequence of byte strings.
pub fn fnv1a64<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
    }

    #[test]
    fn fnv_matches_the_published_vectors() {
        assert_eq!(fnv1a64([&b""[..]]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64([&b"a"[..]]), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64([&b"foobar"[..]]), 0x8594_4171_f739_67e8);
        // Parts concatenate.
        assert_eq!(fnv1a64([&b"foo"[..], &b"bar"[..]]), 0x8594_4171_f739_67e8);
    }
}
