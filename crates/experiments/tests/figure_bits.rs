//! The raw statistics of Figures 5 and 6, pinned to the bit. `repro`
//! prints one decimal, so its stdout cannot see a last-bit change in a
//! p99; these goldens hash every `f64` the two figures compute.

use experiments::{fig5, fig6, Scale};

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over the bits of Figure 5's table (level-major) and of every
/// Figure 6 row's `(p50, p99)`, in row order.
fn figure_bits(scale: Scale) -> (u64, u64) {
    let mut fig5_hash = 0xcbf2_9ce4_8422_2325;
    for v in fig5::run(scale).table().iter().flatten() {
        fnv1a(&mut fig5_hash, &v.to_bits().to_le_bytes());
    }
    let mut fig6_hash = 0xcbf2_9ce4_8422_2325;
    for row in fig6::run(scale).rows {
        for v in [row.p50, row.p99] {
            fnv1a(&mut fig6_hash, &v.to_bits().to_le_bytes());
        }
    }
    (fig5_hash, fig6_hash)
}

/// `(fig5, fig6)` hashes at [`Scale::Quick`], recorded when both
/// figures still pooled every variation and sorted Figure 6's pools.
const QUICK_GOLDEN: (u64, u64) = (0x6f24_3e6d_fa79_ba30, 0x330f_4450_b565_3e07);

/// The same at [`Scale::Full`].
const FULL_GOLDEN: (u64, u64) = (0xf497_12f9_d8b7_815b, 0x7692_ad0d_a65e_e0ae);

#[test]
fn quick_figure_statistics_are_pinned() {
    let bits = figure_bits(Scale::Quick);
    assert_eq!(bits, QUICK_GOLDEN, "{:#018x?}", bits);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a full Figure 5 run: run with --release")]
fn full_figure_statistics_are_pinned() {
    let bits = figure_bits(Scale::Full);
    assert_eq!(bits, FULL_GOLDEN, "{:#018x?}", bits);
}
