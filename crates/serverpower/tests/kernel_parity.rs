//! Kernel parity and the active-set premise.
//!
//! Two families of pins:
//!
//! 1. **Parity** — the scalar reference loop
//!    ([`kernel::step_batch_scalar`]) and the fixed-lane chunked kernel
//!    the fleet runs ([`kernel::step_batch_settled`]) are bit-identical
//!    to each other and to the one-element [`kernel::settle`]
//!    arithmetic, at every slice length (exercising whole chunks and
//!    scalar tails).
//!
//! 2. **The active-set premise** — a pass reported as a fixed point by
//!    [`kernel::step_batch_settled`] is the exact floating-point
//!    identity, and stays one for all future passes with unchanged
//!    inputs. This is what lets the fleet skip settled leaves without
//!    perturbing a single bit.

use dcsim::SimRng;
use serverpower::kernel;

/// Deterministic pseudo-random batch state: mixed alive/dead,
/// initialized/uninitialized, capped/uncapped servers.
#[allow(clippy::type_complexity)]
fn random_batch(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut rng = SimRng::seed_from(seed);
    let mut demand = Vec::with_capacity(n);
    let mut limit = Vec::with_capacity(n);
    let mut alive = Vec::with_capacity(n);
    let mut not_init = Vec::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        demand.push(rng.uniform(80.0, 400.0));
        limit.push(if rng.chance(0.5) {
            f64::INFINITY
        } else {
            rng.uniform(100.0, 350.0)
        });
        let a = if rng.chance(0.9) { 1.0 } else { 0.0 };
        alive.push(a);
        let ni = if rng.chance(0.2) { 1.0 } else { 0.0 };
        not_init.push(ni);
        out.push(if ni == 1.0 {
            0.0
        } else {
            rng.uniform(0.0, 400.0)
        });
    }
    (demand, limit, alive, not_init, out)
}

#[test]
fn scalar_reference_and_chunked_kernel_are_bit_identical() {
    // Lengths straddling the lane width: tails of every residue class,
    // plus empty and sub-chunk slices.
    for &n in &[0usize, 1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 160, 257] {
        for seed in 0..5u64 {
            let (demand, limit, alive, ni0, out0) = random_batch(n, 1000 + seed);
            let alpha = kernel::settle_alpha(1.0 + seed as f64, 0.6);

            let (mut ni_s, mut out_s) = (ni0.clone(), out0.clone());
            let (mut ni_c, mut out_c) = (ni0.clone(), out0.clone());
            for _ in 0..25 {
                let fs = kernel::step_batch_scalar(
                    &demand, &limit, &alive, &mut ni_s, &mut out_s, alpha,
                );
                let fc = kernel::step_batch_settled(
                    &demand, &limit, &alive, &mut ni_c, &mut out_c, alpha,
                );
                assert_eq!(fs, fc, "fixed-point verdicts diverged (n={n} seed={seed})");
                for i in 0..n {
                    assert_eq!(
                        out_s[i].to_bits(),
                        out_c[i].to_bits(),
                        "chunked out[{i}] drifted (n={n} seed={seed})"
                    );
                    assert_eq!(ni_s[i].to_bits(), ni_c[i].to_bits());
                }
            }
        }
    }
}

/// One-element reference: the documented per-index expressions of
/// `step_batch`, evaluated through [`kernel::settle`] so the batch path
/// is pinned against the same helper the scalar `Rapl::step` uses.
#[test]
fn batch_matches_one_element_settle_arithmetic() {
    let (demand, limit, alive, mut ni, mut out) = random_batch(97, 7);
    let alpha = kernel::settle_alpha(1.0, 0.6);
    let mut ni_ref = ni.clone();
    let mut out_ref = out.clone();
    for step in 0..40 {
        kernel::step_batch(&demand, &limit, &alive, &mut ni, &mut out, alpha);
        for i in 0..97 {
            let target = demand[i].min(limit[i]);
            let eff = alive[i] * (alpha + ni_ref[i] * (1.0 - alpha));
            out_ref[i] = kernel::settle(out_ref[i], target, eff);
            ni_ref[i] *= 1.0 - alive[i];
            assert_eq!(
                out[i].to_bits(),
                out_ref[i].to_bits(),
                "out[{i}] drifted from settle() reference at step {step}"
            );
            assert_eq!(
                ni[i].to_bits(),
                ni_ref[i].to_bits(),
                "not_init[{i}] drifted at step {step}"
            );
        }
    }
}

#[test]
fn turbo_batch_matches_scalar() {
    let mut rng = SimRng::seed_from(21);
    for &n in &[0usize, 1, 3, 4, 6, 9, 33] {
        let demand: Vec<f64> = (0..n).map(|_| rng.uniform(90.0, 340.0)).collect();
        let mut batched = demand.clone();
        kernel::turbo_demand_batch(&mut batched, 95.0, 1.2);
        for (i, (&d, &b)) in demand.iter().zip(&batched).enumerate() {
            assert_eq!(
                b.to_bits(),
                kernel::turbo_demand_w(d, 95.0, 1.2).to_bits(),
                "turbo element {i} drifted (n={n})"
            );
        }
    }
}

#[test]
fn lut_batch_matches_scalar() {
    let lut = serverpower::ServerGeneration::Haswell2015.power_lut();
    let mut rng = SimRng::seed_from(33);
    for &n in &[0usize, 1, 2, 5, 8, 100, 1003] {
        let mut util: Vec<f64> = (0..n).map(|_| rng.uniform(-0.1, 1.1)).collect();
        // Hit the exact-knot and clamp paths too.
        for (k, u) in util.iter_mut().enumerate().take(7) {
            *u = [0.0, 0.2, 1.0, 1.5, -0.5, 0.999, 1.0 - f64::EPSILON][k % 7];
        }
        let mut out = vec![0.0; n];
        lut.power_batch_w(&util, &mut out);
        for (i, (&u, &w)) in util.iter().zip(&out).enumerate() {
            assert_eq!(
                w.to_bits(),
                lut.power_at_w(u).to_bits(),
                "LUT element {i} drifted (n={n})"
            );
        }
    }
}

/// The premise itself: once a pass is a fixed point, every further pass
/// with unchanged inputs is the exact identity. Pure-function argument:
/// the kernel's output depends only on `(demand, limit, alive, state)`,
/// so a state the kernel maps to itself is mapped to itself forever.
/// The test drives random batches to their fixed points and verifies
/// bit-stability over many further passes.
#[test]
fn fixed_point_is_the_exact_identity_forever() {
    for seed in 0..10u64 {
        let (demand, limit, alive, mut ni, mut out) = random_batch(64, 5000 + seed);
        let alpha = kernel::settle_alpha(1.0, 0.6);
        let mut settled_at = None;
        for pass in 0..400 {
            if kernel::step_batch_settled(&demand, &limit, &alive, &mut ni, &mut out, alpha) {
                settled_at = Some(pass);
                break;
            }
        }
        let settled_at = settled_at.expect("batch must reach its fixed point");
        assert!(
            settled_at < 300,
            "fixed point took {settled_at} passes (seed {seed})"
        );
        let out_frozen = out.clone();
        let ni_frozen = ni.clone();
        for pass in 0..100 {
            let fixed =
                kernel::step_batch_settled(&demand, &limit, &alive, &mut ni, &mut out, alpha);
            assert!(fixed, "pass {pass} after the fixed point was not one");
            for i in 0..64 {
                assert_eq!(
                    out[i].to_bits(),
                    out_frozen[i].to_bits(),
                    "out[{i}] moved after the fixed point (seed {seed})"
                );
                assert_eq!(ni[i].to_bits(), ni_frozen[i].to_bits());
            }
        }
    }
}

/// `settle(out, out, alpha)` is the exact identity for every
/// representable positive finite `out` and every `alpha` in `[0, 1]`:
/// `out - out` is `+0.0`, the product with any finite `alpha` is
/// `±0.0`, and `out + ±0.0 == out` bitwise for any nonzero `out`.
/// Sampled across the whole exponent range including subnormals.
#[test]
fn settle_at_target_is_exact_identity_across_magnitudes() {
    let mut rng = SimRng::seed_from(99);
    let alphas = [0.0, 1e-300, 0.25, 0.5, kernel::settle_alpha(1.0, 0.6), 1.0];
    for exp in -300..=300 {
        let out = rng.uniform(1.0, 2.0) * 10f64.powi(exp);
        for &alpha in &alphas {
            let stepped = kernel::settle(out, out, alpha);
            assert_eq!(
                stepped.to_bits(),
                out.to_bits(),
                "settle({out:e}, {out:e}, {alpha}) moved"
            );
        }
    }
    // Subnormals and extremes.
    for out in [f64::MIN_POSITIVE / 2.0, f64::MIN_POSITIVE, f64::MAX, 5e-324] {
        for &alpha in &alphas {
            assert_eq!(kernel::settle(out, out, alpha).to_bits(), out.to_bits());
        }
    }
}

#[test]
fn dead_server_is_immediately_a_fixed_point() {
    let demand = [240.0, 310.0];
    let limit = [f64::INFINITY, 180.0];
    let alive = [0.0, 0.0];
    let mut ni = [0.0, 1.0];
    let mut out = [150.0, 0.0];
    for _ in 0..5 {
        assert!(kernel::step_batch_settled(
            &demand, &limit, &alive, &mut ni, &mut out, 0.8
        ));
    }
    assert_eq!(out, [150.0, 0.0]);
    assert_eq!(ni, [0.0, 1.0]);
}

#[test]
fn uninitialized_live_server_is_not_a_fixed_point_until_snapped() {
    let demand = [240.0];
    let limit = [f64::INFINITY];
    let alive = [1.0];
    let mut ni = [1.0];
    let mut out = [0.0];
    let alpha = kernel::settle_alpha(1.0, 0.6);
    // First pass snaps output to target and clears not_init: a change.
    assert!(!kernel::step_batch_settled(
        &demand, &limit, &alive, &mut ni, &mut out, alpha
    ));
    assert_eq!(out, [240.0]);
    assert_eq!(ni, [0.0]);
    // Now at target: the very next pass is the identity.
    assert!(kernel::step_batch_settled(
        &demand, &limit, &alive, &mut ni, &mut out, alpha
    ));
}
