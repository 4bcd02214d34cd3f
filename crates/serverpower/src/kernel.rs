//! Branchless arithmetic kernels shared by the scalar server model and
//! the fleet's batched struct-of-arrays hot path.
//!
//! There must be exactly one definition of the physics arithmetic:
//! [`crate::Rapl::step`] (one server) and `Fleet`'s batched step (flat
//! arrays over thousands of servers) both route through the functions
//! here, so the two paths are bit-identical by construction rather than
//! by testing alone.
//!
//! # Mask conventions
//!
//! The batch kernel encodes per-server booleans as `f64` masks so the
//! inner loop has no data-dependent branches and auto-vectorizes:
//!
//! - `alive`: `1.0` if the server is powered on, `0.0` if crashed. A
//!   dead server's settling state is frozen (`eff == 0`) and its drawn
//!   power is forced to zero — exactly the early-return in the scalar
//!   `Server::step`.
//! - `not_init`: `1.0` until the first live step, `0.0` afterwards.
//!   While set, the effective settle coefficient is forced to exactly
//!   `1.0`, which (with the invariant that an uninitialized output is
//!   `0.0`) reproduces the scalar first-step snap `output = target`
//!   bit-for-bit: `0.0 + (target - 0.0) * 1.0 == target`.
//! - Uncapped servers carry `limit = f64::INFINITY`, making
//!   `min(demand, limit)` a branchless no-op.

/// First-order settling coefficient for a step of `dt_secs` under time
/// constant `tau_secs`: `alpha = 1 - exp(-dt/tau)`.
#[inline]
pub fn settle_alpha(dt_secs: f64, tau_secs: f64) -> f64 {
    1.0 - (-dt_secs / tau_secs).exp()
}

/// Width of the snap band in watts: once the output is within this
/// distance of its target, the settle step lands on the target exactly
/// instead of decaying the remaining error geometrically.
///
/// 0.5 W is half the sensor firmware's 1 W reporting quantum (see
/// [`crate::PowerSensor`]) — the largest offset that can never move a
/// noiseless reading by a full step — and sits well inside the ~1%
/// gaussian read noise (~2 W at a typical 200 W draw), so the snap is
/// invisible to the control plane. But it matters computationally:
/// without it the exponential
/// tail creeps through dozens of sub-resolution (eventually ulp-sized)
/// steps before the increment underflows, keeping a leaf "unsettled"
/// (and its settle arithmetic live) for tens of ticks after the output
/// is already indistinguishable from its target. With the snap,
/// `output == target` bitwise within a few time constants, which is
/// the exact fixed point the active-set tracking keys on. The snap
/// lands *on the asymptote itself*, so trajectories differ from the
/// un-snapped model only transiently, by less than the band, during
/// the final approach.
pub const SNAP_BAND_W: f64 = 0.5;

/// One first-order settle of `output` toward `target` with coefficient
/// `alpha` (the closed-form discretization `p += (target - p) * alpha`),
/// snapping to `target` exactly once within [`SNAP_BAND_W`].
#[inline]
pub fn settle(output_w: f64, target_w: f64, alpha: f64) -> f64 {
    let delta = target_w - output_w;
    if delta.abs() <= SNAP_BAND_W {
        target_w
    } else {
        output_w + delta * alpha
    }
}

/// Demand power with the turbo premium applied to the dynamic component:
/// `idle + (base - idle) * power_factor`.
///
/// Callers must only apply this when turbo is actually enabled — the
/// `power_factor == 1.0` case is *not* an exact identity in floating
/// point, so routing non-turbo servers through it would perturb results.
#[inline]
pub fn turbo_demand_w(base_w: f64, idle_w: f64, power_factor: f64) -> f64 {
    idle_w + (base_w - idle_w) * power_factor
}

/// Fixed lane width of the vector kernels: chunks of this many `f64`
/// elements are processed per iteration (with a scalar tail), sized to
/// one AVX2 register. The arithmetic is elementwise, so the chunking is
/// purely a codegen hint — every element sees exactly the expressions
/// of the scalar kernel, and the only cross-element fold is a bitwise
/// OR of change masks, which is order-independent.
pub const LANES: usize = 4;

/// Applies the turbo premium elementwise over a demand slice:
/// `d = idle + (d - idle) * power_factor` (see [`turbo_demand_w`]),
/// in [`LANES`]-wide chunks with a scalar tail. Bit-identical to
/// calling [`turbo_demand_w`] per element.
#[inline]
pub fn turbo_demand_batch(demand_w: &mut [f64], idle_w: f64, power_factor: f64) {
    let mut chunks = demand_w.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        for d in chunk {
            *d = turbo_demand_w(*d, idle_w, power_factor);
        }
    }
    for d in chunks.into_remainder() {
        *d = turbo_demand_w(*d, idle_w, power_factor);
    }
}

/// Advances a batch of RAPL actuators by one step.
///
/// For each index `i`:
///
/// ```text
/// target = min(demand_w[i], limit_w[i])
/// eff    = alive[i] * (alpha + not_init[i] * (1 - alpha))
/// out_w[i] = if alive[i] != 0 && |target - out_w[i]| <= SNAP_BAND_W
///            { target } else { out_w[i] + (target - out_w[i]) * eff }
/// not_init[i] *= 1 - alive[i]
/// ```
///
/// Drawn power is *not* written here; it is `out_w[i] * alive[i]`, which
/// callers compute while scattering results back to id order.
///
/// # Panics
///
/// Panics if the slices disagree in length.
#[inline]
pub fn step_batch(
    demand_w: &[f64],
    limit_w: &[f64],
    alive: &[f64],
    not_init: &mut [f64],
    out_w: &mut [f64],
    alpha: f64,
) {
    step_batch_settled(demand_w, limit_w, alive, not_init, out_w, alpha);
}

/// [`step_batch`] that additionally reports whether the pass was a
/// *fixed point*: `true` iff no `out_w` or `not_init` element changed
/// its bit pattern.
///
/// A fixed-point pass is the exact floating-point identity, and because
/// the kernel is a pure function of `(demand, limit, alive, state)`,
/// repeating it with unchanged inputs is the identity *forever* — the
/// invariant the fleet's active-set tracking rests on. Detecting the
/// fixed point by bit comparison (rather than an `out == target` test)
/// also covers the rounding dead zone where `out` freezes a few ulps
/// away from `target` because the increment underflows the ulp of
/// `out`.
///
/// Runs in [`LANES`]-wide chunks with a scalar tail. Elementwise
/// arithmetic is identical to [`step_batch_scalar`] (pinned bitwise by
/// the kernel-parity tests); the per-lane change masks are OR-folded,
/// which is associative and commutative on bits, so lane order cannot
/// affect the result — the fixed-fold-order argument for cross-host
/// determinism.
pub fn step_batch_settled(
    demand_w: &[f64],
    limit_w: &[f64],
    alive: &[f64],
    not_init: &mut [f64],
    out_w: &mut [f64],
    alpha: f64,
) -> bool {
    let n = demand_w.len();
    assert_eq!(limit_w.len(), n);
    assert_eq!(alive.len(), n);
    assert_eq!(not_init.len(), n);
    assert_eq!(out_w.len(), n);
    let mut changed = [0u64; LANES];
    let whole = n - n % LANES;
    for base in (0..whole).step_by(LANES) {
        // Indexed on purpose: the `base + l` shape is what the
        // autovectorizer recognizes as a lane loop.
        #[allow(clippy::needless_range_loop)]
        for l in 0..LANES {
            let i = base + l;
            changed[l] |= step_element(
                demand_w[i],
                limit_w[i],
                alive[i],
                &mut not_init[i],
                &mut out_w[i],
                alpha,
            );
        }
    }
    for i in whole..n {
        changed[0] |= step_element(
            demand_w[i],
            limit_w[i],
            alive[i],
            &mut not_init[i],
            &mut out_w[i],
            alpha,
        );
    }
    changed.iter().fold(0, |a, &c| a | c) == 0
}

/// Scalar reference implementation of [`step_batch_settled`]: one plain
/// loop, no chunking. Not on any shipping path — it exists so the
/// parity tests can pin scalar ≡ chunked bitwise.
pub fn step_batch_scalar(
    demand_w: &[f64],
    limit_w: &[f64],
    alive: &[f64],
    not_init: &mut [f64],
    out_w: &mut [f64],
    alpha: f64,
) -> bool {
    let n = demand_w.len();
    assert_eq!(limit_w.len(), n);
    assert_eq!(alive.len(), n);
    assert_eq!(not_init.len(), n);
    assert_eq!(out_w.len(), n);
    let mut changed = 0u64;
    for i in 0..n {
        changed |= step_element(
            demand_w[i],
            limit_w[i],
            alive[i],
            &mut not_init[i],
            &mut out_w[i],
            alpha,
        );
    }
    changed == 0
}

/// [`step_batch_settled`] over *bit-packed* masks: `alive` and
/// `not_init` arrive as one bit per server (bit `i % 64` of word
/// `i / 64`, bit set ⇔ mask value `1.0`) instead of one `f64` each,
/// cutting the mask traffic of the settle stride from 16 bytes per
/// server to a quarter byte.
///
/// Bit-identity with the `f64`-mask kernel is by construction, not by
/// rounding luck: each element's mask bits are materialized to exactly
/// `0.0`/`1.0` and fed through the same `step_element` arithmetic, so
/// every intermediate is the identical `f64` expression. The `not_init`
/// write-back `ni *= 1 - alive` is computed word-wide as
/// `ni_word & !alive_word`, which is the same function on {0, 1}-valued
/// masks (the products are exact).
///
/// Tail bits of the last word (positions past `demand_w.len()`) must be
/// zero in both mask words; they are preserved as written.
///
/// Chunked like [`step_batch_settled`]: a word's 64 elements split
/// evenly into [`LANES`]-wide chunks, so only the final partial word
/// takes the scalar remainder path.
///
/// # Panics
///
/// Panics if the `f64` slices disagree in length or a mask slice has
/// fewer than `ceil(n / 64)` words.
pub fn step_batch_settled_bits(
    demand_w: &[f64],
    limit_w: &[f64],
    alive_bits: &[u64],
    not_init_bits: &mut [u64],
    out_w: &mut [f64],
    alpha: f64,
) -> bool {
    let n = demand_w.len();
    assert_eq!(limit_w.len(), n);
    assert_eq!(out_w.len(), n);
    let words = n.div_ceil(64);
    assert!(alive_bits.len() >= words);
    assert!(not_init_bits.len() >= words);
    let mut changed = [0u64; LANES];
    for w in 0..words {
        let a_word = alive_bits[w];
        let ni_word = not_init_bits[w];
        let lo = w * 64;
        let hi = (lo + 64).min(n);
        let span = hi - lo;
        let whole = span - span % LANES;
        for base in (0..whole).step_by(LANES) {
            // Indexed on purpose: the `base + l` shape is what the
            // autovectorizer recognizes as a lane loop.
            #[allow(clippy::needless_range_loop)]
            for l in 0..LANES {
                let b = base + l;
                let i = lo + b;
                let alive = ((a_word >> b) & 1) as f64;
                let mut ni = ((ni_word >> b) & 1) as f64;
                changed[l] |= step_element(
                    demand_w[i],
                    limit_w[i],
                    alive,
                    &mut ni,
                    &mut out_w[i],
                    alpha,
                );
            }
        }
        for b in whole..span {
            let i = lo + b;
            let alive = ((a_word >> b) & 1) as f64;
            let mut ni = ((ni_word >> b) & 1) as f64;
            changed[0] |= step_element(
                demand_w[i],
                limit_w[i],
                alive,
                &mut ni,
                &mut out_w[i],
                alpha,
            );
        }
        not_init_bits[w] = ni_word & !a_word;
    }
    changed.iter().fold(0, |a, &c| a | c) == 0
}

/// Scalar reference implementation of [`step_batch_settled_bits`]. Not
/// on any shipping path — it exists so the parity tests can pin
/// packed ≡ `f64`-mask and scalar ≡ chunked bitwise.
pub fn step_batch_scalar_bits(
    demand_w: &[f64],
    limit_w: &[f64],
    alive_bits: &[u64],
    not_init_bits: &mut [u64],
    out_w: &mut [f64],
    alpha: f64,
) -> bool {
    let n = demand_w.len();
    assert_eq!(limit_w.len(), n);
    assert_eq!(out_w.len(), n);
    let words = n.div_ceil(64);
    assert!(alive_bits.len() >= words);
    assert!(not_init_bits.len() >= words);
    let mut changed = 0u64;
    for w in 0..words {
        let a_word = alive_bits[w];
        let ni_word = not_init_bits[w];
        let lo = w * 64;
        let hi = (lo + 64).min(n);
        for i in lo..hi {
            let b = i - lo;
            let alive = ((a_word >> b) & 1) as f64;
            let mut ni = ((ni_word >> b) & 1) as f64;
            changed |= step_element(
                demand_w[i],
                limit_w[i],
                alive,
                &mut ni,
                &mut out_w[i],
                alpha,
            );
        }
        not_init_bits[w] = ni_word & !a_word;
    }
    changed == 0
}

/// One element of the batch step: the scalar arithmetic shared verbatim
/// by the chunked kernels and their scalar references. Returns a
/// nonzero mask iff the element's state (`out_w`, `not_init`) changed
/// bit pattern.
#[inline(always)]
fn step_element(
    demand_w: f64,
    limit_w: f64,
    alive: f64,
    not_init: &mut f64,
    out_w: &mut f64,
    alpha: f64,
) -> u64 {
    let target = demand_w.min(limit_w);
    let eff = alive * (alpha + *not_init * (1.0 - alpha));
    let old_out = *out_w;
    let delta = target - old_out;
    // Same snap band as the scalar `settle` path; gated on `alive` so a
    // dead server's frozen state never moves toward a target.
    let new_out = if alive != 0.0 && delta.abs() <= SNAP_BAND_W {
        target
    } else {
        old_out + delta * eff
    };
    let old_ni = *not_init;
    let new_ni = old_ni * (1.0 - alive);
    *out_w = new_out;
    *not_init = new_ni;
    (new_out.to_bits() ^ old_out.to_bits()) | (new_ni.to_bits() ^ old_ni.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_first_step_snaps_exactly() {
        let demand = [220.0, 95.0];
        let limit = [f64::INFINITY, 180.0];
        let alive = [1.0, 1.0];
        let mut not_init = [1.0, 1.0];
        let mut out = [0.0, 0.0];
        step_batch(&demand, &limit, &alive, &mut not_init, &mut out, 0.25);
        assert_eq!(out, [220.0, 95.0]);
        assert_eq!(not_init, [0.0, 0.0]);
    }

    #[test]
    fn batch_matches_scalar_settle_bitwise() {
        let alpha = settle_alpha(1.0, 0.6);
        let demand = [240.0];
        let limit = [180.0];
        let alive = [1.0];
        let mut not_init = [0.0];
        let mut out = [240.0];
        let mut scalar = 240.0;
        for _ in 0..20 {
            step_batch(&demand, &limit, &alive, &mut not_init, &mut out, alpha);
            scalar = settle(scalar, 180.0, alpha);
            assert_eq!(out[0].to_bits(), scalar.to_bits());
        }
    }

    #[test]
    fn dead_server_state_is_frozen() {
        let demand = [240.0];
        let limit = [f64::INFINITY];
        let alive = [0.0];
        let mut not_init = [0.0];
        let mut out = [150.0];
        step_batch(&demand, &limit, &alive, &mut not_init, &mut out, 0.8);
        assert_eq!(out, [150.0]);
        assert_eq!(not_init, [0.0]);
    }

    #[test]
    fn dead_uninitialized_server_stays_uninitialized() {
        let demand = [240.0];
        let limit = [f64::INFINITY];
        let alive = [0.0];
        let mut not_init = [1.0];
        let mut out = [0.0];
        step_batch(&demand, &limit, &alive, &mut not_init, &mut out, 0.8);
        assert_eq!(out, [0.0]);
        assert_eq!(not_init, [1.0]);
    }

    #[test]
    fn snap_band_lands_on_target_then_reports_fixed_point() {
        let alpha = settle_alpha(1.0, 5.0);
        // Scalar path: within the band, the step is `output = target`
        // exactly, and the step after that is the bitwise identity.
        let out = settle(180.0005, 180.0, alpha);
        assert_eq!(out.to_bits(), 180.0f64.to_bits());
        assert_eq!(settle(out, 180.0, alpha).to_bits(), out.to_bits());
        // Batch path agrees bitwise and flags the fixed point only on
        // the pass where nothing moved.
        let demand = [180.0];
        let limit = [f64::INFINITY];
        let alive = [1.0];
        let mut not_init = [0.0];
        let mut out_b = [180.0005];
        assert!(!step_batch_settled(
            &demand,
            &limit,
            &alive,
            &mut not_init,
            &mut out_b,
            alpha
        ));
        assert_eq!(out_b[0].to_bits(), 180.0f64.to_bits());
        assert!(step_batch_settled(
            &demand,
            &limit,
            &alive,
            &mut not_init,
            &mut out_b,
            alpha
        ));
    }

    #[test]
    fn snap_band_never_moves_a_dead_server() {
        let demand = [150.0004]; // within SNAP_BAND_W of the frozen state
        let limit = [f64::INFINITY];
        let alive = [0.0];
        let mut not_init = [0.0];
        let mut out = [150.0];
        step_batch(&demand, &limit, &alive, &mut not_init, &mut out, 0.8);
        assert_eq!(out, [150.0]);
    }

    #[test]
    fn turbo_demand_matches_direct_expression() {
        let w = turbo_demand_w(200.0, 95.0, 1.20);
        assert_eq!(w, 95.0 + (200.0 - 95.0) * 1.20);
    }

    fn pack_bits(mask: &[f64]) -> Vec<u64> {
        let mut words = vec![0u64; mask.len().div_ceil(64)];
        for (i, &m) in mask.iter().enumerate() {
            if m != 0.0 {
                words[i / 64] |= 1u64 << (i % 64);
            }
        }
        words
    }

    /// A deterministic awkward-length batch mixing dead, uninitialized,
    /// capped, in-band and far-from-target servers.
    #[allow(clippy::type_complexity)]
    fn churn_batch(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut demand = Vec::with_capacity(n);
        let mut limit = Vec::with_capacity(n);
        let mut alive = Vec::with_capacity(n);
        let mut not_init = Vec::with_capacity(n);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            demand.push(120.0 + (i % 97) as f64 * 1.375);
            limit.push(if i % 5 == 0 {
                140.0 + (i % 13) as f64
            } else {
                f64::INFINITY
            });
            let dead = i % 11 == 3;
            alive.push(if dead { 0.0 } else { 1.0 });
            let fresh = i % 17 == 8;
            not_init.push(if fresh { 1.0 } else { 0.0 });
            out.push(if fresh {
                0.0
            } else {
                90.0 + (i % 31) as f64 * 3.25
            });
        }
        (demand, limit, alive, not_init, out)
    }

    #[test]
    fn packed_mask_kernel_matches_f64_mask_kernel_bitwise() {
        let alpha = settle_alpha(1.0, 0.6);
        // 203 exercises a partial final word and a non-LANES tail.
        for n in [1, 4, 63, 64, 65, 128, 203] {
            let (demand, limit, alive, mut ni_f, mut out_f) = churn_batch(n);
            let alive_bits = pack_bits(&alive);
            let mut ni_bits = pack_bits(&ni_f);
            let mut out_b = out_f.clone();
            for _ in 0..40 {
                let fixed_f =
                    step_batch_settled(&demand, &limit, &alive, &mut ni_f, &mut out_f, alpha);
                let fixed_b = step_batch_settled_bits(
                    &demand,
                    &limit,
                    &alive_bits,
                    &mut ni_bits,
                    &mut out_b,
                    alpha,
                );
                assert_eq!(fixed_f, fixed_b);
                for i in 0..n {
                    assert_eq!(out_f[i].to_bits(), out_b[i].to_bits(), "out[{i}] n={n}");
                }
                assert_eq!(pack_bits(&ni_f), ni_bits, "not_init words n={n}");
            }
        }
    }

    #[test]
    fn packed_scalar_and_chunked_agree_bitwise() {
        let alpha = settle_alpha(1.0, 5.0);
        for n in [7, 64, 130] {
            let (demand, limit, alive, ni_f, out) = churn_batch(n);
            let alive_bits = pack_bits(&alive);
            let mut ni_s = pack_bits(&ni_f);
            let mut ni_l = ni_s.clone();
            let mut out_s = out.clone();
            let mut out_l = out;
            for _ in 0..25 {
                let fs = step_batch_scalar_bits(
                    &demand,
                    &limit,
                    &alive_bits,
                    &mut ni_s,
                    &mut out_s,
                    alpha,
                );
                let fl = step_batch_settled_bits(
                    &demand,
                    &limit,
                    &alive_bits,
                    &mut ni_l,
                    &mut out_l,
                    alpha,
                );
                assert_eq!(fs, fl);
                assert_eq!(ni_s, ni_l);
                for i in 0..n {
                    assert_eq!(out_s[i].to_bits(), out_l[i].to_bits());
                }
            }
        }
    }

    #[test]
    fn packed_kernel_preserves_tail_bits_and_reports_fixed_point() {
        let alpha = settle_alpha(1.0, 5.0);
        let demand = [180.0; 3];
        let limit = [f64::INFINITY; 3];
        let alive_bits = [0b111u64];
        let mut ni_bits = [0b000u64];
        let mut out = [180.0, 180.0, 180.0];
        assert!(step_batch_settled_bits(
            &demand,
            &limit,
            &alive_bits,
            &mut ni_bits,
            &mut out,
            alpha
        ));
        assert_eq!(ni_bits, [0]);
        assert_eq!(out, [180.0; 3]);
    }
}
