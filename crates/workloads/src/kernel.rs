//! The utilization step as scalar arithmetic, and as a column kernel
//! over many processes of one service.
//!
//! There is exactly one definition of the Ornstein-Uhlenbeck + burst
//! update: [`step_element`]. [`crate::ServiceWorkload::utilization_with`]
//! (one process, its state in a struct) and [`draw_batch`] (the fleet's
//! position-ordered columns) both call it, so the two are bit-identical
//! by construction — the `serverpower::kernel::step_element` pattern.
//! Everything that depends only on the service, the traffic level and
//! the step length is computed once, in [`DrawStep::new`], and every
//! process consumes its own RNG stream in the same order either way:
//! one normal, one uniform when no burst is in flight, and an
//! exponential plus a uniform when one starts.
//!
//! # Burst encoding
//!
//! A process's burst is two scalars: when it expires and how much
//! utilization it adds. "No burst" is expiry [`SimTime::ZERO`] with an
//! add of `0.0`, which makes "expired or none" the single comparison
//! `now >= until`. A started burst always expires at least a second
//! after it starts, so a live expiry is never zero;
//! [`burst_to_columns`] / [`burst_from_columns`] convert to and from the
//! `Option<(SimTime, f64)>` a snapshot stores ([`crate::put_process`]).

use dcsim::{SimDuration, SimRng, SimTime};

use crate::service::{OuCoeffs, ServiceParams};

/// Everything one utilization step needs that is the same for every
/// process of a service stepped at `now` over `dt` under one traffic
/// multiplier — hoisted out of the element loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrawStep {
    /// The instant bursts are started and expired against.
    pub now: SimTime,
    /// Mean utilization at this traffic level:
    /// `base_util * (1 + traffic_sensitivity * (traffic_mult - 1))`.
    pub target: f64,
    /// OU decay and innovation for `dt`.
    pub ou: OuCoeffs,
    /// Probability that a burst starts this step: `burst_rate * dt`.
    pub burst_prob: f64,
    /// Exponential rate of the burst duration: `1 / burst_dur_secs`.
    pub burst_dur_rate: f64,
    /// Range of the additive utilization of a burst.
    pub burst_min: f64,
    /// Upper end of that range.
    pub burst_max: f64,
}

impl DrawStep {
    /// Hoists the per-step constants. `ou` must equal
    /// [`OuCoeffs::for_params`] of `params` and `dt`.
    ///
    /// # Panics
    ///
    /// Panics if `traffic_mult` is negative or not finite, or `dt` is
    /// zero.
    pub fn new(
        params: &ServiceParams,
        now: SimTime,
        traffic_mult: f64,
        dt: SimDuration,
        ou: OuCoeffs,
    ) -> DrawStep {
        assert!(
            traffic_mult.is_finite() && traffic_mult >= 0.0,
            "invalid traffic multiplier {traffic_mult}"
        );
        assert!(!dt.is_zero(), "dt must be positive");
        DrawStep {
            now,
            target: params.base_util * (1.0 + params.traffic_sensitivity * (traffic_mult - 1.0)),
            ou,
            burst_prob: params.burst_rate * dt.as_secs_f64(),
            burst_dur_rate: 1.0 / params.burst_dur_secs,
            burst_min: params.burst_min,
            burst_max: params.burst_max,
        }
    }
}

/// Advances one process by `step` and returns its demanded utilization
/// in `[0.02, 1.0]`. `noise` is the mean-reverting state, `burst_until`
/// / `burst_add` the burst in flight (see the module docs for the
/// encoding), `rng` the process's private stream.
///
/// `inline(always)`: with two callers the optimizer otherwise keeps
/// this out of line, and the column loop pays a call and a reload of
/// every hoisted constant per element.
#[inline(always)]
pub fn step_element(
    step: &DrawStep,
    rng: &mut SimRng,
    noise: &mut f64,
    burst_until: &mut SimTime,
    burst_add: &mut f64,
) -> f64 {
    // Discretized OU step; sigma is the *stationary* std-dev, so the
    // per-step innovation is sigma * sqrt(1 - exp(-2 theta dt)).
    *noise = *noise * step.ou.decay + rng.normal(0.0, step.ou.innovation);

    // Burst lifecycle: nothing in flight (never started, or expired by
    // `now`) means one arrival draw.
    if step.now >= *burst_until {
        if rng.chance(step.burst_prob) {
            let dur = rng.exponential(step.burst_dur_rate);
            *burst_add = rng.uniform(step.burst_min, step.burst_max);
            *burst_until = step.now + SimDuration::from_secs_f64(dur.max(1.0));
        } else if *burst_until != SimTime::ZERO {
            *burst_until = SimTime::ZERO;
            *burst_add = 0.0;
        }
    }

    (step.target + *noise + *burst_add).clamp(0.02, 1.0)
}

/// Advances a run of processes that share `step` — one service, one
/// traffic level, one step length — writing each one's utilization to
/// `util`. Bit-identical to calling [`step_element`] (and so
/// [`crate::ServiceWorkload::utilization_with`]) per process: every
/// process draws from its own stream, in the scalar order.
///
/// # Panics
///
/// Panics if the slices disagree in length.
pub fn draw_batch(
    step: &DrawStep,
    rng: &mut [SimRng],
    noise: &mut [f64],
    burst_until: &mut [SimTime],
    burst_add: &mut [f64],
    util: &mut [f64],
) {
    let n = util.len();
    assert!(
        rng.len() == n && noise.len() == n && burst_until.len() == n && burst_add.len() == n,
        "workload columns disagree in length"
    );
    let state = rng.iter_mut().zip(noise).zip(burst_until).zip(burst_add);
    for (u, (((rng, noise), until), add)) in util.iter_mut().zip(state) {
        *u = step_element(step, rng, noise, until, add);
    }
}

/// The column form of an optional burst: `(expiry, add)`, with
/// `(SimTime::ZERO, 0.0)` for none — and for a burst that expires at
/// time zero, which no step could tell from none (it is over by any
/// `now`) and no process ever produces.
pub fn burst_to_columns(burst: Option<(SimTime, f64)>) -> (SimTime, f64) {
    match burst {
        Some((until, add)) if until != SimTime::ZERO => (until, add),
        _ => (SimTime::ZERO, 0.0),
    }
}

/// The optional burst a column pair encodes (inverse of
/// [`burst_to_columns`]).
pub fn burst_from_columns(burst_until: SimTime, burst_add: f64) -> Option<(SimTime, f64)> {
    (burst_until != SimTime::ZERO).then_some((burst_until, burst_add))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{put_process, ServiceKind, ServiceWorkload};
    use dcsim::snap::SnapWriter;

    /// The column kernel against the scalar process, bit for bit: every
    /// service, single-tick and 30-tick held steps, long enough that
    /// bursts start, run and expire in both.
    #[test]
    fn column_draw_matches_the_scalar_process_bit_for_bit() {
        const N: usize = 8;
        const STEPS: u64 = 6_000;
        for kind in ServiceKind::all() {
            for elapsed in [1u64, 30] {
                let dt = SimDuration::from_secs(1) * elapsed;
                let params = kind.params();
                let ou = OuCoeffs::for_params(&params, dt);
                let mut root = SimRng::seed_from(77 + kind.index() as u64);
                let mut scalar: Vec<ServiceWorkload> = Vec::new();
                let mut rng: Vec<SimRng> = Vec::new();
                for i in 0..N {
                    let stream = root.split_index(i as u64);
                    rng.push(stream.clone());
                    scalar.push(ServiceWorkload::new(kind, stream));
                }
                let mut noise = vec![0.0; N];
                let mut until = vec![SimTime::ZERO; N];
                let mut add = vec![0.0; N];
                let mut util = vec![0.0; N];
                let (mut started, mut running, mut expired) = (0u32, 0u32, 0u32);
                let mut now = SimTime::ZERO;
                for s in 0..STEPS {
                    // Traffic moves, so the hoisted target does too.
                    let mult = 0.6 + 0.1 * (s % 9) as f64;
                    let was: Vec<bool> = until.iter().map(|&u| u != SimTime::ZERO).collect();
                    let step = DrawStep::new(&params, now, mult, dt, ou);
                    draw_batch(&step, &mut rng, &mut noise, &mut until, &mut add, &mut util);
                    for i in 0..N {
                        let u = scalar[i].utilization_with(now, mult, dt, ou);
                        assert_eq!(u.to_bits(), util[i].to_bits(), "{kind} x{elapsed} step {s}");
                        let is = until[i] != SimTime::ZERO;
                        assert_eq!(is, scalar[i].in_burst());
                        started += (!was[i] && is) as u32;
                        running += (was[i] && is) as u32;
                        expired += (was[i] && !is) as u32;
                    }
                    now += dt;
                }
                assert!(
                    started > 0 && running > 0 && expired > 0,
                    "{kind} x{elapsed}: vacuous burst coverage {started}/{running}/{expired}"
                );
                for i in 0..N {
                    // Noise, burst and the full stream state (cached
                    // spare normal included), as a snapshot writes them.
                    let mut column = SnapWriter::new();
                    put_process(&mut column, noise[i], (until[i], add[i]), &rng[i]);
                    let mut process = SnapWriter::new();
                    scalar[i].put(&mut process);
                    assert_eq!(column.into_bytes(), process.into_bytes());
                }
            }
        }
    }

    #[test]
    fn burst_encoding_round_trips() {
        let some = Some((SimTime::from_millis(4_200), 0.25));
        for burst in [None, some] {
            let (until, add) = burst_to_columns(burst);
            assert_eq!(burst_from_columns(until, add), burst);
        }
        // Only a hostile snapshot holds a burst expiring at time zero;
        // it must not leave its add behind in a "no burst" process.
        let stale = burst_to_columns(Some((SimTime::ZERO, 0.3)));
        assert_eq!(stale, burst_to_columns(None));
    }

    #[test]
    #[should_panic(expected = "workload columns disagree")]
    fn ragged_columns_panic() {
        let params = ServiceKind::Web.params();
        let dt = SimDuration::from_secs(1);
        let step = DrawStep::new(
            &params,
            SimTime::ZERO,
            1.0,
            dt,
            OuCoeffs::for_params(&params, dt),
        );
        draw_batch(
            &step,
            &mut [SimRng::seed_from(1)],
            &mut [0.0, 0.0],
            &mut [SimTime::ZERO],
            &mut [0.0],
            &mut [0.0],
        );
    }
}
