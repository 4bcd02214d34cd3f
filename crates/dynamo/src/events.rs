//! Control-plane event types and the per-controller cycle schedules.
//!
//! Deployed Dynamo has no global tick: every leaf controller runs its
//! own 3 s pulling cycle and every upper controller a slower multiple of
//! it (§III-C, §IV), with nothing forcing the ~100 instances of a
//! datacenter to fire at the same instant. The control plane models
//! exactly that: one [`CycleSchedule`] per controller instance, a tier
//! of them per controller level, and [`collect_due`] — a scan of a tier
//! in index order — to find the controllers due at a tick. A zero phase
//! spread puts every schedule of a tier on the same grid (lockstep).

use std::sync::Arc;

use dcsim::snap::{SnapError, SnapReader, SnapWriter};
use dcsim::{CycleSchedule, SimDuration, SimTime};
use powerinfra::{DeviceId, Power};

/// A notable controller action, for telemetry and assertions.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerEvent {
    /// When it happened.
    pub at: SimTime,
    /// The protected device.
    pub device: DeviceId,
    /// The controller's name (interned — cloning events is cheap).
    pub controller: Arc<str>,
    /// What happened.
    pub kind: ControllerEventKind,
}

/// The kinds of controller events.
#[derive(Debug, Clone, PartialEq)]
pub enum ControllerEventKind {
    /// A leaf controller issued caps.
    LeafCapped {
        /// Aggregate power removed.
        total_cut: Power,
        /// Servers that received caps.
        servers: usize,
    },
    /// A leaf controller released its caps.
    LeafUncapped,
    /// A leaf controller declared its aggregation invalid.
    LeafInvalid {
        /// Pull failures that triggered it.
        failures: usize,
    },
    /// An upper controller pushed contractual limits.
    UpperCapped {
        /// Children that received contracts this cycle.
        contracts: usize,
    },
    /// An upper controller cleared its contracts.
    UpperUncapped,
    /// The backup controller took over after a primary failure (§III-E).
    Failover,
}

/// The schedules of an `n`-instance tier cycling every `period`,
/// staggered evenly over `spread`: controller `i` first fires at
/// `spread · i / n`. A zero spread is lockstep — every controller of the
/// tier on the grid `0, period, 2·period, …`.
pub(crate) fn tier_schedules(
    period: SimDuration,
    spread: SimDuration,
    n: usize,
) -> Vec<CycleSchedule> {
    (0..n)
        // Widened: a saturated spread times an index leaves `u64`.
        .map(|i| spread.as_millis() as u128 * i as u128 / n as u128)
        .map(|ms| CycleSchedule::with_phase(period, SimDuration::from_millis(ms as u64)))
        .collect()
}

/// Fires every schedule of `tier` due at `now`, in index order, and
/// leaves the indices of those that fired in `due` — ascending, so a
/// same-instant batch runs in build order (SBs before MSBs in the upper
/// tier). Boundaries a coarse tick skipped coalesce: a controller fires
/// at most once per call.
pub(crate) fn collect_due(tier: &mut [CycleSchedule], now: SimTime, due: &mut Vec<usize>) {
    due.clear();
    for (i, schedule) in tier.iter_mut().enumerate() {
        if schedule.fire(now) {
            due.push(i);
        }
    }
}

/// Saves a tier's schedules: a count, then each one's body.
pub(crate) fn save_tier(tier: &[CycleSchedule], w: &mut SnapWriter) {
    w.put_u64(tier.len() as u64);
    for s in tier {
        s.save(w);
    }
}

/// Loads a tier saved by [`save_tier`]: each schedule takes its saved
/// position if that is one of the configured schedule's
/// ([`CycleSchedule::load`]); a mismatch is noted naming the
/// controller.
pub(crate) fn load_tier(
    tier: &mut [CycleSchedule],
    r: &mut SnapReader<'_>,
    level: &str,
) -> Result<(), SnapError> {
    r.get_len(tier.len(), "schedules")
        .map_err(|e| e.within(format_args!("{level} tier")))?;
    for (i, s) in tier.iter_mut().enumerate() {
        r.within(format_args!("{level} controller {i}"), |r| s.load(r))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcsim::SimRng;

    fn due_at(tier: &mut [CycleSchedule], ms: u64) -> Vec<usize> {
        let mut due = Vec::new();
        collect_due(tier, SimTime::from_millis(ms), &mut due);
        due
    }

    #[test]
    fn lockstep_fires_every_tier_on_its_grid() {
        let mut leaves = tier_schedules(SimDuration::from_secs(3), SimDuration::ZERO, 3);
        let mut uppers = tier_schedules(SimDuration::from_secs(9), SimDuration::ZERO, 1);
        assert_eq!(due_at(&mut leaves, 0), [0, 1, 2]);
        assert_eq!(due_at(&mut uppers, 0), [0]);
        assert!(due_at(&mut leaves, 1_000).is_empty());
        assert_eq!(due_at(&mut leaves, 3_000), [0, 1, 2]);
        assert!(due_at(&mut uppers, 3_000).is_empty());
        assert_eq!(due_at(&mut uppers, 9_000), [0]);
    }

    #[test]
    fn spread_phases_fire_at_distinct_instants() {
        let mut leaves = tier_schedules(SimDuration::from_secs(3), SimDuration::from_secs(3), 3);
        let mut fired_at: Vec<Vec<u64>> = vec![Vec::new(); 3];
        for t in 0..12 {
            for i in due_at(&mut leaves, t * 1_000) {
                fired_at[i].push(t);
            }
        }
        assert_eq!(fired_at[0], vec![0, 3, 6, 9]);
        assert_eq!(fired_at[1], vec![1, 4, 7, 10]);
        assert_eq!(fired_at[2], vec![2, 5, 8, 11]);
    }

    #[test]
    fn coarse_ticks_coalesce_to_one_firing_per_controller() {
        let mut leaves = tier_schedules(
            SimDuration::from_secs(3),
            SimDuration::from_millis(1_500),
            2,
        );
        assert_eq!(due_at(&mut leaves, 0), [0]);
        // Jump 10 s: each leaf missed multiple boundaries, runs once.
        assert_eq!(due_at(&mut leaves, 10_000), [0, 1]);
        // Grids recovered: 12 s for leaf 0, 12.75 s for leaf 1.
        assert_eq!(leaves[0].next_at(), SimTime::from_secs(12));
        assert_eq!(leaves[1].next_at(), SimTime::from_millis(12_750));
    }

    #[test]
    fn even_spread_offsets_partition_the_window() {
        let phases = |spread: SimDuration| -> Vec<u64> {
            let tier = tier_schedules(SimDuration::from_secs(3), spread, 4);
            tier.iter().map(|s| s.phase().as_millis()).collect()
        };
        assert_eq!(phases(SimDuration::ZERO), [0; 4]);
        assert_eq!(phases(SimDuration::from_secs(3)), [0, 750, 1500, 2250]);
        // `--phase-spread 1e19` saturates the spread; the offsets still
        // partition it.
        let saturated = phases(SimDuration::from_secs_f64(1e19));
        assert_eq!(saturated[3], (u64::MAX as u128 * 3 / 4) as u64);
    }

    /// Whether the grid `phase + k·period` has a point in `(prev, now]`
    /// (`[0, now]` at the first tick): what firing at `now` means.
    fn grid_point_in(schedule: &CycleSchedule, prev: Option<u64>, now: u64) -> bool {
        let (period, phase) = (schedule.period().as_millis(), schedule.phase().as_millis());
        let Some(since) = now.checked_sub(phase) else {
            return false;
        };
        let last = u128::from(phase) + u128::from(since / period * period);
        prev.is_none_or(|prev| last > u128::from(prev))
    }

    /// A tier through the snapshot codec and into a freshly built twin.
    fn snapshot_restore(
        tier: &[CycleSchedule],
        mut twin: Vec<CycleSchedule>,
    ) -> Vec<CycleSchedule> {
        let mut w = SnapWriter::new();
        save_tier(tier, &mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        load_tier(&mut twin, &mut r, "leaf").unwrap();
        r.finish("tier").unwrap();
        twin
    }

    /// The scan against a brute-force reference, over random periods,
    /// spreads (lockstep and a saturated `--phase-spread 1e19` among
    /// them) and tick sizes from 1 ms to 10 s: each tier's due list is
    /// exactly the controllers with a grid point since the previous
    /// tick, ascending and without repeats, and a tier snapshotted and
    /// restored into a fresh build mid-run goes on with the same lists.
    #[test]
    fn due_lists_are_the_grid_points_each_tick_reaches() {
        let mut rng = SimRng::seed_from(0xD_29).split("tier-scan");
        for case in 0..400 {
            let leaf_period = SimDuration::from_millis(1 + rng.next_below(20_000));
            let spread = match rng.next_below(4) {
                0 => SimDuration::ZERO,
                1 => SimDuration::from_secs_f64(1e19),
                _ => SimDuration::from_millis(rng.next_below(60_000)),
            };
            let n = 1 + rng.next_below(48) as usize;
            let tick = 10f64.powf(rng.uniform(0.0, 4.0)).round() as u64;
            let ticks = 1 + rng.next_below(300);
            let restore_at = rng.next_below(ticks);
            let build = || {
                let upper_period = leaf_period * 3;
                [
                    tier_schedules(leaf_period, spread, n),
                    tier_schedules(upper_period, spread, n.div_ceil(4)),
                ]
            };
            let mut tiers = build();
            let mut twins: Option<[Vec<CycleSchedule>; 2]> = None;
            let mut prev = None;
            for k in 0..ticks {
                let now = k * tick;
                if k == restore_at {
                    let [leaf, upper] = build();
                    twins = Some([
                        snapshot_restore(&tiers[0], leaf),
                        snapshot_restore(&tiers[1], upper),
                    ]);
                }
                for (level, tier) in tiers.iter_mut().enumerate() {
                    let expected: Vec<usize> = (0..tier.len())
                        .filter(|&i| grid_point_in(&tier[i], prev, now))
                        .collect();
                    let due = due_at(tier, now);
                    assert_eq!(due, expected, "case {case}, tier {level}, t={now} ms");
                    assert!(due.windows(2).all(|w| w[0] < w[1]), "case {case}: {due:?}");
                    if let Some(twins) = &mut twins {
                        assert_eq!(due_at(&mut twins[level], now), due, "case {case}, restored");
                    }
                }
                prev = Some(now);
            }
        }
    }
}
