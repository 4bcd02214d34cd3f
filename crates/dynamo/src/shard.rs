//! The one dispatch primitive behind every fan-out of the tick.
//!
//! Fleet physics and the leaf control dispatch both cut their leaves
//! into contiguous shards — sub-slices of the `Vec`s that own the
//! leaves' state — and run them through [`run_sharded`]. Width 1 is not
//! a separate code path: it is the same cut producing one shard, and
//! the first shard of any cut runs inline on the caller.

use dynpool::{WorkerPool, MAX_WORKERS};

/// How many shards a fan-out over `units` units of work gets: the
/// pool's width (one without a pool), never more than the units
/// — so none for no work, which [`run_sharded`] treats as a no-op.
fn width(pool: Option<&WorkerPool>, units: usize) -> usize {
    pool.map_or(1, WorkerPool::workers).min(units)
}

/// Even contiguous chunking of `units` units over the pool: `(units
/// per shard, shard count)`, `(0, 0)` for no units. The last shard may
/// be short, and rounding the chunk size up can leave fewer shards than
/// workers.
pub(crate) fn chunking(pool: Option<&WorkerPool>, units: usize) -> (usize, usize) {
    if units == 0 {
        return (0, 0);
    }
    let per = units.div_ceil(width(pool, units));
    (per, units.div_ceil(per))
}

/// Splits the first `n` elements off `*rest`: the step a shard builder
/// repeats to cut disjoint `&mut` sub-slices in order.
pub(crate) fn front_mut<'a, T>(rest: &mut &'a mut [T], n: usize) -> &'a mut [T] {
    rest.split_off_mut(..n)
        .expect("carve past the end of the array")
}

/// Carves `shards` jobs with `carve` — called once per shard, in shard
/// order, so it can split `&mut` state progressively — runs `run` on
/// each, and returns once all have finished.
///
/// No shards is a no-op (`carve` is never called). A single shard is
/// carved and run inline on the caller: no slot array, no wake-up. More
/// are carved into stack slots (a warm dispatch allocates nothing) and
/// run by the pool — the first on the caller, the rest one per pool
/// thread; which thread runs which shard is fixed by index, so callers
/// that merge shard outputs in shard order get results independent of
/// scheduling.
///
/// # Panics
///
/// Panics if more than one shard is requested without a pool, or more
/// shards than the pool is wide.
pub(crate) fn run_sharded<T, C, F>(pool: Option<&WorkerPool>, shards: usize, mut carve: C, run: F)
where
    T: Send,
    C: FnMut() -> T,
    F: Fn(&mut T) + Sync,
{
    match shards {
        0 => {}
        1 => run(&mut carve()),
        n => {
            let pool = pool.expect("more than one shard needs a worker pool");
            let mut jobs: [Option<T>; MAX_WORKERS] =
                std::array::from_fn(|w| (w < n).then(&mut carve));
            pool.run_on(&mut jobs[..n], |_w, slot| {
                run(slot.as_mut().expect("slot carved above"))
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Doubles every element of `data` in `shards` contiguous chunks.
    fn double_in_shards(pool: Option<&WorkerPool>, data: &mut [u32]) {
        let (per, shards) = chunking(pool, data.len());
        let mut rest = &mut data[..];
        run_sharded(
            pool,
            shards,
            || {
                let take = per.min(rest.len());
                front_mut(&mut rest, take)
            },
            |chunk| chunk.iter_mut().for_each(|x| *x *= 2),
        );
    }

    #[test]
    fn one_shard_runs_inline_without_a_pool() {
        let caller = std::thread::current().id();
        let mut data = [1u32, 2, 3];
        let mut rest = &mut data[..];
        run_sharded(
            None,
            1,
            || front_mut(&mut rest, 3),
            |chunk| {
                assert_eq!(std::thread::current().id(), caller);
                chunk[0] = 9;
            },
        );
        assert_eq!(data, [9, 2, 3]);
    }

    #[test]
    fn every_width_covers_every_unit_exactly_once() {
        let expect: Vec<u32> = (0..11).map(|x| x * 2).collect();
        for workers in [1usize, 2, 4, 16] {
            let pool = WorkerPool::new(workers);
            let mut data: Vec<u32> = (0..11).collect();
            double_in_shards(Some(&pool), &mut data);
            assert_eq!(data, expect, "{workers} workers");
        }
        let mut data: Vec<u32> = (0..11).collect();
        double_in_shards(None, &mut data);
        assert_eq!(data, expect);
    }

    #[test]
    fn chunking_never_exceeds_the_pool_or_the_units() {
        let pool = WorkerPool::new(4);
        assert_eq!(chunking(None, 7), (7, 1));
        assert_eq!(chunking(Some(&pool), 7), (2, 4));
        assert_eq!(chunking(Some(&pool), 5), (2, 3));
        assert_eq!(chunking(Some(&pool), 2), (1, 2));
    }

    #[test]
    fn no_units_is_no_shards_and_no_work() {
        let pool = WorkerPool::new(4);
        for pool in [None, Some(&pool)] {
            assert_eq!(width(pool, 0), 0);
            assert_eq!(chunking(pool, 0), (0, 0));
            double_in_shards(pool, &mut []);
            run_sharded(
                pool,
                0,
                || unreachable!("nothing to carve"),
                |(): &mut ()| {},
            );
        }
    }
}
