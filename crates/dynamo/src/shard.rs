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
/// — so none for no work.
fn width(pool: Option<&WorkerPool>, units: usize) -> usize {
    pool.map_or(1, WorkerPool::workers).min(units)
}

/// Even contiguous chunking of `units` units over the pool: the units
/// per shard, so that `chunks(per)` yields at most as many shards as
/// the pool is wide. The last shard may be short, and rounding the
/// chunk size up can leave fewer shards than workers. Never zero, so
/// no units is no chunk.
pub(crate) fn chunk_len(pool: Option<&WorkerPool>, units: usize) -> usize {
    units.div_ceil(width(pool, units).max(1)).max(1)
}

/// Splits the first `n` elements off `*rest`: the step a shard builder
/// repeats to cut disjoint `&mut` sub-slices in order.
pub(crate) fn front_mut<'a, T>(rest: &mut &'a mut [T], n: usize) -> &'a mut [T] {
    rest.split_off_mut(..n)
        .expect("carve past the end of the array")
}

/// Runs `run` on each of `jobs`, one shard each, and returns once all
/// have finished. The jobs are drawn in shard order, so building them
/// can split `&mut` state progressively.
///
/// No jobs is a no-op. One job, or any number without a pool, runs
/// inline on the caller, in order: no slot array, no wake-up. More are
/// moved into stack slots (a warm dispatch allocates nothing) and run
/// by the pool — the first on the caller, the rest one per pool
/// thread; which thread runs which shard is fixed by index, so callers
/// that merge shard outputs in shard order get results independent of
/// scheduling.
///
/// # Panics
///
/// Panics if there are more jobs than the pool is wide.
pub(crate) fn run_sharded<T, F>(
    pool: Option<&WorkerPool>,
    mut jobs: impl ExactSizeIterator<Item = T>,
    run: F,
) where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let n = jobs.len();
    match pool {
        Some(pool) if n > 1 => {
            let mut slots: [Option<T>; MAX_WORKERS] = std::array::from_fn(|_| jobs.next());
            pool.run_on(&mut slots[..n], |_w, slot| {
                // Every slot below `n` holds a job: the iterator has `n`.
                if let Some(job) = slot {
                    run(job);
                }
            });
        }
        _ => jobs.for_each(|mut job| run(&mut job)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Doubles every element of `data` in `shards` contiguous chunks.
    fn double_in_shards(pool: Option<&WorkerPool>, data: &mut [u32]) {
        let per = chunk_len(pool, data.len());
        run_sharded(pool, data.chunks_mut(per), |chunk| {
            chunk.iter_mut().for_each(|x| *x *= 2)
        });
    }

    #[test]
    fn one_shard_runs_inline_without_a_pool() {
        let caller = std::thread::current().id();
        let mut data = [1u32, 2, 3];
        let mut rest = &mut data[..];
        run_sharded(None, std::iter::once(front_mut(&mut rest, 3)), |chunk| {
            assert_eq!(std::thread::current().id(), caller);
            chunk[0] = 9;
        });
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
        let shards = |pool, units: usize| {
            let per = chunk_len(pool, units);
            (per, units.div_ceil(per))
        };
        assert_eq!(shards(None, 7), (7, 1));
        assert_eq!(shards(Some(&pool), 7), (2, 4));
        assert_eq!(shards(Some(&pool), 5), (2, 3));
        assert_eq!(shards(Some(&pool), 2), (1, 2));
    }

    /// Without a pool every job runs on the caller, in order.
    #[test]
    fn many_jobs_without_a_pool_run_inline_in_order() {
        let caller = std::thread::current().id();
        let mut order = Vec::new();
        let order = std::sync::Mutex::new(&mut order);
        run_sharded(None, 0..5, |&mut i| {
            assert_eq!(std::thread::current().id(), caller);
            order.lock().unwrap().push(i);
        });
        assert_eq!(**order.lock().unwrap(), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn no_units_is_no_shards_and_no_work() {
        let pool = WorkerPool::new(4);
        for pool in [None, Some(&pool)] {
            assert_eq!(width(pool, 0), 0);
            assert_eq!(chunk_len(pool, 0), 1);
            double_in_shards(pool, &mut []);
            run_sharded(pool, std::iter::empty(), |(): &mut ()| {
                unreachable!("no job to run")
            });
        }
    }
}
