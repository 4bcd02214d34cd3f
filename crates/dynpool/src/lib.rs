//! A persistent, deterministic worker pool for lockstep fan-out.
//!
//! The simulation's hot fan-outs — fleet physics and same-instant leaf
//! control cycles — dispatch twice per three-second tick, and a tick of
//! a small fleet is tens of microseconds: spawning threads per dispatch
//! (~tens of microseconds per thread) or sleeping between dispatches (a
//! futex wake is ~20 µs before the sleeper runs again) would cost more
//! than the work. A [`WorkerPool`] of width N is the calling thread
//! plus N−1 threads spawned once; a warm dispatch is a handful of
//! atomic transitions, stays in user space while dispatches follow each
//! other closely, and touches the heap not at all.
//!
//! # Dispatch model
//!
//! [`WorkerPool::run_on`] takes a slice of work items and a shared
//! closure and returns only after `f(w, &mut items[w])` has run for
//! every `w`. **Item 0 runs on the calling thread**; item `w ≥ 1` runs
//! on the pool's `w`-th spawned thread. The caller arms those threads
//! first, so its own share of the work overlaps their wake-up. The
//! item→thread mapping is by index and therefore deterministic: results
//! cannot depend on scheduling, core count, or how wide the pool is
//! beyond the item count. Callers that need deterministic *output*
//! merge their items in index order after the call, exactly as the
//! simulation's control plane merges leaf results in ascending leaf
//! index.
//!
//! # Waiting: spin one wake's worth, then park
//!
//! Both kinds of waiter — a spawned thread waiting for its next job,
//! the caller waiting for the armed threads to finish — first spin on
//! the atomic they wait for, for a bounded time (`SPIN`, about one
//! futex wake), and only then [`park`](std::thread::park). The first
//! eighth of that time is a pure [`spin_loop`](std::hint::spin_loop),
//! which is where a hand-off between two running threads lands, so
//! back-to-back dispatches never enter the kernel; the rest spins
//! through [`yield_now`](std::thread::yield_now), which costs a running
//! pair nothing measurable and hands the core to whoever the waiter is
//! waiting for when the pool's threads outnumber the cores they get.
//! An idle pool sleeps.
//!
//! # Safety
//!
//! This crate contains the workspace's only `unsafe` code (the `dynamo`
//! crate itself is `#![forbid(unsafe_code)]`): handing a borrowed
//! `&mut T` to a persistent thread requires erasing its lifetime, the
//! same trick scoped-thread implementations use. Soundness rests on two
//! structural guarantees, both enforced by `run_on` itself:
//!
//! * **No escape:** `run_on` does not leave its frame — by returning or
//!   by unwinding — until every armed thread has signalled completion,
//!   so the erased borrows never outlive the frame that owns them. That
//!   covers three cases: every shard returns; a spawned thread's shard
//!   panics (caught on that thread, flagged, re-raised by the caller
//!   after the wait); and the *caller's own* inline shard panics
//!   (caught in place, every armed thread still awaited, then
//!   re-raised). An armed thread touches nothing of the caller's frame
//!   after its completion signal — it clones the caller's [`Thread`]
//!   handle before signalling so it can unpark it afterwards.
//! * **No aliasing:** the caller keeps `&mut items[0]`; the `w`-th
//!   spawned thread receives `&mut items[w]` only, and distinct indices
//!   are disjoint; the shared closure is accessed by `&F` with
//!   `F: Sync`. Dispatches on one pool are serialized by an atomic
//!   flag, so the job slot has one writer.

#![warn(missing_docs)]

use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Hard cap on pool width (the caller included). Dispatch scratch at
/// the call sites lives on the stack as fixed-size arrays of this
/// length, so the cap keeps those arrays small; no realistic host or
/// test needs a wider pool.
pub const MAX_WORKERS: usize = 64;

/// How long a waiter spins before it parks: of the order of what
/// parking would cost it. Waking a parked thread is a futex round trip
/// — a `FUTEX_WAKE` syscall on one side, a trip through the scheduler
/// before the sleeper runs again on the other — and measured ~20 µs a
/// wake on the reference host (the park-only protocol this replaced
/// read 40 µs for a dispatch of two wakes). Spinning for about as long
/// as blocking would cost is the classic rule for a wait of unknown
/// length: it never costs more than twice the better choice, so this is
/// a property of the platform's wake, not a setting. Miri interprets
/// every iteration, so there the budget is zero and every wait parks at
/// once.
const SPIN: Duration = if cfg!(miri) {
    Duration::ZERO
} else {
    Duration::from_micros(50)
};

/// Mailbox states of a spawned thread.
const IDLE: u32 = 0;
const ARMED: u32 = 1;
const SHUTDOWN: u32 = 2;

/// One dispatch's type-erased job description, shared by every armed
/// thread.
///
/// `rest` points at `items[1]` of the caller's `&mut [T]` (item 0 never
/// leaves the caller), `func` at the caller's shared closure, `owner`
/// at the caller's thread handle — all three in the `run_on` frame —
/// and `call` is the monomorphized trampoline that casts the first two
/// back.
#[derive(Clone, Copy)]
struct Job {
    rest: *mut (),
    func: *const (),
    owner: *const Thread,
    call: unsafe fn(*const (), *mut (), usize),
}

impl Job {
    const fn none() -> Self {
        unsafe fn never(_: *const (), _: *mut (), _: usize) {
            unreachable!("dispatched without a published job")
        }
        Job {
            rest: std::ptr::null_mut(),
            func: std::ptr::null(),
            owner: std::ptr::null(),
            call: never,
        }
    }
}

/// State shared between the dispatching thread and the spawned ones.
struct Shared {
    /// The current dispatch's job. Written by the caller strictly while
    /// every spawned thread is `IDLE`; read by a spawned thread strictly
    /// between the caller's `ARMED` store (Release) and its own
    /// completion signal.
    job: UnsafeCell<Job>,
    /// One mailbox per spawned thread: `mailboxes[w - 1]` arms the
    /// thread that runs item `w`.
    mailboxes: Vec<AtomicU32>,
    /// Armed threads that have not finished the current dispatch. Each
    /// one's decrement is its completion signal (Release); the caller
    /// waits for zero (Acquire).
    pending: AtomicUsize,
    /// A spawned thread's shard panicked in the current dispatch.
    panicked: AtomicBool,
    /// A dispatch is in flight. `run_on` takes `&self` so the pool can
    /// be shared behind an `Arc`, but the job slot has room for one.
    dispatching: AtomicBool,
    /// Threads currently inside `park`, so a test can see an idle pool
    /// sleep instead of timing it.
    #[cfg(test)]
    parked: AtomicUsize,
}

// SAFETY: `Shared` is accessed under the protocol documented on `job`:
// the caller publishes the job before any Release store of `ARMED`, and
// a spawned thread Acquire-loads the flag before reading it, so the
// `UnsafeCell` is never accessed concurrently with a write; `run_on`
// holds `dispatching` while it writes. The raw pointers inside `Job`
// are only dereferenced before the dereferencing thread's completion
// signal, while the originating `run_on` frame is alive. Every other
// field is an atomic.
unsafe impl Send for Shared {}
unsafe impl Sync for Shared {}

impl Shared {
    /// Blocks until `ready` holds: spins for at most `SPIN`, then
    /// parks until whoever makes it hold unparks this thread. `ready`
    /// must Acquire-load what it tests; the other side must change it
    /// *before* its `unpark`, so the park token closes the window
    /// between the last failed test and the `park`.
    fn wait_until(&self, ready: impl Fn() -> bool) {
        if ready() {
            return;
        }
        let started = Instant::now();
        while !ready() {
            let waited = started.elapsed();
            if waited >= SPIN {
                break;
            }
            // A few microseconds cover a hand-off between two running
            // threads. Past that the other side is either still at
            // work, and a yield nobody takes costs a sub-microsecond
            // syscall, or not running at all, and then it needs this
            // core more than the spin does: spinning on through it made
            // two-wide pools on two busy cores (libtest running two
            // `experiments` tests) 2.5x slower than no pool.
            if waited < SPIN / 8 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        while !ready() {
            #[cfg(test)]
            self.parked.fetch_add(1, Ordering::SeqCst);
            // The one `park` of the crate. A stale token (an `unpark`
            // that found this thread still spinning) returns at once;
            // the loop tests again.
            std::thread::park();
            #[cfg(test)]
            self.parked.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// A fixed-width pool: the thread that dispatches plus `width − 1`
/// dedicated threads, spawned once and asleep while the pool is idle.
///
/// Dropping the pool shuts the spawned threads down and joins them; no
/// thread outlives the pool.
///
/// # Example
///
/// ```
/// use dynpool::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let mut squares = [0u64, 1, 2, 3];
/// pool.run_on(&mut squares, |w, item| {
///     assert_eq!(*item, w as u64);
///     *item *= *item;
/// });
/// assert_eq!(squares, [0, 1, 4, 9]);
/// ```
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// `handles[w - 1]` runs item `w`.
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Builds a pool that runs up to `workers` items at once: the
    /// caller of each dispatch plus `workers − 1` threads spawned here
    /// (none for a pool of one). Widths above [`MAX_WORKERS`] are
    /// clamped.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or a thread cannot be spawned.
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "worker pool needs at least one worker");
        let spawned = workers.min(MAX_WORKERS) - 1;
        let shared = Arc::new(Shared {
            job: UnsafeCell::new(Job::none()),
            mailboxes: (0..spawned).map(|_| AtomicU32::new(IDLE)).collect(),
            pending: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            dispatching: AtomicBool::new(false),
            #[cfg(test)]
            parked: AtomicUsize::new(0),
        });
        let handles = (0..spawned)
            .map(|slot| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dynpool-{}", slot + 1))
                    .spawn(move || worker_loop(&shared, slot))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// The pool's width: how many items one dispatch can run, counting
    /// the one the caller runs itself. One more than the threads the
    /// pool spawned.
    pub fn workers(&self) -> usize {
        self.handles.len() + 1
    }

    /// Runs `f(w, &mut items[w])` for every item — item 0 on the
    /// calling thread, item `w ≥ 1` on the pool's `w`-th spawned thread
    /// — and returns once all of them have finished. With the pool warm
    /// this dispatch performs no heap allocation.
    ///
    /// The item→thread mapping is by index, so the work assignment —
    /// and therefore any result the caller assembles by item index — is
    /// deterministic regardless of scheduling. Dispatches from several
    /// threads on one pool run one after another; one made from inside
    /// `f` on the same pool would wait for itself forever.
    ///
    /// # Panics
    ///
    /// Panics if `items` outnumber [`WorkerPool::workers`], or — after
    /// every shard has finished — if any of them panicked: the caller's
    /// own shard's panic is re-raised as it was, a spawned thread's as
    /// "a pool worker thread panicked".
    pub fn run_on<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let n = items.len();
        assert!(
            n <= self.workers(),
            "{n} work items for {} workers",
            self.workers()
        );
        let Some((first, rest)) = items.split_first_mut() else {
            return;
        };
        let shared = &*self.shared;
        // Never contended inside one datacenter, whose two fan-outs
        // alternate on one thread.
        while shared
            .dispatching
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::thread::yield_now();
        }
        let owner = std::thread::current();
        // Read before `rest` is lent out below; not touched again until
        // every armed thread has finished.
        let armed = rest.len();
        shared.pending.store(armed, Ordering::Relaxed);
        shared.panicked.store(false, Ordering::Relaxed);
        // SAFETY: every mailbox is IDLE here — the previous dispatch
        // waited for all completions and `dispatching` admits one
        // dispatch at a time — so no thread reads `job` while we write
        // it; the Release stores below publish it.
        unsafe {
            *shared.job.get() = Job {
                rest: rest.as_mut_ptr() as *mut (),
                func: &f as *const F as *const (),
                owner: &owner,
                call: trampoline::<T, F>,
            };
        }
        for (mailbox, handle) in shared.mailboxes.iter().zip(&self.handles).take(armed) {
            mailbox.store(ARMED, Ordering::Release);
            // No syscall unless the thread has parked.
            handle.thread().unpark();
        }
        // The caller's own shard, overlapping the wake-ups. Its panic
        // must not unwind past the wait below: armed threads still hold
        // borrows of `rest`, `f` and `owner`.
        let inline = panic::catch_unwind(AssertUnwindSafe(|| f(0, first)));
        shared.wait_until(|| shared.pending.load(Ordering::Acquire) == 0);
        let worker_panicked = shared.panicked.load(Ordering::Relaxed);
        shared.dispatching.store(false, Ordering::Release);
        if let Err(payload) = inline {
            panic::resume_unwind(payload);
        }
        if worker_panicked {
            panic!("a pool worker thread panicked");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for mailbox in &self.shared.mailboxes {
            mailbox.store(SHUTDOWN, Ordering::Release);
        }
        for handle in &self.handles {
            handle.thread().unpark();
        }
        for handle in self.handles.drain(..) {
            // A thread whose shard panicked already flagged the
            // dispatch that observed it; the shutdown join itself must
            // not panic.
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .finish()
    }
}

/// Casts the erased job back to its concrete types and runs the item in
/// `slot` of `rest`, which is item `slot + 1` of the dispatch.
///
/// # Safety
///
/// `func` must point at a live `F` and `rest` at a live `[T]` with more
/// than `slot` elements; distinct `slot` values alias distinct
/// elements. `run_on` guarantees both by construction.
unsafe fn trampoline<T, F: Fn(usize, &mut T)>(func: *const (), rest: *mut (), slot: usize) {
    let f = unsafe { &*(func as *const F) };
    let item = unsafe { &mut *(rest as *mut T).add(slot) };
    f(slot + 1, item);
}

/// The body of the spawned thread behind `mailboxes[slot]`: wait for
/// `ARMED`, run, signal, wait again.
fn worker_loop(shared: &Shared, slot: usize) {
    let mailbox = &shared.mailboxes[slot];
    loop {
        shared.wait_until(|| mailbox.load(Ordering::Acquire) != IDLE);
        if mailbox.load(Ordering::Acquire) == SHUTDOWN {
            return;
        }
        // SAFETY: the Acquire load of ARMED synchronizes with the
        // caller's Release store, which happens after the job was
        // published; the caller does not rewrite it until this thread
        // signals completion below.
        let job = unsafe { *shared.job.get() };
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: see `trampoline`; the owning `run_on` frame does
            // not end until we signal completion.
            unsafe { (job.call)(job.func, job.rest, slot) }
        }));
        if result.is_err() {
            shared.panicked.store(true, Ordering::Relaxed);
        }
        // SAFETY: as above — the frame holding `owner` is still alive.
        // Cloned (a reference-count increment, no allocation) because
        // the unpark below comes after the signal that lets it end.
        let owner = unsafe { (*job.owner).clone() };
        // IDLE before the signal, so the next dispatch's ARMED store
        // cannot be overwritten by it.
        mailbox.store(IDLE, Ordering::Release);
        if shared.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            owner.unpark();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn runs_every_item_on_its_own_index() {
        let pool = WorkerPool::new(8);
        let mut items: Vec<usize> = vec![usize::MAX; 8];
        pool.run_on(&mut items, |w, item| *item = w * 10);
        assert_eq!(items, [0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn item_zero_runs_on_the_caller_and_the_rest_on_named_threads() {
        let pool = WorkerPool::new(3);
        let mut names = [const { String::new() }; 3];
        pool.run_on(&mut names, |_, name| {
            *name = std::thread::current().name().unwrap_or("").to_string();
        });
        let caller = std::thread::current().name().unwrap_or("").to_string();
        assert_eq!(names, [caller.as_str(), "dynpool-1", "dynpool-2"]);
    }

    #[test]
    fn a_pool_of_one_spawns_nothing_and_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 1);
        assert!(pool.handles.is_empty());
        let caller = std::thread::current().id();
        let mut items = [0u8];
        pool.run_on(&mut items, |w, item| {
            assert_eq!(std::thread::current().id(), caller);
            *item = w as u8 + 5;
        });
        assert_eq!(items, [5]);
    }

    #[test]
    fn fewer_items_than_workers_is_fine() {
        let pool = WorkerPool::new(6);
        let mut items = [0u32; 3];
        pool.run_on(&mut items, |w, item| *item = w as u32 + 1);
        assert_eq!(items, [1, 2, 3]);
        let mut empty: [u32; 0] = [];
        pool.run_on(&mut empty, |_, _| unreachable!());
    }

    #[test]
    fn back_to_back_dispatches_of_every_item_count() {
        // Miri executes every synchronization step interpreted; 200
        // rounds exercise the same arm / finish / re-arm transitions in
        // a fraction of the time.
        let rounds: u64 = if cfg!(miri) { 200 } else { 100_000 };
        const N: usize = 4;
        let pool = WorkerPool::new(N);
        let total = AtomicU64::new(0);
        let mut expected = 0;
        for round in 0..rounds {
            let n = round as usize % N + 1;
            let mut items = [round; N];
            pool.run_on(&mut items[..n], |w, item| {
                *item += 1;
                total.fetch_add(*item + w as u64, Ordering::Relaxed);
            });
            for (w, item) in items.iter().enumerate() {
                assert_eq!(*item, round + u64::from(w < n), "round {round} item {w}");
            }
            expected += (0..n as u64).map(|w| round + 1 + w).sum::<u64>();
        }
        assert_eq!(total.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn mutable_borrows_of_caller_state_work() {
        let pool = WorkerPool::new(3);
        let mut data = vec![1.0f64; 300];
        {
            let mut chunks: Vec<&mut [f64]> = data.chunks_mut(100).collect();
            pool.run_on(&mut chunks, |w, chunk| {
                for x in chunk.iter_mut() {
                    *x += w as f64;
                }
            });
        }
        assert_eq!(data[0], 1.0);
        assert_eq!(data[150], 2.0);
        assert_eq!(data[299], 3.0);
    }

    #[test]
    fn worker_panic_propagates_after_all_workers_finish() {
        let pool = WorkerPool::new(4);
        let mut items = [0u8; 4];
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_on(&mut items, |w, _| {
                if w == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "worker panic should propagate");
        // The pool survives a panicked dispatch.
        pool.run_on(&mut items, |w, item| *item = w as u8);
        assert_eq!(items, [0, 1, 2, 3]);
    }

    /// The third case of *no escape*: the caller's own shard panics
    /// while the armed threads still hold borrows of the frame. They
    /// cannot start before the caller's shard is about to panic (the
    /// gate) and are slow after it, so an unwind that did not wait
    /// would find their items unwritten.
    #[test]
    fn inline_panic_is_reraised_only_after_every_worker_finished() {
        let pool = WorkerPool::new(4);
        let mut items = [0u8; 4];
        let gate = AtomicBool::new(false);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_on(&mut items, |w, item| {
                if w == 0 {
                    gate.store(true, Ordering::Release);
                    panic!("inline boom");
                }
                while !gate.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                std::thread::sleep(Duration::from_millis(5));
                *item = 7;
            });
        }));
        let payload = result.expect_err("the inline panic should propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"inline boom"));
        assert_eq!(items, [0, 7, 7, 7], "unwound before a worker finished");
        // The pool survives it.
        pool.run_on(&mut items, |w, item| *item = w as u8);
        assert_eq!(items, [0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "work items for")]
    fn more_items_than_workers_panics() {
        let pool = WorkerPool::new(2);
        let mut items = [0u8; 3];
        pool.run_on(&mut items, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = WorkerPool::new(0);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spawns MAX_WORKERS - 1 real threads; too heavy interpreted"
    )]
    fn oversized_pool_clamps_to_max_workers() {
        let pool = WorkerPool::new(MAX_WORKERS + 40);
        assert_eq!(pool.workers(), MAX_WORKERS);
    }

    /// An idle pool costs no CPU: once the spin budget has run out
    /// every spawned thread is inside `park`. Counted, not timed — the
    /// deadline only turns a thread that never parks into a failure.
    #[test]
    fn an_idle_pool_parks_every_spawned_thread() {
        let pool = WorkerPool::new(4);
        let mut items = [0u64; 4];
        for _ in 0..10 {
            pool.run_on(&mut items, |w, item| *item += w as u64);
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while pool.shared.parked.load(Ordering::SeqCst) < 3 {
            assert!(Instant::now() < deadline, "a pool thread never parked");
            std::thread::yield_now();
        }
        // Parked threads still wake for the next dispatch.
        pool.run_on(&mut items, |w, item| *item += w as u64);
        assert_eq!(items, [0, 11, 22, 33]);
    }

    #[test]
    fn drop_joins_all_workers_promptly() {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let pool = WorkerPool::new(8);
            let mut items = [0u64; 8];
            for _ in 0..10 {
                pool.run_on(&mut items, |w, item| *item += w as u64);
            }
            drop(pool); // blocks until every worker thread is joined
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(30))
            .expect("WorkerPool::drop hung instead of joining its workers");
    }

    #[test]
    fn dispatch_from_a_different_thread_than_the_builder() {
        let pool = Arc::new(WorkerPool::new(4));
        let remote = Arc::clone(&pool);
        let handle = std::thread::spawn(move || {
            let mut items = [0usize; 4];
            remote.run_on(&mut items, |w, item| *item = w + 7);
            items
        });
        assert_eq!(handle.join().unwrap(), [7, 8, 9, 10]);
        // And from the builder's afterwards: the caller is whoever
        // dispatches, not whoever built the pool.
        let mut items = [0usize; 4];
        pool.run_on(&mut items, |w, item| *item = w + 1);
        assert_eq!(items, [1, 2, 3, 4]);
    }

    #[test]
    fn dispatches_from_several_threads_run_one_after_another() {
        let rounds = if cfg!(miri) { 20 } else { 2_000 };
        let pool = WorkerPool::new(3);
        let in_flight = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for round in 0..rounds {
                        let mut items = [round; 3];
                        pool.run_on(&mut items, |w, item| {
                            if w == 0 {
                                assert_eq!(in_flight.fetch_add(1, Ordering::SeqCst), 0);
                            }
                            *item += w;
                            if w == 0 {
                                in_flight.fetch_sub(1, Ordering::SeqCst);
                            }
                        });
                        assert_eq!(items, [round, round + 1, round + 2]);
                    }
                });
            }
        });
    }
}
