//! A persistent, deterministic worker pool for lockstep fan-out.
//!
//! The simulation's hot fan-outs — fleet physics, the breaker pre-fold
//! and same-instant leaf control cycles — dispatch thousands of times
//! per simulated minute; spawning and joining fresh threads each time
//! would pay thread creation (~tens of microseconds per worker) on
//! every one. [`WorkerPool`] spawns its workers once, parks them
//! between dispatches, and wakes them through per-worker atomic-flag
//! mailboxes, so a warm dispatch costs two atomic transitions and an
//! unpark per worker and touches the heap not at all.
//!
//! # Dispatch model
//!
//! [`WorkerPool::run_on`] takes a slice of per-worker work items and a
//! shared closure; worker `w` runs `f(w, &mut items[w])` and the call
//! returns only after every worker has finished. The item→worker
//! mapping is by index and therefore deterministic: results cannot
//! depend on scheduling, core count, or how many workers the pool has
//! beyond the item count. Callers that need deterministic *output*
//! simply merge their items in index order after the call, exactly as
//! the simulation's control plane merges leaf results in ascending
//! leaf index.
//!
//! # Safety
//!
//! This crate contains the workspace's only `unsafe` code (the `dynamo`
//! crate itself is `#![forbid(unsafe_code)]`): handing a borrowed
//! `&mut T` to a persistent thread requires erasing its lifetime, the
//! same trick scoped-thread implementations use. Soundness rests on two
//! structural guarantees, both enforced by `run_on` itself:
//!
//! * **No escape:** `run_on` does not return — even when a worker
//!   panics — until every armed worker has signalled completion, so the
//!   erased borrows never outlive the frame that owns them.
//! * **No aliasing:** worker `w` receives `&mut items[w]` only, and
//!   distinct indices are disjoint; the shared closure is accessed by
//!   `&F` with `F: Sync`.

#![warn(missing_docs)]

use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, Thread};

/// Hard cap on pool size. Dispatch scratch at the call sites lives on
/// the stack as fixed-size arrays of this length, so the cap keeps
/// those arrays small; no realistic host or test needs more workers.
pub const MAX_WORKERS: usize = 64;

/// Worker mailbox states.
const IDLE: u32 = 0;
const ARMED: u32 = 1;
const SHUTDOWN: u32 = 2;

/// One dispatch's type-erased job description, shared by all workers.
///
/// `items` points at the first element of the caller's `&mut [T]`,
/// `func` at the caller's shared closure, and `call` is the
/// monomorphized trampoline that casts both back.
#[derive(Clone, Copy)]
struct Job {
    items: *mut (),
    func: *const (),
    call: unsafe fn(*const (), *mut (), usize),
}

impl Job {
    const fn none() -> Self {
        unsafe fn never(_: *const (), _: *mut (), _: usize) {
            unreachable!("dispatched without a published job")
        }
        Job {
            items: std::ptr::null_mut(),
            func: std::ptr::null(),
            call: never,
        }
    }
}

/// State shared between the owner and the workers.
struct Shared {
    /// The current dispatch's job. Written by the owner strictly while
    /// every worker is `IDLE`; read by workers strictly between the
    /// owner's `ARMED` store (Release) and their own completion signal.
    job: UnsafeCell<Job>,
    /// Per-worker mailbox flags.
    mailboxes: Vec<AtomicU32>,
    /// Workers finished in the current dispatch.
    done: AtomicUsize,
    /// Workers armed in the current dispatch.
    armed: AtomicUsize,
    /// A worker panicked in the current dispatch.
    panicked: AtomicBool,
    /// The dispatching thread, for the last worker to unpark. `None`
    /// outside a dispatch.
    owner: Mutex<Option<Thread>>,
}

// SAFETY: `Shared` is accessed under the protocol documented on `job`:
// the owner publishes the job before any Release store of `ARMED`, and
// workers Acquire-load the flag before reading it, so the `UnsafeCell`
// is never accessed concurrently with a write. The raw pointers inside
// `Job` are only dereferenced through the trampoline while the
// originating `run_on` frame is alive.
unsafe impl Send for Shared {}
unsafe impl Sync for Shared {}

/// A fixed-size pool of dedicated worker threads, created once and
/// parked between dispatches.
///
/// Dropping the pool shuts the workers down and joins them; no thread
/// outlives the pool.
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
    handles: Vec<JoinHandle<()>>,
    /// Serializes dispatches: `run_on` takes `&self` so the pool can be
    /// shared behind an `Arc`, but the wake/merge protocol supports one
    /// dispatch at a time.
    dispatch: Mutex<()>,
}

impl WorkerPool {
    /// Spawns `workers` dedicated threads, parked until the first
    /// dispatch. Sizes above [`MAX_WORKERS`] are clamped.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or a worker thread cannot be
    /// spawned.
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "worker pool needs at least one worker");
        let workers = workers.min(MAX_WORKERS);
        let shared = Arc::new(Shared {
            job: UnsafeCell::new(Job::none()),
            mailboxes: (0..workers).map(|_| AtomicU32::new(IDLE)).collect(),
            done: AtomicUsize::new(0),
            armed: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            owner: Mutex::new(None),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dynpool-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            dispatch: Mutex::new(()),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Runs `f(w, &mut items[w])` on worker `w` for every item and
    /// blocks until all of them finish. With the pool warm this
    /// dispatch performs no heap allocation.
    ///
    /// The item→worker mapping is by index, so the work assignment —
    /// and therefore any result the caller assembles by item index — is
    /// deterministic regardless of scheduling.
    ///
    /// # Panics
    ///
    /// Panics if `items` outnumber the workers, or — after all workers
    /// have finished — if any worker panicked.
    pub fn run_on<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let n = items.len();
        assert!(
            n <= self.handles.len(),
            "{n} work items for {} workers",
            self.handles.len()
        );
        if n == 0 {
            return;
        }
        let _serialized = self.dispatch.lock().unwrap_or_else(|e| e.into_inner());
        let shared = &*self.shared;
        *shared.owner.lock().unwrap_or_else(|e| e.into_inner()) = Some(std::thread::current());
        shared.done.store(0, Ordering::Relaxed);
        shared.armed.store(n, Ordering::Relaxed);
        shared.panicked.store(false, Ordering::Relaxed);
        // SAFETY: every mailbox is IDLE here (the previous dispatch
        // waited for all completions and run_on is serialized), so no
        // worker reads `job` while we write it; the Release stores
        // below publish it.
        unsafe {
            *shared.job.get() = Job {
                items: items.as_mut_ptr() as *mut (),
                func: &f as *const F as *const (),
                call: trampoline::<T, F>,
            };
        }
        for w in 0..n {
            shared.mailboxes[w].store(ARMED, Ordering::Release);
            self.handles[w].thread().unpark();
        }
        while shared.done.load(Ordering::Acquire) < n {
            std::thread::park();
        }
        *shared.owner.lock().unwrap_or_else(|e| e.into_inner()) = None;
        if shared.panicked.load(Ordering::Relaxed) {
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
            // A worker that panicked already flagged the dispatch that
            // observed it; the shutdown join itself must not panic.
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

/// Casts the erased job back to its concrete types and runs one item.
///
/// # Safety
///
/// `func` must point at a live `F` and `items` at a live `[T]` with
/// more than `w` elements; distinct `w` values alias distinct elements.
/// `run_on` guarantees both by construction.
unsafe fn trampoline<T, F: Fn(usize, &mut T)>(func: *const (), items: *mut (), w: usize) {
    let f = unsafe { &*(func as *const F) };
    let item = unsafe { &mut *(items as *mut T).add(w) };
    f(w, item);
}

/// The body of worker `w`: wait for `ARMED`, run, signal, park.
fn worker_loop(shared: &Shared, w: usize) {
    loop {
        match shared.mailboxes[w].load(Ordering::Acquire) {
            ARMED => {
                // SAFETY: the Acquire load of ARMED synchronizes with
                // the owner's Release store, which happens after the
                // job was published; the owner does not rewrite it
                // until this worker signals completion below.
                let job = unsafe { *shared.job.get() };
                let result = panic::catch_unwind(AssertUnwindSafe(|| {
                    // SAFETY: see `trampoline`; the owning `run_on`
                    // frame is blocked until we signal done.
                    unsafe { (job.call)(job.func, job.items, w) }
                }));
                if result.is_err() {
                    shared.panicked.store(true, Ordering::Relaxed);
                }
                shared.mailboxes[w].store(IDLE, Ordering::Release);
                let finished = shared.done.fetch_add(1, Ordering::AcqRel) + 1;
                if finished == shared.armed.load(Ordering::Acquire) {
                    if let Some(owner) = shared
                        .owner
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .as_ref()
                    {
                        owner.unpark();
                    }
                }
            }
            SHUTDOWN => return,
            _ => std::thread::park(),
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
    fn fewer_items_than_workers_is_fine() {
        let pool = WorkerPool::new(6);
        let mut items = [0u32; 3];
        pool.run_on(&mut items, |w, item| *item = w as u32 + 1);
        assert_eq!(items, [1, 2, 3]);
        let mut empty: [u32; 0] = [];
        pool.run_on(&mut empty, |_, _| unreachable!());
    }

    #[test]
    fn repeated_dispatches_reuse_the_same_workers() {
        // Miri executes every synchronization step interpreted; 50
        // rounds exercise the same reuse logic in a fraction of the
        // time.
        let rounds: u64 = if cfg!(miri) { 50 } else { 1000 };
        let pool = WorkerPool::new(4);
        let total = AtomicU64::new(0);
        for round in 0..rounds {
            let mut items = [round; 4];
            pool.run_on(&mut items, |w, item| {
                total.fetch_add(*item + w as u64, Ordering::Relaxed);
            });
        }
        // sum over rounds of (4*round + 0+1+2+3)
        assert_eq!(
            total.load(Ordering::Relaxed),
            4 * ((rounds - 1) * rounds / 2) + 6 * rounds
        );
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
        ignore = "spawns MAX_WORKERS real threads; too heavy interpreted"
    )]
    fn oversized_pool_clamps_to_max_workers() {
        let pool = WorkerPool::new(MAX_WORKERS + 40);
        assert_eq!(pool.workers(), MAX_WORKERS);
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
    }
}
