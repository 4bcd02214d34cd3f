//! The figure pipeline's memory gate: the most heap Figures 5 and 6
//! hold live at any moment of a quick-scale run, against baked
//! constants. A figure that pools every variation again, or keeps a
//! sorted pool per service, fails it.
//!
//! The byte counter is process-wide, so this file is its own harness
//! (`harness = false`): `main` runs the cases one after another on one
//! thread, with no test-runner threads allocating alongside them. A
//! failed case panics, which fails the run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use experiments::{fig5, fig6, Scale};

/// Keeps the bytes live and their high-water mark; forwards everything
/// to the system allocator.
struct CountingAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap bytes `f` leaves live, and the most it held live above the
/// starting point at any moment, as `(live, peak)`.
fn live_and_peak<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let value = f();
    let live = LIVE.load(Ordering::SeqCst) - before;
    (value, live, PEAK.load(Ordering::SeqCst) - before)
}

/// Peak live heap bytes of a quick Figure 5 run: its suite (fleet,
/// control plane, the watched devices' traces) and the selector's top
/// 1% — 1,598,246 B measured. Pooling each level's variations for
/// every window, as the figure once did, peaked at 2,384,606 B.
const FIG5_QUICK_PEAK_BYTES: u64 = 1_700_000;

/// Peak live heap bytes of a quick Figure 6 run: one server's trace and
/// one service's pool at a time — 152,976 B measured. Keeping a sorted
/// pool per service until the figure returned peaked at 904,256 B.
const FIG6_QUICK_PEAK_BYTES: u64 = 180_000;

fn fig5_quick_peak_is_bounded() {
    let (fig, live, peak) = live_and_peak(|| fig5::run(Scale::Quick));
    println!("figure_memory::fig5 quick: peak {peak} B, {live} B left live");
    drop(fig);
    assert!(
        peak <= FIG5_QUICK_PEAK_BYTES,
        "a quick Figure 5 run peaked at {peak} B live, gate {FIG5_QUICK_PEAK_BYTES}"
    );
}

fn fig6_quick_peak_is_bounded() {
    let (fig, live, peak) = live_and_peak(|| fig6::run(Scale::Quick));
    println!("figure_memory::fig6 quick: peak {peak} B, {live} B left live");
    drop(fig);
    assert!(
        peak <= FIG6_QUICK_PEAK_BYTES,
        "a quick Figure 6 run peaked at {peak} B live, gate {FIG6_QUICK_PEAK_BYTES}"
    );
}

fn main() {
    let cases: &[(&str, fn())] = &[
        ("fig5_quick_peak_is_bounded", fig5_quick_peak_is_bounded),
        ("fig6_quick_peak_is_bounded", fig6_quick_peak_is_bounded),
    ];
    for (name, case) in cases {
        case();
        println!("figure_memory::{name} ... ok");
    }
}
