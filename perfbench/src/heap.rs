//! Heap accounting for `peak_heap_mb`: the benchmark binary's global
//! allocator forwards to the system allocator and counts the bytes the
//! process holds, and the highest count since the last reset.
//!
//! The process's peak resident set (`VmHWM`) would mostly measure the
//! executable's own pages at 1/64 capacity scale, and how many of those are
//! mapped shifts with address-space randomisation; the heap count is what
//! the simulator's data structures cost.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes currently allocated. Statistics only: `Relaxed` publishes nothing.
static HELD: AtomicUsize = AtomicUsize::new(0);
/// Highest value of [`HELD`] since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while this thread runs [`uncounted`] work. Const-initialised and
    /// without a destructor, so the allocator may read it.
    static PAUSED: Cell<bool> = const { Cell::new(false) };
}

/// The counting allocator installed in `main.rs`.
pub struct Counting;

fn grew(bytes: usize) {
    if PAUSED.get() {
        return;
    }
    let now = HELD.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(now, Relaxed);
}

fn shrank(bytes: usize) {
    if !PAUSED.get() {
        HELD.fetch_sub(bytes, Relaxed);
    }
}

/// Run `f` without counting its allocations. `f` must free everything it
/// allocates and nothing allocated outside it.
pub fn uncounted<T>(f: impl FnOnce() -> T) -> T {
    PAUSED.set(true);
    let out = f();
    PAUSED.set(false);
    out
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result, so `System`'s guarantees hold; the
// counters are never read by the allocator itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Start a new peak at the bytes held now, and return them.
pub fn reset_peak() -> usize {
    let now = HELD.load(Relaxed);
    PEAK.store(now, Relaxed);
    now
}

/// The highest number of bytes held since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Relaxed)
}
