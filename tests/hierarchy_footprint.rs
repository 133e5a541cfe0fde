//! Heap footprint of one core's cache hierarchy.
//!
//! Every simulated core owns a Table I hierarchy (64 KB L1I and L1D,
//! 512 KB 16-way L2: 10,240 ways), so its way state is most of a
//! many-core run's heap. A counting global allocator measures the bytes
//! `CoreHierarchy::new()` holds, and the bound fails a layout regression
//! deterministically instead of leaving it to `peak_heap_mb`'s noise
//! bound in the benchmark.

use moca_sim::CoreHierarchy;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator and keeps each thread's live byte
/// count, so the test harness's own threads do not disturb the reading.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn add_live(bytes: usize, sign: isize) {
    // A `Layout` size never exceeds `isize::MAX`, so the cast is exact.
    // `try_with` fails only during thread teardown, after any measurement.
    let _ = LIVE.try_with(|live| live.set(live.get() + sign * bytes as isize));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the bookkeeping beside it
// touches only a thread-local counter and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add_live(layout.size(), 1);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add_live(layout.size(), 1);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(layout.size(), -1);
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add_live(new_size, 1);
        add_live(layout.size(), -1);
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s
        // conditions on `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap bytes `make`'s result holds once built.
fn held_bytes<T>(make: impl FnOnce() -> T) -> (T, isize) {
    let before = LIVE.with(Cell::get);
    let value = make();
    (value, LIVE.with(Cell::get) - before)
}

#[test]
fn table1_hierarchy_holds_at_most_64_kib() {
    let (hierarchy, bytes) = held_bytes(CoreHierarchy::new);
    // 10,240 ways at 6 bytes (u32 key, u8 recency rank, dirty flag) is
    // 61,440 B; the rest is MSHRs and empty queues.
    assert!(
        bytes <= 64 * 1024,
        "CoreHierarchy::new() holds {bytes} B of heap, over the 64 KiB bound"
    );
    assert!(
        bytes >= 10_240 * 6,
        "measured {bytes} B: is the allocator counting?"
    );
    drop(hierarchy);
}
