//! Heap footprint of the simulator's largest fixed structures.
//!
//! Every simulated core owns a Table I hierarchy (64 KB L1I and L1D,
//! 512 KB 16-way L2: 10,240 ways), so its way state is most of a
//! many-core run's heap. At capacity scale 1, `System::new` prefaults
//! every page of every object (§IV-E), so its per-page OS bookkeeping is
//! most of a paper-sized run's heap, and a run-coded page map must not cost
//! more than the dense one it replaced when its keys scatter. A migrating
//! run adds the per-page heat its epochs read. A counting global allocator
//! measures the bytes each holds and the most it held at once, and the
//! bounds fail a layout regression deterministically instead of leaving it
//! to `peak_heap_mb`'s noise bound in the benchmark.

use moca::policy::MocaPolicy;
use moca::LowPowerFirstPolicy;
use moca_common::rng::DetRng;
use moca_common::ObjectClass;
use moca_sim::config::{HeterogeneousLayout, MemSystemConfig, SystemConfig};
use moca_sim::migration::MigrationConfig;
use moca_sim::system::AppLaunch;
use moca_sim::CoreHierarchy;
use moca_vm::RadixMap;
use moca_workloads::{app_by_name, multiprogram_sets, InputSet};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator and keeps each thread's live byte
/// count and its high-water mark, so the test harness's own threads do
/// not disturb the reading.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn add_live(bytes: usize, sign: isize) {
    // A `Layout` size never exceeds `isize::MAX`, so the cast is exact.
    // `try_with` fails only during thread teardown, after any measurement.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + sign * bytes as isize;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
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

/// Heap bytes `make`'s result holds once built, and the most `make` held
/// at once on the way.
fn held_and_peak_bytes<T>(make: impl FnOnce() -> T) -> (T, isize, isize) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let value = make();
    let held = LIVE.with(Cell::get) - before;
    (value, held, PEAK.with(Cell::get) - before)
}

/// Heap bytes `make`'s result holds once built.
fn held_bytes<T>(make: impl FnOnce() -> T) -> (T, isize) {
    let (value, held, _) = held_and_peak_bytes(make);
    (value, held)
}

#[test]
fn table1_hierarchy_holds_at_most_34_kib() {
    let (hierarchy, bytes) = held_bytes(CoreHierarchy::new);
    // 10,240 ways at 3 bytes (u16 tag, u8 recency rank) plus packed valid
    // and dirty bits each is 33,280 B; the rest is MSHRs and empty queues.
    // Measured at 34,080 B; with u32 keys (tag + 1, 0 for invalid) and no
    // valid bits it was 53,280 B.
    assert!(
        bytes <= 34 * 1024,
        "CoreHierarchy::new() holds {bytes} B of heap, over the 34 KiB bound"
    );
    assert!(
        bytes >= 10_240 * 3,
        "measured {bytes} B: is the allocator counting?"
    );
    drop(hierarchy);
}

/// The benchmark's `colo16-compute` tenant list: two big latency-bound
/// apps plus a rotation of the small-footprint suite.
const COLO16_APPS: [&str; 16] = [
    "mcf", "mser", "gcc", "sift", "stitch", "gcc", "sift", "stitch", "gcc", "sift", "stitch",
    "gcc", "sift", "stitch", "gcc", "sift",
];

#[test]
fn colo16_system_new_holds_at_most_680_kib() {
    // Sixteen cores under MOCA on Heter config1 at the default 1/64 scale.
    // Objects take the three heap classes in turn, so every app's page
    // table maps pages in every layout region.
    let cfg = SystemConfig::multi_core(
        COLO16_APPS.len(),
        MemSystemConfig::Heterogeneous(HeterogeneousLayout::config1()),
    );
    let launches = COLO16_APPS
        .iter()
        .map(|&name| {
            let spec = app_by_name(name);
            let object_classes = (0..spec.objects.len())
                .map(|i| ObjectClass::ALL[i % ObjectClass::ALL.len()])
                .collect();
            AppLaunch {
                spec,
                input: InputSet::reference(),
                object_classes,
            }
        })
        .collect();
    let (sys, held) = held_bytes(|| moca_sim::System::new(cfg, launches, Box::new(MocaPolicy)));
    // Per core: a 33 KiB hierarchy, an exactly sized ROB, and a page
    // table whose per-region radix top levels are a few slots each, plus
    // the runs of the chunks its pages touch. Measured at 674,313 B (with
    // u32 cache keys, 979,209 B; with run lists grown by doubling as well,
    // 994,073 B). Dense chunks, a single page radix (an 8 KiB top level
    // per table), byte-wide dirty or valid flags (9 KiB more per core) or
    // u32 cache keys (19 KiB more per core) would each break the bound.
    const BOUND: isize = 680 * 1024;
    assert!(
        held <= BOUND,
        "16-core System::new holds {held} B, over the 680 KiB bound"
    );
    assert!(
        held >= 16 * 10_240 * 3,
        "measured {held} B: is the allocator counting?"
    );
    drop(sys);
}

/// The benchmark's `scale1-migrate` machine: the 3L1B set on Heter config1
/// at capacity scale 1 (524,288 frames) under low-power-first placement,
/// which prefaults about 460k pages.
fn scale1_migrate() -> moca_sim::System {
    let cfg = SystemConfig {
        capacity_scale: 1.0,
        ..SystemConfig::quad_core(MemSystemConfig::Heterogeneous(
            HeterogeneousLayout::config1(),
        ))
    };
    let set = multiprogram_sets()
        .into_iter()
        .find(|s| s.name == "3L1B")
        .expect("3L1B set");
    let launches = set
        .apps
        .iter()
        .map(|&n| AppLaunch::untyped(app_by_name(n), InputSet::reference()))
        .collect();
    moca_sim::System::new(cfg, launches, Box::new(LowPowerFirstPolicy))
}

#[test]
fn scale1_migrate_system_new_peaks_at_most_640_kib() {
    let (sys, held, peak) = held_and_peak_bytes(scale1_migrate);
    // Four page tables hold about 23k affine runs, 8 bytes a run, plus at
    // most four spare run slots per chunk; the OS keeps no other per-page
    // map. Measured at 610,382 B peak and 544,002 B held in a debug build,
    // whose peak includes the 64 KiB scratch bitmap of
    // `Os::check_invariants` after the prefault. A frame -> vpn owner table
    // (227 KB) or run lists grown by doubling (122 KB more slack) would
    // each break the bound, as would dense 2 KiB chunks or a per-page
    // startup list; with the first two it peaked at 897,634 B.
    const BOUND: isize = 640 * 1024;
    assert!(
        peak <= BOUND,
        "System::new peaked at {peak} B ({held} B held after), over the 640 KiB bound"
    );
    // Every break in a table's (vpn, pfn) sequence starts a run, which
    // costs 8 bytes in the page table alone.
    let (mut pages, mut runs) = (0usize, 0usize);
    for app in 0..4 {
        let mut prev = None;
        for (vpn, pfn) in sys.os().page_table(app).iter() {
            pages += 1;
            runs += usize::from(prev != Some((vpn.wrapping_sub(1), pfn.wrapping_sub(1))));
            prev = Some((vpn, pfn));
        }
    }
    assert!(
        pages > 400_000 && runs > 10_000 && held >= runs as isize * 8,
        "{pages} pages in {runs} runs held in {held} B: is the allocator counting?"
    );
}

#[test]
fn scale1_migrate_run_peaks_at_most_850_kib() {
    // Build the machine and run it under Heter-Migrate across several
    // migration epochs: the heat tables grow with the pages read, and each
    // epoch moves pages and queues their dirty lines for writeback.
    let (stats, held, peak) = held_and_peak_bytes(|| {
        let mut sys = scale1_migrate();
        sys.attach_migration(MigrationConfig::default());
        sys.run_warmed(20_000, 80_000);
        sys.migration_stats().expect("migration attached")
    });
    assert!(
        stats.epochs >= 3 && stats.promotions > 0,
        "the run must cross at least 3 epochs and move pages: {stats:?}"
    );
    // Measured at 799,818 B over 4 epochs in a debug build: System::new,
    // then the read log (16 KiB), this epoch's reads per page and the fast
    // residents' heat as sorted 8-byte (pfn, count) pairs, and the
    // writeback queues of the invalidated pages. With two ordered maps of
    // heat and the owner table it peaked at 1,225,106 B.
    const BOUND: isize = 850 * 1024;
    assert!(
        peak <= BOUND,
        "System::new and a {} epoch run peaked at {peak} B, over the 850 KiB bound",
        stats.epochs
    );
    assert!(
        held <= 0,
        "everything is dropped after the run: {held} B held"
    );
}

#[test]
fn scattered_radix_map_holds_at_most_1_percent_over_dense_chunks() {
    // Every frame of a 2 GiB machine at capacity scale 1 gets a random
    // value, in an order that jumps between chunks: no two neighbours are
    // affine, so every chunk ends up dense. The largest key goes first, so
    // the chunk index is sized once, at 1024 slots.
    const FRAMES: u64 = 524_288;
    let mut rng = DetRng::new(0x005C_A77E, 0);
    let (map, held) = held_bytes(|| {
        let mut map = RadixMap::new();
        map.insert(FRAMES - 1, 0);
        for i in 0..FRAMES {
            let key = i.wrapping_mul(0x9E37_79B1) % FRAMES;
            map.insert(key, rng.below(u64::from(u32::MAX)));
        }
        map
    });
    // A dense radix holds an 8-byte slot and a 2 KiB array per chunk; the
    // run-coded one a 24-byte slot and the same array.
    let chunks = (FRAMES / 512) as isize;
    let dense = chunks * (8 + 2048);
    assert!(
        held * 100 <= dense * 101,
        "scattered map holds {held} B, over 1% above the dense radix's {dense} B"
    );
    assert!(
        held >= chunks * 2048,
        "measured {held} B: is the allocator counting?"
    );
    assert_eq!(map.iter().count() as u64, FRAMES);
}
