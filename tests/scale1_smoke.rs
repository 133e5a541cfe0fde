//! Scale=1 smoke: the full (unscaled) mcf footprint against the bitmap
//! frame allocator.
//!
//! The default evaluation runs at capacity_scale = 1/64, where even the
//! old freed-Vec allocator was harmless. This battery allocates and frees
//! mcf's full paper-sized footprint on a full-capacity DDR3 machine —
//! hundreds of thousands of frames — and checks the two properties the
//! hierarchical bitmap was built for:
//!
//! 1. allocator bookkeeping stays O(total_frames/8) bytes through arbitrary
//!    churn (bitmap-bounded, not freed-Vec-bounded);
//! 2. the allocation order is deterministic, pinned by a committed FNV
//!    digest.
//!
//! It also runs mcf under MOCA on a full-capacity Heter config1 machine
//! with its whole heap in the latency partition, which needs a partition
//! far wider than the 256 MiB the layout once gave each heap class.

use moca::policy::MocaPolicy;
use moca_common::{ModuleKind, ObjectClass, MB, PAGE_SIZE};
use moca_sim::config::{HeterogeneousLayout, MemSystemConfig, SystemConfig};
use moca_sim::system::{AppLaunch, System};
use moca_vm::frames::FrameSpace;
use moca_workloads::gen::scaled_sizes;
use moca_workloads::{app_by_name, InputSet};

/// FNV-1a over a pfn sequence.
fn fnv1a(pfns: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in pfns {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// mcf's full footprint in pages at scale 1: heap objects + code + stack.
fn mcf_scale1_pages() -> u64 {
    let spec = app_by_name("mcf");
    let heap: u64 = scaled_sizes(&spec, InputSet::reference(), 1.0)
        .iter()
        .map(|sz| sz.div_ceil(PAGE_SIZE))
        .sum();
    let code = spec.code_bytes.div_ceil(PAGE_SIZE);
    let stack = spec.stack_working_set.max(16 * 1024).div_ceil(PAGE_SIZE);
    heap + code + stack
}

/// Committed digest of the full-footprint allocation order. Captured from
/// the allocator as of this test's introduction; moves only when the
/// externally observable allocation order moves.
const SCALE1_ALLOC_DIGEST: u64 = 0x28e0976b1da16dd4;

#[test]
fn full_mcf_footprint_allocates_frees_and_stays_bitmap_bounded() {
    let mem = MemSystemConfig::Homogeneous(ModuleKind::Ddr3);
    let mut fs = FrameSpace::new(mem.frame_regions(1.0));
    let total_frames = fs.total_frames();
    let pages = mcf_scale1_pages();
    assert!(
        pages > 100_000,
        "mcf at scale 1 should need hundreds of thousands of pages, got {pages}"
    );
    assert!(
        pages <= total_frames,
        "mcf ({pages} pages) must fit the full-capacity machine ({total_frames} frames)"
    );

    // Allocate the full footprint, then free every frame (interleaved
    // even/odd to force worst-case simultaneous-free pressure on the old
    // freed-Vec design), then reallocate half of it.
    let pfns: Vec<u64> = (0..pages)
        .map(|i| {
            fs.alloc_by_preference(&[ModuleKind::Ddr3])
                .unwrap_or_else(|| panic!("allocation {i} of {pages} failed"))
                .0
        })
        .collect();
    let digest = fnv1a(pfns.iter().copied());
    let mut peak = fs.alloc_bytes();
    for &pfn in pfns.iter().step_by(2).chain(pfns.iter().skip(1).step_by(2)) {
        fs.free(pfn);
        peak = peak.max(fs.alloc_bytes());
    }
    assert_eq!(fs.free_in_region(0), total_frames);
    for _ in 0..pages / 2 {
        fs.alloc_by_preference(&[ModuleKind::Ddr3]).unwrap();
        peak = peak.max(fs.alloc_bytes());
    }
    fs.check_invariants().unwrap();

    // Bitmap-bounded: bits (frames/8) + summary (frames/512) + the bounded
    // reuse cache, with 2x slack for Vec capacity rounding. The old design
    // held `pages` u64s (8 bytes each) in `freed` at the all-free point —
    // more than an order of magnitude over this budget.
    let budget = (total_frames / 4 + 64 * 1024) as usize;
    assert!(
        peak < budget,
        "peak allocator bookkeeping {peak} B exceeds bitmap budget {budget} B \
         ({total_frames} frames; freed-Vec-style growth?)"
    );

    assert_eq!(
        digest, SCALE1_ALLOC_DIGEST,
        "scale=1 allocation order changed; if intentional update SCALE1_ALLOC_DIGEST to {digest:#018x}"
    );
}

#[test]
fn moca_runs_full_mcf_footprint_in_the_latency_partition() {
    let spec = app_by_name("mcf");
    let heap: u64 = scaled_sizes(&spec, InputSet::reference(), 1.0).iter().sum();
    assert!(
        heap > 256 * MB,
        "mcf's scale-1 heap ({heap} B) must overflow a 256 MiB partition"
    );
    let launch = AppLaunch {
        object_classes: vec![ObjectClass::LatencySensitive; spec.objects.len()],
        spec,
        input: InputSet::reference(),
    };
    let cfg = SystemConfig {
        capacity_scale: 1.0,
        ..SystemConfig::single_core(MemSystemConfig::Heterogeneous(
            HeterogeneousLayout::config1(),
        ))
    };
    let mut sys = System::new(cfg, vec![launch], Box::new(MocaPolicy));
    let pages = sys.os().page_table(0).mapped_pages() as u64;
    assert!(
        pages >= heap / PAGE_SIZE,
        "{pages} pages prefaulted for a {heap} B heap"
    );
    let result = sys.run_warmed(2_000, 10_000);
    assert!(
        result.per_core[0].stats.committed >= 10_000,
        "mcf committed {} of 10,000 instructions",
        result.per_core[0].stats.committed
    );
}
