//! Physical frame allocation over heterogeneous memory modules.
//!
//! The OS "maintains the starting, ending, and the next available page number
//! of each memory module" (§IV-D). A [`FrameSpace`] is the set of
//! [`ModuleRegion`]s of one machine configuration; allocation walks a
//! preference list of module kinds and takes the next free frame of the
//! first kind with space.
//!
//! # Occupancy representation
//!
//! Each region's occupancy is a [`TwoLevelBitmap`] — the ground truth for
//! which frames are live — so allocator memory is bounded at
//! `total_frames/8 + total_frames/512` bytes no matter how much alloc/free
//! churn a run produces. (The previous design kept every freed pfn in an
//! unbounded `Vec<u64>` per region, whose worst case at capacity_scale=1 is
//! a multi-million-entry vector per region.)
//!
//! # Ordering-compatibility contract
//!
//! The externally observable allocation *sequence* is part of the simulator's
//! deterministic surface: the seven golden-config digests depend on it. The
//! contract, preserved from the original bump-pointer design:
//!
//! 1. frames are handed out in ascending pfn order within a region
//!    (bump-pointer semantics — the bitmap's lowest-free search degenerates
//!    to exactly this while nothing has been freed);
//! 2. freed frames are reused LIFO, most-recently-freed first, before the
//!    bump frontier advances.
//!
//! LIFO ordering is served by a bounded cache ([`FREE_CACHE`] entries per
//! region) of recently freed pfns; the bitmap stays the ground truth, and a
//! debug assertion verifies cache/bitmap agreement on every reuse. When more
//! than [`FREE_CACHE`] frames of one region are simultaneously free, the
//! overflow is tracked only by the bitmap and comes back lowest-pfn-first
//! once the cache drains — the one (documented) divergence from the old
//! unbounded-LIFO behaviour, unreachable on all committed configurations
//! (golden runs never free; migration runs free slow-module frames that are
//! never reallocated).
//!
//! # Checked preconditions
//!
//! [`FrameSpace::free`] rejects out-of-range, never-allocated, and
//! double-freed pfns: a `debug_assert` fires in debug builds, and release
//! builds log the structured [`FrameError`] and leave the allocator state
//! untouched instead of silently corrupting the free-frame accounting.

use moca_common::addr::PAGE_SIZE;
use moca_common::bitset::TwoLevelBitmap;
use moca_common::ModuleKind;
use serde::{Deserialize, Serialize};

/// One memory module's slice of the physical address space.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModuleRegion {
    /// Technology of the module.
    pub kind: ModuleKind,
    /// Index of the channel/controller serving this module.
    pub channel: usize,
    /// First physical frame number of the region.
    pub base_pfn: u64,
    /// Number of frames in the region.
    pub frames: u64,
}

impl ModuleRegion {
    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.frames * PAGE_SIZE
    }

    /// Whether `pfn` belongs to this region.
    pub fn contains_pfn(&self, pfn: u64) -> bool {
        pfn >= self.base_pfn && pfn < self.base_pfn + self.frames
    }
}

/// Why a [`FrameSpace::try_free`] call was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FreeErrorCause {
    /// The pfn belongs to no region of this machine.
    OutOfRange,
    /// The pfn is inside a region but above its allocation frontier, so it
    /// was never handed out by this allocator.
    NeverAllocated,
    /// The frame is already free: the same pfn was freed twice without an
    /// intervening allocation.
    DoubleFree,
}

impl FreeErrorCause {
    fn describe(self) -> &'static str {
        match self {
            FreeErrorCause::OutOfRange => "pfn outside every module region",
            FreeErrorCause::NeverAllocated => "frame was never allocated",
            FreeErrorCause::DoubleFree => "frame is already free (double free)",
        }
    }
}

/// Structured report for a rejected free, naming the offending pfn and the
/// region/kind it resolved to (when it resolved at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameError {
    /// What precondition failed.
    pub cause: FreeErrorCause,
    /// The offending physical frame number.
    pub pfn: u64,
    /// Region index owning the pfn, when in range.
    pub region: Option<usize>,
    /// Module kind of that region, when in range.
    pub kind: Option<ModuleKind>,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rejected free of pfn {}: {}",
            self.pfn,
            self.cause.describe()
        )?;
        if let (Some(region), Some(kind)) = (self.region, self.kind) {
            write!(f, " (region {region}, {kind})")?;
        }
        Ok(())
    }
}

impl std::error::Error for FrameError {}

/// All physical memory of a machine, partitioned into module regions, with
/// per-region occupancy bitmaps and a bounded LIFO reuse cache.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrameSpace {
    regions: Vec<ModuleRegion>,
    /// Per-region occupancy (bit set = frame allocated). Ground truth.
    occ: Vec<TwoLevelBitmap>,
    /// Per-region high-water mark: offsets below this have been handed out
    /// at least once. Only used to classify free errors and check
    /// invariants — allocation itself runs off the bitmap.
    frontier: Vec<u64>,
    /// Per-region LIFO cache of recently freed pfns, capped at
    /// [`FREE_CACHE`]; overflow is tracked by the bitmap alone.
    free_cache: Vec<Vec<u64>>,
    /// Striping state per module kind (indexed like [`ModuleKind::ALL`]):
    /// current region and frames left in the chunk.
    stripe_region: [usize; 4],
    stripe_left: [u64; 4],
}

/// Frames allocated from one region before striping rotates to the next
/// region of the same kind. Must be a multiple of the L2 page-color period
/// (8 pages for a 512-set, 64 B-line cache): per-page alternation between
/// two regions whose bases share colors would alias virtually-adjacent
/// pages onto the same cache colors and halve the effective cache.
pub const STRIPE_CHUNK: u64 = 16;

/// Per-region capacity of the LIFO reuse cache. Large enough that every
/// committed scenario (migration frees at most [`FREE_CACHE`] frames per
/// epoch before reallocation) sees exact unbounded-LIFO behaviour; small
/// enough that allocator memory stays bitmap-bounded.
pub const FREE_CACHE: usize = 64;

fn kind_index(kind: ModuleKind) -> usize {
    ModuleKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("kind in ALL")
}

impl FrameSpace {
    /// Build a frame space from contiguous module regions. Regions must be
    /// laid out back-to-back starting at frame 0 (the sim derives channel
    /// address ranges from the same layout).
    pub fn new(regions: Vec<ModuleRegion>) -> FrameSpace {
        assert!(!regions.is_empty());
        let mut expected = 0;
        for r in &regions {
            assert_eq!(r.base_pfn, expected, "regions must be contiguous");
            assert!(r.frames > 0, "empty region");
            expected += r.frames;
        }
        let occ = regions
            .iter()
            .map(|r| TwoLevelBitmap::new(r.frames))
            .collect();
        let n = regions.len();
        FrameSpace {
            regions,
            occ,
            frontier: vec![0; n],
            free_cache: vec![Vec::new(); n],
            stripe_region: [usize::MAX; 4],
            stripe_left: [0; 4],
        }
    }

    /// The module regions.
    pub fn regions(&self) -> &[ModuleRegion] {
        &self.regions
    }

    /// Total frames across all regions.
    pub fn total_frames(&self) -> u64 {
        self.regions.iter().map(|r| r.frames).sum()
    }

    /// Free frames remaining in region `idx`.
    pub fn free_in_region(&self, idx: usize) -> u64 {
        self.occ[idx].free_count()
    }

    /// Free frames remaining across all regions of `kind`.
    pub fn free_of_kind(&self, kind: ModuleKind) -> u64 {
        (0..self.regions.len())
            .filter(|&i| self.regions[i].kind == kind)
            .map(|i| self.free_in_region(i))
            .sum()
    }

    /// Free-frame headroom per module kind actually present in the machine,
    /// in [`ModuleKind::ALL`] order. Feeds telemetry's frame-pool gauges.
    pub fn headroom(&self) -> Vec<(ModuleKind, u64)> {
        ModuleKind::ALL
            .iter()
            .filter(|&&k| self.regions.iter().any(|r| r.kind == k))
            .map(|&k| (k, self.free_of_kind(k)))
            .collect()
    }

    /// Allocate one frame from region `idx`, if it has space. Reuses the
    /// most recently freed frame first (LIFO), then the lowest free frame
    /// in the bitmap — which is the bump frontier while nothing has been
    /// freed, and the lowest spilled frame otherwise.
    pub fn alloc_in_region(&mut self, idx: usize) -> Option<u64> {
        let base = self.regions[idx].base_pfn;
        while let Some(pfn) = self.free_cache[idx].pop() {
            let acquired = self.occ[idx].acquire(pfn - base);
            debug_assert!(
                acquired,
                "free-cache entry pfn {pfn} of region {idx} ({}) already occupied in the bitmap",
                self.regions[idx].kind
            );
            if acquired {
                return Some(pfn);
            }
            // Release builds: the bitmap is ground truth — drop the stale
            // cache entry and keep looking.
        }
        self.occ[idx].acquire_lowest().map(|off| {
            if off >= self.frontier[idx] {
                self.frontier[idx] = off + 1;
            }
            base + off
        })
    }

    /// Allocate one frame following a module-kind preference list: the first
    /// kind with a free frame wins. Kinds not present in the machine are
    /// skipped. Returns the frame and the kind it came from.
    ///
    /// When a kind has several regions (the paper's two LPDDR2 channels),
    /// allocations stripe across them in [`STRIPE_CHUNK`]-frame chunks —
    /// spreading one class's pages over both controllers for bandwidth
    /// while keeping each span of virtually-adjacent pages covering all
    /// physical page colors (see [`STRIPE_CHUNK`]).
    pub fn alloc_by_preference(&mut self, prefs: &[ModuleKind]) -> Option<(u64, ModuleKind)> {
        for &kind in prefs {
            let ki = kind_index(kind);
            // Continue the current chunk if it has room.
            let cur = self.stripe_region[ki];
            if self.stripe_left[ki] > 0
                && cur < self.regions.len()
                && self.regions[cur].kind == kind
                && self.free_in_region(cur) > 0
            {
                self.stripe_left[ki] -= 1;
                let pfn = self.alloc_in_region(cur).expect("region had free frames");
                return Some((pfn, kind));
            }
            // Start a new chunk on the region of this kind with most space.
            let best = (0..self.regions.len())
                .filter(|&i| self.regions[i].kind == kind && self.free_in_region(i) > 0)
                .max_by_key(|&i| self.free_in_region(i));
            if let Some(i) = best {
                self.stripe_region[ki] = i;
                self.stripe_left[ki] = STRIPE_CHUNK - 1;
                let pfn = self.alloc_in_region(i).expect("region had free frames");
                return Some((pfn, kind));
            }
        }
        None
    }

    /// Return a frame to its region, rejecting invalid frees.
    ///
    /// On an out-of-range, never-allocated, or double-freed pfn this
    /// returns the structured [`FrameError`] and changes nothing.
    pub fn try_free(&mut self, pfn: u64) -> Result<(), FrameError> {
        let Some(idx) = self.region_index_of(pfn) else {
            return Err(FrameError {
                cause: FreeErrorCause::OutOfRange,
                pfn,
                region: None,
                kind: None,
            });
        };
        let reject = |cause| FrameError {
            cause,
            pfn,
            region: Some(idx),
            kind: Some(self.regions[idx].kind),
        };
        let off = pfn - self.regions[idx].base_pfn;
        if off >= self.frontier[idx] {
            return Err(reject(FreeErrorCause::NeverAllocated));
        }
        if !self.occ[idx].release(off) {
            return Err(reject(FreeErrorCause::DoubleFree));
        }
        if self.free_cache[idx].len() < FREE_CACHE {
            self.free_cache[idx].push(pfn);
        }
        // else: spilled — the bitmap alone remembers it, and it will come
        // back lowest-first once the cache drains.
        Ok(())
    }

    /// Return a frame to its region's free pool.
    ///
    /// Precondition: `pfn` was previously returned by an alloc call and is
    /// not currently free. Violations are a caller bug: debug builds panic
    /// via `debug_assert`, release builds log the [`FrameError`] and leave
    /// the allocator untouched (use [`FrameSpace::try_free`] to handle the
    /// error instead).
    pub fn free(&mut self, pfn: u64) {
        if let Err(e) = self.try_free(pfn) {
            debug_assert!(false, "{e}");
            eprintln!("moca-vm: {e}");
        }
    }

    /// Region index owning `pfn`.
    pub fn region_index_of(&self, pfn: u64) -> Option<usize> {
        self.regions.iter().position(|r| r.contains_pfn(pfn))
    }

    /// Region owning `pfn`.
    pub fn region_of(&self, pfn: u64) -> Option<&ModuleRegion> {
        self.region_index_of(pfn).map(|i| &self.regions[i])
    }

    /// Module kind owning `pfn`.
    pub fn kind_of(&self, pfn: u64) -> Option<ModuleKind> {
        self.region_of(pfn).map(|r| r.kind)
    }

    /// Whether `pfn` is currently allocated (false outside every region).
    pub fn is_allocated(&self, pfn: u64) -> bool {
        self.region_index_of(pfn)
            .is_some_and(|i| self.occ[i].get(pfn - self.regions[i].base_pfn))
    }

    /// Heap bytes held by the allocator's bookkeeping (bitmaps, reuse
    /// caches, region table). Bounded by `total_frames/8` for the bit level
    /// plus `total_frames/512` for the summaries plus `FREE_CACHE`
    /// pfns per region — the number the scale=1 smoke test budgets against.
    pub fn alloc_bytes(&self) -> usize {
        let regions = self.regions.capacity() * std::mem::size_of::<ModuleRegion>();
        let occ: usize = self.occ.iter().map(|b| b.heap_bytes()).sum();
        let cache: usize = self
            .free_cache
            .iter()
            .map(|c| c.capacity() * std::mem::size_of::<u64>())
            .sum();
        let frontier = self.frontier.capacity() * std::mem::size_of::<u64>();
        regions + occ + cache + frontier
    }

    /// Full O(total frames / 64) validation of the allocator's structural
    /// invariants. Debug/test hook; returns the violated invariant by name.
    pub fn check_invariants(&self) -> Result<(), String> {
        for idx in 0..self.regions.len() {
            let r = &self.regions[idx];
            let occ = &self.occ[idx];
            occ.check_consistency()
                .map_err(|e| format!("region {idx} ({}): bitmap: {e}", r.kind))?;
            if occ.len() != r.frames {
                return Err(format!(
                    "region {idx} ({}): bitmap covers {} frames, region has {}",
                    r.kind,
                    occ.len(),
                    r.frames
                ));
            }
            if self.frontier[idx] > r.frames {
                return Err(format!(
                    "region {idx} ({}): frontier {} beyond region size {}",
                    r.kind, self.frontier[idx], r.frames
                ));
            }
            // No frame above the frontier may be occupied.
            if occ.used_count() > self.frontier[idx] {
                return Err(format!(
                    "region {idx} ({}): {} frames occupied but frontier is {}",
                    r.kind,
                    occ.used_count(),
                    self.frontier[idx]
                ));
            }
            for off in self.frontier[idx]..r.frames {
                if occ.get(off) {
                    return Err(format!(
                        "region {idx} ({}): frame offset {off} occupied above frontier {}",
                        r.kind, self.frontier[idx]
                    ));
                }
            }
            let cache = &self.free_cache[idx];
            if cache.len() > FREE_CACHE {
                return Err(format!(
                    "region {idx} ({}): free cache holds {} entries, cap is {FREE_CACHE}",
                    r.kind,
                    cache.len()
                ));
            }
            let mut seen = std::collections::BTreeSet::new();
            for &pfn in cache {
                if !r.contains_pfn(pfn) {
                    return Err(format!(
                        "region {idx} ({}): cached pfn {pfn} outside region",
                        r.kind
                    ));
                }
                let off = pfn - r.base_pfn;
                if off >= self.frontier[idx] {
                    return Err(format!(
                        "region {idx} ({}): cached pfn {pfn} above frontier {}",
                        r.kind, self.frontier[idx]
                    ));
                }
                if occ.get(off) {
                    return Err(format!(
                        "region {idx} ({}): cached pfn {pfn} marked occupied in the bitmap",
                        r.kind
                    ));
                }
                if !seen.insert(pfn) {
                    return Err(format!(
                        "region {idx} ({}): cached pfn {pfn} duplicated",
                        r.kind
                    ));
                }
            }
        }
        for ki in 0..4 {
            let cur = self.stripe_region[ki];
            if cur != usize::MAX {
                if cur >= self.regions.len() {
                    return Err(format!(
                        "stripe state {ki}: region index {cur} out of range"
                    ));
                }
                if self.regions[cur].kind != ModuleKind::ALL[ki] {
                    return Err(format!(
                        "stripe state {ki}: region {cur} is {}, expected {}",
                        self.regions[cur].kind,
                        ModuleKind::ALL[ki]
                    ));
                }
            }
            if self.stripe_left[ki] >= STRIPE_CHUNK {
                return Err(format!(
                    "stripe state {ki}: {} frames left exceeds chunk {STRIPE_CHUNK}",
                    self.stripe_left[ki]
                ));
            }
        }
        Ok(())
    }
}

/// Build contiguous regions from `(kind, channel, bytes)` triples.
pub fn regions_from_capacities(caps: &[(ModuleKind, usize, u64)]) -> Vec<ModuleRegion> {
    let mut base = 0;
    caps.iter()
        .map(|&(kind, channel, bytes)| {
            assert_eq!(bytes % PAGE_SIZE, 0, "capacity must be page-aligned");
            let r = ModuleRegion {
                kind,
                channel,
                base_pfn: base,
                frames: bytes / PAGE_SIZE,
            };
            base += r.frames;
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use moca_common::MB;

    fn space() -> FrameSpace {
        FrameSpace::new(regions_from_capacities(&[
            (ModuleKind::Rldram3, 0, MB),
            (ModuleKind::Hbm, 1, 2 * MB),
            (ModuleKind::Lpddr2, 2, MB),
            (ModuleKind::Lpddr2, 3, MB),
        ]))
    }

    #[test]
    fn regions_are_contiguous_and_sized() {
        let s = space();
        assert_eq!(s.total_frames(), 5 * MB / PAGE_SIZE);
        assert_eq!(s.regions()[1].base_pfn, MB / PAGE_SIZE);
        s.check_invariants().unwrap();
    }

    #[test]
    fn preference_order_respected() {
        let mut s = space();
        let (pfn, kind) = s
            .alloc_by_preference(&[ModuleKind::Rldram3, ModuleKind::Hbm])
            .unwrap();
        assert_eq!(kind, ModuleKind::Rldram3);
        assert!(s.regions()[0].contains_pfn(pfn));
    }

    #[test]
    fn fallback_when_preferred_full() {
        let mut s = space();
        let rl_frames = MB / PAGE_SIZE;
        for _ in 0..rl_frames {
            let (_, k) = s
                .alloc_by_preference(&[ModuleKind::Rldram3, ModuleKind::Hbm])
                .unwrap();
            assert_eq!(k, ModuleKind::Rldram3);
        }
        assert_eq!(s.free_of_kind(ModuleKind::Rldram3), 0);
        let (_, k) = s
            .alloc_by_preference(&[ModuleKind::Rldram3, ModuleKind::Hbm])
            .unwrap();
        assert_eq!(k, ModuleKind::Hbm);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut s = FrameSpace::new(regions_from_capacities(&[(ModuleKind::Ddr3, 0, PAGE_SIZE)]));
        assert!(s.alloc_by_preference(&[ModuleKind::Ddr3]).is_some());
        assert!(s.alloc_by_preference(&[ModuleKind::Ddr3]).is_none());
        assert!(s.alloc_by_preference(&[ModuleKind::Hbm]).is_none());
    }

    #[test]
    fn lpddr_channels_stripe_in_chunks() {
        let mut s = space();
        let mut counts = [0u32; 2];
        let mut first_chunk_region = None;
        for n in 0..(2 * STRIPE_CHUNK) {
            let (pfn, k) = s.alloc_by_preference(&[ModuleKind::Lpddr2]).unwrap();
            assert_eq!(k, ModuleKind::Lpddr2);
            let idx = s.region_index_of(pfn).unwrap();
            counts[idx - 2] += 1;
            if n < STRIPE_CHUNK {
                // The whole first chunk stays on one region (color safety).
                let f = *first_chunk_region.get_or_insert(idx);
                assert_eq!(idx, f, "chunk split across regions at frame {n}");
            }
        }
        assert_eq!(
            counts,
            [STRIPE_CHUNK as u32, STRIPE_CHUNK as u32],
            "chunks should alternate across the two LP channels"
        );
    }

    #[test]
    fn free_and_reuse() {
        let mut s = FrameSpace::new(regions_from_capacities(&[(ModuleKind::Ddr3, 0, PAGE_SIZE)]));
        let (pfn, _) = s.alloc_by_preference(&[ModuleKind::Ddr3]).unwrap();
        s.free(pfn);
        assert_eq!(s.free_of_kind(ModuleKind::Ddr3), 1);
        let (pfn2, _) = s.alloc_by_preference(&[ModuleKind::Ddr3]).unwrap();
        assert_eq!(pfn, pfn2);
    }

    #[test]
    fn freed_frames_reuse_lifo() {
        let mut s = FrameSpace::new(regions_from_capacities(&[(ModuleKind::Ddr3, 0, MB)]));
        let pfns: Vec<u64> = (0..8)
            .map(|_| s.alloc_by_preference(&[ModuleKind::Ddr3]).unwrap().0)
            .collect();
        for &p in &pfns[2..6] {
            s.free(p);
        }
        // Most recently freed comes back first.
        for &p in pfns[2..6].iter().rev() {
            assert_eq!(s.alloc_in_region(0), Some(p));
        }
        // Cache drained: next allocation resumes the bump frontier.
        assert_eq!(s.alloc_in_region(0), Some(pfns[7] + 1));
        s.check_invariants().unwrap();
    }

    #[test]
    fn cache_overflow_spills_to_bitmap_lowest_first() {
        let mut s = FrameSpace::new(regions_from_capacities(&[(ModuleKind::Ddr3, 0, MB)]));
        let n = FREE_CACHE as u64 + 3;
        let pfns: Vec<u64> = (0..n).map(|_| s.alloc_in_region(0).unwrap()).collect();
        for &p in &pfns {
            s.free(p);
        }
        s.check_invariants().unwrap();
        assert_eq!(s.free_in_region(0), MB / PAGE_SIZE);
        // The first FREE_CACHE frees are served LIFO from the cache...
        for &p in pfns[..FREE_CACHE].iter().rev() {
            assert_eq!(s.alloc_in_region(0), Some(p));
        }
        // ...then the three spilled frames come back lowest-pfn-first.
        assert_eq!(s.alloc_in_region(0), Some(pfns[FREE_CACHE]));
        assert_eq!(s.alloc_in_region(0), Some(pfns[FREE_CACHE + 1]));
        assert_eq!(s.alloc_in_region(0), Some(pfns[FREE_CACHE + 2]));
        s.check_invariants().unwrap();
    }

    #[test]
    fn try_free_classifies_invalid_frees() {
        let mut s = space();
        let (pfn, _) = s.alloc_by_preference(&[ModuleKind::Hbm]).unwrap();

        // Out of range: beyond every region.
        let e = s.try_free(s.total_frames() + 10).unwrap_err();
        assert_eq!(e.cause, FreeErrorCause::OutOfRange);
        assert_eq!(e.region, None);

        // Never allocated: in range, above the frontier.
        let never = s.regions()[1].base_pfn + 100;
        let e = s.try_free(never).unwrap_err();
        assert_eq!(e.cause, FreeErrorCause::NeverAllocated);
        assert_eq!(e.region, Some(1));
        assert_eq!(e.kind, Some(ModuleKind::Hbm));

        // Double free.
        s.try_free(pfn).unwrap();
        let e = s.try_free(pfn).unwrap_err();
        assert_eq!(e.cause, FreeErrorCause::DoubleFree);
        assert_eq!(e.kind, Some(ModuleKind::Hbm));

        // Nothing above corrupted the accounting.
        s.check_invariants().unwrap();
        assert_eq!(s.free_of_kind(ModuleKind::Hbm), 2 * MB / PAGE_SIZE);
    }

    #[test]
    #[should_panic(expected = "never allocated")]
    #[cfg(debug_assertions)]
    fn free_never_allocated_panics_in_debug() {
        let mut s = space();
        s.free(5); // in the RLDRAM region, but nothing allocated yet
    }

    #[test]
    #[should_panic(expected = "double free")]
    #[cfg(debug_assertions)]
    fn double_free_panics_in_debug() {
        let mut s = space();
        let (pfn, _) = s.alloc_by_preference(&[ModuleKind::Rldram3]).unwrap();
        s.free(pfn);
        s.free(pfn);
    }

    #[test]
    fn alloc_bytes_is_bitmap_bounded() {
        let s = FrameSpace::new(regions_from_capacities(&[(ModuleKind::Ddr3, 0, 512 * MB)]));
        let frames = s.total_frames();
        // bits + summary + fixed-size bookkeeping, with slack for Vec
        // capacity rounding: well under one byte per 4 frames.
        assert!((s.alloc_bytes() as u64) < frames / 4 + 4096);
    }

    #[test]
    fn headroom_reports_present_kinds_only() {
        let mut s = space();
        let h = s.headroom();
        // Ddr3 is absent from this machine; the other three kinds appear.
        assert_eq!(h.len(), 3);
        assert!(h.iter().all(|&(k, _)| k != ModuleKind::Ddr3));
        let rl_before = h
            .iter()
            .find(|&&(k, _)| k == ModuleKind::Rldram3)
            .unwrap()
            .1;
        s.alloc_by_preference(&[ModuleKind::Rldram3]).unwrap();
        let rl_after = s
            .headroom()
            .iter()
            .find(|&&(k, _)| k == ModuleKind::Rldram3)
            .unwrap()
            .1;
        assert_eq!(rl_after, rl_before - 1);
    }

    #[test]
    fn kind_of_resolves_regions() {
        let s = space();
        assert_eq!(s.kind_of(0), Some(ModuleKind::Rldram3));
        let hbm_pfn = s.regions()[1].base_pfn;
        assert_eq!(s.kind_of(hbm_pfn), Some(ModuleKind::Hbm));
        assert_eq!(s.kind_of(u64::MAX), None);
    }
}
