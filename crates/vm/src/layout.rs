//! Per-process virtual address-space layout with typed heap partitions
//! (Fig. 6 of the paper).
//!
//! ```text
//!   0x0000_0040_0000  code (text)
//!   0x0000_1000_0000  data / bss
//!   0x0100_0000_0000  Pow-MO heap   (non-memory-intensive objects)
//!   0x0200_0000_0000  BW-MO heap    (bandwidth-sensitive objects)
//!   0x0300_0000_0000  Lat-MO heap   (latency-sensitive objects)
//!   0x0400_0000_0000  stack (256 MiB, grows down from 0x0400_0FFF_F000)
//! ```
//!
//! Because each heap class owns a disjoint virtual range, the OS can derive
//! the desired module type from the faulting virtual page number — exactly
//! the mechanism of §III-C ("based on the memory object's virtual page
//! number, the OS identifies the type of the memory object").
//!
//! Each heap partition spans 1 TiB, far beyond any simulated machine's
//! physical memory, so no workload at any capacity scale overflows one.
//! Page tables key each region by its offset from its own base (the stack
//! by its offset below the top), so the width of the gaps costs them
//! nothing. No structure stores a vpn in fewer than 64 bits: a frame's
//! owner is found by scanning the page tables, not stored.

use moca_common::addr::{VirtAddr, PAGE_SIZE};
use moca_common::{ObjectClass, Segment};
use serde::{Deserialize, Serialize};

/// Base of the code segment.
pub const CODE_BASE: u64 = 0x0040_0000;
/// Base of the data/bss segment.
pub const DATA_BASE: u64 = 0x1000_0000;
/// Stride between the heap partition bases (1 TiB).
const PARTITION_STRIDE: u64 = 1 << 40;
/// Base of the power (non-intensive) heap partition.
pub const POW_HEAP_BASE: u64 = PARTITION_STRIDE;
/// Base of the bandwidth heap partition.
pub const BW_HEAP_BASE: u64 = 2 * PARTITION_STRIDE;
/// Base of the latency heap partition.
pub const LAT_HEAP_BASE: u64 = 3 * PARTITION_STRIDE;
/// Lowest address of the stack region.
pub const STACK_BASE: u64 = 4 * PARTITION_STRIDE;
/// Stack top (stack grows down from here): 256 MiB above the base, less
/// one page.
pub const STACK_TOP: u64 = STACK_BASE + 0x0FFF_F000;

/// Exclusive end of a heap partition's virtual range: the next partition's
/// base, or the stack for the topmost (latency) partition.
pub fn partition_end(class: ObjectClass) -> u64 {
    match class {
        ObjectClass::NonIntensive => BW_HEAP_BASE,
        ObjectClass::BandwidthSensitive => LAT_HEAP_BASE,
        ObjectClass::LatencySensitive => STACK_BASE,
    }
}

/// Statically validate the address-space layout: every region page-aligned,
/// regions strictly ordered and non-overlapping, heap partitions tiling the
/// heap segment contiguously so `heap_class_of_va` has no unclassifiable
/// holes. Errors name the violated constraint. The layout is compile-time
/// constant, so this is primarily exercised offline by `moca-lint
/// check-model` and at system construction as a guard against future edits.
pub fn validate_layout() -> Result<(), String> {
    let regions: [(&str, u64, u64); 6] = [
        ("code", CODE_BASE, DATA_BASE),
        ("data", DATA_BASE, POW_HEAP_BASE),
        ("pow-heap", POW_HEAP_BASE, BW_HEAP_BASE),
        ("bw-heap", BW_HEAP_BASE, LAT_HEAP_BASE),
        ("lat-heap", LAT_HEAP_BASE, STACK_BASE),
        ("stack", STACK_BASE, STACK_TOP),
    ];
    for (name, base, end) in regions {
        if base % PAGE_SIZE != 0 {
            return Err(format!("{name} base {base:#x} is not page-aligned"));
        }
        if end <= base {
            return Err(format!("{name} region is empty ({base:#x}..{end:#x})"));
        }
    }
    for w in regions.windows(2) {
        let (a_name, _, a_end) = w[0];
        let (b_name, b_base, _) = w[1];
        if a_end > b_base {
            return Err(format!(
                "{a_name} (ends {a_end:#x}) overlaps {b_name} (starts {b_base:#x})"
            ));
        }
    }
    // Every partition's bump-allocator limit must stay inside its range.
    for class in ObjectClass::ALL {
        if partition_end(class) <= partition_base(class) {
            return Err(format!("heap partition for {class} is empty"));
        }
    }
    if !STACK_TOP.is_multiple_of(PAGE_SIZE) {
        return Err(format!("stack top {STACK_TOP:#x} is not page-aligned"));
    }
    Ok(())
}

/// Base virtual address of a heap partition.
pub fn partition_base(class: ObjectClass) -> u64 {
    match class {
        ObjectClass::LatencySensitive => LAT_HEAP_BASE,
        ObjectClass::BandwidthSensitive => BW_HEAP_BASE,
        ObjectClass::NonIntensive => POW_HEAP_BASE,
    }
}

/// Which segment a virtual address falls in.
pub fn segment_of_va(va: VirtAddr) -> Segment {
    match va.0 {
        a if a >= STACK_BASE => Segment::Stack,
        a if a >= POW_HEAP_BASE => Segment::Heap,
        a if a >= DATA_BASE => Segment::Data,
        _ => Segment::Code,
    }
}

/// Heap class of a virtual address, if it is a heap address.
pub fn heap_class_of_va(va: VirtAddr) -> Option<ObjectClass> {
    match va.0 {
        a if (LAT_HEAP_BASE..STACK_BASE).contains(&a) => Some(ObjectClass::LatencySensitive),
        a if (BW_HEAP_BASE..LAT_HEAP_BASE).contains(&a) => Some(ObjectClass::BandwidthSensitive),
        a if (POW_HEAP_BASE..BW_HEAP_BASE).contains(&a) => Some(ObjectClass::NonIntensive),
        _ => None,
    }
}

/// What a faulting page is used for — the information the placement policy
/// receives from the OS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PageIntent {
    /// A heap page from the partition of the given class.
    Heap(ObjectClass),
    /// A stack page.
    Stack,
    /// A code page.
    Code,
    /// A global-data page.
    Data,
}

impl PageIntent {
    /// Derive the intent of a virtual address from the layout.
    pub fn of_va(va: VirtAddr) -> PageIntent {
        match segment_of_va(va) {
            Segment::Stack => PageIntent::Stack,
            Segment::Code => PageIntent::Code,
            Segment::Data => PageIntent::Data,
            Segment::Heap => PageIntent::Heap(
                heap_class_of_va(va).expect("heap segment implies a heap partition"),
            ),
        }
    }
}

/// Bump allocator over the typed virtual heap partitions plus the stack —
/// MOCA's modified `malloc` (§IV-D) at the virtual level.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeapLayout {
    cursors: [u64; 3],
    stack_cursor: u64,
}

impl Default for HeapLayout {
    fn default() -> Self {
        Self::new()
    }
}

impl HeapLayout {
    /// Fresh layout with empty partitions.
    pub fn new() -> HeapLayout {
        HeapLayout {
            cursors: [LAT_HEAP_BASE, BW_HEAP_BASE, POW_HEAP_BASE],
            stack_cursor: STACK_TOP,
        }
    }

    fn cursor_mut(&mut self, class: ObjectClass) -> &mut u64 {
        match class {
            ObjectClass::LatencySensitive => &mut self.cursors[0],
            ObjectClass::BandwidthSensitive => &mut self.cursors[1],
            ObjectClass::NonIntensive => &mut self.cursors[2],
        }
    }

    /// Allocate `size` bytes in the partition for `class` (64 B aligned, so
    /// objects never share cache lines — matching how the profiler
    /// attributes misses to objects). Panics if a partition overflows its
    /// 1 TiB virtual range; a footprint that large would first exhaust the
    /// physical frames of any configured machine.
    pub fn alloc_heap(&mut self, class: ObjectClass, size: u64) -> VirtAddr {
        let cur = self.cursor_mut(class);
        let va = VirtAddr(*cur);
        *cur += size.div_ceil(64) * 64;
        // The limit is the next region's base, so the latency partition can
        // never silently grow into the stack.
        let limit = partition_end(class);
        assert!(*cur <= limit, "heap partition overflow for {class}");
        va
    }

    /// Reserve `size` bytes of stack (growing down). Returns the lowest
    /// address of the reservation.
    pub fn grow_stack(&mut self, size: u64) -> VirtAddr {
        let size = size.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        self.stack_cursor -= size;
        assert!(self.stack_cursor >= STACK_BASE, "stack overflow");
        VirtAddr(self.stack_cursor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_constants_validate() {
        validate_layout().expect("the committed layout must be valid");
    }

    #[test]
    fn segments_classified_by_range() {
        assert_eq!(segment_of_va(VirtAddr(CODE_BASE)), Segment::Code);
        assert_eq!(segment_of_va(VirtAddr(DATA_BASE)), Segment::Data);
        assert_eq!(
            segment_of_va(VirtAddr(POW_HEAP_BASE - 64)),
            Segment::Data,
            "the whole data segment, up to the first heap partition"
        );
        assert_eq!(PageIntent::of_va(VirtAddr(DATA_BASE)), PageIntent::Data);
        assert_eq!(segment_of_va(VirtAddr(POW_HEAP_BASE)), Segment::Heap);
        assert_eq!(segment_of_va(VirtAddr(LAT_HEAP_BASE + 4096)), Segment::Heap);
        assert_eq!(segment_of_va(VirtAddr(STACK_TOP - 8)), Segment::Stack);
    }

    #[test]
    fn heap_class_recoverable_from_va() {
        let mut h = HeapLayout::new();
        for class in ObjectClass::ALL {
            let va = h.alloc_heap(class, 1000);
            assert_eq!(heap_class_of_va(va), Some(class));
            assert_eq!(PageIntent::of_va(va), PageIntent::Heap(class));
        }
    }

    #[test]
    fn heap_allocations_do_not_overlap() {
        let mut h = HeapLayout::new();
        let a = h.alloc_heap(ObjectClass::NonIntensive, 100);
        let b = h.alloc_heap(ObjectClass::NonIntensive, 100);
        assert!(b.0 >= a.0 + 100);
        assert_eq!(a.0 % 64, 0);
        assert_eq!(b.0 % 64, 0);
    }

    #[test]
    fn stack_grows_down_page_aligned() {
        let mut h = HeapLayout::new();
        let a = h.grow_stack(100);
        let b = h.grow_stack(100);
        assert_eq!(a.0 % PAGE_SIZE, 0);
        assert!(b.0 < a.0);
        assert_eq!(segment_of_va(a), Segment::Stack);
    }

    #[test]
    fn non_heap_has_no_class() {
        assert_eq!(heap_class_of_va(VirtAddr(CODE_BASE)), None);
        assert_eq!(heap_class_of_va(VirtAddr(STACK_TOP - 64)), None);
    }
}
