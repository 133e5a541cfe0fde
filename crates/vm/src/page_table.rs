//! Per-process page table.

use crate::layout::{BW_HEAP_BASE, DATA_BASE, LAT_HEAP_BASE, POW_HEAP_BASE, STACK_BASE, STACK_TOP};
use crate::radix::RadixMap;
use moca_common::addr::{PhysAddr, VirtAddr, PAGE_SIZE};

/// Layout regions a table keys separately: code, data, the three heap
/// partitions and the stack.
const REGIONS: usize = 6;

/// First vpn of each region but the stack, ascending. The code region
/// starts at vpn 0, so every vpn below the stack has a region.
const ORIGINS: [u64; REGIONS - 1] = [
    0,
    DATA_BASE / PAGE_SIZE,
    POW_HEAP_BASE / PAGE_SIZE,
    BW_HEAP_BASE / PAGE_SIZE,
    LAT_HEAP_BASE / PAGE_SIZE,
];

/// First stack vpn, and the vpn just above the stack's top page.
const STACK_FIRST: u64 = STACK_BASE / PAGE_SIZE;
const STACK_END: u64 = STACK_TOP / PAGE_SIZE;

/// Region of `vpn` and its key there: the offset above the region's
/// origin, or for the stack (which grows down) the offset below its top
/// page. A vpn above the stack's top gets a key far beyond any chunk.
#[inline]
fn locate(vpn: u64) -> (usize, u64) {
    if vpn >= STACK_FIRST {
        return (REGIONS - 1, (STACK_END - 1).wrapping_sub(vpn));
    }
    let region = ORIGINS[1..].iter().map(|&o| usize::from(vpn >= o)).sum();
    (region, vpn - ORIGINS[region])
}

/// A flat virtual→physical page map (the simulator's stand-in for the
/// multi-level x86 table; the page-walk *cost* is modelled by the TLB-miss
/// penalty in the core).
///
/// Translation is the hottest VM operation — every TLB miss lands here —
/// so the table is one [`RadixMap`] per layout region rather than an
/// ordered map: a lookup selects the region with a few compares, indexes
/// the region's chunk, then binary-searches its affine runs (at most seven
/// probes) or reads its dense array. Keying each region by its offset from
/// its own base keeps every radix top level a few slots long however far
/// apart the regions sit, and [`PageTable::iter`] still ascends by vpn.
/// Entries are 32-bit pfns, so a table addresses at most 2^32 frames
/// (16 TiB of 4 KiB pages).
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    regions: [RadixMap; REGIONS],
    mapped: usize,
}

impl PageTable {
    /// Empty table.
    pub fn new() -> PageTable {
        PageTable::default()
    }

    /// Translate a virtual page number. `None` ⇒ page fault.
    #[inline]
    pub fn translate_vpn(&self, vpn: u64) -> Option<u64> {
        let (region, key) = locate(vpn);
        self.regions[region].get(key)
    }

    /// Translate a full virtual address, preserving the page offset.
    pub fn translate(&self, va: VirtAddr) -> Option<PhysAddr> {
        self.translate_vpn(va.vpn())
            .map(|pfn| PhysAddr::from_parts(pfn, va.page_offset()))
    }

    /// Install a mapping. Panics on double-mapping a vpn (a bug in the
    /// fault handler) and on a vpn above the stack's top, which no layout
    /// region holds.
    pub fn map(&mut self, vpn: u64, pfn: u64) {
        assert!(vpn < STACK_END, "vpn {vpn:#x} is above the stack top");
        let (region, key) = locate(vpn);
        let old = self.regions[region].insert(key, pfn);
        assert!(old.is_none(), "vpn {vpn:#x} double-mapped");
        self.mapped += 1;
    }

    /// Remove a mapping, returning the frame it pointed to.
    pub fn unmap(&mut self, vpn: u64) -> Option<u64> {
        let (region, key) = locate(vpn);
        let pfn = self.regions[region].remove(key);
        self.mapped -= usize::from(pfn.is_some());
        pfn
    }

    /// The vpn mapped to frame `pfn`, if any: the reverse of
    /// [`PageTable::translate_vpn`], by a scan of every region's runs
    /// ([`RadixMap::key_of`]), so O(runs) rather than a lookup.
    pub fn vpn_of(&self, pfn: u64) -> Option<u64> {
        let (below, stack) = self.regions.split_at(REGIONS - 1);
        below
            .iter()
            .zip(ORIGINS)
            .find_map(|(map, origin)| map.key_of(pfn).map(|key| origin + key))
            .or_else(|| stack[0].key_of(pfn).map(|key| STACK_END - 1 - key))
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.mapped
    }

    /// Iterate over `(vpn, pfn)` pairs in ascending vpn order (used by
    /// placement statistics).
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let (below, stack) = self.regions.split_at(REGIONS - 1);
        below
            .iter()
            .zip(ORIGINS)
            .flat_map(|(map, origin)| map.iter().map(move |(key, pfn)| (origin + key, pfn)))
            .chain(
                stack[0]
                    .iter()
                    .rev()
                    .map(|(key, pfn)| (STACK_END - 1 - key, pfn)),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moca_common::addr::PAGE_SIZE;

    #[test]
    fn translate_preserves_offset() {
        let mut pt = PageTable::new();
        pt.map(0x60000, 0x42);
        let va = VirtAddr(0x60000 * PAGE_SIZE + 0x123);
        assert_eq!(pt.translate(va), Some(PhysAddr(0x42 * PAGE_SIZE + 0x123)));
    }

    #[test]
    fn unmapped_is_fault() {
        let pt = PageTable::new();
        assert_eq!(pt.translate(VirtAddr(0x1000)), None);
    }

    #[test]
    #[should_panic(expected = "double-mapped")]
    fn double_map_panics() {
        let mut pt = PageTable::new();
        pt.map(1, 2);
        pt.map(1, 3);
    }

    #[test]
    fn unmap_then_remap() {
        let mut pt = PageTable::new();
        pt.map(1, 2);
        assert_eq!(pt.unmap(1), Some(2));
        pt.map(1, 3);
        assert_eq!(pt.translate_vpn(1), Some(3));
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn pfn_zero_is_a_valid_mapping() {
        let mut pt = PageTable::new();
        pt.map(0x7000, 0);
        assert_eq!(pt.translate_vpn(0x7000), Some(0));
        assert_eq!(pt.unmap(0x7000), Some(0));
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    #[should_panic(expected = "above the stack top")]
    fn mapping_above_the_stack_top_panics() {
        PageTable::new().map(STACK_END, 1);
    }

    #[test]
    fn vpn_of_inverts_every_region() {
        let mut pt = PageTable::new();
        let vpns = [0x400, 0x10000, POW_HEAP_BASE / PAGE_SIZE + 3, STACK_END - 1];
        for (pfn, &vpn) in vpns.iter().enumerate() {
            pt.map(vpn, 10 * pfn as u64);
        }
        for (pfn, &vpn) in vpns.iter().enumerate() {
            assert_eq!(pt.vpn_of(10 * pfn as u64), Some(vpn));
        }
        assert_eq!(pt.vpn_of(5), None);
        pt.unmap(STACK_END - 1);
        assert_eq!(pt.vpn_of(30), None);
    }

    #[test]
    fn iter_ascends_across_chunks() {
        let mut pt = PageTable::new();
        // Deliberately map out of order, across distinct chunks.
        pt.map(0x60000, 7);
        pt.map(0x400, 1);
        pt.map(0x401, 2);
        pt.map(0x10000, 3);
        let got: Vec<(u64, u64)> = pt.iter().collect();
        assert_eq!(
            got,
            vec![(0x400, 1), (0x401, 2), (0x10000, 3), (0x60000, 7)]
        );
        assert_eq!(pt.mapped_pages(), 4);
    }
}
