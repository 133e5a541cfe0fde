//! Per-process page table.

use crate::radix::RadixMap;
use moca_common::addr::{PhysAddr, VirtAddr};

/// A flat virtual→physical page map (the simulator's stand-in for the
/// multi-level x86 table; the page-walk *cost* is modelled by the TLB-miss
/// penalty in the core).
///
/// Translation is the hottest VM operation — every TLB miss lands here —
/// so the table is a dense [`RadixMap`] over the VPN rather than an ordered
/// map: lookups are two dereferences with no comparisons, and
/// [`PageTable::iter`] remains ascending-by-vpn exactly as with the
/// previous `DetMap`. Entries are 32-bit pfns, so a table addresses at
/// most 2^32 frames (16 TiB of 4 KiB pages).
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    map: RadixMap,
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
        self.map.get(vpn)
    }

    /// Translate a full virtual address, preserving the page offset.
    pub fn translate(&self, va: VirtAddr) -> Option<PhysAddr> {
        self.translate_vpn(va.vpn())
            .map(|pfn| PhysAddr::from_parts(pfn, va.page_offset()))
    }

    /// Install a mapping. Panics on double-mapping a vpn (a bug in the
    /// fault handler).
    pub fn map(&mut self, vpn: u64, pfn: u64) {
        let old = self.map.insert(vpn, pfn);
        assert!(old.is_none(), "vpn {vpn:#x} double-mapped");
        self.mapped += 1;
    }

    /// Remove a mapping, returning the frame it pointed to.
    pub fn unmap(&mut self, vpn: u64) -> Option<u64> {
        let pfn = self.map.remove(vpn);
        self.mapped -= usize::from(pfn.is_some());
        pfn
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.mapped
    }

    /// Iterate over `(vpn, pfn)` pairs in ascending vpn order (used by
    /// placement statistics).
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.map.iter()
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
