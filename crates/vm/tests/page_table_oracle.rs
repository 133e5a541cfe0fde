//! The region-keyed page table against a `BTreeMap<u64, u64>` reference.
//!
//! `PageTable` keys each layout region (code, data, the three heap
//! partitions, the stack) by its offset from the region's own base, the
//! stack by its offset below the top. Seeded map, unmap and remap
//! operations land on every region's first and last pages, next to them
//! across radix chunk boundaries, and anywhere inside, including the far
//! ends of the 1 TiB heap partitions. After every operation the table must
//! translate the touched vpn as the reference does, and at the end it must
//! hold the same pages and iterate them in the same ascending order.
//!
//! Random pfns leave every page its own run. A second test maps pages in
//! `System::new`'s prefault order instead: consecutive vpns of code, stack,
//! data and every heap partition onto consecutive frames in 32-page
//! round-robin batches, so each region holds long affine runs (the stack's
//! keys descend while its vpns ascend), and then remaps and unmaps single
//! pages inside them as page migration does.

use moca_common::rng::DetRng;
use moca_common::PAGE_SIZE;
use moca_vm::layout::{
    BW_HEAP_BASE, CODE_BASE, DATA_BASE, LAT_HEAP_BASE, POW_HEAP_BASE, STACK_BASE, STACK_TOP,
};
use moca_vm::PageTable;
use std::collections::BTreeMap;

/// Inclusive vpn range of each region, ascending. The code region also
/// holds every vpn below the code base.
fn regions() -> [(u64, u64); 6] {
    let vpn = |addr: u64| addr / PAGE_SIZE;
    [
        (0, vpn(DATA_BASE) - 1),
        (vpn(DATA_BASE), vpn(POW_HEAP_BASE) - 1),
        (vpn(POW_HEAP_BASE), vpn(BW_HEAP_BASE) - 1),
        (vpn(BW_HEAP_BASE), vpn(LAT_HEAP_BASE) - 1),
        (vpn(LAT_HEAP_BASE), vpn(STACK_BASE) - 1),
        (vpn(STACK_BASE), vpn(STACK_TOP) - 1),
    ]
}

/// A vpn of a random region: its first or last page, a page within a few
/// chunks of either end, the code base, or anywhere in it.
fn vpn(rng: &mut DetRng) -> u64 {
    let (first, last) = regions()[rng.below(6) as usize];
    match rng.below(6) {
        0 => first,
        1 => last,
        2 => first + rng.below(1500),
        3 => last - rng.below(1500),
        4 => CODE_BASE / PAGE_SIZE + rng.below(8),
        _ => first + rng.below(last - first + 1),
    }
}

fn fuzz(seed: u64, ops: usize) {
    let mut rng = DetRng::new(seed, 0);
    let mut pt = PageTable::new();
    let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
    for op in 0..ops {
        let vpn = vpn(&mut rng);
        let pfn = rng.below(u64::from(u32::MAX) - 1);
        match rng.below(4) {
            // Map, or remap an already mapped page.
            0 | 1 => {
                if reference.contains_key(&vpn) {
                    assert_eq!(pt.unmap(vpn), reference.remove(&vpn), "op {op}");
                }
                pt.map(vpn, pfn);
                reference.insert(vpn, pfn);
            }
            2 => assert_eq!(
                pt.unmap(vpn),
                reference.remove(&vpn),
                "op {op}: unmap {vpn:#x}"
            ),
            _ => {}
        }
        assert_eq!(
            pt.translate_vpn(vpn),
            reference.get(&vpn).copied(),
            "op {op}: vpn {vpn:#x}"
        );
        assert_eq!(pt.mapped_pages(), reference.len(), "op {op}");
    }
    let got: Vec<(u64, u64)> = pt.iter().collect();
    let want: Vec<(u64, u64)> = reference.iter().map(|(&v, &p)| (v, p)).collect();
    assert_eq!(got, want, "iteration must ascend by vpn over every region");
    for (vpn, pfn) in want {
        assert_eq!(pt.translate_vpn(vpn), Some(pfn));
    }
}

#[test]
fn region_keyed_table_matches_btreemap() {
    for seed in 0..4 {
        fuzz(seed, 5_000);
    }
}

#[test]
fn every_region_end_round_trips_in_vpn_order() {
    let mut pt = PageTable::new();
    let mut ends = Vec::new();
    for (first, last) in regions() {
        ends.extend([
            first,
            first + 511,
            first + 512,
            last - 512,
            last - 511,
            last,
        ]);
    }
    // Map back to front so insertion order cannot stand in for vpn order.
    for (i, &vpn) in ends.iter().enumerate().rev() {
        pt.map(vpn, i as u64);
    }
    let got: Vec<(u64, u64)> = pt.iter().collect();
    let want: Vec<(u64, u64)> = ends
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as u64))
        .collect();
    assert_eq!(got, want);
    // Nothing above the stack's top page translates.
    assert_eq!(pt.translate_vpn(STACK_TOP / PAGE_SIZE), None);
    assert_eq!(pt.unmap(u64::MAX), None);
    for &vpn in &ends {
        assert!(pt.unmap(vpn).is_some());
    }
    assert_eq!(pt.mapped_pages(), 0);
    assert_eq!(pt.iter().count(), 0);
}

#[test]
fn prefault_order_traffic_matches_btreemap_in_every_region() {
    let mut rng = DetRng::new(0x009F_A017, 0);
    let mut pt = PageTable::new();
    let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
    // One segment per region, each an ascending vpn range like an app's
    // code, stack, data and objects; the stack's is its top 700 pages.
    let mut segments: Vec<std::ops::Range<u64>> = regions()
        .iter()
        .enumerate()
        .map(|(i, &(first, last))| match i {
            0 => CODE_BASE / PAGE_SIZE..CODE_BASE / PAGE_SIZE + 1500,
            5 => last + 1 - 700..last + 1,
            _ => first + 3..first + 3 + 2000,
        })
        .collect();
    // Round-robin 32-page batches onto consecutive frames, with the frames
    // of three other apps' batches skipped between turns.
    let mut pfn = 0;
    while segments.iter().any(|s| !s.is_empty()) {
        for seg in &mut segments {
            for vpn in seg.by_ref().take(32) {
                pt.map(vpn, pfn);
                reference.insert(vpn, pfn);
                assert_eq!(pt.translate_vpn(vpn), Some(pfn));
                pfn += 1;
            }
            pfn += 3 * 32;
        }
    }
    let mapped: Vec<u64> = reference.keys().copied().collect();
    for op in 0..4000 {
        let vpn = mapped[rng.below(mapped.len() as u64) as usize];
        match rng.below(3) {
            // A swap or move: the page gets another frame.
            0 => {
                let old = pt.unmap(vpn);
                assert_eq!(old, reference.remove(&vpn), "op {op}");
                let pfn = old.map_or(rng.below(1 << 30), |p| p ^ (1 + rng.below(4)));
                pt.map(vpn, pfn);
                reference.insert(vpn, pfn);
            }
            1 => assert_eq!(pt.unmap(vpn), reference.remove(&vpn), "op {op}"),
            // Remap onto the frame after the page below, re-joining a run.
            _ => {
                if let (None, Some(&below)) = (reference.get(&vpn), reference.get(&(vpn - 1))) {
                    pt.map(vpn, below + 1);
                    reference.insert(vpn, below + 1);
                }
            }
        }
        for v in [vpn - 1, vpn, vpn + 1] {
            assert_eq!(
                pt.translate_vpn(v),
                reference.get(&v).copied(),
                "op {op}: vpn {v:#x}"
            );
        }
        assert_eq!(pt.mapped_pages(), reference.len(), "op {op}");
    }
    let got: Vec<(u64, u64)> = pt.iter().collect();
    let want: Vec<(u64, u64)> = reference.iter().map(|(&v, &p)| (v, p)).collect();
    assert_eq!(got, want, "iteration must ascend by vpn over every region");
}
