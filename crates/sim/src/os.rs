//! The simulated OS: per-application page tables, per-core TLBs, and the
//! page-fault handler that consults the pluggable placement policy (§IV-D).

use crate::metrics::PlacementReport;
use moca_common::addr::{PhysAddr, VirtAddr};
use moca_common::bitset::TwoLevelBitmap;
use moca_common::units::narrow_u32;
use moca_common::{AppId, Cycle, ObjectClass};
use moca_telemetry::{Event, EventIntent, Telemetry};
use moca_vm::layout::PageIntent;
use moca_vm::{FrameSpace, PagePlacementPolicy, PageTable, Tlb};

/// Telemetry's mirror of [`PageIntent`] (the telemetry crate sits below the
/// VM layer and cannot name it directly).
fn event_intent(intent: PageIntent) -> EventIntent {
    match intent {
        PageIntent::Heap(ObjectClass::LatencySensitive) => EventIntent::LatHeap,
        PageIntent::Heap(ObjectClass::BandwidthSensitive) => EventIntent::BwHeap,
        PageIntent::Heap(ObjectClass::NonIntensive) => EventIntent::PowHeap,
        PageIntent::Stack => EventIntent::Stack,
        PageIntent::Code => EventIntent::Code,
        PageIntent::Data => EventIntent::Data,
    }
}

/// Result of translating one access.
#[derive(Debug, Clone, Copy)]
pub struct Translation {
    /// The physical address.
    pub pa: PhysAddr,
    /// Extra front-side latency (page walk, fault handling).
    pub extra: Cycle,
}

/// The OS state: frame space, policy, page tables (one per app), TLBs (one
/// per core). The page tables are the only per-page map: a frame's owner
/// is derived from them on demand ([`Os::owner_of`]), and whether a frame
/// is in use is the frame space's own bit.
pub struct Os {
    frames: FrameSpace,
    policy: Box<dyn PagePlacementPolicy>,
    page_tables: Vec<PageTable>,
    tlbs: Vec<Tlb>,
    placement: PlacementReport,
    tlb_miss_penalty: Cycle,
    page_fault_penalty: Cycle,
}

impl Os {
    /// Build the OS for `apps` applications on `cores` cores (one app per
    /// core in this simulator).
    pub fn new(
        frames: FrameSpace,
        policy: Box<dyn PagePlacementPolicy>,
        apps: usize,
        tlb_entries: usize,
        tlb_miss_penalty: Cycle,
        page_fault_penalty: Cycle,
    ) -> Os {
        Os {
            frames,
            placement: PlacementReport::new(apps),
            policy,
            page_tables: (0..apps).map(|_| PageTable::new()).collect(),
            tlbs: (0..apps).map(|_| Tlb::new(tlb_entries)).collect(),
            tlb_miss_penalty,
            page_fault_penalty,
        }
    }

    /// Translate a virtual address for the app on `core_idx`, faulting in
    /// the page on first touch. Faults and placements along this
    /// translation are emitted to `tel` as events stamped `now`.
    pub fn translate(
        &mut self,
        core_idx: usize,
        va: VirtAddr,
        now: Cycle,
        tel: &mut Telemetry,
    ) -> Translation {
        let vpn = va.vpn();
        if let Some(pfn) = self.tlbs[core_idx].lookup(vpn) {
            return Translation {
                pa: PhysAddr::from_parts(pfn, va.page_offset()),
                extra: 0,
            };
        }
        let mut extra = self.tlb_miss_penalty;
        let pfn = match self.page_tables[core_idx].translate_vpn(vpn) {
            Some(pfn) => pfn,
            None => {
                extra += self.page_fault_penalty;
                self.fault_impl(core_idx, va, now, tel)
            }
        };
        self.tlbs[core_idx].insert(vpn, pfn);
        Translation {
            pa: PhysAddr::from_parts(pfn, va.page_offset()),
            extra,
        }
    }

    /// Allocate a page at object instantiation (§IV-E: the OS performs
    /// allocations for objects at their instantiation, so pages exist
    /// before first use). No-op if the page is already mapped. Placements
    /// are emitted to `tel` stamped cycle 0.
    pub fn prefault(&mut self, core_idx: usize, va: VirtAddr, tel: &mut Telemetry) {
        if self.page_tables[core_idx].translate_vpn(va.vpn()).is_none() {
            self.fault_impl(core_idx, va, 0, tel);
        }
    }

    /// Page fault: ask the policy for a frame and map it (used both at
    /// instantiation time and for any page touched lazily, e.g. stack
    /// growth).
    fn fault_impl(
        &mut self,
        core_idx: usize,
        va: VirtAddr,
        now: Cycle,
        tel: &mut Telemetry,
    ) -> u64 {
        let app = AppId(narrow_u32(core_idx as u64));
        let intent = PageIntent::of_va(va);
        tel.record(
            now,
            Event::PageFault {
                app: app.0,
                vpn: va.vpn(),
                intent: event_intent(intent),
            },
        );
        let pfn = self
            .policy
            .place(app, intent, &mut self.frames)
            .unwrap_or_else(|| {
                // moca-lint: allow(panic-in-hot): out of physical memory is a configuration error; aborting with the placement context is the only useful outcome
                panic!(
                    "out of physical memory: app {} faulting {va:#x} ({intent:?}) under policy {} \
                     ({} total frames)",
                    core_idx,
                    self.policy.name(),
                    self.frames.total_frames()
                )
            });
        let kind = self
            .frames
            .kind_of(pfn)
            // moca-lint: allow(panic-in-hot): the policy just allocated `pfn` from a region; a miss here is allocator corruption
            .expect("allocated frame belongs to a region");
        self.placement.record(app, intent, kind);
        tel.record(
            now,
            Event::Placement {
                app: app.0,
                vpn: va.vpn(),
                pfn,
                kind,
                intent: event_intent(intent),
            },
        );
        if let Some(preferred) = self.policy.preferred(app, intent) {
            if preferred != kind {
                tel.record(
                    now,
                    Event::FallbackAllocation {
                        app: app.0,
                        vpn: va.vpn(),
                        got: kind,
                        preferred,
                    },
                );
            }
        }
        self.page_tables[core_idx].map(va.vpn(), pfn);
        pfn
    }

    /// Owner `(app, vpn)` of a physical frame, if mapped: a reverse scan
    /// of each page table's runs ([`PageTable::vpn_of`]), O(runs), about
    /// 23k at capacity scale 1. Only page migration (once per page it
    /// moves, twice per frame swap) and tests ask, so the OS keeps no
    /// frame-keyed map for it.
    pub fn owner_of(&self, pfn: u64) -> Option<(usize, u64)> {
        self.page_tables
            .iter()
            .enumerate()
            .find_map(|(app, pt)| pt.vpn_of(pfn).map(|vpn| (app, vpn)))
    }

    /// Swap the physical frames behind two mapped pages (the OS page
    /// migration primitive: promote a hot page into a fast module by
    /// trading frames with a cold page there). Both pages' TLB entries are
    /// shot down on every core.
    pub fn swap_frames(&mut self, a_pfn: u64, b_pfn: u64) {
        assert_ne!(a_pfn, b_pfn, "cannot swap a frame with itself");
        let (Some((app_a, vpn_a)), Some((app_b, vpn_b))) =
            (self.owner_of(a_pfn), self.owner_of(b_pfn))
        else {
            // moca-lint: allow(panic-in-hot): the migrator only swaps frames it just found mapped; an unowned one is bookkeeping corruption
            panic!("swap of an unmapped frame: {a_pfn:#x} <-> {b_pfn:#x}");
        };
        self.page_tables[app_a].unmap(vpn_a);
        self.page_tables[app_b].unmap(vpn_b);
        self.page_tables[app_a].map(vpn_a, b_pfn);
        self.page_tables[app_b].map(vpn_b, a_pfn);
        // TLB shootdown (conservatively on all cores — vpns may collide
        // across address spaces).
        for tlb in &mut self.tlbs {
            tlb.flush();
        }
    }

    /// Move a mapped page onto a currently free frame of `kind`; returns
    /// the new frame, or `None` when that module has no free frame.
    pub fn move_page_to(&mut self, pfn: u64, kind: moca_common::ModuleKind) -> Option<u64> {
        // Find the region of the requested kind with space, before the
        // owner scan: a full module is the common answer.
        let region = (0..self.frames.regions().len()).find(|&i| {
            self.frames.regions()[i].kind == kind && self.frames.free_in_region(i) > 0
        })?;
        let (app, vpn) = self.owner_of(pfn)?;
        let new_pfn = self.frames.alloc_in_region(region)?;
        self.page_tables[app].unmap(vpn);
        self.page_tables[app].map(vpn, new_pfn);
        self.frames.free(pfn);
        for tlb in &mut self.tlbs {
            tlb.flush();
        }
        Some(new_pfn)
    }

    /// Full validation of the per-page bookkeeping: every mapping's frame
    /// is allocated, no frame backs two pages, and the mapped pages are
    /// exactly as many as the allocated frames (and as the page tables'
    /// own counts), so each allocated frame has exactly one owner.
    /// O(mapped pages) with a one-bit-per-frame scratch bitmap; a
    /// debug/test hook that returns the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen = TwoLevelBitmap::new(self.frames.total_frames());
        let mut mapped = 0u64;
        for (app, pt) in self.page_tables.iter().enumerate() {
            for (vpn, pfn) in pt.iter() {
                mapped += 1;
                // An allocated frame lies below `total_frames`.
                let fault = if !self.frames.is_allocated(pfn) {
                    "free"
                } else if !seen.acquire(pfn) {
                    "mapped twice"
                } else {
                    continue;
                };
                // moca-lint: allow(hot-alloc): debug-only conservation check; allocates only to report a violation
                return Err(format!(
                    "app {app} maps vpn {vpn:#x} to frame {pfn:#x}, which is {fault}"
                ));
            }
        }
        let counted: usize = self.page_tables.iter().map(PageTable::mapped_pages).sum();
        let allocated: u64 = (0..self.frames.regions().len())
            .map(|i| self.frames.regions()[i].frames - self.frames.free_in_region(i))
            .sum();
        if mapped != allocated || counted as u64 != mapped {
            // moca-lint: allow(hot-alloc): debug-only conservation check; allocates only to report a violation
            return Err(format!(
                "{mapped} pages mapped ({counted} counted by the page tables), \
                 {allocated} frames allocated"
            ));
        }
        Ok(())
    }

    /// Page table of the app on `core_idx`.
    pub fn page_table(&self, core_idx: usize) -> &PageTable {
        &self.page_tables[core_idx]
    }

    /// Placement statistics.
    pub fn placement(&self) -> &PlacementReport {
        &self.placement
    }

    /// Take the placement report at end of run.
    pub fn take_placement(&mut self) -> PlacementReport {
        std::mem::replace(&mut self.placement, PlacementReport::new(0))
    }

    /// Policy name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Frame space (tests / reports).
    pub fn frames(&self) -> &FrameSpace {
        &self.frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moca_common::{ModuleKind, ObjectClass};
    use moca_vm::frames::regions_from_capacities;
    use moca_vm::layout::{partition_base, HeapLayout};
    use moca_vm::policy::HomogeneousPolicy;

    fn os() -> Os {
        let frames = FrameSpace::new(regions_from_capacities(&[(
            ModuleKind::Ddr3,
            0,
            1024 * 4096,
        )]));
        Os::new(frames, Box::new(HomogeneousPolicy), 2, 4, 36, 120)
    }

    #[test]
    fn first_touch_faults_then_hits() {
        let mut os = os();
        let mut tel = Telemetry::disabled();
        let va = VirtAddr(partition_base(ObjectClass::NonIntensive) + 0x123);
        let t1 = os.translate(0, va, 0, &mut tel);
        assert_eq!(t1.extra, 156, "walk + fault");
        assert_eq!(t1.pa.0 & 0xfff, 0x123);
        let t2 = os.translate(0, va, 0, &mut tel);
        assert_eq!(t2.extra, 0, "TLB hit");
        assert_eq!(t2.pa, t1.pa);
    }

    #[test]
    fn apps_have_separate_address_spaces() {
        let mut os = os();
        let mut tel = Telemetry::disabled();
        let va = VirtAddr(partition_base(ObjectClass::NonIntensive));
        let a = os.translate(0, va, 0, &mut tel);
        let b = os.translate(1, va, 0, &mut tel);
        assert_ne!(a.pa, b.pa, "same VA in different apps → different frames");
    }

    #[test]
    fn tlb_miss_without_fault_costs_walk_only() {
        let mut os = os();
        let mut tel = Telemetry::disabled();
        // Touch 5 pages with a 4-entry TLB, then revisit the first.
        let mut h = HeapLayout::new();
        let base = h.alloc_heap(ObjectClass::NonIntensive, 5 * 4096);
        for i in 0..5u64 {
            os.translate(0, base.offset(i * 4096), 0, &mut tel);
        }
        let t = os.translate(0, base, 0, &mut tel);
        assert_eq!(t.extra, 36, "page mapped but TLB-evicted");
    }

    #[test]
    fn placement_recorded_per_intent() {
        let mut os = os();
        let mut tel = Telemetry::disabled();
        os.translate(
            0,
            VirtAddr(partition_base(ObjectClass::LatencySensitive)),
            0,
            &mut tel,
        );
        os.translate(
            0,
            VirtAddr(partition_base(ObjectClass::BandwidthSensitive)),
            0,
            &mut tel,
        );
        let p = os.placement();
        assert_eq!(p.total_pages(), 2);
        assert_eq!(
            p.pages_of_class(
                AppId(0),
                Some(ObjectClass::LatencySensitive),
                ModuleKind::Ddr3
            ),
            1
        );
    }

    #[test]
    #[should_panic(expected = "out of physical memory")]
    fn oom_panics_with_context() {
        let frames = FrameSpace::new(regions_from_capacities(&[(ModuleKind::Ddr3, 0, 4096)]));
        let mut os = Os::new(frames, Box::new(HomogeneousPolicy), 1, 4, 36, 120);
        let mut tel = Telemetry::disabled();
        os.translate(
            0,
            VirtAddr(partition_base(ObjectClass::NonIntensive)),
            0,
            &mut tel,
        );
        os.translate(
            0,
            VirtAddr(partition_base(ObjectClass::NonIntensive) + 4096),
            0,
            &mut tel,
        );
    }
}
