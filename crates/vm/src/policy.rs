//! OS page-placement policy hook.
//!
//! The simulator's page-fault handler calls a [`PagePlacementPolicy`] to pick
//! the physical frame for a faulting page. MOCA's object-level policy and
//! the Heter-App baseline are implemented in the `moca` crate against this
//! trait; keeping the trait here lets `moca-sim` stay independent of the
//! policy crate. The homogeneous baseline, [`HomogeneousPolicy`], lives
//! here because it needs no classification, so the simulator's own tests
//! and the profiling runs can use it too.

use crate::frames::FrameSpace;
use crate::layout::PageIntent;
use moca_common::{AppId, ModuleKind, ObjectClass};

/// Module-kind preference list for an object class in a heterogeneous
/// system (§III-C / §IV-D: "the OS is also given the priorities of memory
/// modules for different memory object types in case the most desired
/// memory module is full", with "next best for HBM is LPDDR").
pub fn preference_order(class: ObjectClass) -> [ModuleKind; 4] {
    match class {
        ObjectClass::LatencySensitive => [
            ModuleKind::Rldram3,
            ModuleKind::Hbm,
            ModuleKind::Lpddr2,
            ModuleKind::Ddr3,
        ],
        ObjectClass::BandwidthSensitive => [
            ModuleKind::Hbm,
            ModuleKind::Lpddr2,
            ModuleKind::Rldram3,
            ModuleKind::Ddr3,
        ],
        ObjectClass::NonIntensive => [
            ModuleKind::Lpddr2,
            ModuleKind::Ddr3,
            ModuleKind::Hbm,
            ModuleKind::Rldram3,
        ],
    }
}

/// Decides which physical frame backs a faulting virtual page.
pub trait PagePlacementPolicy {
    /// Allocate a frame for a page of `intent` faulting in application
    /// `app`. Returns `None` only when physical memory is completely
    /// exhausted.
    fn place(&mut self, app: AppId, intent: PageIntent, frames: &mut FrameSpace) -> Option<u64>;

    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// The module kind this policy would ideally place the page on, before
    /// any capacity fallback. Purely informational — telemetry compares it
    /// against the frame actually returned by [`place`](Self::place) to flag
    /// fallback allocations. Policies without a meaningful notion of a
    /// preferred module (e.g. first-touch) return `None`.
    fn preferred(&self, app: AppId, intent: PageIntent) -> Option<ModuleKind> {
        let _ = (app, intent);
        None
    }
}

/// Baseline for homogeneous machines: every module is the same technology,
/// so placement is first-touch over every region in layout order, ignoring
/// intent.
#[derive(Debug, Default, Clone)]
pub struct HomogeneousPolicy;

impl PagePlacementPolicy for HomogeneousPolicy {
    fn place(&mut self, _app: AppId, _intent: PageIntent, frames: &mut FrameSpace) -> Option<u64> {
        for i in 0..frames.regions().len() {
            if let Some(pfn) = frames.alloc_in_region(i) {
                return Some(pfn);
            }
        }
        None
    }

    fn name(&self) -> &'static str {
        "Homogeneous"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::regions_from_capacities;
    use moca_common::addr::PAGE_SIZE;

    #[test]
    fn preference_orders_cover_all_kinds() {
        for class in ObjectClass::ALL {
            let order = preference_order(class);
            let set: std::collections::BTreeSet<_> = order.iter().collect();
            assert_eq!(set.len(), 4, "{class} order has duplicates");
        }
    }

    #[test]
    fn latency_prefers_rldram_bandwidth_prefers_hbm() {
        assert_eq!(
            preference_order(ObjectClass::LatencySensitive)[0],
            ModuleKind::Rldram3
        );
        assert_eq!(
            preference_order(ObjectClass::BandwidthSensitive)[0],
            ModuleKind::Hbm
        );
        assert_eq!(
            preference_order(ObjectClass::NonIntensive)[0],
            ModuleKind::Lpddr2
        );
    }

    #[test]
    fn hbm_falls_back_to_lpddr() {
        // §IV-D: "next best for HBM is LPDDR".
        assert_eq!(
            preference_order(ObjectClass::BandwidthSensitive)[1],
            ModuleKind::Lpddr2
        );
    }

    #[test]
    fn first_touch_fills_in_order() {
        let mut fs = FrameSpace::new(regions_from_capacities(&[
            (ModuleKind::Rldram3, 0, PAGE_SIZE),
            (ModuleKind::Hbm, 1, PAGE_SIZE),
        ]));
        let mut p = HomogeneousPolicy;
        let a = p.place(AppId(0), PageIntent::Stack, &mut fs).unwrap();
        let b = p.place(AppId(0), PageIntent::Stack, &mut fs).unwrap();
        assert_eq!(fs.kind_of(a), Some(ModuleKind::Rldram3));
        assert_eq!(fs.kind_of(b), Some(ModuleKind::Hbm));
        assert_eq!(p.place(AppId(0), PageIntent::Stack, &mut fs), None);
    }
}
