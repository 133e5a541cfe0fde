//! Page-placement policies (§IV-D and the evaluation baselines).

use moca_common::{AppId, ModuleKind, ObjectClass};
use moca_vm::frames::FrameSpace;
use moca_vm::layout::PageIntent;
use moca_vm::policy::{preference_order, PagePlacementPolicy};

pub use moca_vm::policy::HomogeneousPolicy;

/// MOCA's object-level policy: a faulting heap page's class is recovered
/// from its virtual partition (the typed heap of Fig. 6) and its frame is
/// taken from that class's preferred module, falling back down the priority
/// list when full (§IV-D). Stack, code, and data pages go to the low-power
/// module (§VI-D).
#[derive(Debug, Default, Clone)]
pub struct MocaPolicy;

impl PagePlacementPolicy for MocaPolicy {
    fn place(&mut self, _app: AppId, intent: PageIntent, frames: &mut FrameSpace) -> Option<u64> {
        let class = match intent {
            PageIntent::Heap(c) => c,
            // §VI-D: "we allocate pages from LPDDR module for these
            // segments".
            PageIntent::Stack | PageIntent::Code | PageIntent::Data => ObjectClass::NonIntensive,
        };
        frames
            .alloc_by_preference(&preference_order(class))
            .map(|(pfn, _)| pfn)
    }

    fn name(&self) -> &'static str {
        "MOCA"
    }

    fn preferred(&self, _app: AppId, intent: PageIntent) -> Option<ModuleKind> {
        let class = match intent {
            PageIntent::Heap(c) => c,
            PageIntent::Stack | PageIntent::Code | PageIntent::Data => ObjectClass::NonIntensive,
        };
        Some(preference_order(class)[0])
    }
}

/// The application-level baseline (Phadke & Narayanasamy, DATE'11; the
/// paper's "Heter-App"): every page of an application — objects, stack,
/// code — is allocated from the module preferred by the application's
/// aggregate class, with the same fallback chain ("when there are no pages
/// left in the best-fit module, the objects are then allocated to this
/// application's next-best memory module", §V-C).
#[derive(Debug, Clone)]
pub struct HeterAppPolicy {
    app_classes: Vec<ObjectClass>,
}

impl HeterAppPolicy {
    /// Build from per-application classes (indexed by [`AppId`]).
    pub fn new(app_classes: Vec<ObjectClass>) -> HeterAppPolicy {
        HeterAppPolicy { app_classes }
    }
}

impl PagePlacementPolicy for HeterAppPolicy {
    fn place(&mut self, app: AppId, _intent: PageIntent, frames: &mut FrameSpace) -> Option<u64> {
        // moca-lint: allow(narrowing-cast): AppId.0 is u32; u32 -> usize never truncates
        let class = self.app_classes[app.0 as usize];
        frames
            .alloc_by_preference(&preference_order(class))
            .map(|(pfn, _)| pfn)
    }

    fn name(&self) -> &'static str {
        "Heter-App"
    }

    fn preferred(&self, app: AppId, _intent: PageIntent) -> Option<ModuleKind> {
        self.app_classes
            .get(app.0 as usize)
            .map(|&c| preference_order(c)[0])
    }
}

/// Initial placement for the dynamic-migration baseline: everything starts
/// in the cheapest memory; the runtime monitor is expected to promote hot
/// pages afterwards (§IV-E's contrast, related work \[19], \[33]).
#[derive(Debug, Default, Clone)]
pub struct LowPowerFirstPolicy;

impl PagePlacementPolicy for LowPowerFirstPolicy {
    fn place(&mut self, _app: AppId, _intent: PageIntent, frames: &mut FrameSpace) -> Option<u64> {
        frames
            .alloc_by_preference(&preference_order(ObjectClass::NonIntensive))
            .map(|(pfn, _)| pfn)
    }

    fn name(&self) -> &'static str {
        "Heter-Migrate"
    }

    fn preferred(&self, _app: AppId, _intent: PageIntent) -> Option<ModuleKind> {
        Some(preference_order(ObjectClass::NonIntensive)[0])
    }
}

/// A MOCA variant with configurable per-class fallback orders and segment
/// placement — used by the ablation studies (`repro ablations`) to quantify
/// the design choices §IV-D fixes: the fallback priority lists and the
/// static LPDDR2 placement of stack/code (§VI-D).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ConfigurableMocaPolicy {
    /// Fallback order for latency-sensitive pages.
    pub lat_order: [ModuleKind; 4],
    /// Fallback order for bandwidth-sensitive pages.
    pub bw_order: [ModuleKind; 4],
    /// Fallback order for non-intensive pages.
    pub pow_order: [ModuleKind; 4],
    /// Class used for stack/code/data pages.
    pub segment_class: ObjectClass,
}

impl Default for ConfigurableMocaPolicy {
    fn default() -> Self {
        ConfigurableMocaPolicy {
            lat_order: preference_order(ObjectClass::LatencySensitive),
            bw_order: preference_order(ObjectClass::BandwidthSensitive),
            pow_order: preference_order(ObjectClass::NonIntensive),
            segment_class: ObjectClass::NonIntensive,
        }
    }
}

impl ConfigurableMocaPolicy {
    fn order_for(&self, class: ObjectClass) -> &[ModuleKind; 4] {
        match class {
            ObjectClass::LatencySensitive => &self.lat_order,
            ObjectClass::BandwidthSensitive => &self.bw_order,
            ObjectClass::NonIntensive => &self.pow_order,
        }
    }
}

impl PagePlacementPolicy for ConfigurableMocaPolicy {
    fn place(&mut self, _app: AppId, intent: PageIntent, frames: &mut FrameSpace) -> Option<u64> {
        let class = match intent {
            PageIntent::Heap(c) => c,
            _ => self.segment_class,
        };
        frames
            .alloc_by_preference(self.order_for(class))
            .map(|(pfn, _)| pfn)
    }

    fn name(&self) -> &'static str {
        "MOCA-custom"
    }

    fn preferred(&self, _app: AppId, intent: PageIntent) -> Option<ModuleKind> {
        let class = match intent {
            PageIntent::Heap(c) => c,
            _ => self.segment_class,
        };
        Some(self.order_for(class)[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moca_common::addr::PAGE_SIZE;
    use moca_vm::frames::regions_from_capacities;

    fn heter_frames(rl_pages: u64, hbm_pages: u64, lp_pages: u64) -> FrameSpace {
        FrameSpace::new(regions_from_capacities(&[
            (ModuleKind::Rldram3, 0, rl_pages * PAGE_SIZE),
            (ModuleKind::Hbm, 1, hbm_pages * PAGE_SIZE),
            (ModuleKind::Lpddr2, 2, lp_pages * PAGE_SIZE),
        ]))
    }

    #[test]
    fn moca_routes_by_class() {
        let mut fs = heter_frames(4, 4, 4);
        let mut p = MocaPolicy;
        let lat = p
            .place(
                AppId(0),
                PageIntent::Heap(ObjectClass::LatencySensitive),
                &mut fs,
            )
            .unwrap();
        let bw = p
            .place(
                AppId(0),
                PageIntent::Heap(ObjectClass::BandwidthSensitive),
                &mut fs,
            )
            .unwrap();
        let pow = p
            .place(
                AppId(0),
                PageIntent::Heap(ObjectClass::NonIntensive),
                &mut fs,
            )
            .unwrap();
        assert_eq!(fs.kind_of(lat), Some(ModuleKind::Rldram3));
        assert_eq!(fs.kind_of(bw), Some(ModuleKind::Hbm));
        assert_eq!(fs.kind_of(pow), Some(ModuleKind::Lpddr2));
    }

    #[test]
    fn moca_sends_stack_and_code_to_lpddr() {
        let mut fs = heter_frames(4, 4, 4);
        let mut p = MocaPolicy;
        for intent in [PageIntent::Stack, PageIntent::Code, PageIntent::Data] {
            let pfn = p.place(AppId(0), intent, &mut fs).unwrap();
            assert_eq!(fs.kind_of(pfn), Some(ModuleKind::Lpddr2), "{intent:?}");
        }
    }

    #[test]
    fn moca_falls_back_when_preferred_full() {
        let mut fs = heter_frames(1, 4, 4);
        let mut p = MocaPolicy;
        let intent = PageIntent::Heap(ObjectClass::LatencySensitive);
        let a = p.place(AppId(0), intent, &mut fs).unwrap();
        let b = p.place(AppId(0), intent, &mut fs).unwrap();
        assert_eq!(fs.kind_of(a), Some(ModuleKind::Rldram3));
        assert_eq!(fs.kind_of(b), Some(ModuleKind::Hbm), "RLDRAM full → HBM");
    }

    #[test]
    fn heter_app_ignores_object_classes() {
        let mut fs = heter_frames(4, 4, 4);
        let mut p = HeterAppPolicy::new(vec![ObjectClass::LatencySensitive]);
        // Even a non-intensive heap page of an L-classified app goes to
        // RLDRAM — the coarseness MOCA fixes.
        let pfn = p
            .place(
                AppId(0),
                PageIntent::Heap(ObjectClass::NonIntensive),
                &mut fs,
            )
            .unwrap();
        assert_eq!(fs.kind_of(pfn), Some(ModuleKind::Rldram3));
    }

    #[test]
    fn heter_app_distinguishes_apps() {
        let mut fs = heter_frames(4, 4, 4);
        let mut p = HeterAppPolicy::new(vec![
            ObjectClass::LatencySensitive,
            ObjectClass::NonIntensive,
        ]);
        let a = p.place(AppId(0), PageIntent::Stack, &mut fs).unwrap();
        let b = p.place(AppId(1), PageIntent::Stack, &mut fs).unwrap();
        assert_eq!(fs.kind_of(a), Some(ModuleKind::Rldram3));
        assert_eq!(fs.kind_of(b), Some(ModuleKind::Lpddr2));
    }

    #[test]
    fn exhaustion_cascades_to_none() {
        let mut fs = heter_frames(1, 1, 1);
        let mut p = MocaPolicy;
        let intent = PageIntent::Heap(ObjectClass::BandwidthSensitive);
        for _ in 0..3 {
            assert!(p.place(AppId(0), intent, &mut fs).is_some());
        }
        // DDR3 is in the fallback list but absent from this machine.
        assert_eq!(p.place(AppId(0), intent, &mut fs), None);
    }

    #[test]
    fn preferred_reports_first_choice_for_fallback_detection() {
        let mut fs = heter_frames(1, 4, 4);
        let mut p = MocaPolicy;
        let intent = PageIntent::Heap(ObjectClass::LatencySensitive);
        // With capacity, preferred() matches the actual placement.
        let a = p.place(AppId(0), intent, &mut fs).unwrap();
        assert_eq!(fs.kind_of(a), p.preferred(AppId(0), intent));
        // When the preferred module is full, place() falls back but
        // preferred() still names the first choice — the mismatch telemetry
        // reports as a fallback allocation.
        let b = p.place(AppId(0), intent, &mut fs).unwrap();
        assert_ne!(fs.kind_of(b), p.preferred(AppId(0), intent));
        assert_eq!(p.preferred(AppId(0), intent), Some(ModuleKind::Rldram3));
        // Heter-App prefers by app class; out-of-range apps yield None.
        let h = HeterAppPolicy::new(vec![ObjectClass::BandwidthSensitive]);
        assert_eq!(h.preferred(AppId(0), intent), Some(ModuleKind::Hbm));
        assert_eq!(h.preferred(AppId(9), intent), None);
    }

    #[test]
    fn preferred_kinds_match_paper() {
        // The module a class lands on when nothing is full.
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

    /// `Pipeline::resolve` runs a default `ConfigurableMocaPolicy` as
    /// `MocaPolicy`, which is only sound if the two place every page alike:
    /// the same preferred module, and the same frame at every step of the
    /// fallback chain down to exhaustion, per intent and interleaved.
    #[test]
    fn default_configurable_policy_places_like_moca() {
        let intents = [
            PageIntent::Heap(ObjectClass::LatencySensitive),
            PageIntent::Heap(ObjectClass::BandwidthSensitive),
            PageIntent::Heap(ObjectClass::NonIntensive),
            PageIntent::Stack,
            PageIntent::Code,
            PageIntent::Data,
        ];
        // Every module kind, so each chain falls all the way to its last.
        let frames = || {
            FrameSpace::new(regions_from_capacities(&[
                (ModuleKind::Rldram3, 0, 2 * PAGE_SIZE),
                (ModuleKind::Hbm, 1, 3 * PAGE_SIZE),
                (ModuleKind::Lpddr2, 2, 2 * PAGE_SIZE),
                (ModuleKind::Ddr3, 3, PAGE_SIZE),
            ]))
        };
        for intent in intents {
            assert_eq!(
                ConfigurableMocaPolicy::default().preferred(AppId(0), intent),
                MocaPolicy.preferred(AppId(0), intent),
                "{intent:?}"
            );
        }
        let lockstep = |pick: &dyn Fn(usize) -> PageIntent| {
            let mut custom = ConfigurableMocaPolicy::default();
            let (mut a, mut b) = (frames(), frames());
            let mut placed = 0;
            for step in 0.. {
                let intent = pick(step);
                let got = custom.place(AppId(0), intent, &mut a);
                assert_eq!(
                    got,
                    MocaPolicy.place(AppId(0), intent, &mut b),
                    "{intent:?}"
                );
                if got.is_none() {
                    break;
                }
                placed += 1;
            }
            assert_eq!(placed, 8, "the machine drains completely");
        };
        for intent in intents {
            lockstep(&|_| intent);
        }
        lockstep(&|step| intents[step % intents.len()]);
    }
}
