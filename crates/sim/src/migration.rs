//! Dynamic page migration — the runtime-monitoring alternative MOCA is
//! contrasted against (§IV-E: "in contrast to page migration policies that
//! need to monitor runtime information, MOCA only slightly modifies the
//! page allocation method"; related work \[19], \[33], \[35]).
//!
//! The engine implements the classic hardware-monitor scheme: count DRAM
//! reads per physical page in fixed epochs; at each epoch boundary, promote
//! the hottest pages into the fastest module (RLDRAM, then HBM), evicting
//! the coldest pages there in a frame swap. Every migration pays the real
//! costs MOCA avoids:
//!
//! * **copy bandwidth** — 64 line reads + 64 line writes occupy both
//!   channels' data buses ([`moca_dram::Channel::inject_copy_traffic`]);
//! * **cache invalidation** — all cached lines of both pages are dropped
//!   (dirty ones written back first);
//! * **TLB shootdown** — every core's TLB is flushed.

use crate::hierarchy::CoreHierarchy;
use crate::os::Os;
use moca_common::addr::{LineAddr, PAGE_SIZE};
use moca_common::DetMap;
use moca_common::{Cycle, ModuleKind};
use moca_dram::{AddressMapper, Channel};
use serde::{Deserialize, Serialize};

/// Lines per page (64 with 4 KiB pages and 64 B lines).
const LINES_PER_PAGE: u64 = PAGE_SIZE / moca_common::addr::CACHE_LINE_SIZE;

/// Migration-engine parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MigrationConfig {
    /// Epoch length in cycles.
    pub epoch_cycles: Cycle,
    /// Maximum pages moved per epoch.
    pub max_moves_per_epoch: usize,
    /// Minimum DRAM reads in an epoch before a page is promotion-worthy.
    pub heat_threshold: u32,
    /// Promotion targets, fastest first.
    pub fast_kinds: [ModuleKind; 2],
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            epoch_cycles: 50_000,
            max_moves_per_epoch: 32,
            heat_threshold: 16,
            fast_kinds: [ModuleKind::Rldram3, ModuleKind::Hbm],
        }
    }
}

/// Counters the engine reports at end of run.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct MigrationStats {
    /// Epochs completed.
    pub epochs: u64,
    /// Pages promoted into a fast module.
    pub promotions: u64,
    /// Pages demoted to make room (frame swaps).
    pub demotions: u64,
    /// Dirty lines written back during invalidations.
    pub dirty_writebacks: u64,
}

/// The per-page heat tracker + epoch mover.
pub struct Migrator {
    cfg: MigrationConfig,
    /// DRAM reads per pfn in the current epoch. Ordered so that candidate
    /// collection (and thus victim selection) is independent of the order in
    /// which pages were first touched.
    heat: DetMap<u64, u32>,
    /// Exponentially decayed heat of pages currently resident in the fast
    /// modules (so cold residents can be identified for demotion).
    resident_heat: DetMap<u64, u32>,
    next_epoch: Cycle,
    stats: MigrationStats,
}

impl Migrator {
    /// New engine with `cfg`.
    pub fn new(cfg: MigrationConfig) -> Migrator {
        Migrator {
            next_epoch: cfg.epoch_cycles,
            cfg,
            heat: DetMap::new(),
            resident_heat: DetMap::new(),
            stats: MigrationStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> MigrationStats {
        self.stats
    }

    /// Record one DRAM read completion.
    #[inline]
    pub fn record_read(&mut self, line: LineAddr) {
        *self.heat.entry(line.pfn()).or_insert(0) += 1;
    }

    /// Whether the epoch boundary has been reached.
    #[inline]
    pub fn epoch_due(&self, now: Cycle) -> bool {
        now >= self.next_epoch
    }

    /// Cycle of the next epoch boundary.
    #[inline]
    pub fn next_epoch(&self) -> Cycle {
        self.next_epoch
    }

    /// Run an epoch: promote hot pages into the fast modules. Called by the
    /// simulator at epoch boundaries.
    pub fn run_epoch(
        &mut self,
        now: Cycle,
        os: &mut Os,
        hiers: &mut [CoreHierarchy],
        channels: &mut [Channel],
        mapper: &AddressMapper,
    ) {
        self.next_epoch = now + self.cfg.epoch_cycles;
        self.stats.epochs += 1;

        // Decay resident heat and merge this epoch's observations.
        for v in self.resident_heat.values_mut() {
            *v /= 2;
        }
        // moca-lint: allow(hot-alloc): epoch-rate path — runs once per migration epoch, not per cycle
        let mut candidates: Vec<(u64, u32)> = Vec::new();
        for (&pfn, &h) in &self.heat {
            match os.frames().kind_of(pfn) {
                Some(k) if self.cfg.fast_kinds.contains(&k) => {
                    *self.resident_heat.entry(pfn).or_insert(0) += h;
                }
                Some(_) if h >= self.cfg.heat_threshold => candidates.push((pfn, h)),
                Some(_) => {}
                None => {}
            }
        }
        self.heat.clear();
        // Explicit tie-break: heat descending, then pfn ascending. The heat
        // table already iterates in pfn order (DetMap), so this sort — and
        // everything downstream of it — is identical run to run.
        candidates.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        candidates.truncate(self.cfg.max_moves_per_epoch);

        for (pfn, h) in candidates {
            if self.promote(now, pfn, h, os, hiers, channels, mapper) {
                self.stats.promotions += 1;
            }
        }
        #[cfg(debug_assertions)]
        os.check_invariants().unwrap_or_else(|e| {
            // moca-lint: allow(panic-in-hot): debug-only conservation check; a violation must abort
            panic!(
                "OS page bookkeeping after migration epoch {}: {e}",
                self.stats.epochs
            )
        });
    }

    /// Try to move `pfn` into a fast module: a free frame if one exists,
    /// otherwise swap with the coldest fast-resident page (if colder).
    #[allow(clippy::too_many_arguments)]
    fn promote(
        &mut self,
        now: Cycle,
        pfn: u64,
        heat: u32,
        os: &mut Os,
        hiers: &mut [CoreHierarchy],
        channels: &mut [Channel],
        mapper: &AddressMapper,
    ) -> bool {
        for kind in self.cfg.fast_kinds {
            if let Some(new_pfn) = os.move_page_to(pfn, kind) {
                self.pay_copy_costs(now, pfn, new_pfn, hiers, channels, mapper);
                self.resident_heat.insert(new_pfn, heat);
                return true;
            }
        }
        // No free fast frame: find the coldest resident clearly colder than
        // the candidate.
        let victim = self
            .resident_heat
            .iter()
            .filter(|&(&v, _)| os.is_owned(v) && v != pfn)
            .min_by_key(|&(&v, &h)| (h, v))
            .map(|(&v, &h)| (v, h));
        match victim {
            Some((victim_pfn, victim_heat)) if victim_heat * 2 < heat => {
                os.swap_frames(pfn, victim_pfn);
                self.pay_copy_costs(now, pfn, victim_pfn, hiers, channels, mapper);
                // The candidate's heat now lives at the victim's old frame.
                self.resident_heat.remove(&victim_pfn);
                self.resident_heat.insert(victim_pfn, heat);
                self.stats.demotions += 1;
                true
            }
            _ => false,
        }
    }

    /// Invalidate caches for both pages and book the copy DMA on both
    /// channels.
    fn pay_copy_costs(
        &mut self,
        now: Cycle,
        a_pfn: u64,
        b_pfn: u64,
        hiers: &mut [CoreHierarchy],
        channels: &mut [Channel],
        mapper: &AddressMapper,
    ) {
        for h in hiers.iter_mut() {
            self.stats.dirty_writebacks += h.invalidate_page(a_pfn) as u64;
            self.stats.dirty_writebacks += h.invalidate_page(b_pfn) as u64;
        }
        for pfn in [a_pfn, b_pfn] {
            let line = LineAddr(pfn * LINES_PER_PAGE);
            let (ch, _) = mapper.map(line);
            channels[ch].inject_copy_traffic(now, LINES_PER_PAGE, LINES_PER_PAGE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = MigrationConfig::default();
        assert!(c.epoch_cycles > 0);
        assert_eq!(c.fast_kinds[0], ModuleKind::Rldram3);
    }

    #[test]
    fn heat_accumulates_per_page() {
        let mut m = Migrator::new(MigrationConfig::default());
        m.record_read(LineAddr(0));
        m.record_read(LineAddr(1)); // same 4 KiB page
        m.record_read(LineAddr(64)); // next page
        assert_eq!(m.heat.get(&0), Some(&2));
        assert_eq!(m.heat.get(&1), Some(&1));
    }

    /// Determinism regression: two migrators fed the *same multiset* of heat
    /// observations in permuted orders — over identically-placed address
    /// spaces whose pages also faulted in permuted order — must make
    /// identical victim-selection and promotion decisions. This is exactly
    /// the property a HashMap-backed heat table breaks (iteration order
    /// would leak into candidate collection).
    #[test]
    fn permuted_observation_order_gives_identical_migrations() {
        use moca_common::addr::PAGE_SIZE;
        use moca_dram::{ChannelConfig, DeviceTiming};
        use moca_vm::frames::regions_from_capacities;
        use moca_vm::policy::FirstTouchPolicy;
        use moca_vm::FrameSpace;

        const PAGES: u64 = 18;
        let cfg = MigrationConfig {
            epoch_cycles: 1_000,
            max_moves_per_epoch: 2,
            heat_threshold: 4,
            fast_kinds: [ModuleKind::Rldram3, ModuleKind::Hbm],
        };

        // Heat multiset with deliberate ties: pages 2..6 at heat 9, pages
        // 6..10 at heat 5, and the two fast-resident pages (0, 1) at heat 2
        // so they are demotion candidates.
        let heats = |pfn: u64| -> u32 {
            match pfn {
                0 | 1 => 2,
                2..=5 => 9,
                6..=9 => 5,
                _ => 1,
            }
        };

        let run = |fault_order: &[u64], obs_order: &[u64]| {
            // A tiny machine: 2 RLDRAM frames (filled first by first-touch)
            // and a DDR3 region holding everything else.
            let frames = FrameSpace::new(regions_from_capacities(&[
                (ModuleKind::Rldram3, 0, 2 * PAGE_SIZE),
                (ModuleKind::Ddr3, 1, 64 * PAGE_SIZE),
            ]));
            let mut os = Os::new(frames, Box::new(FirstTouchPolicy), 1, 64, 0, 0);
            for &vpn in fault_order {
                os.prefault(0, moca_common::VirtAddr(vpn * PAGE_SIZE));
            }
            let mut channels = vec![
                Channel::new(ChannelConfig::new(DeviceTiming::rldram3(), 2 * PAGE_SIZE)),
                Channel::new(ChannelConfig::new(DeviceTiming::ddr3(), 64 * PAGE_SIZE)),
            ];
            let mapper = AddressMapper::ranged(&[2 * PAGE_SIZE, 64 * PAGE_SIZE]);
            let mut mig = Migrator::new(cfg);
            for round in 0..2 {
                for &pfn in obs_order {
                    for _ in 0..heats(pfn) {
                        mig.record_read(LineAddr(pfn * LINES_PER_PAGE));
                    }
                }
                mig.run_epoch(
                    1_000 * (round + 1),
                    &mut os,
                    &mut [],
                    &mut channels,
                    &mapper,
                );
            }
            let kinds: Vec<_> = (0..PAGES).map(|p| os.frames().kind_of(p)).collect();
            let owners: Vec<_> = (0..PAGES).map(|p| os.owner_of(p)).collect();
            let s = mig.stats();
            (kinds, owners, (s.epochs, s.promotions, s.demotions))
        };

        let fwd: Vec<u64> = (0..PAGES).collect();
        let rev: Vec<u64> = (0..PAGES).rev().collect();
        // First-touch placement is order-dependent by design, so fault pages
        // in the same order; only the *observations* are permuted.
        let a = run(&fwd, &fwd);
        let b = run(&fwd, &rev);
        assert!(a.2 .1 > 0, "test must exercise at least one promotion");
        assert_eq!(
            a, b,
            "permuted heat observations changed migration decisions"
        );
    }

    #[test]
    fn epoch_due_respects_period() {
        let m = Migrator::new(MigrationConfig {
            epoch_cycles: 100,
            ..MigrationConfig::default()
        });
        assert!(!m.epoch_due(99));
        assert!(m.epoch_due(100));
    }
}
