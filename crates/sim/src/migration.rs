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
use moca_common::units::narrow_u32;
use moca_common::{Cycle, ModuleKind};
use moca_dram::{AddressMapper, Channel};
use serde::{Deserialize, Serialize};

/// Lines per page (64 with 4 KiB pages and 64 B lines).
const LINES_PER_PAGE: u64 = PAGE_SIZE / moca_common::addr::CACHE_LINE_SIZE;

/// DRAM reads logged before they are folded into the epoch's heat table:
/// 16 KiB of pfns, allocated once. An epoch of the capacity-scale-1 3L1B
/// run logs 10–15k reads over about 5k pages, so a fold sorts a full log
/// about three times an epoch.
const READ_LOG: usize = 4096;

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

/// Add `adds`' counts into `table`. Both are sorted by pfn with each pfn
/// once; a pfn already in `table` gets the sum, a new one goes in at its
/// place. A counting pass finds the new pfns, the table grows by exactly
/// that many slots, and one backward pass merges in place, so no second
/// buffer is needed. `adds` is called once per pass.
fn merge_add<I>(table: &mut Vec<(u32, u32)>, adds: impl Fn() -> I)
where
    I: DoubleEndedIterator<Item = (u32, u32)>,
{
    let old = table.len();
    let (mut i, mut new) = (0, 0);
    for (pfn, _) in adds() {
        while i < old && table[i].0 < pfn {
            i += 1;
        }
        new += usize::from(i == old || table[i].0 != pfn);
    }
    table.reserve_exact(new);
    table.resize(old + new, (0, 0));
    // Old entries not yet moved are `table[..r]`; `table[w..]` is merged.
    let (mut r, mut w) = (old, old + new);
    for (pfn, n) in adds().rev() {
        while r > 0 && table[r - 1].0 > pfn {
            r -= 1;
            w -= 1;
            table[w] = table[r];
        }
        w -= 1;
        table[w] = if r > 0 && table[r - 1].0 == pfn {
            r -= 1;
            (pfn, table[r].1 + n)
        } else {
            (pfn, n)
        };
    }
    debug_assert_eq!(r, w, "every new pfn found its slot");
}

/// Per-page heat as flat `(pfn, count)` arrays sorted by pfn: this epoch's
/// DRAM reads and the fast residents' decayed heat. Walking an array
/// ascends by pfn, so candidate collection (and thus victim selection) is
/// independent of the order in which pages were read.
struct Heat {
    /// pfns of the reads not yet folded into `epoch`, one per read. Its
    /// capacity, fixed at construction, is the fold interval.
    log: Vec<u32>,
    /// Reads per pfn this epoch, up to the last fold.
    epoch: Vec<(u32, u32)>,
    /// Exponentially decayed heat of the pages resident in the fast
    /// modules (so cold residents can be identified for demotion). A
    /// resident whose heat decays to zero stays: it is the first victim.
    resident: Vec<(u32, u32)>,
}

impl Heat {
    /// Empty tables with a read log of `log_capacity` entries.
    fn new(log_capacity: usize) -> Heat {
        Heat {
            log: Vec::with_capacity(log_capacity),
            epoch: Vec::new(),
            resident: Vec::new(),
        }
    }

    /// Log one DRAM read of `pfn`, folding the log first if it is full.
    #[inline]
    fn record(&mut self, pfn: u32) {
        if self.log.len() == self.log.capacity() {
            self.fold();
        }
        self.log.push(pfn);
    }

    /// Fold the logged reads into `epoch` and empty the log.
    fn fold(&mut self) {
        self.log.sort_unstable();
        merge_add(&mut self.epoch, || {
            self.log
                .chunk_by(|a, b| a == b)
                .map(|reads| (reads[0], narrow_u32(reads.len() as u64)))
        });
        self.log.clear();
    }

    /// Close the epoch: halve every resident's heat, add this epoch's reads
    /// of fast-module pages to their heat, and return the promotion
    /// candidates: the other pages read at least `heat_threshold` times,
    /// hottest first (ties to the lower pfn), at most
    /// `max_moves_per_epoch`. Reads of frames outside every module count
    /// for nothing. The list's buffer comes back through
    /// [`Heat::recycle`].
    fn close_epoch(
        &mut self,
        cfg: &MigrationConfig,
        kind_of: impl Fn(u64) -> Option<ModuleKind>,
    ) -> Vec<(u32, u32)> {
        self.fold();
        for (_, h) in &mut self.resident {
            *h /= 2;
        }
        let fast = |pfn: u32| kind_of(u64::from(pfn)).map(|k| cfg.fast_kinds.contains(&k));
        merge_add(&mut self.resident, || {
            self.epoch
                .iter()
                .copied()
                .filter(|&(pfn, _)| fast(pfn) == Some(true))
        });
        let mut candidates = std::mem::take(&mut self.epoch);
        candidates.retain(|&(pfn, h)| fast(pfn) == Some(false) && h >= cfg.heat_threshold);
        // Explicit tie-break: heat descending, then pfn ascending, so the
        // order is a function of the counts alone.
        candidates.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        candidates.truncate(cfg.max_moves_per_epoch);
        candidates
    }

    /// Take back the buffer [`Heat::close_epoch`] lent out, for the next
    /// epoch's reads.
    fn recycle(&mut self, mut candidates: Vec<(u32, u32)>) {
        candidates.clear();
        self.epoch = candidates;
    }

    /// The coldest resident other than `exclude` whose frame is `in_use`,
    /// with its heat; ties go to the lower pfn.
    fn coldest_resident(&self, exclude: u32, in_use: impl Fn(u64) -> bool) -> Option<(u32, u32)> {
        self.resident
            .iter()
            .copied()
            .filter(|&(pfn, _)| pfn != exclude && in_use(u64::from(pfn)))
            .min_by_key(|&(pfn, h)| (h, pfn))
    }

    /// Set `pfn`'s resident heat, adding it in order if it is new.
    fn set_resident(&mut self, pfn: u32, heat: u32) {
        match self.resident.binary_search_by_key(&pfn, |&(p, _)| p) {
            Ok(i) => self.resident[i].1 = heat,
            Err(i) => {
                self.resident.reserve_exact(1);
                self.resident.insert(i, (pfn, heat));
            }
        }
    }
}

/// The per-page heat tracker + epoch mover.
pub struct Migrator {
    cfg: MigrationConfig,
    heat: Heat,
    next_epoch: Cycle,
    stats: MigrationStats,
}

impl Migrator {
    /// New engine with `cfg`.
    pub fn new(cfg: MigrationConfig) -> Migrator {
        Migrator {
            next_epoch: cfg.epoch_cycles,
            cfg,
            heat: Heat::new(READ_LOG),
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
        self.heat.record(narrow_u32(line.pfn()));
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

        let frames = os.frames();
        let candidates = self.heat.close_epoch(&self.cfg, |pfn| frames.kind_of(pfn));
        for &(pfn, h) in &candidates {
            if self.promote(now, pfn, h, os, hiers, channels, mapper) {
                self.stats.promotions += 1;
            }
        }
        self.heat.recycle(candidates);
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
        pfn: u32,
        heat: u32,
        os: &mut Os,
        hiers: &mut [CoreHierarchy],
        channels: &mut [Channel],
        mapper: &AddressMapper,
    ) -> bool {
        let from = u64::from(pfn);
        for kind in self.cfg.fast_kinds {
            if let Some(new_pfn) = os.move_page_to(from, kind) {
                self.pay_copy_costs(now, from, new_pfn, hiers, channels, mapper);
                self.heat.set_resident(narrow_u32(new_pfn), heat);
                return true;
            }
        }
        // No free fast frame: find the coldest resident clearly colder than
        // the candidate.
        let frames = os.frames();
        match self.heat.coldest_resident(pfn, |v| frames.is_allocated(v)) {
            Some((victim, victim_heat)) if victim_heat * 2 < heat => {
                os.swap_frames(from, u64::from(victim));
                self.pay_copy_costs(now, from, u64::from(victim), hiers, channels, mapper);
                // The candidate's heat now lives at the victim's old frame.
                self.heat.set_resident(victim, heat);
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
mod heat_oracle;

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
        m.heat.fold();
        assert_eq!(m.heat.epoch, vec![(0, 2), (1, 1)]);
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
