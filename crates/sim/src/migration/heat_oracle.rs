//! Differential oracle for the migrator's flat heat tables.
//!
//! [`Reference`] keeps the heat as the migrator once did: one ordered map
//! of this epoch's reads per pfn, one of the fast residents' decayed heat,
//! both updated entry by entry. [`Heat`] keeps sorted arrays fed by a read
//! log. Both get the same seeded read traces on a small machine (48 fast
//! frames, 400 slow ones, and reads of frames outside every module) and
//! the same promotions, and must agree after every epoch on the
//! candidates, on every victim and on every resident's heat. The traces
//! leave some residents unread for epochs, so zero-heat residents are
//! present; read logs of 5, 64 and the migrator's own length flush
//! mid-epoch at different points; and each epoch's reads also run in a
//! shuffled order, which must change nothing.

use super::{Heat, MigrationConfig, READ_LOG};
use moca_common::rng::DetRng;
use moca_common::units::{narrow_u32, narrow_usize};
use moca_common::{DetMap, ModuleKind};

/// Fast frames: 32 RLDRAM, then 16 HBM.
const FAST: u64 = 48;
/// All frames; pfns from here up lie outside every module.
const FRAMES: u64 = 448;

fn kind_of(pfn: u64) -> Option<ModuleKind> {
    match pfn {
        0..32 => Some(ModuleKind::Rldram3),
        32..FAST => Some(ModuleKind::Hbm),
        FAST..FRAMES => Some(ModuleKind::Ddr3),
        _ => None,
    }
}

/// The heat tables as two ordered maps. Its methods are named apart from
/// [`Heat`]'s so the lint's call graph, which resolves methods by name,
/// does not take them for the migrator's epoch-rate path.
#[derive(Default)]
struct Reference {
    heat: DetMap<u64, u32>,
    resident_heat: DetMap<u64, u32>,
}

impl Reference {
    fn read(&mut self, pfn: u64) {
        *self.heat.entry(pfn).or_insert(0) += 1;
    }

    fn finish_epoch(&mut self, cfg: &MigrationConfig) -> Vec<(u64, u32)> {
        for v in self.resident_heat.values_mut() {
            *v /= 2;
        }
        let mut candidates = Vec::new();
        for (&pfn, &h) in &self.heat {
            match kind_of(pfn) {
                Some(k) if cfg.fast_kinds.contains(&k) => {
                    *self.resident_heat.entry(pfn).or_insert(0) += h;
                }
                Some(_) if h >= cfg.heat_threshold => candidates.push((pfn, h)),
                _ => {}
            }
        }
        self.heat.clear();
        candidates.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        candidates.truncate(cfg.max_moves_per_epoch);
        candidates
    }

    fn coldest(&self, exclude: u64, in_use: &[bool]) -> Option<(u64, u32)> {
        self.resident_heat
            .iter()
            .filter(|&(&v, _)| in_use[narrow_usize(v)] && v != exclude)
            .min_by_key(|&(&v, &h)| (h, v))
            .map(|(&v, &h)| (v, h))
    }

    fn assign(&mut self, pfn: u64, heat: u32) {
        self.resident_heat.remove(&pfn);
        self.resident_heat.insert(pfn, heat);
    }
}

/// What one epoch left: the resident heat after its moves, and for each
/// candidate the frame it moved to (a free fast frame or a victim's), if
/// it moved.
type Outcome = (Vec<(u64, u32)>, Vec<Option<u64>>);

/// Each epoch's reads: a few hot slow pages, a wider warm set, some fast
/// residents (only the first 12 fast frames, so the others decay to zero
/// unless a promotion lands on them), and reads of frames outside every
/// module. Every third epoch reads only fast frames, so nothing is
/// promoted and every resident decays.
fn epoch_reads(rng: &mut DetRng, quiet: bool) -> Vec<u64> {
    let mut reads = Vec::new();
    let hot = FAST + rng.below(40);
    for _ in 0..rng.below(400) {
        let pfn = match rng.below(10) {
            _ if quiet => rng.below(12),
            0..3 => hot + rng.below(8),
            3..6 => FAST + rng.below(FRAMES - FAST),
            6..9 => rng.below(12),
            _ => FRAMES + rng.below(16),
        };
        reads.push(pfn);
    }
    reads
}

/// The resident heat both models hold, which must be the same.
fn same_residents(heat: &Heat, reference: &Reference, when: &str) -> Vec<(u64, u32)> {
    let got: Vec<(u64, u32)> = heat
        .resident
        .iter()
        .map(|&(p, h)| (u64::from(p), h))
        .collect();
    let want: Vec<(u64, u32)> = reference
        .resident_heat
        .iter()
        .map(|(&p, &h)| (p, h))
        .collect();
    assert_eq!(got, want, "{when}: resident heat");
    got
}

/// Drive both models through `epochs` epochs of `seed`'s traces with a
/// read log of `log` entries, shuffling each epoch's reads if `shuffle`,
/// and return what each epoch decided.
fn drive(seed: u64, epochs: usize, log: usize, shuffle: bool) -> Vec<Outcome> {
    let cfg = MigrationConfig {
        epoch_cycles: 1_000,
        max_moves_per_epoch: 6,
        heat_threshold: 3,
        fast_kinds: [ModuleKind::Rldram3, ModuleKind::Hbm],
    };
    let mut traces = DetRng::new(seed, 0);
    let mut order = DetRng::new(seed, 1);
    let mut heat = Heat::new(log);
    let mut reference = Reference::default();
    // Every slow frame is in use; the fast modules start with 8 free.
    let mut in_use: Vec<bool> = (0..FRAMES)
        .map(|p| !(FAST - 8..FAST).contains(&p))
        .collect();
    let mut outcomes = Vec::new();
    let (mut moves, mut swaps, mut zero_heat_epochs) = (0, 0, 0);
    for epoch in 0..epochs {
        let mut reads = epoch_reads(&mut traces, epoch % 3 == 2);
        if shuffle {
            for i in (1..reads.len()).rev() {
                reads.swap(i, narrow_usize(order.below(i as u64 + 1)));
            }
        }
        for &pfn in &reads {
            heat.record(narrow_u32(pfn));
            reference.read(pfn);
        }
        let candidates = heat.close_epoch(&cfg, kind_of);
        let want = reference.finish_epoch(&cfg);
        let got: Vec<(u64, u32)> = candidates.iter().map(|&(p, h)| (u64::from(p), h)).collect();
        assert_eq!(
            got, want,
            "seed {seed}, log {log}: candidates of epoch {epoch}"
        );
        let residents = same_residents(
            &heat,
            &reference,
            &format!("seed {seed}, log {log}: epoch {epoch}"),
        );
        zero_heat_epochs += usize::from(residents.iter().any(|&(_, h)| h == 0));
        let mut moved = Vec::new();
        for &(pfn, h) in &candidates {
            let from = u64::from(pfn);
            // A free fast frame first, RLDRAM before HBM, as `Os::move_page_to`.
            if let Some(to) = (0..FAST).find(|&f| !in_use[narrow_usize(f)]) {
                in_use[narrow_usize(to)] = true;
                in_use[narrow_usize(from)] = false;
                heat.set_resident(narrow_u32(to), h);
                reference.assign(to, h);
                moved.push(Some(to));
                moves += 1;
                continue;
            }
            let victim = heat
                .coldest_resident(pfn, |v| in_use[narrow_usize(v)])
                .map(|(v, vh)| (u64::from(v), vh));
            assert_eq!(
                victim,
                reference.coldest(from, &in_use),
                "seed {seed}, log {log}: victim for {from} in epoch {epoch}"
            );
            match victim {
                Some((v, vh)) if vh * 2 < h => {
                    heat.set_resident(narrow_u32(v), h);
                    reference.assign(v, h);
                    moved.push(Some(v));
                    swaps += 1;
                }
                _ => moved.push(None),
            }
        }
        heat.recycle(candidates);
        let residents = same_residents(
            &heat,
            &reference,
            &format!("seed {seed}, log {log}: after epoch {epoch}'s moves"),
        );
        // Now and then a resident's frame is freed, so the victim filter
        // has work and a later move may land on a frame with stale heat.
        if epoch % 5 == 4 {
            let f = traces.below(FAST);
            in_use[narrow_usize(f)] = false;
        }
        outcomes.push((residents, moved));
    }
    assert!(
        moves >= 8 && swaps >= 20,
        "seed {seed}: {moves} moves, {swaps} swaps"
    );
    assert!(
        zero_heat_epochs >= 3,
        "seed {seed}: zero-heat residents after only {zero_heat_epochs} epochs"
    );
    outcomes
}

#[test]
fn flat_heat_tables_match_ordered_maps_for_any_log_length_and_read_order() {
    for seed in 1..=6 {
        let want = drive(seed, 30, READ_LOG, false);
        for (log, shuffle) in [(5, false), (5, true), (64, true), (READ_LOG, true)] {
            assert_eq!(
                drive(seed, 30, log, shuffle),
                want,
                "seed {seed}: log {log}, shuffled {shuffle}"
            );
        }
    }
}

#[test]
fn merge_add_sums_shared_pfns_and_inserts_new_ones_in_order() {
    let mut table = vec![(2, 1), (5, 1), (9, 1)];
    let adds = [(1, 4), (5, 2), (7, 3), (10, 1)];
    super::merge_add(&mut table, || adds.iter().copied());
    assert_eq!(table, vec![(1, 4), (2, 1), (5, 3), (7, 3), (9, 1), (10, 1)]);
    assert_eq!(
        table.capacity(),
        table.len(),
        "grown by exactly the new pfns"
    );
    super::merge_add(&mut table, || [(5, 1)].into_iter());
    assert_eq!(table[2], (5, 4));
    let mut empty = Vec::new();
    super::merge_add(&mut empty, || adds.iter().copied());
    assert_eq!(empty, adds);
}
