//! Top-down CPI-stack taxonomy and the opt-in per-object stall ledger.
//!
//! Every core cycle lands in exactly one of six exclusive [`Bucket`]s. The
//! core classifies each live cycle and each slept window once, by a fixed
//! priority (DESIGN.md §10): load-miss head stall first (the ROB head is an
//! incomplete LLC-missing load — the condition behind the classifier's
//! `stall_per_miss` inputs), then MSHR-full back-pressure on an unissued
//! head load, then committing, frontend-empty, ROB-full, and a residual
//! `other`. The counts live in the core's always-on `CoreStats`, whose
//! `cpi_stack()` assembles a [`CycleBuckets`] summing exactly to `cycles`.
//!
//! With attribution enabled, a [`CoreAttr`] ledger also charges load-miss
//! cycles to the named object owning the faulting address, split by serving
//! tier and stall mechanism. The ledger is *observational*: nothing in the
//! core reads it back, so enabling it never changes simulated behaviour
//! (the golden digests stay bit-identical either way).
//!
//! Tier and mechanism of a load-miss stall are only known when the DRAM
//! completion arrives, so cycles accrue against the load's *ticket* in a
//! pending list and move into the per-tag `[tier][mechanism]` table when
//! the system resolves the completion. Snapshots fold still-pending cycles
//! into the `unresolved` tier so per-object totals always reconcile.

use moca_common::ids::MemTag;
use moca_common::{Cycle, ModuleKind, TagCounters, TagTable};
use serde::{Deserialize, Serialize};

/// Serving-tier axis: the four DRAM technologies plus `unresolved` (the
/// load had not completed when the stats were frozen).
pub const TIER_COUNT: usize = 5;

/// Index of the `unresolved` tier.
pub const TIER_UNRESOLVED: usize = 4;

/// Dense tier index of a module kind (stable, matches [`ModuleKind::ALL`]).
pub fn tier_index(kind: ModuleKind) -> usize {
    match kind {
        ModuleKind::Ddr3 => 0,
        ModuleKind::Lpddr2 => 1,
        ModuleKind::Rldram3 => 2,
        ModuleKind::Hbm => 3,
    }
}

/// Display name of a tier index (matches [`ModuleKind::name`]).
pub fn tier_name(tier: usize) -> &'static str {
    match tier {
        0 => "DDR3",
        1 => "LPDDR2",
        2 => "RLDRAM",
        3 => "HBM",
        _ => "unresolved",
    }
}

/// Why a load-miss stall lasted as long as it did, judged from its DRAM
/// completion. MSHR-full back-pressure is *not* a mechanism here: a
/// retried load never entered the memory hierarchy, so it is a top-level
/// bucket of its own ([`CycleBuckets::mshr_full`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mechanism {
    /// Plain row-hit service with no queueing: the baseline access time.
    Service,
    /// The request waited in the controller's read queue.
    QueueWait,
    /// The access closed another row in its bank (row-buffer conflict).
    BankConflict,
    /// The request arrived while its channel was refreshing.
    Refresh,
    /// The load was still in flight when the stats were frozen.
    Unresolved,
}

/// Number of mechanisms.
pub const MECH_COUNT: usize = 5;

impl Mechanism {
    /// All mechanisms, in index order.
    pub const ALL: [Mechanism; MECH_COUNT] = [
        Mechanism::Service,
        Mechanism::QueueWait,
        Mechanism::BankConflict,
        Mechanism::Refresh,
        Mechanism::Unresolved,
    ];

    /// Dense index.
    pub fn index(self) -> usize {
        match self {
            Mechanism::Service => 0,
            Mechanism::QueueWait => 1,
            Mechanism::BankConflict => 2,
            Mechanism::Refresh => 3,
            Mechanism::Unresolved => 4,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Mechanism::Service => "service",
            Mechanism::QueueWait => "queue-wait",
            Mechanism::BankConflict => "bank-conflict",
            Mechanism::Refresh => "refresh",
            Mechanism::Unresolved => "unresolved",
        }
    }

    /// Classify one DRAM read completion. Priority: refresh exposure
    /// dominates (it delays everything behind it), then a row-buffer
    /// conflict, then any queueing, else plain service.
    pub fn classify(refresh_delayed: bool, bank_conflict: bool, queue_cycles: u64) -> Mechanism {
        if refresh_delayed {
            Mechanism::Refresh
        } else if bank_conflict {
            Mechanism::BankConflict
        } else if queue_cycles > 0 {
            Mechanism::QueueWait
        } else {
            Mechanism::Service
        }
    }
}

/// One exclusive CPI-stack bucket, in classification priority order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bucket {
    /// See [`CycleBuckets::load_miss`].
    LoadMiss,
    /// See [`CycleBuckets::mshr_full`].
    MshrFull,
    /// See [`CycleBuckets::committing`].
    Committing,
    /// See [`CycleBuckets::frontend_empty`].
    FrontendEmpty,
    /// See [`CycleBuckets::rob_full`].
    RobFull,
    /// See [`CycleBuckets::other`].
    Other,
}

/// The exclusive top-level CPI-stack buckets. Invariant: the six fields
/// sum exactly to the core's `cycles` counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleBuckets {
    /// At least one instruction committed, and neither a load-miss head
    /// stall nor MSHR-full back-pressure held the cycle.
    pub committing: u64,
    /// The ROB head was an incomplete LLC-missing load (the core keeps
    /// this bucket as `CoreStats::head_stall_cycles`).
    pub load_miss: u64,
    /// The head was an unissued load and issue stopped on a full MSHR
    /// file this cycle.
    pub mshr_full: u64,
    /// Nothing committed and the ROB was full.
    pub rob_full: u64,
    /// The ROB was empty (frontend could not supply work).
    pub frontend_empty: u64,
    /// None of the above (e.g. head not done for non-miss reasons).
    pub other: u64,
}

impl CycleBuckets {
    /// Sum of all buckets — must equal the core's total cycles.
    pub fn total(&self) -> u64 {
        self.committing
            + self.load_miss
            + self.mshr_full
            + self.rob_full
            + self.frontend_empty
            + self.other
    }

    /// `(name, value)` pairs in display order.
    pub fn entries(&self) -> [(&'static str, u64); 6] {
        [
            ("committing", self.committing),
            ("load_miss", self.load_miss),
            ("mshr_full", self.mshr_full),
            ("rob_full", self.rob_full),
            ("frontend_empty", self.frontend_empty),
            ("other", self.other),
        ]
    }
}

/// Load-miss stall attribution for one tag: cycles by `[tier][mechanism]`
/// plus the MSHR-full cycles charged while this tag's load could not even
/// issue.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TagAttr {
    stall: Vec<u64>,
    /// Cycles the head was this tag's load blocked behind a full MSHR
    /// file (top-level bucket, kept per tag for reports).
    pub mshr_full_cycles: u64,
}

impl Default for TagAttr {
    fn default() -> TagAttr {
        TagAttr {
            stall: vec![0; TIER_COUNT * MECH_COUNT],
            mshr_full_cycles: 0,
        }
    }
}

impl TagAttr {
    /// Stall cycles attributed to `(tier, mechanism)`.
    pub fn get(&self, tier: usize, mech: Mechanism) -> u64 {
        self.stall[tier * MECH_COUNT + mech.index()]
    }

    /// Add stall cycles to `(tier, mechanism)`.
    pub fn add(&mut self, tier: usize, mech: Mechanism, cycles: u64) {
        self.stall[tier * MECH_COUNT + mech.index()] += cycles;
    }

    /// Total load-miss stall cycles over every tier and mechanism. By
    /// construction this equals the tag's `rob_head_stall_cycles`.
    pub fn total_stall(&self) -> u64 {
        self.stall.iter().sum()
    }

    /// Stall cycles per tier (summed over mechanisms).
    pub fn per_tier(&self) -> [u64; TIER_COUNT] {
        let mut out = [0u64; TIER_COUNT];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.stall[i * MECH_COUNT..(i + 1) * MECH_COUNT]
                .iter()
                .sum();
        }
        out
    }

    /// Stall cycles per mechanism (summed over tiers).
    #[cfg(test)]
    fn per_mechanism(&self) -> [u64; MECH_COUNT] {
        let mut out = [0u64; MECH_COUNT];
        for (i, v) in self.stall.iter().enumerate() {
            out[i % MECH_COUNT] += v;
        }
        out
    }

    /// Tier with the most attributed stall (ties break toward the lowest
    /// index; `TIER_UNRESOLVED` if the tag has no resolved stall at all).
    pub fn dominant_tier(&self) -> usize {
        let per = self.per_tier();
        let mut best = TIER_UNRESOLVED;
        let mut best_v = 0u64;
        for (i, &v) in per.iter().enumerate().take(TIER_UNRESOLVED) {
            if v > best_v {
                best = i;
                best_v = v;
            }
        }
        best
    }
}

impl TagCounters for TagAttr {
    fn merge(&mut self, other: &TagAttr) {
        for (a, b) in self.stall.iter_mut().zip(other.stall.iter()) {
            *a += b;
        }
        self.mshr_full_cycles += other.mshr_full_cycles;
    }
}

/// Per-tag stall ledger: heap objects by dense id plus one slot per static
/// segment, the same table the core keeps its profiling counters in.
pub type AttrTagTable = TagTable<TagAttr>;

/// One head-stall accrual awaiting its completion's tier/mechanism.
#[derive(Debug, Clone, Copy)]
struct PendingStall {
    ticket: u64,
    tag: MemTag,
    cycles: u64,
}

/// Working attribution state owned by one core. All methods are
/// allocation-light and safe to call from the core's tick path; the state
/// is strictly write-only with respect to the simulation (nothing in the
/// core reads it back to make decisions).
#[derive(Debug, Clone, Default)]
pub struct CoreAttr {
    /// Resolved per-tag stall attribution.
    pub tags: AttrTagTable,
    pending: Vec<PendingStall>,
    completed: Vec<(u64, u64)>,
}

impl CoreAttr {
    /// Fresh, zeroed state.
    pub fn new() -> CoreAttr {
        CoreAttr::default()
    }

    /// Charge `cycles` of load-miss head stall against in-flight load
    /// `ticket` owning `tag`. Tier/mechanism are unknown until the
    /// completion resolves, so the cycles accrue in a pending list.
    pub fn charge_load_miss(&mut self, ticket: u64, tag: MemTag, cycles: u64) {
        if let Some(p) = self.pending.iter_mut().find(|p| p.ticket == ticket) {
            p.cycles += cycles;
        } else {
            self.pending.push(PendingStall {
                ticket,
                tag,
                cycles,
            });
        }
    }

    /// Record that `ticket` (ROB sequence `seq`) completed this cycle,
    /// before the core's tick classified it. Lets the tick's skipped-window
    /// accounting find the ticket of an already-completed head load.
    pub fn note_completion(&mut self, ticket: u64, seq: u64) {
        self.completed.push((ticket, seq));
    }

    /// Ticket of an already-completed ROB entry `seq`, if it completed at
    /// the current cycle.
    pub fn completed_ticket_of(&self, seq: u64) -> Option<u64> {
        self.completed
            .iter()
            .find(|&&(_, s)| s == seq)
            .map(|&(t, _)| t)
    }

    /// Forget this cycle's completion notes (call at the end of a tick).
    pub fn end_tick(&mut self) {
        self.completed.clear();
    }

    /// Move `ticket`'s accrued stall into the per-tag table under
    /// `(tier, mechanism)`. No-op if the ticket never accrued stall.
    pub fn resolve(&mut self, ticket: u64, tier: usize, mech: Mechanism) {
        if let Some(i) = self.pending.iter().position(|p| p.ticket == ticket) {
            let p = self.pending.swap_remove(i);
            self.tags.get_mut(p.tag).add(tier, mech, p.cycles);
        }
    }

    /// Load-miss cycles accrued but not yet resolved to a tier.
    #[cfg(test)]
    fn pending_cycles(&self) -> u64 {
        self.pending.iter().map(|p| p.cycles).sum()
    }

    /// Frozen per-tag ledger: pending accruals fold into the `unresolved`
    /// tier so per-tag totals reconcile exactly with
    /// `rob_head_stall_cycles`.
    pub fn snapshot(&self) -> AttrTagTable {
        let mut tags = self.tags.clone();
        for p in &self.pending {
            tags.get_mut(p.tag)
                .add(TIER_UNRESOLVED, Mechanism::Unresolved, p.cycles);
        }
        tags
    }

    /// Zero every counter (used when warmup stats are discarded).
    pub fn reset(&mut self) {
        self.tags = AttrTagTable::default();
        self.pending.clear();
        self.completed.clear();
    }
}

/// One occupancy-timeline point, sampled at a metrics-window boundary:
/// free-frame headroom per module kind plus cumulative migration counts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OccupancySample {
    /// Cycle the sample was taken at (window end).
    pub at: Cycle,
    /// `(module-kind name, free frames)` for each kind present.
    pub free_frames: Vec<(String, u64)>,
    /// Cumulative pages promoted by the migration engine so far.
    pub promotions: u64,
    /// Cumulative pages demoted so far.
    pub demotions: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use moca_common::{ObjectId, Segment};

    fn heap(id: u32) -> MemTag {
        MemTag::heap(ObjectId(id))
    }

    #[test]
    fn buckets_total_sums_all_fields() {
        let b = CycleBuckets {
            committing: 1,
            load_miss: 2,
            mshr_full: 3,
            rob_full: 4,
            frontend_empty: 5,
            other: 6,
        };
        assert_eq!(b.total(), 21);
        assert_eq!(b.entries().iter().map(|(_, v)| v).sum::<u64>(), 21);
    }

    #[test]
    fn mechanism_classification_priority() {
        use Mechanism::*;
        assert_eq!(Mechanism::classify(true, true, 5), Refresh);
        assert_eq!(Mechanism::classify(false, true, 5), BankConflict);
        assert_eq!(Mechanism::classify(false, false, 5), QueueWait);
        assert_eq!(Mechanism::classify(false, false, 0), Service);
        for m in Mechanism::ALL {
            assert_eq!(Mechanism::ALL[m.index()], m);
        }
    }

    #[test]
    fn tier_index_round_trips_names() {
        for kind in ModuleKind::ALL {
            assert_eq!(tier_name(tier_index(kind)), kind.name());
        }
        assert_eq!(tier_name(TIER_UNRESOLVED), "unresolved");
    }

    #[test]
    fn charge_resolve_moves_cycles_to_tag_table() {
        let mut a = CoreAttr::new();
        a.charge_load_miss(7, heap(0), 10);
        a.charge_load_miss(7, heap(0), 5);
        a.charge_load_miss(9, heap(1), 3);
        assert_eq!(a.pending_cycles(), 18);
        a.resolve(7, tier_index(ModuleKind::Hbm), Mechanism::QueueWait);
        assert_eq!(a.pending_cycles(), 3);
        assert_eq!(
            a.tags
                .object(ObjectId(0))
                .get(tier_index(ModuleKind::Hbm), Mechanism::QueueWait),
            15
        );
        // Resolving an unknown ticket is a no-op.
        a.resolve(42, 0, Mechanism::Service);
        assert_eq!(a.pending_cycles(), 3);
    }

    #[test]
    fn snapshot_folds_pending_into_unresolved() {
        let mut a = CoreAttr::new();
        a.charge_load_miss(1, heap(2), 4);
        a.resolve(1, 0, Mechanism::Service);
        a.charge_load_miss(2, heap(2), 6);
        let snap = a.snapshot();
        let t = snap.object(ObjectId(2));
        assert_eq!(t.total_stall(), 10);
        assert_eq!(t.get(TIER_UNRESOLVED, Mechanism::Unresolved), 6);
        // The working state is untouched: pending still pending.
        assert_eq!(a.pending_cycles(), 6);
        assert_eq!(a.tags.object(ObjectId(2)).total_stall(), 4);
    }

    #[test]
    fn completion_notes_clear_at_end_of_tick() {
        let mut a = CoreAttr::new();
        a.note_completion(11, 3);
        assert_eq!(a.completed_ticket_of(3), Some(11));
        assert_eq!(a.completed_ticket_of(4), None);
        a.end_tick();
        assert_eq!(a.completed_ticket_of(3), None);
    }

    #[test]
    fn dominant_tier_and_axis_sums() {
        let mut t = TagAttr::default();
        t.add(0, Mechanism::Service, 2);
        t.add(3, Mechanism::Refresh, 9);
        t.add(3, Mechanism::QueueWait, 1);
        assert_eq!(t.dominant_tier(), 3);
        assert_eq!(t.per_tier()[3], 10);
        assert_eq!(t.per_mechanism()[Mechanism::Refresh.index()], 9);
        assert_eq!(t.total_stall(), 12);
        let empty = TagAttr::default();
        assert_eq!(empty.dominant_tier(), TIER_UNRESOLVED);
    }

    #[test]
    fn segment_and_object_routing_matches_tag_table() {
        let mut table = AttrTagTable::default();
        table.get_mut(heap(1)).add(0, Mechanism::Service, 5);
        table
            .get_mut(MemTag::segment(Segment::Stack))
            .add(1, Mechanism::QueueWait, 2);
        assert_eq!(table.object(ObjectId(1)).total_stall(), 5);
        assert_eq!(table.object(ObjectId(0)).total_stall(), 0);
        assert_eq!(table.segment(Segment::Stack).total_stall(), 2);
        assert_eq!(table.segment(Segment::Heap).total_stall(), 5);
        assert_eq!(table.total().total_stall(), 7);
        assert_eq!(table.objects(), 2);
    }
}
