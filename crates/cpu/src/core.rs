//! The out-of-order engine.

use crate::instr::{Instr, InstrStream};
use crate::stats::CoreStats;
use moca_common::ids::MemTag;
use moca_common::{CoreId, Cycle, Segment, VirtAddr};
use moca_telemetry::attribution::{AttrTagTable, Bucket, CoreAttr, Mechanism};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::num::NonZeroU64;

/// Microarchitectural parameters (Table I defaults).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Fetch/dispatch/issue/commit width.
    pub width: usize,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Load-queue entries.
    pub lq_entries: usize,
    /// Front-end redirect penalty on a branch mispredict (stands in for the
    /// tournament predictor + 4K BTB of Table I).
    pub mispredict_penalty: Cycle,
    /// Base of the code segment for synthesized fetch PCs.
    pub code_base: u64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            width: 3,
            rob_entries: 84,
            lq_entries: 32,
            mispredict_penalty: 12,
            code_base: 0x0040_0000,
        }
    }
}

/// Reply of the memory hierarchy to a load or instruction fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemReply {
    /// Serviced by a cache: data ready at `ready_at`.
    Done {
        /// Completion cycle.
        ready_at: Cycle,
    },
    /// LLC miss: the request went toward DRAM and will be completed via
    /// [`Core::complete`] with `ticket`.
    Pending {
        /// Token the hierarchy will complete with.
        ticket: u64,
        /// True if this allocated a new L2 MSHR (a *primary* miss — the
        /// event hardware LLC-miss counters count); false when merged into
        /// an outstanding miss for the same line.
        primary: bool,
    },
    /// Structural hazard (MSHR or queue full): retry next cycle.
    Retry {
        /// True when the hazard was a full L2 MSHR file (as opposed to a
        /// full DRAM channel queue) — feeds the MSHR-full CPI bucket.
        mshr_full: bool,
    },
}

/// Reply to a store (fire-and-forget through the store buffer).
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreReply {
    /// The store missed the LLC with a new MSHR allocation.
    pub primary_miss: bool,
}

/// Interface the core uses to reach its memory hierarchy.
pub trait MemPort {
    /// Issue a load.
    fn load(&mut self, now: Cycle, core: CoreId, va: VirtAddr, tag: MemTag) -> MemReply;
    /// Issue a store.
    fn store(&mut self, now: Cycle, core: CoreId, va: VirtAddr, tag: MemTag) -> StoreReply;
    /// Fetch an instruction line.
    fn ifetch(&mut self, now: Cycle, core: CoreId, va: VirtAddr) -> MemReply;
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    seq: u64,
    done: bool,
    ready_at: Cycle,
    is_load: bool,
    llc_miss: bool,
    tag: Option<MemTag>,
    /// Sequence number of the load whose address depends on this one. A
    /// chain links each load only to the previous load of its chain, so
    /// there is at most one; it is never 0, as it follows this entry.
    waiter: Option<NonZeroU64>,
}

#[derive(Debug, Clone, Copy)]
struct WaitingLoad {
    seq: u64,
    va: VirtAddr,
    tag: MemTag,
    dep_seq: Option<u64>,
    /// First cycle at which the dependence is resolved: 0 with no
    /// dependence (or a committed producer), the producer's `ready_at` once
    /// it is done, `Cycle::MAX` until then. The producer writes it when it
    /// completes (see [`Core::mark_done`]).
    dep_ready: Cycle,
}

/// One simulated core.
pub struct Core {
    /// Core identifier (used on memory requests).
    pub id: CoreId,
    cfg: CoreConfig,
    rob: VecDeque<RobEntry>,
    /// Dispatched, unissued loads in sequence order. Each holds a load
    /// queue entry, so there are at most `lq_entries`
    /// (≤ [`Core::MAX_LQ_ENTRIES`]) of them.
    waiting: Vec<WaitingLoad>,
    /// Bit `i` set: `waiting[i]`'s `dep_ready` is known. A clear bit marks
    /// a *parked* load, whose producer is still in flight
    /// (`dep_ready == Cycle::MAX`); the issue scan and
    /// `scan_min_dep_ready` walk only the set bits, and the producer's
    /// [`Core::mark_done`] sets the bit.
    known: u64,
    /// Exact minimum of `dep_ready` over `waiting` (`Cycle::MAX` when
    /// empty): no waiting load can issue before it, so the issue scan and
    /// `sleep_state` test one cycle instead of walking the list.
    min_dep_ready: Cycle,
    /// Outstanding miss tickets → ROB sequence numbers. A flat vector, not
    /// an ordered map: lookups are by exact ticket and the slot order is
    /// never observable, while the population (bounded by the L2 MSHR
    /// count) is small enough that a linear scan beats any tree.
    tickets: Vec<(u64, u64)>,
    ifetch_ticket: Option<u64>,
    lq_used: usize,
    next_seq: u64,
    /// Last load sequence number per dependence chain: an address-dependent
    /// load waits on the previous load *of its chain* (a pointer chase is
    /// one chain; unrelated loads interleaved by the OoO engine do not
    /// break it). Flat `(chain, seq)` pairs, exact-key lookups only.
    last_load_by_chain: Vec<(u16, u64)>,
    dispatch_blocked_until: Cycle,
    fetch_blocked_until: Cycle,
    pc: u64,
    fetched_line: u64,
    buffered: Option<Instr>,
    stream_done: bool,
    /// Cycle of the previous `tick` call, for event-skip-aware accounting.
    last_tick: Cycle,
    stats: CoreStats,
    /// Per-object stall ledger; `None` (the default) skips the ledger
    /// charges and changes nothing else — runs are bit-identical.
    attr: Option<Box<CoreAttr>>,
}

/// What one cycle, or one slept window, looked like to [`classify`].
#[derive(Debug, Clone, Copy)]
struct CycleView {
    /// The ROB head is an LLC-missing load that held commit back.
    head_miss: bool,
    /// Issue stopped on a full MSHR file with the head load unissued.
    mshr_blocked: bool,
    /// At least one instruction committed.
    committed: bool,
    /// Occupied ROB entries.
    rob_len: usize,
}

/// The CPI-stack bucket of one cycle, by the fixed priority of DESIGN.md
/// §10: load-miss > MSHR-full > committing > frontend-empty > ROB-full >
/// other. A slept window is one view on which nothing committed and no
/// load retried.
fn classify(v: CycleView, rob_entries: usize) -> Bucket {
    if v.head_miss {
        Bucket::LoadMiss
    } else if v.mshr_blocked {
        Bucket::MshrFull
    } else if v.committed {
        Bucket::Committing
    } else if v.rob_len == 0 {
        Bucket::FrontendEmpty
    } else if v.rob_len >= rob_entries {
        Bucket::RobFull
    } else {
        Bucket::Other
    }
}

impl Core {
    /// Largest `lq_entries`: one bit per waiting load in a `u64` mask.
    pub const MAX_LQ_ENTRIES: usize = 64;

    /// Build a core.
    pub fn new(id: CoreId, cfg: CoreConfig) -> Core {
        assert!(
            cfg.lq_entries <= Core::MAX_LQ_ENTRIES,
            "lq_entries {} exceeds the waiting-load mask",
            cfg.lq_entries
        );
        let pc = cfg.code_base;
        // Dispatch stops at `rob_entries`, so the ROB never regrows.
        let rob = VecDeque::with_capacity(cfg.rob_entries);
        Core {
            id,
            cfg,
            rob,
            waiting: Vec::new(),
            known: 0,
            min_dep_ready: Cycle::MAX,
            tickets: Vec::new(),
            ifetch_ticket: None,
            lq_used: 0,
            next_seq: 0,
            last_load_by_chain: Vec::new(),
            dispatch_blocked_until: 0,
            fetch_blocked_until: 0,
            pc,
            fetched_line: pc >> 6,
            buffered: None,
            stream_done: false,
            last_tick: 0,
            stats: CoreStats::default(),
            attr: None,
        }
    }

    /// Run statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Turn on the per-object stall ledger. Purely observational: it is
    /// charged from the same classification that feeds the always-on CPI
    /// stack, so the simulated cycles are identical with or without it.
    pub fn enable_attribution(&mut self) {
        if self.attr.is_none() {
            self.attr = Some(Box::new(CoreAttr::new()));
        }
    }

    /// Frozen per-object ledger (pending stalls folded into the
    /// `unresolved` tier), if attribution is enabled.
    pub fn attr_snapshot(&self) -> Option<AttrTagTable> {
        self.attr.as_deref().map(CoreAttr::snapshot)
    }

    /// Resolve the tier/mechanism of a completed load `ticket` (called by
    /// the system once the DRAM completion's serving channel is known).
    pub fn attr_resolve(&mut self, ticket: u64, tier: usize, mech: Mechanism) {
        if let Some(a) = self.attr.as_deref_mut() {
            a.resolve(ticket, tier, mech);
        }
    }

    /// Zero all statistics (end of a warmup/fast-forward phase, §V-A). The
    /// microarchitectural state (ROB contents, outstanding misses) is kept —
    /// only the counters restart.
    pub fn reset_stats(&mut self) {
        self.stats = CoreStats::default();
        if let Some(a) = self.attr.as_deref_mut() {
            a.reset();
        }
    }

    /// Whether the program has fully drained.
    pub fn finished(&self) -> bool {
        self.stream_done && self.rob.is_empty() && self.buffered.is_none()
    }

    /// Instructions committed so far.
    pub fn committed(&self) -> u64 {
        self.stats.committed
    }

    /// Outstanding load/store-fill tickets as `(ticket, rob_seq)` pairs —
    /// the requests this core is waiting on. Evidence for the event-skip
    /// deadlock report.
    pub fn outstanding_tickets(&self) -> &[(u64, u64)] {
        &self.tickets
    }

    /// The outstanding instruction-fetch ticket, if any.
    pub fn pending_ifetch_ticket(&self) -> Option<u64> {
        self.ifetch_ticket
    }

    /// Sequence number of the ROB head (the instruction the core must
    /// commit next), if the ROB is non-empty.
    pub fn rob_head_seq(&self) -> Option<u64> {
        self.rob.front().map(|e| e.seq)
    }

    /// Occupied ROB entries.
    pub fn rob_len(&self) -> usize {
        self.rob.len()
    }

    /// Whether the core is quiescent waiting only on outstanding memory
    /// (used for event skipping): no commit/dispatch possible before the
    /// earliest outstanding completion.
    pub fn blocked_on_memory(&self, now: Cycle) -> bool {
        if self.finished() {
            return false;
        }
        // Any committable entry at the head?
        if let Some(h) = self.rob.front() {
            if h.done && h.ready_at <= now {
                return false;
            }
        }
        // Any waiting load that might issue (dependency resolved)?
        if self.resolved_loads(now).next().is_some() {
            return false;
        }
        // Room to dispatch?
        if self.can_dispatch_something(now) {
            return false;
        }
        true
    }

    /// Sequence numbers of the waiting (dispatched, unissued) loads whose
    /// address dependence has resolved by `now`, in dispatch order. Walks
    /// the list against the ROB: the scan reference for the issue stage,
    /// which reads cached wake cycles instead.
    pub fn resolved_loads(&self, now: Cycle) -> impl Iterator<Item = u64> + '_ {
        self.waiting
            .iter()
            .filter(move |w| self.dep_resolved(w.dep_seq, now))
            .map(|w| w.seq)
    }

    fn can_dispatch_something(&self, now: Cycle) -> bool {
        if self.stream_done && self.buffered.is_none() {
            return false;
        }
        if self.dispatch_blocked_until > now
            || self.fetch_blocked_until > now
            || self.ifetch_ticket.is_some()
        {
            return false;
        }
        self.rob.len() < self.cfg.rob_entries
    }

    /// Earliest future cycle at which this core could make progress without
    /// an external memory completion, or `None` if only a completion can
    /// unblock it.
    pub fn next_local_event(&self, now: Cycle) -> Option<Cycle> {
        let mut best: Option<Cycle> = None;
        let mut consider = |c: Cycle| {
            if c > now {
                best = Some(best.map_or(c, |b: Cycle| b.min(c)));
            }
        };
        if let Some(h) = self.rob.front() {
            if h.done {
                consider(h.ready_at);
            }
        }
        if self.dispatch_blocked_until > now {
            consider(self.dispatch_blocked_until);
        }
        if self.fetch_blocked_until > now {
            consider(self.fetch_blocked_until);
        }
        for w in &self.waiting {
            if let Some(dep) = w.dep_seq {
                if let Some(e) = self.find(dep) {
                    if e.done {
                        consider(e.ready_at);
                    }
                }
            }
        }
        best
    }

    /// Combined scheduler query for the event-skip path: `None` when the
    /// core can make progress at `now` (equivalent to
    /// `!blocked_on_memory(now)`); otherwise `Some(e)` where `e` is the
    /// earliest core-local cycle that could unblock it, or `Cycle::MAX`
    /// when only a memory completion can. O(1): the waiting loads enter
    /// through their cached minimum wake cycle instead of the list walks
    /// [`Core::blocked_on_memory`] and [`Core::next_local_event`] take;
    /// debug builds cross-check against both.
    pub fn sleep_state(&self, now: Cycle) -> Option<Cycle> {
        let state = self.sleep_state_impl(now);
        #[cfg(debug_assertions)]
        {
            debug_assert_eq!(
                self.min_dep_ready,
                self.scan_min_dep_ready(),
                "cached minimum dependence wake cycle went stale"
            );
            self.check_parked();
            debug_assert_eq!(
                state.is_some(),
                self.blocked_on_memory(now),
                "sleep_state blocked-bit diverged from blocked_on_memory"
            );
            if state.is_some() {
                debug_assert_eq!(
                    state,
                    Some(self.next_local_event(now).unwrap_or(Cycle::MAX)),
                    "sleep_state wake cycle diverged from next_local_event"
                );
            }
        }
        state
    }

    fn sleep_state_impl(&self, now: Cycle) -> Option<Cycle> {
        if self.finished() {
            return None;
        }
        let mut next = Cycle::MAX;
        if let Some(h) = self.rob.front() {
            if h.done {
                if h.ready_at <= now {
                    return None; // committable head
                }
                next = next.min(h.ready_at);
            }
        }
        if self.min_dep_ready <= now {
            return None; // a waiting load can issue
        }
        next = next.min(self.min_dep_ready);
        if self.can_dispatch_something(now) {
            return None;
        }
        if self.dispatch_blocked_until > now {
            next = next.min(self.dispatch_blocked_until);
        }
        if self.fetch_blocked_until > now {
            next = next.min(self.fetch_blocked_until);
        }
        Some(next)
    }

    /// ROB lookup by sequence number. Sequence numbers are handed out
    /// consecutively at dispatch and entries retire in order from the
    /// front, so entry `seq` lives at offset `seq - front.seq` — an O(1)
    /// index computation instead of a binary search.
    fn find(&self, seq: u64) -> Option<&RobEntry> {
        let front = self.rob.front()?.seq;
        let idx = usize::try_from(seq.checked_sub(front)?).ok()?;
        let hit = self.rob.get(idx).filter(|e| e.seq == seq);
        debug_assert_eq!(
            hit.map(|e| e.seq),
            {
                let i = self.rob.partition_point(|e| e.seq < seq);
                self.rob.get(i).filter(|e| e.seq == seq).map(|e| e.seq)
            },
            "dense ROB index diverged from binary search"
        );
        hit
    }

    fn find_mut(&mut self, seq: u64) -> Option<&mut RobEntry> {
        let front = self.rob.front()?.seq;
        let idx = usize::try_from(seq.checked_sub(front)?).ok()?;
        self.rob.get_mut(idx).filter(|e| e.seq == seq)
    }

    /// Scan-based reference for a waiting load's cached `dep_ready`
    /// (debug cross-checks, [`Core::blocked_on_memory`]).
    fn dep_resolved(&self, dep: Option<u64>, now: Cycle) -> bool {
        match dep {
            None => true,
            Some(seq) => match self.find(seq) {
                None => true, // already committed
                Some(e) => e.done && e.ready_at <= now,
            },
        }
    }

    /// Deliver a memory completion for `ticket` (LLC-missing load or ifetch).
    pub fn complete(&mut self, ticket: u64, now: Cycle) {
        if self.ifetch_ticket == Some(ticket) {
            self.ifetch_ticket = None;
            self.fetch_blocked_until = now.max(self.fetch_blocked_until);
            return;
        }
        if let Some(pos) = self.tickets.iter().position(|&(t, _)| t == ticket) {
            let (_, seq) = self.tickets.swap_remove(pos);
            if let Some(a) = self.attr.as_deref_mut() {
                // The skipped-window accounting in the next tick may still
                // need this ticket (the head load completed *at* `now`).
                a.note_completion(ticket, seq);
            }
            self.mark_done(seq, now);
        }
    }

    /// Minimum `dep_ready` over the waiting list (`Cycle::MAX` when empty):
    /// the known entries only, as a parked one holds `Cycle::MAX`. Stops at
    /// the first 0 (an independent load), which a streaming core usually
    /// keeps at the front of the list.
    fn scan_min_dep_ready(&self) -> Cycle {
        let mut min = Cycle::MAX;
        let mut bits = self.known;
        while bits != 0 {
            min = min.min(self.waiting[bits.trailing_zeros() as usize].dep_ready);
            if min == 0 {
                break;
            }
            bits &= bits - 1;
        }
        min
    }

    /// Debug check of the parked-load mask against the ROB: a set bit holds
    /// a known `dep_ready`; a clear bit (within the list) a parked load,
    /// whose `dep_ready` is `Cycle::MAX` and whose producer is still in the
    /// ROB, not done.
    #[cfg(debug_assertions)]
    fn check_parked(&self) {
        debug_assert!(
            self.waiting.len() == Core::MAX_LQ_ENTRIES || self.known >> self.waiting.len() == 0,
            "known-load mask has bits past the waiting list"
        );
        for (i, w) in self.waiting.iter().enumerate() {
            if self.known >> i & 1 == 1 {
                debug_assert!(
                    w.dep_ready != Cycle::MAX,
                    "known load {} has no wake cycle",
                    w.seq
                );
                continue;
            }
            debug_assert_eq!(
                w.dep_ready,
                Cycle::MAX,
                "parked load {} has a wake cycle",
                w.seq
            );
            let producer = w.dep_seq.and_then(|p| self.find(p));
            debug_assert!(
                producer.is_some_and(|e| !e.done),
                "parked load {} has no producer in flight",
                w.seq
            );
        }
    }

    /// Remove `waiting[i]` (an issued load) and close its gap in `known`:
    /// the bits above `i` move down one place.
    fn unwait(&mut self, i: usize) {
        self.waiting.remove(i);
        let below = (1u64 << i) - 1;
        self.known = (self.known & below) | ((self.known >> 1) & !below);
    }

    /// Mark load `seq` done with data at `ready_at`, and hand that cycle to
    /// the load waiting on its address, if any.
    fn mark_done(&mut self, seq: u64, ready_at: Cycle) {
        let Some(e) = self.find_mut(seq) else { return };
        e.done = true;
        e.ready_at = ready_at;
        let Some(waiter) = e.waiter.map(NonZeroU64::get) else {
            return;
        };
        // `waiting` is in dispatch (sequence) order, and a waiter cannot
        // issue before its producer is done, so it is still in the list.
        let i = self.waiting.partition_point(|w| w.seq < waiter);
        debug_assert_eq!(self.waiting.get(i).map(|w| w.seq), Some(waiter));
        if let Some(w) = self.waiting.get_mut(i).filter(|w| w.seq == waiter) {
            w.dep_ready = ready_at;
            self.known |= 1 << i;
            self.min_dep_ready = self.min_dep_ready.min(ready_at);
        }
    }

    /// Charge `cycles` spent behind the current ROB head to `bucket`: the
    /// only place a CPI-stack bucket or a head-stall counter grows.
    /// Load-miss cycles also go to the head's tag.
    #[inline]
    fn charge(&mut self, bucket: Bucket, cycles: u64) {
        let s = &mut self.stats;
        match bucket {
            Bucket::Committing => s.cpi_committing += cycles,
            Bucket::LoadMiss => {
                s.head_stall_cycles += cycles;
                if let Some(tag) = self.rob.front().and_then(|h| h.tag) {
                    s.tags.get_mut(tag).rob_head_stall_cycles += cycles;
                }
            }
            Bucket::MshrFull => s.cpi_mshr_full += cycles,
            Bucket::FrontendEmpty => s.cpi_frontend_empty += cycles,
            Bucket::RobFull => s.cpi_rob_full += cycles,
            Bucket::Other => s.cpi_other += cycles,
        }
        if self.attr.is_some() && matches!(bucket, Bucket::LoadMiss | Bucket::MshrFull) {
            self.charge_ledger(bucket, cycles);
        }
    }

    /// The per-object ledger's share of a [`Core::charge`] (attribution
    /// on): load-miss cycles accrue against the head load's ticket
    /// (outstanding, or completed this cycle), MSHR-full cycles against
    /// its tag.
    #[cold]
    fn charge_ledger(&mut self, bucket: Bucket, cycles: u64) {
        let head = self.rob.front().and_then(|h| Some((h.seq, h.tag?)));
        let (Some(a), Some((seq, tag))) = (self.attr.as_deref_mut(), head) else {
            return;
        };
        if bucket == Bucket::MshrFull {
            a.tags.get_mut(tag).mshr_full_cycles += cycles;
            return;
        }
        let ticket = self
            .tickets
            .iter()
            .find(|&&(_, s)| s == seq)
            .map(|&(t, _)| t)
            .or_else(|| a.completed_ticket_of(seq));
        if let Some(ticket) = ticket {
            a.charge_load_miss(ticket, tag, cycles);
        }
    }

    /// Advance to cycle `now`: commit, account head stalls, issue waiting
    /// loads, dispatch new instructions. The simulator may skip cycles when
    /// every core is blocked on memory (event skipping); accounting uses the
    /// real elapsed time so IPC and ROB-head stalls are exact.
    pub fn tick<P: MemPort, S: InstrStream>(&mut self, now: Cycle, port: &mut P, stream: &mut S) {
        self.tick_gated(now, 0, port, stream)
    }

    /// [`Core::tick`] for a wake-gated step loop. `skipped_live` is the
    /// number of cycles since the last tick on which the machine stepped
    /// but this core slept (an ungated loop would have ticked it; a
    /// globally event-skipped window passes 0, like [`Core::tick`]). The
    /// only architectural counter those omitted ticks would have touched
    /// beyond the skipped-window accounting below is the dispatch stage's
    /// ROB-full counter, reproduced here under the dispatch stage's own
    /// entry conditions — all invariant across a slept window.
    pub fn tick_gated<P: MemPort, S: InstrStream>(
        &mut self,
        now: Cycle,
        skipped_live: u64,
        port: &mut P,
        stream: &mut S,
    ) {
        let prev_tick = self.last_tick;
        let elapsed = now.saturating_sub(self.last_tick).max(1);
        self.last_tick = now;
        self.stats.cycles += elapsed;
        // Cycles skipped since the last tick were spent blocked in the
        // state the ROB still holds (pre-commit): one classification
        // covers the whole window.
        if elapsed > 1 {
            // Cycles on which the machine stepped while this core slept:
            // the dispatch stage would have entered (blocked-untils passed,
            // no fetch in flight) and charged its ROB-full counter before
            // discovering there was no room. The ROB, the in-flight fetch,
            // and the untils cannot change while the core sleeps, so the
            // per-cycle conditions hold for the whole window.
            if skipped_live > 0
                && self.rob.len() >= self.cfg.rob_entries
                && self.ifetch_ticket.is_none()
                && self.dispatch_blocked_until <= prev_tick
                && self.fetch_blocked_until <= prev_tick
            {
                self.stats.rob_full_cycles += skipped_live;
            }
            let window = CycleView {
                head_miss: self.rob.front().is_some_and(|h| h.is_load && h.llc_miss),
                mshr_blocked: false,
                committed: false,
                rob_len: self.rob.len(),
            };
            self.charge(classify(window, self.cfg.rob_entries), elapsed - 1);
        }

        // ---- Commit stage ----
        let mut committed_this_cycle = 0;
        while committed_this_cycle < self.cfg.width {
            if !self
                .rob
                .front()
                .is_some_and(|h| h.done && h.ready_at <= now)
            {
                break;
            }
            let Some(h) = self.rob.pop_front() else { break };
            if h.is_load {
                self.lq_used -= 1;
            }
            self.stats.committed += 1;
            committed_this_cycle += 1;
        }
        // ROB-head stall: commit stopped at an incomplete missing load.
        // Judged before the issue stage, which may issue the head.
        let head_miss = committed_this_cycle < self.cfg.width
            && self
                .rob
                .front()
                .is_some_and(|h| h.is_load && h.llc_miss && !(h.done && h.ready_at <= now));

        // ---- Issue stage: waiting loads whose dependencies resolved ----
        // Skipped outright while no cached dependence wake cycle has
        // arrived: nothing in the list could issue. Otherwise walks the
        // known loads in sequence order; parked ones cannot issue.
        let mut issued = 0;
        let mut mshr_retry = false;
        debug_assert!(
            self.min_dep_ready <= now || self.resolved_loads(now).next().is_none(),
            "issue scan skipped with a resolved waiting load"
        );
        // Position of the next entry to consider.
        let mut i = 0;
        while self.min_dep_ready <= now && issued < self.cfg.width {
            let ahead = self.known.checked_shr(i as u32).unwrap_or(0);
            if ahead == 0 {
                break;
            }
            i += ahead.trailing_zeros() as usize;
            let w = self.waiting[i];
            debug_assert_eq!(
                w.dep_ready <= now,
                self.dep_resolved(w.dep_seq, now),
                "cached dependence wake cycle diverged from the ROB"
            );
            if w.dep_ready > now {
                i += 1;
                continue;
            }
            match port.load(now, self.id, w.va, w.tag) {
                MemReply::Done { ready_at } => {
                    self.mark_done(w.seq, ready_at.max(now + 1));
                    self.unwait(i);
                    issued += 1;
                }
                MemReply::Pending { ticket, primary } => {
                    let s = self.stats.tags.get_mut(w.tag);
                    s.miss_loads += 1;
                    if primary {
                        s.llc_misses += 1;
                    }
                    if let Some(e) = self.find_mut(w.seq) {
                        e.llc_miss = true;
                    }
                    self.tickets.push((ticket, w.seq));
                    self.unwait(i);
                    issued += 1;
                }
                MemReply::Retry { mshr_full } => {
                    // Structural hazard: stop issuing this cycle.
                    mshr_retry = mshr_full;
                    break;
                }
            }
        }
        if issued > 0 {
            self.min_dep_ready = self.scan_min_dep_ready();
        }

        // ---- CPI stack: this cycle lands in exactly one bucket ----
        // The skipped window was charged at the top of the tick, so the
        // buckets sum to `stats.cycles` exactly.
        let cycle = CycleView {
            head_miss,
            // An issued head load is either done (hit) or llc_miss
            // (pending), so "unissued" is the remaining load state.
            mshr_blocked: mshr_retry
                && self
                    .rob
                    .front()
                    .is_some_and(|h| h.is_load && !h.done && !h.llc_miss),
            committed: committed_this_cycle > 0,
            rob_len: self.rob.len(),
        };
        self.charge(classify(cycle, self.cfg.rob_entries), 1);
        if let Some(attr) = self.attr.as_deref_mut() {
            attr.end_tick();
        }

        // ---- Dispatch stage ----
        if self.dispatch_blocked_until > now
            || self.fetch_blocked_until > now
            || self.ifetch_ticket.is_some()
        {
            return;
        }
        let mut dispatched = 0;
        while dispatched < self.cfg.width {
            if self.rob.len() >= self.cfg.rob_entries {
                self.stats.rob_full_cycles += 1;
                break;
            }
            let instr = match self.buffered.take().or_else(|| {
                if self.stream_done {
                    None
                } else {
                    let n = stream.next_instr();
                    if n.is_none() {
                        self.stream_done = true;
                    }
                    n
                }
            }) {
                Some(i) => i,
                None => break,
            };

            // Instruction fetch: crossing into a new line touches the I-side.
            let line = self.pc >> 6;
            if line != self.fetched_line {
                self.fetched_line = line;
                match port.ifetch(now, self.id, VirtAddr(self.pc)) {
                    MemReply::Done { ready_at } => {
                        if ready_at > now {
                            // Front-end hiccup: finish this instruction after
                            // the fetch returns.
                            self.fetch_blocked_until = ready_at;
                        }
                    }
                    MemReply::Pending { ticket, primary } => {
                        let s = self.stats.tags.get_mut(MemTag::segment(Segment::Code));
                        if primary {
                            s.llc_misses += 1;
                        }
                        s.accesses += 1;
                        self.ifetch_ticket = Some(ticket);
                    }
                    MemReply::Retry { .. } => {
                        // Retry the fetch next cycle; re-buffer the instr.
                        self.fetched_line = u64::MAX;
                        self.buffered = Some(instr);
                        break;
                    }
                }
            }

            let seq = self.next_seq;
            match instr {
                Instr::Compute => {
                    self.rob.push_back(RobEntry {
                        seq,
                        done: true,
                        ready_at: now + 1,
                        is_load: false,
                        llc_miss: false,
                        tag: None,
                        waiter: None,
                    });
                    self.pc += 4;
                }
                Instr::Branch { mispredict, target } => {
                    self.rob.push_back(RobEntry {
                        seq,
                        done: true,
                        ready_at: now + 1,
                        is_load: false,
                        llc_miss: false,
                        tag: None,
                        waiter: None,
                    });
                    self.pc = target.map_or(self.pc + 4, |t| t.0);
                    if mispredict {
                        self.stats.mispredicts += 1;
                        self.dispatch_blocked_until = now + self.cfg.mispredict_penalty;
                    }
                }
                Instr::Load {
                    va,
                    tag,
                    dependent,
                    chain,
                } => {
                    if self.lq_used >= self.cfg.lq_entries {
                        self.stats.lq_full_cycles += 1;
                        self.buffered = Some(instr);
                        break;
                    }
                    self.lq_used += 1;
                    self.stats.loads += 1;
                    self.stats.tags.get_mut(tag).accesses += 1;
                    self.rob.push_back(RobEntry {
                        seq,
                        done: false,
                        ready_at: Cycle::MAX,
                        is_load: true,
                        llc_miss: false,
                        tag: Some(tag),
                        waiter: None,
                    });
                    let dep_seq = if dependent {
                        self.last_load_by_chain
                            .iter()
                            .find(|&&(c, _)| c == chain)
                            .map(|&(_, s)| s)
                    } else {
                        None
                    };
                    // A producer still in flight records this load as its
                    // waiter and sets `dep_ready` when it completes.
                    let dep_ready = match dep_seq.and_then(|p| self.find_mut(p)) {
                        None => 0,
                        Some(e) if e.done => e.ready_at,
                        Some(e) => {
                            debug_assert!(e.waiter.is_none(), "load has two waiters");
                            e.waiter = NonZeroU64::new(seq);
                            Cycle::MAX
                        }
                    };
                    self.min_dep_ready = self.min_dep_ready.min(dep_ready);
                    if dep_ready != Cycle::MAX {
                        self.known |= 1 << self.waiting.len();
                    }
                    self.waiting.push(WaitingLoad {
                        seq,
                        va,
                        tag,
                        dep_seq,
                        dep_ready,
                    });
                    match self.last_load_by_chain.iter_mut().find(|e| e.0 == chain) {
                        Some(e) => e.1 = seq,
                        None => self.last_load_by_chain.push((chain, seq)),
                    }
                    self.pc += 4;
                }
                Instr::Store { va, tag } => {
                    self.stats.stores += 1;
                    let s = self.stats.tags.get_mut(tag);
                    s.accesses += 1;
                    let reply = port.store(now, self.id, va, tag);
                    if reply.primary_miss {
                        self.stats.tags.get_mut(tag).llc_misses += 1;
                    }
                    self.rob.push_back(RobEntry {
                        seq,
                        done: true,
                        ready_at: now + 1,
                        is_load: false,
                        llc_miss: false,
                        tag: Some(tag),
                        waiter: None,
                    });
                    self.pc += 4;
                }
            }
            self.next_seq += 1;
            dispatched += 1;
            if self.dispatch_blocked_until > now || self.fetch_blocked_until > now {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moca_common::ObjectId;

    /// Test hierarchy: every load misses and completes `latency` cycles
    /// later; ifetches and stores always hit.
    struct FakePort {
        latency: Cycle,
        next_ticket: u64,
        inflight: Vec<(u64, Cycle)>,
        max_inflight: usize,
        peak: usize,
    }

    impl FakePort {
        fn new(latency: Cycle) -> FakePort {
            FakePort {
                latency,
                next_ticket: 0,
                inflight: Vec::new(),
                max_inflight: usize::MAX,
                peak: 0,
            }
        }

        fn drain(&mut self, now: Cycle, core: &mut Core) {
            let mut i = 0;
            while i < self.inflight.len() {
                if self.inflight[i].1 <= now {
                    let (t, _) = self.inflight.swap_remove(i);
                    core.complete(t, now);
                } else {
                    i += 1;
                }
            }
        }
    }

    impl MemPort for FakePort {
        fn load(&mut self, now: Cycle, _core: CoreId, _va: VirtAddr, _tag: MemTag) -> MemReply {
            if self.inflight.len() >= self.max_inflight {
                return MemReply::Retry { mshr_full: true };
            }
            let ticket = self.next_ticket;
            self.next_ticket += 1;
            self.inflight.push((ticket, now + self.latency));
            self.peak = self.peak.max(self.inflight.len());
            MemReply::Pending {
                ticket,
                primary: true,
            }
        }

        fn store(&mut self, _now: Cycle, _core: CoreId, _va: VirtAddr, _tag: MemTag) -> StoreReply {
            StoreReply::default()
        }

        fn ifetch(&mut self, now: Cycle, _core: CoreId, _va: VirtAddr) -> MemReply {
            MemReply::Done { ready_at: now + 2 }
        }
    }

    fn run<S: InstrStream>(core: &mut Core, port: &mut FakePort, stream: &mut S, limit: Cycle) {
        let mut now = 0;
        while !core.finished() && now < limit {
            now += 1;
            port.drain(now, core);
            core.tick(now, port, stream);
        }
        assert!(core.finished(), "core did not finish within {limit} cycles");
    }

    fn loads(n: usize, dependent: bool) -> Vec<Instr> {
        (0..n)
            .map(|i| Instr::Load {
                va: VirtAddr(0x2000_0000 + (i as u64) * 64),
                tag: MemTag::heap(ObjectId(0)),
                dependent,
                chain: 0,
            })
            .collect()
    }

    #[test]
    fn compute_ipc_approaches_width() {
        let mut core = Core::new(CoreId(0), CoreConfig::default());
        let mut port = FakePort::new(100);
        let mut s = vec![Instr::Compute; 3000].into_iter();
        run(&mut core, &mut port, &mut s, 100_000);
        let ipc = core.stats().ipc();
        assert!(ipc > 2.0, "compute IPC too low: {ipc}");
        assert_eq!(core.stats().committed, 3000);
    }

    #[test]
    fn independent_loads_overlap() {
        let mut core = Core::new(CoreId(0), CoreConfig::default());
        let mut port = FakePort::new(100);
        let mut s = loads(64, false).into_iter();
        run(&mut core, &mut port, &mut s, 100_000);
        // With 32 LQ entries and 100-cycle misses, 64 loads should take
        // roughly 2-3 round trips, not 64.
        assert!(
            core.stats().cycles < 64 * 100 / 4,
            "no MLP: {} cycles",
            core.stats().cycles
        );
        assert!(port.peak > 8, "loads did not overlap: peak {}", port.peak);
    }

    #[test]
    fn dependent_loads_serialize() {
        let mut core = Core::new(CoreId(0), CoreConfig::default());
        let mut port = FakePort::new(100);
        let mut s = loads(32, true).into_iter();
        run(&mut core, &mut port, &mut s, 1_000_000);
        assert!(
            core.stats().cycles >= 32 * 100,
            "chased loads overlapped: {} cycles",
            core.stats().cycles
        );
        assert!(port.peak <= 2, "peak {} should be ~1", port.peak);
    }

    #[test]
    fn stall_per_miss_separates_mlp_regimes() {
        // The classifier's key signal: dependent chains show ~latency stall
        // per miss; independent streams show far less.
        let mut dep_core = Core::new(CoreId(0), CoreConfig::default());
        let mut port = FakePort::new(100);
        let mut s = loads(32, true).into_iter();
        run(&mut dep_core, &mut port, &mut s, 1_000_000);
        let dep_stall = dep_core.stats().tags.object(ObjectId(0)).stall_per_miss();

        let mut ind_core = Core::new(CoreId(0), CoreConfig::default());
        let mut port = FakePort::new(100);
        let mut s = loads(256, false).into_iter();
        run(&mut ind_core, &mut port, &mut s, 1_000_000);
        let ind_stall = ind_core.stats().tags.object(ObjectId(0)).stall_per_miss();

        assert!(
            dep_stall > ind_stall * 3.0,
            "dependent {dep_stall:.1} vs independent {ind_stall:.1}"
        );
    }

    #[test]
    fn lq_bounds_outstanding_loads() {
        let cfg = CoreConfig {
            lq_entries: 8,
            ..CoreConfig::default()
        };
        let mut core = Core::new(CoreId(0), cfg);
        let mut port = FakePort::new(50);
        let mut s = loads(64, false).into_iter();
        run(&mut core, &mut port, &mut s, 100_000);
        assert!(port.peak <= 8, "LQ leak: peak {}", port.peak);
        assert!(core.stats().lq_full_cycles > 0);
    }

    #[test]
    fn mispredicts_cost_cycles() {
        let clean: Vec<Instr> = (0..1000)
            .map(|i| {
                if i % 10 == 0 {
                    Instr::Branch {
                        mispredict: false,
                        target: None,
                    }
                } else {
                    Instr::Compute
                }
            })
            .collect();
        let noisy: Vec<Instr> = clean
            .iter()
            .map(|i| match i {
                Instr::Branch { .. } => Instr::Branch {
                    mispredict: true,
                    target: None,
                },
                other => *other,
            })
            .collect();
        let mut c1 = Core::new(CoreId(0), CoreConfig::default());
        let mut p1 = FakePort::new(10);
        run(&mut c1, &mut p1, &mut clean.into_iter(), 100_000);
        let mut c2 = Core::new(CoreId(0), CoreConfig::default());
        let mut p2 = FakePort::new(10);
        run(&mut c2, &mut p2, &mut noisy.into_iter(), 100_000);
        assert!(c2.stats().cycles > c1.stats().cycles * 2);
        assert_eq!(c2.stats().mispredicts, 100);
    }

    #[test]
    fn per_tag_attribution_is_exact() {
        let mut core = Core::new(CoreId(0), CoreConfig::default());
        let mut port = FakePort::new(20);
        let mut instrs = Vec::new();
        for i in 0..10 {
            instrs.push(Instr::Load {
                va: VirtAddr(0x2000_0000 + i * 64),
                tag: MemTag::heap(ObjectId(0)),
                dependent: false,
                chain: 0,
            });
            instrs.push(Instr::Store {
                va: VirtAddr(0x4000_0000 + i * 64),
                tag: MemTag::heap(ObjectId(1)),
            });
        }
        run(&mut core, &mut port, &mut instrs.into_iter(), 100_000);
        let o0 = core.stats().tags.object(ObjectId(0));
        let o1 = core.stats().tags.object(ObjectId(1));
        assert_eq!(o0.accesses, 10);
        assert_eq!(o0.llc_misses, 10);
        assert_eq!(o1.accesses, 10);
        assert_eq!(o1.llc_misses, 0); // FakePort stores never miss
        assert_eq!(core.stats().loads, 10);
        assert_eq!(core.stats().stores, 10);
    }

    #[test]
    fn retry_backpressure_does_not_lose_loads() {
        let mut core = Core::new(CoreId(0), CoreConfig::default());
        let mut port = FakePort::new(30);
        port.max_inflight = 2;
        let mut s = loads(40, false).into_iter();
        run(&mut core, &mut port, &mut s, 1_000_000);
        assert_eq!(core.stats().committed, 40);
        assert!(port.peak <= 2);
    }

    #[test]
    fn finished_only_after_drain() {
        let mut core = Core::new(CoreId(0), CoreConfig::default());
        let mut port = FakePort::new(500);
        let mut s = loads(1, false).into_iter();
        core.tick(1, &mut port, &mut s);
        core.tick(2, &mut port, &mut s);
        assert!(!core.finished(), "load still outstanding");
        port.drain(502, &mut core);
        core.tick(503, &mut port, &mut s);
        assert!(core.finished());
    }

    #[test]
    fn classifier_priority_edges() {
        use Bucket::*;
        let v = |head_miss, mshr_blocked, committed, rob_len| CycleView {
            head_miss,
            mshr_blocked,
            committed,
            rob_len,
        };
        let full = CoreConfig::default().rob_entries;
        for (view, want, why) in [
            (
                v(true, true, true, full),
                LoadMiss,
                "a missing head beats all",
            ),
            (
                v(true, false, true, 5),
                LoadMiss,
                "a missing head beats committing",
            ),
            (
                v(false, true, true, 5),
                MshrFull,
                "MSHR retry beats committing",
            ),
            (
                v(false, true, false, full),
                MshrFull,
                "MSHR retry beats ROB-full",
            ),
            (
                v(false, false, true, full),
                Committing,
                "committing beats ROB-full",
            ),
            (
                v(false, false, true, 0),
                Committing,
                "committing beats empty",
            ),
            (v(false, false, false, 0), FrontendEmpty, "empty ROB"),
            (v(false, false, false, full), RobFull, "full ROB"),
            (
                v(false, false, false, full + 1),
                RobFull,
                "over-full is full",
            ),
            (v(false, false, false, 5), Other, "residual"),
        ] {
            assert_eq!(classify(view, full), want, "{why}: {view:?}");
        }
    }

    #[test]
    fn attribution_buckets_sum_to_cycles() {
        // Every cycle lands in exactly one bucket, and with attribution on
        // the object ledger reproduces the per-tag head stall exactly.
        let mut core = Core::new(CoreId(0), CoreConfig::default());
        core.enable_attribution();
        let mut port = FakePort::new(60);
        port.max_inflight = 4; // force MSHR-full retries too
        let mut s = loads(48, false).into_iter();
        run(&mut core, &mut port, &mut s, 1_000_000);
        let stack = core.stats().cpi_stack();
        assert_eq!(stack.total(), core.stats().cycles);
        assert!(stack.load_miss > 0 && stack.committing > 0);
        let ledger = core.attr_snapshot().expect("attribution enabled");
        let o0 = core.stats().tags.object(ObjectId(0));
        assert_eq!(
            ledger.object(ObjectId(0)).total_stall(),
            o0.rob_head_stall_cycles
        );
        assert_eq!(ledger.total().total_stall(), stack.load_miss);
    }

    #[test]
    fn mshr_full_cycles_charge_the_blocked_head() {
        // A port that refuses every load until `open_at` models an MSHR
        // file held full by other requesters: the unissued head load's
        // stall cycles must land in the mshr_full bucket, per tag.
        struct GatedPort {
            open_at: Cycle,
            inner: FakePort,
        }
        impl MemPort for GatedPort {
            fn load(&mut self, now: Cycle, core: CoreId, va: VirtAddr, tag: MemTag) -> MemReply {
                if now < self.open_at {
                    return MemReply::Retry { mshr_full: true };
                }
                self.inner.load(now, core, va, tag)
            }
            fn store(&mut self, now: Cycle, core: CoreId, va: VirtAddr, tag: MemTag) -> StoreReply {
                self.inner.store(now, core, va, tag)
            }
            fn ifetch(&mut self, now: Cycle, core: CoreId, va: VirtAddr) -> MemReply {
                self.inner.ifetch(now, core, va)
            }
        }
        let mut core = Core::new(CoreId(0), CoreConfig::default());
        core.enable_attribution();
        let mut port = GatedPort {
            open_at: 50,
            inner: FakePort::new(10),
        };
        let mut s = loads(4, false).into_iter();
        let mut now = 0;
        while !core.finished() && now < 10_000 {
            now += 1;
            port.inner.drain(now, &mut core);
            core.tick(now, &mut port, &mut s);
        }
        assert!(core.finished());
        let stack = core.stats().cpi_stack();
        assert!(stack.mshr_full > 30, "{stack:?}");
        assert_eq!(stack.total(), core.stats().cycles);
        assert_eq!(
            core.attr_snapshot()
                .unwrap()
                .object(ObjectId(0))
                .mshr_full_cycles,
            stack.mshr_full
        );
    }

    #[test]
    fn attribution_does_not_change_simulation() {
        let run_once = |attr: bool| {
            let mut core = Core::new(CoreId(0), CoreConfig::default());
            if attr {
                core.enable_attribution();
            }
            let mut port = FakePort::new(80);
            let mut s = loads(32, true).into_iter();
            run(&mut core, &mut port, &mut s, 1_000_000);
            (
                core.stats().cycles,
                core.stats().committed,
                core.stats().cpi_stack(),
            )
        };
        assert_eq!(run_once(false), run_once(true));
    }

    #[test]
    fn blocked_on_memory_detected() {
        let mut core = Core::new(CoreId(0), CoreConfig::default());
        let mut port = FakePort::new(1000);
        let mut s = loads(1, true).into_iter();
        let mut now = 0;
        // Dispatch and issue the load, then exhaust local work.
        for _ in 0..5 {
            now += 1;
            core.tick(now, &mut port, &mut s);
        }
        assert!(core.blocked_on_memory(now));
        assert_eq!(core.next_local_event(now), None);
    }
}
