//! Per-core cache hierarchy: split L1s over a private unified L2, with the
//! L2 MSHRs gating traffic to the shared DRAM channels.
//!
//! The hierarchy performs cache state transitions eagerly and composes
//! latencies: L1 hit = 2 cycles, L2 hit = 22 cycles, L2 miss = DRAM
//! queue + service (delivered via completion). Memory access time is
//! measured at the controller, as in the paper. Writebacks and
//! store-allocate fills are fire-and-forget; they contend for channel
//! bandwidth but never block the pipeline (a deferred queue absorbs
//! full-queue backpressure).

use moca_cache::mshr::MshrOutcome;
use moca_cache::{CacheConfig, MshrFile, SetAssocCache, Victim};
use moca_common::ids::MemTag;
use moca_common::{AccessKind, CoreId, Cycle, LineAddr, PhysAddr, Segment};
use moca_cpu::{MemReply, StoreReply};
use moca_dram::{AddressMapper, Channel, Completion, MemRequest};
use std::collections::VecDeque;

/// What an outstanding DRAM read token is for.
#[derive(Debug, Clone, Copy)]
enum FillKind {
    /// A demand (load or ifetch) miss: fills caches and wakes MSHR waiters.
    Demand(LineAddr),
    /// A store-allocate line fetch: the caches were filled eagerly at issue;
    /// the read exists for timing/bandwidth/energy fidelity only.
    StoreFill,
}

#[derive(Debug, Clone, Copy)]
struct Deferred {
    line: LineAddr,
    kind: AccessKind,
    core: CoreId,
    tag: MemTag,
    token: u64,
}

/// One core's private L1I/L1D/L2 stack.
pub struct CoreHierarchy {
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    l2: SetAssocCache,
    l2_mshr: MshrFile<u64>,
    /// Outstanding DRAM read tokens → what their fill is for. Flat pairs
    /// rather than an ordered map: tokens are unique and looked up by exact
    /// value only, the population is bounded by the L2 MSHR count, and no
    /// iteration order is observable.
    outstanding: Vec<(u64, FillKind)>,
    /// Lines with a pending store merged into an in-flight demand miss: the
    /// eventual fill must install dirty. Flat, exact-membership-only set.
    pending_store_dirty: Vec<LineAddr>,
    deferred: VecDeque<Deferred>,
    l1_hit_latency: Cycle,
    l2_hit_latency: Cycle,
}

impl CoreHierarchy {
    /// Table I hierarchy.
    pub fn new() -> CoreHierarchy {
        let (l1i, l1d, l2) = (CacheConfig::l1i(), CacheConfig::l1d(), CacheConfig::l2());
        let l1_hit_latency = l1d.hit_latency;
        let l2_hit_latency = l1d.hit_latency + l2.hit_latency;
        let mshrs = l2.mshrs;
        CoreHierarchy {
            l1i: SetAssocCache::new(l1i),
            l1d: SetAssocCache::new(l1d),
            l2: SetAssocCache::new(l2),
            l2_mshr: MshrFile::new(mshrs),
            outstanding: Vec::new(),
            pending_store_dirty: Vec::new(),
            deferred: VecDeque::new(),
            l1_hit_latency,
            l2_hit_latency,
        }
    }

    /// Bytes of physical space every cache of a hierarchy can address with
    /// its 16-bit tags (2 GiB). [`crate::config::SystemConfig::validate`]
    /// refuses a larger memory system.
    pub fn addressable_bytes() -> u64 {
        [CacheConfig::l1i(), CacheConfig::l1d(), CacheConfig::l2()]
            .iter()
            .map(CacheConfig::addressable_bytes)
            .min()
            .expect("three caches")
    }

    /// L2 statistics (for MPKI cross-checks).
    pub fn l2_stats(&self) -> &moca_cache::CacheStats {
        self.l2.stats()
    }

    /// The L1 data cache (inspection/testing).
    pub fn l1d(&self) -> &SetAssocCache {
        &self.l1d
    }

    /// The L1 instruction cache (inspection/testing).
    pub fn l1i(&self) -> &SetAssocCache {
        &self.l1i
    }

    /// The unified L2 (inspection/testing).
    pub fn l2(&self) -> &SetAssocCache {
        &self.l2
    }

    /// Whether all queues and outstanding state are drained.
    pub fn is_idle(&self) -> bool {
        self.outstanding.is_empty() && self.deferred.is_empty()
    }

    /// Whether any deferred writeback/store-fill is queued (lets the system
    /// loop skip the per-cycle flush for quiescent hierarchies).
    pub fn has_deferred(&self) -> bool {
        !self.deferred.is_empty()
    }

    /// Enqueue a DRAM request, deferring on backpressure. `token` must be
    /// pre-registered in `outstanding` for reads that matter.
    fn send(&mut self, now: Cycle, channels: &mut [Channel], mapper: &AddressMapper, d: Deferred) {
        let (ch, local) = mapper.map(d.line);
        if channels[ch].can_accept(d.kind) {
            channels[ch].enqueue(
                now,
                MemRequest {
                    token: d.token,
                    line: d.line,
                    local_off: local,
                    kind: d.kind,
                    core: d.core,
                    tag: d.tag,
                },
            );
        } else {
            self.deferred.push_back(d);
        }
    }

    /// Retry deferred writebacks/store-fills. Call once per cycle.
    pub fn flush_deferred(&mut self, now: Cycle, channels: &mut [Channel], mapper: &AddressMapper) {
        while let Some(d) = self.deferred.front().copied() {
            let (ch, _) = mapper.map(d.line);
            if !channels[ch].can_accept(d.kind) {
                break;
            }
            self.deferred.pop_front();
            self.send(now, channels, mapper, d);
        }
    }

    /// Handle an L2 victim: enforce inclusion (drop L1 copies) and write
    /// back dirty data to DRAM.
    fn retire_l2_victim(
        &mut self,
        now: Cycle,
        channels: &mut [Channel],
        mapper: &AddressMapper,
        core: CoreId,
        victim: Victim,
    ) {
        let l1_dirty = self.l1d.invalidate(victim.line).unwrap_or(false);
        let l1i_present = self.l1i.invalidate(victim.line).is_some();
        let _ = l1i_present; // code lines are never dirty
        if victim.dirty || l1_dirty {
            self.send(
                now,
                channels,
                mapper,
                Deferred {
                    line: victim.line,
                    kind: AccessKind::Write,
                    core,
                    tag: MemTag::segment(Segment::Data),
                    token: 0,
                },
            );
        }
    }

    /// Handle an L1 victim: write back into the L2 (which may evict in turn).
    fn retire_l1_victim(
        &mut self,
        now: Cycle,
        channels: &mut [Channel],
        mapper: &AddressMapper,
        core: CoreId,
        victim: Victim,
    ) {
        if !victim.dirty {
            return;
        }
        if let Some(v2) = self.l2.writeback(victim.line) {
            self.retire_l2_victim(now, channels, mapper, core, v2);
        }
    }

    /// Common L2-miss path for demand requests (loads and ifetches).
    #[allow(clippy::too_many_arguments)]
    fn demand_miss(
        &mut self,
        now: Cycle,
        channels: &mut [Channel],
        mapper: &AddressMapper,
        core: CoreId,
        line: LineAddr,
        tag: MemTag,
        tickets: &mut u64,
    ) -> MemReply {
        // Merge into an in-flight miss for the same line.
        if self.l2_mshr.pending(line) {
            let ticket = bump(tickets);
            let outcome = self.l2_mshr.on_miss(line, ticket);
            debug_assert_eq!(outcome, MshrOutcome::MergedSecondary);
            return MemReply::Pending {
                ticket,
                primary: false,
            };
        }
        if self.l2_mshr.is_full() {
            return MemReply::Retry { mshr_full: true };
        }
        let (ch, _) = mapper.map(line);
        if !channels[ch].can_accept(AccessKind::Read) {
            return MemReply::Retry { mshr_full: false };
        }
        let ticket = bump(tickets);
        let token = bump(tickets);
        let outcome = self.l2_mshr.on_miss(line, ticket);
        debug_assert_eq!(outcome, MshrOutcome::AllocatedPrimary);
        self.outstanding.push((token, FillKind::Demand(line)));
        self.send(
            now,
            channels,
            mapper,
            Deferred {
                line,
                kind: AccessKind::Read,
                core,
                tag,
                token,
            },
        );
        MemReply::Pending {
            ticket,
            primary: true,
        }
    }

    /// Demand load. `extra` is the translation cost (TLB walk / fault),
    /// charged on cache-serviced accesses and overlapped with DRAM misses.
    #[allow(clippy::too_many_arguments)]
    pub fn load(
        &mut self,
        now: Cycle,
        core: CoreId,
        pa: PhysAddr,
        tag: MemTag,
        extra: Cycle,
        channels: &mut [Channel],
        mapper: &AddressMapper,
        tickets: &mut u64,
    ) -> MemReply {
        let line = pa.line();
        if self.l1d.access(line, false) {
            return MemReply::Done {
                ready_at: now + self.l1_hit_latency + extra,
            };
        }
        if self.l2.access(line, false) {
            if let Some(v) = self.l1d.fill(line, false) {
                self.retire_l1_victim(now, channels, mapper, core, v);
            }
            return MemReply::Done {
                ready_at: now + self.l2_hit_latency + extra,
            };
        }
        self.demand_miss(now, channels, mapper, core, line, tag, tickets)
    }

    /// Instruction fetch (through the L1I).
    pub fn ifetch(
        &mut self,
        now: Cycle,
        core: CoreId,
        pa: PhysAddr,
        channels: &mut [Channel],
        mapper: &AddressMapper,
        tickets: &mut u64,
    ) -> MemReply {
        let line = pa.line();
        if self.l1i.access(line, false) {
            return MemReply::Done { ready_at: now };
        }
        if self.l2.access(line, false) {
            if let Some(v) = self.l1i.fill(line, false) {
                self.retire_l1_victim(now, channels, mapper, core, v);
            }
            return MemReply::Done {
                ready_at: now + self.l2_hit_latency,
            };
        }
        self.demand_miss(
            now,
            channels,
            mapper,
            core,
            line,
            MemTag::segment(Segment::Code),
            tickets,
        )
    }

    /// Store (write-allocate, fire-and-forget through the store buffer).
    #[allow(clippy::too_many_arguments)]
    pub fn store(
        &mut self,
        now: Cycle,
        core: CoreId,
        pa: PhysAddr,
        tag: MemTag,
        channels: &mut [Channel],
        mapper: &AddressMapper,
        tickets: &mut u64,
    ) -> StoreReply {
        let line = pa.line();
        if self.l1d.access(line, true) {
            return StoreReply {
                primary_miss: false,
            };
        }
        if self.l2.access(line, true) {
            if let Some(v) = self.l1d.fill(line, true) {
                self.retire_l1_victim(now, channels, mapper, core, v);
            }
            return StoreReply {
                primary_miss: false,
            };
        }
        // L2 miss. If the line is already inbound, just mark it dirty-on-fill.
        if self.l2_mshr.pending(line) {
            if !self.pending_store_dirty.contains(&line) {
                self.pending_store_dirty.push(line);
            }
            return StoreReply {
                primary_miss: false,
            };
        }
        // Primary store miss: fill eagerly, fetch the line in the background.
        if let Some(v) = self.l2.fill(line, true) {
            self.retire_l2_victim(now, channels, mapper, core, v);
        }
        if let Some(v) = self.l1d.fill(line, true) {
            self.retire_l1_victim(now, channels, mapper, core, v);
        }
        let token = bump(tickets);
        self.outstanding.push((token, FillKind::StoreFill));
        self.send(
            now,
            channels,
            mapper,
            Deferred {
                line,
                kind: AccessKind::Read,
                core,
                tag,
                token,
            },
        );
        StoreReply { primary_miss: true }
    }

    /// Drop every cached line of physical frame `pfn` (page migration:
    /// the data moves, so cached copies are stale). Dirty lines are queued
    /// as writebacks. Returns the number of dirty lines found.
    pub fn invalidate_page(&mut self, pfn: u64) -> usize {
        let deferred = &mut self.deferred;
        let before = deferred.len();
        for cache in [&mut self.l2, &mut self.l1d, &mut self.l1i] {
            cache.invalidate_matching(
                |l| l.pfn() == pfn,
                |v| {
                    deferred.push_back(Deferred {
                        line: v.line,
                        kind: AccessKind::Write,
                        core: CoreId(0),
                        tag: MemTag::segment(Segment::Data),
                        token: 0,
                    })
                },
            );
        }
        deferred.len() - before
    }

    /// Deliver a DRAM read completion: fill caches and append the core
    /// tickets to wake onto `woken` (in MSHR waiter order). The system loop
    /// passes a reusable buffer here, so the per-completion hot path
    /// performs no heap allocation.
    pub fn on_completion(
        &mut self,
        now: Cycle,
        comp: &Completion,
        channels: &mut [Channel],
        mapper: &AddressMapper,
        woken: &mut Vec<u64>,
    ) {
        let kind = match self.outstanding.iter().position(|&(t, _)| t == comp.token) {
            None => return, // stale/unknown (should not happen)
            Some(pos) => self.outstanding.swap_remove(pos).1,
        };
        match kind {
            FillKind::StoreFill => {}
            FillKind::Demand(line) => {
                let dirty = match self.pending_store_dirty.iter().position(|&l| l == line) {
                    Some(pos) => {
                        self.pending_store_dirty.swap_remove(pos);
                        true
                    }
                    None => false,
                };
                if let Some(v) = self.l2.fill(line, dirty) {
                    self.retire_l2_victim(now, channels, mapper, comp.core, v);
                }
                let (into_l1i, into_l1d) = match comp.tag.segment {
                    Segment::Code => (true, false),
                    _ => (false, true),
                };
                if into_l1d {
                    if let Some(v) = self.l1d.fill(line, false) {
                        self.retire_l1_victim(now, channels, mapper, comp.core, v);
                    }
                }
                if into_l1i {
                    if let Some(v) = self.l1i.fill(line, false) {
                        self.retire_l1_victim(now, channels, mapper, comp.core, v);
                    }
                }
                self.l2_mshr.complete(line, woken);
            }
        }
    }
}

impl Default for CoreHierarchy {
    fn default() -> Self {
        CoreHierarchy::new()
    }
}

#[inline]
fn bump(counter: &mut u64) -> u64 {
    *counter += 1;
    *counter
}

#[cfg(test)]
mod tests {
    use super::*;
    use moca_common::{ObjectId, MB};
    use moca_dram::{ChannelConfig, DeviceTiming};

    fn setup() -> (CoreHierarchy, Vec<Channel>, AddressMapper, u64) {
        let h = CoreHierarchy::new();
        let channels = vec![Channel::new(ChannelConfig::new(
            DeviceTiming::ddr3(),
            32 * MB,
        ))];
        let mapper = AddressMapper::ranged(&[32 * MB]);
        (h, channels, mapper, 0)
    }

    fn tag() -> MemTag {
        MemTag::heap(ObjectId(0))
    }

    fn drain(
        h: &mut CoreHierarchy,
        channels: &mut [Channel],
        mapper: &AddressMapper,
        from: Cycle,
        limit: Cycle,
    ) -> Vec<(Cycle, Vec<u64>)> {
        let mut events = Vec::new();
        let mut out = Vec::new();
        for now in from..limit {
            out.clear();
            for ch in channels.iter_mut() {
                ch.tick(now, &mut out);
            }
            for c in &out {
                let mut woken = Vec::new();
                h.on_completion(now, c, channels, mapper, &mut woken);
                events.push((now, woken));
            }
            h.flush_deferred(now, channels, mapper);
        }
        events
    }

    #[test]
    fn load_miss_then_hit() {
        let (mut h, mut ch, map, mut t) = setup();
        let pa = PhysAddr(0x10000);
        let r = h.load(1, CoreId(0), pa, tag(), 0, &mut ch, &map, &mut t);
        assert!(matches!(r, MemReply::Pending { primary: true, .. }));
        let events = drain(&mut h, &mut ch, &map, 2, 500);
        let woken: usize = events.iter().map(|(_, w)| w.len()).sum();
        assert_eq!(woken, 1);
        // Now both L1 and L2 hold the line.
        let r = h.load(600, CoreId(0), pa, tag(), 0, &mut ch, &map, &mut t);
        assert_eq!(r, MemReply::Done { ready_at: 602 });
    }

    #[test]
    fn l2_hit_after_l1_eviction_pressure() {
        let (mut h, mut ch, map, mut t) = setup();
        // L1D: 64 KB 2-way = 512 sets; two lines mapping to the same L1 set
        // are 32 KB apart. Three such lines force an L1 eviction while all
        // stay in the 512 KB L2.
        let base = 0x100000;
        for i in 0..3u64 {
            let pa = PhysAddr(base + i * 32 * 1024);
            let _ = h.load(1 + i, CoreId(0), pa, tag(), 0, &mut ch, &map, &mut t);
        }
        drain(&mut h, &mut ch, &map, 4, 600);
        let r = h.load(
            700,
            CoreId(0),
            PhysAddr(base),
            tag(),
            0,
            &mut ch,
            &map,
            &mut t,
        );
        // First line was evicted from L1 by the third fill but lives in L2.
        assert_eq!(r, MemReply::Done { ready_at: 722 });
    }

    #[test]
    fn secondary_miss_merges() {
        let (mut h, mut ch, map, mut t) = setup();
        let pa = PhysAddr(0x40000);
        let a = h.load(1, CoreId(0), pa, tag(), 0, &mut ch, &map, &mut t);
        let b = h.load(
            1,
            CoreId(0),
            PhysAddr(0x40008),
            tag(),
            0,
            &mut ch,
            &map,
            &mut t,
        );
        assert!(matches!(a, MemReply::Pending { primary: true, .. }));
        assert!(matches!(b, MemReply::Pending { primary: false, .. }));
        let events = drain(&mut h, &mut ch, &map, 2, 500);
        let woken: usize = events.iter().map(|(_, w)| w.len()).sum();
        assert_eq!(woken, 2, "both waiters wake on one fill");
        assert_eq!(ch[0].stats().reads, 1, "only one DRAM read");
    }

    #[test]
    fn mshr_exhaustion_retries() {
        let (mut h, mut ch, map, mut t) = setup();
        let mshrs = CacheConfig::l2().mshrs;
        for i in 0..mshrs as u64 {
            let r = h.load(
                1,
                CoreId(0),
                PhysAddr(0x100000 + i * 4096),
                tag(),
                0,
                &mut ch,
                &map,
                &mut t,
            );
            assert!(matches!(r, MemReply::Pending { .. }), "miss {i} rejected");
        }
        let r = h.load(
            1,
            CoreId(0),
            PhysAddr(0x900000),
            tag(),
            0,
            &mut ch,
            &map,
            &mut t,
        );
        assert_eq!(r, MemReply::Retry { mshr_full: true });
    }

    #[test]
    fn store_miss_fills_eagerly_and_fetches() {
        let (mut h, mut ch, map, mut t) = setup();
        let pa = PhysAddr(0x50000);
        let r = h.store(1, CoreId(0), pa, tag(), &mut ch, &map, &mut t);
        assert!(r.primary_miss);
        // Immediately visible as a hit.
        let r2 = h.load(2, CoreId(0), pa, tag(), 0, &mut ch, &map, &mut t);
        assert!(matches!(r2, MemReply::Done { .. }));
        drain(&mut h, &mut ch, &map, 3, 500);
        assert_eq!(ch[0].stats().reads, 1, "store-allocate fetch issued");
        assert!(h.is_idle());
    }

    #[test]
    fn store_into_pending_line_marks_fill_dirty() {
        let (mut h, mut ch, map, mut t) = setup();
        let pa = PhysAddr(0x60000);
        let _ = h.load(1, CoreId(0), pa, tag(), 0, &mut ch, &map, &mut t);
        let r = h.store(1, CoreId(0), pa, tag(), &mut ch, &map, &mut t);
        assert!(!r.primary_miss, "merged into pending fill");
        drain(&mut h, &mut ch, &map, 2, 500);
        // Evicting the line later must produce a DRAM writeback. Force
        // eviction by filling the L2 set: L2 has 512 sets × 16 ways; lines
        // 512*64 bytes apart share a set.
        let stride = 512 * 64;
        for i in 1..=16u64 {
            let _ = h.load(
                600 + i,
                CoreId(0),
                PhysAddr(0x60000 + i * stride),
                tag(),
                0,
                &mut ch,
                &map,
                &mut t,
            );
        }
        drain(&mut h, &mut ch, &map, 620, 3000);
        assert!(
            ch[0].stats().writes >= 1,
            "dirty fill should be written back on eviction"
        );
    }

    #[test]
    fn ifetch_miss_fills_l1i() {
        let (mut h, mut ch, map, mut t) = setup();
        let pa = PhysAddr(0x70000);
        let r = h.ifetch(1, CoreId(0), pa, &mut ch, &map, &mut t);
        assert!(matches!(r, MemReply::Pending { .. }));
        drain(&mut h, &mut ch, &map, 2, 500);
        let r2 = h.ifetch(600, CoreId(0), pa, &mut ch, &map, &mut t);
        assert_eq!(r2, MemReply::Done { ready_at: 600 });
    }

    #[test]
    fn translation_extra_charged_on_hits() {
        let (mut h, mut ch, map, mut t) = setup();
        let pa = PhysAddr(0x80000);
        let _ = h.load(1, CoreId(0), pa, tag(), 0, &mut ch, &map, &mut t);
        drain(&mut h, &mut ch, &map, 2, 500);
        let r = h.load(600, CoreId(0), pa, tag(), 36, &mut ch, &map, &mut t);
        assert_eq!(r, MemReply::Done { ready_at: 638 });
    }

    #[test]
    fn deferred_writes_flush_under_backpressure() {
        let (mut h, mut ch, map, mut t) = setup();
        // Saturate the write queue directly, then trigger hierarchy writes.
        for i in 0..32u64 {
            let req = MemRequest {
                token: 0,
                line: LineAddr(i * 64),
                local_off: i * 4096,
                kind: AccessKind::Write,
                core: CoreId(0),
                tag: MemTag::segment(Segment::Data),
            };
            ch[0].enqueue(0, req);
        }
        // A store miss wants to send a store-fill read (fine) — but force a
        // write via L2 dirty eviction pressure instead: simplest is to call
        // send() indirectly via many dirty stores across one L2 set.
        let stride = 512 * 64;
        for i in 0..20u64 {
            let _ = h.store(
                1,
                CoreId(0),
                PhysAddr(0x100000 + i * stride),
                tag(),
                &mut ch,
                &map,
                &mut t,
            );
        }
        assert!(!h.is_idle());
        drain(&mut h, &mut ch, &map, 2, 20_000);
        assert!(h.is_idle(), "deferred queue should fully drain");
    }
}
