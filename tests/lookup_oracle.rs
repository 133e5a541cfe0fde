//! Differential oracles for the per-access lookup structures.
//!
//! `Tlb` (hash index plus recency list) and `SetAssocCache` (struct-of-arrays
//! way state, 16-bit keys with upper halves on demand, validity bits,
//! per-set recency ranks) are fuzzed against deliberately naive reference
//! models: a linear-scan, timestamp-LRU TLB and an array-of-structs cache
//! with 64-bit tags and timestamps whose victim search walks every way.
//! Each geometry runs 100k+ seeded operations, a share of the cache's lines
//! at the top of the largest physical space (where a toy geometry's tags
//! outgrow 16 bits), and every return value, statistic, victim and resident
//! line set must agree. A difference in victim choice would shift every
//! simulated result after it, so it fails here before the golden digests
//! notice.

use moca_cache::{CacheConfig, SetAssocCache, Victim};
use moca_common::addr::{CACHE_LINE_SIZE, PAGE_SIZE};
use moca_common::rng::DetRng;
use moca_common::{LineAddr, ModuleKind};
use moca_sim::config::{HeterogeneousLayout, MemSystemConfig};
use moca_vm::Tlb;
use proptest::prelude::*;

/// Reference TLB: `(vpn, pfn, last-use stamp)` triples, every operation a
/// linear scan, the victim the entry with the smallest stamp.
struct RefTlb {
    entries: Vec<(u64, u64, u64)>,
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl RefTlb {
    fn new(capacity: usize) -> RefTlb {
        RefTlb {
            entries: Vec::new(),
            capacity,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn lookup(&mut self, vpn: u64) -> Option<u64> {
        self.clock += 1;
        let clock = self.clock;
        match self.entries.iter_mut().find(|e| e.0 == vpn) {
            Some(e) => {
                e.2 = clock;
                self.hits += 1;
                Some(e.1)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, vpn: u64, pfn: u64) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == vpn) {
            *e = (vpn, pfn, clock);
        } else if self.entries.len() < self.capacity {
            self.entries.push((vpn, pfn, clock));
        } else {
            let lru = (0..self.entries.len())
                .min_by_key(|&i| self.entries[i].2)
                .unwrap();
            self.entries[lru] = (vpn, pfn, clock);
        }
    }

    fn flush(&mut self) {
        self.entries.clear();
    }
}

/// A vpn pool mixing the shapes the index must handle: a dense run
/// (consecutive pages), a page-table-sized stride, and arbitrary 64-bit
/// values. Twice the capacity plus a few, so the TLB both hits and evicts.
fn vpn_pool(rng: &mut DetRng, capacity: usize) -> Vec<u64> {
    let n = 2 * capacity + 3;
    let base = rng.below(1 << 30);
    (0..n as u64)
        .map(|i| match i % 3 {
            0 => base + i,
            1 => (i << 21) | 0x7,
            _ => rng.raw(),
        })
        .collect()
}

fn tlb_run(capacity: usize, seed: u64, ops: u64) {
    let mut rng = DetRng::new(seed, capacity as u64);
    let pool = vpn_pool(&mut rng, capacity);
    let mut tlb = Tlb::new(capacity);
    let mut oracle = RefTlb::new(capacity);
    for op in 0..ops {
        // Skew towards a hot prefix so hits, misses and evictions all occur.
        let span = if rng.chance(0.7) {
            capacity.div_ceil(2) + 1
        } else {
            pool.len()
        };
        let vpn = pool[rng.below(span as u64) as usize];
        match rng.below(1000) {
            0 => {
                tlb.flush();
                oracle.flush();
            }
            1..=599 => {
                let got = tlb.lookup(vpn);
                assert_eq!(
                    got,
                    oracle.lookup(vpn),
                    "cap {capacity} op {op}: lookup({vpn:#x})"
                );
                if got.is_none() {
                    let pfn = rng.raw() >> 20;
                    tlb.insert(vpn, pfn);
                    oracle.insert(vpn, pfn);
                }
            }
            _ => {
                // Direct insert, often of a present vpn (remap in place).
                let pfn = rng.raw() >> 20;
                tlb.insert(vpn, pfn);
                oracle.insert(vpn, pfn);
            }
        }
        let s = tlb.stats();
        assert_eq!(
            (s.hits, s.misses),
            (oracle.hits, oracle.misses),
            "cap {capacity} op {op}: stats"
        );
    }
    // Every vpn resolves identically at the end (pool order is arbitrary,
    // and lookups keep both sides' recency in step).
    for &vpn in &pool {
        assert_eq!(
            tlb.lookup(vpn),
            oracle.lookup(vpn),
            "cap {capacity} final {vpn:#x}"
        );
    }
}

#[test]
fn tlb_matches_linear_scan_lru() {
    for capacity in [1, 2, 3, 64, 100] {
        tlb_run(capacity, 0x71b0_0000_0000_0001, 100_000);
    }
}

/// Reference cache way: the array-of-structs layout.
#[derive(Clone, Copy, Default)]
struct RefWay {
    tag: u64,
    valid: bool,
    dirty: bool,
    used: u64,
}

/// Reference cache: per-way structs, first-invalid-else-first-LRU victim.
struct RefCache {
    ways: Vec<RefWay>,
    set_count: u64,
    assoc: usize,
    clock: u64,
    accesses: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    writebacks: u64,
}

impl RefCache {
    fn new(cfg: &CacheConfig) -> RefCache {
        let set_count = cfg.sets();
        let assoc = cfg.ways as usize;
        RefCache {
            ways: vec![RefWay::default(); set_count as usize * assoc],
            set_count,
            assoc,
            clock: 0,
            accesses: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            writebacks: 0,
        }
    }

    fn set(&mut self, line: LineAddr) -> (&mut [RefWay], u64) {
        let s = (line.0 % self.set_count) as usize;
        let tag = line.0 / self.set_count;
        (&mut self.ways[s * self.assoc..(s + 1) * self.assoc], tag)
    }

    fn find(&mut self, line: LineAddr) -> Option<&mut RefWay> {
        let (set, tag) = self.set(line);
        set.iter_mut().find(|w| w.valid && w.tag == tag)
    }

    fn access(&mut self, line: LineAddr, write: bool) -> bool {
        self.clock += 1;
        self.accesses += 1;
        let clock = self.clock;
        match self.find(line) {
            Some(w) => {
                w.used = clock;
                w.dirty |= write;
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    fn contains(&mut self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    fn fill(&mut self, line: LineAddr, dirty: bool) -> Option<Victim> {
        self.clock += 1;
        let clock = self.clock;
        if let Some(w) = self.find(line) {
            w.used = clock;
            w.dirty |= dirty;
            return None;
        }
        let set_count = self.set_count;
        let (set, tag) = self.set(line);
        let i = match set.iter().position(|w| !w.valid) {
            Some(i) => i,
            None => {
                let oldest = set.iter().map(|w| w.used).min().unwrap();
                set.iter().position(|w| w.used == oldest).unwrap()
            }
        };
        let old = set[i];
        set[i] = RefWay {
            tag,
            valid: true,
            dirty,
            used: clock,
        };
        if !old.valid {
            return None;
        }
        self.evictions += 1;
        self.writebacks += u64::from(old.dirty);
        Some(Victim {
            line: LineAddr(old.tag * set_count + line.0 % set_count),
            dirty: old.dirty,
        })
    }

    fn writeback(&mut self, line: LineAddr) -> Option<Victim> {
        self.clock += 1;
        let clock = self.clock;
        if let Some(w) = self.find(line) {
            w.dirty = true;
            w.used = clock;
            return None;
        }
        self.fill(line, true)
    }

    fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let w = self.find(line)?;
        w.valid = false;
        Some(w.dirty)
    }

    fn resident_addrs(&self) -> Vec<LineAddr> {
        (0..self.ways.len())
            .filter(|&i| self.ways[i].valid)
            .map(|i| LineAddr(self.ways[i].tag * self.set_count + (i / self.assoc) as u64))
            .collect()
    }

    fn invalidate_matching(&mut self, pred: impl Fn(LineAddr) -> bool) -> Vec<Victim> {
        let mut dirty = Vec::new();
        for i in 0..self.ways.len() {
            let w = &mut self.ways[i];
            let line = LineAddr(w.tag * self.set_count + (i / self.assoc) as u64);
            if w.valid && pred(line) {
                w.valid = false;
                if w.dirty {
                    dirty.push(Victim { line, dirty: true });
                }
            }
        }
        dirty
    }

    fn stats(&self) -> [u64; 5] {
        [
            self.accesses,
            self.hits,
            self.misses,
            self.evictions,
            self.writebacks,
        ]
    }
}

fn tiny() -> CacheConfig {
    // 4 sets x 2 ways x 64 B.
    CacheConfig {
        name: "tiny",
        size_bytes: 512,
        ways: 2,
        hit_latency: 1,
        mshrs: 4,
    }
}

/// The highest line address of the largest physical space any
/// `SystemConfig` builds at capacity scale 1.
fn top_line() -> u64 {
    let layouts = [
        HeterogeneousLayout::config1(),
        HeterogeneousLayout::config2(),
        HeterogeneousLayout::config3(),
    ];
    ModuleKind::ALL
        .map(MemSystemConfig::Homogeneous)
        .into_iter()
        .chain(layouts.map(MemSystemConfig::Heterogeneous))
        .flat_map(|mem| mem.frame_regions(1.0))
        .map(|r| (r.base_pfn + r.frames) * PAGE_SIZE / CACHE_LINE_SIZE)
        .max()
        .expect("at least one region")
        - 1
}

fn cache_run(cfg: CacheConfig, seed: u64, ops: u64) {
    let name = cfg.name;
    let sets = cfg.sets();
    let assoc = u64::from(cfg.ways);
    let mut rng = DetRng::new(seed, sets * assoc);
    let mut oracle = RefCache::new(&cfg);
    let mut cache = SetAssocCache::new(cfg);
    // A handful of hot sets, each offered 1.5x its ways in tags, so sets
    // fill, hit and evict; the rest of the traffic spreads over the cache.
    let hot_sets: Vec<u64> = (0..8).map(|_| rng.below(sets)).collect();
    let hot_tags = assoc + assoc.div_ceil(2);
    // A fifth of the traffic is mirrored to the top of the physical space,
    // where a key narrowed too far would alias a low line. The space is a
    // whole number of sets, so mirroring keeps the hot-set structure. The
    // Table I caches' top tag is the widest that fits 16 bits; the tiny
    // one's need the upper halves.
    let top = top_line();
    assert_eq!((top + 1) % sets, 0, "{name}: space is not whole sets");
    for op in 0..ops {
        let line = if rng.chance(0.8) {
            LineAddr(rng.below(hot_tags) * sets + hot_sets[rng.below(8) as usize])
        } else {
            LineAddr(rng.below(sets * assoc * 4))
        };
        let line = if rng.chance(0.2) {
            LineAddr(top - line.0)
        } else {
            line
        };
        match rng.below(100) {
            0..=39 => {
                let write = rng.chance(0.3);
                let hit = cache.access(line, write);
                assert_eq!(hit, oracle.access(line, write), "{name} op {op}: access");
                if !hit {
                    assert_eq!(
                        cache.fill(line, write),
                        oracle.fill(line, write),
                        "{name} op {op}: fill after miss"
                    );
                }
            }
            40..=59 => {
                let dirty = rng.chance(0.5);
                assert_eq!(
                    cache.fill(line, dirty),
                    oracle.fill(line, dirty),
                    "{name} op {op}: fill"
                );
            }
            60..=74 => assert_eq!(
                cache.writeback(line),
                oracle.writeback(line),
                "{name} op {op}: writeback"
            ),
            75..=84 => assert_eq!(
                cache.invalidate(line),
                oracle.invalidate(line),
                "{name} op {op}: invalidate"
            ),
            85..=98 => assert_eq!(
                cache.contains(line),
                oracle.contains(line),
                "{name} op {op}: contains"
            ),
            _ => {
                // One "page" of lines, as the migration path drops them.
                let page = line.0 / 64;
                let on_page = |l: LineAddr| l.0 / 64 == page;
                let mut dirty = Vec::new();
                cache.invalidate_matching(on_page, |v| dirty.push(v));
                assert_eq!(
                    dirty,
                    oracle.invalidate_matching(on_page),
                    "{name} op {op}: invalidate_matching"
                );
            }
        }
        let s = cache.stats();
        assert_eq!(
            [s.accesses, s.hits, s.misses, s.evictions, s.writebacks],
            oracle.stats(),
            "{name} op {op}: stats"
        );
        if op % 997 == 0 {
            let resident = cache.resident_addrs();
            assert_eq!(
                resident,
                oracle.resident_addrs(),
                "{name} op {op}: resident"
            );
            assert_eq!(cache.resident_lines(), resident.len(), "{name} op {op}");
        }
    }
    assert_eq!(
        cache.resident_addrs(),
        oracle.resident_addrs(),
        "{name}: final resident"
    );
}

#[test]
fn cache_matches_array_of_structs_lru() {
    for cfg in [CacheConfig::l1d(), CacheConfig::l2()] {
        let top_tag = top_line() / cfg.sets();
        assert_eq!(top_tag, u64::from(u16::MAX), "{}", cfg.name);
        assert_eq!(cfg.addressable_bytes() / CACHE_LINE_SIZE, top_line() + 1);
    }
    for cfg in [tiny(), CacheConfig::l1d(), CacheConfig::l2()] {
        cache_run(cfg, 0xcac4_e000_0000_0001, 100_000);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Seed sweep: shorter runs of every geometry under shim-chosen seeds.
    #[test]
    fn lookup_structures_seed_sweep(seed in any::<u64>()) {
        for capacity in [1, 3, 64] {
            tlb_run(capacity, seed, 10_000);
        }
        for cfg in [tiny(), CacheConfig::l2()] {
            cache_run(cfg, seed, 10_000);
        }
    }
}
