//! Set-associative write-back cache with true LRU replacement.

use moca_common::addr::{LineAddr, CACHE_LINE_SIZE};
use moca_common::units::{narrow_u32, narrow_usize};
use moca_common::{Cycle, KB};
use serde::{Deserialize, Serialize};

/// Static configuration of one cache.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Human-readable name for reports ("L1D", "L2", ...).
    pub name: &'static str,
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Hit latency in cycles.
    pub hit_latency: Cycle,
    /// Number of MSHRs (outstanding primary misses).
    pub mshrs: usize,
}

impl CacheConfig {
    /// Table I L1 data cache: 64 KB, 2-way, 2 cycles, 4 MSHRs.
    pub fn l1d() -> CacheConfig {
        CacheConfig {
            name: "L1D",
            size_bytes: 64 * KB,
            ways: 2,
            hit_latency: 2,
            mshrs: 4,
        }
    }

    /// Table I L1 instruction cache: 64 KB, 2-way, 2 cycles, 4 MSHRs.
    pub fn l1i() -> CacheConfig {
        CacheConfig {
            name: "L1I",
            size_bytes: 64 * KB,
            ways: 2,
            hit_latency: 2,
            mshrs: 4,
        }
    }

    /// Table I unified L2: 512 KB, 16-way, 20 cycles, 20 MSHRs.
    pub fn l2() -> CacheConfig {
        CacheConfig {
            name: "L2",
            size_bytes: 512 * KB,
            ways: 16,
            hit_latency: 20,
            mshrs: 20,
        }
    }

    /// Number of sets implied by the capacity/ways/line size.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (CACHE_LINE_SIZE * self.ways as u64)
    }

    /// Bytes of physical space the cache's 16-bit tags address: one line
    /// per tag value in every set (2 GiB for Table I's 512 sets).
    pub fn addressable_bytes(&self) -> u64 {
        (self.sets() << u16::BITS) * CACHE_LINE_SIZE
    }
}

/// An evicted line that must be written back (it was dirty).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The evicted line's address.
    pub line: LineAddr,
    /// Whether it was dirty (needs a writeback to the next level).
    pub dirty: bool,
}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Demand accesses (loads + stores).
    pub accesses: u64,
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Lines evicted (any state).
    pub evictions: u64,
    /// Dirty evictions (writebacks generated).
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss ratio in [0, 1].
    pub fn miss_rate(&self) -> f64 {
        moca_common::stats::safe_div(self.misses as f64, self.accesses as f64)
    }
}

/// The cache proper.
///
/// Way state is stored struct-of-arrays, way `w` of set `s` at slot
/// `s * ways + w`, 3 bytes and two bits a way, so a probe compares one
/// contiguous run of `u16` keys. A key is the low 16 bits of the line's
/// tag; whether the way holds a line is its `valid` bit, so an invalidated
/// way keeps its stale key and a probe must check the bit of the way it
/// matched.
///
/// Tags of up to 16 bits are every tag in simulation:
/// [`crate::CacheConfig::addressable_bytes`] covers the physical space
/// (2 GiB, 2^25 lines, over Table I's 512 sets). A wider tag, such as the
/// virtual line addresses the benchmark's layer replay feeds the Table I
/// caches, moves the cache onto `high`, each way's upper 16 tag bits,
/// allocated by the first fill that needs it. A tag past 32 bits panics
/// with its value rather than aliasing another line.
///
/// `rank` is each way's place in its set's recency order, 0 = most recent;
/// a set's ranks are always a permutation of `0..ways`. The LRU victim is
/// the way ranked `ways - 1`. `valid` and `dirty` pack one bit per slot,
/// slot `i` at bit `i % 64` of word `i / 64`; with a power-of-two
/// associativity of at most 64, a set's bits are one aligned field of one
/// word.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    keys: Vec<u16>,
    /// Upper tag halves per slot; empty while every tag has fit in `keys`.
    high: Vec<u16>,
    rank: Vec<u8>,
    valid: Vec<u64>,
    dirty: Vec<u64>,
    set_count: u64,
    /// `set_count - 1`; the set count is asserted to be a power of two, so
    /// set selection is a mask and tag extraction a shift. `index` runs on
    /// every demand access at every level, where a 64-bit divide is
    /// measurable.
    set_mask: u64,
    set_shift: u32,
    ways: usize,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Build an empty cache. Panics if the set count is not a power of two
    /// or the associativity is not a power of two of at most 64, the most
    /// one word of validity bits holds.
    pub fn new(cfg: CacheConfig) -> SetAssocCache {
        let set_count = cfg.sets();
        assert!(
            set_count > 0 && set_count.is_power_of_two(),
            "bad set count"
        );
        let ways = cfg.ways as usize;
        assert!(
            ways.is_power_of_two() && ways <= 64,
            "bad associativity {ways}"
        );
        let slots = (set_count as usize) * ways;
        SetAssocCache {
            keys: vec![0; slots],
            high: Vec::new(),
            rank: (0..slots).map(|slot| (slot % ways) as u8).collect(),
            valid: vec![0; slots.div_ceil(64)],
            dirty: vec![0; slots.div_ceil(64)],
            set_count,
            set_mask: set_count - 1,
            set_shift: set_count.trailing_zeros(),
            ways,
            cfg,
            stats: CacheStats::default(),
        }
    }

    /// Configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// First way of `line`'s set and `line`'s tag.
    #[inline]
    fn index(&self, line: LineAddr) -> (usize, u32) {
        let set = narrow_usize(line.0 & self.set_mask);
        let tag = narrow_u32(line.0 >> self.set_shift);
        (set * self.ways, tag)
    }

    /// Slot holding `tag` in the set starting at `base`, if resident.
    ///
    /// Only the first way holding `tag` can be its line: `fill` takes the
    /// first invalid way and never installs a resident tag twice, so every
    /// way ahead of a resident line is valid with another tag. A first
    /// match on an invalid way is a stale tag, and a miss.
    #[inline]
    fn probe(&self, base: usize, tag: u32) -> Option<usize> {
        if !self.high.is_empty() {
            return self.probe_wide(base, tag);
        }
        // No wide tag was ever filled, so none is resident.
        let key = u16::try_from(tag).ok()?;
        let w = self.keys[base..base + self.ways]
            .iter()
            .position(|&k| k == key)?;
        self.resident_at(base, w, tag)
    }

    /// [`SetAssocCache::probe`] once tags have upper halves.
    #[cold]
    #[inline(never)]
    fn probe_wide(&self, base: usize, tag: u32) -> Option<usize> {
        let w = (0..self.ways).find(|&w| self.tag_at(base + w) == tag)?;
        self.resident_at(base, w, tag)
    }

    /// `base + w` if way `w`, the first to hold `tag`, is valid.
    #[inline]
    fn resident_at(&self, base: usize, w: usize, tag: u32) -> Option<usize> {
        debug_assert!(
            self.is_valid(base + w)
                || !(w + 1..self.ways)
                    .any(|v| self.tag_at(base + v) == tag && self.is_valid(base + v)),
            "{}: a stale tag shadows its resident line",
            self.cfg.name
        );
        self.is_valid(base + w).then_some(base + w)
    }

    /// Tag stored in `slot`, resident or stale.
    #[inline]
    fn tag_at(&self, slot: usize) -> u32 {
        let high = self.high.get(slot).copied().unwrap_or(0);
        u32::from(high) << 16 | u32::from(self.keys[slot])
    }

    /// Store `tag` in `slot`.
    #[inline]
    fn set_tag(&mut self, slot: usize, tag: u32) {
        match u16::try_from(tag) {
            Ok(key) if self.high.is_empty() => self.keys[slot] = key,
            _ => self.set_tag_wide(slot, tag),
        }
    }

    /// [`SetAssocCache::set_tag`] for a tag wider than 16 bits or once
    /// tags have upper halves; the first such tag allocates them.
    #[cold]
    #[inline(never)]
    fn set_tag_wide(&mut self, slot: usize, tag: u32) {
        if self.high.is_empty() {
            self.high = vec![0; self.keys.len()];
        }
        let [b0, b1, b2, b3] = tag.to_le_bytes();
        self.keys[slot] = u16::from_le_bytes([b0, b1]);
        self.high[slot] = u16::from_le_bytes([b2, b3]);
    }

    /// Whether `slot` holds a line.
    #[inline]
    fn is_valid(&self, slot: usize) -> bool {
        self.valid[slot / 64] >> (slot % 64) & 1 != 0
    }

    /// Mark `slot` as holding no line; its key goes stale.
    #[inline]
    fn clear_valid(&mut self, slot: usize) {
        self.valid[slot / 64] &= !(1 << (slot % 64));
    }

    /// Address of the line resident in `slot` (valid way required).
    #[inline]
    fn line_at(&self, slot: usize) -> LineAddr {
        let set = (slot >> self.ways.trailing_zeros()) as u64;
        LineAddr(u64::from(self.tag_at(slot)) * self.set_count + set)
    }

    /// Whether the line in `slot` is dirty.
    #[inline]
    fn is_dirty(&self, slot: usize) -> bool {
        self.dirty[slot / 64] >> (slot % 64) & 1 != 0
    }

    /// Set `slot`'s dirty bit to `dirty`.
    #[inline]
    fn set_dirty(&mut self, slot: usize, dirty: bool) {
        let word = &mut self.dirty[slot / 64];
        *word = *word & !(1 << (slot % 64)) | u64::from(dirty) << (slot % 64);
    }

    /// Mark `slot` dirty if `dirty`, leaving a set bit set.
    #[inline]
    fn or_dirty(&mut self, slot: usize, dirty: bool) {
        self.dirty[slot / 64] |= u64::from(dirty) << (slot % 64);
    }

    /// Make `slot` the most recent way of the set starting at `base`: every
    /// way more recent than it moves back one place, and it takes rank 0.
    #[inline]
    fn touch(&mut self, base: usize, slot: usize) {
        let ranks = &mut self.rank[base..base + self.ways];
        let touched = ranks[slot - base];
        for r in ranks.iter_mut() {
            *r += u8::from(*r < touched);
        }
        ranks[slot - base] = 0;
        debug_assert!(
            self.ranks_are_permutation(base),
            "{}: set ranks {:?} are not a permutation of 0..{}",
            self.cfg.name,
            &self.rank[base..base + self.ways],
            self.ways
        );
    }

    /// Whether the set starting at `base` ranks its ways `0..ways`, each
    /// once (the invariant `touch` keeps).
    fn ranks_are_permutation(&self, base: usize) -> bool {
        let mut seen = [false; 64];
        self.rank[base..base + self.ways].iter().all(|&r| {
            let fresh = usize::from(r) < self.ways && !seen[usize::from(r)];
            seen[usize::from(r)] = true;
            fresh
        })
    }

    /// Demand access. Returns `true` on hit; on a hit, LRU is updated and
    /// `write` marks the line dirty. On a miss only the statistics change —
    /// the caller drives the fill via [`SetAssocCache::fill`] once the data
    /// arrives (write-allocate).
    pub fn access(&mut self, line: LineAddr, write: bool) -> bool {
        self.stats.accesses += 1;
        let (base, tag) = self.index(line);
        if let Some(slot) = self.probe(base, tag) {
            self.touch(base, slot);
            self.or_dirty(slot, write);
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        false
    }

    /// Probe without updating LRU or statistics.
    pub fn contains(&self, line: LineAddr) -> bool {
        let (base, tag) = self.index(line);
        self.probe(base, tag).is_some()
    }

    /// Install `line` (after a miss). `dirty` marks a write-allocate fill.
    /// Returns the victim if a valid line had to be evicted.
    ///
    /// Filling a line that is already present just refreshes its state (this
    /// happens when an MSHR merged multiple requests to the line).
    pub fn fill(&mut self, line: LineAddr, dirty: bool) -> Option<Victim> {
        let (base, tag) = self.index(line);
        if let Some(slot) = self.probe(base, tag) {
            self.touch(base, slot);
            self.or_dirty(slot, dirty);
            return None;
        }
        // The first invalid way, else the least recently used one. The
        // set's validity bits are one field of one word, way `w` at bit `w`;
        // `free` holds the set's invalid ways.
        let free = !(self.valid[base / 64] >> (base % 64)) & (!0 >> (64 - self.ways));
        let slot = if free != 0 {
            base + free.trailing_zeros() as usize
        } else {
            let last = (self.ways - 1) as u8;
            let ranks = &self.rank[base..base + self.ways];
            base + ranks
                .iter()
                .position(|&r| r == last)
                .expect("ranks are a permutation")
        };
        let victim = if free == 0 {
            let was_dirty = self.is_dirty(slot);
            self.stats.evictions += 1;
            self.stats.writebacks += u64::from(was_dirty);
            Some(Victim {
                line: self.line_at(slot),
                dirty: was_dirty,
            })
        } else {
            None
        };
        self.set_tag(slot, tag);
        self.valid[slot / 64] |= 1 << (slot % 64);
        self.touch(base, slot);
        self.set_dirty(slot, dirty);
        victim
    }

    /// Accept a writeback from the level above: mark the line dirty if
    /// present, otherwise install it dirty (non-inclusive fallback). Does
    /// not count as a demand access. Returns a victim if installing evicted
    /// a valid line.
    pub fn writeback(&mut self, line: LineAddr) -> Option<Victim> {
        let (base, tag) = self.index(line);
        if let Some(slot) = self.probe(base, tag) {
            self.or_dirty(slot, true);
            self.touch(base, slot);
            return None;
        }
        self.fill(line, true)
    }

    /// Remove `line` if present, returning whether it was dirty.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let (base, tag) = self.index(line);
        let slot = self.probe(base, tag)?;
        self.clear_valid(slot);
        Some(self.is_dirty(slot))
    }

    /// Number of valid lines currently resident (test/debug helper).
    pub fn resident_lines(&self) -> usize {
        self.valid.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Addresses of all currently resident lines (test/inspection helper).
    pub fn resident_addrs(&self) -> Vec<LineAddr> {
        (0..self.keys.len())
            .filter(|&slot| self.is_valid(slot))
            .map(|slot| self.line_at(slot))
            .collect()
    }

    /// Invalidate every line for which `pred` holds (e.g. all lines of a
    /// migrated physical page), handing each dirty one to `on_dirty`, in
    /// slot order, so the caller can write its data back. Used by the OS
    /// page-migration path; a full scan is fine at migration-epoch
    /// frequency.
    pub fn invalidate_matching(
        &mut self,
        pred: impl Fn(LineAddr) -> bool,
        mut on_dirty: impl FnMut(Victim),
    ) {
        // Visit the valid slots only, a word of validity bits at a time.
        for word in 0..self.valid.len() {
            let mut valid = self.valid[word];
            while valid != 0 {
                let slot = word * 64 + valid.trailing_zeros() as usize;
                valid &= valid - 1;
                let line = self.line_at(slot);
                if pred(line) {
                    self.clear_valid(slot);
                    if self.is_dirty(slot) {
                        on_dirty(Victim { line, dirty: true });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets × 2 ways × 64 B = 512 B.
        SetAssocCache::new(CacheConfig {
            name: "tiny",
            size_bytes: 512,
            ways: 2,
            hit_latency: 1,
            mshrs: 4,
        })
    }

    /// Address that maps to `set` with tag `tag` for the tiny cache.
    fn line(set: u64, tag: u64) -> LineAddr {
        LineAddr(tag * 4 + set)
    }

    #[test]
    fn table1_geometries() {
        assert_eq!(CacheConfig::l1d().sets(), 512);
        assert_eq!(CacheConfig::l2().sets(), 512);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert!(!c.access(line(0, 1), false));
        assert_eq!(c.fill(line(0, 1), false), None);
        assert!(c.access(line(0, 1), false));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        c.fill(line(0, 1), false);
        c.fill(line(0, 2), false);
        // Touch tag 1 so tag 2 is LRU.
        assert!(c.access(line(0, 1), false));
        let v = c.fill(line(0, 3), false).expect("eviction");
        assert_eq!(v.line, line(0, 2));
        assert!(c.contains(line(0, 1)));
        assert!(c.contains(line(0, 3)));
        assert!(!c.contains(line(0, 2)));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.fill(line(0, 1), false);
        assert!(c.access(line(0, 1), true)); // dirty it
        c.fill(line(0, 2), false);
        let v = c.fill(line(0, 3), false).expect("eviction");
        assert_eq!(v.line, line(0, 1));
        assert!(v.dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_fill_into_a_dirty_victims_way_is_clean() {
        let mut c = tiny();
        c.fill(line(0, 1), true);
        c.fill(line(0, 2), false);
        let v = c.fill(line(0, 3), false).expect("eviction");
        assert_eq!(v.line, line(0, 1));
        assert!(v.dirty);
        // Tag 3 took tag 1's way clean, so evicting it writes nothing back.
        c.fill(line(0, 4), false);
        let v = c.fill(line(0, 5), false).expect("eviction");
        assert_eq!(v.line, line(0, 3));
        assert!(!v.dirty, "a clean fill must clear the way's dirty bit");
    }

    #[test]
    fn fill_of_present_line_is_noop_eviction() {
        let mut c = tiny();
        c.fill(line(1, 5), false);
        assert_eq!(c.fill(line(1, 5), true), None);
        assert_eq!(c.resident_lines(), 1);
        // The refresh marked it dirty.
        c.fill(line(1, 6), false);
        let v = c.fill(line(1, 7), false).unwrap();
        assert!(v.dirty);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.fill(line(2, 9), true);
        assert_eq!(c.invalidate(line(2, 9)), Some(true));
        assert_eq!(c.invalidate(line(2, 9)), None);
        assert!(!c.contains(line(2, 9)));
    }

    #[test]
    fn victim_reconstructed_address_maps_to_same_set() {
        let mut c = tiny();
        c.fill(line(3, 1), false);
        c.fill(line(3, 2), false);
        let v = c.fill(line(3, 9), false).unwrap();
        assert_eq!(v.line.0 % 4, 3, "victim must come from the same set");
    }

    #[test]
    fn writeback_marks_present_line_dirty() {
        let mut c = tiny();
        c.fill(line(0, 1), false);
        assert_eq!(c.writeback(line(0, 1)), None);
        c.fill(line(0, 2), false);
        let v = c.fill(line(0, 3), false).unwrap();
        assert_eq!(v.line, line(0, 1));
        assert!(v.dirty, "writeback should have dirtied the line");
    }

    #[test]
    fn writeback_installs_missing_line_dirty() {
        let mut c = tiny();
        assert_eq!(c.writeback(line(1, 4)), None);
        assert!(c.contains(line(1, 4)));
        c.fill(line(1, 5), false);
        let v = c.fill(line(1, 6), false).unwrap();
        assert!(v.dirty);
        // Writebacks are not demand accesses.
        assert_eq!(c.stats().accesses, 0);
    }

    #[test]
    fn invalidate_matching_returns_dirty_lines() {
        let mut c = tiny();
        c.fill(line(0, 1), true); // dirty
        c.fill(line(1, 1), false); // clean
        c.fill(line(2, 9), true); // dirty, different "page"
        let mut dirty = Vec::new();
        c.invalidate_matching(|l| l == line(0, 1) || l == line(1, 1), |v| dirty.push(v));
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].line, line(0, 1));
        assert!(!c.contains(line(0, 1)));
        assert!(!c.contains(line(1, 1)));
        assert!(c.contains(line(2, 9)), "unmatched line must survive");
    }

    /// Fill `top` dirty, push it out of its two-way set with two low tags
    /// and return the victim.
    fn evict_after(c: &mut SetAssocCache, top: LineAddr) -> Victim {
        let set = top.0 % 4;
        assert_eq!(c.fill(top, true), None);
        c.fill(line(set, 0), false);
        c.fill(line(set, 1), false).expect("eviction")
    }

    #[test]
    fn widest_16_bit_tag_round_trips_without_high_halves() {
        let mut c = tiny();
        let top = line(3, u64::from(u16::MAX));
        let v = evict_after(&mut c, top);
        assert_eq!(v.line, top, "the key must round-trip to the same line");
        assert!(c.high.is_empty(), "a 16-bit tag must not allocate");
    }

    #[test]
    fn tag_past_16_bits_moves_onto_high_halves() {
        let mut c = tiny();
        c.fill(line(2, 0), false);
        // Truncated to 16 bits this tag would be 0, aliasing line(2, 0).
        let wide = line(2, u64::from(u16::MAX) + 1);
        assert!(!c.contains(wide));
        assert!(!c.access(wide, true));
        assert_eq!(c.fill(wide, true), None);
        assert_eq!(c.high.len(), 8);
        assert!(c.contains(wide) && c.contains(line(2, 0)));
        assert_eq!(c.resident_addrs(), vec![line(2, 0), wide]);
        assert_eq!(c.invalidate(wide), Some(true));
        assert!(c.contains(line(2, 0)));
        assert!(!c.contains(wide));
    }

    #[test]
    fn widest_tag_gets_the_largest_key() {
        let mut c = tiny();
        let top = line(3, u64::from(u32::MAX));
        let v = evict_after(&mut c, top);
        assert_eq!(v.line, top, "the key must round-trip to the same line");
    }

    #[test]
    #[should_panic(expected = "value 4294967296 does not fit in u32")]
    fn tag_beyond_key_width_panics_instead_of_aliasing() {
        // Truncated to 32 bits this tag would be 0, aliasing line(0, 0).
        tiny().access(line(0, u64::from(u32::MAX) + 1), false);
    }

    #[test]
    fn invalidated_way_keeps_a_stale_key_that_never_hits() {
        let mut c = tiny();
        // Set 1 is slots 2 and 3.
        c.fill(line(1, 5), false);
        c.fill(line(1, 0), true);
        assert_eq!(c.invalidate(line(1, 0)), Some(true));
        // Way 1 still holds key 0, but its line is gone.
        assert_eq!(c.keys[3], 0);
        assert!(!c.contains(line(1, 0)));
        assert!(!c.access(line(1, 0), false));
        assert_eq!(c.invalidate(line(1, 0)), None);
        // The invalid way is reused first and evicts nothing, though the
        // valid line beside it is the least recently used.
        assert_eq!(c.fill(line(1, 7), false), None);
        assert_eq!(c.keys[3], 7);
        assert_eq!(c.resident_addrs(), vec![line(1, 5), line(1, 7)]);
        // Refilling tag 0 then evicts the true LRU line, cleanly.
        let v = c.fill(line(1, 0), false).expect("eviction");
        assert_eq!((v.line, v.dirty), (line(1, 5), false));
        assert!(c.contains(line(1, 0)));
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny();
        for s in 0..4 {
            c.fill(line(s, 7), false);
        }
        assert_eq!(c.resident_lines(), 4);
        for s in 0..4 {
            assert!(c.contains(line(s, 7)));
        }
    }
}
