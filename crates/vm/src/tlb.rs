//! Translation lookaside buffer.

use moca_common::units::narrow_usize;
use serde::{Deserialize, Serialize};

/// TLB statistics.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct TlbStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed (page walk required).
    pub misses: u64,
}

impl TlbStats {
    /// Miss ratio in [0, 1].
    pub fn miss_rate(&self) -> f64 {
        moca_common::stats::safe_div(self.misses as f64, (self.hits + self.misses) as f64)
    }
}

/// Slot link meaning "none" (empty index cell, list end). Capacities are
/// capped below it, so every real slot number fits a `u16` link.
const NIL: u16 = u16::MAX;

/// Fibonacci-hashing multiplier (2^64 / golden ratio): spreads consecutive
/// vpns, the common case, across the whole index.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fully-associative LRU TLB with constant-time lookup, insert and eviction.
///
/// Translations live in slots `0..len`. An open-addressing index (linear
/// probing, at least 4× the capacity, deletes by backward shift so no
/// tombstones accumulate) maps a vpn to its slot, and an intrusive
/// doubly-linked list threads the slots in recency order: `head` is the
/// most recently used, `tail` the eviction victim. Exact LRU over unique
/// timestamps picks the same victim as this list, so hits, misses and
/// evictions match a linear-scan LRU TLB (a differential oracle test holds
/// it to that).
#[derive(Debug, Clone)]
pub struct Tlb {
    vpns: Vec<u64>,
    pfns: Vec<u64>,
    /// Recency list links per slot (towards `head` / towards `tail`).
    prev: Vec<u16>,
    next: Vec<u16>,
    head: u16,
    tail: u16,
    /// Slots in use; new translations take slot `len` until it reaches
    /// `capacity`.
    len: u16,
    capacity: u16,
    /// vpn -> slot, `NIL` for an empty cell. Length is a power of two.
    index: Vec<u16>,
    /// `64 - log2(index.len())`: the home cell is the top bits of the hash.
    shift: u32,
    stats: TlbStats,
}

impl Tlb {
    /// Largest supported capacity: slot numbers must stay below `u16::MAX`,
    /// the link value that means "none".
    pub const MAX_ENTRIES: usize = NIL as usize - 1;

    /// TLB with `capacity` entries, `1..=Tlb::MAX_ENTRIES`.
    pub fn new(capacity: usize) -> Tlb {
        assert!(
            (1..=Tlb::MAX_ENTRIES).contains(&capacity),
            "TLB capacity {capacity} outside 1..={}",
            Tlb::MAX_ENTRIES
        );
        let cells = (capacity * 4).next_power_of_two();
        Tlb {
            vpns: vec![0; capacity],
            pfns: vec![0; capacity],
            prev: vec![NIL; capacity],
            next: vec![NIL; capacity],
            head: NIL,
            tail: NIL,
            len: 0,
            capacity: u16::try_from(capacity).expect("capacity checked against MAX_ENTRIES"),
            index: vec![NIL; cells],
            shift: 64 - cells.trailing_zeros(),
            stats: TlbStats::default(),
        }
    }

    /// Home cell of `vpn` in the index.
    #[inline]
    fn home(&self, vpn: u64) -> usize {
        narrow_usize(vpn.wrapping_mul(HASH_MUL) >> self.shift)
    }

    /// Slot holding `vpn`, if any.
    #[inline]
    fn find(&self, vpn: u64) -> Option<u16> {
        let mask = self.index.len() - 1;
        let mut cell = self.home(vpn);
        loop {
            let slot = self.index[cell];
            if slot == NIL {
                return None;
            }
            if self.vpns[usize::from(slot)] == vpn {
                return Some(slot);
            }
            cell = (cell + 1) & mask;
        }
    }

    /// The empty cell that ends `vpn`'s probe run. The index holds at most a
    /// quarter as many entries as cells, so one exists.
    fn free_cell(&self, vpn: u64) -> usize {
        let mask = self.index.len() - 1;
        let mut cell = self.home(vpn);
        while self.index[cell] != NIL {
            cell = (cell + 1) & mask;
        }
        cell
    }

    /// Remove occupied `slot` from the index, shifting later members of its
    /// probe run back so lookups never need tombstones.
    fn unindex(&mut self, slot: u16) {
        let mask = self.index.len() - 1;
        let mut hole = self.home(self.vpns[usize::from(slot)]);
        while self.index[hole] != slot {
            hole = (hole + 1) & mask;
        }
        let mut cell = hole;
        loop {
            cell = (cell + 1) & mask;
            let moved = self.index[cell];
            if moved == NIL {
                break;
            }
            // The entry may fill the hole only if the hole lies on its probe
            // path, i.e. between its home cell and `cell` (cyclically).
            let home = self.home(self.vpns[usize::from(moved)]);
            if cell.wrapping_sub(home) & mask >= cell.wrapping_sub(hole) & mask {
                self.index[hole] = moved;
                hole = cell;
            }
        }
        self.index[hole] = NIL;
    }

    /// Unlink `slot` from the recency list.
    fn detach(&mut self, slot: u16) {
        let (p, n) = (self.prev[usize::from(slot)], self.next[usize::from(slot)]);
        if p == NIL {
            self.head = n;
        } else {
            self.next[usize::from(p)] = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.prev[usize::from(n)] = p;
        }
    }

    /// Link a detached `slot` in as most recently used.
    fn push_front(&mut self, slot: u16) {
        self.prev[usize::from(slot)] = NIL;
        self.next[usize::from(slot)] = self.head;
        if self.head == NIL {
            self.tail = slot;
        } else {
            self.prev[usize::from(self.head)] = slot;
        }
        self.head = slot;
    }

    /// Mark `slot` most recently used.
    #[inline]
    fn touch(&mut self, slot: u16) {
        if slot != self.head {
            self.detach(slot);
            self.push_front(slot);
        }
    }

    /// Look up a virtual page number, updating LRU and statistics.
    pub fn lookup(&mut self, vpn: u64) -> Option<u64> {
        // Consecutive accesses overwhelmingly touch the same page, and a hit
        // on the head needs no list update.
        let slot = if self.head != NIL && self.vpns[usize::from(self.head)] == vpn {
            self.head
        } else if let Some(slot) = self.find(vpn) {
            self.touch(slot);
            slot
        } else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        Some(self.pfns[usize::from(slot)])
    }

    /// Insert a translation (after a page walk), evicting the LRU entry if
    /// full. Replaces any stale entry for the same vpn.
    pub fn insert(&mut self, vpn: u64, pfn: u64) {
        if let Some(slot) = self.find(vpn) {
            self.pfns[usize::from(slot)] = pfn;
            self.touch(slot);
            return;
        }
        let slot = if self.len < self.capacity {
            self.len += 1;
            self.len - 1
        } else {
            let victim = self.tail;
            self.detach(victim);
            self.unindex(victim);
            victim
        };
        self.vpns[usize::from(slot)] = vpn;
        self.pfns[usize::from(slot)] = pfn;
        let cell = self.free_cell(vpn);
        self.index[cell] = slot;
        self.push_front(slot);
    }

    /// Drop all entries (context switch).
    pub fn flush(&mut self) {
        self.index.fill(NIL);
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
    }

    /// Statistics.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut t = Tlb::new(4);
        assert_eq!(t.lookup(1), None);
        t.insert(1, 100);
        assert_eq!(t.lookup(1), Some(100));
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2);
        t.insert(1, 10);
        t.insert(2, 20);
        t.lookup(1); // 2 becomes LRU
        t.insert(3, 30);
        assert_eq!(t.lookup(2), None);
        assert_eq!(t.lookup(1), Some(10));
        assert_eq!(t.lookup(3), Some(30));
    }

    #[test]
    fn reinsert_updates_mapping() {
        let mut t = Tlb::new(2);
        t.insert(1, 10);
        t.insert(1, 11);
        assert_eq!(t.lookup(1), Some(11));
    }

    #[test]
    fn flush_empties() {
        let mut t = Tlb::new(2);
        t.insert(1, 10);
        t.flush();
        assert_eq!(t.lookup(1), None);
    }

    #[test]
    fn max_capacity_evicts_lru() {
        let mut t = Tlb::new(Tlb::MAX_ENTRIES);
        let n = Tlb::MAX_ENTRIES as u64;
        for vpn in 0..n {
            t.insert(vpn << 12, vpn);
        }
        assert_eq!(t.lookup(0), Some(0)); // vpn 1 << 12 becomes LRU
        t.insert(n << 12, n);
        assert_eq!(t.lookup(1 << 12), None);
        for vpn in (0..=n).filter(|&v| v != 1) {
            assert_eq!(t.lookup(vpn << 12), Some(vpn));
        }
    }

    #[test]
    fn miss_rate_computed() {
        let mut t = Tlb::new(2);
        t.lookup(5);
        t.insert(5, 1);
        t.lookup(5);
        assert!((t.stats().miss_rate() - 0.5).abs() < 1e-12);
    }
}
