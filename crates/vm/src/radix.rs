//! Dense `u64 → u32` map over a two-level radix, shared by the page table
//! (vpn → pfn) and the OS's reverse frame map (pfn → owning vpn).

use moca_common::units::{narrow_u32, narrow_usize};

/// Keys per radix chunk (a 2 KiB chunk of 4-byte entries).
const CHUNK: usize = 512;

/// Sentinel for "absent". Stored values are frame numbers (below 2^32
/// frames, or 16 TiB of 4 KiB pages) or vpns (below 2^32 for any virtual
/// address below 2^44), so neither reaches it.
const ABSENT: u32 = u32::MAX;

/// Split a key into (chunk index, offset within chunk).
#[inline]
fn split(key: u64) -> (usize, usize) {
    let key = narrow_usize(key);
    (key / CHUNK, key % CHUNK)
}

/// A map from small dense keys to 32-bit values: chunk `key / 512` is a
/// lazily allocated array indexed by `key % 512`.
///
/// Lookups are two dereferences with no comparisons. Memory is one pointer
/// per 512 keys of key range plus 2 KiB per touched chunk, so it suits
/// keys that cluster (vpns of a segment, pfns of a frame space). The map
/// never exposes an order except through [`RadixMap::iter`], which walks
/// chunks in index order and so ascends by key exactly like a `DetMap`.
/// It keeps no count; [`crate::PageTable`] counts its own mappings.
#[derive(Debug, Clone, Default)]
pub struct RadixMap {
    chunks: Vec<Option<Box<[u32; CHUNK]>>>,
}

impl RadixMap {
    /// Empty map.
    pub fn new() -> RadixMap {
        RadixMap::default()
    }

    /// Value stored at `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u64> {
        let (ci, off) = split(key);
        let chunk = self.chunks.get(ci)?.as_ref()?;
        match chunk[off] {
            ABSENT => None,
            v => Some(u64::from(v)),
        }
    }

    /// Store `value` at `key`, returning the value it replaced. Panics if
    /// `value` does not fit in 32 bits or is the internal absent sentinel.
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        let value = narrow_u32(value);
        assert!(
            value != ABSENT,
            "value {value:#x} collides with the absent sentinel"
        );
        let (ci, off) = split(key);
        if ci >= self.chunks.len() {
            self.chunks.resize_with(ci + 1, || None);
        }
        let chunk = self.chunks[ci].get_or_insert_with(|| Box::new([ABSENT; CHUNK]));
        match std::mem::replace(&mut chunk[off], value) {
            ABSENT => None,
            old => Some(u64::from(old)),
        }
    }

    /// Remove `key`, returning its value.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let (ci, off) = split(key);
        let chunk = self.chunks.get_mut(ci)?.as_mut()?;
        match std::mem::replace(&mut chunk[off], ABSENT) {
            ABSENT => None,
            v => Some(u64::from(v)),
        }
    }

    /// Iterate over `(key, value)` pairs in ascending key order (reversed,
    /// in descending order).
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (u64, u64)> + '_ {
        self.chunks
            .iter()
            .enumerate()
            .filter_map(|(ci, c)| c.as_ref().map(|c| (ci, c)))
            .flat_map(|(ci, chunk)| {
                chunk
                    .iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != ABSENT)
                    .map(move |(off, &v)| ((ci * CHUNK + off) as u64, u64::from(v)))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_replace_remove() {
        let mut m = RadixMap::new();
        assert_eq!(m.insert(7, 0), None, "zero is a valid value");
        assert_eq!(m.insert(7, 3), Some(0));
        assert_eq!(m.remove(7), Some(3));
        assert_eq!(m.remove(7), None);
        assert_eq!(m.iter().count(), 0);
        assert_eq!(m.remove(1 << 30), None, "beyond any chunk");
    }

    #[test]
    fn largest_value_below_the_sentinel_round_trips() {
        let mut m = RadixMap::new();
        let top = u64::from(u32::MAX) - 1;
        m.insert(3, top);
        assert_eq!(m.get(3), Some(top));
    }

    #[test]
    #[should_panic(expected = "absent sentinel")]
    fn sentinel_value_rejected() {
        RadixMap::new().insert(1, u64::from(u32::MAX));
    }
}
