//! Dense `u64 → u64` map over a two-level radix, shared by the page table
//! (vpn → pfn) and the OS's reverse frame map (pfn → owner).

use moca_common::units::narrow_usize;

/// Keys per radix chunk (a 4 KiB chunk of 8-byte entries).
const CHUNK: usize = 512;

/// Sentinel for "absent". Stored values are frame numbers or packed
/// owners, both many orders of magnitude below this.
const ABSENT: u64 = u64::MAX;

/// Split a key into (chunk index, offset within chunk).
#[inline]
fn split(key: u64) -> (usize, usize) {
    let key = narrow_usize(key);
    (key / CHUNK, key % CHUNK)
}

/// A map from small dense keys to `u64` values: chunk `key / 512` is a
/// lazily allocated array indexed by `key % 512`.
///
/// Lookups are two dereferences with no comparisons. Memory is one pointer
/// per 512 keys of key range plus 4 KiB per touched chunk, so it suits
/// keys that cluster (vpns of a segment, pfns of a frame space). The map
/// never exposes an order except through [`RadixMap::iter`], which walks
/// chunks in index order and so ascends by key exactly like a `DetMap`.
/// It keeps no count; [`crate::PageTable`] counts its own mappings.
#[derive(Debug, Clone, Default)]
pub struct RadixMap {
    chunks: Vec<Option<Box<[u64; CHUNK]>>>,
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
            v => Some(v),
        }
    }

    /// Store `value` at `key`, returning the value it replaced. Panics if
    /// `value` is the internal absent sentinel.
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
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
            old => Some(old),
        }
    }

    /// Remove `key`, returning its value.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let (ci, off) = split(key);
        let chunk = self.chunks.get_mut(ci)?.as_mut()?;
        match std::mem::replace(&mut chunk[off], ABSENT) {
            ABSENT => None,
            v => Some(v),
        }
    }

    /// Iterate over `(key, value)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.chunks
            .iter()
            .enumerate()
            .filter_map(|(ci, c)| c.as_ref().map(|c| (ci, c)))
            .flat_map(|(ci, chunk)| {
                chunk
                    .iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != ABSENT)
                    .map(move |(off, &v)| ((ci * CHUNK + off) as u64, v))
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
    #[should_panic(expected = "absent sentinel")]
    fn sentinel_value_rejected() {
        RadixMap::new().insert(1, u64::MAX);
    }
}
