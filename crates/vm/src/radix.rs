//! `u64 → u32` map over a two-level radix of run-coded or dense chunks:
//! the page table's vpn → pfn map, one per layout region.

use moca_common::units::{narrow_u32, narrow_usize};

/// Keys per radix chunk.
const CHUNK: usize = 512;

/// Most runs a chunk holds before it switches to a dense array. It bounds
/// `get`'s binary search at seven probes; 64 runs of 8 bytes are a quarter
/// of the 2 KiB array, so this bound binds before the byte cost does.
const MAX_RUNS: usize = 64;

/// Run slots a chunk's list grows by once it is full. Growing by a fixed
/// step instead of doubling keeps at most this many spare slots per chunk
/// (a removal that leaves more gives the excess back), and since a list
/// holds at most [`MAX_RUNS`] runs, it reallocates at most 17 times.
const RUN_STEP: usize = 4;

/// Sentinel for "absent" in a dense chunk. Stored values are frame numbers
/// (below 2^32 frames, or 16 TiB of 4 KiB pages), so none reaches it.
const ABSENT: u32 = u32::MAX;

/// Split a key into (chunk index, offset within chunk).
#[inline]
fn split(key: u64) -> (usize, usize) {
    let key = narrow_usize(key);
    (key / CHUNK, key % CHUNK)
}

/// An affine run: the `len` keys from chunk offset `start` hold `base`,
/// `base + 1`, … Every stored value is below [`ABSENT`], so `base + len`
/// never overflows.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: u16,
    len: u16,
    base: u32,
}

impl Run {
    /// The one-key run `off → value` (`off < CHUNK`, so it fits 16 bits).
    fn single(off: usize, value: u32) -> Run {
        Run {
            start: off as u16,
            len: 1,
            base: value,
        }
    }

    /// Offset just past the run's last key.
    fn end(self) -> usize {
        usize::from(self.start) + usize::from(self.len)
    }

    /// Value at `off`, which the run covers.
    fn value_at(self, off: usize) -> u32 {
        self.base + (off - usize::from(self.start)) as u32
    }

    /// Whether `off → value` is the run's next key and value.
    fn continues_with(self, off: usize, value: u32) -> bool {
        off == self.end() && value == self.base + u32::from(self.len)
    }
}

/// Make room in `runs` for one more run: [`RUN_STEP`] slots more once the
/// list is full.
fn reserve_run(runs: &mut Vec<Run>) {
    if runs.len() == runs.capacity() {
        runs.reserve_exact(RUN_STEP);
    }
}

/// Give back the slots past [`RUN_STEP`] spare ones after a run was removed.
fn release_run(runs: &mut Vec<Run>) {
    if runs.capacity() > runs.len() + RUN_STEP {
        runs.shrink_to(runs.len() + RUN_STEP);
    }
}

/// Number of runs that start at or before `off`; the run covering `off`,
/// if any, is the last of them.
#[inline]
fn runs_through(runs: &[Run], off: usize) -> usize {
    runs.partition_point(|r| usize::from(r.start) <= off)
}

/// Remove `off` from sorted runs, returning its value: the covering run
/// loses that key, which splits it in two if the key was inside.
fn carve(runs: &mut Vec<Run>, off: usize) -> Option<u32> {
    let i = runs_through(runs, off).checked_sub(1)?;
    let run = runs[i];
    if off >= run.end() {
        return None;
    }
    let old = run.value_at(off);
    let left = Run {
        len: (off - usize::from(run.start)) as u16,
        ..run
    };
    let right = Run {
        start: run.start + left.len + 1,
        len: run.len - left.len - 1,
        base: old + 1,
    };
    match (left.len, right.len) {
        (0, 0) => {
            runs.remove(i);
            release_run(runs);
        }
        (0, _) => runs[i] = right,
        (_, 0) => runs[i] = left,
        _ => {
            runs[i] = left;
            reserve_run(runs);
            runs.insert(i + 1, right);
        }
    }
    Some(old)
}

/// Store `off → value` in sorted runs where `off` is absent, joining the
/// neighbour on either side that it continues affinely.
fn fill(runs: &mut Vec<Run>, off: usize, value: u32) {
    let i = runs_through(runs, off);
    let joins_left = runs[..i]
        .last()
        .is_some_and(|r| r.continues_with(off, value));
    let joins_right = runs
        .get(i)
        .is_some_and(|r| Run::single(off, value).continues_with(usize::from(r.start), r.base));
    match (joins_left, joins_right) {
        (true, true) => {
            let right = runs.remove(i);
            runs[i - 1].len += 1 + right.len;
            release_run(runs);
        }
        (true, false) => runs[i - 1].len += 1,
        (false, true) => {
            let r = &mut runs[i];
            r.start -= 1;
            r.len += 1;
            r.base = value;
        }
        (false, false) => {
            reserve_run(runs);
            runs.insert(i, Run::single(off, value));
        }
    }
}

/// One chunk of 512 keys in one of two forms.
#[derive(Debug, Clone)]
enum Chunk {
    /// Affine runs sorted by `start`, disjoint, and maximal: no run
    /// continues into the next. An empty list allocates nothing.
    Runs(Vec<Run>),
    /// Values indexed by offset, [`ABSENT`] where a key is missing. A
    /// chunk turns dense once it would hold more than [`MAX_RUNS`] runs,
    /// and stays dense.
    Dense(Box<[u32; CHUNK]>),
}

impl Default for Chunk {
    fn default() -> Chunk {
        Chunk::Runs(Vec::new())
    }
}

impl Chunk {
    /// Value at `off`.
    #[inline]
    fn get(&self, off: usize) -> Option<u32> {
        match self {
            Chunk::Dense(values) => Some(values[off]).filter(|&v| v != ABSENT),
            Chunk::Runs(runs) => {
                let run = *runs[..runs_through(runs, off)].last()?;
                (off < run.end()).then(|| run.value_at(off))
            }
        }
    }

    /// Offset holding `value`, if any (the lowest, should several): a
    /// scan of every run, or of every slot of a dense chunk.
    fn offset_of(&self, value: u32) -> Option<usize> {
        match self {
            Chunk::Dense(values) => values.iter().position(|&v| v == value),
            Chunk::Runs(runs) => runs
                .iter()
                .find(|r| value.wrapping_sub(r.base) < u32::from(r.len))
                .map(|r| usize::from(r.start) + (value - r.base) as usize),
        }
    }

    /// Switch to the dense form if the runs passed [`MAX_RUNS`].
    fn bound_runs(&mut self) {
        if matches!(self, Chunk::Runs(runs) if runs.len() > MAX_RUNS) {
            let mut values = Box::new([ABSENT; CHUNK]);
            for (off, v) in self.iter() {
                values[off] = v;
            }
            *self = Chunk::Dense(values);
        }
    }

    /// Check the runs form's invariant (debug builds only).
    #[cfg(debug_assertions)]
    fn check(&self) {
        if let Chunk::Runs(runs) = self {
            assert!(runs.len() <= MAX_RUNS, "{} runs in one chunk", runs.len());
            assert!(
                runs.capacity() <= runs.len() + RUN_STEP,
                "{} run slots for {} runs",
                runs.capacity(),
                runs.len()
            );
            assert!(runs.iter().all(|r| r.len > 0 && r.end() <= CHUNK));
            for pair in runs.windows(2) {
                assert!(
                    pair[0].end() <= usize::from(pair[1].start)
                        && !pair[0].continues_with(usize::from(pair[1].start), pair[1].base),
                    "runs {pair:?} overlap, are unsorted or should be one"
                );
            }
        }
    }

    /// `(offset, value)` pairs in ascending offset order; reversible.
    fn iter(&self) -> impl DoubleEndedIterator<Item = (usize, u32)> + '_ {
        let (runs, dense) = match self {
            Chunk::Runs(runs) => (Some(runs), None),
            Chunk::Dense(values) => (None, Some(values)),
        };
        let from_runs = runs.into_iter().flatten().flat_map(|&run| {
            (usize::from(run.start)..run.end()).map(move |off| (off, run.value_at(off)))
        });
        let from_dense = dense.into_iter().flat_map(|values| {
            values
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v != ABSENT)
                .map(|(off, &v)| (off, v))
        });
        from_runs.chain(from_dense)
    }
}

/// A map from small dense keys to 32-bit values: chunk `key / 512` holds
/// the keys with that index, either as affine runs or as a dense array.
///
/// A run maps `len` consecutive keys to consecutive values, which is how
/// the OS maps an object's pages at instantiation (§IV-E): consecutive
/// vpns land on consecutive frames, so a page-table chunk is a few dozen
/// runs of 8 bytes instead of a 2 KiB array. An insert at or past a
/// chunk's last run (the startup prefault's order) extends that run or
/// appends one without searching; one elsewhere, like a removal, splits
/// the covering run and rejoins neighbours that become affine. Once a
/// chunk would hold more than 64 runs (page-granular migration scatters
/// them) it switches to the dense `[u32; 512]` array. Run lists grow four
/// slots at a time and the chunk index grows to exactly the chunks in
/// use, so neither carries doubling slack.
///
/// A lookup indexes the chunk, then either binary-searches its runs (at
/// most seven probes) or reads the dense array. The reverse query
/// [`RadixMap::key_of`] scans every run instead. An unused chunk costs its
/// 24-byte slot in the top level. The map never exposes an order except
/// through [`RadixMap::iter`], which walks chunks and runs in index order
/// and so ascends by key exactly like a `DetMap`. It keeps no count;
/// [`crate::PageTable`] counts its own mappings.
#[derive(Debug, Clone, Default)]
pub struct RadixMap {
    chunks: Vec<Chunk>,
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
        self.chunks.get(ci)?.get(off).map(u64::from)
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
            self.chunks.reserve_exact(ci + 1 - self.chunks.len());
            self.chunks.resize_with(ci + 1, Chunk::default);
        }
        let chunk = &mut self.chunks[ci];
        let old = match chunk {
            Chunk::Dense(values) => {
                return Some(std::mem::replace(&mut values[off], value))
                    .filter(|&v| v != ABSENT)
                    .map(u64::from);
            }
            Chunk::Runs(runs) => match runs.last_mut() {
                // The prefault's order: extend the last run, or append one.
                Some(last) if last.continues_with(off, value) => {
                    last.len += 1;
                    None
                }
                Some(last) if off < last.end() => {
                    let old = carve(runs, off);
                    fill(runs, off, value);
                    old
                }
                _ => {
                    reserve_run(runs);
                    runs.push(Run::single(off, value));
                    None
                }
            },
        };
        chunk.bound_runs();
        #[cfg(debug_assertions)]
        chunk.check();
        old.map(u64::from)
    }

    /// Remove `key`, returning its value.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let (ci, off) = split(key);
        let chunk = self.chunks.get_mut(ci)?;
        let old = match chunk {
            Chunk::Dense(values) => {
                Some(std::mem::replace(&mut values[off], ABSENT)).filter(|&v| v != ABSENT)
            }
            Chunk::Runs(runs) => carve(runs, off),
        };
        chunk.bound_runs();
        #[cfg(debug_assertions)]
        chunk.check();
        old.map(u64::from)
    }

    /// Key holding `value`, if any (the lowest, should several). Scans
    /// every run and dense slot, so it costs O(runs) where [`RadixMap::get`]
    /// costs seven probes; it serves rare reverse queries.
    pub fn key_of(&self, value: u64) -> Option<u64> {
        let value = u32::try_from(value).ok().filter(|&v| v != ABSENT)?;
        self.chunks
            .iter()
            .enumerate()
            .find_map(|(ci, chunk)| chunk.offset_of(value).map(|off| (ci * CHUNK + off) as u64))
    }

    /// Iterate over `(key, value)` pairs in ascending key order (reversed,
    /// in descending order).
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (u64, u64)> + '_ {
        self.chunks.iter().enumerate().flat_map(|(ci, chunk)| {
            chunk
                .iter()
                .map(move |(off, v)| ((ci * CHUNK + off) as u64, u64::from(v)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The runs of chunk `ci`, or `None` once it is dense.
    fn runs(m: &RadixMap, ci: usize) -> Option<Vec<(u16, u16, u32)>> {
        match &m.chunks[ci] {
            Chunk::Runs(runs) => Some(runs.iter().map(|r| (r.start, r.len, r.base)).collect()),
            Chunk::Dense(_) => None,
        }
    }

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
        m.insert(3, top - 1);
        m.insert(4, top);
        assert_eq!(runs(&m, 0), Some(vec![(3, 2, u32::MAX - 2)]));
        assert_eq!(m.get(4), Some(top));
        assert_eq!(m.remove(3), Some(top - 1));
        assert_eq!(m.get(4), Some(top));
    }

    #[test]
    #[should_panic(expected = "absent sentinel")]
    fn sentinel_value_rejected() {
        RadixMap::new().insert(1, u64::from(u32::MAX));
    }

    #[test]
    fn a_slot_is_three_words_and_an_empty_chunk_allocates_nothing() {
        assert_eq!(std::mem::size_of::<Chunk>(), 24);
        assert_eq!(std::mem::size_of::<Run>(), 8);
        let mut m = RadixMap::new();
        m.insert(5 * 512, 1);
        assert_eq!(runs(&m, 0), Some(vec![]));
    }

    #[test]
    fn ascending_affine_inserts_extend_one_run() {
        let mut m = RadixMap::new();
        for k in 0..512 {
            m.insert(512 + k, 1000 + k);
        }
        assert_eq!(runs(&m, 1), Some(vec![(0, 512, 1000)]));
        // A break in the values starts a second run.
        m.insert(1024, 7);
        m.insert(1025, 9);
        assert_eq!(runs(&m, 2), Some(vec![(0, 1, 7), (1, 1, 9)]));
    }

    #[test]
    fn mid_run_remap_splits_and_restoring_it_rejoins() {
        let mut m = RadixMap::new();
        for k in 0..10 {
            m.insert(k, 100 + k);
        }
        assert_eq!(m.insert(4, 7), Some(104));
        assert_eq!(runs(&m, 0), Some(vec![(0, 4, 100), (4, 1, 7), (5, 5, 105)]));
        assert_eq!(m.insert(4, 104), Some(7));
        assert_eq!(runs(&m, 0), Some(vec![(0, 10, 100)]));
        assert_eq!(m.remove(0), Some(100));
        assert_eq!(m.remove(9), Some(109));
        assert_eq!(m.remove(5), Some(105));
        assert_eq!(runs(&m, 0), Some(vec![(1, 4, 101), (6, 3, 106)]));
        // Filling the hole from either side joins the three pieces.
        m.insert(5, 105);
        assert_eq!(runs(&m, 0), Some(vec![(1, 8, 101)]));
        m.insert(0, 100);
        assert_eq!(runs(&m, 0), Some(vec![(0, 9, 100)]));
        assert_eq!(m.iter().next_back(), Some((8, 108)));
    }

    #[test]
    fn run_lists_and_the_chunk_index_carry_no_doubling_slack() {
        let spare = |m: &RadixMap| match &m.chunks[0] {
            Chunk::Runs(runs) => runs.capacity() - runs.len(),
            Chunk::Dense(_) => unreachable!("never more than MAX_RUNS runs"),
        };
        let mut m = RadixMap::new();
        for i in 0..MAX_RUNS as u64 {
            m.insert(2 * i, 10 * i);
            assert!(spare(&m) < RUN_STEP, "{} spare after insert {i}", spare(&m));
        }
        for i in 0..MAX_RUNS as u64 {
            m.remove(2 * i);
            assert!(
                spare(&m) <= RUN_STEP,
                "{} spare after remove {i}",
                spare(&m)
            );
        }
        m.insert(5 * 512, 1);
        assert_eq!(
            m.chunks.capacity(),
            6,
            "the index holds exactly the chunks in use"
        );
    }

    #[test]
    fn key_of_inverts_runs_and_dense_chunks() {
        let mut m = RadixMap::new();
        for k in 0..10 {
            m.insert(512 + k, 100 + k);
        }
        assert_eq!(m.key_of(104), Some(516));
        assert_eq!(m.key_of(99), None);
        assert_eq!(m.key_of(110), None);
        assert_eq!(m.key_of(u64::from(u32::MAX)), None, "the absent sentinel");
        assert_eq!(m.key_of(1 << 32), None, "wider than any stored value");
        // A dense chunk answers too, and values elsewhere still resolve.
        for i in 0..=MAX_RUNS as u64 {
            m.insert(2 * i, 10_000 + 10 * i);
        }
        assert_eq!(runs(&m, 0), None);
        assert_eq!(m.key_of(10_070), Some(14));
        assert_eq!(m.key_of(10_075), None);
        assert_eq!(m.key_of(109), Some(521));
    }

    #[test]
    fn more_than_max_runs_turns_a_chunk_dense() {
        let mut m = RadixMap::new();
        // Every other key, values far apart: one run per key.
        for i in 0..MAX_RUNS as u64 {
            m.insert(2 * i, 10 * i);
        }
        assert_eq!(runs(&m, 0).map(|r| r.len()), Some(MAX_RUNS));
        m.insert(1, 5);
        assert_eq!(runs(&m, 0), None, "the 65th run switches to dense");
        assert_eq!(m.get(1), Some(5));
        assert_eq!(m.get(2 * 63), Some(630));
        assert_eq!(m.get(3), None);
        let got: Vec<(u64, u64)> = m.iter().take(3).collect();
        assert_eq!(got, vec![(0, 0), (1, 5), (2, 10)]);
    }
}
