//! Miss Status Holding Registers.
//!
//! An MSHR file bounds the number of outstanding primary misses of a cache
//! (Table I: 4 for L1, 20 for L2) and merges secondary misses to the same
//! line. The MSHR count is what limits a core's memory-level parallelism —
//! the property the MOCA classifier measures through ROB-head stalls.
//!
//! The file is a fixed array of `capacity` slots searched linearly: with
//! 4–20 entries a scan over a flat array beats any tree or hash map, and
//! the search order never leaks into simulated behaviour (lookups are by
//! exact line, and the outcome of `on_miss`/`complete` is independent of
//! which slot a line occupies), so determinism is preserved without the
//! ordered map the rest of the simulator uses.

use moca_common::LineAddr;

/// Outcome of presenting a miss to the MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated: the caller must forward the request to the
    /// next level.
    AllocatedPrimary,
    /// Merged into an existing entry for the same line: no new downstream
    /// request is needed.
    MergedSecondary,
    /// The file is full: the requester must stall and retry.
    Full,
}

/// One register: a line with its waiter list. Invalid slots keep their
/// waiter `Vec` so its allocation is reused for the lifetime of the file.
#[derive(Debug, Clone)]
struct Slot<W> {
    valid: bool,
    line: LineAddr,
    waiters: Vec<W>,
}

/// MSHR file with per-line waiter lists. `W` is the caller's waiter token
/// (e.g. a ROB slot or an upper-level transaction id).
#[derive(Debug, Clone)]
pub struct MshrFile<W> {
    slots: Vec<Slot<W>>,
    occupancy: usize,
}

impl<W> MshrFile<W> {
    /// Create a file with `capacity` primary-miss slots.
    pub fn new(capacity: usize) -> MshrFile<W> {
        assert!(capacity > 0);
        MshrFile {
            slots: (0..capacity)
                .map(|_| Slot {
                    valid: false,
                    line: LineAddr(0),
                    waiters: Vec::new(),
                })
                .collect(),
            occupancy: 0,
        }
    }

    fn find(&self, line: LineAddr) -> Option<usize> {
        self.slots.iter().position(|s| s.valid && s.line == line)
    }

    /// Present a miss on `line` with waiter `w`.
    pub fn on_miss(&mut self, line: LineAddr, w: W) -> MshrOutcome {
        if let Some(i) = self.find(line) {
            self.slots[i].waiters.push(w);
            return MshrOutcome::MergedSecondary;
        }
        if self.occupancy >= self.slots.len() {
            return MshrOutcome::Full;
        }
        let free = self
            .slots
            .iter()
            .position(|s| !s.valid)
            .expect("occupancy below capacity implies a free slot");
        let slot = &mut self.slots[free];
        slot.valid = true;
        slot.line = line;
        slot.waiters.push(w);
        self.occupancy += 1;
        MshrOutcome::AllocatedPrimary
    }

    /// Complete the miss on `line`, appending its waiters to `out` (nothing
    /// if the line had no entry — e.g. a prefetch or a duplicate
    /// completion). Both `out`'s and the slot's capacity are kept, so the
    /// fill path, which runs once per off-chip completion, allocates
    /// nothing.
    pub fn complete(&mut self, line: LineAddr, out: &mut Vec<W>) {
        if let Some(i) = self.find(line) {
            let slot = &mut self.slots[i];
            slot.valid = false;
            out.append(&mut slot.waiters);
            self.occupancy -= 1;
        }
    }

    /// Whether `line` has an outstanding entry.
    pub fn pending(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Whether no further primary misses can be accepted.
    pub fn is_full(&self) -> bool {
        self.occupancy >= self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(m: &mut MshrFile<u32>, line: u64) -> Vec<u32> {
        let mut out = Vec::new();
        m.complete(LineAddr(line), &mut out);
        out
    }

    #[test]
    fn allocates_then_merges() {
        let mut m: MshrFile<u32> = MshrFile::new(2);
        assert_eq!(m.on_miss(LineAddr(1), 10), MshrOutcome::AllocatedPrimary);
        assert_eq!(m.on_miss(LineAddr(1), 11), MshrOutcome::MergedSecondary);
        // The merge took no slot of its own.
        assert!(!m.is_full());
        assert_eq!(complete(&mut m, 1), vec![10, 11]);
        assert!(!m.pending(LineAddr(1)));
    }

    #[test]
    fn full_rejects_new_lines_but_merges_existing() {
        let mut m: MshrFile<u32> = MshrFile::new(2);
        m.on_miss(LineAddr(1), 1);
        m.on_miss(LineAddr(2), 2);
        assert!(m.is_full());
        assert_eq!(m.on_miss(LineAddr(3), 3), MshrOutcome::Full);
        assert_eq!(m.on_miss(LineAddr(2), 4), MshrOutcome::MergedSecondary);
    }

    #[test]
    fn completion_frees_slot() {
        let mut m: MshrFile<u32> = MshrFile::new(1);
        m.on_miss(LineAddr(7), 1);
        assert!(m.is_full());
        complete(&mut m, 7);
        assert_eq!(m.on_miss(LineAddr(8), 2), MshrOutcome::AllocatedPrimary);
    }

    #[test]
    fn complete_unknown_line_is_empty() {
        let mut m: MshrFile<u32> = MshrFile::new(1);
        assert!(complete(&mut m, 99).is_empty());
    }

    #[test]
    fn complete_into_appends_and_reuses_slot() {
        let mut m: MshrFile<u32> = MshrFile::new(2);
        m.on_miss(LineAddr(1), 10);
        m.on_miss(LineAddr(1), 11);
        let mut out = vec![9];
        m.complete(LineAddr(1), &mut out);
        assert_eq!(out, vec![9, 10, 11]);
        // The slot is free again and merges still work after reuse.
        assert_eq!(m.on_miss(LineAddr(5), 1), MshrOutcome::AllocatedPrimary);
        assert_eq!(m.on_miss(LineAddr(5), 2), MshrOutcome::MergedSecondary);
        assert_eq!(complete(&mut m, 5), vec![1, 2]);
    }
}
