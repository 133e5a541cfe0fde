//! Shared base types for the MOCA reproduction.
//!
//! Every other crate in the workspace builds on the vocabulary defined here:
//! physical/virtual addresses, simulated time, memory-object identities, the
//! three-way object classification of the paper (latency-sensitive,
//! bandwidth-sensitive, non-memory-intensive), the four DRAM technologies of
//! Table II, deterministic random-number helpers, and a ratio helper.
//!
//! The crate is intentionally dependency-light so that the substrates
//! (`moca-dram`, `moca-cache`, `moca-cpu`, `moca-vm`) can share types without
//! coupling to each other.

pub mod addr;
pub mod bitset;
pub mod ids;
pub mod par;
pub mod rng;
pub mod stats;
pub mod tags;
pub mod units;
pub mod wheel;

pub use addr::{LineAddr, PhysAddr, VirtAddr, CACHE_LINE_SIZE, PAGE_SIZE};
pub use bitset::TwoLevelBitmap;
pub use ids::{AppId, CoreId, ObjectClass, ObjectId, Segment};
pub use rng::DetRng;
pub use tags::{TagCounters, TagTable};
pub use units::{Cycle, GB, KB, MB};

use serde::{Deserialize, Serialize};

/// Kind of a memory access as seen by caches and DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// A load (demand read). Reads are latency-critical: their queueing and
    /// service time is what the paper reports as "memory access time".
    Read,
    /// A store or a dirty writeback. Writes are buffered and drained
    /// opportunistically; they contribute to bandwidth and energy but not to
    /// load latency.
    Write,
}

impl AccessKind {
    /// True for [`AccessKind::Read`].
    #[inline]
    pub fn is_read(self) -> bool {
        matches!(self, AccessKind::Read)
    }
}

/// The four DRAM technologies evaluated by the paper (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ModuleKind {
    /// Baseline commodity DDR3-1866.
    Ddr3,
    /// Low-power mobile DRAM: lowest power, worst latency/bandwidth.
    Lpddr2,
    /// Reduced-latency DRAM: SRAM-like access, 4-5x the power of DDR3.
    Rldram3,
    /// 2.5D-stacked high-bandwidth memory.
    Hbm,
}

impl ModuleKind {
    /// All module kinds, in a stable order.
    pub const ALL: [ModuleKind; 4] = [
        ModuleKind::Ddr3,
        ModuleKind::Lpddr2,
        ModuleKind::Rldram3,
        ModuleKind::Hbm,
    ];

    /// Short display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ModuleKind::Ddr3 => "DDR3",
            ModuleKind::Lpddr2 => "LPDDR2",
            ModuleKind::Rldram3 => "RLDRAM",
            ModuleKind::Hbm => "HBM",
        }
    }
}

impl std::fmt::Display for ModuleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_kind_read_predicate() {
        assert!(AccessKind::Read.is_read());
        assert!(!AccessKind::Write.is_read());
    }

    #[test]
    fn module_kind_names_are_unique() {
        let names: std::collections::HashSet<_> =
            ModuleKind::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), ModuleKind::ALL.len());
    }

    #[test]
    fn module_kind_display_matches_name() {
        for m in ModuleKind::ALL {
            assert_eq!(m.to_string(), m.name());
        }
    }
}
