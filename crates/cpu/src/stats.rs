//! Per-tag (object / segment) statistics — the raw material of MOCA's
//! profiler.

use moca_common::{TagCounters, TagTable};
use moca_telemetry::attribution::CycleBuckets;
use serde::{Deserialize, Serialize};

/// Counters attributed to one memory object or segment.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct TagStats {
    /// Demand accesses (loads + stores) issued.
    pub accesses: u64,
    /// Primary LLC (L2) misses — the numerator of LLC MPKI.
    pub llc_misses: u64,
    /// Loads that had to wait on DRAM (primary or merged misses).
    pub miss_loads: u64,
    /// Cycles the ROB head was blocked on an incomplete LLC-missing load of
    /// this tag (§III-A's "ROB head stall cycles").
    pub rob_head_stall_cycles: u64,
}

impl TagStats {
    /// LLC misses per kilo-instruction, given the run's instruction count.
    pub fn mpki(&self, instructions: u64) -> f64 {
        moca_common::stats::safe_div(self.llc_misses as f64 * 1000.0, instructions as f64)
    }

    /// Average ROB-head stall cycles per missing load — the paper's MLP
    /// metric (low ⇒ high MLP).
    pub fn stall_per_miss(&self) -> f64 {
        moca_common::stats::safe_div(self.rob_head_stall_cycles as f64, self.miss_loads as f64)
    }
}

impl TagCounters for TagStats {
    fn merge(&mut self, o: &TagStats) {
        self.accesses += o.accesses;
        self.llc_misses += o.llc_misses;
        self.miss_loads += o.miss_loads;
        self.rob_head_stall_cycles += o.rob_head_stall_cycles;
    }
}

/// Whole-core run statistics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CoreStats {
    /// Instructions committed.
    pub committed: u64,
    /// Cycles the core has been ticked.
    pub cycles: u64,
    /// Total ROB-head stall cycles on LLC-missing loads: the CPI stack's
    /// `load_miss` bucket. It and the five `cpi_*` buckets below split
    /// `cycles` exactly (see [`CoreStats::cpi_stack`]).
    pub head_stall_cycles: u64,
    /// CPI-stack bucket: cycles that committed.
    pub cpi_committing: u64,
    /// CPI-stack bucket: cycles an unissued head load met a full MSHR file.
    pub cpi_mshr_full: u64,
    /// CPI-stack bucket: cycles with nothing committed and a full ROB.
    pub cpi_rob_full: u64,
    /// CPI-stack bucket: cycles with an empty ROB.
    pub cpi_frontend_empty: u64,
    /// CPI-stack bucket: every other cycle.
    pub cpi_other: u64,
    /// Loads issued.
    pub loads: u64,
    /// Stores issued.
    pub stores: u64,
    /// Branch mispredict redirects taken.
    pub mispredicts: u64,
    /// Cycles dispatch was blocked on a full ROB.
    pub rob_full_cycles: u64,
    /// Cycles dispatch was blocked on a full LQ.
    pub lq_full_cycles: u64,
    /// Per-tag attribution.
    pub tags: TagTable<TagStats>,
}

impl CoreStats {
    /// The exclusive CPI stack; its buckets sum to `cycles`.
    pub fn cpi_stack(&self) -> CycleBuckets {
        CycleBuckets {
            committing: self.cpi_committing,
            load_miss: self.head_stall_cycles,
            mshr_full: self.cpi_mshr_full,
            rob_full: self.cpi_rob_full,
            frontend_empty: self.cpi_frontend_empty,
            other: self.cpi_other,
        }
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        moca_common::stats::safe_div(self.committed as f64, self.cycles as f64)
    }

    /// Whole-application LLC MPKI (all tags).
    pub fn app_mpki(&self) -> f64 {
        self.tags.total().mpki(self.committed)
    }

    /// Whole-application ROB-head stall cycles per missing load.
    pub fn app_stall_per_miss(&self) -> f64 {
        self.tags.total().stall_per_miss()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moca_common::ids::MemTag;
    use moca_common::{ObjectId, Segment};

    #[test]
    fn mpki_scales_with_instructions() {
        let s = TagStats {
            llc_misses: 50,
            ..TagStats::default()
        };
        assert!((s.mpki(10_000) - 5.0).abs() < 1e-12);
        assert_eq!(s.mpki(0), 0.0);
    }

    #[test]
    fn stall_per_miss_divides() {
        let s = TagStats {
            miss_loads: 4,
            rob_head_stall_cycles: 100,
            ..TagStats::default()
        };
        assert!((s.stall_per_miss() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn tag_table_routes_segments_and_objects() {
        let mut t = TagTable::<TagStats>::new(2);
        t.get_mut(MemTag::heap(ObjectId(1))).accesses += 3;
        t.get_mut(MemTag::segment(Segment::Stack)).accesses += 2;
        assert_eq!(t.object(ObjectId(1)).accesses, 3);
        assert_eq!(t.object(ObjectId(0)).accesses, 0);
        assert_eq!(t.segment(Segment::Stack).accesses, 2);
    }

    #[test]
    fn tag_table_grows_on_demand() {
        let mut t = TagTable::<TagStats>::new(0);
        t.get_mut(MemTag::heap(ObjectId(5))).llc_misses += 1;
        assert_eq!(t.objects(), 6);
        assert_eq!(t.object(ObjectId(5)).llc_misses, 1);
    }

    #[test]
    fn heap_segment_query_sums_objects() {
        let mut t = TagTable::<TagStats>::new(2);
        t.get_mut(MemTag::heap(ObjectId(0))).llc_misses = 2;
        t.get_mut(MemTag::heap(ObjectId(1))).llc_misses = 3;
        assert_eq!(t.segment(Segment::Heap).llc_misses, 5);
    }

    #[test]
    fn merge_tables() {
        let mut a = TagTable::<TagStats>::new(1);
        let mut b = TagTable::<TagStats>::new(3);
        a.get_mut(MemTag::heap(ObjectId(0))).accesses = 1;
        b.get_mut(MemTag::heap(ObjectId(2))).accesses = 7;
        a.merge(&b);
        assert_eq!(a.objects(), 3);
        assert_eq!(a.object(ObjectId(2)).accesses, 7);
        assert_eq!(a.object(ObjectId(0)).accesses, 1);
    }

    #[test]
    fn core_stats_ipc() {
        let s = CoreStats {
            committed: 300,
            cycles: 100,
            ..CoreStats::default()
        };
        assert!((s.ipc() - 3.0).abs() < 1e-12);
    }
}
