//! Run metrics: the quantities the paper's figures plot.
//!
//! * **Memory access time** (Figs. 8, 10, 14) — queue latency + service time
//!   summed over DRAM reads, measured at the memory controllers (§VI-A: "we
//!   calculate memory access time by adding up the queue latency, bus
//!   latency and the time required for the memory request to get serviced").
//! * **Memory EDP** (Figs. 9, 11, 15) — average memory power × total memory
//!   access time, the paper's literal definition (§VI-A: "we compute memory
//!   EDP by multiplying memory power and memory access latency"). Power is
//!   integrated at nominal module capacities (see DESIGN.md).
//! * **System performance / EDP** (Figs. 12, 13) — aggregate committed
//!   instructions per cycle, and (core + memory) energy × runtime, with the
//!   core power model calibrated to the paper's 21 W four-core average.

use moca_common::units::cycles_to_seconds;
use moca_common::{AppId, Cycle, ModuleKind, ObjectClass};
use moca_cpu::CoreStats;
use moca_dram::{ChannelStats, EnergyBreakdown};
use moca_vm::layout::PageIntent;
use serde::{Deserialize, Serialize};

/// Calibrated core power model: `P = STATIC + DYN_MAX · (IPC / width)`.
/// At the suite's typical utilization this yields ≈ 5.25 W/core, i.e. the
/// paper's 21 W average for the four-core system.
pub const CORE_STATIC_W: f64 = 2.8;
/// Dynamic power at full issue-width utilization.
pub const CORE_DYN_MAX_W: f64 = 3.6;

/// Per-channel end-of-run report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChannelReport {
    /// Module technology.
    pub kind: ModuleKind,
    /// Module capacity in bytes (scaled).
    pub capacity_bytes: u64,
    /// Controller statistics.
    pub stats: ChannelStats,
    /// Integrated energy.
    pub energy: EnergyBreakdown,
}

/// Aggregated memory-system metrics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MemMetrics {
    /// Measured-window length in cycles (for average-power integration).
    pub runtime_cycles: Cycle,
    /// DRAM reads completed.
    pub reads: u64,
    /// Sum over reads of queue + service cycles — the paper's "memory
    /// access time".
    pub total_read_latency_cycles: u64,
    /// Per-core slice of `total_read_latency_cycles`.
    pub per_core_read_latency: Vec<u64>,
    /// Per-channel reports.
    pub channels: Vec<ChannelReport>,
}

impl MemMetrics {
    /// Total memory access time in seconds.
    pub fn access_time_s(&self) -> f64 {
        cycles_to_seconds(self.total_read_latency_cycles)
    }

    /// Average read latency in cycles.
    pub fn avg_read_latency(&self) -> f64 {
        moca_common::stats::safe_div(self.total_read_latency_cycles as f64, self.reads as f64)
    }

    /// Total memory energy in joules over the measured window.
    pub fn energy_j(&self) -> f64 {
        self.channels.iter().map(|c| c.energy.total_j()).sum()
    }

    /// Average memory power in watts over the measured window.
    pub fn avg_power_w(&self) -> f64 {
        moca_common::stats::safe_div(
            self.energy_j(),
            cycles_to_seconds(self.runtime_cycles.max(1)),
        )
    }

    /// Memory energy-delay product (W·s): the paper's definition — "we
    /// compute memory EDP by multiplying memory power and memory access
    /// latency" (§VI-A).
    pub fn edp(&self) -> f64 {
        self.avg_power_w() * self.access_time_s()
    }
}

/// One core's end-of-run result. Statistics are frozen at the instruction
/// target; the core keeps generating contention until every core reaches it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoreResult {
    /// Benchmark name.
    pub app: String,
    /// Frozen core statistics.
    pub stats: CoreStats,
    /// Cycle at which the core hit its instruction target.
    pub finished_at: Cycle,
    /// Per-object stall ledger frozen with `stats`, present only when the
    /// run had attribution enabled (the CPI stack is `stats.cpi_stack()`).
    pub attr: Option<moca_telemetry::attribution::AttrTagTable>,
}

impl CoreResult {
    /// Core energy over its measured window.
    pub fn core_energy_j(&self, width: usize) -> f64 {
        let util = (self.stats.ipc() / width as f64).min(1.0);
        let p = CORE_STATIC_W + CORE_DYN_MAX_W * util;
        p * cycles_to_seconds(self.finished_at)
    }
}

/// Where pages landed: per app × page class × module kind.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PlacementReport {
    /// `pages[app][class][kind]`; `class` indexes Lat/BW/Pow/Other,
    /// `kind` indexes [`ModuleKind::ALL`].
    pages: Vec<[[u64; 4]; 4]>,
}

fn class_index(intent: PageIntent) -> usize {
    match intent {
        PageIntent::Heap(ObjectClass::LatencySensitive) => 0,
        PageIntent::Heap(ObjectClass::BandwidthSensitive) => 1,
        PageIntent::Heap(ObjectClass::NonIntensive) => 2,
        _ => 3,
    }
}

/// Index of `kind` in [`ModuleKind::ALL`] (the match is exhaustive, so the
/// mapping can never miss; a unit test pins it to the array order).
fn kind_index(kind: ModuleKind) -> usize {
    match kind {
        ModuleKind::Ddr3 => 0,
        ModuleKind::Lpddr2 => 1,
        ModuleKind::Rldram3 => 2,
        ModuleKind::Hbm => 3,
    }
}

impl PlacementReport {
    /// Report for `apps` applications.
    pub fn new(apps: usize) -> PlacementReport {
        PlacementReport {
            pages: vec![[[0; 4]; 4]; apps],
        }
    }

    /// Record one placed page.
    pub fn record(&mut self, app: AppId, intent: PageIntent, kind: ModuleKind) {
        let a = app.0 as usize;
        if a >= self.pages.len() {
            self.pages.resize(a + 1, [[0; 4]; 4]);
        }
        self.pages[a][class_index(intent)][kind_index(kind)] += 1;
    }

    /// Pages of `app` whose intent class is `class` (`None` = non-heap)
    /// placed on `kind`.
    pub fn pages_of_class(&self, app: AppId, class: Option<ObjectClass>, kind: ModuleKind) -> u64 {
        let ci = match class {
            Some(c) => class_index(PageIntent::Heap(c)),
            None => 3,
        };
        self.pages
            .get(app.0 as usize)
            .map_or(0, |p| p[ci][kind_index(kind)])
    }

    /// All pages of `app` on module `kind`.
    pub fn app_pages_on(&self, app: AppId, kind: ModuleKind) -> u64 {
        self.pages
            // moca-lint: allow(narrowing-cast): AppId.0 is u32; u32 -> usize never truncates
            .get(app.0 as usize)
            .map_or(0, |p| p.iter().map(|row| row[kind_index(kind)]).sum())
    }

    /// Total pages placed.
    pub fn total_pages(&self) -> u64 {
        self.pages.iter().flat_map(|p| p.iter().flatten()).sum()
    }
}

/// Complete result of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Placement policy that ran.
    pub policy: String,
    /// Memory-system label ("Homogen-DDR3", "Heter", ...).
    pub mem_label: String,
    /// Cycles until every core reached its instruction target.
    pub runtime_cycles: Cycle,
    /// Per-core results.
    pub per_core: Vec<CoreResult>,
    /// Memory metrics.
    pub mem: MemMetrics,
    /// Page placement.
    pub placement: PlacementReport,
    /// Issue width (for the core power model).
    pub core_width: usize,
    /// Migration-engine statistics when dynamic migration was enabled.
    pub migration: Option<crate::migration::MigrationStats>,
    /// Occupancy timeline (free frames per module kind, migration counts),
    /// present only when the run had attribution enabled.
    pub occupancy: Option<Vec<moca_telemetry::attribution::OccupancySample>>,
}

impl RunResult {
    /// Total committed instructions across cores (each core's target).
    pub fn total_instructions(&self) -> u64 {
        self.per_core.iter().map(|c| c.stats.committed).sum()
    }

    /// System throughput in instructions per cycle.
    pub fn system_ipc(&self) -> f64 {
        moca_common::stats::safe_div(self.total_instructions() as f64, self.runtime_cycles as f64)
    }

    /// Total core energy (J).
    pub fn core_energy_j(&self) -> f64 {
        self.per_core
            .iter()
            .map(|c| c.core_energy_j(self.core_width))
            .sum()
    }

    /// System energy (J): cores + memory.
    pub fn system_energy_j(&self) -> f64 {
        self.core_energy_j() + self.mem.energy_j()
    }

    /// System EDP (J·s): system energy × runtime.
    pub fn system_edp(&self) -> f64 {
        self.system_energy_j() * cycles_to_seconds(self.runtime_cycles)
    }

    /// Average total core power (W): the sum of each core's average power
    /// over its own measured window — cross-check against the paper's 21 W
    /// for the four-core machine.
    pub fn avg_core_power_w(&self) -> f64 {
        self.per_core
            .iter()
            .map(|c| {
                moca_common::stats::safe_div(
                    c.core_energy_j(self.core_width),
                    cycles_to_seconds(c.finished_at.max(1)),
                )
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_report_counts() {
        let mut p = PlacementReport::new(2);
        p.record(
            AppId(0),
            PageIntent::Heap(ObjectClass::LatencySensitive),
            ModuleKind::Rldram3,
        );
        p.record(AppId(0), PageIntent::Stack, ModuleKind::Lpddr2);
        p.record(
            AppId(1),
            PageIntent::Heap(ObjectClass::BandwidthSensitive),
            ModuleKind::Hbm,
        );
        assert_eq!(p.total_pages(), 3);
        assert_eq!(
            p.pages_of_class(
                AppId(0),
                Some(ObjectClass::LatencySensitive),
                ModuleKind::Rldram3
            ),
            1
        );
        assert_eq!(p.pages_of_class(AppId(0), None, ModuleKind::Lpddr2), 1);
        assert_eq!(p.app_pages_on(AppId(1), ModuleKind::Hbm), 1);
        assert_eq!(p.app_pages_on(AppId(1), ModuleKind::Rldram3), 0);
    }

    #[test]
    fn mem_metrics_derivations() {
        let m = MemMetrics {
            reads: 10,
            total_read_latency_cycles: 500,
            ..MemMetrics::default()
        };
        assert!((m.avg_read_latency() - 50.0).abs() < 1e-12);
        assert!((m.access_time_s() - 5e-7).abs() < 1e-18);
    }

    #[test]
    fn core_power_calibration_near_21w_for_quad() {
        // A typical suite core commits ~1.6 IPC on a 3-wide machine.
        let stats = CoreStats {
            committed: 1_600_000,
            cycles: 1_000_000,
            ..CoreStats::default()
        };
        let c = CoreResult {
            app: "x".into(),
            stats,
            finished_at: 1_000_000,
            attr: None,
        };
        let four = 4.0 * c.core_energy_j(3) / cycles_to_seconds(1_000_000);
        assert!(
            (15.0..=27.0).contains(&four),
            "4-core power {four:.1} W should be near the paper's 21 W"
        );
    }

    #[test]
    fn kind_index_matches_all_order() {
        for (i, &k) in ModuleKind::ALL.iter().enumerate() {
            assert_eq!(kind_index(k), i, "{} out of order", k.name());
        }
    }
}
