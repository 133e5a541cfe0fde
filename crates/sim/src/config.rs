//! System configuration: memory-system layouts and machine parameters.

use crate::CoreHierarchy;
use moca_common::units::format_bytes;
use moca_common::{Cycle, ModuleKind, MB};
use moca_cpu::{Core, CoreConfig};
use moca_dram::AddressMapper;
use moca_dram::{ChannelConfig, DeviceTiming};
use moca_vm::frames::{regions_from_capacities, ModuleRegion};
use moca_vm::Tlb;
use serde::{Deserialize, Serialize};

/// Capacities of one heterogeneous memory system (nominal megabytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct HeterogeneousLayout {
    /// RLDRAM3 module size in MB (one channel).
    pub rldram_mb: u64,
    /// HBM module size in MB (one channel).
    pub hbm_mb: u64,
    /// Size of *each* of the two LPDDR2 modules in MB (two channels).
    pub lpddr_mb_each: u64,
}

impl HeterogeneousLayout {
    /// §V-C config1 (the paper's default): 256 MB RLDRAM + 768 MB HBM +
    /// 2×512 MB LPDDR2.
    pub fn config1() -> Self {
        HeterogeneousLayout {
            rldram_mb: 256,
            hbm_mb: 768,
            lpddr_mb_each: 512,
        }
    }

    /// §VI-C config2: 512 MB RLDRAM + 512 MB HBM + 1 GB LPDDR2.
    pub fn config2() -> Self {
        HeterogeneousLayout {
            rldram_mb: 512,
            hbm_mb: 512,
            lpddr_mb_each: 512,
        }
    }

    /// §VI-C config3: 768 MB RLDRAM + 768 MB HBM + 512 MB LPDDR2.
    pub fn config3() -> Self {
        HeterogeneousLayout {
            rldram_mb: 768,
            hbm_mb: 768,
            lpddr_mb_each: 256,
        }
    }

    /// Total nominal bytes.
    pub fn total_bytes(&self) -> u64 {
        (self.rldram_mb + self.hbm_mb + 2 * self.lpddr_mb_each) * MB
    }
}

/// Which memory system populates the four channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MemSystemConfig {
    /// Four identical 512 MB modules of one technology (Homogen-DDR3 /
    /// -RL / -HBM / -LP), line-interleaved (`RoRaBaChCo`).
    Homogeneous(ModuleKind),
    /// The heterogeneous mix: RLDRAM, HBM, and two LPDDR2 channels, each
    /// owning a physical address range with a dedicated controller.
    Heterogeneous(HeterogeneousLayout),
}

impl MemSystemConfig {
    /// Short display name matching the paper's figure legends.
    pub fn label(&self) -> String {
        match self {
            MemSystemConfig::Homogeneous(k) => format!("Homogen-{}", k.name()),
            MemSystemConfig::Heterogeneous(_) => "Heter".to_string(),
        }
    }

    /// Channel configurations (device + scaled capacity, nominal power
    /// capacity), in channel order.
    pub fn channel_configs(&self, capacity_scale: f64) -> Vec<ChannelConfig> {
        let scale = |mb: u64| scaled_capacity(mb * MB, capacity_scale);
        let ch = |timing: DeviceTiming, mb: u64| {
            ChannelConfig::new(timing, scale(mb)).with_power_capacity(mb * MB)
        };
        match self {
            MemSystemConfig::Homogeneous(kind) => (0..4)
                .map(|_| ch(DeviceTiming::for_kind(*kind), 512))
                .collect(),
            MemSystemConfig::Heterogeneous(h) => vec![
                ch(DeviceTiming::rldram3(), h.rldram_mb),
                ch(DeviceTiming::hbm(), h.hbm_mb),
                ch(DeviceTiming::lpddr2(), h.lpddr_mb_each),
                ch(DeviceTiming::lpddr2(), h.lpddr_mb_each),
            ],
        }
    }

    /// Physical frame regions matching the channel layout.
    pub fn frame_regions(&self, capacity_scale: f64) -> Vec<ModuleRegion> {
        let caps: Vec<(ModuleKind, usize, u64)> = match self {
            MemSystemConfig::Homogeneous(kind) => {
                // Interleaved channels: one logical region spanning all four
                // modules (the mapper stripes lines across channels).
                vec![(*kind, 0, scaled_capacity(2048 * MB, capacity_scale))]
            }
            MemSystemConfig::Heterogeneous(h) => vec![
                (
                    ModuleKind::Rldram3,
                    0,
                    scaled_capacity(h.rldram_mb * MB, capacity_scale),
                ),
                (
                    ModuleKind::Hbm,
                    1,
                    scaled_capacity(h.hbm_mb * MB, capacity_scale),
                ),
                (
                    ModuleKind::Lpddr2,
                    2,
                    scaled_capacity(h.lpddr_mb_each * MB, capacity_scale),
                ),
                (
                    ModuleKind::Lpddr2,
                    3,
                    scaled_capacity(h.lpddr_mb_each * MB, capacity_scale),
                ),
            ],
        };
        regions_from_capacities(&caps)
    }

    /// Address mapper for this layout.
    pub fn mapper(&self, capacity_scale: f64) -> AddressMapper {
        match self {
            MemSystemConfig::Homogeneous(_) => AddressMapper::Interleaved { channels: 4 },
            MemSystemConfig::Heterogeneous(_) => {
                let caps: Vec<u64> = self
                    .channel_configs(capacity_scale)
                    .iter()
                    .map(|c| c.capacity_bytes)
                    .collect();
                AddressMapper::ranged(&caps)
            }
        }
    }
}

/// Scale a nominal capacity, keeping it page-aligned and nonzero.
pub fn scaled_capacity(nominal_bytes: u64, scale: f64) -> u64 {
    let b = (nominal_bytes as f64 * scale) as u64;
    (b / moca_common::addr::PAGE_SIZE).max(16) * moca_common::addr::PAGE_SIZE
}

/// Whole-machine configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Number of cores (1 for §VI-A, 4 for §VI-B onward).
    pub cores: usize,
    /// Core microarchitecture (Table I).
    pub core: CoreConfig,
    /// Memory system layout.
    pub mem: MemSystemConfig,
    /// Global footprint/capacity scale (see DESIGN.md): capacities *and*
    /// object footprints shrink together, preserving contention ratios.
    pub capacity_scale: f64,
    /// TLB entries per core.
    pub tlb_entries: usize,
    /// Page-walk latency added to cache-serviced accesses on a TLB miss.
    pub tlb_miss_penalty: Cycle,
    /// Extra first-touch cost of a page fault (allocation bookkeeping;
    /// §IV-E measures this as negligible, so it is small).
    pub page_fault_penalty: Cycle,
}

impl SystemConfig {
    /// Single-core system over the given memory configuration at the
    /// default 1/64 scale.
    pub fn single_core(mem: MemSystemConfig) -> SystemConfig {
        SystemConfig {
            cores: 1,
            core: CoreConfig::default(),
            mem,
            capacity_scale: moca_workloads::spec::DEFAULT_FOOTPRINT_SCALE,
            tlb_entries: 64,
            tlb_miss_penalty: 36,
            page_fault_penalty: 120,
        }
    }

    /// Four-core system (the paper's multicore evaluation machine).
    pub fn quad_core(mem: MemSystemConfig) -> SystemConfig {
        SystemConfig::multi_core(4, mem)
    }

    /// N-core system at the default scale. The memory system stays the
    /// paper's four-channel 2 GB machine regardless of core count, so wider
    /// mixes raise channel contention the way a denser colocation would —
    /// the caller must pick a workload mix whose combined footprint fits
    /// (the frame space panics on exhaustion, it does not swap).
    pub fn multi_core(cores: usize, mem: MemSystemConfig) -> SystemConfig {
        SystemConfig {
            cores,
            ..SystemConfig::single_core(mem)
        }
    }

    /// Validate the whole configuration before building a [`crate::System`]:
    /// machine parameters sane, every DRAM device preset self-consistent
    /// ([`DeviceTiming::validate`]), and the virtual address-space layout
    /// well-formed ([`moca_vm::layout::validate_layout`]). Errors name the
    /// violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("cores must be positive".to_string());
        }
        if !(self.capacity_scale > 0.0 && self.capacity_scale <= 1.0) {
            return Err(format!(
                "capacity_scale {} must be in (0, 1]",
                self.capacity_scale
            ));
        }
        if !(1..=Tlb::MAX_ENTRIES).contains(&self.tlb_entries) {
            return Err(format!(
                "tlb_entries {} must be in 1..={}",
                self.tlb_entries,
                Tlb::MAX_ENTRIES
            ));
        }
        if !(1..=Core::MAX_LQ_ENTRIES).contains(&self.core.lq_entries) {
            return Err(format!(
                "core.lq_entries {} must be in 1..={}",
                self.core.lq_entries,
                Core::MAX_LQ_ENTRIES
            ));
        }
        for (ci, ch) in self
            .mem
            .channel_configs(self.capacity_scale)
            .iter()
            .enumerate()
        {
            ch.timing
                .validate()
                .map_err(|e| format!("channel {ci}: {e}"))?;
            if ch.capacity_bytes == 0 || ch.capacity_bytes % moca_common::addr::PAGE_SIZE != 0 {
                return Err(format!(
                    "channel {ci}: capacity {} must be a positive page multiple",
                    ch.capacity_bytes
                ));
            }
        }
        let space = self
            .mem
            .frame_regions(self.capacity_scale)
            .iter()
            .map(|r| (r.base_pfn + r.frames) * moca_common::addr::PAGE_SIZE)
            .max()
            .unwrap_or(0);
        let addressable = CoreHierarchy::addressable_bytes();
        if space > addressable {
            return Err(format!(
                "physical space of {} exceeds the {} the caches' 16-bit tags address",
                format_bytes(space),
                format_bytes(addressable)
            ));
        }
        moca_vm::layout::validate_layout()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moca_common::GB;

    #[test]
    fn config1_totals_2gb() {
        assert_eq!(HeterogeneousLayout::config1().total_bytes(), 2 * GB);
        assert_eq!(HeterogeneousLayout::config2().total_bytes(), 2 * GB);
        assert_eq!(HeterogeneousLayout::config3().total_bytes(), 2 * GB);
    }

    #[test]
    fn homogeneous_channels_are_uniform() {
        let cfgs = MemSystemConfig::Homogeneous(ModuleKind::Ddr3).channel_configs(1.0);
        assert_eq!(cfgs.len(), 4);
        for c in &cfgs {
            assert_eq!(c.timing.kind, ModuleKind::Ddr3);
            assert_eq!(c.capacity_bytes, 512 * MB);
        }
    }

    #[test]
    fn heterogeneous_channel_order_matches_regions() {
        let mem = MemSystemConfig::Heterogeneous(HeterogeneousLayout::config1());
        let chans = mem.channel_configs(1.0);
        let regions = mem.frame_regions(1.0);
        assert_eq!(chans.len(), 4);
        assert_eq!(regions.len(), 4);
        for (c, r) in chans.iter().zip(regions.iter()) {
            assert_eq!(c.timing.kind, r.kind);
            assert_eq!(c.capacity_bytes, r.capacity_bytes());
        }
    }

    #[test]
    fn scaled_capacity_is_page_aligned() {
        let s = scaled_capacity(256 * MB, 1.0 / 64.0);
        assert_eq!(s % moca_common::addr::PAGE_SIZE, 0);
        assert_eq!(s, 4 * MB);
    }

    #[test]
    fn ranged_mapper_covers_exact_capacity() {
        let mem = MemSystemConfig::Heterogeneous(HeterogeneousLayout::config1());
        let m = mem.mapper(1.0 / 64.0);
        assert_eq!(m.total_bytes(), Some(32 * MB));
        assert_eq!(m.channels(), 4);
    }

    #[test]
    fn all_preset_configs_validate() {
        for mem in [
            MemSystemConfig::Homogeneous(ModuleKind::Ddr3),
            MemSystemConfig::Homogeneous(ModuleKind::Rldram3),
            MemSystemConfig::Homogeneous(ModuleKind::Hbm),
            MemSystemConfig::Homogeneous(ModuleKind::Lpddr2),
            MemSystemConfig::Heterogeneous(HeterogeneousLayout::config1()),
            MemSystemConfig::Heterogeneous(HeterogeneousLayout::config2()),
            MemSystemConfig::Heterogeneous(HeterogeneousLayout::config3()),
        ] {
            SystemConfig::quad_core(mem)
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", mem.label()));
        }
    }

    #[test]
    fn invalid_config_is_rejected_with_named_constraint() {
        let mut s = SystemConfig::single_core(MemSystemConfig::Homogeneous(ModuleKind::Ddr3));
        s.capacity_scale = 0.0;
        assert!(s.validate().unwrap_err().contains("capacity_scale"));
        let mut s = SystemConfig::single_core(MemSystemConfig::Homogeneous(ModuleKind::Ddr3));
        s.cores = 0;
        assert!(s.validate().unwrap_err().contains("cores"));
        for entries in [0, Tlb::MAX_ENTRIES + 1] {
            let mut s = SystemConfig::single_core(MemSystemConfig::Homogeneous(ModuleKind::Ddr3));
            s.tlb_entries = entries;
            assert!(s.validate().unwrap_err().contains("tlb_entries"));
        }
        let mut s = SystemConfig::single_core(MemSystemConfig::Homogeneous(ModuleKind::Ddr3));
        s.tlb_entries = Tlb::MAX_ENTRIES;
        s.validate().unwrap();
        for entries in [0, Core::MAX_LQ_ENTRIES + 1] {
            let mut s = SystemConfig::single_core(MemSystemConfig::Homogeneous(ModuleKind::Ddr3));
            s.core.lq_entries = entries;
            assert!(s.validate().unwrap_err().contains("core.lq_entries"));
        }
        let mut s = SystemConfig::single_core(MemSystemConfig::Homogeneous(ModuleKind::Ddr3));
        s.core.lq_entries = Core::MAX_LQ_ENTRIES;
        s.validate().unwrap();
    }

    #[test]
    fn memory_beyond_the_cache_tags_reach_is_rejected() {
        let at_full_scale = |layout| SystemConfig {
            capacity_scale: 1.0,
            ..SystemConfig::quad_core(MemSystemConfig::Heterogeneous(layout))
        };
        let four_gib = HeterogeneousLayout {
            rldram_mb: 1024,
            hbm_mb: 1024,
            lpddr_mb_each: 1024,
        };
        assert_eq!(four_gib.total_bytes(), 4 * GB);
        assert_eq!(
            at_full_scale(four_gib).validate().unwrap_err(),
            "physical space of 4 GiB exceeds the 2 GiB the caches' 16-bit tags address"
        );
        // The small-fast-module layout of the owner-map migration test
        // fills the 2 GiB exactly.
        let small_fast = HeterogeneousLayout {
            rldram_mb: 8,
            hbm_mb: 8,
            lpddr_mb_each: 1016,
        };
        assert_eq!(small_fast.total_bytes(), 2 * GB);
        at_full_scale(small_fast).validate().unwrap();
        SystemConfig::quad_core(MemSystemConfig::Heterogeneous(small_fast))
            .validate()
            .unwrap();
    }

    #[test]
    fn presets_construct() {
        let s = SystemConfig::single_core(MemSystemConfig::Homogeneous(ModuleKind::Ddr3));
        assert_eq!(s.cores, 1);
        let q = SystemConfig::quad_core(MemSystemConfig::Heterogeneous(
            HeterogeneousLayout::config1(),
        ));
        assert_eq!(q.cores, 4);
        assert_eq!(q.core.rob_entries, 84);
        let m = SystemConfig::multi_core(
            16,
            MemSystemConfig::Heterogeneous(HeterogeneousLayout::config1()),
        );
        assert_eq!(m.cores, 16);
        m.validate().unwrap();
    }
}
