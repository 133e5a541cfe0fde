//! Offline profiler (§IV-A/B): runs an application on the profiling
//! platform and builds the per-object lookup table of LLC MPKI and ROB-head
//! stall cycles per load miss.
//!
//! The paper profiles with hardware counters on the simulated baseline
//! machine using the *training* input; evaluation then uses the *reference*
//! input (§V-D). The profiling platform here is the homogeneous DDR3
//! single-core system — the same machine the paper normalizes against.

use crate::naming::{NameRegistry, ObjectName};
use moca_common::{ModuleKind, ObjectId, Segment};
use moca_sim::config::{MemSystemConfig, SystemConfig};
use moca_sim::system::{AppLaunch, System};
use moca_vm::policy::HomogeneousPolicy;
use moca_workloads::gen::scaled_sizes;
use moca_workloads::{AppSpec, InputSet};
use serde::{Deserialize, Serialize};

/// Profiling-run lengths (instructions per core).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ProfileConfig {
    /// Fast-forward instructions (cache/TLB warmup — the SimPoint
    /// fast-forward of §V-A).
    pub warmup_instrs: u64,
    /// Measured instructions.
    pub measure_instrs: u64,
    /// Footprint scale (must match the evaluation systems).
    pub capacity_scale: f64,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            warmup_instrs: 500_000,
            measure_instrs: 1_000_000,
            capacity_scale: moca_workloads::spec::DEFAULT_FOOTPRINT_SCALE,
        }
    }
}

impl ProfileConfig {
    /// Shorter runs for tests and quick demos.
    pub fn quick() -> ProfileConfig {
        ProfileConfig {
            warmup_instrs: 150_000,
            measure_instrs: 200_000,
            ..ProfileConfig::default()
        }
    }
}

/// One lookup-table entry: a named object and its profiled statistics
/// (§IV-A: "call stack, size, start address, LLC MPKI, ROB head stall
/// cycles per load miss").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObjectProfile {
    /// Dense id (index in the application's object list).
    pub id: ObjectId,
    /// Unique name (allocation site + calling context).
    pub name: ObjectName,
    /// Source-level label for reports.
    pub label: String,
    /// Object size in (scaled) bytes at profiling time.
    pub size_bytes: u64,
    /// Demand accesses observed.
    pub accesses: u64,
    /// Primary LLC misses observed.
    pub llc_misses: u64,
    /// Loads that waited on DRAM.
    pub miss_loads: u64,
    /// ROB-head stall cycles attributed to this object.
    pub rob_head_stall_cycles: u64,
    /// LLC misses per kilo-instruction (over the app's instructions).
    pub mpki: f64,
    /// ROB-head stall cycles per missing load — the MLP metric.
    pub stall_per_miss: f64,
}

/// The profiler's output for one application.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileLut {
    /// Application name.
    pub app: String,
    /// Input set used.
    pub input: String,
    /// Instructions measured.
    pub instructions: u64,
    /// Per-object entries, in object-id order.
    pub objects: Vec<ObjectProfile>,
    /// Application-level LLC MPKI (Fig. 1 x-axis).
    pub app_mpki: f64,
    /// Application-level ROB-head stall per load miss (Fig. 1 y-axis).
    pub app_stall_per_miss: f64,
    /// Stack-segment MPKI (Fig. 16).
    pub stack_mpki: f64,
    /// Code-segment MPKI (Fig. 16).
    pub code_mpki: f64,
}

impl ProfileLut {
    /// Entry by object id.
    pub fn object(&self, id: ObjectId) -> &ObjectProfile {
        &self.objects[id.0 as usize]
    }
}

/// Profile `spec` on the baseline platform with `input`.
pub fn profile_app(spec: &AppSpec, input: InputSet, cfg: &ProfileConfig) -> ProfileLut {
    let registry = NameRegistry::for_app(spec);
    let sys_cfg = SystemConfig {
        capacity_scale: cfg.capacity_scale,
        ..SystemConfig::single_core(MemSystemConfig::Homogeneous(ModuleKind::Ddr3))
    };
    let launch = AppLaunch::untyped(spec.clone(), input);
    let mut sys = System::new(sys_cfg, vec![launch], Box::new(HomogeneousPolicy));
    let result = sys.run_warmed(cfg.warmup_instrs, cfg.measure_instrs);
    let stats = &result.per_core[0].stats;
    let sizes = scaled_sizes(spec, input, cfg.capacity_scale);

    let objects = spec
        .objects
        .iter()
        .enumerate()
        .map(|(i, o)| {
            let id = ObjectId(i as u32);
            let t = stats.tags.object(id);
            ObjectProfile {
                id,
                name: registry.name_of(id).clone(),
                label: o.label.to_string(),
                size_bytes: sizes[i],
                accesses: t.accesses,
                llc_misses: t.llc_misses,
                miss_loads: t.miss_loads,
                rob_head_stall_cycles: t.rob_head_stall_cycles,
                mpki: t.mpki(stats.committed),
                stall_per_miss: t.stall_per_miss(),
            }
        })
        .collect();

    ProfileLut {
        app: spec.name.to_string(),
        input: input.label.to_string(),
        instructions: stats.committed,
        objects,
        app_mpki: stats.app_mpki(),
        app_stall_per_miss: stats.app_stall_per_miss(),
        stack_mpki: stats.tags.segment(Segment::Stack).mpki(stats.committed),
        code_mpki: stats.tags.segment(Segment::Code).mpki(stats.committed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moca_workloads::app_by_name;

    fn quick_lut(name: &str) -> ProfileLut {
        profile_app(
            &app_by_name(name),
            InputSet::training(),
            &ProfileConfig::quick(),
        )
    }

    #[test]
    fn lut_covers_all_objects() {
        let spec = app_by_name("mcf");
        let lut = quick_lut("mcf");
        assert_eq!(lut.objects.len(), spec.objects.len());
        assert!(lut.instructions >= 200_000);
        for o in &lut.objects {
            assert!(o.size_bytes > 0);
        }
    }

    #[test]
    fn chase_object_dominates_mpki_and_stall() {
        let lut = quick_lut("mcf");
        let arcs = &lut.objects[0];
        let perm = &lut.objects[3];
        assert!(arcs.mpki > 10.0, "arcs mpki {}", arcs.mpki);
        assert!(arcs.mpki > 50.0 * perm.mpki.max(0.01));
        assert!(
            arcs.stall_per_miss > 15.0,
            "arcs stall {}",
            arcs.stall_per_miss
        );
    }

    #[test]
    fn stream_app_has_low_stall() {
        let lut = quick_lut("lbm");
        assert!(lut.app_mpki > 10.0);
        assert!(
            lut.app_stall_per_miss < 5.0,
            "lbm stall {}",
            lut.app_stall_per_miss
        );
    }

    #[test]
    fn quiet_app_has_low_mpki() {
        let lut = quick_lut("stitch");
        assert!(lut.app_mpki < 5.0, "stitch mpki {}", lut.app_mpki);
    }

    #[test]
    fn stack_and_code_mpki_are_low() {
        // Fig. 16: stack and code segments cache well.
        let lut = quick_lut("mcf");
        assert!(lut.stack_mpki < 1.0, "stack {}", lut.stack_mpki);
        assert!(lut.code_mpki < 5.0, "code {}", lut.code_mpki);
    }

    #[test]
    fn profiling_is_deterministic() {
        let a = quick_lut("milc");
        let b = quick_lut("milc");
        assert_eq!(a.instructions, b.instructions);
        for (x, y) in a.objects.iter().zip(b.objects.iter()) {
            assert_eq!(x.llc_misses, y.llc_misses);
            assert_eq!(x.rob_head_stall_cycles, y.rob_head_stall_cycles);
        }
    }
}
