//! Attribution invariant gate: the CPI stack must *partition* core cycles
//! and the object ledger must *reconcile* with the classifier's inputs on
//! every memory system the simulator can describe.
//!
//! Mirrors the golden-digest workload (quad-core mcf/lbm/gcc/sift, 12k
//! instructions per core, first-touch placement, all seven memory systems)
//! but runs it with attribution enabled and checks, per core:
//!
//! 1. **Exclusivity / completeness** — the six CPI-stack buckets are
//!    mutually exclusive and sum *exactly* to the core's total cycles.
//! 2. **Bucket ↔ legacy-counter agreement** — `load_miss` equals the
//!    pipeline's ROB-head stall counter, and `rob_full` never exceeds the
//!    pipeline's `rob_full_cycles` (the bucket is the exclusive remainder
//!    after higher-priority charges).
//! 3. **Object-ledger reconciliation** — each named object's attributed
//!    stall equals its `rob_head_stall_cycles` in the classifier's per-tag
//!    table (the numerator of §III-A's stall-per-miss input), and the
//!    whole ledger sums back to the `load_miss` bucket.
//! 4. **Observer effect: none** — the same run with attribution disabled
//!    produces identical cycles, commits, stall counters and CPI stacks.

use moca_common::{ModuleKind, Segment};
use moca_sim::config::{HeterogeneousLayout, MemSystemConfig, SystemConfig};
use moca_sim::system::{AppLaunch, System};
use moca_vm::policy::HomogeneousPolicy;
use moca_workloads::{app_by_name, InputSet};

const INSTR_TARGET: u64 = 12_000;

fn all_mem_systems() -> Vec<(&'static str, MemSystemConfig)> {
    vec![
        (
            "Homogen-DDR3",
            MemSystemConfig::Homogeneous(ModuleKind::Ddr3),
        ),
        (
            "Homogen-RL",
            MemSystemConfig::Homogeneous(ModuleKind::Rldram3),
        ),
        ("Homogen-HBM", MemSystemConfig::Homogeneous(ModuleKind::Hbm)),
        (
            "Homogen-LP",
            MemSystemConfig::Homogeneous(ModuleKind::Lpddr2),
        ),
        (
            "Heter-config1",
            MemSystemConfig::Heterogeneous(HeterogeneousLayout::config1()),
        ),
        (
            "Heter-config2",
            MemSystemConfig::Heterogeneous(HeterogeneousLayout::config2()),
        ),
        (
            "Heter-config3",
            MemSystemConfig::Heterogeneous(HeterogeneousLayout::config3()),
        ),
    ]
}

fn run(mem: MemSystemConfig, attribution: bool) -> moca_sim::RunResult {
    let cfg = SystemConfig::quad_core(mem);
    let launches = ["mcf", "lbm", "gcc", "sift"]
        .iter()
        .map(|n| AppLaunch::untyped(app_by_name(n), InputSet::reference()))
        .collect();
    let mut sys = System::new(cfg, launches, Box::new(HomogeneousPolicy));
    if attribution {
        sys.enable_attribution();
    }
    sys.run(INSTR_TARGET)
}

#[test]
fn buckets_partition_cycles_and_ledger_reconciles_on_all_seven_configs() {
    for (name, mem) in all_mem_systems() {
        let res = run(mem, true);
        for (ci, core) in res.per_core.iter().enumerate() {
            let attr = core
                .attr
                .as_ref()
                .unwrap_or_else(|| panic!("{name} core {ci}: no attribution snapshot"));
            let b = &core.stats.cpi_stack();

            // 1. Exclusive buckets partition the cycle count exactly.
            assert_eq!(
                b.total(),
                core.stats.cycles,
                "{name} core {ci}: buckets {:?} do not sum to {} cycles",
                b,
                core.stats.cycles
            );

            // 2. The load-miss bucket is the ROB-head stall counter, cycle
            // for cycle; the rob_full bucket is a subset of the legacy
            // counter (head-miss cycles take priority).
            assert_eq!(
                b.load_miss, core.stats.head_stall_cycles,
                "{name} core {ci}: load_miss bucket disagrees with head_stall_cycles"
            );
            assert!(
                b.rob_full <= core.stats.rob_full_cycles,
                "{name} core {ci}: rob_full bucket {} exceeds pipeline counter {}",
                b.rob_full,
                core.stats.rob_full_cycles
            );

            // 3. Per-object reconciliation with the classifier's inputs:
            // what explain attributes to an object is exactly the
            // rob_head_stall_cycles the offline classifier divides by
            // misses to get stall-per-miss.
            let mut ledger_total = 0u64;
            for (id, tag_attr) in attr.iter_objects() {
                let expect = core.stats.tags.object(id).rob_head_stall_cycles;
                assert_eq!(
                    tag_attr.total_stall(),
                    expect,
                    "{name} core {ci} object {id:?}: attributed stall disagrees \
                     with the classifier's rob_head_stall_cycles"
                );
                ledger_total += tag_attr.total_stall();
            }
            for seg in [Segment::Code, Segment::Data, Segment::Stack] {
                let got = attr.segment(seg).total_stall();
                let expect = core.stats.tags.segment(seg).rob_head_stall_cycles;
                assert_eq!(
                    got, expect,
                    "{name} core {ci} segment {seg:?}: attributed stall disagrees"
                );
                ledger_total += got;
            }
            assert_eq!(
                ledger_total, b.load_miss,
                "{name} core {ci}: object ledger does not sum to the load_miss bucket"
            );
        }

        // The occupancy timeline exists, is non-empty, and is ordered.
        let occ = res
            .occupancy
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: no occupancy timeline"));
        assert!(!occ.is_empty(), "{name}: empty occupancy timeline");
        assert!(
            occ.windows(2).all(|w| w[0].at <= w[1].at),
            "{name}: occupancy samples out of order"
        );
    }
}

#[test]
fn attribution_is_a_pure_observer() {
    for (name, mem) in all_mem_systems() {
        let plain = run(mem, false);
        let attr = run(mem, true);
        assert_eq!(plain.runtime_cycles, attr.runtime_cycles);
        assert!(plain.per_core.iter().all(|c| c.attr.is_none()));
        assert!(plain.occupancy.is_none());
        for (p, a) in plain.per_core.iter().zip(attr.per_core.iter()) {
            assert_eq!(p.stats.committed, a.stats.committed);
            assert_eq!(p.stats.cycles, a.stats.cycles);
            assert_eq!(p.stats.head_stall_cycles, a.stats.head_stall_cycles);
            assert_eq!(p.finished_at, a.finished_at);
            assert_eq!(
                p.stats.cpi_stack(),
                a.stats.cpi_stack(),
                "{name}: the CPI stack moved with attribution on"
            );
        }
    }
}
