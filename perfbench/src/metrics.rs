//! The benchmark's metrics: their definitions (mirrored, with bounds, in
//! `BENCHMARK.json`) and how each is computed from a workload's iterations.

use crate::measure::{Finished, Iteration, Traced};
use crate::median;
use crate::replay::LayerCosts;
use crate::workloads::{Lengths, Workload};
use moca::pipeline::PolicyKind;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as printed and as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline by which an end-to-end metric may worsen
    /// before `--compare` calls it a regression; `None` for per-layer
    /// metrics.
    pub bound: Option<f64>,
    /// A count the simulated model alone determines: identical across
    /// iterations, invocations, worker counts and hosts.
    pub deterministic: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
        deterministic: false,
    }
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        deterministic: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        deterministic: true,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [Def; 4] = [
    e2e("wall_s", "s", Lower, 0.2),
    e2e("sim_mips", "Minstr/s", Higher, 0.22),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_heap_mb", "MiB", Lower, 0.05),
];

/// Per-layer metrics, from the traced run and the substrate replay.
pub const PER_LAYER: [Def; 45] = [
    host("host.slowdown", "ratio", Lower),
    host("core.profile_s", "s", Lower),
    host("sim.build_s", "s", Lower),
    host("sim.run_s", "s", Lower),
    host("sim.cpu_frac", "ratio", Lower),
    host("sim.dram_frac", "ratio", Lower),
    host("sim.cache_frac", "ratio", Lower),
    host("sim.vm_frac", "ratio", Lower),
    host("sim.other_frac", "ratio", Lower),
    host("trace.overhead_frac", "ratio", Lower),
    host("par.efficiency", "ratio", Higher),
    host("par.tail_idle_s", "s", Lower),
    host("workloads.ns_per_instr", "ns", Lower),
    host("cpu.ns_per_instr", "ns", Lower),
    host("cache.ns_per_access", "ns", Lower),
    host("vm.tlb_ns_per_lookup", "ns", Lower),
    host("vm.pt_ns_per_translate", "ns", Lower),
    host("vm.frames_ns_per_op", "ns", Lower),
    host("dram.ns_per_request", "ns", Lower),
    host("wheel.ns_per_op", "ns", Lower),
    host("layers.unattributed_frac", "ratio", Lower),
    count("sim.cycles", "cycles", Lower),
    host("sim.mcycles_per_s", "Mcycles/s", Higher),
    count("cpu.instructions", "instr", Higher),
    count("cpu.ipc", "instr/cycle", Higher),
    count("cpu.loads", "count", Lower),
    count("cpu.stores", "count", Lower),
    count("cpu.head_stall_frac", "ratio", Lower),
    count("cache.llc_mpki", "miss/kinstr", Lower),
    count("cache.mshr_full_stalls", "count", Lower),
    count("vm.page_faults", "count", Lower),
    count("vm.fallback_allocs", "count", Lower),
    count("vm.migrated_pages", "count", Lower),
    count("vm.migration_epochs", "count", Lower),
    count("dram.reads", "count", Lower),
    count("dram.writes", "count", Lower),
    count("dram.bank_conflicts", "count", Lower),
    count("dram.refreshes", "count", Lower),
    count("dram.busy_frac", "ratio", Lower),
    count("dram.row_hit_rate", "ratio", Higher),
    count("dram.read_queue_cycles_mean", "cycles", Lower),
    count("dram.read_service_cycles_mean", "cycles", Lower),
    count("model.mem_access_cycles", "cycles", Lower),
    count("model.mem_edp", "W.s", Lower),
    count("model.claims_held", "count", Higher),
];

/// Look a metric up by name in either table.
pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

fn safe_div(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Instructions the cores commit per iteration, warmup included.
fn instructions_per_iteration(w: &Workload, len: Lengths) -> f64 {
    let cores: usize = (w.jobs)().iter().map(|j| j.apps.len()).sum();
    (cores as u64 * (len.warmup + len.instrs)) as f64
}

fn medians(iters: &[Iteration], f: impl Fn(&Iteration) -> f64) -> f64 {
    median(&mut iters.iter().map(f).collect::<Vec<_>>())
}

/// End-to-end values, in [`END_TO_END`] order: medians over iterations.
pub fn end_to_end(w: &Workload, len: Lengths, iters: &[Iteration]) -> [f64; END_TO_END.len()] {
    let instrs = instructions_per_iteration(w, len);
    [
        medians(iters, |it| it.wall_s),
        medians(iters, |it| safe_div(instrs, it.run_s()) / 1e6),
        medians(iters, Iteration::setup_s),
        medians(iters, |it| it.peak_heap_bytes as f64 / f64::from(1 << 20)),
    ]
}

/// Per-layer values, in [`PER_LAYER`] order. `iters` are the untraced
/// iterations, `traced` the traced one; counts cover its finished jobs.
pub fn per_layer(
    w: &Workload,
    len: Lengths,
    iters: &[Iteration],
    traced: &Iteration,
    costs: &LayerCosts,
) -> [f64; PER_LAYER.len()] {
    let runs: Vec<&Finished> = traced
        .jobs
        .iter()
        .filter_map(|j| j.outcome.as_ref().ok())
        .collect();
    let tr: Vec<&Traced> = runs.iter().filter_map(|f| f.traced.as_ref()).collect();
    let event = |name: &str| tr.iter().map(|t| t.event(name)).sum::<u64>() as f64;
    let comp = |f: fn(&moca_telemetry::ComponentTimes) -> std::time::Duration| {
        safe_div(
            tr.iter().map(|t| f(&t.components).as_secs_f64()).sum(),
            traced.run_s(),
        )
    };
    let cores = || runs.iter().flat_map(|f| f.result.per_core.iter());
    let core_sum =
        |f: fn(&moca_cpu::CoreStats) -> u64| cores().map(|c| f(&c.stats)).sum::<u64>() as f64;
    let chans = || runs.iter().flat_map(|f| f.result.mem.channels.iter());
    let chan_sum =
        |f: fn(&moca_dram::ChannelStats) -> u64| chans().map(|c| f(&c.stats)).sum::<u64>() as f64;
    let migration = |f: fn(&moca_sim::MigrationStats) -> u64| {
        runs.iter()
            .filter_map(|r| r.result.migration.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };

    let run_s = medians(iters, Iteration::run_s);
    let cpu = comp(|c| c.cpu);
    let dram = comp(|c| c.dram);
    let cache = comp(|c| c.cache);
    let vm = comp(|c| c.vm);
    let committed = core_sum(|s| s.committed);
    let core_cycles = core_sum(|s| s.cycles);
    let loads = core_sum(|s| s.loads);
    let stores = core_sum(|s| s.stores);
    let reads = chan_sum(|s| s.reads);
    let writes = chan_sum(|s| s.writes);
    let cycles = runs.iter().map(|r| r.result.runtime_cycles).sum::<u64>() as f64;
    let channel_cycles: f64 = runs
        .iter()
        .map(|r| r.result.mem.channels.len() as f64 * r.result.runtime_cycles as f64)
        .sum();
    let l2_misses: f64 = cores()
        .map(|c| c.stats.app_mpki() * c.stats.committed as f64 / 1e3)
        .sum();
    let page_faults = event("page_fault");

    // Reconciliation: per-call replay costs times the traced run's counts,
    // scaled from the measured window to the whole run (warmup included),
    // against the untraced run time. The wheel has no per-run count.
    let instrs = instructions_per_iteration(w, len);
    let whole_run = safe_div((len.warmup + len.instrs) as f64, len.instrs as f64);
    let accesses = instrs * safe_div(loads + stores, committed);
    let attributed_ns = instrs * (costs.workloads_ns_per_instr + costs.cpu_ns_per_instr)
        + accesses * (costs.cache_ns_per_access + costs.tlb_ns_per_lookup)
        + page_faults * (costs.pt_ns_per_translate + costs.frames_ns_per_op)
        + (reads + writes) * whole_run * costs.dram_ns_per_request;

    [
        medians(iters, |it| it.slowdown),
        medians(iters, |it| it.profile_s),
        medians(iters, Iteration::build_s),
        traced.run_s(),
        cpu,
        dram,
        cache,
        vm,
        1.0 - cpu - dram - cache - vm,
        safe_div(traced.run_s(), run_s) - 1.0,
        medians(iters, |it| {
            safe_div(
                it.jobs.iter().map(|j| j.job_s).sum(),
                w.workers as f64 * it.fanout_s,
            )
        }),
        medians(iters, |it| it.tail_idle_s),
        costs.workloads_ns_per_instr,
        costs.cpu_ns_per_instr,
        costs.cache_ns_per_access,
        costs.tlb_ns_per_lookup,
        costs.pt_ns_per_translate,
        costs.frames_ns_per_op,
        costs.dram_ns_per_request,
        costs.wheel_ns_per_op,
        1.0 - safe_div(attributed_ns / 1e9, run_s),
        cycles,
        safe_div(cycles, run_s) / 1e6,
        committed,
        safe_div(committed, core_cycles),
        loads,
        stores,
        safe_div(core_sum(|s| s.head_stall_cycles), core_cycles),
        safe_div(l2_misses * 1e3, committed),
        event("mshr_full_stall"),
        page_faults,
        event("fallback_allocation"),
        migration(|m| m.promotions + m.demotions),
        migration(|m| m.epochs),
        reads,
        writes,
        event("bank_conflict"),
        chan_sum(|s| s.refreshes),
        safe_div(chan_sum(|s| s.busy_cycles), channel_cycles),
        safe_div(chan_sum(|s| s.row_hits), reads + writes),
        safe_div(chan_sum(|s| s.read_queue_cycles), reads),
        safe_div(chan_sum(|s| s.read_service_cycles), reads),
        runs.iter()
            .map(|r| r.result.mem.total_read_latency_cycles)
            .sum::<u64>() as f64,
        runs.iter().map(|r| r.result.mem.edp()).sum(),
        claims_held(traced) as f64,
    ]
}

/// Fig. 15 points (set × configuration) where MOCA's memory EDP is at most
/// Heter-App's; 0 for workloads that run no such pair.
fn claims_held(it: &Iteration) -> usize {
    let edp = |label: &str| {
        it.jobs
            .iter()
            .find(|j| j.label == label)
            .and_then(|j| j.outcome.as_ref().ok())
            .map(|f| f.result.mem.edp())
    };
    it.jobs
        .iter()
        .filter(|j| j.label.ends_with(PolicyKind::Moca.label()))
        .filter(|j| {
            let point = j.label.trim_end_matches(PolicyKind::Moca.label());
            let heter_app = format!("{point}{}", PolicyKind::HeterApp.label());
            matches!((edp(&j.label), edp(&heter_app)), (Some(m), Some(h)) if m <= h)
        })
        .count()
}
