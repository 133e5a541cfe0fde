//! The five benchmark workloads and the one machine builder they share.
//!
//! Every workload is a list of simulation jobs (apps × memory system ×
//! placement policy) run through the simulator's public API exactly as
//! `Pipeline::evaluate` runs them, except that the evaluation input's seed
//! comes from the benchmark's `--seed`.

use moca::pipeline::{Pipeline, PolicyKind};
use moca::policy::{HeterAppPolicy, HomogeneousPolicy, LowPowerFirstPolicy, MocaPolicy};
use moca_common::ModuleKind;
use moca_sim::config::{HeterogeneousLayout, MemSystemConfig, SystemConfig};
use moca_sim::migration::MigrationConfig;
use moca_sim::system::{AppLaunch, System};
use moca_telemetry::Telemetry;
use moca_vm::PagePlacementPolicy;
use moca_workloads::{app_by_name, config_sweep_sets, multiprogram_sets, InputSet};

/// One simulation: one app per core on `mem` under `policy`.
#[derive(Debug, Clone)]
pub struct Job {
    /// Short label for failure reports (`set|config|policy`).
    pub label: String,
    /// Benchmark names, one per core.
    pub apps: Vec<&'static str>,
    /// Memory system.
    pub mem: MemSystemConfig,
    /// Placement policy.
    pub policy: PolicyKind,
}

/// A named benchmark workload.
pub struct Workload {
    /// Name as it appears in `BENCHMARK.json` and on the command line.
    pub name: &'static str,
    /// Why the workload exists (one line; mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// Footprint/capacity scale of every machine (1/64 unless stated).
    pub capacity_scale: f64,
    /// Warmup instructions per core (full length).
    pub warmup: u64,
    /// Measured instructions per core (full length).
    pub instrs: u64,
    /// Host worker threads across jobs (1 = sequential).
    pub workers: usize,
    /// The simulations one iteration runs.
    pub jobs: fn() -> Vec<Job>,
}

const DEFAULT_SCALE: f64 = moca_workloads::spec::DEFAULT_FOOTPRINT_SCALE;

fn config1() -> MemSystemConfig {
    MemSystemConfig::Heterogeneous(HeterogeneousLayout::config1())
}

fn set_apps(name: &str) -> Vec<&'static str> {
    multiprogram_sets()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("unknown workload set {name}"))
        .apps
        .to_vec()
}

fn one(label: &str, apps: Vec<&'static str>, mem: MemSystemConfig, policy: PolicyKind) -> Vec<Job> {
    vec![Job {
        label: label.to_string(),
        apps,
        mem,
        policy,
    }]
}

/// The dense-colocation tenant list: two big latency-bound apps plus a
/// rotation of the small-footprint suite, sized so the combined nominal
/// footprint (~1.8 GB) fits the 2 GB machine.
const COLO16_APPS: [&str; 16] = [
    "mcf", "mser", "gcc", "sift", "stitch", "gcc", "sift", "stitch", "gcc", "sift", "stitch",
    "gcc", "sift", "stitch", "gcc", "sift",
];

/// The Figs. 14/15 sweep: five sets × config1/2/3 × {Heter-App, MOCA}.
fn sweep_jobs() -> Vec<Job> {
    let configs = [
        ("config1", HeterogeneousLayout::config1()),
        ("config2", HeterogeneousLayout::config2()),
        ("config3", HeterogeneousLayout::config3()),
    ];
    let mut jobs = Vec::new();
    for set in config_sweep_sets() {
        for (cname, layout) in configs {
            for policy in [PolicyKind::HeterApp, PolicyKind::Moca] {
                jobs.push(Job {
                    label: format!("{}|{}|{}", set.name, cname, policy.label()),
                    apps: set.apps.to_vec(),
                    mem: MemSystemConfig::Heterogeneous(layout),
                    policy,
                });
            }
        }
    }
    jobs
}

/// The benchmark's workloads, in report order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "solo-latency",
        why: "one pointer-chasing mcf core on Homogen-DDR3: event wheel, skip path and DRAM completions; no contention",
        capacity_scale: DEFAULT_SCALE,
        warmup: 50_000,
        instrs: 800_000,
        workers: 1,
        jobs: || {
            one(
                "mcf|DDR3|Homogen",
                vec!["mcf"],
                MemSystemConfig::Homogeneous(ModuleKind::Ddr3),
                PolicyKind::Homogeneous,
            )
        },
    },
    Workload {
        name: "quad-bandwidth",
        why: "4B set under MOCA on config1: full channel queues, FR-FCFS, write drain and deferred writebacks",
        capacity_scale: DEFAULT_SCALE,
        warmup: 60_000,
        instrs: 250_000,
        workers: 1,
        jobs: || one("4B|config1|MOCA", set_apps("4B"), config1(), PolicyKind::Moca),
    },
    Workload {
        name: "colo16-compute",
        why: "16 mostly non-intensive tenants under MOCA: core ticks, workload generation, cache and TLB hits; skip rarely fires",
        capacity_scale: DEFAULT_SCALE,
        warmup: 25_000,
        instrs: 50_000,
        workers: 1,
        jobs: || {
            one(
                "colo16|config1|MOCA",
                COLO16_APPS.to_vec(),
                config1(),
                PolicyKind::Moca,
            )
        },
    },
    Workload {
        name: "scale1-migrate",
        why: "3L1B under Heter-Migrate at capacity scale 1: page faults, fallback allocation, migration epochs, a 4M-frame System::new",
        capacity_scale: 1.0,
        warmup: 60_000,
        instrs: 125_000,
        workers: 1,
        jobs: || {
            one(
                "3L1B|config1|Heter-Migrate",
                set_apps("3L1B"),
                config1(),
                PolicyKind::Migration,
            )
        },
    },
    Workload {
        name: "config-sweep",
        why: "the Figs. 14/15 sweep (30 short runs on config1/2/3, Heter-App and MOCA) fanned out over 2 workers after profiling",
        capacity_scale: DEFAULT_SCALE,
        warmup: 60_000,
        instrs: 75_000,
        workers: 2,
        jobs: sweep_jobs,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Run lengths per core, in instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lengths {
    /// Warmup (fast-forward) instructions.
    pub warmup: u64,
    /// Measured instructions.
    pub instrs: u64,
}

impl Workload {
    /// Full lengths, or about a tenth of them for `--quick`.
    pub fn lengths(&self, quick: bool) -> Lengths {
        let div = if quick { 10 } else { 1 };
        Lengths {
            warmup: self.warmup / div,
            instrs: self.instrs / div,
        }
    }

    /// A fresh pipeline (empty profile cache) for this workload: quick
    /// profiling lengths at the workload's capacity scale, evaluation at
    /// `len`.
    pub fn pipeline(&self, len: Lengths) -> Pipeline {
        let mut p = Pipeline::quick();
        p.profile_cfg.capacity_scale = self.capacity_scale;
        p.eval_warmup = len.warmup;
        p.eval_instrs = len.instrs;
        p
    }

    /// Distinct apps over all jobs, in first-use order (the profiling set).
    pub fn distinct_apps(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for job in (self.jobs)() {
            for app in job.apps {
                if !out.contains(&app) {
                    out.push(app);
                }
            }
        }
        out
    }
}

/// The evaluation input for `seed`: the reference input with its seed
/// replaced. The default seed is the reference input's own.
pub fn eval_input(seed: u64) -> InputSet {
    InputSet {
        seed,
        ..InputSet::reference()
    }
}

/// Build the machine for `job`, mirroring `Pipeline::evaluate_attributed`
/// with `input` in place of the reference input, stepping on one host
/// thread. Profiles (and caches) any app `p` has not profiled yet.
pub fn build_system(p: &mut Pipeline, job: &Job, input: InputSet, tel: Telemetry) -> System {
    let sys_cfg = SystemConfig {
        cores: job.apps.len(),
        capacity_scale: p.profile_cfg.capacity_scale,
        ..SystemConfig::single_core(job.mem)
    };
    let mut launches = Vec::with_capacity(job.apps.len());
    let mut app_classes = Vec::with_capacity(job.apps.len());
    for &name in &job.apps {
        let classified = p.classified(name).clone();
        app_classes.push(classified.app_class);
        let spec = app_by_name(name);
        launches.push(match job.policy {
            PolicyKind::Moca => AppLaunch {
                spec,
                input,
                object_classes: classified.object_classes,
            },
            _ => AppLaunch::untyped(spec, input),
        });
    }
    let policy: Box<dyn PagePlacementPolicy> = match job.policy {
        PolicyKind::Moca => Box::new(MocaPolicy),
        PolicyKind::HeterApp => Box::new(HeterAppPolicy::new(app_classes)),
        PolicyKind::Homogeneous => Box::new(HomogeneousPolicy),
        PolicyKind::Migration => Box::new(LowPowerFirstPolicy),
    };
    let mut sys = System::new_with_telemetry(sys_cfg, launches, policy, tel);
    // Every workload steps its machines on one thread, whatever
    // `MOCA_STEP_THREADS` says; across-run fan-out is the workload's own.
    sys.set_step_threads(1);
    if job.policy == PolicyKind::Migration {
        sys.attach_migration(MigrationConfig::default());
    }
    sys
}
