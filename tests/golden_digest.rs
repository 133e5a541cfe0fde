//! Golden-digest determinism gate for the cycle engine.
//!
//! Runs every `SystemConfig` memory system (the four homogeneous machines
//! and all three heterogeneous layouts) on a small fixed workload mix and
//! checks an FNV-1a digest of the numeric `RunResult` fields against
//! constants captured from the reference engine. Any change to simulated
//! behaviour — scheduler, DRAM timing, cache bookkeeping, page placement —
//! shows up here as a digest mismatch.
//!
//! A second set runs one core with a warmup phase (`run_warmed`) on every
//! memory system, so the warmup/measurement boundary — where the run loop
//! reads `now` right after the step that crossed the warmup target — is
//! pinned too. A third set adds page migration with short epochs and
//! telemetry with short metrics windows, and digests the migration counts
//! and every window, so an event skip that jumped over an epoch boundary
//! or a window end would show.
//!
//! These constants are the acceptance gate for performance work on the
//! engine hot path: optimisations must leave every digest bit-identical.
//! If a digest changes *intentionally* (a modelling fix), regenerate the
//! constants from the failure message and say why in the commit.

use moca::LowPowerFirstPolicy;
use moca_common::ModuleKind;
use moca_sim::config::{HeterogeneousLayout, MemSystemConfig, SystemConfig};
use moca_sim::metrics::RunResult;
use moca_sim::migration::MigrationConfig;
use moca_sim::system::{AppLaunch, System};
use moca_telemetry::{NullSink, Telemetry};
use moca_vm::policy::HomogeneousPolicy;
use moca_workloads::{app_by_name, InputSet};

/// Small enough to keep the seven quad-core runs fast in debug tests,
/// large enough that every subsystem (refresh, write drain, event skip,
/// window freeze ordering) is exercised.
const INSTR_TARGET: u64 = 12_000;

/// FNV-1a 64-bit running hash (no external deps, stable across platforms).
struct Digest {
    h: u64,
}

impl Digest {
    fn new() -> Digest {
        Digest {
            h: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.h ^= b as u64;
            self.h = self.h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest every integer field of a run that the simulation determines:
/// per-core pipeline statistics, memory-controller statistics, and the
/// placement total. Host-side quantities (wall time, energy floats derived
/// from these integers) are excluded.
fn digest(r: &RunResult) -> u64 {
    let mut d = Digest::new();
    d.word(r.runtime_cycles);
    for c in &r.per_core {
        d.word(c.stats.committed);
        d.word(c.stats.cycles);
        d.word(c.stats.head_stall_cycles);
        d.word(c.stats.loads);
        d.word(c.stats.stores);
        d.word(c.stats.mispredicts);
        d.word(c.stats.rob_full_cycles);
        d.word(c.stats.lq_full_cycles);
        d.word(c.finished_at);
    }
    d.word(r.mem.reads);
    d.word(r.mem.total_read_latency_cycles);
    for &l in &r.mem.per_core_read_latency {
        d.word(l);
    }
    for ch in &r.mem.channels {
        d.word(ch.stats.reads);
        d.word(ch.stats.writes);
        d.word(ch.stats.row_hits);
        d.word(ch.stats.activates);
        d.word(ch.stats.busy_cycles);
        d.word(ch.stats.read_queue_cycles);
        d.word(ch.stats.read_service_cycles);
        d.word(ch.stats.refreshes);
    }
    d.word(r.placement.total_pages());
    d.h
}

/// The seven memory systems a `SystemConfig` can describe.
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

fn run_digest(mem: MemSystemConfig) -> u64 {
    let cfg = SystemConfig::quad_core(mem);
    let launches = ["mcf", "lbm", "gcc", "sift"]
        .iter()
        .map(|n| AppLaunch::untyped(app_by_name(n), InputSet::reference()))
        .collect();
    let mut sys = System::new(cfg, launches, Box::new(HomogeneousPolicy));
    digest(&sys.run(INSTR_TARGET))
}

/// Reference digests, captured from the engine as of this test's
/// introduction (quad-core mcf/lbm/gcc/sift, 12k instructions per core).
const GOLDEN: &[(&str, u64)] = &[
    ("Homogen-DDR3", 0x4f941fdc46a9f542),
    ("Homogen-RL", 0xc3e0039dc8bc44e7),
    ("Homogen-HBM", 0xeecad67d0ddde146),
    ("Homogen-LP", 0xd4271849e9f017b3),
    ("Heter-config1", 0x944a5f5c369012b1),
    ("Heter-config2", 0x52f90524bb82364a),
    ("Heter-config3", 0xac4c83cab814dc7f),
];

#[test]
fn golden_digests_unchanged_across_all_seven_configs() {
    let mut failures = Vec::new();
    for (name, mem) in all_mem_systems() {
        let got = run_digest(mem);
        let want = GOLDEN
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no golden entry for {name}"))
            .1;
        if got != want {
            failures.push(format!("(\"{name}\", {got:#018x}),"));
        }
    }
    assert!(
        failures.is_empty(),
        "simulation results changed; if intentional, update GOLDEN to:\n{}",
        failures.join("\n")
    );
}

/// Single-core warmed runs: instructions fast-forwarded before measuring.
const WARMUP: u64 = 5_000;

fn run_warmed_digest(app: &str, mem: MemSystemConfig) -> u64 {
    let cfg = SystemConfig::single_core(mem);
    let launch = AppLaunch::untyped(app_by_name(app), InputSet::reference());
    let mut sys = System::new(cfg, vec![launch], Box::new(HomogeneousPolicy));
    digest(&sys.run_warmed(WARMUP, INSTR_TARGET))
}

/// Reference digests of single-core `run_warmed(5_000, 12_000)` runs per
/// (app, memory system), captured from the engine that stepped every cycle
/// while a channel held queued work.
const GOLDEN_WARMED: &[(&str, &str, u64)] = &[
    ("mcf", "Homogen-DDR3", 0x8522e762024f5be5),
    ("mcf", "Homogen-RL", 0xfa79550c2fb5e932),
    ("mcf", "Homogen-HBM", 0xdbcba5e942e1aaa6),
    ("mcf", "Homogen-LP", 0x7f7cdd9f018d6d76),
    ("mcf", "Heter-config1", 0x3bd2f23fee8c76b8),
    ("mcf", "Heter-config2", 0xcb9e6f37289d1c7d),
    ("mcf", "Heter-config3", 0xcb9e6f37289d1c7d),
    ("lbm", "Homogen-DDR3", 0x73771885b9810a37),
    ("lbm", "Homogen-RL", 0xfc0532b60fef9208),
    ("lbm", "Homogen-HBM", 0xd72900c471dd513b),
    ("lbm", "Homogen-LP", 0x497302447df9abd6),
    ("lbm", "Heter-config1", 0x99b748644aa683b5),
    ("lbm", "Heter-config2", 0xaa11f1edd78ad571),
    ("lbm", "Heter-config3", 0xaa11f1edd78ad571),
    ("milc", "Homogen-DDR3", 0xe3ea1c88e7197930),
    ("milc", "Homogen-RL", 0x9d3ec29af9a68add),
    ("milc", "Homogen-HBM", 0xe5ca700d79333adf),
    ("milc", "Homogen-LP", 0x8fdcf93bb026fc37),
    ("milc", "Heter-config1", 0x4744996c9f73b867),
    ("milc", "Heter-config2", 0xe29a6cd7b754e280),
    ("milc", "Heter-config3", 0xe29a6cd7b754e280),
    ("gcc", "Homogen-DDR3", 0xe8dabc14b407abba),
    ("gcc", "Homogen-RL", 0x84ff7915c8e94ba4),
    ("gcc", "Homogen-HBM", 0x7e915a5e732b96be),
    ("gcc", "Homogen-LP", 0xc2f21db35b60b7c0),
    ("gcc", "Heter-config1", 0xb6061596fdf6cdea),
    ("gcc", "Heter-config2", 0xb6061596fdf6cdea),
    ("gcc", "Heter-config3", 0xb6061596fdf6cdea),
];

#[test]
fn warmed_single_core_digests_unchanged_across_all_seven_configs() {
    let mut failures = Vec::new();
    for app in ["mcf", "lbm", "milc", "gcc"] {
        for (name, mem) in all_mem_systems() {
            let got = run_warmed_digest(app, mem);
            let want = GOLDEN_WARMED
                .iter()
                .find(|(a, n, _)| *a == app && *n == name)
                .map(|e| e.2);
            if want != Some(got) {
                failures.push(format!("(\"{app}\", \"{name}\", {got:#018x}),"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "warmed simulation results changed; if intentional, update GOLDEN_WARMED to:\n{}",
        failures.join("\n")
    );
}

/// Single-core warmed runs with page migration every 3000 cycles and a
/// metrics window every 2000: the digest adds the migration counters and
/// every window's bounds and samples. Pages start in the low-power
/// module (the Heter-Migrate baseline's placement), so epochs promote.
fn run_migrating_digest(app: &str, mem: MemSystemConfig) -> u64 {
    let cfg = SystemConfig::single_core(mem);
    let launch = AppLaunch::untyped(app_by_name(app), InputSet::reference());
    let tel = Telemetry::with_sink(Box::new(NullSink)).with_window(2_000);
    let mut sys = System::new_with_telemetry(cfg, vec![launch], Box::new(LowPowerFirstPolicy), tel);
    sys.attach_migration(MigrationConfig {
        epoch_cycles: 3_000,
        heat_threshold: 2,
        ..MigrationConfig::default()
    });
    let r = sys.run_warmed(WARMUP, INSTR_TARGET);
    let mut d = Digest::new();
    d.word(digest(&r));
    let m = r.migration.expect("migration attached");
    d.word(m.epochs);
    d.word(m.promotions);
    d.word(m.demotions);
    for w in sys.telemetry().registry.windows() {
        d.word(w.start);
        d.word(w.end);
        for (_, v) in &w.samples {
            d.word(v.to_bits());
        }
    }
    d.h
}

/// Reference digests of `run_migrating_digest` per (app, heterogeneous
/// memory system), captured from the engine that stepped every cycle
/// while a channel held queued work.
const GOLDEN_MIGRATING: &[(&str, &str, u64)] = &[
    ("mcf", "Heter-config1", 0xd3babef90940357e),
    ("mcf", "Heter-config2", 0xc99261423f95d5ea),
    ("mcf", "Heter-config3", 0xa142367eec2d747a),
    ("lbm", "Heter-config1", 0x20c15c946a87e8c5),
    ("lbm", "Heter-config2", 0x531292316c4c1d99),
    ("lbm", "Heter-config3", 0x785b104b329b6791),
];

#[test]
fn migrating_single_core_digests_unchanged() {
    let mut failures = Vec::new();
    for app in ["mcf", "lbm"] {
        for (name, mem) in all_mem_systems()
            .into_iter()
            .filter(|(n, _)| n.starts_with("Heter"))
        {
            let got = run_migrating_digest(app, mem);
            let want = GOLDEN_MIGRATING
                .iter()
                .find(|(a, n, _)| *a == app && *n == name)
                .map(|e| e.2);
            if want != Some(got) {
                failures.push(format!("(\"{app}\", \"{name}\", {got:#018x}),"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "migrating simulation results changed; if intentional, update GOLDEN_MIGRATING to:\n{}",
        failures.join("\n")
    );
}
