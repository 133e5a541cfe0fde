//! Workspace-level gates for the global event wheel and the parallel step
//! loop built on it.
//!
//! Two properties are enforced:
//!
//! 1. **Table ≡ ordered-set reference model.** Under a seeded random
//!    workload of posts, cancels, and time advances,
//!    `EventWheel::next_event_after` must agree with a `BTreeSet<(Cycle,
//!    usize)>` of the live postings — same cycle and same component, ties
//!    going to the smallest id.
//!
//! 2. **Thread-count invariance.** Stepping the machine with the parallel
//!    phase-3 fan-out (`System::set_step_threads`) must produce
//!    byte-identical results for 1, 2, and 4 threads on every memory
//!    system a `SystemConfig` can describe. The digest covers every
//!    integer field the simulation determines, like the golden-digest
//!    gate.

use moca_common::wheel::EventWheel;
use moca_common::{Cycle, DetRng, ModuleKind};
use moca_sim::config::{HeterogeneousLayout, MemSystemConfig, SystemConfig};
use moca_sim::metrics::RunResult;
use moca_sim::system::{AppLaunch, System};
use moca_vm::policy::FirstTouchPolicy;
use moca_workloads::{app_by_name, InputSet};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// 1. Differential property test: table vs ordered-set reference model.
// ---------------------------------------------------------------------------

/// Ordered-set reference: one `(cycle, component)` entry per live posting,
/// plus each component's current cycle so a re-post can drop the old entry.
struct SetModel {
    posted: Vec<Cycle>,
    set: BTreeSet<(Cycle, usize)>,
}

impl SetModel {
    fn new(components: usize) -> SetModel {
        SetModel {
            posted: vec![Cycle::MAX; components],
            set: BTreeSet::new(),
        }
    }

    fn post(&mut self, comp: usize, cycle: Cycle) {
        self.set.remove(&(self.posted[comp], comp));
        self.posted[comp] = cycle;
        if cycle != Cycle::MAX {
            self.set.insert((cycle, comp));
        }
    }

    fn next_event_after(&self, now: Cycle) -> Option<(Cycle, usize)> {
        self.set.range((now + 1, 0)..).next().copied()
    }
}

/// Seeded random op mix over the table and the reference model, checking
/// the skip query after every mutation. Exercises near and far posts,
/// re-posts and cancels, posts at or behind `now`, and monotonic time
/// advances (crawls and event skips).
#[test]
fn wheel_matches_ordered_set_model() {
    const COMPONENTS: usize = 24;
    const OPS: usize = 30_000;
    let mut rng = DetRng::new(0x0e1e_c75e_ed00_0001, 7);
    let mut wheel = EventWheel::new(COMPONENTS);
    let mut model = SetModel::new(COMPONENTS);
    let mut now: Cycle = 0;
    for op in 0..OPS {
        match rng.below(10) {
            // `Cycle::MAX` posts are cancels in disguise; some posts land
            // at or behind `now` and must never be returned.
            0..=4 => {
                let comp = rng.below(COMPONENTS as u64) as usize;
                let cycle = match rng.below(20) {
                    0 => Cycle::MAX,
                    1..=2 => now + 1 + rng.below(100_000),
                    3 => now.saturating_sub(rng.below(3)),
                    _ => now + 1 + rng.below(400),
                };
                wheel.post(comp, cycle);
                model.post(comp, cycle);
            }
            5..=6 => {
                let comp = rng.below(COMPONENTS as u64) as usize;
                wheel.cancel(comp);
                model.post(comp, Cycle::MAX);
            }
            // Advance time; occasionally jump straight to the next event
            // the way the skip path does.
            _ => {
                now += match rng.below(4) {
                    0 => 1,
                    1 => rng.below(64) + 1,
                    _ => match model.next_event_after(now) {
                        Some((c, _)) => c - now,
                        None => rng.below(512) + 1,
                    },
                };
            }
        }
        let got = wheel.next_event_after(now);
        let want = model.next_event_after(now);
        assert_eq!(
            got, want,
            "op {op}: table vs ordered-set model at now={now}"
        );
        if let Some((c, comp)) = got {
            assert_eq!(wheel.posted(comp), c, "op {op}: winner not posted");
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Parallel stepping is thread-count invariant.
// ---------------------------------------------------------------------------

/// Shorter than the golden-digest target: this test runs each config three
/// times (1/2/4 threads) and the frontier protocol serializes on a
/// single-CPU host, so the budget goes to config coverage instead of run
/// length.
const INSTR_TARGET: u64 = 4_000;

/// FNV-1a over every integer field the simulation determines (the same
/// field set as the golden-digest gate).
fn digest(r: &RunResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut word = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    word(r.runtime_cycles);
    for c in &r.per_core {
        word(c.stats.committed);
        word(c.stats.cycles);
        word(c.stats.head_stall_cycles);
        word(c.stats.loads);
        word(c.stats.stores);
        word(c.stats.mispredicts);
        word(c.stats.rob_full_cycles);
        word(c.stats.lq_full_cycles);
        word(c.finished_at);
    }
    word(r.mem.reads);
    word(r.mem.total_read_latency_cycles);
    for &l in &r.mem.per_core_read_latency {
        word(l);
    }
    for ch in &r.mem.channels {
        word(ch.stats.reads);
        word(ch.stats.writes);
        word(ch.stats.row_hits);
        word(ch.stats.activates);
        word(ch.stats.busy_cycles);
        word(ch.stats.read_queue_cycles);
        word(ch.stats.read_service_cycles);
        word(ch.stats.refreshes);
    }
    word(r.placement.total_pages());
    h
}

fn run_digest(mem: MemSystemConfig, threads: usize) -> u64 {
    let cfg = SystemConfig::quad_core(mem);
    let launches = ["mcf", "lbm", "gcc", "sift"]
        .iter()
        .map(|n| AppLaunch::untyped(app_by_name(n), InputSet::reference()))
        .collect();
    let mut sys = System::new(cfg, launches, Box::new(FirstTouchPolicy));
    sys.set_step_threads(threads);
    digest(&sys.run(INSTR_TARGET))
}

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

#[test]
fn parallel_stepping_is_thread_count_invariant() {
    let mut failures = Vec::new();
    for (name, mem) in all_mem_systems() {
        let base = run_digest(mem, 1);
        for threads in [2, 4] {
            let got = run_digest(mem, threads);
            if got != base {
                failures.push(format!(
                    "{name}: {threads} threads gave {got:#018x}, sequential gave {base:#018x}"
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "parallel stepping diverged from sequential:\n{}",
        failures.join("\n")
    );
}
