//! Shared experiment plumbing: run-length scales, the memory systems under
//! comparison, and the run plan that simulates each distinct run once.

use crate::report::Table;
use moca::pipeline::{Pipeline, PolicyKind, RunSpec};
use moca_common::par::{parallel_map, resolve_jobs};
use moca_common::ModuleKind;
use moca_sim::config::{HeterogeneousLayout, MemSystemConfig};
use moca_sim::metrics::RunResult;
use moca_telemetry::Telemetry;
use moca_workloads::{app_by_name, suite};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

/// Experiment run-length scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test lengths (seconds per figure; noisy).
    Quick,
    /// Paper-reproduction lengths (minutes for the full set on one core).
    Full,
}

impl Scale {
    /// Build a pipeline at this scale.
    pub fn pipeline(self) -> Pipeline {
        match self {
            Scale::Quick => Pipeline::quick(),
            Scale::Full => Pipeline::new(),
        }
    }
}

/// The six memory systems of Figs. 8–13, in the paper's legend order.
pub fn systems_under_test() -> Vec<(String, MemSystemConfig, PolicyKind)> {
    let heter = MemSystemConfig::Heterogeneous(HeterogeneousLayout::config1());
    vec![
        (
            "Homogen-DDR3".into(),
            MemSystemConfig::Homogeneous(ModuleKind::Ddr3),
            PolicyKind::Homogeneous,
        ),
        (
            "Homogen-LP".into(),
            MemSystemConfig::Homogeneous(ModuleKind::Lpddr2),
            PolicyKind::Homogeneous,
        ),
        (
            "Homogen-RL".into(),
            MemSystemConfig::Homogeneous(ModuleKind::Rldram3),
            PolicyKind::Homogeneous,
        ),
        (
            "Homogen-HBM".into(),
            MemSystemConfig::Homogeneous(ModuleKind::Hbm),
            PolicyKind::Homogeneous,
        ),
        ("Heter-App".into(), heter, PolicyKind::HeterApp),
        ("MOCA".into(), heter, PolicyKind::Moca),
    ]
}

/// Results of a plan, keyed by the spec of the run each came from.
pub type Runs = BTreeMap<RunSpec, RunResult>;

/// Table code that reads a plan's results.
type Render = Box<dyn FnOnce(&Runs) -> Vec<Table>>;

/// One generator's declared runs, and the table code that reads their
/// results from the plan's [`Runs`].
pub struct Target {
    /// Every run the tables read, in declaration order; repeats allowed.
    pub specs: Vec<RunSpec>,
    render: Render,
}

impl Target {
    /// Tables over `specs`, rendered once the plan has run.
    pub(crate) fn new(
        specs: Vec<RunSpec>,
        render: impl FnOnce(&Runs) -> Vec<Table> + 'static,
    ) -> Target {
        Target {
            specs,
            render: Box::new(render),
        }
    }

    /// Tables that need no simulation.
    pub(crate) fn tables(tables: Vec<Table>) -> Target {
        Target::new(Vec::new(), move |_| tables)
    }

    /// Render the tables from the plan's results.
    pub fn render(self, runs: &Runs) -> Vec<Table> {
        (self.render)(runs)
    }
}

/// Every run the selected targets declared, deduplicated: each distinct
/// spec is simulated once, longest first, over one queue on the worker
/// threads.
pub struct Plan {
    /// Runs declared, repeats included.
    pub declared: usize,
    /// The distinct runs, longest first.
    pub queue: Vec<RunSpec>,
}

impl Plan {
    /// Plan `specs`, in any order and with any repeats.
    pub fn new<'a>(specs: impl IntoIterator<Item = &'a RunSpec>) -> Plan {
        let mut declared = 0;
        let distinct: BTreeSet<&RunSpec> = specs.into_iter().inspect(|_| declared += 1).collect();
        let mut queue: Vec<RunSpec> = distinct.into_iter().cloned().collect();
        // Cost is simulated length, cores × (warmup + measured
        // instructions); the sort is stable, so ties keep the specs' order.
        queue.sort_by_key(|s| Reverse(s.apps.len() as u64 * (s.warmup + s.instrs)));
        Plan { declared, queue }
    }

    /// Worker threads the queue runs on.
    pub fn workers(&self) -> usize {
        resolve_jobs(None).min(self.queue.len()).max(1)
    }

    /// Simulate every distinct run.
    pub fn run(self) -> Runs {
        let results = parallel_map(&self.queue, |s| s.evaluate(Telemetry::disabled(), false).0);
        self.queue.into_iter().zip(results).collect()
    }
}

/// All suite benchmark names in Table III order.
pub fn suite_names() -> Vec<&'static str> {
    suite().iter().map(|a| a.name).collect()
}

/// Sanity helper used by experiments: the app's expected class letter.
pub fn expected_letter(app: &str) -> char {
    app_by_name(app).expected_class.letter()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_systems_in_legend_order() {
        let s = systems_under_test();
        assert_eq!(s.len(), 6);
        assert_eq!(s[0].0, "Homogen-DDR3");
        assert_eq!(s[5].0, "MOCA");
        assert!(matches!(s[5].2, PolicyKind::Moca));
    }

    #[test]
    fn suite_names_count() {
        assert_eq!(suite_names().len(), 10);
        assert_eq!(expected_letter("mcf"), 'L');
        assert_eq!(expected_letter("lbm"), 'B');
        assert_eq!(expected_letter("gcc"), 'N');
    }
}
