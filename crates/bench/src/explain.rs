//! `repro explain`: cycle-attribution reports for one evaluation run.
//!
//! Runs a single application on a chosen memory system with per-core cycle
//! attribution enabled, then renders where every core cycle went (the
//! exclusive CPI-stack buckets), which *named object* the memory-stall
//! cycles belong to, which tier served them and through which mechanism,
//! and whether each object's dominant serving tier agrees with the offline
//! classifier's placement verdict.
//!
//! Reports are pure functions of the configuration: no wall-clock values
//! appear anywhere, so repeated runs (at any `--jobs` count) produce
//! byte-identical text and JSON.

use moca::classify::ClassifiedApp;
use moca::naming::NameRegistry;
use moca::pipeline::{Pipeline, PolicyKind};
use moca_common::{ModuleKind, ObjectClass};
use moca_sim::config::{HeterogeneousLayout, MemSystemConfig};
use moca_sim::metrics::RunResult;
use moca_telemetry::attribution::{
    tier_name, CycleBuckets, Mechanism, OccupancySample, TagAttr, TIER_COUNT, TIER_UNRESOLVED,
};
use moca_telemetry::Telemetry;
use serde::{Deserialize, Serialize};

/// Schema tag of every explain report, for the `moca-bench diff` comparator.
pub const EXPLAIN_SCHEMA: &str = "moca-explain/v1";

/// What to explain: one app on one memory label.
#[derive(Debug, Clone)]
pub struct ExplainSpec {
    /// Benchmark name (one core).
    pub app: String,
    /// Memory label: `ddr3`, `lp`, `rl`, `hbm`, `heter1..3`.
    pub mem: String,
    /// Quick-scale pipeline (CI smoke) instead of full-length runs.
    pub quick: bool,
    /// Objects listed per core, ranked by attributed stall.
    pub top: usize,
    /// Footprint/capacity scale override; `None` keeps the pipeline's
    /// default (1/64). `Some(1.0)` runs the full paper-sized footprint on
    /// the full-capacity machine.
    pub capacity_scale: Option<f64>,
}

impl Default for ExplainSpec {
    fn default() -> ExplainSpec {
        ExplainSpec {
            app: "mcf".into(),
            mem: "ddr3".into(),
            quick: false,
            top: 8,
            capacity_scale: None,
        }
    }
}

/// Resolve a memory label to its system config and the policy an explain
/// run evaluates under (homogeneous machines have nothing to place, so
/// first-touch; heterogeneous ones run MOCA's object-level allocation).
pub fn config_by_label(label: &str) -> Option<(MemSystemConfig, PolicyKind)> {
    let homog = |k| Some((MemSystemConfig::Homogeneous(k), PolicyKind::Homogeneous));
    match label {
        "ddr3" => homog(ModuleKind::Ddr3),
        "lp" | "lpddr2" => homog(ModuleKind::Lpddr2),
        "rl" | "rldram3" => homog(ModuleKind::Rldram3),
        "hbm" => homog(ModuleKind::Hbm),
        "heter1" => Some((
            MemSystemConfig::Heterogeneous(HeterogeneousLayout::config1()),
            PolicyKind::Moca,
        )),
        "heter2" => Some((
            MemSystemConfig::Heterogeneous(HeterogeneousLayout::config2()),
            PolicyKind::Moca,
        )),
        "heter3" => Some((
            MemSystemConfig::Heterogeneous(HeterogeneousLayout::config3()),
            PolicyKind::Moca,
        )),
        _ => None,
    }
}

/// The module MOCA would place a class on (§IV-E: L → RLDRAM, B → HBM,
/// N → LPDDR2).
pub fn expected_module(class: ObjectClass) -> ModuleKind {
    match class {
        ObjectClass::LatencySensitive => ModuleKind::Rldram3,
        ObjectClass::BandwidthSensitive => ModuleKind::Hbm,
        ObjectClass::NonIntensive => ModuleKind::Lpddr2,
    }
}

/// One tier's slice of a load-miss stall stack, split by mechanism.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TierStack {
    /// Tier display name (`DDR3`, ..., `unresolved`).
    pub tier: String,
    /// Load-miss stall cycles served by this tier.
    pub stall_cycles: u64,
    /// `(mechanism, cycles)` split of `stall_cycles`, all mechanisms listed.
    pub mechanisms: Vec<(String, u64)>,
}

/// One named object's attribution row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObjectExplain {
    /// Dense object id (spec instantiation order).
    pub id: u32,
    /// Source-level label (e.g. `symtab`).
    pub label: String,
    /// Allocation-site + context name (Fig. 3 naming).
    pub name: String,
    /// Offline classifier verdict letter (`L`/`B`/`N`).
    pub class: String,
    /// Load-miss stall cycles attributed to this object.
    pub stall_cycles: u64,
    /// Share of the core's `load_miss` bucket.
    pub stall_share: f64,
    /// Cycles the core's head was this object's load blocked on a full
    /// MSHR file.
    pub mshr_full_cycles: u64,
    /// Tier serving most of this object's stall.
    pub dominant_tier: String,
    /// Module the offline classification maps this object to under MOCA.
    pub expected_module: String,
    /// Cross-check of `dominant_tier` against `expected_module`:
    /// `ok` / `mismatch` (heterogeneous MOCA runs), `n/a` (homogeneous —
    /// there is only one tier), `no-stall` (nothing attributed).
    pub verdict: String,
    /// `(tier, cycles)` stall split, all tiers listed.
    pub per_tier: Vec<(String, u64)>,
}

/// One core's full attribution report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoreExplain {
    /// Core index.
    pub core: usize,
    /// Benchmark name.
    pub app: String,
    /// Committed instructions in the measured window.
    pub committed: u64,
    /// Core cycles in the measured window.
    pub cycles: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Exclusive CPI-stack buckets (sum exactly to `cycles`).
    pub buckets: CycleBuckets,
    /// Load-miss stall by serving tier, nonzero tiers only, largest first.
    pub tiers: Vec<TierStack>,
    /// `(segment, stall cycles)` for code/data/stack plus the heap total.
    pub segments: Vec<(String, u64)>,
    /// Top objects by attributed stall (`spec.top` rows; ties by id).
    pub objects: Vec<ObjectExplain>,
    /// Objects with attributed stall not shown in `objects`.
    pub objects_omitted: usize,
}

/// The whole explain report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExplainReport {
    /// Format tag ([`EXPLAIN_SCHEMA`]).
    pub schema: String,
    /// `<app>-<mem>` target name (e.g. `mcf-ddr3`).
    pub target: String,
    /// Memory-system label from the run.
    pub mem_label: String,
    /// Placement policy that ran.
    pub policy: String,
    /// `quick` or `full`.
    pub scale: String,
    /// Cycles until every core reached its instruction target.
    pub runtime_cycles: u64,
    /// Per-core CPI stacks and object attributions.
    pub per_core: Vec<CoreExplain>,
    /// Occupancy timeline over the measured window.
    pub occupancy: Vec<OccupancySample>,
}

/// Run the attributed evaluation and build the report. `Err` strings are
/// user errors (unknown app or memory label).
pub fn run_explain(spec: &ExplainSpec) -> Result<ExplainReport, String> {
    let (mem, policy) = config_by_label(&spec.mem).ok_or_else(|| {
        format!(
            "unknown memory label {:?} (want ddr3, lp, rl, hbm, or heter1..3)",
            spec.mem
        )
    })?;
    if !moca_workloads::suite().iter().any(|a| a.name == spec.app) {
        let names: Vec<&str> = moca_workloads::suite().iter().map(|a| a.name).collect();
        return Err(format!(
            "unknown app {:?} (want one of {})",
            spec.app,
            names.join(", ")
        ));
    }
    let mut p = if spec.quick {
        Pipeline::quick()
    } else {
        Pipeline::new()
    };
    if let Some(cs) = spec.capacity_scale {
        if !(cs > 0.0 && cs <= 1.0) {
            return Err(format!("capacity scale {cs} outside (0, 1]"));
        }
        p.profile_cfg.capacity_scale = cs;
    }
    let classified = p.classified(&spec.app).clone();
    let (res, _tel) = p.evaluate_attributed(&[&spec.app], mem, policy, Telemetry::disabled(), true);
    let check_placement = policy == PolicyKind::Moca;
    Ok(build_report(spec, &res, &[classified], check_placement))
}

/// Assemble an [`ExplainReport`] from an attributed run. `classes` carries
/// one offline classification per core, in core order.
pub fn build_report(
    spec: &ExplainSpec,
    res: &RunResult,
    classes: &[ClassifiedApp],
    check_placement: bool,
) -> ExplainReport {
    let per_core = res
        .per_core
        .iter()
        .enumerate()
        .map(|(ci, cr)| {
            let classified = &classes[ci.min(classes.len() - 1)];
            core_explain(ci, cr, classified, spec.top, check_placement)
        })
        .collect();
    ExplainReport {
        schema: EXPLAIN_SCHEMA.to_string(),
        target: format!("{}-{}", spec.app, spec.mem),
        mem_label: res.mem_label.clone(),
        policy: res.policy.clone(),
        scale: if spec.quick { "quick" } else { "full" }.to_string(),
        runtime_cycles: res.runtime_cycles,
        per_core,
        occupancy: res.occupancy.clone().unwrap_or_default(),
    }
}

fn tier_stacks(attr: &TagAttr) -> Vec<TierStack> {
    let per_tier = attr.per_tier();
    let mut order: Vec<usize> = (0..TIER_COUNT).filter(|&t| per_tier[t] > 0).collect();
    order.sort_by_key(|&t| (std::cmp::Reverse(per_tier[t]), t));
    order
        .into_iter()
        .map(|t| TierStack {
            tier: tier_name(t).to_string(),
            stall_cycles: per_tier[t],
            mechanisms: Mechanism::ALL
                .iter()
                .map(|&m| (m.name().to_string(), attr.get(t, m)))
                .collect(),
        })
        .collect()
}

fn core_explain(
    ci: usize,
    cr: &moca_sim::metrics::CoreResult,
    classified: &ClassifiedApp,
    top: usize,
    check_placement: bool,
) -> CoreExplain {
    let ledger = cr
        .attr
        .as_ref()
        .expect("explain runs always enable attribution");
    let registry = NameRegistry::for_app(&moca_workloads::app_by_name(&classified.app));
    let load_miss = cr.stats.head_stall_cycles.max(1);

    // Every object with any attributed stall, ranked by stall descending
    // (ties toward the lower id — the instantiation order).
    let mut ranked: Vec<(u32, TagAttr)> = ledger
        .iter_objects()
        .filter(|(_, t)| t.total_stall() > 0 || t.mshr_full_cycles > 0)
        .map(|(id, t)| (id.0, t.clone()))
        .collect();
    ranked.sort_by_key(|(id, t)| (std::cmp::Reverse(t.total_stall()), *id));
    let shown = ranked.len().min(top);
    let objects_omitted = ranked.len() - shown;

    let objects = ranked
        .into_iter()
        .take(top)
        .map(|(id, t)| {
            let oid = moca_common::ObjectId(id);
            let class = classified
                .object_classes
                .get(id as usize)
                .copied()
                .unwrap_or(ObjectClass::NonIntensive);
            let expected = expected_module(class);
            let dom = t.dominant_tier();
            let verdict = if t.total_stall() == 0 {
                "no-stall"
            } else if !check_placement {
                "n/a"
            } else if dom == TIER_UNRESOLVED {
                "no-stall"
            } else if tier_name(dom) == expected.name() {
                "ok"
            } else {
                "mismatch"
            };
            ObjectExplain {
                id,
                label: if (id as usize) < registry.len() {
                    registry.label_of(oid).to_string()
                } else {
                    format!("object{id}")
                },
                name: if (id as usize) < registry.len() {
                    registry.name_of(oid).to_string()
                } else {
                    String::new()
                },
                class: class.letter().to_string(),
                stall_cycles: t.total_stall(),
                stall_share: t.total_stall() as f64 / load_miss as f64,
                mshr_full_cycles: t.mshr_full_cycles,
                dominant_tier: tier_name(dom).to_string(),
                expected_module: expected.name().to_string(),
                verdict: verdict.to_string(),
                per_tier: t
                    .per_tier()
                    .iter()
                    .enumerate()
                    .map(|(ti, &v)| (tier_name(ti).to_string(), v))
                    .collect(),
            }
        })
        .collect();

    let segments = [
        moca_common::Segment::Heap,
        moca_common::Segment::Code,
        moca_common::Segment::Data,
        moca_common::Segment::Stack,
    ]
    .iter()
    .map(|&s| {
        (
            format!("{s:?}").to_lowercase(),
            ledger.segment(s).total_stall(),
        )
    })
    .collect();

    CoreExplain {
        core: ci,
        app: cr.app.clone(),
        committed: cr.stats.committed,
        cycles: cr.stats.cycles,
        ipc: cr.stats.ipc(),
        buckets: cr.stats.cpi_stack(),
        tiers: tier_stacks(&ledger.segment(moca_common::Segment::Heap)),
        segments,
        objects,
        objects_omitted,
    }
}

/// Render the report as a human-readable text block.
pub fn render(r: &ExplainReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "repro explain: {} on {} (policy {}, {} scale)\nruntime: {} cycles\n",
        r.target, r.mem_label, r.policy, r.scale, r.runtime_cycles
    ));
    for c in &r.per_core {
        out.push_str(&format!(
            "\ncore {}: {}  ({} instrs / {} cycles, IPC {:.3})\n",
            c.core, c.app, c.committed, c.cycles, c.ipc
        ));
        out.push_str("  CPI stack (exclusive buckets):\n");
        let total = c.buckets.total().max(1);
        for (name, v) in c.buckets.entries() {
            out.push_str(&format!(
                "    {name:<15} {v:>12}  {:>5.1}%\n",
                v as f64 * 100.0 / total as f64
            ));
        }
        out.push_str(&format!(
            "    {:<15} {:>12}  100.0%\n",
            "total",
            c.buckets.total()
        ));
        if !c.tiers.is_empty() {
            out.push_str("  load-miss stall by serving tier:\n");
            for t in &c.tiers {
                let mechs: Vec<String> = t
                    .mechanisms
                    .iter()
                    .filter(|(_, v)| *v > 0)
                    .map(|(m, v)| format!("{m} {v}"))
                    .collect();
                out.push_str(&format!(
                    "    {:<10} {:>12}  ({})\n",
                    t.tier,
                    t.stall_cycles,
                    mechs.join(", ")
                ));
            }
        }
        if !c.objects.is_empty() {
            out.push_str("  top objects by attributed stall:\n");
            out.push_str(&format!(
                "    {:<3} {:<12} {:<5} {:>12} {:>7} {:<10} {:<8} {}\n",
                "id", "object", "class", "stall", "share", "tier", "expect", "verdict"
            ));
            for o in &c.objects {
                out.push_str(&format!(
                    "    {:<3} {:<12} {:<5} {:>12} {:>6.1}% {:<10} {:<8} {}\n",
                    o.id,
                    o.label,
                    o.class,
                    o.stall_cycles,
                    o.stall_share * 100.0,
                    o.dominant_tier,
                    o.expected_module,
                    o.verdict
                ));
            }
            if c.objects_omitted > 0 {
                out.push_str(&format!(
                    "    ... {} more object(s) with attributed stall\n",
                    c.objects_omitted
                ));
            }
        }
    }
    if !r.occupancy.is_empty() {
        out.push_str("\noccupancy timeline (free frames per module):\n");
        for s in &r.occupancy {
            let frames: Vec<String> = s
                .free_frames
                .iter()
                .map(|(k, v)| format!("{k} {v}"))
                .collect();
            out.push_str(&format!(
                "  @{:<12} {}  (promotions {}, demotions {})\n",
                s.at,
                frames.join(", "),
                s.promotions,
                s.demotions
            ));
        }
    }
    out
}

/// Serialize the report as pretty JSON (stable field order, trailing
/// newline).
pub fn to_json(r: &ExplainReport) -> String {
    let mut s = serde_json::to_string_pretty(r).expect("explain report serializes");
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_resolve_and_unknown_rejects() {
        for l in ["ddr3", "lp", "rl", "hbm", "heter1", "heter2", "heter3"] {
            assert!(config_by_label(l).is_some(), "label {l} should resolve");
        }
        assert!(config_by_label("sram").is_none());
        for l in ["heter1", "heter2", "heter3"] {
            assert_eq!(config_by_label(l).unwrap().1, PolicyKind::Moca);
        }
        assert_eq!(config_by_label("ddr3").unwrap().1, PolicyKind::Homogeneous);
    }

    #[test]
    fn expected_module_is_the_papers_mapping() {
        assert_eq!(
            expected_module(ObjectClass::LatencySensitive),
            ModuleKind::Rldram3
        );
        assert_eq!(
            expected_module(ObjectClass::BandwidthSensitive),
            ModuleKind::Hbm
        );
        assert_eq!(
            expected_module(ObjectClass::NonIntensive),
            ModuleKind::Lpddr2
        );
    }

    #[test]
    fn unknown_app_and_mem_error_cleanly() {
        let bad_mem = ExplainSpec {
            mem: "sram".into(),
            ..ExplainSpec::default()
        };
        assert!(run_explain(&bad_mem).is_err());
        let bad_app = ExplainSpec {
            app: "doom".into(),
            ..ExplainSpec::default()
        };
        assert!(run_explain(&bad_app).is_err());
    }

    #[test]
    fn explain_is_byte_identical_across_runs() {
        let spec = ExplainSpec {
            app: "gcc".into(),
            mem: "heter1".into(),
            quick: true,
            top: 4,
            capacity_scale: None,
        };
        let a = run_explain(&spec).unwrap();
        let b = run_explain(&spec).unwrap();
        assert_eq!(to_json(&a), to_json(&b), "explain JSON must be stable");
        assert_eq!(render(&a), render(&b), "explain text must be stable");

        // Structure sanity: schema tag, exclusive buckets, verdict fields.
        assert_eq!(a.schema, EXPLAIN_SCHEMA);
        assert_eq!(a.per_core.len(), 1);
        let c = &a.per_core[0];
        assert_eq!(c.buckets.total(), c.cycles, "buckets must sum to cycles");
        assert!(!c.objects.is_empty(), "gcc should have attributed objects");
        for o in &c.objects {
            assert!(["ok", "mismatch", "no-stall"].contains(&o.verdict.as_str()));
        }
        let json = to_json(&a);
        let v = serde_json::parse(&json).unwrap();
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some(EXPLAIN_SCHEMA)
        );
        // The report can be read back (what `moca-bench diff` does).
        let back: ExplainReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.runtime_cycles, a.runtime_cycles);
    }
}
