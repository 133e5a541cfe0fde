//! The `moca-bench-perf/v2` report, the host it was measured on, and the
//! `--compare` gate.

use crate::metrics::{self, Better};
use serde::{Deserialize, Serialize};

/// Schema tag of every report.
pub const SCHEMA: &str = "moca-bench-perf/v2";

/// The machine and build a report was measured with. Host-time metrics
/// are only comparable between reports whose identities are equal.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Host {
    /// CPU model name (`/proc/cpuinfo`).
    pub cpu_model: String,
    /// Logical CPUs available to the process.
    pub logical_cpus: u64,
    /// Kernel release (`/proc/sys/kernel/osrelease`).
    pub kernel: String,
    /// Cargo build profile of the benchmark binary.
    pub profile: String,
}

impl Host {
    /// Identify the running host.
    pub fn current() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .and_then(|rest| rest.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        Host {
            cpu_model,
            logical_cpus: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            kernel,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        }
    }
}

/// One metric's value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricValue {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Value as measured.
    pub value: f64,
}

/// One workload's results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Untraced iterations measured.
    pub iterations: u64,
    /// Simulations attempted, traced ones included.
    pub attempted: u64,
    /// Simulations that panicked, failed a check or changed fingerprint.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<MetricValue>,
}

impl WorkloadResult {
    /// Failed simulations over attempted ones.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn metric(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The benchmark's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, each metric as `{value, unit}`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    serde::Value::Object(vec![
                        ("value".to_string(), serde::Value::F64(m.value)),
                        ("unit".to_string(), serde::Value::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect();
        let line = serde::Value::Object(vec![
            ("correct".to_string(), serde::Value::Bool(self.failed == 0)),
            ("attempted".to_string(), serde::Value::U64(self.attempted)),
            ("failed".to_string(), serde::Value::U64(self.failed)),
            ("metrics".to_string(), serde::Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("result line serializes")
    }
}

/// A whole report: host identity, settings and per-workload results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Report {
    /// [`SCHEMA`].
    pub schema: String,
    /// Where it was measured.
    pub host: Host,
    /// The evaluation-input seed.
    pub seed: u64,
    /// Measuring time per workload, in seconds.
    pub seconds: u64,
    /// Whether the per-layer (traced) metrics were measured.
    pub trace: bool,
    /// Whether the runs were `--quick` (a tenth of the length, one
    /// iteration).
    pub quick: bool,
    /// Workloads in run order.
    pub workloads: Vec<WorkloadResult>,
}

impl Report {
    /// Read a report, refusing other schemas.
    pub fn load(path: &std::path::Path) -> Result<Report, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let report: Report =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if report.schema != SCHEMA {
            return Err(format!(
                "{}: schema {:?}, expected {SCHEMA:?}",
                path.display(),
                report.schema
            ));
        }
        Ok(report)
    }

    /// Aligned text table of every workload's metrics.
    pub fn render(&self) -> String {
        let mut out = format!(
            "moca-bench perf v2 · seed {} · {} s per workload · {}{} · {} ({} CPUs, {}, {})\n",
            self.seed,
            self.seconds,
            if self.trace { "traced" } else { "untraced" },
            if self.quick { " · quick" } else { "" },
            self.host.cpu_model,
            self.host.logical_cpus,
            self.host.kernel,
            self.host.profile
        );
        for w in &self.workloads {
            out.push_str(&format!(
                "{} (n = {}, fail_frac = {} of {})\n",
                w.name,
                w.iterations,
                w.fail_frac(),
                w.attempted
            ));
            for m in &w.metrics {
                let better = metrics::def(&m.name).map_or("", |d| d.better.as_str());
                out.push_str(&format!(
                    "  {:<32} {:>16.6} {:<12} ({better} is better)\n",
                    m.name, m.value, m.unit
                ));
            }
        }
        out
    }
}

/// What `--compare` found.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Everything worth printing, one line each.
    pub lines: Vec<String>,
    /// Regressions that fail the comparison.
    pub regressions: Vec<String>,
}

/// Compare `fresh` against `base`. End-to-end host-time metrics that worsen
/// by more than their bound are regressions when both reports come from the
/// same host identity and measured the same work (seed, `--quick` and
/// `--trace` equal), and warnings otherwise; a higher failure fraction is
/// always a regression. Changed deterministic counts are listed but never
/// fail: the repository's golden digests pin the model.
pub fn compare(base: &Report, fresh: &Report) -> Comparison {
    let mut c = Comparison::default();
    let mut differs = Vec::new();
    if base.host != fresh.host {
        differs.push(format!("host ({:?} vs {:?})", base.host, fresh.host));
    }
    if base.seed != fresh.seed {
        differs.push(format!("seed ({} vs {})", base.seed, fresh.seed));
    }
    if base.quick != fresh.quick {
        differs.push(format!("quick ({} vs {})", base.quick, fresh.quick));
    }
    if base.trace != fresh.trace {
        differs.push(format!("trace ({} vs {})", base.trace, fresh.trace));
    }
    let gated = differs.is_empty();
    if !gated {
        c.lines.push(format!(
            "warning: {} differ; host-time deltas are not gated",
            differs.join(", ")
        ));
    }
    for w in &fresh.workloads {
        let Some(b) = base.workloads.iter().find(|b| b.name == w.name) else {
            c.lines.push(format!("{}: not in the baseline", w.name));
            continue;
        };
        if w.fail_frac() > b.fail_frac() {
            c.regressions.push(format!(
                "{}: fail_frac {} > baseline {}",
                w.name,
                w.fail_frac(),
                b.fail_frac()
            ));
        }
        for m in &w.metrics {
            let (Some(def), Some(old)) = (metrics::def(&m.name), b.metric(&m.name)) else {
                continue;
            };
            if def.deterministic {
                if m.value != old.value {
                    c.lines.push(format!(
                        "{}: count {} changed {} -> {} (model change; not gated)",
                        w.name, m.name, old.value, m.value
                    ));
                }
                continue;
            }
            let Some(bound) = def.bound else { continue };
            let change = if old.value == 0.0 {
                0.0
            } else {
                (m.value - old.value) / old.value
            };
            let worse = match def.better {
                Better::Lower => change,
                Better::Higher => -change,
            };
            let line = format!(
                "{}: {} {:.4} -> {:.4} {} ({:+.1}%, bound {:.0}%)",
                w.name,
                m.name,
                old.value,
                m.value,
                m.unit,
                change * 100.0,
                bound * 100.0
            );
            if worse > bound && gated {
                c.regressions.push(line);
            } else if worse > bound {
                c.lines.push(format!("warning: {line}"));
            } else {
                c.lines.push(line);
            }
        }
    }
    c
}
