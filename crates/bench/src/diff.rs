//! `moca-bench diff`: compare two `repro explain` reports.
//!
//! Both inputs must be `moca-explain/v1` reports. The diff compares
//! simulated runtime cycles and the per-core CPI-stack buckets; a runtime
//! increase of at least the tolerance is a regression (simulated cycles are
//! deterministic, so any change at all is worth a line in the table).
//!
//! Missing, unparseable, schema-less, other-schema or *empty* (no cores)
//! inputs are hard errors, not silent passes: a truncated baseline must
//! never green-light a regression.

use crate::explain::{ExplainReport, EXPLAIN_SCHEMA};
use std::path::Path;

/// Outcome of a diff: rendered table lines plus the regression verdicts.
#[derive(Debug, Clone, Default)]
pub struct DiffResult {
    /// Human-readable comparison lines, one per compared quantity.
    pub lines: Vec<String>,
    /// Regressed quantities (empty = pass).
    pub regressions: Vec<String>,
}

/// `now` grew by at least `tolerance` over `base`, tested as the new share
/// of `now` with a whisker of float slack, so a synthetic
/// exactly-at-threshold regression trips the gate.
fn grows_at_least(base: f64, now: f64, tolerance: f64) -> bool {
    now > 0.0 && (now - base) / now >= tolerance / (1.0 + tolerance) - 1e-12
}

fn read_report(path: &Path) -> Result<ExplainReport, String> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    let v = serde_json::parse(&body)
        .map_err(|e| format!("{}: unparseable JSON: {e}", path.display()))?;
    let schema = v
        .get("schema")
        .and_then(|s| s.as_str())
        .ok_or_else(|| format!("{}: no \"schema\" tag — not a moca report", path.display()))?;
    if schema != EXPLAIN_SCHEMA {
        return Err(format!(
            "{}: unsupported report schema {schema:?} (want {EXPLAIN_SCHEMA:?})",
            path.display()
        ));
    }
    let report: ExplainReport = serde_json::from_str(&body)
        .map_err(|e| format!("{}: bad explain report: {e}", path.display()))?;
    if report.per_core.is_empty() {
        return Err(format!(
            "{}: explain report has no cores — refusing to compare",
            path.display()
        ));
    }
    Ok(report)
}

/// Diff two report files. `tolerance` is a fraction (0.10 = 10%). `Err` is
/// an input problem (missing/unparseable/empty/unsupported files) — callers
/// should treat it as a distinct exit status from a regression verdict.
pub fn diff_files(base: &Path, fresh: &Path, tolerance: f64) -> Result<DiffResult, String> {
    let a = read_report(base)?;
    let b = read_report(fresh)?;
    Ok(diff_explain(&a, &b, tolerance))
}

fn diff_explain(a: &ExplainReport, b: &ExplainReport, tolerance: f64) -> DiffResult {
    let mut out = DiffResult::default();
    let delta = if a.runtime_cycles > 0 {
        (b.runtime_cycles as f64 / a.runtime_cycles as f64 - 1.0) * 100.0
    } else {
        0.0
    };
    let regressed = grows_at_least(a.runtime_cycles as f64, b.runtime_cycles as f64, tolerance);
    out.lines.push(format!(
        "runtime_cycles {} -> {} ({:+.2}%){}",
        a.runtime_cycles,
        b.runtime_cycles,
        delta,
        if regressed { "  REGRESSION" } else { "" }
    ));
    if regressed {
        out.regressions.push("runtime_cycles".to_string());
    }
    for (ca, cb) in a.per_core.iter().zip(b.per_core.iter()) {
        if ca.app != cb.app {
            out.lines.push(format!(
                "core {}: app changed {} -> {} — bucket deltas skipped",
                ca.core, ca.app, cb.app
            ));
            continue;
        }
        for ((name, va), (_, vb)) in ca.buckets.entries().into_iter().zip(cb.buckets.entries()) {
            if va != vb {
                out.lines
                    .push(format!("core {} {:<15} {} -> {}", ca.core, name, va, vb));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn write_tmp(name: &str, body: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("moca_bench_diff_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        std::fs::write(&p, body).unwrap();
        p
    }

    fn report(cycles: u64, load_miss: u64) -> ExplainReport {
        ExplainReport {
            schema: EXPLAIN_SCHEMA.into(),
            target: "mcf-ddr3".into(),
            mem_label: "Homogen-DDR3".into(),
            policy: "Homogen".into(),
            scale: "quick".into(),
            runtime_cycles: cycles,
            per_core: vec![crate::explain::CoreExplain {
                core: 0,
                app: "mcf".into(),
                committed: 1000,
                cycles,
                ipc: 0.5,
                buckets: moca_telemetry::attribution::CycleBuckets {
                    committing: cycles - load_miss,
                    load_miss,
                    ..Default::default()
                },
                tiers: vec![],
                segments: vec![],
                objects: vec![],
                objects_omitted: 0,
            }],
            occupancy: vec![],
        }
    }

    fn save(name: &str, r: &ExplainReport) -> PathBuf {
        write_tmp(name, &serde_json::to_string_pretty(r).unwrap())
    }

    #[test]
    fn empty_and_bad_inputs_error() {
        let ok = save("eb_ok.json", &report(1000, 400));
        let empty = save(
            "eb_empty.json",
            &ExplainReport {
                per_core: vec![],
                ..report(1000, 400)
            },
        );
        assert!(diff_files(&ok, &empty, 0.10).is_err());
        assert!(diff_files(&empty, &ok, 0.10).is_err());

        let missing = PathBuf::from("/nonexistent/nope.json");
        assert!(diff_files(&missing, &ok, 0.10).is_err());

        let garbage = write_tmp("eb_garbage.json", "not json {");
        assert!(diff_files(&garbage, &ok, 0.10).is_err());
        assert!(diff_files(&ok, &garbage, 0.10).is_err());

        let schemaless = write_tmp("eb_schemaless.json", "{\"per_core\": []}");
        assert!(diff_files(&schemaless, &ok, 0.10).is_err());

        // Tagged as an explain report but missing its fields.
        let truncated = write_tmp("eb_truncated.json", "{\"schema\": \"moca-explain/v1\"}");
        assert!(diff_files(&ok, &truncated, 0.10).is_err());
    }

    #[test]
    fn perf_reports_are_an_unsupported_schema() {
        let ok = save("ps_ok.json", &report(1000, 400));
        for (name, schema) in [
            ("ps_v1.json", "moca-bench-perf/v1"),
            ("ps_v2.json", "moca-bench-perf/v2"),
        ] {
            let perf = write_tmp(
                name,
                &format!(
                    "{{\"schema\": \"{schema}\", \"scale\": \"quick\", \"entries\": \
                     [{{\"name\": \"mcf-ddr3\", \"cycles_per_host_second\": 1e8}}]}}"
                ),
            );
            for (a, b) in [(&perf, &perf), (&ok, &perf), (&perf, &ok)] {
                let err = diff_files(a, b, 0.10).unwrap_err();
                assert!(err.contains("unsupported report schema"), "{schema}: {err}");
            }
        }
    }

    #[test]
    fn explain_runtime_growth_gates_and_buckets_are_reported() {
        let a = save("ex_a.json", &report(1000, 400));
        let same = save("ex_same.json", &report(1000, 400));
        let d = diff_files(&a, &same, 0.10).unwrap();
        assert!(d.regressions.is_empty());

        let slower = save("ex_slower.json", &report(1100, 500));
        let d = diff_files(&a, &slower, 0.10).unwrap();
        assert_eq!(d.regressions, vec!["runtime_cycles".to_string()]);
        assert!(
            d.lines.iter().any(|l| l.contains("load_miss")),
            "bucket delta should be reported: {:?}",
            d.lines
        );

        // A 5% growth stays under a 10% tolerance.
        let bit_slower = save("ex_bit_slower.json", &report(1050, 450));
        assert!(diff_files(&a, &bit_slower, 0.10)
            .unwrap()
            .regressions
            .is_empty());
    }
}
