//! Engine tests for `moca-lint`: each rule against a text fixture, pragma
//! and baseline suppression, the comment/string stripper, and — the one
//! that matters operationally — the live workspace being clean under
//! `--deny` semantics.

use moca_lint::{
    apply_baseline, baseline_key, check_model, has_allow_pragma, has_token, load_baseline,
    scan_file, scan_workspace, strip_code, Finding,
};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

fn scan_fixture(crate_name: &str, name: &str) -> Vec<Finding> {
    scan_file(crate_name, Path::new(name), &fixture(name))
}

fn lines_of(findings: &[Finding], rule: &str) -> Vec<usize> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn det_map_rule_flags_hash_collections_in_sim_path_crates() {
    let f = scan_fixture("sim", "det_map.rs");
    // Two `use` lines and two struct fields; the comment, the string
    // literal, and the `MyHashMapLike` identifier are not findings.
    assert_eq!(lines_of(&f, "det-map"), vec![2, 3, 7, 8]);
    assert!(f.iter().all(|f| f.rule == "det-map"));
}

#[test]
fn det_map_rule_is_scoped_to_sim_path_crates() {
    let f = scan_fixture("workloads", "det_map.rs");
    assert!(
        lines_of(&f, "det-map").is_empty(),
        "det-map must not apply outside simulated-path crates"
    );
}

#[test]
fn wall_clock_rule_flags_clocks_and_threads() {
    let f = scan_fixture("sim", "wall_clock.rs");
    // use Instant, Instant::now, SystemTime::now, thread::spawn,
    // thread::sleep; the block comment at the bottom is stripped.
    assert_eq!(lines_of(&f, "wall-clock"), vec![2, 5, 6, 7, 8]);
}

#[test]
fn wall_clock_rule_exempts_telemetry_and_bench() {
    for host_crate in ["telemetry", "bench"] {
        let f = scan_fixture(host_crate, "wall_clock.rs");
        assert!(
            lines_of(&f, "wall-clock").is_empty(),
            "{host_crate} is host-side by design"
        );
    }
}

#[test]
fn unseeded_rng_rule_applies_everywhere() {
    for any_crate in ["sim", "telemetry", "workloads"] {
        let f = scan_fixture(any_crate, "unseeded_rng.rs");
        assert_eq!(
            lines_of(&f, "unseeded-rng"),
            vec![4, 5, 6, 7],
            "ambient entropy is forbidden even in host-side crates ({any_crate})"
        );
    }
}

#[test]
fn narrowing_cast_rule_needs_a_u64_flavored_marker() {
    let f = scan_fixture("dram", "narrowing_cast.rs");
    // `cycle as u32` and `pfn as usize` are flagged; `small as u8` has no
    // cycle/address marker in its 3-line window.
    assert_eq!(lines_of(&f, "narrowing-cast"), vec![4, 5]);
}

#[test]
fn hot_alloc_rule_flags_allocation_only_inside_hot_functions() {
    let f = scan_fixture("cache", "hot_alloc.rs");
    // Flagged: Vec::new and vec![ in `tick`, .to_string() in
    // `on_completion_into`, format! and collect::<Vec<_>> in `step`.
    // Not flagged: the allocation in cold `setup`; the pragma-suppressed
    // vec![ in `step`.
    assert_eq!(lines_of(&f, "hot-alloc"), vec![4, 5, 9, 19, 20]);
}

#[test]
fn hot_alloc_rule_is_scoped_to_sim_path_crates() {
    let f = scan_fixture("telemetry", "hot_alloc.rs");
    assert!(
        lines_of(&f, "hot-alloc").is_empty(),
        "hot-alloc must not apply outside simulated-path crates"
    );
}

#[test]
fn hot_fn_detection_respects_identifier_boundaries() {
    use moca_lint::hot_fn_name;
    assert_eq!(hot_fn_name("pub fn tick(&mut self) {"), Some("tick"));
    assert_eq!(hot_fn_name("fn tick_impl(&mut self,"), Some("tick_impl"));
    assert_eq!(hot_fn_name("pub(crate) fn step(&mut self)"), Some("step"));
    assert_eq!(
        hot_fn_name("fn on_completion_into("),
        Some("on_completion_into")
    );
    assert_eq!(hot_fn_name("fn step_count(&self)"), None);
    assert_eq!(hot_fn_name("fn sticker()"), None);
    assert_eq!(hot_fn_name("let often = 3;"), None);
}

#[test]
fn pragmas_suppress_on_same_line_or_line_above_with_justification() {
    let f = scan_fixture("sim", "pragmas.rs");
    // Suppressed: same-line pragma (line 2), line-above pragma (line 5).
    // Not suppressed: empty justification (line 8), wrong rule (line 11).
    assert_eq!(lines_of(&f, "det-map"), vec![8, 11]);
}

#[test]
fn pragma_parser_requires_rule_and_justification() {
    assert!(has_allow_pragma(
        "// moca-lint: allow(det-map): keyed by BTree elsewhere",
        "det-map"
    ));
    assert!(!has_allow_pragma(
        "// moca-lint: allow(det-map):   ",
        "det-map"
    ));
    assert!(!has_allow_pragma(
        "// moca-lint: allow(det-map) missing colon",
        "det-map"
    ));
    assert!(!has_allow_pragma(
        "// moca-lint: allow(wall-clock): other rule",
        "det-map"
    ));
}

#[test]
fn clean_fixture_has_no_findings() {
    assert!(scan_fixture("sim", "clean.rs").is_empty());
}

#[test]
fn baseline_suppresses_exact_findings_only() {
    let f = scan_fixture("sim", "det_map.rs");
    assert_eq!(f.len(), 4);
    let baseline: BTreeSet<String> = f[..2].iter().map(baseline_key).collect();
    let (active, baselined) = apply_baseline(f, &baseline);
    assert_eq!(active.len(), 2);
    assert_eq!(baselined.len(), 2);
    assert_eq!(lines_of(&active, "det-map"), vec![7, 8]);
}

#[test]
fn baseline_file_ignores_comments_and_blanks() {
    let dir = std::env::temp_dir().join(format!("moca-lint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join("baseline.txt");
    std::fs::write(&p, "# comment\n\nrule|path.rs|let x = 1;\n").unwrap();
    let b = load_baseline(&p);
    assert_eq!(b.len(), 1);
    assert!(b.contains("rule|path.rs|let x = 1;"));
    assert!(load_baseline(&dir.join("missing.txt")).is_empty());
}

#[test]
fn stripper_handles_comments_strings_and_lifetimes() {
    let stripped = strip_code(
        "let a = 1; // HashMap in comment\n\
         /* HashMap\n   still comment /* nested */ HashMap */ let b = 2;\n\
         let s = \"HashMap \\\" escaped\";\n\
         let r = r#\"HashMap raw\"#;\n\
         let c = 'h'; let lt: &'static str = \"x\";",
    );
    for line in &stripped {
        assert!(!line.contains("HashMap"), "leaked token in {line:?}");
    }
    assert!(stripped[2].contains("let b = 2;"));
    assert!(stripped[5].contains("let c ="));
    assert!(stripped[5].contains("static"));
}

#[test]
fn token_matching_respects_identifier_boundaries() {
    assert!(has_token("use std::collections::HashMap;", "HashMap"));
    assert!(has_token("HashMap::new()", "HashMap"));
    assert!(!has_token("MyHashMapLike", "HashMap"));
    assert!(!has_token("HashMapper", "HashMap"));
    assert!(has_token("x as u32", "as u32"));
    assert!(!has_token("x as u32x", "as u32"));
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

/// The operational guarantee: the committed tree is clean under `--deny`
/// with the committed baseline. A regression anywhere in the workspace
/// fails this test even before CI runs the binary.
#[test]
fn live_workspace_is_clean_under_deny() {
    let root = workspace_root();
    let findings = scan_workspace(&root).expect("scan workspace");
    let baseline = load_baseline(&root.join("lint-baseline.txt"));
    let (active, _) = apply_baseline(findings, &baseline);
    assert!(
        active.is_empty(),
        "unsuppressed lint findings in the workspace:\n{}",
        active
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Seeded violations are detected end to end through the workspace scanner
/// (written into a scratch tree shaped like the repo, not the live one).
#[test]
fn seeded_violation_fails_the_workspace_scan() {
    let dir = std::env::temp_dir().join(format!("moca-lint-seed-{}", std::process::id()));
    let src = dir.join("crates/sim/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(
        src.join("lib.rs"),
        "use std::collections::HashMap;\nlet t0 = std::time::Instant::now();\n",
    )
    .unwrap();
    let findings = scan_workspace(&dir).expect("scan scratch tree");
    let rules: BTreeSet<&str> = findings.iter().map(|f| f.rule).collect();
    assert!(rules.contains("det-map"));
    assert!(rules.contains("wall-clock"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn model_checks_all_pass_on_committed_presets() {
    let checks = check_model();
    assert!(checks.len() >= 12, "expected presets + layout + configs");
    for c in &checks {
        assert!(c.result.is_ok(), "{} failed: {:?}", c.name, c.result);
    }
    // The allocator identities cover every layout at both scales, plus the
    // stripe/color-period divisibility check.
    let alloc_checks = checks
        .iter()
        .filter(|c| c.name.starts_with("frame allocator"))
        .count();
    assert_eq!(alloc_checks, 14, "7 layouts x 2 scales");
    assert!(checks
        .iter()
        .any(|c| c.name.contains("stripe chunk vs L2 color period")));
    assert!(
        checks.iter().any(|c| c.name.ends_with("@ scale 1")),
        "full-scale allocator identities must be validated"
    );
}
