//! Engine tests for the v2 analyzer: call-graph hot-path propagation, the
//! hot-root matchers, and the token-stream lexer's edge cases. The two
//! headline fixtures (`hot_call_graph.rs`, the multi-line collect in
//! `lexer_edges.rs`) are sites the v1 line scanner provably missed.

use moca_lint::functions::{is_cycle_root, is_driver_root, FnTable};
use moca_lint::lexer::lex;
use moca_lint::{scan_crate, scan_file, Finding, SourceFile};
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

// ---- call-graph hot-path propagation ----

#[test]
fn hot_alloc_propagates_to_helpers_called_from_tick() {
    // v1 only looked inside functions *named* like hot roots; the
    // allocation and the unwrap live in `refill`, reached via `tick`.
    let f = scan_fixture("sim", "hot_call_graph.rs");
    assert_eq!(lines_of(&f, "hot-alloc"), vec![13]);
    assert_eq!(lines_of(&f, "panic-in-hot"), vec![15]);
    assert_eq!(f.len(), 2, "cold_setup must stay unflagged: {f:#?}");
    // The message names the propagation chain for triage.
    assert!(
        f[0].message.contains("Engine::tick") && f[0].message.contains("Engine::refill"),
        "chain missing from message: {}",
        f[0].message
    );
}

#[test]
fn panic_in_hot_flags_direct_and_reachable_aborts() {
    let f = scan_fixture("sim", "panic_hot.rs");
    // unwrap in tick's own body, panic! in the reached helper; the
    // pragma'd expect and the cold `report` are clean.
    assert_eq!(lines_of(&f, "panic-in-hot"), vec![8, 14]);
    assert_eq!(f.len(), 2);
}

#[test]
fn hot_propagation_crosses_files_within_a_crate() {
    let files = [
        SourceFile {
            rel: PathBuf::from("a.rs"),
            raw: "pub fn tick(e: &mut Vec<u64>) {\n    helper(e);\n}\n".to_string(),
        },
        SourceFile {
            rel: PathBuf::from("b.rs"),
            raw: "pub fn helper(e: &mut Vec<u64>) {\n    e.push(format!(\"x\").len() as u64);\n}\n"
                .to_string(),
        },
    ];
    let f = scan_crate("sim", &files);
    assert_eq!(lines_of(&f, "hot-alloc"), vec![2]);
    assert_eq!(f[0].path, PathBuf::from("b.rs"));
}

#[test]
fn wheel_entry_points_are_cycle_roots() {
    // No `tick`/`step` name anywhere in the fixture: hotness enters purely
    // through the `EventWheel::post` / `next_event_after` roots.
    let f = scan_fixture("sim", "wheel_hot.rs");
    assert_eq!(lines_of(&f, "panic-in-hot"), vec![14]);
    assert_eq!(lines_of(&f, "hot-alloc"), vec![20]);
    assert_eq!(f.len(), 2, "rebuild must stay unflagged: {f:#?}");
    let alloc = f.iter().find(|x| x.rule == "hot-alloc").unwrap();
    assert!(
        alloc.message.contains("EventWheel::post") && alloc.message.contains("EventWheel::stash"),
        "chain missing from message: {}",
        alloc.message
    );
}

#[test]
fn fn_table_qualifies_impl_methods() {
    let toks = lex("impl Channel {\n    fn issue(&mut self) {}\n    fn new() -> Channel { Channel }\n}\nfn free() {}\n");
    let table = FnTable::build(&[toks]);
    let quals: Vec<&str> = table.fns.iter().map(|f| f.qual.as_str()).collect();
    assert_eq!(quals, vec!["Channel::issue", "Channel::new", "free"]);
    let hot = table.hot_set();
    assert!(hot[0].is_some(), "Channel::issue is a cycle root");
    assert!(hot[1].is_none() && hot[2].is_none());
}

// ---- lexer edge cases ----

#[test]
fn lexer_handles_raw_strings_nested_comments_and_char_braces() {
    let f = scan_fixture("sim", "lexer_edges.rs");
    // Only the real HashMap field is a det-map finding: the raw-string
    // contents and the nested block comment are not code. The braces in
    // raw strings and the '{' / '}' char literals must not desync scope
    // tracking (a desync would spray bogus findings or panic).
    assert_eq!(lines_of(&f, "det-map"), vec![3]);
    // The multi-line `.collect::<\n Vec<u64>>()` inside `tick`: v1 matched
    // the literal text `.collect::<Vec` on a single line and missed this.
    assert_eq!(lines_of(&f, "hot-alloc"), vec![27]);
    assert_eq!(f.len(), 2, "unexpected findings: {f:#?}");
}

// ---- hot-root matchers ----

#[test]
fn hot_fn_name_covers_issue_and_evaluate_entry_points() {
    // `issue` is a cycle root by name alone, qualified or not.
    assert!(is_cycle_root("issue", "Channel::issue"));
    assert!(is_cycle_root("issue", "issue"));
    for name in ["evaluate_attributed", "evaluate", "evaluate_custom"] {
        assert!(is_driver_root(name), "{name} is a driver root");
        assert!(!is_cycle_root(name, name), "{name} must not propagate");
    }
    // Prefixes must not over-match.
    for name in ["issue_width", "evaluated", "reissue"] {
        assert!(!is_cycle_root(name, name), "{name} is not a cycle root");
        assert!(!is_driver_root(name), "{name} is not a driver root");
    }
}
