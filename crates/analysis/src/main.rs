//! `moca-lint` CLI.
//!
//! ```text
//! moca-lint [--deny] [--root PATH]    lint the workspace
//! moca-lint check-model               validate timing presets & layout
//! ```
//!
//! Exit status: 0 when clean (or findings exist but `--deny` was not
//! passed), 1 when `--deny` saw findings or a model check failed, 2 on
//! usage/IO errors.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: moca-lint [--deny] [--root PATH]\n       moca-lint check-model");
    ExitCode::from(2)
}

fn default_root() -> PathBuf {
    // The binary lives in crates/analysis; the workspace root is two up.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

fn run_check_model() -> ExitCode {
    let checks = moca_lint::check_model();
    let mut failed = 0usize;
    for c in &checks {
        match &c.result {
            Ok(()) => println!("ok   {}", c.name),
            Err(e) => {
                failed += 1;
                println!("FAIL {}: {e}", c.name);
            }
        }
    }
    println!(
        "moca-lint check-model: {} checks, {} failed",
        checks.len(),
        failed
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("check-model") {
        if args.len() != 1 {
            return usage();
        }
        return run_check_model();
    }

    let mut deny = false;
    let mut root = default_root();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny" => deny = true,
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    let findings = match moca_lint::scan_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("moca-lint: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    for f in &findings {
        println!("{f}");
    }
    println!("moca-lint: {} finding(s)", findings.len());
    if deny && !findings.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
