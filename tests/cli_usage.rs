//! Command-line contract of the two binaries: removed subcommands and
//! options, and unknown targets, are usage errors (exit 2) rather than
//! being ignored. None of these invocations reaches a simulation.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (i32, String) {
    let out = Command::new(bin)
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("binary runs");
    (
        out.status.code().expect("exited"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn moca_bench_has_only_diff() {
    let bin = env!("CARGO_BIN_EXE_moca-bench");
    for args in [&["perf"][..], &["perf", "--quick"], &[]] {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, 2, "moca-bench {args:?}: {stderr}");
        assert!(stderr.contains("usage: moca-bench diff"), "{stderr}");
    }
}

#[test]
fn repro_rejects_unknown_options_and_targets() {
    let bin = env!("CARGO_BIN_EXE_repro");
    for (args, says) in [
        (
            &["--quick", "--threads", "2", "table3"][..],
            "unknown option",
        ),
        (
            &["explain", "mcf", "ddr3", "--threads", "2"],
            "unknown option",
        ),
        (&["--quick", "fig99"], "unknown target"),
        (
            &["--quick", "--metrics-window", "20000", "table3"],
            "--trace",
        ),
    ] {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, 2, "repro {args:?}: {stderr}");
        assert!(stderr.contains(says), "repro {args:?}: {stderr}");
    }
}
