use crate::measure::{failures, fingerprint, fingerprints, run_iteration};
use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::report::{compare, Host, MetricValue, Report, WorkloadResult, SCHEMA};
use crate::workloads::{build_system, eval_input, Job, Lengths, Workload, WORKLOADS};
use crate::{check_manifest, median, parse_args, BENCHMARK_JSON, DEFAULT_SECONDS, DEFAULT_SEED};
use moca::pipeline::{Pipeline, PolicyKind};
use moca_common::ModuleKind;
use moca_sim::config::{HeterogeneousLayout, MemSystemConfig};
use moca_telemetry::Telemetry;
use std::sync::atomic::{AtomicBool, Ordering};

const TINY: Lengths = Lengths {
    warmup: 2_000,
    instrs: 5_000,
};

fn args(list: &[&str]) -> Result<crate::Args, String> {
    parse_args(list.iter().map(|s| s.to_string()))
}

#[test]
fn every_workload_passes_its_checks_at_tiny_lengths() {
    for w in &WORKLOADS {
        let first = run_iteration(w, TINY, DEFAULT_SEED, false);
        let reference = fingerprints(&first);
        assert!(reference.iter().all(Option::is_some), "{}", w.name);
        assert_eq!(failures(&first, &reference), Vec::<String>::new());
        let second = run_iteration(w, TINY, DEFAULT_SEED, false);
        assert_eq!(failures(&second, &reference), Vec::<String>::new());
        // The traced run checks faults against placements and must leave
        // every fingerprint unchanged.
        let traced = run_iteration(w, TINY, DEFAULT_SEED, true);
        assert_eq!(failures(&traced, &reference), Vec::<String>::new());

        let values = metrics::per_layer(w, TINY, &[first, second], &traced, &Default::default());
        let get = |name: &str| values[PER_LAYER.iter().position(|d| d.name == name).unwrap()];
        let shares: f64 = ["cpu", "dram", "cache", "vm", "other"]
            .iter()
            .map(|c| get(&format!("sim.{c}_frac")))
            .sum();
        assert!(
            (shares - 1.0).abs() < 1e-9,
            "{}: shares sum to {shares}",
            w.name
        );
        assert!(
            get("sim.cycles") > 0.0 && get("vm.page_faults") > 0.0,
            "{}",
            w.name
        );
    }
}

#[test]
fn sweep_results_do_not_depend_on_the_worker_count() {
    let two = &WORKLOADS[4];
    assert_eq!(two.workers, 2);
    let one = Workload {
        workers: 1,
        ..WORKLOADS[4]
    };
    let a = run_iteration(two, TINY, 7, false);
    let b = run_iteration(&one, TINY, 7, false);
    assert_eq!(fingerprints(&a), fingerprints(&b));
    assert_eq!(a.jobs.len(), 30);

    // Wall time is profiling plus the busiest worker's jobs, all rescaled
    // by the probes around each span.
    for (it, workers) in [(&a, 2.0), (&b, 1.0)] {
        let jobs: f64 = it.jobs.iter().map(|j| j.job_s).sum();
        assert_eq!(it.wall_s, it.profile_s + it.fanout_s);
        assert!(it.fanout_s >= jobs / workers && it.fanout_s <= jobs);
        assert!(it.tail_idle_s >= 0.0 && it.tail_idle_s <= it.fanout_s);
        assert!(it.slowdown > 0.0 && it.slowdown.is_finite());
        assert!(it
            .jobs
            .iter()
            .all(|j| j.run_s < j.job_s && j.slowdown > 0.0));
    }
    assert_eq!(b.tail_idle_s, 0.0, "one worker never waits for another");
}

/// Most threads this process had while `f` ran, beyond those it had before.
fn extra_threads_during(f: impl FnOnce()) -> usize {
    let threads = || std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let watcher = s.spawn(|| {
            let mut most = 0;
            while !done.load(Ordering::SeqCst) {
                most = most.max(threads());
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            most
        });
        let before = threads();
        f();
        done.store(true, Ordering::SeqCst);
        watcher.join().expect("watcher").saturating_sub(before)
    })
}

/// Run by `builder_steps_on_one_thread_whatever_the_environment_says` in a
/// process of its own with `MOCA_STEP_THREADS=2`.
#[test]
#[ignore = "needs a process of its own"]
fn step_thread_probe() {
    let w = &WORKLOADS[1];
    let job = &(w.jobs)()[0];
    let mut p = w.pipeline(TINY);
    let mut run = |threads: Option<usize>| {
        let mut sys = build_system(&mut p, job, eval_input(DEFAULT_SEED), Telemetry::disabled());
        if let Some(n) = threads {
            sys.set_step_threads(n);
        }
        extra_threads_during(|| {
            sys.run_warmed(TINY.warmup, TINY.instrs);
        })
    };
    assert!(run(Some(2)) > 0, "the probe sees parallel stepping");
    assert_eq!(run(None), 0, "the builder's machines step on one thread");
}

#[test]
fn builder_steps_on_one_thread_whatever_the_environment_says() {
    let exe = std::env::current_exe().expect("test executable");
    let out = std::process::Command::new(exe)
        .args(["tests::step_thread_probe", "--exact", "--ignored"])
        .env("MOCA_STEP_THREADS", "2")
        .output()
        .expect("probe runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("1 passed"), "{stdout}");
}

#[test]
fn the_seed_reaches_every_run() {
    let w = &WORKLOADS[0];
    let a = fingerprints(&run_iteration(w, TINY, 1, false));
    let b = fingerprints(&run_iteration(w, TINY, 2, false));
    assert_ne!(a, b);
}

#[test]
fn builder_matches_pipeline_evaluate_bit_for_bit() {
    let config1 = MemSystemConfig::Heterogeneous(HeterogeneousLayout::config1());
    let set_3l1b = vec!["mcf", "milc", "disparity", "lbm"];
    let cases = [
        (
            vec!["mcf"],
            MemSystemConfig::Homogeneous(ModuleKind::Ddr3),
            PolicyKind::Homogeneous,
        ),
        (set_3l1b.clone(), config1, PolicyKind::Moca),
        (set_3l1b, config1, PolicyKind::Migration),
    ];
    let mut p = Pipeline::quick();
    p.eval_warmup = 10_000;
    p.eval_instrs = 20_000;
    for (apps, mem, policy) in cases {
        let want = p.evaluate(&apps, mem, policy);
        let job = Job {
            label: policy.label().to_string(),
            apps,
            mem,
            policy,
        };
        let mut sys = build_system(
            &mut p,
            &job,
            eval_input(DEFAULT_SEED),
            Telemetry::disabled(),
        );
        let got = sys.run_warmed(p.eval_warmup, p.eval_instrs);
        assert_eq!(fingerprint(&got), fingerprint(&want), "{}", job.label);
        assert_eq!(
            got.mem.edp().to_bits(),
            want.mem.edp().to_bits(),
            "{}",
            job.label
        );
    }
}

#[test]
fn benchmark_json_matches_the_code() {
    assert_eq!(check_manifest(BENCHMARK_JSON), Ok(()));
    let widened = BENCHMARK_JSON.replacen("\"bound\": 0.", "\"bound\": 0.0", 1);
    assert!(check_manifest(&widened).is_err());
    let renamed = BENCHMARK_JSON.replacen("solo-latency", "solo", 1);
    assert!(check_manifest(&renamed).is_err());
}

#[test]
fn bounds_cover_the_recorded_spread() {
    let spread = serde_json::parse(include_str!("../spread.json")).expect("spread.json parses");
    let setup = metrics::def("setup_s").and_then(|d| d.bound).unwrap();
    for d in &END_TO_END {
        let worst = spread
            .get("worst")
            .and_then(|w| w.get(d.name))
            .expect(d.name);
        let [iqr, shift] =
            ["spread", "median_shift"].map(|k| worst.get(k).and_then(|v| v.as_f64()).expect(k));
        let bound = d.bound.unwrap();
        // Set-up time is short and exempt from the spread rule; its bound
        // is the largest instead.
        if d.name != "setup_s" {
            assert!(
                bound >= 2.0 * iqr,
                "{}: bound {bound}, spread {iqr}",
                d.name
            );
        }
        assert!(
            bound >= 2.0 * shift,
            "{}: bound {bound}, median shift {shift}",
            d.name
        );
        assert!(bound <= setup, "setup_s has the largest bound");
    }
}

fn result(name: &str, failed: u64, metrics: &[(&str, f64)]) -> WorkloadResult {
    WorkloadResult {
        name: name.to_string(),
        iterations: 5,
        attempted: 10,
        failed,
        metrics: metrics
            .iter()
            .map(|&(n, value)| MetricValue {
                name: n.to_string(),
                unit: metrics::def(n).unwrap().unit.to_string(),
                value,
            })
            .collect(),
    }
}

fn report(host: Host, workloads: Vec<WorkloadResult>) -> Report {
    Report {
        schema: SCHEMA.to_string(),
        host,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        workloads,
    }
}

fn host(cpu: &str) -> Host {
    Host {
        cpu_model: cpu.to_string(),
        logical_cpus: 2,
        kernel: "6.1".to_string(),
        profile: "release".to_string(),
    }
}

#[test]
fn report_roundtrips_through_json() {
    let r = report(
        host("cpu"),
        vec![result(
            "solo-latency",
            0,
            &[("wall_s", 0.8905608275), ("sim_mips", 5.1)],
        )],
    );
    let back: Report = serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
    assert_eq!(back.host, r.host);
    assert_eq!(back.seed, DEFAULT_SEED);
    assert_eq!(back.workloads[0].metrics[0].value, 0.8905608275);
    assert_eq!(back.workloads[0].iterations, 5);

    let line = serde_json::parse(&r.workloads[0].result_line()).unwrap();
    let serde_json::Value::Object(fields) = &line else {
        panic!("result line is an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let wall = line.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
    assert_eq!(wall.get("unit").and_then(|u| u.as_str()), Some("s"));
    assert_eq!(line.get("correct").and_then(|c| c.as_bool()), Some(true));

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/baseline.json");
    let baseline = Report::load(std::path::Path::new(path)).unwrap();
    let names: Vec<&str> = baseline.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(names, WORKLOADS.map(|w| w.name));
    for w in &baseline.workloads {
        let metrics: Vec<&str> = w.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(metrics, END_TO_END.map(|d| d.name), "{}", w.name);
    }
}

#[test]
fn compare_gates_only_the_same_work_on_the_same_host() {
    let base = report(
        host("a"),
        vec![result(
            "solo-latency",
            0,
            &[("wall_s", 1.0), ("sim.cycles", 100.0)],
        )],
    );
    let slow = || {
        report(
            host("a"),
            vec![result(
                "solo-latency",
                0,
                &[("wall_s", 1.5), ("sim.cycles", 101.0)],
            )],
        )
    };

    let same = compare(&base, &slow());
    assert_eq!(same.regressions.len(), 1, "{:?}", same.regressions);
    assert!(same.regressions[0].contains("wall_s"));

    // Another host, or other work on the same host, only warns.
    let others = [
        (
            "host",
            Report {
                host: host("b"),
                ..slow()
            },
        ),
        ("seed", Report { seed: 7, ..slow() }),
        (
            "quick",
            Report {
                quick: true,
                ..slow()
            },
        ),
        (
            "trace",
            Report {
                trace: true,
                ..slow()
            },
        ),
    ];
    for (what, other) in others {
        let c = compare(&base, &other);
        assert!(c.regressions.is_empty(), "{what}: {:?}", c.regressions);
        assert!(
            c.lines
                .iter()
                .any(|l| l.starts_with(&format!("warning: {what} ("))),
            "{what}: {:?}",
            c.lines
        );
        assert!(
            c.lines
                .iter()
                .any(|l| l.starts_with("warning: solo-latency: wall_s")),
            "{what}: {:?}",
            c.lines
        );
        // A changed count is listed and never gated.
        assert!(c
            .lines
            .iter()
            .any(|l| l.contains("count sim.cycles changed")));
    }

    let within = compare(
        &base,
        &report(
            host("a"),
            vec![result("solo-latency", 0, &[("wall_s", 1.1)])],
        ),
    );
    assert!(within.regressions.is_empty());

    let failing = compare(
        &base,
        &report(
            host("b"),
            vec![result("solo-latency", 1, &[("wall_s", 1.0)])],
        ),
    );
    assert_eq!(failing.regressions.len(), 1, "failures gate on any host");
}

#[test]
fn arguments_parse_the_documented_command_line() {
    let a = args(&[
        "--workload",
        "config-sweep",
        "--seed",
        "42",
        "--seconds",
        "20",
        "--trace",
        "1",
    ])
    .unwrap();
    assert_eq!(a.workload.map(|w| w.name), Some("config-sweep"));
    assert_eq!((a.seed, a.seconds, a.trace), (42, 20, true));
    let d = args(&[]).unwrap();
    assert_eq!(
        (d.seed, d.seconds, d.trace, d.quick),
        (DEFAULT_SEED, DEFAULT_SECONDS, false, false)
    );
    assert_eq!(args(&["--seed", "0x0EF5EED5"]).unwrap().seed, DEFAULT_SEED);
    assert!(args(&["--trace", "2"]).is_err());
    assert!(args(&["--workload", "nope"]).is_err());
    assert!(args(&["--seconds", "0"]).is_err());
    assert!(args(&["--seed"]).is_err());
}

#[test]
fn median_of_odd_and_even_samples() {
    assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&mut []), 0.0);
}

#[test]
fn replay_times_every_layer() {
    let c = crate::replay::replay(&WORKLOADS[1], DEFAULT_SEED);
    for (name, v) in [
        ("workloads", c.workloads_ns_per_instr),
        ("cpu", c.cpu_ns_per_instr),
        ("cache", c.cache_ns_per_access),
        ("tlb", c.tlb_ns_per_lookup),
        ("pt", c.pt_ns_per_translate),
        ("frames", c.frames_ns_per_op),
        ("dram", c.dram_ns_per_request),
        ("wheel", c.wheel_ns_per_op),
    ] {
        assert!(v > 0.0 && v.is_finite(), "{name}: {v}");
    }
}
