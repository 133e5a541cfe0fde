//! `moca-perf`: the repository benchmark (report schema `moca-bench-perf/v2`).
//!
//! It measures how fast the simulator runs the simulations users of this
//! reproduction run, end to end and per layer, through the simulator's
//! public API only. `BENCHMARK.json` at the repository root names the same
//! workloads and metrics, with the bound each end-to-end metric may worsen
//! by before a change counts as a regression. Every run first checks that
//! the two agree and exits with an error if they do not.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload NAME] [--seed S] [--seconds N] [--trace 0|1] [--quick] \
//!     [--out FILE] [--compare FILE]
//! ```
//!
//! With `--workload`, one workload runs in this process; stdout ends with
//! the v2 report line and then the result line
//! `{"correct", "attempted", "failed", "metrics"}`. Without it, every
//! workload runs in its own child process and the combined report is
//! printed as a table.
//!
//! # Workloads
//!
//! Each iteration starts from an empty pipeline: it profiles and classifies
//! the workload's apps on the training input (`Pipeline::classified`, quick
//! profiling lengths), builds each machine (`System::new_with_telemetry`)
//! and runs it (`System::run_warmed`) on the reference input with its seed
//! replaced by `--seed` (default `0x0EF5EED5`, the reference seed). Capacity
//! scale is 1/64 unless stated. A warm-up iteration runs first: it is
//! checked and gives the reference fingerprints, but is not measured. Then
//! iterations repeat until `--seconds` would be exceeded (at least three);
//! `--quick` runs one, with no warm-up, at a tenth the length. Runs are
//! short, so a run holds many iterations and each simulation is timed
//! between speed probes that are close to it in time (`speed.rs`). Every
//! machine steps on one host thread whatever `MOCA_STEP_THREADS` says;
//! `config-sweep` alone runs jobs side by side.
//!
//! | name | machine · apps · policy | warmup + measured per core | why |
//! |---|---|---|---|
//! | `solo-latency` | Homogen-DDR3, 1 core · `mcf` · first-touch | 50k + 800k | A lone pointer-chasing core waits on DRAM reads: the event wheel, the skip path and DRAM completions carry the run and nothing contends. Pipeline-width or multi-core step-loop changes should show nothing here. |
//! | `quad-bandwidth` | Heter config1, 4 cores · 4B set · MOCA | 60k + 250k | Streaming reads plus dirty writebacks keep the channel queues full: FR-FCFS, write drain and deferred writebacks do the work. |
//! | `colo16-compute` | Heter config1, 16 cores · dense-colocation tenant list · MOCA | 25k + 50k | Many awake, mostly non-intensive cores: core ticks, workload generation, L1/L2 and TLB hits dominate and event skip almost never fires. DRAM-side changes should barely show. |
//! | `scale1-migrate` | Heter config1 at capacity scale 1, 4 cores · 3L1B · Heter-Migrate | 60k + 125k | The only workload where the `vm` layer is more than noise (first-touch faults, fallback allocations, migration epochs) and the only non-trivial `System::new` (about 4M frames). MOCA itself cannot run at scale 1 yet: its latency heap partition overflows. |
//! | `config-sweep` | Heter config1/2/3, 4 cores · the five Figs. 14/15 sets × {Heter-App, MOCA} = 30 runs | 60k + 75k (half of `repro --quick`) | What a `repro` user waits for: profile ten apps, then many short runs fanned out over exactly 2 workers. The only workload with across-run parallelism, and the one covering config2/3 and both policies. |
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! Medians over the iterations of one run (the count is in the report),
//! measured with tracing off. Times are reference seconds: each span's host
//! seconds divided by the slowdown that speed probes on its thread measured
//! around it (`speed.rs`). Other tenants of the shared host change its
//! speed from one second to the next; in raw host seconds the medians of
//! ten runs of one workload spread by 17–30% (interquartile range over the
//! median), in reference seconds by 2–9%. Two commits measured at the same
//! host speed compare as their host seconds do.
//!
//! The bounds come from `spread.json`: four sets of ten runs per workload,
//! one seed per run, measured on a shared 2-vCPU host. Each bound is at
//! least twice the worst interquartile range (`setup_s` excepted) and twice
//! the worst shift of the median between sets; a test keeps it so.
//! `sim_mips` spreads the most (up to 7–9% on `colo16-compute`), so its
//! bound is wider than `wall_s`'s. `setup_s` has the largest bound and is
//! reported on its own so that work moved into set-up shows.
//!
//! | name | unit | better | bound | definition |
//! |---|---|---|---|---|
//! | `wall_s` | s | lower | 20% | Reference seconds per iteration: profiling, then the busiest worker's jobs (set-up, simulation and checks). |
//! | `sim_mips` | Minstr/s | higher | 22% | Instructions committed on all cores, warmup included, per reference second inside `run_warmed` (summed over jobs). |
//! | `setup_s` | s | lower | 25% | Reference seconds of profiling, classification and every `System::new`. Short, so noisier. |
//! | `peak_heap_mb` | MiB | lower | 5% | Most heap the iteration held at once (`heap.rs`), above what was held before it; within 0.2% across seeds. |
//!
//! Failures are counted, not fatal: every simulation runs under
//! `catch_unwind` and must reach its instruction target on every core,
//! place exactly as many pages as it holds frames, and reproduce the
//! fingerprint (FNV-1a over its deterministic results) of the run's first
//! iteration; a traced run must also match the untraced fingerprint and
//! fault in exactly the pages it placed. The result line's `failed` over
//! `attempted` is the failure fraction (`fail_frac`, bound +0); `correct`
//! is true when nothing failed.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! A traced run measures the untraced iterations as above (the baseline for
//! `trace.overhead_frac` and the source of the span medians), then one
//! iteration with host profiling and event counting on, then the substrate
//! replay (`replay.rs`): each layer's public functions timed on the
//! workload's own seeded instruction stream. Layers are named after the
//! crates. Spans are recorded here, around the calls into the simulator.
//!
//! Host times are in reference seconds, like the end-to-end metrics.
//!
//! | metric | measured by | should move | on | flat on |
//! |---|---|---|---|---|
//! | `host.slowdown` | host seconds per reference second over the untraced iterations (`speed.rs`); how contended the host was, not a property of the code | — (read host times with it) | | |
//! | `core.profile_s` | span around `Pipeline::classified` | `setup_s` | `colo16-compute`, `config-sweep` | — |
//! | `sim.build_s` | span around `System::new_with_telemetry` | `setup_s` | `scale1-migrate` | 1/64-scale workloads |
//! | `sim.run_s` | span around the traced `run_warmed` | `sim_mips` | all | — |
//! | `sim.cpu_frac` | `Telemetry::components.cpu` ÷ `sim.run_s` | `sim_mips` | `colo16-compute` | `solo-latency` |
//! | `sim.dram_frac` | `components.dram` | `sim_mips` | `quad-bandwidth` | `colo16-compute` |
//! | `sim.cache_frac` | `components.cache` (deferred writebacks) | `sim_mips` | `quad-bandwidth` | `solo-latency` |
//! | `sim.vm_frac` | `components.vm` (migration epochs) | `sim_mips` | `scale1-migrate` | all others (0) |
//! | `sim.other_frac` | 1 − the four above: wheel, skip, bookkeeping, timers | `sim_mips` | `solo-latency` | `colo16-compute` |
//! | `trace.overhead_frac` | traced `sim.run_s` ÷ untraced median − 1 | — (read the shares with it) | | |
//! | `par.efficiency` | Σ per-job seconds ÷ (workers × the busiest worker's seconds) | `wall_s` | `config-sweep` | single-threaded workloads |
//! | `par.tail_idle_s` | the busiest worker's seconds − the least busy one's: its idle time once the queue emptied | `wall_s` | `config-sweep` | — |
//! | `workloads.ns_per_instr` | `AppRun::next_instr` | `sim_mips` | `colo16-compute` | `solo-latency` |
//! | `cpu.ns_per_instr` | `Core::tick` on the recorded stream, fixed-latency `MemPort` stub (no generator inside) | `sim_mips` | `colo16-compute` | `solo-latency` |
//! | `cache.ns_per_access` | `SetAssocCache::access`/`fill`, L1D then L2, on the stream's lines | `sim_mips` | `quad-bandwidth`, `colo16-compute` | — |
//! | `vm.tlb_ns_per_lookup` | `Tlb::lookup`/`insert` on the stream's pages | `sim_mips` | `colo16-compute` | — |
//! | `vm.pt_ns_per_translate` | `PageTable::map`/`translate_vpn` | `sim_mips` | `scale1-migrate` | — |
//! | `vm.frames_ns_per_op` | `FrameSpace::alloc_by_preference`/`free` churn on the workload's machine | `setup_s`, `sim_mips` | `scale1-migrate` | 1/64-scale workloads |
//! | `dram.ns_per_request` | `Channel::enqueue` + `tick` until drained, the stream's L2 misses, each module kind used | `sim_mips` | `quad-bandwidth` | `colo16-compute` |
//! | `wheel.ns_per_op` | `EventWheel::post`/`cancel`/`next_event_after`, one component per core and channel | `sim_mips` | `solo-latency` | `colo16-compute` |
//! | `layers.unattributed_frac` | 1 − Σ(count × ns per call) ÷ untraced `run_s`; the wheel has no count and is left out | reported, not gated | | |
//!
//! The remaining per-layer metrics are counts of the simulated model, read
//! from the traced run's `RunResult`s and `events.*` counters and summed over
//! its jobs: `sim.cycles`, `cpu.instructions`, `cpu.ipc`, `cpu.loads`,
//! `cpu.stores`, `cpu.head_stall_frac` (ROB-head stall cycles ÷ core
//! cycles), `cache.llc_mpki`, `cache.mshr_full_stalls` (retries),
//! `vm.page_faults`, `vm.fallback_allocs`, `vm.migrated_pages`,
//! `vm.migration_epochs`, `dram.reads`, `dram.writes`,
//! `dram.bank_conflicts`, `dram.refreshes`, `dram.busy_frac`,
//! `dram.row_hit_rate` (row hits ÷ requests), `dram.read_queue_cycles_mean`,
//! `dram.read_service_cycles_mean`, `model.mem_access_cycles`,
//! `model.mem_edp` and `model.claims_held` (Figs. 14/15 points, of 15, where
//! MOCA's memory EDP is at most Heter-App's; 0 off `config-sweep`). Event
//! counts cover the whole run, warmup included; `RunResult` statistics
//! cover the measured window. These move only when the model changes: a
//! simulator-speed change must leave every one identical, and
//! `sim.mcycles_per_s` (measured cycles per host second of `run_warmed`,
//! kept from v1) compares host time per simulated cycle. The model is
//! checked only against the paper's reported ratios, so no error against
//! hardware is reported.
//!
//! # Comparing reports
//!
//! Every report records the host identity (CPU model, logical CPUs,
//! kernel, build profile), the seed, `--quick`, `--trace` and the iteration
//! counts. `--compare FILE` gates end-to-end metrics at their bounds only
//! when the host identity, the seed, `--quick` and `--trace` all match;
//! otherwise their deltas are warnings.
//! Changed deterministic counts are listed and never fail. A higher failure
//! fraction always fails.

mod heap;
mod measure;
mod metrics;
mod replay;
mod report;
mod speed;
#[cfg(test)]
mod tests;
mod workloads;

use report::{Host, MetricValue, Report, WorkloadResult};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// Default evaluation seed: the reference input's.
const DEFAULT_SEED: u64 = 0x0EF5_EED5;
/// Default measuring time per workload (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: u64 = 20;
/// Untraced iterations every run measures, however short `--seconds` is.
const MIN_ITERATIONS: usize = 3;

/// Median of `v` (mean of the middle two for even lengths; 0 when empty).
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    compare: Option<PathBuf>,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out: None,
        compare: None,
    };
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(workloads::by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?)
            }
            "--seed" => args.seed = parse_u64(&value).ok_or_else(bad)?,
            "--seconds" => args.seconds = parse_u64(&value).filter(|&s| s > 0).ok_or_else(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            "--compare" => args.compare = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(args)
}

/// The repository's `BENCHMARK.json`, as this binary was built with it.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Check that `BENCHMARK.json` (`text`) names exactly the workloads and
/// metrics this binary measures, with the same whys, units, directions and
/// bounds, and that its `run_seconds` is the default `--seconds`. Every run
/// checks it, so the two cannot drift apart.
fn check_manifest(text: &str) -> Result<(), String> {
    let b = serde_json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let table = |key: &str, cols: &[&str]| -> Vec<Vec<String>> {
        let items = b.get(key).and_then(|v| v.as_array()).unwrap_or(&[]);
        items
            .iter()
            .map(|item| {
                cols.iter()
                    .map(|c| match item.get(c) {
                        Some(v) => v
                            .as_str()
                            .map_or_else(|| format!("{:?}", v.as_f64()), str::to_string),
                        None => format!("no {c}"),
                    })
                    .collect()
            })
            .collect()
    };
    let defs = |list: &[metrics::Def]| -> Vec<Vec<String>> {
        list.iter()
            .map(|d| {
                let mut row = vec![d.name.into(), d.unit.into(), d.better.as_str().into()];
                row.extend(d.bound.map(|x| format!("{:?}", Some(x))));
                row
            })
            .collect()
    };
    let checks = [
        (
            "run_seconds",
            vec![vec![format!(
                "{:?}",
                b.get("run_seconds").and_then(|v| v.as_u64())
            )]],
            vec![vec![format!("{:?}", Some(DEFAULT_SECONDS))]],
        ),
        (
            "workloads",
            table("workloads", &["name", "why"]),
            WORKLOADS
                .iter()
                .map(|w| vec![w.name.into(), w.why.into()])
                .collect(),
        ),
        (
            "end_to_end",
            table("end_to_end", &["name", "unit", "better", "bound"]),
            defs(&metrics::END_TO_END),
        ),
        (
            "per_layer",
            table("per_layer", &["name", "unit", "better"]),
            defs(&metrics::PER_LAYER),
        ),
    ];
    for (key, listed, measured) in checks {
        if listed != measured {
            return Err(format!(
                "BENCHMARK.json {key} lists {listed:?}, but this benchmark measures {measured:?}"
            ));
        }
    }
    Ok(())
}

/// Measure one workload in this process.
fn run_workload(w: &Workload, args: &Args) -> WorkloadResult {
    let len = w.lengths(args.quick);
    eprintln!("{}: {}", w.name, w.why);
    let start = Instant::now();
    let mut iters: Vec<measure::Iteration> = Vec::new();
    let mut reference: Option<Vec<Option<u64>>> = None;
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0;
    if !args.quick {
        // Warm-up: checked, and the source of the reference fingerprints,
        // but not measured.
        let warmup = measure::run_iteration(w, len, args.seed, false);
        attempted += warmup.jobs.len();
        let reference = reference.insert(measure::fingerprints(&warmup));
        failures.extend(measure::failures(&warmup, reference));
    }
    loop {
        let t = Instant::now();
        let it = measure::run_iteration(w, len, args.seed, false);
        let host_s = t.elapsed().as_secs_f64();
        attempted += it.jobs.len();
        let reference = reference.get_or_insert_with(|| measure::fingerprints(&it));
        failures.extend(measure::failures(&it, reference));
        eprintln!(
            "{}: iteration {}: {:.3} s (setup {:.3} s, run {:.3} s) at host slowdown {:.3}",
            w.name,
            iters.len() + 1,
            it.wall_s,
            it.setup_s(),
            it.run_s(),
            it.slowdown
        );
        iters.push(it);
        let elapsed = start.elapsed().as_secs_f64();
        if args.quick || (iters.len() >= MIN_ITERATIONS && elapsed + host_s > args.seconds as f64) {
            break;
        }
    }

    let (defs, values) = if args.trace {
        let traced = measure::run_iteration(w, len, args.seed, true);
        attempted += traced.jobs.len();
        let reference = reference.as_deref().expect("an untraced iteration ran");
        failures.extend(measure::failures(&traced, reference));
        let costs = replay::replay(w, args.seed);
        (
            &metrics::PER_LAYER[..],
            metrics::per_layer(w, len, &iters, &traced, &costs).to_vec(),
        )
    } else {
        (
            &metrics::END_TO_END[..],
            metrics::end_to_end(w, len, &iters).to_vec(),
        )
    };
    for f in &failures {
        eprintln!("{}: FAILED: {f}", w.name);
    }
    WorkloadResult {
        name: w.name.to_string(),
        iterations: iters.len() as u64,
        attempted: attempted as u64,
        failed: failures.len() as u64,
        metrics: defs
            .iter()
            .zip(values)
            .map(|(d, value)| MetricValue {
                name: d.name.to_string(),
                unit: d.unit.to_string(),
                value,
            })
            .collect(),
    }
}

/// Run every workload in a child process of its own and collect their
/// report lines (the second-to-last line of each child's stdout).
fn run_all(args: &Args) -> Result<Vec<WorkloadResult>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut results = Vec::new();
    for w in &WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        let out = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", w.name))?;
        if !out.status.success() {
            return Err(format!("{}: child exited with {}", w.name, out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        let report_line = lines
            .len()
            .checked_sub(2)
            .map(|i| lines[i])
            .ok_or_else(|| format!("{}: no report line", w.name))?;
        let report: Report =
            serde_json::from_str(report_line).map_err(|e| format!("{}: {e}", w.name))?;
        results.extend(report.workloads);
    }
    Ok(results)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("moca-perf: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check_manifest(BENCHMARK_JSON) {
        eprintln!("moca-perf: {e}");
        return ExitCode::from(2);
    }
    let baseline = match args.compare.as_deref().map(Report::load).transpose() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("moca-perf: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads = match args.workload {
        Some(w) => vec![run_workload(w, &args)],
        None => match run_all(&args) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("moca-perf: {e}");
                return ExitCode::from(2);
            }
        },
    };
    let report = Report {
        schema: report::SCHEMA.to_string(),
        host: Host::current(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
        workloads,
    };
    if args.workload.is_some() {
        eprint!("{}", report.render());
    } else {
        print!("{}", report.render());
    }
    if let Some(path) = &args.out {
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        if let Err(e) = std::fs::write(path, json + "\n") {
            eprintln!("moca-perf: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let mut code = ExitCode::SUCCESS;
    if let Some(base) = &baseline {
        let c = report::compare(base, &report);
        for line in c.lines {
            eprintln!("compare: {line}");
        }
        for r in &c.regressions {
            eprintln!("compare: REGRESSION: {r}");
        }
        if !c.regressions.is_empty() {
            code = ExitCode::from(1);
        }
    }
    if let (Some(_), [w]) = (args.workload, report.workloads.as_slice()) {
        println!(
            "{}",
            serde_json::to_string(&report).expect("report serializes")
        );
        println!("{}", w.result_line());
    }
    code
}
