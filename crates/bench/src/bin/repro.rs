//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--quick] [--quiet] [--jobs N] [--capacity-scale F] [--out DIR] [--trace FILE] [--metrics-window N] <target>...
//! repro explain [APP] [MEM] [--quick] [--quiet] [--jobs N] [--capacity-scale F] [--out DIR] [--top N]
//!
//! targets: table1 table2 table3 fig1 fig2 fig5 fig8 fig9 fig10 fig11
//!          fig12 fig13 fig14 fig15 fig16 thresholds migration ablations all
//! ```
//!
//! `repro explain` runs one attribution-instrumented evaluation (default
//! `mcf` on `ddr3`; MEM is one of `ddr3 lp rl hbm heter1 heter2 heter3`),
//! prints the cycle-attribution report — per-core CPI stacks, per-tier
//! stall mechanisms, the top objects by attributed stall with placement
//! verdicts, and the occupancy timeline — and writes the stable JSON twin
//! to `<out>/explain_<APP>-<MEM>.json`. Output is byte-identical across
//! repeated runs and `--jobs` counts.
//!
//! `--quiet` silences progress lines on stderr; `<out>/repro_progress.log`
//! is still written.
//!
//! `--capacity-scale F` sets the footprint/capacity scale in `(0, 1]`
//! (default 1/64, the paper-fidelity evaluation scale): workload footprints
//! and machine capacities shrink together, so placement pressure is
//! preserved. `--capacity-scale 1.0` runs the full paper-sized footprints —
//! multi-GB machines with millions of frames, the regime the hierarchical
//! bitmap frame allocator exists for.
//!
//! `--jobs N` caps the host worker threads used to fan simulations out
//! (also settable via the `MOCA_JOBS` environment variable; the flag wins).
//! Results are bit-identical regardless of the count.
//!
//! Results are printed as aligned tables and saved as JSON under `--out`
//! (default `results/`). Progress lines go to stderr and to
//! `<out>/repro_progress.log`.
//!
//! `--trace FILE` additionally runs one fully instrumented exemplar
//! evaluation (mcf on Heter config1 under MOCA) and writes a Chrome-trace /
//! Perfetto JSON file with cycle-stamped simulator events, windowed metric
//! counters, and host-side phase spans. `--metrics-window N` sets the
//! counter sampling period in cycles (default 50000 when tracing).

use moca::pipeline::PolicyKind;
use moca_bench::experiments as exp;
use moca_bench::harness::suite_names;
use moca_bench::{Plan, Scale, Table, Target};
use moca_sim::config::{HeterogeneousLayout, MemSystemConfig};
use moca_telemetry::{write_chrome_trace, HostProfiler, ProgressReporter, RingSink, Telemetry};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--quick] [--quiet] [--jobs N] [--capacity-scale F] [--out DIR] [--trace FILE] [--metrics-window N] <target>...\n\
         \x20      repro explain [APP] [MEM] [--quick] [--quiet] [--jobs N] [--capacity-scale F] [--out DIR] [--top N]\n\
         targets: table1 table2 table3 fig1 fig2 fig5 fig8 fig9 fig10 fig11 \
         fig12 fig13 fig14 fig15 fig16 thresholds migration ablations all\n\
         mems:    ddr3 lp rl hbm heter1 heter2 heter3"
    );
    std::process::exit(2);
}

fn set_jobs(n: &str) {
    match n.parse::<usize>() {
        // The fan-out helpers read MOCA_JOBS at each call site; exporting
        // it here makes the flag reach all of them.
        Ok(v) if v > 0 => std::env::set_var("MOCA_JOBS", v.to_string()),
        _ => {
            eprintln!("repro: --jobs wants a positive thread count, got {n:?}");
            std::process::exit(2);
        }
    }
}

fn parse_capacity_scale(n: &str) -> f64 {
    match n.parse::<f64>() {
        Ok(v) if v > 0.0 && v <= 1.0 => v,
        _ => {
            eprintln!("repro: --capacity-scale wants a fraction in (0, 1], got {n:?}");
            std::process::exit(2);
        }
    }
}

/// `repro explain`: one attribution-instrumented run, rendered + JSON.
fn explain_main(args: &[String]) -> ! {
    let mut spec = moca_bench::explain::ExplainSpec::default();
    let mut out_dir = PathBuf::from("results");
    let mut quiet = false;
    let mut positionals: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => spec.quick = true,
            "--quiet" => quiet = true,
            "--jobs" => set_jobs(&it.next().cloned().unwrap_or_else(|| usage())),
            "--capacity-scale" => {
                spec.capacity_scale = Some(parse_capacity_scale(
                    &it.next().cloned().unwrap_or_else(|| usage()),
                ));
            }
            "--out" => out_dir = PathBuf::from(it.next().cloned().unwrap_or_else(|| usage())),
            "--top" => {
                let n = it.next().cloned().unwrap_or_else(|| usage());
                match n.parse::<usize>() {
                    Ok(v) if v > 0 => spec.top = v,
                    _ => {
                        eprintln!("repro explain: --top wants a positive count, got {n:?}");
                        std::process::exit(2);
                    }
                }
            }
            "-h" | "--help" => usage(),
            f if f.starts_with('-') => {
                eprintln!("repro explain: unknown option {f:?}");
                usage();
            }
            p => positionals.push(p),
        }
    }
    match positionals.as_slice() {
        [] => {}
        [app] => spec.app = app.to_string(),
        [app, mem] => {
            spec.app = app.to_string();
            spec.mem = mem.to_string();
        }
        _ => usage(),
    }

    if !quiet {
        eprintln!(
            "repro explain: {} on {} ({}) ...",
            spec.app,
            spec.mem,
            if spec.quick { "quick" } else { "full" }
        );
    }
    let report = match moca_bench::explain::run_explain(&spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repro explain: error: {e}");
            std::process::exit(2);
        }
    };
    print!("{}", moca_bench::explain::render(&report));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("warning: could not create {}: {e}", out_dir.display());
    }
    let json_path = out_dir.join(format!("explain_{}-{}.json", spec.app, spec.mem));
    match std::fs::write(&json_path, moca_bench::explain::to_json(&report)) {
        Ok(()) => {
            if !quiet {
                eprintln!("repro explain: JSON written to {}", json_path.display());
            }
        }
        Err(e) => eprintln!("warning: could not save {}: {e}", json_path.display()),
    }
    std::process::exit(0);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("explain") {
        explain_main(&argv[1..]);
    }
    let mut scale = Scale::Full;
    let mut capacity_scale = moca_workloads::spec::DEFAULT_FOOTPRINT_SCALE;
    let mut out_dir = PathBuf::from("results");
    let mut trace: Option<PathBuf> = None;
    let mut metrics_window: Option<u64> = None;
    let mut quiet = false;
    let mut targets: BTreeSet<String> = BTreeSet::new();
    let mut args = argv.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => scale = Scale::Quick,
            "--quiet" => quiet = true,
            "--jobs" => set_jobs(&args.next().unwrap_or_else(|| usage())),
            "--capacity-scale" => {
                capacity_scale = parse_capacity_scale(&args.next().unwrap_or_else(|| usage()));
            }
            "--out" => out_dir = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--trace" => trace = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--metrics-window" => {
                let n = args.next().unwrap_or_else(|| usage());
                match n.parse::<u64>() {
                    Ok(v) if v > 0 => metrics_window = Some(v),
                    _ => {
                        eprintln!(
                            "repro: --metrics-window wants a positive cycle count, got {n:?}"
                        );
                        std::process::exit(2);
                    }
                }
            }
            "-h" | "--help" => usage(),
            f if f.starts_with('-') => {
                eprintln!("repro: unknown option {f:?}");
                usage();
            }
            t => {
                targets.insert(t.to_string());
            }
        }
    }
    if targets.is_empty() && trace.is_none() {
        usage();
    }
    let known: Vec<&str> = exp::GENERATORS
        .iter()
        .flat_map(|(names, _)| *names)
        .copied()
        .collect();
    if targets.remove("all") {
        targets.extend(known.iter().map(|t| t.to_string()));
    }
    if let Some(t) = targets.iter().find(|t| !known.contains(&t.as_str())) {
        eprintln!("repro: unknown target {t:?}");
        usage();
    }

    let mut progress = ProgressReporter::new(Some(&out_dir.join("repro_progress.log")));
    progress.set_quiet(quiet);
    let mut profiler = HostProfiler::new();
    let mut traced_cycles: Option<u64> = None;

    let mut pipeline = scale.pipeline();
    pipeline.profile_cfg.capacity_scale = capacity_scale;
    progress.step(&format!(
        "profiling and declaring runs ({scale:?}, capacity scale {capacity_scale}) ..."
    ));
    let declared: Vec<(&[&str], Target)> = profiler.time("profiling", || {
        exp::GENERATORS
            .into_iter()
            .filter(|(names, _)| names.iter().any(|n| targets.contains(*n)))
            .map(|(names, declare)| (names, declare(&mut pipeline)))
            .collect()
    });

    if let Some(trace_path) = &trace {
        let window = metrics_window.unwrap_or(50_000);
        progress.step(&format!(
            "traced exemplar run (mcf, Heter config1, MOCA, {window}-cycle windows) ..."
        ));
        pipeline.profile_all(&suite_names());
        let mut tel = Telemetry::with_sink(Box::new(RingSink::new(200_000)))
            .with_window(window)
            .with_host_profiling();
        pipeline.emit_classifications(&mut tel);
        let (res, mut tel) = profiler.time("traced-run", || {
            pipeline.evaluate_with_telemetry(
                &["mcf"],
                MemSystemConfig::Heterogeneous(HeterogeneousLayout::config1()),
                PolicyKind::Moca,
                tel,
            )
        });
        traced_cycles = Some(res.runtime_cycles);
        let events = tel.drain_events();
        progress.step(&format!(
            "traced run finished: {} cycles, {} events captured",
            res.runtime_cycles,
            events.len()
        ));
        match write_chrome_trace(trace_path, &events, &tel.registry, Some(&profiler)) {
            Ok(()) => progress.step(&format!("trace written to {}", trace_path.display())),
            Err(e) => eprintln!("warning: could not write trace: {e}"),
        }
        print!("{}", tel.registry.render_summary());
        print!("{}", tel.components.render_summary());
    }

    let plan = Plan::new(declared.iter().flat_map(|(_, t)| &t.specs));
    progress.step(&format!(
        "simulations: {} declared runs, {} distinct, workers: {} ...",
        plan.declared,
        plan.queue.len(),
        plan.workers()
    ));
    let runs = profiler.time("simulations", || plan.run());
    progress.step("simulations done");
    let tables: Vec<Table> = profiler.time("tables", || {
        let mut tables = Vec::new();
        for (names, target) in declared {
            let mut rendered = target.render(&runs);
            rendered.retain(|t| names.len() == 1 || targets.contains(&t.id));
            tables.append(&mut rendered);
        }
        tables
    });
    for t in &tables {
        println!("{}", t.render());
        if let Err(e) = t.save_json(&out_dir) {
            eprintln!("warning: could not save {}.json: {e}", t.id);
        }
    }

    eprint!("{}", profiler.render_summary(traced_cycles));
    progress.step("all targets complete");
}
