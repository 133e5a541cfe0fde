//! Observability integration tests: telemetry must not perturb the
//! simulation, windowed metrics must be captured, and the exported trace
//! must be valid Chrome-trace JSON.

use moca::pipeline::{Pipeline, PolicyKind};
use moca_sim::config::{HeterogeneousLayout, MemSystemConfig};
use moca_telemetry::{write_chrome_trace, RingSink, Telemetry};
use serde_json::Value;
use std::path::PathBuf;

fn heter() -> MemSystemConfig {
    MemSystemConfig::Heterogeneous(HeterogeneousLayout::config1())
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("moca-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Key determinism guarantee: a run with full telemetry produces
/// bit-identical simulation results to a run with telemetry disabled.
#[test]
fn telemetry_on_and_off_give_bit_identical_results() {
    let fingerprint = |tel: Telemetry| {
        let mut p = Pipeline::quick();
        let (r, tel) = p.evaluate_with_telemetry(&["mcf"], heter(), PolicyKind::Moca, tel);
        (
            (
                r.runtime_cycles,
                r.mem.reads,
                r.mem.total_read_latency_cycles,
                r.per_core[0].stats.committed,
                r.placement.total_pages(),
            ),
            tel,
        )
    };
    let (off, _) = fingerprint(Telemetry::disabled());
    let (on, tel) = fingerprint(
        Telemetry::with_sink(Box::new(RingSink::new(100_000)))
            .with_window(10_000)
            .with_host_profiling(),
    );
    assert_eq!(off, on, "telemetry must not perturb the simulation");
    assert!(tel.events_recorded() > 0, "instrumented run saw no events");
}

/// The traced run records the event kinds the instrumentation promises:
/// page faults and placements always happen, windows get sampled, and the
/// DRAM read-latency histogram fills.
#[test]
fn instrumented_run_captures_events_windows_and_histograms() {
    let mut p = Pipeline::quick();
    let tel = Telemetry::with_sink(Box::new(RingSink::new(100_000))).with_window(10_000);
    let (r, mut tel) = p.evaluate_with_telemetry(&["mcf"], heter(), PolicyKind::Moca, tel);
    assert!(r.runtime_cycles > 0);

    let faults = tel.registry.counter_value_by_name("events.page_fault");
    let placements = tel.registry.counter_value_by_name("events.placement");
    assert!(faults.unwrap_or(0) > 0, "no page-fault events counted");
    assert!(placements.unwrap_or(0) > 0, "no placement events counted");
    assert_eq!(
        faults, placements,
        "every page fault must be resolved by exactly one placement"
    );

    assert!(
        !tel.registry.windows().is_empty(),
        "a {}-cycle run should close at least one 10k-cycle window",
        r.runtime_cycles
    );
    let w = &tel.registry.windows()[0];
    assert!(w.end > w.start);
    assert!(
        w.samples.iter().any(|(k, _)| k == "ipc.core0"),
        "window samples must include per-core IPC"
    );
    assert!(
        w.samples.iter().any(|(k, _)| k.starts_with("free_frames.")),
        "window samples must include frame-pool headroom"
    );
    assert!(
        w.samples.iter().any(|(k, _)| k.starts_with("bank_act.ch")),
        "window samples must include per-bank occupancy tracks"
    );
    // One track per bank of every channel: config1 is RLDRAM(16) + HBM(64)
    // + 2x LPDDR2(8) banks.
    let bank_tracks = w
        .samples
        .iter()
        .filter(|(k, _)| k.starts_with("bank_act."))
        .count();
    assert_eq!(bank_tracks, 16 + 64 + 8 + 8, "one track per bank");
    // Activates happen somewhere in a real run's first window.
    assert!(
        tel.registry
            .windows()
            .iter()
            .flat_map(|w| w.samples.iter())
            .any(|(k, v)| k.starts_with("bank_act.") && *v > 0.0),
        "some bank must record activates"
    );

    let h = tel
        .registry
        .histogram_by_name("dram.read_latency_cycles")
        .expect("read-latency histogram registered");
    assert!(h.count() > 0, "no read latencies observed");
    assert!(h.mean().unwrap() > 0.0);
    assert!(h.quantile(0.5).unwrap() <= h.quantile(0.99).unwrap());

    let events = tel.drain_events();
    assert!(!events.is_empty());
    assert!(
        events.windows(2).all(|p| p[0].at <= p[1].at),
        "drained events must be cycle-ordered"
    );
}

/// The exported file is valid Chrome-trace JSON: a `traceEvents` array where
/// every element carries `name`/`ph`/`pid`, with the phases we emit.
#[test]
fn exported_trace_is_valid_chrome_trace_json() {
    let mut p = Pipeline::quick();
    p.classified("mcf"); // profile + classify so verdicts exist before the run
    let mut tel = Telemetry::with_sink(Box::new(RingSink::new(100_000))).with_window(10_000);
    p.emit_classifications(&mut tel);
    let (_, mut tel) = p.evaluate_with_telemetry(&["mcf"], heter(), PolicyKind::Moca, tel);

    let path = scratch("trace.json");
    write_chrome_trace(&path, &tel.drain_events(), &tel.registry, None).unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    let root = serde_json::parse(&text).expect("trace must be parseable JSON");
    assert_eq!(
        root.get("displayTimeUnit").and_then(Value::as_str),
        Some("ns")
    );
    let events = root
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert!(events.len() > 10, "trace should not be trivially empty");

    let mut seen_instant = false;
    let mut seen_counter = false;
    for ev in events {
        assert!(ev.get("name").and_then(Value::as_str).is_some());
        assert!(ev.get("pid").is_some());
        let ph = ev.get("ph").and_then(Value::as_str).unwrap();
        assert!(
            matches!(ph, "M" | "i" | "C" | "X"),
            "unexpected phase {ph:?}"
        );
        match ph {
            "i" => {
                seen_instant = true;
                assert!(ev.get("ts").is_some(), "instant events need a timestamp");
            }
            "C" => seen_counter = true,
            _ => {}
        }
    }
    assert!(seen_instant, "trace must contain instant (event) entries");
    assert!(seen_counter, "trace must contain counter entries");
    assert!(
        events.iter().any(|ev| {
            ev.get("ph").and_then(Value::as_str) == Some("C")
                && ev
                    .get("name")
                    .and_then(Value::as_str)
                    .is_some_and(|n| n.starts_with("bank_act.ch"))
        }),
        "trace must contain per-bank occupancy counter tracks"
    );

    // Classification verdicts from the pre-run emit land at cycle 0.
    assert!(events
        .iter()
        .any(|ev| { ev.get("name").and_then(Value::as_str) == Some("classification_verdict") }));
}

/// The step loop's work counts (`engine.*` registry counters) for one
/// single-core DDR3 mcf run. They are deterministic, so they are pinned:
/// a change to how much host work the engine does per simulated cycle
/// shows up here. `engine.steps_reference` counts the cycles the loop
/// would step without exact DRAM wakes (every cycle while a channel holds
/// a request outside a refresh window); executing fewer is the point.
/// `engine.core_ticks` counts the core ticks that ran past the wake gate.
#[test]
fn engine_work_counts_are_pinned_for_single_core_mcf() {
    use moca_common::ModuleKind;
    use moca_sim::config::SystemConfig;
    use moca_sim::system::{AppLaunch, System};
    use moca_telemetry::NullSink;
    use moca_vm::policy::HomogeneousPolicy;
    use moca_workloads::{app_by_name, InputSet};

    let cfg = SystemConfig::single_core(MemSystemConfig::Homogeneous(ModuleKind::Ddr3));
    let launch = AppLaunch::untyped(app_by_name("mcf"), InputSet::reference());
    let tel = Telemetry::with_sink(Box::new(NullSink));
    let mut sys = System::new_with_telemetry(cfg, vec![launch], Box::new(HomogeneousPolicy), tel);
    sys.run_warmed(5_000, 20_000);
    let tel = sys.take_telemetry();
    let count = |name: &str| {
        tel.registry
            .counter_value_by_name(name)
            .unwrap_or_else(|| panic!("{name} not recorded"))
    };
    let got = [
        count("engine.steps_executed"),
        count("engine.steps_reference"),
        count("engine.skips"),
        count("engine.skipped_cycles"),
        count("engine.channel_ticks"),
        count("engine.core_ticks"),
    ];
    let [executed, reference, skips, skipped, _, core_ticks] = got;
    assert!(
        executed < reference,
        "{executed} steps executed, {reference} in the reference loop"
    );
    assert!(
        skips <= skipped && reference <= executed + skipped,
        "{got:?}"
    );
    // One core: at most one tick per executed step.
    assert!(core_ticks <= executed, "{got:?}");
    assert_eq!(
        got,
        [14_274, 18_491, 2_727, 27_234, 5_459, 13_152],
        "[executed, reference, skips, skipped cycles, channel ticks, core ticks]"
    );
}
