//! The run plan behind `repro`: a spec names its run exactly, the plan
//! simulates each distinct spec once, and a planned result is the result of
//! a direct evaluation. Tiny run lengths keep each simulation short.

use moca::pipeline::{Pipeline, Placement, PolicyKind, RunSpec};
use moca::policy::ConfigurableMocaPolicy;
use moca_bench::Plan;
use moca_common::{ModuleKind, ObjectClass};
use moca_sim::config::{HeterogeneousLayout, MemSystemConfig};
use moca_sim::metrics::RunResult;
use moca_telemetry::Telemetry;
use std::collections::BTreeSet;

fn tiny() -> Pipeline {
    let mut p = Pipeline::quick();
    p.profile_cfg.warmup_instrs = 20_000;
    p.profile_cfg.measure_instrs = 40_000;
    p.eval_warmup = 10_000;
    p.eval_instrs = 20_000;
    p
}

fn heter1() -> MemSystemConfig {
    MemSystemConfig::Heterogeneous(HeterogeneousLayout::config1())
}

fn json(r: &RunResult) -> String {
    serde_json::to_string(r).expect("serializable")
}

#[test]
fn plan_runs_each_distinct_spec_once_and_matches_direct_evaluation() {
    let mut p = tiny();
    let ddr3 = MemSystemConfig::Homogeneous(ModuleKind::Ddr3);
    let inputs: [(&[&str], MemSystemConfig, PolicyKind); 3] = [
        (&["mcf"], ddr3, PolicyKind::Homogeneous),
        (&["gcc"], heter1(), PolicyKind::Moca),
        (&["mcf", "lbm"], heter1(), PolicyKind::HeterApp),
    ];
    let specs: Vec<RunSpec> = inputs
        .iter()
        .map(|&(apps, mem, policy)| p.resolve(apps, mem, policy))
        .collect();
    // Every spec declared twice, the repeats interleaved.
    let declared: Vec<&RunSpec> = specs.iter().chain(specs.iter().rev()).collect();
    let plan = Plan::new(declared);
    assert_eq!((plan.declared, plan.queue.len()), (6, 3));
    let runs = plan.run();
    assert_eq!(runs.len(), 3);
    for (spec, (apps, mem, policy)) in specs.iter().zip(inputs) {
        let direct = p.evaluate(apps, mem, policy);
        assert_eq!(json(&runs[spec]), json(&direct), "{apps:?} on {mem:?}");
    }
}

#[test]
fn plan_queue_runs_longest_first() {
    let mut p = tiny();
    let one = p.resolve(&["mcf"], heter1(), PolicyKind::Moca);
    let four = p.resolve(
        &["mcf", "milc", "disparity", "lbm"],
        heter1(),
        PolicyKind::Moca,
    );
    let plan = Plan::new([&one, &four, &one]);
    assert_eq!((plan.declared, plan.queue), (3, vec![four, one]));
}

#[test]
fn changing_any_one_field_changes_the_key() {
    let mut p = tiny();
    let base = p.resolve(&["mcf", "lbm"], heter1(), PolicyKind::Moca);
    // Destructured so that a new field fails to compile here until it is
    // varied below.
    let RunSpec {
        mem,
        apps,
        object_classes,
        app_classes,
        placement,
        capacity_scale_bits,
        warmup,
        instrs,
    } = base.clone();
    let mut object_classes_flipped = object_classes.clone();
    object_classes_flipped[0][0] = match object_classes[0][0] {
        ObjectClass::LatencySensitive => ObjectClass::NonIntensive,
        _ => ObjectClass::LatencySensitive,
    };
    let variants = [
        RunSpec {
            mem: MemSystemConfig::Heterogeneous(HeterogeneousLayout::config2()),
            ..base.clone()
        },
        RunSpec {
            mem: MemSystemConfig::Homogeneous(ModuleKind::Ddr3),
            ..base.clone()
        },
        RunSpec {
            apps: vec![apps[1].clone(), apps[0].clone()],
            ..base.clone()
        },
        RunSpec {
            object_classes: object_classes_flipped,
            ..base.clone()
        },
        RunSpec {
            app_classes: vec![ObjectClass::LatencySensitive; 2],
            ..base.clone()
        },
        RunSpec {
            placement: Placement::Kind(PolicyKind::HeterApp),
            ..base.clone()
        },
        RunSpec {
            placement: Placement::Custom(ConfigurableMocaPolicy {
                segment_class: ObjectClass::BandwidthSensitive,
                ..ConfigurableMocaPolicy::default()
            }),
            ..base.clone()
        },
        RunSpec {
            capacity_scale_bits: (f64::from_bits(capacity_scale_bits) / 2.0).to_bits(),
            ..base.clone()
        },
        RunSpec {
            warmup: warmup + 1,
            ..base.clone()
        },
        RunSpec {
            instrs: instrs + 1,
            ..base.clone()
        },
    ];
    assert_eq!(
        (mem, app_classes.len(), placement),
        (heter1(), 0, Placement::Kind(PolicyKind::Moca))
    );
    for v in &variants {
        assert_ne!(v, &base, "{v:?}");
        assert_ne!(v.cmp(&base), std::cmp::Ordering::Equal, "{v:?}");
    }
    let keys: BTreeSet<&RunSpec> = variants.iter().chain([&base]).collect();
    assert_eq!(keys.len(), variants.len() + 1);
}

#[test]
fn paper_ordered_configurable_policy_is_moca() {
    // The ablations' paper-order variants resolve to the MOCA run of the
    // same set; this pins that the two policies place every page alike.
    let mut p = tiny();
    let apps = ["mcf", "milc", "disparity", "lbm"]; // 3L1B
    let moca = p.resolve(&apps, heter1(), PolicyKind::Moca);
    assert_eq!(
        p.resolve(
            &apps,
            heter1(),
            Placement::Custom(ConfigurableMocaPolicy::default())
        ),
        moca
    );
    let custom = RunSpec {
        placement: Placement::Custom(ConfigurableMocaPolicy::default()),
        ..moca.clone()
    };
    let a = moca.evaluate(Telemetry::disabled(), false).0;
    let mut b = custom.evaluate(Telemetry::disabled(), false).0;
    assert_eq!(
        (a.policy.as_str(), b.policy.as_str()),
        ("MOCA", "MOCA-custom")
    );
    b.policy = a.policy.clone();
    assert_eq!(json(&a), json(&b));
}
