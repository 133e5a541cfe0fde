//! Startup prefault order of multi-app machines.
//!
//! `System::new` allocates every page of every object at instantiation
//! (§IV-E) and interleaves the apps 32 pages at a time. It walks each app's
//! code, stack and object vpn ranges without listing their pages. The
//! reference here does list them, page by page, and interleaves the lists
//! the same way, replaying the placement policy on a fresh frame space to
//! get each page's frame. The cycle-0 `Placement` events a `RingSink`
//! captures must be that sequence of `(app, vpn, pfn)`, on 3L1B at capacity
//! scales 1/64 and 1 and on the 16-tenant colocation list.

use moca::{LowPowerFirstPolicy, MocaPolicy};
use moca_common::{AppId, ObjectClass, VirtAddr, PAGE_SIZE};
use moca_sim::config::{HeterogeneousLayout, MemSystemConfig, SystemConfig};
use moca_sim::system::{AppLaunch, System};
use moca_telemetry::{Event, RingSink, Telemetry};
use moca_vm::layout::CODE_BASE;
use moca_vm::{FrameSpace, HeapLayout, PageIntent, PagePlacementPolicy};
use moca_workloads::gen::scaled_sizes;
use moca_workloads::{app_by_name, multiprogram_sets, InputSet};
use std::collections::BTreeSet;

/// The dense-colocation tenant list of the benchmark's `colo16-compute`.
const COLO16_APPS: [&str; 16] = [
    "mcf", "mser", "gcc", "sift", "stitch", "gcc", "sift", "stitch", "gcc", "sift", "stitch",
    "gcc", "sift", "stitch", "gcc", "sift",
];

/// Pages allocated per app per round of the startup interleave.
const CHUNK: usize = 32;

type Placed = (u32, u64, u64);

fn launches(apps: &[&str], typed: bool) -> Vec<AppLaunch> {
    apps.iter()
        .enumerate()
        .map(|(i, &name)| {
            let spec = app_by_name(name);
            let mut launch = AppLaunch::untyped(spec, InputSet::reference());
            if typed {
                // Spread each app's objects over all three heap partitions.
                let classes = [
                    ObjectClass::LatencySensitive,
                    ObjectClass::BandwidthSensitive,
                    ObjectClass::NonIntensive,
                ];
                for (oi, class) in launch.object_classes.iter_mut().enumerate() {
                    *class = classes[(i + oi) % 3];
                }
            }
            launch
        })
        .collect()
}

/// One app's instantiation order, page by page: code, stack, then each
/// object in spec order.
fn page_list(launch: &AppLaunch, scale: f64) -> Vec<VirtAddr> {
    let mut layout = HeapLayout::new();
    let sizes = scaled_sizes(&launch.spec, launch.input, scale);
    let bases: Vec<VirtAddr> = sizes
        .iter()
        .zip(&launch.object_classes)
        .map(|(&sz, &class)| layout.alloc_heap(class, sz))
        .collect();
    let stack_bytes = launch.spec.stack_working_set.max(16 * 1024);
    let stack_base = layout.grow_stack(stack_bytes);
    let mut pages = Vec::new();
    let mut push = |base: VirtAddr, bytes: u64| {
        for vpn in base.vpn()..=VirtAddr(base.0 + bytes.max(1) - 1).vpn() {
            pages.push(VirtAddr(vpn * PAGE_SIZE));
        }
    };
    push(VirtAddr(CODE_BASE), launch.spec.code_bytes);
    push(stack_base, stack_bytes);
    for (&base, &sz) in bases.iter().zip(&sizes) {
        push(base, sz);
    }
    pages
}

/// The reference placement sequence: the per-app page lists interleaved
/// `CHUNK` pages at a time, each page not yet mapped placed by `policy`.
fn reference(
    cfg: &SystemConfig,
    launches: &[AppLaunch],
    mut policy: Box<dyn PagePlacementPolicy>,
) -> Vec<Placed> {
    let lists: Vec<Vec<VirtAddr>> = launches
        .iter()
        .map(|l| page_list(l, cfg.capacity_scale))
        .collect();
    let mut frames = FrameSpace::new(cfg.mem.frame_regions(cfg.capacity_scale));
    let mut mapped: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); lists.len()];
    let mut out = Vec::new();
    for round in 0.. {
        let start = round * CHUNK;
        if lists.iter().all(|l| l.len() <= start) {
            break;
        }
        for (app, list) in lists.iter().enumerate() {
            for &va in list.iter().skip(start).take(CHUNK) {
                if mapped[app].insert(va.vpn()) {
                    let id = AppId(app as u32);
                    let pfn = policy
                        .place(id, PageIntent::of_va(va), &mut frames)
                        .expect("reference machine out of frames");
                    out.push((id.0, va.vpn(), pfn));
                }
            }
        }
    }
    out
}

/// Build the machine with a ring sink and return its cycle-0 placements.
fn streamed(
    cfg: &SystemConfig,
    launches: Vec<AppLaunch>,
    policy: Box<dyn PagePlacementPolicy>,
) -> Vec<Placed> {
    // At most a fault, a placement and a fallback event per frame.
    let frames: u64 = cfg
        .mem
        .frame_regions(cfg.capacity_scale)
        .iter()
        .map(|r| r.frames)
        .sum();
    let ring = RingSink::new(3 * frames as usize);
    let tel = Telemetry::with_sink(Box::new(ring));
    let mut sys = System::new_with_telemetry(cfg.clone(), launches, policy, tel);
    sys.take_telemetry()
        .drain_events()
        .into_iter()
        .filter(|e| e.at == 0)
        .filter_map(|e| match e.event {
            Event::Placement { app, vpn, pfn, .. } => Some((app, vpn, pfn)),
            _ => None,
        })
        .collect()
}

fn check(apps: &[&str], scale: f64, typed: bool, policy: fn() -> Box<dyn PagePlacementPolicy>) {
    let cfg = SystemConfig {
        capacity_scale: scale,
        ..SystemConfig::multi_core(
            apps.len(),
            MemSystemConfig::Heterogeneous(HeterogeneousLayout::config1()),
        )
    };
    let want = reference(&cfg, &launches(apps, typed), policy());
    let got = streamed(&cfg, launches(apps, typed), policy());
    assert!(!want.is_empty());
    assert_eq!(got.len(), want.len(), "placements at cycle 0");
    if let Some(i) = (0..want.len()).find(|&i| got[i] != want[i]) {
        panic!(
            "placement {i} of {}: got {:?}, reference {:?}",
            want.len(),
            got[i],
            want[i]
        );
    }
}

fn set_3l1b() -> Vec<&'static str> {
    multiprogram_sets()
        .into_iter()
        .find(|s| s.name == "3L1B")
        .expect("3L1B set")
        .apps
        .to_vec()
}

#[test]
fn three_l_one_b_at_default_scale_prefaults_in_reference_order() {
    let scale = moca_workloads::spec::DEFAULT_FOOTPRINT_SCALE;
    check(&set_3l1b(), scale, false, || Box::new(LowPowerFirstPolicy));
}

#[test]
fn three_l_one_b_at_scale_1_prefaults_in_reference_order() {
    check(&set_3l1b(), 1.0, false, || Box::new(LowPowerFirstPolicy));
}

#[test]
fn colo16_typed_heaps_prefault_in_reference_order() {
    let scale = moca_workloads::spec::DEFAULT_FOOTPRINT_SCALE;
    check(&COLO16_APPS, scale, true, || Box::new(MocaPolicy));
}
