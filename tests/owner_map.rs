//! The dense radix map behind the page tables and the OS's frame → owner
//! table.
//!
//! `RadixMap` is fuzzed against a `BTreeMap<u64, u64>` reference: 100k
//! seeded insert/remove/get operations over the frame range of a 2 GiB
//! machine at capacity scale 1 (524,288 frames), with keys clustered around
//! chunk boundaries, sparse keys near the top of the range and a sparse
//! tail above it, so lazily allocated chunks and the growth of the chunk
//! index are both exercised. Values are drawn below the map's 32-bit
//! absent sentinel; a wider value or the sentinel itself must panic.
//!
//! At the OS level, a Heter-Migrate machine (low-power-first placement
//! plus the migration engine) runs until pages have been both moved into
//! free fast frames and swapped with cold residents. The owner table must
//! then be exactly the inverse of the page tables. A missed owner update in
//! `Os::swap_frames` or `Os::move_page_to` breaks that and fails here.

use moca::LowPowerFirstPolicy;
use moca_common::rng::DetRng;
use moca_sim::config::{HeterogeneousLayout, MemSystemConfig, SystemConfig};
use moca_sim::migration::MigrationConfig;
use moca_sim::system::{AppLaunch, System};
use moca_vm::RadixMap;
use moca_workloads::{app_by_name, InputSet};
use std::collections::BTreeMap;

/// Frames of a 2 GiB machine (Heter config1) at capacity scale 1.
fn frames() -> u64 {
    MemSystemConfig::Heterogeneous(HeterogeneousLayout::config1())
        .frame_regions(1.0)
        .iter()
        .map(|r| r.frames)
        .sum()
}

/// A key drawn from a mix of shapes: a dense low range, offsets either side
/// of chunk boundaries, uniform over the whole frame range, a handful of
/// sparse keys near its top, and a sparse tail up to 8× above it.
fn key(rng: &mut DetRng, frames: u64) -> u64 {
    match rng.below(5) {
        0 => rng.below(2048),
        1 => {
            let boundary = 512 * rng.below(frames / 512);
            (boundary + rng.below(8)).saturating_sub(4)
        }
        2 => rng.below(frames),
        3 => frames - 1 - 512 * rng.below(4),
        _ => frames * (1 + rng.below(8)) + rng.below(4),
    }
}

fn fuzz(seed: u64, ops: usize) {
    let frames = frames();
    assert_eq!(frames, 524_288, "2 GiB of 4 KiB frames");
    let mut rng = DetRng::new(seed, 0);
    let mut map = RadixMap::new();
    let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
    for op in 0..ops {
        let k = key(&mut rng, frames);
        match rng.below(3) {
            0 => {
                // Any 32-bit value but the absent sentinel.
                let v = rng.below(u64::from(u32::MAX));
                assert_eq!(
                    map.insert(k, v),
                    reference.insert(k, v),
                    "op {op}: insert {k:#x}"
                );
            }
            1 => assert_eq!(
                map.remove(k),
                reference.remove(&k),
                "op {op}: remove {k:#x}"
            ),
            _ => assert_eq!(
                map.get(k),
                reference.get(&k).copied(),
                "op {op}: get {k:#x}"
            ),
        }
    }
    let got: Vec<(u64, u64)> = map.iter().collect();
    let want: Vec<(u64, u64)> = reference.into_iter().collect();
    assert_eq!(got, want, "iteration must ascend by key like the reference");
}

#[test]
fn radix_map_matches_btreemap() {
    fuzz(0x0A11_0C8E, 100_000);
}

#[test]
fn radix_map_seed_sweep() {
    for seed in 1..=8 {
        fuzz(seed, 10_000);
    }
}

#[test]
#[should_panic(expected = "does not fit in u32")]
fn radix_map_rejects_values_wider_than_32_bits() {
    RadixMap::new().insert(frames() - 1, 1 << 32);
}

#[test]
#[should_panic(expected = "absent sentinel")]
fn radix_map_rejects_the_absent_sentinel() {
    RadixMap::new().insert(frames() - 1, u64::from(u32::MAX));
}

#[test]
fn owner_table_inverts_page_tables_after_migration() {
    // Small fast modules (128 frames each at the default 1/64 scale) and
    // short, permissive epochs, so the fast tiers fill within a short run
    // and later promotions must swap frames with cold residents.
    let layout = HeterogeneousLayout {
        rldram_mb: 8,
        hbm_mb: 8,
        lpddr_mb_each: 1016,
    };
    let cfg = SystemConfig::quad_core(MemSystemConfig::Heterogeneous(layout));
    let launches = ["mcf", "disparity", "lbm", "sift"]
        .iter()
        .map(|n| AppLaunch::untyped(app_by_name(n), InputSet::reference()))
        .collect();
    let mut sys = System::new(cfg, launches, Box::new(LowPowerFirstPolicy));
    sys.attach_migration(MigrationConfig {
        epoch_cycles: 5_000,
        max_moves_per_epoch: 64,
        heat_threshold: 2,
        ..MigrationConfig::default()
    });
    sys.run(30_000);
    let stats = sys.migration_stats().expect("migration attached");
    assert!(stats.promotions > 0, "no page was promoted: {stats:?}");
    assert!(stats.demotions > 0, "no frame swap happened: {stats:?}");

    let os = sys.os();
    os.check_invariants().unwrap();
    // The same property from the public queries alone: every mapping is
    // its frame's owner, and every owned frame is mapped by its owner.
    let mut mapped = 0;
    for app in 0..4 {
        for (vpn, pfn) in os.page_table(app).iter() {
            assert_eq!(os.owner_of(pfn), Some((app, vpn)), "frame {pfn:#x}");
            mapped += 1;
        }
    }
    let mut owned = 0;
    for pfn in 0..os.frames().total_frames() {
        if let Some((app, vpn)) = os.owner_of(pfn) {
            assert_eq!(
                os.page_table(app).translate_vpn(vpn),
                Some(pfn),
                "frame {pfn:#x}"
            );
            assert!(
                os.frames().is_allocated(pfn),
                "owned frame {pfn:#x} is free"
            );
            owned += 1;
        }
    }
    assert_eq!(owned, mapped, "owner entries and mappings must pair up");
}
