//! The run-coded radix map behind the page tables, and the frame owners
//! the OS derives from them.
//!
//! `RadixMap` is fuzzed against a `BTreeMap<u64, u64>` reference: 100k
//! seeded insert/remove/get operations over the frame range of a 2 GiB
//! machine at capacity scale 1 (524,288 frames), with keys clustered around
//! chunk boundaries, sparse keys near the top of the range and a sparse
//! tail above it, so lazily allocated chunks and the growth of the chunk
//! index are both exercised. Values are drawn below the map's 32-bit
//! absent sentinel; a wider value or the sentinel itself must panic.
//! Random values make every key its own run, so that fuzz mostly drives
//! chunks into their dense form.
//!
//! A second fuzz sends the map the OS's own traffic: frames handed out in
//! 32-page round-robin batches of consecutive vpns (`System::new`'s
//! prefault), so chunks hold long affine runs; then single-frame remaps
//! and removals inside those runs (`Os::swap_frames`, `Os::move_page_to`),
//! inserts that restore a removed value and re-join the split run, and
//! finally bursts of random values into a few chunks, enough to force
//! their switch to the dense form. After every operation the touched key
//! and its two neighbours must read as in the reference; at the end
//! iteration must match it in both directions, and the reverse query
//! `RadixMap::key_of` must find the lowest key holding each of a sample of
//! values, and nothing for absent ones.
//!
//! At the OS level, a Heter-Migrate machine (low-power-first placement
//! plus the migration engine) runs until pages have been both moved into
//! free fast frames and swapped with cold residents. The page tables must
//! then map the allocated frames one to one, and `Os::owner_of`, a reverse
//! scan of the page tables, must invert them. A frame left allocated, freed
//! while mapped or mapped twice by `Os::swap_frames` or
//! `Os::move_page_to` fails here.

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
    let want: Vec<(u64, u64)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(got, want, "iteration must ascend by key like the reference");
    let got: Vec<(u64, u64)> = map.iter().rev().collect();
    let want: Vec<(u64, u64)> = reference.iter().rev().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(got, want, "reversed iteration must descend by key");
    check_key_of(&map, &reference, &mut rng);
}

/// `key_of` against the reference for about 256 stored values spread over
/// the map, and for values no key holds.
fn check_key_of(map: &RadixMap, reference: &BTreeMap<u64, u64>, rng: &mut DetRng) {
    let step = reference.len() / 256 + 1;
    let lowest_key = |v: u64| reference.iter().find(|&(_, &x)| x == v).map(|(&k, _)| k);
    for (_, &v) in reference.iter().step_by(step) {
        assert_eq!(map.key_of(v), lowest_key(v), "key_of({v:#x})");
    }
    for _ in 0..64 {
        let v = rng.below(u64::from(u32::MAX));
        assert_eq!(map.key_of(v), lowest_key(v), "key_of({v:#x})");
    }
}

/// Compare the map with the reference at `k` and both its neighbours.
fn check_around(map: &RadixMap, reference: &BTreeMap<u64, u64>, k: u64, op: &str) {
    for key in [k.saturating_sub(1), k, k + 1] {
        assert_eq!(
            map.get(key),
            reference.get(&key).copied(),
            "{op}: get {key:#x}"
        );
    }
}

fn affine_fuzz(seed: u64, ops: usize) {
    let mut rng = DetRng::new(seed, 1);
    let mut map = RadixMap::new();
    let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
    // Prefault: four apps take turns mapping up to 32 consecutive vpns of
    // their own onto the next free frames; a short batch ends a segment.
    let mut vpn = [0u64, 1 << 24, 2 << 24, 3 << 24];
    let mut pfn = 0u64;
    while pfn < 60_000 {
        for next in &mut vpn {
            let batch = if rng.below(4) == 0 {
                1 + rng.below(32)
            } else {
                32
            };
            for _ in 0..batch {
                assert_eq!(map.insert(pfn, *next), None);
                reference.insert(pfn, *next);
                check_around(&map, &reference, pfn, "prefault");
                pfn += 1;
                *next += 1;
            }
            // A segment boundary: the app's next vpns lie elsewhere.
            if batch < 32 {
                *next += 1 + rng.below(1000);
            }
        }
    }
    let prefaulted = reference.clone();
    for op in 0..ops {
        let k = rng.below(pfn + 64);
        match rng.below(8) {
            // Swap: the frame now backs another page.
            0 | 1 => {
                let v = rng.below(4 << 24);
                assert_eq!(map.insert(k, v), reference.insert(k, v), "op {op}");
            }
            // Move away: the frame is freed.
            2 | 3 => assert_eq!(map.remove(k), reference.remove(&k), "op {op}"),
            // Restore the prefault's value, re-joining a split run.
            4 | 5 => {
                if let Some(&v) = prefaulted.get(&k) {
                    assert_eq!(map.insert(k, v), reference.insert(k, v), "op {op}");
                }
            }
            // Continue the run ending just below `k`.
            6 => {
                if let Some(&v) = reference.get(&k.wrapping_sub(1)) {
                    assert_eq!(map.insert(k, v + 1), reference.insert(k, v + 1), "op {op}");
                }
            }
            // Scatter random values over one chunk, past its run bound.
            _ if op % 64 == 0 => {
                let base = k / 512 * 512;
                for _ in 0..200 {
                    let key = base + rng.below(512);
                    let v = rng.below(u64::from(u32::MAX));
                    assert_eq!(map.insert(key, v), reference.insert(key, v));
                    check_around(&map, &reference, key, "scatter");
                }
            }
            _ => {}
        }
        check_around(&map, &reference, k, &format!("op {op}"));
    }
    let got: Vec<(u64, u64)> = map.iter().collect();
    let want: Vec<(u64, u64)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(got, want, "iteration must ascend by key like the reference");
    let got: Vec<(u64, u64)> = map.iter().rev().collect();
    let want: Vec<(u64, u64)> = reference.iter().rev().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(got, want, "reversed iteration must descend by key");
    check_key_of(&map, &reference, &mut rng);
}

#[test]
fn radix_map_matches_btreemap_on_affine_traffic() {
    affine_fuzz(0x00AF_F19E, 50_000);
}

#[test]
fn radix_map_affine_seed_sweep() {
    for seed in 1..=6 {
        affine_fuzz(seed, 5_000);
    }
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
