//! Property-based tests on the hardware substrates: DRAM channel timing
//! invariants and cache coherence-of-contents invariants.

use moca_cache::{CacheConfig, SetAssocCache};
use moca_common::ids::MemTag;
use moca_common::{AccessKind, CoreId, LineAddr, ObjectId, PhysAddr, Segment};
use moca_dram::{AddressMapper, Channel, ChannelConfig, DeviceTiming};
use moca_sim::hierarchy::CoreHierarchy;
use proptest::prelude::*;

fn device_strategy() -> impl Strategy<Value = DeviceTiming> {
    prop_oneof![
        Just(DeviceTiming::ddr3()),
        Just(DeviceTiming::hbm()),
        Just(DeviceTiming::rldram3()),
        Just(DeviceTiming::lpddr2()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every read enqueued completes exactly once, latency decomposition is
    /// exact (finish = arrival + queue + service), and service is at least
    /// the data-burst time.
    #[test]
    fn channel_completes_every_read_exactly_once(
        timing in device_strategy(),
        offsets in prop::collection::vec(0u64..(4 << 20), 1..24),
        writes in prop::collection::vec(any::<bool>(), 1..24),
    ) {
        let transfer = timing.line_transfer_cycles();
        let mut ch = Channel::new(ChannelConfig::new(timing, 16 << 20));
        let mut expected_reads = std::collections::HashMap::new();
        let mut now = 0u64;
        let mut out = Vec::new();
        let n = offsets.len().min(writes.len());
        for i in 0..n {
            // Respect queue capacity; tick until there is room.
            let kind = if writes[i] { AccessKind::Write } else { AccessKind::Read };
            while !ch.can_accept(kind) {
                now += 1;
                out.clear();
                ch.tick(now, &mut out);
                for c in &out {
                    prop_assert!(expected_reads.remove(&c.token).is_some());
                }
                prop_assert!(now < 1_000_000);
            }
            let local = offsets[i] & !63;
            let token = i as u64 + 1;
            ch.enqueue(now, moca_dram::MemRequest {
                token,
                line: LineAddr(local / 64),
                local_off: local,
                kind,
                core: CoreId(0),
                tag: MemTag::segment(Segment::Data),
            });
            if kind == AccessKind::Read {
                expected_reads.insert(token, now);
            }
        }
        while !ch.is_idle() {
            now += 1;
            out.clear();
            ch.tick(now, &mut out);
            for c in &out {
                let arrival = expected_reads.remove(&c.token);
                prop_assert!(arrival.is_some(), "token {} completed twice or never sent", c.token);
                prop_assert_eq!(c.finish, arrival.unwrap() + c.queue_cycles + c.service_cycles,
                    "latency decomposition broken");
                prop_assert!(c.service_cycles >= transfer);
                prop_assert!(c.finish <= now);
            }
            prop_assert!(now < 2_000_000, "channel did not drain");
        }
        prop_assert!(expected_reads.is_empty(), "lost reads: {:?}", expected_reads.keys());
    }

    /// Row hits never happen on devices with sub-line row buffers, and the
    /// data bus never does more transfers than requests.
    #[test]
    fn channel_stats_are_sane(
        timing in device_strategy(),
        offsets in prop::collection::vec(0u64..(1 << 20), 1..32),
    ) {
        let supports_hits = timing.supports_row_hits();
        let subs = timing.subaccesses_per_line() as u64;
        let mut ch = Channel::new(ChannelConfig::new(timing, 4 << 20));
        let mut now = 0;
        let mut out = Vec::new();
        for (i, off) in offsets.iter().enumerate() {
            while !ch.can_accept(AccessKind::Read) {
                now += 1;
                out.clear();
                ch.tick(now, &mut out);
            }
            let local = off & !63;
            ch.enqueue(now, moca_dram::MemRequest {
                token: i as u64,
                line: LineAddr(local / 64),
                local_off: local,
                kind: AccessKind::Read,
                core: CoreId(0),
                tag: MemTag::segment(Segment::Data),
            });
        }
        while !ch.is_idle() {
            now += 1;
            out.clear();
            ch.tick(now, &mut out);
            assert!(now < 2_000_000);
        }
        let s = *ch.stats();
        prop_assert_eq!(s.reads, offsets.len() as u64);
        if !supports_hits {
            prop_assert_eq!(s.row_hits, 0, "sub-line device cannot row-hit");
        }
        prop_assert!(s.row_hits <= s.reads + s.writes);
        prop_assert!(s.activates >= (s.reads - s.row_hits) * subs.min(1));
        prop_assert!(s.busy_cycles <= now);
    }

    /// Cache contents behave like a bounded set with LRU: a line filled and
    /// immediately probed hits; occupancy never exceeds capacity; a line
    /// reported evicted really is gone.
    #[test]
    fn cache_contents_model(ops in prop::collection::vec((0u64..256, any::<bool>()), 1..400)) {
        // 8 sets × 2 ways.
        let cfg = CacheConfig { name: "prop", size_bytes: 1024, ways: 2, hit_latency: 1, mshrs: 4 };
        let capacity = (cfg.sets() * cfg.ways as u64) as usize;
        let mut cache = SetAssocCache::new(cfg);
        let mut resident = std::collections::HashSet::new();
        for (line, write) in ops {
            let line = LineAddr(line);
            let hit = cache.access(line, write);
            prop_assert_eq!(hit, resident.contains(&line), "hit/miss mismatch vs model");
            if !hit {
                if let Some(v) = cache.fill(line, write) {
                    prop_assert!(resident.remove(&v.line), "evicted a non-resident line");
                    prop_assert!(!cache.contains(v.line));
                }
                resident.insert(line);
            }
            prop_assert!(cache.contains(line));
            prop_assert!(resident.len() <= capacity);
            prop_assert_eq!(cache.resident_lines(), resident.len());
        }
    }

    /// Writebacks: a dirty line evicted from a cache that received a
    /// writeback is reported dirty.
    #[test]
    fn dirty_state_tracks_writes(lines in prop::collection::vec(0u64..64, 1..100)) {
        let cfg = CacheConfig { name: "prop", size_bytes: 512, ways: 2, hit_latency: 1, mshrs: 4 };
        let mut cache = SetAssocCache::new(cfg);
        let mut dirty = std::collections::HashSet::new();
        for line in lines {
            let line = LineAddr(line);
            if !cache.access(line, true) {
                if let Some(v) = cache.fill(line, true) {
                    prop_assert_eq!(v.dirty, dirty.contains(&v.line));
                    dirty.remove(&v.line);
                }
            }
            dirty.insert(line);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Full hierarchy over a live channel: random loads/stores/ifetches all
    /// drain, the hierarchy returns to idle, and the inclusion property
    /// holds throughout — every line resident in an L1 is also in the L2.
    #[test]
    fn hierarchy_maintains_inclusion(
        ops in prop::collection::vec((0u64..2048, 0u8..3), 1..250),
    ) {
        let mut hier = CoreHierarchy::new();
        let mut channels = vec![Channel::new(ChannelConfig::new(
            DeviceTiming::ddr3(),
            16 << 20,
        ))];
        let mapper = AddressMapper::ranged(&[16 << 20]);
        let mut tickets = 0u64;
        let mut now = 0u64;
        let mut out = Vec::new();
        let mut woken = Vec::new();
        let mut expected_wakeups = 0u64;
        let mut wakeups = 0u64;
        let tag = MemTag::heap(ObjectId(0));

        let mut step = |hier: &mut CoreHierarchy,
                        channels: &mut Vec<Channel>,
                        now: &mut u64,
                        wakeups: &mut u64| {
            *now += 1;
            out.clear();
            for ch in channels.iter_mut() {
                ch.tick(*now, &mut out);
            }
            for c in &out {
                woken.clear();
                hier.on_completion(*now, c, channels, &mapper, &mut woken);
                *wakeups += woken.len() as u64;
            }
            hier.flush_deferred(*now, channels, &mapper);
        };

        for (line, op) in ops {
            step(&mut hier, &mut channels, &mut now, &mut wakeups);
            let pa = PhysAddr(line * 64);
            match op {
                0 => {
                    match hier.load(now, CoreId(0), pa, tag, 0, &mut channels, &mapper, &mut tickets) {
                        moca_cpu::MemReply::Pending { .. } => expected_wakeups += 1,
                        moca_cpu::MemReply::Done { .. } => {}
                        moca_cpu::MemReply::Retry { .. } => {} // dropped: fine for this test
                    }
                }
                1 => {
                    hier.store(now, CoreId(0), pa, tag, &mut channels, &mapper, &mut tickets);
                }
                _ => {
                    if let moca_cpu::MemReply::Pending { .. } =
                        hier.ifetch(now, CoreId(0), pa, &mut channels, &mapper, &mut tickets)
                    {
                        expected_wakeups += 1;
                    }
                }
            }
            // Inclusion: L1D ∪ L1I ⊆ L2.
            for l in hier.l1d().resident_addrs() {
                prop_assert!(hier.l2().contains(l), "L1D line {l:?} missing from L2");
            }
            for l in hier.l1i().resident_addrs() {
                prop_assert!(hier.l2().contains(l), "L1I line {l:?} missing from L2");
            }
        }
        // Drain everything.
        let start = now;
        while !(hier.is_idle() && channels.iter().all(|c| c.is_idle())) {
            step(&mut hier, &mut channels, &mut now, &mut wakeups);
            prop_assert!(now < start + 2_000_000, "hierarchy did not drain");
        }
        prop_assert_eq!(wakeups, expected_wakeups, "every pending demand wakes exactly once");
    }
}

/// Capacity pressure is observable end to end: a single mcf (footprint
/// larger than Heter config1's 4 MB RLDRAM tier) prefaults through
/// first-touch, drains RLDRAM completely, and every sampled telemetry
/// window reports its `free_frames.RLDRAM` gauge at exactly 0 — not
/// merely "small" — while the HBM and LPDDR2 pools keep the leftovers.
#[test]
fn free_frame_gauges_hit_exactly_zero_when_fast_tiers_drain() {
    use moca_sim::config::{HeterogeneousLayout, MemSystemConfig, SystemConfig};
    use moca_sim::system::{AppLaunch, System};
    use moca_telemetry::{RingSink, Telemetry};
    use moca_vm::policy::HomogeneousPolicy;
    use moca_workloads::{app_by_name, InputSet};

    let cfg = SystemConfig::single_core(MemSystemConfig::Heterogeneous(
        HeterogeneousLayout::config1(),
    ));
    let launches = vec![AppLaunch::untyped(
        app_by_name("mcf"),
        InputSet::reference(),
    )];
    let tel = Telemetry::with_sink(Box::new(RingSink::new(100_000))).with_window(10_000);
    let mut sys = System::new_with_telemetry(cfg, launches, Box::new(HomogeneousPolicy), tel);

    // Frame-space ground truth first: first-touch fills front to back, so
    // the small fast region is gone before the run even starts.
    let frames = sys.os().frames();
    let rl = frames.free_of_kind(moca_common::ModuleKind::Rldram3);
    let hbm = frames.free_of_kind(moca_common::ModuleKind::Hbm);
    let lp = frames.free_of_kind(moca_common::ModuleKind::Lpddr2);
    assert_eq!(rl, 0, "mcf's footprint should exhaust RLDRAM at startup");
    assert!(hbm > 0, "HBM should keep headroom for a single mcf");
    assert!(lp > 0, "LPDDR2 must retain headroom (machine fits mcf)");

    let r = sys.run(30_000);
    assert!(r.runtime_cycles > 0);
    let mut tel = sys.take_telemetry();
    let windows = tel.registry.windows();
    assert!(!windows.is_empty(), "run closed no sampling windows");
    let gauge = |w: &moca_telemetry::WindowSnapshot, name: &str| -> f64 {
        w.samples
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("window missing {name} gauge"))
            .1
    };
    for w in windows {
        assert_eq!(gauge(w, "free_frames.RLDRAM"), 0.0, "RLDRAM gauge not 0");
        assert!(gauge(w, "free_frames.HBM") > 0.0, "HBM gauge drained");
        assert!(gauge(w, "free_frames.LPDDR2") > 0.0, "LPDDR2 drained");
    }
    let _ = tel.drain_events();
}
