//! The substrate replay: host time per call of each layer's public
//! functions, driven by the workload's own instruction stream.
//!
//! The stream is `AppRun` output for the workload's apps on the seeded
//! evaluation input, recorded once; every layer then replays the part of it
//! that layer sees (instructions, load/store lines, pages, L2-miss lines) on
//! structures sized to the workload's machine. Each layer repeats passes
//! until it has run for [`MIN_LAYER_S`] and reports the median pass, in
//! reference nanoseconds.

use crate::workloads::{eval_input, Workload};
use moca_cache::{CacheConfig, SetAssocCache};
use moca_common::ids::MemTag;
use moca_common::wheel::EventWheel;
use moca_common::{
    AccessKind, CoreId, Cycle, DetRng, LineAddr, ModuleKind, ObjectClass, Segment, VirtAddr,
};
use moca_cpu::{Core, CoreConfig, Instr, InstrStream, MemPort, MemReply, StoreReply};
use moca_dram::{Channel, MemRequest};
use moca_vm::frames::FrameSpace;
use moca_vm::layout::HeapLayout;
use moca_vm::{PageTable, Tlb};
use moca_workloads::gen::scaled_sizes;
use moca_workloads::{app_by_name, AppRun};
use std::hint::black_box;
use std::time::Instant;

/// Instructions recorded per distinct app of the workload.
const INSTRS_PER_APP: usize = 40_000;
/// Host seconds each layer measures for, at least.
const MIN_LAYER_S: f64 = 0.1;
/// Allocator operations per pass of the frame churn.
const FRAME_OPS: u64 = 100_000;
/// Wheel operations per pass.
const WHEEL_OPS: u64 = 100_000;
/// Fixed load latency of the core replay's memory stub (an L1 hit).
const STUB_LATENCY: Cycle = 4;

/// Host nanoseconds per call, per layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCosts {
    /// `AppRun::next_instr`.
    pub workloads_ns_per_instr: f64,
    /// `Core::tick` per committed instruction.
    pub cpu_ns_per_instr: f64,
    /// `SetAssocCache::access`/`fill`, L1D then L2, per L1D access.
    pub cache_ns_per_access: f64,
    /// `Tlb::lookup`/`insert` per lookup.
    pub tlb_ns_per_lookup: f64,
    /// `PageTable::map`/`translate_vpn` per translation.
    pub pt_ns_per_translate: f64,
    /// `FrameSpace::alloc_by_preference`/`free` per operation.
    pub frames_ns_per_op: f64,
    /// `Channel::enqueue` + `tick` until drained, per request.
    pub dram_ns_per_request: f64,
    /// `EventWheel::post`/`cancel`/`next_event_after` per operation.
    pub wheel_ns_per_op: f64,
}

/// Median nanoseconds per op of `pass` (which performs `ops` ops), over
/// passes repeated until [`MIN_LAYER_S`] has elapsed (at least three), at
/// the reference speed (`speed.rs`).
fn ns_per_op(ops: u64, mut pass: impl FnMut()) -> f64 {
    let (host_ns, slowdown) = crate::speed::bracket(|| {
        let start = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < 3 || start.elapsed().as_secs_f64() < MIN_LAYER_S {
            let t = Instant::now();
            pass();
            samples.push(t.elapsed().as_secs_f64() * 1e9 / ops.max(1) as f64);
        }
        crate::median(&mut samples)
    });
    host_ns / slowdown
}

/// One app's instruction stream, laid out like `System::new` lays out an
/// untyped launch (stream index = the app's position).
fn app_stream(app: &str, w: &Workload, seed: u64, stream: u64) -> AppRun {
    let spec = app_by_name(app);
    let input = eval_input(seed);
    let mut layout = HeapLayout::new();
    let bases: Vec<VirtAddr> = scaled_sizes(&spec, input, w.capacity_scale)
        .into_iter()
        .map(|sz| layout.alloc_heap(ObjectClass::NonIntensive, sz))
        .collect();
    let stack = layout.grow_stack(spec.stack_working_set.max(16 * 1024));
    AppRun::new(&spec, input, w.capacity_scale, &bases, stack, stream)
}

/// A memory port that answers every access after a fixed latency, so the
/// core replay times the pipeline alone.
struct FixedLatency;

impl MemPort for FixedLatency {
    fn load(&mut self, now: Cycle, _: CoreId, _: VirtAddr, _: MemTag) -> MemReply {
        MemReply::Done {
            ready_at: now + STUB_LATENCY,
        }
    }
    fn store(&mut self, _: Cycle, _: CoreId, _: VirtAddr, _: MemTag) -> StoreReply {
        StoreReply::default()
    }
    fn ifetch(&mut self, now: Cycle, _: CoreId, _: VirtAddr) -> MemReply {
        MemReply::Done { ready_at: now + 1 }
    }
}

/// Time every layer on `w`'s stream for `seed`.
pub fn replay(w: &Workload, seed: u64) -> LayerCosts {
    let apps = w.distinct_apps();
    let mut streams: Vec<AppRun> = apps
        .iter()
        .enumerate()
        .map(|(i, app)| app_stream(app, w, seed, i as u64))
        .collect();
    let per_pass = (INSTRS_PER_APP * streams.len()) as u64;

    // Record the stream once; later passes generate fresh instructions.
    let mut instrs: Vec<Instr> = Vec::with_capacity(per_pass as usize);
    for s in &mut streams {
        for _ in 0..INSTRS_PER_APP {
            instrs.push(s.next_instr().expect("app streams are infinite"));
        }
    }
    let workloads_ns_per_instr = ns_per_op(per_pass, || {
        for s in &mut streams {
            for _ in 0..INSTRS_PER_APP {
                black_box(s.next_instr());
            }
        }
    });

    // The core replays the recorded instructions, so no generator time is
    // inside its measurement.
    let cpu_ns_per_instr = ns_per_op(per_pass, || {
        let mut core = Core::new(CoreId(0), CoreConfig::default());
        let mut stream = instrs.iter().copied();
        let mut now = 0;
        while !core.finished() {
            now += 1;
            core.tick(now, &mut FixedLatency, &mut stream);
        }
        black_box(core.committed());
    });

    let accesses: Vec<(VirtAddr, bool)> = instrs
        .iter()
        .filter_map(|i| match *i {
            Instr::Load { va, .. } => Some((va, false)),
            Instr::Store { va, .. } => Some((va, true)),
            _ => None,
        })
        .collect();
    let n_acc = accesses.len() as u64;

    // Cold pass first: its L2 misses are the lines the DRAM replay sends.
    let mut l1 = SetAssocCache::new(CacheConfig::l1d());
    let mut l2 = SetAssocCache::new(CacheConfig::l2());
    let mut misses: Vec<(LineAddr, bool)> = Vec::new();
    let mut cache_pass = |misses: &mut Vec<(LineAddr, bool)>| {
        for &(va, write) in &accesses {
            let line = LineAddr(va.0 >> moca_common::addr::LINE_SHIFT);
            if !l1.access(line, write) {
                if !l2.access(line, write) {
                    l2.fill(line, false);
                    misses.push((line, write));
                }
                l1.fill(line, write);
            }
        }
    };
    cache_pass(&mut misses);
    let mut sink = Vec::new();
    let cache_ns_per_access = ns_per_op(n_acc, || {
        sink.clear();
        cache_pass(&mut sink);
    });

    let mut tlb = Tlb::new(64);
    let tlb_ns_per_lookup = ns_per_op(n_acc, || {
        for &(va, _) in &accesses {
            let vpn = va.vpn();
            if tlb.lookup(vpn).is_none() {
                tlb.insert(vpn, vpn);
            }
        }
    });

    let pt_ns_per_translate = ns_per_op(n_acc, || {
        let mut pt = PageTable::new();
        for &(va, _) in &accesses {
            let vpn = va.vpn();
            if pt.translate_vpn(vpn).is_none() {
                pt.map(vpn, vpn);
            }
        }
        black_box(pt.mapped_pages());
    });

    // The first job's machine stands for the workload's.
    let job = &(w.jobs)()[0];
    let channels = job.mem.channel_configs(w.capacity_scale);
    let frames_ns_per_op = frame_churn(job.mem.frame_regions(w.capacity_scale), seed);
    let dram_ns_per_request = dram_drain(&channels, &misses);
    let wheel_ns_per_op = wheel_churn(job.apps.len() + channels.len(), seed);

    LayerCosts {
        workloads_ns_per_instr,
        cpu_ns_per_instr,
        cache_ns_per_access,
        tlb_ns_per_lookup,
        pt_ns_per_translate,
        frames_ns_per_op,
        dram_ns_per_request,
        wheel_ns_per_op,
    }
}

/// Seeded alloc/free churn on the workload's frame space: rotations of the
/// module preference order, with a live set bounded at half the frames so
/// frees spill the allocator's reuse cache.
fn frame_churn(regions: Vec<moca_vm::frames::ModuleRegion>, seed: u64) -> f64 {
    let mut fs = FrameSpace::new(regions);
    let max_live = (fs.total_frames() / 2).min(250_000) as usize;
    let prefs: [[ModuleKind; 4]; 4] = std::array::from_fn(|r| {
        std::array::from_fn(|i| ModuleKind::ALL[(r + i) % ModuleKind::ALL.len()])
    });
    let mut rng = DetRng::new(seed, 0xf4a3);
    let mut live: Vec<u64> = Vec::new();
    ns_per_op(FRAME_OPS, || {
        for _ in 0..FRAME_OPS {
            if !live.is_empty() && (live.len() >= max_live || rng.chance(0.45)) {
                let i = rng.below(live.len() as u64) as usize;
                fs.free(live.swap_remove(i));
            } else if let Some((pfn, _)) = fs.alloc_by_preference(&prefs[rng.below(4) as usize]) {
                live.push(pfn);
            }
        }
    })
}

/// Send the L2-miss lines (reads for loads, writes for stores) through one
/// channel of each module kind the machine uses, ticking until drained.
fn dram_drain(configs: &[moca_dram::ChannelConfig], misses: &[(LineAddr, bool)]) -> f64 {
    let mut kinds: Vec<ModuleKind> = Vec::new();
    let mut channels: Vec<Channel> = Vec::new();
    for cfg in configs {
        if !kinds.contains(&cfg.timing.kind) {
            kinds.push(cfg.timing.kind);
            channels.push(Channel::new(cfg.clone()));
        }
    }
    let mut now: Cycle = 0;
    let mut out = Vec::new();
    let requests = (misses.len() * channels.len()) as u64;
    ns_per_op(requests, || {
        for ch in &mut channels {
            let cap = ch.config().capacity_bytes;
            let mut sent = 0;
            while sent < misses.len() || !ch.is_idle() {
                now += 1;
                while sent < misses.len() {
                    let (line, write) = misses[sent];
                    let kind = if write {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    if !ch.can_accept(kind) {
                        break;
                    }
                    ch.enqueue(
                        now,
                        MemRequest {
                            token: sent as u64,
                            line,
                            local_off: (line.0 << moca_common::addr::LINE_SHIFT) % cap,
                            kind,
                            core: CoreId(0),
                            tag: MemTag::segment(Segment::Data),
                        },
                    );
                    sent += 1;
                }
                out.clear();
                ch.tick(now, &mut out);
            }
        }
    })
}

/// Seeded post/cancel/next-event traffic on a wheel with one component per
/// core and channel, with the skip distances a blocked machine sees.
fn wheel_churn(components: usize, seed: u64) -> f64 {
    let mut wheel = EventWheel::new(components);
    let mut rng = DetRng::new(seed, 0x3e31);
    let mut now: Cycle = 0;
    ns_per_op(WHEEL_OPS, || {
        for _ in 0..WHEEL_OPS {
            let comp = rng.below(components as u64) as usize;
            match rng.below(10) {
                0..=6 => wheel.post(comp, now + 1 + rng.below(600)),
                7 => wheel.cancel(comp),
                _ => {
                    if let Some((at, _)) = wheel.next_event_after(now) {
                        now = at;
                    }
                }
            }
        }
    })
}
