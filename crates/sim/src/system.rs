//! The whole machine: cores + hierarchies + OS + channels, and the run loop.

use crate::config::SystemConfig;
use crate::hierarchy::CoreHierarchy;
use crate::metrics::{ChannelReport, CoreResult, MemMetrics, RunResult};
use crate::migration::{MigrationConfig, Migrator};
use crate::os::Os;
use crate::par_step::{StepPool, TickCtx};
use moca_common::ids::MemTag;
use moca_common::{CoreId, Cycle, ObjectClass, VirtAddr, PAGE_SIZE};
use moca_cpu::{Core, MemPort, MemReply, StoreReply};
use moca_dram::{AddressMapper, Channel, Completion};
use moca_telemetry::attribution::{tier_index, AttrTagTable, Mechanism, OccupancySample};
use moca_telemetry::{Event, Telemetry, WindowSnapshot};
use moca_vm::layout::HeapLayout;
use moca_vm::{FrameSpace, PagePlacementPolicy};
use moca_workloads::gen::scaled_sizes;
use moca_workloads::{AppRun, AppSpec, InputSet};
use std::ops::RangeInclusive;

/// One application to launch on one core.
pub struct AppLaunch {
    /// The benchmark.
    pub spec: AppSpec,
    /// Input set (training or reference).
    pub input: InputSet,
    /// Virtual-heap partition per object, in `spec.objects` order. MOCA
    /// passes its per-object classification; baselines (which have no typed
    /// heap) pass `NonIntensive` for everything — the *policy* then decides
    /// placement from other information.
    pub object_classes: Vec<ObjectClass>,
}

impl AppLaunch {
    /// Launch with every object in the default (untyped) partition.
    pub fn untyped(spec: AppSpec, input: InputSet) -> AppLaunch {
        let n = spec.objects.len();
        AppLaunch {
            spec,
            input,
            object_classes: vec![ObjectClass::NonIntensive; n],
        }
    }
}

/// The simulated machine.
pub struct System {
    cfg: SystemConfig,
    cores: Vec<Core>,
    hiers: Vec<CoreHierarchy>,
    streams: Vec<AppRun>,
    app_names: Vec<String>,
    os: Os,
    channels: Vec<Channel>,
    mapper: AddressMapper,
    /// Per-core ticket counters. Tickets only need to be unique within one
    /// core (completions route by `comp.core` before the ticket is looked
    /// up), and per-core counters keep stepping free of cross-core state.
    tickets: Vec<u64>,
    now: Cycle,
    /// Per-core next cycle at which the core's pipeline can make progress:
    /// `now + 1` while runnable, the core-local/memory wake event while
    /// blocked, `Cycle::MAX` once drained. The step loop only ticks cores
    /// whose `wake_at` has arrived; everything that can unblock a core
    /// (DRAM completions, its own tick) updates this array.
    wake_at: Vec<Cycle>,
    /// Per-core flag: committed ≥ `commit_target` (monotonic per phase).
    crossed: Vec<bool>,
    /// Number of cores with `crossed == false`; the warmup loop runs while
    /// this is non-zero.
    below_target: usize,
    /// Commit threshold the step loop checks ticked cores against
    /// (warmup instructions, then the measurement target).
    commit_target: u64,
    /// Set by `step` whenever some core first crossed `commit_target`;
    /// the measure loop only scans for cores to freeze when it is set, and
    /// both run loops clear it after each step. A step that ends with it
    /// set takes the reference loop's skip, because the run loop reads
    /// `now` right after it.
    commit_crossed: bool,
    /// Number of cores that have fully drained (stream exhausted, ROB
    /// empty). Event skip is disabled once any core is finished, matching
    /// the drain-phase semantics of the linear scan this replaced.
    finished_count: usize,
    /// Bitmask (one bit per core) of hierarchies that may hold deferred
    /// writebacks/store-fills; phase 2 walks set bits instead of asking
    /// every hierarchy every cycle.
    deferred_words: Vec<u64>,
    /// Cycles the reference loop steps: every executed `step`, plus the
    /// cycles a skip jumps over where that loop would have stepped (it
    /// steps every cycle while a channel holds a request outside a refresh
    /// window). With `steps_at_tick` this tells a waking core how many
    /// stepped cycles it slept through, which an ungated loop would have
    /// ticked it on (`Core::tick_gated`).
    steps: u64,
    /// Per-core value of `steps` at the core's last pipeline tick.
    steps_at_tick: Vec<u64>,
    /// Worker threads for phase 3 (1 = sequential). See [`crate::par_step`];
    /// results are bit-identical for any value.
    step_threads: usize,
    /// Per-core flag: still inside its measurement window. Cores that reach
    /// the instruction target keep running (to preserve contention) but
    /// their memory latencies stop counting toward the metrics.
    measuring: Vec<bool>,
    /// Per-core flag: statistics snapshot already frozen (the core passed
    /// its instruction target). Frozen cores keep executing for contention
    /// but are skipped by per-core window sampling.
    frozen: Vec<bool>,
    /// Reusable buffer for the tickets woken by one DRAM completion (the
    /// completion path runs once per off-chip read; keeping the buffer on
    /// the system makes the step loop allocation-free).
    woken_buf: Vec<u64>,
    /// Per-object stall ledgers enabled on every core. Off by default;
    /// purely observational either way.
    attr_enabled: bool,
    /// Reusable buffer of `(core, ticket, tier, mechanism)` resolutions
    /// collected while delivering DRAM completions. Applied to the cores
    /// only *after* their pipeline ticks, because a woken core may still
    /// charge this cycle's skipped-window stall to the completed ticket.
    attr_resolutions: Vec<(usize, u64, usize, Mechanism)>,
    /// Occupancy timeline (attribution runs only): free-frame headroom per
    /// module kind plus cumulative migration counts over the measured run.
    occupancy: Vec<OccupancySample>,
    /// Optional dynamic page-migration engine (the runtime-monitoring
    /// baseline of §IV-E / related work).
    migrator: Option<Migrator>,
    /// Observability context. Strictly observational: nothing in the
    /// simulated machine ever reads it, so runs with telemetry enabled are
    /// bit-identical to runs without.
    tel: Telemetry,
    /// Next cycle at which a metrics window closes.
    win_next: Cycle,
    /// First cycle of the currently open metrics window.
    win_start: Cycle,
    /// Per-core committed-instruction baseline at window start.
    win_committed: Vec<u64>,
    /// Per-core L2 miss baseline at window start.
    win_l2_miss: Vec<u64>,
    /// Per-channel busy-cycle baseline at window start.
    win_busy: Vec<Cycle>,
    /// Per-channel, per-bank activate-count baseline at window start.
    win_bank_act: Vec<Vec<u64>>,
    /// Engine work counts of the current run, published into the
    /// telemetry registry at its end.
    work: EngineWork,
}

/// Host work the step loop did, as opposed to the cycles it simulated.
#[derive(Default)]
struct EngineWork {
    /// `step` calls executed.
    steps: u64,
    /// Phase-4 jumps over at least one cycle.
    skips: u64,
    /// Cycles those jumps passed over.
    skipped_cycles: u64,
    /// Channel ticks that ran (past the wake gate).
    channel_ticks: u64,
    /// Core ticks that ran (past the wake gate), counted as each ticked
    /// core is settled.
    core_ticks: u64,
}

pub(crate) struct Port<'a> {
    pub(crate) hier: &'a mut CoreHierarchy,
    pub(crate) channels: &'a mut [Channel],
    pub(crate) mapper: &'a AddressMapper,
    pub(crate) os: &'a mut Os,
    pub(crate) core_idx: usize,
    pub(crate) tickets: &'a mut u64,
    pub(crate) tel: &'a mut Telemetry,
}

impl Port<'_> {
    /// Emit an MSHR-exhaustion stall if that is what the hierarchy's last
    /// `Retry` meant (channel-full retries stay silent: they are visible as
    /// queue-depth window samples instead).
    fn note_retry(&mut self, now: Cycle, core: CoreId, reply: &MemReply) {
        if matches!(reply, MemReply::Retry { mshr_full: true }) {
            self.tel.record(now, Event::MshrFullStall { core: core.0 });
        }
    }
}

impl MemPort for Port<'_> {
    fn load(&mut self, now: Cycle, core: CoreId, va: VirtAddr, tag: MemTag) -> MemReply {
        let tr = self.os.translate_traced(self.core_idx, va, now, self.tel);
        let reply = self.hier.load(
            now,
            core,
            tr.pa,
            tag,
            tr.extra,
            self.channels,
            self.mapper,
            self.tickets,
        );
        self.note_retry(now, core, &reply);
        reply
    }

    fn store(&mut self, now: Cycle, core: CoreId, va: VirtAddr, tag: MemTag) -> StoreReply {
        let tr = self.os.translate_traced(self.core_idx, va, now, self.tel);
        self.hier.store(
            now,
            core,
            tr.pa,
            tag,
            self.channels,
            self.mapper,
            self.tickets,
        )
    }

    fn ifetch(&mut self, now: Cycle, core: CoreId, va: VirtAddr) -> MemReply {
        let tr = self.os.translate_traced(self.core_idx, va, now, self.tel);
        let reply = self
            .hier
            .ifetch(now, core, tr.pa, self.channels, self.mapper, self.tickets);
        self.note_retry(now, core, &reply);
        reply
    }
}

/// Debug-build conservation check: the frame allocator's own invariants,
/// and the page tables as a one-to-one map onto the allocated frames.
#[cfg(debug_assertions)]
fn check_page_bookkeeping(os: &Os, when: &str) {
    os.frames()
        .check_invariants()
        .unwrap_or_else(|e| panic!("frame allocator invariants {when}: {e}"));
    os.check_invariants()
        .unwrap_or_else(|e| panic!("OS page bookkeeping {when}: {e}"));
}

/// Debug-build conservation check: a core's CPI stack splits its cycles
/// exactly.
#[cfg(debug_assertions)]
fn check_cpi_stack(core: usize, stats: &moca_cpu::CoreStats, when: &str) {
    let stack = stats.cpi_stack();
    assert_eq!(
        stack.total(),
        stats.cycles,
        "core {core} CPI stack {stack:?} does not sum to its cycles {when}"
    );
}

impl System {
    /// Build a machine running `launches` (one per core) under `policy`.
    pub fn new(
        cfg: SystemConfig,
        launches: Vec<AppLaunch>,
        policy: Box<dyn PagePlacementPolicy>,
    ) -> System {
        System::new_with_telemetry(cfg, launches, policy, Telemetry::disabled())
    }

    /// [`System::new`] with an observability context attached. Telemetry is
    /// write-only for the simulation, so results are identical to an
    /// untraced run; instantiation-time placements are captured at cycle 0.
    pub fn new_with_telemetry(
        cfg: SystemConfig,
        launches: Vec<AppLaunch>,
        policy: Box<dyn PagePlacementPolicy>,
        mut tel: Telemetry,
    ) -> System {
        assert_eq!(
            launches.len(),
            cfg.cores,
            "one application per core required"
        );
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid system configuration: {e}"));
        let channels: Vec<Channel> = cfg
            .mem
            .channel_configs(cfg.capacity_scale)
            .into_iter()
            .map(Channel::new)
            .collect();
        let mapper = cfg.mem.mapper(cfg.capacity_scale);
        let frames = FrameSpace::new(cfg.mem.frame_regions(cfg.capacity_scale));
        let mut os = Os::new(
            frames,
            policy,
            cfg.cores,
            cfg.tlb_entries,
            cfg.tlb_miss_penalty,
            cfg.page_fault_penalty,
        );

        let mut cores = Vec::with_capacity(cfg.cores);
        let mut hiers = Vec::with_capacity(cfg.cores);
        let mut streams = Vec::with_capacity(cfg.cores);
        let mut app_names = Vec::with_capacity(cfg.cores);
        let mut pages = Vec::with_capacity(cfg.cores);
        for (i, launch) in launches.into_iter().enumerate() {
            assert_eq!(
                launch.object_classes.len(),
                launch.spec.objects.len(),
                "{}: one class per object",
                launch.spec.name
            );
            // Build the app's virtual address space: typed heap partitions
            // (Fig. 6) + stack.
            let mut layout = HeapLayout::new();
            let sizes = scaled_sizes(&launch.spec, launch.input, cfg.capacity_scale);
            let bases: Vec<VirtAddr> = launch
                .spec
                .objects
                .iter()
                .zip(sizes.iter())
                .enumerate()
                .map(|(oi, (_, &sz))| layout.alloc_heap(launch.object_classes[oi], sz))
                .collect();
            let stack_bytes = launch.spec.stack_working_set.max(16 * 1024);
            let stack_base = layout.grow_stack(stack_bytes);
            // Program-load + instantiation order: code and stack first, then
            // the heap objects in allocation (spec) order — the order the
            // paper's modified malloc presents them to the OS (§IV-E). Each
            // is kept as its inclusive vpn range, not page by page.
            let segments = [
                (VirtAddr(moca_vm::layout::CODE_BASE), launch.spec.code_bytes),
                (stack_base, stack_bytes),
            ];
            let ranges: Vec<RangeInclusive<u64>> = segments
                .into_iter()
                .chain(bases.iter().copied().zip(sizes.iter().copied()))
                .map(|(base, bytes)| base.vpn()..=VirtAddr(base.0 + bytes.max(1) - 1).vpn())
                .collect();
            pages.push(ranges.into_iter().flatten());
            streams.push(AppRun::new(
                &launch.spec,
                launch.input,
                cfg.capacity_scale,
                &bases,
                stack_base,
                i as u64,
            ));
            app_names.push(launch.spec.name.to_string());
            cores.push(Core::new(CoreId(i as u32), cfg.core.clone()));
            hiers.push(CoreHierarchy::new());
        }

        // Concurrent startup: apps instantiate their objects in parallel, so
        // physical allocation interleaves across apps (a deterministic
        // round-robin of the instantiation race). Interleaving happens in
        // 32-page chunks so every app's frames still cover all physical
        // page colors — fine-grained striping would alias app count against
        // the L2's page-color period and shrink its effective capacity.
        const CHUNK: usize = 32;
        loop {
            let mut progressed = false;
            for (app, vpns) in pages.iter_mut().enumerate() {
                for vpn in vpns.take(CHUNK) {
                    os.prefault_traced(app, VirtAddr(vpn * PAGE_SIZE), &mut tel);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        #[cfg(debug_assertions)]
        check_page_bookkeeping(&os, "after startup prefault");

        let n = cores.len();
        let channel_count = channels.len();
        let mut sys = System {
            cfg,
            cores,
            hiers,
            streams,
            app_names,
            os,
            channels,
            mapper,
            tickets: vec![0; n],
            now: 0,
            wake_at: vec![0; n],
            crossed: vec![false; n],
            below_target: n,
            commit_target: 0,
            commit_crossed: false,
            finished_count: 0,
            deferred_words: vec![0; n.div_ceil(64)],
            steps: 0,
            steps_at_tick: vec![0; n],
            step_threads: 1,
            measuring: vec![true; n],
            frozen: vec![false; n],
            woken_buf: Vec::new(),
            attr_enabled: false,
            attr_resolutions: Vec::new(),
            occupancy: Vec::new(),
            migrator: None,
            tel,
            win_next: 0,
            win_start: 0,
            win_committed: vec![0; n],
            win_l2_miss: vec![0; n],
            win_busy: vec![0; channel_count],
            win_bank_act: vec![Vec::new(); channel_count],
            work: EngineWork::default(),
        };
        sys.rebaseline_windows();
        sys
    }

    /// Reset window-sampling baselines to the machine's current counters
    /// (at construction and after the warmup statistics reset, which zeroes
    /// core and channel counters out from under the deltas).
    fn rebaseline_windows(&mut self) {
        self.win_start = self.now;
        self.win_next = match self.tel.window_cycles {
            Some(w) => self.now.saturating_add(w),
            None => Cycle::MAX,
        };
        for (i, core) in self.cores.iter().enumerate() {
            self.win_committed[i] = core.committed();
        }
        for (i, h) in self.hiers.iter().enumerate() {
            self.win_l2_miss[i] = h.l2_stats().misses;
        }
        for (ci, ch) in self.channels.iter().enumerate() {
            self.win_busy[ci] = ch.stats().busy_cycles;
            self.win_bank_act[ci] = ch.bank_activates().to_vec();
        }
    }

    /// Close the current metrics window: push a snapshot of per-core IPC and
    /// L2 MPKI, per-channel queue depth and bus occupancy, and frame-pool
    /// headroom, then open the next window.
    fn sample_window(&mut self) {
        let start = self.win_start;
        let end = self.now;
        let dt = (end - start) as f64;
        // moca-lint: allow(hot-alloc): window-rate sampling path — runs once per metrics window, not per cycle
        let mut samples = Vec::new();
        for (i, core) in self.cores.iter().enumerate() {
            // A frozen core's statistics are already snapshotted; it only
            // runs on for contention. Skip its per-core tracks (channel and
            // frame-pool tracks below still cover the whole machine).
            if self.frozen[i] {
                continue;
            }
            let committed = core.committed();
            let dc = committed.saturating_sub(self.win_committed[i]);
            self.win_committed[i] = committed;
            samples.push((
                // moca-lint: allow(hot-alloc): window-rate sampling path — runs once per metrics window, not per cycle
                format!("ipc.core{i}"),
                if dt > 0.0 { dc as f64 / dt } else { 0.0 },
            ));
            let misses = self.hiers[i].l2_stats().misses;
            let dm = misses.saturating_sub(self.win_l2_miss[i]);
            self.win_l2_miss[i] = misses;
            let mpki = if dc > 0 {
                dm as f64 * 1000.0 / dc as f64
            } else {
                0.0
            };
            // moca-lint: allow(hot-alloc): window-rate sampling path — runs once per metrics window, not per cycle
            samples.push((format!("l2_mpki.core{i}"), mpki));
        }
        for (ci, ch) in self.channels.iter().enumerate() {
            // moca-lint: allow(hot-alloc): window-rate sampling path — runs once per metrics window, not per cycle
            samples.push((format!("readq.ch{ci}"), ch.read_queue_len() as f64));
            // moca-lint: allow(hot-alloc): window-rate sampling path — runs once per metrics window, not per cycle
            samples.push((format!("writeq.ch{ci}"), ch.write_queue_len() as f64));
            let busy = ch.stats().busy_cycles;
            let db = busy.saturating_sub(self.win_busy[ci]);
            self.win_busy[ci] = busy;
            samples.push((
                // moca-lint: allow(hot-alloc): window-rate sampling path — runs once per metrics window, not per cycle
                format!("bus_util.ch{ci}"),
                if dt > 0.0 { db as f64 / dt } else { 0.0 },
            ));
            // Per-bank occupancy: row activations in this window, one
            // counter track per bank (`bank_act.ch0.b3` in the trace).
            for (b, &acts) in ch.bank_activates().iter().enumerate() {
                let prev = self.win_bank_act[ci].get(b).copied().unwrap_or(0);
                self.win_bank_act[ci][b] = acts;
                samples.push((
                    // moca-lint: allow(hot-alloc): window-rate sampling path — runs once per metrics window, not per cycle
                    format!("bank_act.ch{ci}.b{b}"),
                    acts.saturating_sub(prev) as f64,
                ));
            }
        }
        for (kind, free) in self.os.frames().headroom() {
            // moca-lint: allow(hot-alloc): window-rate sampling path — runs once per metrics window, not per cycle
            samples.push((format!("free_frames.{}", kind.name()), free as f64));
        }
        self.tel.push_window(WindowSnapshot {
            start,
            end,
            samples,
        });
        self.sample_occupancy();
        self.win_start = end;
        self.win_next = match self.tel.window_cycles {
            Some(w) => end.saturating_add(w),
            None => Cycle::MAX,
        };
    }

    /// Enable per-core cycle attribution (per-object stall ledgers and the
    /// occupancy timeline; the CPI stack is always on). Call before `run`.
    /// Attribution is strictly observational: the simulated machine never
    /// reads any of it, so an attributed run is bit-identical to an
    /// unattributed one.
    pub fn enable_attribution(&mut self) {
        self.attr_enabled = true;
        for c in &mut self.cores {
            c.enable_attribution();
        }
    }

    /// Push one occupancy-timeline sample (attribution runs only).
    fn sample_occupancy(&mut self) {
        if !self.attr_enabled {
            return;
        }
        let (promotions, demotions) = self
            .migration_stats()
            .map_or((0, 0), |s| (s.promotions, s.demotions));
        let free_frames = self
            .os
            .frames()
            .headroom()
            .into_iter()
            // moca-lint: allow(hot-alloc): window-rate sampling path — runs once per metrics window, not per cycle
            .map(|(kind, free)| (kind.name().to_string(), free))
            .collect();
        self.occupancy.push(OccupancySample {
            at: self.now,
            free_frames,
            promotions,
            demotions,
        });
    }

    /// Enable dynamic page migration with `cfg`. Call before `run`.
    pub fn attach_migration(&mut self, cfg: MigrationConfig) {
        self.migrator = Some(Migrator::new(cfg));
    }

    /// Migration statistics, if migration is enabled.
    pub fn migration_stats(&self) -> Option<crate::migration::MigrationStats> {
        self.migrator.as_ref().map(|m| m.stats())
    }

    /// OS state (placement inspection in tests).
    pub fn os(&self) -> &Os {
        &self.os
    }

    /// The attached telemetry context.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Take the telemetry context out of the system (end of run), leaving a
    /// disabled one behind.
    pub fn take_telemetry(&mut self) -> Telemetry {
        std::mem::replace(&mut self.tel, Telemetry::disabled())
    }

    /// Capture the raw-parts view of phase 3's state for one cycle's
    /// parallel fan-out.
    fn tick_ctx(&mut self, now: Cycle) -> TickCtx {
        TickCtx {
            cores: self.cores.as_mut_ptr(),
            hiers: self.hiers.as_mut_ptr(),
            streams: self.streams.as_mut_ptr(),
            tickets: self.tickets.as_mut_ptr(),
            steps_at_tick: self.steps_at_tick.as_mut_ptr(),
            channels: self.channels.as_mut_ptr(),
            channels_len: self.channels.len(),
            mapper: &self.mapper,
            os: &mut self.os,
            tel: &mut self.tel,
            now,
            steps: self.steps,
        }
    }

    /// One simulator cycle: DRAM completions, deferred writes, core
    /// pipelines, event skip. Read latencies are accumulated into `mem`.
    fn step(&mut self, mem: &mut MemMetrics, comps: &mut Vec<Completion>, pool: Option<&StepPool>) {
        self.now += 1;
        self.steps += 1;
        self.work.steps += 1;
        let now = self.now;
        let n = self.cores.len();
        let profile = self.tel.host_profiling();

        // 1. DRAM completions → cache fills → core wakeups.
        comps.clear();
        // moca-lint: allow(wall-clock): host self-profiling span, never read by the simulation
        let t0 = profile.then(std::time::Instant::now);
        for (ci, ch) in self.channels.iter_mut().enumerate() {
            // A channel returns at once before its wake cycle.
            if ch.tick_tel(now, comps, &mut self.tel, ci as u32) {
                self.work.channel_ticks += 1;
            }
        }
        for comp in comps.iter() {
            let ci = comp.core.0 as usize;
            if self.measuring[ci] {
                mem.reads += 1;
                let lat = comp.queue_cycles + comp.service_cycles;
                mem.total_read_latency_cycles += lat;
                mem.per_core_read_latency[ci] += lat;
            }
            self.tel
                .observe_read_latency(comp.queue_cycles, comp.queue_cycles + comp.service_cycles);
            self.woken_buf.clear();
            self.hiers[ci].on_completion_into(
                now,
                comp,
                &mut self.channels,
                &self.mapper,
                &mut self.woken_buf,
            );
            for &t in &self.woken_buf {
                self.cores[ci].complete(t, now);
            }
            // The fill may have evicted a dirty line the channel refused:
            // flag the hierarchy for the deferred-retry pass either way.
            if self.hiers[ci].has_deferred() {
                self.deferred_words[ci / 64] |= 1 << (ci % 64);
            }
            if !self.woken_buf.is_empty() && !self.cores[ci].finished() && self.wake_at[ci] > now {
                // A completed ticket can unblock the pipeline this very
                // cycle; pull the core out of its sleep.
                self.wake_at[ci] = now;
            }
            if self.attr_enabled && !self.woken_buf.is_empty() {
                // Which tier served this read and why it took as long as it
                // did; one resolution per woken ticket, applied after the
                // pipeline ticks below.
                let (ch, _) = self.mapper.map(comp.line);
                let tier = tier_index(self.channels[ch].config().timing.kind);
                let mech = Mechanism::classify(
                    comp.refresh_delayed,
                    comp.bank_conflict,
                    comp.queue_cycles,
                );
                for &t in &self.woken_buf {
                    self.attr_resolutions.push((ci, t, tier, mech));
                }
            }
            if let Some(m) = &mut self.migrator {
                m.record_read(comp.line);
            }
        }
        if let Some(t) = t0 {
            self.tel.components.dram += t.elapsed();
        }

        // Page-migration epoch boundary. The migrator moves out of `self`
        // for the epoch so it can borrow the rest of the system mutably;
        // it is put back below.
        if let Some(mut m) = self.migrator.take_if(|m| m.epoch_due(now)) {
            // moca-lint: allow(wall-clock): host self-profiling span, never read by the simulation
            let t0 = profile.then(std::time::Instant::now);
            m.run_epoch(
                now,
                &mut self.os,
                &mut self.hiers,
                &mut self.channels,
                &self.mapper,
            );
            let s = m.stats();
            self.tel.record(
                now,
                Event::MigrationEpoch {
                    epoch: s.epochs,
                    promotions: s.promotions,
                    demotions: s.demotions,
                },
            );
            self.migrator = Some(m);
            // The epoch invalidates lines across every hierarchy, which can
            // queue writebacks anywhere: rebuild the deferred mask from
            // scratch (epoch-rate, not cycle-rate).
            for (i, h) in self.hiers.iter().enumerate() {
                if h.has_deferred() {
                    self.deferred_words[i / 64] |= 1 << (i % 64);
                }
            }
            if let Some(t) = t0 {
                self.tel.components.vm += t.elapsed();
            }
        }

        // 2. Retry deferred writebacks/store-fills — walk only the
        // hierarchies flagged in the deferred mask (bit set ⊇ has_deferred;
        // stale bits clear themselves here), in core-index order like the
        // full loop this replaced.
        // moca-lint: allow(wall-clock): host self-profiling span, never read by the simulation
        let t0 = profile.then(std::time::Instant::now);
        for w in 0..self.deferred_words.len() {
            let mut bits = self.deferred_words[w];
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let i = w * 64 + b;
                if self.hiers[i].has_deferred() {
                    self.hiers[i].flush_deferred(now, &mut self.channels, &self.mapper);
                }
                if !self.hiers[i].has_deferred() {
                    self.deferred_words[w] &= !(1u64 << b);
                }
            }
        }
        if let Some(t) = t0 {
            self.tel.components.cache += t.elapsed();
        }

        // 3. Core pipelines — only cores whose wake event has arrived.
        // A sleeping core's tick is a pure no-op until its `wake_at`
        // (its elapsed-cycle stats catch up inside `Core::tick`), and a
        // fully drained core sits at `Cycle::MAX` forever. Each ticked
        // core is settled at once; the step pool (see `par_step`) ticks
        // the awake cores first and then settles them in core order,
        // bit-identically, as settling touches nothing a tick reads.
        // Runnable cores are counted for this step's skip decision.
        // moca-lint: allow(wall-clock): host self-profiling span, never read by the simulation
        let t0 = profile.then(std::time::Instant::now);
        let mut runnable_next = 0usize;
        if let Some(pool) = pool {
            let ctx = self.tick_ctx(now);
            // SAFETY: `ctx` views exactly the state the sequential loop
            // below touches; nothing else reads or writes it until
            // `run_cycle` returns, and this is the pool's main thread. The
            // returned slice is read before the next `run_cycle`.
            let ticked = unsafe { pool.run_cycle(ctx, &self.wake_at) };
            for &(i, sleep) in ticked {
                runnable_next += usize::from(self.settle(i, now, sleep));
            }
        } else {
            for i in 0..n {
                if self.wake_at[i] > now {
                    continue;
                }
                let mut port = Port {
                    hier: &mut self.hiers[i],
                    channels: &mut self.channels,
                    mapper: &self.mapper,
                    os: &mut self.os,
                    core_idx: i,
                    tickets: &mut self.tickets[i],
                    tel: &mut self.tel,
                };
                let skipped_live = self.steps - self.steps_at_tick[i] - 1;
                self.steps_at_tick[i] = self.steps;
                self.cores[i].tick_gated(now, skipped_live, &mut port, &mut self.streams[i]);
                let sleep = self.cores[i].sleep_state(now);
                runnable_next += usize::from(self.settle(i, now, sleep));
            }
        }
        if let Some(t) = t0 {
            self.tel.components.cpu += t.elapsed();
        }

        // Apply the attribution resolutions collected in phase 1. This must
        // run after the pipeline ticks: a core woken by a completion may
        // still charge this cycle's skipped-window stall to that ticket.
        for k in 0..self.attr_resolutions.len() {
            let (ci, ticket, tier, mech) = self.attr_resolutions[k];
            self.cores[ci].attr_resolve(ticket, tier, mech);
        }
        self.attr_resolutions.clear();

        // 3½. Periodic metrics window.
        if self.tel.enabled() && self.now >= self.win_next {
            self.sample_window();
        }

        // 4. Event skip: if every core is stalled on memory, jump to the
        // next cycle at which something can happen: the earliest core
        // `wake_at` or channel wake. Skipping stays disabled while any core
        // is drained, preserving the cycle-by-cycle drain semantics of the
        // linear scan this replaced.
        if self.finished_count == 0 && runnable_next == 0 {
            self.skip(now);
        }
    }

    /// Phase 3 bookkeeping for core `i` right after its tick at `now`,
    /// given its `sleep_state`: count the tick, note a first crossing of the commit
    /// target, flag deferred writes, and reschedule the core: its `wake_at`
    /// becomes the next cycle while runnable, its wake event while
    /// asleep, `Cycle::MAX` once finished. The return value says the core
    /// is runnable next cycle.
    fn settle(&mut self, i: usize, now: Cycle, sleep: Option<Cycle>) -> bool {
        self.work.core_ticks += 1;
        if !self.crossed[i] && self.cores[i].committed() >= self.commit_target {
            self.crossed[i] = true;
            self.below_target -= 1;
            self.commit_crossed = true;
        }
        if self.hiers[i].has_deferred() {
            self.deferred_words[i / 64] |= 1 << (i % 64);
        }
        let (wake, runnable) = match sleep {
            None if self.cores[i].finished() => {
                self.finished_count += 1;
                (Cycle::MAX, false)
            }
            None => (now + 1, true),
            Some(e) => (e, e <= now + 1),
        };
        self.wake_at[i] = wake;
        runnable
    }

    /// Phase 4 of `step`: jump `now` to just before the next cycle that
    /// must be stepped, with results identical to the reference loop. That
    /// loop steps every cycle while some channel holds a request outside a
    /// refresh window, and otherwise jumps to the next core wake, read
    /// completion or refresh end. Where it would step every cycle, the
    /// jump goes to the first cycle at which anything can change: a core
    /// or channel wake (an idle channel's wake is its refresh, which that
    /// loop would have started on time), the metrics window or the next
    /// migration epoch. The cycles in between are no-ops there, except
    /// that they count in `steps`, so they are added to it. Where that
    /// loop jumps, or when a core just crossed its commit target (the run
    /// loop reads `now` next), the skip is the reference loop's own.
    fn skip(&mut self, now: Cycle) {
        // Every core was ticked and settled this step or sleeps past `now`,
        // and none is runnable, so each `wake_at` is its wake event (or
        // `Cycle::MAX`), all after `now`.
        let cores_next = self.wake_at.iter().copied().min().unwrap_or(Cycle::MAX);
        #[cfg(debug_assertions)]
        self.check_skip_against_scan(now, cores_next);
        let mut reference = cores_next;
        let mut wake = cores_next;
        for ch in &self.channels {
            reference = reference.min(ch.reference_step_after(now));
            wake = wake.min(ch.next_wake(now));
        }
        // The drain phase terminates through these events: every blocked
        // core waits on a channel completion or a core-local timer.
        // Neither pending means the machine can never advance — fail
        // loudly rather than spinning into the generic run watchdog.
        assert!(reference != Cycle::MAX, "{}", self.deadlock_report());
        let next = if reference == now + 1 && !self.commit_crossed {
            let window = if self.tel.enabled() {
                self.win_next
            } else {
                Cycle::MAX
            };
            let epoch = self
                .migrator
                .as_ref()
                .map_or(Cycle::MAX, Migrator::next_epoch);
            let next = wake.min(window).min(epoch);
            self.steps += next - now - 1;
            next
        } else {
            reference
        };
        if next > now + 1 {
            self.work.skips += 1;
            self.work.skipped_cycles += next - now - 1;
            self.now = next - 1;
        }
    }

    /// Differential check (debug builds only): the minimum `wake_at` must
    /// match a scan of every core's sleep state. Each channel's
    /// cached wake is checked against a fresh computation inside
    /// `Channel::next_wake`.
    #[cfg(debug_assertions)]
    fn check_skip_against_scan(&self, now: Cycle, cores_next: Cycle) {
        let mut next = Cycle::MAX;
        for (i, c) in self.cores.iter().enumerate() {
            match c.sleep_state(now) {
                // moca-lint: allow(panic-in-hot): debug-only differential oracle; divergence must abort
                None => panic!(
                    "core wakes diverged at cycle {now}: core {i} is runnable \
                     but the step loop counted no runnable cores"
                ),
                Some(e) => next = next.min(e),
            }
        }
        assert!(
            cores_next == next,
            "core wakes diverged from the sleep-state scan at cycle {now}: \
             wake_at says next core event at {cores_next}, scan says {next}"
        );
    }

    /// Build the event-skip deadlock panic message: per-core wait state and
    /// per-channel queue state, so the failure is debuggable from the panic
    /// alone. Cold failure path — called at most once per run, right before
    /// the panic aborts it.
    #[cold]
    fn deadlock_report(&self) -> String {
        use std::fmt::Write as _;
        let now = self.now;
        // moca-lint: allow(hot-alloc): deadlock failure path — builds the panic report once, then the run aborts
        let mut r = format!(
            "event-skip deadlock at cycle {now}: every core is blocked on memory \
             but no channel completion or core-local event is pending\n"
        );
        for (i, c) in self.cores.iter().enumerate() {
            let _ = writeln!(
                r,
                "  core {i}: committed {}, rob {} entries (head seq {:?}), wake_at {}, \
                 waiting on tickets {:?}, ifetch ticket {:?}",
                c.committed(),
                c.rob_len(),
                c.rob_head_seq(),
                self.wake_at[i],
                c.outstanding_tickets(),
                c.pending_ifetch_ticket(),
            );
        }
        for (ci, ch) in self.channels.iter().enumerate() {
            let _ = writeln!(
                r,
                "  channel {ci}: readq {}, writeq {}, idle {}",
                ch.read_queue_len(),
                ch.write_queue_len(),
                ch.is_idle(),
            );
        }
        r
    }

    /// Add this run's engine work counts to the telemetry registry (when
    /// telemetry is on) and start the next run's from zero.
    /// `reference_steps` is the cycles the reference loop would have
    /// stepped; its gap to `engine.steps_executed` is what exact channel
    /// wakes save.
    fn publish_work(&mut self, reference_steps: u64) {
        let w = std::mem::take(&mut self.work);
        if !self.tel.enabled() {
            return;
        }
        let reg = &mut self.tel.registry;
        for (name, v) in [
            ("engine.steps_executed", w.steps),
            ("engine.steps_reference", reference_steps),
            ("engine.skips", w.skips),
            ("engine.skipped_cycles", w.skipped_cycles),
            ("engine.channel_ticks", w.channel_ticks),
            ("engine.core_ticks", w.core_ticks),
        ] {
            let id = reg.counter(name);
            reg.add(id, v);
        }
    }

    /// Arm the step loop's commit-crossing detector for a new phase: every
    /// core is re-checked against `target` from its current committed count
    /// (warmup and measurement both count from a stats reset, so a fresh
    /// phase starts with every core below target).
    fn set_commit_target(&mut self, target: u64) {
        self.commit_target = target;
        self.below_target = 0;
        self.commit_crossed = false;
        for (i, core) in self.cores.iter().enumerate() {
            self.crossed[i] = core.committed() >= target;
            if !self.crossed[i] {
                self.below_target += 1;
            }
        }
        // A target some core already meets must still be seen by the freeze
        // scan on the first step.
        if self.cores.iter().any(|c| c.committed() >= target) {
            self.commit_crossed = true;
        }
    }

    /// Run until every core commits `instr_target` instructions; returns the
    /// full metrics bundle. Cores that reach the target keep executing (and
    /// contending for memory) until the slowest core finishes, but their
    /// statistics are frozen at the target — the usual multi-program
    /// simulation methodology.
    pub fn run(&mut self, instr_target: u64) -> RunResult {
        self.run_warmed(0, instr_target)
    }

    /// Set the phase-3 worker-thread count for subsequent runs (1 =
    /// sequential, the default). Results are bit-identical for every value
    /// — parallelism only changes which host thread executes a core's tick,
    /// never the order of shared-state operations.
    pub fn set_step_threads(&mut self, threads: usize) {
        self.step_threads = threads.max(1);
    }

    /// Fast-forward for `warmup` committed instructions per core (warming
    /// caches, TLBs, and page tables — the paper's SimPoint fast-forward),
    /// zero all statistics, then measure `instr_target` instructions.
    pub fn run_warmed(&mut self, warmup: u64, instr_target: u64) -> RunResult {
        let threads = self.step_threads.min(self.cores.len()).max(1);
        if threads <= 1 {
            return self.run_warmed_inner(warmup, instr_target, None);
        }
        let pool = StepPool::new(threads);
        // moca-lint: allow(wall-clock): host worker threads; the frontier protocol keeps results bit-identical
        std::thread::scope(|s| {
            for w in 1..threads {
                let pool = &pool;
                s.spawn(move || pool.worker_loop(w));
            }
            let r = self.run_warmed_inner(warmup, instr_target, Some(&pool));
            pool.shutdown();
            r
        })
    }

    fn run_warmed_inner(
        &mut self,
        warmup: u64,
        instr_target: u64,
        pool: Option<&StepPool>,
    ) -> RunResult {
        assert!(instr_target > 0);
        let n = self.cores.len();
        let steps_at_start = self.steps;
        let mut comps: Vec<Completion> = Vec::new();
        let mut mem = MemMetrics {
            per_core_read_latency: vec![0; n],
            ..MemMetrics::default()
        };
        // Generous watchdog: no workload needs more than ~4000 cycles per
        // instruction even fully serialized on LPDDR2.
        let watchdog = (warmup + instr_target).saturating_mul(4000).max(10_000_000);

        if warmup > 0 {
            // Metrics are discarded after warmup; suppress accumulation.
            self.measuring.iter_mut().for_each(|m| *m = false);
            self.set_commit_target(warmup);
            while self.below_target > 0 {
                self.step(&mut mem, &mut comps, pool);
                self.commit_crossed = false;
                assert!(self.now < watchdog, "warmup watchdog tripped");
            }
            self.measuring.iter_mut().for_each(|m| *m = true);
            for c in &mut self.cores {
                c.reset_stats();
            }
            for ch in &mut self.channels {
                ch.reset_stats();
            }
            mem = MemMetrics {
                per_core_read_latency: vec![0; n],
                ..MemMetrics::default()
            };
            // The resets zeroed the counters the window deltas are taken
            // against; restart the current window from here.
            self.rebaseline_windows();
            self.occupancy.clear();
        }
        let measure_start = self.now;
        self.sample_occupancy();

        type FrozenCore = (moca_cpu::CoreStats, Cycle, Option<AttrTagTable>);
        self.set_commit_target(instr_target);
        let mut frozen: Vec<Option<FrozenCore>> = vec![None; n];
        let mut remaining = n;
        while remaining > 0 {
            self.step(&mut mem, &mut comps, pool);
            assert!(self.now < watchdog, "simulation watchdog tripped");
            // The step loop sets `commit_crossed` when a ticked core first
            // reaches the target; scanning for cores to freeze on any other
            // cycle cannot find one.
            if !self.commit_crossed {
                continue;
            }
            self.commit_crossed = false;
            let mut newly_frozen = false;
            for (i, slot) in frozen.iter_mut().enumerate() {
                if slot.is_none() && self.cores[i].committed() >= instr_target {
                    #[cfg(debug_assertions)]
                    check_cpi_stack(i, self.cores[i].stats(), "at its freeze");
                    *slot = Some((
                        self.cores[i].stats().clone(),
                        self.now - measure_start,
                        self.cores[i].attr_snapshot(),
                    ));
                    newly_frozen = true;
                    remaining -= 1;
                    self.measuring[i] = false;
                    self.frozen[i] = true;
                    let committed = self.cores[i].committed();
                    self.tel.record(
                        self.now,
                        Event::CoreWindowFrozen {
                            core: i as u32,
                            committed,
                            window_cycles: self.now - measure_start,
                        },
                    );
                }
            }
            if newly_frozen {
                // Occupancy-timeline point at every core-freeze boundary, so
                // attributed runs get a timeline even without periodic
                // telemetry windows.
                self.sample_occupancy();
            }
        }

        // A frame mapped twice or left allocated without a mapping anywhere
        // in the run fails here, not only right after the prefault or a
        // migration epoch.
        #[cfg(debug_assertions)]
        {
            check_page_bookkeeping(&self.os, "at end of run");
            for (i, c) in self.cores.iter().enumerate() {
                check_cpi_stack(i, c.stats(), "at end of run");
            }
        }

        self.publish_work(self.steps - steps_at_start);

        let runtime = self.now - measure_start;
        mem.runtime_cycles = runtime;
        mem.channels = self
            .channels
            .iter()
            .map(|ch| ChannelReport {
                kind: ch.config().timing.kind,
                capacity_bytes: ch.config().capacity_bytes,
                stats: *ch.stats(),
                energy: ch.energy(runtime),
            })
            .collect();

        let per_core = frozen
            .into_iter()
            .zip(self.app_names.iter())
            .map(|(f, name)| {
                let (stats, finished_at, attr) = f.expect("all cores frozen");
                CoreResult {
                    app: name.clone(),
                    stats,
                    finished_at,
                    attr,
                }
            })
            .collect();

        RunResult {
            policy: self.os.policy_name().to_string(),
            mem_label: self.cfg.mem.label(),
            runtime_cycles: runtime,
            per_core,
            mem,
            placement: self.os.take_placement(),
            core_width: self.cfg.core.width,
            migration: self.migration_stats(),
            occupancy: if self.attr_enabled {
                Some(std::mem::take(&mut self.occupancy))
            } else {
                None
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemSystemConfig;
    use moca_common::ModuleKind;
    use moca_vm::policy::FirstTouchPolicy;
    use moca_workloads::app_by_name;

    fn run_app(name: &str, target: u64) -> RunResult {
        let cfg = SystemConfig::single_core(MemSystemConfig::Homogeneous(ModuleKind::Ddr3));
        let launch = AppLaunch::untyped(app_by_name(name), InputSet::reference());
        let mut sys = System::new(cfg, vec![launch], Box::new(FirstTouchPolicy));
        sys.run_warmed(target, target)
    }

    #[test]
    fn single_core_run_completes_and_reports() {
        let r = run_app("gcc", 40_000);
        assert_eq!(r.per_core.len(), 1);
        assert!(r.per_core[0].stats.committed >= 40_000);
        assert!(r.runtime_cycles > 0);
        assert!(r.placement.total_pages() > 0);
        assert!(r.mem.energy_j() > 0.0);
        assert_eq!(r.mem.channels.len(), 4);
    }

    /// A machine whose every core is blocked on memory while no channel
    /// completion or core-local event is pending must abort through the
    /// event-skip deadlock assert — with the diagnostic report — rather
    /// than spinning silently until the run watchdog fires.
    #[test]
    #[should_panic(expected = "event-skip deadlock")]
    fn lost_completions_trip_deadlock_assert() {
        let cfg = SystemConfig::single_core(MemSystemConfig::Homogeneous(ModuleKind::Ddr3));
        let launch = AppLaunch::untyped(app_by_name("mcf"), InputSet::reference());
        let mut sys = System::new(cfg, vec![launch], Box::new(FirstTouchPolicy));
        let mut mem = MemMetrics {
            per_core_read_latency: vec![0; 1],
            ..MemMetrics::default()
        };
        let mut comps = Vec::new();
        for _ in 0..200_000 {
            sys.step(&mut mem, &mut comps, None);
            // Wait for a cycle where the core is purely memory-blocked (no
            // core-local timer: its only wake event is a DRAM completion).
            if !sys.cores[0].finished() && sys.wake_at[0] == Cycle::MAX {
                // Lose the completions: swap in fresh, empty channels. The
                // core now waits on a read that will never return — a
                // modelling bug this assert must catch.
                for ch in &mut sys.channels {
                    *ch = Channel::new(ch.config().clone());
                }
                sys.step(&mut mem, &mut comps, None);
                unreachable!("the deadlocked step above must panic");
            }
        }
        unreachable!("no purely memory-blocked cycle found");
    }

    #[test]
    fn deterministic_repeat() {
        let a = run_app("mcf", 30_000);
        let b = run_app("mcf", 30_000);
        assert_eq!(a.runtime_cycles, b.runtime_cycles);
        assert_eq!(a.mem.reads, b.mem.reads);
        assert_eq!(
            a.mem.total_read_latency_cycles,
            b.mem.total_read_latency_cycles
        );
        assert_eq!(a.per_core[0].stats.committed, b.per_core[0].stats.committed);
        assert_eq!(
            a.per_core[0].stats.head_stall_cycles,
            b.per_core[0].stats.head_stall_cycles
        );
    }

    #[test]
    fn memory_intensive_app_misses_more_than_quiet_app() {
        let mcf = run_app("mcf", 60_000);
        let gcc = run_app("gcc", 300_000);
        assert!(
            mcf.per_core[0].stats.app_mpki() > 4.0 * gcc.per_core[0].stats.app_mpki(),
            "mcf MPKI {} vs gcc {}",
            mcf.per_core[0].stats.app_mpki(),
            gcc.per_core[0].stats.app_mpki()
        );
    }

    #[test]
    fn chase_app_stalls_more_per_miss_than_stream_app() {
        let mcf = run_app("mcf", 40_000);
        let lbm = run_app("lbm", 40_000);
        let s_mcf = mcf.per_core[0].stats.app_stall_per_miss();
        let s_lbm = lbm.per_core[0].stats.app_stall_per_miss();
        assert!(
            s_mcf > 2.0 * s_lbm,
            "mcf stall/miss {s_mcf:.1} vs lbm {s_lbm:.1}"
        );
    }

    #[test]
    fn quad_core_run_completes() {
        let cfg = SystemConfig::quad_core(MemSystemConfig::Homogeneous(ModuleKind::Ddr3));
        let launches = ["mcf", "lbm", "gcc", "sift"]
            .iter()
            .map(|n| AppLaunch::untyped(app_by_name(n), InputSet::reference()))
            .collect();
        let mut sys = System::new(cfg, launches, Box::new(FirstTouchPolicy));
        let r = sys.run(20_000);
        assert_eq!(r.per_core.len(), 4);
        for c in &r.per_core {
            assert!(c.stats.committed >= 20_000, "{} did not finish", c.app);
        }
        assert!(r.system_ipc() > 0.0);
        assert!(r.system_edp() > 0.0);
    }

    #[test]
    fn rldram_is_faster_than_lpddr_for_latency_app() {
        let mk = |kind| {
            let cfg = SystemConfig::single_core(MemSystemConfig::Homogeneous(kind));
            let launch = AppLaunch::untyped(app_by_name("mcf"), InputSet::reference());
            let mut sys = System::new(cfg, vec![launch], Box::new(FirstTouchPolicy));
            sys.run(30_000)
        };
        let rl = mk(ModuleKind::Rldram3);
        let lp = mk(ModuleKind::Lpddr2);
        assert!(
            rl.runtime_cycles < lp.runtime_cycles,
            "RLDRAM {} vs LPDDR {}",
            rl.runtime_cycles,
            lp.runtime_cycles
        );
        assert!(rl.mem.avg_read_latency() < lp.mem.avg_read_latency());
    }
}
