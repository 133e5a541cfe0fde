//! Deterministic intra-run parallel core stepping.
//!
//! `System::step` phase 3 (the per-core pipeline ticks) can fan out across a
//! persistent pool of worker threads. The result is **bit-identical to the
//! sequential step loop for any thread count**, by construction:
//!
//! * Per-core state (the core, its cache hierarchy, its instruction stream,
//!   its ticket counter, its TLB and page table inside [`Os`]) is touched
//!   only by the worker that owns that core this cycle — cores are
//!   partitioned round-robin over the cycle's awake list, so ownership is
//!   disjoint.
//! * Shared state (the DRAM channels, the OS frame allocator on page
//!   faults, telemetry) is only reachable through the [`MemPort`] methods,
//!   and every port call gates on a *frontier*: position `p` in the awake
//!   list may touch shared state only after every position `< p` has
//!   finished its entire tick. The global order of shared-state operations
//!   is therefore exactly the sequential order, and the gate also makes the
//!   accesses temporally exclusive (no two workers are past the gate at
//!   once), so no locks are needed.
//!
//! The protocol trades parallelism for exactness: a core's pipeline
//! bookkeeping (ROB, issue/commit, workload generation, skipped-window
//! catch-up) overlaps with its predecessors' memory traffic, but the memory
//! operations themselves serialize. Waits are spin-then-yield so the scheme
//! degrades gracefully when the host has fewer CPUs than threads.
//!
//! Parallel stepping is strictly opt-in through `System::set_step_threads`;
//! a new `System` steps on one thread and the sequential path has zero
//! overhead. No command-line flag or environment variable reaches it: on a
//! 2-CPU host two step threads ran about 2× slower than one, because the
//! frontier serializes every `MemPort` call. The engine stays only because
//! the benchmark package calls `set_step_threads(1)` on every machine it
//! builds and a benchmark test checks that `set_step_threads(2)` spawns
//! threads; deleting it needs a change to the benchmark that drops those
//! calls first.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use crate::hierarchy::CoreHierarchy;
use crate::os::Os;
use crate::system::Port;
use moca_common::ids::MemTag;
use moca_common::{CoreId, Cycle, VirtAddr};
use moca_cpu::{Core, MemPort, MemReply, StoreReply};
use moca_dram::{AddressMapper, Channel};
use moca_telemetry::Telemetry;
use moca_workloads::AppRun;

/// Spin briefly, then yield: correct on hosts with fewer CPUs than threads
/// (a pure spin would burn whole scheduler quanta waiting for a descheduled
/// peer).
#[inline]
fn relax(spins: &mut u32) {
    *spins += 1;
    if *spins > 64 {
        std::thread::yield_now();
    } else {
        std::hint::spin_loop();
    }
}

/// The shared-state gate: the index of the lowest position in this cycle's
/// awake list whose tick has not finished. Position `p` may touch shared
/// state once the frontier reaches `p`.
pub(crate) struct Frontier(AtomicUsize);

impl Frontier {
    fn new() -> Frontier {
        Frontier(AtomicUsize::new(0))
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Release);
    }

    /// Block until every position `< pos` has finished its tick.
    #[inline]
    pub(crate) fn wait(&self, pos: usize) {
        let mut spins = 0;
        while self.0.load(Ordering::Acquire) != pos {
            relax(&mut spins);
        }
    }

    /// Mark position `pos` finished (caller must have waited on `pos`).
    #[inline]
    pub(crate) fn advance(&self, pos: usize) {
        self.0.store(pos + 1, Ordering::Release);
    }
}

/// Outcome of one core's tick, recorded by the owning worker and replayed
/// serially (in core order) by the bookkeeping pass on the main thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub(crate) enum SleepSlot {
    /// Runnable next cycle.
    #[default]
    Runnable,
    /// Stream drained and pipeline empty.
    Finished,
    /// Blocked until the given wake event.
    Sleep(Cycle),
}

/// Raw-parts view of everything phase 3 touches, captured from `&mut System`
/// for the duration of one cycle's fan-out. Per-core pointers are indexed
/// only at indices owned by the accessing worker; shared pointers are
/// dereferenced only past the frontier gate (see the module docs for why
/// that makes every access exclusive).
#[derive(Clone, Copy)]
pub(crate) struct TickCtx {
    pub cores: *mut Core,
    pub hiers: *mut CoreHierarchy,
    pub streams: *mut AppRun,
    pub tickets: *mut u64,
    pub steps_at_tick: *mut u64,
    pub committed: *mut u64,
    pub sleeps: *mut SleepSlot,
    pub hier_deferred: *mut bool,
    pub awake: *const usize,
    pub awake_len: usize,
    pub channels: *mut Channel,
    pub channels_len: usize,
    pub mapper: *const AddressMapper,
    pub os: *mut Os,
    pub tel: *mut Telemetry,
    pub now: Cycle,
    pub steps: u64,
}

unsafe impl Send for TickCtx {}
unsafe impl Sync for TickCtx {}

impl TickCtx {
    /// Materialize the sequential [`Port`] for core `i`. Caller must hold
    /// the frontier for its position (shared parts) and own core `i`
    /// (per-core parts).
    ///
    /// # Safety
    /// See the module docs: disjoint per-core ownership plus the frontier's
    /// temporal exclusivity make every reference unique while it lives.
    unsafe fn port(&self, i: usize) -> Port<'_> {
        Port {
            hier: &mut *self.hiers.add(i),
            channels: std::slice::from_raw_parts_mut(self.channels, self.channels_len),
            mapper: &*self.mapper,
            os: &mut *self.os,
            core_idx: i,
            tickets: &mut *self.tickets.add(i),
            tel: &mut *self.tel,
        }
    }
}

/// [`MemPort`] adapter that waits for the frontier before the first
/// shared-state operation of a tick. The frontier is monotonic within a
/// cycle, so one successful wait covers the rest of the tick.
struct GatedPort<'a> {
    ctx: &'a TickCtx,
    frontier: &'a Frontier,
    pos: usize,
    core_idx: usize,
    gated: bool,
}

impl GatedPort<'_> {
    #[inline]
    fn gate(&mut self) {
        if !self.gated {
            self.frontier.wait(self.pos);
            self.gated = true;
        }
    }
}

impl MemPort for GatedPort<'_> {
    fn load(&mut self, now: Cycle, core: CoreId, va: VirtAddr, tag: MemTag) -> MemReply {
        self.gate();
        unsafe { self.ctx.port(self.core_idx) }.load(now, core, va, tag)
    }

    fn store(&mut self, now: Cycle, core: CoreId, va: VirtAddr, tag: MemTag) -> StoreReply {
        self.gate();
        unsafe { self.ctx.port(self.core_idx) }.store(now, core, va, tag)
    }

    fn ifetch(&mut self, now: Cycle, core: CoreId, va: VirtAddr) -> MemReply {
        self.gate();
        unsafe { self.ctx.port(self.core_idx) }.ifetch(now, core, va)
    }
}

/// Tick every awake core owned by `worker` (round-robin partition of the
/// awake list), in ascending position order, honouring the frontier.
///
/// # Safety
/// `ctx` must point into a live `System` whose phase-3 state is untouched
/// by anything else for the duration of the call, and every participating
/// worker must use the same `ctx`, `frontier`, and `threads`.
pub(crate) unsafe fn worker_body(
    ctx: &TickCtx,
    frontier: &Frontier,
    worker: usize,
    threads: usize,
) {
    let mut p = worker;
    while p < ctx.awake_len {
        let i = *ctx.awake.add(p);
        let core = &mut *ctx.cores.add(i);
        let stream = &mut *ctx.streams.add(i);
        // Cycles on which the machine stepped while this core slept (the
        // ungated loop would have ticked it on those): see `System::step`.
        let skipped_live = ctx.steps - *ctx.steps_at_tick.add(i) - 1;
        *ctx.steps_at_tick.add(i) = ctx.steps;
        let mut port = GatedPort {
            ctx,
            frontier,
            pos: p,
            core_idx: i,
            gated: false,
        };
        core.tick_gated(ctx.now, skipped_live, &mut port, stream);
        *ctx.committed.add(i) = core.committed();
        *ctx.hier_deferred.add(i) = (*ctx.hiers.add(i)).has_deferred();
        *ctx.sleeps.add(i) = match core.sleep_state(ctx.now) {
            None if core.finished() => SleepSlot::Finished,
            None => SleepSlot::Runnable,
            Some(e) => SleepSlot::Sleep(e),
        };
        // A tick with no memory traffic never waited; the frontier still
        // has to pass through this position exactly once.
        frontier.wait(p);
        frontier.advance(p);
        p += threads;
    }
}

/// Persistent worker pool for one `run_warmed` invocation. Workers park on
/// a generation counter between cycles; the main thread publishes a
/// [`TickCtx`], bumps the generation, works position stripe 0 itself, and
/// waits for the others.
pub(crate) struct StepPool {
    threads: usize,
    /// Cycle generation; bumped (Release) after `ctx` is published.
    go: AtomicU64,
    /// Workers finished with the current generation.
    done: AtomicUsize,
    stop: AtomicBool,
    frontier: Frontier,
    ctx: UnsafeCell<Option<TickCtx>>,
}

// The UnsafeCell is written only by the main thread before the generation
// bump and read only by workers after observing it (Release/Acquire pair).
unsafe impl Sync for StepPool {}

impl StepPool {
    pub(crate) fn new(threads: usize) -> StepPool {
        assert!(threads >= 2, "a pool below two threads is pointless");
        StepPool {
            threads,
            go: AtomicU64::new(0),
            done: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            frontier: Frontier::new(),
            ctx: UnsafeCell::new(None),
        }
    }

    /// Fan one cycle's phase 3 out across the pool. Blocks until every
    /// worker has finished its stripe.
    ///
    /// # Safety
    /// As for [`worker_body`]; additionally the caller must be the single
    /// main thread driving this pool.
    pub(crate) unsafe fn run_cycle(&self, ctx: TickCtx) {
        self.frontier.reset();
        self.done.store(0, Ordering::Release);
        *self.ctx.get() = Some(ctx);
        self.go.fetch_add(1, Ordering::Release);
        worker_body(&ctx, &self.frontier, 0, self.threads);
        let mut spins = 0;
        while self.done.load(Ordering::Acquire) < self.threads - 1 {
            relax(&mut spins);
        }
    }

    /// Body of worker `worker` (1-based stripe; stripe 0 is the main
    /// thread). Returns when [`StepPool::shutdown`] is called.
    pub(crate) fn worker_loop(&self, worker: usize) {
        let mut seen = 0u64;
        loop {
            let mut spins = 0;
            let g = loop {
                if self.stop.load(Ordering::Acquire) {
                    return;
                }
                let g = self.go.load(Ordering::Acquire);
                if g != seen {
                    break g;
                }
                relax(&mut spins);
            };
            seen = g;
            let ctx = unsafe { (*self.ctx.get()).expect("ctx published before generation bump") };
            unsafe { worker_body(&ctx, &self.frontier, worker, self.threads) };
            self.done.fetch_add(1, Ordering::Release);
        }
    }

    pub(crate) fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_orders_positions() {
        let f = Frontier::new();
        f.wait(0);
        f.advance(0);
        f.wait(1);
        f.advance(1);
        f.wait(2);
    }
}
