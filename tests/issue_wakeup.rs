//! Differential gate for the core's dependence wakeups.
//!
//! `Core::sleep_state` answers "can this core make progress now, and if
//! not, when next?" in O(1) from cached per-load dependence wake cycles
//! that producers write when they complete. `Core::blocked_on_memory` and
//! `Core::next_local_event` answer the same questions by walking the
//! waiting-load list against the ROB; they are the reference here.
//!
//! Seeded random streams (dependent chains, independent loads, stores,
//! mispredicting branches) drive a core through its public API against a
//! memory port that answers each load at random with a cache hit, a miss
//! completed some cycles later, or a structural retry. After every
//! completion batch and every tick, the O(1) answer must equal the
//! scan-based one, at `now` and at a few later cycles. A wrong "runnable"
//! or wake cycle would change which cycles the system steps, so it would
//! shift refresh timing and ROB-full counts in a full simulation.

use moca_common::ids::MemTag;
use moca_common::rng::DetRng;
use moca_common::{CoreId, Cycle, ObjectId, VirtAddr};
use moca_cpu::{Core, CoreConfig, Instr, MemPort, MemReply, StoreReply};

/// Memory port answering at random. Misses complete `1..=max_miss` cycles
/// after issue; hits report a latency that may already have passed.
struct RandomPort {
    rng: DetRng,
    next_ticket: u64,
    /// `(due cycle, ticket)` of outstanding misses.
    inflight: Vec<(Cycle, u64)>,
    max_miss: u64,
}

impl RandomPort {
    fn new(seed: u64, max_miss: u64) -> RandomPort {
        RandomPort {
            rng: DetRng::new(seed, 0x3a4e),
            next_ticket: 0,
            inflight: Vec::new(),
            max_miss,
        }
    }

    fn miss(&mut self, now: Cycle) -> MemReply {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        let due = now + 1 + self.rng.below(self.max_miss);
        self.inflight.push((due, ticket));
        MemReply::Pending {
            ticket,
            primary: self.rng.chance(0.7),
        }
    }

    /// Deliver every miss due at or before `now`, in ticket order.
    fn drain(&mut self, now: Cycle, core: &mut Core) {
        self.inflight.sort_unstable();
        while let Some(&(due, ticket)) = self.inflight.first() {
            if due > now {
                break;
            }
            self.inflight.remove(0);
            core.complete(ticket, now);
        }
    }

    fn next_due(&self) -> Cycle {
        self.inflight
            .iter()
            .map(|&(d, _)| d)
            .min()
            .unwrap_or(Cycle::MAX)
    }
}

impl MemPort for RandomPort {
    fn load(&mut self, now: Cycle, _core: CoreId, _va: VirtAddr, _tag: MemTag) -> MemReply {
        match self.rng.below(20) {
            0..=7 => MemReply::Done {
                ready_at: now + self.rng.below(30),
            },
            8..=16 => self.miss(now),
            _ => MemReply::Retry {
                mshr_full: self.rng.chance(0.5),
            },
        }
    }

    fn store(&mut self, _now: Cycle, _core: CoreId, _va: VirtAddr, _tag: MemTag) -> StoreReply {
        StoreReply {
            primary_miss: self.rng.chance(0.2),
        }
    }

    fn ifetch(&mut self, now: Cycle, _core: CoreId, _va: VirtAddr) -> MemReply {
        match self.rng.below(20) {
            0..=15 => MemReply::Done {
                ready_at: now + self.rng.below(4),
            },
            16..=17 => self.miss(now),
            _ => MemReply::Retry { mshr_full: false },
        }
    }
}

/// A seeded instruction mix: pointer-chasing chains, independent loads,
/// stores, and branches that sometimes mispredict or jump.
fn random_stream(seed: u64, len: usize) -> Vec<Instr> {
    let mut rng = DetRng::new(seed, 0x57e4);
    (0..len)
        .map(|_| {
            let va = VirtAddr(0x2000_0000 + rng.below(1 << 16) * 64);
            let tag = MemTag::heap(ObjectId(rng.below(4) as u32));
            match rng.below(20) {
                0..=5 => Instr::Compute,
                6..=7 => Instr::Branch {
                    mispredict: rng.chance(0.3),
                    target: rng
                        .chance(0.3)
                        .then(|| VirtAddr(0x0040_0000 + rng.below(1 << 12) * 4)),
                },
                8..=13 => Instr::Load {
                    va,
                    tag,
                    dependent: true,
                    chain: rng.below(3) as u16,
                },
                14..=17 => Instr::Load {
                    va,
                    tag,
                    dependent: false,
                    chain: rng.below(3) as u16,
                },
                _ => Instr::Store { va, tag },
            }
        })
        .collect()
}

/// The O(1) sleep query must equal the scan-based reference at `at`.
fn check(core: &Core, at: Cycle, ctx: &str) {
    let fast = core.sleep_state(at);
    let blocked = core.blocked_on_memory(at);
    assert_eq!(
        fast.is_some(),
        blocked,
        "{ctx}: sleep_state({at}) = {fast:?} but blocked_on_memory = {blocked}"
    );
    if fast.is_some() {
        let wake = core.next_local_event(at).unwrap_or(Cycle::MAX);
        assert_eq!(
            fast,
            Some(wake),
            "{ctx}: sleep_state({at}) wake cycle vs next_local_event"
        );
    }
}

/// Run one seeded core to completion, checking the sleep query on every
/// cycle it is stepped. Cycles on which the core sleeps are skipped to its
/// next wake or miss completion, the way the system's event skip does.
fn run_seed(seed: u64, len: usize, cfg: CoreConfig, max_miss: u64) {
    let instrs = random_stream(seed, len);
    let mut stream = instrs.into_iter();
    let mut port = RandomPort::new(seed, max_miss);
    let mut core = Core::new(CoreId(0), cfg);
    let mut probe = DetRng::new(seed, 0x9b0e);
    let mut now: Cycle = 0;
    let limit = len as Cycle * (max_miss + 40) + 10_000;
    while !core.finished() {
        now += 1;
        assert!(now < limit, "seed {seed}: core did not finish by {limit}");
        port.drain(now, &mut core);
        check(&core, now, &format!("seed {seed} after completions"));
        core.tick(now, &mut port, &mut stream);
        let ctx = format!("seed {seed} after tick");
        check(&core, now, &ctx);
        check(&core, now + 1, &ctx);
        check(&core, now + 1 + probe.below(64), &ctx);
        if let Some(wake) = core.sleep_state(now) {
            let next = wake.min(port.next_due());
            if next != Cycle::MAX && next > now + 1 {
                now = next - 1;
            }
        }
    }
    assert_eq!(
        core.committed(),
        len as u64,
        "seed {seed}: lost instructions"
    );
}

#[test]
fn sleep_state_matches_scan_on_random_streams() {
    for seed in 0..12 {
        run_seed(0x1550_e000 + seed, 6_000, CoreConfig::default(), 300);
    }
}

/// Small structures force the ROB-full and LQ-full paths; short misses keep
/// producers completing while their waiters are still queued behind them.
#[test]
fn sleep_state_matches_scan_under_structural_pressure() {
    let cfg = CoreConfig {
        rob_entries: 12,
        lq_entries: 4,
        ..CoreConfig::default()
    };
    for seed in 0..12 {
        run_seed(0x1550_f000 + seed, 4_000, cfg.clone(), 40);
    }
}
