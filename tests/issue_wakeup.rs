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
//!
//! The same runs check the issue stage, which walks only the loads whose
//! dependence wake cycle is known. Loads must reach the port in dispatch
//! order within each tick, and a tick that issued fewer than `width` loads
//! without a retry must leave no issuable load behind (by the scan-based
//! `Core::resolved_loads`). Each load's address encodes its position in
//! the stream, which is its sequence number.

use moca_common::ids::MemTag;
use moca_common::rng::DetRng;
use moca_common::{CoreId, Cycle, ObjectId, VirtAddr};
use moca_cpu::{Core, CoreConfig, Instr, MemPort, MemReply, StoreReply};

/// Memory port answering at random. Misses complete `1..=max_miss` cycles
/// after issue; hits report a latency that may already have passed. Of
/// every 20 loads, 8 hit, `retries` get a structural retry and the rest
/// miss.
struct RandomPort {
    rng: DetRng,
    next_ticket: u64,
    /// `(due cycle, ticket)` of outstanding misses.
    inflight: Vec<(Cycle, u64)>,
    max_miss: u64,
    retries: u64,
    /// Loads the port has seen, in arrival order: `(cycle, address)`.
    arrivals: Vec<(Cycle, VirtAddr)>,
    /// Cycle of the last `Retry` answered to a load.
    last_retry: Option<Cycle>,
}

impl RandomPort {
    fn new(seed: u64, max_miss: u64, retries: u64) -> RandomPort {
        RandomPort {
            rng: DetRng::new(seed, 0x3a4e),
            next_ticket: 0,
            inflight: Vec::new(),
            max_miss,
            retries,
            arrivals: Vec::new(),
            last_retry: None,
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
    fn load(&mut self, now: Cycle, _core: CoreId, va: VirtAddr, _tag: MemTag) -> MemReply {
        self.arrivals.push((now, va));
        match self.rng.below(20) {
            0..=7 => MemReply::Done {
                ready_at: now + self.rng.below(30),
            },
            r if r < 20 - self.retries => self.miss(now),
            _ => {
                self.last_retry = Some(now);
                MemReply::Retry {
                    mshr_full: self.rng.chance(0.5),
                }
            }
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

/// Base of the heap addresses [`random_stream`] gives out.
const HEAP: u64 = 0x2000_0000;

/// A seeded instruction mix: pointer-chasing chains, independent loads,
/// stores, and branches that sometimes mispredict or jump. Instruction `i`
/// touches `HEAP + 64 i`, so a load's address names its sequence number.
fn random_stream(seed: u64, len: usize) -> Vec<Instr> {
    let mut rng = DetRng::new(seed, 0x57e4);
    (0..len as u64)
        .map(|i| {
            let va = VirtAddr(HEAP + i * 64);
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

/// Issue-stage checks for the tick at `now`, whose loads are
/// `port.arrivals[from..]`: they arrived in dispatch order, and unless the
/// tick issued `width` loads or hit a retry, none of the loads that were
/// waiting before it (sequence numbers below `before`) is left issuable.
fn check_issue(
    core: &Core,
    port: &RandomPort,
    from: usize,
    now: Cycle,
    cfg: &CoreConfig,
    before: u64,
    ctx: &str,
) {
    let seqs: Vec<u64> = port.arrivals[from..]
        .iter()
        .map(|&(at, va)| {
            assert_eq!(at, now, "{ctx}: load arrived outside its tick");
            (va.0 - HEAP) / 64
        })
        .collect();
    assert!(
        seqs.windows(2).all(|p| p[0] < p[1]),
        "{ctx}: loads reached the port out of dispatch order: {seqs:?}"
    );
    if seqs.len() < cfg.width && port.last_retry != Some(now) {
        let left: Vec<u64> = core.resolved_loads(now).filter(|&s| s < before).collect();
        assert!(
            left.is_empty(),
            "{ctx}: issue stopped after {} loads with issuable loads {left:?} left",
            seqs.len()
        );
    }
}

/// Run one seeded core to completion, checking the sleep query and the
/// issue stage on every cycle it is stepped. Cycles on which the core
/// sleeps are skipped to its next wake or miss completion, the way the
/// system's event skip does.
fn run_seed(seed: u64, instrs: Vec<Instr>, cfg: CoreConfig, max_miss: u64, retries: u64) {
    let len = instrs.len();
    let mut stream = instrs.into_iter();
    let mut port = RandomPort::new(seed, max_miss, retries);
    let mut core = Core::new(CoreId(0), cfg.clone());
    let mut probe = DetRng::new(seed, 0x9b0e);
    let mut now: Cycle = 0;
    let limit = len as Cycle * (max_miss + 40) + 10_000;
    while !core.finished() {
        now += 1;
        assert!(now < limit, "seed {seed}: core did not finish by {limit}");
        port.drain(now, &mut core);
        check(&core, now, &format!("seed {seed} after completions"));
        // Sequence numbers are consecutive over the ROB, so this is the
        // first one the tick can dispatch.
        let before = core.rob_head_seq().map_or(0, |h| h + core.rob_len() as u64);
        let from = port.arrivals.len();
        core.tick(now, &mut port, &mut stream);
        let ctx = format!("seed {seed} after tick {now}");
        check_issue(&core, &port, from, now, &cfg, before, &ctx);
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
        let seed = 0x1550_e000 + seed;
        run_seed(
            seed,
            random_stream(seed, 6_000),
            CoreConfig::default(),
            300,
            3,
        );
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
        let seed = 0x1550_f000 + seed;
        run_seed(seed, random_stream(seed, 4_000), cfg.clone(), 40, 3);
    }
}

/// A wide core with the largest load queue the waiting-load mask holds.
/// Every load joins one dependence chain and half the load replies are
/// retries, so the chain parks behind a retrying head and the waiting list
/// often holds all 64 loads: one known head, 63 parked.
#[test]
fn issue_stage_matches_scan_at_full_mask_width() {
    let cfg = CoreConfig {
        width: 6,
        rob_entries: 192,
        lq_entries: 64,
        ..CoreConfig::default()
    };
    for seed in 0..8 {
        let seed = 0x1551_0000 + seed;
        let one_chain = random_stream(seed, 2_000)
            .into_iter()
            .map(|i| match i {
                Instr::Load { va, tag, .. } => Instr::Load {
                    va,
                    tag,
                    dependent: true,
                    chain: 0,
                },
                other => other,
            })
            .collect();
        run_seed(seed, one_chain, cfg.clone(), 40, 10);
    }
}
