//! The reference for [`Channel::next_wake`]: a clone of the channel ticked
//! on every cycle before its wake must not change, and ticked at the wake
//! it must.
//!
//! Each device kind is driven for 100k cycles by seeded random traffic:
//! read and write bursts (sequential and scattered, so row hits and bank
//! conflicts both occur), write bursts long enough to cross the
//! write-drain marks, quiet stretches that leave the channel idle across a
//! refresh, and page-copy traffic that pushes the bus past the run-ahead
//! horizon. After every tick that reports `wake > now + 1`, a clone runs
//! the ungated tick body on each cycle of `(now, wake)` and must deliver
//! nothing and keep every piece of simulated state; its tick at `wake`
//! must change some. A second channel runs the ungated body on every
//! cycle with the same traffic and must match the gated one throughout.

use super::*;
use moca_common::rng::DetRng;
use moca_common::{Segment, MB};

const CYCLES: Cycle = 100_000;

/// Everything a tick can change, except the wake bookkeeping itself.
type SimState<'a> = (
    &'a [BankState],
    &'a VecDeque<Queued>,
    &'a VecDeque<Queued>,
    &'a [InFlight],
    [Cycle; 4],
    bool,
    &'a ChannelStats,
    &'a [u64],
);

fn sim_state(ch: &Channel) -> SimState<'_> {
    (
        &ch.banks,
        &ch.readq,
        &ch.writeq,
        &ch.inflight,
        [
            ch.min_inflight_finish,
            ch.bus_free_at,
            ch.next_refresh_at,
            ch.refresh_until,
        ],
        ch.drain_writes,
        &ch.stats,
        &ch.bank_activates,
    )
}

/// What the random traffic exercised, so a generator change that stops
/// reaching a regime fails loudly instead of passing vacuously.
#[derive(Debug, Default)]
struct Coverage {
    /// Ticks after which the wake lay beyond the next cycle.
    gaps: u64,
    /// Of those, with work queued inside a refresh window.
    queued_in_refresh: u64,
    /// With work queued and the bus reserved beyond the run-ahead horizon.
    queued_past_horizon: u64,
    /// With work queued, outside both, so waiting on a bank.
    queued_on_bank: u64,
    /// Idle, so the wake is the next refresh.
    idle: u64,
    /// Drain flag turned on / off.
    drain_on: u64,
    drain_off: u64,
}

/// Traffic regime, redrawn every 2000 cycles.
#[derive(Clone, Copy)]
enum Phase {
    Quiet,
    Latency,
    Stream,
    WriteBurst,
    Mixed,
    Copy,
}

struct Traffic {
    rng: DetRng,
    phase: Phase,
    /// Requests generated but not yet accepted (the channel was full).
    pending: VecDeque<(AccessKind, u64)>,
    span_lines: u64,
    next_line: u64,
    token: u64,
}

impl Traffic {
    fn new(timing: &DeviceTiming, seed: u64) -> Traffic {
        // A few rows per bank: enough reuse for row hits, enough spread
        // for bank conflicts.
        let span = timing.row_buffer_bytes * timing.banks as u64 * 4;
        Traffic {
            rng: DetRng::new(seed, 0),
            phase: Phase::Quiet,
            pending: VecDeque::new(),
            span_lines: (span / 64).max(16),
            next_line: 0,
            token: 0,
        }
    }

    fn burst(&mut self, kind: AccessKind, len: u64, sequential: bool) {
        for _ in 0..len {
            let line = if sequential {
                self.next_line += 1;
                self.next_line % self.span_lines
            } else {
                self.rng.below(self.span_lines)
            };
            self.pending.push_back((kind, line * 64));
        }
    }

    /// Generate this cycle's traffic, then hand the channel what it accepts
    /// (at most four requests a cycle, in order). Generation pauses while
    /// 48 requests wait, so a saturating phase cannot keep the bus busy
    /// (and refresh starved) for the rest of the run.
    fn drive(&mut self, now: Cycle, ch: &mut Channel, twin: &mut Channel) {
        if now % 2000 == 1 {
            self.phase = match self.rng.below(6) {
                0 => Phase::Quiet,
                1 => Phase::Latency,
                2 => Phase::Stream,
                3 => Phase::WriteBurst,
                4 => Phase::Mixed,
                _ => Phase::Copy,
            };
        }
        let r = if self.pending.len() < 48 {
            self.rng.unit()
        } else {
            1.0
        };
        match self.phase {
            Phase::Quiet => {
                if r < 0.001 {
                    self.burst(AccessKind::Read, 1, false);
                }
            }
            Phase::Latency => {
                if r < 0.02 {
                    self.burst(AccessKind::Read, 1, false);
                }
            }
            Phase::Stream => {
                if r < 0.01 {
                    let len = 4 + self.rng.below(28);
                    self.burst(AccessKind::Read, len, true);
                }
            }
            Phase::WriteBurst => {
                if r < 0.01 {
                    let len = 20 + self.rng.below(13);
                    let sequential = self.rng.chance(0.5);
                    self.burst(AccessKind::Write, len, sequential);
                }
            }
            Phase::Mixed => {
                if r < 0.05 {
                    let kind = if self.rng.chance(0.4) {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    let len = 1 + self.rng.below(8);
                    let sequential = self.rng.chance(0.3);
                    self.burst(kind, len, sequential);
                }
            }
            Phase::Copy => {
                if r < 0.002 {
                    let lines = 8 + self.rng.below(56);
                    ch.inject_copy_traffic(now, lines, lines);
                    twin.inject_copy_traffic(now, lines, lines);
                } else if r < 0.02 {
                    self.burst(AccessKind::Read, 1, false);
                }
            }
        }
        let mut accepted = 0;
        while let Some(&(kind, local_off)) = self.pending.front() {
            if accepted == 4 || !ch.can_accept(kind) {
                break;
            }
            self.pending.pop_front();
            self.token += 1;
            let req = MemRequest {
                token: self.token,
                line: LineAddr(local_off / 64),
                local_off,
                kind,
                core: CoreId(0),
                tag: MemTag::segment(Segment::Data),
            };
            ch.enqueue(now, req);
            twin.enqueue(now, req);
            accepted += 1;
        }
    }
}

/// After a tick at `now`: if the wake lies beyond `now + 1`, every ungated
/// tick before it must be a no-op and the one at it must not.
fn check_gap(ch: &Channel, now: Cycle, cov: &mut Coverage) {
    let wake = ch.next_wake(now);
    assert!(wake > now, "wake {wake} not after the tick at {now}");
    if wake == now + 1 || wake == Cycle::MAX {
        return;
    }
    cov.gaps += 1;
    let queued = !ch.readq.is_empty() || !ch.writeq.is_empty();
    if ch.is_idle() {
        cov.idle += 1;
    } else if queued && ch.refresh_until > now {
        cov.queued_in_refresh += 1;
    } else if queued && ch.bus_free_at > now + ch.reserve_horizon {
        cov.queued_past_horizon += 1;
    } else if queued {
        cov.queued_on_bank += 1;
    }
    let mut clone = ch.clone();
    let mut out = Vec::new();
    for t in now + 1..wake {
        clone.tick_impl(t, &mut out, None);
        assert!(out.is_empty(), "read delivered at {t}, before wake {wake}");
        assert_eq!(
            sim_state(&clone),
            sim_state(ch),
            "tick at {t} changed state before wake {wake} (computed at {now})"
        );
    }
    clone.tick_impl(wake, &mut out, None);
    assert_ne!(
        sim_state(&clone),
        sim_state(ch),
        "tick at wake {wake} (computed at {now}) changed nothing"
    );
}

fn run_oracle(timing: DeviceTiming, write_queue: usize, seed: u64) -> Coverage {
    let cfg = ChannelConfig {
        write_queue,
        ..ChannelConfig::new(timing, 64 * MB)
    };
    let mut ch = Channel::new(cfg.clone());
    let mut twin = Channel::new(cfg);
    let mut traffic = Traffic::new(&ch.cfg.timing, seed);
    let mut cov = Coverage::default();
    let mut out = Vec::new();
    let mut twin_out = Vec::new();
    for now in 1..=CYCLES {
        let was_draining = ch.drain_writes;
        let ran = !ch.asleep(now);
        ch.tick(now, &mut out);
        twin.tick_impl(now, &mut twin_out, None);
        assert_eq!(
            out.iter().map(|c| (c.token, c.finish)).collect::<Vec<_>>(),
            twin_out
                .iter()
                .map(|c| (c.token, c.finish))
                .collect::<Vec<_>>(),
            "gated and ungated channels delivered different reads at {now}"
        );
        assert_eq!(
            sim_state(&ch),
            sim_state(&twin),
            "gated channel diverged from the ungated one at {now}"
        );
        out.clear();
        twin_out.clear();
        cov.drain_on += u64::from(!was_draining && ch.drain_writes);
        cov.drain_off += u64::from(was_draining && !ch.drain_writes);
        if ran {
            check_gap(&ch, now, &mut cov);
        }
        traffic.drive(now, &mut ch, &mut twin);
        // Debug builds check a clean channel's cached wake against a fresh
        // computation here, so copy traffic must have kept it exact.
        ch.next_wake(now);
    }
    assert!(
        ch.stats.refreshes >= 10,
        "only {} refreshes",
        ch.stats.refreshes
    );
    cov
}

fn check_kind(timing: DeviceTiming, write_queue: usize, seed: u64) {
    let cov = run_oracle(timing, write_queue, seed);
    assert!(cov.gaps >= 1000, "{cov:?}");
    assert!(cov.queued_in_refresh > 0, "{cov:?}");
    assert!(cov.queued_past_horizon > 0, "{cov:?}");
    assert!(cov.queued_on_bank > 0, "{cov:?}");
    assert!(cov.idle > 0, "{cov:?}");
    assert!(cov.drain_on >= 2 && cov.drain_off >= 2, "{cov:?}");
}

// DDR3 and HBM run the standard 32-entry write queue. RLDRAM3 and LPDDR2
// run 2- and 3-entry ones, where the low drain mark is 0: a write
// burst can then leave the drain flag set on an idle channel, which must
// keep it until work arrives.

#[test]
fn ddr3_wake_is_exact() {
    check_kind(DeviceTiming::ddr3(), 32, 0xD3);
}

#[test]
fn rldram3_wake_is_exact() {
    check_kind(DeviceTiming::rldram3(), 2, 0x2D);
}

#[test]
fn hbm_wake_is_exact() {
    check_kind(DeviceTiming::hbm(), 32, 0x4B);
}

#[test]
fn lpddr2_wake_is_exact() {
    check_kind(DeviceTiming::lpddr2(), 3, 0x1B);
}
