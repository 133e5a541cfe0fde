//! FR-FCFS memory-channel controller.
//!
//! One [`Channel`] models a dedicated memory controller plus the device banks
//! behind it (the paper gives every module its own controller, §V-C). The
//! scheduler implements First-Ready, First-Come-First-Served (Table I):
//! row-buffer hits are served before older row misses; among equals the
//! oldest wins. Writes are buffered in a separate queue and drained with
//! hysteresis so they do not sit in front of latency-critical reads.
//!
//! Command timing (tRCD/tRAS/tRC/tRP/tCL) is enforced per bank; the shared
//! data bus serializes bursts; refresh blocks the channel for `tRFC` every
//! `tREFI`. Bank preparation overlaps with in-flight data transfers up to a
//! bounded reservation horizon, which is what gives bandwidth-optimized
//! devices their streaming throughput (bank-level parallelism).
//!
//! Every executed tick ends by computing the channel's *wake*: the first
//! cycle at which another tick could change any state. [`Channel::tick`]
//! returns at once before that cycle, so a channel waiting on a bank, the
//! bus or a refresh costs nothing until it can act, and the step loop
//! skips the cycles in between (see `System::step`).

use crate::mapping::decode_local;
use crate::power::EnergyBreakdown;
use crate::timing::DeviceTiming;
use moca_common::ids::MemTag;
use moca_common::{AccessKind, CoreId, Cycle, LineAddr};
use moca_telemetry::{Event, Telemetry};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A request as seen by a channel (already mapped to a channel-local offset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Caller-chosen token returned in the [`Completion`].
    pub token: u64,
    /// Global physical line address (for statistics only).
    pub line: LineAddr,
    /// Channel-local byte offset (from the address mapper).
    pub local_off: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// Requesting core.
    pub core: CoreId,
    /// Attribution tag (object / segment).
    pub tag: MemTag,
}

/// Completion record for a read request.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Token from the original request.
    pub token: u64,
    /// Requesting core.
    pub core: CoreId,
    /// Attribution tag.
    pub tag: MemTag,
    /// Physical line serviced (lets the OS-level migration engine track
    /// per-page heat without a reverse token map).
    pub line: LineAddr,
    /// Cycle at which the data burst finished.
    pub finish: Cycle,
    /// Cycles spent waiting in the read queue.
    pub queue_cycles: Cycle,
    /// Cycles from scheduling to data delivery (bank prep + bus + burst).
    pub service_cycles: Cycle,
    /// Whether the access hit the open row.
    pub row_hit: bool,
    /// The access found another row open in its bank and had to precharge
    /// it first (the row-buffer-conflict penalty path).
    pub bank_conflict: bool,
    /// The access arrived while a refresh window held the channel, so part
    /// of its queueing delay was refresh-induced.
    pub refresh_delayed: bool,
}

/// Configuration of one channel.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChannelConfig {
    /// Device technology behind this channel.
    pub timing: DeviceTiming,
    /// Module capacity in bytes as simulated (drives frame counts; may be
    /// scaled down — see DESIGN.md).
    pub capacity_bytes: u64,
    /// Capacity used for the power model. Footprints and module capacities
    /// are scaled down *together* to keep runs small, but power per GB is a
    /// device property: energy is integrated at the nominal (unscaled)
    /// capacity so memory power keeps its real magnitude relative to the
    /// cores.
    pub power_capacity_bytes: u64,
    /// Read queue depth.
    pub read_queue: usize,
    /// Write queue depth.
    pub write_queue: usize,
}

impl ChannelConfig {
    /// Standard queue depths with the given device and capacity.
    pub fn new(timing: DeviceTiming, capacity_bytes: u64) -> ChannelConfig {
        ChannelConfig {
            timing,
            capacity_bytes,
            power_capacity_bytes: capacity_bytes,
            read_queue: 32,
            write_queue: 32,
        }
    }

    /// Set the nominal capacity the power model integrates over.
    pub fn with_power_capacity(mut self, nominal_bytes: u64) -> ChannelConfig {
        self.power_capacity_bytes = nominal_bytes;
        self
    }
}

/// Aggregate statistics of one channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelStats {
    /// Read requests completed.
    pub reads: u64,
    /// Write requests completed.
    pub writes: u64,
    /// Open-row hits (reads and writes).
    pub row_hits: u64,
    /// Row activations issued (sub-line devices issue several per request).
    pub activates: u64,
    /// Cycles the data bus was transferring.
    pub busy_cycles: Cycle,
    /// Sum of read queueing cycles.
    pub read_queue_cycles: Cycle,
    /// Sum of read service cycles.
    pub read_service_cycles: Cycle,
    /// Refresh windows executed.
    pub refreshes: u64,
}

impl ChannelStats {
    /// Average read latency (queue + service) in cycles.
    pub fn avg_read_latency(&self) -> f64 {
        moca_common::stats::safe_div(
            (self.read_queue_cycles + self.read_service_cycles) as f64,
            self.reads as f64,
        )
    }

    /// Row-hit rate over all serviced requests.
    pub fn row_hit_rate(&self) -> f64 {
        moca_common::stats::safe_div(self.row_hits as f64, (self.reads + self.writes) as f64)
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct BankState {
    open_row: Option<u32>,
    /// Earliest cycle a new ACT may issue (tRC from last ACT).
    rc_ready: Cycle,
    /// Earliest cycle a precharge may issue (tRAS from last ACT).
    ras_ready: Cycle,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Queued {
    req: MemRequest,
    arrival: Cycle,
    /// Bank index, decoded once at enqueue. `decode_local` is a pure
    /// function of the (fixed) device timing and the request offset, but
    /// FR-FCFS re-examines every queued entry every scheduling cycle —
    /// caching the decode removes a divide chain from the hottest loop.
    bank: u32,
    /// Row within the bank, decoded once at enqueue.
    row: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct InFlight {
    token: u64,
    core: CoreId,
    tag: MemTag,
    line: LineAddr,
    finish: Cycle,
    queue_cycles: Cycle,
    service_cycles: Cycle,
    row_hit: bool,
    bank_conflict: bool,
    refresh_delayed: bool,
}

/// One memory channel: banks, queues, bus, refresh, statistics.
#[derive(Debug, Clone)]
pub struct Channel {
    cfg: ChannelConfig,
    banks: Vec<BankState>,
    readq: VecDeque<Queued>,
    writeq: VecDeque<Queued>,
    inflight: Vec<InFlight>,
    /// Cached `min(finish)` over `inflight` (`Cycle::MAX` when empty),
    /// maintained on issue and completion so event-skipping never rescans
    /// the in-flight set. Cross-checked against a full scan in debug builds.
    min_inflight_finish: Cycle,
    bus_free_at: Cycle,
    next_refresh_at: Cycle,
    refresh_until: Cycle,
    drain_writes: bool,
    transfer_cycles: Cycle,
    reserve_horizon: Cycle,
    stats: ChannelStats,
    /// Row activations per bank (index = bank), for per-bank occupancy
    /// telemetry tracks. Copy-DMA activates are not bank-attributed (the OS
    /// copies whole pages; see `inject_copy_traffic`).
    bank_activates: Vec<u64>,
    /// First cycle at which a tick can change state: complete a read,
    /// start a refresh, flip the write-drain flag or issue a command.
    /// Computed at the end of every executed tick (`wake_after`); exact
    /// while the channel is clean.
    wake: Cycle,
    /// Set by `enqueue`: the queues changed since `wake` was computed, so
    /// the next tick runs whatever the cycle (it re-evaluates the drain
    /// hysteresis, and the new request may be a row hit). Only a busy
    /// channel is ever dirty.
    dirty: bool,
}

impl Channel {
    /// Build a channel.
    pub fn new(cfg: ChannelConfig) -> Channel {
        let t = &cfg.timing;
        let transfer_cycles = t.line_transfer_cycles();
        let reserve_horizon = t.t_rcd + t.t_cl + transfer_cycles;
        // moca-lint: allow(narrowing-cast): bank count is u32; u32 -> usize never truncates
        let nbanks = t.banks as usize;
        let banks = vec![BankState::default(); nbanks];
        let bank_activates = vec![0u64; nbanks];
        let t_refi = t.t_refi;
        Channel {
            cfg,
            banks,
            readq: VecDeque::new(),
            writeq: VecDeque::new(),
            inflight: Vec::new(),
            min_inflight_finish: Cycle::MAX,
            bus_free_at: 0,
            next_refresh_at: t_refi,
            refresh_until: 0,
            drain_writes: false,
            transfer_cycles,
            reserve_horizon,
            stats: ChannelStats::default(),
            bank_activates,
            // An idle channel's wake is its first refresh.
            wake: t_refi,
            dirty: false,
        }
    }

    /// Channel configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.cfg
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Cumulative row activations per bank (index = bank number).
    pub fn bank_activates(&self) -> &[u64] {
        &self.bank_activates
    }

    /// Zero the statistics (end of a warmup phase). Bank/queue state is
    /// kept.
    pub fn reset_stats(&mut self) {
        self.stats = ChannelStats::default();
    }

    /// Reads currently queued (not yet issued).
    pub fn read_queue_len(&self) -> usize {
        self.readq.len()
    }

    /// Writes currently queued (not yet issued).
    pub fn write_queue_len(&self) -> usize {
        self.writeq.len()
    }

    /// Whether a request of `kind` can currently be enqueued.
    pub fn can_accept(&self, kind: AccessKind) -> bool {
        match kind {
            AccessKind::Read => self.readq.len() < self.cfg.read_queue,
            AccessKind::Write => self.writeq.len() < self.cfg.write_queue,
        }
    }

    /// Enqueue a request. Panics if the corresponding queue is full — call
    /// [`Channel::can_accept`] first; the cache hierarchy applies
    /// backpressure through its MSHRs.
    pub fn enqueue(&mut self, now: Cycle, req: MemRequest) {
        assert!(self.can_accept(req.kind), "channel queue overflow");
        self.dirty = true;
        let d = decode_local(&self.cfg.timing, req.local_off);
        let q = Queued {
            req,
            arrival: now,
            bank: d.bank,
            row: d.row,
        };
        match req.kind {
            AccessKind::Read => self.readq.push_back(q),
            AccessKind::Write => self.writeq.push_back(q),
        }
    }

    /// True when the channel holds no queued or in-flight work.
    pub fn is_idle(&self) -> bool {
        self.readq.is_empty() && self.writeq.is_empty() && self.inflight.is_empty()
    }

    /// Next cycle at which [`Channel::tick`] can change state, for event
    /// skipping: `now + 1` while dirty, else the wake computed by the last
    /// executed tick. An idle channel's wake is its refresh-due cycle.
    /// Debug builds check the cached wake against a fresh computation and
    /// the cached in-flight minimum against a full scan.
    pub fn next_wake(&self, now: Cycle) -> Cycle {
        if self.dirty {
            return now + 1;
        }
        debug_assert_eq!(
            self.min_inflight_finish,
            self.inflight
                .iter()
                .map(|f| f.finish)
                .min()
                .unwrap_or(Cycle::MAX),
            "cached in-flight minimum diverged from a full scan"
        );
        debug_assert_eq!(
            self.wake,
            self.wake_after(now),
            "cached channel wake diverged from a fresh computation"
        );
        self.wake
    }

    /// Next cycle the reference step loop executes on this channel's
    /// account: `now + 1` while a request is queued outside a refresh
    /// window (that loop tried to schedule on every such cycle), else the
    /// refresh end for queued work or the first read completion;
    /// `Cycle::MAX` when idle. The system uses it to take exactly the
    /// reference loop's skips and to count the cycles it steps.
    pub fn reference_step_after(&self, now: Cycle) -> Cycle {
        let queued = if self.readq.is_empty() && self.writeq.is_empty() {
            Cycle::MAX
        } else {
            self.refresh_until.max(now + 1)
        };
        queued.min(self.min_inflight_finish.max(now + 1))
    }

    /// True while a tick at `now` would not change any state: the channel
    /// is clean and its wake has not arrived.
    #[inline]
    fn asleep(&self, now: Cycle) -> bool {
        !self.dirty && now < self.wake
    }

    /// Advance the channel to cycle `now`: start refresh if due, complete
    /// finished reads into `out`, and schedule at most one new command.
    /// Returns at once before the channel's wake.
    pub fn tick(&mut self, now: Cycle, out: &mut Vec<Completion>) {
        if !self.asleep(now) {
            self.tick_impl(now, out, None);
        }
    }

    /// [`Channel::tick`] with telemetry: refresh windows and row-buffer
    /// conflicts are emitted as events tagged with this channel's index.
    /// Returns whether the tick ran (false before the wake).
    pub fn tick_tel(
        &mut self,
        now: Cycle,
        out: &mut Vec<Completion>,
        tel: &mut Telemetry,
        channel: u32,
    ) -> bool {
        if self.asleep(now) {
            return false;
        }
        self.tick_impl(now, out, Some((tel, channel)));
        true
    }

    fn tick_impl(
        &mut self,
        now: Cycle,
        out: &mut Vec<Completion>,
        mut tel: Option<(&mut Telemetry, u32)>,
    ) {
        // An idle channel does nothing but refresh: it has nothing to
        // schedule, and its write-drain flag is next evaluated once work
        // arrives.
        let idle = self.is_idle();
        // Deliver finished reads. The single pass also rebuilds the cached
        // minimum finish over the survivors.
        if self.min_inflight_finish <= now {
            let mut i = 0;
            let mut min_left = Cycle::MAX;
            while i < self.inflight.len() {
                if self.inflight[i].finish <= now {
                    let f = self.inflight.swap_remove(i);
                    out.push(Completion {
                        token: f.token,
                        core: f.core,
                        tag: f.tag,
                        line: f.line,
                        finish: f.finish,
                        queue_cycles: f.queue_cycles,
                        service_cycles: f.service_cycles,
                        row_hit: f.row_hit,
                        bank_conflict: f.bank_conflict,
                        refresh_delayed: f.refresh_delayed,
                    });
                } else {
                    min_left = min_left.min(self.inflight[i].finish);
                    i += 1;
                }
            }
            self.min_inflight_finish = min_left;
        }

        // Refresh management: refresh begins once the bus is quiet.
        if now >= self.next_refresh_at && self.refresh_until <= now && self.bus_free_at <= now {
            self.refresh_until = now + self.cfg.timing.t_rfc;
            self.next_refresh_at = now + self.cfg.timing.t_refi;
            self.stats.refreshes += 1;
            if let Some((t, ch)) = tel.as_mut() {
                t.record(
                    now,
                    Event::RefreshStart {
                        channel: *ch,
                        cycles: self.cfg.timing.t_rfc,
                    },
                );
            }
            for b in &mut self.banks {
                b.open_row = None;
                b.rc_ready = b.rc_ready.max(self.refresh_until);
            }
        }
        // Schedule outside a refresh window, with bounded run-ahead: do not
        // reserve the bus beyond the horizon, so FR-FCFS still gets to
        // reorder among queued requests.
        if !idle && self.refresh_until <= now && self.bus_free_at <= now + self.reserve_horizon {
            self.schedule(now, tel);
        }
        self.dirty = false;
        self.wake = self.wake_after(now);
    }

    /// Write-drain hysteresis: the drain flag an evaluation now would set.
    fn drain_after_eval(&self) -> bool {
        let hi = (self.cfg.write_queue * 3) / 4;
        let lo = self.cfg.write_queue / 4;
        if self.writeq.len() >= hi {
            true
        } else if self.writeq.len() <= lo {
            false
        } else {
            self.drain_writes
        }
    }

    /// Whether the scheduler serves the write queue under drain flag
    /// `drain`.
    fn serves_writes(&self, drain: bool) -> bool {
        drain || (self.readq.is_empty() && !self.writeq.is_empty())
    }

    /// The scheduling stage of a tick: evaluate the write-drain hysteresis,
    /// then issue at most one command from the served queue.
    fn schedule(&mut self, now: Cycle, tel: Option<(&mut Telemetry, u32)>) {
        self.drain_writes = self.drain_after_eval();
        if self.serves_writes(self.drain_writes) {
            if let Ok(idx) = self.scan(now, false) {
                // moca-lint: allow(panic-in-hot): idx was produced by scan() over this queue this cycle
                let q = self.writeq.remove(idx).expect("selected write exists");
                self.issue(now, q, false, tel);
            }
        } else if let Ok(idx) = self.scan(now, true) {
            // moca-lint: allow(panic-in-hot): idx was produced by scan() over this queue this cycle
            let q = self.readq.remove(idx).expect("selected read exists");
            self.issue(now, q, true, tel);
        }
    }

    /// First cycle after `now` at which a tick changes state, given no
    /// enqueue or copy traffic in between: the earliest of the first read
    /// completion, the refresh start (`tick_impl`'s refresh predicate) and,
    /// for a busy channel, the scheduling stage's first effect. That stage
    /// runs once the refresh window has ended and the bus is within the
    /// run-ahead horizon; there it flips the drain flag if the hysteresis
    /// says so, issues any row hit at once, and otherwise waits for the
    /// served queue's smallest `act_possible_at`.
    fn wake_after(&self, now: Cycle) -> Cycle {
        let refresh = self
            .next_refresh_at
            .max(self.refresh_until)
            .max(self.bus_free_at);
        let wake = self.min_inflight_finish.min(refresh);
        if self.is_idle() {
            return wake;
        }
        let open = (now + 1)
            .max(self.refresh_until)
            .max(self.bus_free_at.saturating_sub(self.reserve_horizon));
        let drain = self.drain_after_eval();
        let schedule = if drain != self.drain_writes {
            open
        } else {
            match self.scan(open, !self.serves_writes(drain)) {
                Ok(_) => open,
                Err(at) => at,
            }
        };
        wake.min(schedule)
    }

    /// FR-FCFS selection: the oldest row hit, else the oldest request whose
    /// bank can ACT at `now`. Without either, the earliest cycle at which
    /// some queued request's bank can ACT (`Cycle::MAX` for an empty
    /// queue).
    fn scan(&self, now: Cycle, reads: bool) -> Result<usize, Cycle> {
        let queue = if reads { &self.readq } else { &self.writeq };
        let row_hits = self.cfg.timing.supports_row_hits();
        let mut fallback: Option<usize> = None;
        let mut earliest = Cycle::MAX;
        for (i, q) in queue.iter().enumerate() {
            // moca-lint: allow(narrowing-cast): bank index is u32; u32 -> usize never truncates
            let bank = &self.banks[q.bank as usize];
            if row_hits && bank.open_row == Some(q.row) {
                return Ok(i); // first (oldest) ready row hit wins
            }
            let at = self.act_possible_at(bank);
            if fallback.is_none() && at <= now {
                fallback = Some(i);
            }
            earliest = earliest.min(at);
        }
        fallback.ok_or(earliest)
    }

    /// Earliest cycle at which a new activate may issue on `bank`.
    fn act_possible_at(&self, bank: &BankState) -> Cycle {
        let t = &self.cfg.timing;
        let mut at = bank.rc_ready;
        if bank.open_row.is_some() {
            // Must precharge first: PRE no earlier than tRAS after ACT, then tRP.
            at = at.max(bank.ras_ready + t.t_rp);
        }
        at
    }

    fn issue(
        &mut self,
        now: Cycle,
        q: Queued,
        is_read: bool,
        mut tel: Option<(&mut Telemetry, u32)>,
    ) {
        // Disjoint-field borrow: only `banks`/`stats` are mutated below, so
        // borrowing the timing avoids copying the whole DeviceTiming (power
        // coefficients included) once per issued command.
        let t = &self.cfg.timing;
        let is_hit = t.supports_row_hits() && self.banks[q.bank as usize].open_row == Some(q.row);
        let bank_conflict = !is_hit && self.banks[q.bank as usize].open_row.is_some();
        let refresh_delayed = q.arrival < self.refresh_until;

        let (ready, row_hit) = if is_hit {
            (now + t.t_cl, true)
        } else {
            debug_assert!(self.act_possible_at(&self.banks[q.bank as usize]) <= now);
            if let Some((tl, ch)) = tel.as_mut() {
                if bank_conflict {
                    tl.record(
                        now,
                        Event::BankConflict {
                            channel: *ch,
                            bank: q.bank,
                        },
                    );
                }
            }
            let bank = &mut self.banks[q.bank as usize];
            bank.open_row = Some(q.row);
            bank.rc_ready = now + t.t_rc;
            bank.ras_ready = now + t.t_ras;
            self.stats.activates += t.subaccesses_per_line() as u64;
            // moca-lint: allow(narrowing-cast): bank index is u32; u32 -> usize never truncates
            self.bank_activates[q.bank as usize] += t.subaccesses_per_line() as u64;
            (now + t.t_rcd + t.t_cl, false)
        };

        let data_start = ready.max(self.bus_free_at);
        let data_end = data_start + self.transfer_cycles;
        self.bus_free_at = data_end;
        self.stats.busy_cycles += self.transfer_cycles;
        if row_hit {
            self.stats.row_hits += 1;
        }

        if is_read {
            let queue_cycles = now - q.arrival;
            let service_cycles = data_end - now;
            self.stats.reads += 1;
            self.stats.read_queue_cycles += queue_cycles;
            self.stats.read_service_cycles += service_cycles;
            self.inflight.push(InFlight {
                token: q.req.token,
                core: q.req.core,
                tag: q.req.tag,
                line: q.req.line,
                finish: data_end,
                queue_cycles,
                service_cycles,
                row_hit,
                bank_conflict,
                refresh_delayed,
            });
            self.min_inflight_finish = self.min_inflight_finish.min(data_end);
        } else {
            self.stats.writes += 1;
        }
    }

    /// Account a bulk page-copy on this channel (the DMA traffic of an OS
    /// page migration): occupies the data bus for `lines` transfers and
    /// books the corresponding activates/energy. Copy traffic bypasses the
    /// request queues (it is scheduled by the OS in the background) but the
    /// bus occupancy delays subsequent demand requests — the interference a
    /// migration-based scheme pays and MOCA avoids (§IV-E).
    pub fn inject_copy_traffic(&mut self, now: Cycle, lines_read: u64, lines_written: u64) {
        let lines = lines_read + lines_written;
        if lines == 0 {
            return;
        }
        let t = self.transfer_cycles * lines;
        self.bus_free_at = self.bus_free_at.max(now) + t;
        self.stats.busy_cycles += t;
        self.stats.activates += lines * self.cfg.timing.subaccesses_per_line() as u64;
        self.stats.reads += lines_read;
        self.stats.writes += lines_written;
        // The busier bus pushes back the refresh and the scheduling stage.
        self.wake = self.wake_after(now);
    }

    /// Integrated energy over a run of `runtime` cycles.
    pub fn energy(&self, runtime: Cycle) -> EnergyBreakdown {
        EnergyBreakdown::compute(
            &self.cfg.timing.power,
            self.cfg.power_capacity_bytes,
            runtime,
            self.stats.busy_cycles,
            self.stats.activates,
        )
    }
}

#[cfg(test)]
mod wake_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use moca_common::{Segment, MB};

    fn read_req(token: u64, local_off: u64) -> MemRequest {
        MemRequest {
            token,
            line: LineAddr(local_off / 64),
            local_off,
            kind: AccessKind::Read,
            core: CoreId(0),
            tag: MemTag::segment(Segment::Data),
        }
    }

    fn run_until_complete(ch: &mut Channel, limit: Cycle) -> Vec<Completion> {
        let mut out = Vec::new();
        let mut now = 0;
        while !ch.is_idle() && now < limit {
            now += 1;
            ch.tick(now, &mut out);
        }
        out
    }

    fn ddr3_channel() -> Channel {
        Channel::new(ChannelConfig::new(DeviceTiming::ddr3(), 512 * MB))
    }

    #[test]
    fn single_read_latency_is_closed_row_plus_transfer() {
        let mut ch = ddr3_channel();
        ch.enqueue(0, read_req(1, 0));
        let done = run_until_complete(&mut ch, 10_000);
        assert_eq!(done.len(), 1);
        let c = done[0];
        // Scheduled at cycle 1: ACT(14) + CAS(14) + burst(5) = 33, finish 34.
        assert_eq!(c.finish, 1 + 14 + 14 + 5);
        assert!(!c.row_hit);
        assert_eq!(c.queue_cycles, 1);
    }

    #[test]
    fn second_access_same_row_hits() {
        let mut ch = ddr3_channel();
        ch.enqueue(0, read_req(1, 0));
        ch.enqueue(0, read_req(2, 64)); // same 128 B row
        let done = run_until_complete(&mut ch, 10_000);
        assert_eq!(done.len(), 2);
        let second = done.iter().find(|c| c.token == 2).unwrap();
        assert!(second.row_hit);
        assert!(ch.stats().row_hits >= 1);
    }

    #[test]
    fn rldram_never_row_hits_but_is_fast() {
        let mut ch = Channel::new(ChannelConfig::new(DeviceTiming::rldram3(), 256 * MB));
        ch.enqueue(0, read_req(1, 0));
        ch.enqueue(0, read_req(2, 64));
        let done = run_until_complete(&mut ch, 10_000);
        assert_eq!(done.len(), 2);
        assert!(done.iter().all(|c| !c.row_hit));
        // Each line costs 4 activates on 16 B rows.
        assert_eq!(ch.stats().activates, 8);
        let worst = done.iter().map(|c| c.finish).max().unwrap();
        assert!(worst < 20, "RLDRAM back-to-back reads too slow: {worst}");
    }

    #[test]
    fn bank_conflict_serializes_on_trc() {
        let t = DeviceTiming::ddr3();
        let conflict_stride = t.row_buffer_bytes * t.banks as u64; // same bank, next row
        let mut ch = ddr3_channel();
        ch.enqueue(0, read_req(1, 0));
        ch.enqueue(0, read_req(2, conflict_stride));
        let done = run_until_complete(&mut ch, 10_000);
        let f: Vec<_> = done.iter().map(|c| (c.token, c.finish)).collect();
        let first = f.iter().find(|(t, _)| *t == 1).unwrap().1;
        let second = f.iter().find(|(t, _)| *t == 2).unwrap().1;
        // Second ACT must wait for precharge: > tRAS + tRP after the first.
        assert!(second >= first + 20, "finishes: {first} vs {second}");
    }

    #[test]
    fn bank_parallel_reads_overlap() {
        // Two reads to different banks should finish much closer together
        // than two reads to the same bank.
        let t = DeviceTiming::ddr3();
        let mut ch = ddr3_channel();
        ch.enqueue(0, read_req(1, 0));
        ch.enqueue(0, read_req(2, t.row_buffer_bytes)); // bank 1
        let done = run_until_complete(&mut ch, 10_000);
        let finishes: Vec<_> = done.iter().map(|c| c.finish).collect();
        let spread = finishes.iter().max().unwrap() - finishes.iter().min().unwrap();
        assert!(spread <= 6, "bank-parallel spread too large: {spread}");
    }

    #[test]
    fn streaming_throughput_approaches_bus_limit() {
        let t = DeviceTiming::ddr3();
        let mut ch = ddr3_channel();
        let mut out = Vec::new();
        let mut sent = 0u64;
        let mut done = 0u64;
        let total = 400u64;
        let mut now = 0;
        let mut addr = 0u64;
        while done < total {
            now += 1;
            while sent < total && ch.can_accept(AccessKind::Read) {
                ch.enqueue(now, read_req(sent, addr));
                addr += 64;
                sent += 1;
            }
            out.clear();
            ch.tick(now, &mut out);
            done += out.len() as u64;
            assert!(now < 100_000, "streaming run did not finish");
        }
        let cycles_per_line = now as f64 / total as f64;
        let bus = t.line_transfer_cycles() as f64;
        assert!(
            cycles_per_line < bus * 1.8,
            "streaming too slow: {cycles_per_line:.2} cycles/line vs bus {bus}"
        );
    }

    #[test]
    fn writes_complete_silently_and_count() {
        let mut ch = ddr3_channel();
        let mut req = read_req(1, 0);
        req.kind = AccessKind::Write;
        ch.enqueue(0, req);
        let done = run_until_complete(&mut ch, 10_000);
        assert!(done.is_empty());
        assert_eq!(ch.stats().writes, 1);
    }

    #[test]
    fn reads_prioritized_over_writes_until_drain() {
        let mut ch = ddr3_channel();
        for i in 0..4 {
            let mut w = read_req(100 + i, i * 4096);
            w.kind = AccessKind::Write;
            ch.enqueue(0, w);
        }
        ch.enqueue(0, read_req(1, 0));
        let mut out = Vec::new();
        let mut now = 0;
        while out.is_empty() && now < 10_000 {
            now += 1;
            ch.tick(now, &mut out);
        }
        // The read finishes even though writes arrived first.
        assert_eq!(out[0].token, 1);
        assert!(ch.stats().writes < 4, "writes should not all drain first");
    }

    #[test]
    fn refresh_blocks_and_counts() {
        let mut ch = ddr3_channel();
        let mut out = Vec::new();
        // Run past one refresh interval while idle-enqueueing nothing.
        for now in 1..=8000 {
            ch.tick(now, &mut out);
        }
        assert!(ch.stats().refreshes >= 1);
        // A read arriving mid-refresh is delayed past the refresh window.
        let mut ch = ddr3_channel();
        for now in 1..=7801 {
            ch.tick(now, &mut out);
        }
        ch.enqueue(7801, read_req(9, 0));
        out.clear();
        let mut now = 7801;
        while out.is_empty() {
            now += 1;
            ch.tick(now, &mut out);
        }
        assert!(out[0].finish > 7800 + 160, "read not blocked by refresh");
    }

    #[test]
    fn fr_fcfs_serves_row_hit_before_older_miss() {
        // Open a row, then enqueue (older) a miss to a busy bank and
        // (younger) a hit to the open row: the hit must finish first.
        let t = DeviceTiming::ddr3();
        let mut ch = ddr3_channel();
        ch.enqueue(0, read_req(1, 0)); // opens bank 0 row 0
        let mut out = Vec::new();
        let mut now = 0;
        while out.is_empty() {
            now += 1;
            ch.tick(now, &mut out);
        }
        // Older request: same bank, different row (needs PRE+ACT, blocked by
        // tRAS). Younger request: row hit on the open row.
        let conflict = t.row_buffer_bytes * t.banks as u64;
        ch.enqueue(now, read_req(2, conflict));
        ch.enqueue(now, read_req(3, 64));
        let mut finishes = Vec::new();
        while finishes.len() < 2 {
            now += 1;
            out.clear();
            ch.tick(now, &mut out);
            finishes.extend(out.iter().map(|c| (c.token, c.finish, c.row_hit)));
        }
        let hit = finishes.iter().find(|f| f.0 == 3).unwrap();
        let miss = finishes.iter().find(|f| f.0 == 2).unwrap();
        assert!(hit.2, "younger request should row-hit");
        assert!(
            hit.1 < miss.1,
            "row hit (finish {}) must beat the older miss (finish {})",
            hit.1,
            miss.1
        );
    }

    #[test]
    fn copy_traffic_occupies_the_bus() {
        let mut ch = ddr3_channel();
        ch.inject_copy_traffic(0, 64, 64); // one page copy
        let before = ch.stats().busy_cycles;
        assert_eq!(before, 128 * DeviceTiming::ddr3().line_transfer_cycles());
        assert_eq!(ch.stats().reads, 64);
        assert_eq!(ch.stats().writes, 64);
        // A demand read issued right after must wait behind the copy burst.
        ch.enqueue(1, read_req(9, 0));
        let done = run_until_complete(&mut ch, 10_000);
        assert_eq!(done.len(), 1);
        assert!(
            done[0].finish > 128 * 5 / 2,
            "read finished at {} -- copy did not delay it",
            done[0].finish
        );
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut ch = ddr3_channel();
        let cap = ch.config().read_queue;
        for i in 0..cap as u64 {
            assert!(ch.can_accept(AccessKind::Read));
            ch.enqueue(0, read_req(i, i * 64));
        }
        assert!(!ch.can_accept(AccessKind::Read));
    }

    #[test]
    fn next_event_none_when_idle() {
        // Idle: the reference loop never steps for this channel, and the
        // only thing a tick could do is the first refresh.
        let ch = ddr3_channel();
        assert_eq!(ch.reference_step_after(5), Cycle::MAX);
        assert_eq!(ch.next_wake(5), DeviceTiming::ddr3().t_refi);
        let mut ch = ddr3_channel();
        ch.enqueue(0, read_req(1, 0));
        assert_eq!(ch.reference_step_after(0), 1);
        assert_eq!(ch.next_wake(0), 1);
    }

    #[test]
    fn noop_gate_matches_ungated_ticking() {
        // Ticking through the wake gate must produce the same refresh
        // schedule, completions and stats as running the tick body every
        // cycle, including a request arriving mid-run and a long idle tail.
        let mut gated = ddr3_channel();
        let mut plain = ddr3_channel();
        let mut out_g = Vec::new();
        let mut out_p = Vec::new();
        for now in 1..=20_000u64 {
            if now == 9000 {
                gated.enqueue(now - 1, read_req(1, 0));
                plain.enqueue(now - 1, read_req(1, 0));
            }
            gated.tick(now, &mut out_g);
            plain.tick_impl(now, &mut out_p, None);
        }
        assert_eq!(out_g.len(), out_p.len());
        assert_eq!(gated.stats(), plain.stats());
        assert!(gated.stats().refreshes >= 2);
        let g = out_g[0];
        let p = out_p[0];
        assert_eq!((g.finish, g.queue_cycles), (p.finish, p.queue_cycles));
    }

    #[test]
    fn energy_grows_with_activity() {
        let mut busy = ddr3_channel();
        for i in 0..32u64 {
            busy.enqueue(0, read_req(i, i * 4096));
        }
        let _ = run_until_complete(&mut busy, 100_000);
        let idle = ddr3_channel();
        let e_busy = busy.energy(100_000).total_j();
        let e_idle = idle.energy(100_000).total_j();
        assert!(e_busy > e_idle);
    }
}
