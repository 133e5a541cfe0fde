//! Timed iterations of a workload: set-up, simulation and checks, with
//! spans recorded around each call into the simulator.
//!
//! Every span is in reference seconds (`speed.rs`): each profiling call and
//! each job runs between two speed probes on its thread, and its host
//! seconds are divided by the slowdown the probes measured.

use crate::workloads::{build_system, eval_input, Job, Lengths, Workload};
use crate::{heap, speed};
use moca::pipeline::PolicyKind;
use moca_common::par::parallel_map_with;
use moca_sim::metrics::RunResult;
use moca_telemetry::{ComponentTimes, Event, NullSink, Telemetry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::ThreadId;
use std::time::Instant;

/// What a traced simulation adds: the host-profile split and the per-kind
/// event counters.
#[derive(Debug, Clone, Copy)]
pub struct Traced {
    /// Host time per simulator component.
    pub components: ComponentTimes,
    /// Event counts, indexed like `Event::KIND_NAMES`.
    pub events: [u64; Event::KIND_COUNT],
}

impl Traced {
    /// Count of the event kind named `name`.
    pub fn event(&self, name: &str) -> u64 {
        let i = Event::KIND_NAMES
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("unknown event kind {name}"));
        self.events[i]
    }
}

/// A simulation that finished and passed its own checks.
#[derive(Debug, Clone)]
pub struct Finished {
    /// The run's results.
    pub result: RunResult,
    /// FNV-1a over the run's deterministic fields.
    pub fingerprint: u64,
    /// Present on traced runs.
    pub traced: Option<Traced>,
}

/// One simulation of an iteration.
#[derive(Debug, Clone)]
pub struct JobRun {
    /// The job's label.
    pub label: String,
    /// Reference seconds in `System::new_with_telemetry`.
    pub build_s: f64,
    /// Reference seconds in `System::run_warmed`.
    pub run_s: f64,
    /// Reference seconds for the whole job: build, run and checks.
    pub job_s: f64,
    /// Host seconds per reference second while the job ran.
    pub slowdown: f64,
    /// Host thread that ran the job.
    pub worker: ThreadId,
    /// The run, or why it failed (a panic or a failed check).
    pub outcome: Result<Finished, String>,
}

/// One iteration: a fresh pipeline profiles its apps, then every job runs.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Reference seconds for the whole iteration: profiling, then the
    /// fan-out.
    pub wall_s: f64,
    /// Most heap bytes held at once during the iteration, above what was
    /// held when it started.
    pub peak_heap_bytes: usize,
    /// Reference seconds profiling and classifying (`Pipeline::classified`).
    pub profile_s: f64,
    /// Reference seconds of the busiest worker's jobs.
    pub fanout_s: f64,
    /// How much less the least busy worker ran than the busiest, in
    /// reference seconds: the time it sat idle once the job queue emptied.
    pub tail_idle_s: f64,
    /// Host seconds per reference second over the iteration's spans.
    pub slowdown: f64,
    /// The simulations, in job order.
    pub jobs: Vec<JobRun>,
}

impl Iteration {
    /// Reference seconds in `System::new_with_telemetry`, over all jobs.
    pub fn build_s(&self) -> f64 {
        self.jobs.iter().map(|j| j.build_s).sum()
    }

    /// Reference seconds in `System::run_warmed`, over all jobs.
    pub fn run_s(&self) -> f64 {
        self.jobs.iter().map(|j| j.run_s).sum()
    }

    /// Reference seconds before simulation: profiling plus every
    /// `System::new`.
    pub fn setup_s(&self) -> f64 {
        self.profile_s + self.build_s()
    }
}

/// FNV-1a over every integer a run's simulation determines: core pipeline
/// statistics, memory-controller statistics, placement and migration.
pub fn fingerprint(r: &RunResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    word(r.runtime_cycles);
    for c in &r.per_core {
        let s = &c.stats;
        for v in [
            s.committed,
            s.cycles,
            s.head_stall_cycles,
            s.loads,
            s.stores,
            s.mispredicts,
            s.rob_full_cycles,
            s.lq_full_cycles,
            c.finished_at,
        ] {
            word(v);
        }
    }
    word(r.mem.reads);
    word(r.mem.total_read_latency_cycles);
    for &l in &r.mem.per_core_read_latency {
        word(l);
    }
    for ch in &r.mem.channels {
        let s = &ch.stats;
        for v in [
            s.reads,
            s.writes,
            s.row_hits,
            s.activates,
            s.busy_cycles,
            s.read_queue_cycles,
            s.read_service_cycles,
            s.refreshes,
        ] {
            word(v);
        }
    }
    word(r.placement.total_pages());
    if let Some(m) = r.migration {
        for v in [m.epochs, m.promotions, m.demotions, m.dirty_writebacks] {
            word(v);
        }
    }
    h
}

/// Build, run and check one job between two speed probes. Panics inside the
/// simulator are caught and reported as a failed outcome.
fn run_job(
    pipeline: &moca::pipeline::Pipeline,
    job: &Job,
    seed: u64,
    len: Lengths,
    traced: bool,
) -> JobRun {
    let mut build_s = 0.0;
    let mut run_s = 0.0;
    let (outcome, timed) = speed::timed(|| {
        catch_unwind(AssertUnwindSafe(|| {
            let mut p = pipeline.clone();
            let tel = if traced {
                Telemetry::with_sink(Box::new(NullSink)).with_host_profiling()
            } else {
                Telemetry::disabled()
            };
            let t = Instant::now();
            let mut sys = build_system(&mut p, job, eval_input(seed), tel);
            build_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let result = sys.run_warmed(len.warmup, len.instrs);
            run_s = t.elapsed().as_secs_f64();

            let frames = sys.os().frames();
            let in_use = frames.total_frames()
                - (0..frames.regions().len())
                    .map(|i| frames.free_in_region(i))
                    .sum::<u64>();
            let tel = sys.take_telemetry();
            let traced = traced.then(|| Traced {
                components: tel.components,
                events: std::array::from_fn(|i| {
                    tel.registry
                        .counter_value_by_name(&format!("events.{}", Event::KIND_NAMES[i]))
                        .unwrap_or(0)
                }),
            });
            check(job, len, &result, in_use, traced.as_ref())?;
            Ok(Finished {
                fingerprint: fingerprint(&result),
                result,
                traced,
            })
        }))
        .unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            Err(format!("panicked: {msg}"))
        })
    });
    JobRun {
        label: job.label.clone(),
        build_s: build_s / timed.slowdown,
        run_s: run_s / timed.slowdown,
        job_s: timed.reference_s(),
        slowdown: timed.slowdown,
        worker: std::thread::current().id(),
        outcome,
    }
}

/// The checks every simulation must pass on its own.
fn check(
    job: &Job,
    len: Lengths,
    r: &RunResult,
    frames_in_use: u64,
    traced: Option<&Traced>,
) -> Result<(), String> {
    if r.per_core.len() != job.apps.len() {
        return Err(format!(
            "{} core results for {} apps",
            r.per_core.len(),
            job.apps.len()
        ));
    }
    if let Some(c) = r.per_core.iter().find(|c| c.stats.committed < len.instrs) {
        return Err(format!(
            "{} committed {} of {} instructions",
            c.app, c.stats.committed, len.instrs
        ));
    }
    let placed = r.placement.total_pages();
    if placed != frames_in_use {
        return Err(format!(
            "{placed} placed pages but {frames_in_use} frames in use"
        ));
    }
    if let Some(t) = traced {
        let faults = t.event("page_fault");
        if faults != placed {
            return Err(format!("{faults} page faults but {placed} placed pages"));
        }
    }
    if (job.policy == PolicyKind::Migration) != r.migration.is_some() {
        return Err("migration statistics present iff the policy migrates".to_string());
    }
    Ok(())
}

/// Run one iteration of `w`: profile on a fresh pipeline, then fan the jobs
/// out over the workload's workers.
pub fn run_iteration(w: &Workload, len: Lengths, seed: u64, traced: bool) -> Iteration {
    let held_before = heap::reset_peak();
    let mut p = w.pipeline(len);
    let mut profile_s = 0.0;
    let mut host_s = 0.0;
    for app in w.distinct_apps() {
        let (_, t) = speed::timed(|| {
            p.classified(app);
        });
        profile_s += t.reference_s();
        host_s += t.host_s;
    }
    let jobs = (w.jobs)();
    let runs = parallel_map_with(Some(w.workers), &jobs, |job| {
        run_job(&p, job, seed, len, traced)
    });
    // Each worker's busy time; a worker that got no job was idle throughout.
    let mut busy: Vec<(ThreadId, f64)> = Vec::new();
    for r in &runs {
        match busy.iter_mut().find(|(id, _)| *id == r.worker) {
            Some((_, s)) => *s += r.job_s,
            None => busy.push((r.worker, r.job_s)),
        }
        host_s += r.job_s * r.slowdown;
    }
    let fanout_s = busy.iter().map(|&(_, s)| s).fold(0.0, f64::max);
    let least = if busy.len() < w.workers.min(runs.len()) {
        0.0
    } else {
        busy.iter().map(|&(_, s)| s).fold(fanout_s, f64::min)
    };
    let wall_s = profile_s + fanout_s;
    let reference_s = profile_s + runs.iter().map(|r| r.job_s).sum::<f64>();
    Iteration {
        wall_s,
        peak_heap_bytes: heap::peak().saturating_sub(held_before),
        profile_s,
        fanout_s,
        tail_idle_s: fanout_s - least,
        slowdown: host_s / reference_s,
        jobs: runs,
    }
}

/// Failures in `it`, including fingerprints that differ from `reference`
/// (the same jobs' fingerprints in the run's first iteration). Each entry
/// names the job.
pub fn failures(it: &Iteration, reference: &[Option<u64>]) -> Vec<String> {
    let mut out = Vec::new();
    for (i, j) in it.jobs.iter().enumerate() {
        match (&j.outcome, reference.get(i).copied().flatten()) {
            (Err(e), _) => out.push(format!("{}: {e}", j.label)),
            (Ok(f), Some(want)) if f.fingerprint != want => out.push(format!(
                "{}: fingerprint {:#018x} differs from the first iteration's {want:#018x}",
                j.label, f.fingerprint
            )),
            _ => {}
        }
    }
    out
}

/// Per-job fingerprints of an iteration (`None` where the job failed).
pub fn fingerprints(it: &Iteration) -> Vec<Option<u64>> {
    it.jobs
        .iter()
        .map(|j| j.outcome.as_ref().ok().map(|f| f.fingerprint))
        .collect()
}
