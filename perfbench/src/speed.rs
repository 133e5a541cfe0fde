//! How fast this host thread runs right now, and host times rescaled to a
//! reference speed.
//!
//! On a shared host the same simulation can take 0.9 s in one second and
//! 1.5 s in the next, because other tenants compete for the physical core's
//! caches and execution units; raw host seconds of ten runs of one workload
//! spread by 17–30% (interquartile range over median). The probe is a fixed
//! piece of work that depends on nothing in the simulator: a set-associative
//! cache model with an event heap, then a mix of standard containers (B-tree
//! and hash maps, a heap, sorting, formatting). Of the kernels tried (also
//! a dependent ALU chain, a DRAM pointer chase, a streaming sum,
//! unpredictable branches and a 256-function code footprint), these two
//! followed the simulator best: interleaved with 0.2 s simulations, the
//! log-log slope of simulation time on probe time was 0.65–1.25 and the
//! correlation about 0.8.
//!
//! [`bracket`] runs a timed segment between two probes on the same thread.
//! A segment's closing probe opens the thread's next segment, so probe time
//! is never inside a segment; the probe's heap use is left out of the heap
//! count. The segment's slowdown is `(p / PROBE_REF_S) ^ SENSITIVITY`,
//! where `p` is the mean of the two probe times, and a segment's host
//! seconds divided by its slowdown are its reference seconds: the time it
//! would take on a host where the probe takes [`PROBE_REF_S`]. Two commits
//! measured at the same host speed compare exactly as their host seconds
//! do; the rescaling only removes the host's drift between runs.

use crate::heap;
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::fmt::Write;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Host seconds of one probe at a typical speed of the reference host, a
/// 2-vCPU KVM guest on an Intel Xeon (model 207). Over the runs behind
/// `spread.json` the probe took 9–14 ms (each run's median), 11.5 ms
/// typically.
pub const PROBE_REF_S: f64 = 0.012;

/// How much more the simulator slows than the probe, as an exponent. With
/// an exponent of 1, the medians of ten runs per workload still rose with
/// the runs' median probe time (log-log slope 0.06–0.42 on every workload
/// and end-to-end time); recomputed from the same runs with 1.3, the
/// spread of the `wall_s` medians of the four single-job workloads fell
/// from 5.5–7.0% to 1.8–5.4%.
const SENSITIVITY: f64 = 1.3;

/// Accesses of the probe's cache model.
const CACHE_ACCESSES: u32 = 70_000;
/// Keys of the probe's container mix.
const CONTAINER_KEYS: u32 = 20_000;

thread_local! {
    /// This thread's last probe time, which opens its next segment.
    static LAST_PROBE_S: Cell<Option<f64>> = const { Cell::new(None) };
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A 16-way cache model over a drifting hot region and rare far lines,
/// with misses completing through an event heap.
fn cache_model(accesses: u32) -> u64 {
    const SETS: usize = 8192;
    const WAYS: usize = 16;
    let mut tags = vec![u64::MAX; SETS * WAYS];
    let mut stamps = vec![0u32; SETS * WAYS];
    let mut pending: BinaryHeap<Reverse<u32>> = BinaryHeap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut base = 0u64;
    let mut done = 0u64;
    for now in 0..accesses {
        let v = xorshift(&mut x);
        let line = if v & 3 != 0 {
            base += (v >> 40) & 1;
            base + (v >> 8) % 512
        } else {
            (v >> 8) % (1 << 21)
        };
        let set = (line % SETS as u64) as usize;
        let tag = line / SETS as u64;
        let row = &mut tags[set * WAYS..][..WAYS];
        let ages = &mut stamps[set * WAYS..][..WAYS];
        match row.iter().position(|&t| t == tag) {
            Some(way) => ages[way] = now,
            None => {
                let way = (0..WAYS).min_by_key(|&w| ages[w]).unwrap_or(0);
                row[way] = tag;
                ages[way] = now;
                pending.push(Reverse(now + 100 + (v as u32 & 255)));
            }
        }
        while pending.peek().is_some_and(|&Reverse(at)| at <= now) {
            pending.pop();
            done += 1;
        }
    }
    done
}

/// Standard containers on a seeded key stream. The hash map's hasher has
/// fixed keys so that every process probes the same bucket layout.
fn container_mix(keys: u32) -> u64 {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut v: Vec<u64> = (0..keys).map(|_| xorshift(&mut x) % 100_000).collect();
    let mut tree = BTreeMap::new();
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut heap = BinaryHeap::new();
    let mut text = String::new();
    let mut acc = 0u64;
    for (i, &k) in v.iter().enumerate() {
        *tree.entry(k).or_insert(0u64) += 1;
        *map.entry(k >> 2).or_insert(0) += i as u64;
        heap.push(Reverse(k));
        if i % 4 == 0 {
            acc += heap.pop().map_or(0, |Reverse(t)| t);
        }
        if i % 16 == 0 {
            text.clear();
            let _ = write!(text, "{k}:{acc:x}");
            acc += text.len() as u64;
        }
        if let Some((&next, _)) = tree.range(k..).next() {
            acc += next;
        }
    }
    v.sort_unstable();
    acc + v[v.len() / 2] + map.len() as u64
}

/// Host seconds of one probe on this thread, now.
pub fn probe_s() -> f64 {
    heap::uncounted(|| {
        let t = Instant::now();
        black_box(cache_model(black_box(CACHE_ACCESSES)));
        black_box(container_mix(black_box(CONTAINER_KEYS)));
        t.elapsed().as_secs_f64()
    })
}

/// Run `f` between two probes on this thread. Returns its result and the
/// slowdown over the reference host while it ran (host seconds per
/// reference second).
pub fn bracket<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = LAST_PROBE_S.get().unwrap_or_else(probe_s);
    let out = f();
    let after = probe_s();
    LAST_PROBE_S.set(Some(after));
    let probe = (before + after) / 2.0;
    (out, (probe / PROBE_REF_S).powf(SENSITIVITY))
}

/// A segment timed by [`timed`].
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Host seconds.
    pub host_s: f64,
    /// Host seconds per reference second while it ran.
    pub slowdown: f64,
}

impl Timed {
    /// The segment's time at the reference speed.
    pub fn reference_s(&self) -> f64 {
        self.host_s / self.slowdown
    }
}

/// Run and time `f` between two probes on this thread.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let ((out, host_s), slowdown) = bracket(|| {
        let t = Instant::now();
        let out = f();
        (out, t.elapsed().as_secs_f64())
    });
    (out, Timed { host_s, slowdown })
}
