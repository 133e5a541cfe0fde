//! Minimal data-parallel helpers built on `std::thread::scope`.
//!
//! The fan-out sites (profiling the app suite, `repro`'s run plan) map over
//! coarse-grained jobs — a handful of multi-second simulations — so a
//! work-stealing pool is overkill: a shared atomic work index over scoped
//! threads gives the same wall-clock win with no dependencies. Workers take
//! items in slice order, so a caller that sorts its items longest first
//! gets a longest-first queue.
//!
//! Worker count resolution (first match wins):
//! 1. an explicit count via [`parallel_map_with`]
//! 2. the `MOCA_JOBS` environment variable (a positive integer)
//! 3. `std::thread::available_parallelism()`

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolve the worker-thread count: `explicit` if given, else the
/// `MOCA_JOBS` environment variable, else `available_parallelism`.
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        return n.max(1);
    }
    if let Ok(v) = std::env::var("MOCA_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
        eprintln!("warning: ignoring invalid MOCA_JOBS={v:?} (want a positive integer)");
    }
    // moca-lint: allow(wall-clock): host-side fan-out helper; simulated state never crosses threads
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `items` on up to [`resolve_jobs`]`(None)` worker threads,
/// preserving input order in the result.
///
/// `f` runs on borrowed items; panics in workers propagate to the caller.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with(None, items, f)
}

/// [`parallel_map`] with an explicit worker count (`None` ⇒ resolve from
/// `MOCA_JOBS` / `available_parallelism`).
///
/// Each worker appends `(index, result)` pairs to its own private buffer —
/// no cross-thread locking on the result path — and the buffers are
/// stitched back into input order after the scope joins.
pub fn parallel_map_with<T, R, F>(jobs: Option<usize>, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = resolve_jobs(jobs).min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut buffers: Vec<Vec<(usize, R)>> = Vec::new();
    // moca-lint: allow(wall-clock): host-side fan-out helper; simulated state never crosses threads
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        out.push((i, f(&items[i])));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            buffers.push(h.join().expect("parallel_map: worker panicked"));
        }
    });

    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in buffers.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "parallel_map: index {i} produced twice");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("parallel_map: worker left a slot empty"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(parallel_map(&[] as &[u64], |x| *x), Vec::<u64>::new());
        assert_eq!(parallel_map(&[7u64], |x| x + 1), vec![8]);
    }

    #[test]
    fn explicit_jobs_counts_respected() {
        let items: Vec<u64> = (0..37).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let out = parallel_map_with(Some(jobs), &items, |x| x + 1);
            assert_eq!(out, (1..38).collect::<Vec<_>>());
        }
    }

    #[test]
    fn resolve_jobs_prefers_explicit() {
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert_eq!(resolve_jobs(Some(0)), 1); // clamped
        assert!(resolve_jobs(None) >= 1);
    }
}
