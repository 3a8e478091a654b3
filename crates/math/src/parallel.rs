//! Deterministic fork-join helpers shared by criticality (its input
//! chunks and sink passes) and the engine's pipeline (a call's groups
//! and a group's module extractions). A design analysis and an all-pairs
//! delay matrix run on the calling thread: fanning them out measured no
//! faster than one thread.
//!
//! Everything here preserves the repo's bit-exactness invariant: results
//! are returned in index order and each index's computation is
//! independent, so any thread count (including 1) produces bit-identical
//! output. Callers split one thread budget across fan-out levels instead
//! of nesting unbounded pools: the engine divides it among a sweep's
//! groups, and the server divides the cores among its workers.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a thread-count option: `0` means available parallelism,
/// anything else is taken literally (`1` forces the serial path).
pub fn effective_threads(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map_or(4, |n| n.get()),
        n => n,
    }
}

/// Runs `run(i)` for `i in 0..n` across up to `workers` scoped threads,
/// returning results in index order. `workers <= 1` runs inline.
/// Work is distributed by an atomic cursor, so uneven per-index cost
/// (e.g. a sweep's groups of different sizes) balances automatically; each
/// worker hands its `(index, result)` pairs back through `join`, and
/// they are placed by index, so the order of results (and therefore
/// every fold over them) is deterministic regardless of scheduling.
///
/// # Panics
///
/// Re-raises the panic of any worker.
pub fn parallel_indexed<T, F>(n: usize, workers: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return done;
                        }
                        done.push((i, run(i)));
                    }
                })
            })
            .collect();
        for handle in handles {
            let done = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, result) in done {
                slots[i] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index ran"))
        .collect()
}

/// [`parallel_indexed`] over fallible work: runs every index, then
/// returns the first error in *index* order (not completion order), so
/// failures are as deterministic as successes.
///
/// # Errors
///
/// The lowest-index `Err` produced by `run`.
pub fn try_parallel_indexed<T, E, F>(n: usize, workers: usize, run: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    parallel_indexed(n, workers, run).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_for_any_worker_count() {
        let want: Vec<usize> = (0..97).map(|i| i * i).collect();
        for workers in [1, 2, 3, 8, 200] {
            let got = parallel_indexed(97, workers, |i| i * i);
            assert_eq!(got, want, "workers = {workers}");
        }
    }

    #[test]
    fn zero_items_yield_empty() {
        let got: Vec<usize> = parallel_indexed(0, 8, |i| i);
        assert!(got.is_empty());
    }

    #[test]
    fn try_variant_reports_first_error_by_index() {
        let r: Result<Vec<usize>, usize> =
            try_parallel_indexed(10, 4, |i| if i % 3 == 2 { Err(i) } else { Ok(i) });
        assert_eq!(r, Err(2));
        let ok: Result<Vec<usize>, usize> = try_parallel_indexed(10, 4, Ok);
        assert_eq!(ok.unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn effective_threads_resolves_zero() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }
}
