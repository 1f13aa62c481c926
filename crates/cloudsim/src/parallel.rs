//! Deterministic parallel fan-out over index ranges.
//!
//! The solvers and sweeps in the upper crates are embarrassingly parallel
//! over independent items (partitions of a cost table, datasets of a
//! schedule plan, configurations of a sweep), but their results must be
//! **bit-for-bit identical** to the sequential path: the optimizer output
//! feeds golden-pinned tables and differential oracles. This module
//! provides the one fan-out shape that guarantees it:
//!
//! * work is chunked by **index** into contiguous slices,
//! * each worker computes its slice with the shared closure,
//! * results are merged back **in index order**.
//!
//! Because every item's result is a pure function of `(index, item)` and
//! floating-point arithmetic is performed per item exactly as the
//! sequential loop would, the output is independent of the thread count —
//! [`parallel_map_with_threads`] with 1 thread *is* the sequential loop,
//! and the determinism proptests pin `threads = n` against it. No work
//! stealing, no reduction-order dependence, no rayon in the shims.

use std::sync::atomic::{AtomicU64, Ordering};

/// Worker threads spawned by this module since the process started.
static WORKERS_SPAWNED: AtomicU64 = AtomicU64::new(0);

/// Worker threads every fan-out of this module has spawned since the
/// process started — a statistic (relaxed, publishes nothing) that lets a
/// test prove a call ran sequentially or did not nest: a fan-out over `n`
/// chunks adds exactly `n`, and the `threads == 1` paths add nothing.
pub fn workers_spawned() -> u64 {
    WORKERS_SPAWNED.load(Ordering::Relaxed)
}

/// Upper bound on worker threads: fan-outs nest (a sweep over
/// configurations may build cost tables in parallel inside each
/// configuration), so each level stays modest instead of oversubscribing
/// quadratically.
const MAX_THREADS: usize = 8;

/// Number of hardware threads to fan out over, capped at [`MAX_THREADS`].
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_THREADS)
}

/// Map `f` over `items` in parallel with the default thread count,
/// returning results in index order. Bit-for-bit identical to
/// `items.iter().enumerate().map(|(i, t)| f(i, t)).collect()`.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_with_threads(items, default_threads(), f)
}

/// [`parallel_map`] with an explicit thread count (1 = plain sequential
/// loop). The thread count affects only wall-clock time, never the output:
/// chunks are contiguous index ranges and the merge concatenates them in
/// chunk order.
pub fn parallel_map_with_threads<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let (len, chunk_len) = (items.len(), items.len().div_ceil(threads));
    fan_out(items.chunks(chunk_len), len, chunk_len, |base, slice| {
        slice
            .iter()
            .enumerate()
            .map(|(j, item)| f(base + j, item))
            .collect()
    })
}

/// Run `work(base_index, chunk)` on one scoped thread per `chunk_len`-item
/// chunk and concatenate the per-chunk results (`len` in all) in chunk
/// order. A worker's panic is re-raised on the caller thread with its own
/// payload instead of being wrapped in a second panic.
fn fan_out<C, R>(
    chunks: impl Iterator<Item = C>,
    len: usize,
    chunk_len: usize,
    work: impl Fn(usize, C) -> Vec<R> + Sync,
) -> Vec<R>
where
    C: Send,
    R: Send,
{
    let mut out = Vec::with_capacity(len);
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = chunks
            .enumerate()
            .map(|(ci, chunk)| scope.spawn(move || work(ci * chunk_len, chunk)))
            .collect();
        WORKERS_SPAWNED.fetch_add(handles.len() as u64, Ordering::Relaxed);
        for handle in handles {
            match handle.join() {
                Ok(chunk) => out.extend(chunk),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    out
}

/// Map `f` over `items` in parallel **with mutable access to each item**,
/// returning results in index order — the in-place counterpart of
/// [`parallel_map_with_threads`] for workers that update owned per-item
/// state (e.g. the serving engine patching each account shard's cost
/// table) while the merge stays deterministic. Bit-for-bit identical to
/// `items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect()`: with
/// `threads == 1` it is that loop, and otherwise items are chunked into
/// contiguous disjoint `chunks_mut` ranges, so each item is visited by
/// exactly one worker and the thread count affects only wall-clock time,
/// never the output or the final item states.
pub fn parallel_map_mut_with_threads<T, R, F>(items: &mut [T], threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let (len, chunk_len) = (items.len(), items.len().div_ceil(threads));
    fan_out(
        items.chunks_mut(chunk_len),
        len,
        chunk_len,
        |base, slice| {
            slice
                .iter_mut()
                .enumerate()
                .map(|(j, item)| f(base + j, item))
                .collect()
        },
    )
}

/// Fallible [`parallel_map_with_threads`]: `f` returns `Result` per item
/// and the whole fan-out returns `Ok(results)` only when every item
/// succeeded, else the error of the **lowest-indexed** failing item — the
/// same error a sequential short-circuiting loop would surface, regardless
/// of which worker hit its error first. Workers always run their whole
/// chunk (no cross-thread cancellation, and with 1 thread later items are
/// still evaluated), so the choice of surfaced error is a pure index-order
/// fold over per-item results and never racy.
pub fn try_parallel_map_with_threads<T, R, E, F>(
    items: &[T],
    threads: usize,
    f: F,
) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    parallel_map_with_threads(items, threads, f)
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, |_, &x: &u32| x * 2).is_empty());
        assert_eq!(parallel_map(&[7u32], |i, &x| (i, x)), vec![(0, 7)]);
    }

    #[test]
    fn results_arrive_in_index_order_for_every_thread_count() {
        let items: Vec<u64> = (0..103).collect();
        let expected: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| i as u64 + x)
            .collect();
        for threads in 1..=11 {
            let got = parallel_map_with_threads(&items, threads, |i, &x| i as u64 + x);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn float_results_are_bit_identical_across_thread_counts() {
        // Accumulating arithmetic per item: the merge must never change the
        // per-item value, only the wall-clock.
        let items: Vec<f64> = (0..257).map(|i| 0.1 * i as f64 + 0.037).collect();
        let f = |i: usize, &x: &f64| (x * 1.0001 + i as f64 / 3.0).sin() * x;
        let sequential = parallel_map_with_threads(&items, 1, f);
        for threads in [2, 3, 5, 8, 13] {
            let parallel = parallel_map_with_threads(&items, threads, f);
            for (a, b) in sequential.iter().zip(&parallel) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads = {threads}");
            }
        }
    }

    #[test]
    fn mutable_fan_out_is_thread_count_independent() {
        let seed: Vec<f64> = (0..131).map(|i| 0.3 * i as f64 + 0.011).collect();
        let f = |i: usize, x: &mut f64| {
            *x = (*x * 1.0001 + i as f64 / 7.0).cos() * *x;
            x.to_bits()
        };
        let mut sequential = seed.clone();
        let expected = parallel_map_mut_with_threads(&mut sequential, 1, f);
        for threads in [2, 3, 5, 8, 13] {
            let mut items = seed.clone();
            let got = parallel_map_mut_with_threads(&mut items, threads, f);
            assert_eq!(got, expected, "results diverged at threads = {threads}");
            for (a, b) in sequential.iter().zip(&items) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "state diverged at threads = {threads}"
                );
            }
        }
        let mut empty: Vec<u32> = Vec::new();
        assert!(parallel_map_mut_with_threads(&mut empty, 4, |_, x: &mut u32| *x).is_empty());
    }

    #[test]
    fn fallible_fan_out_surfaces_the_lowest_indexed_error_for_every_thread_count() {
        // Items 37 and 5 both fail; index order says 5 must win no matter
        // which worker finished first.
        let items: Vec<u32> = (0..100).collect();
        for threads in [1usize, 2, 3, 8, 13] {
            let got = try_parallel_map_with_threads(&items, threads, |_, &x| {
                if x == 5 || x == 37 {
                    Err(format!("item {x} failed"))
                } else {
                    Ok(x * 2)
                }
            });
            assert_eq!(got, Err("item 5 failed".to_string()), "threads = {threads}");
            let ok =
                try_parallel_map_with_threads(&items, threads, |_, &x| Ok::<u32, String>(x * 2))
                    .unwrap();
            assert_eq!(ok, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_spawned_worker_is_counted() {
        // Other tests of this binary fan out concurrently, so the counter
        // may move by more than this test's workers, never by fewer. (The
        // exact counts, and that sequential paths add nothing, are pinned
        // by `scope-serve`'s `tests/fan_out.rs`, alone in its process.)
        let mut items: Vec<u32> = (0..10).collect();
        let before = workers_spawned();
        parallel_map_with_threads(&items, 3, |_, &x| x);
        parallel_map_mut_with_threads(&mut items, 4, |_, x| *x += 1);
        // Ten items over 3 and over 4 workers are chunks of 4 and of 3.
        assert!(workers_spawned() - before >= 3 + 4);
    }

    #[test]
    fn thread_count_is_clamped_to_item_count() {
        // More threads than items must not panic or drop items.
        let items = [1, 2, 3];
        assert_eq!(
            parallel_map_with_threads(&items, 64, |_, &x| x),
            vec![1, 2, 3]
        );
        assert!(default_threads() >= 1);
    }
}
