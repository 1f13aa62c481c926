//! Deterministic parallel fan-out over index ranges.
//!
//! The solvers and sweeps in the upper crates are embarrassingly parallel
//! over independent items (partitions of a cost table, datasets of a
//! schedule plan, configurations of a sweep), but their results must be
//! **bit-for-bit identical** to the sequential path: the optimizer output
//! feeds golden-pinned tables and differential oracles. This module
//! provides the fan-out shape that guarantees it:
//!
//! * work is chunked by **index** into contiguous slices — cut either by
//!   **count** (equal-length chunks, the `parallel_map*` forms) or by
//!   **cumulative weight** ([`parallel_map_weighted_with_threads`]: a chunk
//!   ends where the running sum of a caller-supplied per-item weight
//!   crosses the next multiple of `total / threads`),
//! * each worker computes its slice with the shared closure,
//! * results are merged back **in index order**.
//!
//! Because every item's result is a pure function of `(index, item)` and
//! floating-point arithmetic is performed per item exactly as the
//! sequential loop would, the output is independent of the thread count
//! and of where the cuts fall — [`parallel_map_with_threads`] with 1 thread
//! *is* the sequential loop, and the determinism proptests pin
//! `threads = n` against it for both kinds of cut. No work stealing, no
//! reduction-order dependence, no rayon in the shims.
//!
//! The weight cut exists because item order is the caller's and item cost
//! can be wildly uneven along it: COMPREDICT's 91 training samples of the
//! end-to-end benchmark arrive in table order, and the two equal-count
//! halves of that list hold 7 564 058 and 205 629 serialised bytes (97.4%
//! / 2.6%) — an equal-count cut leaves the second worker idle for all but
//! a sliver of the span. A cut by weight keeps the chunks contiguous (so
//! the merge and the guarantee are unchanged) and bounds the heaviest chunk
//! by `total / threads` plus one item's weight.
//!
//! Beside the two cuts there is one **ordered-streaming** shape,
//! [`ordered_stream_with_threads`], for work whose results are too many to
//! collect and whose merge is itself the expensive, order-sensitive part
//! (the billing replay: an outcome per event, accumulated in trace order).
//! The work is cut into fixed-size *units*; an order-free `resolve` stage
//! fills a small ring of reused buffers, one unit each, on whichever thread
//! is free, and an ordered `apply` stage consumes them on the calling
//! thread strictly in unit order. The guarantee is the same — the outcome
//! is the sequential loop's for every thread count, because `apply` sees
//! the same buffers in the same order — but memory is bounded by
//! `threads × unit` instead of growing with the input.
//!
//! This module is the only place in the workspace where `std::thread` may
//! appear (`scope-analyze`'s `no-raw-threads` rule).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;

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

/// Number of hardware threads to fan out over, capped at `MAX_THREADS`.
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

/// [`parallel_map_with_threads`] with the chunks cut by **cumulative
/// weight** instead of by count: `weight(item)` is the caller's estimate of
/// an item's cost (any unit), and chunk `k` ends at the first item where
/// the running sum reaches `(k + 1) · total / threads`. Chunks stay
/// contiguous and are merged in index order, so the output is bit-for-bit
/// the sequential loop's for any weights and any thread count; the weights
/// affect only wall-clock time. The heaviest chunk weighs at most
/// `total / threads` plus its last item; there may be fewer chunks than
/// `threads` (one item can cross several cut points), never more, and none
/// is empty. All-zero weights cut by count. `threads` clamps to the item
/// count, so a single item (or `threads == 1`) runs on the calling thread
/// and spawns nothing.
pub fn parallel_map_weighted_with_threads<T, R, W, F>(
    items: &[T],
    threads: usize,
    weight: W,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    W: Fn(&T) -> u64,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let weights: Vec<u64> = items.iter().map(weight).collect();
    let ends = weight_cuts(&weights, threads);
    let starts = std::iter::once(0).chain(ends.iter().copied());
    // Each chunk carries its own base index; `fan_out`'s equal-length base
    // (`ci * chunk_len`) is not used.
    let chunks = starts
        .zip(&ends)
        .map(|(start, &end)| (start, &items[start..end]));
    fan_out(chunks, items.len(), 0, |_, (base, slice)| {
        slice
            .iter()
            .enumerate()
            .map(|(j, item)| f(base + j, item))
            .collect()
    })
}

/// Exclusive end index of each chunk of a cut of `weights` over at most
/// `threads` contiguous, non-empty chunks (the last end is
/// `weights.len()`): chunk `k` is closed by the first item at which the
/// cumulative weight reaches `(k + 1) · total / threads`, and the last
/// chunk takes whatever remains. An item that crosses several cut points
/// closes one chunk and skips the others. All-zero weights count as all
/// ones.
fn weight_cuts(weights: &[u64], threads: usize) -> Vec<usize> {
    let sum: u128 = weights.iter().map(|&w| u128::from(w)).sum();
    let by_count = sum == 0;
    let total = if by_count { weights.len() as u128 } else { sum };
    let threads = threads as u128;
    let mut ends = Vec::with_capacity(threads as usize);
    // `crossed` cut points lie at or below the running sum `cum`.
    let (mut cum, mut crossed) = (0u128, 0u128);
    for (i, &w) in weights.iter().enumerate() {
        cum += if by_count { 1 } else { u128::from(w) };
        if crossed + 1 < threads && cum * threads >= (crossed + 1) * total {
            ends.push(i + 1);
            crossed = cum * threads / total;
        }
    }
    if ends.last() != Some(&weights.len()) && !weights.is_empty() {
        ends.push(weights.len());
    }
    ends
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

/// Buffers each party of [`ordered_stream_with_threads`] (every resolver,
/// and the caller for the units it resolves itself) cycles through: one
/// being filled while the other waits for its turn under `apply`.
const BUFFERS_PER_PARTY: usize = 2;

/// Ordered streaming: run `resolve(unit, &mut buffer)` for every `unit` in
/// `0..units` — on whichever thread is free — and hand each filled buffer
/// to `apply(unit, &mut buffer)` on the **calling** thread, strictly in
/// unit order. `resolve` must leave in the buffer a pure function of the
/// unit (it overwrites whatever an earlier unit left there); `apply` is the
/// only stage that may touch order-sensitive state, so the outcome is the
/// sequential loop `for u in 0..units { resolve(u, b); apply(u, b)?; }` for
/// every thread count — which is literally what runs, on one buffer and
/// with nothing spawned, when `threads <= 1` or there is a single unit.
///
/// Otherwise `min(threads - 1, units - 1)` resolver threads claim units
/// from a shared counter, each cycling through its own
/// `BUFFERS_PER_PARTY` (2) buffers from `new_buffer`. The caller applies the
/// next unit as soon as it has arrived; while it has not, the caller claims
/// and resolves a unit itself (into buffers of its own) instead of
/// waiting, so a resolver that is slow, descheduled or simply outnumbered
/// by the work costs no more than its own unit. At most
/// `2 × threads` buffers ever exist: memory is
/// `O(threads × unit)`, never `O(units)`.
///
/// The first `Err` of `apply` is returned and stops the stream: the
/// channels close, every resolver finishes at most the unit it is in and
/// exits, and no later unit is applied. A panic inside `resolve` on a
/// resolver thread stops the stream the same way and is re-raised on the
/// caller with its own payload once every resolver has been joined.
pub fn ordered_stream_with_threads<B, E, N, R, A>(
    units: usize,
    threads: usize,
    mut new_buffer: N,
    resolve: R,
    mut apply: A,
) -> Result<(), E>
where
    B: Send,
    N: FnMut() -> B,
    R: Fn(usize, &mut B) + Sync,
    A: FnMut(usize, &mut B) -> Result<(), E>,
{
    if units == 0 {
        return Ok(());
    }
    let resolvers = threads.saturating_sub(1).min(units - 1);
    if resolvers == 0 {
        let mut buffer = new_buffer();
        for unit in 0..units {
            resolve(unit, &mut buffer);
            apply(unit, &mut buffer)?;
        }
        return Ok(());
    }
    // The next unclaimed unit. Relaxed: a claim publishes nothing — a
    // resolved buffer reaches the caller through a channel, which orders it.
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let (resolve, next) = (&resolve, &next);
        // A resolved unit, tagged with the resolver its buffer goes back
        // to — or the payload of the panic that ended that resolver. Room
        // for every resolver buffer at once, so a send never blocks.
        type Panic = Box<dyn std::any::Any + Send>;
        let (done_tx, done_rx) =
            mpsc::sync_channel::<Result<(usize, usize, B), Panic>>(resolvers * BUFFERS_PER_PARTY);
        let mut handles = Vec::with_capacity(resolvers);
        let mut free_txs = Vec::with_capacity(resolvers);
        for w in 0..resolvers {
            let (free_tx, free_rx) = mpsc::sync_channel::<B>(BUFFERS_PER_PARTY);
            for _ in 0..BUFFERS_PER_PARTY {
                // Cannot fail: the receiver is alive and the channel has room.
                let _ = free_tx.try_send(new_buffer());
            }
            let done_tx = done_tx.clone();
            handles.push(scope.spawn(move || {
                // Either channel closing means the caller stopped the
                // stream (an `apply` error, or it is unwinding).
                while let Ok(mut buffer) = free_rx.recv() {
                    let unit = next.fetch_add(1, Ordering::Relaxed);
                    if unit >= units {
                        break;
                    }
                    let resolved = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        resolve(unit, &mut buffer)
                    }));
                    let died = resolved.is_err();
                    let message = resolved.map(|()| (unit, w, buffer));
                    if done_tx.send(message).is_err() || died {
                        break;
                    }
                }
            }));
            free_txs.push(free_tx);
        }
        drop(done_tx);
        WORKERS_SPAWNED.fetch_add(resolvers as u64, Ordering::Relaxed);

        let mut own: Vec<B> = (0..BUFFERS_PER_PARTY).map(|_| new_buffer()).collect();
        // Resolved units waiting for their turn: never more than there are
        // buffers, so a scan finds the next one.
        let mut ready: Vec<(usize, usize, B)> =
            Vec::with_capacity((resolvers + 1) * BUFFERS_PER_PARTY);
        let mut result = Ok(());
        let mut panicked = None;
        let mut applied = 0;
        while applied < units {
            if let Some(at) = ready.iter().position(|&(unit, ..)| unit == applied) {
                let (_, owner, mut buffer) = ready.swap_remove(at);
                result = apply(applied, &mut buffer);
                if result.is_err() {
                    break;
                }
                applied += 1;
                match free_txs.get(owner) {
                    // The resolver may already have exited (no unit left).
                    Some(free_tx) => {
                        let _ = free_tx.send(buffer);
                    }
                    None => own.push(buffer),
                }
                continue;
            }
            let arrived = match done_rx.try_recv() {
                Ok(message) => message,
                Err(_) => {
                    // Nothing has arrived: resolve a unit here, if one is
                    // unclaimed and a buffer of the caller's is free …
                    if let Some(mut buffer) = own.pop() {
                        let unit = next.fetch_add(1, Ordering::Relaxed);
                        if unit < units {
                            resolve(unit, &mut buffer);
                            ready.push((unit, resolvers, buffer));
                            continue;
                        }
                        own.push(buffer);
                    }
                    // … else wait: the next unit is claimed by a resolver
                    // that holds a buffer for it. (Every sender hanging up
                    // first cannot happen — each sends its claimed unit or
                    // its panic — and trips the assertion below if it does.)
                    match done_rx.recv() {
                        Ok(message) => message,
                        Err(_) => break,
                    }
                }
            };
            match arrived {
                Ok(done) => ready.push(done),
                Err(payload) => {
                    panicked = Some(payload);
                    break;
                }
            }
        }
        // Close every channel before joining, so a resolver blocked on an
        // empty free lane (or about to send) wakes up and exits.
        drop((free_txs, done_rx));
        for handle in handles {
            if let Err(payload) = handle.join() {
                panicked.get_or_insert(payload);
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
        // A stream that stopped short without an error or a panic would be
        // a silently partial result (a wrong bill): never return `Ok` for it.
        assert!(
            result.is_err() || applied == units,
            "ordered stream ended after {applied} of {units} units"
        );
        result
    })
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

    /// What one [`stream`] run did.
    #[derive(Debug, Clone, PartialEq)]
    struct Streamed {
        result: Result<(), String>,
        /// `(unit, payload bits)` in the order `apply` saw them.
        log: Vec<(usize, u64)>,
        /// An order-sensitive float fold over the payloads, as bits.
        sum: u64,
        buffers: usize,
        resolves: usize,
    }

    /// Drive the primitive over `units` units, `apply` refusing `fail_at`.
    fn stream(units: usize, threads: usize, fail_at: Option<usize>) -> Streamed {
        let buffers = AtomicUsize::new(0);
        let resolves = AtomicUsize::new(0);
        let mut log = Vec::new();
        let mut sum = 0.0f64;
        let result = ordered_stream_with_threads(
            units,
            threads,
            || {
                buffers.fetch_add(1, Ordering::Relaxed);
                (usize::MAX, 0.0f64)
            },
            |unit, buffer: &mut (usize, f64)| {
                resolves.fetch_add(1, Ordering::Relaxed);
                *buffer = (unit, (unit as f64 * 0.1 + 0.037).sin());
            },
            |unit, buffer: &mut (usize, f64)| {
                if fail_at == Some(unit) {
                    return Err(format!("unit {unit} refused"));
                }
                assert_eq!(buffer.0, unit, "buffer of another unit");
                sum = sum * 1.000_1 + buffer.1;
                log.push((unit, buffer.1.to_bits()));
                Ok(())
            },
        );
        Streamed {
            result,
            log,
            sum: sum.to_bits(),
            buffers: buffers.load(Ordering::Relaxed),
            resolves: resolves.load(Ordering::Relaxed),
        }
    }

    #[test]
    fn ordered_stream_applies_units_in_index_order_for_every_thread_count() {
        for units in [0usize, 1, 2, 3, 37, 200] {
            let sequential = stream(units, 1, None);
            assert_eq!(sequential.result, Ok(()));
            assert_eq!(
                sequential.log.iter().map(|&(u, _)| u).collect::<Vec<_>>(),
                (0..units).collect::<Vec<_>>()
            );
            assert_eq!(
                (sequential.buffers, sequential.resolves),
                (units.min(1), units)
            );
            for threads in [0usize, 2, 3, 5, 8, 13] {
                // The ring: two buffers per thread that takes part, one
                // buffer when nothing is spawned.
                let parties = threads.clamp(1, units.max(1));
                let expected = Streamed {
                    buffers: if parties == 1 {
                        units.min(1)
                    } else {
                        2 * parties
                    },
                    ..sequential.clone()
                };
                assert_eq!(
                    stream(units, threads, None),
                    expected,
                    "units {units} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn ordered_stream_returns_the_first_apply_error_and_stops_resolving() {
        for threads in [1usize, 2, 3, 8] {
            let got = stream(500, threads, Some(7));
            assert_eq!(
                got.result,
                Err("unit 7 refused".to_string()),
                "threads {threads}"
            );
            // Units before the failing one were applied, in order; none after.
            assert_eq!(
                got.log.iter().map(|&(u, _)| u).collect::<Vec<_>>(),
                (0..7).collect::<Vec<_>>()
            );
            // Resolvers ran ahead by no more than the ring and then stopped:
            // nowhere near the 500 units.
            assert!(
                (8..=8 + got.buffers).contains(&got.resolves),
                "threads {threads}: {} units resolved with {} buffers",
                got.resolves,
                got.buffers
            );
        }
    }

    #[test]
    fn ordered_stream_re_raises_a_resolve_panic_with_its_own_payload() {
        for threads in [1usize, 2, 3, 8] {
            let mut applied = Vec::new();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ordered_stream_with_threads(
                    64,
                    threads,
                    || 0usize,
                    |unit, buffer: &mut usize| {
                        if unit == 9 {
                            std::panic::panic_any(format!("unit {unit} exploded"));
                        }
                        *buffer = unit;
                    },
                    |unit, _: &mut usize| {
                        applied.push(unit);
                        Ok::<(), String>(())
                    },
                )
            }));
            let payload = outcome.expect_err("the panic must cross the stream");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("unit 9 exploded"),
                "threads {threads}"
            );
            // Whatever was applied before it was applied in order, and the
            // exploded unit never was.
            assert!(applied.len() <= 9, "threads {threads}: {applied:?}");
            assert_eq!(applied, (0..applied.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_spawned_worker_is_counted() {
        // Other tests of this binary fan out concurrently, so the counter
        // may move by more than this test's workers, never by fewer. (The
        // exact counts, and that sequential paths add nothing, are pinned
        // by `scope-serve`'s `tests/fan_out.rs` and the workspace's
        // `tests/plan_fan_out.rs`, each alone in its process.)
        let mut items: Vec<u32> = (0..10).collect();
        let before = workers_spawned();
        parallel_map_with_threads(&items, 3, |_, &x| x);
        parallel_map_mut_with_threads(&mut items, 4, |_, x| *x += 1);
        parallel_map_weighted_with_threads(&items, 5, |_| 1, |_, &x| x);
        // Ten items over 3 and over 4 workers are chunks of 4 and of 3; ten
        // equal weights over 5 are chunks of 2.
        assert!(workers_spawned() - before >= 3 + 4 + 5);
    }

    /// `(rows × columns, serialised bytes)` of the 91 COMPREDICT training
    /// samples of the end-to-end benchmark's `plan_batch` workload at seed
    /// 12, in the table order `build_examples` receives them.
    const PLAN_SAMPLES: [(u64, u64); 91] = [
        (93536, 785910),
        (49136, 413022),
        (49136, 413074),
        (24864, 209033),
        (14800, 124333),
        (14800, 124723),
        (14800, 124531),
        (29600, 248878),
        (29600, 248821),
        (57424, 483517),
        (58608, 492300),
        (10064, 85055),
        (14800, 124596),
        (13120, 110399),
        (8288, 69977),
        (11840, 99694),
        (11840, 99602),
        (10064, 84735),
        (58608, 492524),
        (57424, 482977),
        (4144, 35156),
        (20128, 169676),
        (48640, 408408),
        (48048, 403615),
        (6993, 78705),
        (6993, 78752),
        (3663, 41382),
        (2331, 26475),
        (4329, 48598),
        (4329, 49081),
        (8172, 92469),
        (8172, 92048),
        (1665, 19047),
        (4329, 49178),
        (4329, 48529),
        (8172, 92012),
        (8172, 92271),
        (6840, 77225),
        (6840, 77531),
        (5661, 63826),
        (1225, 23874),
        (1595, 31393),
        (1665, 32868),
        (2035, 39549),
        (2590, 50742),
        (1225, 23947),
        (304, 5802),
        (304, 5763),
        (1200, 22280),
        (1200, 22280),
        (1200, 22280),
        (1200, 22280),
        (592, 11124),
        (592, 11085),
        (592, 11035),
        (612, 5675),
        (306, 3117),
        (306, 3125),
        (306, 3089),
        (576, 5231),
        (576, 5311),
        (306, 3009),
        (306, 3089),
        (306, 3009),
        (70, 1352),
        (70, 1352),
        (70, 1352),
        (70, 1352),
        (70, 1352),
        (70, 1352),
        (70, 1352),
        (70, 1352),
        (70, 1352),
        (70, 1352),
        (70, 1352),
        (70, 1352),
        (70, 1352),
        (100, 1690),
        (100, 1690),
        (100, 1690),
        (100, 1690),
        (100, 1690),
        (100, 1690),
        (100, 1690),
        (100, 1690),
        (100, 1690),
        (100, 1690),
        (100, 1690),
        (15, 293),
        (15, 293),
        (15, 293),
    ];

    /// The cut the public function makes of `weights` (same clamp), with
    /// its invariants asserted: at most `threads` chunks, contiguous,
    /// non-empty, covering every index, the heaviest at most
    /// `total / threads` plus the heaviest item.
    fn checked_cuts(weights: &[u64], threads: usize) -> Vec<usize> {
        let threads = threads.clamp(1, weights.len().max(1));
        let ends = weight_cuts(weights, threads);
        if weights.is_empty() {
            assert!(ends.is_empty());
            return ends;
        }
        assert!(ends.len() <= threads, "{weights:?} over {threads}");
        assert_eq!(ends.last(), Some(&weights.len()));
        assert!(ends[0] > 0 && ends.windows(2).all(|w| w[0] < w[1]));
        // All-zero weights count as all ones.
        let by_count = weights.iter().all(|&w| w == 0);
        let effective = |w: u64| if by_count { 1 } else { u128::from(w) };
        let total: u128 = weights.iter().map(|&w| effective(w)).sum();
        let heaviest_item = weights.iter().map(|&w| effective(w)).max().unwrap_or(0);
        let mut start = 0;
        for &end in &ends {
            let chunk: u128 = weights[start..end].iter().map(|&w| effective(w)).sum();
            assert!(
                chunk * threads as u128 <= total + heaviest_item * threads as u128,
                "chunk {start}..{end} of {weights:?} over {threads} weighs {chunk}"
            );
            start = end;
        }
        ends
    }

    #[test]
    fn weight_cuts_are_contiguous_non_empty_and_balanced() {
        let shapes: Vec<Vec<u64>> = vec![
            vec![],
            vec![5],
            vec![0; 9],
            vec![7; 24],
            vec![1, 2, 3],
            (1..=40).collect(),
            (1..=40).rev().collect(),
            // One item holding more than 90% of the weight: first, middle, last.
            vec![1000, 1, 2, 3, 4, 5, 6, 7, 8, 9],
            vec![1, 2, 3, 4, 1000, 5, 6, 7, 8, 9],
            vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 1000],
            // Zero-weight items around and between the weight.
            vec![0, 0, 0, 9, 0, 0, 9, 0, 0, 0],
            vec![u64::MAX, u64::MAX, 1, u64::MAX],
        ];
        for weights in &shapes {
            for threads in 1..=13 {
                checked_cuts(weights, threads);
            }
        }
        // Equal weights over a divisor of the count cut evenly, a single
        // heavy item closes its chunk at once, and trailing zero-weight
        // items join the last chunk instead of forming one more.
        assert_eq!(checked_cuts(&[7; 24], 4), vec![6, 12, 18, 24]);
        assert_eq!(checked_cuts(&[1000, 1, 2, 3], 2), vec![1, 4]);
        assert_eq!(checked_cuts(&[4, 4, 0, 0], 2), vec![1, 4]);
        assert_eq!(checked_cuts(&[0; 9], 3), vec![3, 6, 9]);
    }

    #[test]
    fn the_plan_sample_profile_splits_no_worse_than_60_40_on_two_workers() {
        let share = |cut: usize, of: fn(&(u64, u64)) -> u64| {
            let first: u64 = PLAN_SAMPLES[..cut].iter().map(of).sum();
            let total: u64 = PLAN_SAMPLES.iter().map(of).sum();
            first as f64 / total as f64
        };
        // The equal-count cut this form replaces: 46 + 45 samples, 97.4% of
        // the serialised bytes on the first worker.
        assert_eq!(PLAN_SAMPLES.iter().map(|s| s.1).sum::<u64>(), 7_769_687);
        assert!(share(PLAN_SAMPLES.len().div_ceil(2), |s| s.1) > 0.97);
        // Cut by rows × columns, both the weight and the bytes it stands
        // for land within 60/40.
        let weights: Vec<u64> = PLAN_SAMPLES.iter().map(|s| s.0).collect();
        let ends = checked_cuts(&weights, 2);
        assert_eq!(ends.len(), 2);
        for of in [|s: &(u64, u64)| s.0, |s: &(u64, u64)| s.1] {
            let first = share(ends[0], of);
            assert!((0.4..=0.6).contains(&first), "first worker's share {first}");
        }
    }

    #[test]
    fn weighted_fan_out_is_the_sequential_loop_for_any_weights_and_thread_count() {
        let items: Vec<f64> = (0..97).map(|i| 0.1 * i as f64 + 0.037).collect();
        let f = |i: usize, &x: &f64| (i, ((x * 1.0001 + i as f64 / 3.0).sin() * x).to_bits());
        let sequential: Vec<(usize, u64)> =
            items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        let weightings: [fn(&f64) -> u64; 4] = [
            |_| 1,
            |_| 0,
            |&x| (x * x * 100.0) as u64,
            |&x| if x < 0.1 { 1_000_000 } else { 1 },
        ];
        for weight in weightings {
            for threads in 1..=13 {
                let got = parallel_map_weighted_with_threads(&items, threads, weight, f);
                assert_eq!(got, sequential, "threads = {threads}");
            }
        }
        let empty: Vec<f64> = Vec::new();
        assert!(parallel_map_weighted_with_threads(&empty, 4, |_| 1, f).is_empty());
        // A single item runs on the calling thread whatever `threads` says.
        let caller = std::thread::current().id();
        let ran_on = parallel_map_weighted_with_threads(
            &items[..1],
            8,
            |_| 1,
            |_, _| std::thread::current().id(),
        );
        assert_eq!(ran_on, vec![caller]);
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
