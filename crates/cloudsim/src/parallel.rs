//! Deterministic parallel fan-out: one primitive, and maps over it.
//!
//! The solvers, learners and sweeps in the upper crates are embarrassingly
//! parallel over independent items (account shards, stretches of a cost
//! table, datasets of a schedule plan, trees of a forest, rows of the
//! policy table), and the billing replay is parallel over units of events
//! whose outcomes must be folded in trace order. Every result must be
//! **bit-for-bit identical** to the sequential loop: the outputs feed
//! golden-pinned tables and differential oracles.
//!
//! One primitive spawns, joins and re-raises: [`ordered_stream_with_threads`].
//! The work is cut into *units*, which the parties (the spawned resolvers
//! and the caller) claim from a shared counter. An order-free `resolve`
//! stage fills a small ring of reused buffers, one unit each, on whichever
//! party claimed it. An ordered `apply` stage consumes the buffers on the
//! calling thread strictly in unit order. The outcome is the sequential
//! loop's for every thread count, because `apply` sees the same buffers in
//! the same order, and memory is bounded by `threads × unit`.
//!
//! The maps ([`parallel_map`], [`parallel_map_with_threads`] and the
//! in-place [`parallel_map_mut_with_threads`]) are in-order collects over
//! the stream. The items are cut into contiguous units of
//! `ceil(len / (threads × UNITS_PER_THREAD))`; any party resolves a unit
//! into a reused `Vec<R>`, and the caller appends the units to the output
//! in unit order. Every item's result is a pure function of
//! `(index, item)`, computed exactly as the sequential loop computes it,
//! so which party ran which unit never shows in the output. At one
//! thread, or when the items fit in one unit, a map *is* the sequential
//! `collect`: nothing is spawned and the output is the one allocation.
//!
//! No cut by weight is needed. Item cost can be wildly uneven along the
//! caller's order: COMPREDICT's training samples arrive in table order,
//! and the first half of the end-to-end benchmark's 91 holds 97% of their
//! serialised bytes. A static cut by count would leave one worker idle for
//! most of the span, and a cut by weight rests on the caller's estimate.
//! Here a party that finishes a cheap unit claims the next one, so the
//! split follows the work actually done.
//!
//! Every fan-out follows one rule: `n` threads means
//! `min(n − 1, units − 1)` spawned resolvers plus the caller
//! ([`workers_spawned`] counts them). No work stealing beyond the counter,
//! no reduction-order dependence, no rayon in the shims.
//!
//! This module is the only place in the workspace where `std::thread` may
//! appear (`scope-analyze`'s `no-raw-threads` rule).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, OnceLock, PoisonError};

/// Worker threads spawned by this module since the process started.
static WORKERS_SPAWNED: AtomicU64 = AtomicU64::new(0);

/// Worker threads every fan-out of this module has spawned since the
/// process started — a statistic (relaxed, publishes nothing) that lets a
/// test prove a call ran sequentially or did not nest. A fan-out of `n`
/// threads over `units` units adds exactly `min(n − 1, units − 1)` (the
/// caller is the last party); one thread or one unit adds nothing.
pub fn workers_spawned() -> u64 {
    WORKERS_SPAWNED.load(Ordering::Relaxed)
}

/// Upper bound on worker threads: fan-outs nest (a sweep over
/// configurations may build cost tables in parallel inside each
/// configuration), so each level stays modest instead of oversubscribing
/// quadratically.
const MAX_THREADS: usize = 8;

/// Number of hardware threads to fan out over, capped at `MAX_THREADS`.
/// The host is read once per process: std documents
/// `available_parallelism` as possibly expensive, and every auto-threaded
/// call asks.
pub fn default_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_THREADS)
    })
}

/// Units a map cuts each thread's share of its items into. More units let
/// a party that drew cheap items claim more of them, but not without end:
/// a resolver holds two buffers, so one that runs ahead of a caller busy
/// with a heavy unit stalls until the caller applies. Measured by
/// replaying the serialised bytes of the end-to-end benchmark's 91
/// COMPREDICT samples (97% of them in the first half, in table order)
/// through the claim-and-ring protocol, as a share of all the bytes on
/// the critical path, 1 / 2 / 3 / 4 / 6 / 8 units per thread: two parties
/// 97 / 77 / 56 / 55 / 53–57 / 58–60%, four 76 / 48 / 32 / 31–32 / 28 /
/// 35%, eight 48 / 27 / 24 / 22 / 18 / 18% (ranges: whether the caller or
/// a resolver claims first). Four has the lowest worst case on two
/// parties, the benchmark host, and is within about four points of the
/// best on four and eight; the static weight cut it replaces bounded two
/// parties at 60%.
const UNITS_PER_THREAD: usize = 4;

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

/// [`parallel_map`] with an explicit thread count (`0` and `1` = the
/// plain sequential loop). The thread count affects only wall-clock time,
/// never the output: units are contiguous index ranges, appended to the
/// output in unit order.
pub fn parallel_map_with_threads<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let unit = unit_len(items.len(), threads);
    if threads <= 1 || items.len() <= unit {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    collect_units(items.len(), unit, threads, |base, out| {
        let slice = items[base..].iter().take(unit);
        out.extend(slice.enumerate().map(|(j, item)| f(base + j, item)));
    })
}

/// Map `f` over `items` in parallel **with mutable access to each item**,
/// returning results in index order — the in-place counterpart of
/// [`parallel_map_with_threads`] for workers that update owned per-item
/// state (the serving engine's account shards, the cost table's row
/// stretches) while the merge stays deterministic. Bit-for-bit identical
/// to `items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect()`, which
/// is what runs at one thread or one unit. Otherwise each unit's disjoint
/// `chunks_mut` slice waits in a slot of its own until the party that
/// claims the unit takes it, so each item is visited by exactly one party
/// and the thread count affects neither the output nor the final item
/// states.
pub fn parallel_map_mut_with_threads<T, R, F>(items: &mut [T], threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let (len, unit) = (items.len(), unit_len(items.len(), threads));
    if threads <= 1 || len <= unit {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let slots: Vec<Mutex<Option<&mut [T]>>> = items
        .chunks_mut(unit)
        .map(|s| Mutex::new(Some(s)))
        .collect();
    collect_units(len, unit, threads, |base, out| {
        // A unit is claimed once, so its slot is full when it is taken. The
        // lock is held for the `take` alone, which cannot panic, so no slot
        // is ever poisoned: `into_inner` is never reached.
        let slot = slots[base / unit]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        let slice = slot.into_iter().flatten();
        out.extend(slice.enumerate().map(|(j, item)| f(base + j, item)));
    })
}

/// Items per unit of a map of `len` items on `threads` threads.
fn unit_len(len: usize, threads: usize) -> usize {
    len.div_ceil(threads.max(1) * UNITS_PER_THREAD).max(1)
}

/// The in-order collect behind every map: stream `len` items in units of
/// `unit`, `resolve(first_index, buffer)` appending one unit's results to
/// a reused buffer, and append each buffer to the output in unit order
/// (which leaves it empty for its next unit).
fn collect_units<R, F>(len: usize, unit: usize, threads: usize, resolve: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &mut Vec<R>) + Sync,
{
    let mut out = Vec::with_capacity(len);
    let streamed = ordered_stream_with_threads(
        len.div_ceil(unit),
        threads,
        || Vec::with_capacity(unit),
        |u, buffer: &mut Vec<R>| resolve(u * unit, buffer),
        |_, buffer| {
            out.append(buffer);
            Ok::<(), std::convert::Infallible>(())
        },
    );
    match streamed {
        Ok(()) => out,
        Err(never) => match never {},
    }
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
/// caller with its own payload once every resolver has been joined; one on
/// the caller unwinds as it is, the dropped channels releasing every
/// resolver before the join.
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
    use std::sync::atomic::AtomicBool;

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
        // Ten items over 3 and over 4 threads are ten units of one item:
        // `threads − 1` resolvers beside the caller each time.
        assert!(workers_spawned() - before >= 2 + 3);
        // One item is one unit, whatever `threads` says.
        let caller = std::thread::current().id();
        let ran_on = parallel_map_with_threads(&items[..1], 8, |_, _| std::thread::current().id());
        assert_eq!(ran_on, vec![caller]);
    }

    /// Run `map(f)` where `f` panics with a payload saying whether it ran
    /// on the caller — on resolver threads if `on_resolver`, else on the
    /// caller — and return that payload as caught on the caller. With more
    /// than one thread, every call of `f` first waits until both sides have
    /// run it, so both do whatever the scheduler does: the caller resolves
    /// a unit while nothing has arrived, and a resolver claims the next
    /// unit while the caller is busy.
    fn panic_through(
        threads: usize,
        on_resolver: bool,
        map: impl FnOnce(&(dyn Fn(usize) + Sync)),
    ) -> String {
        let caller = std::thread::current().id();
        let (caller_ran, resolver_ran) = (AtomicBool::new(false), AtomicBool::new(false));
        let f = |i: usize| {
            let on_caller = std::thread::current().id() == caller;
            let (mine, theirs) = if on_caller {
                (&caller_ran, &resolver_ran)
            } else {
                (&resolver_ran, &caller_ran)
            };
            mine.store(true, Ordering::SeqCst);
            while threads > 1 && !theirs.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            if on_caller != on_resolver {
                std::panic::panic_any(format!("item {i} exploded on the caller: {on_caller}"));
            }
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| map(&f)));
        let payload = outcome.expect_err("the panic must cross the map");
        payload
            .downcast_ref::<String>()
            .cloned()
            .expect("the panic's own payload")
    }

    #[test]
    fn a_panic_in_a_map_re_raises_on_the_caller_with_its_own_payload() {
        let items: Vec<u32> = (0..64).collect();
        for (threads, on_resolver) in [(1, false), (2, true), (3, true), (8, true), (2, false)] {
            for by_ref in [true, false] {
                let mut owned = items.clone();
                let got = panic_through(threads, on_resolver, |f| {
                    if by_ref {
                        parallel_map_with_threads(&items, threads, |i, _| f(i));
                    } else {
                        parallel_map_mut_with_threads(&mut owned, threads, |i, _| f(i));
                    }
                });
                assert!(
                    got.ends_with(&format!("exploded on the caller: {}", !on_resolver)),
                    "threads {threads}, by_ref {by_ref}: {got}"
                );
            }
        }
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
