//! Property tests pinning the incremental serving path to the batch
//! oracle: after any random sequence of heat-delta batches, the
//! incremental re-solve equals a from-scratch solve of the final state
//! bit-for-bit, and the account-sharded fan-out is thread-count
//! independent — down to the bytes of every epoch's checkpoint.

use proptest::prelude::*;
use scope_cloudsim::{BillingEvent, EventColumns, TierCatalog, TierId};
use scope_serve::{reference, CompressionOption, ServeConfig, ServeEngine, ServeObject, Serving};

fn schemes() -> Vec<CompressionOption> {
    vec![
        CompressionOption::none(),
        CompressionOption::new("gzip", 3.5, 1.5),
        CompressionOption::new("zstd", 2.4, 0.35),
    ]
}

fn build_engine(accounts: usize, per_account: usize, config: ServeConfig) -> ServeEngine {
    let mut engine = ServeEngine::new(TierCatalog::azure_hot_cool_archive(), schemes(), config)
        .expect("engine config is valid");
    for a in 0..accounts {
        for o in 0..per_account {
            let gid = a * per_account + o;
            let mut spec = ServeObject::new(
                format!("obj-{a}-{o}"),
                format!("acct-{a}"),
                0.8 + gid as f64 * 0.53,
                TierId(gid % 2),
            )
            .with_residency_days((gid as u32 * 17) % 190);
            if gid % 4 == 0 {
                spec = spec.with_latency_threshold(2.0);
            }
            engine.register(spec).expect("registration is valid");
        }
    }
    engine
}

/// Deterministic trace from a seed: `events_per_day` accesses per day with
/// a skew toward low object ids, ~10% writes.
fn seeded_trace(
    engine: &ServeEngine,
    days: u32,
    events_per_day: u32,
    mut seed: u64,
) -> Vec<BillingEvent> {
    let mut draw = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (seed >> 33) as u32
    };
    let n = engine.len() as u32;
    let mut events = Vec::new();
    for day in 0..days {
        for _ in 0..events_per_day {
            let r = draw() % n;
            let id = (u64::from(r) * u64::from(r) / u64::from(n)) as u32;
            let name = engine
                .object_name(id.min(n - 1))
                .expect("id in range")
                .to_string();
            let volume = 0.02 + f64::from(draw() % 128) / 100.0;
            if draw() % 10 == 0 {
                events.push(BillingEvent::write(name, day, volume));
            } else {
                events.push(BillingEvent::read(name, day, volume));
            }
        }
    }
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random batch boundaries, trace seeds and fleet shapes: on every
    /// epoch the incremental outcome must equal the cold reference solve
    /// of the same state — choices exactly, objectives bit-for-bit.
    #[test]
    fn incremental_equals_from_scratch_after_random_batches(
        accounts in 1usize..4,
        per_account in 2usize..9,
        epoch_lengths in proptest::collection::vec(1u32..25, 2..7),
        events_per_day in 5u32..40,
        seed in 0u64..1_000_000_000,
    ) {
        let mut engine = build_engine(accounts, per_account, ServeConfig::default());
        let days: u32 = epoch_lengths.iter().sum();
        let events = seeded_trace(&engine, days, events_per_day, seed);
        let columns = EventColumns::from_events(&events, |n| engine.object_id(n));

        let mut day = 0u32;
        for (epoch, &len) in epoch_lengths.iter().enumerate() {
            let batch = columns.filter_day_range(day, day + len);
            engine.deliver(epoch as u64, &batch).expect("in order");
            day += len;
            engine.advance(day);

            let cold = reference::full_resolve(&engine).expect("reference solve");
            let outcome = engine.reoptimize().expect("incremental solve");

            prop_assert_eq!(outcome.accounts.len(), cold.len());
            for (inc, full) in outcome.accounts.iter().zip(&cold) {
                prop_assert_eq!(&inc.account, &full.account, "epoch {}", epoch);
                prop_assert_eq!(
                    &inc.assignment.choices,
                    &full.assignment.choices,
                    "epoch {}: choices diverged for {}",
                    epoch,
                    inc.account
                );
                prop_assert_eq!(
                    inc.assignment.objective.to_bits(),
                    full.assignment.objective.to_bits(),
                    "epoch {}: objective bits diverged for {}",
                    epoch,
                    inc.account
                );
                // The engine sums its dense mirror of the chosen entries,
                // the reference a freshly built table.
                prop_assert_eq!(
                    inc.assignment.breakdown,
                    full.assignment.breakdown,
                    "epoch {}: breakdown diverged for {}",
                    epoch,
                    inc.account
                );
            }
            prop_assert_eq!(
                outcome.total_objective.to_bits(),
                reference::total_objective(&cold).to_bits(),
                "epoch {}: totals diverged",
                epoch
            );
        }
    }

    /// The account-sharded fan-out merges in account order: any thread
    /// count — one, several, or the engine's own choice — must produce
    /// the sequential outcome bit-for-bit, and a snapshot, which does not
    /// record the knob, the same bytes after every epoch.
    #[test]
    fn sharded_resolve_is_thread_count_independent(
        accounts in 2usize..5,
        per_account in 2usize..7,
        threads in 2usize..9,
        events_per_day in 5u32..30,
        seed in 0u64..1_000_000_000,
    ) {
        let engine = |threads| {
            build_engine(accounts, per_account, ServeConfig { threads, ..ServeConfig::default() })
        };
        let mut sequential = engine(1);
        let mut others = [engine(threads), engine(2), engine(0)];

        let events = seeded_trace(&sequential, 45, events_per_day, seed);
        let columns = EventColumns::from_events(&events, |n| sequential.object_id(n));
        for epoch in 0..3u32 {
            let batch = columns.filter_day_range(epoch * 15, epoch * 15 + 15);
            sequential.deliver(u64::from(epoch), &batch).expect("in order");
            sequential.advance(epoch * 15 + 15);
            let a = sequential.reoptimize().expect("sequential solve");
            let snapshot = sequential.checkpoint();
            for parallel in &mut others {
                parallel.deliver(u64::from(epoch), &batch).expect("in order");
                parallel.advance(epoch * 15 + 15);
                let b = parallel.reoptimize().expect("parallel solve");
                prop_assert_eq!(a.total_objective.to_bits(), b.total_objective.to_bits());
                prop_assert_eq!(a.rows_patched, b.rows_patched);
                prop_assert_eq!(a.retier_decisions, b.retier_decisions);
                for (x, y) in a.accounts.iter().zip(&b.accounts) {
                    prop_assert_eq!(&x.assignment, &y.assignment);
                }
                prop_assert_eq!(
                    &parallel.checkpoint(),
                    &snapshot,
                    "epoch {}: threads = {}",
                    epoch,
                    parallel.config().threads
                );
            }
        }
    }
}
