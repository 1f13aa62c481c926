//! PR-9 chaos suite: fault injection against the serving engine's
//! degraded-mode contracts.
//!
//! Three layers of enforcement, all exact:
//!
//! * **Proptests** fuzz the validating intake against the independent
//!   [`scope_faults::expected_intake`] reference — quarantine contents
//!   and `dropped_events` must be invariant under arbitrary batch splits,
//!   duplicated and reordered delivery, and seeded fault plans.
//! * **Crash replay** — restoring a mid-stream checkpoint and replaying
//!   the surviving batches must land bit-for-bit on the never-crashed
//!   engine's state (checkpoints compared as raw bytes).
//! * **End-to-end** — the `scope_core::run_chaos` scenario upholds every
//!   contract on generated enterprise traces under light and heavy fault
//!   mixes.

mod common;

use common::{build_engine, heat_bits, random_columns, restore, HORIZON_DAYS};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use scope::core::{run_chaos, ChaosOptions, ServingOptions};
use scope_cloudsim::EventColumns;
use scope_faults::{expected_intake, FaultPlan, FaultRates};
use scope_serve::{ServeEngine, Serving};
use scope_workload::EnterpriseOptions;

/// Split `columns` at the (deduplicated, sorted) positions derived from
/// `cuts`, preserving order.
fn split_at(columns: &EventColumns, cuts: &[usize]) -> Vec<EventColumns> {
    let n = columns.len();
    let mut points: Vec<usize> = cuts.iter().map(|&c| c % (n + 1)).collect();
    points.push(0);
    points.push(n);
    points.sort_unstable();
    points.dedup();
    points
        .windows(2)
        .map(|w| columns.range(w[0]..w[1]))
        .collect()
}

/// Deliver `batches` in order as sequence numbers `first..`.
fn deliver_in_order(engine: &mut ServeEngine, first: usize, batches: &[EventColumns]) {
    for (seq, batch) in (first as u64..).zip(batches) {
        engine.deliver(seq, batch).unwrap();
    }
}

/// Assert `engine`'s intake state equals the reference over `batches`.
fn assert_matches_expected(engine: &ServeEngine, batches: &[EventColumns]) {
    let expected = expected_intake(
        batches,
        HORIZON_DAYS,
        engine.len() as u32,
        engine.quarantine().capacity(),
    );
    assert_eq!(engine.quarantine().entries(), expected.records.as_slice());
    assert_eq!(engine.quarantine().total(), expected.quarantined);
    assert_eq!(engine.quarantine().truncated(), expected.truncated);
    assert_eq!(engine.dropped_events(), expected.dropped);
    assert_eq!(engine.events_seen(), expected.events_seen);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite 3, part 1: however a stream is split into batches, the
    /// quarantine ledger (contents, order, counters), `dropped_events`,
    /// and per-object heat are identical — and equal to the independent
    /// intake reference over the unsplit stream.
    #[test]
    fn quarantine_and_drops_are_invariant_under_batch_splits(
        n_events in 0usize..400,
        cuts in proptest::collection::vec(0usize..400, 0..8),
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let columns = random_columns(&mut rng, n_events, 12);

        let mut whole = build_engine(12, 3);
        whole.deliver(0, &columns).unwrap();

        let mut split = build_engine(12, 3);
        let batches = split_at(&columns, &cuts);
        deliver_in_order(&mut split, 0, &batches);

        prop_assert_eq!(split.quarantine().entries(), whole.quarantine().entries());
        prop_assert_eq!(split.quarantine().total(), whole.quarantine().total());
        prop_assert_eq!(split.dropped_events(), whole.dropped_events());
        prop_assert_eq!(split.events_seen(), whole.events_seen());
        prop_assert_eq!(heat_bits(&split), heat_bits(&whole));
        assert_matches_expected(&whole, std::slice::from_ref(&columns));
        assert_matches_expected(&split, &batches);
    }

    /// Satellite 3, part 2: duplicated and locally reordered delivery
    /// through the sequenced intake leaves the engine bit-identical to an
    /// in-order, exactly-once delivery — quarantine, drops, and heat.
    #[test]
    fn sequenced_intake_neutralizes_duplication_and_reordering(
        n_events in 0usize..300,
        cuts in proptest::collection::vec(0usize..300, 0..6),
        dup_mask in proptest::arbitrary::any::<u32>(),
        swap_mask in proptest::arbitrary::any::<u32>(),
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let columns = random_columns(&mut rng, n_events, 10);
        let batches = split_at(&columns, &cuts);

        // Build a chaotic delivery: adjacent swaps, then duplicates of
        // some batches appended right after the original.
        let mut order: Vec<u64> = (0..batches.len() as u64).collect();
        let mut i = 0;
        while i + 1 < order.len() {
            if swap_mask >> (i % 32) & 1 == 1 {
                order.swap(i, i + 1);
                i += 2;
            } else {
                i += 1;
            }
        }
        let mut delivery: Vec<u64> = Vec::new();
        for (k, &seq) in order.iter().enumerate() {
            delivery.push(seq);
            if dup_mask >> (k % 32) & 1 == 1 {
                delivery.push(seq);
            }
        }

        let mut inorder = build_engine(10, 2);
        deliver_in_order(&mut inorder, 0, &batches);
        let mut chaotic = build_engine(10, 2);
        let mut duplicates = 0u64;
        for &seq in &delivery {
            chaotic.deliver(seq, &batches[seq as usize]).unwrap();
        }
        for (k, _) in order.iter().enumerate() {
            duplicates += u64::from(dup_mask >> (k % 32) & 1);
        }

        prop_assert_eq!(chaotic.pending_batches(), 0);
        prop_assert_eq!(chaotic.duplicate_batches(), duplicates);
        prop_assert_eq!(chaotic.quarantine().entries(), inorder.quarantine().entries());
        prop_assert_eq!(chaotic.dropped_events(), inorder.dropped_events());
        prop_assert_eq!(chaotic.events_seen(), inorder.events_seen());
        prop_assert_eq!(heat_bits(&chaotic), heat_bits(&inorder));
        assert_matches_expected(&chaotic, &batches);
    }

    /// Fault-plan fuzz: for any seed, corrupting + tearing batches through
    /// a [`FaultPlan`] and delivering them with the plan's duplication and
    /// reordering leaves (a) heat bit-identical to a fault-free twin fed
    /// the plan's filtered stream and (b) the ledger equal to the intake
    /// reference over the delivered stream.
    #[test]
    fn fault_plans_agree_with_the_intake_reference(
        n_events in 0usize..300,
        plan_seed in proptest::arbitrary::any::<u64>(),
        stream_seed in proptest::arbitrary::any::<u64>(),
    ) {
        let plan = FaultPlan::new(plan_seed, FaultRates::heavy()).unwrap();
        let mut rng = SmallRng::seed_from_u64(stream_seed);
        // Valid volumes only: corruption comes from the plan.
        let mut columns = random_columns(&mut rng, n_events, 10);
        for v in &mut columns.volumes {
            if !v.is_finite() || *v < 0.0 {
                *v = 0.5;
            }
        }
        let batches = split_at(&columns, &[n_events / 3, 2 * n_events / 3]);

        let mut engine = build_engine(10, 2);
        let mut twin = build_engine(10, 2);
        let mut delivered = Vec::new();
        let mut sequenced = Vec::new();
        for (seq, batch) in batches.iter().enumerate() {
            let corrupted = plan.corrupt_batch(seq as u64, batch, HORIZON_DAYS);
            twin.deliver(seq as u64, &corrupted.clean).unwrap();
            delivered.push(corrupted.delivered.clone());
            sequenced.push((seq as u64, corrupted.delivered));
        }
        for (seq, batch) in plan.deliver(0, &sequenced) {
            engine.deliver(seq, &batch).unwrap();
        }

        prop_assert_eq!(heat_bits(&engine), heat_bits(&twin));
        assert_matches_expected(&engine, &delivered);
    }

    /// Crash replay: restore a mid-stream checkpoint, replay the
    /// surviving batches, and the final checkpoint is byte-identical to
    /// the never-crashed engine's.
    #[test]
    fn crash_restore_replay_lands_on_the_never_crashed_state(
        n_events in 1usize..300,
        cuts in proptest::collection::vec(0usize..300, 0..6),
        crash_after in 0usize..6,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let columns = random_columns(&mut rng, n_events, 10);
        let batches = split_at(&columns, &cuts);
        let crash_after = crash_after.min(batches.len());

        let mut durable = build_engine(10, 2);
        deliver_in_order(&mut durable, 0, &batches[..crash_after]);
        durable.advance(HORIZON_DAYS / 2);
        durable.reoptimize().unwrap();
        let snapshot = durable.checkpoint();
        deliver_in_order(&mut durable, crash_after, &batches[crash_after..]);
        durable.advance(HORIZON_DAYS);
        durable.reoptimize().unwrap();

        let mut restored = restore(&snapshot).unwrap();
        prop_assert_eq!(restored.checkpoint(), snapshot);
        deliver_in_order(&mut restored, crash_after, &batches[crash_after..]);
        restored.advance(HORIZON_DAYS);
        restored.reoptimize().unwrap();

        prop_assert_eq!(restored.checkpoint(), durable.checkpoint());
    }
}

#[test]
fn chaos_scenario_upholds_every_contract_end_to_end() {
    let mut quarantined = Vec::new();
    // Seeds whose plans end at least one of the eight epochs in a crash.
    for (seed, rates) in [
        (0xC4A0_5EED_u64, FaultRates::light()),
        (17, FaultRates::heavy()),
    ] {
        let outcome = run_chaos(&ChaosOptions {
            serving: ServingOptions {
                workload: EnterpriseOptions {
                    n_datasets: 40,
                    history_months: 4,
                    future_months: 4,
                    seed: 5,
                    ..Default::default()
                },
                ..Default::default()
            },
            seed,
            rates,
        })
        .unwrap();
        assert!(outcome.crashes > 0, "seed {seed}: no crash epoch fired");
        assert!(outcome.recoveries_bit_identical, "seed {seed}");
        assert!(outcome.recovered_matches_never_crashed, "seed {seed}");
        assert!(outcome.intake_matches_expected, "seed {seed}");
        for (i, e) in outcome.epochs.iter().enumerate() {
            assert!(e.heat_matches_twin, "seed {seed} epoch {i}");
            assert!(e.matches_reference, "seed {seed} epoch {i}");
            assert!(e.checkpoint_matches_twin, "seed {seed} epoch {i}");
            assert!(e.objective_bits_match, "seed {seed} epoch {i}");
        }
        quarantined.push(outcome.quarantined_events);
    }
    // The mixes inject what they are named for.
    assert!(
        0 < quarantined[0] && quarantined[0] < quarantined[1],
        "light/heavy quarantined {quarantined:?}"
    );
}

#[test]
fn degraded_shards_reconverge_once_faults_stop() {
    // Compute faults only (deterministic seeded schedule): some epoch must
    // degrade shards, and a later fault-free window must clear every stale
    // flag — the bounded backoff guarantees retries resume.
    let outcome = run_chaos(&ChaosOptions {
        serving: ServingOptions {
            workload: EnterpriseOptions {
                n_datasets: 40,
                history_months: 4,
                future_months: 6,
                seed: 5,
                ..Default::default()
            },
            ..Default::default()
        },
        seed: 23,
        rates: FaultRates {
            shard_failure: 0.3,
            deadline_overrun: 0.1,
            ..FaultRates::none()
        },
    })
    .unwrap();
    let first_stale = outcome
        .epochs
        .iter()
        .position(|e| e.stale_accounts > 0)
        .expect("seeded schedule injects at least one shard fault");
    assert!(
        outcome.epochs[first_stale..]
            .iter()
            .any(|e| e.stale_accounts == 0),
        "stale shards never reconverged: {outcome:?}"
    );
}
