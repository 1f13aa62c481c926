//! PR-10 recovery suite: storage corruption against the journaled
//! serving engine's crash-recovery contracts.
//!
//! Three layers of enforcement, all exact:
//!
//! * **Proptests** corrupt the raw storage under a journaled run —
//!   truncating the active segment tail and checkpoint objects at
//!   arbitrary byte offsets, flipping arbitrary single bits in arbitrary
//!   durable objects, duplicating arbitrary-length segment tails — and
//!   assert recovery never panics, fails only with typed [`WalError`]s,
//!   and that recover + re-delivery lands the engine bit-for-bit on a
//!   never-crashed twin.
//! * **Epoch-boundary cut** — when corruption forces recovery past every
//!   checkpoint, the replay tail is cut at the first epoch marker and
//!   the harness re-runs the boundary, so the decayed heat still matches
//!   the twin exactly.
//! * **End-to-end** — the `scope_core::recovery` scenario upholds every
//!   contract on generated enterprise traces under light and heavy
//!   storage-fault plans.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scope::core::recovery::{run_recovery, RecoveryOptions};
use scope::core::ServingOptions;
use scope_cloudsim::{AccessKind, EventColumns, TierCatalog, TierId};
use scope_faults::StorageFaultRates;
use scope_serve::{
    CompressionOption, JournaledEngine, ServeConfig, ServeEngine, ServeError, ServeObject,
};
use scope_wal::{parse_segment_name, JournalConfig, MemStorage, WalError};
use scope_workload::EnterpriseOptions;

const HORIZON_DAYS: u32 = 60;
const OBJECTS: usize = 10;
const ACCOUNTS: usize = 2;

fn schemes() -> Vec<CompressionOption> {
    vec![
        CompressionOption::none(),
        CompressionOption::new("zstd", 2.4, 0.35),
    ]
}

fn build_engine() -> Result<ServeEngine, ServeError> {
    let config = ServeConfig {
        horizon_days: HORIZON_DAYS,
        horizon_months: f64::from(HORIZON_DAYS) / 30.0,
        threads: 1,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(TierCatalog::azure_hot_cool_archive(), schemes(), config)?;
    for i in 0..OBJECTS {
        engine.register(ServeObject::new(
            format!("obj-{i}"),
            format!("acct-{}", i % ACCOUNTS),
            1.0 + i as f64 * 0.37,
            TierId(0),
        ))?;
    }
    Ok(engine)
}

fn journal_cfg() -> JournalConfig {
    // Tiny segments so every run rolls several and corruption can land
    // in interior segments as well as the active tail.
    JournalConfig {
        segment_records: 2,
        keep_checkpoints: 2,
    }
}

/// A random event stream with everything the validating intake must
/// handle: out-of-horizon days, unknown object ids, NaN and negative
/// volumes, mixed reads and writes.
fn random_columns(rng: &mut SmallRng, n_events: usize) -> EventColumns {
    let mut cols = EventColumns::default();
    for _ in 0..n_events {
        let day = rng.gen_range(0..HORIZON_DAYS + 20);
        let id = rng.gen_range(0..OBJECTS as u32 + 3);
        let kind = if rng.gen_bool(0.2) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let volume = match rng.gen_range(0u32..10) {
            0 => f64::NAN,
            1 => -rng.gen_range(0.1f64..5.0),
            _ => rng.gen_range(0.01f64..3.0),
        };
        cols.push_resolved(day, id, kind, volume);
    }
    cols
}

/// Split the stream into `n` sequenced batches, preserving order.
fn make_batches(rng: &mut SmallRng, n_events: usize, n: usize) -> Vec<EventColumns> {
    let columns = random_columns(rng, n_events);
    let total = columns.len();
    let per = total.div_ceil(n.max(1)).max(1);
    (0..n.max(1))
        .map(|b| {
            let lo = (b * per).min(total);
            let hi = ((b + 1) * per).min(total);
            let mut batch = EventColumns::default();
            batch.days.extend_from_slice(&columns.days[lo..hi]);
            batch.periods.extend_from_slice(&columns.periods[lo..hi]);
            batch
                .object_ids
                .extend_from_slice(&columns.object_ids[lo..hi]);
            batch.kinds.extend_from_slice(&columns.kinds[lo..hi]);
            batch.volumes.extend_from_slice(&columns.volumes[lo..hi]);
            batch
        })
        .collect()
}

/// The fixed schedule: deliver the first half, run an epoch boundary
/// (advance + re-solve + durable checkpoint when `publish`, marker =
/// position after the boundary), deliver the rest, sync — then crash.
/// The final epoch (advance to the horizon + re-solve) runs only on the
/// recovered engine and the twin.
fn journaled_run(batches: &[EventColumns], publish: bool) -> MemStorage {
    let mid = batches.len() / 2;
    let mut j =
        JournaledEngine::create(build_engine().unwrap(), MemStorage::new(), journal_cfg()).unwrap();
    for (seq, batch) in batches[..mid].iter().enumerate() {
        j.ingest_sequenced(seq as u64, batch).unwrap();
    }
    j.advance(HORIZON_DAYS / 2).unwrap();
    j.reoptimize().unwrap();
    if publish {
        j.checkpoint_durable(mid as u64 + 1).unwrap();
    }
    for (off, batch) in batches[mid..].iter().enumerate() {
        j.ingest_sequenced((mid + off) as u64, batch).unwrap();
    }
    j.sync().unwrap();
    let mut storage = j.crash();
    storage.crash();
    storage
}

/// The never-crashed twin over the same schedule, final epoch included.
fn twin_checkpoint(batches: &[EventColumns]) -> Vec<u8> {
    let mid = batches.len() / 2;
    let mut twin = build_engine().unwrap();
    for (seq, batch) in batches.iter().enumerate() {
        if seq == mid {
            twin.advance(HORIZON_DAYS / 2);
            twin.reoptimize().unwrap();
        }
        twin.ingest_sequenced(seq as u64, batch).unwrap();
    }
    twin.advance(HORIZON_DAYS);
    twin.reoptimize().unwrap();
    twin.checkpoint()
}

fn heat_bits(engine: &ServeEngine) -> Vec<Option<u64>> {
    (0..engine.len() as u32)
        .map(|id| engine.heat(id).map(f64::to_bits))
        .collect()
}

/// Recover from `storage` (rebuilding from scratch on a typed
/// `Unrecoverable`), re-deliver every batch recovery does not prove
/// durable, re-run un-covered epoch boundaries, run the final epoch, and
/// return the engine's checkpoint. Panics only on contract violations —
/// every corruption outcome must surface as a typed error or a clean
/// resume.
fn recover_and_finish(storage: MemStorage, batches: &[EventColumns]) -> Vec<u8> {
    let mid = batches.len() / 2;
    let (mut j, resume_pos) = match JournaledEngine::recover(
        storage,
        journal_cfg(),
        TierCatalog::azure_hot_cool_archive(),
        schemes(),
        build_engine,
    ) {
        Ok((j, report)) => {
            // Position semantics match the schedule in `journaled_run`:
            // delivery d sits at position d before the boundary and d+1
            // after it; the boundary itself is position `mid`.
            let d = usize::try_from(report.resume_deliveries).unwrap();
            let after_delivery = if d > mid { d + 1 } else { d };
            (
                j,
                after_delivery.max(usize::try_from(report.marker).unwrap()),
            )
        }
        Err(ServeError::Wal(WalError::Unrecoverable(_))) => (
            JournaledEngine::create(build_engine().unwrap(), MemStorage::new(), journal_cfg())
                .unwrap(),
            0,
        ),
        Err(err) => panic!("recovery failed with a non-storage error: {err}"),
    };
    for pos in resume_pos..batches.len() + 1 {
        if pos == mid {
            j.advance(HORIZON_DAYS / 2).unwrap();
            j.reoptimize().unwrap();
            j.checkpoint_durable(mid as u64 + 1).unwrap();
        } else {
            let seq = if pos > mid { pos - 1 } else { pos };
            j.ingest_sequenced(seq as u64, &batches[seq]).unwrap();
        }
    }
    j.advance(HORIZON_DAYS).unwrap();
    j.reoptimize().unwrap();
    j.engine().checkpoint()
}

/// Objects eligible for tail corruption: the active (highest-ordinal)
/// segment and every checkpoint.
fn tail_targets(storage: &MemStorage) -> Vec<String> {
    let mut names: Vec<String> = storage
        .durable_objects()
        .into_iter()
        .filter(|(_, len)| *len > 0)
        .map(|(name, _)| name)
        .collect();
    names.sort();
    let last_segment = names
        .iter()
        .rfind(|n| parse_segment_name(n).is_some())
        .cloned();
    names
        .into_iter()
        .filter(|n| parse_segment_name(n).is_none() || Some(n) == last_segment.as_ref())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Truncation at arbitrary byte offsets — of the active segment
    /// (the torn-tail crash model, including cuts on exact frame
    /// boundaries that silently drop acknowledged records) or of a
    /// checkpoint object (forcing walk-back or a fresh rebuild) — never
    /// panics, and recover + re-delivery matches the clean twin
    /// byte-for-byte.
    #[test]
    fn arbitrary_truncation_recovers_to_the_twin(
        n_events in 1usize..240,
        n_batches in 2usize..8,
        target in proptest::arbitrary::any::<u32>(),
        keep in proptest::arbitrary::any::<u64>(),
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let batches = make_batches(&mut rng, n_events, n_batches);
        let mut storage = journaled_run(&batches, true);
        let targets = tail_targets(&storage);
        let name = &targets[target as usize % targets.len()];
        storage.corrupt_durable(name, |bytes| {
            bytes.truncate(keep as usize % (bytes.len() + 1));
        });
        prop_assert_eq!(recover_and_finish(storage, &batches), twin_checkpoint(&batches));
    }

    /// A single bit flip anywhere in any durable object — segment
    /// interiors included — is detected by the frame CRC (or the
    /// checkpoint's self-check), quarantined with a typed error, and
    /// recover + re-delivery still matches the clean twin byte-for-byte.
    #[test]
    fn arbitrary_single_bit_flips_recover_to_the_twin(
        n_events in 1usize..240,
        n_batches in 2usize..8,
        target in proptest::arbitrary::any::<u32>(),
        bit in proptest::arbitrary::any::<u64>(),
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let batches = make_batches(&mut rng, n_events, n_batches);
        let mut storage = journaled_run(&batches, true);
        let mut names: Vec<String> = storage
            .durable_objects()
            .into_iter()
            .filter(|(_, len)| *len > 0)
            .map(|(name, _)| name)
            .collect();
        names.sort();
        let name = &names[target as usize % names.len()];
        storage.flip_durable_bit(name, bit);
        prop_assert_eq!(recover_and_finish(storage, &batches), twin_checkpoint(&batches));
    }

    /// Duplicating an arbitrary-length tail of any durable object never
    /// panics. Almost always the duplicate bytes fail the frame CRC and
    /// are truncated or quarantined; if the duplicated span happens to be
    /// exactly one whole frame it replays as a *valid duplicate
    /// delivery*, which the sequenced intake drops — so heat, quarantine
    /// and drop counters always match the twin, and the full checkpoint
    /// matches whenever no such synthetic duplicate was manufactured.
    #[test]
    fn duplicated_tails_recover_without_panicking(
        n_events in 1usize..240,
        n_batches in 2usize..8,
        target in proptest::arbitrary::any::<u32>(),
        dup in proptest::arbitrary::any::<u64>(),
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let batches = make_batches(&mut rng, n_events, n_batches);
        let mut storage = journaled_run(&batches, true);
        let mut names: Vec<String> = storage
            .durable_objects()
            .into_iter()
            .filter(|(_, len)| *len > 0)
            .map(|(name, _)| name)
            .collect();
        names.sort();
        let name = &names[target as usize % names.len()];
        storage.corrupt_durable(name, |bytes| {
            let tail = bytes[bytes.len() - (dup as usize % bytes.len() + 1)..].to_vec();
            bytes.extend(tail);
        });
        let recovered = recover_and_finish(storage, &batches);
        let twin = twin_checkpoint(&batches);
        if recovered != twin {
            // The only admissible divergence: the duplicated tail formed
            // a whole valid frame, replayed, and was dropped by the
            // sequenced intake as a duplicate — heat, quarantine and
            // drop counters must still match; only the duplicate counter
            // (and therefore the checkpoint checksum) may differ.
            let rec = ServeEngine::restore(
                TierCatalog::azure_hot_cool_archive(), schemes(), &recovered).unwrap();
            let tw = ServeEngine::restore(
                TierCatalog::azure_hot_cool_archive(), schemes(), &twin).unwrap();
            prop_assert_eq!(heat_bits(&rec), heat_bits(&tw));
            prop_assert_eq!(rec.events_seen(), tw.events_seen());
            prop_assert_eq!(rec.dropped_events(), tw.dropped_events());
            prop_assert_eq!(rec.quarantine().entries(), tw.quarantine().entries());
            prop_assert!(
                rec.duplicate_batches() > tw.duplicate_batches(),
                "checkpoints differ but no synthetic duplicate was replayed"
            );
        }
    }
}

#[test]
fn epoch_boundary_cut_lands_on_the_twin_without_a_checkpoint() {
    // A crash after deliveries crossed an epoch boundary with no durable
    // checkpoint yet: the journal tail spans the boundary, so recovery
    // must cut it at the marker — replaying deliveries across an
    // un-replayable decay + re-solve would leave the heat off the clean
    // trajectory — and the harness re-runs the boundary itself.
    let mut rng = SmallRng::seed_from_u64(41);
    let batches = make_batches(&mut rng, 160, 6);
    let mid = batches.len() / 2;
    let storage = journaled_run(&batches, false);
    let (j, report) = JournaledEngine::recover(
        storage,
        journal_cfg(),
        TierCatalog::azure_hot_cool_archive(),
        schemes(),
        build_engine,
    )
    .unwrap();
    assert!(report.started_fresh, "no checkpoint was ever published");
    assert!(
        report.wal.epoch_cut_bytes > 0,
        "the tail crossed the boundary and must have been cut: {report:?}"
    );
    assert_eq!(
        report.resume_deliveries, mid as u64,
        "recovery must resume exactly at the boundary"
    );
    assert_eq!(report.marker, 0);

    // Resume: re-run the boundary, re-deliver the second half, final
    // epoch — byte-identical to the never-crashed twin.
    let mut j = j;
    j.advance(HORIZON_DAYS / 2).unwrap();
    j.reoptimize().unwrap();
    j.checkpoint_durable(mid as u64 + 1).unwrap();
    for (off, batch) in batches[mid..].iter().enumerate() {
        j.ingest_sequenced((mid + off) as u64, batch).unwrap();
    }
    j.advance(HORIZON_DAYS).unwrap();
    j.reoptimize().unwrap();
    assert_eq!(j.engine().checkpoint(), twin_checkpoint(&batches));
}

#[test]
fn recovery_scenario_upholds_every_contract_end_to_end() {
    for (seed, rates) in [
        // No plan faults: every crash comes from the fuzzed points alone.
        (7u64, StorageFaultRates::none()),
        (3, StorageFaultRates::light()),
        (17, StorageFaultRates::heavy()),
    ] {
        let outcome = run_recovery(&RecoveryOptions {
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
            ..Default::default()
        })
        .unwrap();
        assert!(outcome.crashes >= 3, "seed {seed}: {outcome:?}");
        assert!(outcome.forced_crashes >= 3, "seed {seed}: {outcome:?}");
        assert!(
            outcome.checkpoints_bit_identical,
            "seed {seed}: {outcome:?}"
        );
        assert!(outcome.final_bit_identical, "seed {seed}: {outcome:?}");
        for (i, e) in outcome.epochs.iter().enumerate() {
            assert!(e.checkpoint_matches_twin, "seed {seed} epoch {i}");
            assert!(e.objective_bits_match, "seed {seed} epoch {i}");
        }
    }
}
