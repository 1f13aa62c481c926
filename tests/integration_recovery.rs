//! Storage corruption against the journaled serving engine's
//! crash-recovery contracts.
//!
//! Two layers of enforcement, both exact:
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
//!
//! Crashes themselves — at every storage operation of a fixed run, with
//! the unsynced tail torn at every frame end ± 1 byte, and a second crash
//! inside the recovery or the resumed run — are enumerated, not sampled,
//! by `scope-serve`'s journal tests.

mod common;

use common::{heat_bits, random_columns, restore, schemes, HORIZON_DAYS};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use scope_cloudsim::{EventColumns, TierCatalog};
use scope_serve::{JournaledEngine, ServeEngine, ServeError, Serving};
use scope_wal::{parse_segment_name, JournalConfig, MemStorage, WalError};
use std::ops::Range;

const OBJECTS: usize = 10;
const ACCOUNTS: usize = 2;

fn build_engine() -> Result<ServeEngine, ServeError> {
    Ok(common::build_engine(OBJECTS, ACCOUNTS))
}

fn journal_cfg() -> JournalConfig {
    // Tiny segments so every run rolls several and corruption can land
    // in interior segments as well as the active tail.
    JournalConfig {
        segment_records: 2,
        keep_checkpoints: 2,
    }
}

/// Split the stream into `n` sequenced batches, preserving order.
fn make_batches(rng: &mut SmallRng, n_events: usize, n: usize) -> Vec<EventColumns> {
    let columns = random_columns(rng, n_events, OBJECTS);
    let total = columns.len();
    let per = total.div_ceil(n.max(1)).max(1);
    (0..n.max(1))
        .map(|b| columns.range((b * per).min(total)..((b + 1) * per).min(total)))
        .collect()
}

/// Step positions `steps` of the fixed schedule on `engine`: delivery
/// `d` sits at position `d` before the boundary and `d + 1` after it; the
/// boundary (advance + re-solve + durable checkpoint when `publish`,
/// marker = the position after it) is position `mid`; the final epoch
/// (advance to the horizon + re-solve) is position `batches.len() + 1`.
fn run_steps<E: Serving>(
    engine: &mut E,
    batches: &[EventColumns],
    steps: Range<usize>,
    publish: bool,
) {
    let mid = batches.len() / 2;
    for pos in steps {
        if pos == mid {
            engine.advance_to(HORIZON_DAYS / 2).unwrap();
            engine.resolve(&[]).unwrap();
            if publish {
                engine.checkpoint_epoch(mid as u64 + 1).unwrap();
            }
        } else if pos > batches.len() {
            engine.advance_to(HORIZON_DAYS).unwrap();
            engine.resolve(&[]).unwrap();
        } else {
            let seq = if pos > mid { pos - 1 } else { pos };
            engine.deliver(seq as u64, &batches[seq]).unwrap();
        }
    }
}

/// Every step of the schedule but the final epoch, journaled, then sync
/// and crash.
fn journaled_run(batches: &[EventColumns], publish: bool) -> MemStorage {
    let mut j =
        JournaledEngine::create(build_engine().unwrap(), MemStorage::new(), journal_cfg()).unwrap();
    run_steps(&mut j, batches, 0..batches.len() + 1, publish);
    j.sync().unwrap();
    let mut storage = j.crash();
    storage.crash();
    storage
}

/// The never-crashed twin over the whole schedule.
fn twin_checkpoint(batches: &[EventColumns]) -> Vec<u8> {
    let mut twin = build_engine().unwrap();
    run_steps(&mut twin, batches, 0..batches.len() + 2, true);
    twin.checkpoint()
}

/// Recover from `storage` (rebuilding from scratch on a typed
/// `Unrecoverable`), run the schedule on from the position recovery
/// proves durable — re-delivering what was lost, re-running an
/// un-covered boundary — through the final epoch, and return the
/// engine's checkpoint. Panics only on contract violations —
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
            // Positions as in `run_steps`.
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
    run_steps(&mut j, batches, resume_pos..batches.len() + 2, true);
    j.engine().checkpoint()
}

/// Every non-empty durable object, by name.
fn durable_names(storage: &MemStorage) -> Vec<String> {
    let mut names: Vec<String> = storage
        .durable_objects()
        .into_iter()
        .filter(|(_, len)| *len > 0)
        .map(|(name, _)| name)
        .collect();
    names.sort();
    names
}

/// Objects eligible for tail corruption: the active (highest-ordinal)
/// segment and every checkpoint.
fn tail_targets(storage: &MemStorage) -> Vec<String> {
    let names = durable_names(storage);
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
    /// interiors included — is detected by the frame checksum (or the
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
        let names = durable_names(&storage);
        let name = &names[target as usize % names.len()];
        storage.flip_durable_bit(name, bit);
        prop_assert_eq!(recover_and_finish(storage, &batches), twin_checkpoint(&batches));
    }

    /// Duplicating an arbitrary-length tail of any durable object never
    /// panics. Almost always the duplicate bytes fail the frame checksum and
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
        let names = durable_names(&storage);
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
            let (rec, tw) = (restore(&recovered).unwrap(), restore(&twin).unwrap());
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
    run_steps(&mut j, &batches, mid..batches.len() + 2, true);
    assert_eq!(j.engine().checkpoint(), twin_checkpoint(&batches));
}
