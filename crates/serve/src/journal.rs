//! Journaled mode: the serving engine behind a durable write-ahead
//! intake journal, with end-to-end crash recovery.
//!
//! # Durability and recovery
//!
//! [`JournaledEngine`] wraps a [`ServeEngine`] and a
//! [`scope_wal::Journal`] over any [`Storage`] backend, and enforces the
//! write-ahead discipline:
//!
//! * **Append before fold.** Every delivered batch — including
//!   duplicates and out-of-order arrivals — is appended to the journal
//!   *before* [`ServeEngine::ingest_sequenced`] sees it. The journal is
//!   therefore a verbatim log of the delivery stream, and replaying it
//!   re-runs the exact call sequence: heat bits, the reorder buffer, the
//!   quarantine ledger and even the `duplicate_batches` counter evolve
//!   bit-identically.
//! * **Sync at epoch boundaries.** [`JournaledEngine::advance`] appends
//!   an epoch-boundary marker record and syncs the journal before the
//!   engine advances, so a crash can only lose deliveries of the current
//!   (unfinished) epoch — which the producer re-delivers from the
//!   recovered position. The marker matters when *both* retained
//!   checkpoints are lost: the boundary's decay and re-solve are engine
//!   effects the journal cannot replay, so recovery cuts its replay tail
//!   at the first marker instead of replaying deliveries across the
//!   boundary, and the producer re-runs the boundary itself.
//! * **Atomic checkpoints, retired segments.**
//!   [`JournaledEngine::checkpoint_durable`] publishes the engine's
//!   versioned, checksummed snapshot through the journal's atomic
//!   write-temp + rename path, then retires segments the snapshot
//!   covers (keeping enough history to walk back past one corrupt
//!   checkpoint). The caller's `marker` — its position in the replay
//!   schedule — rides in the checkpoint frame so the harness can tell a
//!   snapshot taken after an epoch's re-solve from one taken before it.
//!
//! **Recovery is one protocol**, [`JournaledEngine::recover`]: load the
//! newest checkpoint that passes both the frame checksum and
//! [`ServeEngine::restore`]'s own validation (walking back past corrupt
//! ones), truncate the journal's torn tail, quarantine corrupt interior
//! records with typed errors, then replay the surviving tail through the
//! validating sequenced intake. The [`RecoveryReport`] tells the
//! producer exactly how many deliveries the recovered state reflects
//! (`resume_deliveries`) and the last durable schedule position
//! (`marker`); re-delivering from there makes the recovered engine
//! bit-for-bit equal — heat bits, placements, objective bits, checkpoint
//! bytes — to an engine that never crashed, which `recovery_bench` and
//! the chaos suites assert in-process.

use crate::engine::{IngestReport, ResolveOutcome, ServeEngine, ShardFault};
use crate::error::ServeError;
use scope_cloudsim::{EventColumns, TierCatalog};
use scope_optassign::CompressionOption;
use scope_wal::{Journal, JournalConfig, Storage, WalRecoveryReport};

/// What a recovery run found and rebuilt.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Deliveries reflected in the recovered engine state: the producer
    /// resumes the delivery stream after this many deliveries.
    pub resume_deliveries: u64,
    /// The surviving checkpoint's progress marker (0 when recovery
    /// started from scratch): the caller's last durably-completed
    /// position in its replay schedule.
    pub marker: u64,
    /// Tail records replayed through the validating intake.
    pub replayed: u64,
    /// True when no usable checkpoint survived and recovery rebuilt the
    /// engine from its freshly-registered state plus a full replay.
    pub started_fresh: bool,
    /// The journal-level accounting: torn bytes cut, corrupt frames and
    /// checkpoints quarantined (each with its typed error).
    pub wal: WalRecoveryReport,
}

/// A [`ServeEngine`] whose intake is write-ahead journaled through `S`.
#[derive(Debug)]
pub struct JournaledEngine<S: Storage> {
    engine: ServeEngine,
    journal: Journal<S>,
}

impl<S: Storage> JournaledEngine<S> {
    /// Put `engine` behind a fresh journal on empty `storage`. Fails if
    /// the storage already holds a journal (recover it instead) or the
    /// config is invalid.
    pub fn create(engine: ServeEngine, storage: S, cfg: JournalConfig) -> Result<Self, ServeError> {
        let journal = Journal::create(storage, cfg)?;
        Ok(JournaledEngine { engine, journal })
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &ServeEngine {
        &self.engine
    }

    /// Total deliveries the journal has ever accepted (snapshot-covered
    /// plus live). The producer's position in the delivery stream.
    pub fn deliveries(&self) -> u64 {
        self.journal.appended()
    }

    /// Read access to the journal.
    pub fn journal(&self) -> &Journal<S> {
        &self.journal
    }

    /// Write-ahead sequenced intake: append the delivery to the journal,
    /// then fold it. An append or ingest error leaves the engine
    /// poisoned from the caller's point of view — treat it as a crash
    /// and run [`JournaledEngine::recover`].
    pub fn ingest_sequenced(
        &mut self,
        seq: u64,
        columns: &EventColumns,
    ) -> Result<IngestReport, ServeError> {
        self.journal.append(seq, columns)?;
        self.engine.ingest_sequenced(seq, columns)
    }

    /// Epoch boundary: journal a boundary marker, make every accepted
    /// delivery durable, then decay heat to `day`. The marker pins the
    /// boundary in the journal so recovery never replays deliveries
    /// across it — the decay/re-solve effects that happen here are not
    /// themselves journaled (see [`scope_wal::record::RECORD_EPOCH`]).
    pub fn advance(&mut self, day: u32) -> Result<(), ServeError> {
        self.journal.append_epoch(self.engine.epoch(), day)?;
        self.journal.sync()?;
        self.engine.advance(day);
        Ok(())
    }

    /// Durability barrier without advancing.
    pub fn sync(&mut self) -> Result<(), ServeError> {
        self.journal.sync()?;
        Ok(())
    }

    /// Incremental re-solve (see [`ServeEngine::reoptimize`]).
    pub fn reoptimize(&mut self) -> Result<ResolveOutcome, ServeError> {
        self.engine.reoptimize()
    }

    /// Incremental re-solve under injected shard faults.
    pub fn reoptimize_with_faults(
        &mut self,
        faults: &[Option<ShardFault>],
    ) -> Result<ResolveOutcome, ServeError> {
        self.engine.reoptimize_with_faults(faults)
    }

    /// Publish a durable checkpoint of the engine through the journal's
    /// atomic path and retire covered segments. `marker` is the caller's
    /// progress position, stored in the frame and returned by recovery.
    ///
    /// The engine serializes straight into the journal's frame buffer,
    /// behind the frame header: one buffer, kept across epochs, holds
    /// the snapshot from the moment it is written until storage has it.
    pub fn checkpoint_durable(&mut self, marker: u64) -> Result<(), ServeError> {
        let engine = &self.engine;
        self.journal
            .publish_checkpoint_with(marker, |frame| engine.checkpoint_into(frame))?;
        Ok(())
    }

    /// Simulate (or honor) a crash: drop all in-memory state, keeping
    /// only what the storage backend holds.
    pub fn crash(self) -> S {
        self.journal.into_storage()
    }

    /// The single recovery protocol (see the module docs). `fresh`
    /// builds the engine's initial state (catalog, schemes, registered
    /// objects) for the no-usable-checkpoint path — it must construct it
    /// exactly as the original run did.
    pub fn recover(
        storage: S,
        cfg: JournalConfig,
        catalog: TierCatalog,
        schemes: Vec<CompressionOption>,
        fresh: impl FnOnce() -> Result<ServeEngine, ServeError>,
    ) -> Result<(Self, RecoveryReport), ServeError> {
        // The journal's walk stops at the first snapshot the validator
        // accepts, so the engine that validation built *is* the restored
        // engine: the surviving snapshot is decoded and checksummed once.
        let mut restored = None;
        let recovered = Journal::recover(storage, cfg, |state| {
            restored = ServeEngine::restore(catalog.clone(), schemes.clone(), state).ok();
            restored.is_some()
        })?;
        let started_fresh = restored.is_none();
        let mut engine = match restored {
            Some(engine) => engine,
            None => fresh()?,
        };
        for record in &recovered.tail {
            match &record.payload {
                scope_wal::RecordPayload::Batch(columns) => {
                    engine.ingest_sequenced(record.seq, columns)?;
                }
                // Epoch markers never reach the tail — recovery cuts at
                // the first one — but a skip keeps replay total.
                scope_wal::RecordPayload::Epoch { .. } => {}
            }
        }
        let report = RecoveryReport {
            resume_deliveries: recovered.covered_deliveries + recovered.tail.len() as u64,
            marker: recovered.marker,
            replayed: recovered.tail.len() as u64,
            started_fresh,
            wal: recovered.report,
        };
        Ok((
            JournaledEngine {
                engine,
                journal: recovered.journal,
            },
            report,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ServeConfig, ServeObject};
    use scope_cloudsim::{AccessKind, TierId};
    use scope_wal::MemStorage;

    const HORIZON_DAYS: u32 = 60;

    fn schemes() -> Vec<CompressionOption> {
        vec![
            CompressionOption::none(),
            CompressionOption::new("zstd", 2.4, 0.35),
        ]
    }

    fn build_engine() -> ServeEngine {
        let config = ServeConfig {
            horizon_days: HORIZON_DAYS,
            horizon_months: f64::from(HORIZON_DAYS) / 30.0,
            threads: 1,
            ..ServeConfig::default()
        };
        let mut engine =
            ServeEngine::new(TierCatalog::azure_hot_cool_archive(), schemes(), config).unwrap();
        for i in 0..12u32 {
            engine
                .register(ServeObject::new(
                    format!("obj-{i}"),
                    format!("acct-{}", i % 3),
                    1.0 + f64::from(i) * 0.4,
                    TierId(0),
                ))
                .unwrap();
        }
        engine
    }

    fn batch(seq: u64, n: usize) -> EventColumns {
        let mut cols = EventColumns::default();
        for i in 0..n {
            cols.push_resolved(
                (seq as u32 * 5 + i as u32) % HORIZON_DAYS,
                (seq as u32 + i as u32) % 12,
                if i % 3 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                0.1 + seq as f64 * 0.01 + i as f64 * 0.2,
            );
        }
        cols
    }

    fn journaled() -> JournaledEngine<MemStorage> {
        JournaledEngine::create(build_engine(), MemStorage::new(), JournalConfig::default())
            .unwrap()
    }

    fn recover_mem(storage: MemStorage) -> (JournaledEngine<MemStorage>, RecoveryReport) {
        JournaledEngine::recover(
            storage,
            JournalConfig::default(),
            TierCatalog::azure_hot_cool_archive(),
            schemes(),
            || Ok(build_engine()),
        )
        .unwrap()
    }

    /// Never-crashed reference: plain engine fed deliveries `0..n`.
    fn plain_after(n: u64) -> ServeEngine {
        let mut engine = build_engine();
        for seq in 0..n {
            engine.ingest_sequenced(seq, &batch(seq, 6)).unwrap();
        }
        engine
    }

    #[test]
    fn a_clean_run_recovers_bit_for_bit_after_a_synced_crash() {
        let mut j = journaled();
        for seq in 0..5 {
            j.ingest_sequenced(seq, &batch(seq, 6)).unwrap();
        }
        j.sync().unwrap();
        let mut storage = j.crash();
        storage.crash();
        let (j2, report) = recover_mem(storage);
        assert_eq!(report.resume_deliveries, 5);
        assert!(report.started_fresh, "no checkpoint was ever published");
        assert_eq!(report.replayed, 5);
        assert_eq!(j2.engine().checkpoint(), plain_after(5).checkpoint());
    }

    #[test]
    fn unsynced_deliveries_roll_back_and_are_redelivered() {
        let mut j = journaled();
        for seq in 0..3 {
            j.ingest_sequenced(seq, &batch(seq, 6)).unwrap();
        }
        j.sync().unwrap();
        for seq in 3..6 {
            j.ingest_sequenced(seq, &batch(seq, 6)).unwrap();
        }
        // Crash without syncing: deliveries 3..6 are lost.
        let mut storage = j.crash();
        storage.crash();
        let (mut j2, report) = recover_mem(storage);
        assert_eq!(report.resume_deliveries, 3);
        // The producer re-delivers from the reported position.
        for seq in report.resume_deliveries..6 {
            j2.ingest_sequenced(seq, &batch(seq, 6)).unwrap();
        }
        assert_eq!(j2.engine().checkpoint(), plain_after(6).checkpoint());
        assert_eq!(j2.deliveries(), 6);
    }

    #[test]
    fn checkpoints_carry_the_marker_and_cover_replay() {
        let mut j = journaled();
        for seq in 0..4 {
            j.ingest_sequenced(seq, &batch(seq, 6)).unwrap();
        }
        j.advance(15).unwrap();
        j.reoptimize().unwrap();
        j.checkpoint_durable(777).unwrap();
        for seq in 4..6 {
            j.ingest_sequenced(seq, &batch(seq, 6)).unwrap();
        }
        j.sync().unwrap();
        let mut storage = j.crash();
        storage.crash();
        let (j2, report) = recover_mem(storage);
        assert_eq!(report.marker, 777);
        assert_eq!(report.resume_deliveries, 6);
        assert_eq!(report.replayed, 2, "only post-checkpoint tail replays");
        assert!(!report.started_fresh);

        // Never-crashed twin with the same schedule.
        let mut twin = build_engine();
        for seq in 0..4 {
            twin.ingest_sequenced(seq, &batch(seq, 6)).unwrap();
        }
        twin.advance(15);
        twin.reoptimize().unwrap();
        for seq in 4..6 {
            twin.ingest_sequenced(seq, &batch(seq, 6)).unwrap();
        }
        assert_eq!(j2.engine().checkpoint(), twin.checkpoint());
    }

    #[test]
    fn durable_checkpoints_from_the_reused_buffer_equal_the_encoded_frame() {
        let mut j = journaled();
        j.ingest_sequenced(0, &batch(0, 6)).unwrap();
        // Epoch 1 snapshots a batch parked in the reorder buffer; epoch 2,
        // with the gap filled, is shorter — the buffer must carry nothing
        // over from the longer frame (nor from the record frames between).
        j.ingest_sequenced(2, &batch(2, 40)).unwrap();
        let mut lens = Vec::new();
        for (epoch, marker) in [(1u64, 10u64), (2, 20)] {
            j.advance(15 * epoch as u32).unwrap();
            j.reoptimize().unwrap();
            j.checkpoint_durable(marker).unwrap();
            let ordinal = j.journal().active_segment();
            let published = j
                .journal()
                .storage()
                .read(&scope_wal::checkpoint_name(ordinal))
                .unwrap();
            let expect = scope_wal::CheckpointFrame {
                replay_from: ordinal,
                deliveries: j.deliveries(),
                marker,
                state: j.engine().checkpoint(),
            };
            assert_eq!(published, expect.encode(), "epoch {epoch}");
            assert_eq!(
                scope_wal::CheckpointFrame::decode("ckpt", &published).unwrap(),
                expect
            );
            lens.push(published.len());
            j.ingest_sequenced(epoch, &batch(epoch, 6)).unwrap();
        }
        assert!(lens[1] < lens[0], "{lens:?}");
    }

    #[test]
    fn a_rejected_newest_snapshot_walks_back_to_one_restore_of_the_older() {
        // The newest checkpoint is frame-valid but holds a snapshot the
        // engine refuses (taken under other schemes): recovery must not
        // keep anything from the failed validation.
        let mut j = journaled();
        for seq in 0..3 {
            j.ingest_sequenced(seq, &batch(seq, 6)).unwrap();
        }
        j.sync().unwrap();
        j.checkpoint_durable(1).unwrap();
        j.ingest_sequenced(3, &batch(3, 6)).unwrap();
        j.sync().unwrap();
        let mut storage = j.crash();
        let foreign = ServeEngine::new(
            TierCatalog::azure_hot_cool_archive(),
            vec![CompressionOption::none()],
            ServeConfig::default(),
        )
        .unwrap();
        let frame = scope_wal::CheckpointFrame {
            replay_from: 2,
            deliveries: 4,
            marker: 2,
            state: foreign.checkpoint(),
        };
        storage
            .write_atomic(&scope_wal::checkpoint_name(2), &frame.encode())
            .unwrap();
        let (j2, report) = recover_mem(storage);
        assert_eq!(report.marker, 1);
        assert!(!report.started_fresh);
        assert_eq!(report.wal.quarantined_checkpoints.len(), 1);
        assert_eq!(report.resume_deliveries, 4);
        assert_eq!(j2.engine().checkpoint(), plain_after(4).checkpoint());
    }

    #[test]
    fn duplicate_and_reordered_deliveries_replay_identically() {
        // Delivery stream with a duplicate and a local swap; the journal
        // must log it verbatim so even `duplicate_batches` recovers.
        let stream: Vec<u64> = vec![0, 1, 1, 3, 2, 4];
        let mut j = journaled();
        for &seq in &stream {
            j.ingest_sequenced(seq, &batch(seq, 6)).unwrap();
        }
        j.sync().unwrap();
        let mut storage = j.crash();
        storage.crash();
        let (j2, report) = recover_mem(storage);
        assert_eq!(report.resume_deliveries, 6);
        assert_eq!(j2.engine().duplicate_batches(), 1);

        let mut twin = build_engine();
        for &seq in &stream {
            twin.ingest_sequenced(seq, &batch(seq, 6)).unwrap();
        }
        assert_eq!(j2.engine().checkpoint(), twin.checkpoint());
    }

    #[test]
    fn a_corrupt_newest_checkpoint_walks_back_and_still_recovers_equal() {
        let mut j = journaled();
        for seq in 0..3 {
            j.ingest_sequenced(seq, &batch(seq, 6)).unwrap();
        }
        j.sync().unwrap();
        j.checkpoint_durable(1).unwrap();
        for seq in 3..5 {
            j.ingest_sequenced(seq, &batch(seq, 6)).unwrap();
        }
        j.sync().unwrap();
        j.checkpoint_durable(2).unwrap();
        let mut storage = j.crash();
        storage.crash();
        // Corrupt the newest checkpoint (ordinal 2).
        assert!(storage.flip_durable_bit(&scope_wal::checkpoint_name(2), 77));
        let (j2, report) = recover_mem(storage);
        assert_eq!(report.marker, 1, "recovered from the older checkpoint");
        assert_eq!(report.wal.quarantined_checkpoints.len(), 1);
        assert_eq!(report.resume_deliveries, 5);
        assert_eq!(report.replayed, 2);
        assert_eq!(j2.engine().checkpoint(), plain_after(5).checkpoint());
    }

    #[test]
    fn torn_tails_and_interior_corruption_yield_typed_reports() {
        let mut j = journaled();
        for seq in 0..2 {
            j.ingest_sequenced(seq, &batch(seq, 6)).unwrap();
        }
        j.sync().unwrap();
        j.ingest_sequenced(2, &batch(2, 6)).unwrap();
        let mut storage = j.crash();
        storage.crash_torn(&scope_wal::segment_name(0), 11);
        storage.crash();
        let (mut j2, report) = recover_mem(storage);
        assert_eq!(report.wal.torn_bytes, 11);
        assert_eq!(report.resume_deliveries, 2);
        for seq in 2..4 {
            j2.ingest_sequenced(seq, &batch(seq, 6)).unwrap();
        }
        assert_eq!(j2.engine().checkpoint(), plain_after(4).checkpoint());
    }
}
