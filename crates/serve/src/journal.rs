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
//! * **Atomic checkpoints that publish what changed, retired segments.**
//!   [`JournaledEngine::checkpoint_durable`] publishes the engine's
//!   versioned, checksummed snapshot through the journal's atomic
//!   write-temp + rename path, then retires what the snapshot covers
//!   (keeping enough history to walk back past one corrupt checkpoint).
//!   A journaled engine cannot `register`, so after `create` its static
//!   section — two thirds of a snapshot — never changes: the journal
//!   asks for a **full** snapshot ([`ServeEngine::checkpoint_into`]) only
//!   while fewer than two retained full frames carry the engine's static
//!   digest (the first two publishes; again after a recovery quarantined
//!   one) and for the **dynamic** snapshot otherwise
//!   ([`ServeEngine::checkpoint_dynamic`], about a third of the bytes),
//!   which restores over either retained full frame — a star around the
//!   two donors, never a chain of deltas (see [`scope_wal::journal`] for
//!   the publish rule, retention and the batched retire's crash
//!   contract). The caller's `marker` — its position in the replay
//!   schedule — rides in the checkpoint frame so the harness can tell a
//!   snapshot taken after an epoch's re-solve from one taken before it.
//!
//! **Recovery is one protocol**, [`JournaledEngine::recover`]: verify
//! every retained full frame as a static donor (frame checksum, snapshot
//! checksum, configuration fingerprint, static digest — bit rot in a
//! long-lived donor is found here, at every recovery and not between
//! them, and costs one full publish), load the newest checkpoint that
//! passes both the frame checksum and the engine's own validation —
//! [`ServeEngine::restore`] for a full frame,
//! [`ServeEngine::restore_dynamic`] over a donor for a dynamic one —
//! walking back past corrupt ones, truncate the journal's torn tail,
//! quarantine corrupt interior records with typed errors and stop at a
//! missing segment, then replay the surviving tail through the
//! validating sequenced intake. Any one corrupt or missing object costs
//! at most one epoch boundary of re-delivery; both donors lost is the
//! one double fault this layout adds, and it is the typed
//! `Unrecoverable` start-over. The [`RecoveryReport`] tells the
//! producer exactly how many deliveries the recovered state reflects
//! (`resume_deliveries`) and the last durable schedule position
//! (`marker`); re-delivering from there makes the recovered engine
//! bit-for-bit equal — heat bits, placements, objective bits, checkpoint
//! bytes — to an engine that never crashed, which
//! `tests/integration_recovery.rs` asserts after every crash.

use crate::engine::{static_section, IngestReport, ResolveOutcome, ServeEngine, ShardFault};
use crate::error::ServeError;
use scope_cloudsim::{EventColumns, TierCatalog};
use scope_optassign::CompressionOption;
use scope_wal::{Candidate, FrameKind, Journal, JournalConfig, Storage, WalRecoveryReport};

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
    /// The journal picks the frame kind (see the module docs): a full
    /// snapshot while fewer than two retained full frames carry the
    /// engine's static digest, the dynamic snapshot otherwise. Either way
    /// the engine serializes straight into the journal's frame buffer,
    /// behind the frame header: one buffer, kept across epochs, holds
    /// the snapshot from the moment it is written until storage has it.
    pub fn checkpoint_durable(&mut self, marker: u64) -> Result<(), ServeError> {
        let engine = &self.engine;
        self.journal
            .publish_checkpoint_with(marker, engine.static_digest(), |kind, frame| match kind {
                FrameKind::Full => engine.checkpoint_into(frame),
                FrameKind::Dynamic => engine.checkpoint_dynamic_into(frame),
            })?;
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
        // A donor is judged by what it is kept for — a snapshot of this
        // configuration whose static section digests to what its frame
        // says — at the price of two checksums, not a restore. The
        // journal's walk stops at the first target the validator accepts,
        // so the engine that validation built *is* the restored engine:
        // the surviving snapshot is restored once.
        let mut restored = None;
        let recovered = Journal::recover(storage, cfg, |candidate| match candidate {
            Candidate::Donor(full) => static_section(&catalog, &schemes, &full.state)
                .is_ok_and(|(digest, _)| digest == full.digest),
            Candidate::Target { full, dynamic } => {
                let (catalog, schemes) = (catalog.clone(), schemes.clone());
                restored = match dynamic {
                    None => ServeEngine::restore(catalog, schemes, &full.state),
                    Some(frame) => {
                        ServeEngine::restore_dynamic(catalog, schemes, &full.state, &frame.state)
                    }
                }
                .ok();
                restored.is_some()
            }
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
        use FrameKind::{Dynamic, Full};
        let mut j = journaled();
        let digest = j.engine().static_digest();
        j.ingest_sequenced(0, &batch(0, 6)).unwrap();
        // Publishes 1 and 3 snapshot a batch parked in the reorder buffer;
        // 2 and 4, with the gap filled, are shorter — the buffer must
        // carry nothing over from the longer frame before (nor from the
        // record frames between), whatever the kinds.
        let mut lens = Vec::new();
        for (epoch, kind) in [(1u64, Full), (2, Full), (3, Dynamic), (4, Dynamic)] {
            let parked = epoch % 2 == 1;
            let next = 2 * epoch - 1;
            if parked {
                j.ingest_sequenced(next + 1, &batch(next + 1, 40)).unwrap();
            }
            let marker = epoch * 10;
            j.advance(10 * epoch as u32).unwrap();
            j.reoptimize().unwrap();
            j.checkpoint_durable(marker).unwrap();
            let ordinal = j.journal().active_segment();
            let published = j
                .journal()
                .storage()
                .read(&scope_wal::checkpoint_name(kind, ordinal))
                .unwrap();
            let expect = scope_wal::CheckpointFrame {
                kind,
                replay_from: ordinal,
                deliveries: j.deliveries(),
                marker,
                digest,
                state: match kind {
                    Full => j.engine().checkpoint(),
                    Dynamic => j.engine().checkpoint_dynamic(),
                },
            };
            assert_eq!(published, expect.encode(), "publish {epoch}");
            assert_eq!(
                scope_wal::CheckpointFrame::decode("ckpt", &published).unwrap(),
                expect
            );
            assert_eq!(j.engine().pending_batches(), usize::from(parked));
            lens.push(published.len());
            j.ingest_sequenced(next, &batch(next, 6)).unwrap();
            if !parked {
                j.ingest_sequenced(next + 1, &batch(next + 1, 6)).unwrap();
            }
        }
        assert!(lens[1] < lens[0] && lens[3] < lens[2], "{lens:?}");
        // The steady-state frame is the dynamic one, and it is the small one.
        assert!(lens[3] < lens[1], "{lens:?}");
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
            kind: FrameKind::Full,
            replay_from: 2,
            deliveries: 4,
            marker: 2,
            digest: foreign.static_digest(),
            state: foreign.checkpoint(),
        };
        storage
            .write_atomic(
                &scope_wal::checkpoint_name(FrameKind::Full, 2),
                &frame.encode(),
            )
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
        assert!(storage.flip_durable_bit(&scope_wal::checkpoint_name(FrameKind::Full, 2), 77));
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

    // ------------------------------------------------------------------
    // The crash differential: every storage operation, every retained
    // object (ROADMAP item 3(a), at the scale of this module's fleet).
    // ------------------------------------------------------------------

    /// Deliveries per epoch of the differential's schedule.
    const PER_EPOCH: u64 = 3;

    /// Two records to a segment: an epoch (three deliveries and the
    /// boundary marker) spans two.
    fn small_segments() -> JournalConfig {
        JournalConfig {
            segment_records: 2,
            keep_checkpoints: 2,
        }
    }

    /// Drive `j` from where it stands — `boundaries` durable epoch
    /// boundaries and `delivered` deliveries behind it — to the end of
    /// epoch `until`, stopping at the first error (the crash). `done`
    /// counts the boundaries whose checkpoint was acknowledged.
    fn drive<S: Storage>(
        j: &mut JournaledEngine<S>,
        boundaries: u64,
        delivered: u64,
        until: u64,
        done: &mut u64,
    ) -> Result<(), ServeError> {
        for epoch in boundaries..until {
            for seq in delivered.max(epoch * PER_EPOCH)..(epoch + 1) * PER_EPOCH {
                j.ingest_sequenced(seq, &batch(seq, 6))?;
            }
            j.advance(9 * (epoch as u32 + 1))?;
            j.reoptimize()?;
            j.checkpoint_durable(epoch + 1)?;
            *done = epoch + 1;
        }
        Ok(())
    }

    /// Final checkpoint of the never-crashed plain engine after `until`
    /// epochs of the same schedule.
    fn twin_after(until: u64) -> Vec<u8> {
        let mut engine = build_engine();
        for epoch in 0..until {
            for seq in epoch * PER_EPOCH..(epoch + 1) * PER_EPOCH {
                engine.ingest_sequenced(seq, &batch(seq, 6)).unwrap();
            }
            engine.advance(9 * (epoch as u32 + 1));
            engine.reoptimize().unwrap();
        }
        engine.checkpoint()
    }

    fn recover_small(
        storage: MemStorage,
    ) -> Result<(JournaledEngine<MemStorage>, RecoveryReport), ServeError> {
        JournaledEngine::recover(
            storage,
            small_segments(),
            TierCatalog::azure_hot_cool_archive(),
            schemes(),
            || Ok(build_engine()),
        )
    }

    /// Recover `storage`, finish the schedule to `until` from where the
    /// report says the engine stands, and require the twin's bytes. At
    /// most `lost` acknowledged boundaries may have to be redone.
    fn recover_and_converge(storage: MemStorage, acknowledged: u64, lost: u64, until: u64) {
        let (mut j, report) = recover_small(storage).expect("recoverable");
        assert!(
            report.marker + lost >= acknowledged,
            "{acknowledged} boundaries were acknowledged, recovery stands at {}",
            report.marker
        );
        assert!(report.resume_deliveries >= report.marker * PER_EPOCH);
        let mut done = 0;
        drive(
            &mut j,
            report.marker,
            report.resume_deliveries,
            until,
            &mut done,
        )
        .unwrap();
        assert_eq!(j.engine().checkpoint(), twin_after(until));
    }

    /// A `MemStorage` whose process dies after `left` more mutating
    /// operations: that many complete, the next one is the crash.
    #[derive(Debug)]
    struct CrashAfter {
        inner: MemStorage,
        left: usize,
        ops: usize,
    }

    impl CrashAfter {
        fn op(&mut self, name: &str) -> Result<&mut MemStorage, scope_wal::WalError> {
            if self.left == 0 {
                return Err(scope_wal::WalError::Io {
                    object: name.to_string(),
                    op: "crash",
                    reason: "the process died here".to_string(),
                });
            }
            self.left -= 1;
            self.ops += 1;
            Ok(&mut self.inner)
        }
    }

    impl Storage for CrashAfter {
        fn list(&self) -> Result<Vec<String>, scope_wal::WalError> {
            self.inner.list()
        }
        fn read(&self, name: &str) -> Result<Vec<u8>, scope_wal::WalError> {
            self.inner.read(name)
        }
        fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), scope_wal::WalError> {
            self.op(name)?.append(name, bytes)
        }
        fn sync(&mut self, name: &str) -> Result<(), scope_wal::WalError> {
            self.op(name)?.sync(name)
        }
        fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), scope_wal::WalError> {
            self.op(name)?.write_atomic(name, bytes)
        }
        // `delete_many` is the default loop: every delete of a retire
        // batch is an operation the process can die after.
        fn delete(&mut self, name: &str) -> Result<(), scope_wal::WalError> {
            self.op(name)?.delete(name)
        }
        fn truncate(&mut self, name: &str, len: u64) -> Result<(), scope_wal::WalError> {
            self.op(name)?.truncate(name, len)
        }
    }

    /// Five epochs behind a store that dies after `left` operations:
    /// what it got to, and how many boundaries were acknowledged.
    fn five_epochs(left: usize) -> (CrashAfter, u64, Result<(), ServeError>) {
        let storage = CrashAfter {
            inner: MemStorage::new(),
            left,
            ops: 0,
        };
        let mut j = JournaledEngine::create(build_engine(), storage, small_segments()).unwrap();
        let mut done = 0;
        let outcome = drive(&mut j, 0, 0, 5, &mut done);
        (j.crash(), done, outcome)
    }

    #[test]
    fn a_crash_after_any_storage_operation_recovers_to_the_twin() {
        let (clean, done, outcome) = five_epochs(usize::MAX);
        outcome.unwrap();
        assert_eq!(done, 5);
        // Inside every publish and every retire batch included.
        assert!(clean.ops > 40, "{} operations", clean.ops);
        for left in 0..clean.ops {
            let (crashed, acknowledged, outcome) = five_epochs(left);
            assert!(
                matches!(
                    outcome,
                    Err(ServeError::Wal(scope_wal::WalError::Io { op: "crash", .. }))
                ),
                "operation {left}: {outcome:?}"
            );
            let mut storage = crashed.inner;
            storage.crash();
            // A clean crash loses no acknowledged boundary.
            recover_and_converge(storage, acknowledged, 0, 5);
        }
    }

    /// The durable state after five epochs (full, full, dynamic, dynamic,
    /// dynamic) and two synced deliveries of the sixth.
    fn after_five_epochs() -> MemStorage {
        let mut j =
            JournaledEngine::create(build_engine(), MemStorage::new(), small_segments()).unwrap();
        let mut done = 0;
        drive(&mut j, 0, 0, 5, &mut done).unwrap();
        for seq in 5 * PER_EPOCH..5 * PER_EPOCH + 2 {
            j.ingest_sequenced(seq, &batch(seq, 6)).unwrap();
        }
        j.sync().unwrap();
        let mut storage = j.crash();
        storage.crash();
        storage
    }

    #[test]
    fn losing_or_corrupting_any_one_retained_object_costs_at_most_one_boundary() {
        use FrameKind::{Dynamic, Full};
        let storage = after_five_epochs();
        let names = storage.list().unwrap();
        let kinds: Vec<FrameKind> = names
            .iter()
            .filter_map(|n| scope_wal::parse_checkpoint_name(n))
            .map(|(kind, _)| kind)
            .collect();
        assert_eq!(kinds, [Full, Full, Dynamic, Dynamic], "{names:?}");
        let segments = names.len() - kinds.len();
        assert!(segments >= 3, "{names:?}");

        // Undamaged: the newest dynamic frame over the newer full one.
        let (j, report) = recover_small(storage.clone()).unwrap();
        assert_eq!((report.marker, report.resume_deliveries), (5, 17));
        assert_eq!(report.replayed, 2);
        assert!(report.wal.used_donor.is_some());
        assert_eq!(j.engine().epoch(), 5);
        recover_and_converge(storage.clone(), 5, 0, 6);

        // Each retained object in turn — newest dynamic, older dynamic,
        // newer full, older full, every live segment — once with one bit
        // flipped, once gone.
        for name in &names {
            for delete in [false, true] {
                let mut damaged = storage.clone();
                if delete {
                    damaged.delete(name).unwrap();
                } else {
                    assert!(damaged.flip_durable_bit(name, 4099));
                }
                let (_, report) = recover_small(damaged.clone())
                    .unwrap_or_else(|e| panic!("{name} (delete: {delete}): {e}"));
                assert!(!report.started_fresh, "{name} (delete: {delete})");
                recover_and_converge(damaged, 5, 1, 6);
            }
        }

        // A flipped bit in a donor is found at the next recovery, the
        // frame is quarantined, and the next publish is a full one again.
        let older_full = &names[0];
        let mut damaged = storage.clone();
        damaged.flip_durable_bit(older_full, 4099);
        let (mut j, report) = recover_small(damaged).unwrap();
        assert_eq!(report.wal.quarantined_checkpoints.len(), 1);
        assert_eq!(&report.wal.quarantined_checkpoints[0].0, older_full);
        assert_eq!(report.marker, 5);
        let mut done = 0;
        drive(&mut j, 5, report.resume_deliveries, 7, &mut done).unwrap();
        let kinds: Vec<FrameKind> = j
            .journal()
            .storage()
            .list()
            .unwrap()
            .iter()
            .filter_map(|n| scope_wal::parse_checkpoint_name(n))
            .map(|(kind, _)| kind)
            .collect();
        assert_eq!(kinds, [Full, Full, Dynamic]);

        // Both full frames: the one double fault this layout adds. It is
        // the typed unrecoverable path (the caller starts over), and
        // nothing else.
        for delete in [false, true] {
            let mut damaged = storage.clone();
            for name in &names[..2] {
                if delete {
                    damaged.delete(name).unwrap();
                } else {
                    damaged.flip_durable_bit(name, 4099);
                }
            }
            assert!(matches!(
                recover_small(damaged),
                Err(ServeError::Wal(scope_wal::WalError::Unrecoverable(_)))
            ));
        }
    }

    #[test]
    fn a_missing_segment_is_redelivered_not_skipped() {
        // One boundary, then seven deliveries over the segments the
        // checkpoint does not cover.
        let build = || {
            let mut j =
                JournaledEngine::create(build_engine(), MemStorage::new(), small_segments())
                    .unwrap();
            let mut done = 0;
            drive(&mut j, 0, 0, 1, &mut done).unwrap();
            for seq in PER_EPOCH..PER_EPOCH + 7 {
                j.ingest_sequenced(seq, &batch(seq, 6)).unwrap();
            }
            j.sync().unwrap();
            let first = j.journal().active_segment() - 3;
            let mut storage = j.crash();
            storage.crash();
            (storage, first)
        };
        let mut twin = build_engine();
        for seq in 0..PER_EPOCH + 7 {
            if seq == PER_EPOCH {
                twin.advance(9);
                twin.reoptimize().unwrap();
            }
            twin.ingest_sequenced(seq, &batch(seq, 6)).unwrap();
        }
        // (which scanned segment is lost, deliveries recovery still has)
        for (lost, resume) in [(0, 3), (1, 5), (2, 7), (3, 9)] {
            let (mut storage, first) = build();
            storage
                .delete(&scope_wal::segment_name(first + lost))
                .unwrap();
            let (mut j, report) = recover_small(storage).unwrap();
            assert_eq!(report.marker, 1);
            assert_eq!(report.resume_deliveries, resume, "segment {lost} lost");
            assert_eq!(j.deliveries(), resume);
            // Nothing past the hole was replayed out of order: the
            // producer re-delivers it.
            assert_eq!(j.engine().next_seq(), resume);
            for seq in resume..PER_EPOCH + 7 {
                j.ingest_sequenced(seq, &batch(seq, 6)).unwrap();
            }
            assert_eq!(j.engine().checkpoint(), twin.checkpoint());
        }
    }
}
