//! Journaled mode: the serving engine behind a durable write-ahead
//! intake journal, with end-to-end crash recovery.
//!
//! # Durability and recovery
//!
//! [`JournaledEngine`] wraps a [`ServeEngine`] and a
//! [`scope_wal::Journal`] over any [`Storage`] backend. Its [`Serving`]
//! steps are the plain engine's with the journal around them, which
//! enforces the write-ahead discipline:
//!
//! * **Append before fold.** Every admitted delivery — including
//!   duplicates, out-of-order arrivals and torn batches whose columns
//!   disagree in length, but not an early batch the full reorder buffer
//!   refuses, which is never journaled — is appended to the journal
//!   *before* the engine folds it, in the one column-block layout that
//!   carries each column at its own length. The
//!   journal is therefore a verbatim log of the admitted deliveries, and
//!   replaying it re-runs the exact call sequence: heat bits, the reorder
//!   buffer, the quarantine ledger (a torn tail included) and even the
//!   `duplicate_batches` counter evolve bit-identically.
//! * **Sync at epoch boundaries.** The journaled [`Serving::advance_to`]
//!   appends an epoch-boundary marker record and syncs the journal before
//!   the engine advances, so a crash can only lose deliveries of the current
//!   (unfinished) epoch — which the producer re-delivers from the
//!   recovered position. The marker matters when *both* retained
//!   checkpoints are lost: the boundary's decay and re-solve are engine
//!   effects the journal cannot replay, so recovery cuts its replay tail
//!   at the first marker instead of replaying deliveries across the
//!   boundary, and the producer re-runs the boundary itself.
//! * **Atomic checkpoints that publish what changed, retired segments.**
//!   The journaled [`Serving::checkpoint_epoch`] publishes the engine's
//!   versioned, checksummed snapshot through the journal's atomic
//!   write-temp + rename path, then retires what the snapshot covers
//!   (keeping enough history to walk back past one corrupt checkpoint).
//!   A journaled engine cannot `register`, so after `create` its static
//!   section — two thirds of a snapshot — never changes: the journal
//!   asks for a **full** snapshot ([`ServeEngine::checkpoint`]) only
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
//! bytes — to an engine that never crashed. This module's tests assert it
//! after a crash at every storage operation of a fixed run, clean or
//! torn, and after a second crash inside the recovery or the resumed run;
//! `tests/integration_recovery.rs` after arbitrary corruption.

use crate::engine::{
    check_catalog, static_section, IngestReport, ResolveOutcome, ServeEngine, ShardFault,
};
use crate::error::ServeError;
use crate::serving::Serving;
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

    /// [`Serving::deliver`], by the name `benchmark/` calls it.
    pub fn ingest_sequenced(
        &mut self,
        seq: u64,
        columns: &EventColumns,
    ) -> Result<IngestReport, ServeError> {
        self.deliver(seq, columns)
    }

    /// [`Serving::advance_to`], by the name `benchmark/` calls it.
    pub fn advance(&mut self, day: u32) -> Result<(), ServeError> {
        self.advance_to(day)
    }

    /// Durability barrier without advancing.
    pub fn sync(&mut self) -> Result<(), ServeError> {
        self.journal.sync()?;
        Ok(())
    }

    /// [`Serving::resolve`] of a healthy epoch, by the name `benchmark/`
    /// calls it.
    pub fn reoptimize(&mut self) -> Result<ResolveOutcome, ServeError> {
        self.resolve(&[])
    }

    /// [`Serving::checkpoint_epoch`], by the name `benchmark/` calls it.
    pub fn checkpoint_durable(&mut self, marker: u64) -> Result<(), ServeError> {
        self.checkpoint_epoch(marker)
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
        // A catalog no engine can price would fail every restore and so
        // pass every checkpoint by: refuse it before the walk starts.
        check_catalog(&catalog, &schemes)?;
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
                    engine.deliver(record.seq, columns)?;
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

/// The plain engine's steps with the journal around them.
impl<S: Storage> Serving for JournaledEngine<S> {
    fn engine(&self) -> &ServeEngine {
        &self.engine
    }

    /// Admit, append, fold: a refused delivery is neither journaled nor
    /// counted in [`JournaledEngine::deliveries`]. That includes a batch
    /// too large for one journal frame (`WalError::FrameTooLarge`), which
    /// leaves engine and journal as they were. Any other append error
    /// leaves the engine poisoned from the caller's point of view — treat
    /// it as a crash and run [`JournaledEngine::recover`].
    fn deliver(&mut self, seq: u64, columns: &EventColumns) -> Result<IngestReport, ServeError> {
        self.engine.admit(seq)?;
        self.journal.append(seq, columns)?;
        Ok(self.engine.accept(seq, columns))
    }

    /// Journal a boundary marker (the wal's `RECORD_EPOCH` frame), make
    /// every accepted delivery durable, then advance the engine.
    fn advance_to(&mut self, day: u32) -> Result<(), ServeError> {
        self.journal.append_epoch(self.engine.epoch(), day)?;
        self.journal.sync()?;
        self.engine.advance_to(day)
    }

    /// The plain engine's re-solve: nothing of it is journaled.
    fn resolve(&mut self, faults: &[Option<ShardFault>]) -> Result<ResolveOutcome, ServeError> {
        self.engine.resolve(faults)
    }

    /// Publish a full or dynamic snapshot, as the journal picks (see the
    /// module docs), and retire covered segments. The engine serializes
    /// straight into the journal's frame buffer, kept across epochs.
    fn checkpoint_epoch(&mut self, marker: u64) -> Result<(), ServeError> {
        let engine = &self.engine;
        self.journal
            .publish_checkpoint_with(marker, engine.static_digest(), |kind, frame| match kind {
                FrameKind::Full => engine.checkpoint_into(frame),
                FrameKind::Dynamic => engine.checkpoint_dynamic_into(frame),
            })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ServeConfig, ServeObject};
    use scope_cloudsim::{AccessKind, TierId};
    use scope_wal::{decode_frame, FrameOutcome, MemStorage, WalError};
    use std::cell::{RefCell, RefMut};
    use std::ops::Range;
    use std::rc::Rc;

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

    /// Sync `j`, crash it losing nothing synced, and recover.
    fn synced_crash(
        mut j: JournaledEngine<MemStorage>,
    ) -> (JournaledEngine<MemStorage>, RecoveryReport) {
        j.sync().unwrap();
        let mut storage = j.crash();
        storage.crash();
        recover_mem(storage)
    }

    /// Deliveries `seqs` of the test stream, in order.
    fn deliver<E: Serving>(engine: &mut E, seqs: Range<u64>) -> Result<(), ServeError> {
        for seq in seqs {
            engine.deliver(seq, &batch(seq, 6))?;
        }
        Ok(())
    }

    /// Never-crashed reference: plain engine fed deliveries `0..n`.
    fn plain_after(n: u64) -> ServeEngine {
        let mut engine = build_engine();
        deliver(&mut engine, 0..n).unwrap();
        engine
    }

    #[test]
    fn a_clean_run_recovers_bit_for_bit_after_a_synced_crash() {
        let mut j = journaled();
        deliver(&mut j, 0..5).unwrap();
        let (j2, report) = synced_crash(j);
        assert_eq!(report.resume_deliveries, 5);
        assert!(report.started_fresh, "no checkpoint was ever published");
        assert_eq!(report.replayed, 5);
        assert_eq!(j2.engine().checkpoint(), plain_after(5).checkpoint());
    }

    #[test]
    fn unsynced_deliveries_roll_back_and_are_redelivered() {
        let mut j = journaled();
        deliver(&mut j, 0..3).unwrap();
        j.sync().unwrap();
        deliver(&mut j, 3..6).unwrap();
        // Crash without syncing: deliveries 3..6 are lost.
        let mut storage = j.crash();
        storage.crash();
        let (mut j2, report) = recover_mem(storage);
        assert_eq!(report.resume_deliveries, 3);
        // The producer re-delivers from the reported position.
        deliver(&mut j2, report.resume_deliveries..6).unwrap();
        assert_eq!(j2.engine().checkpoint(), plain_after(6).checkpoint());
        assert_eq!(j2.deliveries(), 6);
    }

    #[test]
    fn checkpoints_carry_the_marker_and_cover_replay() {
        fn schedule<E: Serving>(engine: &mut E) {
            deliver(engine, 0..4).unwrap();
            engine.advance_to(15).unwrap();
            engine.resolve(&[]).unwrap();
            engine.checkpoint_epoch(777).unwrap();
            deliver(engine, 4..6).unwrap();
        }
        let mut j = journaled();
        schedule(&mut j);
        let (j2, report) = synced_crash(j);
        assert_eq!(report.marker, 777);
        assert_eq!(report.resume_deliveries, 6);
        assert_eq!(report.replayed, 2, "only post-checkpoint tail replays");
        assert!(!report.started_fresh);

        // Never-crashed twin with the same schedule.
        let mut twin = build_engine();
        schedule(&mut twin);
        assert_eq!(j2.engine().checkpoint(), twin.checkpoint());
    }

    #[test]
    fn durable_checkpoints_from_the_reused_buffer_equal_the_encoded_frame() {
        use FrameKind::{Dynamic, Full};
        let mut j = journaled();
        let digest = j.engine().static_digest();
        j.deliver(0, &batch(0, 6)).unwrap();
        // Publishes 1 and 3 snapshot a batch parked in the reorder buffer;
        // 2 and 4, with the gap filled, are shorter — the buffer must
        // carry nothing over from the longer frame before (nor from the
        // record frames between), whatever the kinds.
        let mut lens = Vec::new();
        for (epoch, kind) in [(1u64, Full), (2, Full), (3, Dynamic), (4, Dynamic)] {
            let parked = epoch % 2 == 1;
            let next = 2 * epoch - 1;
            if parked {
                j.deliver(next + 1, &batch(next + 1, 40)).unwrap();
            }
            let marker = epoch * 10;
            j.advance_to(10 * epoch as u32).unwrap();
            j.resolve(&[]).unwrap();
            j.checkpoint_epoch(marker).unwrap();
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
            j.deliver(next, &batch(next, 6)).unwrap();
            if !parked {
                j.deliver(next + 1, &batch(next + 1, 6)).unwrap();
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
        deliver(&mut j, 0..3).unwrap();
        j.sync().unwrap();
        j.checkpoint_epoch(1).unwrap();
        j.deliver(3, &batch(3, 6)).unwrap();
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
        let (mut j, mut twin) = (journaled(), build_engine());
        for seq in [0, 1, 1, 3, 2, 4] {
            j.deliver(seq, &batch(seq, 6)).unwrap();
            twin.deliver(seq, &batch(seq, 6)).unwrap();
        }
        let (j2, report) = synced_crash(j);
        assert_eq!(report.resume_deliveries, 6);
        assert_eq!(j2.engine().duplicate_batches(), 1);
        assert_eq!(j2.engine().checkpoint(), twin.checkpoint());
    }

    #[test]
    fn a_corrupt_newest_checkpoint_walks_back_and_still_recovers_equal() {
        let mut j = journaled();
        deliver(&mut j, 0..3).unwrap();
        j.sync().unwrap();
        j.checkpoint_epoch(1).unwrap();
        deliver(&mut j, 3..5).unwrap();
        j.sync().unwrap();
        j.checkpoint_epoch(2).unwrap();
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
    fn a_torn_delivery_is_journaled_verbatim_and_replayed() {
        // Delivery 1 arrives torn: its last two kinds and volumes are
        // lost. The journal logs it as delivered, and recovery replays it
        // through the validating intake like any other delivery, rather
        // than quarantining the record and dropping the synced ones after.
        let delivery = |seq: u64| {
            let mut cols = batch(seq, 6);
            if seq == 1 {
                cols.volumes.truncate(4);
                cols.kinds.truncate(4);
            }
            cols
        };
        let mut j = journaled();
        let mut twin = build_engine();
        for seq in 0..4 {
            j.deliver(seq, &delivery(seq)).unwrap();
            twin.deliver(seq, &delivery(seq)).unwrap();
        }
        assert_eq!(twin.quarantine().truncated(), 2);
        let (j2, report) = synced_crash(j);
        assert!(
            report.wal.quarantined_records.is_empty(),
            "{:?}",
            report.wal.quarantined_records
        );
        assert_eq!((report.resume_deliveries, report.replayed), (4, 4));
        assert_eq!(j2.engine().checkpoint(), twin.checkpoint());
    }

    #[test]
    fn a_refused_delivery_is_not_journaled_and_recovery_still_succeeds() {
        // Seq 1 never arrives: 2..=65 fill the reorder buffer, and 66 is
        // refused live. Journaling it anyway made every later recovery
        // replay the refusal as an error.
        let mut j = journaled();
        let mut twin = build_engine();
        for seq in std::iter::once(0).chain(2..=65) {
            j.deliver(seq, &batch(seq, 3)).unwrap();
            twin.deliver(seq, &batch(seq, 3)).unwrap();
        }
        assert_eq!(
            j.engine().pending_batches(),
            ServeEngine::MAX_PENDING_BATCHES
        );
        let overflow = ServeError::IntakeOverflow {
            expected_seq: 1,
            got_seq: 66,
        };
        assert_eq!(j.deliver(66, &batch(66, 3)), Err(overflow));
        assert_eq!(j.deliveries(), 65, "a refused delivery is not counted");
        assert_eq!(j.engine().checkpoint(), twin.checkpoint());
        let (mut j2, report) = synced_crash(j);
        assert_eq!((report.resume_deliveries, report.replayed), (65, 65));
        assert_eq!(j2.engine().checkpoint(), twin.checkpoint());
        // The missing batch still drains the buffer after recovery.
        j2.deliver(1, &batch(1, 3)).unwrap();
        twin.deliver(1, &batch(1, 3)).unwrap();
        assert_eq!(j2.engine().pending_batches(), 0);
        assert_eq!(j2.engine().checkpoint(), twin.checkpoint());
    }

    /// What a delivery stream did to `engine`: every delivery's result and
    /// the checkpoint after every epoch boundary. Each word is a round:
    /// the next batch; a local swap; the next batch twice and an old one
    /// again; a gap of up to 80 early batches — past the reorder buffer's
    /// 64 the rest are refused — filled or left open; or a boundary.
    fn delivery_stream<E: Serving>(
        engine: &mut E,
        words: &[u64],
    ) -> (Vec<Result<IngestReport, ServeError>>, Vec<Vec<u8>>) {
        let (mut results, mut boundaries, mut day) = (Vec::new(), Vec::new(), 0);
        for (round, &word) in words.iter().enumerate() {
            let (next, draw) = (engine.engine().next_seq(), word >> 8);
            let seqs: Vec<u64> = match word % 5 {
                0 => vec![next],
                1 => vec![next + 1, next],
                2 => vec![next, next, draw % (next + 1)],
                3 => (next + 1..next + 2 + draw % 80)
                    .chain((draw & 1 == 0).then_some(next))
                    .collect(),
                _ => {
                    day += 1 + (draw % 9) as u32;
                    engine.advance_to(day).unwrap();
                    engine.resolve(&[]).unwrap();
                    engine.checkpoint_epoch(round as u64).unwrap();
                    boundaries.push(engine.engine().checkpoint());
                    continue;
                }
            };
            results.extend(
                seqs.into_iter()
                    .map(|seq| engine.deliver(seq, &batch(seq, 4))),
            );
        }
        (results, boundaries)
    }

    mod delivery_orders {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Duplicates, local swaps and gaps up to a refusal leave the
            /// plain and the journaled engine call for call and boundary
            /// for boundary alike, and the journal recovers the plain
            /// engine's bytes.
            #[test]
            fn plain_and_journaled_engines_agree_under_any_delivery_order(
                words in proptest::collection::vec(any::<u64>(), 1..24),
            ) {
                let mut plain = build_engine();
                let mut j = journaled();
                let ran = delivery_stream(&mut plain, &words);
                prop_assert_eq!(&delivery_stream(&mut j, &words), &ran);
                let (recovered, _) = synced_crash(j);
                prop_assert_eq!(recovered.engine().checkpoint(), plain.checkpoint());
            }
        }
    }

    #[test]
    fn torn_tails_and_interior_corruption_yield_typed_reports() {
        let mut j = journaled();
        deliver(&mut j, 0..2).unwrap();
        j.sync().unwrap();
        j.deliver(2, &batch(2, 6)).unwrap();
        let mut storage = j.crash();
        storage.crash_torn(&scope_wal::segment_name(0), 11);
        storage.crash();
        let (mut j2, report) = recover_mem(storage);
        assert_eq!(report.wal.torn_bytes, 11);
        assert_eq!(report.resume_deliveries, 2);
        deliver(&mut j2, 2..4).unwrap();
        assert_eq!(j2.engine().checkpoint(), plain_after(4).checkpoint());
    }

    // ------------------------------------------------------------------
    // The crash differential: every storage operation, every torn tail,
    // a second crash anywhere after the first, every retained object.
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

    /// The differential's one schedule: drive `engine` from where it
    /// stands — `boundaries` durable epoch boundaries and `delivered`
    /// deliveries behind it — to the end of epoch `until`, stopping at the
    /// first error (the crash). `done` counts the boundaries whose
    /// checkpoint was acknowledged.
    fn drive<E: Serving>(
        engine: &mut E,
        boundaries: u64,
        delivered: u64,
        until: u64,
        done: &mut u64,
    ) -> Result<(), ServeError> {
        for epoch in boundaries..until {
            deliver(
                engine,
                delivered.max(epoch * PER_EPOCH)..(epoch + 1) * PER_EPOCH,
            )?;
            engine.advance_to(9 * (epoch as u32 + 1))?;
            engine.resolve(&[])?;
            engine.checkpoint_epoch(epoch + 1)?;
            *done = epoch + 1;
        }
        Ok(())
    }

    /// Final checkpoint of the never-crashed plain engine after `until`
    /// epochs of the same schedule.
    fn twin_after(until: u64) -> Vec<u8> {
        let mut engine = build_engine();
        drive(&mut engine, 0, 0, until, &mut 0).unwrap();
        engine.checkpoint()
    }

    fn recover_small<S: Storage>(
        storage: S,
    ) -> Result<(JournaledEngine<S>, RecoveryReport), ServeError> {
        JournaledEngine::recover(
            storage,
            small_segments(),
            TierCatalog::azure_hot_cool_archive(),
            schemes(),
            || Ok(build_engine()),
        )
    }

    /// Finish the schedule to `until` from where `report` says the
    /// recovered `j` stands. At most `lost` of the `acknowledged`
    /// boundaries may have to be redone; boundaries acknowledged on the
    /// way are added to it.
    fn resume<S: Storage>(
        j: &mut JournaledEngine<S>,
        report: &RecoveryReport,
        acknowledged: &mut u64,
        lost: u64,
        until: u64,
    ) -> Result<(), ServeError> {
        assert!(
            report.marker + lost >= *acknowledged,
            "{acknowledged} boundaries were acknowledged, recovery stands at {}",
            report.marker
        );
        assert!(report.resume_deliveries >= report.marker * PER_EPOCH);
        drive(
            j,
            report.marker,
            report.resume_deliveries,
            until,
            acknowledged,
        )
    }

    /// Recover `storage`, finish the schedule to `until` and require the
    /// never-crashed `twin`'s bytes, redoing at most `lost` of the
    /// `acknowledged` boundaries.
    fn recover_and_converge(
        storage: MemStorage,
        mut acknowledged: u64,
        lost: u64,
        until: u64,
        twin: &[u8],
    ) {
        let (mut j, report) = recover_small(storage).unwrap_or_else(|e| panic!("{e}"));
        resume(&mut j, &report, &mut acknowledged, lost, until).unwrap();
        assert_eq!(j.engine().checkpoint(), twin);
    }

    /// A store whose process dies after `left` more mutating operations:
    /// that many complete, the next one is the crash. Its bytes live in
    /// `mem`, shared with the test, so they outlive whatever the crash
    /// interrupted — a run, or a recovery that never handed them back.
    #[derive(Debug)]
    struct CrashAfter {
        mem: Rc<RefCell<MemStorage>>,
        left: usize,
        ops: usize,
    }

    impl CrashAfter {
        fn new(mem: &Rc<RefCell<MemStorage>>, left: usize) -> Self {
            CrashAfter {
                mem: Rc::clone(mem),
                left,
                ops: 0,
            }
        }

        fn op(&mut self, name: &str) -> Result<RefMut<'_, MemStorage>, WalError> {
            if self.left == 0 {
                return Err(WalError::Io {
                    object: name.to_string(),
                    op: "crash",
                    reason: "the process died here".to_string(),
                });
            }
            self.left -= 1;
            self.ops += 1;
            Ok(self.mem.borrow_mut())
        }
    }

    impl Storage for CrashAfter {
        fn list(&self) -> Result<Vec<String>, WalError> {
            self.mem.borrow().list()
        }
        fn read(&self, name: &str) -> Result<Vec<u8>, WalError> {
            self.mem.borrow().read(name)
        }
        fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
            self.op(name)?.append(name, bytes)
        }
        fn sync(&mut self, name: &str) -> Result<(), WalError> {
            self.op(name)?.sync(name)
        }
        fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
            self.op(name)?.write_atomic(name, bytes)
        }
        // `delete_many` is the default loop: every delete of a retire
        // batch is an operation the process can die after.
        fn delete(&mut self, name: &str) -> Result<(), WalError> {
            self.op(name)?.delete(name)
        }
        fn truncate(&mut self, name: &str, len: u64) -> Result<(), WalError> {
            self.op(name)?.truncate(name, len)
        }
    }

    fn is_crash(err: &ServeError) -> bool {
        matches!(err, ServeError::Wal(WalError::Io { op: "crash", .. }))
    }

    /// Five epochs behind a store that dies after `left` operations: the
    /// bytes it left, the operations it completed, how many boundaries
    /// were acknowledged, and how the run ended.
    fn five_epochs(left: usize) -> (MemStorage, usize, u64, Result<(), ServeError>) {
        let mem = Rc::default();
        let mut j = JournaledEngine::create(
            build_engine(),
            CrashAfter::new(&mem, left),
            small_segments(),
        )
        .unwrap();
        let mut done = 0;
        let outcome = drive(&mut j, 0, 0, 5, &mut done);
        let ops = j.journal().storage().ops;
        (mem.take(), ops, done, outcome)
    }

    /// What a process that dies with `mem` in flight can leave on disk:
    /// every unsynced byte lost, or the newest object with unsynced bytes
    /// torn at each end of a frame in them ± 1 byte (the end at 0 gives
    /// the cut inside the first frame's header).
    fn crash_states(mem: &MemStorage) -> Vec<MemStorage> {
        let mut clean = mem.clone();
        clean.crash();
        let mut states = vec![clean];
        let Some((name, pending)) = mem.pending_objects().pop() else {
            return states;
        };
        let bytes = mem.read(&name).unwrap();
        let tail = &bytes[bytes.len() - pending..];
        let mut ends = vec![0];
        while let Some(&end) = ends.last().filter(|&&end| end < pending) {
            let FrameOutcome::Valid { next, .. } = decode_frame(tail, end) else {
                panic!("the unsynced bytes of {name} are not whole frames");
            };
            ends.push(next);
        }
        let mut keeps: Vec<usize> = ends
            .iter()
            .flat_map(|&end| [end.saturating_sub(1), end, end + 1])
            .filter(|&keep| keep > 0 && keep <= pending)
            .collect();
        keeps.sort_unstable();
        keeps.dedup();
        for keep in keeps {
            let mut torn = mem.clone();
            torn.crash_torn(&name, keep);
            torn.crash();
            states.push(torn);
        }
        states
    }

    /// Every single crash of the five-epoch run — after any storage
    /// operation, clean or torn — and a second crash after any operation
    /// of the recovery or of the resumed run that follows it: each lands
    /// on the never-crashed twin's bytes, none loses an acknowledged
    /// boundary, none is `Unrecoverable`.
    #[test]
    fn a_crash_after_any_storage_operation_recovers_to_the_twin() {
        let twin = twin_after(5);
        let (_, ops, done, outcome) = five_epochs(usize::MAX);
        outcome.unwrap();
        assert_eq!(done, 5);
        // (crash states, second crashes inside a recovery, second crashes
        // in a resumed run)
        let mut cases = (0, 0, 0);
        for left in 0..ops {
            let (mem, _, acknowledged, outcome) = five_epochs(left);
            assert!(
                outcome.as_ref().is_err_and(is_crash),
                "operation {left}: {outcome:?}"
            );
            for state in crash_states(&mem) {
                cases.0 += 1;
                // The second crash comes after `left` operations of the
                // recovery and the resumed run together, until a count
                // lets both finish.
                for left in 0.. {
                    let mem = Rc::new(RefCell::new(state.clone()));
                    let mut acknowledged = acknowledged;
                    let crashed = match recover_small(CrashAfter::new(&mem, left)) {
                        Err(err) => {
                            cases.1 += 1;
                            err
                        }
                        Ok((mut j, report)) => {
                            match resume(&mut j, &report, &mut acknowledged, 0, 5) {
                                Ok(()) => {
                                    assert_eq!(j.engine().checkpoint(), twin);
                                    break;
                                }
                                Err(err) => {
                                    cases.2 += 1;
                                    err
                                }
                            }
                        }
                    };
                    assert!(is_crash(&crashed), "{crashed}");
                    let mut storage = mem.take();
                    storage.crash();
                    recover_and_converge(storage, acknowledged, 0, 5, &twin);
                }
            }
        }
        // 44 operations; 134 crash states, 90 of them torn; 70 second
        // crashes inside a recovery (its truncates and deletes) and 3 297
        // in a resumed run.
        assert_eq!((ops, cases), (44, (134, 70, 3297)));
    }

    /// The durable state after five epochs (full, full, dynamic, dynamic,
    /// dynamic) and two synced deliveries of the sixth.
    fn after_five_epochs() -> MemStorage {
        let mut j =
            JournaledEngine::create(build_engine(), MemStorage::new(), small_segments()).unwrap();
        let mut done = 0;
        drive(&mut j, 0, 0, 5, &mut done).unwrap();
        deliver(&mut j, 5 * PER_EPOCH..5 * PER_EPOCH + 2).unwrap();
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
        let twin = twin_after(6);
        recover_and_converge(storage.clone(), 5, 0, 6, &twin);

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
                recover_and_converge(damaged, 5, 1, 6, &twin);
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
                Err(ServeError::Wal(WalError::Unrecoverable(_)))
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
            deliver(&mut j, PER_EPOCH..PER_EPOCH + 7).unwrap();
            j.sync().unwrap();
            let first = j.journal().active_segment() - 3;
            let mut storage = j.crash();
            storage.crash();
            (storage, first)
        };
        let mut twin = build_engine();
        drive(&mut twin, 0, 0, 1, &mut 0).unwrap();
        deliver(&mut twin, PER_EPOCH..PER_EPOCH + 7).unwrap();
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
            deliver(&mut j, resume..PER_EPOCH + 7).unwrap();
            assert_eq!(j.engine().checkpoint(), twin.checkpoint());
        }
    }
}
