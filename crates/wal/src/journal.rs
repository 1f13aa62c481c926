//! The segmented write-ahead journal and its single recovery protocol.
//!
//! # Layout
//!
//! The journal owns a flat [`Storage`] namespace:
//!
//! * `wal-<ordinal>.seg` — append-only segments of framed records (see
//!   [`crate::record`]). Ordinals are monotonic; the highest ordinal is
//!   the active segment. A new segment starts when the active one
//!   reaches [`JournalConfig::segment_records`] records and at every
//!   checkpoint publish, so segment boundaries align with snapshots.
//! * `ckpt-<ordinal>.ckpt` — checkpoint frames published atomically
//!   (write-temp + rename in the file backend). A checkpoint named
//!   `ordinal` covers every record in segments `< ordinal`; replay after
//!   restoring it starts at segment `ordinal`.
//!
//! # Durability contract
//!
//! Appends are durable only after [`Journal::sync`] (the serving engine
//! syncs at epoch boundaries). Checkpoint publish is atomic and
//! immediately durable. After publishing, the newest
//! [`JournalConfig::keep_checkpoints`] snapshots are retained and every
//! segment older than the oldest retained snapshot's ordinal is retired
//! — so recovery can always walk back past one corrupt checkpoint to the
//! previous one *and still find the segments it needs*.
//!
//! # Recovery
//!
//! [`Journal::recover`] is the one protocol, used by every caller:
//!
//! 1. Walk checkpoints newest → oldest. A checkpoint that fails its
//!    frame checksum — or that the caller-supplied validator rejects (the
//!    serving engine validates its own versioned, checksummed snapshot
//!    format) — is quarantined (deleted and reported) and the walk
//!    continues. If no checkpoint survives, recovery starts from the
//!    empty state, provided segment 0 still exists.
//! 2. Scan segments from the surviving snapshot's `replay_from` ordinal
//!    upward, decoding frames. A torn tail — an invalid frame that runs
//!    to the end of the *last* segment — is truncated away (those bytes
//!    were never acknowledged as durable). An invalid frame anywhere
//!    else is *interior corruption*: the frame is quarantined with its
//!    typed error, the journal is truncated at that point, and every
//!    later segment is dropped — the records lost this way are exactly
//!    the ones the producer must re-deliver, which the recovery report's
//!    delivery count tells it. The scan also **cuts at the first
//!    epoch-boundary marker** ([`crate::record::RECORD_EPOCH`]): replay
//!    must not carry deliveries across a boundary whose engine effects
//!    (decay, re-solve) cannot be replayed from the journal alone, so
//!    the marker and everything after it are truncated away and
//!    re-delivered. A marker already covered by a checkpoint (the
//!    normal, crash-free case) is never scanned.
//! 3. Return the valid tail records for the caller to replay through
//!    its validating intake, plus a [`WalRecoveryReport`] accounting for
//!    every byte that was kept, cut, or quarantined.

use crate::error::WalError;
use crate::record::{
    decode_frame, encode_epoch_record_into, encode_record_into, CheckpointFrame, FrameOutcome,
    Record, RecordPayload,
};
use crate::storage::Storage;
use scope_cloudsim::EventColumns;

/// Journal tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalConfig {
    /// Records per segment before rolling to a new one.
    pub segment_records: usize,
    /// Checkpoints retained after a publish (≥ 2, so one corrupt newest
    /// checkpoint can always be walked back past).
    pub keep_checkpoints: usize,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            segment_records: 4096,
            keep_checkpoints: 2,
        }
    }
}

impl JournalConfig {
    fn validate(&self) -> Result<(), WalError> {
        if self.segment_records == 0 {
            return Err(WalError::InvalidConfig(
                "segment_records must be positive".to_string(),
            ));
        }
        if self.keep_checkpoints < 2 {
            return Err(WalError::InvalidConfig(
                "keep_checkpoints must be at least 2 (recovery walks back past \
                 a corrupt newest checkpoint)"
                    .to_string(),
            ));
        }
        Ok(())
    }
}

/// Name of segment `ordinal`.
pub fn segment_name(ordinal: u64) -> String {
    format!("wal-{ordinal:020}.seg")
}

/// Name of checkpoint `ordinal`.
pub fn checkpoint_name(ordinal: u64) -> String {
    format!("ckpt-{ordinal:020}.ckpt")
}

fn parse_name(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let digits = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Parse a segment object name back to its ordinal.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    parse_name(name, "wal-", ".seg")
}

/// Parse a checkpoint object name back to its ordinal.
pub fn parse_checkpoint_name(name: &str) -> Option<u64> {
    parse_name(name, "ckpt-", ".ckpt")
}

/// One quarantined (corrupt, non-torn) journal frame.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedRecord {
    /// Segment object containing the frame.
    pub object: String,
    /// Byte offset of the frame.
    pub offset: u64,
    /// The typed validation failure.
    pub error: WalError,
}

/// Accounting from one [`Journal::recover`] run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WalRecoveryReport {
    /// Ordinal of the checkpoint recovery restored from, if any.
    pub used_checkpoint: Option<u64>,
    /// Checkpoints that failed validation, newest first, with why. Each
    /// was deleted so it never shadows a good older snapshot again.
    pub quarantined_checkpoints: Vec<(String, WalError)>,
    /// Bytes cut from the torn tail of the last segment.
    pub torn_bytes: u64,
    /// Corrupt interior frames (typed), at most one — the scan stops at
    /// the first.
    pub quarantined_records: Vec<QuarantinedRecord>,
    /// Journal bytes dropped after an interior corruption point.
    pub discarded_bytes: u64,
    /// Journal bytes cut at and after the first epoch-boundary marker
    /// (those deliveries are re-delivered after the caller re-runs the
    /// boundary).
    pub epoch_cut_bytes: u64,
    /// Valid records handed back for replay.
    pub replayed_records: u64,
}

/// Everything [`Journal::recover`] hands back.
#[derive(Debug)]
pub struct RecoveredJournal<S: Storage> {
    /// The journal, positioned to continue appending.
    pub journal: Journal<S>,
    /// Engine snapshot from the surviving checkpoint (`None` → start
    /// from the empty/freshly-built state).
    pub state: Option<Vec<u8>>,
    /// The surviving checkpoint's opaque progress marker (0 without one).
    pub marker: u64,
    /// Deliveries covered by the snapshot alone.
    pub covered_deliveries: u64,
    /// Valid tail records to replay, in journal order.
    pub tail: Vec<Record>,
    /// What recovery kept, cut, and quarantined.
    pub report: WalRecoveryReport,
}

/// A segmented, CRC-framed, append-only intake journal over `S`.
#[derive(Debug)]
pub struct Journal<S: Storage> {
    storage: S,
    cfg: JournalConfig,
    /// Ordinal of the active segment.
    active: u64,
    /// Records in the active segment.
    active_records: usize,
    /// Total deliveries ever appended (snapshot-covered + live).
    appended: u64,
    /// The one encode buffer: every record frame and every checkpoint
    /// frame is built here and handed to storage as a slice, so steady
    /// state appends and publishes allocate nothing.
    frame: Vec<u8>,
}

impl<S: Storage> Journal<S> {
    /// Start a fresh journal. The storage must not already contain
    /// journal objects — recover an existing journal with
    /// [`Journal::recover`] instead.
    pub fn create(storage: S, cfg: JournalConfig) -> Result<Self, WalError> {
        cfg.validate()?;
        let names = storage.list()?;
        if names
            .iter()
            .any(|n| parse_segment_name(n).is_some() || parse_checkpoint_name(n).is_some())
        {
            return Err(WalError::InvalidConfig(
                "storage already holds a journal; use recover".to_string(),
            ));
        }
        Ok(Journal {
            storage,
            cfg,
            active: 0,
            active_records: 0,
            appended: 0,
            frame: Vec::new(),
        })
    }

    /// Total deliveries appended over the journal's lifetime.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Ordinal of the active segment.
    pub fn active_segment(&self) -> u64 {
        self.active
    }

    /// Read access to the backing storage.
    pub fn storage(&self) -> &S {
        &self.storage
    }

    /// Consume the journal, returning the storage — the crash primitive:
    /// the in-memory journal state dies, only storage survives.
    pub fn into_storage(self) -> S {
        self.storage
    }

    /// Append the record framed in `self.frame` to the active segment.
    fn append_frame(&mut self) -> Result<(), WalError> {
        if self.active_records >= self.cfg.segment_records {
            // Seal the full segment before rolling: later syncs only
            // touch the new active segment, and an unsynced hole in the
            // middle of the journal must be impossible.
            self.storage.sync(&segment_name(self.active))?;
            self.active += 1;
            self.active_records = 0;
        }
        self.storage
            .append(&segment_name(self.active), &self.frame)?;
        self.active_records += 1;
        Ok(())
    }

    /// Append one delivered batch. Not durable until [`Journal::sync`].
    pub fn append(&mut self, seq: u64, columns: &EventColumns) -> Result<(), WalError> {
        encode_record_into(&mut self.frame, seq, columns);
        self.append_frame()?;
        self.appended += 1;
        Ok(())
    }

    /// Append an epoch-boundary marker. Markers count toward segment
    /// rolling but not toward [`Journal::appended`] — they carry no
    /// delivery; they pin where recovery must cut its replay tail.
    pub fn append_epoch(&mut self, seq: u64, day: u32) -> Result<(), WalError> {
        encode_epoch_record_into(&mut self.frame, seq, day);
        self.append_frame()
    }

    /// Durability barrier on the active segment.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.storage.sync(&segment_name(self.active))
    }

    /// Atomically publish a checkpoint covering every record appended so
    /// far, roll the active segment, and retire snapshots and segments
    /// the retention policy no longer needs. `marker` is an opaque
    /// caller progress value stored in the frame and handed back by
    /// recovery.
    pub fn publish_checkpoint(&mut self, state: &[u8], marker: u64) -> Result<(), WalError> {
        self.publish_checkpoint_with(marker, |frame| frame.extend_from_slice(state))
    }

    /// [`Journal::publish_checkpoint`] for a caller that can serialize
    /// its state on the spot: `write_state` appends the state to the
    /// buffer it is given — the journal's own frame buffer, already
    /// holding the frame header — so the snapshot is written once, where
    /// it is checksummed and published from.
    pub fn publish_checkpoint_with(
        &mut self,
        marker: u64,
        write_state: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), WalError> {
        let new_ordinal = self.active + 1;
        CheckpointFrame::encode_with(
            &mut self.frame,
            new_ordinal,
            self.appended,
            marker,
            write_state,
        );
        self.storage
            .write_atomic(&checkpoint_name(new_ordinal), &self.frame)?;
        self.active = new_ordinal;
        self.active_records = 0;
        self.retire()
    }

    /// Delete checkpoints beyond the retention window and segments fully
    /// covered by every retained checkpoint. A checkpoint named `k`
    /// replays from segment `k`, so the retirement floor is the oldest
    /// retained checkpoint's ordinal.
    fn retire(&mut self) -> Result<(), WalError> {
        let names = self.storage.list()?;
        let mut checkpoints: Vec<u64> = names
            .iter()
            .filter_map(|n| parse_checkpoint_name(n))
            .collect();
        checkpoints.sort_unstable();
        let keep = self.cfg.keep_checkpoints.min(checkpoints.len());
        let (old, kept) = checkpoints.split_at(checkpoints.len() - keep);
        for &ordinal in old {
            self.storage.delete(&checkpoint_name(ordinal))?;
        }
        let floor = kept.first().copied().unwrap_or(0);
        for name in &names {
            if let Some(ordinal) = parse_segment_name(name) {
                if ordinal < floor {
                    self.storage.delete(name)?;
                }
            }
        }
        Ok(())
    }

    /// Run the recovery protocol (see the module docs) over an existing
    /// storage state. `validate` is the caller's check of the engine
    /// snapshot inside a frame-valid checkpoint — return `false` to
    /// reject it and walk back.
    pub fn recover(
        storage: S,
        cfg: JournalConfig,
        mut validate: impl FnMut(&[u8]) -> bool,
    ) -> Result<RecoveredJournal<S>, WalError> {
        cfg.validate()?;
        let mut storage = storage;
        let mut report = WalRecoveryReport::default();

        // 1. Newest surviving checkpoint, quarantining corrupt ones.
        let names = storage.list()?;
        let mut checkpoints: Vec<u64> = names
            .iter()
            .filter_map(|n| parse_checkpoint_name(n))
            .collect();
        checkpoints.sort_unstable();
        let mut survivor: Option<CheckpointFrame> = None;
        for &ordinal in checkpoints.iter().rev() {
            let name = checkpoint_name(ordinal);
            let verdict = storage.read(&name).and_then(|bytes| {
                let frame = CheckpointFrame::decode(&name, &bytes)?;
                if validate(&frame.state) {
                    Ok(frame)
                } else {
                    Err(WalError::Checkpoint {
                        object: name.clone(),
                        reason: "engine snapshot failed validation".to_string(),
                    })
                }
            });
            match verdict {
                Ok(frame) => {
                    survivor = Some(frame);
                    break;
                }
                Err(error) => {
                    storage.delete(&name)?;
                    report.quarantined_checkpoints.push((name, error));
                }
            }
        }

        let (replay_from, state, marker, covered) = match survivor {
            Some(frame) => {
                report.used_checkpoint = Some(frame.replay_from);
                (
                    frame.replay_from,
                    Some(frame.state),
                    frame.marker,
                    frame.deliveries,
                )
            }
            None => (0, None, 0, 0),
        };

        // 2. Scan segments from the replay floor.
        let mut segments: Vec<u64> = names
            .iter()
            .filter_map(|n| parse_segment_name(n))
            .filter(|&o| o >= replay_from)
            .collect();
        segments.sort_unstable();
        if state.is_none() && segments.first().is_some_and(|&first| first > 0) {
            return Err(WalError::Unrecoverable(
                "no valid checkpoint survives and the earliest segments were \
                 already retired"
                    .to_string(),
            ));
        }
        let mut tail: Vec<Record> = Vec::new();
        let mut active = replay_from;
        let mut active_records = 0usize;
        let mut stopped = false;
        let mut epoch_cut = false;
        for (idx, &ordinal) in segments.iter().enumerate() {
            if stopped {
                // Everything after an interior corruption (or past the
                // epoch cut) is dropped; the producer re-delivers it.
                let name = segment_name(ordinal);
                let dropped = storage.read(&name)?.len() as u64;
                if epoch_cut {
                    report.epoch_cut_bytes += dropped;
                } else {
                    report.discarded_bytes += dropped;
                }
                storage.delete(&name)?;
                continue;
            }
            let last_segment = idx + 1 == segments.len();
            let name = segment_name(ordinal);
            let bytes = storage.read(&name)?;
            let mut offset = 0usize;
            let mut records_here = 0usize;
            while offset < bytes.len() {
                match decode_frame(&bytes, offset) {
                    FrameOutcome::Valid { record, next } => {
                        if matches!(record.payload, RecordPayload::Epoch { .. }) {
                            // Replay must stop at the boundary: the
                            // engine effects that happened here (decay,
                            // re-solve) are not in the journal, so the
                            // deliveries past it cannot be replayed onto
                            // the recovered state. Cut here; the caller
                            // re-runs the boundary and re-delivers.
                            report.epoch_cut_bytes += (bytes.len() - offset) as u64;
                            storage.truncate(&name, offset as u64)?;
                            offset = bytes.len();
                            stopped = true;
                            epoch_cut = true;
                            continue;
                        }
                        tail.push(record);
                        records_here += 1;
                        offset = next;
                    }
                    FrameOutcome::Overrun { .. } if last_segment => {
                        // Torn tail: cut the unacknowledged bytes.
                        report.torn_bytes += (bytes.len() - offset) as u64;
                        storage.truncate(&name, offset as u64)?;
                        offset = bytes.len();
                    }
                    FrameOutcome::Overrun { kind } | FrameOutcome::Invalid { kind } => {
                        // Interior corruption (or a checksum-invalid frame
                        // even at the tail — it may span acknowledged
                        // bytes, so it is quarantined, not silently cut).
                        report.quarantined_records.push(QuarantinedRecord {
                            object: name.clone(),
                            offset: offset as u64,
                            error: WalError::Corrupt {
                                object: name.clone(),
                                offset: offset as u64,
                                kind,
                            },
                        });
                        report.discarded_bytes += (bytes.len() - offset) as u64;
                        storage.truncate(&name, offset as u64)?;
                        offset = bytes.len();
                        stopped = true;
                    }
                }
            }
            active = ordinal;
            active_records = records_here;
            if stopped {
                continue;
            }
        }
        if segments.is_empty() {
            active = replay_from;
            active_records = 0;
        }

        report.replayed_records = tail.len() as u64;
        let appended = covered + tail.len() as u64;
        Ok(RecoveredJournal {
            journal: Journal {
                storage,
                cfg,
                active,
                active_records,
                appended,
                frame: Vec::new(),
            },
            state,
            marker,
            covered_deliveries: covered,
            tail,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::encode_record;
    use crate::storage::MemStorage;
    use scope_cloudsim::AccessKind;

    fn batch(seq: u64, n: usize) -> EventColumns {
        let mut cols = EventColumns::default();
        for i in 0..n {
            cols.push_resolved(
                (seq as u32 * 7 + i as u32) % 60,
                i as u32 % 9,
                if i % 2 == 0 {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                },
                0.25 + seq as f64 + i as f64 * 0.5,
            );
        }
        cols
    }

    fn journal() -> Journal<MemStorage> {
        Journal::create(MemStorage::new(), JournalConfig::default()).unwrap()
    }

    fn recover(storage: MemStorage) -> RecoveredJournal<MemStorage> {
        Journal::recover(storage, JournalConfig::default(), |_| true).unwrap()
    }

    fn seqs(tail: &[Record]) -> Vec<u64> {
        tail.iter().map(|r| r.seq).collect()
    }

    #[test]
    fn config_is_validated() {
        for bad in [
            JournalConfig {
                segment_records: 0,
                ..Default::default()
            },
            JournalConfig {
                keep_checkpoints: 1,
                ..Default::default()
            },
        ] {
            assert!(matches!(
                Journal::create(MemStorage::new(), bad),
                Err(WalError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn names_round_trip_and_sort_by_ordinal() {
        assert_eq!(parse_segment_name(&segment_name(42)), Some(42));
        assert_eq!(parse_checkpoint_name(&checkpoint_name(7)), Some(7));
        assert_eq!(parse_segment_name("ckpt-00000000000000000007.ckpt"), None);
        assert_eq!(parse_segment_name("wal-x.seg"), None);
        assert!(segment_name(9) < segment_name(10));
    }

    #[test]
    fn create_refuses_a_dirty_store() {
        let mut j = journal();
        j.append(0, &batch(0, 3)).unwrap();
        j.sync().unwrap();
        let storage = j.into_storage();
        assert!(matches!(
            Journal::create(storage, JournalConfig::default()),
            Err(WalError::InvalidConfig(_))
        ));
    }

    #[test]
    fn synced_records_survive_a_crash_and_unsynced_ones_do_not() {
        let mut j = journal();
        for seq in 0..4 {
            j.append(seq, &batch(seq, 2)).unwrap();
        }
        j.sync().unwrap();
        for seq in 4..6 {
            j.append(seq, &batch(seq, 2)).unwrap();
        }
        let mut storage = j.into_storage();
        storage.crash();
        let rec = recover(storage);
        assert_eq!(seqs(&rec.tail), vec![0, 1, 2, 3]);
        assert_eq!(rec.state, None);
        assert_eq!(rec.journal.appended(), 4);
        assert_eq!(rec.report.torn_bytes, 0);
        for (seq, r) in rec.tail.iter().enumerate() {
            let expect = batch(seq as u64, 2);
            assert_eq!(r.batch().unwrap().volumes, expect.volumes);
        }
    }

    #[test]
    fn a_torn_tail_is_truncated_and_reported() {
        let mut j = journal();
        j.append(0, &batch(0, 3)).unwrap();
        j.sync().unwrap();
        j.append(1, &batch(1, 3)).unwrap();
        let mut storage = j.into_storage();
        // The crash tears the pending record: 5 bytes reach the platter.
        storage.crash_torn(&segment_name(0), 5);
        storage.crash();
        let rec = recover(storage);
        assert_eq!(seqs(&rec.tail), vec![0]);
        assert_eq!(rec.report.torn_bytes, 5);
        assert!(rec.report.quarantined_records.is_empty());
        // The truncation is physical: appending after recovery yields a
        // clean journal.
        let mut j = rec.journal;
        j.append(1, &batch(1, 3)).unwrap();
        j.sync().unwrap();
        let rec = recover(j.into_storage());
        assert_eq!(seqs(&rec.tail), vec![0, 1]);
        assert_eq!(rec.report.torn_bytes, 0);
    }

    #[test]
    fn interior_corruption_is_quarantined_with_a_typed_error() {
        let mut j = journal();
        for seq in 0..3 {
            j.append(seq, &batch(seq, 4)).unwrap();
        }
        j.sync().unwrap();
        let mut storage = j.into_storage();
        // Flip a bit inside the second record's payload.
        let first_len = encode_record(0, &batch(0, 4)).len() as u64;
        storage.flip_durable_bit(&segment_name(0), (first_len + 20) * 8);
        let rec = recover(storage);
        assert_eq!(seqs(&rec.tail), vec![0]);
        assert_eq!(rec.report.quarantined_records.len(), 1);
        let q = &rec.report.quarantined_records[0];
        assert_eq!(q.offset, first_len);
        assert!(matches!(q.error, WalError::Corrupt { .. }));
        assert!(rec.report.discarded_bytes > 0);
        // The journal was truncated at the corruption point.
        assert_eq!(rec.journal.appended(), 1);
    }

    #[test]
    fn segments_roll_and_replay_in_order() {
        let cfg = JournalConfig {
            segment_records: 2,
            ..Default::default()
        };
        let mut j = Journal::create(MemStorage::new(), cfg.clone()).unwrap();
        for seq in 0..7 {
            j.append(seq, &batch(seq, 1)).unwrap();
        }
        j.sync().unwrap();
        assert_eq!(j.active_segment(), 3);
        let mut storage = j.into_storage();
        storage.crash();
        let rec = Journal::recover(storage, cfg, |_| true).unwrap();
        // Rolling seals earlier segments, so only the active segment's
        // pending bytes were at risk — and those were synced.
        assert_eq!(seqs(&rec.tail), vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn checkpoints_cover_replay_and_retire_old_segments() {
        let cfg = JournalConfig {
            segment_records: 2,
            keep_checkpoints: 2,
        };
        let mut j = Journal::create(MemStorage::new(), cfg.clone()).unwrap();
        let mut seq = 0u64;
        for epoch in 0u64..5 {
            for _ in 0..3 {
                j.append(seq, &batch(seq, 1)).unwrap();
                seq += 1;
            }
            j.sync().unwrap();
            j.publish_checkpoint(format!("state-{epoch}").as_bytes(), epoch + 1)
                .unwrap();
        }
        // Two checkpoints retained; segments below the older one's
        // ordinal are gone.
        let names = j.storage().list().unwrap();
        let ckpts: Vec<u64> = names
            .iter()
            .filter_map(|n| parse_checkpoint_name(n))
            .collect();
        assert_eq!(ckpts.len(), 2);
        let floor = ckpts[0];
        assert!(names
            .iter()
            .filter_map(|n| parse_segment_name(n))
            .all(|o| o >= floor));

        let mut storage = j.into_storage();
        storage.crash();
        let rec = recover(storage);
        assert_eq!(rec.state.as_deref(), Some(b"state-4".as_ref()));
        assert_eq!(rec.marker, 5);
        assert_eq!(rec.covered_deliveries, 15);
        assert_eq!(seqs(&rec.tail), Vec::<u64>::new());
        assert_eq!(rec.journal.appended(), 15);
    }

    #[test]
    fn a_corrupt_newest_checkpoint_walks_back_to_the_previous_one() {
        let cfg = JournalConfig {
            segment_records: 64,
            keep_checkpoints: 2,
        };
        let mut j = Journal::create(MemStorage::new(), cfg.clone()).unwrap();
        j.append(0, &batch(0, 2)).unwrap();
        j.sync().unwrap();
        j.publish_checkpoint(b"ckpt-A", 10).unwrap();
        j.append(1, &batch(1, 2)).unwrap();
        j.sync().unwrap();
        j.publish_checkpoint(b"ckpt-B", 20).unwrap();
        j.append(2, &batch(2, 2)).unwrap();
        j.sync().unwrap();

        let mut storage = j.into_storage();
        let newest = checkpoint_name(2);
        storage.flip_durable_bit(&newest, 13);
        let rec = recover(storage);
        // Walk-back: B is quarantined (and deleted), A survives, and the
        // journal tail from A's floor replays records 1 and 2.
        assert_eq!(rec.state.as_deref(), Some(b"ckpt-A".as_ref()));
        assert_eq!(rec.marker, 10);
        assert_eq!(rec.covered_deliveries, 1);
        assert_eq!(seqs(&rec.tail), vec![1, 2]);
        assert_eq!(rec.report.quarantined_checkpoints.len(), 1);
        assert_eq!(rec.report.quarantined_checkpoints[0].0, newest);
        assert!(!rec.journal.storage().list().unwrap().contains(&newest));
    }

    #[test]
    fn a_validator_rejection_also_walks_back() {
        let mut j = journal();
        j.append(0, &batch(0, 2)).unwrap();
        j.sync().unwrap();
        j.publish_checkpoint(b"good", 1).unwrap();
        j.append(1, &batch(1, 2)).unwrap();
        j.sync().unwrap();
        j.publish_checkpoint(b"evil", 2).unwrap();
        let mut storage = j.into_storage();
        storage.crash();
        let rec =
            Journal::recover(storage, JournalConfig::default(), |state| state == b"good").unwrap();
        assert_eq!(rec.state.as_deref(), Some(b"good".as_ref()));
        assert_eq!(rec.report.quarantined_checkpoints.len(), 1);
        assert!(matches!(
            rec.report.quarantined_checkpoints[0].1,
            WalError::Checkpoint { .. }
        ));
        assert_eq!(seqs(&rec.tail), vec![1]);
    }

    #[test]
    fn losing_every_checkpoint_and_the_early_segments_is_unrecoverable() {
        let cfg = JournalConfig {
            segment_records: 1,
            keep_checkpoints: 2,
        };
        let mut j = Journal::create(MemStorage::new(), cfg.clone()).unwrap();
        for seq in 0..6 {
            j.append(seq, &batch(seq, 1)).unwrap();
            j.sync().unwrap();
            j.publish_checkpoint(b"s", seq).unwrap();
        }
        let mut storage = j.into_storage();
        for name in storage.list().unwrap() {
            if parse_checkpoint_name(&name).is_some() {
                storage.flip_durable_bit(&name, 40);
            }
        }
        assert!(matches!(
            Journal::recover(storage, cfg, |_| true),
            Err(WalError::Unrecoverable(_))
        ));
    }

    #[test]
    fn recovery_cuts_the_replay_tail_at_the_first_epoch_marker() {
        let mut j = journal();
        j.append(0, &batch(0, 2)).unwrap();
        j.append(1, &batch(1, 2)).unwrap();
        j.append_epoch(1, 30).unwrap();
        j.append(2, &batch(2, 2)).unwrap();
        j.sync().unwrap();
        // Markers count toward segment rolling, not deliveries.
        assert_eq!(j.appended(), 3);
        let mut storage = j.into_storage();
        storage.crash();
        let rec = recover(storage);
        // Replay stops before the boundary; the batch past it is cut
        // away for re-delivery, and the marker itself never replays.
        assert_eq!(seqs(&rec.tail), vec![0, 1]);
        assert!(rec.tail.iter().all(|r| r.batch().is_some()));
        assert_eq!(rec.journal.appended(), 2);
        assert!(rec.report.epoch_cut_bytes > 0);
        assert_eq!(rec.report.discarded_bytes, 0);
        assert!(rec.report.quarantined_records.is_empty());
        // The cut is physical: re-running the boundary and re-delivering
        // continues a clean journal from the cut point.
        let mut j = rec.journal;
        j.append_epoch(1, 30).unwrap();
        j.sync().unwrap();
        j.publish_checkpoint(b"after-boundary", 7).unwrap();
        j.append(2, &batch(2, 2)).unwrap();
        j.sync().unwrap();
        let rec = recover(j.into_storage());
        assert_eq!(rec.state.as_deref(), Some(b"after-boundary".as_ref()));
        assert_eq!(rec.covered_deliveries, 2);
        assert_eq!(seqs(&rec.tail), vec![2]);
        assert_eq!(rec.report.epoch_cut_bytes, 0);
    }

    #[test]
    fn an_epoch_cut_also_drops_later_segments() {
        let cfg = JournalConfig {
            segment_records: 2,
            ..Default::default()
        };
        let mut j = Journal::create(MemStorage::new(), cfg.clone()).unwrap();
        j.append(0, &batch(0, 1)).unwrap();
        j.append_epoch(1, 10).unwrap();
        for seq in 1..5 {
            j.append(seq, &batch(seq, 1)).unwrap();
        }
        j.sync().unwrap();
        assert!(j.active_segment() > 0);
        let mut storage = j.into_storage();
        storage.crash();
        let rec = Journal::recover(storage, cfg, |_| true).unwrap();
        assert_eq!(seqs(&rec.tail), vec![0]);
        assert_eq!(rec.journal.appended(), 1);
        assert!(rec.report.epoch_cut_bytes > 0);
        assert_eq!(rec.report.discarded_bytes, 0);
        // Later segments are gone from storage, not just skipped.
        let names = rec.journal.storage().list().unwrap();
        assert_eq!(
            names.iter().filter_map(|n| parse_segment_name(n)).count(),
            1
        );
    }

    #[test]
    fn an_empty_store_recovers_to_a_fresh_journal() {
        let rec = recover(MemStorage::new());
        assert_eq!(rec.state, None);
        assert!(rec.tail.is_empty());
        assert_eq!(rec.journal.appended(), 0);
        assert_eq!(rec.journal.active_segment(), 0);
    }
}
