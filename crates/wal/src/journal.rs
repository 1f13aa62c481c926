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
//! * `ckpt-<ordinal>.ckpt` / `ckpt-<ordinal>.dyn` — checkpoint frames of
//!   the two [`FrameKind`]s, published atomically (write-temp + rename in
//!   the file backend). A checkpoint named `ordinal` covers every record
//!   in segments `< ordinal`; replay after restoring it starts at segment
//!   `ordinal`. The name says the kind, so recovery and retirement know
//!   what an object is without reading it.
//!
//! # Full and dynamic frames
//!
//! A **full** frame (`.ckpt`) holds a whole engine snapshot. A
//! **dynamic** frame (`.dyn`) holds only what an epoch can change and
//! restores over the static section of a full frame; both carry the
//! [`StaticDigest`] of that section, and a dynamic frame restores over
//! **any** retained full frame with an equal digest — a star, not a
//! chain: no delta depends on another delta, nothing is ever re-based.
//!
//! **The publish rule.** [`Journal::publish_checkpoint_with`] is told the
//! caller's current digest and writes a *full* frame whenever fewer than
//! two retained full frames carry it — the first two publishes, after
//! recovery quarantined one, after the static section grew — and a
//! *dynamic* frame otherwise. Two, because the guarantee below is about
//! losing any one object.
//!
//! **Retention** (`Journal::retire`, after every publish). The newest
//! [`JournalConfig::keep_checkpoints`] frames of either kind are the
//! recovery **targets**; the segment floor is the oldest target's
//! ordinal and every segment below it is retired. Besides the targets,
//! the two newest full frames stay as static **donors**, however old:
//! below the floor a full frame lends its static section and is never
//! restored as a state. Everything else is deleted — checkpoints first,
//! then segments — as **one batch under one durability barrier**
//! ([`Storage::delete_many`]). Crash contract: a crash inside the batch
//! may leave any subset of it behind (extra objects the next retire
//! deletes again, or a hole in a run of segments that no target replays
//! from), never too few: nothing a target or a donor needs is in a batch.
//!
//! # Durability contract
//!
//! Appends are durable only after [`Journal::sync`] (the serving engine
//! syncs at epoch boundaries). Checkpoint publish is atomic and
//! immediately durable. Retention keeps, for any one object that turns
//! out corrupt or missing, another way to the same place or to one
//! boundary earlier: a lost newest target walks back to the previous one
//! *and still finds the segments it needs*, a lost donor leaves the other
//! donor, a lost segment costs the deliveries from it on.
//!
//! # Recovery
//!
//! [`Journal::recover`] is the one protocol, used by every caller:
//!
//! 1. **Verify every retained full frame** — frame checksum, then the
//!    caller's validator ([`Candidate::Donor`]; the serving engine checks
//!    its own snapshot format and that the static section digests to what
//!    the frame says). A bad one is quarantined (deleted and reported), so
//!    bit rot in a long-lived donor is found at the next recovery and the
//!    next publish is a full frame again. Donors are verified at every
//!    recovery and **not between recoveries**: a journal that never
//!    crashes never re-reads them — a stated limit.
//! 2. **Walk the targets newest → oldest** — the newest
//!    `keep_checkpoints` frames present, less any whose segments were
//!    retired (the oldest segment at or above its ordinal is neither its
//!    own nor the next): a full frame below the segment floor lends its
//!    static section and is never restored as a state, whatever happened
//!    to the frames above it. A full frame is offered to the
//!    validator alone, a dynamic frame over each verified full frame
//!    with its digest, newest first ([`Candidate::Target`]). A frame
//!    that fails its checksum, that the validator rejects or that has no
//!    donor is quarantined and the walk continues. If no target
//!    survives, recovery starts from the empty state, provided segment 0
//!    still exists.
//! 3. **Scan segments from the survivor's `replay_from` upward**,
//!    decoding frames. A torn tail — an invalid frame that runs to the
//!    end of the *last* segment — is truncated away (those bytes were
//!    never acknowledged as durable). An invalid frame anywhere else is
//!    *interior corruption*: the frame is quarantined with its typed
//!    error, the journal is truncated at that point, and every later
//!    segment is dropped — the records lost this way are exactly the
//!    ones the producer must re-deliver, which the recovery report's
//!    delivery count tells it. A **missing segment** below a present one
//!    is treated the same way: a segment only rolls when its predecessor
//!    is full or a checkpoint was published over it, so a hole is a
//!    fault; the scan stops at it, later segments are dropped into
//!    `discarded_bytes`, and the journal resumes from what is contiguous
//!    (from the snapshot alone when the hole is its first segment — which
//!    is also what a publish with no record since the previous one looks
//!    like from the older checkpoint: safe, re-delivered). The scan also
//!    **cuts at the first epoch-boundary marker**
//!    ([`crate::record::RECORD_EPOCH`]): replay must not carry deliveries
//!    across a boundary whose engine effects (decay, re-solve) cannot be
//!    replayed from the journal alone, so the marker and everything after
//!    it are truncated away and re-delivered. A marker already covered by
//!    a checkpoint (the normal, crash-free case) is never scanned.
//! 4. Return the valid tail records for the caller to replay through
//!    its validating intake, plus a [`WalRecoveryReport`] accounting for
//!    every byte that was kept, cut, or quarantined.

use crate::error::WalError;
use crate::record::{
    decode_frame, encode_epoch_record_into, encode_record_into, CheckpointFrame, FrameKind,
    FrameOutcome, Record, RecordPayload, StaticDigest,
};
use crate::storage::Storage;
use scope_cloudsim::EventColumns;

/// Journal tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalConfig {
    /// Records per segment before rolling to a new one.
    pub segment_records: usize,
    /// Checkpoints retained as recovery targets after a publish (≥ 2, so
    /// one corrupt newest checkpoint can always be walked back past).
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

/// Full frames kept as static donors besides the recovery targets: two,
/// so that losing either leaves one.
const DONORS: usize = 2;

/// Name of segment `ordinal`.
pub fn segment_name(ordinal: u64) -> String {
    format!("wal-{ordinal:020}.seg")
}

fn checkpoint_suffix(kind: FrameKind) -> &'static str {
    match kind {
        FrameKind::Full => ".ckpt",
        FrameKind::Dynamic => ".dyn",
    }
}

/// Name of the checkpoint frame of `kind` published under `ordinal`.
pub fn checkpoint_name(kind: FrameKind, ordinal: u64) -> String {
    format!("ckpt-{ordinal:020}{}", checkpoint_suffix(kind))
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

/// Parse a checkpoint object name back to its kind and ordinal.
pub fn parse_checkpoint_name(name: &str) -> Option<(FrameKind, u64)> {
    [FrameKind::Full, FrameKind::Dynamic]
        .into_iter()
        .find_map(|kind| Some((kind, parse_name(name, "ckpt-", checkpoint_suffix(kind))?)))
}

/// The checkpoint frames `names` holds, by ascending ordinal.
fn checkpoints_in(names: &[String]) -> Vec<(u64, FrameKind)> {
    let mut checkpoints: Vec<(u64, FrameKind)> = names
        .iter()
        .filter_map(|n| parse_checkpoint_name(n))
        .map(|(kind, ordinal)| (ordinal, kind))
        .collect();
    checkpoints.sort_unstable_by_key(|&(ordinal, _)| ordinal);
    checkpoints
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
    /// Ordinal of the full frame whose static section the restored
    /// checkpoint was laid over, when that checkpoint is a dynamic frame.
    pub used_donor: Option<u64>,
    /// Checkpoints that failed validation — bad donors first, then bad
    /// targets newest first — with why. Each was deleted so it never
    /// shadows a good older snapshot again.
    pub quarantined_checkpoints: Vec<(String, WalError)>,
    /// Bytes cut from the torn tail of the last segment.
    pub torn_bytes: u64,
    /// Corrupt interior frames (typed), at most one — the scan stops at
    /// the first.
    pub quarantined_records: Vec<QuarantinedRecord>,
    /// Journal bytes dropped after an interior corruption point or a
    /// missing segment.
    pub discarded_bytes: u64,
    /// Journal bytes cut at and after the first epoch-boundary marker
    /// (those deliveries are re-delivered after the caller re-runs the
    /// boundary).
    pub epoch_cut_bytes: u64,
    /// Valid records handed back for replay.
    pub replayed_records: u64,
}

/// What [`Journal::recover`] asks its caller to judge.
#[derive(Debug, Clone, Copy)]
pub enum Candidate<'a> {
    /// A retained full frame, before any target is tried: is its snapshot
    /// one whose static section dynamic frames may be laid over (and does
    /// that section digest to `digest`)? Asked of every full frame, so it
    /// should cost a checksum, not a restore.
    Donor(&'a CheckpointFrame),
    /// A recovery target: `full` alone, or `dynamic` over `full`'s static
    /// section. The walk stops at the first one accepted, so whatever the
    /// caller restored to answer *is* the recovered state.
    Target {
        /// The full frame (the target itself, or the donor).
        full: &'a CheckpointFrame,
        /// The dynamic frame to lay over it, when that is the target.
        dynamic: Option<&'a CheckpointFrame>,
    },
}

/// Everything [`Journal::recover`] hands back.
#[derive(Debug)]
pub struct RecoveredJournal<S: Storage> {
    /// The journal, positioned to continue appending.
    pub journal: Journal<S>,
    /// State bytes of the surviving checkpoint frame (`None` → start
    /// from the empty/freshly-built state). For a dynamic frame these are
    /// the dynamic part alone; the validator saw them over their donor.
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

/// A segmented, checksum-framed, append-only intake journal over `S`.
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
    /// The retained full frames, oldest first, with the digest each
    /// carries: what the publish rule counts and what [`Self::retire`]
    /// picks donors from. Published or verified by this process.
    fulls: Vec<(u64, StaticDigest)>,
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
            fulls: Vec::new(),
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

    /// Atomically publish `state` as a full checkpoint frame covering
    /// every record appended so far, roll the active segment, and retire
    /// what the retention policy no longer needs. `marker` is an opaque
    /// caller progress value stored in the frame and handed back by
    /// recovery. For a caller whose snapshots have no static/dynamic
    /// split: every frame is a full one under the empty digest.
    pub fn publish_checkpoint(&mut self, state: &[u8], marker: u64) -> Result<(), WalError> {
        self.publish(FrameKind::Full, marker, StaticDigest::default(), |frame| {
            frame.extend_from_slice(state)
        })
    }

    /// Publish a checkpoint of the kind the publish rule picks (see the
    /// module docs): a full frame while fewer than two retained full
    /// frames carry `digest`, the digest of the caller's static section
    /// as it stands, a dynamic frame otherwise. `write_state` is told the
    /// kind and appends that state to the buffer it is given — the
    /// journal's own frame buffer, already holding the frame header — so
    /// the snapshot is written once, where it is checksummed and
    /// published from.
    pub fn publish_checkpoint_with(
        &mut self,
        marker: u64,
        digest: StaticDigest,
        write_state: impl FnOnce(FrameKind, &mut Vec<u8>),
    ) -> Result<(), WalError> {
        let donors = self.fulls.iter().filter(|(_, d)| *d == digest).count();
        let kind = if donors < DONORS {
            FrameKind::Full
        } else {
            FrameKind::Dynamic
        };
        self.publish(kind, marker, digest, |frame| write_state(kind, frame))
    }

    fn publish(
        &mut self,
        kind: FrameKind,
        marker: u64,
        digest: StaticDigest,
        write_state: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), WalError> {
        let new_ordinal = self.active + 1;
        let head = CheckpointFrame {
            kind,
            replay_from: new_ordinal,
            deliveries: self.appended,
            marker,
            digest,
            state: Vec::new(),
        };
        head.encode_with(&mut self.frame, write_state);
        self.storage
            .write_atomic(&checkpoint_name(kind, new_ordinal), &self.frame)?;
        if kind == FrameKind::Full {
            self.fulls.push((new_ordinal, digest));
        }
        self.active = new_ordinal;
        self.active_records = 0;
        self.retire()
    }

    /// Delete what retention no longer needs, as one batch (see the
    /// module docs): every checkpoint below the oldest target that is not
    /// one of the two newest full frames, then every segment below the
    /// oldest target — a checkpoint named `k` replays from segment `k`.
    fn retire(&mut self) -> Result<(), WalError> {
        let names = self.storage.list()?;
        let checkpoints = checkpoints_in(&names);
        let targets = self.cfg.keep_checkpoints.min(checkpoints.len());
        let floor = checkpoints[checkpoints.len() - targets..]
            .first()
            .map_or(0, |&(ordinal, _)| ordinal);
        // Full frames are kept oldest first and the floor only rises, so
        // the ones to let go — below the floor, not among the newest two
        // — are a prefix.
        let spare = self.fulls.len().saturating_sub(DONORS);
        let retired = self.fulls[..spare]
            .iter()
            .take_while(|&&(ordinal, _)| ordinal < floor)
            .count();
        self.fulls.drain(..retired);
        let fulls = &self.fulls;
        let is_donor = |ordinal: u64, kind: FrameKind| {
            kind == FrameKind::Full && fulls.iter().any(|&(full, _)| full == ordinal)
        };
        let mut doomed: Vec<String> = checkpoints
            .iter()
            .filter(|&&(ordinal, kind)| ordinal < floor && !is_donor(ordinal, kind))
            .map(|&(ordinal, kind)| checkpoint_name(kind, ordinal))
            .collect();
        doomed.extend(
            names
                .iter()
                .filter(|name| parse_segment_name(name).is_some_and(|ordinal| ordinal < floor))
                .cloned(),
        );
        self.storage.delete_many(&doomed)
    }

    /// Run the recovery protocol (see the module docs) over an existing
    /// storage state. `validate` is the caller's judgement of the engine
    /// snapshots inside frame-valid checkpoints (see [`Candidate`]) —
    /// return `false` to reject one and walk on.
    pub fn recover(
        storage: S,
        cfg: JournalConfig,
        mut validate: impl FnMut(Candidate<'_>) -> bool,
    ) -> Result<RecoveredJournal<S>, WalError> {
        cfg.validate()?;
        let mut storage = storage;
        let mut report = WalRecoveryReport::default();
        let names = storage.list()?;
        let checkpoints = checkpoints_in(&names);
        let mut segments: Vec<u64> = names.iter().filter_map(|n| parse_segment_name(n)).collect();
        segments.sort_unstable();

        // 1. Every retained full frame, verified as a static donor.
        let mut donors: Vec<CheckpointFrame> = Vec::new();
        for &(ordinal, kind) in &checkpoints {
            if kind != FrameKind::Full {
                continue;
            }
            let name = checkpoint_name(kind, ordinal);
            let verdict = read_checkpoint(&storage, &name, kind, ordinal).and_then(|frame| {
                if validate(Candidate::Donor(&frame)) {
                    Ok(frame)
                } else {
                    Err(rejected(&name, "engine snapshot failed validation"))
                }
            });
            match verdict {
                Ok(frame) => donors.push(frame),
                Err(error) => quarantine(&mut storage, &mut report, name, error)?,
            }
        }
        let mut fulls: Vec<(u64, StaticDigest)> = donors
            .iter()
            .map(|full| (full.replay_from, full.digest))
            .collect();

        // 2. Newest surviving target, quarantining unusable ones. Targets
        //    are the newest `keep_checkpoints` frames whose segments were
        //    not retired: the oldest segment at or above the frame's
        //    ordinal is its own or the next (a lost first segment is a
        //    hole the scan below handles; a longer gap means `retire` has
        //    been here). Anything older or retired is a donor at most,
        //    never a state.
        let retired = |ordinal: u64| {
            let at = segments.partition_point(|&segment| segment < ordinal);
            segments.get(at).is_some_and(|&next| next > ordinal + 1)
        };
        let mut survivor: Option<CheckpointFrame> = None;
        let mut passed_over: Vec<(u64, FrameKind)> = Vec::new();
        for &(ordinal, kind) in checkpoints.iter().rev().take(cfg.keep_checkpoints) {
            if retired(ordinal) {
                passed_over.push((ordinal, kind));
                continue;
            }
            let name = checkpoint_name(kind, ordinal);
            let verdict = match kind {
                FrameKind::Full => {
                    let Some(at) = donors.iter().position(|d| d.replay_from == ordinal) else {
                        continue; // quarantined in step 1
                    };
                    let full = donors.remove(at);
                    if validate(Candidate::Target {
                        full: &full,
                        dynamic: None,
                    }) {
                        Ok(full)
                    } else {
                        fulls.retain(|&(o, _)| o != ordinal);
                        Err(rejected(&name, "engine snapshot failed validation"))
                    }
                }
                FrameKind::Dynamic => {
                    read_checkpoint(&storage, &name, kind, ordinal).and_then(|frame| {
                        let matching: Vec<&CheckpointFrame> = donors
                            .iter()
                            .rev()
                            .filter(|full| full.digest == frame.digest)
                            .collect();
                        let donor = matching.iter().find(|full| {
                            validate(Candidate::Target {
                                full,
                                dynamic: Some(&frame),
                            })
                        });
                        match donor {
                            Some(full) => {
                                report.used_donor = Some(full.replay_from);
                                Ok(frame)
                            }
                            None if matching.is_empty() => Err(rejected(
                                &name,
                                "no retained full frame carries its static digest",
                            )),
                            None => Err(rejected(&name, "engine snapshot failed validation")),
                        }
                    })
                }
            };
            match verdict {
                Ok(frame) => {
                    survivor = Some(frame);
                    break;
                }
                Err(error) => quarantine(&mut storage, &mut report, name, error)?,
            }
        }
        drop(donors);
        if survivor.is_some() {
            // Retention retires from the bottom, so a retired frame above
            // a live one takes several faults — and must not outlive this
            // recovery to shadow the journal that continues below it.
            for (ordinal, kind) in passed_over {
                let verified = fulls.iter().position(|&(full, _)| full == ordinal);
                match (kind, verified) {
                    (FrameKind::Full, None) => continue, // quarantined in step 1
                    (FrameKind::Full, Some(at)) => {
                        fulls.remove(at);
                    }
                    (FrameKind::Dynamic, _) => {}
                }
                let name = checkpoint_name(kind, ordinal);
                let error = rejected(&name, "a retired frame above the restored checkpoint");
                quarantine(&mut storage, &mut report, name, error)?;
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

        // 3. Scan segments from the replay floor.
        segments.retain(|&o| o >= replay_from);
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
            // A missing segment stops the scan like interior corruption
            // does: the contiguous run ends at `active` (at the snapshot
            // alone when the hole is its first segment).
            stopped |= ordinal != replay_from + idx as u64;
            if stopped {
                // Everything after a hole or an interior corruption (or
                // past the epoch cut) is dropped; the producer
                // re-delivers it.
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
                fulls,
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

fn rejected(object: &str, reason: &str) -> WalError {
    WalError::Checkpoint {
        object: object.to_string(),
        reason: reason.to_string(),
    }
}

/// Read the checkpoint object `name` and decode the frame in it, which
/// must be of the kind and under the ordinal the name says.
fn read_checkpoint<S: Storage>(
    storage: &S,
    name: &str,
    kind: FrameKind,
    ordinal: u64,
) -> Result<CheckpointFrame, WalError> {
    let frame = CheckpointFrame::decode(name, &storage.read(name)?)?;
    if frame.kind != kind || frame.replay_from != ordinal {
        return Err(rejected(name, "frame does not match its object name"));
    }
    Ok(frame)
}

/// Delete a checkpoint recovery cannot use, so that it never shadows a
/// good older one again, and report why.
fn quarantine<S: Storage>(
    storage: &mut S,
    report: &mut WalRecoveryReport,
    name: String,
    error: WalError,
) -> Result<(), WalError> {
    storage.delete(&name)?;
    report.quarantined_checkpoints.push((name, error));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{encode_epoch_record, encode_record};
    use crate::storage::MemStorage;
    use proptest::prelude::*;
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
        for kind in [FrameKind::Full, FrameKind::Dynamic] {
            assert_eq!(
                parse_checkpoint_name(&checkpoint_name(kind, 7)),
                Some((kind, 7))
            );
        }
        assert_eq!(
            parse_checkpoint_name("ckpt-00000000000000000007.ckpt.tmp"),
            None
        );
        assert_eq!(parse_checkpoint_name("ckpt-7.dyn"), None);
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
        let ckpts = checkpoints_in(&names);
        assert_eq!(ckpts.len(), 2);
        let floor = ckpts[0].0;
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
        let newest = checkpoint_name(FrameKind::Full, 2);
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
        let rec = Journal::recover(storage, JournalConfig::default(), |candidate| {
            let (Candidate::Donor(full) | Candidate::Target { full, .. }) = candidate;
            full.state == b"good"
        })
        .unwrap();
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

    /// What a publish wrote: the kind the rule picked and the epoch.
    fn state_of(kind: FrameKind, epoch: u64) -> Vec<u8> {
        format!("{kind:?}-{epoch}").into_bytes()
    }

    /// `epochs` boundaries of three deliveries each, two records to a
    /// segment, every checkpoint published under `digest`.
    fn publish_epochs<S: Storage>(j: &mut Journal<S>, epochs: std::ops::Range<u64>, xxh64: u64) {
        let digest = StaticDigest {
            objects: 3,
            len: 40,
            xxh64,
        };
        for epoch in epochs {
            for seq in epoch * 3..epoch * 3 + 3 {
                j.append(seq, &batch(seq, 1)).unwrap();
            }
            j.sync().unwrap();
            j.publish_checkpoint_with(epoch + 1, digest, |kind, frame| {
                frame.extend_from_slice(&state_of(kind, epoch))
            })
            .unwrap();
        }
    }

    fn small_segments() -> JournalConfig {
        JournalConfig {
            segment_records: 2,
            keep_checkpoints: 2,
        }
    }

    /// The checkpoint frames in `storage`, oldest first, decoded.
    fn frames(storage: &MemStorage) -> Vec<CheckpointFrame> {
        checkpoints_in(&storage.list().unwrap())
            .into_iter()
            .map(|(ordinal, kind)| {
                let name = checkpoint_name(kind, ordinal);
                let frame = CheckpointFrame::decode(&name, &storage.read(&name).unwrap()).unwrap();
                assert_eq!((frame.kind, frame.replay_from), (kind, ordinal));
                frame
            })
            .collect()
    }

    #[test]
    fn two_full_frames_then_dynamic_ones_and_both_donors_outlive_the_targets() {
        let mut j = Journal::create(MemStorage::new(), small_segments()).unwrap();
        publish_epochs(&mut j, 0..5, 0xd1);
        let kept = frames(j.storage());
        let kinds: Vec<FrameKind> = kept.iter().map(|f| f.kind).collect();
        use FrameKind::{Dynamic, Full};
        assert_eq!(kinds, [Full, Full, Dynamic, Dynamic]);
        assert_eq!(kept[0].state, state_of(Full, 0));
        assert_eq!(kept[1].state, state_of(Full, 1));
        assert_eq!(kept[2].state, state_of(Dynamic, 3));
        assert_eq!(kept[3].state, state_of(Dynamic, 4));
        // The segment floor is the older target, far above the donors.
        let floor = kept[2].replay_from;
        assert!(kept[1].replay_from < floor);
        let names = j.storage().list().unwrap();
        assert!(names
            .iter()
            .filter_map(|n| parse_segment_name(n))
            .all(|o| o >= floor));

        // Recovery verifies both donors, then lays the newest dynamic
        // frame over the newer of them.
        let mut storage = j.into_storage();
        storage.crash();
        let mut asked = Vec::new();
        let rec = Journal::recover(storage.clone(), small_segments(), |candidate| {
            asked.push(match candidate {
                Candidate::Donor(full) => (full.replay_from, None),
                Candidate::Target { full, dynamic } => {
                    (full.replay_from, dynamic.map(|d| d.replay_from))
                }
            });
            true
        })
        .unwrap();
        let (older, newer, newest) = (
            kept[0].replay_from,
            kept[1].replay_from,
            kept[3].replay_from,
        );
        assert_eq!(asked, [(older, None), (newer, None), (newer, Some(newest))]);
        assert_eq!(rec.state, Some(state_of(Dynamic, 4)));
        assert_eq!(rec.marker, 5);
        assert_eq!(rec.covered_deliveries, 15);
        assert_eq!(rec.report.used_checkpoint, Some(newest));
        assert_eq!(rec.report.used_donor, Some(newer));
        assert!(rec.report.quarantined_checkpoints.is_empty());
        // Two donors still carry the digest: the next publish is dynamic.
        let mut j = rec.journal;
        publish_epochs(&mut j, 5..6, 0xd1);
        assert_eq!(frames(j.storage()).last().unwrap().kind, Dynamic);

        // Either donor alone is enough — a star, not a chain — and the
        // publish after losing one is a full frame again.
        for (lost, left) in [(newer, older), (older, newer)] {
            let mut storage = storage.clone();
            storage.flip_durable_bit(&checkpoint_name(Full, lost), 301);
            let rec = recover_small(storage);
            assert_eq!(rec.state, Some(state_of(Dynamic, 4)));
            assert_eq!(rec.report.used_donor, Some(left));
            assert_eq!(rec.report.quarantined_checkpoints.len(), 1);
            let mut j = rec.journal;
            publish_epochs(&mut j, 5..7, 0xd1);
            let kinds: Vec<FrameKind> = frames(j.storage()).iter().map(|f| f.kind).collect();
            assert_eq!(kinds, [Full, Full, Dynamic]);
        }

        // A grown static section (another digest) is two full frames too,
        // and the old digest's donors go once no target needs them.
        let mut j = recover_small(storage.clone()).journal;
        publish_epochs(&mut j, 5..8, 0xd2);
        let kept = frames(j.storage());
        let kinds: Vec<FrameKind> = kept.iter().map(|f| f.kind).collect();
        assert_eq!(kinds, [Full, Full, Dynamic]);
        assert!(kept.iter().all(|f| f.digest.xxh64 == 0xd2));
    }

    fn recover_small(storage: MemStorage) -> RecoveredJournal<MemStorage> {
        Journal::recover(storage, small_segments(), |_| true).unwrap()
    }

    #[test]
    fn a_donor_below_the_segment_floor_is_never_restored_as_a_state() {
        let mut j = Journal::create(MemStorage::new(), small_segments()).unwrap();
        publish_epochs(&mut j, 0..5, 0xd1);
        let storage = j.into_storage();
        let kept = frames(&storage);

        // Losing the newest target costs one boundary, as it always did.
        let mut one = storage.clone();
        one.flip_durable_bit(&checkpoint_name(FrameKind::Dynamic, kept[3].replay_from), 9);
        let rec = recover_small(one);
        assert_eq!(rec.state, Some(state_of(FrameKind::Dynamic, 3)));
        assert_eq!(seqs(&rec.tail), vec![12, 13, 14]);

        // Losing both targets leaves two valid full frames whose segments
        // were retired long ago: they are donors, not states.
        let mut both = storage.clone();
        for target in &kept[2..] {
            both.flip_durable_bit(&checkpoint_name(FrameKind::Dynamic, target.replay_from), 9);
        }
        assert!(matches!(
            Journal::recover(both, small_segments(), |_| true),
            Err(WalError::Unrecoverable(_))
        ));

        // The same one after the other, a recovery in between: the frames
        // above a donor being gone does not make it a target.
        let mut first = storage.clone();
        first.flip_durable_bit(&checkpoint_name(FrameKind::Dynamic, kept[3].replay_from), 9);
        let mut then = recover_small(first).journal.into_storage();
        assert_eq!(frames(&then).len(), 3);
        then.flip_durable_bit(&checkpoint_name(FrameKind::Dynamic, kept[2].replay_from), 9);
        assert!(matches!(
            Journal::recover(then, small_segments(), |_| true),
            Err(WalError::Unrecoverable(_))
        ));

        // Losing both donors leaves targets with nothing to stand on.
        let mut none = storage;
        for donor in &kept[..2] {
            none.flip_durable_bit(&checkpoint_name(FrameKind::Full, donor.replay_from), 9);
        }
        assert!(matches!(
            Journal::recover(none, small_segments(), |_| true),
            Err(WalError::Unrecoverable(_))
        ));
    }

    #[test]
    fn a_retired_frame_above_the_survivor_does_not_outlive_recovery() {
        // Several faults at once: the newest target's first two segments
        // are gone while a later one exists, so it looks retired; the
        // older target is intact.
        let mut j = Journal::create(MemStorage::new(), small_segments()).unwrap();
        publish_epochs(&mut j, 0..5, 0xd1);
        for seq in 15..20 {
            j.append(seq, &batch(seq, 1)).unwrap();
        }
        j.sync().unwrap();
        let mut storage = j.into_storage();
        let kept = frames(&storage);
        let (older, newest) = (kept[2].replay_from, kept[3].replay_from);
        for lost in [newest, newest + 1] {
            storage.delete(&segment_name(lost)).unwrap();
        }
        let rec = recover_small(storage);
        assert_eq!(rec.report.used_checkpoint, Some(older));
        assert_eq!(seqs(&rec.tail), vec![12, 13, 14]);
        assert_eq!(
            rec.report.quarantined_checkpoints[0].0,
            checkpoint_name(FrameKind::Dynamic, newest)
        );
        assert!(rec.report.discarded_bytes > 0);
        // Nothing above the survivor is left to shadow what comes next.
        let names = rec.journal.storage().list().unwrap();
        assert!(checkpoints_in(&names).iter().all(|&(o, _)| o <= older));
        assert!(names
            .iter()
            .filter_map(|n| parse_segment_name(n))
            .all(|o| o < newest));
    }

    /// A store that remembers every delete it was asked for, batch by
    /// batch (a lone `delete` is a batch of one).
    #[derive(Debug, Default)]
    struct Batches {
        inner: MemStorage,
        deleted: Vec<Vec<String>>,
    }

    impl Storage for Batches {
        fn list(&self) -> Result<Vec<String>, WalError> {
            self.inner.list()
        }
        fn read(&self, name: &str) -> Result<Vec<u8>, WalError> {
            self.inner.read(name)
        }
        fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
            self.inner.append(name, bytes)
        }
        fn sync(&mut self, name: &str) -> Result<(), WalError> {
            self.inner.sync(name)
        }
        fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
            self.inner.write_atomic(name, bytes)
        }
        fn delete(&mut self, name: &str) -> Result<(), WalError> {
            self.deleted.push(vec![name.to_string()]);
            self.inner.delete(name)
        }
        fn delete_many(&mut self, names: &[String]) -> Result<(), WalError> {
            self.deleted.push(names.to_vec());
            self.inner.delete_many(names)
        }
        fn truncate(&mut self, name: &str, len: u64) -> Result<(), WalError> {
            self.inner.truncate(name, len)
        }
    }

    #[test]
    fn retire_deletes_one_batch_per_publish_checkpoints_before_segments() {
        let mut j = Journal::create(Batches::default(), small_segments()).unwrap();
        publish_epochs(&mut j, 0..6, 0xd1);
        let batches = &j.storage().deleted;
        assert_eq!(batches.len(), 6, "one batch per publish: {batches:?}");
        // From the fifth publish on a batch leads with the dynamic frame
        // that stopped being a target.
        for batch in batches {
            let first_segment = batch
                .iter()
                .position(|n| parse_segment_name(n).is_some())
                .unwrap_or(batch.len());
            assert!(batch[..first_segment]
                .iter()
                .all(|n| parse_checkpoint_name(n).is_some()));
            assert!(batch[first_segment..]
                .iter()
                .all(|n| parse_segment_name(n).is_some()));
        }
        let checkpoints_deleted: Vec<&String> = batches
            .iter()
            .flatten()
            .filter(|n| parse_checkpoint_name(n).is_some())
            .collect();
        assert_eq!(checkpoints_deleted.len(), 2, "{checkpoints_deleted:?}");
        assert!(checkpoints_deleted
            .iter()
            .all(|n| matches!(parse_checkpoint_name(n), Some((FrameKind::Dynamic, _)))));
    }

    #[test]
    fn a_missing_segment_stops_the_scan_and_later_segments_are_discarded() {
        // Seven records over segments 0..=3, no checkpoint.
        let build = || {
            let mut j = Journal::create(MemStorage::new(), small_segments()).unwrap();
            for seq in 0..7 {
                j.append(seq, &batch(seq, 1)).unwrap();
            }
            j.sync().unwrap();
            j.into_storage()
        };
        let segment_bytes = |s: &MemStorage, o: u64| s.durable_len(&segment_name(o)) as u64;

        // An interior hole: resume from what is contiguous before it.
        let mut storage = build();
        let lost = segment_bytes(&storage, 2) + segment_bytes(&storage, 3);
        storage.delete(&segment_name(1)).unwrap();
        let rec = recover_small(storage);
        assert_eq!(seqs(&rec.tail), vec![0, 1]);
        assert_eq!(rec.journal.appended(), 2);
        assert_eq!(rec.report.discarded_bytes, lost);
        assert!(rec.report.quarantined_records.is_empty());
        assert_eq!(rec.journal.active_segment(), 0);
        // The later segments are gone, and re-delivery rebuilds them.
        let mut j = rec.journal;
        assert_eq!(j.storage().list().unwrap(), vec![segment_name(0)]);
        for seq in 2..7 {
            j.append(seq, &batch(seq, 1)).unwrap();
        }
        j.sync().unwrap();
        assert_eq!(j.active_segment(), 3);
        let rec = recover_small(j.into_storage());
        assert_eq!(seqs(&rec.tail), vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(rec.report.discarded_bytes, 0);

        // The last segment missing is a journal that ended earlier.
        let mut storage = build();
        storage.delete(&segment_name(3)).unwrap();
        let rec = recover_small(storage);
        assert_eq!(seqs(&rec.tail), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(rec.report.discarded_bytes, 0);

        // The first segment missing with no checkpoint: nothing valid
        // remains to resume from.
        let mut storage = build();
        storage.delete(&segment_name(0)).unwrap();
        assert!(matches!(
            Journal::recover(storage, small_segments(), |_| true),
            Err(WalError::Unrecoverable(_))
        ));
    }

    #[test]
    fn a_missing_first_segment_under_a_checkpoint_resumes_at_the_snapshot() {
        let mut j = Journal::create(MemStorage::new(), small_segments()).unwrap();
        publish_epochs(&mut j, 0..2, 0xd1);
        for seq in 6..11 {
            j.append(seq, &batch(seq, 1)).unwrap();
        }
        j.sync().unwrap();
        let first = j.active_segment() - 2;
        let mut storage = j.into_storage();
        let lost = [first + 1, first + 2]
            .map(|o| storage.durable_len(&segment_name(o)) as u64)
            .iter()
            .sum::<u64>();
        storage.delete(&segment_name(first)).unwrap();
        let rec = recover_small(storage);
        assert_eq!(rec.report.used_checkpoint, Some(first));
        assert_eq!(rec.covered_deliveries, 6);
        assert!(rec.tail.is_empty());
        assert_eq!(rec.journal.appended(), 6);
        assert_eq!(rec.journal.active_segment(), first);
        assert_eq!(rec.report.discarded_bytes, lost);
        // Only the older target's segments are left.
        let names = rec.journal.storage().list().unwrap();
        assert!(names
            .iter()
            .filter_map(|n| parse_segment_name(n))
            .all(|o| o < first));
    }

    #[test]
    fn an_empty_store_recovers_to_a_fresh_journal() {
        let rec = recover(MemStorage::new());
        assert_eq!(rec.state, None);
        assert!(rec.tail.is_empty());
        assert_eq!(rec.journal.appended(), 0);
        assert_eq!(rec.journal.active_segment(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One segment of arbitrary bytes: a run of batch frames, epoch
        /// markers and arbitrary chunks, or arbitrary bytes alone, with
        /// bytes overwritten and the tail cut at random. Recovery returns
        /// `Ok` or a typed error, never panics; what it replays re-encodes
        /// to a prefix of the segment, that prefix is what the segment
        /// holds afterwards, and the report accounts for every other byte.
        /// An undamaged run replays every batch before its first marker.
        #[test]
        fn recovery_of_an_arbitrary_segment_replays_a_prefix_of_its_bytes(
            pieces in proptest::collection::vec(0u8..6, 0..6),
            garbage in proptest::collection::vec(any::<u8>(), 0..40),
            arbitrary_only in any::<bool>(),
            pokes in proptest::collection::vec(any::<u64>(), 0..3),
            keep in any::<u64>(),
            cut in any::<bool>(),
        ) {
            let mut bytes = Vec::new();
            let mut pristine = !cut && pokes.is_empty();
            let mut replayable: Option<usize> = None;
            if arbitrary_only {
                bytes = garbage.clone();
                pristine = false;
            } else {
                for (seq, &piece) in pieces.iter().enumerate() {
                    let seq = seq as u64;
                    match piece {
                        0..=3 => bytes.extend(encode_record(seq, &batch(seq, piece.into()))),
                        4 => {
                            replayable.get_or_insert(bytes.len());
                            bytes.extend(encode_epoch_record(seq, seq as u32));
                        }
                        _ => {
                            pristine = false;
                            bytes.extend_from_slice(&garbage);
                        }
                    }
                }
            }
            for &poke in &pokes {
                if !bytes.is_empty() {
                    let at = (poke % bytes.len() as u64) as usize;
                    bytes[at] ^= (poke >> 56) as u8 | 1;
                }
            }
            if cut {
                bytes.truncate((keep % (bytes.len() as u64 + 1)) as usize);
            }
            let mut storage = MemStorage::new();
            storage.append(&segment_name(0), &bytes).unwrap();
            storage.sync(&segment_name(0)).unwrap();
            let Ok(rec) = Journal::recover(storage, JournalConfig::default(), |_| true) else {
                return Ok(());
            };
            prop_assert!(rec.tail.iter().all(|r| r.batch().is_some()), "a marker was replayed");
            let replayed: Vec<u8> = rec.tail.iter().flat_map(Record::encode).collect();
            prop_assert!(bytes.starts_with(&replayed), "replayed frames are not a prefix");
            let kept = rec.journal.storage().read(&segment_name(0)).unwrap();
            prop_assert_eq!(&kept, &replayed);
            let report = &rec.report;
            let cut_away = report.torn_bytes + report.discarded_bytes + report.epoch_cut_bytes;
            prop_assert_eq!(replayed.len() as u64 + cut_away, bytes.len() as u64);
            prop_assert_eq!(report.replayed_records, rec.tail.len() as u64);
            prop_assert_eq!(rec.journal.appended(), rec.tail.len() as u64);
            if pristine {
                prop_assert_eq!(replayed.len(), replayable.unwrap_or(bytes.len()));
            }
        }
    }
}
