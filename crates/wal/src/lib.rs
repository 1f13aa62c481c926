//! `scope-wal`: the durable intake journal under the serving engine.
//!
//! PR 8–9 made the serving loop incremental and fault-tolerant in
//! memory; this crate makes intake *durable*. Every `EventColumns` batch
//! delivered to a journaled engine is appended here — checksum-framed, in
//! segments, through a minimal [`Storage`] abstraction — before it is
//! allowed to mutate engine state, so a crash can lose at most the
//! unacknowledged tail since the last sync, and recovery is replay.
//!
//! # Durability and recovery
//!
//! **One checksum.** Record frames, checkpoint frames, the engine
//! snapshot inside them and its configuration fingerprint all carry
//! [`xxh64()`], a four-lane bulk hash from scratch in safe Rust, pinned
//! to its published test vectors. A batch record is hundreds of
//! kilobytes and a snapshot megabytes, and both are hashed on the
//! serving path, so the digest has to run at memory speed. A record
//! frame keeps the low 32 bits in its `u32` header field; a checkpoint
//! frame keeps all 64. The failure model: a torn tail is caught by the
//! frame's length and overrun checks before the checksum is read, and a
//! random corruption passes with probability 2⁻³² — what CRC-32 gives for
//! any burst longer than 32 bits. Given up: CRC-32's certain detection of
//! bursts of 32 bits or fewer, which the low 32 bits of XXH64 catch with
//! probability 1 − 2⁻³². Record frames carry no version, so a journal
//! whose records an older build sealed with CRC-32 restores its
//! checkpoint, quarantines its first tail frame as
//! [`CorruptKind::Checksum`] and re-delivers from the reported resume
//! point (see [`record`]).
//!
//! **Record framing.** Each delivery is one self-checking frame —
//! `len | checksum | kind | seq | payload` — with the batch encoded
//! column-wise, little-endian (see [`record`]). The same encoding is the
//! wire format for fleet-scale intake: a batch serialized for the
//! journal is byte-identical to one serialized for the network. A second
//! record kind marks epoch boundaries ([`record::RECORD_EPOCH`]): the
//! engine's decay/re-solve step is not itself journaled, so recovery
//! cuts its replay tail at the first marker rather than replay
//! deliveries across a boundary it cannot reproduce.
//!
//! **Sync points.** Appends land in the backend's volatile tail and
//! become durable at [`Journal::sync`] — the serving engine's epoch
//! boundary. Rolling to a new segment seals (syncs) the old one, so a
//! hole can never open mid-journal (and recovery treats one it finds as
//! the fault it is). Checkpoints are published atomically (write-temp +
//! rename + directory sync in the file backend) and are durable the
//! moment [`Journal::publish_checkpoint`] returns.
//!
//! **Publish what changed.** A checkpoint frame is *full* (a whole
//! snapshot) or *dynamic* (what an epoch can change, laid over the static
//! section of any full frame with the same [`StaticDigest`]); the journal
//! publishes a full frame only while fewer than two retained ones carry
//! the caller's current digest (see [`journal`]).
//!
//! **Checkpoint retirement.** A checkpoint with ordinal `k` covers every
//! record in segments `< k`. After each publish the newest
//! [`JournalConfig::keep_checkpoints`] (≥ 2) frames of either kind are
//! retained as recovery targets plus the two newest full frames as static
//! donors, and everything older — checkpoints, then the segments below
//! the oldest target's ordinal — is deleted as one batch under one
//! durability barrier: bounded storage, while any one corrupt or missing
//! object always leaves another way back *with the segments it needs*.
//!
//! **Recovery walk-back.** [`Journal::recover`] first verifies every
//! retained full frame, then walks the targets newest to oldest,
//! quarantining (deleting and reporting) any that fail the frame checksum
//! or the caller's engine-level validation; then scans the surviving
//! snapshot's uncovered segments. A torn tail — an incomplete frame at
//! the end of the last segment — is truncated; a corrupt interior frame
//! is quarantined with a typed [`WalError`], a missing segment is a hole,
//! and the journal is cut at either, because everything past it must be
//! re-delivered anyway. The valid tail records are handed back for replay through the
//! engine's validating intake; the report says exactly how many
//! deliveries the recovered state covers, which tells the producer where
//! to resume.
//!
//! Two backends ship: [`MemStorage`], whose explicit durable/pending
//! split and corruption hooks let seeded fault plans (in `scope-faults`)
//! inject torn writes, bit flips, partial appends and failed syncs
//! deterministically; and [`FileStorage`], real files used by the bench
//! bins.

pub mod crc;
mod error;
pub mod file;
pub mod journal;
pub mod record;
mod storage;
pub mod xxh64;

pub use crc::crc32;
pub use error::{CorruptKind, WalError};
pub use file::FileStorage;
pub use journal::{
    checkpoint_name, parse_checkpoint_name, parse_segment_name, segment_name, Candidate, Journal,
    JournalConfig, QuarantinedRecord, RecoveredJournal, WalRecoveryReport,
};
pub use record::{
    decode_frame, encode_epoch_record, encode_record, CheckpointFrame, FrameKind, FrameOutcome,
    Record, RecordPayload, StaticDigest,
};
pub use storage::{MemStorage, Storage};
pub use xxh64::xxh64;
