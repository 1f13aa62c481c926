//! Frame and payload encoding: the journal's on-disk record format,
//! which doubles as the wire format for fleet-scale intake.
//!
//! # Record framing
//!
//! Every journal record is one self-checking frame:
//!
//! ```text
//! len: u32 LE      bytes after the 8-byte (len, checksum) header
//! checksum: u32 LE low 32 bits of the XXH64 (seed 0) of everything
//!                  after the header
//! kind: u8         RECORD_BATCH = 3 | RECORD_EPOCH = 2
//! seq: u64 LE      intake sequence number of the delivery
//! payload          kind-specific body
//! ```
//!
//! Batch records carry a delivered [`EventColumns`] batch. Epoch records
//! (`RECORD_EPOCH`, payload = `day: u32 LE`) are **boundary markers**: a
//! journaled engine appends one at each epoch boundary, and recovery
//! cuts its replay tail at the first marker it meets — replaying
//! deliveries past an epoch boundary without re-running the boundary's
//! engine effects (heat decay, re-solve) would leave the recovered
//! engine off the never-crashed trajectory. Everything at and past the
//! cut is discarded and re-delivered instead.
//!
//! A reader can always either validate a frame completely or classify
//! the failure: not enough bytes for a header, an implausible length, a
//! checksum mismatch, an unknown kind, a retired kind, or an undecodable
//! payload — each a distinct [`CorruptKind`].
//!
//! # Failure model of the frame checksum
//!
//! Record frames, checkpoint frames, snapshots and the static digest all
//! use the one checksum, [`crate::xxh64`](fn@crate::xxh64). A record
//! frame keeps only its low 32 bits, so the header stays 8 bytes and a
//! frame costs what it did when it carried a CRC-32.
//!
//! - **Torn tails never reach the checksum.** A write cut short leaves a
//!   frame whose declared length runs past the end of the segment; the
//!   length and overrun checks report it as [`FrameOutcome::Overrun`]
//!   before the checksum is read.
//! - **A random corruption passes with probability 2⁻³².** That is what
//!   CRC-32 gives for any burst longer than 32 bits, which covers torn
//!   sectors and garbage.
//! - **What is given up:** CRC-32 detects every burst of 32 bits or fewer
//!   for certain; the low 32 bits of XXH64 detect such a burst with
//!   probability 1 − 2⁻³². Every single-bit flip of the frames this
//!   module's tests sweep is still refused.
//!
//! Record frames carry no version field. A journal written by a build
//! that sealed records with CRC-32 recovers like any journal with a bad
//! tail: its `WCKP` checkpoints are unchanged and restore, the first
//! CRC-sealed frame past the checkpoint is quarantined as
//! [`CorruptKind::Checksum`], and the producer re-delivers from the
//! resume point the recovery report gives. No decoder accepts both
//! checksums.
//!
//! # Batch payload (the wire format)
//!
//! A batch record's payload is exactly one **column block**, the byte
//! layout `scope-cloudsim` owns for an [`EventColumns`] batch
//! ([`EventColumns::encode_into`]): four `u32` column lengths, then the
//! days (runs of one day, or `u32` cells), object ids (cells of 1, 2 or 4
//! bytes), kinds (one bit each) and volume bits (`u64`, so NaN corruption
//! survives for the validating intake to quarantine), little-endian — 16
//! bytes per record and, for a batch whose days are a few runs over a
//! fleet of fewer than 65 536 objects, ≈ 10.1 per event; never more than
//! 17. Each column carries its own length, so a **ragged** (torn)
//! delivery is journaled as it stands and replays as it was delivered:
//! the intake, not the journal, judges it. A payload that is not exactly
//! one block, or not the block the encoder writes for its values, is
//! [`CorruptKind::Payload`].
//!
//! Kind 1 was the batch record of builds that wrote a fixed-width block
//! (`u32` days and ids, a byte per kind: 17 bytes per event). Such a frame
//! checksums like any other but is refused as [`CorruptKind::Retired`],
//! never read as the compact block, so a journal an older build wrote
//! recovers to its last checkpoint and quarantines the first such frame
//! past it.
//!
//! # Checkpoint frame (`WCKP`, version 3)
//!
//! A published checkpoint is one object, not a journal record, and wraps
//! the engine's opaque snapshot in the journal's resume metadata:
//!
//! ```text
//! magic       b"WCKP"
//! version     u32 LE    (currently 3)
//! kind        u8        1 = full | 2 = dynamic
//! replay_from u64 LE    first segment ordinal the snapshot does not cover
//! deliveries  u64 LE    deliveries reflected in the snapshot
//! marker      u64 LE    opaque caller progress value
//! static digest         objects u64 LE, len u64 LE, xxh64 u64 LE
//! state_len   u64 LE
//! state       state_len bytes
//! checksum    u64 LE    XXH64 (seed 0) of magic..state
//! ```
//!
//! The **kind** says what the state is ([`FrameKind`]): a *full* frame
//! holds a whole engine snapshot and restores on its own; a *dynamic*
//! frame holds only what an epoch can change and restores over the static
//! section of a full frame. The **static digest** ([`StaticDigest`]) names
//! that static section — how many objects it describes, how long its
//! encoding is and the XXH64 of it — in both kinds, so the journal can
//! pair a dynamic frame with **any** full frame carrying the same digest
//! without understanding either state: there is no chain of deltas, only
//! a star around whichever full frames survive.
//!
//! The trailer is the full 64-bit XXH64, the checksum the record frames
//! keep 32 bits of. Version 1 (a `u32` CRC-32 trailer) and version 2 (no
//! kind, no digest: every frame was a full one) are rejected as
//! unsupported versions; any layout change bumps the version again, and
//! golden fixtures in this module's tests make that a deliberate act.

use crate::error::{CorruptKind, WalError};
use crate::xxh64::xxh64;
use scope_cloudsim::EventColumns;

/// Record kind: one delivered `EventColumns` batch, as a column block.
pub(crate) const RECORD_BATCH: u8 = 3;

/// Record kind of the retired fixed-width batch record (see the module
/// docs): refused as [`CorruptKind::Retired`].
const RECORD_BATCH_FIXED_WIDTH: u8 = 1;

/// Record kind: an epoch-boundary marker (see the module docs).
pub(crate) const RECORD_EPOCH: u8 = 2;

/// Frame header size: `len` + `checksum`.
pub(crate) const FRAME_HEADER_LEN: usize = 8;

/// Body bytes before the payload: `kind` + `seq`.
pub(crate) const FRAME_BODY_MIN: usize = 9;

/// Sanity cap on a single frame's body, far above any real batch — a
/// corrupted length field almost always lands outside `[FRAME_BODY_MIN,
/// MAX_FRAME_BODY]` or past the segment end, so garbage lengths are
/// caught before the checksum is even consulted.
pub(crate) const MAX_FRAME_BODY: u32 = 64 << 20;

/// One decoded journal record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Intake sequence number the batch was delivered under (for epoch
    /// markers: the caller's epoch ordinal).
    pub seq: u64,
    /// The kind-specific payload.
    pub payload: RecordPayload,
}

/// A record's kind-specific payload.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordPayload {
    /// A delivered batch.
    Batch(EventColumns),
    /// An epoch-boundary marker: the engine decayed heat to `day` and
    /// re-solved here. Recovery cuts its replay tail at the first one.
    Epoch {
        /// Day the epoch advanced the engine to.
        day: u32,
    },
}

impl Record {
    /// The delivered batch, when this is a batch record.
    pub fn batch(&self) -> Option<&EventColumns> {
        match &self.payload {
            RecordPayload::Batch(columns) => Some(columns),
            RecordPayload::Epoch { .. } => None,
        }
    }
}

#[cfg(test)]
impl Record {
    /// The frame this record decodes from.
    pub(crate) fn encode(&self) -> Vec<u8> {
        match &self.payload {
            RecordPayload::Batch(columns) => encode_record(self.seq, columns),
            RecordPayload::Epoch { day } => encode_epoch_record(self.seq, *day),
        }
    }
}

/// Start a frame in `out`, replacing what it held: a zeroed `(len, checksum)`
/// header, then `kind` and `seq`. The payload is appended after this and
/// [`seal_frame`] fills the header in.
fn begin_frame(out: &mut Vec<u8>, kind: u8, seq: u64) {
    out.clear();
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    out.push(kind);
    out.extend_from_slice(&seq.to_le_bytes());
}

/// A record frame's checksum: the low 32 bits of the body's XXH64 (see
/// the module docs for what the truncation gives up).
fn frame_checksum(body: &[u8]) -> u32 {
    xxh64(body) as u32
}

/// Write the length and the checksum of the body into a begun frame's
/// header.
fn seal_frame(frame: &mut [u8]) {
    let body_len = (frame.len() - FRAME_HEADER_LEN) as u32;
    frame[0..4].copy_from_slice(&body_len.to_le_bytes());
    let checksum = frame_checksum(&frame[FRAME_HEADER_LEN..]);
    frame[4..8].copy_from_slice(&checksum.to_le_bytes());
}

/// Frame a batch delivery into `out`, replacing what it held: header,
/// columns and checksum all land in that one buffer, which a caller that
/// frames many batches keeps and reuses.
pub(crate) fn encode_record_into(out: &mut Vec<u8>, seq: u64, columns: &EventColumns) {
    begin_frame(out, RECORD_BATCH, seq);
    columns.encode_into(out);
    seal_frame(out);
}

/// Frame an epoch-boundary marker into `out`, replacing what it held.
pub(crate) fn encode_epoch_record_into(out: &mut Vec<u8>, seq: u64, day: u32) {
    begin_frame(out, RECORD_EPOCH, seq);
    out.extend_from_slice(&day.to_le_bytes());
    seal_frame(out);
}

/// Encode a batch delivery as one framed record.
pub fn encode_record(seq: u64, columns: &EventColumns) -> Vec<u8> {
    let mut out = Vec::new();
    encode_record_into(&mut out, seq, columns);
    out
}

/// Encode an epoch-boundary marker as one framed record.
#[cfg(test)]
pub(crate) fn encode_epoch_record(seq: u64, day: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + FRAME_BODY_MIN + 4);
    encode_epoch_record_into(&mut out, seq, day);
    out
}

/// Outcome of decoding the frame starting at `offset` in `bytes`.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameOutcome {
    /// A valid record; `next` is the offset of the following frame.
    Valid {
        /// The decoded record.
        record: Record,
        /// Offset of the next frame.
        next: usize,
    },
    /// The frame's declared span extends past the end of `bytes` (or
    /// there are not even enough bytes for a header). At the tail of the
    /// last segment this is a torn write; anywhere else it is corruption.
    Overrun {
        /// What made the span implausible.
        kind: CorruptKind,
    },
    /// The frame lies fully inside `bytes` but fails validation.
    Invalid {
        /// What failed.
        kind: CorruptKind,
    },
}

/// Decode the frame at `offset`. `bytes[offset..]` must be non-empty.
pub fn decode_frame(bytes: &[u8], offset: usize) -> FrameOutcome {
    let remaining = bytes.len().saturating_sub(offset);
    if remaining < FRAME_HEADER_LEN {
        return FrameOutcome::Overrun {
            kind: CorruptKind::Header,
        };
    }
    let len = read_u32(bytes, offset);
    if len < FRAME_BODY_MIN as u32 || len > MAX_FRAME_BODY {
        return FrameOutcome::Overrun {
            kind: CorruptKind::Length,
        };
    }
    let body_len = len as usize;
    if remaining - FRAME_HEADER_LEN < body_len {
        return FrameOutcome::Overrun {
            kind: CorruptKind::Length,
        };
    }
    let checksum = read_u32(bytes, offset + 4);
    let body = &bytes[offset + FRAME_HEADER_LEN..offset + FRAME_HEADER_LEN + body_len];
    if frame_checksum(body) != checksum {
        return FrameOutcome::Invalid {
            kind: CorruptKind::Checksum,
        };
    }
    let seq = read_u64(body, 1);
    let next = offset + FRAME_HEADER_LEN + body_len;
    let payload = &body[FRAME_BODY_MIN..];
    match body[0] {
        RECORD_BATCH => match EventColumns::decode(payload) {
            Some(columns) => FrameOutcome::Valid {
                record: Record {
                    seq,
                    payload: RecordPayload::Batch(columns),
                },
                next,
            },
            None => FrameOutcome::Invalid {
                kind: CorruptKind::Payload,
            },
        },
        RECORD_EPOCH => {
            if payload.len() != 4 {
                return FrameOutcome::Invalid {
                    kind: CorruptKind::Payload,
                };
            }
            FrameOutcome::Valid {
                record: Record {
                    seq,
                    payload: RecordPayload::Epoch {
                        day: read_u32(payload, 0),
                    },
                },
                next,
            }
        }
        RECORD_BATCH_FIXED_WIDTH => FrameOutcome::Invalid {
            kind: CorruptKind::Retired,
        },
        _ => FrameOutcome::Invalid {
            kind: CorruptKind::Kind,
        },
    }
}

// ---------------------------------------------------------------------------
// Checkpoint frame
// ---------------------------------------------------------------------------

/// Magic prefix of a checkpoint object.
pub const CHECKPOINT_MAGIC: &[u8; 4] = b"WCKP";

/// Checkpoint frame version.
pub(crate) const CHECKPOINT_FRAME_VERSION: u32 = 3;

/// Bytes before the state: magic, version, kind and seven metadata words.
const CHECKPOINT_FIXED: usize = 4 + 4 + 1 + 8 * 7;

/// Bytes after the state: the XXH64 trailer.
const CHECKPOINT_TRAILER: usize = 8;

/// What the state of a checkpoint frame is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A whole snapshot: restores on its own, and lends its static
    /// section to dynamic frames carrying the same [`StaticDigest`].
    Full,
    /// Only what an epoch can change: restores over a full frame.
    Dynamic,
}

impl FrameKind {
    fn tag(self) -> u8 {
        match self {
            FrameKind::Full => 1,
            FrameKind::Dynamic => 2,
        }
    }
}

/// Identity of the static section a frame's state was taken over: a
/// dynamic frame restores over exactly the full frames that carry an
/// equal digest. The journal only compares it; the caller computes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StaticDigest {
    /// Objects the static section describes.
    pub objects: u64,
    /// Length of its encoding, in bytes.
    pub len: u64,
    /// XXH64 (seed 0) of its encoding.
    pub xxh64: u64,
}

/// The journal's wrapper around an engine checkpoint: enough metadata to
/// resume the journal (which segments to replay, how many deliveries the
/// snapshot covers) plus an opaque caller progress `marker`, all under
/// one trailing checksum (see the module docs for the layout).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointFrame {
    /// Whether `state` is a whole snapshot or the dynamic part of one.
    pub kind: FrameKind,
    /// First segment ordinal whose records are *not* covered by this
    /// snapshot (replay starts here).
    pub replay_from: u64,
    /// Deliveries appended to the journal before this snapshot was
    /// taken — all of them are reflected in `state`.
    pub deliveries: u64,
    /// Opaque caller progress marker (the serving harnesses store their
    /// position in the replay schedule, so recovery can tell a
    /// checkpoint taken *after* an epoch step from one taken before it).
    pub marker: u64,
    /// The static section `state` was taken over.
    pub digest: StaticDigest,
    /// The engine checkpoint bytes.
    pub state: Vec<u8>,
}

impl CheckpointFrame {
    /// Serialize the frame: magic, version, metadata, state, checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(CHECKPOINT_FIXED + self.state.len() + CHECKPOINT_TRAILER);
        self.encode_with(&mut out, |out| out.extend_from_slice(&self.state));
        out
    }

    /// Build a frame with this frame's metadata in `out`, replacing what
    /// it held, around a state that `write_state` appends in place
    /// (`self.state` is not read) — a snapshot serialized straight into
    /// the frame is never copied. The bytes equal
    /// [`CheckpointFrame::encode`] of the same fields.
    pub(crate) fn encode_with(&self, out: &mut Vec<u8>, write_state: impl FnOnce(&mut Vec<u8>)) {
        out.clear();
        out.extend_from_slice(CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_FRAME_VERSION.to_le_bytes());
        out.push(self.kind.tag());
        for word in [
            self.replay_from,
            self.deliveries,
            self.marker,
            self.digest.objects,
            self.digest.len,
            self.digest.xxh64,
            0, // state_len, known once the state is written
        ] {
            out.extend_from_slice(&word.to_le_bytes());
        }
        write_state(out);
        let state_len = (out.len() - CHECKPOINT_FIXED) as u64;
        out[CHECKPOINT_FIXED - 8..CHECKPOINT_FIXED].copy_from_slice(&state_len.to_le_bytes());
        let checksum = xxh64(out);
        out.extend_from_slice(&checksum.to_le_bytes());
    }

    /// Parse and validate a frame read back from storage.
    pub fn decode(object: &str, bytes: &[u8]) -> Result<Self, WalError> {
        let reject = |reason: String| WalError::Checkpoint {
            object: object.to_string(),
            reason,
        };
        let short = || reject("shorter than a checkpoint frame".into());
        if bytes.len() < 8 {
            return Err(short());
        }
        if &bytes[0..4] != CHECKPOINT_MAGIC {
            return Err(reject("bad magic".into()));
        }
        // The version decides how the rest is laid out — header length
        // and trailer width included — so it is judged before either is
        // looked for: an older frame is "unsupported", not "corrupt".
        let version = read_u32(bytes, 4);
        if version != CHECKPOINT_FRAME_VERSION {
            return Err(reject(format!(
                "unsupported version {version} (this build reads {CHECKPOINT_FRAME_VERSION})"
            )));
        }
        if bytes.len() < CHECKPOINT_FIXED + CHECKPOINT_TRAILER {
            return Err(short());
        }
        let (body, trailer) = bytes.split_at(bytes.len() - CHECKPOINT_TRAILER);
        if xxh64(body) != read_u64(trailer, 0) {
            return Err(reject("frame checksum mismatch".into()));
        }
        let kind = match body[8] {
            1 => FrameKind::Full,
            2 => FrameKind::Dynamic,
            tag => return Err(reject(format!("unknown frame kind {tag}"))),
        };
        let word = |i: usize| read_u64(body, 9 + 8 * i);
        if (body.len() - CHECKPOINT_FIXED) as u64 != word(6) {
            return Err(reject("state length mismatch".into()));
        }
        Ok(CheckpointFrame {
            kind,
            replay_from: word(0),
            deliveries: word(1),
            marker: word(2),
            digest: StaticDigest {
                objects: word(3),
                len: word(4),
                xxh64: word(5),
            },
            state: body[CHECKPOINT_FIXED..].to_vec(),
        })
    }
}

/// Little-endian `u32` at `o`; callers have bounds-checked the span.
fn read_u32(bytes: &[u8], o: usize) -> u32 {
    let mut le = [0u8; 4];
    le.copy_from_slice(&bytes[o..o + 4]);
    u32::from_le_bytes(le)
}

/// Little-endian `u64` at `o`; callers have bounds-checked the span.
fn read_u64(bytes: &[u8], o: usize) -> u64 {
    let mut le = [0u8; 8];
    le.copy_from_slice(&bytes[o..o + 8]);
    u64::from_le_bytes(le)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{segment_name, Journal, JournalConfig};
    use crate::storage::{MemStorage, Storage};
    use proptest::prelude::*;
    use scope_cloudsim::{AccessKind, UNKNOWN_OBJECT};

    fn batch(n: usize) -> EventColumns {
        let mut cols = EventColumns::default();
        for i in 0..n {
            let kind = if i % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let volume = match i % 5 {
                0 => f64::NAN,
                1 => -1.25,
                _ => 0.5 + i as f64 * 0.125,
            };
            cols.push_resolved(i as u32 % 90, i as u32 % 7, kind, volume);
        }
        cols
    }

    fn bits(cols: &EventColumns) -> Vec<u64> {
        cols.volumes.iter().map(|v| v.to_bits()).collect()
    }

    /// The column block of `cols`, alone.
    fn block(cols: &EventColumns) -> Vec<u8> {
        let mut out = Vec::new();
        cols.encode_into(&mut out);
        out
    }

    /// Equal column for column, volumes bit for bit (so NaN equals itself).
    fn assert_same(decoded: &EventColumns, cols: &EventColumns) {
        assert_eq!(decoded.days, cols.days);
        assert_eq!(decoded.object_ids, cols.object_ids);
        assert_eq!(decoded.kinds, cols.kinds);
        assert_eq!(bits(decoded), bits(cols));
    }

    #[test]
    fn columns_round_trip_bit_for_bit_including_nan() {
        for n in [0usize, 1, 7, 100] {
            let cols = batch(n);
            let enc = block(&cols);
            // Days all distinct (cells), ids under 7 (one byte), a bit per
            // kind.
            assert_eq!(enc.len(), 16 + 4 * n + n + n.div_ceil(8) + 8 * n);
            assert_same(&EventColumns::decode(&enc).unwrap(), &cols);
        }
    }

    #[test]
    fn truncated_or_padded_payloads_are_rejected() {
        let enc = block(&batch(5));
        assert!(EventColumns::decode(&enc[..enc.len() - 1]).is_none());
        let mut padded = enc.clone();
        padded.push(0);
        assert!(EventColumns::decode(&padded).is_none());
        assert!(EventColumns::decode(&[]).is_none());
        assert!(EventColumns::decode(&enc[..15]).is_none());
        // A set padding bit of the kind bitmap is payload corruption.
        let mut bad_kind = enc;
        bad_kind[16 + 5 * 4 + 5] |= 0x80;
        assert!(EventColumns::decode(&bad_kind).is_none());
        // A ragged batch is encoded as it stands and read back as it was:
        // each column carries its own length.
        let mut ragged = batch(5);
        ragged.volumes.pop();
        ragged.kinds.truncate(2);
        let enc = block(&ragged);
        assert_eq!(enc.len(), 16 + 5 * 4 + 5 + 1 + 4 * 8);
        let decoded = EventColumns::decode(&enc).unwrap();
        assert_same(&decoded, &ragged);
        assert_eq!(block(&decoded), enc);
    }

    /// Three events on one day, and the same three torn: `kinds` and
    /// `volumes` lost their last entry.
    fn golden_batch(torn: bool) -> EventColumns {
        let mut cols = EventColumns::default();
        cols.push_resolved(3, 1, AccessKind::Read, 0.5);
        cols.push_resolved(3, 2, AccessKind::Write, 1.0);
        cols.push_resolved(3, 1, AccessKind::Read, 0.5);
        if torn {
            cols.kinds.pop();
            cols.volumes.pop();
        }
        cols
    }

    /// A record frame spelled out field by field around `payload`.
    fn golden_frame(len: u8, checksum: [u8; 4], kind: u8, seq: u8, payload: &[&[u8]]) -> Vec<u8> {
        let mut golden = vec![len, 0, 0, 0];
        golden.extend_from_slice(&checksum);
        golden.push(kind);
        golden.extend_from_slice(&[seq, 0, 0, 0, 0, 0, 0, 0]);
        for field in payload {
            golden.extend_from_slice(field);
        }
        golden
    }

    const HALF: [u8; 8] = [0, 0, 0, 0, 0, 0, 0xE0, 0x3F];
    const ONE: [u8; 8] = [0, 0, 0, 0, 0, 0, 0xF0, 0x3F];

    /// An epoch marker for day 42 under sequence number 5.
    fn golden_epoch(checksum: [u8; 4]) -> Vec<u8> {
        golden_frame(13, checksum, RECORD_EPOCH, 5, &[&[42, 0, 0, 0]])
    }

    /// The three golden frames — the clean batch, the torn batch and an
    /// epoch marker — with `checksums` in their headers.
    fn golden_frames(checksums: [[u8; 4]; 3]) -> [Vec<u8>; 3] {
        // One run of three days on day 3, ids in one-byte cells.
        let days_and_ids: [&[u8]; 2] = [&[3, 0, 0, 0, 3, 0, 0, 0], &[1, 2, 1]];
        let clean = golden_frame(
            61,
            checksums[0],
            RECORD_BATCH,
            7,
            &[
                &[3, 0, 0, 0x80, 3, 0, 0, 0, 3, 0, 0, 0, 3, 0, 0, 0],
                days_and_ids[0],
                days_and_ids[1],
                &[0b010],
                &HALF,
                &ONE,
                &HALF,
            ],
        );
        let torn = golden_frame(
            53,
            checksums[1],
            RECORD_BATCH,
            7,
            &[
                &[3, 0, 0, 0x80, 3, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0],
                days_and_ids[0],
                days_and_ids[1],
                &[0b10],
                &HALF,
                &ONE,
            ],
        );
        [clean, torn, golden_epoch(checksums[2])]
    }

    /// The low 32 bits of each golden body's XXH64, little-endian — what
    /// this build seals.
    const XXH64_SEALED: [[u8; 4]; 3] = [
        [0x84, 0x2C, 0xD5, 0x76],
        [0xD4, 0xE8, 0x72, 0x7F],
        [0x82, 0xE2, 0xA9, 0xA6],
    ];

    /// The fixed-width batch frames of builds before the column block was
    /// compact (kind 1: two events on days 3 and 4, `u32` days and ids, a
    /// byte per kind, and the same two torn), and the epoch marker, with
    /// `checksums` in their headers. Kept to be refused, not misread.
    fn fixed_width_frames(checksums: [[u8; 4]; 3]) -> [Vec<u8>; 3] {
        let days_and_ids: [&[u8]; 2] = [&[3, 0, 0, 0, 4, 0, 0, 0], &[1, 0, 0, 0, 2, 0, 0, 0]];
        let clean = golden_frame(
            59,
            checksums[0],
            RECORD_BATCH_FIXED_WIDTH,
            7,
            &[
                &[2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0],
                days_and_ids[0],
                days_and_ids[1],
                &[0, 1],
                &HALF,
                &ONE,
            ],
        );
        let torn = golden_frame(
            50,
            checksums[1],
            RECORD_BATCH_FIXED_WIDTH,
            7,
            &[
                &[2, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0],
                days_and_ids[0],
                days_and_ids[1],
                &[0],
                &HALF,
            ],
        );
        [clean, torn, golden_epoch(checksums[2])]
    }

    /// The low 32 bits of each fixed-width frame body's XXH64: what the
    /// builds that wrote them sealed.
    const FIXED_WIDTH_XXH64_SEALED: [[u8; 4]; 3] = [
        [0xC4, 0x0B, 0xF8, 0x56],
        [0xE1, 0x26, 0x5F, 0x08],
        [0x82, 0xE2, 0xA9, 0xA6],
    ];

    /// zlib's `crc32` of each fixed-width frame body, little-endian — what
    /// builds before the one-checksum change sealed.
    const CRC_SEALED: [[u8; 4]; 3] = [
        [0xA8, 0xA5, 0x11, 0x43],
        [0x8E, 0xF0, 0x10, 0x2D],
        [0x83, 0xCB, 0x04, 0x38],
    ];

    /// The record layout, pinned: a clean batch frame, a torn one and an
    /// epoch frame, byte for byte. A layout or checksum change must
    /// replace these bytes on purpose.
    #[test]
    fn the_record_layout_is_pinned_by_golden_frames() {
        let [clean, torn, epoch] = golden_frames(XXH64_SEALED);
        assert_eq!((clean.len(), torn.len(), epoch.len()), (69, 61, 21));

        for (golden, columns) in [(&clean, golden_batch(false)), (&torn, golden_batch(true))] {
            assert_eq!(encode_record(7, &columns), *golden);
            let FrameOutcome::Valid { record, next } = decode_frame(golden, 0) else {
                panic!("golden batch frame invalid");
            };
            assert_eq!((record.seq, next), (7, golden.len()));
            assert_eq!(record.batch(), Some(&columns));
        }
        assert_eq!(encode_epoch_record(5, 42), epoch);
        let FrameOutcome::Valid { record, .. } = decode_frame(&epoch, 0) else {
            panic!("golden epoch frame invalid");
        };
        assert_eq!(record.payload, RecordPayload::Epoch { day: 42 });

        // The fixed-width batch frames, sealed as their builds sealed
        // them: refused as a retired kind, not misread. The epoch marker
        // is the same frame in both layouts.
        let [old_clean, old_torn, old_epoch] = fixed_width_frames(FIXED_WIDTH_XXH64_SEALED);
        for retired in [old_clean, old_torn] {
            assert_eq!(
                decode_frame(&retired, 0),
                FrameOutcome::Invalid {
                    kind: CorruptKind::Retired
                }
            );
        }
        assert_eq!(old_epoch, epoch);

        // The same frames as a CRC-32 build sealed them: refused by the
        // checksum, not misread.
        for crc_sealed in fixed_width_frames(CRC_SEALED) {
            assert_eq!(
                decode_frame(&crc_sealed, 0),
                FrameOutcome::Invalid {
                    kind: CorruptKind::Checksum
                }
            );
        }
    }

    /// A whole segment, pinned: the journal writes the golden frames back
    /// to back, and recovery replays the two batches and cuts the marker.
    #[test]
    fn a_golden_segment_is_the_golden_frames_back_to_back() {
        let mut journal = Journal::create(MemStorage::new(), JournalConfig::default()).unwrap();
        journal.append(7, &golden_batch(false)).unwrap();
        journal.append(7, &golden_batch(true)).unwrap();
        journal.append_epoch(5, 42).unwrap();
        journal.sync().unwrap();
        let storage = journal.into_storage();
        let segment = segment_name(0);
        assert_eq!(storage.list().unwrap(), vec![segment.clone()]);
        let [clean, torn, epoch] = golden_frames(XXH64_SEALED);
        let marker_bytes = epoch.len() as u64;
        assert_eq!(
            storage.read(&segment).unwrap(),
            [clean, torn, epoch].concat()
        );

        let rec = Journal::recover(storage, JournalConfig::default(), |_| true).unwrap();
        let replayed: Vec<(u64, Option<&EventColumns>)> =
            rec.tail.iter().map(|r| (r.seq, r.batch())).collect();
        assert_eq!(
            replayed,
            vec![
                (7, Some(&golden_batch(false))),
                (7, Some(&golden_batch(true)))
            ]
        );
        assert_eq!(rec.report.epoch_cut_bytes, marker_bytes);
        assert_eq!((rec.report.torn_bytes, rec.report.discarded_bytes), (0, 0));
        assert!(rec.report.quarantined_records.is_empty());
    }

    /// A journal a CRC-32 build wrote: a checkpoint, then CRC-sealed
    /// frames past it. The checkpoint restores, the first tail frame is
    /// quarantined as a checksum failure, and the resume point is the
    /// checkpoint's delivery count.
    #[test]
    fn a_crc_sealed_tail_is_quarantined_behind_a_restored_checkpoint() {
        let mut journal = Journal::create(MemStorage::new(), JournalConfig::default()).unwrap();
        journal.append(7, &golden_batch(false)).unwrap();
        journal.publish_checkpoint(b"engine snapshot", 9).unwrap();
        let segment = segment_name(journal.active_segment());
        let mut storage = journal.into_storage();
        let crc_sealed = fixed_width_frames(CRC_SEALED).concat();
        storage.append(&segment, &crc_sealed).unwrap();
        storage.sync(&segment).unwrap();

        let rec = Journal::recover(storage, JournalConfig::default(), |_| true).unwrap();
        assert_eq!(rec.state.as_deref(), Some(&b"engine snapshot"[..]));
        assert_eq!(rec.marker, 9);
        assert!(rec.tail.is_empty());
        assert_eq!(rec.journal.appended(), 1);
        let quarantined: Vec<&WalError> = rec
            .report
            .quarantined_records
            .iter()
            .map(|q| &q.error)
            .collect();
        assert_eq!(
            quarantined,
            vec![&WalError::Corrupt {
                object: segment,
                offset: 0,
                kind: CorruptKind::Checksum,
            }]
        );
        assert_eq!(rec.report.discarded_bytes, crc_sealed.len() as u64);
    }

    /// What `decode` handed out, in bytes of capacity.
    fn allocated(cols: &EventColumns) -> usize {
        4 * cols.days.capacity()
            + 4 * cols.object_ids.capacity()
            + std::mem::size_of::<AccessKind>() * cols.kinds.capacity()
            + 8 * cols.volumes.capacity()
    }

    /// The decoder's contract on one input: no panic (the caller would
    /// see it), no allocation past eight bytes per input byte, and a batch
    /// only when it re-encodes to exactly these bytes.
    fn decoder_contract(bytes: &[u8]) -> Result<Option<EventColumns>, String> {
        let Some(cols) = EventColumns::decode(bytes) else {
            return Ok(None);
        };
        prop_assert!(
            allocated(&cols) <= 8 * bytes.len(),
            "{} > {}",
            allocated(&cols),
            bytes.len()
        );
        prop_assert_eq!(block(&cols), bytes.to_vec());
        Ok(Some(cols))
    }

    /// `decode_frame`'s contract at one offset: it returns (a panic fails
    /// the case), a valid frame re-encodes to exactly the bytes it spans,
    /// and every strict prefix of a valid frame is an overrun — a torn
    /// write, never interior corruption.
    fn frame_contract(bytes: &[u8], offset: usize) -> Result<Option<Record>, String> {
        let FrameOutcome::Valid { record, next } = decode_frame(bytes, offset) else {
            return Ok(None);
        };
        prop_assert_eq!(record.encode(), bytes[offset..next].to_vec());
        for cut in offset..next {
            let outcome = decode_frame(&bytes[..cut], offset);
            prop_assert!(
                matches!(outcome, FrameOutcome::Overrun { .. }),
                "prefix {offset}..{cut} of a valid frame decoded as {outcome:?}"
            );
        }
        Ok(Some(record))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes around, about two times in three, a real frame
        /// (a ragged batch of arbitrary columns or an epoch marker), with
        /// one arbitrary byte overwritten half the time: the contract
        /// holds at every offset, and the undamaged frame decodes to what
        /// was framed.
        #[test]
        fn decode_frame_keeps_its_contract_at_every_offset_of_arbitrary_bytes(
            prefix in proptest::collection::vec(any::<u8>(), 0..24),
            suffix in proptest::collection::vec(any::<u8>(), 0..24),
            frame_kind in 0u8..3,
            seq in any::<u64>(),
            day in any::<u32>(),
            days in proptest::collection::vec(any::<u32>(), 0..4),
            object_ids in proptest::collection::vec(any::<u32>(), 0..4),
            reads in proptest::collection::vec(any::<bool>(), 0..4),
            volume_bits in proptest::collection::vec(any::<u64>(), 0..4),
            damaged in any::<bool>(),
            poke_at in any::<u64>(),
            poke in any::<u8>(),
        ) {
            let record = match frame_kind {
                0 => None,
                1 => Some(Record {
                    seq,
                    payload: RecordPayload::Batch(EventColumns {
                        days,
                        object_ids,
                        kinds: reads
                            .iter()
                            .map(|&read| if read { AccessKind::Read } else { AccessKind::Write })
                            .collect(),
                        volumes: volume_bits.into_iter().map(f64::from_bits).collect(),
                    }),
                }),
                _ => Some(Record { seq, payload: RecordPayload::Epoch { day } }),
            };
            let mut bytes = prefix.clone();
            let framed = record.as_ref().map_or_else(Vec::new, Record::encode);
            bytes.extend_from_slice(&framed);
            bytes.extend_from_slice(&suffix);
            if damaged && !bytes.is_empty() {
                let at = (poke_at % bytes.len() as u64) as usize;
                bytes[at] = poke;
            }
            for offset in 0..=bytes.len() {
                frame_contract(&bytes, offset)?;
            }
            if record.is_some() && !damaged {
                let decoded = frame_contract(&bytes, prefix.len())?;
                prop_assert!(decoded.is_some(), "an undamaged frame did not decode");
                prop_assert_eq!(decoded.map(|r| r.encode()), Some(framed));
            }
        }

        /// Uniformly arbitrary bytes: almost always refused by length.
        #[test]
        fn arbitrary_bytes_never_decode_to_anything_but_their_own_block(
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
        ) {
            decoder_contract(&bytes)?;
        }

        /// Arbitrary batches — ragged or square, any `u32` day or a few
        /// runs of days, ids of every width and `UNKNOWN_OBJECT`, any
        /// volume bits (NaN and negative among them): each round-trips bit
        /// for bit, its block is never longer than the fixed-width
        /// layout's, and the block with one byte overwritten still keeps
        /// the decoder's contract.
        #[test]
        fn arbitrary_batches_round_trip_into_blocks_no_longer_than_fixed_width(
            days in proptest::collection::vec(any::<u32>(), 0..40),
            few_days in any::<bool>(),
            object_ids in proptest::collection::vec(any::<u32>(), 0..40),
            id_range in 0u8..4,
            reads in proptest::collection::vec(any::<bool>(), 0..40),
            volume_bits in proptest::collection::vec(any::<u64>(), 0..40),
            square in any::<bool>(),
            poke_at in any::<u64>(),
            poke in any::<u8>(),
        ) {
            let (mut days, mut object_ids) = (days, object_ids);
            if few_days {
                days.iter_mut().for_each(|d| *d %= 3);
                days.sort_unstable();
            }
            for id in &mut object_ids {
                *id = match id_range {
                    0 => *id & 0xff,
                    1 => *id & 0xffff,
                    2 => *id,
                    _ => if *id % 2 == 0 { UNKNOWN_OBJECT } else { *id & 0xff },
                };
            }
            let mut cols = EventColumns {
                days,
                object_ids,
                kinds: reads
                    .iter()
                    .map(|&read| if read { AccessKind::Read } else { AccessKind::Write })
                    .collect(),
                volumes: volume_bits.into_iter().map(f64::from_bits).collect(),
            };
            if square {
                cols = cols.range(0..cols.usable_prefix().0);
            }
            let enc = block(&cols);
            let fixed_width = 16
                + 4 * (cols.days.len() + cols.object_ids.len())
                + cols.kinds.len()
                + 8 * cols.volumes.len();
            prop_assert!(enc.len() <= fixed_width, "{} > {fixed_width}", enc.len());
            let decoded = decoder_contract(&enc)?;
            prop_assert!(decoded.is_some(), "a block did not decode");
            if let Some(decoded) = decoded {
                assert_same(&decoded, &cols);
            }
            let mut poked = enc.clone();
            let at = (poke_at % poked.len() as u64) as usize;
            poked[at] = poke;
            decoder_contract(&poked)?;
        }

        /// A hostile header — any four words, or small lengths under any
        /// coding bits — over a short body: refused or decoded, never a
        /// panic, never more than eight bytes allocated per block byte.
        #[test]
        fn hostile_headers_never_allocate_past_eight_bytes_per_block_byte(
            words in proptest::collection::vec(any::<u32>(), 4),
            small in any::<bool>(),
            body in proptest::collection::vec(0u8..3, 0..64),
        ) {
            let mut bytes = Vec::new();
            for &word in &words {
                let word = if small { word & 0xC000_0007 } else { word };
                bytes.extend_from_slice(&word.to_le_bytes());
            }
            bytes.extend_from_slice(&body);
            decoder_contract(&bytes)?;
        }
    }

    #[test]
    fn records_round_trip_and_chain() {
        let a = encode_record(3, &batch(4));
        let b = encode_record(4, &batch(0));
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        let FrameOutcome::Valid { record, next } = decode_frame(&stream, 0) else {
            panic!("first frame invalid");
        };
        assert_eq!(record.seq, 3);
        assert_eq!(record.batch().unwrap().len(), 4);
        assert_eq!(next, a.len());
        let FrameOutcome::Valid { record, next } = decode_frame(&stream, next) else {
            panic!("second frame invalid");
        };
        assert_eq!(record.seq, 4);
        assert_eq!(record.batch().unwrap().len(), 0);
        assert_eq!(next, stream.len());
    }

    #[test]
    fn epoch_records_round_trip_and_chain_with_batches() {
        let a = encode_record(11, &batch(2));
        let b = encode_epoch_record(5, 42);
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        let FrameOutcome::Valid { next, .. } = decode_frame(&stream, 0) else {
            panic!("batch frame invalid");
        };
        let FrameOutcome::Valid { record, next } = decode_frame(&stream, next) else {
            panic!("epoch frame invalid");
        };
        assert_eq!(record.seq, 5);
        assert_eq!(record.payload, RecordPayload::Epoch { day: 42 });
        assert!(record.batch().is_none());
        assert_eq!(next, stream.len());
        // Every single-bit flip in an epoch frame is detected too.
        for byte in 0..b.len() {
            for bit in 0..8 {
                let mut bad = b.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    !matches!(decode_frame(&bad, 0), FrameOutcome::Valid { .. }),
                    "flip at byte {byte} bit {bit} decoded as valid"
                );
            }
        }
    }

    #[test]
    fn every_single_bit_flip_in_a_frame_is_detected() {
        let enc = encode_record(9, &batch(3));
        for byte in 0..enc.len() {
            for bit in 0..8 {
                let mut bad = enc.clone();
                bad[byte] ^= 1 << bit;
                match decode_frame(&bad, 0) {
                    FrameOutcome::Valid { record, .. } => {
                        // A flip in the length field is caught by span, a
                        // flip in the checksum field or the body by the
                        // checksum: XXH64 avalanches, so a single flip
                        // passes its low 32 bits with probability 2⁻³²,
                        // and none of these does. Nothing may decode as
                        // valid.
                        panic!("flip at byte {byte} bit {bit} decoded as {record:?}");
                    }
                    FrameOutcome::Overrun { .. } | FrameOutcome::Invalid { .. } => {}
                }
            }
        }
    }

    #[test]
    fn torn_prefixes_report_overrun() {
        let enc = encode_record(1, &batch(6));
        for cut in 0..enc.len() {
            match decode_frame(&enc[..cut], 0) {
                FrameOutcome::Valid { .. } => panic!("cut {cut} decoded as valid"),
                FrameOutcome::Overrun { .. } => {}
                FrameOutcome::Invalid { kind } => {
                    panic!("cut {cut} classified as interior corruption: {kind}")
                }
            }
        }
    }

    fn checkpoint_frame(kind: FrameKind) -> CheckpointFrame {
        CheckpointFrame {
            kind,
            replay_from: 7,
            deliveries: 1234,
            marker: 99,
            digest: StaticDigest {
                objects: 12,
                len: 345,
                xxh64: 0xfeed_f00d_dead_beef,
            },
            state: (0u8..200).collect(),
        }
    }

    const KINDS: [FrameKind; 2] = [FrameKind::Full, FrameKind::Dynamic];

    fn decode_error(bytes: &[u8]) -> String {
        match CheckpointFrame::decode("ckpt", bytes) {
            Err(WalError::Checkpoint { object, reason }) => {
                assert_eq!(object, "ckpt");
                reason
            }
            other => panic!("not a checkpoint error: {other:?}"),
        }
    }

    /// Rewrite the trailer of `enc` to match its (edited) body, so that
    /// the checksum is not the check that fires.
    fn reseal(enc: &mut [u8]) {
        let body = enc.len() - 8;
        let sum = xxh64(&enc[..body]);
        enc[body..].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn checkpoint_frames_round_trip_and_self_check() {
        for kind in KINDS {
            let frame = checkpoint_frame(kind);
            let enc = frame.encode();
            assert_eq!(CheckpointFrame::decode("ckpt", &enc).unwrap(), frame);
            for byte in 0..enc.len() {
                for bit in 0..8 {
                    let mut bad = enc.clone();
                    bad[byte] ^= 1 << bit;
                    decode_error(&bad);
                }
            }
            for cut in 0..enc.len() {
                decode_error(&enc[..cut]);
            }
            // An empty state is still a whole frame.
            let empty = CheckpointFrame {
                state: Vec::new(),
                ..frame
            };
            assert_eq!(
                CheckpointFrame::decode("ckpt", &empty.encode()).unwrap(),
                empty
            );
        }
    }

    #[test]
    fn encode_with_replaces_the_buffer_and_equals_encode() {
        for kind in KINDS {
            let frame = checkpoint_frame(kind);
            let mut buf = vec![0xAA; 1000];
            frame.encode_with(&mut buf, |out| {
                // The state may be appended piecewise.
                out.extend_from_slice(&frame.state[..50]);
                out.extend_from_slice(&frame.state[50..]);
            });
            assert_eq!(buf, frame.encode());
        }
    }

    #[test]
    fn other_frame_versions_are_rejected_as_unsupported() {
        // Re-checksummed, so the version check is the only one that can
        // fire. Version 1 was the CRC-32-trailer layout, version 2 the
        // one without a kind or a digest.
        for version in [0u32, 1, 2, 4, 99] {
            let mut enc = checkpoint_frame(FrameKind::Full).encode();
            enc[4..8].copy_from_slice(&version.to_le_bytes());
            reseal(&mut enc);
            let reason = decode_error(&enc);
            assert!(
                reason.starts_with(&format!("unsupported version {version} ")),
                "{reason}"
            );
        }
        for kind in [0u8, 3, 0xff] {
            let mut enc = checkpoint_frame(FrameKind::Dynamic).encode();
            enc[8] = kind;
            reseal(&mut enc);
            assert_eq!(decode_error(&enc), format!("unknown frame kind {kind}"));
        }
        let mut magic = checkpoint_frame(FrameKind::Full).encode();
        magic[0] = b'X';
        assert_eq!(decode_error(&magic), "bad magic");
    }

    /// The bytes of a version-3 frame of `kind` around "engine snapshot",
    /// spelled out field by field.
    fn golden_v3(kind: u8, trailer: [u8; 8]) -> Vec<u8> {
        let mut golden = Vec::new();
        golden.extend_from_slice(b"WCKP");
        golden.extend_from_slice(&[3, 0, 0, 0]);
        golden.push(kind);
        golden.extend_from_slice(&[3, 0, 0, 0, 0, 0, 0, 0]);
        golden.extend_from_slice(&[4, 3, 2, 1, 0, 0, 0, 0]);
        golden.extend_from_slice(&[0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF]);
        golden.extend_from_slice(&[2, 0, 0, 0, 0, 0, 0, 0]);
        golden.extend_from_slice(&[0x42, 0, 0, 0, 0, 0, 0, 0]);
        golden.extend_from_slice(&[0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01]);
        golden.extend_from_slice(&[15, 0, 0, 0, 0, 0, 0, 0]);
        golden.extend_from_slice(b"engine snapshot");
        golden.extend_from_slice(&trailer);
        golden
    }

    #[test]
    fn the_version_3_layout_is_pinned_by_a_golden_frame_of_each_kind() {
        for (kind, tag, trailer) in [
            (FrameKind::Full, 1, GOLDEN_FULL_TRAILER),
            (FrameKind::Dynamic, 2, GOLDEN_DYNAMIC_TRAILER),
        ] {
            let frame = CheckpointFrame {
                kind,
                replay_from: 3,
                deliveries: 0x0102_0304,
                marker: u64::MAX - 1,
                digest: StaticDigest {
                    objects: 2,
                    len: 0x42,
                    xxh64: 0x0123_4567_89AB_CDEF,
                },
                state: b"engine snapshot".to_vec(),
            };
            let golden = golden_v3(tag, trailer);
            assert_eq!(frame.encode(), golden);
            assert_eq!(CheckpointFrame::decode("ckpt", &golden).unwrap(), frame);
        }
    }

    /// XXH64 of each golden frame's first 80 bytes, little-endian. A
    /// layout change must bump `CHECKPOINT_FRAME_VERSION` and replace the
    /// golden bytes on purpose.
    const GOLDEN_FULL_TRAILER: [u8; 8] = [0x05, 0x4C, 0xED, 0xD7, 0x47, 0x69, 0x8B, 0x08];
    const GOLDEN_DYNAMIC_TRAILER: [u8; 8] = [0xA6, 0x2D, 0x5E, 0xC5, 0xFA, 0x37, 0x4E, 0x6A];

    #[test]
    fn the_version_2_layout_is_pinned_by_a_golden_frame() {
        // The retired layout's fixture, byte for byte as version 2 wrote
        // it (shorter than a version-3 header): kept to be refused by
        // name, not misread.
        let mut retired = Vec::new();
        retired.extend_from_slice(b"WCKP");
        retired.extend_from_slice(&[2, 0, 0, 0]);
        retired.extend_from_slice(&[3, 0, 0, 0, 0, 0, 0, 0]);
        retired.extend_from_slice(&[4, 3, 2, 1, 0, 0, 0, 0]);
        retired.extend_from_slice(&[0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF]);
        retired.extend_from_slice(&[15, 0, 0, 0, 0, 0, 0, 0]);
        retired.extend_from_slice(b"engine snapshot");
        retired.extend_from_slice(&[0x25, 0xAA, 0x72, 0xC7, 0xA3, 0x97, 0x68, 0x6F]);
        assert_eq!(xxh64(&retired[..55]).to_le_bytes(), retired[55..]);
        let reason = decode_error(&retired);
        assert!(reason.starts_with("unsupported version 2 "), "{reason}");
    }
}
