//! Frame and payload encoding: the journal's on-disk record format,
//! which doubles as the wire format for fleet-scale intake.
//!
//! # Record framing
//!
//! Every journal record is one self-checking frame:
//!
//! ```text
//! len: u32 LE      bytes after the 8-byte (len, crc) header
//! crc: u32 LE      CRC-32 of everything after the header
//! kind: u8         RECORD_BATCH = 1 | RECORD_EPOCH = 2
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
//! checksum mismatch, an unknown kind, or an undecodable payload — each
//! a distinct [`CorruptKind`](crate::CorruptKind).
//!
//! # Batch payload (the wire format)
//!
//! An [`EventColumns`] batch is encoded column-wise, little-endian:
//!
//! ```text
//! n: u32 LE
//! days:       n × u32
//! periods:    n × u32
//! object_ids: n × u32
//! kinds:      n × u8    (0 = Read, 1 = Write)
//! volumes:    n × u64   (f64 bit patterns, so NaN corruption survives
//!                        the round trip for the validating intake to
//!                        quarantine)
//! ```
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
//! Snapshots are megabytes long, so the trailer is the bulk checksum
//! ([`crate::xxh64`]) rather than the record frames' CRC-32. Version 1
//! (a `u32` CRC-32 trailer) and version 2 (no kind, no digest: every
//! frame was a full one) are rejected as unsupported versions; any layout
//! change bumps the version again, and golden fixtures in this module's
//! tests make that a deliberate act.

use crate::crc::crc32;
use crate::error::{CorruptKind, WalError};
use crate::xxh64::xxh64;
use scope_cloudsim::{AccessKind, EventColumns};

/// Record kind: one delivered `EventColumns` batch.
pub const RECORD_BATCH: u8 = 1;

/// Record kind: an epoch-boundary marker (see the module docs).
pub const RECORD_EPOCH: u8 = 2;

/// Frame header size: `len` + `crc`.
pub const FRAME_HEADER_LEN: usize = 8;

/// Body bytes before the payload: `kind` + `seq`.
pub const FRAME_BODY_MIN: usize = 9;

/// Sanity cap on a single frame's body, far above any real batch — a
/// corrupted length field almost always lands outside `[FRAME_BODY_MIN,
/// MAX_FRAME_BODY]` or past the segment end, so garbage lengths are
/// caught before the checksum is even consulted.
pub const MAX_FRAME_BODY: u32 = 64 << 20;

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

/// Bytes per event in the batch payload: three `u32` columns, the kind
/// byte and the `u64` volume bits.
const EVENT_BYTES: usize = 21;

/// Start a frame in `out`, replacing what it held: a zeroed `(len, crc)`
/// header, then `kind` and `seq`. The payload is appended after this and
/// [`seal_frame`] fills the header in.
fn begin_frame(out: &mut Vec<u8>, kind: u8, seq: u64) {
    out.clear();
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    out.push(kind);
    out.extend_from_slice(&seq.to_le_bytes());
}

/// Write the length and the CRC of the body into a begun frame's header.
fn seal_frame(frame: &mut [u8]) {
    let body_len = (frame.len() - FRAME_HEADER_LEN) as u32;
    frame[0..4].copy_from_slice(&body_len.to_le_bytes());
    let crc = crc32(&frame[FRAME_HEADER_LEN..]);
    frame[4..8].copy_from_slice(&crc.to_le_bytes());
}

/// Frame a batch delivery into `out`, replacing what it held: header,
/// columns and CRC all land in that one buffer, which a caller that
/// frames many batches keeps and reuses.
pub(crate) fn encode_record_into(out: &mut Vec<u8>, seq: u64, columns: &EventColumns) {
    begin_frame(out, RECORD_BATCH, seq);
    append_columns(out, columns);
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
    let mut out =
        Vec::with_capacity(FRAME_HEADER_LEN + FRAME_BODY_MIN + 4 + columns.len() * EVENT_BYTES);
    encode_record_into(&mut out, seq, columns);
    out
}

/// Encode an epoch-boundary marker as one framed record.
pub fn encode_epoch_record(seq: u64, day: u32) -> Vec<u8> {
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
    let crc = read_u32(bytes, offset + 4);
    let body = &bytes[offset + FRAME_HEADER_LEN..offset + FRAME_HEADER_LEN + body_len];
    if crc32(body) != crc {
        return FrameOutcome::Invalid {
            kind: CorruptKind::Checksum,
        };
    }
    let seq = read_u64(body, 1);
    let next = offset + FRAME_HEADER_LEN + body_len;
    let payload = &body[FRAME_BODY_MIN..];
    match body[0] {
        RECORD_BATCH => match decode_columns(payload) {
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
        _ => FrameOutcome::Invalid {
            kind: CorruptKind::Kind,
        },
    }
}

/// Encode an `EventColumns` batch column-wise (see the module docs).
pub fn encode_columns(columns: &EventColumns) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + columns.len() * EVENT_BYTES);
    append_columns(&mut out, columns);
    out
}

/// Fill the front of `dst` with `src`, `W` little-endian bytes per
/// element, and return what is left of `dst`.
fn fill_le<'a, T: Copy, const W: usize>(
    dst: &'a mut [u8],
    src: &[T],
    le: impl Fn(T) -> [u8; W],
) -> &'a mut [u8] {
    let (column, rest) = dst.split_at_mut(src.len() * W);
    for (slot, &value) in column.chunks_exact_mut(W).zip(src) {
        slot.copy_from_slice(&le(value));
    }
    rest
}

/// Append the column block of `columns` to `out`: the buffer grows once
/// to the block's size and each column is written as one run. Every
/// column goes out at its own length — the fields are public, and a
/// ragged batch must frame to bytes that fail [`decode_columns`], not to
/// a silently squared-off one.
fn append_columns(out: &mut Vec<u8>, columns: &EventColumns) {
    let block = 4
        + 4 * (columns.days.len() + columns.periods.len() + columns.object_ids.len())
        + columns.kinds.len()
        + 8 * columns.volumes.len();
    let start = out.len();
    out.resize(start + block, 0);
    let dst = &mut out[start..];
    dst[..4].copy_from_slice(&(columns.len() as u32).to_le_bytes());
    let dst = fill_le(&mut dst[4..], &columns.days, u32::to_le_bytes);
    let dst = fill_le(dst, &columns.periods, u32::to_le_bytes);
    let dst = fill_le(dst, &columns.object_ids, u32::to_le_bytes);
    let dst = fill_le(dst, &columns.kinds, |k| match k {
        AccessKind::Read => [0u8],
        AccessKind::Write => [1u8],
    });
    fill_le(dst, &columns.volumes, |v: f64| v.to_bits().to_le_bytes());
}

/// Decode an `EventColumns` batch; `None` when `bytes` is not exactly
/// one well-formed column block.
pub fn decode_columns(bytes: &[u8]) -> Option<EventColumns> {
    if bytes.len() < 4 {
        return None;
    }
    let n = read_u32(bytes, 0) as usize;
    if n.checked_mul(EVENT_BYTES)?.checked_add(4)? != bytes.len() {
        return None;
    }
    // `n` is validated against the input length, so it bounds every
    // allocation below.
    let (days, rest) = bytes[4..].split_at(4 * n);
    let (periods, rest) = rest.split_at(4 * n);
    let (object_ids, rest) = rest.split_at(4 * n);
    let (kinds, volumes) = rest.split_at(n);
    let u32s =
        |column: &[u8]| -> Vec<u32> { column.chunks_exact(4).map(|w| read_u32(w, 0)).collect() };
    let mut kind_column = Vec::with_capacity(n);
    for &k in kinds {
        kind_column.push(match k {
            0 => AccessKind::Read,
            1 => AccessKind::Write,
            _ => return None,
        });
    }
    Some(EventColumns {
        days: u32s(days),
        periods: u32s(periods),
        object_ids: u32s(object_ids),
        kinds: kind_column,
        volumes: volumes
            .chunks_exact(8)
            .map(|w| f64::from_bits(read_u64(w, 0)))
            .collect(),
    })
}

// ---------------------------------------------------------------------------
// Checkpoint frame
// ---------------------------------------------------------------------------

/// Magic prefix of a checkpoint object.
pub const CHECKPOINT_MAGIC: &[u8; 4] = b"WCKP";

/// Checkpoint frame version.
pub const CHECKPOINT_FRAME_VERSION: u32 = 3;

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

    #[test]
    fn columns_round_trip_bit_for_bit_including_nan() {
        for n in [0usize, 1, 7, 100] {
            let cols = batch(n);
            let decoded = decode_columns(&encode_columns(&cols)).unwrap();
            assert_eq!(decoded.days, cols.days);
            assert_eq!(decoded.periods, cols.periods);
            assert_eq!(decoded.object_ids, cols.object_ids);
            assert_eq!(decoded.kinds, cols.kinds);
            assert_eq!(bits(&decoded), bits(&cols));
        }
    }

    #[test]
    fn truncated_or_padded_payloads_are_rejected() {
        let enc = encode_columns(&batch(5));
        assert!(decode_columns(&enc[..enc.len() - 1]).is_none());
        let mut padded = enc.clone();
        padded.push(0);
        assert!(decode_columns(&padded).is_none());
        assert!(decode_columns(&[]).is_none());
        // A kind byte outside {0, 1} is payload corruption.
        let mut bad_kind = enc;
        bad_kind[4 + 5 * 12] = 7;
        assert!(decode_columns(&bad_kind).is_none());
        // A ragged batch is encoded as it stands, and so fails to decode.
        let mut ragged = batch(5);
        ragged.volumes.pop();
        let enc = encode_columns(&ragged);
        assert_eq!(enc.len(), 4 + 5 * 21 - 8);
        assert!(decode_columns(&enc).is_none());
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
                        // A flip in the volume columns may still checksum
                        // only if... it cannot: CRC covers the body and the
                        // length field is validated by span. Nothing may
                        // decode as valid.
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
