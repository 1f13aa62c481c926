//! Versioned, checksummed checkpoint format for [`crate::ServeEngine`].
//!
//! A checkpoint captures **all** of an engine's dynamic state — interned
//! objects, applied placements, heat counters, per-shard degraded-mode
//! state (failures, backoff, incumbent assignment, dirty worklist), the
//! quarantine ledger, and the sequenced-intake reorder buffer — such that
//! a crash-restarted engine restored from the checkpoint and replayed
//! forward over the surviving event stream is **bit-for-bit** equal to an
//! engine that never crashed (the chaos differential suites compare the
//! two engines' subsequent checkpoints byte-for-byte). The only state not
//! captured is the dense cost table: it is a pure cache, and a cold
//! rebuild is pinned bit-identical to the warm patched table, so the first
//! post-restore epoch re-derives it (reported `rows_patched` is the one
//! counter allowed to differ).
//!
//! ## Wire layout (version 3)
//!
//! ```text
//! magic   b"SCPK"                      (4 bytes)
//! version u32 little-endian            (currently 3)
//! payload                              (engine state, see below)
//! checksum u64 little-endian           (XXH64, seed 0, over magic..payload)
//! ```
//!
//! Everything is little-endian. `f64`s are stored as their raw IEEE-754
//! bits (so NaN payloads and signed zeros round-trip exactly); strings are
//! UTF-8 behind a `u64` length. The payload, in order:
//!
//! ```text
//! fingerprint   u64   XXH64 of the tier catalog and scheme list
//! config        horizon_days u32, horizon_months f64, decay_per_day f64,
//!               bucket_base f64, bucket_hysteresis f64,
//!               node_budget: tag u8 (0 none | 1 some) [+ u64]
//! counters      day u32, dropped_events u64, events_seen u64, epoch u64,
//!               next_seq u64, duplicate_batches u64
//! accounts      count u64, then each name (string), in shard order
//! objects       count u64 (N)
//! static        byte length u64, then N records in interned-id order:
//!               name (string), shard u32, size_gb f64, residency_days u32,
//!               latency_threshold_seconds f64
//! dynamic       five columns of N cells each, in interned-id order:
//!               tier (W_t bytes), scheme (W_s bytes), bucket
//!               representative f64, heat f64, last_day u32
//! shards        per shard, in order: failures u32, retry_after u32,
//!               stale u8 (0 | 1), dirty count u64 + rows u32 each,
//!               incumbent: tag u8 (0 none | 1 some)
//!               [+ objective f64, storage, read, write, decompression,
//!               egress f64]
//! quarantine    capacity u64, total u64, truncated u64, count u64, then
//!               per entry ordinal u64, day u32, object_id u32,
//!               volume bits u64, reason u8
//! pending       count u64, then per buffered batch: seq u64 and its five
//!               columns, each a count u64 and its cells (days u32,
//!               periods u32, object_ids u32, kinds u8, volumes f64)
//! ```
//!
//! The **static section** holds what cannot change once an object is
//! registered. The engine keeps it encoded — appended to by `register`,
//! never invalidated — and every snapshot copies it in one piece; a
//! restore re-registers the objects from it and rejects a section that
//! does not re-encode to the same bytes. The **dynamic columns** are what
//! an epoch can change (every heat cell decays at every boundary), each
//! written as one tight array. Tier and scheme ids take the narrowest of
//! 1, 2, 4 or 8 bytes that holds every id of the catalog (`W_t`) and of
//! the scheme list (`W_s`) the checkpoint was taken under — both are
//! pinned by the fingerprint, so the widths are not stored and an id can
//! never be truncated. The **incumbent** of a shard is the objective and
//! breakdown its last healthy re-solve summed to; its choices are the
//! applied placements of the tier and scheme columns (only a healthy
//! re-solve changes either, and it changes both), so they are not written
//! a second time. `ServeConfig::threads` is not part of a snapshot: it
//! cannot change a result, and a restored engine decides its own fan-out.
//!
//! The payload leads with the **fingerprint**.
//! [`crate::ServeEngine::restore`] recomputes it from the catalog/schemes
//! it is given and rejects a mismatch with
//! [`crate::ServeError::Checkpoint`] — restoring placements against
//! different prices would silently corrupt every later re-solve.
//!
//! The checksum is [`scope_wal::xxh64()`], the workspace's one bulk
//! digest (the journal's checkpoint frame uses it too): a snapshot is
//! taken at every epoch boundary, so it has to cost what its bytes cost.
//! Version 1 (FNV-1a digests) and version 2 (one interleaved record per
//! object with `u64` tier and scheme ids, the configured thread count,
//! and each shard's incumbent choices spelled out beside the applied
//! ones) are rejected as unsupported versions.
//!
//! ## The dynamic snapshot (`SCPD`, same version)
//!
//! A durable checkpoint taken every epoch should cost what the epoch
//! changed. The static section is two thirds of a snapshot and can only
//! ever be appended to, so [`crate::ServeEngine::checkpoint_dynamic`]
//! writes the layout above **with one substitution** under its own magic:
//!
//! ```text
//! magic   b"SCPD"
//! version u32                          (the full layout's: they change together)
//! payload fingerprint … objects count  as above
//!         static digest                byte length u64, XXH64 u64 of the
//!                                      static section — not its bytes
//!         dynamic … pending            as above
//! checksum u64                         (XXH64 over magic..payload)
//! ```
//!
//! The **static digest** — object count, static-section length, and its
//! XXH64 — names the section the snapshot was taken over. The engine
//! computes the hash when first asked and forgets it only when `register`
//! appends, so a steady fleet hashes its static section once.
//!
//! Which restore takes what: [`crate::ServeEngine::restore`] takes a full
//! snapshot and nothing else. [`crate::ServeEngine::restore_dynamic`]
//! takes the **static section from a full snapshot** — any one of the same
//! objects, however old; everything else in it is ignored — and
//! **everything else from a dynamic snapshot**, after checking that the
//! full one's section is the one the digest names (count, length, hash)
//! and, as every restore does, that it re-encodes to itself. A mismatch —
//! objects were registered in between — is a typed error; so is either
//! kind offered in the other's place (the magics differ). There is no
//! chain: a dynamic snapshot never depends on another dynamic snapshot.
//!
//! ## Versioning rules
//!
//! The version is bumped on **any** layout change; readers reject versions
//! they do not know (no silent best-effort decodes). Corruption anywhere —
//! flipped bits, truncation, trailing garbage — fails the checksum or a
//! bounds check and surfaces as a typed error, never a panic.

use scope_cloudsim::TierCatalog;
use scope_optassign::CompressionOption;
use scope_wal::xxh64;

use crate::error::ServeError;

/// Magic bytes every (full) checkpoint leads with.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"SCPK";

/// Magic bytes every dynamic snapshot leads with.
pub const DYNAMIC_MAGIC: [u8; 4] = *b"SCPD";

/// Current checkpoint format version, of both layouts: the dynamic one is
/// the full one less a section, so they change together.
pub const CHECKPOINT_VERSION: u32 = 3;

/// Little-endian byte writer that appends to a caller's buffer.
pub(crate) struct Writer<'a> {
    buf: &'a mut Vec<u8>,
    /// Where this writer's output starts in `buf`.
    start: usize,
}

impl<'a> Writer<'a> {
    /// Start a checkpoint after whatever `buf` already holds: `magic` and
    /// version, then the caller's payload, then [`Writer::finish`].
    pub(crate) fn new(buf: &'a mut Vec<u8>, magic: [u8; 4]) -> Self {
        let mut w = Writer::bare(buf);
        w.buf.extend_from_slice(&magic);
        w.u32(CHECKPOINT_VERSION);
        w
    }

    /// A writer with no header: for digesting a value's encoding, or for
    /// appending to the engine's pre-encoded static section.
    pub(crate) fn bare(buf: &'a mut Vec<u8>) -> Self {
        let start = buf.len();
        Writer { buf, start }
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// A length-prefixed run of already-encoded bytes.
    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Append `len` zero bytes and hand them out to be filled in place
    /// (a block of fixed-width columns).
    pub(crate) fn zeroed(&mut self, len: usize) -> &mut [u8] {
        let at = self.buf.len();
        self.buf.resize(at + len, 0);
        &mut self.buf[at..]
    }

    /// Digest of everything written through this writer.
    fn digest(&self) -> u64 {
        xxh64(&self.buf[self.start..])
    }

    /// Append the trailing checksum, completing the checkpoint.
    pub(crate) fn finish(mut self) {
        let checksum = self.digest();
        self.u64(checksum);
    }
}

/// Bounds-checked little-endian reader over a checkpoint payload.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Validate `magic`, version and checksum; return a reader positioned
    /// at the start of the payload (the checksum trailer is excluded).
    pub(crate) fn open(bytes: &'a [u8], magic: [u8; 4]) -> Result<Self, ServeError> {
        let header = magic.len() + 4;
        if bytes.len() < header + 8 {
            return Err(ServeError::Checkpoint(format!(
                "too short: {} bytes cannot hold a header and checksum",
                bytes.len()
            )));
        }
        if bytes[..4] != magic {
            return Err(ServeError::Checkpoint(format!(
                "bad magic: not a serve `{}` snapshot",
                String::from_utf8_lossy(&magic)
            )));
        }
        let mut reader = Reader {
            bytes: &bytes[..bytes.len() - 8],
            pos: magic.len(),
        };
        // The version names the layout, checksum algorithm included, so
        // it is judged first: an older snapshot is "unsupported", not
        // "corrupt".
        let version = reader.u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(ServeError::Checkpoint(format!(
                "unsupported version {version} (this build reads {CHECKPOINT_VERSION})"
            )));
        }
        let mut trailer = [0u8; 8];
        trailer.copy_from_slice(&bytes[bytes.len() - 8..]);
        let stored = u64::from_le_bytes(trailer);
        let actual = xxh64(reader.bytes);
        if stored != actual {
            return Err(ServeError::Checkpoint(format!(
                "checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
            )));
        }
        Ok(reader)
    }

    /// A reader over bare bytes (no header, no checksum): a section a
    /// checked reader handed out.
    pub(crate) fn over(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// The next `n` bytes, whatever they encode.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        if n > self.bytes.len() - self.pos {
            return Err(ServeError::Checkpoint(format!(
                "truncated payload: wanted {n} bytes at offset {}, only {} remain",
                self.pos,
                self.bytes.len() - self.pos
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, ServeError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, ServeError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, ServeError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    pub(crate) fn f64_bits(&mut self) -> Result<f64, ServeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length that will index a Vec: rejects anything that cannot even
    /// fit in the remaining payload, so a corrupt length cannot trigger a
    /// huge allocation.
    pub(crate) fn len(&mut self, elem_bytes: usize) -> Result<usize, ServeError> {
        let n = self.u64()?;
        let remaining = (self.bytes.len() - self.pos) as u64;
        if n.saturating_mul(elem_bytes.max(1) as u64) > remaining {
            return Err(ServeError::Checkpoint(format!(
                "implausible length {n} at offset {}: only {remaining} payload bytes remain",
                self.pos
            )));
        }
        Ok(n as usize)
    }

    pub(crate) fn str(&mut self) -> Result<String, ServeError> {
        String::from_utf8(self.bytes()?.to_vec())
            .map_err(|_| ServeError::Checkpoint("string is not valid UTF-8".into()))
    }

    /// A length-prefixed run of bytes (see [`Writer::bytes`]).
    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], ServeError> {
        let n = self.len(1)?;
        self.take(n)
    }

    /// Error unless the payload was consumed exactly.
    pub(crate) fn expect_end(&self) -> Result<(), ServeError> {
        if self.pos != self.bytes.len() {
            return Err(ServeError::Checkpoint(format!(
                "{} trailing payload bytes after decode",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Bytes an id column cell takes when ids range over `0..count`: the
/// narrowest of 1, 2, 4 or 8 that holds `count - 1`.
pub(crate) fn id_width(count: usize) -> usize {
    match count.saturating_sub(1) as u64 {
        0..=0xff => 1,
        0x100..=0xffff => 2,
        0x1_0000..=0xffff_ffff => 4,
        _ => 8,
    }
}

/// Store `id` in a column cell of [`id_width`] bytes.
#[inline]
pub(crate) fn put_id(cell: &mut [u8], id: usize) {
    match cell {
        [byte] => *byte = id as u8,
        _ => cell.copy_from_slice(&(id as u64).to_le_bytes()[..cell.len()]),
    }
}

/// The id a column cell of up to 8 bytes holds.
pub(crate) fn get_id(cell: &[u8]) -> usize {
    let mut wide = [0u8; 8];
    wide[..cell.len()].copy_from_slice(cell);
    u64::from_le_bytes(wide) as usize
}

/// XXH64 fingerprint of the catalog + compression-scheme configuration a
/// checkpoint is only valid under. Covers every field that feeds pricing
/// or feasibility; restoring under a different configuration is rejected.
pub(crate) fn config_fingerprint(catalog: &TierCatalog, schemes: &[CompressionOption]) -> u64 {
    let mut encoded = Vec::new();
    let mut w = Writer::bare(&mut encoded);
    w.u64(catalog.len() as u64);
    for (_, tier) in catalog.iter() {
        w.str(&tier.name);
        w.f64_bits(tier.storage_cost_cents_per_gb_month);
        w.f64_bits(tier.read_cost_cents_per_gb);
        w.f64_bits(tier.write_cost_cents_per_gb);
        w.f64_bits(tier.ttfb_seconds);
        w.u32(tier.early_deletion_days);
        match tier.capacity_gb {
            None => w.u8(0),
            Some(cap) => {
                w.u8(1);
                w.f64_bits(cap);
            }
        }
    }
    w.f64_bits(catalog.compute_cost_cents_per_second);
    w.u64(schemes.len() as u64);
    for s in schemes {
        w.str(&s.name);
        w.f64_bits(s.ratio);
        w.f64_bits(s.decompress_seconds);
    }
    w.digest()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A finished checkpoint holding whatever `payload` writes.
    fn checkpoint_of(payload: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut w = Writer::new(&mut bytes, CHECKPOINT_MAGIC);
        payload(&mut w);
        w.finish();
        bytes
    }

    fn open_error(bytes: &[u8]) -> String {
        match Reader::open(bytes, CHECKPOINT_MAGIC) {
            Err(ServeError::Checkpoint(reason)) => reason,
            Err(other) => panic!("not a checkpoint error: {other:?}"),
            Ok(_) => panic!("opened"),
        }
    }

    #[test]
    fn writer_reader_round_trip_and_checksum() {
        let bytes = checkpoint_of(|w| {
            w.u8(7);
            w.u32(0xdead_beef);
            w.u64(u64::MAX - 3);
            w.f64_bits(-0.0);
            w.f64_bits(f64::NAN);
            w.str("héllo");
        });

        let mut r = Reader::open(&bytes, CHECKPOINT_MAGIC).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64_bits().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64_bits().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(r.str().unwrap(), "héllo");
        r.expect_end().unwrap();
    }

    #[test]
    fn corruption_truncation_and_bad_headers_are_typed_errors() {
        let good = checkpoint_of(|w| w.str("payload"));

        // Flip one payload bit: checksum must catch it.
        let mut flipped = good.clone();
        flipped[9] ^= 0x40;
        assert!(open_error(&flipped).contains("checksum mismatch"));

        // Truncation (drops the trailer or part of it).
        for cut in [0, 3, good.len() - 1] {
            assert!(matches!(
                Reader::open(&good[..cut], CHECKPOINT_MAGIC),
                Err(ServeError::Checkpoint(_))
            ));
        }

        // Wrong magic.
        let mut magic = good.clone();
        magic[0] = b'X';
        assert!(open_error(&magic).contains("bad magic"));

        // Unknown versions — 1, the retired FNV-1a layout, and 2, the
        // retired row-interleaved one, among them — re-checksummed so the
        // version check is the only one that can fire.
        for version in [0u8, 1, 2, 4, 99] {
            let mut vers = good.clone();
            vers[4] = version;
            let body_len = vers.len() - 8;
            let sum = xxh64(&vers[..body_len]).to_le_bytes();
            vers[body_len..].copy_from_slice(&sum);
            let reason = open_error(&vers);
            assert!(reason.contains("unsupported version"), "{reason}");
        }

        // A corrupt length cannot demand a giant allocation.
        let huge = checkpoint_of(|w| w.u64(u64::MAX));
        let mut r = Reader::open(&huge, CHECKPOINT_MAGIC).unwrap();
        assert!(matches!(r.len(8), Err(ServeError::Checkpoint(_))));
    }

    #[test]
    fn fingerprint_distinguishes_configurations() {
        let catalog = TierCatalog::azure_hot_cool_archive();
        let schemes = vec![
            CompressionOption::none(),
            CompressionOption::new("gzip", 3.5, 1.5),
        ];
        let base = config_fingerprint(&catalog, &schemes);
        assert_eq!(base, config_fingerprint(&catalog, &schemes));

        let fewer = vec![CompressionOption::none()];
        assert_ne!(base, config_fingerprint(&catalog, &fewer));

        let mut tweaked = schemes.clone();
        tweaked[1].ratio = 3.6;
        assert_ne!(base, config_fingerprint(&catalog, &tweaked));
    }
}
