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
//! ## Wire layout (version 2)
//!
//! ```text
//! magic   b"SCPK"                      (4 bytes)
//! version u32 little-endian            (currently 2)
//! payload                              (engine state, see below)
//! checksum u64 little-endian           (XXH64, seed 0, over magic..payload)
//! ```
//!
//! Everything is little-endian. `f64`s are stored as their raw IEEE-754
//! bits (so NaN payloads and signed zeros round-trip exactly); strings are
//! length-prefixed UTF-8. The payload leads with a **fingerprint**: an
//! XXH64 digest of the tier catalog and compression-scheme list the
//! checkpoint was taken under. [`crate::ServeEngine::restore`] recomputes
//! the fingerprint from the catalog/schemes it is given and rejects a
//! mismatch with [`crate::ServeError::Checkpoint`] — restoring placements
//! against different prices would silently corrupt every later re-solve.
//!
//! The checksum is [`scope_wal::xxh64()`], the workspace's one bulk
//! digest (the journal's checkpoint frame uses it too): a snapshot is
//! taken at every epoch boundary, so it has to cost what its bytes cost.
//! Version 1 (FNV-1a digests in the same two positions) is rejected as
//! an unsupported version.
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

/// Magic bytes every checkpoint leads with.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"SCPK";

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Little-endian byte writer that appends to a caller's buffer.
pub(crate) struct Writer<'a> {
    buf: &'a mut Vec<u8>,
    /// Where this writer's output starts in `buf`.
    start: usize,
}

impl<'a> Writer<'a> {
    /// Start a checkpoint after whatever `buf` already holds: magic and
    /// version, then the caller's payload, then [`Writer::finish`].
    pub(crate) fn new(buf: &'a mut Vec<u8>) -> Self {
        let mut w = Writer::bare(buf);
        w.buf.extend_from_slice(&CHECKPOINT_MAGIC);
        w.u32(CHECKPOINT_VERSION);
        w
    }

    /// A writer with no header, for digesting a value's encoding.
    fn bare(buf: &'a mut Vec<u8>) -> Self {
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
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
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
    /// Validate magic, version and checksum; return a reader positioned at
    /// the start of the payload (the checksum trailer is excluded).
    pub(crate) fn open(bytes: &'a [u8]) -> Result<Self, ServeError> {
        let header = CHECKPOINT_MAGIC.len() + 4;
        if bytes.len() < header + 8 {
            return Err(ServeError::Checkpoint(format!(
                "too short: {} bytes cannot hold a header and checksum",
                bytes.len()
            )));
        }
        if bytes[..4] != CHECKPOINT_MAGIC {
            return Err(ServeError::Checkpoint(
                "bad magic: not a serve checkpoint".into(),
            ));
        }
        let mut reader = Reader {
            bytes: &bytes[..bytes.len() - 8],
            pos: CHECKPOINT_MAGIC.len(),
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

    fn take(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        if self.pos + n > self.bytes.len() {
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
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ServeError::Checkpoint("string is not valid UTF-8".into()))
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
        let mut w = Writer::new(&mut bytes);
        payload(&mut w);
        w.finish();
        bytes
    }

    fn open_error(bytes: &[u8]) -> String {
        match Reader::open(bytes) {
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

        let mut r = Reader::open(&bytes).unwrap();
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
                Reader::open(&good[..cut]),
                Err(ServeError::Checkpoint(_))
            ));
        }

        // Wrong magic.
        let mut magic = good.clone();
        magic[0] = b'X';
        assert!(open_error(&magic).contains("bad magic"));

        // Unknown versions — 1, the retired FNV-1a layout, among them —
        // re-checksummed so the version check is the only one that can
        // fire.
        for version in [0u8, 1, 3, 99] {
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
        let mut r = Reader::open(&huge).unwrap();
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
