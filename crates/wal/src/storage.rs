//! The storage abstraction the journal writes through, plus the
//! fault-injectable in-memory backend.
//!
//! [`Storage`] is a deliberately small flat-object API: named byte
//! objects with append, per-object durability barriers (`sync`), atomic
//! whole-object publish (`write_atomic`), delete (one object or a batch
//! under one barrier) and truncate. The
//! journal needs nothing else, and the surface is narrow enough that the
//! in-memory backend can model real crash semantics exactly:
//!
//! * [`MemStorage`] keeps a **durable** and a **pending** buffer per
//!   object. `append` lands in pending; `sync` promotes pending to
//!   durable; a [`MemStorage::crash`] drops everything pending — or, for
//!   torn-write experiments, [`MemStorage::crash_torn`] promotes an
//!   arbitrary prefix of one object's pending tail first, exactly what a
//!   power cut mid-write leaves behind.
//! * Bit flips and arbitrary corruption of *durable* bytes are applied
//!   through [`MemStorage::flip_durable_bit`] /
//!   [`MemStorage::corrupt_durable`], so the recovery tests decide
//!   *where* to corrupt — every retained object in turn, or wherever a
//!   proptest draws — while the mechanics live here.
//!
//! The real-file backend lives in [`crate::file`] and is the only place
//! in the workspace outside the analyzer allowed to touch `std::fs`
//! (enforced by the `fs-confinement` lint).

use crate::error::WalError;
use std::collections::BTreeMap;

/// Flat named-object storage with explicit durability.
pub trait Storage {
    /// All object names, sorted lexicographically.
    fn list(&self) -> Result<Vec<String>, WalError>;
    /// Full contents of `name` as this process would read them back
    /// (durable plus not-yet-synced bytes).
    fn read(&self, name: &str) -> Result<Vec<u8>, WalError>;
    /// Append `bytes` to `name`, creating it if absent. Appended bytes
    /// are *not* durable until [`Storage::sync`].
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError>;
    /// Durability barrier: everything appended to `name` so far survives
    /// a crash once this returns.
    fn sync(&mut self, name: &str) -> Result<(), WalError>;
    /// Atomically replace `name` with `bytes`: after a crash the object
    /// holds either its old contents or `bytes`, never a mixture.
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError>;
    /// Remove `name`.
    fn delete(&mut self, name: &str) -> Result<(), WalError>;
    /// Remove every object of `names`, in order, stopping at the first
    /// failure. One durability barrier may cover the whole batch (the
    /// file backend syncs its directory once), so after a crash **any
    /// subset** of the batch may still exist — callers order a batch so
    /// that no subset of it is unsafe to find.
    fn delete_many(&mut self, names: &[String]) -> Result<(), WalError> {
        names.iter().try_for_each(|name| self.delete(name))
    }
    /// Shrink `name` to its first `len` bytes (used by recovery to cut a
    /// torn or corrupt tail).
    fn truncate(&mut self, name: &str, len: u64) -> Result<(), WalError>;
}

/// In-memory [`Storage`] with explicit durable/pending buffers.
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    durable: BTreeMap<String, Vec<u8>>,
    pending: BTreeMap<String, Vec<u8>>,
}

impl MemStorage {
    /// An empty store.
    pub fn new() -> Self {
        MemStorage::default()
    }

    /// Names and sizes of objects with unsynced bytes, sorted by name.
    pub fn pending_objects(&self) -> Vec<(String, usize)> {
        self.pending
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(k, v)| (k.clone(), v.len()))
            .collect()
    }

    /// Names and durable sizes of all objects, sorted by name.
    pub fn durable_objects(&self) -> Vec<(String, usize)> {
        self.durable
            .iter()
            .map(|(k, v)| (k.clone(), v.len()))
            .collect()
    }

    /// Simulate a crash: every unsynced byte is lost.
    pub fn crash(&mut self) {
        self.pending.clear();
    }

    /// Simulate a torn write during a crash: the first `keep` pending
    /// bytes of `name` reach durable storage, the rest (and every other
    /// object's pending bytes) are lost. Call before [`MemStorage::crash`]
    /// semantics apply to the remainder — this method already drops the
    /// rest of `name`'s pending buffer but leaves other objects alone.
    pub fn crash_torn(&mut self, name: &str, keep: usize) {
        if let Some(mut tail) = self.pending.remove(name) {
            tail.truncate(keep);
            self.durable
                .entry(name.to_string())
                .or_default()
                .extend(tail);
        }
    }

    /// Mutate the durable bytes of `name` in place (bit rot, truncation,
    /// duplicated tails — whatever the harness wants). Returns `false`
    /// when the object has no durable bytes.
    pub fn corrupt_durable(&mut self, name: &str, f: impl FnOnce(&mut Vec<u8>)) -> bool {
        match self.durable.get_mut(name) {
            Some(bytes) if !bytes.is_empty() => {
                f(bytes);
                true
            }
            _ => false,
        }
    }

    /// Flip one bit of `name`'s durable contents. `bit` is taken modulo
    /// the object's bit length. Returns `false` for empty/missing
    /// objects.
    pub fn flip_durable_bit(&mut self, name: &str, bit: u64) -> bool {
        self.corrupt_durable(name, |bytes| {
            let b = (bit % (bytes.len() as u64 * 8)) as usize;
            bytes[b / 8] ^= 1 << (b % 8);
        })
    }

    /// Durable length of `name` (0 when absent).
    #[cfg(test)]
    pub(crate) fn durable_len(&self, name: &str) -> usize {
        self.durable.get(name).map_or(0, Vec::len)
    }

    fn known(&self, name: &str) -> bool {
        self.durable.contains_key(name) || self.pending.contains_key(name)
    }
}

impl Storage for MemStorage {
    fn list(&self) -> Result<Vec<String>, WalError> {
        let mut names: Vec<String> = self.durable.keys().cloned().collect();
        names.extend(self.pending.keys().cloned());
        names.sort_unstable();
        names.dedup();
        Ok(names)
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, WalError> {
        if !self.known(name) {
            return Err(WalError::Missing {
                object: name.to_string(),
            });
        }
        let mut out = self.durable.get(name).cloned().unwrap_or_default();
        if let Some(tail) = self.pending.get(name) {
            out.extend_from_slice(tail);
        }
        Ok(out)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        self.pending
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self, name: &str) -> Result<(), WalError> {
        if let Some(tail) = self.pending.remove(name) {
            self.durable
                .entry(name.to_string())
                .or_default()
                .extend(tail);
        }
        Ok(())
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        self.pending.remove(name);
        self.durable.insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn delete(&mut self, name: &str) -> Result<(), WalError> {
        let knew = self.known(name);
        self.durable.remove(name);
        self.pending.remove(name);
        if knew {
            Ok(())
        } else {
            Err(WalError::Missing {
                object: name.to_string(),
            })
        }
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), WalError> {
        if !self.known(name) {
            return Err(WalError::Missing {
                object: name.to_string(),
            });
        }
        self.pending.remove(name);
        self.durable
            .entry(name.to_string())
            .or_default()
            .truncate(len as usize);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_see_unsynced_appends_but_crashes_drop_them() {
        let mut s = MemStorage::new();
        s.append("a", b"dur").unwrap();
        s.sync("a").unwrap();
        s.append("a", b"pending").unwrap();
        assert_eq!(s.read("a").unwrap(), b"durpending");
        assert_eq!(s.pending_objects(), vec![("a".to_string(), 7)]);
        s.crash();
        assert_eq!(s.read("a").unwrap(), b"dur");
        assert_eq!(s.pending_objects(), Vec::new());
    }

    #[test]
    fn torn_crashes_keep_an_arbitrary_prefix() {
        let mut s = MemStorage::new();
        s.append("a", b"base").unwrap();
        s.sync("a").unwrap();
        s.append("a", b"tail-bytes").unwrap();
        s.crash_torn("a", 4);
        s.crash();
        assert_eq!(s.read("a").unwrap(), b"basetail");
    }

    #[test]
    fn write_atomic_replaces_and_is_immediately_durable() {
        let mut s = MemStorage::new();
        s.append("c", b"old-pending").unwrap();
        s.write_atomic("c", b"published").unwrap();
        s.crash();
        assert_eq!(s.read("c").unwrap(), b"published");
    }

    #[test]
    fn list_delete_truncate_and_missing_objects() {
        let mut s = MemStorage::new();
        s.append("b", b"bb").unwrap();
        s.write_atomic("a", b"aa").unwrap();
        assert_eq!(s.list().unwrap(), vec!["a".to_string(), "b".to_string()]);
        assert!(matches!(s.read("z"), Err(WalError::Missing { .. })));
        assert!(matches!(s.delete("z"), Err(WalError::Missing { .. })));
        assert!(matches!(s.truncate("z", 0), Err(WalError::Missing { .. })));
        s.truncate("a", 1).unwrap();
        assert_eq!(s.read("a").unwrap(), b"a");
        s.delete("b").unwrap();
        assert_eq!(s.list().unwrap(), vec!["a".to_string()]);
        // A batch is deleted in order and stops at the first failure.
        for name in ["c", "d", "e"] {
            s.write_atomic(name, b"x").unwrap();
        }
        let batch = ["c", "z", "d"].map(String::from);
        assert!(matches!(
            s.delete_many(&batch),
            Err(WalError::Missing { .. })
        ));
        assert_eq!(s.list().unwrap(), ["a", "d", "e"].map(String::from));
        s.delete_many(&["d", "e"].map(String::from)).unwrap();
        s.delete_many(&[]).unwrap();
        assert_eq!(s.list().unwrap(), vec!["a".to_string()]);
    }

    #[test]
    fn bit_flips_hit_durable_bytes_only() {
        let mut s = MemStorage::new();
        assert!(!s.flip_durable_bit("a", 3));
        s.append("a", b"\x00\x00").unwrap();
        assert!(!s.flip_durable_bit("a", 3), "pending bytes must not flip");
        s.sync("a").unwrap();
        assert!(s.flip_durable_bit("a", 9));
        assert_eq!(s.read("a").unwrap(), vec![0u8, 2u8]);
        // Out-of-range indices wrap.
        assert!(s.flip_durable_bit("a", 16 + 9));
        assert_eq!(s.read("a").unwrap(), vec![0u8, 0u8]);
    }
}
