//! A `Storage` wrapper that puts a span around every operation the journal
//! issues and counts the bytes it moves. Used by the traced run only.

use crate::trace;
use scope_wal::{Storage, WalError};

/// What went through a [`TimedStorage`] since it was created.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageCounts {
    pub appends: u64,
    pub bytes_appended: u64,
    pub syncs: u64,
    pub atomic_writes: u64,
    pub atomic_bytes: u64,
    pub deletes: u64,
    pub reads: u64,
    pub read_bytes: u64,
}

#[derive(Debug)]
pub struct TimedStorage<S: Storage> {
    inner: S,
    // `Storage::read` takes `&self`.
    counts: std::cell::Cell<StorageCounts>,
}

impl<S: Storage> TimedStorage<S> {
    pub fn new(inner: S) -> Self {
        TimedStorage {
            inner,
            counts: Default::default(),
        }
    }

    pub fn counts(&self) -> StorageCounts {
        self.counts.get()
    }

    fn count(&self, f: impl FnOnce(&mut StorageCounts)) {
        let mut c = self.counts.get();
        f(&mut c);
        self.counts.set(c);
    }
}

impl<S: Storage> Storage for TimedStorage<S> {
    fn list(&self) -> Result<Vec<String>, WalError> {
        trace::span("wal.storage_list", || self.inner.list())
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, WalError> {
        let out = trace::span("wal.storage_read", || self.inner.read(name));
        if let Ok(bytes) = &out {
            self.count(|c| {
                c.reads += 1;
                c.read_bytes += bytes.len() as u64;
            });
        }
        out
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        self.count(|c| {
            c.appends += 1;
            c.bytes_appended += bytes.len() as u64;
        });
        trace::span("wal.storage_append", || self.inner.append(name, bytes))
    }

    fn sync(&mut self, name: &str) -> Result<(), WalError> {
        self.count(|c| c.syncs += 1);
        trace::span("wal.storage_sync", || self.inner.sync(name))
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        self.count(|c| {
            c.atomic_writes += 1;
            c.atomic_bytes += bytes.len() as u64;
        });
        trace::span("wal.storage_write_atomic", || {
            self.inner.write_atomic(name, bytes)
        })
    }

    fn delete(&mut self, name: &str) -> Result<(), WalError> {
        self.count(|c| c.deletes += 1);
        trace::span("wal.storage_delete", || self.inner.delete(name))
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), WalError> {
        trace::span("wal.storage_truncate", || self.inner.truncate(name, len))
    }
}
