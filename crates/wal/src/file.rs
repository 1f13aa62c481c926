//! The real-file [`Storage`] backend.
//!
//! One flat directory, one file per object. This module is the only
//! non-analyzer, non-bench code in the workspace allowed to use
//! `std::fs` (the `fs-confinement` lint pins that), so every durability
//! decision is auditable in one place:
//!
//! * `append` writes through a cached `O_APPEND` handle; bytes are not
//!   durable until `sync` calls `sync_all` on that handle.
//! * `write_atomic` is the classic publish dance: write `name.tmp`,
//!   `sync_all` it, rename over `name`, then `sync_all` the directory so
//!   the rename itself survives a crash. A crash between the create and
//!   the rename leaves `name.tmp` behind; a temporary that exists when a
//!   directory is opened belongs to a dead writer, so
//!   [`FileStorage::create`] removes it.
//! * `delete` unlinks and syncs the directory; `delete_many` unlinks the
//!   whole batch and syncs the directory **once**. Until that sync any
//!   subset of the unlinks may be what a crash leaves, in any order.
//! * `truncate` uses `set_len`, re-opening the file read-write.
//!
//! Object names are restricted to a safe flat charset so a corrupted
//! caller can never escape the journal directory.

use crate::error::WalError;
use crate::storage::Storage;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// [`Storage`] over one directory of flat files.
#[derive(Debug)]
pub struct FileStorage {
    root: PathBuf,
    /// Cached append handles; invalidated on delete/truncate/publish.
    handles: BTreeMap<String, File>,
}

fn io_err(object: &str, op: &'static str, e: std::io::Error) -> WalError {
    WalError::Io {
        object: object.to_string(),
        op,
        reason: e.to_string(),
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'.' || b == b'_')
        && !name.starts_with('.')
}

/// Suffix of the temporary `write_atomic` renames into place.
const TMP_SUFFIX: &str = ".tmp";

impl FileStorage {
    /// Open (creating if needed) the directory at `root`, removing the
    /// temporaries a writer that crashed inside `write_atomic` left there
    /// (and syncing the directory once if there were any).
    pub fn create(root: impl Into<PathBuf>) -> Result<Self, WalError> {
        let root = root.into();
        std::fs::create_dir_all(&root)
            .map_err(|e| io_err(&root.to_string_lossy(), "create_dir", e))?;
        let mut storage = FileStorage {
            root,
            handles: BTreeMap::new(),
        };
        let mut stale = storage.list()?;
        stale.retain(|name| name.ends_with(TMP_SUFFIX));
        storage.delete_many(&stale)?;
        Ok(storage)
    }

    /// The backing directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path(&self, name: &str) -> Result<PathBuf, WalError> {
        if !valid_name(name) {
            return Err(WalError::Io {
                object: name.to_string(),
                op: "name",
                reason: "object names must be flat [A-Za-z0-9._-]".to_string(),
            });
        }
        Ok(self.root.join(name))
    }

    /// Remove `name` from the directory, without making that durable.
    fn unlink(&mut self, name: &str) -> Result<(), WalError> {
        let path = self.path(name)?;
        self.handles.remove(name);
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(WalError::Missing {
                object: name.to_string(),
            }),
            Err(e) => Err(io_err(name, "delete", e)),
        }
    }

    fn sync_dir(&self, object: &str) -> Result<(), WalError> {
        let dir = File::open(&self.root).map_err(|e| io_err(object, "sync_dir", e))?;
        dir.sync_all().map_err(|e| io_err(object, "sync_dir", e))
    }
}

impl Storage for FileStorage {
    fn list(&self) -> Result<Vec<String>, WalError> {
        let mut names = Vec::new();
        let entries = std::fs::read_dir(&self.root).map_err(|e| io_err("<root>", "list", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("<root>", "list", e))?;
            let is_file = entry
                .file_type()
                .map_err(|e| io_err("<root>", "list", e))?
                .is_file();
            if let (true, Ok(name)) = (is_file, entry.file_name().into_string()) {
                if valid_name(&name) {
                    names.push(name);
                }
            }
        }
        names.sort_unstable();
        Ok(names)
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, WalError> {
        let path = self.path(name)?;
        match std::fs::read(&path) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(WalError::Missing {
                object: name.to_string(),
            }),
            Err(e) => Err(io_err(name, "read", e)),
        }
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        let path = self.path(name)?;
        if !self.handles.contains_key(name) {
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| io_err(name, "append", e))?;
            self.handles.insert(name.to_string(), file);
        }
        match self.handles.get_mut(name) {
            Some(file) => file.write_all(bytes).map_err(|e| io_err(name, "append", e)),
            None => Err(WalError::Io {
                object: name.to_string(),
                op: "append",
                reason: "append handle vanished".to_string(),
            }),
        }
    }

    fn sync(&mut self, name: &str) -> Result<(), WalError> {
        // Appending opens (and creates) the file, so syncing an object we
        // never appended to creates an empty durable object — the same
        // semantics as the in-memory backend's no-op.
        if !self.handles.contains_key(name) {
            self.append(name, &[])?;
        }
        match self.handles.get(name) {
            Some(file) => file.sync_all().map_err(|e| io_err(name, "sync", e)),
            None => Ok(()),
        }
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        let path = self.path(name)?;
        let tmp_name = format!("{name}{TMP_SUFFIX}");
        let tmp = self.path(&tmp_name)?;
        self.handles.remove(name);
        let mut file = File::create(&tmp).map_err(|e| io_err(name, "write_atomic", e))?;
        file.write_all(bytes)
            .map_err(|e| io_err(name, "write_atomic", e))?;
        file.sync_all()
            .map_err(|e| io_err(name, "write_atomic", e))?;
        drop(file);
        std::fs::rename(&tmp, &path).map_err(|e| io_err(name, "write_atomic", e))?;
        self.sync_dir(name)
    }

    fn delete(&mut self, name: &str) -> Result<(), WalError> {
        self.unlink(name)?;
        self.sync_dir(name)
    }

    fn delete_many(&mut self, names: &[String]) -> Result<(), WalError> {
        let Some(last) = names.last() else {
            return Ok(());
        };
        names.iter().try_for_each(|name| self.unlink(name))?;
        self.sync_dir(last)
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), WalError> {
        let path = self.path(name)?;
        self.handles.remove(name);
        let file = match OpenOptions::new().write(true).open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(WalError::Missing {
                    object: name.to_string(),
                })
            }
            Err(e) => return Err(io_err(name, "truncate", e)),
        };
        file.set_len(len).map_err(|e| io_err(name, "truncate", e))?;
        file.sync_all().map_err(|e| io_err(name, "truncate", e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fresh scratch directory per test, rooted in the system temp dir
    /// and keyed by test name + pid so parallel runs cannot collide.
    fn scratch(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("scope-wal-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_sync_read_round_trip() {
        let mut s = FileStorage::create(scratch("roundtrip")).unwrap();
        s.append("wal-0.seg", b"hello ").unwrap();
        s.append("wal-0.seg", b"world").unwrap();
        s.sync("wal-0.seg").unwrap();
        assert_eq!(s.read("wal-0.seg").unwrap(), b"hello world");
        assert_eq!(s.list().unwrap(), vec!["wal-0.seg".to_string()]);
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_tmp() {
        let mut s = FileStorage::create(scratch("atomic")).unwrap();
        s.append("ckpt", b"old").unwrap();
        s.sync("ckpt").unwrap();
        s.write_atomic("ckpt", b"published").unwrap();
        assert_eq!(s.read("ckpt").unwrap(), b"published");
        assert_eq!(s.list().unwrap(), vec!["ckpt".to_string()]);
        // Appends after a publish go to the new contents.
        s.append("ckpt", b"+tail").unwrap();
        s.sync("ckpt").unwrap();
        assert_eq!(s.read("ckpt").unwrap(), b"published+tail");
    }

    #[test]
    fn truncate_delete_and_missing() {
        let mut s = FileStorage::create(scratch("trunc")).unwrap();
        s.append("a", b"0123456789").unwrap();
        s.sync("a").unwrap();
        s.truncate("a", 4).unwrap();
        assert_eq!(s.read("a").unwrap(), b"0123");
        s.append("a", b"XY").unwrap();
        s.sync("a").unwrap();
        assert_eq!(s.read("a").unwrap(), b"0123XY");
        s.delete("a").unwrap();
        assert!(matches!(s.read("a"), Err(WalError::Missing { .. })));
        assert!(matches!(s.delete("a"), Err(WalError::Missing { .. })));
        assert!(matches!(s.truncate("a", 0), Err(WalError::Missing { .. })));
    }

    #[test]
    fn a_batch_delete_removes_every_object_and_stops_at_a_missing_one() {
        let mut s = FileStorage::create(scratch("batch")).unwrap();
        for name in ["a", "b", "c", "d"] {
            s.write_atomic(name, b"x").unwrap();
        }
        // An append handle to a deleted object must not outlive it.
        s.append("b", b"y").unwrap();
        s.delete_many(&["a", "b"].map(String::from)).unwrap();
        s.delete_many(&[]).unwrap();
        assert_eq!(s.list().unwrap(), ["c", "d"].map(String::from));
        s.append("b", b"z").unwrap();
        assert_eq!(s.read("b").unwrap(), b"z");
        let batch = ["c", "missing", "d"].map(String::from);
        assert!(matches!(
            s.delete_many(&batch),
            Err(WalError::Missing { .. })
        ));
        assert_eq!(s.list().unwrap(), ["b", "d"].map(String::from));
    }

    #[test]
    fn opening_a_directory_removes_the_temporaries_of_a_dead_writer() {
        use crate::journal::{checkpoint_name, Journal, JournalConfig};
        use crate::record::FrameKind;

        let dir = scratch("stale-tmp");
        let storage = FileStorage::create(&dir).unwrap();
        let mut journal = Journal::create(storage, JournalConfig::default()).unwrap();
        journal.append(0, &Default::default()).unwrap();
        journal.sync().unwrap();
        journal.publish_checkpoint(b"published", 1).unwrap();
        journal.append(1, &Default::default()).unwrap();
        journal.sync().unwrap();
        let live = journal.storage().list().unwrap();
        drop(journal);
        // The writer died between `File::create(tmp)` and the rename of
        // its next checkpoint.
        let stale = format!("{}.tmp", checkpoint_name(FrameKind::Full, 2));
        std::fs::write(dir.join(&stale), b"half a fra").unwrap();

        let storage = FileStorage::create(&dir).unwrap();
        assert!(!dir.join(&stale).exists());
        assert_eq!(storage.list().unwrap(), live);
        let recovered = Journal::recover(storage, JournalConfig::default(), |_| true).unwrap();
        assert_eq!(recovered.state.as_deref(), Some(&b"published"[..]));
        assert_eq!(recovered.tail.len(), 1);
        // Publishing that ordinal after all leaves no temporary either.
        let mut journal = recovered.journal;
        journal.publish_checkpoint(b"again", 2).unwrap();
        assert!(journal
            .storage()
            .list()
            .unwrap()
            .iter()
            .all(|name| !name.ends_with(TMP_SUFFIX)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsafe_object_names_are_rejected() {
        let mut s = FileStorage::create(scratch("names")).unwrap();
        for bad in ["../escape", "a/b", "", ".hidden"] {
            assert!(matches!(
                s.append(bad, b"x"),
                Err(WalError::Io { op: "name", .. })
            ));
        }
    }
}
