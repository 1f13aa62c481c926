//! Typed errors for the write-ahead journal.
//!
//! Every way the journal can fail — backend I/O, invalid configuration,
//! a frame that does not checksum, an unrecoverable storage state — has a
//! variant here, so callers (the serving engine's recovery protocol, the
//! chaos harnesses, the proptests) can branch on *what* went wrong
//! instead of string-matching. Corruption carries the object name and
//! byte offset of the bad frame, which is exactly what the recovery
//! report quarantines.

use std::fmt;

/// What specifically failed to validate inside a journal frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// Fewer bytes than a frame header at a position that must hold one.
    Header,
    /// The frame length field is implausible (too small, too large, or
    /// pointing past the end of the segment).
    Length,
    /// The frame checksum does not match its contents.
    Checksum,
    /// The record kind byte is not one the journal writes.
    Kind,
    /// The record kind is one an older build wrote in a layout this build
    /// no longer reads: the fixed-width batch record, kind 1.
    Retired,
    /// The record payload does not decode as an event-columns batch.
    Payload,
}

impl fmt::Display for CorruptKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CorruptKind::Header => "truncated frame header",
            CorruptKind::Length => "implausible frame length",
            CorruptKind::Checksum => "checksum mismatch",
            CorruptKind::Kind => "unknown record kind",
            CorruptKind::Retired => "retired record kind (an older build's batch layout)",
            CorruptKind::Payload => "undecodable payload",
        };
        f.write_str(s)
    }
}

/// Errors from the journal and its storage backends.
#[derive(Debug, Clone, PartialEq)]
pub enum WalError {
    /// The journal configuration is invalid (zero segment size, too few
    /// retained checkpoints, ...).
    InvalidConfig(String),
    /// A storage operation failed. Carries the object name, the operation
    /// (`"append"`, `"sync"`, ...) and the backend's reason — real I/O
    /// errors from the file backend and injected faults from the chaos
    /// wrappers both surface here.
    Io {
        /// Object the operation targeted.
        object: String,
        /// Storage operation that failed.
        op: &'static str,
        /// Backend-specific reason.
        reason: String,
    },
    /// An object that must exist does not.
    Missing {
        /// The missing object's name.
        object: String,
    },
    /// A journal frame failed validation.
    Corrupt {
        /// Object containing the bad frame.
        object: String,
        /// Byte offset of the bad frame within the object.
        offset: u64,
        /// What failed to validate.
        kind: CorruptKind,
    },
    /// A record too large for one journal frame: its body would pass the
    /// cap on a frame's length that recovery enforces, so recovery would
    /// cut it as a torn tail. It is refused before any byte is written.
    FrameTooLarge {
        /// Intake sequence number of the refused batch.
        seq: u64,
        /// Body bytes the frame would have.
        body: u64,
        /// The largest body a frame may have.
        max: u64,
    },
    /// A checkpoint object failed validation (bad frame, or rejected by
    /// the engine-level validator during recovery walk-back).
    Checkpoint {
        /// The checkpoint object's name.
        object: String,
        /// Why it was rejected.
        reason: String,
    },
    /// The storage state cannot be recovered into a consistent journal
    /// (e.g. every retained checkpoint is corrupt and the early segments
    /// they covered were already retired).
    Unrecoverable(String),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::InvalidConfig(msg) => write!(f, "invalid journal config: {msg}"),
            WalError::Io { object, op, reason } => {
                write!(f, "storage {op} on {object:?} failed: {reason}")
            }
            WalError::Missing { object } => write!(f, "storage object {object:?} does not exist"),
            WalError::Corrupt {
                object,
                offset,
                kind,
            } => write!(f, "corrupt frame in {object:?} at byte {offset}: {kind}"),
            WalError::FrameTooLarge { seq, body, max } => write!(
                f,
                "batch {seq} needs a {body}-byte frame body, above the {max}-byte cap"
            ),
            WalError::Checkpoint { object, reason } => {
                write!(f, "checkpoint {object:?} rejected: {reason}")
            }
            WalError::Unrecoverable(msg) => write!(f, "journal unrecoverable: {msg}"),
        }
    }
}

impl std::error::Error for WalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_context() {
        let e = WalError::Corrupt {
            object: "wal-00000000000000000003.seg".to_string(),
            offset: 128,
            kind: CorruptKind::Checksum,
        };
        let s = e.to_string();
        assert!(s.contains("wal-00000000000000000003.seg"), "{s}");
        assert!(s.contains("128"), "{s}");
        assert!(s.contains("checksum"), "{s}");

        let io = WalError::Io {
            object: "x".to_string(),
            op: "sync",
            reason: "injected".to_string(),
        };
        assert!(io.to_string().contains("sync"), "{io}");
    }
}
