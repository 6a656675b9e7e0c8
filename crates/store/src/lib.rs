//! # cobra-store — durable storage for the Cobra VDBMS
//!
//! The paper's Monet instance kept its BATs on disk between sessions;
//! Cobra was pure main-memory until this crate. It adds the classical
//! snapshot + write-ahead-log pair behind a [`StorageBackend`] trait:
//!
//! * [`MemBackend`] — the old behaviour. Every operation is a no-op; the
//!   engine stays byte-for-byte as fast as before.
//! * [`FileBackend`] — an append-only, length-prefixed, CRC-guarded WAL
//!   ([`wal`]) plus checksummed per-BAT snapshot files bound together by
//!   an atomically renamed manifest ([`snapshot`]).
//!
//! ## Protocol
//!
//! **Log.** Each catalog mutation is encoded as a typed [`WalOp`],
//! appended and (per [`FsyncPolicy`]) fsynced *before* the mutation is
//! acknowledged. The WAL is a sequence of rotated files
//! `wal-000001.log, wal-000002.log, …`; records carry strictly
//! increasing sequence numbers across rotations.
//!
//! **Checkpoint.** Under the catalog's commit lock the backend rotates
//! to a fresh WAL file and remembers the cut sequence; the caller clones
//! the live state (videos + BATs with their live `(id, version)`) and
//! releases the lock. Off-lock, the backend writes dirty BATs to fresh
//! `ck<epoch>-<n>-<i>.bat` files (unchanged BATs — same `(id, version)`
//! as the previous checkpoint — reuse their existing file), then commits
//! by atomically renaming a new manifest over `MANIFEST`, and finally
//! retires pre-cut WAL files and unreferenced BAT files. A crash at any
//! point leaves either the old or the new checkpoint fully in force.
//!
//! **Recover.** [`FileBackend::open`] loads the manifest (if any), its
//! BAT files, and every WAL record with a sequence number past the
//! manifest's cut, stopping cleanly at the first torn or CRC-corrupt
//! record. It computes a strictly increasing *boot epoch* (persisted via
//! a `Boot` WAL record) which the engine folds into its result-cache
//! version vector, so a post-crash process can never serve pre-crash
//! cached results.
//!
//! Crash-robustness is exercised, not assumed: `store.wal.*` and
//! `store.checkpoint.*` fault sites let the test harness kill the engine
//! between append and ack, tear a record mid-write, or crash between
//! checkpoint write and rename, then assert recovery restores exactly
//! the acknowledged state.

use std::fmt;
use std::path::{Path, PathBuf};

pub mod backend;
pub mod codec;
pub mod crc;
pub mod snapshot;
pub mod wal;

pub use backend::{
    CheckpointOutcome, FileBackend, MemBackend, NamedBat, Recovery, SnapshotState, StorageBackend,
    StoreStats,
};
pub use snapshot::{Manifest, ManifestBat, ManifestVideo};
pub use wal::{FsyncPolicy, WalEvent, WalOp};

/// A storage-layer failure.
#[derive(Debug)]
pub enum StoreError {
    /// An OS-level I/O failure.
    Io {
        /// What the store was doing ("append wal", "rename tmp", …).
        op: &'static str,
        /// The file involved.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A file failed its structural or checksum validation.
    Corrupt {
        /// The file involved.
        path: String,
        /// What the decoder was reading when it failed.
        what: String,
    },
    /// An injected fault (tests only).
    Fault {
        /// The `cobra-faults` site that fired.
        site: String,
    },
    /// The WAL writer hit an unrecoverable tail state (a failed write
    /// whose undo also failed); further appends would be lost.
    Poisoned,
    /// A single record's payload exceeds [`wal::MAX_RECORD_LEN`]; it was
    /// rejected before any byte hit the log (recovery treats larger
    /// lengths as torn, so writing it would be silent future data loss).
    RecordTooLarge {
        /// Payload bytes the record would have occupied.
        len: u64,
        /// The replayable maximum, [`wal::MAX_RECORD_LEN`].
        max: u64,
    },
    /// A protocol misuse, e.g. completing a checkpoint that was never
    /// begun.
    Protocol(&'static str),
}

impl StoreError {
    pub(crate) fn io(op: &'static str, path: &Path, source: std::io::Error) -> Self {
        StoreError::Io {
            op,
            path: path.display().to_string(),
            source,
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, source } => {
                write!(f, "store i/o: {op} {path}: {source}")
            }
            StoreError::Corrupt { path, what } => {
                write!(f, "store corruption in {path}: {what}")
            }
            StoreError::Fault { site } => write!(f, "injected store fault at {site}"),
            StoreError::Poisoned => write!(f, "wal writer poisoned by unrecoverable tail"),
            StoreError::RecordTooLarge { len, max } => {
                write!(
                    f,
                    "wal record payload of {len} bytes exceeds the {max}-byte cap"
                )
            }
            StoreError::Protocol(what) => write!(f, "store protocol violation: {what}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<cobra_faults::FaultError> for StoreError {
    fn from(e: cobra_faults::FaultError) -> Self {
        StoreError::Fault { site: e.site }
    }
}

/// Store-layer result.
pub type StoreResult<T> = Result<T, StoreError>;

/// Configuration for a [`FileBackend`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding WAL files, BAT snapshots and the manifest.
    /// Created if absent.
    pub data_dir: PathBuf,
    /// When the WAL reaches the platter.
    pub fsync: FsyncPolicy,
    /// Checkpoint after this many WAL records accumulate (0 disables the
    /// automatic trigger; explicit `CHECKPOINT` still works).
    pub checkpoint_every: u64,
}

impl StoreConfig {
    /// A durable configuration with the default policy: fsync on every
    /// record, checkpoint every 256 records.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            data_dir: data_dir.into(),
            fsync: FsyncPolicy::Always,
            checkpoint_every: 256,
        }
    }
}
