//! # xic-storage — durable state for live validators
//!
//! The engine's in-memory state ([`xic_validate::LiveState`]) persists
//! through two cooperating artifacts:
//!
//! * **Snapshots** ([`write_snapshot`]/[`read_snapshot`]) — a compact,
//!   versioned binary image of the document tree, the intern pool, every
//!   planned constraint column, and the structural violation table. Each
//!   section is length-prefixed and CRC-32-checksummed; files are
//!   published by atomic rename, so a reader never observes a torn
//!   snapshot.
//! * **A write-ahead log** ([`Wal`]) — checksummed
//!   [`BatchEdit`] records appended *before*
//!   each batch is acknowledged, each stamped with a monotonic sequence
//!   number. On reopen the log replays intact records, truncates a torn
//!   final record, and refuses (with a clean error) to deserialize
//!   corruption.
//!
//! **Warm start** is `snapshot + WAL replay`: decode the snapshot, hand it
//! to [`xic_validate::LiveValidator::from_state`] (which skips parsing,
//! extraction, and the structural scan), then re-apply the logged batches.
//! The recovered validator's report is byte-identical to validating the
//! current document from scratch. The snapshot records the sequence of
//! the last batch it captures, and replay skips records at or below it —
//! so a crash landing between a snapshot publication and the WAL reset
//! that follows it can never apply a batch twice.
//!
//! [`DocStore`] arranges both artifacts in a per-document directory layout
//! (`<state-dir>/<doc-id>/snapshot.bin` + `wal.log`) for the multi-tenant
//! daemon; the `xic snapshot` / `xic recover` subcommands and `xic serve
//! --state-dir` build on it.
//!
//! The crate is dependency-free beyond the workspace's own model and
//! validator crates: codecs, checksums, and file handling are all local.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod crc;
mod snapshot;
mod wal;

use std::fs;
use std::path::{Path, PathBuf};

use xic_validate::{BatchEdit, LiveState};

pub use crc::crc32;
pub use snapshot::{
    decode_snapshot, encode_snapshot, read_snapshot, write_snapshot, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
pub use wal::{FsyncPolicy, ReplayedBatches, Wal, WAL_MAGIC, WAL_VERSION};

/// Why a storage operation failed.
///
/// Decoding never panics: torn or flipped bytes surface as
/// [`StorageError::Corrupt`], files from other tools or future format
/// versions as [`StorageError::Format`], and operating-system failures as
/// [`StorageError::Io`] with the failing operation named.
#[derive(Debug)]
pub enum StorageError {
    /// An operating-system I/O failure.
    Io {
        /// The operation that failed (includes the path).
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The bytes are recognizably ours but fail a checksum, end early, or
    /// decode to structurally impossible state.
    Corrupt {
        /// What was wrong.
        detail: String,
    },
    /// The file is not ours, or was written by an incompatible format
    /// version.
    Format {
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io { context, source } => write!(f, "{context}: {source}"),
            StorageError::Corrupt { detail } => write!(f, "corrupt state: {detail}"),
            StorageError::Format { detail } => write!(f, "unrecognized format: {detail}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A document recovered from disk: its snapshot state, the batches logged
/// since that snapshot (in append order), and the open log positioned for
/// further appends.
#[derive(Debug)]
pub struct Recovered {
    /// The decoded snapshot.
    pub state: LiveState,
    /// The WAL sequence number of the last batch the snapshot captures.
    /// WAL records at or below it were subsumed by the snapshot and are
    /// *not* in [`Recovered::batches`].
    pub last_seq: u64,
    /// Batches appended after the snapshot (sequence above
    /// [`Recovered::last_seq`]), to re-apply in order.
    pub batches: Vec<Vec<BatchEdit>>,
    /// The open write-ahead log, its sequence counter positioned above
    /// both the snapshot and every logged record.
    pub wal: Wal,
}

/// File-metadata facts about a document's on-disk snapshot (see
/// [`DocStore::snapshot_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Snapshot file size in bytes.
    pub bytes: u64,
    /// When the snapshot was last written (filesystem mtime) — its age is
    /// `now − modified`, the staleness an operator alerts on.
    pub modified: std::time::SystemTime,
}

/// The per-document state-directory layout used by `xic serve --state-dir`:
/// one subdirectory per document id holding `snapshot.bin` and `wal.log`.
///
/// Document ids are restricted to `[A-Za-z0-9._-]+` (excluding `.` and
/// `..`), matching the daemon's id grammar, so an id can never escape the
/// root directory.
#[derive(Debug, Clone)]
pub struct DocStore {
    root: PathBuf,
    policy: FsyncPolicy,
}

/// The snapshot file name inside a document's subdirectory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// The WAL file name inside a document's subdirectory.
pub const WAL_FILE: &str = "wal.log";

fn io_err(context: String) -> impl FnOnce(std::io::Error) -> StorageError {
    move |source| StorageError::Io { context, source }
}

/// True iff `id` is a safe document id (`[A-Za-z0-9._-]+`, not `.`/`..`).
pub fn valid_doc_id(id: &str) -> bool {
    !id.is_empty()
        && id != "."
        && id != ".."
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

impl DocStore {
    /// Opens (creating if needed) the state directory at `root`.
    pub fn open(root: impl Into<PathBuf>, policy: FsyncPolicy) -> Result<Self, StorageError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(io_err(format!("create {}", root.display())))?;
        Ok(DocStore { root, policy })
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// The state directory root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn doc_dir(&self, id: &str) -> Result<PathBuf, StorageError> {
        if !valid_doc_id(id) {
            return Err(StorageError::Format {
                detail: format!("invalid document id '{id}'"),
            });
        }
        Ok(self.root.join(id))
    }

    /// The snapshot path for `id` (the file may not exist yet).
    pub fn snapshot_path(&self, id: &str) -> Result<PathBuf, StorageError> {
        Ok(self.doc_dir(id)?.join(SNAPSHOT_FILE))
    }

    /// The WAL path for `id` (the file may not exist yet).
    pub fn wal_path(&self, id: &str) -> Result<PathBuf, StorageError> {
        Ok(self.doc_dir(id)?.join(WAL_FILE))
    }

    /// Size and age of `id`'s on-disk snapshot, from file metadata —
    /// `Ok(None)` when the doc has never been snapshotted. Cheap (one
    /// `stat`), so introspection surfaces like `xic serve`'s `/status`
    /// can call it per scrape without touching snapshot contents.
    pub fn snapshot_stats(&self, id: &str) -> Result<Option<SnapshotStats>, StorageError> {
        let path = self.snapshot_path(id)?;
        let meta = match fs::metadata(&path) {
            Ok(meta) => meta,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err(format!("stat {}", path.display()))(e)),
        };
        let modified = meta
            .modified()
            .map_err(io_err(format!("stat {}", path.display())))?;
        Ok(Some(SnapshotStats {
            bytes: meta.len(),
            modified,
        }))
    }

    /// Every document id with persisted state, ascending.
    pub fn doc_ids(&self) -> Result<Vec<String>, StorageError> {
        let mut ids = Vec::new();
        let entries =
            fs::read_dir(&self.root).map_err(io_err(format!("list {}", self.root.display())))?;
        for entry in entries {
            let entry = entry.map_err(io_err(format!("list {}", self.root.display())))?;
            let name = entry.file_name();
            let Some(id) = name.to_str() else { continue };
            if valid_doc_id(id) && entry.path().join(SNAPSHOT_FILE).is_file() {
                ids.push(id.to_string());
            }
        }
        ids.sort();
        Ok(ids)
    }

    /// Snapshots `state` for `id` and empties its WAL (the snapshot
    /// subsumes every logged batch). Creates the subdirectory on first
    /// save.
    ///
    /// Crash-safe ordering: the snapshot is stamped with the WAL's last
    /// sequence number and published (atomic rename) *before* the log is
    /// emptied, so a crash between the two steps leaves stale records that
    /// [`DocStore::load`] skips by sequence — never replays onto state
    /// that already contains them.
    pub fn save(&self, id: &str, state: &LiveState) -> Result<(), StorageError> {
        let dir = self.doc_dir(id)?;
        fs::create_dir_all(&dir).map_err(io_err(format!("create {}", dir.display())))?;
        let wal_path = dir.join(WAL_FILE);
        let mut wal = if wal_path.exists() {
            let (wal, _) = Wal::open(&wal_path, self.policy)?;
            Some(wal)
        } else {
            None
        };
        let last_seq = wal.as_ref().map_or(0, Wal::last_seq);
        write_snapshot(&dir.join(SNAPSHOT_FILE), state, last_seq)?;
        if let Some(wal) = wal.as_mut() {
            wal.reset()?;
        }
        Ok(())
    }

    /// Recovers `id`: decodes its snapshot, replays the WAL records above
    /// the snapshot's last applied sequence (records at or below it were
    /// subsumed by the snapshot — the artifact of a crash between a
    /// snapshot publication and the log reset), and returns the open log.
    /// `Ok(None)` when no snapshot exists for `id`.
    pub fn load(&self, id: &str) -> Result<Option<Recovered>, StorageError> {
        let dir = self.doc_dir(id)?;
        let snap = dir.join(SNAPSHOT_FILE);
        if !snap.is_file() {
            return Ok(None);
        }
        let (state, last_seq) = read_snapshot(&snap)?;
        let (mut wal, records) = Wal::open(dir.join(WAL_FILE), self.policy)?;
        wal.skip_to(last_seq);
        let batches = records
            .into_iter()
            .filter(|&(seq, _)| seq > last_seq)
            .map(|(_, batch)| batch)
            .collect();
        Ok(Some(Recovered {
            state,
            last_seq,
            batches,
            wal,
        }))
    }

    /// Opens `id`'s WAL for appending (discarding the replayed batches —
    /// use [`DocStore::load`] when recovering). Creates the subdirectory
    /// and an empty log if needed.
    pub fn open_wal(&self, id: &str) -> Result<Wal, StorageError> {
        let dir = self.doc_dir(id)?;
        fs::create_dir_all(&dir).map_err(io_err(format!("create {}", dir.display())))?;
        let (wal, _) = Wal::open(dir.join(WAL_FILE), self.policy)?;
        Ok(wal)
    }

    /// Deletes every trace of `id`'s persisted state.
    pub fn purge(&self, id: &str) -> Result<(), StorageError> {
        let dir = self.doc_dir(id)?;
        if dir.exists() {
            fs::remove_dir_all(&dir).map_err(io_err(format!("remove {}", dir.display())))?;
        }
        Ok(())
    }
}
