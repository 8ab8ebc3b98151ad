//! The write-ahead log of edit batches.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   b"XICW"
//! version u32                        (currently 2)
//! record*:
//!   len     u64                      payload byte length
//!   seq     u64                      batch sequence number (strictly increasing)
//!   crc     u32                      CRC-32 of seq (8 LE bytes) ++ payload
//!   payload len bytes                (one encoded `Vec<BatchEdit>`)
//! ```
//!
//! Callers append a batch after applying it to the live validator and
//! before acknowledging it, so after a crash the log replays every batch
//! the daemon acknowledged.
//! On open, the tail is scanned: a record cut short by a crash (the file
//! ends inside its header or payload) is a *torn write* and is truncated
//! away; a record that is fully present but fails its checksum is
//! *corruption* and surfaces as a clean error — it is never truncated
//! silently, and never deserialized.
//!
//! The **sequence number** ties the log to its snapshot. Every record
//! carries the monotonic sequence the batch was acknowledged under, and a
//! snapshot stores the sequence of the last batch it captures. Recovery
//! ([`crate::DocStore::load`]) replays only records *above* the
//! snapshot's sequence — so a crash between publishing a snapshot and
//! emptying the log it subsumes leaves stale records that are skipped,
//! never replayed a second time onto state that already contains them.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use xic_validate::BatchEdit;

use crate::codec::{dec_batch, enc_batch, Dec, Enc};
use crate::crc::crc32;
use crate::StorageError;

/// The WAL file magic.
pub const WAL_MAGIC: [u8; 4] = *b"XICW";
/// The current WAL format version.
pub const WAL_VERSION: u32 = 2;

const HEADER_LEN: u64 = 8;
const RECORD_HEADER_LEN: u64 = 20;

/// When appends reach the disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every appended record: an acknowledged edit survives
    /// power loss. This is the safe default.
    Always,
    /// Leave flushing to the OS page cache: an acknowledged edit survives
    /// a process crash but may be lost on power loss. The torn-tail scan
    /// still recovers the longest durable prefix.
    Never,
}

impl FsyncPolicy {
    /// Parses `always` / `never` (as accepted by `--fsync`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            _ => Err(format!("unknown fsync policy '{s}' (use always|never)")),
        }
    }
}

/// The intact `(sequence, batch)` records [`Wal::open`] replayed from
/// disk, in append order.
pub type ReplayedBatches = Vec<(u64, Vec<BatchEdit>)>;

/// An open write-ahead log, positioned for appending.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    /// Byte length of the valid prefix (header + intact records).
    len: u64,
    /// Number of intact records currently in the log.
    records: u64,
    /// The sequence number the next appended record is stamped with.
    /// Strictly greater than every sequence already in the log, and — once
    /// [`Wal::skip_to`] has applied the owning snapshot's last sequence —
    /// than every batch a snapshot has already captured.
    next_seq: u64,
}

fn io_err(context: String) -> impl FnOnce(std::io::Error) -> StorageError {
    move |source| StorageError::Io { context, source }
}

impl Wal {
    /// Opens (or creates) the log at `path` and replays its records.
    ///
    /// Returns the log positioned for appending plus every intact
    /// `(sequence, batch)` in append order. A torn final record — the file
    /// ends inside it — is truncated away; a complete record failing its
    /// checksum, a bad header, a non-increasing sequence number, or a
    /// malformed payload is a clean error.
    pub fn open(
        path: impl Into<PathBuf>,
        policy: FsyncPolicy,
    ) -> Result<(Wal, ReplayedBatches), StorageError> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(io_err(format!("open {}", path.display())))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(io_err(format!("read {}", path.display())))?;

        if bytes.is_empty() {
            let mut header = Vec::with_capacity(HEADER_LEN as usize);
            header.extend_from_slice(&WAL_MAGIC);
            header.extend_from_slice(&WAL_VERSION.to_le_bytes());
            file.write_all(&header)
                .map_err(io_err(format!("write header of {}", path.display())))?;
            if policy == FsyncPolicy::Always {
                file.sync_all()
                    .map_err(io_err(format!("sync {}", path.display())))?;
            }
            return Ok((
                Wal {
                    file,
                    path,
                    policy,
                    len: HEADER_LEN,
                    records: 0,
                    next_seq: 1,
                },
                Vec::new(),
            ));
        }
        if bytes.len() < HEADER_LEN as usize || bytes[..4] != WAL_MAGIC {
            return Err(StorageError::Format {
                detail: format!("{}: bad magic (not a WAL file)", path.display()),
            });
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != WAL_VERSION {
            return Err(StorageError::Format {
                detail: format!(
                    "{}: WAL version {version} (this build reads {WAL_VERSION})",
                    path.display()
                ),
            });
        }

        let mut batches: Vec<(u64, Vec<BatchEdit>)> = Vec::new();
        let mut pos = HEADER_LEN as usize;
        let mut last_seq = 0u64;
        let mut torn = false;
        while pos < bytes.len() {
            let remaining = bytes.len() - pos;
            if remaining < RECORD_HEADER_LEN as usize {
                torn = true; // record header cut short
                break;
            }
            let len = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
            let seq_bytes: [u8; 8] = bytes[pos + 8..pos + 16].try_into().unwrap();
            let seq = u64::from_le_bytes(seq_bytes);
            let crc = u32::from_le_bytes(bytes[pos + 16..pos + 20].try_into().unwrap());
            let body = pos + RECORD_HEADER_LEN as usize;
            let Some(end) = (body as u64)
                .checked_add(len)
                .filter(|&e| e <= bytes.len() as u64)
            else {
                torn = true; // payload cut short
                break;
            };
            let payload = &bytes[body..end as usize];
            if record_crc(&seq_bytes, payload) != crc {
                return Err(StorageError::Corrupt {
                    detail: format!(
                        "{}: record {} fails its checksum",
                        path.display(),
                        batches.len()
                    ),
                });
            }
            if seq <= last_seq {
                return Err(StorageError::Corrupt {
                    detail: format!(
                        "{}: record {} has sequence {seq}, not above its predecessor's {last_seq}",
                        path.display(),
                        batches.len()
                    ),
                });
            }
            let mut d = Dec::new(payload, "wal record");
            let batch = dec_batch(&mut d)?;
            if !d.is_empty() {
                return Err(StorageError::Corrupt {
                    detail: format!(
                        "{}: record {} has trailing bytes",
                        path.display(),
                        batches.len()
                    ),
                });
            }
            batches.push((seq, batch));
            last_seq = seq;
            pos = end as usize;
        }
        if torn {
            file.set_len(pos as u64)
                .map_err(io_err(format!("truncate torn tail of {}", path.display())))?;
        }
        file.seek(SeekFrom::Start(pos as u64))
            .map_err(io_err(format!("seek {}", path.display())))?;
        let records = batches.len() as u64;
        Ok((
            Wal {
                file,
                path,
                policy,
                len: pos as u64,
                records,
                next_seq: last_seq + 1,
            },
            batches,
        ))
    }

    /// Appends one batch as a checksummed record, honouring the fsync
    /// policy, and returns the sequence number it was stamped with. Call
    /// this *before* acknowledging the batch.
    pub fn append(&mut self, batch: &[BatchEdit]) -> Result<u64, StorageError> {
        let mut payload = Enc::default();
        enc_batch(&mut payload, batch);
        let seq = self.next_seq;
        let seq_bytes = seq.to_le_bytes();
        let mut rec = Vec::with_capacity(RECORD_HEADER_LEN as usize + payload.buf.len());
        rec.extend_from_slice(&(payload.buf.len() as u64).to_le_bytes());
        rec.extend_from_slice(&seq_bytes);
        rec.extend_from_slice(&record_crc(&seq_bytes, &payload.buf).to_le_bytes());
        rec.extend_from_slice(&payload.buf);
        self.file
            .write_all(&rec)
            .map_err(io_err(format!("append to {}", self.path.display())))?;
        if self.policy == FsyncPolicy::Always {
            self.file
                .sync_all()
                .map_err(io_err(format!("sync {}", self.path.display())))?;
        }
        self.len += rec.len() as u64;
        self.records += 1;
        self.next_seq = seq + 1;
        Ok(seq)
    }

    /// Discards every record (after a successful snapshot has made them
    /// redundant), leaving an empty log. The sequence counter is *not*
    /// rewound: later appends stay above every sequence the snapshot has
    /// captured, so a record can never be mistaken for un-snapshotted work.
    pub fn reset(&mut self) -> Result<(), StorageError> {
        self.file
            .set_len(HEADER_LEN)
            .map_err(io_err(format!("truncate {}", self.path.display())))?;
        self.file
            .seek(SeekFrom::Start(HEADER_LEN))
            .map_err(io_err(format!("seek {}", self.path.display())))?;
        if self.policy == FsyncPolicy::Always {
            self.file
                .sync_all()
                .map_err(io_err(format!("sync {}", self.path.display())))?;
        }
        self.len = HEADER_LEN;
        self.records = 0;
        Ok(())
    }

    /// The sequence number of the most recently acknowledged batch: what a
    /// snapshot of the current validator state must record as its last
    /// applied sequence. Zero when nothing has ever been appended (or
    /// skipped to).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Raises the sequence counter past `last_applied` (the owning
    /// snapshot's last captured sequence), so the next append is stamped
    /// above every batch that snapshot subsumes. Never lowers it.
    pub fn skip_to(&mut self, last_applied: u64) {
        self.next_seq = self.next_seq.max(last_applied + 1);
    }

    /// Number of intact records currently in the log.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Byte length of the log's valid prefix.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True iff the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// A record's checksum covers its sequence number as well as its payload,
/// so a flipped sequence is caught by the CRC before the monotonicity
/// check ever sees it.
fn record_crc(seq_bytes: &[u8; 8], payload: &[u8]) -> u32 {
    let mut buf = Vec::with_capacity(8 + payload.len());
    buf.extend_from_slice(seq_bytes);
    buf.extend_from_slice(payload);
    crc32(&buf)
}
