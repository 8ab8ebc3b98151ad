//! The versioned, checksummed snapshot file.
//!
//! Layout (all fixed-width integers little-endian):
//!
//! ```text
//! magic   b"XICS"
//! version u32                        (3; version 2 files still load)
//! section*:
//!   tag     u32                      (1 tree, 2 interner, 3 columns, 4 struct, 5 meta)
//!   len     u64                      payload byte length
//!   crc     u32                      CRC-32 of the payload
//!   payload len bytes
//! ```
//!
//! Each tag appears exactly once; a repeated, unknown or missing section
//! is an error. In version 3 the tree, interner and columns payloads are
//! varint-encoded, and the tree names labels and attribute names through
//! an inline dictionary (see `codec`); the structural-violation and meta
//! payloads are as in version 2. The interner section holds the
//! document's value pool (`DataTree::pool`); the tree section still spells
//! every value out, and the decoder interns those strings into the pool
//! it read first, so older files, whose pools held only the planned
//! values, load too. [`decode_snapshot`] picks its section readers by
//! the version word. Writers emit only version 3, so a
//! version 2 file is rewritten as version 3 the next time its document
//! is snapshotted.
//!
//! Each section is independently length-prefixed and checksummed: a torn
//! write truncates or corrupts the byte stream and is *detected* (the CRC
//! or the length check fails) rather than deserialized. Writers never
//! publish a torn file in the first place — [`write_snapshot`] writes to a
//! temporary sibling, fsyncs, then renames over the target atomically.
//!
//! The **meta** section records the WAL sequence number of the last edit
//! batch the snapshot captures (zero for a freshly ingested document).
//! Recovery replays only WAL records *above* it, so a crash between
//! publishing a snapshot and emptying the log it subsumes can never
//! replay a batch twice.

use std::fs::{self, File};
use std::path::Path;

use xic_model::{DataTree, Interner};
use xic_validate::{LiveState, LiveStateRef};

use crate::codec::{
    dec_columns_v2, dec_columns_v3, dec_interner_v2, dec_interner_v3, dec_struct_viols,
    dec_tree_v2, dec_tree_v3, enc_columns_v3, enc_interner_v3, enc_struct_viols, enc_tree_v3,
    pool_of, Columns, Dec, Enc, InternerParts, LabelSlots,
};
use crate::crc::crc32;
use crate::StorageError;

/// The snapshot file magic.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"XICS";
/// The current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 3;

const SEC_TREE: u32 = 1;
const SEC_INTERNER: u32 = 2;
const SEC_COLUMNS: u32 = 3;
const SEC_STRUCT: u32 = 4;
const SEC_META: u32 = 5;

/// Serializes `state` into the snapshot byte format. `last_seq` is the WAL
/// sequence number of the last batch already applied to `state` (zero when
/// no log exists yet): recovery replays only records above it.
///
/// `state` is anything that views as a [`LiveStateRef`]: a
/// `&LiveValidator` is encoded in place, with no intermediate copy of the
/// document, and a `&LiveState` encodes to the same bytes.
/// [`write_snapshot`] runs the same writer into a file.
pub fn encode_snapshot<'a>(state: impl Into<LiveStateRef<'a>>, last_seq: u64) -> Vec<u8> {
    let mut out = Enc::default();
    encode(&mut out, &state.into(), last_seq);
    out.buf
}

/// The one snapshot writer: the header, then each section with its
/// length and CRC patched in once its payload is out.
fn encode(out: &mut Enc, state: &LiveStateRef<'_>, last_seq: u64) {
    out.raw(&SNAPSHOT_MAGIC);
    out.u32(SNAPSHOT_VERSION);
    out.section(SEC_META, |e| e.u64(last_seq));
    let slots = out.section(SEC_TREE, |e| enc_tree_v3(e, state.tree));
    let pool = state.tree.pool();
    out.section(SEC_INTERNER, |e| {
        enc_interner_v3(e, pool.arena(), pool.spans())
    });
    out.section(SEC_COLUMNS, |e| enc_columns_v3(e, state, &slots));
    out.section(SEC_STRUCT, |e| enc_struct_viols(e, &state.struct_viols));
}

/// The readers of one format version's bulk sections.
type SectionReaders = (
    fn(&mut Dec<'_>, Interner) -> Result<(DataTree, LabelSlots), StorageError>,
    fn(&mut Dec<'_>) -> Result<InternerParts, StorageError>,
    fn(&mut Dec<'_>, &DataTree, &LabelSlots) -> Result<Columns, StorageError>,
);

/// Deserializes a snapshot produced by [`encode_snapshot`] (format v3) or
/// by a build that wrote format v2, returning the state plus the WAL
/// sequence number of the last batch it captures.
///
/// Fails cleanly — never panics — on truncation, checksum mismatch,
/// unknown or repeated sections, unknown versions, and structurally
/// inconsistent payloads (the decoded tree and intern pool are
/// re-validated by the model layer).
pub fn decode_snapshot(bytes: &[u8]) -> Result<(LiveState, u64), StorageError> {
    let mut d = Dec::new(bytes, "snapshot");
    let magic = d.u32()?;
    if magic.to_le_bytes() != SNAPSHOT_MAGIC {
        return Err(StorageError::Format {
            detail: "snapshot: bad magic (not a snapshot file)".into(),
        });
    }
    let (dec_tree, dec_interner, dec_columns): SectionReaders = match d.u32()? {
        2 => (dec_tree_v2, dec_interner_v2, dec_columns_v2),
        SNAPSHOT_VERSION => (dec_tree_v3, dec_interner_v3, dec_columns_v3),
        version => {
            return Err(StorageError::Format {
                detail: format!(
                    "snapshot: format version {version} (this build reads 2 and {SNAPSHOT_VERSION})"
                ),
            })
        }
    };

    let mut seen = 0u32;
    let mut last_seq = None;
    let mut interner = None;
    let mut struct_viols = None;
    // The tree interns its values into the pool, and the columns map
    // their cells onto the tree's slots, so both decode once the whole
    // file has been read: pool, then tree, then columns.
    let mut tree_payload = None;
    let mut columns_payload = None;
    while !d.is_empty() {
        let tag = d.u32()?;
        let len = d.u64()?;
        let crc = d.u32()?;
        let Ok(len) = usize::try_from(len) else {
            return Err(StorageError::Corrupt {
                detail: "snapshot: section length does not fit this platform".into(),
            });
        };
        let payload = d.section(len)?;
        if crc32(payload) != crc {
            return Err(StorageError::Corrupt {
                detail: format!("snapshot: section {tag} fails its checksum"),
            });
        }
        if !(SEC_TREE..=SEC_META).contains(&tag) {
            return Err(StorageError::Format {
                detail: format!("snapshot: unknown section {tag} (newer format?)"),
            });
        }
        if seen & (1 << tag) != 0 {
            return Err(StorageError::Corrupt {
                detail: format!("snapshot: section {tag} appears twice"),
            });
        }
        seen |= 1 << tag;
        let mut pd = Dec::new(payload, "snapshot");
        match tag {
            SEC_META => last_seq = Some(pd.u64()?),
            SEC_TREE => {
                tree_payload = Some(payload);
                continue;
            }
            SEC_INTERNER => interner = Some(dec_interner(&mut pd)?),
            SEC_COLUMNS => {
                columns_payload = Some(payload);
                continue;
            }
            // SEC_STRUCT, the one tag left.
            _ => struct_viols = Some(dec_struct_viols(&mut pd)?),
        }
        if !pd.is_empty() {
            return Err(StorageError::Corrupt {
                detail: format!("snapshot: section {tag} has trailing bytes"),
            });
        }
    }

    let missing = |what: &str| StorageError::Corrupt {
        detail: format!("snapshot: missing {what} section"),
    };
    let pool = pool_of(interner.ok_or_else(|| missing("interner"))?)?;
    let trailing = |tag: u32| StorageError::Corrupt {
        detail: format!("snapshot: section {tag} has trailing bytes"),
    };
    let mut pd = Dec::new(tree_payload.ok_or_else(|| missing("tree"))?, "snapshot");
    let (tree, slots) = dec_tree(&mut pd, pool)?;
    if !pd.is_empty() {
        return Err(trailing(SEC_TREE));
    }
    let mut pd = Dec::new(
        columns_payload.ok_or_else(|| missing("columns"))?,
        "snapshot",
    );
    let (singles, sets) = dec_columns(&mut pd, &tree, &slots)?;
    if !pd.is_empty() {
        return Err(trailing(SEC_COLUMNS));
    }
    Ok((
        LiveState {
            tree,
            singles,
            sets,
            struct_viols: struct_viols.ok_or_else(|| missing("structural violation"))?,
        },
        last_seq.ok_or_else(|| missing("meta"))?,
    ))
}

/// Writes `state` (with its last applied WAL sequence, see
/// [`encode_snapshot`]) to `path` atomically: stream the encoding into a
/// `.tmp` sibling, fsync it, rename over `path`, fsync the directory. A
/// crash at any point leaves either the old snapshot or the new one —
/// never a torn file.
///
/// The encoding never exists whole in memory: each section goes out
/// through one bounded buffer with its CRC folded in as the bytes pass,
/// and its length and CRC are patched in by seeking back. The file holds
/// exactly [`encode_snapshot`]'s bytes.
pub fn write_snapshot<'a>(
    path: &Path,
    state: impl Into<LiveStateRef<'a>>,
    last_seq: u64,
) -> Result<(), StorageError> {
    let tmp = path.with_extension("tmp");
    let io = |context: &str| {
        let context = context.to_string();
        move |source: std::io::Error| StorageError::Io { context, source }
    };
    let mut f = File::create(&tmp).map_err(io(&format!("create {}", tmp.display())))?;
    let mut out = Enc::to(&mut f);
    encode(&mut out, &state.into(), last_seq);
    out.finish()
        .map_err(io(&format!("write {}", tmp.display())))?;
    f.sync_all()
        .map_err(io(&format!("sync {}", tmp.display())))?;
    drop(f);
    fs::rename(&tmp, path).map_err(io(&format!(
        "rename {} over {}",
        tmp.display(),
        path.display()
    )))?;
    if let Some(dir) = path.parent() {
        // Make the rename itself durable.
        File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(io(&format!("sync directory {}", dir.display())))?;
    }
    Ok(())
}

/// Reads and decodes the snapshot at `path`; see [`decode_snapshot`] for
/// the returned pair.
pub fn read_snapshot(path: &Path) -> Result<(LiveState, u64), StorageError> {
    let bytes = fs::read(path).map_err(|source| StorageError::Io {
        context: format!("read {}", path.display()),
        source,
    })?;
    decode_snapshot(&bytes)
}
