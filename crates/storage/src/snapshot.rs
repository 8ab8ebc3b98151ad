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

use std::borrow::Cow;
use std::fs::{self, File};
use std::io::{Read, Seek, SeekFrom};
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
    decode_image(bytes.len() as u64, |at, len| {
        let at = at as usize;
        Ok(Cow::Borrowed(&bytes[at..at + len]))
    })
}

/// Where one section's payload lies in a snapshot image, and its CRC.
#[derive(Clone, Copy)]
struct Section {
    at: u64,
    len: usize,
    crc: u32,
}

/// The one snapshot reader, over an image of `size` bytes that `read`
/// hands out a piece at a time (`read(at, len)` is only asked for bytes
/// inside the image). It lists the sections from their headers first,
/// then reads each payload as its decoder needs it, so that a reader of a
/// file holds one section's bytes at a time: the interner before the tree
/// that interns into its pool, the tree before the columns that map onto
/// its slots.
fn decode_image<'a>(
    size: u64,
    mut read: impl FnMut(u64, usize) -> Result<Cow<'a, [u8]>, StorageError>,
) -> Result<(LiveState, u64), StorageError> {
    let head = read(0, size.min(8) as usize)?;
    let mut d = Dec::new(&head, "snapshot");
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

    // The section table, by tag.
    let mut sections: [Option<Section>; SEC_META as usize + 1] = [None; SEC_META as usize + 1];
    let mut at = 8;
    while at < size {
        let head = read(at, (size - at).min(16) as usize)?;
        let mut d = Dec::new(&head, "snapshot");
        let tag = d.u32()?;
        let len = d.u64()?;
        let crc = d.u32()?;
        let Ok(len) = usize::try_from(len) else {
            return Err(StorageError::Corrupt {
                detail: "snapshot: section length does not fit this platform".into(),
            });
        };
        at += 16;
        if size - at < len as u64 {
            return Err(StorageError::Corrupt {
                detail: format!("snapshot: input ends early at byte {at}"),
            });
        }
        let section = Section { at, len, crc };
        at += len as u64;
        let known = (SEC_TREE..=SEC_META).contains(&tag);
        if known && sections[tag as usize].is_none() {
            sections[tag as usize] = Some(section);
            continue;
        }
        // A section the reader refuses still fails its checksum first.
        checked(&mut read, tag, section)?;
        return Err(if known {
            StorageError::Corrupt {
                detail: format!("snapshot: section {tag} appears twice"),
            }
        } else {
            StorageError::Format {
                detail: format!("snapshot: unknown section {tag} (newer format?)"),
            }
        });
    }

    let mut payload = |tag: u32, what: &str| {
        let section = sections[tag as usize].ok_or_else(|| StorageError::Corrupt {
            detail: format!("snapshot: missing {what} section"),
        })?;
        checked(&mut read, tag, section)
    };
    let last_seq = whole(SEC_META, &payload(SEC_META, "meta")?, |d| d.u64())?;
    let interner = whole(
        SEC_INTERNER,
        &payload(SEC_INTERNER, "interner")?,
        dec_interner,
    )?;
    let pool = pool_of(interner)?;
    let (tree, slots) = whole(SEC_TREE, &payload(SEC_TREE, "tree")?, |d| dec_tree(d, pool))?;
    let (singles, sets) = whole(SEC_COLUMNS, &payload(SEC_COLUMNS, "columns")?, |d| {
        dec_columns(d, &tree, &slots)
    })?;
    let struct_viols = whole(
        SEC_STRUCT,
        &payload(SEC_STRUCT, "structural violation")?,
        dec_struct_viols,
    )?;
    Ok((
        LiveState {
            tree,
            singles,
            sets,
            struct_viols,
        },
        last_seq,
    ))
}

/// Reads section `tag`'s payload and checks its CRC.
fn checked<'a>(
    read: &mut impl FnMut(u64, usize) -> Result<Cow<'a, [u8]>, StorageError>,
    tag: u32,
    s: Section,
) -> Result<Cow<'a, [u8]>, StorageError> {
    let payload = read(s.at, s.len)?;
    if crc32(&payload) != s.crc {
        return Err(StorageError::Corrupt {
            detail: format!("snapshot: section {tag} fails its checksum"),
        });
    }
    Ok(payload)
}

/// Decodes section `tag` from `payload`, which `decode` must consume
/// whole.
fn whole<T>(
    tag: u32,
    payload: &[u8],
    decode: impl FnOnce(&mut Dec<'_>) -> Result<T, StorageError>,
) -> Result<T, StorageError> {
    let mut d = Dec::new(payload, "snapshot");
    let value = decode(&mut d)?;
    if !d.is_empty() {
        return Err(StorageError::Corrupt {
            detail: format!("snapshot: section {tag} has trailing bytes"),
        });
    }
    Ok(value)
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
/// the returned pair. The file is read one section at a time, each
/// section's bytes dropped once it is decoded, so the whole image is
/// never held.
pub fn read_snapshot(path: &Path) -> Result<(LiveState, u64), StorageError> {
    let io = |source| StorageError::Io {
        context: format!("read {}", path.display()),
        source,
    };
    let mut file = File::open(path).map_err(io)?;
    let size = file.metadata().map_err(io)?.len();
    decode_image(size, |at, len| {
        let mut buf = vec![0; len];
        file.seek(SeekFrom::Start(at))
            .and_then(|_| file.read_exact(&mut buf))
            .map_err(io)?;
        Ok(Cow::Owned(buf))
    })
}

#[cfg(test)]
mod tests {
    use std::mem::discriminant;

    use xic_constraints::{Constraint, DtdC, DtdStructure, Field, Language};
    use xic_model::{AttrValue, TreeBuilder};
    use xic_validate::{LiveValidator, Validator};

    use super::*;

    /// `read_snapshot` takes a file's sections one read at a time and
    /// `decode_snapshot` slices one buffer; the two must agree on every
    /// truncation and every flipped bit of a snapshot, error class
    /// included.
    #[test]
    fn a_file_reads_as_its_bytes_decode() {
        let s = DtdStructure::builder("db")
            .elem("db", "t*")
            .elem("t", "S")
            .attr("t", "a", "S")
            .build()
            .expect("a well-formed structure");
        let key = Constraint::Key {
            tau: "t".into(),
            fields: vec![Field::attr("a")],
        };
        let dtdc = DtdC::new_unchecked(s, Language::Lu, vec![key]);
        let mut b = TreeBuilder::new();
        let root = b.node("db");
        for i in 0..5 {
            let t = b.leaf(root, "t", format!("text {i}")).unwrap();
            b.attr(t, "a", AttrValue::single(format!("k{}", i % 3)))
                .unwrap();
        }
        let v = Validator::new(&dtdc);
        let live = LiveValidator::new(&v, b.finish(root).unwrap());
        let bytes = encode_snapshot(&live, 3);

        let dir = std::env::temp_dir().join(format!("xic-snapshot-read-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.bin");
        let outcome = |r: Result<(LiveState, u64), StorageError>| {
            r.map(|(state, seq)| encode_snapshot(&state, seq))
                .map_err(|e| discriminant(&e))
        };
        let mut images = vec![bytes.clone()];
        images.extend((0..bytes.len()).map(|cut| bytes[..cut].to_vec()));
        images.extend((0..bytes.len() * 8).map(|bit| {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            flipped
        }));
        for image in &images {
            fs::write(&path, image).unwrap();
            assert_eq!(
                outcome(read_snapshot(&path)),
                outcome(decode_snapshot(image)),
                "an image of {} bytes",
                image.len()
            );
        }
        fs::write(&path, &bytes).unwrap();
        assert_eq!(outcome(read_snapshot(&path)), Ok(bytes));
        fs::remove_dir_all(&dir).ok();
        assert!(matches!(read_snapshot(&path), Err(StorageError::Io { .. })));
    }
}
