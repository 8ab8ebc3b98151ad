//! Little-endian binary codecs for the model and validator types.
//!
//! Two encodings live here:
//!
//! * **v2** — fixed-width integers, u64 length prefixes and tag bytes, all
//!   little-endian. WAL records (format v2) are written in it; snapshot
//!   v2 files are only read ([`dec_tree_v2`], [`dec_interner_v2`],
//!   [`dec_columns_v2`]).
//! * **v3** — the snapshot's three bulk sections in LEB128 varints. A
//!   tree names each label and attribute name by a varint id into a
//!   dictionary built inline: the first use of an id is followed by its
//!   spelling, so encoder and decoder each make one pass. A child is one
//!   varint (`id << 1 | 1`, or `len << 1` before the text's bytes); a
//!   column cell is `sym + 1` (0 = absent); an interner span is its
//!   length, plus a zigzag gap only when it does not start where the
//!   previous one ended.
//!
//! Every decode validates a length against the remaining input *before*
//! allocating, so a corrupted length field produces a clean
//! [`StorageError::Corrupt`] instead of an allocation panic; a varint
//! past u64 (or past u32 where the value is a u32) is corrupt too.

use std::collections::hash_map::{Entry, HashMap};
use std::fs::File;
use std::io::{self, Seek, SeekFrom, Write};

use xic_constraints::Field;
use xic_model::{
    AttrValue, Child, DataTree, Interner, Name, NodeId, RawAttr, RawNode, RawTree, Sym,
};
use xic_validate::{BatchEdit, ColumnRows, LiveStateRef, Violation};

use crate::crc::crc32_extend;
use crate::StorageError;

/// The buffer size at which a streaming [`Enc`] writes its bytes out.
const FLUSH_AT: usize = 64 << 10;

/// An encode buffer. `Enc::default()` keeps every byte in `buf`; an
/// encoder over a file ([`Enc::to`]) writes `buf` out whenever it reaches
/// [`FLUSH_AT`] bytes, so encoding a snapshot of any size holds one
/// bounded buffer. Both run the same writers, so they emit the same bytes.
#[derive(Default)]
pub(crate) struct Enc<'f> {
    /// The bytes not yet written out (all of them in memory).
    pub(crate) buf: Vec<u8>,
    file: Option<&'f mut File>,
    /// Bytes already written out.
    sent: u64,
    /// The open section, if any (see [`Enc::section`]).
    open: Option<Open>,
    /// The first write error; later writes are dropped.
    error: Option<io::Error>,
}

/// A section whose payload is being written: its checksum over the
/// payload bytes already written out, and where the rest of its payload
/// starts in `buf`.
struct Open {
    crc: u32,
    from: usize,
}

impl<'f> Enc<'f> {
    /// An encoder streaming into `file` through one bounded buffer.
    pub(crate) fn to(file: &'f mut File) -> Self {
        Enc {
            buf: Vec::with_capacity(FLUSH_AT),
            file: Some(file),
            ..Enc::default()
        }
    }

    /// Writes out what is buffered and returns the first write error.
    pub(crate) fn finish(mut self) -> io::Result<()> {
        self.flush();
        self.error.map_or(Ok(()), Err)
    }

    /// The stream offset of the next byte.
    fn pos(&self) -> u64 {
        self.sent + self.buf.len() as u64
    }

    /// Writes `buf` out, folding the open section's share of it into the
    /// section's checksum first.
    fn flush(&mut self) {
        let Some(file) = self.file.as_deref_mut() else {
            return;
        };
        if let Some(open) = &mut self.open {
            open.crc = crc32_extend(open.crc, &self.buf[open.from..]);
            open.from = 0;
        }
        if self.error.is_none() {
            self.error = file.write_all(&self.buf).err();
        }
        self.sent += self.buf.len() as u64;
        self.buf.clear();
    }

    /// Makes room for `n ≤ FLUSH_AT` more bytes in a streaming buffer.
    #[inline]
    fn room(&mut self, n: usize) {
        if self.file.is_some() && self.buf.len() + n > FLUSH_AT {
            self.flush();
        }
    }

    /// Appends `v` as is.
    pub(crate) fn raw(&mut self, v: &[u8]) {
        for chunk in v.chunks(FLUSH_AT) {
            self.room(chunk.len());
            self.buf.extend_from_slice(chunk);
        }
    }

    /// Appends `n` zero bytes.
    pub(crate) fn zeros(&mut self, mut n: usize) {
        while n > 0 {
            let k = n.min(FLUSH_AT);
            self.room(k);
            self.buf.resize(self.buf.len() + k, 0);
            n -= k;
        }
    }

    /// Writes one section: its tag, then a length and CRC-32 placeholder
    /// patched once `payload` has written the bytes they cover, and
    /// returns what `payload` returns. The checksum is folded in as the
    /// payload goes out; a header already written out is patched by
    /// seeking back.
    pub(crate) fn section<R>(&mut self, tag: u32, payload: impl FnOnce(&mut Self) -> R) -> R {
        self.u32(tag);
        let header = self.pos();
        // One 12-byte write, so the header is wholly written out or
        // wholly buffered.
        self.raw(&[0; 12]);
        self.open = Some(Open {
            crc: 0,
            from: self.buf.len(),
        });
        let out = payload(self);
        let open = self.open.take().expect("the section is open");
        let crc = crc32_extend(open.crc, &self.buf[open.from..]);
        let mut fields = [0; 12];
        fields[..8].copy_from_slice(&(self.pos() - header - 12).to_le_bytes());
        fields[8..].copy_from_slice(&crc.to_le_bytes());
        match header.checked_sub(self.sent) {
            Some(at) => self.buf[at as usize..at as usize + 12].copy_from_slice(&fields),
            None => {
                let file = self.file.as_deref_mut().expect("only a file takes bytes");
                if self.error.is_none() {
                    self.error = patch(file, header, &fields).err();
                }
            }
        }
        out
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.room(1);
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    pub(crate) fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.len(v.len());
        self.raw(v);
    }

    pub(crate) fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// An unsigned LEB128 varint: seven bits per byte, low bits first,
    /// the high bit set on every byte but the last.
    #[inline]
    pub(crate) fn var(&mut self, mut v: u64) {
        self.room(10);
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    pub(crate) fn var_str(&mut self, v: &str) {
        self.var(v.len() as u64);
        self.raw(v.as_bytes());
    }
}

/// Overwrites `bytes` at offset `at` of `file`, then seeks back to where
/// the stream left off.
fn patch(file: &mut File, at: u64, bytes: &[u8]) -> io::Result<()> {
    let end = file.stream_position()?;
    file.seek(SeekFrom::Start(at))?;
    file.write_all(bytes)?;
    file.seek(SeekFrom::Start(end)).map(drop)
}

/// A bounds-checked decode cursor over one buffer.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    /// What is being decoded, for error messages ("snapshot", "wal record").
    what: &'static str,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8], what: &'static str) -> Self {
        Dec { buf, pos: 0, what }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// The bytes `s`, the string just read, occupies in the buffer.
    fn just_read(&self, s: &str) -> (usize, usize) {
        (self.pos - s.len(), self.pos)
    }

    pub(crate) fn corrupt<T>(&self, detail: &str) -> Result<T, StorageError> {
        Err(StorageError::Corrupt {
            detail: format!("{}: {} at byte {}", self.what, detail, self.pos),
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        if self.buf.len() - self.pos < n {
            return self.corrupt("input ends early");
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, StorageError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, StorageError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, StorageError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A u64 length prefix, validated to fit in the remaining input when
    /// each element occupies at least `min_elem` bytes (pass 0 to skip the
    /// occupancy check, e.g. for element counts of variable-size records).
    pub(crate) fn len(&mut self, min_elem: usize) -> Result<usize, StorageError> {
        let n = self.u64()?;
        self.fit(n, min_elem)
    }

    /// Checks a decoded length `n` against the remaining input, as
    /// [`Dec::len`] describes.
    fn fit(&self, n: u64, min_elem: usize) -> Result<usize, StorageError> {
        let Ok(n) = usize::try_from(n) else {
            return self.corrupt("length does not fit this platform");
        };
        if min_elem > 0 && n > (self.buf.len() - self.pos) / min_elem {
            return self.corrupt("length exceeds remaining input");
        }
        Ok(n)
    }

    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], StorageError> {
        let n = self.len(1)?;
        self.take(n)
    }

    pub(crate) fn str(&mut self) -> Result<&'a str, StorageError> {
        let n = self.len(1)?;
        self.str_of(n)
    }

    /// The next `n` bytes as a UTF-8 string.
    fn str_of(&mut self, n: usize) -> Result<&'a str, StorageError> {
        let pos = self.pos;
        match std::str::from_utf8(self.take(n)?) {
            Ok(s) => Ok(s),
            Err(_) => {
                self.pos = pos;
                self.corrupt("string is not valid UTF-8")
            }
        }
    }

    /// An unsigned LEB128 varint (see [`Enc::var`]). A tenth byte may
    /// hold only bit 63, so an encoding past u64 is corrupt.
    #[inline]
    pub(crate) fn var(&mut self) -> Result<u64, StorageError> {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let Some(&b) = self.buf.get(self.pos) else {
                return self.corrupt("input ends inside a varint");
            };
            self.pos += 1;
            if shift == 63 && b > 1 {
                return self.corrupt("varint overflows u64");
            }
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    pub(crate) fn var_u32(&mut self) -> Result<u32, StorageError> {
        let v = self.var()?;
        u32::try_from(v).or_else(|_| self.corrupt("varint overflows u32"))
    }

    /// A varint length prefix, checked like [`Dec::len`].
    pub(crate) fn var_len(&mut self, min_elem: usize) -> Result<usize, StorageError> {
        let n = self.var()?;
        self.fit(n, min_elem)
    }

    pub(crate) fn var_bytes(&mut self) -> Result<&'a [u8], StorageError> {
        let n = self.var_len(1)?;
        self.take(n)
    }

    pub(crate) fn var_str(&mut self) -> Result<&'a str, StorageError> {
        let n = self.var_len(1)?;
        self.str_of(n)
    }
}

// ---------------------------------------------------------------------------
// Scalar wrappers.

fn dec_opt_u32(d: &mut Dec<'_>) -> Result<Option<u32>, StorageError> {
    // 0 = absent, else value + 1 — mirrors the `NonZeroU32` niche the
    // in-memory types use.
    Ok(match d.u32()? {
        0 => None,
        x => Some(x - 1),
    })
}

/// A symbol from its dense index. u32::MAX is the one index `Sym` cannot
/// represent (index + 1 must be non-zero); constructing it would panic,
/// and decoding never panics.
fn sym_of(d: &Dec<'_>, index: u64) -> Result<Sym, StorageError> {
    match u32::try_from(index) {
        Ok(i) if i != u32::MAX => Ok(Sym::from_index(i)),
        _ => d.corrupt("symbol index is past u32::MAX - 1"),
    }
}

fn dec_sym_v2(d: &mut Dec<'_>) -> Result<Sym, StorageError> {
    let index = d.u32()?;
    sym_of(d, index.into())
}

/// A cell of a v3 single-valued column: `sym + 1`, 0 = absent.
fn dec_cell_v3(d: &mut Dec<'_>) -> Result<Option<Sym>, StorageError> {
    match d.var()? {
        0 => Ok(None),
        v => sym_of(d, v - 1).map(Some),
    }
}

fn enc_node_id(e: &mut Enc, n: NodeId) {
    e.u32(n.index() as u32);
}

fn dec_node_id(d: &mut Dec<'_>) -> Result<NodeId, StorageError> {
    Ok(NodeId::from_index(d.u32()? as usize))
}

/// A node id from a decoded varint, which may exceed the u32 id space.
fn node_of(d: &Dec<'_>, index: u64) -> Result<NodeId, StorageError> {
    match u32::try_from(index) {
        Ok(i) => Ok(NodeId::from_index(i as usize)),
        Err(_) => d.corrupt("node id overflows u32"),
    }
}

/// A value set in format v2: its member count, then each member.
fn enc_members<'a>(e: &mut Enc, members: impl ExactSizeIterator<Item = &'a str>) {
    e.len(members.len());
    for m in members {
        e.str(m);
    }
}

fn dec_attr_value(d: &mut Dec<'_>) -> Result<AttrValue, StorageError> {
    let n = d.len(8)?;
    let mut members = Vec::with_capacity(n);
    for _ in 0..n {
        members.push(d.str()?.to_string());
    }
    Ok(AttrValue::set(members))
}

// ---------------------------------------------------------------------------
// Trees.

/// The tombstone flag byte, then one bit per slot — only if the tree has
/// a tombstone.
fn enc_dead(e: &mut Enc, t: &DataTree) {
    let slots = t.id_bound();
    let has_dead = t.len() < slots;
    e.u8(u8::from(has_dead));
    if has_dead {
        for first in (0..slots).step_by(8) {
            let dead = (first..slots.min(first + 8))
                .filter(|&i| !t.is_alive(NodeId::from_index(i)))
                .fold(0, |byte, i| byte | 1 << (i % 8));
            e.u8(dead);
        }
    }
}

fn dec_dead(d: &mut Dec<'_>, n: usize) -> Result<Vec<bool>, StorageError> {
    Ok(if d.u8()? != 0 {
        let bits = d.take(n.div_ceil(8))?;
        (0..n).map(|i| bits[i / 8] & (1 << (i % 8)) != 0).collect()
    } else {
        Vec::new()
    })
}

/// A tree decoder's output before validation: the raw tree, and the
/// arena slots of each dictionary id used as a label (its slot list
/// empty for an id only attributes use).
///
/// Values are interned [`TreeSink::CHUNK`] at a time through
/// [`Interner::intern_group`], straight from the payload's bytes, so that
/// the pool's table loads overlap. Until [`TreeSink::finish`] a member or
/// text child holds its value's number (order of arrival) in place of a
/// symbol.
struct TreeSink<'a> {
    raw: RawTree,
    slots_of: Vec<Vec<u32>>,
    /// The payload the values are read from, and the byte ranges of
    /// those not yet interned.
    buf: &'a [u8],
    ranges: Vec<(usize, usize)>,
    /// Value number ↦ symbol, for the values interned so far.
    syms: Vec<Sym>,
}

impl<'a> TreeSink<'a> {
    const CHUNK: usize = 1024;

    fn new(pool: Interner, n: usize, d: &Dec<'a>) -> Self {
        TreeSink {
            raw: RawTree {
                pool,
                nodes: Vec::with_capacity(n),
                ..RawTree::default()
            },
            slots_of: Vec::new(),
            buf: d.buf,
            ranges: Vec::with_capacity(Self::CHUNK),
            syms: Vec::new(),
        }
    }

    /// Takes value `s`, just read from `d`, returning its number.
    fn value(&mut self, d: &Dec<'a>, s: &str) -> Sym {
        let number = self.syms.len() + self.ranges.len();
        self.ranges.push(d.just_read(s));
        if self.ranges.len() == Self::CHUNK {
            self.flush();
        }
        Sym::from_index(number as u32)
    }

    fn flush(&mut self) {
        (self.raw.pool).intern_group(self.buf, &self.ranges, &mut self.syms);
        self.ranges.clear();
    }

    /// Starts the next slot, labelled with dictionary id `label`.
    fn node(&mut self, label: u32, parent: Option<NodeId>) {
        let at = self.raw.nodes.len() as u32;
        if self.slots_of.len() <= label as usize {
            self.slots_of.resize_with(label as usize + 1, Vec::new);
        }
        self.slots_of[label as usize].push(at);
        self.raw.nodes.push(RawNode {
            label,
            children: 0,
            attrs: 0,
            parent,
        });
    }

    /// Appends `c` to the last slot's child list.
    fn child(&mut self, c: Child) {
        self.raw.children.push(c);
        if let Some(node) = self.raw.nodes.last_mut() {
            node.children += 1;
        }
    }

    /// Adds an attribute named by dictionary id `name` to the last slot,
    /// with `members` read from `d` by `member`.
    fn attr(
        &mut self,
        d: &mut Dec<'a>,
        name: u32,
        members: usize,
        mut member: impl FnMut(&mut Dec<'a>) -> Result<&'a str, StorageError>,
    ) -> Result<(), StorageError> {
        for _ in 0..members {
            let m = member(d)?;
            let number = self.value(d, m);
            self.raw.members.push(number);
        }
        let members = members as u32;
        self.raw.attrs.push(RawAttr { name, members });
        if let Some(node) = self.raw.nodes.last_mut() {
            node.attrs += 1;
        }
        Ok(())
    }

    fn finish(
        mut self,
        root: NodeId,
        dead: Vec<bool>,
    ) -> Result<(DataTree, LabelSlots), StorageError> {
        self.flush();
        let sym = |number: Sym| self.syms[number.index()];
        for m in &mut self.raw.members {
            *m = sym(*m);
        }
        for c in &mut self.raw.children {
            if let Child::Text(t) = c {
                *t = sym(*t);
            }
        }
        let slots = LabelSlots::from_walk(&self.raw.names, self.slots_of);
        let tree =
            DataTree::from_raw_parts(self.raw, root, dead).map_err(|e| StorageError::Corrupt {
                detail: format!("tree: decoded parts are inconsistent: {e}"),
            })?;
        Ok((tree, slots))
    }
}

/// Encodes every arena slot of `t` in format v2, tombstones included, so
/// node ids stay stable across a round trip. The WAL writes inserted
/// fragments with it.
pub(crate) fn enc_tree_v2(e: &mut Enc, t: &DataTree) {
    let slots = t.id_bound();
    e.len(slots);
    e.u32(t.root().index() as u32);
    enc_dead(e, t);
    for i in 0..slots {
        let id = NodeId::from_index(i);
        e.str(t.label(id));
        e.u32(t.node(id).parent().map_or(0, |p| p.index() as u32 + 1));
        e.len(t.children(id).len());
        for &c in t.children(id) {
            match c {
                Child::Text(text) => {
                    e.u8(0);
                    e.str(t.pool().resolve(text));
                }
                Child::Node(child) => {
                    e.u8(1);
                    enc_node_id(e, child);
                }
            }
        }
        e.len(t.attrs(id).len());
        for (name, val) in t.attrs(id) {
            e.str(name);
            enc_members(e, val.values());
        }
    }
}

/// Gives each distinct spelling one dictionary id while decoding a v2
/// tree, which spells out every label and attribute name: a refcount bump
/// is far cheaper than a fresh `Arc<str>` for each of a million nodes,
/// and a tree loaded from a v2 file stays as small in memory as one
/// loaded from v3.
#[derive(Default)]
struct NameCache<'a> {
    seen: HashMap<&'a str, u32>,
}

impl<'a> NameCache<'a> {
    fn get(&mut self, s: &'a str, names: &mut Vec<Name>) -> u32 {
        *self.seen.entry(s).or_insert_with(|| {
            names.push(Name::new(s));
            names.len() as u32 - 1
        })
    }
}

/// Decodes a v2 tree, interning its values into `pool`.
pub(crate) fn dec_tree_v2(
    d: &mut Dec<'_>,
    pool: Interner,
) -> Result<(DataTree, LabelSlots), StorageError> {
    let n = d.len(1)?;
    let root = NodeId::from_index(d.u32()? as usize);
    let dead = dec_dead(d, n)?;
    let mut names = NameCache::default();
    let mut sink = TreeSink::new(pool, n, d);
    for _ in 0..n {
        let label = names.get(d.str()?, &mut sink.raw.names);
        let parent = dec_opt_u32(d)?.map(|p| NodeId::from_index(p as usize));
        let nchildren = d.len(1)?;
        sink.node(label, parent);
        for _ in 0..nchildren {
            let c = match d.u8()? {
                0 => {
                    let text = d.str()?;
                    Child::Text(sink.value(d, text))
                }
                1 => Child::Node(dec_node_id(d)?),
                t => {
                    return Err(StorageError::Corrupt {
                        detail: format!("tree: unknown child tag {t}"),
                    })
                }
            };
            sink.child(c);
        }
        let nattrs = d.len(8)?;
        for _ in 0..nattrs {
            let name = names.get(d.str()?, &mut sink.raw.names);
            let nmembers = d.len(8)?;
            sink.attr(d, name, nmembers, Dec::str)?;
        }
    }
    sink.finish(root, dead)
}

/// The v3 tree encoder's name dictionary: each spelling's id, in order
/// of first use.
#[derive(Default)]
struct Dict<'t> {
    ids: HashMap<&'t str, usize>,
    names: Vec<Name>,
}

impl<'t> Dict<'t> {
    /// Writes `name` as its dictionary id, assigning the next id (followed
    /// by the spelling) on first use.
    fn id(&mut self, e: &mut Enc, name: &'t Name) -> usize {
        let next = self.names.len();
        match self.ids.entry(name) {
            Entry::Occupied(id) => {
                e.var(*id.get() as u64);
                *id.get()
            }
            Entry::Vacant(slot) => {
                slot.insert(next);
                self.names.push(name.clone());
                e.var(next as u64);
                e.var_str(name);
                next
            }
        }
    }
}

/// Reads a dictionary id: a known one is returned, the next one brings
/// its spelling, and any other is corrupt.
fn dec_name(d: &mut Dec<'_>, names: &mut Vec<Name>) -> Result<u32, StorageError> {
    let id = d.var()?;
    if id < names.len() as u64 {
        return Ok(id as u32);
    }
    if id != names.len() as u64 {
        return d.corrupt("name id past the dictionary");
    }
    names.push(Name::new(d.var_str()?));
    Ok(id as u32)
}

/// Encodes every arena slot of `t` in format v3, tombstones included, so
/// node ids stay stable across a round trip. The tree is read in place
/// through its public accessors; [`dec_tree_v3`] rebuilds it with
/// [`DataTree::from_raw_parts`]. Returns each label's slots, listed on
/// the way, for the columns section.
pub(crate) fn enc_tree_v3(e: &mut Enc, t: &DataTree) -> LabelSlots {
    let slots = t.id_bound();
    e.var(slots as u64);
    e.var(t.root().index() as u64);
    enc_dead(e, t);
    let mut dict = Dict::default();
    let mut slots_of: Vec<Vec<u32>> = Vec::new();
    for i in 0..slots {
        let id = NodeId::from_index(i);
        let label = dict.id(e, t.label(id));
        if slots_of.len() <= label {
            slots_of.resize_with(label + 1, Vec::new);
        }
        slots_of[label].push(i as u32);
        e.var(t.node(id).parent().map_or(0, |p| p.index() as u64 + 1));
        e.var(t.children(id).len() as u64);
        for &c in t.children(id) {
            match c {
                Child::Text(text) => {
                    let text = t.pool().resolve(text);
                    e.var((text.len() as u64) << 1);
                    e.raw(text.as_bytes());
                }
                Child::Node(child) => e.var((child.index() as u64) << 1 | 1),
            }
        }
        e.var(t.attrs(id).len() as u64);
        for (n, val) in t.attrs(id) {
            dict.id(e, n);
            e.var(val.len() as u64);
            for m in val.values() {
                e.var_str(m);
            }
        }
    }
    LabelSlots::from_walk(&dict.names, slots_of)
}

/// Decodes a v3 tree, interning its values into `pool`, and lists each
/// label's slots on the way.
pub(crate) fn dec_tree_v3(
    d: &mut Dec<'_>,
    pool: Interner,
) -> Result<(DataTree, LabelSlots), StorageError> {
    // A slot is at least four one-byte varints: label, parent, and the
    // child and attribute counts.
    let n = d.var_len(4)?;
    let root = NodeId::from_index(d.var_u32()? as usize);
    let dead = dec_dead(d, n)?;
    let mut sink = TreeSink::new(pool, n, d);
    for _ in 0..n {
        let label = dec_name(d, &mut sink.raw.names)?;
        let parent = match d.var()? {
            0 => None,
            p => Some(node_of(d, p - 1)?),
        };
        let nchildren = d.var_len(1)?;
        sink.node(label, parent);
        for _ in 0..nchildren {
            let c = d.var()?;
            let c = if c & 1 == 1 {
                Child::Node(node_of(d, c >> 1)?)
            } else {
                let len = d.fit(c >> 1, 1)?;
                let text = d.str_of(len)?;
                Child::Text(sink.value(d, text))
            };
            sink.child(c);
        }
        // An attribute is at least its name id and its member count.
        let nattrs = d.var_len(2)?;
        for _ in 0..nattrs {
            let name = dec_name(d, &mut sink.raw.names)?;
            let nmembers = d.var_len(1)?;
            sink.attr(d, name, nmembers, Dec::var_str)?;
        }
    }
    sink.finish(root, dead)
}

// ---------------------------------------------------------------------------
// Constraint fields and violations.

fn enc_field_v3(e: &mut Enc, f: &Field) {
    let (tag, name) = match f {
        Field::Attr(n) => (0, n),
        Field::Sub(n) => (1, n),
    };
    e.u8(tag);
    e.var_str(name);
}

fn field_of(tag: u8, name: &str) -> Result<Field, StorageError> {
    let name = Name::new(name);
    match tag {
        0 => Ok(Field::Attr(name)),
        1 => Ok(Field::Sub(name)),
        t => Err(StorageError::Corrupt {
            detail: format!("field: unknown tag {t}"),
        }),
    }
}

fn dec_field_v2(d: &mut Dec<'_>) -> Result<Field, StorageError> {
    let tag = d.u8()?;
    field_of(tag, d.str()?)
}

fn dec_field_v3(d: &mut Dec<'_>) -> Result<Field, StorageError> {
    let tag = d.u8()?;
    field_of(tag, d.var_str()?)
}

fn enc_violation(e: &mut Enc, v: &Violation) {
    match v {
        Violation::RootLabel { expected, found } => {
            e.u8(0);
            e.str(expected);
            e.str(found);
        }
        Violation::UnknownElementType { node, label } => {
            e.u8(1);
            enc_node_id(e, *node);
            e.str(label);
        }
        Violation::ContentModel {
            node,
            tau,
            expected,
            found,
        } => {
            e.u8(2);
            enc_node_id(e, *node);
            e.str(tau);
            e.str(expected);
            e.str(found);
        }
        Violation::UndeclaredAttribute { node, attr } => {
            e.u8(3);
            enc_node_id(e, *node);
            e.str(attr);
        }
        Violation::MissingAttribute { node, attr } => {
            e.u8(4);
            enc_node_id(e, *node);
            e.str(attr);
        }
        Violation::NotSingleton { node, attr, len } => {
            e.u8(5);
            enc_node_id(e, *node);
            e.str(attr);
            e.len(*len);
        }
        Violation::Key {
            constraint,
            a,
            b,
            value,
        } => {
            e.u8(6);
            e.str(constraint);
            enc_node_id(e, *a);
            enc_node_id(e, *b);
            e.str(value);
        }
        Violation::ForeignKey {
            constraint,
            node,
            value,
        } => {
            e.u8(7);
            e.str(constraint);
            enc_node_id(e, *node);
            e.str(value);
        }
        Violation::MissingField {
            constraint,
            node,
            field,
        } => {
            e.u8(8);
            e.str(constraint);
            enc_node_id(e, *node);
            e.str(field);
        }
        Violation::DuplicateId {
            constraint,
            a,
            b,
            value,
        } => {
            e.u8(9);
            e.str(constraint);
            enc_node_id(e, *a);
            enc_node_id(e, *b);
            e.str(value);
        }
        Violation::Inverse {
            constraint,
            from,
            to,
        } => {
            e.u8(10);
            e.str(constraint);
            enc_node_id(e, *from);
            enc_node_id(e, *to);
        }
    }
}

fn dec_violation(d: &mut Dec<'_>) -> Result<Violation, StorageError> {
    Ok(match d.u8()? {
        0 => Violation::RootLabel {
            expected: Name::new(d.str()?),
            found: Name::new(d.str()?),
        },
        1 => Violation::UnknownElementType {
            node: dec_node_id(d)?,
            label: Name::new(d.str()?),
        },
        2 => Violation::ContentModel {
            node: dec_node_id(d)?,
            tau: Name::new(d.str()?),
            expected: d.str()?.to_string(),
            found: d.str()?.to_string(),
        },
        3 => Violation::UndeclaredAttribute {
            node: dec_node_id(d)?,
            attr: Name::new(d.str()?),
        },
        4 => Violation::MissingAttribute {
            node: dec_node_id(d)?,
            attr: Name::new(d.str()?),
        },
        5 => Violation::NotSingleton {
            node: dec_node_id(d)?,
            attr: Name::new(d.str()?),
            len: d.len(0)?,
        },
        6 => Violation::Key {
            constraint: d.str()?.to_string(),
            a: dec_node_id(d)?,
            b: dec_node_id(d)?,
            value: d.str()?.to_string(),
        },
        7 => Violation::ForeignKey {
            constraint: d.str()?.to_string(),
            node: dec_node_id(d)?,
            value: d.str()?.to_string(),
        },
        8 => Violation::MissingField {
            constraint: d.str()?.to_string(),
            node: dec_node_id(d)?,
            field: d.str()?.to_string(),
        },
        9 => Violation::DuplicateId {
            constraint: d.str()?.to_string(),
            a: dec_node_id(d)?,
            b: dec_node_id(d)?,
            value: d.str()?.to_string(),
        },
        10 => Violation::Inverse {
            constraint: d.str()?.to_string(),
            from: dec_node_id(d)?,
            to: dec_node_id(d)?,
        },
        t => {
            return Err(StorageError::Corrupt {
                detail: format!("violation: unknown tag {t}"),
            })
        }
    })
}

// ---------------------------------------------------------------------------
// Live-validator state sections.

/// The decoded interner parts: the byte arena plus its `(start, len)`
/// spans, in the shape `Interner::from_parts` consumes.
pub(crate) type InternerParts = (Vec<u8>, Vec<(u32, u32)>);

/// The document's value pool from its decoded parts; parts that do not
/// form a pool are corrupt.
pub(crate) fn pool_of((arena, spans): InternerParts) -> Result<Interner, StorageError> {
    Interner::from_parts(arena, spans).map_err(|detail| StorageError::Corrupt { detail })
}

/// The decoded columns: single-valued, then set-valued, in stored order.
pub(crate) type Columns = (
    Vec<((Name, Field), ColumnRows<Option<Sym>>)>,
    Vec<((Name, Name), ColumnRows<Vec<Sym>>)>,
);

/// A cell of a decoded column: `Option<Sym>` or a set row.
trait Cell: Clone + Default {
    fn syms(&self) -> &[Sym];
}

impl Cell for Option<Sym> {
    fn syms(&self) -> &[Sym] {
        self.as_slice()
    }
}

impl Cell for Vec<Sym> {
    fn syms(&self) -> &[Sym] {
        self
    }
}

/// Each label's arena slots in a tree, dead ones included, in id order:
/// row `r` of a column over τ holds the cell of τ's `r`-th slot (see
/// [`ColumnRows`]). The tree codecs list them as they walk the slots;
/// through them the column codecs map rows to the format's per-vertex
/// cells and back.
pub(crate) struct LabelSlots {
    /// Keyed with std's hasher, which resists crafted collisions: a
    /// decoded tree's labels come from the file.
    slots: HashMap<Name, Vec<u32>>,
}

impl LabelSlots {
    /// From a tree walk: `slots_of[id]` lists the slots labelled with
    /// dictionary id `id`, spelled `names[id]`. A corrupt file may spell
    /// one label under two ids; their slots merge in id order.
    fn from_walk(names: &[Name], slots_of: Vec<Vec<u32>>) -> Self {
        let mut slots: HashMap<Name, Vec<u32>> = HashMap::new();
        for (name, of) in names.iter().zip(slots_of).filter(|(_, of)| !of.is_empty()) {
            match slots.entry(name.clone()) {
                Entry::Vacant(e) => {
                    e.insert(of);
                }
                Entry::Occupied(mut e) => {
                    e.get_mut().extend(of);
                    e.get_mut().sort_unstable();
                }
            }
        }
        LabelSlots { slots }
    }

    fn of(&self, tau: &str) -> &[u32] {
        self.slots.get(tau).map_or(&[], Vec::as_slice)
    }

    /// Reads `ncells` per-vertex cells of `column`, `(τ, field)`, into
    /// rows over τ's slots. A cell count past the tree's id bound, or a
    /// value at a vertex of another label or at a dead one, is corrupt:
    /// the live store has no row for it. So is a symbol outside the
    /// tree's pool.
    fn dec_rows<T: Cell>(
        &self,
        tree: &DataTree,
        d: &mut Dec<'_>,
        column: (&Name, &dyn std::fmt::Display),
        ncells: usize,
        mut cell: impl FnMut(&mut Dec<'_>) -> Result<T, StorageError>,
    ) -> Result<ColumnRows<T>, StorageError> {
        let (tau, field) = column;
        let bound = tree.id_bound();
        if ncells > bound {
            return d.corrupt(&format!(
                "column ({tau}, {field}) spans {ncells} cells past the tree's id bound {bound}"
            ));
        }
        let slots = self.of(tau);
        let nsym = tree.pool().len();
        let mut rows = vec![T::default(); slots.len()];
        let mut r = 0;
        for x in 0..ncells {
            let value = cell(d)?;
            if let Some(s) = value.syms().iter().find(|s| s.index() >= nsym) {
                return d.corrupt(&format!(
                    "column ({tau}, {field}) cell n{x} references symbol {} of a pool holding {nsym}",
                    s.index()
                ));
            }
            let at = NodeId::from_index(x);
            if slots.get(r) == Some(&(x as u32)) {
                if !value.syms().is_empty() && !tree.is_alive(at) {
                    return d.corrupt(&format!(
                        "column ({tau}, {field}) has a value at dead vertex n{x}"
                    ));
                }
                rows[r] = value;
                r += 1;
            } else if !value.syms().is_empty() {
                return d.corrupt(&format!(
                    "column ({tau}, {field}) has a value at n{x}, a {} vertex outside ext({tau})",
                    tree.label(at)
                ));
            }
        }
        Ok(ColumnRows {
            rows,
            cells: ncells,
        })
    }
}

/// Writes a column as the format's per-vertex cells: its cell count,
/// then one cell per vertex id below it — a slot of the column's type
/// writes its row's cell, any other vertex an empty one. An empty cell is
/// the single byte 0 in both kinds of column (`sym + 1` = 0, or a member
/// count of 0), so the gaps between slots go out as runs of zeros.
fn enc_cells<T>(
    e: &mut Enc,
    slots: &[u32],
    col: &ColumnRows<T>,
    mut cell: impl FnMut(&mut Enc, &T),
) {
    e.var(col.cells as u64);
    let mut next = 0;
    for (&slot, row) in slots.iter().zip(&col.rows) {
        let slot = slot as usize;
        if slot >= col.cells {
            break;
        }
        e.zeros(slot - next);
        cell(e, row);
        next = slot + 1;
    }
    e.zeros(col.cells.saturating_sub(next));
}

/// Encodes the arena, then each span as one varint `len << 1 | moved`. A
/// span that starts where the previous one ended — the layout the intern
/// path writes — is that varint alone; a moved one is followed by its
/// zigzag gap from that end, so any span list round-trips.
pub(crate) fn enc_interner_v3(e: &mut Enc, arena: &[u8], spans: &[(u32, u32)]) {
    e.var(arena.len() as u64);
    e.raw(arena);
    e.var(spans.len() as u64);
    let mut end = 0i64;
    for &(start, len) in spans {
        let gap = i64::from(start) - end;
        e.var(u64::from(len) << 1 | u64::from(gap != 0));
        if gap != 0 {
            e.var(((gap << 1) ^ (gap >> 63)) as u64);
        }
        end = i64::from(start) + i64::from(len);
    }
}

pub(crate) fn dec_interner_v3(d: &mut Dec<'_>) -> Result<InternerParts, StorageError> {
    let arena = d.var_bytes()?.to_vec();
    let n = d.var_len(1)?;
    let mut spans = Vec::with_capacity(n);
    let mut end = 0i64;
    for _ in 0..n {
        let v = d.var()?;
        let Ok(len) = u32::try_from(v >> 1) else {
            return d.corrupt("interner span length overflows u32");
        };
        let start = if v & 1 == 0 {
            Some(end)
        } else {
            let z = d.var()?;
            end.checked_add((z >> 1) as i64 ^ -((z & 1) as i64))
        };
        let Some(start) = start.and_then(|s| u32::try_from(s).ok()) else {
            return d.corrupt("interner span starts outside u32");
        };
        end = i64::from(start) + i64::from(len);
        spans.push((start, len));
    }
    Ok((arena, spans))
}

/// Format v2's interner section: read-only.
pub(crate) fn dec_interner_v2(d: &mut Dec<'_>) -> Result<InternerParts, StorageError> {
    let arena = d.bytes()?.to_vec();
    let n = d.len(8)?;
    let mut spans = Vec::with_capacity(n);
    for _ in 0..n {
        spans.push((d.u32()?, d.u32()?));
    }
    Ok((arena, spans))
}

/// Encodes the columns, mapping rows to cells through `slots`, the
/// label slots [`enc_tree_v3`] listed.
pub(crate) fn enc_columns_v3(e: &mut Enc, state: &LiveStateRef<'_>, slots: &LabelSlots) {
    e.var(state.singles.len() as u64);
    for ((tau, field), col) in &state.singles {
        e.var_str(tau);
        enc_field_v3(e, field);
        enc_cells(e, slots.of(tau), col, |e, cell| {
            e.var(cell.map_or(0, |s| s.index() as u64 + 1));
        });
    }
    e.var(state.sets.len() as u64);
    for ((tau, attr), col) in &state.sets {
        e.var_str(tau);
        e.var_str(attr);
        enc_cells(e, slots.of(tau), col, |e, row| {
            e.var(row.len() as u64);
            for &m in row {
                e.var(m.index() as u64);
            }
        });
    }
}

/// Decodes a v3 columns section against the already-decoded `tree` and
/// the label slots its decoder listed.
pub(crate) fn dec_columns_v3(
    d: &mut Dec<'_>,
    tree: &DataTree,
    slots: &LabelSlots,
) -> Result<Columns, StorageError> {
    // A single-valued column is at least τ, the field's tag and name, and
    // its cell count; a set-valued one τ, the attribute and its row count.
    let nsingles = d.var_len(4)?;
    let mut singles = Vec::with_capacity(nsingles);
    for _ in 0..nsingles {
        let tau = Name::new(d.var_str()?);
        let field = dec_field_v3(d)?;
        let ncells = d.var_len(1)?;
        let rows = slots.dec_rows(tree, d, (&tau, &field), ncells, dec_cell_v3)?;
        singles.push(((tau, field), rows));
    }
    let nsets = d.var_len(3)?;
    let mut sets = Vec::with_capacity(nsets);
    for _ in 0..nsets {
        let tau = Name::new(d.var_str()?);
        let attr = Name::new(d.var_str()?);
        let nrows = d.var_len(1)?;
        let rows = slots.dec_rows(tree, d, (&tau, &attr), nrows, |d| {
            let nmembers = d.var_len(1)?;
            let mut row = Vec::with_capacity(nmembers);
            for _ in 0..nmembers {
                let m = d.var()?;
                row.push(sym_of(d, m)?);
            }
            Ok(row)
        })?;
        sets.push(((tau, attr), rows));
    }
    Ok((singles, sets))
}

/// Format v2's columns section: read-only, decoded like v3's.
pub(crate) fn dec_columns_v2(
    d: &mut Dec<'_>,
    tree: &DataTree,
    slots: &LabelSlots,
) -> Result<Columns, StorageError> {
    let nsingles = d.len(8)?;
    let mut singles = Vec::with_capacity(nsingles);
    for _ in 0..nsingles {
        let tau = Name::new(d.str()?);
        let field = dec_field_v2(d)?;
        let ncells = d.len(4)?;
        let rows = slots.dec_rows(tree, d, (&tau, &field), ncells, |d| {
            Ok(dec_opt_u32(d)?.map(Sym::from_index))
        })?;
        singles.push(((tau, field), rows));
    }
    let nsets = d.len(8)?;
    let mut sets = Vec::with_capacity(nsets);
    for _ in 0..nsets {
        let tau = Name::new(d.str()?);
        let attr = Name::new(d.str()?);
        let nrows = d.len(8)?;
        let rows = slots.dec_rows(tree, d, (&tau, &attr), nrows, |d| {
            let nmembers = d.len(4)?;
            let mut row = Vec::with_capacity(nmembers);
            for _ in 0..nmembers {
                row.push(dec_sym_v2(d)?);
            }
            Ok(row)
        })?;
        sets.push(((tau, attr), rows));
    }
    Ok((singles, sets))
}

pub(crate) fn enc_struct_viols(e: &mut Enc, entries: &[(u32, &[Violation])]) {
    e.len(entries.len());
    for &(x, viols) in entries {
        e.u32(x);
        e.len(viols.len());
        for v in viols {
            enc_violation(e, v);
        }
    }
}

pub(crate) fn dec_struct_viols(
    d: &mut Dec<'_>,
) -> Result<Vec<(u32, Vec<Violation>)>, StorageError> {
    let n = d.len(4)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let x = d.u32()?;
        let nviols = d.len(1)?;
        let mut viols = Vec::with_capacity(nviols);
        for _ in 0..nviols {
            viols.push(dec_violation(d)?);
        }
        entries.push((x, viols));
    }
    Ok(entries)
}

// ---------------------------------------------------------------------------
// Batched edits (the WAL payload).

pub(crate) fn enc_batch(e: &mut Enc, batch: &[BatchEdit]) {
    e.len(batch.len());
    for edit in batch {
        match edit {
            BatchEdit::SetAttr { node, attr, value } => {
                e.u8(0);
                enc_node_id(e, *node);
                e.str(attr);
                enc_members(e, value.values().iter().map(String::as_str));
            }
            BatchEdit::RemoveAttr { node, attr } => {
                e.u8(1);
                enc_node_id(e, *node);
                e.str(attr);
            }
            BatchEdit::SetText { node, index, text } => {
                e.u8(2);
                enc_node_id(e, *node);
                e.len(*index);
                e.str(text);
            }
            BatchEdit::InsertSubtree {
                parent,
                position,
                fragment,
            } => {
                e.u8(3);
                enc_node_id(e, *parent);
                e.len(*position);
                enc_tree_v2(e, fragment);
            }
            BatchEdit::DeleteSubtree { node } => {
                e.u8(4);
                enc_node_id(e, *node);
            }
        }
    }
}

pub(crate) fn dec_batch(d: &mut Dec<'_>) -> Result<Vec<BatchEdit>, StorageError> {
    let n = d.len(1)?;
    let mut batch = Vec::with_capacity(n);
    for _ in 0..n {
        batch.push(match d.u8()? {
            0 => BatchEdit::SetAttr {
                node: dec_node_id(d)?,
                attr: Name::new(d.str()?),
                value: dec_attr_value(d)?,
            },
            1 => BatchEdit::RemoveAttr {
                node: dec_node_id(d)?,
                attr: Name::new(d.str()?),
            },
            2 => BatchEdit::SetText {
                node: dec_node_id(d)?,
                index: d.len(0)?,
                text: d.str()?.to_string(),
            },
            3 => BatchEdit::InsertSubtree {
                parent: dec_node_id(d)?,
                position: d.len(0)?,
                fragment: dec_tree_v2(d, Interner::new())?.0,
            },
            4 => BatchEdit::DeleteSubtree {
                node: dec_node_id(d)?,
            },
            t => {
                return Err(StorageError::Corrupt {
                    detail: format!("wal record: unknown edit tag {t}"),
                })
            }
        });
    }
    Ok(batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one unrepresentable symbol index decodes to a clean error, not
    /// the `Sym::from_index` panic — a crafted snapshot with a valid
    /// section CRC must never abort the process. Both formats: a v2 u32
    /// and a v3 set member or cell (`sym + 1`).
    #[test]
    fn dec_sym_rejects_the_sentinel_index() {
        let bytes = u32::MAX.to_le_bytes();
        let mut d = Dec::new(&bytes, "test");
        assert!(matches!(
            dec_sym_v2(&mut d),
            Err(StorageError::Corrupt { .. })
        ));
        // Every other index decodes.
        let bytes = (u32::MAX - 1).to_le_bytes();
        let mut d = Dec::new(&bytes, "test");
        assert_eq!(dec_sym_v2(&mut d).unwrap().index(), (u32::MAX - 1) as usize);

        let d = Dec::new(&[], "test");
        assert!(sym_of(&d, u32::MAX.into()).is_err());
        assert!(sym_of(&d, u64::MAX).is_err());
        assert_eq!(
            sym_of(&d, (u32::MAX - 1).into()).unwrap().index(),
            (u32::MAX - 1) as usize
        );
        let cells = [leb(u64::from(u32::MAX) + 1), leb(u32::MAX.into())].concat();
        let mut d = Dec::new(&cells, "test");
        assert!(dec_cell_v3(&mut d).is_err());
        assert_eq!(
            dec_cell_v3(&mut d).unwrap().unwrap().index(),
            (u32::MAX - 1) as usize
        );
    }

    fn leb(v: u64) -> Vec<u8> {
        let mut e = Enc::default();
        e.var(v);
        e.buf
    }

    fn var_of(bytes: &[u8]) -> Result<u64, StorageError> {
        let mut d = Dec::new(bytes, "test");
        let v = d.var()?;
        assert!(d.is_empty(), "{bytes:?} left bytes behind");
        Ok(v)
    }

    #[test]
    fn varints_round_trip_at_every_width() {
        assert_eq!(var_of(&[0]).unwrap(), 0);
        assert_eq!(var_of(&[0x7f]).unwrap(), 127);
        assert_eq!(var_of(&[0x80, 0x01]).unwrap(), 128);
        let max = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        assert_eq!(var_of(&max).unwrap(), u64::MAX);
        for v in [
            0,
            1,
            127,
            128,
            300,
            u32::MAX.into(),
            1 << 35,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let bytes = leb(v);
            assert_eq!(
                bytes.len(),
                (64 - v.leading_zeros() as usize).div_ceil(7).max(1)
            );
            assert_eq!(var_of(&bytes).unwrap(), v);
        }
    }

    #[test]
    fn varints_past_u64_or_cut_short_are_corrupt() {
        // A tenth byte holding more than bit 63, or asking for an eleventh.
        let mut over = [0xff; 10];
        over[9] = 0x02;
        assert!(matches!(var_of(&over), Err(StorageError::Corrupt { .. })));
        over[9] = 0x81;
        assert!(matches!(
            var_of(&[over.as_slice(), &[0]].concat()),
            Err(StorageError::Corrupt { .. })
        ));
        // Input ending mid-varint, including on an empty input.
        for cut in [&[][..], &[0x80], &[0xff, 0xff, 0x80]] {
            assert!(matches!(var_of(cut), Err(StorageError::Corrupt { .. })));
        }
        // A u32 field one past its range.
        let past = leb(u64::from(u32::MAX) + 1);
        assert!(Dec::new(&past, "test").var_u32().is_err());
        let max = leb(u32::MAX.into());
        assert_eq!(Dec::new(&max, "test").var_u32().unwrap(), u32::MAX);
    }

    #[test]
    fn var_lengths_are_checked_before_allocating() {
        assert!(Dec::new(&leb(u64::MAX), "test").var_len(1).is_err());
        // Three elements of two bytes each need six; five remain.
        let three = [3, 0, 0, 0, 0, 0];
        assert!(Dec::new(&three, "test").var_len(2).is_err());
        assert_eq!(Dec::new(&three, "test").var_len(1).unwrap(), 3);
    }

    /// Spans that skip ahead, step back, overlap or sit at the ends of
    /// the u32 range round-trip; a gap or a length past u32 is corrupt.
    #[test]
    fn interner_spans_round_trip_in_any_layout() {
        let arena = b"abcdef";
        let spans = [
            (0, 2),
            (2, 1),
            (5, 1),
            (1, 3),
            (0, 0),
            (u32::MAX, 0),
            (0, u32::MAX),
            (u32::MAX - 1, 1),
        ];
        let mut e = Enc::default();
        enc_interner_v3(&mut e, arena, &spans);
        let mut d = Dec::new(&e.buf, "test");
        assert_eq!(
            dec_interner_v3(&mut d).unwrap(),
            (arena.to_vec(), spans.to_vec())
        );
        assert!(d.is_empty());

        // One span, moved by a gap of -1 from the start, then one whose
        // length is 2^32.
        for span in [vec![1, 1], leb(1 << 33)] {
            let bytes = [&[0, 1][..], &span].concat();
            assert!(dec_interner_v3(&mut Dec::new(&bytes, "test")).is_err());
        }
    }

    #[test]
    fn name_ids_past_the_dictionary_are_corrupt() {
        let mut e = Enc::default();
        let mut dict = Dict::default();
        let (a, b) = (Name::new("a"), Name::new("b"));
        for name in [&a, &b, &a] {
            dict.id(&mut e, name);
        }
        assert_eq!(e.buf, [0, 1, b'a', 1, 1, b'b', 0]);
        let mut d = Dec::new(&e.buf, "test");
        let mut names = Vec::new();
        for want in ["a", "b", "a"] {
            let id = dec_name(&mut d, &mut names).unwrap();
            assert_eq!(names[id as usize].as_str(), want);
        }
        // Id 3 skips id 2; u64::MAX is far past any dictionary.
        for id in [3, u64::MAX] {
            let bytes = leb(id);
            let mut d = Dec::new(&bytes, "test");
            match dec_name(&mut d, &mut names.clone()) {
                Err(StorageError::Corrupt { detail }) => {
                    assert!(detail.contains("past the dictionary"), "id {id}: {detail}")
                }
                other => panic!("id {id}: {other:?}"),
            }
        }
    }
}
