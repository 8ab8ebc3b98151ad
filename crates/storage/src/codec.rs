//! Little-endian binary codecs for the model and validator types.
//!
//! The encoding is deliberately plain: fixed-width integers, u64 length
//! prefixes, and tag bytes for enums, all little-endian. Every decode
//! validates lengths against the remaining input *before* allocating, so
//! corrupted length fields produce a clean [`StorageError::Corrupt`]
//! instead of an allocation panic.

use xic_constraints::Field;
use xic_model::{AttrValue, Child, DataTree, Name, NodeId, RawNode, Sym};
use xic_validate::{BatchEdit, LiveStateRef, Violation};

use crate::StorageError;

/// An append-only encode buffer.
#[derive(Default)]
pub(crate) struct Enc {
    pub(crate) buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.len(v.len());
        self.buf.extend_from_slice(v);
    }

    pub(crate) fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
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

    fn corrupt<T>(&self, detail: &str) -> Result<T, StorageError> {
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

    /// A raw sub-slice of exactly `n` bytes (a section payload).
    pub(crate) fn section(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        self.take(n)
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
        let pos = self.pos;
        match std::str::from_utf8(self.bytes()?) {
            Ok(s) => Ok(s),
            Err(_) => {
                self.pos = pos;
                self.corrupt("string is not valid UTF-8")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar wrappers.

fn enc_opt_u32(e: &mut Enc, v: Option<u32>) {
    // 0 = absent, else value + 1 — mirrors the `NonZeroU32` niche the
    // in-memory types use.
    e.u32(match v {
        None => 0,
        Some(x) => x
            .checked_add(1)
            .expect("index + 1 fits u32 (enforced at interning/build time)"),
    });
}

fn dec_opt_u32(d: &mut Dec<'_>) -> Result<Option<u32>, StorageError> {
    Ok(match d.u32()? {
        0 => None,
        x => Some(x - 1),
    })
}

pub(crate) fn enc_sym(e: &mut Enc, s: Sym) {
    e.u32(s.index() as u32);
}

pub(crate) fn dec_sym(d: &mut Dec<'_>) -> Result<Sym, StorageError> {
    let index = d.u32()?;
    // u32::MAX is the one index `Sym` cannot represent (index + 1 must be
    // non-zero); constructing it would panic, and decoding never panics.
    if index == u32::MAX {
        return Err(StorageError::Corrupt {
            detail: "symbol index is the reserved sentinel u32::MAX".into(),
        });
    }
    Ok(Sym::from_index(index))
}

fn enc_node_id(e: &mut Enc, n: NodeId) {
    e.u32(n.index() as u32);
}

fn dec_node_id(d: &mut Dec<'_>) -> Result<NodeId, StorageError> {
    Ok(NodeId::from_index(d.u32()? as usize))
}

fn enc_attr_value(e: &mut Enc, v: &AttrValue) {
    e.len(v.values().len());
    for m in v.values() {
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

/// Encodes every arena slot of `t`, tombstones included, so node ids stay
/// stable across a round trip. The tree is read in place through its
/// public accessors; [`dec_tree`] rebuilds it with
/// [`DataTree::from_raw_parts`].
pub(crate) fn enc_tree(e: &mut Enc, t: &DataTree) {
    let slots = t.id_bound();
    e.len(slots);
    e.u32(t.root().index() as u32);
    // A tree with no tombstone stores no flag bitmap.
    let has_dead = t.len() < slots;
    e.u8(u8::from(has_dead));
    if has_dead {
        let start = e.buf.len();
        e.buf.resize(start + slots.div_ceil(8), 0);
        for i in (0..slots).filter(|&i| !t.is_alive(NodeId::from_index(i))) {
            e.buf[start + i / 8] |= 1 << (i % 8);
        }
    }
    for i in 0..slots {
        let node = t.node(NodeId::from_index(i));
        e.str(&node.label);
        enc_opt_u32(e, node.parent().map(|p| p.index() as u32));
        e.len(node.children.len());
        for c in &node.children {
            match c {
                Child::Text(text) => {
                    e.u8(0);
                    e.str(text);
                }
                Child::Node(child) => {
                    e.u8(1);
                    enc_node_id(e, *child);
                }
            }
        }
        e.len(node.attrs().len());
        for (name, val) in node.attrs() {
            e.str(name);
            enc_attr_value(e, val);
        }
    }
}

/// Reuses one [`Name`] per distinct spelling while decoding a tree:
/// element labels and attribute names repeat across every vertex, and a
/// refcount bump is far cheaper than allocating a fresh `Arc<str>` for
/// each of a million nodes.
#[derive(Default)]
struct NameCache<'a> {
    seen: std::collections::HashMap<&'a str, Name>,
}

impl<'a> NameCache<'a> {
    fn get(&mut self, s: &'a str) -> Name {
        self.seen.entry(s).or_insert_with(|| Name::new(s)).clone()
    }
}

pub(crate) fn dec_tree(d: &mut Dec<'_>) -> Result<DataTree, StorageError> {
    let n = d.len(1)?;
    let root = NodeId::from_index(d.u32()? as usize);
    let dead = if d.u8()? != 0 {
        let bits = d.take(n.div_ceil(8))?;
        (0..n).map(|i| bits[i / 8] & (1 << (i % 8)) != 0).collect()
    } else {
        Vec::new()
    };
    let mut names = NameCache::default();
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        let label = names.get(d.str()?);
        let parent = dec_opt_u32(d)?.map(|p| NodeId::from_index(p as usize));
        let nchildren = d.len(1)?;
        let mut children = Vec::with_capacity(nchildren);
        for _ in 0..nchildren {
            children.push(match d.u8()? {
                0 => Child::Text(d.str()?.to_string()),
                1 => Child::Node(dec_node_id(d)?),
                t => {
                    return Err(StorageError::Corrupt {
                        detail: format!("tree: unknown child tag {t}"),
                    })
                }
            });
        }
        let nattrs = d.len(8)?;
        let mut attrs = Vec::with_capacity(nattrs);
        for _ in 0..nattrs {
            let name = names.get(d.str()?);
            attrs.push((name, dec_attr_value(d)?));
        }
        nodes.push(RawNode {
            label,
            children,
            attrs,
            parent,
        });
    }
    DataTree::from_raw_parts(nodes, root, dead).map_err(|e| StorageError::Corrupt {
        detail: format!("tree: decoded parts are inconsistent: {e}"),
    })
}

// ---------------------------------------------------------------------------
// Constraint fields and violations.

fn enc_field(e: &mut Enc, f: &Field) {
    match f {
        Field::Attr(n) => {
            e.u8(0);
            e.str(n);
        }
        Field::Sub(n) => {
            e.u8(1);
            e.str(n);
        }
    }
}

fn dec_field(d: &mut Dec<'_>) -> Result<Field, StorageError> {
    let tag = d.u8()?;
    let name = Name::new(d.str()?);
    match tag {
        0 => Ok(Field::Attr(name)),
        1 => Ok(Field::Sub(name)),
        t => Err(StorageError::Corrupt {
            detail: format!("field: unknown tag {t}"),
        }),
    }
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

pub(crate) fn enc_interner(e: &mut Enc, arena: &[u8], spans: &[(u32, u32)]) {
    e.bytes(arena);
    e.len(spans.len());
    for &(start, len) in spans {
        e.u32(start);
        e.u32(len);
    }
}

/// The decoded interner parts: the byte arena plus its `(start, len)`
/// spans, in the shape `Interner::from_parts` consumes.
pub(crate) type InternerParts = (Vec<u8>, Vec<(u32, u32)>);

pub(crate) fn dec_interner(d: &mut Dec<'_>) -> Result<InternerParts, StorageError> {
    let arena = d.bytes()?.to_vec();
    let n = d.len(8)?;
    let mut spans = Vec::with_capacity(n);
    for _ in 0..n {
        spans.push((d.u32()?, d.u32()?));
    }
    Ok((arena, spans))
}

pub(crate) fn enc_columns(e: &mut Enc, state: &LiveStateRef<'_>) {
    e.len(state.singles.len());
    for ((tau, field), vals) in &state.singles {
        e.str(tau);
        enc_field(e, field);
        e.len(vals.len());
        for cell in *vals {
            enc_opt_u32(e, cell.map(|s| s.index() as u32));
        }
    }
    e.len(state.sets.len());
    for ((tau, attr), rows) in &state.sets {
        e.str(tau);
        e.str(attr);
        e.len(rows.len());
        for row in *rows {
            e.len(row.len());
            for &m in row {
                enc_sym(e, m);
            }
        }
    }
}

type Singles = Vec<((Name, Field), Vec<Option<Sym>>)>;
type Sets = Vec<((Name, Name), Vec<Vec<Sym>>)>;

pub(crate) fn dec_columns(d: &mut Dec<'_>) -> Result<(Singles, Sets), StorageError> {
    let nsingles = d.len(8)?;
    let mut singles = Vec::with_capacity(nsingles);
    for _ in 0..nsingles {
        let tau = Name::new(d.str()?);
        let field = dec_field(d)?;
        let ncells = d.len(4)?;
        let mut vals = Vec::with_capacity(ncells);
        for _ in 0..ncells {
            vals.push(dec_opt_u32(d)?.map(Sym::from_index));
        }
        singles.push(((tau, field), vals));
    }
    let nsets = d.len(8)?;
    let mut sets = Vec::with_capacity(nsets);
    for _ in 0..nsets {
        let tau = Name::new(d.str()?);
        let attr = Name::new(d.str()?);
        let nrows = d.len(8)?;
        let mut rows = Vec::with_capacity(nrows);
        for _ in 0..nrows {
            let nmembers = d.len(4)?;
            let mut row = Vec::with_capacity(nmembers);
            for _ in 0..nmembers {
                row.push(dec_sym(d)?);
            }
            rows.push(row);
        }
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
                enc_attr_value(e, value);
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
                enc_tree(e, fragment);
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
                fragment: dec_tree(d)?,
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
    /// section CRC must never abort the process.
    #[test]
    fn dec_sym_rejects_the_sentinel_index() {
        let bytes = u32::MAX.to_le_bytes();
        let mut d = Dec::new(&bytes, "test");
        assert!(matches!(dec_sym(&mut d), Err(StorageError::Corrupt { .. })));
        // Every other index decodes.
        let bytes = (u32::MAX - 1).to_le_bytes();
        let mut d = Dec::new(&bytes, "test");
        assert_eq!(dec_sym(&mut d).unwrap().index(), (u32::MAX - 1) as usize);
    }
}
