//! Data trees (Definition 2.1) and their construction.
//!
//! Def. 2.1 reads a data tree as the functions `elem`, `att` and `val`, and
//! Def. 2.4's constraints compare values only for equality. A tree stores
//! every attribute value and every text child as a [`Sym`] of one
//! [`Interner`], its *value pool*: each distinct string once, compared as
//! a `u32`. A vertex's attributes are a range of one tree-wide slot arena,
//! each slot a dictionary id for the attribute's name and its value — a
//! symbol, or a range of a member arena for any set of other than one
//! member. Readers see values through the tree ([`DataTree::attr`],
//! [`DataTree::attrs`], [`DataTree::text`]); writers hand in owned
//! [`AttrValue`]s and strings, interned on entry.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

use crate::arena::{Arena, Span};
use crate::{Interner, Name, Sym};

/// An atomic value, i.e. an element of the paper's set **S** of string
/// values. All atomic values are of the single type `S`.
pub type Value = String;

/// Identifier of a vertex in a [`DataTree`]'s vertex set `V`.
///
/// Node ids are dense indices assigned in creation order; the root of a tree
/// built with [`TreeBuilder`] is always the node passed to
/// [`TreeBuilder::finish`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Returns the dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// A node id from its dense index.
    ///
    /// For engines that reconstruct document order without materializing a
    /// [`DataTree`] (e.g. streaming validation): both the tree and the
    /// event parser assign ids in element-open order, so a counter of open
    /// tags yields ids identical to the tree path's.
    pub fn from_index(index: usize) -> NodeId {
        NodeId(u32::try_from(index).expect("node index fits u32"))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One entry of a vertex's ordered child list: `elem` maps a vertex to
/// `E × F(S ∪ V)`, so a child is either a string value or a sub-tree vertex.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Child {
    /// A string child (a member of **S**): a symbol of the tree's value
    /// pool ([`DataTree::pool`]).
    Text(Sym),
    /// An element child (a member of `V`).
    Node(NodeId),
}

const _: () = assert!(std::mem::size_of::<Child>() == 8);

impl Child {
    /// The node id if this child is an element, else `None`.
    pub fn as_node(&self) -> Option<NodeId> {
        match self {
            Child::Node(n) => Some(*n),
            Child::Text(_) => None,
        }
    }

    /// The text's symbol if this child is a string value, else `None`.
    pub fn as_text(&self) -> Option<Sym> {
        match self {
            Child::Text(t) => Some(*t),
            Child::Node(_) => None,
        }
    }
}

/// The value of one attribute: a non-empty set of atomic values.
///
/// Definition 2.1 types `att` as `V × A → P(S)`. Single-valued attributes
/// hold a singleton set; set-valued (`IDREFS`-style) attributes hold any
/// finite set. Values are kept sorted and deduplicated so that two equal
/// sets compare equal structurally.
///
/// A singleton — every attribute Definition 2.4 checks as single-valued —
/// is stored inline, so it costs the heap block of its one string and no
/// list around it. Equality, ordering and hashing are those of the sorted
/// member slice ([`AttrValue::values`]) whatever the representation.
#[derive(Clone)]
pub struct AttrValue(Members);

/// [`AttrValue`]'s representation: `One` for exactly one member, `Many`
/// for every other count (empty included), sorted and deduplicated.
#[derive(Clone)]
enum Members {
    One(Value),
    Many(Box<[Value]>),
}

// The enum needs no tag word: `Many` is marked by a `String` capacity no
// string can have.
const _: () = assert!(std::mem::size_of::<AttrValue>() == 24);

impl AttrValue {
    /// A singleton attribute value.
    pub fn single(v: impl Into<Value>) -> Self {
        AttrValue(Members::One(v.into()))
    }

    /// A set-valued attribute value; duplicates are removed and order is
    /// normalized.
    pub fn set<I, T>(vs: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<Value>,
    {
        let mut v: Vec<Value> = vs.into_iter().map(Into::into).collect();
        v.sort();
        v.dedup();
        if v.len() == 1 {
            AttrValue(Members::One(v.pop().expect("one member")))
        } else {
            AttrValue(Members::Many(v.into_boxed_slice()))
        }
    }

    /// The members of the value set, in sorted order.
    pub fn values(&self) -> &[Value] {
        match &self.0 {
            Members::One(v) => std::slice::from_ref(v),
            Members::Many(vs) => vs,
        }
    }

    /// True iff the set is a singleton (as required of single-valued
    /// attributes by Definition 2.4).
    pub fn is_singleton(&self) -> bool {
        matches!(self.0, Members::One(_))
    }

    /// For a singleton set, the unique member.
    pub fn as_single(&self) -> Option<&Value> {
        match &self.0 {
            Members::One(v) => Some(v),
            Members::Many(_) => None,
        }
    }

    /// Set membership test (`s ∈ x.l`).
    pub fn contains(&self, v: &str) -> bool {
        self.values()
            .binary_search_by(|x| x.as_str().cmp(v))
            .is_ok()
    }

    /// Number of values in the set.
    pub fn len(&self) -> usize {
        self.values().len()
    }

    /// True iff the value set is empty.
    pub fn is_empty(&self) -> bool {
        self.values().is_empty()
    }

    /// Iterates over the members in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &Value> {
        self.values().iter()
    }
}

impl PartialEq for AttrValue {
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

impl Eq for AttrValue {}

impl PartialOrd for AttrValue {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for AttrValue {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.values().cmp(other.values())
    }
}

impl std::hash::Hash for AttrValue {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

impl fmt::Debug for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("AttrValue").field(&self.values()).finish()
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(v) = self.as_single() {
            write!(f, "{v:?}")
        } else {
            write!(f, "{{")?;
            for (i, v) in self.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:?}")?;
            }
            write!(f, "}}")
        }
    }
}

/// A borrowed view of one attribute's value set in a [`DataTree`]: what
/// `att(x, l)` holds, read through the tree's value pool.
///
/// It answers the queries [`AttrValue`] answers, with members as `&str`
/// borrowed from the pool, and hands out the members' symbols
/// ([`AttrRef::sym`], [`AttrRef::syms`]) for readers that compare values
/// by symbol. Members come out in sorted string order, as
/// [`AttrValue::values`] lists them; [`AttrRef::to_owned`] copies the set
/// out of the tree.
#[derive(Clone, Copy)]
pub struct AttrRef<'t> {
    pool: &'t Interner,
    /// The member of a singleton; `None` for every other set.
    one: Option<Sym>,
    /// The members of every other set, in sorted string order.
    many: &'t [Sym],
}

impl<'t> AttrRef<'t> {
    /// For a singleton set, the unique member.
    pub fn as_single(&self) -> Option<&'t str> {
        self.one.map(|s| self.pool.resolve(s))
    }

    /// For a singleton set, the unique member's symbol.
    pub fn sym(&self) -> Option<Sym> {
        self.one
    }

    /// The members' symbols, in sorted string order.
    pub fn syms(&self) -> impl ExactSizeIterator<Item = Sym> + 't {
        Syms {
            one: self.one,
            many: self.many.iter(),
        }
    }

    /// The members, in sorted order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &'t str> + 't {
        let pool = self.pool;
        self.syms().map(move |s| pool.resolve(s))
    }

    /// Number of values in the set.
    pub fn len(&self) -> usize {
        if self.one.is_some() {
            1
        } else {
            self.many.len()
        }
    }

    /// True iff the value set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True iff the set is a singleton (as required of single-valued
    /// attributes by Definition 2.4).
    pub fn is_singleton(&self) -> bool {
        self.one.is_some()
    }

    /// Set membership test (`s ∈ x.l`).
    pub fn contains(&self, v: &str) -> bool {
        match self.one {
            Some(s) => self.pool.resolve(s) == v,
            None => (self.many)
                .binary_search_by(|&m| self.pool.resolve(m).cmp(v))
                .is_ok(),
        }
    }

    /// Copies the value set out of the tree.
    pub fn to_owned(&self) -> AttrValue {
        match self.as_single() {
            Some(v) => AttrValue::single(v),
            None => AttrValue(Members::Many(self.values().map(String::from).collect())),
        }
    }
}

/// [`AttrRef::syms`]: a singleton's member, or a slice of the member arena.
struct Syms<'t> {
    one: Option<Sym>,
    many: std::slice::Iter<'t, Sym>,
}

impl Iterator for Syms<'_> {
    type Item = Sym;

    fn next(&mut self) -> Option<Sym> {
        self.one.take().or_else(|| self.many.next().copied())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::from(self.one.is_some()) + self.many.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for Syms<'_> {}

impl PartialEq for AttrRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.values().eq(other.values())
    }
}

impl PartialEq<AttrValue> for AttrRef<'_> {
    fn eq(&self, other: &AttrValue) -> bool {
        self.len() == other.len() && self.values().eq(other.iter().map(String::as_str))
    }
}

impl fmt::Debug for AttrRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let values: Vec<&str> = self.values().collect();
        f.debug_tuple("AttrRef").field(&values).finish()
    }
}

impl fmt::Display for AttrRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(v) = self.as_single() {
            write!(f, "{v:?}")
        } else {
            write!(f, "{{")?;
            for (i, v) in self.values().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:?}")?;
            }
            write!(f, "}}")
        }
    }
}

/// The parent link of a vertex without one: the root, and the root of a
/// deleted subtree.
const NO_PARENT: u32 = u32::MAX;

/// One vertex of a data tree: its label, where its children and
/// attributes lie in the tree's arenas, and its parent link. It owns no
/// heap block; [`DataTree::label`], [`DataTree::children`] and
/// [`DataTree::attrs`] read what it points to.
// Aligned to 8 like `RawNode`, so that `DataTree::from_raw_parts` can
// build the node array in the raw list's allocation.
#[derive(Clone, Copy, Debug)]
#[repr(align(8))]
pub struct Node {
    /// The element name labelling this vertex (first component of
    /// `elem`), as an id of the tree's name dictionary.
    label: u32,
    /// Parent vertex index; [`NO_PARENT`] for none.
    parent: u32,
    /// The ordered child list (second component of `elem`): a span of the
    /// tree's child arena.
    children: Span,
    /// The vertex's attributes (`att(v, ·)`): a span of the tree's slot
    /// arena, name-sorted.
    attrs: Span,
}

const _: () = assert!(std::mem::size_of::<Node>() <= 24);

impl Node {
    fn new(label: u32) -> Node {
        Node {
            label,
            parent: NO_PARENT,
            children: (0, 0),
            attrs: (0, 0),
        }
    }

    /// The parent vertex, or `None` for the root.
    pub fn parent(&self) -> Option<NodeId> {
        (self.parent != NO_PARENT).then_some(NodeId(self.parent))
    }
}

/// One attribute slot: the attribute's dictionary id and its value. A
/// singleton holds `(symbol index, 1)` in `val`; any other set holds the
/// span of its members in the member arena.
#[derive(Clone, Copy, Debug)]
struct Slot {
    name: u32,
    val: Span,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 12);

/// A tree's values and names: the pool, the name dictionary its labels
/// and attribute slots use, and the slot and member arenas that vertices'
/// attribute spans point into. Shared by [`TreeBuilder`] and
/// [`DataTree`].
#[derive(Clone, Debug, Default)]
struct Values {
    pool: Interner,
    /// Element and attribute names by dictionary id, and back. The names
    /// come from uploaded documents, so the map keeps std's keyed hasher.
    names: Vec<Name>,
    ids: HashMap<Name, u32>,
    slots: Arena<Slot>,
    members: Arena<Sym>,
}

impl Values {
    fn name_id(&mut self, l: &str) -> u32 {
        if let Some(&id) = self.ids.get(l) {
            return id;
        }
        let id = self.names.len() as u32;
        let name = Name::new(l);
        self.names.push(name.clone());
        self.ids.insert(name, id);
        id
    }

    /// The offset of attribute `l` in span `r` (`Ok`), or where it would
    /// go (`Err`).
    fn find(&self, r: Span, l: &str) -> Result<usize, usize> {
        (self.slots.get(r)).binary_search_by(|s| self.names[s.name as usize].as_str().cmp(l))
    }

    fn view(&self, s: Slot) -> AttrRef<'_> {
        let (one, many) = if s.val.1 == 1 {
            (Some(Sym::from_index(s.val.0)), &[][..])
        } else {
            (None, self.members.get(s.val))
        };
        AttrRef {
            pool: &self.pool,
            one,
            many,
        }
    }

    /// Stores a value set given as its sorted, distinct members, each
    /// taking the symbol `sym_of` gives it: a singleton's symbol, or any
    /// other set appended to the member arena. Returns the slot's `val`.
    fn intern<'a>(
        &mut self,
        mut members: impl ExactSizeIterator<Item = &'a str>,
        mut sym_of: impl FnMut(&mut Interner, &str) -> Sym,
    ) -> Span {
        if members.len() == 1 {
            let m = members.next().expect("one member");
            return (sym_of(&mut self.pool, m).index() as u32, 1);
        }
        let pool = &mut self.pool;
        self.members.push(members.map(|m| sym_of(pool, m)))
    }

    /// Counts a slot's members stale once the slot no longer holds them.
    fn drop_members(&mut self, s: Slot) {
        if s.val.1 != 1 {
            self.members.release(s.val.1 as usize);
        }
    }

    /// Removes the slot at offset `at` of span `r`.
    fn remove(&mut self, r: &mut Span, at: usize) {
        let slot = self.slots.remove(r, at);
        self.drop_members(slot);
    }

    /// Overwrites the value of the slot at offset `at` of span `r` with
    /// `value`, reusing its member span when the new set fits.
    fn replace(&mut self, r: Span, at: usize, value: &AttrValue) {
        let old = self.slots.get(r)[at];
        let members = value.values().iter().map(String::as_str);
        let (start, len) = old.val;
        let val = if len >= 2 && value.len() >= 2 && value.len() <= len as usize {
            let new = value.len() as u32;
            for (to, m) in self.members.get_mut((start, new)).iter_mut().zip(members) {
                *to = self.pool.intern(m);
            }
            self.members.release((len - new) as usize);
            (start, new)
        } else {
            self.drop_members(old);
            self.intern(members, Interner::intern)
        };
        self.slots.get_mut(r)[at].val = val;
    }

    /// Rewrites the slot and member arenas once either holds more stale
    /// entries than its compaction rule allows.
    fn compact_if_stale(&mut self, nodes: &mut [Node]) {
        if self.slots.needs_compaction() || self.members.needs_compaction() {
            self.compact(nodes);
        }
    }

    /// Rewrites the arenas to hold exactly the nodes' spans, in node
    /// order.
    fn compact(&mut self, nodes: &mut [Node]) {
        self.slots.compact(nodes.iter_mut().map(|n| &mut n.attrs));
        let sets = self.slots.items.iter_mut().filter(|s| s.val.1 != 1);
        self.members.compact(sets.map(|s| &mut s.val));
    }

    fn shrink_to_fit(&mut self) {
        self.pool.shrink_to_fit();
        self.names.shrink_to_fit();
        self.slots.shrink_to_fit();
        self.members.shrink_to_fit();
    }
}

/// Errors raised while constructing or editing a data tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelError {
    /// A node was attached below two different parents, violating the tree
    /// condition of Definition 2.1 ("a vertex has at most one parent").
    SecondParent {
        /// The node that already had a parent.
        node: NodeId,
    },
    /// A node id did not belong to this builder/tree.
    UnknownNode(NodeId),
    /// The designated root already has a parent, so it is not a root.
    RootHasParent(NodeId),
    /// The same attribute was set twice on one node.
    DuplicateAttribute {
        /// The node carrying the attribute.
        node: NodeId,
        /// The attribute name set twice.
        attr: Name,
    },
    /// A node other than the root is not reachable from the root.
    Unreachable {
        /// Count of vertices outside the root's tree.
        orphans: usize,
    },
    /// An edit addressed a vertex that was already deleted.
    DeadNode(NodeId),
    /// The root vertex cannot be deleted.
    RootDelete(NodeId),
    /// An insert position exceeded the parent's child count.
    BadPosition {
        /// The parent vertex.
        node: NodeId,
        /// The requested child-list position.
        position: usize,
        /// The parent's current child count.
        len: usize,
    },
    /// [`DataTree::set_text`] addressed a text child that does not exist.
    NoSuchText {
        /// The vertex.
        node: NodeId,
        /// The requested text-child index.
        index: usize,
    },
    /// A batch edit removed an attribute that is not set.
    NoSuchAttribute {
        /// The vertex.
        node: NodeId,
        /// The missing attribute.
        attr: Name,
    },
    /// [`DataTree::from_raw_parts`] was given parts that do not describe a
    /// well-formed tree (inconsistent tombstone flags, a live vertex
    /// below a dead one, …).
    InvalidParts {
        /// What was inconsistent.
        detail: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::SecondParent { node } => {
                write!(f, "vertex {node:?} attached below a second parent")
            }
            ModelError::UnknownNode(n) => write!(f, "unknown vertex {n:?}"),
            ModelError::RootHasParent(n) => {
                write!(f, "designated root {n:?} has a parent")
            }
            ModelError::DuplicateAttribute { node, attr } => {
                write!(f, "attribute {attr} set twice on {node:?}")
            }
            ModelError::Unreachable { orphans } => {
                write!(f, "{orphans} vertices are not reachable from the root")
            }
            ModelError::DeadNode(n) => write!(f, "vertex {n:?} was deleted"),
            ModelError::RootDelete(n) => {
                write!(f, "cannot delete the root vertex {n:?}")
            }
            ModelError::BadPosition {
                node,
                position,
                len,
            } => {
                write!(
                    f,
                    "position {position} out of range for {node:?} with {len} children"
                )
            }
            ModelError::NoSuchText { node, index } => {
                write!(f, "vertex {node:?} has no text child #{index}")
            }
            ModelError::NoSuchAttribute { node, attr } => {
                write!(f, "no attribute {attr} on {node:?}")
            }
            ModelError::InvalidParts { detail } => {
                write!(f, "invalid raw tree parts: {detail}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// A typed delta describing one successful structural mutation of a
/// [`DataTree`].
///
/// Edits are the currency of incremental revalidation: inserting or
/// deleting a subtree returns the `Edit` actually performed, carrying
/// enough context (parent, position, vertex count) for a consumer to
/// update derived indexes without rescanning the tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Edit {
    /// A subtree was grafted under `parent` at child-list `position`.
    InsertSubtree {
        /// The vertex the subtree was attached to.
        parent: NodeId,
        /// Position in `parent`'s full (text + element) child list.
        position: usize,
        /// The root of the newly created subtree (ids are freshly
        /// allocated at the end of the arena, in fragment document order).
        root: NodeId,
        /// Number of vertices created.
        count: usize,
    },
    /// The subtree rooted at `root` was detached and deleted.
    DeleteSubtree {
        /// The former parent of the deleted root.
        parent: NodeId,
        /// The child-list position the subtree was removed from.
        position: usize,
        /// The root of the deleted subtree (its id is never reused).
        root: NodeId,
        /// Number of vertices deleted.
        count: usize,
    },
}

impl fmt::Display for Edit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Edit::InsertSubtree {
                parent,
                position,
                root,
                count,
            } => write!(
                f,
                "insert {root:?} ({count} vertices) under {parent:?} at {position}"
            ),
            Edit::DeleteSubtree {
                parent,
                position,
                root,
                count,
            } => write!(
                f,
                "delete {root:?} ({count} vertices) from {parent:?} at {position}"
            ),
        }
    }
}

/// A data tree `(V, elem, att, root)` per Definition 2.1.
///
/// Construct via [`TreeBuilder`]. A finished tree may afterwards be edited
/// through the mutation methods: [`DataTree::insert_subtree`] and
/// [`DataTree::delete_subtree`] return the [`Edit`] delta performed;
/// [`DataTree::set_attr`], [`DataTree::remove_attr`] and
/// [`DataTree::set_text`] return the displaced value. Deleted vertices
/// become *tombstones*: their ids are never reused, [`DataTree::node`]
/// still resolves them (so consumers of deltas can read the removed
/// content), but they are excluded from `len`, `node_ids`, `ext` and
/// every derived view.
///
/// Values live in the tree's pool ([`DataTree::pool`]): every string a
/// writer hands in is interned on entry, so a value the document holds
/// many times is stored once.
#[derive(Clone)]
pub struct DataTree {
    nodes: Vec<Node>,
    /// Every vertex's child list, as a span of one arena.
    children: Arena<Child>,
    root: NodeId,
    /// Tombstone flags; empty means "no vertex was ever deleted" (the
    /// common case for freshly built trees), otherwise one flag per arena
    /// slot.
    dead: Vec<bool>,
    /// Count of tombstoned vertices.
    dead_count: usize,
    values: Values,
}

impl DataTree {
    /// The root vertex.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of live vertices `|V|` (tombstones excluded).
    pub fn len(&self) -> usize {
        self.nodes.len() - self.dead_count
    }

    /// True iff the tree has no vertices (never true for built trees).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exclusive upper bound on node ids ever allocated in this tree,
    /// including tombstones. Freshly inserted subtrees receive ids in
    /// `id_bound()..` at the moment of insertion.
    pub fn id_bound(&self) -> usize {
        self.nodes.len()
    }

    /// True iff `id` belongs to this tree and has not been deleted.
    pub fn is_alive(&self, id: NodeId) -> bool {
        id.index() < self.nodes.len() && !self.dead.get(id.index()).copied().unwrap_or(false)
    }

    /// Access a vertex.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this tree.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The element label of a vertex.
    pub fn label(&self, id: NodeId) -> &Name {
        &self.values.names[self.node(id).label as usize]
    }

    /// The ordered child list of a vertex (second component of `elem`).
    pub fn children(&self, id: NodeId) -> &[Child] {
        self.children.get(self.node(id).children)
    }

    /// Iterates over the element children of a vertex in document order.
    pub fn child_nodes(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(id).iter().filter_map(Child::as_node)
    }

    /// The value pool: every attribute value and text child of the tree is
    /// one of its symbols (it may hold more strings than the tree uses).
    pub fn pool(&self) -> &Interner {
        &self.values.pool
    }

    /// `x.l` — the value of attribute `l` at vertex `x` (`att(x, l)`).
    pub fn attr(&self, x: NodeId, l: &str) -> Option<AttrRef<'_>> {
        let v = &self.values;
        let r = self.node(x).attrs;
        v.find(r, l).ok().map(|at| v.view(v.slots.get(r)[at]))
    }

    /// Iterates over `x`'s `(name, value)` attribute pairs in name order.
    pub fn attrs(&self, x: NodeId) -> impl ExactSizeIterator<Item = (&Name, AttrRef<'_>)> {
        let v = &self.values;
        (v.slots.get(self.node(x).attrs))
            .iter()
            .map(move |s| (&v.names[s.name as usize], v.view(*s)))
    }

    /// Concatenation of `x`'s immediate text children (useful for `PCDATA`
    /// content such as `<title>Some title</title>`); borrowed from the
    /// pool unless there are several.
    pub fn text(&self, x: NodeId) -> Cow<'_, str> {
        let pool = &self.values.pool;
        let mut texts = self.children(x).iter().filter_map(Child::as_text);
        let Some(first) = texts.next() else {
            return Cow::Borrowed("");
        };
        let first = pool.resolve(first);
        match texts.next() {
            None => Cow::Borrowed(first),
            Some(second) => {
                let mut s = String::from(first);
                s.push_str(pool.resolve(second));
                texts.for_each(|t| s.push_str(pool.resolve(t)));
                Cow::Owned(s)
            }
        }
    }

    /// [`DataTree::text`] as a symbol of the pool: the one text child's
    /// own symbol, else the concatenation, interned.
    pub fn text_sym(&mut self, x: NodeId) -> Sym {
        let mut texts = self.children(x).iter().filter_map(Child::as_text);
        if let (Some(t), None) = (texts.next(), texts.next()) {
            return t;
        }
        let text = self.text(x).into_owned();
        self.values.pool.intern(&text)
    }

    /// `x[X]` — the tuple of attribute values for the sequence `X`.
    ///
    /// Returns `None` if any attribute in the sequence is missing or not
    /// single-valued at `x`.
    pub fn tuple(&self, x: NodeId, xs: &[Name]) -> Option<Vec<&str>> {
        xs.iter()
            .map(|l| self.attr(x, l).and_then(|v| v.as_single()))
            .collect()
    }

    /// All live vertices, in creation order.
    ///
    /// For trees that were never edited, creation order coincides with
    /// document order; after subtree insertions the two may diverge (new
    /// vertices always take ids at the end of the arena), but creation
    /// order remains the canonical scan order of every validation path.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(|&id| self.is_alive(id))
    }

    /// `ext(τ)` — the vertices labelled `τ`, in document order.
    ///
    /// `τ` is looked up in the name dictionary once, and the scan compares
    /// label ids; a spelling the tree does not hold yields nothing. This
    /// is a linear scan; use [`ExtIndex`] when querying repeatedly.
    pub fn ext<'a>(&'a self, tau: &'a str) -> impl Iterator<Item = NodeId> + 'a {
        let label = self.values.ids.get(tau).copied();
        let bound = if label.is_some() { self.nodes.len() } else { 0 };
        (0..bound as u32)
            .map(NodeId)
            .filter(move |&id| Some(self.node(id).label) == label && self.is_alive(id))
    }

    /// Pre-order (document order) traversal from the root.
    pub fn preorder(&self) -> Preorder<'_> {
        Preorder {
            tree: self,
            stack: vec![self.root],
        }
    }

    /// Depth of a vertex (root has depth 0).
    pub fn depth(&self, mut id: NodeId) -> usize {
        let mut d = 0;
        while let Some(p) = self.node(id).parent() {
            id = p;
            d += 1;
        }
        d
    }

    fn check_alive(&self, id: NodeId) -> Result<(), ModelError> {
        if id.index() >= self.nodes.len() {
            Err(ModelError::UnknownNode(id))
        } else if !self.is_alive(id) {
            Err(ModelError::DeadNode(id))
        } else {
            Ok(())
        }
    }

    /// Reclaims the arena entries edits left behind once they outnumber
    /// the live ones (and [`STALE_MIN`](crate::arena::STALE_MIN)).
    fn compact_if_stale(&mut self) {
        self.values.compact_if_stale(&mut self.nodes);
        if self.children.needs_compaction() {
            (self.children).compact(self.nodes.iter_mut().map(|n| &mut n.children));
        }
    }

    /// Sets attribute `l` on `node`, creating or replacing it. The
    /// displaced value is not copied out: a caller that needs it reads it
    /// first through [`DataTree::attr`].
    pub fn set_attr(
        &mut self,
        node: NodeId,
        l: impl Into<Name>,
        value: AttrValue,
    ) -> Result<(), ModelError> {
        self.check_alive(node)?;
        let l = l.into();
        let v = &mut self.values;
        let r = &mut self.nodes[node.index()].attrs;
        match v.find(*r, &l) {
            Ok(at) => v.replace(*r, at, &value),
            Err(at) => {
                let name = v.name_id(&l);
                let val = v.intern(value.values().iter().map(String::as_str), Interner::intern);
                v.slots.insert(r, at, Slot { name, val });
            }
        }
        self.compact_if_stale();
        Ok(())
    }

    /// Removes attribute `l` from `node`, returning whether it was set.
    /// Removing an absent attribute is a no-op returning `Ok(false)` (a
    /// batch applier may have coalesced away the write that would have
    /// created it).
    pub fn remove_attr(&mut self, node: NodeId, l: &str) -> Result<bool, ModelError> {
        self.check_alive(node)?;
        let v = &mut self.values;
        let r = &mut self.nodes[node.index()].attrs;
        let Ok(at) = v.find(*r, l) else {
            return Ok(false);
        };
        v.remove(r, at);
        self.compact_if_stale();
        Ok(true)
    }

    /// Replaces the `index`-th *text* child of `node` (element children do
    /// not count towards `index`), returning the displaced text.
    ///
    /// The child word of `node` is unchanged by this edit (a text slot
    /// stays a text slot), so content models never need rechecking.
    pub fn set_text(
        &mut self,
        node: NodeId,
        index: usize,
        text: Value,
    ) -> Result<Value, ModelError> {
        self.check_alive(node)?;
        let pool = &mut self.values.pool;
        let Some(Child::Text(t)) = (self.children.get_mut(self.nodes[node.index()].children))
            .iter_mut()
            .filter(|c| c.as_text().is_some())
            .nth(index)
        else {
            return Err(ModelError::NoSuchText { node, index });
        };
        let old = pool.resolve(*t).to_string();
        *t = pool.intern(&text);
        Ok(old)
    }

    /// Grafts a copy of `fragment` (its live vertices) under `parent` at
    /// child-list `position`, returning the [`Edit::InsertSubtree`] delta.
    ///
    /// The copied vertices receive fresh ids at the end of this tree's
    /// arena, assigned in `fragment` creation order, so existing ids are
    /// undisturbed and `ext(τ)` views only ever *append*. Their values
    /// are interned into this tree's pool.
    pub fn insert_subtree(
        &mut self,
        parent: NodeId,
        position: usize,
        fragment: &DataTree,
    ) -> Result<Edit, ModelError> {
        self.check_alive(parent)?;
        let len = self.children(parent).len();
        if position > len {
            return Err(ModelError::BadPosition {
                node: parent,
                position,
                len,
            });
        }
        // Map live fragment ids to fresh ids, in creation order.
        let map: HashMap<u32, u32> = (self.nodes.len() as u32..)
            .zip(fragment.node_ids())
            .map(|(next, id)| (id.0, next))
            .collect();
        let v = &mut self.values;
        for id in fragment.node_ids() {
            let mut node = Node::new(v.name_id(fragment.label(id)));
            node.children = self
                .children
                .push(fragment.children(id).iter().map(|c| match c {
                    Child::Text(t) => Child::Text(v.pool.intern(fragment.pool().resolve(*t))),
                    Child::Node(n) => Child::Node(NodeId(map[&n.0])),
                }));
            node.parent = if id == fragment.root() {
                parent.0
            } else {
                fragment.node(id).parent().map_or(NO_PARENT, |p| map[&p.0])
            };
            node.attrs = (v.slots.items.len() as u32, 0);
            for (name, value) in fragment.attrs(id) {
                let name = v.name_id(name);
                let val = v.intern(value.values(), Interner::intern);
                v.slots.items.push(Slot { name, val });
                node.attrs.1 += 1;
            }
            self.nodes.push(node);
        }
        if !self.dead.is_empty() {
            self.dead.resize(self.nodes.len(), false);
        }
        let root = NodeId(map[&fragment.root().0]);
        let r = &mut self.nodes[parent.index()].children;
        self.children.insert(r, position, Child::Node(root));
        self.compact_if_stale();
        Ok(Edit::InsertSubtree {
            parent,
            position,
            root,
            count: map.len(),
        })
    }

    /// Detaches and deletes the subtree rooted at `node`, returning the
    /// [`Edit::DeleteSubtree`] delta. The root of the tree cannot be
    /// deleted. Deleted vertices become tombstones readable via
    /// [`DataTree::node`] but excluded from all live views.
    pub fn delete_subtree(&mut self, node: NodeId) -> Result<Edit, ModelError> {
        self.check_alive(node)?;
        if node == self.root {
            return Err(ModelError::RootDelete(node));
        }
        let parent = (self.node(node).parent()).expect("non-root vertex has a parent");
        let position = (self.children(parent).iter())
            .position(|c| c.as_node() == Some(node))
            .expect("parent lists the vertex as a child");
        let r = &mut self.nodes[parent.index()].children;
        self.children.remove(r, position);
        self.nodes[node.index()].parent = NO_PARENT;
        if self.dead.is_empty() {
            self.dead = vec![false; self.nodes.len()];
        }
        let mut stack = vec![node];
        let mut count = 0usize;
        while let Some(id) = stack.pop() {
            if self.dead[id.index()] {
                continue;
            }
            self.dead[id.index()] = true;
            count += 1;
            stack.extend(self.child_nodes(id));
        }
        self.dead_count += count;
        self.compact_if_stale();
        Ok(Edit::DeleteSubtree {
            parent,
            position,
            root: node,
            count,
        })
    }
}

/// Shows the tree's content, not its layout: two trees holding the same
/// vertices, values and tombstones print alike whatever their pools'
/// numbering.
impl fmt::Debug for DataTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Vertex<'t>(&'t DataTree, NodeId);
        impl fmt::Debug for Vertex<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let Vertex(t, id) = *self;
                let children: Vec<Result<&str, NodeId>> = (t.children(id).iter())
                    .map(|c| match c {
                        Child::Text(s) => Ok(t.pool().resolve(*s)),
                        Child::Node(n) => Err(*n),
                    })
                    .collect();
                let attrs: Vec<_> = t.attrs(id).collect();
                f.debug_struct("Node")
                    .field("label", t.label(id))
                    .field("children", &children)
                    .field("attrs", &attrs)
                    .field("parent", &t.node(id).parent())
                    .finish()
            }
        }
        let nodes: Vec<Vertex<'_>> = (0..self.nodes.len())
            .map(|i| Vertex(self, NodeId(i as u32)))
            .collect();
        f.debug_struct("DataTree")
            .field("nodes", &nodes)
            .field("root", &self.root)
            .field("dead", &self.dead)
            .finish()
    }
}

/// One vertex description of a [`RawTree`]: the per-slot state a
/// serializer captures (the public views [`DataTree::label`],
/// [`DataTree::children`], [`DataTree::attrs`] and [`Node::parent`]
/// expose the same data for encoding).
// Its fields take 20 bytes; aligned to 8 like `Node`, it rounds up to
// `Node`'s 24.
#[derive(Clone, Copy, Debug)]
#[repr(align(8))]
pub struct RawNode {
    /// The element name labelling this vertex, as an index into
    /// [`RawTree::names`].
    pub label: u32,
    /// How many entries of [`RawTree::children`] are this vertex's child
    /// list: they follow those of the slots before it.
    pub children: u32,
    /// How many entries of [`RawTree::attrs`] are this vertex's: they
    /// follow those of the slots before it.
    pub attrs: u32,
    /// Parent vertex; `None` for the root (and for tombstoned subtree
    /// roots, whose parent link was severed by the delete).
    pub parent: Option<NodeId>,
}

// `DataTree::from_raw_parts` builds its node array in the `RawNode`
// list's allocation, which needs the two layouts to match.
const _: () = assert!(
    std::mem::size_of::<RawNode>() == std::mem::size_of::<Node>()
        && std::mem::align_of::<RawNode>() == std::mem::align_of::<Node>()
);

/// One attribute of a [`RawTree`]: its name, as an index into
/// [`RawTree::names`], and how many entries of [`RawTree::members`] are
/// its value's (they follow those of the attributes before it).
#[derive(Clone, Copy, Debug)]
pub struct RawAttr {
    /// The attribute's name.
    pub name: u32,
    /// The member count.
    pub members: u32,
}

/// A tree's complete state for [`DataTree::from_raw_parts`], in flat
/// lists, so that a decoder builds it without a list per vertex or per
/// value: the value pool, then one description per arena slot.
#[derive(Clone, Debug, Default)]
pub struct RawTree {
    /// The value pool every symbol below belongs to.
    pub pool: Interner,
    /// The element and attribute names [`RawNode::label`] and
    /// [`RawAttr::name`] index. A spelling may appear more than once.
    pub names: Vec<Name>,
    /// One description per arena slot, tombstones included.
    pub nodes: Vec<RawNode>,
    /// Every slot's child list, slot by slot; text children are symbols
    /// of [`RawTree::pool`].
    pub children: Vec<Child>,
    /// Every slot's attributes, slot by slot; within a slot any order,
    /// duplicates rejected.
    pub attrs: Vec<RawAttr>,
    /// Every attribute's members, attribute by attribute; any order and
    /// repeats allowed (the value is their set, as [`AttrValue::set`]
    /// forms it).
    pub members: Vec<Sym>,
}

impl DataTree {
    /// Reassembles a tree from its raw state, the root id, and tombstone
    /// flags (`dead` may be empty when no vertex is tombstoned; otherwise
    /// it must cover every slot).
    ///
    /// This is the decode path for persisted trees. Unlike
    /// [`TreeBuilder`], the input may contain tombstones, so the full
    /// invariant set is re-checked in O(n): ids, names and symbols in
    /// bounds, the child, attribute and member counts adding up, the root
    /// alive and parentless, attributes duplicate-free (they are
    /// re-sorted, so encoders need not preserve order), every live element
    /// child alive with a matching parent link (single-parent condition),
    /// and every live vertex reachable from the root. Returns a
    /// [`ModelError`] — never panics — when any check fails, so corrupted
    /// input is reported, not propagated.
    pub fn from_raw_parts(
        raw: RawTree,
        root: NodeId,
        dead: Vec<bool>,
    ) -> Result<DataTree, ModelError> {
        let RawTree {
            pool,
            names,
            nodes: raw_nodes,
            mut children,
            attrs: raw_attrs,
            members: raw_members,
        } = raw;
        let n = raw_nodes.len();
        let invalid = |detail: String| Err(ModelError::InvalidParts { detail });
        if root.index() >= n {
            return Err(ModelError::UnknownNode(root));
        }
        if !dead.is_empty() && dead.len() != n {
            return invalid(format!(
                "tombstone flags cover {} of {} slots",
                dead.len(),
                n
            ));
        }
        let is_dead = |i: usize| dead.get(i).copied().unwrap_or(false);
        if is_dead(root.index()) {
            return Err(ModelError::DeadNode(root));
        }
        if raw_nodes[root.index()].parent.is_some() {
            return Err(ModelError::RootHasParent(root));
        }
        let child_total: u64 = raw_nodes.iter().map(|r| u64::from(r.children)).sum();
        let attr_total: u64 = raw_nodes.iter().map(|r| u64::from(r.attrs)).sum();
        let member_total: u64 = raw_attrs.iter().map(|a| u64::from(a.members)).sum();
        if child_total != children.len() as u64
            || attr_total != raw_attrs.len() as u64
            || member_total != raw_members.len() as u64
        {
            return invalid(format!(
                "vertices claim {child_total} children of {} and {attr_total} attributes of \
                 {}, and attributes {member_total} members of {}",
                children.len(),
                raw_attrs.len(),
                raw_members.len()
            ));
        }
        let nsym = pool.len();
        let texts = children.iter().filter_map(Child::as_text);
        if let Some(s) = raw_members
            .iter()
            .copied()
            .chain(texts)
            .find(|s| s.index() >= nsym)
        {
            return invalid(format!("symbol {} outside a pool of {nsym}", s.index()));
        }
        let ids = children.iter().filter_map(Child::as_node);
        let parents = raw_nodes.iter().filter_map(|r| r.parent);
        if let Some(x) = ids.chain(parents).find(|x| x.index() >= n) {
            return Err(ModelError::UnknownNode(x));
        }
        let labels = raw_nodes.iter().map(|r| r.label);
        if let Some(l) = labels
            .chain(raw_attrs.iter().map(|a| a.name))
            .find(|&l| l as usize >= names.len())
        {
            return invalid(format!("name {l} past {} names", names.len()));
        }

        // One dictionary id per spelling, whatever the raw names repeat.
        let mut values = Values {
            pool,
            ..Values::default()
        };
        let canon: Vec<u32> = names.iter().map(|l| values.name_id(l)).collect();
        let (mut next_child, mut next_attr, mut next_member) = (0u32, 0usize, 0usize);
        let mut set: Vec<Sym> = Vec::new();
        // `RawNode` and `Node` have one size and alignment, so collecting
        // the map of the consumed list reuses its allocation: the node
        // array is never held twice.
        let convert = |(i, raw): (usize, RawNode)| -> Result<Node, ModelError> {
            let id = NodeId(i as u32);
            let start = values.slots.items.len();
            for a in &raw_attrs[next_attr..next_attr + raw.attrs as usize] {
                let end = next_member + a.members as usize;
                set.clear();
                set.extend_from_slice(&raw_members[next_member..end]);
                next_member = end;
                let pool = &values.pool;
                set.sort_unstable_by(|x, y| pool.resolve(*x).cmp(pool.resolve(*y)));
                set.dedup();
                let val = if let [one] = set[..] {
                    (one.index() as u32, 1)
                } else {
                    values.members.push(set.iter().copied())
                };
                let name = canon[a.name as usize];
                values.slots.items.push(Slot { name, val });
            }
            next_attr += raw.attrs as usize;
            let Values { names, slots, .. } = &mut values;
            let own = &mut slots.items[start..];
            own.sort_unstable_by(|x, y| names[x.name as usize].cmp(&names[y.name as usize]));
            if let Some(w) = own.windows(2).find(|w| w[0].name == w[1].name) {
                return Err(ModelError::DuplicateAttribute {
                    node: id,
                    attr: names[w[0].name as usize].clone(),
                });
            }
            let kids = (next_child, raw.children);
            next_child += raw.children;
            Ok(Node {
                label: canon[raw.label as usize],
                parent: raw.parent.map_or(NO_PARENT, |p| p.0),
                children: kids,
                attrs: (start as u32, raw.attrs),
            })
        };
        let built: Vec<Node> = (raw_nodes.into_iter().enumerate())
            .map(convert)
            .collect::<Result<_, _>>()?;
        children.shrink_to_fit();
        let children = Arena {
            items: children,
            stale: 0,
        };
        for (i, node) in built.iter().enumerate() {
            if is_dead(i) {
                continue;
            }
            let id = NodeId(i as u32);
            for cn in children
                .get(node.children)
                .iter()
                .filter_map(Child::as_node)
            {
                if is_dead(cn.index()) {
                    return invalid(format!("live vertex {id:?} lists tombstoned child {cn:?}"));
                }
                if built[cn.index()].parent != id.0 {
                    return Err(ModelError::SecondParent { node: cn });
                }
            }
        }
        // Reachability over live vertices: live children of live vertices
        // were verified above, so the walk only visits live slots.
        let live = n - dead.iter().filter(|&&d| d).count();
        let mut seen = vec![false; n];
        let mut stack = vec![root];
        let mut count = 0usize;
        while let Some(id) = stack.pop() {
            if seen[id.index()] {
                continue;
            }
            seen[id.index()] = true;
            count += 1;
            let kids = children.get(built[id.index()].children);
            stack.extend(kids.iter().filter_map(Child::as_node));
        }
        if count != live {
            return Err(ModelError::Unreachable {
                orphans: live - count,
            });
        }
        let dead_count = n - live;
        // Normalize: an all-false flag vector is the empty one.
        let dead = if dead_count == 0 { Vec::new() } else { dead };
        values.shrink_to_fit();
        Ok(DataTree {
            nodes: built,
            children,
            root,
            dead,
            dead_count,
            values,
        })
    }
}

/// Pre-order iterator over a [`DataTree`].
pub struct Preorder<'a> {
    tree: &'a DataTree,
    stack: Vec<NodeId>,
}

impl Iterator for Preorder<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let id = self.stack.pop()?;
        // Push children reversed so they pop in document order.
        let kids = self.tree.children(id).iter().rev();
        self.stack.extend(kids.filter_map(Child::as_node));
        Some(id)
    }
}

/// Precomputed `τ ↦ ext(τ)` index over a [`DataTree`].
///
/// ```
/// use xic_model::{TreeBuilder, ExtIndex};
/// let mut b = TreeBuilder::new();
/// let root = b.node("db");
/// let p1 = b.node("person");
/// let p2 = b.node("person");
/// b.child(root, p1).unwrap();
/// b.child(root, p2).unwrap();
/// let tree = b.finish(root).unwrap();
/// let idx = ExtIndex::build(&tree);
/// assert_eq!(idx.ext("person").len(), 2);
/// assert!(idx.ext("dept").is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct ExtIndex {
    by_label: HashMap<Name, Vec<NodeId>>,
}

impl ExtIndex {
    /// Builds the index in one pass over the tree.
    pub fn build(tree: &DataTree) -> Self {
        let names = &tree.values.names;
        let mut by_id: Vec<Vec<NodeId>> = vec![Vec::new(); names.len()];
        for id in tree.node_ids() {
            by_id[tree.node(id).label as usize].push(id);
        }
        let by_label = (names.iter().cloned().zip(by_id))
            .filter(|(_, ids)| !ids.is_empty())
            .collect();
        ExtIndex { by_label }
    }

    /// An empty index, for incremental construction (e.g. while streaming
    /// a document without materializing a tree).
    pub fn empty() -> Self {
        ExtIndex {
            by_label: HashMap::new(),
        }
    }

    /// Appends `id` to `ext(label)`. Callers must push nodes in document
    /// order to preserve the `ext(τ)`-is-document-ordered invariant.
    pub fn push(&mut self, label: &Name, id: NodeId) {
        self.by_label.entry(label.clone()).or_default().push(id);
    }

    /// Installs a whole extent column at once (the streaming checker keeps
    /// per-label columns and assembles the index at end-of-document instead
    /// of paying one hash probe per node). `ids` must already be in document
    /// order; extends the extent if `label` was inserted before.
    pub fn insert_extent(&mut self, label: Name, ids: Vec<NodeId>) {
        match self.by_label.entry(label) {
            std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().extend(ids),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(ids);
            }
        }
    }

    /// `ext(τ)` in document order (empty slice if `τ` never occurs).
    pub fn ext(&self, tau: &str) -> &[NodeId] {
        self.by_label.get(tau).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The element labels that actually occur in the tree.
    pub fn labels(&self) -> impl Iterator<Item = &Name> {
        self.by_label.keys()
    }
}

/// Builder enforcing the invariants of Definition 2.1.
///
/// Create nodes with [`TreeBuilder::node`], link them with
/// [`TreeBuilder::child`]/[`TreeBuilder::text`], set attributes, then call
/// [`TreeBuilder::finish`] with the root. `finish` verifies the root is
/// parentless and every vertex is reachable from it.
#[derive(Default, Debug)]
pub struct TreeBuilder {
    nodes: Vec<Node>,
    children: Arena<Child>,
    open: Open,
    values: Values,
    pending: Pending,
}

/// The child lists a [`TreeBuilder`] is still growing. Its *open*
/// vertices form a stack, each one's children so far sitting above those
/// of the vertex below it. Appending to an open vertex first *closes*
/// every vertex above it, moving each one's list to the end of the child
/// arena whole; appending to a closed vertex reopens it on top, leaving
/// its old list in the arena stale. An open vertex's child span is
/// `(OPEN, its stack depth)`.
///
/// A document built in order, each vertex's children appended before its
/// next sibling's, opens and closes each vertex once: every child is
/// copied once and the arena ends up holding nothing stale.
#[derive(Default, Debug)]
struct Open {
    stack: Vec<(NodeId, usize)>,
    children: Vec<Child>,
}

impl Open {
    /// The child-span start marking an open vertex.
    const OPEN: u32 = u32::MAX;
}

/// Values a [`TreeBuilder`] has taken but not yet interned. Until
/// [`TreeBuilder::finish`], a slot, member or text child holds its value's
/// *number* (order of arrival) in place of a symbol; values are interned
/// [`Pending::CHUNK`] at a time through [`Interner::intern_group`], whose
/// table loads overlap, and `finish` maps every number to its symbol.
/// Interning in arrival order numbers the pool in document order, as
/// interning each value on arrival would.
#[derive(Default, Debug)]
struct Pending {
    bytes: Vec<u8>,
    ranges: Vec<(usize, usize)>,
    /// Value number ↦ symbol, for the values interned so far.
    syms: Vec<Sym>,
}

impl Pending {
    /// Values buffered between two group interns: a few KiB of bytes.
    const CHUNK: usize = 1024;

    /// Takes `s`, returning its number as a placeholder symbol.
    fn push(&mut self, pool: &mut Interner, s: &str) -> Sym {
        let number = self.syms.len() + self.ranges.len();
        let start = self.bytes.len();
        self.bytes.extend_from_slice(s.as_bytes());
        self.ranges.push((start, self.bytes.len()));
        if self.ranges.len() == Self::CHUNK {
            self.flush(pool);
        }
        Sym::from_index(u32::try_from(number).expect("value numbers fit u32"))
    }

    fn flush(&mut self, pool: &mut Interner) {
        pool.intern_group(&self.bytes, &self.ranges, &mut self.syms);
        self.bytes.clear();
        self.ranges.clear();
    }

    /// Interns what is left and replaces every placeholder with its
    /// symbol.
    fn resolve(mut self, children: &mut [Child], values: &mut Values) {
        self.flush(&mut values.pool);
        let sym = |placeholder: Sym| self.syms[placeholder.index()];
        for s in values.slots.items.iter_mut().filter(|s| s.val.1 == 1) {
            s.val.0 = sym(Sym::from_index(s.val.0)).index() as u32;
        }
        for m in &mut values.members.items {
            *m = sym(*m);
        }
        for c in children {
            if let Child::Text(t) = c {
                *t = sym(*t);
            }
        }
    }
}

impl TreeBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a fresh, unattached vertex labelled `label`.
    pub fn node(&mut self, label: impl AsRef<str>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let label = self.values.name_id(label.as_ref());
        self.nodes.push(Node::new(label));
        id
    }

    fn check(&self, id: NodeId) -> Result<(), ModelError> {
        if id.index() < self.nodes.len() {
            Ok(())
        } else {
            Err(ModelError::UnknownNode(id))
        }
    }

    /// Appends `c` to `parent`'s child list (see [`Open`]).
    fn push_child(&mut self, parent: NodeId, c: Child) {
        let r = self.nodes[parent.index()].children;
        if r.0 == Open::OPEN {
            self.close_above(r.1 as usize + 1);
        } else {
            let depth = self.open.stack.len() as u32;
            self.open.stack.push((parent, self.open.children.len()));
            self.open.children.extend_from_slice(self.children.get(r));
            self.children.release(r.1 as usize);
            self.nodes[parent.index()].children = (Open::OPEN, depth);
        }
        self.open.children.push(c);
    }

    /// Closes the open vertices at stack depth `depth` and above.
    fn close_above(&mut self, depth: usize) {
        while self.open.stack.len() > depth {
            let (id, from) = self.open.stack.pop().expect("an open vertex");
            let list = self.open.children.drain(from..);
            self.nodes[id.index()].children = self.children.push(list);
        }
    }

    /// Appends `child` to `parent`'s child list. Errors if `child` already
    /// has a parent (the tree condition).
    pub fn child(&mut self, parent: NodeId, child: NodeId) -> Result<(), ModelError> {
        self.check(parent)?;
        self.check(child)?;
        if self.nodes[child.index()].parent != NO_PARENT {
            return Err(ModelError::SecondParent { node: child });
        }
        self.nodes[child.index()].parent = parent.0;
        self.push_child(parent, Child::Node(child));
        Ok(())
    }

    /// Appends a string child to `parent`.
    pub fn text(&mut self, parent: NodeId, text: impl AsRef<str>) -> Result<(), ModelError> {
        self.check(parent)?;
        let number = self.pending.push(&mut self.values.pool, text.as_ref());
        self.push_child(parent, Child::Text(number));
        Ok(())
    }

    /// Sets attribute `l` on `node` (an empty value set is allowed: XML's
    /// `l=""` on a set-valued attribute denotes the empty set). Errors if
    /// the attribute is already set.
    pub fn attr(
        &mut self,
        node: NodeId,
        l: impl AsRef<str>,
        value: AttrValue,
    ) -> Result<(), ModelError> {
        self.add_attr(node, l.as_ref(), value.values().iter().map(String::as_str))
    }

    /// [`TreeBuilder::attr`] of the singleton `{value}`, from a borrowed
    /// string: a parser's path, which then copies the value only into the
    /// pool, and only the first time it occurs.
    pub fn attr_str(
        &mut self,
        node: NodeId,
        l: impl AsRef<str>,
        value: &str,
    ) -> Result<(), ModelError> {
        self.add_attr(node, l.as_ref(), std::iter::once(value))
    }

    /// Adds attribute `l` with the given sorted, distinct members.
    fn add_attr<'a>(
        &mut self,
        node: NodeId,
        l: &str,
        members: impl ExactSizeIterator<Item = &'a str>,
    ) -> Result<(), ModelError> {
        self.check(node)?;
        let v = &mut self.values;
        let r = &mut self.nodes[node.index()].attrs;
        let Err(at) = v.find(*r, l) else {
            let attr = Name::new(l);
            return Err(ModelError::DuplicateAttribute { node, attr });
        };
        let name = v.name_id(l);
        let pending = &mut self.pending;
        let val = v.intern(members, |pool, m| pending.push(pool, m));
        v.slots.insert(r, at, Slot { name, val });
        Ok(())
    }

    /// Convenience: creates a node, attaches it under `parent`, and returns
    /// its id.
    pub fn child_node(
        &mut self,
        parent: NodeId,
        label: impl AsRef<str>,
    ) -> Result<NodeId, ModelError> {
        let id = self.node(label);
        self.child(parent, id)?;
        Ok(id)
    }

    /// Convenience: a child element holding a single text child, e.g.
    /// `<title>t</title>`.
    pub fn leaf(
        &mut self,
        parent: NodeId,
        label: impl AsRef<str>,
        text: impl AsRef<str>,
    ) -> Result<NodeId, ModelError> {
        let id = self.child_node(parent, label)?;
        self.text(id, text)?;
        Ok(id)
    }

    /// Finishes the tree rooted at `root`, checking that `root` is
    /// parentless and that every created vertex is reachable from it.
    ///
    /// The finished tree keeps no spare capacity: growth reserved room in
    /// the node array, the arenas and the pool, which a resident document
    /// would otherwise carry for its whole life.
    pub fn finish(mut self, root: NodeId) -> Result<DataTree, ModelError> {
        if root.index() >= self.nodes.len() {
            return Err(ModelError::UnknownNode(root));
        }
        if self.nodes[root.index()].parent != NO_PARENT {
            return Err(ModelError::RootHasParent(root));
        }
        // The lists still open (the root's, at least) go to the arena
        // last; room for exactly them spares a doubling.
        (self.children.items).reserve_exact(self.open.children.len());
        self.close_above(0);
        let Self {
            mut nodes,
            mut children,
            open: _,
            mut values,
            pending,
        } = self;
        // Reachability check.
        let mut seen = vec![false; nodes.len()];
        let mut stack = vec![root];
        let mut count = 0usize;
        while let Some(id) = stack.pop() {
            if seen[id.index()] {
                continue;
            }
            seen[id.index()] = true;
            count += 1;
            let kids = children.get(nodes[id.index()].children);
            stack.extend(kids.iter().filter_map(Child::as_node));
        }
        if count != nodes.len() {
            return Err(ModelError::Unreachable {
                orphans: nodes.len() - count,
            });
        }
        drop(seen);
        if children.stale > 0 {
            children.compact(nodes.iter_mut().map(|n| &mut n.children));
        }
        pending.resolve(&mut children.items, &mut values);
        children.shrink_to_fit();
        nodes.shrink_to_fit();
        if values.slots.stale + values.members.stale > 0 {
            values.compact(&mut nodes);
        }
        values.shrink_to_fit();
        Ok(DataTree {
            nodes,
            children,
            root,
            dead: Vec::new(),
            dead_count: 0,
            values,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::STALE_MIN;

    fn book_tree() -> DataTree {
        // The paper's Figure 2 book document, abbreviated.
        let mut b = TreeBuilder::new();
        let book = b.node("book");
        let entry = b.child_node(book, "entry").unwrap();
        b.attr(entry, "isbn", AttrValue::single("1-55860-622-X"))
            .unwrap();
        b.leaf(entry, "title", "Data on the Web").unwrap();
        b.leaf(entry, "publisher", "Morgan Kaufmann").unwrap();
        for a in ["Abiteboul", "Buneman", "Suciu"] {
            b.leaf(book, "author", a).unwrap();
        }
        let s1 = b.child_node(book, "section").unwrap();
        b.attr(s1, "sid", AttrValue::single("intro")).unwrap();
        b.leaf(s1, "title", "Introduction").unwrap();
        let s11 = b.child_node(s1, "section").unwrap();
        b.attr(s11, "sid", AttrValue::single("audience")).unwrap();
        let r = b.child_node(book, "ref").unwrap();
        b.attr(r, "to", AttrValue::set(["1-55860-622-X", "0-201-53771-0"]))
            .unwrap();
        b.finish(book).unwrap()
    }

    #[test]
    fn builds_and_navigates_figure2_document() {
        let t = book_tree();
        assert_eq!(t.label(t.root()).as_str(), "book");
        assert_eq!(t.ext("author").count(), 3);
        assert_eq!(t.ext("section").count(), 2);
        let entry = t.ext("entry").next().unwrap();
        assert_eq!(
            t.attr(entry, "isbn").unwrap().as_single().unwrap(),
            "1-55860-622-X"
        );
        assert_eq!(t.depth(entry), 1);
        let inner = t.ext("section").nth(1).unwrap();
        assert_eq!(t.depth(inner), 2);
    }

    #[test]
    fn preorder_is_document_order() {
        let t = book_tree();
        let labels: Vec<&str> = t.preorder().map(|n| t.label(n).as_str()).collect();
        assert_eq!(labels[0], "book");
        assert_eq!(labels[1], "entry");
        assert_eq!(labels[2], "title");
        assert_eq!(*labels.last().unwrap(), "ref");
        assert_eq!(labels.len(), t.len());
    }

    #[test]
    fn ext_index_matches_scan() {
        let t = book_tree();
        let idx = ExtIndex::build(&t);
        for tau in ["book", "entry", "author", "section", "ref", "missing"] {
            let scan: Vec<NodeId> = t.ext(tau).collect();
            assert_eq!(idx.ext(tau), scan.as_slice(), "label {tau}");
        }
    }

    #[test]
    fn tuple_projects_attribute_sequences() {
        let mut b = TreeBuilder::new();
        let p = b.node("publisher");
        b.attr(p, "pname", AttrValue::single("MK")).unwrap();
        b.attr(p, "country", AttrValue::single("USA")).unwrap();
        let t = b.finish(p).unwrap();
        let xs = [Name::new("pname"), Name::new("country")];
        let tup = t.tuple(p, &xs).unwrap();
        assert_eq!(tup, ["MK", "USA"]);
        assert!(t.tuple(p, &[Name::new("missing")]).is_none());
    }

    #[test]
    fn tuple_rejects_set_valued_components() {
        let mut b = TreeBuilder::new();
        let r = b.node("ref");
        b.attr(r, "to", AttrValue::set(["a", "b"])).unwrap();
        let t = b.finish(r).unwrap();
        assert!(t.tuple(r, &[Name::new("to")]).is_none());
    }

    #[test]
    fn second_parent_rejected() {
        let mut b = TreeBuilder::new();
        let r = b.node("r");
        let c = b.node("c");
        let d = b.node("d");
        b.child(r, c).unwrap();
        assert_eq!(b.child(d, c), Err(ModelError::SecondParent { node: c }));
    }

    #[test]
    fn root_with_parent_rejected() {
        let mut b = TreeBuilder::new();
        let r = b.node("r");
        let c = b.node("c");
        b.child(r, c).unwrap();
        assert_eq!(b.finish(c).unwrap_err(), ModelError::RootHasParent(c));
    }

    #[test]
    fn unreachable_nodes_rejected() {
        let mut b = TreeBuilder::new();
        let r = b.node("r");
        let _orphan = b.node("o");
        assert_eq!(
            b.finish(r).unwrap_err(),
            ModelError::Unreachable { orphans: 1 }
        );
    }

    #[test]
    fn duplicate_attrs_rejected_empty_sets_allowed() {
        let mut b = TreeBuilder::new();
        let r = b.node("r");
        b.attr(r, "a", AttrValue::single("1")).unwrap();
        assert!(matches!(
            b.attr(r, "a", AttrValue::single("2")),
            Err(ModelError::DuplicateAttribute { .. })
        ));
        b.attr(r, "b", AttrValue::set(Vec::<String>::new()))
            .unwrap();
        let t = b.finish(r).unwrap();
        assert!(t.attr(r, "b").unwrap().is_empty());
    }

    #[test]
    fn attr_value_set_normalizes() {
        let v = AttrValue::set(["b", "a", "b"]);
        assert_eq!(v.len(), 2);
        assert!(v.contains("a") && v.contains("b"));
        assert!(!v.contains("c"));
        assert_eq!(v, AttrValue::set(["a", "b"]));
        assert!(!v.is_singleton());
        assert_eq!(v.as_single(), None);
    }

    #[test]
    fn node_text_concatenates() {
        let mut b = TreeBuilder::new();
        let r = b.node("t");
        b.text(r, "Data ").unwrap();
        b.text(r, "on the Web").unwrap();
        let t = b.finish(r).unwrap();
        assert_eq!(t.text(r), "Data on the Web");
    }

    #[test]
    fn set_attr_replaces_and_creates() {
        let mut t = book_tree();
        let entry = t.ext("entry").next().unwrap();
        assert_eq!(
            t.attr(entry, "isbn").unwrap().as_single().unwrap(),
            "1-55860-622-X"
        );
        t.set_attr(entry, "isbn", AttrValue::single("0-201-53771-0"))
            .unwrap();
        assert_eq!(
            t.attr(entry, "isbn").unwrap().as_single().unwrap(),
            "0-201-53771-0"
        );
        assert!(t.attr(entry, "lang").is_none());
        t.set_attr(entry, "lang", AttrValue::single("en")).unwrap();
        assert_eq!(t.attr(entry, "lang").unwrap().as_single().unwrap(), "en");
    }

    #[test]
    fn remove_attr_and_errors() {
        let mut t = book_tree();
        let entry = t.ext("entry").next().unwrap();
        assert_eq!(t.remove_attr(entry, "isbn"), Ok(true));
        assert!(t.attr(entry, "isbn").is_none());
        // Removing it again is a no-op; a dead vertex is an error.
        assert_eq!(t.remove_attr(entry, "isbn"), Ok(false));
        let s1 = t.ext("section").next().unwrap();
        t.delete_subtree(s1).unwrap();
        assert_eq!(t.remove_attr(s1, "sid"), Err(ModelError::DeadNode(s1)));
    }

    #[test]
    fn set_text_replaces_kth_text_child() {
        let mut t = book_tree();
        let title = t.ext("title").next().unwrap();
        let old = t.set_text(title, 0, "Web Data".into()).unwrap();
        assert_eq!(old, Value::from("Data on the Web"));
        assert_eq!(t.text(title), "Web Data");
        assert_eq!(
            t.set_text(title, 1, "x".into()),
            Err(ModelError::NoSuchText {
                node: title,
                index: 1
            })
        );
    }

    #[test]
    fn delete_subtree_tombstones_without_id_reuse() {
        let mut t = book_tree();
        let before = t.len();
        let bound = t.id_bound();
        let s1 = t.ext("section").next().unwrap();
        let e = t.delete_subtree(s1).unwrap();
        // s1 holds a title leaf and a nested section: 3 vertices total.
        assert_eq!(
            e,
            Edit::DeleteSubtree {
                parent: t.root(),
                position: 4,
                root: s1,
                count: 3,
            }
        );
        assert_eq!(t.len(), before - 3);
        assert_eq!(t.id_bound(), bound, "ids are never reclaimed");
        assert!(!t.is_alive(s1));
        assert_eq!(t.ext("section").count(), 0);
        assert!(t.node_ids().all(|id| t.is_alive(id)));
        // Tombstones stay readable (delta consumers need the content)...
        assert_eq!(t.label(s1).as_str(), "section");
        // ...but cannot be edited or deleted again.
        assert_eq!(t.delete_subtree(s1), Err(ModelError::DeadNode(s1)));
        assert_eq!(
            t.set_attr(s1, "sid", AttrValue::single("x")),
            Err(ModelError::DeadNode(s1))
        );
        assert_eq!(
            t.delete_subtree(t.root()),
            Err(ModelError::RootDelete(t.root()))
        );
    }

    #[test]
    fn insert_subtree_grafts_fresh_ids_at_arena_end() {
        let mut t = book_tree();
        let mut fb = TreeBuilder::new();
        let s = fb.node("section");
        fb.attr(s, "sid", AttrValue::single("new")).unwrap();
        fb.leaf(s, "title", "New Section").unwrap();
        let frag = fb.finish(s).unwrap();

        let bound = t.id_bound();
        let before = t.len();
        let e = t.insert_subtree(t.root(), 0, &frag).unwrap();
        let Edit::InsertSubtree {
            parent,
            position,
            root,
            count,
        } = e
        else {
            panic!("expected InsertSubtree, got {e:?}");
        };
        assert_eq!((parent, position, count), (t.root(), 0, 2));
        assert_eq!(root.index(), bound, "fresh ids start at the old bound");
        assert_eq!(t.len(), before + 2);
        assert_eq!(t.node(root).parent(), Some(t.root()));
        assert_eq!(t.children(t.root())[0].as_node(), Some(root));
        assert_eq!(t.attr(root, "sid").unwrap().as_single().unwrap(), "new");
        assert_eq!(t.ext("section").count(), 3);
        // Position past the end is rejected.
        let n = t.children(t.root()).len();
        assert_eq!(
            t.insert_subtree(t.root(), n + 1, &frag),
            Err(ModelError::BadPosition {
                node: t.root(),
                position: n + 1,
                len: n,
            })
        );
    }

    /// Captures a tree's complete raw state through its public accessors,
    /// the way a serializer does: one description per slot (tombstones
    /// included), a name per attribute, and tombstone flags, empty when no
    /// vertex is dead.
    fn raw_parts_of(t: &DataTree) -> (RawTree, NodeId, Vec<bool>) {
        let ids = (0..t.id_bound()).map(NodeId::from_index);
        let mut raw = RawTree {
            pool: t.pool().clone(),
            ..RawTree::default()
        };
        for id in ids.clone() {
            for (name, value) in t.attrs(id) {
                raw.attrs.push(RawAttr {
                    name: raw.names.len() as u32,
                    members: value.len() as u32,
                });
                raw.names.push(name.clone());
                raw.members.extend(value.syms());
            }
            raw.nodes.push(RawNode {
                label: raw.names.len() as u32,
                children: t.children(id).len() as u32,
                attrs: t.attrs(id).len() as u32,
                parent: t.node(id).parent(),
            });
            raw.names.push(t.label(id).clone());
            raw.children.extend_from_slice(t.children(id));
        }
        let dead = if t.len() < t.id_bound() {
            ids.map(|id| !t.is_alive(id)).collect()
        } else {
            Vec::new()
        };
        (raw, t.root(), dead)
    }

    #[test]
    fn from_raw_parts_round_trips_edited_trees() {
        let mut t = book_tree();
        let s1 = t.ext("section").next().unwrap();
        t.delete_subtree(s1).unwrap();
        let entry = t.ext("entry").next().unwrap();
        t.set_attr(entry, "lang", AttrValue::single("en")).unwrap();
        let (nodes, root, dead) = raw_parts_of(&t);
        let rebuilt = DataTree::from_raw_parts(nodes, root, dead).unwrap();
        assert_eq!(rebuilt.len(), t.len());
        assert_eq!(rebuilt.id_bound(), t.id_bound());
        assert_eq!(rebuilt.root(), t.root());
        for id in t.node_ids() {
            assert!(rebuilt.is_alive(id));
            assert_eq!(rebuilt.label(id), t.label(id));
            assert_eq!(rebuilt.children(id), t.children(id));
            assert_eq!(rebuilt.node(id).parent(), t.node(id).parent());
            assert!(rebuilt.attrs(id).eq(t.attrs(id)));
            assert_eq!(rebuilt.text(id), t.text(id));
        }
        assert!(!rebuilt.is_alive(s1));
        // A pristine tree round-trips with an empty tombstone vector.
        let t = book_tree();
        let (nodes, root, _) = raw_parts_of(&t);
        let rebuilt = DataTree::from_raw_parts(nodes, root, Vec::new()).unwrap();
        assert_eq!(rebuilt.len(), t.len());
    }

    #[test]
    fn from_raw_parts_rejects_inconsistent_input() {
        let t = book_tree();
        let (nodes, root, dead) = raw_parts_of(&t);

        // Root out of bounds.
        let bad = NodeId::from_index(nodes.nodes.len());
        assert!(matches!(
            DataTree::from_raw_parts(nodes.clone(), bad, dead.clone()),
            Err(ModelError::UnknownNode(_))
        ));
        // Tombstone flags of the wrong length.
        assert!(matches!(
            DataTree::from_raw_parts(nodes.clone(), root, vec![false; 2]),
            Err(ModelError::InvalidParts { .. })
        ));
        // Dead root.
        let mut all_dead_root = vec![false; nodes.nodes.len()];
        all_dead_root[root.index()] = true;
        assert!(matches!(
            DataTree::from_raw_parts(nodes.clone(), root, all_dead_root),
            Err(ModelError::DeadNode(_))
        ));
        // A child whose parent link points elsewhere (second parent).
        let mut torn = nodes.clone();
        torn.nodes[1].parent = Some(NodeId::from_index(2));
        assert!(matches!(
            DataTree::from_raw_parts(torn, root, dead.clone()),
            Err(ModelError::SecondParent { .. })
        ));
        // A live vertex listing a tombstoned child.
        let mut flags = vec![false; nodes.nodes.len()];
        flags[2] = true; // entry's title leaf
        assert!(matches!(
            DataTree::from_raw_parts(nodes.clone(), root, flags),
            Err(ModelError::InvalidParts { .. })
        ));
        // An unreachable live vertex.
        let mut cut = nodes.clone();
        let entry = cut
            .children
            .iter()
            .position(|c| c.as_node() == Some(NodeId::from_index(1)));
        cut.children.remove(entry.unwrap());
        cut.nodes[0].children -= 1;
        assert!(matches!(
            DataTree::from_raw_parts(cut, root, dead.clone()),
            Err(ModelError::Unreachable { .. })
        ));
        // Duplicate attributes on one vertex: entry's isbn twice, its
        // second copy under a repeated spelling of the name.
        let mut dup = nodes.clone();
        dup.nodes[1].attrs += 1;
        let first = dup.attrs[0];
        dup.attrs.insert(
            1,
            RawAttr {
                name: dup.names.len() as u32,
                ..first
            },
        );
        dup.names.push(dup.names[first.name as usize].clone());
        let members = dup.members[..first.members as usize].to_vec();
        dup.members.splice(0..0, members);
        assert!(matches!(
            DataTree::from_raw_parts(dup, root, dead.clone()),
            Err(ModelError::DuplicateAttribute { .. })
        ));
        // A symbol outside the pool, as a member and as a text child.
        let mut outside = nodes.clone();
        outside.members[0] = Sym::from_index(outside.pool.len() as u32);
        assert!(matches!(
            DataTree::from_raw_parts(outside, root, dead.clone()),
            Err(ModelError::InvalidParts { .. })
        ));
        let mut outside = nodes.clone();
        let text = outside.children.iter().position(|c| c.as_text().is_some());
        outside.children[text.unwrap()] = Child::Text(Sym::from_index(1 << 20));
        assert!(matches!(
            DataTree::from_raw_parts(outside, root, dead.clone()),
            Err(ModelError::InvalidParts { .. })
        ));
        // Counts that do not add up, and a name past the list.
        let mut short = nodes.clone();
        short.members.pop();
        assert!(matches!(
            DataTree::from_raw_parts(short, root, dead.clone()),
            Err(ModelError::InvalidParts { .. })
        ));
        let mut unnamed = nodes.clone();
        unnamed.attrs[0].name = 99;
        assert!(matches!(
            DataTree::from_raw_parts(unnamed, root, dead.clone()),
            Err(ModelError::InvalidParts { .. })
        ));
        // Child counts that do not add up, a label past the names, and a
        // child id past the slots.
        let mut miscounted = nodes.clone();
        miscounted.nodes[0].children += 1;
        assert!(matches!(
            DataTree::from_raw_parts(miscounted, root, dead.clone()),
            Err(ModelError::InvalidParts { .. })
        ));
        let mut unlabelled = nodes.clone();
        unlabelled.nodes[3].label = unlabelled.names.len() as u32;
        assert!(matches!(
            DataTree::from_raw_parts(unlabelled, root, dead.clone()),
            Err(ModelError::InvalidParts { .. })
        ));
        let mut stray = nodes;
        let at = stray.children.iter().position(|c| c.as_node().is_some());
        stray.children[at.unwrap()] = Child::Node(NodeId::from_index(stray.nodes.len()));
        assert!(matches!(
            DataTree::from_raw_parts(stray, root, dead),
            Err(ModelError::UnknownNode(_))
        ));
    }

    /// Inserts move the grown child list to the arena end and deletes
    /// leave gaps; once the stale entries outnumber the live ones (and
    /// `STALE_MIN`), the arena is rewritten, and every list reads as
    /// edited throughout.
    #[test]
    fn churned_children_compact_and_keep_their_order() {
        let mut b = TreeBuilder::new();
        let root = b.node("r");
        let parents: Vec<NodeId> = (0..4).map(|_| b.child_node(root, "p").unwrap()).collect();
        let mut t = b.finish(root).unwrap();
        let mut fb = TreeBuilder::new();
        let k = fb.node("k");
        let leaf = fb.finish(k).unwrap();
        let mut want: Vec<Vec<Child>> = vec![Vec::new(); parents.len()];
        let mut peak = 0;
        for step in 0..6000usize {
            let p = step % parents.len();
            let list = &mut want[p];
            if list.len() >= 8 {
                let Child::Node(x) = list.remove(step % list.len()) else {
                    unreachable!()
                };
                t.delete_subtree(x).unwrap();
            } else {
                let at = step % (list.len() + 1);
                let e = t.insert_subtree(parents[p], at, &leaf).unwrap();
                let Edit::InsertSubtree { root: x, .. } = e else {
                    unreachable!()
                };
                list.insert(at, Child::Node(x));
            }
            for (p, list) in parents.iter().zip(&want) {
                assert_eq!(t.children(*p), &list[..], "step {step}");
            }
            let arena = &t.children;
            peak = peak.max(arena.items.len());
            assert!(arena.stale <= STALE_MIN.max(arena.items.len() / 2));
        }
        assert!(
            peak < 2 * STALE_MIN,
            "the child arena grew to {peak} entries"
        );
        let kids: Vec<Child> = parents.iter().map(|&p| Child::Node(p)).collect();
        assert_eq!(t.children(root), &kids[..]);
    }

    /// Edits that grow a vertex's attribute range or a set move it to the
    /// arena end; once the entries left behind outnumber the live ones
    /// (and `STALE_MIN`), the arenas are rewritten, and every value reads
    /// as written throughout.
    #[test]
    fn churned_attributes_compact_and_keep_their_values() {
        let mut b = TreeBuilder::new();
        let root = b.node("r");
        let kids: Vec<NodeId> = (0..20).map(|_| b.child_node(root, "k").unwrap()).collect();
        let mut t = b.finish(root).unwrap();
        let mut want: HashMap<(usize, &str), Vec<String>> = HashMap::new();
        let names = ["a", "b", "c"];
        let mut peak = 0;
        for step in 0..6000usize {
            let k = step % kids.len();
            let name = names[step / kids.len() % names.len()];
            if step % 7 == 0 {
                let old = t
                    .attr(kids[k], name)
                    .map(|v| v.to_owned().values().to_vec());
                assert_eq!(old, want.remove(&(k, name)));
                assert_eq!(t.remove_attr(kids[k], name), Ok(old.is_some()));
            } else {
                let n = step % 5;
                let members: Vec<String> =
                    (0..n).map(|i| format!("m{}", (step + i) % 11)).collect();
                let value = AttrValue::set(members);
                want.insert((k, name), value.values().to_vec());
                t.set_attr(kids[k], name, value).unwrap();
            }
            let v = &t.values;
            let (slots, members) = (&v.slots, &v.members);
            peak = peak.max(slots.items.len() + members.items.len());
            assert!(slots.stale <= STALE_MIN.max(slots.items.len() / 2));
            assert!(members.stale <= STALE_MIN.max(members.items.len() / 2));
        }
        assert!(peak < 4 * STALE_MIN, "the arenas grew to {peak} entries");
        for (k, &x) in kids.iter().enumerate() {
            for name in names {
                let got = t
                    .attr(x, name)
                    .map(|v| v.values().map(String::from).collect::<Vec<_>>());
                assert_eq!(got.as_ref(), want.get(&(k, name)), "{x:?}.{name}");
            }
        }
    }

    #[test]
    fn insert_skips_fragment_tombstones() {
        let mut fb = TreeBuilder::new();
        let r = fb.node("db");
        let keep = fb.child_node(r, "keep").unwrap();
        let drop_ = fb.child_node(r, "drop").unwrap();
        let mut frag = fb.finish(r).unwrap();
        frag.delete_subtree(drop_).unwrap();

        let mut tb = TreeBuilder::new();
        let host = tb.node("host");
        let mut t = tb.finish(host).unwrap();
        let e = t.insert_subtree(host, 0, &frag).unwrap();
        let Edit::InsertSubtree { root, count, .. } = e else {
            panic!()
        };
        assert_eq!(count, 2, "only live fragment vertices are copied");
        assert_eq!(t.label(root).as_str(), "db");
        let kids: Vec<_> = t.child_nodes(root).collect();
        assert_eq!(kids.len(), 1);
        assert_eq!(t.label(kids[0]).as_str(), "keep");
        let _ = keep;
    }
}
