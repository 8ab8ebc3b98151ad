//! Data trees (Definition 2.1) and their construction.

use std::collections::HashMap;
use std::fmt;

use crate::Name;

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
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Child {
    /// A string child (a member of **S**).
    Text(Value),
    /// An element child (a member of `V`).
    Node(NodeId),
}

impl Child {
    /// The node id if this child is an element, else `None`.
    pub fn as_node(&self) -> Option<NodeId> {
        match self {
            Child::Node(n) => Some(*n),
            Child::Text(_) => None,
        }
    }

    /// The text if this child is a string value, else `None`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Child::Text(t) => Some(t),
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

/// One vertex of a data tree: its label, ordered children, attributes and
/// parent link.
#[derive(Clone, Debug)]
pub struct Node {
    /// The element name labelling this vertex (first component of `elem`).
    pub label: Name,
    /// The ordered child list (second component of `elem`).
    pub children: Vec<Child>,
    /// The attributes of this vertex (`att(v, ·)`), name-sorted.
    attrs: Vec<(Name, AttrValue)>,
    /// Parent vertex; `None` only for the root.
    parent: Option<NodeId>,
}

impl Node {
    /// Attribute lookup by name.
    pub fn attr(&self, l: &str) -> Option<&AttrValue> {
        self.attrs
            .binary_search_by(|(n, _)| n.as_str().cmp(l))
            .ok()
            .map(|i| &self.attrs[i].1)
    }

    /// Iterates over `(name, value)` attribute pairs in name order.
    pub fn attrs(&self) -> impl ExactSizeIterator<Item = (&Name, &AttrValue)> {
        self.attrs.iter().map(|(n, v)| (n, v))
    }

    /// The parent vertex, or `None` for the root.
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// Iterates over the element children in document order.
    pub fn child_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.children.iter().filter_map(Child::as_node)
    }

    /// Concatenation of the immediate text children (useful for `PCDATA`
    /// content such as `<title>Some title</title>`).
    pub fn text(&self) -> String {
        let mut s = String::new();
        for c in &self.children {
            if let Child::Text(t) = c {
                s.push_str(t);
            }
        }
        s
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
#[derive(Clone, Debug)]
pub struct DataTree {
    nodes: Vec<Node>,
    root: NodeId,
    /// Tombstone flags; empty means "no vertex was ever deleted" (the
    /// common case for freshly built trees), otherwise one flag per arena
    /// slot.
    dead: Vec<bool>,
    /// Count of tombstoned vertices.
    dead_count: usize,
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
        &self.node(id).label
    }

    /// `x.l` — the value of attribute `l` at vertex `x` (`att(x, l)`).
    pub fn attr(&self, x: NodeId, l: &str) -> Option<&AttrValue> {
        self.node(x).attr(l)
    }

    /// `x[X]` — the tuple of attribute values for the sequence `X`.
    ///
    /// Returns `None` if any attribute in the sequence is missing or not
    /// single-valued at `x`.
    pub fn tuple(&self, x: NodeId, xs: &[Name]) -> Option<Vec<&Value>> {
        xs.iter()
            .map(|l| self.attr(x, l).and_then(AttrValue::as_single))
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
    /// This is a linear scan; use [`ExtIndex`] when querying repeatedly.
    pub fn ext<'a>(&'a self, tau: &'a str) -> impl Iterator<Item = NodeId> + 'a {
        self.node_ids()
            .filter(move |&id| self.label(id).as_str() == tau)
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

    /// Sets attribute `l` on `node`, creating or replacing it, and returns
    /// the displaced value, if any.
    pub fn set_attr(
        &mut self,
        node: NodeId,
        l: impl Into<Name>,
        value: AttrValue,
    ) -> Result<Option<AttrValue>, ModelError> {
        self.check_alive(node)?;
        let l = l.into();
        let attrs = &mut self.nodes[node.index()].attrs;
        Ok(match attrs.binary_search_by(|(n, _)| n.cmp(&l)) {
            Ok(i) => Some(std::mem::replace(&mut attrs[i].1, value)),
            Err(pos) => {
                attrs.insert(pos, (l, value));
                None
            }
        })
    }

    /// Removes attribute `l` from `node`, returning the removed value.
    /// Removing an absent attribute is a no-op returning `Ok(None)` (a
    /// batch applier may have coalesced away the write that would have
    /// created it).
    pub fn remove_attr(&mut self, node: NodeId, l: &str) -> Result<Option<AttrValue>, ModelError> {
        self.check_alive(node)?;
        let attrs = &mut self.nodes[node.index()].attrs;
        Ok(match attrs.binary_search_by(|(n, _)| n.as_str().cmp(l)) {
            Ok(i) => Some(attrs.remove(i).1),
            Err(_) => None,
        })
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
        let mut k = 0usize;
        for c in &mut self.nodes[node.index()].children {
            if let Child::Text(t) = c {
                if k == index {
                    return Ok(std::mem::replace(t, text));
                }
                k += 1;
            }
        }
        Err(ModelError::NoSuchText { node, index })
    }

    /// Grafts a copy of `fragment` (its live vertices) under `parent` at
    /// child-list `position`, returning the [`Edit::InsertSubtree`] delta.
    ///
    /// The copied vertices receive fresh ids at the end of this tree's
    /// arena, assigned in `fragment` creation order, so existing ids are
    /// undisturbed and `ext(τ)` views only ever *append*.
    pub fn insert_subtree(
        &mut self,
        parent: NodeId,
        position: usize,
        fragment: &DataTree,
    ) -> Result<Edit, ModelError> {
        self.check_alive(parent)?;
        let len = self.nodes[parent.index()].children.len();
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
        for id in fragment.node_ids() {
            let src = fragment.node(id);
            let children = src
                .children
                .iter()
                .map(|c| match c {
                    Child::Text(t) => Child::Text(t.clone()),
                    Child::Node(n) => Child::Node(NodeId(map[&n.0])),
                })
                .collect();
            let parent_link = if id == fragment.root() {
                Some(parent)
            } else {
                src.parent().map(|p| NodeId(map[&p.0]))
            };
            self.nodes.push(Node {
                label: src.label.clone(),
                children,
                attrs: src.attrs.clone(),
                parent: parent_link,
            });
        }
        if !self.dead.is_empty() {
            self.dead.resize(self.nodes.len(), false);
        }
        let root = NodeId(map[&fragment.root().0]);
        self.nodes[parent.index()]
            .children
            .insert(position, Child::Node(root));
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
        let parent = self.nodes[node.index()]
            .parent
            .expect("non-root vertex has a parent");
        let position = self.nodes[parent.index()]
            .children
            .iter()
            .position(|c| c.as_node() == Some(node))
            .expect("parent lists the vertex as a child");
        self.nodes[parent.index()].children.remove(position);
        self.nodes[node.index()].parent = None;
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
            for c in &self.nodes[id.index()].children {
                if let Child::Node(n) = c {
                    stack.push(*n);
                }
            }
        }
        self.dead_count += count;
        Ok(Edit::DeleteSubtree {
            parent,
            position,
            root: node,
            count,
        })
    }
}

/// One vertex description for [`DataTree::from_raw_parts`]: the complete
/// per-slot state a serializer must capture (the public views
/// [`Node::attrs`] and [`Node::parent`] expose the same data for encoding).
#[derive(Clone, Debug)]
pub struct RawNode {
    /// The element name labelling this vertex.
    pub label: Name,
    /// The ordered child list.
    pub children: Vec<Child>,
    /// The attributes of the vertex; any order, duplicates rejected.
    pub attrs: Vec<(Name, AttrValue)>,
    /// Parent vertex; `None` for the root (and for tombstoned subtree
    /// roots, whose parent link was severed by the delete).
    pub parent: Option<NodeId>,
}

impl DataTree {
    /// Reassembles a tree from per-slot vertex descriptions, the root id,
    /// and tombstone flags (`dead` may be empty when no vertex is
    /// tombstoned; otherwise it must cover every slot).
    ///
    /// This is the decode path for persisted trees. Unlike
    /// [`TreeBuilder`], the input may contain tombstones, so the full
    /// invariant set is re-checked in O(n): ids in bounds, the root alive
    /// and parentless, attributes duplicate-free (they are re-sorted, so
    /// encoders need not preserve order), every live element child alive
    /// with a matching parent link (single-parent condition), and every
    /// live vertex reachable from the root. Returns a [`ModelError`] —
    /// never panics — when any check fails, so corrupted input is
    /// reported, not propagated.
    pub fn from_raw_parts(
        nodes: Vec<RawNode>,
        root: NodeId,
        dead: Vec<bool>,
    ) -> Result<DataTree, ModelError> {
        let n = nodes.len();
        if root.index() >= n {
            return Err(ModelError::UnknownNode(root));
        }
        if !dead.is_empty() && dead.len() != n {
            return Err(ModelError::InvalidParts {
                detail: format!("tombstone flags cover {} of {} slots", dead.len(), n),
            });
        }
        let is_dead = |i: usize| dead.get(i).copied().unwrap_or(false);
        if is_dead(root.index()) {
            return Err(ModelError::DeadNode(root));
        }
        if nodes[root.index()].parent.is_some() {
            return Err(ModelError::RootHasParent(root));
        }
        let mut built: Vec<Node> = Vec::with_capacity(n);
        for (i, raw) in nodes.into_iter().enumerate() {
            let id = NodeId(i as u32);
            let mut attrs = raw.attrs;
            attrs.sort_by(|(a, _), (b, _)| a.cmp(b));
            if let Some(w) = attrs.windows(2).find(|w| w[0].0 == w[1].0) {
                return Err(ModelError::DuplicateAttribute {
                    node: id,
                    attr: w[0].0.clone(),
                });
            }
            for c in &raw.children {
                if let Child::Node(cn) = c {
                    if cn.index() >= n {
                        return Err(ModelError::UnknownNode(*cn));
                    }
                }
            }
            if let Some(p) = raw.parent {
                if p.index() >= n {
                    return Err(ModelError::UnknownNode(p));
                }
            }
            built.push(Node {
                label: raw.label,
                children: raw.children,
                attrs,
                parent: raw.parent,
            });
        }
        for (i, node) in built.iter().enumerate() {
            if is_dead(i) {
                continue;
            }
            let id = NodeId(i as u32);
            for c in &node.children {
                if let Child::Node(cn) = c {
                    if is_dead(cn.index()) {
                        return Err(ModelError::InvalidParts {
                            detail: format!("live vertex {id:?} lists tombstoned child {cn:?}"),
                        });
                    }
                    if built[cn.index()].parent != Some(id) {
                        return Err(ModelError::SecondParent { node: *cn });
                    }
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
            for c in &built[id.index()].children {
                if let Child::Node(cn) = c {
                    stack.push(*cn);
                }
            }
        }
        if count != live {
            return Err(ModelError::Unreachable {
                orphans: live - count,
            });
        }
        let dead_count = n - live;
        // Normalize: an all-false flag vector is the empty one.
        let dead = if dead_count == 0 { Vec::new() } else { dead };
        Ok(DataTree {
            nodes: built,
            root,
            dead,
            dead_count,
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
        let node = self.tree.node(id);
        // Push children reversed so they pop in document order.
        for c in node.children.iter().rev() {
            if let Child::Node(n) = c {
                self.stack.push(*n);
            }
        }
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
        let mut by_label: HashMap<Name, Vec<NodeId>> = HashMap::new();
        for id in tree.node_ids() {
            by_label.entry(tree.label(id).clone()).or_default().push(id);
        }
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
}

impl TreeBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a fresh, unattached vertex labelled `label`.
    pub fn node(&mut self, label: impl Into<Name>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            label: label.into(),
            children: Vec::new(),
            attrs: Vec::new(),
            parent: None,
        });
        id
    }

    fn check(&self, id: NodeId) -> Result<(), ModelError> {
        if id.index() < self.nodes.len() {
            Ok(())
        } else {
            Err(ModelError::UnknownNode(id))
        }
    }

    /// Appends `child` to `parent`'s child list. Errors if `child` already
    /// has a parent (the tree condition).
    pub fn child(&mut self, parent: NodeId, child: NodeId) -> Result<(), ModelError> {
        self.check(parent)?;
        self.check(child)?;
        if self.nodes[child.index()].parent.is_some() {
            return Err(ModelError::SecondParent { node: child });
        }
        self.nodes[child.index()].parent = Some(parent);
        self.nodes[parent.index()].children.push(Child::Node(child));
        Ok(())
    }

    /// Appends a string child to `parent`.
    pub fn text(&mut self, parent: NodeId, text: impl Into<Value>) -> Result<(), ModelError> {
        self.check(parent)?;
        self.nodes[parent.index()]
            .children
            .push(Child::Text(text.into()));
        Ok(())
    }

    /// Sets attribute `l` on `node` (an empty value set is allowed: XML's
    /// `l=""` on a set-valued attribute denotes the empty set). Errors if
    /// the attribute is already set.
    pub fn attr(
        &mut self,
        node: NodeId,
        l: impl Into<Name>,
        value: AttrValue,
    ) -> Result<(), ModelError> {
        self.check(node)?;
        let l = l.into();
        let attrs = &mut self.nodes[node.index()].attrs;
        match attrs.binary_search_by(|(n, _)| n.cmp(&l)) {
            Ok(_) => Err(ModelError::DuplicateAttribute { node, attr: l }),
            Err(pos) => {
                attrs.insert(pos, (l, value));
                Ok(())
            }
        }
    }

    /// Convenience: creates a node, attaches it under `parent`, and returns
    /// its id.
    pub fn child_node(
        &mut self,
        parent: NodeId,
        label: impl Into<Name>,
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
        label: impl Into<Name>,
        text: impl Into<Value>,
    ) -> Result<NodeId, ModelError> {
        let id = self.child_node(parent, label)?;
        self.text(id, text)?;
        Ok(id)
    }

    /// Finishes the tree rooted at `root`, checking that `root` is
    /// parentless and that every created vertex is reachable from it.
    ///
    /// The finished tree keeps no spare capacity: growth reserved room in
    /// the node array and in every attribute and child list, which a
    /// resident document would otherwise carry for its whole life.
    pub fn finish(mut self, root: NodeId) -> Result<DataTree, ModelError> {
        if root.index() >= self.nodes.len() {
            return Err(ModelError::UnknownNode(root));
        }
        if self.nodes[root.index()].parent.is_some() {
            return Err(ModelError::RootHasParent(root));
        }
        // Reachability check.
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![root];
        let mut count = 0usize;
        while let Some(id) = stack.pop() {
            if seen[id.index()] {
                continue;
            }
            seen[id.index()] = true;
            count += 1;
            for c in &self.nodes[id.index()].children {
                if let Child::Node(n) = c {
                    stack.push(*n);
                }
            }
        }
        if count != self.nodes.len() {
            return Err(ModelError::Unreachable {
                orphans: self.nodes.len() - count,
            });
        }
        for node in &mut self.nodes {
            node.attrs.shrink_to_fit();
            node.children.shrink_to_fit();
        }
        self.nodes.shrink_to_fit();
        Ok(DataTree {
            nodes: self.nodes,
            root,
            dead: Vec::new(),
            dead_count: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(tup, [&"MK".to_string(), &"USA".to_string()]);
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
        assert_eq!(t.node(r).text(), "Data on the Web");
    }

    #[test]
    fn set_attr_replaces_and_creates() {
        let mut t = book_tree();
        let entry = t.ext("entry").next().unwrap();
        let old = t
            .set_attr(entry, "isbn", AttrValue::single("0-201-53771-0"))
            .unwrap();
        assert_eq!(old, Some(AttrValue::single("1-55860-622-X")));
        assert_eq!(
            t.attr(entry, "isbn").unwrap().as_single().unwrap(),
            "0-201-53771-0"
        );
        let old = t.set_attr(entry, "lang", AttrValue::single("en")).unwrap();
        assert_eq!(old, None);
        assert_eq!(t.attr(entry, "lang").unwrap().as_single().unwrap(), "en");
    }

    #[test]
    fn remove_attr_and_errors() {
        let mut t = book_tree();
        let entry = t.ext("entry").next().unwrap();
        let old = t.remove_attr(entry, "isbn").unwrap();
        assert_eq!(old, Some(AttrValue::single("1-55860-622-X")));
        assert!(t.attr(entry, "isbn").is_none());
        // Removing it again is a no-op; a dead vertex is an error.
        assert_eq!(t.remove_attr(entry, "isbn"), Ok(None));
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
        assert_eq!(t.node(title).text(), "Web Data");
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
        assert_eq!(t.node(s1).label.as_str(), "section");
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
        assert_eq!(t.node(t.root()).children[0].as_node(), Some(root));
        assert_eq!(t.attr(root, "sid").unwrap().as_single().unwrap(), "new");
        assert_eq!(t.ext("section").count(), 3);
        // Position past the end is rejected.
        let n = t.node(t.root()).children.len();
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
    /// included) and tombstone flags, empty when no vertex is dead.
    fn raw_parts_of(t: &DataTree) -> (Vec<RawNode>, NodeId, Vec<bool>) {
        let ids = (0..t.id_bound()).map(NodeId::from_index);
        let nodes = ids
            .clone()
            .map(|id| {
                let node = t.node(id);
                RawNode {
                    label: node.label.clone(),
                    children: node.children.clone(),
                    attrs: node.attrs().map(|(n, v)| (n.clone(), v.clone())).collect(),
                    parent: node.parent(),
                }
            })
            .collect();
        let dead = if t.len() < t.id_bound() {
            ids.map(|id| !t.is_alive(id)).collect()
        } else {
            Vec::new()
        };
        (nodes, t.root(), dead)
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
            assert_eq!(rebuilt.node(id).children, t.node(id).children);
            assert_eq!(rebuilt.node(id).parent(), t.node(id).parent());
            assert!(rebuilt.node(id).attrs().eq(t.node(id).attrs()));
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
        let bad = NodeId::from_index(nodes.len());
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
        let mut all_dead_root = vec![false; nodes.len()];
        all_dead_root[root.index()] = true;
        assert!(matches!(
            DataTree::from_raw_parts(nodes.clone(), root, all_dead_root),
            Err(ModelError::DeadNode(_))
        ));
        // A child whose parent link points elsewhere (second parent).
        let mut torn = nodes.clone();
        torn[1].parent = Some(NodeId::from_index(2));
        assert!(matches!(
            DataTree::from_raw_parts(torn, root, dead.clone()),
            Err(ModelError::SecondParent { .. })
        ));
        // A live vertex listing a tombstoned child.
        let mut flags = vec![false; nodes.len()];
        flags[2] = true; // entry's title leaf
        assert!(matches!(
            DataTree::from_raw_parts(nodes.clone(), root, flags),
            Err(ModelError::InvalidParts { .. })
        ));
        // An unreachable live vertex.
        let mut cut = nodes.clone();
        cut[0]
            .children
            .retain(|c| c.as_node() != Some(NodeId::from_index(1)));
        assert!(matches!(
            DataTree::from_raw_parts(cut, root, dead.clone()),
            Err(ModelError::Unreachable { .. })
        ));
        // Duplicate attributes on one vertex.
        let mut dup = nodes;
        let repeat = dup[1].attrs[0].clone();
        dup[1].attrs.push(repeat);
        assert!(matches!(
            DataTree::from_raw_parts(dup, root, dead),
            Err(ModelError::DuplicateAttribute { .. })
        ));
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
        assert_eq!(t.node(root).label.as_str(), "db");
        let kids: Vec<_> = t.node(root).child_nodes().collect();
        assert_eq!(kids.len(), 1);
        assert_eq!(t.node(kids[0]).label.as_str(), "keep");
        let _ = keep;
    }
}
