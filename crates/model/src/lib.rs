//! # xic-model — the XML data model of "Integrity Constraints for XML"
//!
//! This crate implements the data model of Section 2.1 of
//! Fan & Siméon, *Integrity Constraints for XML* (PODS 2000).
//!
//! An XML document is represented as an ordered, annotated **data tree**
//! `(V, elem, att, root)` (Definition 2.1):
//!
//! * `V` — a set of vertices ([`NodeId`]s into a [`DataTree`]);
//! * `elem` — maps each vertex to its element label and its ordered list of
//!   children, each child being either a string value or a sub-tree;
//! * `att` — a partial function from (vertex, attribute name) to a *set* of
//!   atomic values (XML attributes are unordered, and `IDREFS`-style
//!   attributes are set-valued);
//! * `root` — the distinguished root vertex.
//!
//! The crate also provides the notation of §2.1:
//!
//! * [`DataTree::ext`] — `ext(τ)`, the set of vertices labelled `τ`;
//! * [`DataTree::attr`] — `x.l`, the value of attribute `l` at vertex `x`;
//! * [`DataTree::tuple`] — `x[X]` for a sequence `X` of attributes;
//! * [`ExtIndex`] — a precomputed `τ ↦ ext(τ)` index for hot paths;
//! * [`Interner`]/[`Sym`] — a string intern pool turning attribute-value
//!   comparisons into `u32` operations. A tree holds its values as
//!   symbols of one pool ([`DataTree::pool`]) and reads them out through
//!   [`AttrRef`] views and [`DataTree::text`].
//!
//! Trees are built through [`TreeBuilder`], which enforces the single-parent
//! invariant of Definition 2.1 by construction. Finished trees can be
//! *edited* in place (subtree insert/delete, attribute and text updates);
//! a structural mutation returns a typed [`Edit`] delta and a value update
//! the value it displaced, so that derived indexes — notably incremental
//! validators — can follow along without rescanning.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod hash;
mod interner;
mod name;
mod render;
mod tree;

pub use hash::{FastHashMap, FastHashSet, FastHasher};
pub use interner::{InternStats, Interner, Sym};
pub use name::Name;
pub use render::{render_tree, RenderOptions};
pub use tree::{
    AttrRef, AttrValue, Child, DataTree, Edit, ExtIndex, ModelError, Node, NodeId, RawAttr,
    RawNode, RawTree, TreeBuilder, Value,
};
