//! # xic-validate — validity of data trees against a `DTD^C`
//!
//! Implements Definition 2.4 of Fan & Siméon (PODS 2000): a data tree `G`
//! is **valid** with respect to `D = ((E, P, R, kind, r), Σ)` iff
//!
//! 1. the root is labelled `r`;
//! 2. every vertex's label is a declared element type, and its child word
//!    (strings ↦ `S`, element children ↦ their labels) belongs to the
//!    regular language of its type's content model;
//! 3. `att(v, l)` is defined iff `R(μ(v), l)` is defined, and single-valued
//!    attributes hold singleton sets;
//! 4. `G ⊨ Σ` — every basic constraint of `Σ` (in any of `L`, `L_u`,
//!    `L_id`) is satisfied.
//!
//! The entry points are [`validate`] (one-shot) and [`Validator`]
//! (compile-once / validate-many: content models are compiled to DFAs per
//! element type). Every failure is reported as a structured [`Violation`];
//! [`Report::is_valid`] is emptiness of the violation list.
//!
//! The DFA is the one content-model matcher, on the tree, streaming and
//! incremental paths alike. `xic-regex`'s Glushkov [`xic_regex::Nfa`] and
//! Brzozowski [`xic_regex::ContentModel::matches_derivative`] are its test
//! oracles; ablation E10b times the three matchers there, not here.
//!
//! ## The compiled constraint engine
//!
//! [`Validator`] compiles Σ into a validation *plan*: the set of
//! `(element type, field)` columns any constraint reads. Per document,
//! one extraction pass builds interned columnar indexes shared by every
//! key, foreign-key, ID, and inverse check, instead of re-walking the tree
//! per constraint. [`Options::threads`] additionally fans the checks out
//! across worker threads (across constraints, and across chunks of large
//! extents); reports are byte-identical to the sequential engine's
//! regardless of thread count.
//! [`check_constraint`] remains the naive per-constraint ground truth.
//!
//! ## Streaming validation
//!
//! [`Validator::validate_stream`] checks a document straight from its
//! source text over [`xic_xml::parse_events`], never materializing a
//! [`DataTree`]: content models run as incremental automata with O(depth)
//! live state, attribute clauses fire as start tags complete, and the
//! compiled plan's columns fill on the fly, feeding the same constraint
//! engine. Events are lexed and applied in one pull loop on the calling
//! thread; the thread budget fans out only the final constraint pass, so
//! reports are byte-identical to the tree path at any thread count.
//!
//! ## Incremental revalidation
//!
//! [`LiveValidator`] owns a document and keeps its validation state alive
//! across edits: each edit updates the columns' occurrence indexes, the
//! constraint tables reading them and a per-vertex structural map instead
//! of re-running the whole pipeline, and each edit returns the
//! violations it raised and cleared as a [`ReportDiff`]. [`LiveValidator::report`] stays
//! byte-identical to [`Validator::validate`] on the current tree.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod constraints;
mod incremental;
mod par;
mod plan;
mod report;
mod stream;
mod structure;

pub use constraints::check_constraint;
pub use incremental::{
    BatchEdit, BatchError, ColumnRows, LiveState, LiveStateRef, LiveValidator, ReportDiff,
    StateError,
};
pub use report::{Report, Violation};
pub use structure::{MatcherKind, Options, Validator};

use xic_constraints::DtdC;
use xic_model::DataTree;

/// One-shot validation of `tree` against `dtdc` with default options.
///
/// ```
/// use xic_constraints::examples::book_dtdc;
/// use xic_model::{TreeBuilder, AttrValue};
/// use xic_validate::validate;
///
/// let d = book_dtdc();
/// let mut b = TreeBuilder::new();
/// let book = b.node("book");
/// let entry = b.child_node(book, "entry").unwrap();
/// b.attr(entry, "isbn", AttrValue::single("1-55860")).unwrap();
/// b.leaf(entry, "title", "Data on the Web").unwrap();
/// b.leaf(entry, "publisher", "MK").unwrap();
/// let r = b.child_node(book, "ref").unwrap();
/// b.attr(r, "to", AttrValue::set(["1-55860"])).unwrap();
/// let tree = b.finish(book).unwrap();
///
/// let report = validate(&tree, &d);
/// assert!(report.is_valid(), "{report}");
/// ```
pub fn validate(tree: &DataTree, dtdc: &DtdC) -> Report {
    Validator::new(dtdc).validate(tree)
}
