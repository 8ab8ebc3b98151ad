//! Property test: incremental revalidation is report-equivalent to the
//! from-scratch engine — **byte-identical** violation sequences after
//! every edit of a random edit sequence, on random Σ and random documents,
//! strict and lenient — and every [`ReportDiff`] reconciles the reports:
//! `old + raised − cleared = new` as multisets.
//!
//! The Σ/document universe is the one the stream-equivalence test uses
//! (same 96-case budget); on top of it, a random sequence of typed edits
//! (attribute set/remove, text replacement, subtree insert/delete) is
//! played through a [`LiveValidator`] as one-edit batches with a
//! from-scratch [`Validator::validate`] cross-check after every single
//! step, and in random batch cuts against the one-edit replay.

use proptest::prelude::*;
use xic_constraints::{Constraint, DtdC, DtdStructure, Field, Language};
use xic_model::{AttrValue, Child, DataTree, NodeId, TreeBuilder};
use xic_validate::{
    BatchEdit, LiveValidator, MatcherKind, Options, ReportDiff, Validator, Violation,
};

/// Same universe as the stream-equivalence test: three element types with
/// an ID attribute, two single attributes, two set-valued attributes, and
/// two sub-element labels.
fn test_structure() -> DtdStructure {
    let mut b = DtdStructure::builder("db").elem("db", "(t0 + t1 + t2)*");
    for t in ["t0", "t1", "t2"] {
        b = b
            .elem(t, "(e0 + e1 + S)*")
            .id_attr(t, "id")
            .attr(t, "a0", "S")
            .attr(t, "a1", "S")
            .idrefs_attr(t, "r0")
            .attr(t, "r1", "S*");
    }
    b.elem("e0", "S")
        .elem("e1", "S")
        .build()
        .expect("test structure is well-formed")
}

fn tau() -> BoxedStrategy<&'static str> {
    prop_oneof![Just("t0"), Just("t1"), Just("t2")]
}

fn set_attr() -> BoxedStrategy<&'static str> {
    prop_oneof![Just("r0"), Just("r1")]
}

fn single_attr() -> BoxedStrategy<&'static str> {
    prop_oneof![Just("a0"), Just("a1"), Just("id")]
}

fn field() -> BoxedStrategy<Field> {
    prop_oneof![
        single_attr().prop_map(Field::attr),
        prop_oneof![Just("e0"), Just("e1")].prop_map(Field::sub),
    ]
}

fn constraint() -> BoxedStrategy<Constraint> {
    prop_oneof![
        (tau(), prop::collection::vec(field(), 1..3)).prop_map(|(t, fs)| Constraint::Key {
            tau: t.into(),
            fields: fs,
        }),
        (
            tau(),
            tau(),
            prop::collection::vec((field(), field()), 1..3)
        )
            .prop_map(|(t, u, pairs)| {
                let (xs, ys): (Vec<Field>, Vec<Field>) = pairs.into_iter().unzip();
                Constraint::ForeignKey {
                    tau: t.into(),
                    fields: xs,
                    target: u.into(),
                    target_fields: ys,
                }
            }),
        (tau(), set_attr(), tau(), field()).prop_map(|(t, a, u, f)| {
            Constraint::SetForeignKey {
                tau: t.into(),
                attr: a.into(),
                target: u.into(),
                target_field: f,
            }
        }),
        (tau(), field(), set_attr(), tau(), field(), set_attr()).prop_map(
            |(t, k, a, u, tk, ta)| Constraint::InverseU {
                tau: t.into(),
                key: k,
                attr: a.into(),
                target: u.into(),
                target_key: tk,
                target_attr: ta.into(),
            }
        ),
        tau().prop_map(|t| Constraint::Id { tau: t.into() }),
        (tau(), single_attr(), tau()).prop_map(|(t, a, u)| Constraint::FkToId {
            tau: t.into(),
            attr: a.into(),
            target: u.into(),
        }),
        (tau(), set_attr(), tau()).prop_map(|(t, a, u)| Constraint::SetFkToId {
            tau: t.into(),
            attr: a.into(),
            target: u.into(),
        }),
        (tau(), set_attr(), tau(), set_attr()).prop_map(|(t, a, u, ta)| {
            Constraint::InverseId {
                tau: t.into(),
                attr: a.into(),
                target: u.into(),
                target_attr: ta.into(),
            }
        }),
    ]
}

/// One random element: `((type, id, a0, a1), (r0, r1, sub-elements))`,
/// all values drawn from a 6-value pool so collisions are common.
type NodeRecipe = (
    (u8, Option<u8>, Option<u8>, Option<u8>),
    (Vec<u8>, Vec<u8>, Vec<(u8, u8)>),
);

fn node_recipe() -> BoxedStrategy<NodeRecipe> {
    let head = (
        0u8..3,
        prop::option::of(0u8..6),
        prop::option::of(0u8..6),
        prop::option::of(0u8..6),
    );
    let tail = (
        prop::collection::vec(0u8..6, 0..3),
        prop::collection::vec(0u8..6, 0..3),
        prop::collection::vec((0u8..2, 0u8..6), 0..4),
    );
    (head, tail).boxed()
}

fn val(v: u8) -> String {
    format!("v{v}")
}

fn fill_node(b: &mut TreeBuilder, p: NodeId, recipe: &NodeRecipe) {
    let ((_, id, a0, a1), (r0, r1, subs)) = recipe;
    if let Some(v) = id {
        b.attr(p, "id", AttrValue::single(val(*v))).unwrap();
    }
    if let Some(v) = a0 {
        b.attr(p, "a0", AttrValue::single(val(*v))).unwrap();
    }
    if let Some(v) = a1 {
        b.attr(p, "a1", AttrValue::single(val(*v))).unwrap();
    }
    b.attr(p, "r0", AttrValue::set(r0.iter().map(|&v| val(v))))
        .unwrap();
    b.attr(p, "r1", AttrValue::set(r1.iter().map(|&v| val(v))))
        .unwrap();
    for (w, tv) in subs {
        b.leaf(p, format!("e{w}"), val(*tv)).unwrap();
    }
}

fn build_tree(recipes: &[NodeRecipe]) -> DataTree {
    let mut b = TreeBuilder::new();
    let db = b.node("db");
    for recipe in recipes {
        let p = b.child_node(db, format!("t{}", recipe.0 .0)).unwrap();
        fill_node(&mut b, p, recipe);
    }
    b.finish(db).unwrap()
}

/// A standalone one-element fragment for subtree insertion.
fn build_fragment(recipe: &NodeRecipe) -> DataTree {
    let mut b = TreeBuilder::new();
    let p = b.node(format!("t{}", recipe.0 .0));
    fill_node(&mut b, p, recipe);
    b.finish(p).unwrap()
}

const ATTRS: [&str; 5] = ["id", "a0", "a1", "r0", "r1"];

/// One random edit; vertex/attribute/position selectors are reduced modulo
/// the live ranges at application time so every recipe stays applicable as
/// the document evolves.
#[derive(Debug, Clone)]
enum EditRecipe {
    /// `(vertex, attribute, values)` — set (or create) an attribute.
    SetAttr(u8, u8, Vec<u8>),
    /// `(vertex, attribute)` — remove an attribute (skipped when absent).
    RemoveAttr(u8, u8),
    /// `(vertex, text child, value)` — replace a text child (skipped when
    /// the vertex has none).
    SetText(u8, u8, u8),
    /// `(vertex)` — delete the subtree (skipped at the root).
    Delete(u8),
    /// `(parent, position, fragment)` — graft a fresh element.
    Insert(u8, u8, NodeRecipe),
}

fn edit_recipe() -> BoxedStrategy<EditRecipe> {
    prop_oneof![
        (any::<u8>(), 0u8..5, prop::collection::vec(0u8..6, 1..3))
            .prop_map(|(n, a, vs)| EditRecipe::SetAttr(n, a, vs)),
        (any::<u8>(), 0u8..5).prop_map(|(n, a)| EditRecipe::RemoveAttr(n, a)),
        (any::<u8>(), any::<u8>(), 0u8..6).prop_map(|(n, i, v)| EditRecipe::SetText(n, i, v)),
        any::<u8>().prop_map(EditRecipe::Delete),
        (any::<u8>(), any::<u8>(), node_recipe()).prop_map(|(n, p, r)| EditRecipe::Insert(n, p, r)),
    ]
    .boxed()
}

/// Resolves one recipe against the current tree into a concrete
/// [`BatchEdit`], or `None` when the recipe is inapplicable there (removing
/// an absent attribute, editing text of a text-less vertex, deleting the
/// root) and the step is skipped. A resolved request is guaranteed to
/// stage cleanly when the tree is in the state it was resolved against.
fn resolve_edit(live: &LiveValidator<'_, '_>, e: &EditRecipe) -> Option<BatchEdit> {
    let ids: Vec<NodeId> = live.tree().node_ids().collect();
    let pick = |sel: u8| ids[sel as usize % ids.len()];
    match e {
        EditRecipe::SetAttr(n, a, vs) => Some(BatchEdit::SetAttr {
            node: pick(*n),
            attr: ATTRS[*a as usize].into(),
            value: AttrValue::set(vs.iter().map(|&v| val(v))),
        }),
        EditRecipe::RemoveAttr(n, a) => {
            let node = pick(*n);
            live.tree()
                .attr(node, ATTRS[*a as usize])
                .is_some()
                .then(|| BatchEdit::RemoveAttr {
                    node,
                    attr: ATTRS[*a as usize].into(),
                })
        }
        EditRecipe::SetText(n, i, v) => {
            let node = pick(*n);
            let texts = live
                .tree()
                .node(node)
                .children
                .iter()
                .filter(|c| matches!(c, Child::Text(_)))
                .count();
            (texts > 0).then(|| BatchEdit::SetText {
                node,
                index: *i as usize % texts,
                text: val(*v),
            })
        }
        EditRecipe::Delete(n) => {
            let node = pick(*n);
            (node != live.tree().root()).then_some(BatchEdit::DeleteSubtree { node })
        }
        EditRecipe::Insert(n, p, recipe) => {
            let parent = pick(*n);
            let len = live.tree().node(parent).children.len();
            Some(BatchEdit::InsertSubtree {
                parent,
                position: *p as usize % (len + 1),
                fragment: build_fragment(recipe),
            })
        }
    }
}

/// Violation multiset as Debug-string counts (zero entries pruned).
fn counts(vs: &[Violation]) -> std::collections::BTreeMap<String, i64> {
    let mut m = std::collections::BTreeMap::new();
    for v in vs {
        *m.entry(format!("{v:?}")).or_insert(0) += 1;
    }
    m
}

/// `before + raised − cleared` as a violation multiset.
fn reconciled(before: &[Violation], diff: &ReportDiff) -> std::collections::BTreeMap<String, i64> {
    let mut m = counts(before);
    for r in &diff.raised {
        *m.entry(format!("{r:?}")).or_insert(0) += 1;
    }
    for c in &diff.cleared {
        *m.entry(format!("{c:?}")).or_insert(0) -= 1;
    }
    m.retain(|_, n| *n != 0);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn live_report_is_byte_identical_after_every_edit(
        sigma in prop::collection::vec(constraint(), 0..8),
        nodes in prop::collection::vec(node_recipe(), 0..25),
        edits in prop::collection::vec(edit_recipe(), 1..10),
    ) {
        let dtdc = DtdC::new_unchecked(test_structure(), Language::Lid, sigma);
        for strict in [true, false] {
            let opts = Options { strict_attributes: strict, threads: 1 };
            let v = Validator::with_matcher(&dtdc, MatcherKind::Dfa, opts);
            let mut live = LiveValidator::new(&v, build_tree(&nodes));
            prop_assert_eq!(
                &live.report().violations,
                &v.validate(live.tree()).violations,
                "initial report diverged (strict={})", strict
            );
            for e in &edits {
                let Some(b) = resolve_edit(&live, e) else { continue };
                let before = live.report().violations;
                let diff = live
                    .apply_batch(std::slice::from_ref(&b))
                    .expect("resolved against this state");
                let after = live.report().violations;
                let scratch = v.validate(live.tree()).violations;
                prop_assert_eq!(
                    &after, &scratch,
                    "live report diverged (strict={}, edit={:?})", strict, e
                );
                // The diff must reconcile the two reports as multisets.
                prop_assert_eq!(
                    &reconciled(&before, &diff), &counts(&after),
                    "diff does not reconcile (strict={}, edit={:?}, diff={:?})",
                    strict, e, diff
                );
            }
        }
    }

    /// Larger batches are report-equivalent to one-edit batches: the same
    /// random edit sequence (inserts, deletes, attribute retargets, text
    /// rewrites) is played as one-edit batches through one validator and
    /// in random batch cuts on another; at every batch boundary the
    /// reports must be byte-identical to each other and to a from-scratch
    /// validation, and the batch diff must reconcile them.
    #[test]
    fn batched_report_is_byte_identical_at_every_batch_boundary(
        sigma in prop::collection::vec(constraint(), 0..8),
        nodes in prop::collection::vec(node_recipe(), 0..25),
        edits in prop::collection::vec(edit_recipe(), 1..16),
        cuts in prop::collection::vec(any::<bool>(), 16),
    ) {
        let dtdc = DtdC::new_unchecked(test_structure(), Language::Lid, sigma);
        let opts = Options { strict_attributes: true, threads: 1 };
        let v = Validator::with_matcher(&dtdc, MatcherKind::Dfa, opts);
        let tree = build_tree(&nodes);
        let mut seq = LiveValidator::new(&v, tree.clone());
        let mut bat = LiveValidator::new(&v, tree);
        let mut pending: Vec<BatchEdit> = Vec::new();
        for (i, e) in edits.iter().enumerate() {
            // Resolve against the one-edit state (the batched tree is
            // identical up to value writes still pending, which cannot
            // change vertex ids, child positions or text-child counts).
            let Some(b) = resolve_edit(&seq, e) else { continue };
            seq.apply_batch(std::slice::from_ref(&b))
                .expect("resolved against this state");
            pending.push(b);
            if !cuts[i] {
                continue;
            }
            let before = bat.report().violations;
            let diff = bat
                .apply_batch(&std::mem::take(&mut pending))
                .expect("every request was resolved applicable");
            let after = bat.report().violations;
            prop_assert_eq!(
                &after, &seq.report().violations,
                "batched report diverged at boundary {} (edit={:?})", i, e
            );
            prop_assert_eq!(
                &after, &v.validate(bat.tree()).violations,
                "batched report diverged from scratch at boundary {} (edit={:?})", i, e
            );
            prop_assert_eq!(
                &reconciled(&before, &diff), &counts(&after),
                "batch diff does not reconcile at boundary {} (diff={:?})", i, diff
            );
        }
        if !pending.is_empty() {
            bat.apply_batch(&pending).expect("trailing batch applies");
        }
        prop_assert_eq!(
            &bat.report().violations,
            &seq.report().violations,
            "final batched report diverged from one-edit batches"
        );
        prop_assert_eq!(
            &bat.report().violations,
            &v.validate(bat.tree()).violations,
            "final batched report diverged from scratch"
        );
    }
}

/// Deleting a keyed vertex and reinserting an equivalent one in the same
/// batch: the delete retracts the old key occurrence and the insert
/// announces the new vertex, all within one propagation pass — the report
/// must match one-edit batches and a from-scratch validation, and
/// the reused key value must not be double-counted.
#[test]
fn delete_then_reinsert_in_one_batch_matches_sequential() {
    let sigma = vec![
        Constraint::Key {
            tau: "t0".into(),
            fields: vec![Field::attr("id")],
        },
        Constraint::FkToId {
            tau: "t1".into(),
            attr: "a0".into(),
            target: "t0".into(),
        },
    ];
    let dtdc = DtdC::new_unchecked(test_structure(), Language::Lid, sigma);
    let opts = Options {
        strict_attributes: false,
        threads: 1,
    };
    let v = Validator::with_matcher(&dtdc, MatcherKind::Dfa, opts);
    // db > t0[id=v1], t1[a0=v1]: the t1 references the t0's ID.
    let recipes: Vec<NodeRecipe> = vec![
        ((0, Some(1), None, None), (vec![], vec![], vec![])),
        ((1, Some(2), Some(1), None), (vec![], vec![], vec![])),
    ];
    let tree = build_tree(&recipes);
    let mut seq = LiveValidator::new(&v, tree.clone());
    let mut bat = LiveValidator::new(&v, tree);
    assert!(seq.report().is_valid(), "fixture starts valid");

    // Delete the referenced t0, then reinsert a fresh t0 carrying the
    // same ID value — in one batch the dangling reference never shows.
    let t0 = seq
        .tree()
        .node_ids()
        .find(|&x| seq.tree().label(x).as_str() == "t0")
        .expect("fixture has a t0");
    let replacement: NodeRecipe = ((0, Some(1), None, None), (vec![], vec![], vec![]));
    let batch = vec![
        BatchEdit::DeleteSubtree { node: t0 },
        BatchEdit::InsertSubtree {
            parent: seq.tree().root(),
            position: 0,
            fragment: build_fragment(&replacement),
        },
    ];
    for b in &batch {
        seq.apply_batch(std::slice::from_ref(b))
            .expect("resolved against this state");
    }
    let diff = bat.apply_batch(&batch).expect("batch applies");
    assert_eq!(
        bat.report().violations,
        seq.report().violations,
        "batched delete+reinsert diverged from one-edit batches"
    );
    assert_eq!(
        bat.report().violations,
        v.validate(bat.tree()).violations,
        "batched delete+reinsert diverged from scratch"
    );
    assert!(
        bat.report().is_valid(),
        "the reinserted key repairs the doc"
    );
    // Net effect of the batch on an initially-valid document: nothing
    // raised, nothing cleared — the transient dangling reference from the
    // delete is cancelled by the reinsert inside the same batch.
    assert!(
        diff.raised.is_empty() && diff.cleared.is_empty(),
        "expected a net-empty diff, got {diff:?}"
    );
}
