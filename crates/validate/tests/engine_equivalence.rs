//! Property test: the compiled (and parallel) constraint engine is
//! report-equivalent to the naive per-constraint ground truth.
//!
//! Two obligations, both stronger than "same violations up to order":
//!
//! 1. For every thread count, the `Validator` produces the **same
//!    violation sequence** (byte-identical reports).
//! 2. The constraint-level part of the report equals the concatenation,
//!    in Σ order, of [`check_constraint`]'s output per constraint — the
//!    naive checker that re-extracts fields from the tree each time.
//!
//! Σ and the documents are random: constraints draw from all eight
//! constructor kinds over a small universe of types/attributes/values
//! (small pools force collisions, dangling references, duplicate IDs, and
//! non-unique sub-elements).

use proptest::prelude::*;
use xic_constraints::{Constraint, DtdC, DtdStructure, Field, Language};
use xic_model::{AttrValue, DataTree, TreeBuilder};
use xic_validate::{check_constraint, LiveValidator, Options, Validator, Violation};
use xic_xml::{serialize_document, serialize_dtd};

/// Three element types sharing the same attribute/sub-element alphabet:
/// an ID attribute `id`, single attributes `a0`/`a1`, set-valued `r0`
/// (IDREFS) and `r1`, and sub-elements `e0`/`e1`.
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
/// all values drawn from a 6-value pool so collisions are common, and
/// sub-element labels repeatable so non-unique sub-elements occur.
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

fn build_tree(recipes: &[NodeRecipe]) -> DataTree {
    let mut b = TreeBuilder::new();
    let db = b.node("db");
    for ((ty, id, a0, a1), (r0, r1, subs)) in recipes {
        let p = b.child_node(db, format!("t{ty}")).unwrap();
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
    b.finish(db).unwrap()
}

fn constraint_level(v: &Violation) -> bool {
    matches!(
        v,
        Violation::Key { .. }
            | Violation::ForeignKey { .. }
            | Violation::MissingField { .. }
            | Violation::DuplicateId { .. }
            | Violation::Inverse { .. }
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn planned_engine_matches_ground_truth(
        sigma in prop::collection::vec(constraint(), 0..8),
        nodes in prop::collection::vec(node_recipe(), 0..25),
    ) {
        let dtdc = DtdC::new_unchecked(test_structure(), Language::Lid, sigma);
        let tree = build_tree(&nodes);
        let reports: Vec<Vec<Violation>> = [1usize, 2, 4]
            .iter()
            .map(|&threads| {
                Validator::with_options(&dtdc, Options::lenient().with_threads(threads),
                )
                .validate(&tree)
                .violations
            })
            .collect();
        // Byte-identical reports at every thread count.
        prop_assert_eq!(&reports[0], &reports[1]);
        prop_assert_eq!(&reports[0], &reports[2]);
        // Constraint-level violations equal the naive per-constraint
        // checker's output concatenated in Σ order.
        let ground: Vec<Violation> = dtdc
            .constraints()
            .iter()
            .flat_map(|c| check_constraint(&tree, &dtdc, c))
            .collect();
        let engine: Vec<Violation> = reports[0]
            .iter()
            .filter(|v| constraint_level(v))
            .cloned()
            .collect();
        prop_assert_eq!(engine, ground);
    }
}

/// Two types `t0`/`t1` with a single attribute `k` and any number of `s`
/// sub-elements, each holding any number of text children: the one shape
/// whose field value (the concatenated text) the tree holds no symbol for.
fn split_text_structure() -> DtdStructure {
    let mut b = DtdStructure::builder("db").elem("db", "(t0 + t1)*");
    for t in ["t0", "t1"] {
        b = b.elem(t, "s*").attr(t, "k", "S");
    }
    b.elem("s", "S*")
        .build()
        .expect("split-text structure is well-formed")
}

fn split_text_field() -> BoxedStrategy<Field> {
    prop_oneof![Just(Field::sub("s")), Just(Field::attr("k"))].boxed()
}

/// Keys and foreign keys over `s` and `@k` in every combination:
/// sub→attr, attr→sub and sub→sub among them.
fn split_text_constraint() -> BoxedStrategy<Constraint> {
    let t = || prop_oneof![Just("t0"), Just("t1")];
    prop_oneof![
        (t(), prop::collection::vec(split_text_field(), 1..3)).prop_map(|(t, fs)| {
            Constraint::Key {
                tau: t.into(),
                fields: fs,
            }
        }),
        (
            t(),
            t(),
            prop::collection::vec((split_text_field(), split_text_field()), 1..3)
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
    ]
    .boxed()
}

/// The pieces every value is spelled from. An attribute value is one or
/// two pieces written as one string; a sub-element's text is zero to two
/// pieces, each its own text child, so `"v"` + `"3"` can spell `@k="v3"`,
/// and two split texts can be equal.
const PIECES: [&str; 2] = ["v", "3"];

fn spell(pieces: &[u8]) -> impl Iterator<Item = &'static str> + '_ {
    pieces.iter().map(|&p| PIECES[p as usize])
}

/// One element: `(type, @k, [the text pieces of each s child])`.
type SplitRecipe = (u8, Option<Vec<u8>>, Vec<Vec<u8>>);

fn split_recipe() -> BoxedStrategy<SplitRecipe> {
    (
        0u8..2,
        prop::option::of(prop::collection::vec(0u8..2, 1..3)),
        prop::collection::vec(prop::collection::vec(0u8..2, 0..3), 0..3),
    )
        .boxed()
}

fn build_split_tree(recipes: &[SplitRecipe]) -> DataTree {
    let mut b = TreeBuilder::new();
    let db = b.node("db");
    for (ty, k, subs) in recipes {
        let p = b.child_node(db, format!("t{ty}")).unwrap();
        if let Some(k) = k {
            b.attr_str(p, "k", &spell(k).collect::<String>()).unwrap();
        }
        for pieces in subs {
            let s = b.child_node(p, "s").unwrap();
            for piece in spell(pieces) {
                b.text(s, piece).unwrap();
            }
        }
    }
    b.finish(db).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A sub-element with zero or several text children compares by its
    /// concatenated text in every engine: the tree engine equals the
    /// naive checker, and the live and streaming engines equal the tree
    /// engine.
    #[test]
    fn split_sub_element_texts_compare_as_strings(
        sigma in prop::collection::vec(split_text_constraint(), 1..6),
        nodes in prop::collection::vec(split_recipe(), 0..24),
    ) {
        let s = split_text_structure();
        let dtdc = DtdC::new_unchecked(s.clone(), Language::L, sigma);
        let tree = build_split_tree(&nodes);
        let validator = Validator::with_options(&dtdc, Options::lenient());
        let want = validator.validate(&tree).violations;
        let ground: Vec<Violation> = dtdc
            .constraints()
            .iter()
            .flat_map(|c| check_constraint(&tree, &dtdc, c))
            .collect();
        let engine: Vec<Violation> =
            want.iter().filter(|v| constraint_level(v)).cloned().collect();
        prop_assert_eq!(engine, ground);
        let src = format!(
            "<!DOCTYPE db [\n{}]>\n{}",
            serialize_dtd(&s),
            serialize_document(&tree)
        );
        let streamed = validator.validate_stream(&src).expect("stream parses");
        prop_assert_eq!(&streamed.violations, &want);
        let live = LiveValidator::new(&validator, tree).report();
        prop_assert_eq!(&live.violations, &want);
    }
}

/// Deterministic large-extent case: the extent exceeds the engine's chunk
/// threshold, and the violation sequence at a 4-thread budget must match
/// the default one exactly. At 10 001 vertices the budget is clamped to
/// one worker (`nodes / MIN_NODES_PER_THREAD`), so the scans do not split
/// here; the split, chunk-merged pass is covered by the `check_planned`
/// unit test in `plan.rs`, which passes a vertex count past the clamp.
#[test]
fn chunk_merge_is_byte_identical_on_large_extents() {
    let s = DtdStructure::builder("db")
        .elem("db", "item*")
        .elem("item", "EMPTY")
        .attr("item", "k", "S")
        .attr("item", "r", "S*")
        .build()
        .unwrap();
    let sigma = vec![
        Constraint::unary_key("item", "k"),
        Constraint::set_fk("item", "r", "item", "k"),
    ];
    let d = DtdC::new_unchecked(s, Language::Lu, sigma);
    let mut b = TreeBuilder::new();
    let db = b.node("db");
    let n = 10_000u32;
    for i in 0..n {
        let it = b.child_node(db, "item").unwrap();
        let k = if i % 7 == 0 {
            "dup".to_string()
        } else {
            format!("k{i}")
        };
        b.attr(it, "k", AttrValue::single(k)).unwrap();
        let mut refs = vec![format!("k{}", (i + 1) % n)];
        if i % 5 == 0 {
            refs.push("missing".to_string());
        }
        b.attr(it, "r", AttrValue::set(refs)).unwrap();
    }
    let t = b.finish(db).unwrap();
    let seq = Validator::with_options(&d, Options::default()).validate(&t);
    let par = Validator::with_options(&d, Options::default().with_threads(4)).validate(&t);
    assert_eq!(seq.violations, par.violations);
    assert!(
        seq.violations.len() > 2_000,
        "expected a violation-dense document, got {}",
        seq.violations.len()
    );
}
