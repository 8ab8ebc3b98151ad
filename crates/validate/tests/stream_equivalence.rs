//! Property test: streaming validation is report-equivalent to the tree
//! engine — **byte-identical** violation sequences, at every thread
//! count, strict and lenient, on random Σ and random documents.
//!
//! Documents are generated as trees (reusing the engine-equivalence
//! recipe), serialized together with the structure's DTD as an internal
//! subset (so set-valued attributes re-tokenize on parse) with each start
//! tag's attributes in a seeded random order, and then fed to both paths
//! from the same source text:
//!
//! ```text
//!   src ─ parse_document ─▶ DataTree ─ validate ──▶ report A
//!   src ─ parse_events ──▶ Event stream ─ validate_stream ─▶ report B
//! ```
//!
//! requiring `A == B` exactly.

use proptest::prelude::*;
use xic_constraints::{Constraint, DtdC, DtdStructure, Field, Language};
use xic_model::{AttrValue, DataTree, TreeBuilder};
use xic_validate::{Options, Validator, Violation};
use xic_xml::{parse_document, serialize_document, serialize_dtd};

/// Same universe as the engine-equivalence test: three element types with
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

/// Serializes `tree` with `s`'s DTD as an internal subset, so both parse
/// paths see the same set-splitting rules the tree was built with. Each
/// start tag lists its attributes in an order drawn from `seed`: the tree
/// holds them name-sorted whatever the source order, while the stream
/// reads them as written.
fn to_source(s: &DtdStructure, tree: &DataTree, seed: u64) -> String {
    format!(
        "<!DOCTYPE db [\n{}]>\n{}",
        serialize_dtd(s),
        shuffle_attributes(&serialize_document(tree), seed)
    )
}

/// Rewrites every start tag of `xml`, as `serialize_document` writes it
/// (escaped values, so no `"`, `<` or `>` inside one), with its
/// attributes in a seeded random order.
fn shuffle_attributes(xml: &str, seed: u64) -> String {
    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut out = String::with_capacity(xml.len());
    let mut rest = xml;
    while let Some(lt) = rest.find('<') {
        out.push_str(&rest[..lt]);
        let gt = lt + rest[lt..].find('>').expect("tags close");
        let tag = &rest[lt + 1..gt];
        rest = &rest[gt + 1..];
        let (body, tail) = match tag.strip_suffix('/') {
            Some(body) => (body, "/>"),
            None => (tag, ">"),
        };
        let mut parts = body.split_inclusive('"');
        let Some(first) = parts.next().filter(|_| !body.starts_with('/')) else {
            out.push('<');
            out.push_str(tag);
            out.push('>');
            continue;
        };
        // `first` is `name attr="`; each attribute is then its value and
        // closing quote plus the next ` attr="`.
        let (name, first_attr) = first.split_once(' ').unwrap_or((first, ""));
        let mut attrs: Vec<String> = Vec::new();
        let mut pending = first_attr.to_string();
        for (k, piece) in parts.enumerate() {
            if k % 2 == 0 {
                pending.push_str(piece);
                attrs.push(std::mem::take(&mut pending));
            } else {
                pending = piece.trim_start().to_string();
            }
        }
        for i in (1..attrs.len()).rev() {
            attrs.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        out.push('<');
        out.push_str(name);
        for a in &attrs {
            out.push(' ');
            out.push_str(a);
        }
        out.push_str(tail);
    }
    out.push_str(rest);
    out
}

/// Both engines on the same source text, all matcher kinds × strictness ×
/// thread counts; reports must be byte-identical.
fn assert_equivalent(dtdc: &DtdC, src: &str) -> Result<(), TestCaseError> {
    let tree = parse_document(src)
        .expect("serialized document parses")
        .tree;
    for strict in [true, false] {
        for threads in [1usize, 2, 4] {
            let opts = Options {
                strict_attributes: strict,
                threads,
            };
            let v = Validator::with_options(dtdc, opts);
            let want = v.validate(&tree).violations;
            let got = v.validate_stream(src).expect("stream parses").violations;
            prop_assert_eq!(
                &want,
                &got,
                "strict={} threads={}\n{}",
                strict,
                threads,
                src
            );
        }
    }
    Ok(())
}

/// The shuffle moves attributes and changes nothing else: every seed
/// parses to the tree the sorted source parses to, and some seed writes a
/// start tag out of name order.
#[test]
fn shuffled_sources_parse_to_the_same_tree() {
    let s = test_structure();
    let recipe: NodeRecipe = ((0, Some(1), Some(2), Some(3)), (vec![4, 5], vec![], vec![]));
    let tree = build_tree(&[recipe.clone(), recipe]);
    let sorted = serialize_document(&tree);
    let mut reordered = false;
    for seed in 0..16 {
        let src = to_source(&s, &tree, seed);
        let parsed = parse_document(&src).unwrap().tree;
        assert_eq!(serialize_document(&parsed), sorted);
        reordered |= !src.ends_with(&sorted);
    }
    assert!(reordered, "no seed reordered an attribute list");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn stream_report_is_byte_identical_to_tree_report(
        sigma in prop::collection::vec(constraint(), 0..8),
        nodes in prop::collection::vec(node_recipe(), 0..25),
        order in any::<u64>(),
    ) {
        let s = test_structure();
        let dtdc = DtdC::new_unchecked(test_structure(), Language::Lid, sigma);
        let src = to_source(&s, &build_tree(&nodes), order);
        assert_equivalent(&dtdc, &src)?;
    }
}

/// Structural violations at every clause, via a document whose own DTD
/// disagrees with the validator's structure: undeclared types, content
/// model failures, undeclared/missing attributes, and a `NotSingleton`
/// (the document DTD tokenizes `a0` while the validator requires a
/// singleton), written after the undeclared `x` on the same node.
#[test]
fn deterministic_structural_divergences() {
    let s = test_structure();
    let dtdc = DtdC::new_unchecked(test_structure(), Language::Lid, vec![]);
    let src = r#"<!DOCTYPE db [
  <!ELEMENT db (t0|bogus)*>
  <!ELEMENT t0 (#PCDATA)>
  <!ELEMENT bogus EMPTY>
  <!ATTLIST t0 a0 NMTOKENS #IMPLIED x CDATA #IMPLIED>
]>
<db>
  <t0 x="y" a0="v1 v2">text<e0>v</e0></t0>
  <bogus/>
  <t0 id="k"><e1>v1</e1><e1>v2</e1></t0>
</db>"#;
    let tree = parse_document(src).unwrap().tree;
    for threads in [1usize, 2, 4] {
        for strict in [true, false] {
            let opts = Options {
                strict_attributes: strict,
                threads,
            };
            let v = Validator::with_options(&dtdc, opts);
            let want = v.validate(&tree).violations;
            let got = v.validate_stream(src).unwrap().violations;
            assert_eq!(want, got, "strict={strict} threads={threads}");
            // The case actually exercises the interesting clauses.
            if strict {
                for probe in [
                    want.iter()
                        .any(|x| matches!(x, Violation::NotSingleton { .. })),
                    want.iter()
                        .any(|x| matches!(x, Violation::UnknownElementType { .. })),
                    want.iter()
                        .any(|x| matches!(x, Violation::UndeclaredAttribute { .. })),
                    want.iter()
                        .any(|x| matches!(x, Violation::MissingAttribute { .. })),
                ] {
                    assert!(probe, "expected violation kind missing: {want:?}");
                }
            }
        }
    }
    let _ = s;
}

/// Large violation-dense document, streamed at the default and at a
/// 4-thread budget: both reports match the tree path. At 10 001 vertices
/// the constraint pass stays on one worker (the budget is clamped to
/// `nodes / MIN_NODES_PER_THREAD`), so this checks that a thread budget
/// changes nothing on the streaming path; the fanned-out, chunk-merged
/// pass is covered by the `check_planned` unit test in `plan.rs`.
#[test]
fn large_document_stream_matches_tree() {
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
    let d = DtdC::new_unchecked(s.clone(), Language::Lu, sigma);
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
    let src = to_source(&s, &t, 7);
    let seq = Validator::with_options(&d, Options::default())
        .validate_stream(&src)
        .unwrap();
    let tree_report = Validator::with_options(&d, Options::default()).validate(&t);
    assert_eq!(tree_report.violations, seq.violations);
    let par = Validator::with_options(&d, Options::default().with_threads(4))
        .validate_stream(&src)
        .unwrap();
    assert_eq!(seq.violations, par.violations);
    assert!(
        seq.violations.len() > 2_000,
        "expected a violation-dense document, got {}",
        seq.violations.len()
    );
}
