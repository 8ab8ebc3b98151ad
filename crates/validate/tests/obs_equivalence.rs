//! Property test: observability is read-only — attaching a
//! [`MetricsCollector`] to a validator never changes the violation
//! report. Both engines (tree and streaming), every constraint kind,
//! sequential and parallel, on random Σ and random documents; the
//! instrumented and plain reports must be **byte-identical**.
//!
//! This is the invariant that makes `--metrics` safe to reach for in
//! production: spans and counters only observe the run, they never
//! steer it. A deterministic test also pins that, on a small document,
//! a thread budget adds no telemetry of its own.

use std::sync::Arc;

use proptest::prelude::*;
use xic_constraints::{Constraint, DtdC, DtdStructure, Field, Language};
use xic_model::{AttrValue, DataTree, Name, TreeBuilder};
use xic_obs::{Fanout, Metrics, MetricsCollector, Obs, TraceCollector};
use xic_validate::{BatchEdit, LiveValidator, Options, Validator};
use xic_xml::{parse_document, serialize_document, serialize_dtd};

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
/// paths see the same set-splitting rules the tree was built with.
fn to_source(s: &DtdStructure, tree: &DataTree) -> String {
    format!(
        "<!DOCTYPE db [\n{}]>\n{}",
        serialize_dtd(s),
        serialize_document(tree)
    )
}

/// Plain vs instrumented validator on the same input, tree and streaming
/// engines, sequential and parallel: violations must be byte-identical,
/// and only the instrumented run may carry a metrics snapshot.
fn assert_observation_is_inert(dtdc: &DtdC, src: &str) -> Result<(), TestCaseError> {
    let tree = parse_document(src)
        .expect("serialized document parses")
        .tree;
    for threads in [1usize, 4] {
        let opts = Options::default().with_threads(threads);
        let plain = Validator::with_options(dtdc, opts);
        let collector = Arc::new(MetricsCollector::new());
        let observed = Validator::with_options(dtdc, opts).with_obs(Obs::new(collector.clone()));

        let want_tree = plain.validate(&tree);
        let got_tree = observed.validate(&tree);
        prop_assert_eq!(
            &want_tree.violations,
            &got_tree.violations,
            "tree engine diverged under observation (threads={})\n{}",
            threads,
            src
        );
        prop_assert!(want_tree.metrics.is_none());
        let m = got_tree.metrics.expect("collector attached => snapshot");
        prop_assert_eq!(m.counter("nodes"), tree.len() as u64);
        prop_assert_eq!(m.counter("violations"), got_tree.violations.len() as u64);

        let want_stream = plain.validate_stream(src).expect("stream parses");
        let got_stream = observed.validate_stream(src).expect("stream parses");
        prop_assert_eq!(
            &want_stream.violations,
            &got_stream.violations,
            "stream engine diverged under observation (threads={})\n{}",
            threads,
            src
        );
        prop_assert!(want_stream.metrics.is_none());
        prop_assert!(got_stream.metrics.is_some());

        // The full telemetry stack — histogram-recording metrics AND the
        // trace-event ring under one Fanout — is just as inert.
        let metrics = Arc::new(MetricsCollector::with_histograms());
        let ring = Arc::new(TraceCollector::new());
        let full =
            Validator::with_options(dtdc, opts).with_obs(Obs::new(Arc::new(Fanout::new(vec![
                metrics.clone(),
                ring.clone(),
            ]))));
        let got_full_tree = full.validate(&tree);
        prop_assert_eq!(
            &want_tree.violations,
            &got_full_tree.violations,
            "tree engine diverged under histogram+trace collectors (threads={})\n{}",
            threads,
            src
        );
        let got_full_stream = full.validate_stream(src).expect("stream parses");
        prop_assert_eq!(
            &want_stream.violations,
            &got_full_stream.violations,
            "stream engine diverged under histogram+trace collectors (threads={})\n{}",
            threads,
            src
        );
        // And they actually observed: the check family recorded a latency
        // distribution, the ring holds raw span events.
        let m = metrics.snapshot();
        prop_assert!(m.hist("check").is_some(), "check histogram missing");
        prop_assert!(m.hist("check").unwrap().count >= 2, "two runs recorded");
        prop_assert!(!ring.events().is_empty(), "trace ring stayed empty");
        prop_assert!(ring.events().iter().any(|e| e.name == "check"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn attaching_a_collector_never_changes_the_report(
        sigma in prop::collection::vec(constraint(), 0..8),
        nodes in prop::collection::vec(node_recipe(), 0..25),
    ) {
        let s = test_structure();
        let dtdc = DtdC::new_unchecked(test_structure(), Language::Lid, sigma);
        let src = to_source(&s, &build_tree(&nodes));
        assert_observation_is_inert(&dtdc, &src)?;
    }
}

/// The shape of one run's telemetry: every span, counter, maximum and
/// histogram name with its count (or value), timings left out.
fn telemetry_shape(m: &Metrics) -> Vec<(String, u64)> {
    let spans = m.spans.iter().map(|(n, s)| (format!("span {n}"), s.count));
    let counters = m.counters.iter().map(|(n, &v)| (format!("counter {n}"), v));
    let maxima = m.maxima.iter().map(|(n, &v)| (format!("max {n}"), v));
    let hists = m.hists.iter().map(|(n, h)| (format!("hist {n}"), h.count));
    spans.chain(counters).chain(maxima).chain(hists).collect()
}

/// A small document records the same telemetry at a 4-thread budget as at
/// 1 on the tree, stream and live paths: below the per-thread vertex
/// clamp every path runs on the calling thread, so a budget adds no
/// spans, counters or histogram samples of its own.
#[test]
fn small_document_telemetry_is_thread_budget_independent() {
    let s = test_structure();
    let sigma = vec![
        Constraint::unary_key("t0", "a0"),
        Constraint::set_fk("t1", "r1", "t0", "a0"),
    ];
    let dtdc = DtdC::new_unchecked(test_structure(), Language::Lid, sigma);
    let recipes: Vec<NodeRecipe> = (0..5u8)
        .map(|i| {
            (
                (i % 3, Some(i), Some(i % 2), None),
                (vec![i], vec![i, 5], vec![(i % 2, i)]),
            )
        })
        .collect();
    let tree = build_tree(&recipes);
    let src = to_source(&s, &tree);
    let shape = |threads: usize| {
        let metrics = Arc::new(MetricsCollector::with_histograms());
        let v = Validator::with_options(&dtdc, Options::default().with_threads(threads))
            .with_obs(Obs::new(metrics.clone()));
        v.validate(&tree);
        v.validate_stream(&src).expect("stream parses");
        let mut live = LiveValidator::new(&v, tree.clone());
        let node = tree.child_nodes(tree.root()).next().expect("a t-vertex");
        live.apply_batch(&[BatchEdit::SetAttr {
            node,
            attr: Name::new("a0"),
            value: AttrValue::single("v0"),
        }])
        .expect("edit applies");
        telemetry_shape(&metrics.snapshot())
    };
    let one = shape(1);
    assert!(one.iter().any(|(n, _)| n == "span parse"), "{one:?}");
    assert!(one.iter().any(|(n, _)| n == "span edit.batch"), "{one:?}");
    assert_eq!(shape(4), one);
}
