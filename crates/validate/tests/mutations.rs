//! Mutation testing for the validator: start from valid generated
//! documents, apply targeted mutations, and check that exactly the right
//! violation kinds appear (and that un-mutated documents stay valid).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xic_constraints::examples::book_dtdc;
use xic_constraints::DtdC;
use xic_model::{AttrValue, Child, DataTree, NodeId, TreeBuilder};
use xic_validate::{validate, Violation};

/// A valid book document with `n` sections (unique sids) and `k` refs.
fn book(n_sections: usize, n_refs: usize) -> DataTree {
    let mut b = TreeBuilder::new();
    let book = b.node("book");
    let entry = b.child_node(book, "entry").unwrap();
    b.attr(entry, "isbn", AttrValue::single("isbn-0")).unwrap();
    b.leaf(entry, "title", "T").unwrap();
    b.leaf(entry, "publisher", "P").unwrap();
    b.leaf(book, "author", "A").unwrap();
    for i in 0..n_sections {
        let s = b.child_node(book, "section").unwrap();
        b.attr(s, "sid", AttrValue::single(format!("s{i}")))
            .unwrap();
        b.leaf(s, "title", format!("S{i}")).unwrap();
    }
    let r = b.child_node(book, "ref").unwrap();
    let _ = n_refs;
    b.attr(r, "to", AttrValue::set(["isbn-0"])).unwrap();
    b.finish(book).unwrap()
}

/// Rebuilds `tree` applying `edit` to each node's attributes.
fn rebuild_with<F>(tree: &DataTree, mut edit: F) -> DataTree
where
    F: FnMut(NodeId, &str, &AttrValue) -> AttrValue,
{
    let mut b = TreeBuilder::new();
    let mut map = std::collections::HashMap::new();
    for id in tree.preorder().collect::<Vec<_>>() {
        let n = b.node(tree.label(id).clone());
        map.insert(id, n);
        if let Some(p) = tree.node(id).parent() {
            b.child(map[&p], n).unwrap();
        }
        for (l, v) in tree.attrs(id) {
            b.attr(n, l.clone(), edit(id, l.as_str(), &v.to_owned()))
                .unwrap();
        }
        for c in tree.children(id) {
            if let Child::Text(t) = c {
                b.text(n, tree.pool().resolve(*t)).unwrap();
            }
        }
    }
    b.finish(map[&tree.root()]).unwrap()
}

fn kinds(dtdc: &DtdC, tree: &DataTree) -> Vec<&'static str> {
    validate(tree, dtdc)
        .violations
        .iter()
        .map(|v| match v {
            Violation::RootLabel { .. } => "root",
            Violation::UnknownElementType { .. } => "unknown",
            Violation::ContentModel { .. } => "content",
            Violation::UndeclaredAttribute { .. } => "undeclared-attr",
            Violation::MissingAttribute { .. } => "missing-attr",
            Violation::NotSingleton { .. } => "not-singleton",
            Violation::Key { .. } => "key",
            Violation::ForeignKey { .. } => "fk",
            Violation::MissingField { .. } => "missing-field",
            Violation::DuplicateId { .. } => "dup-id",
            Violation::Inverse { .. } => "inverse",
        })
        .collect()
}

#[test]
fn baseline_is_valid() {
    let d = book_dtdc();
    for n in [0usize, 1, 5] {
        let t = book(n, 1);
        assert!(validate(&t, &d).is_valid(), "n={n}");
    }
}

#[test]
fn sid_collision_yields_exactly_key_violations() {
    let d = book_dtdc();
    let t = book(4, 1);
    let mutated = rebuild_with(&t, |_, l, v| {
        if l == "sid" {
            AttrValue::single("same")
        } else {
            v.clone()
        }
    });
    let ks = kinds(&d, &mutated);
    assert!(ks.iter().all(|k| *k == "key"), "{ks:?}");
    // 4 sections sharing one sid → 3 collisions against the first.
    assert_eq!(ks.len(), 3);
}

#[test]
fn dangling_ref_yields_exactly_fk_violations() {
    let d = book_dtdc();
    let t = book(2, 1);
    let mutated = rebuild_with(&t, |_, l, v| {
        if l == "to" {
            AttrValue::set(["isbn-0", "ghost-1", "ghost-2"])
        } else {
            v.clone()
        }
    });
    let ks = kinds(&d, &mutated);
    assert!(ks.iter().all(|k| *k == "fk"), "{ks:?}");
    assert_eq!(ks.len(), 2);
}

#[test]
fn multi_valued_isbn_is_structural_not_semantic() {
    let d = book_dtdc();
    let t = book(1, 1);
    let mutated = rebuild_with(&t, |_, l, v| {
        if l == "isbn" {
            AttrValue::set(["a", "b"])
        } else {
            v.clone()
        }
    });
    let ks = kinds(&d, &mutated);
    assert!(ks.contains(&"not-singleton"), "{ks:?}");
    // The ref now dangles too (no single isbn value matches).
    assert!(ks.contains(&"fk"), "{ks:?}");
}

#[test]
fn random_attribute_scrambles_never_pass_silently() {
    // Scramble random attribute values; whenever the document changed in a
    // constraint-relevant way, the validator must flag something — and
    // must never panic.
    let d = book_dtdc();
    let mut rng = SmallRng::seed_from_u64(77);
    for _ in 0..200 {
        let t = book(rng.gen_range(0..4), 1);
        let break_ref = rng.gen_bool(0.5);
        let mutated = rebuild_with(&t, |_, l, v| {
            if l == "to" && break_ref {
                AttrValue::set(["nonsense"])
            } else {
                v.clone()
            }
        });
        let report = validate(&mutated, &d);
        if break_ref {
            assert!(!report.is_valid());
        } else {
            assert!(report.is_valid(), "{report}");
        }
    }
}

#[test]
fn structural_mutations_detected() {
    let d = book_dtdc();
    // Drop the entry element: content model violation at book.
    let mut b = TreeBuilder::new();
    let book = b.node("book");
    let r = b.child_node(book, "ref").unwrap();
    b.attr(r, "to", AttrValue::set(Vec::<String>::new()))
        .unwrap();
    let t = b.finish(book).unwrap();
    let ks = kinds(&d, &t);
    assert!(ks.contains(&"content"), "{ks:?}");

    // Wrong root.
    let mut b = TreeBuilder::new();
    let e = b.node("entry");
    b.attr(e, "isbn", AttrValue::single("x")).unwrap();
    b.leaf(e, "title", "T").unwrap();
    b.leaf(e, "publisher", "P").unwrap();
    let t = b.finish(e).unwrap();
    assert!(kinds(&d, &t).contains(&"root"));

    // Unknown element.
    let mut b = TreeBuilder::new();
    let book = b.node("book");
    b.child_node(book, "martian").unwrap();
    let t = b.finish(book).unwrap();
    let ks = kinds(&d, &t);
    assert!(ks.contains(&"unknown"), "{ks:?}");
}
