//! Constraint satisfaction: `G ⊨ Σ` for the basic XML constraints.

use std::collections::HashMap;

use xic_constraints::{Constraint, DtdC, DtdStructure, Field};
use xic_model::{DataTree, ExtIndex, NodeId};

use crate::plan::CName;
use crate::report::Violation;

/// The unique child of `x` labelled `e`, or `None` when `x` has zero or
/// several such children.
///
/// §3.4 treats a sub-element field `τ.e` as defined only when the
/// sub-element is *unique*; with several `e` children "x.e" would not
/// denote a single value, so the field is undefined rather than the text
/// of an arbitrary first match.
pub(crate) fn unique_sub(tree: &DataTree, x: NodeId, e: &str) -> Option<NodeId> {
    let mut found = None;
    for c in tree.child_nodes(x) {
        if tree.label(c) == e {
            if found.is_some() {
                return None;
            }
            found = Some(c);
        }
    }
    found
}

/// The value of a field at a vertex: attribute lookup (single value) or the
/// text content of the unique sub-element with that label (§3.4).
///
/// Returns `None` when the attribute is absent / non-singleton, or the
/// sub-element is absent / non-unique.
pub(crate) fn field_value(tree: &DataTree, x: NodeId, field: &Field) -> Option<String> {
    match field {
        Field::Attr(l) => tree.attr(x, l)?.as_single().map(str::to_string),
        Field::Sub(e) => Some(tree.text(unique_sub(tree, x, e)?).into_owned()),
    }
}

/// The tuple `x[X]` over fields; `None` if any component is undefined.
fn tuple(tree: &DataTree, x: NodeId, fields: &[Field]) -> Option<Vec<String>> {
    fields.iter().map(|f| field_value(tree, x, f)).collect()
}

/// The set value `x.l` of a set-valued attribute (empty if absent).
fn set_value<'t>(tree: &'t DataTree, x: NodeId, l: &str) -> impl Iterator<Item = &'t str> {
    tree.attr(x, l).into_iter().flat_map(|v| v.values())
}

/// Checks a single constraint against a data tree.
///
/// This is the semantic ground truth used by tests and by the implication
/// engine's counterexample checking: a constraint solver's "not implied"
/// answer comes with a witness tree, and this function confirms the witness
/// satisfies `Σ` while violating `φ`. The [`crate::Validator`]'s compiled
/// engine is required (and property-tested) to reproduce, for each
/// constraint in Σ, exactly this function's violations in order.
pub fn check_constraint(tree: &DataTree, dtdc: &DtdC, c: &Constraint) -> Vec<Violation> {
    let idx = ExtIndex::build(tree);
    let s = dtdc.structure();
    let global_ids = build_global_ids(tree, &idx, s);
    let mut out = Vec::new();
    check_one(tree, &idx, s, c, &global_ids, &mut out);
    out
}

fn build_global_ids(
    tree: &DataTree,
    idx: &ExtIndex,
    s: &DtdStructure,
) -> HashMap<String, Vec<NodeId>> {
    let mut map: HashMap<String, Vec<NodeId>> = HashMap::new();
    for tau in s.element_types() {
        let Some(id_attr) = s.id_attr(tau) else {
            continue;
        };
        for &x in idx.ext(tau) {
            if let Some(v) = tree.attr(x, id_attr).and_then(|v| v.as_single()) {
                map.entry(v.to_string()).or_default().push(x);
            }
        }
    }
    map
}

fn check_one(
    tree: &DataTree,
    idx: &ExtIndex,
    s: &DtdStructure,
    c: &Constraint,
    global_ids: &HashMap<String, Vec<NodeId>>,
    out: &mut Vec<Violation>,
) {
    // Rendering a constraint for a report is lazy: clean documents (the
    // common case) never pay for formatting Σ.
    let cname = CName::new(c);
    match c {
        Constraint::Key { tau, fields } => {
            let mut seen: HashMap<Vec<String>, NodeId> = HashMap::new();
            for &x in idx.ext(tau) {
                let Some(t) = tuple(tree, x, fields) else {
                    continue; // undefined tuples cannot witness equality
                };
                match seen.get(&t) {
                    Some(&prev) => out.push(Violation::Key {
                        constraint: cname.get(),
                        a: prev,
                        b: x,
                        value: t.join(", "),
                    }),
                    None => {
                        seen.insert(t, x);
                    }
                }
            }
        }
        Constraint::ForeignKey {
            tau,
            fields,
            target,
            target_fields,
        } => {
            let targets: std::collections::HashSet<Vec<String>> = idx
                .ext(target)
                .iter()
                .filter_map(|&y| tuple(tree, y, target_fields))
                .collect();
            for &x in idx.ext(tau) {
                match tuple(tree, x, fields) {
                    Some(t) => {
                        if !targets.contains(&t) {
                            out.push(Violation::ForeignKey {
                                constraint: cname.get(),
                                node: x,
                                value: t.join(", "),
                            });
                        }
                    }
                    None => out.push(Violation::MissingField {
                        constraint: cname.get(),
                        node: x,
                        field: fields
                            .iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join(", "),
                    }),
                }
            }
        }
        Constraint::SetForeignKey {
            tau,
            attr,
            target,
            target_field,
        } => {
            let targets: std::collections::HashSet<String> = idx
                .ext(target)
                .iter()
                .filter_map(|&y| field_value(tree, y, target_field))
                .collect();
            for &x in idx.ext(tau) {
                for v in set_value(tree, x, attr) {
                    if !targets.contains(v) {
                        out.push(Violation::ForeignKey {
                            constraint: cname.get(),
                            node: x,
                            value: v.to_string(),
                        });
                    }
                }
            }
        }
        Constraint::InverseU {
            tau,
            key,
            attr,
            target,
            target_key,
            target_attr,
        } => {
            check_inverse(
                tree,
                idx,
                &cname,
                tau,
                key,
                attr,
                target,
                target_key,
                target_attr,
                out,
            );
            check_inverse(
                tree,
                idx,
                &cname,
                target,
                target_key,
                target_attr,
                tau,
                key,
                attr,
                out,
            );
        }
        Constraint::Id { tau } => {
            let Some(id_attr) = s.id_attr(tau) else {
                return; // rejected at well-formedness; nothing to check
            };
            for &x in idx.ext(tau) {
                match tree.attr(x, id_attr).and_then(|v| v.as_single()) {
                    None => out.push(Violation::MissingField {
                        constraint: cname.get(),
                        node: x,
                        field: format!("@{id_attr}"),
                    }),
                    Some(v) => {
                        for &y in global_ids.get(v).into_iter().flatten() {
                            if y != x {
                                out.push(Violation::DuplicateId {
                                    constraint: cname.get(),
                                    a: x,
                                    b: y,
                                    value: v.to_string(),
                                });
                            }
                        }
                    }
                }
            }
        }
        Constraint::FkToId { tau, attr, target } => {
            let targets = id_values(tree, idx, s, target);
            for &x in idx.ext(tau) {
                let Some(v) = tree.attr(x, attr).and_then(|v| v.as_single()) else {
                    continue;
                };
                if !targets.contains(v) {
                    out.push(Violation::ForeignKey {
                        constraint: cname.get(),
                        node: x,
                        value: v.to_string(),
                    });
                }
            }
        }
        Constraint::SetFkToId { tau, attr, target } => {
            let targets = id_values(tree, idx, s, target);
            for &x in idx.ext(tau) {
                for v in set_value(tree, x, attr) {
                    if !targets.contains(v) {
                        out.push(Violation::ForeignKey {
                            constraint: cname.get(),
                            node: x,
                            value: v.to_string(),
                        });
                    }
                }
            }
        }
        Constraint::InverseId {
            tau,
            attr,
            target,
            target_attr,
        } => {
            let (Some(id_tau), Some(id_target)) = (s.id_attr(tau), s.id_attr(target)) else {
                return; // rejected at well-formedness
            };
            // The L_id inverse carries reference typing (cf. rule
            // Inv-SFK-ID): the paired IDREFS attributes contain only IDs of
            // the partner type, i.e. τ.l ⊆_S τ'.id and τ'.l' ⊆_S τ.id.
            for (src, src_attr, dst) in [(tau, attr, target), (target, target_attr, tau)] {
                let targets = id_values(tree, idx, s, dst);
                for &x in idx.ext(src) {
                    for v in set_value(tree, x, src_attr) {
                        if !targets.contains(v) {
                            out.push(Violation::ForeignKey {
                                constraint: cname.get(),
                                node: x,
                                value: v.to_string(),
                            });
                        }
                    }
                }
            }
            let key_tau = Field::Attr(id_tau.clone());
            let key_target = Field::Attr(id_target.clone());
            check_inverse(
                tree,
                idx,
                &cname,
                tau,
                &key_tau,
                attr,
                target,
                &key_target,
                target_attr,
                out,
            );
            check_inverse(
                tree,
                idx,
                &cname,
                target,
                &key_target,
                target_attr,
                tau,
                &key_tau,
                attr,
                out,
            );
        }
    }
}

fn id_values(
    tree: &DataTree,
    idx: &ExtIndex,
    s: &DtdStructure,
    tau: &xic_model::Name,
) -> std::collections::HashSet<String> {
    let Some(id_attr) = s.id_attr(tau) else {
        return Default::default();
    };
    idx.ext(tau)
        .iter()
        .filter_map(|&y| tree.attr(y, id_attr).and_then(|v| v.as_single()))
        .map(str::to_string)
        .collect()
}

/// One direction of an inverse constraint:
/// `∀x ∈ ext(τ) ∀y ∈ ext(τ') (x.key ∈ y.attr' → y.key' ∈ x.attr)`.
///
/// Implemented by indexing `ext(τ)` on the key and scanning `y.attr'`.
#[allow(clippy::too_many_arguments)]
fn check_inverse(
    tree: &DataTree,
    idx: &ExtIndex,
    cname: &CName<'_>,
    tau: &xic_model::Name,
    key: &Field,
    attr: &xic_model::Name,
    target: &xic_model::Name,
    target_key: &Field,
    target_attr: &xic_model::Name,
    out: &mut Vec<Violation>,
) {
    let mut by_key: HashMap<String, Vec<NodeId>> = HashMap::new();
    for &x in idx.ext(tau) {
        if let Some(v) = field_value(tree, x, key) {
            by_key.entry(v).or_default().push(x);
        }
    }
    for &y in idx.ext(target) {
        let Some(yk) = field_value(tree, y, target_key) else {
            continue;
        };
        for v in set_value(tree, y, target_attr) {
            for &x in by_key.get(v).into_iter().flatten() {
                // x.key ∈ y.target_attr holds; require y.target_key ∈ x.attr.
                let echoed = tree.attr(x, attr).is_some_and(|set| set.contains(&yk));
                if !echoed {
                    out.push(Violation::Inverse {
                        constraint: cname.get(),
                        from: y,
                        to: x,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{validate, Validator};
    use xic_constraints::examples::{book_dtdc, company_dtdc, publishers_dtdc};
    use xic_model::{AttrValue, TreeBuilder};

    /// A valid company document: two persons, one dept, consistent
    /// references and inverse relationships.
    fn company_doc() -> DataTree {
        let mut b = TreeBuilder::new();
        let db = b.node("db");
        let p1 = b.child_node(db, "person").unwrap();
        b.attr(p1, "oid", AttrValue::single("p1")).unwrap();
        b.attr(p1, "in_dept", AttrValue::set(["d1"])).unwrap();
        b.leaf(p1, "name", "Alice").unwrap();
        b.leaf(p1, "address", "1 Main St").unwrap();
        let p2 = b.child_node(db, "person").unwrap();
        b.attr(p2, "oid", AttrValue::single("p2")).unwrap();
        b.attr(p2, "in_dept", AttrValue::set(["d1"])).unwrap();
        b.leaf(p2, "name", "Bob").unwrap();
        b.leaf(p2, "address", "2 Side St").unwrap();
        let d1 = b.child_node(db, "dept").unwrap();
        b.attr(d1, "oid", AttrValue::single("d1")).unwrap();
        b.attr(d1, "manager", AttrValue::single("p1")).unwrap();
        b.attr(d1, "has_staff", AttrValue::set(["p1", "p2"]))
            .unwrap();
        b.leaf(d1, "dname", "R&D").unwrap();
        b.finish(db).unwrap()
    }

    #[test]
    fn valid_company_document_passes() {
        let d = company_dtdc();
        let t = company_doc();
        let r = validate(&t, &d);
        assert!(r.is_valid(), "{r}");
    }

    #[test]
    fn duplicate_ids_across_types_detected() {
        // L_id's →_id is document-wide: a person and a dept sharing an oid
        // violate both ID constraints.
        let d = company_dtdc();
        let mut b = TreeBuilder::new();
        let db = b.node("db");
        let p = b.child_node(db, "person").unwrap();
        b.attr(p, "oid", AttrValue::single("same")).unwrap();
        b.attr(p, "in_dept", AttrValue::set(["same"])).unwrap();
        b.leaf(p, "name", "A").unwrap();
        b.leaf(p, "address", "x").unwrap();
        let dd = b.child_node(db, "dept").unwrap();
        b.attr(dd, "oid", AttrValue::single("same")).unwrap();
        b.attr(dd, "manager", AttrValue::single("same")).unwrap();
        b.attr(dd, "has_staff", AttrValue::set(["same"])).unwrap();
        b.leaf(dd, "dname", "D").unwrap();
        let t = b.finish(db).unwrap();
        let r = validate(&t, &d);
        assert!(
            r.violations
                .iter()
                .any(|v| matches!(v, Violation::DuplicateId { .. })),
            "{r}"
        );
    }

    #[test]
    fn inverse_violation_detected() {
        // dept.has_staff lists p2, but p2.in_dept does not list the dept.
        let d = company_dtdc();
        let mut b = TreeBuilder::new();
        let db = b.node("db");
        let p1 = b.child_node(db, "person").unwrap();
        b.attr(p1, "oid", AttrValue::single("p1")).unwrap();
        b.attr(p1, "in_dept", AttrValue::set(["d1"])).unwrap();
        b.leaf(p1, "name", "A").unwrap();
        b.leaf(p1, "address", "x").unwrap();
        let p2 = b.child_node(db, "person").unwrap();
        b.attr(p2, "oid", AttrValue::single("p2")).unwrap();
        b.attr(p2, "in_dept", AttrValue::set(Vec::<String>::new()))
            .unwrap();
        b.leaf(p2, "name", "B").unwrap();
        b.leaf(p2, "address", "y").unwrap();
        let d1 = b.child_node(db, "dept").unwrap();
        b.attr(d1, "oid", AttrValue::single("d1")).unwrap();
        b.attr(d1, "manager", AttrValue::single("p1")).unwrap();
        b.attr(d1, "has_staff", AttrValue::set(["p1", "p2"]))
            .unwrap();
        b.leaf(d1, "dname", "D").unwrap();
        let t = b.finish(db).unwrap();
        let r = validate(&t, &d);
        assert!(
            r.violations
                .iter()
                .any(|v| matches!(v, Violation::Inverse { .. })),
            "{r}"
        );
        // Exactly one direction fails.
        assert_eq!(
            r.violations
                .iter()
                .filter(|v| matches!(v, Violation::Inverse { .. }))
                .count(),
            1,
            "{r}"
        );
    }

    #[test]
    fn sub_element_key_checked() {
        // Two persons with the same name violate person.name -> person.
        let d = company_dtdc();
        let mut b = TreeBuilder::new();
        let db = b.node("db");
        for (oid, dept) in [("p1", "d1"), ("p2", "d1")] {
            let p = b.child_node(db, "person").unwrap();
            b.attr(p, "oid", AttrValue::single(oid)).unwrap();
            b.attr(p, "in_dept", AttrValue::set([dept])).unwrap();
            b.leaf(p, "name", "SameName").unwrap();
            b.leaf(p, "address", "x").unwrap();
        }
        let d1 = b.child_node(db, "dept").unwrap();
        b.attr(d1, "oid", AttrValue::single("d1")).unwrap();
        b.attr(d1, "manager", AttrValue::single("p1")).unwrap();
        b.attr(d1, "has_staff", AttrValue::set(["p1", "p2"]))
            .unwrap();
        b.leaf(d1, "dname", "D").unwrap();
        let t = b.finish(db).unwrap();
        let r = validate(&t, &d);
        let key_viols: Vec<_> = r
            .violations
            .iter()
            .filter(|v| matches!(v, Violation::Key { .. }))
            .collect();
        assert_eq!(key_viols.len(), 1, "{r}");
        assert!(key_viols[0].to_string().contains("SameName"));
    }

    #[test]
    fn non_unique_sub_element_field_is_undefined() {
        // §3.4: `x.name` denotes the *unique* name child. Give both persons
        // two name children whose first copies collide; the field is
        // undefined, so the key has no witness. (The old checker read the
        // first matching child and reported a spurious violation.)
        let d = company_dtdc();
        let mut b = TreeBuilder::new();
        let db = b.node("db");
        for oid in ["p1", "p2"] {
            let p = b.child_node(db, "person").unwrap();
            b.attr(p, "oid", AttrValue::single(oid)).unwrap();
            b.attr(p, "in_dept", AttrValue::set(Vec::<String>::new()))
                .unwrap();
            b.leaf(p, "name", "SameName").unwrap();
            b.leaf(p, "name", format!("Second-{oid}")).unwrap();
            b.leaf(p, "address", "x").unwrap();
        }
        let t = b.finish(db).unwrap();
        let key = Constraint::sub_key("person", "name");
        assert!(check_constraint(&t, &d, &key).is_empty());
        // The compiled engine agrees (content-model violations aside).
        let r = validate(&t, &d);
        assert!(
            !r.violations
                .iter()
                .any(|v| matches!(v, Violation::Key { .. })),
            "{r}"
        );
    }

    #[test]
    fn set_fk_dangling_reference() {
        let d = book_dtdc();
        let mut b = TreeBuilder::new();
        let book = b.node("book");
        let entry = b.child_node(book, "entry").unwrap();
        b.attr(entry, "isbn", AttrValue::single("x1")).unwrap();
        b.leaf(entry, "title", "T").unwrap();
        b.leaf(entry, "publisher", "P").unwrap();
        let r = b.child_node(book, "ref").unwrap();
        b.attr(r, "to", AttrValue::set(["x1", "dangling"])).unwrap();
        let t = b.finish(book).unwrap();
        let rep = validate(&t, &d);
        let fks: Vec<_> = rep
            .violations
            .iter()
            .filter(|v| matches!(v, Violation::ForeignKey { .. }))
            .collect();
        assert_eq!(fks.len(), 1, "{rep}");
        assert!(fks[0].to_string().contains("dangling"));
    }

    #[test]
    fn multi_attribute_key_and_fk() {
        let d = publishers_dtdc();
        let mut b = TreeBuilder::new();
        let db = b.node("db");
        let pubs = b.child_node(db, "publishers").unwrap();
        for (pn, co) in [("MK", "USA"), ("MK", "UK")] {
            let p = b.child_node(pubs, "publisher").unwrap();
            b.attr(p, "pname", AttrValue::single(pn)).unwrap();
            b.attr(p, "country", AttrValue::single(co)).unwrap();
            b.leaf(p, "pname", pn).unwrap();
            b.leaf(p, "country", co).unwrap();
            b.leaf(p, "address", "addr").unwrap();
        }
        let eds = b.child_node(db, "editors").unwrap();
        let e = b.child_node(eds, "editor").unwrap();
        b.attr(e, "name", AttrValue::single("Ed")).unwrap();
        b.attr(e, "pname", AttrValue::single("MK")).unwrap();
        b.attr(e, "country", AttrValue::single("USA")).unwrap();
        b.leaf(e, "name", "Ed").unwrap();
        b.leaf(e, "pname", "MK").unwrap();
        b.leaf(e, "country", "USA").unwrap();
        let t = b.finish(db).unwrap();
        // Same pname, different countries: the composite key is respected.
        let rep = validate(&t, &d);
        assert!(rep.is_valid(), "{rep}");

        // Now break the FK: editor references (MK, France).
        let mut b = TreeBuilder::new();
        let db = b.node("db");
        let pubs = b.child_node(db, "publishers").unwrap();
        let p = b.child_node(pubs, "publisher").unwrap();
        b.attr(p, "pname", AttrValue::single("MK")).unwrap();
        b.attr(p, "country", AttrValue::single("USA")).unwrap();
        b.leaf(p, "pname", "MK").unwrap();
        b.leaf(p, "country", "USA").unwrap();
        b.leaf(p, "address", "addr").unwrap();
        let eds = b.child_node(db, "editors").unwrap();
        let e = b.child_node(eds, "editor").unwrap();
        b.attr(e, "name", AttrValue::single("Ed")).unwrap();
        b.attr(e, "pname", AttrValue::single("MK")).unwrap();
        b.attr(e, "country", AttrValue::single("France")).unwrap();
        b.leaf(e, "name", "Ed").unwrap();
        b.leaf(e, "pname", "MK").unwrap();
        b.leaf(e, "country", "France").unwrap();
        let t = b.finish(db).unwrap();
        let rep = validate(&t, &d);
        assert!(
            rep.violations
                .iter()
                .any(|v| matches!(v, Violation::ForeignKey { .. })),
            "{rep}"
        );
    }

    #[test]
    fn check_constraint_isolates_one_constraint() {
        let d = book_dtdc();
        let mut b = TreeBuilder::new();
        let book = b.node("book");
        for isbn in ["same", "same"] {
            let entry = b.child_node(book, "entry").unwrap();
            b.attr(entry, "isbn", AttrValue::single(isbn)).unwrap();
            b.leaf(entry, "title", "T").unwrap();
            b.leaf(entry, "publisher", "P").unwrap();
        }
        let r = b.child_node(book, "ref").unwrap();
        b.attr(r, "to", AttrValue::set(["same"])).unwrap();
        let t = b.finish(book).unwrap();
        let key = Constraint::unary_key("entry", "isbn");
        let viols = check_constraint(&t, &d, &key);
        assert_eq!(viols.len(), 1);
        let fk = Constraint::set_fk("ref", "to", "entry", "isbn");
        assert!(check_constraint(&t, &d, &fk).is_empty());
    }

    #[test]
    fn validator_reuse_across_documents() {
        let d = book_dtdc();
        let v = Validator::new(&d);
        for isbn in ["a", "b", "c"] {
            let mut b = TreeBuilder::new();
            let book = b.node("book");
            let entry = b.child_node(book, "entry").unwrap();
            b.attr(entry, "isbn", AttrValue::single(isbn)).unwrap();
            b.leaf(entry, "title", "T").unwrap();
            b.leaf(entry, "publisher", "P").unwrap();
            let r = b.child_node(book, "ref").unwrap();
            b.attr(r, "to", AttrValue::set([isbn])).unwrap();
            let t = b.finish(book).unwrap();
            assert!(v.validate(&t).is_valid());
        }
    }
}
