//! Semantic path evaluation: `nodes(x.ρ)` and `ext(τ.ρ)` (§4.1).
//!
//! These evaluators are the model-level ground truth for the Section-4
//! decision procedures: tests generate documents, evaluate both sides of a
//! path constraint, and compare with the solver's verdicts.

use std::collections::{BTreeSet, HashMap};

use xic_model::{DataTree, ExtIndex, Name, NodeId};

use crate::path::Path;
use crate::solver::{PathSolver, StepType};

/// The result of evaluating a path: reached element vertices, or (for
/// `S`-typed terminal attribute steps) reached string values.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PathValues {
    /// Element vertices reached.
    pub nodes: BTreeSet<NodeId>,
    /// String values reached (non-reference attribute steps).
    pub values: BTreeSet<String>,
}

impl PathValues {
    fn from_node(x: NodeId) -> Self {
        PathValues {
            nodes: BTreeSet::from([x]),
            values: BTreeSet::new(),
        }
    }

    /// True iff nothing was reached.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.values.is_empty()
    }

    /// Subset test (nodes and values separately).
    pub fn is_subset(&self, other: &PathValues) -> bool {
        self.nodes.is_subset(&other.nodes) && self.values.is_subset(&other.values)
    }
}

/// Per-type index from ID value to vertices, for dereferencing reference
/// attributes (`z.id = y.l`).
fn build_id_index(
    tree: &DataTree,
    idx: &ExtIndex,
    solver: &PathSolver<'_>,
    tau2: &Name,
) -> HashMap<String, Vec<NodeId>> {
    let s = solver.dtdc().structure();
    let mut map: HashMap<String, Vec<NodeId>> = HashMap::new();
    if let Some(id_attr) = s.id_attr(tau2) {
        for &z in idx.ext(tau2) {
            if let Some(v) = tree.attr(z, id_attr).and_then(|v| v.as_single()) {
                map.entry(v.to_string()).or_default().push(z);
            }
        }
    }
    map
}

/// `nodes(x.ρ)` — the vertices (and terminal string values) reachable from
/// `x` via `ρ`, following the typing of [`PathSolver`].
pub fn nodes_of(
    solver: &PathSolver<'_>,
    tree: &DataTree,
    idx: &ExtIndex,
    x: NodeId,
    path: &Path,
) -> PathValues {
    let s = solver.dtdc().structure();
    let mut cur = PathValues::from_node(x);
    let mut cur_type = StepType::Elem(tree.label(x).clone());
    for label in path.steps() {
        let Some(next_type) = solver.step(&cur_type, label) else {
            return PathValues::default();
        };
        let mut next = PathValues::default();
        let is_attr = matches!(&cur_type, StepType::Elem(t) if s.attr_type(t, label).is_some());
        if is_attr {
            match &next_type {
                StepType::Elem(tau2) => {
                    let ids = build_id_index(tree, idx, solver, tau2);
                    for &y in &cur.nodes {
                        if let Some(av) = tree.attr(y, label) {
                            for v in av.values() {
                                if let Some(zs) = ids.get(v) {
                                    next.nodes.extend(zs.iter().copied());
                                }
                            }
                        }
                    }
                }
                StepType::S => {
                    for &y in &cur.nodes {
                        if let Some(av) = tree.attr(y, label) {
                            next.values.extend(av.values().map(str::to_string));
                        }
                    }
                }
            }
        } else {
            // Element step: children labelled `label`.
            for &y in &cur.nodes {
                for c in tree.child_nodes(y) {
                    if tree.label(c) == label {
                        next.nodes.insert(c);
                    }
                }
            }
        }
        cur = next;
        cur_type = next_type;
    }
    cur
}

/// `ext(τ.ρ) = ⋃_{x ∈ ext(τ)} nodes(x.ρ)`.
pub fn ext_of_path(
    solver: &PathSolver<'_>,
    tree: &DataTree,
    idx: &ExtIndex,
    tau: &Name,
    path: &Path,
) -> PathValues {
    let mut out = PathValues::default();
    for &x in idx.ext(tau) {
        let r = nodes_of(solver, tree, idx, x, path);
        out.nodes.extend(r.nodes);
        out.values.extend(r.values);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_constraints::examples::{book_dtdc, company_dtdc};
    use xic_model::{AttrValue, TreeBuilder};
    use xic_validate::validate;

    fn company_doc() -> DataTree {
        let mut b = TreeBuilder::new();
        let db = b.node("db");
        let p1 = b.child_node(db, "person").unwrap();
        b.attr(p1, "oid", AttrValue::single("p1")).unwrap();
        b.attr(p1, "in_dept", AttrValue::set(["d1"])).unwrap();
        b.leaf(p1, "name", "Alice").unwrap();
        b.leaf(p1, "address", "addr1").unwrap();
        let p2 = b.child_node(db, "person").unwrap();
        b.attr(p2, "oid", AttrValue::single("p2")).unwrap();
        b.attr(p2, "in_dept", AttrValue::set(["d1"])).unwrap();
        b.leaf(p2, "name", "Bob").unwrap();
        b.leaf(p2, "address", "addr2").unwrap();
        let d1 = b.child_node(db, "dept").unwrap();
        b.attr(d1, "oid", AttrValue::single("d1")).unwrap();
        b.attr(d1, "manager", AttrValue::single("p1")).unwrap();
        b.attr(d1, "has_staff", AttrValue::set(["p1", "p2"]))
            .unwrap();
        b.leaf(d1, "dname", "R&D").unwrap();
        b.finish(db).unwrap()
    }

    #[test]
    fn dereferencing_follows_ids() {
        let d = company_dtdc();
        let t = company_doc();
        assert!(validate(&t, &d).is_valid());
        let solver = PathSolver::new(&d);
        let idx = ExtIndex::build(&t);
        // db.dept.manager reaches exactly person p1.
        let r = ext_of_path(&solver, &t, &idx, &"db".into(), &Path::from("dept.manager"));
        assert_eq!(r.nodes.len(), 1);
        let p1 = *r.nodes.iter().next().unwrap();
        assert_eq!(t.attr(p1, "oid").unwrap().as_single().unwrap(), "p1");
        // db.dept.has_staff reaches both persons.
        let r = ext_of_path(
            &solver,
            &t,
            &idx,
            &"db".into(),
            &Path::from("dept.has_staff"),
        );
        assert_eq!(r.nodes.len(), 2);
        // …and their names.
        let r = ext_of_path(
            &solver,
            &t,
            &idx,
            &"db".into(),
            &Path::from("dept.has_staff.name"),
        );
        assert_eq!(r.nodes.len(), 2);
        // Round trip: person.in_dept.has_staff covers both persons.
        let r = ext_of_path(
            &solver,
            &t,
            &idx,
            &"person".into(),
            &Path::from("in_dept.has_staff"),
        );
        assert_eq!(r.nodes.len(), 2);
    }

    #[test]
    fn string_attribute_steps_yield_values() {
        let d = company_dtdc();
        let t = company_doc();
        let solver = PathSolver::new(&d);
        let idx = ExtIndex::build(&t);
        // oid dereferences to person itself (τ.id ⊆ τ.id), so go through
        // a name instead: person.name is an element step; its text lives in
        // children, not values. Use dept.dname string content via nodes.
        let r = ext_of_path(&solver, &t, &idx, &"dept".into(), &Path::from("dname"));
        assert_eq!(r.nodes.len(), 1);
        assert!(r.values.is_empty());
    }

    #[test]
    fn inclusion_decision_matches_evaluation() {
        let d = company_dtdc();
        let t = company_doc();
        let solver = PathSolver::new(&d);
        let idx = ExtIndex::build(&t);
        let db: Name = "db".into();
        let person: Name = "person".into();
        // Implied inclusion holds on the document.
        let lhs = ext_of_path(&solver, &t, &idx, &db, &Path::from("dept.manager.name"));
        let rhs = ext_of_path(&solver, &t, &idx, &person, &Path::from("name"));
        assert!(solver.inclusion_implied(
            &db,
            &Path::from("dept.manager.name"),
            &person,
            &Path::from("name")
        ));
        assert!(lhs.is_subset(&rhs), "{lhs:?} ⊄ {rhs:?}");
    }

    #[test]
    fn functional_decision_matches_evaluation_on_book() {
        let d = book_dtdc();
        let solver = PathSolver::new(&d);
        // Two books sharing an entry-isbn must share authors; our data
        // tree has a single book root, so check the property trivially
        // holds and the solver agrees.
        let mut b = TreeBuilder::new();
        let book = b.node("book");
        let e = b.child_node(book, "entry").unwrap();
        b.attr(e, "isbn", AttrValue::single("x")).unwrap();
        b.leaf(e, "title", "T").unwrap();
        b.leaf(e, "publisher", "P").unwrap();
        b.leaf(book, "author", "A").unwrap();
        let r = b.child_node(book, "ref").unwrap();
        b.attr(r, "to", AttrValue::set(["x"])).unwrap();
        let t = b.finish(book).unwrap();
        assert!(validate(&t, &d).is_valid());
        let idx = ExtIndex::build(&t);
        let vals = ext_of_path(&solver, &t, &idx, &"book".into(), &Path::from("entry.isbn"));
        assert_eq!(vals.values.len(), 1);
        assert!(solver.functional_implied(
            &"book".into(),
            &Path::from("entry.isbn"),
            &Path::from("author")
        ));
    }

    #[test]
    fn unreachable_paths_are_empty() {
        let d = book_dtdc();
        let t = {
            let mut b = TreeBuilder::new();
            let book = b.node("book");
            let e = b.child_node(book, "entry").unwrap();
            b.attr(e, "isbn", AttrValue::single("x")).unwrap();
            let r = b.child_node(book, "ref").unwrap();
            b.attr(r, "to", AttrValue::set(["x"])).unwrap();
            b.finish(book).unwrap()
        };
        let solver = PathSolver::new(&d);
        let idx = ExtIndex::build(&t);
        let r = ext_of_path(&solver, &t, &idx, &"book".into(), &Path::from("bogus.x"));
        assert!(r.is_empty());
    }
}
