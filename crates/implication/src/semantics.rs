//! Flat instances: the semantic domain for constraint implication.
//!
//! Basic XML constraints only ever mention `ext(τ)` extents and attribute
//! (or unique-sub-element) values, never tree shape, and every finite
//! family of typed extents is realized by some `DTD^C`'s data tree. So
//! implication over data trees coincides with implication over these flat
//! instances (see the crate docs). Countermodels, brute-force search, and
//! the chase all operate here; [`instance_to_tree`] rebuilds a real data
//! tree from an instance.
//!
//! ### The `id` pseudo-attribute
//!
//! Throughout the implication engine, the ID attribute of a type (written
//! `τ.id` in the paper, whatever its concrete name in a given DTD) is
//! represented by the pseudo-attribute name **`id`**: an element's ID value
//! is its `Field::Attr("id")` single value. Solvers normalize concrete ID
//! attribute names to this convention when given a structure.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;

use xic_constraints::{Constraint, DtdStructure, Field};
use xic_model::{AttrValue, DataTree, Name, TreeBuilder};

/// The pseudo-attribute holding ID values (see module docs).
pub fn id_field() -> Field {
    Field::attr("id")
}

/// One element of an extent: its single-valued fields (attributes or unique
/// sub-elements, including the `id` pseudo-attribute) and its set-valued
/// attributes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Element {
    /// Single-valued fields and their values.
    pub single: BTreeMap<Field, u32>,
    /// Set-valued attributes and their value sets.
    pub sets: BTreeMap<Name, BTreeSet<u32>>,
}

impl Element {
    /// The element's ID value (the `id` pseudo-attribute), if any.
    pub fn id(&self) -> Option<u32> {
        self.single.get(&id_field()).copied()
    }

    /// Sets the ID value.
    pub fn set_id(&mut self, v: u32) {
        self.single.insert(id_field(), v);
    }

    /// The tuple of values over `fields`; `None` if any is undefined.
    pub fn tuple(&self, fields: &[Field]) -> Option<Vec<u32>> {
        fields.iter().map(|f| self.single.get(f).copied()).collect()
    }
}

/// A finite flat instance: for each element type, its extent.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Instance {
    /// `ext(τ)` for each type.
    pub exts: BTreeMap<Name, Vec<Element>>,
}

impl Instance {
    /// An empty instance.
    pub fn new() -> Self {
        Instance::default()
    }

    /// The extent of `tau` (empty slice if absent).
    pub fn ext(&self, tau: &str) -> &[Element] {
        self.exts.get(tau).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Adds an element to `ext(tau)` and returns its index.
    pub fn push(&mut self, tau: impl Into<Name>, e: Element) -> usize {
        let v = self.exts.entry(tau.into()).or_default();
        v.push(e);
        v.len() - 1
    }

    /// Total number of elements across all extents.
    pub fn size(&self) -> usize {
        self.exts.values().map(Vec::len).sum()
    }

    /// Is `fields` a key of `tau` in this instance (no two distinct
    /// elements share a fully-defined tuple)?
    pub fn is_key(&self, tau: &Name, fields: &[Field]) -> bool {
        let ext = self.ext(tau);
        let mut seen: HashMap<Vec<u32>, usize> = HashMap::new();
        for (i, e) in ext.iter().enumerate() {
            if let Some(t) = e.tuple(fields) {
                if let Some(&j) = seen.get(&t) {
                    if j != i {
                        return false;
                    }
                }
                seen.insert(t, i);
            }
        }
        true
    }

    /// The set of `fields`-tuples over `ext(tau)` (skipping undefined).
    fn tuples(&self, tau: &Name, fields: &[Field]) -> HashSet<Vec<u32>> {
        self.ext(tau)
            .iter()
            .filter_map(|e| e.tuple(fields))
            .collect()
    }

    /// The set of ID values over `ext(tau)`.
    fn ids_of(&self, tau: &Name) -> HashSet<u32> {
        self.ext(tau).iter().filter_map(Element::id).collect()
    }

    /// Does the instance satisfy constraint `c`?
    ///
    /// Satisfaction follows the constraint *forms* of §2.2 (see the crate
    /// docs): foreign keys carry target keyness, inverse constraints carry
    /// their named keys, `L_id` references carry the partner's ID
    /// constraint, and `L_id` inverses additionally carry the `⊆_S`
    /// containments into the partners' IDs.
    pub fn satisfies(&self, c: &Constraint) -> bool {
        match c {
            Constraint::Key { tau, fields } => self.is_key(tau, fields),
            Constraint::ForeignKey {
                tau,
                fields,
                target,
                target_fields,
            } => {
                self.is_key(target, target_fields)
                    && self.ext(tau).iter().all(|e| match e.tuple(fields) {
                        Some(t) => self.tuples(target, target_fields).contains(&t),
                        None => false,
                    })
            }
            Constraint::SetForeignKey {
                tau,
                attr,
                target,
                target_field,
            } => {
                let targets = self.tuples(target, std::slice::from_ref(target_field));
                self.is_key(target, std::slice::from_ref(target_field))
                    && self.ext(tau).iter().all(|e| {
                        e.sets
                            .get(attr)
                            .is_some_and(|s| s.iter().all(|&v| targets.contains(&vec![v])))
                    })
            }
            Constraint::InverseU {
                tau,
                key,
                attr,
                target,
                target_key,
                target_attr,
            } => {
                self.is_key(tau, std::slice::from_ref(key))
                    && self.is_key(target, std::slice::from_ref(target_key))
                    && self.inverse_holds(tau, key, attr, target, target_key, target_attr)
                    && self.inverse_holds(target, target_key, target_attr, tau, key, attr)
            }
            Constraint::Id { tau } => self.id_holds(tau),
            Constraint::FkToId { tau, attr, target } => {
                let ids = self.ids_of(target);
                self.id_holds(target)
                    && self.ext(tau).iter().all(|e| {
                        e.single
                            .get(&Field::Attr(attr.clone()))
                            .is_some_and(|v| ids.contains(v))
                    })
            }
            Constraint::SetFkToId { tau, attr, target } => {
                let ids = self.ids_of(target);
                self.id_holds(target)
                    && self.ext(tau).iter().all(|e| {
                        e.sets
                            .get(attr)
                            .is_some_and(|s| s.iter().all(|v| ids.contains(v)))
                    })
            }
            Constraint::InverseId {
                tau,
                attr,
                target,
                target_attr,
            } => {
                self.satisfies(&Constraint::SetFkToId {
                    tau: tau.clone(),
                    attr: attr.clone(),
                    target: target.clone(),
                }) && self.satisfies(&Constraint::SetFkToId {
                    tau: target.clone(),
                    attr: target_attr.clone(),
                    target: tau.clone(),
                }) && self.id_inverse_holds(tau, attr, target, target_attr)
                    && self.id_inverse_holds(target, target_attr, tau, attr)
            }
        }
    }

    /// `τ.id →_id τ`: every `τ`-element has an ID value, and that value is
    /// held by no *other* element of any type.
    fn id_holds(&self, tau: &Name) -> bool {
        self.ext(tau).iter().all(|x| {
            let Some(xid) = x.id() else { return false };
            let mut holders = 0usize;
            for ext in self.exts.values() {
                holders += ext.iter().filter(|y| y.id() == Some(xid)).count();
            }
            holders == 1
        })
    }

    /// Does the instance satisfy every constraint of `sigma`?
    pub fn satisfies_all<'a, I: IntoIterator<Item = &'a Constraint>>(&self, sigma: I) -> bool {
        sigma.into_iter().all(|c| self.satisfies(c))
    }

    /// `∀x ∈ ext(τ) ∀y ∈ ext(τ') (x.key ∈ y.attr' → y.key' ∈ x.attr)`.
    fn inverse_holds(
        &self,
        tau: &Name,
        key: &Field,
        attr: &Name,
        target: &Name,
        target_key: &Field,
        target_attr: &Name,
    ) -> bool {
        self.ext(tau).iter().all(|x| {
            let Some(&xk) = x.single.get(key) else {
                return true;
            };
            self.ext(target).iter().all(|y| {
                let refers = y.sets.get(target_attr).is_some_and(|s| s.contains(&xk));
                if !refers {
                    return true;
                }
                match y.single.get(target_key) {
                    Some(&yk) => x.sets.get(attr).is_some_and(|s| s.contains(&yk)),
                    None => false,
                }
            })
        })
    }

    /// `∀x ∈ ext(τ) ∀y ∈ ext(τ') (x.id ∈ y.attr' → y.id ∈ x.attr)`.
    fn id_inverse_holds(&self, tau: &Name, attr: &Name, target: &Name, target_attr: &Name) -> bool {
        self.inverse_holds(tau, &id_field(), attr, target, &id_field(), target_attr)
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (tau, ext) in &self.exts {
            writeln!(f, "ext({tau}):")?;
            for (i, e) in ext.iter().enumerate() {
                write!(f, "  #{i}")?;
                for (k, v) in &e.single {
                    write!(f, " {k}={v}")?;
                }
                for (k, s) in &e.sets {
                    write!(f, " @{k}={{")?;
                    for (j, v) in s.iter().enumerate() {
                        if j > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{v}")?;
                    }
                    write!(f, "}}")?;
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

/// `(type, single-valued field)` and `(type, set-valued attribute)` pairs.
type FieldsRead<'c> = (Vec<(&'c Name, Field)>, Vec<(&'c Name, &'c Name)>);

/// The single-valued fields and the set-valued attributes `c` reads, with
/// their types; an ID is the `id` pseudo-attribute.
fn fields_read(c: &Constraint) -> FieldsRead<'_> {
    fn on<'c>(tau: &'c Name, fields: &'c [Field]) -> impl Iterator<Item = (&'c Name, Field)> {
        fields.iter().map(move |f| (tau, f.clone()))
    }
    match c {
        Constraint::Key { tau, fields } => (on(tau, fields).collect(), vec![]),
        Constraint::ForeignKey {
            tau,
            fields,
            target,
            target_fields,
        } => (
            on(tau, fields).chain(on(target, target_fields)).collect(),
            vec![],
        ),
        Constraint::SetForeignKey {
            tau,
            attr,
            target,
            target_field,
        } => (vec![(target, target_field.clone())], vec![(tau, attr)]),
        Constraint::InverseU {
            tau,
            key,
            attr,
            target,
            target_key,
            target_attr,
        } => (
            vec![(tau, key.clone()), (target, target_key.clone())],
            vec![(tau, attr), (target, target_attr)],
        ),
        Constraint::Id { tau } => (vec![(tau, id_field())], vec![]),
        Constraint::FkToId { tau, attr, target } => (
            vec![(tau, Field::Attr(attr.clone())), (target, id_field())],
            vec![],
        ),
        Constraint::SetFkToId { tau, attr, target } => {
            (vec![(target, id_field())], vec![(tau, attr)])
        }
        Constraint::InverseId {
            tau,
            attr,
            target,
            target_attr,
        } => (
            vec![(tau, id_field()), (target, id_field())],
            vec![(tau, attr), (target, target_attr)],
        ),
    }
}

/// Rebuilds a real data tree (plus a generated DTD structure) realizing an
/// instance: a fresh root whose content model is `(τ₁*, …, τₙ*)`, one child
/// per element, attributes/sub-elements per the instance's fields. The
/// `id` pseudo-attribute becomes an `ID`-kind attribute named `id`, and
/// each single attribute that an `L_id` constraint of `sigma` uses as a
/// reference (`τ.l ⊆ τ'.id`) is declared `IDREF`, so the generated
/// structure accepts the Σ the instance was built for.
pub fn instance_to_tree(inst: &Instance, sigma: &[Constraint]) -> (DtdStructure, DataTree) {
    let root_name = "_root";
    let idrefs: BTreeSet<(&Name, &Name)> = sigma
        .iter()
        .filter_map(|c| match c {
            Constraint::FkToId { tau, attr, .. } => Some((tau, attr)),
            _ => None,
        })
        .collect();
    let mut builder = DtdStructure::builder(root_name);
    let mut sub_types: BTreeSet<Name> = BTreeSet::new();
    type Shape = (BTreeSet<Field>, BTreeSet<Name>);
    let mut shapes: BTreeMap<Name, Shape> = BTreeMap::new();
    for (tau, ext) in &inst.exts {
        let entry = shapes.entry(tau.clone()).or_default();
        for e in ext {
            entry.0.extend(e.single.keys().cloned());
            entry.1.extend(e.sets.keys().cloned());
        }
    }
    // Every type and field Σ reads is declared too, populated or not, so
    // that Σ loads on the generated structure.
    for c in sigma {
        let (singles, sets) = fields_read(c);
        for (tau, f) in singles {
            shapes.entry(tau.clone()).or_default().0.insert(f);
        }
        for (tau, l) in sets {
            shapes.entry(tau.clone()).or_default().1.insert(l.clone());
        }
    }
    for (singles, _) in shapes.values() {
        for f in singles {
            if let Field::Sub(e) = f {
                sub_types.insert(e.clone());
            }
        }
    }
    use xic_regex::ContentModel;
    let root_model = ContentModel::seq_all(
        shapes
            .keys()
            .map(|t| ContentModel::star(ContentModel::Elem(t.clone()))),
    );
    builder = builder.elem_model(root_name, root_model);
    for st in &sub_types {
        builder = builder.elem_model(st.clone(), ContentModel::S);
    }
    for (tau, (singles, sets)) in &shapes {
        let subs: Vec<&Name> = singles
            .iter()
            .filter_map(|f| match f {
                Field::Sub(e) => Some(e),
                Field::Attr(_) => None,
            })
            .collect();
        let model = ContentModel::seq_all(subs.iter().map(|e| ContentModel::Elem((*e).clone())));
        builder = builder.elem_model(tau.clone(), model);
        for f in singles {
            if let Field::Attr(l) = f {
                if l.as_str() == "id" {
                    builder = builder.id_attr(tau.clone(), l.clone());
                } else if idrefs.contains(&(tau, l)) {
                    builder = builder.idref_attr(tau.clone(), l.clone());
                } else {
                    builder = builder.attr(tau.clone(), l.clone(), "S");
                }
            }
        }
        for l in sets {
            builder = builder.idrefs_attr(tau.clone(), l.clone());
        }
    }
    let structure = builder.build().expect("generated structure is well-formed");

    let mut tb = TreeBuilder::new();
    let root = tb.node(root_name);
    let mut undef = 0u32;
    for (tau, ext) in &inst.exts {
        let (singles, sets) = &shapes[tau];
        for e in ext {
            let n = tb.child_node(root, tau.clone()).expect("fresh node");
            for f in singles {
                // Definition 2.4 requires declared attributes present on
                // every element; absent fields get fresh unique values.
                let value = match e.single.get(f) {
                    Some(v) => format!("v{v}"),
                    None => {
                        undef += 1;
                        format!("undef{undef}")
                    }
                };
                match f {
                    Field::Attr(l) => {
                        tb.attr(n, l.clone(), AttrValue::single(value))
                            .expect("fresh attr");
                    }
                    Field::Sub(se) => {
                        tb.leaf(n, se.clone(), value).expect("fresh leaf");
                    }
                }
            }
            for l in sets {
                let vals: Vec<String> = e
                    .sets
                    .get(l)
                    .map(|s| s.iter().map(|v| format!("v{v}")).collect())
                    .unwrap_or_default();
                tb.attr(n, l.clone(), AttrValue::set(vals))
                    .expect("fresh attr");
            }
        }
    }
    let tree = tb.finish(root).expect("tree is well-formed");
    (structure, tree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(l: &str) -> Field {
        Field::attr(l)
    }

    fn elem_single(pairs: &[(&str, u32)]) -> Element {
        Element {
            single: pairs.iter().map(|(l, v)| (f(l), *v)).collect(),
            ..Default::default()
        }
    }

    fn with_id(id: u32) -> Element {
        let mut e = Element::default();
        e.set_id(id);
        e
    }

    #[test]
    fn key_satisfaction() {
        let mut i = Instance::new();
        i.push("a", elem_single(&[("x", 1), ("y", 1)]));
        i.push("a", elem_single(&[("x", 2), ("y", 1)]));
        assert!(i.satisfies(&Constraint::unary_key("a", "x")));
        assert!(!i.satisfies(&Constraint::unary_key("a", "y")));
        assert!(i.satisfies(&Constraint::key("a", ["x", "y"])));
        assert!(i.satisfies(&Constraint::unary_key("zzz", "x")));
    }

    #[test]
    fn fk_carries_target_keyness() {
        let mut i = Instance::new();
        i.push("a", elem_single(&[("x", 1)]));
        i.push("b", elem_single(&[("y", 1)]));
        i.push("b", elem_single(&[("y", 1)]));
        assert!(!i.satisfies(&Constraint::unary_fk("a", "x", "b", "y")));
        let mut j = Instance::new();
        j.push("a", elem_single(&[("x", 1)]));
        j.push("b", elem_single(&[("y", 1)]));
        j.push("b", elem_single(&[("y", 2)]));
        assert!(j.satisfies(&Constraint::unary_fk("a", "x", "b", "y")));
        let mut k = Instance::new();
        k.push("a", elem_single(&[("x", 9)]));
        k.push("b", elem_single(&[("y", 1)]));
        assert!(!k.satisfies(&Constraint::unary_fk("a", "x", "b", "y")));
    }

    #[test]
    fn set_fk_and_id_constraints() {
        let mut i = Instance::new();
        let mut e = Element::default();
        e.sets.insert(Name::new("to"), BTreeSet::from([1, 2]));
        i.push("r", e);
        i.push("t", elem_single(&[("k", 1)]));
        i.push("t", elem_single(&[("k", 2)]));
        assert!(i.satisfies(&Constraint::set_fk("r", "to", "t", "k")));

        let mut j = Instance::new();
        j.push("p", with_id(1));
        j.push("q", with_id(1));
        // Cross-type collision violates →_id.
        assert!(!j.satisfies(&Constraint::Id { tau: "p".into() }));
        let mut k = Instance::new();
        k.push("p", with_id(1));
        k.push("q", with_id(2));
        assert!(k.satisfies(&Constraint::Id { tau: "p".into() }));
        // Duplicates *not involving* p's values leave Id(p) intact.
        let mut l = Instance::new();
        l.push("p", with_id(1));
        l.push("q", with_id(7));
        l.push("q", with_id(7));
        assert!(l.satisfies(&Constraint::Id { tau: "p".into() }));
        assert!(!l.satisfies(&Constraint::Id { tau: "q".into() }));
        // An element without an ID fails its type's Id constraint.
        let mut m = Instance::new();
        m.push("p", Element::default());
        assert!(!m.satisfies(&Constraint::Id { tau: "p".into() }));
    }

    #[test]
    fn inverse_id_semantics() {
        let mut i = Instance::new();
        let mut p = with_id(1);
        p.sets.insert(Name::new("in_dept"), BTreeSet::from([10]));
        i.push("person", p);
        let mut d = with_id(10);
        d.sets.insert(Name::new("has_staff"), BTreeSet::from([1]));
        i.push("dept", d);
        let inv = Constraint::InverseId {
            tau: "dept".into(),
            attr: "has_staff".into(),
            target: "person".into(),
            target_attr: "in_dept".into(),
        };
        assert!(i.satisfies(&inv));

        let mut j = i.clone();
        j.exts.get_mut("person").unwrap()[0]
            .sets
            .insert(Name::new("in_dept"), BTreeSet::new());
        assert!(!j.satisfies(&inv));

        let mut k = i.clone();
        k.exts.get_mut("dept").unwrap()[0]
            .sets
            .insert(Name::new("has_staff"), BTreeSet::from([1, 99]));
        assert!(!k.satisfies(&inv));
    }

    #[test]
    fn inverse_u_semantics() {
        let mut i = Instance::new();
        let mut a = elem_single(&[("k", 1)]);
        a.sets.insert(Name::new("r"), BTreeSet::from([5]));
        i.push("a", a);
        let mut b = elem_single(&[("k2", 5)]);
        b.sets.insert(Name::new("r2"), BTreeSet::from([1]));
        i.push("b", b);
        let inv = Constraint::InverseU {
            tau: "a".into(),
            key: f("k"),
            attr: "r".into(),
            target: "b".into(),
            target_key: f("k2"),
            target_attr: "r2".into(),
        };
        assert!(i.satisfies(&inv));
        i.exts.get_mut("b").unwrap()[0]
            .sets
            .insert(Name::new("r2"), BTreeSet::new());
        assert!(!i.satisfies(&inv));
    }

    #[test]
    fn instance_to_tree_realizes_extents() {
        let mut i = Instance::new();
        let mut p = with_id(1);
        p.single.insert(Field::sub("name"), 7);
        p.sets.insert(Name::new("in_dept"), BTreeSet::from([10]));
        i.push("person", p);
        i.push("dept", with_id(10));
        let (s, t) = instance_to_tree(&i, &[]);
        assert!(s.has_element("person"));
        assert_eq!(s.id_attr("person").unwrap().as_str(), "id");
        assert_eq!(t.ext("person").count(), 1);
        assert_eq!(t.ext("dept").count(), 1);
        let pn = t.ext("person").next().unwrap();
        assert_eq!(t.attr(pn, "id").unwrap().as_single().unwrap(), "v1");
        assert!(t.attr(pn, "in_dept").unwrap().contains("v10"));
        let name_child = t
            .child_nodes(pn)
            .find(|&c| t.label(c).as_str() == "name")
            .unwrap();
        assert_eq!(t.text(name_child), "v7");
    }

    #[test]
    fn instance_to_tree_declares_what_sigma_reads() {
        // Σ reads `dept` and `person.@name`, which the instance leaves
        // empty and undefined: the structure still declares them, so that
        // Σ loads on it.
        let mut i = Instance::new();
        i.push("person", with_id(1));
        let sigma = [
            Constraint::unary_key("person", "name"),
            Constraint::SetFkToId {
                tau: "person".into(),
                attr: "in_dept".into(),
                target: "dept".into(),
            },
        ];
        let (s, t) = instance_to_tree(&i, &sigma);
        assert!(s.has_element("dept"));
        assert_eq!(s.id_attr("dept").unwrap().as_str(), "id");
        assert!(s.attr_type("person", "name").is_some());
        let pn = t.ext("person").next().unwrap();
        assert!(t.attr(pn, "name").is_some_and(|v| v.is_singleton()));
        assert!(t.attr(pn, "in_dept").is_some_and(|v| v.is_empty()));
        assert_eq!(t.ext("dept").count(), 0);
    }

    #[test]
    fn display_lists_extents() {
        let mut i = Instance::new();
        let mut e = elem_single(&[("x", 1)]);
        e.set_id(3);
        e.sets.insert(Name::new("s"), BTreeSet::from([1, 2]));
        i.push("a", e);
        let out = i.to_string();
        assert!(out.contains("ext(a):"));
        assert!(out.contains("@id=3"));
        assert!(out.contains("@s={1,2}"));
    }
}
