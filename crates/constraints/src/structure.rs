//! DTD structures `S = (E, P, R, kind, r)` (Definition 2.2).

use std::collections::BTreeMap;
use std::fmt;

use xic_model::Name;
use xic_regex::ContentModel;

/// Attribute type definition `β`: `S` (single-valued) or `S*` (set-valued).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AttrType {
    /// `R(τ, l) = S` — a single atomic value.
    Single,
    /// `R(τ, l) = S*` — a set of atomic values (XML `IDREFS`-style).
    SetValued,
}

impl fmt::Display for AttrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrType::Single => f.write_str("S"),
            AttrType::SetValued => f.write_str("S*"),
        }
    }
}

/// The `kind` annotation of an attribute: `ID` or `IDREF`.
///
/// `kind` is a *partial* function; most attributes have no kind. Note that
/// per the paper, `kind` is ignored by `L` and `L_u` but gives `L_id` its
/// object-identity semantics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AttrKind {
    /// The (unique, single-valued) object-identity attribute of the type.
    Id,
    /// A reference attribute (XML `IDREF`/`IDREFS`).
    IdRef,
}

impl fmt::Display for AttrKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrKind::Id => f.write_str("ID"),
            AttrKind::IdRef => f.write_str("IDREF"),
        }
    }
}

/// Per-element-type attribute description: type and optional kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttrDecl {
    pub(crate) ty: AttrType,
    pub(crate) kind: Option<AttrKind>,
}

/// Per-element-type description: content model and attributes.
#[derive(Clone, Debug)]
struct ElemDecl {
    content: ContentModel,
    attrs: BTreeMap<Name, AttrDecl>,
}

/// Violations of Definition 2.2's side conditions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StructureError {
    /// The root type `r` is not in `E`.
    UnknownRoot(Name),
    /// A content model mentions an element type not in `E`.
    UnknownContentType {
        /// The element whose definition is at fault.
        elem: Name,
        /// The undeclared type mentioned.
        mentions: Name,
    },
    /// An element declares two `ID`-kind attributes ("there exists at most
    /// one attribute l₀ such that kind(τ, l₀) = ID").
    MultipleIdAttributes(Name),
    /// An `ID` attribute is set-valued ("l₀ must be single-valued").
    SetValuedId {
        /// The element type.
        elem: Name,
        /// The offending attribute.
        attr: Name,
    },
    /// The same element type was declared twice.
    DuplicateElement(Name),
    /// The same attribute was declared twice for one element type.
    DuplicateAttribute {
        /// The element type.
        elem: Name,
        /// The attribute declared twice.
        attr: Name,
    },
    /// An attribute was declared for an element type not in `E`.
    AttributeOnUnknownElement {
        /// The undeclared element type.
        elem: Name,
        /// The attribute.
        attr: Name,
    },
}

impl fmt::Display for StructureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StructureError::UnknownRoot(r) => write!(f, "root type {r} is not declared"),
            StructureError::UnknownContentType { elem, mentions } => {
                write!(f, "P({elem}) mentions undeclared element type {mentions}")
            }
            StructureError::MultipleIdAttributes(e) => {
                write!(f, "element type {e} declares more than one ID attribute")
            }
            StructureError::SetValuedId { elem, attr } => {
                write!(f, "ID attribute {elem}.{attr} must be single-valued")
            }
            StructureError::DuplicateElement(e) => {
                write!(f, "element type {e} declared twice")
            }
            StructureError::DuplicateAttribute { elem, attr } => {
                write!(f, "attribute {elem}.{attr} declared twice")
            }
            StructureError::AttributeOnUnknownElement { elem, attr } => {
                write!(
                    f,
                    "attribute {attr} declared on undeclared element type {elem}"
                )
            }
        }
    }
}

impl std::error::Error for StructureError {}

/// A DTD structure `S = (E, P, R, kind, r)` (Definition 2.2).
///
/// Built with [`DtdStructure::builder`]; construction enforces the paper's
/// side conditions (kind ⇒ declared attribute; at most one single-valued
/// `ID` attribute per type; root declared; content models closed over `E`).
///
/// ```
/// use xic_constraints::DtdStructure;
/// let s = DtdStructure::builder("book")
///     .elem("book", "(entry, author*, section*, ref)")
///     .elem("entry", "(title, publisher)")
///     .elem("author", "S").elem("title", "S").elem("publisher", "S")
///     .elem("text", "S")
///     .elem("section", "(title, (text + section)*)")
///     .elem("ref", "EMPTY")
///     .attr("entry", "isbn", "S")
///     .attr("section", "sid", "S")
///     .attr("ref", "to", "S*")
///     .build()
///     .unwrap();
/// assert_eq!(s.root().as_str(), "book");
/// assert!(s.attr_type("ref", "to").is_some());
/// ```
#[derive(Clone, Debug)]
pub struct DtdStructure {
    elems: BTreeMap<Name, ElemDecl>,
    root: Name,
}

impl DtdStructure {
    /// Starts a builder with the given root element type.
    pub fn builder(root: impl Into<Name>) -> DtdStructureBuilder {
        DtdStructureBuilder {
            root: root.into(),
            elems: Vec::new(),
            attrs: Vec::new(),
        }
    }

    /// The root element type `r`.
    pub fn root(&self) -> &Name {
        &self.root
    }

    /// The element types `E`, in name order.
    pub fn element_types(&self) -> impl Iterator<Item = &Name> {
        self.elems.keys()
    }

    /// Number of element types `|E|`.
    pub fn num_element_types(&self) -> usize {
        self.elems.len()
    }

    /// True iff `τ ∈ E`.
    pub fn has_element(&self, tau: &str) -> bool {
        self.elems.contains_key(tau)
    }

    /// `P(τ)` — the content model of `τ`, if declared.
    pub fn content_model(&self, tau: &str) -> Option<&ContentModel> {
        self.elems.get(tau).map(|e| &e.content)
    }

    /// `Att(τ)` — the declared attributes of `τ`, in name order.
    pub fn attributes(&self, tau: &str) -> impl Iterator<Item = (&Name, AttrType)> {
        self.elems
            .get(tau)
            .into_iter()
            .flat_map(|e| e.attrs.iter().map(|(n, d)| (n, d.ty)))
    }

    /// `R(τ, l)` — the attribute type, if declared.
    pub fn attr_type(&self, tau: &str, l: &str) -> Option<AttrType> {
        self.elems.get(tau)?.attrs.get(l).map(|d| d.ty)
    }

    /// `kind(τ, l)` — the ID/IDREF kind, if any.
    pub fn attr_kind(&self, tau: &str, l: &str) -> Option<AttrKind> {
        self.elems.get(tau)?.attrs.get(l)?.kind
    }

    /// The ID attribute `l₀` of `τ` (`τ.id` denotes `τ.l₀`), if one exists.
    pub fn id_attr(&self, tau: &str) -> Option<&Name> {
        self.elems.get(tau)?.attrs.iter().find_map(|(n, d)| {
            if d.kind == Some(AttrKind::Id) {
                Some(n)
            } else {
                None
            }
        })
    }

    /// True iff `l` is a declared single-valued attribute of `τ`.
    pub fn is_single_valued(&self, tau: &str, l: &str) -> bool {
        self.attr_type(tau, l) == Some(AttrType::Single)
    }

    /// True iff `l` is a declared set-valued attribute of `τ`.
    pub fn is_set_valued(&self, tau: &str, l: &str) -> bool {
        self.attr_type(tau, l) == Some(AttrType::SetValued)
    }

    /// §3.4: true iff `e` is a *unique sub-element* of `τ`, i.e. occurs
    /// exactly once in every word of `L(P(τ))`.
    pub fn is_unique_subelement(&self, tau: &str, e: &Name) -> bool {
        self.content_model(tau)
            .is_some_and(|m| m.is_unique_subelement(e))
    }
}

/// Builder for [`DtdStructure`].
pub struct DtdStructureBuilder {
    root: Name,
    elems: Vec<(Name, ContentModel)>,
    attrs: Vec<(Name, Name, AttrType, Option<AttrKind>)>,
}

impl DtdStructureBuilder {
    /// Declares element type `name` with the given content-model source
    /// (parsed with [`ContentModel::parse`]).
    ///
    /// # Panics
    /// Panics if the content model does not parse; use
    /// [`DtdStructureBuilder::elem_model`] for fallible construction.
    pub fn elem(self, name: impl Into<Name>, content: &str) -> Self {
        let m = ContentModel::parse(content)
            .unwrap_or_else(|e| panic!("invalid content model {content:?}: {e}"));
        self.elem_model(name, m)
    }

    /// Declares element type `name` with an already-built content model.
    pub fn elem_model(mut self, name: impl Into<Name>, content: ContentModel) -> Self {
        self.elems.push((name.into(), content));
        self
    }

    /// Declares attribute `l` on element `tau` with type `"S"` or `"S*"`.
    ///
    /// # Panics
    /// Panics on any other type string.
    pub fn attr(self, tau: impl Into<Name>, l: impl Into<Name>, ty: &str) -> Self {
        let ty = match ty {
            "S" => AttrType::Single,
            "S*" => AttrType::SetValued,
            other => panic!("attribute type must be \"S\" or \"S*\", got {other:?}"),
        };
        self.attr_full(tau, l, ty, None)
    }

    /// Declares an `ID`-kind attribute (single-valued by definition).
    pub fn id_attr(self, tau: impl Into<Name>, l: impl Into<Name>) -> Self {
        self.attr_full(tau, l, AttrType::Single, Some(AttrKind::Id))
    }

    /// Declares a single-valued `IDREF` attribute.
    pub fn idref_attr(self, tau: impl Into<Name>, l: impl Into<Name>) -> Self {
        self.attr_full(tau, l, AttrType::Single, Some(AttrKind::IdRef))
    }

    /// Declares a set-valued `IDREFS` attribute.
    pub fn idrefs_attr(self, tau: impl Into<Name>, l: impl Into<Name>) -> Self {
        self.attr_full(tau, l, AttrType::SetValued, Some(AttrKind::IdRef))
    }

    /// Declares an attribute with explicit type and kind.
    pub fn attr_full(
        mut self,
        tau: impl Into<Name>,
        l: impl Into<Name>,
        ty: AttrType,
        kind: Option<AttrKind>,
    ) -> Self {
        self.attrs.push((tau.into(), l.into(), ty, kind));
        self
    }

    /// Finishes the structure, verifying Definition 2.2's side conditions.
    pub fn build(self) -> Result<DtdStructure, StructureError> {
        let mut elems: BTreeMap<Name, ElemDecl> = BTreeMap::new();
        for (name, content) in self.elems {
            if elems.contains_key(&name) {
                return Err(StructureError::DuplicateElement(name));
            }
            elems.insert(
                name,
                ElemDecl {
                    content,
                    attrs: BTreeMap::new(),
                },
            );
        }
        for (tau, l, ty, kind) in self.attrs {
            let Some(decl) = elems.get_mut(&tau) else {
                return Err(StructureError::AttributeOnUnknownElement { elem: tau, attr: l });
            };
            if kind == Some(AttrKind::Id) && ty == AttrType::SetValued {
                return Err(StructureError::SetValuedId { elem: tau, attr: l });
            }
            if decl.attrs.contains_key(&l) {
                return Err(StructureError::DuplicateAttribute { elem: tau, attr: l });
            }
            decl.attrs.insert(l, AttrDecl { ty, kind });
        }
        // At most one ID attribute per type.
        for (tau, decl) in &elems {
            let ids = decl
                .attrs
                .values()
                .filter(|d| d.kind == Some(AttrKind::Id))
                .count();
            if ids > 1 {
                return Err(StructureError::MultipleIdAttributes(tau.clone()));
            }
        }
        // Content models closed over E.
        for (tau, decl) in &elems {
            for t in decl.content.element_types() {
                if !elems.contains_key(&t) {
                    return Err(StructureError::UnknownContentType {
                        elem: tau.clone(),
                        mentions: t,
                    });
                }
            }
        }
        if !elems.contains_key(&self.root) {
            return Err(StructureError::UnknownRoot(self.root));
        }
        Ok(DtdStructure {
            elems,
            root: self.root,
        })
    }
}

impl fmt::Display for DtdStructure {
    /// Prints the structure in the paper's §2.4 notation.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "r = {}", self.root)?;
        for (tau, decl) in &self.elems {
            writeln!(f, "P({tau}) = {}", decl.content)?;
        }
        for (tau, decl) in &self.elems {
            for (l, d) in &decl.attrs {
                writeln!(f, "R({tau}, {l}) = {}", d.ty)?;
            }
        }
        for (tau, decl) in &self.elems {
            for (l, d) in &decl.attrs {
                if let Some(k) = d.kind {
                    writeln!(f, "kind({tau}, {l}) = {k}")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn book() -> DtdStructure {
        DtdStructure::builder("book")
            .elem("book", "(entry, author*, section*, ref)")
            .elem("entry", "(title, publisher)")
            .elem("author", "S")
            .elem("title", "S")
            .elem("publisher", "S")
            .elem("text", "S")
            .elem("section", "(title, (text + section)*)")
            .elem("ref", "EMPTY")
            .attr("entry", "isbn", "S")
            .attr("section", "sid", "S")
            .attr("ref", "to", "S*")
            .build()
            .unwrap()
    }

    #[test]
    fn book_structure_accessors() {
        let s = book();
        assert_eq!(s.root().as_str(), "book");
        assert_eq!(s.num_element_types(), 8);
        assert_eq!(s.attr_type("entry", "isbn"), Some(AttrType::Single));
        assert_eq!(s.attr_type("ref", "to"), Some(AttrType::SetValued));
        assert_eq!(s.attr_type("entry", "nope"), None);
        assert!(s.is_single_valued("section", "sid"));
        assert!(s.is_set_valued("ref", "to"));
        assert!(!s.is_set_valued("entry", "isbn"));
        assert_eq!(s.attr_kind("entry", "isbn"), None);
        assert_eq!(s.id_attr("entry"), None);
    }

    #[test]
    fn unique_subelement_on_structure() {
        let s = book();
        assert!(s.is_unique_subelement("book", &Name::new("entry")));
        assert!(s.is_unique_subelement("book", &Name::new("ref")));
        assert!(!s.is_unique_subelement("book", &Name::new("author")));
        assert!(s.is_unique_subelement("section", &Name::new("title")));
        assert!(!s.is_unique_subelement("section", &Name::new("section")));
        assert!(!s.is_unique_subelement("missing", &Name::new("title")));
    }

    #[test]
    fn id_kind_machinery() {
        let s = DtdStructure::builder("db")
            .elem("db", "(person*, dept*)")
            .elem("person", "(name, address)")
            .elem("name", "S")
            .elem("address", "S")
            .elem("dname", "S")
            .elem("dept", "dname")
            .id_attr("person", "oid")
            .idrefs_attr("person", "in_dept")
            .id_attr("dept", "oid")
            .idref_attr("dept", "manager")
            .idrefs_attr("dept", "has_staff")
            .build()
            .unwrap();
        assert_eq!(s.id_attr("person"), Some(&Name::new("oid")));
        assert_eq!(s.attr_kind("dept", "manager"), Some(AttrKind::IdRef));
        assert_eq!(s.attr_kind("dept", "has_staff"), Some(AttrKind::IdRef));
        assert_eq!(s.attr_type("dept", "has_staff"), Some(AttrType::SetValued));
        assert_eq!(s.attr_type("dept", "manager"), Some(AttrType::Single));
    }

    #[test]
    fn rejects_two_ids() {
        let err = DtdStructure::builder("a")
            .elem("a", "S")
            .id_attr("a", "x")
            .id_attr("a", "y")
            .build()
            .unwrap_err();
        assert_eq!(err, StructureError::MultipleIdAttributes(Name::new("a")));
    }

    #[test]
    fn rejects_set_valued_id() {
        let err = DtdStructure::builder("a")
            .elem("a", "S")
            .attr_full("a", "x", AttrType::SetValued, Some(AttrKind::Id))
            .build()
            .unwrap_err();
        assert!(matches!(err, StructureError::SetValuedId { .. }));
    }

    #[test]
    fn rejects_unknown_root_and_types() {
        let err = DtdStructure::builder("nope")
            .elem("a", "S")
            .build()
            .unwrap_err();
        assert_eq!(err, StructureError::UnknownRoot(Name::new("nope")));
        let err = DtdStructure::builder("a")
            .elem("a", "b")
            .build()
            .unwrap_err();
        assert!(matches!(err, StructureError::UnknownContentType { .. }));
    }

    #[test]
    fn rejects_duplicates() {
        let err = DtdStructure::builder("a")
            .elem("a", "S")
            .elem("a", "S")
            .build()
            .unwrap_err();
        assert_eq!(err, StructureError::DuplicateElement(Name::new("a")));
        let err = DtdStructure::builder("a")
            .elem("a", "S")
            .attr("a", "x", "S")
            .attr("a", "x", "S*")
            .build()
            .unwrap_err();
        assert!(matches!(err, StructureError::DuplicateAttribute { .. }));
        let err = DtdStructure::builder("a")
            .elem("a", "S")
            .attr("b", "x", "S")
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            StructureError::AttributeOnUnknownElement { .. }
        ));
    }

    #[test]
    fn display_matches_paper_notation() {
        let s = book();
        let out = s.to_string();
        assert!(out.contains("r = book"));
        assert!(out.contains("P(book) = entry, author*, section*, ref"));
        assert!(out.contains("R(ref, to) = S*"));
        assert!(!out.contains("kind("));
    }
}
