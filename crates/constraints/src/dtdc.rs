//! DTDs with constraints: `DTD^C = (S, Σ)` (Definition 2.3) and the
//! well-formedness of `Σ` against `S`.

use std::fmt;

use xic_model::Name;

use crate::constraint::{Constraint, Field, Language};
use crate::structure::{AttrKind, DtdStructure};

/// Why a constraint is not well-formed against a structure / constraint set.
///
/// Fields: `constraint` is the offending constraint's printed form; `tau` /
/// `target` the element type at fault; `attr` / `sub` / `key` the field.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum WfError {
    /// A constraint mentions an element type not in `E`.
    UnknownElementType { constraint: String, tau: Name },
    /// A field names an attribute that is not declared.
    UnknownAttribute {
        constraint: String,
        tau: Name,
        attr: Name,
    },
    /// A key/foreign-key field must be single-valued but is set-valued.
    SetValuedField {
        constraint: String,
        tau: Name,
        attr: Name,
    },
    /// A `⊆_S`/`⇌` attribute must be set-valued but is single-valued.
    NotSetValued {
        constraint: String,
        tau: Name,
        attr: Name,
    },
    /// A sub-element field is not a *unique sub-element* (§3.4).
    NotUniqueSubelement {
        constraint: String,
        tau: Name,
        sub: Name,
    },
    /// A foreign key's target sequence is not a declared key of the target
    /// type ("Y is the key of τ'").
    TargetNotKey { constraint: String, target: Name },
    /// An `L_id` reference requires `τ'.id →_id τ'` in `Σ`.
    TargetNotId { constraint: String, target: Name },
    /// An `L_id` form requires the element type to declare an `ID`
    /// attribute.
    NoIdAttribute { constraint: String, tau: Name },
    /// An `L_id` reference attribute must have kind `IDREF`.
    NotIdRef {
        constraint: String,
        tau: Name,
        attr: Name,
    },
    /// An inverse constraint names a key that is not declared as a key in
    /// `Σ`.
    NamedKeyNotKey {
        constraint: String,
        tau: Name,
        key: String,
    },
    /// Foreign-key sides have different lengths.
    ArityMismatch { constraint: String },
    /// Empty key or foreign-key field list.
    EmptyFields { constraint: String },
    /// The constraint form is not in the declared language.
    WrongLanguage {
        constraint: String,
        language: Language,
    },
}

impl fmt::Display for WfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WfError::UnknownElementType { constraint, tau } => {
                write!(f, "{constraint}: unknown element type {tau}")
            }
            WfError::UnknownAttribute {
                constraint,
                tau,
                attr,
            } => {
                write!(f, "{constraint}: {tau} has no attribute {attr}")
            }
            WfError::SetValuedField {
                constraint,
                tau,
                attr,
            } => {
                write!(f, "{constraint}: {tau}.{attr} is set-valued; keys and foreign-key components must be single-valued")
            }
            WfError::NotSetValued {
                constraint,
                tau,
                attr,
            } => {
                write!(f, "{constraint}: {tau}.{attr} must be set-valued")
            }
            WfError::NotUniqueSubelement {
                constraint,
                tau,
                sub,
            } => {
                write!(
                    f,
                    "{constraint}: {sub} is not a unique sub-element of {tau} (§3.4)"
                )
            }
            WfError::TargetNotKey { constraint, target } => {
                write!(
                    f,
                    "{constraint}: referenced fields are not a declared key of {target}"
                )
            }
            WfError::TargetNotId { constraint, target } => {
                write!(f, "{constraint}: requires {target}.id ->id {target} in Σ")
            }
            WfError::NoIdAttribute { constraint, tau } => {
                write!(f, "{constraint}: {tau} declares no ID attribute")
            }
            WfError::NotIdRef {
                constraint,
                tau,
                attr,
            } => {
                write!(f, "{constraint}: {tau}.{attr} must have kind IDREF")
            }
            WfError::NamedKeyNotKey {
                constraint,
                tau,
                key,
            } => {
                write!(
                    f,
                    "{constraint}: named key {tau}.{key} is not declared as a key in Σ"
                )
            }
            WfError::ArityMismatch { constraint } => {
                write!(f, "{constraint}: foreign-key sides differ in length")
            }
            WfError::EmptyFields { constraint } => {
                write!(f, "{constraint}: empty field list")
            }
            WfError::WrongLanguage {
                constraint,
                language,
            } => {
                write!(f, "{constraint}: form not admitted by language {language}")
            }
        }
    }
}

impl std::error::Error for WfError {}

/// A DTD with constraints, `D = (S, Σ)` (Definition 2.3).
///
/// The structure `S` and the constraint set `Σ`, together with the language
/// `Σ` is drawn from. [`DtdC::new`] checks full well-formedness: every
/// constraint is admitted by the language, mentions only declared element
/// types/attributes with the right valuedness and kinds, uses only unique
/// sub-elements as key components (§3.4), and every foreign key's target is
/// a declared key (resp. ID constraint) in `Σ`.
#[derive(Clone, Debug)]
pub struct DtdC {
    structure: DtdStructure,
    constraints: Vec<Constraint>,
    language: Language,
}

impl DtdC {
    /// Builds and checks a `DTD^C`.
    pub fn new(
        structure: DtdStructure,
        language: Language,
        constraints: Vec<Constraint>,
    ) -> Result<DtdC, Vec<WfError>> {
        let errors = check_set(&structure, language, &constraints);
        if errors.is_empty() {
            Ok(DtdC {
                structure,
                constraints,
                language,
            })
        } else {
            Err(errors)
        }
    }

    /// Builds a `DTD^C` **without** checking `Σ` against the structure.
    ///
    /// Intended for implication workflows, where `Σ ∪ {φ}` is an arbitrary
    /// finite constraint set and side conditions (e.g. "the foreign key's
    /// target is a key") are *derived* by the solvers rather than demanded
    /// up front. Validation of documents against an unchecked `DTD^C` is
    /// still well-defined (unknown names simply never match).
    pub fn new_unchecked(
        structure: DtdStructure,
        language: Language,
        constraints: Vec<Constraint>,
    ) -> DtdC {
        DtdC {
            structure,
            constraints,
            language,
        }
    }

    /// Builds a `DTD^C`, parsing `Σ` from the textual constraint syntax
    /// (one constraint per line; `#` comments).
    pub fn parse(
        structure: DtdStructure,
        language: Language,
        sigma_src: &str,
    ) -> Result<DtdC, String> {
        let sigma =
            Constraint::parse_set(sigma_src, &structure, language).map_err(|e| e.to_string())?;
        DtdC::new(structure, language, sigma).map_err(|es| {
            es.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ")
        })
    }

    /// The structural half `S`.
    pub fn structure(&self) -> &DtdStructure {
        &self.structure
    }

    /// The constraint set `Σ`.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The language `Σ` is drawn from.
    pub fn language(&self) -> Language {
        self.language
    }
}

impl fmt::Display for DtdC {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.structure)?;
        writeln!(f, "Σ ({}) =", self.language)?;
        for c in &self.constraints {
            writeln!(f, "  {c}")?;
        }
        Ok(())
    }
}

/// Checks one field as a key / foreign-key component of `tau`.
fn check_field(
    s: &DtdStructure,
    cname: &str,
    tau: &Name,
    field: &Field,
    errors: &mut Vec<WfError>,
) {
    match field {
        Field::Attr(l) => match s.attr_type(tau, l) {
            None => errors.push(WfError::UnknownAttribute {
                constraint: cname.to_string(),
                tau: tau.clone(),
                attr: l.clone(),
            }),
            Some(crate::structure::AttrType::SetValued) => errors.push(WfError::SetValuedField {
                constraint: cname.to_string(),
                tau: tau.clone(),
                attr: l.clone(),
            }),
            Some(crate::structure::AttrType::Single) => {}
        },
        Field::Sub(e) => {
            if !s.is_unique_subelement(tau, e) {
                errors.push(WfError::NotUniqueSubelement {
                    constraint: cname.to_string(),
                    tau: tau.clone(),
                    sub: e.clone(),
                });
            }
        }
    }
}

fn check_elem(s: &DtdStructure, cname: &str, tau: &Name, errors: &mut Vec<WfError>) -> bool {
    if s.has_element(tau) {
        true
    } else {
        errors.push(WfError::UnknownElementType {
            constraint: cname.to_string(),
            tau: tau.clone(),
        });
        false
    }
}

fn check_set_attr(
    s: &DtdStructure,
    cname: &str,
    tau: &Name,
    attr: &Name,
    require_idref: bool,
    errors: &mut Vec<WfError>,
) {
    match s.attr_type(tau, attr) {
        None => errors.push(WfError::UnknownAttribute {
            constraint: cname.to_string(),
            tau: tau.clone(),
            attr: attr.clone(),
        }),
        Some(crate::structure::AttrType::Single) => errors.push(WfError::NotSetValued {
            constraint: cname.to_string(),
            tau: tau.clone(),
            attr: attr.clone(),
        }),
        Some(crate::structure::AttrType::SetValued) => {
            if require_idref && s.attr_kind(tau, attr) != Some(AttrKind::IdRef) {
                errors.push(WfError::NotIdRef {
                    constraint: cname.to_string(),
                    tau: tau.clone(),
                    attr: attr.clone(),
                });
            }
        }
    }
}

/// Is `Key { target, fields = Y-as-set }` declared in `sigma`?
fn has_key(sigma: &[Constraint], target: &Name, fields: &[Field]) -> bool {
    let mut want: Vec<&Field> = fields.iter().collect();
    want.sort();
    want.dedup();
    sigma.iter().any(|c| match c {
        Constraint::Key { tau, fields: fs } if tau == target => {
            let mut have: Vec<&Field> = fs.iter().collect();
            have.sort();
            have == want
        }
        _ => false,
    })
}

fn has_id(sigma: &[Constraint], target: &Name) -> bool {
    sigma
        .iter()
        .any(|c| matches!(c, Constraint::Id { tau } if tau == target))
}

/// Checks a full constraint set against a structure for language `lang`.
///
/// Returns all violations (empty = well-formed).
pub(crate) fn check_set(s: &DtdStructure, lang: Language, sigma: &[Constraint]) -> Vec<WfError> {
    let mut errors = Vec::new();
    for c in sigma {
        let cname = c.to_string();
        if !c.in_language(lang) {
            errors.push(WfError::WrongLanguage {
                constraint: cname.clone(),
                language: lang,
            });
        }
        match c {
            Constraint::Key { tau, fields } => {
                if !check_elem(s, &cname, tau, &mut errors) {
                    continue;
                }
                if fields.is_empty() {
                    errors.push(WfError::EmptyFields {
                        constraint: cname.clone(),
                    });
                }
                for fl in fields {
                    check_field(s, &cname, tau, fl, &mut errors);
                }
            }
            Constraint::ForeignKey {
                tau,
                fields,
                target,
                target_fields,
            } => {
                let ok1 = check_elem(s, &cname, tau, &mut errors);
                let ok2 = check_elem(s, &cname, target, &mut errors);
                if !(ok1 && ok2) {
                    continue;
                }
                if fields.is_empty() {
                    errors.push(WfError::EmptyFields {
                        constraint: cname.clone(),
                    });
                }
                if fields.len() != target_fields.len() {
                    errors.push(WfError::ArityMismatch {
                        constraint: cname.clone(),
                    });
                }
                for fl in fields {
                    check_field(s, &cname, tau, fl, &mut errors);
                }
                for fl in target_fields {
                    check_field(s, &cname, target, fl, &mut errors);
                }
                if !has_key(sigma, target, target_fields) {
                    errors.push(WfError::TargetNotKey {
                        constraint: cname.clone(),
                        target: target.clone(),
                    });
                }
            }
            Constraint::SetForeignKey {
                tau,
                attr,
                target,
                target_field,
            } => {
                let ok1 = check_elem(s, &cname, tau, &mut errors);
                let ok2 = check_elem(s, &cname, target, &mut errors);
                if !(ok1 && ok2) {
                    continue;
                }
                check_set_attr(s, &cname, tau, attr, false, &mut errors);
                check_field(s, &cname, target, target_field, &mut errors);
                if !has_key(sigma, target, std::slice::from_ref(target_field)) {
                    errors.push(WfError::TargetNotKey {
                        constraint: cname.clone(),
                        target: target.clone(),
                    });
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
                let ok1 = check_elem(s, &cname, tau, &mut errors);
                let ok2 = check_elem(s, &cname, target, &mut errors);
                if !(ok1 && ok2) {
                    continue;
                }
                check_set_attr(s, &cname, tau, attr, false, &mut errors);
                check_set_attr(s, &cname, target, target_attr, false, &mut errors);
                check_field(s, &cname, tau, key, &mut errors);
                check_field(s, &cname, target, target_key, &mut errors);
                // "we need to specify explicitly which keys are involved":
                // the named fields must be declared keys in Σ.
                if !has_key(sigma, tau, std::slice::from_ref(key)) {
                    errors.push(WfError::NamedKeyNotKey {
                        constraint: cname.clone(),
                        tau: tau.clone(),
                        key: key.to_string(),
                    });
                }
                if !has_key(sigma, target, std::slice::from_ref(target_key)) {
                    errors.push(WfError::NamedKeyNotKey {
                        constraint: cname.clone(),
                        tau: target.clone(),
                        key: target_key.to_string(),
                    });
                }
            }
            Constraint::Id { tau } => {
                if check_elem(s, &cname, tau, &mut errors) && s.id_attr(tau).is_none() {
                    errors.push(WfError::NoIdAttribute {
                        constraint: cname.clone(),
                        tau: tau.clone(),
                    });
                }
            }
            Constraint::FkToId { tau, attr, target } => {
                let ok1 = check_elem(s, &cname, tau, &mut errors);
                let ok2 = check_elem(s, &cname, target, &mut errors);
                if !(ok1 && ok2) {
                    continue;
                }
                match s.attr_type(tau, attr) {
                    None => errors.push(WfError::UnknownAttribute {
                        constraint: cname.clone(),
                        tau: tau.clone(),
                        attr: attr.clone(),
                    }),
                    Some(crate::structure::AttrType::SetValued) => {
                        errors.push(WfError::SetValuedField {
                            constraint: cname.clone(),
                            tau: tau.clone(),
                            attr: attr.clone(),
                        })
                    }
                    Some(crate::structure::AttrType::Single) => {
                        if s.attr_kind(tau, attr) != Some(AttrKind::IdRef) {
                            errors.push(WfError::NotIdRef {
                                constraint: cname.clone(),
                                tau: tau.clone(),
                                attr: attr.clone(),
                            });
                        }
                    }
                }
                if s.id_attr(target).is_none() {
                    errors.push(WfError::NoIdAttribute {
                        constraint: cname.clone(),
                        tau: target.clone(),
                    });
                }
                if !has_id(sigma, target) {
                    errors.push(WfError::TargetNotId {
                        constraint: cname.clone(),
                        target: target.clone(),
                    });
                }
            }
            Constraint::SetFkToId { tau, attr, target } => {
                let ok1 = check_elem(s, &cname, tau, &mut errors);
                let ok2 = check_elem(s, &cname, target, &mut errors);
                if !(ok1 && ok2) {
                    continue;
                }
                check_set_attr(s, &cname, tau, attr, true, &mut errors);
                if s.id_attr(target).is_none() {
                    errors.push(WfError::NoIdAttribute {
                        constraint: cname.clone(),
                        tau: target.clone(),
                    });
                }
                if !has_id(sigma, target) {
                    errors.push(WfError::TargetNotId {
                        constraint: cname.clone(),
                        target: target.clone(),
                    });
                }
            }
            Constraint::InverseId {
                tau,
                attr,
                target,
                target_attr,
            } => {
                let ok1 = check_elem(s, &cname, tau, &mut errors);
                let ok2 = check_elem(s, &cname, target, &mut errors);
                if !(ok1 && ok2) {
                    continue;
                }
                check_set_attr(s, &cname, tau, attr, true, &mut errors);
                check_set_attr(s, &cname, target, target_attr, true, &mut errors);
                for t in [tau, target] {
                    if s.id_attr(t).is_none() {
                        errors.push(WfError::NoIdAttribute {
                            constraint: cname.clone(),
                            tau: t.clone(),
                        });
                    }
                    if !has_id(sigma, t) {
                        errors.push(WfError::TargetNotId {
                            constraint: cname.clone(),
                            target: t.clone(),
                        });
                    }
                }
            }
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;

    #[test]
    fn paper_examples_are_well_formed() {
        // These constructors run DtdC::new internally, so merely building
        // them exercises the full checker.
        let b = examples::book_dtdc();
        assert_eq!(b.language(), Language::Lu);
        assert_eq!(b.constraints().len(), 3);
        let c = examples::company_dtdc();
        assert_eq!(c.language(), Language::Lid);
        assert_eq!(c.constraints().len(), 8);
        let p = examples::publishers_dtdc();
        assert_eq!(p.language(), Language::L);
        assert_eq!(p.constraints().len(), 3);
    }

    #[test]
    fn rejects_fk_without_target_key() {
        let s = examples::book_structure();
        let err = DtdC::new(
            s,
            Language::Lu,
            vec![Constraint::set_fk("ref", "to", "entry", "isbn")],
        )
        .unwrap_err();
        assert!(
            err.iter()
                .any(|e| matches!(e, WfError::TargetNotKey { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn rejects_wrong_language() {
        let s = examples::publishers_structure();
        let err = DtdC::new(
            s,
            Language::Lu,
            vec![Constraint::key("publisher", ["pname", "country"])],
        )
        .unwrap_err();
        assert!(err
            .iter()
            .any(|e| matches!(e, WfError::WrongLanguage { .. })));
    }

    #[test]
    fn rejects_set_valued_key() {
        let s = examples::book_structure();
        let err = DtdC::new(s, Language::Lu, vec![Constraint::unary_key("ref", "to")]).unwrap_err();
        assert!(err
            .iter()
            .any(|e| matches!(e, WfError::SetValuedField { .. })));
    }

    #[test]
    fn rejects_non_unique_subelement_key() {
        let s = examples::book_structure();
        let err =
            DtdC::new(s, Language::Lu, vec![Constraint::sub_key("book", "author")]).unwrap_err();
        assert!(err
            .iter()
            .any(|e| matches!(e, WfError::NotUniqueSubelement { .. })));
    }

    #[test]
    fn accepts_unique_subelement_key() {
        let s = examples::book_structure();
        DtdC::new(s, Language::Lu, vec![Constraint::sub_key("book", "entry")]).unwrap();
    }

    #[test]
    fn rejects_unknown_names() {
        let s = examples::book_structure();
        let err = DtdC::new(
            s.clone(),
            Language::Lu,
            vec![Constraint::unary_key("nosuch", "x")],
        )
        .unwrap_err();
        assert!(matches!(err[0], WfError::UnknownElementType { .. }));
        let err =
            DtdC::new(s, Language::Lu, vec![Constraint::unary_key("entry", "x")]).unwrap_err();
        assert!(matches!(err[0], WfError::UnknownAttribute { .. }));
    }

    #[test]
    fn rejects_lid_fk_without_idref_kind() {
        // isbn is not an IDREF attribute, so it cannot be an L_id FK source.
        let s = examples::company_structure();
        let err = DtdC::new(
            s,
            Language::Lid,
            vec![
                Constraint::Id {
                    tau: "person".into(),
                },
                Constraint::FkToId {
                    tau: "person".into(),
                    attr: "oid".into(),
                    target: "person".into(),
                },
            ],
        )
        .unwrap_err();
        assert!(err.iter().any(|e| matches!(e, WfError::NotIdRef { .. })));
    }

    #[test]
    fn rejects_lid_reference_without_id_constraint() {
        let s = examples::company_structure();
        let err = DtdC::new(
            s,
            Language::Lid,
            vec![Constraint::FkToId {
                tau: "dept".into(),
                attr: "manager".into(),
                target: "person".into(),
            }],
        )
        .unwrap_err();
        assert!(err.iter().any(|e| matches!(e, WfError::TargetNotId { .. })));
    }

    #[test]
    fn rejects_inverse_u_with_undeclared_named_key() {
        let s = DtdStructure::builder("db")
            .elem("db", "(a*, b*)")
            .elem("a", "EMPTY")
            .elem("b", "EMPTY")
            .attr("a", "k", "S")
            .attr("a", "r", "S*")
            .attr("b", "k2", "S")
            .attr("b", "r2", "S*")
            .build()
            .unwrap();
        let inv = Constraint::InverseU {
            tau: "a".into(),
            key: Field::attr("k"),
            attr: "r".into(),
            target: "b".into(),
            target_key: Field::attr("k2"),
            target_attr: "r2".into(),
        };
        let err = DtdC::new(s.clone(), Language::Lu, vec![inv.clone()]).unwrap_err();
        assert!(err
            .iter()
            .any(|e| matches!(e, WfError::NamedKeyNotKey { .. })));
        // With the keys declared it is accepted.
        DtdC::new(
            s,
            Language::Lu,
            vec![
                Constraint::unary_key("a", "k"),
                Constraint::unary_key("b", "k2"),
                inv,
            ],
        )
        .unwrap();
    }

    #[test]
    fn display_includes_sigma() {
        let d = examples::book_dtdc();
        let out = d.to_string();
        assert!(out.contains("Σ (L_u) ="));
        assert!(out.contains("entry.@isbn -> entry"));
    }

    #[test]
    fn parse_entry_point() {
        let d = DtdC::parse(
            examples::book_structure(),
            Language::Lu,
            "entry.isbn -> entry\nsection.sid -> section\nref.to <=s entry.isbn",
        )
        .unwrap();
        assert_eq!(d.constraints().len(), 3);
        assert!(DtdC::parse(examples::book_structure(), Language::Lu, "junk here").is_err());
    }
}
