//! The basic XML constraints of languages `L`, `L_u` and `L_id`.

use std::fmt;

use xic_model::Name;

/// A key / foreign-key component: an attribute, or (per §3.4) a sub-element
/// whose text content serves as the value.
///
/// The paper initially restricts keys and foreign keys to attributes, then
/// §3.4 extends all three languages to allow *unique sub-elements* (elements
/// occurring exactly once in every word of the parent's content model) as
/// key components, noting that all implication results carry over.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Field {
    /// An attribute `l ∈ Att(τ)`.
    Attr(Name),
    /// A unique sub-element of `τ` (its text content is the key value).
    Sub(Name),
}

impl Field {
    /// Convenience constructor for an attribute field.
    pub fn attr(l: impl Into<Name>) -> Self {
        Field::Attr(l.into())
    }

    /// Convenience constructor for a sub-element field.
    pub fn sub(e: impl Into<Name>) -> Self {
        Field::Sub(e.into())
    }

    /// The underlying name, whichever the flavour.
    pub fn name(&self) -> &Name {
        match self {
            Field::Attr(n) | Field::Sub(n) => n,
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Field::Attr(n) => write!(f, "@{n}"),
            Field::Sub(n) => write!(f, "{n}"),
        }
    }
}

/// The three basic constraint languages of the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Language {
    /// `L` — relational-style multi-attribute keys and foreign keys.
    L,
    /// `L_u` — unary keys/foreign keys, set-valued foreign keys, inverses.
    Lu,
    /// `L_id` — object-style IDs, keys, foreign keys into IDs, inverses.
    Lid,
}

impl fmt::Display for Language {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Language::L => f.write_str("L"),
            Language::Lu => f.write_str("L_u"),
            Language::Lid => f.write_str("L_id"),
        }
    }
}

/// A basic XML constraint.
///
/// One AST covers all three languages; [`Constraint::in_language`] tells
/// which languages admit a given form, and [`crate::DtdC`] checks
/// well-formedness against a [`crate::DtdStructure`] and the rest of `Σ`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Constraint {
    /// Key constraint `τ[X] → τ`: any two `τ`-elements agreeing on all of
    /// `X` are equal. Unary keys (singleton `X`) belong to all three
    /// languages; multi-field keys only to `L`.
    Key {
        /// The constrained element type `τ`.
        tau: Name,
        /// The key components `X` (a set; order-insensitive, kept sorted).
        fields: Vec<Field>,
    },
    /// Foreign key `τ[X] ⊆ τ'[Y]`: every `τ`-element's `X`-tuple equals the
    /// `Y`-tuple of some `τ'`-element, where `Y` is a key of `τ'`. Unary
    /// form belongs to `L` and `L_u`; multi-field only to `L`.
    ForeignKey {
        /// The referencing element type `τ`.
        tau: Name,
        /// The referencing sequence `X`.
        fields: Vec<Field>,
        /// The referenced element type `τ'`.
        target: Name,
        /// The referenced key sequence `Y`.
        target_fields: Vec<Field>,
    },
    /// Set-valued foreign key `τ.l ⊆_S τ'.l'` (`L_u`): every member of the
    /// set `x.l` is a `l'`-value of some `τ'`-element; `l'` is a key of
    /// `τ'`.
    SetForeignKey {
        /// The referencing element type `τ`.
        tau: Name,
        /// The set-valued referencing attribute `l`.
        attr: Name,
        /// The referenced element type `τ'`.
        target: Name,
        /// The referenced unary key `l'`.
        target_field: Field,
    },
    /// Inverse constraint `τ(l_k).l ⇌ τ'(l'_k).l'` (`L_u`): `x.l_k ∈ y.l'`
    /// iff `y.l'_k ∈ x.l`, where `l_k`/`l'_k` are keys of `τ`/`τ'` and
    /// `l`/`l'` are set-valued.
    InverseU {
        /// Element type `τ`.
        tau: Name,
        /// The key `l_k` of `τ` named by the constraint.
        key: Field,
        /// The set-valued attribute `l` of `τ`.
        attr: Name,
        /// Element type `τ'`.
        target: Name,
        /// The key `l'_k` of `τ'` named by the constraint.
        target_key: Field,
        /// The set-valued attribute `l'` of `τ'`.
        target_attr: Name,
    },
    /// ID constraint `τ.id →_id τ` (`L_id`): every `τ`-element has an ID
    /// value that is unique **within the entire document** (across all
    /// types), the object-identity semantics of XML's `ID`.
    Id {
        /// The element type `τ` (must declare an `ID`-kind attribute).
        tau: Name,
    },
    /// Foreign key into IDs, `τ.l ⊆ τ'.id` (`L_id`): `l` is a single-valued
    /// `IDREF` attribute whose value is the ID of some `τ'`-element.
    FkToId {
        /// The referencing element type `τ`.
        tau: Name,
        /// The single-valued `IDREF` attribute `l`.
        attr: Name,
        /// The referenced element type `τ'` (with `τ'.id →_id τ'`).
        target: Name,
    },
    /// Set-valued foreign key into IDs, `τ.l ⊆_S τ'.id` (`L_id`).
    SetFkToId {
        /// The referencing element type `τ`.
        tau: Name,
        /// The set-valued `IDREF` attribute `l`.
        attr: Name,
        /// The referenced element type `τ'` (with `τ'.id →_id τ'`).
        target: Name,
    },
    /// Inverse constraint `τ.l ⇌ τ'.l'` (`L_id`): `x.id ∈ y.l'` iff
    /// `y.id ∈ x.l`, both `l`, `l'` set-valued `IDREF` attributes of types
    /// carrying ID constraints.
    InverseId {
        /// Element type `τ`.
        tau: Name,
        /// Set-valued `IDREF` attribute `l` of `τ`.
        attr: Name,
        /// Element type `τ'`.
        target: Name,
        /// Set-valued `IDREF` attribute `l'` of `τ'`.
        target_attr: Name,
    },
}

impl Constraint {
    /// Unary key `τ.l → τ` over an attribute.
    pub fn unary_key(tau: impl Into<Name>, l: impl Into<Name>) -> Self {
        Constraint::Key {
            tau: tau.into(),
            fields: vec![Field::attr(l)],
        }
    }

    /// Unary key `τ.e → τ` over a sub-element (§3.4).
    pub fn sub_key(tau: impl Into<Name>, e: impl Into<Name>) -> Self {
        Constraint::Key {
            tau: tau.into(),
            fields: vec![Field::sub(e)],
        }
    }

    /// Multi-attribute key `τ[X] → τ`; `X` is normalized to sorted order
    /// (keys are attribute *sets* in the paper).
    pub fn key<I, T>(tau: impl Into<Name>, fields: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<Name>,
    {
        let mut fields: Vec<Field> = fields.into_iter().map(Field::attr).collect();
        fields.sort();
        fields.dedup();
        Constraint::Key {
            tau: tau.into(),
            fields,
        }
    }

    /// Unary foreign key `τ.l ⊆ τ'.l'` over attributes.
    pub fn unary_fk(
        tau: impl Into<Name>,
        l: impl Into<Name>,
        target: impl Into<Name>,
        l2: impl Into<Name>,
    ) -> Self {
        Constraint::ForeignKey {
            tau: tau.into(),
            fields: vec![Field::attr(l)],
            target: target.into(),
            target_fields: vec![Field::attr(l2)],
        }
    }

    /// Multi-attribute foreign key `τ[X] ⊆ τ'[Y]`.
    pub fn fk<I, J, T, U>(tau: impl Into<Name>, xs: I, target: impl Into<Name>, ys: J) -> Self
    where
        I: IntoIterator<Item = T>,
        J: IntoIterator<Item = U>,
        T: Into<Name>,
        U: Into<Name>,
    {
        Constraint::ForeignKey {
            tau: tau.into(),
            fields: xs.into_iter().map(Field::attr).collect(),
            target: target.into(),
            target_fields: ys.into_iter().map(Field::attr).collect(),
        }
    }

    /// Set-valued foreign key `τ.l ⊆_S τ'.l'`.
    pub fn set_fk(
        tau: impl Into<Name>,
        l: impl Into<Name>,
        target: impl Into<Name>,
        l2: impl Into<Name>,
    ) -> Self {
        Constraint::SetForeignKey {
            tau: tau.into(),
            attr: l.into(),
            target: target.into(),
            target_field: Field::attr(l2),
        }
    }

    /// The element type constrained (the left-hand `τ`).
    pub fn tau(&self) -> &Name {
        match self {
            Constraint::Key { tau, .. }
            | Constraint::ForeignKey { tau, .. }
            | Constraint::SetForeignKey { tau, .. }
            | Constraint::InverseU { tau, .. }
            | Constraint::Id { tau }
            | Constraint::FkToId { tau, .. }
            | Constraint::SetFkToId { tau, .. }
            | Constraint::InverseId { tau, .. } => tau,
        }
    }

    /// The referenced element type `τ'`, for reference-flavoured forms.
    pub fn target(&self) -> Option<&Name> {
        match self {
            Constraint::ForeignKey { target, .. }
            | Constraint::SetForeignKey { target, .. }
            | Constraint::InverseU { target, .. }
            | Constraint::FkToId { target, .. }
            | Constraint::SetFkToId { target, .. }
            | Constraint::InverseId { target, .. } => Some(target),
            Constraint::Key { .. } | Constraint::Id { .. } => None,
        }
    }

    /// True iff this constraint form belongs to language `lang`.
    ///
    /// Membership follows §2.2 exactly: `L` has (multi-)keys and foreign
    /// keys; `L_u` has the unary ones plus `⊆_S` and `⇌` with explicit
    /// keys; `L_id` has unary keys, `→_id`, (set-valued) foreign keys into
    /// IDs, and `⇌` between `IDREF` attributes.
    pub fn in_language(&self, lang: Language) -> bool {
        match (self, lang) {
            (Constraint::Key { .. }, Language::L) => true,
            (Constraint::Key { fields, .. }, Language::Lu | Language::Lid) => fields.len() == 1,
            (Constraint::ForeignKey { .. }, Language::L) => true,
            (
                Constraint::ForeignKey {
                    fields,
                    target_fields,
                    ..
                },
                Language::Lu,
            ) => fields.len() == 1 && target_fields.len() == 1,
            (Constraint::ForeignKey { .. }, Language::Lid) => false,
            (Constraint::SetForeignKey { .. }, Language::Lu) => true,
            (Constraint::SetForeignKey { .. }, _) => false,
            (Constraint::InverseU { .. }, Language::Lu) => true,
            (Constraint::InverseU { .. }, _) => false,
            (
                Constraint::Id { .. }
                | Constraint::FkToId { .. }
                | Constraint::SetFkToId { .. }
                | Constraint::InverseId { .. },
                Language::Lid,
            ) => true,
            (
                Constraint::Id { .. }
                | Constraint::FkToId { .. }
                | Constraint::SetFkToId { .. }
                | Constraint::InverseId { .. },
                _,
            ) => false,
        }
    }
}

fn fmt_fields(f: &mut fmt::Formatter<'_>, tau: &Name, fields: &[Field]) -> fmt::Result {
    if fields.len() == 1 {
        write!(f, "{tau}.{}", fields[0])
    } else {
        write!(f, "{tau}[")?;
        for (i, fld) in fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{fld}")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Constraint {
    /// Prints the ASCII rendering of the paper's notation, accepted back by
    /// [`Constraint::parse`]: `->` for `→`, `->id` for `→_id`, `<=` for
    /// `⊆`, `<=s` for `⊆_S`, `<=>` for `⇌`; attribute fields carry an `@`
    /// sigil, sub-element fields are bare names.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Key { tau, fields } => {
                fmt_fields(f, tau, fields)?;
                write!(f, " -> {tau}")
            }
            Constraint::ForeignKey {
                tau,
                fields,
                target,
                target_fields,
            } => {
                fmt_fields(f, tau, fields)?;
                write!(f, " <= ")?;
                fmt_fields(f, target, target_fields)
            }
            Constraint::SetForeignKey {
                tau,
                attr,
                target,
                target_field,
            } => {
                write!(f, "{tau}.@{attr} <=s {target}.{target_field}")
            }
            Constraint::InverseU {
                tau,
                key,
                attr,
                target,
                target_key,
                target_attr,
            } => {
                write!(
                    f,
                    "{tau}({key}).@{attr} <=> {target}({target_key}).@{target_attr}"
                )
            }
            Constraint::Id { tau } => write!(f, "{tau}.id ->id {tau}"),
            Constraint::FkToId { tau, attr, target } => {
                write!(f, "{tau}.@{attr} <= {target}.id")
            }
            Constraint::SetFkToId { tau, attr, target } => {
                write!(f, "{tau}.@{attr} <=s {target}.id")
            }
            Constraint::InverseId {
                tau,
                attr,
                target,
                target_attr,
            } => {
                write!(f, "{tau}.@{attr} <=> {target}.@{target_attr}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_paper_forms() {
        assert_eq!(
            Constraint::unary_key("entry", "isbn").to_string(),
            "entry.@isbn -> entry"
        );
        assert_eq!(
            Constraint::key("publisher", ["pname", "country"]).to_string(),
            "publisher[@country, @pname] -> publisher"
        );
        assert_eq!(
            Constraint::fk(
                "editor",
                ["pname", "country"],
                "publisher",
                ["pname", "country"]
            )
            .to_string(),
            "editor[@pname, @country] <= publisher[@pname, @country]"
        );
        assert_eq!(
            Constraint::set_fk("ref", "to", "entry", "isbn").to_string(),
            "ref.@to <=s entry.@isbn"
        );
        assert_eq!(
            Constraint::Id {
                tau: Name::new("person")
            }
            .to_string(),
            "person.id ->id person"
        );
        assert_eq!(
            Constraint::FkToId {
                tau: Name::new("dept"),
                attr: Name::new("manager"),
                target: Name::new("person")
            }
            .to_string(),
            "dept.@manager <= person.id"
        );
        assert_eq!(
            Constraint::InverseId {
                tau: Name::new("dept"),
                attr: Name::new("has_staff"),
                target: Name::new("person"),
                target_attr: Name::new("in_dept")
            }
            .to_string(),
            "dept.@has_staff <=> person.@in_dept"
        );
        assert_eq!(
            Constraint::InverseU {
                tau: Name::new("a"),
                key: Field::attr("k"),
                attr: Name::new("r"),
                target: Name::new("b"),
                target_key: Field::attr("k2"),
                target_attr: Name::new("r2")
            }
            .to_string(),
            "a(@k).@r <=> b(@k2).@r2"
        );
        assert_eq!(
            Constraint::sub_key("person", "name").to_string(),
            "person.name -> person"
        );
    }

    #[test]
    fn key_fields_normalized() {
        let a = Constraint::key("p", ["b", "a", "b"]);
        let b = Constraint::key("p", ["a", "b"]);
        assert_eq!(a, b);
    }

    #[test]
    fn language_membership() {
        let uk = Constraint::unary_key("a", "x");
        assert!(uk.in_language(Language::L));
        assert!(uk.in_language(Language::Lu));
        assert!(uk.in_language(Language::Lid));

        let mk = Constraint::key("a", ["x", "y"]);
        assert!(mk.in_language(Language::L));
        assert!(!mk.in_language(Language::Lu));
        assert!(!mk.in_language(Language::Lid));

        let ufk = Constraint::unary_fk("a", "x", "b", "y");
        assert!(ufk.in_language(Language::L));
        assert!(ufk.in_language(Language::Lu));
        assert!(!ufk.in_language(Language::Lid));

        let sfk = Constraint::set_fk("a", "x", "b", "y");
        assert!(!sfk.in_language(Language::L));
        assert!(sfk.in_language(Language::Lu));
        assert!(!sfk.in_language(Language::Lid));

        let id = Constraint::Id {
            tau: Name::new("a"),
        };
        assert!(!id.in_language(Language::L));
        assert!(!id.in_language(Language::Lu));
        assert!(id.in_language(Language::Lid));
    }

    #[test]
    fn accessors() {
        let fk = Constraint::unary_fk("a", "x", "b", "y");
        assert_eq!(fk.tau().as_str(), "a");
        assert_eq!(fk.target().unwrap().as_str(), "b");
        assert!(Constraint::unary_key("a", "x").target().is_none());
        assert_eq!(Field::attr("x").name().as_str(), "x");
        assert_eq!(Field::sub("x").name().as_str(), "x");
    }
}
