//! The paper's three running examples (§1, §2.4) as ready-made values.
//!
//! * the **book** document — native XML with `L_u` constraints;
//! * the **person/dept** object database export — `L_id` constraints
//!   preserving object identities and inverse relationships;
//! * the **publishers/editors** relational export — `L` constraints with a
//!   composite key and foreign key.

use crate::{Constraint, DtdC, DtdStructure, Language};

/// The book DTD structure of §1/§2.4.
pub fn book_structure() -> DtdStructure {
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
        .expect("book structure is well-formed")
}

/// The book `DTD^C` with its `L_u` constraint set `Σ` from §2.4:
///
/// ```text
/// entry.isbn  -> entry
/// section.sid -> section
/// ref.to      <=s entry.isbn
/// ```
pub fn book_dtdc() -> DtdC {
    DtdC::new(
        book_structure(),
        Language::Lu,
        vec![
            Constraint::unary_key("entry", "isbn"),
            Constraint::unary_key("section", "sid"),
            Constraint::set_fk("ref", "to", "entry", "isbn"),
        ],
    )
    .expect("book Σ is well-formed")
}

/// The person/dept DTD structure `S_o` of §2.4 (exported from the ODL
/// schema of §1).
pub fn company_structure() -> DtdStructure {
    DtdStructure::builder("db")
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
        .expect("company structure is well-formed")
}

/// The person/dept `DTD^C` `D_o = (S_o, Σ_o)` of §2.4, with `L_id`
/// constraints:
///
/// ```text
/// person.oid       ->id person
/// dept.oid         ->id dept
/// person.name      -> person          (sub-element key, §3.4)
/// dept.dname       -> dept            (sub-element key, §3.4)
/// person.in_dept   <=s dept.oid
/// dept.manager     <= person.oid
/// dept.has_staff   <=s person.oid
/// dept.has_staff   <=> person.in_dept
/// ```
pub fn company_dtdc() -> DtdC {
    DtdC::new(
        company_structure(),
        Language::Lid,
        vec![
            Constraint::Id {
                tau: "person".into(),
            },
            Constraint::Id { tau: "dept".into() },
            Constraint::sub_key("person", "name"),
            Constraint::sub_key("dept", "dname"),
            Constraint::SetFkToId {
                tau: "person".into(),
                attr: "in_dept".into(),
                target: "dept".into(),
            },
            Constraint::FkToId {
                tau: "dept".into(),
                attr: "manager".into(),
                target: "person".into(),
            },
            Constraint::SetFkToId {
                tau: "dept".into(),
                attr: "has_staff".into(),
                target: "person".into(),
            },
            Constraint::InverseId {
                tau: "dept".into(),
                attr: "has_staff".into(),
                target: "person".into(),
                target_attr: "in_dept".into(),
            },
        ],
    )
    .expect("company Σ is well-formed")
}

/// The publishers/editors DTD structure of §1 (exported from a relational
/// database), with the relational key columns represented both as
/// sub-elements (as in the paper's DTD) and as attributes so that `L`'s
/// attribute-based keys and foreign keys apply directly.
pub(crate) fn publishers_structure() -> DtdStructure {
    DtdStructure::builder("db")
        .elem("db", "(publishers, editors)")
        .elem("publishers", "publisher*")
        .elem("publisher", "(pname, country, address)")
        .elem("editors", "editor*")
        .elem("editor", "(name, pname, country)")
        .elem("pname", "S")
        .elem("country", "S")
        .elem("address", "S")
        .elem("name", "S")
        .attr("publisher", "pname", "S")
        .attr("publisher", "country", "S")
        .attr("editor", "pname", "S")
        .attr("editor", "country", "S")
        .attr("editor", "name", "S")
        .build()
        .expect("publishers structure is well-formed")
}

/// The publishers/editors `DTD^C` with its `L` constraints from §2.4:
///
/// ```text
/// publisher[pname, country] -> publisher
/// editor[name]              -> editor
/// editor[pname, country]    <= publisher[pname, country]
/// ```
pub fn publishers_dtdc() -> DtdC {
    DtdC::new(
        publishers_structure(),
        Language::L,
        vec![
            Constraint::key("publisher", ["pname", "country"]),
            Constraint::key("editor", ["name"]),
            Constraint::fk(
                "editor",
                ["pname", "country"],
                "publisher",
                ["pname", "country"],
            ),
        ],
    )
    .expect("publishers Σ is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_examples_construct() {
        book_dtdc();
        company_dtdc();
        publishers_dtdc();
    }

    #[test]
    fn company_uses_id_semantics() {
        let d = company_dtdc();
        let s = d.structure();
        assert_eq!(s.id_attr("person").unwrap().as_str(), "oid");
        assert_eq!(s.id_attr("dept").unwrap().as_str(), "oid");
        assert!(s.id_attr("db").is_none());
    }

    #[test]
    fn book_kind_is_empty() {
        // §2.4: "we can keep the function kind empty as we do not use the
        // original ID/IDREF semantics."
        let d = book_dtdc();
        let s = d.structure();
        for tau in ["book", "entry", "section", "ref"] {
            for (l, _) in s.attributes(tau) {
                assert!(s.attr_kind(tau, l).is_none());
            }
        }
    }
}
