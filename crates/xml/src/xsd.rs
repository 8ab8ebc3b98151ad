//! Interop with XML Schema identity constraints (`xs:key` / `xs:keyref`).
//!
//! The paper's key/foreign-key proposals predate and influenced XML
//! Schema's identity constraints. This module maps between the two — and
//! makes the *gap* precise:
//!
//! | `DTD^C` constraint | XML Schema |
//! |---|---|
//! | `τ[X] → τ` (key, `L`/`L_u`/`L_id`) | `xs:key` with selector `.//τ` and one field per component |
//! | `τ[X] ⊆ τ'[Y]` (foreign key) | `xs:keyref` referring to the target key |
//! | `τ.l ⊆ τ'.id` (`L_id` reference) | `xs:keyref` (the ID side exports as an `xs:key`) |
//! | `τ.id →_id τ` (object identity) | `xs:key` on the ID attribute (the *document-wide* scope of `→_id` is weakened to per-type — XML Schema selectors scope keys) |
//! | `τ.l ⊆_S τ'.l'` (set-valued FK) | **not expressible** — `xs:field` must select a single node |
//! | `τ(l_k).l ⇌ τ'(l'_k).l'` (inverse) | **not expressible** |
//!
//! [`constraints_to_xsd`] emits the expressible subset (returning the
//! remainder), and [`xsd_to_constraints`] reads the emitted subset back.

use std::fmt::Write as _;

use xic_constraints::{Constraint, DtdC, DtdStructure, Field, Language};
use xic_model::Name;

use crate::parser::{parse_document, XmlError};

/// Result of exporting a constraint set to XML Schema identity
/// constraints.
#[derive(Debug)]
pub struct XsdExport {
    /// The `<xs:key>`/`<xs:keyref>` declarations (to be placed under the
    /// root element declaration of a schema).
    pub xml: String,
    /// Constraints that XML Schema identity constraints cannot express
    /// (set-valued foreign keys and inverse constraints).
    pub unsupported: Vec<Constraint>,
}

fn field_xpath(f: &Field) -> String {
    match f {
        Field::Attr(l) => format!("@{l}"),
        Field::Sub(e) => e.to_string(),
    }
}

fn key_name(tau: &Name, fields: &[Field]) -> String {
    let mut s = format!("key_{tau}");
    for f in fields {
        s.push('_');
        s.push_str(f.name().as_str());
    }
    s
}

fn emit_identity(
    out: &mut String,
    kind: &str,
    name: &str,
    refer: Option<&str>,
    tau: &Name,
    fields: &[Field],
) {
    let refer_attr = refer.map(|r| format!(" refer=\"{r}\"")).unwrap_or_default();
    let _ = writeln!(out, "<xs:{kind} name=\"{name}\"{refer_attr}>");
    let _ = writeln!(out, "  <xs:selector xpath=\".//{tau}\"/>");
    for f in fields {
        let _ = writeln!(out, "  <xs:field xpath=\"{}\"/>", field_xpath(f));
    }
    let _ = writeln!(out, "</xs:{kind}>");
}

/// Exports `Σ` to XML Schema identity-constraint declarations.
///
/// Keys (including `L_id` ID constraints, weakened to per-type scope) come
/// out first so that every emitted `xs:keyref` can `refer` to one;
/// references to IDs synthesize the target's ID key if no explicit key was
/// exported for it. Inexpressible constraints are returned in
/// [`XsdExport::unsupported`].
pub fn constraints_to_xsd(dtdc: &DtdC) -> XsdExport {
    let s = dtdc.structure();
    let mut xml = String::new();
    let mut unsupported = Vec::new();
    let mut emitted_keys: Vec<(Name, Vec<Field>)> = Vec::new();

    let ensure_key = |xml: &mut String,
                      emitted: &mut Vec<(Name, Vec<Field>)>,
                      tau: &Name,
                      fields: &[Field]|
     -> String {
        let name = key_name(tau, fields);
        if !emitted.iter().any(|(t, fs)| t == tau && fs == fields) {
            emit_identity(xml, "key", &name, None, tau, fields);
            emitted.push((tau.clone(), fields.to_vec()));
        }
        name
    };

    // Pass 1: keys and ID constraints.
    for c in dtdc.constraints() {
        match c {
            Constraint::Key { tau, fields } => {
                ensure_key(&mut xml, &mut emitted_keys, tau, fields);
            }
            Constraint::Id { tau } => {
                let id_attr = s.id_attr(tau).cloned().unwrap_or_else(|| Name::new("id"));
                ensure_key(&mut xml, &mut emitted_keys, tau, &[Field::Attr(id_attr)]);
            }
            _ => {}
        }
    }
    // Pass 2: references.
    for c in dtdc.constraints() {
        match c {
            Constraint::Key { .. } | Constraint::Id { .. } => {}
            Constraint::ForeignKey {
                tau,
                fields,
                target,
                target_fields,
            } => {
                let refer = ensure_key(&mut xml, &mut emitted_keys, target, target_fields);
                let name = format!("ref_{tau}_{}", fields[0].name());
                emit_identity(&mut xml, "keyref", &name, Some(&refer), tau, fields);
            }
            Constraint::FkToId { tau, attr, target } => {
                let id_attr = s
                    .id_attr(target)
                    .cloned()
                    .unwrap_or_else(|| Name::new("id"));
                let refer =
                    ensure_key(&mut xml, &mut emitted_keys, target, &[Field::Attr(id_attr)]);
                let name = format!("ref_{tau}_{attr}");
                emit_identity(
                    &mut xml,
                    "keyref",
                    &name,
                    Some(&refer),
                    tau,
                    &[Field::Attr(attr.clone())],
                );
            }
            Constraint::SetForeignKey { .. }
            | Constraint::SetFkToId { .. }
            | Constraint::InverseU { .. }
            | Constraint::InverseId { .. } => unsupported.push(c.clone()),
        }
    }
    XsdExport { xml, unsupported }
}

/// Reads identity-constraint declarations (the subset emitted by
/// [`constraints_to_xsd`]) back into basic XML constraints.
///
/// `xs:key` becomes a key constraint; `xs:keyref` becomes a foreign key
/// against the referred key's type and fields. Field XPaths `@l` resolve
/// to attributes, bare names to sub-elements.
pub fn xsd_to_constraints(
    src: &str,
    _structure: &DtdStructure,
    _lang: Language,
) -> Result<Vec<Constraint>, XmlError> {
    // Wrap the declarations so they parse as one document.
    let doc = parse_document(&format!("<xs:schema>{src}</xs:schema>"))?;
    let tree = &doc.tree;
    let mut keys: Vec<(String, Name, Vec<Field>)> = Vec::new(); // (name, τ, fields)
    let mut out = Vec::new();

    let parse_decl =
        |id: xic_model::NodeId| -> Result<(String, Option<String>, Name, Vec<Field>), XmlError> {
            let name = tree
                .attr(id, "name")
                .and_then(|v| v.as_single())
                .map(str::to_string)
                .ok_or_else(|| XmlError::new("identity constraint without name", 0))?;
            let refer = (tree.attr(id, "refer"))
                .and_then(|v| v.as_single())
                .map(str::to_string);
            let mut tau: Option<Name> = None;
            let mut fields = Vec::new();
            for c in tree.child_nodes(id) {
                match tree.label(c).as_str() {
                    "xs:selector" => {
                        let xpath = tree
                            .attr(c, "xpath")
                            .and_then(|v| v.as_single())
                            .unwrap_or_default();
                        let t = xpath
                            .trim_start_matches('.')
                            .trim_start_matches('/')
                            .trim_start_matches('/');
                        tau = Some(Name::new(t));
                    }
                    "xs:field" => {
                        let xpath = tree
                            .attr(c, "xpath")
                            .and_then(|v| v.as_single())
                            .unwrap_or_default();
                        fields.push(match xpath.strip_prefix('@') {
                            Some(a) => Field::attr(a),
                            None => Field::sub(xpath),
                        });
                    }
                    _ => {}
                }
            }
            let tau =
                tau.ok_or_else(|| XmlError::new("identity constraint without selector", 0))?;
            Ok((name, refer, tau, fields))
        };

    // Keys first.
    for id in tree.node_ids() {
        if tree.label(id).as_str() == "xs:key" {
            let (name, _, tau, fields) = parse_decl(id)?;
            out.push(Constraint::Key {
                tau: tau.clone(),
                fields: {
                    let mut fs = fields.clone();
                    fs.sort();
                    fs.dedup();
                    fs
                },
            });
            keys.push((name, tau, fields));
        }
    }
    for id in tree.node_ids() {
        if tree.label(id).as_str() == "xs:keyref" {
            let (_, refer, tau, fields) = parse_decl(id)?;
            let refer = refer.ok_or_else(|| XmlError::new("xs:keyref without refer", 0))?;
            let (_, target, target_fields) = keys
                .iter()
                .find(|(n, _, _)| *n == refer)
                .ok_or_else(|| XmlError::new(format!("unknown key {refer:?}"), 0))?;
            out.push(Constraint::ForeignKey {
                tau,
                fields,
                target: target.clone(),
                target_fields: target_fields.clone(),
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_constraints::examples::{book_dtdc, company_dtdc, publishers_dtdc};

    #[test]
    fn publishers_export_round_trips() {
        let d = publishers_dtdc();
        let export = constraints_to_xsd(&d);
        assert!(export.unsupported.is_empty(), "{:?}", export.unsupported);
        assert!(export.xml.contains("xs:key"));
        assert!(export.xml.contains("xs:keyref"));
        assert!(export.xml.contains(".//publisher"));
        assert!(export.xml.contains("@pname"));

        let back = xsd_to_constraints(&export.xml, d.structure(), Language::L).unwrap();
        // Both original keys, plus the FK (sequences preserved).
        assert!(back.contains(&Constraint::key("publisher", ["pname", "country"])));
        assert!(back.contains(&Constraint::key("editor", ["name"])));
        assert!(back.contains(&Constraint::fk(
            "editor",
            ["pname", "country"],
            "publisher",
            ["pname", "country"]
        )));
    }

    #[test]
    fn book_export_flags_set_valued_fk() {
        let d = book_dtdc();
        let export = constraints_to_xsd(&d);
        // entry.isbn and section.sid keys export; ref.to ⊆_S does not.
        assert!(export.xml.contains("key_entry_isbn"));
        assert!(export.xml.contains("key_section_sid"));
        assert_eq!(export.unsupported.len(), 1);
        assert!(matches!(
            export.unsupported[0],
            Constraint::SetForeignKey { .. }
        ));
    }

    #[test]
    fn company_export_weakens_ids_and_flags_inverse() {
        let d = company_dtdc();
        let export = constraints_to_xsd(&d);
        // ID constraints export as per-type keys on oid.
        assert!(export.xml.contains("key_person_oid"));
        assert!(export.xml.contains("key_dept_oid"));
        // manager ⊆ person.id exports as a keyref.
        assert!(export.xml.contains("ref_dept_manager"));
        assert!(export.xml.contains("refer=\"key_person_oid\""));
        // Sub-element keys use element-name field XPaths.
        assert!(export.xml.contains("<xs:field xpath=\"name\"/>"));
        // The set-valued references and the inverse are unsupported.
        assert_eq!(export.unsupported.len(), 3, "{:?}", export.unsupported);

        // The expressible subset round-trips.
        let back = xsd_to_constraints(&export.xml, d.structure(), Language::L).unwrap();
        assert!(back.contains(&Constraint::sub_key("person", "name")));
        assert!(back.iter().any(|c| matches!(
            c,
            Constraint::ForeignKey { tau, .. } if tau.as_str() == "dept"
        )));
    }

    #[test]
    fn keyrefs_synthesize_missing_target_keys() {
        // An FkToId whose Id key was not separately declared still gets a
        // referable xs:key.
        let d = DtdC::new_unchecked(
            xic_constraints::examples::company_structure(),
            Language::Lid,
            vec![Constraint::FkToId {
                tau: "dept".into(),
                attr: "manager".into(),
                target: "person".into(),
            }],
        );
        let export = constraints_to_xsd(&d);
        assert!(export.xml.contains("<xs:key name=\"key_person_oid\">"));
        assert!(export.xml.contains("refer=\"key_person_oid\""));
    }

    #[test]
    fn malformed_xsd_rejected() {
        let s = xic_constraints::examples::book_structure();
        for src in [
            "<xs:key><xs:selector xpath=\".//a\"/></xs:key>", // no name
            "<xs:key name=\"k\"><xs:field xpath=\"@x\"/></xs:key>", // no selector
            "<xs:keyref name=\"r\"><xs:selector xpath=\".//a\"/></xs:keyref>", // no refer
            "<xs:keyref name=\"r\" refer=\"ghost\"><xs:selector xpath=\".//a\"/></xs:keyref>",
        ] {
            assert!(
                xsd_to_constraints(src, &s, Language::L).is_err(),
                "should reject {src:?}"
            );
        }
    }
}
