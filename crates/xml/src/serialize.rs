//! Serializers: data trees → XML text, DTD structures → DTD text.

use std::fmt::Write as _;

use xic_constraints::{AttrKind, AttrType, DtdStructure};
use xic_model::{Child, DataTree, NodeId};

/// Escapes character data / attribute values.
fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
}

/// Serializes a data tree as XML text.
///
/// Set-valued attributes are emitted as whitespace-joined tokens (the XML
/// `IDREFS` convention); the values themselves must then be
/// whitespace-free for a faithful round-trip, which holds for ID-style
/// values. Elements with no children are emitted self-closing. Output is
/// pretty-printed with two-space indentation except inside mixed content.
///
/// ```
/// use xic_model::{TreeBuilder, AttrValue};
/// use xic_xml::{serialize_document, parse_document};
/// let mut b = TreeBuilder::new();
/// let book = b.node("book");
/// let e = b.child_node(book, "entry").unwrap();
/// b.attr(e, "isbn", AttrValue::single("x")).unwrap();
/// let t = b.finish(book).unwrap();
/// let xml = serialize_document(&t);
/// let back = parse_document(&xml).unwrap();
/// assert_eq!(back.tree.len(), 2);
/// ```
pub fn serialize_document(tree: &DataTree) -> String {
    let mut out = String::new();
    write_node(tree, tree.root(), 0, &mut out);
    out
}

fn has_text_child(tree: &DataTree, id: NodeId) -> bool {
    tree.children(id)
        .iter()
        .any(|c| matches!(c, Child::Text(_)))
}

fn write_node(tree: &DataTree, id: NodeId, depth: usize, out: &mut String) {
    let label = tree.label(id);
    let children = tree.children(id);
    let pad = "  ".repeat(depth);
    let _ = write!(out, "{pad}<{label}");
    for (name, value) in tree.attrs(id) {
        let _ = write!(out, " {name}=\"");
        let mut first = true;
        for v in value.values() {
            if !first {
                out.push(' ');
            }
            first = false;
            escape(v, out);
        }
        out.push('"');
    }
    if children.is_empty() {
        out.push_str("/>\n");
        return;
    }
    out.push('>');
    if has_text_child(tree, id) {
        // Mixed / text content: no pretty-printing inside.
        for c in children {
            match c {
                Child::Text(t) => escape(tree.pool().resolve(*t), out),
                Child::Node(n) => {
                    let mut inner = String::new();
                    write_node(tree, *n, 0, &mut inner);
                    out.push_str(inner.trim_end());
                }
            }
        }
        let _ = writeln!(out, "</{label}>");
    } else {
        out.push('\n');
        for n in tree.child_nodes(id) {
            write_node(tree, n, depth + 1, out);
        }
        let _ = writeln!(out, "{pad}</{label}>");
    }
}

/// Serializes a DTD structure as `<!ELEMENT>`/`<!ATTLIST>` declarations.
///
/// Content models print in DTD syntax (`|` for union, `EMPTY`, `(#PCDATA)`
/// for a single `S`); attribute kinds map back to `ID`/`IDREF`/`IDREFS`,
/// and unkinded attributes to `CDATA`/`NMTOKENS`. Everything is declared
/// `#IMPLIED` except `ID` attributes, which XML requires on every element
/// (`#REQUIRED`).
pub fn serialize_dtd(dtd: &DtdStructure) -> String {
    let mut out = String::new();
    for tau in dtd.element_types() {
        let m = dtd.content_model(tau).expect("declared element");
        let _ = writeln!(out, "<!ELEMENT {tau} {}>", dtd_content(m));
    }
    for tau in dtd.element_types() {
        let attrs: Vec<_> = dtd.attributes(tau).collect();
        if attrs.is_empty() {
            continue;
        }
        let _ = write!(out, "<!ATTLIST {tau}");
        for (l, ty) in attrs {
            let (tyname, default) = match (dtd.attr_kind(tau, l), ty) {
                (Some(AttrKind::Id), _) => ("ID", "#REQUIRED"),
                (Some(AttrKind::IdRef), AttrType::Single) => ("IDREF", "#IMPLIED"),
                (Some(AttrKind::IdRef), AttrType::SetValued) => ("IDREFS", "#IMPLIED"),
                (None, AttrType::Single) => ("CDATA", "#IMPLIED"),
                (None, AttrType::SetValued) => ("NMTOKENS", "#IMPLIED"),
            };
            let _ = write!(out, " {l} {tyname} {default}");
        }
        let _ = writeln!(out, ">");
    }
    out
}

/// Prints a content model in DTD syntax.
fn dtd_content(m: &xic_regex::ContentModel) -> String {
    use xic_regex::ContentModel as M;
    fn go(m: &M, prec: u8, out: &mut String) {
        match m {
            M::S => out.push_str("#PCDATA"),
            M::Elem(n) => out.push_str(n.as_str()),
            M::Epsilon => out.push_str("EMPTY"),
            M::Alt(a, b) => {
                let wrap = prec > 0;
                if wrap {
                    out.push('(');
                }
                go(a, 0, out);
                out.push_str(" | ");
                go(b, 0, out);
                if wrap {
                    out.push(')');
                }
            }
            M::Seq(a, b) => {
                let wrap = prec > 1;
                if wrap {
                    out.push('(');
                }
                go(a, 1, out);
                out.push_str(", ");
                go(b, 1, out);
                if wrap {
                    out.push(')');
                }
            }
            M::Star(a) => {
                go(a, 2, out);
                out.push('*');
            }
        }
    }
    // Mixed content must print `#PCDATA` first — XML's grammar (and our
    // parser) reject it elsewhere in the alternation.
    if let M::Star(inner) = m {
        if let Some(s) = mixed_content(inner) {
            return s;
        }
    }
    match m {
        // Top-level forms XML requires parenthesized or bare.
        M::Epsilon => "EMPTY".to_string(),
        M::S => "(#PCDATA)".to_string(),
        _ => {
            let mut s = String::new();
            go(m, 2, &mut s);
            if s.starts_with('(') {
                s
            } else {
                format!("({s})")
            }
        }
    }
}

/// `(#PCDATA | a | b)*` for a starred alternation of leaves that includes
/// `S` (also covering `S*` as `(#PCDATA)*`); `None` when the starred body
/// is not DTD mixed content. The parse-back is `(S + a + b)*` — `#PCDATA`
/// moves to the front, which preserves the language.
fn mixed_content(inner: &xic_regex::ContentModel) -> Option<String> {
    use xic_regex::ContentModel as M;
    fn leaves<'m>(m: &'m M, out: &mut Vec<&'m M>) -> bool {
        match m {
            M::Alt(a, b) => leaves(a, out) && leaves(b, out),
            M::S | M::Elem(_) => {
                out.push(m);
                true
            }
            _ => false,
        }
    }
    let mut ls = Vec::new();
    if !leaves(inner, &mut ls) || !ls.iter().any(|m| matches!(m, M::S)) {
        return None;
    }
    let mut s = String::from("(#PCDATA");
    for l in ls {
        if let M::Elem(n) = l {
            s.push_str(" | ");
            s.push_str(n.as_str());
        }
    }
    s.push_str(")*");
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_document;
    use crate::parse_dtd;
    use xic_model::{AttrValue, TreeBuilder};

    fn book_tree() -> DataTree {
        let mut b = TreeBuilder::new();
        let book = b.node("book");
        let entry = b.child_node(book, "entry").unwrap();
        b.attr(entry, "isbn", AttrValue::single("1-55860-622-X"))
            .unwrap();
        b.leaf(entry, "title", "Data on the Web").unwrap();
        b.leaf(entry, "publisher", "Morgan Kaufmann").unwrap();
        b.leaf(book, "author", "Abiteboul").unwrap();
        let r = b.child_node(book, "ref").unwrap();
        b.attr(r, "to", AttrValue::set(["1-55860-622-X", "0-201"]))
            .unwrap();
        b.finish(book).unwrap()
    }

    #[test]
    fn document_round_trip_without_dtd() {
        let t = book_tree();
        let xml = serialize_document(&t);
        let back = parse_document(&xml).unwrap().tree;
        assert_eq!(back.len(), t.len());
        let e = back.ext("entry").next().unwrap();
        assert_eq!(
            back.attr(e, "isbn").unwrap().as_single().unwrap(),
            "1-55860-622-X"
        );
        // Without a DTD the IDREFS attribute reads back as one token string.
        let r = back.ext("ref").next().unwrap();
        assert_eq!(
            back.attr(r, "to").unwrap().as_single().unwrap(),
            "0-201 1-55860-622-X"
        );
    }

    #[test]
    fn document_round_trip_with_dtd_preserves_sets() {
        let t = book_tree();
        let dtd = parse_dtd(
            "<!ELEMENT book (entry, author*, ref)>
             <!ELEMENT entry (title, publisher)>
             <!ELEMENT title (#PCDATA)> <!ELEMENT publisher (#PCDATA)>
             <!ELEMENT author (#PCDATA)> <!ELEMENT ref EMPTY>
             <!ATTLIST entry isbn CDATA #REQUIRED>
             <!ATTLIST ref to IDREFS #IMPLIED>",
            "book",
        )
        .unwrap();
        let xml = format!(
            "<!DOCTYPE book [\n{}]>\n{}",
            serialize_dtd(&dtd),
            serialize_document(&t)
        );
        let back = parse_document(&xml).unwrap();
        let bt = back.tree;
        let r = bt.ext("ref").next().unwrap();
        let to = bt.attr(r, "to").unwrap();
        assert_eq!(to.len(), 2);
        assert!(to.contains("0-201"));
    }

    #[test]
    fn escaping_round_trips() {
        let mut b = TreeBuilder::new();
        let a = b.node("a");
        b.attr(a, "x", AttrValue::single("a<b>&\"c")).unwrap();
        b.text(a, "1 < 2 & 3 > 2 \"q\"").unwrap();
        let t = b.finish(a).unwrap();
        let xml = serialize_document(&t);
        let back = parse_document(&xml).unwrap().tree;
        assert_eq!(
            back.attr(back.root(), "x").unwrap().as_single().unwrap(),
            "a<b>&\"c"
        );
        assert_eq!(back.text(back.root()), "1 < 2 & 3 > 2 \"q\"");
    }

    #[test]
    fn dtd_round_trip() {
        let src = "<!ELEMENT book (entry, author*, section*, ref)>
             <!ELEMENT entry (title, publisher)>
             <!ELEMENT title (#PCDATA)> <!ELEMENT publisher (#PCDATA)>
             <!ELEMENT author (#PCDATA)> <!ELEMENT text (#PCDATA)>
             <!ELEMENT section (title, (text | section)*)>
             <!ELEMENT ref EMPTY>
             <!ATTLIST entry isbn CDATA #REQUIRED>
             <!ATTLIST section sid ID #REQUIRED>
             <!ATTLIST ref to IDREFS #IMPLIED>";
        let dtd = parse_dtd(src, "book").unwrap();
        let printed = serialize_dtd(&dtd);
        let again = parse_dtd(&printed, "book").unwrap();
        for tau in ["book", "entry", "section", "ref", "title"] {
            assert_eq!(
                dtd.content_model(tau).unwrap(),
                again.content_model(tau).unwrap(),
                "content model of {tau} through:\n{printed}"
            );
        }
        assert_eq!(again.attr_kind("section", "sid"), Some(AttrKind::Id));
        assert_eq!(again.attr_kind("ref", "to"), Some(AttrKind::IdRef));
        assert!(again.is_set_valued("ref", "to"));
    }

    #[test]
    fn mixed_and_starred_pcdata_models_round_trip() {
        // Builder-made structures can hold `S` anywhere in an alternation
        // (e.g. `(e0 + e1 + S)*`) and bare `S*`; both must print in the
        // `#PCDATA`-first form our parser (and XML) accept.
        let dtd = xic_constraints::DtdStructure::builder("a")
            .elem("a", "(b + c + S)*")
            .elem("b", "S*")
            .elem("c", "S")
            .build()
            .unwrap();
        let printed = serialize_dtd(&dtd);
        assert!(
            printed.contains("<!ELEMENT a (#PCDATA | b | c)*>"),
            "{printed}"
        );
        assert!(printed.contains("<!ELEMENT b (#PCDATA)*>"), "{printed}");
        let again = parse_dtd(&printed, "a").unwrap();
        assert_eq!(
            again.content_model("a").unwrap().to_string(),
            "(S + b + c)*"
        );
        assert_eq!(again.content_model("b").unwrap().to_string(), "S*");
        assert_eq!(
            again.content_model("c").unwrap(),
            dtd.content_model("c").unwrap()
        );
    }

    #[test]
    fn pretty_printing_indents_element_content() {
        let t = book_tree();
        let xml = serialize_document(&t);
        assert!(xml.contains("\n  <entry"));
        assert!(xml.contains("    <title>Data on the Web</title>"));
        assert!(xml.contains("<ref to=\"0-201 1-55860-622-X\"/>"));
    }
}
