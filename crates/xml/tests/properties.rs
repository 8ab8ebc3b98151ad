//! Property-based round trips: arbitrary data trees survive
//! serialize → parse with shape, labels, attributes and text preserved.

use proptest::prelude::*;
use xic_model::{AttrValue, Child, DataTree, NodeId, TreeBuilder};
use xic_xml::{parse_document, parse_events, serialize_document, Event, XmlError};

#[derive(Debug, Clone)]
struct Recipe {
    nodes: Vec<(usize, u8, Option<String>, Option<String>)>,
}

/// Attribute values / text avoiding only the characters the serializer
/// legitimately cannot round-trip in this profile (leading/trailing
/// whitespace in text is dropped as ignorable when text is
/// whitespace-only).
fn payload() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9<>&\"' ]{1,12}".prop_filter("not whitespace-only", |s| !s.trim().is_empty())
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    prop::collection::vec(
        (
            0usize..32,
            0u8..4,
            prop::option::of(payload()),
            prop::option::of(payload()),
        ),
        0..24,
    )
    .prop_map(|nodes| Recipe { nodes })
}

fn build(recipe: &Recipe) -> DataTree {
    let labels = ["a", "b", "c", "d"];
    let mut b = TreeBuilder::new();
    let root = b.node("root");
    let mut ids = vec![root];
    for (parent, label, attr, text) in &recipe.nodes {
        let parent = ids[parent % ids.len()];
        let n = b.child_node(parent, labels[*label as usize]).unwrap();
        if let Some(v) = attr {
            b.attr(n, "x", AttrValue::single(v.clone())).unwrap();
        }
        if let Some(t) = text {
            b.text(n, t.clone()).unwrap();
        }
        ids.push(n);
    }
    b.finish(root).unwrap()
}

fn trees_equal(a: &DataTree, b: &DataTree) -> bool {
    fn node_eq(a: &DataTree, x: xic_model::NodeId, b: &DataTree, y: xic_model::NodeId) -> bool {
        if a.label(x) != b.label(y) {
            return false;
        }
        if a.attrs(x).count() != b.attrs(y).count() {
            return false;
        }
        for ((la, va), (lb, vb)) in a.attrs(x).zip(b.attrs(y)) {
            if la != lb || va != vb {
                return false;
            }
        }
        // Text may be re-chunked by parsing: compare concatenation.
        if a.text(x) != b.text(y) {
            return false;
        }
        let ca: Vec<_> = a.child_nodes(x).collect();
        let cb: Vec<_> = b.child_nodes(y).collect();
        ca.len() == cb.len() && ca.iter().zip(&cb).all(|(&x2, &y2)| node_eq(a, x2, b, y2))
    }
    node_eq(a, a.root(), b, b.root())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn serialize_parse_round_trip(r in recipe_strategy()) {
        let t = build(&r);
        let xml = serialize_document(&t);
        let back = parse_document(&xml)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{xml}"));
        prop_assert!(trees_equal(&t, &back.tree), "round trip mismatch:\n{}", xml);
    }

    #[test]
    fn serialized_output_is_reasonably_escaped(r in recipe_strategy()) {
        let t = build(&r);
        let xml = serialize_document(&t);
        // No raw '<' inside attribute values: every '<' starts a tag or
        // entity-escaped content.
        for (i, c) in xml.char_indices() {
            if c == '<' {
                let next = xml[i + 1..].chars().next().unwrap_or(' ');
                prop_assert!(
                    next.is_alphabetic() || next == '/' || next == '!',
                    "stray '<' at byte {i}:\n{xml}"
                );
            }
        }
    }

    #[test]
    fn parse_never_panics_on_mutations(r in recipe_strategy(), cut in 0usize..64) {
        let t = build(&r);
        let mut xml = serialize_document(&t);
        // Truncate at an arbitrary char boundary: parsing must error or
        // succeed, never panic.
        let cut = xml
            .char_indices()
            .map(|(i, _)| i)
            .nth(cut.min(xml.chars().count().saturating_sub(1)))
            .unwrap_or(0);
        xml.truncate(cut);
        let _ = parse_document(&xml);
    }
}

#[test]
fn text_with_children_round_trips() {
    // Mixed content ordering is preserved.
    let mut b = TreeBuilder::new();
    let root = b.node("root");
    b.text(root, "before ").unwrap();
    let c = b.child_node(root, "a").unwrap();
    b.text(c, "inner").unwrap();
    b.text(root, " after").unwrap();
    let t = b.finish(root).unwrap();
    let xml = serialize_document(&t);
    let back = parse_document(&xml).unwrap();
    let kinds: Vec<bool> = back
        .tree
        .children(back.tree.root())
        .iter()
        .map(|c| matches!(c, Child::Text(_)))
        .collect();
    assert_eq!(kinds, vec![true, false, true], "{xml}");
}

// ---------------------------------------------------------------------
// Differential coverage for the byte-level lexer: the tree parser and the
// event parser are two independent consumers of the same byte scanner, so
// feeding both a document that exercises every decode path — entity
// escapes, character references, CDATA sections, multi-byte UTF-8 — and
// demanding identical trees pins the lexer's semantics from two sides.

/// Payload characters spanning 1-, 2-, 3- and 4-byte UTF-8 encodings plus
/// the XML-special set. `]` is excluded so generated text can be wrapped
/// in a CDATA section without ever forming `]]>`.
const UNI_CHARS: &[char] = &[
    'a', 'b', 'Z', '9', ' ', '&', '<', '>', '"', '\'', 'é', 'ß', 'Σ', 'λ', '中', '本', '🦀', '𝔘',
];

fn uni_payload() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..UNI_CHARS.len(), 1..10)
        .prop_map(|ix| ix.into_iter().map(|i| UNI_CHARS[i]).collect::<String>())
        .prop_filter("not whitespace-only", |s: &String| !s.trim().is_empty())
}

fn uni_recipe_strategy() -> impl Strategy<Value = (Recipe, Vec<u8>)> {
    let nodes = prop::collection::vec(
        (
            0usize..32,
            0u8..4,
            prop::option::of(uni_payload()),
            prop::option::of(uni_payload()),
        ),
        0..24,
    )
    .prop_map(|nodes| Recipe { nodes });
    (nodes, prop::collection::vec(0u8..6, 1..16))
}

fn escape_text(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(c),
        }
    }
}

fn escape_attr(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
}

/// Renders every character as a decimal or hex character reference.
fn char_refs(s: &str, hex: bool, out: &mut String) {
    use std::fmt::Write;
    for c in s.chars() {
        if hex {
            let _ = write!(out, "&#x{:X};", c as u32);
        } else {
            let _ = write!(out, "&#{};", c as u32);
        }
    }
}

fn pick(encs: &[u8], i: &mut usize) -> u8 {
    let e = encs[*i % encs.len()];
    *i += 1;
    e
}

/// Serializes `t` by hand, cycling through encodings for each text run and
/// attribute value: plain escaped, CDATA (text only), decimal refs, hex
/// refs. All encodings decode to the same logical value.
fn render_encoded(t: &DataTree, id: NodeId, encs: &[u8], i: &mut usize, out: &mut String) {
    let label = t.label(id).as_str();
    out.push('<');
    out.push_str(label);
    for (name, v) in t.attrs(id) {
        let v = v.as_single().expect("generated attrs are single-valued");
        out.push(' ');
        out.push_str(name.as_str());
        out.push_str("=\"");
        match pick(encs, i) % 3 {
            0 => escape_attr(v, out),
            1 => char_refs(v, false, out),
            _ => char_refs(v, true, out),
        }
        out.push('"');
    }
    if t.children(id).is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for &c in t.children(id) {
        match c {
            Child::Text(s) => match (pick(encs, i) % 4, t.pool().resolve(s)) {
                (0, s) => escape_text(s, out),
                (1, s) => {
                    out.push_str("<![CDATA[");
                    out.push_str(s);
                    out.push_str("]]>");
                }
                (2, s) => char_refs(s, false, out),
                (_, s) => char_refs(s, true, out),
            },
            Child::Node(n) => render_encoded(t, n, encs, i, out),
        }
    }
    out.push_str("</");
    out.push_str(label);
    out.push('>');
}

/// Replays the event stream into a [`TreeBuilder`]: the event-parser view
/// of the document as a tree.
fn tree_from_events(src: &str) -> Result<DataTree, XmlError> {
    let mut b = TreeBuilder::new();
    let mut stack: Vec<NodeId> = Vec::new();
    let mut root = None;
    for ev in parse_events(src) {
        match ev? {
            Event::Open { name, .. } => {
                let id = match stack.last() {
                    Some(&parent) => b.child_node(parent, name).unwrap(),
                    None => b.node(name),
                };
                if root.is_none() {
                    root = Some(id);
                }
                stack.push(id);
            }
            Event::Attr { name, value, .. } => {
                b.attr(
                    *stack.last().unwrap(),
                    name,
                    AttrValue::single(value.into_owned()),
                )
                .unwrap();
            }
            Event::Text { value, .. } => {
                b.text(*stack.last().unwrap(), &value).unwrap();
            }
            Event::Close { .. } => {
                stack.pop();
            }
        }
    }
    Ok(b.finish(root.expect("document has a root")).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Entities, character references, CDATA and multi-byte UTF-8 decode
    /// to the same tree through both byte-lexer consumers.
    #[test]
    fn tree_and_event_parsers_agree_on_encoded_documents((r, encs) in uni_recipe_strategy()) {
        let expected = build(&r);
        let mut xml = String::new();
        let mut i = 0usize;
        render_encoded(&expected, expected.root(), &encs, &mut i, &mut xml);
        let tree = parse_document(&xml)
            .unwrap_or_else(|e| panic!("tree parse failed: {e}\n{xml}"))
            .tree;
        prop_assert!(trees_equal(&expected, &tree), "tree parse mismatch:\n{xml}");
        let replayed = tree_from_events(&xml)
            .unwrap_or_else(|e| panic!("event parse failed: {e}\n{xml}"));
        prop_assert!(trees_equal(&expected, &replayed), "event replay mismatch:\n{xml}");
    }
}

/// Error positions are reported in characters, not bytes: multi-byte
/// UTF-8 before the error must not inflate the column (satellite of the
/// byte-level lexer — offsets are bytes internally, columns are chars).
#[test]
fn error_positions_count_characters_not_bytes() {
    // Line 2 holds 2-, 3- and 4-byte characters before the malformed tag;
    // the parsers reject at the `1` — character column 6, where a
    // byte-counting column would report 12.
    let src = "<a>\n é€🦀<1bad/></a>";
    let terr = parse_document(src).expect_err("tree parser must reject");
    let eerr = parse_events(src)
        .find_map(Result::err)
        .expect("event parser must reject")
        .locate(src);
    assert_eq!(
        (terr.line, terr.col),
        (eerr.line, eerr.col),
        "tree={terr} event={eerr}"
    );
    assert_eq!(terr.line, 2, "{terr}");
    assert_eq!(terr.col, 6, "column must count characters: {terr}");
}

/// Well-formed multi-byte content leaves both parsers agreeing on where a
/// later error is, even when the multi-byte runs sit in attributes and
/// CDATA on earlier lines.
#[test]
fn error_positions_agree_after_multibyte_content() {
    let src = "<r»oot attr=\"é中🦀\">\n  <x><![CDATA[Σλ𝔘]]></x>\n  </wrong>\n</root>";
    // The first error differs in kind between parsers only in message,
    // never in position semantics; compare a same-shape document instead.
    let good_prefix = "<root attr=\"é中🦀\">\n  <x><![CDATA[Σλ𝔘]]></x>\n  </wrong>\n</root>";
    let terr = parse_document(good_prefix).expect_err("mismatched close tag");
    let eerr = parse_events(good_prefix)
        .find_map(Result::err)
        .expect("mismatched close tag")
        .locate(good_prefix);
    assert_eq!((terr.line, terr.col), (eerr.line, eerr.col));
    assert_eq!(terr.line, 3, "{terr}");
    let _ = src;
}
