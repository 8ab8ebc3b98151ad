//! The XML document parser.

use std::fmt;

use xic_constraints::DtdStructure;
use xic_model::{AttrValue, DataTree, ModelError, NodeId, TreeBuilder};

use crate::dtd::parse_dtd_declarations;
use crate::events::{Event, EventParser};
use crate::scan;

/// XML parse error with source position.
///
/// `offset` is always the byte position where the error was detected;
/// `line`/`col` are filled in (1-based) at the public API boundary and are
/// `0` when no source text was available to locate against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XmlError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset where the error was detected.
    pub offset: usize,
    /// 1-based line of `offset` (`0` if unlocated).
    pub line: u32,
    /// 1-based column of `offset`, in characters (`0` if unlocated).
    pub col: u32,
}

impl XmlError {
    pub(crate) fn new(message: impl Into<String>, offset: usize) -> Self {
        XmlError {
            message: message.into(),
            offset,
            line: 0,
            col: 0,
        }
    }

    /// Fills `line`/`col` from the source the offset refers to. Idempotent:
    /// an already-located error is returned unchanged.
    pub fn locate(mut self, src: &str) -> Self {
        if self.line > 0 {
            return self;
        }
        let mut line = 1u32;
        let mut col = 1u32;
        for (i, c) in src.char_indices() {
            if i >= self.offset {
                break;
            }
            if c == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        self.line = line;
        self.col = col;
        self
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "XML parse error at {}:{}: {}",
                self.line, self.col, self.message
            )
        } else {
            write!(
                f,
                "XML parse error at byte {}: {}",
                self.offset, self.message
            )
        }
    }
}

impl std::error::Error for XmlError {}

impl From<ModelError> for XmlError {
    fn from(e: ModelError) -> Self {
        XmlError::new(format!("model error: {e}"), 0)
    }
}

/// Result of [`parse_document`]: the data tree plus the DTD parsed from the
/// `<!DOCTYPE>` internal subset, when present.
#[derive(Debug)]
pub struct ParsedDocument {
    /// The document as a data tree.
    pub tree: DataTree,
    /// The DTD from the internal subset, if the document carried one.
    pub dtd: Option<DtdStructure>,
}

pub(crate) struct Cursor<'a> {
    pub(crate) src: &'a str,
    pub(crate) pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Cursor { src, pos: 0 }
    }

    pub(crate) fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    /// The unconsumed input as bytes (offsets into it are relative to
    /// `pos`). All scanning below works on bytes; since every delimiter is
    /// ASCII and ASCII bytes never occur inside multi-byte UTF-8 sequences,
    /// byte positions are always character boundaries.
    #[inline]
    pub(crate) fn bytes(&self) -> &'a [u8] {
        &self.src.as_bytes()[self.pos..]
    }

    #[inline]
    pub(crate) fn peek_byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    pub(crate) fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    pub(crate) fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    pub(crate) fn eat(&mut self, s: &str) -> bool {
        if self.rest().starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    pub(crate) fn skip_ws(&mut self) {
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if scan::is_ascii_ws(b) {
                self.pos += 1;
            } else if b < 0x80 {
                return;
            } else {
                // Non-ASCII: decode one char and apply the Unicode
                // predicate the old per-`char` loop used.
                match self.peek() {
                    Some(c) if c.is_whitespace() => self.pos += c.len_utf8(),
                    _ => return,
                }
            }
        }
    }

    pub(crate) fn err<T>(&self, msg: impl Into<String>) -> Result<T, XmlError> {
        Err(XmlError::new(msg, self.pos))
    }

    pub(crate) fn name(&mut self) -> Result<&'a str, XmlError> {
        let bytes = self.src.as_bytes();
        let start = self.pos;
        match bytes.get(self.pos) {
            Some(&b) if scan::is_ascii_name_start(b) => self.pos += 1,
            Some(&b) if b >= 0x80 => match self.peek() {
                Some(c) if c.is_alphabetic() => self.pos += c.len_utf8(),
                _ => return self.err("expected a name"),
            },
            _ => return self.err("expected a name"),
        }
        loop {
            match bytes.get(self.pos) {
                Some(&b) if scan::is_ascii_name_cont(b) => self.pos += 1,
                Some(&b) if b >= 0x80 => match self.peek() {
                    Some(c) if c.is_alphanumeric() => self.pos += c.len_utf8(),
                    _ => break,
                },
                _ => break,
            }
        }
        Ok(&self.src[start..self.pos])
    }

    /// Skips `<!-- … -->`, returning true if a comment was consumed.
    pub(crate) fn skip_comment(&mut self) -> Result<bool, XmlError> {
        if !self.eat("<!--") {
            return Ok(false);
        }
        match find_terminated(self.bytes(), b'-', b'-', Some(b'>')) {
            Some(i) => {
                self.pos += i + 3;
                Ok(true)
            }
            None => self.err("unterminated comment"),
        }
    }

    /// Skips `<? … ?>` processing instructions / the XML declaration.
    pub(crate) fn skip_pi(&mut self) -> Result<bool, XmlError> {
        if !self.eat("<?") {
            return Ok(false);
        }
        match scan::find_seq2(self.bytes(), b'?', b'>') {
            Some(i) => {
                self.pos += i + 2;
                Ok(true)
            }
            None => self.err("unterminated processing instruction"),
        }
    }
}

/// Finds `ab` (then `c`, when given) — the `-->` / `]]>` terminator scan.
pub(crate) fn find_terminated(hay: &[u8], a: u8, b: u8, c: Option<u8>) -> Option<usize> {
    let Some(c) = c else {
        return scan::find_seq2(hay, a, b);
    };
    let mut from = 0;
    while let Some(i) = scan::find_seq2(&hay[from..], a, b) {
        let at = from + i;
        if hay.get(at + 2) == Some(&c) {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

/// Decodes the five predefined entities and decimal/hex character
/// references into an owned string. Callers' byte scans already proved
/// `raw` contains a `&` (one pass over the text, not two); reference-free
/// values never reach this and stay borrowed.
pub(crate) fn decode_entities(raw: &str, at: usize) -> Result<String, XmlError> {
    let mut out = String::with_capacity(raw.len());
    let mut it = raw.char_indices();
    while let Some((i, c)) = it.next() {
        if c != '&' {
            out.push(c);
            continue;
        }
        let rest = &raw[i + 1..];
        let Some(end) = rest.find(';') else {
            return Err(XmlError::new("unterminated entity reference", at + i));
        };
        let ent = &rest[..end];
        let decoded = match ent {
            "lt" => '<',
            "gt" => '>',
            "amp" => '&',
            "apos" => '\'',
            "quot" => '"',
            _ => {
                if let Some(num) = ent.strip_prefix("#x").or_else(|| ent.strip_prefix("#X")) {
                    u32::from_str_radix(num, 16)
                        .ok()
                        .and_then(char::from_u32)
                        .ok_or_else(|| XmlError::new("bad character reference", at + i))?
                } else if let Some(num) = ent.strip_prefix('#') {
                    num.parse::<u32>()
                        .ok()
                        .and_then(char::from_u32)
                        .ok_or_else(|| XmlError::new("bad character reference", at + i))?
                } else {
                    return Err(XmlError::new(
                        format!("unknown entity &{ent}; (only predefined entities are supported)"),
                        at + i,
                    ));
                }
            }
        };
        out.push(decoded);
        // Advance the iterator past the entity.
        for _ in 0..ent.len() + 1 {
            it.next();
        }
    }
    Ok(out)
}

/// Parses an XML document into a data tree.
///
/// This is the event stream of [`EventParser`] folded into a
/// [`TreeBuilder`], so the tree and streaming paths share one lexer. If the
/// document has a `<!DOCTYPE root [ … ]>` with an internal subset, the
/// subset's `<!ELEMENT>`/`<!ATTLIST>` declarations are parsed into a
/// [`DtdStructure`] (rooted at the DOCTYPE name) and attributes declared
/// `IDREFS` are tokenized into value sets.
///
/// ```
/// use xic_xml::parse_document;
/// let doc = parse_document(r#"
/// <!DOCTYPE book [
///   <!ELEMENT book (entry, ref)>
///   <!ELEMENT entry EMPTY>
///   <!ELEMENT ref EMPTY>
///   <!ATTLIST entry isbn CDATA #REQUIRED>
///   <!ATTLIST ref to IDREFS #IMPLIED>
/// ]>
/// <book><entry isbn="1-55860"/><ref to="a b"/></book>"#).unwrap();
/// assert_eq!(doc.tree.label(doc.tree.root()).as_str(), "book");
/// let r = doc.tree.ext("ref").next().unwrap();
/// assert_eq!(doc.tree.attr(r, "to").unwrap().len(), 2);
/// ```
pub fn parse_document(src: &str) -> Result<ParsedDocument, XmlError> {
    let mut events = EventParser::new(src);
    let dtd = events.dtd()?.cloned();
    // The builder's name dictionary gives each spelling one id: a label
    // or attribute name allocates the first time it appears.
    let mut b = TreeBuilder::new();
    // Stack of (node, element name) for the open elements.
    let mut stack: Vec<(NodeId, &str)> = Vec::new();
    let mut root: Option<NodeId> = None;
    for event in &mut events {
        match event? {
            Event::Open { name, .. } => {
                let node = b.node(name);
                match stack.last() {
                    Some(&(parent, _)) => {
                        b.child(parent, node)
                            .map_err(|e| XmlError::from(e).locate(src))?;
                    }
                    None => root = Some(node),
                }
                stack.push((node, name));
            }
            Event::Attr {
                name,
                value,
                offset,
            } => {
                let &(node, elem) = stack.last().expect("Attr implies an open element");
                let added = if dtd.as_ref().is_some_and(|d| d.is_set_valued(elem, name)) {
                    let av = AttrValue::set(value.split_whitespace().map(str::to_string));
                    b.attr(node, name, av)
                } else {
                    b.attr_str(node, name, &value)
                };
                added.map_err(|e| {
                    XmlError::new(format!("attribute error: {e}"), offset).locate(src)
                })?;
            }
            Event::Text { value, .. } => {
                let &(node, _) = stack.last().expect("Text implies an open element");
                b.text(node, &value)
                    .map_err(|e| XmlError::from(e).locate(src))?;
            }
            Event::Close { .. } => {
                stack.pop();
            }
        }
    }
    let root = root.expect("a completed event stream contains a root element");
    let tree = b.finish(root).map_err(|e| XmlError::from(e).locate(src))?;
    Ok(ParsedDocument { tree, dtd })
}

pub(crate) fn parse_doctype(cur: &mut Cursor<'_>) -> Result<DtdStructure, XmlError> {
    assert!(cur.eat("<!DOCTYPE"));
    cur.skip_ws();
    let root = cur.name()?.to_string();
    cur.skip_ws();
    if !cur.eat("[") {
        return cur.err("expected '[' (only internal DTD subsets are supported)");
    }
    let subset_start = cur.pos;
    let Some(end) = cur.rest().find(']') else {
        return cur.err("unterminated DOCTYPE internal subset");
    };
    let subset = &cur.src[subset_start..subset_start + end];
    cur.pos += end + 1;
    cur.skip_ws();
    if !cur.eat(">") {
        return cur.err("expected '>' after DOCTYPE");
    }
    parse_dtd_declarations(subset, &root, subset_start)
}

/// Maximum element nesting depth accepted by the parser. The bound keeps
/// adversarially deep documents from exhausting downstream consumers that
/// hold per-open-element state (matching the guards of production XML
/// parsers).
pub const MAX_DEPTH: usize = 512;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_book_document() {
        let src = r#"<?xml version="1.0"?>
<!-- the running example of Section 1 -->
<book>
  <entry isbn="1-55860-622-X">
    <title>Data on the Web</title>
    <publisher>Morgan Kaufmann</publisher>
  </entry>
  <author>Serge Abiteboul</author>
  <author>Peter Buneman</author>
  <author>Dan Suciu</author>
  <section sid="intro">
    <title>Introduction</title>
    <text>Data on the web...</text>
    <section sid="sub1"><title>Audience</title></section>
  </section>
  <ref to="1-55860-622-X 0-201-53771-0"/>
</book>"#;
        let doc = parse_document(src).unwrap();
        let t = &doc.tree;
        assert!(doc.dtd.is_none());
        assert_eq!(t.label(t.root()).as_str(), "book");
        assert_eq!(t.ext("author").count(), 3);
        assert_eq!(t.ext("section").count(), 2);
        let entry = t.ext("entry").next().unwrap();
        assert_eq!(
            t.attr(entry, "isbn").unwrap().as_single().unwrap(),
            "1-55860-622-X"
        );
        // Without a DTD, `to` stays single-valued.
        let r = t.ext("ref").next().unwrap();
        assert_eq!(t.attr(r, "to").unwrap().len(), 1);
        let title = t.ext("title").next().unwrap();
        assert_eq!(t.text(title), "Data on the Web");
    }

    #[test]
    fn doctype_enables_idrefs_splitting() {
        let src = r#"<!DOCTYPE book [
  <!ELEMENT book (entry, ref)>
  <!ELEMENT entry (title)>
  <!ELEMENT title (#PCDATA)>
  <!ELEMENT ref EMPTY>
  <!ATTLIST entry isbn CDATA #REQUIRED>
  <!ATTLIST ref to IDREFS #IMPLIED>
]>
<book><entry isbn="x"><title>T</title></entry><ref to="x y z"/></book>"#;
        let doc = parse_document(src).unwrap();
        let dtd = doc.dtd.as_ref().unwrap();
        assert_eq!(dtd.root().as_str(), "book");
        assert!(dtd.is_set_valued("ref", "to"));
        let r = doc.tree.ext("ref").next().unwrap();
        let to = doc.tree.attr(r, "to").unwrap();
        assert_eq!(to.len(), 3);
        assert!(to.contains("y"));
    }

    #[test]
    fn entities_and_char_refs() {
        let doc = parse_document("<a x=\"&lt;&amp;&quot;&#65;&#x42;\">&gt;text&apos;</a>").unwrap();
        let t = &doc.tree;
        let a = t.root();
        assert_eq!(t.attr(a, "x").unwrap().as_single().unwrap(), "<&\"AB");
        assert_eq!(t.text(a), ">text'");
    }

    #[test]
    fn cdata_sections() {
        let doc = parse_document("<a><![CDATA[<not & markup>]]></a>").unwrap();
        assert_eq!(doc.tree.text(doc.tree.root()), "<not & markup>");
    }

    #[test]
    fn whitespace_only_text_dropped_mixed_kept() {
        let doc = parse_document("<a>\n  <b/>\n  mixed\n  <b/>\n</a>").unwrap();
        let t = &doc.tree;
        let a = t.root();
        assert_eq!(t.children(a).len(), 3); // b, text, b
        assert!(t.text(a).contains("mixed"));
    }

    #[test]
    fn self_closing_and_nested() {
        let doc = parse_document("<a><b/><c><d/></c></a>").unwrap();
        assert_eq!(doc.tree.len(), 4);
    }

    #[test]
    fn rejects_malformed_documents() {
        for src in [
            "",
            "<a>",
            "<a></b>",
            "<a><b></a></b>",
            "<a x=y/>",
            "<a x=\"1\" x=\"2\"/>",
            "<a>&unknown;</a>",
            "<a/><b/>",
            "text only",
            "<a><!-- unterminated </a>",
        ] {
            assert!(parse_document(src).is_err(), "should reject {src:?}");
        }
    }

    #[test]
    fn depth_guard_rejects_adversarial_nesting() {
        // Within the bound: fine.
        let deep_ok = format!("{}{}", "<a>".repeat(100), "</a>".repeat(100));
        assert_eq!(parse_document(&deep_ok).unwrap().tree.len(), 100);
        // Beyond the bound: a clean error, not unbounded consumer state.
        let n = super::MAX_DEPTH + 10;
        let deep_bad = format!("{}{}", "<a>".repeat(n), "</a>".repeat(n));
        let e = parse_document(&deep_bad).unwrap_err();
        assert!(e.message.contains("depth"), "{e}");
    }

    #[test]
    fn error_positions_are_plausible() {
        let e = parse_document("<a><b></c></a>").unwrap_err();
        assert!(e.offset >= 6, "{e}");
        assert!(e.to_string().contains("mismatched end tag"));
    }

    #[test]
    fn errors_carry_line_and_column() {
        // The bad end tag sits on line 3; `</c` starts at column 3.
        let e = parse_document("<a>\n  <b>\n  </c>\n</a>").unwrap_err();
        assert_eq!((e.line, e.col), (3, 6), "{e}");
        assert!(e.to_string().contains("at 3:6"), "{e}");
        // Single-line documents locate on line 1.
        let e = parse_document("<a x=1/>").unwrap_err();
        assert_eq!(e.line, 1, "{e}");
        assert!(e.col > 1, "{e}");
    }
}
