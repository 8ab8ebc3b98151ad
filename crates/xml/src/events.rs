//! SAX-style event parsing.
//!
//! [`EventParser`] lexes a document into a flat stream of
//! Open/Attr/Text/Close [`Event`]s without building a tree, which is what
//! lets the streaming validator run in O(depth) memory. It shares the
//! cursor, entity decoder and DOCTYPE machinery with the tree parser — in
//! fact [`parse_document`](crate::parse_document) is itself a consumer of
//! this stream, so the two paths cannot diverge on lexical questions
//! (whitespace dropping, CDATA, entity decoding, error positions).
//!
//! Event invariants, relied on by consumers:
//!
//! * events appear in document order; `Open`/`Close` nest properly and the
//!   stream ends exactly when the root closes (after trailing misc);
//! * all `Attr` events of an element immediately follow its `Open`;
//! * `Text` carries only non-ignorable character data: whitespace-only
//!   decoded runs are dropped, non-empty CDATA is kept verbatim;
//! * a self-closing `<a/>` yields `Open` (plus attributes) then `Close`.

use std::borrow::Cow;

use xic_constraints::DtdStructure;

use crate::parser::{decode_entities, find_terminated, parse_doctype, Cursor, XmlError, MAX_DEPTH};
use crate::scan;

/// One parse event. Borrowed slices point into the source text; attribute
/// and text values are borrowed too unless entity decoding forced a copy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event<'s> {
    /// `<name` — an element opens. Offset is the byte position of `<`.
    Open {
        /// The element name.
        name: &'s str,
        /// Byte offset of the `<` of the start tag.
        offset: usize,
    },
    /// One attribute of the most recently opened element.
    Attr {
        /// The attribute name.
        name: &'s str,
        /// The decoded attribute value.
        value: Cow<'s, str>,
        /// Byte offset of the attribute name.
        offset: usize,
    },
    /// A non-ignorable character data run (decoded text or CDATA).
    Text {
        /// The decoded text.
        value: Cow<'s, str>,
        /// Byte offset of the start of the run.
        offset: usize,
    },
    /// `</name>` (or the implicit close of `<name/>`).
    Close {
        /// The element name (always equal to the matching `Open`'s).
        name: &'s str,
        /// Byte offset of the `</` (or of the `/>` for self-closing tags).
        offset: usize,
    },
}

/// Parses `src` as a stream of events; alias for [`EventParser::new`].
pub fn parse_events(src: &str) -> EventParser<'_> {
    EventParser::new(src)
}

enum State {
    /// Prolog not consumed yet (XML declaration, comments, DOCTYPE).
    Prolog,
    /// Prolog consumed, root start tag not seen yet.
    BeforeRoot,
    /// Inside a start tag, emitting `Attr` events.
    InTag,
    /// Inside element content.
    Content,
    /// Root closed; only trailing misc may remain.
    Epilog,
    /// Stream exhausted (successfully or after an error).
    Done,
}

/// A pull parser producing [`Event`]s.
///
/// ```
/// use xic_xml::{parse_events, Event};
/// let mut ev = parse_events("<a x=\"1\"><b/>hi</a>");
/// assert!(matches!(ev.next(), Some(Ok(Event::Open { name: "a", .. }))));
/// assert!(matches!(ev.next(), Some(Ok(Event::Attr { name: "x", .. }))));
/// assert!(matches!(ev.next(), Some(Ok(Event::Open { name: "b", .. }))));
/// assert!(matches!(ev.next(), Some(Ok(Event::Close { name: "b", .. }))));
/// assert!(matches!(ev.next(), Some(Ok(Event::Text { .. }))));
/// assert!(matches!(ev.next(), Some(Ok(Event::Close { name: "a", .. }))));
/// assert!(ev.next().is_none());
/// ```
pub struct EventParser<'s> {
    cur: Cursor<'s>,
    state: State,
    dtd: Option<DtdStructure>,
    /// Names of the currently open elements (the O(depth) stack).
    stack: Vec<&'s str>,
    /// Attribute names seen in the current start tag (duplicate detection).
    attrs_seen: Vec<&'s str>,
    stats: ParseStats,
}

/// Cheap per-parse counters, maintained unconditionally — each is a plain
/// integer increment on an already-taken branch, so there is no observable
/// cost and no collector dependency in this crate. Consumers that surface
/// metrics read them once via [`EventParser::stats`] after the parse.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParseStats {
    /// Events produced so far (`Open`/`Attr`/`Text`/`Close`).
    pub events: u64,
    /// Text and attribute values whose entity decoding forced a copy
    /// (values containing at least one entity or character reference).
    pub entity_expansions: u64,
}

impl<'s> EventParser<'s> {
    /// A parser positioned at the start of `src`.
    pub fn new(src: &'s str) -> Self {
        EventParser {
            cur: Cursor::new(src),
            state: State::Prolog,
            dtd: None,
            stack: Vec::new(),
            attrs_seen: Vec::new(),
            stats: ParseStats::default(),
        }
    }

    /// Counters accumulated so far (final after the stream is exhausted).
    pub fn stats(&self) -> ParseStats {
        self.stats
    }

    /// Consumes the prolog (if not yet consumed) and returns the DTD from
    /// the `<!DOCTYPE … [ … ]>` internal subset, when present.
    pub fn dtd(&mut self) -> Result<Option<&DtdStructure>, XmlError> {
        self.ensure_prolog()?;
        Ok(self.dtd.as_ref())
    }

    /// Current byte offset into the source.
    pub fn offset(&self) -> usize {
        self.cur.pos
    }

    fn ensure_prolog(&mut self) -> Result<(), XmlError> {
        if !matches!(self.state, State::Prolog) {
            return Ok(());
        }
        loop {
            self.cur.skip_ws();
            if self.cur.skip_pi()? || self.cur.skip_comment()? {
                continue;
            }
            if self.cur.rest().starts_with("<!DOCTYPE") {
                self.dtd = Some(parse_doctype(&mut self.cur)?);
                continue;
            }
            break;
        }
        self.state = State::BeforeRoot;
        Ok(())
    }

    /// Lexes a start tag at the cursor (positioned at `<`). Emits `Open`.
    fn open_tag(&mut self) -> Result<Event<'s>, XmlError> {
        if self.stack.len() > MAX_DEPTH {
            return self.cur.err(format!(
                "element nesting exceeds the supported depth of {MAX_DEPTH}"
            ));
        }
        let offset = self.cur.pos;
        if !self.cur.eat("<") {
            return self.cur.err("expected an element start tag");
        }
        let name = self.cur.name()?;
        self.stack.push(name);
        self.attrs_seen.clear();
        self.state = State::InTag;
        Ok(Event::Open { name, offset })
    }

    /// One step inside a start tag: the next attribute, or tag end.
    fn in_tag(&mut self) -> Result<Option<Event<'s>>, XmlError> {
        self.cur.skip_ws();
        match self.cur.peek_byte() {
            Some(b'/') => {
                let offset = self.cur.pos;
                if !self.cur.eat("/>") {
                    return self.cur.err("expected '>'");
                }
                let name = self.stack.pop().expect("InTag implies an open element");
                self.state = if self.stack.is_empty() {
                    State::Epilog
                } else {
                    State::Content
                };
                Ok(Some(Event::Close { name, offset }))
            }
            Some(b'>') => {
                self.cur.pos += 1;
                self.state = State::Content;
                Ok(None)
            }
            Some(b)
                if scan::is_ascii_name_start(b)
                    || (b >= 0x80 && matches!(self.cur.peek(), Some(c) if c.is_alphabetic())) =>
            {
                let offset = self.cur.pos;
                let name = self.cur.name()?;
                if self.attrs_seen.contains(&name) {
                    return Err(XmlError::new(
                        format!("attribute error: attribute {name} set twice on one element"),
                        offset,
                    ));
                }
                self.attrs_seen.push(name);
                self.cur.skip_ws();
                if !self.cur.eat("=") {
                    return self.cur.err("expected '=' in attribute");
                }
                let value = parse_attr_value(&mut self.cur)?;
                Ok(Some(Event::Attr {
                    name,
                    value,
                    offset,
                }))
            }
            _ => self.cur.err("expected attribute or '>'"),
        }
    }

    /// One step inside element content; `None` means "consumed markup that
    /// produces no event, go around again".
    fn content(&mut self) -> Result<Option<Event<'s>>, XmlError> {
        let rest = self.cur.rest();
        if rest.starts_with("</") && !self.stack.is_empty() {
            let offset = self.cur.pos;
            self.cur.eat("</");
            let close = self.cur.name()?;
            let name = *self.stack.last().expect("checked non-empty");
            if close != name {
                return self.cur.err(format!(
                    "mismatched end tag: expected </{name}>, got </{close}>"
                ));
            }
            self.cur.skip_ws();
            if !self.cur.eat(">") {
                return self.cur.err("expected '>' in end tag");
            }
            self.stack.pop();
            if self.stack.is_empty() {
                self.state = State::Epilog;
            }
            return Ok(Some(Event::Close { name, offset }));
        }
        if self.cur.skip_comment()? || self.cur.skip_pi()? {
            return Ok(None);
        }
        if self.cur.eat("<![CDATA[") {
            let Some(end) = find_terminated(self.cur.bytes(), b']', b']', Some(b'>')) else {
                return self.cur.err("unterminated CDATA section");
            };
            let offset = self.cur.pos;
            let raw = &self.cur.rest()[..end];
            self.cur.pos += end + 3;
            if raw.is_empty() {
                return Ok(None);
            }
            return Ok(Some(Event::Text {
                value: Cow::Borrowed(raw),
                offset,
            }));
        }
        if rest.starts_with('<') {
            return self.open_tag().map(Some);
        }
        // Character data up to the next markup: one byte scan finds both
        // the terminating `<` and (en passant) whether entity decoding
        // will be needed, so clean text is borrowed without a second pass.
        let start = self.cur.pos;
        let bytes = self.cur.bytes();
        let first = scan::find_byte2(bytes, b'<', b'&');
        let (lt, has_amp) = match first {
            Some(i) if bytes[i] == b'<' => (i, false),
            Some(i) => match scan::find_byte(&bytes[i..], b'<') {
                Some(j) => (i + j, true),
                None => return self.cur.err("unterminated element (missing end tag)"),
            },
            None => return self.cur.err("unterminated element (missing end tag)"),
        };
        let raw = &self.cur.src[start..start + lt];
        self.cur.pos += lt;
        let text: Cow<'s, str> = if has_amp {
            Cow::Owned(decode_entities(raw, start)?)
        } else {
            Cow::Borrowed(raw)
        };
        if text.trim().is_empty() {
            return Ok(None);
        }
        Ok(Some(Event::Text {
            value: text,
            offset: start,
        }))
    }

    fn epilog(&mut self) -> Result<(), XmlError> {
        loop {
            self.cur.skip_ws();
            if self.cur.skip_pi()? || self.cur.skip_comment()? {
                continue;
            }
            break;
        }
        if !self.cur.rest().is_empty() {
            return self.cur.err("content after the root element");
        }
        self.state = State::Done;
        Ok(())
    }

    fn step(&mut self) -> Result<Option<Event<'s>>, XmlError> {
        loop {
            match self.state {
                State::Prolog => {
                    self.ensure_prolog()?;
                }
                State::BeforeRoot => {
                    // The prolog loop stops at the first non-misc token,
                    // which must be the root start tag.
                    if !self.cur.rest().starts_with('<') {
                        return self.cur.err("expected an element start tag");
                    }
                    return self.open_tag().map(Some);
                }
                State::InTag => {
                    if let Some(ev) = self.in_tag()? {
                        return Ok(Some(ev));
                    }
                }
                State::Content => {
                    if let Some(ev) = self.content()? {
                        return Ok(Some(ev));
                    }
                }
                State::Epilog => {
                    self.epilog()?;
                }
                State::Done => return Ok(None),
            }
        }
    }
}

impl<'s> Iterator for EventParser<'s> {
    type Item = Result<Event<'s>, XmlError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.step() {
            Ok(ev) => {
                if let Some(ev) = &ev {
                    self.stats.events += 1;
                    if matches!(
                        ev,
                        Event::Attr {
                            value: Cow::Owned(_),
                            ..
                        } | Event::Text {
                            value: Cow::Owned(_),
                            ..
                        }
                    ) {
                        self.stats.entity_expansions += 1;
                    }
                }
                ev.map(Ok)
            }
            Err(e) => {
                self.state = State::Done;
                Some(Err(e.locate(self.cur.src)))
            }
        }
    }
}

/// Lexes a quoted attribute value and decodes entities. Like text runs,
/// the value is scanned once: the closing quote and any `&` fall out of
/// the same byte pass.
fn parse_attr_value<'a>(cur: &mut Cursor<'a>) -> Result<Cow<'a, str>, XmlError> {
    cur.skip_ws();
    let quote = match cur.bump() {
        Some('"') => b'"',
        Some('\'') => b'\'',
        _ => return cur.err("expected quoted attribute value"),
    };
    let start = cur.pos;
    let bytes = cur.bytes();
    let first = scan::find_byte2(bytes, quote, b'&');
    let (end, has_amp) = match first {
        Some(i) if bytes[i] == quote => (i, false),
        Some(i) => match scan::find_byte(&bytes[i..], quote) {
            Some(j) => (i + j, true),
            None => return cur.err("unterminated attribute value"),
        },
        None => return cur.err("unterminated attribute value"),
    };
    let raw = &cur.src[start..start + end];
    cur.pos += end + 1;
    if has_amp {
        decode_entities(raw, start).map(Cow::Owned)
    } else {
        Ok(Cow::Borrowed(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(src: &str) -> Vec<Event<'_>> {
        parse_events(src).collect::<Result<Vec<_>, _>>().unwrap()
    }

    fn texts(src: &str) -> Vec<String> {
        events(src)
            .into_iter()
            .filter_map(|e| match e {
                Event::Text { value, .. } => Some(value.into_owned()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn event_stream_shape_and_order() {
        let evs = events(r#"<a x="1" y="2"><b/>mid<c>t</c></a>"#);
        let shape: Vec<String> = evs
            .iter()
            .map(|e| match e {
                Event::Open { name, .. } => format!("<{name}"),
                Event::Attr { name, value, .. } => format!("@{name}={value}"),
                Event::Text { value, .. } => format!("'{value}'"),
                Event::Close { name, .. } => format!("</{name}"),
            })
            .collect();
        assert_eq!(
            shape,
            ["<a", "@x=1", "@y=2", "<b", "</b", "'mid'", "<c", "'t'", "</c", "</a"]
        );
    }

    #[test]
    fn cdata_runs_stay_separate_and_verbatim() {
        // Adjacent CDATA sections and text produce one Text event each,
        // CDATA kept verbatim (no entity decoding), empty CDATA dropped.
        let t = texts("<a>x &amp; y<![CDATA[<raw & stuff>]]><![CDATA[]]><![CDATA[ ]]></a>");
        assert_eq!(t, ["x & y", "<raw & stuff>", " "]);
    }

    #[test]
    fn cdata_may_contain_markupish_text_and_brackets() {
        let t = texts("<a><![CDATA[a]]b</a><c>]]></a>");
        assert_eq!(t, ["a]]b</a><c>"]);
        let e = parse_events("<a><![CDATA[never closed</a>")
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert!(e.message.contains("unterminated CDATA"), "{e}");
    }

    #[test]
    fn entities_at_value_boundaries() {
        // References flush against the quotes / run edges decode correctly.
        let evs = events("<a x=\"&lt;mid&gt;\">&amp;start end&amp;</a>");
        match &evs[1] {
            Event::Attr { name, value, .. } => {
                assert_eq!(*name, "x");
                assert_eq!(value.as_ref(), "<mid>");
            }
            other => panic!("expected Attr, got {other:?}"),
        }
        assert_eq!(texts("<a>&amp;start end&amp;</a>"), ["&start end&"]);
        // A reference cut off by the end of its run is an error.
        let e = parse_events("<a>&amp</a>")
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert!(e.message.contains("entity"), "{e}");
    }

    #[test]
    fn borrowed_unless_decoding_forces_a_copy() {
        let evs = events("<a x=\"plain\">plain &lt;coded&gt;</a>");
        let borrowed: Vec<bool> = evs
            .iter()
            .filter_map(|e| match e {
                Event::Attr { value, .. } | Event::Text { value, .. } => {
                    Some(matches!(value, Cow::Borrowed(_)))
                }
                _ => None,
            })
            .collect();
        assert_eq!(borrowed, [true, false]);
    }

    #[test]
    fn mismatched_and_stray_close_tags() {
        let e = parse_events("<a><b></c></b></a>")
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert!(
            e.message.contains("expected </b>, got </c>"),
            "message: {}",
            e.message
        );
        assert!(e.line == 1 && e.col > 1, "{e}");
        // Interleaved (non-well-nested) tags report the inner expectation.
        let e = parse_events("<a><b></a></b>")
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert!(e.message.contains("expected </b>, got </a>"), "{e}");
        // A close tag with no open element at all.
        assert!(parse_events("</a>").collect::<Result<Vec<_>, _>>().is_err());
    }

    #[test]
    fn duplicate_attributes_rejected_in_the_lexer() {
        let e = parse_events("<a x=\"1\" x=\"2\"/>")
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert!(e.message.contains("set twice"), "{e}");
    }

    #[test]
    fn self_closing_emits_open_then_close() {
        let evs = events("<a><b x=\"1\"/></a>");
        assert!(matches!(evs[1], Event::Open { name: "b", .. }));
        assert!(matches!(evs[2], Event::Attr { name: "x", .. }));
        assert!(matches!(evs[3], Event::Close { name: "b", .. }));
    }

    #[test]
    fn prolog_dtd_is_exposed_before_the_first_event() {
        let src = r#"<!DOCTYPE r [
  <!ELEMENT r EMPTY>
  <!ATTLIST r to IDREFS #IMPLIED>
]>
<r to="a b"/>"#;
        let mut ev = parse_events(src);
        let dtd = ev.dtd().unwrap().cloned().unwrap();
        assert!(dtd.is_set_valued("r", "to"));
        // The stream itself is unaffected by the dtd() call.
        assert!(matches!(ev.next(), Some(Ok(Event::Open { name: "r", .. }))));
    }

    #[test]
    fn depth_guard_matches_tree_parser() {
        let n = MAX_DEPTH + 2;
        let deep = format!("{}{}", "<a>".repeat(n), "</a>".repeat(n));
        let e = parse_events(&deep)
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert!(e.message.contains("depth"), "{e}");
        let ok = format!("{}{}", "<a>".repeat(MAX_DEPTH), "</a>".repeat(MAX_DEPTH));
        assert_eq!(
            events(&ok).len(),
            2 * MAX_DEPTH,
            "exactly MAX_DEPTH nesting is accepted"
        );
    }

    #[test]
    fn trailing_content_and_truncation_errors() {
        for (src, needle) in [
            ("<a></a><b/>", "content after the root"),
            ("<a>", "missing end tag"),
            ("<a", "expected attribute or '>'"),
            ("", "expected an element start tag"),
            ("just text", "expected an element start tag"),
        ] {
            let e = parse_events(src)
                .collect::<Result<Vec<_>, _>>()
                .unwrap_err();
            assert!(e.message.contains(needle), "{src:?}: {e}");
        }
    }

    #[test]
    fn iterator_fuses_after_an_error() {
        let mut ev = parse_events("<a></b>");
        assert!(matches!(ev.next(), Some(Ok(Event::Open { .. }))));
        assert!(matches!(ev.next(), Some(Err(_))));
        assert!(ev.next().is_none());
    }

    #[test]
    fn offsets_point_into_the_source() {
        let src = "<a>text<b/></a>";
        for e in events(src) {
            match e {
                Event::Open { name, offset } => {
                    assert!(src[offset..].starts_with(&format!("<{name}")))
                }
                Event::Text { offset, .. } => assert!(src[offset..].starts_with("text")),
                Event::Close { offset, .. } => {
                    assert!(src[offset..].starts_with("</") || src[offset..].starts_with("/>"))
                }
                Event::Attr { offset, name, .. } => assert!(src[offset..].starts_with(name)),
            }
        }
    }
}
