//! Streaming validation: one pass over the event stream, no [`DataTree`].
//!
//! [`Validator::validate_stream`] consumes the SAX-style event stream of
//! [`xic_xml::parse_events`] and produces a [`Report`] **byte-identical**
//! to [`Validator::validate`] on the parsed tree, while keeping only
//! O(depth) structural state plus the planned constraint columns:
//!
//! * each open element of a declared type holds one DFA state, stepped
//!   on every child symbol, so content models are checked as the children
//!   arrive; the child word itself is recorded compactly (see [`Frame`])
//!   and rendered only if the content model rejects it;
//! * attribute clauses run when an element's start tag completes ("seal"),
//!   over the attributes in document order, and report in the name order
//!   the tree's attribute view has;
//! * the PR-1 columnar [`DocIndex`] is filled on the fly: every planned
//!   `(τ, field)` column receives its `ext(τ)`-aligned entry the moment
//!   the carrying element seals (attributes) or closes (unique
//!   sub-elements), and constraint checking then proceeds on the exact
//!   engine the tree path uses ([`check_planned`]).
//!
//! ## The hot path allocates nothing per element (§4.12)
//!
//! Everything the event loop needs about an element-name *spelling* —
//! interned label, matcher, column recipe, declared attributes, the
//! document DTD's set-splitting rule — is resolved once, on first sight,
//! into an [`ElemInfo`] fetched by one `FastHashMap` probe per event.
//! So is each (element, attribute) spelling pair, into a [`Role`] numbered
//! per element type (so the tables grow with the pairs a document holds),
//! and the seal compares no names unless it has attribute violations to
//! order.
//! Attribute values ride through the seal as borrowed [`Cow`]s (no
//! `AttrValue` materialization), set values tokenize into sorted byte
//! ranges in one reused buffer, child words are recorded as `u32` info ids
//! with repeat marks (rendered only if a `ContentModel` violation is
//! actually reported), extents accumulate in per-spelling `Vec<NodeId>`
//! columns, and closed frames return to a pool so steady-state streaming
//! allocates nothing per element.
//!
//! The one hash per value is the interner's, and it is paid in groups: a
//! planned value is not interned where it is read. Its column entry gets a
//! placeholder, and its bytes are queued, with that entry as their
//! destination, in a reused buffer ([`ColumnFill`]). Every
//! [`Interner::GROUP`] values the queue goes through one
//! [`Interner::intern_group`] call, whose table loads overlap instead of
//! each costing a dependent cache miss, and the symbols are written back.
//!
//! ## Order preservation
//!
//! The tree engine reports structural violations grouped by node id, which
//! equals element-open order. Streaming discovers them in a different
//! order (a `ContentModel` violation of a parent surfaces after all its
//! children close), so every structural violation is tagged with its
//! node's open index and the list is stably sorted once at the end —
//! within one node the push order already matches the tree engine
//! (content model, then attribute clauses in name order, which the seal
//! restores for attributes read in document order). Constraint
//! violations follow in Σ order, appended by the shared checker. This
//! holds at any thread count: events are always lexed and applied in one
//! pull loop on the calling thread, and only the final constraint pass
//! fans out.

use std::borrow::Cow;
use std::collections::HashMap;

use xic_constraints::{AttrType, DtdC, DtdStructure, Field};
use xic_model::{ExtIndex, FastHashMap, Interner, Name, NodeId, Sym};
use xic_obs::Obs;
use xic_regex::{Dfa, Symbol};
use xic_xml::{parse_events, Event, EventParser, XmlError};

use crate::plan::{check_planned, DocIndex, Plan, SetCol, TauPlan};
use crate::report::{Report, Violation};
use crate::structure::Validator;

#[cfg(doc)]
use xic_model::DataTree;

/// Everything the event loop needs about one element-name spelling,
/// resolved once when the spelling is first seen and addressed by dense id
/// thereafter — the hot path pays one hash probe per event instead of one
/// per map (symbol cache, matcher, τ-plan, extent, DTD attribute tables).
struct ElemInfo<'v> {
    label: Name,
    /// `Symbol::Elem(label)`, for stepping parent matchers.
    sym: Symbol,
    /// Content-model DFA; `None` for element types the `DTD^C` does not
    /// declare (which skip structural checks, as in the tree path).
    matcher: Option<&'v Dfa>,
    /// The plan's columns of this type, when Σ reads it.
    plan: Option<&'v TauPlan>,
    /// `|Att(τ)|` in the `DTD^C`: a seal that saw fewer declared
    /// attributes looks for the missing ones.
    n_decls: usize,
    /// The attribute spellings seen on this type, each numbered by its
    /// index in `roles`: the numbering is per type, so the tables grow
    /// with the (element, attribute) pairs the document holds, not with
    /// element types × attribute names.
    attr_lookup: FastHashMap<Name, u32>,
    /// Per attribute seen on this type, in first-seen order, its [`Role`].
    roles: Vec<Role>,
}

/// What one attribute spelling means on one element type, resolved on the
/// pair's first sight so that sealing a start tag compares no names.
struct Role {
    /// The attribute's spelling, for the violations that name it.
    name: Name,
    /// `R(τ, l)` in the `DTD^C`; `None` when it does not declare `l`.
    decl: Option<AttrType>,
    /// Whether the *document's* DTD tokenizes the value into a set.
    set_valued: bool,
    /// The planned single-valued and set-valued columns the value feeds.
    single: Option<usize>,
    set: Option<usize>,
}

/// In a recorded child word, an entry with this bit set is a repeat mark:
/// the child before it occurs `entry & !REPEAT` more times.
const REPEAT: u32 = 1 << 31;

/// In a recorded child word, the entry for a text child (`Symbol::S`);
/// element children are recorded as their `ElemInfo` id, below it.
const WORD_S: u32 = REPEAT - 1;

/// One open element (the O(depth) stack entry). Frames live permanently in
/// the checker's stack storage and are re-initialized in place (buffers
/// cleared, capacity kept), so steady-state streaming neither allocates
/// nor copies a frame per element.
#[derive(Default)]
struct Frame<'s> {
    /// Open index of this element — identical to the tree path's node id.
    node: u32,
    /// Position of this element in `ext(label)`.
    ext_pos: u32,
    /// Id of this element's [`ElemInfo`].
    info: u32,
    /// The content-model DFA's state after the children read so far;
    /// `None` is the dead state. Unused for undeclared element types
    /// (their `ElemInfo::matcher` is `None`).
    state: Option<usize>,
    /// Whether the start tag is complete (attributes checked, columns
    /// filled). Sealing happens on the first non-`Attr` event.
    sealed: bool,
    /// The child word: one entry per child (`ElemInfo` id, or [`WORD_S`]
    /// for text), except that a run of equal children is its first entry
    /// and one [`REPEAT`] mark (see [`push_word`]). Recorded only for a
    /// declared element type; rendered only if its `ContentModel`
    /// violation is actually reported.
    word: Vec<u32>,
    /// Attributes collected until the seal, in document order:
    /// `(role index in the type's ElemInfo, raw entity-decoded value)`.
    /// Tokenization and interning happen at the seal.
    pending_attrs: Vec<(u32, Cow<'s, str>)>,
    /// Attribute violations, held back so they follow a `ContentModel`
    /// violation of the same node (the tree path's per-node order).
    attr_viols: Vec<Violation>,
    /// Per [`TauPlan::singles`] entry that is a sub-element field: how
    /// many children with that label closed. The first one's text is
    /// queued as the field value, which stands iff the count ends at
    /// exactly one (§3.4's *unique* sub-element). Attribute entries stay
    /// at a zero count.
    subs: Vec<u32>,
    /// The slot in the parent's `subs` this element reports to, if its
    /// label is a planned sub-element field of the parent's type.
    sub_slot: Option<usize>,
    /// Immediate text, collected only when `sub_slot` is set.
    text: String,
}

/// Where a queued value's symbol goes.
#[derive(Clone, Copy, Debug)]
enum Dest {
    /// Row `row` of single-valued column `col`.
    Single { col: usize, row: usize },
    /// Member slot `slot` of set-valued column `col`.
    Set { col: usize, slot: usize },
}

/// The planned columns under construction, with the values that still
/// wait to be interned into them. A queued value's entry holds a
/// placeholder (`None`, or an unfilled [`SetCol`] slot) until the queue is
/// flushed: every [`Interner::GROUP`] values, before an entry is
/// overwritten, and at the end of the pass.
struct ColumnFill {
    interner: Interner,
    /// The plan's columns, in plan order.
    singles: Vec<Vec<Option<Sym>>>,
    sets: Vec<SetCol>,
    /// Queued values' bytes, back to back.
    bytes: Vec<u8>,
    /// Each queued value's `(start, end)` in `bytes`.
    ranges: Vec<(usize, usize)>,
    /// Each queued value's destination, parallel to `ranges`.
    dests: Vec<Dest>,
    /// The symbols of one flush (kept for its capacity).
    syms: Vec<Sym>,
}

impl ColumnFill {
    fn new(plan: &Plan) -> Self {
        ColumnFill {
            interner: Interner::new(),
            singles: vec![Vec::new(); plan.singles.len()],
            sets: vec![SetCol::default(); plan.sets.len()],
            bytes: Vec::new(),
            ranges: Vec::new(),
            dests: Vec::new(),
            syms: Vec::new(),
        }
    }

    /// Queues `value` for interning into `dest`, flushing a full group.
    #[inline]
    fn queue(&mut self, value: &[u8], dest: Dest) {
        let start = self.bytes.len();
        self.bytes.extend_from_slice(value);
        self.ranges.push((start, self.bytes.len()));
        self.dests.push(dest);
        if self.dests.len() == Interner::GROUP {
            self.flush();
        }
    }

    /// Interns every queued value and writes its symbol to its entry.
    fn flush(&mut self) {
        self.syms.clear();
        self.interner
            .intern_group(&self.bytes, &self.ranges, &mut self.syms);
        for (dest, &sym) in self.dests.iter().zip(&self.syms) {
            match *dest {
                Dest::Single { col, row } => self.singles[col][row] = Some(sym),
                Dest::Set { col, slot } => self.sets[col].fill(slot, sym),
            }
        }
        self.bytes.clear();
        self.ranges.clear();
        self.dests.clear();
    }
}

/// The single-pass checker: feed [`Event`]s in document order via
/// [`StreamChecker::on_event`], then call [`StreamChecker::finish`].
pub(crate) struct StreamChecker<'v, 's> {
    dtdc: &'v DtdC,
    s: &'v DtdStructure,
    matchers: &'v HashMap<Name, Dfa>,
    plan: &'v Plan,
    strict: bool,
    /// The *document's* internal-subset DTD, deciding which attribute
    /// values tokenize into sets — exactly as `parse_document` does.
    doc_dtd: Option<DtdStructure>,
    /// Frame storage: the live stack is `stack[..depth]`. Frames are
    /// (re)initialized *in place* — a close just decrements `depth`, so no
    /// frame bytes are ever copied and every buffer keeps its capacity for
    /// the next element at that depth.
    stack: Vec<Frame<'s>>,
    depth: usize,
    /// Count of opened elements; the next element's node id.
    node_count: u32,
    /// Structural violations tagged with their node's open index.
    tagged: Vec<(u32, Violation)>,
    /// Per-spelling records, in first-seen order.
    elems: Vec<ElemInfo<'v>>,
    elem_lookup: FastHashMap<Name, u32>,
    /// `ext(label)` columns parallel to `elems`; assembled into an
    /// [`ExtIndex`] once, at finish.
    exts: Vec<Vec<NodeId>>,
    /// The plan's columns, filled as elements seal/close.
    cols: ColumnFill,
    /// Reusable buffer for a set value's token ranges ([`set_tokens`]).
    tokens: Vec<(usize, usize)>,
    /// The validator's observability handle (off by default). Per-event
    /// totals below are plain fields — never collector calls on the hot
    /// path — flushed once in [`StreamChecker::finish`].
    obs: Obs,
    /// Deepest `stack` length seen (peak in-flight frames).
    max_depth: usize,
    /// Attributes sealed across all elements.
    attr_count: u64,
}

/// The attribute an undeclared or not-singleton violation names.
fn clause_attr(v: &Violation) -> &Name {
    match v {
        Violation::UndeclaredAttribute { attr, .. } | Violation::NotSingleton { attr, .. } => attr,
        _ => unreachable!("sorted before missing attributes join them"),
    }
}

/// Fills `tokens` with the byte ranges of `raw`'s whitespace-separated
/// tokens in `AttrValue::set` order (sorted by string, distinct). Ordering
/// byte ranges in a reused buffer allocates nothing per row and reads the
/// input, not the pool.
fn set_tokens(raw: &str, tokens: &mut Vec<(usize, usize)>) {
    let base = raw.as_ptr() as usize;
    tokens.clear();
    tokens.extend(raw.split_whitespace().map(|t| {
        let start = t.as_ptr() as usize - base;
        (start, start + t.len())
    }));
    tokens.sort_unstable_by(|a, b| raw[a.0..a.1].cmp(&raw[b.0..b.1]));
    tokens.dedup_by(|a, b| raw[a.0..a.1] == raw[b.0..b.1]);
}

/// Appends one child to a recorded word. A child equal to the one before
/// it starts or extends a repeat mark instead of taking an entry, so a word
/// never has more entries than children, and a run of equal children (the
/// usual shape of a wide `(a*, b*)` node) costs two entries.
fn push_word(word: &mut Vec<u32>, w: u32) {
    match *word.as_mut_slice() {
        [.., prev, ref mut mark] if *mark & REPEAT != 0 && prev == w && *mark != u32::MAX => {
            *mark += 1;
        }
        [.., prev] if prev == w => word.push(REPEAT | 1),
        _ => word.push(w),
    }
}

/// Renders a recorded child word the way the tree path would (`", "`-joined
/// `Symbol` displays) — paid only when a `ContentModel` violation reports.
fn render_word(elems: &[ElemInfo<'_>], word: &[u32]) -> String {
    let mut out = String::new();
    let mut label = "";
    for &w in word {
        let times = if w & REPEAT != 0 {
            w & !REPEAT
        } else {
            label = if w == WORD_S {
                "S"
            } else {
                elems[w as usize].label.as_str()
            };
            1
        };
        for _ in 0..times {
            if !out.is_empty() {
                out.push_str(", ");
            }
            out.push_str(label);
        }
    }
    out
}

impl<'v, 's> StreamChecker<'v, 's> {
    pub(crate) fn new(v: &'v Validator<'_>, doc_dtd: Option<DtdStructure>) -> Self {
        StreamChecker {
            dtdc: v.dtdc,
            s: v.dtdc.structure(),
            matchers: &v.matchers,
            plan: &v.plan,
            strict: v.options.strict_attributes,
            doc_dtd,
            stack: Vec::new(),
            depth: 0,
            node_count: 0,
            tagged: Vec::new(),
            elems: Vec::new(),
            elem_lookup: FastHashMap::default(),
            exts: Vec::new(),
            cols: ColumnFill::new(&v.plan),
            tokens: Vec::new(),
            obs: v.obs.clone(),
            max_depth: 0,
            attr_count: 0,
        }
    }

    /// The dense id of an element-name spelling (resolving it on first
    /// sight).
    fn elem_id(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.elem_lookup.get(name) {
            return id;
        }
        self.elem_id_slow(name)
    }

    #[cold]
    fn elem_id_slow(&mut self, name: &str) -> u32 {
        let label = Name::new(name);
        let info = ElemInfo {
            sym: Symbol::Elem(label.clone()),
            matcher: self.matchers.get(name),
            plan: self.plan.taus.get(name),
            n_decls: self.s.attributes(name).count(),
            attr_lookup: FastHashMap::default(),
            roles: Vec::new(),
            label: label.clone(),
        };
        let id = u32::try_from(self.elems.len())
            .ok()
            .filter(|&id| id < WORD_S)
            .expect("spelling count fits below the word's marks");
        self.elems.push(info);
        self.exts.push(Vec::new());
        self.elem_lookup.insert(label, id);
        id
    }

    /// The index of attribute spelling `name`'s [`Role`] on element
    /// spelling `iid` (resolving the pair on first sight).
    fn role_id(&mut self, iid: u32, name: &str) -> u32 {
        if let Some(&id) = self.elems[iid as usize].attr_lookup.get(name) {
            return id;
        }
        self.resolve_role(iid, name)
    }

    #[cold]
    fn resolve_role(&mut self, iid: u32, name: &str) -> u32 {
        let info = &mut self.elems[iid as usize];
        let tau = &info.label;
        let l = Name::new(name);
        let role = Role {
            decl: self.s.attr_type(tau, &l),
            // Same set-splitting rule as `parse_document`: the document's
            // DTD decides, not the DTD^C being validated against.
            set_valued: self
                .doc_dtd
                .as_ref()
                .is_some_and(|d| d.is_set_valued(tau, &l)),
            single: self.plan.single_col(tau, &Field::Attr(l.clone())),
            set: self.plan.set_col(tau, &l),
            name: l.clone(),
        };
        let id = u32::try_from(info.roles.len()).expect("attribute count fits u32");
        info.roles.push(role);
        info.attr_lookup.insert(l, id);
        id
    }

    /// Applies one event. Events must arrive in document order.
    pub(crate) fn on_event(&mut self, ev: Event<'s>) {
        match ev {
            Event::Open { name, .. } => self.open(name),
            Event::Attr { name, value, .. } => self.attr(name, value),
            Event::Text { value, .. } => self.text(&value),
            Event::Close { .. } => self.close(),
        }
    }

    fn open(&mut self, name: &str) {
        self.seal_top();
        let iid = self.elem_id(name);
        let node = self.node_count;
        self.node_count += 1;
        let node_id = NodeId::from_index(node as usize);
        let info = &self.elems[iid as usize];
        let mut sub_slot = None;
        match self.stack[..self.depth].last_mut() {
            Some(parent) => {
                if let Some(dfa) = self.elems[parent.info as usize].matcher {
                    parent.state = parent.state.and_then(|q| dfa.step(q, &info.sym));
                    push_word(&mut parent.word, iid);
                }
                if let Some(tp) = self.elems[parent.info as usize].plan {
                    sub_slot = tp
                        .singles
                        .iter()
                        .position(|(f, _)| matches!(f, Field::Sub(e) if *e == info.label));
                }
            }
            None => {
                if info.label != *self.s.root() {
                    self.tagged.push((
                        node,
                        Violation::RootLabel {
                            expected: self.s.root().clone(),
                            found: info.label.clone(),
                        },
                    ));
                }
            }
        }
        if info.matcher.is_none() {
            self.tagged.push((
                node,
                Violation::UnknownElementType {
                    node: node_id,
                    label: info.label.clone(),
                },
            ));
        }
        let n_subs = info.plan.map_or(0, |tp| tp.singles.len());
        let ext = &mut self.exts[iid as usize];
        let ext_pos = u32::try_from(ext.len()).expect("extent fits u32");
        ext.push(node_id);
        if self.depth == self.stack.len() {
            self.stack.push(Frame::default());
        }
        let frame = &mut self.stack[self.depth];
        frame.node = node;
        frame.ext_pos = ext_pos;
        frame.info = iid;
        frame.state = info.matcher.map(Dfa::start);
        frame.sealed = false;
        frame.sub_slot = sub_slot;
        frame.subs.resize(n_subs, 0);
        self.depth += 1;
        if self.depth > self.max_depth {
            self.max_depth = self.depth;
        }
    }

    fn attr(&mut self, name: &str, value: Cow<'s, str>) {
        let iid = self.stack[..self.depth]
            .last()
            .expect("Attr events follow an Open")
            .info;
        let id = self.role_id(iid, name);
        self.stack[self.depth - 1].pending_attrs.push((id, value));
    }

    fn text(&mut self, value: &str) {
        self.seal_top();
        let top = self.stack[..self.depth]
            .last_mut()
            .expect("Text occurs inside the root");
        if let Some(dfa) = self.elems[top.info as usize].matcher {
            top.state = top.state.and_then(|q| dfa.step(q, &Symbol::S));
            push_word(&mut top.word, WORD_S);
        }
        if top.sub_slot.is_some() {
            top.text.push_str(value);
        }
    }

    /// Completes the top element's start tag: runs the attribute clauses
    /// of Definition 2.4 and fills its row of every planned attribute
    /// column, walking the attributes in document order through their
    /// resolved [`Role`]s. Runs exactly once per element — every event
    /// after the attributes (child open, text, close) lands here first.
    fn seal_top(&mut self) {
        let Some(top) = self.stack[..self.depth].last_mut() else {
            return;
        };
        if top.sealed {
            return;
        }
        top.sealed = true;
        self.attr_count += top.pending_attrs.len() as u64;
        let info = &self.elems[top.info as usize];
        let node_id = NodeId::from_index(top.node as usize);
        let row = top.ext_pos as usize;
        // Column fill runs by label, declared or not, because `ext(τ)` (and
        // hence the tree path's columns) includes undeclared nodes too.
        // Every single-valued entry starts as a placeholder (keeping the
        // column ext-aligned); a value is queued for it. Sub-element
        // fields get their value at close, when the children — and hence
        // uniqueness — are known.
        if let Some(tp) = info.plan {
            for &(_, col) in &tp.singles {
                debug_assert_eq!(self.cols.singles[col].len(), row);
                self.cols.singles[col].push(None);
            }
        }
        // Attribute clauses — skipped for undeclared element types, like
        // the tree path (which `continue`s after UnknownElementType).
        let clauses = info.matcher.is_some();
        let mut declared = 0;
        for (id, raw) in &top.pending_attrs {
            let role = &info.roles[*id as usize];
            // The value's members as its `AttrValue` would hold them: the
            // whole string, or the document DTD's sorted distinct tokens.
            if role.set_valued {
                set_tokens(raw, &mut self.tokens);
            } else {
                self.tokens.clear();
                self.tokens.push((0, raw.len()));
            }
            let members = &self.tokens;
            if clauses {
                match role.decl {
                    None => top.attr_viols.push(Violation::UndeclaredAttribute {
                        node: node_id,
                        attr: role.name.clone(),
                    }),
                    Some(ty) => {
                        declared += 1;
                        if ty == AttrType::Single && members.len() != 1 {
                            top.attr_viols.push(Violation::NotSingleton {
                                node: node_id,
                                attr: role.name.clone(),
                                len: members.len(),
                            });
                        }
                    }
                }
            }
            // A single-valued field reads the sole member, as
            // `AttrValue::as_single` does.
            if let (Some(col), &[(start, end)]) = (role.single, &members[..]) {
                let dest = Dest::Single { col, row };
                self.cols.queue(&raw.as_bytes()[start..end], dest);
            }
            if let Some(col) = role.set {
                debug_assert_eq!(self.cols.sets[col].len(), row);
                let first = self.cols.sets[col].push_unfilled(members.len());
                for (k, &(start, end)) in members.iter().enumerate() {
                    let dest = Dest::Set {
                        col,
                        slot: first + k,
                    };
                    self.cols.queue(&raw.as_bytes()[start..end], dest);
                }
            }
        }
        // The tree path reports a node's attribute clauses in name order.
        if top.attr_viols.len() > 1 {
            top.attr_viols
                .sort_by(|a, b| clause_attr(a).cmp(clause_attr(b)));
        }
        // Attribute names are distinct within a start tag, so a declared
        // attribute is missing exactly when fewer were seen than declared.
        if clauses && self.strict && declared < info.n_decls {
            for (l, _) in self.s.attributes(&info.label) {
                let seen = top
                    .pending_attrs
                    .iter()
                    .any(|(id, _)| info.roles[*id as usize].name == *l);
                if !seen {
                    top.attr_viols.push(Violation::MissingAttribute {
                        node: node_id,
                        attr: l.clone(),
                    });
                }
            }
        }
        // Set columns no attribute filled get an empty row.
        if let Some(tp) = info.plan {
            for &(_, col) in &tp.sets {
                if self.cols.sets[col].len() == row {
                    self.cols.sets[col].push_row([]);
                }
            }
        }
    }

    fn close(&mut self) {
        self.seal_top();
        assert!(self.depth > 0, "Close matches an Open");
        self.depth -= 1;
        let (parents, rest) = self.stack.split_at_mut(self.depth);
        let frame = &mut rest[0];
        let info = &self.elems[frame.info as usize];
        let node_id = NodeId::from_index(frame.node as usize);
        if let Some(dfa) = info.matcher {
            if !frame.state.is_some_and(|q| dfa.is_accepting(q)) {
                self.tagged.push((
                    frame.node,
                    Violation::ContentModel {
                        node: node_id,
                        tau: info.label.clone(),
                        expected: self
                            .s
                            .content_model(info.label.as_str())
                            .map(ToString::to_string)
                            .unwrap_or_default(),
                        found: render_word(&self.elems, &frame.word),
                    },
                ));
            }
        }
        for v in frame.attr_viols.drain(..) {
            self.tagged.push((frame.node, v));
        }
        // A sub-element field with a second child of its label is
        // undefined: the first child's queued text must land before the
        // entry is cleared (an attribute entry's count stays 0).
        if let Some(tp) = info.plan {
            for (&count, &(_, col)) in frame.subs.iter().zip(&tp.singles) {
                if count >= 2 {
                    self.cols.flush();
                    self.cols.singles[col][frame.ext_pos as usize] = None;
                }
            }
        }
        // Report to the parent's unique-sub-element tracking: the first
        // child with this label queues its text as the field value.
        if let Some(slot) = frame.sub_slot {
            if let Some(parent) = parents.last_mut() {
                let count = &mut parent.subs[slot];
                *count += 1;
                if *count == 1 {
                    let ptp = self.elems[parent.info as usize]
                        .plan
                        .expect("a sub slot implies the parent's plan");
                    let dest = Dest::Single {
                        col: ptp.singles[slot].1,
                        row: parent.ext_pos as usize,
                    };
                    self.cols.queue(frame.text.as_bytes(), dest);
                }
            }
        }
        // Clear the buffers (keeping capacity) for the next element that
        // opens at this depth; the frame itself never moves.
        frame.word.clear();
        frame.pending_attrs.clear();
        frame.subs.clear();
        frame.text.clear();
    }

    /// Sorts the structural violations into node order and runs the shared
    /// constraint checker over the streamed columns.
    pub(crate) fn finish(mut self, threads: usize) -> Report {
        debug_assert!(self.depth == 0, "finish before the root closed");
        self.cols.flush();
        let obs = self.obs.clone();
        // The deferred node-order sort is streaming's share of the
        // "structure" phase; everything else structural happened inside
        // the fused "parse" pass (see DESIGN.md §4.10).
        let mut violations: Vec<Violation> = {
            let _structure = obs.span("structure");
            self.tagged.sort_by_key(|&(n, _)| n); // stable: per-node order kept
            self.tagged.into_iter().map(|(_, v)| v).collect()
        };
        let interned = self.cols.interner.stats();
        let mut pool = self.cols.interner;
        let mut ext = ExtIndex::empty();
        let doc = {
            let _plan = obs.span("plan");
            // Checking only resolves symbols, never interns, so the pool's
            // lookup table (its largest part) is freed before checking
            // allocates.
            pool.release_table();
            for (info, ids) in self.elems.iter().zip(self.exts) {
                ext.insert_extent(info.label.clone(), ids);
            }
            DocIndex::from_parts(&pool, self.cols.singles, self.cols.sets, &ext, self.plan)
        };
        check_planned(
            &ext,
            self.dtdc,
            &doc,
            threads,
            self.node_count as usize,
            &obs,
            &mut violations,
        );
        if obs.enabled() {
            obs.add("intern.values", interned.values);
            obs.add("intern.symbols", interned.symbols);
            obs.add("intern.probe_steps", interned.probe_steps);
            obs.add("intern.growths", interned.growths);
            obs.add("nodes", u64::from(self.node_count));
            obs.add("attrs", self.attr_count);
            obs.add("violations", violations.len() as u64);
            obs.max("stream.peak_depth", self.max_depth as u64);
        }
        Report {
            violations,
            metrics: obs.snapshot(),
        }
    }
}

impl Validator<'_> {
    /// Validates a document directly from its source text, without ever
    /// materializing a [`DataTree`]: the event stream drives the matcher
    /// automata (O(depth) live state) and fills the compiled constraint
    /// columns on the fly. The report is byte-identical to parsing the
    /// document and calling [`Validator::validate`], at any thread count.
    ///
    /// Events are read and applied on the calling thread;
    /// [`Options::threads`](crate::Options) only fans out the final
    /// constraint pass, exactly as on the tree path.
    ///
    /// Errors are *parse* errors only — invalid documents yield an `Ok`
    /// report listing violations, exactly like the tree path.
    pub fn validate_stream(&self, src: &str) -> Result<Report, XmlError> {
        self.validate_events(parse_events(src))
    }

    /// Validates an event stream (see [`Validator::validate_stream`]).
    ///
    /// The parser's internal-subset DTD, if any, decides which attribute
    /// values tokenize into sets — the same rule
    /// [`parse_document`](xic_xml::parse_document) applies — so the stream
    /// sees the values the tree would have held.
    pub fn validate_events<'s>(&self, mut events: EventParser<'s>) -> Result<Report, XmlError> {
        let doc_dtd = events.dtd()?.cloned();
        let threads = self.effective_threads();
        let mut checker = StreamChecker::<'_, 's>::new(self, doc_dtd);
        // One pull loop at every thread budget. Streaming fuses lexing
        // with structural checking, so "parse" covers the whole pass.
        {
            let _parse = self.obs.span("parse");
            for ev in &mut events {
                checker.on_event(ev?);
            }
        }
        self.flush_parse_stats(events.stats());
        Ok(checker.finish(threads))
    }

    /// Flushes the parser's plain-field counters to the collector, once
    /// per document (the parser itself has no collector dependency).
    pub(crate) fn flush_parse_stats(&self, stats: xic_xml::ParseStats) {
        if !self.obs.enabled() {
            return;
        }
        self.obs.add("xml.events", stats.events);
        self.obs
            .add("xml.entity_expansions", stats.entity_expansions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Options;
    use xic_constraints::examples::{book_dtdc, book_structure};
    use xic_constraints::{Constraint, Language};
    use xic_xml::parse_document;

    /// The book `DTD^C` plus the §3.4 sub-element key `entry.title ->
    /// entry`, so streaming plans, queues and checks a sub-element column
    /// (the book `DTD^C` reads attributes only), and a `note` type with two
    /// single-valued attributes, so one node can carry every attribute
    /// clause (the book types declare one attribute each). No book
    /// content model admits a `note`.
    fn dtdc() -> DtdC {
        let mut sigma = book_dtdc().constraints().to_vec();
        sigma.push(Constraint::Key {
            tau: "entry".into(),
            fields: vec![Field::sub("title")],
        });
        let mut b = DtdStructure::builder("book");
        let book = book_structure();
        for tau in book.element_types() {
            let model = book.content_model(tau).expect("declared type").clone();
            b = b.elem_model(tau.clone(), model);
            for (l, ty) in book.attributes(tau) {
                let ty = if ty == AttrType::Single { "S" } else { "S*" };
                b = b.attr(tau.clone(), l.clone(), ty);
            }
        }
        let s = b
            .elem("note", "EMPTY")
            .attr("note", "kind", "S")
            .attr("note", "lang", "S")
            .build()
            .expect("the book types plus note are well-formed");
        DtdC::new(s, Language::Lu, sigma).expect("title is unique in entry")
    }

    const BOOK: &str = r#"<book>
  <entry isbn="1-55860-622-X"><title>Data on the Web</title><publisher>MK</publisher></entry>
  <author>Abiteboul</author>
  <section sid="s1"><title>Intro</title><text>...</text></section>
  <ref to="1-55860-622-X"/>
</book>"#;

    /// Key and foreign-key values of 8 and 9 bytes sharing their first 8
    /// bytes (the interner's inline key): one duplicate of each length,
    /// and a 9-byte reference that matches no isbn although its first 8
    /// bytes do.
    const KEY_BOUNDARY: &str = r#"<book>
  <entry isbn="isbn-123"><title>A</title><publisher>P</publisher></entry>
  <entry isbn="isbn-1234"><title>B</title><publisher>P</publisher></entry>
  <entry isbn="isbn-1234"><title>C</title><publisher>P</publisher></entry>
  <author>A</author>
  <section sid="sect-abc"><title>S</title></section>
  <section sid="sect-abcd"><title>S</title></section>
  <section sid="sect-abc"><title>S</title></section>
  <ref to="isbn-1235"/>
</book>"#;

    /// The same boundary through a set-valued reference: unsorted and
    /// repeated tokens, one dangling by its ninth byte only (and listed
    /// twice, so it must be reported once).
    const SET_BOUNDARY: &str = r#"<!DOCTYPE book [
  <!ELEMENT book (entry|author|ref)*>
  <!ELEMENT entry (title, publisher)>
  <!ELEMENT title (#PCDATA)>
  <!ELEMENT publisher (#PCDATA)>
  <!ELEMENT author (#PCDATA)>
  <!ELEMENT ref EMPTY>
  <!ATTLIST entry isbn CDATA #IMPLIED>
  <!ATTLIST ref to IDREFS #IMPLIED>
]>
<book>
  <entry isbn="isbn-123"><title>A</title><publisher>P</publisher></entry>
  <entry isbn="isbn-1234"><title>B</title><publisher>P</publisher></entry>
  <author>A</author>
  <ref to="isbn-1234 isbn-1235 isbn-123 isbn-1234 isbn-1235"/>
</book>"#;

    /// Two entries whose `title` is undefined (two title children each,
    /// the first one's text still queued when the entry closes) between
    /// two whose titles clash. Only the clash is a key violation: a lost
    /// "undefined" would make the doubled titles clash too.
    const SUB_QUEUED: &str = r#"<book>
  <entry isbn="a"><title>Same</title><publisher>P</publisher></entry>
  <entry isbn="b"><title>Same</title><title>Same</title><publisher>P</publisher></entry>
  <entry isbn="c"><title>Same</title><title>Other</title><publisher>P</publisher></entry>
  <entry isbn="d"><title>Same</title><publisher>P</publisher></entry>
  <author>A</author>
  <ref to="a"/>
</book>"#;

    /// Entities decode into owned values: keys that are equal only once
    /// decoded, and a reference that matches one of them only decoded.
    const ENTITY_KEYS: &str = r#"<book>
  <entry isbn="a&amp;b"><title>A &lt; B</title><publisher>P</publisher></entry>
  <entry isbn="a&#38;b"><title>A &#60; B</title><publisher>P</publisher></entry>
  <entry isbn="a&amp;c"><title>A</title><publisher>P</publisher></entry>
  <author>A</author>
  <section sid="&#x73;1"><title>S</title></section>
  <section sid="s1"><title>S</title></section>
  <ref to="a&amp;c"/>
</book>"#;

    /// A set-valued reference with more distinct tokens than one interner
    /// group, repeated and unsorted, one of them dangling: its row is
    /// queued across at least two flushes.
    fn set_across_groups() -> String {
        let n = 2 * Interner::GROUP;
        let mut src = String::from(
            r#"<!DOCTYPE book [
  <!ELEMENT book (entry|author|ref)*>
  <!ELEMENT entry (title, publisher)>
  <!ELEMENT title (#PCDATA)>
  <!ELEMENT publisher (#PCDATA)>
  <!ELEMENT author (#PCDATA)>
  <!ELEMENT ref EMPTY>
  <!ATTLIST entry isbn CDATA #IMPLIED>
  <!ATTLIST ref to IDREFS #IMPLIED>
]>
<book>
"#,
        );
        for i in 0..n {
            src += &format!(
                "<entry isbn=\"e{i}\"><title>T{i}</title><publisher>P</publisher></entry>\n"
            );
        }
        let mut to: Vec<String> = (0..n).rev().map(|i| format!("e{i}")).collect();
        to.insert(n / 2, "e7 dangling e3".into());
        to.push("e7".into());
        src += &format!(
            "<author>A</author>\n<ref to=\"{}\"/>\n</book>",
            to.join(" ")
        );
        src
    }

    /// Attribute clauses written in an order the tree never holds. The
    /// document's DTD tokenizes `note.kind`, which the `DTD^C` declares
    /// single-valued. The second note writes its attributes in reverse
    /// name order: `zeta`, a spelling first seen after `note`'s roles were
    /// resolved; `kind` with two values; and `isbn`, planned on `entry`
    /// but undeclared on `note`. It also lacks the declared `lang`.
    const ATTR_ORDER: &str = r#"<!DOCTYPE book [
  <!ELEMENT book (entry|author|ref|note)*>
  <!ELEMENT entry (title, publisher)>
  <!ELEMENT title (#PCDATA)>
  <!ELEMENT publisher (#PCDATA)>
  <!ELEMENT author (#PCDATA)>
  <!ELEMENT ref EMPTY>
  <!ELEMENT note EMPTY>
  <!ATTLIST entry isbn CDATA #IMPLIED>
  <!ATTLIST ref to IDREFS #IMPLIED>
  <!ATTLIST note kind NMTOKENS #IMPLIED lang CDATA #IMPLIED>
]>
<book>
  <entry isbn="i"><title>T</title><publisher>P</publisher></entry>
  <author>A</author>
  <ref to="i"/>
  <note lang="en" kind="k"/>
  <note zeta="z" kind="b a" isbn="i"/>
</book>"#;

    /// Documents exercising every violation kind the stream must order
    /// exactly like the tree engine.
    const DOCS: &[&str] = &[
        BOOK,
        // Wrong root + unknown types + stray attributes.
        r#"<library bad="x"><book/><shelf id="1">text</shelf></library>"#,
        // Content-model failures at several depths, undeclared and
        // duplicate-set attributes, missing required attributes.
        r#"<book><entry><title>T</title></entry><section sid="a b"><section sid="inner"><bogus/></section></section><ref to=""/></book>"#,
        // Key/foreign-key violations: duplicate isbn, dangling ref.
        r#"<book>
  <entry isbn="k"><title>A</title><publisher>P</publisher></entry>
  <entry isbn="k"><title>A</title><publisher>P</publisher></entry>
  <author>A</author>
  <ref to="missing"/>
</book>"#,
        // Unique sub-element field: two titles make entry.title undefined.
        r#"<book><entry isbn="i"><title>A</title><title>B</title><publisher>P</publisher></entry><author>A</author><ref to="i"/></book>"#,
        KEY_BOUNDARY,
        SET_BOUNDARY,
        // A content-model violation on a wide node whose child word has
        // repeated runs of elements and text.
        r#"<book>x<entry isbn="w"><title>T</title><publisher>P</publisher></entry><author>A</author><author>B</author><author>C</author><section sid="1"><title>S</title></section><section sid="2"><title>S</title></section>y<author>D</author><author>E</author>z<ref to="w"/><ref to="w"/><ref to="w"/></book>"#,
        // The same on interleaved children: runs of one and two between
        // changes of label.
        r#"<book><author>A</author><ref to="w"/><author>B</author><ref to="w"/><ref to="w"/><author>C</author>t<author>D</author>u<ref to="w"/><author>E</author></book>"#,
        SUB_QUEUED,
        ENTITY_KEYS,
        ATTR_ORDER,
    ];

    fn assert_stream_matches_tree(src: &str) {
        let d = dtdc();
        for strict in [true, false] {
            for threads in [1, 2, 4] {
                let opts = Options {
                    strict_attributes: strict,
                    threads,
                };
                let v = Validator::with_options(&d, opts);
                let tree = parse_document(src).unwrap().tree;
                let want = v.validate(&tree);
                let got = v.validate_stream(src).unwrap();
                assert_eq!(
                    format!("{want}"),
                    format!("{got}"),
                    "strict={strict} threads={threads}\n{src}"
                );
                assert_eq!(want.violations, got.violations);
            }
        }
    }

    #[test]
    fn stream_report_equals_tree_report() {
        for src in DOCS {
            assert_stream_matches_tree(src);
        }
        assert_stream_matches_tree(&set_across_groups());
    }

    #[test]
    fn child_words_take_at_most_one_entry_per_child() {
        let mut word = Vec::new();
        for c in [3, 3, 3, 1, 2, 1, 2, 2, WORD_S, WORD_S, 0] {
            push_word(&mut word, c);
        }
        assert_eq!(
            word,
            [3, REPEAT | 2, 1, 2, 1, 2, REPEAT | 1, WORD_S, REPEAT | 1, 0]
        );
        // A full repeat mark starts a new run instead of overflowing.
        let mut word = vec![5, u32::MAX];
        push_word(&mut word, 5);
        push_word(&mut word, 5);
        assert_eq!(word, [5, u32::MAX, 5, REPEAT | 1]);
    }

    /// The key and foreign-key violations the stream reports for `src`.
    fn constraints(src: &str) -> Vec<String> {
        let d = dtdc();
        let r = Validator::new(&d).validate_stream(src).unwrap();
        r.violations
            .iter()
            .map(ToString::to_string)
            .filter(|l| l.contains("share key") || l.contains("missing"))
            .collect()
    }

    #[test]
    fn values_at_the_inline_key_boundary_keep_their_verdicts() {
        // Stream = tree cannot catch an interner that merges two values,
        // since both engines intern; these verdicts are absolute.
        assert_eq!(
            constraints(KEY_BOUNDARY),
            [
                "entry.@isbn -> entry: n4 and n7 share key isbn-1234",
                "section.@sid -> section: n11 and n15 share key sect-abc",
                "ref.@to <=s entry.@isbn: n17 references missing isbn-1235",
            ]
        );
        assert_eq!(
            constraints(SET_BOUNDARY),
            ["ref.@to <=s entry.@isbn: n8 references missing isbn-1235"]
        );
    }

    #[test]
    fn queued_values_keep_their_verdicts() {
        // Values wait in the interning queue while the pass moves on;
        // these verdicts are absolute, like the inline-key ones above.
        assert_eq!(
            constraints(SUB_QUEUED),
            ["entry.title -> entry: n1 and n12 share key Same"]
        );
        assert_eq!(
            constraints(ENTITY_KEYS),
            [
                "entry.@isbn -> entry: n1 and n4 share key a&b",
                "section.@sid -> section: n11 and n13 share key s1",
                "entry.title -> entry: n1 and n4 share key A < B",
            ]
        );
        let big = set_across_groups();
        let n = 2 * Interner::GROUP;
        assert_eq!(
            constraints(&big),
            [format!(
                "ref.@to <=s entry.@isbn: n{} references missing dangling",
                3 * n + 2
            )]
        );
    }

    #[test]
    fn attribute_clauses_follow_name_order() {
        // Stream = tree would pass a seal that reported clauses in
        // document order if both engines did; this order is absolute.
        let d = dtdc();
        let r = Validator::new(&d).validate_stream(ATTR_ORDER).unwrap();
        let lines: Vec<String> = r.violations.iter().map(ToString::to_string).collect();
        let n7: Vec<&str> = lines
            .iter()
            .map(String::as_str)
            .filter(|l| l.starts_with("n7:"))
            .collect();
        assert_eq!(
            n7,
            [
                "n7: undeclared attribute isbn",
                "n7: single-valued attribute kind holds 2 values",
                "n7: undeclared attribute zeta",
                "n7: missing declared attribute lang",
            ]
        );
        assert!(!lines.iter().any(|l| l.starts_with("n6:")), "{r}");
    }

    #[test]
    fn valid_book_is_valid_streamed() {
        let d = book_dtdc();
        let v = Validator::new(&d);
        let r = v.validate_stream(BOOK).unwrap();
        assert!(r.is_valid(), "{r}");
    }

    #[test]
    fn parse_errors_surface_with_positions() {
        let d = book_dtdc();
        let v = Validator::new(&d);
        let e = v
            .validate_stream("<book>\n  <entry></wrong>\n</book>")
            .unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(e.to_string().contains("at 2:"), "{e}");
    }

    #[test]
    fn document_dtd_drives_set_splitting() {
        // The document's own DTD declares `to` as IDREFS, so "a b" is a
        // two-element set in both paths — and both of its members then
        // dangle as foreign keys against entry.isbn.
        let src = r#"<!DOCTYPE book [
  <!ELEMENT book (entry|author|ref)*>
  <!ELEMENT entry (title, publisher)>
  <!ELEMENT title (#PCDATA)>
  <!ELEMENT publisher (#PCDATA)>
  <!ELEMENT author (#PCDATA)>
  <!ELEMENT ref EMPTY>
  <!ATTLIST entry isbn CDATA #IMPLIED>
  <!ATTLIST ref to IDREFS #IMPLIED>
]>
<book><entry isbn="i"><title>T</title><publisher>P</publisher></entry><author>A</author><ref to="a b"/></book>"#;
        assert_stream_matches_tree(src);
    }

    #[test]
    fn multivalued_set_attributes_round_through_columns() {
        // Duplicate and unsorted tokens in a set-valued attribute must
        // behave exactly like the tree path's `AttrValue::set` (sorted,
        // deduplicated) through the seal's zero-copy fill.
        let src = r#"<!DOCTYPE book [
  <!ELEMENT book (entry|author|ref)*>
  <!ELEMENT entry (title, publisher)>
  <!ELEMENT title (#PCDATA)>
  <!ELEMENT publisher (#PCDATA)>
  <!ELEMENT author (#PCDATA)>
  <!ELEMENT ref EMPTY>
  <!ATTLIST entry isbn CDATA #IMPLIED>
  <!ATTLIST ref to IDREFS #IMPLIED>
]>
<book><entry isbn="z"><title>T</title><publisher>P</publisher></entry><author>A</author><ref to="z q z a"/></book>"#;
        assert_stream_matches_tree(src);
    }
}
