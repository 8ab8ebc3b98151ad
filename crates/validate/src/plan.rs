//! The compiled constraint-validation plan and its columnar document index.
//!
//! The naive checker ([`crate::check_constraint`]) re-extracts field values
//! from the tree for every constraint. On realistic schemas many
//! constraints share element types and fields (a key and three foreign keys
//! all touching `person.@oid`), so the [`Validator`] instead compiles Σ
//! once into a [`Plan`]: the set of `(element type, field)` columns any
//! constraint will read. Validating a document then proceeds in two stages:
//!
//! 1. **Extraction** — one pass over each needed extent builds a columnar
//!    [`DocIndex`]: per `(τ, field)` a `Vec<Option<Sym>>` aligned with
//!    `ext(τ)`, with every value interned to a `u32` [`Sym`]. Each field is
//!    extracted once, no matter how many constraints read it, and all
//!    subsequent equality/hash/set operations are integer operations.
//! 2. **Checking** — every constraint is checked against the shared
//!    columns. With `threads > 1` the checks fan out across constraints,
//!    and large extents additionally split into chunks whose violation
//!    lists are concatenated in document order.
//!
//! Both stages are engineered to reproduce the sequential checker's
//! violation reports **byte for byte**: constraints report in Σ order,
//! chunks merge in extent order, and interning is a bijection on the value
//! strings so every probe/dedup decision matches the string-based path.
//!
//! [`Validator`]: crate::Validator

use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet};

use xic_constraints::{Constraint, DtdC, DtdStructure, Field};
use xic_model::{DataTree, ExtIndex, FastHashMap, FastHashSet, Interner, Name, NodeId, Sym};
use xic_obs::Obs;

use crate::constraints::unique_sub;
use crate::par::{chunked, fan_out};
use crate::report::Violation;

/// A dense bitset over the symbols of one document's [`Interner`].
///
/// Membership sets in foreign-key scans are probed once per referencing
/// value; with symbols being dense `u32`s a bitset makes each probe one
/// shift/mask instead of a hash — and it is freely shared by the chunked
/// parallel scans.
pub(crate) struct SymSet {
    words: Vec<u64>,
}

impl SymSet {
    /// An empty set able to hold all `sym_count` symbols of an interner.
    pub(crate) fn new(sym_count: usize) -> Self {
        SymSet {
            words: vec![0; sym_count.div_ceil(64)],
        }
    }

    #[inline]
    pub(crate) fn insert(&mut self, sym: Sym) {
        self.words[sym.index() / 64] |= 1 << (sym.index() % 64);
    }

    #[inline]
    pub(crate) fn contains(&self, sym: Sym) -> bool {
        self.words[sym.index() / 64] & (1 << (sym.index() % 64)) != 0
    }
}

/// A flattened column of symbol *sets*: all members of all rows live in one
/// contiguous `Vec<Sym>`, with a `Vec<u32>` of row offsets (row `i` spans
/// `syms[offsets[i]..offsets[i+1]]`).
///
/// A `Vec<Vec<Sym>>` column costs one heap allocation and 24 bytes of
/// header per row; scanning a million-row column chases a million pointers.
/// The flat layout is two allocations total and the foreign-key scans walk
/// it linearly, cache line by cache line. Rows keep `AttrValue`'s
/// sorted-string member order, so iteration matches `set_value`.
#[derive(Clone, Debug)]
pub(crate) struct SetCol {
    offsets: Vec<u32>,
    syms: Vec<Sym>,
}

impl Default for SetCol {
    fn default() -> Self {
        SetCol {
            offsets: vec![0],
            syms: Vec::new(),
        }
    }
}

impl SetCol {
    /// Appends one row (possibly empty) of already-sorted members.
    pub(crate) fn push_row(&mut self, row: impl IntoIterator<Item = Sym>) {
        self.syms.extend(row);
        self.offsets
            .push(u32::try_from(self.syms.len()).expect("set column fits u32"));
    }

    /// Appends a row of `n` members still to be interned, each held by a
    /// placeholder until [`SetCol::fill`] writes it, and returns the index
    /// of the row's first member slot.
    pub(crate) fn push_unfilled(&mut self, n: usize) -> usize {
        let first = self.syms.len();
        self.push_row(std::iter::repeat_n(Sym::from_index(0), n));
        first
    }

    /// Writes the member in slot `slot` (see [`SetCol::push_unfilled`]).
    #[inline]
    pub(crate) fn fill(&mut self, slot: usize, sym: Sym) {
        self.syms[slot] = sym;
    }

    /// Row `i`'s members (empty slice for an absent attribute).
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[Sym] {
        &self.syms[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// A [`SymSet`] with *removal*: each symbol carries an occurrence count, so
/// membership survives duplicates and can be retracted one occurrence at a
/// time. Incremental revalidation uses this for foreign-key target sets,
/// where edits add and remove target values in any order; the dense layout
/// keeps probes a single index like the bitset, and the table grows on
/// demand as the live document interns new values.
#[derive(Default)]
pub(crate) struct CountedSymSet {
    counts: Vec<u32>,
}

impl CountedSymSet {
    /// Adds one occurrence of `sym`. Returns `true` iff the symbol was
    /// absent before (a 0 → 1 presence transition).
    pub(crate) fn insert(&mut self, sym: Sym) -> bool {
        if sym.index() >= self.counts.len() {
            self.counts.resize(sym.index() + 1, 0);
        }
        self.counts[sym.index()] += 1;
        self.counts[sym.index()] == 1
    }

    /// Removes one occurrence of `sym`. Returns `true` iff this was the
    /// last occurrence (a 1 → 0 presence transition).
    ///
    /// # Panics
    /// Panics if `sym` has no recorded occurrence (an accounting bug in
    /// the caller).
    pub(crate) fn remove(&mut self, sym: Sym) -> bool {
        let slot = &mut self.counts[sym.index()];
        assert!(*slot > 0, "removing an absent symbol from a counted set");
        *slot -= 1;
        *slot == 0
    }

    /// Membership test: at least one occurrence recorded.
    #[inline]
    pub(crate) fn contains(&self, sym: Sym) -> bool {
        self.counts.get(sym.index()).copied().unwrap_or(0) > 0
    }
}

/// A constraint name rendered lazily: `Display` on `Constraint` is only
/// paid when a violation is actually reported, so clean documents never
/// format Σ.
pub(crate) struct CName<'c> {
    c: &'c Constraint,
    cache: OnceCell<String>,
}

impl<'c> CName<'c> {
    pub(crate) fn new(c: &'c Constraint) -> Self {
        CName {
            c,
            cache: OnceCell::new(),
        }
    }

    /// The rendered name (formatted on first use, cloned thereafter).
    pub(crate) fn get(&self) -> String {
        self.cache.get_or_init(|| self.c.to_string()).clone()
    }
}

/// The columns a constraint set will read, compiled once per `DTD^C`.
///
/// The plan is the one owner of the column layout. It numbers the planned
/// columns once: the single-valued columns ascending by `(τ, field)`, then
/// the set-valued columns ascending by `(τ, attr)`. Every column store —
/// the one-shot [`DocIndex`], the stream fill, and the live validator's
/// mutable store and snapshots — is a vector in that order, and every
/// reader finds a column through [`Plan::single_col`] / [`Plan::set_col`].
#[derive(Clone, Debug, Default)]
pub(crate) struct Plan {
    /// Single-valued column `i` reads field `singles[i].1` of `ext(singles[i].0)`.
    pub(crate) singles: Vec<(Name, Field)>,
    /// Set-valued column `i` reads attribute `sets[i].1` of `ext(sets[i].0)`.
    pub(crate) sets: Vec<(Name, Name)>,
    /// Per element type some constraint reads: its columns.
    pub(crate) taus: BTreeMap<Name, TauPlan>,
    /// Whether any `L_id` ID constraint needs the document-wide ID table.
    pub(crate) needs_ids: bool,
}

/// The columns of one element type τ, so a pass over a vertex of τ fills
/// its cells without touching the rest of the plan.
#[derive(Clone, Debug, Default)]
pub(crate) struct TauPlan {
    /// `(field, single-column index)`, ascending by field (attributes
    /// before unique sub-elements).
    pub(crate) singles: Vec<(Field, usize)>,
    /// `(attribute, set-column index)`, ascending by attribute.
    pub(crate) sets: Vec<(Name, usize)>,
}

/// The `(τ, field)` pairs Σ reads, collected before [`Plan::build`]
/// numbers them.
#[derive(Default)]
struct Cover {
    singles: BTreeSet<(Name, Field)>,
    sets: BTreeSet<(Name, Name)>,
}

impl Plan {
    /// Compiles the column set for `dtdc`'s Σ.
    pub(crate) fn build(dtdc: &DtdC) -> Self {
        let s = dtdc.structure();
        let mut cover = Cover::default();
        let mut needs_ids = false;
        for c in dtdc.constraints() {
            match c {
                Constraint::Key { tau, fields } => {
                    cover.add_singles(tau, fields);
                }
                Constraint::ForeignKey {
                    tau,
                    fields,
                    target,
                    target_fields,
                } => {
                    cover.add_singles(tau, fields);
                    cover.add_singles(target, target_fields);
                }
                Constraint::SetForeignKey {
                    tau,
                    attr,
                    target,
                    target_field,
                } => {
                    cover.add_set(tau, attr);
                    cover.add_single(target, target_field.clone());
                }
                Constraint::InverseU {
                    tau,
                    key,
                    attr,
                    target,
                    target_key,
                    target_attr,
                } => {
                    cover.add_single(tau, key.clone());
                    cover.add_set(tau, attr);
                    cover.add_single(target, target_key.clone());
                    cover.add_set(target, target_attr);
                }
                Constraint::Id { tau } => {
                    needs_ids = true;
                    cover.add_id_column(s, tau);
                }
                Constraint::FkToId { tau, attr, target } => {
                    cover.add_single(tau, Field::Attr(attr.clone()));
                    cover.add_id_column(s, target);
                }
                Constraint::SetFkToId { tau, attr, target } => {
                    cover.add_set(tau, attr);
                    cover.add_id_column(s, target);
                }
                Constraint::InverseId {
                    tau,
                    attr,
                    target,
                    target_attr,
                } => {
                    cover.add_set(tau, attr);
                    cover.add_set(target, target_attr);
                    cover.add_id_column(s, tau);
                    cover.add_id_column(s, target);
                }
            }
        }
        if needs_ids {
            // The document-wide ID table spans every type with an ID
            // attribute, not just the types named in Σ.
            for tau in s.element_types() {
                cover.add_id_column(s, tau);
            }
        }
        let mut taus: BTreeMap<Name, TauPlan> = BTreeMap::new();
        for (i, (tau, field)) in cover.singles.iter().enumerate() {
            taus.entry(tau.clone())
                .or_default()
                .singles
                .push((field.clone(), i));
        }
        for (i, (tau, attr)) in cover.sets.iter().enumerate() {
            taus.entry(tau.clone())
                .or_default()
                .sets
                .push((attr.clone(), i));
        }
        Plan {
            singles: cover.singles.into_iter().collect(),
            sets: cover.sets.into_iter().collect(),
            taus,
            needs_ids,
        }
    }

    /// The index of single-valued column `(τ, field)`, if planned.
    pub(crate) fn single_col(&self, tau: &Name, field: &Field) -> Option<usize> {
        let tp = self.taus.get(tau)?;
        tp.singles.iter().find(|(f, _)| f == field).map(|&(_, i)| i)
    }

    /// The index of set-valued column `(τ, attr)`, if planned.
    pub(crate) fn set_col(&self, tau: &Name, attr: &Name) -> Option<usize> {
        let tp = self.taus.get(tau)?;
        tp.sets.iter().find(|(a, _)| a == attr).map(|&(_, i)| i)
    }

    /// The id of set-valued column `i` in the plan's one numbering, where
    /// single-valued columns take `0..singles.len()` and sets follow.
    pub(crate) fn set_id(&self, i: usize) -> usize {
        self.singles.len() + i
    }

    /// Number of `(τ, field)` columns the plan extracts (for diagnostics).
    pub(crate) fn column_count(&self) -> usize {
        self.singles.len() + self.sets.len()
    }
}

impl Cover {
    fn add_single(&mut self, tau: &Name, field: Field) {
        self.singles.insert((tau.clone(), field));
    }

    fn add_singles(&mut self, tau: &Name, fields: &[Field]) {
        for f in fields {
            self.add_single(tau, f.clone());
        }
    }

    fn add_set(&mut self, tau: &Name, attr: &Name) {
        self.sets.insert((tau.clone(), attr.clone()));
    }

    fn add_id_column(&mut self, s: &DtdStructure, tau: &Name) {
        if let Some(id_attr) = s.id_attr(tau) {
            self.add_single(tau, Field::Attr(id_attr.clone()));
        }
    }
}

/// The per-document columnar index: one interned column per planned
/// `(τ, field)`, aligned with `ext(τ)` and stored in plan order, plus the
/// document-wide ID table.
pub(crate) struct DocIndex<'p> {
    plan: &'p Plan,
    interner: Interner,
    /// Single-valued column `i` of the plan: `ext(τ)`-aligned values.
    singles: Vec<Vec<Option<Sym>>>,
    /// Set-valued column `i` of the plan: `ext(τ)`-aligned rows, each in
    /// `AttrValue`'s sorted-string order (so iteration matches
    /// `set_value`).
    sets: Vec<SetCol>,
    /// ID value ↦ carriers, in `element_types()` × document order
    /// (matching the sequential `build_global_ids`).
    global_ids: FastHashMap<Sym, Vec<NodeId>>,
}

impl<'p> DocIndex<'p> {
    /// One pass over each planned extent extracts every column of τ.
    pub(crate) fn build(tree: &DataTree, idx: &ExtIndex, s: &DtdStructure, plan: &'p Plan) -> Self {
        let mut interner = Interner::new();
        let mut singles = vec![Vec::new(); plan.singles.len()];
        let mut sets = vec![SetCol::default(); plan.sets.len()];
        for (tau, tp) in &plan.taus {
            for &x in idx.ext(tau) {
                for (field, c) in &tp.singles {
                    singles[*c].push(extract_single(tree, x, field, &mut interner));
                }
                for (attr, c) in &tp.sets {
                    sets[*c].push_row(extract_set(tree, x, attr, &mut interner));
                }
            }
        }
        DocIndex::from_parts(interner, singles, sets, idx, s, plan)
    }

    /// Assembles an index from already-extracted columns (the streaming
    /// builder fills them without a tree) and derives the document-wide ID
    /// table. Interning order does not matter for report equality: symbols
    /// are only compared for equality/membership, never for order, and
    /// every violation sequence follows extent order, so any bijective
    /// interning yields byte-identical reports.
    ///
    /// Checking only resolves symbols, never interns, so the pool's lookup
    /// table (its largest part) is freed here, before checking allocates.
    pub(crate) fn from_parts(
        mut interner: Interner,
        singles: Vec<Vec<Option<Sym>>>,
        sets: Vec<SetCol>,
        idx: &ExtIndex,
        s: &DtdStructure,
        plan: &'p Plan,
    ) -> Self {
        interner.release_table();
        let mut global_ids: FastHashMap<Sym, Vec<NodeId>> = FastHashMap::default();
        if plan.needs_ids {
            for tau in s.element_types() {
                let Some(id_attr) = s.id_attr(tau) else {
                    continue;
                };
                let Some(c) = plan.single_col(tau, &Field::Attr(id_attr.clone())) else {
                    continue;
                };
                let ext = idx.ext(tau);
                for (pos, sym) in singles[c].iter().enumerate() {
                    if let Some(sym) = sym {
                        global_ids.entry(*sym).or_default().push(ext[pos]);
                    }
                }
            }
        }
        DocIndex {
            plan,
            interner,
            singles,
            sets,
            global_ids,
        }
    }

    fn single(&self, tau: &Name, field: &Field) -> &[Option<Sym>] {
        let c = self
            .plan
            .single_col(tau, field)
            .expect("plan covers every single field a constraint reads");
        &self.singles[c]
    }

    fn set(&self, tau: &Name, attr: &Name) -> &SetCol {
        let c = self
            .plan
            .set_col(tau, attr)
            .expect("plan covers every set attribute a constraint reads");
        &self.sets[c]
    }

    fn resolve(&self, sym: Sym) -> &str {
        self.interner.resolve(sym)
    }

    fn join(&self, syms: &[Sym]) -> String {
        syms.iter()
            .map(|&s| self.resolve(s))
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Number of distinct symbols interned (the [`SymSet`] capacity).
    fn sym_count(&self) -> usize {
        self.interner.len()
    }

    /// Distinct ID values of `ext(τ)` (empty when τ has no ID attribute).
    fn ids_of(&self, s: &DtdStructure, tau: &Name) -> SymSet {
        let mut ids = SymSet::new(self.sym_count());
        let Some(id_attr) = s.id_attr(tau) else {
            return ids;
        };
        for sym in self
            .single(tau, &Field::Attr(id_attr.clone()))
            .iter()
            .flatten()
        {
            ids.insert(*sym);
        }
        ids
    }
}

/// Single-valued field extraction; must agree with
/// [`crate::constraints::field_value`].
pub(crate) fn extract_single(
    tree: &DataTree,
    x: NodeId,
    field: &Field,
    interner: &mut Interner,
) -> Option<Sym> {
    match field {
        Field::Attr(l) => tree.attr(x, l)?.as_single().map(|v| interner.intern(v)),
        Field::Sub(e) => {
            let child = unique_sub(tree, x, e)?;
            Some(interner.intern(&tree.node(child).text()))
        }
    }
}

/// Set-valued attribute extraction: `x`'s members of `attr` interned in
/// `AttrValue`'s sorted order (nothing when the attribute is absent); must
/// agree with `set_value` in `constraints.rs`.
pub(crate) fn extract_set<'a>(
    tree: &'a DataTree,
    x: NodeId,
    attr: &Name,
    interner: &'a mut Interner,
) -> impl ExactSizeIterator<Item = Sym> + 'a {
    let members = tree.attr(x, attr).map_or(&[][..], |v| v.values());
    members.iter().map(|s| interner.intern(s))
}

/// Checks all of Σ against the planned columns, appending violations in Σ
/// order. `threads` is the total worker budget: constraints fan out first,
/// and whatever budget remains per constraint splits large extents.
pub(crate) fn check_all_planned(
    tree: &DataTree,
    idx: &ExtIndex,
    dtdc: &DtdC,
    plan: &Plan,
    threads: usize,
    obs: &Obs,
    out: &mut Vec<Violation>,
) {
    let doc = {
        let _plan = obs.span("plan");
        DocIndex::build(tree, idx, dtdc.structure(), plan)
    };
    check_planned(idx, dtdc, &doc, threads, tree.len(), obs, out);
}

/// The span name of one constraint kind's share of the `check` phase.
fn kind_span(c: &Constraint) -> &'static str {
    match c {
        Constraint::Key { .. } => "check.key",
        Constraint::ForeignKey { .. } => "check.foreign_key",
        Constraint::SetForeignKey { .. } => "check.set_foreign_key",
        Constraint::InverseU { .. } => "check.inverse",
        Constraint::Id { .. } => "check.id",
        Constraint::FkToId { .. } => "check.fk_to_id",
        Constraint::SetFkToId { .. } => "check.set_fk_to_id",
        Constraint::InverseId { .. } => "check.inverse_id",
    }
}

/// Checks all of Σ against a pre-built [`DocIndex`] (shared by the tree
/// and streaming paths), appending violations in Σ order.
///
/// `doc_nodes` (the document's vertex count) gates the thread budget: below
/// [`crate::par::MIN_NODES_PER_THREAD`] vertices per worker, spawn/merge
/// overhead exceeds the scan itself (E11 measured threads=2/4 *slower* than
/// 1 at 10⁵ vertices), so the budget is clamped to what the document can
/// amortize.
pub(crate) fn check_planned(
    idx: &ExtIndex,
    dtdc: &DtdC,
    doc: &DocIndex,
    threads: usize,
    doc_nodes: usize,
    obs: &Obs,
    out: &mut Vec<Violation>,
) {
    let s = dtdc.structure();
    let cs = dtdc.constraints();
    let affordable = (doc_nodes / crate::par::MIN_NODES_PER_THREAD).max(1);
    let outer = threads.max(1).min(affordable);
    let inner = (outer / cs.len().max(1)).max(1);
    let per_constraint = {
        let _check = obs.span("check");
        fan_out(outer, cs.iter().collect(), obs, "par.constraint", |c| {
            let _kind = obs.span(kind_span(c));
            let mut v = Vec::new();
            check_one_planned(idx, s, doc, c, inner, obs, &mut v);
            v
        })
    };
    let _merge = obs.span("merge");
    for v in per_constraint {
        out.extend(v);
    }
}

fn check_one_planned(
    idx: &ExtIndex,
    s: &DtdStructure,
    doc: &DocIndex,
    c: &Constraint,
    inner: usize,
    obs: &Obs,
    out: &mut Vec<Violation>,
) {
    match c {
        Constraint::Key { tau, fields } => {
            // First-seen dedup is order-dependent, so the scan itself stays
            // sequential; with shared columns it is a pure Sym-tuple pass.
            let cname = CName::new(c);
            let ext = idx.ext(tau);
            if let [field] = fields.as_slice() {
                // Unary key: dedup on a dense first-seen table indexed by
                // symbol — no per-element tuple allocation, no hashing.
                let col = doc.single(tau, field);
                const UNSEEN: u32 = u32::MAX;
                let mut first = vec![UNSEEN; doc.sym_count()];
                for (pos, &x) in ext.iter().enumerate() {
                    let Some(sym) = col[pos] else {
                        continue; // undefined fields cannot witness equality
                    };
                    let slot = &mut first[sym.index()];
                    if *slot == UNSEEN {
                        *slot = u32::try_from(pos).expect("extent fits u32");
                    } else {
                        out.push(Violation::Key {
                            constraint: cname.get(),
                            a: ext[*slot as usize],
                            b: x,
                            value: doc.resolve(sym).to_string(),
                        });
                    }
                }
                return;
            }
            let cols: Vec<&[Option<Sym>]> = fields.iter().map(|f| doc.single(tau, f)).collect();
            let mut seen: FastHashMap<Vec<Sym>, NodeId> = FastHashMap::default();
            for (pos, &x) in ext.iter().enumerate() {
                let Some(t) = cols
                    .iter()
                    .map(|col| col[pos])
                    .collect::<Option<Vec<Sym>>>()
                else {
                    continue; // undefined tuples cannot witness equality
                };
                match seen.get(&t) {
                    Some(&prev) => out.push(Violation::Key {
                        constraint: cname.get(),
                        a: prev,
                        b: x,
                        value: doc.join(&t),
                    }),
                    None => {
                        seen.insert(t, x);
                    }
                }
            }
        }
        Constraint::ForeignKey {
            tau,
            fields,
            target,
            target_fields,
        } => {
            let ext = idx.ext(tau);
            if let ([field], [target_field]) = (fields.as_slice(), target_fields.as_slice()) {
                // Unary FK: target membership is a symbol bitset probe.
                let mut targets = SymSet::new(doc.sym_count());
                for sym in doc.single(target, target_field).iter().flatten() {
                    targets.insert(*sym);
                }
                let col = doc.single(tau, field);
                for chunk in chunked(inner, ext.len(), obs, "par.chunk", |range| {
                    let cname = CName::new(c);
                    let mut v = Vec::new();
                    for pos in range {
                        match col[pos] {
                            Some(sym) => {
                                if !targets.contains(sym) {
                                    v.push(Violation::ForeignKey {
                                        constraint: cname.get(),
                                        node: ext[pos],
                                        value: doc.resolve(sym).to_string(),
                                    });
                                }
                            }
                            None => v.push(Violation::MissingField {
                                constraint: cname.get(),
                                node: ext[pos],
                                field: field.to_string(),
                            }),
                        }
                    }
                    v
                }) {
                    out.extend(chunk);
                }
                return;
            }
            let target_cols: Vec<&[Option<Sym>]> = target_fields
                .iter()
                .map(|f| doc.single(target, f))
                .collect();
            let targets: FastHashSet<Vec<Sym>> = (0..idx.ext(target).len())
                .filter_map(|pos| {
                    target_cols
                        .iter()
                        .map(|col| col[pos])
                        .collect::<Option<Vec<Sym>>>()
                })
                .collect();
            let cols: Vec<&[Option<Sym>]> = fields.iter().map(|f| doc.single(tau, f)).collect();
            for chunk in chunked(inner, ext.len(), obs, "par.chunk", |range| {
                let cname = CName::new(c);
                let mut v = Vec::new();
                for pos in range {
                    match cols
                        .iter()
                        .map(|col| col[pos])
                        .collect::<Option<Vec<Sym>>>()
                    {
                        Some(t) => {
                            if !targets.contains(&t) {
                                v.push(Violation::ForeignKey {
                                    constraint: cname.get(),
                                    node: ext[pos],
                                    value: doc.join(&t),
                                });
                            }
                        }
                        None => v.push(Violation::MissingField {
                            constraint: cname.get(),
                            node: ext[pos],
                            field: fields
                                .iter()
                                .map(ToString::to_string)
                                .collect::<Vec<_>>()
                                .join(", "),
                        }),
                    }
                }
                v
            }) {
                out.extend(chunk);
            }
        }
        Constraint::SetForeignKey {
            tau,
            attr,
            target,
            target_field,
        } => {
            let mut targets = SymSet::new(doc.sym_count());
            for sym in doc.single(target, target_field).iter().flatten() {
                targets.insert(*sym);
            }
            scan_set_fk(idx, doc, c, tau, attr, &targets, inner, obs, out);
        }
        Constraint::InverseU {
            tau,
            key,
            attr,
            target,
            target_key,
            target_attr,
        } => {
            check_inverse_planned(
                idx,
                doc,
                c,
                tau,
                key,
                attr,
                target,
                target_key,
                target_attr,
                inner,
                obs,
                out,
            );
            check_inverse_planned(
                idx,
                doc,
                c,
                target,
                target_key,
                target_attr,
                tau,
                key,
                attr,
                inner,
                obs,
                out,
            );
        }
        Constraint::Id { tau } => {
            let Some(id_attr) = s.id_attr(tau) else {
                return; // rejected at well-formedness; nothing to check
            };
            let col = doc.single(tau, &Field::Attr(id_attr.clone()));
            let ext = idx.ext(tau);
            for chunk in chunked(inner, ext.len(), obs, "par.chunk", |range| {
                let cname = CName::new(c);
                let mut v = Vec::new();
                for pos in range {
                    let x = ext[pos];
                    match col[pos] {
                        None => v.push(Violation::MissingField {
                            constraint: cname.get(),
                            node: x,
                            field: format!("@{id_attr}"),
                        }),
                        Some(value) => {
                            for &y in doc.global_ids.get(&value).into_iter().flatten() {
                                if y != x {
                                    v.push(Violation::DuplicateId {
                                        constraint: cname.get(),
                                        a: x,
                                        b: y,
                                        value: doc.resolve(value).to_string(),
                                    });
                                }
                            }
                        }
                    }
                }
                v
            }) {
                out.extend(chunk);
            }
        }
        Constraint::FkToId { tau, attr, target } => {
            let targets = doc.ids_of(s, target);
            let col = doc.single(tau, &Field::Attr(attr.clone()));
            let ext = idx.ext(tau);
            for chunk in chunked(inner, ext.len(), obs, "par.chunk", |range| {
                let cname = CName::new(c);
                let mut v = Vec::new();
                for pos in range {
                    let Some(value) = col[pos] else {
                        continue;
                    };
                    if !targets.contains(value) {
                        v.push(Violation::ForeignKey {
                            constraint: cname.get(),
                            node: ext[pos],
                            value: doc.resolve(value).to_string(),
                        });
                    }
                }
                v
            }) {
                out.extend(chunk);
            }
        }
        Constraint::SetFkToId { tau, attr, target } => {
            let targets = doc.ids_of(s, target);
            scan_set_fk(idx, doc, c, tau, attr, &targets, inner, obs, out);
        }
        Constraint::InverseId {
            tau,
            attr,
            target,
            target_attr,
        } => {
            let (Some(id_tau), Some(id_target)) = (s.id_attr(tau), s.id_attr(target)) else {
                return; // rejected at well-formedness
            };
            // Reference typing first (τ.l ⊆_S τ'.id and τ'.l' ⊆_S τ.id),
            // then both inverse directions — the exact sequential order.
            for (src, src_attr, dst) in [(tau, attr, target), (target, target_attr, tau)] {
                let targets = doc.ids_of(s, dst);
                scan_set_fk(idx, doc, c, src, src_attr, &targets, inner, obs, out);
            }
            let key_tau = Field::Attr(id_tau.clone());
            let key_target = Field::Attr(id_target.clone());
            check_inverse_planned(
                idx,
                doc,
                c,
                tau,
                &key_tau,
                attr,
                target,
                &key_target,
                target_attr,
                inner,
                obs,
                out,
            );
            check_inverse_planned(
                idx,
                doc,
                c,
                target,
                &key_target,
                target_attr,
                tau,
                &key_tau,
                attr,
                inner,
                obs,
                out,
            );
        }
    }
}

/// The shared scan of set-valued FK variants: every member of `ext(τ).attr`
/// must appear in `targets`.
#[allow(clippy::too_many_arguments)]
fn scan_set_fk(
    idx: &ExtIndex,
    doc: &DocIndex,
    c: &Constraint,
    tau: &Name,
    attr: &Name,
    targets: &SymSet,
    inner: usize,
    obs: &Obs,
    out: &mut Vec<Violation>,
) {
    let col = doc.set(tau, attr);
    let ext = idx.ext(tau);
    for chunk in chunked(inner, ext.len(), obs, "par.chunk", |range| {
        let cname = CName::new(c);
        let mut v = Vec::new();
        for pos in range {
            for &value in col.row(pos) {
                if !targets.contains(value) {
                    v.push(Violation::ForeignKey {
                        constraint: cname.get(),
                        node: ext[pos],
                        value: doc.resolve(value).to_string(),
                    });
                }
            }
        }
        v
    }) {
        out.extend(chunk);
    }
}

/// One direction of an inverse constraint over the columns:
/// `∀x ∈ ext(τ) ∀y ∈ ext(τ') (x.key ∈ y.attr' → y.key' ∈ x.attr)`.
///
/// `ext(τ)` is indexed on the key sequentially (doc order matters for the
/// violation sequence); the `ext(τ')` scan is per-`y` independent and
/// splits across chunks.
#[allow(clippy::too_many_arguments)]
fn check_inverse_planned(
    idx: &ExtIndex,
    doc: &DocIndex,
    c: &Constraint,
    tau: &Name,
    key: &Field,
    attr: &Name,
    target: &Name,
    target_key: &Field,
    target_attr: &Name,
    inner: usize,
    obs: &Obs,
    out: &mut Vec<Violation>,
) {
    let key_col = doc.single(tau, key);
    let ext_tau = idx.ext(tau);
    // Group `ext(τ)` positions by key symbol with a counting sort over the
    // dense symbol space (a CSR layout: `grouped[starts[s]..starts[s+1]]`
    // holds the positions carrying key `s`, in document order). Probing a
    // referenced value inside the scan is then two array reads — the scan
    // touches every member of every set, so a hash per member dominated.
    let n_syms = doc.sym_count();
    let mut starts = vec![0u32; n_syms + 1];
    for sym in key_col.iter().flatten() {
        starts[sym.index() + 1] += 1;
    }
    for i in 1..=n_syms {
        starts[i] += starts[i - 1];
    }
    let mut grouped = vec![0u32; starts[n_syms] as usize];
    let mut cursor: Vec<u32> = starts[..n_syms].to_vec();
    for (pos, sym) in key_col.iter().enumerate() {
        if let Some(sym) = sym {
            let c = &mut cursor[sym.index()];
            grouped[*c as usize] = u32::try_from(pos).expect("extent fits u32");
            *c += 1;
        }
    }
    let echo_col = doc.set(tau, attr);
    let target_key_col = doc.single(target, target_key);
    let target_attr_col = doc.set(target, target_attr);
    let ext_target = idx.ext(target);
    for chunk in chunked(inner, ext_target.len(), obs, "par.chunk", |range| {
        let cname = CName::new(c);
        let mut v = Vec::new();
        for ypos in range {
            let Some(yk) = target_key_col[ypos] else {
                continue;
            };
            for value in target_attr_col.row(ypos) {
                let (lo, hi) = (starts[value.index()], starts[value.index() + 1]);
                for &xpos in &grouped[lo as usize..hi as usize] {
                    // x.key ∈ y.target_attr holds; require
                    // y.target_key ∈ x.attr.
                    if !echo_col.row(xpos as usize).contains(&yk) {
                        v.push(Violation::Inverse {
                            constraint: cname.get(),
                            from: ext_target[ypos],
                            to: ext_tau[xpos as usize],
                        });
                    }
                }
            }
        }
        v
    }) {
        out.extend(chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_constraint;
    use crate::par::{MIN_NODES_PER_THREAD, SPLIT_THRESHOLD};
    use xic_constraints::Language;
    use xic_model::{AttrValue, TreeBuilder};
    use xic_obs::MetricsCollector;

    /// A violation-dense `item` extent longer than [`SPLIT_THRESHOLD`]
    /// under a unary key and a set foreign key into it.
    fn dense_doc() -> (DtdC, DataTree) {
        let s = DtdStructure::builder("db")
            .elem("db", "item*")
            .elem("item", "EMPTY")
            .attr("item", "k", "S")
            .attr("item", "r", "S*")
            .build()
            .unwrap();
        let sigma = vec![
            Constraint::unary_key("item", "k"),
            Constraint::set_fk("item", "r", "item", "k"),
        ];
        let dtdc = DtdC::new_unchecked(s, Language::Lu, sigma);
        let mut b = TreeBuilder::new();
        let db = b.node("db");
        let n = 3 * SPLIT_THRESHOLD;
        for i in 0..n {
            let it = b.child_node(db, "item").unwrap();
            let k = if i % 7 == 0 {
                "dup".to_string()
            } else {
                format!("k{i}")
            };
            b.attr(it, "k", AttrValue::single(k)).unwrap();
            let mut refs = vec![format!("k{}", (i + 1) % n)];
            if i % 5 == 0 {
                refs.push("missing".to_string());
            }
            b.attr(it, "r", AttrValue::set(refs)).unwrap();
        }
        (dtdc, b.finish(db).unwrap())
    }

    /// With a vertex count past the per-thread clamp, `check_planned`
    /// really fans out — across constraints, and from 4 threads on across
    /// chunks of the set-FK scan — and still returns the 1-thread
    /// violations, which are the per-constraint ground truth concatenated
    /// in Σ order.
    #[test]
    fn fanned_out_check_matches_sequential() {
        let (dtdc, tree) = dense_doc();
        let idx = ExtIndex::build(&tree);
        let plan = Plan::build(&dtdc);
        let doc = DocIndex::build(&tree, &idx, dtdc.structure(), &plan);
        let run = |threads: usize, obs: &Obs| {
            let mut out = Vec::new();
            let doc_nodes = threads * MIN_NODES_PER_THREAD;
            check_planned(&idx, &dtdc, &doc, threads, doc_nodes, obs, &mut out);
            out
        };
        let seq = run(1, &Obs::off());
        let ground: Vec<Violation> = dtdc
            .constraints()
            .iter()
            .flat_map(|c| check_constraint(&tree, &dtdc, c))
            .collect();
        assert_eq!(seq, ground);
        assert!(seq.len() > 2_000, "got {} violations", seq.len());
        for threads in [2, 4, 8] {
            let collector = MetricsCollector::shared();
            let par = run(threads, &Obs::new(collector.clone()));
            assert_eq!(par, seq, "threads={threads}");
            let m = collector.snapshot();
            assert!(m.counter("par.tasks") > 0, "threads={threads}: no fan-out");
            if threads >= 4 {
                assert!(m.span("par.chunk").count > 0, "threads={threads}: no split");
            }
        }
    }
}
