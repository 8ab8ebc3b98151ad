//! The compiled constraint-validation plan and its columnar document index.
//!
//! The naive checker ([`crate::check_constraint`]) re-extracts field values
//! from the tree for every constraint. On realistic schemas many
//! constraints share element types and fields (a key and three foreign keys
//! all touching `person.@oid`), so the [`Validator`] instead compiles Σ
//! once into a [`Plan`]. [`decompose`] turns each constraint into its
//! primitive [`Check`]s, in Σ order; the plan's columns are the
//! `(element type, field)` pairs those checks read, and each check carries
//! its columns' ids. Three consumers read that one list: the column cover,
//! the batch checker below, and the live engine's parts
//! (`crate::incremental`). Validating a document proceeds in two stages:
//!
//! 1. **Extraction** — one pass over each needed extent builds a columnar
//!    [`DocIndex`]: per `(τ, field)` a `Vec<Option<Sym>>` aligned with
//!    `ext(τ)`, holding the `u32` [`Sym`]s of the tree's value pool.
//!    [`cell_single`] and [`cell_set`] read a vertex's cells for both this
//!    index and the live store; they copy the tree's symbols, so only a
//!    sub-element text the pool does not hold is interned (into the
//!    index's side pool). Each field is extracted once, no matter how many
//!    constraints read it, and all subsequent equality/hash/set operations
//!    are integer operations.
//! 2. **Checking** — each constraint's checks run against the shared
//!    columns. With `threads > 1` the constraints fan out, one task each,
//!    and large extents additionally split into chunks whose violation
//!    lists are concatenated in document order.
//!
//! Both stages are engineered to reproduce the sequential checker's
//! violation reports **byte for byte**: constraints report in Σ order,
//! chunks merge in extent order, and symbols are a bijection on the value
//! strings so every probe/dedup decision matches the string-based path.
//!
//! [`Validator`]: crate::Validator

use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use xic_constraints::{Constraint, DtdC, DtdStructure, Field};
use xic_model::{Child, DataTree, ExtIndex, FastHashMap, FastHashSet, Interner, Name, NodeId, Sym};
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

/// One primitive check of Σ: the unit the batch checker runs and the live
/// engine keeps current.
///
/// The paper's three languages reduce to seven primitive checks. An `L_id`
/// reference `τ.l ⊆ τ'.id` is a unary foreign key into the ID column of τ',
/// `τ.l ⊆_S τ'.id` a set-valued one, and an `L_id` inverse is two
/// reference-typing passes followed by an `L_u` inverse keyed on the IDs.
/// [`Plan::build`] decomposes Σ once, in Σ order, and every check carries
/// its columns as plan ids.
#[derive(Clone, Debug)]
pub(crate) struct Check {
    /// The index in Σ of the constraint this check belongs to. A
    /// constraint's checks are consecutive and run in list order.
    pub(crate) sigma: usize,
    pub(crate) kind: CheckKind,
}

#[derive(Clone, Debug)]
pub(crate) enum CheckKind {
    KeyUnary(KeyUnary),
    Key(Key),
    FkSingle(FkSingle),
    FkNary(FkNary),
    SetFk(SetFk),
    Id(IdCheck),
    Inverse(Inverse),
}

/// A one-field key: no two vertices of `ext(τ)` share a defined value of
/// single-valued column `col`.
#[derive(Clone, Debug)]
pub(crate) struct KeyUnary {
    pub(crate) tau: Name,
    pub(crate) col: usize,
}

/// A key over two or more fields, one single-valued column each.
#[derive(Clone, Debug)]
pub(crate) struct Key {
    pub(crate) tau: Name,
    pub(crate) cols: Vec<usize>,
}

/// A unary foreign key: every defined value of `ext(τ).col` is a value of
/// `ext(target).target_col`. An `L_id` reference has no target column when
/// the target type has no ID attribute, and then no target value exists.
#[derive(Clone, Debug)]
pub(crate) struct FkSingle {
    pub(crate) tau: Name,
    pub(crate) col: usize,
    pub(crate) target: Name,
    pub(crate) target_col: Option<usize>,
    /// The field an undefined source value reports as `MissingField`
    /// (`L`/`L_u` foreign keys); `None` skips undefined values (`L_id`).
    pub(crate) missing: Option<String>,
}

/// An n-ary foreign key: every complete source tuple is a target tuple,
/// and an incomplete one reports its fields, joined, as `MissingField`.
#[derive(Clone, Debug)]
pub(crate) struct FkNary {
    pub(crate) tau: Name,
    pub(crate) cols: Vec<usize>,
    pub(crate) target: Name,
    pub(crate) target_cols: Vec<usize>,
    pub(crate) missing: String,
}

/// A set-valued foreign key: every member of set-valued column `col` of
/// `ext(τ)` is a value of single-valued column `target_col` of
/// `ext(target)` (`None` as in [`FkSingle`]).
#[derive(Clone, Debug)]
pub(crate) struct SetFk {
    pub(crate) tau: Name,
    pub(crate) col: usize,
    pub(crate) target: Name,
    pub(crate) target_col: Option<usize>,
}

/// An `L_id` ID constraint: every vertex of `ext(τ)` has a value in τ's ID
/// column `col` that no other vertex of the document carries.
#[derive(Clone, Debug)]
pub(crate) struct IdCheck {
    pub(crate) tau: Name,
    pub(crate) col: usize,
    /// `@id_attr`, as `MissingField` reports it.
    pub(crate) missing: String,
}

/// One direction of an inverse constraint:
/// `∀x ∈ ext(τ) ∀y ∈ ext(τ') (x.key ∈ y.attr' → y.key' ∈ x.attr)`. `key`
/// and `target_key` are single-valued column ids, `attr` and `target_attr`
/// set-valued ones.
#[derive(Clone, Debug)]
pub(crate) struct Inverse {
    pub(crate) tau: Name,
    pub(crate) key: usize,
    pub(crate) attr: usize,
    pub(crate) target: Name,
    pub(crate) target_key: usize,
    pub(crate) target_attr: usize,
}

impl Check {
    /// The columns this check reads, in the plan's one numbering (see
    /// [`Plan::set_id`]).
    pub(crate) fn columns(&self, plan: &Plan) -> Vec<usize> {
        let set = |c: usize| plan.set_id(c);
        match &self.kind {
            CheckKind::KeyUnary(k) => vec![k.col],
            CheckKind::Key(k) => k.cols.clone(),
            CheckKind::FkSingle(k) => [k.col].into_iter().chain(k.target_col).collect(),
            CheckKind::FkNary(k) => [&k.cols[..], &k.target_cols].concat(),
            CheckKind::SetFk(k) => [set(k.col)].into_iter().chain(k.target_col).collect(),
            // Any type's ID carriers shift the duplicate lists; τ's own ID
            // column is one of them.
            CheckKind::Id(_) => plan.id_cols.iter().map(|&(_, c)| c).collect(),
            CheckKind::Inverse(k) => vec![k.key, k.target_key, set(k.attr), set(k.target_attr)],
        }
    }
}

/// The columns a constraint set will read, and its checks, compiled once
/// per `DTD^C`.
///
/// The plan is the one owner of the column layout. It numbers the planned
/// columns once: the single-valued columns ascending by `(τ, field)`, then
/// the set-valued columns ascending by `(τ, attr)`. Every column store —
/// the one-shot [`DocIndex`], the stream fill, and the live validator's
/// mutable store and snapshots — is a vector in that order. Every
/// constraint check reads its columns through the ids its [`Check`]
/// carries; only the fill paths look a column up by name.
#[derive(Clone, Debug, Default)]
pub(crate) struct Plan {
    /// Single-valued column `i` reads field `singles[i].1` of `ext(singles[i].0)`.
    pub(crate) singles: Vec<(Name, Field)>,
    /// Set-valued column `i` reads attribute `sets[i].1` of `ext(sets[i].0)`.
    pub(crate) sets: Vec<(Name, Name)>,
    /// Per element type some constraint reads: its columns.
    pub(crate) taus: BTreeMap<Name, TauPlan>,
    /// Σ decomposed into checks, in Σ order.
    pub(crate) checks: Vec<Check>,
    /// The document-wide ID table's columns when Σ has an `L_id` ID
    /// constraint: every type with an ID attribute, in `element_types()`
    /// order, with its ID column. Empty otherwise.
    pub(crate) id_cols: Vec<(Name, usize)>,
}

/// The columns of one element type τ, so a pass over a vertex of τ fills
/// its cells without touching the rest of the plan.
#[derive(Clone, Debug, Default)]
pub(crate) struct TauPlan {
    /// τ's position in [`Plan::taus`], which indexes per-type tables such
    /// as the live store's slot lists.
    pub(crate) rank: usize,
    /// `(field, single-column index)`, ascending by field (attributes
    /// before unique sub-elements).
    pub(crate) singles: Vec<(Field, usize)>,
    /// `(attribute, set-column index)`, ascending by attribute.
    pub(crate) sets: Vec<(Name, usize)>,
}

/// How [`decompose`] names a column: the [`Cover`] records it before the
/// plan numbers it, and the [`Plan`] resolves it to its id.
trait Columns {
    fn single(&mut self, tau: &Name, field: &Field) -> usize;

    fn set(&mut self, tau: &Name, attr: &Name) -> usize;

    fn singles(&mut self, tau: &Name, fields: &[Field]) -> Vec<usize> {
        fields.iter().map(|f| self.single(tau, f)).collect()
    }

    /// τ's ID column, if τ declares an ID attribute.
    fn id(&mut self, s: &DtdStructure, tau: &Name) -> Option<usize> {
        let id = s.id_attr(tau)?;
        Some(self.single(tau, &Field::Attr(id.clone())))
    }
}

/// The `(τ, field)` pairs Σ reads, collected before [`Plan::build`]
/// numbers them.
#[derive(Default)]
struct Cover {
    singles: BTreeSet<(Name, Field)>,
    sets: BTreeSet<(Name, Name)>,
}

impl Columns for Cover {
    /// Records the column; its id is not known until the cover is
    /// complete, so the returned 0 is a placeholder.
    fn single(&mut self, tau: &Name, field: &Field) -> usize {
        self.singles.insert((tau.clone(), field.clone()));
        0
    }

    fn set(&mut self, tau: &Name, attr: &Name) -> usize {
        self.sets.insert((tau.clone(), attr.clone()));
        0
    }
}

impl Columns for Plan {
    fn single(&mut self, tau: &Name, field: &Field) -> usize {
        self.single_col(tau, field)
            .expect("the cover holds every single field a check reads")
    }

    fn set(&mut self, tau: &Name, attr: &Name) -> usize {
        self.set_col(tau, attr)
            .expect("the cover holds every set attribute a check reads")
    }
}

/// Decomposes Σ into its checks, in Σ order: the one place a constraint
/// becomes columns and kernels. [`Plan::build`] runs it twice, first
/// against the [`Cover`] to collect the columns, then against the numbered
/// plan to resolve them.
fn decompose(s: &DtdStructure, sigma: &[Constraint], cols: &mut impl Columns) -> Vec<Check> {
    let mut checks = Vec::new();
    for (i, c) in sigma.iter().enumerate() {
        let mut push = |kind| checks.push(Check { sigma: i, kind });
        match c {
            Constraint::Key { tau, fields } => push(match fields.as_slice() {
                [f] => CheckKind::KeyUnary(KeyUnary {
                    tau: tau.clone(),
                    col: cols.single(tau, f),
                }),
                _ => CheckKind::Key(Key {
                    tau: tau.clone(),
                    cols: cols.singles(tau, fields),
                }),
            }),
            Constraint::ForeignKey {
                tau,
                fields,
                target,
                target_fields,
            } => push(match (fields.as_slice(), target_fields.as_slice()) {
                ([f], [tf]) => CheckKind::FkSingle(FkSingle {
                    tau: tau.clone(),
                    col: cols.single(tau, f),
                    target: target.clone(),
                    target_col: Some(cols.single(target, tf)),
                    missing: Some(f.to_string()),
                }),
                _ => CheckKind::FkNary(FkNary {
                    tau: tau.clone(),
                    cols: cols.singles(tau, fields),
                    target: target.clone(),
                    target_cols: cols.singles(target, target_fields),
                    missing: (fields.iter().map(ToString::to_string))
                        .collect::<Vec<_>>()
                        .join(", "),
                }),
            }),
            Constraint::SetForeignKey {
                tau,
                attr,
                target,
                target_field,
            } => push(CheckKind::SetFk(SetFk {
                tau: tau.clone(),
                col: cols.set(tau, attr),
                target: target.clone(),
                target_col: Some(cols.single(target, target_field)),
            })),
            Constraint::InverseU {
                tau,
                key,
                attr,
                target,
                target_key,
                target_attr,
            } => {
                let (key, attr) = (cols.single(tau, key), cols.set(tau, attr));
                let (tkey, tattr) = (
                    cols.single(target, target_key),
                    cols.set(target, target_attr),
                );
                push(inverse(tau, key, attr, target, tkey, tattr));
                push(inverse(target, tkey, tattr, tau, key, attr));
            }
            Constraint::Id { tau } => {
                if let (Some(id), Some(col)) = (s.id_attr(tau), cols.id(s, tau)) {
                    push(CheckKind::Id(IdCheck {
                        tau: tau.clone(),
                        col,
                        missing: format!("@{id}"),
                    }));
                }
            }
            Constraint::FkToId { tau, attr, target } => push(CheckKind::FkSingle(FkSingle {
                tau: tau.clone(),
                col: cols.single(tau, &Field::Attr(attr.clone())),
                target: target.clone(),
                target_col: cols.id(s, target),
                missing: None,
            })),
            Constraint::SetFkToId { tau, attr, target } => push(CheckKind::SetFk(SetFk {
                tau: tau.clone(),
                col: cols.set(tau, attr),
                target: target.clone(),
                target_col: cols.id(s, target),
            })),
            Constraint::InverseId {
                tau,
                attr,
                target,
                target_attr,
            } => {
                let (attr, tattr) = (cols.set(tau, attr), cols.set(target, target_attr));
                let (Some(id), Some(tid)) = (cols.id(s, tau), cols.id(s, target)) else {
                    continue; // rejected at well-formedness; nothing to check
                };
                // Reference typing first (τ.l ⊆_S τ'.id, τ'.l' ⊆_S τ.id),
                // then both inverse directions keyed on the IDs.
                for (src, col, dst, target_col) in
                    [(tau, attr, target, tid), (target, tattr, tau, id)]
                {
                    push(CheckKind::SetFk(SetFk {
                        tau: src.clone(),
                        col,
                        target: dst.clone(),
                        target_col: Some(target_col),
                    }));
                }
                push(inverse(tau, id, attr, target, tid, tattr));
                push(inverse(target, tid, tattr, tau, id, attr));
            }
        }
    }
    checks
}

fn inverse(
    tau: &Name,
    key: usize,
    attr: usize,
    target: &Name,
    tkey: usize,
    tattr: usize,
) -> CheckKind {
    CheckKind::Inverse(Inverse {
        tau: tau.clone(),
        key,
        attr,
        target: target.clone(),
        target_key: tkey,
        target_attr: tattr,
    })
}

impl Plan {
    /// Compiles the column set and the checks of `dtdc`'s Σ.
    pub(crate) fn build(dtdc: &DtdC) -> Self {
        let (s, sigma) = (dtdc.structure(), dtdc.constraints());
        let mut cover = Cover::default();
        let needs_ids =
            (decompose(s, sigma, &mut cover).iter()).any(|k| matches!(k.kind, CheckKind::Id(_)));
        if needs_ids {
            // The document-wide ID table spans every type with an ID
            // attribute, not just the types named in Σ.
            for tau in s.element_types() {
                cover.id(s, tau);
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
        for (rank, tp) in taus.values_mut().enumerate() {
            tp.rank = rank;
        }
        let mut plan = Plan {
            singles: cover.singles.into_iter().collect(),
            sets: cover.sets.into_iter().collect(),
            taus,
            ..Plan::default()
        };
        if needs_ids {
            plan.id_cols = (s.element_types())
                .filter_map(|tau| Some((tau.clone(), plan.id(s, tau)?)))
                .collect();
        }
        plan.checks = decompose(s, sigma, &mut plan);
        plan
    }

    /// The checks of Σ's `i`-th constraint, in the order they run.
    fn checks_of(&self, i: usize) -> &[Check] {
        let lo = self.checks.partition_point(|k| k.sigma < i);
        let hi = self.checks.partition_point(|k| k.sigma <= i);
        &self.checks[lo..hi]
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

/// The per-document columnar index: one column of symbols per planned
/// `(τ, field)`, aligned with `ext(τ)` and stored in plan order, plus the
/// document-wide ID table.
pub(crate) struct DocIndex<'p> {
    plan: &'p Plan,
    /// The value pool the columns' symbols come from: the tree's, or the
    /// streaming pass's own.
    pool: &'p Interner,
    /// The sub-element texts `pool` does not hold, numbered past
    /// `pool.len()`.
    side: Interner,
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
    /// One pass over each planned extent copies the tree's symbols into
    /// every column of τ. Only a sub-element text the tree's pool does not
    /// hold is interned, into the side pool.
    pub(crate) fn build(tree: &'p DataTree, idx: &ExtIndex, plan: &'p Plan) -> Self {
        let pool = tree.pool();
        let mut side = Interner::new();
        let mut singles: Vec<Vec<Option<Sym>>> = (plan.singles.iter())
            .map(|(tau, _)| Vec::with_capacity(idx.ext(tau).len()))
            .collect();
        let mut sets = vec![SetCol::default(); plan.sets.len()];
        for (tau, tp) in &plan.taus {
            for &x in idx.ext(tau) {
                for (field, c) in &tp.singles {
                    let cell = cell_single(tree, x, field).map(|cell| {
                        cell.unwrap_or_else(|child| {
                            // A concatenated text the pool holds keeps the
                            // pool's symbol, so it equals an attribute value
                            // spelling the same string.
                            let text = tree.text(child);
                            pool.get(&text).unwrap_or_else(|| {
                                let i = pool.len() + side.intern(&text).index();
                                Sym::from_index(u32::try_from(i).expect("symbols fit u32"))
                            })
                        })
                    });
                    singles[*c].push(cell);
                }
                for (attr, c) in &tp.sets {
                    sets[*c].push_row(cell_set(tree, x, attr));
                }
            }
        }
        DocIndex {
            side,
            ..DocIndex::from_parts(pool, singles, sets, idx, plan)
        }
    }

    /// Assembles an index from already-extracted columns of `pool`'s
    /// symbols (the streaming builder fills them without a tree) and
    /// derives the document-wide ID table. Symbol numbering does not
    /// matter for report equality: symbols are only compared for
    /// equality/membership, never for order, and every violation sequence
    /// follows extent order, so any bijective numbering yields
    /// byte-identical reports.
    pub(crate) fn from_parts(
        pool: &'p Interner,
        singles: Vec<Vec<Option<Sym>>>,
        sets: Vec<SetCol>,
        idx: &ExtIndex,
        plan: &'p Plan,
    ) -> Self {
        let mut global_ids: FastHashMap<Sym, Vec<NodeId>> = FastHashMap::default();
        for (tau, c) in &plan.id_cols {
            let ext = idx.ext(tau);
            for (pos, sym) in singles[*c].iter().enumerate() {
                if let Some(sym) = sym {
                    global_ids.entry(*sym).or_default().push(ext[pos]);
                }
            }
        }
        DocIndex {
            plan,
            pool,
            side: Interner::new(),
            singles,
            sets,
            global_ids,
        }
    }

    fn resolve(&self, sym: Sym) -> &str {
        match sym.index().checked_sub(self.pool.len()) {
            None => self.pool.resolve(sym),
            Some(i) => self.side.resolve(Sym::from_index(i as u32)),
        }
    }

    /// Row `pos`'s tuple over single-valued columns `cols` (`None` while
    /// any field is undefined).
    fn tuple(&self, cols: &[usize], pos: usize) -> Option<Vec<Sym>> {
        cols.iter().map(|&c| self.singles[c][pos]).collect()
    }

    fn join(&self, syms: &[Sym]) -> String {
        syms.iter()
            .map(|&s| self.resolve(s))
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Number of symbols of both pools (the [`SymSet`] capacity).
    fn sym_count(&self) -> usize {
        self.pool.len() + self.side.len()
    }

    /// The distinct values of single-valued column `col` (empty for none).
    fn values_of(&self, col: Option<usize>) -> SymSet {
        let mut set = SymSet::new(self.sym_count());
        for sym in col.map_or(&[][..], |c| &self.singles[c]).iter().flatten() {
            set.insert(*sym);
        }
        set
    }
}

/// `x`'s cell in a single-valued column of `field`: the symbol the tree
/// holds, or `Err(child)` for a sub-element `child` whose text is not one
/// text child, which the tree holds no symbol for. Must agree with
/// [`crate::constraints::field_value`].
pub(crate) fn cell_single(
    tree: &DataTree,
    x: NodeId,
    field: &Field,
) -> Option<Result<Sym, NodeId>> {
    match field {
        Field::Attr(l) => tree.attr(x, l)?.sym().map(Ok),
        Field::Sub(e) => {
            let child = unique_sub(tree, x, e)?;
            let mut texts = tree.children(child).iter().filter_map(Child::as_text);
            Some(match (texts.next(), texts.next()) {
                (Some(t), None) => Ok(t),
                _ => Err(child),
            })
        }
    }
}

/// `x`'s cell in a set-valued column of `attr`: the members' symbols in
/// sorted string order (none when the attribute is absent). Must agree
/// with `set_value` in `constraints.rs`.
pub(crate) fn cell_set<'t>(
    tree: &'t DataTree,
    x: NodeId,
    attr: &Name,
) -> impl Iterator<Item = Sym> + 't {
    tree.attr(x, attr).into_iter().flat_map(|v| v.syms())
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
/// and streaming paths), appending violations in Σ order. One task per
/// constraint runs that constraint's checks in order.
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
    let cs = dtdc.constraints();
    let affordable = (doc_nodes / crate::par::MIN_NODES_PER_THREAD).max(1);
    let outer = threads.max(1).min(affordable);
    let inner = (outer / cs.len().max(1)).max(1);
    let per_constraint = {
        let _check = obs.span("check");
        fan_out(
            outer,
            cs.iter().enumerate().collect(),
            obs,
            "par.constraint",
            |(i, c)| {
                let _kind = obs.span(kind_span(c));
                let mut v = Vec::new();
                for check in doc.plan.checks_of(i) {
                    check_one_planned(idx, doc, c, &check.kind, inner, obs, &mut v);
                }
                v
            },
        )
    };
    let _merge = obs.span("merge");
    for v in per_constraint {
        out.extend(v);
    }
}

/// Splits `0..len` into chunks (see [`chunked`]) and appends what `scan`
/// reports for each, in order.
fn scan_chunks(
    inner: usize,
    len: usize,
    obs: &Obs,
    c: &Constraint,
    out: &mut Vec<Violation>,
    scan: impl Fn(Range<usize>, &CName, &mut Vec<Violation>) + Sync,
) {
    for chunk in chunked(inner, len, obs, "par.chunk", |range| {
        let mut v = Vec::new();
        scan(range, &CName::new(c), &mut v);
        v
    }) {
        out.extend(chunk);
    }
}

/// Runs one check of constraint `c` against the columns, appending its
/// violations in the sequential scan's order.
fn check_one_planned(
    idx: &ExtIndex,
    doc: &DocIndex,
    c: &Constraint,
    check: &CheckKind,
    inner: usize,
    obs: &Obs,
    out: &mut Vec<Violation>,
) {
    match check {
        CheckKind::KeyUnary(k) => {
            // First-seen dedup is order-dependent, so the scan stays
            // sequential: a dense first-seen table indexed by symbol, with
            // no per-element tuple allocation and no hashing.
            let cname = CName::new(c);
            let (ext, col) = (idx.ext(&k.tau), &doc.singles[k.col]);
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
        }
        CheckKind::Key(k) => {
            let cname = CName::new(c);
            let mut seen: FastHashMap<Vec<Sym>, NodeId> = FastHashMap::default();
            for (pos, &x) in idx.ext(&k.tau).iter().enumerate() {
                let Some(t) = doc.tuple(&k.cols, pos) else {
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
        CheckKind::FkSingle(k) => {
            // Target membership is a symbol bitset probe.
            let targets = doc.values_of(k.target_col);
            let (ext, col) = (idx.ext(&k.tau), &doc.singles[k.col]);
            scan_chunks(inner, ext.len(), obs, c, out, |range, cname, v| {
                for pos in range {
                    match (col[pos], &k.missing) {
                        (Some(sym), _) if !targets.contains(sym) => v.push(Violation::ForeignKey {
                            constraint: cname.get(),
                            node: ext[pos],
                            value: doc.resolve(sym).to_string(),
                        }),
                        (None, Some(field)) => v.push(Violation::MissingField {
                            constraint: cname.get(),
                            node: ext[pos],
                            field: field.clone(),
                        }),
                        _ => {}
                    }
                }
            });
        }
        CheckKind::FkNary(k) => {
            let targets: FastHashSet<Vec<Sym>> = (0..idx.ext(&k.target).len())
                .filter_map(|pos| doc.tuple(&k.target_cols, pos))
                .collect();
            let ext = idx.ext(&k.tau);
            scan_chunks(inner, ext.len(), obs, c, out, |range, cname, v| {
                for pos in range {
                    match doc.tuple(&k.cols, pos) {
                        Some(t) if targets.contains(&t) => {}
                        Some(t) => v.push(Violation::ForeignKey {
                            constraint: cname.get(),
                            node: ext[pos],
                            value: doc.join(&t),
                        }),
                        None => v.push(Violation::MissingField {
                            constraint: cname.get(),
                            node: ext[pos],
                            field: k.missing.clone(),
                        }),
                    }
                }
            });
        }
        CheckKind::SetFk(k) => {
            let targets = doc.values_of(k.target_col);
            let (ext, col) = (idx.ext(&k.tau), &doc.sets[k.col]);
            scan_chunks(inner, ext.len(), obs, c, out, |range, cname, v| {
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
            });
        }
        CheckKind::Id(k) => {
            let (ext, col) = (idx.ext(&k.tau), &doc.singles[k.col]);
            scan_chunks(inner, ext.len(), obs, c, out, |range, cname, v| {
                for pos in range {
                    let x = ext[pos];
                    let Some(value) = col[pos] else {
                        v.push(Violation::MissingField {
                            constraint: cname.get(),
                            node: x,
                            field: k.missing.clone(),
                        });
                        continue;
                    };
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
            });
        }
        CheckKind::Inverse(k) => check_inverse_planned(idx, doc, c, k, inner, obs, out),
    }
}

/// One direction of an inverse constraint over the columns (see
/// [`Inverse`]).
///
/// `ext(τ)` is indexed on the key sequentially (doc order matters for the
/// violation sequence); the `ext(τ')` scan is per-`y` independent and
/// splits across chunks.
fn check_inverse_planned(
    idx: &ExtIndex,
    doc: &DocIndex,
    c: &Constraint,
    k: &Inverse,
    inner: usize,
    obs: &Obs,
    out: &mut Vec<Violation>,
) {
    let key_col = &doc.singles[k.key];
    let ext_tau = idx.ext(&k.tau);
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
    let echo_col = &doc.sets[k.attr];
    let target_key_col = &doc.singles[k.target_key];
    let target_attr_col = &doc.sets[k.target_attr];
    let ext_target = idx.ext(&k.target);
    scan_chunks(inner, ext_target.len(), obs, c, out, |range, cname, v| {
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
    });
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
        let doc = DocIndex::build(&tree, &idx, &plan);
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
