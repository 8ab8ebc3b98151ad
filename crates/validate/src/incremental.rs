//! Incremental constraint revalidation under document edits.
//!
//! [`Validator::validate`] rebuilds the extent index, re-extracts every
//! planned column, and rescans every constraint for each call — Θ(doc) work
//! even when one attribute changed. [`LiveValidator`] instead owns the tree
//! and maintains, across edits, exactly the state a from-scratch run would
//! compute:
//!
//! * a **mutable columnar store** — per planned `(τ, field)` a map from
//!   vertex to interned value plus a reverse occurrence index (value ↦
//!   vertices), replacing the extent-aligned one-shot columns of
//!   [`crate::plan`]'s `DocIndex`;
//! * **refcounted membership sets** ([`CountedSymSet`], and tuple refcounts
//!   for n-ary foreign keys) in place of the one-shot first-seen tables and
//!   bitsets, so target values can be retracted one occurrence at a time;
//! * a **per-vertex structural map**: the content-model and attribute
//!   violations of each vertex, recomputed only for vertices whose own
//!   child word or attributes an edit touched;
//! * per-constraint **violation tables** keyed so that in-order iteration
//!   reproduces the sequential engine's emission order byte for byte.
//!
//! Edits arrive through one path, [`LiveValidator::apply_batch`] (a
//! single edit is a one-element batch). Each batch returns a
//! [`ReportDiff`] of violations newly raised and newly cleared, while
//! [`LiveValidator::report`] stays byte-identical to `Validator::validate`
//! on the current tree (enforced by the `incremental_equivalence`
//! proptests).
//!
//! Per edit the work is bounded by the number of vertices whose violation
//! status can actually change — the edited vertex, its parent, and the
//! vertices sharing a key/reference value with it — never by document size.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use xic_constraints::{Constraint, DtdC, Field};
use xic_model::{
    AttrValue, DataTree, Edit, ExtIndex, FastHashMap, Interner, ModelError, Name, NodeId, Sym,
    Value,
};
use xic_obs::{Metrics, Obs};
use xic_regex::Symbol;

use crate::plan::{extract_single, CountedSymSet};
use crate::report::{Report, Violation};
use crate::structure::Validator;

/// The violations an edit newly raised and newly cleared.
///
/// `old report + raised − cleared = new report` as multisets; violations
/// that merely moved position in the report appear in neither list.
#[derive(Clone, Debug, Default)]
pub struct ReportDiff {
    /// Violations present after the edit but not before.
    pub raised: Vec<Violation>,
    /// Violations present before the edit but not after.
    pub cleared: Vec<Violation>,
    /// Cumulative observability snapshot, present iff the owning
    /// validator has a metrics-aggregating collector attached (see
    /// `Validator::set_obs`). Excluded from equality: two diffs raising
    /// and clearing the same violations are equal whatever was measured.
    pub metrics: Option<Metrics>,
}

impl PartialEq for ReportDiff {
    fn eq(&self, other: &Self) -> bool {
        self.raised == other.raised && self.cleared == other.cleared
    }
}

impl Eq for ReportDiff {}

impl ReportDiff {
    /// True iff the edit changed no violation.
    pub fn is_empty(&self) -> bool {
        self.raised.is_empty() && self.cleared.is_empty()
    }
}

/// Sort key of one violation entry inside a part's table. The tuples are
/// chosen per part kind so that `BTreeMap` iteration order equals the
/// sequential engine's emission order (see each kind's refresh method).
type VKey = (u32, u32, u32, u32);

/// Records, per touched violation slot, its value *before* the edit; after
/// all updates ran, comparing against the post-edit value yields the diff.
#[derive(Default)]
struct DiffAcc {
    /// Vertex ↦ its structural violations at first touch.
    structure: BTreeMap<u32, Vec<Violation>>,
    /// `(part, key)` ↦ the entry at first touch.
    parts: BTreeMap<(u32, VKey), Option<Violation>>,
}

impl DiffAcc {
    fn touch_struct(&mut self, x: u32, old: &[Violation]) {
        self.structure.entry(x).or_insert_with(|| old.to_vec());
    }

    fn touch_part(&mut self, pi: u32, k: VKey, old: Option<&Violation>) {
        self.parts.entry((pi, k)).or_insert_with(|| old.cloned());
    }

    fn finalize(self, struct_now: &BTreeMap<u32, Vec<Violation>>, parts: &[Part]) -> ReportDiff {
        let mut raised = Vec::new();
        let mut cleared = Vec::new();
        let empty = Vec::new();
        for (x, old) in &self.structure {
            let new = struct_now.get(x).unwrap_or(&empty);
            let mut leftovers: Vec<&Violation> = old.iter().collect();
            for v in new {
                if let Some(i) = leftovers.iter().position(|o| *o == v) {
                    leftovers.remove(i);
                } else {
                    raised.push(v.clone());
                }
            }
            cleared.extend(leftovers.into_iter().cloned());
        }
        for ((pi, k), old) in &self.parts {
            let new = parts[*pi as usize].entries.get(k);
            match (old, new) {
                (None, Some(n)) => raised.push(n.clone()),
                (Some(o), None) => cleared.push(o.clone()),
                (Some(o), Some(n)) if o != n => {
                    cleared.push(o.clone());
                    raised.push(n.clone());
                }
                _ => {}
            }
        }
        // An edit that moves a violation between slots (e.g. a key group
        // whose surviving witness changes) would otherwise report the same
        // violation as both raised and cleared: cancel such pairs.
        let mut i = 0;
        while i < raised.len() {
            if let Some(j) = cleared.iter().position(|c| *c == raised[i]) {
                cleared.remove(j);
                raised.remove(i);
            } else {
                i += 1;
            }
        }
        ReportDiff {
            raised,
            cleared,
            metrics: None,
        }
    }
}

/// The ascending vertex set one occurrence-index value maps to. The
/// overwhelmingly common case — key-like columns where most values have
/// exactly one holder — stores the vertex inline; a B-tree node is only
/// allocated once a value is actually shared, so bulk-loading a
/// unique-valued column allocates nothing for the index payloads.
enum Holders {
    One(u32),
    Many(BTreeSet<u32>),
}

impl Holders {
    fn insert(&mut self, x: u32) {
        match self {
            Holders::One(y) if *y == x => {}
            Holders::One(y) => *self = Holders::Many(BTreeSet::from([*y, x])),
            Holders::Many(set) => {
                set.insert(x);
            }
        }
    }

    /// Removes `x`; returns `true` when the set became empty (the caller
    /// drops the map entry — `Holders` has no empty state).
    fn remove(&mut self, x: u32) -> bool {
        match self {
            Holders::One(y) => *y == x,
            Holders::Many(set) => {
                set.remove(&x);
                set.is_empty()
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            Holders::One(_) => 1,
            Holders::Many(set) => set.len(),
        }
    }

    /// Builds a set from a non-empty counting-sort run of holders.
    fn from_run(mut it: impl Iterator<Item = u32>) -> Self {
        let first = it.next().expect("occurrence runs are non-empty");
        match it.next() {
            None => Holders::One(first),
            Some(second) => {
                let mut set = BTreeSet::from([first, second]);
                set.extend(it);
                Holders::Many(set)
            }
        }
    }

    /// The holders, ascending.
    fn iter(&self) -> HoldersIter<'_> {
        match self {
            Holders::One(x) => HoldersIter::One(Some(*x)),
            Holders::Many(set) => HoldersIter::Many(set.iter()),
        }
    }
}

enum HoldersIter<'a> {
    One(Option<u32>),
    Many(std::collections::btree_set::Iter<'a, u32>),
}

impl Iterator for HoldersIter<'_> {
    type Item = u32;
    fn next(&mut self) -> Option<u32> {
        match self {
            HoldersIter::One(x) => x.take(),
            HoldersIter::Many(it) => it.next().copied(),
        }
    }
}

/// One planned single-valued column: vertex ↦ value, plus the reverse
/// occurrence index the refresh paths probe.
///
/// Values live in a dense vector indexed by vertex id (`Option<Sym>` is 4
/// bytes via the `NonZeroU32` niche): cell reads and writes on the edit
/// hot path are one indexed load instead of a hash probe, and bulk init
/// fills cells by plain stores. Vertices outside the column's extent just
/// hold `None`, indistinguishable from an undefined field — exactly the
/// semantics every reader already assumed.
#[derive(Default)]
struct SingleCol {
    vals: Vec<Option<Sym>>,
    occ: FastHashMap<Sym, Holders>,
}

impl SingleCol {
    /// Sets `x`'s value (growing the column if needed), returning the
    /// previous one.
    fn set(&mut self, x: u32, new: Option<Sym>) -> Option<Sym> {
        let xi = x as usize;
        if xi >= self.vals.len() {
            self.vals.resize(xi + 1, None);
        }
        let old = std::mem::replace(&mut self.vals[xi], new);
        if old != new {
            if let Some(o) = old {
                if let Some(h) = self.occ.get_mut(&o) {
                    if h.remove(x) {
                        self.occ.remove(&o);
                    }
                }
            }
            if let Some(n) = new {
                self.occ
                    .entry(n)
                    .and_modify(|h| h.insert(x))
                    .or_insert(Holders::One(x));
            }
        }
        old
    }

    /// Clears `x`'s cell, returning its last value.
    fn remove(&mut self, x: u32) -> Option<Sym> {
        let old = self.vals.get_mut(x as usize).and_then(Option::take);
        if let Some(o) = old {
            if let Some(h) = self.occ.get_mut(&o) {
                if h.remove(x) {
                    self.occ.remove(&o);
                }
            }
        }
        old
    }

    /// `x`'s value (`None` for an undefined field or an out-of-extent
    /// vertex).
    fn get(&self, x: u32) -> Option<Sym> {
        self.vals.get(x as usize).copied().flatten()
    }

    /// The tracked vertices holding value `v`, ascending.
    fn nodes_with(&self, v: Sym) -> impl Iterator<Item = u32> + '_ {
        self.occ.get(&v).into_iter().flat_map(Holders::iter)
    }
}

/// One planned set-valued column: vertex ↦ members (in `AttrValue`'s sorted
/// order), plus member ↦ vertices. Rows are dense by vertex id like
/// [`SingleCol`]; an empty row allocates nothing.
#[derive(Default)]
struct SetCol {
    vals: Vec<Vec<Sym>>,
    occ: FastHashMap<Sym, Holders>,
}

impl SetCol {
    fn set(&mut self, x: u32, new: Vec<Sym>) -> Vec<Sym> {
        let xi = x as usize;
        if xi >= self.vals.len() {
            self.vals.resize_with(xi + 1, Vec::new);
        }
        let old = std::mem::replace(&mut self.vals[xi], new);
        for &m in &old {
            if let Some(h) = self.occ.get_mut(&m) {
                if h.remove(x) {
                    self.occ.remove(&m);
                }
            }
        }
        for &m in &self.vals[xi] {
            self.occ
                .entry(m)
                .and_modify(|h| h.insert(x))
                .or_insert(Holders::One(x));
        }
        old
    }

    fn remove(&mut self, x: u32) -> Vec<Sym> {
        let old = self
            .vals
            .get_mut(x as usize)
            .map(std::mem::take)
            .unwrap_or_default();
        for &m in &old {
            if let Some(h) = self.occ.get_mut(&m) {
                if h.remove(x) {
                    self.occ.remove(&m);
                }
            }
        }
        old
    }

    fn get(&self, x: u32) -> &[Sym] {
        self.vals.get(x as usize).map(Vec::as_slice).unwrap_or(&[])
    }

    fn nodes_with(&self, v: Sym) -> impl Iterator<Item = u32> + '_ {
        self.occ.get(&v).into_iter().flat_map(Holders::iter)
    }
}

/// The live counterpart of the one-shot `DocIndex`: every planned column as
/// a mutable map, sharing one interner. Interning order is irrelevant for
/// report equality — symbols are only compared for equality/membership, and
/// violations carry resolved strings.
struct Store {
    interner: Interner,
    singles: HashMap<(Name, Field), SingleCol>,
    sets: HashMap<(Name, Name), SetCol>,
}

impl Store {
    fn single(&self, tau: &Name, f: &Field) -> &SingleCol {
        self.singles
            .get(&(tau.clone(), f.clone()))
            .expect("plan covers every single field a constraint reads")
    }

    fn set_col(&self, tau: &Name, a: &Name) -> &SetCol {
        self.sets
            .get(&(tau.clone(), a.clone()))
            .expect("plan covers every set attribute a constraint reads")
    }

    fn resolve(&self, s: Sym) -> &str {
        self.interner.resolve(s)
    }

    fn join(&self, t: &[Sym]) -> String {
        t.iter()
            .map(|&s| self.resolve(s))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// The document-wide ID table: ID value ↦ carriers as `(type rank, vertex)`
/// pairs, whose `BTreeSet` order equals the sequential engine's
/// `element_types() × extent` carrier order.
#[derive(Default)]
struct IdTable {
    /// Element type ↦ its rank in `element_types()` order.
    ranks: FastHashMap<Name, u32>,
    /// Element type ↦ its ID attribute as a field (types with one only).
    id_field_of: HashMap<Name, Field>,
    carriers: FastHashMap<Sym, BTreeSet<(u32, u32)>>,
}

impl IdTable {
    fn carriers_of(&self, v: Sym) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.carriers.get(&v).into_iter().flatten().copied()
    }

    /// Core carrier maintenance, run before parts see the change.
    fn apply(&mut self, change: &Change, store: &Store) {
        let IdTable {
            ranks,
            id_field_of,
            carriers,
        } = self;
        match change {
            Change::Single {
                tau,
                field,
                node,
                old,
                new,
            } => {
                if id_field_of.get(tau) == Some(field) {
                    let rank = ranks[tau];
                    if let Some(o) = *old {
                        if let Some(set) = carriers.get_mut(&o) {
                            set.remove(&(rank, *node));
                            if set.is_empty() {
                                carriers.remove(&o);
                            }
                        }
                    }
                    if let Some(n) = *new {
                        carriers.entry(n).or_default().insert((rank, *node));
                    }
                }
            }
            Change::NodeAdded { tau, node } => {
                if let Some(f) = id_field_of.get(tau) {
                    if let Some(v) = store.single(tau, f).get(*node) {
                        carriers.entry(v).or_default().insert((ranks[tau], *node));
                    }
                }
            }
            Change::NodeRemoved { tau, node, singles } => {
                if let Some(f) = id_field_of.get(tau) {
                    if let Some(v) = snapshot_single(singles, f) {
                        let rank = ranks[tau];
                        if let Some(set) = carriers.get_mut(&v) {
                            set.remove(&(rank, *node));
                            if set.is_empty() {
                                carriers.remove(&v);
                            }
                        }
                    }
                }
            }
            Change::Set { .. } => {}
        }
    }
}

/// One column-level delta, dispatched to every constraint part. The store
/// (and ID table) already reflect the *post*-change state when parts run;
/// the change carries the old values parts need for retraction.
enum Change {
    /// A vertex entered the document with all its columns already filled.
    NodeAdded { tau: Name, node: u32 },
    /// A vertex left the document; `singles` snapshots its single-valued
    /// column values at removal time.
    NodeRemoved {
        tau: Name,
        node: u32,
        singles: Vec<(Field, Option<Sym>)>,
    },
    /// One single-valued column cell changed.
    Single {
        tau: Name,
        field: Field,
        node: u32,
        old: Option<Sym>,
        new: Option<Sym>,
    },
    /// One set-valued column cell changed (members after the change are in
    /// the store; parts recompute affected slots from scratch).
    Set { tau: Name, attr: Name, node: u32 },
}

fn snapshot_single(singles: &[(Field, Option<Sym>)], f: &Field) -> Option<Sym> {
    singles.iter().find(|(g, _)| g == f).and_then(|(_, v)| *v)
}

fn nid(x: u32) -> NodeId {
    NodeId::from_index(x as usize)
}

/// Stable counting sort of `(sym, payload)` pairs by dense symbol index:
/// one count pass, one scatter, no hashing or comparisons. Equal-symbol
/// runs in the result keep their input order. Bulk init uses this to build
/// the reverse occurrence maps (value ↦ vertices) in O(pairs + symbols)
/// instead of one hash probe and B-tree insert per cell.
fn counting_sort_by_sym<V: Copy>(pairs: &[(Sym, V)], sym_count: usize) -> Vec<(Sym, V)> {
    let Some(&first) = pairs.first() else {
        return Vec::new();
    };
    let mut cursors = vec![0u32; sym_count];
    for (s, _) in pairs {
        cursors[s.index()] += 1;
    }
    let mut start = 0u32;
    for c in cursors.iter_mut() {
        let n = *c;
        *c = start;
        start += n;
    }
    let mut out = vec![first; pairs.len()];
    for &(s, v) in pairs {
        let c = &mut cursors[s.index()];
        out[*c as usize] = (s, v);
        *c += 1;
    }
    out
}

/// Walks each equal-symbol run of a [`counting_sort_by_sym`] result.
fn for_each_sym_run<V: Copy>(sorted: &[(Sym, V)], mut f: impl FnMut(Sym, &[(Sym, V)])) {
    let mut i = 0;
    while i < sorted.len() {
        let s = sorted[i].0;
        let mut j = i + 1;
        while j < sorted.len() && sorted[j].0 == s {
            j += 1;
        }
        f(s, &sorted[i..j]);
        i = j;
    }
}

/// Number of distinct symbols in a [`counting_sort_by_sym`] result (for
/// reserve-exact occurrence-map allocation).
fn sym_run_count<V: Copy>(sorted: &[(Sym, V)]) -> usize {
    let mut runs = 0;
    let mut i = 0;
    while i < sorted.len() {
        let s = sorted[i].0;
        while i < sorted.len() && sorted[i].0 == s {
            i += 1;
        }
        runs += 1;
    }
    runs
}

/// Groups a column's `(value, vertex)` pairs into its reverse occurrence
/// index: one counting sort, one reserve-exact map fill, no singleton
/// B-tree allocations. Independent across columns, so bulk init fans it
/// out over the validator's thread budget.
fn build_occ(pairs: &[(Sym, u32)], sym_count: usize) -> FastHashMap<Sym, Holders> {
    let sorted = counting_sort_by_sym(pairs, sym_count);
    let mut occ = FastHashMap::with_capacity_and_hasher(sym_run_count(&sorted), Default::default());
    for_each_sym_run(&sorted, |sym, run| {
        occ.insert(sym, Holders::from_run(run.iter().map(|&(_, x)| x)));
    });
    occ
}

/// A field tuple read through pre-resolved columns (`None` while any field
/// is undefined).
fn tuple_in(cols: &[&SingleCol], x: u32) -> Option<Vec<Sym>> {
    cols.iter().map(|c| c.get(x)).collect()
}

/// Shared mutable context for one part while it processes one change:
/// read access to the store and ID table, write access to the part's
/// violation table, all writes funneled through the diff accumulator.
struct Ctx<'a> {
    store: &'a Store,
    ids: &'a IdTable,
    name: &'a str,
    pi: u32,
    entries: &'a mut BTreeMap<VKey, Violation>,
    /// `None` during bulk init: the table is being built from scratch, so
    /// there is no "before" to diff against and snapshotting every slot
    /// would only allocate a diff that construction discards.
    acc: Option<&'a mut DiffAcc>,
}

impl Ctx<'_> {
    fn set(&mut self, k: VKey, v: Option<Violation>) {
        if let Some(acc) = self.acc.as_deref_mut() {
            acc.touch_part(self.pi, k, self.entries.get(&k));
        }
        match v {
            Some(v) => {
                self.entries.insert(k, v);
            }
            None => {
                self.entries.remove(&k);
            }
        }
    }

    /// Clears every entry keyed under vertex `x`.
    fn clear_node(&mut self, x: u32) {
        let keys: Vec<VKey> = self
            .entries
            .range((x, 0, 0, 0)..=(x, u32::MAX, u32::MAX, u32::MAX))
            .map(|(k, _)| *k)
            .collect();
        for k in keys {
            self.set(k, None);
        }
    }

    fn cname(&self) -> String {
        self.name.to_string()
    }
}

/// One independently-refreshable slice of a constraint's check. Constraints
/// that the sequential engine checks in several sequential passes (the two
/// directions of an inverse, the four passes of `InverseId`) become several
/// consecutive parts, so concatenating all parts' tables in order
/// reproduces the Σ-order report.
struct Part {
    /// The rendered constraint name (every entry carries a clone).
    name: String,
    /// Violation slot ↦ current violation; iteration order = report order.
    entries: BTreeMap<VKey, Violation>,
    kind: PartKind,
}

enum PartKind {
    KeyUnary(KeyUnaryPart),
    Key(KeyPart),
    FkSingle(FkSinglePart),
    FkNary(FkNaryPart),
    SetFk(SetFkPart),
    Id(IdPart),
    Inverse(InversePart),
}

impl Part {
    fn apply(&mut self, change: &Change, store: &Store, ids: &IdTable, pi: u32, acc: &mut DiffAcc) {
        let mut cx = Ctx {
            store,
            ids,
            name: &self.name,
            pi,
            entries: &mut self.entries,
            acc: Some(acc),
        };
        match &mut self.kind {
            PartKind::KeyUnary(k) => k.apply(change, &mut cx),
            PartKind::Key(k) => k.apply(change, &mut cx),
            PartKind::FkSingle(k) => k.apply(change, &mut cx),
            PartKind::FkNary(k) => k.apply(change, &mut cx),
            PartKind::SetFk(k) => k.apply(change, &mut cx),
            PartKind::Id(k) => k.apply(change, &mut cx),
            PartKind::Inverse(k) => k.apply(change, &mut cx),
        }
    }

    fn init(&mut self, idx: &ExtIndex, store: &Store, ids: &IdTable, pi: u32) {
        let mut cx = Ctx {
            store,
            ids,
            name: &self.name,
            pi,
            entries: &mut self.entries,
            acc: None,
        };
        match &mut self.kind {
            PartKind::KeyUnary(k) => k.init(idx, &mut cx),
            PartKind::Key(k) => k.init(idx, &mut cx),
            PartKind::FkSingle(k) => k.init(idx, &mut cx),
            PartKind::FkNary(k) => k.init(idx, &mut cx),
            PartKind::SetFk(k) => k.init(idx, &mut cx),
            PartKind::Id(k) => k.init(idx, &mut cx),
            PartKind::Inverse(k) => k.init(idx, &mut cx),
        }
    }
}

/// A *unary* key constraint. The store column's occurrence index is
/// exactly the grouping a one-field key needs — value ↦ holders,
/// ascending — so this part keeps **no state of its own**: refreshes read
/// `SingleCol.occ` directly and retracted values ride in on the change.
/// Init therefore costs one scan for non-singleton groups instead of a
/// per-vertex copy of the column into tuple tables, and stays allocation-
/// free on documents whose keys actually hold.
struct KeyUnaryPart {
    tau: Name,
    field: Field,
}

impl KeyUnaryPart {
    fn refresh_group(&self, v: Sym, cx: &mut Ctx) {
        let store = cx.store;
        self.refresh_group_in(store.single(&self.tau, &self.field), v, cx);
    }

    /// Recomputes every current holder's entry for one value group (see
    /// [`KeyPart::refresh_group`] for the emission-order contract).
    fn refresh_group_in(&self, col: &SingleCol, v: Sym, cx: &mut Ctx) {
        let Some(holders) = col.occ.get(&v) else {
            return;
        };
        let mut iter = holders.iter();
        let Some(first) = iter.next() else {
            return;
        };
        cx.set((first, 0, 0, 0), None);
        let rest: Vec<u32> = iter.collect();
        if rest.is_empty() {
            return;
        }
        let value = cx.store.resolve(v).to_string();
        for h in rest {
            cx.set(
                (h, 0, 0, 0),
                Some(Violation::Key {
                    constraint: cx.cname(),
                    a: nid(first),
                    b: nid(h),
                    value: value.clone(),
                }),
            );
        }
    }

    fn apply(&mut self, change: &Change, cx: &mut Ctx) {
        match change {
            Change::Single {
                tau,
                field,
                node,
                old,
                new,
            } if *tau == self.tau && *field == self.field => {
                cx.set((*node, 0, 0, 0), None);
                if let Some(o) = *old {
                    self.refresh_group(o, cx);
                }
                if let Some(n) = *new {
                    self.refresh_group(n, cx);
                }
            }
            Change::NodeAdded { tau, node } if *tau == self.tau => {
                if let Some(v) = cx.store.single(&self.tau, &self.field).get(*node) {
                    self.refresh_group(v, cx);
                }
            }
            Change::NodeRemoved { tau, node, singles } if *tau == self.tau => {
                cx.set((*node, 0, 0, 0), None);
                if let Some(v) = snapshot_single(singles, &self.field) {
                    self.refresh_group(v, cx);
                }
            }
            _ => {}
        }
    }

    fn init(&mut self, _idx: &ExtIndex, cx: &mut Ctx) {
        let store = cx.store;
        let col = store.single(&self.tau, &self.field);
        // Group iteration order is irrelevant: groups write disjoint
        // entry slots of a `BTreeMap`, and init carries no diff.
        for (&v, holders) in &col.occ {
            if holders.len() > 1 {
                self.refresh_group_in(col, v, cx);
            }
        }
    }
}

/// A key constraint: within `ext(τ)`, no two vertices with complete field
/// tuples agree. Entries are keyed `(x, 0, 0, 0)` at the *later* witness:
/// the sequential first-seen scan emits one violation per non-first holder,
/// in extent order, against the group's minimum vertex.
struct KeyPart {
    tau: Name,
    fields: Vec<Field>,
    /// Vertex ↦ its complete tuple (absent while any field is undefined).
    tuples: FastHashMap<u32, Vec<Sym>>,
    /// Tuple ↦ holders, ascending (first = the group's witness `a`).
    occ: FastHashMap<Vec<Sym>, BTreeSet<u32>>,
}

impl KeyPart {
    fn tuple_of(&self, store: &Store, x: u32) -> Option<Vec<Sym>> {
        self.fields
            .iter()
            .map(|f| store.single(&self.tau, f).get(x))
            .collect()
    }

    fn update_node(&mut self, x: u32, cx: &mut Ctx, removed: bool) {
        let new = if removed {
            None
        } else {
            self.tuple_of(cx.store, x)
        };
        let old = self.tuples.get(&x).cloned();
        if old == new {
            return;
        }
        if let Some(t) = &old {
            if let Some(set) = self.occ.get_mut(t) {
                set.remove(&x);
                if set.is_empty() {
                    self.occ.remove(t);
                }
            }
            self.tuples.remove(&x);
        }
        cx.set((x, 0, 0, 0), None);
        if let Some(t) = new.clone() {
            self.occ.entry(t.clone()).or_default().insert(x);
            self.tuples.insert(x, t);
        }
        if let Some(t) = &old {
            self.refresh_group(t, cx);
        }
        if let Some(t) = &new {
            self.refresh_group(t, cx);
        }
    }

    /// Recomputes every current holder's entry for one tuple group.
    fn refresh_group(&self, t: &[Sym], cx: &mut Ctx) {
        let Some(holders) = self.occ.get(t) else {
            return;
        };
        let mut iter = holders.iter().copied();
        let Some(first) = iter.next() else {
            return;
        };
        cx.set((first, 0, 0, 0), None);
        let rest: Vec<u32> = iter.collect();
        if rest.is_empty() {
            return;
        }
        let value = cx.store.join(t);
        for h in rest {
            cx.set(
                (h, 0, 0, 0),
                Some(Violation::Key {
                    constraint: cx.cname(),
                    a: nid(first),
                    b: nid(h),
                    value: value.clone(),
                }),
            );
        }
    }

    fn apply(&mut self, change: &Change, cx: &mut Ctx) {
        match change {
            Change::Single {
                tau, field, node, ..
            } if *tau == self.tau && self.fields.contains(field) => {
                self.update_node(*node, cx, false);
            }
            Change::NodeAdded { tau, node } if *tau == self.tau => {
                self.update_node(*node, cx, false);
            }
            Change::NodeRemoved { tau, node, .. } if *tau == self.tau => {
                self.update_node(*node, cx, true);
            }
            _ => {}
        }
    }

    fn init(&mut self, idx: &ExtIndex, cx: &mut Ctx) {
        let ext = idx.ext(&self.tau);
        let cols: Vec<&SingleCol> = self
            .fields
            .iter()
            .map(|f| cx.store.single(&self.tau, f))
            .collect();
        self.tuples.reserve(ext.len());
        let mut groups: Vec<Vec<Sym>> = Vec::new();
        if let [col] = cols.as_slice() {
            // Unary key: group holders by symbol with one counting-sort
            // pass instead of hashing a fresh tuple per vertex.
            let mut pairs: Vec<(Sym, u32)> = Vec::with_capacity(ext.len());
            for &x in ext {
                let x = x.index() as u32;
                if let Some(v) = col.get(x) {
                    self.tuples.insert(x, vec![v]);
                    pairs.push((v, x));
                }
            }
            let sorted = counting_sort_by_sym(&pairs, cx.store.interner.len());
            self.occ.reserve(sym_run_count(&sorted));
            let occ = &mut self.occ;
            for_each_sym_run(&sorted, |v, run| {
                if run.len() > 1 {
                    groups.push(vec![v]);
                }
                occ.insert(vec![v], run.iter().map(|&(_, x)| x).collect());
            });
        } else {
            for &x in ext {
                let x = x.index() as u32;
                if let Some(t) = tuple_in(&cols, x) {
                    self.occ.entry(t.clone()).or_default().insert(x);
                    self.tuples.insert(x, t);
                }
            }
            groups = self
                .occ
                .iter()
                .filter(|(_, h)| h.len() > 1)
                .map(|(t, _)| t.clone())
                .collect();
        }
        for t in groups {
            self.refresh_group(&t, cx);
        }
    }
}

/// A unary foreign key over single-valued columns (`ForeignKey` with one
/// field, and `FkToId`). Entries are keyed `(x, 0, 0, 0)`: the sequential
/// scan emits at most one violation per referencing vertex, in extent
/// order.
struct FkSinglePart {
    tau: Name,
    field: Field,
    target: Name,
    /// The referenced column; `None` (an `FkToId` whose target type has no
    /// ID attribute) leaves the target set permanently empty.
    target_field: Option<Field>,
    /// `Some(field string)` emits `MissingField` for an undefined source
    /// value (`ForeignKey` semantics); `None` skips it (`FkToId`).
    missing_field: Option<String>,
    targets: CountedSymSet,
}

impl FkSinglePart {
    fn refresh_source(&self, x: u32, cx: &mut Ctx) {
        let col = cx.store.single(&self.tau, &self.field);
        self.refresh_source_in(col, x, cx);
    }

    /// [`Self::refresh_source`] with the source column pre-resolved, so
    /// bulk loops pay the `(τ, field)` hash once instead of per vertex.
    fn refresh_source_in(&self, col: &SingleCol, x: u32, cx: &mut Ctx) {
        let entry = match col.get(x) {
            None => self
                .missing_field
                .as_ref()
                .map(|mf| Violation::MissingField {
                    constraint: cx.cname(),
                    node: nid(x),
                    field: mf.clone(),
                }),
            Some(sym) if self.targets.contains(sym) => None,
            Some(sym) => Some(Violation::ForeignKey {
                constraint: cx.cname(),
                node: nid(x),
                value: cx.store.resolve(sym).to_string(),
            }),
        };
        cx.set((x, 0, 0, 0), entry);
    }

    /// Applies one target-column value change; on a presence transition,
    /// re-derives every source holding the transitioned value.
    fn retarget(&mut self, old: Option<Sym>, new: Option<Sym>, cx: &mut Ctx) {
        if old == new {
            return;
        }
        let mut transitions: Vec<Sym> = Vec::new();
        if let Some(o) = old {
            if self.targets.remove(o) {
                transitions.push(o);
            }
        }
        if let Some(n) = new {
            if self.targets.insert(n) {
                transitions.push(n);
            }
        }
        let store = cx.store;
        for v in transitions {
            let deps: Vec<u32> = store.single(&self.tau, &self.field).nodes_with(v).collect();
            for x in deps {
                self.refresh_source(x, cx);
            }
        }
    }

    fn apply(&mut self, change: &Change, cx: &mut Ctx) {
        // Target role: keep the refcounted membership set current.
        match change {
            Change::Single {
                tau,
                field,
                old,
                new,
                ..
            } if *tau == self.target && Some(field) == self.target_field.as_ref() => {
                self.retarget(*old, *new, cx);
            }
            Change::NodeAdded { tau, node } if *tau == self.target => {
                if let Some(tf) = self.target_field.clone() {
                    let v = cx.store.single(&self.target, &tf).get(*node);
                    self.retarget(None, v, cx);
                }
            }
            Change::NodeRemoved { tau, singles, .. } if *tau == self.target => {
                if let Some(tf) = &self.target_field {
                    let old = snapshot_single(singles, tf);
                    self.retarget(old, None, cx);
                }
            }
            _ => {}
        }
        // Source role: re-derive the edited vertex's own entry.
        match change {
            Change::Single {
                tau, field, node, ..
            } if *tau == self.tau && *field == self.field => {
                self.refresh_source(*node, cx);
            }
            Change::NodeAdded { tau, node } if *tau == self.tau => {
                self.refresh_source(*node, cx);
            }
            Change::NodeRemoved { tau, node, .. } if *tau == self.tau => {
                cx.set((*node, 0, 0, 0), None);
            }
            _ => {}
        }
    }

    fn init(&mut self, idx: &ExtIndex, cx: &mut Ctx) {
        if let Some(tf) = &self.target_field {
            let col = cx.store.single(&self.target, tf);
            for &y in idx.ext(&self.target) {
                if let Some(v) = col.get(y.index() as u32) {
                    self.targets.insert(v);
                }
            }
        }
        let col = cx.store.single(&self.tau, &self.field);
        for &x in idx.ext(&self.tau) {
            self.refresh_source_in(col, x.index() as u32, cx);
        }
    }
}

/// An n-ary foreign key: source tuples against refcounted target tuples.
struct FkNaryPart {
    tau: Name,
    fields: Vec<Field>,
    target: Name,
    target_fields: Vec<Field>,
    /// The pre-joined field list for `MissingField` reports.
    missing: String,
    src_tuples: FastHashMap<u32, Vec<Sym>>,
    src_occ: FastHashMap<Vec<Sym>, BTreeSet<u32>>,
    tgt_tuples: FastHashMap<u32, Vec<Sym>>,
    tgt_counts: FastHashMap<Vec<Sym>, u32>,
}

impl FkNaryPart {
    fn tuple(store: &Store, tau: &Name, fields: &[Field], x: u32) -> Option<Vec<Sym>> {
        fields.iter().map(|f| store.single(tau, f).get(x)).collect()
    }

    fn refresh_source(&self, x: u32, cx: &mut Ctx) {
        let entry = match self.src_tuples.get(&x) {
            None => Some(Violation::MissingField {
                constraint: cx.cname(),
                node: nid(x),
                field: self.missing.clone(),
            }),
            Some(t) if self.tgt_counts.contains_key(t) => None,
            Some(t) => Some(Violation::ForeignKey {
                constraint: cx.cname(),
                node: nid(x),
                value: cx.store.join(t),
            }),
        };
        cx.set((x, 0, 0, 0), entry);
    }

    fn update_source(&mut self, x: u32, cx: &mut Ctx, removed: bool) {
        let new = if removed {
            None
        } else {
            Self::tuple(cx.store, &self.tau, &self.fields, x)
        };
        let old = self.src_tuples.get(&x).cloned();
        if old != new {
            if let Some(t) = &old {
                if let Some(set) = self.src_occ.get_mut(t) {
                    set.remove(&x);
                    if set.is_empty() {
                        self.src_occ.remove(t);
                    }
                }
                self.src_tuples.remove(&x);
            }
            if let Some(t) = new {
                self.src_occ.entry(t.clone()).or_default().insert(x);
                self.src_tuples.insert(x, t);
            }
        }
        if removed {
            cx.set((x, 0, 0, 0), None);
        } else {
            self.refresh_source(x, cx);
        }
    }

    fn update_target(&mut self, y: u32, cx: &mut Ctx, removed: bool) {
        let new = if removed {
            None
        } else {
            Self::tuple(cx.store, &self.target, &self.target_fields, y)
        };
        let old = self.tgt_tuples.get(&y).cloned();
        if old == new {
            return;
        }
        let mut transitions: Vec<Vec<Sym>> = Vec::new();
        if let Some(t) = old {
            let cnt = self.tgt_counts.get_mut(&t).expect("target tuple accounted");
            *cnt -= 1;
            if *cnt == 0 {
                self.tgt_counts.remove(&t);
                transitions.push(t);
            }
            self.tgt_tuples.remove(&y);
        }
        if let Some(t) = new {
            let cnt = self.tgt_counts.entry(t.clone()).or_insert(0);
            *cnt += 1;
            if *cnt == 1 {
                transitions.push(t.clone());
            }
            self.tgt_tuples.insert(y, t);
        }
        for t in transitions {
            let deps: Vec<u32> = self
                .src_occ
                .get(&t)
                .into_iter()
                .flatten()
                .copied()
                .collect();
            for x in deps {
                self.refresh_source(x, cx);
            }
        }
    }

    fn apply(&mut self, change: &Change, cx: &mut Ctx) {
        match change {
            Change::Single {
                tau, field, node, ..
            } => {
                if *tau == self.target && self.target_fields.contains(field) {
                    self.update_target(*node, cx, false);
                }
                if *tau == self.tau && self.fields.contains(field) {
                    self.update_source(*node, cx, false);
                }
            }
            Change::NodeAdded { tau, node } => {
                if *tau == self.target {
                    self.update_target(*node, cx, false);
                }
                if *tau == self.tau {
                    self.update_source(*node, cx, false);
                }
            }
            Change::NodeRemoved { tau, node, .. } => {
                if *tau == self.target {
                    self.update_target(*node, cx, true);
                }
                if *tau == self.tau {
                    self.update_source(*node, cx, true);
                }
            }
            Change::Set { .. } => {}
        }
    }

    fn init(&mut self, idx: &ExtIndex, cx: &mut Ctx) {
        let tcols: Vec<&SingleCol> = self
            .target_fields
            .iter()
            .map(|f| cx.store.single(&self.target, f))
            .collect();
        let text = idx.ext(&self.target);
        self.tgt_tuples.reserve(text.len());
        for &y in text {
            let y = y.index() as u32;
            if let Some(t) = tuple_in(&tcols, y) {
                *self.tgt_counts.entry(t.clone()).or_insert(0) += 1;
                self.tgt_tuples.insert(y, t);
            }
        }
        let cols: Vec<&SingleCol> = self
            .fields
            .iter()
            .map(|f| cx.store.single(&self.tau, f))
            .collect();
        let ext = idx.ext(&self.tau);
        self.src_tuples.reserve(ext.len());
        for &x in ext {
            let x = x.index() as u32;
            if let Some(t) = tuple_in(&cols, x) {
                self.src_occ.entry(t.clone()).or_default().insert(x);
                self.src_tuples.insert(x, t);
            }
        }
        for &x in ext {
            self.refresh_source(x.index() as u32, cx);
        }
    }
}

/// A set-valued foreign key (`SetForeignKey`, `SetFkToId`, and the
/// reference-typing passes of `InverseId`): every member of `(τ, attr)`
/// must be in the target set. Entries are keyed `(x, member index, 0, 0)`,
/// matching the sequential per-vertex, per-member scan order.
struct SetFkPart {
    tau: Name,
    attr: Name,
    target: Name,
    target_field: Option<Field>,
    targets: CountedSymSet,
}

impl SetFkPart {
    fn refresh_source(&self, x: u32, cx: &mut Ctx) {
        let col = cx.store.set_col(&self.tau, &self.attr);
        self.refresh_source_in(col, x, cx);
    }

    /// [`Self::refresh_source`] with the member column pre-resolved, so
    /// bulk loops pay the `(τ, attr)` hash once instead of per vertex.
    fn refresh_source_in(&self, col: &SetCol, x: u32, cx: &mut Ctx) {
        cx.clear_node(x);
        let members = col.get(x);
        for (i, &m) in members.iter().enumerate() {
            if !self.targets.contains(m) {
                cx.set(
                    (x, i as u32, 0, 0),
                    Some(Violation::ForeignKey {
                        constraint: cx.cname(),
                        node: nid(x),
                        value: cx.store.resolve(m).to_string(),
                    }),
                );
            }
        }
    }

    fn retarget(&mut self, old: Option<Sym>, new: Option<Sym>, cx: &mut Ctx) {
        if old == new {
            return;
        }
        let mut transitions: Vec<Sym> = Vec::new();
        if let Some(o) = old {
            if self.targets.remove(o) {
                transitions.push(o);
            }
        }
        if let Some(n) = new {
            if self.targets.insert(n) {
                transitions.push(n);
            }
        }
        let store = cx.store;
        for v in transitions {
            let deps: Vec<u32> = store.set_col(&self.tau, &self.attr).nodes_with(v).collect();
            for x in deps {
                self.refresh_source(x, cx);
            }
        }
    }

    fn apply(&mut self, change: &Change, cx: &mut Ctx) {
        // Target role.
        match change {
            Change::Single {
                tau,
                field,
                old,
                new,
                ..
            } if *tau == self.target && Some(field) == self.target_field.as_ref() => {
                self.retarget(*old, *new, cx);
            }
            Change::NodeAdded { tau, node } if *tau == self.target => {
                if let Some(tf) = self.target_field.clone() {
                    let v = cx.store.single(&self.target, &tf).get(*node);
                    self.retarget(None, v, cx);
                }
            }
            Change::NodeRemoved { tau, singles, .. } if *tau == self.target => {
                if let Some(tf) = &self.target_field {
                    let old = snapshot_single(singles, tf);
                    self.retarget(old, None, cx);
                }
            }
            _ => {}
        }
        // Source role.
        match change {
            Change::Set {
                tau, attr, node, ..
            } if *tau == self.tau && *attr == self.attr => {
                self.refresh_source(*node, cx);
            }
            Change::NodeAdded { tau, node } if *tau == self.tau => {
                self.refresh_source(*node, cx);
            }
            Change::NodeRemoved { tau, node, .. } if *tau == self.tau => {
                cx.clear_node(*node);
            }
            _ => {}
        }
    }

    fn init(&mut self, idx: &ExtIndex, cx: &mut Ctx) {
        if let Some(tf) = &self.target_field {
            let col = cx.store.single(&self.target, tf);
            for &y in idx.ext(&self.target) {
                if let Some(v) = col.get(y.index() as u32) {
                    self.targets.insert(v);
                }
            }
        }
        let col = cx.store.set_col(&self.tau, &self.attr);
        for &x in idx.ext(&self.tau) {
            self.refresh_source_in(col, x.index() as u32, cx);
        }
    }
}

/// An `L_id` ID constraint on one element type: every `ext(τ)` vertex needs
/// a defined ID that no other vertex in the document carries. Entries are
/// keyed `(x, 0, 0, 0)` for `MissingField` and `(x, rank(y), y, 0)` per
/// duplicate carrier `y` — the carrier set's `(rank, vertex)` order is the
/// sequential global-ID-table order.
struct IdPart {
    tau: Name,
    id_field: Field,
    /// Pre-rendered `@id_attr` for `MissingField` reports.
    missing: String,
}

impl IdPart {
    fn refresh_entity(&self, x: u32, cx: &mut Ctx) {
        let col = cx.store.single(&self.tau, &self.id_field);
        self.refresh_entity_in(col, x, cx);
    }

    /// [`Self::refresh_entity`] with the ID column pre-resolved, so bulk
    /// loops pay the `(τ, field)` hash once instead of per vertex.
    fn refresh_entity_in(&self, col: &SingleCol, x: u32, cx: &mut Ctx) {
        cx.clear_node(x);
        let store = cx.store;
        match col.get(x) {
            None => cx.set(
                (x, 0, 0, 0),
                Some(Violation::MissingField {
                    constraint: cx.cname(),
                    node: nid(x),
                    field: self.missing.clone(),
                }),
            ),
            Some(v) => {
                let ids = cx.ids;
                for (rank, y) in ids.carriers_of(v) {
                    if y != x {
                        cx.set(
                            (x, rank, y, 0),
                            Some(Violation::DuplicateId {
                                constraint: cx.cname(),
                                a: nid(x),
                                b: nid(y),
                                value: store.resolve(v).to_string(),
                            }),
                        );
                    }
                }
            }
        }
    }

    /// Re-derives every `ext(τ)` vertex holding ID value `v`.
    fn refresh_holders(&self, v: Sym, cx: &mut Ctx) {
        let store = cx.store;
        let deps: Vec<u32> = store
            .single(&self.tau, &self.id_field)
            .nodes_with(v)
            .collect();
        for x in deps {
            self.refresh_entity(x, cx);
        }
    }

    fn apply(&mut self, change: &Change, cx: &mut Ctx) {
        match change {
            Change::Single {
                tau,
                field,
                node,
                old,
                new,
            } => {
                // A carrier change anywhere (any type's ID column) shifts
                // the duplicate lists of this type's holders of the value.
                if cx.ids.id_field_of.get(tau) == Some(field) {
                    for v in old.iter().chain(new.iter()).copied() {
                        self.refresh_holders(v, cx);
                    }
                }
                if *tau == self.tau && *field == self.id_field {
                    self.refresh_entity(*node, cx);
                }
            }
            Change::NodeAdded { tau, node } => {
                if let Some(f) = cx.ids.id_field_of.get(tau).cloned() {
                    if let Some(v) = cx.store.single(tau, &f).get(*node) {
                        self.refresh_holders(v, cx);
                    }
                }
                if *tau == self.tau {
                    self.refresh_entity(*node, cx);
                }
            }
            Change::NodeRemoved { tau, node, singles } => {
                if let Some(f) = cx.ids.id_field_of.get(tau) {
                    if let Some(v) = snapshot_single(singles, f) {
                        self.refresh_holders(v, cx);
                    }
                }
                if *tau == self.tau {
                    cx.clear_node(*node);
                }
            }
            Change::Set { .. } => {}
        }
    }

    fn init(&mut self, idx: &ExtIndex, cx: &mut Ctx) {
        let col = cx.store.single(&self.tau, &self.id_field);
        for &x in idx.ext(&self.tau) {
            self.refresh_entity_in(col, x.index() as u32, cx);
        }
    }
}

/// One direction of an inverse constraint: for every `y ∈ ext(τ')` with a
/// defined key, each member `m` of `y.attr'` and each `x ∈ ext(τ)` with
/// `x.key = m` must have `y.key' ∈ x.attr`. Entries are keyed
/// `(y, member index, x, 0)` — the sequential scan's loop nesting order.
struct InversePart {
    tau: Name,
    key: Field,
    attr: Name,
    target: Name,
    target_key: Field,
    target_attr: Name,
}

impl InversePart {
    fn refresh_y(&self, y: u32, cx: &mut Ctx) {
        let store = cx.store;
        let cols = (
            store.single(&self.target, &self.target_key),
            store.set_col(&self.target, &self.target_attr),
            store.single(&self.tau, &self.key),
            store.set_col(&self.tau, &self.attr),
        );
        self.refresh_y_in(cols, y, cx);
    }

    /// [`Self::refresh_y`] with all four columns pre-resolved (target key,
    /// target members, source key, source echo), so bulk loops pay the
    /// column hashes once instead of per vertex.
    fn refresh_y_in(
        &self,
        (yk_col, mem_col, key_col, echo_col): (&SingleCol, &SetCol, &SingleCol, &SetCol),
        y: u32,
        cx: &mut Ctx,
    ) {
        cx.clear_node(y);
        let Some(yk) = yk_col.get(y) else {
            return;
        };
        let members = mem_col.get(y);
        for (i, &m) in members.iter().enumerate() {
            for x in key_col.nodes_with(m) {
                if !echo_col.get(x).contains(&yk) {
                    cx.set(
                        (y, i as u32, x, 0),
                        Some(Violation::Inverse {
                            constraint: cx.cname(),
                            from: nid(y),
                            to: nid(x),
                        }),
                    );
                }
            }
        }
    }

    fn apply(&mut self, change: &Change, cx: &mut Ctx) {
        let mut ys: BTreeSet<u32> = BTreeSet::new();
        let store = cx.store;
        match change {
            Change::Single {
                tau,
                field,
                node,
                old,
                new,
            } => {
                if *tau == self.target && *field == self.target_key {
                    ys.insert(*node);
                }
                if *tau == self.tau && *field == self.key {
                    let refs = store.set_col(&self.target, &self.target_attr);
                    for v in old.iter().chain(new.iter()).copied() {
                        ys.extend(refs.nodes_with(v));
                    }
                }
            }
            Change::Set { tau, attr, node } => {
                if *tau == self.target && *attr == self.target_attr {
                    ys.insert(*node);
                }
                if *tau == self.tau && *attr == self.attr {
                    if let Some(xk) = store.single(&self.tau, &self.key).get(*node) {
                        ys.extend(
                            store
                                .set_col(&self.target, &self.target_attr)
                                .nodes_with(xk),
                        );
                    }
                }
            }
            Change::NodeAdded { tau, node } => {
                if *tau == self.target {
                    ys.insert(*node);
                }
                if *tau == self.tau {
                    if let Some(xk) = store.single(&self.tau, &self.key).get(*node) {
                        ys.extend(
                            store
                                .set_col(&self.target, &self.target_attr)
                                .nodes_with(xk),
                        );
                    }
                }
            }
            Change::NodeRemoved { tau, node, singles } => {
                if *tau == self.target {
                    cx.clear_node(*node);
                }
                if *tau == self.tau {
                    if let Some(xk) = snapshot_single(singles, &self.key) {
                        ys.extend(
                            store
                                .set_col(&self.target, &self.target_attr)
                                .nodes_with(xk),
                        );
                    }
                }
            }
        }
        for y in ys {
            self.refresh_y(y, cx);
        }
    }

    fn init(&mut self, idx: &ExtIndex, cx: &mut Ctx) {
        let store = cx.store;
        let cols = (
            store.single(&self.target, &self.target_key),
            store.set_col(&self.target, &self.target_attr),
            store.single(&self.tau, &self.key),
            store.set_col(&self.tau, &self.attr),
        );
        for &y in idx.ext(&self.target) {
            self.refresh_y_in(cols, y.index() as u32, cx);
        }
    }
}

/// Decomposes Σ into parts, in Σ order, mirroring the sequential engine's
/// per-constraint pass structure (see `check_one_planned`).
fn build_parts(dtdc: &DtdC) -> Vec<Part> {
    let s = dtdc.structure();
    let mut parts = Vec::new();
    let push = |name: String, kind: PartKind, parts: &mut Vec<Part>| {
        parts.push(Part {
            name,
            entries: BTreeMap::new(),
            kind,
        });
    };
    for c in dtdc.constraints() {
        let name = c.to_string();
        match c {
            Constraint::Key { tau, fields } => {
                if let [f] = fields.as_slice() {
                    push(
                        name,
                        PartKind::KeyUnary(KeyUnaryPart {
                            tau: tau.clone(),
                            field: f.clone(),
                        }),
                        &mut parts,
                    );
                } else {
                    push(
                        name,
                        PartKind::Key(KeyPart {
                            tau: tau.clone(),
                            fields: fields.clone(),
                            tuples: FastHashMap::default(),
                            occ: FastHashMap::default(),
                        }),
                        &mut parts,
                    );
                }
            }
            Constraint::ForeignKey {
                tau,
                fields,
                target,
                target_fields,
            } => {
                if let ([f], [tf]) = (fields.as_slice(), target_fields.as_slice()) {
                    push(
                        name,
                        PartKind::FkSingle(FkSinglePart {
                            tau: tau.clone(),
                            field: f.clone(),
                            target: target.clone(),
                            target_field: Some(tf.clone()),
                            missing_field: Some(f.to_string()),
                            targets: CountedSymSet::default(),
                        }),
                        &mut parts,
                    );
                } else {
                    push(
                        name,
                        PartKind::FkNary(FkNaryPart {
                            tau: tau.clone(),
                            fields: fields.clone(),
                            target: target.clone(),
                            target_fields: target_fields.clone(),
                            missing: fields
                                .iter()
                                .map(ToString::to_string)
                                .collect::<Vec<_>>()
                                .join(", "),
                            src_tuples: FastHashMap::default(),
                            src_occ: FastHashMap::default(),
                            tgt_tuples: FastHashMap::default(),
                            tgt_counts: FastHashMap::default(),
                        }),
                        &mut parts,
                    );
                }
            }
            Constraint::SetForeignKey {
                tau,
                attr,
                target,
                target_field,
            } => push(
                name,
                PartKind::SetFk(SetFkPart {
                    tau: tau.clone(),
                    attr: attr.clone(),
                    target: target.clone(),
                    target_field: Some(target_field.clone()),
                    targets: CountedSymSet::default(),
                }),
                &mut parts,
            ),
            Constraint::InverseU {
                tau,
                key,
                attr,
                target,
                target_key,
                target_attr,
            } => {
                for (t, k, a, u, uk, ua) in [
                    (tau, key, attr, target, target_key, target_attr),
                    (target, target_key, target_attr, tau, key, attr),
                ] {
                    push(
                        name.clone(),
                        PartKind::Inverse(InversePart {
                            tau: t.clone(),
                            key: k.clone(),
                            attr: a.clone(),
                            target: u.clone(),
                            target_key: uk.clone(),
                            target_attr: ua.clone(),
                        }),
                        &mut parts,
                    );
                }
            }
            Constraint::Id { tau } => {
                if let Some(id) = s.id_attr(tau) {
                    push(
                        name,
                        PartKind::Id(IdPart {
                            tau: tau.clone(),
                            id_field: Field::Attr(id.clone()),
                            missing: format!("@{id}"),
                        }),
                        &mut parts,
                    );
                }
            }
            Constraint::FkToId { tau, attr, target } => push(
                name,
                PartKind::FkSingle(FkSinglePart {
                    tau: tau.clone(),
                    field: Field::Attr(attr.clone()),
                    target: target.clone(),
                    target_field: s.id_attr(target).map(|i| Field::Attr(i.clone())),
                    missing_field: None,
                    targets: CountedSymSet::default(),
                }),
                &mut parts,
            ),
            Constraint::SetFkToId { tau, attr, target } => push(
                name,
                PartKind::SetFk(SetFkPart {
                    tau: tau.clone(),
                    attr: attr.clone(),
                    target: target.clone(),
                    target_field: s.id_attr(target).map(|i| Field::Attr(i.clone())),
                    targets: CountedSymSet::default(),
                }),
                &mut parts,
            ),
            Constraint::InverseId {
                tau,
                attr,
                target,
                target_attr,
            } => {
                let (Some(id_tau), Some(id_target)) = (s.id_attr(tau), s.id_attr(target)) else {
                    continue; // rejected at well-formedness; nothing to check
                };
                // Reference typing first, then both inverse directions —
                // the exact sequential pass order.
                for (src, src_attr, dst, dst_id) in [
                    (tau, attr, target, id_target),
                    (target, target_attr, tau, id_tau),
                ] {
                    push(
                        name.clone(),
                        PartKind::SetFk(SetFkPart {
                            tau: src.clone(),
                            attr: src_attr.clone(),
                            target: dst.clone(),
                            target_field: Some(Field::Attr(dst_id.clone())),
                            targets: CountedSymSet::default(),
                        }),
                        &mut parts,
                    );
                }
                for (t, k, a, u, uk, ua) in [
                    (tau, id_tau, attr, target, id_target, target_attr),
                    (target, id_target, target_attr, tau, id_tau, attr),
                ] {
                    push(
                        name.clone(),
                        PartKind::Inverse(InversePart {
                            tau: t.clone(),
                            key: Field::Attr(k.clone()),
                            attr: a.clone(),
                            target: u.clone(),
                            target_key: Field::Attr(uk.clone()),
                            target_attr: ua.clone(),
                        }),
                        &mut parts,
                    );
                }
            }
        }
    }
    parts
}

/// Dense column ids, reverse keys, and per-column part subscriptions for
/// the batch path, built once at construction.
///
/// Each part's `apply` drops changes outside its `(τ, field)` interest set
/// via name comparisons. A batch dispatches thousands of cell deltas, so
/// that scan is hoisted into this index: dispatching a delta only to the
/// parts subscribed to its column is behavior-preserving because the
/// skipped `apply` calls would be no-ops by those same match arms. Vertex
/// announcements (`NodeAdded`/`NodeRemoved`) still reach every part.
struct Subs {
    /// Planned single-valued column ↦ dense id (`0..singles`).
    single_ids: HashMap<(Name, Field), u32>,
    /// Planned set-valued column ↦ dense id (`singles..`).
    set_ids: HashMap<(Name, Name), u32>,
    /// Dense column id ↦ the column's key, for re-extraction.
    keys: Vec<ColKey>,
    /// Dense column id ↦ subscribed part indices, ascending and deduped.
    parts_of: Vec<Vec<u32>>,
}

#[derive(Clone)]
enum ColKey {
    Single(Name, Field),
    Set(Name, Name),
}

impl Subs {
    fn build(store: &Store, parts: &[Part], ids: &IdTable) -> Self {
        let mut single_ids = HashMap::new();
        let mut set_ids = HashMap::new();
        let mut keys: Vec<ColKey> = Vec::new();
        let mut skeys: Vec<_> = store.singles.keys().cloned().collect();
        skeys.sort();
        for k in skeys {
            single_ids.insert(k.clone(), keys.len() as u32);
            keys.push(ColKey::Single(k.0, k.1));
        }
        let mut tkeys: Vec<_> = store.sets.keys().cloned().collect();
        tkeys.sort();
        for k in tkeys {
            set_ids.insert(k.clone(), keys.len() as u32);
            keys.push(ColKey::Set(k.0, k.1));
        }
        let mut parts_of = vec![Vec::new(); keys.len()];
        for (pi, p) in parts.iter().enumerate() {
            let pi = pi as u32;
            let mut singles: Vec<(Name, Field)> = Vec::new();
            let mut sets: Vec<(Name, Name)> = Vec::new();
            match &p.kind {
                PartKind::KeyUnary(k) => {
                    singles.push((k.tau.clone(), k.field.clone()));
                }
                PartKind::Key(k) => {
                    for f in &k.fields {
                        singles.push((k.tau.clone(), f.clone()));
                    }
                }
                PartKind::FkSingle(k) => {
                    singles.push((k.tau.clone(), k.field.clone()));
                    if let Some(tf) = &k.target_field {
                        singles.push((k.target.clone(), tf.clone()));
                    }
                }
                PartKind::FkNary(k) => {
                    for f in &k.fields {
                        singles.push((k.tau.clone(), f.clone()));
                    }
                    for f in &k.target_fields {
                        singles.push((k.target.clone(), f.clone()));
                    }
                }
                PartKind::SetFk(k) => {
                    sets.push((k.tau.clone(), k.attr.clone()));
                    if let Some(tf) = &k.target_field {
                        singles.push((k.target.clone(), tf.clone()));
                    }
                }
                PartKind::Id(k) => {
                    // An ID part reacts to *any* type's ID column (a
                    // carrier change anywhere shifts its duplicate
                    // lists), not just its own type's.
                    singles.push((k.tau.clone(), k.id_field.clone()));
                    for (t, f) in &ids.id_field_of {
                        singles.push((t.clone(), f.clone()));
                    }
                }
                PartKind::Inverse(k) => {
                    singles.push((k.tau.clone(), k.key.clone()));
                    singles.push((k.target.clone(), k.target_key.clone()));
                    sets.push((k.tau.clone(), k.attr.clone()));
                    sets.push((k.target.clone(), k.target_attr.clone()));
                }
            }
            // An interest column missing from the store cannot exist in
            // any delta (the plan covers every column a constraint
            // reads), so skipping it drops nothing.
            for key in singles {
                if let Some(&c) = single_ids.get(&key) {
                    parts_of[c as usize].push(pi);
                }
            }
            for key in sets {
                if let Some(&c) = set_ids.get(&key) {
                    parts_of[c as usize].push(pi);
                }
            }
        }
        for l in &mut parts_of {
            l.sort_unstable();
            l.dedup();
        }
        Subs {
            single_ids,
            set_ids,
            keys,
            parts_of,
        }
    }
}

/// One request in a [`LiveValidator::apply_batch`] batch.
///
/// Unlike [`Edit`] — which records what a mutation *did* (displaced
/// values, assigned ids) — a `BatchEdit` describes what *to do*, so a
/// subtree insertion carries its fragment.
#[derive(Clone, Debug)]
pub enum BatchEdit {
    /// Set attribute `attr` of `node`, creating or replacing it.
    SetAttr {
        /// The vertex to edit.
        node: NodeId,
        /// The attribute name.
        attr: Name,
        /// The new value.
        value: AttrValue,
    },
    /// Remove attribute `attr` of `node` (which must be set, possibly by
    /// an earlier request in the same batch).
    RemoveAttr {
        /// The vertex to edit.
        node: NodeId,
        /// The attribute name.
        attr: Name,
    },
    /// Replace the `index`-th *text* child of `node`.
    SetText {
        /// The vertex to edit.
        node: NodeId,
        /// Which text child to replace (element children do not count).
        index: usize,
        /// The new text.
        text: Value,
    },
    /// Graft a copy of `fragment` under `parent` at child `position`.
    InsertSubtree {
        /// The vertex to insert under.
        parent: NodeId,
        /// The child-list position to insert at.
        position: usize,
        /// The subtree to copy in.
        fragment: DataTree,
    },
    /// Delete the subtree rooted at `node`.
    DeleteSubtree {
        /// The subtree root to delete.
        node: NodeId,
    },
}

/// An invalid request inside a [`LiveValidator::apply_batch`] batch: the
/// offending request index and the underlying model error.
///
/// The requests before `index` have been applied and propagated — the
/// validator (and [`LiveValidator::report`]) stays consistent with them —
/// but their violation diff is discarded with the failed batch.
#[derive(Debug)]
pub struct BatchError {
    /// Index into the batch slice of the request that failed.
    pub index: usize,
    /// Why it failed.
    pub error: ModelError,
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "batch edit {}: {}", self.index, self.error)
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Staging state of one in-flight batch (see
/// [`LiveValidator::apply_batch`]): structural requests have already hit
/// the tree, value writes are pending with last-writer-wins.
#[derive(Default)]
struct BatchState {
    /// `id_bound` at batch start: vertices at or past it were inserted by
    /// this very batch.
    pre_bound: u32,
    /// (vertex, attribute) ↦ last staged write (`None` = remove).
    pend_attr: HashMap<(u32, Name), Option<AttrValue>>,
    /// (vertex, text slot) ↦ last staged text.
    pend_text: HashMap<(u32, usize), Value>,
    /// Vertices inserted by this batch, ascending.
    added: Vec<u32>,
    /// Vertices deleted by this batch (including same-batch insertions).
    removed: Vec<u32>,
    /// Touched `(dense column id, vertex)` cells, re-extracted at flush.
    touched: Vec<(u32, u32)>,
    /// Vertices whose structural check may need re-running.
    struct_touch: Vec<u32>,
    /// Requests staged — the raw `edit.count`.
    staged: u64,
    /// Structural requests staged (inserts + deletes). They never
    /// coalesce, so they count into `edit.coalesced` directly.
    structural: u64,
}

/// One single-valued column of a [`LiveState`]: the `(element type,
/// field)` key plus the column's dense per-vertex value vector.
pub type SingleColumnState = ((Name, Field), Vec<Option<Sym>>);

/// One set-valued column of a [`LiveState`]: the `(element type,
/// attribute)` key plus the column's dense per-vertex member vectors.
pub type SetColumnState = ((Name, Name), Vec<Vec<Sym>>);

/// A serialisable snapshot of a [`LiveValidator`]'s owned state.
///
/// The state captures exactly what a warm start cannot cheaply recompute:
/// the document tree, the intern pool's backing storage, every planned
/// column's dense value vector, and the structural violation table (the
/// output of the content-model scan). Everything else — occurrence maps,
/// the ID table, per-constraint violation tables, subscription indexes,
/// and the root-label check — is re-derived deterministically by
/// [`LiveValidator::from_state`], so a report after a round trip is
/// byte-identical to scratch validation of the same tree.
///
/// Fields are public so an external codec (the `xic-storage` crate) can
/// encode the state without this crate taking on any I/O concerns.
#[derive(Clone, Debug)]
pub struct LiveState {
    /// The document.
    pub tree: DataTree,
    /// The intern pool's byte arena (see [`Interner::arena`]).
    pub interner_arena: Vec<u8>,
    /// The intern pool's `(start, len)` spans (see [`Interner::spans`]).
    pub interner_spans: Vec<(u32, u32)>,
    /// Every planned single-valued column's dense value vector, ascending
    /// by `(element type, field)` key.
    pub singles: Vec<SingleColumnState>,
    /// Every planned set-valued column's dense member vectors, ascending
    /// by `(element type, attribute)` key.
    pub sets: Vec<SetColumnState>,
    /// Vertex ↦ its structural violations, ascending by vertex.
    pub struct_viols: Vec<(u32, Vec<Violation>)>,
}

/// An inconsistency detected while adopting a [`LiveState`] snapshot:
/// the state does not fit the validator's constraint plan or references
/// symbols/vertices that cannot exist. Adoption is all-or-nothing — a
/// rejected state leaves nothing half-built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateError {
    /// What was inconsistent, for operators and logs.
    pub detail: String,
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid live state: {}", self.detail)
    }
}

impl std::error::Error for StateError {}

/// A validator that owns a document and revalidates it incrementally under
/// edits.
///
/// Construction pays one full validation pass (building the mutable column
/// store, ID table, structural map, and per-constraint violation tables);
/// each edit thereafter updates only the state the edit can affect and
/// returns the violation diff. [`LiveValidator::report`] is always
/// byte-identical to [`Validator::validate`] on [`LiveValidator::tree`].
///
/// Incremental checking is inherently sequential — per-edit work is far
/// below the engine's parallel cutoff — so the validator's `threads`
/// option is ignored here (reports are identical at every setting anyway).
pub struct LiveValidator<'v, 'd> {
    v: &'v Validator<'d>,
    tree: DataTree,
    store: Store,
    ids: IdTable,
    parts: Vec<Part>,
    subs: Subs,
    /// Vertex ↦ its structural violations (absent = none), in vertex order.
    struct_viols: BTreeMap<u32, Vec<Violation>>,
    /// The root-label violation, if any (immutable: the root cannot be
    /// deleted or relabelled).
    root_viol: Option<Violation>,
}

impl<'v, 'd> LiveValidator<'v, 'd> {
    /// Builds the live state for `tree` (one full-validation-cost pass).
    ///
    /// Columns, occurrence maps, and constraint tables are bulk-loaded:
    /// each planned cell is extracted exactly once into a reserve-exact
    /// map, reverse indexes are grouped with one counting sort per column
    /// instead of a hash probe and B-tree insert per cell, and the
    /// per-constraint init passes run with pre-resolved columns and no
    /// diff accounting.
    pub fn new(v: &'v Validator<'d>, tree: DataTree) -> Self {
        let _init = v.obs.span("live.init");
        let s = v.dtdc().structure();
        let idx = ExtIndex::build(&tree);

        let mut store = Store {
            interner: Interner::new(),
            singles: HashMap::new(),
            sets: HashMap::new(),
        };
        // Extraction interns through the one shared interner and stays
        // sequential; everything downstream of it is per-column
        // independent and fans out over the same thread budget the
        // one-shot engine's check phase uses.
        let threads = (tree.len() / crate::par::MIN_NODES_PER_THREAD)
            .max(1)
            .min(v.effective_threads());
        enum RawVals {
            Single((Name, Field), Vec<Option<Sym>>),
            Set((Name, Name), Vec<Vec<Sym>>),
        }
        let bound = tree.id_bound();
        let mut raw: Vec<(RawVals, Vec<(Sym, u32)>)> = Vec::new();
        for (tau, fields) in &v.plan.singles {
            let ext = idx.ext(tau);
            // One extent walk extracts every planned field of τ: the
            // vertex's node record and attribute list stay hot across
            // fields instead of being re-fetched once per column.
            type SingleCol = (Vec<Option<Sym>>, Vec<(Sym, u32)>);
            let mut cols: Vec<SingleCol> = fields
                .iter()
                .map(|_| (vec![None; bound], Vec::with_capacity(ext.len())))
                .collect();
            for &x in ext {
                let xi = x.index() as u32;
                for (col, field) in cols.iter_mut().zip(fields) {
                    let val = extract_single(&tree, x, field, &mut store.interner);
                    col.0[xi as usize] = val;
                    if let Some(sym) = val {
                        col.1.push((sym, xi));
                    }
                }
            }
            for ((vals, pairs), field) in cols.into_iter().zip(fields) {
                raw.push((RawVals::Single((tau.clone(), field.clone()), vals), pairs));
            }
        }
        for (tau, attrs) in &v.plan.sets {
            let ext = idx.ext(tau);
            for attr in attrs {
                let mut vals: Vec<Vec<Sym>> = Vec::new();
                vals.resize_with(bound, Vec::new);
                let mut pairs: Vec<(Sym, u32)> = Vec::new();
                for &x in ext {
                    let xi = x.index() as u32;
                    let members: Vec<Sym> = match tree.attr(x, attr) {
                        Some(val) => val
                            .values()
                            .iter()
                            .map(|s| store.interner.intern(s))
                            .collect(),
                        None => Vec::new(),
                    };
                    for &m in &members {
                        pairs.push((m, xi));
                    }
                    vals[xi as usize] = members;
                }
                raw.push((RawVals::Set((tau.clone(), attr.clone()), vals), pairs));
            }
        }
        let nsym = store.interner.len();
        let built = crate::par::fan_out(threads, raw, &v.obs, "init.col", |(rv, pairs)| {
            (rv, build_occ(&pairs, nsym))
        });
        for (rv, occ) in built {
            match rv {
                RawVals::Single(key, vals) => {
                    store.singles.insert(key, SingleCol { vals, occ });
                }
                RawVals::Set(key, vals) => {
                    store.sets.insert(key, SetCol { vals, occ });
                }
            }
        }

        let mut ids = IdTable::default();
        for (rank, tau) in s.element_types().enumerate() {
            ids.ranks.insert(tau.clone(), rank as u32);
        }
        if v.plan.needs_ids {
            for tau in s.element_types() {
                if let Some(a) = s.id_attr(tau) {
                    ids.id_field_of.insert(tau.clone(), Field::Attr(a.clone()));
                }
            }
            let IdTable {
                ranks,
                id_field_of,
                carriers,
            } = &mut ids;
            for (tau, f) in id_field_of.iter() {
                let Some(col) = store.singles.get(&(tau.clone(), f.clone())) else {
                    continue;
                };
                let rank = ranks[tau];
                for &x in idx.ext(tau) {
                    let xi = x.index() as u32;
                    if let Some(val) = col.get(xi) {
                        carriers.entry(val).or_default().insert((rank, xi));
                    }
                }
            }
        }

        let mut root_viol = None;
        let root_label = tree.label(tree.root());
        if root_label != s.root() {
            root_viol = Some(Violation::RootLabel {
                expected: s.root().clone(),
                found: root_label.clone(),
            });
        }
        // Vertices are structurally independent: chunk the scan, then
        // merge the (ascending) per-chunk results in order.
        let all_nodes: Vec<NodeId> = tree.node_ids().collect();
        let chunks = crate::par::chunked(threads, all_nodes.len(), &v.obs, "init.struct", |r| {
            let mut word: Vec<Symbol> = Vec::new();
            let mut buf: Vec<Violation> = Vec::new();
            let mut out: Vec<(u32, Vec<Violation>)> = Vec::new();
            for &id in &all_nodes[r] {
                buf.clear();
                v.check_structure_node(&tree, id, &mut word, &mut buf);
                if !buf.is_empty() {
                    out.push((id.index() as u32, buf.clone()));
                }
            }
            out
        });
        let mut struct_viols = BTreeMap::new();
        for chunk in chunks {
            struct_viols.extend(chunk);
        }

        let mut parts = build_parts(v.dtdc());
        let items: Vec<(u32, &mut Part)> = (0u32..).zip(parts.iter_mut()).collect();
        crate::par::fan_out(threads, items, &v.obs, "init.part", |(pi, p)| {
            p.init(&idx, &store, &ids, pi);
        });
        let subs = Subs::build(&store, &parts, &ids);

        LiveValidator {
            v,
            tree,
            store,
            ids,
            parts,
            subs,
            struct_viols,
            root_viol,
        }
    }

    /// Rebuilds a live validator from an exported [`LiveState`] without
    /// re-parsing, re-extracting, or re-running the content-model scan.
    ///
    /// The expensive phases of [`LiveValidator::new`] — per-cell attribute
    /// extraction and interning, and the structural DFA scan — are replaced
    /// by the snapshot's stored columns and violation table; only the
    /// derived indexes (occurrence maps via the same stable counting sort,
    /// the ID table, per-constraint tables, subscriptions) are recomputed,
    /// in the same deterministic order `new` builds them. The resulting
    /// validator's [`report`](LiveValidator::report) is byte-identical to
    /// scratch validation of `state.tree`.
    ///
    /// # Errors
    ///
    /// Returns [`StateError`] — never panics — when the state is
    /// internally inconsistent or does not match `v`'s constraint plan:
    /// malformed intern-pool parts, missing/extra/duplicate columns,
    /// symbols outside the pool, or vectors extending past the tree's id
    /// bound. Cells of dead vertices must be empty.
    pub fn from_state(v: &'v Validator<'d>, state: LiveState) -> Result<Self, StateError> {
        let _warm = v.obs.span("live.warm");
        let s = v.dtdc().structure();
        let LiveState {
            tree,
            interner_arena,
            interner_spans,
            singles,
            sets,
            struct_viols,
        } = state;

        let interner = Interner::from_parts(interner_arena, interner_spans)
            .map_err(|detail| StateError { detail })?;
        let nsym = interner.len();
        let bound = tree.id_bound();

        // The snapshot must cover the plan exactly: a missing column would
        // panic on first read, and an extra one means the snapshot was
        // taken under a different schema or constraint set.
        let want: BTreeSet<(Name, Field)> = v
            .plan
            .singles
            .iter()
            .flat_map(|(tau, fs)| fs.iter().map(move |f| (tau.clone(), f.clone())))
            .collect();
        let got: BTreeSet<(Name, Field)> = singles.iter().map(|(k, _)| k.clone()).collect();
        if got != want || got.len() != singles.len() {
            return Err(StateError {
                detail: format!(
                    "single columns do not match the constraint plan \
                     ({} stored, {} planned)",
                    singles.len(),
                    want.len()
                ),
            });
        }
        let want: BTreeSet<(Name, Name)> = v
            .plan
            .sets
            .iter()
            .flat_map(|(tau, attrs)| attrs.iter().map(move |a| (tau.clone(), a.clone())))
            .collect();
        let got: BTreeSet<(Name, Name)> = sets.iter().map(|(k, _)| k.clone()).collect();
        if got != want || got.len() != sets.len() {
            return Err(StateError {
                detail: format!(
                    "set columns do not match the constraint plan \
                     ({} stored, {} planned)",
                    sets.len(),
                    want.len()
                ),
            });
        }

        let check_cell = |xi: usize, sym: Sym, what: &dyn std::fmt::Display| {
            if sym.index() >= nsym {
                return Err(StateError {
                    detail: format!(
                        "column {what} cell n{xi} references symbol {} of an \
                         intern pool holding {nsym}",
                        sym.index()
                    ),
                });
            }
            if !tree.is_alive(NodeId::from_index(xi)) {
                return Err(StateError {
                    detail: format!("column {what} has a value at dead vertex n{xi}"),
                });
            }
            Ok(())
        };
        for ((tau, f), vals) in &singles {
            if vals.len() > bound {
                return Err(StateError {
                    detail: format!(
                        "column ({tau}, {f}) holds {} cells but the tree's id \
                         bound is {bound}",
                        vals.len()
                    ),
                });
            }
            for (xi, cell) in vals.iter().enumerate() {
                if let Some(sym) = cell {
                    check_cell(xi, *sym, &format_args!("({tau}, {f})"))?;
                }
            }
        }
        for ((tau, a), vals) in &sets {
            if vals.len() > bound {
                return Err(StateError {
                    detail: format!(
                        "column ({tau}, {a}) holds {} rows but the tree's id \
                         bound is {bound}",
                        vals.len()
                    ),
                });
            }
            for (xi, members) in vals.iter().enumerate() {
                for &m in members {
                    check_cell(xi, m, &format_args!("({tau}, {a})"))?;
                }
            }
        }
        for (xi, viols) in &struct_viols {
            if *xi as usize >= bound || viols.is_empty() {
                return Err(StateError {
                    detail: format!(
                        "structural violation entry at vertex n{xi} is empty \
                         or out of bounds (id bound {bound})"
                    ),
                });
            }
        }

        let idx = ExtIndex::build(&tree);
        let threads = (tree.len() / crate::par::MIN_NODES_PER_THREAD)
            .max(1)
            .min(v.effective_threads());
        let mut store = Store {
            interner,
            singles: HashMap::new(),
            sets: HashMap::new(),
        };
        // Occurrence maps are regrouped exactly as bulk init groups them:
        // pairs ascend by vertex (extraction walked extents in ascending
        // id order, and dense cells are revisited the same way), and the
        // counting sort is stable, so `Holders` runs come out identical.
        enum RawVals {
            Single((Name, Field), Vec<Option<Sym>>),
            Set((Name, Name), Vec<Vec<Sym>>),
        }
        let mut raw: Vec<(RawVals, Vec<(Sym, u32)>)> =
            Vec::with_capacity(singles.len() + sets.len());
        for (key, vals) in singles {
            let mut pairs = Vec::new();
            for (xi, cell) in vals.iter().enumerate() {
                if let Some(sym) = cell {
                    pairs.push((*sym, xi as u32));
                }
            }
            raw.push((RawVals::Single(key, vals), pairs));
        }
        for (key, vals) in sets {
            let mut pairs = Vec::new();
            for (xi, members) in vals.iter().enumerate() {
                for &m in members {
                    pairs.push((m, xi as u32));
                }
            }
            raw.push((RawVals::Set(key, vals), pairs));
        }
        let built = crate::par::fan_out(threads, raw, &v.obs, "warm.col", |(rv, pairs)| {
            (rv, build_occ(&pairs, nsym))
        });
        for (rv, occ) in built {
            match rv {
                RawVals::Single(key, vals) => {
                    store.singles.insert(key, SingleCol { vals, occ });
                }
                RawVals::Set(key, vals) => {
                    store.sets.insert(key, SetCol { vals, occ });
                }
            }
        }

        let mut ids = IdTable::default();
        for (rank, tau) in s.element_types().enumerate() {
            ids.ranks.insert(tau.clone(), rank as u32);
        }
        if v.plan.needs_ids {
            for tau in s.element_types() {
                if let Some(a) = s.id_attr(tau) {
                    ids.id_field_of.insert(tau.clone(), Field::Attr(a.clone()));
                }
            }
            let IdTable {
                ranks,
                id_field_of,
                carriers,
            } = &mut ids;
            for (tau, f) in id_field_of.iter() {
                let Some(col) = store.singles.get(&(tau.clone(), f.clone())) else {
                    continue;
                };
                let rank = ranks[tau];
                for &x in idx.ext(tau) {
                    let xi = x.index() as u32;
                    if let Some(val) = col.get(xi) {
                        carriers.entry(val).or_default().insert((rank, xi));
                    }
                }
            }
        }

        // The root check is two label compares — recomputing it beats
        // trusting (and having to re-verify) a stored copy.
        let mut root_viol = None;
        let root_label = tree.label(tree.root());
        if root_label != s.root() {
            root_viol = Some(Violation::RootLabel {
                expected: s.root().clone(),
                found: root_label.clone(),
            });
        }

        let mut parts = build_parts(v.dtdc());
        let items: Vec<(u32, &mut Part)> = (0u32..).zip(parts.iter_mut()).collect();
        crate::par::fan_out(threads, items, &v.obs, "warm.part", |(pi, p)| {
            p.init(&idx, &store, &ids, pi);
        });
        let subs = Subs::build(&store, &parts, &ids);

        Ok(LiveValidator {
            v,
            tree,
            store,
            ids,
            parts,
            subs,
            struct_viols: struct_viols.into_iter().collect(),
            root_viol,
        })
    }

    /// Exports the validator's owned state for snapshotting.
    ///
    /// The export is deterministic (columns and violation entries come out
    /// in ascending key order) and self-contained: feeding it back through
    /// [`LiveValidator::from_state`] — on this validator or a freshly built
    /// one over the same schema — reproduces a validator whose report and
    /// future edit behaviour are identical.
    pub fn export_state(&self) -> LiveState {
        let _span = self.v.obs.span("live.export");
        let mut singles: Vec<SingleColumnState> = self
            .store
            .singles
            .iter()
            .map(|(k, col)| (k.clone(), col.vals.clone()))
            .collect();
        singles.sort_by(|a, b| a.0.cmp(&b.0));
        let mut sets: Vec<SetColumnState> = self
            .store
            .sets
            .iter()
            .map(|(k, col)| (k.clone(), col.vals.clone()))
            .collect();
        sets.sort_by(|a, b| a.0.cmp(&b.0));
        LiveState {
            tree: self.tree.clone(),
            interner_arena: self.store.interner.arena().to_vec(),
            interner_spans: self.store.interner.spans().to_vec(),
            singles,
            sets,
            struct_viols: self
                .struct_viols
                .iter()
                .map(|(x, vs)| (*x, vs.clone()))
                .collect(),
        }
    }

    /// The current document.
    pub fn tree(&self) -> &DataTree {
        &self.tree
    }

    /// The full report for the current document — byte-identical to
    /// [`Validator::validate`] on [`LiveValidator::tree`], assembled in
    /// O(#violations) from the maintained tables.
    pub fn report(&self) -> Report {
        let mut violations = Vec::new();
        violations.extend(self.root_viol.iter().cloned());
        for vs in self.struct_viols.values() {
            violations.extend(vs.iter().cloned());
        }
        for p in &self.parts {
            violations.extend(p.entries.values().cloned());
        }
        Report {
            violations,
            metrics: self.v.obs.snapshot(),
        }
    }

    /// The validator's observability handle, cloned so a span guard never
    /// borrows `self` across the `&mut self` edit work.
    fn obs(&self) -> Obs {
        self.v.obs.clone()
    }

    /// Applies a batch of edit requests with one propagation pass.
    ///
    /// Requests are staged in order: structural requests (insert/delete)
    /// mutate the tree immediately — so liveness checks, fragment id
    /// assignment, and child positions see exactly the state sequential
    /// application would — while attribute and text writes coalesce per
    /// (vertex, attribute) / (vertex, text slot) with last-writer-wins.
    /// The flush then applies each surviving write once, retracts and
    /// announces each removed/inserted vertex once, re-extracts each
    /// touched column cell once (grouped per column, store updated ahead
    /// of dispatch), propagates each surviving store delta only to the
    /// constraint parts subscribed to its column, and reconciles raised
    /// and cleared violations in a single emission-order pass.
    ///
    /// The resulting [`LiveValidator::report`] is byte-identical to
    /// applying the same requests one at a time; the returned diff is the
    /// composition of the per-request diffs (violations both raised and
    /// cleared within the batch cancel out). On an invalid request the
    /// staged prefix is still flushed — the validator stays consistent
    /// with the requests before the failing one — and the error returns
    /// with the request's batch index; the prefix's diff is discarded.
    ///
    /// One caveat versus sequential application: a write coalesced away
    /// by last-writer-wins is never materialized, so the *tombstoned*
    /// content of a vertex deleted later in the same batch may differ
    /// from the sequential tree's. Tombstones are unreachable from every
    /// validation and report path, so the difference is unobservable
    /// there.
    pub fn apply_batch(&mut self, edits: &[BatchEdit]) -> Result<ReportDiff, BatchError> {
        let obs = self.obs();
        let _span = obs.span("edit.batch");
        let mut st = BatchState {
            pre_bound: self.tree.id_bound() as u32,
            ..Default::default()
        };
        let mut failed: Option<BatchError> = None;
        for (i, e) in edits.iter().enumerate() {
            if let Err(error) = self.stage(e, &mut st) {
                failed = Some(BatchError { index: i, error });
                break;
            }
        }
        let raw = st.staged;
        let (mut diff, coalesced) = self.flush(st);
        if let Some(err) = failed {
            return Err(err);
        }
        if obs.enabled() {
            obs.add("edits", raw);
            obs.add("edit.count", raw);
            obs.add("edit.coalesced", coalesced);
            obs.add("violations.raised", diff.raised.len() as u64);
            obs.add("violations.cleared", diff.cleared.len() as u64);
            diff.metrics = obs.snapshot();
        }
        Ok(diff)
    }

    /// [`DataTree`]'s liveness check, without mutating: the staged paths
    /// validate before pending a write rather than on performing it.
    fn check_live(&self, node: NodeId) -> Result<(), ModelError> {
        if node.index() >= self.tree.id_bound() {
            Err(ModelError::UnknownNode(node))
        } else if !self.tree.is_alive(node) {
            Err(ModelError::DeadNode(node))
        } else {
            Ok(())
        }
    }

    /// Records both cells attribute `l` of `node` can feed.
    fn touch_attr_cells(&self, node: NodeId, l: &Name, st: &mut BatchState) {
        let tau = self.tree.label(node);
        let xi = node.index() as u32;
        if let Some(&c) = self
            .subs
            .single_ids
            .get(&(tau.clone(), Field::Attr(l.clone())))
        {
            st.touched.push((c, xi));
        }
        if let Some(&c) = self.subs.set_ids.get(&(tau.clone(), l.clone())) {
            st.touched.push((c, xi));
        }
    }

    /// Records the parent-side `Sub(e)` cell a child-word change can feed.
    fn touch_sub_cell(&self, parent: NodeId, e: &Name, st: &mut BatchState) {
        let ptau = self.tree.label(parent);
        if let Some(&c) = self
            .subs
            .single_ids
            .get(&(ptau.clone(), Field::Sub(e.clone())))
        {
            st.touched.push((c, parent.index() as u32));
        }
    }

    /// Stages one batch request: validates it against the current staged
    /// state, applies structural mutations to the tree, pends value
    /// writes, and records the cells and vertices it touches.
    fn stage(&mut self, e: &BatchEdit, st: &mut BatchState) -> Result<(), ModelError> {
        match e {
            BatchEdit::SetAttr { node, attr, value } => {
                self.check_live(*node)?;
                // An overwritten pending write already recorded its cells;
                // re-touching would only re-probe the subscription index.
                if st
                    .pend_attr
                    .insert((node.index() as u32, attr.clone()), Some(value.clone()))
                    .is_none()
                {
                    self.touch_attr_cells(*node, attr, st);
                }
            }
            BatchEdit::RemoveAttr { node, attr } => {
                self.check_live(*node)?;
                let xi = node.index() as u32;
                let present = match st.pend_attr.get(&(xi, attr.clone())) {
                    Some(w) => w.is_some(),
                    None => self.tree.attr(*node, attr).is_some(),
                };
                if !present {
                    return Err(ModelError::NoSuchAttribute {
                        node: *node,
                        attr: attr.clone(),
                    });
                }
                if st.pend_attr.insert((xi, attr.clone()), None).is_none() {
                    self.touch_attr_cells(*node, attr, st);
                }
            }
            BatchEdit::SetText { node, index, text } => {
                self.check_live(*node)?;
                let n = self.tree.node(*node);
                // The text-child count of a live vertex is batch-invariant
                // (no edit adds or removes text children), so a slot valid
                // now is valid at flush.
                let texts = n.children.iter().filter(|c| c.as_text().is_some()).count();
                if *index >= texts {
                    return Err(ModelError::NoSuchText {
                        node: *node,
                        index: *index,
                    });
                }
                if st
                    .pend_text
                    .insert((node.index() as u32, *index), text.clone())
                    .is_none()
                {
                    if let Some(p) = n.parent() {
                        let e = self.tree.label(*node).clone();
                        self.touch_sub_cell(p, &e, st);
                    }
                }
            }
            BatchEdit::InsertSubtree {
                parent,
                position,
                fragment,
            } => {
                let before = self.tree.id_bound() as u32;
                let edit = self.tree.insert_subtree(*parent, *position, fragment)?;
                let Edit::InsertSubtree { root, .. } = &edit else {
                    unreachable!("insert_subtree yields an InsertSubtree delta");
                };
                let e = self.tree.label(*root).clone();
                st.added.extend(before..self.tree.id_bound() as u32);
                st.structural += 1;
                self.touch_sub_cell(*parent, &e, st);
                st.struct_touch.push(parent.index() as u32);
            }
            BatchEdit::DeleteSubtree { node } => {
                let edit = self.tree.delete_subtree(*node)?;
                let Edit::DeleteSubtree { parent, root, .. } = &edit else {
                    unreachable!("delete_subtree yields a DeleteSubtree delta");
                };
                let (parent, root) = (*parent, *root);
                let mut stack = vec![root];
                while let Some(x) = stack.pop() {
                    st.removed.push(x.index() as u32);
                    stack.extend(self.tree.node(x).child_nodes());
                }
                st.structural += 1;
                let e = self.tree.label(root).clone();
                self.touch_sub_cell(parent, &e, st);
                st.struct_touch.push(parent.index() as u32);
            }
        }
        st.staged += 1;
        Ok(())
    }

    /// Applies everything staged in `st` with one propagation pass,
    /// returning the reconciled diff and the surviving-operation count.
    fn flush(&mut self, st: BatchState) -> (ReportDiff, u64) {
        let BatchState {
            pre_bound,
            pend_attr,
            pend_text,
            added,
            removed,
            mut touched,
            mut struct_touch,
            structural,
            ..
        } = st;
        let mut acc = DiffAcc::default();
        let mut coalesced = structural;

        // 1. Surviving attribute writes, in (vertex, attribute) order.
        let mut writes: Vec<((u32, Name), Option<AttrValue>)> = pend_attr.into_iter().collect();
        writes.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for ((xi, l), w) in writes {
            let x = nid(xi);
            if !self.tree.is_alive(x) {
                continue; // the vertex was deleted later in the batch
            }
            coalesced += 1;
            // Attribute checks depend only on name presence and
            // singleton-ness, so replacing a value of equal shape cannot
            // change the structural verdict.
            let reshaped = match w {
                Some(value) => {
                    let single = value.is_singleton();
                    let old = self
                        .tree
                        .set_attr_quiet(x, l, value)
                        .expect("liveness checked above");
                    old.is_none_or(|o| o.is_singleton() != single)
                }
                None => self
                    .tree
                    .remove_attr_quiet(x, &l)
                    .expect("liveness checked above")
                    .is_some(),
            };
            if reshaped {
                struct_touch.push(xi);
            }
        }

        // 2. Surviving text writes.
        let mut writes: Vec<((u32, usize), Value)> = pend_text.into_iter().collect();
        writes.sort_unstable_by_key(|w| w.0);
        for ((xi, index), text) in writes {
            let x = nid(xi);
            if !self.tree.is_alive(x) {
                continue;
            }
            coalesced += 1;
            self.tree
                .set_text_quiet(x, index, text)
                .expect("slot staged-validated and batch-invariant");
        }

        // 3. Retract deleted pre-batch vertices, ascending. Vertices both
        // inserted and deleted by this batch were never filled, so they
        // need no retraction.
        let mut removed: Vec<u32> = removed.into_iter().filter(|&x| x < pre_bound).collect();
        removed.sort_unstable();
        for &xi in &removed {
            self.remove_node(nid(xi), &mut acc);
        }

        // 4. Fill surviving inserted vertices, then announce them. All
        // fills precede the first announcement: each refresh is idempotent
        // over the final store, and unannounced vertices are invisible to
        // the parts' own occurrence maps.
        let added: Vec<u32> = added
            .into_iter()
            .filter(|&x| self.tree.is_alive(nid(x)))
            .collect();
        for &xi in &added {
            self.fill_node(nid(xi));
        }
        for &xi in &added {
            let tau = self.tree.label(nid(xi)).clone();
            self.dispatch(Change::NodeAdded { tau, node: xi }, &mut acc);
            struct_touch.push(xi);
        }

        // 5. Re-extract each touched cell once, column by column: batch
        // the column's store updates, then dispatch only the surviving
        // deltas, only to the subscribed parts. Inserted vertices are
        // covered by `NodeAdded`, deleted ones by `NodeRemoved`. A part
        // reading a not-yet-flushed column during an earlier column's
        // dispatch self-corrects: each cell changes (and dispatches) at
        // most once, so the last refresh touching any given violation
        // slot sees every final value.
        touched.sort_unstable();
        touched.dedup();
        let mut i = 0;
        while i < touched.len() {
            let col = touched[i].0;
            let mut j = i;
            match self.subs.keys[col as usize].clone() {
                ColKey::Single(tau, field) => {
                    let mut changes: Vec<(u32, Option<Sym>, Option<Sym>)> = Vec::new();
                    {
                        let Self { tree, store, .. } = &mut *self;
                        let Store {
                            interner, singles, ..
                        } = store;
                        let cmap = singles
                            .get_mut(&(tau.clone(), field.clone()))
                            .expect("touched columns come from the subscription index");
                        while j < touched.len() && touched[j].0 == col {
                            let xi = touched[j].1;
                            j += 1;
                            if xi >= pre_bound || !tree.is_alive(nid(xi)) {
                                continue;
                            }
                            let new = extract_single(tree, nid(xi), &field, interner);
                            let old = cmap.set(xi, new);
                            if old != new {
                                changes.push((xi, old, new));
                            }
                        }
                    }
                    for (node, old, new) in changes {
                        self.dispatch_to(
                            col,
                            Change::Single {
                                tau: tau.clone(),
                                field: field.clone(),
                                node,
                                old,
                                new,
                            },
                            &mut acc,
                        );
                    }
                }
                ColKey::Set(tau, attr) => {
                    let mut changes: Vec<u32> = Vec::new();
                    {
                        let Self { tree, store, .. } = &mut *self;
                        let Store { interner, sets, .. } = store;
                        let cmap = sets
                            .get_mut(&(tau.clone(), attr.clone()))
                            .expect("touched columns come from the subscription index");
                        while j < touched.len() && touched[j].0 == col {
                            let xi = touched[j].1;
                            j += 1;
                            if xi >= pre_bound || !tree.is_alive(nid(xi)) {
                                continue;
                            }
                            let new: Vec<Sym> = match tree.attr(nid(xi), &attr) {
                                Some(val) => {
                                    val.values().iter().map(|s| interner.intern(s)).collect()
                                }
                                None => Vec::new(),
                            };
                            let old = cmap.set(xi, new.clone());
                            if old != new {
                                changes.push(xi);
                            }
                        }
                    }
                    for node in changes {
                        self.dispatch_to(
                            col,
                            Change::Set {
                                tau: tau.clone(),
                                attr: attr.clone(),
                                node,
                            },
                            &mut acc,
                        );
                    }
                }
            }
            i = j;
        }

        // 6. One structural recheck per touched vertex.
        struct_touch.sort_unstable();
        struct_touch.dedup();
        for xi in struct_touch {
            if self.tree.is_alive(nid(xi)) {
                self.refresh_struct(nid(xi), &mut acc);
            }
        }

        (acc.finalize(&self.struct_viols, &self.parts), coalesced)
    }

    /// Dispatches one change to the ID table and only the parts
    /// subscribed to column `col`.
    fn dispatch_to(&mut self, col: u32, change: Change, acc: &mut DiffAcc) {
        let Self {
            parts,
            store,
            ids,
            subs,
            ..
        } = self;
        ids.apply(&change, store);
        for &pi in &subs.parts_of[col as usize] {
            parts[pi as usize].apply(&change, store, ids, pi, acc);
        }
    }

    /// Runs core ID-table maintenance, then every part, on one change.
    fn dispatch(&mut self, change: Change, acc: &mut DiffAcc) {
        let Self {
            parts, store, ids, ..
        } = self;
        ids.apply(&change, store);
        for (pi, p) in parts.iter_mut().enumerate() {
            p.apply(&change, store, ids, pi as u32, acc);
        }
    }

    /// Fills a freshly inserted vertex's planned columns from the tree
    /// (no change dispatch — `NodeAdded` announces it afterwards).
    fn fill_node(&mut self, x: NodeId) {
        let v = self.v;
        let tau = self.tree.label(x).clone();
        let xi = x.index() as u32;
        let Self { tree, store, .. } = &mut *self;
        if let Some(fields) = v.plan.singles.get(&tau) {
            for f in fields {
                let val = extract_single(tree, x, f, &mut store.interner);
                store
                    .singles
                    .get_mut(&(tau.clone(), f.clone()))
                    .expect("plan column built at construction")
                    .set(xi, val);
            }
        }
        if let Some(attrs) = v.plan.sets.get(&tau) {
            for a in attrs {
                let members: Vec<Sym> = match tree.attr(x, a) {
                    Some(val) => val
                        .values()
                        .iter()
                        .map(|s| store.interner.intern(s))
                        .collect(),
                    None => Vec::new(),
                };
                store
                    .sets
                    .get_mut(&(tau.clone(), a.clone()))
                    .expect("plan column built at construction")
                    .set(xi, members);
            }
        }
    }

    /// Retracts one removed vertex: snapshots and drops its store cells,
    /// announces `NodeRemoved`, clears its structural entry.
    fn remove_node(&mut self, x: NodeId, acc: &mut DiffAcc) {
        let v = self.v;
        let tau = self.tree.label(x).clone();
        let xi = x.index() as u32;
        let mut singles: Vec<(Field, Option<Sym>)> = Vec::new();
        if let Some(fields) = v.plan.singles.get(&tau) {
            for f in fields {
                let col = self
                    .store
                    .singles
                    .get_mut(&(tau.clone(), f.clone()))
                    .expect("plan column built at construction");
                singles.push((f.clone(), col.remove(xi)));
            }
        }
        if let Some(attrs) = v.plan.sets.get(&tau) {
            for a in attrs {
                self.store
                    .sets
                    .get_mut(&(tau.clone(), a.clone()))
                    .expect("plan column built at construction")
                    .remove(xi);
            }
        }
        self.dispatch(
            Change::NodeRemoved {
                tau,
                node: xi,
                singles,
            },
            acc,
        );
        self.clear_struct(x, acc);
    }

    /// Re-runs the per-vertex structural check for `x`.
    fn refresh_struct(&mut self, x: NodeId, acc: &mut DiffAcc) {
        let xi = x.index() as u32;
        let old = self.struct_viols.get(&xi).cloned().unwrap_or_default();
        acc.touch_struct(xi, &old);
        let mut word: Vec<Symbol> = Vec::new();
        let mut buf: Vec<Violation> = Vec::new();
        self.v
            .check_structure_node(&self.tree, x, &mut word, &mut buf);
        if buf.is_empty() {
            self.struct_viols.remove(&xi);
        } else {
            self.struct_viols.insert(xi, buf);
        }
    }

    /// Drops the structural entry of a removed vertex.
    fn clear_struct(&mut self, x: NodeId, acc: &mut DiffAcc) {
        let xi = x.index() as u32;
        let old = self.struct_viols.remove(&xi).unwrap_or_default();
        acc.touch_struct(xi, &old);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_constraints::examples::book_dtdc;
    use xic_model::TreeBuilder;

    /// A fully valid book document.
    fn valid_book() -> DataTree {
        let mut b = TreeBuilder::new();
        let book = b.node("book");
        let entry = b.child_node(book, "entry").unwrap();
        b.attr(entry, "isbn", AttrValue::single("x1")).unwrap();
        b.leaf(entry, "title", "T").unwrap();
        b.leaf(entry, "publisher", "P").unwrap();
        b.leaf(book, "author", "A").unwrap();
        let s1 = b.child_node(book, "section").unwrap();
        b.attr(s1, "sid", AttrValue::single("s1")).unwrap();
        b.leaf(s1, "title", "Intro").unwrap();
        b.leaf(s1, "text", "...").unwrap();
        let r = b.child_node(book, "ref").unwrap();
        b.attr(r, "to", AttrValue::set(["x1"])).unwrap();
        b.finish(book).unwrap()
    }

    /// A standalone entry fragment with the given ISBN.
    fn entry_fragment(isbn: &str) -> DataTree {
        let mut b = TreeBuilder::new();
        let entry = b.node("entry");
        b.attr(entry, "isbn", AttrValue::single(isbn)).unwrap();
        b.leaf(entry, "title", "T2").unwrap();
        b.leaf(entry, "publisher", "P2").unwrap();
        b.finish(entry).unwrap()
    }

    /// Applies `e` as a one-edit batch and returns its diff.
    fn edit(live: &mut LiveValidator<'_, '_>, e: BatchEdit) -> ReportDiff {
        live.apply_batch(&[e]).expect("edit applies")
    }

    fn set(node: NodeId, attr: &str, value: AttrValue) -> BatchEdit {
        BatchEdit::SetAttr {
            node,
            attr: attr.into(),
            value,
        }
    }

    /// Asserts the live report is byte-identical to a from-scratch run.
    fn assert_matches_scratch(live: &LiveValidator<'_, '_>, v: &Validator<'_>) {
        let scratch = v.validate(live.tree());
        assert_eq!(
            live.report().violations,
            scratch.violations,
            "live report diverged from from-scratch validation"
        );
    }

    /// Unwraps the rejection of a bad snapshot.
    fn reject(v: &Validator<'_>, bad: LiveState) -> StateError {
        match LiveValidator::from_state(v, bad) {
            Err(e) => e,
            Ok(_) => panic!("expected the snapshot to be rejected"),
        }
    }

    /// Asserts `old + raised − cleared = new` as violation multisets.
    fn assert_diff_consistent(old: &Report, diff: &ReportDiff, new: &Report) {
        let mut expect: Vec<&Violation> = old.violations.iter().collect();
        for r in &diff.raised {
            expect.push(r);
        }
        for c in &diff.cleared {
            let i = expect
                .iter()
                .position(|v| *v == c)
                .expect("cleared violation was present");
            expect.remove(i);
        }
        let mut actual: Vec<&Violation> = new.violations.iter().collect();
        let key = |v: &&Violation| format!("{v:?}");
        expect.sort_by_key(key);
        actual.sort_by_key(key);
        assert_eq!(expect, actual, "diff does not reconcile old and new");
    }

    #[test]
    fn attr_edit_raises_and_clears_fk_violation() {
        let d = book_dtdc();
        let v = Validator::new(&d);
        let mut live = LiveValidator::new(&v, valid_book());
        assert!(live.report().is_valid());
        let entry = live.tree().ext("entry").next().unwrap();

        // Renaming the entry's key leaves ref.@to dangling.
        let before = live.report();
        let diff = edit(&mut live, set(entry, "isbn", AttrValue::single("x9")));
        assert!(
            diff.raised
                .iter()
                .any(|x| matches!(x, Violation::ForeignKey { value, .. } if value == "x1")),
            "expected a dangling-reference violation, got {diff:?}"
        );
        assert_diff_consistent(&before, &diff, &live.report());
        assert_matches_scratch(&live, &v);

        // Renaming it back clears exactly what was raised.
        let before = live.report();
        let diff = edit(&mut live, set(entry, "isbn", AttrValue::single("x1")));
        assert!(diff.raised.is_empty(), "{diff:?}");
        assert!(!diff.cleared.is_empty());
        assert_diff_consistent(&before, &diff, &live.report());
        assert!(live.report().is_valid());
        assert_matches_scratch(&live, &v);
    }

    #[test]
    fn insert_then_delete_roundtrips_key_violation() {
        let d = book_dtdc();
        let v = Validator::new(&d);
        let mut live = LiveValidator::new(&v, valid_book());
        let book = live.tree().root();

        // A second entry with a duplicate ISBN violates the key and the
        // content model (book allows one entry).
        // The fragment's vertices get fresh ids at the arena end.
        let before = live.report();
        let bound = live.tree().id_bound();
        let diff = edit(
            &mut live,
            BatchEdit::InsertSubtree {
                parent: book,
                position: 1,
                fragment: entry_fragment("x1"),
            },
        );
        assert_eq!(live.tree().id_bound(), bound + 3);
        let inserted = NodeId::from_index(bound);
        assert_eq!(live.tree().label(inserted).as_str(), "entry");
        assert!(diff
            .raised
            .iter()
            .any(|x| matches!(x, Violation::Key { .. })));
        assert_diff_consistent(&before, &diff, &live.report());
        assert_matches_scratch(&live, &v);

        // Deleting it restores the exact pre-insert report.
        let before = live.report();
        let diff = edit(&mut live, BatchEdit::DeleteSubtree { node: inserted });
        assert_diff_consistent(&before, &diff, &live.report());
        assert!(live.report().is_valid());
        assert_matches_scratch(&live, &v);
    }

    #[test]
    fn remove_attr_and_set_text_track_scratch() {
        let d = book_dtdc();
        let v = Validator::new(&d);
        let mut live = LiveValidator::new(&v, valid_book());
        let entry = live.tree().ext("entry").next().unwrap();
        let title = live.tree().ext("title").next().unwrap();

        let before = live.report();
        let diff = edit(
            &mut live,
            BatchEdit::RemoveAttr {
                node: entry,
                attr: "isbn".into(),
            },
        );
        assert!(!diff.raised.is_empty(), "missing key field must raise");
        assert_diff_consistent(&before, &diff, &live.report());
        assert_matches_scratch(&live, &v);

        edit(
            &mut live,
            BatchEdit::SetText {
                node: title,
                index: 0,
                text: "New Title".into(),
            },
        );
        assert_matches_scratch(&live, &v);
        assert_eq!(live.tree().node(title).text(), "New Title");
    }

    #[test]
    fn no_op_edit_has_empty_diff() {
        let d = book_dtdc();
        let v = Validator::new(&d);
        let mut live = LiveValidator::new(&v, valid_book());
        let entry = live.tree().ext("entry").next().unwrap();
        let diff = edit(&mut live, set(entry, "isbn", AttrValue::single("x1")));
        assert!(diff.is_empty(), "{diff:?}");
        assert_matches_scratch(&live, &v);
    }

    #[test]
    fn invalid_document_stays_in_sync() {
        let d = book_dtdc();
        let v = Validator::new(&d);
        // Start from an invalid tree: dangling ref and missing section id.
        let mut b = TreeBuilder::new();
        let book = b.node("book");
        let entry = b.child_node(book, "entry").unwrap();
        b.attr(entry, "isbn", AttrValue::single("k")).unwrap();
        b.leaf(entry, "title", "T").unwrap();
        b.leaf(entry, "publisher", "P").unwrap();
        let r = b.child_node(book, "ref").unwrap();
        b.attr(r, "to", AttrValue::set(["nope", "k"])).unwrap();
        let t = b.finish(book).unwrap();

        let mut live = LiveValidator::new(&v, t);
        assert!(!live.report().is_valid());
        assert_matches_scratch(&live, &v);

        let before = live.report();
        let diff = edit(&mut live, set(r, "to", AttrValue::set(["k"])));
        assert_diff_consistent(&before, &diff, &live.report());
        assert_matches_scratch(&live, &v);
    }

    #[test]
    fn state_round_trip_reproduces_reports_and_edit_behaviour() {
        let d = book_dtdc();
        let v = Validator::new(&d);
        let mut live = LiveValidator::new(&v, valid_book());

        // Dirty the state first: an insert, a delete, and a broken key, so
        // the export carries dead vertices and live violations.
        let book = live.tree().root();
        edit(
            &mut live,
            BatchEdit::InsertSubtree {
                parent: book,
                position: 1,
                fragment: entry_fragment("x2"),
            },
        );
        let section = live.tree().ext("section").next().unwrap();
        edit(&mut live, BatchEdit::DeleteSubtree { node: section });
        let entry = live.tree().ext("entry").next().unwrap();
        edit(&mut live, set(entry, "isbn", AttrValue::single("x9")));
        assert!(!live.report().is_valid());

        let warm = LiveValidator::from_state(&v, live.export_state()).unwrap();
        assert_eq!(
            warm.report().violations,
            live.report().violations,
            "warm report diverged from the exported validator"
        );
        assert_matches_scratch(&warm, &v);

        // The warm validator must also *edit* identically from here on.
        let mut warm = warm;
        let fix = live.tree().ext("entry").next().unwrap();
        let a = edit(&mut live, set(fix, "isbn", AttrValue::single("x1")));
        let b = edit(&mut warm, set(fix, "isbn", AttrValue::single("x1")));
        assert_eq!(a.raised, b.raised);
        assert_eq!(a.cleared, b.cleared);
        assert_eq!(warm.report().violations, live.report().violations);
        assert_matches_scratch(&warm, &v);
    }

    #[test]
    fn from_state_rejects_inconsistent_snapshots() {
        let d = book_dtdc();
        let v = Validator::new(&d);
        let live = LiveValidator::new(&v, valid_book());
        let good = live.export_state();

        // A column missing from the plan's cover.
        let mut bad = good.clone();
        bad.singles.pop();
        let err = reject(&v, bad);
        assert!(err.detail.contains("constraint plan"), "{err}");

        // A symbol beyond the intern pool.
        let mut bad = good.clone();
        let huge = Sym::from_index(1_000_000);
        for (_, vals) in &mut bad.singles {
            if let Some(cell) = vals.iter_mut().find(|c| c.is_some()) {
                *cell = Some(huge);
            }
        }
        let err = reject(&v, bad);
        assert!(err.detail.contains("intern pool"), "{err}");

        // A column longer than the tree's id bound.
        let mut bad = good.clone();
        bad.singles[0].1.resize(bad.tree.id_bound() + 5, None);
        let err = reject(&v, bad);
        assert!(err.detail.contains("id bound"), "{err}");

        // Malformed intern-pool parts surface the interner's error.
        let mut bad = good.clone();
        bad.interner_spans.push((u32::MAX, 4));
        let err = reject(&v, bad);
        assert!(err.detail.contains("interner"), "{err}");

        // An out-of-bounds structural entry.
        let mut bad = good.clone();
        bad.struct_viols.push((
            bad.tree.id_bound() as u32 + 7,
            vec![Violation::RootLabel {
                expected: Name::from("a"),
                found: Name::from("b"),
            }],
        ));
        let err = reject(&v, bad);
        assert!(err.detail.contains("out of bounds"), "{err}");

        // The untampered export still loads.
        assert!(LiveValidator::from_state(&v, good).is_ok());
    }

    #[test]
    fn from_state_rejects_values_at_dead_vertices() {
        let d = book_dtdc();
        let v = Validator::new(&d);
        let mut live = LiveValidator::new(&v, valid_book());
        let section = live.tree().ext("section").next().unwrap();
        let dead = section.index();
        edit(&mut live, BatchEdit::DeleteSubtree { node: section });

        let mut bad = live.export_state();
        let sym = Sym::from_index(0);
        let (_, vals) = &mut bad.singles[0];
        if vals.len() <= dead {
            vals.resize(dead + 1, None);
        }
        vals[dead] = Some(sym);
        let err = reject(&v, bad);
        assert!(err.detail.contains("dead vertex"), "{err}");
    }
}
