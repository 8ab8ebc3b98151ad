//! Incremental constraint revalidation under document edits.
//!
//! [`Validator::validate`] rebuilds the extent index, re-extracts every
//! planned column, and rescans every constraint for each call — Θ(doc) work
//! even when one attribute changed. [`LiveValidator`] instead owns the tree
//! and maintains, across edits, exactly the state a from-scratch run would
//! compute:
//!
//! * a **mutable columnar store** — per planned `(τ, field)` one row per
//!   vertex of τ, laid out like the one-shot columns of [`crate::plan`]'s
//!   `DocIndex`, plus a reverse occurrence index (value ↦ vertices) that
//!   also answers a unary foreign key's target membership;
//! * **tuple indexes** for multi-field keys and foreign keys (tuple ↦
//!   holders, and refcounted target tuples) in place of the one-shot
//!   first-seen tables, so tuples can be retracted one occurrence at a
//!   time;
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

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};

use xic_constraints::{DtdC, Field};
use xic_model::{
    AttrValue, DataTree, Edit, FastHashMap, Interner, ModelError, Name, NodeId, Sym, Value,
};
use xic_obs::{Metrics, Obs};
use xic_regex::Symbol;

use crate::plan::{
    cell_set, cell_single, CheckKind, FkNary, FkSingle, IdCheck, Inverse, Key, KeyUnary, Plan,
    SetFk, TauPlan,
};
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
    /// `Validator::with_obs`). Excluded from equality: two diffs raising
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

/// A column's reverse occurrence index: member ↦ the vertices holding it,
/// ascending. Def. 2.4 compares values only for equality, and most values
/// of a key-like column have one holder, so the index is split in two: a
/// value with a single holder is an 8-byte entry of `one`, and only a
/// shared value's holders take a list, sorted, in `many`. A value lives in
/// at most one of the two maps, and every `many` list holds two or more
/// vertices.
#[derive(Default)]
struct Occ {
    one: FastHashMap<Sym, u32>,
    many: FastHashMap<Sym, Vec<u32>>,
}

impl Occ {
    /// Records that `x` holds `v`.
    fn insert(&mut self, v: Sym, x: u32) {
        if let Some(list) = self.many.get_mut(&v) {
            if let Err(i) = list.binary_search(&x) {
                list.insert(i, x);
            }
            return;
        }
        match self.one.entry(v) {
            Entry::Vacant(e) => {
                e.insert(x);
            }
            Entry::Occupied(e) if *e.get() != x => {
                let y = e.remove();
                self.many.insert(v, vec![y.min(x), y.max(x)]);
            }
            Entry::Occupied(_) => {}
        }
    }

    /// Records that `x` no longer holds `v`.
    fn remove(&mut self, v: Sym, x: u32) {
        if let Entry::Occupied(e) = self.one.entry(v) {
            if *e.get() == x {
                e.remove();
            }
            return;
        }
        let Some(list) = self.many.get_mut(&v) else {
            return;
        };
        if let Ok(i) = list.binary_search(&x) {
            list.remove(i);
            if let [y] = list[..] {
                self.many.remove(&v);
                self.one.insert(v, y);
            }
        }
    }

    /// The vertices holding `v`, ascending.
    fn holders(&self, v: Sym) -> &[u32] {
        match self.one.get(&v) {
            Some(x) => std::slice::from_ref(x),
            None => self.many.get(&v).map_or(&[], Vec::as_slice),
        }
    }

    /// Whether any vertex holds `v`.
    fn contains(&self, v: Sym) -> bool {
        self.one.contains_key(&v) || self.many.contains_key(&v)
    }
}

/// One planned column in extent-row layout: one row per arena slot
/// labelled with the column's element type τ, in id order, so row `r`
/// holds the cell of the `r`-th τ slot. Def. 2.4 reads a field `(τ, l)`
/// only at vertices of `ext(τ)`, so no other vertex has a cell. A
/// deleted vertex keeps its (empty) row, and a vertex inserted at the
/// arena end appends one.
///
/// This is the layout the one-shot `DocIndex` and the streaming fill use;
/// the live store, [`LiveState`] and [`LiveStateRef`] all hold columns in
/// it. The snapshot codec is the one place that maps rows to the format's
/// per-vertex cells.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ColumnRows<T> {
    /// The cells, one per τ slot in id order; a dead slot's cell is empty.
    pub rows: Vec<T>,
    /// How many vertex ids the column spans as per-vertex cells: the
    /// snapshot format writes a cell for each id below it. It starts at
    /// the id bound the column was built at and grows past every vertex
    /// written since, so a snapshot's bytes do not depend on the layout.
    /// No row at or past it holds a value.
    pub cells: usize,
}

/// A cell of a [`ColumnRows`]: `Option<Sym>` for a single-valued column,
/// the sorted members for a set-valued one.
trait Cell: Clone + Default + PartialEq {
    fn members(&self) -> &[Sym];
}

impl Cell for Option<Sym> {
    fn members(&self) -> &[Sym] {
        self.as_slice()
    }
}

impl Cell for Vec<Sym> {
    fn members(&self) -> &[Sym] {
        self
    }
}

/// One live column: its rows, the index of its element type in
/// [`Plan::taus`] (which names its slot list in the [`RowMap`]), and the
/// reverse occurrence index the refresh paths probe.
struct Col<T> {
    t: usize,
    vals: ColumnRows<T>,
    occ: Occ,
}

impl<T: Cell> Col<T> {
    /// `x`'s cell, if `x` is a slot of the column's type.
    fn get(&self, rows: &RowMap, x: u32) -> Option<&T> {
        rows.row(self.t, x).map(|r| &self.vals.rows[r])
    }

    /// Writes `x`'s cell, returning the old one. The column's cell count
    /// grows past `x`, as the per-vertex vector it stands for grew.
    fn write(&mut self, rows: &RowMap, x: u32, new: T) -> T {
        self.vals.cells = self.vals.cells.max(x as usize + 1);
        self.replace(rows, x, new)
    }

    /// Clears `x`'s cell, returning its last value.
    fn clear(&mut self, rows: &RowMap, x: u32) -> T {
        self.replace(rows, x, T::default())
    }

    fn replace(&mut self, rows: &RowMap, x: u32, new: T) -> T {
        let r = (rows.row(self.t, x)).expect("a column is written only at vertices of its type");
        let old = std::mem::replace(&mut self.vals.rows[r], new);
        if old != self.vals.rows[r] {
            for &m in old.members() {
                self.occ.remove(m, x);
            }
            for &m in self.vals.rows[r].members() {
                self.occ.insert(m, x);
            }
        }
        old
    }
}

/// Where each vertex's cells sit in the [`ColumnRows`] of its type: the
/// vertex's row among its own label's slots, and each planned type's
/// slots ([`Plan::taus`] order) in row order, for every arena slot, dead
/// ones included. A vertex's row counts in a type only if that type's
/// slot there is the vertex, so a read at a vertex of another type finds
/// nothing.
struct RowMap {
    row_of: Vec<u32>,
    slots: Vec<Vec<u32>>,
}

/// `row_of` of a vertex whose label has no planned column.
const NO_ROW: u32 = u32::MAX;

impl RowMap {
    fn build(plan: &Plan, tree: &DataTree) -> Self {
        let mut rows = RowMap {
            row_of: Vec::with_capacity(tree.id_bound()),
            slots: vec![Vec::new(); plan.taus.len()],
        };
        for x in 0..tree.id_bound() as u32 {
            rows.push(plan, tree.label(nid(x)), x);
        }
        rows
    }

    /// Gives slot `x`, the next at the arena end, labelled `tau`, its row;
    /// returns τ's plan if τ has columns.
    fn push<'p>(&mut self, plan: &'p Plan, tau: &Name, x: u32) -> Option<&'p TauPlan> {
        debug_assert_eq!(self.row_of.len(), x as usize);
        let Some(tp) = plan.taus.get(tau) else {
            self.row_of.push(NO_ROW);
            return None;
        };
        self.row_of.push(self.slots[tp.rank].len() as u32);
        self.slots[tp.rank].push(x);
        Some(tp)
    }

    /// Vertex `x`'s row in type `t`'s columns, if `x` is a slot of `t`.
    fn row(&self, t: usize, x: u32) -> Option<usize> {
        let r = *self.row_of.get(x as usize)?;
        (self.slots[t].get(r as usize) == Some(&x)).then_some(r as usize)
    }
}

/// The live counterpart of the one-shot `DocIndex`: every planned column,
/// mutable and in plan order, holding symbols of the tree's value pool.
/// `singles[c]` and `sets[c]` are the plan's single- and set-valued column
/// `c`; parts hold those ids, resolved once by [`Plan::build`], and never
/// name a column. Symbol numbering is irrelevant for report equality —
/// symbols are only compared for equality/membership, and violations
/// carry resolved strings.
struct Store {
    rows: RowMap,
    singles: Vec<Col<Option<Sym>>>,
    sets: Vec<Col<Vec<Sym>>>,
}

impl Store {
    /// `x`'s value in single-valued column `c` (`None` for an undefined
    /// field or a vertex of another type).
    fn single(&self, c: usize, x: u32) -> Option<Sym> {
        self.singles[c].get(&self.rows, x).copied().flatten()
    }

    /// `x`'s members in set-valued column `c`.
    fn members(&self, c: usize, x: u32) -> &[Sym] {
        self.sets[c].get(&self.rows, x).map_or(&[], Vec::as_slice)
    }

    /// Gives vertex `x`, just added at the arena end with label `tau`, its
    /// row: an empty one appended to each of its type's columns.
    fn push_slot(&mut self, plan: &Plan, tau: &Name, x: u32) {
        let Some(tp) = self.rows.push(plan, tau, x) else {
            return;
        };
        for &(_, c) in &tp.singles {
            self.singles[c].vals.rows.push(None);
        }
        for &(_, c) in &tp.sets {
            self.sets[c].vals.rows.push(Vec::new());
        }
    }

    /// Whether `v` is a value of single-valued column `c` at some vertex
    /// (never, without a column): a foreign key's target presence.
    fn is_value(&self, c: Option<usize>, v: Sym) -> bool {
        c.is_some_and(|c| self.singles[c].occ.contains(v))
    }

    /// A field tuple over single-valued columns `cols` (`None` while any
    /// field is undefined).
    fn tuple(&self, cols: &[usize], x: u32) -> Option<Vec<Sym>> {
        cols.iter().map(|&c| self.single(c, x)).collect()
    }
}

/// A tuple's values as a report spells them.
fn join(pool: &Interner, t: &[Sym]) -> String {
    t.iter()
        .map(|&s| pool.resolve(s))
        .collect::<Vec<_>>()
        .join(", ")
}

/// `x`'s cell in a single-valued column of `field` ([`cell_single`]), a
/// sub-element text the tree holds no symbol for interned into its pool.
fn live_single(tree: &mut DataTree, x: NodeId, field: &Field) -> Option<Sym> {
    Some(cell_single(tree, x, field)?.unwrap_or_else(|child| tree.text_sym(child)))
}

/// `ext(τ)` for the planned types, read off the row map's slot lists: the
/// live slots of τ, ascending. Part and ID-table construction iterate it.
struct Extents<'a> {
    plan: &'a Plan,
    tree: &'a DataTree,
    rows: &'a RowMap,
}

impl Extents<'_> {
    fn ext(&self, tau: &Name) -> impl Iterator<Item = u32> + '_ {
        let slots = (self.plan.taus.get(tau)).map_or(&[][..], |tp| &self.rows.slots[tp.rank]);
        slots
            .iter()
            .copied()
            .filter(|&x| self.tree.is_alive(nid(x)))
    }
}

/// The document-wide ID table: ID value ↦ carriers as `(type rank, vertex)`
/// pairs, whose `BTreeSet` order equals the sequential engine's
/// `element_types() × extent` carrier order.
#[derive(Default)]
struct IdTable {
    /// Element type ↦ its ID column (types with an ID attribute, and only
    /// when Σ has an ID constraint).
    col_of: FastHashMap<Name, usize>,
    /// Single-valued column ↦ `Some(rank in element_types() order)` of the
    /// type whose ID column it is, `None` for every other column.
    rank_of: Vec<Option<u32>>,
    carriers: FastHashMap<Sym, BTreeSet<(u32, u32)>>,
}

impl IdTable {
    fn carriers_of(&self, v: Sym) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.carriers.get(&v).into_iter().flatten().copied()
    }

    /// Whether single-valued column `c` is some type's ID column.
    fn is_id_col(&self, c: usize) -> bool {
        self.rank_of.get(c).is_some_and(Option::is_some)
    }

    /// Moves carrier `(rank of c, x)` from value `old` to value `new`.
    fn recarry(&mut self, c: usize, x: u32, old: Option<Sym>, new: Option<Sym>) {
        let Some(rank) = self.rank_of.get(c).copied().flatten() else {
            return;
        };
        if let Some(o) = old {
            if let Some(set) = self.carriers.get_mut(&o) {
                set.remove(&(rank, x));
                if set.is_empty() {
                    self.carriers.remove(&o);
                }
            }
        }
        if let Some(n) = new {
            self.carriers.entry(n).or_default().insert((rank, x));
        }
    }

    /// Core carrier maintenance, run before parts see the change.
    fn apply(&mut self, change: &Change, store: &Store) {
        match change {
            Change::Single {
                col,
                node,
                old,
                new,
            } => self.recarry(*col, *node, *old, *new),
            Change::NodeAdded { tau, node } => {
                if let Some(&c) = self.col_of.get(tau) {
                    self.recarry(c, *node, None, store.single(c, *node));
                }
            }
            Change::NodeRemoved { tau, node, singles } => {
                if let Some(&c) = self.col_of.get(tau) {
                    self.recarry(c, *node, snapshot_single(singles, c), None);
                }
            }
            Change::Set { .. } => {}
        }
    }
}

/// One delta dispatched to the constraint parts. The store (and ID table)
/// already reflect the *post*-change state when parts run; the change
/// carries the old values parts need for retraction. Cell deltas name
/// their column by plan id; vertex events carry the vertex's label, which
/// parts compare against the types they read.
enum Change {
    /// A vertex entered the document with all its columns already filled.
    NodeAdded { tau: Name, node: u32 },
    /// A vertex left the document; `singles` snapshots its single-valued
    /// cells at removal time, by column id.
    NodeRemoved {
        tau: Name,
        node: u32,
        singles: Vec<(usize, Option<Sym>)>,
    },
    /// One cell of single-valued column `col` changed.
    Single {
        col: usize,
        node: u32,
        old: Option<Sym>,
        new: Option<Sym>,
    },
    /// One cell of set-valued column `col` changed (members after the
    /// change are in the store; parts recompute affected slots from
    /// scratch).
    Set { col: usize, node: u32 },
}

fn snapshot_single(singles: &[(usize, Option<Sym>)], c: usize) -> Option<Sym> {
    singles.iter().find(|(d, _)| *d == c).and_then(|(_, v)| *v)
}

fn nid(x: u32) -> NodeId {
    NodeId::from_index(x as usize)
}

/// The thread budget of live construction: the validator's, clamped to
/// what the document can amortize (see `crate::par::MIN_NODES_PER_THREAD`).
fn init_threads(v: &Validator<'_>, tree: &DataTree) -> usize {
    (tree.len() / crate::par::MIN_NODES_PER_THREAD)
        .max(1)
        .min(v.effective_threads())
}

/// Checks one imported column `(τ, field)` of a [`LiveState`] against
/// τ's slots in the tree: one row per slot, no more cells than the tree's
/// id bound, every symbol inside the intern pool, and values only at live
/// slots below the column's cell count. One pass over |ext(τ)| rows.
fn check_rows<T: Cell>(
    tree: &DataTree,
    slots: &[u32],
    nsym: usize,
    tau: &Name,
    field: &dyn std::fmt::Display,
    col: &ColumnRows<T>,
) -> Result<(), StateError> {
    let bound = tree.id_bound();
    let err = |detail: String| Err(StateError { detail });
    if col.cells > bound {
        return err(format!(
            "column ({tau}, {field}) spans {} cells but the tree's id bound is {bound}",
            col.cells
        ));
    }
    if col.rows.len() != slots.len() {
        return err(format!(
            "column ({tau}, {field}) holds {} rows but the tree has {} {tau} slots",
            col.rows.len(),
            slots.len()
        ));
    }
    for (&x, cell) in slots.iter().zip(&col.rows) {
        let cell = cell.members();
        if cell.is_empty() {
            continue;
        }
        if let Some(sym) = cell.iter().find(|s| s.index() >= nsym) {
            return err(format!(
                "column ({tau}, {field}) cell n{x} references symbol {} of an \
                 intern pool holding {nsym}",
                sym.index()
            ));
        }
        if !tree.is_alive(nid(x)) {
            return err(format!(
                "column ({tau}, {field}) has a value at dead vertex n{x}"
            ));
        }
        if x as usize >= col.cells {
            return err(format!(
                "column ({tau}, {field}) has a value at n{x}, past its {} cells",
                col.cells
            ));
        }
    }
    Ok(())
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

/// Groups a column's rows (row `r` is slot `slots[r]`'s cell) into its
/// reverse occurrence index: one counting sort over the ascending
/// `(value, vertex)` pairs, then each run into `one` or `many`, both maps
/// sized from the runs. Independent across columns, so bulk init fans it
/// out over the validator's thread budget.
fn build_occ<T: Cell>(slots: &[u32], rows: &[T], sym_count: usize) -> Occ {
    let mut pairs: Vec<(Sym, u32)> =
        Vec::with_capacity(rows.iter().map(|r| r.members().len()).sum());
    for (&x, row) in slots.iter().zip(rows) {
        pairs.extend(row.members().iter().map(|&m| (m, x)));
    }
    let sorted = counting_sort_by_sym(&pairs, sym_count);
    drop(pairs);
    let (mut ones, mut shared) = (0, 0);
    for_each_sym_run(&sorted, |_, run| match run {
        [_] => ones += 1,
        _ => shared += 1,
    });
    let mut occ = Occ {
        one: FastHashMap::with_capacity_and_hasher(ones, Default::default()),
        many: FastHashMap::with_capacity_and_hasher(shared, Default::default()),
    };
    for_each_sym_run(&sorted, |sym, run| {
        if let [(_, x)] = run {
            occ.one.insert(sym, *x);
            return;
        }
        let mut list: Vec<u32> = run.iter().map(|&(_, x)| x).collect();
        // A row repeats no member, but a stored one is not trusted to.
        list.dedup();
        match list[..] {
            [x] => {
                occ.one.insert(sym, x);
            }
            _ => {
                occ.many.insert(sym, list);
            }
        }
    });
    occ
}

/// Turns one kind's columns (plan order, `keys[c].0` the element type of
/// column `c`) into live columns: each learns its type's rank and gets its
/// occurrence index. The indexes are independent, so they fan out over the
/// same thread budget the one-shot engine's check phase uses.
fn live_columns<K: Sync, T: Cell + Send + Sync>(
    v: &Validator<'_>,
    threads: usize,
    keys: &[(Name, K)],
    cols: Vec<ColumnRows<T>>,
    rows: &RowMap,
    nsym: usize,
) -> Vec<Col<T>> {
    let items: Vec<_> = (keys.iter())
        .map(|(tau, _)| v.plan.taus[tau].rank)
        .zip(cols)
        .collect();
    crate::par::fan_out(threads, items, &v.obs, "init.col", |(t, vals)| Col {
        occ: build_occ(&rows.slots[t], &vals.rows, nsym),
        t,
        vals,
    })
}

/// What every part reads while it processes a change: the store, the
/// tree's value pool and the ID table.
#[derive(Clone, Copy)]
struct Shared<'a> {
    store: &'a Store,
    pool: &'a Interner,
    ids: &'a IdTable,
}

/// Shared mutable context for one part while it processes one change:
/// read access to the store and ID table, write access to the part's
/// violation table, all writes funneled through the diff accumulator.
struct Ctx<'a> {
    store: &'a Store,
    /// The tree's value pool, which violations resolve symbols through.
    pool: &'a Interner,
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

/// The live form of one [`Check`](crate::plan::Check) of the plan: the check, its incremental
/// state, and its current violations. Parts are the plan's checks in
/// order, one each, so concatenating all parts' tables reproduces the
/// Σ-order report.
///
/// A part reads its columns by the ids its check carries: single-valued
/// ids index `Store::singles`, set-valued ids `Store::sets`. The check's
/// element types match vertex events by label.
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
    fn new(name: String, kind: PartKind) -> Self {
        Part {
            name,
            entries: BTreeMap::new(),
            kind,
        }
    }

    fn apply(&mut self, change: &Change, cx: Shared<'_>, pi: u32, acc: &mut DiffAcc) {
        let Shared { store, pool, ids } = cx;
        let mut cx = Ctx {
            store,
            pool,
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

    fn init(&mut self, idx: &Extents, cx: Shared<'_>, pi: u32) {
        let Shared { store, pool, ids } = cx;
        let mut cx = Ctx {
            store,
            pool,
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
/// `Col::occ` directly and retracted values ride in on the change.
/// Init therefore walks only the index's shared values instead of a
/// per-vertex copy of the column into tuple tables, and stays allocation-
/// free on documents whose keys actually hold.
struct KeyUnaryPart {
    c: KeyUnary,
}

impl KeyUnaryPart {
    /// Recomputes every current holder's entry for one value group (see
    /// [`KeyPart::refresh_group`] for the emission-order contract).
    fn refresh_group(&self, v: Sym, cx: &mut Ctx) {
        let store = cx.store;
        let Some((&first, rest)) = store.singles[self.c.col].occ.holders(v).split_first() else {
            return;
        };
        cx.set((first, 0, 0, 0), None);
        if rest.is_empty() {
            return;
        }
        let value = cx.pool.resolve(v).to_string();
        for &h in rest {
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
                col,
                node,
                old,
                new,
            } if *col == self.c.col => {
                cx.set((*node, 0, 0, 0), None);
                if let Some(o) = *old {
                    self.refresh_group(o, cx);
                }
                if let Some(n) = *new {
                    self.refresh_group(n, cx);
                }
            }
            Change::NodeAdded { tau, node } if *tau == self.c.tau => {
                if let Some(v) = cx.store.single(self.c.col, *node) {
                    self.refresh_group(v, cx);
                }
            }
            Change::NodeRemoved { tau, node, singles } if *tau == self.c.tau => {
                cx.set((*node, 0, 0, 0), None);
                if let Some(v) = snapshot_single(singles, self.c.col) {
                    self.refresh_group(v, cx);
                }
            }
            _ => {}
        }
    }

    fn init(&mut self, _idx: &Extents, cx: &mut Ctx) {
        // Group iteration order is irrelevant: groups write disjoint
        // entry slots of a `BTreeMap`, and init carries no diff.
        let store = cx.store;
        for &v in store.singles[self.c.col].occ.many.keys() {
            self.refresh_group(v, cx);
        }
    }
}

/// A key constraint over two or more fields (a one-field key is a
/// [`KeyUnaryPart`]): within `ext(τ)`, no two vertices with complete field
/// tuples agree. Entries are keyed `(x, 0, 0, 0)` at the *later* witness:
/// the sequential first-seen scan emits one violation per non-first holder,
/// in extent order, against the group's minimum vertex.
struct KeyPart {
    c: Key,
    /// Vertex ↦ its complete tuple (absent while any field is undefined).
    tuples: FastHashMap<u32, Vec<Sym>>,
    /// Tuple ↦ holders, ascending (first = the group's witness `a`).
    occ: FastHashMap<Vec<Sym>, BTreeSet<u32>>,
}

impl KeyPart {
    fn update_node(&mut self, x: u32, cx: &mut Ctx, removed: bool) {
        let new = if removed {
            None
        } else {
            cx.store.tuple(&self.c.cols, x)
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
        let value = join(cx.pool, t);
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
            Change::Single { col, node, .. } if self.c.cols.contains(col) => {
                self.update_node(*node, cx, false);
            }
            Change::NodeAdded { tau, node } if *tau == self.c.tau => {
                self.update_node(*node, cx, false);
            }
            Change::NodeRemoved { tau, node, .. } if *tau == self.c.tau => {
                self.update_node(*node, cx, true);
            }
            _ => {}
        }
    }

    fn init(&mut self, idx: &Extents, cx: &mut Ctx) {
        let ext = idx.ext(&self.c.tau);
        self.tuples.reserve(ext.size_hint().1.unwrap_or(0));
        for x in ext {
            if let Some(t) = cx.store.tuple(&self.c.cols, x) {
                self.occ.entry(t.clone()).or_default().insert(x);
                self.tuples.insert(x, t);
            }
        }
        let groups: Vec<Vec<Sym>> = self
            .occ
            .iter()
            .filter(|(_, h)| h.len() > 1)
            .map(|(t, _)| t.clone())
            .collect();
        for t in groups {
            self.refresh_group(&t, cx);
        }
    }
}

/// A unary foreign key over single-valued columns (`ForeignKey` with one
/// field, and `FkToId`). Entries are keyed `(x, 0, 0, 0)`: the sequential
/// scan emits at most one violation per referencing vertex, in extent
/// order. A value is a target value while the target column's occurrence
/// index holds it; without a target column no value is.
struct FkSinglePart {
    c: FkSingle,
}

impl FkSinglePart {
    fn refresh_source(&self, x: u32, cx: &mut Ctx) {
        let entry = match cx.store.single(self.c.col, x) {
            None => (self.c.missing.as_ref()).map(|mf| Violation::MissingField {
                constraint: cx.cname(),
                node: nid(x),
                field: mf.clone(),
            }),
            Some(sym) if cx.store.is_value(self.c.target_col, sym) => None,
            Some(sym) => Some(Violation::ForeignKey {
                constraint: cx.cname(),
                node: nid(x),
                value: cx.pool.resolve(sym).to_string(),
            }),
        };
        cx.set((x, 0, 0, 0), entry);
    }

    /// Applies one target-column value change: re-derives every source
    /// holding the old or the new value against the post-write index.
    fn retarget(&self, old: Option<Sym>, new: Option<Sym>, cx: &mut Ctx) {
        if old == new {
            return;
        }
        let store = cx.store;
        for v in old.into_iter().chain(new) {
            for &x in store.singles[self.c.col].occ.holders(v) {
                self.refresh_source(x, cx);
            }
        }
    }

    fn apply(&mut self, change: &Change, cx: &mut Ctx) {
        // Target role: re-derive the sources of a changed target value.
        match (change, self.c.target_col) {
            (Change::Single { col, old, new, .. }, Some(tc)) if *col == tc => {
                self.retarget(*old, *new, cx);
            }
            (Change::NodeAdded { tau, node }, Some(tc)) if *tau == self.c.target => {
                let v = cx.store.single(tc, *node);
                self.retarget(None, v, cx);
            }
            (Change::NodeRemoved { tau, singles, .. }, Some(tc)) if *tau == self.c.target => {
                self.retarget(snapshot_single(singles, tc), None, cx);
            }
            _ => {}
        }
        // Source role: re-derive the edited vertex's own entry.
        match change {
            Change::Single { col, node, .. } if *col == self.c.col => {
                self.refresh_source(*node, cx);
            }
            Change::NodeAdded { tau, node } if *tau == self.c.tau => {
                self.refresh_source(*node, cx);
            }
            Change::NodeRemoved { tau, node, .. } if *tau == self.c.tau => {
                cx.set((*node, 0, 0, 0), None);
            }
            _ => {}
        }
    }

    fn init(&mut self, idx: &Extents, cx: &mut Ctx) {
        for x in idx.ext(&self.c.tau) {
            self.refresh_source(x, cx);
        }
    }
}

/// An n-ary foreign key: source tuples against refcounted target tuples.
struct FkNaryPart {
    c: FkNary,
    src_tuples: FastHashMap<u32, Vec<Sym>>,
    src_occ: FastHashMap<Vec<Sym>, BTreeSet<u32>>,
    tgt_tuples: FastHashMap<u32, Vec<Sym>>,
    tgt_counts: FastHashMap<Vec<Sym>, u32>,
}

impl FkNaryPart {
    fn refresh_source(&self, x: u32, cx: &mut Ctx) {
        let entry = match self.src_tuples.get(&x) {
            None => Some(Violation::MissingField {
                constraint: cx.cname(),
                node: nid(x),
                field: self.c.missing.clone(),
            }),
            Some(t) if self.tgt_counts.contains_key(t) => None,
            Some(t) => Some(Violation::ForeignKey {
                constraint: cx.cname(),
                node: nid(x),
                value: join(cx.pool, t),
            }),
        };
        cx.set((x, 0, 0, 0), entry);
    }

    fn update_source(&mut self, x: u32, cx: &mut Ctx, removed: bool) {
        let new = if removed {
            None
        } else {
            cx.store.tuple(&self.c.cols, x)
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
            cx.store.tuple(&self.c.target_cols, y)
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
            Change::Single { col, node, .. } => {
                if self.c.target_cols.contains(col) {
                    self.update_target(*node, cx, false);
                }
                if self.c.cols.contains(col) {
                    self.update_source(*node, cx, false);
                }
            }
            Change::NodeAdded { tau, node } => {
                if *tau == self.c.target {
                    self.update_target(*node, cx, false);
                }
                if *tau == self.c.tau {
                    self.update_source(*node, cx, false);
                }
            }
            Change::NodeRemoved { tau, node, .. } => {
                if *tau == self.c.target {
                    self.update_target(*node, cx, true);
                }
                if *tau == self.c.tau {
                    self.update_source(*node, cx, true);
                }
            }
            Change::Set { .. } => {}
        }
    }

    fn init(&mut self, idx: &Extents, cx: &mut Ctx) {
        let text = idx.ext(&self.c.target);
        self.tgt_tuples.reserve(text.size_hint().1.unwrap_or(0));
        for y in text {
            if let Some(t) = cx.store.tuple(&self.c.target_cols, y) {
                *self.tgt_counts.entry(t.clone()).or_insert(0) += 1;
                self.tgt_tuples.insert(y, t);
            }
        }
        let ext = idx.ext(&self.c.tau);
        self.src_tuples.reserve(ext.size_hint().1.unwrap_or(0));
        for x in ext {
            if let Some(t) = cx.store.tuple(&self.c.cols, x) {
                self.src_occ.entry(t.clone()).or_default().insert(x);
                self.src_tuples.insert(x, t);
            }
        }
        for x in idx.ext(&self.c.tau) {
            self.refresh_source(x, cx);
        }
    }
}

/// A set-valued foreign key (`SetForeignKey`, `SetFkToId`, and the
/// reference-typing passes of `InverseId`): every member of set-valued
/// column `col` must be in the target set. Entries are keyed
/// `(x, member index, 0, 0)`, matching the sequential per-vertex,
/// per-member scan order. Target presence is read from the target
/// column's occurrence index, as for [`FkSinglePart`].
struct SetFkPart {
    c: SetFk,
}

impl SetFkPart {
    fn refresh_source(&self, x: u32, cx: &mut Ctx) {
        cx.clear_node(x);
        let store = cx.store;
        for (i, &m) in store.members(self.c.col, x).iter().enumerate() {
            if !store.is_value(self.c.target_col, m) {
                cx.set(
                    (x, i as u32, 0, 0),
                    Some(Violation::ForeignKey {
                        constraint: cx.cname(),
                        node: nid(x),
                        value: cx.pool.resolve(m).to_string(),
                    }),
                );
            }
        }
    }

    /// See [`FkSinglePart::retarget`].
    fn retarget(&self, old: Option<Sym>, new: Option<Sym>, cx: &mut Ctx) {
        if old == new {
            return;
        }
        let store = cx.store;
        for v in old.into_iter().chain(new) {
            for &x in store.sets[self.c.col].occ.holders(v) {
                self.refresh_source(x, cx);
            }
        }
    }

    fn apply(&mut self, change: &Change, cx: &mut Ctx) {
        // Target role.
        match (change, self.c.target_col) {
            (Change::Single { col, old, new, .. }, Some(tc)) if *col == tc => {
                self.retarget(*old, *new, cx);
            }
            (Change::NodeAdded { tau, node }, Some(tc)) if *tau == self.c.target => {
                let v = cx.store.single(tc, *node);
                self.retarget(None, v, cx);
            }
            (Change::NodeRemoved { tau, singles, .. }, Some(tc)) if *tau == self.c.target => {
                self.retarget(snapshot_single(singles, tc), None, cx);
            }
            _ => {}
        }
        // Source role.
        match change {
            Change::Set { col, node } if *col == self.c.col => {
                self.refresh_source(*node, cx);
            }
            Change::NodeAdded { tau, node } if *tau == self.c.tau => {
                self.refresh_source(*node, cx);
            }
            Change::NodeRemoved { tau, node, .. } if *tau == self.c.tau => {
                cx.clear_node(*node);
            }
            _ => {}
        }
    }

    fn init(&mut self, idx: &Extents, cx: &mut Ctx) {
        for x in idx.ext(&self.c.tau) {
            self.refresh_source(x, cx);
        }
    }
}

/// An `L_id` ID constraint on one element type: every `ext(τ)` vertex needs
/// a defined ID that no other vertex in the document carries. Entries are
/// keyed `(x, 0, 0, 0)` for `MissingField` and `(x, rank(y), y, 0)` per
/// duplicate carrier `y` — the carrier set's `(rank, vertex)` order is the
/// sequential global-ID-table order.
struct IdPart {
    c: IdCheck,
}

impl IdPart {
    fn refresh_entity(&self, x: u32, cx: &mut Ctx) {
        cx.clear_node(x);
        let store = cx.store;
        match store.single(self.c.col, x) {
            None => cx.set(
                (x, 0, 0, 0),
                Some(Violation::MissingField {
                    constraint: cx.cname(),
                    node: nid(x),
                    field: self.c.missing.clone(),
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
                                value: cx.pool.resolve(v).to_string(),
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
        for &x in store.singles[self.c.col].occ.holders(v) {
            self.refresh_entity(x, cx);
        }
    }

    fn apply(&mut self, change: &Change, cx: &mut Ctx) {
        match change {
            Change::Single {
                col,
                node,
                old,
                new,
            } => {
                // A carrier change anywhere (any type's ID column) shifts
                // the duplicate lists of this type's holders of the value.
                if cx.ids.is_id_col(*col) {
                    for v in old.iter().chain(new.iter()).copied() {
                        self.refresh_holders(v, cx);
                    }
                }
                if *col == self.c.col {
                    self.refresh_entity(*node, cx);
                }
            }
            Change::NodeAdded { tau, node } => {
                if let Some(&c) = cx.ids.col_of.get(tau) {
                    if let Some(v) = cx.store.single(c, *node) {
                        self.refresh_holders(v, cx);
                    }
                }
                if *tau == self.c.tau {
                    self.refresh_entity(*node, cx);
                }
            }
            Change::NodeRemoved { tau, node, singles } => {
                if let Some(&c) = cx.ids.col_of.get(tau) {
                    if let Some(v) = snapshot_single(singles, c) {
                        self.refresh_holders(v, cx);
                    }
                }
                if *tau == self.c.tau {
                    cx.clear_node(*node);
                }
            }
            Change::Set { .. } => {}
        }
    }

    fn init(&mut self, idx: &Extents, cx: &mut Ctx) {
        for x in idx.ext(&self.c.tau) {
            self.refresh_entity(x, cx);
        }
    }
}

/// One direction of an inverse constraint: for every `y ∈ ext(τ')` with a
/// defined key, each member `m` of `y.attr'` and each `x ∈ ext(τ)` with
/// `x.key = m` must have `y.key' ∈ x.attr`. Entries are keyed
/// `(y, member index, x, 0)` — the sequential scan's loop nesting order.
struct InversePart {
    c: Inverse,
}

impl InversePart {
    fn refresh_y(&self, y: u32, cx: &mut Ctx) {
        cx.clear_node(y);
        let store = cx.store;
        let Some(yk) = store.single(self.c.target_key, y) else {
            return;
        };
        for (i, &m) in store.members(self.c.target_attr, y).iter().enumerate() {
            for &x in store.singles[self.c.key].occ.holders(m) {
                if !store.members(self.c.attr, x).contains(&yk) {
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

    /// The `ext(τ')` vertices referencing key value `v`.
    fn referrers(&self, store: &Store, v: Sym, ys: &mut BTreeSet<u32>) {
        ys.extend(store.sets[self.c.target_attr].occ.holders(v));
    }

    fn apply(&mut self, change: &Change, cx: &mut Ctx) {
        let mut ys: BTreeSet<u32> = BTreeSet::new();
        let store = cx.store;
        match change {
            Change::Single {
                col,
                node,
                old,
                new,
            } => {
                if *col == self.c.target_key {
                    ys.insert(*node);
                }
                if *col == self.c.key {
                    for v in old.iter().chain(new.iter()).copied() {
                        self.referrers(store, v, &mut ys);
                    }
                }
            }
            Change::Set { col, node } => {
                if *col == self.c.target_attr {
                    ys.insert(*node);
                }
                if *col == self.c.attr {
                    if let Some(xk) = store.single(self.c.key, *node) {
                        self.referrers(store, xk, &mut ys);
                    }
                }
            }
            Change::NodeAdded { tau, node } => {
                if *tau == self.c.target {
                    ys.insert(*node);
                }
                if *tau == self.c.tau {
                    if let Some(xk) = store.single(self.c.key, *node) {
                        self.referrers(store, xk, &mut ys);
                    }
                }
            }
            Change::NodeRemoved { tau, node, singles } => {
                if *tau == self.c.target {
                    cx.clear_node(*node);
                }
                if *tau == self.c.tau {
                    if let Some(xk) = snapshot_single(singles, self.c.key) {
                        self.referrers(store, xk, &mut ys);
                    }
                }
            }
        }
        for y in ys {
            self.refresh_y(y, cx);
        }
    }

    fn init(&mut self, idx: &Extents, cx: &mut Ctx) {
        for y in idx.ext(&self.c.target) {
            self.refresh_y(y, cx);
        }
    }
}

/// One part per check of the plan, in order, each with empty state.
fn build_parts(dtdc: &DtdC, plan: &Plan) -> Vec<Part> {
    let sigma = dtdc.constraints();
    let parts = plan.checks.iter().map(|check| {
        let kind = match &check.kind {
            CheckKind::KeyUnary(c) => PartKind::KeyUnary(KeyUnaryPart { c: c.clone() }),
            CheckKind::Key(c) => PartKind::Key(KeyPart {
                c: c.clone(),
                tuples: FastHashMap::default(),
                occ: FastHashMap::default(),
            }),
            CheckKind::FkSingle(c) => PartKind::FkSingle(FkSinglePart { c: c.clone() }),
            CheckKind::FkNary(c) => PartKind::FkNary(FkNaryPart {
                c: c.clone(),
                src_tuples: FastHashMap::default(),
                src_occ: FastHashMap::default(),
                tgt_tuples: FastHashMap::default(),
                tgt_counts: FastHashMap::default(),
            }),
            CheckKind::SetFk(c) => PartKind::SetFk(SetFkPart { c: c.clone() }),
            CheckKind::Id(c) => PartKind::Id(IdPart { c: c.clone() }),
            CheckKind::Inverse(c) => PartKind::Inverse(InversePart { c: c.clone() }),
        };
        Part::new(sigma[check.sigma].to_string(), kind)
    });
    parts.collect()
}

/// Per-column part subscriptions for the batch path, built once at
/// construction over the plan's column ids.
///
/// A batch dispatches thousands of cell deltas, so each goes only to the
/// parts whose check reads its column ([`Check::columns`](crate::plan::Check::columns)). That is
/// behavior-preserving: a part's `apply` ignores every cell delta of any
/// other column. Vertex announcements (`NodeAdded`/`NodeRemoved`) still
/// reach every part.
struct Subs {
    /// Column id ↦ subscribed part indices, ascending and deduped.
    parts_of: Vec<Vec<u32>>,
}

impl Subs {
    fn build(plan: &Plan) -> Self {
        let mut parts_of = vec![Vec::new(); plan.column_count()];
        // Parts (the plan's checks) are visited in ascending order, so each
        // list is ascending and a part listing a column twice pushes it
        // twice in a row.
        for (pi, check) in (0u32..).zip(&plan.checks) {
            for c in check.columns(plan) {
                parts_of[c].push(pi);
            }
        }
        for l in &mut parts_of {
            l.dedup();
        }
        Subs { parts_of }
    }
}

/// One request in a [`LiveValidator::apply_batch`] batch.
///
/// Unlike [`Edit`] — which records what a mutation *did* (displaced
/// values, assigned ids) — a `BatchEdit` describes what *to do*, so a
/// subtree insertion carries its fragment.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)] // a tree with its pool; batches are short-lived
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
/// field)` key plus the column's rows.
pub type SingleColumnState = ((Name, Field), ColumnRows<Option<Sym>>);

/// One set-valued column of a [`LiveState`]: the `(element type,
/// attribute)` key plus the column's rows of members.
pub type SetColumnState = ((Name, Name), ColumnRows<Vec<Sym>>);

/// One single-valued column of a [`LiveStateRef`]: a borrowed
/// [`SingleColumnState`].
pub type SingleColumnRef<'a> = (&'a (Name, Field), &'a ColumnRows<Option<Sym>>);

/// One set-valued column of a [`LiveStateRef`]: a borrowed
/// [`SetColumnState`].
pub type SetColumnRef<'a> = (&'a (Name, Name), &'a ColumnRows<Vec<Sym>>);

/// A serialisable snapshot of a [`LiveValidator`]'s owned state.
///
/// The state captures exactly what a warm start cannot cheaply recompute:
/// the document tree (with its value pool, whose symbols the columns
/// hold), every planned column's rows ([`ColumnRows`]), and the
/// structural violation table (the output of the content-model scan).
/// Everything else — occurrence maps, the ID table, per-constraint
/// violation tables, subscription indexes, and the root-label check — is
/// re-derived deterministically by
/// [`LiveValidator::from_state`], so a report after a round trip is
/// byte-identical to scratch validation of the same tree.
///
/// Fields are public so an external codec (the `xic-storage` crate) can
/// build the state it decodes without this crate taking on any I/O
/// concerns; encoders read the borrowed [`LiveStateRef`] instead.
#[derive(Clone, Debug)]
pub struct LiveState {
    /// The document, whose pool ([`DataTree::pool`]) the columns' symbols
    /// belong to.
    pub tree: DataTree,
    /// Every planned single-valued column's rows, ascending by `(element
    /// type, field)` key.
    pub singles: Vec<SingleColumnState>,
    /// Every planned set-valued column's rows, ascending by `(element
    /// type, attribute)` key.
    pub sets: Vec<SetColumnState>,
    /// Vertex ↦ its structural violations, ascending by vertex.
    pub struct_viols: Vec<(u32, Vec<Violation>)>,
}

impl LiveState {
    /// Borrows the state as a [`LiveStateRef`], the shape snapshot
    /// encoders read.
    pub fn view(&self) -> LiveStateRef<'_> {
        LiveStateRef {
            tree: &self.tree,
            singles: self.singles.iter().map(|(k, v)| (k, v)).collect(),
            sets: self.sets.iter().map(|(k, v)| (k, v)).collect(),
            struct_viols: self
                .struct_viols
                .iter()
                .map(|(x, vs)| (*x, vs.as_slice()))
                .collect(),
        }
    }
}

/// A borrowed view of the state a [`LiveState`] owns: the same fields in
/// the same order, each a reference into a [`LiveValidator`] or a
/// [`LiveState`].
///
/// This is what gets persisted. A snapshot encoder reads the view, so it
/// can write a live validator's state without first copying the document
/// and its columns into a [`LiveState`]; [`LiveStateRef::into_owned`] is
/// that copy, for callers that do need one
/// ([`LiveValidator::export_state`]).
#[derive(Debug)]
pub struct LiveStateRef<'a> {
    /// The document, whose pool the columns' symbols belong to.
    pub tree: &'a DataTree,
    /// Every planned single-valued column, ascending by `(element type,
    /// field)` key.
    pub singles: Vec<SingleColumnRef<'a>>,
    /// Every planned set-valued column, ascending by `(element type,
    /// attribute)` key.
    pub sets: Vec<SetColumnRef<'a>>,
    /// Vertex ↦ its structural violations, ascending by vertex.
    pub struct_viols: Vec<(u32, &'a [Violation])>,
}

impl LiveStateRef<'_> {
    /// Copies the viewed state into an owned [`LiveState`].
    pub fn into_owned(self) -> LiveState {
        LiveState {
            tree: self.tree.clone(),
            singles: (self.singles.into_iter())
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            sets: (self.sets.into_iter())
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            struct_viols: self
                .struct_viols
                .into_iter()
                .map(|(x, vs)| (x, vs.to_vec()))
                .collect(),
        }
    }
}

impl<'a> From<&'a LiveState> for LiveStateRef<'a> {
    fn from(state: &'a LiveState) -> Self {
        state.view()
    }
}

impl<'a> From<&'a LiveValidator<'_, '_>> for LiveStateRef<'a> {
    fn from(live: &'a LiveValidator<'_, '_>) -> Self {
        live.state_view()
    }
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
    /// each planned cell is extracted exactly once into its column's row,
    /// and the content-model scan runs once per vertex;
    /// [`LiveValidator::from_state`] shares everything after that (see
    /// `assemble`).
    pub fn new(v: &'v Validator<'d>, mut tree: DataTree) -> Self {
        let _init = v.obs.span("live.init");
        let plan = &v.plan;
        let threads = init_threads(v, &tree);
        let bound = tree.id_bound();
        let rows = RowMap::build(plan, &tree);
        let rows_of = |tau: &Name| rows.slots[plan.taus[tau].rank].len();

        // Extraction copies the tree's symbols into the rows: one extent
        // walk per τ fills every single-valued column of τ (the vertex's
        // node record and attribute slots stay hot across fields), then
        // each set-valued column in plan order. Only a sub-element text
        // other than one text child interns anything.
        let mut singles: Vec<ColumnRows<Option<Sym>>> = (plan.singles.iter())
            .map(|(tau, _)| ColumnRows {
                rows: vec![None; rows_of(tau)],
                cells: bound,
            })
            .collect();
        for tp in plan.taus.values() {
            for (r, &x) in rows.slots[tp.rank].iter().enumerate() {
                if !tree.is_alive(nid(x)) {
                    continue;
                }
                for (field, c) in &tp.singles {
                    singles[*c].rows[r] = live_single(&mut tree, nid(x), field);
                }
            }
        }
        let mut sets: Vec<ColumnRows<Vec<Sym>>> = (plan.sets.iter())
            .map(|(tau, _)| ColumnRows {
                rows: vec![Vec::new(); rows_of(tau)],
                cells: bound,
            })
            .collect();
        let live = |x: &u32| tree.is_alive(nid(*x));
        for ((tau, attr), col) in plan.sets.iter().zip(&mut sets) {
            let ext = rows.slots[plan.taus[tau].rank].iter().enumerate();
            for (r, x) in ext.filter(|(_, x)| live(x)) {
                col.rows[r] = cell_set(&tree, nid(*x), attr).collect();
            }
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
        let struct_viols = chunks.into_iter().flatten().collect();

        Self::assemble(v, tree, rows, singles, sets, struct_viols)
    }

    /// Rebuilds a live validator from an exported [`LiveState`] without
    /// re-parsing, re-extracting, or re-running the content-model scan.
    ///
    /// The expensive phases of [`LiveValidator::new`] — per-cell
    /// extraction and the structural DFA scan — are replaced
    /// by the snapshot's stored columns and violation table; the derived
    /// indexes (occurrence maps, the ID table, per-constraint tables,
    /// subscriptions) are then built by the same assembly `new` ends in.
    /// The resulting validator's [`report`](LiveValidator::report) is
    /// byte-identical to scratch validation of `state.tree`.
    ///
    /// # Errors
    ///
    /// Returns [`StateError`] — never panics — when the state is
    /// internally inconsistent or does not match `v`'s constraint plan:
    /// columns other than the plan's (in the plan's order), a column whose
    /// rows do not match its type's slots in the tree, symbols outside the
    /// tree's pool, or cell counts past the tree's id bound. A column may
    /// hold values only at live vertices below its cell count.
    pub fn from_state(v: &'v Validator<'d>, state: LiveState) -> Result<Self, StateError> {
        let _warm = v.obs.span("live.warm");
        let plan = &v.plan;
        let LiveState {
            tree,
            singles,
            sets,
            struct_viols,
        } = state;

        let nsym = tree.pool().len();
        let bound = tree.id_bound();

        // The snapshot must hold exactly the plan's columns: a missing
        // column would panic on first read, and an extra one means the
        // snapshot was taken under a different schema or constraint set.
        if !singles.iter().map(|(k, _)| k).eq(&plan.singles) {
            return Err(StateError {
                detail: format!(
                    "single columns do not match the constraint plan \
                     ({} stored, {} planned)",
                    singles.len(),
                    plan.singles.len()
                ),
            });
        }
        if !sets.iter().map(|(k, _)| k).eq(&plan.sets) {
            return Err(StateError {
                detail: format!(
                    "set columns do not match the constraint plan \
                     ({} stored, {} planned)",
                    sets.len(),
                    plan.sets.len()
                ),
            });
        }

        let rows = RowMap::build(plan, &tree);
        let slots_of = |tau: &Name| &rows.slots[plan.taus[tau].rank][..];
        for ((tau, f), col) in &singles {
            check_rows(&tree, slots_of(tau), nsym, tau, &f, col)?;
        }
        for ((tau, a), col) in &sets {
            check_rows(&tree, slots_of(tau), nsym, tau, &a, col)?;
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

        Ok(Self::assemble(
            v,
            tree,
            rows,
            singles.into_iter().map(|(_, col)| col).collect(),
            sets.into_iter().map(|(_, col)| col).collect(),
            struct_viols.into_iter().collect(),
        ))
    }

    /// The shared tail of [`LiveValidator::new`] and
    /// [`LiveValidator::from_state`]: from the document (with its pool) and
    /// row map, its columns' rows in plan order, and its structural table,
    /// derives everything else — occurrence maps, the ID
    /// table, the root check, the per-constraint tables and the
    /// subscription index — in one deterministic order, so both
    /// constructors build the same validator from the same cells.
    fn assemble(
        v: &'v Validator<'d>,
        tree: DataTree,
        rows: RowMap,
        singles: Vec<ColumnRows<Option<Sym>>>,
        sets: Vec<ColumnRows<Vec<Sym>>>,
        struct_viols: BTreeMap<u32, Vec<Violation>>,
    ) -> Self {
        let s = v.dtdc().structure();
        let plan = &v.plan;
        let threads = init_threads(v, &tree);
        let nsym = tree.pool().len();
        let store = Store {
            singles: live_columns(v, threads, &plan.singles, singles, &rows, nsym),
            sets: live_columns(v, threads, &plan.sets, sets, &rows, nsym),
            rows,
        };
        let idx = Extents {
            plan,
            tree: &tree,
            rows: &store.rows,
        };
        let mut ids = IdTable {
            rank_of: vec![None; plan.singles.len()],
            ..IdTable::default()
        };
        for (rank, (tau, c)) in (0u32..).zip(&plan.id_cols) {
            for xi in idx.ext(tau) {
                if let Some(val) = store.single(*c, xi) {
                    ids.carriers.entry(val).or_default().insert((rank, xi));
                }
            }
            ids.col_of.insert(tau.clone(), *c);
            ids.rank_of[*c] = Some(rank);
        }

        // The root check is two label compares — recomputing it beats
        // trusting (and having to re-verify) a stored copy.
        let root_label = tree.label(tree.root());
        let root_viol = (root_label != s.root()).then(|| Violation::RootLabel {
            expected: s.root().clone(),
            found: root_label.clone(),
        });

        let mut parts = build_parts(v.dtdc(), plan);
        let items: Vec<(u32, &mut Part)> = (0u32..).zip(parts.iter_mut()).collect();
        let shared = Shared {
            store: &store,
            pool: tree.pool(),
            ids: &ids,
        };
        crate::par::fan_out(threads, items, &v.obs, "init.part", |(pi, p)| {
            p.init(&idx, shared, pi);
        });
        let subs = Subs::build(plan);

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

    /// Borrows the validator's persistable state, without copying it.
    ///
    /// The view is deterministic (columns and violation entries come out
    /// in ascending key order) and self-contained: turned into a
    /// [`LiveState`] and fed back through [`LiveValidator::from_state`] —
    /// on this validator or a freshly built one over the same schema — it
    /// reproduces a validator whose report and future edit behaviour are
    /// identical.
    pub fn state_view(&self) -> LiveStateRef<'_> {
        let plan = &self.v.plan;
        LiveStateRef {
            tree: &self.tree,
            singles: (plan.singles.iter())
                .zip(&self.store.singles)
                .map(|(k, col)| (k, &col.vals))
                .collect(),
            sets: (plan.sets.iter())
                .zip(&self.store.sets)
                .map(|(k, col)| (k, &col.vals))
                .collect(),
            struct_viols: self
                .struct_viols
                .iter()
                .map(|(x, vs)| (*x, vs.as_slice()))
                .collect(),
        }
    }

    /// Exports the validator's owned state: [`LiveValidator::state_view`]
    /// copied into a [`LiveState`]. Snapshot writers take the view
    /// directly and need no copy.
    pub fn export_state(&self) -> LiveState {
        let _span = self.v.obs.span("live.export");
        self.state_view().into_owned()
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
        let plan = &self.v.plan;
        let tau = self.tree.label(node);
        let xi = node.index() as u32;
        if let Some(c) = plan.single_col(tau, &Field::Attr(l.clone())) {
            st.touched.push((c as u32, xi));
        }
        if let Some(c) = plan.set_col(tau, l) {
            st.touched.push((plan.set_id(c) as u32, xi));
        }
    }

    /// Records the parent-side `Sub(e)` cell a child-word change can feed.
    fn touch_sub_cell(&self, parent: NodeId, e: &Name, st: &mut BatchState) {
        let ptau = self.tree.label(parent);
        if let Some(c) = self.v.plan.single_col(ptau, &Field::Sub(e.clone())) {
            st.touched.push((c as u32, parent.index() as u32));
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
                // The text-child count of a live vertex is batch-invariant
                // (no edit adds or removes text children), so a slot valid
                // now is valid at flush.
                let children = self.tree.children(*node);
                let texts = children.iter().filter(|c| c.as_text().is_some()).count();
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
                    if let Some(p) = self.tree.node(*node).parent() {
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
                    stack.extend(self.tree.child_nodes(x));
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

        // 0. Every slot this batch added to the arena gets its rows, dead
        // or alive, so the row map covers the id bound again.
        {
            let Self { v, tree, store, .. } = &mut *self;
            for xi in pre_bound..tree.id_bound() as u32 {
                store.push_slot(&v.plan, tree.label(nid(xi)), xi);
            }
        }

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
                    let was_single = self.tree.attr(x, &l).map(|o| o.is_singleton());
                    let reshaped = was_single != Some(value.is_singleton());
                    self.tree
                        .set_attr(x, l, value)
                        .expect("liveness checked above");
                    reshaped
                }
                None => self
                    .tree
                    .remove_attr(x, &l)
                    .expect("liveness checked above"),
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
                .set_text(x, index, text)
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
        let plan = &self.v.plan;
        let mut i = 0;
        while i < touched.len() {
            let col = touched[i].0;
            let mut j = i;
            match (col as usize).checked_sub(plan.singles.len()) {
                None => {
                    let field = &plan.singles[col as usize].1;
                    let mut changes: Vec<(u32, Option<Sym>, Option<Sym>)> = Vec::new();
                    {
                        let Self { tree, store, .. } = &mut *self;
                        while j < touched.len() && touched[j].0 == col {
                            let xi = touched[j].1;
                            j += 1;
                            if xi >= pre_bound || !tree.is_alive(nid(xi)) {
                                continue;
                            }
                            let new = live_single(tree, nid(xi), field);
                            let old = store.singles[col as usize].write(&store.rows, xi, new);
                            if old != new {
                                changes.push((xi, old, new));
                            }
                        }
                    }
                    for (node, old, new) in changes {
                        let change = Change::Single {
                            col: col as usize,
                            node,
                            old,
                            new,
                        };
                        self.dispatch_to(col, change, &mut acc);
                    }
                }
                Some(c) => {
                    let attr = &plan.sets[c].1;
                    let mut changes: Vec<u32> = Vec::new();
                    {
                        let Self { tree, store, .. } = &mut *self;
                        while j < touched.len() && touched[j].0 == col {
                            let xi = touched[j].1;
                            j += 1;
                            if xi >= pre_bound || !tree.is_alive(nid(xi)) {
                                continue;
                            }
                            let new: Vec<Sym> = cell_set(tree, nid(xi), attr).collect();
                            let old = store.sets[c].write(&store.rows, xi, new.clone());
                            if old != new {
                                changes.push(xi);
                            }
                        }
                    }
                    for node in changes {
                        self.dispatch_to(col, Change::Set { col: c, node }, &mut acc);
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
            tree,
            parts,
            store,
            ids,
            subs,
            ..
        } = self;
        ids.apply(&change, store);
        let shared = Shared {
            store,
            pool: tree.pool(),
            ids,
        };
        for &pi in &subs.parts_of[col as usize] {
            parts[pi as usize].apply(&change, shared, pi, acc);
        }
    }

    /// Runs core ID-table maintenance, then every part, on one change.
    fn dispatch(&mut self, change: Change, acc: &mut DiffAcc) {
        let Self {
            tree,
            parts,
            store,
            ids,
            ..
        } = self;
        ids.apply(&change, store);
        let shared = Shared {
            store,
            pool: tree.pool(),
            ids,
        };
        for (pi, p) in parts.iter_mut().enumerate() {
            p.apply(&change, shared, pi as u32, acc);
        }
    }

    /// Fills a freshly inserted vertex's planned columns from the tree
    /// (no change dispatch — `NodeAdded` announces it afterwards).
    fn fill_node(&mut self, x: NodeId) {
        let v = self.v;
        let Some(tp) = v.plan.taus.get(self.tree.label(x)) else {
            return;
        };
        let xi = x.index() as u32;
        let Self { tree, store, .. } = self;
        for (f, c) in &tp.singles {
            let val = live_single(tree, x, f);
            store.singles[*c].write(&store.rows, xi, val);
        }
        for (a, c) in &tp.sets {
            let members = cell_set(tree, x, a).collect();
            store.sets[*c].write(&store.rows, xi, members);
        }
    }

    /// Retracts one removed vertex: snapshots and drops its store cells,
    /// announces `NodeRemoved`, clears its structural entry.
    fn remove_node(&mut self, x: NodeId, acc: &mut DiffAcc) {
        let v = self.v;
        let tau = self.tree.label(x).clone();
        let xi = x.index() as u32;
        let mut singles: Vec<(usize, Option<Sym>)> = Vec::new();
        if let Some(tp) = v.plan.taus.get(&tau) {
            for &(_, c) in &tp.singles {
                singles.push((c, self.store.singles[c].clear(&self.store.rows, xi)));
            }
            for (_, c) in &tp.sets {
                self.store.sets[*c].clear(&self.store.rows, xi);
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
    use proptest::prelude::*;
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
        assert_eq!(live.tree().text(title), "New Title");
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
        for (_, col) in &mut bad.singles {
            if let Some(cell) = col.rows.iter_mut().find(|c| c.is_some()) {
                *cell = Some(huge);
            }
        }
        let err = reject(&v, bad);
        assert!(err.detail.contains("intern pool"), "{err}");

        // A column spanning more cells than the tree's id bound.
        let mut bad = good.clone();
        bad.singles[0].1.cells = bad.tree.id_bound() + 5;
        let err = reject(&v, bad);
        assert!(err.detail.contains("id bound"), "{err}");

        // A column with a row more than its type has slots.
        let mut bad = good.clone();
        bad.singles[0].1.rows.push(None);
        let err = reject(&v, bad);
        assert!(err.detail.contains("slots"), "{err}");

        // A value at a vertex past the column's cell count.
        let mut bad = good.clone();
        bad.singles[0].1.cells = 0;
        let err = reject(&v, bad);
        assert!(err.detail.contains("past its 0 cells"), "{err}");

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

        // A value outside the column's extent has no row to sit in: the
        // snapshot decoder rejects it where the bytes arrive
        // (`crates/storage/tests/roundtrip.rs`).

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

        // The dead section keeps its row in every `section` column: its
        // rank among the `section` slots below it.
        let mut bad = live.export_state();
        let tree = &bad.tree;
        let row = (0..dead)
            .filter(|&i| tree.label(NodeId::from_index(i)) == "section")
            .count();
        let (_, col) = (bad.singles.iter_mut())
            .find(|((tau, _), _)| tau == "section")
            .expect("book's Σ keys sections");
        col.rows[row] = Some(Sym::from_index(0));
        let err = reject(&v, bad);
        assert!(err.detail.contains("dead vertex"), "{err}");
    }

    /// Values and vertices the split-index proptest draws from: few
    /// enough that values gain and lose holders often.
    const OCC_VALUES: u32 = 6;
    const OCC_VERTICES: u32 = 12;

    /// Checks the split index against its reference after one step.
    fn check_occ(occ: &Occ, want: &BTreeMap<Sym, BTreeSet<u32>>) -> Result<(), TestCaseError> {
        for (v, list) in &occ.many {
            prop_assert!(!occ.one.contains_key(v), "{v:?} is in both maps");
            prop_assert!(list.len() >= 2, "{v:?} has a shared list of {list:?}");
            prop_assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "{v:?}'s list {list:?} is not strictly ascending"
            );
        }
        for i in 0..OCC_VALUES {
            let v = Sym::from_index(i);
            let holders: Vec<u32> = want.get(&v).into_iter().flatten().copied().collect();
            prop_assert_eq!(occ.holders(v), &holders[..]);
            prop_assert_eq!(occ.contains(v), !holders.is_empty());
        }
        prop_assert_eq!(occ.one.len() + occ.many.len(), want.len());
        Ok(())
    }

    proptest! {
        /// Random `insert`/`remove` sequences on a column's split
        /// occurrence index agree, after every step, with a
        /// `BTreeMap<Sym, BTreeSet<u32>>` doing the same: holders ascend,
        /// a value sits in at most one map, and every shared list is
        /// sorted, deduplicated and at least two long. `build_occ` over
        /// the final state's rows agrees too.
        #[test]
        fn split_occurrence_index_matches_a_btree_reference(
            steps in prop::collection::vec(
                (any::<bool>(), 0..OCC_VALUES, 0..OCC_VERTICES),
                0..200,
            )
        ) {
            let mut occ = Occ::default();
            let mut want: BTreeMap<Sym, BTreeSet<u32>> = BTreeMap::new();
            for (insert, v, x) in steps {
                let v = Sym::from_index(v);
                if insert {
                    occ.insert(v, x);
                    want.entry(v).or_default().insert(x);
                } else {
                    occ.remove(v, x);
                    if let Some(set) = want.get_mut(&v) {
                        set.remove(&x);
                        if set.is_empty() {
                            want.remove(&v);
                        }
                    }
                }
                check_occ(&occ, &want)?;
            }
            // Bulk init builds the same index from the rows the final
            // state stands for: vertex `x`'s row holds the values it holds.
            let slots: Vec<u32> = (0..OCC_VERTICES).collect();
            let mut rows: Vec<Vec<Sym>> = vec![Vec::new(); OCC_VERTICES as usize];
            for (&v, holders) in &want {
                for &x in holders {
                    rows[x as usize].push(v);
                }
            }
            check_occ(&build_occ(&slots, &rows, OCC_VALUES as usize), &want)?;
        }
    }
}
