//! Property-based tests for the data-tree model: builder invariants,
//! traversal consistency, index agreement on arbitrary trees, and the
//! set semantics of attribute values.

use std::cmp::Ordering;
use std::hash::{DefaultHasher, Hash, Hasher};

use proptest::prelude::*;
use xic_model::{AttrValue, DataTree, ExtIndex, TreeBuilder};

/// A recipe for building an arbitrary tree: for each node after the root,
/// the parent index (within already-created nodes), a label index, and an
/// optional attribute/text payload.
#[derive(Debug, Clone)]
struct Recipe {
    nodes: Vec<(usize, u8, bool, bool)>, // (parent, label, has_attr, has_text)
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    prop::collection::vec((0usize..64, 0u8..5, any::<bool>(), any::<bool>()), 0..40)
        .prop_map(|nodes| Recipe { nodes })
}

fn build(recipe: &Recipe) -> DataTree {
    let labels = ["a", "b", "c", "d", "e"];
    let mut b = TreeBuilder::new();
    let root = b.node("root");
    let mut ids = vec![root];
    for (i, &(parent, label, has_attr, has_text)) in recipe.nodes.iter().enumerate() {
        let parent = ids[parent % ids.len()];
        let n = b.child_node(parent, labels[label as usize]).unwrap();
        if has_attr {
            b.attr(n, "x", AttrValue::single(format!("v{i}"))).unwrap();
        }
        if has_text {
            b.text(n, format!("t{i}")).unwrap();
        }
        ids.push(n);
    }
    b.finish(root).unwrap()
}

/// Member spellings for attribute-value lists: few, so lists repeat
/// members and collapse to one, and prefix-related, so order is decided
/// by length as well as by bytes.
const MEMBERS: [&str; 6] = ["", "a", "ab", "b", "ba", "c"];

fn members_strategy() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(0usize..MEMBERS.len(), 0..5)
        .prop_map(|ix| ix.into_iter().map(|i| MEMBERS[i].to_string()).collect())
}

fn hash_of<T: Hash + ?Sized>(x: &T) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// The value set a member list denotes: sorted, duplicates removed.
fn normalized(members: &[String]) -> Vec<String> {
    let mut v = members.to_vec();
    v.sort();
    v.dedup();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `AttrValue` compares, orders and hashes exactly as its sorted member
    /// slice, whichever representation (one inline member or a list) each
    /// side holds.
    #[test]
    fn attr_value_compares_and_hashes_as_its_members(a in members_strategy(), b in members_strategy()) {
        let (va, vb) = (AttrValue::set(a), AttrValue::set(b));
        prop_assert_eq!(va == vb, va.values() == vb.values());
        prop_assert_eq!(va.cmp(&vb), va.values().cmp(vb.values()));
        prop_assert_eq!(va.partial_cmp(&vb), Some(va.values().cmp(vb.values())));
        prop_assert_eq!(hash_of(&va), hash_of(va.values()));
        prop_assert_eq!(hash_of(&vb), hash_of(vb.values()));
    }

    /// The queries answer as on the sorted, deduplicated member list, on
    /// both representations; a one-member set is the singleton value.
    #[test]
    fn attr_value_queries_follow_the_member_set(a in members_strategy()) {
        let expect = normalized(&a);
        let v = AttrValue::set(a);
        prop_assert_eq!(v.values(), expect.as_slice());
        prop_assert_eq!(v.iter().collect::<Vec<_>>(), expect.iter().collect::<Vec<_>>());
        prop_assert_eq!(v.len(), expect.len());
        prop_assert_eq!(v.is_empty(), expect.is_empty());
        prop_assert_eq!(v.is_singleton(), expect.len() == 1);
        prop_assert_eq!(v.as_single(), (expect.len() == 1).then(|| &expect[0]));
        for m in MEMBERS {
            prop_assert_eq!(v.contains(m), expect.iter().any(|e| e == m));
        }
        if let [m] = expect.as_slice() {
            let single = AttrValue::single(m.clone());
            prop_assert_eq!(&v, &single);
            prop_assert_eq!(v.cmp(&single), Ordering::Equal);
            prop_assert_eq!(hash_of(&v), hash_of(&single));
            prop_assert_eq!(single.values(), expect.as_slice());
        }
    }

    #[test]
    fn preorder_visits_every_node_once(r in recipe_strategy()) {
        let t = build(&r);
        let visited: Vec<_> = t.preorder().collect();
        prop_assert_eq!(visited.len(), t.len());
        let mut sorted = visited.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), t.len());
        prop_assert_eq!(visited[0], t.root());
    }

    #[test]
    fn ext_index_agrees_with_scan(r in recipe_strategy()) {
        let t = build(&r);
        let idx = ExtIndex::build(&t);
        for tau in ["root", "a", "b", "c", "d", "e", "zzz"] {
            let scan: Vec<_> = t.ext(tau).collect();
            prop_assert_eq!(idx.ext(tau), scan.as_slice());
        }
    }

    #[test]
    fn depth_is_consistent_with_parent_links(r in recipe_strategy()) {
        let t = build(&r);
        for id in t.node_ids() {
            match t.node(id).parent() {
                None => prop_assert_eq!(t.depth(id), 0),
                Some(p) => prop_assert_eq!(t.depth(id), t.depth(p) + 1),
            }
        }
    }

    #[test]
    fn children_point_back_to_parent(r in recipe_strategy()) {
        let t = build(&r);
        for id in t.node_ids() {
            for c in t.child_nodes(id) {
                prop_assert_eq!(t.node(c).parent(), Some(id));
            }
        }
    }

    #[test]
    fn attr_values_round_trip(r in recipe_strategy()) {
        let t = build(&r);
        for (i, &(_, _, has_attr, _)) in r.nodes.iter().enumerate() {
            if has_attr {
                // Node i+1 (after root) carries attribute x = v{i}.
                let id = t.node_ids().nth(i + 1).unwrap();
                let expected = format!("v{i}");
                prop_assert_eq!(
                    t.attr(id, "x").and_then(|v| v.as_single()),
                    Some(expected.as_str())
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Edits against a `String`-based reference model.

use std::collections::BTreeMap;

use xic_model::{Child, NodeId, RawAttr, RawNode, RawTree, Sym};

/// The reference: one entry per arena slot, values as owned strings.
#[derive(Clone, Debug, Default)]
struct RefNode {
    label: String,
    children: Vec<RefChild>,
    attrs: BTreeMap<String, Vec<String>>,
    parent: Option<usize>,
    alive: bool,
}

#[derive(Clone, Debug)]
enum RefChild {
    Text(String),
    Node(usize),
}

/// Attribute names and member spellings the edits draw from. `fresh`
/// members are new to every tree the recipes build.
const NAMES: [&str; 4] = ["a", "b", "id", "z"];

fn member(i: u8) -> String {
    match i % 8 {
        0 => String::new(),
        k @ 1..=5 => format!("v{k}"),
        k => format!("fresh{k}{}", i / 8),
    }
}

/// A random tree and its reference: each node a parent index, a label,
/// attribute member lists and a text child.
/// One generated vertex: its parent's index among those before it, a
/// label, `(name, member list)` attributes and an optional text child.
type NodeSpec = (usize, u8, Vec<(u8, Vec<u8>)>, Option<u8>);

fn build_pair(spec: &[NodeSpec]) -> (DataTree, Vec<RefNode>) {
    let mut b = TreeBuilder::new();
    let mut model = vec![RefNode {
        label: "root".into(),
        alive: true,
        ..RefNode::default()
    }];
    let mut ids = vec![b.node("root")];
    for (parent, label, attrs, text) in spec {
        let p = parent % ids.len();
        let label = format!("e{}", label % 3);
        let n = b.child_node(ids[p], label.as_str()).unwrap();
        let mut node = RefNode {
            label,
            parent: Some(p),
            alive: true,
            ..RefNode::default()
        };
        for (name, members) in attrs {
            let name = NAMES[*name as usize % NAMES.len()];
            if node.attrs.contains_key(name) {
                continue;
            }
            let members: Vec<String> = members.iter().map(|&m| member(m)).collect();
            b.attr(n, name, AttrValue::set(members.clone())).unwrap();
            node.attrs.insert(name.to_string(), normalized(&members));
        }
        if let Some(t) = text {
            b.text(n, member(*t)).unwrap();
            node.children.push(RefChild::Text(member(*t)));
        }
        let at = model.len();
        model[p].children.push(RefChild::Node(at));
        model.push(node);
        ids.push(n);
    }
    (b.finish(ids[0]).unwrap(), model)
}

fn node_spec() -> impl Strategy<Value = NodeSpec> {
    (
        0usize..64,
        any::<u8>(),
        prop::collection::vec(
            (any::<u8>(), prop::collection::vec(any::<u8>(), 0..4)),
            0..3,
        ),
        prop::option::of(any::<u8>()),
    )
}

#[derive(Clone, Debug)]
enum EditSpec {
    /// `set_attr` with a member list: unsorted, repeated, empty or new.
    SetAttr(usize, u8, Vec<u8>),
    RemoveAttr(usize, u8),
    SetText(usize, u8),
    Insert(usize, usize, Vec<NodeSpec>),
    Delete(usize),
}

fn edit_spec() -> impl Strategy<Value = EditSpec> {
    let set = (
        any::<usize>(),
        any::<u8>(),
        prop::collection::vec(any::<u8>(), 0..5),
    )
        .prop_map(|(x, n, m)| EditSpec::SetAttr(x, n, m));
    prop_oneof![
        set.clone(),
        set,
        (any::<usize>(), any::<u8>()).prop_map(|(x, n)| EditSpec::RemoveAttr(x, n)),
        (any::<usize>(), any::<u8>()).prop_map(|(x, t)| EditSpec::SetText(x, t)),
        (
            any::<usize>(),
            any::<usize>(),
            prop::collection::vec(node_spec(), 0..4)
        )
            .prop_map(|(x, at, f)| EditSpec::Insert(x, at, f)),
        any::<usize>().prop_map(EditSpec::Delete),
    ]
}

/// Live slots of the reference, in id order.
fn live(model: &[RefNode]) -> Vec<usize> {
    (0..model.len()).filter(|&i| model[i].alive).collect()
}

fn values_of(v: &AttrValue) -> Vec<String> {
    v.values().to_vec()
}

/// Applies one edit to both sides, checking what the tree returns.
fn apply(t: &mut DataTree, model: &mut Vec<RefNode>, e: &EditSpec) -> Result<(), TestCaseError> {
    let alive = live(model);
    let pick = |i: usize| alive[i % alive.len()];
    match e {
        EditSpec::SetAttr(x, name, members) => {
            let x = pick(*x);
            let name = NAMES[*name as usize % NAMES.len()];
            let members: Vec<String> = members.iter().map(|&m| member(m)).collect();
            let old = t.attr(NodeId::from_index(x), name).map(|v| v.to_owned());
            t.set_attr(NodeId::from_index(x), name, AttrValue::set(members.clone()))
                .unwrap();
            let want = model[x]
                .attrs
                .insert(name.to_string(), normalized(&members));
            prop_assert_eq!(old.as_ref().map(values_of), want);
        }
        EditSpec::RemoveAttr(x, name) => {
            let x = pick(*x);
            let name = NAMES[*name as usize % NAMES.len()];
            let old = t.attr(NodeId::from_index(x), name).map(|v| v.to_owned());
            let removed = t.remove_attr(NodeId::from_index(x), name).unwrap();
            prop_assert_eq!(removed, old.is_some());
            prop_assert_eq!(old.as_ref().map(values_of), model[x].attrs.remove(name));
        }
        EditSpec::SetText(x, text) => {
            let x = pick(*x);
            let texts: Vec<usize> = (0..model[x].children.len())
                .filter(|&i| matches!(model[x].children[i], RefChild::Text(_)))
                .collect();
            let got = t.set_text(NodeId::from_index(x), 0, member(*text));
            match texts.first() {
                None => prop_assert!(got.is_err()),
                Some(&i) => {
                    let old =
                        std::mem::replace(&mut model[x].children[i], RefChild::Text(member(*text)));
                    let RefChild::Text(old) = old else {
                        unreachable!()
                    };
                    prop_assert_eq!(got.unwrap(), old);
                }
            }
        }
        EditSpec::Insert(x, at, spec) => {
            let x = pick(*x);
            let (frag, frag_model) = build_pair(spec);
            let at = at % (model[x].children.len() + 1);
            t.insert_subtree(NodeId::from_index(x), at, &frag).unwrap();
            // Fresh ids in fragment creation order (a built fragment has
            // no tombstones).
            let base = model.len();
            for (i, mut node) in frag_model.into_iter().enumerate() {
                node.parent = Some(node.parent.map_or(x, |p| base + p));
                for c in &mut node.children {
                    if let RefChild::Node(n) = c {
                        *n += base;
                    }
                }
                if i == 0 {
                    model[x].children.insert(at, RefChild::Node(base));
                }
                model.push(node);
            }
        }
        EditSpec::Delete(x) => {
            let x = pick(*x);
            if x == 0 {
                prop_assert!(t.delete_subtree(NodeId::from_index(0)).is_err());
                return Ok(());
            }
            t.delete_subtree(NodeId::from_index(x)).unwrap();
            let p = model[x].parent.take().unwrap();
            model[p]
                .children
                .retain(|c| !matches!(c, RefChild::Node(n) if *n == x));
            let mut stack = vec![x];
            while let Some(y) = stack.pop() {
                model[y].alive = false;
                for c in &model[y].children {
                    if let RefChild::Node(n) = c {
                        stack.push(*n);
                    }
                }
            }
        }
    }
    Ok(())
}

/// Every view of `t` against the reference: labels, children, text, each
/// attribute present and absent, and the queries of each view.
fn check(t: &DataTree, model: &[RefNode]) -> Result<(), TestCaseError> {
    prop_assert_eq!(t.id_bound(), model.len());
    prop_assert_eq!(t.len(), live(model).len());
    for (i, want) in model.iter().enumerate() {
        let x = NodeId::from_index(i);
        prop_assert_eq!(t.is_alive(x), want.alive);
        prop_assert_eq!(t.label(x).as_str(), want.label.as_str());
        let children = t.children(x);
        prop_assert_eq!(children.len(), want.children.len());
        let mut text = String::new();
        for (c, w) in children.iter().zip(&want.children) {
            match (c, w) {
                (Child::Text(s), RefChild::Text(w)) => {
                    prop_assert_eq!(t.pool().resolve(*s), w.as_str());
                    text.push_str(w);
                }
                (Child::Node(n), RefChild::Node(w)) => prop_assert_eq!(n.index(), *w),
                _ => prop_assert!(false, "child kinds differ at {:?}", x),
            }
        }
        prop_assert_eq!(t.text(x), text.as_str());
        let names: Vec<&str> = t.attrs(x).map(|(n, _)| n.as_str()).collect();
        let want_names: Vec<&str> = want.attrs.keys().map(String::as_str).collect();
        prop_assert_eq!(names, want_names);
        for name in NAMES {
            let got = t.attr(x, name);
            let Some(w) = want.attrs.get(name) else {
                prop_assert!(got.is_none());
                continue;
            };
            let v = got.expect("the reference holds the attribute");
            let owned = AttrValue::set(w.clone());
            prop_assert_eq!(
                v.values().collect::<Vec<_>>(),
                w.iter().map(String::as_str).collect::<Vec<_>>()
            );
            prop_assert_eq!(v.len(), w.len());
            prop_assert_eq!(v.is_empty(), w.is_empty());
            prop_assert_eq!(v.is_singleton(), w.len() == 1);
            prop_assert_eq!(v.as_single(), (w.len() == 1).then(|| w[0].as_str()));
            prop_assert_eq!(v.sym().is_some(), w.len() == 1);
            prop_assert_eq!(
                v.syms().map(|s| t.pool().resolve(s)).collect::<Vec<_>>(),
                v.values().collect::<Vec<_>>()
            );
            for k in 0..16u8 {
                prop_assert_eq!(v.contains(&member(k)), w.contains(&member(k)));
            }
            prop_assert_eq!(v.to_owned(), owned.clone());
            prop_assert!(v == owned);
            prop_assert_eq!(v.to_string(), owned.to_string());
        }
    }
    Ok(())
}

/// The tree's raw state read through its public views, as an encoder
/// reads it.
fn raw_of(t: &DataTree) -> (RawTree, Vec<bool>) {
    let mut raw = RawTree {
        pool: t.pool().clone(),
        ..RawTree::default()
    };
    for i in 0..t.id_bound() {
        let x = NodeId::from_index(i);
        for (name, v) in t.attrs(x) {
            raw.attrs.push(RawAttr {
                name: raw.names.len() as u32,
                members: v.len() as u32,
            });
            raw.names.push(name.clone());
            raw.members.extend(v.syms());
        }
        raw.nodes.push(RawNode {
            label: raw.names.len() as u32,
            children: t.children(x).len() as u32,
            attrs: t.attrs(x).len() as u32,
            parent: t.node(x).parent(),
        });
        raw.names.push(t.label(x).clone());
        raw.children.extend_from_slice(t.children(x));
    }
    let dead = if t.len() < t.id_bound() {
        (0..t.id_bound())
            .map(|i| !t.is_alive(NodeId::from_index(i)))
            .collect()
    } else {
        Vec::new()
    };
    (raw, dead)
}

/// Grows and shrinks the child lists of two live vertices in turn,
/// checking against the reference as it goes. Each insert appends a leaf
/// holding a text child and moves the list it grows to the child arena's
/// end, so a few hundred steps leave more stale entries than live ones
/// and make the arena compact; `set_text` rewrites a leaf's text in
/// place, and deletes drop leaves from the middle of a list.
fn churn(
    t: &mut DataTree,
    model: &mut Vec<RefNode>,
    picks: (usize, usize),
    steps: usize,
) -> Result<(), TestCaseError> {
    let alive = live(model);
    let targets = [alive[picks.0 % alive.len()], alive[picks.1 % alive.len()]];
    let mut leaves: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    // `apply` picks a vertex by its position among the live ones.
    let pick = |model: &[RefNode], x: usize| live(model).iter().position(|&y| y == x).unwrap();
    for step in 0..steps {
        let k = step % 2;
        let e = match (step / 2 % 4, leaves[k].len()) {
            (2, n) if n > 0 => {
                let leaf = leaves[k][step % n];
                EditSpec::SetText(pick(model, leaf + 1), step as u8)
            }
            (3, n) if n > 0 => EditSpec::Delete(pick(model, leaves[k].remove(step % n))),
            _ => {
                leaves[k].push(model.len());
                let leaf = (0, step as u8, Vec::new(), Some(step as u8));
                EditSpec::Insert(pick(model, targets[k]), step * 7, vec![leaf])
            }
        };
        apply(t, model, &e)?;
        if step % 32 == 0 {
            check(t, model)?;
        }
    }
    check(t, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every edit — `set_attr` with values new to the tree and with
    /// unsorted, repeated or empty member lists, `remove_attr`,
    /// `set_text`, `insert_subtree` of a fragment with its own pool, and
    /// `delete_subtree` — every `attr`/`attrs`/`text` view of the tree
    /// equals what a `String`-based reference holds, and the tree's raw
    /// state reassembles into the same tree. Labels and ordered child
    /// lists follow the reference through enough inserts and deletes to
    /// compact the child arena. A symbol outside the pool, anywhere in
    /// that raw state, a child count that does not add up, a label past
    /// the names and a child id past the slots are errors, never panics.
    #[test]
    fn edited_trees_read_as_the_string_reference(
        spec in prop::collection::vec(node_spec(), 0..12),
        edits in prop::collection::vec(edit_spec(), 0..16),
        picks in (any::<usize>(), any::<usize>()),
        steps in 0usize..400,
        poison in any::<usize>(),
    ) {
        let (mut t, mut model) = build_pair(&spec);
        check(&t, &model)?;
        for e in &edits {
            apply(&mut t, &mut model, e)?;
            check(&t, &model)?;
        }
        churn(&mut t, &mut model, picks, steps)?;
        let (raw, dead) = raw_of(&t);
        let rebuilt = DataTree::from_raw_parts(raw.clone(), t.root(), dead.clone()).unwrap();
        check(&rebuilt, &model)?;

        let slot = poison % raw.nodes.len();
        let mut miscounted = raw.clone();
        let count = &mut miscounted.nodes[slot].children;
        *count = if *count > 0 && poison % 2 == 0 { *count - 1 } else { *count + 1 };
        prop_assert!(DataTree::from_raw_parts(miscounted, t.root(), dead.clone()).is_err());
        let mut unlabelled = raw.clone();
        unlabelled.nodes[slot].label = (raw.names.len() + poison % 3) as u32;
        prop_assert!(DataTree::from_raw_parts(unlabelled, t.root(), dead.clone()).is_err());
        let elements: Vec<usize> = (0..raw.children.len())
            .filter(|&i| matches!(raw.children[i], Child::Node(_)))
            .collect();
        if !elements.is_empty() {
            let mut stray = raw.clone();
            let past = NodeId::from_index(raw.nodes.len() + poison % 3);
            stray.children[elements[poison % elements.len()]] = Child::Node(past);
            prop_assert!(DataTree::from_raw_parts(stray, t.root(), dead.clone()).is_err());
        }

        // Poison one symbol: a member or a text child.
        let outside = Sym::from_index(raw.pool.len() as u32 + (poison % 3) as u32);
        let mut bad = raw;
        let texts: Vec<usize> = (0..bad.children.len())
            .filter(|&i| matches!(bad.children[i], Child::Text(_)))
            .collect();
        let slots = bad.members.len() + texts.len();
        if slots > 0 {
            let k = poison % slots;
            if k < bad.members.len() {
                bad.members[k] = outside;
            } else {
                bad.children[texts[k - bad.members.len()]] = Child::Text(outside);
            }
            prop_assert!(DataTree::from_raw_parts(bad, t.root(), dead).is_err());
        }
    }
}
