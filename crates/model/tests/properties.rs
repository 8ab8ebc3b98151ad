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
            for c in t.node(id).child_nodes() {
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
                    t.attr(id, "x").and_then(AttrValue::as_single),
                    Some(&expected)
                );
            }
        }
    }
}
