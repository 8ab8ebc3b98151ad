//! The resident footprint of a parsed document, counted by the counting
//! allocator.
//!
//! The allocator's totals are process-wide, so this binary holds exactly
//! one test: nothing else allocates while it measures.

xic::obs::install_counting_alloc!();

use xic::obs::alloc::{peak_above, reset_peak, stats};
use xic::prelude::*;
use xic_bench::constraint_heavy_workload;

/// Vertices in the measured document.
const VERTICES: usize = 10_000;

/// Heap bytes a parsed vertex may hold, everything it owns included:
/// its 24-byte node record, its entries in the child arena, its attribute
/// slots, its share of the names and of the value pool (each distinct
/// value once, with the pool's lookup table). The tree holds 128 B here.
/// A 56-byte node holding its label as a `Name` and its children in a
/// `Vec` of its own took 160 B; keeping every value as a string of its
/// own as well, as trees did before they held symbols of one pool, took
/// 221 B; an allocation per name occurrence, a list around each single
/// value or spare slots left by growth would each take it further
/// (together: 495 B).
const MAX_BYTES_PER_VERTEX: usize = 140;

/// Heap bytes per vertex `parse_document` may take at its peak above its
/// input: the tree, the builder's growth room and its pending values. It
/// peaks at 199 B here; with a 56-byte node and a child `Vec` per parent
/// it peaked at 259 B.
const MAX_PARSE_PEAK_BYTES_PER_VERTEX: usize = 219;

#[test]
fn a_parsed_document_is_lean_and_shares_its_names() {
    let (dtdc, tree) = constraint_heavy_workload(VERTICES, 1);
    let src = format!(
        "<!DOCTYPE db [\n{}]>\n{}",
        serialize_dtd(dtdc.structure()),
        serialize_document(&tree)
    );
    drop(tree);

    let before = reset_peak();
    let doc = parse_document(&src).expect("the generated document parses");
    let held = (stats().live - before) as usize;
    let peak = peak_above(before) as usize;
    let tree = &doc.tree;
    let per_vertex = held / tree.len();
    assert!(
        per_vertex <= MAX_BYTES_PER_VERTEX,
        "a parsed vertex holds {per_vertex} B of heap ({held} B over {} vertices)",
        tree.len()
    );
    assert!(
        peak / tree.len() <= MAX_PARSE_PEAK_BYTES_PER_VERTEX,
        "parsing peaked at {} B per vertex above its input ({peak} B over {} vertices)",
        peak / tree.len(),
        tree.len()
    );

    // One name allocation per spelling: labels and attribute names.
    let parts: Vec<NodeId> = tree.ext("part").take(2).collect();
    let [a, b] = parts[..] else {
        panic!("the document has two parts")
    };
    assert_eq!(
        tree.label(a).as_str().as_ptr(),
        tree.label(b).as_str().as_ptr(),
        "two `part` vertices hold separate label allocations"
    );
    let names_of =
        |x: NodeId| -> Vec<*const u8> { tree.attrs(x).map(|(n, _)| n.as_str().as_ptr()).collect() };
    assert_eq!(
        names_of(a),
        names_of(b),
        "two `part` vertices hold separate attribute names"
    );
    assert!(tree.attr(a, "pid").is_some_and(|v| v.is_singleton()));

    // A singleton value allocates its string and nothing around it,
    // whether it is built as one value or as a one-member set.
    let before = stats();
    let single = AttrValue::single("p12345");
    let after = stats();
    assert_eq!(
        after.count - before.count,
        1,
        "AttrValue::single allocates more than its string"
    );
    assert_eq!(after.live - before.live, 6);
    let before = stats().live;
    let set = AttrValue::set(["p12345"]);
    assert_eq!(
        stats().live - before,
        6,
        "a one-member set holds more than its string"
    );
    assert_eq!(set, single);
}
