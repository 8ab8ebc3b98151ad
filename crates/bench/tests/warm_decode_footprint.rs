//! The heap a warm boot's snapshot read takes beyond the state it
//! decodes, counted by the counting allocator.
//!
//! The allocator's totals are process-wide, so this binary holds exactly
//! one test: nothing else allocates while it measures.

xic::obs::install_counting_alloc!();

use xic::obs::alloc::{peak_above, reset_peak, stats};
use xic::prelude::*;
use xic_bench::constraint_heavy_workload;

/// Vertices in the measured document.
const VERTICES: usize = 30_000;

/// Heap bytes per vertex `read_snapshot` may hold at its peak on top of
/// the state it returns: one section's bytes at a time and the decoder's
/// raw tree (flat node, child, attribute and member lists), held while
/// the tree is built from them. It takes 108 B here. Holding the whole
/// file image through the decode took 128 B; building the tree's node
/// array beside the consumed node list (56 B a vertex each, then),
/// rather than in its allocation, took 176 B.
const MAX_TRANSIENT_BYTES_PER_VERTEX: u64 = 119;

#[test]
fn a_snapshot_read_builds_its_tree_in_place() {
    let (dtdc, tree) = constraint_heavy_workload(VERTICES, 1);
    let v = Validator::new(&dtdc);
    let vertices = tree.len() as u64;
    let dir = std::env::temp_dir().join(format!("xic-warm-decode-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the scratch dir");
    let path = dir.join("snapshot.bin");
    let live = LiveValidator::new(&v, tree);
    write_snapshot(&path, &live, 0).expect("write the snapshot");
    drop(live);

    let baseline = reset_peak();
    let (state, _) = read_snapshot(&path).expect("read the snapshot back");
    let held = stats().live - baseline;
    let transient = peak_above(baseline) - held;
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(state.tree.len() as u64, vertices);
    assert!(
        transient / vertices <= MAX_TRANSIENT_BYTES_PER_VERTEX,
        "reading the snapshot took {} B per vertex above the {held} B it decoded \
         ({transient} B over {vertices} vertices)",
        transient / vertices
    );
}
