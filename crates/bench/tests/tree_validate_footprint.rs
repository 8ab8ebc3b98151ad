//! The heap the one-shot tree engine takes above its document while it
//! validates, counted by the counting allocator.
//!
//! The allocator's totals are process-wide, so this binary holds exactly
//! one test: nothing else allocates while it measures.

xic::obs::install_counting_alloc!();

use xic::obs::alloc::{peak_above, reset_peak};
use xic::prelude::*;
use xic_bench::constraint_heavy_workload;

/// Vertices in the measured document.
const VERTICES: usize = 30_000;

/// Heap bytes per vertex `Validator::validate` may take above the tree at
/// its peak: the extent index, the columns of the tree's symbols, the ID
/// table and the checks' tables, which are sized by the tree's value pool.
/// It takes 28 B here. Interning every planned value again, into a pool of
/// the engine's own, took 72 B.
const MAX_PEAK_BYTES_PER_VERTEX: u64 = 31;

#[test]
fn tree_validation_copies_the_trees_symbols() {
    let (dtdc, tree) = constraint_heavy_workload(VERTICES, 1);
    let v = Validator::with_options(&dtdc, Options::default().with_threads(1));
    let vertices = tree.len() as u64;

    let baseline = reset_peak();
    let report = v.validate(&tree);
    let peak = peak_above(baseline);
    assert!(report.is_valid(), "the workload is valid: {report}");
    assert!(
        peak / vertices <= MAX_PEAK_BYTES_PER_VERTEX,
        "validating took {} B per vertex above the tree ({peak} B over {vertices} vertices)",
        peak / vertices
    );
}
