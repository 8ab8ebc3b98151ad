//! The heap a streaming validation takes on a document of many distinct
//! spellings, counted by the counting allocator.
//!
//! The allocator's totals are process-wide, so this binary holds exactly
//! one test: nothing else allocates while it measures.

xic::obs::install_counting_alloc!();

use xic::obs::alloc::{peak_above, reset_peak};
use xic::prelude::*;
use xic_bench::constraint_heavy_workload;

/// Distinct element spellings in the measured document, each carrying an
/// attribute spelling of its own.
const SPELLINGS: usize = 10_000;

/// Peak heap bytes the pass may take per node, the report included: its
/// violations, the per-spelling records and each type's attribute roles.
/// The pass takes 919 B here, of which about 300 B is the one role and
/// lookup table of each type. A role table indexed by a document-wide
/// attribute-name id would hold a slot per attribute spelling seen before
/// its type, about 200 kB per node at this size (40 kB at 2 000 spellings).
const MAX_BYTES_PER_NODE: u64 = 1_200;

#[test]
fn streaming_memory_grows_with_the_pairs_seen() {
    let (dtdc, _) = constraint_heavy_workload(10, 1);
    let mut src = String::from("<db>");
    for i in 0..SPELLINGS {
        src.push_str(&format!("<e{i} a{i}=\"x\"/>"));
    }
    src.push_str("</db>");
    let v = Validator::new(&dtdc);

    let baseline = reset_peak();
    let report = v
        .validate_stream(&src)
        .expect("the document is well formed");
    let peak = peak_above(baseline);
    let nodes = SPELLINGS as u64 + 1;
    assert!(!report.is_valid(), "every eN is an undeclared element type");
    assert!(
        peak / nodes <= MAX_BYTES_PER_NODE,
        "streaming took {} B of heap per node ({peak} B over {nodes} nodes)",
        peak / nodes
    );
}
