//! The heap a live validator holds beyond its document, the two
//! together, and the heap a snapshot write takes on top of that, counted
//! by the counting allocator.
//!
//! The allocator's totals are process-wide, so this binary holds exactly
//! one test: nothing else allocates while it measures.

xic::obs::install_counting_alloc!();

use xic::obs::alloc::{peak_above, reset_peak, stats};
use xic::prelude::*;
use xic_bench::constraint_heavy_workload;

/// Vertices in the measured document: enough that its snapshot's tree
/// section spans several of the writer's 64 KiB buffers.
const VERTICES: usize = 30_000;

/// Heap bytes `LiveValidator::new` may add per vertex beyond the tree:
/// columns, row map, occurrence indexes and constraint state. It adds
/// 105 B here. With one 24-byte map entry per value, a boxed B-tree per
/// shared value and a per-symbol count array per foreign key, it added
/// 191 B; with an intern pool of its own, as before the columns held the
/// tree's symbols, 249 B; with columns kept as one cell per vertex id, as
/// before they became extent rows, 317 B (on this Σ the dense cells alone
/// are 100 B per vertex: 7 single columns of 4 B and 3 set columns of
/// 24 B).
const MAX_LIVE_BYTES_PER_VERTEX: u64 = 116;

/// Heap bytes per vertex of a live document, tree and live state
/// together. They take 216 B here; with a 56-byte node and a child `Vec`
/// per parent they took 248 B, and 335 B with the occurrence maps above
/// as well. A tree holding each value as a string of its own beside a
/// live index with its own pool took 470 B.
const MAX_RESIDENT_BYTES_PER_VERTEX: u64 = 238;

/// Heap bytes `write_snapshot` may take above the live state: one 64 KiB
/// buffer, each label's slot list and the tree encoder's name dictionary.
/// It takes 198 kB here for a 1.46 MB file; encoding the whole image in
/// memory first took 2.1 MB.
const MAX_WRITE_BYTES: u64 = 218_000;

#[test]
fn live_state_and_snapshot_writes_stay_lean() {
    let (dtdc, tree) = constraint_heavy_workload(VERTICES, 1);
    let v = Validator::new(&dtdc);
    let vertices = tree.len() as u64;

    // The tree's own heap, measured on a copy: a clone allocates what the
    // tree holds.
    let before = stats().live;
    let copy = tree.clone();
    let tree_bytes = stats().live - before;
    drop(copy);

    let before = stats().live;
    let live = LiveValidator::new(&v, tree);
    let held = stats().live - before;
    assert!(
        held / vertices <= MAX_LIVE_BYTES_PER_VERTEX,
        "the live state holds {} B per vertex beyond the tree ({held} B over {vertices} vertices)",
        held / vertices
    );
    let resident = tree_bytes + held;
    assert!(
        resident / vertices <= MAX_RESIDENT_BYTES_PER_VERTEX,
        "tree and live state hold {} B per vertex ({tree_bytes} + {held} B over {vertices} vertices)",
        resident / vertices
    );

    let dir = std::env::temp_dir().join(format!("xic-live-footprint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the scratch dir");
    let path = dir.join("snapshot.bin");
    let baseline = reset_peak();
    write_snapshot(&path, &live, 0).expect("write the snapshot");
    let peak = peak_above(baseline);
    let written = std::fs::read(&path).expect("read the snapshot back");
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        written == encode_snapshot(&live, 0),
        "the streamed file differs from the in-memory encoding"
    );
    assert!(
        written.len() > 16 * (64 << 10),
        "a {} B snapshot does not span several write buffers",
        written.len()
    );
    assert!(
        peak <= MAX_WRITE_BYTES,
        "writing a {} B snapshot took {peak} B of heap above the live state",
        written.len()
    );
}
