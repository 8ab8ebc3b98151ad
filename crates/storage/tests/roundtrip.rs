//! Property tests for the durable-state formats.
//!
//! Random documents and edit sequences round-trip through the snapshot
//! codec and the WAL: the recovered validator's report is byte-identical
//! to from-scratch validation. Corruption corpora — truncated tails, bit
//! flips, and hostile section payloads re-stamped with a valid CRC —
//! must produce clean errors (or, for a torn WAL tail, the longest intact
//! prefix), never panics or silently wrong state.

use proptest::prelude::*;
use xic_constraints::{Constraint, DtdC, DtdStructure, Field, Language};
use xic_model::{AttrValue, DataTree, NodeId, TreeBuilder};
use xic_storage::{
    crc32, decode_snapshot, encode_snapshot, write_snapshot, DocStore, FsyncPolicy, StorageError,
    Wal, SNAPSHOT_VERSION, WAL_MAGIC, WAL_VERSION,
};
use xic_validate::{BatchEdit, LiveValidator, Options, Validator, Violation};

/// Three element types with an ID attribute, single attributes, set-valued
/// attributes, and sub-element labels — every column shape the plan can
/// produce.
fn test_structure() -> DtdStructure {
    let mut b = DtdStructure::builder("db").elem("db", "(t0 + t1 + t2)*");
    for t in ["t0", "t1", "t2"] {
        b = b
            .elem(t, "(e0 + e1 + S)*")
            .id_attr(t, "id")
            .attr(t, "a0", "S")
            .attr(t, "a1", "S")
            .idrefs_attr(t, "r0")
            .attr(t, "r1", "S*");
    }
    b.elem("e0", "S")
        .elem("e1", "S")
        .build()
        .expect("test structure is well-formed")
}

/// A Σ exercising every constraint family (hence every column kind).
fn test_sigma() -> Vec<Constraint> {
    vec![
        Constraint::Key {
            tau: "t0".into(),
            fields: vec![Field::attr("id"), Field::sub("e0")],
        },
        Constraint::ForeignKey {
            tau: "t1".into(),
            fields: vec![Field::attr("a0")],
            target: "t0".into(),
            target_fields: vec![Field::attr("a1")],
        },
        Constraint::SetForeignKey {
            tau: "t2".into(),
            attr: "r1".into(),
            target: "t1".into(),
            target_field: Field::sub("e1"),
        },
        Constraint::Id { tau: "t0".into() },
        Constraint::FkToId {
            tau: "t2".into(),
            attr: "a1".into(),
            target: "t0".into(),
        },
        Constraint::SetFkToId {
            tau: "t1".into(),
            attr: "r0".into(),
            target: "t0".into(),
        },
        Constraint::InverseId {
            tau: "t0".into(),
            attr: "r0".into(),
            target: "t1".into(),
            target_attr: "r0".into(),
        },
    ]
}

/// One random element: `((type, id, a0, a1), (r0, r1, sub-elements))`.
type NodeRecipe = (
    (u8, Option<u8>, Option<u8>, Option<u8>),
    (Vec<u8>, Vec<u8>, Vec<(u8, u8)>),
);

fn node_recipe() -> BoxedStrategy<NodeRecipe> {
    let head = (
        0u8..3,
        prop::option::of(0u8..6),
        prop::option::of(0u8..6),
        prop::option::of(0u8..6),
    );
    let tail = (
        prop::collection::vec(0u8..6, 0..3),
        prop::collection::vec(0u8..6, 0..3),
        prop::collection::vec((0u8..2, 0u8..6), 0..4),
    );
    (head, tail).boxed()
}

fn val(v: u8) -> String {
    format!("v{v}")
}

fn fill_node(b: &mut TreeBuilder, p: NodeId, recipe: &NodeRecipe) {
    let ((_, id, a0, a1), (r0, r1, subs)) = recipe;
    if let Some(v) = id {
        b.attr(p, "id", AttrValue::single(val(*v))).unwrap();
    }
    if let Some(v) = a0 {
        b.attr(p, "a0", AttrValue::single(val(*v))).unwrap();
    }
    if let Some(v) = a1 {
        b.attr(p, "a1", AttrValue::single(val(*v))).unwrap();
    }
    b.attr(p, "r0", AttrValue::set(r0.iter().map(|&v| val(v))))
        .unwrap();
    b.attr(p, "r1", AttrValue::set(r1.iter().map(|&v| val(v))))
        .unwrap();
    for (w, tv) in subs {
        b.leaf(p, format!("e{w}"), val(*tv)).unwrap();
    }
}

fn build_tree(recipes: &[NodeRecipe]) -> DataTree {
    let mut b = TreeBuilder::new();
    let db = b.node("db");
    for recipe in recipes {
        let p = b.child_node(db, format!("t{}", recipe.0 .0)).unwrap();
        fill_node(&mut b, p, recipe);
    }
    b.finish(db).unwrap()
}

fn build_fragment(recipe: &NodeRecipe) -> DataTree {
    let mut b = TreeBuilder::new();
    let p = b.node(format!("t{}", recipe.0 .0));
    fill_node(&mut b, p, recipe);
    b.finish(p).unwrap()
}

const ATTRS: [&str; 5] = ["id", "a0", "a1", "r0", "r1"];

/// One random edit, resolved against the live tree at application time.
#[derive(Debug, Clone)]
enum EditRecipe {
    SetAttr(u8, u8, Vec<u8>),
    RemoveAttr(u8, u8),
    Delete(u8),
    Insert(u8, u8, NodeRecipe),
}

fn edit_recipe() -> BoxedStrategy<EditRecipe> {
    prop_oneof![
        (any::<u8>(), 0u8..5, prop::collection::vec(0u8..6, 1..3))
            .prop_map(|(n, a, vs)| EditRecipe::SetAttr(n, a, vs)),
        (any::<u8>(), 0u8..5).prop_map(|(n, a)| EditRecipe::RemoveAttr(n, a)),
        any::<u8>().prop_map(EditRecipe::Delete),
        (any::<u8>(), any::<u8>(), node_recipe()).prop_map(|(n, p, r)| EditRecipe::Insert(n, p, r)),
    ]
    .boxed()
}

/// Resolves one recipe into a concrete request, or `None` if inapplicable.
fn resolve_edit(live: &LiveValidator<'_, '_>, e: &EditRecipe) -> Option<BatchEdit> {
    let ids: Vec<NodeId> = live.tree().node_ids().collect();
    let pick = |sel: u8| ids[sel as usize % ids.len()];
    match e {
        EditRecipe::SetAttr(n, a, vs) => Some(BatchEdit::SetAttr {
            node: pick(*n),
            attr: ATTRS[*a as usize].into(),
            value: AttrValue::set(vs.iter().map(|&v| val(v))),
        }),
        EditRecipe::RemoveAttr(n, a) => {
            let node = pick(*n);
            live.tree()
                .attr(node, ATTRS[*a as usize])
                .is_some()
                .then(|| BatchEdit::RemoveAttr {
                    node,
                    attr: ATTRS[*a as usize].into(),
                })
        }
        EditRecipe::Delete(n) => {
            let node = pick(*n);
            (node != live.tree().root()).then_some(BatchEdit::DeleteSubtree { node })
        }
        EditRecipe::Insert(n, p, recipe) => {
            let parent = pick(*n);
            let len = live.tree().children(parent).len();
            Some(BatchEdit::InsertSubtree {
                parent,
                position: *p as usize % (len + 1),
                fragment: build_fragment(recipe),
            })
        }
    }
}

fn validator(dtdc: &DtdC) -> Validator<'_> {
    let opts = Options {
        strict_attributes: false,
        threads: 1,
    };
    Validator::with_options(dtdc, opts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Snapshot + WAL replay reproduces a byte-identical report after any
    /// edit history: edits up to a random snapshot point are captured by
    /// the snapshot, the rest by the log — exactly the daemon's crash
    /// recovery path.
    #[test]
    fn snapshot_plus_wal_replay_is_byte_identical(
        nodes in prop::collection::vec(node_recipe(), 0..15),
        edits in prop::collection::vec(edit_recipe(), 0..10),
        snap_at in any::<u8>(),
    ) {
        let dtdc = DtdC::new_unchecked(test_structure(), Language::Lid, test_sigma());
        let v = validator(&dtdc);
        let mut live = LiveValidator::new(&v, build_tree(&nodes));

        let dir = tempdir("roundtrip");
        let store = DocStore::open(&dir, FsyncPolicy::Never).unwrap();

        // Play the prefix, snapshot, then log + play the suffix.
        let cut = if edits.is_empty() { 0 } else { snap_at as usize % (edits.len() + 1) };
        for e in &edits[..cut] {
            if let Some(b) = resolve_edit(&live, e) {
                live.apply_batch(&[b]).unwrap();
            }
        }
        store.save("doc", &live).unwrap();
        let mut wal = store.open_wal("doc").unwrap();
        for e in &edits[cut..] {
            if let Some(b) = resolve_edit(&live, e) {
                let batch = vec![b];
                wal.append(&batch).unwrap();
                live.apply_batch(&batch).unwrap();
            }
        }
        drop(wal);

        // Recover into a fresh validator.
        let rec = store.load("doc").unwrap().expect("state was saved");
        let mut warm = LiveValidator::from_state(&v, rec.state).unwrap();
        for batch in &rec.batches {
            warm.apply_batch(batch).unwrap();
        }
        prop_assert_eq!(
            &warm.report().violations,
            &live.report().violations,
            "recovered report diverged from the living validator"
        );
        prop_assert_eq!(
            &warm.report().violations,
            &v.validate(warm.tree()).violations,
            "recovered report diverged from scratch validation"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Encoding a live validator in place writes the same bytes as
    /// encoding its exported copy, under any Σ and after any edit batches
    /// (tombstones, inserted slots, set columns, structural violations),
    /// and decoding then re-encoding reproduces them too — both the
    /// decoded state and a validator rebuilt from it.
    #[test]
    fn live_and_exported_snapshots_are_byte_identical(
        sigma_mask in any::<u8>(),
        nodes in prop::collection::vec(node_recipe(), 0..12),
        batches in prop::collection::vec(prop::collection::vec(edit_recipe(), 1..4), 0..5),
        last_seq in any::<u64>(),
    ) {
        let sigma = test_sigma()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| sigma_mask & (1 << i) != 0)
            .map(|(_, c)| c)
            .collect();
        let dtdc = DtdC::new_unchecked(test_structure(), Language::Lid, sigma);
        let v = validator(&dtdc);
        let mut live = LiveValidator::new(&v, build_tree(&nodes));
        for recipes in &batches {
            let batch: Vec<BatchEdit> =
                recipes.iter().filter_map(|e| resolve_edit(&live, e)).collect();
            // A batch whose later edit no longer applies keeps its prefix;
            // either way the state is a reachable one to snapshot.
            let _ = live.apply_batch(&batch);
        }
        let bytes = encode_snapshot(&live, last_seq);
        prop_assert!(bytes == encode_snapshot(&live.export_state(), last_seq));
        prop_assert!(streamed(&live, last_seq) == bytes);
        let (state, seq) = decode_snapshot(&bytes).unwrap();
        prop_assert_eq!(seq, last_seq);
        prop_assert!(bytes == encode_snapshot(&state, last_seq));
        let warm = LiveValidator::from_state(&v, state).unwrap();
        prop_assert!(bytes == encode_snapshot(&warm, last_seq));
    }

    /// Any truncation of a snapshot decodes to a clean error, never a
    /// panic or a silently wrong state.
    #[test]
    fn truncated_snapshot_fails_cleanly(
        nodes in prop::collection::vec(node_recipe(), 0..8),
        frac in 0u32..1000,
    ) {
        let dtdc = DtdC::new_unchecked(test_structure(), Language::Lid, test_sigma());
        let v = validator(&dtdc);
        let live = LiveValidator::new(&v, build_tree(&nodes));
        let bytes = encode_snapshot(&live, 0);
        let cut = (bytes.len() as u64 * frac as u64 / 1000) as usize;
        prop_assert!(
            decode_snapshot(&bytes[..cut]).is_err(),
            "truncation at {cut}/{} was not detected", bytes.len()
        );
    }

    /// Any single-bit flip in a snapshot decodes to a clean error.
    #[test]
    fn bit_flipped_snapshot_fails_cleanly(
        nodes in prop::collection::vec(node_recipe(), 0..8),
        pos in any::<u32>(),
        bit in 0u8..8,
    ) {
        let dtdc = DtdC::new_unchecked(test_structure(), Language::Lid, test_sigma());
        let v = validator(&dtdc);
        let live = LiveValidator::new(&v, build_tree(&nodes));
        let mut bytes = encode_snapshot(&live, 0);
        let at = pos as usize % bytes.len();
        bytes[at] ^= 1 << bit;
        prop_assert!(
            decode_snapshot(&bytes).is_err(),
            "flip at {at}:{bit} was not detected"
        );
    }

    /// A WAL whose tail was cut mid-record recovers the longest intact
    /// prefix of batches; a complete record with a flipped byte is a
    /// clean checksum error.
    #[test]
    fn wal_tail_truncation_recovers_prefix(
        nodes in prop::collection::vec(node_recipe(), 1..8),
        edits in prop::collection::vec(edit_recipe(), 1..6),
        chop in 1u32..64,
    ) {
        let dtdc = DtdC::new_unchecked(test_structure(), Language::Lid, test_sigma());
        let v = validator(&dtdc);
        let live = LiveValidator::new(&v, build_tree(&nodes));
        let dir = tempdir("wal-torn");
        let path = dir.join("wal.log");
        let (mut wal, _) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        let mut logged = Vec::new();
        for e in &edits {
            if let Some(b) = resolve_edit(&live, e) {
                let batch = vec![b];
                wal.append(&batch).unwrap();
                logged.push(batch);
            }
        }
        drop(wal);

        // Tear the tail off and reopen: an intact prefix must survive.
        let full = std::fs::read(&path).unwrap();
        let cut = full.len().saturating_sub(chop as usize).max(8);
        if cut < full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (reopened, records) = Wal::open(&path, FsyncPolicy::Never).unwrap();
            let batches: Vec<&Vec<BatchEdit>> = records.iter().map(|(_, b)| b).collect();
            prop_assert!(batches.len() <= logged.len());
            prop_assert_eq!(
                format!("{:?}", batches),
                format!("{:?}", logged[..batches.len()].iter().collect::<Vec<_>>()),
                "recovered batches are not a prefix"
            );
            drop(reopened);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A bit flip inside a complete WAL record is detected as corruption.
    #[test]
    fn bit_flipped_wal_record_fails_cleanly(
        nodes in prop::collection::vec(node_recipe(), 1..8),
        edits in prop::collection::vec(edit_recipe(), 1..6),
        pos in any::<u32>(),
        bit in 0u8..8,
    ) {
        let dtdc = DtdC::new_unchecked(test_structure(), Language::Lid, test_sigma());
        let v = validator(&dtdc);
        let live = LiveValidator::new(&v, build_tree(&nodes));
        let dir = tempdir("wal-flip");
        let path = dir.join("wal.log");
        let (mut wal, _) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        let mut logged = Vec::new();
        for e in &edits {
            if let Some(b) = resolve_edit(&live, e) {
                let batch = vec![b];
                wal.append(&batch).unwrap();
                logged.push(batch);
            }
        }
        drop(wal);

        let mut bytes = std::fs::read(&path).unwrap();
        let at = pos as usize % bytes.len();
        bytes[at] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();
        // The flip lands in the header (format error), a record header
        // (detected as corruption or a phantom torn tail), or a payload
        // (checksum error). Whatever happens must be clean — and if the
        // open succeeds, the result must still be a prefix of the truth.
        match Wal::open(&path, FsyncPolicy::Never) {
            Err(StorageError::Corrupt { .. }) | Err(StorageError::Format { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error class: {e}"),
            Ok((_, records)) => {
                // A flipped length field can masquerade as a torn tail;
                // the recovered records must still be an intact prefix.
                let batches: Vec<&Vec<BatchEdit>> = records.iter().map(|(_, b)| b).collect();
                prop_assert!(batches.len() <= logged.len());
                prop_assert_eq!(
                    format!("{:?}", batches),
                    format!("{:?}", logged[..batches.len()].iter().collect::<Vec<_>>()),
                    "corrupted WAL replayed non-prefix data"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The bytes [`write_snapshot`] streams to a file for `live`.
fn streamed(live: &LiveValidator<'_, '_>, last_seq: u64) -> Vec<u8> {
    let dir = tempdir("streamed");
    let path = dir.join("snapshot.bin");
    write_snapshot(&path, live, last_seq).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

/// A snapshot whose tree section spans many of the writer's 64 KiB
/// buffers, taken after a delete (tombstoned rows) and an insert (rows
/// appended at the arena end): the streamed file equals the in-memory
/// encoding, and it loads back to the same report.
#[test]
fn a_large_snapshot_streams_the_bytes_it_encodes() {
    let dtdc = DtdC::new_unchecked(test_structure(), Language::Lid, test_sigma());
    let v = validator(&dtdc);
    // Values repeat across a few vertices at most, so the report stays
    // linear in the document.
    let mut b = TreeBuilder::new();
    let db = b.node("db");
    for i in 0..15_000u32 {
        let t = b.child_node(db, format!("t{}", i % 3)).unwrap();
        let single = |v: String| AttrValue::single(v);
        b.attr(t, "id", single(format!("i{i}"))).unwrap();
        b.attr(t, "a0", single(format!("a{}", i / 3))).unwrap();
        b.attr(t, "a1", single(format!("a{}", i / 4))).unwrap();
        b.attr(t, "r0", AttrValue::set([format!("i{}", i ^ 1)]))
            .unwrap();
        let r1 = [format!("s{}", i / 2), format!("s{}", i / 2 + 7)];
        b.attr(t, "r1", AttrValue::set(r1)).unwrap();
        b.leaf(t, format!("e{}", i % 2), format!("s{i}")).unwrap();
    }
    let fragment = (
        (1, Some(2), Some(3), None),
        (vec![1], vec![4, 5], vec![(1, 0)]),
    );
    let mut live = LiveValidator::new(&v, b.finish(db).unwrap());
    assert_eq!(live.tree().len(), 30_001);
    let root = live.tree().root();
    let doomed = live.tree().child_nodes(root).nth(4).unwrap();
    live.apply_batch(&[
        BatchEdit::DeleteSubtree { node: doomed },
        BatchEdit::InsertSubtree {
            parent: root,
            position: 0,
            fragment: build_fragment(&fragment),
        },
    ])
    .unwrap();

    let bytes = encode_snapshot(&live, 3);
    let (_, sections) = split_sections(&bytes);
    let tree_bytes = sections.iter().find(|s| s.0 == 1).unwrap().1.len();
    assert!(tree_bytes > 8 * (64 << 10), "a {tree_bytes} B tree section");
    assert!(streamed(&live, 3) == bytes, "the streamed file differs");
    let (state, last_seq) = decode_snapshot(&bytes).unwrap();
    assert_eq!(last_seq, 3);
    let warm = LiveValidator::from_state(&v, state).unwrap();
    assert_eq!(warm.report().violations, live.report().violations);
}

/// A fresh per-test scratch directory under the target dir.
fn tempdir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("xic-storage-test-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The daemon's crash window: a batch is appended to the WAL but the
/// process dies before (or during) propagation. Recovery replays it, and
/// the recovered report is byte-identical to scratch validation of the
/// post-batch document.
#[test]
fn crash_between_wal_append_and_propagation_recovers() {
    let dtdc = DtdC::new_unchecked(test_structure(), Language::Lid, test_sigma());
    let v = validator(&dtdc);
    let recipes: Vec<NodeRecipe> = vec![
        ((0, Some(1), Some(2), None), (vec![1], vec![], vec![(0, 3)])),
        ((1, Some(2), Some(3), Some(1)), (vec![], vec![2], vec![])),
    ];
    let mut live = LiveValidator::new(&v, build_tree(&recipes));

    let dir = tempdir("crash");
    let store = DocStore::open(&dir, FsyncPolicy::Always).unwrap();
    store.save("doc", &live).unwrap();
    let mut wal = store.open_wal("doc").unwrap();

    // The daemon acknowledges this batch: WAL first, then propagation —
    // but we "crash" before apply_batch ever runs.
    let t1 = live
        .tree()
        .node_ids()
        .find(|&x| live.tree().label(x).as_str() == "t1")
        .unwrap();
    let batch = vec![
        BatchEdit::SetAttr {
            node: t1,
            attr: "a0".into(),
            value: AttrValue::single("v9"),
        },
        BatchEdit::DeleteSubtree { node: t1 },
    ];
    wal.append(&batch).unwrap();
    drop(wal); // crash

    let rec = store.load("doc").unwrap().unwrap();
    assert_eq!(rec.batches.len(), 1, "the acknowledged batch replays");
    let mut warm = LiveValidator::from_state(&v, rec.state).unwrap();
    for b in &rec.batches {
        warm.apply_batch(b).unwrap();
    }
    // The ground truth: the same batch applied to the living validator.
    live.apply_batch(&batch).unwrap();
    assert_eq!(warm.report().violations, live.report().violations);
    assert_eq!(warm.report().violations, v.validate(warm.tree()).violations);
    std::fs::remove_dir_all(&dir).ok();
}

/// DocStore lifecycle: ids are validated, save resets the WAL, purge
/// removes everything.
#[test]
fn doc_store_lifecycle() {
    let dtdc = DtdC::new_unchecked(test_structure(), Language::Lid, test_sigma());
    let v = validator(&dtdc);
    let live = LiveValidator::new(&v, build_tree(&[]));

    let dir = tempdir("lifecycle");
    let store = DocStore::open(&dir, FsyncPolicy::Never).unwrap();
    assert!(store.doc_ids().unwrap().is_empty());
    assert!(store.load("absent").unwrap().is_none());
    for bad in ["", ".", "..", "a/b", "a\\b", "a b", "..evil/../x"] {
        assert!(store.save(bad, &live).is_err(), "id '{bad}' accepted");
    }

    store.save("doc-1", &live).unwrap();
    store.save("doc.2", &live).unwrap();
    assert_eq!(store.doc_ids().unwrap(), vec!["doc-1", "doc.2"]);

    // Log two batches, then save: the snapshot subsumes them.
    let mut wal = store.open_wal("doc-1").unwrap();
    wal.append(&[]).unwrap();
    wal.append(&[]).unwrap();
    assert_eq!(wal.records(), 2);
    drop(wal);
    store.save("doc-1", &live).unwrap();
    let rec = store.load("doc-1").unwrap().unwrap();
    assert!(rec.batches.is_empty(), "save did not reset the WAL");
    assert!(rec.wal.is_empty());

    store.purge("doc-1").unwrap();
    assert_eq!(store.doc_ids().unwrap(), vec!["doc.2"]);
    std::fs::remove_dir_all(&dir).ok();
}

/// The other crash window: a snapshot is published (stamped with the WAL's
/// last sequence) but the process dies before the log it subsumes is
/// emptied. The stale records — non-idempotent inserts — must be skipped
/// by sequence on recovery, never replayed onto state that already
/// contains them; and appends after recovery land above them, so only the
/// genuinely new batches replay on the boot after that.
#[test]
fn crash_between_snapshot_publication_and_wal_reset_skips_stale_records() {
    let dtdc = DtdC::new_unchecked(test_structure(), Language::Lid, test_sigma());
    let v = validator(&dtdc);
    let recipes: Vec<NodeRecipe> =
        vec![((0, Some(1), Some(2), None), (vec![1], vec![], vec![(0, 3)]))];
    let mut live = LiveValidator::new(&v, build_tree(&recipes));

    let dir = tempdir("stale-wal");
    let store = DocStore::open(&dir, FsyncPolicy::Always).unwrap();
    store.save("doc", &live).unwrap();
    let mut wal = store.open_wal("doc").unwrap();

    // Acknowledge an insert (replaying it twice would duplicate the
    // subtree and raise a key violation the living validator never saw).
    let insert: NodeRecipe = ((0, Some(1), None, None), (vec![], vec![], vec![]));
    let batch = vec![BatchEdit::InsertSubtree {
        parent: live.tree().root(),
        position: 0,
        fragment: build_fragment(&insert),
    }];
    wal.append(&batch).unwrap();
    live.apply_batch(&batch).unwrap();

    // The snapshot lands (atomic rename), the reset never does.
    write_snapshot(&store.snapshot_path("doc").unwrap(), &live, wal.last_seq()).unwrap();
    drop(wal); // crash

    let rec = store.load("doc").unwrap().unwrap();
    assert!(
        rec.batches.is_empty(),
        "a record subsumed by the snapshot was queued for replay"
    );
    let warm = LiveValidator::from_state(&v, rec.state).unwrap();
    assert_eq!(
        warm.report().violations,
        live.report().violations,
        "recovery diverged from the acknowledged pre-crash state"
    );

    // The recovered log appends above the stale record, so the next boot
    // replays exactly the post-snapshot work.
    let mut wal = rec.wal;
    let batch2 = vec![BatchEdit::SetAttr {
        node: live.tree().root(),
        attr: "a0".into(),
        value: AttrValue::single("v5"),
    }];
    let seq2 = wal.append(&batch2).unwrap();
    assert!(
        seq2 > rec.last_seq,
        "append did not clear the snapshot's sequence"
    );
    live.apply_batch(&batch2).unwrap();
    drop(wal);

    let rec2 = store.load("doc").unwrap().unwrap();
    assert_eq!(rec2.batches.len(), 1, "exactly the new batch replays");
    let mut warm = LiveValidator::from_state(&v, rec2.state).unwrap();
    for b in &rec2.batches {
        warm.apply_batch(b).unwrap();
    }
    assert_eq!(warm.report().violations, live.report().violations);
    assert_eq!(warm.report().violations, v.validate(warm.tree()).violations);
    std::fs::remove_dir_all(&dir).ok();
}

/// Sequence numbers in a WAL must strictly increase; a regression or a
/// duplicate is corruption, reported cleanly. Monotonically increasing
/// (even non-contiguous) sequences open fine, and the log then appends
/// above the highest one.
#[test]
fn non_increasing_wal_sequences_are_corruption() {
    // One raw record holding an encoded empty batch (a u64 zero count).
    let record = |seq: u64| -> Vec<u8> {
        let payload = 0u64.to_le_bytes();
        let mut covered = seq.to_le_bytes().to_vec();
        covered.extend_from_slice(&payload);
        let mut rec = (payload.len() as u64).to_le_bytes().to_vec();
        rec.extend_from_slice(&seq.to_le_bytes());
        rec.extend_from_slice(&crc32(&covered).to_le_bytes());
        rec.extend_from_slice(&payload);
        rec
    };
    let wal_with = |dir: &std::path::Path, seqs: &[u64]| -> std::path::PathBuf {
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&WAL_VERSION.to_le_bytes());
        for &s in seqs {
            bytes.extend_from_slice(&record(s));
        }
        let path = dir.join(format!("wal-{seqs:?}.log"));
        std::fs::write(&path, &bytes).unwrap();
        path
    };

    let dir = tempdir("wal-seq");
    for bad in [&[2u64, 1][..], &[1, 1], &[3, 5, 4]] {
        let path = wal_with(&dir, bad);
        match Wal::open(&path, FsyncPolicy::Never) {
            Err(StorageError::Corrupt { detail }) => {
                assert!(detail.contains("sequence"), "{detail}")
            }
            other => panic!("seqs {bad:?} must be corruption, got {other:?}"),
        }
    }

    let path = wal_with(&dir, &[3, 7]);
    let (mut wal, records) = Wal::open(&path, FsyncPolicy::Never).unwrap();
    assert_eq!(
        records.iter().map(|&(s, _)| s).collect::<Vec<_>>(),
        vec![3, 7]
    );
    assert_eq!(wal.last_seq(), 7);
    assert_eq!(wal.append(&[]).unwrap(), 8);
    std::fs::remove_dir_all(&dir).ok();
}

/// The fixed document of the snapshot format pin: single and set-valued
/// columns, a structural violation (a `t1` nested in a `t0`), and — after the
/// returned batch is applied — a tombstone.
fn pinned_tree() -> (DataTree, NodeId) {
    let mut b = TreeBuilder::new();
    let db = b.node("db");
    let t0 = b.child_node(db, "t0").unwrap();
    b.attr(t0, "id", AttrValue::single("v1")).unwrap();
    b.attr(t0, "a1", AttrValue::single("v2")).unwrap();
    b.attr(t0, "r0", AttrValue::set(["v4"])).unwrap();
    b.leaf(t0, "e0", "v0").unwrap();
    let nested = b.child_node(t0, "t1").unwrap();
    b.attr(nested, "a0", AttrValue::single("v2")).unwrap();
    let t1 = b.child_node(db, "t1").unwrap();
    b.attr(t1, "a0", AttrValue::single("v9")).unwrap();
    b.attr(t1, "r0", AttrValue::set(["v1"])).unwrap();
    b.leaf(t1, "e1", "v3").unwrap();
    let t2 = b.child_node(db, "t2").unwrap();
    b.attr(t2, "a1", AttrValue::single("v1")).unwrap();
    b.attr(t2, "r1", AttrValue::set(["v3", "v5"])).unwrap();
    let doomed = b.child_node(db, "t2").unwrap();
    b.attr(doomed, "r1", AttrValue::set(["v6"])).unwrap();
    b.leaf(doomed, "e1", "v7").unwrap();
    (b.finish(db).unwrap(), doomed)
}

/// [`pinned_tree`]'s snapshot at WAL sequence 7, in the current format
/// (v3). A change to the layout these bytes follow is a format change:
/// it needs a new `SNAPSHOT_VERSION`, and files written in the old
/// format must still load. The interner section is the document's value
/// pool, numbered in the order the tree was built; a change that only
/// renumbers symbols keeps the version, and the files written before it
/// must still load ([`PINNED_PLANNED_POOL_HEX`]).
const PINNED_SNAPSHOT_HEX: &str = concat!(
    "584943530300000005000000080000000000000070d6e76f0700000000000000",
    "010000008a0000000000000026d7c40a090001800100026462000303090d0001",
    "0274300102050703020261310102763203026964010276310402723001027634",
    "050265300201047630000602743102000107026130010276320601010b020701",
    "0276390401027631080265310501047633000902743201000202010276310a02",
    "72310202763302763509000111010a0102763608080104763700020000001d00",
    "000000000000a99c4e2012763176327634763076397633763576367637090404",
    "0404040404040403000000be00000000000000fb38a114080274300002613109",
    "0002000000000000000274300002696409000100000000000000027430010265",
    "3009000400000000000000027431000261300900000002050000000002743100",
    "0269640900000000000000000002743101026531090000000006000000000274",
    "3200026131090000000000000100000274320002696409000000000000000000",
    "0302743002723009000102000000000000000274310272300900000000010000",
    "0000000274320272310900000000000002050600000400000047000000000000",
    "006b07ae5d010000000000000001000000010000000000000002010000000200",
    "00000000000074300e00000000000000286530202b206531202b2053292a0600",
    "00000000000065302c207431",
);

/// The same snapshot as builds whose intern pool held only the planned
/// values, in live-extraction order, wrote it (format v3). It must keep
/// loading: [`pinned_planned_pool_snapshot_loads_and_rewrites`].
const PINNED_PLANNED_POOL_HEX: &str = concat!(
    "584943530300000005000000080000000000000070d6e76f0700000000000000",
    "010000008a0000000000000026d7c40a090001800100026462000303090d0001",
    "0274300102050703020261310102763203026964010276310402723001027634",
    "050265300201047630000602743102000107026130010276320601010b020701",
    "0276390401027631080265310501047633000902743201000202010276310a02",
    "72310202763302763509000111010a0102763608080104763700020000001a00",
    "000000000000562ed5d410763276317630763976337634763576360804040404",
    "0404040403000000be000000000000007360bade080274300002613109000100",
    "0000000000000274300002696409000200000000000000027430010265300900",
    "0300000000000000027431000261300900000001040000000002743100026964",
    "0900000000000000000002743101026531090000000005000000000274320002",
    "6131090000000000000200000274320002696409000000000000000000030274",
    "3002723009000105000000000000000274310272300900000000010100000000",
    "0274320272310900000000000002040600000400000047000000000000006b07",
    "ae5d010000000000000001000000010000000000000002010000000200000000",
    "00000074300e00000000000000286530202b206531202b2053292a0600000000",
    "00000065302c207431",
);

/// What [`PINNED_PLANNED_POOL_HEX`] and [`PINNED_V2_SNAPSHOT_HEX`]
/// re-encode to: their pool, then the tree values it lacked (the deleted
/// `t2`'s text `v7`), appended as the tree section decodes.
const PINNED_REWRITE_HEX: &str = concat!(
    "584943530300000005000000080000000000000070d6e76f0700000000000000",
    "010000008a0000000000000026d7c40a090001800100026462000303090d0001",
    "0274300102050703020261310102763203026964010276310402723001027634",
    "050265300201047630000602743102000107026130010276320601010b020701",
    "0276390401027631080265310501047633000902743201000202010276310a02",
    "72310202763302763509000111010a0102763608080104763700020000001d00",
    "0000000000007d4bc44112763276317630763976337634763576367637090404",
    "0404040404040403000000be000000000000007360bade080274300002613109",
    "0001000000000000000274300002696409000200000000000000027430010265",
    "3009000300000000000000027431000261300900000001040000000002743100",
    "0269640900000000000000000002743101026531090000000005000000000274",
    "3200026131090000000000000200000274320002696409000000000000000000",
    "0302743002723009000105000000000000000274310272300900000000010100",
    "0000000274320272310900000000000002040600000400000047000000000000",
    "006b07ae5d010000000000000001000000010000000000000002010000000200",
    "00000000000074300e00000000000000286530202b206531202b2053292a0600",
    "00000000000065302c207431",
);

/// The same snapshot in format v2, as builds before v3 wrote it. It must
/// keep loading: [`pinned_v2_snapshot_loads_and_rewrites_as_v3`].
const PINNED_V2_SNAPSHOT_HEX: &str = concat!(
    "584943530200000005000000080000000000000070d6e76f0700000000000000",
    "0100000067020000000000009162217d09000000000000000000000001800102",
    "0000000000000064620000000003000000000000000101000000010400000001",
    "0600000000000000000000000200000000000000743001000000020000000000",
    "0000010200000001030000000300000000000000020000000000000061310100",
    "0000000000000200000000000000763202000000000000006964010000000000",
    "0000020000000000000076310200000000000000723001000000000000000200",
    "0000000000007634020000000000000065300200000001000000000000000002",
    "0000000000000076300000000000000000020000000000000074310200000000",
    "0000000000000001000000000000000200000000000000613001000000000000",
    "0002000000000000007632020000000000000074310100000001000000000000",
    "0001050000000200000000000000020000000000000061300100000000000000",
    "0200000000000000763902000000000000007230010000000000000002000000",
    "0000000076310200000000000000653105000000010000000000000000020000",
    "0000000000763300000000000000000200000000000000743201000000000000",
    "0000000000020000000000000002000000000000006131010000000000000002",
    "0000000000000076310200000000000000723102000000000000000200000000",
    "0000007633020000000000000076350200000000000000743200000000010000",
    "0000000000010800000001000000000000000200000000000000723101000000",
    "0000000002000000000000007636020000000000000065310800000001000000",
    "0000000000020000000000000076370000000000000000020000006000000000",
    "000000791c253210000000000000007632763176307639763376347635763608",
    "0000000000000000000000020000000200000002000000040000000200000006",
    "0000000200000008000000020000000a000000020000000c000000020000000e",
    "00000002000000030000005403000000000000d9c9124c080000000000000002",
    "0000000000000074300002000000000000006131090000000000000000000000",
    "0100000000000000000000000000000000000000000000000000000000000000",
    "0200000000000000743000020000000000000069640900000000000000000000",
    "0002000000000000000000000000000000000000000000000000000000000000",
    "0002000000000000007430010200000000000000653009000000000000000000",
    "0000030000000000000000000000000000000000000000000000000000000000",
    "0000020000000000000074310002000000000000006130090000000000000000",
    "0000000000000000000000010000000400000000000000000000000000000000",
    "0000000200000000000000743100020000000000000069640900000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000002000000000000007431010200000000000000653109000000000000",
    "0000000000000000000000000000000000050000000000000000000000000000",
    "0000000000020000000000000074320002000000000000006131090000000000",
    "0000000000000000000000000000000000000000000000000000020000000000",
    "0000000000000200000000000000743200020000000000000069640900000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000003000000000000000200000000000000743002000000000000",
    "0072300900000000000000000000000000000001000000000000000500000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000020000000000000074",
    "3102000000000000007230090000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000001000000000000000100000000",
    "0000000000000000000000000000000000000000000000000000000000000002",
    "0000000000000074320200000000000000723109000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000020000000000000004000000060000000000000000",
    "00000000000000000000000400000047000000000000006b07ae5d0100000000",
    "0000000100000001000000000000000201000000020000000000000074300e00",
    "000000000000286530202b206531202b2053292a060000000000000065302c20",
    "7431",
);

/// [`pinned_tree`] loaded into a live validator, its doomed subtree
/// deleted.
fn pinned_live<'v>(v: &'v Validator<'v>) -> LiveValidator<'v, 'v> {
    let (tree, doomed) = pinned_tree();
    let mut live = LiveValidator::new(v, tree);
    live.apply_batch(&[BatchEdit::DeleteSubtree { node: doomed }])
        .unwrap();
    assert!(!live.tree().is_alive(doomed));
    live
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

/// The snapshot format is pinned: a live validator's state encodes to the
/// exact bytes of [`PINNED_SNAPSHOT_HEX`], whether it is written straight
/// from the validator or from an exported copy.
#[test]
fn snapshot_bytes_match_the_pinned_format() {
    let dtdc = DtdC::new_unchecked(test_structure(), Language::Lid, test_sigma());
    let v = validator(&dtdc);
    let live = pinned_live(&v);
    assert!(
        live.report()
            .violations
            .iter()
            .any(|x| matches!(x, Violation::ContentModel { .. })),
        "the fixture carries a structural violation"
    );
    let bytes = encode_snapshot(&live, 7);
    assert_eq!(&bytes[4..8], &SNAPSHOT_VERSION.to_le_bytes());
    assert_eq!(hex(&bytes), PINNED_SNAPSHOT_HEX);
    assert_eq!(
        hex(&encode_snapshot(&live.export_state(), 7)),
        PINNED_SNAPSHOT_HEX
    );
    let (state, last_seq) = decode_snapshot(&bytes).unwrap();
    assert_eq!(last_seq, 7);
    let warm = LiveValidator::from_state(&v, state).unwrap();
    assert_eq!(warm.report().to_string(), live.report().to_string());
}

/// A snapshot written in format v2 still loads: the state it decodes to
/// rebuilds a validator with the fixture's report, and writing it again
/// gives the pinned v3 re-encoding.
#[test]
fn pinned_v2_snapshot_loads_and_rewrites_as_v3() {
    let dtdc = DtdC::new_unchecked(test_structure(), Language::Lid, test_sigma());
    let v = validator(&dtdc);
    let live = pinned_live(&v);
    let v2 = unhex(PINNED_V2_SNAPSHOT_HEX);
    assert_eq!(&v2[4..8], &2u32.to_le_bytes());
    let (state, last_seq) = decode_snapshot(&v2).unwrap();
    assert_eq!(last_seq, 7);
    assert_eq!(hex(&encode_snapshot(&state, 7)), PINNED_REWRITE_HEX);
    let warm = LiveValidator::from_state(&v, state).unwrap();
    assert_eq!(warm.report().to_string(), live.report().to_string());
    assert_eq!(hex(&encode_snapshot(&warm, 7)), PINNED_REWRITE_HEX);
}

/// A v3 snapshot whose pool held only the planned values still loads:
/// its symbols keep their numbers, the tree's other values join the pool
/// behind them, the validator it rebuilds has the fixture's report, and
/// writing it again gives the pinned re-encoding, which itself decodes
/// and re-encodes to the same bytes.
#[test]
fn pinned_planned_pool_snapshot_loads_and_rewrites() {
    let dtdc = DtdC::new_unchecked(test_structure(), Language::Lid, test_sigma());
    let v = validator(&dtdc);
    let live = pinned_live(&v);
    let (state, last_seq) = decode_snapshot(&unhex(PINNED_PLANNED_POOL_HEX)).unwrap();
    assert_eq!(last_seq, 7);
    assert_eq!(hex(&encode_snapshot(&state, 7)), PINNED_REWRITE_HEX);
    let warm = LiveValidator::from_state(&v, state).unwrap();
    assert_eq!(warm.report().to_string(), live.report().to_string());
    assert_eq!(hex(&encode_snapshot(&warm, 7)), PINNED_REWRITE_HEX);
    let (again, _) = decode_snapshot(&unhex(PINNED_REWRITE_HEX)).unwrap();
    assert_eq!(hex(&encode_snapshot(&again, 7)), PINNED_REWRITE_HEX);
}

/// A snapshot's 8-byte header (magic, version) and its `(tag, payload)`
/// sections, in file order.
fn split_sections(bytes: &[u8]) -> (Vec<u8>, Vec<(u32, Vec<u8>)>) {
    let word = |at: usize, n: usize| -> u64 {
        let mut le = [0u8; 8];
        le[..n].copy_from_slice(&bytes[at..at + n]);
        u64::from_le_bytes(le)
    };
    let mut sections = Vec::new();
    let mut at = 8;
    while at < bytes.len() {
        let (tag, len) = (word(at, 4) as u32, word(at + 4, 8) as usize);
        sections.push((tag, bytes[at + 16..at + 16 + len].to_vec()));
        at += 16 + len;
    }
    (bytes[..8].to_vec(), sections)
}

/// Joins a header and sections into a snapshot, stamping each section
/// with its length and a fresh CRC — so a payload edited after the fact
/// reaches the section decoders instead of failing its checksum.
fn join_sections(header: &[u8], sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut out = header.to_vec();
    for (tag, payload) in sections {
        out.extend_from_slice(&tag.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
    }
    out
}

/// An unsigned LEB128 varint, as snapshot v3 writes its integers.
fn leb(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

/// A second copy of any section, each with a valid CRC, is corruption in
/// both formats; before, the decoder silently kept the last copy. The v3
/// case appends a *different* valid tree (an empty document's), which
/// would otherwise have replaced the fixture's.
#[test]
fn repeated_sections_are_corruption() {
    let dtdc = DtdC::new_unchecked(test_structure(), Language::Lid, test_sigma());
    let v = validator(&dtdc);
    let empty = encode_snapshot(&LiveValidator::new(&v, build_tree(&[])), 7);
    let (_, empty_sections) = split_sections(&empty);
    for pin in [PINNED_SNAPSHOT_HEX, PINNED_V2_SNAPSHOT_HEX] {
        let bytes = unhex(pin);
        let (header, sections) = split_sections(&bytes);
        assert_eq!(join_sections(&header, &sections), bytes);
        assert_eq!(sections.len(), 5);
        for i in 0..sections.len() {
            let mut twice = sections.clone();
            let copy = if pin == PINNED_SNAPSHOT_HEX {
                empty_sections[i].clone()
            } else {
                sections[i].clone()
            };
            twice.insert(i + 1, copy);
            match decode_snapshot(&join_sections(&header, &twice)) {
                Err(StorageError::Corrupt { detail }) => {
                    assert!(detail.contains("twice"), "{detail}")
                }
                other => panic!(
                    "section {} repeated must be corruption, got {other:?}",
                    sections[i].0
                ),
            }
        }
    }
}

/// Hand-made v3 tree payloads with a valid CRC: a varint past u64, one
/// past u32 where a node id goes, a slot count larger than the remaining
/// bytes, and a name id past the dictionary. Each is a clean `Corrupt`
/// that names the fault.
#[test]
fn hostile_v3_tree_payloads_are_corrupt() {
    let (header, sections) = split_sections(&unhex(PINNED_SNAPSHOT_HEX));
    let at = sections.iter().position(|s| s.0 == 1).unwrap();
    let tree = &sections[at].1;
    // Slot count, root id, tombstone flag + bitmap, then the first
    // label: a new dictionary id 0 spelled "db".
    let (slots, label) = (tree[0] as usize, 3 + (tree[0] as usize).div_ceil(8));
    assert!(slots < 0x80 && tree[1] == 0 && tree[2] == 1);
    assert_eq!(&tree[label..label + 4], &[0, 2, b'd', b'b']);
    let over_u64 = [&[0xff; 9][..], &[0x02]].concat();
    let cases: [(std::ops::Range<usize>, Vec<u8>, &str); 4] = [
        (0..1, over_u64, "varint overflows u64"),
        (1..2, leb(1 << 32), "varint overflows u32"),
        (0..1, leb(1 << 40), "length exceeds remaining input"),
        (label..label + 1, leb(1), "name id past the dictionary"),
    ];
    for (range, with, want) in cases {
        let mut hostile = sections.clone();
        hostile[at].1.splice(range, with);
        match decode_snapshot(&join_sections(&header, &hostile)) {
            Err(StorageError::Corrupt { detail }) => assert!(detail.contains(want), "{detail}"),
            other => panic!("{want}: got {other:?}"),
        }
    }
}

/// The single-valued columns of a v3 columns payload whose varints all
/// fit one byte, as `(column name, offset of its first cell, cell
/// count)`: cell `x` is then the byte at offset `first + x`.
fn single_columns(payload: &[u8]) -> Vec<(String, usize, usize)> {
    let byte = |at: &mut usize| {
        let b = payload[*at];
        assert!(b < 0x80, "a varint longer than one byte");
        *at += 1;
        b as usize
    };
    let text = |at: &mut usize| {
        let len = byte(at);
        *at += len;
        String::from_utf8_lossy(&payload[*at - len..*at]).into_owned()
    };
    let mut at = 0;
    let mut columns = Vec::new();
    for _ in 0..byte(&mut at) {
        let tau = text(&mut at);
        let attr = if byte(&mut at) == 0 { "@" } else { "" };
        let field = text(&mut at);
        let cells = byte(&mut at);
        columns.push((format!("({tau}, {attr}{field})"), at, cells));
        for _ in 0..cells {
            byte(&mut at);
        }
    }
    columns
}

/// A value among a column's per-vertex cells at a vertex outside the
/// column's extent — a live vertex of another label, or a dead one — has
/// no row to sit in. A v3 file carrying one, with a valid CRC, decodes as
/// `Corrupt`, naming the column and the vertex. Before columns became
/// extent rows, such a file decoded and `from_state` rejected the state.
#[test]
fn cells_outside_a_columns_extent_are_corrupt() {
    let (header, sections) = split_sections(&unhex(PINNED_SNAPSHOT_HEX));
    let at = sections.iter().position(|s| s.0 == 3).unwrap();
    let columns = single_columns(&sections[at].1);
    // In the pinned tree n4 is a live t1, and n7, a t2, was deleted.
    let cases = [
        (
            "(t0, @a1)",
            4,
            "has a value at n4, a t1 vertex outside ext(t0)",
        ),
        ("(t2, @a1)", 7, "has a value at dead vertex n7"),
    ];
    for (column, x, want) in cases {
        let (_, first, cells) = (columns.iter().find(|c| c.0 == column))
            .unwrap_or_else(|| panic!("no column {column} in {columns:?}"));
        assert!(x < *cells);
        let mut hostile = sections.clone();
        assert_eq!(hostile[at].1[first + x], 0, "{column} is empty at n{x}");
        hostile[at].1[first + x] = 1;
        match decode_snapshot(&join_sections(&header, &hostile)) {
            Err(StorageError::Corrupt { detail }) => {
                assert!(
                    detail.contains(&format!("column {column} {want}")),
                    "{detail}"
                )
            }
            other => panic!("{column} at n{x}: {other:?}"),
        }
    }
}

/// A column cell naming a symbol the document's pool does not hold, with
/// a valid CRC, decodes as `Corrupt`, naming the column, the vertex and
/// the pool's size; so does a pool section whose spans break the pool.
#[test]
fn symbols_outside_the_pool_are_corrupt() {
    let (header, sections) = split_sections(&unhex(PINNED_SNAPSHOT_HEX));
    let at = sections.iter().position(|s| s.0 == 3).unwrap();
    let columns = single_columns(&sections[at].1);
    // n1 is the pinned tree's one t0; its `a1` cell holds a symbol.
    let (_, first, _) = columns.iter().find(|c| c.0 == "(t0, @a1)").unwrap();
    let mut hostile = sections.clone();
    assert_ne!(hostile[at].1[first + 1], 0, "(t0, @a1) holds a value at n1");
    hostile[at].1[first + 1] = 0x7f;
    match decode_snapshot(&join_sections(&header, &hostile)) {
        Err(StorageError::Corrupt { detail }) => assert!(
            detail.contains("column (t0, @a1) cell n1 references symbol 126 of a pool holding 9"),
            "{detail}"
        ),
        other => panic!("a symbol outside the pool: {other:?}"),
    }
    // A pool whose two spans spell one string is no pool: the last span,
    // one byte `len << 1` (len 2), becomes `len << 1 | 1` and a zigzag gap
    // of -2, so it starts where the one before it did.
    let pool = sections.iter().position(|s| s.0 == 2).unwrap();
    let mut hostile = sections.clone();
    let payload = &mut hostile[pool].1;
    assert_eq!(payload.pop(), Some(0x04));
    payload.extend([0x05, 0x03]);
    match decode_snapshot(&join_sections(&header, &hostile)) {
        Err(StorageError::Corrupt { detail }) => assert!(detail.contains("interner"), "{detail}"),
        other => panic!("a broken pool: {other:?}"),
    }
}

/// One hostile edit of a section payload: cut it short, overwrite bytes,
/// or splice in a crafted varint.
#[derive(Debug, Clone)]
enum Hostile {
    Truncate(u16),
    Overwrite(u16, Vec<u8>),
    Splice(u16, u8),
}

fn hostile() -> BoxedStrategy<Hostile> {
    prop_oneof![
        any::<u16>().prop_map(Hostile::Truncate),
        (any::<u16>(), prop::collection::vec(any::<u8>(), 1..4))
            .prop_map(|(at, bytes)| Hostile::Overwrite(at, bytes)),
        (any::<u16>(), any::<u8>()).prop_map(|(at, kind)| Hostile::Splice(at, kind)),
    ]
    .boxed()
}

/// The varints [`Hostile::Splice`] inserts: past u64, past u32, a count
/// far beyond any payload, a likely dictionary miss, and a cut-off one.
fn crafted(kind: u8) -> Vec<u8> {
    match kind % 5 {
        0 => [&[0xff; 9][..], &[0x7f]].concat(),
        1 => leb(1 << 32),
        2 => leb(1 << 40),
        3 => leb(200),
        _ => vec![0x80; 3],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A hostile edit inside one section's payload, re-stamped with a valid
    /// CRC so it gets past the checksum, decodes to `Ok` or a clean
    /// `Corrupt`/`Format` error — never a panic or an allocation abort —
    /// in both formats. A state that does decode must also be rejected or
    /// accepted cleanly by `from_state`.
    #[test]
    fn hostile_section_payloads_fail_cleanly(
        nodes in prop::collection::vec(node_recipe(), 0..8),
        v2 in any::<bool>(),
        section in 0usize..5,
        edit in hostile(),
    ) {
        let dtdc = DtdC::new_unchecked(test_structure(), Language::Lid, test_sigma());
        let v = validator(&dtdc);
        let bytes = if v2 {
            unhex(PINNED_V2_SNAPSHOT_HEX)
        } else {
            encode_snapshot(&LiveValidator::new(&v, build_tree(&nodes)), 0)
        };
        let (header, mut sections) = split_sections(&bytes);
        let payload = &mut sections[section].1;
        let at = |pos: u16| pos as usize % (payload.len() + 1);
        match &edit {
            Hostile::Truncate(pos) => payload.truncate(at(*pos)),
            Hostile::Overwrite(pos, with) => {
                let start = at(*pos);
                let end = (start + with.len()).min(payload.len());
                payload.splice(start..end, with.iter().copied());
            }
            Hostile::Splice(pos, kind) => {
                let start = at(*pos);
                payload.splice(start..start, crafted(*kind));
            }
        }
        match decode_snapshot(&join_sections(&header, &sections)) {
            Ok((state, _)) => {
                let _ = LiveValidator::from_state(&v, state);
            }
            Err(StorageError::Corrupt { .. }) | Err(StorageError::Format { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error class: {e}"),
        }
    }
}
