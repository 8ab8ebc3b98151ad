//! E12 — the streaming validation pipeline against parse-then-validate
//! on the E11 workload serialized to XML (DTD as internal subset; see
//! `constraint_heavy_workload`).
//!
//! Three series per document size:
//!
//! * `tree` — `parse_document` into a `DataTree`, then `validate`: the
//!   two-pass baseline whose working set includes the whole tree.
//! * `stream_t1` — `validate_stream`, the fused single pass (event parser
//!   drives the matcher automata and fills the constraint columns; live
//!   state is O(depth) plus the columns).
//! * `stream_t2` — the same pass at a 2-thread budget, which only fans
//!   out the final constraint pass (byte-identical reports).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use xic::prelude::*;
use xic_bench::constraint_heavy_workload;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_stream");
    group.sample_size(10);
    for n in [10_000usize, 100_000, 1_000_000] {
        let (dtdc, tree) = constraint_heavy_workload(n, 11);
        let nodes = tree.len();
        let src = format!(
            "<!DOCTYPE db [\n{}]>\n{}",
            serialize_dtd(dtdc.structure()),
            serialize_document(&tree)
        );
        drop(tree);
        group.throughput(Throughput::Elements(nodes as u64));
        let v = Validator::with_options(&dtdc, Options::default());
        group.bench_with_input(BenchmarkId::new("tree", n), &n, |b, _| {
            b.iter(|| {
                let doc = parse_document(&src).unwrap();
                assert!(v.validate(&doc.tree).is_valid());
            })
        });
        for threads in [1usize, 2] {
            let v = Validator::with_options(&dtdc, Options::default().with_threads(threads));
            group.bench_with_input(
                BenchmarkId::new(format!("stream_t{threads}"), n),
                &n,
                |b, _| b.iter(|| assert!(v.validate_stream(&src).unwrap().is_valid())),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
