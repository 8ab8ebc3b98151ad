//! E11 — the compiled constraint engine (one-pass shared field
//! extraction, optional thread fan-out) against the naive per-constraint
//! checker on a constraint-heavy document (10 `L_u` constraints over
//! shared fields; see `constraint_heavy_workload`).
//!
//! Three series per document size:
//!
//! * `per_constraint` — loop `check_constraint` over Σ (re-walks the tree
//!   and re-extracts every field per constraint): the seed baseline.
//! * `engine_t1` — the compiled engine, sequential.
//! * `engine_t2` / `engine_t4` — the compiled engine with the extent scans
//!   fanned out across worker threads (byte-identical reports).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use xic::prelude::*;
use xic_bench::constraint_heavy_workload;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_validate_engine");
    group.sample_size(10);
    for n in [10_000usize, 100_000, 1_000_000] {
        let (dtdc, tree) = constraint_heavy_workload(n, 11);
        group.throughput(Throughput::Elements(tree.len() as u64));
        group.bench_with_input(BenchmarkId::new("per_constraint", n), &n, |b, _| {
            b.iter(|| {
                let violations: usize = dtdc
                    .constraints()
                    .iter()
                    .map(|c| check_constraint(&tree, &dtdc, c).len())
                    .sum();
                assert_eq!(violations, 0);
            })
        });
        for threads in [1usize, 2, 4] {
            let v = Validator::with_options(&dtdc, Options::default().with_threads(threads));
            group.bench_with_input(
                BenchmarkId::new(format!("engine_t{threads}"), n),
                &n,
                |b, _| b.iter(|| assert!(v.validate_constraints(&tree).is_valid())),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
