//! E10 (Fig. 2, §2.4) — Definition 2.4 validation throughput on the
//! paper's document families, XML parsing throughput, and the
//! content-model matcher ablation (E10b).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use xic::prelude::*;
use xic_bench::{child_words, company_workload, publishers_workload};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_validate");
    group.sample_size(20);
    for n in [100usize, 1000, 5000] {
        let (dtdc, tree) = company_workload(n, 1);
        let validator = Validator::new(&dtdc);
        group.throughput(Throughput::Elements(tree.len() as u64));
        group.bench_with_input(BenchmarkId::new("company", n), &n, |b, _| {
            b.iter(|| assert!(validator.validate(&tree).is_valid()))
        });
    }
    for n in [100usize, 1000, 5000] {
        let (dtdc, tree) = publishers_workload(n, 2);
        let validator = Validator::new(&dtdc);
        group.throughput(Throughput::Elements(tree.len() as u64));
        group.bench_with_input(BenchmarkId::new("relational", n), &n, |b, _| {
            b.iter(|| assert!(validator.validate(&tree).is_valid()))
        });
    }
    // Ablation E10a: compile-once validator reuse vs per-document
    // recompilation of every content-model DFA.
    {
        let (dtdc, tree) = company_workload(1000, 5);
        let reused = Validator::new(&dtdc);
        group.throughput(Throughput::Elements(tree.len() as u64));
        group.bench_function(BenchmarkId::new("validator", "reused"), |b| {
            b.iter(|| assert!(reused.validate(&tree).is_valid()))
        });
        group.bench_function(BenchmarkId::new("validator", "fresh"), |b| {
            b.iter(|| assert!(Validator::new(&dtdc).validate(&tree).is_valid()))
        });
    }

    // Ablation E10b: the three content-model matchers of `xic-regex` on
    // the child words of one document.
    let (dtdc, tree) = company_workload(2000, 79);
    let (models, words) = child_words(&dtdc, &tree);
    let dfas: Vec<Dfa> = models.iter().map(Dfa::from_model).collect();
    let nfas: Vec<Nfa> = models.iter().map(Nfa::build).collect();
    let symbols: usize = words.iter().map(|(_, w)| w.len()).sum();
    group.throughput(Throughput::Elements(symbols as u64));
    group.bench_function(BenchmarkId::new("matcher", "dfa"), |b| {
        b.iter(|| assert!(words.iter().all(|(i, w)| dfas[*i].matches(w))))
    });
    group.bench_function(BenchmarkId::new("matcher", "nfa"), |b| {
        b.iter(|| assert!(words.iter().all(|(i, w)| nfas[*i].matches(w))))
    });
    // One derivative pass over this document takes seconds.
    group.sample_size(2);
    group.bench_function(BenchmarkId::new("matcher", "derivative"), |b| {
        b.iter(|| assert!(words.iter().all(|(i, w)| models[*i].matches_derivative(w))))
    });
    group.sample_size(20);
    // XML parse throughput.
    let (dtdc, tree) = company_workload(2000, 4);
    let xml = format!(
        "<!DOCTYPE db [\n{}]>\n{}",
        serialize_dtd(dtdc.structure()),
        serialize_document(&tree)
    );
    group.throughput(Throughput::Bytes(xml.len() as u64));
    group.bench_function("xml_parse", |b| {
        b.iter(|| parse_document(&xml).unwrap().tree.len())
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
