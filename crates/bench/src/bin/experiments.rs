//! Reproduces experiments E1–E20 (see EXPERIMENTS.md): every theorem,
//! proposition and figure of Fan & Siméon (PODS 2000) as an executable
//! check with measured scaling, plus the compiled-engine study E11, the
//! streaming-pipeline study E12, the incremental-revalidation study E13,
//! the batch-edit/bulk-init study E17, the multi-tenant serve load
//! study E18, the durable-state warm-start study E19 and the
//! observability-overhead study E20.
//!
//! ```text
//! cargo run --release -p xic-bench --bin experiments [--smoke] [e1 e5 e11 ...]
//! ```
//!
//! With no arguments every experiment runs; otherwise only the named ones
//! (by id: `e1` … `e20`). `--smoke` restricts the document-scaling
//! experiments (E11/E12/E13/E15/E16/E17/E18/E19/E20) to one size so CI can run
//! them as a fast correctness check; under `--smoke`, E12 and E16 also fail
//! if measured streaming throughput drops below 0.8× the committed
//! `BENCH_validate.json` row for that size, and E17 fails if batched edits
//! fall below 2× the sequential per-edit loop at batch ≥ 100 or bulk init
//! exceeds 4× a full validation (the bench-regression gates). E18 drives
//! the multi-tenant `xic serve` daemon with an in-process load generator
//! and (on multi-core hosts, in either mode) asserts 4 docs × 4 clients
//! sustain ≥2× the serialized 1×1 aggregate edit throughput.
//! E19 gates the durable-state path: rebuilding validator state from a
//! decoded snapshot at ≤0.25× a cold boot at 10⁶ vertices (≤0.3× at the
//! smoke size), the end-to-end warm boot at ≤0.8× the cold boot, and
//! torn-tail crash recovery asserted byte-identical.
//! E20 gates the observability layer itself: the E18 load with the span
//! ring, request scoping and a sampled-at-1 access log enabled must
//! sustain ≥0.9× the untraced throughput, and one traced request's
//! drained `GET /trace` must stitch the accept → queue wait → route →
//! shard dispatch → batch → WAL append chain under a single request id.
//! E11, E12, E13, E16, E17, E18, E19 and E20 additionally record their
//! measured rows; when any of them runs, the merged baseline is written to
//! `target/BENCH_validate.json` (copy it over the tracked
//! `BENCH_validate.json` at the repository root to refresh the committed
//! baselines).
//!
//! Output format: one section per experiment with the paper's claim, the
//! correctness assertions (panics if any fails), and measured timing rows.
//! Linear-time claims are validated by the growth ratio between successive
//! problem-size doublings (≈2 for linear algorithms; constant-factor noise
//! is expected at small sizes).
//!
//! The binary installs a counting global allocator so E12 can report peak
//! heap above a baseline (the honest cost of each validation path, source
//! text excluded) without any platform-specific RSS probing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use xic::implication::chase::ChaseLimits;
use xic::implication::lu::Mode;
use xic::prelude::*;
use xic_bench::*;

// Counting global allocator: tracks live/peak heap bytes and heap
// acquisitions through the process-wide [`xic::obs::alloc`] hooks, so E12
// can report peak heap per validation path (`reset_peak` / `peak_above`)
// and E16 can count acquisitions per node. Only binaries install it; the
// library crates stay `forbid(unsafe_code)`.
xic::obs::install_counting_alloc!();

use xic::obs::alloc as mem;

/// `--smoke`: clamp the scaling experiments to their smallest document
/// size (CI gate).
static SMOKE: AtomicBool = AtomicBool::new(false);

/// JSON fragments registered by experiments, merged into
/// `BENCH_validate.json` by `main` (key, JSON object source).
static SECTIONS: Mutex<Vec<(&'static str, String)>> = Mutex::new(Vec::new());

fn register_section(key: &'static str, json: String) {
    SECTIONS.lock().unwrap().push((key, json));
}

/// The document sizes E11/E12 sweep; `--smoke` keeps only the first.
fn scaling_sizes() -> &'static [usize] {
    if SMOKE.load(Ordering::Relaxed) {
        &[10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    }
}

fn main() {
    let mut filters: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = filters.iter().position(|f| f == "--smoke") {
        filters.remove(i);
        SMOKE.store(true, Ordering::Relaxed);
    }
    let experiments: [(&str, fn()); 20] = [
        ("e1", e1_lid_linear),
        ("e2", e2_lu_linear_and_divergence),
        ("e3", e3_primary_coincide),
        ("e4", e4_chase_undecidability),
        ("e5", e5_lp_decidable),
        ("e6", e6_path_functional),
        ("e7", e7_path_inclusion),
        ("e8", e8_path_inverse),
        ("e9", e9_fo2_figure1),
        ("e10", e10_validation),
        ("e11", e11_validate_engine),
        ("e12", e12_stream_pipeline),
        ("e13", e13_incremental_revalidate),
        ("e14", e14_obs_overhead),
        ("e15", e15_telemetry_overhead),
        ("e16", e16_raw_speed),
        ("e17", e17_batch_propagation),
        ("e18", e18_serve_load),
        ("e19", e19_warm_start),
        ("e20", e20_obs_overhead),
    ];
    let known: Vec<&str> = experiments.iter().map(|(id, _)| *id).collect();
    for f in &filters {
        assert!(
            known.contains(&f.as_str()),
            "unknown experiment {f:?} (known: {})",
            known.join(", ")
        );
    }
    let mut ran = 0usize;
    for (id, run) in experiments {
        if filters.is_empty() || filters.iter().any(|f| f == id) {
            run();
            ran += 1;
        }
    }
    let sections = SECTIONS.lock().unwrap();
    if !sections.is_empty() {
        let body = sections
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(",\n");
        let json = format!("{{\n{body}\n}}\n");
        // Scratch output lives under target/ so a run never dirties the
        // working tree; the tracked copy at the repo root is refreshed
        // deliberately.
        std::fs::create_dir_all("target").expect("create target/");
        std::fs::write("target/BENCH_validate.json", &json)
            .expect("write target/BENCH_validate.json");
        println!("\nbaselines written to target/BENCH_validate.json");
    }
    println!("\n{ran} experiment(s) completed with every assertion passing.");
}

fn heading(id: &str, claim: &str) {
    println!("\n════ {id} ════");
    println!("claim: {claim}");
}

/// E1 — Prop 3.1: `I_id` decides (finite) implication of `L_id` in linear
/// time.
fn e1_lid_linear() {
    heading(
        "E1 (Prop 3.1)",
        "L_id implication and finite implication decidable in linear time",
    );
    let mut r = rng(11);
    let mut prev: Option<f64> = None;
    for n in [1000usize, 2000, 4000, 8000, 16000] {
        let sigma = lid_sigma(n, &mut r);
        let queries = lid_queries(n);
        let t = time_min(5, || {
            let solver = LidSolver::new(&sigma, None);
            for q in &queries {
                std::hint::black_box(solver.holds(q));
            }
        });
        let ratio = prev.map(|p| t / p).unwrap_or(f64::NAN);
        println!(
            "  |Σ| = {n:6}   closure+queries = {:8.3} ms   per-constraint = {:6.1} ns   growth ×{ratio:.2}",
            t * 1e3,
            t * 1e9 / n as f64
        );
        prev = Some(t);
    }
    // Correctness spot-check on the paper's Σ_o.
    let d = xic::constraints::examples::company_dtdc();
    let solver = LidSolver::new(d.constraints(), Some(d.structure()));
    assert!(solver
        .implies(&Constraint::Id {
            tau: "person".into()
        })
        .is_implied());
}

/// E2 — Thm 3.2 / Cor 3.3: `I_u`/`I_u^f` decide in linear time; the two
/// problems differ.
fn e2_lu_linear_and_divergence() {
    heading(
        "E2 (Thm 3.2, Cor 3.3)",
        "L_u implication linear time; implication ≠ finite implication",
    );
    let mut prev: Option<f64> = None;
    for n in [500usize, 1000, 2000, 4000, 8000] {
        let (sigma, phi) = lu_chain(n);
        let t = time_min(5, || {
            let solver = LuSolver::new(&sigma).unwrap();
            assert!(solver.decide(&phi, Mode::Unrestricted).unwrap());
            assert!(solver.decide(&phi, Mode::Finite).unwrap());
        });
        let t_proof = time_min(5, || {
            let solver = LuSolver::new(&sigma).unwrap();
            let v = solver.implies(&phi, Mode::Unrestricted).unwrap();
            assert!(v.is_implied());
        });
        let ratio = prev.map(|p| t / p).unwrap_or(f64::NAN);
        println!(
            "  chain n = {n:5}   build+decide = {:8.3} ms (growth ×{ratio:.2})   with proof = {:8.3} ms",
            t * 1e3,
            t_proof * 1e3
        );
        prev = Some(t);
    }
    // Divergence (scaled): finitely implied, not unrestrictedly implied,
    // with a verified C_k derivation.
    for n in [1usize, 8, 64] {
        let (sigma, phi) = lu_cycle_family(n);
        let solver = LuSolver::new(&sigma).unwrap();
        let fin = solver.implies(&phi, Mode::Finite).unwrap();
        let unr = solver.implies(&phi, Mode::Unrestricted).unwrap();
        assert!(fin.is_implied() && !unr.is_implied(), "divergence at n={n}");
        fin.proof().unwrap().verify(&sigma, None).unwrap();
        println!(
            "  divergence family n = {n:3}: ⊨f yes (C_k proof, {} steps, verified), ⊨ no",
            fin.proof().unwrap().steps.len()
        );
    }
}

/// E3 — Thm 3.4 / Cor 3.5: under the primary-key restriction the two L_u
/// problems coincide.
fn e3_primary_coincide() {
    heading(
        "E3 (Thm 3.4, Cor 3.5)",
        "primary keys: implication and finite implication coincide",
    );
    let mut r = rng(33);
    let mut agreements = 0usize;
    let mut implied = 0usize;
    for _ in 0..2000 {
        use rand::Rng;
        let n_types = r.gen_range(2..6);
        let types: Vec<String> = (0..n_types).map(|i| format!("t{i}")).collect();
        let mut sigma: Vec<Constraint> = types
            .iter()
            .map(|t| Constraint::unary_key(t.as_str(), "k"))
            .collect();
        for _ in 0..r.gen_range(0..8) {
            let a = r.gen_range(0..n_types);
            let b = r.gen_range(0..n_types);
            sigma.push(Constraint::unary_fk(
                types[a].as_str(),
                "k",
                types[b].as_str(),
                "k",
            ));
        }
        let solver = LuSolver::new(&sigma).unwrap();
        solver.check_primary(None).unwrap();
        for a in 0..n_types {
            for b in 0..n_types {
                let phi = Constraint::unary_fk(types[a].as_str(), "k", types[b].as_str(), "k");
                let fin = solver.decide(&phi, Mode::Finite).unwrap();
                let unr = solver.decide(&phi, Mode::Unrestricted).unwrap();
                assert_eq!(fin, unr, "Thm 3.4 violated");
                agreements += 1;
                implied += usize::from(fin);
            }
        }
    }
    println!(
        "  {agreements} random primary queries: finite ≡ unrestricted on all ({implied} implied)"
    );
}

/// E4 — Thm 3.6 / Cor 3.7: general `L` implication is undecidable; the
/// chase is a sound semi-decision whose divergence is real.
fn e4_chase_undecidability() {
    heading(
        "E4 (Thm 3.6, Cor 3.7)",
        "general L undecidable: the chase semi-decides, and diverges on cyclic INDs",
    );
    // Terminating family: FK chains — the chase decides and agrees with
    // transitivity.
    let mut prev: Option<f64> = None;
    for n in [4usize, 8, 16, 32] {
        let (sigma, phi) = lp_chain(n, 2);
        let chase = Chase::new(&sigma, ChaseLimits::default()).unwrap();
        let t = time_min(3, || {
            assert!(chase.implies(&phi).is_implied());
        });
        let ratio = prev.map(|p| t / p).unwrap_or(f64::NAN);
        println!(
            "  terminating chain n = {n:3}: Implied in {:8.3} ms   growth ×{ratio:.2}",
            t * 1e3
        );
        prev = Some(t);
    }
    // Divergent family: key R[A], R[B] ⊆ R[A] — tuples breed forever; the
    // resource ceiling is always hit, at cost linear in the budget.
    let sigma = vec![
        Constraint::key("R", ["A"]),
        Constraint::fk("R", ["B"], "R", ["A"]),
    ];
    for budget in [100usize, 400, 1600] {
        let chase = Chase::new(
            &sigma,
            ChaseLimits {
                max_steps: budget,
                max_tuples: budget,
            },
        )
        .unwrap();
        let phi = Constraint::key("R", ["B"]);
        let start = std::time::Instant::now();
        let outcome = chase.implies(&phi);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert!(matches!(outcome, ChaseOutcome::ResourceLimit));
        println!("  divergent family, budget {budget:6}: ResourceLimit after {ms:9.3} ms");
    }
}

/// E5 — Thm 3.8 / Cor 3.9: primary multi-attribute keys+FKs decidable;
/// cost as key arity and chain length grow.
fn e5_lp_decidable() {
    heading(
        "E5 (Thm 3.8, Cor 3.9)",
        "primary keys + foreign keys: I_p sound/complete; both problems coincide and are decidable",
    );
    for arity in [1usize, 2, 4, 8] {
        let mut prev: Option<f64> = None;
        let mut row = format!("  arity {arity}: ");
        for n in [8usize, 16, 32, 64] {
            let (sigma, phi) = lp_chain(n, arity);
            let t = time_min(3, || {
                let solver = LpSolver::new(&sigma).unwrap();
                let v = solver.implies(&phi);
                assert!(v.is_implied());
            });
            let ratio = prev.map(|p| t / p).unwrap_or(f64::NAN);
            row.push_str(&format!("n={n}: {:7.2} ms (×{ratio:.1})  ", t * 1e3));
            prev = Some(t);
        }
        println!("{row}");
    }
    // Proofs verify, and reversals are refuted.
    let (sigma, phi) = lp_chain(12, 3);
    let solver = LpSolver::new(&sigma).unwrap();
    let v = solver.implies(&phi);
    v.proof().unwrap().verify(&sigma, None).unwrap();
    let back = Constraint::fk("r11", ["a0", "a1", "a2"], "r0", ["a0", "a1", "a2"]);
    assert!(!solver.implies(&back).is_implied());
    println!("  end-to-end I_p derivation verified; reverse composition correctly refuted");
}

/// E6 — Prop 4.1: path-functional implication in `O(|φ|(|Σ|+|P|))`.
fn e6_path_functional() {
    heading(
        "E6 (Prop 4.1)",
        "path functional constraints decidable in O(|φ|(|Σ|+|P|))",
    );
    let mut prev: Option<f64> = None;
    for depth in [50usize, 100, 200, 400, 800] {
        let d = nested_dtdc(depth);
        let solver = PathSolver::new(&d);
        let rho = spine(0, depth, true);
        let varrho = spine(0, depth / 2, false);
        let t = time_min(5, || {
            assert!(solver.functional_implied(&"r0".into(), &rho, &varrho));
        });
        let ratio = prev.map(|p| t / p).unwrap_or(f64::NAN);
        println!(
            "  depth (=|φ|≈|P|) {depth:4}: query {:8.3} µs   growth ×{ratio:.2}",
            t * 1e6
        );
        prev = Some(t);
    }
    // Negative control: a repeatable step breaks the key path.
    let d = xic::constraints::examples::book_dtdc();
    let solver = PathSolver::new(&d);
    assert!(!solver.functional_implied(
        &"book".into(),
        &Path::from("section.sid"),
        &Path::from("author")
    ));
}

/// E7 — Prop 4.2: path-inclusion implication in `O(|φ|(|Σ|+|P|))`.
fn e7_path_inclusion() {
    heading(
        "E7 (Prop 4.2)",
        "path inclusion constraints decidable in O(|φ|(|Σ|+|P|))",
    );
    let mut prev: Option<f64> = None;
    for depth in [50usize, 100, 200, 400, 800] {
        let d = nested_dtdc(depth);
        let solver = PathSolver::new(&d);
        let mid = depth / 2;
        let rho1 = spine(0, depth, false);
        let rho2 = spine(mid, depth, false);
        let tau2: Name = format!("r{mid}").as_str().into();
        let t = time_min(5, || {
            assert!(solver.inclusion_implied(&"r0".into(), &rho1, &tau2, &rho2));
        });
        let ratio = prev.map(|p| t / p).unwrap_or(f64::NAN);
        println!(
            "  depth {depth:4}: query {:8.3} µs   growth ×{ratio:.2}",
            t * 1e6
        );
        prev = Some(t);
    }
    // Negative control: wrong anchor type.
    let d = nested_dtdc(10);
    let solver = PathSolver::new(&d);
    assert!(!solver.inclusion_implied(
        &"r0".into(),
        &spine(0, 10, false),
        &"r3".into(),
        &spine(5, 10, false)
    ));
}

/// E8 — Prop 4.3: path-inverse implication in `O(|Σ||φ|)`.
fn e8_path_inverse() {
    heading(
        "E8 (Prop 4.3)",
        "path inverse constraints decidable in O(|Σ| |φ|)",
    );
    for n in [50usize, 100, 200] {
        let d = inverse_chain_dtdc(n);
        let solver = PathSolver::new(&d);
        let mut prev: Option<f64> = None;
        let mut row = format!("  |Σ| = {:4}: ", d.constraints().len());
        for k in [n / 4, n / 2, n] {
            let (t1, p1, t2, p2) = inverse_query(k);
            let t = time_min(5, || {
                assert!(solver.inverse_implied(&t1, &p1, &t2, &p2));
            });
            let ratio = prev.map(|p| t / p).unwrap_or(f64::NAN);
            row.push_str(&format!("|φ|={k:3}: {:8.3} µs (×{ratio:.1})  ", t * 1e6));
            prev = Some(t);
        }
        println!("{row}");
    }
    // Negative control: swapped labels are refuted.
    let d = inverse_chain_dtdc(8);
    let solver = PathSolver::new(&d);
    let (t1, p1, t2, _) = inverse_query(8);
    let bad = Path::new(std::iter::repeat_n("fwd", 8));
    assert!(!solver.inverse_implied(&t1, &p1, &t2, &bad));
}

/// E9 — Figure 1: `G ≡_FO² G'` yet the key constraint separates them.
fn e9_fo2_figure1() {
    heading(
        "E9 (Fig. 1)",
        "G ≡_FO² G' (2-pebble game) but τ.l → τ separates them: keys are not FO²-expressible",
    );
    for n in [2u32, 3, 4, 5] {
        let (g, h) = figure1(n);
        let start = std::time::Instant::now();
        let equiv = two_pebble_equivalent(&g, &h);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let kg = g.satisfies_unary_key("l");
        let kh = h.satisfies_unary_key("l");
        assert!(equiv && kg && !kh);
        println!(
            "  n={n}: |G|={:2} |G'|={:2}  game fixpoint in {ms:9.3} ms  ≡_FO²: {equiv}  G⊨φ: {kg}  G'⊨φ: {kh}",
            g.size, h.size
        );
    }
}

/// E10 — Definition 2.4 validation throughput on the paper's three
/// document families, with the content-model matcher ablation (E10b).
fn e10_validation() {
    heading(
        "E10 (Fig. 2, §2.4)",
        "end-to-end validation of the paper's document families; matcher ablation",
    );
    for n in [100usize, 1000, 10000] {
        let (dtdc, tree) = company_workload(n, 77);
        let validator = Validator::new(&dtdc);
        let t = time_min(3, || {
            let r = validator.validate(&tree);
            assert!(r.is_valid());
        });
        println!(
            "  company   n = {n:6} ({:6} vertices): {:9.3} ms   {:7.0} vertices/ms",
            tree.len(),
            t * 1e3,
            tree.len() as f64 / (t * 1e3)
        );
    }
    for n in [100usize, 1000, 10000] {
        let (dtdc, tree) = publishers_workload(n, 78);
        let validator = Validator::new(&dtdc);
        let t = time_min(3, || {
            let r = validator.validate(&tree);
            assert!(r.is_valid());
        });
        println!(
            "  relational n = {n:6} ({:6} vertices): {:9.3} ms   {:7.0} vertices/ms",
            tree.len(),
            t * 1e3,
            tree.len() as f64 / (t * 1e3)
        );
    }
    // Ablation E10b: the three content-model matchers of `xic-regex` on
    // the same child words. The validator compiles only the DFA; the NFA
    // and derivatives are its test oracles.
    let (dtdc, tree) = company_workload(2000, 79);
    let (models, words) = child_words(&dtdc, &tree);
    let dfas: Vec<Dfa> = models.iter().map(Dfa::from_model).collect();
    let nfas: Vec<Nfa> = models.iter().map(Nfa::build).collect();
    let symbols: usize = words.iter().map(|(_, w)| w.len()).sum();
    let time = |name: &str, matches: &dyn Fn(usize, &[Symbol]) -> bool| {
        let t = time_min(3, || {
            assert!(words.iter().all(|(i, w)| matches(*i, w)));
        });
        println!(
            "  ablation E10b ({} child words, {symbols} symbols, n=2000): {name:18} {:9.3} ms",
            words.len(),
            t * 1e3
        );
    };
    time("Dfa::matches", &|i, w| dfas[i].matches(w));
    time("Nfa::matches", &|i, w| nfas[i].matches(w));
    time("matches_derivative", &|i, w| {
        models[i].matches_derivative(w)
    });
    // XML round trip at scale (parser throughput).
    let (dtdc, tree) = company_workload(5000, 80);
    let xml = format!(
        "<!DOCTYPE db [\n{}]>\n{}",
        serialize_dtd(dtdc.structure()),
        serialize_document(&tree)
    );
    let t = time_min(3, || {
        let doc = parse_document(&xml).unwrap();
        assert_eq!(doc.tree.len(), tree.len());
    });
    println!(
        "  XML parse n = 5000 ({} bytes): {:9.3} ms   {:5.1} MB/s",
        xml.len(),
        t * 1e3,
        xml.len() as f64 / t / 1e6
    );
}

/// E11 — the compiled constraint engine: one-pass shared field extraction
/// vs per-constraint re-extraction, and thread scaling on large extents.
/// Registers its rows for `BENCH_validate.json`.
fn e11_validate_engine() {
    heading(
        "E11 (engine)",
        "compiled one-pass constraint engine vs per-constraint checking; 1/2/4-thread scaling",
    );
    let thread_counts = [1usize, 2, 4];
    let mut json_rows: Vec<String> = Vec::new();
    for &n in scaling_sizes() {
        let (dtdc, tree) = constraint_heavy_workload(n, 101);
        let nodes = tree.len();
        let reps = if n >= 1_000_000 { 3 } else { 5 };
        let t_naive = time_min(reps, || {
            let violations: usize = dtdc
                .constraints()
                .iter()
                .map(|c| check_constraint(&tree, &dtdc, c).len())
                .sum();
            assert_eq!(violations, 0);
        });
        let t_engine: Vec<f64> = thread_counts
            .iter()
            .map(|&threads| {
                let v = Validator::with_options(&dtdc, Options::default().with_threads(threads));
                time_min(reps, || assert!(v.validate_constraints(&tree).is_valid()))
            })
            .collect();
        println!(
            "  nodes = {nodes:8}  |Σ| = {}   per-constraint {:9.3} ms ({:9.0} nodes/s)",
            dtdc.constraints().len(),
            t_naive * 1e3,
            nodes as f64 / t_naive
        );
        for (&threads, &t) in thread_counts.iter().zip(&t_engine) {
            println!(
                "        engine t={threads}: {:9.3} ms ({:9.0} nodes/s)   ×{:.2} vs per-constraint   ×{:.2} vs t=1",
                t * 1e3,
                nodes as f64 / t,
                t_naive / t,
                t_engine[0] / t
            );
        }
        let engine_json = thread_counts
            .iter()
            .zip(&t_engine)
            .map(|(&threads, &t)| {
                format!(
                    "{{\"threads\": {threads}, \"seconds\": {t:.6}, \"nodes_per_sec\": {:.0}}}",
                    nodes as f64 / t
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        json_rows.push(format!(
            "    {{\"nodes\": {nodes}, \"constraints\": {}, \"per_constraint\": {{\"seconds\": {t_naive:.6}, \"nodes_per_sec\": {:.0}}}, \"engine\": [{engine_json}]}}",
            dtdc.constraints().len(),
            nodes as f64 / t_naive
        ));
    }
    register_section(
        "e11_validate_engine",
        format!(
            "{{\n    \"workload\": \"constraint_heavy_workload (supplier/part/order, 10 shared-field L_u constraints, seed 101)\",\n    \"rows\": [\n{}\n    ]\n  }}",
            json_rows.join(",\n")
        ),
    );
}

/// E12 — the streaming validation pipeline: `validate_stream` (one
/// bounded-memory pull loop over the source text; a thread budget fans
/// out only the final constraint pass) against parse-then-validate, on
/// the E11 workload serialized to XML, at 1 and 2 threads. Measures wall
/// time and — via the counting allocator — peak heap above the source
/// text, and asserts the streaming path's memory advantage at the largest
/// size. Registers its rows for
/// `BENCH_validate.json`.
fn e12_stream_pipeline() {
    heading(
        "E12 (stream)",
        "streaming fused pass vs parse-then-validate: equal reports, bounded memory",
    );
    let baselines = std::fs::read_to_string("BENCH_validate.json").ok();
    let mut json_rows: Vec<String> = Vec::new();
    for &n in scaling_sizes() {
        let (dtdc, tree) = constraint_heavy_workload(n, 101);
        let nodes = tree.len();
        let src = format!(
            "<!DOCTYPE db [\n{}]>\n{}",
            serialize_dtd(dtdc.structure()),
            serialize_document(&tree)
        );
        drop(tree);
        let reps = if n >= 1_000_000 { 2 } else { 3 };

        // Tree path: parse into a DataTree, then validate it.
        let v = Validator::with_options(&dtdc, Options::default());
        let base = mem::reset_peak();
        let tree_report = {
            let doc = parse_document(&src).unwrap();
            v.validate(&doc.tree)
        };
        let tree_peak = mem::peak_above(base);
        let t_tree = time_min(reps, || {
            let doc = parse_document(&src).unwrap();
            assert!(v.validate(&doc.tree).is_valid());
        });

        // Streaming path at a 1- and a 2-thread budget.
        let mut stream_json: Vec<String> = Vec::new();
        let mut stream_peak_t1 = 0u64;
        for threads in [1usize, 2] {
            let v = Validator::with_options(&dtdc, Options::default().with_threads(threads));
            let base = mem::reset_peak();
            let stream_report = v.validate_stream(&src).unwrap();
            let peak = mem::peak_above(base);
            assert_eq!(
                tree_report.violations, stream_report.violations,
                "stream/tree divergence at n={n} t={threads}"
            );
            let t = time_min(reps, || {
                assert!(v.validate_stream(&src).unwrap().is_valid());
            });
            if threads == 1 {
                stream_peak_t1 = peak;
                smoke_regression_gate(
                    "e12_stream_pipeline",
                    nodes,
                    nodes as f64 / t,
                    baselines.as_deref().and_then(|b| {
                        stream_baseline_nodes_per_sec(b, "e12_stream_pipeline", nodes)
                    }),
                );
            }
            println!(
                "  nodes = {nodes:8}  stream t={threads}: {:9.3} ms ({:9.0} nodes/s)   peak {:8.2} MB   ×{:.1} less memory",
                t * 1e3,
                nodes as f64 / t,
                peak as f64 / 1e6,
                tree_peak as f64 / peak.max(1) as f64
            );
            stream_json.push(format!(
                "{{\"threads\": {threads}, \"seconds\": {t:.6}, \"nodes_per_sec\": {:.0}, \"peak_heap_bytes\": {peak}}}",
                nodes as f64 / t
            ));
        }
        println!(
            "  nodes = {nodes:8}  tree path : {:9.3} ms ({:9.0} nodes/s)   peak {:8.2} MB   ({} source bytes)",
            t_tree * 1e3,
            nodes as f64 / t_tree,
            tree_peak as f64 / 1e6,
            src.len()
        );
        // The headline claim: at scale the fused pass holds a small
        // fraction of the tree path's working set.
        if n >= 1_000_000 {
            assert!(
                tree_peak as f64 >= 2.0 * stream_peak_t1 as f64,
                "expected ≥2× peak-memory reduction at n={n}: tree {tree_peak} vs stream {stream_peak_t1}"
            );
        }
        json_rows.push(format!(
            "      {{\"nodes\": {nodes}, \"source_bytes\": {}, \"tree\": {{\"seconds\": {t_tree:.6}, \"nodes_per_sec\": {:.0}, \"peak_heap_bytes\": {tree_peak}}}, \"stream\": [{}]}}",
            src.len(),
            nodes as f64 / t_tree,
            stream_json.join(", ")
        ));
    }
    register_section(
        "e12_stream_pipeline",
        format!(
            "{{\n    \"workload\": \"constraint_heavy_workload serialized with its DTD as internal subset (seed 101)\",\n    \"rows\": [\n{}\n    ]\n  }}",
            json_rows.join(",\n")
        ),
    );
}

/// One edit through [`LiveValidator::apply_batch`] as a one-edit batch.
fn apply_one(live: &mut LiveValidator<'_, '_>, edit: BatchEdit) -> ReportDiff {
    live.apply_batch(&[edit]).expect("edit applies")
}

/// A `set-attr` request on `order.sup`.
fn set_sup(o: NodeId, sup: impl Into<String>) -> BatchEdit {
    BatchEdit::SetAttr {
        node: o,
        attr: "sup".into(),
        value: AttrValue::single(sup.into()),
    }
}

/// E13 — incremental revalidation: a [`LiveValidator`] absorbing one-edit
/// batches against full from-scratch revalidation, across edit-batch
/// sizes, on the E11 workload. Verifies byte-identical reports against
/// the from-scratch engine after every edit of a mixed script (smallest
/// size), exercises the violation diff on a break/repair episode, and at
/// 10⁶ vertices asserts the headline ≥10× single-edit speedup. Registers
/// its rows for `BENCH_validate.json`.
fn e13_incremental_revalidate() {
    heading(
        "E13 (incremental)",
        "incremental revalidation under edits: per-edit cost vs full revalidate, violation diffs",
    );
    use rand::Rng;
    let batch_sizes = [1usize, 10, 100];
    let mut json_rows: Vec<String> = Vec::new();
    for &n in scaling_sizes() {
        let (dtdc, tree) = constraint_heavy_workload(n, 101);
        let nodes = tree.len();
        let rows = (n / 4).max(1);
        let reps = if n >= 1_000_000 { 3 } else { 5 };
        let v = Validator::with_options(&dtdc, Options::default());
        let t_full = time_min(reps, || assert!(v.validate(&tree).is_valid()));

        // Correctness gate at the smallest size (runs under --smoke): a
        // mixed edit script, cross-checked against from-scratch validation
        // after every single edit.
        if n == scaling_sizes()[0] {
            let (_, fresh_tree) = constraint_heavy_workload(n, 101);
            let mut live = LiveValidator::new(&v, fresh_tree);
            let mut r = rng(202);
            let orders: Vec<NodeId> = live.tree().ext("order").collect();
            for i in 0..20usize {
                let o = orders[r.gen_range(0..orders.len())];
                let edit = match i % 4 {
                    0 => set_sup(o, format!("s{}", r.gen_range(0..rows))),
                    1 => BatchEdit::SetAttr {
                        node: o,
                        attr: "part".into(),
                        value: AttrValue::single(format!("p{}", r.gen_range(0..rows))),
                    },
                    // A dangling reference: raises, next round repairs.
                    2 => set_sup(o, "s-dangling"),
                    _ => {
                        let memo = live
                            .tree()
                            .child_nodes(o)
                            .next()
                            .expect("order has a memo child");
                        BatchEdit::SetText {
                            node: memo,
                            index: 0,
                            text: format!("m{}", r.gen_range(0..rows)),
                        }
                    }
                };
                apply_one(&mut live, edit);
                let fresh = v.validate(live.tree());
                assert_eq!(
                    live.report().violations,
                    fresh.violations,
                    "incremental/from-scratch divergence after edit {i}"
                );
            }
            println!("  nodes = {nodes:8}  20-edit mixed script: report byte-identical to from-scratch after every edit");
        }

        let start = std::time::Instant::now();
        let mut live = LiveValidator::new(&v, tree);
        let t_init = start.elapsed().as_secs_f64();

        // The violation diff: break one foreign key, then repair it.
        let orders: Vec<NodeId> = live.tree().ext("order").collect();
        let broken = apply_one(&mut live, set_sup(orders[0], "s-nowhere"));
        assert!(
            !broken.raised.is_empty(),
            "dangling FK must raise a violation"
        );
        let repaired = apply_one(&mut live, set_sup(orders[0], "s0"));
        assert!(
            !repaired.cleared.is_empty() && repaired.raised.is_empty(),
            "repair must clear the raised violation"
        );

        println!(
            "  nodes = {nodes:8}  full validate {:9.3} ms   live init {:9.3} ms   diff: break +{} / repair -{}",
            t_full * 1e3,
            t_init * 1e3,
            broken.raised.len(),
            repaired.cleared.len()
        );

        let mut r = rng(303);
        let mut batch_json: Vec<String> = Vec::new();
        let mut single_edit_speedup = f64::NAN;
        for &batch in &batch_sizes {
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let edits: Vec<BatchEdit> = (0..batch)
                    .map(|_| {
                        set_sup(
                            orders[r.gen_range(0..orders.len())],
                            format!("s{}", r.gen_range(0..rows)),
                        )
                    })
                    .collect();
                let start = std::time::Instant::now();
                for e in &edits {
                    let out = live.apply_batch(std::slice::from_ref(e)).unwrap();
                    std::hint::black_box(&out);
                }
                best = best.min(start.elapsed().as_secs_f64() / batch as f64);
            }
            let speedup = t_full / best;
            if batch == 1 {
                single_edit_speedup = speedup;
            }
            println!(
                "        batch {batch:4}: {:9.3} µs/edit   ×{speedup:9.0} vs full revalidate",
                best * 1e6
            );
            batch_json.push(format!(
                "{{\"batch\": {batch}, \"seconds_per_edit\": {best:.9}, \"speedup_vs_full\": {speedup:.1}}}"
            ));
        }
        // The headline claim: at 10⁶ vertices a single edit revalidates
        // ≥10× faster than a from-scratch pass (in practice far more).
        if n >= 1_000_000 {
            assert!(
                single_edit_speedup >= 10.0,
                "expected ≥10× single-edit speedup at n={n}, got ×{single_edit_speedup:.1}"
            );
        }
        json_rows.push(format!(
            "      {{\"nodes\": {nodes}, \"full_validate_seconds\": {t_full:.6}, \"live_init_seconds\": {t_init:.6}, \"incremental\": [{}]}}",
            batch_json.join(", ")
        ));
    }
    register_section(
        "e13_incremental",
        format!(
            "{{\n    \"workload\": \"constraint_heavy_workload; random order.sup retargets through LiveValidator (seed 101/303)\",\n    \"rows\": [\n{}\n    ]\n  }}",
            json_rows.join(",\n")
        ),
    );
}

/// The recorded E11 sequential (threads = 1) throughput for `nodes`, from
/// the tracked `BENCH_validate.json` at the repository root, if present.
/// A deliberately narrow scanner for this repo's own baseline format.
fn e11_baseline_nodes_per_sec(baselines: &str, nodes: usize) -> Option<f64> {
    let row = baselines.find(&format!("\"nodes\": {nodes},"))?;
    let engine = baselines[row..].find("\"engine\":")? + row;
    let t1 = baselines[engine..].find("\"threads\": 1,")? + engine;
    let key = "\"nodes_per_sec\": ";
    let nps = baselines[t1..].find(key)? + t1 + key.len();
    let end = baselines[nps..].find(['}', ','])? + nps;
    baselines[nps..end].trim().parse().ok()
}

/// E14 — the observability layer (DESIGN §4.10): free when off, inert
/// when on. The disabled `Obs` handle must hold the E11 sequential
/// throughput recorded in `BENCH_validate.json` (the pre-instrumentation
/// baselines), and attaching a `MetricsCollector` must leave the
/// violation report byte-identical while producing a phase breakdown
/// whose spans nest inside the wall clock. Registers its rows for
/// `BENCH_validate.json`.
fn e14_obs_overhead() {
    heading(
        "E14 (obs)",
        "observability: disabled handle at E11-baseline throughput; collector inert",
    );
    let baselines = std::fs::read_to_string("BENCH_validate.json").ok();
    let mut json_rows: Vec<String> = Vec::new();
    for &n in scaling_sizes() {
        let (dtdc, tree) = constraint_heavy_workload(n, 101);
        let nodes = tree.len();
        let reps = if n >= 1_000_000 { 3 } else { 5 };
        let opts = Options::default().with_threads(1);
        let off = Validator::with_options(&dtdc, opts);
        let t_off = time_min(reps, || {
            assert!(off.validate_constraints(&tree).is_valid());
        });
        let collector = MetricsCollector::shared();
        let on = Validator::with_options(&dtdc, opts).with_obs(Obs::new(collector.clone()));
        let t_on = time_min(reps, || {
            assert!(on.validate_constraints(&tree).is_valid());
        });

        // Inert when on: byte-identical reports, and a snapshot whose
        // counters match the document and whose phases nest inside the
        // wall clock (sequential run).
        let plain = off.validate(&tree);
        let observed = on.validate(&tree);
        assert_eq!(plain.violations, observed.violations);
        assert!(plain.metrics.is_none());
        let m = observed.metrics.expect("collector attached => snapshot");
        assert_eq!(m.counter("nodes"), nodes as u64);
        assert_eq!(m.counter("violations"), 0);
        let phase_sum: u64 = ["structure", "plan", "check", "merge"]
            .iter()
            .map(|p| m.span(p).nanos)
            .sum();
        assert!(
            phase_sum <= m.wall_nanos,
            "phase sum {phase_sum} > wall {} at n={n}",
            m.wall_nanos
        );

        let overhead_on = t_on / t_off;
        println!(
            "  nodes = {nodes:8}   obs off: {:9.3} ms ({:9.0} nodes/s)   obs on: {:9.3} ms   ×{overhead_on:.3} on/off",
            t_off * 1e3,
            nodes as f64 / t_off,
            t_on * 1e3
        );
        let vs_baseline = baselines
            .as_deref()
            .and_then(|b| e11_baseline_nodes_per_sec(b, nodes))
            .map(|base| {
                let ratio = (nodes as f64 / t_off) / base;
                println!(
                    "        vs recorded E11 t=1 baseline ({base:.0} nodes/s): ×{ratio:.3} (target ≥0.98)"
                );
                // The 2% budget, with headroom for timer noise between
                // runs; the recorded ratio is the honest number.
                assert!(
                    ratio >= 0.90,
                    "disabled-collector throughput fell to ×{ratio:.3} of the E11 baseline at n={n}"
                );
                ratio
            });
        json_rows.push(format!(
            "      {{\"nodes\": {nodes}, \"off_seconds\": {t_off:.6}, \"off_nodes_per_sec\": {:.0}, \"on_seconds\": {t_on:.6}, \"on_over_off\": {overhead_on:.4}, \"off_over_e11_baseline\": {}}}",
            nodes as f64 / t_off,
            vs_baseline.map_or("null".to_string(), |r| format!("{r:.4}"))
        ));
    }
    register_section(
        "e14_obs_overhead",
        format!(
            "{{\n    \"workload\": \"constraint_heavy_workload, threads = 1, collector off vs MetricsCollector attached\",\n    \"rows\": [\n{}\n    ]\n  }}",
            json_rows.join(",\n")
        ),
    );
}

/// E15 — the telemetry extensions (DESIGN §4.11): latency histograms and
/// the trace-event ring cost nothing when absent and stay within the E14
/// overhead budget when attached. Three configurations per size on the
/// E11 workload: no collector, a histogram-recording
/// [`MetricsCollector`], and a [`TraceCollector`] ring. The within-run
/// histogram-on/off ratio is gated (the budget claim); the recorded E11
/// sequential baseline is compared with a gross-regression tripwire
/// (E14 owns the tight disabled-handle gate); the histogram snapshot
/// and the ring must actually contain the run. Registers its rows for
/// `BENCH_validate.json`.
fn e15_telemetry_overhead() {
    heading(
        "E15 (telemetry)",
        "histograms + trace ring: within the E14 budget, distributions recorded",
    );
    let baselines = std::fs::read_to_string("BENCH_validate.json").ok();
    let mut json_rows: Vec<String> = Vec::new();
    for &n in scaling_sizes() {
        let (dtdc, tree) = constraint_heavy_workload(n, 101);
        let nodes = tree.len();
        let reps = if n >= 1_000_000 { 3 } else { 5 };
        let opts = Options::default().with_threads(1);

        let off = Validator::with_options(&dtdc, opts);
        let hist_collector = MetricsCollector::shared_with_histograms();
        let hist = Validator::with_options(&dtdc, opts).with_obs(Obs::new(hist_collector.clone()));
        let ring = std::sync::Arc::new(TraceCollector::new());
        let trace = Validator::with_options(&dtdc, opts).with_obs(Obs::new(ring.clone()));
        // The three arms take turns within each rep, and each timing runs
        // its arm for at least 100 ms: a single run at the smoke size
        // lasts 1–2 ms, where timer and scheduler noise decide a ratio.
        let [t_off, t_hist, t_trace] = time_min_interleaved(
            reps,
            0.1,
            [
                &mut || assert!(off.validate_constraints(&tree).is_valid()),
                &mut || assert!(hist.validate_constraints(&tree).is_valid()),
                &mut || assert!(trace.validate_constraints(&tree).is_valid()),
            ],
        );

        // The collectors observed the runs they were attached to: the
        // check family carries a latency distribution (one sample per
        // per-constraint check span), and the ring holds raw events.
        let m = hist_collector.snapshot();
        let h = m.hist("check").expect("check histogram recorded");
        assert!(h.count > 0, "empty check histogram at n={n}");
        assert!(h.max >= h.quantile(0.5), "histogram max below its median");
        assert!(!ring.events().is_empty(), "trace ring stayed empty");
        assert!(ring.events().iter().any(|e| e.name == "check"));

        let hist_over_off = t_hist / t_off;
        let trace_over_off = t_trace / t_off;
        println!(
            "  nodes = {nodes:8}   off: {:9.3} ms ({:9.0} nodes/s)   hist: {:9.3} ms (×{hist_over_off:.3})   trace: {:9.3} ms (×{trace_over_off:.3})",
            t_off * 1e3,
            nodes as f64 / t_off,
            t_hist * 1e3,
            t_trace * 1e3
        );
        // The budget claim of this experiment is *within-run*: attaching
        // the histogram-recording collector to the very validator just
        // timed bare. The 2% budget, with headroom for timer noise; the
        // recorded ratio is the honest number.
        assert!(
            hist_over_off <= 1.10,
            "histogram recording cost ×{hist_over_off:.3} over the bare run at n={n}"
        );
        let base = baselines
            .as_deref()
            .and_then(|b| e11_baseline_nodes_per_sec(b, nodes));
        let off_ratio = base.map(|base| {
            let ratio = (nodes as f64 / t_off) / base;
            println!(
                "        off  vs recorded E11 t=1 baseline ({base:.0} nodes/s): ×{ratio:.3} (target ≥0.98)"
            );
            // E14 gates the disabled handle against the baselines at
            // 0.90; consecutive minima within one process drift ~8% at
            // 10⁶ on this host, so repeating that gate here would only
            // add flake. Keep a gross-regression tripwire and record
            // the honest ratio.
            assert!(
                ratio >= 0.75,
                "disabled-handle throughput fell to ×{ratio:.3} of the E11 baseline at n={n}"
            );
            ratio
        });
        let hist_ratio = base.map(|base| {
            let ratio = (nodes as f64 / t_hist) / base;
            println!(
                "        hist vs recorded E11 t=1 baseline ({base:.0} nodes/s): ×{ratio:.3} (target ≥0.98)"
            );
            assert!(
                ratio >= 0.75,
                "histogram-on throughput fell to ×{ratio:.3} of the E11 baseline at n={n}"
            );
            ratio
        });
        json_rows.push(format!(
            "      {{\"nodes\": {nodes}, \"off_seconds\": {t_off:.6}, \"hist_seconds\": {t_hist:.6}, \"trace_seconds\": {t_trace:.6}, \"hist_over_off\": {hist_over_off:.4}, \"trace_over_off\": {trace_over_off:.4}, \"off_over_e11_baseline\": {}, \"hist_over_e11_baseline\": {}}}",
            off_ratio.map_or("null".to_string(), |r| format!("{r:.4}")),
            hist_ratio.map_or("null".to_string(), |r| format!("{r:.4}"))
        ));
    }
    register_section(
        "e15_telemetry_overhead",
        format!(
            "{{\n    \"workload\": \"constraint_heavy_workload, threads = 1: no collector vs histogram-recording MetricsCollector vs TraceCollector ring\",\n    \"rows\": [\n{}\n    ]\n  }}",
            json_rows.join(",\n")
        ),
    );
}

/// The sequential (threads = 1) streaming `nodes_per_sec` recorded for
/// `nodes` under JSON key `section` in the tracked `BENCH_validate.json`,
/// if present. Same narrow-scanner approach as
/// [`e11_baseline_nodes_per_sec`], but section-scoped so E12 and E16 each
/// gate against their own committed rows.
fn stream_baseline_nodes_per_sec(baselines: &str, section: &str, nodes: usize) -> Option<f64> {
    let sec = baselines.find(&format!("\"{section}\""))?;
    let row = baselines[sec..].find(&format!("\"nodes\": {nodes},"))? + sec;
    let t1 = baselines[row..].find("\"threads\": 1,")? + row;
    let key = "\"nodes_per_sec\": ";
    let nps = baselines[t1..].find(key)? + t1 + key.len();
    let end = baselines[nps..].find(['}', ','])? + nps;
    baselines[nps..end].trim().parse().ok()
}

/// Under `--smoke`, fails the run if `measured` nodes/s falls below 0.8×
/// the committed baseline row (the CI bench-regression gate); outside
/// smoke the comparison is printed but informational, since the full
/// sweep exists to *refresh* the baselines.
fn smoke_regression_gate(section: &str, nodes: usize, measured: f64, baseline: Option<f64>) {
    let Some(base) = baseline else { return };
    let ratio = measured / base;
    println!(
        "        vs committed {section} t=1 baseline ({base:.0} nodes/s): ×{ratio:.3} (smoke gate ≥0.8)"
    );
    if SMOKE.load(Ordering::Relaxed) {
        assert!(
            ratio >= 0.8,
            "{section} streaming throughput regressed to ×{ratio:.3} of the committed \
             baseline at n={nodes}: {measured:.0} vs {base:.0} nodes/s"
        );
    }
}

/// The E12 sequential streaming throughput at 10⁶ nodes committed before
/// the raw-speed pass landed (byte-level lexing, zero-copy interning,
/// cache-conscious columns): 296 062 nodes/s, 3.378 s wall. E16's
/// headline assertion is measured against this fixed reference, not the
/// rolling baseline file — refreshing `BENCH_validate.json` must not
/// weaken the claim.
const E16_PRE_OPT_NODES_PER_SEC: f64 = 296_062.0;

/// E16 — the raw-speed pass (DESIGN §4.12): byte-level event lexing,
/// zero-copy arena interning and struct-of-arrays columns. Asserts the
/// fused streaming pass holds ≥2× the pre-optimization E12 sequential
/// throughput at 10⁶ nodes, that its steady-state heap traffic stays
/// bounded per node (no per-element allocation), and that reports remain
/// identical to the tree engine at threads 1, 2 and 4. Registers its rows
/// for `BENCH_validate.json`; under `--smoke` the smallest size doubles
/// as the bench-regression gate against the committed rows.
fn e16_raw_speed() {
    heading(
        "E16 (raw speed)",
        "byte lexer + arena interner + SoA columns: ≥2× pre-optimization streaming throughput, O(1) allocations/node",
    );
    let baselines = std::fs::read_to_string("BENCH_validate.json").ok();
    let mut json_rows: Vec<String> = Vec::new();
    for &n in scaling_sizes() {
        let (dtdc, tree) = constraint_heavy_workload(n, 101);
        let nodes = tree.len();
        let src = format!(
            "<!DOCTYPE db [\n{}]>\n{}",
            serialize_dtd(dtdc.structure()),
            serialize_document(&tree)
        );
        let reps = if n >= 1_000_000 { 2 } else { 3 };

        // Reference report from the tree engine (already-parsed input).
        let vt = Validator::with_options(&dtdc, Options::default());
        let tree_report = vt.validate(&tree);
        drop(tree);

        // Lexer leg in isolation: drain the event stream.
        let mut events = 0u64;
        let t_lex = time_min(reps, || {
            let mut count = 0u64;
            for ev in parse_events(&src) {
                ev.expect("workload is well-formed");
                count += 1;
            }
            events = count;
        });

        // Equivalence at every thread count, and heap traffic of one
        // sequential fused pass (count delta via the allocator hooks).
        let mut allocs = 0u64;
        for threads in [1usize, 2, 4] {
            let v = Validator::with_options(&dtdc, Options::default().with_threads(threads));
            let before = xic::obs::alloc::stats().count;
            let stream_report = v.validate_stream(&src).unwrap();
            if threads == 1 {
                allocs = xic::obs::alloc::stats().count - before;
            }
            assert_eq!(
                tree_report.violations, stream_report.violations,
                "stream/tree divergence at n={n} t={threads}"
            );
        }
        let allocs_per_node = allocs as f64 / nodes as f64;
        // "No per-element allocation in the streaming frames": the whole
        // fused pass — lexing, interning, column fill, checking — allocates
        // only as its columns and tables grow, a fixed number of times per
        // doubling. The measured figure is about 0.04 at 10⁴ nodes and
        // falls with size; one allocation per set-valued row or per event
        // would exceed the bound.
        assert!(
            allocs_per_node < 0.1,
            "heap traffic regressed: {allocs_per_node:.2} allocations/node at n={n}"
        );

        // Sequential throughput: the headline number.
        let v1 = Validator::with_options(&dtdc, Options::default().with_threads(1));
        let t1 = time_min(reps, || {
            assert!(v1.validate_stream(&src).unwrap().is_valid());
        });
        let nps = nodes as f64 / t1;
        println!(
            "  nodes = {nodes:8}  lex only: {:9.3} ms ({:10.0} events/s)   fused t=1: {:9.3} ms ({:9.0} nodes/s)   {allocs_per_node:.2} allocs/node",
            t_lex * 1e3,
            events as f64 / t_lex,
            t1 * 1e3,
            nps
        );
        smoke_regression_gate(
            "e16_raw_speed",
            nodes,
            nps,
            baselines
                .as_deref()
                .and_then(|b| stream_baseline_nodes_per_sec(b, "e16_raw_speed", nodes)),
        );
        let mut speedup_field = "null".to_string();
        if n >= 1_000_000 {
            let speedup = nps / E16_PRE_OPT_NODES_PER_SEC;
            println!(
                "        vs pre-optimization E12 baseline ({E16_PRE_OPT_NODES_PER_SEC:.0} nodes/s): ×{speedup:.2} (target ≥2.0)"
            );
            assert!(
                speedup >= 2.0,
                "raw-speed pass below the headline claim: ×{speedup:.2} of {E16_PRE_OPT_NODES_PER_SEC:.0} nodes/s"
            );
            speedup_field = format!("{speedup:.3}");
        }
        json_rows.push(format!(
            "      {{\"nodes\": {nodes}, \"lex\": {{\"seconds\": {t_lex:.6}, \"events\": {events}, \"events_per_sec\": {:.0}}}, \"stream\": [{{\"threads\": 1, \"seconds\": {t1:.6}, \"nodes_per_sec\": {nps:.0}}}], \"allocs_per_node\": {allocs_per_node:.3}, \"speedup_vs_pre_opt\": {speedup_field}}}",
            events as f64 / t_lex
        ));
    }
    register_section(
        "e16_raw_speed",
        format!(
            "{{\n    \"workload\": \"constraint_heavy_workload serialized with its DTD as internal subset (seed 101); pre-optimization reference {E16_PRE_OPT_NODES_PER_SEC:.0} nodes/s at 10^6\",\n    \"rows\": [\n{}\n    ]\n  }}",
            json_rows.join(",\n")
        ),
    );
}

/// The E17 document sizes. The batch/init study needs its own sweep: the
/// `--smoke` size is 10⁵ (not 10⁴) because the CI thresholds below are
/// meaningless on documents small enough for constant factors to dominate.
fn e17_sizes() -> &'static [usize] {
    if SMOKE.load(Ordering::Relaxed) {
        &[100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    }
}

/// E17 — differential batch propagation and bulk warm init (DESIGN §4.13).
///
/// Two claims. **Init**: `LiveValidator::new` bulk-loads its columns,
/// occurrence maps and constraint tables, and must cost ≤2× a full
/// `Validator::validate` of the same tree at 10⁶ vertices (≤4× at the 10⁵
/// smoke size). Both sides are measured best-of-reps in the same process,
/// so machine noise cancels out of the ratio. **Batching**:
/// `apply_batch` must beat the equivalent sequential loop of one-edit
/// batches ≥5× in
/// µs/edit at 10⁶ vertices for batches ≥ 100 on the burst stream (edits
/// concentrated on `batch/8` vertices, where last-writer-wins coalescing
/// and per-group propagation pay off; ≥2× at the smoke size), with the
/// batched validator's report byte-identical to the sequential one after
/// every batch and to a from-scratch validation at the smallest size.
/// Also pins the satellite metrics contract: a batch's `ReportDiff`
/// carries both `edit.count` (raw) and `edit.coalesced` (surviving after
/// coalescing). Registers its rows for `BENCH_validate.json`.
fn e17_batch_propagation() {
    heading(
        "E17 (batch edits)",
        "apply_batch ≥5× sequential µs/edit at batch ≥100 (10⁶, burst); bulk init ≤2× full validate",
    );
    use rand::Rng;
    let batch_sizes = [1usize, 10, 100, 1000];
    let mut json_rows: Vec<String> = Vec::new();
    for &n in e17_sizes() {
        let (dtdc, tree) = constraint_heavy_workload(n, 101);
        let nodes = tree.len();
        let rows = (n / 4).max(1);
        let reps = if n >= 1_000_000 { 3 } else { 5 };
        let v = Validator::with_options(&dtdc, Options::default());
        let t_full = time_min(reps, || assert!(v.validate(&tree).is_valid()));

        // Warm init, best-of-reps (the clone stays outside the timer).
        let mut t_init = f64::INFINITY;
        let mut live = None;
        for _ in 0..reps {
            let copy = tree.clone();
            let start = std::time::Instant::now();
            let lv = LiveValidator::new(&v, copy);
            t_init = t_init.min(start.elapsed().as_secs_f64());
            live = Some(lv);
        }
        let mut live = live.expect("reps >= 1");
        let init_ratio = t_init / t_full;
        println!(
            "  nodes = {nodes:8}  full validate {:9.3} ms   bulk init {:9.3} ms   ratio ×{init_ratio:.2}",
            t_full * 1e3,
            t_init * 1e3
        );
        if n >= 1_000_000 {
            assert!(
                init_ratio <= 2.0,
                "bulk init above target at n={n}: ×{init_ratio:.2} of full validate (target ≤2)"
            );
        }
        if SMOKE.load(Ordering::Relaxed) {
            assert!(
                init_ratio <= 4.0,
                "bulk init smoke gate at n={n}: ×{init_ratio:.2} of full validate (gate ≤4)"
            );
        }

        // One-edit batches drive `live`; larger batches drive `live_b`. Both see
        // the same edit sequence, so their reports must stay identical at
        // every batch boundary.
        let mut live_b = LiveValidator::new(&v, tree);
        let orders: Vec<NodeId> = live.tree().ext("order").collect();
        let mut r = rng(303);
        let mut stream_json: Vec<String> = Vec::new();
        for (stream, burst) in [("uniform", false), ("burst", true)] {
            let mut batch_json: Vec<String> = Vec::new();
            for &batch in &batch_sizes {
                let span = if burst {
                    (batch / 8).max(1)
                } else {
                    orders.len()
                };
                let (mut best_seq, mut best_bat) = (f64::INFINITY, f64::INFINITY);
                for rep in 0..reps {
                    let reqs: Vec<BatchEdit> = (0..batch)
                        .map(|_| {
                            set_sup(
                                orders[r.gen_range(0..span)],
                                format!("s{}", r.gen_range(0..rows)),
                            )
                        })
                        .collect();
                    let start = std::time::Instant::now();
                    for e in &reqs {
                        let out = live.apply_batch(std::slice::from_ref(e)).unwrap();
                        std::hint::black_box(&out);
                    }
                    best_seq = best_seq.min(start.elapsed().as_secs_f64() / batch as f64);
                    let start = std::time::Instant::now();
                    let diff = live_b.apply_batch(&reqs).unwrap();
                    best_bat = best_bat.min(start.elapsed().as_secs_f64() / batch as f64);
                    std::hint::black_box(&diff);
                    assert_eq!(
                        live.report().violations,
                        live_b.report().violations,
                        "batched/sequential divergence at n={n} {stream} batch={batch} rep={rep}"
                    );
                }
                // From-scratch cross-check where a full validation is
                // cheap; the equality above already pins batched ==
                // sequential at every size.
                if n == e17_sizes()[0] {
                    assert_eq!(
                        live_b.report().violations,
                        v.validate(live_b.tree()).violations,
                        "batched/from-scratch divergence at n={n} {stream} batch={batch}"
                    );
                }
                let speedup = best_seq / best_bat;
                println!(
                    "        {stream:>7} batch {batch:4}: seq {:9.3} µs/edit   batched {:9.3} µs/edit   ×{speedup:.2}",
                    best_seq * 1e6,
                    best_bat * 1e6
                );
                if burst && batch >= 100 {
                    if n >= 1_000_000 {
                        assert!(
                            speedup >= 5.0,
                            "batched below target at n={n} batch={batch}: ×{speedup:.2} (target ≥5)"
                        );
                    }
                    if SMOKE.load(Ordering::Relaxed) {
                        assert!(
                            speedup >= 2.0,
                            "batched smoke gate at n={n} batch={batch}: ×{speedup:.2} (gate ≥2)"
                        );
                    }
                }
                batch_json.push(format!(
                    "{{\"batch\": {batch}, \"seq_seconds_per_edit\": {best_seq:.9}, \"batched_seconds_per_edit\": {best_bat:.9}, \"speedup\": {speedup:.2}}}"
                ));
            }
            stream_json.push(format!(
                "{{\"stream\": \"{stream}\", \"rows\": [{}]}}",
                batch_json.join(", ")
            ));
        }

        // The metrics contract (satellite of this study): raw and
        // coalesced edit counts are both reported, and they differ on a
        // coalescing-friendly batch.
        if n == e17_sizes()[0] {
            let collector = MetricsCollector::shared();
            let vo =
                Validator::with_options(&dtdc, Options::default()).with_obs(Obs::new(collector));
            let mut live_m = LiveValidator::new(&vo, live_b.tree().clone());
            let reqs: Vec<BatchEdit> = (0..100)
                .map(|i| BatchEdit::SetAttr {
                    node: orders[i % 10],
                    attr: "sup".into(),
                    value: AttrValue::single(format!("s{}", i % rows.min(1000))),
                })
                .collect();
            let diff = live_m.apply_batch(&reqs).unwrap();
            let m = diff.metrics.expect("collector attached => snapshot");
            assert_eq!(m.counter("edit.count"), 100);
            assert_eq!(m.counter("edit.coalesced"), 10);
            println!(
                "        metrics: edit.count = {} raw, edit.coalesced = {} surviving (100 edits over 10 vertices)",
                m.counter("edit.count"),
                m.counter("edit.coalesced")
            );
        }

        json_rows.push(format!(
            "      {{\"nodes\": {nodes}, \"full_validate_seconds\": {t_full:.6}, \"bulk_init_seconds\": {t_init:.6}, \"init_ratio\": {init_ratio:.3}, \"streams\": [{}]}}",
            stream_json.join(", ")
        ));
    }
    register_section(
        "e17_batch_edits",
        format!(
            "{{\n    \"workload\": \"constraint_heavy_workload; order.sup retargets, sequential one-edit apply_batch loop vs one apply_batch, uniform and burst (batch/8 vertices) streams (seed 101/303)\",\n    \"rows\": [\n{}\n    ]\n  }}",
            json_rows.join(",\n")
        ),
    );
}

/// Writes the E18/E20 load fixture under `dir` — a flat keyed document
/// (`item.id` a key, `ref.to` a set-valued foreign key into it) with
/// `items` items — and returns its source plus the daemon's schema flags.
fn flat_keyed_fixture(dir: &std::path::Path, items: usize) -> (String, Vec<String>) {
    std::fs::create_dir_all(dir).expect("create scratch dir");
    let dtd_path = dir.join("db.dtd");
    let sigma_path = dir.join("db.sigma");
    std::fs::write(
        &dtd_path,
        "<!ELEMENT db (item*, ref)>\n<!ELEMENT item (#PCDATA)>\n<!ELEMENT ref EMPTY>\n\
         <!ATTLIST item id CDATA #REQUIRED>\n<!ATTLIST ref to NMTOKENS #IMPLIED>\n",
    )
    .expect("write dtd");
    std::fs::write(&sigma_path, "item.id -> item\nref.to <=s item.id\n").expect("write sigma");
    let mut doc_src = String::from("<db>");
    for i in 0..items {
        doc_src.push_str(&format!("<item id=\"i{i}\">v</item>"));
    }
    doc_src.push_str("<ref to=\"i0\"/></db>");
    let server_args: Vec<String> = [
        "--dtd",
        dtd_path.to_str().unwrap(),
        "--root",
        "db",
        "--sigma",
        sigma_path.to_str().unwrap(),
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    (doc_src, server_args)
}

/// One e18 load-generator run: `docs` documents served by one daemon,
/// `clients` concurrent keep-alive connections (client *j* edits doc
/// *j mod docs*), each posting `edits_per_client` single-edit scripts.
/// Returns (aggregate edits/s, server-side p99 of `http.route.edits` in
/// ms, wall seconds).
fn serve_load_combo(
    docs: usize,
    clients: usize,
    edits_per_client: usize,
    items: usize,
    doc_src: &str,
    server_args: &[String],
) -> (f64, f64, f64) {
    use std::net::TcpListener;
    use std::time::{Duration, Instant};
    use xic_cli::http::HttpClient;

    let mut args = server_args.to_vec();
    args.extend(["--http-threads".to_string(), clients.max(4).to_string()]);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind port 0");
    let addr = listener.local_addr().unwrap();
    let daemon = std::thread::spawn(move || {
        xic_cli::serve_on(listener, &args).expect("daemon runs until shutdown")
    });

    let timeout = Duration::from_secs(60);
    let mut admin = HttpClient::connect(addr, timeout).expect("connect admin");
    for d in 0..docs {
        let (status, body) = admin
            .request("PUT", &format!("/docs/d{d}"), doc_src)
            .expect("PUT doc");
        assert_eq!(status, 201, "PUT /docs/d{d}: {body}");
    }
    // The ref element is the last vertex: root, then `items` item nodes.
    let ref_node = items + 1;

    // Warm-up: one edit per doc, outside the timed window, so shard and
    // connection setup never pollute the throughput numbers.
    for d in 0..docs {
        let script = format!("set-attr {ref_node} to i0\n");
        let (status, body) = admin
            .request("POST", &format!("/docs/d{d}/edits"), &script)
            .expect("warm-up edit");
        assert_eq!(status, 200, "{body}");
    }

    let start = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|j| {
            let doc_id = j % docs;
            std::thread::spawn(move || {
                let mut c = HttpClient::connect(addr, timeout).expect("connect client");
                for k in 0..edits_per_client {
                    // A rotating retarget of the set-valued foreign key:
                    // every edit moves `ref.to` to another existing item
                    // id, so propagation always has membership to check.
                    let script = format!("set-attr {ref_node} to i{}\n", (j * 7919 + k) % items);
                    let (status, body) = c
                        .request("POST", &format!("/docs/d{doc_id}/edits"), &script)
                        .expect("edit round-trip");
                    assert_eq!(status, 200, "{body}");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }
    let wall = start.elapsed().as_secs_f64();

    let (status, json) = admin
        .request("GET", "/metrics.json", "")
        .expect("metrics.json");
    assert_eq!(status, 200);
    let m = Metrics::parse_json(&json).expect("parseable metrics snapshot");
    let p99_ms = m
        .hist("http.route.edits")
        .expect("per-route histogram recorded")
        .quantile(0.99) as f64
        / 1e6;
    // Cross-check the per-doc ledgers: every accepted edit is accounted
    // for on exactly the doc that served it (warm-up + its clients').
    for d in 0..docs {
        let expected = 1 + (d..clients).step_by(docs).count() * edits_per_client;
        assert_eq!(
            m.counter(&format!("edits#doc=d{d}")),
            expected as u64,
            "doc d{d} edit ledger mismatch"
        );
    }

    let (status, _) = admin.request("POST", "/shutdown", "").expect("shutdown");
    assert_eq!(status, 200);
    daemon.join().expect("daemon thread");

    let total = (clients * edits_per_client) as f64;
    (total / wall, p99_ms, wall)
}

/// E18 — the multi-tenant serve load study (DESIGN §4.14).
///
/// An in-process load generator drives the real daemon over loopback
/// HTTP/1.1 keep-alive connections: N documents × M concurrent clients
/// posting single-edit scripts, with aggregate sustained edits/s measured
/// client-side and p99 latency read back from the daemon's own
/// `http.route.edits` histogram (`GET /metrics.json`). Documents are
/// independent shards, so 4 docs × 4 clients must scale: on a multi-core
/// host aggregate throughput is asserted ≥2× the serialized 1 doc ×
/// 1 client baseline; on a single-CPU host the gate is skipped with a
/// note, since there is no parallelism for the shards to buy. Also
/// cross-checks the per-doc edit ledgers from the labeled metrics.
/// Registers its rows for `BENCH_validate.json`.
fn e18_serve_load() {
    heading(
        "E18 (multi-tenant serve)",
        "4 docs × 4 clients aggregate edit throughput ≥2× the 1×1 serialized baseline (multi-core); p99 from the per-route histograms",
    );
    let smoke = SMOKE.load(Ordering::Relaxed);
    let items = if smoke { 500 } else { 2_000 };
    let edits_per_client = if smoke { 150 } else { 1_000 };

    // The workload: a flat keyed document (item.id a key, ref.to a
    // set-valued foreign key into it) big enough that each edit does real
    // constraint work, small enough that HTTP+shard dispatch — the thing
    // under test — stays a visible fraction of the cost.
    let dir = std::env::temp_dir().join("xic-e18");
    let (doc_src, server_args) = flat_keyed_fixture(&dir, items);

    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json_rows: Vec<String> = Vec::new();
    let mut baseline = 0.0f64;
    let mut speedup = 0.0f64;
    for (docs, clients) in [(1usize, 1usize), (4, 4)] {
        let (eps, p99_ms, wall) = serve_load_combo(
            docs,
            clients,
            edits_per_client,
            items,
            &doc_src,
            &server_args,
        );
        let vs = if docs == 1 {
            baseline = eps;
            String::new()
        } else {
            speedup = eps / baseline;
            format!("   ×{speedup:.2} vs 1×1")
        };
        println!(
            "  {docs} doc × {clients} client: {:6.0} edits/s sustained over {wall:6.2} s   p99 {p99_ms:7.3} ms{vs}",
            eps
        );
        json_rows.push(format!(
            "      {{\"docs\": {docs}, \"clients\": {clients}, \"edits_per_client\": {edits_per_client}, \"edits_per_sec\": {eps:.0}, \"p99_ms\": {p99_ms:.3}, \"wall_seconds\": {wall:.3}{}}}",
            if docs == 1 {
                String::new()
            } else {
                format!(", \"speedup_vs_1x1\": {speedup:.3}")
            }
        ));
    }
    if cpus >= 2 {
        assert!(
            speedup >= 2.0,
            "multi-tenant scaling below target on a {cpus}-core host: \
             4×4 throughput only ×{speedup:.2} of the 1×1 baseline (target ≥2)"
        );
    } else {
        println!(
            "        single-CPU host: ≥2× scaling gate skipped (shards cannot run in parallel on 1 core; throughput and p99 recorded above are still valid)"
        );
    }
    register_section(
        "e18_serve_load",
        format!(
            "{{\n    \"workload\": \"flat keyed doc ({items} items, item.id -> item, ref.to <=s item.id); loopback keep-alive clients each posting {edits_per_client} single-edit scripts; p99 from the daemon's http.route.edits histogram\",\n    \"cpus\": {cpus},\n    \"scaling_gate\": \"{}\",\n    \"rows\": [\n{}\n    ]\n  }}",
            if cpus >= 2 { "asserted >= 2x" } else { "skipped (single CPU)" },
            json_rows.join(",\n")
        ),
    );
}

/// The E19 document sizes. Like E17, the `--smoke` size is 10⁵: warm
/// start's advantage is a ratio of two linear passes, and on 10⁴-node
/// documents both sides finish in microseconds of noise.
fn e19_sizes() -> &'static [usize] {
    if SMOKE.load(Ordering::Relaxed) {
        &[100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    }
}

/// E19 — durable state: versioned snapshot + edit WAL warm start
/// (xic-storage; DESIGN §4.15).
///
/// Three claims, all best-of-reps in one process so machine noise
/// cancels. **State rebuild**: [`LiveValidator::from_state`] on a decoded
/// snapshot must cost ≤0.25× the cold boot (parse + `LiveValidator::new`)
/// at 10⁶ vertices (≤0.3× at the 10⁵ smoke size, where constant
/// overheads weigh more) — this is the snapshot's algorithmic win: the
/// extraction walk, structural validation scan, and interner construction
/// are replaced by integrity checks over already-shaped columns.
/// **End-to-end boot**: read + decode + rebuild + WAL replay must beat
/// parse + bulk-init outright (≤0.8× here; measured ≈0.6×). The
/// end-to-end ratio cannot reach 0.25× on one core because decoding a
/// snapshot materializes the same per-node tree allocations the parser
/// does, and that materialization dominates both paths; the components
/// line in the output shows the decomposition. **Crash safety**: a log
/// whose final record is torn mid-write recovers to a report
/// byte-identical to the pre-crash validator that applied every intact
/// batch — the torn tail is truncated away, never replayed, and never
/// misread as corruption. **Size**: at the smoke size the snapshot must
/// stay at or under 100 bytes per vertex (format v3 writes about 52;
/// format v2 wrote 189). Registers its rows for `BENCH_validate.json`.
fn e19_warm_start() {
    heading(
        "E19 (durable state)",
        "state rebuild ≤0.25× cold boot at 10⁶ vertices; end-to-end warm boot beats cold; torn-tail recovery byte-identical",
    );
    use rand::Rng;
    use xic::storage::{read_snapshot, write_snapshot, DocStore, FsyncPolicy, Wal};
    let dir = std::env::temp_dir().join(format!("xic-e19-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create e19 scratch dir");
    let mut json_rows: Vec<String> = Vec::new();
    for &n in e19_sizes() {
        let (dtdc, tree) = constraint_heavy_workload(n, 101);
        let nodes = tree.len();
        let rows = (n / 4).max(1);
        let reps = if n >= 1_000_000 { 3 } else { 5 };
        let src = format!(
            "<!DOCTYPE db [\n{}]>\n{}",
            serialize_dtd(dtdc.structure()),
            serialize_document(&tree)
        );
        let v = Validator::with_options(&dtdc, Options::default());

        // The durable artifacts: a snapshot of the freshly ingested
        // document plus 8 logged batches of 64 edits each — a typical
        // between-snapshots backlog under `--snapshot-every`.
        let mut live = LiveValidator::new(&v, tree);
        let orders: Vec<NodeId> = live.tree().ext("order").collect();
        let snap = dir.join(format!("snapshot-{n}.bin"));
        write_snapshot(&snap, &live, 0).expect("write snapshot");
        let wal_path = dir.join(format!("wal-{n}.log"));
        let (mut wal, _) = Wal::open(&wal_path, FsyncPolicy::Never).unwrap();
        let mut r = rng(909);
        let mk_batch = |r: &mut rand::rngs::SmallRng| -> Vec<BatchEdit> {
            (0..64)
                .map(|_| BatchEdit::SetAttr {
                    node: orders[r.gen_range(0..orders.len())],
                    attr: "sup".into(),
                    value: AttrValue::single(format!("s{}", r.gen_range(0..rows))),
                })
                .collect()
        };
        for _ in 0..8 {
            let batch = mk_batch(&mut r);
            wal.append(&batch).unwrap();
            live.apply_batch(&batch).unwrap();
        }
        let expected = live.report().to_string();
        let snap_bytes = std::fs::metadata(&snap).unwrap().len();

        // Correctness first, outside the timers: recovery lands
        // byte-identical to the surviving validator.
        {
            let (state, _) = read_snapshot(&snap).unwrap();
            let (_, batches) = Wal::open(&wal_path, FsyncPolicy::Never).unwrap();
            assert_eq!(batches.len(), 8, "wal replay count at n={n}");
            let mut lv = LiveValidator::from_state(&v, state).unwrap();
            for (_, b) in &batches {
                lv.apply_batch(b).unwrap();
            }
            assert_eq!(
                lv.report().to_string(),
                expected,
                "warm-start report diverged at n={n}"
            );
        }

        // Cold boot (parse the serialized document, then bulk-init the
        // live validator — the daemon's ingest path) and warm start (read
        // + decode the snapshot, rebuild, replay) alternate inside one
        // loop, so host drift over the run reaches both sides alike.
        // Phases are timed inside the loop (minimum per phase across
        // reps) rather than as differences of separately timed closures,
        // which would stack the noise of two measurements.
        let (mut t_parse, mut t_init, mut t_cold) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let (mut t_read, mut t_rebuild, mut t_warm) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for _ in 0..reps {
            let t0 = std::time::Instant::now();
            let doc = parse_document(&src).unwrap();
            let t1 = std::time::Instant::now();
            let lv = LiveValidator::new(&v, doc.tree);
            let t2 = std::time::Instant::now();
            std::hint::black_box(&lv);
            drop(lv);
            t_parse = t_parse.min((t1 - t0).as_secs_f64());
            t_init = t_init.min((t2 - t1).as_secs_f64());
            t_cold = t_cold.min((t2 - t0).as_secs_f64());

            let t0 = std::time::Instant::now();
            let (state, _) = read_snapshot(&snap).unwrap();
            let t1 = std::time::Instant::now();
            let mut lv = LiveValidator::from_state(&v, state).unwrap();
            let t2 = std::time::Instant::now();
            let (_, batches) = Wal::open(&wal_path, FsyncPolicy::Never).unwrap();
            for (_, b) in &batches {
                lv.apply_batch(b).unwrap();
            }
            let t3 = std::time::Instant::now();
            std::hint::black_box(&lv);
            t_read = t_read.min((t1 - t0).as_secs_f64());
            t_rebuild = t_rebuild.min((t2 - t1).as_secs_f64());
            t_warm = t_warm.min((t3 - t0).as_secs_f64());
        }
        let rebuild_ratio = t_rebuild / t_cold;
        let ratio = t_warm / t_cold;
        println!(
            "        components: cold = parse {:8.3} ms + init {:8.3} ms; warm = read+decode {:8.3} ms + from_state {:8.3} ms + replay",
            t_parse * 1e3,
            t_init * 1e3,
            t_read * 1e3,
            t_rebuild * 1e3
        );
        let bytes_per_vertex = snap_bytes as f64 / nodes as f64;
        println!(
            "  nodes = {nodes:8}  cold boot {:9.3} ms   warm start {:9.3} ms   ×{ratio:.3} end-to-end   ×{rebuild_ratio:.3} rebuild/cold   (snapshot {:.1} MB = {bytes_per_vertex:.1} B/vertex + 8×64-edit wal)",
            t_cold * 1e3,
            t_warm * 1e3,
            snap_bytes as f64 / 1e6
        );
        if n >= 1_000_000 {
            assert!(
                rebuild_ratio <= 0.25,
                "state rebuild above target at n={n}: ×{rebuild_ratio:.3} of cold boot (target ≤0.25)"
            );
            assert!(
                ratio <= 0.8,
                "end-to-end warm boot gate at n={n}: ×{ratio:.3} of cold boot (gate ≤0.8)"
            );
        }
        if SMOKE.load(Ordering::Relaxed) {
            assert!(
                rebuild_ratio <= 0.3,
                "state rebuild smoke gate at n={n}: ×{rebuild_ratio:.3} of cold boot (gate ≤0.3)"
            );
            assert!(
                ratio <= 0.8,
                "end-to-end warm boot smoke gate at n={n}: ×{ratio:.3} of cold boot (gate ≤0.8)"
            );
            assert!(
                bytes_per_vertex <= 100.0,
                "snapshot size smoke gate at n={n}: {bytes_per_vertex:.1} B per vertex (gate ≤100)"
            );
        }

        // Crash mid-append: a ninth batch's record is torn mid-write.
        // Recovery truncates the tail and lands byte-identical to the
        // pre-crash validator, which never applied that batch.
        let torn_batch = mk_batch(&mut r);
        wal.append(&torn_batch).unwrap();
        drop(wal);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .unwrap();
        let full = f.metadata().unwrap().len();
        f.set_len(full - 7).unwrap();
        drop(f);
        let (state, _) = read_snapshot(&snap).unwrap();
        let (_, batches) = Wal::open(&wal_path, FsyncPolicy::Never).unwrap();
        assert_eq!(
            batches.len(),
            8,
            "torn ninth record must be truncated away at n={n}"
        );
        let mut lv = LiveValidator::from_state(&v, state).unwrap();
        for (_, b) in &batches {
            lv.apply_batch(b).unwrap();
        }
        assert_eq!(
            lv.report().to_string(),
            expected,
            "crash-mid-batch recovery diverged at n={n}"
        );
        println!("        crash-mid-batch: torn record truncated, recovered report byte-identical");

        // Crash between snapshot publication and WAL reset: a fresh
        // snapshot of the post-batch state is published, stamped with the
        // log's last sequence, but the process dies before the log is
        // emptied. The 8 subsumed records are still on disk; recovery
        // must skip them by sequence — replaying non-idempotent batches
        // onto state that already contains them would silently diverge.
        let crash_store = DocStore::open(dir.join(format!("crash-{n}")), FsyncPolicy::Never)
            .expect("open crash-window store");
        drop(crash_store.open_wal("d").unwrap()); // create the layout
        std::fs::copy(&wal_path, crash_store.wal_path("d").unwrap()).unwrap();
        let last_seq = batches.last().map(|&(s, _)| s).unwrap();
        write_snapshot(&crash_store.snapshot_path("d").unwrap(), &live, last_seq).unwrap();
        let rec = crash_store.load("d").unwrap().expect("crash-window doc");
        assert!(
            rec.batches.is_empty(),
            "records subsumed by the snapshot replayed at n={n}"
        );
        let lv = LiveValidator::from_state(&v, rec.state).unwrap();
        assert_eq!(
            lv.report().to_string(),
            expected,
            "crash-between-snapshot-and-reset recovery diverged at n={n}"
        );
        assert_eq!(
            rec.wal.last_seq(),
            last_seq,
            "recovered log must append above the snapshot's sequence at n={n}"
        );
        println!(
            "        crash-between-snapshot-and-reset: {} stale records skipped by sequence, report byte-identical",
            batches.len()
        );

        json_rows.push(format!(
            "      {{\"nodes\": {nodes}, \"cold_boot_seconds\": {t_cold:.6}, \"warm_start_seconds\": {t_warm:.6}, \"warm_over_cold\": {ratio:.3}, \"rebuild_seconds\": {t_rebuild:.6}, \"rebuild_over_cold\": {rebuild_ratio:.3}, \"snapshot_bytes\": {snap_bytes}}}"
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    register_section(
        "e19_durable_state",
        format!(
            "{{\n    \"workload\": \"constraint_heavy_workload (seed 101); cold = parse + LiveValidator::new, warm = read_snapshot + from_state + replay of an 8x64-edit wal (seed 909)\",\n    \"rows\": [\n{}\n    ]\n  }}",
            json_rows.join(",\n")
        ),
    );
}

/// E20 — observability overhead and request-scoped trace chains
/// (DESIGN §4.16).
///
/// Part 1 re-runs the E18 4 docs × 4 clients load twice on the same
/// fixture: once with the span ring disabled (`--trace-buffer 0`, no
/// access log) and once fully instrumented (default ring, request
/// scoping, `--access-log` sampled at 1). The instrumented run must
/// sustain ≥0.9× the untraced aggregate edits/s (best of 2 runs per
/// side), and the access log must hold exactly one parseable
/// [`AccessRecord`] line per request the daemon served. Part 2 drives
/// one edit through a durable traced daemon and drains `GET /trace`:
/// the accept → queue wait → route → shard dispatch → batch → WAL
/// append chain must appear exactly once under that request's id.
fn e20_obs_overhead() {
    use std::net::TcpListener;
    use std::time::Duration;
    use xic::obs::json::{self, Json};
    use xic_cli::http::HttpClient;

    heading(
        "E20 (observability overhead)",
        "tracing + access log sustain >=0.9x untraced edit throughput; a drained /trace stitches accept -> queue -> shard -> wal under one request id",
    );
    let smoke = SMOKE.load(Ordering::Relaxed);
    let items = if smoke { 500 } else { 2_000 };
    let edits_per_client = if smoke { 150 } else { 1_000 };
    let (docs, clients) = (4usize, 4usize);

    let dir = std::env::temp_dir().join(format!("xic-e20-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (doc_src, server_args) = flat_keyed_fixture(&dir, items);

    // Part 1: the overhead gate. Same workload, two daemons: the span
    // ring off entirely vs every observability surface on at once.
    let untraced_args: Vec<String> = server_args
        .iter()
        .cloned()
        .chain(["--trace-buffer".into(), "0".into()])
        .collect();
    let log_path = dir.join("access.log");
    let traced_args: Vec<String> = server_args
        .iter()
        .cloned()
        .chain([
            "--access-log".into(),
            log_path.to_str().unwrap().to_string(),
            "--log-sample".into(),
            "1".into(),
        ])
        .collect();
    let best_of = |args: &[String]| -> f64 {
        let mut best = 0.0f64;
        for _ in 0..2 {
            let (eps, _, _) =
                serve_load_combo(docs, clients, edits_per_client, items, &doc_src, args);
            best = best.max(eps);
        }
        best
    };
    let untraced = best_of(&untraced_args);
    let traced = best_of(&traced_args);
    let ratio = traced / untraced;
    println!(
        "  {docs} docs × {clients} clients × {edits_per_client} edits: untraced {untraced:6.0} edits/s   traced+logged {traced:6.0} edits/s   ×{ratio:.3}"
    );
    assert!(
        ratio >= 0.9,
        "observability overhead above budget: traced throughput only ×{ratio:.3} of untraced (gate ≥0.9)"
    );

    // Every request of both traced runs is one parseable log line:
    // docs PUTs + warm-up edits + client edits + metrics.json + shutdown.
    let text = std::fs::read_to_string(&log_path).expect("read access log");
    let mut lines = 0u64;
    let mut edit_lines = 0u64;
    for line in text.lines() {
        let r = AccessRecord::parse(line)
            .unwrap_or_else(|e| panic!("unparseable access-log line ({e}): {line}"));
        if r.route == "http.route.edits" {
            assert_eq!(r.status, 200, "{line}");
            edit_lines += 1;
        }
        lines += 1;
    }
    let per_run = (docs + docs + clients * edits_per_client + 2) as u64;
    assert_eq!(lines, 2 * per_run, "access-log line count");
    assert_eq!(
        edit_lines,
        2 * (docs + clients * edits_per_client) as u64,
        "access-log edit-route line count"
    );
    println!(
        "        access log: {lines} lines, all parse; {edit_lines} edit requests accounted for"
    );

    // Part 2: one request's span chain through a durable daemon.
    let doc_path = dir.join("doc.xml");
    std::fs::write(&doc_path, &doc_src).expect("write doc");
    let mut args = vec![doc_path.to_str().unwrap().to_string()];
    args.extend(server_args.iter().cloned());
    args.extend([
        "--state-dir".to_string(),
        dir.join("state").to_str().unwrap().to_string(),
    ]);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind port 0");
    let addr = listener.local_addr().unwrap();
    let daemon =
        std::thread::spawn(move || xic_cli::serve_on(listener, &args).expect("traced daemon"));
    let timeout = Duration::from_secs(60);
    let mut admin = HttpClient::connect(addr, timeout).expect("connect admin");
    let (status, _) = admin
        .request("GET", "/trace", "")
        .expect("drain boot spans");
    assert_eq!(status, 200);
    {
        // A fresh connection: its queue wait lands in this request's scope.
        let mut c = HttpClient::connect(addr, timeout).expect("connect editor");
        let script = format!("set-attr {} to i1\n", items + 1);
        let (status, body) = c.request("POST", "/edits", &script).expect("edit");
        assert_eq!(status, 200, "{body}");
    }
    let (status, body) = admin.request("GET", "/trace", "").expect("drain trace");
    assert_eq!(status, 200);
    let events = match json::parse(&body).expect("chrome trace JSON") {
        Json::Array(events) => events,
        other => panic!("/trace is not an array: {other:?}"),
    };
    let req_of = |e: &Json| -> u64 {
        e.get("args")
            .and_then(|a| a.get("req"))
            .map_or(0, |r| r.as_u64("req").unwrap())
    };
    let name_of = |e: &Json| e.get("name").unwrap().as_str("name").unwrap().to_string();
    let edit_reqs: Vec<u64> = events
        .iter()
        .filter(|e| name_of(e) == "http.route.edits")
        .map(&req_of)
        .collect();
    assert_eq!(
        edit_reqs.len(),
        1,
        "expected exactly one traced edit request"
    );
    let rid = edit_reqs[0];
    assert!(rid > 0, "edit request untagged");
    let chain = [
        "serve.queue_wait",
        "http.request",
        "http.route.edits",
        "serve.shard_dispatch",
        "edit.batch",
        "wal.append",
    ];
    for expect in chain {
        let n = events
            .iter()
            .filter(|e| req_of(e) == rid && name_of(e) == expect)
            .count();
        assert_eq!(n, 1, "span {expect} not exactly once under request {rid}");
    }
    println!(
        "        trace chain: request {rid} carries each of {} exactly once",
        chain.join(" -> ")
    );
    let (status, _) = admin.request("POST", "/shutdown", "").expect("shutdown");
    assert_eq!(status, 200);
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&dir);

    register_section(
        "e20_obs_overhead",
        format!(
            "{{\n    \"workload\": \"E18 fixture ({items} items); {docs} docs x {clients} clients x {edits_per_client} edits, best of 2 per side: --trace-buffer 0 vs default ring + --access-log --log-sample 1; plus one traced request's drained span chain\",\n    \"untraced_edits_per_sec\": {untraced:.0},\n    \"traced_edits_per_sec\": {traced:.0},\n    \"traced_over_untraced\": {ratio:.3},\n    \"overhead_gate\": \"asserted >= 0.9x\",\n    \"access_log_lines\": {lines},\n    \"trace_chain\": [\"serve.queue_wait\", \"http.request\", \"http.route.edits\", \"serve.shard_dispatch\", \"edit.batch\", \"wal.append\"]\n  }}"
        ),
    );
}
