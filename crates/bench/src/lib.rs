//! Workload generators shared by the Criterion benches and the
//! `experiments` binary (experiments E1–E14; see EXPERIMENTS.md at the
//! repository root for the experiment ↔ paper-claim index).

#![warn(missing_docs)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xic::prelude::*;

/// Deterministic RNG.
pub fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// E1 — a random well-formed `L_id` constraint set of ~`n` constraints
/// over `n/4 + 2` types: ID constraints, set-valued reference chains, and
/// inverse pairs (each reference attribute has a single target).
pub fn lid_sigma(n: usize, rng: &mut SmallRng) -> Vec<Constraint> {
    let n_types = n / 4 + 2;
    let types: Vec<Name> = (0..n_types).map(|i| Name::new(format!("c{i}"))).collect();
    let mut sigma: Vec<Constraint> = Vec::with_capacity(n);
    for t in &types {
        sigma.push(Constraint::Id { tau: t.clone() });
    }
    let mut attr_id = 0usize;
    while sigma.len() < n {
        let a = rng.gen_range(0..n_types);
        let b = rng.gen_range(0..n_types);
        attr_id += 1;
        match rng.gen_range(0..4) {
            0 => sigma.push(Constraint::unary_key(
                types[a].clone(),
                format!("k{attr_id}"),
            )),
            1 => sigma.push(Constraint::FkToId {
                tau: types[a].clone(),
                attr: format!("f{attr_id}").as_str().into(),
                target: types[b].clone(),
            }),
            2 => sigma.push(Constraint::SetFkToId {
                tau: types[a].clone(),
                attr: format!("s{attr_id}").as_str().into(),
                target: types[b].clone(),
            }),
            _ => sigma.push(Constraint::InverseId {
                tau: types[a].clone(),
                attr: format!("i{attr_id}").as_str().into(),
                target: types[b].clone(),
                target_attr: format!("j{attr_id}").as_str().into(),
            }),
        }
    }
    sigma
}

/// Queries matching [`lid_sigma`]'s vocabulary: a mix of present and
/// absent facts.
pub fn lid_queries(n: usize) -> Vec<Constraint> {
    let n_types = n / 4 + 2;
    (0..n_types)
        .flat_map(|i| {
            [
                Constraint::Id {
                    tau: format!("c{i}").as_str().into(),
                },
                Constraint::unary_key(format!("c{i}"), "id"),
                Constraint::unary_key(format!("c{i}"), "absent"),
            ]
        })
        .collect()
}

/// E2 — a foreign-key chain `t0.k ⊆ t1.k ⊆ … ⊆ tn.k`; the query asks for
/// the end-to-end composition.
pub fn lu_chain(n: usize) -> (Vec<Constraint>, Constraint) {
    let mut sigma = Vec::with_capacity(n);
    for i in 0..n {
        sigma.push(Constraint::unary_fk(
            format!("t{i}"),
            "k",
            format!("t{}", i + 1),
            "k",
        ));
    }
    let phi = Constraint::unary_fk("t0", "k", format!("t{n}"), "k");
    (sigma, phi)
}

/// E2 — the finite/unrestricted divergence family scaled up: a chain of
/// `n` types each carrying two keys `a`, `b` with `tᵢ.a ⊆ tᵢ.b` and
/// `tᵢ.b ⊆ tᵢ₊₁.a`; the query reverses the whole chain, which holds
/// finitely (cardinality cycle through the same-type key edges) but not
/// over unrestricted instances.
pub fn lu_cycle_family(n: usize) -> (Vec<Constraint>, Constraint) {
    let mut sigma = Vec::new();
    for i in 0..n {
        sigma.push(Constraint::unary_key(format!("t{i}"), "a"));
        sigma.push(Constraint::unary_key(format!("t{i}"), "b"));
        sigma.push(Constraint::unary_fk(
            format!("t{i}"),
            "a",
            format!("t{i}"),
            "b",
        ));
        if i + 1 < n {
            sigma.push(Constraint::unary_fk(
                format!("t{i}"),
                "b",
                format!("t{}", i + 1),
                "a",
            ));
        }
    }
    // Reversal of the first edge: t0.b ⊆ t0.a.
    let phi = Constraint::unary_fk("t0", "b", "t0", "a");
    (sigma, phi)
}

/// E5 — a chain of `n_rels` relations with arity-`arity` primary keys and
/// column-permuted foreign keys between consecutive relations; the query
/// composes the whole chain.
pub fn lp_chain(n_rels: usize, arity: usize) -> (Vec<Constraint>, Constraint) {
    let cols: Vec<String> = (0..arity).map(|i| format!("a{i}")).collect();
    let mut sigma = Vec::new();
    for r in 0..n_rels {
        sigma.push(Constraint::key(
            format!("r{r}"),
            cols.iter().map(String::as_str),
        ));
    }
    for r in 0..n_rels - 1 {
        // Rotate the columns by one between hops to exercise PFK-perm.
        let mut src = cols.clone();
        src.rotate_left(r % arity.max(1));
        let mut dst = cols.clone();
        dst.rotate_left(r % arity.max(1));
        sigma.push(Constraint::fk(
            format!("r{r}"),
            src.iter().map(String::as_str),
            format!("r{}", r + 1),
            dst.iter().map(String::as_str),
        ));
    }
    let phi = Constraint::fk(
        "r0",
        cols.iter().map(String::as_str),
        format!("r{}", n_rels - 1),
        cols.iter().map(String::as_str),
    );
    (sigma, phi)
}

/// E6/E7 — a nested DTD: `r0 → r1 → … → r_depth`, each level a unique
/// sub-element of the previous, each level with a key attribute `k`
/// declared in `Σ`; queried with paths down the spine.
pub fn nested_dtdc(depth: usize) -> DtdC {
    let mut b = DtdStructure::builder("r0");
    for i in 0..depth {
        b = b.elem(format!("r{i}"), &format!("(r{})", i + 1));
    }
    b = b.elem(format!("r{depth}"), "S");
    for i in 0..=depth {
        b = b.attr(format!("r{i}"), "k", "S");
    }
    let structure = b.build().expect("nested structure");
    let sigma = (0..=depth)
        .map(|i| Constraint::unary_key(format!("r{i}"), "k"))
        .collect();
    DtdC::new(structure, Language::Lid, sigma).expect("nested Σ")
}

/// The spine path `r1.r2.….r_to` (optionally ending in the key attribute).
pub fn spine(from: usize, to: usize, with_key: bool) -> Path {
    let mut steps: Vec<String> = ((from + 1)..=to).map(|i| format!("r{i}")).collect();
    if with_key {
        steps.push("k".into());
    }
    Path::new(steps)
}

/// E8 — an inverse chain: classes `c0..cn`, each consecutive pair linked by
/// set-valued references `fwd`/`back` with an `L_id` inverse constraint.
/// Returns the `DTD^C` and, for each `k ≤ n`, the composed path-inverse
/// query `c0.fwd…fwd ⇌ ck.back…back` is implied (built by
/// [`inverse_query`]).
pub fn inverse_chain_dtdc(n: usize) -> DtdC {
    let mut b = DtdStructure::builder("db");
    use xic::regex::ContentModel;
    let root = ContentModel::seq_all(
        (0..=n).map(|i| ContentModel::star(ContentModel::elem(format!("c{i}")))),
    );
    b = b.elem_model("db", root);
    for i in 0..=n {
        b = b.elem_model(format!("c{i}"), ContentModel::Epsilon);
        b = b.id_attr(format!("c{i}"), "oid");
        if i < n {
            b = b.idrefs_attr(format!("c{i}"), "fwd");
        }
        if i > 0 {
            b = b.idrefs_attr(format!("c{i}"), "back");
        }
    }
    let structure = b.build().expect("inverse chain structure");
    let mut sigma: Vec<Constraint> = (0..=n)
        .map(|i| Constraint::Id {
            tau: format!("c{i}").as_str().into(),
        })
        .collect();
    for i in 0..n {
        sigma.push(Constraint::InverseId {
            tau: format!("c{i}").as_str().into(),
            attr: "fwd".into(),
            target: format!("c{}", i + 1).as_str().into(),
            target_attr: "back".into(),
        });
    }
    DtdC::new(structure, Language::Lid, sigma).expect("inverse chain Σ")
}

/// The composed inverse query of length `k` over [`inverse_chain_dtdc`].
pub fn inverse_query(k: usize) -> (Name, Path, Name, Path) {
    (
        "c0".into(),
        Path::new(std::iter::repeat_n("fwd", k)),
        format!("c{k}").as_str().into(),
        Path::new(std::iter::repeat_n("back", k)),
    )
}

/// E10 — a generated company document of `n` objects per class with its
/// `DTD^C`.
pub fn company_workload(n: usize, seed: u64) -> (DtdC, DataTree) {
    let schema = ObjSchema::person_dept();
    let dtdc = schema.to_dtdc();
    let mut r = rng(seed);
    let inst = schema.generate_instance(n, &mut r);
    let tree = schema.export(&inst);
    (dtdc, tree)
}

/// E10b — the content models of `dtdc`'s element types, in
/// `element_types()` order, and the child word of every vertex of `tree`
/// (strings ↦ `S`, element children ↦ their labels) tagged with the index
/// of its type's model. Vertices of undeclared types are skipped.
pub fn child_words(dtdc: &DtdC, tree: &DataTree) -> (Vec<ContentModel>, Vec<(usize, Vec<Symbol>)>) {
    let s = dtdc.structure();
    let types: Vec<&Name> = s.element_types().collect();
    let models = types
        .iter()
        .map(|tau| s.content_model(tau).expect("declared element type").clone())
        .collect();
    let words = tree
        .node_ids()
        .filter_map(|id| {
            let model = types.iter().position(|tau| *tau == tree.label(id))?;
            let word = tree
                .children(id)
                .iter()
                .map(|c| match c {
                    xic::model::Child::Text(_) => Symbol::S,
                    xic::model::Child::Node(n) => Symbol::Elem(tree.label(*n).clone()),
                })
                .collect();
            Some((model, word))
        })
        .collect();
    (models, words)
}

/// E10 — a generated publishers/editors document of `n` rows per relation.
pub fn publishers_workload(n: usize, seed: u64) -> (DtdC, DataTree) {
    let schema = RelSchema::publishers_editors();
    let dtdc = schema.to_dtdc();
    let mut r = rng(seed);
    let inst = schema.generate_instance(n, &mut r);
    let tree = schema.export(&inst);
    (dtdc, tree)
}

/// E11 — a constraint-heavy supplier/part/order document of ~`n` vertices
/// with a ten-constraint `L_u` Σ whose constraints heavily share fields
/// (three unary keys, one sub-element key, three foreign keys, two
/// set-valued foreign keys, one inverse). The document is valid, so
/// timings measure the clean fast path. This is the workload behind the
/// `e11_validate_engine` bench and `BENCH_validate.json`: the compiled
/// engine extracts each shared column once, while the per-constraint
/// baseline re-walks the tree per constraint.
pub fn constraint_heavy_workload(n: usize, seed: u64) -> (DtdC, DataTree) {
    let structure = DtdStructure::builder("db")
        .elem("db", "(supplier + part + order)*")
        .elem("supplier", "EMPTY")
        .attr("supplier", "sid", "S")
        .attr("supplier", "parts", "S*")
        .elem("part", "EMPTY")
        .attr("part", "pid", "S")
        .attr("part", "sup", "S")
        .attr("part", "also", "S*")
        .elem("order", "memo")
        .attr("order", "oid", "S")
        .attr("order", "part", "S")
        .attr("order", "sup", "S")
        .attr("order", "refs", "S*")
        .elem("memo", "S")
        .build()
        .expect("e11 structure");
    let sigma = vec![
        Constraint::unary_key("supplier", "sid"),
        Constraint::unary_key("part", "pid"),
        Constraint::unary_key("order", "oid"),
        Constraint::sub_key("order", "memo"),
        Constraint::unary_fk("part", "sup", "supplier", "sid"),
        Constraint::unary_fk("order", "part", "part", "pid"),
        Constraint::unary_fk("order", "sup", "supplier", "sid"),
        Constraint::set_fk("order", "refs", "part", "pid"),
        Constraint::set_fk("part", "also", "supplier", "sid"),
        Constraint::InverseU {
            tau: "part".into(),
            key: Field::attr("pid"),
            attr: "also".into(),
            target: "supplier".into(),
            target_key: Field::attr("sid"),
            target_attr: "parts".into(),
        },
    ];
    let dtdc = DtdC::new(structure, Language::Lu, sigma).expect("e11 Σ well-formed");

    // Each row contributes one supplier, one part, and one order with a
    // memo leaf: four vertices per row.
    let rows = (n / 4).max(1);
    let mut r = rng(seed);
    let sup_of: Vec<usize> = (0..rows).map(|_| r.gen_range(0..rows)).collect();
    let mut parts_of: Vec<Vec<String>> = vec![Vec::new(); rows];
    for (p, &s) in sup_of.iter().enumerate() {
        parts_of[s].push(format!("p{p}"));
    }
    let mut b = TreeBuilder::new();
    let db = b.node("db");
    for (i, parts) in parts_of.iter().enumerate() {
        let s = b.child_node(db, "supplier").unwrap();
        b.attr(s, "sid", AttrValue::single(format!("s{i}")))
            .unwrap();
        b.attr(s, "parts", AttrValue::set(parts.iter().cloned()))
            .unwrap();
    }
    for (i, &s) in sup_of.iter().enumerate() {
        let p = b.child_node(db, "part").unwrap();
        b.attr(p, "pid", AttrValue::single(format!("p{i}")))
            .unwrap();
        b.attr(p, "sup", AttrValue::single(format!("s{s}")))
            .unwrap();
        b.attr(p, "also", AttrValue::set([format!("s{s}")]))
            .unwrap();
    }
    for i in 0..rows {
        let o = b.child_node(db, "order").unwrap();
        b.attr(o, "oid", AttrValue::single(format!("o{i}")))
            .unwrap();
        b.attr(
            o,
            "part",
            AttrValue::single(format!("p{}", r.gen_range(0..rows))),
        )
        .unwrap();
        b.attr(
            o,
            "sup",
            AttrValue::single(format!("s{}", r.gen_range(0..rows))),
        )
        .unwrap();
        b.attr(
            o,
            "refs",
            AttrValue::set([
                format!("p{}", r.gen_range(0..rows)),
                format!("p{}", r.gen_range(0..rows)),
            ]),
        )
        .unwrap();
        b.leaf(o, "memo", format!("m{i}")).unwrap();
    }
    (dtdc, b.finish(db).unwrap())
}

/// Times `f` as the minimum of `reps` runs (returns seconds).
pub fn time_min<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = std::time::Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// The fastest time per run of each of `arms` over `reps` rounds. A
/// round times every arm once, in turn, so a drift in the machine's speed
/// falls on all arms alike; a timing repeats its arm until `min_s`
/// seconds have passed and divides by the runs, so that a run shorter
/// than the timer's and the scheduler's noise is not judged alone.
pub fn time_min_interleaved<const N: usize>(
    reps: usize,
    min_s: f64,
    mut arms: [&mut dyn FnMut(); N],
) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for _ in 0..reps {
        for (arm, best) in arms.iter_mut().zip(&mut best) {
            let start = std::time::Instant::now();
            let mut runs = 0u32;
            let elapsed = loop {
                arm();
                runs += 1;
                let t = start.elapsed().as_secs_f64();
                if t >= min_s {
                    break t;
                }
            };
            *best = best.min(elapsed / f64::from(runs));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic::implication::lu::Mode;

    #[test]
    fn generators_produce_wellformed_workloads() {
        let mut r = rng(1);
        let sigma = lid_sigma(64, &mut r);
        assert!(sigma.len() >= 64);
        let solver = LidSolver::new(&sigma, None);
        for q in lid_queries(64) {
            let _ = solver.holds(&q);
        }

        let (sigma, phi) = lu_chain(16);
        let s = LuSolver::new(&sigma).unwrap();
        assert!(s.implies(&phi, Mode::Unrestricted).unwrap().is_implied());

        let (sigma, phi) = lu_cycle_family(8);
        let s = LuSolver::new(&sigma).unwrap();
        assert!(s.implies(&phi, Mode::Finite).unwrap().is_implied());
        assert!(!s.implies(&phi, Mode::Unrestricted).unwrap().is_implied());

        let (sigma, phi) = lp_chain(5, 3);
        let s = LpSolver::new(&sigma).unwrap();
        assert!(s.implies(&phi).is_implied());

        let d = nested_dtdc(10);
        let solver = PathSolver::new(&d);
        assert!(solver.functional_implied(&"r0".into(), &spine(0, 10, true), &spine(0, 3, false)));
        assert!(solver.inclusion_implied(
            &"r0".into(),
            &spine(0, 10, false),
            &"r4".into(),
            &spine(4, 10, false)
        ));

        let d = inverse_chain_dtdc(6);
        let solver = PathSolver::new(&d);
        let (t1, p1, t2, p2) = inverse_query(6);
        assert!(solver.inverse_implied(&t1, &p1, &t2, &p2));
        let (t1, p1, t2, p2) = inverse_query(3);
        assert!(solver.inverse_implied(&t1, &p1, &t2, &p2));

        let (dtdc, tree) = company_workload(5, 9);
        assert!(validate(&tree, &dtdc).is_valid());
        let (models, words) = child_words(&dtdc, &tree);
        assert_eq!(words.len(), tree.len());
        assert!(words.iter().all(|(i, w)| models[*i].matches_derivative(w)));
        let (dtdc, tree) = publishers_workload(5, 9);
        assert!(validate(&tree, &dtdc).is_valid());
    }

    #[test]
    fn constraint_heavy_workload_is_valid_and_scales() {
        let (dtdc, tree) = constraint_heavy_workload(4000, 7);
        assert_eq!(dtdc.constraints().len(), 10);
        assert!(tree.len() >= 4000, "got {} vertices", tree.len());
        let report = validate(&tree, &dtdc);
        assert!(report.is_valid(), "{report}");
        // The compiled engine and the naive per-constraint loop agree.
        let naive: usize = dtdc
            .constraints()
            .iter()
            .map(|c| check_constraint(&tree, &dtdc, c).len())
            .sum();
        assert_eq!(naive, 0);
    }
}
