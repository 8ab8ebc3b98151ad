//! The structural half of Definition 2.4 and the compile-once validator.

use std::collections::HashMap;

use xic_constraints::{AttrType, DtdC};
use xic_model::{Child, DataTree, ExtIndex, Name, NodeId};
use xic_obs::Obs;
use xic_regex::{Dfa, Symbol};

use crate::plan::{check_planned, DocIndex, Plan};
use crate::report::{Report, Violation};

/// The content-model matcher: the one variant left is the DFA that
/// [`Validator::with_options`] always compiles. Kept only for
/// [`Validator::with_matcher`]'s remaining callers.
#[doc(hidden)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MatcherKind {
    /// Subset-construction DFA, compiled once per element type.
    Dfa,
}

/// Validation options.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Enforce Definition 2.4's "att(v, l) defined **iff** R(μ(v), l)
    /// defined" in both directions. When `false`, declared-but-absent
    /// attributes are tolerated (XML's `#IMPLIED` convention); undeclared
    /// attributes are always rejected.
    pub strict_attributes: bool,
    /// Worker threads for constraint checking: `0` (default) resolves to
    /// the machine's available parallelism via
    /// [`std::thread::available_parallelism`], `1` runs the sequential
    /// engine — the semantic ground truth — and `n > 1` fans checks out
    /// across constraints and splits large extents. This budget governs
    /// only the final constraint pass, on the tree and streaming paths
    /// alike; streaming always reads its events on the calling thread.
    /// Every setting produces byte-identical reports, and small documents
    /// stay single-threaded regardless (see `MIN_NODES_PER_THREAD`).
    pub threads: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            strict_attributes: true,
            threads: 0,
        }
    }
}

impl Options {
    /// Options tolerating absent declared attributes (`#IMPLIED`-style).
    pub fn lenient() -> Self {
        Options {
            strict_attributes: false,
            ..Options::default()
        }
    }

    /// These options with the given constraint-checking thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Compile-once validator for a `DTD^C`.
///
/// Construction compiles every element type's content model to a [`Dfa`];
/// [`Validator::validate`] then checks any number of data trees against the
/// same `DTD^C`.
pub struct Validator<'a> {
    pub(crate) dtdc: &'a DtdC,
    pub(crate) matchers: HashMap<Name, Dfa>,
    pub(crate) plan: Plan,
    pub(crate) options: Options,
    pub(crate) obs: Obs,
}

impl<'a> Validator<'a> {
    /// A validator with default options.
    pub fn new(dtdc: &'a DtdC) -> Self {
        Validator::with_options(dtdc, Options::default())
    }

    /// A validator with explicit options.
    pub fn with_options(dtdc: &'a DtdC, options: Options) -> Self {
        let s = dtdc.structure();
        let matchers = s
            .element_types()
            .map(|tau| {
                let m = s.content_model(tau).expect("declared element type");
                (tau.clone(), Dfa::from_model(m))
            })
            .collect();
        Validator {
            dtdc,
            matchers,
            plan: Plan::build(dtdc),
            options,
            obs: Obs::off(),
        }
    }

    /// [`Validator::with_options`]; the matcher is always the DFA.
    #[doc(hidden)]
    pub fn with_matcher(dtdc: &'a DtdC, _kind: MatcherKind, options: Options) -> Self {
        Validator::with_options(dtdc, options)
    }

    /// This validator with an observability handle attached: every
    /// subsequent validation run (tree, streaming, or incremental through a
    /// [`LiveValidator`]) records its phase spans and counters there, and
    /// reports embed a [`Metrics`](xic_obs::Metrics) snapshot when the
    /// collector aggregates one. Validation *results* are byte-identical
    /// with or without a collector (enforced by the `obs_equivalence`
    /// proptest).
    ///
    /// [`LiveValidator`]: crate::LiveValidator
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The underlying `DTD^C`.
    pub fn dtdc(&self) -> &DtdC {
        self.dtdc
    }

    /// The constraint-checking thread count after resolving `threads == 0`
    /// to the machine's available parallelism.
    pub fn effective_threads(&self) -> usize {
        match self.options.threads {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        }
    }

    /// Validates one data tree: structural checks (Definition 2.4, clauses
    /// 1–3) followed by constraint satisfaction (`G ⊨ Σ`) on the compiled
    /// plan.
    pub fn validate(&self, tree: &DataTree) -> Report {
        let mut violations = Vec::new();
        {
            let _structure = self.obs.span("structure");
            self.check_structure(tree, &mut violations);
        }
        self.check_constraints(tree, &mut violations);
        self.record_doc_totals(tree, &violations);
        Report {
            violations,
            metrics: self.obs.snapshot(),
        }
    }

    /// Flushes the per-run document totals (enabled-collector path only;
    /// the disabled handle returns before touching the tree).
    fn record_doc_totals(&self, tree: &DataTree, violations: &[Violation]) {
        if !self.obs.enabled() {
            return;
        }
        self.obs.add("nodes", tree.len() as u64);
        let attrs: usize = tree.node_ids().map(|id| tree.attrs(id).len()).sum();
        self.obs.add("attrs", attrs as u64);
        self.obs.add("violations", violations.len() as u64);
    }

    /// Runs only the constraint half (`G ⊨ Σ`, clause 4 of Definition
    /// 2.4) on the compiled plan. This is the compiled counterpart of
    /// looping [`crate::check_constraint`] over `Σ` — same violations, same
    /// order — and the entry point E11 benchmarks.
    pub fn validate_constraints(&self, tree: &DataTree) -> Report {
        let mut violations = Vec::new();
        self.check_constraints(tree, &mut violations);
        Report {
            violations,
            metrics: self.obs.snapshot(),
        }
    }

    /// Appends the constraint half's violations, in Σ order: the columns
    /// copied from the tree (the `plan` span), then the checks.
    fn check_constraints(&self, tree: &DataTree, out: &mut Vec<Violation>) {
        let idx = ExtIndex::build(tree);
        let doc = {
            let _plan = self.obs.span("plan");
            DocIndex::build(tree, &idx, &self.plan)
        };
        let threads = self.effective_threads();
        check_planned(&idx, self.dtdc, &doc, threads, tree.len(), &self.obs, out);
    }

    /// Runs only the structural half (clauses 1–3 of Definition 2.4).
    pub fn validate_structure(&self, tree: &DataTree) -> Report {
        let mut violations = Vec::new();
        let _structure = self.obs.span("structure");
        self.check_structure(tree, &mut violations);
        Report::from_violations(violations)
    }

    fn check_structure(&self, tree: &DataTree, out: &mut Vec<Violation>) {
        let root_label = tree.label(tree.root());
        if root_label != self.dtdc.structure().root() {
            out.push(Violation::RootLabel {
                expected: self.dtdc.structure().root().clone(),
                found: root_label.clone(),
            });
        }
        let mut word: Vec<Symbol> = Vec::new();
        for id in tree.node_ids() {
            self.check_structure_node(tree, id, &mut word, out);
        }
    }

    /// The per-vertex half of the structural check (content model against
    /// the vertex's own child word, plus attribute clauses). Shared by the
    /// whole-tree scan above and by incremental revalidation, which reruns
    /// it for exactly the vertices an edit touched. `word` is scratch
    /// space reused across calls.
    pub(crate) fn check_structure_node(
        &self,
        tree: &DataTree,
        id: NodeId,
        word: &mut Vec<Symbol>,
        out: &mut Vec<Violation>,
    ) {
        let s = self.dtdc.structure();
        let tau = tree.label(id);
        let Some(matcher) = self.matchers.get(tau) else {
            out.push(Violation::UnknownElementType {
                node: id,
                label: tau.clone(),
            });
            return;
        };
        // Child word.
        word.clear();
        for c in tree.children(id) {
            word.push(match c {
                Child::Text(_) => Symbol::S,
                Child::Node(n) => Symbol::Elem(tree.label(*n).clone()),
            });
        }
        if !matcher.matches(word) {
            out.push(Violation::ContentModel {
                node: id,
                tau: tau.clone(),
                expected: s
                    .content_model(tau)
                    .map(ToString::to_string)
                    .unwrap_or_default(),
                found: word
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(", "),
            });
        }
        // Attributes: att(v, l) defined iff R(τ, l) defined.
        for (l, value) in tree.attrs(id) {
            match s.attr_type(tau, l) {
                None => out.push(Violation::UndeclaredAttribute {
                    node: id,
                    attr: l.clone(),
                }),
                Some(AttrType::Single) => {
                    if !value.is_singleton() {
                        out.push(Violation::NotSingleton {
                            node: id,
                            attr: l.clone(),
                            len: value.len(),
                        });
                    }
                }
                Some(AttrType::SetValued) => {}
            }
        }
        if self.options.strict_attributes {
            for (l, _) in s.attributes(tau) {
                if tree.attr(id, l).is_none() {
                    out.push(Violation::MissingAttribute {
                        node: id,
                        attr: l.clone(),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_constraints::examples::{book_dtdc, book_structure};
    use xic_constraints::{DtdC, Language};
    use xic_model::{AttrValue, TreeBuilder};

    /// A fully valid book document (structure only; Σ handled elsewhere).
    fn valid_book() -> DataTree {
        let mut b = TreeBuilder::new();
        let book = b.node("book");
        let entry = b.child_node(book, "entry").unwrap();
        b.attr(entry, "isbn", AttrValue::single("x1")).unwrap();
        b.leaf(entry, "title", "T").unwrap();
        b.leaf(entry, "publisher", "P").unwrap();
        b.leaf(book, "author", "A").unwrap();
        let s1 = b.child_node(book, "section").unwrap();
        b.attr(s1, "sid", AttrValue::single("s1")).unwrap();
        b.leaf(s1, "title", "Intro").unwrap();
        b.leaf(s1, "text", "...").unwrap();
        let r = b.child_node(book, "ref").unwrap();
        b.attr(r, "to", AttrValue::set(["x1"])).unwrap();
        b.finish(book).unwrap()
    }

    fn structure_only_dtdc() -> DtdC {
        DtdC::new(book_structure(), Language::Lu, vec![]).unwrap()
    }

    #[test]
    fn valid_book_passes() {
        let r = Validator::new(&book_dtdc()).validate(&valid_book());
        assert!(r.is_valid(), "{r}");
    }

    #[test]
    fn wrong_root_reported() {
        let d = structure_only_dtdc();
        let mut b = TreeBuilder::new();
        let e = b.node("entry");
        b.attr(e, "isbn", AttrValue::single("x")).unwrap();
        b.leaf(e, "title", "T").unwrap();
        b.leaf(e, "publisher", "P").unwrap();
        let t = b.finish(e).unwrap();
        let r = Validator::new(&d).validate(&t);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::RootLabel { .. })));
    }

    #[test]
    fn content_model_violation_reported() {
        let d = structure_only_dtdc();
        let mut b = TreeBuilder::new();
        // book with no entry child.
        let book = b.node("book");
        let r = b.child_node(book, "ref").unwrap();
        b.attr(r, "to", AttrValue::set(["x"])).unwrap();
        let t = b.finish(book).unwrap();
        let rep = Validator::new(&d).validate(&t);
        assert!(
            rep.violations
                .iter()
                .any(|v| matches!(v, Violation::ContentModel { .. })),
            "{rep}"
        );
    }

    #[test]
    fn unknown_label_reported() {
        let d = structure_only_dtdc();
        let mut b = TreeBuilder::new();
        let book = b.node("book");
        b.child_node(book, "bogus").unwrap();
        let t = b.finish(book).unwrap();
        let rep = Validator::new(&d).validate(&t);
        assert!(rep
            .violations
            .iter()
            .any(|v| matches!(v, Violation::UnknownElementType { .. })));
    }

    #[test]
    fn attribute_clauses() {
        let d = structure_only_dtdc();
        let mut b = TreeBuilder::new();
        let book = b.node("book");
        let entry = b.child_node(book, "entry").unwrap();
        // isbn missing; bogus undeclared; title/publisher children present.
        b.attr(entry, "bogus", AttrValue::single("v")).unwrap();
        b.leaf(entry, "title", "T").unwrap();
        b.leaf(entry, "publisher", "P").unwrap();
        b.leaf(book, "author", "A").unwrap();
        let r = b.child_node(book, "ref").unwrap();
        b.attr(r, "to", AttrValue::set(["x"])).unwrap();
        let t = b.finish(book).unwrap();

        let strict = Validator::new(&d).validate_structure(&t);
        assert!(strict
            .violations
            .iter()
            .any(|v| matches!(v, Violation::UndeclaredAttribute { .. })));
        assert!(strict
            .violations
            .iter()
            .any(|v| matches!(v, Violation::MissingAttribute { .. })));

        let lenient = Validator::with_options(&d, Options::lenient()).validate_structure(&t);
        assert!(!lenient
            .violations
            .iter()
            .any(|v| matches!(v, Violation::MissingAttribute { .. })));
        // Undeclared attributes are rejected even leniently.
        assert!(lenient
            .violations
            .iter()
            .any(|v| matches!(v, Violation::UndeclaredAttribute { .. })));
    }

    #[test]
    fn non_singleton_single_valued_attr() {
        let d = structure_only_dtdc();
        let mut b = TreeBuilder::new();
        let book = b.node("book");
        let entry = b.child_node(book, "entry").unwrap();
        b.attr(entry, "isbn", AttrValue::set(["a", "b"])).unwrap();
        b.leaf(entry, "title", "T").unwrap();
        b.leaf(entry, "publisher", "P").unwrap();
        let r = b.child_node(book, "ref").unwrap();
        b.attr(r, "to", AttrValue::set(["a"])).unwrap();
        let t = b.finish(book).unwrap();
        let rep = Validator::new(&d).validate_structure(&t);
        assert!(
            rep.violations
                .iter()
                .any(|v| matches!(v, Violation::NotSingleton { len: 2, .. })),
            "{rep}"
        );
    }

    /// The validator's DFAs against the Brzozowski-derivative oracle: on
    /// random trees over the book alphabet, a vertex gets a
    /// `ContentModel` violation exactly when its child word is outside
    /// its content model's language. Child words are sampled from the
    /// vertex's content model and then kept, or mutated by one inserted
    /// or deleted symbol, so both answers occur and the walks reach deep
    /// DFA states.
    #[test]
    fn matchers_agree_on_random_documents() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashSet;
        let d = structure_only_dtdc();
        let s = d.structure();
        let v = Validator::with_options(&d, Options::lenient());
        let mut rng = SmallRng::seed_from_u64(99);
        let labels: Vec<Name> = s.element_types().cloned().collect();
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..60 {
            let mut b = TreeBuilder::new();
            let label = labels[rng.gen_range(0..labels.len())].clone();
            let root = b.node(label.as_str());
            let mut open = vec![(root, label)];
            let mut budget = 40;
            while let Some((id, label)) = open.pop() {
                let model = s.content_model(&label).expect("book alphabet");
                let mut word = model.sample(&mut rng, 0.5);
                match rng.gen_range(0..3) {
                    0 => {}
                    1 => {
                        let k = rng.gen_range(0..=labels.len());
                        let sym = labels.get(k).map_or(Symbol::S, |l| Symbol::Elem(l.clone()));
                        word.insert(rng.gen_range(0..=word.len()), sym);
                    }
                    _ if !word.is_empty() => {
                        word.remove(rng.gen_range(0..word.len()));
                    }
                    _ => {}
                }
                for sym in word {
                    match sym {
                        Symbol::S => b.text(id, "t").unwrap(),
                        Symbol::Elem(l) if budget > 0 => {
                            budget -= 1;
                            open.push((b.child_node(id, l.as_str()).unwrap(), l));
                        }
                        Symbol::Elem(_) => {}
                    }
                }
            }
            let t = b.finish(root).unwrap();
            let rejected_by_validator: HashSet<NodeId> = v
                .validate_structure(&t)
                .violations
                .iter()
                .filter_map(|viol| match viol {
                    Violation::ContentModel { node, .. } => Some(*node),
                    _ => None,
                })
                .collect();
            for id in t.node_ids() {
                let label = t.label(id);
                let model = s.content_model(label).expect("book alphabet");
                let word: Vec<Symbol> = t
                    .children(id)
                    .iter()
                    .map(|c| match c {
                        Child::Text(_) => Symbol::S,
                        Child::Node(n) => Symbol::Elem(t.label(*n).clone()),
                    })
                    .collect();
                let in_language = model.matches_derivative(&word);
                assert_eq!(
                    rejected_by_validator.contains(&id),
                    !in_language,
                    "{}: ({}) against {model}",
                    label,
                    word.iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                if in_language {
                    accepted += 1;
                } else {
                    rejected += 1;
                }
            }
        }
        // The trees exercise both answers, not just one.
        assert!(
            accepted > 0 && rejected > 0,
            "{accepted} in, {rejected} out"
        );
    }
}
