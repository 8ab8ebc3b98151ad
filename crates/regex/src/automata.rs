//! Glushkov (position) automaton and its determinization.
//!
//! Content models are compiled once per element type at DTD-load time; the
//! validator then runs words (child-label sequences) through the [`Dfa`].
//! The [`Nfa`] is both the DFA's intermediate and, through [`Nfa::matches`],
//! one of its test oracles (ablation E10b times all three matchers).

use std::collections::{BTreeSet, HashMap};

use crate::ast::{ContentModel, Symbol};

/// A Glushkov automaton for a content model.
///
/// States are `0` (the start state) plus one state per symbol *position*
/// (occurrence) in the expression; the automaton is ε-free and has the
/// characteristic Glushkov property that all transitions into a position
/// are labelled with that position's symbol.
#[derive(Clone, Debug)]
pub struct Nfa {
    /// Symbol at each position (1-based; index 0 unused).
    pos_symbol: Vec<Symbol>,
    /// `first` — positions reachable from the start state.
    first: BTreeSet<usize>,
    /// `follow(p)` — positions that may follow position `p`.
    follow: Vec<BTreeSet<usize>>,
    /// `last` — accepting positions.
    last: BTreeSet<usize>,
    /// Whether the start state is accepting (`ε ∈ L(α)`).
    nullable: bool,
}

/// `(nullable, first, last)` for a subexpression, with positions assigned by
/// a running counter.
struct Local {
    nullable: bool,
    first: BTreeSet<usize>,
    last: BTreeSet<usize>,
}

impl Nfa {
    /// Builds the Glushkov automaton of `m`.
    pub fn build(m: &ContentModel) -> Nfa {
        let mut nfa = Nfa {
            pos_symbol: vec![Symbol::S], // dummy for index 0
            first: BTreeSet::new(),
            follow: vec![BTreeSet::new()],
            last: BTreeSet::new(),
            nullable: false,
        };
        let local = nfa.go(m);
        nfa.first = local.first;
        nfa.last = local.last;
        nfa.nullable = local.nullable;
        nfa
    }

    fn new_pos(&mut self, s: &Symbol) -> usize {
        self.pos_symbol.push(s.clone());
        self.follow.push(BTreeSet::new());
        self.pos_symbol.len() - 1
    }

    fn go(&mut self, m: &ContentModel) -> Local {
        match m {
            ContentModel::S => {
                let p = self.new_pos(&Symbol::S);
                Local {
                    nullable: false,
                    first: BTreeSet::from([p]),
                    last: BTreeSet::from([p]),
                }
            }
            ContentModel::Elem(n) => {
                let p = self.new_pos(&Symbol::Elem(n.clone()));
                Local {
                    nullable: false,
                    first: BTreeSet::from([p]),
                    last: BTreeSet::from([p]),
                }
            }
            ContentModel::Epsilon => Local {
                nullable: true,
                first: BTreeSet::new(),
                last: BTreeSet::new(),
            },
            ContentModel::Alt(a, b) => {
                let la = self.go(a);
                let lb = self.go(b);
                Local {
                    nullable: la.nullable || lb.nullable,
                    first: la.first.union(&lb.first).copied().collect(),
                    last: la.last.union(&lb.last).copied().collect(),
                }
            }
            ContentModel::Seq(a, b) => {
                let la = self.go(a);
                let lb = self.go(b);
                for &p in &la.last {
                    self.follow[p].extend(lb.first.iter().copied());
                }
                Local {
                    nullable: la.nullable && lb.nullable,
                    first: if la.nullable {
                        la.first.union(&lb.first).copied().collect()
                    } else {
                        la.first
                    },
                    last: if lb.nullable {
                        la.last.union(&lb.last).copied().collect()
                    } else {
                        lb.last
                    },
                }
            }
            ContentModel::Star(a) => {
                let la = self.go(a);
                for &p in &la.last {
                    self.follow[p].extend(la.first.iter().copied());
                }
                Local {
                    nullable: true,
                    first: la.first,
                    last: la.last,
                }
            }
        }
    }

    /// Number of positions (NFA states minus the start state).
    pub fn positions(&self) -> usize {
        self.pos_symbol.len() - 1
    }

    /// Membership test by NFA simulation (set-of-positions).
    pub fn matches(&self, word: &[Symbol]) -> bool {
        let mut run = self.start_run();
        for s in word {
            self.step_run(&mut run, s);
            if run.is_dead() {
                return false;
            }
        }
        self.run_accepts(&run)
    }

    /// The initial simulation state.
    fn start_run(&self) -> NfaRun {
        NfaRun {
            set: BTreeSet::new(),
            at_start: true,
        }
    }

    /// Advances `run` by one symbol.
    fn step_run(&self, run: &mut NfaRun, s: &Symbol) {
        let mut next = BTreeSet::new();
        let sources: Box<dyn Iterator<Item = usize>> = if run.at_start {
            Box::new(self.first.iter().copied())
        } else {
            Box::new(run.set.iter().flat_map(|&p| self.follow[p].iter().copied()))
        };
        for p in sources {
            if &self.pos_symbol[p] == s {
                next.insert(p);
            }
        }
        run.set = next;
        run.at_start = false;
    }

    /// Acceptance of the current state.
    fn run_accepts(&self, run: &NfaRun) -> bool {
        if run.at_start {
            self.nullable
        } else {
            run.set.iter().any(|p| self.last.contains(p))
        }
    }
}

/// Incremental simulation state of an [`Nfa`]: the set of live positions,
/// plus the distinguished "no symbol read yet" start configuration.
struct NfaRun {
    set: BTreeSet<usize>,
    at_start: bool,
}

impl NfaRun {
    /// True iff no completion of the word read so far can be accepted.
    fn is_dead(&self) -> bool {
        !self.at_start && self.set.is_empty()
    }
}

/// Deterministic automaton built from an [`Nfa`] by subset construction.
///
/// Transitions on symbols not in the content model's alphabet go to an
/// implicit dead state (i.e. immediately reject).
#[derive(Clone, Debug)]
pub struct Dfa {
    /// Per state: `(symbol, successor)` pairs in symbol order. Content-model
    /// alphabets are a handful of symbols, so one transition lookup is a
    /// short linear scan over a contiguous row — cheaper than hashing the
    /// symbol's label string, which dominates when the streaming validator
    /// steps a matcher on every child event.
    trans: Vec<Vec<(Symbol, u32)>>,
    accepting: Vec<bool>,
}

impl Dfa {
    /// Determinizes `nfa`.
    pub fn build(nfa: &Nfa) -> Dfa {
        // DFA states are sets of NFA positions; the start DFA state is the
        // special "at start" configuration.
        let mut states: HashMap<BTreeSet<usize>, usize> = HashMap::new();
        let mut trans: Vec<Vec<(Symbol, u32)>> = Vec::new();
        let mut accepting: Vec<bool> = Vec::new();
        let mut work: Vec<BTreeSet<usize>> = Vec::new();

        let start: BTreeSet<usize> = nfa.first.clone();
        // State 0 represents "start": reachable positions are `first`, and it
        // accepts iff the model is nullable. Subsequent states are position
        // sets whose acceptance is intersection with `last`.
        states.insert(start.clone(), 0);
        trans.push(Vec::new());
        accepting.push(nfa.nullable);
        work.push(start);

        // For the start state, transition on s goes to {p ∈ first | sym p = s};
        // for others, to {q ∈ follow(p) | p ∈ state, sym q = s}. To unify the
        // two, the stored set for state 0 *is* `first` and we always filter
        // the stored "candidate" set by symbol... but follow-based successor
        // sets differ. Keep it explicit instead: we store, for each DFA
        // state, the set of NFA positions we are currently "in" (empty set +
        // at_start flag folded away by making state 0's set pre-filtered).
        //
        // Concretely: define succ(state_set, s) for state 0 as
        // {p ∈ first | sym p = s} and for others likewise over follows. To
        // avoid special-casing inside the loop we tag state 0 by index.
        let mut i = 0usize;
        while i < work.len() {
            let cur = work[i].clone();
            // Candidate successor positions grouped by symbol.
            let mut by_sym: HashMap<Symbol, BTreeSet<usize>> = HashMap::new();
            let candidates: Box<dyn Iterator<Item = usize>> = if i == 0 {
                Box::new(nfa.first.iter().copied())
            } else {
                Box::new(cur.iter().flat_map(|&p| nfa.follow[p].iter().copied()))
            };
            for p in candidates {
                by_sym
                    .entry(nfa.pos_symbol[p].clone())
                    .or_default()
                    .insert(p);
            }
            for (sym, set) in by_sym {
                let id = match states.get(&set) {
                    // Never reuse state 0's id for a positional set: state 0
                    // is the distinguished start configuration.
                    Some(&id) if id != 0 => id,
                    Some(_) | None => {
                        let id = trans.len();
                        states.insert(set.clone(), id);
                        trans.push(Vec::new());
                        accepting.push(set.iter().any(|p| nfa.last.contains(p)));
                        work.push(set);
                        id
                    }
                };
                trans[i].push((sym, u32::try_from(id).expect("DFA fits u32")));
            }
            i += 1;
        }
        // `by_sym` iterates in hash order; sort each row so the automaton
        // (and its Debug form) is deterministic.
        for row in &mut trans {
            row.sort_by(|a, b| a.0.cmp(&b.0));
        }
        Dfa { trans, accepting }
    }

    /// Compiles a content model straight to a DFA.
    pub fn from_model(m: &ContentModel) -> Dfa {
        Dfa::build(&Nfa::build(m))
    }

    /// Membership test.
    pub fn matches(&self, word: &[Symbol]) -> bool {
        let mut state = 0usize;
        for s in word {
            match self.step(state, s) {
                Some(next) => state = next,
                None => return false,
            }
        }
        self.accepting[state]
    }

    /// Streaming interface: start state.
    pub fn start(&self) -> usize {
        0
    }

    /// Streaming interface: one transition; `None` is the dead state.
    #[inline]
    pub fn step(&self, state: usize, s: &Symbol) -> Option<usize> {
        self.trans[state]
            .iter()
            .find(|(sym, _)| sym == s)
            .map(|&(_, next)| next as usize)
    }

    /// Streaming interface: acceptance.
    pub fn is_accepting(&self, state: usize) -> bool {
        self.accepting[state]
    }

    /// Language containment: `L(other) ⊆ L(self)`.
    ///
    /// Product construction over the union alphabet with an implicit dead
    /// state on each side; a reachable product state where `other` accepts
    /// and `self` does not witnesses non-containment.
    pub fn contains(&self, other: &Dfa, alphabet: &[Symbol]) -> bool {
        use std::collections::{HashSet, VecDeque};
        let mut seen: HashSet<(Option<usize>, Option<usize>)> = HashSet::new();
        let mut queue = VecDeque::new();
        let start = (Some(self.start()), Some(other.start()));
        seen.insert(start);
        queue.push_back(start);
        while let Some((a, b)) = queue.pop_front() {
            let a_acc = a.is_some_and(|s| self.is_accepting(s));
            let b_acc = b.is_some_and(|s| other.is_accepting(s));
            if b_acc && !a_acc {
                return false;
            }
            if b.is_none() {
                // `other` is dead: nothing more to refute down this branch.
                continue;
            }
            for sym in alphabet {
                let next = (
                    a.and_then(|s| self.step(s, sym)),
                    b.and_then(|s| other.step(s, sym)),
                );
                if seen.insert(next) {
                    queue.push_back(next);
                }
            }
        }
        true
    }
}

impl ContentModel {
    /// Language containment: `L(other) ⊆ L(self)` — "every word this
    /// content model `other` accepts, `self` accepts too". Useful for
    /// schema evolution: a new element type definition that *contains* the
    /// old one accepts every existing document.
    ///
    /// ```
    /// use xic_regex::ContentModel;
    /// let old = ContentModel::parse("(title, author)").unwrap();
    /// let new = ContentModel::parse("(title, author*, (ref + EMPTY))").unwrap();
    /// assert!(new.contains(&old));
    /// assert!(!old.contains(&new));
    /// assert!(new.contains(&new));
    /// ```
    pub fn contains(&self, other: &ContentModel) -> bool {
        let mut alphabet: Vec<Symbol> = self.alphabet().into_iter().collect();
        for s in other.alphabet() {
            if !alphabet.contains(&s) {
                alphabet.push(s);
            }
        }
        Dfa::from_model(self).contains(&Dfa::from_model(other), &alphabet)
    }

    /// Language equivalence: `L(self) = L(other)`.
    pub fn equivalent(&self, other: &ContentModel) -> bool {
        self.contains(other) && other.contains(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_model::Name;

    fn sym(s: &str) -> Symbol {
        Symbol::elem(s)
    }

    fn word(s: &str) -> Vec<Symbol> {
        s.split_whitespace()
            .map(|t| if t == "S" { Symbol::S } else { sym(t) })
            .collect()
    }

    #[test]
    fn nfa_and_dfa_agree_with_derivatives_on_cases() {
        let cases = [
            (
                "entry, author*, section*, ref",
                vec![
                    ("entry ref", true),
                    ("entry author author section ref", true),
                    ("entry", false),
                    ("author ref", false),
                    ("entry ref ref", false),
                    ("", false),
                ],
            ),
            (
                "(title, (text + section)*)",
                vec![
                    ("title", true),
                    ("title text text section", true),
                    ("text", false),
                    ("", false),
                ],
            ),
            ("EMPTY", vec![("", true), ("a", false)]),
            ("(a + b)*", vec![("", true), ("a b a", true), ("c", false)]),
            (
                "S, a, S*",
                vec![("S a", true), ("S a S S", true), ("a", false)],
            ),
        ];
        for (src, words) in cases {
            let m = ContentModel::parse(src).unwrap();
            let nfa = Nfa::build(&m);
            let dfa = Dfa::build(&nfa);
            for (w, expect) in words {
                let w = word(w);
                assert_eq!(m.matches_derivative(&w), expect, "deriv {src} / {w:?}");
                assert_eq!(nfa.matches(&w), expect, "nfa {src} / {w:?}");
                assert_eq!(dfa.matches(&w), expect, "dfa {src} / {w:?}");
            }
        }
    }

    #[test]
    fn exhaustive_small_agreement() {
        // All words up to length 4 over {a, b, S} for a few models: the three
        // matchers must agree everywhere.
        let models = [
            "a, b",
            "(a + b)*",
            "a*, b*",
            "(a, b)* + S",
            "a, (b + EMPTY)",
            "((a + b), S)*",
        ];
        let alpha = [sym("a"), sym("b"), Symbol::S];
        for src in models {
            let m = ContentModel::parse(src).unwrap();
            let nfa = Nfa::build(&m);
            let dfa = Dfa::build(&nfa);
            let mut words: Vec<Vec<Symbol>> = vec![vec![]];
            for _ in 0..4 {
                let mut next = Vec::new();
                for w in &words {
                    for s in &alpha {
                        let mut w2 = w.clone();
                        w2.push(s.clone());
                        next.push(w2);
                    }
                }
                words.extend(next);
            }
            for w in &words {
                let d = m.matches_derivative(w);
                assert_eq!(nfa.matches(w), d, "{src} / {w:?}");
                assert_eq!(dfa.matches(w), d, "{src} / {w:?}");
            }
        }
    }

    #[test]
    fn min_word_always_accepted() {
        for src in [
            "entry, author*, section*, ref",
            "(title, (text + section)*)",
            "(a + (b, c))*, d",
            "EMPTY",
        ] {
            let m = ContentModel::parse(src).unwrap();
            let w = m.min_word();
            assert!(Dfa::from_model(&m).matches(&w), "{src}: {w:?}");
        }
    }

    #[test]
    fn unknown_symbols_rejected() {
        let m = ContentModel::parse("a*").unwrap();
        let dfa = Dfa::from_model(&m);
        assert!(!dfa.matches(&[Symbol::Elem(Name::new("z"))]));
    }

    #[test]
    fn streaming_interface_matches_batch() {
        let m = ContentModel::parse("a, b*").unwrap();
        let dfa = Dfa::from_model(&m);
        let w = word("a b b");
        let mut st = dfa.start();
        for s in &w {
            st = dfa.step(st, s).unwrap();
        }
        assert!(dfa.is_accepting(st));
        assert!(dfa.step(dfa.start(), &sym("b")).is_none());
    }

    #[test]
    fn containment_cases() {
        let cases = [
            ("(a + b)*", "a*", true),
            ("a*", "(a + b)*", false),
            ("a, b*", "a", true),
            ("a", "a, b*", false),
            ("(a, a)*", "(a, a, a, a)*", true),
            ("(a, a, a, a)*", "(a, a)*", false),
            ("S*", "S, S", true),
            ("EMPTY", "EMPTY", true),
            ("a", "EMPTY", false),
        ];
        for (big, small, expect) in cases {
            let big_m = ContentModel::parse(big).unwrap();
            let small_m = ContentModel::parse(small).unwrap();
            assert_eq!(
                big_m.contains(&small_m),
                expect,
                "L({small}) ⊆ L({big}) should be {expect}"
            );
        }
    }

    #[test]
    fn equivalence_cases() {
        let a = ContentModel::parse("(a + b)*").unwrap();
        let b = ContentModel::parse("(b + a)*").unwrap();
        assert!(a.equivalent(&b));
        let c = ContentModel::parse("(a, b)*").unwrap();
        assert!(!a.equivalent(&c));
        // Star unrolling: a* ≡ (ε + a, a*).
        let star = ContentModel::parse("a*").unwrap();
        let unrolled = ContentModel::parse("EMPTY + (a, a*)").unwrap();
        assert!(star.equivalent(&unrolled));
    }

    #[test]
    fn containment_respects_disjoint_alphabets() {
        let a = ContentModel::parse("a").unwrap();
        let b = ContentModel::parse("b").unwrap();
        assert!(!a.contains(&b));
        assert!(!b.contains(&a));
    }

    #[test]
    fn glushkov_counts_positions() {
        let m = ContentModel::parse("a, (a + b)*, a").unwrap();
        let nfa = Nfa::build(&m);
        assert_eq!(nfa.positions(), 4);
    }
}
