//! Model-based property test for the intern pool: every operation sequence
//! must agree with a `HashMap<Vec<u8>, Sym>` that numbers strings in first
//! sight order. The strings crowd the edges of the pool's 8-byte inline
//! key: lengths around 8 and 16, shared 8-byte prefixes, a trailing `\0`,
//! and multi-byte UTF-8 straddling byte 8.

use std::collections::HashMap;

use proptest::prelude::*;
use xic_model::{Interner, Sym};

/// Strings chosen to break an inline compare that ignores length or stops
/// at byte 8.
const EDGES: &[&str] = &[
    "",
    "a",
    "a\0",
    "\0",
    "abcdefg",
    "abcdefg\0",
    "abcdefgh",
    "abcdefgh\0",
    "abcdefghi",
    "abcdefghj",
    "abcdefgé",
    "abcdefé",
    "abcdef€",
    "abcdefg€",
    "abcdefghabcdefgh",
    "abcdefghabcdefgi",
    "abcdefghabcdefghi",
    "𝄞𝄞",
    "𝄞𝄞𝄞",
];

/// Prefixes and pieces that recombine into more strings near the edges.
const PREFIXES: &[&str] = &["", "abcdefg", "abcdefgh", "abcdefghabcdefgh"];
const PIECES: &[&str] = &["", "a", "\0", "é", "€", "𝄞", "i"];

fn pick(list: &'static [&'static str]) -> BoxedStrategy<&'static str> {
    (0..list.len()).prop_map(move |i| list[i])
}

fn string() -> impl Strategy<Value = String> {
    prop_oneof![
        pick(EDGES).prop_map(str::to_string),
        (pick(PREFIXES), prop::collection::vec(pick(PIECES), 0..4))
            .prop_map(|(p, rest)| format!("{p}{}", rest.concat())),
    ]
}

#[derive(Debug)]
enum Op {
    Intern(String),
    Get(String),
    /// Interns `n` fresh strings sharing an 8-byte prefix, crossing table
    /// growths.
    Fill(usize),
    /// Frees the lookup table.
    Release,
    /// Rebuilds the pool from its arena and spans.
    RoundTrip,
}

/// Mostly interns and lookups, now and then a fill, release or rebuild.
fn op() -> impl Strategy<Value = Op> {
    (0u8..12, string(), 0usize..300).prop_map(|(k, s, n)| match k {
        0..=5 => Op::Intern(s),
        6..=8 => Op::Get(s),
        9 => Op::Fill(n),
        10 => Op::Release,
        _ => Op::RoundTrip,
    })
}

/// Interns `s`, checking the symbol against the model (an old string keeps
/// its symbol, a new one takes the next index).
fn intern(pool: &mut Interner, model: &mut HashMap<Vec<u8>, Sym>, s: &str) {
    let sym = pool.intern(s);
    match model.get(s.as_bytes()) {
        Some(&old) => assert_eq!(sym, old, "{s:?} keeps its symbol"),
        None => {
            assert_eq!(sym.index(), model.len(), "{s:?} takes the next index");
            model.insert(s.as_bytes().to_vec(), sym);
        }
    }
    assert_eq!(pool.resolve(sym), s);
}

/// Every model entry resolves and is found, and the pool holds no more.
fn agree(pool: &Interner, model: &HashMap<Vec<u8>, Sym>) {
    assert_eq!(pool.len(), model.len());
    for (bytes, &sym) in model {
        let s = std::str::from_utf8(bytes).expect("model holds UTF-8");
        assert_eq!(pool.resolve(sym), s);
        assert_eq!(pool.get(s), Some(sym), "{s:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn interner_agrees_with_a_hash_map(ops in prop::collection::vec(op(), 1..40)) {
        let mut pool = Interner::new();
        let mut model: HashMap<Vec<u8>, Sym> = HashMap::new();
        let mut fresh = 0usize;
        for op in ops {
            match op {
                Op::Intern(s) => intern(&mut pool, &mut model, &s),
                Op::Get(s) => {
                    prop_assert_eq!(pool.get(&s), model.get(s.as_bytes()).copied(), "{:?}", s);
                }
                Op::Fill(n) => {
                    for _ in 0..n {
                        intern(&mut pool, &mut model, &format!("abcdefgh{fresh}"));
                        fresh += 1;
                    }
                }
                Op::Release => pool.release_table(),
                Op::RoundTrip => {
                    pool = Interner::from_parts(pool.arena().to_vec(), pool.spans().to_vec())
                        .expect("a pool's own parts rebuild");
                }
            }
        }
        agree(&pool, &model);
        // After a release, interning returns the existing symbols.
        pool.release_table();
        for (bytes, &sym) in &model {
            let s = std::str::from_utf8(bytes).expect("model holds UTF-8");
            prop_assert_eq!(pool.intern(s), sym);
        }
        agree(&pool, &model);
    }
}

#[test]
fn edge_strings_are_distinct_symbols_across_every_growth() {
    let mut pool = Interner::new();
    let mut model = HashMap::new();
    for round in 0..12 {
        for s in EDGES {
            intern(&mut pool, &mut model, s);
        }
        // Doubles the pool each round: every growth from 32 slots up.
        for i in 0..(16usize << round) {
            intern(&mut pool, &mut model, &format!("abcdefgh{round}.{i}"));
        }
        agree(&pool, &model);
    }
    assert_eq!(pool.len(), EDGES.len() + (16usize << 12) - 16);
}
