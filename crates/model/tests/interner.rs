//! Model-based property test for the intern pool: every operation sequence
//! must agree with a `HashMap<Vec<u8>, Sym>` that numbers strings in first
//! sight order, one at a time or a group at a time, down to the arena and
//! spans that first-sight order lays out. The strings crowd the edges of
//! the pool's 8-byte inline key: lengths around 8 and 16, shared 8-byte
//! prefixes, a trailing `\0`, and multi-byte UTF-8 straddling byte 8.

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
    /// Interns the strings as one [`Interner::intern_group`] call.
    Group(Vec<String>),
    /// Interns `n` fresh strings sharing an 8-byte prefix, crossing table
    /// growths.
    Fill(usize),
    /// Frees the lookup table.
    Release,
    /// Rebuilds the pool from its arena and spans.
    RoundTrip,
}

/// A group member: an edge string (so groups repeat values, often a
/// value the same group saw first), or one of a few hundred numbered
/// strings (so a group can bring enough new values to cross a growth).
fn member() -> impl Strategy<Value = String> {
    prop_oneof![
        string(),
        (0usize..400).prop_map(|i| format!("abcdefgh#{i}"))
    ]
}

/// Mostly interns, lookups and groups (empty ones included, and longer
/// than one [`Interner::GROUP`]), now and then a fill, release or rebuild.
fn op() -> impl Strategy<Value = Op> {
    let group = prop::collection::vec(member(), 0..3 * Interner::GROUP);
    (0u8..15, string(), 0usize..300, group).prop_map(|(k, s, n, g)| match k {
        0..=5 => Op::Intern(s),
        6..=8 => Op::Get(s),
        9..=11 => Op::Group(g),
        12 => Op::Fill(n),
        13 => Op::Release,
        _ => Op::RoundTrip,
    })
}

/// Interns `s`, checking the symbol against the model (an old string keeps
/// its symbol, a new one takes the next index).
fn intern(pool: &mut Interner, model: &mut HashMap<Vec<u8>, Sym>, s: &str) {
    let sym = pool.intern(s);
    check(pool, model, s, sym);
}

/// Checks the symbol `pool` returned for `s` against the model.
fn check(pool: &Interner, model: &mut HashMap<Vec<u8>, Sym>, s: &str, sym: Sym) {
    match model.get(s.as_bytes()) {
        Some(&old) => assert_eq!(sym, old, "{s:?} keeps its symbol"),
        None => {
            assert_eq!(sym.index(), model.len(), "{s:?} takes the next index");
            model.insert(s.as_bytes().to_vec(), sym);
        }
    }
    assert_eq!(pool.resolve(sym), s);
}

/// Interns `strings` in one group call, checking each symbol against the
/// model in order, as [`intern`] would one at a time.
fn intern_group(pool: &mut Interner, model: &mut HashMap<Vec<u8>, Sym>, strings: &[String]) {
    let bytes = strings.concat();
    let mut ranges = Vec::new();
    for s in strings {
        let start = ranges.last().map_or(0, |&(_, end)| end);
        ranges.push((start, start + s.len()));
    }
    let mut syms = Vec::new();
    pool.intern_group(bytes.as_bytes(), &ranges, &mut syms);
    assert_eq!(syms.len(), strings.len());
    for (s, sym) in strings.iter().zip(syms) {
        check(pool, model, s, sym);
    }
}

/// Every model entry resolves and is found, the pool holds no more, and
/// its arena and spans are the model's strings back to back in symbol
/// order.
fn agree(pool: &Interner, model: &HashMap<Vec<u8>, Sym>) {
    assert_eq!(pool.len(), model.len());
    let mut by_sym: Vec<&[u8]> = vec![&[]; model.len()];
    for (bytes, &sym) in model {
        let s = std::str::from_utf8(bytes).expect("model holds UTF-8");
        assert_eq!(pool.resolve(sym), s);
        assert_eq!(pool.get(s), Some(sym), "{s:?}");
        by_sym[sym.index()] = bytes;
    }
    let mut spans = Vec::new();
    let mut start = 0u32;
    for bytes in &by_sym {
        let len = bytes.len() as u32;
        spans.push((start, len));
        start += len;
    }
    assert_eq!(pool.arena(), by_sym.concat());
    assert_eq!(pool.spans(), spans);
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
                Op::Group(g) => intern_group(&mut pool, &mut model, &g),
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

#[test]
fn groups_number_values_in_first_sight_order() {
    let strings = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let mut pool = Interner::new();
    let mut model = HashMap::new();

    // An empty group on an empty pool interns nothing and allocates no
    // table.
    intern_group(&mut pool, &mut model, &[]);
    assert_eq!(pool.stats(), Default::default());
    agree(&pool, &model);

    // Duplicates inside one group whose first copy is new, on both sides
    // of the inline-key boundary.
    let dups = strings(&[
        "abcdefgh",
        "x",
        "abcdefgh",
        "abcdefghi",
        "x",
        "abcdefghi",
        "",
        "",
    ]);
    intern_group(&mut pool, &mut model, &dups);
    assert_eq!(pool.len(), 4);
    agree(&pool, &model);

    // New values crossing table growths inside one call: from 4 symbols
    // in 32 slots to 4 + 3 × GROUP, each value repeated right after.
    let growths = pool.stats().growths;
    let fresh: Vec<String> = (0..3 * Interner::GROUP)
        .flat_map(|i| [format!("abcdefgh.{i}"), format!("abcdefgh.{i}")])
        .collect();
    intern_group(&mut pool, &mut model, &fresh);
    assert!(pool.stats().growths >= growths + 2, "{:?}", pool.stats());
    agree(&pool, &model);

    // After a release the group rebuilds the table: old values keep their
    // symbols, new ones take the next indexes.
    pool.release_table();
    let mixed = strings(&["x", "abcdefgh.7", "new", "abcdefghi", "new", "newer"]);
    intern_group(&mut pool, &mut model, &mixed);
    agree(&pool, &model);

    // An empty group after a release leaves the table released.
    pool.release_table();
    intern_group(&mut pool, &mut model, &[]);
    agree(&pool, &model);

    let stats = pool.stats();
    let values = dups.len() + fresh.len() + mixed.len();
    assert_eq!(stats.values, values as u64);
    assert_eq!(stats.symbols, model.len() as u64);
}
