//! String interning for hot validation paths.
//!
//! Constraint checking compares attribute and sub-element *values* — not
//! names — millions of times on large documents. Interning each distinct
//! value once turns every subsequent comparison, hash, and set probe into a
//! `u32` operation, and shrinks columnar value indexes to a quarter of the
//! pointer size.
//!
//! The pool is built for the streaming hot path: distinct strings live
//! back-to-back in one bump-allocated byte arena (addressed by
//! `(offset, len)` spans, so a million symbols cost two flat `Vec`s, not a
//! million heap allocations), and lookups go through an open-addressing
//! table of 16-byte slots, each holding a hash tag, the symbol and the
//! string's first eight bytes. A call to [`Interner::intern_bytes`] hashes
//! the *borrowed* slice exactly once, decides a string of at most eight
//! bytes inside its slot, and copies bytes only when the string has never
//! been seen — no owned temporaries on the hit path, and table growth
//! rehashes nothing because the stored tags are reused.
//!
//! A table far beyond cache makes each lookup one dependent cache miss.
//! [`Interner::intern_group`] interns up to [`Interner::GROUP`] values at
//! a time: it hashes them all, then loads every home slot in one loop of
//! independent loads (so the misses overlap), and only then probes and
//! inserts in order — the group prefetching of Chen, Ailamaki, Gibbons
//! and Mowry ("Improving Hash Join Performance through Prefetching",
//! ICDE 2004), with plain loads in place of prefetch instructions.

use std::hash::Hasher;
use std::num::NonZeroU32;

use crate::hash::FastHasher;

/// An interned string: a dense `u32` handle into an [`Interner`].
///
/// Two `Sym`s from the same interner are equal iff the strings they denote
/// are equal, so `Sym` supports O(1) equality/hash where the underlying
/// values would need full comparisons. `Sym` order is *allocation* order,
/// not lexicographic order.
///
/// Internally the handle is a `NonZeroU32` (index + 1), so `Option<Sym>` is
/// 4 bytes — columnar value indexes holding millions of optional symbols
/// stay half the size they would be with a plain `u32`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Sym(NonZeroU32);

impl Sym {
    /// The symbol with dense index `index` (0-based allocation order): the
    /// inverse of [`Sym::index`]. This is the decode path for serialized
    /// symbol columns; a symbol fabricated for an index the owning
    /// interner never allocated makes a later [`Interner::resolve`] panic,
    /// so deserializers must bounds-check against [`Interner::len`].
    ///
    /// # Panics
    /// If `index == u32::MAX` (the unrepresentable handle).
    #[inline]
    pub fn from_index(index: u32) -> Self {
        Sym(NonZeroU32::new(index.wrapping_add(1)).expect("interner overflow"))
    }

    /// The dense index of this symbol (0-based allocation order).
    #[inline]
    pub fn index(self) -> usize {
        self.0.get() as usize - 1
    }
}

/// One open-addressing slot: the hash tag, the symbol (offset by one so
/// the all-zero slot means *empty*) and the string's first eight bytes,
/// zero-padded. With millions of distinct values the table far exceeds
/// cache, so what an intern costs is the number of dependent memory
/// touches, not slot density: a hit on a slot that holds only a tag must
/// go on to `spans` and then the arena, three cache misses in a row. The
/// tag's low [`LEN_BITS`] carry the length (exactly, up to eight bytes),
/// so a string of at most eight bytes is decided by `tag` and `key` alone,
/// inside the one line the probe already loaded; a longer one compares
/// `key` before it touches the arena. Growth is pure reinsertion from the
/// stored tags (no string is ever rehashed).
#[derive(Clone, Copy, Debug)]
struct Slot {
    tag: u32,
    sym_plus1: u32,
    key: u64,
}

const EMPTY: Slot = Slot {
    tag: 0,
    sym_plus1: 0,
    key: 0,
};

/// Low tag bits holding the length class: the byte length, saturated at
/// `2^LEN_BITS - 1`. Lengths up to [`INLINE`] are exact, which is what
/// lets the inline key decide equality (`"a"` and `"a\0"` share a key).
const LEN_BITS: u32 = 4;

/// Bytes a slot keeps inline.
const INLINE: usize = 8;

/// A string's slot tag (hash bits above its length class) and inline key.
#[inline]
fn probe_key(s: &[u8]) -> (u32, u64) {
    let mut h = FastHasher::default();
    h.write(s);
    let hash = h.finish();
    let class = s.len().min((1 << LEN_BITS) - 1) as u32;
    let tag = ((hash ^ (hash >> 32)) as u32) << LEN_BITS | class;
    let key = match s.get(..INLINE) {
        Some(head) => u64::from_le_bytes(head.try_into().expect("8-byte head")),
        None => {
            let mut buf = [0u8; INLINE];
            buf[..s.len()].copy_from_slice(s);
            u64::from_le_bytes(buf)
        }
    };
    (tag, key)
}

/// Where a tag's probe sequence starts: its hash bits, not its length
/// class, pick the slot.
#[inline]
fn home(tag: u32, mask: usize) -> usize {
    tag.rotate_right(LEN_BITS) as usize & mask
}

/// Running totals of an [`Interner`]'s work since it was created: plain
/// fields, so the hot path never calls a collector, reported by the
/// caller once per pass (the streaming validator's `intern.*` counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Values interned, hits and new strings alike.
    pub values: u64,
    /// Values that were new and took a symbol.
    pub symbols: u64,
    /// Probe steps past a value's home slot, summed over all values.
    pub probe_steps: u64,
    /// Table growths, rebuilds after [`Interner::release_table`] included.
    pub growths: u64,
}

/// A string intern pool mapping distinct strings to dense [`Sym`] handles.
///
/// ```
/// use xic_model::Interner;
/// let mut pool = Interner::new();
/// let a = pool.intern("alice");
/// let b = pool.intern("bob");
/// assert_eq!(a, pool.intern("alice"));
/// assert_ne!(a, b);
/// assert_eq!(pool.resolve(a), "alice");
/// ```
#[derive(Clone, Debug, Default)]
pub struct Interner {
    /// Every distinct string's bytes, bump-allocated back to back.
    arena: Vec<u8>,
    /// `sym.index() ↦ (arena offset, byte length)`.
    spans: Vec<(u32, u32)>,
    /// Open-addressing lookup table; power-of-two capacity. Empty while
    /// released (see [`Interner::release_table`]) even if `spans` is not.
    table: Vec<Slot>,
    /// Work totals (see [`Interner::stats`]).
    stats: InternStats,
}

impl Interner {
    /// An empty pool.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Interns `s`, returning its symbol (allocating one if new).
    pub fn intern(&mut self, s: &str) -> Sym {
        self.intern_bytes(s.as_bytes())
    }

    /// Values [`Interner::intern_group`] hashes and loads together, chosen
    /// by measurement: on the 10⁶-vertex streaming pass, groups of 16, 32,
    /// 64 and 128 ran within run-to-run noise of one another, and 32 keeps
    /// a group's keys and loaded slots in 1 KiB of stack.
    pub const GROUP: usize = 32;

    /// Interns a borrowed UTF-8 byte slice, hashing it exactly once and
    /// copying it into the arena only on first sight.
    ///
    /// The slice must be valid UTF-8 (callers hold `&str`-derived slices;
    /// this signature only avoids forcing an owned temporary per lookup).
    /// Interning invalid UTF-8 makes a later [`Interner::resolve`] of the
    /// symbol panic.
    pub fn intern_bytes(&mut self, s: &[u8]) -> Sym {
        self.reserve(1);
        let (tag, key) = probe_key(s);
        let i = home(tag, self.table.len() - 1);
        self.intern_at(s, tag, key, i, self.table[i])
    }

    /// Interns `bytes[start..end]` for every `(start, end)` of `ranges`,
    /// appending their symbols to `out` in order: exactly the symbols,
    /// arena and spans that calling [`Interner::intern_bytes`] on each
    /// range in turn would produce.
    ///
    /// Each group of up to [`Interner::GROUP`] ranges grows the table
    /// first, so that no insert of the group can move it, hashes every
    /// value, loads every value's home slot in a separate loop of
    /// independent loads, and then probes and inserts in order, on slots
    /// already in cache. The ranges must lie on UTF-8 boundaries of
    /// `bytes` (see [`Interner::intern_bytes`]).
    pub fn intern_group(&mut self, bytes: &[u8], ranges: &[(usize, usize)], out: &mut Vec<Sym>) {
        for group in ranges.chunks(Self::GROUP) {
            self.reserve(group.len());
            let mask = self.table.len() - 1;
            let mut keys = [(0u32, 0u64); Self::GROUP];
            for (k, &(start, end)) in keys.iter_mut().zip(group) {
                *k = probe_key(&bytes[start..end]);
            }
            let mut loaded = [EMPTY; Self::GROUP];
            for (slot, &(tag, _)) in loaded.iter_mut().zip(&keys) {
                *slot = self.table[home(tag, mask)];
            }
            for ((&(start, end), &(tag, key)), &loaded) in group.iter().zip(&keys).zip(&loaded) {
                let i = home(tag, mask);
                // An occupied slot stays as loaded (no slot is ever
                // overwritten and the table cannot grow mid-group); an
                // empty one may since have taken an earlier value of the
                // group, so it is read again.
                let slot = if loaded.sym_plus1 == 0 {
                    self.table[i]
                } else {
                    loaded
                };
                out.push(self.intern_at(&bytes[start..end], tag, key, i, slot));
            }
        }
    }

    /// The symbol of `s` if it has been interned, without allocating.
    ///
    /// While the lookup table is released this scans every symbol; the
    /// next [`Interner::intern`] rebuilds the table.
    pub fn get(&self, s: &str) -> Option<Sym> {
        let bytes = s.as_bytes();
        if self.table.is_empty() {
            return (0..self.spans.len() as u32)
                .find(|&sym| self.span_bytes(sym) == bytes)
                .map(Sym::from_index);
        }
        let (tag, key) = probe_key(bytes);
        let i = home(tag, self.table.len() - 1);
        self.probe(bytes, tag, key, i, self.table[i])
            .1
            .map(Sym::from_index)
    }

    /// The string a symbol denotes.
    ///
    /// # Panics
    /// If `sym` did not come from this interner.
    pub fn resolve(&self, sym: Sym) -> &str {
        std::str::from_utf8(self.span_bytes(sym.index() as u32))
            .expect("interner holds valid UTF-8")
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The raw byte arena: every distinct string's bytes back to back, in
    /// allocation order. Together with [`Interner::spans`] this is the
    /// complete persistent state of the pool — the lookup table is a pure
    /// cache rebuilt by [`Interner::from_parts`].
    pub fn arena(&self) -> &[u8] {
        &self.arena
    }

    /// The `(arena offset, byte length)` span of each symbol, indexed by
    /// [`Sym::index`]. See [`Interner::arena`].
    pub fn spans(&self) -> &[(u32, u32)] {
        &self.spans
    }

    /// Work totals since this pool was created (a pool rebuilt by
    /// [`Interner::from_parts`] starts from zero).
    pub fn stats(&self) -> InternStats {
        self.stats
    }

    /// Drops the arena's and the span list's spare capacity, for a pool
    /// that is done growing for now (a finished document's).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.arena.shrink_to_fit();
        self.spans.shrink_to_fit();
    }

    /// Frees the lookup table, the largest part of a big pool, for a
    /// holder that from now on only resolves symbols. Symbols, arena and
    /// spans are untouched; the next [`Interner::intern`] rebuilds the
    /// table from the spans, as [`Interner::from_parts`] does, and
    /// [`Interner::get`] falls back to a scan until then.
    pub fn release_table(&mut self) {
        self.table = Vec::new();
    }

    /// Reassembles a pool from a previously captured
    /// ([`Interner::arena`], [`Interner::spans`]) pair, rebuilding the
    /// lookup table by rehashing every span.
    ///
    /// Returns an error (never panics) when the parts do not describe a
    /// valid pool: an arena that is not UTF-8, a span out of arena bounds
    /// or cutting through a multi-byte character, or two spans denoting
    /// the same string (which would break the one-symbol-per-string
    /// invariant).
    pub fn from_parts(arena: Vec<u8>, spans: Vec<(u32, u32)>) -> Result<Interner, String> {
        if spans.len() >= u32::MAX as usize {
            return Err(format!("interner: {} spans overflow u32", spans.len()));
        }
        // The intern path caps the arena at u32::MAX bytes (span offsets
        // are u32); enforce the same bound here so no span arithmetic can
        // overflow after the rebuild.
        if arena.len() > u32::MAX as usize {
            return Err(format!(
                "interner: arena of {} bytes overflows the u32 span space",
                arena.len()
            ));
        }
        // One SIMD-accelerated UTF-8 pass over the whole arena, then an
        // O(1) char-boundary check per span endpoint. A substring of valid
        // UTF-8 whose endpoints sit on character boundaries is itself
        // valid, so this replaces a `from_utf8` call per span — the
        // dominant cost when warm-starting million-symbol pools.
        let text = std::str::from_utf8(&arena).map_err(|e| {
            format!(
                "interner: arena is not valid UTF-8 at byte {}",
                e.valid_up_to()
            )
        })?;
        for (i, &(start, len)) in spans.iter().enumerate() {
            let end = (start as u64) + (len as u64);
            if end > arena.len() as u64 {
                return Err(format!(
                    "interner: span {i} ({start}+{len}) exceeds arena of {} bytes",
                    arena.len()
                ));
            }
            if !text.is_char_boundary(start as usize) || !text.is_char_boundary(end as usize) {
                return Err(format!("interner: span {i} splits a multi-byte character"));
            }
        }
        let mut pool = Interner {
            arena,
            spans,
            table: Vec::new(),
            stats: InternStats::default(),
        };
        pool.rebuild_table()
            .map_err(|(a, b)| format!("interner: spans {a} and {b} denote the same string"))?;
        Ok(pool)
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    #[inline]
    fn span_bytes(&self, sym: u32) -> &[u8] {
        let (start, len) = self.spans[sym as usize];
        // usize arithmetic: start + len can reach u32::MAX + 1 at the very
        // end of a maximal arena, which would wrap in u32.
        &self.arena[start as usize..start as usize + len as usize]
    }

    /// Whether the occupied `slot` holds `s`, whose tag and key are `tag`
    /// and `key`. Equal tags mean equal length classes, so for a string
    /// of at most [`INLINE`] bytes equal keys settle it without touching
    /// `spans` or the arena; a longer one compares its tail there.
    #[inline]
    fn holds(&self, slot: Slot, tag: u32, key: u64, s: &[u8]) -> bool {
        slot.tag == tag
            && slot.key == key
            && (s.len() <= INLINE || self.span_bytes(slot.sym_plus1 - 1)[INLINE..] == s[INLINE..])
    }

    /// Walks the probe sequence of a string `s` with tag `tag` and key
    /// `key` from slot `i`, whose contents the caller has loaded as
    /// `slot`, to the slot holding `s` or the first empty one. Returns
    /// that slot's index and, if it holds `s`, the symbol's index. This is
    /// the one probe loop: lookups, interns and rebuilds all run it.
    #[inline(always)]
    fn probe(
        &self,
        s: &[u8],
        tag: u32,
        key: u64,
        mut i: usize,
        mut slot: Slot,
    ) -> (usize, Option<u32>) {
        let mask = self.table.len() - 1;
        loop {
            if slot.sym_plus1 == 0 {
                return (i, None);
            }
            if self.holds(slot, tag, key, s) {
                return (i, Some(slot.sym_plus1 - 1));
            }
            i = (i + 1) & mask;
            slot = self.table[i];
        }
    }

    /// Interns `s` (tag `tag`, key `key`), whose home slot `home` the
    /// caller has loaded as `slot`, with room in the table for a new
    /// symbol: the one probe-and-insert step of both intern paths. It and
    /// `probe` are always inlined: left to the compiler's choice, the
    /// one-at-a-time path measured 10–15% slower.
    #[inline(always)]
    fn intern_at(&mut self, s: &[u8], tag: u32, key: u64, home: usize, slot: Slot) -> Sym {
        debug_assert!(
            std::str::from_utf8(s).is_ok(),
            "interned bytes must be UTF-8"
        );
        let (i, found) = self.probe(s, tag, key, home, slot);
        self.stats.values += 1;
        self.stats.probe_steps += (i.wrapping_sub(home) & (self.table.len() - 1)) as u64;
        if let Some(sym) = found {
            return Sym::from_index(sym);
        }
        let sym = u32::try_from(self.spans.len()).expect("interner overflow");
        let start = u32::try_from(self.arena.len()).expect("interner arena overflow");
        let len = u32::try_from(s.len()).expect("interner arena overflow");
        self.arena.extend_from_slice(s);
        self.spans.push((start, len));
        self.table[i] = Slot {
            tag,
            sym_plus1: sym + 1,
            key,
        };
        self.stats.symbols += 1;
        Sym::from_index(sym)
    }

    /// Grows the table until `n` more symbols keep it at most half full.
    #[inline]
    fn reserve(&mut self, n: usize) {
        while self.spans.len() + n > self.table.len() / 2 {
            self.grow();
        }
    }

    /// Sizes the table for the spans (≤50% load after the next intern)
    /// and inserts every span, rehashing its bytes. Fails with the two
    /// symbols if two spans denote the same string.
    fn rebuild_table(&mut self) -> Result<(), (u32, u32)> {
        let cap = (self.spans.len() * 2 + 2).next_power_of_two().max(32);
        self.table = vec![EMPTY; cap];
        for sym in 0..self.spans.len() as u32 {
            let s = self.span_bytes(sym);
            let (tag, key) = probe_key(s);
            let h = home(tag, cap - 1);
            match self.probe(s, tag, key, h, self.table[h]) {
                (_, Some(old)) => return Err((old, sym)),
                (i, None) => {
                    self.table[i] = Slot {
                        tag,
                        sym_plus1: sym + 1,
                        key,
                    }
                }
            }
        }
        Ok(())
    }

    /// Doubles the table (≤50% load), reinserting entries from their stored
    /// tags — no string is rehashed. A released table is rebuilt from the
    /// spans instead.
    #[cold]
    fn grow(&mut self) {
        self.stats.growths += 1;
        if self.table.is_empty() && !self.spans.is_empty() {
            self.rebuild_table()
                .expect("a pool's spans denote distinct strings");
            return;
        }
        let cap = (self.table.len() * 2).max(32);
        let old = std::mem::replace(&mut self.table, vec![EMPTY; cap]);
        let mask = cap - 1;
        for slot in old {
            if slot.sym_plus1 == 0 {
                continue;
            }
            let mut i = home(slot.tag, mask);
            while self.table[i].sym_plus1 != 0 {
                i = (i + 1) & mask;
            }
            self.table[i] = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut pool = Interner::new();
        let a = pool.intern("x");
        let b = pool.intern("y");
        let a2 = pool.intern("x");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.resolve(a), "x");
        assert_eq!(pool.resolve(b), "y");
    }

    #[test]
    fn get_does_not_allocate() {
        let mut pool = Interner::new();
        assert!(pool.get("v").is_none());
        let s = pool.intern("v");
        assert_eq!(pool.get("v"), Some(s));
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn intern_bytes_matches_intern() {
        let mut pool = Interner::new();
        let a = pool.intern("värde");
        assert_eq!(pool.intern_bytes("värde".as_bytes()), a);
        assert_eq!(pool.resolve(a), "värde");
        let b = pool.intern_bytes(b"raw");
        assert_eq!(pool.get("raw"), Some(b));
    }

    #[test]
    fn survives_growth_with_many_symbols() {
        let mut pool = Interner::new();
        let syms: Vec<Sym> = (0..10_000).map(|i| pool.intern(&format!("v{i}"))).collect();
        assert_eq!(pool.len(), 10_000);
        for (i, s) in syms.iter().enumerate() {
            assert_eq!(pool.resolve(*s), format!("v{i}"), "symbol {i} after growth");
            assert_eq!(pool.get(&format!("v{i}")), Some(*s));
        }
        // Re-interning allocates nothing new.
        assert_eq!(pool.intern("v123"), syms[123]);
        assert_eq!(pool.len(), 10_000);
    }

    #[test]
    fn empty_string_is_a_valid_symbol() {
        let mut pool = Interner::new();
        let e = pool.intern("");
        assert_eq!(pool.resolve(e), "");
        assert_eq!(pool.intern(""), e);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn from_parts_round_trips_and_rejects_bad_parts() {
        let mut pool = Interner::new();
        let syms: Vec<Sym> = (0..1000).map(|i| pool.intern(&format!("v{i}"))).collect();
        let rebuilt = Interner::from_parts(pool.arena().to_vec(), pool.spans().to_vec()).unwrap();
        assert_eq!(rebuilt.len(), pool.len());
        for (i, s) in syms.iter().enumerate() {
            assert_eq!(rebuilt.resolve(*s), format!("v{i}"));
            assert_eq!(rebuilt.get(&format!("v{i}")), Some(*s));
        }
        // The rebuilt pool keeps interning new strings densely.
        let mut rebuilt = rebuilt;
        assert_eq!(rebuilt.intern("v42"), syms[42]);
        assert_eq!(rebuilt.intern("fresh").index(), 1000);

        // Span out of bounds.
        assert!(Interner::from_parts(vec![b'a'], vec![(0, 2)]).is_err());
        // Invalid UTF-8.
        assert!(Interner::from_parts(vec![0xFF], vec![(0, 1)]).is_err());
        // Span endpoint inside a multi-byte character.
        assert!(Interner::from_parts("é".as_bytes().to_vec(), vec![(0, 1)]).is_err());
        // Duplicate string.
        assert!(Interner::from_parts(b"xx".to_vec(), vec![(0, 1), (1, 1)]).is_err());
    }

    #[test]
    fn sym_from_index_is_the_inverse_of_index() {
        for i in [0u32, 1, 7, 1 << 20] {
            assert_eq!(Sym::from_index(i).index(), i as usize);
        }
    }

    #[test]
    fn symbols_are_shareable_across_threads() {
        let mut pool = Interner::new();
        let s = pool.intern("shared");
        let pool = std::sync::Arc::new(pool);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = std::sync::Arc::clone(&pool);
                std::thread::spawn(move || pool.resolve(s).to_string())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), "shared");
        }
    }
}
