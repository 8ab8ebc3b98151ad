//! Word-at-a-time byte scanning for the lexer hot loops.
//!
//! The four dominant scans of a large document — text-until-`<`, name runs,
//! attribute values, and whitespace — spend their time looking for one or
//! two ASCII delimiter bytes. The workspace is dependency-free, so instead
//! of `memchr` these helpers hand-roll the same trick in safe code: process
//! the haystack in 8-byte little-endian words and detect a zero byte in
//! `word XOR splat(needle)` with the classic `(v - 0x0101…) & !v & 0x8080…`
//! mask. Every needle these scans look for is ASCII, and ASCII bytes never
//! occur inside a multi-byte UTF-8 sequence, so byte positions found here
//! are always character boundaries.

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// Non-zero iff `word` contains a zero byte (bits set within that byte).
#[inline(always)]
fn zero_byte_mask(word: u64) -> u64 {
    word.wrapping_sub(LO) & !word & HI
}

#[inline(always)]
fn splat(b: u8) -> u64 {
    u64::from(b) * LO
}

/// Index of the first occurrence of `needle` in `haystack`.
#[inline]
pub(crate) fn find_byte(haystack: &[u8], needle: u8) -> Option<usize> {
    let splatted = splat(needle);
    let mut chunks = haystack.chunks_exact(8);
    let mut base = 0;
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let mask = zero_byte_mask(word ^ splatted);
        if mask != 0 {
            return Some(base + (mask.trailing_zeros() as usize) / 8);
        }
        base += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == needle)
        .map(|i| base + i)
}

/// Index of the first occurrence of `a` or `b` in `haystack`.
#[inline]
pub(crate) fn find_byte2(haystack: &[u8], a: u8, b: u8) -> Option<usize> {
    let sa = splat(a);
    let sb = splat(b);
    let mut chunks = haystack.chunks_exact(8);
    let mut base = 0;
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let mask = zero_byte_mask(word ^ sa) | zero_byte_mask(word ^ sb);
        if mask != 0 {
            return Some(base + (mask.trailing_zeros() as usize) / 8);
        }
        base += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&x| x == a || x == b)
        .map(|i| base + i)
}

/// Index of the first occurrence of the two-byte sequence `ab` (e.g. the
/// `]]` of `]]>` or the `--` of `-->`), for terminator scans.
#[inline]
pub(crate) fn find_seq2(haystack: &[u8], a: u8, b: u8) -> Option<usize> {
    let mut from = 0;
    while let Some(i) = find_byte(&haystack[from..], a) {
        let at = from + i;
        match haystack.get(at + 1) {
            Some(&next) if next == b => return Some(at),
            Some(_) => from = at + 1,
            None => return None,
        }
    }
    None
}

/// Byte classes for the ASCII fast paths of the lexer. Bytes ≥ 0x80 are
/// *not* classified here — the lexer falls back to `char`-level Unicode
/// predicates for those, so the byte paths and the old `char` paths agree
/// on every input.
const WS: u8 = 1 << 0; // space, tab, CR, LF, VT, FF (= ASCII is_whitespace)
const NAME_START: u8 = 1 << 1; // A-Z a-z _
const NAME_CONT: u8 = 1 << 2; // NAME_START ∪ 0-9 - . :

const fn class_table() -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        let b = i as u8;
        if matches!(b, b' ' | b'\t' | b'\r' | b'\n' | 0x0b | 0x0c) {
            t[i] |= WS;
        }
        if b.is_ascii_alphabetic() || b == b'_' {
            t[i] |= NAME_START | NAME_CONT;
        }
        if b.is_ascii_digit() || matches!(b, b'-' | b'.' | b':') {
            t[i] |= NAME_CONT;
        }
        i += 1;
    }
    t
}

static CLASS: [u8; 256] = class_table();

/// Whether `b` is ASCII whitespace (matches `char::is_whitespace` on the
/// ASCII range: space, tab, CR, LF, VT, FF).
#[inline(always)]
pub(crate) fn is_ascii_ws(b: u8) -> bool {
    CLASS[b as usize] & WS != 0
}

/// Whether `b` can start a name on the ASCII fast path (`A-Za-z_`).
#[inline(always)]
pub(crate) fn is_ascii_name_start(b: u8) -> bool {
    CLASS[b as usize] & NAME_START != 0
}

/// Whether `b` can continue a name on the ASCII fast path
/// (`A-Za-z0-9_-.:`).
#[inline(always)]
pub(crate) fn is_ascii_name_cont(b: u8) -> bool {
    CLASS[b as usize] & NAME_CONT != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_byte_agrees_with_position_at_every_offset() {
        // Cross word boundaries, hit in the remainder, miss entirely.
        let hay: Vec<u8> = (0..41u8).map(|i| i.wrapping_mul(7)).collect();
        for needle in 0..=255u8 {
            for start in 0..hay.len() {
                let h = &hay[start..];
                assert_eq!(
                    find_byte(h, needle),
                    h.iter().position(|&b| b == needle),
                    "needle {needle} from {start}"
                );
            }
        }
    }

    #[test]
    fn find_byte2_returns_the_earlier_of_either() {
        let h = b"aaaaaaaaaaXbbbbbbbbbbY";
        assert_eq!(find_byte2(h, b'X', b'Y'), Some(10));
        assert_eq!(find_byte2(h, b'Y', b'X'), Some(10));
        assert_eq!(find_byte2(h, b'Y', b'Z'), Some(21));
        assert_eq!(find_byte2(h, b'Q', b'Z'), None);
        assert_eq!(find_byte2(b"", b'a', b'b'), None);
    }

    #[test]
    fn find_seq2_skips_lone_first_bytes() {
        assert_eq!(find_seq2(b"a-b--c", b'-', b'-'), Some(3));
        assert_eq!(find_seq2(b"]x]]>", b']', b']'), Some(2));
        assert_eq!(find_seq2(b"-", b'-', b'-'), None);
        assert_eq!(find_seq2(b"- - - ", b'-', b'-'), None);
        // Overlapping candidates: "---" contains "--" at 0.
        assert_eq!(find_seq2(b"x---", b'-', b'-'), Some(1));
    }

    #[test]
    fn ascii_classes_match_char_predicates() {
        for b in 0..=127u8 {
            let c = b as char;
            assert_eq!(is_ascii_ws(b), c.is_whitespace(), "ws {b}");
            assert_eq!(
                is_ascii_name_start(b),
                c.is_alphabetic() || c == '_',
                "start {b}"
            );
            assert_eq!(
                is_ascii_name_cont(b),
                c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':'),
                "cont {b}"
            );
        }
        // High bytes are never classified: the lexer must decode them.
        for b in 128..=255u8 {
            assert!(!is_ascii_ws(b) && !is_ascii_name_start(b) && !is_ascii_name_cont(b));
        }
    }
}
