//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), table-driven.
//!
//! Checksums guard every snapshot section and WAL record so that a torn
//! or bit-flipped write is *detected* — the decoder refuses to interpret
//! bytes whose checksum does not match, instead of deserializing garbage.

/// Eight 256-entry lookup tables, computed at compile time: `TABLES[0]`
/// is the classic byte-at-a-time table, `TABLES[k]` advances a byte `k`
/// positions further, enabling the slice-by-8 kernel below.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

/// The CRC-32 of `bytes`.
///
/// Slice-by-8: each iteration folds eight bytes through eight parallel
/// table lookups instead of chaining eight serial single-byte steps, so
/// checksumming a multi-megabyte snapshot section costs milliseconds, not
/// tens of them.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_extend(0, bytes)
}

/// The CRC-32 of `a ++ bytes`, given `crc` = the CRC-32 of `a`: a
/// checksum folded in as bytes stream past, `crc32_extend(0, b)` being
/// `crc32(b)`.
pub(crate) fn crc32_extend(crc: u32, bytes: &[u8]) -> u32 {
    let mut c = !crc;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[..4].try_into().unwrap()) ^ c;
        let hi = u32::from_le_bytes(chunk[4..].try_into().unwrap());
        c = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn slice_by_8_matches_bytewise_reference() {
        // A pseudo-random buffer long enough to exercise the 8-byte
        // kernel plus every remainder length.
        let mut x = 0x2545_F491u32;
        let data: Vec<u8> = (0..4099)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        for end in [0, 1, 7, 8, 9, 63, 64, 65, 4099] {
            let mut c = !0u32;
            for &b in &data[..end] {
                c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            assert_eq!(crc32(&data[..end]), !c, "divergence at len {end}");
        }
    }

    #[test]
    fn extending_equals_checksumming_the_concatenation() {
        let data = b"a checksum folded in as the bytes go out";
        for cut in 0..=data.len() {
            let (a, b) = data.split_at(cut);
            assert_eq!(crc32_extend(crc32(a), b), crc32(data), "cut at {cut}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = b"constraint state".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), base, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
