//! CRC-32 (IEEE 802.3, reflected) for frame integrity checking.
//!
//! Implemented in-repo because the offline build has no `crc` crate;
//! the tables are built at compile time, and the polynomial/reflection
//! match the ubiquitous zlib/Ethernet CRC-32 so captures can be checked
//! against standard tooling.
//!
//! The checksum is computed by slicing-by-8: eight 256-entry tables
//! (8 KiB) fold eight input bytes per step, and a bytewise loop over
//! the first table finishes the tail. The result is bit-identical to
//! the one-byte-per-step definition (kept as the test reference).

/// Reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `TABLES[0]` is the classic one-byte-per-step
/// table, and `TABLES[k][i]` is the CRC of byte `i` followed by `k`
/// zero bytes, so one step folds eight bytes at once.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 of `bytes` (initial value `!0`, final complement — the
/// standard zlib convention).
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
    let (words, tail) = bytes.as_chunks::<8>();
    let mut crc = !0u32;
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in words {
        let [c0, c1, c2, c3] = (crc ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
        crc = t7[usize::from(c0)]
            ^ t6[usize::from(c1)]
            ^ t5[usize::from(c2)]
            ^ t4[usize::from(c3)]
            ^ t3[usize::from(b4)]
            ^ t2[usize::from(b5)]
            ^ t1[usize::from(b6)]
            ^ t0[usize::from(b7)];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t0[usize::from(crc as u8 ^ b)];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-byte-per-step definition the slicing loop must match.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    /// SplitMix64: a seeded stream for the property test's inputs.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn matches_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn slicing_matches_the_bytewise_reference() {
        let mut state = 0x5EED_C0DE_u64;
        let data: Vec<u8> = (0..4_096 + 8).map(|_| splitmix(&mut state) as u8).collect();
        // Every short length, where the tail loop does most or all of
        // the work.
        for len in 0..=64 {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "len {len}"
            );
        }
        // Random lengths 0–4,096 at every start offset 0–7, so the
        // eight-byte steps see every alignment of the buffer.
        for offset in 0..8 {
            for _ in 0..32 {
                let len = (splitmix(&mut state) % 4_097) as usize;
                let slice = &data[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset} len {len}"
                );
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let base = crc32(data);
        let mut corrupted = data.to_vec();
        for byte in 0..corrupted.len() {
            for bit in 0..8 {
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), base, "flip at {byte}:{bit} undetected");
                corrupted[byte] ^= 1 << bit;
            }
        }
    }
}
