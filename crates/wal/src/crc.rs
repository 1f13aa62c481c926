//! CRC-32 (IEEE 802.3 polynomial), implemented from scratch.
//!
//! No frame uses it: record frames, checkpoint frames and snapshots are
//! all sealed with [`crate::xxh64`](fn@crate::xxh64). Its only caller is
//! the end-to-end benchmark's `wal.crc_mb_s` throughput probe, and it goes
//! once that probe times the record checksum instead. Table-driven
//! (slicing-by-8), reflected form with the standard `0xEDB88320`
//! polynomial — the same parameters as zlib's `crc32`, so the well-known
//! check value `crc32(b"123456789") == 0xCBF4_3926` pins the
//! implementation.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables, built at compile time. `TABLES[0]` is
/// the classic byte-indexed table; `TABLES[k][b]` is the contribution of
/// byte value `b` sitting `k` positions deep in an 8-byte chunk, so
/// eight bytes fold into the state with eight independent lookups
/// instead of an eight-step dependency chain.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Fold `bytes` into a running (pre-inverted) CRC state: 8-byte chunks
/// through the sliced tables, the remainder byte-at-a-time.
fn update(mut state: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = state ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        state = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][chunk[4] as usize]
            ^ TABLES[2][chunk[5] as usize]
            ^ TABLES[1][chunk[6] as usize]
            ^ TABLES[0][chunk[7] as usize];
    }
    for &b in chunks.remainder() {
        state = (state >> 8) ^ TABLES[0][((state ^ u32::from(b)) & 0xFF) as usize];
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input_and_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
    }

    /// Bit-at-a-time reference, no tables.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut state = 0xFFFF_FFFFu32;
        for &b in bytes {
            state ^= u32::from(b);
            for _ in 0..8 {
                state = if state & 1 != 0 {
                    (state >> 1) ^ POLY
                } else {
                    state >> 1
                };
            }
        }
        state ^ 0xFFFF_FFFF
    }

    #[test]
    fn sliced_path_matches_the_bitwise_reference_at_every_alignment() {
        let data: Vec<u8> = (0..1024u32)
            .map(|i| (i.wrapping_mul(167) >> 3) as u8)
            .collect();
        for len in (0..64).chain([255, 256, 257, 1000, 1024]) {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bitwise(&data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let base: Vec<u8> = (0u8..=255).collect();
        let reference = crc32(&base);
        for byte in [0usize, 17, 255] {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "byte {byte} bit {bit}");
            }
        }
    }
}
