//! XXH64 (seed 0), implemented from scratch in safe Rust.
//!
//! The one checksum of the workspace: engine snapshots (`SCPK`), the
//! configuration fingerprint inside them, the journal's checkpoint
//! frames (`WCKP`) and its record frames (the low 32 bits) all carry this
//! digest. Every one of them is hashed on the serving path — a snapshot
//! is megabytes long and is checksummed at every epoch boundary, a batch
//! record is hundreds of kilobytes and is sealed at every delivery — so
//! the digest must run at memory speed: XXH64 folds a 32-byte stripe into
//! four independent multiply–rotate lanes, so the CPU overlaps four
//! dependency chains, where a byte-serial hash or a table-driven CRC pays
//! a dependent step per byte or per word. What truncating it to 32 bits
//! gives up against a CRC is written down in [`crate::record`].
//!
//! [`Xxh64`] is the same hash part way through its input. An engine
//! snapshot leads with bytes that change only when an object is
//! registered, so the engine keeps the state after them and each snapshot
//! hashes only what follows; [`xxh64()`] is its case that has folded
//! nothing yet.
//!
//! The algorithm and its constants are Yann Collet's published XXH64;
//! the tests pin the published vectors, so these bytes are readable by
//! any other implementation.

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

/// Little-endian `u64` from an exactly-8-byte slice.
fn word(bytes: &[u8]) -> u64 {
    let mut le = [0u8; 8];
    le.copy_from_slice(bytes);
    u64::from_le_bytes(le)
}

/// One lane step: fold an input word into an accumulator.
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

/// Fold a finished lane into the converged hash.
fn merge_lane(hash: u64, lane: u64) -> u64 {
    (hash ^ round(0, lane))
        .wrapping_mul(PRIME_1)
        .wrapping_add(PRIME_4)
}

/// XXH64 (seed 0) part way through its input: the four lanes after a
/// whole number of 32-byte stripes. A caller whose input starts with
/// bytes it has hashed before keeps the state after them and resumes from
/// there, so [`Xxh64::finish`] over the rest equals [`xxh64()`] over the
/// whole input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Xxh64 {
    lanes: [u64; 4],
    /// Bytes folded into the lanes, a multiple of 32.
    folded: usize,
}

impl Default for Xxh64 {
    fn default() -> Self {
        Xxh64 {
            lanes: [
                PRIME_1.wrapping_add(PRIME_2),
                PRIME_2,
                0,
                0u64.wrapping_sub(PRIME_1),
            ],
            folded: 0,
        }
    }
}

impl Xxh64 {
    /// Bytes folded into the lanes so far: a multiple of 32, and where the
    /// input [`Xxh64::finish`] is handed must resume.
    pub fn folded(&self) -> usize {
        self.folded
    }

    /// Fold every whole stripe of `bytes` into the lanes; the sub-stripe
    /// tail, `bytes[bytes.len() / 32 * 32..]`, is left for the caller to
    /// hand on.
    pub fn fold_stripes(&mut self, bytes: &[u8]) {
        let [mut v1, mut v2, mut v3, mut v4] = self.lanes;
        let stripes = bytes.chunks_exact(32);
        self.folded += bytes.len() - stripes.remainder().len();
        for stripe in stripes {
            v1 = round(v1, word(&stripe[0..8]));
            v2 = round(v2, word(&stripe[8..16]));
            v3 = round(v3, word(&stripe[16..24]));
            v4 = round(v4, word(&stripe[24..32]));
        }
        self.lanes = [v1, v2, v3, v4];
    }

    /// XXH64 of the bytes folded so far followed by `rest`.
    pub fn finish(mut self, rest: &[u8]) -> u64 {
        self.fold_stripes(rest);
        let tail = &rest[rest.len() / 32 * 32..];
        let mut hash = if self.folded > 0 {
            let [v1, v2, v3, v4] = self.lanes;
            let converged = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            self.lanes.into_iter().fold(converged, merge_lane)
        } else {
            PRIME_5
        };
        hash = hash.wrapping_add((self.folded + tail.len()) as u64);

        // The sub-stripe tail: whole words, then one half word, then bytes.
        let mut words = tail.chunks_exact(8);
        for w in &mut words {
            hash = (hash ^ round(0, word(w)))
                .rotate_left(27)
                .wrapping_mul(PRIME_1)
                .wrapping_add(PRIME_4);
        }
        let mut rest = words.remainder();
        if rest.len() >= 4 {
            let half = u64::from(u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]));
            hash = (hash ^ half.wrapping_mul(PRIME_1))
                .rotate_left(23)
                .wrapping_mul(PRIME_2)
                .wrapping_add(PRIME_3);
            rest = &rest[4..];
        }
        for &b in rest {
            hash = (hash ^ u64::from(b).wrapping_mul(PRIME_5))
                .rotate_left(11)
                .wrapping_mul(PRIME_1);
        }

        // Avalanche.
        hash ^= hash >> 33;
        hash = hash.wrapping_mul(PRIME_2);
        hash ^= hash >> 29;
        hash = hash.wrapping_mul(PRIME_3);
        hash ^ (hash >> 32)
    }
}

/// XXH64 of `bytes` with seed 0: [`Xxh64::finish`] from the state that has
/// folded nothing.
pub fn xxh64(bytes: &[u8]) -> u64 {
    Xxh64::default().finish(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matches_the_published_vectors() {
        for (input, digest) in [
            ("", 0xEF46_DB37_51D8_E999u64),
            ("a", 0xD24E_C4F1_A98C_6E5B),
            ("abc", 0x44BC_2CF5_AD77_0999),
            (
                "Nobody inspects the spammish repetition",
                0xFBCE_A83C_8A37_8BF1,
            ),
        ] {
            assert_eq!(xxh64(input.as_bytes()), digest, "{input:?}");
        }
    }

    /// The specification read literally: one cursor, one word at a time,
    /// the four lanes in an indexed array, no chunk iterators.
    fn xxh64_scalar(bytes: &[u8]) -> u64 {
        let read = |at: usize, n: usize| -> u64 {
            (0..n).fold(0u64, |v, i| v | u64::from(bytes[at + i]) << (8 * i))
        };
        let lane = |acc: u64, input: u64| -> u64 {
            acc.wrapping_add(input.wrapping_mul(PRIME_2))
                .rotate_left(31)
                .wrapping_mul(PRIME_1)
        };
        let len = bytes.len();
        let mut at = 0usize;
        let mut hash;
        if len >= 32 {
            let mut v = [
                PRIME_1.wrapping_add(PRIME_2),
                PRIME_2,
                0,
                0u64.wrapping_sub(PRIME_1),
            ];
            while at + 32 <= len {
                for acc in &mut v {
                    *acc = lane(*acc, read(at, 8));
                    at += 8;
                }
            }
            hash = v[0]
                .rotate_left(1)
                .wrapping_add(v[1].rotate_left(7))
                .wrapping_add(v[2].rotate_left(12))
                .wrapping_add(v[3].rotate_left(18));
            for acc in v {
                hash ^= lane(0, acc);
                hash = hash.wrapping_mul(PRIME_1).wrapping_add(PRIME_4);
            }
        } else {
            hash = PRIME_5;
        }
        hash = hash.wrapping_add(len as u64);
        while at + 8 <= len {
            hash ^= lane(0, read(at, 8));
            hash = hash
                .rotate_left(27)
                .wrapping_mul(PRIME_1)
                .wrapping_add(PRIME_4);
            at += 8;
        }
        if at + 4 <= len {
            hash ^= read(at, 4).wrapping_mul(PRIME_1);
            hash = hash
                .rotate_left(23)
                .wrapping_mul(PRIME_2)
                .wrapping_add(PRIME_3);
            at += 4;
        }
        while at < len {
            hash ^= read(at, 1).wrapping_mul(PRIME_5);
            hash = hash.rotate_left(11).wrapping_mul(PRIME_1);
            at += 1;
        }
        hash ^= hash >> 33;
        hash = hash.wrapping_mul(PRIME_2);
        hash ^= hash >> 29;
        hash = hash.wrapping_mul(PRIME_3);
        hash ^ (hash >> 32)
    }

    #[test]
    fn matches_the_scalar_reference_at_every_length_and_start_offset() {
        let data: Vec<u8> = (0..128u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=100 {
                let slice = &data[start..start + len];
                assert_eq!(xxh64(slice), xxh64_scalar(slice), "start {start} len {len}");
            }
        }
        // The reference itself is anchored to a published vector.
        assert_eq!(
            xxh64_scalar(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    /// `bytes` hashed by folding its first `split` bytes' whole stripes,
    /// then finishing from where the fold stopped.
    fn resumed(bytes: &[u8], split: usize) -> u64 {
        let mut state = Xxh64::default();
        state.fold_stripes(&bytes[..split]);
        assert_eq!(state.folded(), split / 32 * 32);
        state.finish(&bytes[state.folded()..])
    }

    #[test]
    fn a_resumed_hash_equals_the_one_shot_hash_at_every_split() {
        for (input, digest) in [
            ("", 0xEF46_DB37_51D8_E999u64),
            ("a", 0xD24E_C4F1_A98C_6E5B),
            ("abc", 0x44BC_2CF5_AD77_0999),
            (
                "Nobody inspects the spammish repetition",
                0xFBCE_A83C_8A37_8BF1,
            ),
        ] {
            for split in 0..=input.len() {
                assert_eq!(
                    resumed(input.as_bytes(), split),
                    digest,
                    "{input:?} at {split}"
                );
            }
        }
        let data: Vec<u8> = (0..200u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in [0, 31, 32, 33, 63, 64, 65, 100, 128, 200] {
            let bytes = &data[..len];
            let oracle = xxh64_scalar(bytes);
            assert_eq!(xxh64(bytes), oracle, "len {len}");
            for split in 0..=len {
                assert_eq!(resumed(bytes, split), oracle, "len {len} split {split}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A state folded over any prefix, in any number of pieces, and
        /// finished over the rest hashes like the whole input at once.
        #[test]
        fn a_resumed_hash_equals_the_one_shot_and_scalar_hash(
            bytes in proptest::collection::vec(any::<u8>(), 0..300),
            cuts in proptest::collection::vec(any::<u64>(), 0..4),
        ) {
            let oracle = xxh64_scalar(&bytes);
            prop_assert_eq!(xxh64(&bytes), oracle);
            // Fold the prefix up to each cut in turn: every fold resumes
            // where the last one stopped, at a multiple of 32 or not.
            let mut cuts: Vec<usize> = cuts
                .iter()
                .map(|&c| (c % (bytes.len() as u64 + 1)) as usize)
                .collect();
            cuts.sort_unstable();
            let mut state = Xxh64::default();
            for &cut in &cuts {
                state.fold_stripes(&bytes[state.folded()..cut.max(state.folded())]);
            }
            prop_assert_eq!(state.folded(), cuts.last().map_or(0, |&c| c / 32 * 32));
            prop_assert_eq!(state.finish(&bytes[state.folded()..]), oracle);
        }
    }

    #[test]
    fn single_bit_flips_and_length_changes_move_the_digest() {
        let base: Vec<u8> = (0u8..=255).collect();
        let reference = xxh64(&base);
        for byte in [0usize, 31, 32, 100, 248, 252, 255] {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(xxh64(&flipped), reference, "byte {byte} bit {bit}");
            }
        }
        assert_ne!(xxh64(&base[..255]), reference);
    }
}
