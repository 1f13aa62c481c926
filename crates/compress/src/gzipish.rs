//! The gzip analogue: LZ77 matching + canonical Huffman entropy coding.
//!
//! Like DEFLATE, compression runs in two stages: a dictionary stage
//! (LZ77 with a deep-chain matcher) and an entropy-coding stage (canonical
//! Huffman over the byte-serialised token stream). The token stream uses
//! the same compact block format as [`crate::lz4ish`] — a token byte whose
//! nibbles carry the literal-run and match lengths, followed by the
//! literals and a 2-byte offset — so the Huffman stage starts from a
//! representation that is already as dense as LZ4's and only adds gains.
//!
//! Stream layout:
//!
//! ```text
//! magic "GZF2" | u64 original length | 256 bytes of Huffman code lengths |
//! u64 token-stream byte length | Huffman-coded token bytes
//! ```
//!
//! Two stages (dictionary + entropy coding) is what gives DEFLATE its
//! density advantage over LZ4 and Snappy, and the same holds for this codec
//! relative to [`crate::lz4ish`] and [`crate::snappyish`] — see the
//! comparative tests in `measure.rs`.

use crate::error::CompressError;
use crate::huffman::{BitReader, BitWriter, HuffmanCode};
use crate::lz4ish::Lz4ishCodec;
use crate::lz77::MatcherParams;
use crate::Codec;

const MAGIC: &[u8; 4] = b"GZF2";

#[inline]
fn read_u64_le(data: &[u8], at: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&data[at..at + 8]);
    u64::from_le_bytes(buf)
}

/// The gzip-like codec.
#[derive(Debug, Clone)]
pub struct GzipishCodec {
    inner: Lz4ishCodec,
}

impl Default for GzipishCodec {
    fn default() -> Self {
        GzipishCodec {
            inner: Lz4ishCodec::with_params(MatcherParams::thorough()),
        }
    }
}

impl GzipishCodec {
    /// Create a codec with custom matcher parameters (used by tests).
    pub fn with_params(params: MatcherParams) -> Self {
        GzipishCodec {
            inner: Lz4ishCodec::with_params(params),
        }
    }
}

impl Codec for GzipishCodec {
    fn name(&self) -> &'static str {
        "gzip"
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        // Stage 1: dictionary coding (thorough LZ77, block-serialised).
        let token_bytes = self.inner.compress(data);

        // Stage 2: canonical Huffman over the token bytes.
        let mut freq = [0u64; 256];
        for &b in &token_bytes {
            freq[b as usize] += 1;
        }
        let code = HuffmanCode::from_frequencies(&freq);
        let mut writer = BitWriter::new();
        for &b in &token_bytes {
            code.encode(&mut writer, b);
        }
        let coded = writer.finish();

        let mut out = Vec::with_capacity(coded.len() + 256 + 32);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(data.len() as u64).to_le_bytes());
        out.extend_from_slice(code.lengths());
        out.extend_from_slice(&(token_bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&coded);
        out
    }

    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CompressError> {
        if data.len() < 4 + 8 + 256 + 8 || &data[0..4] != MAGIC {
            return Err(CompressError::BadHeader);
        }
        let original_len = read_u64_le(data, 4) as usize;
        let mut lengths = [0u8; 256];
        lengths.copy_from_slice(&data[12..268]);
        let token_len = read_u64_le(data, 268) as usize;
        let coded = &data[276..];

        let code = HuffmanCode::from_lengths(&lengths);
        let decoder = code.decoder();
        let mut reader = BitReader::new(coded);
        // Cap the *preallocation* (not the output): a corrupted header can
        // declare an absurd token count, but a real stream only carries
        // ~1 bit per token at minimum, so growth past the cap is organic.
        let mut token_bytes = Vec::with_capacity(token_len.min(1 << 20));
        for _ in 0..token_len {
            token_bytes.push(decoder.decode(&mut reader)?);
        }
        let out = self.inner.decompress(&token_bytes)?;
        if out.len() != original_len {
            return Err(CompressError::LengthMismatch {
                expected: original_len,
                found: out.len(),
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_text_and_compresses_it() {
        let data = b"select l_returnflag, l_linestatus, sum(l_quantity) from lineitem ".repeat(40);
        let codec = GzipishCodec::default();
        let compressed = codec.compress(&data);
        assert!(
            compressed.len() < data.len() / 2,
            "ratio too poor: {} vs {}",
            compressed.len(),
            data.len()
        );
        assert_eq!(codec.decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn entropy_stage_beats_plain_lz4_on_tabular_text() {
        let mut data = Vec::new();
        for i in 0..400 {
            data.extend_from_slice(
                format!(
                    "{i},Customer#{:09},AUTOMOBILE,1995-03-11,5-LOW,furiously final requests\n",
                    i % 997
                )
                .as_bytes(),
            );
        }
        let gz = GzipishCodec::default().compress(&data);
        let lz = crate::Lz4ishCodec::default().compress(&data);
        assert!(gz.len() < lz.len(), "gzip {} vs lz4 {}", gz.len(), lz.len());
    }

    #[test]
    fn round_trips_empty_and_tiny_inputs() {
        let codec = GzipishCodec::default();
        for data in [&b""[..], &b"x"[..], &b"ab"[..], &b"abcd"[..]] {
            let compressed = codec.compress(data);
            assert_eq!(codec.decompress(&compressed).unwrap(), data);
        }
    }

    #[test]
    fn rejects_corrupted_streams() {
        let codec = GzipishCodec::default();
        assert_eq!(
            codec.decompress(b"not a stream").unwrap_err(),
            CompressError::BadHeader
        );
        let mut compressed = codec.compress(b"hello hello hello hello hello");
        // Flip the declared original length.
        compressed[4] ^= 0xFF;
        assert!(codec.decompress(&compressed).is_err());
        // Truncate the body.
        let ok = codec.compress(b"hello hello hello hello hello");
        assert!(codec.decompress(&ok[..ok.len() - 3]).is_err());
    }

    #[test]
    fn two_stage_stream_matches_reference_bytes() {
        use crate::reference::{gzipish_compress_reference, gzipish_decompress_reference};
        let cases: Vec<Vec<u8>> = vec![
            b"l_orderkey|l_partkey|l_suppkey|l_quantity\n".repeat(80),
            vec![0u8; 2048],
            (0..1024u32).flat_map(|i| (i * i).to_le_bytes()).collect(),
            b"ab".to_vec(),
        ];
        for data in &cases {
            for params in [MatcherParams::thorough(), MatcherParams::fastest()] {
                let fast = GzipishCodec::with_params(params).compress(data);
                let reference = gzipish_compress_reference(data, &params);
                assert_eq!(fast, reference, "params {params:?}");
                assert_eq!(
                    GzipishCodec::with_params(params).decompress(&fast).unwrap(),
                    gzipish_decompress_reference(&reference).unwrap()
                );
            }
        }
        // Truncation anywhere in the entropy-coded body errors identically.
        let good = GzipishCodec::default().compress(&cases[0]);
        for cut in [0, 7, 270, 276, good.len() - 2] {
            assert_eq!(
                GzipishCodec::default().decompress(&good[..cut]).err(),
                gzipish_decompress_reference(&good[..cut]).err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn incompressible_data_still_round_trips() {
        let mut data = Vec::with_capacity(4096);
        let mut x: u64 = 99;
        for _ in 0..4096 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            data.push((x & 0xFF) as u8);
        }
        let codec = GzipishCodec::default();
        assert_eq!(codec.decompress(&codec.compress(&data)).unwrap(), data);
    }
}
