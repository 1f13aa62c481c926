//! The LZ4 analogue: byte-oriented LZ77 token stream without entropy coding.
//!
//! Stream layout:
//!
//! ```text
//! magic "LZ4F" | u64 original length | sequence of blocks
//! block := token byte | literals | [offset u16 le | extra match length]
//! ```
//!
//! Like real LZ4, each block starts with a token byte whose high nibble is
//! the literal-run length and low nibble the match length (both with 15 as
//! the "more bytes follow" escape), followed by the literals and a 2-byte
//! little-endian match offset. The final block carries only literals.
//!
//! Compression streams blocks straight out of the word-level
//! `Tokenizer` — no intermediate `Vec<Token>`;
//! literals are copied from the input slice in one `extend_from_slice` per
//! block. Decompression resolves back-references eight bytes per step into
//! a pre-grown output buffer (see [`crate::reference`] for the preserved
//! byte-at-a-time paths both are pinned against, byte-for-byte, including
//! error values on corrupted streams).

use crate::error::CompressError;
use crate::lz77::{MatcherParams, TokenSink, Tokenizer, MIN_MATCH};
use crate::Codec;

const MAGIC: &[u8; 4] = b"LZ4F";

/// The LZ4-like codec.
#[derive(Debug, Clone)]
pub struct Lz4ishCodec {
    params: MatcherParams,
}

impl Default for Lz4ishCodec {
    fn default() -> Self {
        Lz4ishCodec {
            params: MatcherParams::fast(),
        }
    }
}

impl Lz4ishCodec {
    /// Create a codec with custom matcher parameters.
    pub fn with_params(params: MatcherParams) -> Self {
        Lz4ishCodec { params }
    }
}

fn write_varlen(out: &mut Vec<u8>, mut value: usize) {
    // LZ4-style: 255-bytes until the remainder fits.
    while value >= 255 {
        out.push(255);
        value -= 255;
    }
    out.push(value as u8);
}

fn read_varlen(data: &[u8], pos: &mut usize) -> Result<usize, CompressError> {
    let mut value = 0usize;
    loop {
        let b = *data.get(*pos).ok_or(CompressError::Truncated)?;
        *pos += 1;
        value += b as usize;
        if b != 255 {
            return Ok(value);
        }
    }
}

/// Serialising sink: writes each streamed block in the wire format above,
/// with the literal run copied directly from the input slice.
struct BlockSerializer {
    out: Vec<u8>,
}

impl TokenSink for BlockSerializer {
    fn block(&mut self, data: &[u8], lit_start: usize, lit_end: usize, m: Option<(u32, u32)>) {
        let lit_len = lit_end - lit_start;
        let match_len = m.map(|(_, l)| l as usize - MIN_MATCH).unwrap_or(0);
        let token = (((lit_len.min(15)) as u8) << 4) | (match_len.min(15)) as u8;
        self.out.push(token);
        if lit_len >= 15 {
            write_varlen(&mut self.out, lit_len - 15);
        }
        self.out.extend_from_slice(&data[lit_start..lit_end]);
        if let Some((offset, len)) = m {
            self.out.extend_from_slice(&(offset as u16).to_le_bytes());
            let extra = len as usize - MIN_MATCH;
            if extra >= 15 {
                write_varlen(&mut self.out, extra - 15);
            }
        }
    }
}

/// Compress `data` with the given matcher parameters into the `LZ4F` wire
/// format, streaming blocks out of `tokenizer` (shared by [`Lz4ishCodec`]
/// and [`crate::gzipish`]'s dictionary stage).
pub(crate) fn compress_with(
    tokenizer: &mut Tokenizer,
    data: &[u8],
    params: &MatcherParams,
) -> Vec<u8> {
    let mut sink = BlockSerializer {
        out: Vec::with_capacity(data.len() / 2 + 32),
    };
    sink.out.extend_from_slice(MAGIC);
    sink.out
        .extend_from_slice(&(data.len() as u64).to_le_bytes());
    tokenizer.tokenize_into(data, params, &mut sink);
    sink.out
}

#[inline]
fn read_u64_le(data: &[u8], at: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&data[at..at + 8]);
    u64::from_le_bytes(buf)
}

/// Grow `buf` so that `needed + 7` bytes are valid, keeping an 8-byte slack
/// region past the logical end so the word-wise match copy below may
/// overshoot by up to 7 bytes without ever indexing out of bounds.
#[inline]
fn ensure_padded(buf: &mut Vec<u8>, needed: usize) {
    if buf.len() < needed + 8 {
        buf.resize((needed + 8).max(buf.len() * 2), 0);
    }
}

/// Decode the `LZ4F` wire format (shared with [`crate::gzipish`]'s second
/// stage). Byte-for-byte identical to
/// [`crate::reference::lz4ish_decompress_reference`], including the decoded
/// length reported in error values.
pub(crate) fn decompress_into(data: &[u8]) -> Result<Vec<u8>, CompressError> {
    if data.len() < 12 || &data[0..4] != MAGIC {
        return Err(CompressError::BadHeader);
    }
    let original_len = read_u64_le(data, 4) as usize;
    // The logical output is buf[..out_len]; the buffer keeps >= 8 bytes of
    // slack past out_len so match copies can step a whole word at a time.
    let mut buf = vec![0u8; original_len.saturating_add(8).min(1 << 20)];
    let mut out_len = 0usize;
    let mut pos = 12usize;
    while out_len < original_len {
        let token = *data.get(pos).ok_or(CompressError::Truncated)?;
        pos += 1;
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            lit_len += read_varlen(data, &mut pos)?;
        }
        if pos + lit_len > data.len() {
            return Err(CompressError::Truncated);
        }
        ensure_padded(&mut buf, out_len + lit_len);
        buf[out_len..out_len + lit_len].copy_from_slice(&data[pos..pos + lit_len]);
        out_len += lit_len;
        pos += lit_len;
        if out_len >= original_len {
            break;
        }
        // Match part.
        if pos + 2 > data.len() {
            return Err(CompressError::Truncated);
        }
        let offset = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
        pos += 2;
        let mut match_len = (token & 0x0F) as usize;
        if match_len == 15 {
            match_len += read_varlen(data, &mut pos)?;
        }
        match_len += MIN_MATCH;
        if offset == 0 || offset > out_len {
            return Err(CompressError::InvalidBackreference {
                offset,
                decoded: out_len,
            });
        }
        ensure_padded(&mut buf, out_len + match_len);
        let start = out_len - offset;
        if offset >= 8 {
            // Source and destination words never overlap: copy whole words,
            // overshooting into the slack region by at most 7 bytes.
            let mut k = 0usize;
            while k < match_len {
                let w = read_u64_le(&buf, start + k);
                buf[out_len + k..out_len + k + 8].copy_from_slice(&w.to_le_bytes());
                k += 8;
            }
        } else {
            // Overlapping copy (run-like): must proceed byte by byte to
            // reproduce the self-referential pattern.
            for k in 0..match_len {
                buf[out_len + k] = buf[start + k];
            }
        }
        out_len += match_len;
    }
    if out_len != original_len {
        return Err(CompressError::LengthMismatch {
            expected: original_len,
            found: out_len,
        });
    }
    buf.truncate(original_len);
    Ok(buf)
}

impl Codec for Lz4ishCodec {
    fn name(&self) -> &'static str {
        "lz4"
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        compress_with(&mut Tokenizer::new(), data, &self.params)
    }

    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CompressError> {
        decompress_into(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{lz4ish_compress_reference, lz4ish_decompress_reference};

    #[test]
    fn round_trips_repetitive_data_and_compresses() {
        let data = b"1,OPEN,2024-01-01,19.99,carefully packed\n".repeat(200);
        let codec = Lz4ishCodec::default();
        let compressed = codec.compress(&data);
        assert!(compressed.len() < data.len());
        assert_eq!(codec.decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn round_trips_empty_and_small_inputs() {
        let codec = Lz4ishCodec::default();
        for data in [&b""[..], &b"a"[..], &b"abcd"[..], &b"abcdefgh"[..]] {
            let compressed = codec.compress(data);
            assert_eq!(
                codec.decompress(&compressed).unwrap(),
                data,
                "data {data:?}"
            );
        }
    }

    #[test]
    fn long_literal_runs_use_varlen_encoding() {
        // 1000 distinct-ish bytes -> literal run > 15 exercises the escape.
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 251) as u8).collect();
        let codec = Lz4ishCodec::default();
        assert_eq!(codec.decompress(&codec.compress(&data)).unwrap(), data);
    }

    #[test]
    fn long_matches_use_varlen_encoding() {
        let data = vec![b'z'; 5000];
        let codec = Lz4ishCodec::default();
        let compressed = codec.compress(&data);
        assert!(compressed.len() < 200);
        assert_eq!(codec.decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn rejects_bad_header_and_truncation() {
        let codec = Lz4ishCodec::default();
        assert_eq!(
            codec.decompress(b"nope").unwrap_err(),
            CompressError::BadHeader
        );
        let compressed = codec.compress(&b"hello hello hello hello".repeat(10));
        assert!(codec
            .decompress(&compressed[..compressed.len() - 4])
            .is_err());
    }

    #[test]
    fn varlen_round_trip() {
        for value in [0usize, 5, 254, 255, 256, 1000, 70000] {
            let mut buf = Vec::new();
            write_varlen(&mut buf, value);
            let mut pos = 0;
            assert_eq!(read_varlen(&buf, &mut pos).unwrap(), value);
            assert_eq!(pos, buf.len());
        }
        let mut pos = 0;
        assert!(read_varlen(&[255, 255], &mut pos).is_err());
    }

    #[test]
    fn streamed_blocks_match_reference_bytes() {
        let cases: Vec<Vec<u8>> = vec![
            b"status=SHIPPED;priority=HIGH;qty=10;".repeat(120),
            vec![b'r'; 4096],
            (0..1500u32).flat_map(|i| (i % 7).to_le_bytes()).collect(),
        ];
        for data in &cases {
            for params in [
                MatcherParams::thorough(),
                MatcherParams::fast(),
                MatcherParams::fastest(),
            ] {
                let fast = Lz4ishCodec::with_params(params).compress(data);
                let reference = lz4ish_compress_reference(data, &params);
                assert_eq!(fast, reference, "params {params:?}");
                assert_eq!(
                    decompress_into(&fast).unwrap(),
                    lz4ish_decompress_reference(&reference).unwrap()
                );
            }
        }
    }

    #[test]
    fn corrupted_stream_errors_match_reference() {
        let codec = Lz4ishCodec::default();
        let good = codec.compress(&b"abcabcabcabc abcabc 123123 ".repeat(60));
        for cut in [0, 3, 11, 12, 13, good.len() / 2, good.len() - 1] {
            assert_eq!(
                codec.decompress(&good[..cut]).err(),
                lz4ish_decompress_reference(&good[..cut]).err(),
                "cut {cut}"
            );
        }
        // Flip the declared length and a mid-stream byte: whatever the
        // outcome (error or garbage), both paths must agree exactly.
        for flip in [4usize, 8, 14, 20] {
            let mut bad = good.clone();
            bad[flip] ^= 0x5A;
            assert_eq!(
                codec.decompress(&bad).ok(),
                lz4ish_decompress_reference(&bad).ok(),
                "flip {flip}"
            );
            assert_eq!(
                codec.decompress(&bad).err(),
                lz4ish_decompress_reference(&bad).err(),
                "flip {flip}"
            );
        }
    }
}
