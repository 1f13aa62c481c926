//! Preserved byte-at-a-time codec paths: the differential oracles for the
//! word-level throughput kernels.
//!
//! Every function here is a behavioural snapshot of the pre-throughput
//! implementation of the corresponding production path: one byte compared,
//! copied or bit-shifted at a time, no hash-table reuse, no word loads. The
//! production kernels in [`crate::lz77`], [`crate::lz4ish`], [`crate::rle`],
//! [`crate::gzipish`] and [`crate::huffman`] must produce **identical output
//! bytes** (and identical [`CompressError`] values on corrupted streams),
//! which the `differential_compress` workspace tests pin
//! fast-vs-reference.
//!
//! Nothing here is reachable from production code: the modules exist only to
//! keep the slow, obviously-correct paths alive as oracles.

use crate::error::CompressError;
use crate::huffman::HuffmanCode;
use crate::lz77::{MatcherParams, Token, MIN_MATCH};

const LZ4_MAGIC: &[u8; 4] = b"LZ4F";
const GZIP_MAGIC: &[u8; 4] = b"GZF2";
const RLE_MAGIC: &[u8; 4] = b"RLE1";

fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(2654435761) >> 16) as usize & 0xFFFF
}

fn read_u64_le(data: &[u8], at: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&data[at..at + 8]);
    u64::from_le_bytes(buf)
}

/// The pre-throughput tokenizer: per-call `usize` hash chains and a
/// byte-at-a-time match-extension loop.
pub fn tokenize_reference(data: &[u8], params: &MatcherParams) -> Vec<Token> {
    let n = data.len();
    let mut tokens = Vec::with_capacity(n / 2 + 16);
    if n < MIN_MATCH {
        tokens.extend(data.iter().map(|&b| Token::Literal(b)));
        return tokens;
    }
    // head[h] = most recent position with hash h; prev[i] = previous position
    // with the same hash as i (hash chains).
    let mut head = vec![usize::MAX; 1 << 16];
    let mut prev = vec![usize::MAX; n];
    let mut i = 0usize;
    while i < n {
        if i + MIN_MATCH > n {
            tokens.push(Token::Literal(data[i]));
            i += 1;
            continue;
        }
        let h = hash4(data, i);
        // Walk the chain looking for the longest match within the window.
        let mut best_len = 0usize;
        let mut best_offset = 0usize;
        let mut candidate = head[h];
        let mut chain = 0usize;
        while candidate != usize::MAX && chain < params.max_chain && i - candidate <= params.window
        {
            let max_len = (n - i).min(params.max_match);
            let mut len = 0usize;
            while len < max_len && data[candidate + len] == data[i + len] {
                len += 1;
            }
            if len > best_len {
                best_len = len;
                best_offset = i - candidate;
                if len >= params.max_match {
                    break;
                }
            }
            candidate = prev[candidate];
            chain += 1;
        }
        // Insert the current position into the chain.
        prev[i] = head[h];
        head[h] = i;

        if best_len >= MIN_MATCH {
            tokens.push(Token::Match {
                offset: best_offset as u32,
                len: best_len as u32,
            });
            // Insert the skipped positions so later matches can reference them.
            let end = (i + best_len).min(n.saturating_sub(MIN_MATCH - 1));
            let mut j = i + 1;
            while j < end {
                let hj = hash4(data, j);
                prev[j] = head[hj];
                head[hj] = j;
                j += 1;
            }
            i += best_len;
        } else {
            tokens.push(Token::Literal(data[i]));
            i += 1;
        }
    }
    tokens
}

/// The pre-throughput detokenizer: one byte pushed per match position.
pub fn detokenize_reference(tokens: &[Token]) -> Option<Vec<u8>> {
    let mut out: Vec<u8> = Vec::with_capacity(tokens.len() * 2);
    for t in tokens {
        match *t {
            Token::Literal(b) => out.push(b),
            Token::Match { offset, len } => {
                let offset = offset as usize;
                if offset == 0 || offset > out.len() {
                    return None;
                }
                let start = out.len() - offset;
                for k in 0..len as usize {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    Some(out)
}

fn write_varlen(out: &mut Vec<u8>, mut value: usize) {
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

/// The pre-throughput lz4ish serializer: tokenizes into an intermediate
/// `Vec<Token>`, then walks it grouping literal runs into blocks.
pub fn lz4ish_compress_reference(data: &[u8], params: &MatcherParams) -> Vec<u8> {
    let tokens = tokenize_reference(data, params);
    let mut out = Vec::with_capacity(data.len() / 2 + 32);
    out.extend_from_slice(LZ4_MAGIC);
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());

    // Walk tokens grouping literal runs followed by one match.
    let mut literals: Vec<u8> = Vec::new();
    let flush = |out: &mut Vec<u8>, literals: &mut Vec<u8>, m: Option<(u32, u32)>| {
        let lit_len = literals.len();
        let match_len = m.map(|(_, l)| l as usize - MIN_MATCH).unwrap_or(0);
        let token = (((lit_len.min(15)) as u8) << 4) | (match_len.min(15)) as u8;
        out.push(token);
        if lit_len >= 15 {
            write_varlen(out, lit_len - 15);
        }
        out.extend_from_slice(literals);
        literals.clear();
        if let Some((offset, len)) = m {
            out.extend_from_slice(&(offset as u16).to_le_bytes());
            let extra = len as usize - MIN_MATCH;
            if extra >= 15 {
                write_varlen(out, extra - 15);
            }
        }
    };
    for t in &tokens {
        match *t {
            Token::Literal(b) => literals.push(b),
            Token::Match { offset, len } => flush(&mut out, &mut literals, Some((offset, len))),
        }
    }
    // Trailing literal-only block (always emitted, possibly empty, so the
    // decoder knows the stream is complete).
    flush(&mut out, &mut literals, None);
    out
}

/// The pre-throughput lz4ish decoder: `Vec::push` per match byte.
pub fn lz4ish_decompress_reference(data: &[u8]) -> Result<Vec<u8>, CompressError> {
    if data.len() < 12 || &data[0..4] != LZ4_MAGIC {
        return Err(CompressError::BadHeader);
    }
    let original_len = read_u64_le(data, 4) as usize;
    // Cap the *preallocation* (not the output) so a corrupted length field
    // cannot request an absurd reservation; behavior is unchanged.
    let mut out = Vec::with_capacity(original_len.min(1 << 20));
    let mut pos = 12usize;
    while out.len() < original_len {
        let token = *data.get(pos).ok_or(CompressError::Truncated)?;
        pos += 1;
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            lit_len += read_varlen(data, &mut pos)?;
        }
        if pos + lit_len > data.len() {
            return Err(CompressError::Truncated);
        }
        out.extend_from_slice(&data[pos..pos + lit_len]);
        pos += lit_len;
        if out.len() >= original_len {
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
        if offset == 0 || offset > out.len() {
            return Err(CompressError::InvalidBackreference {
                offset,
                decoded: out.len(),
            });
        }
        let start = out.len() - offset;
        for k in 0..match_len {
            let b = out[start + k];
            out.push(b);
        }
    }
    if out.len() != original_len {
        return Err(CompressError::LengthMismatch {
            expected: original_len,
            found: out.len(),
        });
    }
    Ok(out)
}

/// The pre-throughput RLE encoder: byte-at-a-time run detection.
pub fn rle_compress_reference(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    out.extend_from_slice(RLE_MAGIC);
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    let mut i = 0usize;
    while i < data.len() {
        let b = data[i];
        let mut run = 1usize;
        while i + run < data.len() && data[i + run] == b && run < 255 {
            run += 1;
        }
        out.push(run as u8);
        out.push(b);
        i += run;
    }
    out
}

/// The pre-throughput RLE decoder: `iter::repeat(..).take(..)` per pair.
pub fn rle_decompress_reference(data: &[u8]) -> Result<Vec<u8>, CompressError> {
    if data.len() < 12 || &data[0..4] != RLE_MAGIC {
        return Err(CompressError::BadHeader);
    }
    let original_len = read_u64_le(data, 4) as usize;
    // Preallocation capped like the fast path: capacity is not behavior.
    let mut out = Vec::with_capacity(original_len.min(1 << 20));
    let body = &data[12..];
    if body.len() % 2 != 0 {
        return Err(CompressError::Truncated);
    }
    for pair in body.chunks_exact(2) {
        let run = pair[0] as usize;
        if run == 0 {
            return Err(CompressError::InvalidSymbol);
        }
        out.extend(std::iter::repeat(pair[1]).take(run));
    }
    if out.len() != original_len {
        return Err(CompressError::LengthMismatch {
            expected: original_len,
            found: out.len(),
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Pre-throughput bit I/O (one bit per iteration) and the binary-search
// Huffman decoder, preserved so the gzipish oracle below is end-to-end
// independent of the production bit kernels.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct BitWriterReference {
    bytes: Vec<u8>,
    bit_pos: u8,
}

impl BitWriterReference {
    fn write_bits(&mut self, value: u32, count: u32) {
        for i in (0..count).rev() {
            let bit = (value >> i) & 1;
            if self.bit_pos == 0 {
                self.bytes.push(0);
            }
            if let Some(last) = self.bytes.last_mut() {
                *last |= (bit as u8) << (7 - self.bit_pos);
            }
            self.bit_pos = (self.bit_pos + 1) % 8;
        }
    }
}

struct BitReaderReference<'a> {
    bytes: &'a [u8],
    byte_pos: usize,
    bit_pos: u8,
}

impl<'a> BitReaderReference<'a> {
    fn read_bit(&mut self) -> Result<u32, CompressError> {
        if self.byte_pos >= self.bytes.len() {
            return Err(CompressError::Truncated);
        }
        let bit = (self.bytes[self.byte_pos] >> (7 - self.bit_pos)) & 1;
        self.bit_pos += 1;
        if self.bit_pos == 8 {
            self.bit_pos = 0;
            self.byte_pos += 1;
        }
        Ok(bit as u32)
    }
}

const MAX_CODE_LEN: usize = 15;

/// Decode one symbol by binary search over sorted (length, code, symbol)
/// entries — the pre-throughput decoder loop.
fn decode_symbol_reference(
    entries: &[(u8, u16, u8)],
    reader: &mut BitReaderReference<'_>,
) -> Result<u8, CompressError> {
    let mut code = 0u16;
    for len in 1..=MAX_CODE_LEN as u8 {
        let bit = reader.read_bit()? as u16;
        code = (code << 1) | bit;
        if let Ok(idx) = entries.binary_search_by(|&(l, c, _)| (l, c).cmp(&(len, code))) {
            return Ok(entries[idx].2);
        }
    }
    Err(CompressError::InvalidSymbol)
}

/// The pre-throughput gzipish pipeline: reference LZ77 + reference
/// serializer + bit-at-a-time canonical Huffman writer.
pub fn gzipish_compress_reference(data: &[u8], params: &MatcherParams) -> Vec<u8> {
    // Stage 1: dictionary coding (reference LZ77, block-serialised).
    let token_bytes = lz4ish_compress_reference(data, params);

    // Stage 2: canonical Huffman over the token bytes.
    let mut freq = [0u64; 256];
    for &b in &token_bytes {
        freq[b as usize] += 1;
    }
    let code = HuffmanCode::from_frequencies(&freq);
    let mut writer = BitWriterReference::default();
    for &b in &token_bytes {
        let len = code.lengths()[b as usize];
        writer.write_bits(code.code_of(b) as u32, len as u32);
    }
    let coded = writer.bytes;

    let mut out = Vec::with_capacity(coded.len() + 256 + 32);
    out.extend_from_slice(GZIP_MAGIC);
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    out.extend_from_slice(code.lengths());
    out.extend_from_slice(&(token_bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(&coded);
    out
}

/// The pre-throughput gzipish decoder: per-bit binary-search Huffman decode
/// feeding the reference lz4ish decoder.
pub fn gzipish_decompress_reference(data: &[u8]) -> Result<Vec<u8>, CompressError> {
    if data.len() < 4 + 8 + 256 + 8 || &data[0..4] != GZIP_MAGIC {
        return Err(CompressError::BadHeader);
    }
    let original_len = read_u64_le(data, 4) as usize;
    let mut lengths = [0u8; 256];
    lengths.copy_from_slice(&data[12..268]);
    let token_len = read_u64_le(data, 268) as usize;
    let coded = &data[276..];

    let code = HuffmanCode::from_lengths(&lengths)?;
    let mut entries: Vec<(u8, u16, u8)> = (0..256usize)
        .filter(|&s| code.lengths()[s] > 0)
        .map(|s| (code.lengths()[s], code.code_of(s as u8), s as u8))
        .collect();
    entries.sort();
    let mut reader = BitReaderReference {
        bytes: coded,
        byte_pos: 0,
        bit_pos: 0,
    };
    // Preallocation capped like the fast path: capacity is not behavior.
    let mut token_bytes = Vec::with_capacity(token_len.min(1 << 20));
    for _ in 0..token_len {
        token_bytes.push(decode_symbol_reference(&entries, &mut reader)?);
    }
    let out = lz4ish_decompress_reference(&token_bytes)?;
    if out.len() != original_len {
        return Err(CompressError::LengthMismatch {
            expected: original_len,
            found: out.len(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_search_decoder_matches_canonical_table_decoder() {
        // Pin `decode_symbol_reference` directly against the fast
        // table-driven `HuffmanDecoder` on the same bit stream: every
        // decoded symbol and the error on a truncated stream must agree.
        let mut freq = [0u64; 256];
        for (i, f) in [900u64, 400, 220, 90, 31, 7, 3, 1].iter().enumerate() {
            freq[b'a' as usize + i] = *f;
        }
        let code = HuffmanCode::from_frequencies(&freq);
        let symbols: Vec<u8> = (0..500u32).map(|i| b'a' + (i * i % 8) as u8).collect();
        let mut writer = BitWriterReference::default();
        for &s in &symbols {
            writer.write_bits(code.code_of(s) as u32, code.lengths()[s as usize] as u32);
        }
        let coded = writer.bytes;

        let mut entries: Vec<(u8, u16, u8)> = (0..256usize)
            .filter(|&s| code.lengths()[s] > 0)
            .map(|s| (code.lengths()[s], code.code_of(s as u8), s as u8))
            .collect();
        entries.sort();
        let decoder = code.decoder();
        let mut slow = BitReaderReference {
            bytes: &coded,
            byte_pos: 0,
            bit_pos: 0,
        };
        let mut fast = crate::huffman::BitReader::new(&coded);
        for &expected in &symbols {
            let a = decode_symbol_reference(&entries, &mut slow).unwrap();
            let b = decoder.decode(&mut fast).unwrap();
            assert_eq!(a, expected);
            assert_eq!(b, expected);
        }
        // Truncation: both decoders fail identically on a cut stream.
        let cut = &coded[..coded.len() / 2];
        let mut slow = BitReaderReference {
            bytes: cut,
            byte_pos: 0,
            bit_pos: 0,
        };
        let mut fast = crate::huffman::BitReader::new(cut);
        loop {
            let last_slow = decode_symbol_reference(&entries, &mut slow);
            let last_fast = decoder.decode(&mut fast);
            assert_eq!(last_slow, last_fast);
            if last_slow.is_err() {
                assert_eq!(last_slow, Err(CompressError::Truncated));
                break;
            }
        }
    }

    #[test]
    fn reference_paths_round_trip() {
        let data = b"the quick brown fox jumps over the lazy dog. ".repeat(40);
        let params = MatcherParams::thorough();
        let tokens = tokenize_reference(&data, &params);
        assert_eq!(detokenize_reference(&tokens).as_deref(), Some(&data[..]));
        let lz = lz4ish_compress_reference(&data, &MatcherParams::fast());
        assert_eq!(lz4ish_decompress_reference(&lz).as_deref(), Ok(&data[..]));
        let gz = gzipish_compress_reference(&data, &params);
        assert_eq!(gzipish_decompress_reference(&gz).as_deref(), Ok(&data[..]));
        let rle = rle_compress_reference(&[vec![3u8; 700], vec![9u8; 3]].concat());
        assert_eq!(
            rle_decompress_reference(&rle).as_deref(),
            Ok(&[vec![3u8; 700], vec![9u8; 3]].concat()[..])
        );
    }
}
