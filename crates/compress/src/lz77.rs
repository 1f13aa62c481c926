//! Shared LZ77 matcher used by the gzip-, lz4- and snappy-style codecs.
//!
//! Matching uses a hash table over 4-byte prefixes with a configurable
//! search window and chain depth; the three codecs differ only in window
//! size, how hard they search and how they serialise the token stream.
//!
//! The matcher is built for throughput but pinned **token-for-token** to the
//! byte-at-a-time oracle in [`crate::reference`]:
//!
//! * the head/prev hash-chain table is a flattened pair of `u32` vectors
//!   owned by a reusable `Tokenizer`, allocated once per compress call and
//!   reused across every block the serialiser emits;
//! * match extension compares eight bytes per step — a `u64` load from each
//!   side, XOR, and `trailing_zeros() / 8` to locate the first mismatching
//!   byte — with a byte-at-a-time tail for the last `< 8` bytes, so the
//!   computed length equals the byte loop's exactly;
//! * a one-byte probe at `data[candidate + best_len]` rejects chain
//!   candidates that cannot beat the current best match (any candidate
//!   differing there has length `<= best_len`), which skips the extension
//!   work without ever changing which candidate wins.
//!
//! Everything is safe Rust: word loads go through `copy_from_slice` into an
//! 8-byte array, and every load is bounds-guaranteed by the `len + 8 <=
//! max_len` loop condition (see the safety notes on `match_len`).

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A literal byte copied verbatim.
    Literal(u8),
    /// A back-reference: copy `len` bytes starting `offset` bytes before the
    /// current output position.
    Match {
        /// Distance back from the current position (1-based).
        offset: u32,
        /// Number of bytes to copy (>= MIN_MATCH).
        len: u32,
    },
}

/// Minimum match length worth emitting.
pub(crate) const MIN_MATCH: usize = 4;

/// Parameters of the matcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatcherParams {
    /// Maximum back-reference distance.
    pub window: usize,
    /// Maximum match length.
    pub max_match: usize,
    /// Maximum number of hash-chain candidates examined per position
    /// (higher = better matches, slower compression).
    pub max_chain: usize,
}

impl MatcherParams {
    /// Thorough matching (gzip-like): deep hash chains and the full
    /// 16-bit-addressable window, so its match coverage is never worse than
    /// the fast profile's before entropy coding is even applied.
    pub fn thorough() -> Self {
        MatcherParams {
            window: u16::MAX as usize,
            max_match: 258,
            max_chain: 128,
        }
    }

    /// Fast matching (lz4-like): 64 KiB window, shallow chains. The window
    /// is capped at `u16::MAX` so offsets always fit the 2-byte encoding
    /// used by the byte-oriented codecs.
    pub fn fast() -> Self {
        MatcherParams {
            window: u16::MAX as usize,
            max_match: 255,
            max_chain: 8,
        }
    }

    /// Very fast matching (snappy-like): small window, single candidate.
    pub fn fastest() -> Self {
        MatcherParams {
            window: 8 * 1024,
            max_match: 64,
            max_chain: 1,
        }
    }
}

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let mut buf = [0u8; 4];
    buf.copy_from_slice(&data[i..i + 4]);
    let v = u32::from_le_bytes(buf);
    (v.wrapping_mul(2654435761) >> 16) as usize & 0xFFFF
}

#[inline]
fn read_u64_le(data: &[u8], at: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&data[at..at + 8]);
    u64::from_le_bytes(buf)
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, capped at
/// `max_len`, computed eight bytes per step.
///
/// Safety of the word loads (all safe Rust, but the bounds reasoning is what
/// keeps the `copy_from_slice` calls panic-free): the callers guarantee
/// `a < b` and `b + max_len <= data.len()`. Inside the word loop
/// `len + 8 <= max_len`, so `b + len + 8 <= b + max_len <= data.len()` and
/// `a + len + 8 < b + len + 8 <= data.len()`. On a word mismatch the first
/// differing byte sits at `(x ^ y).trailing_zeros() / 8` in little-endian
/// order, which is exactly where the byte loop would have stopped.
#[inline]
fn match_len(data: &[u8], a: usize, b: usize, max_len: usize) -> usize {
    let mut len = 0usize;
    while len + 8 <= max_len {
        let x = read_u64_le(data, a + len);
        let y = read_u64_le(data, b + len);
        if x != y {
            return len + ((x ^ y).trailing_zeros() >> 3) as usize;
        }
        len += 8;
    }
    while len < max_len && data[a + len] == data[b + len] {
        len += 1;
    }
    len
}

/// Sentinel for an empty hash-chain slot (`u32` table entries).
const NIL: u32 = u32::MAX;

/// Receiver of the tokenizer's streaming output: one literal run (possibly
/// empty) followed by an optional match per callback — exactly the block
/// shape the byte-oriented codecs serialise.
pub(crate) trait TokenSink {
    /// One block: the literals `data[lit_start..lit_end]` followed by
    /// `m = Some((offset, len))`, or the trailing literal-only block
    /// (`m = None`, emitted exactly once at end of stream).
    fn block(&mut self, data: &[u8], lit_start: usize, lit_end: usize, m: Option<(u32, u32)>);
}

/// Streaming LZ77 tokenizer owning the flattened head/prev hash-chain
/// table, so one allocation serves every block of a compress call.
#[derive(Debug, Default)]
pub(crate) struct Tokenizer {
    /// head[h] = most recent position with hash h (NIL = empty).
    head: Vec<u32>,
    /// prev[i] = previous position with the same hash as position i. Only
    /// slots written by an insertion are ever read, so the vector is
    /// zero-filled rather than NIL-filled on reset.
    prev: Vec<u32>,
}

impl Tokenizer {
    /// Create a tokenizer with empty tables (grown on first use).
    pub fn new() -> Self {
        Tokenizer::default()
    }

    /// Reset the chain table for an input of `n` bytes, reusing the
    /// allocations from previous calls.
    fn reset(&mut self, n: usize) {
        if self.head.is_empty() {
            self.head = vec![NIL; 1 << 16];
        } else {
            self.head.fill(NIL);
        }
        self.prev.clear();
        self.prev.resize(n, 0);
    }

    /// Tokenise `data`, streaming blocks into `sink`. Token-for-token
    /// identical to [`crate::reference::tokenize_reference`]: same hash,
    /// same chain walk order, same first-strictly-longer selection rule,
    /// same skipped-position insertion.
    pub(crate) fn tokenize_into<S: TokenSink>(
        &mut self,
        data: &[u8],
        params: &MatcherParams,
        sink: &mut S,
    ) {
        let n = data.len();
        if n < MIN_MATCH || n > NIL as usize {
            // Tiny inputs are all literals; inputs beyond u32 positions
            // (never hit in practice) would overflow the flattened table.
            debug_assert!(n <= NIL as usize, "input too large for u32 chain table");
            sink.block(data, 0, n, None);
            return;
        }
        self.reset(n);
        let mut lit_start = 0usize;
        let mut i = 0usize;
        // Positions n - MIN_MATCH + 1 .. n can't start a match; the
        // reference emits them as literals, which the trailing block covers.
        let last = n - MIN_MATCH + 1;
        while i < last {
            let h = hash4(data, i);
            let max_len = (n - i).min(params.max_match);
            let mut best_len = 0usize;
            let mut best_offset = 0usize;
            let mut candidate = self.head[h];
            let mut chain = 0usize;
            while candidate != NIL
                && chain < params.max_chain
                && i - candidate as usize <= params.window
            {
                let c = candidate as usize;
                // Probe the byte a winning candidate must match: any
                // candidate differing at best_len has length <= best_len
                // and can never update the best, so skipping its extension
                // leaves the selection unchanged. (When i + best_len == n
                // the best already spans to the end and nothing can beat
                // it.)
                if best_len == 0 || (i + best_len < n && data[c + best_len] == data[i + best_len]) {
                    let len = match_len(data, c, i, max_len);
                    if len > best_len {
                        best_len = len;
                        best_offset = i - c;
                        if len >= params.max_match {
                            break;
                        }
                    }
                }
                candidate = self.prev[c];
                chain += 1;
            }
            // Insert the current position into the chain.
            self.prev[i] = self.head[h];
            self.head[h] = i as u32;

            if best_len >= MIN_MATCH {
                sink.block(
                    data,
                    lit_start,
                    i,
                    Some((best_offset as u32, best_len as u32)),
                );
                // Insert the skipped positions so later matches can
                // reference them.
                let end = (i + best_len).min(last);
                let mut j = i + 1;
                while j < end {
                    let hj = hash4(data, j);
                    self.prev[j] = self.head[hj];
                    self.head[hj] = j as u32;
                    j += 1;
                }
                i += best_len;
                lit_start = i;
            } else {
                i += 1;
            }
        }
        // Trailing literal-only block (always emitted, possibly empty).
        sink.block(data, lit_start, n, None);
    }
}

/// Sink that materialises the token stream as a `Vec<Token>`.
struct TokenVecSink {
    tokens: Vec<Token>,
}

impl TokenSink for TokenVecSink {
    fn block(&mut self, data: &[u8], lit_start: usize, lit_end: usize, m: Option<(u32, u32)>) {
        self.tokens
            .extend(data[lit_start..lit_end].iter().map(|&b| Token::Literal(b)));
        if let Some((offset, len)) = m {
            self.tokens.push(Token::Match { offset, len });
        }
    }
}

/// Tokenise `data` into literals and matches.
pub fn tokenize(data: &[u8], params: &MatcherParams) -> Vec<Token> {
    let mut sink = TokenVecSink {
        tokens: Vec::with_capacity(data.len() / 2 + 16),
    };
    Tokenizer::new().tokenize_into(data, params, &mut sink);
    sink.tokens
}

/// Reconstruct the original bytes from a token stream.
///
/// Returns `None` if a back-reference is invalid (points before the start of
/// the output).
pub fn detokenize(tokens: &[Token]) -> Option<Vec<u8>> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::tokenize_reference;

    #[test]
    fn round_trip_repetitive_data() {
        let data = b"the quick brown fox jumps over the lazy dog. ".repeat(50);
        for params in [
            MatcherParams::thorough(),
            MatcherParams::fast(),
            MatcherParams::fastest(),
        ] {
            let tokens = tokenize(&data, &params);
            assert_eq!(detokenize(&tokens).unwrap(), data);
            // Repetitive data must produce matches.
            assert!(tokens.iter().any(|t| matches!(t, Token::Match { .. })));
        }
    }

    #[test]
    fn round_trip_short_and_empty_inputs() {
        for data in [&b""[..], &b"a"[..], &b"ab"[..], &b"abc"[..]] {
            let tokens = tokenize(data, &MatcherParams::thorough());
            assert_eq!(detokenize(&tokens).unwrap(), data);
            assert!(tokens.iter().all(|t| matches!(t, Token::Literal(_))));
        }
    }

    #[test]
    fn incompressible_data_is_mostly_literals() {
        // A pseudo-random byte sequence with no 4-byte repeats.
        let mut data = Vec::with_capacity(2048);
        let mut x: u64 = 0x12345678;
        for _ in 0..2048 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            data.push((x & 0xFF) as u8);
        }
        let tokens = tokenize(&data, &MatcherParams::thorough());
        let literals = tokens
            .iter()
            .filter(|t| matches!(t, Token::Literal(_)))
            .count();
        assert!(literals as f64 / tokens.len() as f64 > 0.9);
        assert_eq!(detokenize(&tokens).unwrap(), data);
    }

    #[test]
    fn thorough_matching_finds_fewer_tokens_than_fastest() {
        let data = b"abcdefgh".repeat(300);
        let thorough = tokenize(&data, &MatcherParams::thorough());
        let fastest = tokenize(&data, &MatcherParams::fastest());
        assert!(thorough.len() <= fastest.len());
    }

    #[test]
    fn overlapping_match_is_handled() {
        // "aaaaaaaa..." produces matches whose length exceeds their offset
        // (the classic overlapping-copy case).
        let data = vec![b'a'; 500];
        let tokens = tokenize(&data, &MatcherParams::fast());
        assert_eq!(detokenize(&tokens).unwrap(), data);
    }

    #[test]
    fn invalid_backreference_detected() {
        let tokens = vec![Token::Match { offset: 5, len: 3 }];
        assert!(detokenize(&tokens).is_none());
        let tokens = vec![Token::Literal(1), Token::Match { offset: 0, len: 3 }];
        assert!(detokenize(&tokens).is_none());
    }

    #[test]
    fn word_kernel_matches_reference_tokens_on_structured_data() {
        // Runs, periodic data, text, and a word-boundary-straddling tail:
        // the token streams must be identical, not merely equivalent.
        let mut cases: Vec<Vec<u8>> = vec![
            vec![b'x'; 1000],
            b"abcd".repeat(700),
            b"0123456".repeat(300),
            b"select l_returnflag from lineitem where l_ship < 17; ".repeat(40),
            (0u32..3000).flat_map(|i| i.to_le_bytes()).collect(),
        ];
        let mut x: u64 = 0xDEADBEEF;
        let mut random = Vec::with_capacity(4096);
        for _ in 0..4096 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            random.push((x & 0xFF) as u8);
        }
        cases.push(random);
        for data in &cases {
            for params in [
                MatcherParams::thorough(),
                MatcherParams::fast(),
                MatcherParams::fastest(),
            ] {
                assert_eq!(
                    tokenize(data, &params),
                    tokenize_reference(data, &params),
                    "params {params:?} len {}",
                    data.len()
                );
            }
        }
    }

    #[test]
    fn tokenizer_table_is_reusable_across_calls() {
        let mut tk = Tokenizer::new();
        let a = b"hello hello hello hello".repeat(30);
        let b = b"different bytes, different chains. ".repeat(30);
        for data in [&a, &b, &a] {
            let mut sink = TokenVecSink { tokens: Vec::new() };
            tk.tokenize_into(data, &MatcherParams::fast(), &mut sink);
            assert_eq!(
                sink.tokens,
                tokenize_reference(data, &MatcherParams::fast())
            );
        }
    }
}
