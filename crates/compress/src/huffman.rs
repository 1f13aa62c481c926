//! Canonical Huffman coding over byte symbols, with a bit-level writer and
//! reader. Used by [`crate::gzipish`] as the entropy-coding stage on top of
//! the LZ77 token stream.
//!
//! # Decoding
//!
//! `HuffmanDecoder::decode_into`, the gzipish token loop, resolves most
//! symbols with one lookup: a primary table indexed by the next
//! `TABLE_BITS` (10) bits of the stream holds, for every code of at most
//! that many bits, the symbol and its length in each slot the code
//! prefixes. While 8 bytes remain it loads 64 bits at a time and takes up
//! to five hits from each load. A miss (a code longer than the table, or
//! bits no code starts with) and the stream's last bytes go one symbol at
//! a time through `HuffmanDecoder::decode`, the canonical per-length
//! loop, which reads one bit per step and is the only code that reports
//! an error. A prefix code has at most one code that prefixes any bit
//! string, so a hit consumes exactly the bits the loop would have matched,
//! and every `Ok` and every error (`Truncated` at the first missing bit,
//! `InvalidSymbol` after 15 unmatched bits) is the loop's own. No stream
//! byte depends on the table; the binary-search decoder in
//! [`crate::reference`] stays the oracle.

use crate::error::CompressError;

/// Maximum code length permitted (enough for 256 symbols with any
/// distribution after length limiting).
const MAX_CODE_LEN: usize = 15;

/// Bits indexing the decoder's primary table: codes up to this length
/// decode with one lookup, longer ones through the canonical loop.
const TABLE_BITS: u32 = 10;

/// A canonical Huffman code book for byte symbols 0..=255.
#[derive(Debug, Clone)]
pub struct HuffmanCode {
    /// Code length per symbol (0 = symbol absent).
    lengths: [u8; 256],
    /// Canonical code value per symbol.
    codes: [u16; 256],
}

impl HuffmanCode {
    /// Build a length-limited canonical Huffman code from symbol
    /// frequencies. Symbols with zero frequency get no code.
    pub(crate) fn from_frequencies(freq: &[u64; 256]) -> HuffmanCode {
        let mut lengths = [0u8; 256];
        let present: Vec<usize> = (0..256).filter(|&s| freq[s] > 0).collect();
        match present.len() {
            0 => {}
            1 => lengths[present[0]] = 1,
            _ => {
                assign_lengths(freq, &mut lengths);
                limit_lengths(&mut lengths, freq);
            }
        }
        let codes = canonical_codes(&lengths);
        HuffmanCode { lengths, codes }
    }

    /// Rebuild a code book from its per-symbol code lengths (the decoder
    /// side of the canonical construction). The lengths come from a stream
    /// header, so they are checked first: a length above `MAX_CODE_LEN`
    /// (15), or more codes than a prefix code of those lengths can hold
    /// (a Kraft sum above 1), is [`CompressError::BadHeader`] — no encoder
    /// writes either, and either would index or overflow the canonical
    /// construction.
    pub fn from_lengths(lengths: &[u8; 256]) -> Result<HuffmanCode, CompressError> {
        let mut kraft = 0u32;
        for &len in lengths {
            if len as usize > MAX_CODE_LEN {
                return Err(CompressError::BadHeader);
            }
            if len > 0 {
                kraft += 1 << (MAX_CODE_LEN - len as usize);
            }
        }
        if kraft > 1 << MAX_CODE_LEN {
            return Err(CompressError::BadHeader);
        }
        Ok(HuffmanCode {
            lengths: *lengths,
            codes: canonical_codes(lengths),
        })
    }

    /// Per-symbol code lengths (what gets stored in the stream header).
    pub fn lengths(&self) -> &[u8; 256] {
        &self.lengths
    }

    /// Canonical code value assigned to `symbol` (0 if the symbol has no
    /// code — check [`HuffmanCode::lengths`] to distinguish).
    pub(crate) fn code_of(&self, symbol: u8) -> u16 {
        self.codes[symbol as usize]
    }

    /// Encode one symbol into the bit writer.
    pub fn encode(&self, writer: &mut BitWriter, symbol: u8) {
        let len = self.lengths[symbol as usize];
        debug_assert!(len > 0, "encoding a symbol with no code");
        writer.write_bits(self.codes[symbol as usize] as u32, len as u32);
    }

    /// Build a decoding table: per-length canonical ranges over a flat
    /// symbol array (the classic count/first-code/first-index layout).
    pub(crate) fn decoder(&self) -> HuffmanDecoder {
        let mut entries: Vec<(u8, u16, u8)> = (0..256)
            .filter(|&s| self.lengths[s] > 0)
            .map(|s| (self.lengths[s], self.codes[s], s as u8))
            .collect();
        entries.sort();
        // Canonical construction assigns consecutive code values within each
        // length (in symbol order), so every length's codes form one
        // contiguous range — a membership test replaces the binary search.
        let mut count = [0u32; MAX_CODE_LEN + 1];
        let mut first_code = [0u32; MAX_CODE_LEN + 1];
        let mut first_index = [0u32; MAX_CODE_LEN + 1];
        let mut symbols = Vec::with_capacity(entries.len());
        // Every code of at most `TABLE_BITS` bits fills the slots it
        // prefixes: its bits left-aligned, any suffix after them.
        let mut table = [0u16; 1 << TABLE_BITS];
        for (i, &(len, code, sym)) in entries.iter().enumerate() {
            if u32::from(len) <= TABLE_BITS {
                let shift = TABLE_BITS - u32::from(len);
                let first = (code as usize) << shift;
                let entry = (u16::from(sym) << 8) | u16::from(len);
                table[first..first + (1 << shift)].fill(entry);
            }
            let len = len as usize;
            if count[len] == 0 {
                first_code[len] = code as u32;
                first_index[len] = i as u32;
            }
            count[len] += 1;
            symbols.push(sym);
        }
        HuffmanDecoder {
            table,
            count,
            first_code,
            first_index,
            symbols,
        }
    }
}

/// Assign Huffman code lengths by building the tree over a min-heap.
fn assign_lengths(freq: &[u64; 256], lengths: &mut [u8; 256]) {
    #[derive(PartialEq, Eq)]
    struct Node {
        weight: u64,
        index: usize, // into the nodes arena
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other
                .weight
                .cmp(&self.weight)
                .then_with(|| other.index.cmp(&self.index))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    // Arena of (left, right, symbol) — leaves have symbol = Some.
    let mut arena: Vec<(Option<usize>, Option<usize>, Option<usize>)> = Vec::new();
    let mut heap = std::collections::BinaryHeap::new();
    for (s, &weight) in freq.iter().enumerate() {
        if weight > 0 {
            arena.push((None, None, Some(s)));
            heap.push(Node {
                weight,
                index: arena.len() - 1,
            });
        }
    }
    // Merge the two lightest nodes until one is left: the root. With no
    // symbol present there is no tree and no length to assign.
    let mut root = None;
    while let Some(a) = heap.pop() {
        let Some(b) = heap.pop() else {
            root = Some(a.index);
            break;
        };
        arena.push((Some(a.index), Some(b.index), None));
        heap.push(Node {
            weight: a.weight + b.weight,
            index: arena.len() - 1,
        });
    }
    let Some(root) = root else {
        return;
    };
    // Depth-first traversal assigning depths as code lengths.
    let mut stack = vec![(root, 0u8)];
    while let Some((node, depth)) = stack.pop() {
        let (l, r, sym) = arena[node];
        if let Some(s) = sym {
            lengths[s] = depth.max(1);
        } else {
            if let Some(l) = l {
                stack.push((l, depth + 1));
            }
            if let Some(r) = r {
                stack.push((r, depth + 1));
            }
        }
    }
}

/// Limit code lengths to MAX_CODE_LEN using the simple "push down" heuristic
/// and rebuild a valid Kraft-satisfying set of lengths.
fn limit_lengths(lengths: &mut [u8; 256], freq: &[u64; 256]) {
    if lengths.iter().all(|&l| (l as usize) <= MAX_CODE_LEN) {
        return;
    }
    // Fall back to a flat assignment ordered by frequency: give the most
    // frequent symbols the shortest codes subject to the Kraft inequality.
    let mut symbols: Vec<usize> = (0..256).filter(|&s| freq[s] > 0).collect();
    symbols.sort_by_key(|&s| std::cmp::Reverse(freq[s]));
    let n = symbols.len();
    let min_len = (n as f64).log2().ceil() as u8;
    for &s in &symbols {
        lengths[s] = min_len.clamp(1, MAX_CODE_LEN as u8);
    }
}

/// Compute canonical code values from code lengths.
fn canonical_codes(lengths: &[u8; 256]) -> [u16; 256] {
    let mut codes = [0u16; 256];
    // Count codes of each length.
    let mut bl_count = [0u16; MAX_CODE_LEN + 1];
    for &l in lengths.iter() {
        if l > 0 {
            bl_count[l as usize] += 1;
        }
    }
    // Smallest code for each length.
    let mut next_code = [0u16; MAX_CODE_LEN + 2];
    let mut code = 0u16;
    for bits in 1..=MAX_CODE_LEN {
        code = (code + bl_count[bits - 1]) << 1;
        next_code[bits] = code;
    }
    // Assign codes in symbol order (canonical).
    for s in 0..256 {
        let len = lengths[s] as usize;
        if len > 0 {
            codes[s] = next_code[len];
            next_code[len] += 1;
        }
    }
    codes
}

/// Decoder built from a canonical code book: a primary lookup table for
/// codes of up to `TABLE_BITS` (10) bits, over the canonical per-length
/// ranges (the classic count/first-code/first-index layout) that decode
/// everything else and report every error (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct HuffmanDecoder {
    /// Indexed by the next `TABLE_BITS` bits: `symbol << 8 | length` of the
    /// code those bits start with, or 0 when no code of at most
    /// `TABLE_BITS` bits does.
    table: [u16; 1 << TABLE_BITS],
    /// Number of codes of each length.
    count: [u32; MAX_CODE_LEN + 1],
    /// Smallest code value of each length.
    first_code: [u32; MAX_CODE_LEN + 1],
    /// Index into `symbols` of the first code of each length.
    first_index: [u32; MAX_CODE_LEN + 1],
    /// Symbols sorted by (length, code).
    symbols: Vec<u8>,
}

impl HuffmanDecoder {
    /// Decode one symbol from the bit reader with the canonical per-length
    /// loop: one bit per step, each length's codes one contiguous range.
    /// Consumes exactly the bits of one code; errors with `Truncated` at
    /// the first missing bit and with `InvalidSymbol` after `MAX_CODE_LEN`
    /// unmatched bits (identical positions to the preserved binary-search
    /// decoder in [`crate::reference`]).
    pub fn decode(&self, reader: &mut BitReader) -> Result<u8, CompressError> {
        let mut code = 0u32;
        for len in 1..=MAX_CODE_LEN {
            code = (code << 1) | reader.read_bits(1)?;
            let n = self.count[len];
            let first = self.first_code[len];
            if n > 0 && code >= first && code - first < n {
                let idx = self.first_index[len] + (code - first);
                return Ok(self.symbols[idx as usize]);
            }
        }
        Err(CompressError::InvalidSymbol)
    }

    /// Decode `count` symbols onto `out`: the same symbols, and the same
    /// first error, as `count` calls to [`HuffmanDecoder::decode`]. While
    /// 8 bytes remain, one 64-bit load serves up to five table hits (at
    /// most 50 of its 57 or more bits); a miss, and the stream's last
    /// bytes, take one symbol through `decode`.
    pub(crate) fn decode_into(
        &self,
        reader: &mut BitReader,
        count: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CompressError> {
        let mut left = count;
        while left > 0 {
            let mut hits = 0;
            if let Some(mut word) = reader.peek64() {
                let mut used = 0;
                while hits < left.min(5) {
                    let entry = self.table[(word >> (64 - TABLE_BITS)) as usize];
                    if entry == 0 {
                        break;
                    }
                    let len = u32::from(entry & 0xFF);
                    out.push((entry >> 8) as u8);
                    word <<= len;
                    used += len;
                    hits += 1;
                }
                reader.consume(used);
                left -= hits;
            }
            if hits == 0 {
                out.push(self.decode(reader)?);
                left -= 1;
            }
        }
        Ok(())
    }
}

/// MSB-first bit writer with a word accumulator: bits pile up in a `u64`
/// and drain a whole byte at a time, producing byte-for-byte the same
/// output as the preserved bit-at-a-time writer in [`crate::reference`]
/// (including the zero-padded final byte).
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits; only the low `nbits` are meaningful.
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write the low `count` bits of `value`, most significant bit first.
    pub(crate) fn write_bits(&mut self, value: u32, count: u32) {
        debug_assert!(count <= 32);
        // `nbits` stays < 8 between calls, so the shift below tops out at
        // 7 + 32 = 39 meaningful bits — no overflow. Stale bits above
        // `nbits` fall off the top of the accumulator harmlessly.
        let mask = if count == 32 {
            u32::MAX as u64
        } else {
            (1u64 << count) - 1
        };
        self.acc = (self.acc << count) | (value as u64 & mask);
        self.nbits += count;
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.bytes.push((self.acc >> self.nbits) as u8);
        }
    }

    /// Finish writing and return the byte buffer, zero-padding the final
    /// partial byte (if any) on the right.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            let tail = (self.acc as u8) & ((1u16 << self.nbits) - 1) as u8;
            self.bytes.push(tail << (8 - self.nbits));
        }
        self.bytes
    }
}

/// MSB-first bit reader.
#[derive(Debug)]
pub(crate) struct BitReader<'a> {
    bytes: &'a [u8],
    byte_pos: usize,
    bit_pos: u8,
}

impl<'a> BitReader<'a> {
    /// Create a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            byte_pos: 0,
            bit_pos: 0,
        }
    }

    /// The next bits, MSB first, left-aligned in a `u64` whose low
    /// `bit_pos` bits are zero: at least 57 of them are the stream's.
    /// `None` when fewer than 8 bytes remain at the cursor.
    #[inline]
    pub(crate) fn peek64(&self) -> Option<u64> {
        let word = self.bytes.get(self.byte_pos..self.byte_pos + 8)?;
        Some(u64::from_be_bytes(word.try_into().ok()?) << self.bit_pos)
    }

    /// Skip `count` bits that `peek64` showed to be present.
    #[inline]
    pub(crate) fn consume(&mut self, count: u32) {
        let pos = u32::from(self.bit_pos) + count;
        self.byte_pos += (pos >> 3) as usize;
        self.bit_pos = (pos & 7) as u8;
    }

    /// Read `count` bits (MSB first) as the low bits of the returned value.
    /// Consumes whatever remains of the current byte in one step rather than
    /// bit by bit; reader state after a `Truncated` error is the same as the
    /// per-bit loop's (all available bits consumed).
    pub(crate) fn read_bits(&mut self, count: u32) -> Result<u32, CompressError> {
        let mut value = 0u32;
        let mut remaining = count;
        while remaining > 0 {
            if self.byte_pos >= self.bytes.len() {
                return Err(CompressError::Truncated);
            }
            let avail = 8 - self.bit_pos as u32;
            let take = remaining.min(avail);
            let byte = self.bytes[self.byte_pos] as u32;
            let bits = (byte >> (avail - take)) & ((1u32 << take) - 1);
            value = (value << take) | bits;
            self.bit_pos += take as u8;
            if self.bit_pos == 8 {
                self.bit_pos = 0;
                self.byte_pos += 1;
            }
            remaining -= take;
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frequencies(data: &[u8]) -> [u64; 256] {
        let mut f = [0u64; 256];
        for &b in data {
            f[b as usize] += 1;
        }
        f
    }

    #[test]
    fn bit_writer_reader_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0b1111_0000, 8);
        w.write_bits(1, 1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(8).unwrap(), 0b1111_0000);
        assert_eq!(r.read_bits(1).unwrap(), 1);
    }

    #[test]
    fn reader_detects_truncation() {
        let mut r = BitReader::new(&[0xFF]);
        assert!(r.read_bits(8).is_ok());
        assert_eq!(r.read_bits(1).unwrap_err(), CompressError::Truncated);
    }

    #[test]
    fn huffman_round_trips_text() {
        let data = b"compression ratios depend on repetition repetition repetition";
        let code = HuffmanCode::from_frequencies(&frequencies(data));
        let mut w = BitWriter::new();
        for &b in data.iter() {
            code.encode(&mut w, b);
        }
        let bytes = w.finish();
        let decoder = code.decoder();
        let mut r = BitReader::new(&bytes);
        let decoded: Vec<u8> = (0..data.len())
            .map(|_| decoder.decode(&mut r).unwrap())
            .collect();
        assert_eq!(decoded, data);
        // The entropy-coded form of skewed text must be smaller than raw.
        assert!(bytes.len() < data.len());
    }

    #[test]
    fn code_lengths_survive_canonical_reconstruction() {
        let data = b"aaaaaaaaaabbbbbcccdde";
        let code = HuffmanCode::from_frequencies(&frequencies(data));
        let rebuilt = HuffmanCode::from_lengths(code.lengths()).unwrap();
        let mut w1 = BitWriter::new();
        let mut w2 = BitWriter::new();
        for &b in data.iter() {
            code.encode(&mut w1, b);
            rebuilt.encode(&mut w2, b);
        }
        assert_eq!(w1.finish(), w2.finish());
    }

    #[test]
    fn frequent_symbols_get_shorter_codes() {
        let mut freq = [0u64; 256];
        freq[b'a' as usize] = 1000;
        freq[b'z' as usize] = 1;
        freq[b'q' as usize] = 1;
        freq[b'x' as usize] = 1;
        let code = HuffmanCode::from_frequencies(&freq);
        assert!(code.lengths()[b'a' as usize] <= code.lengths()[b'z' as usize]);
    }

    #[test]
    fn single_symbol_alphabet() {
        let mut freq = [0u64; 256];
        freq[42] = 17;
        let code = HuffmanCode::from_frequencies(&freq);
        assert_eq!(code.lengths()[42], 1);
        let mut w = BitWriter::new();
        for _ in 0..17 {
            code.encode(&mut w, 42);
        }
        let bytes = w.finish();
        let decoder = code.decoder();
        let mut r = BitReader::new(&bytes);
        for _ in 0..17 {
            assert_eq!(decoder.decode(&mut r).unwrap(), 42);
        }
    }

    /// A Kraft-complete code of lengths 1..=15 plus a second 15, an
    /// incomplete one (lengths 2, 3, 10 and 12: most bit strings start no
    /// code), and 256 codes of 9 and 10 bits (six of them fill a 64-bit
    /// load at every bit offset): codes on both sides of the decoder's
    /// table width.
    fn edge_code_books() -> [HuffmanCode; 3] {
        let mut complete = [0u8; 256];
        for (len, slot) in (1..=15).zip(&mut complete[..15]) {
            *slot = len;
        }
        complete[15] = 15;
        let mut sparse = [0u8; 256];
        sparse[7] = 2;
        sparse[9] = 3;
        sparse[100] = 10;
        sparse[200] = 12;
        let wide: [u8; 256] = std::array::from_fn(|s| 9 + (s % 2) as u8);
        [complete, sparse, wide].map(|lengths| HuffmanCode::from_lengths(&lengths).unwrap())
    }

    #[test]
    fn table_hits_consume_what_the_canonical_loop_would() {
        // Every 16-bit window, entered at every bit offset with a full
        // 64-bit load behind it (so the table path runs), decodes to the
        // same result and cursor through one symbol of `decode_into` and
        // through `decode`.
        for decoder in edge_code_books().map(|code| code.decoder()) {
            for window in 0..=u16::MAX {
                let [hi, lo] = window.to_be_bytes();
                let bytes = [hi, lo, 0xA5, 0x5A, 0x3C, 0xC3, 0x96, 0x69, 0xF0];
                for skip in 0..8 {
                    let mut fast = BitReader::new(&bytes);
                    let mut slow = BitReader::new(&bytes);
                    fast.read_bits(skip).unwrap();
                    slow.read_bits(skip).unwrap();
                    let mut out = Vec::new();
                    assert_eq!(
                        decoder.decode_into(&mut fast, 1, &mut out).map(|()| out[0]),
                        decoder.decode(&mut slow),
                        "window {window:#06x}, {skip} bits in"
                    );
                    assert_eq!((fast.byte_pos, fast.bit_pos), (slow.byte_pos, slow.bit_pos));
                }
            }
        }
    }

    #[test]
    fn decode_into_is_count_calls_to_decode() {
        // Under each edge code book: noise streams of 0..48 bytes decoded
        // for every symbol count up to past their end, and the codes of
        // 6 000 random symbols (runs of table hits that fill whole 8-byte
        // loads at every bit offset), cut short or not, decoded for that
        // many symbols and one more. Both give the same symbols, the same
        // first error and the same cursor as `decode` called `count` times.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let check = |decoder: &HuffmanDecoder, bytes: &[u8], count: usize| {
            let mut fast = BitReader::new(bytes);
            let mut fast_out = Vec::new();
            let fast_result = decoder.decode_into(&mut fast, count, &mut fast_out);
            let mut slow = BitReader::new(bytes);
            let mut slow_out = Vec::new();
            let slow_result =
                (0..count).try_for_each(|_| decoder.decode(&mut slow).map(|s| slow_out.push(s)));
            assert_eq!(
                fast_result,
                slow_result,
                "{} bytes, {count} symbols",
                bytes.len()
            );
            assert_eq!(fast_out, slow_out);
            assert_eq!((fast.byte_pos, fast.bit_pos), (slow.byte_pos, slow.bit_pos));
        };
        for code in edge_code_books() {
            let decoder = code.decoder();
            for len in 0..48 {
                let noise: Vec<u8> = (0..len).map(|_| next() as u8).collect();
                for count in 0..=len * 8 + 2 {
                    check(&decoder, &noise, count);
                }
            }
            let present: Vec<u8> = (0..=255u8)
                .filter(|&s| code.lengths()[s as usize] > 0)
                .collect();
            let mut writer = BitWriter::new();
            for _ in 0..6000 {
                code.encode(&mut writer, present[next() as usize % present.len()]);
            }
            let coded = writer.finish();
            for cut in [coded.len(), coded.len() - 1, coded.len() / 2] {
                check(&decoder, &coded[..cut], 6000);
                check(&decoder, &coded[..cut], 6001);
            }
        }
    }

    #[test]
    fn all_256_symbols_round_trip() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let code = HuffmanCode::from_frequencies(&frequencies(&data));
        let mut w = BitWriter::new();
        for &b in &data {
            code.encode(&mut w, b);
        }
        let bytes = w.finish();
        let decoder = code.decoder();
        let mut r = BitReader::new(&bytes);
        for &b in &data {
            assert_eq!(decoder.decode(&mut r).unwrap(), b);
        }
    }
}
