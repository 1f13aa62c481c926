//! Differential pins for the PR-7 word-level codec kernels: the production
//! block-streaming paths (word match extension, wild-copy decode, word-run
//! RLE, accumulator bit I/O, table-driven Huffman decode) must produce
//! **byte-for-byte identical compressed streams and error values** — not
//! just round-trip success — against the preserved byte-at-a-time oracles
//! in `scope_compress::reference`, on adversarial inputs: long runs,
//! short-period repetition, incompressible noise, inputs shorter than one
//! machine word, and matches straddling block boundaries.
//!
//! The gzipish decoder resolves short codes through a lookup table and the
//! rest through the canonical per-length loop, so the last proptests draw
//! code books on both sides of the table width (and incomplete ones, where
//! bits can match no code) under arbitrary bodies, and feed arbitrary bytes
//! to every scheme's decoder.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scope_compress::huffman::{BitWriter, HuffmanCode};
use scope_compress::lz77::{detokenize, tokenize, MatcherParams};
use scope_compress::reference::{
    detokenize_reference, gzipish_compress_reference, gzipish_decompress_reference,
    lz4ish_compress_reference, lz4ish_decompress_reference, rle_compress_reference,
    rle_decompress_reference, tokenize_reference,
};
use scope_compress::{
    Codec, CompressError, CompressionScheme, GzipishCodec, Lz4ishCodec, RleCodec, SnappyishCodec,
};

/// Inputs chosen to stress each kernel's edge: sub-word tails, run
/// boundaries at 255/256, periodicity equal to `MIN_MATCH`, block-boundary
/// straddles (literal runs ≥ 15 and ≥ 270 exercise the varlen escapes) and
/// pure noise (no matches at all).
fn adversarial_inputs() -> Vec<Vec<u8>> {
    let mut rng = SmallRng::seed_from_u64(0x7eed);
    let noise = |n: usize, rng: &mut SmallRng| -> Vec<u8> {
        (0..n).map(|_| rng.gen_range(0u32..256) as u8).collect()
    };
    let mut inputs = vec![
        vec![],
        b"a".to_vec(),
        b"abcdefg".to_vec(), // shorter than one word
        b"abcdefgh".to_vec(),
        vec![0u8; 7],
        vec![0u8; 8],
        vec![0xAB; 255],
        vec![0xAB; 256],
        vec![0xAB; 70_000],             // run longer than a 64 KiB window
        b"abcd".repeat(2000),           // 4-byte period == MIN_MATCH
        b"abc".repeat(2000),            // period below MIN_MATCH
        b"0123456789ABCDE".repeat(600), // 15-byte period, literal-run escapes
        noise(5000, &mut rng),          // incompressible
    ];
    // A match whose source starts just before a literal-run boundary and
    // extends across it: noise prefix, then a repeat of a slice that spans
    // the prefix/pattern seam.
    let mut straddle = noise(300, &mut rng);
    let seam = straddle[280..300].to_vec();
    straddle.extend_from_slice(&seam);
    straddle.extend_from_slice(&seam);
    straddle.extend(noise(40, &mut rng));
    inputs.push(straddle);
    // Long literal run (> 270, two varlen escape bytes) followed by a
    // highly compressible tail.
    let mut mixed = noise(600, &mut rng);
    mixed.extend(b"xyzw".repeat(500));
    inputs.push(mixed);
    inputs
}

fn all_params() -> [MatcherParams; 3] {
    [
        MatcherParams::thorough(),
        MatcherParams::fast(),
        MatcherParams::fastest(),
    ]
}

#[test]
fn tokenizer_is_bit_identical_to_reference_on_adversarial_inputs() {
    for data in adversarial_inputs() {
        for params in all_params() {
            let fast = tokenize(&data, &params);
            let slow = tokenize_reference(&data, &params);
            assert_eq!(fast, slow, "tokens diverge on {} bytes", data.len());
            assert_eq!(
                detokenize(&fast),
                detokenize_reference(&slow),
                "detokenize diverges on {} bytes",
                data.len()
            );
        }
    }
}

#[test]
fn codec_streams_are_byte_identical_to_reference_on_adversarial_inputs() {
    for data in adversarial_inputs() {
        // lz4ish under every matcher effort (fastest == the snappyish
        // configuration).
        for params in all_params() {
            let fast = Lz4ishCodec::with_params(params).compress(&data);
            let slow = lz4ish_compress_reference(&data, &params);
            assert_eq!(fast, slow, "lz4ish stream diverges on {} bytes", data.len());
            assert_eq!(lz4ish_decompress_reference(&fast).as_deref(), Ok(&data[..]));
            let gz_fast = GzipishCodec::with_params(params).compress(&data);
            let gz_slow = gzipish_compress_reference(&data, &params);
            assert_eq!(
                gz_fast,
                gz_slow,
                "gzipish stream diverges on {} bytes",
                data.len()
            );
            assert_eq!(
                gzipish_decompress_reference(&gz_fast).as_deref(),
                Ok(&data[..])
            );
        }
        // The default-profile codecs (snappyish shares the lz4ish stream).
        let sn = SnappyishCodec::default();
        assert_eq!(sn.decompress(&sn.compress(&data)).as_deref(), Ok(&data[..]));
        let rle_fast = RleCodec.compress(&data);
        let rle_slow = rle_compress_reference(&data);
        assert_eq!(
            rle_fast,
            rle_slow,
            "rle stream diverges on {} bytes",
            data.len()
        );
        assert_eq!(
            rle_decompress_reference(&rle_fast).as_deref(),
            Ok(&data[..])
        );
        assert_eq!(RleCodec.decompress(&rle_fast).as_deref(), Ok(&data[..]));
    }
}

/// Truncations and single-byte corruptions must fail (or succeed) with the
/// exact same `CompressError` values on the fast and reference decoders.
#[test]
fn corrupted_streams_error_identically_on_fast_and_reference_paths() {
    let data = b"block boundary straddle straddle straddle 0123456789".repeat(40);
    let lz = Lz4ishCodec::default().compress(&data);
    for cut in [0, 3, 4, 11, 12, 13, lz.len() / 2, lz.len() - 1] {
        let t = &lz[..cut];
        assert_eq!(
            Lz4ishCodec::default().decompress(t),
            lz4ish_decompress_reference(t),
            "lz4ish truncation at {cut}"
        );
    }
    let mut rng = SmallRng::seed_from_u64(9);
    for _ in 0..40 {
        let mut bad = lz.clone();
        let i = rng.gen_range(0..bad.len());
        bad[i] ^= 1 << rng.gen_range(0u32..8);
        assert_eq!(
            Lz4ishCodec::default().decompress(&bad),
            lz4ish_decompress_reference(&bad),
            "lz4ish corruption at byte {i}"
        );
    }

    let gz = GzipishCodec::default().compress(&data);
    for cut in [0, 4, 11, 270, 276, gz.len() / 2, gz.len() - 1] {
        let t = &gz[..cut.min(gz.len())];
        assert_eq!(
            GzipishCodec::default().decompress(t),
            gzipish_decompress_reference(t),
            "gzipish truncation at {cut}"
        );
    }
    for _ in 0..40 {
        let mut bad = gz.clone();
        let i = rng.gen_range(0..bad.len());
        bad[i] ^= 1 << rng.gen_range(0u32..8);
        assert_eq!(
            GzipishCodec::default().decompress(&bad),
            gzipish_decompress_reference(&bad),
            "gzipish corruption at byte {i}"
        );
    }

    let rle = RleCodec.compress(&[vec![5u8; 700], b"abc".to_vec()].concat());
    for cut in [0, 5, 12, 13, 14, rle.len() - 1] {
        let t = &rle[..cut];
        assert_eq!(
            RleCodec.decompress(t),
            rle_decompress_reference(t),
            "rle truncation at {cut}"
        );
    }
    for i in 0..rle.len() {
        let mut bad = rle.clone();
        bad[i] = 0;
        assert_eq!(
            RleCodec.decompress(&bad),
            rle_decompress_reference(&bad),
            "rle zeroed byte {i}"
        );
    }
}

/// Random byte soups drawn from alphabets of very different entropy: small
/// alphabets force long matches and runs, large ones force literal-heavy
/// streams. The fast and reference pipelines must agree byte for byte.
fn random_soup(len: usize, alphabet: u8, seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|_| rng.gen_range(0u32..alphabet.max(1) as u32) as u8)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_inputs_compress_identically_on_fast_and_reference_paths(
        len in 0usize..3000,
        alphabet in 1u32..=255,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let data = random_soup(len, alphabet as u8, seed);
        let params = MatcherParams::fast();
        prop_assert_eq!(tokenize(&data, &params), tokenize_reference(&data, &params));
        let lz = Lz4ishCodec::with_params(params).compress(&data);
        prop_assert_eq!(&lz, &lz4ish_compress_reference(&data, &params));
        let lz_ref = lz4ish_decompress_reference(&lz);
        prop_assert_eq!(lz_ref.as_deref(), Ok(&data[..]));
        let lz_fast = Lz4ishCodec::default().decompress(&lz);
        prop_assert_eq!(lz_fast.as_deref(), Ok(&data[..]));
        let gz = GzipishCodec::with_params(params).compress(&data);
        prop_assert_eq!(&gz, &gzipish_compress_reference(&data, &params));
        let gz_ref = gzipish_decompress_reference(&gz);
        prop_assert_eq!(gz_ref.as_deref(), Ok(&data[..]));
        let rle = RleCodec.compress(&data);
        prop_assert_eq!(&rle, &rle_compress_reference(&data));
        let rle_ref = rle_decompress_reference(&rle);
        prop_assert_eq!(rle_ref.as_deref(), Ok(&data[..]));
    }
}

/// `stream` after `edits` seeded byte overwrites and, with `truncate`, a
/// seeded cut.
fn damage(stream: &[u8], edits: usize, truncate: bool, seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut bad = stream.to_vec();
    for _ in 0..edits {
        let i = rng.gen_range(0..bad.len());
        bad[i] = rng.gen_range(0u32..256) as u8;
    }
    if truncate {
        bad.truncate(rng.gen_range(0..=bad.len()));
    }
    bad
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The decoders' contract on input they did not write: whatever the
    /// damage — a header, a length table, a body — the fast and the
    /// reference decoder return the identical `Result`, error values
    /// included, and neither panics.
    #[test]
    fn damaged_streams_decode_identically_on_fast_and_reference_paths(
        len in 0usize..2000,
        alphabet in 1u32..=255,
        seed in proptest::arbitrary::any::<u64>(),
        edits in 0usize..=3,
        truncate in proptest::arbitrary::any::<bool>(),
        edit_seed in proptest::arbitrary::any::<u64>(),
    ) {
        let data = random_soup(len, alphabet as u8, seed);
        let params = MatcherParams::fast();
        let lz = damage(&Lz4ishCodec::with_params(params).compress(&data), edits, truncate, edit_seed);
        prop_assert_eq!(Lz4ishCodec::default().decompress(&lz), lz4ish_decompress_reference(&lz));
        let rle = damage(&RleCodec.compress(&data), edits, truncate, edit_seed);
        prop_assert_eq!(RleCodec.decompress(&rle), rle_decompress_reference(&rle));
        let gz = damage(&GzipishCodec::with_params(params).compress(&data), edits, truncate, edit_seed);
        prop_assert_eq!(GzipishCodec::default().decompress(&gz), gzipish_decompress_reference(&gz));
    }
}

/// Code lengths that pass `HuffmanCode::from_lengths`: up to `symbols`
/// symbols, each a random length of 1–15 bits (lengthened until it fits
/// the Kraft budget, dropped if none does), so long codes that miss the
/// decoder's table and incomplete codes (a Kraft sum below 1) both occur.
fn valid_lengths(symbols: usize, long_bias: bool, rng: &mut SmallRng) -> [u8; 256] {
    let mut lengths = [0u8; 256];
    let mut budget = 1u32 << 15;
    for _ in 0..symbols {
        let symbol = rng.gen_range(0..256usize);
        if lengths[symbol] != 0 {
            continue;
        }
        let lo = if long_bias { 9 } else { 1 };
        let mut len = rng.gen_range(lo..=15u32);
        while len <= 15 && (1u32 << (15 - len)) > budget {
            len += 1;
        }
        if len <= 15 {
            budget -= 1 << (15 - len);
            lengths[symbol] = len as u8;
        }
    }
    lengths
}

/// A `GZF2` stream: magic, `original_len`, `lengths`, `token_len`, `body`.
fn gzipish_stream(original_len: u64, lengths: &[u8; 256], token_len: u64, body: &[u8]) -> Vec<u8> {
    let mut stream = b"GZF2".to_vec();
    stream.extend_from_slice(&original_len.to_le_bytes());
    stream.extend_from_slice(lengths);
    stream.extend_from_slice(&token_len.to_le_bytes());
    stream.extend_from_slice(body);
    stream
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any code book the header may carry, over an arbitrary body (or one
    /// that really is Huffman-coded symbols, then noise), cut anywhere:
    /// the table decoder and the reference binary-search decoder return
    /// the identical `Result` — `Truncated`, `InvalidSymbol` and the lz4ish
    /// stage's errors at the same symbol.
    #[test]
    fn gzipish_code_books_decode_identically_on_fast_and_reference_paths(
        symbols in 1usize..=256,
        long_bias in proptest::arbitrary::any::<bool>(),
        coded in proptest::arbitrary::any::<bool>(),
        body_len in 0usize..600,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let lengths = valid_lengths(symbols, long_bias, &mut rng);
        let code = HuffmanCode::from_lengths(&lengths);
        prop_assert!(code.is_ok());
        let present: Vec<u8> = (0..=255u8).filter(|&s| lengths[s as usize] > 0).collect();
        let mut body = Vec::new();
        let mut token_len = rng.gen_range(0..=body_len as u64 * 2);
        if let (true, Ok(code), false) = (coded, &code, present.is_empty()) {
            let mut writer = BitWriter::new();
            let n = rng.gen_range(0..=body_len);
            for _ in 0..n {
                code.encode(&mut writer, present[rng.gen_range(0..present.len())]);
            }
            body = writer.finish();
            token_len = n as u64 + rng.gen_range(0..3u64);
        }
        while body.len() < body_len {
            body.push(rng.gen_range(0u32..256) as u8);
        }
        let original_len = rng.gen_range(0..4 * body_len as u64 + 1);
        let mut stream = gzipish_stream(original_len, &lengths, token_len, &body);
        if rng.gen_range(0..2) == 0 {
            stream.truncate(rng.gen_range(276..=stream.len()));
        } else if rng.gen_range(0..8) == 0 {
            stream.truncate(rng.gen_range(0..=stream.len()));
        }
        prop_assert_eq!(
            GzipishCodec::default().decompress(&stream),
            gzipish_decompress_reference(&stream)
        );
    }
}

/// The preserved decoder for `scheme`'s stream (the identity for `None`,
/// which has no stream format).
fn reference_decompress(scheme: CompressionScheme, data: &[u8]) -> Result<Vec<u8>, CompressError> {
    match scheme {
        CompressionScheme::None => Ok(data.to_vec()),
        CompressionScheme::Gzip => gzipish_decompress_reference(data),
        CompressionScheme::Snappy | CompressionScheme::Lz4 => lz4ish_decompress_reference(data),
        CompressionScheme::Rle => rle_decompress_reference(data),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Fully arbitrary bytes, not edits of a valid stream, into every
    /// scheme's codec: half the time they carry the scheme's magic and a
    /// small declared length (and, for gzipish, a small token count), so
    /// decoding gets past the header. Fast and reference decoders return
    /// the identical `Result` and neither panics.
    #[test]
    fn arbitrary_bytes_decode_identically_on_every_codec(
        bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..700),
        framed in proptest::arbitrary::any::<bool>(),
        declared in 0u64..512,
        token_len in 0u64..1024,
    ) {
        for scheme in CompressionScheme::all() {
            let mut data = bytes.clone();
            let magic: &[u8; 4] = match scheme {
                CompressionScheme::None => b"NONE",
                CompressionScheme::Gzip => b"GZF2",
                CompressionScheme::Snappy | CompressionScheme::Lz4 => b"LZ4F",
                CompressionScheme::Rle => b"RLE1",
            };
            if framed {
                let header = if scheme == CompressionScheme::Gzip { 276 } else { 12 };
                if data.len() < header {
                    data.resize(header, 0);
                }
                data[..4].copy_from_slice(magic);
                data[4..12].copy_from_slice(&declared.to_le_bytes());
                if scheme == CompressionScheme::Gzip {
                    data[268..276].copy_from_slice(&token_len.to_le_bytes());
                }
            }
            prop_assert_eq!(
                scheme.codec().decompress(&data),
                reference_decompress(scheme, &data),
                "{}",
                scheme
            );
        }
    }
}
