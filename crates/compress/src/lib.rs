//! # scope-compress
//!
//! From-scratch compression codecs with measured compression ratios and
//! decompression timings.
//!
//! The paper's COMPREDICT module predicts the compression ratio and
//! decompression speed of gzip, snappy and lz4 on data partitions. The real
//! codecs are not in the allowed dependency set, so this crate implements
//! three codecs *from scratch* with the same qualitative profile:
//!
//! * [`GzipishCodec`] — LZ77 matching followed by canonical Huffman entropy
//!   coding. Densest output, slowest to decompress (an analogue of gzip /
//!   DEFLATE).
//! * [`Lz4ishCodec`] — byte-oriented LZ77 token stream without entropy
//!   coding, 64 KiB window. Fast, lighter compression (an analogue of LZ4).
//! * [`SnappyishCodec`] — byte-oriented LZ77 with a small window and greedy
//!   skipping. Fastest, lightest compression (an analogue of Snappy).
//! * [`RleCodec`] — run-length encoding, used as a trivial baseline and for
//!   the columnar layout's internal encodings.
//! * `NoopCodec` — "no compression", the `R = 1, D = 0` option the
//!   OPTASSIGN formulation always includes (reached through
//!   [`CompressionScheme::None`]).
//!
//! What matters for the reproduction is that ratios and timings are *real
//! measurements on real bytes* that vary with the data's repetitiveness and
//! layout — which is exactly what the COMPREDICT features try to capture —
//! and that the orderings (gzip densest/slowest, snappy fastest/lightest)
//! match the real libraries, which they do (see the cross-codec tests in
//! [`measure`](mod@measure)).
//!
//! ## Block format
//!
//! The LZ-family codecs share one block-based wire format (see
//! [`lz4ish`]): after a 4-byte magic and a u64 little-endian original
//! length, the stream is a sequence of blocks, each holding one literal run
//! followed by at most one back-reference. A block opens with a token byte
//! — high nibble literal-run length, low nibble match length minus the
//! 4-byte minimum, both with 15 as a "more length bytes follow" escape
//! (LZ4's 255-byte continuation scheme) — then the literal bytes, then a
//! 2-byte little-endian match offset. The final block carries only
//! literals. [`gzipish`] wraps the same token stream in a canonical Huffman
//! entropy-coding layer; [`rle`] uses plain (run, value) byte pairs.
//!
//! ## Word-level kernels, without `unsafe`
//!
//! The hot loops move eight bytes at a time but contain no `unsafe`:
//!
//! * **Match extension** ([`lz77`]) loads two `u64`s via
//!   `copy_from_slice` into a stack array, XORs them, and converts
//!   `trailing_zeros` to a byte count (little-endian, so the lowest byte is
//!   the earliest position). Word loads only happen while `i + 8 <= len`;
//!   the final sub-word region is compared byte by byte, so every index is
//!   bounds-checked by the slice layer and short inputs never touch the
//!   word path.
//! * **Match copies** ([`lz4ish`] decompression) write whole words through
//!   `copy_from_slice` into a `Vec` that is always kept at least 8 bytes
//!   longer than the logical output, so a copy may overshoot the logical
//!   end by up to 7 bytes yet never reaches the buffer's real end.
//!   Overlapping copies (offset < 8) take a byte-at-a-time path because the
//!   word path would read bytes the copy itself has not produced yet.
//! * **Run detection** ([`rle`]) broadcasts the run byte into a `u64` and
//!   XOR-compares word-sized chunks, again switching to a byte loop for the
//!   sub-word tail.
//!
//! Every optimized path is pinned **byte-for-byte** (output bytes and error
//! values, not just round-trip success) against the preserved
//! byte-at-a-time implementations in [`reference`](mod@reference), both in unit tests and
//! in the workspace-level `differential_compress` proptest suite.
//!
//! ```
//! use scope_compress::{Codec, GzipishCodec, SnappyishCodec};
//!
//! let data = b"abcabcabcabcabcabcabcabcabcabc".repeat(20);
//! let gz = GzipishCodec::default();
//! let compressed = gz.compress(&data);
//! assert!(compressed.len() < data.len());
//! assert_eq!(gz.decompress(&compressed).unwrap(), data);
//!
//! // Snappyish trades ratio for speed: still round-trips, usually bigger.
//! let sn = SnappyishCodec::default();
//! assert_eq!(sn.decompress(&sn.compress(&data)).unwrap(), data);
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod gzipish;
pub mod huffman;
pub mod lz4ish;
pub mod lz77;
pub mod measure;
pub mod reference;
pub mod rle;
pub mod snappyish;

pub use error::CompressError;
pub use gzipish::GzipishCodec;
pub use lz4ish::Lz4ishCodec;
pub use measure::{
    measure, measure_decompression, CompressionMeasurement, DecompressionMeasurement,
};
pub use rle::RleCodec;
pub use snappyish::SnappyishCodec;

/// A lossless byte-stream compression codec.
///
/// `Send + Sync` are supertraits so that the `Box<dyn Codec>` of
/// [`CompressionScheme::codec`] can be shared with the workers of a
/// deterministic fan-out: a codec is a plain parameter struct and
/// `compress`/`decompress` take `&self`.
pub trait Codec: Send + Sync {
    /// Short name used in reports ("gzip", "snappy", "lz4", "none", ...).
    fn name(&self) -> &'static str;

    /// Compress `data` into a self-describing byte stream.
    fn compress(&self, data: &[u8]) -> Vec<u8>;

    /// Decompress a stream produced by [`Codec::compress`].
    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CompressError>;
}

/// The identity codec ("no compression"): ratio exactly 1.0 and zero
/// decompression cost, always available as an OPTASSIGN option.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NoopCodec;

impl Codec for NoopCodec {
    fn name(&self) -> &'static str {
        "none"
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        data.to_vec()
    }

    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CompressError> {
        Ok(data.to_vec())
    }
}

/// Enumeration of the compression schemes evaluated in the paper, in the
/// form the optimizer and predictor crates consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompressionScheme {
    /// No compression.
    None,
    /// The gzip analogue (LZ77 + Huffman).
    Gzip,
    /// The snappy analogue.
    Snappy,
    /// The lz4 analogue.
    Lz4,
    /// Run-length encoding.
    Rle,
}

impl CompressionScheme {
    /// All schemes, in a stable order.
    pub fn all() -> [CompressionScheme; 5] {
        [
            CompressionScheme::None,
            CompressionScheme::Gzip,
            CompressionScheme::Snappy,
            CompressionScheme::Lz4,
            CompressionScheme::Rle,
        ]
    }

    /// Short name.
    pub fn name(&self) -> &'static str {
        match self {
            CompressionScheme::None => "none",
            CompressionScheme::Gzip => "gzip",
            CompressionScheme::Snappy => "snappy",
            CompressionScheme::Lz4 => "lz4",
            CompressionScheme::Rle => "rle",
        }
    }

    /// Instantiate the codec implementing this scheme.
    pub fn codec(&self) -> Box<dyn Codec> {
        match self {
            CompressionScheme::None => Box::new(NoopCodec),
            CompressionScheme::Gzip => Box::new(GzipishCodec::default()),
            CompressionScheme::Snappy => Box::new(SnappyishCodec::default()),
            CompressionScheme::Lz4 => Box::new(Lz4ishCodec::default()),
            CompressionScheme::Rle => Box::new(RleCodec),
        }
    }
}

impl std::fmt::Display for CompressionScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_codec_round_trips_and_is_identity() {
        let data = b"hello world".to_vec();
        let c = NoopCodec;
        assert_eq!(c.compress(&data), data);
        assert_eq!(c.decompress(&data).unwrap(), data);
        assert_eq!(c.name(), "none");
    }

    #[test]
    fn a_codec_can_cross_a_fan_out() {
        // Compile-time: `dyn Codec` (what `CompressionScheme::codec` boxes)
        // and every implementation are shareable between threads.
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn Codec>();
        assert_send_sync::<Box<dyn Codec>>();
        assert_send_sync::<NoopCodec>();
        assert_send_sync::<RleCodec>();
        assert_send_sync::<SnappyishCodec>();
        assert_send_sync::<Lz4ishCodec>();
        assert_send_sync::<GzipishCodec>();
    }

    #[test]
    fn scheme_names_and_codecs() {
        assert_eq!(CompressionScheme::Gzip.name(), "gzip");
        assert_eq!(CompressionScheme::all().len(), 5);
        for scheme in CompressionScheme::all() {
            let codec = scheme.codec();
            assert_eq!(codec.name(), scheme.name());
            let data = b"some repetitive data data data data".to_vec();
            assert_eq!(codec.decompress(&codec.compress(&data)).unwrap(), data);
        }
        assert_eq!(format!("{}", CompressionScheme::Lz4), "lz4");
    }
}
