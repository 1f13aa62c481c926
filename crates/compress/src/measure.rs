//! Measurement of compression ratio, compression speed and decompression
//! speed.
//!
//! # One repetition protocol
//!
//! Every timing in this module comes from one private loop: repeat the
//! codec call at least 3 times, until ~2 ms have elapsed or 32 repetitions,
//! and report the **minimum** single-run time. Under CPU contention (e.g. a
//! parallel test run) the minimum tracks the true cost of the work while an
//! average is inflated by scheduler noise, and inflated timings have
//! flipped borderline optimizer decisions before.
//!
//! # Two halves
//!
//! The protocol is applied to two independent halves:
//!
//! * the **compression-timing half** compresses the buffer under the
//!   protocol (so at least three times) and keeps the first output, which
//!   every later run must reproduce byte for byte;
//! * the **decompression-timing half**, [`measure_decompression`],
//!   decompresses an already compressed stream under the protocol and
//!   derives ratio and compressed size from that stream. Every repetition
//!   must give back exactly the original length, in release builds too — a
//!   codec that does not round-trip is never timed and reported.
//!
//! [`measure`] is both halves and reports all three quantities; the
//! end-to-end benchmark's `compress.measure` span needs it. COMPREDICT's training targets (§V,
//! Tables VI–VIII) are only the pair (compression ratio, decompression
//! seconds per GB): data in the lake is compressed once when it is written
//! and decompressed on every read, so compression *time* is not a cost the
//! optimizer trades off and not something a predictor is trained for.
//! Callers that only need the pair — `scope-compredict`'s `build_examples`
//! and `scope-core`'s scenario profiles — therefore compress **once**
//! themselves and call [`measure_decompression`], instead of paying two
//! more compression passes per buffer for a number they would drop.

use crate::Codec;
use std::time::Instant;

/// Result of measuring a codec on a byte buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionMeasurement {
    /// Uncompressed size in bytes.
    pub original_bytes: usize,
    /// Compressed size in bytes.
    pub compressed_bytes: usize,
    /// Compression ratio `original / compressed` (>= 0; > 1 means the codec
    /// actually shrank the data).
    pub ratio: f64,
    /// Wall-clock seconds taken by one decompression of the buffer.
    pub decompress_seconds: f64,
    /// Decompression speed normalised to seconds per GB of *uncompressed*
    /// data — the unit used in Table VIII.
    pub decompress_seconds_per_gb: f64,
    /// Wall-clock seconds taken by one compression of the buffer.
    pub compress_seconds: f64,
    /// Compression throughput in GB/s of uncompressed input (min-of-reps
    /// timing, so the max observed throughput).
    pub compress_gb_per_s: f64,
    /// Decompression throughput in GB/s of uncompressed output (min-of-reps
    /// timing, so the max observed throughput).
    pub decompress_gb_per_s: f64,
}

/// Result of [`measure_decompression`]: the two COMPREDICT targets of one
/// compressed stream, without any compression timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecompressionMeasurement {
    /// Uncompressed size in bytes.
    pub original_bytes: usize,
    /// Compressed size in bytes.
    pub compressed_bytes: usize,
    /// Compression ratio `original / compressed`.
    pub ratio: f64,
    /// Wall-clock seconds taken by one decompression of the stream.
    pub decompress_seconds: f64,
    /// Decompression speed normalised to seconds per GB of *uncompressed*
    /// data — the unit used in Table VIII.
    pub decompress_seconds_per_gb: f64,
}

/// The module's one repetition protocol: call `run` at least 3 times, until
/// ~2 ms have elapsed or 32 repetitions, timing nothing but the call.
/// Returns the first run's output (later runs must reproduce it) and the
/// minimum single-run seconds.
fn min_of_reps(mut run: impl FnMut() -> Vec<u8>) -> (Vec<u8>, f64) {
    let start = Instant::now();
    let first = run();
    let mut seconds = start.elapsed().as_secs_f64();
    let mut reps = 1u32;
    while !(reps >= 32 || (reps >= 3 && start.elapsed().as_secs_f64() > 0.002)) {
        let rep_start = Instant::now();
        let out = run();
        seconds = seconds.min(rep_start.elapsed().as_secs_f64());
        debug_assert_eq!(out, first);
        reps += 1;
    }
    (first, seconds)
}

/// Measure `codec` on `data`: both halves of the module's protocol.
///
/// Compression and decompression are each repeated (at least 3 times,
/// until ~2 ms have elapsed or 32 repetitions) and the **minimum**
/// single-run time is reported. Returns a measurement with ratio 1.0 and
/// zero time for empty input.
pub fn measure(codec: &dyn Codec, data: &[u8]) -> CompressionMeasurement {
    // Empty input is not run through the codec at all: no stream, no time
    // (and the decompression half reports ratio 1.0 for it).
    let (compressed, compress_seconds) = if data.is_empty() {
        (Vec::new(), 0.0)
    } else {
        min_of_reps(|| codec.compress(data))
    };
    let d = measure_decompression(codec, &compressed, data.len());
    let gb = data.len() as f64 / 1e9;
    CompressionMeasurement {
        original_bytes: d.original_bytes,
        compressed_bytes: d.compressed_bytes,
        ratio: d.ratio,
        decompress_seconds: d.decompress_seconds,
        decompress_seconds_per_gb: d.decompress_seconds_per_gb,
        compress_seconds,
        compress_gb_per_s: if compress_seconds > 0.0 {
            gb / compress_seconds
        } else {
            0.0
        },
        decompress_gb_per_s: if d.decompress_seconds > 0.0 {
            gb / d.decompress_seconds
        } else {
            0.0
        },
    }
}

/// The decompression-timing half on its own: time `codec` decompressing
/// `compressed`, the stream it produced from `original_bytes` bytes, and
/// report the ratio and the decompression speed — the same numbers
/// [`measure`] reports for them, from one compression pass made by the
/// caller instead of three or more.
///
/// Returns ratio 1.0 and zero time when `original_bytes` is 0, as
/// [`measure`] does for empty input.
///
/// # Panics
///
/// If the codec fails on the stream or gives back any other length than
/// `original_bytes` — on every repetition, in release builds too.
pub fn measure_decompression(
    codec: &dyn Codec,
    compressed: &[u8],
    original_bytes: usize,
) -> DecompressionMeasurement {
    if original_bytes == 0 {
        return DecompressionMeasurement {
            original_bytes: 0,
            compressed_bytes: 0,
            ratio: 1.0,
            decompress_seconds: 0.0,
            decompress_seconds_per_gb: 0.0,
        };
    }
    let (_, decompress_seconds) = min_of_reps(|| {
        codec
            .decompress(compressed)
            .ok()
            .filter(|out| out.len() == original_bytes)
            .expect("codec must round-trip its own output")
    });
    let gb = original_bytes as f64 / 1e9;
    DecompressionMeasurement {
        original_bytes,
        compressed_bytes: compressed.len(),
        ratio: original_bytes as f64 / compressed.len() as f64,
        decompress_seconds,
        decompress_seconds_per_gb: decompress_seconds / gb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        CompressError, CompressionScheme, GzipishCodec, Lz4ishCodec, NoopCodec, SnappyishCodec,
    };

    /// Test-only codec that loses the last byte on the way back.
    struct LossyCodec;

    impl Codec for LossyCodec {
        fn name(&self) -> &'static str {
            "lossy"
        }

        fn compress(&self, data: &[u8]) -> Vec<u8> {
            data.to_vec()
        }

        fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CompressError> {
            Ok(data[..data.len().saturating_sub(1)].to_vec())
        }
    }

    fn tabular_text(rows: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..rows {
            out.extend_from_slice(
                format!(
                    "{},Customer#{:09},AUTOMOBILE,199{}-0{}-1{},{}-LOW,carefully final requests\n",
                    i,
                    i % 1000,
                    i % 8,
                    i % 9 + 1,
                    i % 9,
                    i % 5 + 1
                )
                .as_bytes(),
            );
        }
        out
    }

    #[test]
    fn ratio_ordering_matches_real_codecs() {
        // gzip >= lz4 >= snappy in compression ratio on tabular text — this
        // is the qualitative property the paper's optimizer and predictor
        // rely on.
        let data = tabular_text(400);
        let gz = measure(&GzipishCodec::default(), &data);
        let lz = measure(&Lz4ishCodec::default(), &data);
        let sn = measure(&SnappyishCodec::default(), &data);
        assert!(gz.ratio > 1.5, "gzip ratio = {}", gz.ratio);
        assert!(
            gz.ratio >= lz.ratio,
            "gzip {} vs lz4 {}",
            gz.ratio,
            lz.ratio
        );
        assert!(
            lz.ratio >= sn.ratio * 0.95,
            "lz4 {} vs snappy {}",
            lz.ratio,
            sn.ratio
        );
    }

    #[test]
    fn noop_has_ratio_one_and_fast_decompression() {
        let data = tabular_text(100);
        let m = measure(&NoopCodec, &data);
        assert!((m.ratio - 1.0).abs() < 1e-12);
        assert_eq!(m.original_bytes, m.compressed_bytes);
        assert!(m.decompress_seconds >= 0.0);
    }

    #[test]
    fn empty_input_measurement() {
        let m = measure(&GzipishCodec::default(), b"");
        assert_eq!(m.ratio, 1.0);
        assert_eq!(m.original_bytes, 0);
        assert_eq!(m.decompress_seconds_per_gb, 0.0);
    }

    #[test]
    fn repetitive_data_compresses_better_than_random() {
        let repetitive = b"AAAA-BBBB-CCCC-".repeat(500);
        let mut random = Vec::with_capacity(repetitive.len());
        let mut x: u64 = 3;
        for _ in 0..repetitive.len() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            random.push((x & 0xFF) as u8);
        }
        let codec = GzipishCodec::default();
        let r1 = measure(&codec, &repetitive);
        let r2 = measure(&codec, &random);
        assert!(r1.ratio > 3.0 * r2.ratio);
    }

    #[test]
    fn seconds_per_gb_scales_with_measured_time() {
        let data = tabular_text(200);
        let m = measure(&GzipishCodec::default(), &data);
        let expected = m.decompress_seconds / (data.len() as f64 / 1e9);
        assert!((m.decompress_seconds_per_gb - expected).abs() < 1e-9);
        assert!(m.decompress_seconds_per_gb > 0.0);
    }

    #[test]
    fn repeated_measurements_are_stable() {
        // Regression test: timings were once a single-sample average, so a
        // scheduler hiccup during one measurement could inflate a codec's
        // decompression time by orders of magnitude and flip optimizer
        // decisions downstream. With min-of-reps, two measurements of the
        // same buffer must agree to well within an order of magnitude.
        let data = tabular_text(300);
        let codec = GzipishCodec::default();
        let a = measure(&codec, &data);
        let b = measure(&codec, &data);
        assert!(a.decompress_seconds > 0.0);
        let ratio = a.decompress_seconds / b.decompress_seconds;
        assert!(
            (0.04..25.0).contains(&ratio),
            "unstable timing: {} vs {}",
            a.decompress_seconds,
            b.decompress_seconds
        );
    }

    #[test]
    fn all_schemes_produce_valid_measurements() {
        let data = tabular_text(100);
        for scheme in CompressionScheme::all() {
            let codec = scheme.codec();
            let m = measure(codec.as_ref(), &data);
            assert!(m.ratio > 0.0);
            assert!(m.compressed_bytes > 0);
            assert_eq!(m.original_bytes, data.len());
        }
    }

    #[test]
    fn throughput_fields_are_consistent_with_timings() {
        // Per the standing caveat, assertions on timings stay coarse: only
        // internal consistency and positivity, never absolute speeds.
        let data = tabular_text(300);
        let m = measure(&Lz4ishCodec::default(), &data);
        let gb = data.len() as f64 / 1e9;
        assert!(m.compress_gb_per_s > 0.0);
        assert!(m.decompress_gb_per_s > 0.0);
        assert!((m.compress_gb_per_s - gb / m.compress_seconds).abs() < 1e-9);
        assert!((m.decompress_gb_per_s - gb / m.decompress_seconds).abs() < 1e-9);
        let empty = measure(&Lz4ishCodec::default(), b"");
        assert_eq!(empty.compress_gb_per_s, 0.0);
        assert_eq!(empty.decompress_gb_per_s, 0.0);
    }

    #[test]
    fn decompression_half_reports_what_measure_reports() {
        // Ratio and sizes are functions of the compressed bytes alone, so
        // one compression pass must give `measure`'s numbers bit for bit;
        // timings only have to be consistent with each other.
        let data = tabular_text(150);
        let gb = data.len() as f64 / 1e9;
        for scheme in CompressionScheme::all() {
            let codec = scheme.codec();
            let m = measure(codec.as_ref(), &data);
            let compressed = codec.compress(&data);
            let d = measure_decompression(codec.as_ref(), &compressed, data.len());
            assert_eq!(d.original_bytes, m.original_bytes, "{scheme}");
            assert_eq!(d.compressed_bytes, m.compressed_bytes, "{scheme}");
            assert_eq!(d.ratio.to_bits(), m.ratio.to_bits(), "{scheme}");
            assert!(d.decompress_seconds.is_finite() && d.decompress_seconds >= 0.0);
            assert!((d.decompress_seconds_per_gb - d.decompress_seconds / gb).abs() < 1e-9);
        }
        let codec = GzipishCodec::default();
        let empty = measure_decompression(&codec, &codec.compress(b""), 0);
        let reference = measure(&codec, b"");
        assert_eq!(empty.ratio, reference.ratio);
        assert_eq!(empty.compressed_bytes, reference.compressed_bytes);
        assert_eq!(empty.decompress_seconds, 0.0);
        assert_eq!(empty.decompress_seconds_per_gb, 0.0);
    }

    #[test]
    #[should_panic(expected = "codec must round-trip its own output")]
    fn measure_never_times_a_codec_that_loses_bytes() {
        // The length check used to be a `debug_assert`, so a release build
        // timed and reported this codec.
        measure(&LossyCodec, &tabular_text(20));
    }

    #[test]
    #[should_panic(expected = "codec must round-trip its own output")]
    fn the_decompression_half_never_times_a_codec_that_loses_bytes() {
        let data = tabular_text(20);
        measure_decompression(&LossyCodec, &LossyCodec.compress(&data), data.len());
    }
}
