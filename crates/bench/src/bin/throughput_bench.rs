//! PR-7 throughput suite: word-level codec kernels and the sharded
//! struct-of-arrays billing engine.
//!
//! ```text
//! throughput_bench [--json] [--quick] [--out PATH]
//! ```
//!
//! * `--json`  — also write the results as JSON (default path
//!   `BENCH_7.json` in the working directory; override with `--out`).
//! * `--quick` — small buffers / short trace, for the CI smoke run.
//!
//! The codec section measures compression and decompression throughput
//! (GB/s of uncompressed bytes, min-of-reps via `scope_compress::measure`)
//! for every scheme on synthetic tabular text, **after asserting the fast
//! streams are byte-identical to the preserved byte-at-a-time reference
//! pipelines** — the same-stream guarantee is checked in-process, in the
//! same binary that reports the numbers.
//!
//! The billing section replays a 1 000-object day-granular trace through
//! the sharded column engine, timing `run_columns` over prebuilt
//! [`scope_cloudsim::EventColumns`] (name interning and day bucketing are
//! paid once, outside the replay loop, which is the engine's intended
//! steady-state shape). Before timing, the report is asserted bit-identical
//! to the sequential reference engine for thread counts 1, 2 and 7. The
//! headline number is events/s at the default thread count; the PR-4
//! baseline for the same fixture shape was ~19.7 M events/s.

use scope_bench::{billing_fixture, time_min, BenchArgs, BILLING_HORIZON_DAYS as HORIZON_DAYS};
use scope_cloudsim::reference::run_days_reference;
use scope_cloudsim::{parallel, BillingReport};
use scope_compress::lz77::MatcherParams;
use scope_compress::reference::{
    gzipish_compress_reference, gzipish_decompress_reference, lz4ish_compress_reference,
    lz4ish_decompress_reference, rle_compress_reference, rle_decompress_reference,
};
use scope_compress::{measure, Codec, CompressionScheme};
use std::error::Error;

struct Config {
    args: BenchArgs,
    codec_bytes: usize,
    reps: usize,
    billing_objects: usize,
    billing_events: usize,
}

impl Config {
    fn from_args() -> Result<Config, String> {
        let args = BenchArgs::parse("BENCH_7.json", &[])?;
        let quick = args.quick;
        Ok(Config {
            args,
            codec_bytes: if quick { 1 << 19 } else { 1 << 22 },
            reps: if quick { 1 } else { 5 },
            billing_objects: 1000,
            billing_events: if quick { 100_000 } else { 1_000_000 },
        })
    }
}

/// Synthetic tabular text with the repetition profile of a TPC-H-ish dump:
/// enumerated keys, a rotating enum column, a quantized numeric column and
/// a recurring comment fragment. Compressible but not degenerate.
fn tabular_bytes(target: usize) -> Vec<u8> {
    const STATUS: [&str; 5] = ["SHIPPED", "PENDING", "RETURNED", "BUILDING", "HOLD"];
    const COMMENT: [&str; 3] = [
        "furiously final requests sleep",
        "carefully ironic deposits nag",
        "quickly express packages boost",
    ];
    let mut out = Vec::with_capacity(target + 128);
    let mut row = 0u64;
    while out.len() < target {
        let line = format!(
            "{row}|Customer#{:09}|{}|{:.2}|1995-{:02}-{:02}|{}\n",
            row * 7 % 1_000_000,
            STATUS[(row % 5) as usize],
            (row % 9000) as f64 / 100.0,
            row % 12 + 1,
            row % 28 + 1,
            COMMENT[(row % 3) as usize],
        );
        out.extend_from_slice(line.as_bytes());
        row += 1;
    }
    out.truncate(target);
    out
}

struct CodecNumbers {
    scheme: &'static str,
    ratio: f64,
    compress_gb_per_s: f64,
    decompress_gb_per_s: f64,
}

/// Pin the fast stream byte-for-byte against the reference pipeline that
/// matches `scheme`'s matcher effort, and the reference decode of the fast
/// stream against the input.
fn assert_stream_matches_oracle(scheme: CompressionScheme, codec: &dyn Codec, data: &[u8]) {
    let fast = codec.compress(data);
    match scheme {
        CompressionScheme::Gzip => {
            let slow = gzipish_compress_reference(data, &MatcherParams::thorough());
            assert_eq!(fast, slow, "gzip stream diverged from reference");
            assert_eq!(
                gzipish_decompress_reference(&fast).as_deref(),
                Ok(data),
                "reference decode of fast gzip stream diverged"
            );
        }
        CompressionScheme::Lz4 => {
            let slow = lz4ish_compress_reference(data, &MatcherParams::fast());
            assert_eq!(fast, slow, "lz4 stream diverged from reference");
            assert_eq!(lz4ish_decompress_reference(&fast).as_deref(), Ok(data));
        }
        CompressionScheme::Snappy => {
            // Snappyish shares the lz4ish wire format at the fastest
            // matcher effort.
            let slow = lz4ish_compress_reference(data, &MatcherParams::fastest());
            assert_eq!(fast, slow, "snappy stream diverged from reference");
            assert_eq!(lz4ish_decompress_reference(&fast).as_deref(), Ok(data));
        }
        CompressionScheme::Rle => {
            let slow = rle_compress_reference(data);
            assert_eq!(fast, slow, "rle stream diverged from reference");
            assert_eq!(rle_decompress_reference(&fast).as_deref(), Ok(data));
        }
        CompressionScheme::None => {}
    }
}

fn bench_codecs(cfg: &Config) -> Vec<CodecNumbers> {
    let data = tabular_bytes(cfg.codec_bytes);
    let mut rows = Vec::new();
    for scheme in [
        CompressionScheme::Gzip,
        CompressionScheme::Snappy,
        CompressionScheme::Lz4,
        CompressionScheme::Rle,
    ] {
        let codec = scheme.codec();
        assert_stream_matches_oracle(scheme, codec.as_ref(), &data);
        let m = measure(codec.as_ref(), &data);
        rows.push(CodecNumbers {
            scheme: scheme.name(),
            ratio: m.ratio,
            compress_gb_per_s: m.compress_gb_per_s,
            decompress_gb_per_s: m.decompress_gb_per_s,
        });
    }
    rows
}

struct BillingNumbers {
    threads: usize,
    reps: usize,
    run_columns_s: f64,
    events_per_s: f64,
}

fn bench_billing(cfg: &Config) -> Result<BillingNumbers, Box<dyn Error>> {
    let (sim, events) = billing_fixture(cfg.billing_objects, cfg.billing_events);
    let columns = sim.build_columns(&events);

    // Correctness before speed: the sharded engine must reproduce the
    // sequential reference bit for bit, for thread counts that split the
    // fixture evenly and unevenly — asserted here, in the same process
    // that publishes the throughput numbers.
    let expected = run_days_reference(&sim, HORIZON_DAYS, &events)?;
    for threads in [1usize, 2, 7] {
        let got = sim.run_columns_with_threads(HORIZON_DAYS, &columns, threads)?;
        assert_eq!(
            got, expected,
            "sharded replay diverged at threads={threads}"
        );
    }
    assert_eq!(sim.run_days(HORIZON_DAYS, &events)?, expected);
    assert!(expected.total() > 0.0);

    let threads = parallel::default_threads();
    // A single replay is ~10 ms, short enough that scheduler noise on a
    // shared host dominates a small rep count; billing takes more reps
    // than the (much longer) codec passes and reports the min.
    let billing_reps = if cfg.args.quick { 1 } else { cfg.reps * 3 };
    let (run_columns_s, report): (f64, Result<BillingReport, _>) =
        time_min(billing_reps, || sim.run_columns(HORIZON_DAYS, &columns));
    assert_eq!(report?, expected);
    Ok(BillingNumbers {
        threads,
        reps: billing_reps,
        run_columns_s,
        events_per_s: events.len() as f64 / run_columns_s,
    })
}

fn main() -> Result<(), Box<dyn Error>> {
    let cfg = Config::from_args()?;
    println!(
        "throughput_bench: {} KiB codec buffer, {} billing events, min of {} rep(s){}",
        cfg.codec_bytes / 1024,
        cfg.billing_events,
        cfg.reps,
        if cfg.args.quick { " [quick]" } else { "" }
    );

    let codecs = bench_codecs(&cfg);
    for c in &codecs {
        println!(
            "codec {:<7} ratio {:>6.2}   compress {:>8.3} GB/s   decompress {:>8.3} GB/s",
            c.scheme, c.ratio, c.compress_gb_per_s, c.decompress_gb_per_s
        );
    }

    let billing = bench_billing(&cfg)?;
    println!(
        "billing run_columns  {:>9.4} s for {} events ({:.2} M events/s, {} objects, {} threads)",
        billing.run_columns_s,
        cfg.billing_events,
        billing.events_per_s / 1e6,
        cfg.billing_objects,
        billing.threads
    );

    if cfg.args.json {
        let codec_json: Vec<String> = codecs
            .iter()
            .map(|c| {
                format!(
                    "    \"{}\": {{ \"ratio\": {:.4}, \"compress_gb_per_s\": {:.4}, \"decompress_gb_per_s\": {:.4} }}",
                    c.scheme, c.ratio, c.compress_gb_per_s, c.decompress_gb_per_s
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"issue\": 7,\n  \"quick\": {},\n  \"config\": {{\n    \"codec_bytes\": {},\n    \"reps\": {},\n    \"billing_reps\": {},\n    \"billing_objects\": {},\n    \"billing_events\": {},\n    \"billing_threads\": {}\n  }},\n  \"codecs\": {{\n{}\n  }},\n  \"billing\": {{\n    \"run_columns_s\": {:.6},\n    \"events_per_s\": {:.0},\n    \"note\": \"run_columns over prebuilt EventColumns (interning + day bucketing paid once); report asserted bit-identical to the sequential reference engine for threads 1/2/7 in this process before timing; billing_threads reflects this host's core count and the shard fan-out scales events/s with it\"\n  }}\n}}\n",
            cfg.args.quick,
            cfg.codec_bytes,
            cfg.reps,
            billing.reps,
            cfg.billing_objects,
            cfg.billing_events,
            billing.threads,
            codec_json.join(",\n"),
            billing.run_columns_s,
            billing.events_per_s,
        );
        std::fs::write(&cfg.args.out, &json)?;
        println!("wrote {}", cfg.args.out);
    }
    Ok(())
}
