//! End-to-end benchmark of the SCOPe reproduction. See `README.md`.
//!
//! ```text
//! scope-e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
//! scope-e2e --compare DIR_A DIR_B
//! scope-e2e --sweep [--seed N] [--out DIR]
//! ```
//!
//! A workload run prints progress to standard error and, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; it exits non-zero when any operation failed.

mod alloc;
mod bill;
mod compare;
mod json;
mod metrics;
mod plan;
mod rng;
mod serve;
mod stats;
mod storage;
mod sweep;
mod trace;

use json::Value;
use metrics::Run;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Set-up is repeated at least this often, and until it has taken this
/// share of `--seconds` in total; `setup_s` is the median. (Of a 20 s run,
/// two seconds: about 200 set-ups of `plan_batch` and 10 of `bill_replay`.)
const MIN_SETUP_REPS: u32 = 5;
const SETUP_SHARE: f64 = 0.1;
/// Fewest timed repetitions, whatever `--seconds` says.
pub const MIN_PLAN_REPS: u32 = 3;
pub const MIN_REPS: u32 = 7;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
    /// Where result files and the journal directory go.
    pub out: PathBuf,
    /// Write `<workload>.json` / `<workload>.trace.json` into `out`.
    pub write_results: bool,
}

enum Mode {
    Workload(Args),
    Compare { a: PathBuf, b: PathBuf },
    Sweep { seed: u64, out: PathBuf },
}

fn parse_args() -> Result<Mode, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 12,
        seconds: 20.0,
        traced: false,
        quick: false,
        out: PathBuf::from("benchmark/results"),
        write_results: false,
    };
    let mut compare = None;
    let mut sweep = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => {
                args.out = PathBuf::from(value("a directory")?);
                args.write_results = true;
            }
            "--compare" => {
                compare = Some((
                    PathBuf::from(value("two directories")?),
                    PathBuf::from(value("two directories")?),
                ))
            }
            "--sweep" => sweep = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some((a, b)) = compare {
        return Ok(Mode::Compare { a, b });
    }
    if sweep {
        return Ok(Mode::Sweep {
            seed: args.seed,
            out: args.out,
        });
    }
    if !metrics::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}",
            metrics::WORKLOADS
        ));
    }
    Ok(Mode::Workload(args))
}

/// Run the workload's set-up repeatedly (under spans in a traced run),
/// one fixture alive at a time; record the median as `setup_s` and return
/// the last fixture. `None` from `build` means an operation failed.
pub fn repeat_setup<T>(
    args: &Args,
    run: &mut Run,
    mut build: impl FnMut(&mut Run) -> Option<T>,
) -> Option<T> {
    let mut seconds = Vec::new();
    let mut fixture = None;
    let started = Instant::now();
    trace::set_enabled(args.traced);
    let mut rep = 0;
    while rep < MIN_SETUP_REPS || started.elapsed().as_secs_f64() < args.seconds * SETUP_SHARE {
        drop(fixture.take());
        trace::set_context(rep, 0);
        let t = Instant::now();
        fixture = build(run);
        seconds.push(t.elapsed().as_secs_f64());
        if fixture.is_none() {
            break;
        }
        rep += 1;
    }
    trace::set_enabled(false);
    run.samples("setup_s", &seconds);
    fixture
}

/// Record `<span name>_s` for every span name that has such a metric: the
/// seconds per repetition summed over the calls, median over repetitions.
pub fn record_span_seconds(run: &mut Run, spans: &[trace::Span]) {
    for (name, per_rep) in trace::seconds_by_name_and_rep(spans) {
        if let Some(metric) = metrics::seconds_metric_of_span(name) {
            run.samples(metric, &per_rep);
        }
    }
}

/// The harness's own numbers for a traced run: what tracing costs, how
/// much of the timed loop the layer spans account for, and how many spans.
pub fn record_trace_summary(
    run: &mut Run,
    spans: &[trace::Span],
    untraced_s: &[f64],
    traced_s: &[f64],
) {
    let (plain, traced) = (stats::median(untraced_s), stats::median(traced_s));
    if plain > 0.0 && !traced_s.is_empty() {
        run.value("harness.trace_overhead_pct", (traced / plain - 1.0) * 100.0);
    }
    run.value(
        "harness.span_coverage_pct",
        trace::coverage_pct(spans, "rep"),
    );
    run.value("harness.spans", spans.len() as f64);
}

/// The spans of a traced run, as the `spans` array of `<workload>.trace.json`.
fn spans_json(spans: &[trace::Span]) -> Value {
    let own = trace::self_times_ns(spans);
    let rows = spans.iter().zip(own).map(|(s, own_ns)| {
        let parent = if s.parent == trace::NO_PARENT {
            Value::Null
        } else {
            Value::Num(f64::from(s.parent))
        };
        Value::obj([
            ("name", Value::Str(s.name.into())),
            ("start_ns", Value::Num(s.start_ns as f64)),
            ("end_ns", Value::Num(s.end_ns as f64)),
            ("self_ns", Value::Num(own_ns as f64)),
            ("parent", parent),
            ("rep", Value::Num(f64::from(s.rep))),
            ("epoch", Value::Num(f64::from(s.epoch))),
            ("allocs", Value::Num(s.allocs as f64)),
        ])
    });
    Value::Arr(rows.collect())
}

fn run_workload(args: &Args) -> ExitCode {
    let started = Instant::now();
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let mut run = Run::default();
    match args.workload.as_str() {
        "plan_batch" => plan::run(args, &mut run),
        "serve_steady" => serve::run(args, &mut run, false),
        "serve_durable" => serve::run(args, &mut run, true),
        _ => bill::run(args, &mut run),
    }
    let threads = scope_cloudsim::parallel::default_threads();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    run.value(
        "peak_rss_mb",
        stats::proc_status_bytes("VmHWM") as f64 / 1e6,
    );
    run.value("harness.threads", threads as f64);
    run.value("harness.nproc", nproc as f64);

    for failure in &run.failures {
        eprintln!("FAILED {failure}");
    }
    if args.write_results {
        let mut doc = vec![
            ("workload", Value::Str(args.workload.clone())),
            ("seed", Value::Num(args.seed as f64)),
            ("seconds", Value::Num(args.seconds)),
            ("trace", Value::Bool(args.traced)),
            ("quick", Value::Bool(args.quick)),
            ("nproc", Value::Num(nproc as f64)),
            ("threads", Value::Num(threads as f64)),
            ("wall_s", Value::Num(started.elapsed().as_secs_f64())),
            ("ops_total", Value::Num(run.attempted as f64)),
            ("ops_failed", Value::Num(run.failed as f64)),
            ("metrics", run.detailed_metrics()),
        ];
        if args.traced {
            doc.push(("spans", spans_json(&run.spans)));
        }
        let suffix = if args.traced { ".trace" } else { "" };
        let path = args.out.join(format!("{}{suffix}.json", args.workload));
        if let Err(e) = std::fs::write(&path, Value::obj(doc).to_pretty()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    // Every metric by name with its unit, for people; then the driver's line.
    for (name, unit, value) in run.reported(args.traced) {
        eprintln!("{:<14} {name:<40} {value:>16.6} {unit}", args.workload);
    }
    eprintln!(
        "{}: ops_total {} ops_failed {} ({:.1} s)",
        args.workload,
        run.attempted,
        run.failed,
        started.elapsed().as_secs_f64()
    );
    println!("{}", run.driver_line(args.traced).to_compact());
    if run.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(Mode::Workload(args)) => run_workload(&args),
        Ok(Mode::Compare { a, b }) => compare::run(&a, &b),
        Ok(Mode::Sweep { seed, out }) => sweep::run(seed, &out),
        Err(e) => {
            eprintln!("scope-e2e: {e}");
            ExitCode::from(2)
        }
    }
}
