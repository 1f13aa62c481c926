//! `--sweep`: scaling curves over fleet size and thread count.
//!
//! The plain serving loop and the large billing replay at 4k / 40k / 400k
//! objects, threads 1 to `nproc`, one CSV per workload. Not gated and not
//! part of `BENCHMARK.json`: it answers whether `parallel_map` pays.

use crate::metrics::Run;
use crate::{bill, serve};
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

const OBJECTS: [usize; 3] = [4_000, 40_000, 400_000];
const REPS: u32 = 3;

pub fn run(seed: u64, out: &Path) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("cannot create {}: {e}", out.display());
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut run = Run::default();
    let mut serve_csv = String::from("objects,threads,nproc,events_per_s,epoch_p50_ms\n");
    let mut bill_csv = String::from("objects,events,threads,nproc,events_per_s\n");
    for objects in OBJECTS {
        for threads in 1..=nproc {
            let sizes = serve::Sizes {
                objects,
                accounts: 16,
                epochs: 8,
                epoch_days: 15,
                events_per_day: objects * 3 / 20,
                batches_per_epoch: 8,
            };
            if let Some((events_per_s, epoch_p50_ms)) =
                serve::sweep_point(sizes, threads, seed, REPS, &mut run)
            {
                let _ = writeln!(
                    serve_csv,
                    "{objects},{threads},{nproc},{events_per_s},{epoch_p50_ms}"
                );
                eprintln!("serve_steady {objects} objects, {threads} thread(s): {events_per_s:.0} events/s, epoch p50 {epoch_p50_ms:.3} ms");
            }
            let sizes = bill::Sizes {
                objects,
                events: objects * 40,
                cold_events: 0,
                monthly_events: 0,
                small_objects: 1,
                small_events: 0,
            };
            if let Some(events_per_s) = bill::sweep_point(sizes, threads, seed, REPS, &mut run) {
                let _ = writeln!(
                    bill_csv,
                    "{objects},{},{threads},{nproc},{events_per_s}",
                    sizes.events
                );
                eprintln!("bill_replay  {objects} objects, {threads} thread(s): {events_per_s:.0} events/s");
            }
        }
    }
    for failure in &run.failures {
        eprintln!("FAILED {failure}");
    }
    let written = std::fs::write(out.join("sweep_serve_steady.csv"), serve_csv)
        .and_then(|()| std::fs::write(out.join("sweep_bill_replay.csv"), bill_csv));
    match written {
        Ok(()) if run.failed == 0 => ExitCode::SUCCESS,
        Ok(()) => ExitCode::from(1),
        Err(e) => {
            eprintln!("cannot write the sweep CSVs: {e}");
            ExitCode::from(2)
        }
    }
}
