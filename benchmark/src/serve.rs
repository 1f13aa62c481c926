//! `serve_steady` and `serve_durable`: the serving loop, plain and journaled.
//!
//! One fleet and one skewed, drifting trace (`serve_bench`'s generator,
//! seeded) drive both. Per epoch the caller delivers the epoch's sequenced
//! batches, advances the clock, re-solves and checkpoints. `serve_steady`
//! runs that loop on a plain `ServeEngine` — intake, heat, delta re-solve
//! and checkpointing, with the journal doing nothing. `serve_durable` runs
//! the identical loop behind `JournaledEngine` over `FileStorage` (real
//! fsyncs, a durable checkpoint every epoch), then crashes mid-epoch and
//! times recovery: the same serve layer used the other way, with the wal
//! doing most of the extra work.

use crate::metrics::{Failed, Run};
use crate::rng::Lcg;
use crate::storage::{StorageCounts, TimedStorage};
use crate::{stats, trace, Args};
use scope_cloudsim::{AccessKind, EventColumns, TierCatalog, TierId};
use scope_optassign::{CostTable, OptAssignProblem, PartitionSpec};
use scope_serve::{
    reference, CompressionOption, IngestReport, JournaledEngine, ResolveOutcome, ServeConfig,
    ServeEngine, ServeError, ServeObject,
};
use scope_wal::{
    crc32, decode_frame, encode_record, FileStorage, FrameOutcome, JournalConfig, MemStorage,
    Storage,
};
use std::hint::black_box;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub objects: usize,
    pub accounts: usize,
    /// Timed epochs per repetition; the trace holds one more, which the
    /// crash-and-recover step and the final checkpoint comparison use.
    pub epochs: u32,
    pub epoch_days: u32,
    pub events_per_day: usize,
    pub batches_per_epoch: usize,
}

impl Sizes {
    pub fn new(quick: bool) -> Sizes {
        if quick {
            Sizes {
                objects: 2_000,
                accounts: 8,
                epochs: 6,
                epoch_days: 15,
                events_per_day: 1_200,
                batches_per_epoch: 8,
            }
        } else {
            Sizes {
                objects: 40_000,
                accounts: 16,
                epochs: 24,
                epoch_days: 15,
                events_per_day: 12_000,
                batches_per_epoch: 8,
            }
        }
    }

    fn events_per_epoch(&self) -> usize {
        self.epoch_days as usize * self.events_per_day
    }

    fn horizon_days(&self) -> u32 {
        (self.epochs + 1) * self.epoch_days
    }
}

/// Journal segment size, as in `recovery_bench`.
const JOURNAL: JournalConfig = JournalConfig {
    segment_records: 64,
    keep_checkpoints: 2,
};

fn catalog() -> TierCatalog {
    TierCatalog::azure_hot_cool_archive()
}

fn schemes() -> Vec<CompressionOption> {
    vec![
        CompressionOption::none(),
        CompressionOption::new("gzip", 3.5, 1.5),
        CompressionOption::new("zstd", 2.4, 0.35),
        CompressionOption::new("lz4", 2.1, 0.15),
        CompressionOption::new("snappy", 1.8, 0.08),
        CompressionOption::new("brotli", 3.9, 2.6),
    ]
}

/// The `serve_bench` fleet: distinct sizes, round-robin accounts, every
/// third object barred from the archive tier by a latency threshold, and
/// the serving-tuned heat dynamics that make the delta path a delta.
/// `threads: 0` is the engine's default fan-out.
pub fn build_engine(sizes: &Sizes, threads: usize) -> Result<ServeEngine, ServeError> {
    let horizon_days = sizes.horizon_days();
    let config = ServeConfig {
        horizon_days,
        horizon_months: f64::from(horizon_days) / 30.0,
        threads,
        decay_per_day: 0.82,
        bucket_base: 3.0,
        bucket_hysteresis: 4.0,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(catalog(), schemes(), config)?;
    for i in 0..sizes.objects {
        let mut spec = ServeObject::new(
            format!("obj-{i:06}"),
            format!("account-{}", i % sizes.accounts),
            0.5 + (i as f64) * 0.173,
            TierId(i % 2),
        )
        .with_residency_days((i as u32 * 13) % 200);
        if i % 3 == 0 {
            spec = spec.with_latency_threshold(2.0);
        }
        engine.register(spec)?;
    }
    Ok(engine)
}

/// The trace, already resolved to engine ids (= registration order) and
/// split into each epoch's sequenced batches.
pub struct Fixture {
    pub sizes: Sizes,
    trace: Vec<Vec<EventColumns>>,
}

impl Fixture {
    /// Squared-uniform draws concentrate reads on a hot set that drifts by
    /// one object id per day, ~10% writes, volumes in (0.02, 1.3) GB.
    pub fn generate(sizes: Sizes, seed: u64) -> Fixture {
        let mut rng = Lcg::new(seed, 0);
        let n = sizes.objects as u32;
        let per_batch = sizes.events_per_epoch().div_ceil(sizes.batches_per_epoch);
        let mut trace = Vec::with_capacity(sizes.epochs as usize + 1);
        for epoch in 0..=sizes.epochs {
            let mut batches = vec![EventColumns::default(); sizes.batches_per_epoch];
            let mut k = 0usize;
            for d in 0..sizes.epoch_days {
                let day = epoch * sizes.epoch_days + d;
                for _ in 0..sizes.events_per_day {
                    let r = u64::from(rng.draw() % n);
                    let id = ((r * r / u64::from(n)) as u32 + day) % n;
                    let volume = 0.02 + f64::from(rng.draw() % 128) / 100.0;
                    let kind = if rng.draw() % 10 == 0 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    batches[k / per_batch].push_resolved(day, id, kind, volume);
                    k += 1;
                }
            }
            trace.push(batches);
        }
        Fixture { sizes, trace }
    }

    /// Delivery `seq` of the stream: batches are numbered across epochs.
    fn batch(&self, seq: u64) -> &EventColumns {
        let per_epoch = self.sizes.batches_per_epoch as u64;
        &self.trace[(seq / per_epoch) as usize][(seq % per_epoch) as usize]
    }

    fn first_seq(&self, epoch: u32) -> u64 {
        u64::from(epoch) * self.sizes.batches_per_epoch as u64
    }

    fn end_day(&self, epoch: u32) -> u32 {
        (epoch + 1) * self.sizes.epoch_days
    }
}

/// The four steps of an epoch, for a plain and a journaled engine alike.
trait Driver {
    fn ingest(&mut self, seq: u64, batch: &EventColumns) -> Result<IngestReport, ServeError>;
    fn advance_to(&mut self, day: u32) -> Result<(), ServeError>;
    fn resolve(&mut self) -> Result<ResolveOutcome, ServeError>;
    fn checkpoint_epoch(&mut self, marker: u64) -> Result<(), ServeError>;
}

impl Driver for ServeEngine {
    fn ingest(&mut self, seq: u64, batch: &EventColumns) -> Result<IngestReport, ServeError> {
        self.ingest_sequenced(seq, batch)
    }
    fn advance_to(&mut self, day: u32) -> Result<(), ServeError> {
        self.advance(day);
        Ok(())
    }
    fn resolve(&mut self) -> Result<ResolveOutcome, ServeError> {
        self.reoptimize()
    }
    fn checkpoint_epoch(&mut self, _marker: u64) -> Result<(), ServeError> {
        black_box(self.checkpoint());
        Ok(())
    }
}

impl<S: Storage> Driver for JournaledEngine<S> {
    fn ingest(&mut self, seq: u64, batch: &EventColumns) -> Result<IngestReport, ServeError> {
        self.ingest_sequenced(seq, batch)
    }
    fn advance_to(&mut self, day: u32) -> Result<(), ServeError> {
        self.advance(day)
    }
    fn resolve(&mut self) -> Result<ResolveOutcome, ServeError> {
        self.reoptimize()
    }
    fn checkpoint_epoch(&mut self, marker: u64) -> Result<(), ServeError> {
        self.checkpoint_durable(marker)
    }
}

/// Span names of the four steps and of a journaled repetition's recovery;
/// a span whose `<name>_s` is a declared metric is reported, any other is
/// only written to the trace file.
#[derive(Clone, Copy)]
struct Steps {
    ingest: &'static str,
    advance: &'static str,
    resolve_cold: &'static str,
    resolve_steady: &'static str,
    checkpoint: &'static str,
    recover: &'static str,
}

const PLAIN: Steps = Steps {
    ingest: "serve.ingest",
    advance: "serve.advance",
    resolve_cold: "serve.resolve_cold",
    resolve_steady: "serve.resolve_steady",
    checkpoint: "serve.checkpoint",
    recover: "serve.recover",
};
const JOURNALED: Steps = Steps {
    ingest: "serve.journal_ingest",
    advance: "serve.journal_advance",
    resolve_cold: "serve.resolve_cold",
    resolve_steady: "serve.resolve_steady",
    checkpoint: "serve.checkpoint_durable",
    recover: "serve.recover",
};
/// The `threads: 1` baseline repetition, which also counts allocations.
const PLAIN_T1: Steps = Steps {
    ingest: "t1.ingest",
    advance: "t1.advance",
    resolve_cold: "t1.resolve_cold",
    resolve_steady: "serve.resolve_t1",
    checkpoint: "t1.checkpoint",
    recover: "t1.recover",
};
/// The same over `MemStorage`, so its checkpoint and recovery are not the
/// plain engine's nor the file journal's.
const JOURNALED_T1: Steps = Steps {
    ingest: "t1.journal_ingest",
    checkpoint: "t1.checkpoint_durable",
    ..PLAIN_T1
};

/// What one pass over the timed epochs measured.
#[derive(Debug, Default, Clone)]
struct LoopStats {
    wall_s: f64,
    /// `advance` + `reoptimize` + checkpoint of every epoch but the first.
    epoch_ms: Vec<f64>,
    folded: u64,
    quarantined: u64,
    /// Over the steady epochs (all but the first).
    rows_patched: u64,
    retier_decisions: u64,
}

/// Drive `epochs` of the trace through `driver`. Every `Result` is an op.
fn run_epochs<D: Driver>(
    driver: &mut D,
    fx: &Fixture,
    epochs: Range<u32>,
    steps: Steps,
    rep: u32,
    run: &mut Run,
) -> Result<LoopStats, Failed> {
    let mut stats = LoopStats::default();
    let started = Instant::now();
    for epoch in epochs {
        trace::set_context(rep, epoch);
        trace::span("epoch", || -> Result<(), Failed> {
            let first = fx.first_seq(epoch);
            for seq in first..first + fx.sizes.batches_per_epoch as u64 {
                let report = trace::span(steps.ingest, || driver.ingest(seq, fx.batch(seq)));
                let report = run.op("ingest_sequenced", report)?;
                stats.folded += report.folded;
                stats.quarantined += report.quarantined;
            }
            let boundary = Instant::now();
            let advanced = trace::span(steps.advance, || driver.advance_to(fx.end_day(epoch)));
            run.op("advance", advanced)?;
            let resolve = if epoch == 0 {
                steps.resolve_cold
            } else {
                steps.resolve_steady
            };
            let outcome = trace::span(resolve, || driver.resolve());
            let outcome = run.op("reoptimize", outcome)?;
            let saved = trace::span(steps.checkpoint, || {
                driver.checkpoint_epoch(u64::from(epoch) + 1)
            });
            run.op("checkpoint", saved)?;
            if epoch > 0 {
                stats.epoch_ms.push(boundary.elapsed().as_secs_f64() * 1e3);
                stats.rows_patched += outcome.rows_patched as u64;
                stats.retier_decisions += outcome.retier_decisions as u64;
            }
            Ok(())
        })?;
    }
    stats.wall_s = started.elapsed().as_secs_f64();
    Ok(stats)
}

/// Checkpoints of a never-crashed plain engine, which every repetition and
/// every recovery must reproduce byte for byte. A checkpoint embeds the
/// configured thread count, so there is one pair for the default fan-out
/// and one for `threads: 1`; the state in them is compared field by field.
struct Reference {
    /// After the timed epochs: `[default threads, threads: 1]`.
    timed: [Vec<u8>; 2],
    /// After the one epoch more that follows a recovery.
    last: [Vec<u8>; 2],
}

impl Reference {
    fn timed(&self, threads: usize) -> &[u8] {
        &self.timed[threads.min(1)]
    }
    fn last(&self, threads: usize) -> &[u8] {
        &self.last[threads.min(1)]
    }
}

/// Heat bits and placement of every object agree.
fn same_state(a: &ServeEngine, b: &ServeEngine) -> bool {
    a.len() == b.len()
        && (0..a.len() as u32).all(|id| {
            a.heat(id).map(f64::to_bits) == b.heat(id).map(f64::to_bits)
                && a.placement(id) == b.placement(id)
        })
}

/// Before timing: the incremental re-solve equals the batch reference bit
/// for bit on epochs 0, 1, every 6th and the last, and a `threads: 1`
/// engine ends every compared epoch on the same heat bits and placements
/// as the default fan-out.
fn verify_plain(fx: &Fixture, run: &mut Run) -> Result<Reference, Failed> {
    let mut engine = run.op("build engine", build_engine(&fx.sizes, 0))?;
    let mut sequential = run.op("build engine", build_engine(&fx.sizes, 1))?;
    let mut timed = [Vec::new(), Vec::new()];
    for epoch in 0..=fx.sizes.epochs {
        let first = fx.first_seq(epoch);
        for seq in first..first + fx.sizes.batches_per_epoch as u64 {
            run.op(
                "ingest_sequenced",
                engine.ingest_sequenced(seq, fx.batch(seq)),
            )?;
            run.op(
                "ingest_sequenced",
                sequential.ingest_sequenced(seq, fx.batch(seq)),
            )?;
        }
        engine.advance(fx.end_day(epoch));
        sequential.advance(fx.end_day(epoch));
        let compared = epoch <= 1 || epoch % 6 == 0 || epoch + 1 >= fx.sizes.epochs;
        let cold = if compared {
            Some(run.op("reference::full_resolve", reference::full_resolve(&engine))?)
        } else {
            None
        };
        let outcome = run.op("reoptimize", engine.reoptimize())?;
        let outcome_seq = run.op("reoptimize", sequential.reoptimize())?;
        if let Some(cold) = cold {
            let same = outcome.accounts.len() == cold.len()
                && outcome.accounts.iter().zip(&cold).all(|(inc, full)| {
                    inc.account == full.account
                        && inc.assignment.choices == full.assignment.choices
                        && inc.assignment.objective.to_bits() == full.assignment.objective.to_bits()
                });
            run.check("incremental re-solve == reference::full_resolve", same);
            run.check(
                "threads: 1 state == default threads",
                same_state(&engine, &sequential),
            );
        }
        run.check(
            "threads: 1 objective bits == default threads",
            outcome.total_objective.to_bits() == outcome_seq.total_objective.to_bits(),
        );
        if epoch + 1 == fx.sizes.epochs {
            timed = [engine.checkpoint(), sequential.checkpoint()];
        }
    }
    run.check(
        "no event was dropped or quarantined",
        engine.dropped_events() == 0 && engine.quarantine().is_clean(),
    );
    Ok(Reference {
        timed,
        last: [engine.checkpoint(), sequential.checkpoint()],
    })
}

/// What a repetition runs on and under which names.
#[derive(Clone, Copy)]
struct Rep<'a> {
    fx: &'a Fixture,
    reference: &'a Reference,
    threads: usize,
    steps: Steps,
    id: u32,
}

/// One repetition on a plain engine; its final checkpoint must be the
/// reference's.
fn plain_rep(rep: Rep, run: &mut Run) -> Result<LoopStats, Failed> {
    let fx = rep.fx;
    let mut engine = run.op("build engine", build_engine(&fx.sizes, rep.threads))?;
    let stats = trace::span("rep", || {
        run_epochs(&mut engine, fx, 0..fx.sizes.epochs, rep.steps, rep.id, run)
    })?;
    run.check(
        "repetition ends on the reference checkpoint",
        engine.checkpoint() == rep.reference.timed(rep.threads),
    );
    run.check(
        "every event was folded",
        stats.folded == (fx.sizes.events_per_epoch() as u64) * u64::from(fx.sizes.epochs),
    );
    Ok(stats)
}

/// What a journaled repetition adds to [`LoopStats`].
#[derive(Debug, Default, Clone)]
struct DurableStats {
    looped: LoopStats,
    replayed: u64,
    /// Storage traffic of the timed epochs / of the recovery, when the
    /// storage was a [`TimedStorage`].
    loop_counts: StorageCounts,
    recover_counts: StorageCounts,
}

/// One repetition behind the journal: the timed epochs, then half an epoch
/// more, a crash, and a timed recovery from whatever `reopen` finds; the
/// producer re-delivers from where recovery says it stands, and one more
/// epoch boundary must land on the reference's last checkpoint.
///
/// `reopen` receives the crashed storage and returns what a restarted
/// process would see.
fn journaled_rep<S: Storage>(
    rep: Rep,
    storage: S,
    reopen: impl FnOnce(S) -> Result<S, ServeError>,
    counts: impl Fn(&S) -> StorageCounts,
    run: &mut Run,
) -> Result<DurableStats, Failed> {
    let Rep {
        fx,
        reference,
        threads,
        steps,
        id: rep,
    } = rep;
    let engine = run.op("build engine", build_engine(&fx.sizes, threads))?;
    let mut journaled = run.op(
        "JournaledEngine::create",
        JournaledEngine::create(engine, storage, JOURNAL),
    )?;
    let epochs = fx.sizes.epochs;
    let looped = trace::span("rep", || {
        run_epochs(&mut journaled, fx, 0..epochs, steps, rep, run)
    })?;
    run.check(
        "journaled repetition ends on the reference checkpoint",
        journaled.engine().checkpoint() == reference.timed(threads),
    );
    let loop_counts = counts(journaled.journal().storage());

    // Mid-epoch crash: half of the next epoch's deliveries are journaled
    // but not yet behind an epoch boundary.
    let first = fx.first_seq(epochs);
    let half = fx.sizes.batches_per_epoch as u64 / 2;
    for seq in first..first + half {
        run.op(
            "ingest_sequenced",
            journaled.ingest_sequenced(seq, fx.batch(seq)),
        )?;
    }
    let crashed = journaled.crash();
    trace::set_context(rep, epochs);
    let recovered = trace::span(steps.recover, || {
        let storage = reopen(crashed)?;
        JournaledEngine::recover(storage, JOURNAL, catalog(), schemes(), || {
            build_engine(&fx.sizes, threads)
        })
    });
    let (mut journaled, report) = run.op("JournaledEngine::recover", recovered)?;
    let recover_counts = counts(journaled.journal().storage());
    run.check(
        "recovery restored the last durable checkpoint",
        !report.started_fresh && report.marker == u64::from(epochs),
    );
    run.check(
        "recovery lost no synced delivery",
        report.resume_deliveries >= first,
    );

    for seq in report.resume_deliveries..first + fx.sizes.batches_per_epoch as u64 {
        run.op(
            "ingest_sequenced",
            journaled.ingest_sequenced(seq, fx.batch(seq)),
        )?;
    }
    run.op("advance", journaled.advance(fx.end_day(epochs)))?;
    run.op("reoptimize", journaled.reoptimize())?;
    run.check(
        "recovered engine == never-crashed engine",
        journaled.engine().checkpoint() == reference.last(threads),
    );
    Ok(DurableStats {
        looped,
        replayed: report.replayed,
        loop_counts,
        recover_counts,
    })
}

/// A journaled repetition over a fresh directory of real files; the crash
/// drops the handles and recovery reopens the directory.
fn file_rep(rep: Rep, dir: &Path, timed: bool, run: &mut Run) -> Result<DurableStats, Failed> {
    // The journal refuses a dirty store.
    if dir.exists() {
        run.op("clear journal directory", std::fs::remove_dir_all(dir))?;
    }
    let storage = run.op("FileStorage::create", FileStorage::create(dir))?;
    let reopen_dir = dir.to_path_buf();
    let out = if timed {
        journaled_rep(
            rep,
            TimedStorage::new(storage),
            move |crashed| {
                drop(crashed);
                Ok(TimedStorage::new(FileStorage::create(reopen_dir)?))
            },
            TimedStorage::counts,
            run,
        )
    } else {
        journaled_rep(
            rep,
            storage,
            move |crashed| {
                drop(crashed);
                Ok(FileStorage::create(reopen_dir)?)
            },
            |_| StorageCounts::default(),
            run,
        )
    };
    run.op("remove journal directory", std::fs::remove_dir_all(dir))?;
    out
}

/// A journaled repetition over `MemStorage`; the crash discards every byte
/// that was not synced, so recovery sees only what was durable.
fn mem_rep(rep: Rep, run: &mut Run) -> Result<DurableStats, Failed> {
    journaled_rep(
        rep,
        MemStorage::new(),
        |mut crashed| {
            crashed.crash();
            Ok(crashed)
        },
        |_| StorageCounts::default(),
        run,
    )
}

/// Set-up: registration and placement of the fleet plus generation and
/// pre-splitting of the trace. (Each repetition registers its own fleet
/// again, outside its timed loop.)
fn setup(args: &Args, sizes: Sizes, run: &mut Run) -> Option<Fixture> {
    crate::repeat_setup(args, run, |run| {
        let engine = trace::span("serve.register", || build_engine(&sizes, 0));
        let fx = Fixture::generate(sizes, args.seed);
        run.op("build engine", engine).ok().map(|_| fx)
    })
}

/// Resident bytes one object costs: VmRSS after the cold epoch minus VmRSS
/// before the engine existed. Must run before anything else builds an
/// engine, or the allocator hands back memory it already holds.
fn rss_per_object(sizes: Sizes, seed: u64, run: &mut Run) -> Result<(), Failed> {
    let fx = Fixture::generate(sizes, seed);
    let before = stats::proc_status_bytes("VmRSS");
    let mut engine = run.op("build engine", build_engine(&sizes, 0))?;
    trace::set_enabled(false);
    run_epochs(&mut engine, &fx, 0..1, PLAIN, 0, run)?;
    let after = stats::proc_status_bytes("VmRSS");
    run.value(
        "serve.rss_bytes_per_object",
        after.saturating_sub(before) as f64 / sizes.objects as f64,
    );
    Ok(())
}

fn journal_dir(args: &Args) -> PathBuf {
    args.out.join(format!("wal-{}", std::process::id()))
}

pub fn run(args: &Args, run: &mut Run, durable: bool) {
    let sizes = Sizes::new(args.quick);
    if args.traced && rss_per_object(sizes, args.seed, run).is_err() {
        return;
    }
    let Some(fx) = setup(args, sizes, run) else {
        return;
    };
    let dir = journal_dir(args);

    let t = Instant::now();
    let Ok(reference) = verify_plain(&fx, run) else {
        return;
    };
    let at = |steps: Steps, threads: usize, id: u32| Rep {
        fx: &fx,
        reference: &reference,
        threads,
        steps,
        id,
    };
    if durable && mem_rep(at(JOURNALED, 0, 0), run).is_err() {
        return;
    }
    run.value("harness.verify_s", t.elapsed().as_secs_f64());

    // The timed loop, in rounds. A traced run adds a traced repetition of
    // the workload's own loop to each round, and `serve_durable` also the
    // plain loop and the in-memory journal for the overhead ratios; the
    // order rotates from round to round so that no loop always runs in the
    // wake of the same other one.
    #[derive(Clone, Copy)]
    enum Loop {
        Own,
        OwnTraced,
        Plain,
        Mem,
    }
    let round: &[Loop] = match (args.traced, durable) {
        (false, _) => &[Loop::Own],
        (true, false) => &[Loop::Own, Loop::OwnTraced],
        (true, true) => &[Loop::Own, Loop::OwnTraced, Loop::Plain, Loop::Mem],
    };
    let min_rounds = if args.traced { 3 } else { crate::MIN_REPS };
    let mut untraced: Vec<LoopStats> = Vec::new();
    let mut traced_wall = Vec::new();
    let (mut plain_wall, mut mem_wall) = (Vec::new(), Vec::new());
    let mut last_timed = DurableStats::default();
    stats::reset_peak_rss();
    let started = Instant::now();
    let mut rep = 0u32;
    'rounds: while rep < min_rounds || started.elapsed().as_secs_f64() < args.seconds {
        for i in 0..round.len() {
            let which = round[(i + rep as usize) % round.len()];
            trace::set_enabled(matches!(which, Loop::OwnTraced));
            let outcome = match (which, durable) {
                (Loop::Own, false) => plain_rep(at(PLAIN, 0, rep), run).map(|s| untraced.push(s)),
                (Loop::OwnTraced, false) => {
                    plain_rep(at(PLAIN, 0, rep), run).map(|s| traced_wall.push(s.wall_s))
                }
                (Loop::Own, true) => file_rep(at(JOURNALED, 0, rep), &dir, false, run)
                    .map(|s| untraced.push(s.looped)),
                (Loop::OwnTraced, true) => {
                    file_rep(at(JOURNALED, 0, rep), &dir, true, run).map(|s| {
                        traced_wall.push(s.looped.wall_s);
                        last_timed = s;
                    })
                }
                (Loop::Plain, _) => {
                    plain_rep(at(PLAIN, 0, rep), run).map(|s| plain_wall.push(s.wall_s))
                }
                (Loop::Mem, _) => {
                    mem_rep(at(JOURNALED, 0, rep), run).map(|s| mem_wall.push(s.looped.wall_s))
                }
            };
            trace::set_enabled(false);
            if outcome.is_err() {
                break 'rounds;
            }
        }
        rep += 1;
    }
    if untraced.is_empty() {
        return;
    }

    let events = (sizes.events_per_epoch() as u64 * u64::from(sizes.epochs)) as f64;
    let walls: Vec<f64> = untraced.iter().map(|s| s.wall_s).collect();
    let events_per_s: Vec<f64> = walls.iter().map(|w| events / w).collect();
    let epoch_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|s| s.epoch_ms.iter().copied())
        .collect();
    run.samples("work_per_s", &events_per_s);
    run.samples("step_p50_ms", &epoch_ms);
    run.value("harness.reps", untraced.len() as f64);
    if !args.traced {
        return;
    }

    // --- per-layer metrics --------------------------------------------------
    // p90 from 101 samples on; fewer (only at --quick) support less.
    run.value("epoch_p90_ms", stats::supported_tail(&epoch_ms).1);
    let steady_epochs = f64::from(sizes.epochs - 1);
    let first = &untraced[0];
    run.value("serve.ingest_events", first.folded as f64);
    run.value("serve.quarantined_events", first.quarantined as f64);
    run.value("serve.rows_patched", first.rows_patched as f64);
    run.value(
        "serve.patch_ratio",
        first.rows_patched as f64 / (sizes.objects as f64 * steady_epochs),
    );
    run.value("serve.retier_decisions", first.retier_decisions as f64);
    run.value("serve.checkpoint_bytes", reference.timed(0).len() as f64);

    // The `threads: 1` baseline, which also counts allocations per step.
    trace::set_enabled(true);
    crate::alloc::set_counting(true);
    let t1 = if durable {
        mem_rep(at(JOURNALED_T1, 1, rep), run).map(|_| ())
    } else {
        plain_rep(at(PLAIN_T1, 1, rep), run).map(|_| ())
    };
    crate::alloc::set_counting(false);
    trace::set_enabled(false);
    if t1.is_err() {
        return;
    }

    probes(&fx, &reference, run);
    if durable {
        let plain = stats::median(&plain_wall);
        run.value(
            "serve.journal_overhead_pct",
            (stats::median(&walls) / plain - 1.0) * 100.0,
        );
        run.value(
            "serve.journal_mem_overhead_pct",
            (stats::median(&mem_wall) / plain - 1.0) * 100.0,
        );
        wal_metrics(&fx, &last_timed, events, run);
    }

    let spans = trace::drain();
    crate::record_span_seconds(run, &spans);
    crate::record_trace_summary(run, &spans, &walls, &traced_wall);
    if let Some(resolve) = run.get("serve.resolve_steady_s").map(|m| m.summary.median) {
        run.value(
            "serve.decisions_per_s",
            sizes.objects as f64 * steady_epochs / resolve,
        );
    }
    let allocs = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.allocs)
            .sum::<u64>() as f64
    };
    if durable {
        run.value("serve.journal_ingest_allocs", allocs(JOURNALED_T1.ingest));
    } else {
        run.value("serve.ingest_allocs", allocs(PLAIN_T1.ingest));
        run.value("serve.checkpoint_allocs", allocs(PLAIN_T1.checkpoint));
    }
    run.value(
        "serve.resolve_allocs",
        allocs(PLAIN_T1.resolve_cold) + allocs(PLAIN_T1.resolve_steady),
    );
    run.spans = spans;
}

/// Median seconds of three runs of `f`.
fn probe<R>(mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}

/// Direct probes outside the loop: restoring a checkpoint, and the cost
/// table the re-solve patches — a full build against patching 5% of a
/// fleet-sized problem's rows.
fn probes(fx: &Fixture, reference: &Reference, run: &mut Run) {
    run.value(
        "serve.restore_s",
        probe(|| ServeEngine::restore(catalog(), schemes(), reference.timed(0))),
    );
    run.check(
        "checkpoint restores",
        ServeEngine::restore(catalog(), schemes(), reference.timed(0)).is_ok(),
    );

    let partitions: Vec<PartitionSpec> = (0..fx.sizes.objects)
        .map(|i| {
            let mut spec = PartitionSpec::new(
                i,
                format!("obj-{i:06}"),
                0.5 + i as f64 * 0.173,
                (i % 97) as f64,
            )
            .with_current_tier(TierId(i % 2));
            spec.compression_options = schemes();
            spec
        })
        .collect();
    let mut problem = OptAssignProblem::new(
        catalog(),
        partitions,
        f64::from(fx.sizes.horizon_days()) / 30.0,
    );
    run.value(
        "optassign.costtable_build_s",
        probe(|| CostTable::build(&problem)),
    );
    let mut table = CostTable::build(&problem);
    let rows: Vec<usize> = (0..fx.sizes.objects).step_by(20).collect();
    for &row in &rows {
        problem.partitions[row].predicted_accesses += 10.0;
    }
    run.value(
        "optassign.patch_rows_s",
        probe(|| table.patch_rows(&problem, &rows)),
    );
    let rebuilt = CostTable::build(&problem);
    let same = rows
        .iter()
        .all(|&row| table.min_feasible(row) == rebuilt.min_feasible(row));
    run.check(
        "patched rows == rebuilt rows",
        table.patch_rows(&problem, &rows).is_ok() && same,
    );
}

/// The wal layer's share of one traced journaled repetition, plus direct
/// probes of the record codec over every batch of the timed epochs.
fn wal_metrics(fx: &Fixture, timed: &DurableStats, events: f64, run: &mut Run) {
    let c = timed.loop_counts;
    run.value("wal.storage_appends", c.appends as f64);
    run.value("wal.bytes_appended", c.bytes_appended as f64);
    run.value("wal.storage_syncs", c.syncs as f64);
    run.value("wal.checkpoint_bytes_written", c.atomic_bytes as f64);
    run.value("wal.storage_deletes", c.deletes as f64);
    run.value("wal.bytes_per_event", c.bytes_appended as f64 / events);
    // An event is 21 bytes of columns (4 + 4 + 4 + 1 + 8).
    run.value(
        "wal.write_amp",
        (c.bytes_appended + c.atomic_bytes) as f64 / (events * 21.0),
    );
    run.value("wal.replayed_records", timed.replayed as f64);
    run.value(
        "wal.recover_read_bytes",
        timed.recover_counts.read_bytes as f64,
    );

    let last = fx.first_seq(fx.sizes.epochs);
    let mut frames = Vec::new();
    run.value(
        "wal.encode_s",
        probe(|| {
            frames = (0..last)
                .map(|seq| encode_record(seq, fx.batch(seq)))
                .collect::<Vec<_>>();
        }),
    );
    let bytes: usize = frames.iter().map(Vec::len).sum();
    let crc_s = probe(|| frames.iter().fold(0u32, |acc, f| acc ^ crc32(f)));
    run.value("wal.crc_mb_s", bytes as f64 / 1e6 / crc_s);
    let mut valid = 0usize;
    run.value(
        "wal.decode_s",
        probe(|| {
            valid = frames
                .iter()
                .filter(|f| matches!(decode_frame(f, 0), FrameOutcome::Valid { .. }))
                .count();
        }),
    );
    run.check("every encoded frame decodes", valid == frames.len());
}

/// One sweep point: events/s and median epoch latency of the plain loop.
pub fn sweep_point(
    sizes: Sizes,
    threads: usize,
    seed: u64,
    reps: u32,
    run: &mut Run,
) -> Option<(f64, f64)> {
    let fx = Fixture::generate(sizes, seed);
    let mut walls = Vec::new();
    let mut epoch_ms = Vec::new();
    for rep in 0..reps {
        let mut engine = run.op("build engine", build_engine(&sizes, threads)).ok()?;
        let stats = run_epochs(&mut engine, &fx, 0..sizes.epochs, PLAIN, rep, run).ok()?;
        walls.push(stats.wall_s);
        epoch_ms.extend(stats.epoch_ms);
    }
    let events = (sizes.events_per_epoch() as u64 * u64::from(sizes.epochs)) as f64;
    Some((events / stats::median(&walls), stats::median(&epoch_ms)))
}
