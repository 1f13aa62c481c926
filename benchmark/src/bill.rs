//! `bill_replay`: what-if billing of a fleet on lifecycle schedules.
//!
//! Three ways into the billing engine per repetition: a large pre-resolved
//! column trace through `run_columns` (a working set well beyond the 4 MiB
//! L2), the cold path from string events (`run_days`, which interns names
//! and builds columns first) with its month-aligned sibling `run`, and a
//! cache-resident replay of the `BENCH_7` shape. `cloudsim` and its
//! `parallel` fan-out do all the work and the serving engine none; the
//! columns are used differently from serve intake, so a columns change
//! that helps one and hurts the other shows.

use crate::metrics::{Failed, Run};
use crate::rng::Lcg;
use crate::{stats, trace, Args};
use scope_cloudsim::reference::run_days_reference;
use scope_cloudsim::{
    parallel_map, AccessEvent, AccessKind, BillingEvent, BillingReport, BillingSimulator,
    CloudSimError, EventColumns, ObjectSpec, Placement, PlacementSchedule, TierCatalog, TierId,
    DAYS_PER_MONTH,
};
use std::hint::black_box;
use std::time::Instant;

const HORIZON_MONTHS: u32 = 6;
const HORIZON_DAYS: u32 = HORIZON_MONTHS * DAYS_PER_MONTH;

#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub objects: usize,
    pub events: usize,
    /// String events of the cold path, on the same fleet.
    pub cold_events: usize,
    pub monthly_events: usize,
    pub small_objects: usize,
    pub small_events: usize,
}

impl Sizes {
    pub fn new(quick: bool) -> Sizes {
        if quick {
            Sizes {
                objects: 2_000,
                events: 100_000,
                cold_events: 20_000,
                monthly_events: 5_000,
                small_objects: 200,
                small_events: 50_000,
            }
        } else {
            Sizes {
                objects: 100_000,
                events: 4_000_000,
                cold_events: 400_000,
                monthly_events: 100_000,
                small_objects: 1_000,
                small_events: 1_000_000,
            }
        }
    }

    fn events_per_rep(&self) -> f64 {
        (self.events + self.cold_events + self.monthly_events + self.small_events) as f64
    }
}

/// `(kind, volume)` of one access: ~10% writes, 0.01 to 50 GB.
fn access(rng: &mut Lcg) -> (AccessKind, f64) {
    let kind = if rng.draw() % 10 == 0 {
        AccessKind::Write
    } else {
        AccessKind::Read
    };
    (kind, 0.01 + f64::from(rng.draw() % 5000) / 100.0)
}

/// `objects` objects named `obj-<i>` on lifecycle schedules: three in four
/// move to another tier at a period boundary (`scope_bench::billing_fixture`'s
/// shape). Interned ids are placement order.
fn place_fleet(objects: usize, rng: &mut Lcg) -> Result<BillingSimulator, CloudSimError> {
    let catalog = TierCatalog::azure_adls_gen2();
    let tiers = catalog.len();
    let mut sim = BillingSimulator::new(catalog);
    for i in 0..objects {
        let start = TierId(rng.below(tiers));
        let later = TierId(rng.below(tiers));
        let mut schedule = PlacementSchedule::constant(Placement::uncompressed(start));
        if rng.draw() % 4 > 0 {
            let boundary = (1 + rng.below(HORIZON_MONTHS as usize - 1)) as u32 * DAYS_PER_MONTH;
            schedule = schedule.with_transition(boundary, Placement::uncompressed(later));
        }
        let spec = ObjectSpec::new(format!("obj-{i}"), 1.0 + f64::from(rng.draw() % 500))
            .on_tier(start)
            .with_residency_days(rng.draw() % 120);
        sim.place_scheduled(spec, schedule)?;
    }
    Ok(sim)
}

fn string_events(objects: usize, events: usize, rng: &mut Lcg) -> Vec<BillingEvent> {
    (0..events)
        .map(|_| {
            let object = format!("obj-{}", rng.below(objects));
            let day = rng.draw() % HORIZON_DAYS;
            match access(rng) {
                (AccessKind::Write, volume) => BillingEvent::write(object, day, volume),
                (AccessKind::Read, volume) => BillingEvent::read(object, day, volume),
            }
        })
        .collect()
}

pub struct Fixture {
    sizes: Sizes,
    fleet: BillingSimulator,
    columns: EventColumns,
    cold: Vec<BillingEvent>,
    monthly: Vec<AccessEvent>,
    small_fleet: BillingSimulator,
    small_columns: EventColumns,
}

/// Build everything the timed loop reads. Also returns the small phase's
/// string events, which only the verification pass needs.
fn setup(sizes: Sizes, seed: u64, run: &mut Run) -> Result<(Fixture, Vec<BillingEvent>), Failed> {
    let mut rng = Lcg::new(seed, 1);
    let fleet = trace::span("cloudsim.place", || place_fleet(sizes.objects, &mut rng));
    let fleet = run.op("place_scheduled", fleet)?;
    let mut columns = EventColumns::default();
    for _ in 0..sizes.events {
        let (kind, volume) = access(&mut rng);
        columns.push_resolved(
            rng.draw() % HORIZON_DAYS,
            rng.below(sizes.objects) as u32,
            kind,
            volume,
        );
    }
    let cold = string_events(sizes.objects, sizes.cold_events, &mut rng);
    let monthly = (0..sizes.monthly_events)
        .map(|_| {
            let object = format!("obj-{}", rng.below(sizes.objects));
            let month = rng.draw() % HORIZON_MONTHS;
            match access(&mut rng) {
                (AccessKind::Write, volume) => AccessEvent::write(object, month, volume),
                (AccessKind::Read, volume) => AccessEvent::read(object, month, volume),
            }
        })
        .collect();

    let mut rng = Lcg::new(seed, 2);
    let small_fleet = trace::span("cloudsim.place", || {
        place_fleet(sizes.small_objects, &mut rng)
    });
    let small_fleet = run.op("place_scheduled", small_fleet)?;
    let small_events = string_events(sizes.small_objects, sizes.small_events, &mut rng);
    let small_columns = small_fleet.build_columns(&small_events);
    let fixture = Fixture {
        sizes,
        fleet,
        columns,
        cold,
        monthly,
        small_fleet,
        small_columns,
    };
    Ok((fixture, small_events))
}

/// Before timing: the sharded engine equals the `threads: 1` replay and the
/// preserved sequential engine bit for bit, and drops nothing. Returns the
/// large phase's report, which every timed replay must reproduce.
fn verify(
    fx: &Fixture,
    small_events: &[BillingEvent],
    run: &mut Run,
) -> Result<BillingReport, Failed> {
    let small = run.op(
        "run_columns",
        fx.small_fleet.run_columns(HORIZON_DAYS, &fx.small_columns),
    )?;
    let small_t1 = run.op(
        "run_columns_with_threads",
        fx.small_fleet
            .run_columns_with_threads(HORIZON_DAYS, &fx.small_columns, 1),
    )?;
    let small_ref = run.op(
        "run_days_reference",
        run_days_reference(&fx.small_fleet, HORIZON_DAYS, small_events),
    )?;
    run.check(
        "small phase: default threads == threads: 1",
        small == small_t1,
    );
    run.check(
        "small phase: sharded == cloudsim::reference",
        small == small_ref,
    );
    run.check("small phase dropped no events", small.dropped_events == 0);

    let large = run.op(
        "run_columns",
        fx.fleet.run_columns(HORIZON_DAYS, &fx.columns),
    )?;
    let large_t1 = run.op(
        "run_columns_with_threads",
        fx.fleet
            .run_columns_with_threads(HORIZON_DAYS, &fx.columns, 1),
    )?;
    run.check(
        "large phase: default threads == threads: 1",
        large == large_t1,
    );
    run.check("large phase dropped no events", large.dropped_events == 0);

    let cold = run.op("run_days", fx.fleet.run_days(HORIZON_DAYS, &fx.cold))?;
    let cold_ref = run.op(
        "run_days_reference",
        run_days_reference(&fx.fleet, HORIZON_DAYS, &fx.cold),
    )?;
    run.check("cold path == cloudsim::reference", cold == cold_ref);
    // Pre-resolved ids are placement order: spot-check against the intern table.
    let probe: Vec<BillingEvent> = [0, fx.sizes.objects / 2, fx.sizes.objects - 1]
        .iter()
        .map(|i| BillingEvent::read(format!("obj-{i}"), 0, 1.0))
        .collect();
    let ids = fx.fleet.build_columns(&probe).object_ids;
    run.check(
        "interned ids are placement order",
        ids == [
            0,
            (fx.sizes.objects / 2) as u32,
            (fx.sizes.objects - 1) as u32,
        ],
    );
    Ok(large)
}

/// Wall-clock seconds of one repetition (four replays), of its large
/// replay and of its cache-resident one.
#[derive(Debug, Default, Clone, Copy)]
struct RepSeconds {
    wall: f64,
    large: f64,
    small: f64,
}

fn timed<R>(span: &'static str, f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let out = trace::span(span, f);
    (t.elapsed().as_secs_f64(), out)
}

fn rep(fx: &Fixture, expected: &BillingReport, run: &mut Run) -> Result<RepSeconds, Failed> {
    let started = Instant::now();
    let (large, report) = timed("cloudsim.run_columns", || {
        fx.fleet.run_columns(HORIZON_DAYS, &fx.columns)
    });
    let report = run.op("run_columns", report)?;
    let cold = trace::span("cloudsim.run_days", || {
        fx.fleet.run_days(HORIZON_DAYS, &fx.cold)
    });
    black_box(run.op("run_days", cold)?);
    let monthly = trace::span("cloudsim.run_monthly", || {
        fx.fleet.run(HORIZON_MONTHS, &fx.monthly)
    });
    black_box(run.op("run", monthly)?);
    let (small, report_small) = timed("cloudsim.run_columns_small", || {
        fx.small_fleet.run_columns(HORIZON_DAYS, &fx.small_columns)
    });
    black_box(run.op("run_columns", report_small)?);
    let wall = started.elapsed().as_secs_f64();
    run.check(
        "replay reproduces the verified report",
        report.total().to_bits() == expected.total().to_bits() && report.dropped_events == 0,
    );
    Ok(RepSeconds { wall, large, small })
}

pub fn run(args: &Args, run: &mut Run) {
    let sizes = Sizes::new(args.quick);
    let Some((fx, small_events)) =
        crate::repeat_setup(args, run, |run| setup(sizes, args.seed, run).ok())
    else {
        return;
    };

    let t = Instant::now();
    let Ok(expected) = verify(&fx, &small_events, run) else {
        return;
    };
    drop(small_events);
    run.value("harness.verify_s", t.elapsed().as_secs_f64());

    // The timed loop, in rounds. A traced run adds to each round a traced
    // repetition and the `threads: 1` replay the fan-out is compared with
    // (allocations counted), so that both ratios are between neighbours in
    // time.
    let mut untraced: Vec<RepSeconds> = Vec::new();
    let mut traced_wall = Vec::new();
    let min_rounds = if args.traced { 3 } else { crate::MIN_REPS };
    stats::reset_peak_rss();
    let started = Instant::now();
    let mut round = 0u32;
    while round < min_rounds || started.elapsed().as_secs_f64() < args.seconds {
        trace::set_context(round, 0);
        let Ok(seconds) = rep(&fx, &expected, run) else {
            break;
        };
        untraced.push(seconds);
        if args.traced {
            trace::set_enabled(true);
            let traced = trace::span("rep", || rep(&fx, &expected, run));
            crate::alloc::set_counting(true);
            let t1 = trace::span("cloudsim.run_columns_t1", || {
                fx.fleet
                    .run_columns_with_threads(HORIZON_DAYS, &fx.columns, 1)
            });
            crate::alloc::set_counting(false);
            trace::set_enabled(false);
            let (Ok(traced), Ok(_)) = (traced, run.op("run_columns_with_threads", t1)) else {
                break;
            };
            traced_wall.push(traced.wall);
        }
        round += 1;
    }
    if untraced.is_empty() {
        return;
    }

    let walls: Vec<f64> = untraced.iter().map(|s| s.wall).collect();
    let large_s: Vec<f64> = untraced.iter().map(|s| s.large).collect();
    run.samples(
        "work_per_s",
        &walls
            .iter()
            .map(|w| sizes.events_per_rep() / w)
            .collect::<Vec<_>>(),
    );
    run.samples(
        "step_p50_ms",
        &large_s.iter().map(|s| s * 1e3).collect::<Vec<_>>(),
    );
    run.value("harness.reps", untraced.len() as f64);
    if !args.traced {
        return;
    }

    // --- per-layer metrics --------------------------------------------------
    run.samples(
        "cloudsim.run_columns_small_events_per_s",
        &untraced
            .iter()
            .map(|s| sizes.small_events as f64 / s.small)
            .collect::<Vec<_>>(),
    );
    run.value("cloudsim.dropped_events", expected.dropped_events as f64);

    // What a caller pays outside the billing calls: building columns from
    // strings, and slicing a day log into twelve epoch windows.
    trace::set_enabled(true);
    trace::span("cloudsim.build_columns", || {
        black_box(fx.fleet.build_columns(&fx.cold))
    });
    trace::span("cloudsim.filter_day_range", || {
        for window in 0..HORIZON_DAYS / 15 {
            black_box(fx.columns.filter_day_range(window * 15, (window + 1) * 15));
        }
    });
    trace::set_enabled(false);
    // The fan-out itself: a no-op closure over one item per thread.
    let items = vec![0u8; scope_cloudsim::parallel::default_threads()];
    let calls = 2_000;
    let t = Instant::now();
    for _ in 0..calls {
        black_box(parallel_map(&items, |_, _| ()));
    }
    run.value(
        "cloudsim.parallel_map_overhead_us",
        t.elapsed().as_secs_f64() * 1e6 / f64::from(calls),
    );

    let spans = trace::drain();
    crate::record_span_seconds(run, &spans);
    crate::record_trace_summary(run, &spans, &walls, &traced_wall);
    if let Some(t1) = run
        .get("cloudsim.run_columns_t1_s")
        .map(|m| m.summary.median)
    {
        run.value("cloudsim.thread_speedup", t1 / stats::median(&large_s));
    }
    // Every `threads: 1` replay allocates alike; report one.
    let allocs = spans
        .iter()
        .find(|s| s.name == "cloudsim.run_columns_t1")
        .map_or(0, |s| s.allocs);
    run.value("cloudsim.run_columns_allocs", allocs as f64);
    run.spans = spans;
}

/// One sweep point: events/s of `run_columns` at an explicit thread count.
pub fn sweep_point(
    sizes: Sizes,
    threads: usize,
    seed: u64,
    reps: u32,
    run: &mut Run,
) -> Option<f64> {
    let (fx, _) = setup(sizes, seed, run).ok()?;
    let mut seconds = Vec::new();
    for _ in 0..reps {
        let (s, report) = timed("sweep", || {
            fx.fleet
                .run_columns_with_threads(HORIZON_DAYS, &fx.columns, threads)
        });
        run.op("run_columns_with_threads", report).ok()?;
        seconds.push(s);
    }
    Some(sizes.events as f64 / stats::median(&seconds))
}
