//! `plan_batch`: the paper's batch pipeline, input to complete plan.
//!
//! TPC-H-like tables are generated, serialized and measured under every
//! codec; COMPREDICT is trained on query samples and predicts each file's
//! compressibility; DATAPART merges the query families; OPTASSIGN assigns
//! tiers and schemes through `core::run_all_policies`. Then an enterprise
//! account is planned: tier predictor, static placement (greedy, and
//! branch-and-bound under capacity reservations), the per-period schedule
//! DP, and `run_lifecycle`'s billing of that plan. Serving and the journal
//! do none of this work, so a serving-side change must not move it.

use crate::metrics::{Failed, Run};
use crate::{stats, trace, Args};
use scope_cloudsim::TierCatalog;
use scope_compredict::predictor::build_examples;
use scope_compredict::{
    query_samples, CompressionPredictor, FeatureExtractor, FeatureSet, ModelKind, PredictionTask,
};
use scope_compress::{measure, CompressionScheme};
use scope_core::{run_all_policies, run_lifecycle, LifecycleOptions, PipelineInputs, TableProfile};
use scope_datapart::{gpart_merge, solve_ordered_exact, OrderedPartition, Partition};
use scope_learn::forest::ForestParams;
use scope_learn::{Classifier, ColumnMatrix, RandomForestClassifier};
use scope_optassign::{
    ideal_tier_labels, ideal_tier_schedules, solve_branch_and_bound, solve_greedy,
    CompressionOption, OptAssignProblem, PartitionSpec, PredictorFeatures, TierPredictor,
};
use scope_table::{format, DataLayout, Table, TpchGenerator, TpchOptions, TpchTable};
use scope_workload::{
    EnterpriseOptions, EnterpriseWorkload, QueryFamily, QueryWorkload, QueryWorkloadOptions,
};
use std::hint::black_box;
use std::time::Instant;

const SCHEMES: [CompressionScheme; 3] = [
    CompressionScheme::Gzip,
    CompressionScheme::Snappy,
    CompressionScheme::Lz4,
];
/// `(compression, decompression)` throughput metric of each of [`SCHEMES`].
const CODEC_METRICS: [(&str, &str); 3] = [
    ("compress.gzip_comp_mb_s", "compress.gzip_decomp_mb_s"),
    ("compress.snappy_comp_mb_s", "compress.snappy_decomp_mb_s"),
    ("compress.lz4_comp_mb_s", "compress.lz4_decomp_mb_s"),
];
const NOMINAL_TOTAL_GB: f64 = 1000.0;
const HORIZON_MONTHS: f64 = 5.5;
const QUERY_REPEATS_PER_MONTH: f64 = 8.0;
/// `core::lifecycle`'s appends-not-rewrites convention.
const WRITE_VOLUME_FRACTION: f64 = 0.05;
/// Tier-predictor training horizon (the paper's 2-month projection).
const PREDICTOR_HORIZON_MONTHS: u32 = 2;

pub struct Sizes {
    pub generator_scale: f64,
    pub total_files: usize,
    pub queries_per_template: usize,
    /// COMPREDICT trains on the samples of every `sample_stride`-th query
    /// family (a sample of the query log): compressing a sample costs far
    /// more than partitioning or assigning it, and without the stride the
    /// other layers would vanish from a plan's time.
    pub sample_stride: usize,
    pub n_datasets: usize,
    pub bnb_node_budget: u64,
}

impl Sizes {
    pub fn new(quick: bool) -> Sizes {
        if quick {
            Sizes {
                generator_scale: 0.2,
                total_files: 40,
                queries_per_template: 2,
                sample_stride: 2,
                n_datasets: 150,
                bnb_node_budget: 20_000,
            }
        } else {
            Sizes {
                generator_scale: 1.0,
                total_files: 240,
                queries_per_template: 8,
                sample_stride: 6,
                n_datasets: 1000,
                bnb_node_budget: 200_000,
            }
        }
    }
}

/// What exists before planning starts: the query workload over the physical
/// layout and the enterprise account's history. (The tables themselves are
/// generated inside the plan, as the ISSUE's `table.generate_s` asks.)
pub struct Fixture {
    sizes: Sizes,
    generator: TpchGenerator,
    /// `(table, files)` in `TpchTable::all()` order.
    layout: Vec<(String, usize)>,
    families: Vec<QueryFamily>,
    account: EnterpriseOptions,
    enterprise: EnterpriseWorkload,
}

pub fn setup(seed: u64, sizes: Sizes, run: &mut Run) -> Result<Fixture, Failed> {
    let generator = run.op(
        "TpchGenerator::new",
        TpchGenerator::new(TpchOptions {
            scale_factor: sizes.generator_scale,
            skew: None,
            seed,
        }),
    )?;
    // Files per table in proportion to its rows, at least one each.
    let rows: Vec<usize> = TpchTable::all()
        .iter()
        .map(|&t| generator.row_count(t))
        .collect();
    let total_rows: usize = rows.iter().sum();
    let layout: Vec<(String, usize)> = TpchTable::all()
        .iter()
        .zip(&rows)
        .map(|(t, &r)| {
            let files = (r as f64 / total_rows as f64 * sizes.total_files as f64).round() as usize;
            (t.name().to_string(), files.clamp(1, r))
        })
        .collect();
    let workload = trace::span("workload.query_generate", || {
        QueryWorkload::generate_tpch(
            &layout,
            &QueryWorkloadOptions {
                queries_per_template: sizes.queries_per_template,
                template_skew: None,
                seed,
            },
        )
    });
    let mut families = run.op("QueryWorkload::generate_tpch", workload)?.families;
    for f in &mut families {
        f.frequency *= QUERY_REPEATS_PER_MONTH * HORIZON_MONTHS;
    }
    let account = EnterpriseOptions {
        n_datasets: sizes.n_datasets,
        history_months: 12,
        future_months: 6,
        seed: seed ^ 0x5c09e,
        ..Default::default()
    };
    let enterprise = trace::span("workload.enterprise_generate", || {
        EnterpriseWorkload::generate(account.clone())
    });
    let enterprise = run.op("EnterpriseWorkload::generate", enterprise)?;
    Ok(Fixture {
        sizes,
        generator,
        layout,
        families,
        account,
        enterprise,
    })
}

/// Facts about one plan that do not depend on the clock.
#[derive(Debug, Default, Clone, PartialEq)]
struct PlanFacts {
    rows: usize,
    bytes: usize,
    samples: usize,
    partitions_in: usize,
    partitions_out: usize,
    bnb_nodes: u64,
    learn_rows: usize,
    benefit_scheduled: f64,
    saved_kusd: f64,
}

/// Codec throughput over all tables (min-of-reps seconds, as `measure`
/// reports them) and the measured-vs-predicted ratio error.
#[derive(Debug, Default, Clone)]
struct PlanRates {
    comp_mb_s: [f64; 3],
    decomp_mb_s: [f64; 3],
    gzip_ratio: f64,
    ratio_mape_pct: f64,
}

/// One complete plan. Every `Result` the program returns is an op.
fn plan(fx: &Fixture, run: &mut Run) -> Result<(PlanFacts, PlanRates), Failed> {
    let mut facts = PlanFacts::default();
    let mut rates = PlanRates::default();

    // --- tables: generate, split into files, serialize -------------------
    let tables: Vec<Table> = trace::span("table.generate", || fx.generator.generate_all());
    let mut files: Vec<Vec<Table>> = Vec::with_capacity(tables.len());
    for (table, (_, n_files)) in tables.iter().zip(&fx.layout) {
        let rows_per_file = table.n_rows().div_ceil(*n_files).max(1);
        let split = trace::span("table.split", || table.split_into_files(rows_per_file));
        files.push(run.op("Table::split_into_files", split)?);
    }
    let serialized: Vec<_> = tables
        .iter()
        .map(|t| {
            trace::span("table.serialize", || {
                format::serialize(t, DataLayout::Columnar)
            })
        })
        .collect();
    facts.rows = tables.iter().map(Table::n_rows).sum();
    facts.bytes = serialized.iter().map(|b| b.len()).sum();
    let total_bytes = facts.bytes as f64;

    // --- compress: measure every codec on every table --------------------
    let mut profiles: Vec<Vec<CompressionOption>> =
        vec![vec![CompressionOption::none()]; tables.len()];
    let (mut comp_s, mut decomp_s, mut gzip_out) = ([0.0; 3], [0.0; 3], 0usize);
    for (k, scheme) in SCHEMES.iter().enumerate() {
        let codec = scheme.codec();
        for (t, bytes) in serialized.iter().enumerate() {
            let m = trace::span("compress.measure", || measure(codec.as_ref(), bytes));
            comp_s[k] += m.compress_seconds;
            decomp_s[k] += m.decompress_seconds;
            if k == 0 {
                gzip_out += m.compressed_bytes;
            }
            profiles[t].push(CompressionOption::new(
                scheme.name(),
                m.ratio.max(1.0),
                m.decompress_seconds_per_gb,
            ));
        }
        rates.comp_mb_s[k] = total_bytes / 1e6 / comp_s[k];
        rates.decomp_mb_s[k] = total_bytes / 1e6 / decomp_s[k];
    }
    rates.gzip_ratio = total_bytes / gzip_out as f64;

    // --- COMPREDICT: query samples -> examples -> model -> per-file ratio -
    let extractor = FeatureExtractor::new(FeatureSet::WeightedEntropy);
    let sampled: Vec<QueryFamily> = fx
        .families
        .iter()
        .step_by(fx.sizes.sample_stride)
        .cloned()
        .collect();
    let mut samples: Vec<Table> = Vec::new();
    for (table, table_files) in tables.iter().zip(&files) {
        // A table no sampled family reads contributes no samples.
        if sampled
            .iter()
            .any(|f| f.files.iter().any(|r| r.table == table.name))
        {
            let s = trace::span("compredict.sample", || {
                query_samples(table, table_files, &sampled)
            });
            samples.extend(run.op("query_samples", s)?);
        }
    }
    facts.samples = samples.len();
    let examples = trace::span("compredict.examples", || {
        build_examples(
            &samples,
            CompressionScheme::Gzip,
            DataLayout::Columnar,
            &extractor,
        )
    });
    drop(samples);
    let held_out = examples.len() / 5;
    let (test, train) = examples.split_at(held_out);
    let model = trace::span("compredict.train", || {
        CompressionPredictor::train(
            train,
            PredictionTask::CompressionRatio,
            ModelKind::RandomForest,
            extractor,
            1,
        )
    });
    let model = run.op("CompressionPredictor::train", model)?;
    rates.ratio_mape_pct = model.evaluate(test).mape;
    // Predicted gzip ratio of a table = mean over its files; it replaces the
    // measured ratio in the profile OPTASSIGN sees.
    for (t, table_files) in files.iter().enumerate() {
        let features: Vec<Vec<f64>> = table_files
            .iter()
            .map(|f| trace::span("compredict.features", || extractor.extract(f)))
            .collect();
        let predicted: f64 = trace::span("compredict.predict", || {
            features.iter().map(|x| model.predict_features(x)).sum()
        });
        profiles[t][1].ratio = (predicted / table_files.len() as f64).max(1.0);
    }
    drop(files);

    // --- DATAPART + OPTASSIGN over the TPC-H lake -------------------------
    let profiles: Vec<TableProfile> = tables
        .iter()
        .zip(&fx.layout)
        .zip(serialized.iter().zip(profiles))
        .map(|((table, (_, n_files)), (bytes, options))| TableProfile {
            name: table.name.clone(),
            size_gb: bytes.len() as f64 / total_bytes * NOMINAL_TOTAL_GB,
            n_files: *n_files,
            options,
            latency_threshold_seconds: f64::INFINITY,
        })
        .collect();
    let inputs = PipelineInputs {
        catalog: TierCatalog::azure_premium_hot_cool(),
        tables: profiles,
        families: fx.families.clone(),
        horizon_months: HORIZON_MONTHS,
    };
    let file_catalog = inputs.file_catalog();
    let initial = Partition::from_families(&inputs.families);
    let merge_config = scope_core::Policy::scope_no_capacity().merge_config(NOMINAL_TOTAL_GB);
    let merged = trace::span("datapart.gpart", || {
        gpart_merge(&initial, &file_catalog, &merge_config)
    });
    facts.partitions_in = initial.len();
    facts.partitions_out = run.op("gpart_merge", merged)?.len();
    // The ordered case: the fact table's files in time order, each with the
    // frequency of the families reading it.
    let (fact_table, fact_files) = &fx.layout[0];
    let file_gb = inputs.tables[0].file_size_gb();
    let ordered: Vec<OrderedPartition> = (0..*fact_files)
        .map(|i| {
            let frequency: f64 = inputs
                .families
                .iter()
                .filter(|f| {
                    f.files
                        .iter()
                        .any(|r| r.file_index == i && &r.table == fact_table)
                })
                .map(|f| f.frequency)
                .sum();
            OrderedPartition::new(
                i as f64 * file_gb,
                (i + 1) as f64 * file_gb,
                frequency.max(1.0),
            )
        })
        .collect();
    let separate_cost: f64 = ordered.iter().map(|p| p.span() * p.frequency).sum();
    let resolution = 256.0 / separate_cost;
    let dp = trace::span("datapart.ordered_dp", || {
        solve_ordered_exact(&ordered, separate_cost * 2.0, resolution)
    });
    run.op("solve_ordered_exact", dp)?;
    let policies = trace::span("core.run_all_policies", || run_all_policies(&inputs));
    black_box(run.op("run_all_policies", policies)?);

    // --- the enterprise account -------------------------------------------
    let catalog = TierCatalog::azure_hot_cool_archive();
    let hot = run.op("TierCatalog::tier_id", catalog.tier_id("Hot"))?;
    let ent = &fx.enterprise;
    let start = ent.projection_start();
    let future = ent.options.future_months;

    let train_until = start.saturating_sub(PREDICTOR_HORIZON_MONTHS).max(3);
    let predictor = trace::span("optassign.tier_predictor_train", || {
        TierPredictor::train(
            &catalog,
            &ent.catalog,
            &ent.series,
            train_until,
            PREDICTOR_HORIZON_MONTHS,
            hot,
            PredictorFeatures::default(),
            fx.account.seed,
        )
    });
    let predictor = run.op("TierPredictor::train", predictor)?;
    let predicted = trace::span("optassign.tier_predictor_predict", || {
        predictor.predict_all(&ent.catalog, &ent.series, start)
    });
    run.check(
        "tier predictor labels every dataset",
        predicted.len() == ent.catalog.len(),
    );

    // The forest alone, on the matrix the tier predictor trains on.
    let features = PredictorFeatures::default();
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for month in features.lookback_months..=train_until {
        let labels = ideal_tier_labels(
            &catalog,
            &ent.catalog,
            &ent.series,
            month,
            PREDICTOR_HORIZON_MONTHS,
            hot,
        );
        let labels = run.op("ideal_tier_labels", labels)?;
        for d in ent.catalog.iter().filter(|d| d.created_month <= month) {
            xs.push(features.extract(d, &ent.series, month));
            ys.push(labels[d.id].index());
        }
    }
    facts.learn_rows = xs.len();
    let matrix = run.op("ColumnMatrix::from_rows", ColumnMatrix::from_rows(&xs))?;
    let params = ForestParams {
        n_trees: 60,
        seed: fx.account.seed,
        ..Default::default()
    };
    let forest = trace::span("learn.forest_fit", || {
        RandomForestClassifier::fit_columns(&matrix, &ys, params)
    });
    let forest = run.op("RandomForestClassifier::fit_columns", forest)?;
    black_box(trace::span("learn.forest_predict", || {
        forest.predict_columns(&matrix)
    }));

    // Static placement over the projection window: greedy without capacity
    // limits, branch-and-bound with the hot tier reserved to 40%.
    let specs: Vec<PartitionSpec> = ent
        .catalog
        .iter()
        .map(|d| {
            let reads = ent.series.total_reads(d.id, start, start + future);
            PartitionSpec::new(d.id, d.name.clone(), d.size_gb, reads)
                .with_latency_threshold(d.latency_threshold_seconds)
                .with_current_tier(hot)
        })
        .collect();
    let problem = OptAssignProblem::new(catalog.clone(), specs, f64::from(future));
    let greedy = trace::span("optassign.greedy", || solve_greedy(&problem));
    black_box(run.op("solve_greedy", greedy)?);
    let mut reserved = problem.clone();
    let reserve = reserved
        .catalog
        .set_capacity("Hot", 0.4 * ent.catalog.total_size_gb());
    run.op("TierCatalog::set_capacity", reserve)?;
    let bnb = trace::span("optassign.bnb", || {
        solve_branch_and_bound(&reserved, fx.sizes.bnb_node_budget)
    });
    facts.bnb_nodes = run.op("solve_branch_and_bound", bnb)?.1.nodes_expanded;

    let schedules = trace::span("optassign.schedule_dp", || {
        ideal_tier_schedules(
            &catalog,
            &ent.catalog,
            &ent.series,
            start,
            future,
            hot,
            WRITE_VOLUME_FRACTION,
            1,
        )
    });
    let schedules = run.op("ideal_tier_schedules", schedules)?;
    run.check(
        "one schedule per dataset",
        schedules.len() == ent.catalog.len(),
    );

    let lifecycle = trace::span("core.lifecycle", || {
        run_lifecycle(&LifecycleOptions {
            workload: fx.account.clone(),
            catalog: catalog.clone(),
            retier_every: 1,
        })
    });
    let outcome = run.op("run_lifecycle", lifecycle)?;
    run.check(
        "scheduled <= static <= all-hot",
        outcome.scheduled_total <= outcome.static_total * (1.0 + 1e-9)
            && outcome.static_total <= outcome.all_hot_total * (1.0 + 1e-9),
    );
    run.check(
        "lifecycle replay dropped no events",
        outcome.dropped_events == 0,
    );
    facts.benefit_scheduled = outcome.benefit_scheduled;
    // Billing totals are in cents.
    facts.saved_kusd = (outcome.all_hot_total - outcome.scheduled_total) / 100.0 / 1000.0;
    Ok((facts, rates))
}

/// Every codec must give every table back byte for byte.
fn verify_round_trips(fx: &Fixture, run: &mut Run) {
    for table in fx.generator.generate_all() {
        let bytes = format::serialize(&table, DataLayout::Columnar);
        for scheme in SCHEMES {
            let codec = scheme.codec();
            let back = codec.decompress(&codec.compress(&bytes));
            run.check(
                "codec round-trips the table",
                back.as_deref() == Ok(&bytes[..]),
            );
        }
    }
}

pub fn run(args: &Args, run: &mut Run) {
    let Some(fx) = crate::repeat_setup(args, run, |run| {
        setup(args.seed, Sizes::new(args.quick), run).ok()
    }) else {
        return;
    };

    let t = Instant::now();
    verify_round_trips(&fx, run);
    // One untimed plan warms caches and yields the facts later plans must repeat.
    let reference = plan(&fx, run).ok().map(|(facts, _)| facts);
    run.value("harness.verify_s", t.elapsed().as_secs_f64());

    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut last = None;
    stats::reset_peak_rss();
    let started = Instant::now();
    let mut rep = 0u32;
    while rep < crate::MIN_PLAN_REPS || started.elapsed().as_secs_f64() < args.seconds {
        // A traced run alternates untraced and traced plans.
        let tracing = args.traced && rep % 2 == 1;
        trace::set_enabled(tracing);
        trace::set_context(rep, 0);
        let t = Instant::now();
        let root = trace::enter("rep");
        let out = plan(&fx, run);
        trace::exit(root);
        let elapsed = t.elapsed().as_secs_f64();
        trace::set_enabled(false);
        rep += 1;
        let Ok((facts, rates)) = out else { break };
        run.check(
            "plan facts repeat exactly",
            Some(&facts) == reference.as_ref(),
        );
        if tracing {
            &mut traced_s
        } else {
            &mut untraced_s
        }
        .push(elapsed);
        last = Some((facts, rates));
    }
    let Some((facts, rates)) = last else { return };

    let objects = (fx.layout.iter().map(|(_, n)| n).sum::<usize>() + fx.sizes.n_datasets) as f64;
    let ms: Vec<f64> = untraced_s.iter().map(|s| s * 1e3).collect();
    run.samples(
        "work_per_s",
        &untraced_s.iter().map(|s| objects / s).collect::<Vec<_>>(),
    );
    run.samples("step_p50_ms", &ms);
    run.value("harness.reps", untraced_s.len() as f64);
    // Deterministic for a seed; `--compare` holds it to exact equality.
    run.value("plan_benefit_pct", facts.benefit_scheduled);
    if !args.traced {
        return;
    }

    run.value(
        "core.cpu_s_per_kusd_saved",
        stats::median(&untraced_s) / facts.saved_kusd,
    );
    run.value("table.rows", facts.rows as f64);
    run.value("table.bytes", facts.bytes as f64);
    run.value("compredict.samples", facts.samples as f64);
    run.value("compredict.ratio_mape_pct", rates.ratio_mape_pct);
    run.value("datapart.partitions_in", facts.partitions_in as f64);
    run.value("datapart.partitions_out", facts.partitions_out as f64);
    run.value("optassign.bnb_nodes", facts.bnb_nodes as f64);
    run.value("learn.rows", facts.learn_rows as f64);
    run.value("workload.daily_records", fx.enterprise.daily.len() as f64);
    for (k, (comp, decomp)) in CODEC_METRICS.iter().enumerate() {
        run.value(comp, rates.comp_mb_s[k]);
        run.value(decomp, rates.decomp_mb_s[k]);
    }
    run.value("compress.gzip_ratio", rates.gzip_ratio);

    let spans = trace::drain();
    crate::record_span_seconds(run, &spans);
    crate::record_trace_summary(run, &spans, &untraced_s, &traced_s);
    run.spans = spans;
}
