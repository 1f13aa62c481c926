//! Differential proptests for the cost-table engine and the deterministic
//! parallel fan-out.
//!
//! The PR-4 contract is *bit-for-bit* equivalence, not approximate
//! agreement: the table-driven greedy and branch-and-bound must return
//! **exactly** the assignments (choices, objective f64s, breakdowns) of
//! the historical model-driven paths preserved in
//! `scope_optassign::reference`; the cached schedule DP must return exactly
//! the plans of the uncached transition arithmetic (replicated here as an
//! independent oracle); the predictor's label encoding must equal
//! reference-greedy labels; and the parallel fan-outs (cost-table build,
//! per-dataset schedule planning, the core sweeps) must equal their
//! sequential loops. Every comparison below is `assert_eq!` on structures
//! containing raw `f64`s — no tolerances.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use scope_cloudsim::parallel::{parallel_map_mut_with_threads, parallel_map_with_threads};
use scope_cloudsim::{
    CostBreakdown, CostModel, CostWeights, ProviderCatalog, TierCatalog, TierId, DAYS_PER_MONTH,
};
use scope_optassign::reference::{solve_branch_and_bound_reference, solve_greedy_reference};
use scope_optassign::{
    ideal_tier_labels, plan_placement_schedule, solve_branch_and_bound, solve_greedy, Assignment,
    CompressionOption, CostTable, OptAssignProblem, PartitionSpec, PeriodUsage, PlacementPlan,
    ScheduleOptions,
};

/// `weight` rounds of float work on item `i` from `seed`: a cost
/// proportional to the weight, and a value that is a pure function of its
/// arguments.
fn busy(i: usize, weight: u64, seed: f64) -> f64 {
    let mut x = seed + i as f64;
    for _ in 0..weight {
        x = (x * 1.000_001 + 0.5).sqrt();
    }
    x
}

/// What the row kernel reads beyond a row's size, heat, tier, residency
/// and first scheme, drawn per case: extra schemes (so rows differ in
/// option count), a fixed scheme `K(P_n)` (a pick below the row's option
/// count fixes that option), a read fraction (drawn past both ends of
/// [0, 1], which the kernel clamps), and the problem's pushdown fraction
/// and α/β/γ weights. Each per-row list is read cyclically.
struct Knobs<'a> {
    extra_options: &'a [usize],
    fixed_picks: &'a [usize],
    read_fractions: &'a [f64],
    pushdown_fraction: f64,
    weights: &'a [f64],
}

/// None of them: two options per row, none fixed, whole reads, no
/// pushdown, equal weights.
const PLAIN: Knobs<'static> = Knobs {
    extra_options: &[0],
    fixed_picks: &[usize::MAX],
    read_fractions: &[1.0],
    pushdown_fraction: 0.0,
    weights: &[1.0, 1.0, 1.0],
};

/// Random OPTASSIGN instance over either the Azure ladder or the merged
/// 3-provider catalog, with mixed current tiers, residencies, latency
/// thresholds and compression options, and `knobs` applied.
#[allow(clippy::too_many_arguments)]
fn build_problem(
    multi: bool,
    n_parts: usize,
    sizes: &[f64],
    accesses: &[f64],
    ratios: &[f64],
    thresholds: &[f64],
    current_picks: &[usize],
    residencies: &[u32],
    knobs: &Knobs<'_>,
) -> OptAssignProblem {
    let providers = ProviderCatalog::azure_s3_gcs();
    let n_tiers = if multi { 12 } else { 4 };
    let parts: Vec<PartitionSpec> = (0..n_parts)
        .map(|i| {
            let mut p = PartitionSpec::new(
                i,
                format!("p{i}"),
                sizes[i % sizes.len()],
                accesses[i % accesses.len()],
            )
            .with_compression_option(CompressionOption::new(
                "z",
                ratios[i % ratios.len()],
                ratios[(i + 1) % ratios.len()] / 4.0,
            ))
            .with_residency_days(residencies[i % residencies.len()]);
            // Thresholds drawn log-ish: some exclude archives, some nothing.
            let thr = thresholds[i % thresholds.len()];
            if thr < 5.0 {
                p = p.with_latency_threshold(thr.max(0.2));
            }
            let pick = current_picks[i % current_picks.len()];
            if pick % (n_tiers + 1) < n_tiers {
                p = p.with_current_tier(TierId(pick % (n_tiers + 1)));
            }
            // Variable row width: 2 to 5 options, partition by partition.
            for extra in 0..knobs.extra_options[i % knobs.extra_options.len()] {
                p.compression_options.push(CompressionOption::new(
                    format!("x{extra}"),
                    1.2 + extra as f64 + ratios[i % ratios.len()] / 8.0,
                    0.05 * (extra + 1) as f64,
                ));
            }
            let fixed = knobs.fixed_picks[i % knobs.fixed_picks.len()];
            p.fixed_compression = (fixed < p.compression_options.len()).then_some(fixed);
            p.with_read_fraction(knobs.read_fractions[i % knobs.read_fractions.len()])
        })
        .collect();
    let mut problem = if multi {
        OptAssignProblem::multi_provider(&providers, parts, 6.0)
    } else {
        OptAssignProblem::new(TierCatalog::azure_adls_gen2(), parts, 6.0)
    };
    problem.pushdown_fraction = knobs.pushdown_fraction;
    let &[alpha, beta, gamma] = knobs.weights else {
        panic!("three weights, got {:?}", knobs.weights);
    };
    problem.with_weights(CostWeights::new(alpha, beta, gamma))
}

/// A breakdown's five terms as bit patterns, so that NaN-priced entries
/// compare too.
fn bits(b: &CostBreakdown) -> [u64; 5] {
    [b.storage, b.read, b.write, b.decompression, b.egress].map(f64::to_bits)
}

/// Every entry of `table` — cost bits, breakdown bits (stored for a row's
/// minimum, priced on demand otherwise), feasibility — and every row
/// minimum equals the model-driven evaluation of `problem`.
fn assert_table_matches_model(table: &CostTable, problem: &OptAssignProblem, what: &str) {
    assert_eq!(table.n_partitions(), problem.partitions.len(), "{what}");
    let model = problem.cost_model();
    for (n, p) in problem.partitions.iter().enumerate() {
        assert_eq!(table.n_options(n), p.compression_options.len(), "{what}");
        for tier in problem.catalog.tier_ids() {
            for k in 0..p.compression_options.len() {
                assert_eq!(
                    table.cost(n, tier, k).to_bits(),
                    problem.placement_cost(p, tier, k).to_bits(),
                    "{what}: cost of ({n}, {tier}, {k})"
                );
                assert_eq!(
                    bits(&table.breakdown(problem, &model, n, tier, k)),
                    bits(&problem.cost_breakdown(p, tier, k)),
                    "{what}: breakdown of ({n}, {tier}, {k})"
                );
                assert_eq!(
                    table.is_feasible(n, tier, k),
                    problem.is_feasible(p, tier, k),
                    "{what}: feasibility of ({n}, {tier}, {k})"
                );
            }
        }
        let (by_table, by_model) = (table.min_feasible(n), problem.min_feasible_cost(p));
        assert_eq!(
            by_table.map(|(c, tier, k)| (c.to_bits(), tier, k)),
            by_model.map(|(c, tier, k)| (c.to_bits(), tier, k)),
            "{what}: minimum of row {n}"
        );
        let stored = by_model.map_or_else(CostBreakdown::default, |(_, tier, k)| {
            problem.cost_breakdown(p, tier, k)
        });
        assert_eq!(
            bits(table.min_breakdown(n)),
            bits(&stored),
            "{what}: stored breakdown of row {n}"
        );
    }
}

/// Independent re-implementation of the schedule DP *without* the hoisted
/// stay/change cost tables — the exact pre-PR-4 transition arithmetic,
/// evaluated through the model on every transition. Serves as the
/// bit-for-bit oracle for the cached DP over the one uncompressed scheme:
/// returns the plan's tiers and its planned cost.
fn tier_schedule_dp_uncached(
    model: &CostModel,
    size_gb: f64,
    periods: &[PeriodUsage],
    options: &ScheduleOptions,
) -> (Vec<TierId>, f64) {
    let catalog = model.catalog();
    let usable: Vec<TierId> = catalog
        .iter()
        .filter(|(_, t)| t.ttfb_seconds <= options.latency_threshold_seconds)
        .map(|(id, _)| id)
        .collect();
    assert!(!usable.is_empty());
    let retier_every = options.retier_every.max(1);
    let period_cost = |tier: TierId, access: &PeriodUsage| {
        model.storage_cost(tier, size_gb, 1.0)
            + model.read_cost(tier, access.read_gb, 1.0)
            + model.write_cost(tier, access.write_gb)
    };
    let penalty = |tier: TierId, days: u32| {
        model
            .early_deletion_penalty(tier, size_gb, days)
            .expect("tier from this catalog")
    };
    let n = periods.len();
    let n_tiers = usable.len();
    let idx = |t: usize, e: usize| t * n + e;
    let inf = f64::INFINITY;
    let mut cost = vec![inf; n_tiers * n];
    let mut parents: Vec<Vec<usize>> = Vec::with_capacity(n);
    for (ti, &tier) in usable.iter().enumerate() {
        let mut c = model.read_write_cost(options.current_tier, tier, size_gb)
            + model.egress_cost(options.current_tier, tier, size_gb);
        if let Some(from) = options.current_tier {
            if from != tier {
                c += penalty(from, options.residency_days);
            }
        }
        c += period_cost(tier, &periods[0]);
        cost[idx(ti, 0)] = c;
    }
    parents.push(vec![usize::MAX; n_tiers * n]);
    for (p, period) in periods.iter().enumerate().skip(1) {
        let mut next = vec![inf; n_tiers * n];
        let mut parent = vec![usize::MAX; n_tiers * n];
        let may_move = (p as u32) % retier_every == 0;
        for (ti, &tier) in usable.iter().enumerate() {
            for e in 0..p {
                let s = idx(ti, e);
                if cost[s] == inf {
                    continue;
                }
                let stay = cost[s] + period_cost(tier, period);
                if stay < next[s] {
                    next[s] = stay;
                    parent[s] = s;
                }
                if !may_move {
                    continue;
                }
                let mut days_served = (p - e) as u32 * DAYS_PER_MONTH;
                if e == 0 && options.current_tier == Some(tier) {
                    days_served += options.residency_days;
                }
                let pen = penalty(tier, days_served);
                for (ui, &to) in usable.iter().enumerate() {
                    if ui == ti {
                        continue;
                    }
                    let c = cost[s]
                        + (model.read_write_cost(Some(tier), to, size_gb)
                            + model.egress_cost(Some(tier), to, size_gb))
                        + pen
                        + period_cost(to, period);
                    let d = idx(ui, p);
                    if c < next[d] {
                        next[d] = c;
                        parent[d] = s;
                    }
                }
            }
        }
        cost = next;
        parents.push(parent);
    }
    let (mut best_state, best_cost) = cost
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, &c)| (i, c))
        .unwrap();
    assert!(best_cost.is_finite());
    let mut tiers = vec![usable[0]; n];
    for p in (0..n).rev() {
        tiers[p] = usable[best_state / n];
        best_state = parents[p][best_state];
    }
    (tiers, best_cost)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Table-driven greedy ≡ model-driven greedy, bit for bit (choices,
    /// objective and breakdown f64s), on single- and multi-provider
    /// instances.
    #[test]
    fn table_greedy_is_bit_identical_to_model_greedy(
        n_parts in 1usize..8,
        sizes in proptest::collection::vec(0.1f64..500.0, 4),
        accesses in proptest::collection::vec(0.0f64..300.0, 4),
        ratios in proptest::collection::vec(1.1f64..8.0, 4),
        thresholds in proptest::collection::vec(0.0f64..10.0, 4),
        current_picks in proptest::collection::vec(0usize..16, 4),
        residencies in proptest::collection::vec(0u32..200, 4),
        multi in proptest::arbitrary::any::<bool>(),
        extra_options in proptest::collection::vec(0usize..4, 3),
        fixed_picks in proptest::collection::vec(0usize..12, 3),
        read_fractions in proptest::collection::vec(-0.5f64..1.5, 3),
        pushdown_fraction in 0.0f64..1.0,
        weights in proptest::collection::vec(0.0f64..2.0, 3),
    ) {
        let knobs = Knobs {
            extra_options: &extra_options,
            fixed_picks: &fixed_picks,
            read_fractions: &read_fractions,
            pushdown_fraction,
            weights: &weights,
        };
        let problem = build_problem(
            multi, n_parts, &sizes, &accesses, &ratios, &thresholds, &current_picks, &residencies,
            &knobs,
        );
        match (solve_greedy(&problem), solve_greedy_reference(&problem)) {
            (Ok(table), Ok(reference)) => prop_assert_eq!(table, reference),
            (Err(_), Err(_)) => {} // both report the same infeasibility
            (a, b) => prop_assert!(false, "paths disagree: {a:?} vs {b:?}"),
        }
    }

    /// Table-driven B&B ≡ model-driven B&B: identical assignments *and*
    /// identical search statistics (same candidates → same tree).
    #[test]
    fn table_branch_and_bound_is_bit_identical_to_model_path(
        n_parts in 1usize..6,
        sizes in proptest::collection::vec(0.1f64..200.0, 4),
        accesses in proptest::collection::vec(0.0f64..300.0, 4),
        ratios in proptest::collection::vec(1.1f64..8.0, 4),
        thresholds in proptest::collection::vec(0.0f64..10.0, 4),
        current_picks in proptest::collection::vec(0usize..16, 4),
        residencies in proptest::collection::vec(0u32..200, 4),
        cap_units in proptest::collection::vec(0usize..5, 2),
        multi in proptest::arbitrary::any::<bool>(),
        extra_options in proptest::collection::vec(0usize..4, 3),
        fixed_picks in proptest::collection::vec(0usize..12, 3),
        read_fractions in proptest::collection::vec(-0.5f64..1.5, 3),
        pushdown_fraction in 0.0f64..1.0,
        weights in proptest::collection::vec(0.0f64..2.0, 3),
    ) {
        let knobs = Knobs {
            extra_options: &extra_options,
            fixed_picks: &fixed_picks,
            read_fractions: &read_fractions,
            pushdown_fraction,
            weights: &weights,
        };
        let mut problem = build_problem(
            multi, n_parts, &sizes, &accesses, &ratios, &thresholds, &current_picks, &residencies,
            &knobs,
        );
        // Bound a couple of tiers (by name, ladder-dependent) so the search
        // actually branches; leave the archives unbounded for feasibility.
        let bounded = if multi { ["azure:Premium", "s3:Standard"] } else { ["Premium", "Hot"] };
        for (name, &units) in bounded.iter().zip(&cap_units) {
            problem.catalog.set_capacity(name, 50.0 * units as f64).unwrap();
        }
        match (
            solve_branch_and_bound(&problem, 2_000_000),
            solve_branch_and_bound_reference(&problem, 2_000_000),
        ) {
            (Ok((ta, ts)), Ok((ra, rs))) => {
                prop_assert_eq!(ta, ra);
                prop_assert_eq!(ts, rs);
            }
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "paths disagree: {a:?} vs {b:?}"),
        }
    }

    /// The cached schedule DP over the one uncompressed scheme ≡ the
    /// uncached per-transition tier-only arithmetic, bit for bit, including
    /// on egress-aware merged catalogs.
    #[test]
    fn cached_schedule_dp_is_bit_identical_to_uncached(
        n_periods in 1usize..6,
        volumes in proptest::collection::vec(0.0f64..500.0, 8),
        size_gb in 0.0f64..300.0,
        current_pick in 0usize..14,
        residency in 0u32..200,
        retier_every in 1u32..3,
        threshold in 0.0f64..10.0,
        multi in proptest::arbitrary::any::<bool>(),
    ) {
        let model = if multi {
            let providers = ProviderCatalog::azure_s3_gcs();
            CostModel::with_topology(providers.merged_catalog(), providers.topology())
        } else {
            CostModel::new(TierCatalog::azure_adls_gen2())
        };
        let n_tiers = model.catalog().len();
        // Non-zero read events: the uncompressed scheme's zero-second
        // decompression term must vanish exactly.
        let periods: Vec<PeriodUsage> = (0..n_periods)
            .map(|p| PeriodUsage::new(
                volumes[2 * p % volumes.len()],
                volumes[(2 * p + 1) % volumes.len()] / 10.0,
                volumes[2 * p % volumes.len()] / 100.0,
            ))
            .collect();
        // A sub-5s threshold keeps at least the fast tiers usable on both
        // ladders (ms-latency tiers exist everywhere).
        let latency = if threshold < 5.0 { threshold.max(0.2) } else { f64::INFINITY };
        let options = ScheduleOptions {
            current_tier: (current_pick % (n_tiers + 1) < n_tiers)
                .then_some(TierId(current_pick % (n_tiers + 1))),
            residency_days: residency,
            latency_threshold_seconds: latency,
            retier_every,
        };
        let none = [CompressionOption::none()];
        let cached = plan_placement_schedule(&model, size_gb, &none, &periods, &options, None).unwrap();
        prop_assert!(cached.placements.iter().all(|&(_, k)| k == 0));
        let cached_tiers: Vec<TierId> = cached.placements.iter().map(|&(t, _)| t).collect();
        let (tiers, planned_cost) = tier_schedule_dp_uncached(&model, size_gb, &periods, &options);
        prop_assert_eq!(cached_tiers, tiers);
        prop_assert_eq!(cached.planned_cost.to_bits(), planned_cost.to_bits());
    }

    /// The deterministic fan-out returns exactly the sequential map for
    /// every thread count, on float-producing work.
    #[test]
    fn parallel_map_equals_sequential_for_any_thread_count(
        items in proptest::collection::vec(0.0f64..1000.0, 40),
        threads in 1usize..12,
    ) {
        let f = |i: usize, &x: &f64| (x * 1.000001 + i as f64).sqrt() * (x + 0.5).ln_1p();
        let sequential = parallel_map_with_threads(&items, 1, f);
        let parallel = parallel_map_with_threads(&items, threads, f);
        prop_assert_eq!(sequential, parallel);
    }

    /// Both maps over items of uneven cost — busy work proportional to a
    /// drawn weight: as drawn, all equal, one item holding over 90% of the
    /// cost first, in the middle or last, fewer items than threads, or
    /// none — at 1–13 threads. Units are claimed from a counter, so which
    /// thread runs which item varies from run to run; the output and every
    /// final `&mut` item state are the sequential loop's bits regardless,
    /// and every index is visited exactly once.
    #[test]
    fn maps_over_uneven_work_equal_the_sequential_loop_at_any_thread_count(
        drawn in proptest::collection::vec(0u64..300, 0..40),
        shape in 0usize..7,
        threads in 1usize..14,
    ) {
        let mut weights = drawn;
        let (n, rest) = (weights.len(), weights.iter().sum::<u64>());
        match shape {
            1 => weights.iter_mut().for_each(|w| *w = 17),
            2..=4 if n > 0 => weights[[0, n / 2, n - 1][shape - 2]] = 10 * rest + 1_000,
            5 => weights.truncate(threads - 1),
            6 => weights.clear(),
            _ => {}
        }
        let n = weights.len();
        let visits = |counts: &[AtomicUsize], i: usize| counts[i].fetch_add(1, Ordering::Relaxed);
        let once = |counts: &[AtomicUsize]| counts.iter().all(|c| c.load(Ordering::Relaxed) == 1);

        let f = |i: usize, &w: &u64| busy(i, w, 0.25).to_bits();
        let sequential: Vec<u64> = weights.iter().enumerate().map(|(i, w)| f(i, w)).collect();
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let got = parallel_map_with_threads(&weights, threads, |i, w| {
            visits(&counts, i);
            f(i, w)
        });
        prop_assert_eq!(got, sequential);
        prop_assert!(once(&counts));

        // In place: an item's value becomes its busy work, and the result
        // is the value it had.
        let g = |i: usize, item: &mut (u64, f64)| {
            let old = item.1.to_bits();
            item.1 = busy(i, item.0, item.1);
            old
        };
        let start: Vec<(u64, f64)> =
            weights.iter().enumerate().map(|(i, &w)| (w, 0.1 * i as f64 + 0.037)).collect();
        let mut sequential_state = start.clone();
        let sequential: Vec<u64> =
            sequential_state.iter_mut().enumerate().map(|(i, t)| g(i, t)).collect();
        let mut state = start;
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let got = parallel_map_mut_with_threads(&mut state, threads, |i, t| {
            visits(&counts, i);
            g(i, t)
        });
        prop_assert_eq!(got, sequential);
        prop_assert!(once(&counts));
        let state_bits = |s: &[(u64, f64)]| s.iter().map(|&(w, x)| (w, x.to_bits())).collect::<Vec<_>>();
        prop_assert_eq!(state_bits(&state), state_bits(&sequential_state));
    }

    /// The in-place row kernel: `build` on 1–4 workers ≡ the model-driven
    /// evaluation ≡ a stale table after `patch_rows` on 1–4 workers, over
    /// partitions of *different* option counts (so the workers' stretches
    /// of the arrays begin at uneven offsets) and worklists that are
    /// empty, repeat rows, cover every row or come unsorted; and summing
    /// the table over explicit choices ≡ `Assignment::from_choices`.
    #[test]
    fn in_place_row_kernel_matches_the_model_for_any_worklist_and_thread_count(
        n_parts in 1usize..14,
        sizes in proptest::collection::vec(0.1f64..500.0, 4),
        accesses in proptest::collection::vec(0.0f64..300.0, 4),
        ratios in proptest::collection::vec(1.1f64..8.0, 4),
        thresholds in proptest::collection::vec(0.0f64..10.0, 4),
        current_picks in proptest::collection::vec(0usize..16, 4),
        residencies in proptest::collection::vec(0u32..200, 4),
        extra_options in proptest::collection::vec(0usize..4, 5),
        worklist in proptest::collection::vec(0usize..1000, 0..40),
        worklist_kind in 0usize..4,
        picks in proptest::collection::vec(0usize..1000, 14),
        multi in proptest::arbitrary::any::<bool>(),
        fixed_picks in proptest::collection::vec(0usize..12, 3),
        read_fractions in proptest::collection::vec(-0.5f64..1.5, 3),
        pushdown_fraction in 0.0f64..1.0,
        weights in proptest::collection::vec(0.0f64..2.0, 3),
    ) {
        let knobs = Knobs {
            extra_options: &extra_options,
            fixed_picks: &fixed_picks,
            read_fractions: &read_fractions,
            pushdown_fraction,
            weights: &weights,
        };
        let mut problem = build_problem(
            multi, n_parts, &sizes, &accesses, &ratios, &thresholds, &current_picks, &residencies,
            &knobs,
        );
        prop_assert!(problem.validate().is_ok());
        let stale = CostTable::build_with_threads(&problem, 1);
        assert_table_matches_model(&stale, &problem, "sequential build");
        for threads in 2..=4 {
            let built = CostTable::build_with_threads(&problem, threads);
            assert_table_matches_model(&built, &problem, &format!("build on {threads} workers"));
        }

        // What an epoch changes: projected accesses, and the tier a row's
        // transitions are priced from.
        let n_tiers = problem.n_tiers();
        let rows: Vec<usize> = match worklist_kind {
            0 => Vec::new(),
            1 => (0..n_parts).collect(),
            2 => worklist.iter().map(|r| r % n_parts).collect(),
            _ => {
                let mut rows: Vec<usize> = worklist.iter().map(|r| r % n_parts).collect();
                rows.extend(rows.clone());
                rows.reverse();
                rows
            }
        };
        for &row in &rows {
            let p = &mut problem.partitions[row];
            p.predicted_accesses = p.predicted_accesses * 1.5 + 1.0;
            p.current_tier = Some(TierId((row + picks[row]) % n_tiers));
        }
        for threads in 1..=4 {
            let mut patched = stale.clone();
            prop_assert!(patched.patch_rows_with_threads(&problem, &rows, threads).is_ok());
            assert_table_matches_model(&patched, &problem, &format!("patch on {threads} workers"));
        }
        let mut patched = stale;
        prop_assert!(patched.patch_rows(&problem, &rows).is_ok());
        assert_table_matches_model(&patched, &problem, "patch_rows");

        let choices: Vec<(TierId, usize)> = problem
            .partitions
            .iter()
            .zip(&picks)
            .map(|(p, pick)| (TierId(pick % n_tiers), pick % p.compression_options.len()))
            .collect();
        let via_table = patched.assignment(&problem, choices.clone());
        let via_model = Assignment::from_choices(&problem, choices);
        prop_assert_eq!(via_table, via_model);
    }
}

/// A fleet nobody validated, over either ladder: rows with latency
/// thresholds that exclude tiers and schemes (infeasible entries), a row
/// on a tier the catalog does not have (every entry NaN), and a row whose
/// middle option has a NaN ratio (NaN entries that are feasible, beside
/// priced ones).
fn unvalidated_problem(multi: bool) -> OptAssignProblem {
    let n_tiers = if multi { 12 } else { 4 };
    let parts: Vec<PartitionSpec> = (0..9)
        .map(|i| {
            let mut p =
                PartitionSpec::new(i, format!("p{i}"), 3.0 + 17.0 * i as f64, (i * 11) as f64)
                    .with_compression_option(CompressionOption::new("gzip", 3.5, 1.5))
                    .with_compression_option(CompressionOption::new("lz4", 2.1, 0.15))
                    .with_current_tier(TierId(i % n_tiers))
                    .with_residency_days(7 * i as u32);
            if i % 3 == 0 {
                p = p.with_latency_threshold(0.5);
            }
            p
        })
        .collect();
    let mut problem = if multi {
        OptAssignProblem::multi_provider(&ProviderCatalog::azure_s3_gcs(), parts, 6.0)
    } else {
        OptAssignProblem::new(TierCatalog::azure_adls_gen2(), parts, 6.0)
    };
    problem.partitions[4].current_tier = Some(TierId(99));
    problem.partitions[7].compression_options[1].ratio = f64::NAN;
    assert!(problem.validate().is_err());
    problem
}

/// The narrow cell: a breakdown read off the table — the stored one of a
/// row's minimum, or any other entry's priced on demand — is
/// `OptAssignProblem::cost_breakdown` bit for bit for **every**
/// `(n, tier, k)`, infeasible and NaN-priced entries included, on fresh
/// and on patched tables, single- and multi-provider.
#[test]
fn on_demand_breakdowns_equal_the_model_on_every_entry_of_an_unvalidated_table() {
    for multi in [false, true] {
        let mut problem = unvalidated_problem(multi);
        let fresh = CostTable::build_with_threads(&problem, 1);
        assert_table_matches_model(&fresh, &problem, "fresh");
        assert_table_matches_model(
            &CostTable::build_with_threads(&problem, 3),
            &problem,
            "fresh on 3 workers",
        );

        // The table holds what the test says it does.
        let tiers = problem.catalog.tier_ids();
        let entries = |n: usize| {
            tiers
                .iter()
                .flat_map(move |&t| (0..3).map(move |k| (n, t, k)))
        };
        assert!(entries(0).any(|(n, t, k)| !fresh.is_feasible(n, t, k)));
        // The foreign tier's NaN rates propagate unchanged: every entry
        // of its row is that one NaN, sign and payload included.
        assert!(entries(4).all(|(n, t, k)| fresh.cost(n, t, k).to_bits() == f64::NAN.to_bits()));
        assert_eq!(fresh.min_feasible(4), None);
        assert!(entries(7).all(|(n, t, k)| fresh.is_feasible(n, t, k)));
        assert!(entries(7).all(|(n, t, k)| fresh.cost(n, t, k).is_nan() == (k == 1)));
        assert!(fresh
            .min_feasible(7)
            .is_some_and(|(c, _, k)| !c.is_nan() && k != 1));

        // An epoch: heat and applied placements change, the rows are
        // patched (the foreign-tier row moves onto the catalog, another
        // row off it).
        let rows = [1, 4, 5, 7, 8];
        for &row in &rows {
            let p = &mut problem.partitions[row];
            p.predicted_accesses = p.predicted_accesses * 2.5 + 3.0;
            p.current_tier = Some(TierId((row + 1) % tiers.len()));
        }
        problem.partitions[5].current_tier = Some(TierId(77));
        for threads in [1, 2] {
            let mut patched = fresh.clone();
            patched
                .patch_rows_with_threads(&problem, &rows, threads)
                .unwrap();
            assert_table_matches_model(&patched, &problem, &format!("patched on {threads}"));
            assert!(patched.min_feasible(4).is_some());
            assert_eq!(patched.min_feasible(5), None);
        }
    }
}

/// `CostTable::assignment` over choices that are **not** the rows' minima
/// — what branch-and-bound returns under capacity — prices the chosen
/// entries on demand: bit for bit `Assignment::from_choices`.
#[test]
fn table_assignment_over_non_minimum_choices_equals_from_choices() {
    fn same(a: &Assignment, b: &Assignment) {
        assert_eq!(a.choices, b.choices);
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        assert_eq!(bits(&a.breakdown), bits(&b.breakdown));
    }
    for multi in [false, true] {
        let mut problem = build_problem(
            multi,
            12,
            &[40.0, 7.5, 120.0, 0.9],
            &[0.0, 250.0, 12.0, 3.0],
            &[2.0, 3.5, 1.4, 6.0],
            &[0.3, 7.0, 2.0, 9.0],
            &[0, 5, 2, 15],
            &[0, 30, 120, 9],
            &PLAIN,
        );
        problem.validate().unwrap();
        let table = CostTable::build(&problem);

        // Every row's dearest feasible entry, then every row's minimum
        // shifted one tier on (feasible or not: every entry is priced).
        let n_tiers = problem.n_tiers();
        let dearest: Vec<(TierId, usize)> = (0..12)
            .map(|n| {
                table
                    .candidates_sorted(n)
                    .last()
                    .map(|&(_, t, k)| (t, k))
                    .unwrap()
            })
            .collect();
        let shifted: Vec<(TierId, usize)> = (0..12)
            .map(|n| {
                let (_, tier, k) = table.min_feasible(n).unwrap();
                (TierId((tier.index() + 1) % n_tiers), k)
            })
            .collect();
        for choices in [dearest, shifted] {
            assert!((0..12).all(|n| {
                let (_, tier, k) = table.min_feasible(n).unwrap();
                choices[n] != (tier, k)
            }));
            same(
                &table.assignment(&problem, choices.clone()).unwrap(),
                &Assignment::from_choices(&problem, choices).unwrap(),
            );
        }

        // A capacity-bound search leaves some rows off their minimum: the
        // tier most minima sit on gets room for half of what they store.
        let mut stored = vec![0.0; n_tiers];
        for (n, p) in problem.partitions.iter().enumerate() {
            let (_, tier, k) = table.min_feasible(n).unwrap();
            stored[tier.index()] += p.stored_gb(k);
        }
        let fullest = (0..n_tiers)
            .max_by(|&a, &b| stored[a].total_cmp(&stored[b]))
            .unwrap();
        let name = problem.catalog.tier(TierId(fullest)).unwrap().name.clone();
        problem
            .catalog
            .set_capacity(&name, stored[fullest] / 2.0)
            .unwrap();
        let bound = CostTable::build(&problem);
        let (searched, _) = solve_branch_and_bound(&problem, 2_000_000).unwrap();
        assert!((0..12).any(|n| {
            let (_, tier, k) = bound.min_feasible(n).unwrap();
            searched.choices[n] != (tier, k)
        }));
        same(
            &searched,
            &Assignment::from_choices(&problem, searched.choices.clone()).unwrap(),
        );
    }
}

/// The predictor's label encoding is greedy-derived; it must equal the
/// labels obtained by running the *reference* greedy on the identically
/// constructed problem — i.e. the table rewrite changed nothing about what
/// the RF model trains on.
#[test]
fn ideal_tier_labels_match_reference_greedy_labels() {
    use scope_workload::{EnterpriseOptions, EnterpriseWorkload};
    let w = EnterpriseWorkload::generate(EnterpriseOptions {
        n_datasets: 80,
        history_months: 6,
        future_months: 4,
        seed: 11,
        ..Default::default()
    })
    .unwrap();
    let catalog = TierCatalog::azure_hot_cool_archive();
    let hot = catalog.tier_id("Hot").unwrap();
    let (from_month, horizon) = (6u32, 4u32);
    let labels =
        ideal_tier_labels(&catalog, &w.catalog, &w.series, from_month, horizon, hot).unwrap();

    // Reconstruct the label problem exactly as the predictor does and run
    // the model-driven reference greedy on it.
    let partitions: Vec<PartitionSpec> = w
        .catalog
        .iter()
        .map(|d| {
            let mut reads = 0.0;
            let mut volume_weighted_fraction = 0.0;
            for m in from_month..from_month + horizon {
                let acc = w.series.get(d.id, m);
                reads += acc.reads;
                volume_weighted_fraction += acc.reads * acc.read_fraction;
            }
            let read_fraction = if reads > 0.0 {
                (volume_weighted_fraction / reads).clamp(0.0, 1.0)
            } else {
                1.0
            };
            PartitionSpec::new(d.id, d.name.clone(), d.size_gb, reads)
                .with_latency_threshold(d.latency_threshold_seconds)
                .with_current_tier(hot)
                .with_read_fraction(read_fraction)
        })
        .collect();
    let problem = OptAssignProblem::new(catalog, partitions, horizon as f64);
    let reference = solve_greedy_reference(&problem).unwrap();
    let reference_labels: Vec<TierId> = reference.choices.iter().map(|&(t, _)| t).collect();
    assert_eq!(labels, reference_labels);
}

/// The parallel per-dataset schedule fan-out equals the sequential
/// per-dataset loop exactly.
#[test]
fn parallel_schedule_fanout_equals_sequential_planning() {
    use scope_optassign::ideal_tier_schedules_with_model;
    use scope_workload::{EnterpriseOptions, EnterpriseWorkload};
    let w = EnterpriseWorkload::generate(EnterpriseOptions {
        n_datasets: 60,
        history_months: 6,
        future_months: 4,
        seed: 23,
        ..Default::default()
    })
    .unwrap();
    let providers = ProviderCatalog::azure_s3_gcs();
    let model = CostModel::with_topology(providers.merged_catalog(), providers.topology());
    let home = providers.merged_tier_id("azure", "Hot").unwrap();
    let write_fraction = 0.05;
    let fanned = ideal_tier_schedules_with_model(
        &model,
        None,
        &w.catalog,
        &w.series,
        6,
        4,
        home,
        write_fraction,
        1,
    )
    .unwrap();
    // Sequential oracle: one DP call per dataset.
    let none = [CompressionOption::none()];
    let sequential: Vec<PlacementPlan> = w
        .catalog
        .iter()
        .map(|d| {
            let periods: Vec<PeriodUsage> = (6..10)
                .map(|m| {
                    let acc = w.series.get(d.id, m);
                    PeriodUsage {
                        read_gb: acc.reads * acc.read_fraction * d.size_gb,
                        write_gb: acc.writes * write_fraction * d.size_gb,
                        read_events: acc.reads,
                    }
                })
                .collect();
            let options = ScheduleOptions {
                current_tier: Some(home),
                latency_threshold_seconds: d.latency_threshold_seconds,
                retier_every: 1,
                ..Default::default()
            };
            plan_placement_schedule(&model, d.size_gb, &none, &periods, &options, None).unwrap()
        })
        .collect();
    assert_eq!(fanned, sequential);
}

/// The parallel tradeoff sweep equals running each α point on its own —
/// the fan-out merge cannot reorder or perturb the curve.
#[test]
fn parallel_tradeoff_sweep_equals_per_alpha_points() {
    use scope_core::scenario::{tpch_scenario, ScenarioOptions};
    use scope_core::tradeoff::{tradeoff_sweep, PredictorVariant};
    let inputs = tpch_scenario(&ScenarioOptions {
        nominal_total_gb: 1.0,
        generator_scale: 0.05,
        queries_per_template: 4,
        total_files: 24,
    })
    .unwrap();
    let alphas = [0.0, 0.1, 0.3, 1.0, 3.0, 10.0];
    let swept = tradeoff_sweep(&inputs, PredictorVariant::RandomForest, &alphas, 1.0).unwrap();
    for (i, &alpha) in alphas.iter().enumerate() {
        let single =
            tradeoff_sweep(&inputs, PredictorVariant::RandomForest, &[alpha], 1.0).unwrap();
        assert_eq!(swept[i], single[0], "alpha = {alpha}");
    }
}
