//! Exact DP and bi-criteria approximation for time-ordered partitions
//! (§VI-B, Theorems 5 and 6).
//!
//! For time-series data every query (initial partition) is an interval of
//! the record axis; partitions are ordered by end time and only merges of
//! *adjacent* runs `[P_{i-k}, ..., P_i]` are considered. The DP
//!
//! ```text
//! ALG[P_i, C] = min_k  ALG[parent(M_i^k), C − C(M_i^k)] + Sp(M_i^k)
//! ```
//!
//! minimizes the total stored space of a covering by runs whose total read
//! cost stays within the budget `C`. With costs discretized to integers the
//! DP is exact in `O(N² · C)` (pseudo-polynomial); discretizing the cost
//! scale by `ε` and extending the threshold by `Nε` gives the paper's
//! `(1, 1 + Nε)` bi-criteria approximation in polynomial time.

use crate::error::DataPartError;

/// A time-ordered initial partition: an interval of the record axis plus an
/// access frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderedPartition {
    /// Start of the interval (inclusive), in record/size units.
    pub start: f64,
    /// End of the interval (exclusive); must be > `start`.
    pub end: f64,
    /// Expected number of accesses.
    pub frequency: f64,
}

impl OrderedPartition {
    /// Create an interval partition.
    pub fn new(start: f64, end: f64, frequency: f64) -> Self {
        OrderedPartition {
            start,
            end,
            frequency,
        }
    }

    /// Span of the interval.
    pub fn span(&self) -> f64 {
        self.end - self.start
    }
}

/// A solution to the ordered merging problem.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderedSolution {
    /// The chosen merges, as index ranges `[from, to]` (inclusive) over the
    /// input order.
    pub merges: Vec<(usize, usize)>,
    /// Total stored space of the merges.
    pub total_space: f64,
    /// Total read cost (`Σ Sp(M)·ρ(M)`) of the merges.
    pub total_cost: f64,
}

fn validate(partitions: &[OrderedPartition]) -> Result<(), DataPartError> {
    if partitions.is_empty() {
        return Err(DataPartError::InvalidOption(
            "no partitions to merge".to_string(),
        ));
    }
    for (i, p) in partitions.iter().enumerate() {
        if !(p.end > p.start) || !(p.frequency >= 0.0) {
            return Err(DataPartError::InvalidOption(format!(
                "partition {i} has an invalid interval or frequency"
            )));
        }
    }
    for w in partitions.windows(2) {
        if w[1].end < w[0].end {
            return Err(DataPartError::InvalidOption(
                "partitions must be sorted by end time".to_string(),
            ));
        }
    }
    Ok(())
}

/// Span and cost of the merge of partitions `[from, to]` (inclusive).
fn merge_stats(partitions: &[OrderedPartition], from: usize, to: usize) -> (f64, f64) {
    let start = partitions[from..=to]
        .iter()
        .map(|p| p.start)
        .fold(f64::INFINITY, f64::min);
    let end = partitions[from..=to]
        .iter()
        .map(|p| p.end)
        .fold(f64::NEG_INFINITY, f64::max);
    let span = end - start;
    let freq: f64 = partitions[from..=to].iter().map(|p| p.frequency).sum();
    (span, span * freq)
}

/// Exact pseudo-polynomial DP: minimize total space subject to total read
/// cost ≤ `cost_threshold`, with costs discretized into `resolution` units
/// per unit of cost (higher resolution = finer discretization = slower).
///
/// Returns an error if even the cheapest covering (every partition kept
/// separate, which has the minimum possible cost) exceeds the threshold.
///
/// # Complexity
///
/// With `N` partitions and a budget of `C` discretized cost units, the DP
/// visits `O(N²)` candidate merges and relaxes `O(C)` budget cells for each
/// — but each merge's span/frequency statistics are maintained
/// **incrementally** while the window `[from, to]` grows rightward, so a
/// merge costs `O(1)` beyond its budget loop: `O(N²·C)` total. The seed
/// implementation re-scanned the window for every `(i, k)` pair
/// (`O(window)` per merge, `O(N²·(N + C))` total — the ISSUE's
/// `O(N²·C·n)` hot loop); it is preserved verbatim as
/// [`solve_ordered_exact_reference`] and pinned bit-for-bit (identical
/// plans, spaces and costs) against this path in
/// `tests/differential_learn.rs`.
///
/// The incremental statistics fold in exactly the order
/// [`merge_stats`]' left-to-right scans do (min/max/sum extended on the
/// right), and ties between equally-good merge lengths resolve to the
/// shortest merge in both paths, so the two are floating-point identical.
pub fn solve_ordered_exact(
    partitions: &[OrderedPartition],
    cost_threshold: f64,
    resolution: f64,
) -> Result<OrderedSolution, DataPartError> {
    validate(partitions)?;
    if !(cost_threshold > 0.0) || !(resolution > 0.0) {
        return Err(DataPartError::InvalidOption(
            "cost_threshold and resolution must be positive".to_string(),
        ));
    }
    let n = partitions.len();
    // Discretize: each merge's cost is rounded *up* to ceil(c * resolution)
    // units (conservative), while the budget is rounded *down* — this way a
    // returned solution's true cost can never exceed the requested
    // threshold, which is what the bi-criteria guarantee of Theorem 6
    // relies on.
    let to_units = |c: f64| (c * resolution).ceil() as usize;
    let budget = (cost_threshold * resolution).floor() as usize;

    // Minimum achievable cost = every partition separate.
    let min_cost: f64 = (0..n).map(|i| merge_stats(partitions, i, i).1).sum();
    if to_units(min_cost) > budget {
        return Err(DataPartError::InfeasibleCostThreshold {
            threshold: cost_threshold,
            minimum: min_cost,
        });
    }

    // dp[i][c] = min space to cover the first i partitions with cost units <= c.
    // choice[i][c] = the k (merge length) achieving it.
    const INF: f64 = f64::INFINITY;
    let mut dp = vec![vec![INF; budget + 1]; n + 1];
    let mut choice = vec![vec![usize::MAX; budget + 1]; n + 1];
    for cell in dp[0].iter_mut() {
        *cell = 0.0;
    }
    // Sweep merge windows [from, to] by growing `to` rightward so the
    // window statistics extend incrementally (same fold order as
    // `merge_stats`, hence bit-identical spans and costs). dp[from] is
    // final before the outer loop reaches it: every transition into row j
    // comes from a window ending at j-1, i.e. an earlier outer iteration.
    for from in 0..n {
        let mut start = f64::INFINITY;
        let mut end = f64::NEG_INFINITY;
        let mut freq = 0.0f64;
        for (to, part) in partitions.iter().enumerate().skip(from) {
            start = start.min(part.start);
            end = end.max(part.end);
            freq += part.frequency;
            let span = end - start;
            let cost = span * freq;
            let units = to_units(cost);
            if units > budget {
                // Spans and frequencies only grow with the window, so every
                // longer merge from this `from` is over budget too.
                break;
            }
            let i = to + 1;
            let k = i - from;
            for c in units..=budget {
                let prev = dp[from][c - units];
                if !prev.is_finite() {
                    continue;
                }
                let cand = prev + span;
                // `<=` so ties prefer the largest `from` (the shortest
                // merge) — the seed loop scanned k = 1..=i with a strict
                // `<`, which kept exactly that choice.
                if cand <= dp[i][c] {
                    dp[i][c] = cand;
                    choice[i][c] = k;
                }
            }
        }
    }
    if dp[n][budget].is_infinite() {
        return Err(DataPartError::InfeasibleCostThreshold {
            threshold: cost_threshold,
            minimum: min_cost,
        });
    }

    // Reconstruct the merges.
    let mut merges = Vec::new();
    let mut i = n;
    let mut c = budget;
    // Walk back through the choices; for the cost index we need the best c
    // for each i, which is the same monotone budget (dp is monotone in c),
    // so we track the remaining budget as we peel merges off.
    while i > 0 {
        // dp[i][c] might be achieved at a smaller c; find the choice made at
        // the largest c' <= c with the same value to recover a valid k.
        let k = choice[i][c];
        debug_assert!(k != usize::MAX);
        let from = i - k;
        let to = i - 1;
        merges.push((from, to));
        let (_, cost) = merge_stats(partitions, from, to);
        c -= to_units(cost);
        i = from;
    }
    merges.reverse();
    let total_space: f64 = merges
        .iter()
        .map(|&(f, t)| merge_stats(partitions, f, t).0)
        .sum();
    let total_cost: f64 = merges
        .iter()
        .map(|&(f, t)| merge_stats(partitions, f, t).1)
        .sum();
    Ok(OrderedSolution {
        merges,
        total_space,
        total_cost,
    })
}

/// The seed implementation of [`solve_ordered_exact`], preserved verbatim
/// as a differential oracle: every `(i, k)` merge
/// candidate recomputes its span/frequency statistics with a full
/// [`merge_stats`] window scan (`O(N²·(N + C))` overall). The production
/// path maintains the statistics incrementally and must return bit-for-bit
/// identical plans; `tests/differential_learn.rs` pins that on random
/// instances.
pub fn solve_ordered_exact_reference(
    partitions: &[OrderedPartition],
    cost_threshold: f64,
    resolution: f64,
) -> Result<OrderedSolution, DataPartError> {
    validate(partitions)?;
    if !(cost_threshold > 0.0) || !(resolution > 0.0) {
        return Err(DataPartError::InvalidOption(
            "cost_threshold and resolution must be positive".to_string(),
        ));
    }
    let n = partitions.len();
    let to_units = |c: f64| (c * resolution).ceil() as usize;
    let budget = (cost_threshold * resolution).floor() as usize;

    let min_cost: f64 = (0..n).map(|i| merge_stats(partitions, i, i).1).sum();
    if to_units(min_cost) > budget {
        return Err(DataPartError::InfeasibleCostThreshold {
            threshold: cost_threshold,
            minimum: min_cost,
        });
    }

    const INF: f64 = f64::INFINITY;
    let mut dp = vec![vec![INF; budget + 1]; n + 1];
    let mut choice = vec![vec![usize::MAX; budget + 1]; n + 1];
    for cell in dp[0].iter_mut() {
        *cell = 0.0;
    }
    for i in 1..=n {
        // The merge covering partition i-1 (0-based) is [i-k, i-1] for k=1..=i.
        for k in 1..=i {
            let from = i - k;
            let to = i - 1;
            let (span, cost) = merge_stats(partitions, from, to);
            let units = to_units(cost);
            for c in units..=budget {
                let prev = dp[from][c - units];
                if prev + span < dp[i][c] {
                    dp[i][c] = prev + span;
                    choice[i][c] = k;
                }
            }
        }
    }
    if dp[n][budget].is_infinite() {
        return Err(DataPartError::InfeasibleCostThreshold {
            threshold: cost_threshold,
            minimum: min_cost,
        });
    }

    let mut merges = Vec::new();
    let mut i = n;
    let mut c = budget;
    while i > 0 {
        let k = choice[i][c];
        debug_assert!(k != usize::MAX);
        let from = i - k;
        let to = i - 1;
        merges.push((from, to));
        let (_, cost) = merge_stats(partitions, from, to);
        c -= to_units(cost);
        i = from;
    }
    merges.reverse();
    let total_space: f64 = merges
        .iter()
        .map(|&(f, t)| merge_stats(partitions, f, t).0)
        .sum();
    let total_cost: f64 = merges
        .iter()
        .map(|&(f, t)| merge_stats(partitions, f, t).1)
        .sum();
    Ok(OrderedSolution {
        merges,
        total_space,
        total_cost,
    })
}

/// The `(1, 1 + Nε)` bi-criteria approximation (Theorem 6): discretize the
/// cost scale so that each merge's cost is rounded up by at most `ε ·
/// cost_threshold / N`, and extend the budget by `N` such units. The space
/// found is at most the optimal space for the original threshold, and the
/// cost is at most `(1 + Nε) · cost_threshold`.
pub fn solve_ordered_bicriteria(
    partitions: &[OrderedPartition],
    cost_threshold: f64,
    epsilon: f64,
) -> Result<OrderedSolution, DataPartError> {
    if !(epsilon > 0.0) {
        return Err(DataPartError::InvalidOption(
            "epsilon must be positive".to_string(),
        ));
    }
    validate(partitions)?;
    let n = partitions.len() as f64;
    // One cost unit = ε · threshold; extend the budget by N units.
    let unit = epsilon * cost_threshold;
    let resolution = 1.0 / unit;
    let extended_threshold = cost_threshold + n * unit;
    solve_ordered_exact(partitions, extended_threshold, resolution)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn chain(n: usize, span: f64, overlap: f64, freq: f64) -> Vec<OrderedPartition> {
        // n intervals of length `span`, each overlapping the previous by
        // `overlap`.
        (0..n)
            .map(|i| {
                let start = i as f64 * (span - overlap);
                OrderedPartition::new(start, start + span, freq)
            })
            .collect()
    }

    #[test]
    fn generous_budget_merges_everything() {
        let parts = chain(5, 10.0, 5.0, 1.0);
        // Full merge: span 10 + 4*5 = 30, freq 5, cost 150.
        let sol = solve_ordered_exact(&parts, 1000.0, 1.0).unwrap();
        assert_eq!(sol.merges, vec![(0, 4)]);
        assert!((sol.total_space - 30.0).abs() < 1e-9);
        assert!((sol.total_cost - 150.0).abs() < 1e-9);
    }

    #[test]
    fn tight_budget_keeps_partitions_separate() {
        let parts = chain(5, 10.0, 5.0, 1.0);
        // Separate cost = 5 * 10 * 1 = 50, which is the minimum possible.
        let sol = solve_ordered_exact(&parts, 50.0, 1.0).unwrap();
        assert_eq!(sol.merges.len(), 5);
        assert!((sol.total_cost - 50.0).abs() < 1e-9);
        assert!((sol.total_space - 50.0).abs() < 1e-9);
        // Below the minimum the instance is infeasible.
        assert!(matches!(
            solve_ordered_exact(&parts, 10.0, 1.0),
            Err(DataPartError::InfeasibleCostThreshold { .. })
        ));
    }

    #[test]
    fn intermediate_budget_trades_space_for_cost() {
        let parts = chain(6, 10.0, 5.0, 1.0);
        let loose = solve_ordered_exact(&parts, 10_000.0, 1.0).unwrap();
        let medium = solve_ordered_exact(&parts, 120.0, 1.0).unwrap();
        let tight = solve_ordered_exact(&parts, 60.0, 1.0).unwrap();
        // Space shrinks as the budget loosens; cost stays within budget.
        assert!(loose.total_space <= medium.total_space);
        assert!(medium.total_space <= tight.total_space);
        assert!(medium.total_cost <= 120.0 + 1e-9);
        assert!(tight.total_cost <= 60.0 + 1e-9);
        // The medium budget should produce a genuine compromise: fewer
        // merges than "all separate", more than "all together".
        assert!(medium.merges.len() > loose.merges.len());
        assert!(medium.merges.len() < tight.merges.len());
    }

    #[test]
    fn merges_are_contiguous_and_cover_everything() {
        let parts = chain(9, 8.0, 3.0, 2.0);
        let sol = solve_ordered_exact(&parts, 400.0, 1.0).unwrap();
        // Contiguity + coverage: ranges tile [0, 9).
        let mut next = 0usize;
        for &(from, to) in &sol.merges {
            assert_eq!(from, next);
            assert!(to >= from);
            next = to + 1;
        }
        assert_eq!(next, 9);
    }

    #[test]
    fn dp_is_optimal_against_brute_force() {
        // Small instance: compare against exhaustive enumeration of all
        // contiguous coverings.
        let parts = chain(6, 7.0, 2.0, 1.5);
        let budget = 130.0;
        let dp = solve_ordered_exact(&parts, budget, 10.0).unwrap();

        // Brute force over compositions of 6.
        fn enumerate(
            parts: &[OrderedPartition],
            start: usize,
            budget: f64,
            space: f64,
            best: &mut f64,
        ) {
            if start == parts.len() {
                if space < *best {
                    *best = space;
                }
                return;
            }
            for end in start..parts.len() {
                let (span, cost) = super::merge_stats(parts, start, end);
                if cost <= budget + 1e-12 {
                    enumerate(parts, end + 1, budget - cost, space + span, best);
                }
            }
        }
        let mut best = f64::INFINITY;
        enumerate(&parts, 0, budget, 0.0, &mut best);
        // The DP discretizes costs (rounding up), so it may be slightly
        // conservative but never better than the true optimum.
        assert!(dp.total_space >= best - 1e-9);
        assert!(dp.total_space <= best * 1.1 + 1e-9);
    }

    #[test]
    fn incremental_dp_matches_reference_bitwise() {
        // Production (incremental window stats) vs seed (per-merge window
        // re-scans): identical plans, spaces and costs, bit for bit —
        // including on tie-heavy uniform chains where the shortest-merge
        // tie-break decides the plan.
        let mut cases: Vec<(Vec<OrderedPartition>, f64, f64)> = vec![
            (chain(12, 10.0, 5.0, 1.0), 400.0, 1.0),
            (chain(12, 10.0, 5.0, 1.0), 700.0, 3.0),
            (chain(9, 7.0, 2.0, 0.0), 80.0, 1.0),
        ];
        // Irregular instances: varying spans, overlaps and frequencies.
        let mut parts = Vec::new();
        let mut end = 0.0;
        for i in 0..15 {
            let span = 3.0 + (i % 5) as f64 * 2.5;
            end += 1.0 + (i % 3) as f64;
            parts.push(OrderedPartition::new(end - span, end, (i % 4) as f64));
        }
        cases.push((parts.clone(), 900.0, 2.0));
        cases.push((parts, 2500.0, 0.5));
        for (parts, budget, resolution) in cases {
            let fast = solve_ordered_exact(&parts, budget, resolution).unwrap();
            let slow = solve_ordered_exact_reference(&parts, budget, resolution).unwrap();
            assert_eq!(fast.merges, slow.merges);
            assert_eq!(fast.total_space.to_bits(), slow.total_space.to_bits());
            assert_eq!(fast.total_cost.to_bits(), slow.total_cost.to_bits());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Brute-force optimality at larger N than the fixed 6-partition
        /// unit test: integer spans, steps and frequencies with resolution
        /// 1.0 make the discretization exact, so the DP must match the
        /// enumerated optimum *exactly* — and the incremental production
        /// path must match the seed reference bit-for-bit.
        #[test]
        fn dp_is_optimal_against_brute_force_at_larger_n(
            steps in proptest::collection::vec(1u32..6, 7..12),
            spans in proptest::collection::vec(1u32..7, 12),
            freqs in proptest::collection::vec(0u32..5, 12),
            budget_extra in 1u32..60,
        ) {
            let n = steps.len();
            let mut parts = Vec::with_capacity(n);
            let mut end = 0i64;
            for i in 0..n {
                end += steps[i] as i64;
                let span = spans[i] as i64;
                parts.push(OrderedPartition::new(
                    (end - span) as f64,
                    end as f64,
                    freqs[i] as f64,
                ));
            }
            // All stats are integers, so ceil/floor discretization at
            // resolution 1.0 is exact and f64 sums are exact.
            let min_cost: i64 = parts.iter().map(|p| (p.span() * p.frequency) as i64).sum();
            let budget_units = min_cost + budget_extra as i64;
            let budget = budget_units as f64;

            let fast = solve_ordered_exact(&parts, budget, 1.0).unwrap();
            let slow = solve_ordered_exact_reference(&parts, budget, 1.0).unwrap();
            prop_assert_eq!(&fast.merges, &slow.merges);
            prop_assert_eq!(fast.total_space.to_bits(), slow.total_space.to_bits());
            prop_assert_eq!(fast.total_cost.to_bits(), slow.total_cost.to_bits());

            // Exhaustive enumeration of all 2^(n-1) contiguous coverings,
            // in the DP's own integer cost units.
            fn enumerate(
                parts: &[OrderedPartition],
                start: usize,
                budget_units: i64,
                space: i64,
                best: &mut i64,
            ) {
                if start == parts.len() {
                    *best = (*best).min(space);
                    return;
                }
                for end in start..parts.len() {
                    let lo = parts[start..=end]
                        .iter()
                        .map(|p| p.start)
                        .fold(f64::INFINITY, f64::min) as i64;
                    let hi = parts[start..=end]
                        .iter()
                        .map(|p| p.end)
                        .fold(f64::NEG_INFINITY, f64::max) as i64;
                    let freq: i64 = parts[start..=end].iter().map(|p| p.frequency as i64).sum();
                    let span = hi - lo;
                    let cost = span * freq;
                    if cost <= budget_units {
                        enumerate(parts, end + 1, budget_units - cost, space + span, best);
                    }
                }
            }
            let mut best = i64::MAX;
            enumerate(&parts, 0, budget_units, 0, &mut best);
            prop_assert!(best < i64::MAX, "separate covering always fits");
            prop_assert_eq!(fast.total_space as i64, best);
        }
    }

    #[test]
    fn bicriteria_respects_relaxed_budget() {
        let parts = chain(8, 10.0, 6.0, 1.0);
        let threshold = 200.0;
        let epsilon = 0.05;
        let sol = solve_ordered_bicriteria(&parts, threshold, epsilon).unwrap();
        let n = parts.len() as f64;
        assert!(sol.total_cost <= threshold * (1.0 + n * epsilon) + 1e-6);
        // Space must be no worse than the exact solution at the original
        // threshold (the whole point of the bi-criteria trade).
        let exact = solve_ordered_exact(&parts, threshold, 10.0).unwrap();
        assert!(sol.total_space <= exact.total_space + 1e-9);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(solve_ordered_exact(&[], 10.0, 1.0).is_err());
        let bad_interval = vec![OrderedPartition::new(5.0, 5.0, 1.0)];
        assert!(solve_ordered_exact(&bad_interval, 10.0, 1.0).is_err());
        let unsorted = vec![
            OrderedPartition::new(0.0, 10.0, 1.0),
            OrderedPartition::new(0.0, 5.0, 1.0),
        ];
        assert!(solve_ordered_exact(&unsorted, 100.0, 1.0).is_err());
        let ok = chain(3, 5.0, 1.0, 1.0);
        assert!(solve_ordered_exact(&ok, -1.0, 1.0).is_err());
        assert!(solve_ordered_exact(&ok, 100.0, 0.0).is_err());
        assert!(solve_ordered_bicriteria(&ok, 100.0, 0.0).is_err());
    }
}
