//! The cost-table engine: the dense `[partition × tier × compression]`
//! cost matrix every solver searches instead of re-deriving prices through
//! the [`CostModel`].
//!
//! The OPTASSIGN inner loops are pure cost evaluation: the greedy scans
//! every `(tier, scheme)` pair per partition, branch-and-bound builds
//! sorted candidate lists and suffix lower bounds from the same values, and
//! the Hungarian matching fills an `n × m` edge-weight matrix with them.
//! Before this engine each evaluation went through
//! [`OptAssignProblem::placement_cost`], which clones the catalog (and, on
//! merged multi-provider instances, the topology) into a fresh model per
//! call — the allocation churn flagged as a ROADMAP open item. A
//! [`CostTable`] instead evaluates the **full matrix exactly once per
//! solve** with a single hoisted model (egress/topology-aware via
//! [`CostModel::with_topology`] when the problem carries a topology),
//! alongside a per-entry SLA-feasibility mask and precomputed per-partition
//! column minima, and the solvers do table lookups from then on. It is
//! also what a long-running caller holds per object between solves, so it
//! stores what searches read — a number and a flag per entry — and not
//! what can be priced again.
//!
//! ## The cell, and the row kernel
//!
//! A table entry is 9 bytes: the weighted cost and the feasibility flag.
//! Beside the entries each row keeps its feasible minimum and that one
//! entry's unweighted [`CostBreakdown`] — what the greedy rule and the
//! serving engine's applied-choice mirror read. The breakdown of any other
//! entry is not stored: [`CostTable::breakdown`] prices it when asked
//! (branch-and-bound's chosen entries, an explicit choice list), through
//! [`OptAssignProblem::cost_breakdown_with`].
//!
//! One function prices a partition: [`Run::price`] writes the row's
//! tier-major block straight into the table's `cost` / `feasible` arrays
//! and records its feasible minimum with its breakdown — no per-row
//! temporaries, no copy. [`CostTable::build`] runs it over every row of a
//! freshly sized table and [`CostTable::patch_rows`] over a worklist, so a
//! patched row is bit for bit the row a from-scratch build would produce.
//! Per `(row, tier)` the kernel hoists what no compression option changes
//! (the egress charge, the early-deletion penalty, the tier's time to
//! first byte) out of the scheme loop; the expressions and their order
//! are those of [`OptAssignProblem::cost_breakdown_with`], which is
//! written over the same two helpers — there is one definition of a
//! price, whether it is weighed into the table, kept as a row's minimum
//! or priced on demand — so the table, and therefore every solver result,
//! is **bit-for-bit identical** to the sequential, model-driven path
//! (enforced by the differential proptests in
//! `tests/differential_costtable.rs` against [`crate::reference`]). A NaN
//! price (an unvalidated problem's foreign tier) is stored like any other
//! but never becomes a row's minimum nor a branch-and-bound candidate.
//!
//! ## Who decides the thread count
//!
//! The caller that owns the fan-out does. [`CostTable::build_with_threads`]
//! and [`CostTable::patch_rows_with_threads`] take the worker count: `1`
//! prices on the calling thread and spawns nothing — what a caller that
//! has already fanned out (the serving engine, one worker per group of
//! account shards) passes — and `n > 1` cuts the table's arrays at row
//! boundaries into `n` disjoint `split_at_mut` stretches, one scoped
//! worker of [`scope_cloudsim::parallel`] each, which price in place. The
//! unsuffixed [`CostTable::build`] / [`CostTable::patch_rows`] are for
//! callers that have not fanned out (the batch solvers): they use
//! [`default_threads`] from `PARALLEL_MIN_ROWS` rows on and one thread
//! below it. The thread count changes wall-clock time only.

use crate::error::OptAssignError;
use crate::problem::{improves_minimum, Assignment, OptAssignProblem};
use scope_cloudsim::parallel::{default_threads, parallel_map_mut_with_threads};
use scope_cloudsim::{CostBreakdown, CostModel, TierId};

/// Rows from which the unsuffixed [`CostTable::build`] /
/// [`CostTable::patch_rows`] fan out by themselves: the serving engine's
/// measured floor (`FAN_OUT_MIN_ROWS` in `scope-serve`, from the same
/// sweep on the 2-vCPU reference host). A row of the serving fleet
/// (3 tiers × 6 schemes) prices in about 0.4 µs and a scoped-thread
/// fan-out costs about 130 µs (`cloudsim.parallel_map_overhead_us`), so
/// below a few thousand rows a second worker saves less than it costs.
/// Purely a wall-clock heuristic — every thread count produces the same
/// bits.
const PARALLEL_MIN_ROWS: usize = 4096;

/// A partition's feasible minimum: `(cost, tier, option)`.
type RowMin = Option<(f64, TierId, usize)>;

/// A contiguous stretch of the table — the rows from `first_row` up to
/// wherever its slices end — borrowed mutably so one worker can price
/// rows of it in place.
struct Run<'a> {
    problem: &'a OptAssignProblem,
    model: &'a CostModel,
    n_tiers: usize,
    offsets: &'a [usize],
    n_options: &'a [usize],
    first_row: usize,
    cost: &'a mut [f64],
    feasible: &'a mut [bool],
    min_feasible: &'a mut [RowMin],
    min_breakdown: &'a mut [CostBreakdown],
}

impl<'a> Run<'a> {
    /// The row kernel: price partition `row` (which this run must cover)
    /// into its tier-major block and record its feasible minimum — the
    /// first minimum in tier-major order, never a NaN.
    fn price(&mut self, row: usize) {
        let p = &self.problem.partitions[row];
        let n_opts = self.n_options[row];
        let lo = self.offsets[row] - self.offsets[self.first_row];
        let len = self.n_tiers * n_opts;
        let cost = &mut self.cost[lo..lo + len];
        let feasible = &mut self.feasible[lo..lo + len];
        let mut min: RowMin = None;
        let mut min_breakdown = CostBreakdown::default();
        for t in 0..self.n_tiers {
            let tier = TierId(t);
            let terms = self.problem.move_terms(self.model, p, tier);
            let ttfb = self.problem.ttfb_seconds(tier);
            for k in 0..n_opts {
                let b = self
                    .problem
                    .cost_breakdown_on(self.model, p, tier, k, &terms);
                let c = self.problem.weighted_objective(&b);
                let ok = self.problem.is_feasible_at(p, ttfb, k);
                if ok && improves_minimum(c, min.map(|(mc, _, _)| mc)) {
                    min = Some((c, tier, k));
                    min_breakdown = b;
                }
                let e = t * n_opts + k;
                cost[e] = c;
                feasible[e] = ok;
            }
        }
        self.min_feasible[row - self.first_row] = min;
        self.min_breakdown[row - self.first_row] = min_breakdown;
    }

    /// Price `rows` (each of which this run must cover) in the order given.
    fn price_all(&mut self, rows: impl Iterator<Item = usize>) {
        for row in rows {
            self.price(row);
        }
    }

    /// Cut the run in two at `row`, which it must cover: the rows before
    /// it, and `row` onward.
    fn split_at(self, row: usize) -> (Run<'a>, Run<'a>) {
        let rows = row - self.first_row;
        let entries = self.offsets[row] - self.offsets[self.first_row];
        let (cost, cost_tail) = self.cost.split_at_mut(entries);
        let (feasible, feasible_tail) = self.feasible.split_at_mut(entries);
        let (min_feasible, min_feasible_tail) = self.min_feasible.split_at_mut(rows);
        let (min_breakdown, min_breakdown_tail) = self.min_breakdown.split_at_mut(rows);
        let head = Run {
            cost,
            feasible,
            min_feasible,
            min_breakdown,
            ..self
        };
        let tail = Run {
            first_row: row,
            cost: cost_tail,
            feasible: feasible_tail,
            min_feasible: min_feasible_tail,
            min_breakdown: min_breakdown_tail,
            ..head
        };
        (head, tail)
    }
}

/// Dense per-solve cost matrix over `[partition × tier × compression]`.
///
/// Entry `(n, l, k)` holds the weighted objective contribution (Eq. 1) of
/// placing partition `n` on tier `l` with compression option `k` and
/// whether the placement is feasible (latency threshold +
/// fixed-compression constraint; capacity is a coupling constraint the
/// solvers handle) — 9 bytes. Costs are priced for **all** entries —
/// including infeasible ones — so explicit choice lists (e.g. re-pricing a
/// plan under ground truth) can be evaluated from the table too;
/// feasibility is a separate mask. The unweighted [`CostBreakdown`] is
/// stored for one entry per row, its feasible minimum; any other entry's
/// is priced when asked for (see [`Self::breakdown`]).
#[derive(Debug, Clone)]
pub struct CostTable {
    n_tiers: usize,
    /// Start of partition `n`'s block in the flat arrays; the block is
    /// `n_tiers * n_options[n]` entries, tier-major.
    offsets: Vec<usize>,
    /// Compression option count per partition.
    n_options: Vec<usize>,
    cost: Vec<f64>,
    feasible: Vec<bool>,
    /// Per-partition `(cost, tier, k)` minimum over feasible entries, in
    /// exactly the scan order and tie-break of
    /// [`OptAssignProblem::min_feasible_cost`].
    min_feasible: Vec<RowMin>,
    /// The breakdown the row kernel priced for that minimum (all zero for
    /// a row without one).
    min_breakdown: Vec<CostBreakdown>,
}

impl CostTable {
    /// Evaluate the full cost matrix for a **validated** problem, on
    /// [`default_threads`] workers once the instance is large enough to
    /// repay a fan-out (see the [module docs](self)) and on the calling
    /// thread below that.
    ///
    /// An unvalidated problem (a current tier outside the catalog) does
    /// not panic: the affected entries are priced NaN and never become a
    /// row's minimum — call [`OptAssignProblem::validate`] first, as every
    /// solver does, for a typed error instead.
    pub fn build(problem: &OptAssignProblem) -> CostTable {
        Self::build_with_threads(problem, auto_threads(problem.partitions.len()))
    }

    /// [`Self::build`] on exactly `threads` workers (`1`, or `0`, prices on
    /// the calling thread and spawns nothing). The table is sized up
    /// front and every row priced in place by the one row kernel under
    /// one hoisted [`CostModel`]; with several workers each takes a
    /// contiguous range of partitions and the disjoint stretch of the
    /// arrays that belongs to it.
    pub fn build_with_threads(problem: &OptAssignProblem, threads: usize) -> CostTable {
        let n_tiers = problem.n_tiers();
        let n = problem.partitions.len();
        let n_options: Vec<usize> = problem
            .partitions
            .iter()
            .map(|p| p.compression_options.len())
            .collect();
        let mut offsets = Vec::with_capacity(n);
        let mut total = 0;
        for &k in &n_options {
            offsets.push(total);
            total += n_tiers * k;
        }
        let mut table = CostTable {
            n_tiers,
            offsets,
            n_options,
            cost: vec![0.0; total],
            feasible: vec![false; total],
            min_feasible: vec![None; n],
            min_breakdown: vec![CostBreakdown::default(); n],
        };
        let model = problem.cost_model();
        let mut whole = table.run(problem, &model);
        if threads.min(n) <= 1 {
            whole.price_all(0..n);
        } else {
            let all: Vec<usize> = (0..n).collect();
            price_in_parallel(whole, &all, threads);
        }
        table
    }

    /// The whole table as one [`Run`].
    fn run<'a>(&'a mut self, problem: &'a OptAssignProblem, model: &'a CostModel) -> Run<'a> {
        Run {
            problem,
            model,
            n_tiers: self.n_tiers,
            offsets: &self.offsets,
            n_options: &self.n_options,
            first_row: 0,
            cost: &mut self.cost,
            feasible: &mut self.feasible,
            min_feasible: &mut self.min_feasible,
            min_breakdown: &mut self.min_breakdown,
        }
    }

    /// Number of tiers per partition block.
    pub fn n_tiers(&self) -> usize {
        self.n_tiers
    }

    /// Number of partitions covered.
    pub fn n_partitions(&self) -> usize {
        self.offsets.len()
    }

    /// Number of compression options of partition `n`.
    pub fn n_options(&self, n: usize) -> usize {
        self.n_options[n]
    }

    #[inline]
    fn index(&self, n: usize, tier: TierId, k: usize) -> usize {
        debug_assert!(tier.index() < self.n_tiers && k < self.n_options[n]);
        self.offsets[n] + tier.index() * self.n_options[n] + k
    }

    /// Weighted objective contribution of placing partition `n` on `tier`
    /// with option `k` (priced even for infeasible entries).
    #[inline]
    pub fn cost(&self, n: usize, tier: TierId, k: usize) -> f64 {
        self.cost[self.index(n, tier, k)]
    }

    /// Unweighted cost breakdown of the same placement, over a model from
    /// [`OptAssignProblem::cost_model`] (hoist one per batch of reads).
    /// Only the row minimum's breakdown is stored; any other entry is
    /// priced here, by the expressions the row kernel priced its cost
    /// with, so it is the breakdown [`Self::cost`] weighs — bit for bit —
    /// as long as partition `n` has not changed since the row was last
    /// priced.
    pub fn breakdown(
        &self,
        problem: &OptAssignProblem,
        model: &CostModel,
        n: usize,
        tier: TierId,
        k: usize,
    ) -> CostBreakdown {
        match self.min_feasible[n] {
            Some((_, min_tier, min_k)) if (min_tier, min_k) == (tier, k) => self.min_breakdown[n],
            _ => problem.cost_breakdown_with(model, &problem.partitions[n], tier, k),
        }
    }

    /// The SLA-feasibility mask: latency threshold and fixed-compression
    /// constraint, exactly [`OptAssignProblem::is_feasible`].
    #[inline]
    pub fn is_feasible(&self, n: usize, tier: TierId, k: usize) -> bool {
        self.feasible[self.index(n, tier, k)]
    }

    /// The precomputed column minimum of partition `n`: its cheapest
    /// feasible `(cost, tier, k)` ignoring capacity — the greedy choice and
    /// the branch-and-bound lower-bound ingredient. `None` when no
    /// placement satisfies the partition's constraints.
    #[inline]
    pub fn min_feasible(&self, n: usize) -> Option<(f64, TierId, usize)> {
        self.min_feasible[n]
    }

    /// The stored breakdown of [`Self::min_feasible`]'s entry (all zero
    /// when partition `n` has none) — what a caller that applies the row
    /// minimum reads without a model.
    #[inline]
    pub fn min_breakdown(&self, n: usize) -> &CostBreakdown {
        &self.min_breakdown[n]
    }

    /// Re-evaluate the blocks of the listed partitions in place — the delta
    /// update behind the incremental serving engine: after a batch of heat
    /// deltas changes the projected accesses of a few partitions, only
    /// their rows are re-priced and every untouched row is reused verbatim.
    ///
    /// Each listed row is priced by the same row kernel (one hoisted
    /// model, tier-major scan, identical min-feasible tie-break) the full
    /// build uses, so a patched table is **bit-for-bit equal** to
    /// `CostTable::build` of the mutated problem. The worklist may be in
    /// any order and may repeat rows. Large worklists fan out as
    /// [`Self::build`] does.
    ///
    /// `problem` must be the same instance the table was built from, with
    /// only per-partition spec fields mutated: the partition count, tier
    /// count and each patched partition's option count must be unchanged
    /// (anything else needs a rebuild and is rejected).
    pub fn patch_rows(
        &mut self,
        problem: &OptAssignProblem,
        rows: &[usize],
    ) -> Result<(), OptAssignError> {
        self.patch_rows_with_threads(problem, rows, auto_threads(rows.len()))
    }

    /// [`Self::patch_rows`] on exactly `threads` workers (`1`, or `0`,
    /// prices on the calling thread, in worklist order, and neither
    /// spawns nor allocates).
    pub fn patch_rows_with_threads(
        &mut self,
        problem: &OptAssignProblem,
        rows: &[usize],
        threads: usize,
    ) -> Result<(), OptAssignError> {
        if problem.partitions.len() != self.offsets.len() || problem.n_tiers() != self.n_tiers {
            return Err(OptAssignError::InvalidProblem(format!(
                "patch shape mismatch: table covers {} partitions x {} tiers, problem has {} x {}",
                self.offsets.len(),
                self.n_tiers,
                problem.partitions.len(),
                problem.n_tiers()
            )));
        }
        for &n in rows {
            if n >= self.offsets.len() {
                return Err(OptAssignError::InvalidProblem(format!(
                    "patched row {n} out of range ({} partitions)",
                    self.offsets.len()
                )));
            }
            if problem.partitions[n].compression_options.len() != self.n_options[n] {
                return Err(OptAssignError::InvalidProblem(format!(
                    "partition {n} changed its option count ({} -> {}); rebuild the table",
                    self.n_options[n],
                    problem.partitions[n].compression_options.len()
                )));
            }
        }
        let model = problem.cost_model();
        let mut whole = self.run(problem, &model);
        if threads.min(rows.len()) <= 1 {
            whole.price_all(rows.iter().copied());
        } else {
            // Workers own disjoint stretches of the arrays, so the
            // worklist is put in row order and repeats dropped first.
            let mut sorted = rows.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            price_in_parallel(whole, &sorted, threads);
        }
        Ok(())
    }

    /// Feasible candidates of partition `n` sorted by increasing cost, in
    /// exactly the construction order and (stable) sort the historical
    /// branch-and-bound used, so the search expands identical nodes. A NaN
    /// price (an unvalidated problem's foreign tier) is no candidate, by
    /// the rule that keeps it from being a row's minimum — so the first
    /// candidate is [`Self::min_feasible`]'s entry, and every comparison
    /// the sort makes is between ordered numbers.
    pub fn candidates_sorted(&self, n: usize) -> Vec<(f64, TierId, usize)> {
        let mut cands = Vec::new();
        for t in 0..self.n_tiers {
            let tier = TierId(t);
            for k in 0..self.n_options[n] {
                let e = self.index(n, tier, k);
                if self.feasible[e] && improves_minimum(self.cost[e], None) {
                    cands.push((self.cost[e], tier, k));
                }
            }
        }
        cands.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        cands
    }

    /// Assemble an [`Assignment`] from explicit choices: the objective sums
    /// table entries, the breakdown the chosen entries' breakdowns (stored
    /// for a row's minimum, priced under one hoisted model otherwise) —
    /// same accumulation order (partition order) and arithmetic as
    /// [`Assignment::from_choices`].
    pub fn assignment(
        &self,
        problem: &OptAssignProblem,
        choices: Vec<(TierId, usize)>,
    ) -> Result<Assignment, OptAssignError> {
        if choices.len() != problem.partitions.len() {
            return Err(OptAssignError::InvalidProblem(format!(
                "expected {} choices, got {}",
                problem.partitions.len(),
                choices.len()
            )));
        }
        let model = problem.cost_model();
        let mut objective = 0.0;
        let mut breakdown = CostBreakdown::default();
        for (n, &(tier, k)) in choices.iter().enumerate() {
            objective += self.cost(n, tier, k);
            breakdown.accumulate(&self.breakdown(problem, &model, n, tier, k));
        }
        Ok(Assignment {
            choices,
            objective,
            breakdown,
        })
    }
}

/// The worker count the unsuffixed entry points choose for `rows` rows.
fn auto_threads(rows: usize) -> usize {
    if rows >= PARALLEL_MIN_ROWS {
        default_threads()
    } else {
        1
    }
}

/// Price `rows` — ascending and distinct — on up to `threads` workers:
/// the worklist is chunked evenly, `whole` is cut at each chunk's first
/// row, and every worker prices its chunk inside the stretch it owns.
fn price_in_parallel(whole: Run<'_>, rows: &[usize], threads: usize) {
    let workers = threads.min(rows.len());
    let mut chunks = rows.chunks(rows.len().div_ceil(workers)).peekable();
    let mut work = Vec::with_capacity(workers);
    let mut rest = whole;
    while let Some(chunk) = chunks.next() {
        let Some(next) = chunks.peek() else {
            work.push((rest, chunk));
            break;
        };
        let (head, tail) = rest.split_at(next[0]);
        work.push((head, chunk));
        rest = tail;
    }
    // One worker per chunk (rounding can leave fewer chunks than workers).
    let workers = work.len();
    parallel_map_mut_with_threads(&mut work, workers, |_, (run, chunk)| {
        run.price_all(chunk.iter().copied());
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{CompressionOption, PartitionSpec};
    use scope_cloudsim::{ProviderCatalog, TierCatalog};

    fn partition(id: usize, size: f64, accesses: f64) -> PartitionSpec {
        PartitionSpec::new(id, format!("p{id}"), size, accesses)
            .with_compression_option(CompressionOption::new("gzip", 4.0, 5.0))
            .with_compression_option(CompressionOption::new("snappy", 2.0, 0.5))
    }

    #[test]
    fn table_entries_match_the_model_driven_evaluation_exactly() {
        let providers = ProviderCatalog::azure_s3_gcs();
        let azure_hot = providers.merged_tier_id("azure", "Hot").unwrap();
        let parts: Vec<PartitionSpec> = (0..5)
            .map(|i| {
                partition(i, 10.0 * (i + 1) as f64, (i * 7) as f64)
                    .with_current_tier(azure_hot)
                    .with_latency_threshold(if i % 2 == 0 { 60.0 } else { f64::INFINITY })
            })
            .collect();
        let problem = OptAssignProblem::multi_provider(&providers, parts, 6.0);
        problem.validate().unwrap();
        let table = CostTable::build(&problem);
        let model = problem.cost_model();
        assert_eq!(table.n_partitions(), 5);
        assert_eq!(table.n_tiers(), 12);
        for (n, p) in problem.partitions.iter().enumerate() {
            assert_eq!(table.n_options(n), 3);
            for tier in problem.catalog.tier_ids() {
                for k in 0..3 {
                    // Bit-for-bit: same arithmetic, hoisted model or not.
                    assert_eq!(
                        table.cost(n, tier, k).to_bits(),
                        problem.placement_cost(p, tier, k).to_bits()
                    );
                    assert_eq!(
                        table.breakdown(&problem, &model, n, tier, k),
                        problem.cost_breakdown(p, tier, k)
                    );
                    assert_eq!(
                        table.is_feasible(n, tier, k),
                        problem.is_feasible(p, tier, k)
                    );
                }
            }
            match (table.min_feasible(n), problem.min_feasible_cost(p)) {
                (Some((tc, tt, tk)), Some((mc, mt, mk))) => {
                    assert_eq!(tc.to_bits(), mc.to_bits());
                    assert_eq!((tt, tk), (mt, mk));
                }
                (a, b) => assert_eq!(a.is_none(), b.is_none()),
            }
        }
    }

    /// Every entry, flag and row minimum of `a` equals `b`'s, bit for bit.
    fn assert_same_table(a: &CostTable, b: &CostTable, problem: &OptAssignProblem) {
        assert_eq!(a.n_partitions(), b.n_partitions());
        let model = problem.cost_model();
        for (n, p) in problem.partitions.iter().enumerate() {
            for tier in problem.catalog.tier_ids() {
                for k in 0..p.compression_options.len() {
                    assert_eq!(
                        a.cost(n, tier, k).to_bits(),
                        b.cost(n, tier, k).to_bits(),
                        "entry ({n}, {tier}, {k})"
                    );
                    assert_eq!(
                        a.breakdown(problem, &model, n, tier, k),
                        b.breakdown(problem, &model, n, tier, k)
                    );
                    assert_eq!(a.is_feasible(n, tier, k), b.is_feasible(n, tier, k));
                }
            }
            assert_eq!(a.min_feasible(n), b.min_feasible(n));
            assert_eq!(a.min_breakdown(n), b.min_breakdown(n));
        }
    }

    #[test]
    fn parallel_build_is_bit_identical_to_sequential() {
        // Rows of two widths (every 5th partition has one option more),
        // so the workers' stretches of the arrays start at uneven offsets.
        let catalog = TierCatalog::azure_adls_gen2();
        let parts: Vec<PartitionSpec> = (0..80)
            .map(|i| {
                let p = partition(i, 1.0 + (i % 13) as f64, (i % 7) as f64);
                if i % 5 == 0 {
                    p.with_compression_option(CompressionOption::new("lz4", 1.5, 0.1))
                } else {
                    p
                }
            })
            .collect();
        let problem = OptAssignProblem::new(catalog, parts, 6.0);
        problem.validate().unwrap();
        let sequential = CostTable::build_with_threads(&problem, 1);
        for (n, p) in problem.partitions.iter().enumerate() {
            for tier in problem.catalog.tier_ids() {
                for k in 0..p.compression_options.len() {
                    assert_eq!(
                        sequential.cost(n, tier, k).to_bits(),
                        problem.placement_cost(p, tier, k).to_bits(),
                        "entry ({n}, {tier}, {k})"
                    );
                }
            }
        }
        // More workers than rows is clamped; 0 means the calling thread.
        for threads in [0, 2, 3, 7, 80, 200] {
            let table = CostTable::build_with_threads(&problem, threads);
            assert_same_table(&table, &sequential, &problem);
        }
        assert_same_table(&CostTable::build(&problem), &sequential, &problem);
    }

    #[test]
    fn infeasible_partitions_have_no_column_min() {
        let catalog = TierCatalog::azure_adls_gen2();
        let parts = vec![partition(0, 1.0, 1.0).with_latency_threshold(1e-9)];
        let problem = OptAssignProblem::new(catalog, parts, 6.0);
        let table = CostTable::build(&problem);
        assert!(table.min_feasible(0).is_none());
        assert!(table.candidates_sorted(0).is_empty());
        // Costs are still priced for infeasible entries.
        assert!(table.cost(0, TierId(0), 0) > 0.0);
    }

    #[test]
    fn assignment_from_table_matches_from_choices() {
        let catalog = TierCatalog::azure_adls_gen2();
        let hot = catalog.tier_id("Hot").unwrap();
        let cool = catalog.tier_id("Cool").unwrap();
        let parts = vec![partition(0, 10.0, 5.0), partition(1, 20.0, 1.0)];
        let problem = OptAssignProblem::new(catalog, parts, 6.0);
        let table = CostTable::build(&problem);
        let choices = vec![(hot, 1), (cool, 0)];
        let via_table = table.assignment(&problem, choices.clone()).unwrap();
        let via_model = Assignment::from_choices(&problem, choices).unwrap();
        assert_eq!(via_table, via_model);
        assert!(table.assignment(&problem, vec![(hot, 0)]).is_err());
    }

    #[test]
    fn patched_rows_are_bit_identical_to_a_rebuild() {
        let catalog = TierCatalog::azure_adls_gen2();
        let parts: Vec<PartitionSpec> = (0..90)
            .map(|i| partition(i, 1.0 + (i % 13) as f64, (i % 7) as f64))
            .collect();
        let mut problem = OptAssignProblem::new(catalog, parts, 6.0);
        problem.validate().unwrap();
        let built = CostTable::build(&problem);

        // Mutate a scattered worklist of projected accesses (the serving
        // engine's rebucketing) and patch only those rows — listed out of
        // order and with a repeat, which every worker count must accept.
        let mut worklist: Vec<usize> = (0..90).filter(|i| i % 7 == 3).rev().collect();
        worklist.push(worklist[2]);
        for &n in &worklist {
            problem.partitions[n].predicted_accesses += 31.0;
        }
        let rebuilt = CostTable::build(&problem);
        for threads in [1, 2, 4, 64] {
            let mut table = built.clone();
            table
                .patch_rows_with_threads(&problem, &worklist, threads)
                .unwrap();
            assert_same_table(&table, &rebuilt, &problem);
        }
        let mut table = built.clone();
        table.patch_rows(&problem, &worklist).unwrap();
        assert_same_table(&table, &rebuilt, &problem);
        // An empty worklist is a no-op for any worker count.
        table.patch_rows_with_threads(&problem, &[], 4).unwrap();
        assert_same_table(&table, &rebuilt, &problem);
    }

    #[test]
    fn patch_rejects_shape_changes() {
        let catalog = TierCatalog::azure_adls_gen2();
        let parts = vec![partition(0, 10.0, 5.0), partition(1, 20.0, 1.0)];
        let mut problem = OptAssignProblem::new(catalog, parts, 6.0);
        let mut table = CostTable::build(&problem);
        assert!(table.patch_rows(&problem, &[2]).is_err());
        problem.partitions[0].compression_options.pop();
        assert!(table.patch_rows(&problem, &[0]).is_err());
        problem.partitions.pop();
        assert!(table.patch_rows(&problem, &[0]).is_err());
    }
}
