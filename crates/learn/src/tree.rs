//! CART decision trees for regression and classification.
//!
//! These are the building blocks of the [`crate::forest`] and
//! [`crate::boosting`] ensembles. Splits are chosen greedily: variance
//! reduction for regression, Gini impurity reduction for classification.
//! Candidate thresholds are the midpoints between consecutive distinct
//! sorted feature values, which is exact for the small-to-medium feature
//! spaces used by COMPREDICT and the tier predictor.
//!
//! # Fast path vs reference
//!
//! The production builder here is the **rank-ordered** fast path: every
//! feature's positions are ordered once per tree, and the per-feature
//! sorted position arrays are stably partitioned down the recursion, so a
//! node costs `O(features · samples)` instead of the per-node re-sorts the
//! seed implementation paid. Split scores are evaluated by a single left-to-right
//! scan with running prefix statistics (`SplitScan`): `O(1)` per candidate
//! threshold for regression, `O(classes)` for Gini.
//!
//! No tree sorts a value. Each fit ranks every column of its matrix once
//! (`RankTable`, one sort per column, equal values — `-0.0` and `0.0`
//! included — sharing a dense rank): a forest once for all its bootstrap
//! trees, a boosted ensemble once for all its stages, a single tree for
//! itself. A tree then orders its positions per feature by a stable
//! counting sort on the rank of the row each position draws (a bootstrap
//! draws rows at random, a single tree and a boosting stage draw every row
//! once, in order). A [`ColumnMatrix`] holds no NaN, so `partial_cmp` is a
//! total preorder on its values, and (rank, position) is exactly the
//! (value, position) order a stable sort by value produces: the trees are
//! the same bit for bit, for `O(samples + distinct values)` per feature
//! instead of a comparison sort.
//!
//! The seed-shaped builder (per-node `sort_by`, clone-based bootstrap,
//! sequential everything) is preserved in [`crate::reference`] as a
//! differential oracle. Both builders call the *same* scoring code in this
//! module — `SplitScan` and `best_split_scan` — so every floating-point
//! operation that decides a split is defined exactly once and the two paths
//! are bit-for-bit identical by construction (and pinned by
//! `tests/differential_learn.rs`).

use crate::data::{check_rows, ColumnMatrix};
use crate::error::LearnError;
use crate::{Classifier, Regressor};

/// Hyper-parameters shared by regression and classification trees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum depth of the tree (root has depth 0).
    pub max_depth: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum number of samples in each leaf.
    pub min_samples_leaf: usize,
    /// Number of features considered at each split. `None` means all
    /// features; forests set this to sqrt / one-third of the feature count.
    pub max_features: Option<usize>,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 12,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    /// Walk the tree reading feature `f` through `get` (out-of-width
    /// features read as 0.0, matching slice-`get` semantics).
    pub(crate) fn predict_by(&self, get: &impl Fn(usize) -> f64) -> f64 {
        let mut node = self;
        loop {
            match node {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if get(*feature) <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    fn predict(&self, features: &[f64]) -> f64 {
        self.predict_by(&|f| features.get(f).copied().unwrap_or(0.0))
    }

    fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 0,
            Node::Split { left, right, .. } => 1 + left.depth().max(right.depth()),
        }
    }

    #[cfg(test)]
    fn leaves(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { left, right, .. } => left.leaves() + right.leaves(),
        }
    }
}

/// Criterion used to score candidate splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Criterion {
    /// Sum of squared deviations from the mean (regression).
    Variance,
    /// Gini impurity (classification); targets are class labels cast to f64.
    Gini,
}

/// Shared split-scoring state: node totals plus running left-side prefix
/// statistics.
///
/// Every floating-point operation that decides a split lives here (and in
/// [`best_split_scan`]), used by both the fast builder and the
/// [`crate::reference`] oracle, which is what makes the two bit-for-bit
/// identical. Node totals are accumulated in ascending sample order (the
/// node's `idx` order); left statistics are accumulated in feature-sorted
/// order during the scan.
pub(crate) struct SplitScan {
    criterion: Criterion,
    // Node totals.
    n: usize,
    sum: f64,
    sumsq: f64,
    counts: Vec<usize>,
    // Running left-side statistics.
    ln: usize,
    lsum: f64,
    lsumsq: f64,
    lcounts: Vec<usize>,
}

impl SplitScan {
    pub(crate) fn new(criterion: Criterion, n_classes: usize) -> Self {
        SplitScan {
            criterion,
            n: 0,
            sum: 0.0,
            sumsq: 0.0,
            counts: vec![0; n_classes],
            ln: 0,
            lsum: 0.0,
            lsumsq: 0.0,
            lcounts: vec![0; n_classes],
        }
    }

    /// Clear the node totals (starting a new node).
    pub(crate) fn reset_node(&mut self) {
        self.n = 0;
        self.sum = 0.0;
        self.sumsq = 0.0;
        self.counts.iter_mut().for_each(|c| *c = 0);
    }

    /// Accumulate one node sample (call in ascending sample order).
    pub(crate) fn add_node_sample(&mut self, target: f64) {
        self.n += 1;
        match self.criterion {
            Criterion::Variance => {
                self.sum += target;
                self.sumsq += target * target;
            }
            Criterion::Gini => self.counts[target as usize] += 1,
        }
    }

    /// Impurity of the whole node: `Σt² − (Σt)²/n` for variance (equal to
    /// the sum of squared deviations up to rounding), `gini · n` for Gini.
    pub(crate) fn node_impurity(&self) -> f64 {
        match self.criterion {
            Criterion::Variance => self.sumsq - self.sum * self.sum / self.n as f64,
            Criterion::Gini => gini_times_n(&self.counts, self.n),
        }
    }

    /// Value this node predicts as a leaf: the target mean for variance,
    /// the majority label (ties to the smaller label) for Gini.
    pub(crate) fn leaf_value(&self) -> f64 {
        match self.criterion {
            Criterion::Variance => self.sum / self.n as f64,
            Criterion::Gini => {
                let mut best: Option<(usize, usize)> = None; // (count, label)
                for (label, &count) in self.counts.iter().enumerate() {
                    if count > 0 && best.map(|(c, _)| count > c).unwrap_or(true) {
                        best = Some((count, label));
                    }
                }
                best.map(|(_, label)| label as f64).unwrap_or(0.0)
            }
        }
    }

    /// Clear the running left statistics (starting a new feature scan).
    pub(crate) fn reset_left(&mut self) {
        self.ln = 0;
        self.lsum = 0.0;
        self.lsumsq = 0.0;
        self.lcounts.iter_mut().for_each(|c| *c = 0);
    }

    /// Move one sample (in feature-sorted order) to the left side.
    pub(crate) fn push_left(&mut self, target: f64) {
        self.ln += 1;
        match self.criterion {
            Criterion::Variance => {
                self.lsum += target;
                self.lsumsq += target * target;
            }
            Criterion::Gini => self.lcounts[target as usize] += 1,
        }
    }

    /// Score of splitting at the current scan position:
    /// `impurity(left) + impurity(right)`.
    pub(crate) fn split_score(&self) -> f64 {
        let rn = self.n - self.ln;
        match self.criterion {
            Criterion::Variance => {
                let left = self.lsumsq - self.lsum * self.lsum / self.ln as f64;
                let rsum = self.sum - self.lsum;
                let rsumsq = self.sumsq - self.lsumsq;
                let right = rsumsq - rsum * rsum / rn as f64;
                left + right
            }
            Criterion::Gini => {
                let left = gini_times_n(&self.lcounts, self.ln);
                let rnf = rn as f64;
                let mut acc = 0.0;
                for (&c, &lc) in self.counts.iter().zip(&self.lcounts) {
                    let rc = c - lc;
                    if rc > 0 {
                        let p = rc as f64 / rnf;
                        acc += p * p;
                    }
                }
                left + (1.0 - acc) * rnf
            }
        }
    }
}

/// `(1 − Σ p²) · n`, summed over labels in ascending order, zero-count
/// labels skipped (so the term sequence matches a count map that only
/// contains present labels).
fn gini_times_n(counts: &[usize], n: usize) -> f64 {
    let nf = n as f64;
    let mut acc = 0.0;
    for &c in counts {
        if c > 0 {
            let p = c as f64 / nf;
            acc += p * p;
        }
    }
    (1.0 - acc) * nf
}

/// Scan one feature's samples in sorted order and return the best
/// `(threshold, score)`, or `None` when no valid candidate exists.
///
/// `ordered` yields `(feature value, target)` pairs in ascending feature
/// order (ties in ascending sample order). Candidates are the positions
/// `pos ∈ [max(min_samples_leaf, 1), len − min_samples_leaf]` whose adjacent
/// values differ by more than `f64::EPSILON`; ties on the score keep the
/// earliest position. This is the one scan both tree builders share.
pub(crate) fn best_split_scan<I>(
    scan: &mut SplitScan,
    len: usize,
    min_samples_leaf: usize,
    ordered: I,
) -> Option<(f64, f64)>
where
    I: Iterator<Item = (f64, f64)>,
{
    scan.reset_left();
    let lo_bound = min_samples_leaf.max(1);
    let hi_bound = len.saturating_sub(min_samples_leaf);
    let mut best: Option<(f64, f64)> = None;
    let mut prev = 0.0f64;
    for (pos, (value, target)) in ordered.enumerate() {
        if pos >= lo_bound && pos <= hi_bound && (value - prev).abs() > f64::EPSILON {
            let threshold = 0.5 * (prev + value);
            let score = scan.split_score();
            if best.map(|(_, s)| score < s).unwrap_or(true) {
                best = Some((threshold, score));
            }
        }
        scan.push_left(target);
        prev = value;
    }
    best
}

/// The xorshift64* stream used for per-split feature subsampling —
/// deterministic, dependency-free, shared by the fast and reference
/// builders so they consume identical draws in identical order.
pub(crate) struct SubsampleRng {
    state: u64,
}

impl SubsampleRng {
    pub(crate) fn new(seed: u64) -> Self {
        SubsampleRng { state: seed | 1 }
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Fill `out` with the candidate feature ids for one node. Draws from
    /// the stream only when a strict subset is sampled (Fisher–Yates over
    /// indices), exactly as the seed implementation did.
    pub(crate) fn candidate_features(
        &mut self,
        width: usize,
        max_features: Option<usize>,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        out.extend(0..width);
        if let Some(k) = max_features {
            if k < width {
                for i in 0..k {
                    let j = i + (self.next_rand() as usize) % (width - i);
                    out.swap(i, j);
                }
                out.truncate(k);
            }
        }
    }
}

/// Check a row-major training set the way [`ColumnMatrix::from_rows`] and
/// the length checks of the fast path do: non-empty, one target per row,
/// one width, no NaN (the first one in row-major order is named).
pub(crate) fn validate(features: &[Vec<f64>], targets: &[f64]) -> Result<(), LearnError> {
    if !features.is_empty() && features.len() != targets.len() {
        return Err(LearnError::LengthMismatch {
            features: features.len(),
            targets: targets.len(),
        });
    }
    check_rows(features)
}

/// Dense per-column ranks of a [`ColumnMatrix`]: row `r`'s rank in column
/// `f` counts the distinct values below `value(r, f)`, so equal values
/// (`-0.0 == 0.0`) share a rank. Built once per fit (a whole forest, a
/// whole boosted ensemble, or one tree); every tree orders its positions
/// from it without comparing a value.
pub(crate) struct RankTable {
    n_rows: usize,
    /// Column-major: the rank of row `r` in column `f` is at `f * n_rows + r`.
    ranks: Vec<u32>,
    /// Distinct values per column: its ranks run `0..distinct[f]`.
    distinct: Vec<u32>,
}

impl RankTable {
    /// One sort per column. The matrix holds no NaN, so `total_cmp` puts
    /// equal values next to each other (`-0.0` just before `0.0`), and `==`
    /// on neighbours finds the rank boundaries.
    pub(crate) fn new(cols: &ColumnMatrix) -> Self {
        let n = cols.n_rows();
        let mut ranks = vec![0u32; n * cols.n_cols()];
        let mut distinct = Vec::with_capacity(cols.n_cols());
        let mut order: Vec<u32> = (0..n as u32).collect();
        for f in 0..cols.n_cols() {
            let col = cols.col(f);
            order.sort_unstable_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]));
            let rank = &mut ranks[f * n..(f + 1) * n];
            let mut next = 0u32;
            let mut prev = None;
            for &r in &order {
                let v = col[r as usize];
                if prev.is_some_and(|p| p != v) {
                    next += 1;
                }
                prev = Some(v);
                rank[r as usize] = next;
            }
            distinct.push(next + 1);
        }
        RankTable {
            n_rows: n,
            ranks,
            distinct,
        }
    }

    /// The per-feature order of the sample `rows` (position `p` draws row
    /// `rows[p]`; a bootstrap, or every row once): positions
    /// `0..rows.len()` ordered by the rank of their row, ties in ascending
    /// position — a stable counting sort.
    pub(crate) fn order(&self, rows: &[u32]) -> Vec<Vec<u32>> {
        let mut starts: Vec<u32> = Vec::new();
        self.distinct
            .iter()
            .enumerate()
            .map(|(f, &distinct)| {
                let rank = &self.ranks[f * self.n_rows..(f + 1) * self.n_rows];
                starts.clear();
                starts.resize(distinct as usize + 1, 0);
                for &r in rows {
                    starts[rank[r as usize] as usize + 1] += 1;
                }
                for i in 1..starts.len() {
                    starts[i] += starts[i - 1];
                }
                let mut order = vec![0u32; rows.len()];
                for (p, &r) in rows.iter().enumerate() {
                    let slot = &mut starts[rank[r as usize] as usize];
                    order[*slot as usize] = p as u32;
                    *slot += 1;
                }
                order
            })
            .collect()
    }
}

/// The fast CART builder.
struct FastBuilder<'a> {
    cols: &'a ColumnMatrix,
    targets: &'a [f64],
    params: TreeParams,
    scan: SplitScan,
    rng: SubsampleRng,
    /// Per-feature position arrays; the segment `[lo, hi)` of every array
    /// holds the current node's positions in feature-sorted order.
    sorted: Vec<Vec<u32>>,
    /// The current node's positions in ascending order (the reference's
    /// `idx` order), partitioned alongside `sorted`.
    order: Vec<u32>,
    goes_left: Vec<bool>,
    scratch: Vec<u32>,
    cand: Vec<usize>,
}

impl FastBuilder<'_> {
    fn build(&mut self, lo: usize, hi: usize, depth: usize) -> Node {
        let len = hi - lo;
        self.scan.reset_node();
        for i in lo..hi {
            let p = self.order[i] as usize;
            self.scan.add_node_sample(self.targets[p]);
        }
        if depth >= self.params.max_depth
            || len < self.params.min_samples_split
            || len < 2 * self.params.min_samples_leaf
        {
            return Node::Leaf {
                value: self.scan.leaf_value(),
            };
        }
        let parent_impurity = self.scan.node_impurity();
        if parent_impurity <= 1e-12 {
            return Node::Leaf {
                value: self.scan.leaf_value(),
            };
        }
        let width = self.cols.n_cols();
        self.rng
            .candidate_features(width, self.params.max_features, &mut self.cand);

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
        for ci in 0..self.cand.len() {
            let feat = self.cand[ci];
            let col = self.cols.col(feat);
            let targets = self.targets;
            let seg = &self.sorted[feat][lo..hi];
            if let Some((threshold, score)) = best_split_scan(
                &mut self.scan,
                len,
                self.params.min_samples_leaf,
                seg.iter().map(|&p| (col[p as usize], targets[p as usize])),
            ) {
                if best.map(|(_, _, s)| score < s).unwrap_or(true) {
                    best = Some((feat, threshold, score));
                }
            }
        }

        let Some((feature, threshold, score)) = best else {
            return Node::Leaf {
                value: self.scan.leaf_value(),
            };
        };
        if score >= parent_impurity - 1e-12 {
            return Node::Leaf {
                value: self.scan.leaf_value(),
            };
        }
        // Mark left membership and count it; bail to a leaf if the split
        // degenerates (midpoint rounding can park every sample on one side).
        let col = self.cols.col(feature);
        let mut nl = 0usize;
        for i in lo..hi {
            let p = self.order[i] as usize;
            let left = col[p] <= threshold;
            self.goes_left[p] = left;
            nl += usize::from(left);
        }
        if nl == 0 || nl == len {
            return Node::Leaf {
                value: self.scan.leaf_value(),
            };
        }
        // Stable-partition every per-feature array (and the idx-order
        // array) so each child's segment stays feature-sorted.
        for f in 0..width {
            partition_segment(
                &mut self.sorted[f],
                lo,
                hi,
                &self.goes_left,
                &mut self.scratch,
            );
        }
        partition_segment(&mut self.order, lo, hi, &self.goes_left, &mut self.scratch);
        let left = self.build(lo, lo + nl, depth + 1);
        let right = self.build(lo + nl, hi, depth + 1);
        Node::Split {
            feature,
            threshold,
            left: Box::new(left),
            right: Box::new(right),
        }
    }
}

/// Stably partition `arr[lo..hi]` so positions with `goes_left` come first,
/// both halves preserving their relative order.
fn partition_segment(
    arr: &mut [u32],
    lo: usize,
    hi: usize,
    goes_left: &[bool],
    scratch: &mut Vec<u32>,
) {
    scratch.clear();
    let mut w = lo;
    for i in lo..hi {
        let p = arr[i];
        if goes_left[p as usize] {
            arr[w] = p;
            w += 1;
        } else {
            scratch.push(p);
        }
    }
    arr[w..hi].copy_from_slice(scratch);
}

/// Fit one tree with the fast builder. Row `p` of `cols` and `targets[p]`
/// are position `p` (labels cast to f64 for Gini); `sorted` orders the
/// positions per feature, from [`RankTable::order`].
fn fit_fast(
    cols: &ColumnMatrix,
    targets: &[f64],
    params: TreeParams,
    criterion: Criterion,
    n_classes: usize,
    seed: u64,
    sorted: Vec<Vec<u32>>,
) -> Node {
    let n = targets.len();
    let mut builder = FastBuilder {
        cols,
        targets,
        params,
        scan: SplitScan::new(criterion, n_classes),
        rng: SubsampleRng::new(seed),
        sorted,
        order: (0..n as u32).collect(),
        goes_left: vec![false; n],
        scratch: Vec::with_capacity(n),
        cand: Vec::new(),
    };
    builder.build(0, n, 0)
}

/// Fit one tree on every row of `features`, in order, through a rank
/// table of its own: the single-tree entry points.
fn fit_rows(
    features: &[Vec<f64>],
    targets: &[f64],
    params: TreeParams,
    criterion: Criterion,
    n_classes: usize,
    seed: u64,
) -> Result<Node, LearnError> {
    validate(features, targets)?;
    let cols = ColumnMatrix::from_rows(features)?;
    let rows: Vec<u32> = (0..cols.n_rows() as u32).collect();
    let sorted = RankTable::new(&cols).order(&rows);
    Ok(fit_fast(
        &cols, targets, params, criterion, n_classes, seed, sorted,
    ))
}

/// The targets of the bootstrap sample `rows`, one per position.
fn gather_targets(targets: &[f64], rows: &[u32]) -> Vec<f64> {
    rows.iter().map(|&r| targets[r as usize]).collect()
}

/// A CART regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTreeRegressor {
    root: Node,
    params: TreeParams,
}

impl DecisionTreeRegressor {
    /// Fit a regression tree; `seed` drives the feature subsampling.
    pub fn fit_seeded(
        features: &[Vec<f64>],
        targets: &[f64],
        params: TreeParams,
        seed: u64,
    ) -> Result<Self, LearnError> {
        let root = fit_rows(features, targets, params, Criterion::Variance, 0, seed)?;
        Ok(DecisionTreeRegressor { root, params })
    }

    /// Fit on every row of a shared column matrix, reusing its `sorted`
    /// order (gradient-boosting stages fit many trees on the same feature
    /// columns). Inputs are pre-validated by the ensemble.
    pub(crate) fn fit_ordered(
        cols: &ColumnMatrix,
        targets: &[f64],
        params: TreeParams,
        seed: u64,
        sorted: &[Vec<u32>],
    ) -> Self {
        let root = fit_fast(
            cols,
            targets,
            params,
            Criterion::Variance,
            0,
            seed,
            sorted.to_vec(),
        );
        DecisionTreeRegressor { root, params }
    }

    /// Fit on the bootstrap sample `rows` of a shared column matrix
    /// (bagging by index — no row clones), ordered through the forest's
    /// `ranks` of `cols`. Inputs are pre-validated by the forest.
    pub(crate) fn fit_bootstrap_indices(
        cols: &ColumnMatrix,
        ranks: &RankTable,
        targets: &[f64],
        rows: &[u32],
        params: TreeParams,
        seed: u64,
    ) -> Self {
        let root = fit_fast(
            &cols.gather(rows),
            &gather_targets(targets, rows),
            params,
            Criterion::Variance,
            0,
            seed,
            ranks.order(rows),
        );
        DecisionTreeRegressor { root, params }
    }

    /// Assemble a tree from a pre-built root (reference builders).
    pub(crate) fn from_parts(root: Node, params: TreeParams) -> Self {
        DecisionTreeRegressor { root, params }
    }

    /// The fitted tree's root (prediction walks for the ensembles).
    pub(crate) fn root(&self) -> &Node {
        &self.root
    }

    /// Depth of the fitted tree.
    pub fn depth(&self) -> usize {
        self.root.depth()
    }

    /// The parameters the tree was fit with.
    pub fn params(&self) -> &TreeParams {
        &self.params
    }
}

impl Regressor for DecisionTreeRegressor {
    fn predict_one(&self, features: &[f64]) -> f64 {
        self.root.predict(features)
    }
}

/// A CART classification tree (Gini impurity).
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTreeClassifier {
    root: Node,
    n_classes: usize,
}

impl DecisionTreeClassifier {
    /// Fit a classification tree on integer labels; `seed` drives the
    /// feature subsampling.
    pub fn fit_seeded(
        features: &[Vec<f64>],
        labels: &[usize],
        params: TreeParams,
        seed: u64,
    ) -> Result<Self, LearnError> {
        let targets: Vec<f64> = labels.iter().map(|&l| l as f64).collect();
        let n_classes = labels.iter().copied().max().unwrap_or(0) + 1;
        let root = fit_rows(features, &targets, params, Criterion::Gini, n_classes, seed)?;
        Ok(DecisionTreeClassifier { root, n_classes })
    }

    /// Fit on the bootstrap sample `rows` of a shared column matrix
    /// (bagging by index), ordered through the forest's `ranks` of `cols`.
    /// `targets` are the full labels cast to f64.
    pub(crate) fn fit_bootstrap_indices(
        cols: &ColumnMatrix,
        ranks: &RankTable,
        targets: &[f64],
        rows: &[u32],
        params: TreeParams,
        seed: u64,
    ) -> Self {
        let boot_targets = gather_targets(targets, rows);
        // The per-tree class count mirrors the reference, which derives it
        // from the bootstrap sample's own labels.
        let n_classes = boot_targets.iter().map(|&t| t as usize).max().unwrap_or(0) + 1;
        let root = fit_fast(
            &cols.gather(rows),
            &boot_targets,
            params,
            Criterion::Gini,
            n_classes,
            seed,
            ranks.order(rows),
        );
        DecisionTreeClassifier { root, n_classes }
    }

    /// Assemble a tree from pre-built parts (reference builders).
    pub(crate) fn from_parts(root: Node, n_classes: usize) -> Self {
        DecisionTreeClassifier { root, n_classes }
    }
}

impl Classifier for DecisionTreeClassifier {
    fn predict_one(&self, features: &[f64]) -> usize {
        self.root.predict(features).round().max(0.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = 10 if x < 5 else 20, with a second irrelevant feature.
        let features: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![i as f64 / 5.0, (i % 3) as f64])
            .collect();
        let targets: Vec<f64> = features
            .iter()
            .map(|f| if f[0] < 5.0 { 10.0 } else { 20.0 })
            .collect();
        (features, targets)
    }

    #[test]
    fn regression_tree_learns_step_function() {
        let (f, t) = step_data();
        let tree =
            DecisionTreeRegressor::fit_seeded(&f, &t, TreeParams::default(), 0x5EED).unwrap();
        assert_eq!(tree.predict_one(&[1.0, 0.0]), 10.0);
        assert_eq!(tree.predict_one(&[9.0, 0.0]), 20.0);
        assert!(tree.depth() >= 1);
        assert!(tree.root.leaves() >= 2);
    }

    #[test]
    fn regression_tree_respects_max_depth_zero() {
        let (f, t) = step_data();
        let params = TreeParams {
            max_depth: 0,
            ..Default::default()
        };
        let tree = DecisionTreeRegressor::fit_seeded(&f, &t, params, 0x5EED).unwrap();
        assert_eq!(tree.depth(), 0);
        let mean = t.iter().sum::<f64>() / t.len() as f64;
        assert!((tree.predict_one(&[0.0, 0.0]) - mean).abs() < 1e-9);
    }

    #[test]
    fn regression_tree_fits_piecewise_linear_reasonably() {
        let features: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 10.0]).collect();
        let targets: Vec<f64> = features.iter().map(|f| f[0] * 2.0 + 1.0).collect();
        let tree =
            DecisionTreeRegressor::fit_seeded(&features, &targets, TreeParams::default(), 0x5EED)
                .unwrap();
        let preds: Vec<f64> = features.iter().map(|f| tree.predict_one(f)).collect();
        let err = crate::metrics::mae(&targets, &preds);
        assert!(err < 0.5, "mae = {err}");
    }

    #[test]
    fn classification_tree_separates_two_blobs() {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            features.push(vec![i as f64 * 0.1, 0.0]);
            labels.push(0);
            features.push(vec![10.0 + i as f64 * 0.1, 0.0]);
            labels.push(1);
        }
        let tree =
            DecisionTreeClassifier::fit_seeded(&features, &labels, TreeParams::default(), 0x5EED)
                .unwrap();
        assert_eq!(tree.predict_one(&[1.0, 0.0]), 0);
        assert_eq!(tree.predict_one(&[12.0, 0.0]), 1);
        assert_eq!(tree.n_classes, 2);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(
            DecisionTreeRegressor::fit_seeded(&[], &[], TreeParams::default(), 0x5EED).is_err()
        );
        assert!(DecisionTreeRegressor::fit_seeded(
            &[vec![1.0]],
            &[1.0, 2.0],
            TreeParams::default(),
            0x5EED
        )
        .is_err());
        assert!(DecisionTreeRegressor::fit_seeded(
            &[vec![1.0], vec![1.0, 2.0]],
            &[1.0, 2.0],
            TreeParams::default(),
            0x5EED
        )
        .is_err());
    }

    #[test]
    fn constant_targets_yield_single_leaf() {
        let features: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let targets = vec![7.0; 20];
        let tree =
            DecisionTreeRegressor::fit_seeded(&features, &targets, TreeParams::default(), 0x5EED)
                .unwrap();
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.predict_one(&[3.0]), 7.0);
    }

    #[test]
    fn min_samples_leaf_prevents_tiny_leaves() {
        let (f, t) = step_data();
        let params = TreeParams {
            min_samples_leaf: 10,
            ..Default::default()
        };
        let tree = DecisionTreeRegressor::fit_seeded(&f, &t, params, 0x5EED).unwrap();
        // With 50 rows and min 10 per leaf, there can be at most 5 leaves.
        assert!(tree.root.leaves() <= 5);
    }

    #[test]
    fn gini_leaf_vote_breaks_ties_deterministically() {
        // Regression test: the majority vote once picked an arbitrary label
        // on tied counts (hash-map iteration order), making classification
        // predictions differ from run to run. Ties must go to the smaller
        // label.
        let mut scan = SplitScan::new(Criterion::Gini, 2);
        for &t in &[1.0, 0.0, 1.0, 0.0] {
            scan.add_node_sample(t);
        }
        for _ in 0..32 {
            assert_eq!(scan.leaf_value(), 0.0);
        }
    }

    #[test]
    fn duplicate_feature_values_split_cleanly() {
        // Heavily tied feature values stress the stable partitioning of the
        // per-feature ordered arrays: ties must stay in ascending sample order.
        let features: Vec<Vec<f64>> = (0..60).map(|i| vec![(i % 4) as f64]).collect();
        let targets: Vec<f64> = (0..60).map(|i| if i % 4 < 2 { 1.0 } else { 5.0 }).collect();
        let tree =
            DecisionTreeRegressor::fit_seeded(&features, &targets, TreeParams::default(), 0x5EED)
                .unwrap();
        assert_eq!(tree.predict_one(&[0.0]), 1.0);
        assert_eq!(tree.predict_one(&[3.0]), 5.0);
    }
}
