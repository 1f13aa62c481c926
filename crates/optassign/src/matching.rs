//! Minimum-weight bipartite matching for the equal-size / no-compression
//! special case (Theorem 2).
//!
//! When all partitions have the same span and compression is disabled, each
//! tier `l` with capacity `S_l` can be replaced by `Z_l = min(N, ⌊S_l/S⌋)`
//! copies; an edge connects a partition to a tier copy iff the tier's TTFB
//! satisfies the partition's latency threshold, weighted by the storage +
//! expected read cost. A minimum-weight perfect matching on this bipartite
//! graph is an optimal feasible assignment. The matching itself is solved
//! with the Hungarian algorithm (Jonker-Volgenant style potentials).
//!
//! Two engines share that algorithm: the dense JV over the copy-expanded
//! `n × m` matrix (`hungarian`, kept as the reference semantics — on
//! copy-expanded matrices its zero-cost within-tier displacement cycles
//! make every augmentation walk the matched prefix of its preferred tiers,
//! `O(n²·m)` overall), and the **collapsed-copy emulation**
//! (`hungarian_collapsed`) the production solver uses, which exploits the
//! fact that identical copy columns form two per-tier equivalence classes
//! to run the same tree growth at `O(L)` per step — step-for-step
//! equivalent, ties included.

use crate::costtable::CostTable;
use crate::error::OptAssignError;
use crate::problem::{Assignment, OptAssignProblem, NO_COMPRESSION};
use scope_cloudsim::TierId;

/// Tolerance used when checking that all partitions have equal spans.
const SIZE_TOLERANCE: f64 = 1e-9;

/// The matching core shared by the table-driven and reference solvers:
/// validate the equal-size / no-compression shape, build the tier copies,
/// fill the edge-weight matrix with `eval(partition, tier)` (`None` =
/// latency-infeasible), run the Hungarian algorithm and extract the
/// choices. The two public entry points differ only in how `eval` prices a
/// placement.
pub(crate) fn equal_size_matching_core(
    problem: &OptAssignProblem,
    eval: impl Fn(usize, TierId) -> Option<f64>,
) -> Result<Vec<(TierId, usize)>, OptAssignError> {
    let (n, caps) = equal_size_shape(problem)?;

    // Build tier copies.
    let mut copy_tier: Vec<TierId> = Vec::new();
    for (t, &copies) in caps.iter().enumerate() {
        copy_tier.extend(std::iter::repeat(TierId(t)).take(copies));
    }

    // Cost matrix: rows = partitions, columns = tier copies. Infeasible
    // (latency-violating) edges get a large-but-finite penalty so the
    // Hungarian algorithm still finds a matching; we reject afterwards if a
    // penalty edge was selected.
    let m = copy_tier.len();
    let mut finite_max = 0.0f64;
    let mut cost = vec![vec![0.0f64; m]; n];
    for (i, row) in cost.iter_mut().enumerate() {
        for (j, &tier) in copy_tier.iter().enumerate() {
            if let Some(c) = eval(i, tier) {
                row[j] = c;
                finite_max = finite_max.max(c);
            } else {
                row[j] = f64::NAN; // placeholder, replaced below
            }
        }
    }
    let penalty = (finite_max + 1.0) * 1e6;
    for row in &mut cost {
        for c in row.iter_mut() {
            if c.is_nan() {
                *c = penalty;
            }
        }
    }

    let col_of_row = hungarian(&cost);
    let mut choices = vec![(TierId(0), NO_COMPRESSION); n];
    for (i, &j) in col_of_row.iter().enumerate() {
        if cost[i][j] >= penalty {
            return Err(OptAssignError::InfeasiblePartition {
                partition: problem.partitions[i].id,
                name: problem.partitions[i].name.clone(),
            });
        }
        choices[i] = (copy_tier[j], NO_COMPRESSION);
    }
    Ok(choices)
}

/// Validate the equal-size / no-compression shape and compute the per-tier
/// copy counts `Z_l = min(N, ⌊S_l/S⌋)` (N when unbounded). Shared by the
/// expanded and collapsed matching cores so both solve the identical
/// bipartite instance. Errors on malformed problems and on capacities that
/// cannot hold all partitions.
fn equal_size_shape(problem: &OptAssignProblem) -> Result<(usize, Vec<usize>), OptAssignError> {
    problem.validate()?;
    let n = problem.partitions.len();
    let size = problem.partitions[0].size_gb;
    for p in &problem.partitions {
        if (p.size_gb - size).abs() > SIZE_TOLERANCE {
            return Err(OptAssignError::NotEqualSizeInstance(format!(
                "partition {} has size {} != {}",
                p.name, p.size_gb, size
            )));
        }
        if p.compression_options.len() != 1 {
            return Err(OptAssignError::NotEqualSizeInstance(format!(
                "partition {} offers compression options",
                p.name
            )));
        }
    }
    let caps: Vec<usize> = problem
        .catalog
        .iter()
        .map(|(_, tier)| match tier.capacity_gb {
            None => n,
            Some(cap) => {
                if size <= SIZE_TOLERANCE {
                    n
                } else {
                    ((cap / size).floor() as usize).min(n)
                }
            }
        })
        .collect();
    if caps.iter().sum::<usize>() < n {
        return Err(OptAssignError::InfeasibleCapacity);
    }
    Ok((n, caps))
}

/// The collapsed-copy matching core: same instance as
/// [`equal_size_matching_core`] (same `n × L` costs, same penalty rule for
/// infeasible edges), solved with [`hungarian_collapsed`] instead of the
/// dense JV over the copy-expanded matrix.
pub(crate) fn equal_size_matching_collapsed(
    problem: &OptAssignProblem,
    eval: impl Fn(usize, TierId) -> Option<f64>,
) -> Result<Vec<(TierId, usize)>, OptAssignError> {
    let (n, caps) = equal_size_shape(problem)?;
    let l = caps.len();

    // n × L cost grid with the identical penalty construction the expanded
    // matrix uses (the max runs over feasible cells; duplicate copy columns
    // cannot change it).
    let mut finite_max = 0.0f64;
    let mut cost = vec![vec![0.0f64; l]; n];
    for (i, row) in cost.iter_mut().enumerate() {
        for (t, cell) in row.iter_mut().enumerate() {
            if let Some(c) = eval(i, TierId(t)) {
                *cell = c;
                finite_max = finite_max.max(c);
            } else {
                *cell = f64::NAN;
            }
        }
    }
    let penalty = (finite_max + 1.0) * 1e6;
    for row in &mut cost {
        for c in row.iter_mut() {
            if c.is_nan() {
                *c = penalty;
            }
        }
    }

    let tier_of_row = hungarian_collapsed(&cost, &caps)?;
    let mut choices = vec![(TierId(0), NO_COMPRESSION); n];
    for (i, &t) in tier_of_row.iter().enumerate() {
        if cost[i][t] >= penalty {
            return Err(OptAssignError::InfeasiblePartition {
                partition: problem.partitions[i].id,
                name: problem.partitions[i].name.clone(),
            });
        }
        choices[i] = (TierId(t), NO_COMPRESSION);
    }
    Ok(choices)
}

/// Solve the equal-size / no-compression special case by minimum-weight
/// bipartite matching.
///
/// Requirements checked:
/// * every partition has the same `size_gb`,
/// * every partition offers only the "no compression" option,
///
/// Capacity reservations are honoured exactly (via the tier-copy
/// construction). Returns an error if the instance does not satisfy the
/// requirements, if capacities cannot hold all partitions, or if some
/// partition has no latency-feasible tier.
///
/// Edge weights come from a [`CostTable`] evaluated once per solve, and
/// the Hungarian search runs on the **collapsed-copy emulation**
/// (`hungarian_collapsed`) — `O(L)` per tree-growth step instead of
/// `O(n·L)` over the copy-expanded matrix. The result is exactly the
/// assignment of the pre-table solver preserved in
/// [`crate::reference::solve_equal_size_matching_reference`], which the
/// differential proptests enforce bit-for-bit.
pub fn solve_equal_size_matching(problem: &OptAssignProblem) -> Result<Assignment, OptAssignError> {
    problem.validate()?;
    let table = CostTable::build(problem);
    let choices = equal_size_matching_collapsed(problem, |i, tier| {
        table
            .is_feasible(i, tier, NO_COMPRESSION)
            .then(|| table.cost(i, tier, NO_COMPRESSION))
    })?;
    table.assignment(problem, choices)
}

/// Hungarian algorithm (shortest augmenting path / potentials formulation)
/// for rectangular cost matrices with `rows <= cols`. Returns, for each row,
/// the column it is matched to. `O(rows² · cols)`.
fn hungarian(cost: &[Vec<f64>]) -> Vec<usize> {
    let n = cost.len();
    if n == 0 {
        return Vec::new();
    }
    let m = cost[0].len();
    assert!(n <= m, "hungarian requires rows <= cols");
    // Potentials and matching arrays are 1-indexed internally (0 = sentinel).
    let mut u = vec![0.0f64; n + 1];
    let mut v = vec![0.0f64; m + 1];
    let mut p = vec![0usize; m + 1]; // p[j] = row matched to column j
    let mut way = vec![0usize; m + 1];

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![f64::INFINITY; m + 1];
        let mut used = vec![false; m + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = f64::INFINITY;
            let mut j1 = 0usize;
            for j in 1..=m {
                if used[j] {
                    continue;
                }
                let cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=m {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut result = vec![0usize; n];
    for j in 1..=m {
        if p[j] > 0 {
            result[p[j] - 1] = j - 1;
        }
    }
    result
}

/// Where an augmenting-tree column was reached from, in collapsed
/// coordinates: the virtual start column, or the matched copy at `position`
/// of `tier`.
#[derive(Clone, Copy)]
enum Way {
    /// The augmentation's virtual root (the new row).
    Virtual,
    /// The matched copy at (tier, prefix position).
    Matched(usize, usize),
}

/// Exact collapsed-copy emulation of [`hungarian`] on the copy-expanded
/// matrix: `cost` is the `n × L` per-tier matrix and `caps[t]` the number
/// of identical copies tier `t` contributes. Returns the row → tier map —
/// which is all the copy-expanded run determines, since copies of a tier
/// are indistinguishable.
///
/// Why this is the same algorithm, not an approximation. In the expanded
/// matrix, copies of tier `t` whose potentials `v` are **bit-identical**
/// are indistinguishable columns: every relaxation from a tree row `r`
/// computes `(cost[r][t] - u[r]) - v` — the same float for each of them —
/// every per-step `minv -= delta` shift hits them equally, and the
/// strict-`<` `way` freeze fires for all of them together. So at any
/// moment the unused copies of a tier partition into a handful of
/// *v-classes* (matched copies grouped by the exact bits of their `v`,
/// which is static during an augmentation, plus the free copies at
/// `v = 0`), and the dense scan's lexicographic (value, column-index)
/// choice is always some class's lowest unused position. The dense
/// `O(n·L)`-per-step tree growth therefore collapses to one candidate per
/// class — `O(classes)` per step — while the growth sequence, tie-breaks
/// and augmenting-path backtrack are column-for-column those of the
/// expanded run.
///
/// Bit-exactness also pins the *arithmetic stream*: potentials are updated
/// **per step** (`u += delta`, `v -= delta`, `minv -= delta`), never as an
/// accumulated sum — float addition is not associative, and the dense
/// run's occasional `-0.0`-grade deltas from cancellation must reproduce
/// exactly or tie-breaks flip. Every expression here (`q = cost - u`, then
/// `q - v`) mirrors the dense code's evaluation order.
///
/// The collapse is what makes 1 000-partition matchings practical: on the
/// expanded matrix the within-tier displacement cycle costs exactly zero,
/// so every augmentation walks the matched copies of its preferred tiers —
/// `O(n²·m)` overall. The collapsed walk still visits those rows (their
/// relaxations are needed), but each visit costs `O(classes)` rather than
/// a full `O(m)` column scan.
fn hungarian_collapsed(cost: &[Vec<f64>], caps: &[usize]) -> Result<Vec<usize>, OptAssignError> {
    let n = cost.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let l = caps.len();
    debug_assert!(caps.iter().sum::<usize>() >= n);
    // Column index base of each tier's block, for scan-order tie-breaks.
    let base: Vec<usize> = caps
        .iter()
        .scan(0usize, |acc, &c| {
            let b = *acc;
            *acc += c;
            Some(b)
        })
        .collect();
    // Matched occupants per tier in copy order, each with its column's v.
    let mut lists: Vec<Vec<(usize, f64)>> = vec![Vec::new(); l];
    let mut u = vec![0.0f64; n];
    let inf = f64::INFINITY;

    /// One equivalence class of unused columns inside a tier: matched
    /// copies sharing the exact bits of `v`, or the tier's free copies
    /// (`members` empty, `free: true`). `minv`/`way` are the shared dense
    /// per-column state; `ptr` advances through `members` as copies join
    /// the tree.
    struct Class {
        tier: usize,
        free: bool,
        v: f64,
        minv: f64,
        way: Way,
        members: Vec<usize>,
        ptr: usize,
    }

    for i in 0..n {
        // Build the v-classes of this augmentation (v is static until the
        // final per-step updates are applied to popped copies).
        let mut classes: Vec<Class> = Vec::new();
        for (t, list) in lists.iter().enumerate() {
            let tier_start = classes.len();
            for (pos, &(_, v)) in list.iter().enumerate() {
                match classes[tier_start..]
                    .iter_mut()
                    .find(|c| c.v.to_bits() == v.to_bits())
                {
                    Some(c) => c.members.push(pos),
                    None => classes.push(Class {
                        tier: t,
                        free: false,
                        v,
                        minv: inf,
                        way: Way::Virtual,
                        members: vec![pos],
                        ptr: 0,
                    }),
                }
            }
            if list.len() < caps[t] {
                classes.push(Class {
                    tier: t,
                    free: true,
                    v: 0.0,
                    minv: inf,
                    way: Way::Virtual,
                    members: Vec::new(),
                    ptr: 0,
                });
            }
        }
        // Tree bookkeeping: rows whose stored u takes this step's deltas,
        // popped copies whose stored v takes them, and the frozen way of
        // every popped copy for the backtrack.
        let mut tree_rows: Vec<usize> = vec![i];
        let mut popped: Vec<(usize, usize)> = Vec::new();
        let mut pop_ways: Vec<Vec<(usize, Way)>> = vec![Vec::new(); l];

        // Relax every class from a row joining the tree, with the dense
        // evaluation order: q = cost - u, then cur = q - v.
        let relax = |row: usize, u_row: f64, from: Way, classes: &mut [Class]| {
            for c in classes.iter_mut() {
                let q = cost[row][c.tier] - u_row;
                let cur = q - c.v;
                if cur < c.minv {
                    c.minv = cur;
                    c.way = from;
                }
            }
        };
        relax(i, u[i], Way::Virtual, &mut classes);

        // Grow the tree one column per step until a free copy terminates
        // the augmentation, selecting the (value, column-index)
        // lexicographic minimum exactly like the ascending strict-< scan.
        let terminal_tier = loop {
            let mut best_val = inf;
            let mut best_idx = usize::MAX;
            let mut best: Option<usize> = None;
            for (ci, c) in classes.iter().enumerate() {
                let idx = if c.free {
                    base[c.tier] + lists[c.tier].len()
                } else if c.ptr < c.members.len() {
                    base[c.tier] + c.members[c.ptr]
                } else {
                    continue; // every copy of the class is in the tree
                };
                if c.minv < best_val || (c.minv == best_val && idx < best_idx) {
                    best_val = c.minv;
                    best_idx = idx;
                    best = Some(ci);
                }
            }
            let Some(ci) = best else {
                return Err(OptAssignError::InvalidProblem(
                    "matching ran out of tier capacity: total capacity < partitions".into(),
                ));
            };
            // Apply this step's delta exactly as the dense update loop
            // does: one addition/subtraction per entity per step.
            for r in &tree_rows {
                u[*r] += best_val;
            }
            for &(t, pos) in &popped {
                lists[t][pos].1 -= best_val;
            }
            for c in classes.iter_mut() {
                c.minv -= best_val;
            }
            if classes[ci].free {
                break ci;
            }
            // Pop the class's lowest unused position: its row joins the
            // tree and relaxes every class.
            let t = classes[ci].tier;
            let pos = classes[ci].members[classes[ci].ptr];
            classes[ci].ptr += 1;
            pop_ways[t].push((pos, classes[ci].way));
            popped.push((t, pos));
            let row = lists[t][pos].0;
            tree_rows.push(row);
            relax(row, u[row], Way::Matched(t, pos), &mut classes);
        };
        let terminal_way = classes[terminal_tier].way;
        let terminal_tier = classes[terminal_tier].tier;

        // Augmenting path: from the terminal free copy back to the virtual
        // root via the frozen ways, then thread rows forward along it (the
        // dense run's `p[j0] = p[way[j0]]` backtrack).
        let mut path: Vec<(usize, usize)> = Vec::new(); // matched (tier, pos)
        let mut w = terminal_way;
        while let Way::Matched(t, pos) = w {
            path.push((t, pos));
            let Some(&(_, prev)) = pop_ways[t].iter().find(|&&(p, _)| p == pos) else {
                return Err(OptAssignError::InvalidProblem(
                    "augmenting path references a column that was never popped".into(),
                ));
            };
            w = prev;
        }
        let mut carry = i;
        for &(t, pos) in path.iter().rev() {
            std::mem::swap(&mut carry, &mut lists[t][pos].0);
        }
        // The terminal free copy starts with potential 0, like any column
        // that has never been in a finished tree.
        lists[terminal_tier].push((carry, 0.0));
    }

    let mut result = vec![0usize; n];
    for (t, list) in lists.iter().enumerate() {
        for &(row, _) in list {
            result[row] = t;
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::solve_greedy;
    use crate::problem::{CompressionOption, PartitionSpec};
    use scope_cloudsim::TierCatalog;

    #[test]
    fn hungarian_solves_small_known_instance() {
        // Classic 3x3 assignment problem; optimum = 5 (1+2+2 on the
        // anti-diagonal-ish selection).
        let cost = vec![
            vec![4.0, 1.0, 3.0],
            vec![2.0, 0.0, 5.0],
            vec![3.0, 2.0, 2.0],
        ];
        let assignment = hungarian(&cost);
        let total: f64 = assignment
            .iter()
            .enumerate()
            .map(|(i, &j)| cost[i][j])
            .sum();
        assert!((total - 5.0).abs() < 1e-9);
        // Columns are distinct.
        let mut cols = assignment.clone();
        cols.sort_unstable();
        cols.dedup();
        assert_eq!(cols.len(), 3);
    }

    #[test]
    fn hungarian_handles_rectangular_matrices() {
        let cost = vec![vec![10.0, 1.0, 10.0, 10.0], vec![1.0, 10.0, 10.0, 10.0]];
        let assignment = hungarian(&cost);
        assert_eq!(assignment, vec![1, 0]);
    }

    #[test]
    fn matching_matches_greedy_when_unbounded() {
        // Without capacity bounds the matching and the greedy must agree on
        // the objective (both are optimal).
        let catalog = TierCatalog::azure_adls_gen2();
        let parts: Vec<_> = (0..6)
            .map(|i| PartitionSpec::new(i, format!("p{i}"), 50.0, (i * 10) as f64))
            .collect();
        let problem = OptAssignProblem::new(catalog, parts, 6.0);
        let matched = solve_equal_size_matching(&problem).unwrap();
        let greedy = solve_greedy(&problem).unwrap();
        assert!((matched.objective - greedy.objective).abs() < 1e-6);
    }

    #[test]
    fn capacity_limits_number_of_partitions_per_tier() {
        let mut catalog = TierCatalog::azure_adls_gen2();
        // Premium holds only 1 copy of a 50 GB partition, Hot only 2.
        catalog.set_capacity("Premium", 60.0).unwrap();
        catalog.set_capacity("Hot", 110.0).unwrap();
        let premium = catalog.tier_id("Premium").unwrap();
        let hot = catalog.tier_id("Hot").unwrap();
        let parts: Vec<_> = (0..5)
            .map(|i| PartitionSpec::new(i, format!("p{i}"), 50.0, 1000.0))
            .collect();
        let problem = OptAssignProblem::new(catalog, parts, 6.0);
        let a = solve_equal_size_matching(&problem).unwrap();
        let count = |tier| a.choices.iter().filter(|&&(t, _)| t == tier).count();
        assert!(count(premium) <= 1);
        assert!(count(hot) <= 2);
        assert_eq!(a.choices.len(), 5);
    }

    #[test]
    fn matching_is_better_than_naive_fill_under_capacity_pressure() {
        // Two heavily-read partitions but premium only fits one: the matching
        // puts the *more* heavily read one on premium.
        let mut catalog = TierCatalog::azure_adls_gen2();
        catalog.set_capacity("Premium", 50.0).unwrap();
        let premium = catalog.tier_id("Premium").unwrap();
        let parts = vec![
            PartitionSpec::new(0, "light", 50.0, 100.0),
            PartitionSpec::new(1, "heavy", 50.0, 100_000.0),
        ];
        let problem = OptAssignProblem::new(catalog, parts, 6.0);
        let a = solve_equal_size_matching(&problem).unwrap();
        assert_eq!(a.choices[1].0, premium);
        assert_ne!(a.choices[0].0, premium);
    }

    #[test]
    fn matching_searches_the_merged_multi_provider_space() {
        use scope_cloudsim::ProviderCatalog;
        // Without capacity bounds the matching must agree with the greedy on
        // the merged, egress-aware instance (both are optimal there).
        let providers = ProviderCatalog::azure_s3_gcs();
        let azure_hot = providers.merged_tier_id("azure", "Hot").unwrap();
        let parts: Vec<_> = (0..5)
            .map(|i| {
                PartitionSpec::new(i, format!("p{i}"), 50.0, (i * 40) as f64)
                    .with_current_tier(azure_hot)
                    .with_latency_threshold(1.0)
            })
            .collect();
        let problem = OptAssignProblem::multi_provider(&providers, parts, 6.0);
        let matched = solve_equal_size_matching(&problem).unwrap();
        let greedy = solve_greedy(&problem).unwrap();
        assert!((matched.objective - greedy.objective).abs() < 1e-6);
        // The latency SLA keeps every choice off the two slow archives.
        for &(tier, _) in &matched.choices {
            let t = problem.catalog.tier(tier).unwrap();
            assert!(t.ttfb_seconds <= 1.0, "{} violates the SLA", t.name);
        }
    }

    #[test]
    fn collapsed_hungarian_equals_expanded_on_adversarial_tie_instances() {
        // The collapsed-copy emulation must reproduce the expanded JV's
        // row → tier map exactly, including under the worst tie conditions:
        // integer-rounded costs (exact cross-tier ties), duplicated rows
        // (identical partitions) and exact-fit / tight capacities (deep
        // eviction chains). Deterministic xorshift instances, checked for
        // full choices equality against the expanded core.
        let mut state = 0x243F6A8885A308D3u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for case in 0..120 {
            let n = 2 + (case % 9);
            let l = 2 + (case % 4);
            let caps: Vec<usize> = match case % 3 {
                // exact fit, tight, loose
                0 => {
                    let mut caps = vec![n / l; l];
                    let mut rem = n - (n / l) * l;
                    for c in caps.iter_mut() {
                        if rem > 0 {
                            *c += 1;
                            rem -= 1;
                        }
                    }
                    caps
                }
                1 => {
                    let mut caps = vec![n.div_ceil(l); l];
                    caps[0] += 1;
                    caps
                }
                _ => vec![n; l],
            };
            let mut cost: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..l).map(|_| (rnd() * 15.0).round()).collect())
                .collect();
            for i in (0..n).step_by(3) {
                if i + 1 < n {
                    cost[i + 1] = cost[i].clone();
                }
            }
            // Expanded oracle: copy-expand and run the dense JV.
            let mut copy_tier = Vec::new();
            for (t, &c) in caps.iter().enumerate() {
                copy_tier.extend(std::iter::repeat(t).take(c));
            }
            let expanded: Vec<Vec<f64>> = cost
                .iter()
                .map(|row| copy_tier.iter().map(|&t| row[t]).collect())
                .collect();
            let dense = hungarian(&expanded);
            let dense_tiers: Vec<usize> = dense.iter().map(|&j| copy_tier[j]).collect();
            let collapsed = hungarian_collapsed(&cost, &caps).expect("feasible random case");
            assert_eq!(
                collapsed, dense_tiers,
                "case {case}: n={n} l={l} caps={caps:?} cost={cost:?}"
            );
        }
    }

    #[test]
    fn production_matching_uses_collapsed_core_and_matches_reference() {
        // End-to-end: exact-fit capacities + duplicated partitions through
        // the public solvers (table+collapsed vs model+expanded).
        let mut catalog = TierCatalog::azure_adls_gen2();
        catalog.set_capacity("Premium", 50.0).unwrap();
        catalog.set_capacity("Hot", 100.0).unwrap();
        catalog.set_capacity("Cool", 100.0).unwrap();
        catalog.set_capacity("Archive", 100.0).unwrap(); // total = 7 copies of 50
        let parts: Vec<_> = (0..7)
            .map(|i| PartitionSpec::new(i, format!("p{i}"), 50.0, ((i / 2) * 100) as f64))
            .collect();
        let problem = OptAssignProblem::new(catalog, parts, 6.0);
        let table = solve_equal_size_matching(&problem).unwrap();
        let reference = crate::reference::solve_equal_size_matching_reference(&problem).unwrap();
        assert_eq!(table, reference);
    }

    #[test]
    fn non_equal_sizes_or_compression_are_rejected() {
        let catalog = TierCatalog::azure_adls_gen2();
        let parts = vec![
            PartitionSpec::new(0, "a", 50.0, 1.0),
            PartitionSpec::new(1, "b", 60.0, 1.0),
        ];
        let problem = OptAssignProblem::new(catalog.clone(), parts, 6.0);
        assert!(matches!(
            solve_equal_size_matching(&problem),
            Err(OptAssignError::NotEqualSizeInstance(_))
        ));
        let parts = vec![PartitionSpec::new(0, "a", 50.0, 1.0)
            .with_compression_option(CompressionOption::new("gzip", 3.0, 1.0))];
        let problem = OptAssignProblem::new(catalog, parts, 6.0);
        assert!(matches!(
            solve_equal_size_matching(&problem),
            Err(OptAssignError::NotEqualSizeInstance(_))
        ));
    }

    #[test]
    fn insufficient_total_capacity_is_detected() {
        let mut catalog = TierCatalog::azure_hot_cool();
        catalog.set_capacity("Hot", 40.0).unwrap();
        catalog.set_capacity("Cool", 40.0).unwrap();
        let parts: Vec<_> = (0..3)
            .map(|i| PartitionSpec::new(i, format!("p{i}"), 50.0, 1.0))
            .collect();
        let problem = OptAssignProblem::new(catalog, parts, 6.0);
        assert!(matches!(
            solve_equal_size_matching(&problem),
            Err(OptAssignError::InfeasibleCapacity)
        ));
    }

    #[test]
    fn latency_infeasible_partition_is_reported() {
        let catalog = TierCatalog::azure_adls_gen2();
        let parts = vec![PartitionSpec::new(0, "a", 50.0, 1.0).with_latency_threshold(1e-9)];
        let problem = OptAssignProblem::new(catalog, parts, 6.0);
        assert!(matches!(
            solve_equal_size_matching(&problem),
            Err(OptAssignError::InfeasiblePartition { .. })
        ));
    }
}
