//! G-PART: the greedy partition-merging heuristic (Algorithm 1).
//!
//! Initial partitions are nodes of a graph whose edges are weighted by the
//! fractional overlap of the two partitions. G-PART repeatedly pops the
//! highest-overlap *feasible* edge from a max-heap, merges the two
//! endpoints into a meta-node, and re-inserts the meta-node's edges — unless
//! the merged span already exceeds the soft span threshold `S_thresh`, in
//! which case the meta-node is frozen. A pair of partitions is feasible to
//! merge when their access frequencies are comparable: either their ratio
//! is within `[1/ρ_c, ρ_c]` or their absolute difference is at most `ρ'_c`.

use crate::error::DataPartError;
use crate::partition::{FileCatalog, Partition};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Maximum frequency ratio `ρ_c` between two partitions G-PART merges: a
/// merged pair reads within a factor of 3 of each other, so one tier
/// choice suits both.
const FREQUENCY_RATIO: f64 = 3.0;

/// Maximum absolute frequency difference `ρ'_c`; a pair is feasible if it
/// satisfies *either* this or the ratio bound, so rarely read partitions
/// (where a ratio of tiny counts means nothing) still merge.
const FREQUENCY_ABS_DIFF: f64 = 5.0;

/// Fractional overlap an edge needs to exist at all: anything above float
/// noise, so only partitions that share data are ever merged.
const MIN_OVERLAP: f64 = 1e-9;

/// Configuration of the G-PART merging constraints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeConfig {
    /// Soft span threshold `S_thresh`: once a merged partition reaches this
    /// span it is not merged further (prevents unbounded read-cost growth).
    pub span_threshold: f64,
}

impl Default for MergeConfig {
    fn default() -> Self {
        MergeConfig {
            span_threshold: f64::INFINITY,
        }
    }
}

impl MergeConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), DataPartError> {
        if !(self.span_threshold > 0.0) {
            return Err(DataPartError::InvalidOption(format!(
                "span_threshold must be positive, got {}",
                self.span_threshold
            )));
        }
        Ok(())
    }
}

/// Are two partitions' frequencies compatible for merging?
fn frequencies_compatible(a: f64, b: f64) -> bool {
    let abs_ok = (a - b).abs() <= FREQUENCY_ABS_DIFF;
    let ratio_ok = if a <= 0.0 || b <= 0.0 {
        false
    } else {
        let r = a / b;
        (1.0 / FREQUENCY_RATIO..=FREQUENCY_RATIO).contains(&r)
    };
    abs_ok || ratio_ok
}

/// A heap entry: fractional overlap plus the two node ids it connects.
#[derive(Debug, PartialEq)]
struct Edge {
    overlap: f64,
    a: usize,
    b: usize,
}

impl Eq for Edge {}

impl Ord for Edge {
    fn cmp(&self, other: &Self) -> Ordering {
        self.overlap
            .partial_cmp(&other.overlap)
            .unwrap_or(Ordering::Equal)
            .then_with(|| (other.a, other.b).cmp(&(self.a, self.b)))
    }
}

impl PartialOrd for Edge {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Run G-PART on the initial partitions, returning the merged partitions.
///
/// The result covers every input partition (each input is contained in
/// exactly one output), ids are re-assigned densely, and no output partition
/// was produced by merging a pair that violated the feasibility constraints.
pub fn gpart_merge(
    initial: &[Partition],
    catalog: &FileCatalog,
    config: &MergeConfig,
) -> Result<Vec<Partition>, DataPartError> {
    config.validate()?;
    if initial.is_empty() {
        return Ok(Vec::new());
    }
    // Working set of nodes; `alive[i]` marks whether node i still exists.
    let mut nodes: Vec<Partition> = initial.to_vec();
    let mut alive: Vec<bool> = vec![true; nodes.len()];
    let mut frozen: Vec<bool> = vec![false; nodes.len()];
    let mut heap: BinaryHeap<Edge> = BinaryHeap::new();

    // Validate spans up-front (also catches unknown files early).
    for p in &nodes {
        p.span(catalog)?;
    }

    let push_edges_for = |heap: &mut BinaryHeap<Edge>,
                          nodes: &[Partition],
                          alive: &[bool],
                          frozen: &[bool],
                          idx: usize|
     -> Result<(), DataPartError> {
        for j in 0..nodes.len() {
            if j == idx || !alive[j] || frozen[j] {
                continue;
            }
            if !frequencies_compatible(nodes[idx].frequency, nodes[j].frequency) {
                continue;
            }
            let overlap = nodes[idx].fractional_overlap(&nodes[j], catalog)?;
            if overlap > MIN_OVERLAP {
                heap.push(Edge {
                    overlap,
                    a: idx.min(j),
                    b: idx.max(j),
                });
            }
        }
        Ok(())
    };

    // Initial edges.
    for i in 0..nodes.len() {
        for j in (i + 1)..nodes.len() {
            if !frequencies_compatible(nodes[i].frequency, nodes[j].frequency) {
                continue;
            }
            let overlap = nodes[i].fractional_overlap(&nodes[j], catalog)?;
            if overlap > MIN_OVERLAP {
                heap.push(Edge {
                    overlap,
                    a: i,
                    b: j,
                });
            }
        }
    }

    while let Some(edge) = heap.pop() {
        let (a, b) = (edge.a, edge.b);
        if !alive[a] || !alive[b] || frozen[a] || frozen[b] {
            continue; // stale edge
        }
        // Re-check feasibility: frequencies may have changed via merging.
        if !frequencies_compatible(nodes[a].frequency, nodes[b].frequency) {
            continue;
        }
        // Merge a and b into a new node.
        let merged = nodes[a].merge(&nodes[b], nodes.len());
        alive[a] = false;
        alive[b] = false;
        let merged_span = merged.span(catalog)?;
        nodes.push(merged);
        alive.push(true);
        let new_idx = nodes.len() - 1;
        let is_frozen = merged_span >= config.span_threshold;
        frozen.push(is_frozen);
        if !is_frozen {
            push_edges_for(&mut heap, &nodes, &alive, &frozen, new_idx)?;
        }
    }

    let mut result: Vec<Partition> = nodes
        .into_iter()
        .zip(alive)
        .filter_map(|(p, keep)| keep.then_some(p))
        .collect();
    result.sort_by(|a, b| {
        a.files
            .iter()
            .next()
            .cmp(&b.files.iter().next())
            .then_with(|| a.file_count().cmp(&b.file_count()))
    });
    for (i, p) in result.iter_mut().enumerate() {
        p.id = i;
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_workload::FileRef;
    use std::collections::BTreeSet;

    fn catalog(n: usize) -> FileCatalog {
        FileCatalog::uniform(&[("t", n, 1.0)])
    }

    fn partition(id: usize, indices: &[usize], freq: f64) -> Partition {
        Partition::new(id, indices.iter().map(|&i| FileRef::new("t", i)), freq)
    }

    fn total_files_covered(parts: &[Partition]) -> BTreeSet<FileRef> {
        parts.iter().flat_map(|p| p.files.iter().cloned()).collect()
    }

    #[test]
    fn highly_overlapping_partitions_are_merged() {
        let c = catalog(10);
        let initial = vec![
            partition(0, &[0, 1, 2, 3], 2.0),
            partition(1, &[1, 2, 3, 4], 2.0),
            partition(2, &[7, 8], 2.0),
        ];
        let merged = gpart_merge(&initial, &c, &MergeConfig::default()).unwrap();
        // The first two share 3 of 5 files and merge; the third is disjoint.
        assert_eq!(merged.len(), 2);
        let sizes: Vec<usize> = merged.iter().map(|p| p.file_count()).collect();
        assert!(sizes.contains(&5));
        assert!(sizes.contains(&2));
        // Coverage is preserved.
        assert_eq!(total_files_covered(&initial), total_files_covered(&merged));
    }

    #[test]
    fn incompatible_frequencies_block_merging() {
        let c = catalog(10);
        let initial = vec![
            partition(0, &[0, 1, 2], 1.0),
            partition(1, &[0, 1, 2], 100.0), // identical files, wildly different frequency
        ];
        let merged = gpart_merge(&initial, &c, &MergeConfig::default()).unwrap();
        assert_eq!(
            merged.len(),
            2,
            "incompatible partitions must stay separate"
        );
        // The same files at compatible frequencies merge.
        let compatible = vec![
            partition(0, &[0, 1, 2], 10.0),
            partition(1, &[0, 1, 2], 25.0), // ratio 2.5, difference 15
        ];
        assert_eq!(
            gpart_merge(&compatible, &c, &MergeConfig::default())
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn span_threshold_freezes_large_merges() {
        let c = catalog(30);
        // A chain of overlapping partitions that would all merge into one
        // without the threshold.
        let initial: Vec<Partition> = (0..10)
            .map(|i| partition(i, &[i, i + 1, i + 2], 1.0))
            .collect();
        let unbounded = gpart_merge(&initial, &c, &MergeConfig::default()).unwrap();
        assert_eq!(unbounded.len(), 1);
        let bounded = gpart_merge(
            &initial,
            &c,
            &MergeConfig {
                span_threshold: 6.0,
            },
        )
        .unwrap();
        assert!(bounded.len() > 1);
        // No merged partition wildly exceeds the threshold (a single merge
        // step can overshoot, but growth stops there).
        for p in &bounded {
            assert!(p.span(&c).unwrap() <= 6.0 + 5.0);
        }
        assert_eq!(total_files_covered(&initial), total_files_covered(&bounded));
    }

    #[test]
    fn merging_reduces_duplicated_space() {
        let c = catalog(20);
        // Heavy overlap: 8 partitions all sharing a hot core of files.
        let initial: Vec<Partition> = (0..8)
            .map(|i| {
                let mut files = vec![0, 1, 2, 3];
                files.push(4 + i);
                partition(i, &files, 2.0)
            })
            .collect();
        let merged = gpart_merge(&initial, &c, &MergeConfig::default()).unwrap();
        let space_before: f64 = initial.iter().map(|p| p.span(&c).unwrap()).sum();
        let space_after: f64 = merged.iter().map(|p| p.span(&c).unwrap()).sum();
        assert!(space_after < space_before);
    }

    #[test]
    fn disjoint_partitions_are_untouched() {
        let c = catalog(12);
        let initial = vec![
            partition(0, &[0, 1], 1.0),
            partition(1, &[4, 5], 1.0),
            partition(2, &[8, 9], 1.0),
        ];
        let merged = gpart_merge(&initial, &c, &MergeConfig::default()).unwrap();
        assert_eq!(merged.len(), 3);
    }

    #[test]
    fn empty_input_and_bad_config() {
        let c = catalog(3);
        assert!(gpart_merge(&[], &c, &MergeConfig::default())
            .unwrap()
            .is_empty());
        assert!(gpart_merge(
            &[partition(0, &[0], 1.0)],
            &c,
            &MergeConfig {
                span_threshold: 0.0,
            }
        )
        .is_err());
    }

    #[test]
    fn unknown_file_is_reported() {
        let c = catalog(2);
        let bad = vec![Partition::new(0, [FileRef::new("missing", 0)], 1.0)];
        assert!(matches!(
            gpart_merge(&bad, &c, &MergeConfig::default()),
            Err(DataPartError::UnknownFile(_))
        ));
    }

    #[test]
    fn frequency_compatibility_rules() {
        assert!(frequencies_compatible(10.0, 20.0)); // ratio 2 <= 3
        assert!(frequencies_compatible(100.0, 104.0)); // diff 4 <= 5
        assert!(!frequencies_compatible(1.0, 100.0));
        assert!(frequencies_compatible(0.0, 3.0)); // diff rule saves zero-frequency
        assert!(!frequencies_compatible(0.0, 50.0));
    }
}
