//! k-nearest-neighbour regression.
//!
//! Used as the stand-in for the paper's SVR rows: a non-parametric,
//! kernel-flavoured model with very different bias/variance behaviour from
//! the tree ensembles, so the model-comparison tables still compare
//! genuinely different model families. Distances are Euclidean over
//! standardized features (the caller is responsible for standardization,
//! see [`crate::data::Standardizer`]).
//!
//! Queries use a **bounded selection**: a max-heap of the k best
//! `(distance², index)` pairs, `O(n log k)` instead of the full
//! `O(n log n)` sort the seed implementation paid (preserved as
//! [`crate::reference::knn_predict_reference`] and regression-tested
//! bit-for-bit in `tests/differential_learn.rs`). The selected set — ties at
//! the boundary resolved by ascending training index — and the accumulation
//! order over it are identical to the sorted path's.

use crate::data::check_rows;
use crate::error::LearnError;
use crate::Regressor;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Distance weighting applied to neighbour targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnnWeighting {
    /// Every neighbour counts equally.
    Uniform,
    /// Neighbours are weighted by 1 / (distance + epsilon).
    InverseDistance,
}

/// k-nearest-neighbour regressor.
#[derive(Debug, Clone)]
pub struct KnnRegressor {
    features: Vec<Vec<f64>>,
    targets: Vec<f64>,
    k: usize,
    weighting: KnnWeighting,
}

impl KnnRegressor {
    /// "Fit" (memorise) the training data, which must be of one width and
    /// free of NaN.
    pub fn fit(
        features: &[Vec<f64>],
        targets: &[f64],
        k: usize,
        weighting: KnnWeighting,
    ) -> Result<Self, LearnError> {
        if features.is_empty() {
            return Err(LearnError::EmptyTrainingSet);
        }
        if features.len() != targets.len() {
            return Err(LearnError::LengthMismatch {
                features: features.len(),
                targets: targets.len(),
            });
        }
        if k == 0 {
            return Err(LearnError::InvalidHyperParameter("k must be > 0"));
        }
        check_rows(features)?;
        Ok(KnnRegressor {
            features: features.to_vec(),
            targets: targets.to_vec(),
            k: k.min(features.len()),
            weighting,
        })
    }

    /// Number of neighbours actually used (clamped to the training size).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The memorised training rows (reference oracle access).
    pub(crate) fn training_features(&self) -> &[Vec<f64>] {
        &self.features
    }

    /// The memorised training targets (reference oracle access).
    pub(crate) fn training_targets(&self) -> &[f64] {
        &self.targets
    }

    /// The configured weighting (reference oracle access).
    pub(crate) fn weighting(&self) -> KnnWeighting {
        self.weighting
    }
}

pub(crate) fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// A candidate neighbour ordered by `(distance², training index)` — the
/// same total order a stable sort by distance induces, so the heap selects
/// exactly the prefix the sorted reference truncates to.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Neighbour {
    d2: f64,
    pos: usize,
    target: f64,
}

impl Eq for Neighbour {}

impl Ord for Neighbour {
    fn cmp(&self, other: &Self) -> Ordering {
        self.d2
            .partial_cmp(&other.d2)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.pos.cmp(&other.pos))
    }
}

impl PartialOrd for Neighbour {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Regressor for KnnRegressor {
    fn predict_one(&self, features: &[f64]) -> f64 {
        // Bounded selection: max-heap of the k best (distance², index).
        let mut heap: BinaryHeap<Neighbour> = BinaryHeap::with_capacity(self.k + 1);
        for (pos, (row, &target)) in self.features.iter().zip(&self.targets).enumerate() {
            let cand = Neighbour {
                d2: squared_distance(row, features),
                pos,
                target,
            };
            if heap.len() < self.k {
                heap.push(cand);
            } else if let Some(worst) = heap.peek() {
                if cand < *worst {
                    heap.pop();
                    heap.push(cand);
                }
            }
        }
        // Accumulate in ascending (distance², index) order — the exact
        // order the sorted reference iterates its truncated prefix in.
        let selected = heap.into_sorted_vec();
        match self.weighting {
            KnnWeighting::Uniform => {
                selected.iter().map(|n| n.target).sum::<f64>() / selected.len() as f64
            }
            KnnWeighting::InverseDistance => {
                let mut num = 0.0;
                let mut den = 0.0;
                for n in selected {
                    let w = 1.0 / (n.d2.sqrt() + 1e-9);
                    num += w * n.target;
                    den += w;
                }
                num / den
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2_score;
    use crate::reference::knn_predict_reference;

    #[test]
    fn exact_neighbour_dominates_with_inverse_distance() {
        let f: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let t: Vec<f64> = (0..10).map(|i| i as f64 * 10.0).collect();
        let knn = KnnRegressor::fit(&f, &t, 3, KnnWeighting::InverseDistance).unwrap();
        // Querying an exact training point should return (almost) its target.
        assert!((knn.predict_one(&[4.0]) - 40.0).abs() < 1e-3);
    }

    #[test]
    fn uniform_weighting_averages_neighbours() {
        let f = vec![vec![0.0], vec![1.0], vec![10.0]];
        let t = vec![0.0, 10.0, 100.0];
        let knn = KnnRegressor::fit(&f, &t, 2, KnnWeighting::Uniform).unwrap();
        // Nearest two neighbours of 0.4 are 0.0 and 1.0 -> (0 + 10) / 2.
        assert!((knn.predict_one(&[0.4]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn bounded_selection_matches_sorted_reference_on_ties() {
        // An integer grid produces many exactly-tied distances; the heap
        // must select and order the same neighbours the stable sort did.
        let f: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 5) as f64, (i / 5) as f64])
            .collect();
        let t: Vec<f64> = (0..40).map(|i| i as f64 * 1.7 - 3.0).collect();
        for weighting in [KnnWeighting::Uniform, KnnWeighting::InverseDistance] {
            for k in [1, 3, 7, 40, 100] {
                let knn = KnnRegressor::fit(&f, &t, k, weighting).unwrap();
                for q in [[0.0, 0.0], [2.0, 3.0], [2.5, 1.5], [10.0, 10.0]] {
                    let fast = knn.predict_one(&q);
                    let slow = knn_predict_reference(&knn, &q);
                    assert_eq!(fast.to_bits(), slow.to_bits(), "k={k} q={q:?}");
                }
            }
        }
    }

    #[test]
    fn learns_smooth_function_reasonably() {
        let f: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 20.0]).collect();
        let t: Vec<f64> = f.iter().map(|x| (x[0]).sin() * 3.0 + x[0]).collect();
        let knn = KnnRegressor::fit(&f, &t, 5, KnnWeighting::InverseDistance).unwrap();
        let test_f: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 5.0 + 0.03]).collect();
        let test_t: Vec<f64> = test_f.iter().map(|x| (x[0]).sin() * 3.0 + x[0]).collect();
        let preds: Vec<f64> = test_f.iter().map(|x| knn.predict_one(x)).collect();
        assert!(r2_score(&test_t, &preds) > 0.95);
    }

    #[test]
    fn k_is_clamped_to_training_size() {
        let f = vec![vec![0.0], vec![1.0]];
        let t = vec![1.0, 3.0];
        let knn = KnnRegressor::fit(&f, &t, 10, KnnWeighting::Uniform).unwrap();
        assert_eq!(knn.k(), 2);
        assert!((knn.predict_one(&[0.5]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(KnnRegressor::fit(&[], &[], 3, KnnWeighting::Uniform).is_err());
        assert!(KnnRegressor::fit(&[vec![1.0]], &[1.0], 0, KnnWeighting::Uniform).is_err());
        assert!(KnnRegressor::fit(&[vec![1.0]], &[1.0, 2.0], 1, KnnWeighting::Uniform).is_err());
    }
}
