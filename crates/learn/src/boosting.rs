//! Gradient-boosted regression trees (the "XGBoost" rows of Tables VI–VIII).
//!
//! Standard least-squares gradient boosting: each stage fits a shallow CART
//! regression tree to the residuals of the current ensemble and is added
//! with a learning-rate shrinkage factor.
//!
//! The stages themselves are inherently sequential (each fits the previous
//! ensemble's residuals), but the fast path amortizes everything around
//! them: the feature columns are ranked and ordered **once** and the order
//! is reused by every stage's tree build (only the targets change between
//! stages, never the feature order), and the per-stage ensemble update
//! fans its row predictions out over [`scope_cloudsim::parallel_map`] —
//! units of rows claimed by whichever thread is free, merged in index
//! order, so the fitted model is bit-for-bit identical for any thread
//! count and to the sequential [`crate::reference`] oracle.

use crate::data::ColumnMatrix;
use crate::error::LearnError;
use crate::tree::{DecisionTreeRegressor, RankTable, TreeParams};
use crate::Regressor;
use scope_cloudsim::parallel::{default_threads, parallel_map_with_threads};

/// Hyper-parameters for gradient boosting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoostingParams {
    /// Number of boosting stages.
    pub n_estimators: usize,
    /// Shrinkage applied to each stage's contribution.
    pub learning_rate: f64,
    /// Per-stage tree parameters (typically shallow, depth 3–4).
    pub tree: TreeParams,
}

impl Default for BoostingParams {
    fn default() -> Self {
        BoostingParams {
            n_estimators: 100,
            learning_rate: 0.1,
            tree: TreeParams {
                max_depth: 3,
                min_samples_split: 2,
                min_samples_leaf: 1,
                max_features: None,
            },
        }
    }
}

/// Gradient-boosted regression tree ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientBoostingRegressor {
    base_prediction: f64,
    learning_rate: f64,
    stages: Vec<DecisionTreeRegressor>,
}

impl GradientBoostingRegressor {
    /// Fit on a shared column-major matrix.
    pub fn fit_columns(
        cols: &ColumnMatrix,
        targets: &[f64],
        params: BoostingParams,
    ) -> Result<Self, LearnError> {
        Self::fit_columns_with_threads(cols, targets, params, default_threads())
    }

    /// [`GradientBoostingRegressor::fit_columns`] with an explicit
    /// worker-thread count for the per-stage prediction fan-out (1 =
    /// sequential); the fitted model is thread-count independent.
    pub fn fit_columns_with_threads(
        cols: &ColumnMatrix,
        targets: &[f64],
        params: BoostingParams,
        threads: usize,
    ) -> Result<Self, LearnError> {
        if params.n_estimators == 0 {
            return Err(LearnError::InvalidHyperParameter(
                "n_estimators must be > 0",
            ));
        }
        if !(params.learning_rate > 0.0 && params.learning_rate <= 1.0) {
            return Err(LearnError::InvalidHyperParameter(
                "learning_rate must be in (0, 1]",
            ));
        }
        cols.check_targets(targets.len())?;
        let base_prediction = targets.iter().sum::<f64>() / targets.len() as f64;
        let mut current: Vec<f64> = vec![base_prediction; targets.len()];
        let mut stages = Vec::with_capacity(params.n_estimators);
        // One order shared by every stage: the feature order never
        // changes between stages, only the residual targets do.
        let rows: Vec<u32> = (0..cols.n_rows() as u32).collect();
        let sorted = RankTable::new(cols).order(&rows);
        for stage_idx in 0..params.n_estimators {
            let residuals: Vec<f64> = targets.iter().zip(&current).map(|(t, c)| t - c).collect();
            // Stop early if the fit is already (numerically) perfect.
            if residuals.iter().all(|r| r.abs() < 1e-12) {
                break;
            }
            let tree = DecisionTreeRegressor::fit_ordered(
                cols,
                &residuals,
                params.tree,
                stage_idx as u64 + 1,
                &sorted,
            );
            // Batched ensemble update: each row's contribution is computed
            // exactly as the sequential loop would, merged in row order.
            let deltas = parallel_map_with_threads(&rows, threads, |_, &r| {
                params.learning_rate * tree.root().predict_by(&|f| cols.value(r as usize, f))
            });
            for (c, d) in current.iter_mut().zip(deltas) {
                *c += d;
            }
            stages.push(tree);
        }
        Ok(GradientBoostingRegressor {
            base_prediction,
            learning_rate: params.learning_rate,
            stages,
        })
    }

    /// Assemble an ensemble from pre-built stages (reference builders).
    pub(crate) fn from_parts(
        base_prediction: f64,
        learning_rate: f64,
        stages: Vec<DecisionTreeRegressor>,
    ) -> Self {
        GradientBoostingRegressor {
            base_prediction,
            learning_rate,
            stages,
        }
    }

    /// Number of boosting stages actually fit (may be fewer than requested
    /// if the residuals vanished early).
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }
}

impl Regressor for GradientBoostingRegressor {
    fn predict_one(&self, features: &[f64]) -> f64 {
        let mut pred = self.base_prediction;
        for tree in &self.stages {
            pred += self.learning_rate * tree.predict_one(features);
        }
        pred
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{mae, r2_score};

    /// Fit from rows through [`ColumnMatrix::from_rows`], as callers do.
    fn fit(
        f: &[Vec<f64>],
        t: &[f64],
        params: BoostingParams,
    ) -> Result<GradientBoostingRegressor, LearnError> {
        GradientBoostingRegressor::fit_columns(&ColumnMatrix::from_rows(f)?, t, params)
    }

    fn nonlinear(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut state = seed | 1;
        let mut next = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut features = Vec::new();
        let mut targets = Vec::new();
        for _ in 0..n {
            let x: Vec<f64> = (0..3).map(|_| next() * 10.0).collect();
            let y = x[0].sin() * 5.0 + x[1] * 0.5 + (x[2] * 0.3).cos();
            features.push(x);
            targets.push(y);
        }
        (features, targets)
    }

    #[test]
    fn boosting_fits_nonlinear_function() {
        let (f, t) = nonlinear(400, 21);
        let (ft, tt) = nonlinear(150, 99);
        let gbt = fit(&f, &t, BoostingParams::default()).unwrap();
        let preds: Vec<f64> = ft.iter().map(|x| gbt.predict_one(x)).collect();
        assert!(
            r2_score(&tt, &preds) > 0.7,
            "r2 = {}",
            r2_score(&tt, &preds)
        );
    }

    #[test]
    fn more_stages_reduce_training_error() {
        let (f, t) = nonlinear(200, 5);
        let short = fit(
            &f,
            &t,
            BoostingParams {
                n_estimators: 5,
                ..Default::default()
            },
        )
        .unwrap();
        let long = fit(
            &f,
            &t,
            BoostingParams {
                n_estimators: 150,
                ..Default::default()
            },
        )
        .unwrap();
        let p_short: Vec<f64> = f.iter().map(|x| short.predict_one(x)).collect();
        let p_long: Vec<f64> = f.iter().map(|x| long.predict_one(x)).collect();
        assert!(mae(&t, &p_long) < mae(&t, &p_short));
    }

    #[test]
    fn boosting_is_thread_count_independent() {
        let (f, t) = nonlinear(150, 9);
        let params = BoostingParams {
            n_estimators: 25,
            ..Default::default()
        };
        let cols = ColumnMatrix::from_rows(&f).unwrap();
        let sequential =
            GradientBoostingRegressor::fit_columns_with_threads(&cols, &t, params, 1).unwrap();
        for threads in [2, 5, 8] {
            let parallel =
                GradientBoostingRegressor::fit_columns_with_threads(&cols, &t, params, threads)
                    .unwrap();
            assert_eq!(sequential, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn constant_target_stops_early() {
        let f: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let t = vec![3.5; 30];
        let gbt = fit(&f, &t, BoostingParams::default()).unwrap();
        assert_eq!(gbt.n_stages(), 0);
        assert_eq!(gbt.predict_one(&[100.0]), 3.5);
    }

    #[test]
    fn invalid_hyperparameters_rejected() {
        let f = vec![vec![1.0]];
        let t = vec![1.0];
        assert!(fit(
            &f,
            &t,
            BoostingParams {
                n_estimators: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(fit(
            &f,
            &t,
            BoostingParams {
                learning_rate: 0.0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(fit(
            &f,
            &t,
            BoostingParams {
                learning_rate: 1.5,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn shape_mismatch_rejected() {
        assert!(fit(&[vec![1.0]], &[1.0, 2.0], BoostingParams::default()).is_err());
        assert!(fit(&[], &[], BoostingParams::default()).is_err());
    }
}
