//! A single-hidden-layer perceptron regressor trained with mini-batch SGD.
//!
//! This is the "Neural Network (MLP)" model family of Tables VI–VIII. The
//! network is deliberately small (one hidden layer, tanh activation) — the
//! paper's feature space has only a handful of dimensions and the point of
//! the comparison is the model family, not depth.

use crate::data::Standardizer;
use crate::error::LearnError;
use crate::Regressor;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Hyper-parameters for the MLP regressor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlpParams {
    /// Number of hidden units.
    pub hidden_units: usize,
    /// Number of full passes over the training data.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// L2 weight decay.
    pub weight_decay: f64,
    /// RNG seed for weight init and shuffling.
    pub seed: u64,
}

impl Default for MlpParams {
    fn default() -> Self {
        MlpParams {
            hidden_units: 32,
            epochs: 300,
            learning_rate: 0.01,
            batch_size: 16,
            weight_decay: 1e-5,
            seed: 7,
        }
    }
}

/// Single-hidden-layer MLP regressor. Inputs and the target are
/// internally standardized so callers can pass raw features.
#[derive(Debug, Clone)]
pub struct MlpRegressor {
    inputs: Standardizer,
    target_mean: f64,
    target_std: f64,
    // weights_in[h][d], bias_in[h], weights_out[h], bias_out
    weights_in: Vec<Vec<f64>>,
    bias_in: Vec<f64>,
    weights_out: Vec<f64>,
    bias_out: f64,
}

impl MlpRegressor {
    /// Fit the network. The feature rows must be of one width and free of
    /// NaN.
    pub fn fit(
        features: &[Vec<f64>],
        targets: &[f64],
        params: MlpParams,
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
        if params.hidden_units == 0 || params.epochs == 0 || params.batch_size == 0 {
            return Err(LearnError::InvalidHyperParameter(
                "hidden_units, epochs and batch_size must be > 0",
            ));
        }
        // Standardize inputs and target.
        let inputs = Standardizer::fit(features)?;
        let width = features[0].len();
        let n = features.len();
        let target_mean = targets.iter().sum::<f64>() / n as f64;
        let target_var = targets
            .iter()
            .map(|t| (t - target_mean).powi(2))
            .sum::<f64>()
            / n as f64;
        let target_std = if target_var.sqrt() < 1e-12 {
            1.0
        } else {
            target_var.sqrt()
        };
        let x = inputs.transform(features);
        let y: Vec<f64> = targets
            .iter()
            .map(|t| (t - target_mean) / target_std)
            .collect();

        let mut rng = SmallRng::seed_from_u64(params.seed);
        let h = params.hidden_units;
        let scale_in = (2.0 / (width as f64 + h as f64)).sqrt();
        let scale_out = (2.0 / (h as f64 + 1.0)).sqrt();
        let mut weights_in: Vec<Vec<f64>> = (0..h)
            .map(|_| {
                (0..width)
                    .map(|_| rng.gen_range(-scale_in..scale_in))
                    .collect()
            })
            .collect();
        let mut bias_in = vec![0.0; h];
        let mut weights_out: Vec<f64> = (0..h)
            .map(|_| rng.gen_range(-scale_out..scale_out))
            .collect();
        let mut bias_out = 0.0;

        let mut order: Vec<usize> = (0..n).collect();
        for _epoch in 0..params.epochs {
            // Shuffle example order each epoch.
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for batch in order.chunks(params.batch_size) {
                // Accumulate gradients over the batch.
                let mut grad_w_in = vec![vec![0.0; width]; h];
                let mut grad_b_in = vec![0.0; h];
                let mut grad_w_out = vec![0.0; h];
                let mut grad_b_out = 0.0;
                for &i in batch {
                    let xi = &x[i];
                    // Forward pass.
                    let mut hidden = vec![0.0; h];
                    for (j, hj) in hidden.iter_mut().enumerate() {
                        let z: f64 = weights_in[j]
                            .iter()
                            .zip(xi)
                            .map(|(w, v)| w * v)
                            .sum::<f64>()
                            + bias_in[j];
                        *hj = z.tanh();
                    }
                    let pred: f64 = weights_out
                        .iter()
                        .zip(&hidden)
                        .map(|(w, a)| w * a)
                        .sum::<f64>()
                        + bias_out;
                    let err = pred - y[i];
                    // Backward pass.
                    grad_b_out += err;
                    for j in 0..h {
                        grad_w_out[j] += err * hidden[j];
                        let dh = err * weights_out[j] * (1.0 - hidden[j] * hidden[j]);
                        grad_b_in[j] += dh;
                        for (g, v) in grad_w_in[j].iter_mut().zip(xi) {
                            *g += dh * v;
                        }
                    }
                }
                let lr = params.learning_rate / batch.len() as f64;
                for j in 0..h {
                    for (w, g) in weights_in[j].iter_mut().zip(&grad_w_in[j]) {
                        *w -= lr * (g + params.weight_decay * *w);
                    }
                    bias_in[j] -= lr * grad_b_in[j];
                    weights_out[j] -= lr * (grad_w_out[j] + params.weight_decay * weights_out[j]);
                }
                bias_out -= lr * grad_b_out;
            }
        }

        Ok(MlpRegressor {
            inputs,
            target_mean,
            target_std,
            weights_in,
            bias_in,
            weights_out,
            bias_out,
        })
    }

    /// Number of hidden units.
    pub fn hidden_units(&self) -> usize {
        self.weights_out.len()
    }
}

impl Regressor for MlpRegressor {
    fn predict_one(&self, features: &[f64]) -> f64 {
        let x = self.inputs.transform_one(features);
        let mut out = self.bias_out;
        for (j, w_out) in self.weights_out.iter().enumerate() {
            let z: f64 = self.weights_in[j]
                .iter()
                .zip(&x)
                .map(|(w, v)| w * v)
                .sum::<f64>()
                + self.bias_in[j];
            out += w_out * z.tanh();
        }
        out * self.target_std + self.target_mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2_score;

    #[test]
    fn learns_linear_function() {
        let features: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 10.0]).collect();
        let targets: Vec<f64> = features.iter().map(|f| 2.0 * f[0] + 1.0).collect();
        let mlp = MlpRegressor::fit(&features, &targets, MlpParams::default()).unwrap();
        let preds: Vec<f64> = features.iter().map(|f| mlp.predict_one(f)).collect();
        assert!(
            r2_score(&targets, &preds) > 0.95,
            "r2 = {}",
            r2_score(&targets, &preds)
        );
    }

    #[test]
    fn learns_mildly_nonlinear_function() {
        let features: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 20.0]).collect();
        let targets: Vec<f64> = features
            .iter()
            .map(|f| (f[0]).sin() * 2.0 + 0.5 * f[0])
            .collect();
        let mlp = MlpRegressor::fit(
            &features,
            &targets,
            MlpParams {
                epochs: 600,
                ..Default::default()
            },
        )
        .unwrap();
        let preds: Vec<f64> = features.iter().map(|f| mlp.predict_one(f)).collect();
        assert!(
            r2_score(&targets, &preds) > 0.85,
            "r2 = {}",
            r2_score(&targets, &preds)
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let features: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = features.iter().map(|f| f[0] * 0.3).collect();
        let a = MlpRegressor::fit(&features, &targets, MlpParams::default()).unwrap();
        let b = MlpRegressor::fit(&features, &targets, MlpParams::default()).unwrap();
        assert_eq!(a.predict_one(&[25.0]), b.predict_one(&[25.0]));
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(MlpRegressor::fit(&[], &[], MlpParams::default()).is_err());
        assert!(MlpRegressor::fit(&[vec![1.0]], &[1.0, 2.0], MlpParams::default()).is_err());
        let bad = MlpParams {
            hidden_units: 0,
            ..Default::default()
        };
        assert!(MlpRegressor::fit(&[vec![1.0]], &[1.0], bad).is_err());
    }

    #[test]
    fn constant_target_predicts_constant() {
        let features: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let targets = vec![42.0; 30];
        let mlp = MlpRegressor::fit(
            &features,
            &targets,
            MlpParams {
                epochs: 50,
                ..Default::default()
            },
        )
        .unwrap();
        assert!((mlp.predict_one(&[15.0]) - 42.0).abs() < 1.0);
    }
}
