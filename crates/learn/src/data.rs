//! Dataset containers, train/test splitting and feature standardization.
//!
//! The paper emphasises *out-of-time* validation for the tier predictor and
//! ordinary random splits for the compression predictor; both are supported
//! here ([`train_test_split`] and [`Dataset::split_at`]).

use crate::error::LearnError;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A dense feature matrix plus targets.
///
/// Regression targets live in `targets`; classification labels can be stored
/// in `labels`. Either may be empty depending on the task.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Feature rows; all rows must have the same width.
    pub features: Vec<Vec<f64>>,
    /// Regression targets (parallel to `features`), possibly empty.
    pub targets: Vec<f64>,
    /// Classification labels (parallel to `features`), possibly empty.
    pub labels: Vec<usize>,
    /// Optional feature names used in reports.
    pub feature_names: Vec<String>,
}

impl Dataset {
    /// Build a regression dataset, validating shapes.
    pub fn regression(features: Vec<Vec<f64>>, targets: Vec<f64>) -> Result<Self, LearnError> {
        validate_features(&features)?;
        if features.len() != targets.len() {
            return Err(LearnError::LengthMismatch {
                features: features.len(),
                targets: targets.len(),
            });
        }
        Ok(Dataset {
            features,
            targets,
            labels: Vec::new(),
            feature_names: Vec::new(),
        })
    }

    /// Build a classification dataset, validating shapes.
    pub fn classification(features: Vec<Vec<f64>>, labels: Vec<usize>) -> Result<Self, LearnError> {
        validate_features(&features)?;
        if features.len() != labels.len() {
            return Err(LearnError::LengthMismatch {
                features: features.len(),
                targets: labels.len(),
            });
        }
        Ok(Dataset {
            features,
            targets: Vec::new(),
            labels,
            feature_names: Vec::new(),
        })
    }

    /// Attach human-readable feature names.
    pub fn with_feature_names(mut self, names: Vec<String>) -> Self {
        self.feature_names = names;
        self
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Number of feature columns (0 for an empty dataset).
    pub fn width(&self) -> usize {
        self.features.first().map(|r| r.len()).unwrap_or(0)
    }

    /// Deterministic split at a row index: `[0, idx)` is the first part and
    /// `[idx, len)` the second. Used for out-of-time validation where the
    /// rows are already in chronological order.
    pub fn split_at(&self, idx: usize) -> (Dataset, Dataset) {
        let idx = idx.min(self.len());
        let take = |range: std::ops::Range<usize>| Dataset {
            features: self.features[range.clone()].to_vec(),
            targets: if self.targets.is_empty() {
                Vec::new()
            } else {
                self.targets[range.clone()].to_vec()
            },
            labels: if self.labels.is_empty() {
                Vec::new()
            } else {
                self.labels[range.clone()].to_vec()
            },
            feature_names: self.feature_names.clone(),
        };
        (take(0..idx), take(idx..self.len()))
    }
}

/// A column-major (feature-major) view of a feature matrix: one contiguous
/// `f64` column per feature.
///
/// This is the layout the fast training paths operate on. The presort CART
/// builder sorts and scans whole feature columns, so storing features
/// feature-major keeps those passes sequential in memory, and a single
/// `ColumnMatrix` can be shared by every model trained on the same rows
/// (forest, boosting, the predictors upstream) without re-cloning row
/// vectors. Rows are recovered on demand with [`ColumnMatrix::row_to`].
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMatrix {
    n_rows: usize,
    n_cols: usize,
    /// Column-major values: feature `c` occupies `values[c*n_rows .. (c+1)*n_rows]`.
    values: Vec<f64>,
}

impl ColumnMatrix {
    /// Build from row-major feature vectors, validating that all rows have
    /// the same width and that no value is NaN
    /// ([`LearnError::NanFeature`] names the first, in row-major order).
    /// Without a NaN, `partial_cmp` totally preorders every column, which
    /// the tree builders' sorts and rank tables rely on.
    pub fn from_rows<S: AsRef<[f64]>>(rows: &[S]) -> Result<Self, LearnError> {
        if rows.is_empty() {
            return Err(LearnError::EmptyTrainingSet);
        }
        let n_rows = rows.len();
        let n_cols = rows[0].as_ref().len();
        for row in rows {
            if row.as_ref().len() != n_cols {
                return Err(LearnError::RaggedFeatures {
                    expected: n_cols,
                    found: row.as_ref().len(),
                });
            }
        }
        check_no_nan(rows)?;
        let mut values = vec![0.0; n_rows * n_cols];
        for (r, row) in rows.iter().enumerate() {
            for (c, &v) in row.as_ref().iter().enumerate() {
                values[c * n_rows + r] = v;
            }
        }
        Ok(ColumnMatrix {
            n_rows,
            n_cols,
            values,
        })
    }

    /// Number of rows (samples).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns (features).
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// True when the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// The contiguous values of feature column `c`.
    pub fn col(&self, c: usize) -> &[f64] {
        &self.values[c * self.n_rows..(c + 1) * self.n_rows]
    }

    /// Value of feature `c` for row `r`, with the same out-of-width
    /// semantics as indexing a row slice via `get` (missing feature = 0.0).
    pub fn value(&self, r: usize, c: usize) -> f64 {
        if c < self.n_cols {
            self.values[c * self.n_rows + r]
        } else {
            0.0
        }
    }

    /// Materialize row `r` into `buf` (cleared first).
    pub fn row_to(&self, r: usize, buf: &mut Vec<f64>) {
        buf.clear();
        for c in 0..self.n_cols {
            buf.push(self.values[c * self.n_rows + r]);
        }
    }
}

/// [`LearnError::NanFeature`] for the first NaN of `rows` in row-major
/// order.
pub(crate) fn check_no_nan<S: AsRef<[f64]>>(rows: &[S]) -> Result<(), LearnError> {
    for (row, values) in rows.iter().enumerate() {
        if let Some(column) = values.as_ref().iter().position(|v| v.is_nan()) {
            return Err(LearnError::NanFeature { row, column });
        }
    }
    Ok(())
}

fn validate_features(features: &[Vec<f64>]) -> Result<(), LearnError> {
    if features.is_empty() {
        return Err(LearnError::EmptyTrainingSet);
    }
    let width = features[0].len();
    for row in features {
        if row.len() != width {
            return Err(LearnError::RaggedFeatures {
                expected: width,
                found: row.len(),
            });
        }
    }
    Ok(())
}

/// Randomly split a dataset into train and test parts.
///
/// `test_fraction` is clamped to `[0, 1]`; the split is deterministic for a
/// given `seed`.
pub fn train_test_split(data: &Dataset, test_fraction: f64, seed: u64) -> (Dataset, Dataset) {
    let mut indices: Vec<usize> = (0..data.len()).collect();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    indices.shuffle(&mut rng);
    let test_len = ((data.len() as f64) * test_fraction.clamp(0.0, 1.0)).round() as usize;
    let (test_idx, train_idx) = indices.split_at(test_len.min(data.len()));

    let pick = |idx: &[usize]| Dataset {
        features: idx.iter().map(|&i| data.features[i].clone()).collect(),
        targets: if data.targets.is_empty() {
            Vec::new()
        } else {
            idx.iter().map(|&i| data.targets[i]).collect()
        },
        labels: if data.labels.is_empty() {
            Vec::new()
        } else {
            idx.iter().map(|&i| data.labels[i]).collect()
        },
        feature_names: data.feature_names.clone(),
    };
    (pick(train_idx), pick(test_idx))
}

/// Per-feature standardization (zero mean, unit variance), fit on the
/// training set and applied to both train and test features. Needed by the
/// MLP and ridge models; tree models are scale-invariant.
#[derive(Debug, Clone)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    /// Fit means and standard deviations on the given feature rows.
    pub fn fit(features: &[Vec<f64>]) -> Result<Self, LearnError> {
        validate_features(features)?;
        let width = features[0].len();
        let n = features.len() as f64;
        let mut means = vec![0.0; width];
        for row in features {
            for (m, v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; width];
        for row in features {
            for ((v, x), m) in vars.iter_mut().zip(row).zip(&means) {
                *v += (x - m) * (x - m);
            }
        }
        let stds = vars
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s < 1e-12 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        Ok(Standardizer { means, stds })
    }

    /// Transform one feature row.
    pub fn transform_one(&self, row: &[f64]) -> Vec<f64> {
        row.iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(x, (m, s))| (x - m) / s)
            .collect()
    }

    /// Transform a batch of rows.
    pub fn transform(&self, rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        rows.iter().map(|r| self.transform_one(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let features: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64, (i * 2) as f64]).collect();
        let targets: Vec<f64> = (0..100).map(|i| i as f64).collect();
        Dataset::regression(features, targets).unwrap()
    }

    #[test]
    fn shapes_are_validated() {
        assert!(Dataset::regression(vec![], vec![]).is_err());
        assert!(Dataset::regression(vec![vec![1.0]], vec![1.0, 2.0]).is_err());
        assert!(Dataset::regression(vec![vec![1.0], vec![1.0, 2.0]], vec![1.0, 2.0]).is_err());
        assert!(Dataset::classification(vec![vec![1.0]], vec![0]).is_ok());
    }

    #[test]
    fn split_preserves_rows_and_is_deterministic() {
        let d = toy();
        let (train, test) = train_test_split(&d, 0.2, 7);
        assert_eq!(train.len() + test.len(), 100);
        assert_eq!(test.len(), 20);
        let (train2, test2) = train_test_split(&d, 0.2, 7);
        assert_eq!(train.features, train2.features);
        assert_eq!(test.targets, test2.targets);
        // Different seeds give different splits.
        let (_, test3) = train_test_split(&d, 0.2, 8);
        assert_ne!(test.features, test3.features);
    }

    #[test]
    fn split_at_is_chronological() {
        let d = toy();
        let (a, b) = d.split_at(70);
        assert_eq!(a.len(), 70);
        assert_eq!(b.len(), 30);
        assert_eq!(a.features[0][0], 0.0);
        assert_eq!(b.features[0][0], 70.0);
        // Splitting beyond the end is clamped.
        let (c, e) = d.split_at(1000);
        assert_eq!(c.len(), 100);
        assert_eq!(e.len(), 0);
    }

    #[test]
    fn standardizer_centers_and_scales() {
        let d = toy();
        let st = Standardizer::fit(&d.features).unwrap();
        let t = st.transform(&d.features);
        let mean0: f64 = t.iter().map(|r| r[0]).sum::<f64>() / t.len() as f64;
        let var0: f64 = t.iter().map(|r| r[0] * r[0]).sum::<f64>() / t.len() as f64;
        assert!(mean0.abs() < 1e-9);
        assert!((var0 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn standardizer_handles_constant_columns() {
        let rows = vec![vec![5.0, 1.0], vec![5.0, 2.0], vec![5.0, 3.0]];
        let st = Standardizer::fit(&rows).unwrap();
        let t = st.transform_one(&[5.0, 2.0]);
        assert_eq!(t[0], 0.0); // constant column maps to zero, no NaN
        assert!(t[1].abs() < 1e-9);
    }

    #[test]
    fn column_matrix_round_trips_rows() {
        let rows = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let m = ColumnMatrix::from_rows(&rows).unwrap();
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.n_cols(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.col(1), &[2.0, 5.0]);
        assert_eq!(m.value(1, 0), 4.0);
        assert_eq!(m.value(0, 99), 0.0); // out-of-width reads as 0.0
        let mut buf = Vec::new();
        m.row_to(1, &mut buf);
        assert_eq!(buf, rows[1]);
        // Validation mirrors the row-major fit entry points.
        assert!(ColumnMatrix::from_rows::<Vec<f64>>(&[]).is_err());
        assert!(ColumnMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn width_and_len_helpers() {
        let d = toy();
        assert_eq!(d.len(), 100);
        assert_eq!(d.width(), 2);
        assert!(!d.is_empty());
    }
}
