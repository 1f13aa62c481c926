//! Column-major feature matrices, row checks and feature standardization.

use crate::error::LearnError;

/// A column-major (feature-major) view of a feature matrix: one contiguous
/// `f64` column per feature.
///
/// This is the layout the fast training paths operate on. The CART fits
/// rank and scan whole feature columns, so storing features
/// feature-major keeps those passes sequential in memory, and a single
/// `ColumnMatrix` can be shared by every model trained on the same rows
/// (forest, boosting, the predictors upstream) without re-cloning row
/// vectors. Inside the crate, rows are recovered on demand with `row_to`.
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
    /// the rank tables (and the reference builders' sorts) rely on.
    pub fn from_rows<S: AsRef<[f64]>>(rows: &[S]) -> Result<Self, LearnError> {
        check_rows(rows)?;
        let n_rows = rows.len();
        let n_cols = rows[0].as_ref().len();
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
    pub(crate) fn n_cols(&self) -> usize {
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
    pub(crate) fn row_to(&self, r: usize, buf: &mut Vec<f64>) {
        buf.clear();
        for c in 0..self.n_cols {
            buf.push(self.values[c * self.n_rows + r]);
        }
    }

    /// The matrix whose row `p` is row `rows[p]` of this one: a bootstrap
    /// sample gathered column by column, without per-row `Vec` clones.
    pub(crate) fn gather(&self, rows: &[u32]) -> ColumnMatrix {
        let mut values = Vec::with_capacity(self.n_cols * rows.len());
        for c in 0..self.n_cols {
            let col = self.col(c);
            values.extend(rows.iter().map(|&r| col[r as usize]));
        }
        ColumnMatrix {
            n_rows: rows.len(),
            n_cols: self.n_cols,
            values,
        }
    }

    /// [`LearnError::LengthMismatch`] unless there is one target per row.
    pub(crate) fn check_targets(&self, targets: usize) -> Result<(), LearnError> {
        if self.is_empty() {
            return Err(LearnError::EmptyTrainingSet);
        }
        if self.n_rows != targets {
            return Err(LearnError::LengthMismatch {
                features: self.n_rows,
                targets,
            });
        }
        Ok(())
    }
}

/// Check row-major features the way every fit does: non-empty, one width
/// (the first row's), and no NaN.
pub(crate) fn check_rows<S: AsRef<[f64]>>(rows: &[S]) -> Result<(), LearnError> {
    let Some(first) = rows.first() else {
        return Err(LearnError::EmptyTrainingSet);
    };
    let expected = first.as_ref().len();
    if let Some(row) = rows.iter().find(|r| r.as_ref().len() != expected) {
        return Err(LearnError::RaggedFeatures {
            expected,
            found: row.as_ref().len(),
        });
    }
    check_no_nan(rows)
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

/// Per-feature standardization (zero mean, unit variance), fit on the
/// training set and applied to both train and test features. Needed by
/// k-NN's distances and the MLP's inputs; tree models are scale-invariant.
#[derive(Debug, Clone)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    /// Fit means and standard deviations on the given feature rows, which
    /// must be non-empty, of one width and free of NaN.
    pub fn fit(features: &[Vec<f64>]) -> Result<Self, LearnError> {
        check_rows(features)?;
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
    use crate::knn::{KnnRegressor, KnnWeighting};
    use crate::mlp::MlpRegressor;

    fn toy() -> Vec<Vec<f64>> {
        (0..100).map(|i| vec![i as f64, (i * 2) as f64]).collect()
    }

    #[test]
    fn shapes_are_validated() {
        assert_eq!(
            Standardizer::fit(&[]).err(),
            Some(LearnError::EmptyTrainingSet)
        );
        assert_eq!(
            Standardizer::fit(&[vec![1.0], vec![1.0, 2.0]]).err(),
            Some(LearnError::RaggedFeatures {
                expected: 1,
                found: 2
            })
        );
        assert!(Standardizer::fit(&[vec![1.0]]).is_ok());
    }

    #[test]
    fn row_major_fits_refuse_nan_with_its_cell() {
        // k-NN once trained on NaN (its neighbour sort then panicked on
        // the comparator), and the MLP and the standardizer returned `Ok`
        // and predicted NaN. They now name the cell `from_rows` names.
        let mut rows = toy();
        rows[3][1] = f64::NAN;
        rows[7][0] = f64::NAN;
        let targets: Vec<f64> = (0..rows.len()).map(|i| i as f64).collect();
        let expected = Some(LearnError::NanFeature { row: 3, column: 1 });
        assert_eq!(ColumnMatrix::from_rows(&rows).err(), expected);
        assert_eq!(Standardizer::fit(&rows).err(), expected);
        assert_eq!(
            KnnRegressor::fit(&rows, &targets, 3, KnnWeighting::Uniform).err(),
            expected
        );
        assert_eq!(MlpRegressor::fit(&rows, &targets).err(), expected);
    }

    #[test]
    fn standardizer_centers_and_scales() {
        let d = toy();
        let st = Standardizer::fit(&d).unwrap();
        let t = st.transform(&d);
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
}
