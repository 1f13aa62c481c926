//! Evaluation metrics: MAE, MAPE, R², accuracy, precision/recall/F1 and
//! confusion matrices — the metrics reported in Tables III and V–VIII of the
//! paper.

/// Mean absolute error.
///
/// Returns 0.0 for empty inputs.
pub fn mae(truth: &[f64], pred: &[f64]) -> f64 {
    assert_eq!(truth.len(), pred.len(), "mae: length mismatch");
    if truth.is_empty() {
        return 0.0;
    }
    truth
        .iter()
        .zip(pred)
        .map(|(t, p)| (t - p).abs())
        .sum::<f64>()
        / truth.len() as f64
}

/// Mean absolute percentage error, in percent (as reported in the paper's
/// tables). Rows whose true value is zero are skipped to avoid division by
/// zero.
pub fn mape(truth: &[f64], pred: &[f64]) -> f64 {
    assert_eq!(truth.len(), pred.len(), "mape: length mismatch");
    let mut total = 0.0;
    let mut n = 0usize;
    for (t, p) in truth.iter().zip(pred) {
        if t.abs() > f64::EPSILON {
            total += ((t - p) / t).abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        100.0 * total / n as f64
    }
}

/// Coefficient of determination R².
///
/// Returns 0.0 when the true values have zero variance.
pub fn r2_score(truth: &[f64], pred: &[f64]) -> f64 {
    assert_eq!(truth.len(), pred.len(), "r2: length mismatch");
    if truth.is_empty() {
        return 0.0;
    }
    let mean = truth.iter().sum::<f64>() / truth.len() as f64;
    let ss_tot: f64 = truth.iter().map(|t| (t - mean) * (t - mean)).sum();
    let ss_res: f64 = truth.iter().zip(pred).map(|(t, p)| (t - p) * (t - p)).sum();
    if ss_tot <= f64::EPSILON {
        return 0.0;
    }
    1.0 - ss_res / ss_tot
}

/// A confusion matrix over `n_classes` labels.
///
/// `counts[t][p]` is the number of rows whose true class is `t` and whose
/// predicted class is `p` — the layout of Table III in the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    /// `counts[true_class][predicted_class]`.
    pub counts: Vec<Vec<usize>>,
}

impl ConfusionMatrix {
    /// Number of classes.
    pub(crate) fn n_classes(&self) -> usize {
        self.counts.len()
    }

    /// Total number of rows.
    pub fn total(&self) -> usize {
        self.counts.iter().map(|r| r.iter().sum::<usize>()).sum()
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        let correct: usize = (0..self.n_classes()).map(|i| self.counts[i][i]).sum();
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }

    /// True positives for a class.
    pub(crate) fn true_positives(&self, class: usize) -> usize {
        self.counts[class][class]
    }

    /// False positives for a class (predicted `class` but true label differs).
    pub(crate) fn false_positives(&self, class: usize) -> usize {
        (0..self.n_classes())
            .filter(|&t| t != class)
            .map(|t| self.counts[t][class])
            .sum()
    }

    /// False negatives for a class (true `class` but predicted differently).
    pub(crate) fn false_negatives(&self, class: usize) -> usize {
        (0..self.n_classes())
            .filter(|&p| p != class)
            .map(|p| self.counts[class][p])
            .sum()
    }
}

/// Build a confusion matrix from true and predicted labels.
pub fn confusion_matrix(truth: &[usize], pred: &[usize], n_classes: usize) -> ConfusionMatrix {
    assert_eq!(truth.len(), pred.len(), "confusion_matrix: length mismatch");
    let mut counts = vec![vec![0usize; n_classes]; n_classes];
    for (&t, &p) in truth.iter().zip(pred) {
        if t < n_classes && p < n_classes {
            counts[t][p] += 1;
        }
    }
    ConfusionMatrix { counts }
}

/// Precision for `class`: TP / (TP + FP). Returns 1.0 when nothing was
/// predicted as `class` (vacuous precision).
pub fn precision(cm: &ConfusionMatrix, class: usize) -> f64 {
    let tp = cm.true_positives(class) as f64;
    let fp = cm.false_positives(class) as f64;
    if tp + fp == 0.0 {
        1.0
    } else {
        tp / (tp + fp)
    }
}

/// Recall for `class`: TP / (TP + FN). Returns 1.0 when the class never
/// occurs in the truth.
pub fn recall(cm: &ConfusionMatrix, class: usize) -> f64 {
    let tp = cm.true_positives(class) as f64;
    let fneg = cm.false_negatives(class) as f64;
    if tp + fneg == 0.0 {
        1.0
    } else {
        tp / (tp + fneg)
    }
}

/// F1 score for `class`: harmonic mean of precision and recall.
pub fn f1_score(cm: &ConfusionMatrix, class: usize) -> f64 {
    let p = precision(cm, class);
    let r = recall(cm, class);
    if p + r == 0.0 {
        0.0
    } else {
        2.0 * p * r / (p + r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mae_and_rmse_basic() {
        let t = vec![1.0, 2.0, 3.0];
        let p = vec![1.0, 3.0, 5.0];
        assert!((mae(&t, &p) - 1.0).abs() < 1e-12);
        assert_eq!(mae(&[], &[]), 0.0);
    }

    #[test]
    fn mape_is_percentage_and_skips_zero_truth() {
        let t = vec![2.0, 4.0, 0.0];
        let p = vec![1.0, 5.0, 10.0];
        // |1/2| + |1/4| over 2 valid rows = 0.375 -> 37.5%
        assert!((mape(&t, &p) - 37.5).abs() < 1e-12);
        assert_eq!(mape(&[0.0], &[1.0]), 0.0);
    }

    #[test]
    fn r2_perfect_and_mean_predictions() {
        let t = vec![1.0, 2.0, 3.0, 4.0];
        assert!((r2_score(&t, &t) - 1.0).abs() < 1e-12);
        let mean_pred = vec![2.5; 4];
        assert!(r2_score(&t, &mean_pred).abs() < 1e-12);
        // Constant truth -> defined as 0.
        assert_eq!(r2_score(&[5.0, 5.0], &[5.0, 5.0]), 0.0);
    }

    #[test]
    fn confusion_matrix_matches_paper_layout() {
        // Table III: Hot/Hot = 291, Hot/Cool = 12, Cool/Hot = 12, Cool/Cool = 445.
        // Encode Hot = 0, Cool = 1. (rows = ideal/true, cols = predicted)
        let mut truth = Vec::new();
        let mut pred = Vec::new();
        for _ in 0..291 {
            truth.push(0);
            pred.push(0);
        }
        for _ in 0..12 {
            truth.push(0);
            pred.push(1);
        }
        for _ in 0..12 {
            truth.push(1);
            pred.push(0);
        }
        for _ in 0..445 {
            truth.push(1);
            pred.push(1);
        }
        let cm = confusion_matrix(&truth, &pred, 2);
        assert_eq!(cm.counts[0][0], 291);
        assert_eq!(cm.counts[0][1], 12);
        assert_eq!(cm.counts[1][0], 12);
        assert_eq!(cm.counts[1][1], 445);
        assert_eq!(cm.total(), 760);
        // The paper reports F1 > 0.96 for this matrix.
        assert!(f1_score(&cm, 0) > 0.96);
        assert!(f1_score(&cm, 1) > 0.96);
        assert!(cm.accuracy() > 0.96);
    }

    #[test]
    fn precision_recall_edge_cases() {
        // Class 1 never predicted and never true.
        let cm = confusion_matrix(&[0, 0], &[0, 0], 2);
        assert_eq!(precision(&cm, 1), 1.0);
        assert_eq!(recall(&cm, 1), 1.0);
        assert_eq!(f1_score(&cm, 1), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        mae(&[1.0], &[1.0, 2.0]);
    }
}
