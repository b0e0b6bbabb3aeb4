//! Confusion matrices and derived classification rates.

/// Binary-classification confusion counts.
///
/// The paper's Table 1 reports accuracy plus the raw true-positive and
/// true-negative counts on 1126 positive / 4530 negative test windows;
/// this type carries exactly that information.
///
/// # Example
///
/// ```
/// use rtped_eval::ConfusionMatrix;
///
/// let mut cm = ConfusionMatrix::new();
/// cm.record(true, true);   // a detected pedestrian
/// cm.record(false, false); // a correctly rejected background
/// cm.record(true, false);  // a miss
/// assert_eq!(cm.true_positives(), 1);
/// assert!((cm.accuracy() - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfusionMatrix {
    tp: u64,
    tn: u64,
    fp: u64,
    fn_: u64,
}

impl ConfusionMatrix {
    /// An empty matrix.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one decision: `actual` is the ground truth, `predicted` the
    /// classifier output (`true` = positive class).
    pub fn record(&mut self, actual: bool, predicted: bool) {
        match (actual, predicted) {
            (true, true) => self.tp += 1,
            (true, false) => self.fn_ += 1,
            (false, true) => self.fp += 1,
            (false, false) => self.tn += 1,
        }
    }

    /// Correctly detected positives.
    #[must_use]
    pub fn true_positives(&self) -> u64 {
        self.tp
    }

    /// Correctly rejected negatives.
    #[must_use]
    pub fn true_negatives(&self) -> u64 {
        self.tn
    }

    /// Negatives wrongly reported as positive.
    #[must_use]
    pub fn false_positives(&self) -> u64 {
        self.fp
    }

    /// Positives the classifier missed.
    #[must_use]
    pub fn false_negatives(&self) -> u64 {
        self.fn_
    }

    /// Total number of recorded decisions.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.tp + self.tn + self.fp + self.fn_
    }

    /// `(TP + TN) / total`; 0 if empty.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.tp + self.tn) as f64 / total as f64
        }
    }

    /// `TP / (TP + FN)` — recall / detection rate; 0 if no positives.
    #[must_use]
    pub fn true_positive_rate(&self) -> f64 {
        let pos = self.tp + self.fn_;
        if pos == 0 {
            0.0
        } else {
            self.tp as f64 / pos as f64
        }
    }

    /// `TP / (TP + FP)` — precision; 0 if nothing was predicted positive.
    #[must_use]
    pub fn precision(&self) -> f64 {
        let pred = self.tp + self.fp;
        if pred == 0 {
            0.0
        } else {
            self.tp as f64 / pred as f64
        }
    }

    /// `FN / (TP + FN)` — miss rate, the Dalal evaluation's y-axis.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let pos = self.tp + self.fn_;
        if pos == 0 {
            0.0
        } else {
            self.fn_ as f64 / pos as f64
        }
    }

    /// Harmonic mean of precision and recall; 0 when undefined.
    #[must_use]
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.true_positive_rate();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Merges another matrix into this one.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.tp += other.tp;
        self.tn += other.tn;
        self.fp += other.fp;
        self.fn_ += other.fn_;
    }
}

/// Scores a batch of `(decision_value, is_positive)` pairs at `threshold`
/// (predict positive iff `decision > threshold`).
#[must_use]
pub fn confusion_at_threshold(scored: &[(f64, bool)], threshold: f64) -> ConfusionMatrix {
    let mut cm = ConfusionMatrix::new();
    for &(score, actual) in scored {
        cm.record(actual, score > threshold);
    }
    cm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ConfusionMatrix {
        // 1083 TP / 4462 TN is the paper's base-scale row of Table 1.
        ConfusionMatrix {
            tp: 1083,
            tn: 4462,
            fp: 68,
            fn_: 43,
        }
    }

    #[test]
    fn paper_base_row_accuracy() {
        let cm = sample();
        // (1083 + 4462) / 5656 = 0.98037...: the paper's 98.0375%.
        assert!((cm.accuracy() - 0.980375).abs() < 1e-4);
    }

    #[test]
    fn record_routes_to_the_right_cell() {
        let mut cm = ConfusionMatrix::new();
        cm.record(true, true);
        cm.record(true, false);
        cm.record(false, true);
        cm.record(false, false);
        assert_eq!(
            (
                cm.true_positives(),
                cm.false_negatives(),
                cm.false_positives(),
                cm.true_negatives()
            ),
            (1, 1, 1, 1)
        );
        assert_eq!(cm.total(), 4);
    }

    #[test]
    fn rates_are_consistent() {
        let cm = sample();
        assert!((cm.true_positive_rate() + cm.miss_rate() - 1.0).abs() < 1e-12);
        assert!(cm.precision() > 0.9);
        assert!(cm.f1() > 0.9);
    }

    #[test]
    fn empty_matrix_rates_are_zero() {
        let cm = ConfusionMatrix::new();
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.true_positive_rate(), 0.0);
        assert_eq!(cm.precision(), 0.0);
        assert_eq!(cm.f1(), 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let counts = |tp, tn, fp, fn_| ConfusionMatrix { tp, tn, fp, fn_ };
        let mut a = counts(1, 2, 3, 4);
        a.merge(&counts(10, 20, 30, 40));
        assert_eq!(a, counts(11, 22, 33, 44));
    }

    #[test]
    fn confusion_at_threshold_sweeps() {
        let scored = vec![(2.0, true), (0.5, true), (-0.5, false), (0.7, false)];
        let at_zero = confusion_at_threshold(&scored, 0.0);
        assert_eq!(at_zero.true_positives(), 2);
        assert_eq!(at_zero.false_positives(), 1);
        let at_one = confusion_at_threshold(&scored, 1.0);
        assert_eq!(at_one.true_positives(), 1);
        assert_eq!(at_one.false_positives(), 0);
        assert_eq!(at_one.false_negatives(), 1);
    }

    #[test]
    fn threshold_is_strict() {
        let scored = vec![(0.0, true)];
        let cm = confusion_at_threshold(&scored, 0.0);
        assert_eq!(cm.false_negatives(), 1, "score == threshold is negative");
    }
}
