//! The linear SVM model and decision rule (paper §3.2).

/// Binary class label (`y ∈ {+1, -1}` in eq. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// The object class (pedestrian present).
    Positive,
    /// The background class.
    Negative,
}

impl Label {
    /// The signed value used in the hinge loss: `+1` or `-1`.
    #[must_use]
    pub fn sign(self) -> f64 {
        match self {
            Label::Positive => 1.0,
            Label::Negative => -1.0,
        }
    }

    /// Converts a decision value into a label using threshold 0 (eqs. 5–6).
    #[must_use]
    pub fn from_decision(value: f64) -> Self {
        if value > 0.0 {
            Label::Positive
        } else {
            Label::Negative
        }
    }
}

/// A trained linear SVM: `y(x) = w·x + b` (eq. 4).
///
/// The feature vector `x` is `f32` (matching the HOG pipeline) while the
/// weights and accumulation are `f64` for training fidelity; the hardware
/// model in `rtped-hw` quantizes both to fixed point.
///
/// # Example
///
/// ```
/// use rtped_svm::model::{Label, LinearSvm};
///
/// let model = LinearSvm::new(vec![1.0, -2.0], 0.5);
/// assert!(model.decision(&[2.0, 0.25]) > 0.0);
/// assert_eq!(model.classify(&[0.0, 1.0]), Label::Negative);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSvm {
    weights: Vec<f64>,
    bias: f64,
}

impl LinearSvm {
    /// Creates a model from a weight vector and bias.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    #[must_use]
    pub fn new(weights: Vec<f64>, bias: f64) -> Self {
        assert!(!weights.is_empty(), "weight vector must be non-empty");
        Self { weights, bias }
    }

    /// The weight vector `w`.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The bias `b`.
    #[must_use]
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Feature dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.weights.len()
    }

    /// Evaluates `w·x + b` (eq. 4).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    #[must_use]
    pub fn decision(&self, x: &[f32]) -> f64 {
        assert_eq!(x.len(), self.dim(), "feature dimensionality mismatch");
        let dot: f64 = self
            .weights
            .iter()
            .zip(x)
            .map(|(w, &v)| w * f64::from(v))
            .sum();
        dot + self.bias
    }

    /// Classifies by the sign of the decision value (eqs. 5–6).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    #[must_use]
    pub fn classify(&self, x: &[f32]) -> Label {
        Label::from_decision(self.decision(x))
    }

    /// The L2 norm of the weight vector (the margin term of eq. 3).
    #[must_use]
    pub fn weight_norm(&self) -> f64 {
        self.weights.iter().map(|w| w * w).sum::<f64>().sqrt()
    }

    /// Mean hinge loss plus the regularization term of eq. 3:
    /// `λ/2 ||w||² + (1/n) Σ max(0, 1 - yᵢ (w·xᵢ + b))`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or any sample has the wrong dimension.
    #[must_use]
    pub fn objective(&self, samples: &[(Vec<f32>, Label)], lambda: f64) -> f64 {
        assert!(!samples.is_empty(), "need at least one sample");
        let hinge: f64 = samples
            .iter()
            .map(|(x, y)| (1.0 - y.sign() * self.decision(x)).max(0.0))
            .sum();
        lambda / 2.0 * self.weight_norm().powi(2) + hinge / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_signs() {
        assert_eq!(Label::Positive.sign(), 1.0);
        assert_eq!(Label::Negative.sign(), -1.0);
    }

    #[test]
    fn label_from_decision_uses_zero_threshold() {
        assert_eq!(Label::from_decision(0.1), Label::Positive);
        assert_eq!(Label::from_decision(0.0), Label::Negative);
        assert_eq!(Label::from_decision(-0.1), Label::Negative);
    }

    #[test]
    fn decision_is_affine() {
        let m = LinearSvm::new(vec![2.0, -1.0], 3.0);
        assert!((m.decision(&[1.0, 1.0]) - 4.0).abs() < 1e-12);
        assert!((m.decision(&[0.0, 0.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "feature dimensionality mismatch")]
    fn decision_checks_dimension() {
        let m = LinearSvm::new(vec![1.0, 2.0], 0.0);
        let _ = m.decision(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "weight vector must be non-empty")]
    fn empty_weights_rejected() {
        let _ = LinearSvm::new(vec![], 0.0);
    }

    #[test]
    fn objective_penalizes_margin_violations() {
        let m = LinearSvm::new(vec![1.0], 0.0);
        // x=2, y=+1: margin 2, no loss. x=0.5, y=+1: loss 0.5.
        let clean = vec![(vec![2.0f32], Label::Positive)];
        let violating = vec![(vec![0.5f32], Label::Positive)];
        let lambda = 0.0;
        assert_eq!(m.objective(&clean, lambda), 0.0);
        assert!((m.objective(&violating, lambda) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn objective_includes_regularizer() {
        let m = LinearSvm::new(vec![3.0, 4.0], 0.0);
        let samples = vec![(vec![10.0f32, 10.0], Label::Positive)];
        // ||w|| = 5, λ/2 * 25 = 12.5 with λ = 1.
        assert!((m.objective(&samples, 1.0) - 12.5).abs() < 1e-9);
    }

    #[test]
    fn weight_norm_is_euclidean() {
        let m = LinearSvm::new(vec![3.0, 4.0], 1.0);
        assert!((m.weight_norm() - 5.0).abs() < 1e-12);
    }
}
