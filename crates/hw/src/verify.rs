//! Golden-model verification: systematic comparison of the fixed-point
//! pipeline against the float reference.
//!
//! An HDL team signs off a datapath by running frames through both the
//! RTL and a golden software model and diffing the observables. This
//! module packages that flow for the `rtped` accelerator: feature-plane
//! error statistics, per-window score errors, and decision flips, so
//! regressions in the fixed-point stages are caught by one call.

use rtped_hog::feature_map::FeatureMap;
use rtped_hog::params::HogParams;
use rtped_image::GrayImage;
use rtped_svm::LinearSvm;

use crate::lockstep::score_pair;
use crate::pipeline::HogAccelerator;

/// Error statistics of one hardware-vs-float comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenReport {
    /// Mean absolute error of the normalized feature planes.
    pub feature_mae: f64,
    /// Maximum absolute error of the normalized feature planes.
    pub feature_max_err: f64,
    /// Mean absolute error of window decision values.
    pub score_mae: f64,
    /// Maximum absolute error of window decision values.
    pub score_max_err: f64,
    /// Windows whose decision sign differs between the pipelines.
    pub decision_flips: usize,
    /// Windows compared.
    pub windows: usize,
    /// Largest |float score| among the flipped windows (flips should only
    /// happen near the boundary).
    pub worst_flip_margin: f64,
}

impl GoldenReport {
    /// Whether the comparison is within the given tolerances — the
    /// "sign-off" predicate.
    #[must_use]
    pub fn passes(&self, feature_mae_tol: f64, score_mae_tol: f64, flip_margin_tol: f64) -> bool {
        self.feature_mae <= feature_mae_tol
            && self.score_mae <= score_mae_tol
            && self.worst_flip_margin <= flip_margin_tol
    }
}

/// Runs `frame` through both pipelines and diffs them: the accelerator
/// on its own quantized model and geometry, the float path under `model`
/// (the float model the accelerator was quantized from).
///
/// # Panics
///
/// Panics if the model is not the canonical 4608-dim window model or the
/// frame is smaller than one detection window.
#[must_use]
pub fn compare_pipelines(
    accelerator: &HogAccelerator,
    frame: &GrayImage,
    model: &LinearSvm,
) -> GoldenReport {
    let params = HogParams::pedestrian();

    // Feature planes.
    let hw_map = accelerator.extract_features(frame);
    let float_map = FeatureMap::extract(frame, &params);
    let hw_float = hw_map.to_float();
    assert_eq!(hw_float.cells(), float_map.cells(), "cell grids disagree");
    let mut feature_mae = 0.0f64;
    let mut feature_max: f64 = 0.0;
    for (&a, &b) in hw_float.as_raw().iter().zip(float_map.as_raw()) {
        let err = f64::from((a - b).abs());
        feature_mae += err;
        feature_max = feature_max.max(err);
    }
    feature_mae /= hw_float.as_raw().len() as f64;

    // Window scores through the accelerator's own MACBAR engine vs the
    // float path.
    let scores = accelerator.window_scores(&hw_map);
    let mut score_mae = 0.0f64;
    let mut score_max: f64 = 0.0;
    let mut flips = 0usize;
    let mut worst_flip: f64 = 0.0;
    for s in &scores {
        let (hw_score, float_score) = score_pair(s, &float_map, &params, model);
        let err = (hw_score - float_score).abs();
        score_mae += err;
        score_max = score_max.max(err);
        if (hw_score > 0.0) != (float_score > 0.0) {
            flips += 1;
            worst_flip = worst_flip.max(float_score.abs());
        }
    }
    let windows = scores.len().max(1);
    score_mae /= windows as f64;

    GoldenReport {
        feature_mae,
        feature_max_err: feature_max,
        score_mae,
        score_max_err: score_max,
        decision_flips: flips,
        windows: scores.len(),
        worst_flip_margin: worst_flip,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::AcceleratorConfig;

    fn textured(w: usize, h: usize) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| ((x * 37 + y * 11 + (x * y) % 13) % 256) as u8)
    }

    fn pseudo_model(amplitude: f64) -> LinearSvm {
        let weights: Vec<f64> = (0..4608)
            .map(|i| (((i * 2654435761usize) % 2001) as f64 / 1000.0 - 1.0) * amplitude)
            .collect();
        LinearSvm::new(weights, 0.05)
    }

    #[test]
    fn golden_comparison_passes_signoff_tolerances() {
        let model = pseudo_model(0.05);
        let acc = HogAccelerator::new(&model, AcceleratorConfig::default());
        let report = compare_pipelines(&acc, &textured(160, 256), &model);
        assert!(report.windows > 0);
        assert!(
            report.passes(0.01, 0.05, 0.1),
            "golden comparison failed: {report:?}"
        );
    }

    #[test]
    fn flips_only_happen_near_the_boundary() {
        let model = pseudo_model(0.05);
        let acc = HogAccelerator::new(&model, AcceleratorConfig::default());
        let report = compare_pipelines(&acc, &textured(192, 320), &model);
        // Any decision flip must be on a window whose float margin is
        // within the score error band.
        assert!(
            report.worst_flip_margin <= report.score_max_err + 1e-9,
            "a confidently-scored window flipped: {report:?}"
        );
    }

    #[test]
    fn report_statistics_are_internally_consistent() {
        let model = pseudo_model(0.03);
        let acc = HogAccelerator::new(&model, AcceleratorConfig::default());
        let report = compare_pipelines(&acc, &textured(128, 192), &model);
        assert!(report.feature_mae <= report.feature_max_err);
        assert!(report.score_mae <= report.score_max_err);
        assert!(report.decision_flips <= report.windows);
    }
}
