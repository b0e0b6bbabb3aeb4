//! Dual-channel lockstep: the fixed-point pipeline cross-checked against
//! the float golden model, one row-strip at a time.
//!
//! Safety-critical FPGA deployments run a second, independently
//! implemented channel next to the primary datapath and compare outputs
//! at a coarse granularity; a divergence means one channel has been
//! corrupted (configuration upset, stuck logic, memory escape) and the
//! system must not trust either. This module is that comparator for the
//! `rtped` accelerator: the hardware channel's window scores are diffed
//! per row-strip against [`rtped_detect::detector::score_window`] over
//! the float [`FeatureMap`], and any strip whose worst error exceeds the
//! tolerance is flagged.
//!
//! The tolerance absorbs honest quantization error (Q0.15 features ×
//! Q4.12 weights keep scores within a few hundredths of the float path —
//! see `verify::compare_pipelines`), so a clean pipeline never trips the
//! checker while a corrupted `NHOGMem` bank or accumulator does: a single
//! flipped feature word shifts the affected window scores by whole units.
//!
//! Both channels see the *delivered* frame, so image-level corruption
//! (which hits both equally) does not diverge them — only datapath
//! corruption does. That separation is what makes the lockstep verdict a
//! hardware-integrity signal rather than an input-quality one.

use rtped_detect::detector::score_window;
use rtped_hog::feature_map::FeatureMap;
use rtped_hog::params::HogParams;
use rtped_svm::LinearSvm;

use crate::svm_engine::{QuantizedModel, WindowScore};

/// The per-window score tolerance the accelerator's lockstep channel
/// runs with: above the fixed-point quantization band
/// (`verify::compare_pipelines` signs off at 0.05 score MAE), below any
/// single-feature corruption.
pub const TOLERANCE: f64 = 0.25;

/// One window scored by both channels: the hardware score and the golden
/// float score at the same coordinates. This is the per-window comparison
/// under both the lockstep checker and `verify::compare_pipelines`.
#[must_use]
pub fn score_pair(
    s: &WindowScore,
    golden_map: &FeatureMap,
    params: &HogParams,
    model: &LinearSvm,
) -> (f64, f64) {
    let golden = score_window(golden_map, s.cx, s.cy, params, model);
    (QuantizedModel::score_to_f64(s.raw), golden)
}

/// One row-strip whose channels disagreed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StripDivergence {
    /// Top cell row of the strip.
    pub strip: usize,
    /// Worst |hw − golden| score error in the strip.
    pub max_error: f64,
    /// Windows compared in the strip.
    pub windows: usize,
}

/// The comparator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LockstepChecker {
    tolerance: f64,
}

impl LockstepChecker {
    /// Creates a checker with the given per-window score tolerance.
    ///
    /// # Panics
    ///
    /// Panics unless `tolerance` is finite and positive (a zero tolerance
    /// would flag honest quantization error on every strip).
    #[must_use]
    pub fn new(tolerance: f64) -> Self {
        assert!(
            tolerance.is_finite() && tolerance > 0.0,
            "tolerance must be positive"
        );
        Self { tolerance }
    }

    /// Compares the hardware channel's native-scale scores against the
    /// float golden channel, strip by strip.
    ///
    /// `hw` must be in the engine's raster order (all windows of strip 0,
    /// then strip 1, ...) — exactly what `SvmEngine` returns.
    #[must_use]
    pub fn check_scores(
        &self,
        hw: &[WindowScore],
        golden_map: &FeatureMap,
        params: &HogParams,
        model: &LinearSvm,
    ) -> LockstepReport {
        let mut report = LockstepReport {
            tolerance: self.tolerance,
            strips_checked: 0,
            windows_checked: 0,
            max_divergence: 0.0,
            divergences: Vec::new(),
        };
        for strip in hw.chunk_by(|a, b| a.cy == b.cy) {
            let strip_max = strip
                .iter()
                .map(|s| {
                    let (hw_score, golden) = score_pair(s, golden_map, params, model);
                    (hw_score - golden).abs()
                })
                .fold(0.0f64, f64::max);
            report.strips_checked += 1;
            report.windows_checked += strip.len();
            report.max_divergence = report.max_divergence.max(strip_max);
            if strip_max > self.tolerance {
                report.divergences.push(StripDivergence {
                    strip: strip[0].cy,
                    max_error: strip_max,
                    windows: strip.len(),
                });
            }
        }
        report
    }
}

/// Outcome of one lockstep comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct LockstepReport {
    /// Tolerance the comparison ran with.
    pub tolerance: f64,
    /// Row strips compared.
    pub strips_checked: usize,
    /// Windows compared across all strips.
    pub windows_checked: usize,
    /// Worst |hw − golden| error seen anywhere.
    pub max_divergence: f64,
    /// Strips beyond tolerance, in strip order.
    pub divergences: Vec<StripDivergence>,
}

impl LockstepReport {
    /// Whether both channels agreed everywhere.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// The worst diverging strip, if any.
    #[must_use]
    pub fn worst(&self) -> Option<&StripDivergence> {
        self.divergences
            .iter()
            .max_by(|a, b| a.max_error.total_cmp(&b.max_error))
    }

    /// Folds another comparison into this one. Sharded frames compare
    /// each band's scores separately; because bands are strip-aligned and
    /// merged in band order, the folded report is exactly what one
    /// whole-frame comparison would have produced.
    pub fn merge(&mut self, other: &LockstepReport) {
        self.strips_checked += other.strips_checked;
        self.windows_checked += other.windows_checked;
        self.max_divergence = self.max_divergence.max(other.max_divergence);
        self.divergences.extend(other.divergences.iter().copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{AcceleratorConfig, HogAccelerator};
    use rtped_image::GrayImage;

    fn textured(w: usize, h: usize) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| ((x * 31 + y * 17 + (x * y) % 23) % 256) as u8)
    }

    fn pseudo_model() -> LinearSvm {
        let weights: Vec<f64> = (0..4608)
            .map(|i| (((i * 2654435761usize) % 2001) as f64 / 1000.0 - 1.0) * 0.05)
            .collect();
        LinearSvm::new(weights, 0.1)
    }

    fn channels(frame: &GrayImage) -> (Vec<WindowScore>, FeatureMap, HogParams, LinearSvm) {
        let params = HogParams::pedestrian();
        let model = pseudo_model();
        let acc = HogAccelerator::new(&model, AcceleratorConfig::default());
        let scores = acc.window_scores(&acc.extract_features(frame));
        let golden = FeatureMap::extract(frame, &params);
        (scores, golden, params, model)
    }

    #[test]
    fn clean_channels_agree_within_tolerance() {
        let frame = textured(96, 160);
        let (scores, golden, params, model) = channels(&frame);
        let report = LockstepChecker::new(0.08).check_scores(&scores, &golden, &params, &model);
        assert!(report.is_clean(), "clean run diverged: {report:?}");
        assert!(report.strips_checked > 0);
        assert_eq!(report.windows_checked, scores.len());
        assert!(report.max_divergence < 0.08);
        assert!(report.worst().is_none());
    }

    #[test]
    fn corrupted_scores_are_flagged_on_their_strip() {
        let frame = textured(96, 160);
        let (mut scores, golden, params, model) = channels(&frame);
        // Corrupt one window of strip 2 by a whole unit — the magnitude a
        // flipped high feature bit or accumulator bit produces.
        let victim = scores.iter().position(|s| s.cy == 2).unwrap();
        scores[victim].raw += QuantizedModel::threshold_to_raw(2.0);
        let report = LockstepChecker::new(0.08).check_scores(&scores, &golden, &params, &model);
        assert!(!report.is_clean());
        assert_eq!(report.divergences.len(), 1);
        assert_eq!(report.divergences[0].strip, 2);
        assert!(report.divergences[0].max_error > 1.0);
        assert_eq!(report.worst().unwrap().strip, 2);
    }

    #[test]
    fn empty_score_list_is_trivially_clean() {
        let params = HogParams::pedestrian();
        let model = pseudo_model();
        let golden = FeatureMap::extract(&textured(96, 160), &params);
        let report = LockstepChecker::new(0.05).check_scores(&[], &golden, &params, &model);
        assert!(report.is_clean());
        assert_eq!(report.strips_checked, 0);
        assert_eq!(report.windows_checked, 0);
    }

    #[test]
    #[should_panic(expected = "tolerance must be positive")]
    fn zero_tolerance_rejected() {
        let _ = LockstepChecker::new(0.0);
    }
}
