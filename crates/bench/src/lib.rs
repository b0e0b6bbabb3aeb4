//! Shared experiment harness for the table/figure regeneration binaries
//! and the timing harnesses.
//!
//! The paper's verification protocol (§4, Fig. 3) is:
//!
//! 1. Train a linear SVM on HOG features of 64×128 windows (LibLinear in
//!    the paper; our dual coordinate descent here).
//! 2. Up-sample the test windows by a scale factor `s ∈ {1.1 .. 2.0}`.
//! 3. Configuration (a) — *conventional*: resize each up-sampled window
//!    back to 64×128, extract HOG, classify.
//! 4. Configuration (b) — *proposed*: extract HOG from the up-sampled
//!    window, down-sample the normalized features to the 8×16-cell model
//!    grid, classify.
//! 5. Compare accuracy / TP / TN (Table 1) and ROC / AUC / EER (Fig. 4).
//!
//! [`Experiment`] packages those steps; every binary in `src/bin` uses it
//! with the seeds fixed in [`ExperimentConfig::default`] so each table
//! regenerates deterministically.

/// The shared data-parallel primitives, re-exported under the name the
/// harness binaries historically used (the module now lives in
/// `rtped_core::par`).
pub use rtped_core::par as parallel;

use rtped_dataset::protocol::{InriaProtocol, PAPER_TEST_NEGATIVES, PAPER_TEST_POSITIVES};
use rtped_eval::confusion::{confusion_at_threshold, ConfusionMatrix};
use rtped_hog::feature_map::FeatureMap;
use rtped_hog::params::HogParams;
use rtped_image::resize::{resize, Filter};
use rtped_image::GrayImage;
use rtped_svm::dcd::{train_dcd, DcdParams};
use rtped_svm::model::Label;
use rtped_svm::LinearSvm;

/// Which of the two Fig. 3 configurations scales the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalingMethod {
    /// Fig. 3a: resize the image, re-extract HOG.
    Image,
    /// Fig. 3b: extract HOG once, down-sample the normalized features
    /// (what the paper's shift-and-add hardware does).
    HogFeature,
    /// Fig. 3b plus a block renormalization after the down-sampling — an
    /// extension ablated against the paper's method (not implementable
    /// with shift-and-add alone).
    HogFeatureRenormalized,
}

impl ScalingMethod {
    /// Table-column label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ScalingMethod::Image => "Image",
            ScalingMethod::HogFeature => "HOG",
            ScalingMethod::HogFeatureRenormalized => "HOG+renorm",
        }
    }
}

/// Sizing and seeding of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Positive training windows.
    pub train_positives: usize,
    /// Negative training windows.
    pub train_negatives: usize,
    /// Positive test windows (paper: 1126).
    pub test_positives: usize,
    /// Negative test windows (paper: 4530).
    pub test_negatives: usize,
    /// Master dataset seed.
    pub seed: u64,
    /// SVM cost parameter.
    pub svm_c: f64,
    /// Sensor-noise amplitude of the training windows. Higher values
    /// make the task harder and make fine texture matter — the regime
    /// where resampling losses show up (INRIA-like difficulty needs
    /// ~±20).
    pub noise: u8,
    /// Sensor-noise amplitude of the test windows. Real train/test
    /// splits come from different capture sessions; a mismatch models
    /// that domain shift and keeps accuracy off the 100% ceiling.
    pub test_noise: u8,
}

impl Default for ExperimentConfig {
    /// The paper-scale configuration (full §4 counts).
    fn default() -> Self {
        Self {
            train_positives: 2416,
            train_negatives: 12180,
            test_positives: PAPER_TEST_POSITIVES,
            test_negatives: PAPER_TEST_NEGATIVES,
            seed: 0x000D_AC17,
            svm_c: 0.01,
            noise: 20,
            test_noise: 20,
        }
    }
}

impl ExperimentConfig {
    /// A small configuration for tests and smoke runs (~100× faster).
    #[must_use]
    pub fn quick() -> Self {
        Self {
            train_positives: 150,
            train_negatives: 450,
            test_positives: 60,
            test_negatives: 240,
            ..Self::default()
        }
    }

    /// Reads `RTPED_QUICK=1` from the environment to let every harness
    /// binary run in smoke mode.
    #[must_use]
    pub fn from_env() -> Self {
        if rtped_core::env::raw("RTPED_QUICK").is_some_and(|v| v == "1") {
            Self::quick()
        } else {
            Self::default()
        }
    }
}

/// A prepared experiment: dataset + trained model.
#[derive(Debug, Clone)]
pub struct Experiment {
    dataset: InriaProtocol,
    model: LinearSvm,
    params: HogParams,
}

impl Experiment {
    /// Generates the dataset, extracts training features, and trains the
    /// SVM. Deterministic in `config.seed`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero counts).
    #[must_use]
    pub fn prepare(config: &ExperimentConfig) -> Self {
        let params = HogParams::pedestrian();
        let dataset = InriaProtocol::builder()
            .train_positives(config.train_positives)
            .train_negatives(config.train_negatives)
            .test_positives(config.test_positives)
            .test_negatives(config.test_negatives)
            .noise(config.noise)
            .test_noise(config.test_noise)
            .seed(config.seed)
            .build()
            .expect("experiment configuration must be valid");

        let train: Vec<(&GrayImage, bool)> = dataset.labelled_train().collect();
        let samples: Vec<(Vec<f32>, Label)> = parallel::map(&train, |(img, positive)| {
            let descriptor = window_features(img, &params);
            let label = if *positive {
                Label::Positive
            } else {
                Label::Negative
            };
            (descriptor, label)
        });

        let model = train_dcd(
            &samples,
            &DcdParams {
                c: config.svm_c,
                max_iterations: 120,
                tolerance: 1e-3,
                ..DcdParams::default()
            },
        );
        Self {
            dataset,
            model,
            params,
        }
    }

    /// The trained model.
    #[must_use]
    pub fn model(&self) -> &LinearSvm {
        &self.model
    }

    /// The dataset behind the experiment.
    #[must_use]
    pub fn dataset(&self) -> &InriaProtocol {
        &self.dataset
    }

    /// The HOG geometry in effect.
    #[must_use]
    pub fn params(&self) -> &HogParams {
        &self.params
    }

    /// Scores the base-scale test set: `(decision, is_positive)` pairs.
    #[must_use]
    pub fn score_base(&self) -> Vec<(f64, bool)> {
        let test: Vec<(&GrayImage, bool)> = self.dataset.labelled_test().collect();
        parallel::map(&test, |(img, positive)| {
            let d = window_features(img, &self.params);
            (self.model.decision(&d), *positive)
        })
    }

    /// Scores an up-sampled test set through one of the two Fig. 3 paths.
    ///
    /// # Panics
    ///
    /// Panics if `scale <= 0`.
    #[must_use]
    pub fn score_scaled(&self, scale: f64, method: ScalingMethod) -> Vec<(f64, bool)> {
        assert!(scale > 0.0, "scale must be positive");
        let pos = self.dataset.upsampled_test_positives(scale);
        let neg = self.dataset.upsampled_test_negatives(scale);
        let labelled: Vec<(GrayImage, bool)> = pos
            .into_iter()
            .map(|i| (i, true))
            .chain(neg.into_iter().map(|i| (i, false)))
            .collect();
        let refs: Vec<(&GrayImage, bool)> = labelled.iter().map(|(i, l)| (i, *l)).collect();
        parallel::map(&refs, |(img, positive)| {
            let d = self.scaled_window_features(img, method);
            (self.model.decision(&d), *positive)
        })
    }

    /// Extracts model-grid features from one up-sampled window via the
    /// chosen scaling method.
    #[must_use]
    pub fn scaled_window_features(&self, img: &GrayImage, method: ScalingMethod) -> Vec<f32> {
        let (ww, wh) = self.params.window_size();
        match method {
            ScalingMethod::Image => {
                let back = resize(img, ww, wh, Filter::Bilinear);
                window_features(&back, &self.params)
            }
            ScalingMethod::HogFeature | ScalingMethod::HogFeatureRenormalized => {
                // Centered extraction keeps the figure aligned with the
                // cell grid when the up-sampled window is not a multiple
                // of the cell size (see FeatureMap::extract_centered).
                let map = FeatureMap::extract_centered(img, &self.params);
                let (wc, hc) = self.params.window_cells();
                let mut scaled = map.scaled_to(wc, hc);
                if method == ScalingMethod::HogFeatureRenormalized {
                    scaled = scaled.renormalized(self.params.norm());
                }
                scaled.window_descriptor(0, 0, &self.params)
            }
        }
    }

    /// Confusion matrix at the zero threshold (the Table 1 numbers).
    #[must_use]
    pub fn confusion(scored: &[(f64, bool)]) -> ConfusionMatrix {
        confusion_at_threshold(scored, 0.0)
    }
}

/// Cell-major window features of a window-sized image.
///
/// # Panics
///
/// Panics if `img` does not match the window size.
#[must_use]
pub fn window_features(img: &GrayImage, params: &HogParams) -> Vec<f32> {
    assert_eq!(
        img.dimensions(),
        params.window_size(),
        "image must match the detection window"
    );
    let map = FeatureMap::extract(img, params);
    map.window_descriptor(0, 0, params)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_experiment() -> Experiment {
        Experiment::prepare(&ExperimentConfig {
            train_positives: 60,
            train_negatives: 180,
            test_positives: 30,
            test_negatives: 120,
            seed: 7,
            svm_c: 0.01,
            noise: 10,
            test_noise: 12,
        })
    }

    #[test]
    fn training_separates_the_synthetic_classes() {
        let exp = quick_experiment();
        let scored = exp.score_base();
        let cm = Experiment::confusion(&scored);
        assert!(
            cm.accuracy() > 0.9,
            "base accuracy too low: {}",
            cm.accuracy()
        );
    }

    #[test]
    fn experiment_is_deterministic() {
        let a = quick_experiment();
        let b = quick_experiment();
        assert_eq!(a.model(), b.model());
        assert_eq!(a.score_base(), b.score_base());
    }

    #[test]
    fn scaled_scoring_covers_both_methods() {
        let exp = quick_experiment();
        for method in [ScalingMethod::Image, ScalingMethod::HogFeature] {
            let scored = exp.score_scaled(1.2, method);
            assert_eq!(scored.len(), 30 + 120);
            let cm = Experiment::confusion(&scored);
            assert!(
                cm.accuracy() > 0.6,
                "{method:?} collapsed at 1.2: {}",
                cm.accuracy()
            );
        }
    }

    #[test]
    fn feature_paths_produce_model_sized_descriptors() {
        let exp = quick_experiment();
        let up = exp.dataset().upsampled_test_positives(1.3);
        for method in [ScalingMethod::Image, ScalingMethod::HogFeature] {
            let d = exp.scaled_window_features(&up[0], method);
            assert_eq!(d.len(), exp.params().cell_descriptor_len());
        }
    }

    #[test]
    fn method_labels() {
        assert_eq!(ScalingMethod::Image.label(), "Image");
        assert_eq!(ScalingMethod::HogFeature.label(), "HOG");
    }

    #[test]
    fn quick_config_is_smaller() {
        let q = ExperimentConfig::quick();
        let f = ExperimentConfig::default();
        assert!(q.train_positives < f.train_positives);
        assert_eq!(q.seed, f.seed);
    }
}
