//! The INRIA-style evaluation protocol (paper §4).
//!
//! Fixed-size train/test splits of positive and negative 64×128 windows,
//! with up-sampled test variants at the paper's scale factors 1.1–2.0.
//! Everything is deterministic in the builder seed; train and test draws
//! use disjoint RNG streams so changing one count never perturbs the other
//! split.

use rtped_core::rng::SeedRng;
use rtped_core::Error;

use rtped_image::resize::{scale_by, Filter};
use rtped_image::GrayImage;

use crate::negatives::render_negatives;
use crate::pedestrian::render_pedestrian;

/// Default window width (the paper's detection window).
pub const WINDOW_WIDTH: usize = 64;
/// Default window height.
pub const WINDOW_HEIGHT: usize = 128;

/// Paper §4 test-set size: positive windows.
pub const PAPER_TEST_POSITIVES: usize = 1126;
/// Paper §4 test-set size: negative windows.
pub const PAPER_TEST_NEGATIVES: usize = 4530;
/// INRIA training-set size: positive windows (2416 in the original set).
pub const PAPER_TRAIN_POSITIVES: usize = 2416;
/// INRIA-style training negatives (sampled from negative images).
pub const PAPER_TRAIN_NEGATIVES: usize = 12180;

/// A complete train/test dataset of pedestrian and background windows.
///
/// # Example
///
/// ```
/// use rtped_dataset::InriaProtocol;
///
/// # fn main() -> Result<(), rtped_core::Error> {
/// let ds = InriaProtocol::builder()
///     .train_positives(4)
///     .train_negatives(8)
///     .test_positives(2)
///     .test_negatives(4)
///     .seed(42)
///     .build()?;
/// assert_eq!(ds.test_positives().len(), 2);
/// let upsampled = ds.upsampled_test_positives(1.5);
/// assert_eq!(upsampled[0].dimensions(), (96, 192));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct InriaProtocol {
    train_pos: Vec<GrayImage>,
    train_neg: Vec<GrayImage>,
    test_pos: Vec<GrayImage>,
    test_neg: Vec<GrayImage>,
    window: (usize, usize),
    seed: u64,
}

impl InriaProtocol {
    /// Starts building a dataset. Defaults use the paper's counts — call
    /// the count setters for smaller, faster sets in tests.
    #[must_use]
    pub fn builder() -> InriaProtocolBuilder {
        InriaProtocolBuilder::new()
    }

    /// Training pedestrian windows.
    #[must_use]
    pub fn train_positives(&self) -> &[GrayImage] {
        &self.train_pos
    }

    /// Training background windows.
    #[must_use]
    pub fn train_negatives(&self) -> &[GrayImage] {
        &self.train_neg
    }

    /// Test pedestrian windows (base scale).
    #[must_use]
    pub fn test_positives(&self) -> &[GrayImage] {
        &self.test_pos
    }

    /// Test background windows (base scale).
    #[must_use]
    pub fn test_negatives(&self) -> &[GrayImage] {
        &self.test_neg
    }

    /// Window size `(width, height)` of every sample.
    #[must_use]
    pub fn window(&self) -> (usize, usize) {
        self.window
    }

    /// The seed the dataset was built with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The §4 up-sampled positive test set: every test positive resized by
    /// `scale` (bicubic, like MATLAB's default `imresize`).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive and finite.
    #[must_use]
    pub fn upsampled_test_positives(&self, scale: f64) -> Vec<GrayImage> {
        self.test_pos
            .iter()
            .map(|img| scale_by(img, scale, Filter::Bicubic))
            .collect()
    }

    /// The §4 up-sampled negative test set.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive and finite.
    #[must_use]
    pub fn upsampled_test_negatives(&self, scale: f64) -> Vec<GrayImage> {
        self.test_neg
            .iter()
            .map(|img| scale_by(img, scale, Filter::Bicubic))
            .collect()
    }

    /// Iterates the labelled training set as `(image, is_positive)`.
    pub fn labelled_train(&self) -> impl Iterator<Item = (&GrayImage, bool)> {
        self.train_pos
            .iter()
            .map(|i| (i, true))
            .chain(self.train_neg.iter().map(|i| (i, false)))
    }

    /// Iterates the labelled base-scale test set as `(image, is_positive)`.
    pub fn labelled_test(&self) -> impl Iterator<Item = (&GrayImage, bool)> {
        self.test_pos
            .iter()
            .map(|i| (i, true))
            .chain(self.test_neg.iter().map(|i| (i, false)))
    }
}

/// Builder for [`InriaProtocol`].
#[derive(Debug, Clone)]
pub struct InriaProtocolBuilder {
    train_pos: usize,
    train_neg: usize,
    test_pos: usize,
    test_neg: usize,
    window: (usize, usize),
    noise: u8,
    test_noise: Option<u8>,
    seed: u64,
}

impl InriaProtocolBuilder {
    fn new() -> Self {
        Self {
            train_pos: PAPER_TRAIN_POSITIVES,
            train_neg: PAPER_TRAIN_NEGATIVES,
            test_pos: PAPER_TEST_POSITIVES,
            test_neg: PAPER_TEST_NEGATIVES,
            window: (WINDOW_WIDTH, WINDOW_HEIGHT),
            noise: 6,
            test_noise: None,
            seed: 0x000D_AC17,
        }
    }

    /// Number of positive training windows.
    #[must_use]
    pub fn train_positives(mut self, n: usize) -> Self {
        self.train_pos = n;
        self
    }

    /// Number of negative training windows.
    #[must_use]
    pub fn train_negatives(mut self, n: usize) -> Self {
        self.train_neg = n;
        self
    }

    /// Number of positive test windows.
    #[must_use]
    pub fn test_positives(mut self, n: usize) -> Self {
        self.test_pos = n;
        self
    }

    /// Number of negative test windows.
    #[must_use]
    pub fn test_negatives(mut self, n: usize) -> Self {
        self.test_neg = n;
        self
    }

    /// Window size in pixels (default 64×128).
    #[must_use]
    pub fn window(mut self, width: usize, height: usize) -> Self {
        self.window = (width, height);
        self
    }

    /// Sensor-noise amplitude added to every window (default ±6).
    #[must_use]
    pub fn noise(mut self, amplitude: u8) -> Self {
        self.noise = amplitude;
        self
    }

    /// Separate noise amplitude for the *test* split (defaults to the
    /// training amplitude). Real train/test splits come from different
    /// capture sessions; a small mismatch models that domain shift and
    /// keeps the synthetic task from saturating.
    #[must_use]
    pub fn test_noise(mut self, amplitude: u8) -> Self {
        self.test_noise = Some(amplitude);
        self
    }

    /// Master seed; every split derives its own sub-stream.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the dataset.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if any count is zero or the window
    /// is degenerate (smaller than 16×32 pixels).
    pub fn build(self) -> Result<InriaProtocol, Error> {
        if self.train_pos == 0 || self.train_neg == 0 || self.test_pos == 0 || self.test_neg == 0 {
            return Err(Error::invalid_input(
                "invalid dataset configuration: every split needs at least one sample",
            ));
        }
        let (w, h) = self.window;
        if w < 16 || h < 32 {
            return Err(Error::invalid_input(format!(
                "invalid dataset configuration: window {w}x{h} too small to render a figure (min 16x32)"
            )));
        }
        // Independent sub-streams per split.
        let mut rng_train_pos = SeedRng::seed_from_u64(self.seed.wrapping_add(0x01));
        let mut rng_train_neg = SeedRng::seed_from_u64(self.seed.wrapping_add(0x02));
        let mut rng_test_pos = SeedRng::seed_from_u64(self.seed.wrapping_add(0x03));
        let mut rng_test_neg = SeedRng::seed_from_u64(self.seed.wrapping_add(0x04));

        let test_noise = self.test_noise.unwrap_or(self.noise);
        let train_pos = (0..self.train_pos)
            .map(|_| render_pedestrian(&mut rng_train_pos, w, h, self.noise))
            .collect();
        let train_neg = render_negatives(&mut rng_train_neg, self.train_neg, w, h, self.noise);
        let test_pos = (0..self.test_pos)
            .map(|_| render_pedestrian(&mut rng_test_pos, w, h, test_noise))
            .collect();
        let test_neg = render_negatives(&mut rng_test_neg, self.test_neg, w, h, test_noise);

        Ok(InriaProtocol {
            train_pos,
            train_neg,
            test_pos,
            test_neg,
            window: self.window,
            seed: self.seed,
        })
    }
}

impl Default for InriaProtocolBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> InriaProtocol {
        InriaProtocol::builder()
            .train_positives(3)
            .train_negatives(5)
            .test_positives(2)
            .test_negatives(4)
            .seed(1)
            .build()
            .unwrap()
    }

    #[test]
    fn counts_match_configuration() {
        let ds = tiny();
        assert_eq!(ds.train_positives().len(), 3);
        assert_eq!(ds.train_negatives().len(), 5);
        assert_eq!(ds.test_positives().len(), 2);
        assert_eq!(ds.test_negatives().len(), 4);
    }

    #[test]
    fn windows_have_default_size() {
        let ds = tiny();
        assert_eq!(ds.window(), (64, 128));
        for (img, _) in ds.labelled_train() {
            assert_eq!(img.dimensions(), (64, 128));
        }
    }

    #[test]
    fn dataset_is_deterministic_in_seed() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.train_positives(), b.train_positives());
        assert_eq!(a.test_negatives(), b.test_negatives());
    }

    #[test]
    fn test_split_is_independent_of_train_count() {
        // Growing the training set must not change the test windows.
        let small = InriaProtocol::builder()
            .train_positives(2)
            .train_negatives(2)
            .test_positives(3)
            .test_negatives(3)
            .seed(9)
            .build()
            .unwrap();
        let big = InriaProtocol::builder()
            .train_positives(10)
            .train_negatives(10)
            .test_positives(3)
            .test_negatives(3)
            .seed(9)
            .build()
            .unwrap();
        assert_eq!(small.test_positives(), big.test_positives());
        assert_eq!(small.test_negatives(), big.test_negatives());
    }

    #[test]
    fn upsampled_positives_have_scaled_dimensions() {
        let ds = tiny();
        for (scale, (w, h)) in [(1.1, (70, 141)), (1.5, (96, 192)), (2.0, (128, 256))] {
            let up = ds.upsampled_test_positives(scale);
            assert_eq!(up[0].dimensions(), (w, h), "scale {scale}");
        }
    }

    #[test]
    fn labelled_iterators_cover_both_classes() {
        let ds = tiny();
        let train: Vec<bool> = ds.labelled_train().map(|(_, l)| l).collect();
        assert_eq!(train.iter().filter(|&&l| l).count(), 3);
        assert_eq!(train.iter().filter(|&&l| !l).count(), 5);
        let test: Vec<bool> = ds.labelled_test().map(|(_, l)| l).collect();
        assert_eq!(test.len(), 6);
    }

    #[test]
    fn rejects_zero_counts() {
        assert!(InriaProtocol::builder().train_positives(0).build().is_err());
    }

    #[test]
    fn rejects_tiny_window() {
        let err = InriaProtocol::builder()
            .window(8, 16)
            .train_positives(1)
            .train_negatives(1)
            .test_positives(1)
            .test_negatives(1)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("too small"));
    }

    #[test]
    fn default_counts_are_papers() {
        let b = InriaProtocol::builder();
        assert_eq!(b.test_pos, PAPER_TEST_POSITIVES);
        assert_eq!(b.test_neg, PAPER_TEST_NEGATIVES);
        assert_eq!(b.train_pos, PAPER_TRAIN_POSITIVES);
    }
}
