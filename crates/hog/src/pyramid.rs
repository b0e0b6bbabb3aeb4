//! Scale pyramids: the conventional image pyramid and the paper's HOG
//! feature pyramid (§4–§5).
//!
//! To find pedestrians larger than the 64×128 training window, the detector
//! must evaluate the scene at coarser scales. The conventional method
//! ([`ImagePyramid`], Fig. 3a) down-samples the *image* at every level and
//! re-runs the full HOG extraction — the most expensive stage of the chain.
//! The paper's method ([`FeaturePyramid`], Fig. 3b) extracts HOG **once**
//! at the native resolution and down-samples the *normalized feature map*
//! for every further level, skipping the repeated histogram generation
//! entirely. §4 shows the approximation costs at most ~2% accuracy for
//! scale factors below ≈1.5.

use rtped_core::par;
use rtped_image::resize::{scale_by, Filter};
use rtped_image::GrayImage;

use crate::feature_map::FeatureMap;
use crate::params::HogParams;

/// One level of a pyramid: the scale factor (relative to the native image)
/// and that level's feature map.
#[derive(Debug, Clone)]
pub struct PyramidLevel {
    /// Detected objects at this level are `scale` times larger than the
    /// training window in the native image.
    pub scale: f64,
    /// The feature map to slide the window over.
    pub features: FeatureMap,
}

/// Conventional multi-scale features: re-extract HOG from a resized image
/// at every level (paper Fig. 3a).
#[derive(Debug, Clone)]
pub struct ImagePyramid {
    levels: Vec<PyramidLevel>,
}

impl ImagePyramid {
    /// Builds the pyramid by resizing `img` by `1/scale` per level and
    /// extracting a fresh [`FeatureMap`] each time.
    ///
    /// Levels are built in parallel (each level's resize + extraction is
    /// independent; see `rtped_core::par`) and collected in input-scale
    /// order, so the result is identical to a serial build.
    ///
    /// Levels whose scaled image no longer fits one detection window are
    /// skipped.
    ///
    /// # Panics
    ///
    /// Panics if `scales` contains a non-positive value.
    #[must_use]
    pub fn build(img: &GrayImage, scales: &[f64], params: &HogParams) -> Self {
        let levels = par::map(scales, |&scale| {
            assert!(scale > 0.0, "scales must be positive");
            let scaled = if (scale - 1.0).abs() < 1e-9 {
                img.clone()
            } else {
                scale_by(img, 1.0 / scale, Filter::Bilinear)
            };
            if fits_window(&scaled, params) {
                Some(PyramidLevel {
                    scale,
                    features: FeatureMap::extract(&scaled, params),
                })
            } else {
                None
            }
        })
        .into_iter()
        .flatten()
        .collect();
        Self { levels }
    }

    /// The levels actually built (in the order of the input scales).
    #[must_use]
    pub fn levels(&self) -> &[PyramidLevel] {
        &self.levels
    }
}

/// The paper's multi-scale features: extract HOG once, then down-sample the
/// normalized feature map per level (paper Fig. 3b, Fig. 6).
#[derive(Debug, Clone)]
pub struct FeaturePyramid {
    levels: Vec<PyramidLevel>,
}

impl FeaturePyramid {
    /// Builds the pyramid from the base feature map of a single extraction
    /// (`FeatureMap::extract` of the native image).
    ///
    /// Mirroring the pipelined hardware (Fig. 6: each down-scaling module
    /// resizes "the HOG feature of prior scale"), every level is derived
    /// from the *base* map by one bilinear resample to the target grid.
    /// Levels too small to hold one detection window are skipped.
    ///
    /// Levels are built one after another, in input-scale order, on the
    /// calling thread; each resample fans its rows out across cores itself
    /// (`FeatureMap::scaled_rows_into`). Building levels concurrently on
    /// top of that nests thread pools, and it raised the temporal cache's
    /// peak RSS: its long-lived levels landed in worker threads' allocator
    /// arenas.
    ///
    /// # Panics
    ///
    /// Panics if `scales` contains a non-positive value.
    #[must_use]
    pub fn from_base(base: &FeatureMap, scales: &[f64], params: &HogParams) -> Self {
        let (wc, hc) = params.window_cells();
        let (bx, by) = base.cells();
        let levels = scales
            .iter()
            .filter_map(|&scale| {
                assert!(scale > 0.0, "scales must be positive");
                let nx = ((bx as f64 / scale).round() as usize).max(1);
                let ny = ((by as f64 / scale).round() as usize).max(1);
                if nx < wc || ny < hc {
                    return None;
                }
                let features = if (scale - 1.0).abs() < 1e-9 {
                    base.clone()
                } else {
                    base.scaled_to(nx, ny)
                };
                Some(PyramidLevel { scale, features })
            })
            .collect();
        Self { levels }
    }

    /// The levels actually built.
    #[must_use]
    pub fn levels(&self) -> &[PyramidLevel] {
        &self.levels
    }

    /// Takes the built levels by value (lets a cache keep them without a
    /// copy).
    #[must_use]
    pub fn into_levels(self) -> Vec<PyramidLevel> {
        self.levels
    }
}

fn fits_window(img: &GrayImage, params: &HogParams) -> bool {
    let (ww, wh) = params.window_size();
    img.width() >= ww && img.height() >= wh
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured(w: usize, h: usize) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| ((x * 11 + y * 23 + (x * y) % 29) % 256) as u8)
    }

    fn feature_pyramid(img: &GrayImage, scales: &[f64], p: &HogParams) -> FeaturePyramid {
        FeaturePyramid::from_base(&FeatureMap::extract(img, p), scales, p)
    }

    #[test]
    fn image_pyramid_levels_shrink() {
        let p = HogParams::pedestrian();
        let img = textured(256, 512);
        let pyr = ImagePyramid::build(&img, &[1.0, 2.0], &p);
        assert_eq!(pyr.levels().len(), 2);
        assert_eq!(pyr.levels()[0].features.cells(), (32, 64));
        assert_eq!(pyr.levels()[1].features.cells(), (16, 32));
    }

    #[test]
    fn feature_pyramid_levels_shrink() {
        let p = HogParams::pedestrian();
        let img = textured(256, 512);
        let pyr = feature_pyramid(&img, &[1.0, 2.0], &p);
        assert_eq!(pyr.levels().len(), 2);
        assert_eq!(pyr.levels()[0].features.cells(), (32, 64));
        assert_eq!(pyr.levels()[1].features.cells(), (16, 32));
    }

    #[test]
    fn too_small_levels_are_skipped() {
        let p = HogParams::pedestrian();
        // 128x256: scale 2 still fits (8x16 cells exactly); scale 4 does not.
        let img = textured(128, 256);
        let ip = ImagePyramid::build(&img, &[1.0, 2.0, 4.0], &p);
        assert_eq!(ip.levels().len(), 2);
        let fp = feature_pyramid(&img, &[1.0, 2.0, 4.0], &p);
        assert_eq!(fp.levels().len(), 2);
    }

    #[test]
    fn base_level_of_both_pyramids_is_identical() {
        let p = HogParams::pedestrian();
        let img = textured(128, 256);
        let ip = ImagePyramid::build(&img, &[1.0], &p);
        let fp = feature_pyramid(&img, &[1.0], &p);
        assert_eq!(ip.levels()[0].features, fp.levels()[0].features);
    }

    #[test]
    fn pyramids_approximate_each_other_at_moderate_scales() {
        // The paper's core claim: for s <= 1.5 the feature-pyramid level is
        // a usable approximation of the image-pyramid level. Compare mean
        // absolute difference against the mean feature magnitude.
        let p = HogParams::pedestrian();
        let img = textured(192, 384);
        let scale = 1.5;
        let ip = ImagePyramid::build(&img, &[scale], &p);
        let fp = feature_pyramid(&img, &[scale], &p);
        let a = ip.levels()[0].features.as_raw();
        let b = fp.levels()[0].features.as_raw();
        assert_eq!(
            ip.levels()[0].features.cells(),
            fp.levels()[0].features.cells()
        );
        let mad: f32 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f32>() / a.len() as f32;
        let mean: f32 = a.iter().map(|x| x.abs()).sum::<f32>() / a.len() as f32;
        assert!(
            mad < mean,
            "feature pyramid too far from image pyramid: mad={mad}, mean={mean}"
        );
    }

    #[test]
    fn level_scales_are_recorded() {
        let p = HogParams::pedestrian();
        let img = textured(256, 512);
        let scales = [1.0, 1.3, 1.69];
        let fp = feature_pyramid(&img, &scales, &p);
        for (level, &expected) in fp.levels().iter().zip(&scales) {
            assert!((level.scale - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn from_base_reuses_extraction() {
        let p = HogParams::pedestrian();
        let img = textured(128, 256);
        let base = FeatureMap::extract(&img, &p);
        let fp = FeaturePyramid::from_base(&base, &[1.0, 1.25], &p);
        assert_eq!(fp.levels()[0].features, base);
        assert_eq!(fp.levels()[1].features.cells(), (13, 26));
    }
}
