//! HOG extraction parameters.

use rtped_core::Error;

use crate::block::NormKind;

/// Cell side in pixels: the paper's 8×8-pixel cells.
const CELL_SIZE: usize = 8;

/// Orientation bins per cell: 9 unsigned bins over `[0, π)`.
const BINS: usize = 9;

/// Block side in cells: every block is 2×2 cells with a 1-cell stride.
const BLOCK_CELLS: usize = 2;

/// Parameters of the HOG extractor and window geometry.
///
/// The extractor geometry is fixed to Dalal & Triggs and the paper's
/// hardware: 8×8-pixel cells, 2×2-cell blocks with 1-cell stride and 9
/// unsigned orientation bins. Two things are configurable: the block
/// normalization scheme (L2-Hys by default) and the detection window
/// (64×128 pixels, 8×16 cells, by default).
///
/// Construct with [`HogParams::pedestrian`] or the [`HogParamsBuilder`]:
///
/// ```
/// use rtped_hog::params::HogParams;
///
/// # fn main() -> Result<(), rtped_core::Error> {
/// let params = HogParams::builder().window(32, 64).build()?;
/// assert_eq!(params.window_cells(), (4, 8));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HogParams {
    norm: NormKind,
    window_width: usize,
    window_height: usize,
}

impl HogParams {
    /// The canonical pedestrian configuration (Dalal–Triggs / paper §3).
    #[must_use]
    pub fn pedestrian() -> Self {
        Self::builder()
            .build()
            .expect("canonical pedestrian parameters are valid")
    }

    /// Starts building a custom configuration.
    #[must_use]
    pub fn builder() -> HogParamsBuilder {
        HogParamsBuilder::new()
    }

    /// Cell side in pixels (cells are square): always 8.
    #[must_use]
    pub fn cell_size(&self) -> usize {
        CELL_SIZE
    }

    /// Number of orientation bins: always 9.
    #[must_use]
    pub fn bins(&self) -> usize {
        BINS
    }

    /// Block normalization scheme.
    #[must_use]
    pub fn norm(&self) -> NormKind {
        self.norm
    }

    /// Detection-window size in pixels `(width, height)`.
    #[must_use]
    pub fn window_size(&self) -> (usize, usize) {
        (self.window_width, self.window_height)
    }

    /// Detection-window size in cells `(width, height)` — `(8, 16)` for the
    /// canonical configuration.
    #[must_use]
    pub fn window_cells(&self) -> (usize, usize) {
        (
            self.window_width / CELL_SIZE,
            self.window_height / CELL_SIZE,
        )
    }

    /// Feature count of one cell in the cell-major layout (4 covering
    /// blocks × 9 bins): 36.
    #[must_use]
    pub fn cell_features(&self) -> usize {
        4 * BINS
    }

    /// Length of the cell-major window descriptor used by the hardware
    /// (8 × 16 cells × 36 = 4608 for the canonical configuration).
    #[must_use]
    pub fn cell_descriptor_len(&self) -> usize {
        let (wc, hc) = self.window_cells();
        wc * hc * self.cell_features()
    }

    /// Angular width of one orientation bin in radians: `π / 9`.
    #[must_use]
    pub fn bin_width(&self) -> f32 {
        std::f32::consts::PI / BINS as f32
    }
}

impl Default for HogParams {
    fn default() -> Self {
        Self::pedestrian()
    }
}

/// Builder for [`HogParams`].
#[derive(Debug, Clone)]
pub struct HogParamsBuilder {
    norm: NormKind,
    window_width: usize,
    window_height: usize,
}

impl HogParamsBuilder {
    fn new() -> Self {
        Self {
            norm: NormKind::default(),
            window_width: 64,
            window_height: 128,
        }
    }

    /// Sets the block normalization scheme.
    #[must_use]
    pub fn norm(mut self, norm: NormKind) -> Self {
        self.norm = norm;
        self
    }

    /// Sets the detection-window size in pixels.
    #[must_use]
    pub fn window(mut self, width: usize, height: usize) -> Self {
        self.window_width = width;
        self.window_height = height;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when the window is not a whole
    /// number of 8px cells or holds fewer cells than one 2×2 block.
    pub fn build(self) -> Result<HogParams, Error> {
        if !self.window_width.is_multiple_of(CELL_SIZE)
            || !self.window_height.is_multiple_of(CELL_SIZE)
        {
            return Err(Error::invalid_input(format!(
                "invalid HOG parameters: window {}x{} is not a whole number of {CELL_SIZE}px cells",
                self.window_width, self.window_height
            )));
        }
        let wc = self.window_width / CELL_SIZE;
        let hc = self.window_height / CELL_SIZE;
        if wc < BLOCK_CELLS || hc < BLOCK_CELLS {
            return Err(Error::invalid_input(format!(
                "invalid HOG parameters: window of {wc}x{hc} cells cannot hold a {BLOCK_CELLS}x{BLOCK_CELLS}-cell block"
            )));
        }
        Ok(HogParams {
            norm: self.norm,
            window_width: self.window_width,
            window_height: self.window_height,
        })
    }
}

impl Default for HogParamsBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pedestrian_geometry_matches_paper() {
        let p = HogParams::pedestrian();
        assert_eq!(p.cell_size(), 8);
        assert_eq!(p.bins(), 9);
        assert_eq!(p.window_size(), (64, 128));
        assert_eq!(p.window_cells(), (8, 16));
        assert_eq!(p.cell_features(), 36);
        // Hardware cell-major descriptor: 8x16 cells x 36 = 4608 ("16x8
        // blocks ... 36 elements" in paper §5).
        assert_eq!(p.cell_descriptor_len(), 4608);
    }

    #[test]
    fn bin_width_unsigned() {
        let p = HogParams::pedestrian();
        assert!((p.bin_width() - std::f32::consts::PI / 9.0).abs() < 1e-6);
    }

    #[test]
    fn builder_rejects_non_cell_aligned_window() {
        assert!(HogParams::builder().window(65, 128).build().is_err());
    }

    #[test]
    fn builder_rejects_zero_sizes() {
        assert!(HogParams::builder().window(0, 0).build().is_err());
        assert!(HogParams::builder().window(64, 0).build().is_err());
    }

    #[test]
    fn builder_rejects_window_smaller_than_block() {
        assert!(HogParams::builder().window(8, 8).build().is_err());
        assert!(HogParams::builder().window(16, 8).build().is_err());
    }

    #[test]
    fn custom_small_geometry() {
        let p = HogParams::builder().window(16, 16).build().unwrap();
        assert_eq!(p.window_cells(), (2, 2));
        assert_eq!(p.cell_descriptor_len(), 2 * 2 * 36);
    }

    #[test]
    fn default_equals_pedestrian() {
        assert_eq!(HogParams::default(), HogParams::pedestrian());
    }

    #[test]
    fn error_display_is_informative() {
        let err = HogParams::builder().window(65, 128).build().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("invalid HOG parameters"));
        assert!(msg.contains("65x128"));
    }
}
