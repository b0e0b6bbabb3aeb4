//! HOG extraction parameters.

use rtped_core::Error;

use crate::block::NormKind;

/// Parameters of the HOG extractor and window geometry.
///
/// Defaults follow Dalal & Triggs and the paper's hardware: 8×8-pixel
/// cells, 2×2-cell blocks with 1-cell stride, 9 unsigned orientation bins,
/// L2-Hys normalization, and a 64×128-pixel detection window (8×16 cells).
///
/// Construct with [`HogParams::pedestrian`] or the [`HogParamsBuilder`]:
///
/// ```
/// use rtped_hog::params::HogParams;
///
/// # fn main() -> Result<(), rtped_core::Error> {
/// let params = HogParams::builder().cell_size(4).window(32, 64).build()?;
/// assert_eq!(params.window_cells(), (8, 16));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HogParams {
    cell_size: usize,
    block_cells: usize,
    block_stride_cells: usize,
    bins: usize,
    signed: bool,
    norm: NormKind,
    spatial_interpolation: bool,
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

    /// Cell side in pixels (cells are square).
    #[must_use]
    pub fn cell_size(&self) -> usize {
        self.cell_size
    }

    /// Block side in cells (blocks are square; 2 means 2×2 cells).
    #[must_use]
    pub fn block_cells(&self) -> usize {
        self.block_cells
    }

    /// Block stride in cells (1 gives the standard overlapping blocks).
    #[must_use]
    pub fn block_stride_cells(&self) -> usize {
        self.block_stride_cells
    }

    /// Number of orientation bins.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// `true` for signed orientation `[0, 2π)`, `false` for the unsigned
    /// `[0, π)` range used for pedestrians.
    #[must_use]
    pub fn signed(&self) -> bool {
        self.signed
    }

    /// Block normalization scheme.
    #[must_use]
    pub fn norm(&self) -> NormKind {
        self.norm
    }

    /// Whether cell votes are bilinearly shared between neighbouring cells
    /// (Dalal's trilinear interpolation). The paper's streaming hardware
    /// votes into the owning cell only, so this defaults to `false`.
    #[must_use]
    pub fn spatial_interpolation(&self) -> bool {
        self.spatial_interpolation
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
            self.window_width / self.cell_size,
            self.window_height / self.cell_size,
        )
    }

    /// Feature count of one cell in the cell-major layout (4 covering
    /// blocks × bins): 36 for the canonical configuration.
    #[must_use]
    pub fn cell_features(&self) -> usize {
        4 * self.bins
    }

    /// Length of the cell-major window descriptor used by the hardware
    /// (8 × 16 cells × 36 = 4608 for the canonical configuration).
    #[must_use]
    pub fn cell_descriptor_len(&self) -> usize {
        let (wc, hc) = self.window_cells();
        wc * hc * self.cell_features()
    }

    /// Angular width of one orientation bin in radians.
    #[must_use]
    pub fn bin_width(&self) -> f32 {
        let range = if self.signed {
            2.0 * std::f32::consts::PI
        } else {
            std::f32::consts::PI
        };
        range / self.bins as f32
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
    cell_size: usize,
    block_cells: usize,
    block_stride_cells: usize,
    bins: usize,
    signed: bool,
    norm: NormKind,
    spatial_interpolation: bool,
    window_width: usize,
    window_height: usize,
}

impl HogParamsBuilder {
    fn new() -> Self {
        Self {
            cell_size: 8,
            block_cells: 2,
            block_stride_cells: 1,
            bins: 9,
            signed: false,
            norm: NormKind::default(),
            spatial_interpolation: false,
            window_width: 64,
            window_height: 128,
        }
    }

    /// Sets the cell side in pixels.
    #[must_use]
    pub fn cell_size(mut self, px: usize) -> Self {
        self.cell_size = px;
        self
    }

    /// Sets the block side in cells.
    #[must_use]
    pub fn block_cells(mut self, cells: usize) -> Self {
        self.block_cells = cells;
        self
    }

    /// Sets the block stride in cells.
    #[must_use]
    pub fn block_stride_cells(mut self, cells: usize) -> Self {
        self.block_stride_cells = cells;
        self
    }

    /// Sets the orientation bin count.
    #[must_use]
    pub fn bins(mut self, bins: usize) -> Self {
        self.bins = bins;
        self
    }

    /// Chooses signed (`[0, 2π)`) or unsigned (`[0, π)`) orientations.
    #[must_use]
    pub fn signed(mut self, signed: bool) -> Self {
        self.signed = signed;
        self
    }

    /// Sets the block normalization scheme.
    #[must_use]
    pub fn norm(mut self, norm: NormKind) -> Self {
        self.norm = norm;
        self
    }

    /// Enables bilinear sharing of votes between neighbouring cells.
    #[must_use]
    pub fn spatial_interpolation(mut self, enabled: bool) -> Self {
        self.spatial_interpolation = enabled;
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
    /// Returns [`Error::InvalidInput`] when any size is zero, the window
    /// is not a whole number of cells, the window holds fewer cells than one
    /// block, or the stride does not tile the window.
    pub fn build(self) -> Result<HogParams, Error> {
        if self.cell_size == 0 {
            return Err(Error::invalid_input(
                "invalid HOG parameters: cell size must be non-zero",
            ));
        }
        if self.bins == 0 {
            return Err(Error::invalid_input(
                "invalid HOG parameters: bin count must be non-zero",
            ));
        }
        if self.block_cells == 0 || self.block_stride_cells == 0 {
            return Err(Error::invalid_input(
                "invalid HOG parameters: block size and stride must be non-zero",
            ));
        }
        if !self.window_width.is_multiple_of(self.cell_size)
            || !self.window_height.is_multiple_of(self.cell_size)
        {
            return Err(Error::invalid_input(format!(
                "invalid HOG parameters: window {}x{} is not a whole number of {}px cells",
                self.window_width, self.window_height, self.cell_size
            )));
        }
        let wc = self.window_width / self.cell_size;
        let hc = self.window_height / self.cell_size;
        if wc < self.block_cells || hc < self.block_cells {
            return Err(Error::invalid_input(format!(
                "invalid HOG parameters: window of {wc}x{hc} cells cannot hold a {0}x{0}-cell block",
                self.block_cells
            )));
        }
        if !(wc - self.block_cells).is_multiple_of(self.block_stride_cells)
            || !(hc - self.block_cells).is_multiple_of(self.block_stride_cells)
        {
            return Err(Error::invalid_input(
                "invalid HOG parameters: block stride does not tile the window",
            ));
        }
        Ok(HogParams {
            cell_size: self.cell_size,
            block_cells: self.block_cells,
            block_stride_cells: self.block_stride_cells,
            bins: self.bins,
            signed: self.signed,
            norm: self.norm,
            spatial_interpolation: self.spatial_interpolation,
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
    fn bin_width_signed() {
        let p = HogParams::builder().signed(true).build().unwrap();
        assert!((p.bin_width() - 2.0 * std::f32::consts::PI / 9.0).abs() < 1e-6);
    }

    #[test]
    fn builder_rejects_non_cell_aligned_window() {
        assert!(HogParams::builder().window(65, 128).build().is_err());
    }

    #[test]
    fn builder_rejects_zero_sizes() {
        assert!(HogParams::builder().cell_size(0).build().is_err());
        assert!(HogParams::builder().bins(0).build().is_err());
        assert!(HogParams::builder().block_cells(0).build().is_err());
        assert!(HogParams::builder().block_stride_cells(0).build().is_err());
    }

    #[test]
    fn builder_rejects_window_smaller_than_block() {
        assert!(HogParams::builder()
            .window(8, 8)
            .block_cells(2)
            .build()
            .is_err());
    }

    #[test]
    fn builder_rejects_untiled_stride() {
        // 8x16 cells, 3x3 blocks, stride 2: (8-3) % 2 != 0.
        assert!(HogParams::builder()
            .block_cells(3)
            .block_stride_cells(2)
            .build()
            .is_err());
    }

    #[test]
    fn custom_small_geometry() {
        let p = HogParams::builder()
            .cell_size(4)
            .window(16, 16)
            .build()
            .unwrap();
        assert_eq!(p.window_cells(), (4, 4));
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
