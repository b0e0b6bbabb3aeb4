//! The histogram-generation stage: streaming accumulation of cell
//! histograms.
//!
//! "Histograms are generated for each row of cells in the image as the
//! input pixels are swept horizontally" (paper §5). The unit keeps one
//! row of cell accumulators; after the 8th pixel row of a cell row
//! completes, the finished histograms are handed to the normalizer and the
//! accumulators clear for the next cell row.

use rtped_image::GrayImage;

use crate::gradient_unit::{GradientUnit, BINS};

/// Cell side in pixels (8 in the design).
pub(crate) const CELL_SIZE: usize = 8;

/// A full image's integer cell histograms (cell-major, 9 bins per cell).
///
/// Values are in magnitude·Q0.8 units: one pixel of magnitude `m`
/// contributes a total of `m * 256` across its two bins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HwCellGrid {
    cells_x: usize,
    cells_y: usize,
    data: Vec<u32>,
}

impl HwCellGrid {
    /// Grid size `(cells_x, cells_y)`.
    #[must_use]
    pub fn cells(&self) -> (usize, usize) {
        (self.cells_x, self.cells_y)
    }

    /// Borrows the 9-bin histogram of cell `(cx, cy)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[must_use]
    pub fn histogram(&self, cx: usize, cy: usize) -> &[u32] {
        assert!(cx < self.cells_x && cy < self.cells_y, "cell out of bounds");
        let base = (cy * self.cells_x + cx) * BINS;
        &self.data[base..base + BINS]
    }
}

/// The streaming histogram unit.
#[derive(Debug, Clone, Copy, Default)]
pub struct HistogramUnit;

impl HistogramUnit {
    /// Creates a unit with the canonical 8-pixel cells.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Processes a whole frame: streams gradient votes in raster order and
    /// accumulates them into their owning cells (the hardware votes only
    /// into the owning cell — no spatial interpolation, §5 / \[10\]).
    ///
    /// Pixels right/below the last complete cell are dropped, as in the
    /// streaming design.
    ///
    /// # Panics
    ///
    /// Panics if the image holds less than one cell.
    #[must_use]
    pub fn process_frame(&self, img: &GrayImage) -> HwCellGrid {
        let cells_x = img.width() / CELL_SIZE;
        let cells_y = img.height() / CELL_SIZE;
        assert!(cells_x > 0 && cells_y > 0, "image smaller than one cell");
        let gradient = GradientUnit::new();
        let mut data = vec![0u32; cells_x * cells_y * BINS];
        for y in 0..cells_y * CELL_SIZE {
            let cy = y / CELL_SIZE;
            for x in 0..cells_x * CELL_SIZE {
                let cx = x / CELL_SIZE;
                let vote = gradient.vote_at(img, x, y);
                if vote.magnitude == 0 {
                    continue;
                }
                let (lo, hi) = vote.contributions();
                let base = (cy * cells_x + cx) * BINS;
                data[base + usize::from(vote.bin_lo)] += lo;
                data[base + usize::from(vote.bin_hi)] += hi;
            }
        }
        HwCellGrid {
            cells_x,
            cells_y,
            data,
        }
    }
}

#[cfg(test)]
impl HwCellGrid {
    /// Converts to the float reference representation (dividing out the
    /// Q0.8 weight scale) for golden-model comparisons.
    #[must_use]
    pub fn to_float_grid(&self) -> rtped_hog::grid::CellGrid {
        let data: Vec<f32> = self.data.iter().map(|&v| v as f32 / 256.0).collect();
        rtped_hog::grid::CellGrid::from_raw(self.cells_x, self.cells_y, BINS, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtped_hog::params::HogParams;

    fn textured(w: usize, h: usize) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| ((x * 37 + y * 11 + x * y % 7) % 256) as u8)
    }

    #[test]
    fn grid_dimensions_floor() {
        let unit = HistogramUnit::new();
        let grid = unit.process_frame(&textured(70, 130));
        assert_eq!(grid.cells(), (8, 16));
    }

    #[test]
    fn flat_image_gives_empty_histograms() {
        let mut img = GrayImage::new(32, 32);
        img.fill(128);
        let grid = HistogramUnit::new().process_frame(&img);
        for cy in 0..4 {
            for cx in 0..4 {
                assert!(grid.histogram(cx, cy).iter().all(|&v| v == 0));
            }
        }
    }

    #[test]
    fn energy_conservation_against_votes() {
        // Total histogram mass equals sum of magnitudes * 256 over the
        // covered pixels.
        let img = textured(32, 32);
        let unit = HistogramUnit::new();
        let grid = unit.process_frame(&img);
        let gradient = GradientUnit::new();
        let expected: u64 = (0..32)
            .flat_map(|y| (0..32).map(move |x| (x, y)))
            .map(|(x, y)| u64::from(gradient.vote_at(&img, x, y).magnitude) * 256)
            .sum();
        let total: u64 = (0..4)
            .flat_map(|cy| (0..4).map(move |cx| (cx, cy)))
            .map(|(cx, cy)| {
                grid.histogram(cx, cy)
                    .iter()
                    .map(|&v| u64::from(v))
                    .sum::<u64>()
            })
            .sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn close_to_float_reference() {
        // The integer pipeline must track the float CellGrid within
        // quantization error (magnitude floor + 8-bit weights).
        let img = textured(64, 128);
        let hw = HistogramUnit::new().process_frame(&img).to_float_grid();
        let params = HogParams::pedestrian();
        let float = rtped_hog::grid::CellGrid::compute(&img, &params);
        assert_eq!(hw.cells(), float.cells());
        let hw_raw = hw.as_raw();
        let float_raw = float.as_raw();
        let mut err_energy = 0.0f64;
        let mut total_energy = 0.0f64;
        for (&a, &b) in hw_raw.iter().zip(float_raw) {
            err_energy += f64::from((a - b).abs());
            total_energy += f64::from(b);
        }
        assert!(
            err_energy / total_energy < 0.02,
            "relative L1 error {}",
            err_energy / total_energy
        );
    }

    #[test]
    #[should_panic(expected = "image smaller than one cell")]
    fn tiny_image_rejected() {
        let img = GrayImage::new(4, 4);
        let _ = HistogramUnit::new().process_frame(&img);
    }
}
