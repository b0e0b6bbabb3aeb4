//! The cell-histogram plane of a whole image.
//!
//! Each pixel votes into its owning 8×8 cell only, as in the paper's
//! streaming hardware (no spatial interpolation between cells). Voting is
//! therefore row-local: a cell row reads its own pixel rows plus the
//! one-row halo of the centered difference, and nothing else. One
//! row-ranged routine fills the grid, whether for a whole frame
//! ([`CellGrid::compute`]) or for the rows a video frame changed
//! ([`CellGrid::recompute_rows`]).

use std::ops::Range;
use std::sync::OnceLock;

use rtped_image::GrayImage;

use crate::cell;
use crate::gradient::{grad_lut, GradLut, GradientField, GRAD_LUT_SPAN};
use crate::params::HogParams;

/// Precomputed bilinear bin-vote split for the unsigned 9-bin geometry,
/// indexed like [`GradLut`] by the integer difference pair.
///
/// For each `(fx, fy)` it stores the two target bins and the per-bin weight
/// factors of a unit vote, derived from the LUT angle through the identical
/// [`cell::split_vote`] arithmetic — so `mag * one_minus_frac[e]` and
/// `mag * frac[e]` reproduce `split_vote(angle, mag, ..)` bit-for-bit.
struct VoteLut {
    lo: Vec<u8>,
    hi: Vec<u8>,
    one_minus_frac: Vec<f32>,
    frac: Vec<f32>,
}

impl VoteLut {
    fn build(bin_width: f32) -> VoteLut {
        let ang = &grad_lut().ang;
        let n = GRAD_LUT_SPAN * GRAD_LUT_SPAN;
        let mut lut = VoteLut {
            lo: vec![0u8; n],
            hi: vec![0u8; n],
            one_minus_frac: vec![0.0f32; n],
            frac: vec![0.0f32; n],
        };
        for (e, &angle) in ang.iter().enumerate().take(n) {
            // A unit-magnitude split: `1.0 * x == x` exactly in IEEE 754,
            // so the returned weights are the bare vote factors.
            let ((a, wa), (b, wb)) = cell::split_vote(angle, 1.0, 9, bin_width);
            lut.lo[e] = a as u8;
            lut.hi[e] = b as u8;
            lut.one_minus_frac[e] = wa;
            lut.frac[e] = wb;
        }
        lut
    }
}

/// The process-wide vote table.
fn vote_lut(bin_width: f32) -> &'static VoteLut {
    static LUT: OnceLock<VoteLut> = OnceLock::new();
    LUT.get_or_init(|| VoteLut::build(bin_width))
}

/// Un-normalized orientation histograms for every cell of an image.
///
/// The grid covers `floor(width / cell) x floor(height / cell)` cells;
/// right/bottom pixels that do not fill a whole cell are ignored, matching
/// the streaming hardware which only emits complete cells.
///
/// # Example
///
/// ```
/// use rtped_hog::{grid::CellGrid, params::HogParams};
/// use rtped_image::GrayImage;
///
/// let img = GrayImage::from_fn(64, 128, |x, y| ((x ^ y) as u8).wrapping_mul(3));
/// let grid = CellGrid::compute(&img, &HogParams::pedestrian());
/// assert_eq!(grid.cells(), (8, 16));
/// assert_eq!(grid.histogram(0, 0).len(), 9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CellGrid {
    cells_x: usize,
    cells_y: usize,
    bins: usize,
    data: Vec<f32>,
}

impl CellGrid {
    /// Computes cell histograms for `img` under `params`.
    ///
    /// The gradient and voting stages are fused: differences are looked up
    /// in the gradient table and votes are accumulated straight into the
    /// owning cell, skipping the intermediate magnitude/orientation planes
    /// entirely. The result is bit-identical to
    /// `from_gradients(&GradientField::compute(img), ..)` because the
    /// per-cell pixel visiting order and every float expression are
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the image is smaller than one cell.
    #[must_use]
    pub fn compute(img: &GrayImage, params: &HogParams) -> Self {
        let cs = params.cell_size();
        let cells_x = img.width() / cs;
        let cells_y = img.height() / cs;
        assert!(
            cells_x > 0 && cells_y > 0,
            "image smaller than one {cs}px cell"
        );
        let bins = params.bins();
        let mut grid = Self {
            cells_x,
            cells_y,
            bins,
            data: vec![0.0f32; cells_x * cells_y * bins],
        };
        grid.vote_rows(img, params, 0..cells_y);
        grid
    }

    /// Recomputes the histograms of cell rows `rows` in place from `img`,
    /// leaving all other rows untouched.
    ///
    /// Voting is row-local (each pixel votes only into its owning cell),
    /// so recomputing a row range from the new frame yields exactly the
    /// histograms a full [`CellGrid::compute`] would produce — the
    /// temporal pyramid cache relies on this.
    ///
    /// # Panics
    ///
    /// Panics if the image's grid size does not match this grid or `rows`
    /// is out of bounds.
    pub fn recompute_rows(&mut self, img: &GrayImage, params: &HogParams, rows: Range<usize>) {
        let cs = params.cell_size();
        assert_eq!(
            (img.width() / cs, img.height() / cs),
            (self.cells_x, self.cells_y),
            "image does not match grid dimensions"
        );
        assert!(rows.end <= self.cells_y, "cell rows out of bounds");
        let span = rows.start * self.cells_x * self.bins..rows.end * self.cells_x * self.bins;
        self.data[span].fill(0.0);
        self.vote_rows(img, params, rows);
    }

    /// Fused gradient + vote over the given cell rows. Accumulation order
    /// matches `from_gradients` exactly: per cell `(cy, cx)`, pixels are
    /// visited row-major within the cell and zero-gradient pixels are
    /// skipped (`mag == 0.0` iff `fx == fy == 0`).
    fn vote_rows(&mut self, img: &GrayImage, params: &HogParams, rows: Range<usize>) {
        let cs = params.cell_size();
        let bins = self.bins;
        let lut = grad_lut();
        let vlut = vote_lut(params.bin_width());
        let raw = img.as_raw();
        let (w, h) = img.dimensions();
        for cy in rows {
            for cx in 0..self.cells_x {
                let base = (cy * self.cells_x + cx) * bins;
                for py in cy * cs..(cy + 1) * cs {
                    let row = &raw[py * w..(py + 1) * w];
                    let up = &raw[py.saturating_sub(1) * w..][..w];
                    let dn = &raw[(h - 1).min(py + 1) * w..][..w];
                    for px in cx * cs..(cx + 1) * cs {
                        let xl = px.saturating_sub(1);
                        let xr = (px + 1).min(w - 1);
                        let fx = i32::from(row[xr]) - i32::from(row[xl]);
                        let fy = i32::from(dn[px]) - i32::from(up[px]);
                        if fx == 0 && fy == 0 {
                            continue;
                        }
                        let e = GradLut::index(fx, fy);
                        let mag = lut.mag[e];
                        let hist = &mut self.data[base..base + bins];
                        hist[usize::from(vlut.lo[e])] += mag * vlut.one_minus_frac[e];
                        hist[usize::from(vlut.hi[e])] += mag * vlut.frac[e];
                    }
                }
            }
        }
    }

    /// Computes cell histograms from a precomputed gradient field: the
    /// two-stage, hardware-style reference (each pixel votes only into its
    /// owning cell through [`cell::vote`]) that the fused
    /// [`CellGrid::compute`] is tested against.
    ///
    /// # Panics
    ///
    /// Panics if the field is smaller than one cell.
    #[must_use]
    pub fn from_gradients(field: &GradientField, params: &HogParams) -> Self {
        let cs = params.cell_size();
        let cells_x = field.width() / cs;
        let cells_y = field.height() / cs;
        assert!(
            cells_x > 0 && cells_y > 0,
            "image smaller than one {cs}px cell"
        );
        let bins = params.bins();
        let bin_width = params.bin_width();
        let mut data = vec![0.0f32; cells_x * cells_y * bins];

        for cy in 0..cells_y {
            for cx in 0..cells_x {
                let base = (cy * cells_x + cx) * bins;
                for py in cy * cs..(cy + 1) * cs {
                    for px in cx * cs..(cx + 1) * cs {
                        let mag = field.magnitude(px, py);
                        if mag == 0.0 {
                            continue;
                        }
                        cell::vote(
                            &mut data[base..base + bins],
                            field.orientation(px, py),
                            mag,
                            bin_width,
                        );
                    }
                }
            }
        }

        Self {
            cells_x,
            cells_y,
            bins,
            data,
        }
    }

    /// Grid size `(cells_x, cells_y)`.
    #[must_use]
    pub fn cells(&self) -> (usize, usize) {
        (self.cells_x, self.cells_y)
    }

    /// Orientation bin count.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Borrows the histogram of cell `(cx, cy)`.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of bounds.
    #[must_use]
    pub fn histogram(&self, cx: usize, cy: usize) -> &[f32] {
        assert!(cx < self.cells_x && cy < self.cells_y, "cell out of bounds");
        let base = (cy * self.cells_x + cx) * self.bins;
        &self.data[base..base + self.bins]
    }

    /// Total gradient energy (sum of all histogram entries).
    #[must_use]
    pub fn total_energy(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Builds a grid directly from histogram data (for tests and the
    /// hardware model's golden comparisons).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != cells_x * cells_y * bins` or any dimension
    /// is zero.
    #[must_use]
    pub fn from_raw(cells_x: usize, cells_y: usize, bins: usize, data: Vec<f32>) -> Self {
        assert!(cells_x > 0 && cells_y > 0 && bins > 0, "empty grid");
        assert_eq!(data.len(), cells_x * cells_y * bins, "data length mismatch");
        Self {
            cells_x,
            cells_y,
            bins,
            data,
        }
    }

    /// Borrows the raw histogram buffer (cell-major, `bins` per cell).
    #[must_use]
    pub fn as_raw(&self) -> &[f32] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> HogParams {
        HogParams::pedestrian()
    }

    #[test]
    fn grid_dimensions_floor_partial_cells() {
        let img = GrayImage::new(70, 130);
        let grid = CellGrid::compute(&img, &params());
        assert_eq!(grid.cells(), (8, 16));
    }

    #[test]
    fn flat_image_yields_zero_histograms() {
        let mut img = GrayImage::new(64, 64);
        img.fill(50);
        let grid = CellGrid::compute(&img, &params());
        assert_eq!(grid.total_energy(), 0.0);
    }

    #[test]
    fn vertical_edge_energy_lands_in_horizontal_bin() {
        // Vertical step edge at x=32: horizontal gradient, θ=0, which votes
        // (half-and-half) into bins 8 and 0.
        let img = GrayImage::from_fn(64, 64, |x, _| if x < 32 { 0 } else { 200 });
        let grid = CellGrid::compute(&img, &params());
        // The edge crosses cells with cx = 3 and 4.
        let hist = grid.histogram(4, 3);
        let edge_energy = hist[0] + hist[8];
        let other: f32 = hist[1..8].iter().sum();
        assert!(edge_energy > 0.0);
        assert!(other.abs() < 1e-3, "energy leaked into other bins: {other}");
    }

    #[test]
    fn energy_is_conserved_across_cells() {
        // Each pixel votes into one cell, so the sum over all cell
        // histograms equals the sum of magnitudes over all covered pixels.
        let img = GrayImage::from_fn(32, 32, |x, y| ((x * 7 + y * 13) % 256) as u8);
        let p = HogParams::builder().window(32, 32).build().unwrap();
        let field = GradientField::compute(&img);
        let grid = CellGrid::from_gradients(&field, &p);
        let total_mag: f32 = (0..32)
            .flat_map(|y| (0..32).map(move |x| (x, y)))
            .map(|(x, y)| field.magnitude(x, y))
            .sum();
        assert!((grid.total_energy() - total_mag).abs() / total_mag < 1e-4);
    }

    #[test]
    fn histograms_are_nonnegative() {
        let img = GrayImage::from_fn(64, 128, |x, y| ((x * x + y * 3) % 256) as u8);
        let grid = CellGrid::compute(&img, &params());
        assert!(grid.as_raw().iter().all(|&v| v >= -1e-6));
    }

    #[test]
    fn fused_compute_is_bit_identical_to_gradient_path() {
        let img = GrayImage::from_fn(72, 56, |x, y| ((x * 5 + y * 11 + (x * y) % 7) % 256) as u8);
        // The fused vote-table path must equal the two-stage reference.
        let p = HogParams::builder().window(64, 48).build().unwrap();
        let fused = CellGrid::compute(&img, &p);
        let reference = CellGrid::from_gradients(&GradientField::compute(&img), &p);
        assert_eq!(fused, reference);
    }

    #[test]
    fn recompute_rows_matches_full_compute() {
        let p = params();
        let a = GrayImage::from_fn(64, 64, |x, y| ((x * 3 + y * 7) % 256) as u8);
        let b = GrayImage::from_fn(64, 64, |x, y| ((x * 9 + y * 2 + 31) % 256) as u8);
        let mut grid = CellGrid::compute(&a, &p);
        // Recomputing every row range from `b` must converge on compute(b).
        grid.recompute_rows(&b, &p, 2..5);
        grid.recompute_rows(&b, &p, 0..2);
        grid.recompute_rows(&b, &p, 5..8);
        assert_eq!(grid, CellGrid::compute(&b, &p));
    }

    #[test]
    fn from_raw_roundtrips() {
        let data = vec![1.0f32; 2 * 3 * 9];
        let grid = CellGrid::from_raw(2, 3, 9, data.clone());
        assert_eq!(grid.cells(), (2, 3));
        assert_eq!(grid.as_raw(), data.as_slice());
    }

    #[test]
    #[should_panic(expected = "data length mismatch")]
    fn from_raw_checks_length() {
        let _ = CellGrid::from_raw(2, 2, 9, vec![0.0; 35]);
    }

    #[test]
    #[should_panic(expected = "cell out of bounds")]
    fn histogram_out_of_bounds_panics() {
        let img = GrayImage::new(64, 64);
        let grid = CellGrid::compute(&img, &params());
        let _ = grid.histogram(8, 0);
    }
}
