//! Cell-major normalized HOG feature maps — the representation stored in
//! the paper's `NHOGMem` and down-sampled by its scaling modules.
//!
//! In the hardware of [Hemmati et al., DSD'14] (reused by the DAC'17 paper)
//! the normalized features are stored *per cell*: each cell keeps its 9-bin
//! histogram normalized within each of the four 2×2-cell blocks that cover
//! it, labelled by the cell's role in the block — **LU** (left-upper),
//! **RU** (right-upper), **LB** (left-bottom), **RB** (right-bottom).
//! That yields 4 × 9 = 36 values per cell and lets a 64×128 window be read
//! as 8×16 cells × 36 = 4608 features out of 16 memory banks ("16×8 blocks
//! and each of the blocks has the feature vector of 36 elements", §5).
//!
//! Both stages that build a map are row-ranged, like the hardware that
//! streams one cell row at a time: [`FeatureMap::update_rows`] is the one
//! block normalization and [`FeatureMap::scaled_rows_into`] the one
//! bilinear resampler. A full build runs them over every row; the
//! temporal cache runs them over the rows a frame changed.

use std::ops::Range;

use rtped_core::par;
use rtped_image::GrayImage;

use crate::grid::CellGrid;
use crate::params::HogParams;
use crate::quant::{QuantFeatureMap, FEATURE_FRAC_BITS};

/// Resampled row spans smaller than this many output values are built
/// serially: below it, thread-pool coordination costs more than the
/// resampling itself (the 640×480 regression in `BENCH_detect.json`).
const PAR_MIN_SCALE_ELEMS: usize = 100_000;

/// The four roles a cell can play inside a 2×2-cell block, in storage order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellRole {
    /// Left-upper cell of the block anchored at the cell itself.
    Lu,
    /// Right-upper cell of the block anchored one cell to the left.
    Ru,
    /// Left-bottom cell of the block anchored one cell up.
    Lb,
    /// Right-bottom cell of the block anchored one cell up-left.
    Rb,
}

impl CellRole {
    /// All roles in storage order `[LU, RU, LB, RB]`.
    pub const ALL: [CellRole; 4] = [CellRole::Lu, CellRole::Ru, CellRole::Lb, CellRole::Rb];

    /// Index of this role in the per-cell feature vector.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            CellRole::Lu => 0,
            CellRole::Ru => 1,
            CellRole::Lb => 2,
            CellRole::Rb => 3,
        }
    }

    /// Offset from the cell to the origin of the covering block for this
    /// role: `(dx, dy)` such that the block origin is `(cx + dx, cy + dy)`.
    #[must_use]
    pub fn block_offset(self) -> (isize, isize) {
        match self {
            CellRole::Lu => (0, 0),
            CellRole::Ru => (-1, 0),
            CellRole::Lb => (0, -1),
            CellRole::Rb => (-1, -1),
        }
    }
}

/// Normalized, cell-major HOG feature plane for a whole image.
///
/// Layout: `data[(cy * cells_x + cx) * 36 + role * 9 + bin]` for the
/// canonical 9-bin configuration. See the module docs for the role
/// semantics.
///
/// # Example
///
/// ```
/// use rtped_hog::{feature_map::FeatureMap, params::HogParams};
/// use rtped_image::GrayImage;
///
/// let params = HogParams::pedestrian();
/// let img = GrayImage::from_fn(128, 256, |x, y| ((3 * x + y) % 251) as u8);
/// let map = FeatureMap::extract(&img, &params);
/// assert_eq!(map.cells(), (16, 32));
/// // Down-sample the features by 2 (the paper's multi-scale mechanism).
/// let half = map.scaled_to(8, 16);
/// assert_eq!(half.cells(), (8, 16));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMap {
    cells_x: usize,
    cells_y: usize,
    bins: usize,
    data: Vec<f32>,
}

impl FeatureMap {
    /// Extracts the normalized feature map of `img`: gradients, cell
    /// histograms, then per-cell 4-role block normalization.
    ///
    /// # Panics
    ///
    /// Panics if the image holds fewer than 2×2 cells (no block fits).
    #[must_use]
    pub fn extract(img: &GrayImage, params: &HogParams) -> Self {
        let grid = CellGrid::compute(img, params);
        Self::from_cell_grid(&grid, params)
    }

    /// Extracts the feature map of the largest *centered* region of `img`
    /// that is a whole number of cells.
    ///
    /// Plain extraction floors the cell grid against the image's top-left
    /// corner, so a 70×141 window keeps only its left/top 64×136 pixels —
    /// decentering the object by up to one cell. Detection windows are
    /// object-centered, so scale-variant feature extraction (the paper's
    /// Fig. 3b path) should use this variant.
    ///
    /// # Panics
    ///
    /// Panics if the image holds fewer than 2×2 cells.
    #[must_use]
    pub fn extract_centered(img: &GrayImage, params: &HogParams) -> Self {
        let cs = params.cell_size();
        let (w, h) = img.dimensions();
        let cw = (w / cs) * cs;
        let ch = (h / cs) * cs;
        assert!(cw >= 2 * cs && ch >= 2 * cs, "image smaller than 2x2 cells");
        if (cw, ch) == (w, h) {
            return Self::extract(img, params);
        }
        let x0 = (w - cw) / 2;
        let y0 = (h - ch) / 2;
        let crop = img.crop(x0, y0, cw, ch);
        Self::extract(&crop, params)
    }

    /// Normalizes an existing [`CellGrid`] into a feature map: a zeroed
    /// map plus [`FeatureMap::update_rows`] over every cell row.
    ///
    /// Blocks are always `2×2` cells with a 1-cell stride — the block
    /// geometry the cell-major layout and the hardware are defined for.
    ///
    /// # Panics
    ///
    /// Panics if the grid holds fewer than 2×2 cells.
    #[must_use]
    pub fn from_cell_grid(grid: &CellGrid, params: &HogParams) -> Self {
        let (cells_x, cells_y) = grid.cells();
        assert!(
            cells_x >= 2 && cells_y >= 2,
            "feature map needs at least 2x2 cells"
        );
        let mut map = Self::zeroed(cells_x, cells_y, grid.bins());
        map.update_rows(grid, params, 0..cells_y);
        map
    }

    /// An all-zero map of the given geometry.
    fn zeroed(cells_x: usize, cells_y: usize, bins: usize) -> Self {
        Self {
            cells_x,
            cells_y,
            bins,
            data: vec![0.0f32; cells_x * cells_y * 4 * bins],
        }
    }

    /// Writes the normalized features of cell rows `rows` from `grid` in
    /// place, leaving all other rows untouched.
    ///
    /// Cell row `cy` lies in block rows `cy − 1` and `cy` (clamped), so
    /// each 2×2 block of rows `rows.start − 1 ..= rows.end − 1` is
    /// normalized once and its four quadrants are scattered to the role
    /// slots of the covered cells inside `rows`. Edge cells miss some
    /// covering blocks; their role slots clamp to the nearest valid block,
    /// whose quadrant for that cell is another slot of the same cell, so
    /// the scatter has already written it.
    ///
    /// A cell row's features depend only on histogram rows `cy − 1 ..=
    /// cy + 1` (clamped), so callers that know which histogram rows changed
    /// can refresh exactly the affected feature rows and obtain a map
    /// bit-identical to a full [`FeatureMap::from_cell_grid`].
    ///
    /// # Panics
    ///
    /// Panics if the grid does not match this map's dimensions or `rows`
    /// is out of bounds.
    pub fn update_rows(&mut self, grid: &CellGrid, params: &HogParams, rows: Range<usize>) {
        assert_eq!(grid.cells(), (self.cells_x, self.cells_y), "grid mismatch");
        assert_eq!(grid.bins(), self.bins, "bin count mismatch");
        assert!(rows.end <= self.cells_y, "cell rows out of bounds");
        if rows.is_empty() {
            return;
        }
        let (cells_x, cells_y, bins) = (self.cells_x, self.cells_y, self.bins);
        let norm = params.norm();
        let max_bx = cells_x - 2;
        let max_by = cells_y - 2;
        let mut block = vec![0.0f32; 4 * bins];
        for by in rows.start.saturating_sub(1)..=(rows.end - 1).min(max_by) {
            for bx in 0..=max_bx {
                // Gather the 2x2 block (cells in row-major order).
                for (ci, (ox, oy)) in [(0, 0), (1, 0), (0, 1), (1, 1)].into_iter().enumerate() {
                    let h = grid.histogram(bx + ox, by + oy);
                    block[ci * bins..(ci + 1) * bins].copy_from_slice(h);
                }
                norm.normalize(&mut block);
                // Quadrant (qx, qy) belongs to cell (bx+qx, by+qy) in role
                // qy*2+qx (the role whose block offset is (-qx, -qy)); only
                // the quadrants whose cell row lies in `rows` are written.
                for qy in rows.start.saturating_sub(by)..(rows.end - by).min(2) {
                    for qx in 0..2 {
                        let quadrant = qy * 2 + qx;
                        let dst = (((by + qy) * cells_x + (bx + qx)) * 4 + quadrant) * bins;
                        self.data[dst..dst + bins]
                            .copy_from_slice(&block[quadrant * bins..(quadrant + 1) * bins]);
                    }
                }
            }
        }

        // Clamped edge slots copy the quadrant the scatter wrote for the
        // same cell. (The source slot is never itself clamped, so ordering
        // is immaterial.)
        for cy in rows {
            let edge_row = cy == 0 || cy == cells_y - 1;
            for cx in 0..cells_x {
                if !edge_row && cx > 0 && cx < cells_x - 1 {
                    continue;
                }
                for role in CellRole::ALL {
                    let (dx, dy) = role.block_offset();
                    let ubx = cx as isize + dx;
                    let uby = cy as isize + dy;
                    let bx = ubx.clamp(0, max_bx as isize) as usize;
                    let by = uby.clamp(0, max_by as isize) as usize;
                    if ubx == bx as isize && uby == by as isize {
                        continue; // unclamped: the scatter already filled it
                    }
                    let qx = (cx as isize - bx as isize).clamp(0, 1) as usize;
                    let qy = (cy as isize - by as isize).clamp(0, 1) as usize;
                    let src = (((by + qy) * cells_x + (bx + qx)) * 4 + (qy * 2 + qx)) * bins;
                    let dst = ((cy * cells_x + cx) * 4 + role.index()) * bins;
                    self.data.copy_within(src..src + bins, dst);
                }
            }
        }
    }

    /// Grid size `(cells_x, cells_y)`.
    #[must_use]
    pub fn cells(&self) -> (usize, usize) {
        (self.cells_x, self.cells_y)
    }

    /// Orientation bin count per role.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Features per cell (`4 * bins`).
    #[must_use]
    pub fn cell_features(&self) -> usize {
        4 * self.bins
    }

    /// Borrows the full 36-value feature vector of cell `(cx, cy)`.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of bounds.
    #[must_use]
    pub fn cell(&self, cx: usize, cy: usize) -> &[f32] {
        assert!(cx < self.cells_x && cy < self.cells_y, "cell out of bounds");
        let f = self.cell_features();
        let base = (cy * self.cells_x + cx) * f;
        &self.data[base..base + f]
    }

    /// Borrows the 9-value histogram of cell `(cx, cy)` normalized under
    /// `role`.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of bounds.
    #[must_use]
    pub fn cell_role(&self, cx: usize, cy: usize, role: CellRole) -> &[f32] {
        let cell = self.cell(cx, cy);
        let b = self.bins;
        &cell[role.index() * b..(role.index() + 1) * b]
    }

    /// Concatenates the cell-major descriptor of the window whose top-left
    /// cell is `(cx, cy)` (size taken from `params.window_cells()`):
    /// 4608 values for the canonical geometry.
    ///
    /// # Panics
    ///
    /// Panics if the window extends past the map.
    #[must_use]
    pub fn window_descriptor(&self, cx: usize, cy: usize, params: &HogParams) -> Vec<f32> {
        let (wc, hc) = params.window_cells();
        assert!(
            cx + wc <= self.cells_x && cy + hc <= self.cells_y,
            "window out of bounds: ({cx},{cy}) + {wc}x{hc} > {}x{}",
            self.cells_x,
            self.cells_y
        );
        let f = self.cell_features();
        let mut out = Vec::with_capacity(wc * hc * f);
        for dy in 0..hc {
            for dx in 0..wc {
                out.extend_from_slice(self.cell(cx + dx, cy + dy));
            }
        }
        out
    }

    /// Bilinearly resamples the feature map to `new_cells_x * new_cells_y`
    /// cells — the paper's feature down-scaling: a zeroed map plus
    /// [`FeatureMap::scaled_rows_into`] over every output row. Each of the
    /// `4 * bins` channels is resampled independently with the
    /// half-cell-center convention (the same mapping the shift-and-add
    /// hardware scaler approximates).
    ///
    /// # Panics
    ///
    /// Panics if either target dimension is zero.
    #[must_use]
    pub fn scaled_to(&self, new_cells_x: usize, new_cells_y: usize) -> FeatureMap {
        assert!(
            new_cells_x > 0 && new_cells_y > 0,
            "scaled feature map must be non-empty"
        );
        let mut out = Self::zeroed(new_cells_x, new_cells_y, self.bins);
        self.scaled_rows_into(&mut out, 0..new_cells_y);
        out
    }

    /// Resamples one output row (`oy` of a `new_cells_x * new_cells_y`
    /// target) into `row`.
    fn scale_row(&self, new_cells_x: usize, new_cells_y: usize, oy: usize, row: &mut [f32]) {
        let f = self.cell_features();
        let rx = self.cells_x as f32 / new_cells_x as f32;
        let ry = self.cells_y as f32 / new_cells_y as f32;
        let fy = (oy as f32 + 0.5) * ry - 0.5;
        let y0 = fy.floor();
        let ty = fy - y0;
        let y0i = (y0 as isize).clamp(0, self.cells_y as isize - 1) as usize;
        let y1i = ((y0 as isize) + 1).clamp(0, self.cells_y as isize - 1) as usize;
        for ox in 0..new_cells_x {
            let fx = (ox as f32 + 0.5) * rx - 0.5;
            let x0 = fx.floor();
            let tx = fx - x0;
            let x0i = (x0 as isize).clamp(0, self.cells_x as isize - 1) as usize;
            let x1i = ((x0 as isize) + 1).clamp(0, self.cells_x as isize - 1) as usize;
            let c00 = self.cell(x0i, y0i);
            let c10 = self.cell(x1i, y0i);
            let c01 = self.cell(x0i, y1i);
            let c11 = self.cell(x1i, y1i);
            let base = ox * f;
            for k in 0..f {
                let top = c00[k] + (c10[k] - c00[k]) * tx;
                let bottom = c01[k] + (c11[k] - c01[k]) * tx;
                row[base + k] = top + (bottom - top) * ty;
            }
        }
    }

    /// Resamples this map into output rows `rows` of `out`, in place; `out`
    /// fixes the target grid. At equal dimensions the rows are copied.
    ///
    /// Each output row reads only its two source rows (see
    /// [`FeatureMap::source_rows`]), so refreshing the rows whose sources
    /// changed yields a map bit-identical to a fresh
    /// [`FeatureMap::scaled_to`].
    ///
    /// Rows are filled in parallel bands (each output value depends only
    /// on the source map, so the result is byte-identical for any thread
    /// count; see `rtped_core::par::for_each_band`); small spans go serial.
    ///
    /// # Panics
    ///
    /// Panics if bin counts differ or `rows` is out of bounds.
    pub fn scaled_rows_into(&self, out: &mut FeatureMap, rows: Range<usize>) {
        assert_eq!(self.bins, out.bins, "bin count mismatch");
        assert!(rows.end <= out.cells_y, "output rows out of bounds");
        let row_len = out.cells_x * out.cell_features();
        let span = rows.start * row_len..rows.end * row_len;
        if (out.cells_x, out.cells_y) == (self.cells_x, self.cells_y) {
            out.data[span.clone()].copy_from_slice(&self.data[span]);
            return;
        }
        let (new_cells_x, new_cells_y) = (out.cells_x, out.cells_y);
        let dst = &mut out.data[span];
        // Band granularity: a few output rows per claim, at most ~4 bands
        // per worker so uneven costs still balance. Small spans go serial:
        // pool coordination would dominate the resampling.
        let bands = if dst.len() < PAR_MIN_SCALE_ELEMS {
            1
        } else {
            (par::threads() * 4).min(rows.len())
        };
        let rows_per_band = rows.len().div_ceil(bands.max(1));
        par::for_each_band(dst, rows_per_band * row_len, |start, band| {
            let oy0 = rows.start + start / row_len;
            for (r, row) in band.chunks_mut(row_len).enumerate() {
                self.scale_row(new_cells_x, new_cells_y, oy0 + r, row);
            }
        });
    }

    /// The two (clamped) source rows that bilinear resampling reads when
    /// producing output row `oy` of a `new_cells_y`-row target from a
    /// `cells_y`-row source — the exact `y0/y1` indices resampling uses.
    #[must_use]
    pub fn source_rows(cells_y: usize, new_cells_y: usize, oy: usize) -> (usize, usize) {
        let ry = cells_y as f32 / new_cells_y as f32;
        let fy = (oy as f32 + 0.5) * ry - 0.5;
        let y0 = fy.floor();
        let y0i = (y0 as isize).clamp(0, cells_y as isize - 1) as usize;
        let y1i = ((y0 as isize) + 1).clamp(0, cells_y as isize - 1) as usize;
        (y0i, y1i)
    }

    /// Resamples by a scale factor `s > 0`: the output grid is
    /// `round(cells / s)` in each dimension (s > 1 shrinks the map, i.e.
    /// detects larger objects).
    ///
    /// # Panics
    ///
    /// Panics if `s` is not finite/positive or the result would be empty.
    #[must_use]
    pub fn scaled_by(&self, s: f32) -> FeatureMap {
        assert!(s.is_finite() && s > 0.0, "scale must be positive");
        let nx = ((self.cells_x as f32 / s).round() as usize).max(1);
        let ny = ((self.cells_y as f32 / s).round() as usize).max(1);
        self.scaled_to(nx, ny)
    }

    /// Re-applies block normalization after a resampling pass.
    ///
    /// Bilinear down-sampling averages neighbouring features, which
    /// shrinks every block's norm below the unit norm the classifier was
    /// trained on and uniformly deflates decision values. This pass
    /// rebuilds each physical 2×2-cell block from the role slots that
    /// reference it, renormalizes the 36-vector, and scatters it back —
    /// an optional correction (ablated in `rtped-bench`) that the
    /// shift-and-add hardware scaler does *not* perform.
    #[must_use]
    pub fn renormalized(&self, norm: crate::block::NormKind) -> FeatureMap {
        let mut out = self.clone();
        if self.cells_x < 2 || self.cells_y < 2 {
            return out;
        }
        let b = self.bins;
        let mut block = vec![0.0f32; 4 * b];
        for by in 0..self.cells_y - 1 {
            for bx in 0..self.cells_x - 1 {
                // Gather the four role views of block (bx, by).
                block[..b].copy_from_slice(self.cell_role(bx, by, CellRole::Lu));
                block[b..2 * b].copy_from_slice(self.cell_role(bx + 1, by, CellRole::Ru));
                block[2 * b..3 * b].copy_from_slice(self.cell_role(bx, by + 1, CellRole::Lb));
                block[3 * b..4 * b].copy_from_slice(self.cell_role(bx + 1, by + 1, CellRole::Rb));
                norm.normalize(&mut block);
                // Scatter back into the same role slots.
                let f = out.cell_features();
                let targets = [
                    ((by * self.cells_x + bx) * f + CellRole::Lu.index() * b, 0),
                    (
                        (by * self.cells_x + bx + 1) * f + CellRole::Ru.index() * b,
                        b,
                    ),
                    (
                        ((by + 1) * self.cells_x + bx) * f + CellRole::Lb.index() * b,
                        2 * b,
                    ),
                    (
                        ((by + 1) * self.cells_x + bx + 1) * f + CellRole::Rb.index() * b,
                        3 * b,
                    ),
                ];
                for (dst, src) in targets {
                    out.data[dst..dst + b].copy_from_slice(&block[src..src + b]);
                }
            }
        }
        out
    }

    /// Builds a map from raw data (hardware golden-model comparisons).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != cells_x * cells_y * 4 * bins`.
    #[must_use]
    pub fn from_raw(cells_x: usize, cells_y: usize, bins: usize, data: Vec<f32>) -> Self {
        assert!(cells_x > 0 && cells_y > 0 && bins > 0, "empty feature map");
        assert_eq!(
            data.len(),
            cells_x * cells_y * 4 * bins,
            "data length mismatch"
        );
        Self {
            cells_x,
            cells_y,
            bins,
            data,
        }
    }

    /// Borrows the raw feature buffer.
    #[must_use]
    pub fn as_raw(&self) -> &[f32] {
        &self.data
    }

    /// Quantizes the whole map to the fixed-point representation used by
    /// the i16 datapath (Q`FEATURE_FRAC_BITS` fraction bits).
    ///
    /// This is the designated float → integer conversion boundary: the
    /// integer kernel module itself never touches floating point. Values
    /// are scaled by `2^FEATURE_FRAC_BITS`, rounded to nearest, and
    /// clamped to `±2^FEATURE_FRAC_BITS` (normalized HOG features live in
    /// `[0, 1]`, so clamping only guards pathological inputs); the bound
    /// is what makes the kernel's i32 row accumulation overflow-free.
    #[must_use]
    pub fn quantized(&self) -> QuantFeatureMap {
        let mut q = QuantFeatureMap::new(self.cells_x, self.cells_y, self.bins);
        self.quantize_rows_into(&mut q, 0..self.cells_y);
        q
    }

    /// Requantizes cell rows `rows` of `q` from this map, leaving other
    /// rows untouched (the temporal cache's incremental path).
    ///
    /// # Panics
    ///
    /// Panics if `q`'s dimensions differ or `rows` is out of bounds.
    pub fn quantize_rows_into(&self, q: &mut QuantFeatureMap, rows: Range<usize>) {
        assert_eq!(q.cells(), (self.cells_x, self.cells_y), "dim mismatch");
        assert_eq!(q.bins(), self.bins, "bin count mismatch");
        assert!(rows.end <= self.cells_y, "cell rows out of bounds");
        let row_len = self.cells_x * self.cell_features();
        let src = &self.data[rows.start * row_len..rows.end * row_len];
        let dst = q.rows_mut(rows);
        par::wide(|| quantize_lanes(src, dst));
    }
}

/// The loop body of [`FeatureMap::quantize_rows_into`]: a lane-wise
/// expression, so every vector width [`par::wide`] picks rounds alike.
#[inline(always)]
fn quantize_lanes(src: &[f32], dst: &mut [i16]) {
    let scale = (1i32 << FEATURE_FRAC_BITS) as f32;
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = (v * scale).round().clamp(-scale, scale) as i16;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured(w: usize, h: usize) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| ((x * 13 + y * 29 + (x * y) % 17) % 256) as u8)
    }

    #[test]
    fn extract_dimensions() {
        let p = HogParams::pedestrian();
        let map = FeatureMap::extract(&textured(64, 128), &p);
        assert_eq!(map.cells(), (8, 16));
        assert_eq!(map.cell_features(), 36);
        assert_eq!(map.as_raw().len(), 8 * 16 * 36);
    }

    #[test]
    fn window_descriptor_has_hardware_length() {
        let p = HogParams::pedestrian();
        let map = FeatureMap::extract(&textured(128, 256), &p);
        let d = map.window_descriptor(2, 3, &p);
        assert_eq!(d.len(), 4608);
    }

    #[test]
    #[should_panic(expected = "window out of bounds")]
    fn window_descriptor_checks_bounds() {
        let p = HogParams::pedestrian();
        let map = FeatureMap::extract(&textured(64, 128), &p);
        let _ = map.window_descriptor(1, 0, &p);
    }

    #[test]
    fn interior_role_slots_agree_across_neighbours() {
        // Cell (cx, cy)'s LU-role block is the block with origin (cx, cy).
        // Cell (cx+1, cy)'s RU-role block is the block with origin
        // (cx+1-1, cy) = (cx, cy): same block, different quadrant. The
        // block's L2 norm over its 4 gathered cells must therefore match.
        let p = HogParams::pedestrian();
        let map = FeatureMap::extract(&textured(64, 128), &p);
        // Verify via the shared-block invariant: build norms by summing
        // squares of the four cells' slots that reference block (3, 5).
        let lu = map.cell_role(3, 5, CellRole::Lu); // quadrant (0,0)
        let ru = map.cell_role(4, 5, CellRole::Ru); // quadrant (1,0)
        let lb = map.cell_role(3, 6, CellRole::Lb); // quadrant (0,1)
        let rb = map.cell_role(4, 6, CellRole::Rb); // quadrant (1,1)
        let total: f32 = [lu, ru, lb, rb]
            .iter()
            .flat_map(|s| s.iter())
            .map(|v| v * v)
            .sum();
        // L2-Hys leaves the block with (near-)unit norm unless it is empty.
        assert!(
            (total.sqrt() - 1.0).abs() < 0.05,
            "block norm {} should be ~1",
            total.sqrt()
        );
    }

    #[test]
    fn features_are_bounded_by_clip_renormalization() {
        let p = HogParams::pedestrian();
        let map = FeatureMap::extract(&textured(64, 128), &p);
        for &v in map.as_raw() {
            assert!(v >= -1e-6, "negative feature {v}");
            assert!(v <= 1.0 + 1e-4, "feature exceeds 1: {v}");
        }
    }

    #[test]
    fn flat_image_gives_zero_features() {
        let mut img = GrayImage::new(64, 128);
        img.fill(77);
        let p = HogParams::pedestrian();
        let map = FeatureMap::extract(&img, &p);
        assert!(map.as_raw().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_rescale_is_clone() {
        let p = HogParams::pedestrian();
        let map = FeatureMap::extract(&textured(64, 128), &p);
        let same = map.scaled_to(8, 16);
        assert_eq!(same, map);
    }

    #[test]
    fn scaled_by_rounds_dimensions() {
        let p = HogParams::pedestrian();
        let map = FeatureMap::extract(&textured(160, 320), &p);
        assert_eq!(map.cells(), (20, 40));
        let down = map.scaled_by(2.0);
        assert_eq!(down.cells(), (10, 20));
        let odd = map.scaled_by(1.5);
        assert_eq!(odd.cells(), (13, 27));
    }

    #[test]
    fn downscale_of_constant_map_is_constant() {
        let map = FeatureMap::from_raw(8, 8, 9, vec![0.25; 8 * 8 * 36]);
        let down = map.scaled_to(4, 4);
        assert!(down.as_raw().iter().all(|&v| (v - 0.25).abs() < 1e-6));
    }

    #[test]
    fn downscale_preserves_value_range() {
        let p = HogParams::pedestrian();
        let map = FeatureMap::extract(&textured(128, 256), &p);
        let down = map.scaled_by(1.3);
        let max_in = map.as_raw().iter().cloned().fold(0.0f32, f32::max);
        let max_out = down.as_raw().iter().cloned().fold(0.0f32, f32::max);
        assert!(max_out <= max_in + 1e-5, "bilinear must not overshoot");
        assert!(down.as_raw().iter().all(|&v| v >= -1e-6));
    }

    #[test]
    fn cell_role_offsets_are_consistent() {
        for role in CellRole::ALL {
            let (dx, dy) = role.block_offset();
            assert!((-1..=0).contains(&dx) && (-1..=0).contains(&dy));
        }
        assert_eq!(CellRole::Lu.index(), 0);
        assert_eq!(CellRole::Rb.index(), 3);
    }

    #[test]
    fn extract_centered_equals_extract_for_aligned_images() {
        let p = HogParams::pedestrian();
        let img = textured(64, 128);
        assert_eq!(
            FeatureMap::extract_centered(&img, &p),
            FeatureMap::extract(&img, &p)
        );
    }

    #[test]
    fn extract_centered_uses_the_central_region() {
        // 70x141 window: centered extraction crops pixels 3..67 x 2..138,
        // so it must equal extraction of that crop.
        let p = HogParams::pedestrian();
        let img = textured(70, 141);
        let centered = FeatureMap::extract_centered(&img, &p);
        let manual = FeatureMap::extract(&img.crop(3, 2, 64, 136), &p);
        assert_eq!(centered, manual);
        assert_eq!(centered.cells(), (8, 17));
    }

    #[test]
    fn renormalized_restores_unit_block_norms() {
        let p = HogParams::pedestrian();
        let map = FeatureMap::extract(&textured(96, 160), &p);
        // Downsampling deflates block norms...
        let scaled = map.scaled_by(1.4);
        let renormed = scaled.renormalized(p.norm());
        // ...renormalization restores them: check one interior block via
        // its four role views.
        let total: f32 = [
            renormed.cell_role(2, 3, CellRole::Lu),
            renormed.cell_role(3, 3, CellRole::Ru),
            renormed.cell_role(2, 4, CellRole::Lb),
            renormed.cell_role(3, 4, CellRole::Rb),
        ]
        .iter()
        .flat_map(|s| s.iter())
        .map(|v| v * v)
        .sum();
        assert!(
            (total.sqrt() - 1.0).abs() < 0.05,
            "renormalized block norm {}",
            total.sqrt()
        );
    }

    #[test]
    fn renormalizing_an_unscaled_map_is_a_small_perturbation() {
        let p = HogParams::pedestrian();
        let map = FeatureMap::extract(&textured(64, 128), &p);
        let renormed = map.renormalized(p.norm());
        let max_err = map
            .as_raw()
            .iter()
            .zip(renormed.as_raw())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        // L2-Hys is NOT exactly idempotent: the renormalization after
        // clipping lifts clipped components back above 0.2, so a second
        // application re-clips them. The perturbation stays well below
        // the clip constant.
        assert!(max_err < 0.1, "renormalization moved features by {max_err}");
        // Interior block norms are restored to ~1 either way.
        let renormed2 = renormed.renormalized(p.norm());
        let second_pass_err = renormed
            .as_raw()
            .iter()
            .zip(renormed2.as_raw())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            second_pass_err <= max_err + 1e-6,
            "repeated renormalization should contract: {second_pass_err} vs {max_err}"
        );
    }

    /// The normalization oracle, independent of the row-ranged scatter:
    /// every (cell, role) slot is its clamped 2×2 block, normalized on its
    /// own.
    fn per_slot_reference(grid: &CellGrid, params: &HogParams) -> FeatureMap {
        let (cells_x, cells_y) = grid.cells();
        let bins = grid.bins();
        let (max_bx, max_by) = (cells_x - 2, cells_y - 2);
        let mut data = Vec::with_capacity(cells_x * cells_y * 4 * bins);
        let mut block = vec![0.0f32; 4 * bins];
        for cy in 0..cells_y {
            for cx in 0..cells_x {
                for role in CellRole::ALL {
                    let (dx, dy) = role.block_offset();
                    let bx = (cx as isize + dx).clamp(0, max_bx as isize) as usize;
                    let by = (cy as isize + dy).clamp(0, max_by as isize) as usize;
                    for (ci, (ox, oy)) in [(0, 0), (1, 0), (0, 1), (1, 1)].into_iter().enumerate() {
                        let h = grid.histogram(bx + ox, by + oy);
                        block[ci * bins..(ci + 1) * bins].copy_from_slice(h);
                    }
                    params.norm().normalize(&mut block);
                    let quadrant = (cy - by) * 2 + (cx - bx);
                    data.extend_from_slice(&block[quadrant * bins..(quadrant + 1) * bins]);
                }
            }
        }
        FeatureMap::from_raw(cells_x, cells_y, bins, data)
    }

    fn bits(map: &FeatureMap) -> Vec<u32> {
        map.as_raw().iter().map(|v| v.to_bits()).collect()
    }

    /// A random frame of whole cells; `levels` sets how many grey values
    /// it uses (1 gives a flat frame, whose blocks are all zero).
    fn random_frame(cells_x: usize, cells_y: usize, levels: u32, seed: u64) -> GrayImage {
        let mut rng = rtped_core::rng::SeedRng::seed_from_u64(seed);
        let step = 255 / (levels - 1).max(1);
        GrayImage::from_fn(cells_x * 8, cells_y * 8, |_, _| {
            (rtped_core::rng::Rng::next_u32(&mut rng) % levels * step) as u8
        })
    }

    #[test]
    fn update_rows_matches_scatter_build() {
        // Row-ranged updates from an old map converge on a full build of
        // the new grid, and both equal the per-slot oracle.
        let p = HogParams::pedestrian();
        let img_a = textured(96, 96);
        let img_b = GrayImage::from_fn(96, 96, |x, y| ((x * 31 + y * 3 + 7) % 256) as u8);
        let grid_a = CellGrid::compute(&img_a, &p);
        let grid_b = CellGrid::compute(&img_b, &p);
        let mut map = FeatureMap::from_cell_grid(&grid_a, &p);
        map.update_rows(&grid_b, &p, 0..4);
        map.update_rows(&grid_b, &p, 4..9);
        map.update_rows(&grid_b, &p, 9..12);
        assert_eq!(bits(&map), bits(&FeatureMap::from_cell_grid(&grid_b, &p)));
        assert_eq!(bits(&map), bits(&per_slot_reference(&grid_b, &p)));
    }

    #[test]
    fn scaled_rows_into_matches_scaled_to() {
        let p = HogParams::pedestrian();
        let map = FeatureMap::extract(&textured(160, 320), &p);
        let reference = map.scaled_by(1.5);
        let (nx, ny) = reference.cells();
        let mut patched = map.scaled_to(nx, ny);
        // Clobber some rows, then repair them through the row-ranged path.
        let row_len = nx * patched.cell_features();
        patched.data[3 * row_len..9 * row_len].fill(f32::NAN);
        map.scaled_rows_into(&mut patched, 3..9);
        assert_eq!(patched, reference);
        // source_rows must report exactly the rows scale_row reads.
        for oy in 0..ny {
            let (y0, y1) = FeatureMap::source_rows(40, ny, oy);
            assert!(y0 <= y1 && y1 < 40);
        }
    }

    #[test]
    fn quantized_is_rounded_q12() {
        let p = HogParams::pedestrian();
        let map = FeatureMap::extract(&textured(64, 128), &p);
        let q = map.quantized();
        assert_eq!(q.cells(), map.cells());
        for (&f, &i) in map.as_raw().iter().zip(q.as_raw()) {
            let want = (f * 4096.0).round().clamp(-4096.0, 4096.0) as i16;
            assert_eq!(i, want);
            assert!(i.unsigned_abs() <= 4096);
        }
    }

    /// The quantization edge cases: NaN, ±inf, ±0, subnormals, ±MAX,
    /// values beyond ±1, and every f32 within ±4 ulp of each Q12
    /// rounding tie `(k + 0.5) / 4096` for `|k| <= 6144`.
    fn quantize_edge_values() -> Vec<f32> {
        let mut v = vec![
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff),
            f32::MAX,
            f32::MIN,
            1.0,
            -1.0,
            1.5,
            -1.5,
            2.0,
            -1e9,
            1e30,
        ];
        for k in -6144i32..=6144 {
            let tie = (k as f32 + 0.5) / 4096.0;
            v.extend((-4i32..=4).map(|ulp| f32::from_bits(tie.to_bits().wrapping_add_signed(ulp))));
        }
        v
    }

    rtped_core::check! {
        #![cases = 48]
        /// `from_cell_grid`, and any sequence of `update_rows` splits that
        /// covers every row of a new grid starting from an old map, equal
        /// the per-slot oracle bit for bit — down to 2×2 and 3-row grids.
        fn row_ranged_normalization_matches_per_slot_reference(
            cells_x in 2usize..12,
            cells_y in 2usize..10,
            levels in rtped_core::check::choice(vec![1u32, 2, 256]),
            seed in 0u64..u64::MAX,
            cuts in rtped_core::check::vec_of(0usize..10, 0..5),
        ) {
            let p = HogParams::pedestrian();
            let old = CellGrid::compute(&random_frame(cells_x, cells_y, 256, seed), &p);
            let new = CellGrid::compute(&random_frame(cells_x, cells_y, levels, seed ^ 1), &p);
            let want = bits(&per_slot_reference(&new, &p));
            rtped_core::check_assert_eq!(bits(&FeatureMap::from_cell_grid(&new, &p)), want.clone());
            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (cells_y + 1)).collect();
            bounds.extend([0, cells_y]);
            bounds.sort_unstable();
            bounds.dedup();
            let mut splits: Vec<Range<usize>> = bounds.windows(2).map(|w| w[0]..w[1]).collect();
            let turn = seed as usize % splits.len();
            splits.rotate_left(turn);
            let mut map = FeatureMap::from_cell_grid(&old, &p);
            for rows in splits {
                map.update_rows(&new, &p, rows);
            }
            rtped_core::check_assert_eq!(bits(&map), want);
        }
    }

    rtped_core::check! {
        #![cases = 24]
        /// The `par::wide` dispatch of `quantize_rows_into` writes the same
        /// bits as the plain loop body compiled at the baseline ISA, for
        /// every edge value plus random bit patterns, at a random start
        /// alignment. On a host without AVX2 both sides run the same code,
        /// so the property holds trivially there.
        fn wide_quantize_matches_plain_body(skip in 0usize..64, seed in 0u64..u64::MAX) {
            let mut rng = rtped_core::rng::SeedRng::seed_from_u64(seed);
            let mut src = quantize_edge_values();
            src.extend((0..4096).map(|_| f32::from_bits(rtped_core::rng::Rng::next_u32(&mut rng))));
            // One bin per role: a cell is 4 values, a cell row one cell.
            let rows = src.len() / 4;
            let map = FeatureMap::from_raw(1, rows, 1, src[..rows * 4].to_vec());
            let start = skip;
            let mut q = QuantFeatureMap::new(1, rows, 1);
            map.quantize_rows_into(&mut q, start..rows);
            let mut plain = vec![0i16; (rows - start) * 4];
            quantize_lanes(&map.as_raw()[start * 4..], &mut plain);
            rtped_core::check_assert_eq!(&q.as_raw()[start * 4..], &plain[..]);
        }
    }

    #[test]
    fn from_raw_checks_length() {
        let ok = FeatureMap::from_raw(2, 2, 9, vec![0.0; 2 * 2 * 36]);
        assert_eq!(ok.cells(), (2, 2));
        let bad = std::panic::catch_unwind(|| FeatureMap::from_raw(2, 2, 9, vec![0.0; 10]));
        assert!(bad.is_err());
    }
}
