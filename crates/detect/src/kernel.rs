//! Cache-blocked, autovectorizable scoring kernels for the window scan.
//!
//! [`score_window`](crate::detector::score_window) is the *reference*
//! kernel: one window at a time, one strided f64 accumulation in
//! descriptor order. This module is the raw-speed variant the scan loop
//! actually runs: the level's feature map is widened to `f64` **once**
//! (`f32 → f64` is exact, so this changes no bits and removes a per-element
//! convert from the hot loop), and then [`F32Kernel::score_window_row`]
//! scores up to [`BLOCK_WINDOWS`] horizontally-adjacent windows per pass
//! over a weight row — every loaded feature row is reused by all windows
//! in the block, and the inner loop is a fixed-width stride-1
//! multiply-accumulate rustc autovectorizes without intrinsics or
//! `unsafe`.
//!
//! ## Bit-exactness
//!
//! Each window's accumulator still receives the *same contributions in
//! the same order* as the reference kernel (window rows ascending, weight
//! index ascending, bias last), so blocked scores are bit-identical to
//! `score_window` — asserted by `tests/quant_and_temporal.rs`.

use std::ops::Range;

use rtped_hog::feature_map::FeatureMap;
use rtped_svm::LinearSvm;

/// Horizontally-adjacent windows scored per weight-row pass. Eight keeps
/// the accumulator block in registers on x86-64 and SIMD-friendly on
/// 128-bit targets.
pub const BLOCK_WINDOWS: usize = 8;

/// Widens a feature map's raw storage to `f64` (exact):
/// [`update_rows_f64`] over every cell row.
#[must_use]
pub fn to_f64(map: &FeatureMap) -> Vec<f64> {
    let mut raw64 = vec![0.0f64; map.as_raw().len()];
    update_rows_f64(&mut raw64, map, 0..map.cells().1);
    raw64
}

/// Widens cell rows `rows` of `map` into `raw64`, leaving the other rows
/// untouched (the temporal cache refreshes the rows a frame changed).
///
/// # Panics
///
/// Panics if `raw64` does not match the map's size or `rows` is out of
/// bounds.
pub fn update_rows_f64(raw64: &mut [f64], map: &FeatureMap, rows: Range<usize>) {
    let (cells_x, cells_y) = map.cells();
    let row_len = cells_x * map.cell_features();
    assert_eq!(raw64.len(), row_len * cells_y, "f64 plane size mismatch");
    assert!(rows.end <= cells_y, "cell rows out of bounds");
    let span = rows.start * row_len..rows.end * row_len;
    for (d, &v) in raw64[span.clone()].iter_mut().zip(&map.as_raw()[span]) {
        *d = f64::from(v);
    }
}

/// The blocked f32-datapath kernel for one pyramid level: borrowed
/// preconverted features plus the model, with the level geometry baked in.
pub struct F32Kernel<'a> {
    raw64: &'a [f64],
    weights: &'a [f64],
    bias: f64,
    cells_x: usize,
    cell_features: usize,
    wc: usize,
    hc: usize,
}

impl<'a> F32Kernel<'a> {
    /// Binds the kernel to a level's preconverted features and a model.
    ///
    /// # Panics
    ///
    /// Panics if `raw64` is not `cells_x`-major with `cell_features` per
    /// cell, or the model does not match the `wc * hc`-cell window.
    #[must_use]
    pub fn new(
        raw64: &'a [f64],
        cells_x: usize,
        cell_features: usize,
        wc: usize,
        hc: usize,
        model: &'a LinearSvm,
    ) -> Self {
        assert_eq!(raw64.len() % (cells_x * cell_features), 0, "ragged plane");
        assert_eq!(
            model.dim(),
            wc * hc * cell_features,
            "model dimensionality does not match the window descriptor"
        );
        Self {
            raw64,
            weights: model.weights(),
            bias: model.bias(),
            cells_x,
            cell_features,
            wc,
            hc,
        }
    }

    /// Scores every window of window-row `cy`: window `col` has its
    /// top-left cell at `(col * stride, cy)` and its decision value
    /// `w·x + b` is written to `out[col]`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than `cols` or a window runs past the
    /// feature plane.
    pub fn score_window_row(&self, cy: usize, cols: usize, stride: usize, out: &mut [f64]) {
        let f = self.cell_features;
        let gx = self.cells_x;
        let row_len = self.wc * f;
        assert!(out.len() >= cols, "output buffer too short");
        assert!(
            cols == 0
                || ((cy + self.hc - 1) * gx + (cols - 1) * stride + self.wc) * f
                    <= self.raw64.len(),
            "window out of bounds"
        );
        let mut rx = 0usize;
        while rx < cols {
            let nb = BLOCK_WINDOWS.min(cols - rx);
            let mut accs = [0.0f64; BLOCK_WINDOWS];
            for dy in 0..self.hc {
                let row_base = ((cy + dy) * gx + rx * stride) * f;
                let wrow = &self.weights[dy * row_len..(dy + 1) * row_len];
                if nb == BLOCK_WINDOWS {
                    // Full block: one pass over the weight row feeds all
                    // eight window accumulators from overlapping slices of
                    // the same feature span (loaded once, reused 8×).
                    let span = (BLOCK_WINDOWS - 1) * stride * f + row_len;
                    let frow = &self.raw64[row_base..row_base + span];
                    for (i, &w) in wrow.iter().enumerate() {
                        for (b, acc) in accs.iter_mut().enumerate() {
                            *acc += w * frow[b * stride * f + i];
                        }
                    }
                } else {
                    // Tail: plain per-window dot, same per-window order.
                    for (b, acc) in accs.iter_mut().take(nb).enumerate() {
                        let base = row_base + b * stride * f;
                        let frow = &self.raw64[base..base + row_len];
                        for (&w, &v) in wrow.iter().zip(frow) {
                            *acc += w * v;
                        }
                    }
                }
            }
            for (b, &acc) in accs.iter().take(nb).enumerate() {
                out[rx + b] = acc + self.bias;
            }
            rx += nb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtped_hog::params::HogParams;
    use rtped_image::GrayImage;

    use crate::detector::score_window;

    #[test]
    fn blocked_rows_are_bit_identical_to_score_window() {
        let params = HogParams::pedestrian();
        let img = GrayImage::from_fn(200, 160, |x, y| ((x * 13 + y * 7 + x * y % 11) % 256) as u8);
        let map = FeatureMap::extract(&img, &params);
        let weights: Vec<f64> = (0..params.cell_descriptor_len())
            .map(|i| ((i * 2654435761usize) % 1000) as f64 / 1000.0 - 0.5)
            .collect();
        let model = LinearSvm::new(weights, 0.25);
        let raw64 = to_f64(&map);
        let (wc, hc) = params.window_cells();
        let (gx, gy) = map.cells();
        let k = F32Kernel::new(&raw64, gx, map.cell_features(), wc, hc, &model);
        for stride in [1usize, 2] {
            let rows = (gy - hc) / stride + 1;
            let cols = (gx - wc) / stride + 1;
            let mut out = vec![0.0f64; cols];
            for ry in 0..rows {
                let cy = ry * stride;
                k.score_window_row(cy, cols, stride, &mut out);
                for (col, &got) in out.iter().enumerate() {
                    let want = score_window(&map, col * stride, cy, &params, &model);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "stride {stride} window ({col},{ry})"
                    );
                }
            }
        }
    }

    #[test]
    fn update_rows_f64_refreshes_exactly_the_span() {
        let params = HogParams::pedestrian();
        let img = GrayImage::from_fn(96, 96, |x, y| ((x * 3 + y * 5) % 256) as u8);
        let map = FeatureMap::extract(&img, &params);
        let mut plane = vec![0.0f64; map.as_raw().len()];
        update_rows_f64(&mut plane, &map, 2..7);
        let row_len = map.cells().0 * map.cell_features();
        assert!(plane[..2 * row_len].iter().all(|&v| v == 0.0));
        assert_eq!(
            &plane[2 * row_len..7 * row_len],
            &to_f64(&map)[2 * row_len..7 * row_len]
        );
        assert!(plane[7 * row_len..].iter().all(|&v| v == 0.0));
    }
}
