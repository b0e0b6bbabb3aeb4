//! Fixed-point feature storage and the integer scoring kernel of the i16
//! datapath — the CPU mirror of the paper's fixed-point hardware MACs.
//!
//! This module is **integer-only by construction**: it never names a
//! floating-point type, and `rtped-lint` enforces that (rule
//! `FLOAT_IN_QUANT_KERNEL`). All float → integer conversion happens at the
//! designated boundaries — `FeatureMap::quantize_rows_into` for features
//! and `rtped_svm::QuantModel` for weights — so every arithmetic operation
//! here is exact two's-complement integer math. That is what makes the
//! i16 path bit-reproducible across hosts, compilers, and thread counts:
//! integer addition is associative, so any evaluation order of the window
//! sum yields the same bits.
//!
//! ## Overflow contract
//!
//! Features are clamped to `±2^FEATURE_FRAC_BITS` at the quantization
//! boundary. Weights must satisfy
//! `max|w| * 2^FEATURE_FRAC_BITS * row_len < 2^31` (enforced by
//! `QuantModel`'s scale selection), so one window row's dot product fits
//! an `i32` without wrapping; rows are then reduced in `i64`, which has
//! headroom for billions of rows.
//!
//! ## Vector width
//!
//! The scoring loop is plain scalar Rust that rustc autovectorizes: at
//! SSE2 in the baseline x86-64 build, and at AVX2 when
//! [`QuantFeatureMap::score_window_row`] runs it through
//! [`rtped_core::par::wide`] on a CPU that has it. Integer addition is
//! associative, so both widths return the same bits.

use std::ops::Range;

use rtped_core::par;

/// Fraction bits of quantized features (Q12: unit value = 4096).
///
/// Chosen two bits above the ~Q10 floor where the PR-4 quantization
/// ablation first shows accuracy drift, while leaving i32 headroom for
/// 288-term rows at useful weight precision.
pub const FEATURE_FRAC_BITS: u32 = 12;

/// Cell-major `i16` feature plane — the quantized twin of `FeatureMap`,
/// with the identical layout
/// `data[(cy * cells_x + cx) * 4 * bins + role * bins + bin]`
/// so the scoring kernel's inner loop is a contiguous, stride-1 dot
/// product that rustc autovectorizes (see the module doc on vector width).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantFeatureMap {
    cells_x: usize,
    cells_y: usize,
    bins: usize,
    data: Vec<i16>,
}

impl QuantFeatureMap {
    /// Creates a zeroed map of the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn new(cells_x: usize, cells_y: usize, bins: usize) -> Self {
        assert!(cells_x > 0 && cells_y > 0 && bins > 0, "empty feature map");
        Self {
            cells_x,
            cells_y,
            bins,
            data: vec![0i16; cells_x * cells_y * 4 * bins],
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

    /// Borrows the raw quantized buffer (cell-major).
    #[must_use]
    pub fn as_raw(&self) -> &[i16] {
        &self.data
    }

    /// Mutably borrows the data of cell rows `rows` (the quantization
    /// boundary writes through this).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is out of bounds.
    pub fn rows_mut(&mut self, rows: Range<usize>) -> &mut [i16] {
        assert!(rows.end <= self.cells_y, "cell rows out of bounds");
        let row_len = self.cells_x * 4 * self.bins;
        &mut self.data[rows.start * row_len..rows.end * row_len]
    }

    /// Scores every window of window-row `cy`: window `col` spans cells
    /// `(col * stride .. col * stride + wc, cy .. cy + hc)` and its raw
    /// integer decision value (feature Q-bits times weight Q-bits, no bias)
    /// is written to `out[col]`.
    ///
    /// Each window row is a contiguous `wc * 4 * bins`-term i16 dot
    /// product accumulated in `i32` — exact under the module's overflow
    /// contract — and rows reduce in `i64`. Being all-integer, the result
    /// is identical for any band split or thread count.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != hc * wc * 4 * bins`, if `out` is
    /// shorter than `cols`, or if any window exceeds the map bounds.
    #[allow(clippy::too_many_arguments)] // bare window geometry, kept flat for the hot path
    pub fn score_window_row(
        &self,
        weights: &[i16],
        wc: usize,
        hc: usize,
        cy: usize,
        cols: usize,
        stride: usize,
        out: &mut [i64],
    ) {
        let f = self.cell_features();
        let row_len = wc * f;
        assert_eq!(weights.len(), hc * row_len, "weight length mismatch");
        assert!(out.len() >= cols, "output buffer too short");
        assert!(cy + hc <= self.cells_y, "window rows out of bounds");
        let gx = self.cells_x;
        assert!(
            cols == 0 || (cols - 1) * stride + wc <= gx,
            "window columns out of bounds"
        );
        par::wide(|| self.score_window_row_lanes(weights, wc, hc, cy, cols, stride, out));
    }

    /// The loop body of [`Self::score_window_row`], after its bounds
    /// checks; inlined into whichever vector width [`par::wide`] picks.
    #[allow(clippy::too_many_arguments)] // bare window geometry, kept flat for the hot path
    #[inline(always)]
    fn score_window_row_lanes(
        &self,
        weights: &[i16],
        wc: usize,
        hc: usize,
        cy: usize,
        cols: usize,
        stride: usize,
        out: &mut [i64],
    ) {
        let f = self.cell_features();
        let row_len = wc * f;
        let gx = self.cells_x;
        for (col, o) in out.iter_mut().take(cols).enumerate() {
            let cx = col * stride;
            let mut total: i64 = 0;
            for dy in 0..hc {
                let base = ((cy + dy) * gx + cx) * f;
                let frow = &self.data[base..base + row_len];
                let wrow = &weights[dy * row_len..(dy + 1) * row_len];
                let mut acc: i32 = 0;
                for (&w, &v) in wrow.iter().zip(frow) {
                    // rtped-lint: allow(unchecked-arith-in-fixed-datapath, "DESIGN.md §13: the weight fraction shift is chosen so one window row's dot product fits i32 for any representable Q12 inputs; keeping the bare MAC preserves autovectorization of the hot loop")
                    acc += i32::from(w) * i32::from(v);
                }
                total = total.wrapping_add(i64::from(acc));
            }
            *o = total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtped_core::rng::{Rng, SeedRng};

    #[test]
    fn new_map_is_zeroed() {
        let q = QuantFeatureMap::new(3, 4, 9);
        assert_eq!(q.cells(), (3, 4));
        assert_eq!(q.cell_features(), 36);
        assert!(q.as_raw().iter().all(|&v| v == 0));
    }

    #[test]
    fn rows_mut_spans_exactly_the_requested_rows() {
        let mut q = QuantFeatureMap::new(2, 3, 9);
        q.rows_mut(1..2).fill(7);
        let row_len = 2 * 36;
        let raw = q.as_raw();
        assert!(raw[..row_len].iter().all(|&v| v == 0));
        assert!(raw[row_len..2 * row_len].iter().all(|&v| v == 7));
        assert!(raw[2 * row_len..].iter().all(|&v| v == 0));
    }

    #[test]
    fn score_window_row_matches_naive_dot() {
        // 4x3-cell map, 2x2-cell window, stride 1: 3 columns.
        let mut q = QuantFeatureMap::new(4, 3, 9);
        for (i, v) in q.rows_mut(0..3).iter_mut().enumerate() {
            *v = (i % 31) as i16 - 15;
        }
        let f = q.cell_features();
        let (wc, hc) = (2usize, 2usize);
        let weights: Vec<i16> = (0..hc * wc * f).map(|i| (i % 23) as i16 - 11).collect();
        let mut out = vec![0i64; 3];
        q.score_window_row(&weights, wc, hc, 1, 3, 1, &mut out);
        for (col, &got) in out.iter().enumerate() {
            let mut want: i64 = 0;
            for dy in 0..hc {
                for dx in 0..wc {
                    for k in 0..f {
                        let v = q.as_raw()[((1 + dy) * 4 + col + dx) * f + k];
                        let w = weights[(dy * wc + dx) * f + k];
                        want += i64::from(v) * i64::from(w);
                    }
                }
            }
            assert_eq!(got, want, "column {col}");
        }
    }

    /// Draws `n` values in `-bound..=bound`, with about one in eight
    /// forced to an extreme so the overflow contract's corners are hit.
    fn extreme_heavy(rng: &mut SeedRng, n: usize, bound: i16) -> Vec<i16> {
        (0..n)
            .map(|_| match rng.gen_range(0u32..16) {
                0 => bound,
                1 => -bound,
                _ => rng.gen_range(-bound..=bound),
            })
            .collect()
    }

    rtped_core::check! {
        #![cases = 96]
        /// The `par::wide` dispatch of `score_window_row` returns the same
        /// bits as the plain loop body compiled at the baseline ISA. Bin
        /// counts 1..=9 give row lengths that are not multiples of any
        /// vector width, so the vector loops' scalar tails run too.
        /// Features span the full clamped Q12 range and weights reach the
        /// `QuantModel` row-overflow limit for the drawn row length. On a
        /// host without AVX2 both sides run the same code, so the property
        /// holds trivially there.
        fn wide_scoring_matches_plain_body(
            wc in 1usize..=8,
            hc in 1usize..=8,
            stride in 1usize..=3,
            half_cols in 0usize..=10,
            bins in 1usize..=9,
            slack in 0usize..=2,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = SeedRng::seed_from_u64(seed);
            let cols = 2 * half_cols + 1;
            let (gx, gy) = ((cols - 1) * stride + wc + slack, hc + slack);
            let mut q = QuantFeatureMap::new(gx, gy, bins);
            let feature_limit = 1i16 << FEATURE_FRAC_BITS;
            let features = extreme_heavy(&mut rng, q.as_raw().len(), feature_limit);
            q.rows_mut(0..gy).copy_from_slice(&features);
            let row_terms = wc * q.cell_features();
            let weight_limit = (i64::from(i32::MAX) / (i64::from(feature_limit) * row_terms as i64))
                .min(i64::from(i16::MAX)) as i16;
            let weights = extreme_heavy(&mut rng, hc * row_terms, weight_limit);
            let cy = rng.gen_range(0..=slack);
            let mut wide = vec![0i64; cols];
            let mut plain = vec![0i64; cols];
            q.score_window_row(&weights, wc, hc, cy, cols, stride, &mut wide);
            q.score_window_row_lanes(&weights, wc, hc, cy, cols, stride, &mut plain);
            rtped_core::check_assert_eq!(wide, plain);
        }
    }

    #[test]
    #[should_panic(expected = "weight length mismatch")]
    fn score_checks_weight_length() {
        let q = QuantFeatureMap::new(4, 3, 9);
        let mut out = vec![0i64; 1];
        q.score_window_row(&[0i16; 10], 2, 2, 0, 1, 1, &mut out);
    }
}
