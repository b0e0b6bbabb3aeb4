//! Image gradients: magnitude and unsigned orientation planes (paper
//! eqs. 1–2).
//!
//! The extractor proper never builds these planes: [`crate::grid`] fuses
//! the gradient lookup with cell voting. [`GradientField`] is the
//! two-stage reference that fused voting is tested against, and the
//! float golden model the hardware gradient unit is compared with.

use std::sync::OnceLock;

use rtped_image::GrayImage;

/// Width of one axis of the gradient lookup table: centered differences of
/// 8-bit pixels land in `[-255, 255]`, i.e. 511 distinct values per axis.
pub(crate) const GRAD_LUT_SPAN: usize = 511;

/// Precomputed magnitude/orientation for every centered-difference pair
/// `(fx, fy) ∈ [-255, 255]²`.
///
/// The differences of 8-bit pixels are exact small integers, so `sqrt` and
/// `atan2` are functions of at most 511 × 511 inputs. Each table entry is
/// computed with the *identical* `f32` expressions the scalar path uses,
/// which makes LUT results bit-identical to direct evaluation — this is a
/// speed optimization only, not an approximation (and it mirrors the
/// CORDIC-free arctan tables real HOG accelerators ship).
pub(crate) struct GradLut {
    pub(crate) mag: Vec<f32>,
    pub(crate) ang: Vec<f32>,
}

impl GradLut {
    /// Table index for the integer difference pair `(fx, fy)`.
    #[inline]
    pub(crate) fn index(fx: i32, fy: i32) -> usize {
        ((fy + 255) * GRAD_LUT_SPAN as i32 + (fx + 255)) as usize
    }

    fn build() -> GradLut {
        let mut mag = vec![0.0f32; GRAD_LUT_SPAN * GRAD_LUT_SPAN];
        let mut ang = vec![0.0f32; GRAD_LUT_SPAN * GRAD_LUT_SPAN];
        for fy in -255i32..=255 {
            for fx in -255i32..=255 {
                // Exactly the scalar path's arithmetic: integer-valued f32
                // inputs through the same sqrt/atan2/fold expressions.
                let fxf = fx as f32;
                let fyf = fy as f32;
                let idx = Self::index(fx, fy);
                mag[idx] = (fxf * fxf + fyf * fyf).sqrt();
                ang[idx] = fold_angle(fyf.atan2(fxf));
            }
        }
        GradLut { mag, ang }
    }
}

/// The process-wide gradient table, built lazily on first use (~4 ms,
/// amortized over every frame).
pub(crate) fn grad_lut() -> &'static GradLut {
    static LUT: OnceLock<GradLut> = OnceLock::new();
    LUT.get_or_init(GradLut::build)
}

/// Per-pixel gradient magnitude and orientation for a whole image.
///
/// Gradients use centered differences `fx = I(x+1,y) - I(x-1,y)` and
/// `fy = I(x,y+1) - I(x,y-1)` with clamped borders (the `[-1, 0, 1]` mask
/// Dalal & Triggs found best). Orientation is `θ = atan2(fy, fx)` folded
/// into the unsigned range `[0, π)`; magnitude is `sqrt(fx² + fy²)`.
///
/// # Example
///
/// ```
/// use rtped_hog::gradient::GradientField;
/// use rtped_image::GrayImage;
///
/// // A vertical step edge has a horizontal gradient: θ ≈ 0.
/// let img = GrayImage::from_fn(8, 8, |x, _| if x < 4 { 0 } else { 200 });
/// let g = GradientField::compute(&img);
/// assert!(g.magnitude(4, 4) > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GradientField {
    width: usize,
    height: usize,
    magnitude: Vec<f32>,
    orientation: Vec<f32>,
}

impl GradientField {
    /// Computes the gradient field of `img`.
    ///
    /// Internally this looks up magnitude/orientation in a precomputed
    /// 511 × 511 table over the integer difference pair (see `GradLut`);
    /// results are bit-identical to evaluating `sqrt`/`atan2` per pixel.
    #[must_use]
    pub fn compute(img: &GrayImage) -> Self {
        let (w, h) = img.dimensions();
        let lut = grad_lut();
        let raw = img.as_raw();
        let mut magnitude = vec![0.0f32; w * h];
        let mut orientation = vec![0.0f32; w * h];
        for y in 0..h {
            let row = &raw[y * w..(y + 1) * w];
            let up = &raw[y.saturating_sub(1) * w..][..w];
            let dn = &raw[(h - 1).min(y + 1) * w..][..w];
            let base = y * w;
            for x in 0..w {
                let xl = x.saturating_sub(1);
                let xr = (x + 1).min(w - 1);
                let fx = i32::from(row[xr]) - i32::from(row[xl]);
                let fy = i32::from(dn[x]) - i32::from(up[x]);
                let e = GradLut::index(fx, fy);
                magnitude[base + x] = lut.mag[e];
                orientation[base + x] = lut.ang[e];
            }
        }
        Self {
            width: w,
            height: h,
            magnitude,
            orientation,
        }
    }

    /// Field width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Field height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Gradient magnitude at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    #[must_use]
    pub fn magnitude(&self, x: usize, y: usize) -> f32 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.magnitude[y * self.width + x]
    }

    /// Gradient orientation at `(x, y)`, in `[0, π)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    #[must_use]
    pub fn orientation(&self, x: usize, y: usize) -> f32 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.orientation[y * self.width + x]
    }
}

/// Folds `angle` (from `atan2`, in `(-π, π]`) into the unsigned range
/// `[0, π)`.
#[must_use]
pub fn fold_angle(angle: f32) -> f32 {
    use std::f32::consts::PI;
    let mut a = angle;
    if a < 0.0 {
        a += PI;
    }
    if a >= PI {
        a -= PI;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f32::consts::PI;

    #[test]
    fn flat_image_has_zero_gradient() {
        let mut img = GrayImage::new(8, 8);
        img.fill(100);
        let g = GradientField::compute(&img);
        assert!((0..8).all(|y| (0..8).all(|x| g.magnitude(x, y) == 0.0)));
    }

    #[test]
    fn vertical_edge_has_horizontal_gradient() {
        let img = GrayImage::from_fn(8, 8, |x, _| if x < 4 { 0 } else { 200 });
        let g = GradientField::compute(&img);
        // At the edge column the gradient is purely horizontal: θ = 0.
        assert!(g.magnitude(4, 4) > 0.0);
        assert!(g.orientation(4, 4).abs() < 1e-6);
    }

    #[test]
    fn horizontal_edge_has_vertical_gradient() {
        let img = GrayImage::from_fn(8, 8, |_, y| if y < 4 { 0 } else { 200 });
        let g = GradientField::compute(&img);
        assert!(g.magnitude(4, 4) > 0.0);
        assert!((g.orientation(4, 4) - PI / 2.0).abs() < 1e-6);
    }

    #[test]
    fn unsigned_orientation_folds_opposite_directions_together() {
        // Rising and falling edges produce the same unsigned orientation.
        let rising = GrayImage::from_fn(9, 3, |x, _| (x * 28) as u8);
        let falling = GrayImage::from_fn(9, 3, |x, _| ((8 - x) * 28) as u8);
        let gr = GradientField::compute(&rising);
        let gf = GradientField::compute(&falling);
        assert!((gr.orientation(4, 1) - gf.orientation(4, 1)).abs() < 1e-6);
    }

    #[test]
    fn diagonal_edge_has_45_degree_gradient() {
        // Intensity grows along x+y: gradient points at 45°.
        let img = GrayImage::from_fn(16, 16, |x, y| ((x + y) * 8) as u8);
        let g = GradientField::compute(&img);
        assert!((g.orientation(8, 8) - PI / 4.0).abs() < 1e-3);
    }

    #[test]
    fn magnitude_matches_hand_computation() {
        let mut img = GrayImage::new(3, 3);
        img.put(0, 1, 10);
        img.put(2, 1, 50);
        img.put(1, 0, 20);
        img.put(1, 2, 80);
        let g = GradientField::compute(&img);
        // fx = 50 - 10 = 40, fy = 80 - 20 = 60.
        assert!((g.magnitude(1, 1) - (40.0f32 * 40.0 + 60.0 * 60.0).sqrt()).abs() < 1e-4);
    }

    #[test]
    fn borders_are_clamped_not_wrapped() {
        // A single bright rightmost column: the leftmost pixel must see no
        // wraparound gradient.
        let img = GrayImage::from_fn(8, 1, |x, _| if x == 7 { 255 } else { 0 });
        let g = GradientField::compute(&img);
        assert_eq!(g.magnitude(0, 0), 0.0);
        // x = 6 sees the step.
        assert!(g.magnitude(6, 0) > 0.0);
    }

    #[test]
    fn lut_compute_is_bit_identical_to_scalar_evaluation() {
        let img = GrayImage::from_fn(37, 29, |x, y| ((x * 7 + y * 13 + (x * y) % 5) % 256) as u8);
        let g = GradientField::compute(&img);
        let px = |x: isize, y: isize| f32::from(img.get_clamped(x, y));
        for y in 0..29 {
            for x in 0..37 {
                let (xi, yi) = (x as isize, y as isize);
                let fx = px(xi + 1, yi) - px(xi - 1, yi);
                let fy = px(xi, yi + 1) - px(xi, yi - 1);
                let m = (fx * fx + fy * fy).sqrt();
                let o = fold_angle(fy.atan2(fx));
                assert_eq!(g.magnitude(x, y).to_bits(), m.to_bits(), "mag at {x},{y}");
                assert_eq!(g.orientation(x, y).to_bits(), o.to_bits(), "ang at {x},{y}");
            }
        }
    }

    #[test]
    fn fold_angle_ranges() {
        for i in -314..=314 {
            let a = i as f32 / 100.0;
            let folded = fold_angle(a);
            assert!(
                (0.0..PI).contains(&folded),
                "fold_angle({a}) = {folded} out of range"
            );
        }
    }
}
