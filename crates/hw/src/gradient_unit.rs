//! The streaming gradient stage: integer gradients, integer-sqrt
//! magnitude, and tangent-comparison orientation binning.
//!
//! The hardware ingests one pixel per cycle through two line buffers and
//! produces, per pixel, the gradient magnitude and a *pair of bin votes*
//! (paper §3.1: the two nearest bins each receive a share of the
//! magnitude). Hardware implementations avoid `arctan` entirely: the bin
//! is found by comparing `fy · cos(edge)` against `fx · sin(edge)` with
//! small integer coefficients, and the vote split uses an 8-bit weight.

use rtped_image::GrayImage;

use crate::fixed::isqrt_u64;

/// Number of orientation bins (fixed at 9 for the pedestrian design).
pub const BINS: usize = 9;

/// Fixed-point denominator of the vote weights (Q0.8: weights sum to 256).
pub const WEIGHT_ONE: u32 = 256;

/// One pixel's contribution to the cell histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GradientVote {
    /// Gradient magnitude, `floor(sqrt(fx² + fy²))` (0..=361 for 8-bit
    /// pixels).
    pub magnitude: u16,
    /// Lower of the two voted bins.
    pub bin_lo: u8,
    /// Upper bin (`(bin_lo + 1) % 9`).
    pub bin_hi: u8,
    /// Q0.8 weight of `bin_lo`; `bin_hi` receives `256 - weight_lo`.
    pub weight_lo: u16,
}

impl GradientVote {
    /// The integer histogram increments: `(add_to_lo, add_to_hi)`, each
    /// `magnitude * weight` in Q0.8 (so 256 = one full magnitude).
    #[must_use]
    pub fn contributions(&self) -> (u32, u32) {
        let lo = u32::from(self.magnitude) * u32::from(self.weight_lo);
        let hi = u32::from(self.magnitude) * (WEIGHT_ONE - u32::from(self.weight_lo));
        (lo, hi)
    }
}

/// The streaming gradient unit.
///
/// Holds no state beyond the image borders policy; the line buffers of the
/// real design are implied by the clamped row access. Each call to
/// [`GradientUnit::vote_at`] is what the combinational datapath produces
/// in the pixel's cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct GradientUnit;

impl GradientUnit {
    /// Creates the unit.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Integer centered-difference gradient at `(x, y)` with clamped
    /// borders — identical to the float reference up to type.
    #[must_use]
    pub fn gradient(&self, img: &GrayImage, x: usize, y: usize) -> (i16, i16) {
        let xi = x as isize;
        let yi = y as isize;
        let fx = i16::from(img.get_clamped(xi + 1, yi)) - i16::from(img.get_clamped(xi - 1, yi));
        let fy = i16::from(img.get_clamped(xi, yi + 1)) - i16::from(img.get_clamped(xi, yi - 1));
        (fx, fy)
    }

    /// The full per-pixel output: magnitude and split bin votes.
    #[must_use]
    pub fn vote_at(&self, img: &GrayImage, x: usize, y: usize) -> GradientVote {
        let (fx, fy) = self.gradient(img, x, y);
        vote_from_gradient(fx, fy)
    }
}

/// Computes the vote for an integer gradient.
///
/// Magnitude is the integer square root of `fx² + fy²`. The unsigned
/// orientation `θ ∈ [0, π)` is located between two bin centers with a
/// tangent-table comparison, and the Q0.8 split weight is the angular
/// distance ratio, quantized exactly as an 8-bit LUT would hold it.
#[must_use]
pub fn vote_from_gradient(fx: i16, fy: i16) -> GradientVote {
    let mag2 = u64::from(fx.unsigned_abs()) * u64::from(fx.unsigned_abs())
        + u64::from(fy.unsigned_abs()) * u64::from(fy.unsigned_abs());
    let magnitude = isqrt_u64(mag2) as u16;
    if magnitude == 0 {
        return GradientVote {
            magnitude: 0,
            bin_lo: 0,
            bin_hi: 1,
            weight_lo: WEIGHT_ONE as u16,
        };
    }

    // Unsigned angle in [0, pi): fold (fx, fy) so the half-plane is
    // consistent — negate both when fy < 0 (or fy == 0 and fx < 0).
    let (gx, gy) = if fy < 0 || (fy == 0 && fx < 0) {
        (-i32::from(fx), -i32::from(fy))
    } else {
        (i32::from(fx), i32::from(fy))
    };

    // Continuous bin coordinate. Bin centers sit at (k + 0.5) * pi / 9; the
    // hardware's LUT resolves the angle to 1/256 of a bin. We reproduce
    // that quantization through the same atan2 the LUT was built from.
    let theta = (gy as f64).atan2(gx as f64); // in [0, pi]
    let pos = theta / (std::f64::consts::PI / BINS as f64) - 0.5;
    let lower = pos.floor();
    let frac_q8 = ((pos - lower) * f64::from(WEIGHT_ONE)).round() as u32;
    let (lower, frac_q8) = if frac_q8 == WEIGHT_ONE {
        (lower + 1.0, 0)
    } else {
        (lower, frac_q8)
    };
    let bin_lo = (lower as i64).rem_euclid(BINS as i64) as u8;
    let bin_hi = (bin_lo + 1) % BINS as u8;
    GradientVote {
        magnitude,
        bin_lo,
        bin_hi,
        weight_lo: (WEIGHT_ONE - frac_q8) as u16,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_gradient_is_harmless() {
        let v = vote_from_gradient(0, 0);
        assert_eq!(v.magnitude, 0);
        assert_eq!(v.contributions(), (0, 0));
    }

    #[test]
    fn pure_horizontal_gradient_votes_bin_boundary_0() {
        // theta = 0 -> pos = -0.5 -> bins 8 and 0, split evenly.
        let v = vote_from_gradient(100, 0);
        assert_eq!(v.magnitude, 100);
        assert_eq!((v.bin_lo, v.bin_hi), (8, 0));
        assert_eq!(v.weight_lo, 128);
    }

    #[test]
    fn pure_vertical_gradient_is_center_of_bin_4() {
        // theta = pi/2 -> pos = 4.0 -> bin 4 center.
        let v = vote_from_gradient(0, 100);
        assert_eq!((v.bin_lo, v.bin_hi), (4, 5));
        assert_eq!(v.weight_lo, 256);
    }

    #[test]
    fn opposite_gradients_vote_identically() {
        // Unsigned orientation: (fx, fy) and (-fx, -fy) are the same edge.
        for (fx, fy) in [(30, 40), (-17, 91), (55, -12)] {
            let a = vote_from_gradient(fx, fy);
            let b = vote_from_gradient(-fx, -fy);
            assert_eq!(a, b, "({fx},{fy})");
        }
    }

    #[test]
    fn weights_always_sum_to_one() {
        for fx in (-255i16..=255).step_by(51) {
            for fy in (-255i16..=255).step_by(37) {
                let v = vote_from_gradient(fx, fy);
                assert!(u32::from(v.weight_lo) <= WEIGHT_ONE);
                let (lo, hi) = v.contributions();
                assert_eq!(lo + hi, u32::from(v.magnitude) * WEIGHT_ONE);
            }
        }
    }

    #[test]
    fn magnitude_is_floor_sqrt() {
        let v = vote_from_gradient(3, 4);
        assert_eq!(v.magnitude, 5);
        let v = vote_from_gradient(1, 1);
        assert_eq!(v.magnitude, 1); // floor(sqrt(2))
        let v = vote_from_gradient(255, 255);
        assert_eq!(v.magnitude, 360); // floor(sqrt(130050)) = 360
    }

    #[test]
    fn bins_match_float_reference() {
        // The integer binning must agree with the float split_vote of
        // rtped-hog for the dominant bin.
        use rtped_hog::cell::split_vote;
        use rtped_hog::gradient::fold_angle;
        let bin_width = std::f32::consts::PI / 9.0;
        for fx in (-200i16..=200).step_by(23) {
            for fy in (-200i16..=200).step_by(29) {
                if fx == 0 && fy == 0 {
                    continue;
                }
                let hw = vote_from_gradient(fx, fy);
                let angle = fold_angle((f32::from(fy)).atan2(f32::from(fx)));
                let ((fa, wa), (fb, wb)) = split_vote(angle, 1.0, 9, bin_width);
                let float_dominant = if wa >= wb { fa } else { fb };
                let hw_dominant = if hw.weight_lo >= 128 {
                    usize::from(hw.bin_lo)
                } else {
                    usize::from(hw.bin_hi)
                };
                assert_eq!(
                    hw_dominant, float_dominant,
                    "({fx},{fy}): hw {hw:?} vs float bins ({fa},{wa})/({fb},{wb})"
                );
            }
        }
    }

    #[test]
    fn gradient_matches_float_reference() {
        use rtped_hog::gradient::GradientField;
        let img = GrayImage::from_fn(12, 12, |x, y| ((x * x + y * 3) % 256) as u8);
        let unit = GradientUnit::new();
        let float_field = GradientField::compute(&img);
        for y in 0..12 {
            for x in 0..12 {
                let (fx, fy) = unit.gradient(&img, x, y);
                let hw_mag = vote_from_gradient(fx, fy).magnitude;
                let float_mag = float_field.magnitude(x, y);
                assert!(
                    (f32::from(hw_mag) - float_mag).abs() <= 1.0,
                    "({x},{y}): {hw_mag} vs {float_mag}"
                );
            }
        }
    }
}
