//! Block normalization schemes (paper §3.1, final HOG stage).
//!
//! Normalization across groups of adjacent cells ("blocks") suppresses
//! local brightness and contrast variation. Dalal & Triggs evaluated four
//! schemes; L2-Hys is the standard choice for pedestrians and the paper's
//! default.

/// Block normalization scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NormKind {
    /// `v / (||v||_1 + eps)`.
    L1 { epsilon: f32 },
    /// `sqrt(v / (||v||_1 + eps))`.
    L1Sqrt { epsilon: f32 },
    /// `v / sqrt(||v||_2² + eps²)`.
    L2 { epsilon: f32 },
    /// L2, clip every component at `clip`, renormalize (Dalal's L2-Hys).
    L2Hys { epsilon: f32, clip: f32 },
}

impl Default for NormKind {
    /// L2-Hys with the standard `eps = 1e-2` (relative to unit-scale
    /// energies) and `clip = 0.2`.
    fn default() -> Self {
        NormKind::L2Hys {
            epsilon: 1e-2,
            clip: 0.2,
        }
    }
}

impl NormKind {
    /// Normalizes `v` in place according to the scheme.
    ///
    /// All schemes are scale-covariant up to the epsilon regularizer and
    /// leave an all-zero vector all-zero.
    pub fn normalize(&self, v: &mut [f32]) {
        match *self {
            NormKind::L1 { epsilon } => {
                let norm: f32 = v.iter().map(|x| x.abs()).sum::<f32>() + epsilon;
                for x in v.iter_mut() {
                    *x /= norm;
                }
            }
            NormKind::L1Sqrt { epsilon } => {
                let norm: f32 = v.iter().map(|x| x.abs()).sum::<f32>() + epsilon;
                for x in v.iter_mut() {
                    *x = (*x / norm).max(0.0).sqrt();
                }
            }
            NormKind::L2 { epsilon } => {
                let norm = (v.iter().map(|x| x * x).sum::<f32>() + epsilon * epsilon).sqrt();
                for x in v.iter_mut() {
                    *x /= norm;
                }
            }
            NormKind::L2Hys { epsilon, clip } => {
                let norm = (v.iter().map(|x| x * x).sum::<f32>() + epsilon * epsilon).sqrt();
                for x in v.iter_mut() {
                    *x = (*x / norm).min(clip);
                }
                let norm2 = (v.iter().map(|x| x * x).sum::<f32>() + epsilon * epsilon).sqrt();
                for x in v.iter_mut() {
                    *x /= norm2;
                }
            }
        }
    }

    /// Returns a normalized copy of `v`.
    #[must_use]
    pub fn normalized(&self, v: &[f32]) -> Vec<f32> {
        let mut out = v.to_vec();
        self.normalize(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l2(v: &[f32]) -> f32 {
        v.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    fn sample() -> Vec<f32> {
        vec![3.0, 4.0, 0.0, 1.0, 2.0, 0.5, 0.0, 0.0, 1.5]
    }

    #[test]
    fn l2_normalized_has_near_unit_norm() {
        let mut v = sample();
        NormKind::L2 { epsilon: 1e-3 }.normalize(&mut v);
        assert!((l2(&v) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn l1_normalized_sums_to_one() {
        let mut v = sample();
        NormKind::L1 { epsilon: 1e-3 }.normalize(&mut v);
        let sum: f32 = v.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3);
    }

    #[test]
    fn l1_sqrt_components_are_sqrt_of_l1() {
        let v = sample();
        let l1 = NormKind::L1 { epsilon: 1e-3 }.normalized(&v);
        let l1s = NormKind::L1Sqrt { epsilon: 1e-3 }.normalized(&v);
        for (a, b) in l1.iter().zip(&l1s) {
            assert!((a.max(0.0).sqrt() - b).abs() < 1e-5);
        }
    }

    #[test]
    fn l2hys_clips_dominant_components() {
        // One huge component: after L2-Hys it must not exceed clip by much
        // (the renormalization can push it slightly above clip/norm2 but
        // never above clip / (clip) = 1; check against plain L2 instead).
        let mut v = vec![100.0, 1.0, 1.0, 1.0];
        let norm = NormKind::L2Hys {
            epsilon: 1e-3,
            clip: 0.2,
        };
        norm.normalize(&mut v);
        // Clipping caps the dominant component's share *before* the second
        // normalization, so the small components gain relative weight: the
        // small/large ratio grows from 0.01 (plain L2) to ~0.05.
        let plain = NormKind::L2 { epsilon: 1e-3 }.normalized(&[100.0, 1.0, 1.0, 1.0]);
        assert!(v[1] / v[0] > 3.0 * plain[1] / plain[0]);
        assert!(v[0] <= 1.0 + 1e-5);
        assert!((l2(&v) - 1.0).abs() < 0.05);
    }

    #[test]
    fn all_schemes_leave_zero_vector_zero() {
        for norm in [
            NormKind::L1 { epsilon: 1e-2 },
            NormKind::L1Sqrt { epsilon: 1e-2 },
            NormKind::L2 { epsilon: 1e-2 },
            NormKind::default(),
        ] {
            let mut v = vec![0.0f32; 9];
            norm.normalize(&mut v);
            assert!(v.iter().all(|&x| x == 0.0), "{norm:?} created energy");
        }
    }

    #[test]
    fn normalization_is_scale_invariant_for_large_inputs() {
        // For inputs far above epsilon, scaling the input must not change
        // the output.
        let v1: Vec<f32> = sample().iter().map(|x| x * 100.0).collect();
        let v2: Vec<f32> = sample().iter().map(|x| x * 500.0).collect();
        for norm in [
            NormKind::L1 { epsilon: 1e-2 },
            NormKind::L2 { epsilon: 1e-2 },
            NormKind::default(),
        ] {
            let n1 = norm.normalized(&v1);
            let n2 = norm.normalized(&v2);
            for (a, b) in n1.iter().zip(&n2) {
                assert!((a - b).abs() < 1e-3, "{norm:?} not scale invariant");
            }
        }
    }

    #[test]
    fn default_is_l2hys_with_standard_constants() {
        match NormKind::default() {
            NormKind::L2Hys { epsilon, clip } => {
                assert!((clip - 0.2).abs() < 1e-9);
                assert!(epsilon > 0.0);
            }
            other => panic!("unexpected default {other:?}"),
        }
    }
}
