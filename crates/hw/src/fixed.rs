//! Q-format fixed-point arithmetic for the hardware datapath.
//!
//! The accelerator's feature datapath uses a signed Q-format with a
//! compile-time fractional width. Arithmetic saturates instead of wrapping
//! (the safe synthesis choice for accumulating datapaths).

/// A signed fixed-point number with `FRAC` fractional bits in an `i32`.
///
/// `Q0.15` (features), `Q4.12` (weights), etc. are all instances of this
/// one generic type.
///
/// # Example
///
/// ```
/// use rtped_hw::fixed::Fx;
///
/// let a = Fx::<15>::from_f32(0.5);
/// let b = Fx::<15>::from_f32(0.25);
/// assert!((a.add(b).to_f32() - 0.75).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fx<const FRAC: u32>(i32);

// The arithmetic methods intentionally shadow the std::ops names: they
// are *saturating*, so implementing the `Add`/`Sub` traits (whose
// contract is plain arithmetic) would be misleading at call sites.
#[allow(clippy::should_implement_trait)]
impl<const FRAC: u32> Fx<FRAC> {
    /// The representable maximum.
    pub const MAX: Self = Self(i32::MAX);
    /// The representable minimum.
    pub const MIN: Self = Self(i32::MIN);
    /// Zero.
    pub const ZERO: Self = Self(0);

    /// Wraps a raw register value.
    #[must_use]
    pub fn from_raw(raw: i32) -> Self {
        Self(raw)
    }

    /// The raw register value.
    #[must_use]
    pub fn raw(self) -> i32 {
        self.0
    }

    /// Quantizes a float (round-to-nearest, saturating).
    #[must_use]
    pub fn from_f32(value: f32) -> Self {
        let scaled = (f64::from(value) * (1u64 << FRAC) as f64).round();
        Self(scaled.clamp(f64::from(i32::MIN), f64::from(i32::MAX)) as i32)
    }

    /// Converts back to float (exact).
    #[must_use]
    pub fn to_f32(self) -> f32 {
        (f64::from(self.0) / (1u64 << FRAC) as f64) as f32
    }

    /// Saturating addition.
    #[must_use]
    pub fn add(self, rhs: Self) -> Self {
        Self(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[must_use]
    pub fn sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }

    /// Clamps to `[lo, hi]`.
    #[must_use]
    pub fn clamp(self, lo: Self, hi: Self) -> Self {
        Self(self.0.clamp(lo.0, hi.0))
    }

    /// Minimum of two values.
    #[must_use]
    pub fn min(self, rhs: Self) -> Self {
        Self(self.0.min(rhs.0))
    }
}

impl<const FRAC: u32> std::fmt::Display for Fx<FRAC> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

/// Integer square root of a `u64` (the largest `r` with `r² <= value`) —
/// the bit-serial restoring algorithm hardware magnitude units implement.
#[must_use]
pub fn isqrt_u64(value: u64) -> u64 {
    if value == 0 {
        return 0;
    }
    let mut rem = value;
    let mut root = 0u64;
    // Start at the highest even bit position.
    let mut bit = 1u64 << ((63 - value.leading_zeros() as u64) & !1);
    while bit != 0 {
        if rem >= root + bit {
            rem -= root + bit;
            root = (root >> 1) + bit;
        } else {
            root >>= 1;
        }
        bit >>= 2;
    }
    root
}

#[cfg(test)]
mod tests {
    use super::*;

    type Q15 = Fx<15>;
    type Q12 = Fx<12>;

    #[test]
    fn roundtrip_is_tight() {
        for v in [-1.0f32, -0.5, 0.0, 0.125, 0.2, 0.999, 1.0] {
            let q = Q15::from_f32(v);
            assert!((q.to_f32() - v).abs() < 1.0 / 32768.0 + 1e-7, "{v}");
        }
    }

    #[test]
    fn add_saturates() {
        let big = Q15::from_raw(i32::MAX - 1);
        assert_eq!(big.add(big), Q15::MAX);
        let small = Q15::from_raw(i32::MIN + 1);
        assert_eq!(small.add(small), Q15::MIN);
    }

    #[test]
    fn clamp_and_min() {
        let v = Q15::from_f32(0.9);
        let clip = Q15::from_f32(0.2);
        assert_eq!(v.min(clip), clip);
        assert_eq!(v.clamp(Q15::ZERO, clip), clip);
        assert_eq!(Q15::from_f32(-0.5).clamp(Q15::ZERO, clip), Q15::ZERO);
    }

    #[test]
    fn isqrt_exact_squares() {
        for r in [0u64, 1, 2, 3, 255, 361, 65535, 1 << 20] {
            assert_eq!(isqrt_u64(r * r), r);
        }
    }

    #[test]
    fn isqrt_is_floor() {
        assert_eq!(isqrt_u64(2), 1);
        assert_eq!(isqrt_u64(3), 1);
        assert_eq!(isqrt_u64(8), 2);
        assert_eq!(isqrt_u64(u64::MAX), (1u64 << 32) - 1);
    }

    #[test]
    fn isqrt_brute_check_small_range() {
        for v in 0u64..10_000 {
            let r = isqrt_u64(v);
            assert!(r * r <= v);
            assert!((r + 1) * (r + 1) > v);
        }
    }

    #[test]
    fn display_prints_float_value() {
        assert_eq!(format!("{}", Q12::from_f32(0.25)), "0.25");
    }
}
