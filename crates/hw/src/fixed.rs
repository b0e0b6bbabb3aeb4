//! Integer square root for the hardware datapath: the gradient unit's
//! magnitude and the normalizer's L2 norm take it without a
//! floating-point unit.

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
}
