//! MACBAR: the 16-lane multiply-accumulate bar (paper Fig. 7).
//!
//! Each MACBAR holds 16 MAC units working in parallel, "each fed with a
//! model data and data feature separately". One MACBAR processes one
//! window column — 16 cells tall, each MAC owning one cell — and walks
//! the 36 features of its cell in 36 cycles. Accumulators are 48-bit with
//! saturation, matching DSP48 semantics.

/// Number of MAC lanes per bar.
pub const LANES: usize = 16;

/// 48-bit accumulator limits (DSP48 P register).
pub const ACC_MAX: i64 = (1 << 47) - 1;
/// Negative accumulator limit.
pub const ACC_MIN: i64 = -(1 << 47);

/// A single multiply-accumulate unit with a 48-bit saturating accumulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mac {
    acc: i64,
}

impl Mac {
    /// Creates a cleared MAC.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// `acc += feature * weight` with 48-bit saturation. `feature` is
    /// Q0.15, `weight` Q4.12; the product is Q4.27.
    pub fn mac(&mut self, feature: i32, weight: i32) {
        let product = i64::from(feature).wrapping_mul(i64::from(weight));
        self.acc = self.acc.saturating_add(product).clamp(ACC_MIN, ACC_MAX);
    }

    /// The accumulated value (Q4.27 when fed Q0.15 × Q4.12).
    #[must_use]
    pub fn value(&self) -> i64 {
        self.acc
    }

    /// Clears the accumulator.
    pub fn clear(&mut self) {
        self.acc = 0;
    }

    /// Flips one bit (`0..48`) of the 48-bit accumulator register — the
    /// soft-error injection hook for the P register. The result is
    /// re-interpreted as a sign-extended 48-bit value, exactly what the
    /// hardware register would hold after the upset.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 48`.
    pub fn flip_acc_bit(&mut self, bit: u32) {
        assert!(bit < 48, "accumulator is 48 bits wide");
        let raw = (self.acc as u64) ^ 1u64.wrapping_shl(bit);
        self.acc = ((raw << 16) as i64) >> 16;
    }
}

/// The 16-lane bar.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MacBar {
    lanes: [Mac; LANES],
    cycles: u64,
}

impl MacBar {
    /// Creates a cleared bar.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// One clock cycle: every lane multiplies its feature by its weight
    /// and accumulates.
    ///
    /// # Panics
    ///
    /// Panics if the slices are not exactly [`LANES`] long.
    pub fn step(&mut self, features: &[i32], weights: &[i32]) {
        assert_eq!(features.len(), LANES, "need one feature per lane");
        assert_eq!(weights.len(), LANES, "need one weight per lane");
        for ((lane, &f), &w) in self.lanes.iter_mut().zip(features).zip(weights) {
            lane.mac(f, w);
        }
        self.cycles += 1;
    }

    /// Processes one window column: `column[lane * per_lane + k]` features
    /// against the matching weights, `per_lane` cycles (36 in the design).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths are not `LANES * per_lane`.
    pub fn process_column(&mut self, column: &[i32], weights: &[i32], per_lane: usize) {
        assert_eq!(column.len(), LANES * per_lane, "column size mismatch");
        assert_eq!(weights.len(), LANES * per_lane, "weight size mismatch");
        let mut f_cycle = [0i32; LANES];
        let mut w_cycle = [0i32; LANES];
        for k in 0..per_lane {
            for lane in 0..LANES {
                f_cycle[lane] = column[lane * per_lane + k];
                w_cycle[lane] = weights[lane * per_lane + k];
            }
            self.step(&f_cycle, &w_cycle);
        }
    }

    /// Sum of all lane accumulators (the bar's adder tree output).
    #[must_use]
    pub fn reduce(&self) -> i64 {
        self.lanes.iter().map(Mac::value).sum()
    }

    /// Clears all lanes.
    pub fn clear(&mut self) {
        for lane in &mut self.lanes {
            lane.clear();
        }
    }

    /// Cycles consumed since construction.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Flips one accumulator bit of one lane — the unprotected bar's
    /// soft-error injection hook (the upset lands and nothing notices).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 16` or `bit >= 48`.
    pub fn flip_acc_bit(&mut self, lane: usize, bit: u32) {
        assert!(lane < LANES, "lane out of range");
        self.lanes[lane].flip_acc_bit(bit);
    }
}

/// A lane whose redundant computations diverged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacMismatch {
    /// The diverging lane.
    pub lane: usize,
    /// Primary accumulator value.
    pub primary: i64,
    /// Shadow accumulator value.
    pub shadow: i64,
}

impl std::fmt::Display for MacMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MAC lane {} diverged: primary {} vs shadow {}",
            self.lane, self.primary, self.shadow
        )
    }
}

/// Duplicate-and-compare MACBAR: the checked datapath variant.
///
/// Every step drives a primary and a shadow bar with the same operands;
/// [`CheckedMacBar::verify`] compares the two accumulator files lane by
/// lane. A soft error in one copy (injected via
/// [`CheckedMacBar::inject_acc_flip`], which models an upset in the
/// primary's P register) makes the copies diverge and the window score is
/// flagged instead of silently wrong. Outputs come from the primary, so
/// with no upsets the checked bar is bit-identical to [`MacBar`].
///
/// Built with the check disarmed, the bar carries no shadow copy at all:
/// it does exactly the plain [`MacBar`]'s MAC work and never reports a
/// mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckedMacBar {
    primary: MacBar,
    shadow: Option<MacBar>,
}

impl CheckedMacBar {
    /// Creates a cleared bar, with its shadow copy when `checked`.
    #[must_use]
    pub fn new(checked: bool) -> Self {
        Self {
            primary: MacBar::new(),
            shadow: checked.then(MacBar::new),
        }
    }

    /// One clock cycle on both copies.
    ///
    /// # Panics
    ///
    /// Panics if the slices are not exactly [`LANES`] long.
    pub fn step(&mut self, features: &[i32], weights: &[i32]) {
        self.primary.step(features, weights);
        if let Some(shadow) = &mut self.shadow {
            shadow.step(features, weights);
        }
    }

    /// Processes one window column on both copies.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths are not `LANES * per_lane`.
    pub fn process_column(&mut self, column: &[i32], weights: &[i32], per_lane: usize) {
        self.primary.process_column(column, weights, per_lane);
        if let Some(shadow) = &mut self.shadow {
            shadow.process_column(column, weights, per_lane);
        }
    }

    /// Flips an accumulator bit in the *primary* copy only — the injected
    /// upset the compare stage exists to catch.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 16` or `bit >= 48`.
    pub fn inject_acc_flip(&mut self, lane: usize, bit: u32) {
        self.primary.flip_acc_bit(lane, bit);
    }

    /// Compares the two accumulator files; the first diverging lane wins.
    /// A bar without a shadow copy has nothing to compare and passes.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index [`MacMismatch`] when the copies disagree.
    pub fn verify(&self) -> Result<(), MacMismatch> {
        let Some(shadow) = &self.shadow else {
            return Ok(());
        };
        for (lane, (p, s)) in self.primary.lanes.iter().zip(&shadow.lanes).enumerate() {
            if p.value() != s.value() {
                return Err(MacMismatch {
                    lane,
                    primary: p.value(),
                    shadow: s.value(),
                });
            }
        }
        Ok(())
    }

    /// The primary bar's adder-tree output.
    #[must_use]
    pub fn reduce(&self) -> i64 {
        self.primary.reduce()
    }

    /// Clears both copies.
    pub fn clear(&mut self) {
        self.primary.clear();
        if let Some(shadow) = &mut self.shadow {
            shadow.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_accumulates_products() {
        let mut mac = Mac::new();
        mac.mac(100, 200);
        mac.mac(-50, 10);
        assert_eq!(mac.value(), 100 * 200 - 500);
        mac.clear();
        assert_eq!(mac.value(), 0);
    }

    #[test]
    fn mac_saturates_at_48_bits() {
        let mut mac = Mac::new();
        // Q0.15 max * Q4.12 max = 32767 * 32767 ~= 1.07e9 per step; need
        // ~1.3e5 steps to reach 2^47. Drive with synthetic large products.
        for _ in 0..200_000 {
            mac.mac(32767, 32767);
        }
        assert_eq!(mac.value(), ACC_MAX);
        let mut mac = Mac::new();
        for _ in 0..200_000 {
            mac.mac(-32768, 32767);
        }
        assert_eq!(mac.value(), ACC_MIN);
    }

    #[test]
    fn bar_step_feeds_every_lane() {
        let mut bar = MacBar::new();
        let features: Vec<i32> = (0..16).collect();
        let weights: Vec<i32> = vec![2; 16];
        bar.step(&features, &weights);
        // Sum of 2 * (0 + 1 + ... + 15) = 240.
        assert_eq!(bar.reduce(), 240);
        assert_eq!(bar.cycles(), 1);
    }

    #[test]
    fn process_column_equals_dot_product() {
        let per_lane = 36;
        let column: Vec<i32> = (0..16 * per_lane).map(|i| (i % 97) as i32 - 48).collect();
        let weights: Vec<i32> = (0..16 * per_lane).map(|i| (i % 53) as i32 - 26).collect();
        let mut bar = MacBar::new();
        bar.process_column(&column, &weights, per_lane);
        let expected: i64 = column
            .iter()
            .zip(&weights)
            .map(|(&f, &w)| i64::from(f) * i64::from(w))
            .sum();
        assert_eq!(bar.reduce(), expected);
        assert_eq!(bar.cycles(), per_lane as u64);
    }

    #[test]
    #[should_panic(expected = "need one feature per lane")]
    fn step_checks_lane_count() {
        let mut bar = MacBar::new();
        bar.step(&[0; 15], &[0; 16]);
    }

    #[test]
    fn clear_resets_accumulators_not_cycles() {
        let mut bar = MacBar::new();
        bar.step(&[1; 16], &[1; 16]);
        bar.clear();
        assert_eq!(bar.reduce(), 0);
        assert_eq!(bar.cycles(), 1);
    }

    #[test]
    fn acc_flip_is_its_own_inverse_and_sign_extends() {
        let mut mac = Mac::new();
        mac.mac(100, 200);
        let before = mac.value();
        mac.flip_acc_bit(13);
        assert_ne!(mac.value(), before);
        mac.flip_acc_bit(13);
        assert_eq!(mac.value(), before);
        // Flipping the sign bit of a zero accumulator yields the most
        // negative 48-bit value, not a positive 2^47.
        let mut mac = Mac::new();
        mac.flip_acc_bit(47);
        assert_eq!(mac.value(), ACC_MIN);
    }

    #[test]
    fn checked_bar_matches_plain_bar_bit_for_bit() {
        let per_lane = 36;
        let column: Vec<i32> = (0..16 * per_lane).map(|i| (i % 89) as i32 - 44).collect();
        let weights: Vec<i32> = (0..16 * per_lane).map(|i| (i % 61) as i32 - 30).collect();
        let mut plain = MacBar::new();
        let mut checked = CheckedMacBar::new(true);
        plain.process_column(&column, &weights, per_lane);
        checked.process_column(&column, &weights, per_lane);
        assert_eq!(checked.reduce(), plain.reduce());
        assert_eq!(checked.verify(), Ok(()));
    }

    #[test]
    fn unchecked_bar_has_no_shadow_and_never_flags() {
        let mut unchecked = CheckedMacBar::new(false);
        assert!(unchecked.shadow.is_none());
        unchecked.step(&[3; 16], &[5; 16]);
        unchecked.inject_acc_flip(7, 20);
        // The upset lands in the output, and nothing notices.
        assert_eq!(unchecked.verify(), Ok(()));
        assert_eq!(unchecked.reduce(), 15 * 16 + (1 << 20));
    }

    #[test]
    fn checked_bar_catches_an_injected_upset() {
        let mut checked = CheckedMacBar::new(true);
        checked.step(&[3; 16], &[5; 16]);
        checked.inject_acc_flip(7, 20);
        let mismatch = checked.verify().unwrap_err();
        assert_eq!(mismatch.lane, 7);
        assert_eq!(mismatch.shadow, 15);
        assert_eq!(mismatch.primary, 15 ^ (1 << 20));
        assert!(mismatch.to_string().contains("lane 7"));
        // Clearing both copies restores agreement.
        checked.clear();
        assert_eq!(checked.verify(), Ok(()));
    }
}
