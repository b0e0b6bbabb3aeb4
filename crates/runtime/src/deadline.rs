//! Per-frame deadline budgets and the virtual cost model that enforces
//! them deterministically.
//!
//! # Deadline derivation
//!
//! The paper's §1 derives the whole detection requirement from
//! perception-reaction arithmetic: the driver needs a nominal PRT of
//! 1.5 s ([`DasParams::reaction_time_s`]), and detection latency eats
//! directly into that budget. §4's hardware keeps latency near 1% of the
//! PRT (16.6 ms HDTV stream time against 1.5 s), so the software runtime
//! adopts the same contract: a frame's compute budget is
//! [`PRT_FRACTION`] (1%) of the PRT — **15 ms** with default
//! [`DasParams`]. Operators can override it with the `RTPED_DEADLINE_MS`
//! environment variable ([`DEADLINE_ENV`]), which
//! `RuntimeConfigBuilder::env_overrides` reads.
//!
//! # Why a *modeled* cost, not the wall clock
//!
//! The degradation controller must make bit-identical decisions across
//! runs, hosts, and `RTPED_THREADS` values — otherwise a robustness
//! report is unreproducible noise. Wall-clock time cannot do that, so
//! latency is *modeled*: a [`CostModel`] charges fixed rates per
//! megapixel extracted and per thousand windows scanned (calibrated to
//! the same order of magnitude as the committed `BENCH_detect.json`
//! single-core numbers), and injected delivery delays add on top. The
//! model is the runtime's scheduling clock; the real wall clock is
//! reported by the benchmarks, not consumed by control decisions.

use rtped_detect::das::DasParams;
use rtped_detect::detector::{DetectorConfig, ScanProfile};

/// Environment variable overriding the per-frame deadline (milliseconds,
/// parsed as `f64`; non-positive or unparsable values are ignored).
pub const DEADLINE_ENV: &str = "RTPED_DEADLINE_MS";

/// Fraction of the perception-reaction time a single frame may consume.
pub const PRT_FRACTION: f64 = 0.01;

/// The per-frame compute budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineBudget {
    /// Budget per frame in milliseconds.
    pub frame_budget_ms: f64,
}

impl DeadlineBudget {
    /// An explicit budget in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics unless `ms` is finite and positive.
    #[must_use]
    pub fn from_ms(ms: f64) -> Self {
        assert!(ms.is_finite() && ms > 0.0, "budget must be positive");
        Self {
            frame_budget_ms: ms,
        }
    }

    /// The budget derived from driver-assistance arithmetic:
    /// `PRT × PRT_FRACTION` — 15 ms for the paper's nominal 1.5 s PRT.
    #[must_use]
    pub fn from_das(das: &DasParams) -> Self {
        Self::from_ms(das.reaction_time_s * 1000.0 * PRT_FRACTION)
    }
}

impl Default for DeadlineBudget {
    fn default() -> Self {
        Self::from_das(&DasParams::default())
    }
}

/// Virtual per-frame compute cost: deterministic stand-in for the wall
/// clock (see the module docs for why).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of HOG extraction per megapixel of input, in milliseconds.
    pub extract_ms_per_megapixel: f64,
    /// Cost of classification per thousand scanned windows, in
    /// milliseconds.
    pub scan_ms_per_kilowindow: f64,
}

impl Default for CostModel {
    /// Rates on the order of the committed single-core software
    /// benchmarks: ~25 ms/MP extraction, ~1 ms per 1000 windows scanned.
    fn default() -> Self {
        Self {
            extract_ms_per_megapixel: 25.0,
            scan_ms_per_kilowindow: 1.0,
        }
    }
}

impl CostModel {
    /// Number of windows a scan visits for a `width × height` frame under
    /// `config` as shed by `profile`. Mirrors `scan_level`'s geometry
    /// (cells = scaled dimension / cell size, floor; windows per axis =
    /// `(cells - window_cells) / stride + 1` when it fits).
    #[must_use]
    pub fn scan_windows(
        &self,
        width: usize,
        height: usize,
        config: &DetectorConfig,
        profile: &ScanProfile,
    ) -> usize {
        let effective = profile.effective(config);
        let cell = effective.params.cell_size();
        let (wc, hc) = effective.params.window_cells();
        let stride = effective.stride_cells;
        let mut windows = 0usize;
        for &scale in &effective.scales {
            let gx = ((width as f64 / scale) as usize) / cell;
            let gy = ((height as f64 / scale) as usize) / cell;
            if gx < wc || gy < hc {
                continue;
            }
            let cols = (gx - wc) / stride + 1;
            let rows = (gy - hc) / stride + 1;
            windows += cols * rows;
        }
        windows
    }

    /// Modeled compute time for one frame in milliseconds: extraction on
    /// the full frame plus scanning every surviving window.
    #[must_use]
    pub fn frame_cost_ms(
        &self,
        width: usize,
        height: usize,
        config: &DetectorConfig,
        profile: &ScanProfile,
    ) -> f64 {
        let megapixels = (width * height) as f64 / 1.0e6;
        let kilowindows = self.scan_windows(width, height, config, profile) as f64 / 1000.0;
        megapixels * self.extract_ms_per_megapixel + kilowindows * self.scan_ms_per_kilowindow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_one_percent_of_prt() {
        let budget = DeadlineBudget::from_das(&DasParams::default());
        assert!((budget.frame_budget_ms - 15.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn zero_budget_rejected() {
        let _ = DeadlineBudget::from_ms(0.0);
    }

    #[test]
    fn shedding_reduces_modeled_cost_monotonically() {
        let model = CostModel::default();
        let config = DetectorConfig::two_scale();
        let full = model.frame_cost_ms(480, 360, &config, &ScanProfile::full());
        let two = model.frame_cost_ms(
            480,
            360,
            &config,
            &ScanProfile {
                max_scales: Some(1),
                stride_factor: 1,
            },
        );
        let coarse = model.frame_cost_ms(
            480,
            360,
            &config,
            &ScanProfile {
                max_scales: Some(1),
                stride_factor: 2,
            },
        );
        assert!(full > two, "{full} vs {two}");
        assert!(two > coarse, "{two} vs {coarse}");
        // The worked example from the design: a 480x360 two-scale scan
        // fits the 15 ms default budget with room to spare...
        assert!(full < 15.0, "full cost {full} must fit the budget");
        // ...but a 12 ms injected delay on top blows it.
        assert!(full + 12.0 > 15.0);
    }

    #[test]
    fn scan_windows_matches_hand_count() {
        let model = CostModel::default();
        let mut config = DetectorConfig::two_scale();
        config.scales = vec![1.0];
        // 128x192 -> 16x24 cells, 8x16-cell window, stride 1:
        // (16-8)/1+1 = 9 cols, (24-16)/1+1 = 9 rows.
        let n = model.scan_windows(128, 192, &config, &ScanProfile::full());
        assert_eq!(n, 81);
        // Stride factor 2: ceil(9/2) = 5 per axis.
        let coarse = model.scan_windows(
            128,
            192,
            &config,
            &ScanProfile {
                max_scales: None,
                stride_factor: 2,
            },
        );
        assert_eq!(coarse, 25);
    }
}
