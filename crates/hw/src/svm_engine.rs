//! The pipelined SVM classification engine (paper §5, Fig. 8).
//!
//! Eight MACBAR units process the eight cell columns of a detection
//! window. After an initial **288-cycle** buffer fill per cell row
//! (8 columns × 36 cycles), one window column is read from `NHOGMem`
//! every **36 cycles** (two block columns per 72 cycles through the four
//! LU/RU/LB/RB feature groups), so a fully pipelined window result
//! retires every 36 cycles. For an HDTV frame (240×135 cells):
//!
//! ```text
//! cycles = 135 rows × (288 + 239 × 36) = 1,200,420
//! ```
//!
//! — the paper's exact per-frame count, under 10 ms at 125 MHz. The
//! schedule itself lives in [`ShardGeometry`], which derives these
//! numbers at the paper's design point.

use std::ops::Range;

use rtped_core::{Rng, SeedRng};
use rtped_svm::LinearSvm;

use crate::ecc::{EccMode, EccStats};
use crate::integrity::SoftErrorDose;
use crate::macbar::{CheckedMacBar, LANES};
use crate::nhog_mem::NhogMem;
use crate::norm_unit::{HwFeatureMap, CELL_FEATURES};
use crate::shard::ShardGeometry;

/// Number of pipelined MACBAR units (one per window cell column).
pub const MACBARS: usize = 8;
/// Window size in cells (width, height).
pub const WINDOW_CELLS: (usize, usize) = (8, 16);

/// Fractional bits of the quantized weights (Q4.12).
pub const WEIGHT_FRAC: u32 = 12;
/// Fractional bits of a raw engine score (Q0.15 features × Q4.12 weights).
pub const SCORE_FRAC: u32 = 15 + WEIGHT_FRAC;

/// The SVM model quantized for the hardware model memory.
///
/// Weights are Q4.12 (saturated to the i16 range, ±8), the bias is
/// pre-scaled to the accumulator format Q4.27 so it adds directly onto
/// the MACBAR output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantizedModel {
    weights: Vec<i32>,
    bias: i64,
}

impl QuantizedModel {
    /// Quantizes a trained float model.
    ///
    /// # Panics
    ///
    /// Panics if the model has zero dimensionality.
    #[must_use]
    pub fn from_svm(model: &LinearSvm) -> Self {
        let scale = f64::from(1u32 << WEIGHT_FRAC);
        let limit = f64::from(i32::from(i16::MAX));
        let weights = model
            .weights()
            .iter()
            .map(|&w| (w * scale).round().clamp(-limit - 1.0, limit) as i32)
            .collect();
        let bias = (model.bias() * (1u64 << SCORE_FRAC) as f64).round() as i64;
        Self { weights, bias }
    }

    /// Feature dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.weights.len()
    }

    /// The Q4.12 weights.
    #[must_use]
    pub fn weights(&self) -> &[i32] {
        &self.weights
    }

    /// The Q4.27 bias.
    #[must_use]
    pub fn bias(&self) -> i64 {
        self.bias
    }

    /// Converts a raw engine score to float.
    #[must_use]
    pub fn score_to_f64(raw: i64) -> f64 {
        raw as f64 / (1u64 << SCORE_FRAC) as f64
    }

    /// Converts a float threshold to the raw score domain.
    #[must_use]
    pub fn threshold_to_raw(threshold: f64) -> i64 {
        (threshold * (1u64 << SCORE_FRAC) as f64).round() as i64
    }
}

/// Window strips of `map`: one per cell row a 16-cell-tall window can
/// start at (0 when the map is shorter than a window).
#[must_use]
pub fn window_strips(map: &HwFeatureMap) -> usize {
    (map.cells().1 + 1).saturating_sub(WINDOW_CELLS.1)
}

/// One classified window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowScore {
    /// Top-left cell x of the window.
    pub cx: usize,
    /// Top-left cell y of the window.
    pub cy: usize,
    /// Raw Q4.27 decision value (`w·x + b`).
    pub raw: i64,
}

/// One row-strip's schedule observation (for the pipeline watchdog).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripObservation {
    /// Top cell row of the strip.
    pub strip: usize,
    /// Windows the strip retired.
    pub windows: usize,
    /// Cycles the strip consumed (the 288 + (n−1)·36 budget plus any
    /// injected stall).
    pub observed_cycles: u64,
}

/// What one [`SvmEngine::classify_band`] run produced: the scores plus
/// everything its integrity surface observed.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineIntegrity {
    /// Raw window scores in raster order (independent of the protection
    /// settings when nothing was injected).
    pub scores: Vec<WindowScore>,
    /// SECDED counters of the engine's `NHOGMem`.
    pub ecc: EccStats,
    /// Windows whose checked-MACBAR copies diverged.
    pub macbar_mismatches: u64,
    /// `(cx, cy)` of each diverged window, in raster order.
    pub flagged_windows: Vec<(usize, usize)>,
    /// Single-bit memory upsets actually applied.
    pub injected_mem_flips: u32,
    /// Double-bit memory upsets actually applied.
    pub injected_mem_double_flips: u32,
    /// Accumulator upsets actually applied.
    pub injected_acc_flips: u32,
    /// Stall cycles actually applied to the schedule.
    pub injected_stall_cycles: u64,
    /// Per-strip schedule observations, in strip order.
    pub strips: Vec<StripObservation>,
}

/// One scheduled memory upset: strip placement plus raw draws resolved
/// against the strip's readable words at injection time.
#[derive(Debug, Clone, Copy)]
struct MemShot {
    strip: usize,
    word_draw: u64,
    bit_draw: u64,
    second_bit_draw: u64,
    double: bool,
}

/// One scheduled accumulator upset.
#[derive(Debug, Clone, Copy)]
struct AccShot {
    strip: usize,
    window_draw: u64,
    bar: usize,
    lane: usize,
    bit: u32,
}

/// The classification engine for one shard geometry (the paper's
/// single-instance design is [`ShardGeometry::paper`], the default).
#[derive(Debug, Clone, Default)]
pub struct SvmEngine {
    geometry: ShardGeometry,
}

impl SvmEngine {
    /// Creates the engine at the paper's geometry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the engine for an explicit shard geometry. The geometry
    /// parameterizes the cycle model and the feature-memory capacity;
    /// scores are bit-identical across geometries (the dot product does
    /// not depend on how many banks or MACBARs compute it).
    #[must_use]
    pub fn with_geometry(geometry: ShardGeometry) -> Self {
        Self { geometry }
    }

    /// Per-window-column weight slices: column j of the window covers
    /// cells (j, 0..16); its weights are the model entries of those
    /// cells. Feature order inside a column matches
    /// `NhogMem::read_window_column`: cell-major top to bottom.
    fn column_weights(model: &QuantizedModel) -> Vec<Vec<i32>> {
        let (wc, hc) = WINDOW_CELLS;
        (0..wc)
            .map(|j| {
                let mut w = Vec::with_capacity(hc * CELL_FEATURES);
                for row in 0..hc {
                    let base = (row * wc + j) * CELL_FEATURES;
                    w.extend_from_slice(&model.weights()[base..base + CELL_FEATURES]);
                }
                w
            })
            .collect()
    }

    /// Classifies the window strips `strips` of `map` — the engine's one
    /// entry point. The feature rows stream through a private `NHOGMem`
    /// ring under `ecc` (starting at the band's first row) and the MACBAR
    /// pipeline, duplicated when `checked_macbar` is set, while a
    /// deterministic [`SoftErrorDose`] is injected along the way. Scores
    /// come back in raster order with absolute strip coordinates, so
    /// concatenating band results in band order reproduces the whole-map
    /// scan (`0..` the map's strip count) bit-identically.
    ///
    /// With an empty dose the scores are **bit-identical** under every
    /// protection setting — the protection machinery never perturbs a
    /// clean datapath.
    ///
    /// Injection placement derives entirely from `dose.seed`, in a fixed
    /// draw order (memory singles, memory doubles, accumulators, stall),
    /// so a dose strikes the same bits on every run and thread count, and
    /// every draw lands inside the band. Memory upsets land in words of
    /// the row strip being processed — words the schedule is guaranteed
    /// to read — so a correctable upset is always exercised and a double
    /// upset can never slip out of the ring unobserved.
    ///
    /// # Panics
    ///
    /// Panics if `model.dim() != 4608` (the 8×16-cell window) or the
    /// band exceeds the map's strip range.
    #[must_use]
    pub fn classify_band(
        &self,
        map: &HwFeatureMap,
        model: &QuantizedModel,
        ecc: EccMode,
        checked_macbar: bool,
        dose: &SoftErrorDose,
        strips: Range<usize>,
    ) -> EngineIntegrity {
        let (wc, hc) = WINDOW_CELLS;
        assert_eq!(
            model.dim(),
            wc * hc * CELL_FEATURES,
            "model does not match the 8x16-cell window"
        );
        let (cells_x, cells_y) = map.cells();
        let (strip_lo, strip_hi) = (strips.start, strips.end);
        let mut out = EngineIntegrity {
            scores: Vec::new(),
            ecc: EccStats::default(),
            macbar_mismatches: 0,
            flagged_windows: Vec::new(),
            injected_mem_flips: 0,
            injected_mem_double_flips: 0,
            injected_acc_flips: 0,
            injected_stall_cycles: 0,
            strips: Vec::new(),
        };
        if cells_x < wc || cells_y < hc || strip_lo >= strip_hi {
            return out;
        }
        assert!(
            strip_hi <= cells_y - hc + 1,
            "band exceeds the map's strip range"
        );
        let windows_per_strip = cells_x - wc + 1;
        let strip_budget = self.geometry.strip_cycles(cells_x);

        // Fixed draw order: memory singles, memory doubles, accumulator
        // flips, stall placement. Raw word/bit draws resolve modulo the
        // strip's readable word count at injection time.
        let mut rng = SeedRng::seed_from_u64(dose.seed);
        let mut mem_shots = Vec::new();
        for _ in 0..dose.mem_flips {
            mem_shots.push(MemShot {
                strip: rng.gen_range(strip_lo..strip_hi),
                word_draw: rng.next_u64(),
                bit_draw: rng.next_u64(),
                second_bit_draw: 0,
                double: false,
            });
        }
        for _ in 0..dose.mem_double_flips {
            mem_shots.push(MemShot {
                strip: rng.gen_range(strip_lo..strip_hi),
                word_draw: rng.next_u64(),
                bit_draw: rng.next_u64(),
                second_bit_draw: rng.next_u64(),
                double: true,
            });
        }
        let acc_shots: Vec<AccShot> = (0..dose.acc_flips)
            .map(|_| AccShot {
                strip: rng.gen_range(strip_lo..strip_hi),
                window_draw: rng.next_u64(),
                bar: rng.gen_range(0..MACBARS),
                lane: rng.gen_range(0..LANES),
                bit: rng.gen_range(0u32..48),
            })
            .collect();
        let stall_strip = if dose.stall_cycles > 0 {
            Some(rng.gen_range(strip_lo..strip_hi))
        } else {
            None
        };

        let col_weights = Self::column_weights(model);
        let mut mem = NhogMem::with_capacity(cells_x, ecc, self.geometry.buffered_rows());
        mem.seek_row(strip_lo);
        let mut bars: Vec<CheckedMacBar> = (0..MACBARS)
            .map(|_| CheckedMacBar::new(checked_macbar))
            .collect();
        let row_words = cells_x * CELL_FEATURES;
        let word_bits = mem.word_bits();

        for strip in strip_lo..strip_hi {
            // Producer keeps the ring 2 rows ahead, as the schedule allows.
            let through = (strip + hc + 1).min(cells_y - 1);
            mem.load_rows_through(map, through);

            // Land this strip's memory upsets in the 16 rows its column
            // reads are about to cover.
            for shot in mem_shots.iter().filter(|s| s.strip == strip) {
                let offset = (shot.word_draw % (hc * row_words) as u64) as usize;
                let cy = strip + offset / row_words;
                let word_in_row = offset % row_words;
                let bit = (shot.bit_draw % u64::from(word_bits)) as u32;
                if !mem.inject_bit_flip_in_row(cy, word_in_row, bit) {
                    continue;
                }
                if shot.double {
                    // A second, distinct bit of the same word.
                    let step = 1 + (shot.second_bit_draw % u64::from(word_bits - 1)) as u32;
                    let second = (bit + step) % word_bits;
                    mem.inject_bit_flip_in_row(cy, word_in_row, second);
                    out.injected_mem_double_flips += 1;
                } else {
                    out.injected_mem_flips += 1;
                }
            }

            // Read each cell column of the strip once (the pipeline reuses
            // a column for the 8 successive windows it participates in).
            let columns: Vec<Vec<i32>> = (0..cells_x)
                .map(|cx| mem.read_window_column(cx, strip, hc))
                .collect();

            for cx in 0..windows_per_strip {
                let mut raw = model.bias();
                let mut diverged = false;
                for (j, bar) in bars.iter_mut().enumerate() {
                    bar.clear();
                    // Each MACBAR's 16 lanes each own one cell of the
                    // column and walk its 36 features in 36 cycles; the
                    // per-lane stride below is that layout.
                    bar.process_column(
                        &columns[cx + j],
                        &col_weights[j],
                        CELL_FEATURES * hc / LANES,
                    );
                    for shot in &acc_shots {
                        if shot.strip == strip
                            && shot.bar == j
                            && (shot.window_draw % windows_per_strip as u64) as usize == cx
                        {
                            bar.inject_acc_flip(shot.lane, shot.bit);
                            out.injected_acc_flips += 1;
                        }
                    }
                    if bar.verify().is_err() {
                        diverged = true;
                    }
                    raw += bar.reduce();
                }
                if diverged {
                    out.macbar_mismatches += 1;
                    out.flagged_windows.push((cx, strip));
                }
                out.scores.push(WindowScore { cx, cy: strip, raw });
            }

            let stall = if stall_strip == Some(strip) {
                out.injected_stall_cycles += dose.stall_cycles;
                dose.stall_cycles
            } else {
                0
            };
            out.strips.push(StripObservation {
                strip,
                windows: windows_per_strip,
                observed_cycles: strip_budget + stall,
            });
        }
        out.ecc = mem.ecc_stats().clone();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtped_hog::params::HogParams;

    /// Classifies every strip of `map` at the paper geometry.
    fn classify(
        map: &HwFeatureMap,
        q: &QuantizedModel,
        ecc: EccMode,
        checked_macbar: bool,
        dose: &SoftErrorDose,
    ) -> EngineIntegrity {
        SvmEngine::new().classify_band(map, q, ecc, checked_macbar, dose, 0..window_strips(map))
    }

    /// The unprotected, undosed scores of every window of `map`.
    fn plain(map: &HwFeatureMap, q: &QuantizedModel) -> Vec<WindowScore> {
        classify(map, q, EccMode::Off, false, &SoftErrorDose::none()).scores
    }

    fn ramp_map(cx: usize, cy: usize) -> HwFeatureMap {
        let mut data = vec![0i32; cx * cy * CELL_FEATURES];
        for (i, v) in data.iter_mut().enumerate() {
            *v = ((i * 11) % 20000) as i32;
        }
        HwFeatureMap::from_raw(cx, cy, data)
    }

    #[test]
    fn hdtv_frame_matches_paper_cycle_count() {
        // 1920x1080 -> 240x135 cells.
        assert_eq!(ShardGeometry::paper().frame_cycles(240, 135), 1_200_420);
    }

    #[test]
    fn cycle_count_is_under_10ms_at_125mhz() {
        let cycles = ShardGeometry::paper().frame_cycles(240, 135);
        let ms = crate::timing::ClockDomain::MHZ_125.millis(cycles);
        assert!(ms < 10.0, "{ms} ms");
    }

    #[test]
    fn quantized_model_roundtrips_weights() {
        let model = LinearSvm::new(vec![0.5, -1.25, 3.0, 0.0], 0.125);
        let q = QuantizedModel::from_svm(&model);
        assert_eq!(q.weights()[0], 2048); // 0.5 * 4096
        assert_eq!(q.weights()[1], -5120);
        assert_eq!(q.weights()[2], 12288);
        assert_eq!(q.weights()[3], 0);
        assert_eq!(q.bias(), (0.125 * (1u64 << SCORE_FRAC) as f64) as i64);
    }

    #[test]
    fn quantized_weights_saturate() {
        let model = LinearSvm::new(vec![100.0, -100.0], 0.0);
        let q = QuantizedModel::from_svm(&model);
        assert_eq!(q.weights()[0], i32::from(i16::MAX));
        assert_eq!(q.weights()[1], i32::from(i16::MIN));
    }

    #[test]
    fn score_conversion_roundtrips() {
        let raw = QuantizedModel::threshold_to_raw(1.5);
        assert!((QuantizedModel::score_to_f64(raw) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn classify_matches_float_decision() {
        let params = HogParams::pedestrian();
        let map = ramp_map(12, 20);
        // Deterministic pseudo-random weights in a DSP-friendly range.
        let weights: Vec<f64> = (0..params.cell_descriptor_len())
            .map(|i| (((i * 2654435761) % 2001) as f64 / 1000.0) - 1.0)
            .collect();
        let model = LinearSvm::new(weights, 0.375);
        let q = QuantizedModel::from_svm(&model);
        let scores = plain(&map, &q);
        // Window grid: (12-8+1) x (20-16+1) = 5 x 5.
        assert_eq!(scores.len(), 25);
        let float_map = map.to_float();
        for s in &scores {
            let descriptor = float_map.window_descriptor(s.cx, s.cy, &params);
            let float_score = model.decision(&descriptor);
            let hw_score = QuantizedModel::score_to_f64(s.raw);
            assert!(
                (hw_score - float_score).abs() < 0.05,
                "window ({},{}) hw {hw_score} vs float {float_score}",
                s.cx,
                s.cy
            );
        }
    }

    #[test]
    fn scores_are_raster_ordered() {
        let map = ramp_map(10, 17);
        let model = LinearSvm::new(vec![0.0; 4608], 1.0);
        let q = QuantizedModel::from_svm(&model);
        let scores = plain(&map, &q);
        let coords: Vec<(usize, usize)> = scores.iter().map(|s| (s.cx, s.cy)).collect();
        assert_eq!(coords, vec![(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]);
        // Zero weights: every score is exactly the bias.
        for s in &scores {
            assert_eq!(s.raw, q.bias());
        }
    }

    #[test]
    fn too_small_map_yields_no_windows() {
        let map = ramp_map(7, 16);
        let model = LinearSvm::new(vec![0.0; 4608], 0.0);
        let q = QuantizedModel::from_svm(&model);
        assert!(plain(&map, &q).is_empty());
    }

    #[test]
    #[should_panic(expected = "model does not match")]
    fn wrong_model_size_rejected() {
        let map = ramp_map(8, 16);
        let model = LinearSvm::new(vec![0.0; 100], 0.0);
        let q = QuantizedModel::from_svm(&model);
        let _ = plain(&map, &q);
    }

    #[test]
    fn fill_cycles_are_eight_columns() {
        let paper = ShardGeometry::paper();
        assert_eq!(paper.fill_cycles(), MACBARS as u64 * paper.column_cycles());
    }

    fn quantized() -> QuantizedModel {
        let weights: Vec<f64> = (0..4608)
            .map(|i| (((i * 2654435761usize) % 2001) as f64 / 1000.0) - 1.0)
            .collect();
        QuantizedModel::from_svm(&LinearSvm::new(weights, 0.375))
    }

    #[test]
    fn integrity_path_with_empty_dose_is_bit_identical() {
        let map = ramp_map(12, 20);
        let q = quantized();
        let clean = plain(&map, &q);
        for ecc in [EccMode::Off, EccMode::Secded] {
            let result = classify(&map, &q, ecc, true, &SoftErrorDose::none());
            assert_eq!(result.scores, clean, "mode {ecc:?}");
            assert_eq!(result.ecc.detected_total(), 0);
            assert_eq!(result.macbar_mismatches, 0);
            assert_eq!(result.strips.len(), 5);
            for obs in &result.strips {
                assert_eq!(obs.windows, 5);
                assert_eq!(obs.observed_cycles, 288 + 11 * 36);
            }
        }
    }

    #[test]
    fn single_mem_flips_are_corrected_and_scores_match_clean() {
        let map = ramp_map(12, 20);
        let q = quantized();
        let clean = plain(&map, &q);
        for seed in 0..20 {
            let dose = SoftErrorDose {
                seed,
                mem_flips: 2,
                ..SoftErrorDose::none()
            };
            let result = classify(&map, &q, EccMode::Secded, true, &dose);
            assert_eq!(result.injected_mem_flips, 2, "seed {seed}");
            assert!(result.ecc.corrected_total() >= 2, "seed {seed}");
            assert_eq!(result.ecc.uncorrectable_total(), 0, "seed {seed}");
            assert_eq!(
                result.scores, clean,
                "seed {seed}: correction was not exact"
            );
        }
    }

    #[test]
    fn double_mem_flips_are_always_detected() {
        let map = ramp_map(12, 20);
        let q = quantized();
        for seed in 0..20 {
            let dose = SoftErrorDose {
                seed,
                mem_double_flips: 1,
                ..SoftErrorDose::none()
            };
            let result = classify(&map, &q, EccMode::Secded, true, &dose);
            assert_eq!(result.injected_mem_double_flips, 1, "seed {seed}");
            assert!(
                result.ecc.uncorrectable_total() >= 1,
                "seed {seed}: double flip escaped"
            );
        }
    }

    #[test]
    fn acc_flip_is_flagged_when_checked_and_silent_otherwise() {
        let map = ramp_map(12, 20);
        let q = quantized();
        let clean = plain(&map, &q);
        let dose = SoftErrorDose {
            seed: 7,
            acc_flips: 1,
            ..SoftErrorDose::none()
        };
        let checked = classify(&map, &q, EccMode::Off, true, &dose);
        assert_eq!(checked.injected_acc_flips, 1);
        assert_eq!(checked.macbar_mismatches, 1);
        assert_eq!(checked.flagged_windows.len(), 1);
        // The same dose without the checker corrupts the same window —
        // silently. That asymmetry is the whole point of the checker.
        let unchecked = classify(&map, &q, EccMode::Off, false, &dose);
        assert_eq!(unchecked.macbar_mismatches, 0);
        assert_eq!(unchecked.scores, checked.scores);
        assert_ne!(unchecked.scores, clean);
    }

    #[test]
    fn stall_cycles_land_on_exactly_one_strip() {
        let map = ramp_map(12, 20);
        let q = quantized();
        let dose = SoftErrorDose {
            seed: 3,
            stall_cycles: 100,
            ..SoftErrorDose::none()
        };
        let result = classify(&map, &q, EccMode::Off, false, &dose);
        assert_eq!(result.injected_stall_cycles, 100);
        let budget = 288 + 11 * 36;
        let over: Vec<&StripObservation> = result
            .strips
            .iter()
            .filter(|o| o.observed_cycles > budget)
            .collect();
        assert_eq!(over.len(), 1);
        assert_eq!(over[0].observed_cycles, budget + 100);
    }

    #[test]
    fn injection_schedule_is_pure_in_the_dose_seed() {
        let map = ramp_map(12, 20);
        let q = quantized();
        let dose = SoftErrorDose {
            seed: 11,
            mem_flips: 3,
            mem_double_flips: 1,
            acc_flips: 2,
            stall_cycles: 50,
        };
        let a = classify(&map, &q, EccMode::Secded, true, &dose);
        let b = classify(&map, &q, EccMode::Secded, true, &dose);
        assert_eq!(a, b);
    }

    #[test]
    fn too_small_map_yields_empty_integrity() {
        let map = ramp_map(7, 16);
        let q = quantized();
        let dose = SoftErrorDose {
            seed: 1,
            mem_flips: 5,
            ..SoftErrorDose::none()
        };
        let result = classify(&map, &q, EccMode::Secded, true, &dose);
        assert!(result.scores.is_empty());
        assert_eq!(result.injected_mem_flips, 0);
        assert!(result.strips.is_empty());
    }
}
