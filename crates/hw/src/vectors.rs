//! Golden test-vector I/O for RTL verification.
//!
//! A hardware team consuming this model as the golden reference needs
//! machine-readable stimulus/response pairs: the quantized feature
//! stream a frame produces and the raw window scores the engine must
//! emit. This module serializes both in a simple line-oriented text
//! format (one hex word per line, `#`-comments allowed) that testbenches
//! can `$readmemh`-style ingest.

use std::fmt::Write as _;

use rtped_image::GrayImage;

use crate::norm_unit::{HwFeatureMap, CELL_FEATURES};
use crate::pipeline::HogAccelerator;
use crate::svm_engine::WindowScore;

/// A complete stimulus/response vector set for one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct TestVectors {
    /// Frame dimensions the vectors were generated from.
    pub frame_size: (usize, usize),
    /// Cell-grid dimensions of the feature stream.
    pub cells: (usize, usize),
    /// The Q0.15 feature stream in NHOGMem write order (row-major cells,
    /// 36 words per cell).
    pub features: Vec<i32>,
    /// The expected raw Q4.27 score of every window in raster order.
    pub scores: Vec<WindowScore>,
}

impl TestVectors {
    /// Generates vectors by running `frame` through the accelerator's
    /// extraction and classification stages, on its own quantized model.
    ///
    /// # Panics
    ///
    /// Panics if the frame is smaller than one window.
    #[must_use]
    pub fn generate(accelerator: &HogAccelerator, frame: &GrayImage) -> Self {
        let map = accelerator.extract_features(frame);
        let scores = accelerator.window_scores(&map);
        let (cx, cy) = map.cells();
        Self {
            frame_size: frame.dimensions(),
            cells: (cx, cy),
            features: map.as_raw().to_vec(),
            scores,
        }
    }

    /// Serializes the feature stream: a header comment, then one 8-digit
    /// hex word per line (two's-complement i32).
    #[must_use]
    pub fn features_hex(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# rtped feature stream: frame {}x{}, cells {}x{}, {} words",
            self.frame_size.0,
            self.frame_size.1,
            self.cells.0,
            self.cells.1,
            self.features.len()
        );
        for word in &self.features {
            let _ = writeln!(out, "{:08x}", *word as u32);
        }
        out
    }

    /// Serializes the expected scores: `cx cy score_hex` per line
    /// (two's-complement i64 as 16 hex digits).
    #[must_use]
    pub fn scores_hex(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# rtped window scores: {} windows (cx cy q4.27_hex)",
            self.scores.len()
        );
        for s in &self.scores {
            let _ = writeln!(out, "{} {} {:016x}", s.cx, s.cy, s.raw as u64);
        }
        out
    }

    /// Parses a feature stream produced by [`TestVectors::features_hex`]
    /// back into an [`HwFeatureMap`] with the given grid.
    ///
    /// # Errors
    ///
    /// Returns a message when a line is not valid hex or the word count
    /// does not match the grid.
    pub fn parse_features(text: &str, cells: (usize, usize)) -> Result<HwFeatureMap, String> {
        let words: Result<Vec<i32>, String> = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| {
                u32::from_str_radix(l, 16)
                    .map(|v| v as i32)
                    .map_err(|e| format!("bad hex word {l:?}: {e}"))
            })
            .collect();
        let words = words?;
        let expected = cells.0 * cells.1 * CELL_FEATURES;
        if words.len() != expected {
            return Err(format!(
                "feature stream holds {} words, expected {expected}",
                words.len()
            ));
        }
        Ok(HwFeatureMap::from_raw(cells.0, cells.1, words))
    }

    /// Parses a score file produced by [`TestVectors::scores_hex`].
    ///
    /// # Errors
    ///
    /// Returns a message when a line is malformed.
    pub fn parse_scores(text: &str) -> Result<Vec<WindowScore>, String> {
        text.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| {
                let mut parts = l.split_whitespace();
                let cx: usize = parts
                    .next()
                    .ok_or_else(|| format!("missing cx in {l:?}"))?
                    .parse()
                    .map_err(|e| format!("bad cx in {l:?}: {e}"))?;
                let cy: usize = parts
                    .next()
                    .ok_or_else(|| format!("missing cy in {l:?}"))?
                    .parse()
                    .map_err(|e| format!("bad cy in {l:?}: {e}"))?;
                let raw = parts
                    .next()
                    .ok_or_else(|| format!("missing score in {l:?}"))
                    .and_then(|h| {
                        u64::from_str_radix(h, 16)
                            .map(|v| v as i64)
                            .map_err(|e| format!("bad score hex in {l:?}: {e}"))
                    })?;
                Ok(WindowScore { cx, cy, raw })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecc::EccMode;
    use crate::integrity::SoftErrorDose;
    use crate::pipeline::AcceleratorConfig;
    use crate::svm_engine::{window_strips, QuantizedModel, SvmEngine};
    use rtped_svm::LinearSvm;

    fn setup() -> (HogAccelerator, QuantizedModel, GrayImage) {
        let weights: Vec<f64> = (0..4608)
            .map(|i| (((i * 2654435761usize) % 2001) as f64 / 1000.0 - 1.0) * 0.03)
            .collect();
        let model = LinearSvm::new(weights, 0.01);
        let q = QuantizedModel::from_svm(&model);
        let acc = HogAccelerator::new(&model, AcceleratorConfig::default());
        let frame = GrayImage::from_fn(96, 160, |x, y| ((x * 19 + y * 7) % 256) as u8);
        (acc, q, frame)
    }

    #[test]
    fn vectors_roundtrip_through_hex() {
        let (acc, _, frame) = setup();
        let vectors = TestVectors::generate(&acc, &frame);

        let features_text = vectors.features_hex();
        let map = TestVectors::parse_features(&features_text, vectors.cells).unwrap();
        assert_eq!(map.as_raw(), vectors.features.as_slice());

        let scores_text = vectors.scores_hex();
        let scores = TestVectors::parse_scores(&scores_text).unwrap();
        assert_eq!(scores, vectors.scores);
    }

    #[test]
    fn negative_scores_roundtrip() {
        // Two's-complement across the hex boundary.
        let vectors = TestVectors {
            frame_size: (64, 128),
            cells: (8, 16),
            features: vec![-1, 0, 32767, -32768]
                .into_iter()
                .chain(std::iter::repeat(0))
                .take(8 * 16 * 36)
                .collect(),
            scores: vec![WindowScore {
                cx: 0,
                cy: 0,
                raw: -123456789,
            }],
        };
        let parsed = TestVectors::parse_features(&vectors.features_hex(), (8, 16)).unwrap();
        assert_eq!(parsed.as_raw()[0], -1);
        assert_eq!(parsed.as_raw()[3], -32768);
        let scores = TestVectors::parse_scores(&vectors.scores_hex()).unwrap();
        assert_eq!(scores[0].raw, -123456789);
    }

    #[test]
    fn word_count_is_validated() {
        let err = TestVectors::parse_features("00000001\n00000002\n", (8, 16)).unwrap_err();
        assert!(err.contains("expected 4608"));
    }

    #[test]
    fn malformed_lines_are_reported() {
        assert!(TestVectors::parse_features("zzzz\n", (1, 1)).is_err());
        assert!(TestVectors::parse_scores("1 2\n").is_err());
        assert!(TestVectors::parse_scores("1 notanumber 00\n").is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# header\n\n0 0 0000000000000010\n# trailing\n";
        let scores = TestVectors::parse_scores(text).unwrap();
        assert_eq!(scores.len(), 1);
        assert_eq!(scores[0].raw, 16);
    }

    #[test]
    fn scores_match_live_engine_re_run() {
        // The serialized scores must equal a fresh engine run on the
        // parsed feature stream — the property an RTL testbench relies on.
        let (acc, q, frame) = setup();
        let vectors = TestVectors::generate(&acc, &frame);
        let map = TestVectors::parse_features(&vectors.features_hex(), vectors.cells).unwrap();
        let none = SoftErrorDose::none();
        let strips = 0..window_strips(&map);
        let fresh = SvmEngine::new().classify_band(&map, &q, EccMode::Off, false, &none, strips);
        assert_eq!(fresh.scores, vectors.scores);
    }
}
