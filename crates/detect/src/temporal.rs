//! Temporal incremental pyramids for video: diff consecutive frames,
//! rebuild only the rows that changed, reuse everything else — including
//! the previous frame's pre-NMS scan results.
//!
//! Every stage of the feature pipeline is row-local with a bounded halo:
//!
//! - a pixel row feeds the votes of cell rows whose pixel span overlaps
//!   `[p − 1, p + 1]` (the centered-difference `fy` reads one row up/down);
//! - a cell histogram row feeds feature rows `cy − 1 ..= cy + 1` (2×2-cell
//!   block normalization; the border clamp stays inside that halo);
//! - a base feature row feeds the pyramid-level rows whose two bilinear
//!   source rows ([`FeatureMap::source_rows`]) include it;
//! - a level row feeds the window rows `ry` with `ry * stride ≤ row <
//!   ry * stride + hc`.
//!
//! Propagating dirtiness through those exact dependency sets and
//! recomputing precisely the dirty rows with the *same* row-ranged code
//! the cold path runs over every row (`CellGrid::recompute_rows`,
//! `FeatureMap::update_rows`, `FeatureMap::scaled_rows_into`, the plane
//! refresh and the blocked kernels) therefore yields a pyramid — and a
//! detection list — bit-identical to a full rebuild. The cold path is the
//! stateless detector's own: `FeaturePyramid::from_base` and one
//! `scan_level` per level. A frame whose dirty pixel rows exceed half the
//! height (a scene cut) is rebuilt from scratch instead; that's cheaper
//! than incremental plumbing once most rows moved anyway.

use std::ops::Range;

use rtped_hog::feature_map::FeatureMap;
use rtped_hog::grid::CellGrid;
use rtped_hog::pyramid::{FeaturePyramid, PyramidLevel};
use rtped_image::GrayImage;
use rtped_svm::{LinearSvm, QuantModel};

use crate::detector::{scan_level, suppress, Detection, DetectorConfig, LevelScan};

/// Counters describing how the temporal cache served its frames.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TemporalStats {
    /// Frames served through the temporal path.
    pub frames: u64,
    /// Frames that rebuilt the whole pyramid (first frame, dimension
    /// change, scene cut).
    pub full_builds: u64,
    /// Frames served by row-ranged incremental updates.
    pub incremental: u64,
    /// Frames identical to their predecessor (results reused outright).
    pub unchanged: u64,
}

/// One cached pyramid level: its scale and features, and the scan that
/// holds the scoring plane and the pre-NMS hits of every window row.
#[derive(Debug)]
struct CachedLevel {
    level: PyramidLevel,
    scan: LevelScan,
}

/// The temporal state of one `FeaturePyramidDetector`: the last frame and
/// every derived plane, down to the per-window-row scan results.
#[derive(Debug)]
pub struct PyramidCache {
    frame: GrayImage,
    grid: CellGrid,
    base: FeatureMap,
    levels: Vec<CachedLevel>,
    stats: TemporalStats,
}

impl PyramidCache {
    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> TemporalStats {
        self.stats
    }
}

/// Serves one frame through the cache in `slot`, building or updating it
/// as needed, and returns the final (NMS'd) detections — bit-identical to
/// the stateless `detect` path.
pub(crate) fn detect(
    slot: &mut Option<PyramidCache>,
    frame: &GrayImage,
    model: &LinearSvm,
    quant: Option<&QuantModel>,
    config: &DetectorConfig,
) -> Vec<Detection> {
    let mut stats = slot.as_ref().map(|c| c.stats).unwrap_or_default();
    stats.frames += 1;
    match slot.as_mut() {
        Some(cache) if cache.frame.dimensions() == frame.dimensions() => {
            update(cache, frame, model, quant, config, &mut stats);
            cache.stats = stats;
        }
        _ => {
            let mut cache = build(frame, model, quant, config);
            stats.full_builds += 1;
            cache.stats = stats;
            *slot = Some(cache);
        }
    }
    let hits = slot
        .iter()
        .flat_map(|cache| &cache.levels)
        .flat_map(|cached| cached.scan.row_hits.iter().flatten().copied())
        .collect();
    suppress(hits, config)
}

/// Builds the full cache for `frame` — the cold path, also used on scene
/// cuts. It runs the stateless detector's code: one extraction,
/// `FeaturePyramid::from_base`, and `scan_level` for every level.
fn build(
    frame: &GrayImage,
    model: &LinearSvm,
    quant: Option<&QuantModel>,
    config: &DetectorConfig,
) -> PyramidCache {
    let params = &config.params;
    let grid = CellGrid::compute(frame, params);
    let base = FeatureMap::from_cell_grid(&grid, params);
    let levels = FeaturePyramid::from_base(&base, &config.scales, params)
        .into_levels()
        .into_iter()
        .filter_map(|level| {
            let scan = scan_level(&level, model, quant, config)?;
            Some(CachedLevel { level, scan })
        })
        .collect();
    PyramidCache {
        frame: frame.clone(),
        grid,
        base,
        levels,
        stats: TemporalStats::default(),
    }
}

/// Groups the `true` indices of a dirty mask into contiguous runs.
fn runs(mask: &[bool]) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, &d) in mask.iter().enumerate() {
        match (d, start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                out.push(s..i);
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        out.push(s..mask.len());
    }
    out
}

/// The incremental path: diff `frame` against the cached one, walk the
/// dirtiness through grid → base → levels → window rows, recompute exactly
/// those, and fall back to a full rebuild past the scene-cut threshold.
fn update(
    cache: &mut PyramidCache,
    frame: &GrayImage,
    model: &LinearSvm,
    quant: Option<&QuantModel>,
    config: &DetectorConfig,
    stats: &mut TemporalStats,
) {
    let (w, h) = frame.dimensions();
    let old = cache.frame.as_raw();
    let new = frame.as_raw();
    let mut dirty_px = vec![false; h];
    let mut n_dirty = 0usize;
    for (y, d) in dirty_px.iter_mut().enumerate() {
        if old[y * w..(y + 1) * w] != new[y * w..(y + 1) * w] {
            *d = true;
            n_dirty += 1;
        }
    }
    if n_dirty == 0 {
        stats.unchanged += 1;
        return;
    }
    if n_dirty * 2 > h {
        // Scene cut: most rows moved, incremental bookkeeping would cost
        // more than it saves.
        let stats_now = *stats;
        *cache = build(frame, model, quant, config);
        cache.stats = stats_now;
        stats.full_builds += 1;
        return;
    }
    stats.incremental += 1;
    let params = &config.params;
    let cs = params.cell_size();
    let (_, by) = cache.base.cells();

    // Pixel rows → cell rows: cell row cy votes from pixel rows
    // cy*cs − 1 ..= (cy+1)*cs (the ±1 halo from centered differences).
    let mut dirty_cell = vec![false; by];
    for (p, _) in dirty_px.iter().enumerate().filter(|(_, &d)| d) {
        let lo = (p.saturating_sub(1)) / cs;
        let hi = ((p + 1) / cs).min(by - 1);
        for d in &mut dirty_cell[lo..=hi] {
            *d = true;
        }
    }
    for r in runs(&dirty_cell) {
        cache.grid.recompute_rows(frame, params, r);
    }

    // Cell rows → base feature rows: ±1 halo from block normalization.
    let mut dirty_base = vec![false; by];
    for (c, _) in dirty_cell.iter().enumerate().filter(|(_, &d)| d) {
        for d in &mut dirty_base[c.saturating_sub(1)..=(c + 1).min(by - 1)] {
            *d = true;
        }
    }
    for r in runs(&dirty_base) {
        cache.base.update_rows(&cache.grid, params, r);
    }

    // Base rows → each level's rows → that level's window rows.
    for CachedLevel { level, scan } in &mut cache.levels {
        let (_, ny) = level.features.cells();
        let mut dirty_level = vec![false; ny];
        if (level.scale - 1.0).abs() < 1e-9 {
            dirty_level.copy_from_slice(&dirty_base);
        } else {
            for (oy, d) in dirty_level.iter_mut().enumerate() {
                let (y0, y1) = FeatureMap::source_rows(by, ny, oy);
                if dirty_base[y0] || dirty_base[y1] {
                    *d = true;
                }
            }
        }
        let level_runs = runs(&dirty_level);
        if level_runs.is_empty() {
            continue;
        }
        for r in &level_runs {
            cache.base.scaled_rows_into(&mut level.features, r.clone());
            scan.plane.update_rows(&level.features, r.clone());
        }
        let geom = &scan.geom;
        // Level rows → window rows: ry covers level rows
        // [ry*stride, ry*stride + hc).
        let mut dirty_ry = vec![false; geom.rows];
        for r in &level_runs {
            // Window rows whose span intersects [r.start, r.end).
            let first = (r.start + 1).saturating_sub(geom.hc).div_ceil(geom.stride);
            for (ry, d) in dirty_ry.iter_mut().enumerate().skip(first) {
                if ry * geom.stride >= r.end {
                    break;
                }
                *d = true;
            }
        }
        let rys: Vec<usize> = dirty_ry
            .iter()
            .enumerate()
            .filter_map(|(ry, &d)| d.then_some(ry))
            .collect();
        scan.rescan(&level.features, model, quant, config, &rys);
    }
    cache.frame = frame.clone();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{Datapath, Detect, FeaturePyramidDetector};
    use rtped_hog::params::HogParams;

    /// A deterministic model with mixed-sign weights so plenty of windows
    /// cross threshold 0.0 — detections, not empty lists, get compared.
    fn textured_model() -> LinearSvm {
        let dim = HogParams::pedestrian().cell_descriptor_len();
        let weights: Vec<f64> = (0..dim)
            .map(|i| ((i * 2654435761usize) % 2000) as f64 / 1000.0 - 1.0)
            .collect();
        LinearSvm::new(weights, 0.05)
    }

    fn base_frame(w: usize, h: usize) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| ((x * 7 + y * 13 + (x * y) % 23) % 256) as u8)
    }

    /// `frames[0]` plus a sequence of localized edits, an unchanged frame,
    /// and a near-total rewrite (scene cut).
    fn frame_sequence(w: usize, h: usize) -> Vec<GrayImage> {
        let base = base_frame(w, h);
        let stamp = |src: &GrayImage, x0: usize, y0: usize, bw: usize, bh: usize| {
            GrayImage::from_fn(w, h, |x, y| {
                if x >= x0 && x < x0 + bw && y >= y0 && y < y0 + bh {
                    255 - src.get(x, y)
                } else {
                    src.get(x, y)
                }
            })
        };
        let moved = stamp(&base, 12, 20, 24, 48);
        let moved2 = stamp(&base, 14, 26, 24, 48);
        let cut = GrayImage::from_fn(w, h, |x, y| ((x * 31 + y * 3) % 256) as u8);
        vec![
            base.clone(),
            moved.clone(),
            moved.clone(), // unchanged frame
            moved2,
            cut.clone(),
            stamp(&cut, 60, 4, 16, 30),
        ]
    }

    fn assert_temporal_matches_stateless(datapath: Datapath) {
        let mut config = crate::detector::DetectorConfig::two_scale();
        config.datapath = datapath;
        let stateless = FeaturePyramidDetector::new(textured_model(), config.clone());
        config.temporal = true;
        let temporal = FeaturePyramidDetector::new(textured_model(), config);
        for (i, frame) in frame_sequence(160, 128).iter().enumerate() {
            let got = temporal.detect(frame);
            let want = stateless.detect(frame);
            assert_eq!(got, want, "frame {i} ({datapath})");
            assert!(!want.is_empty(), "frame {i} should produce detections");
        }
        let stats = temporal.temporal_stats().expect("temporal stats");
        assert_eq!(stats.frames, 6);
        assert_eq!(stats.unchanged, 1, "{stats:?}");
        assert!(stats.incremental >= 2, "{stats:?}");
        assert!(stats.full_builds >= 2, "first frame + scene cut: {stats:?}");
    }

    #[test]
    fn f32_temporal_is_bit_identical_to_stateless() {
        assert_temporal_matches_stateless(Datapath::F32);
    }

    #[test]
    fn i16_temporal_is_bit_identical_to_stateless() {
        assert_temporal_matches_stateless(Datapath::I16);
    }

    #[test]
    fn dimension_change_rebuilds_and_reset_clears() {
        let mut config = crate::detector::DetectorConfig::two_scale();
        config.temporal = true;
        let det = FeaturePyramidDetector::new(textured_model(), config);
        det.detect(&base_frame(160, 128));
        det.detect(&base_frame(200, 144));
        let stats = det.temporal_stats().expect("stats");
        assert_eq!(stats.full_builds, 2, "{stats:?}");
        det.reset_temporal_cache();
        assert!(det.temporal_stats().is_none());
    }

    #[test]
    fn runs_groups_contiguous_true_spans() {
        assert_eq!(runs(&[]), vec![]);
        assert_eq!(runs(&[false, false]), vec![]);
        assert_eq!(runs(&[true, true, false, true]), vec![0..2, 3..4]);
        assert_eq!(runs(&[false, true]), vec![1..2]);
    }
}
