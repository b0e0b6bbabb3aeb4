//! The full accelerator: frame in → multi-scale detections + cycle
//! accounting out (paper Fig. 5 / Fig. 6).
//!
//! Dataflow:
//!
//! ```text
//! pixels ─▶ GradientUnit ─▶ HistogramUnit ─▶ NormalizerUnit ─▶ NHOGMem
//!                                                 │               │
//!                                                 ▼               ▼
//!                                         FeatureScaler ─▶ SVM engine (scale 1.5)
//!                                                           SVM engine (scale 1.0)
//! ```
//!
//! The extractor ingests one pixel per cycle, so the frame period of an
//! HDTV stream is 2,073,600 cycles (16.6 ms @ 125 MHz = 60 fps). The
//! classifier instances run in parallel — one per scale, sharing the model
//! memory (§5) — and each finishes its map in under the frame period, so
//! the design sustains the stream rate.

use rtped_detect::bbox::BoundingBox;
use rtped_detect::detector::Detection;
use rtped_detect::nms::non_maximum_suppression;
use rtped_hog::feature_map::FeatureMap;
use rtped_hog::params::HogParams;
use rtped_image::GrayImage;
use rtped_svm::LinearSvm;

use crate::ecc::EccMode;
use crate::hist_unit::HistogramUnit;
use crate::integrity::{FrameIntegrity, IntegrityConfig, ShardQuarantineEvent, SoftErrorDose};
use crate::lockstep::{LockstepChecker, LockstepReport};
use crate::norm_unit::{HwFeatureMap, NormalizerUnit};
use crate::scaler::FeatureScaler;
use crate::shard::{bands, shard_doses, Band, ShardFleet, ShardGeometry};
use crate::svm_engine::{
    window_strips, QuantizedModel, StripObservation, SvmEngine, WindowScore, WINDOW_CELLS,
};
use crate::timing::{pixel_stream_cycles, ClockDomain};

/// Accelerator configuration.
#[derive(Debug, Clone)]
pub struct AcceleratorConfig {
    /// Detection scales; the first must be 1.0 (the native map). The
    /// paper implements two (§5: "only two scales ... have been
    /// considered" on the ZC7020).
    pub scales: Vec<f64>,
    /// Decision threshold in the float score domain.
    pub threshold: f64,
    /// IoU for the (off-chip) NMS post-process; `None` disables it.
    pub nms_iou: Option<f64>,
    /// Per-instance hardware geometry; the default is the published
    /// 16-bank / 8-MACBAR / 18-row design point.
    pub geometry: ShardGeometry,
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        Self {
            scales: vec![1.0, 1.5],
            threshold: 0.0,
            nms_iou: Some(0.3),
            geometry: ShardGeometry::paper(),
        }
    }
}

/// Per-scale classification accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleReport {
    /// The scale factor.
    pub scale: f64,
    /// Cell-grid size the engine saw at this scale.
    pub cells: (usize, usize),
    /// Windows classified.
    pub windows: usize,
    /// Engine cycles for this scale's map.
    pub classifier_cycles: u64,
    /// Scaler cycles spent producing this map (0 for the native scale).
    pub scaler_cycles: u64,
}

/// The result of running one frame through the accelerator model.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorReport {
    /// Thresholded (and optionally NMS-filtered) detections in native
    /// frame coordinates.
    pub detections: Vec<Detection>,
    /// Cycles for the extractor to ingest the frame (= pixel count).
    pub extractor_cycles: u64,
    /// Per-scale classification reports.
    pub scale_reports: Vec<ScaleReport>,
}

impl AcceleratorReport {
    /// The longest classifier latency across the parallel scale engines.
    #[must_use]
    pub fn classifier_cycles(&self) -> u64 {
        self.scale_reports
            .iter()
            .map(|r| r.classifier_cycles)
            .max()
            .unwrap_or(0)
    }

    /// The frame period the design sustains: extraction and classification
    /// overlap, so throughput is bounded by the slower of the two.
    #[must_use]
    pub fn frame_cycles(&self) -> u64 {
        self.extractor_cycles.max(self.classifier_cycles())
    }

    /// Sustained frames per second at `clock`.
    #[must_use]
    pub fn fps(&self, clock: ClockDomain) -> f64 {
        clock.fps(self.frame_cycles())
    }
}

/// What a watchdog violation looked like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogKind {
    /// The strip consumed more cycles than its schedule budget.
    Overrun {
        /// Cycles observed.
        observed: u64,
        /// The 288 + (n−1)·36 budget.
        budget: u64,
    },
    /// The strip retired fewer windows than the schedule guarantees.
    Stall {
        /// Windows retired.
        windows: usize,
        /// Windows expected.
        expected: usize,
    },
}

/// One watchdog violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogEvent {
    /// Top cell row of the offending strip.
    pub strip: usize,
    /// What went wrong.
    pub kind: WatchdogKind,
}

/// The cycle-budget watchdog over the classifier schedule.
///
/// The paper's schedule is an invariant, not an estimate: every cell-row
/// strip costs exactly 288 fill cycles plus 36 cycles per remaining
/// window column, and retires every window of the strip. A hardware
/// watchdog holds the pipeline to that — a strip that runs long (clock
/// upset, arbitration bug, injected stall) or retires short trips it.
/// This model is fed one observation per strip and records every
/// violation as a typed [`WatchdogEvent`].
#[derive(Debug, Clone, Default)]
pub struct PipelineWatchdog {
    events: Vec<WatchdogEvent>,
}

impl PipelineWatchdog {
    /// A fresh watchdog.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one strip's observation against its cycle budget — the
    /// geometry-derived schedule of the shard that ran it
    /// ([`ShardGeometry::strip_cycles`]).
    pub fn observe_strip_budget(
        &mut self,
        obs: &StripObservation,
        budget: u64,
        expected_windows: usize,
    ) {
        let strip = obs.strip;
        self.events.extend(
            Self::violations(obs, budget, expected_windows)
                .map(|kind| WatchdogEvent { strip, kind }),
        );
    }

    /// The schedule rule itself: what one strip observation violates, an
    /// overrun before a stall. Fault containment applies the same rule
    /// whether or not a watchdog is recording.
    pub fn violations(
        obs: &StripObservation,
        budget: u64,
        expected_windows: usize,
    ) -> impl Iterator<Item = WatchdogKind> {
        let overrun = (obs.observed_cycles > budget).then_some(WatchdogKind::Overrun {
            observed: obs.observed_cycles,
            budget,
        });
        let stall = (obs.windows < expected_windows).then_some(WatchdogKind::Stall {
            windows: obs.windows,
            expected: expected_windows,
        });
        overrun.into_iter().chain(stall)
    }

    /// Consumes the watchdog, yielding its violations in observation
    /// order.
    #[must_use]
    pub fn into_events(self) -> Vec<WatchdogEvent> {
        self.events
    }
}

/// The accelerator model.
#[derive(Debug, Clone)]
pub struct HogAccelerator {
    config: AcceleratorConfig,
    model: QuantizedModel,
    threshold_raw: i64,
}

impl HogAccelerator {
    /// Builds the accelerator around an offline-trained model.
    ///
    /// # Panics
    ///
    /// Panics if the model is not 4608-dimensional (the 8×16-cell
    /// window), `scales` is empty, or the first scale is not 1.0.
    #[must_use]
    pub fn new(model: &LinearSvm, config: AcceleratorConfig) -> Self {
        let (wc, hc) = WINDOW_CELLS;
        assert_eq!(
            model.dim(),
            wc * hc * crate::norm_unit::CELL_FEATURES,
            "model does not match the 8x16-cell window descriptor"
        );
        assert!(!config.scales.is_empty(), "need at least one scale");
        assert!(
            (config.scales[0] - 1.0).abs() < 1e-9,
            "the first scale must be the native 1.0"
        );
        let threshold_raw = QuantizedModel::threshold_to_raw(config.threshold);
        Self {
            config,
            model: QuantizedModel::from_svm(model),
            threshold_raw,
        }
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Extracts the fixed-point feature map of a frame (the shared front
    /// half of the pipeline), exposed for golden-model comparisons.
    ///
    /// # Panics
    ///
    /// Panics if the frame is smaller than 2×2 cells.
    #[must_use]
    pub fn extract_features(&self, frame: &GrayImage) -> HwFeatureMap {
        let grid = HistogramUnit::new().process_frame(frame);
        NormalizerUnit::new().process(&grid)
    }

    /// Runs one frame through the full pipeline: the integrity-off,
    /// undosed, unsharded case of [`HogAccelerator::process_with_integrity`].
    ///
    /// # Panics
    ///
    /// Panics if the frame is smaller than 2×2 cells.
    #[must_use]
    pub fn process(&self, frame: &GrayImage) -> AcceleratorReport {
        let off = IntegrityConfig::off();
        self.run(frame, None, &off, &SoftErrorDose::none(), None).0
    }

    /// The raw score of every window of `map` through this accelerator's
    /// own quantized model and geometry, integrity off — the classifier
    /// output before thresholding, for golden-model comparisons and test
    /// vectors.
    #[must_use]
    pub fn window_scores(&self, map: &HwFeatureMap) -> Vec<WindowScore> {
        let strips = 0..window_strips(map);
        SvmEngine::with_geometry(self.config.geometry)
            .classify_band(
                map,
                &self.model,
                EccMode::Off,
                false,
                &SoftErrorDose::none(),
                strips,
            )
            .scores
    }

    /// Runs one frame through the integrity-instrumented pipeline: ECC'd
    /// memories and checked MACBARs on every scale, plus — on the native
    /// scale — the lockstep cross-check against `golden` (the float model
    /// this accelerator was quantized from) and the schedule watchdog.
    /// The deterministic `dose` strikes the native scale only.
    ///
    /// With no `fleet` the native map runs on one engine, and an
    /// uncorrectable fault is reported while the frame is still served.
    /// With [`IntegrityConfig::off`] and an empty dose the
    /// [`AcceleratorReport`] is then bit-identical to
    /// [`HogAccelerator::process`].
    ///
    /// With a [`ShardFleet`] — the multi-accelerator deployment with fault
    /// containment — the native map is split into contiguous strip bands
    /// ([`crate::shard::bands`]), one per shard, each with its own slice
    /// of the dose ([`crate::shard::shard_doses`]) and its own integrity
    /// surface. A band whose run raises an uncorrectable ECC detection, a
    /// MACBAR divergence, a schedule violation, or a lockstep divergence
    /// quarantines its serving shard and is re-executed clean on a
    /// healthy substitute, so the merged scores stay bit-identical to the
    /// no-fault single-instance run; the faulting attempt's counters
    /// remain in the [`FrameIntegrity`] (nothing escapes silently), only
    /// its scores are discarded. A fully-quarantined fleet yields an
    /// empty report flagged [`IntegrityFault::FleetExhausted`] instead of
    /// unattested output. When the fleet has more shards than the frame
    /// has strips, the surplus bands are empty and any dose units dealt
    /// to them inject nothing.
    ///
    /// [`IntegrityFault::FleetExhausted`]: crate::integrity::IntegrityFault::FleetExhausted
    ///
    /// # Panics
    ///
    /// Panics if the frame is smaller than 2×2 cells or `fleet` was
    /// built for a different [`ShardGeometry`] than this accelerator's.
    #[must_use]
    pub fn process_with_integrity(
        &self,
        frame: &GrayImage,
        golden: &LinearSvm,
        integrity: &IntegrityConfig,
        dose: &SoftErrorDose,
        fleet: Option<&mut ShardFleet>,
    ) -> (AcceleratorReport, FrameIntegrity) {
        self.run(frame, Some(golden), integrity, dose, fleet)
    }

    /// The one frame loop behind both entry points: one pass per scale
    /// over that scale's strip bands. `golden: None` disarms lockstep.
    fn run(
        &self,
        frame: &GrayImage,
        golden: Option<&LinearSvm>,
        integrity: &IntegrityConfig,
        dose: &SoftErrorDose,
        mut fleet: Option<&mut ShardFleet>,
    ) -> (AcceleratorReport, FrameIntegrity) {
        let geometry = self.config.geometry;
        let extractor_cycles = pixel_stream_cycles(frame.width(), frame.height());
        let mut fi = FrameIntegrity::default();
        let mut watchdog = integrity.watchdog.then(PipelineWatchdog::new);
        if let Some(fleet) = fleet.as_deref_mut() {
            assert_eq!(
                fleet.geometry(),
                geometry,
                "fleet geometry does not match the accelerator's"
            );
            if fleet.begin_frame().is_empty() {
                return exhausted(fleet, fi, watchdog, extractor_cycles);
            }
        }

        // One golden channel serves every band's lockstep comparison. It
        // sees the same delivered frame, so only datapath divergence (not
        // input corruption) can trip it.
        let params = HogParams::pedestrian();
        let golden = integrity
            .lockstep_tolerance
            .zip(golden)
            .map(|(tolerance, model)| {
                let map = FeatureMap::extract(frame, &params);
                (LockstepChecker::new(tolerance), map, model)
            });
        let lockstep = |scores: &[WindowScore]| {
            golden
                .as_ref()
                .map(|(checker, map, model)| checker.check_scores(scores, map, &params, model))
        };

        let base = self.extract_features(frame);
        let engine = SvmEngine::with_geometry(geometry);
        let scaler = FeatureScaler::new();
        let (wc, hc) = WINDOW_CELLS;
        let mut detections = Vec::new();
        let mut scale_reports = Vec::new();
        let mut frame_lockstep: Option<LockstepReport> = None;

        for (scale_index, &scale) in self.config.scales.iter().enumerate() {
            let scaled;
            let (map, scaler_cycles) = if (scale - 1.0).abs() < 1e-9 {
                (&base, 0)
            } else {
                scaled = scaler.scale_by(&base, scale);
                let (nx, ny) = scaled.cells();
                (&scaled, scaler.cycles(nx, ny))
            };
            let (cells_x, cells_y) = map.cells();
            let mut report = ScaleReport {
                scale,
                cells: map.cells(),
                windows: 0,
                classifier_cycles: 0,
                scaler_cycles,
            };
            if cells_x < wc || cells_y < hc {
                scale_reports.push(report);
                continue;
            }
            // The native map carries the dose and the schedule and
            // lockstep checks; a fleet bands it across its shards, each
            // band with its own slice of the dose. Every other scale is
            // one undosed band on its own engine.
            let native = scale_index == 0;
            let strips = window_strips(map);
            let mut shards = fleet.as_deref_mut().filter(|_| native);
            let plan: Vec<(Band, SoftErrorDose)> = match shards.as_deref() {
                Some(f) => bands(strips, f.shard_count())
                    .into_iter()
                    .zip(shard_doses(dose, f.shard_count()))
                    .collect(),
                None => {
                    let band = Band {
                        index: 0,
                        strip_lo: 0,
                        strip_hi: strips,
                    };
                    vec![(band, if native { *dose } else { SoftErrorDose::none() })]
                }
            };
            let expected_windows = cells_x - wc + 1;
            let strip_budget = geometry.strip_cycles(cells_x);
            let mut shard_cycles = vec![0u64; plan.len()];
            let mut scores = Vec::new();

            for (band, band_dose) in plan {
                if band.strips() == 0 {
                    continue;
                }
                let classify = |dose: &SoftErrorDose| {
                    let (ecc, checked) = (integrity.ecc, integrity.checked_macbar);
                    let strips = band.strip_lo..band.strip_hi;
                    engine.classify_band(map, &self.model, ecc, checked, dose, strips)
                };
                let band_cycles = geometry.band_cycles(cells_x, band.strips());
                let mut serving = band.index;
                if let Some(f) = shards.as_deref_mut() {
                    let Some(shard) = f.assign(band.index) else {
                        return exhausted(f, fi, watchdog, extractor_cycles);
                    };
                    serving = shard;
                    if serving != band.index {
                        // The home shard sat the frame out in quarantine.
                        f.record_failover();
                        fi.shard_failovers += 1;
                    }
                }
                let attempt = classify(&band_dose);
                shard_cycles[serving] += band_cycles + attempt.injected_stall_cycles;
                // The attempt's counters stay in the frame record even if
                // its scores are thrown away — a contained fault must not
                // become a silent one.
                fi.absorb(&attempt);
                let mut attempt_lockstep = None;
                if native {
                    if let Some(wd) = watchdog.as_mut() {
                        for obs in &attempt.strips {
                            wd.observe_strip_budget(obs, strip_budget, expected_windows);
                        }
                    }
                    attempt_lockstep = lockstep(&attempt.scores);
                }
                let off_schedule = |obs| {
                    let mut kinds =
                        PipelineWatchdog::violations(obs, strip_budget, expected_windows);
                    kinds.next().is_some()
                };
                let faulted = attempt.ecc.uncorrectable_total() > 0
                    || attempt.macbar_mismatches > 0
                    || attempt.strips.iter().any(off_schedule)
                    || attempt_lockstep.as_ref().is_some_and(|r| !r.is_clean());
                let (band_scores, band_lockstep) = match shards.as_deref_mut() {
                    Some(f) if faulted => {
                        let cooldown = f.quarantine(serving);
                        fi.shard_quarantines.push(ShardQuarantineEvent {
                            shard: serving,
                            cooldown,
                        });
                        let Some(substitute) = f.assign(band.index) else {
                            return exhausted(f, fi, watchdog, extractor_cycles);
                        };
                        f.record_failover();
                        fi.shard_failovers += 1;
                        // The clean re-execution: same band, no dose — its
                        // scores are the ones the no-fault run produces.
                        let rerun = classify(&SoftErrorDose::none());
                        shard_cycles[substitute] += band_cycles;
                        fi.absorb(&rerun);
                        f.record_band(substitute);
                        let rerun_lockstep = lockstep(&rerun.scores);
                        (rerun.scores, rerun_lockstep)
                    }
                    Some(f) => {
                        f.record_band(serving);
                        (attempt.scores, attempt_lockstep)
                    }
                    None => (attempt.scores, attempt_lockstep),
                };
                scores.extend(band_scores);
                if let Some(band_report) = band_lockstep {
                    match frame_lockstep.as_mut() {
                        Some(merged) => merged.merge(&band_report),
                        None => frame_lockstep = Some(band_report),
                    }
                }
            }

            report.windows = scores.len();
            // The shards run in parallel; the scale's latency is the
            // busiest shard's.
            report.classifier_cycles = shard_cycles.into_iter().max().unwrap_or(0);
            detections.extend(self.detections(&scores, scale));
            scale_reports.push(report);
        }

        fi.watchdog_events = watchdog
            .map(PipelineWatchdog::into_events)
            .unwrap_or_default();
        fi.lockstep = frame_lockstep.or_else(|| lockstep(&[]));
        if let Some(fleet) = fleet {
            fi.shards_active = fleet.healthy().len() as u64;
        }
        let detections = match self.config.nms_iou {
            Some(iou) => non_maximum_suppression(detections, iou),
            None => detections,
        };
        (
            AcceleratorReport {
                detections,
                extractor_cycles,
                scale_reports,
            },
            fi,
        )
    }

    /// Thresholds one scale's raw window scores into detections in native
    /// frame coordinates.
    fn detections<'a>(
        &'a self,
        scores: &'a [WindowScore],
        scale: f64,
    ) -> impl Iterator<Item = Detection> + 'a {
        let (wc, hc) = WINDOW_CELLS;
        let cell = 8usize;
        scores
            .iter()
            .filter(|s| s.raw > self.threshold_raw)
            .map(move |s| Detection {
                bbox: BoundingBox::new(
                    (s.cx * cell) as i64,
                    (s.cy * cell) as i64,
                    (wc * cell) as u64,
                    (hc * cell) as u64,
                )
                .scaled(scale),
                score: QuantizedModel::score_to_f64(s.raw),
                scale,
            })
    }

    /// A textual stage graph of the implemented architecture (the harness
    /// prints this next to the throughput table; it corresponds to the
    /// paper's Figs. 5–8).
    #[must_use]
    pub fn describe(&self) -> String {
        let scales = self
            .config
            .scales
            .iter()
            .map(|s| format!("{s:.2}"))
            .collect::<Vec<_>>()
            .join(", ");
        let g = self.config.geometry;
        format!(
            "pixels -> GradientUnit (1 px/cycle, isqrt magnitude, tan-compare bins)\n\
             \x20      -> HistogramUnit (8x8 cells, 9 bins, Q0.8 split votes)\n\
             \x20      -> NormalizerUnit (L2-Hys, integer isqrt, Q0.15 out)\n\
             \x20      -> NHOGMem ({} banks, LU/RU/LB/RB groups, {}-row ring)\n\
             \x20      -> FeatureScaler (shift-and-add bilinear, 1/16 weights)\n\
             \x20      -> SvmEngine x{} ({} MACBAR x 16 MAC, {}-cycle fill, {} cycles/column)\n\
             scales: [{}]",
            g.bank_count(),
            g.buffered_rows(),
            self.config.scales.len(),
            g.macbar_count(),
            g.fill_cycles(),
            g.column_cycles(),
            scales
        )
    }
}

/// The report of a frame the fleet could not serve: every shard is
/// quarantined, so the frame is flagged and nothing unattested is emitted.
fn exhausted(
    fleet: &mut ShardFleet,
    mut fi: FrameIntegrity,
    watchdog: Option<PipelineWatchdog>,
    extractor_cycles: u64,
) -> (AcceleratorReport, FrameIntegrity) {
    fleet.record_exhausted();
    fi.fleet_exhausted = Some(fleet.shard_count() as u64);
    fi.watchdog_events = watchdog
        .map(PipelineWatchdog::into_events)
        .unwrap_or_default();
    (
        AcceleratorReport {
            detections: Vec::new(),
            extractor_cycles,
            scale_reports: Vec::new(),
        },
        fi,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardConfig;
    use rtped_detect::detector::score_window;

    fn textured(w: usize, h: usize) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| ((x * 29 + y * 13 + (x * y) % 31) % 256) as u8)
    }

    fn pseudo_model(bias: f64) -> LinearSvm {
        let weights: Vec<f64> = (0..4608)
            .map(|i| (((i * 2654435761usize) % 2001) as f64 / 1000.0 - 1.0) * 0.02)
            .collect();
        LinearSvm::new(weights, bias)
    }

    #[test]
    fn report_has_one_entry_per_scale() {
        let model = pseudo_model(-10.0);
        let acc = HogAccelerator::new(&model, AcceleratorConfig::default());
        let report = acc.process(&textured(256, 256));
        assert_eq!(report.scale_reports.len(), 2);
        assert_eq!(report.extractor_cycles, 256 * 256);
    }

    #[test]
    fn strongly_negative_bias_detects_nothing() {
        let model = pseudo_model(-10.0);
        let acc = HogAccelerator::new(&model, AcceleratorConfig::default());
        let report = acc.process(&textured(192, 256));
        assert!(report.detections.is_empty());
    }

    #[test]
    fn positive_bias_fires_and_boxes_are_scaled() {
        let model = LinearSvm::new(vec![0.0; 4608], 2.0);
        let config = AcceleratorConfig {
            nms_iou: None,
            ..AcceleratorConfig::default()
        };
        let acc = HogAccelerator::new(&model, config);
        let report = acc.process(&textured(256, 512));
        // Base scale 32x64 cells: 25x49 windows; scale 1.5: 21x43 cells ->
        // 14x28 windows.
        let base = &report.scale_reports[0];
        assert_eq!(base.windows, 25 * 49);
        let scaled = &report.scale_reports[1];
        assert_eq!(scaled.cells, (21, 43));
        assert_eq!(scaled.windows, 14 * 28);
        // Every window fired (bias 2.0, zero weights).
        assert_eq!(report.detections.len(), base.windows + scaled.windows);
        // Scaled boxes are 1.5x window size.
        let any_scaled = report
            .detections
            .iter()
            .find(|d| (d.scale - 1.5).abs() < 1e-9)
            .unwrap();
        assert_eq!(any_scaled.bbox.width, 96);
        assert_eq!(any_scaled.bbox.height, 192);
    }

    #[test]
    fn classifier_cycles_match_schedule_formula() {
        let model = pseudo_model(0.0);
        let acc = HogAccelerator::new(&model, AcceleratorConfig::default());
        let report = acc.process(&textured(256, 256));
        // 32x32 cells -> 32 * (288 + 31*36) = 32 * 1404 = 44,928.
        assert_eq!(report.scale_reports[0].classifier_cycles, 44_928);
    }

    #[test]
    fn frame_rate_is_bounded_by_slower_stage() {
        let model = pseudo_model(0.0);
        let acc = HogAccelerator::new(&model, AcceleratorConfig::default());
        let report = acc.process(&textured(256, 256));
        assert_eq!(
            report.frame_cycles(),
            report.extractor_cycles.max(report.classifier_cycles())
        );
        assert!(report.fps(ClockDomain::MHZ_125) > 0.0);
    }

    #[test]
    fn hw_scores_agree_with_float_reference_detector() {
        // End-to-end agreement: the fixed-point pipeline's window scores
        // must track the float pipeline's within quantization error.
        let params = HogParams::pedestrian();
        let frame = textured(96, 160);
        let model = pseudo_model(0.1);
        let config = AcceleratorConfig {
            scales: vec![1.0],
            nms_iou: None,
            threshold: -1e9, // keep every window
            ..AcceleratorConfig::default()
        };
        let acc = HogAccelerator::new(&model, config);
        let report = acc.process(&frame);
        let float_map = rtped_hog::feature_map::FeatureMap::extract(&frame, &params);
        for det in &report.detections {
            let cx = det.bbox.x as usize / 8;
            let cy = det.bbox.y as usize / 8;
            let float_score = score_window(&float_map, cx, cy, &params, &model);
            assert!(
                (det.score - float_score).abs() < 0.08,
                "window ({cx},{cy}): hw {} vs float {float_score}",
                det.score
            );
        }
    }

    #[test]
    fn describe_names_every_stage() {
        let model = pseudo_model(0.0);
        let acc = HogAccelerator::new(&model, AcceleratorConfig::default());
        let desc = acc.describe();
        for stage in [
            "GradientUnit",
            "HistogramUnit",
            "NormalizerUnit",
            "NHOGMem",
            "FeatureScaler",
            "SvmEngine",
        ] {
            assert!(desc.contains(stage), "missing stage {stage}");
        }
    }

    #[test]
    #[should_panic(expected = "the first scale must be the native 1.0")]
    fn non_native_first_scale_rejected() {
        let model = pseudo_model(0.0);
        let config = AcceleratorConfig {
            scales: vec![1.5],
            ..AcceleratorConfig::default()
        };
        let _ = HogAccelerator::new(&model, config);
    }

    #[test]
    #[should_panic(expected = "model does not match")]
    fn wrong_model_dim_rejected() {
        let model = LinearSvm::new(vec![0.0; 3780], 0.0);
        let _ = HogAccelerator::new(&model, AcceleratorConfig::default());
    }

    #[test]
    fn watchdog_flags_overruns_and_stalls() {
        let mut wd = PipelineWatchdog::new();
        let budget = ShardGeometry::paper().strip_cycles(32);
        assert_eq!(budget, 288 + 31 * 36);
        let obs = |strip, windows, observed_cycles| StripObservation {
            strip,
            windows,
            observed_cycles,
        };
        wd.observe_strip_budget(&obs(0, 25, budget), budget, 25);
        assert!(wd.clone().into_events().is_empty());
        wd.observe_strip_budget(&obs(1, 25, budget + 7), budget, 25);
        wd.observe_strip_budget(&obs(2, 24, budget), budget, 25);
        assert_eq!(
            wd.into_events(),
            [
                WatchdogEvent {
                    strip: 1,
                    kind: WatchdogKind::Overrun {
                        observed: budget + 7,
                        budget
                    }
                },
                WatchdogEvent {
                    strip: 2,
                    kind: WatchdogKind::Stall {
                        windows: 24,
                        expected: 25
                    }
                },
            ]
        );
    }

    #[test]
    fn integrity_report_without_dose_matches_plain_process() {
        let frame = textured(192, 256);
        let model = pseudo_model(0.1);
        let acc = HogAccelerator::new(&model, AcceleratorConfig::default());
        let plain = acc.process(&frame);
        for config in [IntegrityConfig::full(), IntegrityConfig::off()] {
            let (report, fi) =
                acc.process_with_integrity(&frame, &model, &config, &SoftErrorDose::none(), None);
            assert_eq!(report, plain, "mode {:?}", config.ecc);
            assert_eq!(fi.ecc.detected_total(), 0);
            assert!(fi.watchdog_events.is_empty());
            assert_eq!(fi.macbar_mismatches, 0);
            if let Some(ls) = &fi.lockstep {
                assert!(ls.is_clean(), "clean run diverged: {:?}", ls.worst());
            }
        }
    }

    #[test]
    fn stall_dose_trips_the_watchdog_and_stretches_cycles() {
        let frame = textured(192, 256);
        let model = pseudo_model(0.1);
        let acc = HogAccelerator::new(&model, AcceleratorConfig::default());
        let dose = SoftErrorDose {
            seed: 11,
            stall_cycles: 500,
            ..SoftErrorDose::none()
        };
        let (report, fi) =
            acc.process_with_integrity(&frame, &model, &IntegrityConfig::full(), &dose, None);
        assert_eq!(fi.injected_stall_cycles, 500);
        assert_eq!(fi.watchdog_events.len(), 1);
        assert!(matches!(
            fi.watchdog_events[0].kind,
            WatchdogKind::Overrun { observed, budget } if observed == budget + 500
        ));
        let clean = acc.process(&frame);
        assert_eq!(
            report.scale_reports[0].classifier_cycles,
            clean.scale_reports[0].classifier_cycles + 500
        );
    }

    #[test]
    fn single_bit_doses_leave_detections_bit_identical() {
        let frame = textured(192, 256);
        let model = pseudo_model(0.1);
        let acc = HogAccelerator::new(&model, AcceleratorConfig::default());
        let plain = acc.process(&frame);
        let dose = SoftErrorDose {
            seed: 2017,
            mem_flips: 4,
            ..SoftErrorDose::none()
        };
        let (report, fi) =
            acc.process_with_integrity(&frame, &model, &IntegrityConfig::full(), &dose, None);
        assert!(fi.ecc.corrected_total() >= 4);
        assert_eq!(fi.ecc.uncorrectable_total(), 0);
        assert_eq!(report, plain);
        assert!(fi.faults().is_empty());
    }

    #[test]
    fn sharded_clean_run_matches_single_instance_for_all_counts() {
        let frame = textured(192, 256);
        let model = pseudo_model(0.1);
        let acc = HogAccelerator::new(&model, AcceleratorConfig::default());
        let integrity = IntegrityConfig::full();
        let (single, _) =
            acc.process_with_integrity(&frame, &model, &integrity, &SoftErrorDose::none(), None);
        for shards in [1usize, 2, 4, 8] {
            let config = ShardConfig::new(shards, ShardGeometry::paper()).unwrap();
            let mut fleet = ShardFleet::new(&config);
            let (report, fi) = acc.process_with_integrity(
                &frame,
                &model,
                &integrity,
                &SoftErrorDose::none(),
                Some(&mut fleet),
            );
            assert_eq!(report.detections, single.detections, "{shards} shards");
            assert!(fi.shard_quarantines.is_empty());
            assert_eq!(fi.shards_active, shards as u64);
            assert_eq!(fi.fleet_exhausted, None);
            if shards == 1 {
                // One shard owning the whole frame pays exactly the
                // single-instance schedule.
                assert_eq!(report, single);
            }
        }
    }

    #[test]
    fn mid_frame_quarantine_failover_is_bit_identical_to_clean() {
        let frame = textured(192, 256);
        let model = pseudo_model(0.1);
        let acc = HogAccelerator::new(&model, AcceleratorConfig::default());
        let integrity = IntegrityConfig::full();
        let (clean, _) =
            acc.process_with_integrity(&frame, &model, &integrity, &SoftErrorDose::none(), None);
        let dose = SoftErrorDose {
            seed: 9,
            mem_double_flips: 1,
            ..SoftErrorDose::none()
        };
        let config = ShardConfig::new(4, ShardGeometry::paper()).unwrap();
        let mut fleet = ShardFleet::new(&config);
        let (report, fi) =
            acc.process_with_integrity(&frame, &model, &integrity, &dose, Some(&mut fleet));
        assert!(fi.ecc.uncorrectable_total() > 0, "double flip went unseen");
        assert_eq!(fi.shard_quarantines.len(), 1);
        assert!(fi.shard_failovers >= 1);
        assert_eq!(report.detections, clean.detections);
        assert!(fi.faults().iter().any(|f| f.label() == "shard_quarantine"));
        assert_eq!(fleet.quarantines(), 1);
        assert_eq!(fleet.failovers(), fi.shard_failovers);
    }

    #[test]
    fn exhausted_fleet_flags_the_frame_instead_of_serving_it() {
        let frame = textured(96, 160);
        let model = pseudo_model(0.1);
        let acc = HogAccelerator::new(&model, AcceleratorConfig::default());
        let config = ShardConfig::new(2, ShardGeometry::paper()).unwrap();
        let mut fleet = ShardFleet::new(&config);
        fleet.quarantine(0);
        fleet.quarantine(1);
        let (report, fi) = acc.process_with_integrity(
            &frame,
            &model,
            &IntegrityConfig::full(),
            &SoftErrorDose::none(),
            Some(&mut fleet),
        );
        assert!(report.detections.is_empty());
        assert!(report.scale_reports.is_empty());
        assert_eq!(fi.fleet_exhausted, Some(2));
        assert_eq!(fi.faults()[0].label(), "fleet_exhausted");
        assert_eq!(fleet.exhausted_frames(), 1);
    }

    #[test]
    fn containment_holds_the_schedule_even_with_the_watchdog_off() {
        let frame = textured(96, 192);
        let model = pseudo_model(0.1);
        let acc = HogAccelerator::new(&model, AcceleratorConfig::default());
        let clean = acc.process(&frame);
        let integrity = IntegrityConfig {
            watchdog: false,
            ..IntegrityConfig::full()
        };
        let dose = SoftErrorDose {
            seed: 4,
            stall_cycles: 300,
            ..SoftErrorDose::none()
        };
        let config = ShardConfig::new(2, ShardGeometry::paper()).unwrap();
        let mut fleet = ShardFleet::new(&config);
        let (report, fi) =
            acc.process_with_integrity(&frame, &model, &integrity, &dose, Some(&mut fleet));
        // No watchdog recorded the overrun, yet the stalled band's shard
        // was quarantined and its band re-run clean.
        assert!(fi.watchdog_events.is_empty());
        assert_eq!(fi.injected_stall_cycles, 300);
        assert_eq!(fi.shard_quarantines.len(), 1);
        assert_eq!(report.detections, clean.detections);
    }

    #[test]
    fn unsharded_path_serves_a_frame_a_one_shard_fleet_refuses() {
        let frame = textured(96, 160);
        let model = pseudo_model(0.1);
        let acc = HogAccelerator::new(&model, AcceleratorConfig::default());
        let dose = SoftErrorDose {
            seed: 3,
            mem_double_flips: 1,
            ..SoftErrorDose::none()
        };
        let integrity = IntegrityConfig::full();
        // One engine: the fault is reported and the frame still served.
        let (report, fi) = acc.process_with_integrity(&frame, &model, &integrity, &dose, None);
        assert!(fi.ecc.uncorrectable_total() > 0);
        assert_eq!(fi.fleet_exhausted, None);
        assert!(fi.shard_quarantines.is_empty());
        assert_eq!(report.scale_reports.len(), 2);
        // One shard: it quarantines itself and the fleet is exhausted.
        let config = ShardConfig::new(1, ShardGeometry::paper()).unwrap();
        let mut fleet = ShardFleet::new(&config);
        let (report, fi) =
            acc.process_with_integrity(&frame, &model, &integrity, &dose, Some(&mut fleet));
        assert_eq!(fi.fleet_exhausted, Some(1));
        assert!(report.scale_reports.is_empty());
    }

    #[test]
    fn geometry_scales_the_schedule_without_changing_scores() {
        let frame = textured(192, 256);
        let model = pseudo_model(0.1);
        let paper = HogAccelerator::new(&model, AcceleratorConfig::default());
        let fast = HogAccelerator::new(
            &model,
            AcceleratorConfig {
                geometry: ShardGeometry::new(32, 16, 36).unwrap(),
                ..AcceleratorConfig::default()
            },
        );
        let a = paper.process(&frame);
        let b = fast.process(&frame);
        // The geometry changes throughput, never arithmetic.
        assert_eq!(a.detections, b.detections);
        assert_eq!(
            b.scale_reports[0].classifier_cycles * 2,
            a.scale_reports[0].classifier_cycles
        );
        let desc = fast.describe();
        assert!(desc.contains("32 banks"));
        assert!(desc.contains("16 MACBAR"));
        assert!(desc.contains("36-row ring"));
    }

    #[test]
    fn unprotected_memory_corruption_is_caught_by_lockstep() {
        // ECC off + a barrage of flips: the golden float channel is the
        // only line of defense, and it must notice.
        let frame = textured(96, 160);
        let model = pseudo_model(0.1);
        let config = AcceleratorConfig {
            scales: vec![1.0],
            ..AcceleratorConfig::default()
        };
        let acc = HogAccelerator::new(&model, config);
        let integrity = IntegrityConfig {
            ecc: EccMode::Off,
            ..IntegrityConfig::full()
        };
        let dose = SoftErrorDose {
            seed: 5,
            mem_flips: 300,
            ..SoftErrorDose::none()
        };
        let (_, fi) = acc.process_with_integrity(&frame, &model, &integrity, &dose, None);
        assert_eq!(fi.ecc.detected_total(), 0, "ECC off must observe nothing");
        let ls = fi.lockstep.as_ref().unwrap();
        assert!(
            !ls.is_clean(),
            "300 unprotected flips stayed under tolerance {}",
            ls.tolerance
        );
        assert!(fi
            .faults()
            .iter()
            .any(|f| f.label() == "lockstep_divergence"));
    }
}
