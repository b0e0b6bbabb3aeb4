//! The two multi-scale detector configurations the paper compares (Fig. 3).
//!
//! Both detectors share the scoring core (a linear SVM over cell-major HOG
//! window descriptors, sliding one cell at a time) and differ only in how
//! they obtain features for the non-native scales:
//!
//! - [`ImagePyramidDetector`] (conventional, Fig. 3a): resize the image by
//!   `1/scale`, re-extract HOG, classify.
//! - [`FeaturePyramidDetector`] (the paper's method, Fig. 3b): extract HOG
//!   once, down-sample the normalized feature map per scale, classify.

use std::fmt;
use std::ops::Range;
use std::str::FromStr;
use std::sync::Mutex;

use rtped_core::json::{obj, required_field};
use rtped_core::{par, Error, FromJson, Json, ToJson};
use rtped_hog::feature_map::FeatureMap;
use rtped_hog::params::HogParams;
use rtped_hog::pyramid::{FeaturePyramid, ImagePyramid, PyramidLevel};
use rtped_hog::quant::{QuantFeatureMap, FEATURE_FRAC_BITS};
use rtped_image::GrayImage;
use rtped_svm::{LinearSvm, QuantModel};

use crate::bbox::BoundingBox;
use crate::kernel::{self, F32Kernel};
use crate::nms::non_maximum_suppression;
use crate::temporal::{self, PyramidCache, TemporalStats};

/// Below this many windows per scan, the scan runs serially: thread-pool
/// hand-off costs more than the scoring itself (the 640×480 parallel
/// regression in `BENCH_detect.json`).
const PAR_MIN_WINDOWS: usize = 8192;

/// Which arithmetic the window-scoring hot path uses.
///
/// [`Datapath::F32`] is the default and the golden reference: `f32`
/// features, `f64` accumulation, bit-identical to [`score_window`].
/// [`Datapath::I16`] mirrors the paper's fixed-point hardware on the CPU:
/// Q12 `i16` features against dynamically-scaled `i16` weights with `i32`
/// row accumulation (see `rtped_hog::quant`) — roughly 4× faster and, the
/// arithmetic being all-integer, bit-reproducible across hosts and thread
/// counts. Accuracy sits within the PR-4 quantization-ablation bound of
/// the float path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Datapath {
    /// Float features, `f64` accumulation (default, golden reference).
    #[default]
    F32,
    /// Fixed-point `i16` features and weights, integer accumulation.
    I16,
}

impl Datapath {
    /// Canonical lowercase name (`"f32"` / `"i16"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Datapath::F32 => "f32",
            Datapath::I16 => "i16",
        }
    }
}

impl fmt::Display for Datapath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Datapath {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Error> {
        match s {
            "f32" => Ok(Datapath::F32),
            "i16" => Ok(Datapath::I16),
            other => Err(Error::invalid_input(format!(
                "unknown datapath {other:?}: expected \"f32\" or \"i16\""
            ))),
        }
    }
}

/// One detected pedestrian.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Location in native frame coordinates.
    pub bbox: BoundingBox,
    /// SVM decision value (higher = more confident).
    pub score: f64,
    /// Pyramid scale the detection fired at.
    pub scale: f64,
}

impl ToJson for Detection {
    fn to_json(&self) -> Json {
        obj([
            ("bbox", self.bbox.to_json()),
            ("score", self.score.into()),
            ("scale", self.scale.into()),
        ])
    }
}

impl FromJson for Detection {
    fn from_json(json: &Json) -> Result<Self, Error> {
        let score = f64::from_json(required_field(json, "score")?)?;
        let scale = f64::from_json(required_field(json, "scale")?)?;
        if !score.is_finite() || !scale.is_finite() {
            return Err(Error::format("detection score and scale must be finite"));
        }
        Ok(Detection {
            bbox: BoundingBox::from_json(required_field(json, "bbox")?)?,
            score,
            scale,
        })
    }
}

/// Shared detector configuration.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Pyramid scales (1.0 = native window size; larger = larger objects).
    pub scales: Vec<f64>,
    /// Decision threshold (paper §4: the FP/FN trade-off knob).
    pub threshold: f64,
    /// Window stride in cells (1 = the hardware schedule).
    pub stride_cells: usize,
    /// IoU threshold for NMS; `None` disables suppression.
    pub nms_iou: Option<f64>,
    /// HOG geometry.
    pub params: HogParams,
    /// Scoring arithmetic (see [`Datapath`]).
    pub datapath: Datapath,
    /// Enables the temporal incremental pyramid for video streams: the
    /// detector caches the previous frame's pyramid (and pre-NMS scan
    /// results) and rebuilds only the rows that changed, falling back to a
    /// full rebuild on scene cuts. Output stays bit-identical to the
    /// stateless path; only `FeaturePyramidDetector` honours it
    /// (`ImagePyramidDetector` re-extracts per level and ignores it).
    pub temporal: bool,
}

impl DetectorConfig {
    /// The implemented hardware configuration: two scales (§5: "Due to the
    /// memory limitations only two scales of HOG features have been
    /// considered"). The second scale sits at 1.5, the limit up to which
    /// §4 shows feature scaling outperforms image scaling.
    #[must_use]
    pub fn two_scale() -> Self {
        Self {
            scales: vec![1.0, 1.5],
            threshold: 0.0,
            stride_cells: 1,
            nms_iou: Some(0.3),
            params: HogParams::pedestrian(),
            datapath: Datapath::F32,
            temporal: false,
        }
    }

    /// A custom scale ladder with otherwise default settings.
    ///
    /// # Panics
    ///
    /// Panics if `scales` is empty.
    #[must_use]
    pub fn with_scales(scales: Vec<f64>) -> Self {
        assert!(!scales.is_empty(), "need at least one scale");
        Self {
            scales,
            ..Self::two_scale()
        }
    }
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self::two_scale()
    }
}

/// One configuration path for both detector families.
///
/// `ImagePyramidDetector::new` and `FeaturePyramidDetector::new` predate
/// this builder and panic on bad input; the builder is the preferred
/// entry point — it validates everything up front and returns
/// [`Error::InvalidInput`] instead. The target detector is chosen by the
/// annotated result type (both families implement [`BuildDetector`]):
///
/// ```
/// use rtped_detect::detector::{DetectorBuilder, FeaturePyramidDetector};
/// use rtped_hog::params::HogParams;
/// use rtped_svm::LinearSvm;
///
/// let dim = HogParams::pedestrian().cell_descriptor_len();
/// let model = LinearSvm::new(vec![0.0; dim], -0.5);
/// let detector: FeaturePyramidDetector = DetectorBuilder::new(model)
///     .scales(vec![1.0, 1.5])
///     .threshold(0.25)
///     .stride_cells(1)
///     .nms_iou(0.3)
///     .build()
///     .expect("valid configuration");
/// ```
#[derive(Debug, Clone)]
pub struct DetectorBuilder {
    model: LinearSvm,
    config: DetectorConfig,
}

impl DetectorBuilder {
    /// Starts from the paper's two-scale hardware configuration
    /// ([`DetectorConfig::two_scale`]).
    #[must_use]
    pub fn new(model: LinearSvm) -> Self {
        Self {
            model,
            config: DetectorConfig::two_scale(),
        }
    }

    /// Replaces the pyramid scale ladder.
    #[must_use]
    pub fn scales(mut self, scales: Vec<f64>) -> Self {
        self.config.scales = scales;
        self
    }

    /// Sets the decision threshold (the paper's FP/FN trade-off knob).
    #[must_use]
    pub fn threshold(mut self, threshold: f64) -> Self {
        self.config.threshold = threshold;
        self
    }

    /// Sets the window stride in cells (1 = the hardware schedule).
    #[must_use]
    pub fn stride_cells(mut self, stride_cells: usize) -> Self {
        self.config.stride_cells = stride_cells;
        self
    }

    /// Enables non-maximum suppression at the given IoU overlap.
    #[must_use]
    pub fn nms_iou(mut self, iou: f64) -> Self {
        self.config.nms_iou = Some(iou);
        self
    }

    /// Replaces the HOG geometry.
    #[must_use]
    pub fn params(mut self, params: HogParams) -> Self {
        self.config.params = params;
        self
    }

    /// Selects the scoring arithmetic (default [`Datapath::F32`]).
    #[must_use]
    pub fn datapath(mut self, datapath: Datapath) -> Self {
        self.config.datapath = datapath;
        self
    }

    /// Enables the temporal incremental pyramid for video streams
    /// (default off; see [`DetectorConfig::temporal`]).
    #[must_use]
    pub fn temporal(mut self, temporal: bool) -> Self {
        self.config.temporal = temporal;
        self
    }

    fn validate(&self) -> Result<(), Error> {
        let config = &self.config;
        if config.scales.is_empty() {
            return Err(Error::invalid_input("detector needs at least one scale"));
        }
        if let Some(bad) = config.scales.iter().find(|s| !s.is_finite() || **s < 1.0) {
            return Err(Error::invalid_input(format!(
                "pyramid scale {bad} is invalid: scales must be finite and >= 1.0 \
                 (1.0 = native window size; larger values detect larger objects)"
            )));
        }
        if !config.threshold.is_finite() {
            return Err(Error::invalid_input("decision threshold must be finite"));
        }
        if config.stride_cells == 0 {
            return Err(Error::invalid_input(
                "window stride must be at least 1 cell",
            ));
        }
        if let Some(iou) = config.nms_iou {
            if !(iou > 0.0 && iou < 1.0) {
                return Err(Error::invalid_input(format!(
                    "NMS IoU overlap {iou} is invalid: must be strictly between 0 and 1"
                )));
            }
        }
        if self.model.dim() != config.params.cell_descriptor_len() {
            return Err(Error::invalid_input(format!(
                "model has {} weights but the configured window descriptor has {} features",
                self.model.dim(),
                config.params.cell_descriptor_len()
            )));
        }
        Ok(())
    }

    /// Validates the configuration and constructs the detector named by
    /// the result type.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] describing the first violated
    /// constraint (empty or sub-1.0 scales, zero stride, out-of-range NMS
    /// overlap, non-finite threshold, model/descriptor dimension
    /// mismatch).
    pub fn build<D: BuildDetector>(self) -> Result<D, Error> {
        self.validate()?;
        Ok(D::from_validated(self.model, self.config))
    }
}

/// Detector families [`DetectorBuilder::build`] can construct. Sealed:
/// implemented by [`ImagePyramidDetector`] and [`FeaturePyramidDetector`].
pub trait BuildDetector: sealed::Sealed + Sized {
    /// Constructs from parts the builder has already validated.
    #[doc(hidden)]
    fn from_validated(model: LinearSvm, config: DetectorConfig) -> Self;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::ImagePyramidDetector {}
    impl Sealed for super::FeaturePyramidDetector {}
}

impl BuildDetector for ImagePyramidDetector {
    fn from_validated(model: LinearSvm, config: DetectorConfig) -> Self {
        Self::assemble(model, config)
    }
}

impl BuildDetector for FeaturePyramidDetector {
    fn from_validated(model: LinearSvm, config: DetectorConfig) -> Self {
        Self::assemble(model, config)
    }
}

/// Quantizes `model` for the i16 datapath if `config` selects it.
fn quantize_model(model: &LinearSvm, config: &DetectorConfig) -> Option<QuantModel> {
    (config.datapath == Datapath::I16).then(|| {
        let (wc, _) = config.params.window_cells();
        let row_terms = wc * 4 * config.params.bins();
        QuantModel::from_svm(model, FEATURE_FRAC_BITS, row_terms)
    })
}

/// A load-shedding profile for one detection call: how much of the
/// configured scan a deadline-pressed caller still wants.
///
/// The runtime's degradation controller walks these knobs in a fixed
/// order (drop pyramid levels first, then coarsen the stride) instead of
/// mutating the detector, so the same detector instance can serve healthy
/// and degraded frames concurrently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanProfile {
    /// Keep at most this many pyramid scales, taken from the front of the
    /// configured ladder (the native scale first — nearest pedestrians,
    /// which the DAS braking envelope cares about most). `None` keeps the
    /// whole ladder.
    pub max_scales: Option<usize>,
    /// Multiplies the configured window stride (1 = configured stride;
    /// 2 = scan every other cell position — roughly a 4× window-count
    /// reduction).
    pub stride_factor: usize,
}

impl ScanProfile {
    /// The full configured scan — no shedding.
    #[must_use]
    pub fn full() -> Self {
        Self {
            max_scales: None,
            stride_factor: 1,
        }
    }

    /// Whether this profile sheds nothing relative to the configuration.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.max_scales.is_none() && self.stride_factor <= 1
    }

    /// The configuration this profile leaves in effect: the scale ladder
    /// truncated to `max_scales` (never below one scale) and the stride
    /// multiplied by `stride_factor`.
    #[must_use]
    pub fn effective(&self, config: &DetectorConfig) -> DetectorConfig {
        let mut out = config.clone();
        if let Some(max) = self.max_scales {
            out.scales.truncate(max.max(1));
        }
        out.stride_cells = config.stride_cells * self.stride_factor.max(1);
        out
    }
}

impl Default for ScanProfile {
    fn default() -> Self {
        Self::full()
    }
}

/// Common interface of the two detector configurations, so benchmarks and
/// applications can switch between them (Fig. 3's A/B comparison).
pub trait Detect {
    /// Runs detection over a full frame, returning native-coordinate
    /// detections (after NMS if configured).
    fn detect(&self, frame: &GrayImage) -> Vec<Detection>;

    /// [`Detect::detect`] under a load-shedding [`ScanProfile`].
    ///
    /// With [`ScanProfile::full`] this is exactly `detect` (bit-identical
    /// output). The default implementation ignores the profile — only
    /// detectors that know how to shed levels/stride override it; both
    /// in-tree families do.
    fn detect_with_profile(&self, frame: &GrayImage, _profile: &ScanProfile) -> Vec<Detection> {
        self.detect(frame)
    }

    /// Runs detection over a batch of frames in parallel, one result list
    /// per frame in input order (frame-level parallelism on top of the
    /// per-frame band parallelism; each entry is identical to calling
    /// [`Detect::detect`] on that frame alone).
    fn detect_frames(&self, frames: &[GrayImage]) -> Vec<Vec<Detection>>
    where
        Self: Sync + Sized,
    {
        par::map(frames, |frame| self.detect(frame))
    }

    /// The configuration in effect.
    fn config(&self) -> &DetectorConfig;

    /// Human-readable method name for reports.
    fn method_name(&self) -> &'static str;
}

/// `Detect` is object safe (`detect_frames` opts out via `Sized`), and
/// boxed trait objects forward transparently — so heterogeneous detector
/// fleets (`Vec<Box<dyn Detect + Send + Sync>>`, one tenant each) run
/// through the same engine code as concrete detectors.
impl<T: Detect + ?Sized> Detect for Box<T> {
    fn detect(&self, frame: &GrayImage) -> Vec<Detection> {
        (**self).detect(frame)
    }

    fn detect_with_profile(&self, frame: &GrayImage, profile: &ScanProfile) -> Vec<Detection> {
        (**self).detect_with_profile(frame, profile)
    }

    fn config(&self) -> &DetectorConfig {
        (**self).config()
    }

    fn method_name(&self) -> &'static str {
        (**self).method_name()
    }
}

/// Window-scan geometry of one pyramid level under a configuration.
#[derive(Debug, Clone)]
pub(crate) struct LevelGeometry {
    pub scale: f64,
    pub cell: usize,
    pub ww: usize,
    pub wh: usize,
    pub wc: usize,
    pub hc: usize,
    pub stride: usize,
    pub rows: usize,
    pub cols: usize,
}

impl LevelGeometry {
    /// Geometry for a level with `cells` under `config`, or `None` when
    /// the level is too small to hold a single window.
    fn for_level(cells: (usize, usize), scale: f64, config: &DetectorConfig) -> Option<Self> {
        let params = &config.params;
        let (wc, hc) = params.window_cells();
        let (gx, gy) = cells;
        if gx < wc || gy < hc {
            return None;
        }
        let (ww, wh) = params.window_size();
        let stride = config.stride_cells;
        Some(Self {
            scale,
            cell: params.cell_size(),
            ww,
            wh,
            wc,
            hc,
            stride,
            rows: (gy - hc) / stride + 1,
            cols: (gx - wc) / stride + 1,
        })
    }
}

/// A level's features in the scoring form of its datapath.
#[derive(Debug)]
pub(crate) enum Plane {
    /// f32 datapath: the features widened to `f64` once (exact).
    F64(Vec<f64>),
    /// i16 datapath: the features quantized to Q12.
    I16(QuantFeatureMap),
}

impl Plane {
    /// The plane of `features` for the datapath `quant` selects (`Some`:
    /// i16).
    fn new(features: &FeatureMap, quant: Option<&QuantModel>) -> Self {
        match quant {
            Some(_) => Plane::I16(features.quantized()),
            None => Plane::F64(kernel::to_f64(features)),
        }
    }

    /// Refreshes cell rows `rows` from `features`, leaving the others.
    pub(crate) fn update_rows(&mut self, features: &FeatureMap, rows: Range<usize>) {
        match self {
            Plane::F64(raw64) => kernel::update_rows_f64(raw64, features, rows),
            Plane::I16(qmap) => features.quantize_rows_into(qmap, rows),
        }
    }
}

/// A bound per-level scorer for one datapath: scores a whole window row
/// per call through the blocked kernels.
enum RowScorer<'a> {
    /// Blocked f64-accumulation kernel over preconverted features.
    F32(F32Kernel<'a>),
    /// Integer kernel over quantized features and weights.
    I16 {
        qmap: &'a QuantFeatureMap,
        model: &'a QuantModel,
        wc: usize,
        hc: usize,
    },
}

impl<'a> RowScorer<'a> {
    /// Binds `plane` (built from `features`) to the model of its datapath.
    ///
    /// # Panics
    ///
    /// Panics if `plane` is i16 and `quant` is `None`; [`Plane::new`]
    /// builds an i16 plane only for a quantized model.
    fn new(
        plane: &'a Plane,
        features: &FeatureMap,
        geom: &LevelGeometry,
        model: &'a LinearSvm,
        quant: Option<&'a QuantModel>,
    ) -> Self {
        match plane {
            Plane::F64(raw64) => RowScorer::F32(F32Kernel::new(
                raw64,
                features.cells().0,
                features.cell_features(),
                geom.wc,
                geom.hc,
                model,
            )),
            Plane::I16(qmap) => RowScorer::I16 {
                qmap,
                model: quant.expect("an i16 plane is built only for a quantized model"),
                wc: geom.wc,
                hc: geom.hc,
            },
        }
    }

    /// Scores window-row `ry`, returning its above-threshold detections in
    /// column order (the serial raster order within the row).
    fn row_hits(&self, geom: &LevelGeometry, threshold: f64, ry: usize) -> Vec<Detection> {
        let cy = ry * geom.stride;
        let mut scores = vec![0.0f64; geom.cols];
        match self {
            RowScorer::F32(kernel) => {
                kernel.score_window_row(cy, geom.cols, geom.stride, &mut scores);
            }
            RowScorer::I16 {
                qmap,
                model,
                wc,
                hc,
            } => {
                let mut acc = vec![0i64; geom.cols];
                qmap.score_window_row(
                    model.weights(),
                    *wc,
                    *hc,
                    cy,
                    geom.cols,
                    geom.stride,
                    &mut acc,
                );
                for (s, &a) in scores.iter_mut().zip(&acc) {
                    *s = model.decision(a);
                }
            }
        }
        let mut hits = Vec::new();
        for (rx, &score) in scores.iter().enumerate() {
            if score > threshold {
                let cx = rx * geom.stride;
                let native = BoundingBox::new(
                    (cx * geom.cell) as i64,
                    (cy * geom.cell) as i64,
                    geom.ww as u64,
                    geom.wh as u64,
                )
                .scaled(geom.scale);
                hits.push(Detection {
                    bbox: native,
                    score,
                    scale: geom.scale,
                });
            }
        }
        hits
    }
}

/// One pyramid level as its scan left it: the window geometry, the plane
/// the windows were scored on, and the pre-NMS hits of every window row.
#[derive(Debug)]
pub(crate) struct LevelScan {
    pub geom: LevelGeometry,
    pub plane: Plane,
    /// Above-threshold detections per window row, in native coordinates.
    pub row_hits: Vec<Vec<Detection>>,
}

impl LevelScan {
    /// Scores window rows `rys` against the plane, which the caller keeps
    /// current with `features`, and replaces their hits. Rows are fanned
    /// across cores in contiguous bands, about four per worker — each
    /// row's result is independent, so the hits are identical for any
    /// thread count — and a small scan is one band, run serially.
    pub(crate) fn rescan(
        &mut self,
        features: &FeatureMap,
        model: &LinearSvm,
        quant: Option<&QuantModel>,
        config: &DetectorConfig,
        rys: &[usize],
    ) {
        let geom = &self.geom;
        let scorer = RowScorer::new(&self.plane, features, geom, model, quant);
        let band_len = if rys.len() * geom.cols < PAR_MIN_WINDOWS {
            rys.len()
        } else {
            rys.len().div_ceil(par::threads() * 4)
        };
        let mut fresh: Vec<Vec<Detection>> = vec![Vec::new(); rys.len()];
        par::for_each_band(&mut fresh, band_len, |start, band| {
            for (hits, &ry) in band.iter_mut().zip(&rys[start..]) {
                *hits = scorer.row_hits(geom, config.threshold, ry);
            }
        });
        for (&ry, hits) in rys.iter().zip(fresh) {
            self.row_hits[ry] = hits;
        }
    }
}

/// Builds a level's scoring plane for the configured datapath and scores
/// every window row of it — the one level scan of the stateless detectors
/// and of the temporal cache's cold build. The f32 path is bit-identical
/// to the reference [`score_window`]. `None` when the level cannot hold a
/// window.
pub(crate) fn scan_level(
    level: &PyramidLevel,
    model: &LinearSvm,
    quant: Option<&QuantModel>,
    config: &DetectorConfig,
) -> Option<LevelScan> {
    let geom = LevelGeometry::for_level(level.features.cells(), level.scale, config)?;
    let rys: Vec<usize> = (0..geom.rows).collect();
    let mut scan = LevelScan {
        plane: Plane::new(&level.features, quant),
        row_hits: vec![Vec::new(); geom.rows],
        geom,
    };
    scan.rescan(&level.features, model, quant, config, &rys);
    Some(scan)
}

/// Scans `levels` in order and applies the configured NMS: the stateless
/// scan body of both detector families.
fn detect_levels(
    levels: &[PyramidLevel],
    model: &LinearSvm,
    quant: Option<&QuantModel>,
    config: &DetectorConfig,
) -> Vec<Detection> {
    let hits = levels
        .iter()
        .filter_map(|level| scan_level(level, model, quant, config))
        .flat_map(|scan| scan.row_hits.into_iter().flatten())
        .collect();
    suppress(hits, config)
}

/// Applies the configured non-maximum suppression, if any.
pub(crate) fn suppress(hits: Vec<Detection>, config: &DetectorConfig) -> Vec<Detection> {
    match config.nms_iou {
        Some(iou) => non_maximum_suppression(hits, iou),
        None => hits,
    }
}

/// Computes `w·x + b` for the window at `(cx, cy)` without materializing
/// the 4608-element descriptor: one strided dot product straight against
/// the feature-map storage. The window's `wc` cells per row are contiguous
/// in the cell-major layout, so each window row is a single dense segment
/// of `wc * cell_features` values dotted against the matching weight
/// segment — `hc` strides per window, zero copies (the same order the
/// hardware's MACBAR units consume features in).
///
/// # Panics
///
/// Panics if the model dimensionality does not match
/// `params.cell_descriptor_len()` or the window is out of bounds.
#[must_use]
pub fn score_window(
    map: &FeatureMap,
    cx: usize,
    cy: usize,
    params: &HogParams,
    model: &LinearSvm,
) -> f64 {
    let (wc, hc) = params.window_cells();
    let (gx, gy) = map.cells();
    let f = map.cell_features();
    assert_eq!(
        model.dim(),
        wc * hc * f,
        "model dimensionality does not match the window descriptor"
    );
    assert!(
        cx + wc <= gx && cy + hc <= gy,
        "window out of bounds: ({cx},{cy}) + {wc}x{hc} > {gx}x{gy}"
    );
    let raw = map.as_raw();
    let weights = model.weights();
    let row_len = wc * f;
    let mut acc = 0.0f64;
    for dy in 0..hc {
        let base = ((cy + dy) * gx + cx) * f;
        let features = &raw[base..base + row_len];
        let wrow = &weights[dy * row_len..(dy + 1) * row_len];
        for (w, &v) in wrow.iter().zip(features) {
            acc += w * f64::from(v);
        }
    }
    acc + model.bias()
}

/// Conventional multi-scale detector: image pyramid + re-extraction
/// (paper Fig. 3a).
///
/// Honours [`DetectorConfig::datapath`]; `temporal` is ignored (each level
/// re-extracts from a resized image, so there is no shared pyramid to
/// cache incrementally).
#[derive(Debug, Clone)]
pub struct ImagePyramidDetector {
    model: LinearSvm,
    config: DetectorConfig,
    quant: Option<QuantModel>,
}

impl ImagePyramidDetector {
    /// Creates the detector.
    ///
    /// # Panics
    ///
    /// Panics if the model dimensionality does not match the config's
    /// cell-major window descriptor.
    #[must_use]
    pub fn new(model: LinearSvm, config: DetectorConfig) -> Self {
        assert_eq!(
            model.dim(),
            config.params.cell_descriptor_len(),
            "model dimensionality does not match the window descriptor"
        );
        Self::assemble(model, config)
    }

    fn assemble(model: LinearSvm, config: DetectorConfig) -> Self {
        let quant = quantize_model(&model, &config);
        Self {
            model,
            config,
            quant,
        }
    }

    /// The underlying SVM model.
    #[must_use]
    pub fn model(&self) -> &LinearSvm {
        &self.model
    }

    /// The scan body, parameterized over the effective configuration so
    /// the shedding path and the plain path are the same code.
    fn detect_with_config(&self, frame: &GrayImage, config: &DetectorConfig) -> Vec<Detection> {
        let pyramid = ImagePyramid::build(frame, &config.scales, &config.params);
        detect_levels(pyramid.levels(), &self.model, self.quant.as_ref(), config)
    }
}

impl Detect for ImagePyramidDetector {
    fn detect(&self, frame: &GrayImage) -> Vec<Detection> {
        self.detect_with_config(frame, &self.config)
    }

    fn detect_with_profile(&self, frame: &GrayImage, profile: &ScanProfile) -> Vec<Detection> {
        if profile.is_full() {
            return self.detect(frame);
        }
        self.detect_with_config(frame, &profile.effective(&self.config))
    }

    fn config(&self) -> &DetectorConfig {
        &self.config
    }

    fn method_name(&self) -> &'static str {
        "image-pyramid"
    }
}

/// The paper's detector: single extraction + HOG feature pyramid
/// (Fig. 3b, Fig. 6).
///
/// Honours both [`DetectorConfig::datapath`] and
/// [`DetectorConfig::temporal`]; with `temporal` on, the detector keeps a
/// [`PyramidCache`] (behind a mutex, so `&self` detection still works) and
/// serves steady-state video frames by rebuilding only the cell rows that
/// changed since the previous frame.
#[derive(Debug)]
pub struct FeaturePyramidDetector {
    model: LinearSvm,
    config: DetectorConfig,
    quant: Option<QuantModel>,
    cache: Mutex<Option<PyramidCache>>,
}

impl Clone for FeaturePyramidDetector {
    /// Clones the detector; the temporal cache is transient state and
    /// starts empty in the clone.
    fn clone(&self) -> Self {
        Self {
            model: self.model.clone(),
            config: self.config.clone(),
            quant: self.quant.clone(),
            cache: Mutex::new(None),
        }
    }
}

impl FeaturePyramidDetector {
    /// Creates the detector.
    ///
    /// # Panics
    ///
    /// Panics if the model dimensionality does not match the config's
    /// cell-major window descriptor.
    #[must_use]
    pub fn new(model: LinearSvm, config: DetectorConfig) -> Self {
        assert_eq!(
            model.dim(),
            config.params.cell_descriptor_len(),
            "model dimensionality does not match the window descriptor"
        );
        Self::assemble(model, config)
    }

    fn assemble(model: LinearSvm, config: DetectorConfig) -> Self {
        let quant = quantize_model(&model, &config);
        Self {
            model,
            config,
            quant,
            cache: Mutex::new(None),
        }
    }

    /// The underlying SVM model.
    #[must_use]
    pub fn model(&self) -> &LinearSvm {
        &self.model
    }

    /// Temporal-cache statistics, if the temporal path has run at least
    /// once (`None` otherwise or when `temporal` is off).
    #[must_use]
    pub fn temporal_stats(&self) -> Option<TemporalStats> {
        let guard = match self.cache.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.as_ref().map(PyramidCache::stats)
    }

    /// Drops the temporal cache (the next temporal frame rebuilds cold).
    pub fn reset_temporal_cache(&self) {
        let mut guard = match self.cache.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        *guard = None;
    }

    /// The temporal detection path: diff against the cached frame, refresh
    /// dirty rows, rescan dirty window rows, reuse the rest.
    fn detect_temporal(&self, frame: &GrayImage) -> Vec<Detection> {
        let mut guard = match self.cache.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        temporal::detect(
            &mut guard,
            frame,
            &self.model,
            self.quant.as_ref(),
            &self.config,
        )
    }

    /// Detects over a pre-extracted base feature map (lets callers reuse
    /// the extraction across detectors or share it with the hardware
    /// model).
    #[must_use]
    pub fn detect_on_features(&self, base: &FeatureMap) -> Vec<Detection> {
        self.detect_on_features_with_config(base, &self.config)
    }

    /// The scan body, parameterized over the effective configuration so
    /// the shedding path and the plain path are the same code.
    fn detect_on_features_with_config(
        &self,
        base: &FeatureMap,
        config: &DetectorConfig,
    ) -> Vec<Detection> {
        let pyramid = FeaturePyramid::from_base(base, &config.scales, &config.params);
        detect_levels(pyramid.levels(), &self.model, self.quant.as_ref(), config)
    }
}

impl Detect for FeaturePyramidDetector {
    fn detect(&self, frame: &GrayImage) -> Vec<Detection> {
        if self.config.temporal {
            // Bit-identical to the stateless path below (asserted by the
            // temporal property tests), just incremental across frames.
            return self.detect_temporal(frame);
        }
        let base = FeatureMap::extract(frame, &self.config.params);
        self.detect_on_features(&base)
    }

    fn detect_with_profile(&self, frame: &GrayImage, profile: &ScanProfile) -> Vec<Detection> {
        if profile.is_full() {
            return self.detect(frame);
        }
        // Extraction runs on the full frame either way (the paper's whole
        // point is that extraction happens once); shedding trims the
        // feature-pyramid levels and the scan density. Shed frames bypass
        // the temporal cache — its row hits are only valid for the full
        // configured scan — without invalidating it.
        let base = FeatureMap::extract(frame, &self.config.params);
        self.detect_on_features_with_config(&base, &profile.effective(&self.config))
    }

    fn detect_frames(&self, frames: &[GrayImage]) -> Vec<Vec<Detection>>
    where
        Self: Sync + Sized,
    {
        if self.config.temporal {
            // Temporal caching is inherently sequential: each frame diffs
            // against its predecessor, so the batch walks in order.
            return frames.iter().map(|frame| self.detect(frame)).collect();
        }
        par::map(frames, |frame| self.detect(frame))
    }

    fn config(&self) -> &DetectorConfig {
        &self.config
    }

    fn method_name(&self) -> &'static str {
        "feature-pyramid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zero_model(params: &HogParams, bias: f64) -> LinearSvm {
        LinearSvm::new(vec![0.0; params.cell_descriptor_len()], bias)
    }

    fn textured(w: usize, h: usize) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| ((x * 13 + y * 7 + x * y % 11) % 256) as u8)
    }

    #[test]
    fn negative_bias_model_never_fires() {
        let config = DetectorConfig::two_scale();
        let model = zero_model(&config.params, -1.0);
        let det = FeaturePyramidDetector::new(model, config);
        assert!(det.detect(&textured(320, 240)).is_empty());
    }

    #[test]
    fn positive_bias_model_fires_everywhere_then_nms_collapses() {
        let mut config = DetectorConfig::with_scales(vec![1.0]);
        config.nms_iou = Some(0.3);
        let model = zero_model(&config.params, 1.0);
        let det = FeaturePyramidDetector::new(model, config);
        let hits = det.detect(&textured(128, 192));
        // 128x192 -> 16x24 cells -> 9x9 = 81 windows, all score 1.0; NMS
        // keeps a non-overlapping subset.
        assert!(!hits.is_empty());
        assert!(hits.len() < 81);
        for pair in hits.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn without_nms_all_windows_fire() {
        let mut config = DetectorConfig::with_scales(vec![1.0]);
        config.nms_iou = None;
        let model = zero_model(&config.params, 1.0);
        let det = FeaturePyramidDetector::new(model, config);
        let hits = det.detect(&textured(128, 192));
        assert_eq!(hits.len(), 9 * 9);
    }

    #[test]
    fn detections_are_scaled_to_native_coordinates() {
        let mut config = DetectorConfig::with_scales(vec![2.0]);
        config.nms_iou = None;
        let model = zero_model(&config.params, 1.0);
        let det = FeaturePyramidDetector::new(model, config);
        // 256x512 image: at scale 2 the feature map is 16x32 cells,
        // 9x17 windows; boxes are 128x256 in native coordinates.
        let hits = det.detect(&textured(256, 512));
        assert!(!hits.is_empty());
        for h in &hits {
            assert_eq!(h.bbox.width, 128);
            assert_eq!(h.bbox.height, 256);
            assert_eq!(h.scale, 2.0);
        }
    }

    #[test]
    fn image_and_feature_detectors_share_the_interface() {
        let config = DetectorConfig::two_scale();
        let model = zero_model(&config.params, -1.0);
        let detectors: Vec<Box<dyn Detect>> = vec![
            Box::new(ImagePyramidDetector::new(model.clone(), config.clone())),
            Box::new(FeaturePyramidDetector::new(model, config)),
        ];
        let frame = textured(160, 256);
        for d in &detectors {
            assert!(d.detect(&frame).is_empty());
            assert_eq!(d.config().scales.len(), 2);
        }
        assert_eq!(detectors[0].method_name(), "image-pyramid");
        assert_eq!(detectors[1].method_name(), "feature-pyramid");
    }

    #[test]
    fn boxed_trait_objects_forward_identically() {
        let config = DetectorConfig::with_scales(vec![1.0]);
        let model = zero_model(&config.params, 1.0);
        let concrete = FeaturePyramidDetector::new(model, config);
        let frame = textured(128, 192);
        let direct = concrete.detect(&frame);
        let shed = ScanProfile {
            max_scales: Some(1),
            stride_factor: 2,
        };
        let direct_shed = concrete.detect_with_profile(&frame, &shed);

        let boxed: Box<dyn Detect + Send + Sync> = Box::new(concrete);
        assert_eq!(boxed.detect(&frame), direct);
        assert_eq!(boxed.detect_with_profile(&frame, &shed), direct_shed);
        assert_eq!(boxed.method_name(), "feature-pyramid");
        assert_eq!(boxed.config().scales, vec![1.0]);
    }

    #[test]
    fn detection_json_roundtrip() {
        let d = Detection {
            bbox: BoundingBox::new(8, 16, 64, 128),
            score: 1.25,
            scale: 1.5,
        };
        let json = d.to_json();
        assert_eq!(
            json.to_string(),
            r#"{"bbox":{"x":8,"y":16,"w":64,"h":128},"score":1.25,"scale":1.5}"#
        );
        assert_eq!(Detection::from_json(&json).unwrap(), d);
        assert!(Detection::from_json(&Json::Null).is_err());
    }

    #[test]
    fn score_window_matches_descriptor_dot_product() {
        let params = HogParams::pedestrian();
        let img = textured(96, 160);
        let map = FeatureMap::extract(&img, &params);
        // Random-ish deterministic weights.
        let weights: Vec<f64> = (0..params.cell_descriptor_len())
            .map(|i| ((i * 2654435761usize) % 1000) as f64 / 1000.0 - 0.5)
            .collect();
        let model = LinearSvm::new(weights, 0.25);
        let fast = score_window(&map, 2, 1, &params, &model);
        let descriptor = map.window_descriptor(2, 1, &params);
        let direct = model.decision(&descriptor);
        assert!((fast - direct).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "model dimensionality")]
    fn wrong_model_dimension_is_rejected() {
        let config = DetectorConfig::two_scale();
        let model = LinearSvm::new(vec![0.0; 100], 0.0);
        let _ = FeaturePyramidDetector::new(model, config);
    }

    #[test]
    fn threshold_filters_detections() {
        let mut config = DetectorConfig::with_scales(vec![1.0]);
        config.nms_iou = None;
        config.threshold = 2.0;
        let model = zero_model(&config.params, 1.0); // every window scores 1.0
        let det = FeaturePyramidDetector::new(model, config);
        assert!(det.detect(&textured(128, 192)).is_empty());
    }

    #[test]
    fn builder_constructs_both_families_with_one_config_path() {
        let params = HogParams::pedestrian();
        let model = zero_model(&params, 1.0);
        let image_det: ImagePyramidDetector = DetectorBuilder::new(model.clone())
            .scales(vec![1.0])
            .build()
            .unwrap();
        let feature_det: FeaturePyramidDetector = DetectorBuilder::new(model)
            .scales(vec![1.0])
            .build()
            .unwrap();
        let frame = textured(128, 192);
        // Identical configs scanning the native scale agree exactly.
        assert_eq!(
            image_det.detect(&frame).len(),
            feature_det.detect(&frame).len()
        );
        assert_eq!(image_det.config().stride_cells, 1);
        assert_eq!(feature_det.config().nms_iou, image_det.config().nms_iou);
    }

    #[test]
    fn builder_rejects_invalid_configurations() {
        let params = HogParams::pedestrian();
        let model = zero_model(&params, 0.0);

        let cases: Vec<(DetectorBuilder, &str)> = vec![
            (
                DetectorBuilder::new(model.clone()).scales(vec![]),
                "at least one scale",
            ),
            (
                DetectorBuilder::new(model.clone()).scales(vec![0.5]),
                "finite and >= 1.0",
            ),
            (
                DetectorBuilder::new(model.clone()).scales(vec![f64::NAN]),
                "finite and >= 1.0",
            ),
            (
                DetectorBuilder::new(model.clone()).stride_cells(0),
                "stride",
            ),
            (DetectorBuilder::new(model.clone()).nms_iou(0.0), "IoU"),
            (DetectorBuilder::new(model.clone()).nms_iou(1.5), "IoU"),
            (
                DetectorBuilder::new(model.clone()).threshold(f64::INFINITY),
                "threshold must be finite",
            ),
            (
                DetectorBuilder::new(LinearSvm::new(vec![0.0; 7], 0.0)),
                "7 weights",
            ),
        ];
        for (builder, needle) in cases {
            let err = builder.build::<FeaturePyramidDetector>().unwrap_err();
            assert!(
                matches!(err, Error::InvalidInput(_)) && err.to_string().contains(needle),
                "expected InvalidInput mentioning {needle:?}, got: {err}"
            );
        }
    }

    /// Runs `f` with `RTPED_THREADS` pinned, restoring the ambient value.
    fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
        let saved = rtped_core::env::raw(rtped_core::par::THREADS_ENV);
        std::env::set_var(rtped_core::par::THREADS_ENV, threads.to_string());
        let out = f();
        match saved {
            Some(v) => std::env::set_var(rtped_core::par::THREADS_ENV, v),
            None => std::env::remove_var(rtped_core::par::THREADS_ENV),
        }
        out
    }

    fn textured_model(params: &HogParams, bias: f64) -> LinearSvm {
        let weights: Vec<f64> = (0..params.cell_descriptor_len())
            .map(|i| ((i * 2654435761usize) % 1000) as f64 / 1000.0 - 0.5)
            .collect();
        LinearSvm::new(weights, bias)
    }

    #[test]
    fn parallel_detection_is_bit_identical_to_serial() {
        use rtped_dataset::scene::SceneBuilder;

        let scene = SceneBuilder::new(320, 256)
            .seed(5)
            .pedestrian_window(64, 128, 1.0)
            .pedestrian_window(64, 128, 1.25)
            .build();
        let config = DetectorConfig {
            // Low threshold so many windows fire and the band merge is
            // exercised on a dense hit list, not just one or two boxes.
            threshold: -1.0,
            ..DetectorConfig::two_scale()
        };
        let model = textured_model(&config.params, 0.5);
        let image_det = ImagePyramidDetector::new(model.clone(), config.clone());
        let feature_det = FeaturePyramidDetector::new(model, config);
        let detectors: [&dyn Detect; 2] = [&image_det, &feature_det];
        for det in detectors {
            let serial = with_threads(1, || det.detect(&scene.frame));
            assert!(
                !serial.is_empty(),
                "{}: scene must produce detections for the comparison to bite",
                det.method_name()
            );
            for threads in [2, 4, 7] {
                let parallel = with_threads(threads, || det.detect(&scene.frame));
                assert_eq!(
                    serial,
                    parallel,
                    "{} diverged at {threads} threads",
                    det.method_name()
                );
            }
        }
    }

    #[test]
    fn detect_frames_matches_per_frame_detect() {
        let config = DetectorConfig::two_scale();
        let model = textured_model(&config.params, 0.2);
        let det = FeaturePyramidDetector::new(model, config);
        let frames: Vec<GrayImage> = (0..3)
            .map(|k| {
                GrayImage::from_fn(160, 192, move |x, y| {
                    ((x * 13 + y * 7 + k * 31 + x * y % 11) % 256) as u8
                })
            })
            .collect();
        let batched = det.detect_frames(&frames);
        assert_eq!(batched.len(), frames.len());
        for (frame, hits) in frames.iter().zip(&batched) {
            assert_eq!(&det.detect(frame), hits);
        }
    }

    #[test]
    fn full_profile_is_bit_identical_to_plain_detect() {
        let config = DetectorConfig::two_scale();
        let model = textured_model(&config.params, 0.3);
        let frame = textured(320, 256);
        let image_det = ImagePyramidDetector::new(model.clone(), config.clone());
        let feature_det = FeaturePyramidDetector::new(model, config);
        let detectors: [&dyn Detect; 2] = [&image_det, &feature_det];
        for det in detectors {
            let plain = det.detect(&frame);
            let profiled = det.detect_with_profile(&frame, &ScanProfile::full());
            assert_eq!(plain, profiled, "{}", det.method_name());
        }
    }

    #[test]
    fn shedding_scales_drops_coarse_level_detections() {
        // Two scales, no NMS: the full scan reports scale-1.5 hits, the
        // shed scan must not.
        let mut config = DetectorConfig::two_scale();
        config.nms_iou = None;
        let model = zero_model(&config.params, 1.0);
        let det = FeaturePyramidDetector::new(model, config);
        let frame = textured(192, 256);
        let full = det.detect(&frame);
        assert!(full.iter().any(|d| d.scale > 1.0), "need coarse-level hits");
        let shed = det.detect_with_profile(
            &frame,
            &ScanProfile {
                max_scales: Some(1),
                stride_factor: 1,
            },
        );
        assert!(!shed.is_empty());
        assert!(shed.iter().all(|d| d.scale == 1.0));
        // Native-scale hits are exactly the full scan's native subset.
        let native: Vec<Detection> = full.into_iter().filter(|d| d.scale == 1.0).collect();
        assert_eq!(shed, native);
    }

    #[test]
    fn stride_factor_thins_the_scan() {
        let mut config = DetectorConfig::with_scales(vec![1.0]);
        config.nms_iou = None;
        let model = zero_model(&config.params, 1.0);
        let det = FeaturePyramidDetector::new(model, config);
        let frame = textured(128, 192); // 9x9 = 81 windows at stride 1
        let full = det.detect(&frame);
        assert_eq!(full.len(), 81);
        let coarse = det.detect_with_profile(
            &frame,
            &ScanProfile {
                max_scales: None,
                stride_factor: 2,
            },
        );
        // Stride 2 visits ceil(9/2)^2 = 25 positions.
        assert_eq!(coarse.len(), 25);
    }

    #[test]
    fn effective_never_sheds_below_one_scale() {
        let config = DetectorConfig::two_scale();
        let profile = ScanProfile {
            max_scales: Some(0),
            stride_factor: 1,
        };
        assert_eq!(profile.effective(&config).scales, vec![1.0]);
        assert!(ScanProfile::full().is_full());
        assert!(!profile.is_full());
    }

    #[test]
    fn small_frame_yields_no_detections() {
        let config = DetectorConfig::two_scale();
        let model = zero_model(&config.params, 1.0);
        let det = ImagePyramidDetector::new(model, config);
        // Smaller than one window: nothing to scan.
        assert!(det.detect(&textured(32, 32)).is_empty());
    }
}
