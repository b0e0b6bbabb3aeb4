//! Helpers shared by the workloads: the model, output digests, the
//! stateless stage decomposition of one detection, and process figures.

use rtped_core::json::Json;
use rtped_core::{Error, ToJson};
use rtped_detect::detector::{Datapath, Detect, DetectorBuilder, FeaturePyramidDetector};
use rtped_detect::nms::non_maximum_suppression;
use rtped_detect::Detection;
use rtped_hog::feature_map::FeatureMap;
use rtped_hog::grid::CellGrid;
use rtped_hog::pyramid::FeaturePyramid;
use rtped_hw::{AcceleratorConfig, HogAccelerator};
use rtped_image::GrayImage;
use rtped_serve::tenant::fnv1a;
use rtped_svm::LinearSvm;

use crate::trace::{Layers, Tracer};

/// The shipped pedestrian model, read from the checkout root.
pub const MODEL_PATH: &str = "models/pedestrian_synthetic.json";

pub fn load_model() -> Result<LinearSvm, Error> {
    rtped_svm::io::load_model(MODEL_PATH)
}

/// The paper's two-scale detector on `datapath`.
pub fn detector(
    model: LinearSvm,
    datapath: Datapath,
    temporal: bool,
) -> Result<FeaturePyramidDetector, Error> {
    DetectorBuilder::new(model)
        .datapath(datapath)
        .temporal(temporal)
        .build()
}

/// The accelerator model at the native scale, as `hw:` engines run it.
pub fn accelerator() -> Result<HogAccelerator, Error> {
    let config = AcceleratorConfig {
        scales: vec![1.0],
        ..AcceleratorConfig::default()
    };
    Ok(HogAccelerator::new(&load_model()?, config))
}

/// FNV-1a over the canonical JSON of a detection list.
pub fn digest(detections: &[Detection]) -> u64 {
    let json = Json::Array(detections.iter().map(ToJson::to_json).collect());
    fnv1a(json.to_string().as_bytes())
}

/// The recorded reference digests, keyed by `<workload>.canary`.
pub fn recorded(key: &str) -> Option<u64> {
    let json = Json::parse(include_str!("../reference.json")).ok()?;
    u64::from_str_radix(json.get(key)?.as_str()?, 16).ok()
}

/// A fixed 640×480 scene, the same for every seed: the canary whose
/// stateless detections must match the recorded digest.
pub fn canary_frame() -> GrayImage {
    rtped_dataset::scene::SceneBuilder::new(640, 480)
        .seed(2017)
        .pedestrian_window(64, 128, 1.0)
        .pedestrian_window(64, 128, 1.3)
        .pedestrian_window(64, 128, 1.6)
        .build()
        .frame
}

/// Digest of the canary's stateless detections on `datapath`.
pub fn canary_digest(model: &LinearSvm, datapath: Datapath) -> Result<u64, Error> {
    let det = detector(model.clone(), datapath, false)?;
    Ok(digest(&det.detect(&canary_frame())))
}

/// One stateless detection replayed stage by stage through the public
/// HOG and detect functions. `on_features` is the detector's own
/// `detect_on_features` with NMS off, which builds the pyramid and the
/// scoring planes itself; the pyramid and plane conversion are timed
/// again on their own so the scan can be separated out.
pub struct Stages {
    pub detections: Vec<Detection>,
    pub cells_ms: f64,
    pub normalize_ms: f64,
    pub on_features_ms: f64,
    pub pyramid_ms: f64,
    pub quantize_ms: f64,
    pub nms_ms: f64,
    pub nms_in: usize,
    pub windows: usize,
}

impl Stages {
    /// The scan alone: `detect_on_features` minus its pyramid and planes.
    pub fn scan_ms(&self) -> f64 {
        self.on_features_ms - self.pyramid_ms - self.quantize_ms
    }

    /// The stateless detection these stages add up to.
    pub fn total_ms(&self) -> f64 {
        self.cells_ms + self.normalize_ms + self.on_features_ms + self.nms_ms
    }

    /// Adds this frame's stage times and counts to the per-layer samples.
    pub fn add_to(&self, layers: &mut Layers) {
        layers.push("hog.cells_ms", self.cells_ms);
        layers.push("hog.normalize_ms", self.normalize_ms);
        layers.push("hog.pyramid_ms", self.pyramid_ms);
        layers.push("hog.quantize_ms", self.quantize_ms);
        layers.push("detect.scan_ms", self.scan_ms());
        layers.push("detect.windows_scored", self.windows as f64);
        layers.push("detect.nms_ms", self.nms_ms);
        layers.push("detect.nms_in", self.nms_in as f64);
        layers.add("nms.in_total", self.nms_in as f64);
        layers.add("nms.kept_total", self.detections.len() as f64);
        let kept = layers.get("nms.kept_total");
        let total = layers.get("nms.in_total");
        layers.set(
            "detect.nms_kept_share",
            if total > 0.0 { kept / total } else { 0.0 },
        );
    }
}

/// Runs [`Stages`] for `frame` under `nms_off`, a stateless detector
/// configured like the served one but without NMS.
pub fn stages(
    tracer: &mut Tracer,
    parent: Option<usize>,
    request: u64,
    frame: &GrayImage,
    nms_off: &FeaturePyramidDetector,
    nms_iou: f64,
) -> Stages {
    let config = nms_off.config();
    let params = &config.params;
    let (grid, cells) = tracer.span("hog.cells", parent, request, || {
        CellGrid::compute(frame, params)
    });
    let (base, normalize) = tracer.span("hog.normalize", parent, request, || {
        FeatureMap::from_cell_grid(&grid, params)
    });
    let (hits, on_features) = tracer.span("detect.on_features", parent, request, || {
        nms_off.detect_on_features(&base)
    });
    // The pyramid and planes are parts of `detect_on_features`, timed
    // again after it: as its children, its self time is the scan.
    let (pyramid, pyramid_id) = tracer.span("hog.pyramid", Some(on_features), request, || {
        FeaturePyramid::from_base(&base, &config.scales, params)
    });
    let quantized = config.datapath == Datapath::I16;
    let (_, quantize) = tracer.span("hog.quantize", Some(on_features), request, || {
        for level in pyramid.levels() {
            if quantized {
                std::hint::black_box(level.features.quantized());
            } else {
                std::hint::black_box(rtped_detect::kernel::to_f64(&level.features));
            }
        }
    });
    let (wc, hc) = params.window_cells();
    let stride = config.stride_cells;
    let windows = pyramid
        .levels()
        .iter()
        .map(|level| {
            let (gx, gy) = level.features.cells();
            if gx < wc || gy < hc {
                0
            } else {
                ((gx - wc) / stride + 1) * ((gy - hc) / stride + 1)
            }
        })
        .sum();
    let nms_in = hits.len();
    let (detections, nms) = tracer.span("detect.nms", parent, request, || {
        non_maximum_suppression(hits, nms_iou)
    });
    Stages {
        detections,
        cells_ms: tracer.get(cells).ms(),
        normalize_ms: tracer.get(normalize).ms(),
        on_features_ms: tracer.get(on_features).ms(),
        pyramid_ms: tracer.get(pyramid_id).ms(),
        quantize_ms: tracer.get(quantize).ms(),
        nms_ms: tracer.get(nms).ms(),
        nms_in,
        windows,
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, Error> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| Error::format("no VmHWM line in /proc/self/status"))
}
