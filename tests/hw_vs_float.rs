//! Integration: the cycle-accurate fixed-point accelerator model against
//! the float reference pipeline — feature agreement, score agreement,
//! detection agreement, and the paper's cycle arithmetic.

use rtped::dataset::scene::SceneBuilder;
use rtped::detect::detector::{Detect, DetectorConfig, FeaturePyramidDetector};
use rtped::hog::feature_map::FeatureMap;
use rtped::hog::params::HogParams;
use rtped::hw::{AcceleratorConfig, ClockDomain, HogAccelerator, ShardGeometry};
use rtped::image::GrayImage;
use rtped::svm::LinearSvm;

fn textured(w: usize, h: usize) -> GrayImage {
    GrayImage::from_fn(w, h, |x, y| ((x * 29 + y * 13 + (x * y) % 31) % 256) as u8)
}

fn pseudo_model(bias: f64, amplitude: f64) -> LinearSvm {
    let weights: Vec<f64> = (0..4608)
        .map(|i| (((i * 2654435761usize) % 2001) as f64 / 1000.0 - 1.0) * amplitude)
        .collect();
    LinearSvm::new(weights, bias)
}

#[test]
fn fixed_point_features_track_float_features() {
    let frame = textured(128, 192);
    let model = pseudo_model(0.0, 0.05);
    let acc = HogAccelerator::new(&model, AcceleratorConfig::default());
    let hw = acc.extract_features(&frame).to_float();
    let float = FeatureMap::extract(&frame, &HogParams::pedestrian());
    assert_eq!(hw.cells(), float.cells());
    let mut mae = 0.0f64;
    for (&a, &b) in hw.as_raw().iter().zip(float.as_raw()) {
        mae += f64::from((a - b).abs());
    }
    mae /= hw.as_raw().len() as f64;
    assert!(mae < 0.01, "feature MAE too high: {mae}");
}

#[test]
fn hw_and_float_detectors_agree_on_detections() {
    // Same model, same frame, threshold with margin: the two pipelines
    // must produce overlapping detection sets at the base scale.
    let scene = SceneBuilder::new(320, 256)
        .seed(5)
        .pedestrian_at(64, 128, 1.0, 120, 60)
        .build();
    let model = pseudo_model(0.0, 0.05);

    let hw = HogAccelerator::new(
        &model,
        AcceleratorConfig {
            scales: vec![1.0],
            threshold: 0.0,
            nms_iou: None,
            ..AcceleratorConfig::default()
        },
    );
    let hw_report = hw.process(&scene.frame);

    let mut config = DetectorConfig::with_scales(vec![1.0]);
    config.threshold = 0.0;
    config.nms_iou = None;
    let float_detector = FeaturePyramidDetector::new(model, config);
    let float_dets = float_detector.detect(&scene.frame);

    // Quantization flips only windows whose float score sits within the
    // fixed-point error band (~0.05 for this weight amplitude). Every
    // confidently-positive float window must appear in the hardware set,
    // and per-window scores must agree closely.
    let hw_set: std::collections::BTreeMap<(i64, i64), f64> = hw_report
        .detections
        .iter()
        .map(|d| ((d.bbox.x, d.bbox.y), d.score))
        .collect();
    let mut score_err_sum = 0.0;
    let mut compared = 0usize;
    for f in &float_dets {
        if f.score > 0.1 {
            let hw_score = hw_set
                .get(&(f.bbox.x, f.bbox.y))
                .unwrap_or_else(|| panic!("hw missed confident window at {:?}", f.bbox));
            score_err_sum += (hw_score - f.score).abs();
            compared += 1;
        }
    }
    assert!(compared > 0, "no confident windows to compare");
    let mae = score_err_sum / compared as f64;
    assert!(mae < 0.06, "per-window score MAE too high: {mae}");
}

#[test]
fn paper_hdtv_cycle_claims() {
    let paper = ShardGeometry::paper();
    let clock = ClockDomain::MHZ_125;
    let classifier = paper.frame_cycles(240, 135);
    assert_eq!(classifier, 1_200_420, "the paper's exact cycle count");
    assert!(clock.millis(classifier) < 10.0);
    let stream = rtped::hw::timing::pixel_stream_cycles(1920, 1080);
    assert!(clock.fps(stream) >= 60.0, "HDTV stream must sustain 60 fps");
    // Classification is faster than the stream, so the stream is the
    // bottleneck: the design keeps up with 60 fps at two scales (§5).
    assert!(classifier < stream);
}

#[test]
fn accelerator_finds_planted_pedestrian_with_trained_model() {
    use rtped::dataset::InriaProtocol;
    use rtped::svm::dcd::{train_dcd, DcdParams};
    use rtped::svm::model::Label;

    let params = HogParams::pedestrian();
    let dataset = InriaProtocol::builder()
        .train_positives(80)
        .train_negatives(240)
        .test_positives(1)
        .test_negatives(1)
        .seed(31)
        .build()
        .unwrap();
    let samples: Vec<(Vec<f32>, Label)> = dataset
        .labelled_train()
        .map(|(img, positive)| {
            let d = FeatureMap::extract(img, &params).window_descriptor(0, 0, &params);
            (
                d,
                if positive {
                    Label::Positive
                } else {
                    Label::Negative
                },
            )
        })
        .collect();
    let model = train_dcd(
        &samples,
        &DcdParams {
            c: 0.01,
            ..DcdParams::default()
        },
    );

    let scene = SceneBuilder::new(320, 256)
        .seed(41)
        .pedestrian_at(64, 128, 1.0, 128, 64)
        .build();
    // Small training sets give small margins; the planted window scores
    // ~0.1, so threshold just above zero.
    let acc = HogAccelerator::new(
        &model,
        AcceleratorConfig {
            threshold: 0.02,
            ..AcceleratorConfig::default()
        },
    );
    let report = acc.process(&scene.frame);
    // At least one detection overlapping the planted pedestrian.
    let gt = rtped::detect::BoundingBox::new(128, 64, 64, 128);
    assert!(
        report.detections.iter().any(|d| d.bbox.iou(&gt) > 0.4),
        "accelerator missed the planted pedestrian ({} detections)",
        report.detections.len()
    );
}

#[test]
fn scale_reports_account_all_configured_scales() {
    let model = pseudo_model(-5.0, 0.01);
    let acc = HogAccelerator::new(
        &model,
        AcceleratorConfig {
            scales: vec![1.0, 1.25, 1.5],
            ..AcceleratorConfig::default()
        },
    );
    let report = acc.process(&textured(256, 384));
    assert_eq!(report.scale_reports.len(), 3);
    // Cycle counts decrease with scale (smaller maps classify faster).
    let cycles: Vec<u64> = report
        .scale_reports
        .iter()
        .map(|r| r.classifier_cycles)
        .collect();
    assert!(cycles[0] > cycles[1] && cycles[1] > cycles[2], "{cycles:?}");
}
