//! Integration: the training-side extensions — Platt calibration and
//! class weighting — on the synthetic dataset.

use rtped::dataset::InriaProtocol;
use rtped::hog::feature_map::FeatureMap;
use rtped::hog::params::HogParams;
use rtped::image::GrayImage;
use rtped::svm::dcd::{train_dcd, DcdParams};
use rtped::svm::model::Label;
use rtped::svm::platt::CalibratedSvm;

fn features(img: &GrayImage, params: &HogParams) -> Vec<f32> {
    FeatureMap::extract(img, params).window_descriptor(0, 0, params)
}

fn labelled_samples(dataset: &InriaProtocol, params: &HogParams) -> Vec<(Vec<f32>, Label)> {
    dataset
        .labelled_train()
        .map(|(img, positive)| {
            (
                features(img, params),
                if positive {
                    Label::Positive
                } else {
                    Label::Negative
                },
            )
        })
        .collect()
}

#[test]
fn platt_calibration_orders_test_windows_by_confidence() {
    let params = HogParams::pedestrian();
    let dataset = InriaProtocol::builder()
        .train_positives(80)
        .train_negatives(240)
        .test_positives(30)
        .test_negatives(120)
        .seed(51)
        .build()
        .unwrap();
    let samples = labelled_samples(&dataset, &params);
    let model = train_dcd(
        &samples,
        &DcdParams {
            c: 0.01,
            ..DcdParams::default()
        },
    );
    // Calibrate on the training set (a held-out set would be better
    // practice; here we verify mechanics, not generalization).
    let calibrated = CalibratedSvm::fit(model, &samples);

    let mut pos_probs = Vec::new();
    let mut neg_probs = Vec::new();
    for (img, positive) in dataset.labelled_test() {
        let p = calibrated.probability(&features(img, &params));
        assert!((0.0..=1.0).contains(&p));
        if positive {
            pos_probs.push(p);
        } else {
            neg_probs.push(p);
        }
    }
    let mean_pos: f64 = pos_probs.iter().sum::<f64>() / pos_probs.len() as f64;
    let mean_neg: f64 = neg_probs.iter().sum::<f64>() / neg_probs.len() as f64;
    assert!(
        mean_pos > 0.7 && mean_neg < 0.3,
        "calibration failed to separate: pos {mean_pos:.3}, neg {mean_neg:.3}"
    );

    // The §4 threshold trade-off as a probability: a 90% threshold fires
    // on fewer windows than a 50% threshold.
    let t90 = calibrated.calibration().threshold_for_probability(0.9);
    let t50 = calibrated.calibration().threshold_for_probability(0.5);
    assert!(t90 > t50);
}

#[test]
fn class_weighting_trades_misses_for_false_alarms() {
    let params = HogParams::pedestrian();
    let dataset = InriaProtocol::builder()
        .train_positives(60)
        .train_negatives(300)
        .test_positives(40)
        .test_negatives(160)
        .noise(25)
        .seed(57)
        .build()
        .unwrap();
    let samples = labelled_samples(&dataset, &params);
    let symmetric = train_dcd(
        &samples,
        &DcdParams {
            c: 0.005,
            ..DcdParams::default()
        },
    );
    let recall_biased = train_dcd(
        &samples,
        &DcdParams {
            c: 0.005,
            positive_weight: 8.0,
            ..DcdParams::default()
        },
    );
    let misses = |m: &rtped::svm::LinearSvm| {
        dataset
            .test_positives()
            .iter()
            .filter(|img| m.decision(&features(img, &params)) <= 0.0)
            .count()
    };
    assert!(
        misses(&recall_biased) <= misses(&symmetric),
        "class weighting failed to improve recall: {} vs {}",
        misses(&recall_biased),
        misses(&symmetric)
    );
}
