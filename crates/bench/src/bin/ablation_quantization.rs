//! Ablation: fixed-point quantization of the datapath.
//!
//! The paper's accelerator runs the whole feature/classifier datapath in
//! fixed point but reports no accuracy delta versus the float MATLAB
//! model. This harness measures it: the §4 test set is classified with
//!
//! 1. the float reference pipeline,
//! 2. float features × weight vectors quantized to Qx.f for f ∈ {4..12},
//! 3. the full fixed-point hardware pipeline (Q0.15 features via the
//!    integer extractor, i16 Q4.12 weights, a Q4.27 bias and 48-bit
//!    MACBAR accumulation), scored by the accelerator model itself.
//!
//! Run with `RTPED_QUICK=1` for a fast smoke version.

use rtped_bench::{window_features, Experiment, ExperimentConfig};
use rtped_eval::report::{float, Table};
use rtped_eval::RocCurve;
use rtped_hw::svm_engine::QuantizedModel;
use rtped_hw::{AcceleratorConfig, HogAccelerator};
use rtped_svm::LinearSvm;

fn quantize_weights(model: &LinearSvm, frac_bits: u32) -> LinearSvm {
    let scale = f64::from(1u32 << frac_bits);
    let weights = model
        .weights()
        .iter()
        .map(|&w| (w * scale).round() / scale)
        .collect();
    LinearSvm::new(weights, (model.bias() * scale).round() / scale)
}

fn evaluate(scored: &[(f64, bool)]) -> (f64, f64) {
    let cm = Experiment::confusion(scored);
    let roc = RocCurve::from_scores(scored);
    (cm.accuracy(), roc.auc())
}

fn main() {
    let config = ExperimentConfig::from_env();
    eprintln!("preparing experiment (seed {:#x})", config.seed);
    let experiment = Experiment::prepare(&config);
    let params = experiment.params().clone();

    let mut table = Table::new(
        "Quantization ablation: test accuracy / AUC per datapath precision",
        &["Datapath", "Accuracy %", "AUC"],
    );

    // 1. Float reference.
    let float_scores = experiment.score_base();
    let (acc, auc) = evaluate(&float_scores);
    table.row_owned(vec![
        "float features x float weights".into(),
        float(acc * 100.0, 4),
        float(auc, 5),
    ]);

    // 2. Weight-precision sweep (float features).
    let test: Vec<(&rtped_image::GrayImage, bool)> = experiment.dataset().labelled_test().collect();
    for frac_bits in [4u32, 6, 8, 10, 12] {
        let q = quantize_weights(experiment.model(), frac_bits);
        let scored: Vec<(f64, bool)> = rtped_bench::parallel::map(&test, |(img, positive)| {
            let d = window_features(img, &params);
            (q.decision(&d), *positive)
        });
        let (acc, auc) = evaluate(&scored);
        table.row_owned(vec![
            format!("float features x Q.{frac_bits} weights"),
            float(acc * 100.0, 4),
            float(auc, 5),
        ]);
    }

    // 3. Full fixed-point hardware pipeline.
    let accelerator = HogAccelerator::new(experiment.model(), AcceleratorConfig::default());
    let scored: Vec<(f64, bool)> = rtped_bench::parallel::map(&test, |(img, positive)| {
        let scores = accelerator.window_scores(&accelerator.extract_features(img));
        let window = scores
            .iter()
            .find(|s| (s.cx, s.cy) == (0, 0))
            .expect("test image holds a whole detection window");
        (QuantizedModel::score_to_f64(window.raw), *positive)
    });
    let (acc, auc) = evaluate(&scored);
    table.row_owned(vec![
        "hw pipeline (Q0.15 features x Q4.12 weights)".into(),
        float(acc * 100.0, 4),
        float(auc, 5),
    ]);

    println!("{}", table.render());
    println!(
        "Expected: accuracy indistinguishable from float down to ~Q.8 weights, and the\n\
         full fixed-point pipeline within a few tenths of a percent of the reference —\n\
         consistent with the paper reporting no fixed-point accuracy penalty."
    );
}
