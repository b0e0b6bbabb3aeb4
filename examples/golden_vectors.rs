//! Generate RTL verification vectors: run a frame through the golden
//! model and write the feature stream + expected window scores in the
//! hex format a hardware testbench ingests, plus the sign-off report
//! comparing fixed-point and float pipelines.
//!
//! ```text
//! cargo run --release --example golden_vectors [output_dir]
//! ```

use rtped::dataset::scene::SceneBuilder;
use rtped::hw::vectors::TestVectors;
use rtped::hw::verify::compare_pipelines;
use rtped::hw::{AcceleratorConfig, HogAccelerator};
use rtped::svm::io::load_model;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| {
        std::env::temp_dir()
            .join("rtped_vectors")
            .display()
            .to_string()
    });
    std::fs::create_dir_all(&out_dir)?;

    // The shipped pretrained model is the DUT's model memory contents.
    let model = load_model("models/pedestrian_synthetic.json")?;
    let accelerator = HogAccelerator::new(&model, AcceleratorConfig::default());

    let scene = SceneBuilder::new(320, 256)
        .seed(31_337)
        .pedestrian_at(64, 128, 1.0, 128, 64)
        .build();

    println!("generating vectors for a 320x256 frame ...");
    let vectors = TestVectors::generate(&accelerator, &scene.frame);
    let features_path = format!("{out_dir}/frame0_features.hex");
    let scores_path = format!("{out_dir}/frame0_scores.hex");
    std::fs::write(&features_path, vectors.features_hex())?;
    std::fs::write(&scores_path, vectors.scores_hex())?;
    println!(
        "feature stream: {features_path} ({} Q0.15 words, {}x{} cells)",
        vectors.features.len(),
        vectors.cells.0,
        vectors.cells.1
    );
    println!(
        "expected scores: {scores_path} ({} windows, Q4.27)",
        vectors.scores.len()
    );

    // Round-trip sanity: parse what we wrote and re-run the engine.
    let reparsed =
        TestVectors::parse_features(&std::fs::read_to_string(&features_path)?, vectors.cells)
            .map_err(std::io::Error::other)?;
    assert_eq!(reparsed.as_raw(), vectors.features.as_slice());
    println!("hex round-trip verified");

    // The sign-off report an RTL team checks in alongside the vectors.
    let report = compare_pipelines(&accelerator, &scene.frame, &model);
    println!(
        "golden sign-off: feature MAE {:.5} (max {:.5}), score MAE {:.5} (max {:.5}),\n\
         {} decision flips over {} windows (worst flipped margin {:.4}) -> {}",
        report.feature_mae,
        report.feature_max_err,
        report.score_mae,
        report.score_max_err,
        report.decision_flips,
        report.windows,
        report.worst_flip_margin,
        if report.passes(0.01, 0.05, 0.1) {
            "PASS"
        } else {
            "FAIL"
        },
    );
    Ok(())
}
