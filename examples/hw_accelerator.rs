//! Drive the cycle-accurate accelerator model: train a model, push a
//! street scene through the fixed-point pipeline, and print the cycle
//! accounting behind the paper's 60 fps HDTV claim.
//!
//! ```text
//! cargo run --release --example hw_accelerator
//! ```

use rtped::dataset::scene::SceneBuilder;
use rtped::dataset::InriaProtocol;
use rtped::hog::feature_map::FeatureMap;
use rtped::hog::params::HogParams;
use rtped::hw::{AcceleratorConfig, ClockDomain, HogAccelerator};
use rtped::svm::dcd::{train_dcd, DcdParams};
use rtped::svm::model::Label;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = HogParams::pedestrian();
    let dataset = InriaProtocol::builder()
        .train_positives(150)
        .train_negatives(450)
        .test_positives(5)
        .test_negatives(5)
        .seed(3)
        .build()?;
    println!("training model ...");
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

    // The paper's implemented configuration: 125 MHz, two scales.
    let accelerator = HogAccelerator::new(
        &model,
        AcceleratorConfig {
            threshold: 0.5,
            ..AcceleratorConfig::default()
        },
    );
    println!("architecture:\n{}\n", accelerator.describe());

    let scene = SceneBuilder::new(640, 480)
        .seed(77)
        .pedestrian_at(64, 128, 1.0, 100, 300)
        .pedestrian_at(64, 128, 1.5, 400, 200)
        .build();

    println!("running the fixed-point pipeline on a 640x480 scene ...");
    let report = accelerator.process(&scene.frame);
    let clock = ClockDomain::MHZ_125;
    println!(
        "extractor: {} cycles ({:.3} ms at 125 MHz)",
        report.extractor_cycles,
        clock.millis(report.extractor_cycles)
    );
    for r in &report.scale_reports {
        println!(
            "scale {:.2}: {}x{} cells, {} windows, {} classifier cycles ({:.3} ms), {} scaler cycles",
            r.scale,
            r.cells.0,
            r.cells.1,
            r.windows,
            r.classifier_cycles,
            clock.millis(r.classifier_cycles),
            r.scaler_cycles,
        );
    }
    println!(
        "sustained rate: {:.1} fps;  detections: {}",
        report.fps(clock),
        report.detections.len()
    );
    for d in report.detections.iter().take(5) {
        println!(
            "  pedestrian at ({}, {}) size {}x{} scale {:.2} score {:.3}",
            d.bbox.x, d.bbox.y, d.bbox.width, d.bbox.height, d.scale, d.score
        );
    }

    // The headline claim, independent of content: HDTV classifier cycles.
    let hdtv = rtped::hw::ShardGeometry::paper().frame_cycles(1920 / 8, 1080 / 8);
    println!(
        "\nHDTV (1920x1080) classifier schedule: {} cycles = {:.3} ms < 10 ms; \
         pixel stream 16.59 ms -> 60 fps (paper §5)",
        hdtv,
        clock.millis(hdtv)
    );
    Ok(())
}
