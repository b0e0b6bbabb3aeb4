//! Regenerates the paper's §5 throughput claims: the classifier finishes
//! an HDTV frame in 1,200,420 cycles (< 10 ms at 125 MHz) while the pixel
//! stream itself defines a 16.6 ms frame period ⇒ 60 fps at two scales.
//!
//! Runs the cycle-accurate accelerator model on a synthetic HDTV street
//! scene (set `RTPED_QUICK=1` to use a 640×480 scene instead) and prints
//! cycle counts, latencies, and sustained fps per frame size, alongside
//! the stage graph of the implemented architecture.

use rtped_bench::{Experiment, ExperimentConfig};
use rtped_dataset::scene::SceneBuilder;
use rtped_eval::report::{float, Table};
use rtped_hw::timing::pixel_stream_cycles;
use rtped_hw::{AcceleratorConfig, ClockDomain, HogAccelerator, ShardGeometry};

fn main() {
    let quick = rtped_core::env::raw("RTPED_QUICK").is_some_and(|v| v == "1");
    let clock = ClockDomain::MHZ_125;

    // Schedule-level table: the paper's numbers are pure cycle arithmetic,
    // independent of content.
    let paper = ShardGeometry::paper();
    let mut schedule = Table::new(
        "SVM engine schedule per frame size (288-cycle fill + 36 cycles/column per cell row)",
        &[
            "Frame",
            "Cells",
            "Classifier cycles",
            "ms @125MHz",
            "Stream cycles",
            "fps",
        ],
    );
    for (w, h) in [(640usize, 480usize), (1280, 720), (1920, 1080)] {
        let (cx, cy) = (w / 8, h / 8);
        let cls = paper.frame_cycles(cx, cy);
        let stream = pixel_stream_cycles(w, h);
        schedule.row_owned(vec![
            format!("{w}x{h}"),
            format!("{cx}x{cy}"),
            cls.to_string(),
            float(clock.millis(cls), 3),
            stream.to_string(),
            float(clock.fps(stream.max(cls)), 2),
        ]);
    }
    println!("{}", schedule.render());
    println!(
        "Paper reference: 1,200,420 cycles for HDTV -> {:.2} ms < 10 ms; frame period\n\
         16.59 ms -> 60 fps at two scales (paper §5).\n",
        clock.millis(1_200_420)
    );

    // Content-level run: train a small model, push a street scene through
    // the bit-accurate pipeline.
    let mut config = ExperimentConfig::quick();
    config.train_positives = 200;
    config.train_negatives = 600;
    eprintln!("training model for the content run...");
    let experiment = Experiment::prepare(&config);

    let (w, h) = if quick { (640, 480) } else { (1920, 1080) };
    eprintln!("rendering {w}x{h} street scene...");
    let scene = SceneBuilder::new(w, h)
        .seed(99)
        .pedestrian_window(64, 128, 1.0)
        .pedestrian_window(64, 128, 1.5)
        .pedestrian_window(64, 128, 1.2)
        .build();

    eprintln!("running the cycle-accurate accelerator...");
    let accelerator = HogAccelerator::new(
        experiment.model(),
        AcceleratorConfig {
            threshold: 0.5,
            ..AcceleratorConfig::default()
        },
    );
    let report = accelerator.process(&scene.frame);

    let mut run = Table::new(
        "Cycle-accurate run on the synthetic street scene",
        &[
            "Scale",
            "Cells",
            "Windows",
            "Classifier cycles",
            "Scaler cycles",
        ],
    );
    for r in &report.scale_reports {
        run.row_owned(vec![
            format!("{:.2}", r.scale),
            format!("{}x{}", r.cells.0, r.cells.1),
            r.windows.to_string(),
            r.classifier_cycles.to_string(),
            r.scaler_cycles.to_string(),
        ]);
    }
    println!("{}", run.render());
    println!(
        "extractor: {} cycles ({:.3} ms); classifier (parallel instances): {} cycles\n\
         ({:.3} ms); sustained frame rate: {:.2} fps; ground-truth pedestrians: {};\n\
         detections after NMS: {}",
        report.extractor_cycles,
        clock.millis(report.extractor_cycles),
        report.classifier_cycles(),
        clock.millis(report.classifier_cycles()),
        report.fps(clock),
        scene.ground_truth.len(),
        report.detections.len(),
    );
    println!();
    println!("Implemented architecture:\n{}", accelerator.describe());

    // Verify the model's window scores agree with the software reference
    // on a handful of windows (prints the agreement the paper implies by
    // construction in HDL verification).
    let hw_map = accelerator.extract_features(&scene.frame).to_float();
    let mut max_err = 0.0f64;
    for det in report.detections.iter().take(16) {
        if (det.scale - 1.0).abs() > 1e-9 {
            continue;
        }
        let cx = det.bbox.x as usize / 8;
        let cy = det.bbox.y as usize / 8;
        let d = hw_map.window_descriptor(cx, cy, experiment.params());
        let float_score = experiment.model().decision(&d);
        max_err = max_err.max((det.score - float_score).abs());
    }
    println!("fixed-point vs float score agreement (sampled windows): max |Δ| = {max_err:.4}");
}
