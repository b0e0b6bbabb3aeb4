//! Detector-level evaluation: average precision of the two Fig. 3
//! configurations on full street scenes with ground truth.
//!
//! The paper evaluates per-window (Table 1); a system-level release also
//! needs the detector metric — PASCAL-style AP over scenes, where sliding
//! windows, NMS, and multi-scale search all interact. Both detectors use
//! the same model, the same scales, and the same scenes.
//!
//! Run with `RTPED_QUICK=1` for fewer scenes. Stdout carries only the
//! deterministic AP table, so it can be diffed against the committed
//! `results_scene_ap*.txt`; the wall-clock time per frame goes to stderr.

use rtped_bench::{Experiment, ExperimentConfig};
use rtped_dataset::scene::SceneBuilder;
use rtped_detect::bbox::BoundingBox;
use rtped_detect::detector::{
    Detect, DetectorConfig, FeaturePyramidDetector, ImagePyramidDetector,
};
use rtped_detect::evaluate::{average_precision, pr_curve};
use rtped_eval::report::{float, Table};

fn main() {
    let quick = rtped_core::env::raw("RTPED_QUICK").is_some_and(|v| v == "1");
    let mut config = ExperimentConfig::quick();
    if !quick {
        config.train_positives = 800;
        config.train_negatives = 2400;
    }
    eprintln!("training model ...");
    let experiment = Experiment::prepare(&config);

    // A bank of scenes with pedestrians at mixed scales.
    let n_scenes = if quick { 6 } else { 24 };
    eprintln!("rendering {n_scenes} scenes ...");
    let scenes: Vec<_> = (0..n_scenes)
        .map(|k| {
            let mut builder = SceneBuilder::new(640, 400).seed(7000 + k as u64);
            // 1-3 pedestrians per scene at scales within the detector's
            // ladder.
            for p in 0..=(k % 3) {
                let scale = [1.0, 1.3, 1.5][(k + p) % 3];
                builder = builder.pedestrian_window(64, 128, scale);
            }
            builder.build()
        })
        .collect();
    let total_gt: usize = scenes.iter().map(|s| s.ground_truth.len()).sum();
    eprintln!("total ground truth pedestrians: {total_gt}");

    let mut detector_config = DetectorConfig::with_scales(vec![1.0, 1.3, 1.5]);
    detector_config.threshold = -0.5; // keep sub-threshold scores for the PR sweep
    detector_config.nms_iou = Some(0.3);

    let detectors: Vec<Box<dyn Detect>> = vec![
        Box::new(ImagePyramidDetector::new(
            experiment.model().clone(),
            detector_config.clone(),
        )),
        Box::new(FeaturePyramidDetector::new(
            experiment.model().clone(),
            detector_config,
        )),
    ];

    let mut table = Table::new(
        "Scene-level detection: average precision (IoU 0.4)",
        &["Detector", "AP", "Detections"],
    );
    for detector in &detectors {
        let start = std::time::Instant::now();
        let per_scene: Vec<(Vec<_>, Vec<BoundingBox>)> = scenes
            .iter()
            .map(|scene| {
                let dets = detector.detect(&scene.frame);
                let gt = scene
                    .ground_truth
                    .iter()
                    .map(|g| {
                        BoundingBox::new(g.x as i64, g.y as i64, g.width as u64, g.height as u64)
                    })
                    .collect();
                (dets, gt)
            })
            .collect();
        let elapsed = start.elapsed().as_secs_f64() * 1e3 / scenes.len() as f64;
        let n_dets: usize = per_scene.iter().map(|(d, _)| d.len()).sum();
        let curve = pr_curve(&per_scene, 0.4);
        let ap = average_precision(&curve);
        table.row_owned(vec![
            detector.method_name().to_string(),
            float(ap, 4),
            n_dets.to_string(),
        ]);
        eprintln!("{}: {elapsed:.1} ms/frame", detector.method_name());
    }
    println!("{}", table.render());
    println!("Expectation: near-equal AP between the two configurations (the paper's point).");
}
