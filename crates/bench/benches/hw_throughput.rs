//! Simulation throughput of the cycle-accurate accelerator model across
//! frame sizes and scale counts — plus the schedule arithmetic itself
//! (which is what the paper's 60 fps claim rests on).

use rtped_core::timer::{black_box, Bench};

use rtped_hw::{AcceleratorConfig, HogAccelerator, ShardGeometry};
use rtped_image::GrayImage;
use rtped_svm::LinearSvm;

fn textured(w: usize, h: usize) -> GrayImage {
    GrayImage::from_fn(w, h, |x, y| ((x * 23 + y * 41 + (x * y) % 19) % 256) as u8)
}

fn pseudo_model() -> LinearSvm {
    let weights: Vec<f64> = (0..4608)
        .map(|i| (((i * 2654435761usize) % 2001) as f64 / 1000.0 - 1.0) * 0.02)
        .collect();
    LinearSvm::new(weights, -0.2)
}

fn bench_schedule_math() {
    let paper = ShardGeometry::paper();
    let mut group = Bench::new("hw_schedule");
    group.run("svm_engine_cycle_formula", || {
        paper.frame_cycles(black_box(240), black_box(135))
    });
}

fn bench_pipeline() {
    let model = pseudo_model();
    let mut group = Bench::new("hw_pipeline").batches(10);
    for (w, h) in [(160usize, 128usize), (320, 240)] {
        let frame = textured(w, h);
        for scales in [1usize, 2] {
            let config = AcceleratorConfig {
                scales: if scales == 1 {
                    vec![1.0]
                } else {
                    vec![1.0, 1.5]
                },
                ..AcceleratorConfig::default()
            };
            let acc = HogAccelerator::new(&model, config);
            group.run(&format!("{w}x{h}/{scales}"), || {
                acc.process(black_box(&frame))
            });
        }
    }
}

fn bench_extraction_only() {
    let model = pseudo_model();
    let acc = HogAccelerator::new(&model, AcceleratorConfig::default());
    let frame = textured(320, 240);
    let mut group = Bench::new("hw_extraction");
    group.run("fixed_point_extraction_320x240", || {
        acc.extract_features(black_box(&frame))
    });
}

fn main() {
    bench_schedule_math();
    bench_pipeline();
    bench_extraction_only();
}
