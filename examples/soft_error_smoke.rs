//! Soft-error smoke run for the hardware-integrity layer: drive a short
//! synthetic sequence through the SECDED/lockstep/watchdog-instrumented
//! accelerator under a fixed-seed soft-error campaign and print the
//! canonical `RunReport` JSON with its integrity block.
//!
//! The CI gate asserts the layer's two load-bearing properties on a real
//! run: correctable upsets are actually corrected (`corrected_total > 0`)
//! and no uncorrectable upset escapes unflagged (`silent_escapes == 0`).
//!
//! ```text
//! cargo run --release --offline --example soft_error_smoke
//! ```

use rtped::core::ToJson;
use rtped::hw::{AcceleratorConfig, EccMode};
use rtped::image::GrayImage;
use rtped::runtime::{Engine, FaultPlan, IntegrityRuntime, RuntimeConfig};
use rtped::svm::LinearSvm;

fn main() {
    // A compact deterministic model: pseudo-random weights, mild bias.
    let weights: Vec<f64> = (0..4608)
        .map(|i| (((i * 2654435761usize) % 2001) as f64 / 1000.0 - 1.0) * 0.02)
        .collect();
    let model = LinearSvm::new(weights, 0.1);

    let config = AcceleratorConfig {
        scales: vec![1.0],
        ..AcceleratorConfig::default()
    };
    // `RTPED_ECC=off` runs the unprotected-memory ablation; everything
    // else (checked MACBAR, lockstep, watchdog) stays armed. The runtime
    // config is the one reader of the environment.
    let runtime_config = RuntimeConfig::from_env();
    let ecc = runtime_config.ecc;
    let mut runtime = IntegrityRuntime::new(model, config, &runtime_config);

    // 20 synthetic frames; every frame takes a soft-error dose.
    let frames: Vec<GrayImage> = (0..20)
        .map(|k| {
            GrayImage::from_fn(96, 160, move |x, y| {
                ((x * 29 + y * 13 + (x * y + k * 17) % 31) % 256) as u8
            })
        })
        .collect();
    let plan = FaultPlan::soft_errors(2017, 1.0);
    let report = runtime.run(&frames, &plan);

    println!("{}", report.to_json());

    let integrity = report.integrity.as_ref().expect("integrity block");
    match ecc {
        EccMode::Secded => {
            assert!(
                integrity.corrected_total() > 0,
                "campaign produced no ECC corrections"
            );
            assert_eq!(
                integrity.silent_escapes(),
                0,
                "an uncorrectable error escaped unflagged"
            );
        }
        EccMode::Off => {
            // Ablation: the memory observes nothing; only the lockstep
            // golden channel can flag the corruption.
            assert_eq!(integrity.corrected_total(), 0);
            assert!(
                integrity.lockstep_divergences > 0,
                "unprotected corruption escaped the golden channel too"
            );
        }
    }
    println!(
        "soft_error_smoke: ok (seed 2017, ecc={}, {} corrected, {} uncorrectable all flagged, {} escalations)",
        ecc.label(),
        integrity.corrected_total(),
        integrity.uncorrectable_total(),
        integrity.escalations
    );
}
