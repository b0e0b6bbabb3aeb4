//! Shard-failover smoke run: drive a short synthetic sequence through a
//! four-shard fleet under a fixed-seed soft-error storm and prove, on a
//! real run, the sharded model's three load-bearing properties — faults
//! quarantine shards, every quarantined band fails over, and the served
//! output is byte-identical to a clean single-instance run of the same
//! frames.
//!
//! ```text
//! cargo run --release --offline --example shard_failover_smoke
//! ```

use rtped::core::ToJson;
use rtped::hw::{AcceleratorConfig, ShardConfig, ShardGeometry};
use rtped::image::GrayImage;
use rtped::runtime::{Engine, FaultPlan, IntegrityRuntime, RuntimeConfig};
use rtped::svm::LinearSvm;

fn main() {
    // The same compact deterministic model the soft-error smoke uses.
    let weights: Vec<f64> = (0..4608)
        .map(|i| (((i * 2654435761usize) % 2001) as f64 / 1000.0 - 1.0) * 0.02)
        .collect();
    let model = LinearSvm::new(weights, 0.1);
    let config = AcceleratorConfig {
        scales: vec![1.0],
        ..AcceleratorConfig::default()
    };

    // 20 frames tall enough (192 px → 9 row strips) that every shard in
    // the fleet owns a non-empty band.
    let frames: Vec<GrayImage> = (0..20)
        .map(|k| {
            GrayImage::from_fn(96, 192, move |x, y| {
                ((x * 29 + y * 13 + (x * y + k * 17) % 31) % 256) as u8
            })
        })
        .collect();
    // Half the frames take a dose: enough to quarantine repeatedly,
    // sparse enough that the fleet heals between strikes and most frames
    // stay comparable against the clean reference.
    let storm = FaultPlan::soft_errors(2017, 0.5);

    // The reference: the same frames through the same fleet, clean.
    let build = |shards| {
        IntegrityRuntime::new(model.clone(), config.clone(), &RuntimeConfig::default())
            .with_sharding(ShardConfig::new(shards, ShardGeometry::paper()).unwrap())
    };
    let clean = build(4).run(&frames, &FaultPlan::none());
    let report = build(4).run(&frames, &storm);

    println!("{}", report.to_json());

    let integrity = report.integrity.as_ref().expect("integrity block");
    assert!(
        integrity.shard_quarantines > 0,
        "the storm never quarantined a shard"
    );
    assert!(
        integrity.shard_failovers >= integrity.shard_quarantines,
        "a quarantined band was not failed over"
    );
    assert_eq!(
        integrity.silent_escapes(),
        0,
        "an uncorrectable error escaped unflagged"
    );
    // Bit-identical failover: every frame the stormy run actually served
    // carries exactly the clean run's detections. Frames the ladder
    // coasted in safe-fallback, and frames refused loudly because the
    // storm quarantined the whole fleet (`integrity:fleet_exhausted`),
    // are not served frames and are skipped.
    let mut compared = 0usize;
    for (stormy, reference) in report.frames.iter().zip(&clean.frames) {
        use rtped::runtime::FrameOutcome;
        if stormy
            .faults
            .iter()
            .any(|label| label == "integrity:fleet_exhausted")
        {
            continue;
        }
        if let (FrameOutcome::Detections(a), FrameOutcome::Detections(b)) =
            (&stormy.outcome, &reference.outcome)
        {
            assert_eq!(a, b, "frame {} diverged from the clean run", stormy.index);
            compared += 1;
        }
    }
    assert!(compared > 0, "no frames were comparable");
    println!(
        "shard_failover_smoke: ok (seed 2017, {} quarantines, {} failovers, \
         {} frames bit-identical to clean, 0 escapes)",
        integrity.shard_quarantines, integrity.shard_failovers, compared
    );
}
