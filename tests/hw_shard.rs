//! Acceptance properties for the sharded hardware model: banding a frame
//! across N shard instances is bit-identical to the single-instance
//! pipeline for N ∈ {1, 2, 4, 8} — including under soft-error doses that
//! quarantine shards mid-frame and fail their bands over — and a fully
//! quarantined fleet escalates loudly instead of serving silence.

use rtped::core::{check, check_assert, check_assert_eq, ToJson};
use rtped::hw::integrity::SoftErrorDose;
use rtped::hw::shard::COOLDOWN_FRAMES;
use rtped::hw::{
    AcceleratorConfig, EccMode, HogAccelerator, ShardConfig, ShardFleet, ShardGeometry,
};
use rtped::image::GrayImage;
use rtped::runtime::{Engine, FaultPlan, IntegrityRuntime, RuntimeConfig};
use rtped::svm::LinearSvm;

fn textured(w: usize, h: usize, phase: usize) -> GrayImage {
    GrayImage::from_fn(w, h, move |x, y| {
        ((x * 29 + y * 13 + (x * y + phase * 17) % 31) % 256) as u8
    })
}

fn pseudo_model(bias: f64) -> LinearSvm {
    let weights: Vec<f64> = (0..4608)
        .map(|i| (((i * 2654435761usize) % 2001) as f64 / 1000.0 - 1.0) * 0.02)
        .collect();
    LinearSvm::new(weights, bias)
}

fn accelerator(model: &LinearSvm) -> HogAccelerator {
    let config = AcceleratorConfig {
        scales: vec![1.0],
        ..AcceleratorConfig::default()
    };
    HogAccelerator::new(model, config)
}

fn fleet(shards: usize) -> ShardFleet {
    ShardFleet::new(&ShardConfig::new(shards, ShardGeometry::paper()).unwrap())
}

check! {
    #![cases = 24]

    /// Clean frames banded over any fleet width match the single-instance
    /// pipeline byte for byte, whatever the frame geometry.
    fn sharded_clean_output_is_bit_identical(
        shards_pick in 0usize..4,
        w in 72usize..140,
        h in 140usize..200,
        phase in 0usize..64,
    ) {
        let shards = [1usize, 2, 4, 8][shards_pick];
        let frame = textured(w, h, phase);
        let model = pseudo_model(0.1);
        let acc = accelerator(&model);
        let single = acc.process(&frame);
        let mut f = fleet(shards);
        let (banded, fi) = acc.process_with_integrity(
            &frame,
            &model,
            EccMode::Secded,
            &SoftErrorDose::none(),
            Some(&mut f),
        );
        check_assert_eq!(banded.detections, single.detections);
        check_assert!(fi.faults().is_empty(), "clean frame faulted: {:?}", fi.faults());
        check_assert_eq!(fi.shard_failovers, 0);
    }

    /// A double-bit dose quarantines a shard mid-frame, the band fails
    /// over, and the served output still matches the clean no-fault run
    /// bit for bit.
    fn failover_output_matches_the_clean_run(
        shards_pick in 0usize..3,
        seed in 0u64..64,
        phase in 0usize..16,
    ) {
        let shards = [2usize, 4, 8][shards_pick];
        // 192 px tall → 9 row strips, so every shard in an 8-wide fleet
        // owns a non-empty band and the dose cannot land on an empty one.
        let frame = textured(96, 192, phase);
        let model = pseudo_model(0.1);
        let acc = accelerator(&model);
        let clean = acc.process(&frame);
        let mut f = fleet(shards);
        let dose = SoftErrorDose { seed, mem_double_flips: 1, ..SoftErrorDose::none() };
        let (banded, fi) = acc.process_with_integrity(
            &frame,
            &model,
            EccMode::Secded,
            &dose,
            Some(&mut f),
        );
        check_assert_eq!(banded.detections, clean.detections);
        // The strike lands in exactly one band: one shard quarantined,
        // its band failed over, nothing silent.
        check_assert_eq!(fi.shard_quarantines.len(), 1);
        check_assert_eq!(fi.shard_failovers, 1);
        check_assert!(fi.ecc.uncorrectable_total() >= 1);
        check_assert!(
            fi.faults().iter().any(|f| f.label() == "shard_quarantine"),
            "no shard_quarantine fault: {:?}",
            fi.faults()
        );
    }

    /// Quarantine is hysteretic: after a faulted frame, the struck shard
    /// sits out the following frame (clean bands fail over off it), and
    /// the fleet heals back to full strength once the cooldown elapses.
    fn quarantine_cooldown_reassigns_then_heals(seed in 0u64..32, shards_pick in 0usize..2) {
        let shards = [4usize, 8][shards_pick];
        let frame = textured(96, 192, 5);
        let model = pseudo_model(0.1);
        let acc = accelerator(&model);
        let mut f = fleet(shards);
        let dose = SoftErrorDose { seed, mem_double_flips: 1, ..SoftErrorDose::none() };
        let (_, fi) = acc.process_with_integrity(
            &frame, &model, EccMode::Secded, &dose, Some(&mut f),
        );
        check_assert_eq!(fi.shards_active, (shards - 1) as u64);
        // Clean frames during the cooldown: the quarantined shard's band
        // is reassigned (failover) without any new quarantine.
        let (_, fi2) = acc.process_with_integrity(
            &frame, &model, EccMode::Secded, &SoftErrorDose::none(), Some(&mut f),
        );
        check_assert!(fi2.shard_quarantines.is_empty());
        check_assert!(fi2.shard_failovers >= 1);
        for _ in 0..COOLDOWN_FRAMES {
            let (_, _) = acc.process_with_integrity(
                &frame, &model, EccMode::Secded, &SoftErrorDose::none(), Some(&mut f),
            );
        }
        check_assert_eq!(f.healthy().len(), shards);
    }
}

#[test]
fn exhausted_fleet_escalates_instead_of_serving_silence() {
    let frame = textured(96, 160, 7);
    let model = pseudo_model(0.1);
    let acc = accelerator(&model);
    let mut f = fleet(1);
    let dose = SoftErrorDose {
        seed: 3,
        mem_double_flips: 1,
        ..SoftErrorDose::none()
    };
    // The only shard faults and quarantines; no healthy shard remains to
    // take the band, so the frame is refused loudly.
    let (report, fi) =
        acc.process_with_integrity(&frame, &model, EccMode::Secded, &dose, Some(&mut f));
    assert_eq!(fi.fleet_exhausted, Some(1));
    assert!(
        fi.faults().iter().any(|f| f.label() == "fleet_exhausted"),
        "{:?}",
        fi.faults()
    );
    assert!(report.detections.is_empty());
    assert_eq!(f.healthy().len(), 0);
}

#[test]
fn sharded_runtime_report_is_byte_identical_across_thread_counts() {
    let build = || {
        let model = pseudo_model(0.1);
        let config = AcceleratorConfig {
            scales: vec![1.0],
            ..AcceleratorConfig::default()
        };
        IntegrityRuntime::new(model, config, &RuntimeConfig::default())
            .with_sharding(ShardConfig::new(4, ShardGeometry::paper()).unwrap())
    };
    let frames: Vec<GrayImage> = (0..8).map(|k| textured(96, 160, k)).collect();
    let plan = FaultPlan::soft_errors(2024, 0.8);

    std::env::set_var("RTPED_THREADS", "1");
    let first = build().run(&frames, &plan).to_json().to_string();
    std::env::set_var("RTPED_THREADS", "3");
    let second = build().run(&frames, &plan).to_json().to_string();
    std::env::remove_var("RTPED_THREADS");
    let third = build().run(&frames, &plan).to_json().to_string();

    assert_eq!(first, second, "thread count leaked into the report");
    assert_eq!(first, third, "env removal changed the report");
    assert!(first.contains("\"shards\":{"), "shard block missing");
}

#[test]
fn geometry_variants_change_cycles_but_never_scores() {
    let frame = textured(96, 160, 9);
    let model = pseudo_model(0.1);
    let paper = accelerator(&model);
    let reference = paper.process(&frame);
    for (banks, macbars, rows) in [(32, 16, 18), (16, 2, 36), (64, 32, 135)] {
        let geometry = ShardGeometry::new(banks, macbars, rows).unwrap();
        let config = AcceleratorConfig {
            scales: vec![1.0],
            geometry,
            ..AcceleratorConfig::default()
        };
        let acc = HogAccelerator::new(&model, config);
        let report = acc.process(&frame);
        assert_eq!(
            report.detections, reference.detections,
            "{banks}b/{macbars}m/{rows}r changed arithmetic"
        );
        assert_ne!(
            geometry.frame_cycles(12, 20),
            0,
            "degenerate cycle model for {banks}b/{macbars}m"
        );
    }
}
