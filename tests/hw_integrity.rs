//! Acceptance sweep for the hardware-integrity layer: SECDED correction
//! is exact, double flips never escape, the lockstep channel catches
//! unprotected corruption, and the integrity runtime's report is
//! byte-stable and escalates through the `integrity_fault` cause.

use rtped::core::{check, check_assert, check_assert_eq, ToJson};
use rtped::hw::integrity::SoftErrorDose;
use rtped::hw::{
    AcceleratorConfig, EccMode, HogAccelerator, ShardConfig, ShardFleet, ShardGeometry,
};
use rtped::image::GrayImage;
use rtped::runtime::{
    Engine, FaultPlan, IntegrityRuntime, RunReport, RuntimeConfig, TransitionCause,
};
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

#[test]
fn every_seeded_single_bit_campaign_is_corrected_bit_identically() {
    let frame = textured(96, 160, 0);
    let model = pseudo_model(0.1);
    let acc = accelerator(&model);
    let clean = acc.process(&frame);
    for seed in 0..32 {
        let dose = SoftErrorDose {
            seed,
            mem_flips: 3,
            ..SoftErrorDose::none()
        };
        let (report, fi) = acc.process_with_integrity(&frame, &model, EccMode::Secded, &dose, None);
        assert!(
            fi.ecc.corrected_total() >= 3,
            "seed {seed}: only {} corrected",
            fi.ecc.corrected_total()
        );
        assert_eq!(fi.ecc.uncorrectable_total(), 0, "seed {seed}");
        assert_eq!(report, clean, "seed {seed}: output diverged from clean");
        assert!(fi.faults().is_empty(), "seed {seed}: {:?}", fi.faults());
    }
}

#[test]
fn every_seeded_double_bit_campaign_is_detected_and_flagged() {
    let frame = textured(96, 160, 1);
    let model = pseudo_model(0.1);
    let acc = accelerator(&model);
    for seed in 0..32 {
        let dose = SoftErrorDose {
            seed,
            mem_double_flips: 1,
            ..SoftErrorDose::none()
        };
        let (_, fi) = acc.process_with_integrity(&frame, &model, EccMode::Secded, &dose, None);
        assert!(
            fi.ecc.uncorrectable_total() >= 1,
            "seed {seed}: double flip escaped detection"
        );
        assert!(
            fi.faults()
                .iter()
                .any(|f| f.label() == "uncorrectable_memory"),
            "seed {seed}: no uncorrectable_memory fault raised"
        );
    }
}

#[test]
fn lockstep_catches_what_disabled_ecc_lets_through() {
    let frame = textured(96, 160, 2);
    let model = pseudo_model(0.1);
    let acc = accelerator(&model);
    let dose = SoftErrorDose {
        seed: 13,
        mem_flips: 300,
        ..SoftErrorDose::none()
    };
    let (_, fi) = acc.process_with_integrity(&frame, &model, EccMode::Off, &dose, None);
    assert_eq!(fi.ecc.detected_total(), 0);
    assert!(
        fi.faults()
            .iter()
            .any(|f| f.label() == "lockstep_divergence"),
        "unprotected corruption escaped the golden channel: {:?}",
        fi.faults()
    );
}

#[test]
fn watchdog_reports_schedule_overruns() {
    let frame = textured(96, 160, 3);
    let model = pseudo_model(0.1);
    let acc = accelerator(&model);
    let dose = SoftErrorDose {
        seed: 7,
        stall_cycles: 1000,
        ..SoftErrorDose::none()
    };
    let (_, fi) = acc.process_with_integrity(&frame, &model, EccMode::Secded, &dose, None);
    assert!(
        fi.faults().iter().any(|f| f.label() == "watchdog_overrun"),
        "{:?}",
        fi.faults()
    );
}

#[test]
fn integrity_runtime_escalates_and_never_lets_errors_escape_silently() {
    let model = pseudo_model(0.1);
    let config = AcceleratorConfig {
        scales: vec![1.0],
        ..AcceleratorConfig::default()
    };
    let mut runtime = IntegrityRuntime::new(model, config, &RuntimeConfig::default());
    let frames: Vec<GrayImage> = (0..12).map(|k| textured(96, 160, k)).collect();
    let report = runtime.run(&frames, &FaultPlan::soft_errors(2017, 1.0));

    let integrity = report.integrity.as_ref().expect("integrity block");
    assert_eq!(integrity.frames_checked, 12);
    assert!(integrity.corrected_total() > 0, "no corrections observed");
    assert!(
        integrity.uncorrectable_total() > 0,
        "the campaign should include double flips"
    );
    assert_eq!(integrity.silent_escapes(), 0, "uncorrectable error escaped");
    assert!(integrity.frames_flagged > 0);
    assert!(
        report
            .transitions
            .iter()
            .any(|t| t.transition.cause == TransitionCause::IntegrityFault),
        "no integrity_fault transition: {:?}",
        report.transitions
    );
    assert!(integrity.escalations > 0);
    // Flagged frames carry the integrity fault labels in the frame log.
    assert!(report
        .frames
        .iter()
        .any(|f| f.faults.iter().any(|l| l.starts_with("integrity:"))));
}

#[test]
fn integrity_report_json_is_byte_identical_across_runs_and_thread_counts() {
    let model = pseudo_model(0.1);
    let config = AcceleratorConfig {
        scales: vec![1.0],
        ..AcceleratorConfig::default()
    };
    let mut runtime = IntegrityRuntime::new(model, config, &RuntimeConfig::default());
    let frames: Vec<GrayImage> = (0..6).map(|k| textured(96, 160, k)).collect();
    let plan = FaultPlan::soft_errors(99, 0.8);

    std::env::set_var("RTPED_THREADS", "1");
    let first = runtime.run(&frames, &plan).to_json().to_string();
    let second = runtime.run(&frames, &plan).to_json().to_string();
    std::env::set_var("RTPED_THREADS", "3");
    let third = runtime.run(&frames, &plan).to_json().to_string();
    std::env::remove_var("RTPED_THREADS");

    assert_eq!(first, second, "same-thread reruns diverged");
    assert_eq!(first, third, "thread count leaked into the report");
    assert!(first.contains("\"integrity\":{"), "integrity block missing");
    assert!(first.contains("\"ecc\":\"secded\""));
}

#[test]
fn sharded_single_bit_storms_are_corrected_per_shard_with_zero_escapes() {
    let frame = textured(96, 192, 5);
    let model = pseudo_model(0.1);
    let acc = accelerator(&model);
    let clean = acc.process(&frame);
    for shards in [2usize, 4, 8] {
        let mut fleet = ShardFleet::new(&ShardConfig::new(shards, ShardGeometry::paper()).unwrap());
        for seed in 0..16 {
            let dose = SoftErrorDose {
                seed,
                mem_flips: 6,
                ..SoftErrorDose::none()
            };
            let (report, fi) = acc.process_with_integrity(
                &frame,
                &model,
                EccMode::Secded,
                &dose,
                Some(&mut fleet),
            );
            assert!(
                fi.ecc.corrected_total() >= 6,
                "{shards} shards, seed {seed}: only {} corrected",
                fi.ecc.corrected_total()
            );
            assert_eq!(
                fi.ecc.uncorrectable_total(),
                0,
                "{shards} shards, seed {seed}"
            );
            assert!(
                fi.shard_quarantines.is_empty(),
                "{shards} shards, seed {seed}"
            );
            assert_eq!(
                report.detections, clean.detections,
                "{shards} shards, seed {seed}: corrected storm changed the output"
            );
            assert!(
                fi.faults().is_empty(),
                "{shards} shards, seed {seed}: {:?}",
                fi.faults()
            );
        }
    }
}

#[test]
fn sharded_double_bit_faults_quarantine_exactly_one_shard() {
    let frame = textured(96, 192, 6);
    let model = pseudo_model(0.1);
    let acc = accelerator(&model);
    let clean = acc.process(&frame);
    for seed in 0..16 {
        let mut fleet = ShardFleet::new(&ShardConfig::new(4, ShardGeometry::paper()).unwrap());
        let dose = SoftErrorDose {
            seed,
            mem_double_flips: 1,
            ..SoftErrorDose::none()
        };
        let (report, fi) =
            acc.process_with_integrity(&frame, &model, EccMode::Secded, &dose, Some(&mut fleet));
        assert_eq!(
            fi.shard_quarantines.len(),
            1,
            "seed {seed}: {:?}",
            fi.shard_quarantines
        );
        assert_eq!(fi.shard_failovers, 1, "seed {seed}");
        assert_eq!(fleet.healthy().len(), 3, "seed {seed}");
        // The failed-over band was re-executed clean: output identical to
        // the no-fault run.
        assert_eq!(report.detections, clean.detections, "seed {seed}");
    }
}

#[test]
fn ecc_off_empty_dose_matches_the_unprotected_pipeline_exactly() {
    let frame = textured(192, 256, 4);
    let model = pseudo_model(0.1);
    let acc = HogAccelerator::new(&model, AcceleratorConfig::default());
    let plain = acc.process(&frame);
    let (report, fi) =
        acc.process_with_integrity(&frame, &model, EccMode::Off, &SoftErrorDose::none(), None);
    assert_eq!(report, plain);
    assert_eq!(fi.ecc.detected_total(), 0);
    assert!(fi.lockstep.as_ref().is_some_and(|l| l.is_clean()));
    assert!(fi.watchdog_events.is_empty());
}

/// The `integrity_fault` transitions of a report, checked against its
/// frame log: each lands on a frame that carries integrity fault labels.
fn integrity_transitions(report: &RunReport) -> u64 {
    let mut count = 0;
    for t in &report.transitions {
        if t.transition.cause == TransitionCause::IntegrityFault {
            let frame = report.frames.iter().find(|f| f.index == t.frame).unwrap();
            assert!(
                frame.faults.iter().any(|l| l.starts_with("integrity:")),
                "integrity_fault transition on frame {} without an integrity label",
                t.frame
            );
            count += 1;
        }
    }
    count
}

check! {
    #![cases = 12]

    /// Under seeded soft-error plans, on a single accelerator and on a
    /// 4-shard fleet, the integrity block's escalation count equals the
    /// number of `integrity_fault` transitions in the same report — for
    /// a whole run and for each half of a run drained in two reports.
    fn escalations_count_the_integrity_fault_transitions(
        seed in 0u64..1_000,
        sharded in 0usize..2,
        rate_pick in 0usize..3,
        split in 0usize..9,
    ) {
        let config = AcceleratorConfig {
            scales: vec![1.0],
            ..AcceleratorConfig::default()
        };
        let mut runtime =
            IntegrityRuntime::new(pseudo_model(0.1), config, &RuntimeConfig::default());
        if sharded == 1 {
            let fleet = ShardConfig::new(4, ShardGeometry::paper()).unwrap();
            runtime = runtime.with_sharding(fleet);
        }
        let frames: Vec<GrayImage> = (0..8).map(|k| textured(96, 192, k)).collect();
        let plan = FaultPlan::soft_errors(seed, [0.3, 0.7, 1.0][rate_pick]);

        let whole = runtime.run(&frames, &plan);
        let escalations = whole.integrity.as_ref().unwrap().escalations;
        check_assert_eq!(escalations, integrity_transitions(&whole));

        runtime.reset();
        let mut halves = 0;
        for part in [&frames[..split], &frames[split..]] {
            for frame in part {
                let _ = runtime.serve_frame(frame, &plan);
            }
            let report = runtime.take_report(seed);
            let counted = report.integrity.as_ref().unwrap().escalations;
            check_assert_eq!(counted, integrity_transitions(&report));
            halves += counted;
        }
        check_assert_eq!(halves, escalations);
        check_assert!(whole.integrity.as_ref().unwrap().silent_escapes() == 0);
    }
}
