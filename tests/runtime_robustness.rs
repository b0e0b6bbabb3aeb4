//! Acceptance tests for the fault-injected, deadline-aware runtime.
//!
//! The ISSUE 3 criteria, verbatim: under a seeded `FaultPlan` injecting
//! ≥ 10% corrupted/late frames into a 100-frame synthetic sequence, the
//! runtime completes with zero panics, every frame yields either
//! detections or a typed `FrameError`, the controller demonstrably
//! enters and recovers from `Degraded`, and with an empty `FaultPlan`
//! the runtime's detections are bit-identical to plain `Detect::detect`.

use rtped::core::ToJson;
use rtped::detect::detector::{Detect, DetectorConfig, FeaturePyramidDetector};
use rtped::image::GrayImage;
use rtped::runtime::{
    DeadlineBudget, Engine, FaultPlan, FrameOutcome, HealthState, Runtime, RuntimeConfig,
};
use rtped::svm::LinearSvm;

/// The acceptance scenario's seed: chosen once, then pinned — the whole
/// point of a seeded plan is that this exact schedule replays forever.
const SEED: u64 = 2017;

/// 100 deterministic 480x360 frames. At that size the default cost model
/// charges ~6.4 ms per full two-scale scan, so a clean frame fits the
/// 15 ms budget and a 12 ms injected delay blows it — the geometry the
/// degradation ladder is exercised against.
fn synthetic_sequence() -> Vec<GrayImage> {
    (0..100)
        .map(|k| {
            GrayImage::from_fn(480, 360, move |x, y| {
                ((x * 13 + y * 7 + k * 31 + (x * y) % 17) % 256) as u8
            })
        })
        .collect()
}

/// A zero-weight, positive-bias model: every window scores 1.0, NMS
/// collapses them deterministically, and the same boxes recur every
/// frame — so the tracker confirms tracks and `SafeFallback` has
/// something to coast on.
fn runtime() -> Runtime<FeaturePyramidDetector> {
    let config = DetectorConfig::two_scale();
    let model = LinearSvm::new(vec![0.0; config.params.cell_descriptor_len()], 1.0);
    let detector = FeaturePyramidDetector::new(model, config);
    // Explicit budget (not from_env_or_das): tests must not race on the
    // RTPED_DEADLINE_MS environment variable.
    Runtime::with_config(
        detector,
        RuntimeConfig {
            budget: DeadlineBudget::from_ms(15.0),
            ..RuntimeConfig::default()
        },
    )
}

#[test]
fn seeded_stress_run_satisfies_the_acceptance_criteria() {
    let frames = synthetic_sequence();
    let plan = FaultPlan::stress(SEED);
    let mut runtime = runtime();

    // Completing at all is the zero-panics criterion: injected worker
    // panics, dropouts, truncations, and corrupted rasters all flow
    // through typed paths.
    let report = runtime.run(&frames, &plan);

    // Every frame is accounted for, each with detections, coasted
    // tracks, or a typed error.
    assert_eq!(report.frames.len(), 100);
    for record in &report.frames {
        match &record.outcome {
            FrameOutcome::Detections(d) | FrameOutcome::Coasted(d) => {
                assert!(
                    !d.is_empty(),
                    "frame {}: the all-fire model must yield boxes",
                    record.index
                );
            }
            FrameOutcome::Error(err) => {
                // Typed, printable, and classified.
                assert!(!err.to_string().is_empty());
                assert!(matches!(
                    err.kind(),
                    "sensor_dropout" | "truncated_frame" | "worker_panic"
                ));
            }
        }
    }

    // ≥ 10% of the sequence was actually faulted.
    assert!(
        report.faulted_count() >= 10,
        "only {}/100 frames faulted",
        report.faulted_count()
    );

    // The controller demonstrably entered Degraded and recovered.
    assert!(
        report
            .transitions
            .iter()
            .any(|t| matches!(t.transition.to, HealthState::Degraded(_))),
        "controller never degraded: {:?}",
        report.transitions
    );
    assert!(
        report.degraded_and_recovered(),
        "controller never recovered: {:?}",
        report.transitions
    );

    // The injected worker kills surfaced as typed panics, with the frame
    // index preserved in the message.
    let worker_panics: Vec<_> = report
        .frames
        .iter()
        .filter_map(|r| match &r.outcome {
            FrameOutcome::Error(e) if e.kind() == "worker_panic" => Some(r.index),
            _ => None,
        })
        .collect();
    assert!(!worker_panics.is_empty(), "panic_period(25) never fired");
    for index in &worker_panics {
        assert_eq!((index + 1) % 25, 0, "kill landed off-schedule");
    }
}

#[test]
fn report_is_bit_identical_across_runs_and_thread_counts() {
    let frames = synthetic_sequence();
    let plan = FaultPlan::stress(SEED);
    let mut runtime = runtime();

    let baseline = runtime.run(&frames, &plan).to_json().to_string();
    // Same inputs, fresh run: byte-equal.
    assert_eq!(runtime.run(&frames, &plan).to_json().to_string(), baseline);

    // Across worker-pool sizes: the controller consumes modeled latency,
    // never the wall clock, and detection is bit-identical across
    // threads, so the serialized report cannot move either.
    let threads_env = rtped::core::par::THREADS_ENV;
    let saved = rtped::core::env::raw(threads_env);
    for threads in [1usize, 2, 4] {
        std::env::set_var(threads_env, threads.to_string());
        let report = runtime.run(&frames, &plan).to_json().to_string();
        assert_eq!(report, baseline, "report diverged at {threads} threads");
    }
    match saved {
        Some(v) => std::env::set_var(threads_env, v),
        None => std::env::remove_var(threads_env),
    }
}

#[test]
fn empty_plan_is_bit_identical_to_plain_detect() {
    // A shorter sequence keeps this test fast; identity is per-frame.
    let frames: Vec<GrayImage> = synthetic_sequence().into_iter().take(12).collect();
    let mut runtime = runtime();
    let report = runtime.run(&frames, &FaultPlan::none());

    assert_eq!(report.final_state, HealthState::Healthy);
    assert!(report.transitions.is_empty(), "{:?}", report.transitions);
    for (frame, record) in frames.iter().zip(&report.frames) {
        let plain = runtime.detector().detect(frame);
        match &record.outcome {
            FrameOutcome::Detections(served) => assert_eq!(served, &plain),
            other => panic!("frame {}: unexpected outcome {other:?}", record.index),
        }
    }
}

#[test]
fn error_burst_jumps_to_safe_fallback() {
    let frames = synthetic_sequence();
    let all_dropout = FaultPlan {
        seed: 5,
        dropout_rate: 1.0,
        ..FaultPlan::none()
    };
    let mut runtime = runtime();
    let report = runtime.run(&frames[..8], &all_dropout);
    assert_eq!(report.final_state, HealthState::SafeFallback);
    assert_eq!(report.error_count(), 8, "every dropped frame is an error");
    let burst = report
        .transitions
        .iter()
        .find(|t| t.transition.to == HealthState::SafeFallback)
        .expect("burst must reach SafeFallback");
    assert_eq!(burst.transition.cause.label(), "error_burst");
}

#[test]
fn persistent_deadline_misses_walk_the_ladder_then_coast() {
    let frames = synthetic_sequence();
    // Every frame arrives 12 ms late: 6.4 ms modeled cost + 12 ms blows
    // the 15 ms budget at every rung of the ladder (even the deepest shed
    // profile costs ~4.7 ms), so the state walks Healthy -> Degraded(1)
    // -> Degraded(2) -> Degraded(3) -> SafeFallback and stays there.
    let all_late = FaultPlan {
        seed: 3,
        delay_rate: 1.0,
        delay_ms: 12.0,
        ..FaultPlan::none()
    };
    let mut runtime = runtime();
    let report = runtime.run(&frames[..12], &all_late);
    assert_eq!(report.final_state, HealthState::SafeFallback);
    let visited: Vec<String> = report
        .transitions
        .iter()
        .map(|t| t.transition.to.label())
        .collect();
    assert_eq!(
        visited,
        vec!["degraded_1", "degraded_2", "degraded_3", "safe_fallback"],
        "ladder must be walked one rung at a time"
    );
    // Once coasting, frames are still delivered, so the output is the
    // tracker's confirmed tracks — populated, because the probe scans fed
    // it the same recurring boxes during the descent.
    let coasted: Vec<_> = report
        .frames
        .iter()
        .filter(|r| matches!(r.outcome, FrameOutcome::Coasted(_)))
        .collect();
    assert!(!coasted.is_empty(), "no coasted frames: {report:?}");
    for record in coasted {
        assert_eq!(record.state, HealthState::SafeFallback);
        let boxes = record.outcome.detections().unwrap();
        assert!(
            !boxes.is_empty(),
            "frame {}: coast must publish confirmed tracks",
            record.index
        );
    }
}
