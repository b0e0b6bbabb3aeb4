//! The camera-clocked stream workloads: `drive_1080p` and `parked_720p`.
//!
//! One camera, one open loop: frame `i` is due at `i / fps` and is served
//! by `Runtime::serve_frame` around a temporal `FeaturePyramidDetector`.

use rtped_core::timer::Stopwatch;
use rtped_core::Error;
use rtped_detect::detector::{Datapath, Detect, FeaturePyramidDetector, ScanProfile};
use rtped_detect::tracker::Tracker;
use rtped_image::GrayImage;
use rtped_runtime::{CostModel, Engine, FaultPlan, HealthState, Runtime, RuntimeConfig};

use crate::common::{self, Stages};
use crate::scenes;
use crate::stats::{self, Clock, Sample, WallClock};
use crate::trace::{self, Layers, Span, Tracer};
use crate::{Outcome, Run, THREADS};

/// Tolerance within which the traced stage spans must add up to the
/// stateless call they decompose, as a share of it.
pub const RECONCILE_TOLERANCE: f64 = 0.15;

pub struct StreamSpec {
    pub width: usize,
    pub height: usize,
    pub fps: f64,
    pub deadline_ms: f64,
    pub datapath: Datapath,
    pub ring_len: usize,
    /// Ring frames checked against the single-thread reference.
    pub reference: &'static [usize],
    /// Frames replayed stage by stage in the traced run.
    pub shadow_frames: usize,
}

pub const DRIVE: StreamSpec = StreamSpec {
    width: 1920,
    height: 1080,
    fps: 4.0,
    deadline_ms: 250.0,
    datapath: Datapath::F32,
    ring_len: 16,
    reference: &[0, 5, 11],
    shadow_frames: 8,
};

/// 15 fps rather than a 30 fps camera: at 30 fps an incremental frame
/// takes half the period and a rebuild more than all of it, so each
/// slow minute of a shared 2-core host turned into a backlog, and the
/// tail measured the host instead of the rebuild.
pub const PARKED: StreamSpec = StreamSpec {
    width: 1280,
    height: 720,
    fps: 15.0,
    deadline_ms: 1000.0 / 15.0,
    datapath: Datapath::I16,
    ring_len: 4 * scenes::EXPOSURE_PERIOD,
    // Three exposure steps (full rebuilds) and three incremental frames.
    reference: &[0, 1, 15, 17, 30, 52],
    shadow_frames: 2 * scenes::EXPOSURE_PERIOD + 2,
};

pub fn ring(workload: &str, seed: u64, spec: &StreamSpec) -> Vec<GrayImage> {
    if workload == "drive_1080p" {
        scenes::drive_ring(seed, spec.ring_len)
    } else {
        scenes::parked_ring(seed, spec.ring_len)
    }
}

/// The runtime budget, set above the cost model's full-profile cost so
/// the controller never sheds a frame the host could serve: with the
/// default 15 ms budget the hand-set model sheds every 1080p frame.
fn budget_ms(spec: &StreamSpec, detector: &FeaturePyramidDetector) -> f64 {
    2.0 * CostModel::default().frame_cost_ms(
        spec.width,
        spec.height,
        detector.config(),
        &ScanProfile::full(),
    )
}

fn build(spec: &StreamSpec) -> Result<Runtime<FeaturePyramidDetector>, Error> {
    let detector = common::detector(common::load_model()?, spec.datapath, true)?;
    let config = RuntimeConfig::builder()
        .threads(THREADS)
        .datapath(spec.datapath)
        .temporal(true)
        .deadline_ms(budget_ms(spec, &detector))
        .build()?;
    Ok(Runtime::with_config(detector, config))
}

/// Stateless single-thread digests of the given ring frames; the parent
/// runs this in a child process pinned to one pool thread.
pub fn reference_digests(
    workload: &str,
    seed: u64,
    spec: &StreamSpec,
    frames: &[usize],
) -> Result<Vec<u64>, Error> {
    let detector = common::detector(common::load_model()?, spec.datapath, false)?;
    let ring = ring(workload, seed, spec);
    Ok(frames
        .iter()
        .map(|&k| common::digest(&detector.detect(&ring[k])))
        .collect())
}

/// What the timed loop kept of each served frame.
struct Served {
    index: usize,
    digest: u64,
    healthy: bool,
    modeled_ms: f64,
}

pub fn run(workload: &str, spec: &StreamSpec, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let ring = ring(workload, seed, spec);
    let dirty: Vec<f64> = (0..ring.len())
        .map(|k| scenes::dirty_row_share(&ring[(k + ring.len() - 1) % ring.len()], &ring[k]))
        .collect();

    let (setup_s, mut runtime) = crate::timed_setup(|_| build(spec))?;
    // Warm-up: one frame, then a fresh session and an empty cache.
    let plan = FaultPlan::none();
    let _ = runtime.serve_frame(&ring[0], &plan);
    runtime.reset();
    runtime.detector().reset_temporal_cache();

    let period_ms = 1e3 / spec.fps;
    let due: Vec<f64> = (0..(seconds * spec.fps).ceil() as usize)
        .map(|i| i as f64 * period_ms)
        .collect();
    let mut served: Vec<Served> = Vec::with_capacity(due.len());
    let clock = WallClock::start();
    let mut samples = stats::open_loop(&clock, &due, 5_000.0, |i| {
        let record = runtime.serve_frame(&ring[i % ring.len()], &plan);
        let detections = record.outcome.detections();
        let healthy = record.state == HealthState::Healthy && detections.is_some();
        served.push(Served {
            index: i,
            digest: detections.map_or(0, common::digest),
            healthy,
            modeled_ms: record.modeled_latency_ms,
        });
        healthy
    });
    let wall_s = clock.now_ms() / 1e3;

    // Output checks, outside the schedule.
    let mut failed_checks = Vec::new();
    let reference = crate::child_reference(workload, seed, spec.reference)?;
    for frame in &served {
        let k = frame.index % ring.len();
        if let Some(pos) = spec.reference.iter().position(|&r| r == k) {
            if frame.digest != reference[pos] {
                samples[frame.index].ok = false;
                failed_checks.push(format!(
                    "frame {}: detections differ from the reference",
                    frame.index
                ));
            }
        }
    }
    let model = common::load_model()?;
    let canary = common::canary_digest(&model, spec.datapath)?;
    let key = format!("{workload}.canary");
    if common::recorded(&key) != Some(canary) {
        failed_checks.push(format!(
            "canary digest {canary:016x} differs from the recorded {key}"
        ));
    }

    let units = vec![1.0; samples.len()];
    let summary = stats::summarize(&samples, &units, spec.deadline_ms, wall_s);
    let mut run = Run::new(summary, setup_s, Layers::default());
    run.failed_checks = failed_checks;
    run.info.push(format!(
        "schedule: {} frames at {} fps, ring of {}, budget {:.1} ms",
        due.len(),
        spec.fps,
        ring.len(),
        runtime.config().budget.frame_budget_ms
    ));

    let layers = &mut run.layers;
    let temporal = runtime.detector().temporal_stats().unwrap_or_default();
    layers.set("detect.temporal_full_builds", temporal.full_builds as f64);
    layers.set("detect.temporal_incremental", temporal.incremental as f64);
    layers.set("detect.temporal_unchanged", temporal.unchanged as f64);
    if temporal.frames > 0 {
        layers.set(
            "detect.temporal_reuse_share",
            (temporal.incremental + temporal.unchanged) as f64 / temporal.frames as f64,
        );
    }
    layers.set(
        "input.dirty_row_share",
        trace::mean(served.iter().map(|s| {
            if s.index == 0 {
                1.0
            } else {
                dirty[s.index % ring.len()]
            }
        })),
    );
    let served_ms = trace::mean(samples.iter().filter(|s| s.ok).map(Sample::service_ms));
    layers.set("runtime.serve_frame_ms", served_ms);
    layers.set(
        "runtime.degraded_frames",
        served.iter().filter(|s| !s.healthy).count() as f64,
    );
    layers.set(
        "runtime.cost_model_ratio",
        trace::mean(served.iter().map(|s| s.modeled_ms)) / served_ms,
    );
    run.info.push(format!(
        "input: dirty-row share {:.3} per frame; temporal: {} full, {} incremental, {} unchanged",
        layers.get("input.dirty_row_share"),
        temporal.full_builds,
        temporal.incremental,
        temporal.unchanged
    ));

    if traced {
        shadow(&mut run, spec, &ring, &samples, &served, clock.0)?;
    }
    Ok(run)
}

/// The traced replay, outside the schedule. Each of the first frames is
/// served again by a fresh runtime (same frame order, so the same cache
/// states) after the same idle gap the live loop left before it, then
/// decomposed: the detector call alone through a fresh temporal detector
/// and the tracker step, recorded as child spans of the replayed call so
/// that its self time is the runtime's own overhead; then a stateless
/// detection stage by stage, and the stateless call whole.
fn shadow(
    run: &mut Run,
    spec: &StreamSpec,
    ring: &[GrayImage],
    samples: &[Sample],
    served: &[Served],
    origin: Stopwatch,
) -> Result<(), Error> {
    let mut replay = build(spec)?;
    let model = common::load_model()?;
    let temporal = common::detector(model.clone(), spec.datapath, true)?;
    let stateless = common::detector(model.clone(), spec.datapath, false)?;
    let mut nms_off_config = stateless.config().clone();
    nms_off_config.nms_iou = None;
    let nms_off = FeaturePyramidDetector::new(model, nms_off_config);
    let nms_iou = stateless.config().nms_iou.unwrap_or(0.3);
    let mut tracker = Tracker::new(rtped_detect::tracker::TrackerParams::default());
    let clock = WallClock(origin);
    let mut tracer = Tracer::new(origin);
    let plan = FaultPlan::none();

    // Per frame: the live and the replayed call, and the stage sum
    // against the stateless call it decomposes.
    let (mut live, mut replayed, mut stage_gaps) = (Vec::new(), Vec::new(), Vec::new());
    let mut previous_end = None;
    for record in served.iter().take(spec.shadow_frames) {
        let i = record.index;
        let request = i as u64;
        let frame = &ring[i % ring.len()];
        let live_id = tracer.record(Span {
            name: "runtime.serve_frame",
            parent: None,
            request,
            start_ms: samples[i].start_ms,
            end_ms: samples[i].end_ms,
        });
        if let Some(end) = previous_end {
            clock.sleep_until(clock.now_ms() + (samples[i].start_ms - end));
        }
        previous_end = Some(samples[i].end_ms);
        let (_, call) = tracer.span("runtime.serve_frame.replay", None, request, || {
            replay.serve_frame(frame, &plan)
        });
        let before = temporal.temporal_stats().unwrap_or_default();
        let (detections, t_id) = tracer.span("detect.temporal", Some(call), request, || {
            temporal.detect(frame)
        });
        let full = temporal.temporal_stats().unwrap_or_default().full_builds > before.full_builds;
        let (_, k_id) = tracer.span("detect.tracker", Some(call), request, || {
            tracker.step(&detections)
        });
        // On a full build the stages are what the detector call did.
        let stages_parent = if full {
            t_id
        } else {
            tracer.open("detect.stages", None, request)
        };
        let stages: Stages = common::stages(
            &mut tracer,
            Some(stages_parent),
            request,
            frame,
            &nms_off,
            nms_iou,
        );
        if !full {
            tracer.close(stages_parent);
        }
        let (whole, s_id) = tracer.span("detect.stateless", None, request, || {
            stateless.detect(frame)
        });
        stages.add_to(&mut run.layers);
        if [&stages.detections, &detections, &whole]
            .iter()
            .any(|d| common::digest(d) != record.digest)
        {
            run.failed_checks.push(format!(
                "traced frame {i}: replay detections differ from the served ones"
            ));
        }

        let ms = |id: usize| tracer.get(id).ms();
        let (r, t, k, s) = (ms(call), ms(t_id), ms(k_id), ms(s_id));
        live.push(ms(live_id));
        replayed.push(r);
        stage_gaps.push((s - stages.total_ms()).abs() / s);
        let layers = &mut run.layers;
        layers.push("detect.temporal_ms", t);
        layers.push("detect.temporal_saved_ms", s - t);
        layers.push("detect.tracker_ms", k);
        layers.push("runtime.overhead_ms", r - t - k);
    }
    if live.is_empty() {
        return Err(Error::format("no frame was served"));
    }
    let live_ms = stats::median(&live);
    let gap = (live_ms - stats::median(&replayed)).abs() / live_ms;
    let stages_gap = stats::median(&stage_gaps);
    let layers = &mut run.layers;
    layers.set("reconcile.gap_share", gap);
    layers.set("reconcile.stages_gap_share", stages_gap);
    run.info.push(format!(
        "reconcile: stage sum vs stateless call {:.1}% (median; tolerance {:.0}%): {}; \
         replayed vs live served call {:.1}%; runtime self time {:.2} ms per frame",
        100.0 * stages_gap,
        100.0 * RECONCILE_TOLERANCE,
        if stages_gap <= RECONCILE_TOLERANCE {
            "reconciled"
        } else {
            "NOT reconciled"
        },
        100.0 * gap,
        layers.get("runtime.overhead_ms")
    ));
    let hist = layers.get("hog.cells_ms");
    let scoring = layers.get("detect.scan_ms");
    run.info.push(format!(
        "premise (paper §5, histogram generation costs most): {} datapath, \
         cell histograms {hist:.2} ms vs window scoring {scoring:.2} ms per frame: {} costs most",
        spec.datapath,
        if hist > scoring {
            "histogram generation"
        } else {
            "scoring"
        }
    ));
    run.tracer = Some(tracer);
    Ok(())
}
