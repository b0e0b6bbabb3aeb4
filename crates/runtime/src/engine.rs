//! The unified engine API and the software frame-serving engine.
//!
//! # The [`Engine`] trait
//!
//! The software [`Runtime`] and the hardware
//! [`IntegrityRuntime`](crate::IntegrityRuntime) share one **object-safe**
//! trait, so hosts (the `rtped-serve` daemon, tests, examples) can drive
//! heterogeneous engines as `Box<dyn Engine>`:
//!
//! - [`Engine::serve_frame`] serves **one** frame incrementally and
//!   returns its [`FrameRecord`] — the daemon's request-at-a-time entry
//!   point;
//! - [`Engine::run`] (provided) resets, serves a whole sequence, and
//!   drains the [`RunReport`] — the batch entry point every existing
//!   caller migrates to;
//! - [`Engine::take_report`] drains the accumulated log without
//!   disturbing controller/tracker state, so a long-lived serving
//!   session can emit periodic reports.
//!
//! Both engines serve through one per-frame loop (`session.rs`): fault
//! delivery, the tracker, the degradation controller, coasting and the
//! run log are shared, and an engine supplies only its scan — the step
//! from a delivered image to detections, a modeled latency and any
//! integrity faults.
//!
//! Guarantees, under any plan, for every engine:
//!
//! - **zero panics escape**: a plan's injected worker panic surfaces as
//!   [`FrameError::WorkerPanic`](crate::FrameError::WorkerPanic), and so
//!   does a genuine panic in the software scan, which runs inside
//!   `rtped_core::par::try_map`;
//! - **every frame accounted**: each input frame yields detections,
//!   coasted tracks, or a typed [`FrameError`](crate::FrameError) —
//!   never silence;
//! - **bit-identical replay**: latency is modeled, never wall-clock, so
//!   equal observation sequences produce byte-identical reports across
//!   runs, hosts, and `RTPED_THREADS` values.
//!
//! The frame loop is sequential by design — the controller and tracker
//! are stateful — while each frame's scan parallelizes internally.

use rtped_core::par;
use rtped_detect::detector::Detect;
use rtped_hw::stream::StreamSimulator;
use rtped_image::GrayImage;

use crate::config::RuntimeConfig;
use crate::control::HealthState;
use crate::deadline::DeadlineBudget;
use crate::fault::{Delivery, FaultPlan};
use crate::report::{FrameRecord, RunReport};
use crate::session::{Scan, Session};

/// A fault-tolerant, deadline-aware frame server, object-safe so daemons
/// can host heterogeneous engines as `Box<dyn Engine>`.
///
/// Implementations are stateful: the degradation controller, the coasting
/// tracker, and the run log live inside the engine and persist across
/// [`Engine::serve_frame`] calls until [`Engine::reset`].
pub trait Engine: Send {
    /// Serves the next frame under `plan` and returns its record. The
    /// frame's index is the engine's internal counter (frames served
    /// since the last reset), which is also the index the plan's seeded
    /// fault schedule keys on.
    fn serve_frame(&mut self, frame: &GrayImage, plan: &FaultPlan) -> FrameRecord;

    /// Health state the next frame will be served under.
    fn state(&self) -> HealthState;

    /// Frames served since the last reset.
    fn frames_served(&self) -> usize;

    /// The per-frame deadline in force.
    fn budget(&self) -> DeadlineBudget;

    /// Stable engine-family label (`"software"` or `"integrity"`), used
    /// by serving layers to report what backs a tenant.
    fn kind(&self) -> &'static str;

    /// Returns the engine to its post-construction state: fresh
    /// controller, tracker, log, and frame counter.
    fn reset(&mut self);

    /// Drains the accumulated run log into a report stamped with `seed`.
    /// Controller, tracker, and the frame counter are left running, so a
    /// serving session can report periodically; use [`Engine::reset`]
    /// for a fresh run.
    fn take_report(&mut self, seed: u64) -> RunReport;

    /// Serves `frames` under `plan` from a fresh state, returning the
    /// full run record. Equal inputs produce equal reports.
    fn run(&mut self, frames: &[GrayImage], plan: &FaultPlan) -> RunReport {
        self.reset();
        for frame in frames {
            let _ = self.serve_frame(frame, plan);
        }
        self.take_report(plan.seed)
    }
}

/// The software frame server: a [`Detect`] implementation behind the
/// degradation controller and the coasting tracker.
#[derive(Debug, Clone)]
pub struct Runtime<D> {
    detector: D,
    config: RuntimeConfig,
    session: Session,
}

impl<D: Detect + Sync + Send> Runtime<D> {
    /// Wraps a detector with the (environment-free) default
    /// [`RuntimeConfig`]. Binaries that want `RTPED_*` overrides pass
    /// [`RuntimeConfig::from_env`] to [`Runtime::with_config`].
    #[must_use]
    pub fn new(detector: D) -> Self {
        Self::with_config(detector, RuntimeConfig::default())
    }

    /// Wraps a detector with an explicit configuration.
    #[must_use]
    pub fn with_config(detector: D, config: RuntimeConfig) -> Self {
        let session = Session::new(config.budget);
        Self {
            detector,
            config,
            session,
        }
    }

    /// The wrapped detector.
    #[must_use]
    pub fn detector(&self) -> &D {
        &self.detector
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// [`Engine::run`], additionally feeding every *delivered* frame
    /// through the hardware [`StreamSimulator`] for drop accounting
    /// (frames the faults swallowed never reach the camera link). The
    /// stream stats land in [`RunReport::stream`].
    #[must_use]
    pub fn run_with_stream(
        &mut self,
        frames: &[GrayImage],
        plan: &FaultPlan,
        simulator: &StreamSimulator,
        camera_period_cycles: u64,
    ) -> RunReport {
        let mut report = Engine::run(self, frames, plan);
        let delivered: Vec<GrayImage> = frames
            .iter()
            .enumerate()
            .filter_map(|(i, frame)| match plan.deliver(i, frame) {
                Delivery::Frame { image, .. } => Some(image),
                Delivery::Dropped | Delivery::Truncated { .. } => None,
            })
            .collect();
        if !delivered.is_empty() {
            report.stream = Some(
                simulator
                    .process_stream(&delivered, camera_period_cycles)
                    .stats(),
            );
        }
        report
    }
}

impl<D: Detect + Sync + Send> Engine for Runtime<D> {
    /// Serves one frame through the session loop; the scan is the
    /// detector under the state's profile, isolated in
    /// `rtped_core::par::try_map` so a worker panic becomes a typed error
    /// instead of unwinding through the frame loop.
    fn serve_frame(&mut self, frame: &GrayImage, plan: &FaultPlan) -> FrameRecord {
        let (detector, cost_model) = (&self.detector, &self.config.cost_model);
        let window_h = detector.config().params.window_size().1 as f64;
        self.session.serve(frame, plan, window_h, |delivered| {
            let (width, height) = delivered.image.dimensions();
            let profile = delivered.profile;
            let latency_ms = cost_model.frame_cost_ms(width, height, detector.config(), &profile);
            let image = std::slice::from_ref(delivered.image);
            let mut results =
                par::try_map(image, |img| detector.detect_with_profile(img, &profile))
                    .map_err(|panic| panic.message)?;
            Ok(Scan {
                // try_map over a one-element slice returns exactly one
                // result on the Ok path; the empty fallback is unreachable.
                detections: results.pop().unwrap_or_default(),
                latency_ms,
                integrity_faults: Vec::new(),
            })
        })
    }

    fn state(&self) -> HealthState {
        self.session.state()
    }

    fn frames_served(&self) -> usize {
        self.session.served()
    }

    fn budget(&self) -> DeadlineBudget {
        self.config.budget
    }

    fn kind(&self) -> &'static str {
        "software"
    }

    fn reset(&mut self) {
        self.session = Session::new(self.config.budget);
    }

    fn take_report(&mut self, seed: u64) -> RunReport {
        self.session.take_report(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{FrameError, FrameOutcome};
    use rtped_detect::detector::{Detection, DetectorConfig};

    /// A detector whose scan always panics — a genuine worker fault, not
    /// one a fault plan injected.
    struct Faulty(DetectorConfig);

    impl Detect for Faulty {
        fn detect(&self, _frame: &GrayImage) -> Vec<Detection> {
            panic!("detector fault");
        }

        fn config(&self) -> &DetectorConfig {
            &self.0
        }

        fn method_name(&self) -> &'static str {
            "faulty"
        }
    }

    #[test]
    fn a_genuine_scan_panic_is_isolated_into_a_typed_error() {
        let mut runtime = Runtime::new(Faulty(DetectorConfig::two_scale()));
        let frame = GrayImage::from_fn(64, 128, |x, y| ((x * 7 + y * 3) % 256) as u8);
        for index in 0..2 {
            let record = runtime.serve_frame(&frame, &FaultPlan::none());
            assert_eq!(record.index, index);
            assert_eq!(record.modeled_latency_ms, 0.0);
            match record.outcome {
                FrameOutcome::Error(FrameError::WorkerPanic(message)) => {
                    assert_eq!(message, "detector fault");
                }
                other => panic!("expected a worker panic, got {other:?}"),
            }
        }
        assert_eq!(runtime.take_report(0).frames.len(), 2);
    }
}
