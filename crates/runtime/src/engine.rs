//! The unified engine API and the software frame-serving engine.
//!
//! # The [`Engine`] trait
//!
//! PRs 4–5 grew two parallel frame servers — the software
//! [`Runtime`] and the hardware [`IntegrityRuntime`](crate::IntegrityRuntime)
//! — with duplicated entry points. This module unifies them behind one
//! **object-safe** trait so hosts (the `rtped-serve` daemon, tests,
//! examples) can drive heterogeneous engines as `Box<dyn Engine>`:
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
//! Guarantees, under any plan, for every engine:
//!
//! - **zero panics escape**: worker panics are caught
//!   (`rtped_core::par::try_map`) and surface as
//!   [`FrameError::WorkerPanic`];
//! - **every frame accounted**: each input frame yields detections,
//!   coasted tracks, or a typed [`FrameError`] — never silence;
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
use crate::report::{FrameError, FrameOutcome, FrameRecord, RunReport};
use crate::session::{Admitted, Session};

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
    /// Serves one frame: fault delivery, profile selection, isolated
    /// detection, tracking, and the controller observation.
    fn serve_frame(&mut self, frame: &GrayImage, plan: &FaultPlan) -> FrameRecord {
        let index = self.session.next_index();
        let state = self.session.state();
        let (image, fault_labels, delay_ms, worker_panic) =
            match self.session.deliver(index, state, frame, plan) {
                Admitted::Rejected(record) => return record,
                Admitted::Frame {
                    image,
                    fault_labels,
                    delay_ms,
                    worker_panic,
                    ..
                } => (image, fault_labels, delay_ms, worker_panic),
            };

        // SafeFallback scans with the deepest shed profile as a probe;
        // any other state scans with its own profile.
        let profile = state.profile();
        let (width, height) = image.dimensions();
        let modeled_ms =
            self.config
                .cost_model
                .frame_cost_ms(width, height, self.detector.config(), &profile)
                + delay_ms;

        // Panic isolation: the scan runs inside `try_map`, so an injected
        // (or genuine) worker panic becomes a typed error instead of
        // unwinding through the frame loop.
        let detector = &self.detector;
        let scanned = par::try_map(std::slice::from_ref(&image), |img| {
            if worker_panic {
                // rtped-lint: allow(unwrap-in-library, "deliberate fault injection: this panic exists to exercise try_map's panic isolation and is caught below")
                panic!("injected worker panic at frame {index}");
            }
            detector.detect_with_profile(img, &profile)
        });
        match scanned {
            Err(panic) => self.session.fail(
                index,
                state,
                fault_labels,
                FrameError::WorkerPanic(panic.message),
            ),
            Ok(mut results) => {
                // try_map over a one-element slice returns exactly one
                // result on the Ok path; the empty fallback is unreachable.
                let detections = results.pop().unwrap_or_default();
                self.session.tracker.step(&detections);
                let transition = self.session.controller.observe_ok(modeled_ms);
                let outcome = if state == HealthState::SafeFallback {
                    // Publish the coasted confirmed tracks; the probe scan
                    // above only fed the tracker and the controller.
                    let window_h = self.detector.config().params.window_size().1 as f64;
                    FrameOutcome::Coasted(self.session.coasted_tracks(window_h))
                } else {
                    FrameOutcome::Detections(detections)
                };
                self.session.push(
                    FrameRecord {
                        index,
                        state,
                        faults: fault_labels,
                        modeled_latency_ms: modeled_ms,
                        outcome,
                    },
                    transition,
                )
            }
        }
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
