//! Shared per-session state behind every [`Engine`](crate::Engine).
//!
//! Both engine families — the software [`Runtime`](crate::Runtime) and
//! the hardware [`IntegrityRuntime`](crate::IntegrityRuntime) — used to
//! duplicate the same frame-loop scaffolding: fault delivery, controller
//! observation, tracker bookkeeping, and the run log. This module owns
//! that scaffolding once, so `serve_frame` implementations only contain
//! what genuinely differs (how a delivered image becomes detections).

use rtped_detect::detector::Detection;
use rtped_detect::tracker::{Tracker, TrackerParams};
use rtped_image::GrayImage;

use crate::control::{Controller, HealthState, Transition};
use crate::deadline::DeadlineBudget;
use crate::fault::{Delivery, Fault, FaultPlan};
use crate::report::{FrameError, FrameOutcome, FrameRecord, RunReport, TransitionRecord};

/// The outcome of the delivery phase for one frame.
#[derive(Debug)]
pub(crate) enum Admitted {
    /// The frame survived delivery; scan it.
    Frame {
        /// The (possibly corrupted) image.
        image: GrayImage,
        /// Faults injected into this frame.
        faults: Vec<Fault>,
        /// Their report labels.
        fault_labels: Vec<String>,
        /// Injected delivery delay in milliseconds.
        delay_ms: f64,
        /// Whether the plan kills the detection worker on this frame.
        worker_panic: bool,
    },
    /// Delivery failed; the error record is already logged.
    Rejected(FrameRecord),
}

/// Mutable state of one serving session: controller, tracker, run log,
/// and the frame counter. Equal observation sequences reproduce equal
/// session states, whatever the host or thread count.
#[derive(Debug, Clone)]
pub(crate) struct Session {
    pub controller: Controller,
    pub tracker: Tracker,
    records: Vec<FrameRecord>,
    transitions: Vec<TransitionRecord>,
    served: usize,
}

impl Session {
    pub fn new(budget: DeadlineBudget) -> Self {
        Self {
            controller: Controller::new(budget),
            tracker: Tracker::new(TrackerParams::default()),
            records: Vec::new(),
            transitions: Vec::new(),
            served: 0,
        }
    }

    /// Health state the next frame will be served under.
    pub fn state(&self) -> HealthState {
        self.controller.state()
    }

    /// Frames served since the last reset.
    pub fn served(&self) -> usize {
        self.served
    }

    /// Claims the next frame index.
    pub fn next_index(&mut self) -> usize {
        let index = self.served;
        self.served += 1;
        index
    }

    /// Runs the delivery phase for frame `index`: applies the plan's
    /// dropout/truncation verdicts (logging the error record and feeding
    /// the controller on rejection) and hands survivors back for the
    /// engine-specific scan.
    pub fn deliver(
        &mut self,
        index: usize,
        state: HealthState,
        frame: &GrayImage,
        plan: &FaultPlan,
    ) -> Admitted {
        match plan.deliver(index, frame) {
            Delivery::Dropped => Admitted::Rejected(self.fail(
                index,
                state,
                vec!["sensor_dropout".into()],
                FrameError::SensorDropout,
            )),
            Delivery::Truncated { error } => Admitted::Rejected(self.fail(
                index,
                state,
                vec!["truncation".into()],
                FrameError::TruncatedFrame(error),
            )),
            Delivery::Frame {
                image,
                faults,
                delay_ms,
                worker_panic,
            } => {
                let fault_labels = faults.iter().map(Fault::label).collect();
                Admitted::Frame {
                    image,
                    faults,
                    fault_labels,
                    delay_ms,
                    worker_panic,
                }
            }
        }
    }

    /// Logs a frame that failed with a typed error, feeding the
    /// controller's error path.
    pub fn fail(
        &mut self,
        index: usize,
        state: HealthState,
        faults: Vec<String>,
        error: FrameError,
    ) -> FrameRecord {
        let transition = self.controller.observe_error();
        self.push(
            FrameRecord {
                index,
                state,
                faults,
                // No compute happened; the frame period was still
                // consumed, but the controller tracks errors separately
                // from latency.
                modeled_latency_ms: 0.0,
                outcome: FrameOutcome::Error(error),
            },
            transition,
        )
    }

    /// Logs a completed frame record plus the transition its observation
    /// triggered (the caller already fed the controller), returning the
    /// record for the caller to hand out.
    pub fn push(&mut self, record: FrameRecord, transition: Option<Transition>) -> FrameRecord {
        if let Some(t) = transition {
            self.transitions.push(TransitionRecord {
                frame: record.index,
                transition: t,
            });
        }
        self.records.push(record.clone());
        record
    }

    /// The tracker's confirmed tracks rendered as detections — the
    /// `SafeFallback` coast output. `window_h` (the detection window
    /// height in pixels) anchors the scale estimate.
    pub fn coasted_tracks(&self, window_h: f64) -> Vec<Detection> {
        self.tracker
            .confirmed()
            .map(|t| Detection {
                bbox: t.bbox,
                score: t.score,
                scale: if window_h > 0.0 {
                    t.bbox.height as f64 / window_h
                } else {
                    1.0
                },
            })
            .collect()
    }

    /// Drains the run log into a report. Controller, tracker, and the
    /// frame counter keep going — a serving session can emit periodic
    /// reports without losing its state; use a reset for a fresh run.
    pub fn take_report(&mut self, seed: u64) -> RunReport {
        RunReport {
            seed,
            frames: std::mem::take(&mut self.records),
            transitions: std::mem::take(&mut self.transitions),
            final_state: self.controller.state(),
            stream: None,
            integrity: None,
        }
    }
}
