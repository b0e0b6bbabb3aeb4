//! The per-frame serving loop shared by every [`Engine`](crate::Engine).
//!
//! A [`Session`] owns everything the software [`Runtime`](crate::Runtime)
//! and the hardware [`IntegrityRuntime`](crate::IntegrityRuntime) do
//! alike: fault delivery and its rejection records, the injected
//! worker-panic error, the tracker step, the controller observation,
//! `SafeFallback` coasting, and the run log. An engine supplies only its
//! scan — the step from a [`Delivered`] frame to a [`Scan`].

use rtped_detect::detector::{Detection, ScanProfile};
use rtped_detect::tracker::{Tracker, TrackerParams};
use rtped_image::GrayImage;

use crate::control::{Controller, HealthState, Transition, TransitionCause};
use crate::deadline::DeadlineBudget;
use crate::fault::{Delivery, Fault, FaultPlan};
use crate::report::{FrameError, FrameOutcome, FrameRecord, RunReport, TransitionRecord};

/// A frame that survived delivery, as an engine's scan sees it.
pub(crate) struct Delivered<'a> {
    /// Frames served before this one since the last reset.
    pub index: usize,
    /// The (possibly corrupted) image.
    pub image: &'a GrayImage,
    /// The scan profile of the state the frame is served under.
    pub profile: ScanProfile,
    /// Faults injected into this frame.
    pub faults: &'a [Fault],
}

/// What an engine's scan made of one delivered frame.
pub(crate) struct Scan {
    /// The frame's detections.
    pub detections: Vec<Detection>,
    /// Modeled compute latency, without the delivery delay.
    pub latency_ms: f64,
    /// Labels of the integrity faults the scan raised; any escalates the
    /// controller through the `integrity_fault` cause.
    pub integrity_faults: Vec<&'static str>,
}

/// Mutable state of one serving session: controller, tracker, run log,
/// and the frame counter. Equal observation sequences reproduce equal
/// session states, whatever the host or thread count.
#[derive(Debug, Clone)]
pub(crate) struct Session {
    controller: Controller,
    tracker: Tracker,
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

    /// Serves the next frame: applies the plan's delivery verdict, runs
    /// `scan` on a survivor, then steps the tracker, feeds the controller
    /// and logs the record. A `scan` error is a caught worker panic's
    /// message. `window_h` (the detection window height in pixels)
    /// anchors the scale estimate of coasted tracks.
    pub fn serve(
        &mut self,
        frame: &GrayImage,
        plan: &FaultPlan,
        window_h: f64,
        scan: impl FnOnce(Delivered<'_>) -> Result<Scan, String>,
    ) -> FrameRecord {
        let index = self.served;
        self.served += 1;
        let state = self.state();
        let (image, faults, delay_ms, worker_panic) = match plan.deliver(index, frame) {
            Delivery::Dropped => {
                let labels = vec!["sensor_dropout".into()];
                return self.fail(index, state, labels, FrameError::SensorDropout);
            }
            Delivery::Truncated { error } => {
                let labels = vec!["truncation".into()];
                return self.fail(index, state, labels, FrameError::TruncatedFrame(error));
            }
            Delivery::Frame {
                image,
                faults,
                delay_ms,
                worker_panic,
            } => (image, faults, delay_ms, worker_panic),
        };
        let mut labels: Vec<String> = faults.iter().map(Fault::label).collect();
        if worker_panic {
            let message = format!("injected worker panic at frame {index}");
            return self.fail(index, state, labels, FrameError::WorkerPanic(message));
        }

        // SafeFallback scans with the deepest shed profile as a probe;
        // any other state scans with its own profile.
        let delivered = Delivered {
            index,
            image: &image,
            profile: state.profile(),
            faults: &faults,
        };
        let scan = match scan(delivered) {
            Ok(scan) => scan,
            Err(message) => {
                return self.fail(index, state, labels, FrameError::WorkerPanic(message));
            }
        };
        let latency_ms = scan.latency_ms + delay_ms;
        self.tracker.step(&scan.detections);
        let transition = if scan.integrity_faults.is_empty() {
            self.controller.observe_ok(latency_ms)
        } else {
            labels.extend(
                scan.integrity_faults
                    .iter()
                    .map(|l| format!("integrity:{l}")),
            );
            self.controller.observe_integrity_fault()
        };
        let outcome = if state == HealthState::SafeFallback {
            // Publish the coasted confirmed tracks; the probe scan only
            // fed the tracker and the controller.
            FrameOutcome::Coasted(self.coasted_tracks(window_h))
        } else {
            FrameOutcome::Detections(scan.detections)
        };
        self.push(
            FrameRecord {
                index,
                state,
                faults: labels,
                modeled_latency_ms: latency_ms,
                outcome,
            },
            transition,
        )
    }

    /// Logs a frame that failed with a typed error, feeding the
    /// controller's error path.
    fn fail(
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

    /// Logs a frame record plus the transition its observation triggered,
    /// returning the record for the caller to hand out.
    fn push(&mut self, record: FrameRecord, transition: Option<Transition>) -> FrameRecord {
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
    /// `SafeFallback` coast output.
    fn coasted_tracks(&self, window_h: f64) -> Vec<Detection> {
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

/// Integrity escalations in a drained transition log: only
/// `observe_integrity_fault` produces the `integrity_fault` cause.
pub(crate) fn escalations(transitions: &[TransitionRecord]) -> u64 {
    let integrity = |t: &&TransitionRecord| t.transition.cause == TransitionCause::IntegrityFault;
    transitions.iter().filter(integrity).count() as u64
}
