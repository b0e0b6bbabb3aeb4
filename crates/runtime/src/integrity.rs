//! The integrity-instrumented frame server: the hardware accelerator's
//! protected datapath wired into the runtime safety monitor.
//!
//! [`IntegrityRuntime`] is the [`crate::Runtime`]'s sibling for the
//! cycle-accurate hardware model, implementing the same object-safe
//! [`Engine`] trait: each delivered frame goes through the accelerator's
//! one frame entry point, `rtped_hw::HogAccelerator::process_with_integrity`
//! — SECDED-protected feature memory, duplicate-and-compare MACBARs, the
//! float-golden lockstep channel, and the schedule watchdog — under a
//! deterministic [`SoftErrorDose`] drawn from the [`FaultPlan`]'s
//! `soft_errors` fault. A runtime built
//! [`with_sharding`](IntegrityRuntime::with_sharding) passes its
//! [`ShardFleet`] to the same call, which bands the native map across
//! the shards with quarantine and failover.
//!
//! Integrity faults (uncorrectable memory words, MACBAR divergence,
//! lockstep mismatch, watchdog events) escalate the degradation
//! controller one rung via `observe_integrity_fault` — the
//! `integrity_fault` transition cause — and every frame's ECC/lockstep
//! accounting folds into the run-level [`IntegrityReport`] published in
//! [`RunReport::integrity`].
//!
//! The loop is serial and every latency is modeled from cycle counts at
//! the accelerator's clock, so the emitted report is byte-identical
//! across runs, hosts, and `RTPED_THREADS` values.

use rtped_hw::integrity::{IntegrityConfig, IntegrityReport, SoftErrorDose};
use rtped_hw::{AcceleratorConfig, ClockDomain, HogAccelerator, ShardConfig, ShardFleet};
use rtped_image::GrayImage;
use rtped_svm::LinearSvm;

use crate::config::RuntimeConfig;
use crate::control::HealthState;
use crate::deadline::DeadlineBudget;
use crate::engine::Engine;
use crate::fault::{Fault, FaultPlan};
use crate::report::{FrameError, FrameOutcome, FrameRecord, RunReport};
use crate::session::{Admitted, Session};

/// The 64×128 px detection window height anchoring coasted-track scale
/// estimates (the accelerator's window is fixed).
const WINDOW_HEIGHT_PX: f64 = 128.0;

/// Serves frames through the integrity-instrumented hardware model under
/// a fault plan, feeding integrity faults into the degradation ladder.
#[derive(Debug, Clone)]
pub struct IntegrityRuntime {
    accelerator: HogAccelerator,
    golden: LinearSvm,
    integrity: IntegrityConfig,
    budget: DeadlineBudget,
    session: Session,
    report: IntegrityReport,
    fleet: Option<ShardFleet>,
}

impl IntegrityRuntime {
    /// Builds the runtime around a float model: the accelerator quantizes
    /// it, and the same float model serves as the lockstep golden
    /// channel. The budget is the (environment-free) default.
    ///
    /// # Panics
    ///
    /// Panics if the model does not fit the accelerator's window (see
    /// [`HogAccelerator::new`]).
    #[must_use]
    pub fn new(model: LinearSvm, config: AcceleratorConfig, integrity: IntegrityConfig) -> Self {
        let budget = DeadlineBudget::default();
        let session = Session::new(budget);
        let report = IntegrityReport::new(integrity.ecc);
        Self {
            accelerator: HogAccelerator::new(&model, config),
            golden: model,
            integrity,
            budget,
            session,
            report,
            fleet: None,
        }
    }

    /// Bands every frame across a fleet of shard instances with
    /// quarantine and bit-identical failover (the fleet argument of
    /// `HogAccelerator::process_with_integrity`). The
    /// accelerator is rebuilt at the fleet's per-shard geometry; resets
    /// the session.
    #[must_use]
    pub fn with_sharding(mut self, config: ShardConfig) -> Self {
        let mut accel_config = self.accelerator.config().clone();
        accel_config.geometry = config.geometry;
        self.accelerator = HogAccelerator::new(&self.golden, accel_config);
        self.fleet = Some(ShardFleet::new(&config));
        self.reset();
        self
    }

    /// Adopts the budget and ECC mode from a validated
    /// [`RuntimeConfig`] — the daemon's single config path (resets the
    /// session).
    #[must_use]
    pub fn with_runtime_config(mut self, config: &RuntimeConfig) -> Self {
        self.budget = config.budget;
        self.integrity.ecc = config.ecc;
        self.reset();
        self
    }

    /// The integrity configuration in force.
    #[must_use]
    pub fn integrity_config(&self) -> &IntegrityConfig {
        &self.integrity
    }

    /// The wrapped accelerator.
    #[must_use]
    pub fn accelerator(&self) -> &HogAccelerator {
        &self.accelerator
    }

    /// The shard fleet, when this runtime serves sharded.
    #[must_use]
    pub fn fleet(&self) -> Option<&ShardFleet> {
        self.fleet.as_ref()
    }
}

impl Engine for IntegrityRuntime {
    fn serve_frame(&mut self, frame: &GrayImage, plan: &FaultPlan) -> FrameRecord {
        let index = self.session.next_index();
        let state = self.session.state();
        let (image, faults, mut fault_labels, delay_ms, worker_panic) =
            match self.session.deliver(index, state, frame, plan) {
                Admitted::Rejected(record) => return record,
                Admitted::Frame {
                    image,
                    faults,
                    fault_labels,
                    delay_ms,
                    worker_panic,
                } => (image, faults, fault_labels, delay_ms, worker_panic),
            };
        if worker_panic {
            // The hardware path has no software worker to kill; the
            // scheduled panic surfaces as the same typed error the
            // software engine reports, keeping plans portable.
            return self.session.fail(
                index,
                state,
                fault_labels,
                FrameError::WorkerPanic(format!("injected worker panic at frame {index}")),
            );
        }
        let dose = dose_from_faults(&faults, plan, index);

        let (hw_report, frame_integrity) = self.accelerator.process_with_integrity(
            &image,
            &self.golden,
            &self.integrity,
            &dose,
            self.fleet.as_mut(),
        );
        let latency_ms = ClockDomain::MHZ_125.millis(hw_report.frame_cycles()) + delay_ms;
        let integrity_faults = self.report.record_frame(&frame_integrity);
        for fault in &integrity_faults {
            fault_labels.push(format!("integrity:{}", fault.label()));
        }

        self.session.tracker.step(&hw_report.detections);
        let transition = if integrity_faults.is_empty() {
            self.session.controller.observe_ok(latency_ms)
        } else {
            let t = self.session.controller.observe_integrity_fault();
            if t.is_some() {
                self.report.record_escalation();
            }
            t
        };

        let outcome = if state == HealthState::SafeFallback {
            FrameOutcome::Coasted(self.session.coasted_tracks(WINDOW_HEIGHT_PX))
        } else {
            FrameOutcome::Detections(hw_report.detections)
        };
        self.session.push(
            FrameRecord {
                index,
                state,
                faults: fault_labels,
                modeled_latency_ms: latency_ms,
                outcome,
            },
            transition,
        )
    }

    fn state(&self) -> HealthState {
        self.session.state()
    }

    fn frames_served(&self) -> usize {
        self.session.served()
    }

    fn budget(&self) -> DeadlineBudget {
        self.budget
    }

    fn kind(&self) -> &'static str {
        "integrity"
    }

    fn reset(&mut self) {
        self.session = Session::new(self.budget);
        self.report = IntegrityReport::new(self.integrity.ecc);
        if let Some(fleet) = self.fleet.as_mut() {
            fleet.reset();
        }
    }

    fn take_report(&mut self, seed: u64) -> RunReport {
        let mut report = self.session.take_report(seed);
        report.integrity = Some(std::mem::replace(
            &mut self.report,
            IntegrityReport::new(self.integrity.ecc),
        ));
        report
    }
}

/// The soft-error dose for one frame: the plan's `SoftErrors` fault (if
/// scheduled) seeded by [`FaultPlan::soft_seed`].
fn dose_from_faults(faults: &[Fault], plan: &FaultPlan, index: usize) -> SoftErrorDose {
    for fault in faults {
        if let Fault::SoftErrors {
            mem_flips,
            mem_double_flips,
            acc_flips,
            stall_cycles,
        } = *fault
        {
            return SoftErrorDose {
                seed: plan.soft_seed(index),
                mem_flips,
                mem_double_flips,
                acc_flips,
                stall_cycles,
            };
        }
    }
    SoftErrorDose::none()
}
