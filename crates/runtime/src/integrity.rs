//! The integrity-instrumented frame server: the hardware accelerator's
//! protected datapath wired into the runtime safety monitor.
//!
//! [`IntegrityRuntime`] is the [`crate::Runtime`]'s sibling for the
//! cycle-accurate hardware model, implementing the same object-safe
//! [`Engine`] trait through the same per-frame session loop. Its scan
//! runs each delivered frame through the accelerator's one frame entry
//! point, `rtped_hw::HogAccelerator::process_with_integrity`, with every
//! mechanism armed — ECC-protected feature memory, duplicate-and-compare
//! MACBARs, the float-golden lockstep channel, and the schedule watchdog
//! — under a deterministic [`SoftErrorDose`] drawn from the
//! [`FaultPlan`]'s `soft_errors` fault. The ECC mode
//! ([`RuntimeConfig::ecc`]) is the one integrity setting. A runtime
//! built [`with_sharding`](IntegrityRuntime::with_sharding) passes its
//! [`ShardFleet`] to the same call, which bands the native map across
//! the shards with quarantine and failover.
//!
//! Integrity faults (uncorrectable memory words, MACBAR divergence,
//! lockstep mismatch, watchdog events) escalate the degradation
//! controller one rung via `observe_integrity_fault` — the
//! `integrity_fault` transition cause — and every frame's ECC/lockstep
//! accounting folds into the run-level [`IntegrityReport`] published in
//! [`RunReport::integrity`], whose escalation count is the number of
//! `integrity_fault` transitions in the same report.
//!
//! The loop is serial and every latency is modeled from cycle counts at
//! the accelerator's clock, so the emitted report is byte-identical
//! across runs, hosts, and `RTPED_THREADS` values.

use rtped_hw::integrity::{IntegrityFault, IntegrityReport, SoftErrorDose};
use rtped_hw::{AcceleratorConfig, ClockDomain, EccMode, HogAccelerator, ShardConfig, ShardFleet};
use rtped_image::GrayImage;
use rtped_svm::LinearSvm;

use crate::config::RuntimeConfig;
use crate::control::HealthState;
use crate::deadline::DeadlineBudget;
use crate::engine::Engine;
use crate::fault::{Fault, FaultPlan};
use crate::report::{FrameRecord, RunReport};
use crate::session::{escalations, Scan, Session};

/// The 64×128 px detection window height anchoring coasted-track scale
/// estimates (the accelerator's window is fixed).
const WINDOW_HEIGHT_PX: f64 = 128.0;

/// Serves frames through the integrity-instrumented hardware model under
/// a fault plan, feeding integrity faults into the degradation ladder.
#[derive(Debug, Clone)]
pub struct IntegrityRuntime {
    accelerator: HogAccelerator,
    golden: LinearSvm,
    ecc: EccMode,
    budget: DeadlineBudget,
    session: Session,
    report: IntegrityReport,
    fleet: Option<ShardFleet>,
}

impl IntegrityRuntime {
    /// Builds the runtime around a float model: the accelerator quantizes
    /// it, and the same float model serves as the lockstep golden
    /// channel. `runtime` supplies the deadline budget and the ECC mode.
    ///
    /// # Panics
    ///
    /// Panics if the model does not fit the accelerator's window (see
    /// [`HogAccelerator::new`]).
    #[must_use]
    pub fn new(model: LinearSvm, config: AcceleratorConfig, runtime: &RuntimeConfig) -> Self {
        Self {
            accelerator: HogAccelerator::new(&model, config),
            golden: model,
            ecc: runtime.ecc,
            budget: runtime.budget,
            session: Session::new(runtime.budget),
            report: IntegrityReport::new(runtime.ecc),
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
}

impl Engine for IntegrityRuntime {
    /// Serves one frame through the session loop; the scan is one
    /// `process_with_integrity` call under the frame's soft-error dose.
    fn serve_frame(&mut self, frame: &GrayImage, plan: &FaultPlan) -> FrameRecord {
        let (accelerator, golden, ecc) = (&self.accelerator, &self.golden, self.ecc);
        let (report, fleet) = (&mut self.report, self.fleet.as_mut());
        self.session
            .serve(frame, plan, WINDOW_HEIGHT_PX, |delivered| {
                let dose = dose_from_faults(delivered.faults, plan, delivered.index);
                let (hw_report, frame_integrity) =
                    accelerator.process_with_integrity(delivered.image, golden, ecc, &dose, fleet);
                let faults = report.record_frame(&frame_integrity);
                Ok(Scan {
                    latency_ms: ClockDomain::MHZ_125.millis(hw_report.frame_cycles()),
                    detections: hw_report.detections,
                    integrity_faults: faults.iter().map(IntegrityFault::label).collect(),
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
        self.budget
    }

    fn kind(&self) -> &'static str {
        "integrity"
    }

    fn reset(&mut self) {
        self.session = Session::new(self.budget);
        self.report = IntegrityReport::new(self.ecc);
        if let Some(fleet) = self.fleet.as_mut() {
            fleet.reset();
        }
    }

    fn take_report(&mut self, seed: u64) -> RunReport {
        let mut report = self.session.take_report(seed);
        let integrity = std::mem::replace(&mut self.report, IntegrityReport::new(self.ecc));
        report.integrity = Some(IntegrityReport {
            escalations: escalations(&report.transitions),
            ..integrity
        });
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
