//! Fault-tolerant, deadline-aware frame serving for the detection chain.
//!
//! The paper's premise is a *safety* budget: §1 derives the 20–60 m
//! detection envelope from perception-reaction arithmetic, and §4's
//! hardware holds frame latency to ~1% of that budget. This crate gives
//! the software chain the part real driver-assistance deployments add on
//! top — a story for when the budget is threatened. Three pillars:
//!
//! - **Fault injection** ([`fault`]): a seeded [`FaultPlan`] corrupts
//!   frames (bit flips, dead rows/columns), swallows them (sensor
//!   dropout), truncates them, delays them, and kills detection workers
//!   on schedule — every failure mode replayable from one seed.
//! - **Graceful degradation** ([`control`], [`deadline`]): a per-frame
//!   deadline (default 15 ms = 1% of the 1.5 s PRT, overridable via
//!   `RTPED_DEADLINE_MS`) enforced by a `Healthy → Degraded →
//!   SafeFallback` state machine that sheds pyramid levels, coarsens the
//!   scan stride, and finally coasts on the tracker's confirmed tracks —
//!   with hysteresis on recovery. Latency is *modeled* (a deterministic
//!   [`CostModel`]), never wall-clock, so control decisions are
//!   bit-reproducible across hosts and `RTPED_THREADS` values.
//! - **Isolation & reporting** ([`engine`], [`report`]): injected worker
//!   panics, and genuine ones caught per frame in the software scan
//!   (`rtped_core::par::try_map`), surface as typed [`FrameError`]s;
//!   every fault, decision, and outcome lands in a [`RunReport`]
//!   serialized canonically via `rtped_core::json`.
//! - **Hardware integrity** ([`integrity`]): [`IntegrityRuntime`] drives
//!   frames through the accelerator's protected datapath (ECC feature
//!   memory, checked MACBARs, lockstep golden channel, schedule watchdog,
//!   all armed; [`RuntimeConfig::ecc`] picks SECDED or unprotected
//!   memory) under seeded soft-error doses; integrity faults escalate the
//!   same degradation ladder and the run's ECC/lockstep accounting lands
//!   in [`RunReport::integrity`].
//!
//! Both engines serve through one per-frame loop — delivery, tracker,
//! controller, coasting and the run log — and differ only in their scan.
//!
//! # Example
//!
//! ```
//! use rtped_runtime::{Engine, FaultPlan, Runtime, RuntimeConfig};
//! use rtped_detect::detector::{DetectorConfig, FeaturePyramidDetector};
//! use rtped_image::GrayImage;
//! use rtped_svm::LinearSvm;
//!
//! let config = DetectorConfig::two_scale();
//! let model = LinearSvm::new(vec![0.0; config.params.cell_descriptor_len()], -1.0);
//! let detector = FeaturePyramidDetector::new(model, config);
//! let mut runtime = Runtime::with_config(detector, RuntimeConfig::default());
//!
//! let frames: Vec<GrayImage> = (0..8)
//!     .map(|k| GrayImage::from_fn(160, 192, move |x, y| ((x + y * 3 + k * 7) % 256) as u8))
//!     .collect();
//! let report = runtime.run(&frames, &FaultPlan::stress(42));
//! assert_eq!(report.frames.len(), 8);   // every frame accounted for
//! ```

pub mod config;
pub mod control;
pub mod deadline;
pub mod engine;
pub mod fault;
pub mod integrity;
pub mod report;
mod session;

pub use config::{RuntimeConfig, RuntimeConfigBuilder, DATAPATH_ENV, TEMPORAL_ENV};
pub use control::{Controller, HealthState, Transition, TransitionCause};
pub use deadline::{CostModel, DeadlineBudget, DEADLINE_ENV, PRT_FRACTION};
pub use engine::{Engine, Runtime};
pub use fault::{Delivery, Fault, FaultPlan};
pub use integrity::IntegrityRuntime;
pub use report::{
    FrameError, FrameOutcome, FrameRecord, RunReport, TransitionRecord, REPORT_FORMAT_VERSION,
};

/// Serializes unit tests that mutate `RTPED_*` environment variables —
/// cargo runs `#[test]`s on parallel threads, and the process environment
/// is shared state.
#[cfg(test)]
pub(crate) mod test_env {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    static LOCK: Mutex<()> = Mutex::new(());

    pub fn lock() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
