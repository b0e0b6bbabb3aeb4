//! # rtped — Real-Time Multi-Scale Pedestrian Detection
//!
//! A from-scratch Rust reproduction of:
//!
//! > Hemmati, Biglari-Abhari, Niar, Berber.
//! > *Real-Time Multi-Scale Pedestrian Detection for Driver Assistance
//! > Systems.* DAC 2017.
//!
//! The paper contributes (1) multi-scale HOG+SVM detection via a *HOG
//! feature pyramid* (down-sampling normalized features instead of the image)
//! and (2) a deeply pipelined FPGA accelerator reaching 60 fps on HDTV
//! frames at two scales. This crate is a facade that re-exports the
//! workspace sub-crates:
//!
//! - [`core`] — the hermetic zero-dependency substrate: seeded RNG
//!   ([`core::rng`]), minimal JSON ([`core::json`]), the property-test
//!   harness ([`core::check`](mod@core::check)), the micro-bench timer ([`core::timer`]),
//!   and the workspace-wide [`Error`] type.
//! - [`image`] — grayscale image substrate (containers, PNM I/O, resize,
//!   drawing, synthetic textures, integral images).
//! - [`hog`] — HOG feature extraction and the feature/image pyramids.
//! - [`svm`] — linear SVM training (dual coordinate descent), Platt
//!   calibration and inference.
//! - [`dataset`] — the seeded synthetic INRIA-protocol dataset.
//! - [`eval`] — ROC / AUC / EER / confusion-matrix evaluation.
//! - [`detect`] — multi-scale detectors (conventional image pyramid and the
//!   paper's feature pyramid), NMS, and the driver-assistance layer.
//! - [`hw`] — a cycle-accurate fixed-point model of the DAC'17 accelerator.
//! - [`runtime`] — the fault-tolerant, deadline-aware frame server:
//!   seeded fault injection, `Healthy → Degraded → SafeFallback`
//!   degradation, panic isolation, per-run robustness reports, and the
//!   object-safe [`runtime::Engine`] trait unifying the software and
//!   hardware-integrity runtimes.
//! - [`serve`] — the multi-tenant frame-serving daemon (`rtped-serve`):
//!   length-prefixed binary protocol over TCP, one engine per tenant
//!   behind `Box<dyn Engine>`, deadline-aware admission control, and a
//!   job journal for deterministic crash recovery.
//! - [`fleet`] — the deterministic fleet fault-campaign orchestrator
//!   (`rtped-fleet`): ≥ 1000 seeded runtime instances over a fault ×
//!   scenario × engine × deadline grid folded into byte-identical
//!   aggregates, plus a seeded wire-level chaos phase against a live
//!   `rtped-serve` daemon with journal-recovery verification.
//!
//! # Quickstart
//!
//! ```
//! use rtped::dataset::protocol::InriaProtocol;
//! use rtped::hog::params::HogParams;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A tiny, seeded dataset and the standard 64x128 HOG geometry.
//! let params = HogParams::pedestrian();
//! let dataset = InriaProtocol::builder()
//!     .train_positives(8)
//!     .train_negatives(16)
//!     .test_positives(4)
//!     .test_negatives(8)
//!     .seed(7)
//!     .build()?;
//! assert_eq!(dataset.train_positives().len(), 8);
//! assert_eq!(params.window_cells(), (8, 16));
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for full training / detection / hardware-simulation
//! walkthroughs and `crates/bench` for the harnesses that regenerate every
//! table and figure of the paper (documented in `DESIGN.md` and
//! `EXPERIMENTS.md`).

pub use rtped_core as core;
pub use rtped_dataset as dataset;
pub use rtped_detect as detect;
pub use rtped_eval as eval;
pub use rtped_fleet as fleet;
pub use rtped_hog as hog;
pub use rtped_hw as hw;
pub use rtped_image as image;
pub use rtped_runtime as runtime;
pub use rtped_serve as serve;
pub use rtped_svm as svm;

/// The workspace-wide error type (see [`core::error`]); every fallible
/// `rtped` API returns this.
pub use rtped_core::Error;
