//! Deterministic fleet fault-campaign orchestrator for the rtped stack.
//!
//! A deployed driver-assistance fleet is thousands of dashcam streams,
//! each an independent detection runtime, all expected to hold the
//! paper's deadline under sensor faults, soft errors, and infrastructure
//! failures. This crate exercises exactly that at campaign scale, in two
//! phases:
//!
//! 1. **Campaign** ([`grid`] + [`aggregate`]): a grid of fault plans ×
//!    scene scenarios × engine kinds × deadline budgets, each cell run
//!    over many seeds through [`rtped_core::par`]. Every instance is a
//!    real [`Engine`] (the same construction path `rtped-serve` uses for
//!    tenants) serving synthetic frames under a seeded
//!    [`rtped_runtime::FaultPlan`]; its canonical
//!    [`rtped_runtime::RunReport`] folds into a [`FleetAggregate`] —
//!    latency percentiles from the deterministic cost model,
//!    deadline-miss rates, degradation dwell histograms, fault-class
//!    counts, and the zero-integrity-escape invariant. The aggregate's
//!    canonical JSON is byte-identical across runs, hosts, and
//!    `RTPED_THREADS`, because every input to it is.
//! 2. **Chaos** ([`chaos`]): a seeded wire-level fault injector driven
//!    against a *live* `rtped-serve` daemon — garbage bytes, oversized
//!    and truncated frames, bit-flipped payloads, slow-trickled writes,
//!    mid-stream client crashes — next to clean requests from a client
//!    that tries each one up to three times. Every injected failure must
//!    resolve to a typed response or a journal-recovered replay; the
//!    phase then restarts the daemon from its journal and proves the
//!    recovered engine state bit-identical against an offline replica.
//!
//! The `rtped-fleet` binary runs both phases and writes the committed
//! `BENCH_fleet.json` artifact that ci.sh gates on.
//!
//! [`Engine`]: rtped_runtime::Engine
//! [`FleetAggregate`]: aggregate::FleetAggregate

pub mod aggregate;
pub mod chaos;
pub mod grid;

pub use aggregate::FleetAggregate;
pub use chaos::{run_chaos, ChaosConfig, ChaosReport};
pub use grid::{campaign, execute, CampaignScale, EngineKind, FaultKind, RunSpec, Scenario};
