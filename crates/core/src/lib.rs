//! Hermetic zero-dependency substrate for the `rtped` workspace.
//!
//! Real-time HOG+SVM deployments target self-contained embedded platforms
//! (the paper's ZC7020 SoC has no package manager), and the workspace
//! mirrors that posture: `cargo build --offline` must succeed on a machine
//! with an empty registry. This crate supplies the four capabilities that
//! previously came from third-party crates, each redesigned as one small,
//! documented API:
//!
//! - [`rng`]: seeded deterministic pseudo-randomness (xoshiro256++ seeded
//!   via SplitMix64) behind the [`Rng`] trait — replaces `rand`.
//! - [`json`]: a minimal JSON value type with strict parsing, canonical
//!   serialization, and [`ToJson`]/[`FromJson`] conversions — replaces
//!   `serde`/`serde_json`.
//! - [`check`](mod@check): a seeded property-testing harness with
//!   shrink-on-failure via the [`check!`](macro@check) macro — replaces
//!   `proptest`.
//! - [`timer`]: a wall-clock micro-benchmark harness for the
//!   `bench_detect` harness binary — replaces `criterion`.
//! - [`par`]: scoped-thread data-parallel primitives (order-preserving
//!   `map`/`try_map` and in-place `for_each_band`, both on one safe
//!   work-claiming loop) with an `RTPED_THREADS` override — replaces
//!   `rayon`.
//! - [`retry`]: bounded retry-with-backoff ([`retry::RetryPolicy`]) for
//!   transient IO failures.
//! - [`env`](mod@env): typed, warn-once environment-variable parsing shared by
//!   every `RTPED_*` knob (a malformed value is rejected on stderr, never
//!   silently ignored).
//! - [`wire`]: length-prefixed message framing for the serving protocol,
//!   with typed oversize/truncation errors and a clean-EOF signal.
//! - [`error`]: the workspace-wide [`Error`] type every fallible `rtped`
//!   API returns.
//!
//! Everything here is `std`-only. The `rtped` facade re-exports this crate
//! as `rtped::core`.
//!
//! # Example
//!
//! ```
//! use rtped_core::{Json, Rng, SeedRng};
//!
//! // One seed reproduces an entire experiment.
//! let mut rng = SeedRng::seed_from_u64(42);
//! let jitter = rng.gen_range(-0.06..=0.06f64);
//!
//! // Canonical, insertion-ordered JSON for artifacts on disk.
//! let meta = rtped_core::json::obj([
//!     ("format", 1u64.into()),
//!     ("jitter", jitter.into()),
//! ]);
//! assert!(meta.to_string().starts_with("{\"format\":1,"));
//! ```

pub mod check;
pub mod env;
pub mod error;
pub mod json;
pub mod par;
pub mod retry;
pub mod rng;
pub mod timer;
pub mod wire;

pub use error::Error;
pub use json::{FromJson, Json, JsonError, ToJson};
pub use rng::{Rng, SeedRng};
