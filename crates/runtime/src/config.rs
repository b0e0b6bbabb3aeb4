//! The single validated configuration path for every engine family.
//!
//! PRs 3–5 steered the runtime through three loose environment knobs —
//! `RTPED_DEADLINE_MS`, `RTPED_THREADS`, `RTPED_ECC` — each read at a
//! different layer. This module folds them into one place, mirroring
//! `DetectorBuilder` from the detect crate:
//!
//! - [`RuntimeConfig::default`] is **environment-free**: pure DAS-derived
//!   defaults (15 ms budget, default hysteresis/cost model/tracker,
//!   ambient worker pool, SECDED ECC), so library behavior never depends
//!   on ambient process state unless a caller asks for it.
//! - [`RuntimeConfigBuilder`] validates every field up front and returns
//!   [`Error::InvalidInput`] instead of panicking.
//! - [`RuntimeConfigBuilder::env_overrides`] resolves the three `RTPED_*`
//!   variables **once**, through [`rtped_core::env`]'s warn-once parsing,
//!   at construction time — library hot paths never read the
//!   environment. [`RuntimeConfig::from_env`] is the one-call version
//!   binaries use.

use rtped_core::Error;
use rtped_detect::das::DasParams;
use rtped_detect::tracker::TrackerParams;
use rtped_detect::Datapath;
use rtped_hw::integrity::ECC_ENV;
use rtped_hw::EccMode;

use crate::control::DegradationPolicy;
use crate::deadline::{CostModel, DeadlineBudget, DEADLINE_ENV};

/// Environment variable selecting the scoring datapath (`"f32"`/`"i16"`).
pub const DATAPATH_ENV: &str = "RTPED_DATAPATH";

/// Environment variable enabling the temporal incremental pyramid
/// (`"true"`/`"false"`).
pub const TEMPORAL_ENV: &str = "RTPED_TEMPORAL";

/// Everything the engine needs besides the detector.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Per-frame deadline.
    pub budget: DeadlineBudget,
    /// Escalation/recovery hysteresis.
    pub policy: DegradationPolicy,
    /// The deterministic latency model.
    pub cost_model: CostModel,
    /// Tracker used for `SafeFallback` coasting.
    pub tracker: TrackerParams,
    /// Worker-pool size for serving layers built on this config; `None`
    /// defers to the ambient [`rtped_core::par::threads`] resolution.
    pub threads: Option<usize>,
    /// ECC mode for integrity-instrumented engines.
    pub ecc: EccMode,
    /// Scoring arithmetic for detectors built on this config
    /// ([`Datapath::F32`] is the golden reference; [`Datapath::I16`]
    /// mirrors the fixed-point hardware and is ~4× faster).
    pub datapath: Datapath,
    /// Enables the temporal incremental pyramid on feature-pyramid
    /// detectors built on this config (video streams; bit-identical
    /// output, only changed rows recomputed).
    pub temporal: bool,
}

impl RuntimeConfig {
    /// A fresh builder seeded with the DAS-derived defaults.
    #[must_use]
    pub fn builder() -> RuntimeConfigBuilder {
        RuntimeConfigBuilder::new()
    }

    /// The defaults with `RTPED_DEADLINE_MS`, `RTPED_THREADS`, and
    /// `RTPED_ECC` applied as overrides — resolved exactly once, here.
    /// Malformed values warn on stderr and keep the defaults, so this
    /// constructor cannot fail.
    #[must_use]
    pub fn from_env() -> Self {
        Self::builder()
            .env_overrides()
            .build()
            // Defaults are valid and env_overrides only installs values
            // it validated, so this arm is unreachable; the fallback
            // keeps the signature infallible without a panic path.
            .unwrap_or_else(|_| Self::default())
    }

    /// The worker-pool size in force: the configured override, or the
    /// ambient [`rtped_core::par::threads`] resolution.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        self.threads.unwrap_or_else(rtped_core::par::threads)
    }
}

impl Default for RuntimeConfig {
    /// Environment-free DAS defaults: 15 ms budget (1% of the 1.5 s
    /// perception-reaction time), default hysteresis, default cost model
    /// and tracker, ambient worker pool, SECDED ECC.
    fn default() -> Self {
        Self {
            budget: DeadlineBudget::from_das(&DasParams::default()),
            policy: DegradationPolicy::default(),
            cost_model: CostModel::default(),
            tracker: TrackerParams::default(),
            threads: None,
            ecc: EccMode::Secded,
            datapath: Datapath::F32,
            temporal: false,
        }
    }
}

/// Validating builder for [`RuntimeConfig`] — the one config path.
#[derive(Debug, Clone)]
pub struct RuntimeConfigBuilder {
    deadline_ms: f64,
    policy: DegradationPolicy,
    cost_model: CostModel,
    tracker: TrackerParams,
    threads: Option<usize>,
    ecc: EccMode,
    datapath: Datapath,
    temporal: bool,
}

impl RuntimeConfigBuilder {
    fn new() -> Self {
        let defaults = RuntimeConfig::default();
        Self {
            deadline_ms: defaults.budget.frame_budget_ms,
            policy: defaults.policy,
            cost_model: defaults.cost_model,
            tracker: defaults.tracker,
            threads: defaults.threads,
            ecc: defaults.ecc,
            datapath: defaults.datapath,
            temporal: defaults.temporal,
        }
    }

    /// Sets the per-frame deadline in milliseconds (validated at
    /// [`RuntimeConfigBuilder::build`]).
    #[must_use]
    pub fn deadline_ms(mut self, ms: f64) -> Self {
        self.deadline_ms = ms;
        self
    }

    /// Sets the deadline from an existing budget.
    #[must_use]
    pub fn budget(mut self, budget: DeadlineBudget) -> Self {
        self.deadline_ms = budget.frame_budget_ms;
        self
    }

    /// Sets the escalation/recovery hysteresis.
    #[must_use]
    pub fn policy(mut self, policy: DegradationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the deterministic latency model.
    #[must_use]
    pub fn cost_model(mut self, cost_model: CostModel) -> Self {
        self.cost_model = cost_model;
        self
    }

    /// Sets the coasting tracker's parameters.
    #[must_use]
    pub fn tracker(mut self, tracker: TrackerParams) -> Self {
        self.tracker = tracker;
        self
    }

    /// Pins the worker-pool size for serving layers.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Sets the ECC mode for integrity-instrumented engines.
    #[must_use]
    pub fn ecc(mut self, ecc: EccMode) -> Self {
        self.ecc = ecc;
        self
    }

    /// Selects the scoring datapath for detectors built on this config.
    #[must_use]
    pub fn datapath(mut self, datapath: Datapath) -> Self {
        self.datapath = datapath;
        self
    }

    /// Enables or disables the temporal incremental pyramid.
    #[must_use]
    pub fn temporal(mut self, temporal: bool) -> Self {
        self.temporal = temporal;
        self
    }

    /// Applies `RTPED_DEADLINE_MS`, `RTPED_THREADS`, `RTPED_ECC`,
    /// `RTPED_DATAPATH`, and `RTPED_TEMPORAL` as
    /// overrides — the *only* place the runtime reads the environment.
    /// Each variable goes through [`rtped_core::env::typed`]; a malformed
    /// or out-of-range value warns once on stderr and keeps the builder's
    /// current setting, so a typo degrades loudly, never silently.
    #[must_use]
    pub fn env_overrides(mut self) -> Self {
        use rtped_core::env::{typed, warn_once, EnvValue};

        match typed::<f64>(DEADLINE_ENV) {
            EnvValue::Valid { value, .. } if value.is_finite() && value > 0.0 => {
                self.deadline_ms = value;
            }
            EnvValue::Valid { raw, .. } | EnvValue::Invalid { raw } => {
                warn_once(DEADLINE_ENV, &raw, &format!("{} ms", self.deadline_ms));
            }
            EnvValue::Unset => {}
        }

        match typed::<usize>(rtped_core::par::THREADS_ENV) {
            EnvValue::Valid { value, .. } if value >= 1 => {
                self.threads = Some(value.min(rtped_core::par::MAX_THREADS));
            }
            EnvValue::Valid { raw, .. } | EnvValue::Invalid { raw } => {
                warn_once(rtped_core::par::THREADS_ENV, &raw, "ambient pool size");
            }
            EnvValue::Unset => {}
        }

        match typed::<EccMode>(ECC_ENV) {
            EnvValue::Valid { value, .. } => self.ecc = value,
            EnvValue::Invalid { raw } => {
                warn_once(ECC_ENV, &raw, self.ecc.label());
            }
            EnvValue::Unset => {}
        }

        match typed::<Datapath>(DATAPATH_ENV) {
            EnvValue::Valid { value, .. } => self.datapath = value,
            EnvValue::Invalid { raw } => {
                warn_once(DATAPATH_ENV, &raw, self.datapath.as_str());
            }
            EnvValue::Unset => {}
        }

        match typed::<bool>(TEMPORAL_ENV) {
            EnvValue::Valid { value, .. } => self.temporal = value,
            EnvValue::Invalid { raw } => {
                warn_once(
                    TEMPORAL_ENV,
                    &raw,
                    if self.temporal { "true" } else { "false" },
                );
            }
            EnvValue::Unset => {}
        }

        self
    }

    /// Validates and assembles the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when the deadline is not finite
    /// and positive, the thread override is zero or above
    /// [`rtped_core::par::MAX_THREADS`], the hysteresis policy is
    /// degenerate (zero streaks, margin outside `(0, 1]`), or a cost rate
    /// is negative or non-finite.
    pub fn build(self) -> Result<RuntimeConfig, Error> {
        if !(self.deadline_ms.is_finite() && self.deadline_ms > 0.0) {
            return Err(Error::invalid_input(format!(
                "deadline must be finite and positive, got {} ms",
                self.deadline_ms
            )));
        }
        if let Some(threads) = self.threads {
            if threads == 0 || threads > rtped_core::par::MAX_THREADS {
                return Err(Error::invalid_input(format!(
                    "threads must be in 1..={}, got {threads}",
                    rtped_core::par::MAX_THREADS
                )));
            }
        }
        if self.policy.recover_after == 0 {
            return Err(Error::invalid_input("recover_after must be at least 1"));
        }
        if !(self.policy.recover_margin > 0.0 && self.policy.recover_margin <= 1.0) {
            return Err(Error::invalid_input(format!(
                "recover_margin must be in (0, 1], got {}",
                self.policy.recover_margin
            )));
        }
        if self.policy.max_consecutive_errors == 0 {
            return Err(Error::invalid_input(
                "max_consecutive_errors must be at least 1",
            ));
        }
        for (name, rate) in [
            (
                "extract_ms_per_megapixel",
                self.cost_model.extract_ms_per_megapixel,
            ),
            (
                "scan_ms_per_kilowindow",
                self.cost_model.scan_ms_per_kilowindow,
            ),
        ] {
            if !(rate.is_finite() && rate >= 0.0) {
                return Err(Error::invalid_input(format!(
                    "cost rate {name} must be finite and non-negative, got {rate}"
                )));
            }
        }
        Ok(RuntimeConfig {
            budget: DeadlineBudget::from_ms(self.deadline_ms),
            policy: self.policy,
            cost_model: self.cost_model,
            tracker: self.tracker,
            threads: self.threads,
            ecc: self.ecc,
            datapath: self.datapath,
            temporal: self.temporal,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_environment_free_das_derivation() {
        let config = RuntimeConfig::default();
        assert!((config.budget.frame_budget_ms - 15.0).abs() < 1e-12);
        assert_eq!(config.threads, None);
        assert_eq!(config.ecc, EccMode::Secded);
        assert_eq!(config.datapath, Datapath::F32);
        assert!(!config.temporal);
    }

    #[test]
    fn builder_applies_every_knob() {
        let config = RuntimeConfig::builder()
            .deadline_ms(8.0)
            .threads(4)
            .ecc(EccMode::Off)
            .datapath(Datapath::I16)
            .temporal(true)
            .policy(DegradationPolicy {
                recover_after: 2,
                recover_margin: 0.5,
                max_consecutive_errors: 7,
            })
            .build()
            .unwrap();
        assert!((config.budget.frame_budget_ms - 8.0).abs() < 1e-12);
        assert_eq!(config.threads, Some(4));
        assert_eq!(config.effective_threads(), 4);
        assert_eq!(config.ecc, EccMode::Off);
        assert_eq!(config.policy.recover_after, 2);
        assert_eq!(config.datapath, Datapath::I16);
        assert!(config.temporal);
    }

    #[test]
    fn invalid_settings_are_typed_errors_not_panics() {
        for (label, builder) in [
            ("deadline", RuntimeConfig::builder().deadline_ms(0.0)),
            (
                "deadline-nan",
                RuntimeConfig::builder().deadline_ms(f64::NAN),
            ),
            ("threads", RuntimeConfig::builder().threads(0)),
            (
                "threads-high",
                RuntimeConfig::builder().threads(rtped_core::par::MAX_THREADS + 1),
            ),
            (
                "margin",
                RuntimeConfig::builder().policy(DegradationPolicy {
                    recover_margin: 1.5,
                    ..DegradationPolicy::default()
                }),
            ),
            (
                "cost",
                RuntimeConfig::builder().cost_model(CostModel {
                    extract_ms_per_megapixel: -1.0,
                    ..CostModel::default()
                }),
            ),
        ] {
            let err = builder.build().expect_err(label);
            assert!(matches!(err, Error::InvalidInput(_)), "{label}: {err}");
        }
    }

    #[test]
    fn env_overrides_resolve_once_at_construction() {
        // Serialized env mutation: every test that sets a variable takes
        // the crate-wide lock.
        let _guard = crate::test_env::lock();
        std::env::set_var(DEADLINE_ENV, "7.5");
        std::env::set_var(rtped_core::par::THREADS_ENV, "3");
        std::env::set_var(ECC_ENV, "off");
        std::env::set_var(DATAPATH_ENV, "i16");
        std::env::set_var(TEMPORAL_ENV, "true");
        let config = RuntimeConfig::from_env();
        assert!((config.budget.frame_budget_ms - 7.5).abs() < 1e-12);
        assert_eq!(config.threads, Some(3));
        assert_eq!(config.ecc, EccMode::Off);
        assert_eq!(config.datapath, Datapath::I16);
        assert!(config.temporal);

        // Malformed values keep the defaults (warn-once on stderr).
        std::env::set_var(DEADLINE_ENV, "-2");
        std::env::set_var(rtped_core::par::THREADS_ENV, "many");
        std::env::set_var(ECC_ENV, "tmr");
        std::env::set_var(DATAPATH_ENV, "i8");
        std::env::set_var(TEMPORAL_ENV, "maybe");
        let fallback = RuntimeConfig::from_env();
        assert!((fallback.budget.frame_budget_ms - 15.0).abs() < 1e-12);
        assert_eq!(fallback.threads, None);
        assert_eq!(fallback.ecc, EccMode::Secded);
        assert_eq!(fallback.datapath, Datapath::F32);
        assert!(!fallback.temporal);

        // An unparsable deadline keeps the default too.
        std::env::set_var(DEADLINE_ENV, "not-a-number");
        let unparsable = RuntimeConfig::from_env();
        assert!((unparsable.budget.frame_budget_ms - 15.0).abs() < 1e-12);

        std::env::remove_var(DEADLINE_ENV);
        std::env::remove_var(rtped_core::par::THREADS_ENV);
        std::env::remove_var(ECC_ENV);
        std::env::remove_var(DATAPATH_ENV);
        std::env::remove_var(TEMPORAL_ENV);

        // With the environment clean, from_env is exactly the defaults.
        let clean = RuntimeConfig::from_env();
        assert!((clean.budget.frame_budget_ms - 15.0).abs() < 1e-12);
        assert_eq!(clean.threads, None);
    }
}
