//! The campaign grid: every cell is a fully specified runtime instance.
//!
//! A [`RunSpec`] pins everything that can influence a run — fault plan,
//! scene scenario, engine kind (family × datapath × ECC), deadline
//! budget, frame count, and seed — so executing it is a pure function.
//! Engines come from [`rtped_serve::build_engine`], the same constructor
//! the daemon uses for tenants; a campaign instance and a served tenant
//! with the same config are therefore the *same* engine, and conclusions
//! transfer.

use rtped_core::rng::SeedRng;
use rtped_core::{par, Error};
use rtped_detect::Datapath;
use rtped_hw::EccMode;
use rtped_image::GrayImage;
use rtped_runtime::{FaultPlan, RunReport};
use rtped_serve::{build_engine, FrameSpec, HW_TENANT_PREFIX};

/// Which fault plan a cell injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Clean frames, on time.
    Clean,
    /// The controller-acceptance stress mix: corruption, dropouts,
    /// truncations, delays, periodic worker kills.
    Stress,
    /// Radiation-style soft errors at 2% per frame, exercising the
    /// integrity layer's ECC/lockstep machinery.
    SoftErrors,
    /// A heavy soft-error storm (50% of frames struck, double-bit upsets
    /// included), exercising shard quarantine and bit-identical failover
    /// in the sharded engine kinds.
    ShardStorm,
}

impl FaultKind {
    /// Stable label for aggregation keys.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Clean => "clean",
            FaultKind::Stress => "stress",
            FaultKind::SoftErrors => "soft_errors",
            FaultKind::ShardStorm => "shard_storm",
        }
    }

    /// The seeded plan this kind injects.
    #[must_use]
    pub fn plan(self, seed: u64) -> FaultPlan {
        match self {
            FaultKind::Clean => FaultPlan {
                seed,
                ..FaultPlan::none()
            },
            FaultKind::Stress => FaultPlan::stress(seed),
            FaultKind::SoftErrors => FaultPlan::soft_errors(seed, 0.02),
            FaultKind::ShardStorm => FaultPlan::soft_errors(seed, 0.5),
        }
    }
}

/// A scene scenario: frame geometry plus a pattern-seed stream, standing
/// in for qualitatively different dashcam footage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// Stable label for aggregation keys.
    pub name: &'static str,
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Base seed the scenario's frame patterns derive from.
    pub pattern_seed: u64,
}

/// The three fleet scenarios. Geometries stay at or above the serve
/// daemon's 96×160 reference frame so the two-scale detector always has
/// room for both pyramid levels.
#[must_use]
pub fn scenarios() -> [Scenario; 3] {
    [
        Scenario {
            name: "urban",
            width: 96,
            height: 160,
            pattern_seed: 0x0B51,
        },
        Scenario {
            name: "highway",
            width: 128,
            height: 160,
            pattern_seed: 0x0B52,
        },
        Scenario {
            name: "night",
            width: 96,
            height: 192,
            pattern_seed: 0x0B53,
        },
    ]
}

/// Engine family × datapath × ECC — the axes that change *what serves
/// the frame* rather than what is thrown at it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Software runtime, f32 golden-reference scoring.
    SoftwareF32,
    /// Software runtime, i16 fixed-point scoring.
    SoftwareI16,
    /// Integrity-instrumented accelerator model with SECDED ECC.
    IntegritySecded,
    /// Integrity-instrumented accelerator model with ECC off — the
    /// pre-integrity baseline, where soft errors land unprotected.
    IntegrityEccOff,
    /// Two-shard fleet with SECDED ECC, quarantine, and failover.
    IntegrityShard2,
    /// Four-shard fleet with SECDED ECC, quarantine, and failover.
    IntegrityShard4,
}

impl EngineKind {
    /// All engine kinds, in grid order.
    #[must_use]
    pub fn all() -> [EngineKind; 6] {
        [
            EngineKind::SoftwareF32,
            EngineKind::SoftwareI16,
            EngineKind::IntegritySecded,
            EngineKind::IntegrityEccOff,
            EngineKind::IntegrityShard2,
            EngineKind::IntegrityShard4,
        ]
    }

    /// Stable label for aggregation keys.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::SoftwareF32 => "software_f32",
            EngineKind::SoftwareI16 => "software_i16",
            EngineKind::IntegritySecded => "integrity_secded",
            EngineKind::IntegrityEccOff => "integrity_ecc_off",
            EngineKind::IntegrityShard2 => "integrity_shard2",
            EngineKind::IntegrityShard4 => "integrity_shard4",
        }
    }

    /// Tenant name selecting this family through
    /// [`rtped_serve::build_engine`].
    #[must_use]
    pub fn tenant_name(self) -> String {
        match self {
            EngineKind::SoftwareF32 | EngineKind::SoftwareI16 => String::from("cam-fleet"),
            EngineKind::IntegritySecded | EngineKind::IntegrityEccOff => {
                format!("{HW_TENANT_PREFIX}cam-fleet")
            }
            EngineKind::IntegrityShard2 => String::from("hw2:cam-fleet"),
            EngineKind::IntegrityShard4 => String::from("hw4:cam-fleet"),
        }
    }

    /// The scoring datapath this kind runs.
    #[must_use]
    pub fn datapath(self) -> Datapath {
        match self {
            EngineKind::SoftwareI16 => Datapath::I16,
            _ => Datapath::F32,
        }
    }

    /// The ECC mode this kind runs.
    #[must_use]
    pub fn ecc(self) -> EccMode {
        match self {
            EngineKind::IntegrityEccOff => EccMode::Off,
            _ => EccMode::Secded,
        }
    }
}

/// One fully specified campaign instance.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Fault plan kind.
    pub fault: FaultKind,
    /// Scene scenario.
    pub scenario: Scenario,
    /// Engine kind.
    pub engine: EngineKind,
    /// Per-frame deadline in milliseconds.
    pub budget_ms: f64,
    /// Frames this instance serves.
    pub frames: usize,
    /// Root seed: drives both the fault plan and the frame patterns.
    pub seed: u64,
}

impl RunSpec {
    /// Renders this instance's frame sequence: deterministic synthetic
    /// frames whose per-frame pattern seeds come from a split of the
    /// run seed, so no two runs (or frames) share a pattern stream.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if the scenario geometry is
    /// degenerate (it never is for the built-in scenarios).
    pub fn render_frames(&self) -> Result<Vec<GrayImage>, Error> {
        let rng = SeedRng::seed_from_u64(self.seed).split(self.scenario.pattern_seed);
        (0..self.frames)
            .map(|index| {
                use rtped_core::Rng;
                let mut stream = rng.split(index as u64);
                FrameSpec::Synthetic {
                    width: self.scenario.width,
                    height: self.scenario.height,
                    seed: stream.next_u64(),
                }
                .render()
            })
            .collect()
    }

    /// Executes the instance: builds the engine through the serve-layer
    /// constructor, serves every frame under the seeded plan, and
    /// returns the canonical run report.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for an invalid budget or
    /// geometry.
    pub fn run(&self) -> Result<RunReport, Error> {
        let config = rtped_runtime::RuntimeConfig::builder()
            .deadline_ms(self.budget_ms)
            .datapath(self.engine.datapath())
            .ecc(self.engine.ecc())
            .build()?;
        let frames = self.render_frames()?;
        let mut engine = build_engine(&self.engine.tenant_name(), &config);
        Ok(engine.run(&frames, &self.fault.plan(self.seed)))
    }
}

/// How large a campaign to lay out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignScale {
    /// CI smoke: a handful of cells, seconds of wall clock.
    Quick,
    /// The acceptance campaign: ≥ 1000 instances over the full grid.
    Full,
}

/// Lays out the campaign grid for `scale`, in deterministic order.
///
/// Full scale: 4 faults × 3 scenarios × 6 engines × 2 budgets × 14 seeds
/// = 2016 instances of 12 frames each. Quick scale: 4 faults × 1
/// scenario × 6 engines × 1 budget × 2 seeds = 48 instances of 6 frames.
#[must_use]
pub fn campaign(scale: CampaignScale) -> Vec<RunSpec> {
    let (scenario_count, budgets, seeds, frames): (usize, &[f64], u64, usize) = match scale {
        CampaignScale::Quick => (1, &[15.0], 2, 6),
        CampaignScale::Full => (3, &[15.0, 8.0], 14, 12),
    };
    let mut specs = Vec::new();
    for fault in [
        FaultKind::Clean,
        FaultKind::Stress,
        FaultKind::SoftErrors,
        FaultKind::ShardStorm,
    ] {
        for scenario in scenarios().into_iter().take(scenario_count) {
            for engine in EngineKind::all() {
                for &budget_ms in budgets {
                    for seed in 0..seeds {
                        specs.push(RunSpec {
                            fault,
                            scenario,
                            engine,
                            budget_ms,
                            frames,
                            // Decorrelate cells: every cell gets its own
                            // seed block, every instance its own seed.
                            seed: seed
                                + 100 * scenario.pattern_seed
                                + 10_000 * (engine.label().len() as u64)
                                + 1_000_000 * (fault.label().len() as u64),
                        });
                    }
                }
            }
        }
    }
    specs
}

/// Executes `specs` across `threads` workers (ambient
/// [`par::threads`] resolution when `None`), preserving spec order in
/// the output — which is what makes downstream aggregation independent
/// of the thread count.
///
/// # Errors
///
/// Returns [`Error::Format`] if a worker panicked (wrapping the
/// [`par::MapPanic`] report) and any spec-execution error verbatim.
pub fn execute(specs: &[RunSpec], threads: Option<usize>) -> Result<Vec<RunReport>, Error> {
    let threads = threads.unwrap_or_else(par::threads);
    let results = par::try_map_with_threads(specs, threads, RunSpec::run)
        .map_err(|panic| Error::format(format!("campaign worker panicked: {panic}")))?;
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_layout_is_deterministic_and_full_scale_clears_1000() {
        let quick = campaign(CampaignScale::Quick);
        assert_eq!(quick.len(), 48);
        assert_eq!(quick, campaign(CampaignScale::Quick));
        let full = campaign(CampaignScale::Full);
        assert_eq!(full.len(), 2016);
        assert!(full.len() >= 1000);
        // Within a grid cell (fault/scenario/engine/budget) every
        // instance seed is unique: no two runs share fault and frame
        // streams.
        let mut seeds: Vec<_> = full
            .iter()
            .map(|s| {
                let cell = (s.fault.label(), s.scenario.name, s.engine.label());
                (cell, s.budget_ms.to_bits(), s.seed)
            })
            .collect();
        seeds.sort();
        let before = seeds.len();
        seeds.dedup();
        assert_eq!(seeds.len(), before);
    }

    #[test]
    fn run_spec_execution_is_reproducible() {
        let spec = RunSpec {
            fault: FaultKind::Stress,
            scenario: scenarios()[0],
            engine: EngineKind::SoftwareI16,
            budget_ms: 15.0,
            frames: 4,
            seed: 3,
        };
        use rtped_core::ToJson;
        let a = spec.run().unwrap().to_json().to_string();
        let b = spec.run().unwrap().to_json().to_string();
        assert_eq!(a, b);
    }

    #[test]
    fn shard_kinds_reach_the_sharded_engine_and_survive_storms() {
        use rtped_core::ToJson;
        let spec = RunSpec {
            fault: FaultKind::ShardStorm,
            scenario: scenarios()[0],
            engine: EngineKind::IntegrityShard4,
            budget_ms: 15.0,
            frames: 6,
            seed: 11,
        };
        let report = spec.run().unwrap();
        let integrity = report.integrity.as_ref().expect("integrity report");
        // The storm's double-bit upsets must surface as quarantines (and
        // failovers), never as silent escapes.
        assert!(integrity.shard_quarantines > 0, "storm never quarantined");
        assert!(integrity.shard_failovers >= integrity.shard_quarantines);
        let payload = report.to_json().to_string();
        assert!(payload.contains("\"shards\""), "report lacks shard block");
    }

    #[test]
    fn engine_kinds_map_to_families() {
        assert!(EngineKind::IntegritySecded
            .tenant_name()
            .starts_with(HW_TENANT_PREFIX));
        assert!(!EngineKind::SoftwareF32
            .tenant_name()
            .starts_with(HW_TENANT_PREFIX));
        assert_eq!(EngineKind::SoftwareI16.datapath(), Datapath::I16);
        assert_eq!(EngineKind::IntegrityEccOff.ecc(), EccMode::Off);
    }
}
