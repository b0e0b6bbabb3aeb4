//! Per-tenant engines and the sharded tenant map.
//!
//! Each tenant (one dashcam stream) owns a private [`Engine`] — its own
//! degradation ladder, tracker, and frame history — plus its admission
//! controller and any journal-recovered responses awaiting pickup. The
//! daemon hosts heterogeneous tenants behind `Box<dyn Engine>`: names
//! prefixed `hw:` get the cycle-accurate [`IntegrityRuntime`], all
//! others the software [`Runtime`].
//!
//! Tenants live in a fixed set of mutex-guarded shards keyed by an
//! FNV-1a hash of the name, so connections serving different tenants
//! proceed concurrently while all traffic for one tenant serializes —
//! which is exactly what keeps a tenant's engine state (and therefore
//! journal replay) deterministic.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use rtped_core::rng::SeedRng;
use rtped_core::Rng;
use rtped_detect::{DetectorConfig, FeaturePyramidDetector};
use rtped_hw::{AcceleratorConfig, ShardConfig, ShardGeometry};
use rtped_runtime::{Engine, FaultPlan, IntegrityRuntime, Runtime, RuntimeConfig};
use rtped_svm::LinearSvm;

use crate::admission::{Admission, Verdict};
use crate::journal::JournaledJob;
use crate::protocol::{RecoveredJob, Response, TenantStatus};

/// Tenant names with this prefix are served by the hardware-integrity
/// engine; everything else by the software runtime. `hwN:` (N ∈ 1..=16,
/// e.g. `hw4:cam-1`) selects the N-shard fleet variant with quarantine
/// and bit-identical failover.
pub const HW_TENANT_PREFIX: &str = "hw:";

/// Default cap on distinct tenants the daemon will lazily create
/// (`--max-tenants`).
pub const DEFAULT_MAX_TENANTS: u64 = 256;

/// Parses a hardware tenant name: `Some(None)` for the plain `hw:`
/// single-instance engine, `Some(Some(n))` for the `hwN:` fleet with
/// `n` shards, `None` for software tenants — including malformed
/// `hw…:` shard counts (zero, non-numeric, above 16), which fall back
/// to the software engine instead of panicking on untrusted names.
#[must_use]
pub fn hw_shard_count(name: &str) -> Option<Option<usize>> {
    let rest = name.strip_prefix("hw")?;
    let digits = &rest[..rest.find(':')?];
    if digits.is_empty() {
        return Some(None);
    }
    let shards = digits.parse::<usize>().ok()?;
    (1..=16).contains(&shards).then_some(Some(shards))
}

/// The deterministic pseudo-random model every engine loads: serving
/// cost does not depend on the weights' values, and a fixed model is
/// what makes two daemon processes (or a daemon and its journal replay)
/// produce bit-identical records.
fn pseudo_model(dim: usize) -> LinearSvm {
    let mut rng = SeedRng::seed_from_u64(0x000D_AC17);
    let weights: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..=1.0)).collect();
    LinearSvm::new(weights, -0.5)
}

/// Builds the engine for `name` under the daemon's runtime config.
#[must_use]
pub fn build_engine(name: &str, config: &RuntimeConfig) -> Box<dyn Engine> {
    // Software tenants honour the daemon-wide datapath/temporal knobs
    // (RTPED_DATAPATH / RTPED_TEMPORAL via RuntimeConfig::from_env).
    let detector_config = DetectorConfig {
        datapath: config.datapath,
        temporal: config.temporal,
        ..DetectorConfig::two_scale()
    };
    let dim = detector_config.params.cell_descriptor_len();
    if let Some(shards) = hw_shard_count(name) {
        let accel = AcceleratorConfig {
            scales: vec![1.0],
            ..AcceleratorConfig::default()
        };
        let runtime = IntegrityRuntime::new(pseudo_model(dim), accel, config);
        Box::new(
            match shards.and_then(|n| ShardConfig::new(n, ShardGeometry::paper()).ok()) {
                // hw_shard_count only admits 1..=16, so the config always
                // validates; the `None` arm doubles as the safety net.
                Some(config) => runtime.with_sharding(config),
                None => runtime,
            },
        )
    } else {
        Box::new(Runtime::with_config(
            FeaturePyramidDetector::new(pseudo_model(dim), detector_config),
            config.clone(),
        ))
    }
}

/// One tenant's serving state.
pub struct Tenant {
    /// The tenant's engine.
    pub engine: Box<dyn Engine>,
    /// The tenant's admission controller.
    pub admission: Admission,
    /// Journal-recovered responses not yet fetched via `recover`.
    pub recovered: Vec<RecoveredJob>,
}

impl Tenant {
    /// Creates a fresh tenant named `name` under `config`.
    #[must_use]
    pub fn new(name: &str, config: &RuntimeConfig) -> Self {
        Tenant {
            engine: build_engine(name, config),
            admission: Admission::new(config.budget),
            recovered: Vec::new(),
        }
    }

    /// Serves one (already admitted) job through the engine. Replay and
    /// live traffic share this path, which is what makes recovered
    /// responses bit-identical to the ones the dead daemon would have
    /// sent.
    pub fn serve_job(&mut self, job: &JournaledJob) -> Response {
        let image = match job.frame.render() {
            Ok(image) => image,
            Err(err) => {
                return Response::Error {
                    message: err.to_string(),
                }
            }
        };
        let plan = match job.fault_seed {
            Some(seed) => {
                let mut plan = FaultPlan::stress(seed);
                if self.engine.kind() == "integrity" {
                    // Integrity engines also take radiation-style soft
                    // errors, so a wire-level fault seed exercises ECC,
                    // lockstep, and (on hwN: tenants) shard quarantine
                    // and bit-identical failover.
                    plan.soft_error_rate = 0.5;
                }
                plan
            }
            None => FaultPlan::none(),
        };
        let record = self.engine.serve_frame(&image, &plan);
        Response::FrameResult {
            tenant: job.tenant.clone(),
            job: job.job.clone(),
            engine: self.engine.kind().to_string(),
            record,
        }
    }

    fn status(&self, name: &str) -> TenantStatus {
        TenantStatus {
            name: name.to_string(),
            engine: self.engine.kind().to_string(),
            state: self.engine.state().label(),
            served: self.engine.frames_served() as u64,
            shed: self.admission.shed_count(),
            recovered: self.recovered.len() as u64,
        }
    }
}

/// 64-bit FNV-1a — the repo-standard tiny string hash; shard choice must
/// be stable across restarts so replay lands tenants on the same shards.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The daemon's tenant registry: fixed shards, lazily created tenants,
/// bounded population.
pub struct TenantMap {
    shards: Vec<Mutex<BTreeMap<String, Tenant>>>,
    config: RuntimeConfig,
    max_tenants: u64,
    tenant_count: AtomicU64,
}

impl TenantMap {
    /// Creates an empty map with `shards` mutex-guarded shards (clamped
    /// to at least one) and the default [`DEFAULT_MAX_TENANTS`] cap.
    #[must_use]
    pub fn new(shards: usize, config: RuntimeConfig) -> Self {
        let shards = shards.max(1);
        TenantMap {
            shards: (0..shards).map(|_| Mutex::new(BTreeMap::new())).collect(),
            config,
            max_tenants: DEFAULT_MAX_TENANTS,
            tenant_count: AtomicU64::new(0),
        }
    }

    /// Replaces the tenant cap (clamped to at least one). Each tenant
    /// owns a full engine — trackers, ring buffers, frame history — so
    /// an unbounded lazily-populated map would let a many-tenant client
    /// exhaust daemon memory; past the cap, new names are refused with a
    /// typed `rejected` response instead.
    #[must_use]
    pub fn with_max_tenants(mut self, max_tenants: u64) -> Self {
        self.max_tenants = max_tenants.max(1);
        self
    }

    /// The runtime config tenants are built from.
    #[must_use]
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The tenant cap in force.
    #[must_use]
    pub fn max_tenants(&self) -> u64 {
        self.max_tenants
    }

    /// Distinct tenants currently materialized.
    #[must_use]
    pub fn tenant_count(&self) -> u64 {
        self.tenant_count.load(Ordering::SeqCst)
    }

    fn shard(&self, name: &str) -> &Mutex<BTreeMap<String, Tenant>> {
        let index = (fnv1a(name.as_bytes()) % self.shards.len() as u64) as usize;
        &self.shards[index]
    }

    /// Runs `f` with exclusive access to tenant `name`, creating the
    /// tenant on first touch — unconditionally, cap notwithstanding.
    /// Journal replay uses this path (the journal's population was
    /// admitted by the dead daemon); live request paths must go through
    /// [`TenantMap::try_with_tenant`] instead.
    pub fn with_tenant<T>(&self, name: &str, f: impl FnOnce(&mut Tenant) -> T) -> T {
        let mut shard = self
            .shard(name)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let tenant = match shard.entry(name.to_string()) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(entry) => {
                self.tenant_count.fetch_add(1, Ordering::SeqCst);
                entry.insert(Tenant::new(name, &self.config))
            }
        };
        f(tenant)
    }

    /// [`TenantMap::with_tenant`] for live traffic: an existing tenant
    /// is always served, but creating a new one past the cap fails with
    /// `None` — the caller turns that into the typed `rejected`
    /// response. The slot is reserved with a compare-exchange before the
    /// engine is built, so concurrent first touches on different shards
    /// cannot overshoot the cap.
    pub fn try_with_tenant<T>(&self, name: &str, f: impl FnOnce(&mut Tenant) -> T) -> Option<T> {
        let mut shard = self
            .shard(name)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let tenant = match shard.entry(name.to_string()) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(entry) => {
                let admitted = self
                    .tenant_count
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |count| {
                        (count < self.max_tenants).then_some(count + 1)
                    })
                    .is_ok();
                if !admitted {
                    return None;
                }
                entry.insert(Tenant::new(name, &self.config))
            }
        };
        Some(f(tenant))
    }

    /// Admission + serve for one live request: assesses the queue depth,
    /// journals nothing (the caller owns journaling), and returns either
    /// the shed response or the served one via `serve`.
    pub fn assess(&self, name: &str, queued_ahead: usize) -> Verdict {
        self.with_tenant(name, |tenant| tenant.admission.assess(queued_ahead).0)
    }

    /// Snapshot of every tenant's counters, sorted by name.
    #[must_use]
    pub fn statuses(&self) -> Vec<TenantStatus> {
        let mut all = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for (name, tenant) in shard.iter() {
                all.push(tenant.status(name));
            }
        }
        all.sort_by(|a, b| a.name.cmp(&b.name));
        all
    }

    /// Total frames served across all tenants.
    #[must_use]
    pub fn total_served(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .values()
                    .map(|t| t.engine.frames_served() as u64)
                    .sum::<u64>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::FrameSpec;

    fn detect_job(tenant: &str, job: &str, seed: u64) -> JournaledJob {
        JournaledJob {
            tenant: tenant.into(),
            job: job.into(),
            fault_seed: None,
            frame: FrameSpec::Synthetic {
                width: 96,
                height: 160,
                seed,
            },
        }
    }

    #[test]
    fn tenant_prefix_selects_the_engine_family() {
        let config = RuntimeConfig::default();
        assert_eq!(build_engine("cam-1", &config).kind(), "software");
        assert_eq!(build_engine("hw:cam-1", &config).kind(), "integrity");
    }

    #[test]
    fn serving_the_same_jobs_twice_is_bit_identical() {
        let config = RuntimeConfig::default();
        let serve_all = || {
            let mut tenant = Tenant::new("cam-1", &config);
            (0..4)
                .map(|i| {
                    use rtped_core::ToJson;
                    tenant
                        .serve_job(&detect_job("cam-1", &format!("job-{i}"), i))
                        .to_json()
                        .to_string()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(serve_all(), serve_all());
    }

    #[test]
    fn datapath_and_temporal_knobs_reach_software_tenants() {
        use rtped_detect::Datapath;
        let config = RuntimeConfig::builder()
            .datapath(Datapath::I16)
            .temporal(true)
            .build()
            .unwrap();
        // The i16/temporal engine must serve repeated frames and stay
        // deterministic like the default one.
        let mut tenant = Tenant::new("cam-1", &config);
        use rtped_core::ToJson;
        let boxes = |payload: String| {
            let at = payload.find("\"boxes\"").expect("payload has boxes");
            payload[at..].to_string()
        };
        let a = boxes(
            tenant
                .serve_job(&detect_job("cam-1", "a", 7))
                .to_json()
                .to_string(),
        );
        let b = boxes(
            tenant
                .serve_job(&detect_job("cam-1", "b", 7))
                .to_json()
                .to_string(),
        );
        let c = boxes(
            tenant
                .serve_job(&detect_job("cam-1", "c", 8))
                .to_json()
                .to_string(),
        );
        // Same synthetic frame twice: temporal cache reuse must not change
        // the detections; a different frame must be allowed to.
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn map_creates_tenants_lazily_and_counts_them() {
        let map = TenantMap::new(4, RuntimeConfig::default());
        map.with_tenant("cam-1", |tenant| {
            tenant.serve_job(&detect_job("cam-1", "a", 1));
        });
        map.with_tenant("hw:cam-2", |tenant| {
            tenant.serve_job(&detect_job("hw:cam-2", "b", 2));
        });
        let statuses = map.statuses();
        assert_eq!(statuses.len(), 2);
        assert_eq!(statuses[0].name, "cam-1");
        assert_eq!(statuses[0].engine, "software");
        assert_eq!(statuses[1].name, "hw:cam-2");
        assert_eq!(statuses[1].engine, "integrity");
        assert_eq!(map.total_served(), 2);
        assert_eq!(map.tenant_count(), 2);
        assert_eq!(map.max_tenants(), DEFAULT_MAX_TENANTS);
    }

    #[test]
    fn hw_shard_count_parses_tenant_names() {
        assert_eq!(hw_shard_count("cam-1"), None);
        assert_eq!(hw_shard_count("hwx:cam-1"), None);
        assert_eq!(hw_shard_count("hw0:cam-1"), None);
        assert_eq!(hw_shard_count("hw17:cam-1"), None);
        assert_eq!(hw_shard_count("hw4cam-1"), None);
        assert_eq!(hw_shard_count("hw:cam-1"), Some(None));
        assert_eq!(hw_shard_count("hw1:cam-1"), Some(Some(1)));
        assert_eq!(hw_shard_count("hw4:cam-1"), Some(Some(4)));
        assert_eq!(hw_shard_count("hw16:cam-1"), Some(Some(16)));
    }

    #[test]
    fn sharded_hw_tenants_serve_bit_identically_to_single_instance() {
        let config = RuntimeConfig::default();
        assert_eq!(build_engine("hw4:cam-1", &config).kind(), "integrity");
        let serve_all = |name: &str| {
            let mut tenant = Tenant::new(name, &config);
            (0..3)
                .map(|i| {
                    use rtped_core::ToJson;
                    let mut payload = tenant
                        .serve_job(&detect_job(name, &format!("job-{i}"), i))
                        .to_json()
                        .to_string();
                    // The tenant name itself appears in the payload;
                    // compare everything after it.
                    payload = payload.replace(name, "<tenant>");
                    payload
                })
                .collect::<Vec<_>>()
        };
        // Clean frames banded over 4 shards must match the 1-shard and
        // plain single-instance engines byte for byte.
        assert_eq!(serve_all("hw:cam-1"), serve_all("hw4:cam-1"));
        assert_eq!(serve_all("hw1:cam-1"), serve_all("hw8:cam-1"));
    }

    #[test]
    fn try_with_tenant_enforces_the_cap_for_new_names_only() {
        let map = TenantMap::new(4, RuntimeConfig::default()).with_max_tenants(2);
        assert_eq!(map.max_tenants(), 2);
        assert!(map.try_with_tenant("cam-1", |_| ()).is_some());
        assert!(map.try_with_tenant("cam-2", |_| ()).is_some());
        // At the cap: a new name is refused, existing names still serve.
        assert!(map.try_with_tenant("cam-3", |_| ()).is_none());
        assert!(map.try_with_tenant("cam-1", |_| ()).is_some());
        assert_eq!(map.tenant_count(), 2);
        // The unconditional path (journal replay) still admits, and the
        // count tracks it so capacity accounting stays exact.
        map.with_tenant("cam-replayed", |_| ());
        assert_eq!(map.tenant_count(), 3);
        assert!(map.try_with_tenant("cam-4", |_| ()).is_none());
    }
}
