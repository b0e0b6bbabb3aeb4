//! Seeded wire-level chaos against a live `rtped-serve` daemon.
//!
//! The campaign phase proves the *engines* hold up under modeled faults;
//! this phase proves the *daemon* holds up under real ones. A seeded
//! injector drives hundreds of connections, most of them hostile —
//! garbage bytes, oversized and truncated frames, bit-flipped payloads,
//! slow-trickled writes, clients that vanish mid-stream — next to clean
//! requests from a client that tries each request up to three times,
//! with no pause between tries. The invariants:
//!
//! - Every failure the client observes is **typed** (a protocol
//!   [`Response`]) or a clean close — never a hang (client sockets carry
//!   a read timeout that converts hangs into counted failures) and never
//!   a daemon panic (the daemon thread is joined and checked).
//! - After a clean drain, a **restarted** daemon replays the journal and
//!   lands in state bit-identical to an offline replica: every response
//!   recorded live, every journal-recovered pending response, and a
//!   fresh post-recovery probe frame must match the replica byte for
//!   byte. Divergences are counted and must be zero.
//!
//! The crash window (jobs journaled but never served, the exact state a
//! daemon killed mid-request leaves behind) is injected by appending job
//! lines to the journal after the drain, so recovery of in-flight work
//! is exercised deterministically on every run.
//!
//! Everything serialized into [`ChaosReport`] is either configuration,
//! derived from the seed alone, or an invariant counter that must be
//! zero — so the chaos block of `BENCH_fleet.json` is byte-identical
//! across runs even though socket interleavings are not.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use rtped_core::json::{obj, Json};
use rtped_core::rng::SeedRng;
use rtped_core::{par, wire, Error, FromJson, Rng, ToJson};
use rtped_runtime::RuntimeConfig;
use rtped_serve::{
    load_journal, replay_plans, FrameSpec, Journal, JournalEntry, JournaledJob, Request, Response,
    Server, ServerConfig, Tenant,
};

/// Client-side read timeout: converts a hung daemon into a counted,
/// typed failure instead of a stuck process. Liveness plumbing only.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// The wire-level fault injected into one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// A well-formed request through the retrying client (the control).
    Clean,
    /// A frame whose payload is not JSON at all.
    Garbage,
    /// A length header claiming more than the daemon's frame cap.
    Oversized,
    /// A frame cut short: header promises more bytes than ever arrive.
    Truncated,
    /// A valid request with one seeded bit flipped.
    BitFlip,
    /// A valid request whose client vanishes before reading the reply.
    ClientCrash,
    /// A valid request trickled out in delayed chunks.
    SlowWrites,
    /// A connection that opens and immediately dies.
    EarlyClose,
}

impl WireFault {
    /// All faults, in draw order.
    #[must_use]
    pub fn all() -> [WireFault; 8] {
        [
            WireFault::Clean,
            WireFault::Garbage,
            WireFault::Oversized,
            WireFault::Truncated,
            WireFault::BitFlip,
            WireFault::ClientCrash,
            WireFault::SlowWrites,
            WireFault::EarlyClose,
        ]
    }

    /// Stable label for the fault-mix table.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            WireFault::Clean => "clean",
            WireFault::Garbage => "garbage",
            WireFault::Oversized => "oversized",
            WireFault::Truncated => "truncated",
            WireFault::BitFlip => "bit_flip",
            WireFault::ClientCrash => "client_crash",
            WireFault::SlowWrites => "slow_writes",
            WireFault::EarlyClose => "early_close",
        }
    }
}

/// The fault drawn for connection `index` under `seed` — a pure
/// function, so the fault mix is known before a single socket opens.
#[must_use]
pub fn fault_for(seed: u64, index: usize) -> WireFault {
    let mut rng = SeedRng::seed_from_u64(seed).split(index as u64);
    WireFault::all()[rng.gen_range(0..WireFault::all().len())]
}

/// Chaos-phase configuration.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Connections to drive (faulted and clean together).
    pub connections: usize,
    /// Journaled-but-unserved jobs injected after the drain — the
    /// simulated crash window recovery must replay.
    pub crash_window_jobs: usize,
    /// Root seed for fault selection and payload mutation.
    pub seed: u64,
    /// Concurrent client workers.
    pub client_workers: usize,
    /// Daemon worker threads.
    pub server_workers: usize,
    /// Journal path (removed and recreated by the run).
    pub journal: PathBuf,
}

/// The deterministic record of one chaos phase. Only seed-derived counts
/// and must-be-zero invariants are serialized; racy observations (shed
/// counts, served totals) go to stdout, not the committed artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Connections driven.
    pub connections: usize,
    /// Connections that carried an injected fault (everything but
    /// `clean`).
    pub faulted_connections: usize,
    /// Fault mix by label, derived from the seed alone.
    pub fault_mix: BTreeMap<String, usize>,
    /// Crash-window jobs injected and recovered.
    pub crash_window_jobs: usize,
    /// Daemon panics observed (must be 0).
    pub daemon_panics: u64,
    /// Client reads that timed out (must be 0).
    pub client_hangs: u64,
    /// Responses that were not typed protocol messages where one was
    /// owed (must be 0).
    pub protocol_violations: u64,
    /// Clean requests that exhausted their retry budget (must be 0).
    pub retry_exhausted: u64,
    /// Byte-level mismatches between live, recovered, and replica
    /// responses (must be 0).
    pub divergences: u64,
    /// Whether the restarted daemon's state matched the offline replica
    /// bit for bit (must be true).
    pub post_recovery_identical: bool,
}

impl ChaosReport {
    /// Whether every invariant held.
    #[must_use]
    pub fn clean_bill(&self) -> bool {
        self.daemon_panics == 0
            && self.client_hangs == 0
            && self.protocol_violations == 0
            && self.retry_exhausted == 0
            && self.divergences == 0
            && self.post_recovery_identical
    }
}

impl ToJson for ChaosReport {
    fn to_json(&self) -> Json {
        let mix = Json::Object(
            self.fault_mix
                .iter()
                .map(|(k, v)| (k.clone(), Json::Number(*v as f64)))
                .collect(),
        );
        obj([
            ("connections", self.connections.into()),
            ("faulted_connections", self.faulted_connections.into()),
            ("fault_mix", mix),
            ("crash_window_jobs", self.crash_window_jobs.into()),
            ("daemon_panics", self.daemon_panics.into()),
            ("client_hangs", self.client_hangs.into()),
            ("protocol_violations", self.protocol_violations.into()),
            ("retry_exhausted", self.retry_exhausted.into()),
            ("divergences", self.divergences.into()),
            (
                "post_recovery_identical",
                Json::Bool(self.post_recovery_identical),
            ),
        ])
    }
}

/// Worker `w`'s tenant: every fourth worker exercises the integrity
/// engine, like the serve benchmark's fleet mix, and every eighth (among
/// those) the four-shard fleet variant — so chaos traffic exercises
/// shard quarantine and failover through the wire, not just the campaign
/// grid.
fn worker_tenant(worker: usize) -> String {
    if worker.is_multiple_of(8) {
        format!("hw4:cam-w{worker}")
    } else if worker.is_multiple_of(4) {
        format!("hw:cam-w{worker}")
    } else {
        format!("cam-w{worker}")
    }
}

fn detect_request(tenant: &str, job: &str, seed: u64) -> Request {
    Request::Detect {
        tenant: tenant.to_string(),
        job: job.to_string(),
        fault_seed: None,
        frame: FrameSpec::Synthetic {
            width: 96,
            height: 160,
            seed,
        },
    }
}

/// Runs `op` until it succeeds, at most three times, with no pause
/// between tries. Once all three fail, returns the last error.
fn try_thrice<T, E>(mut op: impl FnMut() -> Result<T, E>) -> Result<T, E> {
    op().or_else(|_| op()).or_else(|_| op())
}

fn open(addr: SocketAddr) -> Result<TcpStream, Error> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    Ok(stream)
}

fn read_response(stream: &TcpStream) -> Result<Response, Error> {
    match wire::read_frame(stream, wire::MAX_FRAME_BYTES).map_err(Error::from)? {
        Some(bytes) => Response::from_json(&Json::parse_bytes(&bytes)?),
        None => Err(Error::format("connection closed before a response")),
    }
}

fn is_timeout(err: &Error) -> bool {
    matches!(err, Error::Io(io) if matches!(
        io.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    ))
}

/// Shared mutable state the driver workers report into.
struct Observed {
    /// Live FrameResult bytes by `(tenant, job)` — the pre-restart
    /// reference the replica must reproduce.
    recorded: Mutex<BTreeMap<(String, String), String>>,
    client_hangs: AtomicU64,
    protocol_violations: AtomicU64,
    retry_exhausted: AtomicU64,
    worker_errors: Mutex<Vec<String>>,
}

impl Observed {
    fn record(&self, response: &Response) {
        if let Response::FrameResult { tenant, job, .. } = response {
            self.recorded
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(
                    (tenant.clone(), job.clone()),
                    response.to_json().to_string(),
                );
        }
    }

    fn note_failure(&self, err: &Error) {
        if is_timeout(err) {
            self.client_hangs.fetch_add(1, Ordering::Relaxed);
        } else {
            self.protocol_violations.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Drives one connection with its drawn fault. Errors bubble to the
/// worker-error list; invariant breaches land in `observed`'s counters.
fn drive_connection(
    addr: SocketAddr,
    worker: usize,
    index: usize,
    seed: u64,
    observed: &Observed,
) -> Result<(), Error> {
    let tenant = worker_tenant(worker);
    let job = format!("chaos-{index:05}");
    let mut rng = SeedRng::seed_from_u64(seed).split(index as u64);
    let fault = WireFault::all()[rng.gen_range(0..WireFault::all().len())];
    match fault {
        WireFault::Clean => {
            // The retrying client: a transient transport error is retried
            // at once (deterministic campaigns never sleep on backoff).
            let request = detect_request(&tenant, &job, index as u64);
            let outcome = try_thrice(|| {
                let stream = open(addr)?;
                wire::write_frame(&stream, request.to_json().to_string().as_bytes())?;
                read_response(&stream)
            });
            match outcome {
                // Shed is a valid typed refusal under load, not a fault.
                Ok(Response::FrameResult { .. }) | Ok(Response::Shed { .. }) => {
                    if let Ok(response) = &outcome {
                        observed.record(response);
                    }
                }
                Ok(_) => {
                    observed.protocol_violations.fetch_add(1, Ordering::Relaxed);
                }
                Err(err) => {
                    observed.retry_exhausted.fetch_add(1, Ordering::Relaxed);
                    observed.note_failure(&err);
                }
            }
        }
        WireFault::Garbage => {
            let stream = open(addr)?;
            wire::write_frame(&stream, b"][ not json at all }{")?;
            match read_response(&stream) {
                Ok(Response::Error { .. }) => {}
                Ok(_) => {
                    observed.protocol_violations.fetch_add(1, Ordering::Relaxed);
                }
                Err(err) => observed.note_failure(&err),
            }
        }
        WireFault::Oversized => {
            let mut stream = open(addr)?;
            let claim = (wire::MAX_FRAME_BYTES as u32).saturating_add(1);
            stream.write_all(&claim.to_be_bytes())?;
            stream.write_all(b"oversized")?;
            stream.flush()?;
            match read_response(&stream) {
                Ok(Response::Error { .. }) => {}
                Ok(_) => {
                    observed.protocol_violations.fetch_add(1, Ordering::Relaxed);
                }
                Err(err) => observed.note_failure(&err),
            }
        }
        WireFault::Truncated => {
            // Promise 96 bytes, deliver 12, vanish. No response is owed;
            // the daemon's survival is proven by the connections after
            // this one and the final clean drain.
            let mut stream = open(addr)?;
            stream.write_all(&96u32.to_be_bytes())?;
            stream.write_all(b"half a frame")?;
            stream.flush()?;
        }
        WireFault::BitFlip => {
            let stream = open(addr)?;
            let mut payload = detect_request(&tenant, &job, index as u64)
                .to_json()
                .to_string()
                .into_bytes();
            let byte = rng.gen_range(0..payload.len());
            let bit = rng.gen_range(0..8u32);
            payload[byte] ^= 1 << bit;
            wire::write_frame(&stream, &payload)?;
            // Any typed response is acceptable: the flip may yield a
            // parse error, a schema error, or (if it hit a benign byte)
            // a served frame — but never silence or a panic.
            match read_response(&stream) {
                Ok(response) => observed.record(&response),
                Err(err) => observed.note_failure(&err),
            }
        }
        WireFault::ClientCrash => {
            // Valid work, then the client dies before reading the reply
            // — the job may be admitted and journaled; recovery later
            // proves nothing was lost or diverged.
            let stream = open(addr)?;
            let request = detect_request(&tenant, &job, index as u64);
            wire::write_frame(&stream, request.to_json().to_string().as_bytes())?;
            drop(stream);
        }
        WireFault::SlowWrites => {
            let mut stream = open(addr)?;
            let payload = detect_request(&tenant, &job, index as u64)
                .to_json()
                .to_string()
                .into_bytes();
            stream.write_all(&(payload.len() as u32).to_be_bytes())?;
            for chunk in payload.chunks(payload.len().div_ceil(3).max(1)) {
                stream.write_all(chunk)?;
                stream.flush()?;
                std::thread::sleep(Duration::from_millis(2));
            }
            match read_response(&stream) {
                Ok(response @ (Response::FrameResult { .. } | Response::Shed { .. })) => {
                    observed.record(&response);
                }
                Ok(_) => {
                    observed.protocol_violations.fetch_add(1, Ordering::Relaxed);
                }
                Err(err) => observed.note_failure(&err),
            }
        }
        WireFault::EarlyClose => {
            let stream = open(addr)?;
            drop(stream);
        }
    }
    Ok(())
}

/// The crash-window jobs injected after the drain: journaled, never
/// served — exactly what a daemon killed mid-request leaves behind. Odd
/// entries land on the four-shard tenant with a fault seed, so recovery
/// replays quarantine-and-failover frames and the replica check proves
/// the failed-over output is bit-identical.
fn crash_window_entries(count: usize) -> Vec<JournaledJob> {
    (0..count)
        .map(|k| JournaledJob {
            tenant: if k % 2 == 0 {
                String::from("cam-w1")
            } else {
                String::from("hw4:cam-w0")
            },
            job: format!("crash-{k:03}"),
            fault_seed: Some(k as u64),
            frame: FrameSpec::Synthetic {
                width: 96,
                height: 160,
                seed: 7000 + k as u64,
            },
        })
        .collect()
}

/// The post-recovery probe served identically to the live daemon and
/// the replica — byte equality here is byte equality of engine state.
fn probe_job(tenant: &str) -> JournaledJob {
    JournaledJob {
        tenant: tenant.to_string(),
        job: String::from("probe-0"),
        fault_seed: Some(999),
        frame: FrameSpec::Synthetic {
            width: 96,
            height: 160,
            seed: 999,
        },
    }
}

/// Runs the full chaos phase: live injection, clean drain, crash-window
/// injection, journal recovery, and replica verification.
///
/// # Errors
///
/// Returns [`Error::Format`] when any invariant breaks (daemon panic,
/// client hang, untyped failure, recovery divergence) and I/O errors
/// from the harness itself verbatim.
pub fn run_chaos(config: &ChaosConfig) -> Result<ChaosReport, Error> {
    let _ = std::fs::remove_file(&config.journal);
    let runtime = RuntimeConfig::default();
    let observed = Observed {
        recorded: Mutex::new(BTreeMap::new()),
        client_hangs: AtomicU64::new(0),
        protocol_violations: AtomicU64::new(0),
        retry_exhausted: AtomicU64::new(0),
        worker_errors: Mutex::new(Vec::new()),
    };

    // Phase A: the live daemon under fire.
    let server = Server::bind(ServerConfig {
        workers: config.server_workers,
        journal: Some(config.journal.clone()),
        runtime: runtime.clone(),
        ..ServerConfig::default()
    })?;
    let addr = server.local_addr();
    let mut daemon_panics = 0u64;
    let served = std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.run());
        par::run_workers(config.client_workers, |worker| {
            let mut index = worker;
            while index < config.connections {
                if let Err(err) = drive_connection(addr, worker, index, config.seed, &observed) {
                    observed
                        .worker_errors
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(format!("connection {index}: {err}"));
                }
                index += config.client_workers.max(1);
            }
        });
        // Clean drain through the retrying client.
        let shutdown = try_thrice(|| {
            let stream = open(addr)?;
            wire::write_frame(&stream, Request::Shutdown.to_json().to_string().as_bytes())?;
            read_response(&stream)
        });
        if !matches!(shutdown, Ok(Response::ShutdownAck { .. })) {
            observed
                .worker_errors
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(String::from("clean shutdown did not ack"));
        }
        match daemon.join() {
            Ok(served) => served,
            Err(_) => {
                daemon_panics += 1;
                0
            }
        }
    });

    let errors = observed
        .worker_errors
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    if let Some(first) = errors.first() {
        return Err(Error::format(format!(
            "chaos harness failed ({} errors; first: {first})",
            errors.len()
        )));
    }
    if daemon_panics > 0 {
        return Err(Error::format("daemon panicked during chaos"));
    }

    // Phase B: inject the crash window — journaled, never served.
    let crash_jobs = crash_window_entries(config.crash_window_jobs);
    {
        let mut journal = Journal::open(&config.journal)?;
        for job in &crash_jobs {
            journal.append(&JournalEntry::Job(job.clone()))?;
        }
    }

    // Phase C: offline replica — replay the journal through fresh
    // tenants, recording every response and final state.
    let entries = load_journal(&config.journal)?;
    let plans = replay_plans(&entries);
    let mut replica: BTreeMap<String, Tenant> = BTreeMap::new();
    let mut replica_responses: BTreeMap<(String, String), String> = BTreeMap::new();
    let mut replica_pending: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (name, plan) in &plans {
        let mut tenant = Tenant::new(name, &runtime);
        for job in &plan.jobs {
            let response = tenant.serve_job(job);
            replica_responses.insert(
                (name.clone(), job.job.clone()),
                response.to_json().to_string(),
            );
        }
        replica_pending.insert(name.clone(), plan.pending.clone());
        replica.insert(name.clone(), tenant);
    }

    let mut divergences = 0u64;
    // Check 1: every response recorded live matches the replica.
    let recorded = observed
        .recorded
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    for (key, live_bytes) in &recorded {
        match replica_responses.get(key) {
            Some(replica_bytes) if replica_bytes == live_bytes => {}
            _ => divergences += 1,
        }
    }

    // Phase D: restart the daemon over the same journal; its recovered
    // state must match the replica bit for bit.
    let server2 = Server::bind(ServerConfig {
        workers: config.server_workers,
        journal: Some(config.journal.clone()),
        runtime: runtime.clone(),
        ..ServerConfig::default()
    })?;
    let addr2 = server2.local_addr();
    // Check 2: per-tenant status (engine family, health state, frames
    // served, pending recoveries) against the replica.
    for status in server2.tenants().statuses() {
        let matches = replica.get(&status.name).is_some_and(|tenant| {
            tenant.engine.kind() == status.engine
                && tenant.engine.state().label() == status.state
                && tenant.engine.frames_served() as u64 == status.served
        });
        let pending_matches = replica_pending
            .get(&status.name)
            .is_some_and(|pending| pending.len() as u64 == status.recovered);
        if !matches || !pending_matches {
            divergences += 1;
        }
    }
    let mut recovered_crash_jobs = 0usize;
    std::thread::scope(|scope| -> Result<(), Error> {
        let daemon = scope.spawn(|| server2.run());
        let result = (|| -> Result<(), Error> {
            // Check 3: journal-recovered pending responses match the
            // replica's replayed bytes.
            for (name, pending) in &replica_pending {
                if pending.is_empty() {
                    continue;
                }
                let stream = open(addr2)?;
                let request = Request::Recover {
                    tenant: name.clone(),
                };
                wire::write_frame(&stream, request.to_json().to_string().as_bytes())?;
                match read_response(&stream)? {
                    Response::Recovered { jobs, .. } => {
                        let mut ids: Vec<&str> = jobs.iter().map(|j| j.job.as_str()).collect();
                        ids.sort_unstable();
                        let mut want: Vec<&str> = pending.iter().map(String::as_str).collect();
                        want.sort_unstable();
                        if ids != want {
                            divergences += 1;
                        }
                        for job in &jobs {
                            recovered_crash_jobs += usize::from(job.job.starts_with("crash-"));
                            let key = (name.clone(), job.job.clone());
                            match replica_responses.get(&key) {
                                Some(bytes) if *bytes == job.response.to_string() => {}
                                _ => divergences += 1,
                            }
                        }
                    }
                    _ => divergences += 1,
                }
            }
            // Check 4: a fresh probe frame served by the recovered
            // daemon matches the same probe served by the replica —
            // byte-identical post-recovery engine state.
            for name in ["cam-w1", "hw4:cam-w0"] {
                let probe = probe_job(name);
                let want = replica
                    .get_mut(name)
                    .map(|tenant| tenant.serve_job(&probe).to_json().to_string());
                let stream = open(addr2)?;
                let request = Request::Detect {
                    tenant: probe.tenant.clone(),
                    job: probe.job.clone(),
                    fault_seed: probe.fault_seed,
                    frame: probe.frame.clone(),
                };
                wire::write_frame(&stream, request.to_json().to_string().as_bytes())?;
                let got = read_response(&stream)?.to_json().to_string();
                if want.as_deref() != Some(got.as_str()) {
                    divergences += 1;
                }
            }
            Ok(())
        })();
        // Always drain daemon 2, even when a check errored out.
        let shutdown = open(addr2).and_then(|stream| {
            wire::write_frame(&stream, Request::Shutdown.to_json().to_string().as_bytes())?;
            read_response(&stream)
        });
        if !matches!(shutdown, Ok(Response::ShutdownAck { .. })) {
            divergences += 1;
        }
        if daemon.join().is_err() {
            daemon_panics += 1;
        }
        result
    })?;
    let _ = std::fs::remove_file(&config.journal);

    if recovered_crash_jobs != config.crash_window_jobs {
        divergences += 1;
    }

    let mut fault_mix: BTreeMap<String, usize> = BTreeMap::new();
    for index in 0..config.connections {
        *fault_mix
            .entry(fault_for(config.seed, index).label().to_string())
            .or_insert(0) += 1;
    }
    let faulted_connections = config.connections - fault_mix.get("clean").copied().unwrap_or(0);

    let report = ChaosReport {
        connections: config.connections,
        faulted_connections,
        fault_mix,
        crash_window_jobs: config.crash_window_jobs,
        daemon_panics,
        client_hangs: observed.client_hangs.load(Ordering::Relaxed),
        protocol_violations: observed.protocol_violations.load(Ordering::Relaxed),
        retry_exhausted: observed.retry_exhausted.load(Ordering::Relaxed),
        divergences,
        post_recovery_identical: divergences == 0,
    };
    // Racy observations are stdout-only; the serialized report stays
    // byte-identical across runs.
    println!(
        "  chaos: {} connections ({} faulted), {} frames served live, {} responses recorded",
        report.connections,
        report.faulted_connections,
        served,
        recorded.len()
    );
    if !report.clean_bill() {
        return Err(Error::format(format!(
            "chaos invariants violated: panics={} hangs={} violations={} exhausted={} divergences={}",
            report.daemon_panics,
            report.client_hangs,
            report.protocol_violations,
            report.retry_exhausted,
            report.divergences
        )));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_draws_are_deterministic_and_cover_every_kind() {
        let mix_a: Vec<WireFault> = (0..64).map(|i| fault_for(9, i)).collect();
        let mix_b: Vec<WireFault> = (0..64).map(|i| fault_for(9, i)).collect();
        assert_eq!(mix_a, mix_b);
        for fault in WireFault::all() {
            assert!(
                mix_a.contains(&fault),
                "64 draws should cover {}",
                fault.label()
            );
        }
    }

    #[test]
    fn try_thrice_stops_at_the_first_ok_and_gives_up_after_three_errors() {
        let mut calls = 0;
        let first: Result<u32, u32> = try_thrice(|| {
            calls += 1;
            Ok(7)
        });
        assert_eq!((first, calls), (Ok(7), 1));

        let mut calls = 0;
        let second: Result<u32, u32> = try_thrice(|| {
            calls += 1;
            if calls == 1 {
                Err(calls)
            } else {
                Ok(calls * 10)
            }
        });
        assert_eq!((second, calls), (Ok(20), 2));

        let mut calls = 0;
        let exhausted: Result<u32, u32> = try_thrice(|| {
            calls += 1;
            Err(calls)
        });
        assert_eq!((exhausted, calls), (Err(3), 3));
    }

    #[test]
    fn chaos_smoke_holds_every_invariant() {
        let journal = std::env::temp_dir().join("rtped_fleet_chaos_unit.jsonl");
        let report = run_chaos(&ChaosConfig {
            connections: 48,
            crash_window_jobs: 4,
            seed: 11,
            client_workers: 4,
            server_workers: 2,
            journal,
        })
        .unwrap();
        assert!(report.clean_bill());
        assert_eq!(report.crash_window_jobs, 4);
        assert!(report.faulted_connections > 0);
        // The serialized block is deterministic: rebuild and compare.
        assert_eq!(
            report.to_json().to_string(),
            report.clone().to_json().to_string()
        );
    }
}
