//! `daemon_mixed`: an open loop of seeded requests over two persistent
//! connections to an in-process `rtped-serve` daemon with its journal on.

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::path::{Path, PathBuf};

use rtped_core::json::Json;
use rtped_core::rng::{Rng, SeedRng};
use rtped_core::{wire, Error, FromJson, ToJson};
use rtped_runtime::{FrameOutcome, HealthState, RuntimeConfig};
use rtped_serve::{
    Client, FrameSpec, Journal, JournalEntry, JournaledJob, Request, Response, Server,
    ServerConfig, Tenant,
};

use crate::common;
use crate::scenes;
use crate::stats::{self, Clock, Sample, WallClock};
use crate::trace::{self, Layers, Tracer};
use crate::{Outcome, Run, OUT_DIR, THREADS};

/// Offered load, requests per second, over all connections.
const RATE_PER_S: f64 = 20.0;
/// Software tenants `cam-NN`; the rest of the 64 are `hw:cam-NN`.
const SOFTWARE_TENANTS: usize = 56;
const TENANTS: usize = 64;
/// The latency limit.
const LIMIT_MS: f64 = 100.0;
/// Distinct 320×240 pixel frames the requests cycle through.
const PIXEL_FRAMES: usize = 8;
/// Tenants whose every job is replayed out of band: 12 software, 4 hw.
const REPLAY_SOFTWARE: usize = 12;
const REPLAY_HW: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Pixels,
    Hw,
    Status,
}

/// What a generator thread returns: per request index, its sample and
/// the reply bytes, if any arrived.
type Issued = Vec<(usize, Sample, Option<Vec<u8>>)>;

struct Req {
    kind: Kind,
    /// Tenant index; `None` for status reads.
    tenant: Option<usize>,
    conn: usize,
    due_ms: f64,
    job: String,
    /// The frame of a synthetic detect; pixel frames live in [`Load`].
    frame: FrameSpec,
    /// Index of the pixel frame, for pixel detects.
    pixels: Option<usize>,
    /// The encoded request, except a pixel frame's body: that is spliced
    /// in between `head` and `tail` when sent.
    head: Vec<u8>,
    tail: Vec<u8>,
}

/// The generated load: requests in due order, and the distinct pixel
/// frames with their canonical JSON, encoded once.
struct Load {
    reqs: Vec<Req>,
    pixel_specs: Vec<FrameSpec>,
    frame_json: Vec<Vec<u8>>,
}

fn tenant_name(k: usize) -> String {
    if k < SOFTWARE_TENANTS {
        format!("cam-{k:02}")
    } else {
        format!("{}cam-{k:02}", rtped_serve::HW_TENANT_PREFIX)
    }
}

fn detect_request(tenant: &str, job: &str, frame: FrameSpec) -> Request {
    Request::Detect {
        tenant: tenant.to_string(),
        job: job.to_string(),
        fault_seed: None,
        frame,
    }
}

impl Load {
    /// The seeded request mix: 3/4 pixel detects on software tenants, 1/8
    /// 128×224 synthetic detects on `hw:` tenants, 1/8 status reads. A tenant's
    /// requests all use one connection (`tenant % 2`), so the daemon
    /// serves them in send order and an out-of-band replay can reproduce
    /// them.
    fn generate(seed: u64, seconds: f64) -> Result<Load, Error> {
        let pixel_specs: Vec<FrameSpec> = scenes::request_frames(seed, PIXEL_FRAMES, 320, 240)
            .into_iter()
            .map(|f| FrameSpec::Pixels {
                width: 320,
                height: 240,
                pixels: f.into_raw(),
            })
            .collect();
        let frame_json = pixel_specs
            .iter()
            .map(|f| f.to_json().to_string().into_bytes())
            .collect();
        let mut rng = SeedRng::seed_from_u64(seed).split(0xDAE0);
        let placeholder = FrameSpec::Synthetic {
            width: 1,
            height: 1,
            seed: 0,
        };
        let marker = placeholder.to_json().to_string();
        let mut reqs = Vec::new();
        // A fixed rate: with seeded arrival bursts the tail would measure
        // the seed's bursts, not the daemon.
        let period_ms = 1e3 / RATE_PER_S;
        for i in 0..(seconds * RATE_PER_S).ceil() as usize {
            let due_ms = i as f64 * period_ms;
            let job = format!("j{i:05}");
            let (kind, tenant) = match rng.gen_range(0..8u32) {
                0 => (Kind::Status, None),
                1 => (Kind::Hw, Some(rng.gen_range(SOFTWARE_TENANTS..TENANTS))),
                _ => (Kind::Pixels, Some(rng.gen_range(0..SOFTWARE_TENANTS))),
            };
            let (frame, pixels) = match kind {
                Kind::Pixels => (placeholder.clone(), Some(rng.gen_range(0..PIXEL_FRAMES))),
                // Larger than the 96×160 reference frame: 117 windows
                // instead of 25 set these requests clearly above the pixel
                // requests, so the tail lands among them.
                _ => (
                    FrameSpec::Synthetic {
                        width: 128,
                        height: 224,
                        // JSON numbers are f64: keep the seed exact.
                        seed: rng.next_u64() >> 11,
                    },
                    None,
                ),
            };
            let encoded = match tenant {
                Some(k) => detect_request(&tenant_name(k), &job, frame.clone()),
                None => Request::Status,
            }
            .to_json()
            .to_string();
            let (head, tail) = match pixels {
                Some(_) => {
                    let at = encoded
                        .find(&marker)
                        .ok_or_else(|| Error::format("frame marker missing from the request"))?;
                    (&encoded[..at], &encoded[at + marker.len()..])
                }
                None => (encoded.as_str(), ""),
            };
            reqs.push(Req {
                kind,
                tenant,
                conn: tenant.unwrap_or(i) % THREADS,
                due_ms,
                job,
                frame,
                pixels,
                head: head.as_bytes().to_vec(),
                tail: tail.as_bytes().to_vec(),
            });
        }
        let load = Load {
            reqs,
            pixel_specs,
            frame_json,
        };
        // The splice must reproduce the canonical encoding byte for byte.
        if let Some(i) = load.reqs.iter().position(|r| r.pixels.is_some()) {
            let r = &load.reqs[i];
            let mut buf = Vec::new();
            load.payload(i, &mut buf);
            let tenant = tenant_name(r.tenant.unwrap_or(0));
            let full = detect_request(&tenant, &r.job, load.frame(i)).to_json();
            if buf != full.to_string().as_bytes() {
                return Err(Error::format(
                    "spliced pixel request differs from its encoding",
                ));
            }
        }
        Ok(load)
    }

    /// Writes request `i`'s wire bytes into `buf`.
    fn payload(&self, i: usize, buf: &mut Vec<u8>) {
        let r = &self.reqs[i];
        buf.clear();
        buf.extend_from_slice(&r.head);
        if let Some(p) = r.pixels {
            buf.extend_from_slice(&self.frame_json[p]);
            buf.extend_from_slice(&r.tail);
        }
    }

    /// Request `i`'s frame.
    fn frame(&self, i: usize) -> FrameSpec {
        let r = &self.reqs[i];
        r.pixels
            .map_or_else(|| r.frame.clone(), |p| self.pixel_specs[p].clone())
    }
}

fn server_config(journal: PathBuf) -> Result<ServerConfig, Error> {
    Ok(ServerConfig {
        addr: String::from("127.0.0.1:0"),
        workers: THREADS,
        journal: Some(journal),
        runtime: RuntimeConfig::builder().threads(THREADS).build()?,
        ..ServerConfig::default()
    })
}

/// Whether a reply is a served, undegraded result (or a status read).
fn reply_ok(response: &Response) -> bool {
    match response {
        Response::FrameResult { record, .. } => {
            record.state == HealthState::Healthy
                && matches!(record.outcome, FrameOutcome::Detections(_))
        }
        Response::Status { .. } => true,
        _ => false,
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let load = Load::generate(seed, seconds)?;
    let dir = PathBuf::from(OUT_DIR).join(format!("daemon-{seed}-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let result = serve(seed, traced, &load, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn serve(seed: u64, traced: bool, load: &Load, dir: &Path) -> Outcome {
    let reqs = &load.reqs;
    let (setup_s, server) =
        crate::timed_setup(|rep| Server::bind(server_config(dir.join(format!("journal-{rep}")))?))?;
    let addr = server.local_addr();

    let clock = WallClock::start();
    let mut replies: Vec<Option<Vec<u8>>> = vec![None; reqs.len()];
    let mut samples: Vec<Option<Sample>> = vec![None; reqs.len()];
    let served = std::thread::scope(|scope| -> Result<u64, Error> {
        let daemon = scope.spawn(|| server.run());
        let generators: Vec<_> = (0..THREADS)
            .map(|conn| {
                let clock = &clock;
                scope.spawn(move || -> Result<Issued, Error> {
                    let stream = TcpStream::connect(addr)?;
                    stream.set_nodelay(true)?;
                    let mine: Vec<usize> =
                        (0..reqs.len()).filter(|&i| reqs[i].conn == conn).collect();
                    let due: Vec<f64> = mine.iter().map(|&i| reqs[i].due_ms).collect();
                    let mut got: Vec<Option<Vec<u8>>> = vec![None; mine.len()];
                    let mut buf = Vec::new();
                    let samples = stats::open_loop(clock, &due, 5_000.0, |j| {
                        load.payload(mine[j], &mut buf);
                        got[j] = wire::write_frame(&stream, &buf)
                            .and_then(|()| wire::read_frame(&stream, wire::MAX_FRAME_BYTES))
                            .ok()
                            .flatten();
                        got[j].is_some()
                    });
                    Ok(mine
                        .into_iter()
                        .zip(samples)
                        .zip(got)
                        .map(|((i, s), reply)| (i, s, reply))
                        .collect())
                })
            })
            .collect();
        let mut result = Ok(());
        for handle in generators {
            match handle.join() {
                Ok(Ok(rows)) => {
                    for (i, sample, reply) in rows {
                        samples[i] = Some(sample);
                        replies[i] = reply;
                    }
                }
                Ok(Err(err)) => result = Err(err),
                Err(_) => result = Err(Error::format("load generator panicked")),
            }
        }
        // The generators' connections are closed; a third one stops the
        // daemon, which drains and returns.
        let ack = Client::connect(addr)?.call(&Request::Shutdown)?;
        if !matches!(ack, Response::ShutdownAck { .. }) {
            result = Err(Error::format("daemon did not acknowledge shutdown"));
        }
        let served = daemon
            .join()
            .map_err(|_| Error::format("daemon thread panicked"))?;
        result.map(|()| served)
    });
    let wall_s = clock.now_ms() / 1e3;
    served?;
    let mut samples: Vec<Sample> = samples
        .into_iter()
        .map(|s| s.ok_or_else(|| Error::format("a request was never issued")))
        .collect::<Result<_, _>>()?;

    // Decode the replies and classify them, outside the schedule.
    let mut layers = Layers::default();
    for (sample, reply) in samples.iter_mut().zip(&replies) {
        let response = reply
            .as_ref()
            .and_then(|bytes| Json::parse_bytes(bytes).ok())
            .and_then(|json| Response::from_json(&json).ok());
        sample.ok = response.as_ref().is_some_and(reply_ok);
        match &response {
            Some(Response::Shed { .. }) => layers.add("serve.shed", 1.0),
            Some(r) if reply_ok(r) => {}
            _ => layers.add("serve.errors", 1.0),
        }
    }

    let mut tracer = traced.then(|| Tracer::new(clock.0));
    let (jobs, mut checks) = replay(
        seed,
        load,
        &replies,
        &mut samples,
        tracer.as_mut(),
        &mut layers,
        &dir.join("replay-journal"),
    )?;
    let canary = canary_digest()?;
    if common::recorded("daemon_mixed.canary") != Some(canary) {
        checks.push(format!(
            "canary digest {canary:016x} differs from the recorded daemon_mixed.canary"
        ));
    }

    let count = |k: Kind| reqs.iter().filter(|r| r.kind == k).count() as f64;
    layers.set("load.requests_detect_pixels", count(Kind::Pixels));
    layers.set("load.requests_detect_hw", count(Kind::Hw));
    layers.set("load.requests_status", count(Kind::Status));
    let mut buf = Vec::new();
    layers.set(
        "serve.request_bytes",
        trace::mean((0..reqs.len()).map(|i| {
            load.payload(i, &mut buf);
            buf.len() as f64
        })),
    );
    layers.set(
        "serve.response_bytes",
        trace::mean(replies.iter().flatten().map(|r| r.len() as f64)),
    );
    let units = vec![1.0; samples.len()];
    let summary = stats::summarize(&samples, &units, LIMIT_MS, wall_s);
    let mut run = Run::new(summary, setup_s, layers);
    run.failed_checks = checks;
    run.info.push(format!(
        "schedule: {} requests at a fixed {RATE_PER_S}/s over {THREADS} connections, \
         limit {LIMIT_MS} ms; mix: {} pixel detects, {} hw detects, {} status reads; \
         mean request {:.0} B",
        reqs.len(),
        count(Kind::Pixels),
        count(Kind::Hw),
        count(Kind::Status),
        run.layers.get("serve.request_bytes"),
    ));
    run.info.push(format!(
        "replay: {jobs} jobs of {} tenants replayed out of band through Tenant::serve_job",
        REPLAY_SOFTWARE + REPLAY_HW
    ));
    run.tracer = tracer;
    Ok(run)
}

/// Replays every job of a seeded sample of tenants through fresh
/// `Tenant::serve_job` engines, in the order the daemon served them, and
/// checks each response byte for byte; a mismatch fails that request.
/// With a tracer, each replayed job is also decoded, journaled, rendered
/// and encoded as the daemon does, each stage a span whose per-job time
/// goes to `layers`. Returns the jobs replayed and the failed checks.
fn replay(
    seed: u64,
    load: &Load,
    replies: &[Option<Vec<u8>>],
    samples: &mut [Sample],
    mut tracer: Option<&mut Tracer>,
    layers: &mut Layers,
    journal: &Path,
) -> Result<(usize, Vec<String>), Error> {
    let mut rng = SeedRng::seed_from_u64(seed).split(0x2E91);
    let mut software: Vec<usize> = (0..SOFTWARE_TENANTS).collect();
    let mut hw: Vec<usize> = (SOFTWARE_TENANTS..TENANTS).collect();
    rng.shuffle(&mut software);
    rng.shuffle(&mut hw);
    let config = RuntimeConfig::builder().threads(THREADS).build()?;
    let mut tenants: BTreeMap<usize, Tenant> = software[..REPLAY_SOFTWARE]
        .iter()
        .chain(&hw[..REPLAY_HW])
        .map(|&k| (k, Tenant::new(&tenant_name(k), &config)))
        .collect();
    let mut journal = Journal::open(journal)?;
    let accelerator = common::accelerator()?;
    let mut checks = Vec::new();
    let mut jobs = 0;
    let mut buf = Vec::new();
    for (i, r) in load.reqs.iter().enumerate() {
        let (Some(k), Some(reply)) = (r.tenant, &replies[i]) else {
            continue; // a status read, or never sent
        };
        let Some(tenant) = tenants.get_mut(&k) else {
            continue;
        };
        let job = JournaledJob {
            tenant: tenant_name(k),
            job: r.job.clone(),
            fault_seed: None,
            frame: load.frame(i),
        };
        jobs += 1;
        let response = match tracer.as_deref_mut() {
            None => tenant.serve_job(&job),
            Some(tracer) => {
                let request = i as u64;
                load.payload(i, &mut buf);
                let parent = tracer.open("serve.replay", None, request);
                let (decoded, decode) = tracer.span("serve.decode", Some(parent), request, || {
                    Json::parse_bytes(&buf)
                        .map_err(Error::from)
                        .and_then(|json| Request::from_json(&json))
                });
                decoded?;
                let (appended, append) =
                    tracer.span("serve.journal_append", Some(parent), request, || {
                        journal.append(&JournalEntry::Job(job.clone()))
                    });
                appended?;
                let engine = tracer.open("serve.engine", Some(parent), request);
                let (image, render) =
                    tracer.span("serve.render", Some(engine), request, || job.frame.render());
                let image = image?;
                let response = tenant.serve_job(&job);
                tracer.close(engine);
                let (_, encode) = tracer.span("serve.encode", Some(parent), request, || {
                    response.to_json().to_string()
                });
                tracer.close(parent);
                let ms = |id: usize| tracer.get(id).ms();
                let engine_ms = ms(engine);
                layers.push("serve.decode_ms", ms(decode));
                layers.push("serve.journal_append_ms", ms(append));
                layers.push("serve.render_ms", ms(render));
                layers.push("serve.encode_ms", ms(encode));
                layers.push("serve.round_trip_ms", samples[i].service_ms());
                layers.push(
                    "serve.unaccounted_ms",
                    samples[i].service_ms() - ms(decode) - ms(append) - engine_ms - ms(encode),
                );
                if r.kind == Kind::Hw {
                    let serve_ms = engine_ms - ms(render);
                    let cycles = accelerator.process(&image).frame_cycles() as f64;
                    let (_, extract) = tracer.span("hw.extract", None, request, || {
                        accelerator.extract_features(&image)
                    });
                    layers.push("serve.engine_ms.integrity", engine_ms);
                    layers.push("hw.serve_frame_ms.integrity_secded", serve_ms);
                    layers.push("hw.extract_ms", tracer.get(extract).ms());
                    layers.push("hw.sim_cycles_per_frame", cycles);
                    layers.push("hw.host_ns_per_kcycle", serve_ms * 1e6 / (cycles / 1e3));
                } else {
                    layers.push("serve.engine_ms.software", engine_ms);
                }
                response
            }
        };
        if response.to_json().to_string().as_bytes() != reply.as_slice() {
            samples[i].ok = false;
            checks.push(format!(
                "job {} of {}: live response differs from the out-of-band replay",
                r.job, job.tenant
            ));
        }
    }
    Ok((jobs, checks))
}

/// Digest of fixed jobs replayed through fresh tenants: a software
/// tenant on the canary frame and an `hw:` tenant on a synthetic frame.
fn canary_digest() -> Result<u64, Error> {
    let config = RuntimeConfig::builder().threads(THREADS).build()?;
    let frame = common::canary_frame();
    let (w, h) = frame.dimensions();
    let jobs = [
        (
            "cam-canary",
            FrameSpec::Pixels {
                width: w as u32,
                height: h as u32,
                pixels: frame.into_raw(),
            },
        ),
        (
            "hw:cam-canary",
            FrameSpec::Synthetic {
                width: 96,
                height: 160,
                seed: 2017,
            },
        ),
    ];
    let mut text = String::new();
    for (tenant, frame) in jobs {
        let job = JournaledJob {
            tenant: tenant.to_string(),
            job: String::from("canary"),
            fault_seed: None,
            frame,
        };
        let response = Tenant::new(tenant, &config).serve_job(&job);
        text.push_str(&response.to_json().to_string());
    }
    Ok(rtped_serve::tenant::fnv1a(text.as_bytes()))
}
