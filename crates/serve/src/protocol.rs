//! The daemon's wire schema: versioned request/response messages.
//!
//! Every message is one length-prefixed frame ([`rtped_core::wire`])
//! whose payload is a canonical-JSON object carrying `"format"`
//! ([`PROTOCOL_VERSION`]) and a `"kind"` discriminator — the same
//! header/versioning policy `rtped_svm::io` applies to model files and
//! `rtped_runtime::report` applies to run artifacts, so the wire and the
//! disk evolve together. Decoders reject unknown versions and kinds with
//! typed [`Error`]s; malformed messages never panic.
//!
//! # Requests (format 1)
//!
//! | kind       | fields                                         |
//! |------------|------------------------------------------------|
//! | `detect`   | `tenant`, `job`, `fault_seed` (nullable), `frame` |
//! | `status`   | —                                              |
//! | `recover`  | `tenant`                                       |
//! | `shutdown` | —                                              |
//!
//! # Responses (format 1)
//!
//! | kind           | fields                                        |
//! |----------------|-----------------------------------------------|
//! | `frame_result` | `tenant`, `job`, `engine`, `record` (a [`FrameRecord`]) |
//! | `shed`         | `tenant`, `job`, `reason`                     |
//! | `rejected`     | `tenant`, `job`, `reason`                     |
//! | `status`       | `tenants` (array of per-tenant counters)      |
//! | `recovered`    | `tenant`, `jobs` (array of `{job, response}`) |
//! | `error`        | `message`                                     |
//! | `draining`     | `message`                                     |
//! | `shutdown_ack` | `served`                                      |

use rtped_core::json::{obj, required_field, schema_kind};
use rtped_core::{Error, FromJson, Json, ToJson};
use rtped_image::GrayImage;
use rtped_runtime::FrameRecord;

/// Schema version stamped into every wire message (the `"format"` field).
/// Bump on any incompatible change; peers reject mismatches with a typed
/// error instead of misdecoding.
pub const PROTOCOL_VERSION: u64 = 1;

/// Largest accepted frame edge in pixels — bounds the memory one request
/// can pin before any pixel data is even decoded.
pub const MAX_FRAME_DIM: u32 = 2048;

/// Checks the `"format"` header and returns the message's `"kind"`.
/// `noun` names the message family (`request` / `response`) in errors.
///
/// # Errors
///
/// Returns [`Error::Format`] on a missing/mistyped header or an
/// unsupported version.
pub fn message_kind(json: &Json, noun: &str) -> Result<String, Error> {
    schema_kind(json, noun, PROTOCOL_VERSION).map(str::to_string)
}

/// How a request describes its frame. Synthetic frames keep load
/// generation and recovery replay cheap and deterministic; pixel frames
/// carry real data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameSpec {
    /// A deterministic procedural frame: `render` derives every pixel
    /// from `(x, y, seed)`, so equal specs render equal images on any
    /// host.
    Synthetic {
        /// Width in pixels.
        width: u32,
        /// Height in pixels.
        height: u32,
        /// Pattern seed.
        seed: u64,
    },
    /// Explicit row-major grayscale pixels.
    Pixels {
        /// Width in pixels.
        width: u32,
        /// Height in pixels.
        height: u32,
        /// Exactly `width × height` bytes.
        pixels: Vec<u8>,
    },
}

impl FrameSpec {
    /// The declared dimensions.
    #[must_use]
    pub fn dimensions(&self) -> (u32, u32) {
        match self {
            FrameSpec::Synthetic { width, height, .. }
            | FrameSpec::Pixels { width, height, .. } => (*width, *height),
        }
    }

    fn check_dimensions(&self) -> Result<(), Error> {
        let (width, height) = self.dimensions();
        if width == 0 || height == 0 || width > MAX_FRAME_DIM || height > MAX_FRAME_DIM {
            return Err(Error::invalid_input(format!(
                "frame dimensions {width}x{height} outside 1..={MAX_FRAME_DIM}"
            )));
        }
        Ok(())
    }

    /// Materializes the frame.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when a dimension is zero or above
    /// [`MAX_FRAME_DIM`], or when a pixel payload does not hold exactly
    /// `width × height` bytes.
    pub fn render(&self) -> Result<GrayImage, Error> {
        self.check_dimensions()?;
        match self {
            FrameSpec::Synthetic {
                width,
                height,
                seed,
            } => {
                let seed = *seed;
                Ok(GrayImage::from_fn(
                    *width as usize,
                    *height as usize,
                    move |x, y| {
                        // One splitmix64 round over the pixel coordinates:
                        // cheap, host-independent, and seed-sensitive.
                        let mut state = seed
                            .wrapping_add((x as u64) << 32)
                            .wrapping_add(y as u64)
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        (rtped_core::rng::splitmix64(&mut state) >> 56) as u8
                    },
                ))
            }
            FrameSpec::Pixels {
                width,
                height,
                pixels,
            } => {
                let expected = *width as usize * *height as usize;
                if pixels.len() != expected {
                    return Err(Error::invalid_input(format!(
                        "pixel payload holds {} bytes, frame needs {expected}",
                        pixels.len()
                    )));
                }
                let (w, pixels) = (*width as usize, pixels.clone());
                Ok(GrayImage::from_fn(w, *height as usize, move |x, y| {
                    pixels[y * w + x]
                }))
            }
        }
    }
}

impl ToJson for FrameSpec {
    fn to_json(&self) -> Json {
        match self {
            FrameSpec::Synthetic {
                width,
                height,
                seed,
            } => obj([
                ("kind", "synthetic".into()),
                ("width", u64::from(*width).into()),
                ("height", u64::from(*height).into()),
                ("seed", (*seed).into()),
            ]),
            FrameSpec::Pixels {
                width,
                height,
                pixels,
            } => obj([
                ("kind", "pixels".into()),
                ("width", u64::from(*width).into()),
                ("height", u64::from(*height).into()),
                (
                    "pixels",
                    Json::Array(pixels.iter().map(|&p| u64::from(p).into()).collect()),
                ),
            ]),
        }
    }
}

impl FromJson for FrameSpec {
    fn from_json(json: &Json) -> Result<Self, Error> {
        let kind = String::from_json(required_field(json, "kind")?)?;
        let width = u32::from_json(required_field(json, "width")?)?;
        let height = u32::from_json(required_field(json, "height")?)?;
        let spec = match kind.as_str() {
            "synthetic" => FrameSpec::Synthetic {
                width,
                height,
                seed: u64::from_json(required_field(json, "seed")?)?,
            },
            "pixels" => FrameSpec::Pixels {
                width,
                height,
                pixels: Vec::<u8>::from_json(required_field(json, "pixels")?)?,
            },
            other => {
                return Err(Error::format(format!(
                    "unknown frame spec kind \"{other}\""
                )));
            }
        };
        spec.check_dimensions()?;
        Ok(spec)
    }
}

/// A client-to-daemon message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Serve one frame for `tenant`, identified by the caller's `job` id.
    Detect {
        /// Tenant name; a `hw:` prefix selects the integrity engine and
        /// `hwN:` (e.g. `hw4:`) its N-shard fleet variant.
        tenant: String,
        /// Caller-chosen job identifier (journaled for recovery).
        job: String,
        /// Optional fault-plan seed (`FaultPlan::stress`, with
        /// radiation-style soft errors added on integrity engines so a
        /// wire-level seed can exercise shard quarantine and failover);
        /// `None` serves the frame under `FaultPlan::none`.
        fault_seed: Option<u64>,
        /// The frame.
        frame: FrameSpec,
    },
    /// Report per-tenant counters and health states.
    Status,
    /// Fetch responses recovered from the journal for `tenant` — jobs
    /// that were in flight when a previous daemon instance died.
    Recover {
        /// Tenant name.
        tenant: String,
    },
    /// Drain and stop the daemon.
    Shutdown,
}

impl ToJson for Request {
    fn to_json(&self) -> Json {
        match self {
            Request::Detect {
                tenant,
                job,
                fault_seed,
                frame,
            } => obj([
                ("format", PROTOCOL_VERSION.into()),
                ("kind", "detect".into()),
                ("tenant", tenant.as_str().into()),
                ("job", job.as_str().into()),
                (
                    "fault_seed",
                    fault_seed.map_or(Json::Null, |seed| seed.into()),
                ),
                ("frame", frame.to_json()),
            ]),
            Request::Status => obj([
                ("format", PROTOCOL_VERSION.into()),
                ("kind", "status".into()),
            ]),
            Request::Recover { tenant } => obj([
                ("format", PROTOCOL_VERSION.into()),
                ("kind", "recover".into()),
                ("tenant", tenant.as_str().into()),
            ]),
            Request::Shutdown => obj([
                ("format", PROTOCOL_VERSION.into()),
                ("kind", "shutdown".into()),
            ]),
        }
    }
}

impl FromJson for Request {
    fn from_json(json: &Json) -> Result<Self, Error> {
        match message_kind(json, "request")?.as_str() {
            "detect" => Ok(Request::Detect {
                tenant: String::from_json(required_field(json, "tenant")?)?,
                job: String::from_json(required_field(json, "job")?)?,
                fault_seed: match required_field(json, "fault_seed")? {
                    Json::Null => None,
                    value => Some(u64::from_json(value)?),
                },
                frame: FrameSpec::from_json(required_field(json, "frame")?)?,
            }),
            "status" => Ok(Request::Status),
            "recover" => Ok(Request::Recover {
                tenant: String::from_json(required_field(json, "tenant")?)?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(Error::format(format!("unknown request kind \"{other}\""))),
        }
    }
}

/// Per-tenant counters for the `status` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStatus {
    /// Tenant name.
    pub name: String,
    /// Engine family label (`software` / `integrity`).
    pub engine: String,
    /// Current health-state label.
    pub state: String,
    /// Frames served since the tenant appeared (including replayed ones).
    pub served: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Journal-recovered responses still waiting to be fetched.
    pub recovered: u64,
}

impl ToJson for TenantStatus {
    fn to_json(&self) -> Json {
        obj([
            ("name", self.name.as_str().into()),
            ("engine", self.engine.as_str().into()),
            ("state", self.state.as_str().into()),
            ("served", self.served.into()),
            ("shed", self.shed.into()),
            ("recovered", self.recovered.into()),
        ])
    }
}

impl FromJson for TenantStatus {
    fn from_json(json: &Json) -> Result<Self, Error> {
        Ok(TenantStatus {
            name: String::from_json(required_field(json, "name")?)?,
            engine: String::from_json(required_field(json, "engine")?)?,
            state: String::from_json(required_field(json, "state")?)?,
            served: u64::from_json(required_field(json, "served")?)?,
            shed: u64::from_json(required_field(json, "shed")?)?,
            recovered: u64::from_json(required_field(json, "recovered")?)?,
        })
    }
}

/// A recovered job: its id plus the response the restarted daemon
/// deterministically reproduced for it. The response is kept as raw JSON
/// so recovery comparisons are byte-level.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredJob {
    /// The journaled job id.
    pub job: String,
    /// The replayed response, as its canonical JSON value.
    pub response: Json,
}

impl ToJson for RecoveredJob {
    fn to_json(&self) -> Json {
        obj([
            ("job", self.job.as_str().into()),
            ("response", self.response.clone()),
        ])
    }
}

impl FromJson for RecoveredJob {
    fn from_json(json: &Json) -> Result<Self, Error> {
        Ok(RecoveredJob {
            job: String::from_json(required_field(json, "job")?)?,
            response: required_field(json, "response")?.clone(),
        })
    }
}

/// A daemon-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The served frame's full record.
    FrameResult {
        /// Echoed tenant name.
        tenant: String,
        /// Echoed job id.
        job: String,
        /// Engine family that served it (`software` / `integrity`).
        engine: String,
        /// The frame's run record (shared schema with
        /// [`RunReport`](rtped_runtime::RunReport)'s frame log).
        record: FrameRecord,
    },
    /// Admission control rejected the request without touching the
    /// engine.
    Shed {
        /// Echoed tenant name.
        tenant: String,
        /// Echoed job id.
        job: String,
        /// Why (stable label, e.g. `overload`).
        reason: String,
    },
    /// The daemon refused to create a *new* tenant — the registry is at
    /// its `--max-tenants` cap. Unlike `shed` (a transient overload
    /// verdict for an existing tenant), this is a capacity refusal:
    /// retrying the same name will keep failing until a tenant slot
    /// frees up, so clients should fail over rather than back off.
    Rejected {
        /// Echoed tenant name.
        tenant: String,
        /// Echoed job id (empty for tenantful non-job requests).
        job: String,
        /// Why (stable label, e.g. `tenant_capacity`).
        reason: String,
    },
    /// Daemon-wide tenant counters.
    Status {
        /// One entry per live tenant, in name order.
        tenants: Vec<TenantStatus>,
    },
    /// Responses replayed from the journal for one tenant.
    Recovered {
        /// Echoed tenant name.
        tenant: String,
        /// Recovered jobs in journal order.
        jobs: Vec<RecoveredJob>,
    },
    /// The request could not be honored (parse/schema/render failure).
    Error {
        /// Human-readable diagnostic.
        message: String,
    },
    /// The daemon is shutting down and no longer serves work. Unlike a
    /// TCP reset this is a *typed* refusal, so clients can distinguish a
    /// clean drain from a crash and fail over instead of retrying.
    Draining {
        /// Human-readable diagnostic (stable prefix `draining`).
        message: String,
    },
    /// The daemon acknowledged a shutdown request and will drain.
    ShutdownAck {
        /// Total frames served over the daemon's lifetime.
        served: u64,
    },
}

impl ToJson for Response {
    fn to_json(&self) -> Json {
        match self {
            Response::FrameResult {
                tenant,
                job,
                engine,
                record,
            } => obj([
                ("format", PROTOCOL_VERSION.into()),
                ("kind", "frame_result".into()),
                ("tenant", tenant.as_str().into()),
                ("job", job.as_str().into()),
                ("engine", engine.as_str().into()),
                ("record", record.to_json()),
            ]),
            Response::Shed {
                tenant,
                job,
                reason,
            } => obj([
                ("format", PROTOCOL_VERSION.into()),
                ("kind", "shed".into()),
                ("tenant", tenant.as_str().into()),
                ("job", job.as_str().into()),
                ("reason", reason.as_str().into()),
            ]),
            Response::Rejected {
                tenant,
                job,
                reason,
            } => obj([
                ("format", PROTOCOL_VERSION.into()),
                ("kind", "rejected".into()),
                ("tenant", tenant.as_str().into()),
                ("job", job.as_str().into()),
                ("reason", reason.as_str().into()),
            ]),
            Response::Status { tenants } => obj([
                ("format", PROTOCOL_VERSION.into()),
                ("kind", "status".into()),
                (
                    "tenants",
                    Json::Array(tenants.iter().map(ToJson::to_json).collect()),
                ),
            ]),
            Response::Recovered { tenant, jobs } => obj([
                ("format", PROTOCOL_VERSION.into()),
                ("kind", "recovered".into()),
                ("tenant", tenant.as_str().into()),
                (
                    "jobs",
                    Json::Array(jobs.iter().map(ToJson::to_json).collect()),
                ),
            ]),
            Response::Error { message } => obj([
                ("format", PROTOCOL_VERSION.into()),
                ("kind", "error".into()),
                ("message", message.as_str().into()),
            ]),
            Response::Draining { message } => obj([
                ("format", PROTOCOL_VERSION.into()),
                ("kind", "draining".into()),
                ("message", message.as_str().into()),
            ]),
            Response::ShutdownAck { served } => obj([
                ("format", PROTOCOL_VERSION.into()),
                ("kind", "shutdown_ack".into()),
                ("served", (*served).into()),
            ]),
        }
    }
}

impl FromJson for Response {
    fn from_json(json: &Json) -> Result<Self, Error> {
        match message_kind(json, "response")?.as_str() {
            "frame_result" => Ok(Response::FrameResult {
                tenant: String::from_json(required_field(json, "tenant")?)?,
                job: String::from_json(required_field(json, "job")?)?,
                engine: String::from_json(required_field(json, "engine")?)?,
                record: FrameRecord::from_json(required_field(json, "record")?)?,
            }),
            "shed" => Ok(Response::Shed {
                tenant: String::from_json(required_field(json, "tenant")?)?,
                job: String::from_json(required_field(json, "job")?)?,
                reason: String::from_json(required_field(json, "reason")?)?,
            }),
            "rejected" => Ok(Response::Rejected {
                tenant: String::from_json(required_field(json, "tenant")?)?,
                job: String::from_json(required_field(json, "job")?)?,
                reason: String::from_json(required_field(json, "reason")?)?,
            }),
            "status" => Ok(Response::Status {
                tenants: Vec::<TenantStatus>::from_json(required_field(json, "tenants")?)?,
            }),
            "recovered" => Ok(Response::Recovered {
                tenant: String::from_json(required_field(json, "tenant")?)?,
                jobs: Vec::<RecoveredJob>::from_json(required_field(json, "jobs")?)?,
            }),
            "error" => Ok(Response::Error {
                message: String::from_json(required_field(json, "message")?)?,
            }),
            "draining" => Ok(Response::Draining {
                message: String::from_json(required_field(json, "message")?)?,
            }),
            "shutdown_ack" => Ok(Response::ShutdownAck {
                served: u64::from_json(required_field(json, "served")?)?,
            }),
            other => Err(Error::format(format!("unknown response kind \"{other}\""))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_preserves_every_variant() {
        let requests = [
            Request::Detect {
                tenant: "cam-7".into(),
                job: "job-0001".into(),
                fault_seed: Some(42),
                frame: FrameSpec::Synthetic {
                    width: 96,
                    height: 160,
                    seed: 5,
                },
            },
            Request::Detect {
                tenant: "hw:cam-1".into(),
                job: "j".into(),
                fault_seed: None,
                frame: FrameSpec::Pixels {
                    width: 2,
                    height: 2,
                    pixels: vec![0, 64, 128, 255],
                },
            },
            Request::Status,
            Request::Recover {
                tenant: "cam-7".into(),
            },
            Request::Shutdown,
        ];
        for request in requests {
            let json = request.to_json();
            assert_eq!(Request::from_json(&json).unwrap(), request);
            // Canonical-bytes round trip too.
            let reparsed = Json::parse(&json.to_string()).unwrap();
            assert_eq!(Request::from_json(&reparsed).unwrap(), request);
        }
    }

    #[test]
    fn future_format_is_rejected_with_the_shared_message() {
        let mut text = Request::Status.to_json().to_string();
        text = text.replacen("\"format\":1", "\"format\":3", 1);
        let err = Request::from_json(&Json::parse(&text).unwrap()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "format error: unsupported request format 3 (this build reads format 1)"
        );
    }

    #[test]
    fn synthetic_render_is_deterministic_and_seed_sensitive() {
        let spec = FrameSpec::Synthetic {
            width: 32,
            height: 24,
            seed: 9,
        };
        let a = spec.render().unwrap();
        let b = spec.render().unwrap();
        assert_eq!(a.as_raw(), b.as_raw());
        let other = FrameSpec::Synthetic {
            width: 32,
            height: 24,
            seed: 10,
        }
        .render()
        .unwrap();
        assert_ne!(a.as_raw(), other.as_raw());
    }

    #[test]
    fn degenerate_frames_are_invalid_input() {
        for spec in [
            FrameSpec::Synthetic {
                width: 0,
                height: 8,
                seed: 0,
            },
            FrameSpec::Synthetic {
                width: 8,
                height: MAX_FRAME_DIM + 1,
                seed: 0,
            },
            FrameSpec::Pixels {
                width: 2,
                height: 2,
                pixels: vec![1, 2, 3],
            },
        ] {
            let err = spec.render().unwrap_err();
            assert!(matches!(err, Error::InvalidInput(_)), "{err}");
            // The same bounds hold on decode, before any render.
            if matches!(spec, FrameSpec::Synthetic { .. }) {
                assert!(FrameSpec::from_json(&spec.to_json()).is_err());
            }
        }
    }

    #[test]
    fn response_roundtrip_preserves_every_variant() {
        use rtped_runtime::{FrameOutcome, HealthState};
        let record = FrameRecord {
            index: 3,
            state: HealthState::Healthy,
            faults: vec![],
            modeled_latency_ms: 6.5,
            outcome: FrameOutcome::Detections(vec![]),
        };
        let responses = [
            Response::FrameResult {
                tenant: "cam-7".into(),
                job: "job-0001".into(),
                engine: "software".into(),
                record,
            },
            Response::Shed {
                tenant: "cam-7".into(),
                job: "job-0002".into(),
                reason: "overload".into(),
            },
            Response::Rejected {
                tenant: "cam-9999".into(),
                job: "job-0004".into(),
                reason: "tenant_capacity".into(),
            },
            Response::Status {
                tenants: vec![TenantStatus {
                    name: "cam-7".into(),
                    engine: "software".into(),
                    state: "healthy".into(),
                    served: 4,
                    shed: 1,
                    recovered: 0,
                }],
            },
            Response::Recovered {
                tenant: "cam-7".into(),
                jobs: vec![RecoveredJob {
                    job: "job-0003".into(),
                    response: Json::Null,
                }],
            },
            Response::Error {
                message: "unknown request kind".into(),
            },
            Response::Draining {
                message: "draining: daemon is shutting down".into(),
            },
            Response::ShutdownAck { served: 99 },
        ];
        for response in responses {
            let json = response.to_json();
            assert_eq!(Response::from_json(&json).unwrap(), response);
            let reparsed = Json::parse(&json.to_string()).unwrap();
            assert_eq!(Response::from_json(&reparsed).unwrap(), response);
        }
    }
}
