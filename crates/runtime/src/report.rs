//! Typed frame outcomes and the per-run robustness report.
//!
//! Every frame the runtime serves ends in exactly one of three ways —
//! detections, coasted tracks, or a typed [`FrameError`] — and every
//! degradation decision is recorded. The whole run serializes to
//! canonical JSON via [`rtped_core::json`], so two runs with the same
//! seed and thread count produce byte-identical artifacts (the
//! determinism tests diff exactly these bytes).
//!
//! # Schema versioning
//!
//! A serialized [`RunReport`] is a versioned document: the root carries
//! `"format"` ([`REPORT_FORMAT_VERSION`]) and `"kind": "run_report"`, so
//! readers of saved reports can tell layouts apart. This build writes
//! reports and does not read them back; the one record it decodes is
//! [`FrameRecord`], which the serving protocol's frame results carry.

use std::fmt;

use rtped_core::json::{obj, required_field};
use rtped_core::{Error, FromJson, Json, ToJson};
use rtped_detect::detector::Detection;
use rtped_hw::integrity::IntegrityReport;
use rtped_hw::stream::StreamStats;

use crate::control::{HealthState, Transition};

/// Schema version stamped into serialized [`RunReport`]s (the `"format"`
/// field, paired with `"kind": "run_report"`). Bump on any incompatible
/// change to the report layout.
pub const REPORT_FORMAT_VERSION: u64 = 1;

/// Why a frame produced no detections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The sensor delivered nothing this frame period.
    SensorDropout,
    /// The frame arrived cut short; the payload is the decoder's message.
    TruncatedFrame(String),
    /// The detection worker panicked; the payload is the panic text.
    WorkerPanic(String),
}

impl FrameError {
    /// Stable kind label for reports.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            FrameError::SensorDropout => "sensor_dropout",
            FrameError::TruncatedFrame(_) => "truncated_frame",
            FrameError::WorkerPanic(_) => "worker_panic",
        }
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::SensorDropout => write!(f, "sensor dropout: no frame delivered"),
            FrameError::TruncatedFrame(msg) => write!(f, "truncated frame: {msg}"),
            FrameError::WorkerPanic(msg) => write!(f, "worker panic: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// What one frame yielded.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameOutcome {
    /// A real scan ran and produced these detections.
    Detections(Vec<Detection>),
    /// `SafeFallback`: published boxes are coasted confirmed tracks.
    Coasted(Vec<Detection>),
    /// A typed failure; no boxes this frame.
    Error(FrameError),
}

impl FrameOutcome {
    /// The published boxes, if any ([`FrameOutcome::Error`] has none).
    #[must_use]
    pub fn detections(&self) -> Option<&[Detection]> {
        match self {
            FrameOutcome::Detections(d) | FrameOutcome::Coasted(d) => Some(d),
            FrameOutcome::Error(_) => None,
        }
    }

    /// Stable kind label for reports.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            FrameOutcome::Detections(_) => "detections",
            FrameOutcome::Coasted(_) => "coasted",
            FrameOutcome::Error(_) => "error",
        }
    }
}

/// The full record of one frame through the runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameRecord {
    /// Frame index in the input sequence.
    pub index: usize,
    /// State in effect while the frame was served.
    pub state: HealthState,
    /// Labels of the faults injected into this frame.
    pub faults: Vec<String>,
    /// Modeled compute latency plus injected delay, in milliseconds.
    pub modeled_latency_ms: f64,
    /// The outcome.
    pub outcome: FrameOutcome,
}

impl ToJson for FrameRecord {
    fn to_json(&self) -> Json {
        let (count, boxes, error): (Json, Json, Json) = match &self.outcome {
            FrameOutcome::Error(err) => (
                Json::Null,
                Json::Null,
                obj([
                    ("kind", err.kind().into()),
                    (
                        "message",
                        match err {
                            FrameError::SensorDropout => Json::Null,
                            FrameError::TruncatedFrame(msg) | FrameError::WorkerPanic(msg) => {
                                msg.as_str().into()
                            }
                        },
                    ),
                ]),
            ),
            other => {
                let published = other.detections().unwrap_or(&[]);
                (
                    Json::Number(published.len() as f64),
                    Json::Array(published.iter().map(ToJson::to_json).collect()),
                    Json::Null,
                )
            }
        };
        obj([
            ("frame", self.index.into()),
            ("state", self.state.label().into()),
            (
                "faults",
                Json::Array(self.faults.iter().map(|f| f.as_str().into()).collect()),
            ),
            ("latency_ms", self.modeled_latency_ms.into()),
            ("outcome", self.outcome.kind().into()),
            ("detections", count),
            ("boxes", boxes),
            ("error", error),
        ])
    }
}

impl FromJson for FrameRecord {
    fn from_json(json: &Json) -> Result<Self, Error> {
        let state = HealthState::parse_label(&String::from_json(required_field(json, "state")?)?)?;
        let kind = String::from_json(required_field(json, "outcome")?)?;
        let outcome = match kind.as_str() {
            "detections" | "coasted" => {
                let boxes = Vec::<Detection>::from_json(required_field(json, "boxes")?)?;
                if kind == "detections" {
                    FrameOutcome::Detections(boxes)
                } else {
                    FrameOutcome::Coasted(boxes)
                }
            }
            "error" => {
                let error = required_field(json, "error")?;
                let error_kind = String::from_json(required_field(error, "kind")?)?;
                let message = || String::from_json(required_field(error, "message")?);
                FrameOutcome::Error(match error_kind.as_str() {
                    "sensor_dropout" => FrameError::SensorDropout,
                    "truncated_frame" => FrameError::TruncatedFrame(message()?),
                    "worker_panic" => FrameError::WorkerPanic(message()?),
                    other => {
                        return Err(Error::format(format!("unknown error kind \"{other}\"")));
                    }
                })
            }
            other => {
                return Err(Error::format(format!("unknown frame outcome \"{other}\"")));
            }
        };
        Ok(FrameRecord {
            index: usize::from_json(required_field(json, "frame")?)?,
            state,
            faults: Vec::<String>::from_json(required_field(json, "faults")?)?,
            modeled_latency_ms: f64::from_json(required_field(json, "latency_ms")?)?,
            outcome,
        })
    }
}

/// One recorded state change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionRecord {
    /// Frame whose observation triggered the change.
    pub frame: usize,
    /// The change itself.
    pub transition: Transition,
}

impl ToJson for TransitionRecord {
    fn to_json(&self) -> Json {
        obj([
            ("frame", self.frame.into()),
            ("from", self.transition.from.label().into()),
            ("to", self.transition.to.label().into()),
            ("cause", self.transition.cause.label().into()),
        ])
    }
}

/// Everything one runtime run observed, decided, and produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The fault-plan seed the run was driven by.
    pub seed: u64,
    /// Per-frame records, in input order.
    pub frames: Vec<FrameRecord>,
    /// Every state change, in occurrence order.
    pub transitions: Vec<TransitionRecord>,
    /// State after the last frame.
    pub final_state: HealthState,
    /// Hardware-stream drop accounting, when the run also fed the
    /// `StreamSimulator` path.
    pub stream: Option<StreamStats>,
    /// Hardware-integrity accounting (ECC, checked MACBAR, lockstep,
    /// watchdog), when the run used the integrity-instrumented datapath.
    pub integrity: Option<IntegrityReport>,
}

impl RunReport {
    /// Frames that ended in a typed error.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.frames
            .iter()
            .filter(|f| matches!(f.outcome, FrameOutcome::Error(_)))
            .count()
    }

    /// Frames that had at least one fault injected.
    #[must_use]
    pub fn faulted_count(&self) -> usize {
        self.frames.iter().filter(|f| !f.faults.is_empty()).count()
    }

    /// Frames served in each state, as `(state_label, count)` in ladder
    /// order — the per-state dwell times.
    #[must_use]
    pub fn dwell(&self) -> Vec<(String, usize)> {
        let mut states: Vec<HealthState> = self.frames.iter().map(|f| f.state).collect();
        states.sort();
        states.dedup();
        states
            .into_iter()
            .map(|s| {
                let n = self.frames.iter().filter(|f| f.state == s).count();
                (s.label(), n)
            })
            .collect()
    }

    /// Worst modeled frame latency in milliseconds.
    #[must_use]
    pub fn worst_latency_ms(&self) -> f64 {
        self.frames
            .iter()
            .map(|f| f.modeled_latency_ms)
            .fold(0.0, f64::max)
    }

    /// Frames whose modeled latency exceeded `budget_ms` — the
    /// deterministic deadline-miss count fleet campaigns aggregate into
    /// miss rates. Uses a strict comparison so a frame landing exactly on
    /// the budget is on time.
    #[must_use]
    pub fn deadline_miss_count(&self, budget_ms: f64) -> usize {
        self.frames
            .iter()
            .filter(|f| f.modeled_latency_ms > budget_ms)
            .count()
    }

    /// Modeled per-frame latencies in input order, for percentile
    /// aggregation across a fleet of runs.
    #[must_use]
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.frames.iter().map(|f| f.modeled_latency_ms).collect()
    }

    /// Silent integrity escapes (uncorrectable corruption that no checker
    /// flagged). Zero for runs without the integrity-instrumented
    /// datapath — and the fleet acceptance gate requires it to stay zero
    /// everywhere.
    #[must_use]
    pub fn integrity_escapes(&self) -> u64 {
        self.integrity
            .as_ref()
            .map_or(0, IntegrityReport::silent_escapes)
    }

    /// Whether the run entered `Degraded` at some point *and* later moved
    /// back toward health — the acceptance signal for the controller.
    #[must_use]
    pub fn degraded_and_recovered(&self) -> bool {
        let entered = self
            .transitions
            .iter()
            .any(|t| t.transition.to.severity() > 0);
        let recovered = self
            .transitions
            .iter()
            .any(|t| t.transition.to.severity() < t.transition.from.severity());
        entered && recovered
    }
}

impl ToJson for RunReport {
    fn to_json(&self) -> Json {
        let dwell = Json::Object(
            self.dwell()
                .into_iter()
                .map(|(label, n)| (label, Json::Number(n as f64)))
                .collect(),
        );
        obj([
            ("format", REPORT_FORMAT_VERSION.into()),
            ("kind", "run_report".into()),
            ("seed", self.seed.into()),
            ("frames", (self.frames.len()).into()),
            ("faulted_frames", self.faulted_count().into()),
            ("frame_errors", self.error_count().into()),
            ("final_state", self.final_state.label().into()),
            ("worst_latency_ms", self.worst_latency_ms().into()),
            ("dwell", dwell),
            (
                "transitions",
                Json::Array(self.transitions.iter().map(ToJson::to_json).collect()),
            ),
            (
                "frame_log",
                Json::Array(self.frames.iter().map(ToJson::to_json).collect()),
            ),
            (
                "stream",
                self.stream.as_ref().map_or(Json::Null, ToJson::to_json),
            ),
            (
                "integrity",
                self.integrity.as_ref().map_or(Json::Null, ToJson::to_json),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::TransitionCause;

    fn record(index: usize, state: HealthState, outcome: FrameOutcome) -> FrameRecord {
        FrameRecord {
            index,
            state,
            faults: Vec::new(),
            modeled_latency_ms: 5.0,
            outcome,
        }
    }

    #[test]
    fn frame_error_display_and_kind() {
        let e = FrameError::TruncatedFrame("need 100 bytes".into());
        assert_eq!(e.kind(), "truncated_frame");
        assert!(e.to_string().contains("need 100 bytes"));
        assert_eq!(FrameError::SensorDropout.kind(), "sensor_dropout");
    }

    #[test]
    fn report_aggregates_count_correctly() {
        let report = RunReport {
            seed: 9,
            frames: vec![
                record(0, HealthState::Healthy, FrameOutcome::Detections(vec![])),
                record(
                    1,
                    HealthState::Degraded(1),
                    FrameOutcome::Error(FrameError::SensorDropout),
                ),
                record(2, HealthState::Degraded(1), FrameOutcome::Coasted(vec![])),
            ],
            transitions: vec![
                TransitionRecord {
                    frame: 1,
                    transition: Transition {
                        from: HealthState::Healthy,
                        to: HealthState::Degraded(1),
                        cause: TransitionCause::FrameError,
                    },
                },
                TransitionRecord {
                    frame: 2,
                    transition: Transition {
                        from: HealthState::Degraded(1),
                        to: HealthState::Healthy,
                        cause: TransitionCause::Recovered,
                    },
                },
            ],
            final_state: HealthState::Healthy,
            stream: None,
            integrity: None,
        };
        assert_eq!(report.error_count(), 1);
        assert_eq!(
            report.dwell(),
            vec![("healthy".to_string(), 1), ("degraded_1".to_string(), 2)]
        );
        assert!(report.degraded_and_recovered());
        // All records carry 5.0 ms; a frame exactly on budget is on time.
        assert_eq!(report.deadline_miss_count(4.0), 3);
        assert_eq!(report.deadline_miss_count(5.0), 0);
        assert_eq!(report.latencies_ms(), vec![5.0, 5.0, 5.0]);
        assert_eq!(report.integrity_escapes(), 0);
        let text = report.to_json().to_string();
        assert!(text.contains("\"final_state\":\"healthy\""));
        assert!(text.contains("\"cause\":\"recovered\""));
    }

    #[test]
    fn versioned_report_starts_with_its_format_and_kind() {
        use rtped_detect::BoundingBox;
        let detection = Detection {
            bbox: BoundingBox::new(8, 16, 64, 128),
            score: 1.25,
            scale: 1.5,
        };
        let report = RunReport {
            seed: 7,
            frames: vec![
                record(
                    0,
                    HealthState::Healthy,
                    FrameOutcome::Detections(vec![detection]),
                ),
                record(
                    1,
                    HealthState::Degraded(2),
                    FrameOutcome::Error(FrameError::WorkerPanic("boom".into())),
                ),
                record(
                    2,
                    HealthState::SafeFallback,
                    FrameOutcome::Error(FrameError::SensorDropout),
                ),
            ],
            transitions: vec![TransitionRecord {
                frame: 1,
                transition: Transition {
                    from: HealthState::Healthy,
                    to: HealthState::Degraded(1),
                    cause: TransitionCause::DeadlineMiss,
                },
            }],
            final_state: HealthState::Degraded(1),
            stream: None,
            integrity: None,
        };
        let text = report.to_json().to_string();
        assert!(text.starts_with("{\"format\":1,\"kind\":\"run_report\""));
    }

    #[test]
    fn json_serialization_is_deterministic() {
        let report = RunReport {
            seed: 1,
            frames: vec![record(
                0,
                HealthState::Healthy,
                FrameOutcome::Detections(vec![]),
            )],
            transitions: Vec::new(),
            final_state: HealthState::Healthy,
            stream: None,
            integrity: None,
        };
        assert_eq!(
            report.to_json().to_string(),
            report.clone().to_json().to_string()
        );
    }
}
