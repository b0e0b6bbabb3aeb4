//! The `Healthy → Degraded → SafeFallback` state machine with hysteresis.
//!
//! The controller watches one signal per frame — modeled latency against
//! the deadline budget, or a typed frame error — and walks a fixed
//! shedding ladder:
//!
//! | State          | Scan profile                            |
//! |----------------|-----------------------------------------|
//! | `Healthy`      | full configured scan                    |
//! | `Degraded(1)`  | at most 2 pyramid scales                |
//! | `Degraded(2)`  | native scale only                       |
//! | `Degraded(3)`  | native scale only, stride doubled       |
//! | `SafeFallback` | coast on confirmed tracks (probe scan)  |
//!
//! Escalation is immediate (one step per bad frame; an error burst jumps
//! straight to `SafeFallback`). Recovery is hysteretic: the controller
//! steps back one rung only after [`RECOVER_AFTER`] consecutive frames
//! land under [`RECOVER_MARGIN`] × budget, so a workload oscillating near
//! the deadline settles at a stable rung instead of flapping.

use std::fmt;

use rtped_detect::detector::ScanProfile;

use crate::deadline::DeadlineBudget;

/// Operating state of the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Full configured scan.
    Healthy,
    /// Shedding rung 1..=3 (higher = more shed).
    Degraded(u8),
    /// Coasting on the tracker's confirmed tracks.
    SafeFallback,
}

impl HealthState {
    /// Severity rank: 0 (healthy) to 4 (safe fallback).
    #[must_use]
    pub fn severity(&self) -> u8 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degraded(level) => *level,
            HealthState::SafeFallback => 4,
        }
    }

    /// The scan this state still performs. `SafeFallback` returns the
    /// deepest shed profile — the engine uses it as a cheap *probe* scan
    /// that feeds the tracker and gives the controller a recovery signal
    /// while the published output coasts on confirmed tracks.
    #[must_use]
    pub fn profile(&self) -> ScanProfile {
        match self {
            HealthState::Healthy => ScanProfile::full(),
            HealthState::Degraded(1) => ScanProfile {
                max_scales: Some(2),
                stride_factor: 1,
            },
            HealthState::Degraded(2) => ScanProfile {
                max_scales: Some(1),
                stride_factor: 1,
            },
            _ => ScanProfile {
                max_scales: Some(1),
                stride_factor: 2,
            },
        }
    }

    /// One rung worse; saturates at `SafeFallback`.
    #[must_use]
    pub fn escalated(&self) -> HealthState {
        match self {
            HealthState::Healthy => HealthState::Degraded(1),
            HealthState::Degraded(level) if *level < 3 => HealthState::Degraded(level + 1),
            _ => HealthState::SafeFallback,
        }
    }

    /// One rung better; saturates at `Healthy`.
    #[must_use]
    pub fn recovered(&self) -> HealthState {
        match self {
            HealthState::SafeFallback => HealthState::Degraded(3),
            HealthState::Degraded(level) if *level > 1 => HealthState::Degraded(level - 1),
            HealthState::Degraded(_) => HealthState::Healthy,
            HealthState::Healthy => HealthState::Healthy,
        }
    }

    /// Stable label for reports.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            HealthState::Healthy => "healthy".to_string(),
            HealthState::Degraded(level) => format!("degraded_{level}"),
            HealthState::SafeFallback => "safe_fallback".to_string(),
        }
    }

    /// Inverse of [`HealthState::label`], for report decoding.
    ///
    /// # Errors
    ///
    /// Returns [`rtped_core::Error::Format`] on an unknown label.
    pub fn parse_label(label: &str) -> Result<Self, rtped_core::Error> {
        match label {
            "healthy" => Ok(HealthState::Healthy),
            "degraded_1" => Ok(HealthState::Degraded(1)),
            "degraded_2" => Ok(HealthState::Degraded(2)),
            "degraded_3" => Ok(HealthState::Degraded(3)),
            "safe_fallback" => Ok(HealthState::SafeFallback),
            other => Err(rtped_core::Error::format(format!(
                "unknown health state \"{other}\""
            ))),
        }
    }
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Why the controller moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionCause {
    /// Modeled latency exceeded the frame budget.
    DeadlineMiss,
    /// A frame produced a typed error.
    FrameError,
    /// Consecutive errors reached the burst threshold.
    ErrorBurst,
    /// The hardware-integrity layer raised a fault (uncorrectable memory
    /// error, MACBAR divergence, lockstep mismatch, or watchdog event).
    IntegrityFault,
    /// Enough consecutive good frames under the recovery margin.
    Recovered,
}

impl TransitionCause {
    /// Stable label for reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            TransitionCause::DeadlineMiss => "deadline_miss",
            TransitionCause::FrameError => "frame_error",
            TransitionCause::ErrorBurst => "error_burst",
            TransitionCause::IntegrityFault => "integrity_fault",
            TransitionCause::Recovered => "recovered",
        }
    }

    /// Inverse of [`TransitionCause::label`], for report decoding.
    ///
    /// # Errors
    ///
    /// Returns [`rtped_core::Error::Format`] on an unknown label.
    pub fn parse_label(label: &str) -> Result<Self, rtped_core::Error> {
        match label {
            "deadline_miss" => Ok(TransitionCause::DeadlineMiss),
            "frame_error" => Ok(TransitionCause::FrameError),
            "error_burst" => Ok(TransitionCause::ErrorBurst),
            "integrity_fault" => Ok(TransitionCause::IntegrityFault),
            "recovered" => Ok(TransitionCause::Recovered),
            other => Err(rtped_core::Error::format(format!(
                "unknown transition cause \"{other}\""
            ))),
        }
    }
}

/// One state change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// State before.
    pub from: HealthState,
    /// State after.
    pub to: HealthState,
    /// Why.
    pub cause: TransitionCause,
}

/// Consecutive good frames required before stepping back one rung.
pub const RECOVER_AFTER: usize = 5;
/// A frame counts toward recovery only if its latency is below this
/// fraction of the budget (a margin below 1 prevents flapping at the edge).
pub const RECOVER_MARGIN: f64 = 0.7;
/// Consecutive frame errors that jump the state to `SafeFallback`.
pub const MAX_CONSECUTIVE_ERRORS: usize = 3;

/// The per-run degradation controller. Purely sequential and free of
/// wall-clock reads: feeding it the same observation sequence reproduces
/// the same transition sequence, whatever the host or thread count.
#[derive(Debug, Clone)]
pub struct Controller {
    state: HealthState,
    budget: DeadlineBudget,
    good_streak: usize,
    error_streak: usize,
}

impl Controller {
    /// A fresh controller starting `Healthy`.
    #[must_use]
    pub fn new(budget: DeadlineBudget) -> Self {
        Self {
            state: HealthState::Healthy,
            budget,
            good_streak: 0,
            error_streak: 0,
        }
    }

    /// The current state.
    #[must_use]
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// The budget in force.
    #[must_use]
    pub fn budget(&self) -> DeadlineBudget {
        self.budget
    }

    /// Observes a frame that produced output with the given modeled
    /// latency. Returns the transition it triggered, if any.
    pub fn observe_ok(&mut self, latency_ms: f64) -> Option<Transition> {
        self.error_streak = 0;
        if latency_ms > self.budget.frame_budget_ms {
            self.good_streak = 0;
            return self.escalate(TransitionCause::DeadlineMiss);
        }
        if latency_ms <= self.budget.frame_budget_ms * RECOVER_MARGIN {
            self.good_streak += 1;
        } else {
            // Within budget but above the margin: hold position.
            self.good_streak = 0;
        }
        if self.good_streak >= RECOVER_AFTER && self.state != HealthState::Healthy {
            self.good_streak = 0;
            let from = self.state;
            self.state = self.state.recovered();
            return Some(Transition {
                from,
                to: self.state,
                cause: TransitionCause::Recovered,
            });
        }
        None
    }

    /// Observes a frame that produced a typed error. Returns the
    /// transition it triggered, if any.
    pub fn observe_error(&mut self) -> Option<Transition> {
        self.good_streak = 0;
        self.error_streak += 1;
        if self.error_streak >= MAX_CONSECUTIVE_ERRORS {
            self.error_streak = 0;
            if self.state == HealthState::SafeFallback {
                return None;
            }
            let from = self.state;
            self.state = HealthState::SafeFallback;
            return Some(Transition {
                from,
                to: self.state,
                cause: TransitionCause::ErrorBurst,
            });
        }
        self.escalate(TransitionCause::FrameError)
    }

    /// Observes a hardware-integrity fault on a frame that otherwise
    /// produced output. Escalates one rung immediately. Deliberately does
    /// not feed the error-burst counter: integrity faults come from the
    /// datapath, not the frame source, and the burst jump is reserved for
    /// delivery failures.
    pub fn observe_integrity_fault(&mut self) -> Option<Transition> {
        self.good_streak = 0;
        self.escalate(TransitionCause::IntegrityFault)
    }

    fn escalate(&mut self, cause: TransitionCause) -> Option<Transition> {
        let from = self.state;
        let to = self.state.escalated();
        if to == from {
            return None;
        }
        self.state = to;
        Some(Transition { from, to, cause })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> Controller {
        Controller::new(DeadlineBudget::from_ms(15.0))
    }

    #[test]
    fn ladder_escalates_and_saturates() {
        let mut s = HealthState::Healthy;
        let expect = [
            HealthState::Degraded(1),
            HealthState::Degraded(2),
            HealthState::Degraded(3),
            HealthState::SafeFallback,
            HealthState::SafeFallback,
        ];
        for e in expect {
            s = s.escalated();
            assert_eq!(s, e);
        }
        for e in [
            HealthState::Degraded(3),
            HealthState::Degraded(2),
            HealthState::Degraded(1),
            HealthState::Healthy,
            HealthState::Healthy,
        ] {
            s = s.recovered();
            assert_eq!(s, e);
        }
    }

    #[test]
    fn profiles_shed_monotonically() {
        let config = rtped_detect::detector::DetectorConfig::two_scale();
        let states = [
            HealthState::Healthy,
            HealthState::Degraded(1),
            HealthState::Degraded(2),
            HealthState::Degraded(3),
        ];
        let model = crate::deadline::CostModel::default();
        let costs: Vec<f64> = states
            .iter()
            .map(|s| model.frame_cost_ms(640, 480, &config, &s.profile()))
            .collect();
        for pair in costs.windows(2) {
            assert!(pair[0] >= pair[1], "{costs:?} must be non-increasing");
        }
    }

    #[test]
    fn deadline_miss_escalates_immediately() {
        let mut c = controller();
        let t = c.observe_ok(20.0).expect("must escalate");
        assert_eq!(t.from, HealthState::Healthy);
        assert_eq!(t.to, HealthState::Degraded(1));
        assert_eq!(t.cause, TransitionCause::DeadlineMiss);
    }

    #[test]
    fn recovery_needs_a_streak_under_the_margin() {
        let mut c = controller();
        c.observe_ok(20.0);
        assert_eq!(c.state(), HealthState::Degraded(1));
        // Four good frames: not enough.
        for _ in 0..4 {
            assert!(c.observe_ok(5.0).is_none());
        }
        // A frame above the 70% margin (but within budget) resets the streak.
        assert!(c.observe_ok(12.0).is_none());
        for _ in 0..4 {
            assert!(c.observe_ok(5.0).is_none());
        }
        let t = c.observe_ok(5.0).expect("fifth consecutive good frame");
        assert_eq!(t.to, HealthState::Healthy);
        assert_eq!(t.cause, TransitionCause::Recovered);
    }

    #[test]
    fn error_burst_jumps_to_safe_fallback() {
        let mut c = controller();
        assert_eq!(
            c.observe_error().unwrap().to,
            HealthState::Degraded(1),
            "single error sheds one rung"
        );
        c.observe_error();
        let t = c.observe_error().expect("third consecutive error");
        assert_eq!(t.to, HealthState::SafeFallback);
        assert_eq!(t.cause, TransitionCause::ErrorBurst);
        // Further errors keep it there without new transitions.
        assert!(c.observe_error().is_none());
        assert!(c.observe_error().is_none());
    }

    #[test]
    fn good_frames_between_errors_break_the_burst() {
        let mut c = controller();
        c.observe_error();
        c.observe_ok(5.0);
        c.observe_error();
        c.observe_ok(5.0);
        c.observe_error();
        assert_ne!(c.state(), HealthState::SafeFallback);
    }

    #[test]
    fn healthy_on_good_frames_never_transitions() {
        let mut c = controller();
        for _ in 0..50 {
            assert!(c.observe_ok(6.0).is_none());
        }
        assert_eq!(c.state(), HealthState::Healthy);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(HealthState::Healthy.label(), "healthy");
        assert_eq!(HealthState::Degraded(2).label(), "degraded_2");
        assert_eq!(HealthState::SafeFallback.label(), "safe_fallback");
        assert_eq!(TransitionCause::ErrorBurst.label(), "error_burst");
        assert_eq!(TransitionCause::IntegrityFault.label(), "integrity_fault");
    }

    #[test]
    fn integrity_faults_escalate_without_feeding_the_burst() {
        let mut c = controller();
        let t = c.observe_integrity_fault().expect("must escalate");
        assert_eq!(t.to, HealthState::Degraded(1));
        assert_eq!(t.cause, TransitionCause::IntegrityFault);
        // Two integrity faults then one frame error: the burst counter
        // only saw the frame error, so no SafeFallback jump.
        c.observe_integrity_fault();
        c.observe_error();
        assert_ne!(c.state(), HealthState::SafeFallback);
        // Recovery works from an integrity-caused rung like any other.
        for _ in 0..5 {
            c.observe_ok(5.0);
        }
        assert!(c.state() < HealthState::Degraded(3));
    }
}
