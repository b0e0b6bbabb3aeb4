//! The hardware-integrity surface: soft-error doses, typed faults, and
//! the aggregated [`IntegrityReport`].
//!
//! The integrity layer has four mechanisms, each guarding a different
//! part of the datapath:
//!
//! | Mechanism        | Guards                       | Module            |
//! |------------------|------------------------------|-------------------|
//! | SECDED ECC       | `NHOGMem` feature words      | [`crate::ecc`]    |
//! | checked MACBAR   | 48-bit accumulators          | [`crate::macbar`] |
//! | lockstep channel | whole fixed-point datapath   | [`crate::lockstep`] |
//! | cycle watchdog   | the 288/36-cycle schedule    | [`crate::pipeline`] |
//!
//! `HogAccelerator::process_with_integrity` arms all four on every frame;
//! its one setting is the [`EccMode`] (SECDED or unprotected memory).
//! This module ties the mechanisms together: [`SoftErrorDose`] describes
//! a deterministic injection for one frame, [`FrameIntegrity`] collects
//! what one frame observed, and [`IntegrityReport`] aggregates a whole
//! run into canonical JSON for the runtime's `RunReport`. Every event
//! that must escalate surfaces as a typed [`IntegrityFault`].

use std::fmt;

use rtped_core::json::obj;
use rtped_core::{Json, ToJson};

use crate::ecc::{EccMode, EccStats};
use crate::lockstep::LockstepReport;
use crate::nhog_mem::BANKS;
use crate::pipeline::{WatchdogEvent, WatchdogKind};
use crate::svm_engine::EngineIntegrity;

/// Environment variable selecting the ECC mode (`off` / `secded`).
pub const ECC_ENV: &str = "RTPED_ECC";

/// Schema version stamped into serialized [`IntegrityReport`]s (the
/// `"format"` field, paired with `"kind": "integrity_report"`). Bump on
/// any incompatible change, so readers of saved reports can tell the
/// layouts apart; this build writes the report and never reads it back.
///
/// Version history: 1 = PR 4 single-instance counters; 2 = adds the
/// `"shards"` block (quarantines / failovers / exhausted frames) for the
/// sharded fleet model.
pub const REPORT_FORMAT_VERSION: u64 = 2;

/// A deterministic soft-error injection for one frame. All placement
/// randomness derives from `seed`, so equal doses strike equal bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SoftErrorDose {
    /// Seed for the placement draws.
    pub seed: u64,
    /// Single-bit upsets in `NHOGMem` words (correctable under SECDED).
    pub mem_flips: u32,
    /// Double-bit upsets in one `NHOGMem` word each (detectable, not
    /// correctable).
    pub mem_double_flips: u32,
    /// Single-bit upsets in MACBAR accumulators mid-window.
    pub acc_flips: u32,
    /// Extra cycles stalled into one row-strip's schedule.
    pub stall_cycles: u64,
}

impl SoftErrorDose {
    /// The empty dose: nothing injected.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether this dose injects anything at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.mem_flips == 0
            && self.mem_double_flips == 0
            && self.acc_flips == 0
            && self.stall_cycles == 0
    }
}

/// A typed integrity violation — every variant escalates the runtime's
/// degradation controller.
#[derive(Debug, Clone, PartialEq)]
pub enum IntegrityFault {
    /// SECDED detected multi-bit corruption it could not repair.
    UncorrectableMemory {
        /// Uncorrectable words observed this frame.
        words: u64,
    },
    /// Checked MACBAR copies diverged on at least one window.
    MacbarDivergence {
        /// Windows whose redundant accumulations disagreed.
        windows: u64,
    },
    /// The lockstep channels disagreed beyond tolerance.
    LockstepDivergence {
        /// Worst diverging row strip.
        strip: usize,
        /// Its worst |hw − golden| score error.
        max_error: f64,
        /// Tolerance that was exceeded.
        tolerance: f64,
    },
    /// A row strip took more cycles than the 288 + (n−1)·36 budget.
    WatchdogOverrun {
        /// The offending strip.
        strip: usize,
        /// Cycles observed.
        observed: u64,
        /// The schedule budget.
        budget: u64,
    },
    /// A row strip retired fewer windows than the schedule requires.
    WatchdogStall {
        /// The offending strip.
        strip: usize,
        /// Windows retired.
        windows: usize,
        /// Windows the schedule guarantees.
        expected: usize,
    },
    /// A shard faulted mid-frame and was sidelined; its band failed over
    /// to a healthy shard.
    ShardQuarantine {
        /// The quarantined shard.
        shard: usize,
        /// Frames the shard sits out before rejoining.
        cooldown_frames: u32,
    },
    /// Every shard is quarantined — the fleet has no healthy capacity and
    /// the frame produced no output.
    FleetExhausted {
        /// Configured shard count.
        shards: u64,
    },
}

impl IntegrityFault {
    /// Stable kind label for reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            IntegrityFault::UncorrectableMemory { .. } => "uncorrectable_memory",
            IntegrityFault::MacbarDivergence { .. } => "macbar_divergence",
            IntegrityFault::LockstepDivergence { .. } => "lockstep_divergence",
            IntegrityFault::WatchdogOverrun { .. } => "watchdog_overrun",
            IntegrityFault::WatchdogStall { .. } => "watchdog_stall",
            IntegrityFault::ShardQuarantine { .. } => "shard_quarantine",
            IntegrityFault::FleetExhausted { .. } => "fleet_exhausted",
        }
    }
}

impl fmt::Display for IntegrityFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntegrityFault::UncorrectableMemory { words } => {
                write!(f, "uncorrectable memory corruption in {words} word(s)")
            }
            IntegrityFault::MacbarDivergence { windows } => {
                write!(
                    f,
                    "MACBAR duplicate-and-compare diverged on {windows} window(s)"
                )
            }
            IntegrityFault::LockstepDivergence {
                strip,
                max_error,
                tolerance,
            } => write!(
                f,
                "lockstep channels diverged on strip {strip}: {max_error} > {tolerance}"
            ),
            IntegrityFault::WatchdogOverrun {
                strip,
                observed,
                budget,
            } => write!(
                f,
                "strip {strip} overran its cycle budget: {observed} > {budget}"
            ),
            IntegrityFault::WatchdogStall {
                strip,
                windows,
                expected,
            } => write!(
                f,
                "strip {strip} stalled: {windows} of {expected} windows retired"
            ),
            IntegrityFault::ShardQuarantine {
                shard,
                cooldown_frames,
            } => write!(
                f,
                "shard {shard} quarantined for {cooldown_frames} frame(s); band failed over"
            ),
            IntegrityFault::FleetExhausted { shards } => {
                write!(f, "all {shards} shard(s) quarantined; frame not served")
            }
        }
    }
}

impl std::error::Error for IntegrityFault {}

/// One shard quarantined during a frame: which shard, and how long its
/// hysteretic cooldown runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardQuarantineEvent {
    /// The quarantined shard.
    pub shard: usize,
    /// Frames the shard sits out before rejoining.
    pub cooldown: u32,
}

/// Everything the integrity layer observed on one frame.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FrameIntegrity {
    /// SECDED counters, merged over all scale engines.
    pub ecc: EccStats,
    /// Single-bit memory upsets injected.
    pub injected_mem_flips: u32,
    /// Double-bit memory upsets injected.
    pub injected_mem_double_flips: u32,
    /// Accumulator upsets injected.
    pub injected_acc_flips: u32,
    /// Stall cycles injected into the schedule.
    pub injected_stall_cycles: u64,
    /// Windows whose checked-MACBAR copies diverged.
    pub macbar_mismatches: u64,
    /// Watchdog violations observed, in strip order.
    pub watchdog_events: Vec<WatchdogEvent>,
    /// Lockstep comparison, when the second channel ran.
    pub lockstep: Option<LockstepReport>,
    /// Shards quarantined this frame, in quarantine order.
    pub shard_quarantines: Vec<ShardQuarantineEvent>,
    /// Bands re-executed on a substitute shard this frame.
    pub shard_failovers: u64,
    /// Healthy shards that served bands this frame (0 for the unsharded
    /// pipeline, where the single instance is implicit).
    pub shards_active: u64,
    /// `Some(shard_count)` when every shard was quarantined and the frame
    /// produced no output.
    pub fleet_exhausted: Option<u64>,
}

impl FrameIntegrity {
    /// Folds one engine run's counters in: ECC, injected upsets, and
    /// MACBAR divergences.
    pub fn absorb(&mut self, run: &EngineIntegrity) {
        self.ecc.merge(&run.ecc);
        self.injected_mem_flips += run.injected_mem_flips;
        self.injected_mem_double_flips += run.injected_mem_double_flips;
        self.injected_acc_flips += run.injected_acc_flips;
        self.injected_stall_cycles += run.injected_stall_cycles;
        self.macbar_mismatches += run.macbar_mismatches;
    }

    /// The typed faults this frame raises, in a fixed order (memory, then
    /// datapath, then lockstep, then schedule). Empty means the frame's
    /// integrity is intact — possibly after corrections.
    #[must_use]
    pub fn faults(&self) -> Vec<IntegrityFault> {
        let mut faults = Vec::new();
        let uncorrectable = self.ecc.uncorrectable_total();
        if uncorrectable > 0 {
            faults.push(IntegrityFault::UncorrectableMemory {
                words: uncorrectable,
            });
        }
        if self.macbar_mismatches > 0 {
            faults.push(IntegrityFault::MacbarDivergence {
                windows: self.macbar_mismatches,
            });
        }
        if let Some(lockstep) = &self.lockstep {
            if let Some(worst) = lockstep.worst() {
                faults.push(IntegrityFault::LockstepDivergence {
                    strip: worst.strip,
                    max_error: worst.max_error,
                    tolerance: lockstep.tolerance,
                });
            }
        }
        for event in &self.watchdog_events {
            faults.push(match event.kind {
                WatchdogKind::Overrun { observed, budget } => IntegrityFault::WatchdogOverrun {
                    strip: event.strip,
                    observed,
                    budget,
                },
                WatchdogKind::Stall { windows, expected } => IntegrityFault::WatchdogStall {
                    strip: event.strip,
                    windows,
                    expected,
                },
            });
        }
        for event in &self.shard_quarantines {
            faults.push(IntegrityFault::ShardQuarantine {
                shard: event.shard,
                cooldown_frames: event.cooldown,
            });
        }
        if let Some(shards) = self.fleet_exhausted {
            faults.push(IntegrityFault::FleetExhausted { shards });
        }
        faults
    }
}

/// Run-level integrity aggregate. Deterministic: equal frame sequences
/// produce equal reports, and the JSON below serializes byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct IntegrityReport {
    /// ECC mode the run used.
    pub ecc_mode: EccMode,
    /// Frames the integrity layer processed.
    pub frames_checked: u64,
    /// Frames that raised at least one fault.
    pub frames_flagged: u64,
    /// Frames with at least one uncorrectable memory detection.
    pub frames_with_uncorrectable: u64,
    /// Per-bank single-bit corrections.
    pub corrected: [u64; BANKS],
    /// Per-bank uncorrectable detections.
    pub uncorrectable: [u64; BANKS],
    /// Words visited by the scrub pass.
    pub scrubbed_words: u64,
    /// Corrections written back by the scrub pass.
    pub scrub_corrected: u64,
    /// Injected single-bit memory upsets.
    pub injected_mem_flips: u64,
    /// Injected double-bit memory upsets.
    pub injected_mem_double_flips: u64,
    /// Injected accumulator upsets.
    pub injected_acc_flips: u64,
    /// Windows whose checked-MACBAR copies diverged.
    pub macbar_mismatches: u64,
    /// Watchdog overrun events.
    pub watchdog_overruns: u64,
    /// Watchdog stall events.
    pub watchdog_stalls: u64,
    /// Lockstep strips compared.
    pub lockstep_strips: u64,
    /// Lockstep strips beyond tolerance.
    pub lockstep_divergences: u64,
    /// Worst lockstep divergence seen anywhere in the run.
    pub lockstep_max_divergence: f64,
    /// Shard quarantine events across the run.
    pub shard_quarantines: u64,
    /// Bands re-executed on a substitute shard across the run.
    pub shard_failovers: u64,
    /// Frames dropped because every shard was quarantined.
    pub fleet_exhausted_frames: u64,
    /// Degradation-controller escalations attributed to integrity faults
    /// (the run's `integrity_fault` transitions; the runtime fills it in
    /// when it drains the run log).
    pub escalations: u64,
    /// Frames where an uncorrectable detection did NOT surface as a fault
    /// — the silent-escape counter the acceptance criteria pin at zero.
    pub unflagged_uncorrectable: u64,
}

impl IntegrityReport {
    /// An empty report for a run under `ecc_mode`.
    #[must_use]
    pub fn new(ecc_mode: EccMode) -> Self {
        Self {
            ecc_mode,
            frames_checked: 0,
            frames_flagged: 0,
            frames_with_uncorrectable: 0,
            corrected: [0; BANKS],
            uncorrectable: [0; BANKS],
            scrubbed_words: 0,
            scrub_corrected: 0,
            injected_mem_flips: 0,
            injected_mem_double_flips: 0,
            injected_acc_flips: 0,
            macbar_mismatches: 0,
            watchdog_overruns: 0,
            watchdog_stalls: 0,
            lockstep_strips: 0,
            lockstep_divergences: 0,
            lockstep_max_divergence: 0.0,
            shard_quarantines: 0,
            shard_failovers: 0,
            fleet_exhausted_frames: 0,
            escalations: 0,
            unflagged_uncorrectable: 0,
        }
    }

    /// Folds one frame's observations in and returns its typed faults
    /// (already reflected in the flag counters).
    pub fn record_frame(&mut self, frame: &FrameIntegrity) -> Vec<IntegrityFault> {
        self.frames_checked += 1;
        for (a, b) in self.corrected.iter_mut().zip(&frame.ecc.corrected) {
            *a += b;
        }
        for (a, b) in self.uncorrectable.iter_mut().zip(&frame.ecc.uncorrectable) {
            *a += b;
        }
        self.scrubbed_words += frame.ecc.scrubbed_words;
        self.scrub_corrected += frame.ecc.scrub_corrected;
        self.injected_mem_flips += u64::from(frame.injected_mem_flips);
        self.injected_mem_double_flips += u64::from(frame.injected_mem_double_flips);
        self.injected_acc_flips += u64::from(frame.injected_acc_flips);
        self.macbar_mismatches += frame.macbar_mismatches;
        for event in &frame.watchdog_events {
            match event.kind {
                WatchdogKind::Overrun { .. } => self.watchdog_overruns += 1,
                WatchdogKind::Stall { .. } => self.watchdog_stalls += 1,
            }
        }
        if let Some(lockstep) = &frame.lockstep {
            self.lockstep_strips += lockstep.strips_checked as u64;
            self.lockstep_divergences += lockstep.divergences.len() as u64;
            self.lockstep_max_divergence =
                self.lockstep_max_divergence.max(lockstep.max_divergence);
        }
        self.shard_quarantines += frame.shard_quarantines.len() as u64;
        self.shard_failovers += frame.shard_failovers;
        if frame.fleet_exhausted.is_some() {
            self.fleet_exhausted_frames += 1;
        }
        let faults = frame.faults();
        if !faults.is_empty() {
            self.frames_flagged += 1;
        }
        if frame.ecc.uncorrectable_total() > 0 {
            self.frames_with_uncorrectable += 1;
            // A detection that raised no fault would be a silent escape.
            if !faults
                .iter()
                .any(|f| matches!(f, IntegrityFault::UncorrectableMemory { .. }))
            {
                self.unflagged_uncorrectable += 1;
            }
        }
        faults
    }

    /// Total single-bit corrections across banks.
    #[must_use]
    pub fn corrected_total(&self) -> u64 {
        self.corrected.iter().sum()
    }

    /// Total uncorrectable detections across banks.
    #[must_use]
    pub fn uncorrectable_total(&self) -> u64 {
        self.uncorrectable.iter().sum()
    }

    /// Uncorrectable detections that never raised a fault. The integrity
    /// layer's core guarantee is that this stays zero.
    #[must_use]
    pub fn silent_escapes(&self) -> u64 {
        self.unflagged_uncorrectable
    }
}

impl Default for IntegrityReport {
    fn default() -> Self {
        Self::new(EccMode::Secded)
    }
}

fn bank_array(counts: &[u64; BANKS]) -> Json {
    Json::Array(counts.iter().map(|&c| c.into()).collect())
}

impl ToJson for IntegrityReport {
    fn to_json(&self) -> Json {
        obj([
            ("format", REPORT_FORMAT_VERSION.into()),
            ("kind", "integrity_report".into()),
            ("ecc", self.ecc_mode.label().into()),
            ("frames_checked", self.frames_checked.into()),
            ("frames_flagged", self.frames_flagged.into()),
            (
                "frames_with_uncorrectable",
                self.frames_with_uncorrectable.into(),
            ),
            ("corrected_total", self.corrected_total().into()),
            ("uncorrectable_total", self.uncorrectable_total().into()),
            ("corrected_per_bank", bank_array(&self.corrected)),
            ("uncorrectable_per_bank", bank_array(&self.uncorrectable)),
            ("scrubbed_words", self.scrubbed_words.into()),
            ("scrub_corrected", self.scrub_corrected.into()),
            (
                "injected",
                obj([
                    ("mem_flips", self.injected_mem_flips.into()),
                    ("mem_double_flips", self.injected_mem_double_flips.into()),
                    ("acc_flips", self.injected_acc_flips.into()),
                ]),
            ),
            ("macbar_mismatches", self.macbar_mismatches.into()),
            ("watchdog_overruns", self.watchdog_overruns.into()),
            ("watchdog_stalls", self.watchdog_stalls.into()),
            (
                "lockstep",
                obj([
                    ("strips", self.lockstep_strips.into()),
                    ("divergences", self.lockstep_divergences.into()),
                    ("max_divergence", self.lockstep_max_divergence.into()),
                ]),
            ),
            (
                "shards",
                obj([
                    ("quarantines", self.shard_quarantines.into()),
                    ("failovers", self.shard_failovers.into()),
                    ("exhausted_frames", self.fleet_exhausted_frames.into()),
                ]),
            ),
            ("escalations", self.escalations.into()),
            ("silent_escapes", self.silent_escapes().into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_dose_injects_nothing() {
        assert!(SoftErrorDose::none().is_empty());
        let dose = SoftErrorDose {
            mem_flips: 1,
            ..SoftErrorDose::none()
        };
        assert!(!dose.is_empty());
    }

    #[test]
    fn fault_labels_and_display_are_stable() {
        let fault = IntegrityFault::UncorrectableMemory { words: 2 };
        assert_eq!(fault.label(), "uncorrectable_memory");
        assert!(fault.to_string().contains("2 word(s)"));
        let fault = IntegrityFault::WatchdogOverrun {
            strip: 3,
            observed: 400,
            budget: 288,
        };
        assert_eq!(fault.label(), "watchdog_overrun");
        assert!(fault.to_string().contains("400 > 288"));
    }

    #[test]
    fn clean_frame_raises_no_faults() {
        let frame = FrameIntegrity::default();
        assert!(frame.faults().is_empty());
        let mut report = IntegrityReport::new(EccMode::Secded);
        assert!(report.record_frame(&frame).is_empty());
        assert_eq!(report.frames_checked, 1);
        assert_eq!(report.frames_flagged, 0);
        assert_eq!(report.silent_escapes(), 0);
    }

    #[test]
    fn uncorrectable_detection_always_raises_a_fault() {
        let mut frame = FrameIntegrity::default();
        frame.ecc.uncorrectable[5] = 1;
        let faults = frame.faults();
        assert_eq!(faults.len(), 1);
        assert!(matches!(
            faults[0],
            IntegrityFault::UncorrectableMemory { words: 1 }
        ));
        let mut report = IntegrityReport::new(EccMode::Secded);
        report.record_frame(&frame);
        assert_eq!(report.frames_flagged, 1);
        assert_eq!(report.frames_with_uncorrectable, 1);
        assert_eq!(report.silent_escapes(), 0);
        assert_eq!(report.uncorrectable[5], 1);
    }

    #[test]
    fn shard_events_surface_as_faults_and_counters() {
        let mut frame = FrameIntegrity::default();
        frame.shard_quarantines.push(ShardQuarantineEvent {
            shard: 2,
            cooldown: 4,
        });
        frame.shard_failovers = 1;
        frame.shards_active = 3;
        let faults = frame.faults();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].label(), "shard_quarantine");
        assert!(faults[0].to_string().contains("shard 2"));

        let exhausted = FrameIntegrity {
            fleet_exhausted: Some(4),
            ..FrameIntegrity::default()
        };
        assert_eq!(exhausted.faults()[0].label(), "fleet_exhausted");

        let mut report = IntegrityReport::new(EccMode::Secded);
        report.record_frame(&frame);
        report.record_frame(&exhausted);
        assert_eq!(report.shard_quarantines, 1);
        assert_eq!(report.shard_failovers, 1);
        assert_eq!(report.fleet_exhausted_frames, 1);
        assert_eq!(report.frames_flagged, 2);
        let text = report.to_json().to_string();
        assert!(
            text.contains("\"shards\":{\"quarantines\":1,\"failovers\":1,\"exhausted_frames\":1}")
        );
    }

    #[test]
    fn report_json_is_deterministic_and_carries_the_counters() {
        let mut report = IntegrityReport::new(EccMode::Secded);
        let mut frame = FrameIntegrity::default();
        frame.ecc.corrected[0] = 3;
        frame.injected_mem_flips = 3;
        report.record_frame(&frame);
        report.escalations = 1;
        let text = report.to_json().to_string();
        assert!(text.contains("\"ecc\":\"secded\""));
        assert!(text.contains("\"corrected_total\":3"));
        assert!(text.contains("\"escalations\":1"));
        assert!(text.contains("\"silent_escapes\":0"));
        assert_eq!(text, report.clone().to_json().to_string());
    }
}
