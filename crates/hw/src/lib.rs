//! Cycle-accurate, fixed-point model of the DAC'17 pedestrian-detection
//! accelerator.
//!
//! The paper implements its detector as an HDL design on a Zynq ZC7020 at
//! 125 MHz (§5). This crate substitutes a software model that is faithful
//! at the two levels the paper's claims live at:
//!
//! 1. **Cycle level** — every stage carries the schedule the paper
//!    describes: the HOG extractor ingests one pixel per cycle; the SVM
//!    engine needs 288 cycles to fill its window buffer per cell row and
//!    then retires one block column every 36 cycles (two block columns per
//!    72 cycles through the LU/RU/LB/RB bank groups); a 1920×1080 frame
//!    therefore classifies in `135 × (288 + 239 × 36) = 1,200,420`
//!    cycles — the paper's exact number — while the pixel stream itself
//!    takes 2,073,600 cycles (16.6 ms at 125 MHz ⇒ 60 fps).
//! 2. **Bit level** — all datapath arithmetic is integer/fixed-point:
//!    gradients in i16, magnitudes via integer square root, orientation
//!    bins via tangent-comparison (no arctan in hardware), histograms in
//!    u32, normalized features in Q0.15 against an integer-sqrt L2-Hys,
//!    feature scaling by shift-and-add (no multipliers, §5), and
//!    classification through 16-lane MACBAR units with 48-bit
//!    accumulators (DSP48 semantics).
//!
//! Modules:
//!
//! - [`fixed`]: the integer square root the magnitude and norm units use.
//! - [`gradient_unit`], [`hist_unit`], [`norm_unit`]: the HOG extractor
//!   stages of [Hemmati et al., DSD'14] reused by the paper.
//! - [`nhog_mem`]: the 16-bank normalized-HOG memory with the 18-row ring
//!   buffer (reduced from 135 rows in \[10\], §5).
//! - [`scaler`]: shift-and-add feature down-scaler (Fig. 6, Fig. 7).
//! - [`macbar`]: the 16-MAC compute bar; [`svm_engine`]: 8 pipelined
//!   MACBARs and the window schedule (Fig. 8).
//! - [`pipeline`]: the full accelerator — frame in, detections and cycle
//!   counts out, plus agreement checks against the float reference.
//! - [`ecc`], [`integrity`], [`lockstep`]: the hardware-integrity layer —
//!   SECDED protection for [`nhog_mem`], checked MACBAR accumulation,
//!   dual-channel lockstep against the float golden model, and the
//!   schedule watchdog, all reporting into an [`integrity::IntegrityReport`].
//! - [`shard`]: parametric per-shard geometry, frame banding across
//!   multiple accelerator instances, and the quarantine/failover state
//!   machine that contains a faulting shard without corrupting output.
//! - [`resources`]: the parametric FPGA resource model behind Table 2.
//! - [`timing`]: cycles → milliseconds / fps at a configurable clock.

pub mod ecc;
pub mod fixed;
pub mod gradient_unit;
pub mod hist_unit;
pub mod integrity;
pub mod lockstep;
pub mod macbar;
pub mod nhog_mem;
pub mod norm_unit;
pub mod pipeline;
pub mod resources;
pub mod scaler;
pub mod shard;
pub mod stream;
pub mod stream_extractor;
pub mod svm_engine;
pub mod timing;
pub mod vectors;
pub mod verify;

pub use ecc::EccMode;
pub use integrity::{IntegrityFault, IntegrityReport, SoftErrorDose, ECC_ENV};
pub use pipeline::{AcceleratorConfig, AcceleratorReport, HogAccelerator};
pub use shard::{ShardConfig, ShardFleet, ShardGeometry};
pub use stream::StreamStats;
pub use timing::ClockDomain;
