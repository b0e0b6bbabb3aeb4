//! Sharded multi-accelerator geometry, frame banding, and the
//! quarantine/failover state machine.
//!
//! ROADMAP item 4 (and the UHD HOG+SVM SoC line of work in PAPERS.md)
//! calls for replicating the paper's accelerator: one instance sustains
//! HDTV at 60 fps, but 4K needs several instances working on disjoint
//! row bands of the same frame. This module holds everything that stays
//! on the fixed-point side of that design:
//!
//! - [`ShardGeometry`]: the per-shard hardware shape (`bank_count`,
//!   `macbar_count`, `buffered_rows`) as a *validated* configuration,
//!   with the paper's 288/36-cycle schedule derived from it rather than
//!   hardcoded. [`ShardGeometry::paper`] reproduces the published design
//!   point exactly.
//! - [`bands`] / [`Band`]: the deterministic split of a frame's window
//!   strips into contiguous per-shard bands. Each band needs
//!   [`HALO_CELL_ROWS`] extra rows below its last strip (a window is 16
//!   cells tall), which is what the per-shard cycle model charges.
//! - [`shard_doses`]: deterministic splitting of one frame-level
//!   [`SoftErrorDose`] into per-band doses, so a sharded run injects the
//!   same *amount* of upsets as the single-instance run while every
//!   placement stays a pure function of the dose seed.
//! - [`ShardFleet`]: the fault-containment state machine. A shard whose
//!   band raises an integrity fault is quarantined for a hysteretic
//!   cooldown ([`COOLDOWN_FRAMES`], exponential backoff on repeat
//!   offenders, strike decay after a clean streak), its band is
//!   deterministically reassigned to a healthy shard, and a fleet with
//!   no healthy shard left reports exhaustion instead of output.
//!
//! Everything here is integer arithmetic: the module sits inside the
//! `float-in-fixed-datapath` lint scope together with `nhog_mem`, `ecc`,
//! and `macbar`. Lockstep comparison and fps math live in
//! [`crate::pipeline`] and the bench crate.

use rtped_core::rng::SeedRng;
use rtped_core::{Error, Rng};

use crate::integrity::SoftErrorDose;
use crate::svm_engine::WINDOW_CELLS;

/// Halo rows a band reads below its last strip: a detection window is 16
/// cells tall, so strip `s` consumes cell rows `s .. s + 15`.
pub const HALO_CELL_ROWS: usize = WINDOW_CELLS.1 - 1;

/// Feature words of one window column (16 cells × 36 features) — the
/// memory-side read burst behind one column step.
const COLUMN_WORDS: u64 = (WINDOW_CELLS.1 * 36) as u64;

/// MAC-side cycle budget to consume one window column at the paper's
/// MACBAR count: 8 columns × 36 cycles of lane work redistributes over
/// however many MACBARs the geometry instantiates.
const MAC_COLUMN_BUDGET: u64 = 288;

/// The per-shard hardware shape. Fields are private so every instance
/// went through [`ShardGeometry::new`]'s validation; the cycle model
/// below is derived from them instead of the hardcoded 288/36 constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardGeometry {
    bank_count: usize,
    macbar_count: usize,
    buffered_rows: usize,
}

impl ShardGeometry {
    /// The published design point: 16 NHOGMem banks, 8 MACBARs, an
    /// 18-row ring — which derives exactly the paper's 288-cycle fill
    /// and 36 cycles/column.
    #[must_use]
    pub const fn paper() -> Self {
        Self {
            bank_count: 16,
            macbar_count: 8,
            buffered_rows: 18,
        }
    }

    /// Validates a geometry.
    ///
    /// - `bank_count` ∈ {16, 32, 64}: the parity×role layout needs 16
    ///   banks as its base unit, and the 576-word column burst must
    ///   split evenly over the banks.
    /// - `macbar_count` ∈ {1, 2, 4, 8, 16, 32}: the 288-cycle MAC budget
    ///   per column must split evenly over the bars.
    /// - `buffered_rows` ∈ 18..=135: at least one window height plus the
    ///   two rows of producer slack (the paper's ring), at most the full
    ///   HDTV frame height (the DSD'14 baseline it was shrunk from).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] describing the offending field.
    pub fn new(
        bank_count: usize,
        macbar_count: usize,
        buffered_rows: usize,
    ) -> Result<Self, Error> {
        if !matches!(bank_count, 16 | 32 | 64) {
            return Err(Error::invalid_input(format!(
                "bank_count must be 16, 32, or 64, got {bank_count}"
            )));
        }
        if !matches!(macbar_count, 1 | 2 | 4 | 8 | 16 | 32) {
            return Err(Error::invalid_input(format!(
                "macbar_count must be a power of two in 1..=32, got {macbar_count}"
            )));
        }
        if !(18..=135).contains(&buffered_rows) {
            return Err(Error::invalid_input(format!(
                "buffered_rows must be in 18..=135, got {buffered_rows}"
            )));
        }
        Ok(Self {
            bank_count,
            macbar_count,
            buffered_rows,
        })
    }

    /// NHOGMem bank count.
    #[must_use]
    pub fn bank_count(&self) -> usize {
        self.bank_count
    }

    /// MACBAR units per classifier instance.
    #[must_use]
    pub fn macbar_count(&self) -> usize {
        self.macbar_count
    }

    /// Cell rows resident in the shard's feature-memory ring.
    #[must_use]
    pub fn buffered_rows(&self) -> usize {
        self.buffered_rows
    }

    /// Cycles per window column: the slower of the memory-side burst
    /// (576 words over `bank_count` single-ported banks) and the
    /// MAC-side consumption (288 lane-cycles over `macbar_count` bars).
    /// At the paper point both sides meet at 36.
    #[must_use]
    pub fn column_cycles(&self) -> u64 {
        (COLUMN_WORDS / self.bank_count as u64).max(MAC_COLUMN_BUDGET / self.macbar_count as u64)
    }

    /// Pipeline fill per strip: the 8 window columns of the first
    /// window position (288 at the paper point).
    #[must_use]
    pub fn fill_cycles(&self) -> u64 {
        (WINDOW_CELLS.0 as u64).saturating_mul(self.column_cycles())
    }

    /// Schedule cost of one window strip of a `cells_x`-wide map:
    /// `fill + (cells_x − 1) × column` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `cells_x == 0`.
    #[must_use]
    pub fn strip_cycles(&self, cells_x: usize) -> u64 {
        assert!(cells_x > 0, "empty cell row");
        // rtped-lint: allow(unchecked-arith-in-fixed-datapath, "the paper's cycle formula kept verbatim: cells_x >= 1 is asserted above, and fill/column cycles are bounded by the fixed geometry tables, so the u64 sum stays far below wrap")
        self.fill_cycles() + (cells_x as u64 - 1) * self.column_cycles()
    }

    /// Single-instance classifier cycles for a whole `cells_x × cells_y`
    /// frame — the paper's `rows × (fill + (cols−1) × column)` formula
    /// (1,200,420 for HDTV at the paper point).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn frame_cycles(&self, cells_x: usize, cells_y: usize) -> u64 {
        assert!(cells_y > 0, "empty cell grid");
        (cells_y as u64).saturating_mul(self.strip_cycles(cells_x))
    }

    /// Classifier cycles one shard spends on a band of `band_strips`
    /// window strips: the band's strips plus its 15 halo rows each pay
    /// one strip schedule. A single shard owning the whole frame
    /// (`band_strips = cells_y − 15`) therefore costs exactly
    /// [`ShardGeometry::frame_cycles`].
    #[must_use]
    pub fn band_cycles(&self, cells_x: usize, band_strips: usize) -> u64 {
        if band_strips == 0 {
            return 0;
        }
        (band_strips.saturating_add(HALO_CELL_ROWS) as u64)
            .saturating_mul(self.strip_cycles(cells_x))
    }

    /// Stable label for tables and aggregation keys, e.g. `b16m8r18`.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "b{}m{}r{}",
            self.bank_count, self.macbar_count, self.buffered_rows
        )
    }
}

impl Default for ShardGeometry {
    fn default() -> Self {
        Self::paper()
    }
}

/// One contiguous per-shard slice of a frame's window strips
/// (`strip_lo..strip_hi`, half-open).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Band {
    /// Which shard the band belongs to by home assignment.
    pub index: usize,
    /// First window strip of the band.
    pub strip_lo: usize,
    /// One past the last window strip of the band.
    pub strip_hi: usize,
}

impl Band {
    /// Window strips in the band.
    #[must_use]
    pub fn strips(&self) -> usize {
        self.strip_hi - self.strip_lo
    }
}

/// Splits `strips` window strips into `shards` contiguous, near-even
/// bands (sizes differ by at most one). Concatenating the bands in index
/// order reproduces `0..strips` exactly — the property that makes the
/// sharded score merge bit-identical to the single-instance raster scan.
#[must_use]
pub fn bands(strips: usize, shards: usize) -> Vec<Band> {
    let shards = shards.max(1);
    (0..shards)
        .map(|i| Band {
            index: i,
            strip_lo: i * strips / shards,
            strip_hi: (i + 1) * strips / shards,
        })
        .collect()
}

/// Splits one frame-level dose into per-band doses: upset counts are
/// dealt round-robin starting at a seed-derived offset (so small doses
/// do not always land in band 0), the stall lands on one band, and every
/// band gets its own placement seed split from the frame seed. The split
/// is a pure function of the dose, independent of shard health.
#[must_use]
pub fn shard_doses(dose: &SoftErrorDose, shards: usize) -> Vec<SoftErrorDose> {
    let shards = shards.max(1);
    let base = SeedRng::seed_from_u64(dose.seed);
    let mut out: Vec<SoftErrorDose> = (0..shards)
        .map(|i| {
            let mut stream = base.split(i as u64);
            SoftErrorDose {
                seed: stream.next_u64(),
                ..SoftErrorDose::none()
            }
        })
        .collect();
    let mut slot = (dose.seed % shards as u64) as usize;
    for _ in 0..dose.mem_flips {
        out[slot % shards].mem_flips += 1;
        slot += 1;
    }
    for _ in 0..dose.mem_double_flips {
        out[slot % shards].mem_double_flips += 1;
        slot += 1;
    }
    for _ in 0..dose.acc_flips {
        out[slot % shards].acc_flips += 1;
        slot += 1;
    }
    if dose.stall_cycles > 0 {
        out[slot % shards].stall_cycles = dose.stall_cycles;
    }
    out
}

/// Frames a first-strike quarantine lasts.
pub const COOLDOWN_FRAMES: u32 = 4;
/// Cap on the exponential backoff: the cooldown doubles per strike up to
/// `COOLDOWN_FRAMES << MAX_BACKOFF_SHIFT`.
pub const MAX_BACKOFF_SHIFT: u32 = 3;
/// Clean frames a healthy shard must serve before one strike decays.
pub const STRIKE_DECAY_FRAMES: u32 = 8;

/// A validated sharded-deployment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Shard instances in the fleet.
    pub shards: usize,
    /// Per-shard hardware geometry.
    pub geometry: ShardGeometry,
}

impl ShardConfig {
    /// Validates a fleet of `shards` instances of `geometry`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] unless `1 <= shards <= 16`.
    pub fn new(shards: usize, geometry: ShardGeometry) -> Result<Self, Error> {
        if !(1..=16).contains(&shards) {
            return Err(Error::invalid_input(format!(
                "shard count must be in 1..=16, got {shards}"
            )));
        }
        Ok(Self { shards, geometry })
    }
}

/// A shard's health at a frame boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving bands.
    Healthy,
    /// Sidelined; rejoins after `remaining_frames` frame boundaries.
    Quarantined {
        /// Frame boundaries left before the shard rejoins.
        remaining_frames: u32,
    },
}

/// One shard's fault-containment state and counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardState {
    /// Current health.
    pub health: ShardHealth,
    /// Accumulated strikes (drives the backoff).
    pub strikes: u32,
    /// Consecutive clean frames since the last fault or decay.
    pub clean_streak: u32,
    /// Integrity faults attributed to this shard.
    pub faults: u64,
    /// Bands this shard executed (home assignments and failovers).
    pub bands_served: u64,
}

impl ShardState {
    fn new() -> Self {
        Self {
            health: ShardHealth::Healthy,
            strikes: 0,
            clean_streak: 0,
            faults: 0,
            bands_served: 0,
        }
    }
}

/// The fleet of shard instances: health tracking, quarantine with
/// hysteretic cooldown, and deterministic band (re)assignment.
///
/// All state transitions happen at frame boundaries
/// ([`ShardFleet::begin_frame`]) or through explicit fault reports
/// ([`ShardFleet::quarantine`]); nothing here consults a clock or an
/// RNG, so a frame sequence drives the fleet identically on every run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFleet {
    geometry: ShardGeometry,
    states: Vec<ShardState>,
    quarantines: u64,
    failovers: u64,
    exhausted_frames: u64,
}

impl ShardFleet {
    /// A fleet per `config`, all shards healthy.
    #[must_use]
    pub fn new(config: &ShardConfig) -> Self {
        Self {
            geometry: config.geometry,
            states: (0..config.shards.max(1))
                .map(|_| ShardState::new())
                .collect(),
            quarantines: 0,
            failovers: 0,
            exhausted_frames: 0,
        }
    }

    /// The per-shard geometry.
    #[must_use]
    pub fn geometry(&self) -> ShardGeometry {
        self.geometry
    }

    /// Shard instances in the fleet.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.states.len()
    }

    /// Per-shard states, indexed by shard.
    #[must_use]
    pub fn states(&self) -> &[ShardState] {
        &self.states
    }

    /// Indices of currently healthy shards, ascending.
    #[must_use]
    pub fn healthy(&self) -> Vec<usize> {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, s)| s.health == ShardHealth::Healthy)
            .map(|(i, _)| i)
            .collect()
    }

    /// Advances every shard one frame boundary — cooldowns tick down,
    /// rejoins happen, clean streaks accrue and decay strikes — and
    /// returns the shards healthy for the new frame.
    pub fn begin_frame(&mut self) -> Vec<usize> {
        for state in &mut self.states {
            match state.health {
                ShardHealth::Quarantined { remaining_frames } => {
                    let remaining = remaining_frames.saturating_sub(1);
                    state.health = if remaining == 0 {
                        ShardHealth::Healthy
                    } else {
                        ShardHealth::Quarantined {
                            remaining_frames: remaining,
                        }
                    };
                }
                ShardHealth::Healthy => {
                    state.clean_streak += 1;
                    if state.strikes > 0 && state.clean_streak >= STRIKE_DECAY_FRAMES {
                        state.strikes -= 1;
                        state.clean_streak = 0;
                    }
                }
            }
        }
        self.healthy()
    }

    /// Quarantines `shard` after a fault: one strike, cooldown with
    /// exponential backoff in the strike count. Returns the cooldown
    /// applied (in frame boundaries).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn quarantine(&mut self, shard: usize) -> u32 {
        let state = &mut self.states[shard];
        state.faults += 1;
        state.strikes += 1;
        state.clean_streak = 0;
        let shift = (state.strikes - 1).min(MAX_BACKOFF_SHIFT);
        let cooldown = COOLDOWN_FRAMES.checked_shl(shift).unwrap_or(u32::MAX);
        state.health = ShardHealth::Quarantined {
            remaining_frames: cooldown,
        };
        self.quarantines += 1;
        cooldown
    }

    /// The shard currently serving band `band_index`: its home shard if
    /// healthy, otherwise a deterministic substitute from the healthy
    /// set (`healthy[band_index % healthy.len()]`). `None` when the
    /// whole fleet is quarantined.
    #[must_use]
    pub fn assign(&self, band_index: usize) -> Option<usize> {
        if let Some(state) = self.states.get(band_index) {
            if state.health == ShardHealth::Healthy {
                return Some(band_index);
            }
        }
        let healthy = self.healthy();
        if healthy.is_empty() {
            None
        } else {
            Some(healthy[band_index % healthy.len()])
        }
    }

    /// Credits one executed band to `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn record_band(&mut self, shard: usize) {
        self.states[shard].bands_served += 1;
    }

    /// Counts one band served away from its home shard (reassignment or
    /// mid-frame failover re-execution).
    pub fn record_failover(&mut self) {
        self.failovers += 1;
    }

    /// Counts one frame the fully-quarantined fleet could not serve.
    pub fn record_exhausted(&mut self) {
        self.exhausted_frames += 1;
    }

    /// Quarantine events so far.
    #[must_use]
    pub fn quarantines(&self) -> u64 {
        self.quarantines
    }

    /// Bands served away from their home shard so far.
    #[must_use]
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Frames the fleet could not serve at all.
    #[must_use]
    pub fn exhausted_frames(&self) -> u64 {
        self.exhausted_frames
    }

    /// Returns the fleet to its initial all-healthy state.
    pub fn reset(&mut self) {
        for state in &mut self.states {
            *state = ShardState::new();
        }
        self.quarantines = 0;
        self.failovers = 0;
        self.exhausted_frames = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_reproduces_the_published_schedule() {
        let g = ShardGeometry::paper();
        assert_eq!(g.column_cycles(), 36);
        assert_eq!(g.fill_cycles(), 288);
        assert_eq!(g.strip_cycles(240), 288 + 239 * 36);
        assert_eq!(g.frame_cycles(240, 135), 1_200_420);
        assert_eq!(g.label(), "b16m8r18");
    }

    #[test]
    fn geometry_cycle_model_tracks_the_slower_side() {
        // Doubling the banks alone does not help: the MAC side still
        // needs 36 cycles per column.
        let wide_mem = ShardGeometry::new(32, 8, 18).unwrap();
        assert_eq!(wide_mem.column_cycles(), 36);
        // Doubling both halves the column time.
        let wide = ShardGeometry::new(32, 16, 18).unwrap();
        assert_eq!(wide.column_cycles(), 18);
        // Halving the MACBARs doubles it, banks notwithstanding.
        let narrow = ShardGeometry::new(16, 4, 18).unwrap();
        assert_eq!(narrow.column_cycles(), 72);
    }

    #[test]
    fn geometry_validation_rejects_bad_shapes() {
        assert!(ShardGeometry::new(8, 8, 18).is_err());
        assert!(ShardGeometry::new(16, 3, 18).is_err());
        assert!(ShardGeometry::new(16, 64, 18).is_err());
        assert!(ShardGeometry::new(16, 8, 17).is_err());
        assert!(ShardGeometry::new(16, 8, 136).is_err());
        assert!(ShardGeometry::new(64, 32, 135).is_ok());
    }

    #[test]
    fn bands_partition_the_strip_range_exactly() {
        for strips in [1usize, 2, 5, 15, 120, 255] {
            for shards in [1usize, 2, 3, 4, 8, 16] {
                let split = bands(strips, shards);
                assert_eq!(split.len(), shards);
                assert_eq!(split[0].strip_lo, 0);
                assert_eq!(split[shards - 1].strip_hi, strips);
                for pair in split.windows(2) {
                    assert_eq!(pair[0].strip_hi, pair[1].strip_lo);
                }
                let sizes: Vec<usize> = split.iter().map(Band::strips).collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "{strips}/{shards}: {sizes:?}");
            }
        }
    }

    #[test]
    fn one_shard_band_costs_the_whole_frame_schedule() {
        let g = ShardGeometry::paper();
        // HDTV: 135 rows, 120 strips; one shard pays the paper count.
        assert_eq!(g.band_cycles(240, 120), g.frame_cycles(240, 135));
        assert_eq!(g.band_cycles(240, 0), 0);
    }

    #[test]
    fn shard_doses_conserve_counts_and_are_deterministic() {
        let dose = SoftErrorDose {
            seed: 77,
            mem_flips: 5,
            mem_double_flips: 2,
            acc_flips: 3,
            stall_cycles: 40,
        };
        for shards in [1usize, 2, 4, 8] {
            let split = shard_doses(&dose, shards);
            assert_eq!(split.len(), shards);
            assert_eq!(split.iter().map(|d| d.mem_flips).sum::<u32>(), 5);
            assert_eq!(split.iter().map(|d| d.mem_double_flips).sum::<u32>(), 2);
            assert_eq!(split.iter().map(|d| d.acc_flips).sum::<u32>(), 3);
            assert_eq!(split.iter().map(|d| d.stall_cycles).sum::<u64>(), 40);
            assert_eq!(split, shard_doses(&dose, shards));
        }
        // Per-band seeds are distinct.
        let split = shard_doses(&dose, 4);
        let mut seeds: Vec<u64> = split.iter().map(|d| d.seed).collect();
        seeds.dedup();
        assert_eq!(seeds.len(), 4);
    }

    fn fleet(shards: usize) -> ShardFleet {
        ShardFleet::new(&ShardConfig::new(shards, ShardGeometry::paper()).unwrap())
    }

    #[test]
    fn quarantine_sidelines_and_cooldown_rejoins() {
        let mut f = fleet(4);
        assert_eq!(f.begin_frame(), vec![0, 1, 2, 3]);
        let cooldown = f.quarantine(2);
        assert_eq!(cooldown, 4);
        assert_eq!(f.healthy(), vec![0, 1, 3]);
        // Band 2's substitute: healthy[band % healthy_count].
        assert_eq!(f.assign(2), Some(f.healthy()[2]));
        // Cooldown frames tick at frame boundaries; shard 2 rejoins on
        // the 4th.
        for _ in 0..3 {
            assert_eq!(f.begin_frame(), vec![0, 1, 3]);
        }
        assert_eq!(f.begin_frame(), vec![0, 1, 2, 3]);
        assert_eq!(f.quarantines(), 1);
    }

    #[test]
    fn repeat_offender_backs_off_exponentially_and_decays() {
        let mut f = fleet(2);
        assert_eq!(f.quarantine(0), 4);
        assert_eq!(f.states()[0].strikes, 1);
        // Serve out the cooldown, then fault again: backoff doubles.
        for _ in 0..4 {
            f.begin_frame();
        }
        assert_eq!(f.quarantine(0), 8);
        for _ in 0..8 {
            f.begin_frame();
        }
        assert_eq!(f.quarantine(0), 16);
        // The shift caps at MAX_BACKOFF_SHIFT: from the 4th strike on
        // the cooldown stays at 4 << 3 = 32.
        for strike in 4u32..7 {
            for _ in 0..64 {
                if f.healthy().contains(&0) {
                    break;
                }
                f.begin_frame();
            }
            assert_eq!(f.quarantine(0), 32, "strike {strike}");
            assert_eq!(f.states()[0].strikes, strike);
        }
        // A long clean streak decays strikes back down.
        let mut f = fleet(2);
        f.quarantine(0);
        for _ in 0..4 + 8 {
            f.begin_frame();
        }
        assert_eq!(f.states()[0].strikes, 0);
        assert_eq!(f.quarantine(0), 4);
    }

    #[test]
    fn exhausted_fleet_assigns_nothing() {
        let mut f = fleet(2);
        f.quarantine(0);
        f.quarantine(1);
        assert!(f.begin_frame().is_empty());
        assert_eq!(f.assign(0), None);
        f.record_exhausted();
        assert_eq!(f.exhausted_frames(), 1);
        f.reset();
        assert_eq!(f.healthy(), vec![0, 1]);
        assert_eq!(f.quarantines(), 0);
    }
}
