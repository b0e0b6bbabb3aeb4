//! `NHOGMem`: the banked normalized-HOG feature memory.
//!
//! [Hemmati et al., DSD'14] store normalized features in **16 memory
//! banks** — cells grouped by their (x, y) parity (4 groups) × their four
//! role copies (LU/RU/LB/RB) — so the classifier can fetch 16 features per
//! cycle without bank conflicts. The DAC'17 paper keeps the structure but
//! shrinks the buffer from 135 cell rows to an **18-row ring** ("we have
//! reduced the size of NHOGMEM to store only 18 rows of cells instead of
//! 135", §5): 16 rows cover one window height plus two rows of slack for
//! the producer/consumer overlap.

use crate::ecc::{self, Decoded, EccMode, EccStats};
use crate::norm_unit::{HwFeatureMap, CELL_FEATURES};

/// Number of banks (2×2 cell parity × 4 roles).
pub const BANKS: usize = 16;

/// Cell rows resident in the ring buffer (paper §5).
pub const RING_ROWS: usize = 18;

/// Statistics the model tracks for verification and the resource model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemStats {
    /// Cell writes accepted.
    pub writes: u64,
    /// Window-column reads served.
    pub column_reads: u64,
    /// Rows evicted by the ring so far.
    pub evictions: u64,
}

/// The banked ring-buffer feature memory.
///
/// Rows are written in order by the normalizer and evicted FIFO once more
/// than [`RING_ROWS`] are resident; reads assert residency, which is
/// exactly the stall-freedom property the paper's schedule guarantees.
#[derive(Debug, Clone)]
pub struct NhogMem {
    cells_x: usize,
    /// Resident rows: (cell_row_index, stored words). With ECC off a word
    /// is the raw feature (`i32` bit-cast); with SECDED it is the 39-bit
    /// codeword.
    rows: std::collections::VecDeque<(usize, Vec<u64>)>,
    next_row: usize,
    capacity_rows: usize,
    stats: MemStats,
    ecc_mode: EccMode,
    ecc_stats: EccStats,
    scrub_cursor: usize,
}

impl NhogMem {
    /// Creates a memory for a frame `cells_x` cells wide, ECC off (the
    /// baseline design — bit-identical to the unprotected datapath).
    ///
    /// # Panics
    ///
    /// Panics if `cells_x == 0`.
    #[must_use]
    pub fn new(cells_x: usize) -> Self {
        Self::with_ecc(cells_x, EccMode::Off)
    }

    /// Creates a memory with an explicit ECC mode and the paper's
    /// [`RING_ROWS`]-row ring.
    ///
    /// # Panics
    ///
    /// Panics if `cells_x == 0`.
    #[must_use]
    pub fn with_ecc(cells_x: usize, ecc_mode: EccMode) -> Self {
        Self::with_capacity(cells_x, ecc_mode, RING_ROWS)
    }

    /// Creates a memory with an explicit ring capacity — the
    /// `buffered_rows` axis of a shard geometry. Capacities above 18
    /// only widen residency; reads of resident rows are bit-identical
    /// regardless of capacity.
    ///
    /// # Panics
    ///
    /// Panics if `cells_x == 0` or `capacity_rows == 0`.
    #[must_use]
    pub fn with_capacity(cells_x: usize, ecc_mode: EccMode, capacity_rows: usize) -> Self {
        assert!(cells_x > 0, "memory must be at least one cell wide");
        assert!(capacity_rows > 0, "ring must hold at least one row");
        Self {
            cells_x,
            rows: std::collections::VecDeque::new(),
            next_row: 0,
            capacity_rows,
            stats: MemStats::default(),
            ecc_mode,
            ecc_stats: EccStats::default(),
            scrub_cursor: 0,
        }
    }

    /// Starts the write sequence at cell row `row` instead of 0 — how a
    /// shard begins filling its ring at its band's first halo row
    /// without streaming the rows above it.
    ///
    /// # Panics
    ///
    /// Panics if any row has already been written.
    pub fn seek_row(&mut self, row: usize) {
        assert!(
            self.rows.is_empty() && self.next_row == 0,
            "seek_row on a non-empty ring"
        );
        self.next_row = row;
    }

    /// Frame width in cells.
    #[must_use]
    pub fn cells_x(&self) -> usize {
        self.cells_x
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// The ECC mode in force.
    #[must_use]
    pub fn ecc_mode(&self) -> EccMode {
        self.ecc_mode
    }

    /// SECDED counters accumulated so far (all zero with ECC off).
    #[must_use]
    pub fn ecc_stats(&self) -> &EccStats {
        &self.ecc_stats
    }

    /// Width in bits of one stored word under the current mode.
    #[must_use]
    pub fn word_bits(&self) -> u32 {
        self.ecc_mode.code_bits()
    }

    /// Which bank the feature `(cx, cy, role)` lives in: 2×2 cell parity
    /// crossed with the role index.
    #[must_use]
    pub fn bank_of(cx: usize, cy: usize, role: usize) -> usize {
        debug_assert!(role < 4);
        (role << 2) | ((cy & 1) << 1) | (cx & 1)
    }

    /// Encodes one feature word for storage under the current mode.
    fn store_word(&self, value: i32) -> u64 {
        match self.ecc_mode {
            EccMode::Off => u64::from(value as u32),
            EccMode::Secded => ecc::encode(value as u32),
        }
    }

    /// Bank of the `word`-th feature of row `cy` (cell-major layout:
    /// `word = cx * 36 + role * 9 + bin`).
    fn bank_of_word(cy: usize, word: usize) -> usize {
        let cx = word / CELL_FEATURES;
        let role = (word % CELL_FEATURES) / 9;
        NhogMem::bank_of(cx, cy, role)
    }

    /// Decodes one stored word, crediting corrections/detections to the
    /// owning bank. Returns the payload (suspect when uncorrectable).
    fn load_word(ecc_mode: EccMode, ecc_stats: &mut EccStats, bank: usize, stored: u64) -> i32 {
        match ecc_mode {
            EccMode::Off => stored as u32 as i32,
            EccMode::Secded => {
                let decoded = ecc::decode(stored);
                match decoded {
                    Decoded::Clean(_) => {}
                    Decoded::Corrected { .. } => ecc_stats.corrected[bank] += 1,
                    Decoded::Uncorrectable { .. } => ecc_stats.uncorrectable[bank] += 1,
                }
                decoded.data() as i32
            }
        }
    }

    /// Writes the next cell row (must be row `self.next_row`), evicting
    /// the oldest row if the ring is full. With SECDED enabled, each
    /// write also scrubs one resident row: the ring-buffer reuse already
    /// touches the memory once per produced row, so the scrub pass rides
    /// along at no extra schedule cost and re-encodes any word whose
    /// stored copy has accumulated a correctable upset.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != cells_x * 36`.
    pub fn write_row(&mut self, row: Vec<i32>) {
        assert_eq!(
            row.len(),
            self.cells_x * CELL_FEATURES,
            "row width mismatch"
        );
        if self.rows.len() == self.capacity_rows {
            self.rows.pop_front();
            self.stats.evictions += 1;
        }
        let stored = row.iter().map(|&v| self.store_word(v)).collect();
        self.rows.push_back((self.next_row, stored));
        self.next_row += 1;
        self.stats.writes = self.stats.writes.saturating_add(self.cells_x as u64);
        if self.ecc_mode == EccMode::Secded {
            self.scrub_next_row();
        }
    }

    /// One opportunistic scrub step: decode every word of the next
    /// resident row (round-robin), write corrected codewords back, and
    /// count multi-bit detections. Leaves uncorrectable words untouched —
    /// the read path reports them again so they cannot slip by.
    fn scrub_next_row(&mut self) {
        if self.rows.is_empty() {
            return;
        }
        let idx = self.scrub_cursor % self.rows.len();
        self.scrub_cursor = self.scrub_cursor.wrapping_add(1);
        let (cy, row) = &mut self.rows[idx];
        let cy = *cy;
        for (word, stored) in row.iter_mut().enumerate() {
            self.ecc_stats.scrubbed_words += 1;
            match ecc::decode(*stored) {
                Decoded::Clean(_) => {}
                Decoded::Corrected { data, .. } => {
                    *stored = ecc::encode(data);
                    self.ecc_stats.scrub_corrected += 1;
                    self.ecc_stats.corrected[Self::bank_of_word(cy, word)] += 1;
                }
                Decoded::Uncorrectable { .. } => {
                    self.ecc_stats.uncorrectable[Self::bank_of_word(cy, word)] += 1;
                }
            }
        }
    }

    /// Flips bit `bit` of word `word_in_row` of resident cell row `cy` —
    /// the injection hook used by the engine's per-strip dose, which
    /// targets rows it knows are still scheduled for reads. Returns
    /// `false` without touching anything when row `cy` is not resident.
    ///
    /// # Panics
    ///
    /// Panics if `word_in_row >= cells_x * 36` or `bit >= word_bits()`.
    pub fn inject_bit_flip_in_row(&mut self, cy: usize, word_in_row: usize, bit: u32) -> bool {
        assert!(
            word_in_row < self.cells_x * CELL_FEATURES,
            "word index out of range"
        );
        assert!(bit < self.word_bits(), "bit index out of range");
        match self.rows.iter_mut().find(|(r, _)| *r == cy) {
            Some((_, row)) => {
                row[word_in_row] ^= 1u64.wrapping_shl(bit);
                true
            }
            None => false,
        }
    }

    /// Loads a whole feature map row by row (test/driver convenience).
    pub fn load_rows_through(&mut self, map: &HwFeatureMap, last_row: usize) {
        let (cells_x, cells_y) = map.cells();
        assert_eq!(cells_x, self.cells_x, "map width mismatch");
        assert!(last_row < cells_y, "row out of range");
        while self.next_row <= last_row {
            let cy = self.next_row;
            let mut row = Vec::with_capacity(cells_x * CELL_FEATURES);
            for cx in 0..cells_x {
                row.extend_from_slice(map.cell(cx, cy));
            }
            self.write_row(row);
        }
    }

    /// Whether cell row `cy` is currently resident.
    #[must_use]
    pub fn row_resident(&self, cy: usize) -> bool {
        self.rows.iter().any(|(row, _)| *row == cy)
    }

    /// Reads one window column: the 36 features of each of `height` cells
    /// starting at `(cx, cy_top)`. Costs 36 cycles of bank reads in the
    /// real design (16 banks × 36 cycles = 576 features = 16 cells × 36).
    ///
    /// # Panics
    ///
    /// Panics if any requested row is not resident (a schedule violation)
    /// or the column is out of range.
    #[must_use]
    pub fn read_window_column(&mut self, cx: usize, cy_top: usize, height: usize) -> Vec<i32> {
        assert!(cx < self.cells_x, "column out of range");
        let mut out = Vec::with_capacity(height * CELL_FEATURES);
        for dy in 0..height {
            let cy = cy_top + dy;
            let (_, row) = self
                .rows
                .iter()
                .find(|(r, _)| *r == cy)
                // rtped-lint: allow(unwrap-in-library, "models an RTL assertion: a non-resident row is a bug in the cycle schedule itself, not a runtime input; documented under # Panics")
                .unwrap_or_else(|| panic!("schedule violation: cell row {cy} not resident"));
            let base = cx * CELL_FEATURES;
            for (offset, &stored) in row[base..base + CELL_FEATURES].iter().enumerate() {
                let bank = Self::bank_of_word(cy, base + offset);
                out.push(Self::load_word(
                    self.ecc_mode,
                    &mut self.ecc_stats,
                    bank,
                    stored,
                ));
            }
        }
        self.stats.column_reads += 1;
        out
    }

    /// Rows the ring can hold before evicting.
    #[must_use]
    pub fn capacity_rows(&self) -> usize {
        self.capacity_rows
    }
}

/// How features are distributed over the physical banks — the design
/// decision §5 spends most of its memory discussion on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankLayout {
    /// The paper's layout: cell (x, y) parity × role ⇒ 16 banks
    /// ([Hemmati et al., DSD'14]).
    ParityRole,
    /// A naive layout for comparison: features striped over 16 banks by
    /// flat word index (`word % 16`).
    WordInterleaved,
}

impl BankLayout {
    /// Bank index of feature word `(cx, cy, role, bin)`.
    #[must_use]
    pub fn bank_of(self, cx: usize, cy: usize, role: usize, bin: usize) -> usize {
        match self {
            BankLayout::ParityRole => NhogMem::bank_of(cx, cy, role),
            BankLayout::WordInterleaved => {
                // Flat word index within the row (the row coordinate does
                // not participate), striped across banks.
                let _ = cy;
                (cx * CELL_FEATURES + role * 9 + bin) % BANKS
            }
        }
    }
}

/// Result of analyzing one two-block-column read under a bank layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessSchedule {
    /// Words the access set needs in total (`2 × 16 × 36 = 1152`).
    pub total_words: u64,
    /// The most-loaded bank's word count — with single-ported banks this
    /// is the minimum number of cycles the read can take (König's
    /// theorem: a bipartite request multigraph edge-colors with
    /// max-degree colors, so the bound is achievable).
    pub min_cycles: u64,
    /// Stall cycles versus a perfectly balanced layout
    /// (`min_cycles − total / 16`).
    pub stall_cycles: u64,
}

impl AccessSchedule {
    /// Whether the layout serves this access set with zero stalls.
    #[must_use]
    pub fn is_conflict_free(&self) -> bool {
        self.stall_cycles == 0
    }
}

/// Analyzes the classifier's *two-block-column* access set — the unit of
/// §5's schedule ("calculating the dot product for two block columns
/// every 72 cycles by circling through four different categories of
/// feature data groups, i.e. LU, RU, LB, and RB") — under a bank layout.
///
/// The set is every word of both cell columns `cx` and `cx + 1` over the
/// 16-cell window height: `2 × 16 × 36 = 1152` words. With 16
/// single-ported banks the read needs at least `max_bank_load` cycles;
/// the paper's parity×role layout balances all banks at exactly 72 —
/// which is where its "two block columns every 72 cycles" comes from.
#[must_use]
pub fn analyze_column_pair_access(layout: BankLayout, cx: usize, cy_top: usize) -> AccessSchedule {
    let mut per_bank = [0u64; BANKS];
    for col in [cx, cx + 1] {
        for lane in 0..16 {
            let cy = cy_top + lane;
            for role in 0..4 {
                for bin in 0..9 {
                    per_bank[layout.bank_of(col, cy, role, bin)] += 1;
                }
            }
        }
    }
    let total_words: u64 = per_bank.iter().sum();
    let min_cycles = per_bank.iter().copied().max().unwrap_or(0);
    AccessSchedule {
        total_words,
        min_cycles,
        // The per-bank max is never below the floor average, so this
        // cannot underflow; saturating keeps the schedule total anyway.
        stall_cycles: min_cycles.saturating_sub(total_words / BANKS as u64),
    }
}

#[cfg(test)]
impl NhogMem {
    /// Total storage in feature words (for the resource model):
    /// `capacity_rows × cells_x × 36` (18 rows in the paper design).
    #[must_use]
    pub fn capacity_words(&self) -> usize {
        self.capacity_rows * self.cells_x * CELL_FEATURES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(cells_x: usize, cells_y: usize) -> HwFeatureMap {
        let mut data = vec![0i32; cells_x * cells_y * CELL_FEATURES];
        for (i, v) in data.iter_mut().enumerate() {
            *v = (i % 32768) as i32;
        }
        HwFeatureMap::from_raw(cells_x, cells_y, data)
    }

    #[test]
    fn bank_mapping_is_a_bijection_over_parity_and_role() {
        let mut seen = [false; BANKS];
        for role in 0..4 {
            for cy in 0..2 {
                for cx in 0..2 {
                    let b = NhogMem::bank_of(cx, cy, role);
                    assert!(b < BANKS);
                    assert!(!seen[b], "bank {b} assigned twice");
                    seen[b] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn window_column_neighbours_hit_distinct_banks() {
        // The 16 features the classifier needs in one cycle — one role of
        // each cell in a 2x2 neighbourhood across 4 roles — never collide.
        for (cx, cy) in [(0, 0), (3, 7), (10, 11)] {
            let mut banks = std::collections::HashSet::new();
            for role in 0..4 {
                for (dx, dy) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
                    banks.insert(NhogMem::bank_of(cx + dx, cy + dy, role));
                }
            }
            assert_eq!(banks.len(), 16);
        }
    }

    #[test]
    fn ring_keeps_exactly_18_rows() {
        let m = map(8, 40);
        let mut mem = NhogMem::new(8);
        mem.load_rows_through(&m, 39);
        assert_eq!(mem.stats().evictions, 40 - RING_ROWS as u64);
        assert!(mem.row_resident(39));
        assert!(mem.row_resident(22));
        assert!(!mem.row_resident(21));
    }

    #[test]
    fn read_window_column_returns_residents() {
        let m = map(8, 20);
        let mut mem = NhogMem::new(8);
        mem.load_rows_through(&m, 17); // rows 0..=17 resident (18 rows)
        let col = mem.read_window_column(3, 1, 16);
        assert_eq!(col.len(), 16 * CELL_FEATURES);
        // Values match the map.
        assert_eq!(&col[0..CELL_FEATURES], m.cell(3, 1));
        assert_eq!(&col[15 * CELL_FEATURES..16 * CELL_FEATURES], m.cell(3, 16));
        assert_eq!(mem.stats().column_reads, 1);
    }

    #[test]
    #[should_panic(expected = "schedule violation")]
    fn reading_evicted_row_panics() {
        let m = map(8, 40);
        let mut mem = NhogMem::new(8);
        mem.load_rows_through(&m, 39); // rows 22..=39 resident
        let _ = mem.read_window_column(0, 0, 16);
    }

    #[test]
    fn window_schedule_never_violates_the_ring() {
        // The paper's schedule: the classifier consumes window strip cy
        // only after rows cy..cy+15 are written, and the producer is at
        // most 2 rows ahead (18-row ring). Simulate producer/consumer.
        let m = map(10, 60);
        let mut mem = NhogMem::new(10);
        for strip in 0..=60 - 16 {
            // Producer: write rows up to strip + 17 (2 rows of slack),
            // bounded by the frame height.
            let through = (strip + 17).min(59);
            mem.load_rows_through(&m, through);
            // Consumer: read every window column of this strip.
            for cx in 0..10 {
                let _ = mem.read_window_column(cx, strip, 16);
            }
        }
        assert_eq!(mem.stats().column_reads, 45 * 10);
    }

    #[test]
    fn capacity_matches_18_row_budget() {
        let mem = NhogMem::new(240);
        // HDTV: 18 x 240 x 36 words.
        assert_eq!(mem.capacity_words(), 18 * 240 * 36);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn write_row_checks_width() {
        let mut mem = NhogMem::new(8);
        mem.write_row(vec![0; 5]);
    }

    #[test]
    fn parity_role_layout_reads_two_columns_in_72_cycles() {
        // The paper's number: "two block columns every 72 cycles". The
        // parity×role banking balances the 1152-word access set at
        // exactly 72 words per bank.
        for (cx, cy) in [(0, 0), (3, 5), (10, 2)] {
            let schedule = analyze_column_pair_access(BankLayout::ParityRole, cx, cy);
            assert_eq!(schedule.total_words, 1152);
            assert_eq!(schedule.min_cycles, 72, "at ({cx},{cy})");
            assert!(schedule.is_conflict_free());
        }
    }

    #[test]
    fn word_interleaved_layout_stalls() {
        // The ablation: naive word striping ignores the access pattern's
        // structure and overloads some banks, so the same read takes
        // longer — the §5 "memory access bandwidth" problem the grouped
        // layout solves.
        let naive = analyze_column_pair_access(BankLayout::WordInterleaved, 3, 5);
        assert_eq!(naive.total_words, 1152);
        assert!(
            naive.min_cycles > 72,
            "naive layout unexpectedly balanced: {naive:?}"
        );
        assert!(!naive.is_conflict_free());
    }

    #[test]
    fn parity_role_beats_naive_for_every_column_pair() {
        for cx in 0..12 {
            let grouped = analyze_column_pair_access(BankLayout::ParityRole, cx, 0);
            let naive = analyze_column_pair_access(BankLayout::WordInterleaved, cx, 0);
            assert!(grouped.min_cycles <= naive.min_cycles, "cx = {cx}");
        }
    }

    #[test]
    fn ecc_off_reads_are_bit_identical_to_the_raw_path() {
        let m = map(8, 20);
        let mut plain = NhogMem::new(8);
        let mut secded = NhogMem::with_ecc(8, EccMode::Secded);
        plain.load_rows_through(&m, 17);
        secded.load_rows_through(&m, 17);
        for cx in 0..8 {
            assert_eq!(
                plain.read_window_column(cx, 1, 16),
                secded.read_window_column(cx, 1, 16)
            );
        }
        assert_eq!(plain.ecc_stats().detected_total(), 0);
        assert_eq!(secded.ecc_stats().uncorrectable_total(), 0);
    }

    #[test]
    fn single_bit_flip_is_corrected_and_attributed_to_a_bank() {
        let m = map(8, 20);
        let mut mem = NhogMem::with_ecc(8, EccMode::Secded);
        mem.load_rows_through(&m, 17);
        // Flip a high bit of word 3 of resident row 0 (cy = 0): the read
        // must still return the exact map data.
        assert!(mem.inject_bit_flip_in_row(0, 3, 38));
        let col = mem.read_window_column(0, 0, 16);
        assert_eq!(&col[0..CELL_FEATURES], m.cell(0, 0));
        assert_eq!(mem.ecc_stats().corrected_total(), 1);
        assert_eq!(mem.ecc_stats().uncorrectable_total(), 0);
        // word 3 -> cx 0, role 0, cy 0 -> bank 0.
        assert_eq!(mem.ecc_stats().corrected[0], 1);
    }

    #[test]
    fn double_bit_flip_is_detected_not_silently_accepted() {
        let m = map(8, 20);
        let mut mem = NhogMem::with_ecc(8, EccMode::Secded);
        mem.load_rows_through(&m, 17);
        assert!(mem.inject_bit_flip_in_row(0, 3, 5));
        assert!(mem.inject_bit_flip_in_row(0, 3, 21));
        let _ = mem.read_window_column(0, 0, 16);
        assert_eq!(mem.ecc_stats().uncorrectable_total(), 1);
    }

    #[test]
    fn scrub_repairs_a_correctable_upset_in_place() {
        let m = map(8, 40);
        let mut mem = NhogMem::with_ecc(8, EccMode::Secded);
        mem.load_rows_through(&m, 17);
        // Corrupt a word in the row the next scrub step will visit: 18
        // writes have advanced the cursor to ring index 18 % 18 = 0, and
        // the write below evicts cy 0 first, so ring index 0 is cy 1.
        assert!(mem.inject_bit_flip_in_row(1, 7, 2));
        let before = mem.ecc_stats().scrub_corrected;
        mem.load_rows_through(&m, 18); // one write -> one scrub step
        assert_eq!(mem.ecc_stats().scrub_corrected, before + 1);
        // The stored word is clean again: a read reports no new error.
        let corrected = mem.ecc_stats().corrected_total();
        let col = mem.read_window_column(0, 1, 16);
        assert_eq!(&col[0..CELL_FEATURES], m.cell(0, 1));
        assert_eq!(mem.ecc_stats().corrected_total(), corrected);
    }

    #[test]
    fn secded_schedule_run_is_clean_without_injection() {
        let m = map(10, 60);
        let mut mem = NhogMem::with_ecc(10, EccMode::Secded);
        for strip in 0..=60 - 16 {
            let through = (strip + 17).min(59);
            mem.load_rows_through(&m, through);
            for cx in 0..10 {
                let _ = mem.read_window_column(cx, strip, 16);
            }
        }
        assert_eq!(mem.ecc_stats().detected_total(), 0);
        assert!(mem.ecc_stats().scrubbed_words > 0);
    }

    #[test]
    fn seventy_two_cycles_matches_the_pipeline_rate() {
        // Two block columns / 72 cycles = one window column / 36 cycles,
        // the number the engine's schedule is built from.
        let schedule = analyze_column_pair_access(BankLayout::ParityRole, 0, 0);
        let column = crate::shard::ShardGeometry::paper().column_cycles();
        assert_eq!(schedule.min_cycles / 2, column);
    }
}
