//! Tick-driven model of the streaming HOG front end.
//!
//! [`crate::hist_unit::HistogramUnit`] computes the same numbers
//! frame-at-a-time; this module models *how the hardware actually gets
//! them*: a pixel enters every clock tick, two line buffers delay the
//! stream so the 3×3 gradient neighbourhood is available, votes
//! accumulate into one row of cell registers, and a completed cell row is
//! emitted every `8 × width` ticks. The unit tests pin down the timing
//! relationships (emission cadence, buffer occupancy, drain behaviour)
//! that the analytic model assumes.
//!
//! Schedule: pixel `(x, y)` arriving at tick `y·width + x + 1` makes the
//! gradient of `(x-1, y-1)` computable, so that pixel votes on the same
//! tick; the right-border pixel `(width-1, y-1)` votes together with its
//! left neighbour because its clamped right neighbour *is* itself. The
//! last image line is voted during a `width`-tick drain that replays the
//! line with a clamped bottom neighbour. Cell row `r` therefore completes
//! at tick `(8r + 9) · width`, one row every `8 · width` ticks.

use rtped_image::GrayImage;

use crate::gradient_unit::{vote_from_gradient, BINS};
use crate::hist_unit::CELL_SIZE;

/// One emitted cell row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRowEvent {
    /// Index of the completed cell row.
    pub cell_row: usize,
    /// Clock tick at which the row completed.
    pub tick: u64,
    /// The row's histograms: `cells_x × BINS` accumulator values.
    pub histograms: Vec<u32>,
}

/// The tick-driven extractor front end.
///
/// Feed pixels in raster order with [`StreamingExtractor::tick`]; call
/// [`StreamingExtractor::drain`] after the last pixel. Over complete cell
/// rows the output is bit-identical to
/// [`crate::hist_unit::HistogramUnit`].
#[derive(Debug, Clone)]
pub struct StreamingExtractor {
    width: usize,
    cells_x: usize,
    /// Line `y-2` of the stream (top neighbours).
    line_prev2: Vec<u8>,
    /// Line `y-1` (the line being voted).
    line_prev1: Vec<u8>,
    /// Line `y` (bottom neighbours), filling up.
    line_cur: Vec<u8>,
    x: usize,
    y: usize,
    tick: u64,
    row_acc: Vec<u32>,
}

impl StreamingExtractor {
    /// Creates an extractor for `width`-pixel scan lines with 8-pixel
    /// cells.
    ///
    /// # Panics
    ///
    /// Panics if `width < 8`.
    #[must_use]
    pub fn new(width: usize) -> Self {
        assert!(width >= CELL_SIZE, "stream must be at least one cell wide");
        let cells_x = width / CELL_SIZE;
        Self {
            width,
            cells_x,
            line_prev2: vec![0; width],
            line_prev1: vec![0; width],
            line_cur: vec![0; width],
            x: 0,
            y: 0,
            tick: 0,
            row_acc: vec![0; cells_x * BINS],
        }
    }

    /// Cells per row.
    #[must_use]
    pub fn cells_x(&self) -> usize {
        self.cells_x
    }

    /// Consumes one pixel; returns a completed cell row if this tick
    /// finished one.
    pub fn tick(&mut self, pixel: u8) -> Option<CellRowEvent> {
        self.line_cur[self.x] = pixel;
        self.tick += 1;

        let mut event = None;
        if self.y >= 1 && self.x >= 1 {
            let vy = self.y - 1;
            self.vote(self.x - 1, vy, false);
            if self.x == self.width - 1 {
                // The border pixel's clamped right neighbour is itself, so
                // it is computable on the same tick.
                self.vote(self.width - 1, vy, false);
                if (vy + 1).is_multiple_of(CELL_SIZE) {
                    event = Some(self.finish_row((vy + 1) / CELL_SIZE - 1));
                }
            }
        }

        self.x += 1;
        if self.x == self.width {
            self.x = 0;
            self.y += 1;
            std::mem::swap(&mut self.line_prev2, &mut self.line_prev1);
            std::mem::swap(&mut self.line_prev1, &mut self.line_cur);
        }
        event
    }

    /// Drains the pipeline after the last pixel of a `height`-line frame:
    /// replays the final line with a clamped bottom neighbour
    /// (`width` extra ticks) and emits the final cell row if complete.
    ///
    /// # Panics
    ///
    /// Panics if called mid-line (streams must be whole frames).
    pub fn drain(&mut self, height: usize) -> Vec<CellRowEvent> {
        assert_eq!(self.x, 0, "drain must follow a complete scan line");
        assert_eq!(self.y, height, "drain must follow the full frame");
        let mut events = Vec::new();
        if height == 0 {
            return events;
        }
        let vy = height - 1;
        for vx in 0..self.width {
            self.vote(vx, vy, true);
            self.tick += 1;
        }
        if (vy + 1).is_multiple_of(CELL_SIZE) {
            events.push(self.finish_row((vy + 1) / CELL_SIZE - 1));
        }
        events
    }

    /// Casts the vote of pixel `(vx, vy)`. After the line-buffer rotation
    /// at the end of each scan line, the voted line `y-1` lives in
    /// `line_prev1` *during* the line and also right after rotation; the
    /// drain path (`bottom_clamped`) votes the final line from
    /// `line_prev1` with itself as the bottom neighbour.
    fn vote(&mut self, vx: usize, vy: usize, bottom_clamped: bool) {
        let w = self.width;
        let (top, mid, bottom): (&[u8], &[u8], &[u8]) = if bottom_clamped {
            (&self.line_prev2, &self.line_prev1, &self.line_prev1)
        } else {
            (&self.line_prev2, &self.line_prev1, &self.line_cur)
        };
        let left = mid[vx.saturating_sub(1)];
        let right = mid[(vx + 1).min(w - 1)];
        // Top border clamp: line 0 has no line above.
        let up = if vy == 0 { mid[vx] } else { top[vx] };
        let down = bottom[vx];
        let fx = i16::from(right) - i16::from(left);
        let fy = i16::from(down) - i16::from(up);
        let vote = vote_from_gradient(fx, fy);
        if vote.magnitude == 0 {
            return;
        }
        let cx = vx / CELL_SIZE;
        if cx >= self.cells_x {
            return; // partial rightmost cell is dropped, as in the design
        }
        let (lo, hi) = vote.contributions();
        let base = cx * BINS;
        self.row_acc[base + usize::from(vote.bin_lo)] += lo;
        self.row_acc[base + usize::from(vote.bin_hi)] += hi;
    }

    fn finish_row(&mut self, cell_row: usize) -> CellRowEvent {
        let histograms = std::mem::replace(&mut self.row_acc, vec![0; self.cells_x * BINS]);
        CellRowEvent {
            cell_row,
            tick: self.tick,
            histograms,
        }
    }
}

/// Runs a whole frame through the tick model and returns all emitted
/// rows (stream + drain).
///
/// # Panics
///
/// Panics if the frame is narrower than one cell.
#[must_use]
pub fn stream_frame(img: &GrayImage) -> Vec<CellRowEvent> {
    let mut extractor = StreamingExtractor::new(img.width());
    let mut events = Vec::new();
    for y in 0..img.height() {
        for x in 0..img.width() {
            if let Some(e) = extractor.tick(img.get(x, y)) {
                events.push(e);
            }
        }
    }
    events.extend(extractor.drain(img.height()));
    events
}

#[cfg(test)]
impl StreamingExtractor {
    /// Ticks elapsed.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// Words of line-buffer storage the design instantiates (2 delay
    /// lines; the third "line" is the live input).
    #[must_use]
    pub fn line_buffer_words(&self) -> usize {
        2 * self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist_unit::HistogramUnit;

    fn textured(w: usize, h: usize) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| ((x * 41 + y * 17 + (x * y) % 7) % 256) as u8)
    }

    #[test]
    fn one_pixel_per_tick_plus_drain() {
        let img = textured(32, 32);
        let mut extractor = StreamingExtractor::new(32);
        for y in 0..32 {
            for x in 0..32 {
                let _ = extractor.tick(img.get(x, y));
            }
        }
        assert_eq!(extractor.ticks(), 32 * 32);
        let _ = extractor.drain(32);
        assert_eq!(extractor.ticks(), 32 * 32 + 32);
    }

    #[test]
    fn emits_one_event_per_cell_row() {
        let img = textured(32, 32);
        let events = stream_frame(&img);
        assert_eq!(events.len(), 4); // 32 / 8 cell rows
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.cell_row, i);
            assert_eq!(e.histograms.len(), 4 * BINS);
        }
    }

    #[test]
    fn emission_cadence_is_one_cell_row_of_ticks() {
        let img = textured(40, 48);
        let events = stream_frame(&img);
        assert_eq!(events.len(), 6);
        for (r, e) in events.iter().enumerate() {
            // Row r completes at tick (8r + 9) * width.
            assert_eq!(e.tick, ((8 * r as u64) + 9) * 40, "row {r}");
        }
        for pair in events.windows(2) {
            assert_eq!(pair[1].tick - pair[0].tick, 8 * 40);
        }
    }

    #[test]
    fn rows_match_the_frame_level_model_exactly() {
        // Same clamped borders, same votes: the tick model must agree
        // with HistogramUnit bit for bit on every cell row.
        let img = textured(64, 64);
        let events = stream_frame(&img);
        let reference = HistogramUnit::new().process_frame(&img);
        assert_eq!(events.len(), 8);
        for e in &events {
            for cx in 0..8 {
                let got = &e.histograms[cx * BINS..(cx + 1) * BINS];
                let want = reference.histogram(cx, e.cell_row);
                assert_eq!(got, want, "row {} cell {cx}", e.cell_row);
            }
        }
    }

    #[test]
    fn hdtv_frame_matches_reference() {
        // A full-width strip of an HDTV frame.
        let img = textured(1920, 16);
        let events = stream_frame(&img);
        let reference = HistogramUnit::new().process_frame(&img);
        assert_eq!(events.len(), 2);
        for e in &events {
            for cx in 0..240 {
                assert_eq!(
                    &e.histograms[cx * BINS..(cx + 1) * BINS],
                    reference.histogram(cx, e.cell_row),
                    "row {} cell {cx}",
                    e.cell_row
                );
            }
        }
    }

    #[test]
    fn line_buffer_budget_is_two_lines() {
        let extractor = StreamingExtractor::new(1920);
        assert_eq!(extractor.line_buffer_words(), 2 * 1920);
    }

    #[test]
    fn flat_frame_emits_zero_histograms() {
        let mut img = GrayImage::new(32, 32);
        img.fill(123);
        let events = stream_frame(&img);
        assert_eq!(events.len(), 4);
        for e in &events {
            assert!(e.histograms.iter().all(|&v| v == 0));
        }
    }

    #[test]
    fn partial_right_cell_is_dropped() {
        // 36-wide stream: 4 complete cells, 4 dropped pixels per line.
        let img = textured(36, 16);
        let events = stream_frame(&img);
        assert_eq!(events[0].histograms.len(), 4 * BINS);
        // Which must equal the reference (it also floors the grid).
        let reference = HistogramUnit::new().process_frame(&img);
        assert_eq!(&events[0].histograms[..BINS], reference.histogram(0, 0),);
    }

    #[test]
    #[should_panic(expected = "at least one cell wide")]
    fn narrow_stream_rejected() {
        let _ = StreamingExtractor::new(4);
    }

    #[test]
    #[should_panic(expected = "drain must follow the full frame")]
    fn drain_height_is_checked() {
        let mut extractor = StreamingExtractor::new(16);
        for _ in 0..16 {
            let _ = extractor.tick(0);
        }
        let _ = extractor.drain(2);
    }
}
