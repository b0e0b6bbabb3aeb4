//! Video-stream simulation: frame pipelining, initiation interval, and
//! detection latency.
//!
//! The paper's throughput claim ("60 fps HDTV") is about the *initiation
//! interval*: a new frame can enter every 16.6 ms because extraction and
//! classification overlap. For a driver-assistance system the *latency*
//! — pixel-in to detection-out — matters too, because it eats into the
//! perception-reaction budget of §1. This module models both:
//!
//! - the extractor ingests one pixel per cycle, so a frame is fully
//!   streamed after `width × height` cycles;
//! - the classifier trails the extractor row by row (the 18-row ring of
//!   `NHOGMem` keeps it at most two cell rows behind), so detections for
//!   the last window strip are ready one strip-time after the last pixel:
//!   `latency = pixels + fill + (cells_x - 1) × column` cycles, with the
//!   fill and column times of the accelerator's geometry (288 and 36 at
//!   the paper point);
//! - frames arriving faster than the initiation interval are dropped
//!   (a real camera cannot be back-pressured).

use rtped_core::json::obj;
use rtped_core::{Json, ToJson};
use rtped_detect::detector::Detection;
use rtped_image::GrayImage;

use crate::pipeline::HogAccelerator;
use crate::timing::pixel_stream_cycles;

/// Timing of one frame through the pipelined accelerator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameTiming {
    /// Index in the input stream.
    pub frame_index: usize,
    /// Cycle at which the camera began delivering the frame.
    pub arrival_cycle: u64,
    /// Cycle at which the accelerator began ingesting it (equals arrival
    /// unless the pipeline was still busy).
    pub start_cycle: u64,
    /// Cycle at which the last pixel was ingested.
    pub pixels_done_cycle: u64,
    /// Cycle at which the last window's detection is available.
    pub detections_ready_cycle: u64,
}

impl FrameTiming {
    /// Pixel-in to detection-out latency in cycles.
    #[must_use]
    pub fn latency_cycles(&self) -> u64 {
        self.detections_ready_cycle - self.start_cycle
    }
}

/// The outcome of streaming a frame sequence.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Per processed frame: timing plus its detections.
    pub frames: Vec<(FrameTiming, Vec<Detection>)>,
    /// Indices of frames dropped because the pipeline was busy.
    pub dropped: Vec<usize>,
    /// The pipeline's initiation interval in cycles.
    pub initiation_interval: u64,
}

impl StreamReport {
    /// Worst-case detection latency over the processed frames.
    #[must_use]
    pub fn max_latency_cycles(&self) -> u64 {
        self.frames
            .iter()
            .map(|(t, _)| t.latency_cycles())
            .max()
            .unwrap_or(0)
    }

    /// Aggregate drop/latency accounting, suitable for run artifacts.
    #[must_use]
    pub fn stats(&self) -> StreamStats {
        let offered = self.frames.len() + self.dropped.len();
        StreamStats {
            frames_offered: offered,
            frames_processed: self.frames.len(),
            frames_dropped: self.dropped.len(),
            initiation_interval_cycles: self.initiation_interval,
            max_latency_cycles: self.max_latency_cycles(),
            total_detections: self.frames.iter().map(|(_, d)| d.len()).sum(),
        }
    }
}

/// Aggregate counters summarizing a [`StreamReport`] — the drop
/// accounting a robustness run records alongside its degradation events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamStats {
    /// Frames the camera offered (processed + dropped).
    pub frames_offered: usize,
    /// Frames the pipeline actually ingested.
    pub frames_processed: usize,
    /// Frames dropped because the pipeline was still busy.
    pub frames_dropped: usize,
    /// The pipeline's initiation interval in cycles.
    pub initiation_interval_cycles: u64,
    /// Worst pixel-in to detection-out latency in cycles.
    pub max_latency_cycles: u64,
    /// Detections summed over every processed frame.
    pub total_detections: usize,
}

impl ToJson for StreamStats {
    fn to_json(&self) -> Json {
        obj([
            ("frames_offered", self.frames_offered.into()),
            ("frames_processed", self.frames_processed.into()),
            ("frames_dropped", self.frames_dropped.into()),
            (
                "initiation_interval_cycles",
                self.initiation_interval_cycles.into(),
            ),
            ("max_latency_cycles", self.max_latency_cycles.into()),
            ("total_detections", self.total_detections.into()),
        ])
    }
}

/// Streams frames through a [`HogAccelerator`] with a camera period.
#[derive(Debug, Clone)]
pub struct StreamSimulator {
    accelerator: HogAccelerator,
}

impl StreamSimulator {
    /// Wraps an accelerator.
    #[must_use]
    pub fn new(accelerator: HogAccelerator) -> Self {
        Self { accelerator }
    }

    /// The tail between the last pixel and the last detection: one window
    /// strip through the classifier, at the accelerator's geometry.
    #[must_use]
    pub fn classifier_tail_cycles(&self, cells_x: usize) -> u64 {
        self.accelerator
            .config()
            .geometry
            .strip_cycles(cells_x.max(1))
    }

    /// Processes `frames` arriving every `camera_period_cycles`.
    ///
    /// All frames must share the dimensions of the first; the initiation
    /// interval is the max of the pixel-stream time and the classifier
    /// time per frame. A frame whose arrival falls while the previous
    /// frame is still being ingested is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty, dimensions differ, or the period is 0.
    #[must_use]
    pub fn process_stream(&self, frames: &[GrayImage], camera_period_cycles: u64) -> StreamReport {
        assert!(!frames.is_empty(), "need at least one frame");
        assert!(camera_period_cycles > 0, "camera period must be non-zero");
        let dims = frames[0].dimensions();
        assert!(
            frames.iter().all(|f| f.dimensions() == dims),
            "all frames must share dimensions"
        );
        let stream_cycles = pixel_stream_cycles(dims.0, dims.1);
        let cells_x = dims.0 / 8;
        let cells_y = dims.1 / 8;
        let geometry = self.accelerator.config().geometry;
        let classifier_cycles = geometry.frame_cycles(cells_x.max(1), cells_y.max(1));
        let initiation_interval = stream_cycles.max(classifier_cycles);
        let tail = self.classifier_tail_cycles(cells_x);

        let mut out = Vec::new();
        let mut dropped = Vec::new();
        let mut pipeline_free_at = 0u64;
        for (i, frame) in frames.iter().enumerate() {
            let arrival = i as u64 * camera_period_cycles;
            if arrival < pipeline_free_at {
                dropped.push(i);
                continue;
            }
            let start = arrival;
            let pixels_done = start + stream_cycles;
            let detections_ready = pixels_done + tail;
            // The next frame can start once the pipeline has ingested this
            // one AND the classifier can keep up.
            pipeline_free_at = start + initiation_interval;

            let report = self.accelerator.process(frame);
            out.push((
                FrameTiming {
                    frame_index: i,
                    arrival_cycle: arrival,
                    start_cycle: start,
                    pixels_done_cycle: pixels_done,
                    detections_ready_cycle: detections_ready,
                },
                report.detections,
            ));
        }
        StreamReport {
            frames: out,
            dropped,
            initiation_interval,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::AcceleratorConfig;
    use crate::shard::ShardGeometry;
    use crate::timing::ClockDomain;
    use rtped_svm::LinearSvm;

    fn frames(n: usize, w: usize, h: usize) -> Vec<GrayImage> {
        (0..n)
            .map(|k| GrayImage::from_fn(w, h, |x, y| ((x * 3 + y * 7 + k * 11) % 256) as u8))
            .collect()
    }

    fn simulator() -> StreamSimulator {
        let model = LinearSvm::new(vec![0.0; 4608], -1.0);
        StreamSimulator::new(HogAccelerator::new(&model, AcceleratorConfig::default()))
    }

    #[test]
    fn matched_camera_rate_drops_nothing() {
        let sim = simulator();
        let fs = frames(4, 160, 128);
        let stream_cycles = pixel_stream_cycles(160, 128);
        let report = sim.process_stream(&fs, stream_cycles);
        assert!(report.dropped.is_empty());
        assert_eq!(report.frames.len(), 4);
    }

    #[test]
    fn too_fast_camera_drops_frames() {
        let sim = simulator();
        let fs = frames(6, 160, 128);
        let stream_cycles = pixel_stream_cycles(160, 128);
        // Camera twice as fast as the pipeline: every other frame drops.
        let report = sim.process_stream(&fs, stream_cycles / 2);
        assert_eq!(report.dropped, vec![1, 3, 5]);
        assert_eq!(report.frames.len(), 3);
    }

    #[test]
    fn latency_is_stream_plus_one_strip() {
        let sim = simulator();
        let fs = frames(1, 160, 128);
        let report = sim.process_stream(&fs, 1_000_000);
        let timing = &report.frames[0].0;
        let expected_tail = sim.classifier_tail_cycles(20);
        assert_eq!(expected_tail, 288 + 19 * 36);
        assert_eq!(
            timing.latency_cycles(),
            pixel_stream_cycles(160, 128) + expected_tail
        );
    }

    #[test]
    fn hdtv_latency_is_a_tiny_fraction_of_the_prt_budget() {
        // §1: the driver needs ~1.5 s; detection must be a negligible
        // slice of that. HDTV: 16.59 ms stream + 71 us tail at 125 MHz.
        let clock = ClockDomain::MHZ_125;
        let latency = pixel_stream_cycles(1920, 1080) + simulator().classifier_tail_cycles(240);
        let seconds = clock.seconds(latency);
        assert!(seconds < 0.017, "latency {seconds} s");
        assert!(seconds / 1.5 < 0.012, "latency should be ~1% of PRT");
    }

    #[test]
    fn initiation_interval_is_the_slower_stage() {
        let sim = simulator();
        let fs = frames(1, 160, 128);
        let report = sim.process_stream(&fs, 1_000_000);
        let stream = pixel_stream_cycles(160, 128);
        let classifier = ShardGeometry::paper().frame_cycles(20, 16);
        assert_eq!(report.initiation_interval, stream.max(classifier));
    }

    fn simulator_at(geometry: ShardGeometry) -> StreamSimulator {
        let model = LinearSvm::new(vec![0.0; 4608], -1.0);
        let config = AcceleratorConfig {
            geometry,
            ..AcceleratorConfig::default()
        };
        StreamSimulator::new(HogAccelerator::new(&model, config))
    }

    #[test]
    fn tail_and_interval_follow_the_accelerator_geometry() {
        let fs = frames(1, 160, 128);
        let stream = pixel_stream_cycles(160, 128);
        // 32 banks x 16 MACBARs: an 18-cycle column, a 144-cycle fill.
        let wide = simulator_at(ShardGeometry::new(32, 16, 36).unwrap());
        assert_eq!(wide.classifier_tail_cycles(20), 144 + 19 * 18);
        let report = wide.process_stream(&fs, 1_000_000);
        assert_eq!(report.frames[0].0.latency_cycles(), stream + 144 + 19 * 18);
        assert_eq!(report.initiation_interval, stream.max(16 * (144 + 19 * 18)));
        // 2 MACBARs: a 144-cycle column, slow enough that the classifier,
        // not the pixel stream, sets the interval.
        let narrow = simulator_at(ShardGeometry::new(16, 2, 18).unwrap());
        let report = narrow.process_stream(&fs, 1_000_000);
        assert_eq!(report.initiation_interval, 16 * (1152 + 19 * 144));
        assert!(report.initiation_interval > stream);
    }

    #[test]
    fn stats_account_for_every_offered_frame() {
        let sim = simulator();
        let fs = frames(6, 160, 128);
        let stream_cycles = pixel_stream_cycles(160, 128);
        let report = sim.process_stream(&fs, stream_cycles / 2);
        let stats = report.stats();
        assert_eq!(stats.frames_offered, 6);
        assert_eq!(stats.frames_processed + stats.frames_dropped, 6);
        assert_eq!(stats.frames_dropped, 3);
        assert_eq!(stats.max_latency_cycles, report.max_latency_cycles());
        let json = stats.to_json();
        let text = json.to_string();
        assert!(text.contains("\"frames_dropped\":3"));
        assert!(text.contains("\"frames_offered\":6"));
    }

    #[test]
    #[should_panic(expected = "all frames must share dimensions")]
    fn mixed_dimensions_rejected() {
        let sim = simulator();
        let mut fs = frames(1, 160, 128);
        fs.push(GrayImage::new(64, 128));
        let _ = sim.process_stream(&fs, 1000);
    }

    #[test]
    #[should_panic(expected = "need at least one frame")]
    fn empty_stream_rejected() {
        let sim = simulator();
        let _ = sim.process_stream(&[], 1000);
    }
}
