//! Temporal tracking of detections across frames.
//!
//! A driver-assistance system acts on *tracks*, not single-frame
//! detections: a pedestrian must persist across frames before braking is
//! warranted, and a single missed frame must not drop an established
//! target. This module provides the standard greedy-IoU tracker used
//! above sliding-window detectors: detections are associated to existing
//! tracks by IoU (highest score first), track boxes are smoothed
//! exponentially, tracks confirm after `min_hits` consecutive
//! associations and die after `max_misses` frames without one.

use crate::bbox::BoundingBox;
use crate::detector::Detection;

/// A tracked pedestrian.
#[derive(Debug, Clone, PartialEq)]
pub struct Track {
    /// Stable identifier, unique within one tracker instance.
    pub id: u64,
    /// Smoothed box in native frame coordinates.
    pub bbox: BoundingBox,
    /// Exponentially smoothed detection score.
    pub score: f64,
    /// Frames since the track was created.
    pub age: u64,
    /// Total number of associated detections.
    pub hits: u64,
    /// Consecutive frames without an associated detection.
    pub misses: u64,
    confirmed: bool,
}

/// Tracker configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackerParams {
    /// Minimum IoU for associating a detection with a track.
    pub iou_threshold: f64,
    /// Hits needed before a track is reported as confirmed.
    pub min_hits: u64,
    /// Consecutive misses before a track is dropped.
    pub max_misses: u64,
    /// Box/score smoothing factor in `(0, 1]`: 1 = no smoothing (snap to
    /// the newest detection).
    pub smoothing: f64,
}

impl Default for TrackerParams {
    fn default() -> Self {
        Self {
            iou_threshold: 0.3,
            min_hits: 3,
            max_misses: 2,
            smoothing: 0.5,
        }
    }
}

/// Greedy-IoU multi-object tracker.
///
/// # Example
///
/// ```
/// use rtped_detect::bbox::BoundingBox;
/// use rtped_detect::detector::Detection;
/// use rtped_detect::tracker::{Tracker, TrackerParams};
///
/// let mut tracker = Tracker::new(TrackerParams::default());
/// let det = Detection {
///     bbox: BoundingBox::new(10, 10, 64, 128),
///     score: 1.0,
///     scale: 1.0,
/// };
/// tracker.step(&[det]);
/// assert_eq!(tracker.tracks().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Tracker {
    params: TrackerParams,
    tracks: Vec<Track>,
    next_id: u64,
    frames: u64,
}

impl Tracker {
    /// Creates an empty tracker.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are out of range.
    #[must_use]
    pub fn new(params: TrackerParams) -> Self {
        assert!(
            params.iou_threshold > 0.0 && params.iou_threshold <= 1.0,
            "iou threshold must be in (0, 1]"
        );
        assert!(
            params.smoothing > 0.0 && params.smoothing <= 1.0,
            "smoothing must be in (0, 1]"
        );
        assert!(params.min_hits >= 1, "min_hits must be at least 1");
        Self {
            params,
            tracks: Vec::new(),
            next_id: 1,
            frames: 0,
        }
    }

    /// All live tracks (confirmed and tentative).
    #[must_use]
    pub fn tracks(&self) -> &[Track] {
        &self.tracks
    }

    /// Only the confirmed tracks — what a DAS decision layer consumes.
    pub fn confirmed(&self) -> impl Iterator<Item = &Track> {
        self.tracks.iter().filter(|t| t.confirmed)
    }

    /// Number of frames processed.
    #[must_use]
    pub fn frame_count(&self) -> u64 {
        self.frames
    }

    /// Advances one frame: associates `detections` to tracks, updates,
    /// spawns, and reaps. Returns the ids of tracks confirmed *this*
    /// frame (newly actionable targets).
    pub fn step(&mut self, detections: &[Detection]) -> Vec<u64> {
        self.frames += 1;
        for track in &mut self.tracks {
            track.age += 1;
        }

        // Greedy association: strongest detections claim tracks first.
        let mut order: Vec<usize> = (0..detections.len()).collect();
        order.sort_by(|&a, &b| {
            detections[b]
                .score
                .partial_cmp(&detections[a].score)
                .expect("detection scores must not be NaN")
        });
        let mut track_taken = vec![false; self.tracks.len()];
        let mut det_matched = vec![false; detections.len()];
        let mut newly_confirmed = Vec::new();

        for &di in &order {
            let det = &detections[di];
            let mut best: Option<(usize, f64)> = None;
            for (ti, track) in self.tracks.iter().enumerate() {
                if track_taken[ti] {
                    continue;
                }
                let iou = det.bbox.iou(&track.bbox);
                if iou >= self.params.iou_threshold && best.is_none_or(|(_, b)| iou > b) {
                    best = Some((ti, iou));
                }
            }
            if let Some((ti, _)) = best {
                track_taken[ti] = true;
                det_matched[di] = true;
                let was_confirmed = self.tracks[ti].confirmed;
                let alpha = self.params.smoothing;
                let track = &mut self.tracks[ti];
                track.hits += 1;
                track.misses = 0;
                track.score += (det.score - track.score) * alpha;
                track.bbox = blend_boxes(&track.bbox, &det.bbox, alpha);
                if track.hits >= self.params.min_hits {
                    track.confirmed = true;
                    if !was_confirmed {
                        newly_confirmed.push(track.id);
                    }
                }
            }
        }

        // Unmatched tracks miss; reap the stale ones.
        for (ti, taken) in track_taken.iter().enumerate() {
            if !taken {
                self.tracks[ti].misses += 1;
            }
        }
        let max_misses = self.params.max_misses;
        self.tracks.retain(|t| t.misses <= max_misses);

        // Unmatched detections spawn tentative tracks.
        for (di, matched) in det_matched.iter().enumerate() {
            if !matched {
                let det = &detections[di];
                let confirmed = self.params.min_hits <= 1;
                let id = self.next_id;
                self.next_id += 1;
                self.tracks.push(Track {
                    id,
                    bbox: det.bbox,
                    score: det.score,
                    age: 0,
                    hits: 1,
                    misses: 0,
                    confirmed,
                });
                if confirmed {
                    newly_confirmed.push(id);
                }
            }
        }
        newly_confirmed
    }
}

fn blend_boxes(old: &BoundingBox, new: &BoundingBox, alpha: f64) -> BoundingBox {
    let lerp = |a: f64, b: f64| a + (b - a) * alpha;
    BoundingBox::new(
        lerp(old.x as f64, new.x as f64).round() as i64,
        lerp(old.y as f64, new.y as f64).round() as i64,
        (lerp(old.width as f64, new.width as f64).round() as u64).max(1),
        (lerp(old.height as f64, new.height as f64).round() as u64).max(1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(x: i64, y: i64, score: f64) -> Detection {
        Detection {
            bbox: BoundingBox::new(x, y, 64, 128),
            score,
            scale: 1.0,
        }
    }

    #[test]
    fn track_confirms_after_min_hits() {
        let mut tracker = Tracker::new(TrackerParams {
            min_hits: 3,
            ..TrackerParams::default()
        });
        assert!(tracker.step(&[det(10, 10, 1.0)]).is_empty());
        assert!(tracker.step(&[det(12, 10, 1.0)]).is_empty());
        let confirmed = tracker.step(&[det(14, 10, 1.0)]);
        assert_eq!(confirmed.len(), 1);
        assert_eq!(tracker.confirmed().count(), 1);
        assert_eq!(tracker.tracks()[0].hits, 3);
    }

    #[test]
    fn identity_is_stable_across_frames() {
        let mut tracker = Tracker::new(TrackerParams::default());
        tracker.step(&[det(10, 10, 1.0)]);
        let id = tracker.tracks()[0].id;
        for k in 1..6 {
            tracker.step(&[det(10 + 3 * k, 10, 1.0)]);
        }
        assert_eq!(tracker.tracks().len(), 1);
        assert_eq!(tracker.tracks()[0].id, id);
        // The smoothed box followed the motion.
        assert!(tracker.tracks()[0].bbox.x > 10);
    }

    #[test]
    fn track_survives_a_missed_frame() {
        let mut tracker = Tracker::new(TrackerParams {
            max_misses: 2,
            min_hits: 1,
            ..TrackerParams::default()
        });
        tracker.step(&[det(10, 10, 1.0)]);
        tracker.step(&[]); // miss 1
        assert_eq!(tracker.tracks().len(), 1);
        tracker.step(&[det(12, 10, 1.0)]); // reacquired
        assert_eq!(tracker.tracks().len(), 1);
        assert_eq!(tracker.tracks()[0].misses, 0);
    }

    #[test]
    fn stale_track_is_reaped() {
        let mut tracker = Tracker::new(TrackerParams {
            max_misses: 1,
            ..TrackerParams::default()
        });
        tracker.step(&[det(10, 10, 1.0)]);
        tracker.step(&[]);
        assert_eq!(tracker.tracks().len(), 1);
        tracker.step(&[]);
        assert!(tracker.tracks().is_empty());
    }

    #[test]
    fn two_targets_keep_separate_identities() {
        let mut tracker = Tracker::new(TrackerParams {
            min_hits: 1,
            ..TrackerParams::default()
        });
        tracker.step(&[det(0, 0, 1.0), det(500, 0, 0.8)]);
        let ids: Vec<u64> = tracker.tracks().iter().map(|t| t.id).collect();
        assert_eq!(ids.len(), 2);
        tracker.step(&[det(4, 0, 1.0), det(504, 0, 0.8)]);
        assert_eq!(tracker.tracks().len(), 2);
        let ids2: Vec<u64> = tracker.tracks().iter().map(|t| t.id).collect();
        assert_eq!(ids, ids2);
    }

    #[test]
    fn strongest_detection_claims_the_contested_track() {
        let mut tracker = Tracker::new(TrackerParams {
            min_hits: 1,
            smoothing: 1.0,
            ..TrackerParams::default()
        });
        tracker.step(&[det(10, 10, 1.0)]);
        // Two detections overlap the track; the stronger claims it, the
        // weaker spawns a new track.
        tracker.step(&[det(12, 10, 0.4), det(11, 10, 2.0)]);
        assert_eq!(tracker.tracks().len(), 2);
        let main = &tracker.tracks()[0];
        assert_eq!(main.hits, 2);
        assert!((main.score - 2.0).abs() < 1e-12, "smoothing 1.0 snaps");
        assert_eq!(main.bbox.x, 11);
    }

    #[test]
    fn smoothing_averages_boxes() {
        let mut tracker = Tracker::new(TrackerParams {
            min_hits: 1,
            smoothing: 0.5,
            ..TrackerParams::default()
        });
        tracker.step(&[det(0, 0, 1.0)]);
        tracker.step(&[det(20, 0, 1.0)]);
        assert_eq!(tracker.tracks()[0].bbox.x, 10);
    }

    #[test]
    fn min_hits_one_confirms_immediately() {
        let mut tracker = Tracker::new(TrackerParams {
            min_hits: 1,
            ..TrackerParams::default()
        });
        let confirmed = tracker.step(&[det(0, 0, 1.0)]);
        assert_eq!(confirmed.len(), 1);
    }

    #[test]
    #[should_panic(expected = "smoothing must be in (0, 1]")]
    fn invalid_smoothing_rejected() {
        let _ = Tracker::new(TrackerParams {
            smoothing: 0.0,
            ..TrackerParams::default()
        });
    }
}
