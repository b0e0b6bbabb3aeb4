//! Second property-based suite: invariants of the system-level modules
//! (tracker, PR evaluation, bank layouts, streaming extractor).

use rtped::core::check::{vec_of, Gen};
use rtped::core::{check, check_assert, check_assert_eq, check_assume};

use rtped::detect::bbox::BoundingBox;
use rtped::detect::detector::Detection;
use rtped::detect::evaluate::{average_precision, match_detections, pr_curve};
use rtped::detect::tracker::{Tracker, TrackerParams};
use rtped::hw::nhog_mem::{analyze_column_pair_access, BankLayout, NhogMem};
use rtped::image::GrayImage;

fn arb_detections(max: usize) -> impl Gen<Value = Vec<Detection>> {
    vec_of(
        (
            -100i64..500,
            -100i64..400,
            1u64..200,
            1u64..300,
            -5.0f64..5.0,
        ),
        0..max,
    )
    .map_gen(|raw| {
        raw.into_iter()
            .map(|(x, y, w, h, score)| Detection {
                bbox: BoundingBox::new(x, y, w, h),
                score,
                scale: 1.0,
            })
            .collect()
    })
}

check! {
    #![cases = 40]

    fn matching_counts_are_conserved(
        dets in arb_detections(12),
        gts in vec_of((0i64..400, 0i64..300, 1u64..150, 1u64..250), 0usize..6),
    ) {
        let gt: Vec<BoundingBox> = gts
            .into_iter()
            .map(|(x, y, w, h)| BoundingBox::new(x, y, w, h))
            .collect();
        let m = match_detections(&dets, &gt, 0.5);
        check_assert_eq!(m.true_positives + m.false_positives, dets.len());
        check_assert_eq!(m.true_positives + m.missed, gt.len());
        check_assert_eq!(m.match_ious.len(), m.true_positives);
        for &iou in &m.match_ious {
            check_assert!(iou >= 0.5);
        }
    }

    fn average_precision_is_bounded(
        dets in arb_detections(16),
    ) {
        check_assume!(!dets.is_empty());
        let gt = vec![BoundingBox::new(50, 50, 64, 128)];
        let scenes = vec![(dets, gt)];
        let curve = pr_curve(&scenes, 0.4);
        check_assume!(!curve.is_empty());
        let ap = average_precision(&curve);
        check_assert!((0.0..=1.0).contains(&ap));
    }

    fn tracker_never_exceeds_detection_plus_track_budget(
        frames in vec_of(arb_detections(8), 1usize..10),
    ) {
        let mut tracker = Tracker::new(TrackerParams::default());
        let mut max_dets = 0;
        for dets in &frames {
            max_dets = max_dets.max(dets.len());
            let _ = tracker.step(dets);
            // Live tracks are bounded by total spawned; every track must
            // have hits >= 1 and misses <= max_misses.
            for t in tracker.tracks() {
                check_assert!(t.hits >= 1);
                check_assert!(t.misses <= TrackerParams::default().max_misses);
                check_assert!(t.bbox.width >= 1 && t.bbox.height >= 1);
            }
        }
        check_assert_eq!(tracker.frame_count(), frames.len() as u64);
    }

    fn tracker_ids_are_unique_and_monotone(
        frames in vec_of(arb_detections(6), 1usize..8),
    ) {
        let mut tracker = Tracker::new(TrackerParams {
            min_hits: 1,
            ..TrackerParams::default()
        });
        let mut seen = std::collections::BTreeSet::new();
        for dets in &frames {
            let _ = tracker.step(dets);
            let mut ids: Vec<u64> = tracker.tracks().iter().map(|t| t.id).collect();
            let n = ids.len();
            ids.dedup();
            check_assert_eq!(ids.len(), n, "duplicate live track ids");
            for id in ids {
                seen.insert(id);
            }
        }
        check_assert!(seen.len() as u64 <= frames.iter().map(Vec::len).sum::<usize>() as u64);
    }

    fn parity_role_banking_is_always_balanced(cx in 0usize..64, cy in 0usize..64) {
        let schedule = analyze_column_pair_access(BankLayout::ParityRole, cx, cy);
        check_assert_eq!(schedule.total_words, 1152);
        check_assert_eq!(schedule.min_cycles, 72);
        check_assert!(schedule.is_conflict_free());
    }

    fn bank_mapping_stays_in_range(cx in 0usize..1000, cy in 0usize..1000, role in 0usize..4) {
        check_assert!(NhogMem::bank_of(cx, cy, role) < 16);
    }

    fn stream_extractor_equals_frame_model(seed in 0u32..=u32::MAX) {
        // Randomized frames: the tick-driven extractor must stay
        // bit-exact against the frame-level model.
        let img = GrayImage::from_fn(40, 24, |x, y| {
            ((x * 11 + y * 29 + (seed as usize) * (x + 2 * y + 1)) % 256) as u8
        });
        let events = rtped::hw::stream_extractor::stream_frame(&img);
        let reference = rtped::hw::hist_unit::HistogramUnit::new().process_frame(&img);
        check_assert_eq!(events.len(), 3);
        for e in &events {
            for cx in 0..5 {
                check_assert_eq!(
                    &e.histograms[cx * 9..(cx + 1) * 9],
                    reference.histogram(cx, e.cell_row)
                );
            }
        }
    }
}
