//! Property-based tests (rtped_core::check) over the core data structures
//! and numeric invariants of the pipeline.

use rtped::core::check::{boolean, vec_of, Gen};
use rtped::core::{check, check_assert, check_assert_eq, check_assume};

use rtped::detect::BoundingBox;
use rtped::eval::RocCurve;
use rtped::hog::block::NormKind;
use rtped::hog::cell::split_vote;
use rtped::hog::feature_map::FeatureMap;
use rtped::hog::params::HogParams;
use rtped::image::resize::{resize, Filter};
use rtped::image::{GrayImage, IntegralImage};
use rtped::svm::LinearSvm;

fn arb_image(max_w: usize, max_h: usize) -> impl Gen<Value = GrayImage> {
    (1..=max_w, 1..=max_h).flat_map_gen(|(w, h)| {
        vec_of(0u8..=u8::MAX, w * h).map_gen(move |data| GrayImage::from_vec(w, h, data).unwrap())
    })
}

check! {
    #![cases = 48]

    fn resize_preserves_intensity_bounds(img in arb_image(40, 40), nw in 1usize..60, nh in 1usize..60) {
        let lo = *img.as_raw().iter().min().unwrap();
        let hi = *img.as_raw().iter().max().unwrap();
        for filter in [Filter::Nearest, Filter::Bilinear] {
            let out = resize(&img, nw, nh, filter);
            check_assert_eq!(out.dimensions(), (nw, nh));
            for (_, _, v) in out.pixels() {
                check_assert!(v >= lo && v <= hi, "{:?} escaped [{}, {}]", v, lo, hi);
            }
        }
    }

    fn integral_image_matches_brute_force(img in arb_image(24, 24)) {
        let integral = IntegralImage::new(&img);
        let (w, h) = img.dimensions();
        // Whole-image window.
        let brute: u64 = img.as_raw().iter().map(|&v| u64::from(v)).sum();
        check_assert_eq!(integral.window_sum(0, 0, w, h), brute);
    }

    fn split_vote_conserves_magnitude(angle in 0.0f32..std::f32::consts::PI, mag in 0.0f32..1000.0) {
        let bin_width = std::f32::consts::PI / 9.0;
        let ((a, wa), (b, wb)) = split_vote(angle, mag, 9, bin_width);
        check_assert!(a < 9 && b < 9);
        check_assert!((wa + wb - mag).abs() < mag.max(1.0) * 1e-4);
        check_assert!(wa >= -1e-4 && wb >= -1e-4);
    }

    fn normalization_output_is_bounded(values in vec_of(0.0f32..1e6, 36usize)) {
        for norm in [
            NormKind::L1 { epsilon: 1e-2 },
            NormKind::L1Sqrt { epsilon: 1e-2 },
            NormKind::L2 { epsilon: 1e-2 },
            NormKind::default(),
        ] {
            let out = norm.normalized(&values);
            for &v in &out {
                check_assert!(v.is_finite());
                check_assert!(v >= 0.0);
                check_assert!(v <= 1.0 + 1e-4, "{:?} produced {}", norm, v);
            }
        }
    }

    fn feature_map_rescale_preserves_bounds(seed in 0u32..=u32::MAX) {
        // Feature maps hold values in [0, 1]; bilinear resampling must not
        // escape that interval.
        let img = GrayImage::from_fn(96, 160, |x, y| {
            ((x * 7 + y * 11 + (seed as usize % 97) * (x + y)) % 256) as u8
        });
        let map = FeatureMap::extract(&img, &HogParams::pedestrian());
        let scaled = map.scaled_by(1.4);
        for &v in scaled.as_raw() {
            check_assert!((-1e-6..=1.0 + 1e-4).contains(&v));
        }
    }

    fn svm_decision_is_affine_in_inputs(
        w in vec_of(-10.0f64..10.0, 8usize),
        x in vec_of(-10.0f32..10.0, 8usize),
        bias in -5.0f64..5.0,
        alpha in 0.1f32..3.0,
    ) {
        let model = LinearSvm::new(w, bias);
        let d1 = model.decision(&x);
        let scaled: Vec<f32> = x.iter().map(|v| v * alpha).collect();
        let d2 = model.decision(&scaled);
        // decision(alpha * x) = alpha * (decision(x) - b) + b
        let expected = f64::from(alpha) * (d1 - bias) + bias;
        check_assert!((d2 - expected).abs() < 1e-3 * (1.0 + expected.abs()));
    }

    fn iou_is_bounded_and_symmetric(
        x1 in -50i64..50, y1 in -50i64..50, w1 in 1u64..60, h1 in 1u64..60,
        x2 in -50i64..50, y2 in -50i64..50, w2 in 1u64..60, h2 in 1u64..60,
    ) {
        let a = BoundingBox::new(x1, y1, w1, h1);
        let b = BoundingBox::new(x2, y2, w2, h2);
        let iou = a.iou(&b);
        check_assert!((0.0..=1.0).contains(&iou));
        check_assert!((iou - b.iou(&a)).abs() < 1e-12);
        check_assert!((a.iou(&a) - 1.0).abs() < 1e-12);
    }

    fn roc_auc_is_bounded_and_monotone(scores in vec_of((-10.0f64..10.0, boolean()), 8usize..60)) {
        let positives = scores.iter().filter(|(_, p)| *p).count();
        check_assume!(positives > 0 && positives < scores.len());
        let roc = RocCurve::from_scores(&scores);
        check_assert!((0.0..=1.0).contains(&roc.auc()));
        check_assert!((0.0..=1.0).contains(&roc.eer()));
        let pts = roc.points();
        for pair in pts.windows(2) {
            check_assert!(pair[1].fpr >= pair[0].fpr);
            check_assert!(pair[1].tpr >= pair[0].tpr);
        }
    }

    fn hw_shift_add_mul_is_exact(value in -32768i32..32768, k in 0u8..=16) {
        let exact = ((i64::from(value) * i64::from(k) + 8) >> 4) as i32;
        check_assert_eq!(rtped::hw::scaler::shift_add_mul(value, k), exact);
    }

    fn hw_isqrt_is_floor_sqrt(v in 0u64..=u64::MAX) {
        let r = rtped::hw::fixed::isqrt_u64(v);
        check_assert!(r.checked_mul(r).is_some_and(|sq| sq <= v) || r == 0 && v == 0);
        if let Some(next_sq) = (r + 1).checked_mul(r + 1) {
            check_assert!(next_sq > v);
        }
    }

    fn nhog_ring_keeps_exactly_the_newest_rows(cells_x in 1usize..=4, extra in 0usize..=12) {
        use rtped::hw::nhog_mem::{NhogMem, RING_ROWS};
        use rtped::hw::norm_unit::HwFeatureMap;
        let cells_y = RING_ROWS + extra;
        let data: Vec<i32> = (0..cells_x * cells_y * 36).map(|i| (i % 32768) as i32).collect();
        let map = HwFeatureMap::from_raw(cells_x, cells_y, data);
        let mut mem = NhogMem::new(cells_x);
        mem.load_rows_through(&map, cells_y - 1);
        // Wrap-around keeps exactly the newest RING_ROWS rows resident,
        // evicting one row per write past capacity.
        for cy in 0..cells_y {
            check_assert_eq!(mem.row_resident(cy), cy + RING_ROWS >= cells_y, "row {}", cy);
        }
        check_assert_eq!(mem.stats().evictions as usize, extra);
        // A resident read is exact: wrap-around never aliases rows.
        let top = cells_y - 1;
        let col = mem.read_window_column(cells_x - 1, top, 1);
        check_assert_eq!(&col[..], map.cell(cells_x - 1, top));
    }

    fn parity_role_banks_balance_and_word_striping_conflicts(cx in 0usize..64, strip in 0usize..120) {
        use rtped::hw::nhog_mem::{analyze_column_pair_access, BankLayout, BANKS};
        // The 16 (x-parity, y-parity, role) combinations of any 2x2 cell
        // block hit all 16 banks exactly once.
        let mut hits = [0usize; BANKS];
        for dx in 0..2 {
            for dy in 0..2 {
                for role in 0..4 {
                    hits[BankLayout::ParityRole.bank_of(cx + dx, strip + dy, role, 0)] += 1;
                }
            }
        }
        check_assert!(hits.iter().all(|&n| n == 1), "{:?}", hits);
        // Any two-block-column access set balances perfectly under the
        // paper's layout (max bank load == total/16 == 72 cycles) ...
        let paper = analyze_column_pair_access(BankLayout::ParityRole, cx, strip);
        check_assert!(paper.is_conflict_free());
        check_assert_eq!(paper.min_cycles, paper.total_words / BANKS as u64);
        // ... and never under naive flat word striping: a cell's 36 words
        // cover banks unevenly (36 = 2x16 + 4), so some bank always
        // carries more than total/16.
        let naive = analyze_column_pair_access(BankLayout::WordInterleaved, cx, strip);
        check_assert!(!naive.is_conflict_free());
        check_assert!(naive.min_cycles > naive.total_words / BANKS as u64);
    }
}
