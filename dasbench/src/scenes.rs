//! Seeded input generation. Everything here derives from the workload
//! seed alone and runs before any timing starts.

use rtped_core::rng::{Rng, SeedRng};
use rtped_dataset::pedestrian::{draw_figure, Pose};
use rtped_dataset::scene::SceneBuilder;
use rtped_image::draw::fill_rect;
use rtped_image::synthetic::add_uniform_noise;
use rtped_image::GrayImage;

/// Frames per exposure period of the parked camera: one step a second
/// at its 15 fps, so each run holds enough rebuilds for the tail to
/// land among them.
pub const EXPOSURE_PERIOD: usize = 15;

/// A street panorama panned and bobbed under the camera: every row of
/// every frame changes, as with a moving car. Fresh sensor noise per
/// frame.
pub fn drive_ring(seed: u64, len: usize) -> Vec<GrayImage> {
    const PAN_PX: usize = 8;
    let (w, h) = (1920, 1080);
    let root = SeedRng::seed_from_u64(seed).split(0xD21E);
    let mut rng = root.split(0);
    let mut builder = SceneBuilder::new(w + PAN_PX * len + 16, h + 8)
        .seed(rng.next_u64())
        .noise(0);
    for _ in 0..rng.gen_range(6..=10usize) {
        builder = builder.pedestrian_window(64, 128, rng.gen_range(1.0..2.4));
    }
    let panorama = builder.build().frame;
    (0..len)
        .map(|i| {
            let bob = (4.0 + 3.0 * (i as f64 * 1.7).sin()).round() as usize;
            let mut frame = panorama.crop(PAN_PX * i, bob, w, h);
            add_uniform_noise(&mut frame, &mut root.split(1 + i as u64), 3);
            frame
        })
        .collect()
}

/// One pedestrian walking back and forth along the pavement, in view
/// for the ring frames `visible`.
struct Walker {
    pose: Pose,
    w: usize,
    h: usize,
    x0: f64,
    y: usize,
    speed: f64,
    phase: f64,
    visible: std::ops::Range<f64>,
}

/// A parked camera: a static street where 2–4 pedestrians at a time walk
/// on one pavement band, and a global exposure step every
/// [`EXPOSURE_PERIOD`] frames. Between steps only the walkers' rows
/// change. Every seed puts the walkers on the same band, so the share of
/// changed rows, and with it the incremental work, varies little by seed.
pub fn parked_ring(seed: u64, len: usize) -> Vec<GrayImage> {
    let (w, h) = (1280usize, 720usize);
    let root = SeedRng::seed_from_u64(seed).split(0x9A2C);
    let mut rng = root.split(0);
    let background = SceneBuilder::new(w, h)
        .seed(rng.next_u64())
        .noise(4)
        .build()
        .frame;
    let pavement = 600usize;
    let (pw, ph) = (77usize, 154usize); // 1.2× the 64×128 window
                                        // Two walkers stay in view; two more each cross for half the ring.
    let n = len as f64;
    let windows = [0.0..n, 0.0..n, 0.0..0.5 * n, 0.35 * n..0.85 * n];
    let walkers: Vec<Walker> = windows
        .into_iter()
        .map(|visible| Walker {
            pose: Pose::sample(&mut rng),
            w: pw,
            h: ph,
            x0: rng.gen_range(0.0..(w - pw) as f64),
            y: pavement - ph + rng.gen_range(0..=4usize),
            speed: rng.gen_range(1.0..3.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 },
            phase: rng.gen_range(0.0..std::f64::consts::TAU),
            visible,
        })
        .collect();
    let exposure: Vec<i16> = (0..len.div_ceil(EXPOSURE_PERIOD))
        .map(|k| {
            if k % 2 == 0 {
                0
            } else {
                rng.gen_range(5..=12i16)
            }
        })
        .collect();
    (0..len)
        .map(|t| {
            let mut frame = background.clone();
            for walker in walkers.iter().filter(|wk| wk.visible.contains(&(t as f64))) {
                let span = (w - walker.w) as f64;
                // Reflect at the frame edges: position on a triangle wave.
                let travel = (walker.x0 + walker.speed * t as f64).rem_euclid(2.0 * span);
                let x = if travel > span {
                    2.0 * span - travel
                } else {
                    travel
                } as usize;
                let gait = (walker.phase + 0.35 * t as f64).sin();
                let pose = Pose {
                    leg_swing: 0.45 * gait.abs(),
                    arm_swing: 0.5 * gait.abs(),
                    ..walker.pose.clone()
                };
                let mut patch = frame.crop(x, walker.y, walker.w, walker.h);
                let mean = patch.mean().round().clamp(0.0, 255.0) as u8;
                fill_rect(&mut patch, 0, 0, walker.w, walker.h, mean, 0.35);
                draw_figure(&mut patch, &pose);
                frame.paste(&patch, x as isize, walker.y as isize);
            }
            let step = exposure[t / EXPOSURE_PERIOD];
            frame.map_in_place(|v| (i16::from(v) + step).clamp(0, 255) as u8);
            frame
        })
        .collect()
}

/// Share of pixel rows that differ between two equal-sized frames.
pub fn dirty_row_share(prev: &GrayImage, next: &GrayImage) -> f64 {
    let w = next.width();
    let dirty = prev
        .as_raw()
        .chunks(w)
        .zip(next.as_raw().chunks(w))
        .filter(|(a, b)| a != b)
        .count();
    dirty as f64 / next.height() as f64
}

/// Small street scenes for the daemon's pixel requests.
pub fn request_frames(seed: u64, count: usize, w: usize, h: usize) -> Vec<GrayImage> {
    let root = SeedRng::seed_from_u64(seed).split(0x5E2F);
    (0..count)
        .map(|k| {
            let mut rng = root.split(k as u64);
            SceneBuilder::new(w, h)
                .seed(rng.next_u64())
                .pedestrian_window(64, 128, rng.gen_range(1.0..1.6))
                .build()
                .frame
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parked_frames_change_only_walker_rows_between_exposure_steps() {
        let ring = parked_ring(3, EXPOSURE_PERIOD + 2);
        let quiet = dirty_row_share(&ring[1], &ring[2]);
        assert!(quiet > 0.0 && quiet < 0.5, "{quiet}");
        let step = dirty_row_share(&ring[EXPOSURE_PERIOD - 1], &ring[EXPOSURE_PERIOD]);
        assert!(step > 0.9, "{step}");
        // Same seed, same frames.
        assert_eq!(parked_ring(3, 4), parked_ring(3, 4));
    }
}
