//! Full-frame scene composition with ground truth.
//!
//! Detector-level tests and the HDTV throughput experiments need complete
//! frames containing pedestrians at known positions and sizes. A
//! [`SceneBuilder`] composes a clutter background with figures rendered at
//! arbitrary scales and records their bounding boxes.

use rtped_core::rng::Rng;
use rtped_core::rng::SeedRng;

use rtped_image::draw::fill_rect;
use rtped_image::synthetic::{add_uniform_noise, clutter_background};
use rtped_image::GrayImage;

use crate::pedestrian::{draw_figure, Pose};

/// An axis-aligned ground-truth box (pixel coordinates, top-left origin).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroundTruthBox {
    /// Left edge.
    pub x: usize,
    /// Top edge.
    pub y: usize,
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
}

/// A composed frame plus its ground-truth pedestrian boxes.
#[derive(Debug, Clone)]
pub struct Scene {
    /// The rendered frame.
    pub frame: GrayImage,
    /// One box per placed pedestrian.
    pub ground_truth: Vec<GroundTruthBox>,
}

/// Builder for synthetic street scenes.
///
/// # Example
///
/// ```
/// use rtped_dataset::scene::SceneBuilder;
///
/// let scene = SceneBuilder::new(640, 480)
///     .seed(7)
///     .pedestrian_window(64, 128, 1.0)
///     .pedestrian_window(64, 128, 1.5)
///     .build();
/// assert_eq!(scene.frame.dimensions(), (640, 480));
/// assert_eq!(scene.ground_truth.len(), 2);
/// ```
/// One queued pedestrian placement.
#[derive(Debug, Clone, Copy)]
struct Placement {
    base_w: usize,
    base_h: usize,
    scale: f64,
    at: Option<(usize, usize)>,
}

#[derive(Debug, Clone)]
pub struct SceneBuilder {
    width: usize,
    height: usize,
    seed: u64,
    noise: u8,
    pedestrians: Vec<Placement>,
}

impl SceneBuilder {
    /// Starts a scene of the given frame size.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    #[must_use]
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "scene must be non-empty");
        Self {
            width,
            height,
            seed: 0x000D_AC17,
            noise: 5,
            pedestrians: Vec::new(),
        }
    }

    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the sensor-noise amplitude (default ±5).
    #[must_use]
    pub fn noise(mut self, amplitude: u8) -> Self {
        self.noise = amplitude;
        self
    }

    /// Adds a pedestrian whose window is `base_w x base_h` scaled by
    /// `scale`, at a random in-bounds position.
    #[must_use]
    pub fn pedestrian_window(mut self, base_w: usize, base_h: usize, scale: f64) -> Self {
        self.pedestrians.push(Placement {
            base_w,
            base_h,
            scale,
            at: None,
        });
        self
    }

    /// Adds a pedestrian at an explicit top-left position.
    #[must_use]
    pub fn pedestrian_at(
        mut self,
        base_w: usize,
        base_h: usize,
        scale: f64,
        x: usize,
        y: usize,
    ) -> Self {
        self.pedestrians.push(Placement {
            base_w,
            base_h,
            scale,
            at: Some((x, y)),
        });
        self
    }

    /// Renders the scene. Pedestrians that do not fit the frame are
    /// skipped (and absent from the ground truth).
    #[must_use]
    pub fn build(self) -> Scene {
        let mut rng = SeedRng::seed_from_u64(self.seed);
        let mut frame = clutter_background(&mut rng, self.width, self.height);
        let mut ground_truth = Vec::new();

        for p in &self.pedestrians {
            let w = ((p.base_w as f64) * p.scale).round() as usize;
            let h = ((p.base_h as f64) * p.scale).round() as usize;
            if w == 0 || h == 0 || w > self.width || h > self.height {
                continue;
            }
            let (x, y) = match p.at {
                Some(pos) => pos,
                None => (
                    rng.gen_range(0..=self.width - w),
                    rng.gen_range(0..=self.height - h),
                ),
            };
            if x + w > self.width || y + h > self.height {
                continue;
            }
            // Render the figure into a window-sized patch over the frame's
            // local content so edges stay coherent, then paste back.
            let mut patch = frame.crop(x, y, w, h);
            // Slightly flatten the local background so the figure is the
            // dominant structure within its box (as in real photos where
            // the person occludes the background).
            let mean = patch.mean().round().clamp(0.0, 255.0) as u8;
            fill_rect(&mut patch, 0, 0, w, h, mean, 0.35);
            let pose = Pose::sample(&mut rng);
            draw_figure(&mut patch, &pose);
            frame.paste(&patch, x as isize, y as isize);
            ground_truth.push(GroundTruthBox {
                x,
                y,
                width: w,
                height: h,
            });
        }

        add_uniform_noise(&mut frame, &mut rng, self.noise);
        Scene {
            frame,
            ground_truth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scene_is_deterministic() {
        let a = SceneBuilder::new(320, 240)
            .seed(5)
            .pedestrian_window(64, 128, 1.0)
            .build();
        let b = SceneBuilder::new(320, 240)
            .seed(5)
            .pedestrian_window(64, 128, 1.0)
            .build();
        assert_eq!(a.frame, b.frame);
        assert_eq!(a.ground_truth, b.ground_truth);
    }

    #[test]
    fn ground_truth_boxes_are_in_bounds() {
        let scene = SceneBuilder::new(400, 300)
            .seed(8)
            .pedestrian_window(64, 128, 1.0)
            .pedestrian_window(64, 128, 1.8)
            .build();
        for b in &scene.ground_truth {
            assert!(b.x + b.width <= 400);
            assert!(b.y + b.height <= 300);
        }
        assert_eq!(scene.ground_truth.len(), 2);
    }

    #[test]
    fn oversized_pedestrians_are_skipped() {
        let scene = SceneBuilder::new(100, 100)
            .seed(3)
            .pedestrian_window(64, 128, 1.0) // 64x128 does not fit 100x100
            .build();
        assert!(scene.ground_truth.is_empty());
    }

    #[test]
    fn explicit_placement_is_respected() {
        let scene = SceneBuilder::new(320, 240)
            .seed(4)
            .pedestrian_at(64, 128, 1.0, 10, 20)
            .build();
        assert_eq!(
            scene.ground_truth,
            vec![GroundTruthBox {
                x: 10,
                y: 20,
                width: 64,
                height: 128
            }]
        );
    }

    #[test]
    fn scaled_boxes_have_scaled_sizes() {
        let scene = SceneBuilder::new(640, 480)
            .seed(6)
            .pedestrian_at(64, 128, 1.5, 0, 0)
            .build();
        assert_eq!(scene.ground_truth[0].width, 96);
        assert_eq!(scene.ground_truth[0].height, 192);
    }
}
