//! Axis-aligned bounding boxes.

use rtped_core::json::{obj, required_field};
use rtped_core::{Error, FromJson, Json, ToJson};

/// An axis-aligned box in pixel coordinates (top-left origin, inclusive of
/// `x..x+width`).
///
/// # Example
///
/// ```
/// use rtped_detect::BoundingBox;
///
/// let a = BoundingBox::new(0, 0, 10, 10);
/// let b = BoundingBox::new(5, 5, 10, 10);
/// assert!(a.iou(&b) > 0.14 && a.iou(&b) < 0.15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoundingBox {
    /// Left edge.
    pub x: i64,
    /// Top edge.
    pub y: i64,
    /// Width in pixels.
    pub width: u64,
    /// Height in pixels.
    pub height: u64,
}

impl BoundingBox {
    /// Creates a box.
    #[must_use]
    pub fn new(x: i64, y: i64, width: u64, height: u64) -> Self {
        Self {
            x,
            y,
            width,
            height,
        }
    }

    /// Box area in pixels.
    #[must_use]
    pub fn area(&self) -> u64 {
        self.width * self.height
    }

    /// Right edge (exclusive).
    #[must_use]
    pub fn right(&self) -> i64 {
        self.x + self.width as i64
    }

    /// Bottom edge (exclusive).
    #[must_use]
    pub fn bottom(&self) -> i64 {
        self.y + self.height as i64
    }

    /// Intersection area with `other`.
    #[must_use]
    pub fn intersection_area(&self, other: &BoundingBox) -> u64 {
        let left = self.x.max(other.x);
        let top = self.y.max(other.y);
        let right = self.right().min(other.right());
        let bottom = self.bottom().min(other.bottom());
        if right <= left || bottom <= top {
            0
        } else {
            ((right - left) as u64) * ((bottom - top) as u64)
        }
    }

    /// Intersection-over-union with `other` in `[0, 1]`.
    #[must_use]
    pub fn iou(&self, other: &BoundingBox) -> f64 {
        let inter = self.intersection_area(other);
        if inter == 0 {
            return 0.0;
        }
        let union = self.area() + other.area() - inter;
        inter as f64 / union as f64
    }

    /// Whether `(px, py)` lies inside the box.
    #[must_use]
    pub fn contains(&self, px: i64, py: i64) -> bool {
        px >= self.x && px < self.right() && py >= self.y && py < self.bottom()
    }

    /// Scales the box about the origin by `s` (used to map detections from
    /// a pyramid level back to native frame coordinates).
    ///
    /// # Panics
    ///
    /// Panics if `s` is not finite and positive.
    #[must_use]
    pub fn scaled(&self, s: f64) -> BoundingBox {
        assert!(s.is_finite() && s > 0.0, "scale must be positive");
        BoundingBox {
            x: (self.x as f64 * s).round() as i64,
            y: (self.y as f64 * s).round() as i64,
            width: ((self.width as f64 * s).round() as u64).max(1),
            height: ((self.height as f64 * s).round() as u64).max(1),
        }
    }
}

impl ToJson for BoundingBox {
    fn to_json(&self) -> Json {
        obj([
            ("x", self.x.into()),
            ("y", self.y.into()),
            ("w", self.width.into()),
            ("h", self.height.into()),
        ])
    }
}

impl FromJson for BoundingBox {
    fn from_json(json: &Json) -> Result<Self, Error> {
        Ok(BoundingBox {
            x: i64::from_json(required_field(json, "x")?)?,
            y: i64::from_json(required_field(json, "y")?)?,
            width: u64::from_json(required_field(json, "w")?)?,
            height: u64::from_json(required_field(json, "h")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_boxes_have_iou_one() {
        let b = BoundingBox::new(3, 4, 10, 20);
        assert!((b.iou(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let b = BoundingBox::new(-3, 7, 64, 128);
        let json = b.to_json();
        assert_eq!(json.to_string(), r#"{"x":-3,"y":7,"w":64,"h":128}"#);
        assert_eq!(BoundingBox::from_json(&json).unwrap(), b);
        assert!(BoundingBox::from_json(&Json::Null).is_err());
        let missing = obj([("x", 0i64.into()), ("y", 0i64.into())]);
        assert!(BoundingBox::from_json(&missing).is_err());
    }

    #[test]
    fn disjoint_boxes_have_iou_zero() {
        let a = BoundingBox::new(0, 0, 5, 5);
        let b = BoundingBox::new(10, 10, 5, 5);
        assert_eq!(a.iou(&b), 0.0);
        assert_eq!(a.intersection_area(&b), 0);
    }

    #[test]
    fn touching_boxes_do_not_intersect() {
        let a = BoundingBox::new(0, 0, 5, 5);
        let b = BoundingBox::new(5, 0, 5, 5);
        assert_eq!(a.intersection_area(&b), 0);
    }

    #[test]
    fn half_overlap_iou() {
        let a = BoundingBox::new(0, 0, 10, 10);
        let b = BoundingBox::new(0, 5, 10, 10);
        // Intersection 50, union 150.
        assert!((a.iou(&b) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn iou_is_symmetric() {
        let a = BoundingBox::new(2, 3, 8, 6);
        let b = BoundingBox::new(5, 5, 10, 4);
        assert_eq!(a.iou(&b), b.iou(&a));
    }

    #[test]
    fn contains_is_half_open() {
        let b = BoundingBox::new(10, 20, 4, 6);
        assert!(b.contains(10, 20));
        assert!(b.contains(13, 25));
        assert!(!b.contains(14, 20));
        assert!(!b.contains(10, 26));
    }

    #[test]
    fn negative_coordinates_are_supported() {
        let a = BoundingBox::new(-5, -5, 10, 10);
        let b = BoundingBox::new(0, 0, 10, 10);
        assert_eq!(a.intersection_area(&b), 25);
    }

    #[test]
    fn scaled_maps_to_native_coordinates() {
        let level_box = BoundingBox::new(8, 16, 64, 128);
        let native = level_box.scaled(1.5);
        assert_eq!(native, BoundingBox::new(12, 24, 96, 192));
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn scaled_rejects_zero() {
        let _ = BoundingBox::new(0, 0, 1, 1).scaled(0.0);
    }
}
