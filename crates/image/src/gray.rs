//! 8-bit grayscale image container.

use rtped_core::Error;

/// An 8-bit grayscale image stored row-major.
///
/// Pixel `(x, y)` lives at index `y * width + x`. `(0, 0)` is the top-left
/// corner; `x` grows rightwards and `y` grows downwards, matching the scan
/// order of the streaming hardware pipeline modeled in `rtped-hw`.
///
/// # Example
///
/// ```
/// use rtped_image::GrayImage;
///
/// let mut img = GrayImage::new(4, 2);
/// img.put(3, 1, 200);
/// assert_eq!(img.get(3, 1), 200);
/// assert_eq!(img.get(0, 0), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GrayImage {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl GrayImage {
    /// Creates a black (all-zero) image.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero. Use [`GrayImage::try_new`] for
    /// a fallible variant.
    #[must_use]
    pub fn new(width: usize, height: usize) -> Self {
        // rtped-lint: allow(unwrap-in-library, "documented # Panics contract of the infallible constructor; try_new is the typed-error path")
        Self::try_new(width, height).expect("image dimensions must be non-zero")
    }

    /// Creates a black image, returning an error on zero dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if `width` or `height` is 0.
    pub fn try_new(width: usize, height: usize) -> Result<Self, Error> {
        if width == 0 || height == 0 {
            return Err(Error::invalid_input(format!(
                "invalid image dimensions {width}x{height}"
            )));
        }
        Ok(Self {
            width,
            height,
            data: vec![0; width * height],
        })
    }

    /// Wraps an existing pixel buffer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if the dimensions are zero
    /// or `data.len() != width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<u8>) -> Result<Self, Error> {
        if width == 0 || height == 0 || data.len() != width * height {
            return Err(Error::invalid_input(format!(
                "invalid image dimensions {width}x{height} for buffer of length {}",
                data.len()
            )));
        }
        Ok(Self {
            width,
            height,
            data,
        })
    }

    /// Builds an image by evaluating `f(x, y)` for every pixel.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    #[must_use]
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> u8) -> Self {
        let mut img = Self::new(width, height);
        for y in 0..height {
            for x in 0..width {
                img.data[y * width + x] = f(x, y);
            }
        }
        img
    }

    /// Image width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// `(width, height)` pair.
    #[must_use]
    pub fn dimensions(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Borrows the raw row-major pixel buffer.
    #[must_use]
    pub fn as_raw(&self) -> &[u8] {
        &self.data
    }

    /// Mutably borrows the raw row-major pixel buffer.
    pub fn as_raw_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Consumes the image and returns its pixel buffer.
    #[must_use]
    pub fn into_raw(self) -> Vec<u8> {
        self.data
    }

    /// Returns pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    #[must_use]
    pub fn get(&self, x: usize, y: usize) -> u8 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x]
    }

    /// Returns pixel `(x, y)` with the coordinates clamped into bounds.
    ///
    /// Out-of-range (including negative) coordinates are clamped to the
    /// nearest edge pixel, the border policy used by the gradient stage.
    #[must_use]
    pub fn get_clamped(&self, x: isize, y: isize) -> u8 {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.data[cy * self.width + cx]
    }

    /// Writes pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    pub fn put(&mut self, x: usize, y: usize, value: u8) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x] = value;
    }

    /// Sets every pixel to `value`.
    pub fn fill(&mut self, value: u8) {
        self.data.fill(value);
    }

    /// Borrows row `y` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    #[must_use]
    pub fn row(&self, y: usize) -> &[u8] {
        assert!(y < self.height, "row out of bounds");
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Iterates over `(x, y, value)` triples in row-major order.
    pub fn pixels(&self) -> impl Iterator<Item = (usize, usize, u8)> + '_ {
        let width = self.width;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, &v)| (i % width, i / width, v))
    }

    /// Copies the axis-aligned window at `(x, y)` with size `w * h`.
    ///
    /// # Panics
    ///
    /// Panics if the window extends past the image or `w`/`h` is zero.
    #[must_use]
    pub fn crop(&self, x: usize, y: usize, w: usize, h: usize) -> GrayImage {
        assert!(w > 0 && h > 0, "crop dimensions must be non-zero");
        assert!(
            x + w <= self.width && y + h <= self.height,
            "crop window out of bounds"
        );
        let mut out = GrayImage::new(w, h);
        for row in 0..h {
            let src = (y + row) * self.width + x;
            out.data[row * w..(row + 1) * w].copy_from_slice(&self.data[src..src + w]);
        }
        out
    }

    /// Pastes `src` with its top-left corner at `(x, y)`, clipping at edges.
    pub fn paste(&mut self, src: &GrayImage, x: isize, y: isize) {
        for sy in 0..src.height {
            let dy = y + sy as isize;
            if dy < 0 || dy >= self.height as isize {
                continue;
            }
            for sx in 0..src.width {
                let dx = x + sx as isize;
                if dx < 0 || dx >= self.width as isize {
                    continue;
                }
                self.data[dy as usize * self.width + dx as usize] = src.data[sy * src.width + sx];
            }
        }
    }

    /// Mean pixel intensity.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let sum: u64 = self.data.iter().map(|&v| u64::from(v)).sum();
        sum as f64 / self.data.len() as f64
    }

    /// Population variance of pixel intensity.
    #[must_use]
    pub fn variance(&self) -> f64 {
        let mean = self.mean();
        let ss: f64 = self
            .data
            .iter()
            .map(|&v| {
                let d = f64::from(v) - mean;
                d * d
            })
            .sum();
        ss / self.data.len() as f64
    }

    /// Applies a per-pixel intensity mapping in place.
    pub fn map_in_place(&mut self, mut f: impl FnMut(u8) -> u8) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_black() {
        let img = GrayImage::new(3, 2);
        assert_eq!(img.dimensions(), (3, 2));
        assert!(img.as_raw().iter().all(|&v| v == 0));
    }

    #[test]
    fn try_new_rejects_zero() {
        assert!(GrayImage::try_new(0, 5).is_err());
        assert!(GrayImage::try_new(5, 0).is_err());
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(GrayImage::from_vec(2, 2, vec![0; 4]).is_ok());
        assert!(GrayImage::from_vec(2, 2, vec![0; 3]).is_err());
    }

    #[test]
    fn get_put_roundtrip() {
        let mut img = GrayImage::new(5, 4);
        img.put(4, 3, 99);
        assert_eq!(img.get(4, 3), 99);
    }

    #[test]
    #[should_panic(expected = "pixel out of bounds")]
    fn get_out_of_bounds_panics() {
        let img = GrayImage::new(2, 2);
        let _ = img.get(2, 0);
    }

    #[test]
    fn clamped_access_extends_edges() {
        let img = GrayImage::from_fn(3, 3, |x, y| (x + 10 * y) as u8);
        assert_eq!(img.get_clamped(-5, -5), img.get(0, 0));
        assert_eq!(img.get_clamped(10, 1), img.get(2, 1));
        assert_eq!(img.get_clamped(1, 10), img.get(1, 2));
    }

    #[test]
    fn from_fn_evaluates_each_pixel() {
        let img = GrayImage::from_fn(4, 3, |x, y| (x * 10 + y) as u8);
        assert_eq!(img.get(2, 1), 21);
        assert_eq!(img.get(3, 2), 32);
    }

    #[test]
    fn crop_extracts_window() {
        let img = GrayImage::from_fn(6, 6, |x, y| (y * 6 + x) as u8);
        let sub = img.crop(2, 3, 3, 2);
        assert_eq!(sub.dimensions(), (3, 2));
        assert_eq!(sub.get(0, 0), img.get(2, 3));
        assert_eq!(sub.get(2, 1), img.get(4, 4));
    }

    #[test]
    #[should_panic(expected = "crop window out of bounds")]
    fn crop_out_of_bounds_panics() {
        let img = GrayImage::new(4, 4);
        let _ = img.crop(2, 2, 3, 1);
    }

    #[test]
    fn paste_clips_at_edges() {
        let mut canvas = GrayImage::new(4, 4);
        let mut patch = GrayImage::new(3, 3);
        patch.fill(7);
        canvas.paste(&patch, -1, 2);
        // Rows 2..4, cols 0..2 should be written.
        assert_eq!(canvas.get(0, 2), 7);
        assert_eq!(canvas.get(1, 3), 7);
        assert_eq!(canvas.get(2, 2), 0);
        assert_eq!(canvas.get(0, 1), 0);
    }

    #[test]
    fn mean_and_variance() {
        let mut img = GrayImage::new(2, 1);
        img.put(0, 0, 0);
        img.put(1, 0, 100);
        assert!((img.mean() - 50.0).abs() < 1e-12);
        assert!((img.variance() - 2500.0).abs() < 1e-12);
    }

    #[test]
    fn pixels_iterates_row_major() {
        let img = GrayImage::from_fn(2, 2, |x, y| (x + 2 * y) as u8);
        let collected: Vec<_> = img.pixels().collect();
        assert_eq!(collected, vec![(0, 0, 0), (1, 0, 1), (0, 1, 2), (1, 1, 3)]);
    }

    #[test]
    fn row_borrows_scanline() {
        let img = GrayImage::from_fn(3, 2, |x, y| (x + 10 * y) as u8);
        assert_eq!(img.row(1), &[10, 11, 12]);
    }
}
