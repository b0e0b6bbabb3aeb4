//! Histogram of Oriented Gradients (HOG) feature extraction and the
//! feature-pyramid machinery of the DAC'17 pedestrian-detection paper.
//!
//! # Pipeline
//!
//! The classic Dalal–Triggs chain (paper §3.1, Fig. 1):
//!
//! ```text
//! image -> gradients -> cell histograms -> block normalization -> descriptor
//! ```
//!
//! implemented as:
//!
//! 1. [`gradient`]: centered-difference gradients, magnitude `m(x,y)` and
//!    unsigned orientation `θ(x,y) ∈ [0, π)` (paper eqs. 1–2).
//! 2. [`cell`] / [`grid`]: 8×8-pixel cells, 9 orientation bins, votes split
//!    between the two nearest bins by angular distance (§3.1).
//! 3. [`block`]: 2×2-cell blocks with 1-cell stride, L2-Hys normalization.
//! 4. [`feature_map`]: the *cell-major* layout used by the paper's hardware
//!    ([Hemmati et al., DSD'14]): each cell carries 36 values — its 9 bins
//!    normalized within each of the four covering blocks (LU/RU/LB/RB) — so
//!    a 64×128 window is 8×16 cells × 36 = 4608 features ("16×8 blocks ...
//!    36 elements" in §5).
//! 5. [`pyramid`]: **the paper's contribution** — multi-scale detection by
//!    down-sampling the *normalized feature map* ([`pyramid::FeaturePyramid`])
//!    instead of the image ([`pyramid::ImagePyramid`]).
//!
//! # Example
//!
//! ```
//! use rtped_hog::{params::HogParams, feature_map::FeatureMap};
//! use rtped_image::GrayImage;
//!
//! let params = HogParams::pedestrian();
//! let img = GrayImage::from_fn(64, 128, |x, y| ((x * 3 + y) % 256) as u8);
//! let map = FeatureMap::extract(&img, &params);
//! assert_eq!(map.cells(), (8, 16));
//! let descriptor = map.window_descriptor(0, 0, &params);
//! assert_eq!(descriptor.len(), 4608);
//! ```

pub mod block;
pub mod cell;
pub mod feature_map;
pub mod gradient;
pub mod grid;
pub mod params;
pub mod pyramid;
pub mod quant;
pub mod visualize;

pub use feature_map::FeatureMap;
pub use grid::CellGrid;
pub use params::HogParams;
pub use quant::QuantFeatureMap;
