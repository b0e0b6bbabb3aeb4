//! Grayscale image substrate for the `rtped` pedestrian-detection workspace.
//!
//! This crate provides everything the HOG/SVM pipeline and the synthetic
//! dataset generator need from an image library, implemented from scratch:
//!
//! - [`GrayImage`]: an 8-bit, row-major grayscale container.
//! - [`pnm`]: PGM/PPM (P2/P5/P3/P6) reading and writing, so users can run
//!   the detectors on real files without external dependencies.
//! - [`resize`]: nearest / bilinear / bicubic resampling, used both by the
//!   conventional image-pyramid detector and by the dataset up-sampler.
//! - [`draw`]: rasterization primitives used by the synthetic pedestrian
//!   renderer.
//! - [`synthetic`]: procedural textures and backgrounds (value noise,
//!   gradients) for scene generation.
//! - [`integral`]: integral images for O(1) window statistics.
//! - [`corrupt`]: deterministic sensor-fault injectors (bit flips, dead
//!   rows/columns, truncated rasters) for robustness testing.
//!
//! # Example
//!
//! ```
//! use rtped_image::{GrayImage, resize::{resize, Filter}};
//!
//! let mut img = GrayImage::new(64, 128);
//! img.fill(40);
//! img.put(10, 10, 200);
//! let up = resize(&img, 96, 192, Filter::Bilinear);
//! assert_eq!(up.width(), 96);
//! assert_eq!(up.height(), 192);
//! ```

pub mod corrupt;
pub mod draw;
pub mod gray;
pub mod integral;
pub mod pnm;
pub mod resize;
pub mod synthetic;

pub use gray::GrayImage;
pub use integral::IntegralImage;
/// The workspace-wide error type every fallible API in this crate returns.
pub use rtped_core::Error;
