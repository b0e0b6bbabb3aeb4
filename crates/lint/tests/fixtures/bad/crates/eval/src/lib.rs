//! A crate root whose one module nothing uses.

pub mod det;
