//! Declared by the crate root, reached by no binary, example or test.

pub fn miss_rate() {}
