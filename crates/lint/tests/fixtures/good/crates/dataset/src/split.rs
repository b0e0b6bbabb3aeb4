//! Known-good: an item whose one use is in another module's tests.

pub fn used_by_sibling_tests() -> u8 {
    3
}
