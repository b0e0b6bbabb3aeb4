//! Known-good: every `pub` item has one use outside its definition, its
//! `use` declarations and its own file's tests — in an integration test,
//! in another module's tests, and in the benchmark package.

pub mod split;

pub fn used_by_integration_test() -> u8 {
    1
}

pub fn used_by_benchmark() -> u8 {
    2
}

#[cfg(test)]
mod tests {
    #[test]
    fn another_files_tests_count_as_a_use() {
        assert_eq!(super::split::used_by_sibling_tests(), 3);
    }
}
