//! Known-bad: `pub` items that only their definitions, a `use`
//! declaration and this file's own tests name.

pub fn never_called() -> u8 {
    0
}

pub fn tested_only() -> u8 {
    7
}

mod labels {
    pub struct Label;
}

pub use labels::Label;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tested_only_is_seven() {
        assert_eq!(tested_only(), 7);
    }
}
