//! Known-good: an integration test is a use of the items it calls.

#[test]
fn integration_tests_count_as_a_use() {
    assert_eq!(rtped_dataset::used_by_integration_test(), 1);
}
