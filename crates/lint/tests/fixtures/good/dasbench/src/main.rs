//! Known-good: the benchmark package is read for use sites only and never
//! linted, so the wall-clock read below is no violation.

fn main() {
    let t0 = std::time::Instant::now();
    println!("{} {:?}", rtped_dataset::used_by_benchmark(), t0.elapsed());
}
