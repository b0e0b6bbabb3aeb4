//! A wall-clock micro-benchmark harness.
//!
//! This replaces `criterion` for the `bench_detect` harness binary: it
//! builds a [`Bench`] group and calls [`Bench::run`] per case. The harness warms
//! the case up, sizes batches so timer overhead is amortized, takes many
//! batch samples, and prints min/median/mean — the median is the headline
//! number because it is robust to scheduler noise.
//!
//! ```no_run
//! use rtped_core::timer::{black_box, Bench};
//!
//! let mut bench = Bench::new("hog");
//! let stats = bench.run("gradient_8x8", || {
//!     let mut acc = 0u64;
//!     for i in 0..64u64 {
//!         acc = acc.wrapping_add(black_box(i) * i);
//!     }
//!     acc
//! });
//! assert!(stats.median_ns > 0.0);
//! ```

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// A started wall-clock stopwatch.
///
/// This is the sanctioned way to *measure* elapsed time outside the
/// bench binaries (`rtped-lint` forbids raw `Instant`/`SystemTime`
/// elsewhere): examples report it, tests bound it, but control decisions
/// must never consume it — the runtime schedules on the modeled cost
/// clock so reports stay byte-identical across hosts.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    #[must_use]
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Time elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed milliseconds as a float (convenience for report lines).
    #[must_use]
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1.0e3
    }
}

/// Summary of one benchmark case.
#[derive(Debug, Clone)]
pub struct Stats {
    /// `group/name` label.
    pub label: String,
    /// Fastest batch, per iteration, in nanoseconds.
    pub min_ns: f64,
    /// Median batch, per iteration, in nanoseconds.
    pub median_ns: f64,
    /// Mean over all batches, per iteration, in nanoseconds.
    pub mean_ns: f64,
    /// Total iterations measured (excluding warmup).
    pub iters: u64,
}

impl Stats {
    /// The headline (median) time as a [`Duration`].
    #[must_use]
    pub fn median(&self) -> Duration {
        Duration::from_nanos(self.median_ns as u64)
    }
}

/// Formats a nanosecond count with an adaptive unit (`ns`/`µs`/`ms`/`s`).
#[must_use]
pub fn format_ns(ns: f64) -> String {
    if ns < 1.0e3 {
        format!("{ns:.1} ns")
    } else if ns < 1.0e6 {
        format!("{:.2} µs", ns / 1.0e3)
    } else if ns < 1.0e9 {
        format!("{:.2} ms", ns / 1.0e6)
    } else {
        format!("{:.3} s", ns / 1.0e9)
    }
}

/// Summarizes per-iteration batch samples (nanoseconds). Exposed for the
/// harness's own tests; [`Bench::run`] is the public entry point.
#[must_use]
pub fn summarize(label: &str, samples: &mut [f64], iters: u64) -> Stats {
    assert!(!samples.is_empty(), "summarize needs at least one sample");
    samples.sort_by(f64::total_cmp);
    let min_ns = samples[0];
    let n = samples.len();
    let median_ns = if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    };
    let mean_ns = samples.iter().sum::<f64>() / n as f64;
    Stats {
        label: label.to_string(),
        min_ns,
        median_ns,
        mean_ns,
        iters,
    }
}

/// A named group of benchmark cases sharing timing budgets.
pub struct Bench {
    group: String,
    warmup: Duration,
    measure: Duration,
    batches: u32,
}

impl Bench {
    /// A group with the default budgets: 100 ms warmup, 500 ms measure,
    /// 25 batch samples.
    #[must_use]
    pub fn new(group: &str) -> Self {
        Bench {
            group: group.to_string(),
            warmup: Duration::from_millis(100),
            measure: Duration::from_millis(500),
            batches: 25,
        }
    }

    /// Overrides the warmup budget.
    #[must_use]
    pub fn warmup(mut self, warmup: Duration) -> Self {
        self.warmup = warmup;
        self
    }

    /// Overrides the measurement budget (split across all batches).
    #[must_use]
    pub fn measure(mut self, measure: Duration) -> Self {
        self.measure = measure;
        self
    }

    /// Overrides the number of batch samples (minimum 1).
    #[must_use]
    pub fn batches(mut self, batches: u32) -> Self {
        self.batches = batches.max(1);
        self
    }

    /// Benchmarks `f`, prints one report line, and returns the stats.
    ///
    /// Wrap inputs you want kept live in [`black_box`]; the return value
    /// of `f` is black-boxed by the harness.
    pub fn run<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> Stats {
        let label = format!("{}/{name}", self.group);

        // Warmup: run for the budget, learning the per-iteration cost.
        let start = Instant::now();
        let mut warm_iters: u64 = 0;
        while start.elapsed() < self.warmup || warm_iters == 0 {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = start.elapsed().as_secs_f64() / warm_iters as f64;

        // Size batches so each takes ~ measure/batches, with at least one
        // iteration per batch so ultra-slow cases still measure.
        let batch_budget = self.measure.as_secs_f64() / f64::from(self.batches);
        let batch_iters = ((batch_budget / per_iter).round() as u64).max(1);

        let mut samples = Vec::with_capacity(self.batches as usize);
        let mut total_iters: u64 = 0;
        for _ in 0..self.batches {
            let t0 = Instant::now();
            for _ in 0..batch_iters {
                black_box(f());
            }
            let elapsed = t0.elapsed().as_nanos() as f64;
            samples.push(elapsed / batch_iters as f64);
            total_iters += batch_iters;
        }

        let stats = summarize(&label, &mut samples, total_iters);
        println!(
            "{:<44} {:>12}  (min {}, mean {}, {} iters)",
            stats.label,
            format_ns(stats.median_ns),
            format_ns(stats.min_ns),
            format_ns(stats.mean_ns),
            stats.iters,
        );
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_computes_order_statistics() {
        let mut odd = [30.0, 10.0, 20.0];
        let s = summarize("g/odd", &mut odd, 300);
        assert_eq!(s.min_ns, 10.0);
        assert_eq!(s.median_ns, 20.0);
        assert_eq!(s.mean_ns, 20.0);
        assert_eq!(s.iters, 300);

        let mut even = [40.0, 10.0, 20.0, 30.0];
        let s = summarize("g/even", &mut even, 4);
        assert_eq!(s.median_ns, 25.0);
        assert_eq!(s.label, "g/even");
    }

    #[test]
    fn format_ns_picks_adaptive_units() {
        assert_eq!(format_ns(999.0), "999.0 ns");
        assert_eq!(format_ns(1_500.0), "1.50 µs");
        assert_eq!(format_ns(2_500_000.0), "2.50 ms");
        assert_eq!(format_ns(3_000_000_000.0), "3.000 s");
    }

    #[test]
    fn median_is_the_headline_time() {
        let s = Stats {
            label: "x".into(),
            min_ns: 1.0,
            median_ns: 2.0,
            mean_ns: 3.0,
            iters: 1,
        };
        assert_eq!(s.median(), Duration::from_nanos(2));
    }

    #[test]
    fn bench_run_smoke_test() {
        // Tiny budgets keep the test fast while exercising the full path.
        let mut bench = Bench::new("smoke")
            .warmup(Duration::from_millis(2))
            .measure(Duration::from_millis(10))
            .batches(5);
        let stats = bench.run("accumulate", || (0..64u64).map(black_box).sum::<u64>());
        assert!(stats.median_ns > 0.0);
        assert!(stats.iters >= 5);
        assert_eq!(stats.label, "smoke/accumulate");
    }
}
