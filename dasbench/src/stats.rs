//! Open-loop scheduling and the end-to-end summary statistics.
//!
//! Everything here is pure over a [`Clock`], so the tests drive it with
//! synthetic timings and never read the wall clock.

#[cfg(test)]
use std::cell::Cell;

use rtped_core::timer::Stopwatch;

/// Fewest samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A monotonic millisecond clock the open loop waits on.
pub trait Clock {
    /// Milliseconds since the run's time origin.
    fn now_ms(&self) -> f64;
    /// Blocks until `now_ms() >= t_ms` (returns at once when already past).
    fn sleep_until(&self, t_ms: f64);
}

/// The real clock: a [`Stopwatch`] started at the run's time origin.
pub struct WallClock(pub Stopwatch);

impl WallClock {
    pub fn start() -> Self {
        WallClock(Stopwatch::start())
    }
}

impl Clock for WallClock {
    fn now_ms(&self) -> f64 {
        self.0.elapsed_ms()
    }

    fn sleep_until(&self, t_ms: f64) {
        let wait = t_ms - self.now_ms();
        if wait > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(wait / 1e3));
        }
    }
}

/// A clock that only moves when told to, for tests.
#[cfg(test)]
#[derive(Default)]
pub struct FakeClock(Cell<f64>);

#[cfg(test)]
impl FakeClock {
    pub fn advance(&self, ms: f64) {
        self.0.set(self.0.get() + ms);
    }
}

#[cfg(test)]
impl Clock for FakeClock {
    fn now_ms(&self) -> f64 {
        self.0.get()
    }

    fn sleep_until(&self, t_ms: f64) {
        if t_ms > self.0.get() {
            self.0.set(t_ms);
        }
    }
}

/// One attempted request of an open or closed loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the schedule said the request was due.
    pub due_ms: f64,
    /// When the generator actually issued it.
    pub start_ms: f64,
    /// When its result came back.
    pub end_ms: f64,
    /// Whether it produced a correct, undegraded result.
    pub ok: bool,
}

impl Sample {
    /// Latency as the user sees it: from the due time, so a stall also
    /// charges the requests queued behind it.
    pub fn latency_ms(&self) -> f64 {
        self.end_ms - self.due_ms
    }

    /// Time the system spent on this request alone.
    pub fn service_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }

    /// How late the generator issued the request.
    pub fn late_ms(&self) -> f64 {
        self.start_ms - self.due_ms
    }
}

/// Issues one request per due time, in order, on one thread: waits for
/// the due time, or issues at once when the previous request overran it.
/// A request the generator could only issue more than `give_up_ms` late
/// is not sent and counts as failed, which bounds a run whose backlog
/// grows without limit.
pub fn open_loop<C: Clock>(
    clock: &C,
    due: &[f64],
    give_up_ms: f64,
    mut serve: impl FnMut(usize) -> bool,
) -> Vec<Sample> {
    let mut out = Vec::with_capacity(due.len());
    for (i, &due_ms) in due.iter().enumerate() {
        clock.sleep_until(due_ms);
        let start_ms = clock.now_ms();
        if start_ms - due_ms > give_up_ms {
            out.push(Sample {
                due_ms,
                start_ms,
                end_ms: start_ms,
                ok: false,
            });
            continue;
        }
        let ok = serve(i);
        out.push(Sample {
            due_ms,
            start_ms,
            end_ms: clock.now_ms(),
            ok,
        });
    }
    out
}

/// Nearest-rank percentile `p` (0–100] of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    // The epsilon keeps a percentile computed as 100·k/n on rank k.
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub beyond: usize,
    pub samples: usize,
}

/// Picks the tail of ascending `sorted`: the sample with exactly
/// [`TAIL_BEYOND`] samples above it, at percentile `100·(n−10)/n`. With
/// too few samples for that, the maximum, flagged by `beyond == 0`.
pub fn tail(sorted: &[f64]) -> Tail {
    assert!(!sorted.is_empty(), "tail of no samples");
    let n = sorted.len();
    let rank = if n > TAIL_BEYOND { n - TAIL_BEYOND } else { n };
    let beyond = n - rank;
    Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: sorted[rank - 1],
        beyond,
        samples: n,
    }
}

/// The end-to-end figures of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub attempted: usize,
    pub failed: usize,
    pub missed: usize,
    pub latency_p50_ms: f64,
    pub tail: Tail,
    pub capacity_per_s: f64,
    pub throughput_per_s: f64,
    pub late_p50_ms: f64,
    pub late_max_ms: f64,
}

impl Summary {
    /// Share of attempted requests that finished within the deadline
    /// (`1 − deadline_miss_share`).
    pub fn on_time_share(&self) -> f64 {
        1.0 - self.missed as f64 / self.attempted as f64
    }

    /// Share of attempted requests that succeeded (`1 − fail_share`).
    pub fn success_share(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted as f64
    }
}

/// Summarizes `samples` against `deadline_ms`. A failed request counts
/// as a deadline miss whatever its latency. Latency percentiles cover
/// completed requests; capacity is completed requests per second of
/// service time and throughput completed units (`units` per completed
/// request, summed) per second of `wall_s`.
pub fn summarize(samples: &[Sample], units: &[f64], deadline_ms: f64, wall_s: f64) -> Summary {
    assert!(!samples.is_empty(), "a run attempts at least one request");
    assert_eq!(samples.len(), units.len());
    let done: Vec<&Sample> = samples.iter().filter(|s| s.ok).collect();
    let missed = samples
        .iter()
        .filter(|s| !s.ok || s.latency_ms() > deadline_ms)
        .count();
    let mut lat: Vec<f64> = done.iter().map(|s| s.latency_ms()).collect();
    lat.sort_by(f64::total_cmp);
    if lat.is_empty() {
        lat.push(f64::INFINITY);
    }
    let service_s: f64 = done.iter().map(|s| s.service_ms()).sum::<f64>() / 1e3;
    let completed_units: f64 = samples
        .iter()
        .zip(units)
        .filter(|(s, _)| s.ok)
        .map(|(_, u)| u)
        .sum();
    let late: Vec<f64> = samples.iter().map(Sample::late_ms).collect();
    Summary {
        attempted: samples.len(),
        failed: samples.len() - done.len(),
        missed,
        latency_p50_ms: percentile(&lat, 50.0),
        tail: tail(&lat),
        capacity_per_s: if service_s > 0.0 {
            done.len() as f64 / service_s
        } else {
            0.0
        },
        throughput_per_s: completed_units / wall_s,
        late_p50_ms: median(&late),
        late_max_ms: late.iter().copied().fold(0.0, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(due: &[f64], service: &[f64], ok: &[bool]) -> Vec<Sample> {
        let clock = FakeClock::default();
        open_loop(&clock, due, 1e9, |i| {
            clock.advance(service[i]);
            ok[i]
        })
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&sorted);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(sorted.iter().filter(|&&v| v > t.value).count(), 10);

        let sorted: Vec<f64> = (1..=60).map(f64::from).collect();
        let t = tail(&sorted);
        assert_eq!((t.value, t.beyond, t.samples), (50.0, 10, 60));
        assert!((t.percentile - 100.0 * 50.0 / 60.0).abs() < 1e-12);
        // The percentile names the same sample under nearest rank.
        assert_eq!(percentile(&sorted, t.percentile), t.value);

        // Eleven samples: the tail is the smallest one.
        let sorted: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&sorted).value, 1.0);
        // Too few samples: the maximum, flagged by `beyond`.
        let t = tail(&[1.0, 2.0, 3.0]);
        assert_eq!((t.value, t.beyond), (3.0, 0));
    }

    #[test]
    fn a_stalled_frame_delays_the_frames_behind_it() {
        // 100 ms camera period; frame 1 stalls for 250 ms.
        let due = [0.0, 100.0, 200.0, 300.0, 400.0];
        let service = [40.0, 250.0, 40.0, 40.0, 40.0];
        let samples = run(&due, &service, &[true; 5]);
        let lat: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
        // Frame 2 was due at 200 but waited until 350; the backlog drains
        // 60 ms a frame.
        assert_eq!(lat, vec![40.0, 250.0, 190.0, 130.0, 70.0]);
        let late: Vec<f64> = samples.iter().map(Sample::late_ms).collect();
        assert_eq!(late, vec![0.0, 0.0, 150.0, 90.0, 30.0]);
        // Service time excludes the wait.
        assert_eq!(samples[2].service_ms(), 40.0);
    }

    #[test]
    fn capacity_counts_completed_frames_per_second_of_service() {
        let due = [0.0, 100.0, 200.0, 300.0];
        let service = [20.0, 30.0, 50.0, 100.0];
        let samples = run(&due, &service, &[true, true, true, false]);
        let s = summarize(&samples, &[1.0; 4], 1e9, 0.4);
        // Three completed frames in 100 ms of service time.
        assert!((s.capacity_per_s - 30.0).abs() < 1e-9);
        assert!((s.throughput_per_s - 7.5).abs() < 1e-9);
        assert_eq!(s.failed, 1);
    }

    #[test]
    fn a_shed_or_failed_request_is_a_miss() {
        let due = [0.0, 100.0, 200.0, 300.0];
        let service = [10.0, 10.0, 10.0, 60.0];
        // Request 1 was shed: fast, but it failed.
        let samples = run(&due, &service, &[true, false, true, true]);
        let s = summarize(&samples, &[1.0; 4], 50.0, 1.0);
        assert_eq!(s.failed, 1);
        // The shed request and the one over the 50 ms deadline.
        assert_eq!(s.missed, 2);
        assert!((s.on_time_share() - 0.5).abs() < 1e-12);
        assert!((s.success_share() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn a_request_issued_too_late_is_given_up_and_failed() {
        let clock = FakeClock::default();
        let samples = open_loop(&clock, &[0.0, 10.0, 20.0], 50.0, |_| {
            clock.advance(100.0);
            true
        });
        // Request 1 goes out 90 ms late and is dropped; request 2 goes out
        // at 100, 80 ms late, and is dropped as well.
        assert_eq!(
            samples.iter().map(|s| s.ok).collect::<Vec<_>>(),
            vec![true, false, false]
        );
    }
}
