//! Data-parallel primitives over scoped threads — the software mirror of
//! the paper's pipelined datapath.
//!
//! The detection chain scores tens of thousands of independent windows
//! per frame and builds pyramid levels that do not depend on each other;
//! this module fans that work across the available cores with
//! `std::thread::scope` — no extra dependencies, deterministic output
//! ordering, and a thread-count override for benchmarking and tests.
//!
//! Two primitives cover the workspace's shapes of parallelism:
//!
//! - [`map`] / [`try_map`]: element-wise map with order-preserving output
//!   (pyramid levels, frames, fleet runs). Work is claimed in contiguous
//!   runs of items so one claim amortizes over many items.
//! - [`for_each_band`]: in-place fill of disjoint bands of an output
//!   buffer (feature-map resampling writes each output row exactly once;
//!   the level scan fills each window row's hits).
//!
//! Both run on one safe work-claiming loop: workers pop disjoint
//! `&mut` bands off a mutex-guarded `chunks_mut` queue, so no raw pointer
//! crosses a thread. [`run_workers`] is the long-lived pool for daemon and
//! client loops.
//!
//! [`wide`] covers the other axis: it runs one kernel at AVX2 vector
//! width on x86-64 CPUs that have it.
//!
//! # Thread count
//!
//! All entry points size their worker pool from [`threads`]: the
//! `RTPED_THREADS` environment variable when set (clamped to
//! `1..=MAX_THREADS`), otherwise `std::thread::available_parallelism`.
//! `RTPED_THREADS=1` runs the same loop on the caller's thread, which is
//! how the benchmarks time serial baselines and how the determinism tests
//! pin both sides of a comparison.
//!
//! # Determinism
//!
//! Every primitive yields output identical to its serial equivalent —
//! same values, same order — for any thread count. Parallelism only
//! changes *when* an element is computed, never *where* its result lands.
//!
//! # Panic isolation
//!
//! Worker bodies run under `catch_unwind`, so a panicking closure can
//! never take the whole pool down silently: [`try_map`] reports the
//! panic as a typed [`MapPanic`] (item index plus the payload text), and
//! [`map`] and [`for_each_band`] re-panic with that same message —
//! callers see the original payload text instead of the scope's opaque
//! "a scoped thread panicked". Once a panic is observed the remaining
//! workers stop claiming work, and every already-computed result is
//! dropped, so the error path neither deadlocks nor leaks.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

/// Environment variable overriding the worker-pool size.
pub const THREADS_ENV: &str = "RTPED_THREADS";

/// Upper bound on the worker-pool size (sanity clamp for the override).
pub const MAX_THREADS: usize = 256;

/// The worker-pool size: `RTPED_THREADS` if set to a positive integer
/// (clamped to [`MAX_THREADS`]), otherwise the OS-reported available
/// parallelism (1 if unknown). An unparsable or zero value is ignored
/// with a once-per-process stderr warning rather than silently falling
/// back.
#[must_use]
pub fn threads() -> usize {
    let fallback = || {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    };
    match crate::env::typed::<usize>(THREADS_ENV) {
        crate::env::EnvValue::Valid { value, .. } if value >= 1 => value.min(MAX_THREADS),
        crate::env::EnvValue::Valid { raw, .. } | crate::env::EnvValue::Invalid { raw } => {
            crate::env::warn_once(THREADS_ENV, &raw, "OS available parallelism");
            fallback()
        }
        crate::env::EnvValue::Unset => fallback(),
    }
}

/// A worker panic captured by [`try_map`] / surfaced by [`map`] and
/// [`for_each_band`].
///
/// `index` is the item whose closure panicked (for [`for_each_band`], the
/// start index of the panicking band); `message` is the panic
/// payload rendered as text (`&str` and `String` payloads verbatim,
/// anything else summarized). When several items panic concurrently the
/// lowest *observed* index wins; with a single panicking item — the
/// common case, and the only deterministic one — the report is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapPanic {
    /// Index of the item whose closure panicked.
    pub index: usize,
    /// The panic payload as text.
    pub message: String,
}

impl fmt::Display for MapPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parallel worker panicked at item {}: {}",
            self.index, self.message
        )
    }
}

impl std::error::Error for MapPanic {}

/// Renders a panic payload as text without consuming it.
fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Applies `f` to every element of `items`, in parallel, preserving order.
///
/// Workers claim contiguous runs of up to 64 items (a handful per claim,
/// so the shared queue is off the hot path on fine-grained work)
/// and store each result in its own slot; a single-thread pool runs the
/// same loop on the caller's thread.
///
/// # Panics
///
/// If `f` panics, re-panics with the worker's payload text and the item
/// index (see [`MapPanic`]) after every worker has stopped — the original
/// message is preserved, nothing deadlocks, and completed results are
/// dropped. Use [`try_map`] to receive the panic as a value instead.
pub fn map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    or_repanic(try_map(items, f))
}

/// [`map`] with panic isolation: a panicking closure yields a typed
/// [`MapPanic`] instead of unwinding through the caller.
///
/// The panic is caught for every pool size, so the behavior does not
/// depend on it. On error, results computed before the panic are dropped;
/// no work is leaked and no worker is left running.
///
/// # Errors
///
/// Returns the first (lowest-index observed) worker panic.
pub fn try_map<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Result<Vec<R>, MapPanic> {
    try_map_with_threads(items, threads(), f)
}

/// [`try_map`] with an explicit thread count.
///
/// # Errors
///
/// Returns the first (lowest-index observed) worker panic.
pub fn try_map_with_threads<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Result<Vec<R>, MapPanic> {
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let claim = claim_size(items.len(), threads.max(1));
    claim_bands(&mut slots, claim, threads, |start, band| {
        for (index, slot) in (start..).zip(band) {
            *slot = Some(caught(index, || f(&items[index]))?);
        }
        Ok(())
    })?;
    Ok(slots.into_iter().flatten().collect())
}

/// Splits `data` into consecutive bands of `band_len` elements (the last
/// band may be shorter) and runs `f(start_index, band)` on each, in
/// parallel. Bands are disjoint `&mut` slices, so the fill is safe and
/// the result is independent of the thread count.
///
/// # Panics
///
/// Panics if `band_len == 0` while `data` is non-empty. If `f` panics,
/// re-panics with the worker's payload text and the band's start index
/// (see [`MapPanic`]) after every worker has stopped.
pub fn for_each_band<T: Send>(data: &mut [T], band_len: usize, f: impl Fn(usize, &mut [T]) + Sync) {
    for_each_band_with_threads(data, band_len, threads(), f);
}

/// [`for_each_band`] with an explicit thread count.
fn for_each_band_with_threads<T: Send>(
    data: &mut [T],
    band_len: usize,
    threads: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    if data.is_empty() {
        return;
    }
    assert!(band_len > 0, "band_len must be non-zero");
    or_repanic(claim_bands(data, band_len, threads, |start, band| {
        caught(start, || f(start, band))
    }));
}

/// The one work-claiming loop behind [`try_map`] and [`for_each_band`].
///
/// Up to `threads` workers pop `(band, &mut slice)` pairs off one
/// mutex-guarded `chunks_mut` queue and run `f(start_index, slice)` until
/// the queue drains; with one worker the loop runs on the caller's thread.
/// `f` reports a caught panic as an error: a stop flag then halts further
/// claiming, and the lowest panicking index is kept. `band_len` must be
/// non-zero.
fn claim_bands<T: Send>(
    data: &mut [T],
    band_len: usize,
    threads: usize,
    f: impl Fn(usize, &mut [T]) -> Result<(), MapPanic> + Sync,
) -> Result<(), MapPanic> {
    let workers = threads.min(data.len().div_ceil(band_len));
    let queue = Mutex::new(data.chunks_mut(band_len).enumerate());
    let stop = AtomicBool::new(false);
    let first_panic: Mutex<Option<MapPanic>> = Mutex::new(None);
    let work = |_worker: usize| {
        while !stop.load(Ordering::Relaxed) {
            // `f` never unwinds (its panics come back as errors), so the
            // lock cannot be poisoned; recovering the guard keeps the loop
            // panic-free anyway.
            let claimed = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((b, band)) = claimed else {
                break;
            };
            if let Err(panic) = f(b * band_len, band) {
                stop.store(true, Ordering::Relaxed);
                let mut slot = first_panic.lock().unwrap_or_else(PoisonError::into_inner);
                if slot.as_ref().is_none_or(|p| panic.index < p.index) {
                    *slot = Some(panic);
                }
            }
        }
    };
    if workers <= 1 {
        work(0);
    } else {
        run_workers(workers, work);
    }
    first_panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .map_or(Ok(()), Err)
}

/// Runs `body` under `catch_unwind`, reporting a panic as a [`MapPanic`]
/// at `index`. (`AssertUnwindSafe`: on a panic the caller discards
/// everything the body could have touched.)
fn caught<R>(index: usize, body: impl FnOnce() -> R) -> Result<R, MapPanic> {
    catch_unwind(AssertUnwindSafe(body)).map_err(|payload| MapPanic {
        index,
        message: payload_message(payload.as_ref()),
    })
}

/// Unwraps a claim-loop result, re-panicking with the worker's payload
/// text so callers (and `#[should_panic(expected = ...)]` tests) see the
/// original message instead of the scope's opaque "a scoped thread
/// panicked".
fn or_repanic<V>(result: Result<V, MapPanic>) -> V {
    match result {
        Ok(value) => value,
        // rtped-lint: allow(unwrap-in-library, "documented contract: map and for_each_band re-raise the worker's original panic; try_map is the non-panicking path")
        Err(p) => panic!("{p}"),
    }
}

/// Runs `f(0), f(1), ..., f(workers - 1)` on one scoped thread each and
/// blocks until every worker returns — the long-lived worker-pool
/// primitive (daemon request loops, load-generator clients), as opposed
/// to the per-call data parallelism of [`map`].
///
/// `workers` is clamped to `1..=MAX_THREADS`. Workers are expected to
/// exit on their own (e.g. when a shared shutdown flag flips); a panic in
/// any worker propagates once all threads have been joined.
pub fn run_workers(workers: usize, f: impl Fn(usize) + Sync) {
    let workers = workers.clamp(1, MAX_THREADS);
    let f = &f;
    std::thread::scope(|scope| {
        for w in 0..workers {
            scope.spawn(move || f(w));
        }
    });
}

/// Runs `f` at AVX2 vector width when the CPU has it — the lane axis of
/// parallelism, next to the thread axis of [`map`].
///
/// On x86-64 with AVX2, `f` is inlined into an AVX2-enabled trampoline,
/// so the integer loops inside it autovectorize at 256 bits; otherwise
/// (and on every other target) `f` runs as built. Only pass bodies whose
/// result cannot depend on the instruction set — exact integer math or
/// lane-wise float expressions — since callers never learn which ran.
#[inline]
pub fn wide<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx2")]
        fn avx2<R>(f: impl FnOnce() -> R) -> R {
            f()
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `avx2` only enables AVX2, which the running CPU has
            // just reported; `f` itself is safe code.
            return unsafe { avx2(f) };
        }
    }
    f()
}

/// Claim granularity for [`try_map_with_threads`]: small enough that
/// uneven item costs still balance across the pool, large enough that the
/// shared queue sees ~32 claims per thread rather than one per item.
fn claim_size(n: usize, threads: usize) -> usize {
    (n / (threads * 32)).clamp(1, 64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// [`map`] with an explicit thread count.
    fn map_with<T: Sync, R: Send>(
        items: &[T],
        threads: usize,
        f: impl Fn(&T) -> R + Sync,
    ) -> Vec<R> {
        or_repanic(try_map_with_threads(items, threads, f))
    }

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = map(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn small_input_matches_serial() {
        let out = map(&[1, 2, 3], |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn run_workers_runs_each_index_once_and_blocks_until_done() {
        let hits: Vec<AtomicUsize> = (0..5).map(|_| AtomicUsize::new(0)).collect();
        run_workers(5, |w| {
            hits[w].fetch_add(1, Ordering::SeqCst);
        });
        for (w, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "worker {w}");
        }
        // Zero workers clamps to one.
        let ran = AtomicUsize::new(0);
        run_workers(0, |_| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn works_with_non_copy_results() {
        let items = vec!["a", "bb", "ccc"];
        let out = map(&items, |s| s.to_string());
        assert_eq!(out, vec!["a".to_string(), "bb".into(), "ccc".into()]);
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in 1..=8 {
            let out = map_with(&items, threads, |&x| x * 3 + 1);
            assert_eq!(out, serial, "threads={threads}");
        }
    }

    #[test]
    fn claim_size_is_bounded() {
        assert_eq!(claim_size(10, 4), 1);
        assert_eq!(claim_size(1_000_000, 4), 64);
        let mid = claim_size(4096, 8);
        assert!((1..=64).contains(&mid));
    }

    #[test]
    fn for_each_band_fills_every_element() {
        let mut data = vec![0usize; 1003];
        for_each_band(&mut data, 64, |start, band| {
            for (i, v) in band.iter_mut().enumerate() {
                *v = (start + i) * 7;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i * 7);
        }
    }

    #[test]
    fn for_each_band_empty_is_noop() {
        let mut data: Vec<u8> = Vec::new();
        for_each_band(&mut data, 0, |_, _| panic!("no bands expected"));
    }

    #[test]
    fn for_each_band_repanics_with_payload_and_band_start() {
        // One band panics: every pool size must drain (no deadlock) and
        // re-raise the original payload text with the band's start index,
        // never the scope's or a poisoned lock's message.
        for threads in 1..=4 {
            let mut data = vec![0usize; 1000];
            let caught = catch_unwind(AssertUnwindSafe(|| {
                for_each_band_with_threads(&mut data, 64, threads, |start, band| {
                    if start == 320 {
                        panic!("injected failure in band {start}");
                    }
                    band.fill(start);
                });
            }))
            .expect_err("for_each_band must re-panic");
            let text = payload_message(caught.as_ref());
            assert!(
                text.contains("injected failure in band 320") && text.contains("item 320"),
                "threads={threads}: re-panic lost the payload or band start: {text}"
            );
        }
    }

    #[test]
    fn try_map_matches_map_on_success() {
        let items: Vec<u64> = (0..300).collect();
        for threads in [1usize, 2, 4, 8] {
            let ok =
                try_map_with_threads(&items, threads, |&x| x * x).expect("no closure panicked");
            assert_eq!(ok, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn try_map_reports_panic_without_deadlock_or_message_loss() {
        // Panic on item k of n: the pool must drain (no deadlock), the
        // typed error must carry the original payload text, and — with a
        // single panicking item — the exact index.
        let n = 500;
        let k = 311;
        let items: Vec<usize> = (0..n).collect();
        for threads in [1usize, 2, 3, 8] {
            let err = try_map_with_threads(&items, threads, |&x| {
                if x == k {
                    panic!("injected failure on item {x}");
                }
                x * 2
            })
            .expect_err("the panic must surface as an error");
            assert_eq!(err.index, k, "threads={threads}");
            assert_eq!(err.message, format!("injected failure on item {k}"));
            assert!(err.to_string().contains("item 311"));
        }
    }

    #[test]
    fn try_map_serial_path_catches_panics_too() {
        // One item is one band, run on the caller's thread; isolation
        // must not depend on the pool actually spawning.
        let err = try_map_with_threads(&[7u32], 4, |_| -> u32 { panic!("lone item") })
            .expect_err("serial path must catch");
        assert_eq!(err.index, 0);
        assert_eq!(err.message, "lone item");
    }

    #[test]
    fn try_map_string_payloads_survive() {
        let items = [0u8, 1, 2];
        let err = try_map_with_threads(&items, 2, |&x| {
            if x == 1 {
                std::panic::panic_any(format!("owned payload {x}"));
            }
            x
        })
        .expect_err("panic expected");
        assert_eq!(err.message, "owned payload 1");
    }

    #[test]
    fn try_map_error_path_drops_completed_results() {
        use std::sync::atomic::AtomicUsize;

        static LIVE: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct Counted;
        impl Counted {
            fn new() -> Self {
                LIVE.fetch_add(1, Ordering::SeqCst);
                Counted
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Ordering::SeqCst);
            }
        }

        let items: Vec<usize> = (0..400).collect();
        let err = try_map_with_threads(&items, 4, |&x| {
            if x == 250 {
                panic!("boom");
            }
            Counted::new()
        })
        .expect_err("panic expected");
        assert_eq!(err.message, "boom");
        // Every result constructed before the panic was dropped exactly
        // once: nothing leaks, nothing double-frees.
        assert_eq!(LIVE.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn map_repanics_with_original_message() {
        let items: Vec<usize> = (0..200).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            map_with(&items, 4, |&x| {
                if x == 90 {
                    panic!("original payload text");
                }
                x
            })
        }))
        .expect_err("map must re-panic");
        let text = payload_message(caught.as_ref());
        assert!(
            text.contains("original payload text"),
            "re-panic lost the payload: {text}"
        );
        assert!(text.contains("item 90"), "re-panic lost the index: {text}");
    }

    // CI's miri step runs the `par::` tests; this one is how it reaches
    // `wide`.
    #[test]
    fn wide_returns_what_its_body_returns() {
        let owned = vec![3i32, -4, 5];
        let sum = wide(move || owned.into_iter().map(|v| v * v).sum::<i32>());
        assert_eq!(sum, 50);
    }

    crate::check! {
        #![cases = 48]
        fn par_map_matches_serial_under_uneven_costs(
            items in crate::check::vec_of(0u64..1000, 0..=96),
            threads in 1usize..=8,
        ) {
            // Per-item cost varies with the value, so workers claim
            // bands at uneven rates.
            let cost = |&x: &u64| {
                let mut acc = x;
                for i in 0..(x % 13) * 50 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                (x, acc)
            };
            let serial: Vec<(u64, u64)> = items.iter().map(cost).collect();
            let parallel = map_with(&items, threads, cost);
            crate::check_assert_eq!(serial, parallel);
        }
    }

    crate::check! {
        #![cases = 48]
        fn band_fills_match_the_serial_fill(
            items in crate::check::vec_of(0u64..1000, 0..=96),
            threads in 1usize..=8,
            pick in 0usize..1000,
        ) {
            // Band lengths 1..=n+1: one-element bands through a single
            // band longer than the data.
            let band_len = pick % (items.len() + 1) + 1;
            let fill = |start: usize, band: &mut [u64]| {
                for (i, v) in (start..).zip(band.iter_mut()) {
                    *v = v.wrapping_mul(31) ^ i as u64;
                }
            };
            let mut serial = items.clone();
            fill(0, &mut serial);
            let mut banded = items;
            for_each_band_with_threads(&mut banded, band_len, threads, fill);
            crate::check_assert_eq!(serial, banded);
        }
    }
}
