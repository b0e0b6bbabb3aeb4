//! Data-parallel primitives over scoped threads — the software mirror of
//! the paper's pipelined datapath.
//!
//! The detection chain scores tens of thousands of independent windows
//! per frame and builds pyramid levels that do not depend on each other;
//! this module fans that work across the available cores with
//! `std::thread::scope` — no extra dependencies, deterministic output
//! ordering, and a thread-count override for benchmarking and tests.
//!
//! Three primitives cover the workspace's shapes of parallelism:
//!
//! - [`map`]: element-wise map with order-preserving output (pyramid
//!   levels, frames, dataset windows). Work is claimed in contiguous
//!   index chunks so one atomic RMW amortizes over many items.
//! - [`map_chunks`]: map over *contiguous runs* of the input — the right
//!   granularity when individual items are too cheap to claim one by one
//!   (window positions along a row band).
//! - [`for_each_band`]: in-place fill of disjoint bands of an output
//!   buffer (feature-map resampling writes each output row exactly once).
//!
//! [`wide`] covers the other axis: it runs one kernel at AVX2 vector
//! width on x86-64 CPUs that have it.
//!
//! # Thread count
//!
//! All entry points size their worker pool from [`threads`]: the
//! `RTPED_THREADS` environment variable when set (clamped to
//! `1..=MAX_THREADS`), otherwise `std::thread::available_parallelism`.
//! `RTPED_THREADS=1` forces the serial path everywhere, which is how the
//! benchmarks time serial baselines and how the determinism tests pin
//! both sides of a comparison.
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
//! [`map`] re-panics with that same message — callers see the original
//! payload text instead of the scope's opaque "a scoped thread
//! panicked". Once a panic is observed the remaining workers stop
//! claiming work, and every already-computed result is dropped, so the
//! error path neither deadlocks nor leaks.

use std::any::Any;
use std::fmt;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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

/// A worker panic captured by [`try_map`] / surfaced by [`map`].
///
/// `index` is the item whose closure panicked; `message` is the panic
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
/// Worker threads claim contiguous chunks of indices from one atomic
/// counter (a handful of items per RMW, so the counter cache line is not
/// thrashed on fine-grained work) and write results straight into their
/// final slots — each result is stored exactly once. Falls back to a
/// serial loop for small inputs or a single-thread pool.
///
/// # Panics
///
/// If `f` panics, re-panics with the worker's payload text and the item
/// index (see [`MapPanic`]) after every worker has stopped — the original
/// message is preserved, nothing deadlocks, and completed results are
/// dropped. Use [`try_map`] to receive the panic as a value instead.
pub fn map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    map_with_threads(items, threads(), f)
}

/// [`map`] with an explicit thread count (used by the property tests and
/// anything that must pin the pool size without touching the
/// environment).
pub fn map_with_threads<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 || n < 2 {
        // Serial fast path: call `f` directly so panics propagate with
        // their original payload and zero wrapping overhead.
        return items.iter().map(f).collect();
    }
    match parallel_try_map(items, threads, &f) {
        Ok(out) => out,
        // Re-panic with the worker's payload text so callers (and
        // `#[should_panic(expected = ...)]` tests) still see the original
        // message instead of the scope's opaque "a scoped thread panicked".
        // rtped-lint: allow(unwrap-in-library, "documented contract: map re-raises the worker's original panic; try_map is the non-panicking path")
        Err(p) => panic!("{p}"),
    }
}

/// [`map`] with panic isolation: a panicking closure yields a typed
/// [`MapPanic`] instead of unwinding through the caller.
///
/// The panic is caught in both the serial and the parallel path, so the
/// behavior does not depend on the pool size. On error, results computed
/// before the panic are dropped; no work is leaked and no worker is left
/// running.
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
    let n = items.len();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 || n < 2 {
        let mut out = Vec::with_capacity(n);
        for (index, item) in items.iter().enumerate() {
            match catch_unwind(AssertUnwindSafe(|| f(item))) {
                Ok(result) => out.push(result),
                Err(payload) => {
                    return Err(MapPanic {
                        index,
                        message: payload_message(payload.as_ref()),
                    })
                }
            }
        }
        return Ok(out);
    }
    parallel_try_map(items, threads, &f)
}

/// The shared parallel engine behind [`map`] and [`try_map`].
///
/// Each closure call runs under `catch_unwind` (via `AssertUnwindSafe`:
/// the only shared state a panic can leave behind is the slot buffer,
/// which the error path cleans up below, so observing it is safe). On
/// panic the stop flag halts further claiming, the lowest observed
/// panicking index is recorded, and every fully-written slot — tracked as
/// completed ranges — is dropped so the error path leaks nothing.
fn parallel_try_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: &(impl Fn(&T) -> R + Sync),
) -> Result<Vec<R>, MapPanic> {
    let n = items.len();
    // Contiguous chunk claiming: one fetch_add hands a worker `claim`
    // consecutive indices. Small enough to balance uneven costs, large
    // enough that the atomic counter is off the hot path.
    let claim = claim_size(n, threads);
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let mut slots = uninit_slots::<R>(n);
    let slots_ptr = SendPtr(slots.as_mut_ptr());
    let first_panic: Mutex<Option<MapPanic>> = Mutex::new(None);
    let completed: Mutex<Vec<Range<usize>>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let next = &next;
            let stop = &stop;
            let first_panic = &first_panic;
            let completed = &completed;
            let f = &f;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let start = next.fetch_add(claim, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + claim).min(n);
                    let mut filled = start;
                    let mut panicked = false;
                    for (offset, item) in items[start..end].iter().enumerate() {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        match catch_unwind(AssertUnwindSafe(|| f(item))) {
                            Ok(result) => {
                                // SAFETY: exclusive chunk claim — the atomic
                                // counter hands each index range to exactly
                                // one worker, so no two threads ever write
                                // the same slot, and the slot buffer outlives
                                // the scope that borrows it.
                                unsafe {
                                    slots_ptr
                                        .get()
                                        .add(start + offset)
                                        .write(MaybeUninit::new(result));
                                }
                                filled = start + offset + 1;
                            }
                            Err(payload) => {
                                stop.store(true, Ordering::Relaxed);
                                let index = start + offset;
                                let message = payload_message(payload.as_ref());
                                let mut slot =
                                    first_panic.lock().unwrap_or_else(PoisonError::into_inner);
                                if slot.as_ref().is_none_or(|p| index < p.index) {
                                    *slot = Some(MapPanic { index, message });
                                }
                                panicked = true;
                                break;
                            }
                        }
                    }
                    if filled > start {
                        completed
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push(start..filled);
                    }
                    if panicked {
                        break;
                    }
                }
            });
        }
    });

    match first_panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        None => {
            // SAFETY: init-before-read — no worker panicked, so the claim
            // counter monotonically covered 0..n and every slot was written
            // exactly once before this single post-scope read.
            Ok(unsafe { assume_init_vec(slots) })
        }
        Some(panic) => {
            // Drop every result produced before the panic; the completed
            // ranges are disjoint (each was claimed by exactly one worker)
            // and cover precisely the initialized slots. `slots` itself then
            // drops as Vec<MaybeUninit<R>>, which frees the buffer without
            // touching any element again.
            let ranges = completed
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner);
            for range in ranges {
                for i in range {
                    // SAFETY: leak-free cleanup on panic — slot `i` lies in a
                    // completed (fully written, disjoint) range, so it holds
                    // an initialized value that is dropped exactly once;
                    // never-written slots stay MaybeUninit and are freed
                    // without being read.
                    unsafe { (*slots_ptr.get().add(i)).assume_init_drop() };
                }
            }
            drop(slots);
            Err(panic)
        }
    }
}

/// Applies `f` to contiguous chunks of `items` (each at most `chunk_len`
/// long), in parallel, returning per-chunk results in chunk order.
///
/// `f` receives the index of the chunk's first item and the chunk slice.
/// This is the right primitive when per-item work is too cheap to claim
/// individually: the caller picks the batch granularity and the claiming
/// cost is paid once per chunk.
///
/// # Panics
///
/// Panics if `chunk_len == 0`.
pub fn map_chunks<T: Sync, R: Send>(
    items: &[T],
    chunk_len: usize,
    f: impl Fn(usize, &[T]) -> R + Sync,
) -> Vec<R> {
    assert!(chunk_len > 0, "chunk_len must be non-zero");
    let chunks: Vec<(usize, &[T])> = items
        .chunks(chunk_len)
        .enumerate()
        .map(|(c, s)| (c * chunk_len, s))
        .collect();
    map(&chunks, |&(start, slice)| f(start, slice))
}

/// Splits `data` into consecutive bands of `band_len` elements (the last
/// band may be shorter) and runs `f(start_index, band)` on each, in
/// parallel. Bands are disjoint `&mut` slices, so the fill is safe and
/// the result is independent of the thread count.
///
/// # Panics
///
/// Panics if `band_len == 0` while `data` is non-empty.
pub fn for_each_band<T: Send>(data: &mut [T], band_len: usize, f: impl Fn(usize, &mut [T]) + Sync) {
    if data.is_empty() {
        return;
    }
    assert!(band_len > 0, "band_len must be non-zero");
    let workers = threads().min(data.len().div_ceil(band_len));
    if workers <= 1 {
        for (b, band) in data.chunks_mut(band_len).enumerate() {
            f(b * band_len, band);
        }
        return;
    }
    // Bands are coarse by construction, so a mutex-guarded iterator is a
    // perfectly good (and fully safe) work queue.
    let queue = Mutex::new(data.chunks_mut(band_len).enumerate());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let queue = &queue;
            let f = &f;
            scope.spawn(move || loop {
                // A panic in a sibling's `f` poisons the queue; recover the
                // guard so the survivors drain cleanly and the scope can
                // propagate the original panic instead of a poisoned-lock one.
                let item = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                match item {
                    Some((b, band)) => f(b * band_len, band),
                    None => break,
                }
            });
        }
    });
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

/// Evenly partitions `0..n` into at most `max_bands` contiguous ranges
/// (fewer when `n < max_bands`; empty when `n == 0`). Deterministic in
/// its inputs — band `b` always covers the same range.
#[must_use]
pub fn band_ranges(n: usize, max_bands: usize) -> Vec<Range<usize>> {
    if n == 0 || max_bands == 0 {
        return Vec::new();
    }
    let bands = max_bands.min(n);
    let base = n / bands;
    let extra = n % bands;
    let mut out = Vec::with_capacity(bands);
    let mut start = 0;
    for b in 0..bands {
        let len = base + usize::from(b < extra);
        out.push(start..start + len);
        start += len;
    }
    out
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

/// Claim granularity for [`map_with_threads`]: small enough that uneven
/// item costs still balance across the pool, large enough that the shared
/// counter sees ~32 RMWs per thread rather than one per item.
fn claim_size(n: usize, threads: usize) -> usize {
    (n / (threads * 32)).clamp(1, 64)
}

/// An uninitialized result buffer of length `n`.
fn uninit_slots<R>(n: usize) -> Vec<MaybeUninit<R>> {
    let mut slots = Vec::with_capacity(n);
    slots.resize_with(n, MaybeUninit::uninit);
    slots
}

/// Converts a fully initialized `Vec<MaybeUninit<R>>` into `Vec<R>`.
///
/// # Safety
///
/// Every element must be initialized.
unsafe fn assume_init_vec<R>(slots: Vec<MaybeUninit<R>>) -> Vec<R> {
    let mut slots = ManuallyDrop::new(slots);
    let (ptr, len, cap) = (slots.as_mut_ptr(), slots.len(), slots.capacity());
    // SAFETY: MaybeUninit<R> has the same layout as R, the caller
    // guarantees initialization, and ManuallyDrop relinquishes ownership.
    unsafe { Vec::from_raw_parts(ptr.cast::<R>(), len, cap) }
}

/// A raw pointer wrapper that is `Send`/`Copy` so scoped threads can write
/// disjoint slots of the output buffer.
struct SendPtr<R>(*mut MaybeUninit<R>);

impl<R> Clone for SendPtr<R> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<R> Copy for SendPtr<R> {}

impl<R> SendPtr<R> {
    /// Accessor so closures capture the whole `Send` wrapper rather than
    /// the raw-pointer field (edition-2021 disjoint capture).
    fn get(self) -> *mut MaybeUninit<R> {
        self.0
    }
}

// SAFETY: the pointer is only dereferenced at indices uniquely claimed via
// the atomic counter; disjoint writes from multiple threads are safe.
unsafe impl<R: Send> Send for SendPtr<R> {}
// SAFETY: same disjointness argument — the shared reference is only used
// to copy the pointer into worker threads.
unsafe impl<R: Send> Sync for SendPtr<R> {}

#[cfg(test)]
mod tests {
    use super::*;

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
            let out = map_with_threads(&items, threads, |&x| x * 3 + 1);
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
    fn map_chunks_covers_every_item_in_order() {
        let items: Vec<usize> = (0..103).collect();
        let sums = map_chunks(&items, 10, |start, chunk| {
            assert_eq!(chunk[0], start);
            chunk.iter().sum::<usize>()
        });
        assert_eq!(sums.len(), 11);
        assert_eq!(sums.iter().sum::<usize>(), items.iter().sum::<usize>());
        // First chunk is 0..10, last chunk is 100..103.
        assert_eq!(sums[0], (0..10).sum::<usize>());
        assert_eq!(sums[10], 100 + 101 + 102);
    }

    #[test]
    #[should_panic(expected = "chunk_len must be non-zero")]
    fn map_chunks_rejects_zero_chunk() {
        let _ = map_chunks(&[1, 2, 3], 0, |_, c| c.len());
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
    fn band_ranges_partition_the_domain() {
        for n in [0usize, 1, 7, 64, 135, 1000] {
            for bands in [1usize, 2, 3, 8, 200] {
                let ranges = band_ranges(n, bands);
                let mut covered = 0;
                let mut expect_start = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect_start, "bands must be contiguous");
                    assert!(!r.is_empty(), "no empty bands");
                    covered += r.len();
                    expect_start = r.end;
                }
                assert_eq!(covered, n, "n={n} bands={bands}");
                assert!(ranges.len() <= bands.min(n.max(1)));
                // Even split: band lengths differ by at most one.
                if let (Some(min), Some(max)) = (
                    ranges.iter().map(|r| r.len()).min(),
                    ranges.iter().map(|r| r.len()).max(),
                ) {
                    assert!(max - min <= 1);
                }
            }
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
        // n < 2 forces the serial fast path; isolation must not depend on
        // the pool actually spawning.
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
            map_with_threads(&items, 4, |&x| {
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
            // Per-item cost varies with the value, so chunk claiming and
            // work stealing both get exercised.
            let cost = |&x: &u64| {
                let mut acc = x;
                for i in 0..(x % 13) * 50 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                (x, acc)
            };
            let serial: Vec<(u64, u64)> = items.iter().map(cost).collect();
            let parallel = map_with_threads(&items, threads, cost);
            crate::check_assert_eq!(serial, parallel);
        }
    }
}
