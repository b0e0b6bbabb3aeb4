//! A small seeded property-testing harness.
//!
//! This replaces `proptest` for the workspace's randomized tests. The
//! moving parts: a [`Gen`] trait producing random values (with a
//! "shrink-lite" step that walks a failing case toward smaller inputs), a
//! [`run`] driver that executes a property over many seeded cases and
//! reports the shrunk counterexample plus its reproduction seed, and a
//! [`check!`](crate::check!) macro that turns `fn name(arg in gen, ...)`
//! blocks into `#[test]` functions.
//!
//! Design limits, on purpose: generators built with [`Gen::map_gen`] /
//! [`Gen::flat_map_gen`] do not shrink (the pre-image of the mapped value is
//! not recoverable), and shrinking is greedy with a bounded step count.
//! Failures always print the case seed, so any counterexample — shrunk or
//! not — replays exactly.
//!
//! # Example
//!
//! ```
//! rtped_core::check! {
//!     #![cases = 32]
//!     fn addition_commutes(a in -1000..1000i32, b in -1000..1000i32) {
//!         rtped_core::check_assert_eq!(a + b, b + a);
//!     }
//! }
//! # fn main() {}
//! ```

use std::fmt;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::rng::{splitmix64, Rng, SampleUniform, SeedRng};

/// How many shrink candidates [`run`] will evaluate before giving up and
/// reporting the best counterexample found so far.
const MAX_SHRINK_STEPS: usize = 512;

/// A source of random test values with an optional shrinking step.
pub trait Gen: Clone {
    /// The values this generator produces.
    type Value: Clone + fmt::Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut SeedRng) -> Self::Value;

    /// Candidate simplifications of a failing `value`, "smallest" first.
    /// The default (no candidates) is always sound.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    /// A generator applying `f` to this generator's output (named to
    /// avoid colliding with `Iterator::map` on range generators).
    ///
    /// Mapped generators do not shrink.
    fn map_gen<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        U: Clone + fmt::Debug,
        F: Fn(Self::Value) -> U + Clone,
    {
        Map { inner: self, f }
    }

    /// A generator whose second stage depends on a first draw (e.g. draw
    /// dimensions, then draw a buffer of matching length).
    ///
    /// Flat-mapped generators do not shrink.
    fn flat_map_gen<H, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        H: Gen,
        F: Fn(Self::Value) -> H + Clone,
    {
        FlatMap { inner: self, f }
    }
}

impl<T: SampleUniform + fmt::Debug> Gen for Range<T> {
    type Value = T;

    fn generate(&self, rng: &mut SeedRng) -> T {
        rng.gen_range(self.clone())
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        shrink_toward_low(self.start, *value)
    }
}

impl<T: SampleUniform + fmt::Debug> Gen for RangeInclusive<T> {
    type Value = T;

    fn generate(&self, rng: &mut SeedRng) -> T {
        rng.gen_range(self.clone())
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        shrink_toward_low(*self.start(), *value)
    }
}

fn shrink_toward_low<T: SampleUniform>(low: T, value: T) -> Vec<T> {
    let mut out = Vec::new();
    if value != low {
        // Jump straight to the minimum first, then halve the distance.
        out.push(low);
        if let Some(mid) = T::shrink_toward(low, value) {
            if mid != low {
                out.push(mid);
            }
        }
    }
    out
}

/// See [`Gen::map_gen`].
#[derive(Clone)]
pub struct Map<G, F> {
    inner: G,
    f: F,
}

impl<G, U, F> Gen for Map<G, F>
where
    G: Gen,
    U: Clone + fmt::Debug,
    F: Fn(G::Value) -> U + Clone,
{
    type Value = U;

    fn generate(&self, rng: &mut SeedRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Gen::flat_map_gen`].
#[derive(Clone)]
pub struct FlatMap<G, F> {
    inner: G,
    f: F,
}

impl<G, H, F> Gen for FlatMap<G, F>
where
    G: Gen,
    H: Gen,
    F: Fn(G::Value) -> H + Clone,
{
    type Value = H::Value;

    fn generate(&self, rng: &mut SeedRng) -> H::Value {
        let first = self.inner.generate(rng);
        (self.f)(first).generate(rng)
    }
}

/// A fair coin.
#[must_use]
pub fn boolean() -> Boolean {
    Boolean
}

/// See [`boolean`].
#[derive(Clone)]
pub struct Boolean;

impl Gen for Boolean {
    type Value = bool;

    fn generate(&self, rng: &mut SeedRng) -> bool {
        rng.gen_bool(0.5)
    }

    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// A uniform choice among explicit options (no shrinking).
#[must_use]
pub fn choice<T: Clone + fmt::Debug>(options: Vec<T>) -> Choice<T> {
    assert!(!options.is_empty(), "choice() needs at least one option");
    Choice { options }
}

/// See [`choice`].
#[derive(Clone)]
pub struct Choice<T> {
    options: Vec<T>,
}

impl<T: Clone + fmt::Debug> Gen for Choice<T> {
    type Value = T;

    fn generate(&self, rng: &mut SeedRng) -> T {
        let i = rng.gen_range(0..self.options.len());
        self.options[i].clone()
    }
}

/// Lengths accepted by [`vec_of`] and [`ascii_string`]: `a..b`, `a..=b`,
/// or an exact `usize`.
pub trait LenRange {
    /// Inclusive `(min, max)` bounds.
    fn bounds(self) -> (usize, usize);
}

impl LenRange for Range<usize> {
    fn bounds(self) -> (usize, usize) {
        assert!(self.start < self.end, "empty length range");
        (self.start, self.end - 1)
    }
}

impl LenRange for RangeInclusive<usize> {
    fn bounds(self) -> (usize, usize) {
        let (min, max) = self.into_inner();
        assert!(min <= max, "empty length range");
        (min, max)
    }
}

impl LenRange for usize {
    fn bounds(self) -> (usize, usize) {
        (self, self)
    }
}

/// A vector of `elem`-generated values with length drawn from `len`.
#[must_use]
pub fn vec_of<G: Gen>(elem: G, len: impl LenRange) -> VecGen<G> {
    let (min, max) = len.bounds();
    VecGen { elem, min, max }
}

/// See [`vec_of`].
#[derive(Clone)]
pub struct VecGen<G> {
    elem: G,
    min: usize,
    max: usize,
}

impl<G: Gen> Gen for VecGen<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, rng: &mut SeedRng) -> Vec<G::Value> {
        let len = rng.gen_range(self.min..=self.max);
        (0..len).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        let mut out = Vec::new();
        let n = value.len();
        if n > self.min {
            let half = self.min.max(n / 2);
            if half < n {
                out.push(value[..half].to_vec());
            }
            out.push(value[..n - 1].to_vec());
            out.push(value[1..].to_vec());
        }
        for i in 0..n {
            if let Some(cand) = self.elem.shrink(&value[i]).into_iter().next() {
                let mut v = value.clone();
                v[i] = cand;
                out.push(v);
            }
        }
        out
    }
}

/// A printable-ASCII string (bytes `0x20..=0x7E`, which includes quotes,
/// backslashes, and braces — the characters parsers trip on) with length
/// drawn from `len`.
#[must_use]
pub fn ascii_string(len: impl LenRange) -> AsciiString {
    let (min, max) = len.bounds();
    AsciiString { min, max }
}

/// See [`ascii_string`].
#[derive(Clone)]
pub struct AsciiString {
    min: usize,
    max: usize,
}

impl Gen for AsciiString {
    type Value = String;

    fn generate(&self, rng: &mut SeedRng) -> String {
        let len = rng.gen_range(self.min..=self.max);
        (0..len)
            .map(|_| char::from(rng.gen_range(0x20u8..=0x7E)))
            .collect()
    }

    fn shrink(&self, value: &String) -> Vec<String> {
        let mut out = Vec::new();
        let n = value.len();
        if n > self.min {
            let half = self.min.max(n / 2);
            if half < n {
                out.push(value[..half].to_string());
            }
            out.push(value[..n - 1].to_string());
        }
        out
    }
}

macro_rules! impl_gen_tuple {
    ($($G:ident . $idx:tt),+) => {
        impl<$($G: Gen),+> Gen for ($($G,)+) {
            type Value = ($($G::Value,)+);

            fn generate(&self, rng: &mut SeedRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx) {
                        let mut v = value.clone();
                        v.$idx = cand;
                        out.push(v);
                    }
                )+
                out
            }
        }
    };
}

impl_gen_tuple!(A.0);
impl_gen_tuple!(A.0, B.1);
impl_gen_tuple!(A.0, B.1, C.2);
impl_gen_tuple!(A.0, B.1, C.2, D.3);
impl_gen_tuple!(A.0, B.1, C.2, D.3, E.4);
impl_gen_tuple!(A.0, B.1, C.2, D.3, E.4, F.5);
impl_gen_tuple!(A.0, B.1, C.2, D.3, E.4, F.5, G.6);
impl_gen_tuple!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);

/// How a property run samples cases.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of passing cases required.
    pub cases: u32,
    /// Base seed; the per-test stream also mixes in the test name.
    pub seed: u64,
}

impl Config {
    /// A config with `cases` cases and the default seed.
    #[must_use]
    pub fn new(cases: u32) -> Self {
        Config {
            cases,
            ..Config::default()
        }
    }

    /// Overrides the base seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 64,
            seed: 0x5EED_0FC0_FFEE,
        }
    }
}

/// Panic payload thrown by [`check_assume!`](crate::check_assume!); the
/// runner treats it as "skip this case" rather than a failure.
pub struct Discard;

enum CaseOutcome {
    Pass,
    Discard,
    Fail(String),
}

fn run_one<V>(prop: &impl Fn(&V), value: &V) -> CaseOutcome {
    match catch_unwind(AssertUnwindSafe(|| prop(value))) {
        Ok(()) => CaseOutcome::Pass,
        Err(payload) => {
            if payload.is::<Discard>() {
                CaseOutcome::Discard
            } else if let Some(s) = payload.downcast_ref::<&str>() {
                CaseOutcome::Fail((*s).to_string())
            } else if let Some(s) = payload.downcast_ref::<String>() {
                CaseOutcome::Fail(s.clone())
            } else {
                CaseOutcome::Fail("<non-string panic payload>".to_string())
            }
        }
    }
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs `prop` over `config.cases` generated cases; on failure, shrinks
/// greedily and panics with the minimal counterexample found and the seed
/// that reproduces it.
///
/// Properties signal failure by panicking (`assert!`,
/// [`check_assert!`](crate::check_assert!), ...) and skip
/// uninteresting cases via [`check_assume!`](crate::check_assume!).
///
/// # Panics
///
/// Panics if the property fails for some case, or if too many cases in a
/// row are discarded (the generator and the assumptions disagree).
pub fn run<G, F>(name: &str, config: &Config, gen: &G, prop: F)
where
    G: Gen,
    F: Fn(&G::Value),
{
    let mut stream = config.seed ^ fnv1a(name);
    let mut passed: u32 = 0;
    let mut discarded: u32 = 0;
    let discard_budget = config.cases.saturating_mul(16).saturating_add(100);

    while passed < config.cases {
        let case_seed = splitmix64(&mut stream);
        let mut rng = SeedRng::seed_from_u64(case_seed);
        let value = gen.generate(&mut rng);
        match run_one(&prop, &value) {
            CaseOutcome::Pass => passed += 1,
            CaseOutcome::Discard => {
                discarded += 1;
                assert!(
                    discarded <= discard_budget,
                    "property `{name}`: {discarded} cases discarded before \
                     {passed} passed — generator and assumptions disagree"
                );
            }
            CaseOutcome::Fail(first_message) => {
                let (minimal, message, steps) =
                    shrink_failure(gen, &prop, value.clone(), first_message);
                // rtped-lint: allow(unwrap-in-library, "panicking is the harness's reporting channel: a failed property must abort the #[test] that ran it")
                panic!(
                    "property `{name}` failed after {passed} passing case(s)\n\
                     | counterexample: {minimal:?}\n\
                     | original case:  {value:?} ({steps} shrink step(s))\n\
                     | replay: case seed {case_seed:#018x} (config seed {:#x})\n\
                     | cause: {message}",
                    config.seed,
                );
            }
        }
    }
}

fn shrink_failure<G: Gen, F: Fn(&G::Value)>(
    gen: &G,
    prop: &F,
    failing: G::Value,
    message: String,
) -> (G::Value, String, usize) {
    let mut best = failing;
    let mut best_message = message;
    let mut steps = 0usize;
    let mut improved = 0usize;

    'outer: while steps < MAX_SHRINK_STEPS {
        for candidate in gen.shrink(&best) {
            steps += 1;
            if let CaseOutcome::Fail(m) = run_one(prop, &candidate) {
                best = candidate;
                best_message = m;
                improved += 1;
                continue 'outer;
            }
            if steps >= MAX_SHRINK_STEPS {
                break 'outer;
            }
        }
        break;
    }
    (best, best_message, improved)
}

/// Declares seeded property tests.
///
/// Each `fn name(arg in generator, ...) { body }` item expands to a
/// `#[test]` that runs the body over generated cases. An optional leading
/// `#![cases = N]` / `#![cases = N, seed = S]` / `#![seed = S]` attribute
/// configures every test in the block.
///
/// ```
/// rtped_core::check! {
///     #![cases = 16]
///     fn reverse_is_involutive(v in rtped_core::check::vec_of(0u8..=255, 0..32)) {
///         let mut w = v.clone();
///         w.reverse();
///         w.reverse();
///         rtped_core::check_assert_eq!(v, w);
///     }
/// }
/// # fn main() {}
/// ```
#[macro_export]
macro_rules! check {
    (#![cases = $cases:expr, seed = $seed:expr] $($rest:tt)*) => {
        $crate::__check_fns! { ($crate::check::Config::new($cases).with_seed($seed)) $($rest)* }
    };
    (#![cases = $cases:expr] $($rest:tt)*) => {
        $crate::__check_fns! { ($crate::check::Config::new($cases)) $($rest)* }
    };
    (#![seed = $seed:expr] $($rest:tt)*) => {
        $crate::__check_fns! { ($crate::check::Config::default().with_seed($seed)) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__check_fns! { ($crate::check::Config::default()) $($rest)* }
    };
}

/// Implementation detail of [`check!`]: consumes one `fn` item at a time.
#[doc(hidden)]
#[macro_export]
macro_rules! __check_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $gen:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            let __config = $cfg;
            let __gen = ($($gen,)+);
            $crate::check::run(stringify!($name), &__config, &__gen, |__case| {
                #[allow(unused_parens)]
                let ($($arg,)+) = ::std::clone::Clone::clone(__case);
                $body
            });
        }
        $crate::__check_fns! { ($cfg) $($rest)* }
    };
}

/// Asserts a property condition (an alias of `assert!` that reads like its
/// proptest counterpart at ported call sites).
#[macro_export]
macro_rules! check_assert {
    ($($tt:tt)*) => { ::std::assert!($($tt)*) };
}

/// Asserts equality inside a property (alias of `assert_eq!`).
#[macro_export]
macro_rules! check_assert_eq {
    ($($tt:tt)*) => { ::std::assert_eq!($($tt)*) };
}

/// Skips the current case when its precondition does not hold; skipped
/// cases do not count toward the case budget.
#[macro_export]
macro_rules! check_assume {
    ($cond:expr) => {
        if !$cond {
            ::std::panic::panic_any($crate::check::Discard);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_config() {
        let gen = (0..1000u32, vec_of(0.0..1.0f64, 0..8));
        let config = Config::default();
        let collect = || {
            let mut stream = config.seed ^ fnv1a("t");
            (0..20)
                .map(|_| {
                    let mut rng = SeedRng::seed_from_u64(splitmix64(&mut stream));
                    gen.generate(&mut rng)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn range_shrink_heads_toward_low() {
        let candidates = (0..1000usize).shrink(&800);
        assert_eq!(candidates, vec![0, 400]);
        assert!((0..1000usize).shrink(&0).is_empty());
        let f = (-1.0..1.0f64).shrink(&0.5);
        assert_eq!(f, vec![-1.0, -0.25]);
    }

    #[test]
    fn vec_shrink_respects_min_len_and_shrinks_elements() {
        let gen = vec_of(0..100u8, 2..=8);
        let candidates = gen.shrink(&vec![50, 60, 70, 80]);
        // Length reductions never go below the minimum of 2.
        assert!(candidates.iter().all(|c| c.len() >= 2));
        assert!(candidates.contains(&vec![50, 60]));
        assert!(candidates.contains(&vec![50, 60, 70]));
        // Element-wise shrink of the first slot.
        assert!(candidates.contains(&vec![0, 60, 70, 80]));
        assert!(gen.shrink(&vec![0, 0]).is_empty());
    }

    #[test]
    fn tuple_shrink_varies_one_component_at_a_time() {
        let gen = (0..10u8, 0..10u8);
        let candidates = gen.shrink(&(4, 6));
        assert!(candidates.contains(&(0, 6)));
        assert!(candidates.contains(&(4, 0)));
        assert!(!candidates.contains(&(0, 0)));
    }

    #[test]
    fn failing_property_reports_shrunk_counterexample_and_seed() {
        let config = Config::new(64);
        let result = catch_unwind(AssertUnwindSafe(|| {
            run("demo", &config, &(0..1000u32,), |&(v,)| {
                assert!(v < 50, "too big: {v}");
            });
        }));
        let message = match result {
            Err(payload) => payload
                .downcast_ref::<String>()
                .expect("string panic")
                .clone(),
            Ok(()) => panic!("property should have failed"),
        };
        assert!(message.contains("property `demo` failed"), "{message}");
        assert!(message.contains("case seed 0x"), "{message}");
        // Greedy halving lands in [50, 99]: any further halving passes.
        let shrunk: u32 = message
            .split("counterexample: (")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|n| n.trim().parse().ok())
            .expect("counterexample in message");
        assert!((50..100).contains(&shrunk), "shrunk to {shrunk}");
    }

    #[test]
    fn assume_discards_without_failing() {
        let config = Config::new(32);
        run("evens", &config, &(0..100u32,), |&(v,)| {
            crate::check_assume!(v % 2 == 0);
            assert_eq!(v % 2, 0);
        });
    }

    #[test]
    fn impossible_assumption_is_reported_not_looped_forever() {
        let config = Config::new(8);
        let result = catch_unwind(AssertUnwindSafe(|| {
            run("never", &config, &(0..10u32,), |_| {
                crate::check_assume!(false);
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn ascii_string_is_printable_and_bounded() {
        let gen = ascii_string(0..=64);
        let mut rng = SeedRng::seed_from_u64(3);
        for _ in 0..100 {
            let s = gen.generate(&mut rng);
            assert!(s.len() <= 64);
            assert!(s.bytes().all(|b| (0x20..=0x7E).contains(&b)));
        }
    }

    #[test]
    fn flat_map_couples_dependent_draws() {
        // Draw a length, then a vector of exactly that length.
        let gen = (1..16usize).flat_map_gen(|n| vec_of(0..255u32, n).map_gen(move |v| (n, v)));
        let mut rng = SeedRng::seed_from_u64(9);
        for _ in 0..50 {
            let (n, v) = gen.generate(&mut rng);
            assert_eq!(v.len(), n);
        }
    }

    #[test]
    fn choice_and_boolean_generate_expected_values() {
        let mut rng = SeedRng::seed_from_u64(10);
        let c = choice(vec!["a", "b", "c"]);
        for _ in 0..30 {
            assert!(["a", "b", "c"].contains(&c.generate(&mut rng)));
        }
        let b = boolean();
        let heads = (0..200).filter(|_| b.generate(&mut rng)).count();
        assert!((60..140).contains(&heads));
        assert_eq!(b.shrink(&true), vec![false]);
    }

    // The macro surface itself, exercised end to end.
    crate::check! {
        #![cases = 24, seed = 0xD15C]
        fn sort_is_idempotent(v in vec_of(-50..50i32, 0..20)) {
            let mut once = v.clone();
            once.sort_unstable();
            let mut twice = once.clone();
            twice.sort_unstable();
            crate::check_assert_eq!(once, twice);
        }

        fn shuffle_preserves_multiset(seed in 0u64..1024, n in 1usize..32) {
            let mut rng = SeedRng::seed_from_u64(seed);
            let mut v: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut v);
            let mut sorted = v.clone();
            sorted.sort_unstable();
            crate::check_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        }
    }

    crate::check! {
        fn single_argument_form_works(x in 0..10u8) {
            crate::check_assert!(x < 10);
        }
    }
}
