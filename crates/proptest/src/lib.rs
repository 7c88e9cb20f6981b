//! Minimal property-testing harness covering the slice of the
//! `proptest` API this workspace uses: [`Strategy`] with `prop_map`,
//! integer-range / tuple / `collection::vec` / `bool::ANY` / `any::<T>()`
//! strategies, and the [`proptest!`] / [`prop_assert!`] /
//! [`prop_assert_eq!`] / [`prop_assume!`] macros.
//!
//! The build environment has no network access to a crates registry, so
//! the workspace wires `proptest` to this path crate. Differences from
//! real proptest, deliberately accepted:
//!
//! - **No shrinking.** A failing case panics with the case number and
//!   the per-test seed; re-running is deterministic, so the failure
//!   reproduces exactly.
//! - **Deterministic seeding.** Each test derives its RNG stream from a
//!   hash of the test-function name (override with the
//!   `MVROBUST_PROPTEST_SEED` environment variable), so CI runs are
//!   reproducible by construction.
//! - `prop_assume!` skips the case without replacement; the configured
//!   case count is an upper bound on executed cases.

use rand::rngs::SmallRng;
use rand::{RngCore, RngExt, SeedableRng};

/// Runner configuration; only the case count is meaningful here.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Marker returned by `prop_assume!` to skip the current case.
#[derive(Debug)]
pub struct TestCaseSkip;

/// A generator of values of an associated type. Unlike real proptest
/// there is no value tree / shrinking; a strategy simply samples.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut SmallRng) -> Self::Value;

    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut SmallRng) -> Self::Value {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut SmallRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, T> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T;
    fn generate(&self, rng: &mut SmallRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut SmallRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut SmallRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut SmallRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut SmallRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
}

/// Types with a canonical "any value" strategy (subset of `Arbitrary`).
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut SmallRng) -> Self;
}

macro_rules! arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut SmallRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_uint!(u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut SmallRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for i64 {
    fn arbitrary(rng: &mut SmallRng) -> i64 {
        rng.next_u64() as i64
    }
}

/// Strategy form of [`Arbitrary`], mirroring `proptest::arbitrary::any`.
pub struct Any<T>(core::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut SmallRng) -> T {
        T::arbitrary(rng)
    }
}

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(core::marker::PhantomData)
}

pub mod prop {
    pub mod bool {
        use crate::Strategy;
        use rand::rngs::SmallRng;
        use rand::RngCore;

        #[derive(Debug, Clone, Copy)]
        pub struct BoolAny;

        impl Strategy for BoolAny {
            type Value = bool;
            fn generate(&self, rng: &mut SmallRng) -> bool {
                rng.next_u64() & 1 == 1
            }
        }

        pub const ANY: BoolAny = BoolAny;
    }

    pub mod collection {
        use crate::Strategy;
        use rand::rngs::SmallRng;
        use rand::RngExt;

        /// Length bounds for [`vec()`], built from range literals.
        #[derive(Debug, Clone, Copy)]
        pub struct SizeRange {
            lo: usize,
            hi: usize, // inclusive
        }

        impl From<core::ops::Range<usize>> for SizeRange {
            fn from(r: core::ops::Range<usize>) -> Self {
                assert!(r.start < r.end, "empty size range");
                SizeRange {
                    lo: r.start,
                    hi: r.end - 1,
                }
            }
        }

        impl From<core::ops::RangeInclusive<usize>> for SizeRange {
            fn from(r: core::ops::RangeInclusive<usize>) -> Self {
                assert!(r.start() <= r.end(), "empty size range");
                SizeRange {
                    lo: *r.start(),
                    hi: *r.end(),
                }
            }
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange { lo: n, hi: n }
            }
        }

        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut SmallRng) -> Vec<S::Value> {
                let len = rng.random_range(self.size.lo..=self.size.hi);
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }

        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }
    }
}

/// Derive the base RNG seed for a named test: stable across runs and
/// machines, overridable for exploration via `MVROBUST_PROPTEST_SEED`.
pub fn seed_for(test_name: &str) -> u64 {
    if let Ok(s) = std::env::var("MVROBUST_PROPTEST_SEED") {
        if let Ok(n) = s.trim().parse::<u64>() {
            return n;
        }
    }
    // FNV-1a over the test name.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Execute one configured run of a property body.
pub fn run_property<F>(test_name: &str, config: &ProptestConfig, mut body: F)
where
    F: FnMut(&mut SmallRng) -> Result<(), TestCaseSkip>,
{
    let base = seed_for(test_name);
    let mut skipped = 0u32;
    for case in 0..config.cases as u64 {
        let mut rng = SmallRng::seed_from_u64(base.wrapping_add(case));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(TestCaseSkip)) => skipped += 1,
            Err(payload) => {
                eprintln!(
                    "proptest shim: property `{test_name}` failed at case {case} \
                     (base seed {base}; rerun with MVROBUST_PROPTEST_SEED={base})"
                );
                std::panic::resume_unwind(payload);
            }
        }
    }
    if skipped == config.cases {
        panic!("proptest shim: every case of `{test_name}` was skipped by prop_assume!");
    }
}

pub mod prelude {
    pub use crate::prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary, Just,
        ProptestConfig, Strategy, TestCaseSkip,
    };
}

/// Define property tests. Each `fn name(pat in strategy, ...) { body }`
/// expands to a `#[test]`-style function running `config.cases` sampled
/// cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            $crate::run_property(stringify!($name), &config, |__rng| {
                $(let $arg = $crate::Strategy::generate(&($strat), __rng);)+
                // The closure gives `prop_assume!`'s early `return` a
                // per-case scope, not the whole test fn.
                #[allow(clippy::redundant_closure_call)]
                let __result: ::core::result::Result<(), $crate::TestCaseSkip> = (|| {
                    $body
                    ::core::result::Result::Ok(())
                })();
                __result
            });
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

/// Assert inside a property body (panics; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*)
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {
        assert_eq!($left, $right)
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        assert_eq!($left, $right, $($fmt)*)
    };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {
        assert_ne!($left, $right)
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        assert_ne!($left, $right, $($fmt)*)
    };
}

/// Skip the current case unless the precondition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseSkip);
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseSkip);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn evens() -> impl Strategy<Value = u32> {
        (0u32..500).prop_map(|n| n * 2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn mapped_strategy_applies(n in evens()) {
            prop_assert_eq!(n % 2, 0);
        }

        #[test]
        fn vec_and_tuple_strategies(
            v in prop::collection::vec((0u32..4, prop::bool::ANY), 1..=4),
            x in any::<u64>(),
        ) {
            prop_assert!((1..=4).contains(&v.len()));
            prop_assert!(v.iter().all(|(n, _)| *n < 4));
            let _ = x;
        }

        #[test]
        fn assume_skips(n in 0u32..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use rand::SeedableRng;
        let strat = prop::collection::vec(0u32..1000, 3..=3);
        let mut rng1 = rand::rngs::SmallRng::seed_from_u64(crate::seed_for("x"));
        let mut rng2 = rand::rngs::SmallRng::seed_from_u64(crate::seed_for("x"));
        assert_eq!(strat.generate(&mut rng1), strat.generate(&mut rng2));
    }

    #[test]
    #[should_panic(expected = "skipped")]
    fn all_skipped_panics() {
        crate::run_property("always_skip", &ProptestConfig::with_cases(4), |_rng| {
            Err(TestCaseSkip)
        });
    }
}
