//! Offline shim for proptest: property-based testing by deterministic
//! random sampling.
//!
//! Implements the subset of the proptest 1.x API this workspace uses —
//! the [`proptest!`] macro, integer-range / tuple / [`collection::vec`]
//! strategies, `prop_map` / `prop_flat_map` / `prop_filter`, the
//! `prop_assert*` macros, and [`test_runner::ProptestConfig`] — with two
//! simplifications:
//!
//! * **no shrinking** — a failing case panics with the case number; the
//!   RNG is seeded from the test name, so failures reproduce exactly on
//!   rerun;
//! * **plain sampling** — values are drawn uniformly, without proptest's
//!   bias toward boundary values.

pub mod test_runner {
    //! Test-runner configuration and the deterministic RNG.

    /// Subset of proptest's run configuration: the case count.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of sampled cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    /// Failure value property bodies may return via `?` / `return Err(…)`.
    #[derive(Debug, Clone)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// A failed-case error with the given reason.
        pub fn fail(reason: impl Into<String>) -> Self {
            Self(reason.into())
        }

        /// In real proptest this asks the runner to discard the case; the
        /// shim treats it as a plain skip marker with the same surface.
        pub fn reject(reason: impl Into<String>) -> Self {
            Self(format!("rejected: {}", reason.into()))
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.0.fmt(f)
        }
    }

    /// Deterministic xorshift64* generator, seeded per test.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the RNG from a test name, so every run of a given test
        /// samples the same cases.
        pub fn deterministic(name: &str) -> Self {
            let mut state = 0xcbf29ce484222325u64; // FNV-1a
            for b in name.bytes() {
                state ^= b as u64;
                state = state.wrapping_mul(0x100000001b3);
            }
            Self {
                state: if state == 0 { 0x9E3779B97F4A7C15 } else { state },
            }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }

        /// Uniform value in `[lo, hi]`.
        pub fn below_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
            debug_assert!(lo <= hi);
            let span = hi.wrapping_sub(lo).wrapping_add(1);
            if span == 0 {
                self.next_u64()
            } else {
                lo + self.next_u64() % span
            }
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and its combinators.

    use crate::test_runner::TestRng;

    /// A recipe for generating values of type `Value`.
    pub trait Strategy {
        /// The generated value type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transforms generated values.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Chains a dependent strategy off each generated value.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }

        /// Rejects values failing the predicate (resamples, up to a cap).
        fn prop_filter<F>(self, reason: impl Into<String>, f: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                reason: reason.into(),
                f,
            }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(std::rc::Rc::new(self))
        }
    }

    /// Always generates a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// See [`Strategy::prop_filter`].
    pub struct Filter<S, F> {
        inner: S,
        reason: String,
        f: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.generate(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!("prop_filter rejected 1000 consecutive samples: {}", self.reason);
        }
    }

    /// Type-erased strategy (see [`Strategy::boxed`]).
    pub struct BoxedStrategy<T>(std::rc::Rc<dyn Strategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            Self(self.0.clone())
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    macro_rules! impl_unsigned_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "cannot sample empty range");
                    rng.below_inclusive(self.start as u64, self.end as u64 - 1) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "cannot sample empty range");
                    rng.below_inclusive(lo as u64, hi as u64) as $t
                }
            }
        )*};
    }

    impl_unsigned_strategy!(u8, u16, u32, u64, usize);

    macro_rules! impl_signed_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "cannot sample empty range");
                    let span = (self.end as i128 - self.start as i128 - 1) as u64;
                    (self.start as i128 + rng.below_inclusive(0, span) as i128) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "cannot sample empty range");
                    let span = (hi as i128 - lo as i128) as u64;
                    (lo as i128 + rng.below_inclusive(0, span) as i128) as $t
                }
            }
        )*};
    }

    impl_signed_strategy!(i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident),+))*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, F)
    }

    impl Strategy for () {
        type Value = ();
        fn generate(&self, _rng: &mut TestRng) {}
    }
}

pub mod arbitrary {
    //! `any::<T>()` — full-range strategies for primitive types.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Strategy returned by [`any`].
    pub struct AnyStrategy<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    /// The canonical strategy for `T` (full range for integers).
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Admissible element-count specifications for [`vec`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            Self {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty vec size range");
            Self {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy returned by [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.below_inclusive(self.size.lo as u64, self.size.hi as u64) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `Vec` strategy: `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Everything a proptest file conventionally glob-imports.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// The `prop::` namespace (`prop::collection::vec`, …).
    pub mod prop {
        pub use crate::collection;
    }
}

/// Runs `cases` sampled executions of a property body. Used by the
/// [`proptest!`] expansion; not part of the public proptest API.
pub fn __run_cases(
    cases: u32,
    name: &str,
    mut body: impl FnMut(&mut test_runner::TestRng) -> Result<(), test_runner::TestCaseError>,
) {
    let mut rng = test_runner::TestRng::deterministic(name);
    for case in 0..cases {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        match result {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                panic!("proptest property `{name}` failed on case {case} of {cases}: {e} (deterministic seed — rerun reproduces it)");
            }
            Err(payload) => {
                eprintln!("proptest property `{name}` failed on case {case} of {cases} (deterministic seed — rerun reproduces it)");
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// Declares property tests: `proptest! { #[test] fn p(x in strat) { … } }`.
///
/// Supports an optional leading `#![proptest_config(…)]` controlling the
/// case count. Each argument strategy is constructed once, then sampled
/// per case with a deterministic per-test RNG.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)]
     $($(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $cfg;
                // One tuple strategy built once; sampled afresh per case.
                let __strat = ($(($strat),)*);
                $crate::__run_cases(__config.cases, stringify!($name), |__rng| {
                    let ($($arg,)*) =
                        $crate::strategy::Strategy::generate(&__strat, __rng);
                    // Bodies may use `?` / `return Ok(())` (proptest's
                    // Result convention) or fall through with plain `()`.
                    $body
                    Ok(())
                });
            }
        )*
    };
    ($($(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),* $(,)?) $body:block)*) => {
        $crate::proptest! {
            #![proptest_config($crate::test_runner::ProptestConfig::default())]
            $($(#[$meta])* fn $name($($arg in $strat),*) $body)*
        }
    };
}

/// `assert!` inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `assert_ne!` inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skips the current case when its precondition fails.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Ok(());
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u64..=9, y in 0usize..5) {
            prop_assert!((3..=9).contains(&x));
            prop_assert!(y < 5);
        }

        #[test]
        fn vec_strategy_respects_len(v in prop::collection::vec(1u64..100, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&e| (1..100).contains(&e)));
        }

        #[test]
        fn combinators_compose((a, b) in (1usize..4, 1usize..4).prop_map(|(x, y)| (x * 10, y))) {
            prop_assert!((10..40).contains(&a) && a % 10 == 0);
            prop_assert!(b < 4);
        }

        #[test]
        fn flat_map_chains(v in (1usize..=3).prop_flat_map(|d| prop::collection::vec(0u64..10, d))) {
            prop_assert!((1..=3).contains(&v.len()));
        }

        #[test]
        fn filter_rejects(x in (0u64..100).prop_filter("even only", |&x| x % 2 == 0)) {
            prop_assert_eq!(x % 2, 0);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::test_runner::TestRng::deterministic("t");
        let mut b = crate::test_runner::TestRng::deterministic("t");
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
