//! Offline stand-in for the `proptest` crate.
//!
//! Implements the slice of proptest this workspace's property tests use:
//! the [`Strategy`] trait (ranges, `prop::collection::vec`, `prop_filter`,
//! `prop_map`, [`Just`]), the `proptest!` macro with
//! `#![proptest_config(...)]`, and the `prop_assert*` / `prop_assume!`
//! macros.
//!
//! Unlike real proptest there is **no shrinking**: a failing case panics
//! with its message immediately. Case generation is fully deterministic —
//! seeded from the test name and case index — so failures reproduce across
//! runs and machines.

/// Configuration for one `proptest!` block.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Why a test case did not pass.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// An assertion failed — the test fails.
    Fail(String),
    /// `prop_assume!` rejected the inputs — the case is skipped.
    Reject,
}

/// The deterministic RNG driving case generation (SplitMix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    fn from_seed(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let draw = self.next_u64();
            if draw < zone {
                return draw % bound;
            }
        }
    }

    /// Uniform draw from `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A generator of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Keeps only values satisfying `predicate` (regenerating otherwise).
    fn prop_filter<F>(self, whence: &'static str, predicate: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            whence,
            predicate,
        }
    }

    /// Transforms generated values with `f`.
    fn prop_map<F, O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    whence: &'static str,
    predicate: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..10_000 {
            let candidate = self.inner.generate(rng);
            if (self.predicate)(&candidate) {
                return candidate;
            }
        }
        panic!(
            "prop_filter `{}` rejected 10000 candidates in a row",
            self.whence
        );
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

/// A strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_int_range_strategy {
    ($($ty:ty),*) => {$(
        impl Strategy for std::ops::Range<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $ty
            }
        }
        impl Strategy for std::ops::RangeInclusive<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as i128 - lo as i128) as u64;
                (lo as i128 + rng.below(span.saturating_add(1).max(1)) as i128) as $ty
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

/// The `prop::` namespace of real proptest.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::{Strategy, TestRng};

        /// An inclusive length range, converted from the integer ranges real
        /// proptest accepts (`1..40`, `1..=3`, a bare `5`, …).
        #[derive(Clone, Copy, Debug)]
        pub struct SizeRange {
            lo: usize,
            hi: usize,
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange { lo: n, hi: n }
            }
        }

        macro_rules! size_range_from_int_ranges {
            ($($ty:ty),*) => {$(
                impl From<std::ops::Range<$ty>> for SizeRange {
                    fn from(r: std::ops::Range<$ty>) -> Self {
                        assert!(r.start < r.end, "empty length range");
                        SizeRange { lo: r.start as usize, hi: (r.end - 1) as usize }
                    }
                }
                impl From<std::ops::RangeInclusive<$ty>> for SizeRange {
                    fn from(r: std::ops::RangeInclusive<$ty>) -> Self {
                        assert!(r.start() <= r.end(), "empty length range");
                        SizeRange { lo: *r.start() as usize, hi: *r.end() as usize }
                    }
                }
            )*};
        }

        size_range_from_int_ranges!(usize, i32, u32);

        /// Strategy for `Vec`s whose length is drawn from `len` and whose
        /// elements are drawn from `element`.
        pub fn vec<S: Strategy>(element: S, len: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                len: len.into(),
            }
        }

        /// See [`vec()`].
        pub struct VecStrategy<S> {
            element: S,
            len: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.len.hi - self.len.lo) as u64;
                let n = self.len.lo + rng.below(span + 1) as usize;
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }
    }
}

/// Everything a property test usually imports.
pub mod prelude {
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Drives one property test: `cases` deterministic cases seeded from the
/// test name. Called by the `proptest!` macro expansion.
pub fn run_proptest<F>(config: ProptestConfig, name: &str, mut case: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let mut name_hash = FNV_OFFSET;
    for b in name.bytes() {
        name_hash ^= u64::from(b);
        name_hash = name_hash.wrapping_mul(FNV_PRIME);
    }
    let mut rejected = 0u32;
    for case_idx in 0..config.cases {
        let mut rng = TestRng::from_seed(name_hash ^ (u64::from(case_idx) << 32));
        match case(&mut rng) {
            Ok(()) => {}
            Err(TestCaseError::Reject) => rejected += 1,
            Err(TestCaseError::Fail(message)) => {
                panic!("property `{name}` failed at case {case_idx}: {message}");
            }
        }
    }
    assert!(
        rejected < config.cases,
        "property `{name}`: every case was rejected by prop_assume!"
    );
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "fmt", args…)`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// `prop_assert_eq!(a, b)` with optional message.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} == {}` (left: `{:?}`, right: `{:?}`)",
                stringify!($left), stringify!($right), l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    }};
}

/// `prop_assert_ne!(a, b)` with optional message.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} != {}` (both: `{:?}`)",
                stringify!($left), stringify!($right), l
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    }};
}

/// `prop_assume!(cond)`: skip the case when `cond` is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

/// The `proptest! { ... }` block macro.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($config:expr); $(
        #[test]
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            $crate::run_proptest(config, stringify!($name), |rng| {
                $(let $arg = $crate::Strategy::generate(&($strategy), rng);)+
                #[allow(unused_mut)]
                let mut body = move || -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    Ok(())
                };
                body()
            });
        }
    )*};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_generate_in_bounds() {
        let mut rng = super::TestRng::from_seed(1);
        for _ in 0..200 {
            let v = Strategy::generate(&(3usize..10), &mut rng);
            assert!((3..10).contains(&v));
            let w = Strategy::generate(&(2u64..=5), &mut rng);
            assert!((2..=5).contains(&w));
            let f = Strategy::generate(&(0.5f64..2.0), &mut rng);
            assert!((0.5..2.0).contains(&f));
        }
    }

    #[test]
    fn vec_strategy_respects_length_range() {
        let mut rng = super::TestRng::from_seed(2);
        let strat = prop::collection::vec(0usize..4, 1..=3);
        for _ in 0..100 {
            let v = Strategy::generate(&strat, &mut rng);
            assert!((1..=3).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 4));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let draw = || {
            let mut rng = super::TestRng::from_seed(77);
            Strategy::generate(&prop::collection::vec(0u64..1000, 5..=5), &mut rng)
        };
        assert_eq!(draw(), draw());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn the_macro_itself_works(a in 0usize..50, b in 1usize..10) {
            prop_assume!(a != 13);
            prop_assert!(a < 50);
            prop_assert_eq!(a * b / b, a);
            prop_assert_ne!(a + b, a);
        }
    }
}
