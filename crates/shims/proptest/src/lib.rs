//! Offline drop-in replacement for the subset of [proptest] this
//! workspace uses. The registry is unreachable in the build environment,
//! so this shim re-implements the API the property tests compile
//! against:
//!
//! * [`Strategy`] — value generators, implemented for numeric ranges,
//!   [`Just`], tuples, boxed strategies and the combinators below;
//! * `prop::collection::vec`, `prop::array::uniformN`;
//! * [`prop_oneof!`], [`proptest!`], [`prop_assert!`],
//!   [`prop_assert_eq!`], [`ProptestConfig`].
//!
//! Differences from the real crate: no shrinking (a failing case panics
//! with the generated inputs' debug representation via the assert
//! message), and generation is a simple deterministic xoshiro-style
//! stream seeded from the test name — runs are reproducible without a
//! regression file.
//!
//! [proptest]: https://crates.io/crates/proptest
#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Deterministic generator driving all strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed deterministically from a test name.
    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        TestRng { state: h | 1 }
    }

    /// Next 64 uniform bits (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        self.next_u64() % n
    }
}

/// Per-test configuration. Only the case count is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` generated inputs per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of test values.
pub trait Strategy {
    /// The generated value type.
    type Value;
    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

impl<V> Strategy for Box<dyn Strategy<Value = V>> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// Strategy producing one fixed value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start() + rng.unit_f64() * (self.end() - self.start())
    }
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (*self.end() as i128 - *self.start() as i128) as u64 + 1;
                (*self.start() as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+)),+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy!((A.0, B.1), (A.0, B.1, C.2), (A.0, B.1, C.2, D.3));

/// Uniform choice among boxed alternatives — the [`prop_oneof!`] backend.
pub struct OneOf<V> {
    options: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V> OneOf<V> {
    /// Build from non-empty alternatives.
    pub fn new(options: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        OneOf { options }
    }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].generate(rng)
    }
}

/// Collection and array strategies under the conventional `prop::` path.
pub mod prop {
    /// `prop::collection` — sized containers of generated elements.
    pub mod collection {
        use crate::{Strategy, TestRng};

        /// Inclusive-exclusive element-count range for [`vec`].
        #[derive(Debug, Clone, Copy)]
        pub struct SizeRange {
            lo: usize,
            hi: usize,
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange { lo: n, hi: n + 1 }
            }
        }

        impl From<std::ops::Range<usize>> for SizeRange {
            fn from(r: std::ops::Range<usize>) -> Self {
                assert!(r.start < r.end, "empty size range");
                SizeRange {
                    lo: r.start,
                    hi: r.end,
                }
            }
        }

        impl From<std::ops::RangeInclusive<usize>> for SizeRange {
            fn from(r: std::ops::RangeInclusive<usize>) -> Self {
                SizeRange {
                    lo: *r.start(),
                    hi: *r.end() + 1,
                }
            }
        }

        /// Strategy producing `Vec`s of elements from an inner strategy.
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        /// `Vec` of values from `element`, with `size` elements.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.hi - self.size.lo) as u64;
                let n = self.size.lo
                    + if span > 1 {
                        rng.below(span) as usize
                    } else {
                        0
                    };
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }
    }

    /// `prop::array` — fixed-size arrays of generated elements.
    pub mod array {
        use crate::{Strategy, TestRng};

        /// Strategy producing `[S::Value; N]` arrays.
        pub struct UniformArrayStrategy<S, const N: usize> {
            element: S,
        }

        impl<S: Strategy, const N: usize> Strategy for UniformArrayStrategy<S, N> {
            type Value = [S::Value; N];
            fn generate(&self, rng: &mut TestRng) -> [S::Value; N] {
                std::array::from_fn(|_| self.element.generate(rng))
            }
        }

        macro_rules! uniform_fns {
            ($($name:ident => $n:literal),*) => {$(
                /// Array of values drawn independently from one strategy.
                pub fn $name<S: Strategy>(element: S) -> UniformArrayStrategy<S, $n> {
                    UniformArrayStrategy { element }
                }
            )*};
        }

        uniform_fns!(
            uniform1 => 1, uniform2 => 2, uniform3 => 3, uniform4 => 4,
            uniform5 => 5, uniform6 => 6, uniform7 => 7, uniform8 => 8
        );
    }
}

/// Everything the tests import.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just, ProptestConfig,
        Strategy,
    };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![
            $(Box::new($strategy) as Box<dyn $crate::Strategy<Value = _>>),+
        ])
    };
}

/// Assert inside a property test (panics with the formatted message).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assert inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Inequality assert inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Define property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running `config.cases` generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Internal recursion for [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ($cfg:expr;) => {};
    ($cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strategy:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::from_name(stringify!($name));
            for __case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strategy), &mut rng);)*
                $body
            }
        }
        $crate::__proptest_items! { $cfg; $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_generate_in_bounds() {
        let mut rng = crate::TestRng::from_name("bounds");
        for _ in 0..200 {
            let f = Strategy::generate(&(-2.0f64..3.0), &mut rng);
            assert!((-2.0..3.0).contains(&f));
            let u = Strategy::generate(&(1usize..=4), &mut rng);
            assert!((1..=4).contains(&u));
        }
    }

    #[test]
    fn oneof_covers_all_arms() {
        let strat = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut rng = crate::TestRng::from_name("oneof");
        let mut seen = [false; 4];
        for _ in 0..100 {
            seen[Strategy::generate(&strat, &mut rng) as usize] = true;
        }
        assert_eq!(&seen[1..], &[true, true, true]);
    }

    #[test]
    fn vec_and_array_sizes() {
        let mut rng = crate::TestRng::from_name("sizes");
        for _ in 0..50 {
            let v = Strategy::generate(&prop::collection::vec(0u32..10, 3..7), &mut rng);
            assert!((3..7).contains(&v.len()));
            let a = Strategy::generate(&prop::array::uniform5(0.0f64..1.0), &mut rng);
            assert_eq!(a.len(), 5);
        }
        let fixed = Strategy::generate(&prop::collection::vec(0u32..10, 4), &mut rng);
        assert_eq!(fixed.len(), 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_generates_and_runs(x in 0usize..100, y in -1.0f64..1.0) {
            prop_assert!(x < 100);
            prop_assert!((-1.0..1.0).contains(&y));
        }

        #[test]
        fn tuple_and_collection_args(
            pairs in prop::collection::vec((0usize..5, 0usize..4), 1..20),
        ) {
            prop_assert!(!pairs.is_empty() && pairs.len() < 20);
            for (a, b) in pairs {
                prop_assert!(a < 5 && b < 4);
            }
        }
    }
}
