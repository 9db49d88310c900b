//! Minimal, dependency-free shim of the `proptest` API surface used by the
//! workspace's property tests.
//!
//! The build environment has no crates.io access, so this crate implements the
//! subset `tests/tests/theorems.rs` relies on: the `proptest!` macro with an
//! optional `#![proptest_config(...)]` header, numeric range strategies, tuple
//! strategies, `Strategy::prop_map`, `prop::collection::vec`, `prop_assert!`,
//! `prop_assert_eq!` and `prop_assume!`.
//!
//! Semantics versus real proptest: cases are generated from a fixed
//! deterministic seed (reproducible runs, no persisted failure files) and
//! there is **no shrinking** — a failing case panics with the generating
//! case index so it can be replayed.

use std::ops::Range;

/// Outcome of one generated test case.
#[derive(Debug)]
pub enum TestCaseError {
    /// The case was rejected by `prop_assume!` — generate a replacement.
    Reject,
    /// An assertion failed.
    Fail(String),
}

/// Runner configuration (`cases` only).
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

/// Deterministic value source handed to strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn deterministic() -> Self {
        TestRng {
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A generator of values for one test argument.
pub trait Strategy {
    type Value;

    /// Produces one value. Unlike real proptest there is no value tree or
    /// shrinking; generation is the whole story.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
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

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let draw = (rng.next_u64() as u128) % span;
                (self.start as i128 + draw as i128) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u32, u64, usize, i64);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        // The unit draw is in [0, 1), but the final rounding can land
        // exactly on `end`; clamp back inside the half-open range.
        let v = self.start + rng.unit_f64() * (self.end - self.start);
        if v >= self.end {
            self.end.next_down()
        } else {
            v
        }
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A, B)
    (A, B, C)
    (A, B, C, D, E)
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for vectors with a length drawn from `len` and elements from
    /// `element`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// `prop::collection::vec(element, min..max)`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty vec length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + (rng.next_u64() % span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Mirror of the `prop::` paths the prelude exposes.
pub mod prop {
    pub use crate::collection;
}

pub mod prelude {
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a proptest case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        // `if cond {} else` rather than `if !cond` so partially ordered
        // comparisons don't trip clippy::neg_cmp_op_on_partial_ord at the
        // expansion site.
        if $cond {
        } else {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a proptest case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `left == right` (left: `{:?}`, right: `{:?}`)",
            l,
            r
        );
    }};
}

/// Rejects the current case, asking the runner for a fresh one.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if $cond {
        } else {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// The `proptest!` block macro: expands each `fn name(arg in strategy, ...)`
/// item into a `#[test]` that runs `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (config = $config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let mut rng = $crate::TestRng::deterministic();
            let mut accepted = 0u32;
            // Bound rejections (like real proptest's max_global_rejects), not
            // total attempts, so a low prop_assume! acceptance rate cannot
            // abort a run that is still making progress.
            let max_rejects = config.cases.saturating_mul(20).max(20);
            let mut rejected = 0u32;
            let mut attempt = 0u32;
            while accepted < config.cases {
                attempt += 1;
                $(let $arg = $crate::Strategy::generate(&($strategy), &mut rng);)+
                let outcome = (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                })();
                match outcome {
                    Ok(()) => accepted += 1,
                    Err($crate::TestCaseError::Reject) => {
                        rejected += 1;
                        assert!(
                            rejected <= max_rejects,
                            "proptest shim: too many rejected cases ({} accepted of {} wanted, {} rejected)",
                            accepted,
                            config.cases,
                            rejected
                        );
                    }
                    Err($crate::TestCaseError::Fail(message)) => {
                        panic!("proptest case #{attempt} failed: {message}");
                    }
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn pair() -> impl Strategy<Value = (f64, f64)> {
        (10u32..100, 0.1f64..1.0).prop_map(|(base, frac)| (base as f64, base as f64 * frac))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_stay_in_bounds(x in 5u32..50, f in 0.25f64..0.75) {
            prop_assert!((5..50).contains(&x));
            prop_assert!((0.25..0.75).contains(&f), "f was {}", f);
        }

        #[test]
        fn vec_lengths_respected(v in prop::collection::vec(pair(), 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
            for (base, part) in v {
                prop_assert!(part <= base);
            }
        }

        #[test]
        fn assume_rejects_without_failing(x in 0u32..10) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    mod default_config {
        // `proptest!` and `prop_assert!` are #[macro_export]ed, so they are
        // in textual scope here without an import.
        proptest! {
            #[test]
            fn runs_without_config_header(x in 0u32..3) {
                prop_assert!(x < 3);
            }
        }
    }
}
