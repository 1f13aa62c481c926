//! Offline shim of the `proptest` API surface used by this workspace.
//!
//! The build environment has no access to crates.io, so this crate vendors
//! the slice of proptest the integration tests rely on: the `proptest!`
//! macro with `#![proptest_config(...)]`, range and `collection::vec`
//! strategies, `any::<T>()`, and the `prop_assert!` / `prop_assert_eq!`
//! macros.
//!
//! Unlike the real proptest there is no shrinking and no persisted failure
//! regression file. Every run is **deterministic**: the case stream is a
//! pure function of the test's name, so `cargo test` is reproducible
//! run-to-run and machine-to-machine. A failing case panics with the inputs
//! that produced it.

use rand::rngs::SmallRng;
use rand::SeedableRng;

pub mod test_runner {
    //! Runner configuration.

    /// Subset of `proptest::test_runner::ProptestConfig`: only the number of
    /// generated cases is configurable.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases each property is checked against.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` random cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use rand::rngs::SmallRng;
    use rand::Rng;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// The shim has no shrinking: a strategy is just a sampling function.
    pub trait Strategy {
        /// The type of generated values.
        type Value: ::std::fmt::Debug;

        /// Draw one value.
        fn sample(&self, rng: &mut SmallRng) -> Self::Value;
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::core::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut SmallRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for ::core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut SmallRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for ::core::ops::Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut SmallRng) -> f64 {
            rng.gen_range(self.clone())
        }
    }

    impl Strategy for ::core::ops::RangeInclusive<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut SmallRng) -> f64 {
            rng.gen_range(self.clone())
        }
    }

    /// Strategy returned by [`crate::arbitrary::any`]: a uniform draw over
    /// the whole domain of `T`.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Any<T> {
        pub(crate) _marker: ::std::marker::PhantomData<T>,
    }

    macro_rules! any_int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut SmallRng) -> $t {
                    rng.gen_range(<$t>::MIN..=<$t>::MAX)
                }
            }
        )*};
    }

    any_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Any<bool> {
        type Value = bool;
        fn sample(&self, rng: &mut SmallRng) -> bool {
            rng.gen_bool(0.5)
        }
    }

    impl Strategy for Any<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut SmallRng) -> f64 {
            // Finite, sign-balanced, spanning several orders of magnitude.
            let mantissa: f64 = rng.gen_range(-1.0..1.0);
            let exponent: i32 = rng.gen_range(-60..60);
            mantissa * (exponent as f64).exp2()
        }
    }
}

pub mod arbitrary {
    //! `any::<T>()`, the default strategy for a type.

    use super::strategy::Any;

    /// Default strategy generating arbitrary values of `T`.
    pub fn any<T>() -> Any<T>
    where
        Any<T>: super::strategy::Strategy,
    {
        Any {
            _marker: ::std::marker::PhantomData,
        }
    }
}

pub mod collection {
    //! Collection strategies (`vec`).

    use super::strategy::Strategy;
    use rand::rngs::SmallRng;
    use rand::Rng;

    /// Size specification for [`vec`](fn@vec): an exact length or a half-open range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<::core::ops::Range<usize>> for SizeRange {
        fn from(r: ::core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<::core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: ::core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// Strategy producing `Vec`s of values drawn from an element strategy.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy with lengths drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut SmallRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..self.size.hi);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude::*`.

    pub use crate::arbitrary::any;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Drives one property: runs `config.cases` deterministic cases, panicking
/// on the first failure. Used by the expansion of [`proptest!`].
pub fn run_cases<F>(config: &test_runner::ProptestConfig, test_name: &str, mut case: F)
where
    F: FnMut(&mut SmallRng) -> Result<(), String>,
{
    // FNV-1a over the test name: a stable, platform-independent base seed.
    let mut seed: u64 = 0xcbf29ce484222325;
    for b in test_name.bytes() {
        seed ^= b as u64;
        seed = seed.wrapping_mul(0x100000001b3);
    }
    for case_index in 0..config.cases {
        let mut rng =
            SmallRng::seed_from_u64(seed ^ (case_index as u64).wrapping_mul(0x9E3779B97F4A7C15));
        if let Err(message) = case(&mut rng) {
            panic!(
                "proptest case {case_index}/{} of '{test_name}' failed: {message}",
                config.cases
            );
        }
    }
}

/// Subset of `proptest::proptest!`: named arguments bound with `in`, an
/// optional leading `#![proptest_config(...)]`, and a body that may use
/// `prop_assert!`-family macros.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config = $config;
                $crate::run_cases(&config, stringify!($name), |proptest_rng| {
                    $(let $arg = $crate::strategy::Strategy::sample(&($strategy), proptest_rng);)+
                    $body
                    Ok(())
                });
            }
        )*
    };
    ( $($rest:tt)* ) => {
        $crate::proptest! {
            #![proptest_config($crate::test_runner::ProptestConfig::default())]
            $($rest)*
        }
    };
}

/// `assert!` variant that fails the current proptest case with its inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(format!($($fmt)+));
        }
    };
}

/// `assert_eq!` variant that fails the current proptest case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::core::result::Result::Err(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), left, right,
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::core::result::Result::Err(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), left, right,
            ));
        }
    }};
}

/// `assert_ne!` variant that fails the current proptest case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if left == right {
            return ::core::result::Result::Err(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                left,
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_vecs_respect_bounds(
            x in 1.0f64..10.0,
            n in 2usize..9,
            bytes in crate::collection::vec(any::<u8>(), 0..64),
        ) {
            prop_assert!((1.0..10.0).contains(&x));
            prop_assert!((2..9).contains(&n));
            prop_assert!(bytes.len() < 64);
        }
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    fn failing_property_panics_with_case_number() {
        crate::run_cases(&ProptestConfig::with_cases(4), "always_fails", |_| {
            Err("boom".to_string())
        });
    }

    #[test]
    fn case_stream_is_deterministic() {
        let mut first = Vec::new();
        crate::run_cases(&ProptestConfig::with_cases(8), "det", |rng| {
            first.push(Strategy::sample(&(0u64..1000), rng));
            Ok(())
        });
        let mut second = Vec::new();
        crate::run_cases(&ProptestConfig::with_cases(8), "det", |rng| {
            second.push(Strategy::sample(&(0u64..1000), rng));
            Ok(())
        });
        assert_eq!(first, second);
    }
}
