//! Offline stand-in for the subset of `proptest` this workspace uses.
//!
//! Supports the `proptest!` macro form used by the repo's test suites:
//! an optional `#![proptest_config(...)]` header followed by `#[test]`
//! functions whose arguments are `name in strategy` bindings. Strategies
//! cover numeric ranges, `bool::ANY` and `collection::vec`. Inputs are
//! drawn from a deterministic splitmix64 stream seeded from the test's
//! module path and case index, so failures reproduce exactly; there is
//! no shrinking — the failing case prints its case index instead.

/// Deterministic value sources and the [`Strategy`] trait.
pub mod strategy {
    use super::test_runner::TestRng;
    use std::ops::Range;

    /// A recipe for generating one test input (subset of
    /// `proptest::strategy::Strategy`).
    pub trait Strategy {
        /// The generated value type.
        type Value;

        /// Draws one value from the deterministic stream.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    macro_rules! impl_int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let width = (self.end as u128).wrapping_sub(self.start as u128);
                    self.start.wrapping_add((rng.next() as u128 % width) as $t)
                }
            }
        )*};
    }

    impl_int_strategy!(u64, u32, usize, i64, i32);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.unit() * (self.end - self.start)
        }
    }
}

/// Boolean strategies (subset of `proptest::bool`).
pub mod bool {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Uniformly random booleans.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The `proptest::bool::ANY` strategy.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next() & 1 == 1
        }
    }
}

/// Collection strategies (subset of `proptest::collection`).
pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::Range;

    /// Admissible lengths for a generated `Vec` (half-open).
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

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    /// Strategy producing `Vec`s of `element` draws.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `proptest::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let width = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + (rng.next() % width) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Deterministic case driver (subset of `proptest::test_runner`).
pub mod test_runner {
    use std::fmt;

    /// Per-case deterministic random stream (splitmix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A stream keyed by the test's identity and case index, so every
        /// run of the suite draws identical inputs.
        pub fn for_case(test_name: &str, case: u32) -> Self {
            // FNV-1a over the test name, mixed with the case index.
            let mut h: u64 = 0xCBF2_9CE4_8422_2325;
            for b in test_name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: h ^ (u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)) }
        }

        /// Next 64 deterministic bits.
        pub fn next(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw in [0, 1).
        pub fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Why a single case failed (subset of `TestCaseError`).
    #[derive(Debug, Clone)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// A failed-assertion case error.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError { message: message.into() }
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{}", self.message)
        }
    }

    /// Suite tuning (subset of `ProptestConfig`).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 16 }
        }
    }
}

/// Defines property tests: an optional `#![proptest_config(...)]` header,
/// then `#[test]` functions with `name in strategy` arguments.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($cfg) $($rest)*);
    };
    (@run ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut proptest_rng = $crate::test_runner::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    case,
                );
                $(let $arg = $crate::strategy::Strategy::generate(
                    &($strat), &mut proptest_rng);)+
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!("proptest {} case {case} failed: {e}", stringify!($name));
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Fails the current case with a message unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let l = $left;
        let r = $right;
        $crate::prop_assert!(
            l == r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
}

/// One-stop imports mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}
