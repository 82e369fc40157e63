//! Offline stand-in for the `proptest` crate.
//!
//! The container this workspace builds in has no registry access, so the
//! property tests run against this vendored mini-implementation instead of
//! upstream proptest. It keeps the parts the test suites rely on:
//!
//! * the [`proptest!`] macro (multiple `#[test]` fns, `pat in strategy`
//!   binders, optional `#![proptest_config(...)]` header);
//! * [`strategy::Strategy`] with `prop_map`, implemented for numeric ranges, tuples,
//!   `any::<T>()`, `prop::collection::vec`, and `prop::array::uniform*`;
//! * `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!` /
//!   `prop_assume!`.
//!
//! What it deliberately drops: shrinking (a failing case panics with the
//! generated inputs' case number; generation is deterministic per test
//! name, so failures reproduce exactly), persistence files, and the
//! recursive/filtered strategy combinators.

pub mod strategy;
pub mod test_runner;

pub mod prop {
    //! Namespaced strategy constructors (`prop::collection::vec`, ...).
    pub mod collection {
        //! Collection strategies.
        pub use crate::strategy::vec;
    }
    pub mod array {
        //! Fixed-size array strategies.
        pub use crate::strategy::{uniform16, uniform8};
    }
}

pub mod prelude {
    //! Glob-import surface, mirroring `proptest::prelude`.
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Run property-test functions.
///
/// Supported grammar (a strict subset of upstream proptest):
///
/// ```text
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(96))]   // optional
///     #[test]
///     fn name(x in strategy, mut ys in strategy2) { ... }
///     ...
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@runner ($cfg); $($rest)*);
    };
    (@runner ($cfg:expr); $($(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng =
                    $crate::test_runner::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
                let mut accepted: u32 = 0;
                let mut rejected: u32 = 0;
                while accepted < config.cases {
                    let result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $(
                                let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);
                            )+
                            $body
                            #[allow(unreachable_code)]
                            Ok(())
                        })();
                    match result {
                        Ok(()) => accepted += 1,
                        Err($crate::test_runner::TestCaseError::Reject) => {
                            rejected += 1;
                            assert!(
                                rejected < config.cases.saturating_mul(64).max(1024),
                                "proptest {}: too many rejected cases ({} accepted)",
                                stringify!($name),
                                accepted,
                            );
                        }
                        Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                            panic!(
                                "proptest {} failed at case {}: {}",
                                stringify!($name),
                                accepted,
                                msg
                            );
                        }
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@runner ($crate::test_runner::ProptestConfig::default()); $($rest)*);
    };
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("assertion failed: {}: {}", stringify!($cond), format!($($fmt)+)),
            ));
        }
    };
}

/// Fail the current case unless `a == b`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (lhs, rhs) = (&$a, &$b);
        if !(lhs == rhs) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("{:?} != {:?}", lhs, rhs),
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$a, &$b);
        if !(lhs == rhs) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("{:?} != {:?}: {}", lhs, rhs, format!($($fmt)+)),
            ));
        }
    }};
}

/// Fail the current case unless `a != b`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (lhs, rhs) = (&$a, &$b);
        if lhs == rhs {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("{:?} == {:?}", lhs, rhs),
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$a, &$b);
        if lhs == rhs {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("{:?} == {:?}: {}", lhs, rhs, format!($($fmt)+)),
            ));
        }
    }};
}

/// Discard the current case (regenerate) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        #[test]
        fn ranges_stay_in_bounds(x in 1.0f64..2.0, n in 3usize..9, b in any::<bool>()) {
            prop_assert!((1.0..2.0).contains(&x), "x={}", x);
            prop_assert!((3..9).contains(&n));
            let _ = b;
        }

        #[test]
        fn assume_rejects_and_regenerates(n in 0u64..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }

        #[test]
        fn tuples_and_maps_compose(v in (0.0f64..1.0, 0.0f64..1.0).prop_map(|(a, b)| a + b)) {
            prop_assert!((0.0..2.0).contains(&v));
        }

        #[test]
        fn collections_respect_length(xs in prop::collection::vec(0u32..5, 2..7)) {
            prop_assert!(xs.len() >= 2 && xs.len() < 7);
            prop_assert!(xs.iter().all(|&x| x < 5));
        }

        #[test]
        fn arrays_fill_all_lanes(a in prop::array::uniform8(-1.0f64..1.0)) {
            prop_assert_eq!(a.len(), 8);
            prop_assert!(a.iter().all(|x| (-1.0..1.0).contains(x)));
        }
    }

    #[test]
    fn generation_is_deterministic_per_name() {
        let mut a = crate::test_runner::TestRng::for_test("same");
        let mut b = crate::test_runner::TestRng::for_test("same");
        let mut c = crate::test_runner::TestRng::for_test("other");
        let sa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let sc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
    }
}
