//! Offline vendored mini-`proptest`.
//!
//! The build environment has no network access to crates.io, so this
//! workspace ships a small, self-contained property-testing runner with
//! the subset of the `proptest` 1.x surface its tests use:
//!
//! - the [`proptest!`] macro with an optional
//!   `#![proptest_config(...)]` header,
//! - [`Strategy`](strategy::Strategy) with `prop_map` / `prop_flat_map`, integer-range and
//!   tuple strategies, [`any`](strategy::any), and [`collection::vec`],
//! - `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!` /
//!   `prop_assume!`.
//!
//! There is no shrinking: a failing case reports the test name, case
//! index, and derived seed, which reproduce the exact inputs (the runner
//! is fully deterministic — seeds are a function of the test name).

#![warn(missing_docs)]

pub mod collection;
pub mod strategy;
pub mod test_runner;

/// The conventional glob-import surface.
pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::test_runner::{TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// Namespace alias mirroring `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::collection;
        pub use crate::strategy;
    }
}

/// Defines deterministic property tests.
///
/// ```
/// use proptest::prelude::*;
///
/// proptest! {
///     fn addition_commutes(a in 0u32..1000, b in 0u32..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// addition_commutes();
/// ```
///
/// (In real tests, also write `#[test]` above the `fn` so the harness
/// picks it up.)
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@body ($config) $($rest)*);
    };
    (@body ($config:expr)
        $($(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $config;
                let mut runner =
                    $crate::test_runner::TestRunner::new(config, stringify!($name));
                runner.run(|rng| {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), rng);)+
                    let case: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (move || {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    case
                });
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@body ($crate::test_runner::Config::default()) $($rest)*);
    };
}

/// Fails the current test case with a formatted message unless the
/// condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Fails the current test case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n{}",
            stringify!($left), stringify!($right), l, r, format!($($fmt)*)
        );
    }};
}

/// Fails the current test case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left), stringify!($right), l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}\n{}",
            stringify!($left), stringify!($right), l, format!($($fmt)*)
        );
    }};
}

/// Discards the current test case (without failing) unless the
/// condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}
