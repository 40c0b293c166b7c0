//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so this workspace vendors
//! the subset of proptest its tests use: the `proptest!` macro, integer /
//! float range strategies, `any::<T>()`, `collection::vec`,
//! `sample::select`, tuples, `Just`, and the `prop_assert*` /
//! `prop_assume!` macros.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **Deterministic cases.** Each test's case stream derives from a hash
//!   of its name (override with `PROPTEST_SEED`), so failures reproduce
//!   exactly in CI without a persistence file. `.proptest-regressions`
//!   files are NOT read.
//! * **No shrinking.** On failure the full sampled inputs are printed;
//!   cases here are small enough to debug unshrunk.
//! * `PROPTEST_CASES` overrides the per-test case count globally.

#![forbid(unsafe_code)]

pub mod collection;
pub mod option;
pub mod prelude;
pub mod runtime;
pub mod sample;
pub mod strategy;
pub mod test_runner;

pub use strategy::{any, Just, Strategy};
pub use test_runner::{ProptestConfig, TestCaseError};

/// `prop_assert!(cond)` / `prop_assert!(cond, "fmt", ..)` — fail the case
/// (with the sampled inputs printed) instead of panicking mid-shrink.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// `prop_assert_eq!(left, right)` with an optional formatted message.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return ::std::result::Result::Err(
                        $crate::test_runner::TestCaseError::fail(format!(
                            "assertion failed: `{} == {}`\n  left: {l:?}\n right: {r:?}",
                            stringify!($left),
                            stringify!($right),
                        )),
                    );
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return ::std::result::Result::Err(
                        $crate::test_runner::TestCaseError::fail(format!(
                            "{}\n  left: {l:?}\n right: {r:?}",
                            format!($($fmt)+),
                        )),
                    );
                }
            }
        }
    };
}

/// `prop_assert_ne!(left, right)` with an optional formatted message.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {
        match (&$left, &$right) {
            (l, r) => {
                if *l == *r {
                    return ::std::result::Result::Err(
                        $crate::test_runner::TestCaseError::fail(format!(
                            "assertion failed: `{} != {}`\n  both: {l:?}",
                            stringify!($left),
                            stringify!($right),
                        )),
                    );
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                if *l == *r {
                    return ::std::result::Result::Err(
                        $crate::test_runner::TestCaseError::fail(format!(
                            "{}\n  both: {l:?}",
                            format!($($fmt)+),
                        )),
                    );
                }
            }
        }
    };
}

/// `prop_assume!(cond)` — silently skip the case when `cond` is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

/// The `proptest!` block macro: wraps each contained test in a loop over
/// deterministically sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! { ($crate::test_runner::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($cfg:expr); $($(#[$meta:meta])* fn $name:ident(
        $($arg:ident in $strat:expr),* $(,)?
    ) $body:block)*) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::test_runner::ProptestConfig = $cfg;
            let cases = $crate::runtime::case_count(cfg.cases);
            let test_path = concat!(module_path!(), "::", stringify!($name));
            for case_idx in 0..cases {
                let mut __rng = $crate::runtime::rng_for(test_path, case_idx);
                $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)*
                let __desc = {
                    let mut d = String::new();
                    $(d.push_str(&format!(
                        "  {} = {:?}\n", stringify!($arg), &$arg
                    ));)*
                    d
                };
                let __guard = $crate::runtime::CaseGuard::new(test_path, case_idx, &__desc);
                let __result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                __guard.disarm();
                match __result {
                    Ok(()) => {}
                    Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest case {case_idx} of {test_path} failed:\n{msg}\nwith inputs:\n{__desc}"
                        );
                    }
                }
            }
        }
    )*};
}
