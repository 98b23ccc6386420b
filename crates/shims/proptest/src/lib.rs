//! Offline drop-in shim for the subset of the `proptest` API this
//! workspace uses.
//!
//! The build container has no crate-registry access, so this local path
//! dependency provides the pieces the test-suite relies on:
//!
//! - the [`proptest!`] macro with both `arg: Type` (via [`arbitrary::Arbitrary`])
//!   and `arg in strategy` bindings, plus `#![proptest_config(..)]`,
//! - [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assert_ne!`],
//! - strategies: integer/float ranges, regex-subset string patterns,
//!   [`strategy::Just`], tuples, `prop_oneof!` (weighted and plain),
//!   [`collection::vec`], [`option::of`], `prop_map`,
//! - [`arbitrary::Arbitrary`] for the common standard types.
//!
//! Differences from real proptest: cases are generated from a
//! deterministic per-test seed (no `PROPTEST_*` env handling) and
//! failures are reported by panic without input shrinking. Those are
//! acceptable trade-offs for an air-gapped CI; the test *properties*
//! are unchanged, so swapping the real crate back in later is a
//! manifest-only change.

pub mod arbitrary;
pub mod collection;
pub mod option;
pub mod strategy;
pub mod string;
pub mod test_runner;

/// The common imports: strategies, config, assertion and test macros.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Defines a block of property tests.
///
/// Each `fn name(bindings) { body }` item becomes a `#[test]` that runs
/// the body for `cases` generated inputs. Bindings are either
/// `name: Type` (drawn via [`arbitrary::Arbitrary`]) or
/// `name in strategy`.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default())
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (
        ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($args:tt)*) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng =
                $crate::test_runner::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__config.cases {
                let _ = __case;
                $crate::__proptest_bind!(__rng; $($args)*);
                // Real proptest rewrites the body to return
                // `Result<(), TestCaseError>`; mirror that so bodies may
                // `return Err(TestCaseError::fail(..))`.
                #[allow(clippy::redundant_closure_call)]
                let __outcome: ::std::result::Result<
                    (),
                    $crate::test_runner::TestCaseError,
                > = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(err) = __outcome {
                    panic!("proptest case failed: {err}");
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident;) => {};
    ($rng:ident; $name:ident in $s:expr, $($rest:tt)*) => {
        let $name = $crate::strategy::Strategy::generate(&($s), &mut $rng);
        $crate::__proptest_bind!($rng; $($rest)*);
    };
    ($rng:ident; $name:ident in $s:expr) => {
        let $name = $crate::strategy::Strategy::generate(&($s), &mut $rng);
    };
    ($rng:ident; $name:ident : $ty:ty, $($rest:tt)*) => {
        let $name: $ty = $crate::arbitrary::Arbitrary::arbitrary(&mut $rng);
        $crate::__proptest_bind!($rng; $($rest)*);
    };
    ($rng:ident; $name:ident : $ty:ty) => {
        let $name: $ty = $crate::arbitrary::Arbitrary::arbitrary(&mut $rng);
    };
}

/// Asserts a property holds for the current case (panics otherwise).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts two expressions are equal for the current case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts two expressions differ for the current case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Picks among alternative strategies, optionally weighted
/// (`prop_oneof![3 => a, 1 => b]`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $s:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($s))),+
        ])
    };
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($s))),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn typed_and_strategy_bindings_work(a: u8, b in 10u32..20, s in "[a-c]{2,4}") {
            prop_assert!(u32::from(a) <= 255);
            prop_assert!((10..20).contains(&b));
            prop_assert!((2..=4).contains(&s.len()));
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
        }

        #[test]
        fn collections_and_oneof_work(
            v in crate::collection::vec(prop_oneof![Just(1u8), Just(2u8)], 0..9),
            o in crate::option::of(0i32..5),
        ) {
            prop_assert!(v.len() < 9);
            prop_assert!(v.iter().all(|x| *x == 1 || *x == 2));
            if let Some(x) = o {
                prop_assert!((0..5).contains(&x));
            }
        }

        #[test]
        fn weighted_oneof_and_map_work(
            x in prop_oneof![3 => (0u8..4).prop_map(|v| v * 10), 1 => Just(99u8)],
        ) {
            prop_assert!(x == 99 || x % 10 == 0);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let mut a = crate::test_runner::TestRng::from_name("x");
        let mut b = crate::test_runner::TestRng::from_name("x");
        let s = crate::collection::vec(0u64..1000, 0..20);
        for _ in 0..32 {
            assert_eq!(
                crate::strategy::Strategy::generate(&s, &mut a),
                crate::strategy::Strategy::generate(&s, &mut b)
            );
        }
    }
}
