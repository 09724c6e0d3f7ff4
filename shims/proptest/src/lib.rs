//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so this workspace ships a
//! small, deterministic property-testing engine with the API subset the
//! repo's tests use: the [`Strategy`] trait with
//! `prop_map`/`prop_recursive`, `any::<T>()`, ranges and `&str` regexes as
//! strategies, [`collection`] and [`string`] modules, and the `proptest!`,
//! `prop_oneof!`, `prop_assert*!`, `prop_assume!` macros.
//!
//! Differences from real proptest: no shrinking (a failing case panics
//! with the generated inputs' debug output), and generation is seeded
//! deterministically from the test's module path + name, so failures are
//! reproducible run-to-run.

pub mod collection;
pub mod strategy;
pub mod string;
pub mod test_runner;

pub use strategy::{any, Just, Strategy};

/// Deterministic generation context threaded through strategies.
pub struct Gen {
    s: [u64; 4],
    /// Remaining recursion budget for `prop_recursive` strategies.
    pub depth: u32,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Gen {
    /// Build a generator seeded from an arbitrary label (test name).
    pub fn from_name(name: &str) -> Gen {
        // FNV-1a over the name, expanded through splitmix64.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut sm = h;
        Gen {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
            depth: 0,
        }
    }

    /// Next 64 random bits (xoshiro256**).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// Uniform `usize` in `[lo, hi)`; empty ranges yield `lo`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        if hi <= lo {
            return lo;
        }
        lo + self.below((hi - lo) as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Everything a test file needs, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Run property-test functions: `proptest! { #[test] fn f(x in strat) { .. } }`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $( $(#[$meta:meta])*
         fn $name:ident ( $( $pat:pat_param in $strat:expr ),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $cfg;
                let mut __gen =
                    $crate::Gen::from_name(concat!(module_path!(), "::", stringify!($name)));
                let mut __ran: u32 = 0;
                let mut __attempts: u32 = 0;
                let __max_attempts = __config.cases.saturating_mul(10).saturating_add(100);
                while __ran < __config.cases && __attempts < __max_attempts {
                    __attempts += 1;
                    let __result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $(
                                let $pat =
                                    $crate::strategy::Strategy::generate(&($strat), &mut __gen);
                            )+
                            { $body }
                            ::std::result::Result::Ok(())
                        })();
                    match __result {
                        ::std::result::Result::Ok(()) => {
                            __ran += 1;
                        }
                        ::std::result::Result::Err(
                            $crate::test_runner::TestCaseError::Reject(_),
                        ) => {}
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                            __msg,
                        )) => {
                            panic!(
                                "property test {} failed at case {}: {}",
                                stringify!($name),
                                __ran,
                                __msg
                            );
                        }
                    }
                }
            }
        )*
    };
}

/// Uniformly choose among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( $crate::strategy::Strategy::boxed($arm) ),+
        ])
    };
}

/// Property-test assertion: fails the current case without panicking the
/// harness directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Property-test equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {:?} == {:?}", __l, __r),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("{}: {:?} == {:?}", format!($($fmt)+), __l, __r),
            ));
        }
    }};
}

/// Property-test inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {:?} != {:?}",
                __l, __r
            )));
        }
    }};
}

/// Discard the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}
