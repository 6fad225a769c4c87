//! `detprop`: a minimal, fully deterministic property-testing harness.
//!
//! The workspace's property tests were written against the `proptest` crate;
//! this module provides the subset of that API they use, backed by
//! [`crate::det_rand::DetRng`] instead of an OS entropy source, so that
//! (a) the workspace builds with no network access and (b) property tests
//! are *replayable*: each test function derives its RNG seed from its own
//! name, so a failure reproduces exactly on every machine, every run.
//!
//! What is intentionally missing compared to `proptest`: *value-level*
//! shrinking (failing inputs are printed verbatim instead), persistence
//! files, and the full strategy combinator zoo. Shrinking in this workspace
//! happens one level up: the `now-chaos` crate delta-debugs failing fault
//! *schedules* down to a minimal reproduction, and its shrinker budget
//! honours [`ProptestConfig::max_shrink_iters`] (via
//! `now_chaos::ShrinkBudget::from`). Tests migrate by replacing
//! `use proptest::prelude::*` with `use now_sim::detprop::prelude::*` and
//! `proptest::collection::vec` with `prop::collection::vec`.

use std::marker::PhantomData;
use std::ops::Range;
use std::rc::Rc;

use crate::det_rand::{DetRng, Rng, SampleUniform};

/// Runner configuration; only `cases` is meaningful here.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases generated per property.
    pub cases: u32,
    /// Shrink-iteration budget. `detprop` itself performs **no value-level
    /// shrinking** — a failing input is printed verbatim, never minimised —
    /// so inside this crate the value has no effect. It is *not* silently
    /// lost, though: the scenario-level delta-debugging shrinker in
    /// `now-chaos` (`ShrinkBudget::from(&ProptestConfig)`) uses it as its
    /// re-run budget when minimising a violating fault schedule. `0` means
    /// "use the downstream shrinker's default budget".
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 32, max_shrink_iters: 0 }
    }
}

/// A recipe for generating random values of one type.
///
/// Unlike `proptest`'s two-layer `Strategy`/`ValueTree` design there is no
/// shrinking, so a strategy is just a sampling function. The trait is
/// object-safe so `prop_oneof!` can mix heterogeneous arms.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value from the deterministic stream.
    fn sample(&self, rng: &mut DetRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

impl<T: SampleUniform> Strategy for Range<T> {
    type Value = T;

    fn sample(&self, rng: &mut DetRng) -> T {
        rng.gen_range(self.clone())
    }
}

impl<S: Strategy + ?Sized> Strategy for Rc<S> {
    type Value = S::Value;

    fn sample(&self, rng: &mut DetRng) -> S::Value {
        (**self).sample(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut DetRng) -> T {
        self.0.clone()
    }
}

/// The result of [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn sample(&self, rng: &mut DetRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident / $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn sample(&self, rng: &mut DetRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A/0)
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
}

/// Types with a canonical "any value" strategy, the target of [`any`].
pub trait Arbitrary {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut DetRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut DetRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut DetRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T> Clone for Any<T> {
    fn clone(&self) -> Any<T> {
        Any(PhantomData)
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut DetRng) -> T {
        T::arbitrary(rng)
    }
}

/// An unconstrained value of type `T` (`any::<bool>()`, `any::<usize>()`, …).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Weighted choice among heterogeneous arms; built by `prop_oneof!`.
///
/// Arms are reference-counted trait objects so the whole strategy stays
/// cheaply `Clone`, which the original `proptest` idiom (`key.clone()`)
/// relies on.
pub struct OneOf<T> {
    arms: Vec<(u32, Rc<dyn Strategy<Value = T>>)>,
    total: u32,
}

impl<T> Clone for OneOf<T> {
    fn clone(&self) -> OneOf<T> {
        OneOf {
            arms: self.arms.clone(),
            total: self.total,
        }
    }
}

impl<T> OneOf<T> {
    /// Builds a weighted choice; every weight must be positive.
    pub fn new(arms: Vec<(u32, Rc<dyn Strategy<Value = T>>)>) -> OneOf<T> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        assert!(arms.iter().all(|(w, _)| *w > 0), "zero weight in prop_oneof!");
        let total = arms.iter().map(|(w, _)| w).sum();
        OneOf { arms, total }
    }
}

impl<T> Strategy for OneOf<T> {
    type Value = T;

    fn sample(&self, rng: &mut DetRng) -> T {
        let mut roll = rng.gen_range(0..self.total);
        for (w, arm) in &self.arms {
            if roll < *w {
                return arm.sample(rng);
            }
            roll -= w;
        }
        unreachable!("roll exceeded total weight");
    }
}

/// Boxes a strategy arm for [`OneOf`]; used by `prop_oneof!` so the arm
/// types unify without naming them.
pub fn arm<S>(s: S) -> Rc<dyn Strategy<Value = S::Value>>
where
    S: Strategy + 'static,
{
    Rc::new(s)
}

/// Length specification for [`collection::vec`]: an exact length or a
/// half-open range, mirroring `proptest`'s `SizeRange` conversions.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // exclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "empty vec length range");
        SizeRange { lo: r.start, hi: r.end }
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{DetRng, Rng, SizeRange, Strategy};

    /// A `Vec` whose length is drawn from `size` and whose elements are
    /// drawn from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut DetRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..self.size.hi);
            (0..len).map(|_| self.elem.sample(rng)).collect()
        }
    }
}

/// Namespace alias so `prop::collection::vec(...)` reads as in `proptest`.
pub mod prop {
    pub use super::collection;
}

/// Derives the per-test RNG seed from the test's full path, so every
/// property test has a distinct but fixed random stream.
pub fn seed_for(test_path: &str) -> u64 {
    // FNV-1a, 64-bit.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_path.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use super::{any, prop, Just, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Declares deterministic property tests. Accepts the same shape the
/// `proptest` crate's macro does for the patterns used in this workspace:
/// an optional `#![proptest_config(...)]` header followed by `#[test]`
/// functions whose arguments are drawn from strategies via `arg in strat`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__detprop_fns! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__detprop_fns! { cfg = $crate::detprop::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __detprop_fns {
    (cfg = $cfg:expr; $($(#[$meta:meta])+ fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])+
            fn $name() {
                let __cfg: $crate::detprop::ProptestConfig = $cfg;
                let __seed = $crate::detprop::seed_for(concat!(module_path!(), "::", stringify!($name)));
                let mut __rng = $crate::det_rand::DetRng::seed_from_u64(__seed);
                for __case in 0..__cfg.cases {
                    $(
                        let $arg = $crate::detprop::Strategy::sample(&$strat, &mut __rng);
                    )+
                    let __result = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| {
                        $(let $arg = $arg.clone();)+
                        $body
                    }));
                    if let Err(__panic) = __result {
                        eprintln!(
                            "proptest {} failed on case {}/{} (seed {:#x}):",
                            stringify!($name), __case + 1, __cfg.cases, __seed
                        );
                        $(eprintln!("  {} = {:?}", stringify!($arg), $arg);)+
                        ::std::panic::resume_unwind(__panic);
                    }
                }
            }
        )*
    };
}

/// Weighted (`w => strat`) or uniform choice among strategy arms.
#[macro_export]
macro_rules! prop_oneof {
    ($($w:literal => $s:expr),+ $(,)?) => {
        $crate::detprop::OneOf::new(vec![$(($w, $crate::detprop::arm($s))),+])
    };
    ($($s:expr),+ $(,)?) => {
        $crate::detprop::OneOf::new(vec![$((1, $crate::detprop::arm($s))),+])
    };
}

/// Assertion inside a property body; panics (no shrinking), so it is just
/// `assert!` under a `proptest`-compatible name.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Equality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{seed_for, Strategy};
    use crate::det_rand::DetRng;

    #[test]
    fn seeds_differ_by_test_name() {
        assert_ne!(seed_for("a::t1"), seed_for("a::t2"));
        assert_eq!(seed_for("a::t1"), seed_for("a::t1"));
    }

    #[test]
    fn range_and_map_sample_in_bounds() {
        let mut rng = DetRng::seed_from_u64(1);
        let s = (0u32..10).prop_map(|v| v * 2);
        for _ in 0..500 {
            let v = s.sample(&mut rng);
            assert!(v % 2 == 0 && v < 20);
        }
    }

    #[test]
    fn oneof_honours_weights_roughly() {
        let mut rng = DetRng::seed_from_u64(2);
        let s = prop_oneof![9 => Just(true), 1 => Just(false)];
        let t = (0..10_000).filter(|_| s.sample(&mut rng)).count();
        assert!((8_500..9_500).contains(&t), "t={t}");
    }

    #[test]
    fn vec_strategy_respects_size() {
        let mut rng = DetRng::seed_from_u64(3);
        let ranged = prop::collection::vec(0u8..5, 2..7);
        let exact = prop::collection::vec(any::<bool>(), 4);
        for _ in 0..200 {
            let v = ranged.sample(&mut rng);
            assert!((2..7).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
            assert_eq!(exact.sample(&mut rng).len(), 4);
        }
    }

    #[test]
    fn tuple_strategies_compose() {
        let mut rng = DetRng::seed_from_u64(4);
        let s = (Just("k"), 0u32..3, 0u32..3).prop_map(|(k, a, b)| format!("{k}{a}{b}"));
        for _ in 0..100 {
            let v = s.sample(&mut rng);
            assert_eq!(v.len(), 3);
            assert!(v.starts_with('k'));
        }
    }

    // The macro itself, exercised end to end.
    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        #[test]
        fn macro_generates_and_asserts(
            xs in prop::collection::vec(0i64..100, 1..20),
            flip in any::<bool>(),
        ) {
            let sum: i64 = xs.iter().sum();
            prop_assert!(sum >= 0);
            prop_assert_eq!(xs.is_empty(), false);
            let _ = flip;
        }
    }
}
