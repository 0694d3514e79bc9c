//! Offline stand-in for [proptest](https://docs.rs/proptest) with the API
//! subset this workspace uses (see `shims/` in the repo root for why).
//!
//! Differences from the real crate:
//!
//! * sampling is **deterministic**: the RNG is seeded from the test's
//!   module path, name, and case index, so every run explores the same
//!   cases (reproducible failures without a persistence file);
//! * there is no shrinking — a failing case panics with its inputs
//!   reproducible from the case index;
//! * `prop_assert*` are plain `assert*` (panics instead of early returns).
//!
//! The strategy combinators used by the workspace are implemented with the
//! same names and shapes: numeric range strategies, `any::<T>()`, tuples,
//! `collection::vec`, `prop_map`, `prop_flat_map`, `prop_filter`, and the
//! `proptest!` macro with an optional `#![proptest_config(...)]` header.

/// Per-test configuration (only `cases` is honoured).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of cases each test runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

pub mod test_runner {
    //! Deterministic splitmix64 RNG used to drive strategies.

    /// Deterministic RNG (splitmix64).
    #[derive(Clone, Debug)]
    pub struct Rng(u64);

    impl Rng {
        /// Seeds from a test identifier string and case index.
        pub fn from_seed_str(name: &str, case: u64) -> Self {
            let mut h = 0xcbf29ce484222325u64;
            for b in name.bytes() {
                h = (h ^ b as u64).wrapping_mul(0x100000001b3);
            }
            Rng(h ^ case.wrapping_mul(0x9e3779b97f4a7c15))
        }

        /// Next raw 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }

        /// Uniform float in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Uniform integer in `[0, n)` (`n > 0`).
        pub fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }
    }
}

pub mod strategy {
    //! The `Strategy` trait and combinators.

    use crate::test_runner::Rng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// A generator of values of type `Self::Value`.
    pub trait Strategy {
        /// The generated value type.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut Rng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Feeds generated values into a strategy-producing `f`.
        fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S2: Strategy,
            F: Fn(Self::Value) -> S2,
        {
            FlatMap { inner: self, f }
        }

        /// Rejects values failing `pred` (resampling up to a bounded number
        /// of times).
        fn prop_filter<F>(self, reason: impl Into<String>, pred: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                reason: reason.into(),
                pred,
            }
        }

        /// Boxes the strategy (API-compatibility helper).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// Object-safe boxed strategy.
    pub struct BoxedStrategy<V>(Box<dyn DynStrategy<Value = V>>);

    trait DynStrategy {
        type Value;
        fn dyn_sample(&self, rng: &mut Rng) -> Self::Value;
    }

    impl<S: Strategy> DynStrategy for S {
        type Value = S::Value;
        fn dyn_sample(&self, rng: &mut Rng) -> S::Value {
            self.sample(rng)
        }
    }

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn sample(&self, rng: &mut Rng) -> V {
            self.0.dyn_sample(rng)
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn sample(&self, rng: &mut Rng) -> U {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn sample(&self, rng: &mut Rng) -> S2::Value {
            (self.f)(self.inner.sample(rng)).sample(rng)
        }
    }

    /// See [`Strategy::prop_filter`].
    pub struct Filter<S, F> {
        inner: S,
        reason: String,
        pred: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn sample(&self, rng: &mut Rng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.sample(rng);
                if (self.pred)(&v) {
                    return v;
                }
            }
            panic!(
                "prop_filter '{}' rejected 1000 samples in a row",
                self.reason
            );
        }
    }

    /// Always produces a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<V>(pub V);

    impl<V: Clone> Strategy for Just<V> {
        type Value = V;
        fn sample(&self, _rng: &mut Rng) -> V {
            self.0.clone()
        }
    }

    /// Types uniformly samplable from a half-open or inclusive range.
    pub trait SampleUniform: Copy {
        /// Uniform draw from `[lo, hi)`.
        fn sample_range(rng: &mut Rng, lo: Self, hi: Self) -> Self;
        /// Uniform draw from `[lo, hi]`.
        fn sample_range_inclusive(rng: &mut Rng, lo: Self, hi: Self) -> Self;
    }

    macro_rules! impl_sample_uniform_int {
        ($($t:ty),*) => {$(
            impl SampleUniform for $t {
                fn sample_range(rng: &mut Rng, lo: Self, hi: Self) -> Self {
                    assert!(lo < hi, "empty range");
                    let span = (hi as i128 - lo as i128) as u128;
                    let r = ((rng.next_u64() as u128) << 64 | rng.next_u64() as u128) % span;
                    (lo as i128 + r as i128) as $t
                }
                fn sample_range_inclusive(rng: &mut Rng, lo: Self, hi: Self) -> Self {
                    assert!(lo <= hi, "empty range");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    let r = ((rng.next_u64() as u128) << 64 | rng.next_u64() as u128) % span;
                    (lo as i128 + r as i128) as $t
                }
            }
        )*};
    }

    impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_sample_uniform_float {
        ($($t:ty),*) => {$(
            impl SampleUniform for $t {
                fn sample_range(rng: &mut Rng, lo: Self, hi: Self) -> Self {
                    assert!(lo < hi, "empty range");
                    lo + (rng.next_f64() as $t) * (hi - lo)
                }
                fn sample_range_inclusive(rng: &mut Rng, lo: Self, hi: Self) -> Self {
                    Self::sample_range(rng, lo, hi)
                }
            }
        )*};
    }

    impl_sample_uniform_float!(f32, f64);

    impl<T: SampleUniform> Strategy for Range<T> {
        type Value = T;
        fn sample(&self, rng: &mut Rng) -> T {
            T::sample_range(rng, self.start, self.end)
        }
    }

    impl<T: SampleUniform> Strategy for RangeInclusive<T> {
        type Value = T;
        fn sample(&self, rng: &mut Rng) -> T {
            T::sample_range_inclusive(rng, *self.start(), *self.end())
        }
    }

    macro_rules! impl_strategy_tuple {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut Rng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }

    impl_strategy_tuple! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
    }

    /// Full-domain sampling for `any::<T>()`, drawn from raw random bits.
    pub trait ArbitraryBits {
        /// One arbitrary value.
        fn from_bits_of(rng: &mut Rng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl ArbitraryBits for $t {
                fn from_bits_of(rng: &mut Rng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl ArbitraryBits for bool {
        fn from_bits_of(rng: &mut Rng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl ArbitraryBits for f32 {
        fn from_bits_of(rng: &mut Rng) -> Self {
            f32::from_bits(rng.next_u64() as u32)
        }
    }

    impl ArbitraryBits for f64 {
        fn from_bits_of(rng: &mut Rng) -> Self {
            f64::from_bits(rng.next_u64())
        }
    }

    /// Strategy for `any::<T>()`.
    pub struct Any<T>(PhantomData<T>);

    impl<T: ArbitraryBits> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut Rng) -> T {
            T::from_bits_of(rng)
        }
    }

    /// Arbitrary values of `T` over the type's full domain.
    pub fn any<T: ArbitraryBits>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::{SampleUniform, Strategy};
    use crate::test_runner::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Length specification accepted by [`vec`](fn@vec): a fixed `usize` or a range.
    pub trait IntoSizeRange {
        /// Draws a length.
        fn sample_len(&self, rng: &mut Rng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn sample_len(&self, _rng: &mut Rng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn sample_len(&self, rng: &mut Rng) -> usize {
            usize::sample_range(rng, self.start, self.end)
        }
    }

    impl IntoSizeRange for RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut Rng) -> usize {
            usize::sample_range_inclusive(rng, *self.start(), *self.end())
        }
    }

    /// Strategy producing `Vec`s of values drawn from `element`.
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    impl<S: Strategy, L: IntoSizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut Rng) -> Vec<S::Value> {
            let n = self.len.sample_len(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `proptest::collection::vec` — vectors of `element` with length `len`.
    pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }
}

/// Assertion macro matching `proptest::prop_assert!` (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Assertion macro matching `proptest::prop_assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Assertion macro matching `proptest::prop_assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ($cfg:expr; $( $(#[$meta:meta])* fn $name:ident ( $($arg:pat in $strat:expr),* $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                for __case in 0..__cfg.cases {
                    let mut __rng = $crate::test_runner::Rng::from_seed_str(
                        concat!(module_path!(), "::", stringify!($name)),
                        __case as u64,
                    );
                    $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)*
                    $body
                }
            }
        )*
    };
}

/// The `proptest!` test-definition macro (deterministic case iteration;
/// no shrinking).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!{$cfg; $($rest)*}
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!{$crate::ProptestConfig::default(); $($rest)*}
    };
}

pub mod prelude {
    //! Drop-in replacement for `proptest::prelude`.
    pub use crate::collection;
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_pair() -> impl Strategy<Value = (usize, Vec<f32>)> {
        (1usize..8)
            .prop_flat_map(|n| collection::vec(-1.0f32..1.0, n * 2).prop_map(move |v| (n, v)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, y in -2.5f32..2.5, z in 1usize..=9) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.5..2.5).contains(&y));
            prop_assert!((1..=9).contains(&z));
        }

        #[test]
        fn vec_len_respects_spec(v in collection::vec(any::<u8>(), 4..10)) {
            prop_assert!(v.len() >= 4 && v.len() < 10);
        }

        #[test]
        fn filter_and_flat_map_compose(
            x in any::<f32>().prop_filter("finite", |v| v.is_finite()),
            (n, v) in arb_pair()
        ) {
            prop_assert!(x.is_finite());
            prop_assert_eq!(v.len(), n * 2);
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        use crate::strategy::Strategy;
        use crate::test_runner::Rng;
        let s = collection::vec(0u64..1000, 5usize);
        let a = s.sample(&mut Rng::from_seed_str("t", 7));
        let b = s.sample(&mut Rng::from_seed_str("t", 7));
        assert_eq!(a, b);
    }
}
