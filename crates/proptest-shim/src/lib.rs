//! Offline stand-in for the `proptest` crate.
//!
//! Implements the strategy-combinator subset this workspace's property tests
//! use: ranges, tuples, [`strategy::Just`], `prop_map` / `prop_filter` /
//! `prop_flat_map` / `prop_recursive`, [`collection::vec`], [`option::of`],
//! `any::<bool>()`, `prop_oneof!`, and the `proptest!` / `prop_assert!` /
//! `prop_assert_eq!` macros. Generation is purely random (no shrinking) and
//! deterministic: each test's RNG is seeded from the test's name, so a
//! failing case reproduces on every run.

#![warn(missing_docs)]

pub mod test_runner {
    //! The per-test runner: configuration and the deterministic RNG.

    /// Test-run configuration, mirroring `proptest::test_runner::Config`.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases each property is checked against.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` random cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// Deterministic SplitMix64 generator seeded from the test name.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the RNG from a test name (FNV-1a over the bytes).
        pub fn from_name(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in name.as_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng { state: h }
        }

        /// Next raw 64-bit output.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform f64 in [0, 1).
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform index in `0..n` (`n` must be non-zero).
        pub fn below(&mut self, n: usize) -> usize {
            (self.next_u64() % n as u64) as usize
        }
    }
}

pub mod strategy {
    //! Value-generation strategies and combinators.

    use crate::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};
    use std::rc::Rc;

    /// How many draws `prop_filter` attempts before giving up.
    const FILTER_ATTEMPTS: usize = 10_000;

    /// A generator of values of type `Self::Value`.
    ///
    /// Mirrors `proptest::strategy::Strategy`, minus shrinking: `gen_value`
    /// draws one random value from the deterministic [`TestRng`].
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `map`.
        fn prop_map<U, F>(self, map: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, map }
        }

        /// Rejects generated values failing `accept`, redrawing until one
        /// passes (panics with `reason` if none does after many attempts).
        fn prop_filter<R, F>(self, reason: R, accept: F) -> Filter<Self, F>
        where
            Self: Sized,
            R: Into<String>,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                reason: reason.into(),
                accept,
            }
        }

        /// Builds a second strategy from each generated value and draws from
        /// that.
        fn prop_flat_map<S, F>(self, flat_map: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap {
                inner: self,
                flat_map,
            }
        }

        /// Recursive strategies: `self` is the leaf case and `recurse` builds
        /// a branch strategy from the strategy for the next depth level.
        ///
        /// `desired_size` and `expected_branch_size` are accepted for API
        /// parity but unused — recursion depth alone bounds generated values.
        fn prop_recursive<S, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            S: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S,
        {
            let leaf = self.boxed();
            let mut current = leaf.clone();
            for _ in 0..depth {
                let branch = recurse(current.clone()).boxed();
                current = Union::new(vec![leaf.clone(), branch]).boxed();
            }
            current
        }

        /// Type-erases the strategy behind a cheap-to-clone handle.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(self))
        }
    }

    /// A type-erased, clonable strategy handle.
    pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn gen_value(&self, rng: &mut TestRng) -> T {
            self.0.gen_value(rng)
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        map: F,
    }

    impl<S, F, U> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;
        fn gen_value(&self, rng: &mut TestRng) -> U {
            (self.map)(self.inner.gen_value(rng))
        }
    }

    /// See [`Strategy::prop_filter`].
    pub struct Filter<S, F> {
        inner: S,
        reason: String,
        accept: F,
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        F: Fn(&S::Value) -> bool,
    {
        type Value = S::Value;
        fn gen_value(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..FILTER_ATTEMPTS {
                let candidate = self.inner.gen_value(rng);
                if (self.accept)(&candidate) {
                    return candidate;
                }
            }
            panic!("prop_filter exhausted retries: {}", self.reason);
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        flat_map: F,
    }

    impl<S, F, T> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        T: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T::Value;
        fn gen_value(&self, rng: &mut TestRng) -> T::Value {
            (self.flat_map)(self.inner.gen_value(rng)).gen_value(rng)
        }
    }

    /// Always generates a clone of one fixed value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn gen_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice among several strategies (backs `prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// A union over `arms` (must be non-empty).
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn gen_value(&self, rng: &mut TestRng) -> T {
            let idx = rng.below(self.arms.len());
            self.arms[idx].gen_value(rng)
        }
    }

    macro_rules! int_range_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let draw = (rng.next_u64() as u128) % span;
                    (self.start as i128 + draw as i128) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = (end as i128 - start as i128) as u128 + 1;
                    let draw = (rng.next_u64() as u128) % span;
                    (start as i128 + draw as i128) as $t
                }
            }
        )*};
    }

    int_range_strategies!(u8, u32, u64, usize, i32, i64);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn gen_value(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.next_f64() * (self.end - self.start)
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;
        fn gen_value(&self, rng: &mut TestRng) -> f64 {
            let (start, end) = (*self.start(), *self.end());
            assert!(start <= end, "empty range strategy");
            start + rng.next_f64() * (end - start)
        }
    }

    macro_rules! tuple_strategies {
        ($(($($name:ident),+))*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($name,)+) = self;
                    ($($name.gen_value(rng),)+)
                }
            }
        )*};
    }

    tuple_strategies! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, F)
    }

    /// Types with a canonical "any value" strategy (backs [`any`]).
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for u8 {
        fn arbitrary(rng: &mut TestRng) -> u8 {
            rng.next_u64() as u8
        }
    }

    /// The strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn gen_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// A strategy for any value of type `T`, mirroring `proptest::prelude::any`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies (`proptest::collection` subset).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// An inclusive size range for generated collections.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.hi - self.size.lo + 1;
            let len = self.size.lo + rng.below(span.max(1));
            (0..len).map(|_| self.element.gen_value(rng)).collect()
        }
    }

    /// A `Vec` whose length is drawn from `size` and whose elements come
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod option {
    //! `Option` strategies (`proptest::option` subset).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// See [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Option<S::Value> {
            // Bias toward Some, like proptest's default weighting.
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.gen_value(rng))
            }
        }
    }

    /// `None` or a `Some` drawn from `inner`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude`.

    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

pub use test_runner::ProptestConfig;

/// Uniform choice among strategies, mirroring `proptest::prop_oneof!`.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( $crate::strategy::Strategy::boxed($arm) ),+
        ])
    };
}

/// Asserts a property holds; alias of `assert!` (no shrinking machinery).
#[macro_export]
macro_rules! prop_assert {
    ($($tokens:tt)*) => { assert!($($tokens)*) };
}

/// Asserts two values are equal; alias of `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tokens:tt)*) => { assert_eq!($($tokens)*) };
}

/// Defines property tests, mirroring `proptest::proptest!`.
///
/// Each `fn name(arg in strategy, ...) { body }` becomes a `#[test]` (the
/// attribute comes from the block itself) running `body` against
/// `config.cases` random argument draws, seeded from the test name.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_items!(config = $config; $($rest)*);
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_items!(config = $crate::ProptestConfig::default(); $($rest)*);
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_items {
    (config = $config:expr; ) => {};
    (
        config = $config:expr;
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let mut rng = $crate::test_runner::TestRng::from_name(stringify!($name));
            for _case in 0..config.cases {
                $(
                    let $arg = $crate::strategy::Strategy::gen_value(&($strat), &mut rng);
                )+
                $body
            }
        }
        $crate::__proptest_items!(config = $config; $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn determinism_same_name_same_draws() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let strat = (0u64..1000, 0.0..1.0f64);
        let mut a = TestRng::from_name("x");
        let mut b = TestRng::from_name("x");
        for _ in 0..100 {
            assert_eq!(strat.gen_value(&mut a).0, strat.gen_value(&mut b).0);
        }
    }

    #[test]
    fn union_and_filter_and_map() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let strat = prop_oneof![0usize..10, Just(99usize)]
            .prop_filter("nonzero", |&v| v != 0)
            .prop_map(|v| v * 2);
        let mut rng = TestRng::from_name("u");
        let mut saw_big = false;
        for _ in 0..200 {
            let v = strat.gen_value(&mut rng);
            assert!(v != 0 && v % 2 == 0);
            if v == 198 {
                saw_big = true;
            }
        }
        assert!(saw_big, "union never picked the Just arm");
    }

    #[test]
    fn recursive_depth_is_bounded() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;

        #[derive(Debug)]
        enum Tree {
            Leaf,
            Node(Box<Tree>, Box<Tree>),
        }
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf => 0,
                Tree::Node(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let strat = Just(0u8)
            .prop_map(|_| Tree::Leaf)
            .prop_recursive(3, 24, 2, |inner| {
                (inner.clone(), inner).prop_map(|(a, b)| Tree::Node(Box::new(a), Box::new(b)))
            });
        let mut rng = TestRng::from_name("tree");
        for _ in 0..300 {
            assert!(depth(&strat.gen_value(&mut rng)) <= 3);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: args bind, config applies, asserts alias.
        #[test]
        fn macro_smoke(
            x in 0u32..10,
            v in crate::collection::vec(0.0..1.0f64, 1..4),
            flag in any::<bool>(),
        ) {
            prop_assert!(x < 10);
            prop_assert!(!v.is_empty() && v.len() < 4);
            let negated = !flag;
            prop_assert_eq!(flag, !negated);
        }
    }
}
