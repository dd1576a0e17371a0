//! Offline drop-in subset of the `proptest` crate API.
//!
//! The build container has no crates.io access, so this crate re-implements
//! the exact slice of proptest the workspace's property tests use:
//! `proptest!` / `prop_oneof!` / `prop_assert*`, `Strategy` with
//! `prop_map` / `boxed`, integer-range and `any::<T>()` strategies, `Just`, tuple strategies, `prop::collection::{vec,
//! btree_map}` and `.{a,b}` string strategies.
//!
//! Differences from upstream, deliberately accepted:
//! * generation is deterministic (fixed seed per test body) so CI runs are
//!   reproducible;
//! * there is no shrinking — a failing case is printed verbatim
//!   (`max_shrink_iters` is accepted and ignored);
//! * `prop_assert!`/`prop_assert_eq!` panic instead of returning
//!   `TestCaseError`, which is equivalent under "no shrinking".

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::fmt::Debug;
    use std::rc::Rc;

    /// A generator of values of type `Self::Value`.
    ///
    /// Unlike upstream proptest there is no value tree: a strategy is just a
    /// deterministic function of the test RNG.
    pub trait Strategy {
        type Value;

        /// Produces one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> BoxedStrategy<U>
        where
            Self: Sized + 'static,
            U: 'static,
            F: Fn(Self::Value) -> U + 'static,
        {
            let base = self;
            BoxedStrategy(Rc::new(move |rng| f(base.generate(rng))))
        }

        /// Erases the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            let base = self;
            BoxedStrategy(Rc::new(move |rng| base.generate(rng)))
        }
    }

    /// Type-erased, cheaply clonable strategy (proptest's `BoxedStrategy`).
    pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(self.0.clone())
        }
    }

    impl<T> Debug for BoxedStrategy<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("BoxedStrategy")
        }
    }

    impl<T: 'static> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Always produces a clone of the wrapped value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Weighted choice between boxed strategies — the engine behind
    /// `prop_oneof!`.
    pub struct Union<T> {
        arms: Vec<(u32, BoxedStrategy<T>)>,
        total: u64,
    }

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Self {
            Union {
                arms: self.arms.clone(),
                total: self.total,
            }
        }
    }

    impl<T> Union<T> {
        pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            let total = arms.iter().map(|(w, _)| u64::from(*w)).sum();
            assert!(total > 0, "prop_oneof! weights must not all be zero");
            Union { arms, total }
        }
    }

    impl<T: 'static> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.next_u64() % self.total;
            for (w, arm) in &self.arms {
                let w = u64::from(*w);
                if pick < w {
                    return arm.generate(rng);
                }
                pick -= w;
            }
            unreachable!("weighted pick within total")
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let r = u128::from(rng.next_u64()) % span;
                    (self.start as i128 + r as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    let r = u128::from(rng.next_u64()) % span;
                    (lo as i128 + r as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    /// String strategy from a regex-like pattern. Only the shapes the test
    /// suite uses are supported: `.{lo,hi}` (any chars except newline) and
    /// plain literal strings (no metacharacters).
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            if let Some((lo, hi)) = parse_dot_repeat(self) {
                let len = lo + (rng.next_u64() as usize) % (hi - lo + 1);
                let mut out = String::with_capacity(len);
                for _ in 0..len {
                    out.push(random_char(rng));
                }
                return out;
            }
            assert!(
                !self.contains(['.', '*', '+', '[', '(', '{', '\\', '?', '|']),
                "proptest shim: unsupported regex strategy {self:?} \
                 (only `.{{lo,hi}}` and literals are implemented)"
            );
            (*self).to_string()
        }
    }

    /// Parses `.{lo,hi}` into its bounds.
    fn parse_dot_repeat(pat: &str) -> Option<(usize, usize)> {
        let body = pat.strip_prefix(".{")?.strip_suffix('}')?;
        let (lo, hi) = body.split_once(',')?;
        Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?))
    }

    /// A `.`-class character: mostly printable ASCII, with a tail of
    /// tabs/quotes/unicode to keep fuzz inputs nasty. Never `\n`.
    fn random_char(rng: &mut TestRng) -> char {
        let r = rng.next_u64();
        match r % 10 {
            0..=6 => char::from(0x20 + (r >> 8) as u8 % 0x5f),
            7 => ['\t', '"', '\'', '\\', '\r', '\0'][(r >> 8) as usize % 6],
            8 => char::from_u32(0x80 + (r >> 8) as u32 % 0x700).unwrap_or('¿'),
            _ => char::from_u32(0x1000 + (r >> 8) as u32 % 0xe000).unwrap_or('€'),
        }
    }

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);
    tuple_strategy!(A, B, C, D, E, F, G);
    tuple_strategy!(A, B, C, D, E, F, G, H);
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        fn any_value(rng: &mut TestRng) -> Self;
    }

    /// The strategy returned by [`any`].
    pub struct AnyStrategy<T>(PhantomData<fn() -> T>);

    impl<T> Clone for AnyStrategy<T> {
        fn clone(&self) -> Self {
            *self
        }
    }
    impl<T> Copy for AnyStrategy<T> {}

    impl<T: Arbitrary + 'static> Strategy for AnyStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::any_value(rng)
        }
    }

    /// `any::<T>()` — the full value range of `T`, with extremes
    /// over-represented the way upstream's binary search tends to surface
    /// them.
    pub fn any<T: Arbitrary + 'static>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }

    impl Arbitrary for bool {
        fn any_value(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn any_value(rng: &mut TestRng) -> $t {
                    let r = rng.next_u64();
                    // 1-in-8 edge injection keeps boundary bugs reachable
                    // despite the small fixed case count.
                    match r % 8 {
                        0 => match (r >> 3) % 5 {
                            0 => 0,
                            1 => 1,
                            2 => <$t>::MAX,
                            3 => <$t>::MIN,
                            _ => <$t>::MAX.wrapping_sub(1),
                        },
                        1 => (rng.next_u64() % 256) as $t,
                        _ => rng.next_u64() as $t,
                    }
                }
            }
        )*};
    }

    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for f64 {
        fn any_value(rng: &mut TestRng) -> f64 {
            let r = rng.next_u64();
            match r % 8 {
                0 => [
                    0.0,
                    -0.0,
                    1.0,
                    -1.0,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    f64::NAN,
                    f64::MIN,
                ][(r >> 3) as usize % 8],
                1 | 2 => (rng.next_u64() as i64 % 10_000) as f64 / 16.0,
                _ => f64::from_bits(rng.next_u64()),
            }
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::BTreeMap;
    use std::ops::Range;

    /// Element-count range for collection strategies (`lo..hi`, exclusive).
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl SizeRange {
        fn pick(self, rng: &mut TestRng) -> usize {
            assert!(self.lo < self.hi, "empty collection size range");
            self.lo + (rng.next_u64() as usize) % (self.hi - self.lo)
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    /// `prop::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.pick(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `prop::collection::btree_map(keys, values, size)`. Duplicate keys
    /// collapse, so the map may be smaller than the drawn size — same as
    /// upstream.
    pub fn btree_map<K, V>(
        keys: K,
        values: V,
        size: impl Into<SizeRange>,
    ) -> BTreeMapStrategy<K, V> {
        BTreeMapStrategy {
            keys,
            values,
            size: size.into(),
        }
    }

    #[derive(Clone, Debug)]
    pub struct BTreeMapStrategy<K, V> {
        keys: K,
        values: V,
        size: SizeRange,
    }

    impl<K, V> Strategy for BTreeMapStrategy<K, V>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.pick(rng);
            (0..len)
                .map(|_| (self.keys.generate(rng), self.values.generate(rng)))
                .collect()
        }
    }
}

pub mod test_runner {
    use crate::strategy::Strategy;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

    /// Runner configuration. `max_shrink_iters` and `verbose` are accepted
    /// for source compatibility; this shim does not shrink or log.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        pub cases: u32,
        pub max_shrink_iters: u32,
        pub verbose: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: 256,
                max_shrink_iters: 0,
                verbose: 0,
            }
        }
    }

    /// Deterministic SplitMix64 stream driving all strategies.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn from_seed(seed: u64) -> Self {
            TestRng { state: seed }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    pub struct TestRunner {
        config: ProptestConfig,
        rng: TestRng,
    }

    impl TestRunner {
        pub fn new(config: ProptestConfig) -> Self {
            // Fixed seed: every CI run replays the same corpus.
            TestRunner {
                config,
                rng: TestRng::from_seed(0x4850_5321_7465_7374),
            }
        }

        /// Runs `test` against `config.cases` generated inputs. On panic the
        /// offending input is printed (pre-rendered, since the value was
        /// moved into the test) and the panic is re-raised.
        pub fn run<S, F>(&mut self, strategy: &S, mut test: F)
        where
            S: Strategy,
            S::Value: std::fmt::Debug,
            F: FnMut(S::Value),
        {
            for case in 0..self.config.cases {
                let input = strategy.generate(&mut self.rng);
                let rendered = format!("{input:#?}");
                if let Err(panic) = catch_unwind(AssertUnwindSafe(|| test(input))) {
                    eprintln!(
                        "proptest shim: case {case}/{} failed for input:\n{rendered}",
                        self.config.cases
                    );
                    resume_unwind(panic);
                }
            }
        }
    }
}

pub mod prelude {
    /// Upstream's prelude exposes the crate root as `prop` so tests can say
    /// `prop::collection::vec(...)`.
    pub use crate as prop;
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Defines property tests. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` (the attribute is written by the caller and passed
/// through) that runs `body` for every generated tuple of arguments.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    ( ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:pat in $strat:expr),+ $(,)? ) $body:block
    )* ) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let mut __runner = $crate::test_runner::TestRunner::new(__config);
            let __strategy = ( $($strat,)+ );
            __runner.run(&__strategy, |($($arg,)+)| $body);
        }
    )*};
}

/// Weighted (`w => strategy`) or uniform choice between strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat)),)+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat)),)+
        ])
    };
}

/// No shrinking in the shim, so failing a case by panicking is equivalent
/// to upstream's `Err(TestCaseError)` path.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn ranges_stay_in_bounds(x in -7i64..9, y in 1u8..5, z in 0usize..3) {
            prop_assert!((-7..9).contains(&x));
            prop_assert!((1..5).contains(&y));
            prop_assert!(z < 3);
        }

        #[test]
        fn oneof_unions_and_maps(v in prop_oneof![
            2 => (0i64..10).prop_map(|n| n * 2),
            1 => Just(-1i64),
        ]) {
            prop_assert!(v == -1 || (v % 2 == 0 && (0..20).contains(&v)));
        }

        #[test]
        fn collections_respect_sizes(
            xs in prop::collection::vec(any::<u8>(), 2..6),
            m in prop::collection::btree_map(0usize..4, any::<bool>(), 0..8),
        ) {
            prop_assert!((2..6).contains(&xs.len()));
            prop_assert!(m.len() <= 4); // only 4 possible keys
        }

        #[test]
        fn string_regex_subset(s in ".{0,12}") {
            prop_assert!(s.chars().count() <= 12);
            prop_assert!(!s.contains('\n'));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let strat = crate::collection::vec(any::<i64>(), 0..9);
        let mut a = TestRng::from_seed(5);
        let mut b = TestRng::from_seed(5);
        for _ in 0..50 {
            assert_eq!(strat.generate(&mut a), strat.generate(&mut b));
        }
    }
}
