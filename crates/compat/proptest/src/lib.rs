//! Offline stand-in for [`proptest`](https://crates.io/crates/proptest).
//!
//! Implements the strategy combinators and macros this workspace's
//! property tests use, over a deterministic per-test RNG (seeded from the
//! test name, so failures reproduce exactly across runs). No shrinking:
//! a failing case panics with the sampled values visible in the assertion
//! message.

use std::ops::{Range, RangeInclusive};

/// Cases each `proptest!` test runs. Upstream defaults to 256; 96 keeps
/// the suite fast while still exercising the generators broadly.
pub const CASES: usize = 96;

/// Deterministic test RNG (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from a test name so every test gets an independent,
    /// reproducible stream.
    pub fn deterministic(name: &str) -> TestRng {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for b in name.bytes() {
            state = (state ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
        }
        TestRng { state }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// A value generator.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The [`Strategy::prop_map`] adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Types with a whole-domain default strategy ([`any`]).
pub trait Arbitrary: Sized {
    /// Draw an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Finite, broadly ranged values.
        (rng.next_f64() - 0.5) * 2e12
    }
}

impl<const N: usize> Arbitrary for [u8; N] {
    fn arbitrary(rng: &mut TestRng) -> Self {
        let mut out = [0u8; N];
        for b in &mut out {
            *b = rng.next_u64() as u8;
        }
        out
    }
}

/// Whole-domain strategy for `T` (`any::<u32>()`).
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// The [`any`] strategy.
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_strategy_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                self.start.wrapping_add((u128::from(rng.next_u64()) % span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u128).wrapping_sub(lo as u128).wrapping_add(1);
                if span == 0 {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add((u128::from(rng.next_u64()) % span) as $t)
            }
        }
    )*};
}
impl_strategy_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        self.start() + rng.next_f64() * (self.end() - self.start())
    }
}

/// A string literal is a regex-flavoured strategy. Supports the subset
/// used in the tests: literal characters, `[...]` character classes with
/// ranges, and `{n}` / `{m,n}` repetition.
impl Strategy for &str {
    type Value = String;
    fn sample(&self, rng: &mut TestRng) -> String {
        sample_regex(self, rng)
    }
}

fn sample_regex(pattern: &str, rng: &mut TestRng) -> String {
    let chars: Vec<char> = pattern.chars().collect();
    let mut out = String::new();
    let mut i = 0;
    while i < chars.len() {
        let alphabet: Vec<char> = match chars[i] {
            '[' => {
                let mut class = Vec::new();
                i += 1;
                while i < chars.len() && chars[i] != ']' {
                    if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                        let (lo, hi) = (chars[i], chars[i + 2]);
                        class.extend((lo..=hi).filter(|c| c.is_ascii()));
                        i += 3;
                    } else {
                        class.push(chars[i]);
                        i += 1;
                    }
                }
                i += 1; // consume ']'
                class
            }
            '\\' if i + 1 < chars.len() => {
                i += 2;
                vec![chars[i - 1]]
            }
            c => {
                i += 1;
                vec![c]
            }
        };
        let (min_rep, max_rep) = if i < chars.len() && chars[i] == '{' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == '}')
                .expect("closing }")
                + i;
            let spec: String = chars[i + 1..close].iter().collect();
            i = close + 1;
            match spec.split_once(',') {
                Some((a, b)) => (a.parse().expect("rep min"), b.parse().expect("rep max")),
                None => {
                    let n: usize = spec.parse().expect("rep count");
                    (n, n)
                }
            }
        } else {
            (1, 1)
        };
        let reps = if max_rep > min_rep {
            min_rep + rng.below((max_rep - min_rep + 1) as u64) as usize
        } else {
            min_rep
        };
        assert!(!alphabet.is_empty(), "empty alphabet in pattern {pattern}");
        for _ in 0..reps {
            out.push(alphabet[rng.below(alphabet.len() as u64) as usize]);
        }
    }
    out
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Size specifications accepted by [`vec()`].
    pub trait SizeRange {
        /// Draw a length.
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty size range");
            self.start + rng.below((self.end - self.start) as u64) as usize
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            self.start() + rng.below((self.end() - self.start() + 1) as u64) as usize
        }
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    /// Vectors of `element` values with a length drawn from `size`.
    pub fn vec<S: Strategy, Z: SizeRange>(element: S, size: Z) -> VecStrategy<S, Z> {
        VecStrategy { element, size }
    }

    /// The [`vec()`] strategy.
    pub struct VecStrategy<S, Z> {
        element: S,
        size: Z,
    }

    impl<S: Strategy, Z: SizeRange> Strategy for VecStrategy<S, Z> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.sample_len(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Option strategies (`proptest::option::of`).
pub mod option {
    use super::{Strategy, TestRng};

    /// `None` about a quarter of the time, otherwise `Some(inner)`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// The [`of`] strategy.
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.sample(rng))
            }
        }
    }
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Strategy};
    /// Upstream nests strategy modules under `prop::`.
    pub mod prop {
        pub use crate::{collection, option};
    }
}

/// Define property tests: each `#[test] fn name(pat in strategy, ...)`
/// becomes a test that samples every strategy [`CASES`] times.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)+) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut __proptest_rng = $crate::TestRng::deterministic(stringify!($name));
                for __proptest_case in 0..$crate::CASES {
                    let _ = __proptest_case;
                    $(let $pat = $crate::Strategy::sample(&($strat), &mut __proptest_rng);)+
                    $body
                }
            }
        )+
    };
}

/// `assert!` under a property-test name (no shrinking in this stand-in).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// `assert_eq!` under a property-test name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// `assert_ne!` under a property-test name.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_and_collections_sample_in_bounds() {
        let mut rng = TestRng::deterministic("t1");
        for _ in 0..1000 {
            let v = (5u32..10).sample(&mut rng);
            assert!((5..10).contains(&v));
            let xs = collection::vec(any::<u8>(), 3..6).sample(&mut rng);
            assert!((3..6).contains(&xs.len()));
            let o = option::of(1u8..=1).sample(&mut rng);
            assert!(o.is_none() || o == Some(1));
        }
    }

    #[test]
    fn regex_subset_sampler() {
        let mut rng = TestRng::deterministic("t2");
        for _ in 0..200 {
            let s = "[A-Za-z0-9+/]{22}==".sample(&mut rng);
            assert_eq!(s.len(), 24);
            assert!(s.ends_with("=="));
            assert!(s[..22]
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '+' || c == '/'));
        }
        let t = "ab{3}c".sample(&mut rng);
        assert_eq!(t, "abbbc");
    }

    #[test]
    fn prop_map_transforms() {
        let mut rng = TestRng::deterministic("t3");
        let s = any::<u32>().prop_map(|v| u64::from(v) * 2);
        for _ in 0..100 {
            assert_eq!(s.sample(&mut rng) % 2, 0);
        }
    }

    proptest! {
        #[test]
        fn the_macro_itself_works(x in 0u8..10, ys in crate::collection::vec(0u16..100, 0..4)) {
            prop_assert!(x < 10);
            prop_assert!(ys.iter().all(|&y| y < 100), "ys {ys:?}");
        }
    }
}
