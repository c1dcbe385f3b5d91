//! Workspace-local stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this crate
//! reimplements exactly the slice of the `rand 0.8` API that the ipmark
//! workspace uses: [`RngCore`], [`Rng::gen`], [`Rng::gen_range`] and
//! [`SeedableRng`] (including the SplitMix64-based `seed_from_u64`
//! expansion). Semantics follow upstream `rand 0.8` where observable —
//! `gen::<f64>()` is the 53-bit mantissa construction over `[0, 1)`,
//! integer ranges use an unbiased rejection method — but the exact output
//! stream is *not* guaranteed to match upstream, only to be deterministic.

use std::ops::{Range, RangeInclusive};

/// The core of a random number generator: a source of uniform `u32`/`u64`.
pub trait RngCore {
    /// Returns the next uniform 32-bit value.
    fn next_u32(&mut self) -> u32;

    /// Returns the next uniform 64-bit value.
    fn next_u64(&mut self) -> u64;

    /// Fills `dest` with uniform bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(4);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u32().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u32().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Types drawable from the "standard" distribution of `rand 0.8`:
/// full-range integers, `[0, 1)` floats and fair booleans.
pub trait Standard: Sized {
    /// Draws one value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty => $via:ident),* $(,)?) => {$(
        impl Standard for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.$via() as $t
            }
        }
    )*};
}

impl_standard_int!(
    u8 => next_u32, u16 => next_u32, u32 => next_u32,
    i8 => next_u32, i16 => next_u32, i32 => next_u32,
    u64 => next_u64, i64 => next_u64, usize => next_u64, isize => next_u64,
);

impl Standard for u128 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // rand 0.8: two words, low then high.
        let lo = u128::from(rng.next_u64());
        let hi = u128::from(rng.next_u64());
        (hi << 64) | lo
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // rand 0.8 `Standard` for f64: 53 random mantissa bits over [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Range argument of [`Rng::gen_range`]: half-open or inclusive ranges.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics on an empty range, matching upstream `rand`.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Draws uniformly from `[0, span)` without modulo bias (widening-multiply
/// rejection, as in Lemire's method).
fn uniform_u64_below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    // Rejection zone: values whose bucket would be over-represented.
    let zone = span.wrapping_neg() % span;
    loop {
        let v = rng.next_u64();
        let mul = u128::from(v) * u128::from(span);
        let low = mul as u64;
        if low >= zone {
            return (mul >> 64) as u64;
        }
    }
}

macro_rules! impl_sample_range_int {
    ($($t:ty),* $(,)?) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                let off = uniform_u64_below(rng, span);
                (self.start as i128 + off as i128) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                if span > u128::from(u64::MAX) {
                    // Full 64-bit range: every value is fair.
                    return rng.next_u64() as $t;
                }
                let off = uniform_u64_below(rng, span as u64);
                (start as i128 + off as i128) as $t
            }
        }
    )*};
}

impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_range_float {
    ($($t:ty),* $(,)?) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let unit = <$t as Standard>::sample_standard(rng);
                self.start + unit * (self.end - self.start)
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let unit = <$t as Standard>::sample_standard(rng);
                start + unit * (end - start)
            }
        }
    )*};
}

impl_sample_range_float!(f32, f64);

/// User-facing convenience methods, blanket-implemented for every
/// [`RngCore`] (upstream `rand` does the same).
pub trait Rng: RngCore {
    /// Draws a value from the standard distribution (full-range integers,
    /// `[0, 1)` floats).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Draws a value uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_single(self)
    }

    /// Draws a boolean that is `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p must be in [0, 1], got {p}");
        <f64 as Standard>::sample_standard(self) < p
    }

    /// Fills `dest` with random bytes.
    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// SplitMix64 mixer used by [`SeedableRng::seed_from_u64`] to expand one
/// word into a full seed, mirroring upstream `rand`'s choice.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A generator constructible from a fixed-size byte seed.
pub trait SeedableRng: Sized {
    /// The byte-array seed type.
    type Seed: Default + AsMut<[u8]>;

    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands one `u64` into a full seed via SplitMix64 and builds the
    /// generator from it.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut s = state;
        for chunk in seed.as_mut().chunks_mut(8) {
            let word = splitmix64(&mut s).to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&word[..n]);
        }
        Self::from_seed(seed)
    }
}

/// Submodule mirror of upstream layout (`rand::rngs`), kept for drop-in
/// compatibility of `use` paths.
pub mod rngs {
    /// A small, fast non-cryptographic generator (xoshiro256++-style) for
    /// tests and tooling that need speed over stream compatibility.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl crate::SeedableRng for SmallRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, w) in s.iter_mut().enumerate() {
                let mut b = [0u8; 8];
                b.copy_from_slice(&seed[i * 8..i * 8 + 8]);
                *w = u64::from_le_bytes(b);
            }
            // Avoid the all-zero state, which xoshiro cannot leave.
            if s.iter().all(|&w| w == 0) {
                s[0] = 0x9e37_79b9_7f4a_7c15;
            }
            Self { s }
        }
    }

    impl crate::RngCore for SmallRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u64);

    impl RngCore for Counter {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = Counter(1);
        for _ in 0..1000 {
            let v: usize = rng.gen_range(3..17);
            assert!((3..17).contains(&v));
            let w: u64 = rng.gen_range(0..=5);
            assert!(w <= 5);
            let f: f64 = rng.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn full_u64_inclusive_range_does_not_overflow() {
        let mut rng = Counter(7);
        let _: u64 = rng.gen_range(0..=u64::MAX);
    }

    #[test]
    fn standard_f64_is_unit_interval() {
        let mut rng = Counter(3);
        for _ in 0..1000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn standard_u128_draws_low_then_high_word() {
        let mut words = Counter(13);
        let (lo, hi) = (words.next_u64(), words.next_u64());
        let mut rng = Counter(13);
        let v: u128 = rng.gen();
        assert_eq!(v, (u128::from(hi) << 64) | u128::from(lo));
        assert!(v > u128::from(u64::MAX));
    }

    #[test]
    fn unsized_rng_is_usable_through_mut_ref() {
        fn takes_dynish<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
            rng.gen_range(0..10u64)
        }
        let mut rng = Counter(5);
        assert!(takes_dynish(&mut rng) < 10);
    }

    #[test]
    fn gen_range_distribution_covers_small_domain() {
        let mut rng = Counter(11);
        let mut seen = [false; 8];
        for _ in 0..512 {
            seen[rng.gen_range(0..8usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
