//! Minimal, offline stand-in for the `rand` crate surface the workspace
//! uses: a seeded 64-bit PRNG (`rngs::StdRng`), `Rng::{gen, gen_range}`,
//! `SeedableRng::seed_from_u64`, and `seq::SliceRandom::shuffle`.
//!
//! The generator is xorshift64* seeded through splitmix64 — not
//! cryptographic, but statistically fine for workload generation, skew
//! sampling and generated test inputs, and fully deterministic per seed.

use std::ops::{Range, RangeInclusive};

/// Random number generator engines.
pub mod rngs {
    /// The workspace's standard seeded PRNG (xorshift64*).
    #[derive(Clone, Debug)]
    pub struct StdRng {
        pub(crate) state: u64,
    }
}

use rngs::StdRng;

impl StdRng {
    fn next_u64_impl(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Construction of RNGs from seeds.
pub trait SeedableRng: Sized {
    /// Creates an RNG deterministically from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        // splitmix64 scramble so nearby seeds diverge immediately.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        StdRng { state: z | 1 }
    }
}

/// Types that [`Rng::gen`] can produce.
pub trait Standard: Sized {
    /// Samples a uniformly distributed value.
    fn sample_standard(rng: &mut StdRng) -> Self;
}

impl Standard for u64 {
    fn sample_standard(rng: &mut StdRng) -> Self {
        rng.next_u64_impl()
    }
}

impl Standard for f64 {
    fn sample_standard(rng: &mut StdRng) -> Self {
        // 53 random mantissa bits in [0, 1).
        (rng.next_u64_impl() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample_standard(rng: &mut StdRng) -> Self {
        rng.next_u64_impl() & 1 == 1
    }
}

/// Ranges that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Samples a uniformly distributed value from the range.
    fn sample(self, rng: &mut StdRng) -> T;
}

macro_rules! int_range_impl {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (rng.next_u64_impl() as u128 % span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut StdRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                (start as i128 + (rng.next_u64_impl() as u128 % span) as i128) as $t
            }
        }
    )*};
}

int_range_impl!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample(self, rng: &mut StdRng) -> f64 {
        self.start + f64::sample_standard(rng) * (self.end - self.start)
    }
}

/// The user-facing RNG interface.
pub trait Rng {
    /// Returns the next raw 64 bits.
    fn next_u64(&mut self) -> u64;

    /// Samples a value of an inferable type.
    fn gen<T: Standard>(&mut self) -> T;

    /// Samples uniformly from a range.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T;

    /// Returns true with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool;
}

impl Rng for StdRng {
    fn next_u64(&mut self) -> u64 {
        self.next_u64_impl()
    }

    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample_standard(self) < p
    }
}

/// Sequence-related random operations.
pub mod seq {
    use super::{Rng, StdRng};

    /// Random operations on slices.
    pub trait SliceRandom {
        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle(&mut self, rng: &mut StdRng);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle(&mut self, rng: &mut StdRng) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }
    }
}

pub use seq::SliceRandom;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&v));
            let u = rng.gen_range(0usize..7);
            assert!(u < 7);
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
            let inc = rng.gen_range(1u32..=3);
            assert!((1..=3).contains(&inc));
        }
    }

    #[test]
    fn gen_f64_is_unit_interval_and_varied() {
        let mut rng = StdRng::seed_from_u64(11);
        let xs: Vec<f64> = (0..100).map(|_| rng.gen::<f64>()).collect();
        assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((0.3..0.7).contains(&mean), "suspicious mean {mean}");
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<i64> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the identity permutation");
    }
}
