//! Offline drop-in replacement for the subset of the [rand] crate this
//! workspace uses: a seedable deterministic generator ([`rngs::StdRng`]),
//! [`Rng::gen_range`] over float and integer ranges, and
//! [`Rng::gen_bool`].
//!
//! The generator is xoshiro256++ seeded through SplitMix64, so streams
//! are high-quality and fully determined by `seed_from_u64` — which is
//! all the workspace's synthetic-data generators need. The streams do
//! *not* reproduce the upstream crate's bit-exact output; every consumer
//! in this repository only relies on determinism for a fixed seed.
//!
//! [rand]: https://crates.io/crates/rand
#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Types that can be sampled uniformly from a range by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draw one uniform sample from the range.
    fn sample_from(self, rng: &mut dyn RngCore) -> T;
}

/// Object-safe core: a source of uniform `u64`s.
pub trait RngCore {
    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

/// User-facing random-value methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore + Sized {
    /// Uniform sample from `range` (half-open or inclusive).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    /// Bernoulli draw: `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        unit_f64(self.next_u64()) < p
    }
}

impl<T: RngCore + Sized> Rng for T {}

/// Map 64 random bits to a uniform float in `[0, 1)` with 53-bit
/// precision.
#[inline]
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SampleRange<f64> for Range<f64> {
    fn sample_from(self, rng: &mut dyn RngCore) -> f64 {
        assert!(self.start < self.end, "empty f64 sample range");
        let u = unit_f64(rng.next_u64());
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_from(self, rng: &mut dyn RngCore) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty f64 sample range");
        let u = unit_f64(rng.next_u64());
        lo + u * (hi - lo)
    }
}

macro_rules! impl_int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from(self, rng: &mut dyn RngCore) -> $t {
                assert!(self.start < self.end, "empty integer sample range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from(self, rng: &mut dyn RngCore) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty integer sample range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Construction of generators from seeds.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The standard seedable generator: xoshiro256++ over a SplitMix64
    /// seed expansion.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut sm);
            }
            // All-zero state is the one forbidden xoshiro state; the
            // SplitMix64 expansion cannot produce it, but guard anyway.
            if s == [0; 4] {
                s[0] = 0x9e3779b97f4a7c15;
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
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
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0.0..1.0), b.gen_range(0.0..1.0));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<f64> = (0..8).map(|_| a.gen_range(0.0..1.0)).collect();
        let vb: Vec<f64> = (0..8).map(|_| b.gen_range(0.0..1.0)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let f = rng.gen_range(-2.5..7.5);
            assert!((-2.5..7.5).contains(&f));
            let i = rng.gen_range(3usize..17);
            assert!((3..17).contains(&i));
            let j = rng.gen_range(0i32..=4);
            assert!((0..=4).contains(&j));
        }
    }

    #[test]
    fn gen_bool_is_roughly_fair() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4500..5500).contains(&hits), "hits {hits}");
    }
}
