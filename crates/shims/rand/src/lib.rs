//! Minimal, dependency-free shim of the `rand` 0.8 API surface used by this
//! workspace.
//!
//! The build environment has no access to crates.io, so the workspace vendors
//! the small part of `rand` it needs: [`rngs::StdRng`], [`SeedableRng`] and
//! the [`Rng`] extension trait with `gen`, `gen_range` and `gen_bool`. The
//! generator is xoshiro256** seeded via SplitMix64 — deterministic for a given
//! seed, statistically solid for synthetic data generation, and *not*
//! cryptographically secure (neither use nor claim of that here).

use std::ops::{Range, RangeInclusive};

/// Object-safe source of raw randomness (mirrors `rand_core::RngCore`).
pub trait RngCore {
    /// Returns the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

/// Seedable generators (mirrors `rand::SeedableRng`, seed-from-integer only).
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that `Rng::gen` can produce.
pub trait StandardSample: Sized {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Types `Rng::gen_range` can sample uniformly.
pub trait SampleUniform: PartialOrd + Copy {
    /// Uniform sample in `[lo, hi)` when `inclusive` is false, `[lo, hi]`
    /// otherwise. Callers guarantee a non-empty range.
    fn sample_in<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self, inclusive: bool) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_in<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                inclusive: bool,
            ) -> Self {
                // Widen through u128 so i64::MIN..u64::MAX spans are safe.
                let lo_w = lo as i128;
                let hi_w = hi as i128;
                let span = (hi_w - lo_w) as u128 + if inclusive { 1 } else { 0 };
                debug_assert!(span > 0, "empty gen_range span");
                let draw = ((rng.next_u64() as u128) << 64 | rng.next_u64() as u128) % span;
                (lo_w + draw as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(i32, usize, i64);

impl SampleUniform for f64 {
    fn sample_in<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self, inclusive: bool) -> Self {
        // The unit draw is in [0, 1), but the final rounding can land
        // exactly on `hi`; clamp back so the half-open contract holds.
        let unit = f64::sample_standard(rng);
        let v = lo + unit * (hi - lo);
        if inclusive {
            if v > hi {
                hi
            } else {
                v
            }
        } else if v >= hi {
            hi.next_down()
        } else {
            v
        }
    }
}

/// Ranges accepted by `Rng::gen_range` (mirrors `rand::distributions::uniform::SampleRange`).
pub trait SampleRange<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_in(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty inclusive range");
        T::sample_in(rng, lo, hi, true)
    }
}

/// User-facing extension trait (mirrors `rand::Rng`).
pub trait Rng: RngCore {
    /// Samples a value of a standard-distribution type.
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Samples uniformly from a (half-open or inclusive) range.
    fn gen_range<T, Rg>(&mut self, range: Rg) -> T
    where
        T: SampleUniform,
        Rg: SampleRange<T>,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool p out of range: {p}");
        f64::sample_standard(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256** generator standing in for `rand::rngs::StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as recommended by the xoshiro authors.
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
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
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<f64>().to_bits(), b.gen::<f64>().to_bits());
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(3..10usize);
            assert!((3..10).contains(&v));
            let w = rng.gen_range(1..=5i64);
            assert!((1..=5).contains(&w));
            let f = rng.gen_range(1.0..500.0);
            assert!((1.0..500.0).contains(&f));
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(9);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn works_through_unsized_and_impl_refs() {
        fn through_dyn(rng: &mut (impl Rng + ?Sized)) -> f64 {
            rng.gen()
        }
        fn through_impl(rng: &mut impl Rng) -> usize {
            rng.gen_range(0..10)
        }
        let mut rng = StdRng::seed_from_u64(3);
        let _ = through_dyn(&mut rng);
        let _ = through_impl(&mut rng);
    }
}
