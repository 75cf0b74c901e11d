//! Vendored seeded PRNG: SplitMix64 seeding + xoshiro256++ core.
//!
//! The workspace builds fully offline, so it cannot depend on the `rand`
//! crate. This module provides the small slice of functionality the
//! engine actually needs — a fast, high-quality, *seeded* generator that
//! is `Clone` (cheap state snapshots) and `Send + Sync`-compatible plain
//! data. The algorithms are the public-domain xoshiro256++ generator of
//! Blackman & Vigna and the SplitMix64 seeder recommended by its authors.
//!
//! Determinism contract: for a fixed seed, the stream of values produced
//! by each method is stable across platforms and releases. Synthetic
//! workloads and the seeded property suites rely on this.

/// SplitMix64: used to expand a 64-bit seed into xoshiro's 256-bit state.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a SplitMix64 stream from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ — the workspace's general-purpose seeded generator.
#[derive(Debug, Clone)]
pub struct Rng64 {
    // Four named words rather than `[u64; 4]`: the scramble below then
    // never indexes, keeping the hot path free of bound checks and panic
    // sites (PCQE-P002).
    s0: u64,
    s1: u64,
    s2: u64,
    s3: u64,
}

impl Rng64 {
    /// Seed the generator. Any seed (including 0) is valid; the state is
    /// expanded through SplitMix64 so similar seeds give unrelated streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Rng64 {
            s0: sm.next_u64(),
            s1: sm.next_u64(),
            s2: sm.next_u64(),
            s3: sm.next_u64(),
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self
            .s0
            .wrapping_add(self.s3)
            .rotate_left(23)
            .wrapping_add(self.s0);
        let t = self.s1 << 17;
        self.s2 ^= self.s0;
        self.s3 ^= self.s1;
        self.s1 ^= self.s2;
        self.s0 ^= self.s3;
        self.s2 ^= t;
        self.s3 = self.s3.rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Uniform `u64` in `[0, n)`.
    ///
    /// Uses Lemire-style rejection so the result is unbiased.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below_u64 requires n > 0");
        // Rejection sampling on the top bits: unbiased and fast for any n.
        let zone = u64::MAX - (u64::MAX - n + 1) % n;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % n;
            }
        }
    }

    /// Uniform `usize` in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below_usize(&mut self, n: usize) -> usize {
        self.below_u64(n as u64) as usize
    }

    /// Uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "range_usize requires lo < hi");
        lo + self.below_usize(hi - lo)
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi && lo.is_finite() && hi.is_finite());
        lo + self.next_f64() * (hi - lo)
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below_usize(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // SplitMix64 reference output for seed 0
        // (cross-checked against the published C implementation).
        let mut sm = SplitMix64::new(0);
        let first = sm.next_u64();
        assert_eq!(first, 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = Rng64::seed_from_u64(42);
        let mut b = Rng64::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng64::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn clone_snapshots_state() {
        let mut a = Rng64::seed_from_u64(7);
        a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng64::seed_from_u64(9);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn below_is_unbiased_and_in_range() {
        let mut r = Rng64::seed_from_u64(17);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            let v = r.below_usize(3);
            counts[v] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 500.0, "{counts:?}");
        }
    }

    #[test]
    fn range_f64_respects_bounds() {
        let mut r = Rng64::seed_from_u64(3);
        for _ in 0..1000 {
            let x = r.range_f64(20.0, 200.0);
            assert!((20.0..200.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng64::seed_from_u64(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "below_u64 requires n > 0")]
    fn below_zero_panics() {
        Rng64::seed_from_u64(0).below_u64(0);
    }
}
