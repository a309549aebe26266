//! A deterministic pseudo-random generator for tests and tooling.
//!
//! The workspace previously declared a crates-io `rand` dependency that the
//! offline build could not fetch (and that no code actually imported).
//! [`SplitMix64`] replaces it: tiny, well-studied, and bit-for-bit
//! reproducible across platforms, which is what the randomized property
//! tests in `traces`, `workloads`, `tage`, `core` and `sim` need.
//!
//! Simulator-internal randomness (TAGE's allocation spreading, the workload
//! synthesizer's XorShift) is deliberately untouched: changing those
//! sequences would change every reproduced figure.

/// SplitMix64 (Steele, Lea, Flood 2014): one 64-bit state word, equidistributed
/// output, and the standard choice for seeding other generators.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed` (all seeds, including 0, are valid).
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (multiply-shift, avoids low-bit modulo bias).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// A uniform value in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A boolean that is `true` with probability `p`.
    #[inline]
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // First three outputs for seed 0 from the canonical C implementation.
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(g.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(g.next_u64(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn generators_are_seed_deterministic() {
        let a: Vec<u64> = {
            let mut g = SplitMix64::new(99);
            (0..64).map(|_| g.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut g = SplitMix64::new(99);
            (0..64).map(|_| g.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut g = SplitMix64::new(100);
            (0..64).map(|_| g.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn next_below_stays_in_range_and_covers_it() {
        let mut g = SplitMix64::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = g.next_below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "1000 draws should hit all 10 buckets"
        );
    }

    #[test]
    fn next_f64_is_in_unit_interval_and_roughly_uniform() {
        let mut g = SplitMix64::new(42);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean}");
    }

    #[test]
    fn next_bool_tracks_probability() {
        let mut g = SplitMix64::new(3);
        let hits = (0..10_000).filter(|_| g.next_bool(0.3)).count();
        assert!((2700..3300).contains(&hits), "p=0.3 produced {hits}/10000");
    }
}
