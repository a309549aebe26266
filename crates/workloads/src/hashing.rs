//! Deterministic mixing functions used by the workload synthesizer.
//!
//! Branch outcomes in the synthetic server are *functions* of identifiers
//! (handler, branch, request type and, for H2P sites, the previous request
//! type) rather than fresh random draws, so that the same
//! `(branch, context)` always behaves the same way — the property that
//! makes patterns learnable and the whole trace reproducible.

/// SplitMix64 finalizer: a high-quality 64-bit mixer.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mixes a variable number of identifiers into one word.
#[inline]
pub fn mix_all(parts: &[u64]) -> u64 {
    let mut acc = 0x243f_6a88_85a3_08d3;
    for &p in parts {
        acc = mix64(acc ^ p.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    }
    acc
}

/// A boolean drawn deterministically from identifiers.
#[inline]
pub fn mix_bool(parts: &[u64]) -> bool {
    mix_all(parts) & 1 == 1
}

/// A value in `0..bound` drawn deterministically from identifiers.
///
/// # Panics
///
/// Panics if `bound` is zero.
#[inline]
pub fn mix_range(parts: &[u64], bound: u64) -> u64 {
    assert!(bound > 0, "mix_range bound must be positive");
    // Multiply-shift rather than modulo to avoid low-bit bias.
    ((u128::from(mix_all(parts)) * u128::from(bound)) >> 64) as u64
}

/// A small xorshift64* PRNG for the stochastic parts of the workload
/// (request arrival process, noise branches). Deterministic per seed.
#[derive(Debug, Clone)]
pub struct XorShift {
    state: u64,
}

impl XorShift {
    /// Creates a generator; a zero seed is remapped to a fixed constant.
    pub fn new(seed: u64) -> Self {
        XorShift {
            state: if seed == 0 {
                0x853c_49e6_748f_ea9b
            } else {
                mix64(seed)
            },
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_range bound must be positive");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// `true` with probability `p` (clamped to [0, 1]).
    #[inline]
    pub fn next_bool(&mut self, p: f64) -> bool {
        let threshold = (p.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
        self.next_u64() <= threshold
    }

    /// Uniform f64 in [0, 1).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_nontrivial() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(42), mix64(43));
        assert_ne!(mix64(0), 0);
    }

    #[test]
    fn mix_all_depends_on_order_and_content() {
        assert_ne!(mix_all(&[1, 2]), mix_all(&[2, 1]));
        assert_ne!(mix_all(&[1, 2]), mix_all(&[1, 3]));
        assert_eq!(mix_all(&[7, 8, 9]), mix_all(&[7, 8, 9]));
    }

    #[test]
    fn mix_range_is_bounded_and_roughly_uniform() {
        let mut counts = [0u32; 8];
        for i in 0..8000u64 {
            counts[mix_range(&[i, 3], 8) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (700..1300).contains(&c),
                "bucket {i} count {c} far from uniform"
            );
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn mix_range_zero_bound_panics() {
        let _ = mix_range(&[1], 0);
    }

    #[test]
    fn xorshift_is_reproducible_per_seed() {
        let mut a = XorShift::new(7);
        let mut b = XorShift::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = XorShift::new(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn xorshift_zero_seed_is_usable() {
        let mut r = XorShift::new(0);
        let x = r.next_u64();
        assert_ne!(x, 0);
    }

    #[test]
    fn next_bool_tracks_probability() {
        let mut r = XorShift::new(99);
        let hits = (0..10_000).filter(|_| r.next_bool(0.3)).count();
        assert!((2500..3500).contains(&hits), "p=0.3 gave {hits}/10000");
        assert!((0..100).all(|_| r.next_bool(1.0)));
        assert!(!(0..100).any(|_| r.next_bool(0.0)));
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut r = XorShift::new(5);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }
}
