//! A deterministic fast hasher for the idealized, unbounded structures.
//!
//! The infinite TSL's tables, LLBP's infinite pattern store and LLBP-X's
//! depth bookkeeping are hash maps probed on every branch. The standard
//! library's default SipHash resists hash flooding, which keys derived from
//! a seeded synthetic workload can never mount; there it only costs time.
//! [`FastHasher`] folds every written word into its state with one
//! multiply-rotate step and mixes the state once in `finish` (a folded
//! 64×64→128-bit multiply), so the low bits the table indexes by depend on
//! every key bit. It has no random seed: a map's layout is the same on
//! every run. No map here is iterated in an order-dependent way, so the
//! hasher never moves a simulated count.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` hashed by [`FastHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

/// Odd multiplier of the per-word step (the golden-ratio constant).
const STEP: u64 = 0x9e37_79b9_7f4a_7c15;
/// Multiplier of the finishing fold.
const FOLD: u64 = 0xbf58_476d_1ce4_e5b9;

/// A multiply-rotate hasher with a mixing `finish`; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(STEP);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let full = u128::from(self.state) * u128::from(FOLD);
        (full as u64) ^ ((full >> 64) as u64)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word) ^ ((rest.len() as u64) << 59));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(value: &T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(value)
    }

    #[test]
    fn hashes_are_deterministic_and_separate_keys() {
        assert_eq!(
            hash(&(3u32, 0x5au16, 0x1000u64)),
            hash(&(3u32, 0x5au16, 0x1000u64))
        );
        assert_ne!(
            hash(&(3u32, 0x5au16, 0x1000u64)),
            hash(&(3u32, 0x5au16, 0x1004u64))
        );
        assert_ne!(
            hash(&(3u32, 0x5au16, 0x1000u64)),
            hash(&(0x5au32, 3u16, 0x1000u64))
        );
        let bytes = |b: &[u8]| {
            let mut h = FastHasher::default();
            h.write(b);
            h.finish()
        };
        assert_ne!(
            bytes(&[1, 2, 3]),
            bytes(&[1, 2, 3, 0]),
            "a zero tail byte still counts"
        );
        assert_ne!(bytes(&[7; 9]), bytes(&[7; 8]));
    }

    /// Keys that differ only in high bits (4-byte-aligned PCs, small table
    /// indices) must still spread over the low bits a table indexes by.
    #[test]
    fn aligned_keys_spread_over_the_low_bits() {
        let buckets: FastSet<u64> = (0..4096u64).map(|i| hash(&(i << 12)) & 0xff).collect();
        assert!(
            buckets.len() > 240,
            "only {} of 256 low-byte buckets hit",
            buckets.len()
        );
    }

    #[test]
    fn maps_work_as_maps() {
        let mut map: FastMap<(u32, u16, u64), i8> = FastMap::default();
        for i in 0..10_000u64 {
            map.insert((i as u32 & 0x3ff, (i % 7) as u16, i * 4), (i % 8) as i8);
        }
        assert_eq!(map.len(), 10_000);
        assert_eq!(map.get(&(5, 5, 20)), Some(&5));
        assert_eq!(map.get(&(5, 5, 24)), None);
    }
}
