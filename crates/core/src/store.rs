#![allow(clippy::needless_range_loop)] // indexed set-associative ways are clearer with explicit indices
//! Pattern store + context directory (§II-C.3).
//!
//! The context directory (CD) maps context IDs to pattern-set storage; this
//! model fuses the two (the CD entry *is* the set's residence). The finite
//! organization is set-associative with the paper's replacement policy —
//! favor keeping sets with more high-confidence patterns; the infinite
//! organization (limit studies) is a hash map keyed by whole context IDs.

use tage::FastMap;

use crate::pattern_set::PatternSet;

#[derive(Debug, Clone)]
struct StoreWay {
    tag: u32,
    set: PatternSet,
    lru: u64,
    valid: bool,
}

#[derive(Debug, Clone)]
enum StoreImpl {
    Finite {
        ways: Vec<StoreWay>,
        sets_log2: u32,
        assoc: usize,
        tag_bits: u32,
    },
    Infinite(FastMap<u64, PatternSet>),
}

/// The second-level pattern store with its context directory.
#[derive(Debug, Clone)]
pub struct PatternStore {
    inner: StoreImpl,
    clock: u64,
    /// Pattern sets evicted from the directory (capacity conflicts).
    evictions: u64,
}

impl PatternStore {
    /// A finite store: `2^sets_log2` sets × `assoc` ways, tags of
    /// `tag_bits` bits (aliasing possible, as in hardware).
    pub fn finite(sets_log2: u32, assoc: usize, tag_bits: u32) -> Self {
        assert!(assoc > 0, "store needs at least one way");
        assert!((1..=32).contains(&tag_bits), "tag bits out of range");
        PatternStore {
            inner: StoreImpl::Finite {
                ways: vec![
                    StoreWay {
                        tag: 0,
                        set: PatternSet::new(),
                        lru: 0,
                        valid: false
                    };
                    (1usize << sets_log2) * assoc
                ],
                sets_log2,
                assoc,
                tag_bits,
            },
            clock: 0,
            evictions: 0,
        }
    }

    /// The unbounded store of the "+ Inf Contexts" limit configuration.
    pub fn infinite() -> Self {
        PatternStore {
            inner: StoreImpl::Infinite(FastMap::default()),
            clock: 0,
            evictions: 0,
        }
    }

    fn locate(sets_log2: u32, assoc: usize, tag_bits: u32, cid: u64) -> (usize, u32) {
        let set = (cid as usize) & ((1 << sets_log2) - 1);
        let tag = ((cid >> sets_log2) & ((1u64 << tag_bits) - 1)) as u32;
        (set * assoc, tag)
    }

    /// Looks up the pattern set for `cid` (a CD probe + PS read).
    pub fn lookup(&mut self, cid: u64) -> Option<&PatternSet> {
        self.clock += 1;
        match &mut self.inner {
            StoreImpl::Finite {
                ways,
                sets_log2,
                assoc,
                tag_bits,
            } => {
                let (base, tag) = Self::locate(*sets_log2, *assoc, *tag_bits, cid);
                for i in base..base + *assoc {
                    if ways[i].valid && ways[i].tag == tag {
                        ways[i].lru = self.clock;
                        return Some(&ways[i].set);
                    }
                }
                None
            }
            StoreImpl::Infinite(map) => map.get(&cid),
        }
    }

    /// Whether `cid` currently resides in the directory (no LRU update).
    pub fn contains(&self, cid: u64) -> bool {
        match &self.inner {
            StoreImpl::Finite {
                ways,
                sets_log2,
                assoc,
                tag_bits,
            } => {
                let (base, tag) = Self::locate(*sets_log2, *assoc, *tag_bits, cid);
                ways[base..base + *assoc]
                    .iter()
                    .any(|w| w.valid && w.tag == tag)
            }
            StoreImpl::Infinite(map) => map.contains_key(&cid),
        }
    }

    /// Writes `set` back for `cid`, inserting a directory entry if needed.
    ///
    /// Replacement keeps the ways with more high-confidence patterns
    /// (§II-C.3), breaking ties by LRU.
    pub fn insert(&mut self, cid: u64, set: PatternSet) {
        self.clock += 1;
        match &mut self.inner {
            StoreImpl::Finite {
                ways,
                sets_log2,
                assoc,
                tag_bits,
            } => {
                let (base, tag) = Self::locate(*sets_log2, *assoc, *tag_bits, cid);
                // Update in place on a directory hit.
                for i in base..base + *assoc {
                    if ways[i].valid && ways[i].tag == tag {
                        ways[i].set = set;
                        ways[i].lru = self.clock;
                        return;
                    }
                }
                // Victim: invalid first, then fewest confident patterns,
                // then least recently used.
                let victim = (base..base + *assoc)
                    .min_by_key(|&i| (ways[i].valid, ways[i].set.confident_count(), ways[i].lru))
                    .unwrap_or_else(|| unreachable!("assoc > 0"));
                if ways[victim].valid {
                    self.evictions += 1;
                }
                ways[victim] = StoreWay {
                    tag,
                    set,
                    lru: self.clock,
                    valid: true,
                };
            }
            StoreImpl::Infinite(map) => {
                map.insert(cid, set);
            }
        }
    }

    /// Mutable access to a resident set (used by the no-contextualization
    /// mode, which predicts straight out of the store).
    pub fn lookup_mut(&mut self, cid: u64) -> Option<&mut PatternSet> {
        self.clock += 1;
        match &mut self.inner {
            StoreImpl::Finite {
                ways,
                sets_log2,
                assoc,
                tag_bits,
            } => {
                let (base, tag) = Self::locate(*sets_log2, *assoc, *tag_bits, cid);
                for i in base..base + *assoc {
                    if ways[i].valid && ways[i].tag == tag {
                        ways[i].lru = self.clock;
                        return Some(&mut ways[i].set);
                    }
                }
                None
            }
            StoreImpl::Infinite(map) => map.get_mut(&cid),
        }
    }

    /// Number of resident pattern sets.
    pub fn population(&self) -> usize {
        match &self.inner {
            StoreImpl::Finite { ways, .. } => ways.iter().filter(|w| w.valid).count(),
            StoreImpl::Infinite(map) => map.len(),
        }
    }

    /// Directory capacity evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LengthSet;

    fn set_with(n: usize, confident: usize) -> PatternSet {
        let allowed = LengthSet::all_lengths();
        let mut s = PatternSet::new();
        for i in 0..n {
            s.allocate(i as u32, (i % 21) as u8, true, None, &allowed);
        }
        for slot in 0..confident.min(n) {
            for _ in 0..4 {
                s.train(slot, true);
            }
        }
        s
    }

    #[test]
    fn insert_then_lookup_roundtrips() {
        let mut store = PatternStore::finite(4, 2, 10);
        store.insert(0xabc, set_with(3, 0));
        assert!(store.contains(0xabc));
        assert_eq!(store.lookup(0xabc).unwrap().len(), 3);
        assert!(store.lookup(0xdef).is_none());
    }

    #[test]
    fn insert_overwrites_on_directory_hit() {
        let mut store = PatternStore::finite(4, 2, 10);
        store.insert(0xabc, set_with(3, 0));
        store.insert(0xabc, set_with(5, 0));
        assert_eq!(store.lookup(0xabc).unwrap().len(), 5);
        assert_eq!(store.population(), 1);
        assert_eq!(store.evictions(), 0);
    }

    #[test]
    fn replacement_prefers_keeping_confident_sets() {
        // One set (2 ways). Fill with one confident and one weak set, then
        // insert a third: the weak one must be the victim.
        let mut store = PatternStore::finite(0, 2, 16);
        store.insert(0b01 << 0, set_with(4, 4)); // strong
        store.insert(0b10, set_with(4, 0)); // weak
        store.insert(0b11, set_with(2, 0));
        assert!(store.contains(0b01), "confident set survives");
        assert!(!store.contains(0b10), "weak set evicted");
        assert!(store.contains(0b11));
        assert_eq!(store.evictions(), 1);
    }

    #[test]
    fn tags_disambiguate_within_a_set() {
        let mut store = PatternStore::finite(2, 2, 12);
        // Same set index (low 2 bits), different tags.
        let a = 0b00_01;
        let b = 0b01_01;
        store.insert(a, set_with(1, 0));
        store.insert(b, set_with(2, 0));
        assert_eq!(store.lookup(a).unwrap().len(), 1);
        assert_eq!(store.lookup(b).unwrap().len(), 2);
    }

    #[test]
    fn narrow_tags_alias() {
        let mut store = PatternStore::finite(0, 1, 2);
        // With 2 tag bits, cids 0b000 and 0b100<<... wait: cid >> sets_log2
        // masked to 2 bits: cids 0 and 4 share tag 0b00? 0>>0=0, 4>>0=4 & 3 = 0.
        store.insert(0, set_with(1, 0));
        assert!(store.contains(4), "2-bit tags must alias cid 0 and 4");
    }

    #[test]
    fn infinite_store_never_evicts() {
        let mut store = PatternStore::infinite();
        for cid in 0..10_000u64 {
            store.insert(cid, set_with(1, 0));
        }
        assert_eq!(store.population(), 10_000);
        assert_eq!(store.evictions(), 0);
        assert!(store.contains(9_999));
    }

    #[test]
    fn lookup_mut_allows_in_place_training() {
        let mut store = PatternStore::infinite();
        store.insert(7, set_with(1, 0));
        store.lookup_mut(7).unwrap().train(0, true);
        assert_eq!(store.lookup(7).unwrap().patterns()[0].ctr, 1);
    }
}
