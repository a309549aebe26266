//! Pattern sets: the per-context bundles of patterns (§II-C.1).
//!
//! A hardware pattern set holds 16 patterns in 4 buckets of 4, each bucket
//! covering a contiguous history-length range; the limit-study configuration
//! is unbounded and fully associative.

use crate::config::LengthSet;
use crate::pattern::Pattern;

/// A pattern set.
///
/// The bucketed/unbounded distinction lives in how allocation picks a
/// victim; matching is always a scan (16 entries in hardware, done as a
/// parallel tag match).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PatternSet {
    patterns: Vec<Pattern>,
    /// Saturating count of allocations into this set over its lifetime —
    /// the paper's first tracking heuristic (`T_max`): a set that takes
    /// many more allocations than it can hold is churning.
    allocs: u16,
}

/// Result of a pattern-set match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternMatch {
    /// Index of the matching pattern within the set.
    pub slot: usize,
    /// The matching pattern's history-length index.
    pub len_idx: u8,
    /// Predicted direction.
    pub taken: bool,
    /// Whether the matching counter is saturated.
    pub confident: bool,
    /// Whether the matching counter is still in the newly-allocated state
    /// (`|2c+1| == 1`); weak patterns do not override a disagreeing TAGE.
    pub weak: bool,
}

impl PatternSet {
    /// An empty pattern set.
    pub fn new() -> Self {
        PatternSet::default()
    }

    /// Patterns currently stored.
    pub fn patterns(&self) -> &[Pattern] {
        &self.patterns
    }

    /// Number of stored patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// `true` when no patterns are stored.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Number of high-confidence patterns (drives the CD replacement
    /// policy and LLBP-X's overflow signal).
    pub fn confident_count(&self) -> u32 {
        self.patterns.iter().filter(|p| p.is_confident()).count() as u32
    }

    /// Lifetime allocations into this set (saturating) — the churn signal
    /// behind LLBP-X's `T_max` tracking heuristic (SV).
    pub fn lifetime_allocations(&self) -> u16 {
        self.allocs
    }

    /// Finds the longest-history pattern matching the per-length `tags`,
    /// restricted to lengths in `allowed`.
    ///
    /// `tags[i]` must be the tag for `HISTORY_LENGTHS[i]` under the current
    /// history; lengths outside `allowed` are skipped (LLBP-X's history
    /// range selection).
    pub fn find_longest(&self, tags: &[u32], allowed: &LengthSet) -> Option<PatternMatch> {
        let mut best: Option<PatternMatch> = None;
        for (slot, p) in self.patterns.iter().enumerate() {
            if !allowed.contains(p.len_idx) {
                continue;
            }
            if tags[p.len_idx as usize] != p.tag {
                continue;
            }
            if best.is_none_or(|b| p.len_idx > b.len_idx) {
                best = Some(PatternMatch {
                    slot,
                    len_idx: p.len_idx,
                    taken: p.taken(),
                    confident: p.is_confident(),
                    weak: p.confidence() == 1,
                });
            }
        }
        best
    }

    /// Trains the pattern in `slot` toward `taken`; returns `true` when
    /// the stored counter changed (drives writeback dirtiness).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn train(&mut self, slot: usize, taken: bool) -> bool {
        self.patterns[slot].train(taken)
    }

    /// Allocates a weak pattern for `(tag, len_idx)` in direction `taken`.
    ///
    /// With `capacity == None` (infinite-patterns study) the set grows.
    /// Otherwise the victim is the least-confident pattern in the target
    /// *bucket* when `allowed` is bucketed (capacity / 4 slots per bucket),
    /// or in the whole set when fully associative (§II-C.3/C.4).
    ///
    /// If an identical `(tag, len_idx)` pattern exists it is re-trained
    /// toward `taken` instead of duplicated.
    pub fn allocate(
        &mut self,
        tag: u32,
        len_idx: u8,
        taken: bool,
        capacity: Option<usize>,
        allowed: &LengthSet,
    ) {
        debug_assert!(
            allowed.contains(len_idx),
            "allocating unsupported length {len_idx}"
        );
        self.allocs = self.allocs.saturating_add(1);
        if let Some(existing) = self
            .patterns
            .iter_mut()
            .find(|p| p.tag == tag && p.len_idx == len_idx)
        {
            existing.train(taken);
            return;
        }

        let Some(capacity) = capacity else {
            self.patterns.push(Pattern::allocate(tag, len_idx, taken));
            return;
        };

        if allowed.bucketed() {
            let bucket = allowed.bucket_of(len_idx);
            let bucket_cap = (capacity / 4).max(1);
            // One scan over the (≤16-entry) set: count the bucket's
            // population and remember its least-confident member, instead
            // of collecting indices into a heap-allocated vector. Ties keep
            // the earliest slot, matching `min_by_key`.
            let mut in_bucket = 0usize;
            let mut victim: Option<(u8, usize)> = None;
            for (i, p) in self.patterns.iter().enumerate() {
                if allowed.bucket_of(p.len_idx) == bucket {
                    in_bucket += 1;
                    let c = p.confidence();
                    if victim.is_none_or(|(vc, _)| c < vc) {
                        victim = Some((c, i));
                    }
                }
            }
            if in_bucket < bucket_cap {
                self.patterns.push(Pattern::allocate(tag, len_idx, taken));
            } else {
                let (_, victim) =
                    victim.unwrap_or_else(|| unreachable!("bucket is full, so non-empty"));
                self.patterns[victim] = Pattern::allocate(tag, len_idx, taken);
            }
        } else if self.patterns.len() < capacity {
            self.patterns.push(Pattern::allocate(tag, len_idx, taken));
        } else {
            let victim = (0..self.patterns.len())
                .min_by_key(|&i| self.patterns[i].confidence())
                .unwrap_or_else(|| unreachable!("set is full, so non-empty"));
            self.patterns[victim] = Pattern::allocate(tag, len_idx, taken);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tage::NUM_TABLES;

    fn tags_with(pairs: &[(u8, u32)]) -> Vec<u32> {
        let mut tags = vec![u32::MAX; NUM_TABLES];
        for &(len_idx, tag) in pairs {
            tags[len_idx as usize] = tag;
        }
        tags
    }

    #[test]
    fn finds_the_longest_matching_pattern() {
        let allowed = LengthSet::all_lengths();
        let mut set = PatternSet::new();
        set.allocate(0x10, 2, true, None, &allowed);
        set.allocate(0x20, 9, false, None, &allowed);
        set.allocate(0x30, 5, true, None, &allowed);
        let tags = tags_with(&[(2, 0x10), (9, 0x20), (5, 0x30)]);
        let m = set.find_longest(&tags, &allowed).expect("matches exist");
        assert_eq!(m.len_idx, 9);
        assert!(!m.taken);
    }

    #[test]
    fn range_selection_masks_out_of_range_patterns() {
        let all = LengthSet::all_lengths();
        let shallow = LengthSet::shallow_range();
        let mut set = PatternSet::new();
        set.allocate(0x20, 20, false, None, &all); // length 3000, deep-only
        set.allocate(0x10, 3, true, None, &all);
        let tags = tags_with(&[(20, 0x20), (3, 0x10)]);
        let m = set
            .find_longest(&tags, &shallow)
            .expect("shallow pattern matches");
        assert_eq!(
            m.len_idx, 3,
            "length 3000 must be invisible to a shallow context"
        );
    }

    #[test]
    fn mismatched_tags_do_not_match() {
        let allowed = LengthSet::all_lengths();
        let mut set = PatternSet::new();
        set.allocate(0x10, 2, true, None, &allowed);
        let tags = tags_with(&[(2, 0x11)]);
        assert_eq!(set.find_longest(&tags, &allowed), None);
    }

    #[test]
    fn reallocation_of_an_existing_pattern_trains_it() {
        let allowed = LengthSet::all_lengths();
        let mut set = PatternSet::new();
        set.allocate(0x10, 2, true, Some(16), &allowed);
        set.allocate(0x10, 2, true, Some(16), &allowed);
        assert_eq!(set.len(), 1, "no duplicate entries for the same pattern");
        assert_eq!(set.patterns()[0].ctr, 1);
    }

    #[test]
    fn bucketed_allocation_evicts_the_least_confident_in_the_bucket() {
        let allowed = LengthSet::llbp_default();
        let mut set = PatternSet::new();
        // Fill bucket 0 (first four supported lengths).
        let b0: Vec<u8> = allowed.slots().iter().copied().take(4).collect();
        for (i, &len) in b0.iter().enumerate() {
            set.allocate(0x100 + i as u32, len, true, Some(16), &allowed);
        }
        assert_eq!(set.len(), 4);
        // Make one pattern strong; it must survive the next eviction.
        for _ in 0..4 {
            set.train(0, true);
        }
        set.allocate(0x999, b0[1], false, Some(16), &allowed);
        assert_eq!(set.len(), 4, "bucket capacity enforced");
        assert!(
            set.patterns().iter().any(|p| p.tag == 0x100),
            "strong pattern survives"
        );
        assert!(
            set.patterns().iter().any(|p| p.tag == 0x999),
            "new pattern allocated"
        );
    }

    #[test]
    fn bucket_overflow_does_not_evict_other_buckets() {
        let allowed = LengthSet::llbp_default();
        let mut set = PatternSet::new();
        let b3: u8 = *allowed.slots().last().unwrap();
        set.allocate(0x700, b3, true, Some(16), &allowed);
        // Overflow bucket 0 with five allocations.
        let b0: Vec<u8> = allowed.slots().iter().copied().take(4).collect();
        for i in 0..5u32 {
            set.allocate(0x200 + i, b0[(i % 4) as usize], true, Some(16), &allowed);
        }
        assert!(
            set.patterns().iter().any(|p| p.tag == 0x700),
            "bucket-3 pattern untouched by bucket-0 pressure"
        );
    }

    #[test]
    fn unbucketed_finite_set_evicts_globally_least_confident() {
        let allowed = LengthSet::all_lengths();
        let mut set = PatternSet::new();
        for i in 0..4u32 {
            set.allocate(i, i as u8, true, Some(4), &allowed);
        }
        for slot in 1..4 {
            set.train(slot, true); // strengthen all but slot 0
        }
        set.allocate(0xff, 10, false, Some(4), &allowed);
        assert_eq!(set.len(), 4);
        assert!(
            !set.patterns().iter().any(|p| p.tag == 0),
            "weakest evicted"
        );
        assert!(set.patterns().iter().any(|p| p.tag == 0xff));
    }

    #[test]
    fn infinite_sets_grow_without_eviction() {
        let allowed = LengthSet::all_lengths();
        let mut set = PatternSet::new();
        for i in 0..100u32 {
            set.allocate(i, (i % 21) as u8, true, None, &allowed);
        }
        assert_eq!(set.len(), 100);
    }

    #[test]
    fn confident_count_tracks_saturation() {
        let allowed = LengthSet::all_lengths();
        let mut set = PatternSet::new();
        set.allocate(1, 0, true, Some(16), &allowed);
        set.allocate(2, 1, true, Some(16), &allowed);
        assert_eq!(set.confident_count(), 0);
        for _ in 0..4 {
            set.train(0, true);
        }
        assert_eq!(set.confident_count(), 1);
    }
}
