//! Context Tracking Table (CTT): LLBP-X's depth selector (§V-B).
//!
//! A set-associative table indexed by the *shallow* context ID. An entry is
//! inserted when the pattern buffer raises the overflow signal (too many
//! confident patterns in a set). The entry's saturating `avg-hist-len`
//! counter then watches allocations: long-history allocations push it up,
//! short ones pull it down; saturation flips the context to deep (W = 64),
//! and decay back to zero reverts it — the hysteresis of §V-B.1.

/// One CTT entry.
#[derive(Debug, Clone, Copy, Default)]
struct CttEntry {
    tag: u32,
    /// Saturating history-length tendency counter.
    avg_hist_len: u8,
    /// Depth bit: `true` = deep (W = 64).
    deep: bool,
    /// LRU stamp for replacement.
    lru: u64,
    valid: bool,
}

/// The Context Tracking Table.
#[derive(Debug, Clone)]
pub struct ContextTrackingTable {
    entries: Vec<CttEntry>,
    sets_log2: u32,
    ways: usize,
    tag_bits: u32,
    saturation: u8,
    clock: u64,
    /// Depth transitions (shallow→deep and back), for diagnostics.
    transitions: u64,
}

impl ContextTrackingTable {
    /// Creates a CTT with `2^sets_log2` sets of `ways` entries.
    pub fn new(sets_log2: u32, ways: usize, tag_bits: u32, saturation: u8) -> Self {
        assert!(ways > 0, "CTT needs at least one way");
        assert!((1..=32).contains(&tag_bits), "CTT tag bits out of range");
        ContextTrackingTable {
            entries: vec![CttEntry::default(); (1usize << sets_log2) * ways],
            sets_log2,
            ways,
            tag_bits,
            saturation,
            clock: 0,
            transitions: 0,
        }
    }

    #[inline]
    fn set_base(&self, cid2: u64) -> usize {
        ((cid2 as usize) & ((1 << self.sets_log2) - 1)) * self.ways
    }

    #[inline]
    fn tag_of(&self, cid2: u64) -> u32 {
        ((cid2 >> self.sets_log2) & ((1 << self.tag_bits) - 1)) as u32
    }

    fn find(&self, cid2: u64) -> Option<usize> {
        let base = self.set_base(cid2);
        let tag = self.tag_of(cid2);
        (base..base + self.ways).find(|&i| self.entries[i].valid && self.entries[i].tag == tag)
    }

    /// Selector: should the context identified by `cid2` use the deep
    /// context ID? Misses select shallow (§V-B.2). Touches LRU on hit.
    pub fn is_deep(&mut self, cid2: u64) -> bool {
        self.clock += 1;
        match self.find(cid2) {
            Some(i) => {
                self.entries[i].lru = self.clock;
                self.entries[i].deep
            }
            None => false,
        }
    }

    /// Read-only depth query (no LRU update), for diagnostics.
    pub fn peek_deep(&self, cid2: u64) -> bool {
        self.find(cid2).is_some_and(|i| self.entries[i].deep)
    }

    /// Whether `cid2` is currently tracked.
    pub fn is_tracked(&self, cid2: u64) -> bool {
        self.find(cid2).is_some()
    }

    /// Overflow signal from the pattern buffer: start tracking `cid2`
    /// (no-op if already tracked). LRU replacement within the set.
    pub fn begin_tracking(&mut self, cid2: u64) {
        self.clock += 1;
        if let Some(i) = self.find(cid2) {
            self.entries[i].lru = self.clock;
            return;
        }
        let base = self.set_base(cid2);
        let victim = (base..base + self.ways)
            .min_by_key(|&i| (self.entries[i].valid, self.entries[i].lru))
            .unwrap_or_else(|| unreachable!("ways > 0"));
        self.entries[victim] = CttEntry {
            tag: self.tag_of(cid2),
            avg_hist_len: 0,
            deep: false,
            lru: self.clock,
            valid: true,
        };
    }

    /// Observes a pattern allocation in the tracked context: `long` is
    /// whether the allocated history length exceeded H_th. Returns the
    /// depth bit after the update.
    ///
    /// Untracked contexts are ignored (returns `false`).
    pub fn observe_allocation(&mut self, cid2: u64, long: bool) -> bool {
        self.clock += 1;
        let Some(i) = self.find(cid2) else {
            return false;
        };
        let e = &mut self.entries[i];
        e.lru = self.clock;
        if long {
            if e.avg_hist_len < self.saturation {
                e.avg_hist_len += 1;
                if e.avg_hist_len == self.saturation && !e.deep {
                    e.deep = true;
                    self.transitions += 1;
                }
            }
        } else if e.avg_hist_len > 0 {
            e.avg_hist_len -= 1;
            if e.avg_hist_len == 0 && e.deep {
                e.deep = false;
                self.transitions += 1;
            }
        }
        e.deep
    }

    /// Total depth transitions so far (diagnostics).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Currently tracked contexts.
    pub fn population(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }

    /// All tracked `(set, tag)` entries currently deep, as a count.
    pub fn deep_count(&self) -> usize {
        self.entries.iter().filter(|e| e.valid && e.deep).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctt() -> ContextTrackingTable {
        ContextTrackingTable::new(4, 2, 6, 7)
    }

    #[test]
    fn untracked_contexts_are_shallow() {
        let mut t = ctt();
        assert!(!t.is_deep(0xabc));
        assert!(!t.is_tracked(0xabc));
    }

    #[test]
    fn saturation_flips_to_deep() {
        let mut t = ctt();
        t.begin_tracking(0x42);
        for i in 0..7 {
            let deep = t.observe_allocation(0x42, true);
            assert_eq!(deep, i == 6, "deep only at saturation (step {i})");
        }
        assert!(t.is_deep(0x42));
        assert_eq!(t.transitions(), 1);
    }

    #[test]
    fn hysteresis_requires_full_decay_to_revert() {
        let mut t = ctt();
        t.begin_tracking(0x42);
        for _ in 0..7 {
            t.observe_allocation(0x42, true);
        }
        assert!(t.is_deep(0x42));
        // Six short allocations: still deep (counter 1).
        for _ in 0..6 {
            t.observe_allocation(0x42, false);
        }
        assert!(
            t.is_deep(0x42),
            "must not revert before the counter empties"
        );
        t.observe_allocation(0x42, false);
        assert!(!t.is_deep(0x42), "counter exhausted, back to shallow");
        assert_eq!(t.transitions(), 2);
    }

    #[test]
    fn mixed_allocations_hold_the_middle() {
        let mut t = ctt();
        t.begin_tracking(0x42);
        for _ in 0..50 {
            t.observe_allocation(0x42, true);
            t.observe_allocation(0x42, false);
        }
        assert!(!t.is_deep(0x42), "balanced lengths never saturate");
    }

    #[test]
    fn allocations_in_untracked_contexts_are_ignored() {
        let mut t = ctt();
        for _ in 0..20 {
            assert!(!t.observe_allocation(0x77, true));
        }
        assert!(!t.is_tracked(0x77));
    }

    #[test]
    fn lru_replacement_keeps_the_recently_used() {
        let mut t = ContextTrackingTable::new(0, 2, 8, 7); // one set, 2 ways
        t.begin_tracking(0x01);
        t.begin_tracking(0x02);
        // Touch 0x01 so 0x02 is the LRU victim.
        let _ = t.is_deep(0x01);
        t.begin_tracking(0x03);
        assert!(t.is_tracked(0x01));
        assert!(!t.is_tracked(0x02), "LRU way evicted");
        assert!(t.is_tracked(0x03));
    }

    #[test]
    fn retracking_does_not_reset_state() {
        let mut t = ctt();
        t.begin_tracking(0x42);
        for _ in 0..7 {
            t.observe_allocation(0x42, true);
        }
        t.begin_tracking(0x42); // overflow signal fires again
        assert!(t.is_deep(0x42), "re-tracking must not clear the depth bit");
    }

    #[test]
    fn population_and_deep_count() {
        let mut t = ctt();
        t.begin_tracking(1);
        t.begin_tracking(2);
        assert_eq!(t.population(), 2);
        for _ in 0..7 {
            t.observe_allocation(1, true);
        }
        assert_eq!(t.deep_count(), 1);
    }
}
