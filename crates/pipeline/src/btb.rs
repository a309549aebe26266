//! Branch target buffer: the Table II configuration is 16K entries, 8-way.

/// Sets of the Table II BTB, log2: 2^11 sets × [`BTB_WAYS`] ways = 16K
/// entries.
pub const BTB_LOG2_SETS: u32 = 11;

/// Ways of the Table II BTB.
pub const BTB_WAYS: usize = 8;

/// One BTB entry.
#[derive(Debug, Clone, Copy, Default)]
struct BtbEntry {
    tag: u32,
    target: u64,
    lru: u64,
    valid: bool,
}

/// A set-associative branch target buffer.
///
/// ```
/// use pipeline::Btb;
///
/// let mut btb = Btb::new(8, 4);
/// assert_eq!(btb.lookup(0x400), None);
/// btb.update(0x400, 0x800);
/// assert_eq!(btb.lookup(0x400), Some(0x800));
/// ```
#[derive(Debug, Clone)]
pub struct Btb {
    entries: Vec<BtbEntry>,
    sets_log2: u32,
    ways: usize,
    clock: u64,
}

impl Btb {
    /// Creates a BTB with `2^sets_log2` sets of `ways` entries.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or the shape is absurd (> 2^24 entries).
    pub fn new(sets_log2: u32, ways: usize) -> Self {
        assert!(ways > 0, "BTB needs at least one way");
        assert!(sets_log2 <= 20, "BTB too large");
        Btb {
            entries: vec![BtbEntry::default(); (1usize << sets_log2) * ways],
            sets_log2,
            ways,
            clock: 0,
        }
    }

    #[inline]
    fn set_base(&self, pc: u64) -> usize {
        (((pc >> 2) as usize) & ((1 << self.sets_log2) - 1)) * self.ways
    }

    #[inline]
    fn tag_of(&self, pc: u64) -> u32 {
        ((pc >> (2 + self.sets_log2)) & 0xffff) as u32
    }

    /// Looks up the predicted target for a branch at `pc`, updating LRU.
    pub fn lookup(&mut self, pc: u64) -> Option<u64> {
        self.clock += 1;
        let base = self.set_base(pc);
        let tag = self.tag_of(pc);
        for i in base..base + self.ways {
            if self.entries[i].valid && self.entries[i].tag == tag {
                self.entries[i].lru = self.clock;
                return Some(self.entries[i].target);
            }
        }
        None
    }

    /// Installs or updates the target for `pc` (LRU replacement).
    pub fn update(&mut self, pc: u64, target: u64) {
        self.clock += 1;
        let base = self.set_base(pc);
        let tag = self.tag_of(pc);
        for i in base..base + self.ways {
            if self.entries[i].valid && self.entries[i].tag == tag {
                self.entries[i].target = target;
                self.entries[i].lru = self.clock;
                return;
            }
        }
        let victim = (base..base + self.ways)
            .min_by_key(|&i| (self.entries[i].valid, self.entries[i].lru))
            .unwrap_or_else(|| unreachable!("ways > 0"));
        self.entries[victim] = BtbEntry {
            tag,
            target,
            lru: self.clock,
            valid: true,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_btb_has_16k_entries() {
        let btb = Btb::new(BTB_LOG2_SETS, BTB_WAYS);
        assert_eq!(btb.entries.len(), 16 * 1024);
    }

    #[test]
    fn update_then_lookup_hits() {
        let mut btb = Btb::new(4, 2);
        btb.update(0x1000, 0x2000);
        assert_eq!(btb.lookup(0x1000), Some(0x2000));
        assert_eq!(btb.lookup(0x1000), Some(0x2000), "a hit keeps the entry");
    }

    #[test]
    fn lookup_miss_is_counted() {
        let mut btb = Btb::new(4, 2);
        assert_eq!(btb.lookup(0x1000), None);
        assert_eq!(btb.lookup(0x1000), None, "a miss installs nothing");
        btb.update(0x1000, 0x2000);
        assert_eq!(btb.lookup(0x1000), Some(0x2000));
    }

    #[test]
    fn retarget_updates_in_place() {
        let mut btb = Btb::new(4, 2);
        btb.update(0x1000, 0x2000);
        btb.update(0x1000, 0x3000);
        assert_eq!(btb.lookup(0x1000), Some(0x3000));
    }

    #[test]
    fn lru_keeps_recently_used_ways() {
        let mut btb = Btb::new(0, 2); // one set
                                      // Distinct tags within the single set need pcs differing above bit 2.
        btb.update(0x0004, 0xa);
        btb.update(0x1004, 0xb);
        let _ = btb.lookup(0x0004); // make 0x1004 LRU
        btb.update(0x2004, 0xc);
        assert_eq!(btb.lookup(0x0004), Some(0xa));
        assert_eq!(btb.lookup(0x1004), None, "LRU way evicted");
        assert_eq!(btb.lookup(0x2004), Some(0xc));
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut btb = Btb::new(4, 1);
        btb.update(0x0004, 0xa);
        btb.update(0x0008, 0xb); // next set
        assert_eq!(btb.lookup(0x0004), Some(0xa));
        assert_eq!(btb.lookup(0x0008), Some(0xb));
    }
}
