//! Tagged TAGE tables: direct-mapped (hardware) and infinite (idealized).

use crate::config::TableStorageKind;
use crate::fast_map::FastMap;

/// One tagged-table entry: partial tag, 3-bit signed prediction counter
/// (-4..=3) and a useful bit (paper: `12b tag + 3b counter + 1b useful`).
///
/// Packed into 4 host bytes; the modelled storage is the paper's bit count
/// ([`TageConfig::storage_bits`](crate::TageConfig::storage_bits)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TageEntry {
    /// Partial tag (width depends on the table, at most
    /// [`MAX_TAG_BITS`](crate::config::MAX_TAG_BITS)).
    pub tag: u16,
    /// Signed saturating prediction counter; sign is the direction.
    pub ctr: i8,
    /// Useful bit protecting the entry from replacement.
    pub useful: u8,
}

impl TageEntry {
    /// An invalid/empty slot: its tag matches no real tag.
    pub const EMPTY: TageEntry = TageEntry {
        tag: u16::MAX,
        ctr: 0,
        useful: 0,
    };

    /// Predicted direction (counter sign).
    #[inline]
    pub fn taken(&self) -> bool {
        self.ctr >= 0
    }

    /// A freshly allocated entry is "weak": `|2c+1| == 1`.
    #[inline]
    pub fn is_weak(&self) -> bool {
        self.ctr == 0 || self.ctr == -1
    }

    /// Counter saturated in either direction.
    #[inline]
    pub fn is_confident(&self) -> bool {
        self.ctr == 3 || self.ctr == -4
    }

    /// Saturating 3-bit counter update toward `taken`.
    #[inline]
    pub fn train(&mut self, taken: bool) {
        if taken {
            self.ctr = (self.ctr + 1).min(3);
        } else {
            self.ctr = (self.ctr - 1).max(-4);
        }
    }

    /// Resets to a weak prediction in direction `taken` (allocation state).
    #[inline]
    pub fn reset_weak(&mut self, taken: bool) {
        self.ctr = if taken { 0 } else { -1 };
    }
}

impl Default for TageEntry {
    fn default() -> Self {
        TageEntry::EMPTY
    }
}

/// Backing storage for one tagged table.
///
/// `Direct` is a real direct-mapped array (entries collide); `Infinite`
/// keys entries by `(index, tag, pc)` so no two static branches ever alias —
/// the idealized organization of the paper's footnote 3.
#[derive(Debug, Clone)]
pub enum TableStorage {
    /// Direct-mapped array.
    Direct(Vec<TageEntry>),
    /// Unbounded associativity, PC-tagged.
    Infinite(FastMap<(u32, u16, u64), TageEntry>),
}

/// One tagged table of the TAGE predictor.
#[derive(Debug, Clone)]
pub struct TaggedTable {
    storage: TableStorage,
    index_mask: u32,
    tag_bits: u32,
}

impl TaggedTable {
    /// Creates a table with `2^log2_entries` slots and `tag_bits`-wide tags.
    pub fn new(kind: TableStorageKind, log2_entries: u32, tag_bits: u32) -> Self {
        let storage = match kind {
            TableStorageKind::Direct => {
                TableStorage::Direct(vec![TageEntry::EMPTY; 1 << log2_entries])
            }
            TableStorageKind::Infinite => TableStorage::Infinite(FastMap::default()),
        };
        TaggedTable {
            storage,
            index_mask: (1 << log2_entries) - 1,
            tag_bits,
        }
    }

    /// Tag width of this table.
    pub fn tag_bits(&self) -> u32 {
        self.tag_bits
    }

    /// Index mask (`entries - 1`).
    pub fn index_mask(&self) -> u32 {
        self.index_mask
    }

    /// The entry at `(index, tag)` by value, or [`TageEntry::EMPTY`] on a
    /// miss; `pc` disambiguates in the infinite organization. The caller
    /// tests `entry.tag == tag` for the hit, so a probe never branches on
    /// the match.
    #[inline]
    pub fn probe(&self, index: u32, tag: u16, pc: u64) -> TageEntry {
        match &self.storage {
            TableStorage::Direct(v) => v[(index & self.index_mask) as usize],
            TableStorage::Infinite(m) => m
                .get(&(index & self.index_mask, tag, pc))
                .copied()
                .unwrap_or(TageEntry::EMPTY),
        }
    }

    /// The entry at `(index, tag)` for update; `pc` disambiguates in the
    /// infinite organization. Returns `None` on a tag mismatch.
    #[inline]
    pub fn lookup_mut(&mut self, index: u32, tag: u16, pc: u64) -> Option<&mut TageEntry> {
        match &mut self.storage {
            TableStorage::Direct(v) => {
                let e = &mut v[(index & self.index_mask) as usize];
                (e.tag == tag).then_some(e)
            }
            TableStorage::Infinite(m) => m.get_mut(&(index & self.index_mask, tag, pc)),
        }
    }

    /// Whether the slot at `index` may be allocated: empty or not-useful.
    ///
    /// Infinite tables can always allocate.
    #[inline]
    pub fn can_allocate(&self, index: u32) -> bool {
        match &self.storage {
            TableStorage::Direct(v) => v[(index & self.index_mask) as usize].useful == 0,
            TableStorage::Infinite(_) => true,
        }
    }

    /// Ages the victim at `index` by clearing one useful level (the
    /// "decrement u on failed allocation" rule). No-op for infinite tables.
    #[inline]
    pub fn age_victim(&mut self, index: u32) {
        if let TableStorage::Direct(v) = &mut self.storage {
            let e = &mut v[(index & self.index_mask) as usize];
            e.useful = e.useful.saturating_sub(1);
        }
    }

    /// Installs a weak entry for `(index, tag, pc)` in direction `taken`,
    /// evicting whatever was there (direct) or adding a new entry (infinite).
    #[inline]
    pub fn allocate(&mut self, index: u32, tag: u16, pc: u64, taken: bool) {
        let mut e = TageEntry {
            tag,
            ctr: 0,
            useful: 0,
        };
        e.reset_weak(taken);
        match &mut self.storage {
            TableStorage::Direct(v) => v[(index & self.index_mask) as usize] = e,
            TableStorage::Infinite(m) => {
                m.insert((index & self.index_mask, tag, pc), e);
            }
        }
    }

    /// Clears every useful bit (periodic graceful reset).
    pub fn reset_useful(&mut self) {
        match &mut self.storage {
            TableStorage::Direct(v) => {
                for e in v {
                    e.useful = 0;
                }
            }
            TableStorage::Infinite(m) => {
                for e in m.values_mut() {
                    e.useful = 0;
                }
            }
        }
    }

    /// Number of live entries (all slots for direct tables).
    pub fn population(&self) -> usize {
        match &self.storage {
            TableStorage::Direct(v) => v.iter().filter(|e| e.tag != TageEntry::EMPTY.tag).count(),
            TableStorage::Infinite(m) => m.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The matching entry, as the predictor's hit test sees it.
    fn hit(t: &TaggedTable, index: u32, tag: u16, pc: u64) -> Option<TageEntry> {
        let e = t.probe(index, tag, pc);
        (e.tag == tag).then_some(e)
    }

    #[test]
    fn entry_train_saturates() {
        let mut e = TageEntry {
            tag: 1,
            ctr: 0,
            useful: 0,
        };
        for _ in 0..10 {
            e.train(true);
        }
        assert_eq!(e.ctr, 3);
        assert!(e.taken());
        assert!(e.is_confident());
        for _ in 0..10 {
            e.train(false);
        }
        assert_eq!(e.ctr, -4);
        assert!(!e.taken());
    }

    #[test]
    fn weak_state_is_the_allocation_state() {
        let mut e = TageEntry::EMPTY;
        e.reset_weak(true);
        assert!(e.is_weak() && e.taken());
        e.reset_weak(false);
        assert!(e.is_weak() && !e.taken());
    }

    #[test]
    fn entries_pack_into_four_bytes() {
        assert_eq!(std::mem::size_of::<TageEntry>(), 4);
    }

    #[test]
    fn probe_returns_the_slot_or_an_empty_entry() {
        let mut direct = TaggedTable::new(TableStorageKind::Direct, 4, 8);
        let mut infinite = TaggedTable::new(TableStorageKind::Infinite, 4, 8);
        for t in [&mut direct, &mut infinite] {
            assert_eq!(t.probe(3, 0x5a, 0x1000), TageEntry::EMPTY);
            t.allocate(3, 0x5a, 0x1000, true);
            assert_eq!(t.probe(3, 0x5a, 0x1000).tag, 0x5a);
        }
        // A direct probe returns whatever occupies the slot; the caller's
        // tag compare decides the hit.
        assert_eq!(direct.probe(3, 0x5b, 0x1000).tag, 0x5a);
        assert_eq!(infinite.probe(3, 0x5b, 0x1000), TageEntry::EMPTY);
    }

    #[test]
    fn direct_table_matches_only_on_tag() {
        let mut t = TaggedTable::new(TableStorageKind::Direct, 4, 8);
        t.allocate(3, 0x5a, 0x1000, true);
        assert!(hit(&t, 3, 0x5a, 0x1000).is_some());
        assert!(hit(&t, 3, 0x5b, 0x1000).is_none());
        // PC is irrelevant for direct tables (that is the aliasing).
        assert!(hit(&t, 3, 0x5a, 0x9999).is_some());
    }

    #[test]
    fn direct_table_aliases_and_evicts() {
        let mut t = TaggedTable::new(TableStorageKind::Direct, 4, 8);
        t.allocate(3, 0x11, 0x1000, true);
        t.allocate(3, 0x22, 0x2000, false);
        assert!(
            hit(&t, 3, 0x11, 0x1000).is_none(),
            "first entry must be evicted"
        );
        assert!(hit(&t, 3, 0x22, 0x2000).is_some());
        // Index wraps by the mask.
        assert!(hit(&t, 3 + 16, 0x22, 0x2000).is_some());
    }

    #[test]
    fn infinite_table_never_aliases() {
        let mut t = TaggedTable::new(TableStorageKind::Infinite, 4, 8);
        t.allocate(3, 0x11, 0x1000, true);
        t.allocate(3, 0x11, 0x2000, false);
        assert!(hit(&t, 3, 0x11, 0x1000).unwrap().taken());
        assert!(!hit(&t, 3, 0x11, 0x2000).unwrap().taken());
        assert_eq!(t.population(), 2);
        assert!(t.can_allocate(3));
    }

    #[test]
    fn useful_bit_protects_and_ages() {
        let mut t = TaggedTable::new(TableStorageKind::Direct, 4, 8);
        t.allocate(7, 0x11, 0x1000, true);
        t.lookup_mut(7, 0x11, 0x1000).unwrap().useful = 1;
        assert!(!t.can_allocate(7));
        t.age_victim(7);
        assert!(t.can_allocate(7));
        t.reset_useful();
        assert_eq!(hit(&t, 7, 0x11, 0x1000).unwrap().useful, 0);
    }
}
