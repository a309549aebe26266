//! Tagged TAGE tables: direct-mapped (hardware) and infinite (idealized).

use crate::config::{TableStorageKind, NUM_TABLES};
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

/// The operations TAGE performs on its [`NUM_TABLES`] tagged tables, one
/// table `t` at a time. [`TaggedTables`] picks the organization once per
/// predict, update or allocation, and TAGE's loops over the tables are
/// generic over this trait, so each organization gets its own loop with no
/// per-table check.
pub trait TableStore {
    /// The entry at `(index, tag)` of table `t` by value, or
    /// [`TageEntry::EMPTY`] on a miss; `pc` disambiguates in the infinite
    /// organization. The caller tests `entry.tag == tag` for the hit, so a
    /// probe never branches on the match.
    fn probe(&self, t: usize, index: u32, tag: u16, pc: u64) -> TageEntry;

    /// The entry at `(index, tag)` of table `t` for update; `pc`
    /// disambiguates in the infinite organization. Returns `None` on a tag
    /// mismatch.
    fn entry_mut(&mut self, t: usize, index: u32, tag: u16, pc: u64) -> Option<&mut TageEntry>;

    /// Whether the slot at `index` of table `t` may be allocated: empty or
    /// not useful. Infinite tables can always allocate.
    fn can_allocate(&self, t: usize, index: u32) -> bool;

    /// Ages the victim at `index` of table `t` by clearing one useful level
    /// (the "decrement u on failed allocation" rule). No-op for infinite
    /// tables.
    fn age_victim(&mut self, t: usize, index: u32);

    /// Installs a weak entry for `(index, tag, pc)` in table `t` in
    /// direction `taken`, evicting whatever was there (direct) or adding a
    /// new entry (infinite).
    fn allocate(&mut self, t: usize, index: u32, tag: u16, pc: u64, taken: bool);

    /// Clears every useful bit of every table (periodic graceful reset).
    fn reset_useful(&mut self);

    /// Number of live entries across the tables.
    fn population(&self) -> usize;
}

/// A weak entry for `tag` in direction `taken`: the allocation state.
fn weak_entry(tag: u16, taken: bool) -> TageEntry {
    let mut e = TageEntry {
        tag,
        ctr: 0,
        useful: 0,
    };
    e.reset_weak(taken);
    e
}

/// Every direct-mapped table in one array: slot `index` of table `t` is
/// entry `(t << log2_entries) | (index & index_mask)`. Entries collide
/// within a table, never across tables.
#[derive(Debug, Clone)]
pub struct DirectTables {
    entries: Vec<TageEntry>,
    log2_entries: u32,
    index_mask: u32,
}

impl DirectTables {
    /// [`NUM_TABLES`] empty tables of `2^log2_entries` slots each.
    pub fn new(log2_entries: u32) -> Self {
        DirectTables {
            entries: vec![TageEntry::EMPTY; NUM_TABLES << log2_entries],
            log2_entries,
            index_mask: (1 << log2_entries) - 1,
        }
    }

    #[inline(always)]
    fn slot(&self, t: usize, index: u32) -> usize {
        (t << self.log2_entries) | (index & self.index_mask) as usize
    }
}

impl TableStore for DirectTables {
    #[inline(always)]
    fn probe(&self, t: usize, index: u32, _tag: u16, _pc: u64) -> TageEntry {
        self.entries[self.slot(t, index)]
    }

    #[inline(always)]
    fn entry_mut(&mut self, t: usize, index: u32, tag: u16, _pc: u64) -> Option<&mut TageEntry> {
        let slot = self.slot(t, index);
        let e = &mut self.entries[slot];
        (e.tag == tag).then_some(e)
    }

    #[inline(always)]
    fn can_allocate(&self, t: usize, index: u32) -> bool {
        self.entries[self.slot(t, index)].useful == 0
    }

    #[inline(always)]
    fn age_victim(&mut self, t: usize, index: u32) {
        let slot = self.slot(t, index);
        let e = &mut self.entries[slot];
        e.useful = e.useful.saturating_sub(1);
    }

    #[inline(always)]
    fn allocate(&mut self, t: usize, index: u32, tag: u16, _pc: u64, taken: bool) {
        let slot = self.slot(t, index);
        self.entries[slot] = weak_entry(tag, taken);
    }

    fn reset_useful(&mut self) {
        for e in &mut self.entries {
            e.useful = 0;
        }
    }

    fn population(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.tag != TageEntry::EMPTY.tag)
            .count()
    }
}

/// Unbounded associativity: one map per table, keyed by `(index, tag, pc)`,
/// so no two static branches ever alias — the idealized organization of
/// the paper's footnote 3.
#[derive(Debug, Clone)]
pub struct InfiniteTables {
    maps: Vec<FastMap<(u32, u16, u64), TageEntry>>,
    index_mask: u32,
}

impl InfiniteTables {
    /// [`NUM_TABLES`] empty maps whose keys keep `log2_entries` index bits.
    pub fn new(log2_entries: u32) -> Self {
        InfiniteTables {
            maps: vec![FastMap::default(); NUM_TABLES],
            index_mask: (1 << log2_entries) - 1,
        }
    }
}

impl TableStore for InfiniteTables {
    #[inline]
    fn probe(&self, t: usize, index: u32, tag: u16, pc: u64) -> TageEntry {
        self.maps[t]
            .get(&(index & self.index_mask, tag, pc))
            .copied()
            .unwrap_or(TageEntry::EMPTY)
    }

    #[inline]
    fn entry_mut(&mut self, t: usize, index: u32, tag: u16, pc: u64) -> Option<&mut TageEntry> {
        self.maps[t].get_mut(&(index & self.index_mask, tag, pc))
    }

    #[inline]
    fn can_allocate(&self, _t: usize, _index: u32) -> bool {
        true
    }

    #[inline]
    fn age_victim(&mut self, _t: usize, _index: u32) {}

    #[inline]
    fn allocate(&mut self, t: usize, index: u32, tag: u16, pc: u64, taken: bool) {
        self.maps[t].insert((index & self.index_mask, tag, pc), weak_entry(tag, taken));
    }

    fn reset_useful(&mut self) {
        for e in self.maps.iter_mut().flat_map(|m| m.values_mut()) {
            e.useful = 0;
        }
    }

    fn population(&self) -> usize {
        self.maps.iter().map(|m| m.len()).sum()
    }
}

/// TAGE's tagged tables in the organization its configuration names.
#[derive(Debug, Clone)]
pub enum TaggedTables {
    /// Direct-mapped arrays (real hardware).
    Direct(DirectTables),
    /// Unbounded associativity, PC-tagged.
    Infinite(InfiniteTables),
}

impl TaggedTables {
    /// [`NUM_TABLES`] empty tables of `kind` with `log2_entries` index bits.
    pub fn new(kind: TableStorageKind, log2_entries: u32) -> Self {
        match kind {
            TableStorageKind::Direct => TaggedTables::Direct(DirectTables::new(log2_entries)),
            TableStorageKind::Infinite => TaggedTables::Infinite(InfiniteTables::new(log2_entries)),
        }
    }

    /// Clears every useful bit (periodic graceful reset).
    pub fn reset_useful(&mut self) {
        match self {
            TaggedTables::Direct(s) => s.reset_useful(),
            TaggedTables::Infinite(s) => s.reset_useful(),
        }
    }

    /// Number of live entries across the tables.
    pub fn population(&self) -> usize {
        match self {
            TaggedTables::Direct(s) => s.population(),
            TaggedTables::Infinite(s) => s.population(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The matching entry of table `t`, as the predictor's hit test sees it.
    fn hit(s: &impl TableStore, t: usize, index: u32, tag: u16, pc: u64) -> Option<TageEntry> {
        let e = s.probe(t, index, tag, pc);
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

    /// Both organizations start empty and find what they allocate, in
    /// every table.
    fn probe_finds_allocations(s: &mut impl TableStore) {
        for t in [0, 7, NUM_TABLES - 1] {
            assert_eq!(s.probe(t, 3, 0x5a, 0x1000), TageEntry::EMPTY);
            s.allocate(t, 3, 0x5a, 0x1000, true);
            assert_eq!(s.probe(t, 3, 0x5a, 0x1000).tag, 0x5a);
            assert!(s.entry_mut(t, 3, 0x5a, 0x1000).is_some());
            assert!(s.entry_mut(t, 3, 0x5b, 0x1000).is_none());
        }
        assert_eq!(s.population(), 3);
    }

    #[test]
    fn probe_returns_the_slot_or_an_empty_entry() {
        let mut direct = DirectTables::new(4);
        let mut infinite = InfiniteTables::new(4);
        probe_finds_allocations(&mut direct);
        probe_finds_allocations(&mut infinite);
        // A direct probe returns whatever occupies the slot; the caller's
        // tag compare decides the hit.
        assert_eq!(direct.probe(0, 3, 0x5b, 0x1000).tag, 0x5a);
        assert_eq!(infinite.probe(0, 3, 0x5b, 0x1000), TageEntry::EMPTY);
    }

    #[test]
    fn direct_table_matches_only_on_tag() {
        let mut s = DirectTables::new(4);
        s.allocate(2, 3, 0x5a, 0x1000, true);
        assert!(hit(&s, 2, 3, 0x5a, 0x1000).is_some());
        assert!(hit(&s, 2, 3, 0x5b, 0x1000).is_none());
        // PC is irrelevant for direct tables (that is the aliasing).
        assert!(hit(&s, 2, 3, 0x5a, 0x9999).is_some());
    }

    /// A direct table evicts on a tag conflict and wraps its index, but
    /// aliases only within its own table of the flat array.
    #[test]
    fn direct_table_aliases_and_evicts() {
        let mut s = DirectTables::new(4);
        s.allocate(5, 3, 0x11, 0x1000, true);
        s.allocate(5, 3, 0x22, 0x2000, false);
        assert!(
            hit(&s, 5, 3, 0x11, 0x1000).is_none(),
            "first entry must be evicted"
        );
        assert!(hit(&s, 5, 3, 0x22, 0x2000).is_some());
        // The index wraps by the mask, within its own table.
        assert!(hit(&s, 5, 3 + 16, 0x22, 0x2000).is_some());
        for t in [4, 6] {
            assert!(hit(&s, t, 3, 0x22, 0x2000).is_none(), "table {t}");
            assert!(hit(&s, t, 3 + 16, 0x22, 0x2000).is_none(), "table {t}");
        }
        // The last slot of one table and the first of the next are apart.
        s.allocate(5, 15, 0x33, 0x3000, true);
        assert!(hit(&s, 6, 0, 0x33, 0x3000).is_none());
        assert!(hit(&s, NUM_TABLES - 1, 15, 0x33, 0x3000).is_none());
        s.allocate(NUM_TABLES - 1, 15, 0x44, 0x4000, true);
        assert!(hit(&s, NUM_TABLES - 1, 15, 0x44, 0x4000).is_some());
        assert_eq!(s.population(), 3);
    }

    #[test]
    fn infinite_table_never_aliases() {
        let mut s = InfiniteTables::new(4);
        s.allocate(3, 3, 0x11, 0x1000, true);
        s.allocate(3, 3, 0x11, 0x2000, false);
        assert!(hit(&s, 3, 3, 0x11, 0x1000).unwrap().taken());
        assert!(!hit(&s, 3, 3, 0x11, 0x2000).unwrap().taken());
        // The same key in another table is another entry.
        assert!(hit(&s, 4, 3, 0x11, 0x1000).is_none());
        assert_eq!(s.population(), 2);
        assert!(s.can_allocate(3, 3));
    }

    /// A useful entry refuses allocation until aged (direct) or never
    /// (infinite), and the reset clears it in every table.
    fn useful_bits_protect_age_and_reset(s: &mut impl TableStore, ages: bool) {
        for t in [1, NUM_TABLES - 1] {
            s.allocate(t, 7, 0x11, 0x1000, true);
            s.entry_mut(t, 7, 0x11, 0x1000).unwrap().useful = 1;
            assert_eq!(s.can_allocate(t, 7), !ages);
            s.age_victim(t, 7);
            assert!(s.can_allocate(t, 7));
            assert_eq!(hit(s, t, 7, 0x11, 0x1000).unwrap().useful, u8::from(!ages));
            s.entry_mut(t, 7, 0x11, 0x1000).unwrap().useful = 1;
        }
        s.reset_useful();
        for t in [1, NUM_TABLES - 1] {
            assert_eq!(hit(s, t, 7, 0x11, 0x1000).unwrap().useful, 0, "table {t}");
        }
        assert_eq!(s.population(), 2);
    }

    #[test]
    fn useful_bit_protects_and_ages() {
        useful_bits_protect_age_and_reset(&mut DirectTables::new(4), true);
        useful_bits_protect_age_and_reset(&mut InfiniteTables::new(4), false);
    }

    #[test]
    fn tagged_tables_follow_the_storage_kind() {
        let mut direct = TaggedTables::new(TableStorageKind::Direct, 4);
        let mut infinite = TaggedTables::new(TableStorageKind::Infinite, 4);
        assert!(matches!(direct, TaggedTables::Direct(_)));
        assert!(matches!(infinite, TaggedTables::Infinite(_)));
        for tables in [&mut direct, &mut infinite] {
            assert_eq!(tables.population(), 0);
            match tables {
                TaggedTables::Direct(s) => s.allocate(2, 1, 0x7, 0x40, true),
                TaggedTables::Infinite(s) => s.allocate(2, 1, 0x7, 0x40, true),
            }
            assert_eq!(tables.population(), 1);
            tables.reset_useful();
        }
    }
}
