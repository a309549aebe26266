//! Pattern buffer (PB): the small in-core structure predictions are served
//! from (§II-C.3), with the prefetch-timing model.
//!
//! Prefetched pattern sets *arrive* after the modelled store latency; a
//! lookup before arrival is a miss and marks the entry late (Fig. 14a's
//! taxonomy). Dirty sets are written back to the store on eviction.

use tage::FastMap;

use crate::pattern_set::PatternSet;

/// One PB entry.
#[derive(Debug, Clone)]
pub struct PbEntry {
    /// Context ID the set belongs to.
    pub cid: u64,
    /// The cached pattern set (working copy).
    pub set: PatternSet,
    /// Clock tick at which the fill completes.
    pub arrival: u64,
    /// Modified since the fill (needs writeback).
    pub dirty: bool,
    /// Served at least one matched prediction.
    pub used: bool,
    /// A lookup wanted this set before it arrived.
    pub late: bool,
    /// Filled from the store by a prefetch (vs created fresh / demand).
    pub prefetched: bool,
    lru: u64,
}

/// What became of an evicted entry — the caller writes back and accounts.
#[derive(Debug, Clone)]
pub struct Evicted {
    /// Context ID of the evicted set.
    pub cid: u64,
    /// The set contents (write back if `dirty`).
    pub set: PatternSet,
    /// Needs writeback.
    pub dirty: bool,
    /// Never served a matched prediction.
    pub unused: bool,
    /// Was requested before arrival at least once.
    pub late: bool,
    /// Came from a prefetch fill.
    pub prefetched: bool,
}

/// Result of a PB lookup.
#[derive(Debug, PartialEq, Eq)]
pub enum PbLookup {
    /// Entry present and arrived: index for subsequent access.
    Ready(usize),
    /// Entry present but the fill has not completed.
    Inflight,
    /// No entry for this context.
    Miss,
}

/// The pattern buffer.
///
/// Entries live in a dense vector (eviction order and LRU scans depend on
/// it); a residency index maps each resident context ID to its position,
/// so the per-branch lookups cost one hash probe instead of a scan.
#[derive(Debug, Clone)]
pub struct PatternBuffer {
    entries: Vec<PbEntry>,
    /// Context ID → position in `entries`, for every resident entry.
    index: FastMap<u64, usize>,
    capacity: usize,
    clock: u64,
}

impl PatternBuffer {
    /// A buffer of `capacity` pattern sets.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "pattern buffer needs capacity");
        let mut index = FastMap::default();
        index.reserve(capacity);
        PatternBuffer {
            entries: Vec::with_capacity(capacity),
            index,
            capacity,
            clock: 0,
        }
    }

    #[inline]
    fn position(&self, cid: u64) -> Option<usize> {
        self.index.get(&cid).copied()
    }

    /// Whether a (possibly in-flight) entry exists for `cid`.
    pub fn contains(&self, cid: u64) -> bool {
        self.position(cid).is_some()
    }

    /// Looks up `cid` at time `now`; marks late entries.
    pub fn lookup(&mut self, cid: u64, now: u64) -> PbLookup {
        self.clock += 1;
        match self.position(cid) {
            Some(i) => {
                self.entries[i].lru = self.clock;
                if self.entries[i].arrival <= now {
                    PbLookup::Ready(i)
                } else {
                    self.entries[i].late = true;
                    PbLookup::Inflight
                }
            }
            None => PbLookup::Miss,
        }
    }

    /// Direct access to entry `i` (from a [`PbLookup::Ready`]).
    pub fn entry_mut(&mut self, i: usize) -> &mut PbEntry {
        &mut self.entries[i]
    }

    /// Read-only access to entry `i`.
    pub fn entry(&self, i: usize) -> &PbEntry {
        &self.entries[i]
    }

    /// Touches `cid`'s LRU state if it is resident (a prefetch that found
    /// the set buffered) and reports whether it was.
    pub fn touch(&mut self, cid: u64) -> bool {
        let Some(i) = self.position(cid) else {
            return false;
        };
        self.clock += 1;
        self.entries[i].lru = self.clock;
        true
    }

    /// Inserts a set for `cid` arriving at `arrival`; evicts LRU if full.
    ///
    /// Replacing an existing entry for the same `cid` returns it as evicted
    /// (the caller decides on writeback).
    pub fn insert(
        &mut self,
        cid: u64,
        set: PatternSet,
        arrival: u64,
        prefetched: bool,
    ) -> Option<Evicted> {
        self.clock += 1;
        let mut evicted = None;
        if let Some(i) = self.position(cid) {
            evicted = Some(self.take(i));
        } else if self.entries.len() >= self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.lru)
                .map(|(i, _)| i)
                .unwrap_or_else(|| unreachable!("buffer is full, so non-empty"));
            evicted = Some(self.take(lru));
        }
        self.index.insert(cid, self.entries.len());
        self.entries.push(PbEntry {
            cid,
            set,
            arrival,
            dirty: false,
            used: false,
            late: false,
            prefetched,
            lru: self.clock,
        });
        evicted
    }

    fn take(&mut self, i: usize) -> Evicted {
        let e = self.entries.swap_remove(i);
        self.index.remove(&e.cid);
        if let Some(moved) = self.entries.get(i) {
            self.index.insert(moved.cid, i);
        }
        Evicted {
            cid: e.cid,
            set: e.set,
            dirty: e.dirty,
            unused: !e.used,
            late: e.late,
            prefetched: e.prefetched,
        }
    }

    /// Drops all entries that have not yet arrived at `now` (the Fig. 14a
    /// "flush false-path prefetches" mode). Returns how many were dropped.
    pub fn flush_inflight(&mut self, now: u64) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.arrival <= now);
        let dropped = before - self.entries.len();
        if dropped > 0 {
            self.index.clear();
            self.index
                .extend(self.entries.iter().enumerate().map(|(i, e)| (e.cid, i)));
        }
        dropped
    }

    /// Drains every entry (end of run), returning them for writeback.
    pub fn drain(&mut self) -> Vec<Evicted> {
        let mut out = Vec::with_capacity(self.entries.len());
        while !self.entries.is_empty() {
            out.push(self.take(0));
        }
        out
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LengthSet;

    fn set1() -> PatternSet {
        let mut s = PatternSet::new();
        s.allocate(1, 0, true, None, &LengthSet::all_lengths());
        s
    }

    #[test]
    fn lookup_respects_arrival_time() {
        let mut pb = PatternBuffer::new(4);
        pb.insert(7, set1(), 10, true);
        assert_eq!(pb.lookup(7, 5), PbLookup::Inflight);
        assert!(matches!(pb.lookup(7, 10), PbLookup::Ready(_)));
        assert_eq!(pb.lookup(99, 10), PbLookup::Miss);
    }

    #[test]
    fn early_lookup_marks_late() {
        let mut pb = PatternBuffer::new(4);
        pb.insert(7, set1(), 10, true);
        let _ = pb.lookup(7, 3);
        let PbLookup::Ready(i) = pb.lookup(7, 20) else {
            panic!("should be ready")
        };
        assert!(pb.entry(i).late);
    }

    #[test]
    fn lru_eviction_on_overflow() {
        let mut pb = PatternBuffer::new(2);
        pb.insert(1, set1(), 0, true);
        pb.insert(2, set1(), 0, true);
        let _ = pb.lookup(1, 0); // 2 becomes LRU
        let evicted = pb.insert(3, set1(), 0, true).expect("full buffer evicts");
        assert_eq!(evicted.cid, 2);
        assert!(pb.contains(1) && pb.contains(3) && !pb.contains(2));
    }

    #[test]
    fn eviction_reports_use_and_dirt() {
        let mut pb = PatternBuffer::new(1);
        pb.insert(1, set1(), 0, true);
        if let PbLookup::Ready(i) = pb.lookup(1, 0) {
            pb.entry_mut(i).used = true;
            pb.entry_mut(i).dirty = true;
        }
        let ev = pb.insert(2, set1(), 0, false).unwrap();
        assert_eq!(ev.cid, 1);
        assert!(ev.dirty && !ev.unused && ev.prefetched);
    }

    #[test]
    fn reinsert_same_cid_replaces_entry() {
        let mut pb = PatternBuffer::new(4);
        pb.insert(1, set1(), 0, true);
        let ev = pb
            .insert(1, set1(), 5, false)
            .expect("same-cid insert evicts old");
        assert_eq!(ev.cid, 1);
        assert_eq!(pb.len(), 1);
    }

    #[test]
    fn flush_inflight_drops_only_unarrived() {
        let mut pb = PatternBuffer::new(4);
        pb.insert(1, set1(), 0, true);
        pb.insert(2, set1(), 100, true);
        pb.insert(3, set1(), 200, true);
        assert_eq!(pb.flush_inflight(50), 2);
        assert!(pb.contains(1) && !pb.contains(2) && !pb.contains(3));
    }

    #[test]
    fn drain_returns_everything() {
        let mut pb = PatternBuffer::new(4);
        pb.insert(1, set1(), 0, true);
        pb.insert(2, set1(), 0, false);
        let drained = pb.drain();
        assert_eq!(drained.len(), 2);
        assert!(pb.is_empty());
    }
}
