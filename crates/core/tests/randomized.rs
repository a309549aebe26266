//! Randomized tests for LLBP's data structures: pattern sets, the pattern
//! buffer, the rolling context register, and the context tracking table.
//!
//! Property tests driven by the in-repo deterministic PRNG, so the
//! workspace needs no registry access.

use std::collections::VecDeque;

use telemetry::SplitMix64;

use llbpx::buffer::{PatternBuffer, PbLookup};
use llbpx::config::LengthSet;
use llbpx::rcr::{Rcr, MAX_DEPTH};
use llbpx::{ContextTrackingTable, PatternSet};

fn rand_length_set(rng: &mut SplitMix64) -> LengthSet {
    match rng.next_below(4) {
        0 => LengthSet::llbp_default(),
        1 => LengthSet::all_lengths(),
        2 => LengthSet::shallow_range(),
        _ => LengthSet::deep_range(),
    }
}

/// Finite pattern sets never exceed their capacity, whatever the allocation
/// sequence; bucketed sets also respect per-bucket caps.
#[test]
fn pattern_set_capacity_is_invariant() {
    let mut rng = SplitMix64::new(0x6361_7061);
    for _ in 0..32 {
        let allowed = rand_length_set(&mut rng);
        let capacity = 4 + rng.next_below(28) as usize;
        let slots: Vec<u8> = allowed.slots().to_vec();
        let mut set = PatternSet::new();
        for _ in 0..rng.next_below(200) {
            let tag = rng.next_u64() as u32;
            let len_idx = slots[rng.next_below(slots.len() as u64) as usize];
            set.allocate(tag, len_idx, rng.next_bool(0.5), Some(capacity), &allowed);
            assert!(set.len() <= capacity, "set grew past capacity");
            if allowed.bucketed() {
                let mut per_bucket = [0usize; 4];
                for p in set.patterns() {
                    per_bucket[allowed.bucket_of(p.len_idx)] += 1;
                }
                let cap = (capacity / 4).max(1);
                for (b, &n) in per_bucket.iter().enumerate() {
                    assert!(n <= cap, "bucket {b} holds {n} > {cap}");
                }
            }
        }
    }
}

/// A found match always corresponds to a stored pattern whose tag matches
/// the query and whose length is maximal among matches.
#[test]
fn find_longest_returns_the_longest_true_match() {
    let mut rng = SplitMix64::new(0x6c6f_6e67);
    for _ in 0..64 {
        let allowed = rand_length_set(&mut rng);
        let slots: Vec<u8> = allowed.slots().to_vec();
        let mut set = PatternSet::new();
        for _ in 0..1 + rng.next_below(60) {
            let tag = (rng.next_u64() as u32) & 0x1fff;
            let len_idx = slots[rng.next_below(slots.len() as u64) as usize];
            set.allocate(tag, len_idx, rng.next_bool(0.5), None, &allowed);
        }
        let query: Vec<u32> = (0..tage::NUM_TABLES)
            .map(|_| (rng.next_u64() as u32) & 0x1fff)
            .collect();
        match set.find_longest(&query, &allowed) {
            Some(m) => {
                let p = set.patterns()[m.slot];
                assert_eq!(p.len_idx, m.len_idx);
                assert_eq!(p.tag, query[p.len_idx as usize]);
                for other in set.patterns() {
                    if allowed.contains(other.len_idx) && other.tag == query[other.len_idx as usize]
                    {
                        assert!(other.len_idx <= m.len_idx, "missed a longer match");
                    }
                }
            }
            None => {
                for p in set.patterns() {
                    assert!(
                        !allowed.contains(p.len_idx) || p.tag != query[p.len_idx as usize],
                        "a match existed but was not found"
                    );
                }
            }
        }
    }
}

/// Infinite sets deduplicate: allocating the same (tag, len) twice never
/// creates a second entry.
#[test]
fn infinite_sets_deduplicate() {
    let mut rng = SplitMix64::new(0x6465_6475);
    for _ in 0..64 {
        let allowed = LengthSet::all_lengths();
        let mut set = PatternSet::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..rng.next_below(100) {
            // A small tag space forces collisions.
            let tag = rng.next_below(24) as u32;
            let len_idx = rng.next_below(21) as u8;
            set.allocate(tag, len_idx, rng.next_bool(0.5), None, &allowed);
            seen.insert((tag, len_idx));
        }
        assert_eq!(set.len(), seen.len());
    }
}

/// The RCR context ID is a pure function of the last W pushes.
#[test]
fn rcr_depends_only_on_window() {
    let mut rng = SplitMix64::new(0x7263_7277);
    for _ in 0..64 {
        let prefix_a: Vec<u64> = (0..rng.next_below(60)).map(|_| rng.next_u64()).collect();
        let prefix_b: Vec<u64> = (0..rng.next_below(60)).map(|_| rng.next_u64()).collect();
        let window: Vec<u64> = (0..1 + rng.next_below(63))
            .map(|_| rng.next_u64())
            .collect();
        let w = window.len();
        let build = |prefix: &[u64]| {
            let mut r = Rcr::new();
            for &pc in prefix.iter().chain(window.iter()) {
                r.push(pc);
            }
            r.context_id(w)
        };
        assert_eq!(build(&prefix_a), build(&prefix_b));
    }
}

/// Distinct windows essentially never collide (64-bit hash).
#[test]
fn rcr_distinguishes_windows() {
    let mut rng = SplitMix64::new(0x7263_7264);
    for _ in 0..64 {
        let len = 2 + rng.next_below(14) as usize;
        let a: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
        let b: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
        if a == b {
            continue;
        }
        let id = |pcs: &[u64]| {
            let mut r = Rcr::new();
            for &pc in pcs {
                r.push(pc);
            }
            r.context_id(pcs.len())
        };
        assert_ne!(id(&a), id(&b));
    }
}

/// CTT depth bit obeys the saturating-counter contract: it can only be deep
/// after at least `saturation` net-long observations, and reverts only
/// after decaying to zero.
#[test]
fn ctt_depth_follows_counter_semantics() {
    let mut rng = SplitMix64::new(0x6374_7463);
    for _ in 0..64 {
        let saturation = 2 + rng.next_below(6) as u8;
        let mut ctt = ContextTrackingTable::new(2, 2, 8, saturation);
        ctt.begin_tracking(0x42);
        let mut counter: i32 = 0;
        let mut deep = false;
        for _ in 0..rng.next_below(300) {
            let long = rng.next_bool(0.5);
            let got = ctt.observe_allocation(0x42, long);
            if long {
                counter = (counter + 1).min(i32::from(saturation));
                if counter == i32::from(saturation) {
                    deep = true;
                }
            } else {
                counter = (counter - 1).max(0);
                if counter == 0 {
                    deep = false;
                }
            }
            assert_eq!(got, deep, "model and hardware disagree");
        }
    }
}

/// The pattern buffer as it was before its residency index: every access
/// finds its entry by a linear scan. It keeps only the bookkeeping an
/// eviction reports, not the pattern sets.
struct ScanBuffer {
    entries: Vec<ScanEntry>,
    capacity: usize,
    clock: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ScanEntry {
    cid: u64,
    arrival: u64,
    dirty: bool,
    used: bool,
    late: bool,
    prefetched: bool,
    lru: u64,
}

/// What both buffers report for an evicted entry.
type Eviction = (u64, bool, bool, bool, bool);

impl ScanBuffer {
    fn new(capacity: usize) -> Self {
        ScanBuffer {
            entries: Vec::new(),
            capacity,
            clock: 0,
        }
    }

    fn position(&self, cid: u64) -> Option<usize> {
        self.entries.iter().position(|e| e.cid == cid)
    }

    fn lookup(&mut self, cid: u64, now: u64) -> PbLookup {
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

    fn touch(&mut self, cid: u64) -> bool {
        let resident = self.position(cid).is_some();
        self.clock += 1;
        if let Some(i) = self.position(cid) {
            self.entries[i].lru = self.clock;
        }
        resident
    }

    fn insert(&mut self, cid: u64, arrival: u64, prefetched: bool) -> Option<Eviction> {
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
                .expect("a full buffer is non-empty");
            evicted = Some(self.take(lru));
        }
        self.entries.push(ScanEntry {
            cid,
            arrival,
            dirty: false,
            used: false,
            late: false,
            prefetched,
            lru: self.clock,
        });
        evicted
    }

    fn take(&mut self, i: usize) -> Eviction {
        let e = self.entries.swap_remove(i);
        (e.cid, e.dirty, !e.used, e.late, e.prefetched)
    }

    fn flush_inflight(&mut self, now: u64) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.arrival <= now);
        before - self.entries.len()
    }

    fn drain(&mut self) -> Vec<Eviction> {
        let mut out = Vec::new();
        while !self.entries.is_empty() {
            out.push(self.take(0));
        }
        out
    }
}

fn eviction(ev: llbpx::buffer::Evicted) -> Eviction {
    (ev.cid, ev.dirty, ev.unused, ev.late, ev.prefetched)
}

/// The indexed pattern buffer behaves exactly like the linear-scan one
/// under seeded sequences of every operation: the same lookup results
/// (entry positions included), the same evictions in the same order, and
/// so the same LRU victims. Context IDs come from a pool a little larger
/// than the buffer, so hits, misses, replacements and LRU evictions all
/// happen often.
#[test]
fn indexed_pattern_buffer_matches_linear_scan() {
    let mut rng = SplitMix64::new(0x7062_7566);
    for round in 0..24 {
        let capacity = 1 + rng.next_below(64) as usize;
        let pool = capacity as u64 + 1 + rng.next_below(2 * capacity as u64);
        let mut pb = PatternBuffer::new(capacity);
        let mut scan = ScanBuffer::new(capacity);
        let mut now = 0u64;
        for step in 0..4000 {
            now += rng.next_below(3);
            let cid = 0x100 + rng.next_below(pool) * 0x9e37;
            let ctx = format!("round {round} step {step} cid {cid:#x}");
            match rng.next_below(100) {
                0..=39 => {
                    let got = pb.lookup(cid, now);
                    let want = scan.lookup(cid, now);
                    if let PbLookup::Ready(i) = got {
                        // Mark the entry the way a matched prediction does.
                        if rng.next_bool(0.5) {
                            pb.entry_mut(i).used = true;
                            scan.entries[i].used = true;
                        }
                        if rng.next_bool(0.3) {
                            pb.entry_mut(i).dirty = true;
                            scan.entries[i].dirty = true;
                        }
                        assert_eq!(pb.entry(i).cid, cid, "{ctx}");
                    }
                    assert_eq!(got, want, "{ctx}: lookup");
                }
                40..=59 => assert_eq!(pb.touch(cid), scan.touch(cid), "{ctx}: touch"),
                60..=94 => {
                    let arrival = now + rng.next_below(8);
                    let prefetched = rng.next_bool(0.7);
                    let got = pb
                        .insert(cid, PatternSet::new(), arrival, prefetched)
                        .map(eviction);
                    assert_eq!(got, scan.insert(cid, arrival, prefetched), "{ctx}: insert");
                }
                95..=98 => {
                    assert_eq!(
                        pb.flush_inflight(now),
                        scan.flush_inflight(now),
                        "{ctx}: flush"
                    );
                }
                _ => {
                    let got: Vec<Eviction> = pb.drain().into_iter().map(eviction).collect();
                    assert_eq!(got, scan.drain(), "{ctx}: drain");
                }
            }
            assert_eq!(pb.len(), scan.entries.len(), "{ctx}: occupancy");
            assert_eq!(
                pb.contains(cid),
                scan.position(cid).is_some(),
                "{ctx}: residency"
            );
        }
        let got: Vec<Eviction> = pb.drain().into_iter().map(eviction).collect();
        assert_eq!(got, scan.drain(), "round {round}: final drain");
    }
}

/// The context ID over a `VecDeque` window, as the register computed it
/// before its window became a fixed ring.
fn deque_context_id(window: &VecDeque<u64>, w: usize) -> u64 {
    let mut acc = 0x1234_5678_9abc_def0u64 ^ (w as u64);
    let n = window.len();
    for i in 0..w {
        let pc = if i < n { window[n - 1 - i] } else { 0 };
        acc = splitmix(acc ^ pc.rotate_left((i % 61) as u32));
    }
    acc
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The ring-buffer register hashes the same IDs as a `VecDeque` window at
/// every depth the designs use, from the first push (while the window is
/// still filling) through many wraps of the ring.
#[test]
fn rcr_ring_matches_deque_reference() {
    let mut rng = SplitMix64::new(0x7269_6e67);
    for _ in 0..8 {
        let mut rcr = Rcr::new();
        let mut window = VecDeque::new();
        for depth in [1, 2, 8, 64, 128] {
            assert_eq!(
                rcr.context_id(depth),
                deque_context_id(&window, depth),
                "cold, w={depth}"
            );
        }
        for push in 0..3 * MAX_DEPTH as u64 + rng.next_below(200) {
            // A small PC pool makes repeated windows likely, a zero PC
            // checks that pushed zeros and unwritten slots agree.
            let pc = match rng.next_below(8) {
                0 => 0,
                _ => 0x1000 + rng.next_below(64) * 4,
            };
            rcr.push(pc);
            if window.len() == MAX_DEPTH {
                window.pop_front();
            }
            window.push_back(pc);
            for depth in [1, 2, 8, 64, 128] {
                assert_eq!(
                    rcr.context_id(depth),
                    deque_context_id(&window, depth),
                    "push {push}, w={depth}"
                );
            }
        }
    }
}
