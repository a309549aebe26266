//! Randomized tests for LLBP's data structures: pattern sets, the rolling
//! context register, and the context tracking table.
//!
//! Property tests driven by the in-repo deterministic PRNG, so the
//! workspace needs no registry access.

use telemetry::SplitMix64;

use llbpx::config::LengthSet;
use llbpx::rcr::Rcr;
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
        let query: Vec<u32> =
            (0..tage::NUM_TABLES).map(|_| (rng.next_u64() as u32) & 0x1fff).collect();
        match set.find_longest(&query, &allowed) {
            Some(m) => {
                let p = set.patterns()[m.slot];
                assert_eq!(p.len_idx, m.len_idx);
                assert_eq!(p.tag, query[p.len_idx as usize]);
                for other in set.patterns() {
                    if allowed.contains(other.len_idx)
                        && other.tag == query[other.len_idx as usize]
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
        let window: Vec<u64> = (0..1 + rng.next_below(63)).map(|_| rng.next_u64()).collect();
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
