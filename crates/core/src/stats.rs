//! Statistics collected by the hierarchical predictors.
//!
//! Plain counters are always on (they cost nothing); the per-context /
//! per-pattern maps behind [`AnalysisStats`] power the paper's analysis
//! figures (6-9) and are enabled via [`crate::LlbpConfig::with_analysis`].

use std::collections::HashMap;

use tage::NUM_TABLES;

/// Always-on counters of one LLBP/LLBP-X run.
#[derive(Debug, Clone, Default)]
pub struct LlbpStats {
    /// Conditional branches predicted.
    pub cond_branches: u64,
    /// Final (combined) mispredictions.
    pub mispredicts: u64,
    /// Conditional branches where LLBP provided (same-or-longer match).
    pub llbp_provided: u64,
    /// LLBP provided, was correct, and the standalone baseline TSL would
    /// have mispredicted — the paper's "useful" predictions.
    pub llbp_useful: u64,
    /// LLBP provided and was wrong while the baseline would have been right.
    pub llbp_harmful: u64,

    /// Pattern-set reads from the pattern store (prefetch fills + demand).
    pub ps_reads: u64,
    /// Pattern-set writebacks to the pattern store.
    pub ps_writes: u64,
    /// Pattern-buffer lookups (one per conditional branch).
    pub pb_accesses: u64,
    /// Context-directory accesses (one per unconditional branch).
    pub cd_accesses: u64,
    /// CTT accesses (one per unconditional branch, LLBP-X only).
    pub ctt_accesses: u64,

    /// Prefetches issued (CD hits that started a PB fill).
    pub prefetches_issued: u64,
    /// Prefetched sets that were used and had arrived in time.
    pub prefetch_on_time: u64,
    /// Prefetched sets first requested before their arrival.
    pub prefetch_late: u64,
    /// Prefetched sets evicted without ever matching a prediction.
    pub prefetch_unused: u64,
    /// Pattern sets fetched on demand at update time (PB miss).
    pub demand_fetches: u64,

    /// Pattern allocations performed.
    pub allocations: u64,
    /// Allocations dropped because the length fell outside the active
    /// history range (LLBP-X §V-C).
    pub alloc_dropped_range: u64,
    /// Fresh pattern sets created (first allocation in a context).
    pub sets_created: u64,
    /// Depth transitions signalled by the CTT (LLBP-X).
    pub depth_transitions: u64,
    /// Allocation attempts per needed history length (diagnostics; the
    /// "needed" length is the shortest exceeding the mispredicting
    /// provider, before range filtering).
    pub alloc_len_histogram: [u64; NUM_TABLES],

    /// Optional heavyweight analysis collections.
    pub analysis: Option<AnalysisStats>,
}

/// Reads one scalar counter.
type Get = fn(&LlbpStats) -> u64;
/// Writes one scalar counter.
type GetMut = fn(&mut LlbpStats) -> &mut u64;

/// The scalar counters, name → field, in declaration order: the one list
/// [`LlbpStats::counters`], [`LlbpStats::delta_since`] and
/// [`LlbpStats::from_counters`] read.
const COUNTERS: [(&str, Get, GetMut); 19] = [
    (
        "cond_branches",
        |s| s.cond_branches,
        |s| &mut s.cond_branches,
    ),
    ("mispredicts", |s| s.mispredicts, |s| &mut s.mispredicts),
    (
        "llbp_provided",
        |s| s.llbp_provided,
        |s| &mut s.llbp_provided,
    ),
    ("llbp_useful", |s| s.llbp_useful, |s| &mut s.llbp_useful),
    ("llbp_harmful", |s| s.llbp_harmful, |s| &mut s.llbp_harmful),
    ("ps_reads", |s| s.ps_reads, |s| &mut s.ps_reads),
    ("ps_writes", |s| s.ps_writes, |s| &mut s.ps_writes),
    ("pb_accesses", |s| s.pb_accesses, |s| &mut s.pb_accesses),
    ("cd_accesses", |s| s.cd_accesses, |s| &mut s.cd_accesses),
    ("ctt_accesses", |s| s.ctt_accesses, |s| &mut s.ctt_accesses),
    (
        "prefetches_issued",
        |s| s.prefetches_issued,
        |s| &mut s.prefetches_issued,
    ),
    (
        "prefetch_on_time",
        |s| s.prefetch_on_time,
        |s| &mut s.prefetch_on_time,
    ),
    (
        "prefetch_late",
        |s| s.prefetch_late,
        |s| &mut s.prefetch_late,
    ),
    (
        "prefetch_unused",
        |s| s.prefetch_unused,
        |s| &mut s.prefetch_unused,
    ),
    (
        "demand_fetches",
        |s| s.demand_fetches,
        |s| &mut s.demand_fetches,
    ),
    ("allocations", |s| s.allocations, |s| &mut s.allocations),
    (
        "alloc_dropped_range",
        |s| s.alloc_dropped_range,
        |s| &mut s.alloc_dropped_range,
    ),
    ("sets_created", |s| s.sets_created, |s| &mut s.sets_created),
    (
        "depth_transitions",
        |s| s.depth_transitions,
        |s| &mut s.depth_transitions,
    ),
];

impl LlbpStats {
    /// Mispredictions per kilo-instruction given the measured instructions.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.mispredicts as f64 * 1000.0 / instructions as f64
        }
    }

    /// Counter-wise difference `self - earlier`, for isolating a
    /// measurement phase from its warmup. Histogram entries subtract
    /// element-wise; the analysis maps (cumulative by nature) are taken
    /// from `self`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `earlier` is not a prefix state of `self`
    /// (any counter would underflow).
    pub fn delta_since(&self, earlier: &LlbpStats) -> LlbpStats {
        let mut delta = LlbpStats {
            analysis: self.analysis.clone(),
            ..LlbpStats::default()
        };
        for (i, slot) in delta.alloc_len_histogram.iter_mut().enumerate() {
            *slot = self.alloc_len_histogram[i] - earlier.alloc_len_histogram[i];
        }
        for (_, get, get_mut) in COUNTERS {
            *get_mut(&mut delta) = get(self) - get(earlier);
        }
        delta
    }

    /// The scalar counters as `(name, value)` pairs in declaration order,
    /// for structured (JSON) emission. The histogram and analysis maps are
    /// exported separately.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        COUNTERS
            .iter()
            .map(|&(name, get, _)| (name, get(self)))
            .collect()
    }

    /// The inverse of [`counters`](Self::counters): every scalar counter
    /// read by name through `value`, or `None` when any is missing. The
    /// histogram and analysis maps stay empty.
    pub fn from_counters(mut value: impl FnMut(&str) -> Option<u64>) -> Option<LlbpStats> {
        let mut stats = LlbpStats::default();
        for (name, _, get_mut) in COUNTERS {
            *get_mut(&mut stats) = value(name)?;
        }
        Some(stats)
    }

    /// Cross-counter invariants that hold for any cumulative counter state.
    /// (A [`delta_since`](Self::delta_since) phase slice can legitimately
    /// break the prefetch one: a prefetch issued in warmup may be classified
    /// during measurement.) Returns every violated invariant as a
    /// human-readable description; an empty vector means the state is
    /// consistent.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let mut require = |ok: bool, desc: &str| {
            if !ok {
                violations.push(desc.to_string());
            }
        };
        require(
            self.mispredicts <= self.cond_branches,
            "mispredicts <= cond_branches",
        );
        require(
            self.llbp_provided <= self.cond_branches,
            "llbp_provided <= cond_branches",
        );
        require(
            self.llbp_useful + self.llbp_harmful <= self.llbp_provided,
            "llbp_useful + llbp_harmful <= llbp_provided",
        );
        require(
            self.prefetch_on_time + self.prefetch_late + self.prefetch_unused
                <= self.prefetches_issued,
            "prefetch_on_time + prefetch_late + prefetch_unused <= prefetches_issued",
        );
        require(
            self.ps_reads == self.prefetches_issued + self.demand_fetches,
            "ps_reads == prefetches_issued + demand_fetches",
        );
        require(
            self.pb_accesses == self.cond_branches,
            "pb_accesses == cond_branches",
        );
        require(
            self.ctt_accesses <= self.cd_accesses,
            "ctt_accesses <= cd_accesses",
        );
        let attempts: u64 = self.alloc_len_histogram.iter().sum();
        require(
            self.allocations + self.alloc_dropped_range <= attempts,
            "allocations + alloc_dropped_range <= sum(alloc_len_histogram)",
        );
        violations
    }

    /// Asserts [`check_invariants`](Self::check_invariants) in debug builds;
    /// a no-op in release builds so measurement runs pay nothing.
    ///
    /// # Panics
    ///
    /// Panics (debug builds only) listing every violated invariant.
    #[track_caller]
    pub fn validate(&self) {
        if cfg!(debug_assertions) {
            let violations = self.check_invariants();
            assert!(
                violations.is_empty(),
                "LlbpStats invariants violated: {}",
                violations.join("; ")
            );
        }
    }

    /// Bits moved between pattern store and buffer per instruction
    /// (288-bit transactions, Fig. 15a).
    pub fn transfer_bits_per_instruction(&self, instructions: u64) -> (f64, f64) {
        if instructions == 0 {
            return (0.0, 0.0);
        }
        let reads = (self.ps_reads * 288) as f64 / instructions as f64;
        let writes = (self.ps_writes * 288) as f64 / instructions as f64;
        (reads, writes)
    }
}

/// Identity of a pattern across contexts: the branch PC it predicts, the
/// history length it was hashed with, and its tag. Two contexts holding the
/// same `PatternKey` hold *duplicates* (§III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatternKey {
    /// Branch PC.
    pub pc: u64,
    /// History-length index.
    pub len_idx: u8,
    /// Pattern tag.
    pub tag: u32,
}

/// Heavyweight per-context and per-pattern records for the analysis figures.
#[derive(Debug, Clone, Default)]
pub struct AnalysisStats {
    /// Useful-prediction events per context per pattern.
    pub useful_by_context: HashMap<u64, HashMap<PatternKey, u64>>,
    /// Dynamic useful predictions per history length (Fig. 9).
    pub useful_by_len: [u64; NUM_TABLES],
    /// For each useful pattern, the contexts that held a copy (Fig. 8).
    pub pattern_contexts: HashMap<PatternKey, std::collections::HashSet<u64>>,
}

impl AnalysisStats {
    /// Records one useful prediction by `key` in context `cid`.
    pub fn record_useful(&mut self, cid: u64, key: PatternKey) {
        *self
            .useful_by_context
            .entry(cid)
            .or_default()
            .entry(key)
            .or_insert(0) += 1;
        self.useful_by_len[key.len_idx as usize] += 1;
        self.pattern_contexts.entry(key).or_default().insert(cid);
    }

    /// Distinct useful patterns per context, sorted descending (Fig. 6).
    pub fn useful_patterns_per_context(&self) -> Vec<(u64, usize)> {
        let mut v: Vec<(u64, usize)> = self
            .useful_by_context
            .iter()
            .map(|(&cid, pats)| (cid, pats.len()))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Average history length (bits) of a context's useful patterns
    /// (Fig. 7). Returns `None` for unknown contexts.
    pub fn avg_history_len(&self, cid: u64) -> Option<f64> {
        let pats = self.useful_by_context.get(&cid)?;
        if pats.is_empty() {
            return None;
        }
        let total: usize = pats
            .keys()
            .map(|k| tage::HISTORY_LENGTHS[k.len_idx as usize])
            .sum();
        Some(total as f64 / pats.len() as f64)
    }

    /// Duplication per history length (Fig. 8): `(total copies, unique)`
    /// of useful patterns with that length.
    pub fn duplication_by_len(&self) -> [(u64, u64); NUM_TABLES] {
        let mut out = [(0u64, 0u64); NUM_TABLES];
        for (key, ctxs) in &self.pattern_contexts {
            let slot = &mut out[key.len_idx as usize];
            slot.0 += ctxs.len() as u64;
            slot.1 += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(pc: u64, len_idx: u8, tag: u32) -> PatternKey {
        PatternKey { pc, len_idx, tag }
    }

    #[test]
    fn mpki_is_per_kilo_instruction() {
        let stats = LlbpStats {
            mispredicts: 50,
            ..LlbpStats::default()
        };
        assert!((stats.mpki(10_000) - 5.0).abs() < 1e-12);
        assert_eq!(stats.mpki(0), 0.0);
    }

    #[test]
    fn transfer_bandwidth_uses_288_bit_transactions() {
        let stats = LlbpStats {
            ps_reads: 100,
            ps_writes: 20,
            ..LlbpStats::default()
        };
        let (r, w) = stats.transfer_bits_per_instruction(28_800);
        assert!((r - 1.0).abs() < 1e-12);
        assert!((w - 0.2).abs() < 1e-12);
    }

    #[test]
    fn useful_records_aggregate_per_context() {
        let mut a = AnalysisStats::default();
        a.record_useful(1, key(0x10, 3, 7));
        a.record_useful(1, key(0x10, 3, 7));
        a.record_useful(1, key(0x20, 5, 9));
        a.record_useful(2, key(0x10, 3, 7));
        let per_ctx = a.useful_patterns_per_context();
        assert_eq!(
            per_ctx[0],
            (1, 2),
            "context 1 has two distinct useful patterns"
        );
        assert_eq!(per_ctx[1], (2, 1));
    }

    #[test]
    fn avg_history_len_averages_pattern_lengths() {
        let mut a = AnalysisStats::default();
        a.record_useful(1, key(0x10, 0, 1)); // length 6
        a.record_useful(1, key(0x20, 15, 2)); // length 232
        let avg = a.avg_history_len(1).unwrap();
        assert!((avg - 119.0).abs() < 1e-9);
        assert_eq!(a.avg_history_len(99), None);
    }

    #[test]
    fn duplication_counts_copies_across_contexts() {
        let mut a = AnalysisStats::default();
        // One pattern in three contexts, another in one.
        for cid in [1, 2, 3] {
            a.record_useful(cid, key(0x10, 4, 7));
        }
        a.record_useful(9, key(0x30, 4, 8));
        let dup = a.duplication_by_len();
        assert_eq!(
            dup[4],
            (4, 2),
            "4 copies over 2 unique patterns at length idx 4"
        );
    }

    #[test]
    fn consistent_states_pass_invariant_checks() {
        let mut stats = LlbpStats {
            cond_branches: 100,
            mispredicts: 10,
            llbp_provided: 40,
            llbp_useful: 5,
            llbp_harmful: 2,
            ps_reads: 12,
            pb_accesses: 100,
            cd_accesses: 20,
            ctt_accesses: 20,
            prefetches_issued: 8,
            prefetch_on_time: 4,
            prefetch_late: 2,
            prefetch_unused: 1,
            demand_fetches: 4,
            allocations: 6,
            alloc_dropped_range: 1,
            ..LlbpStats::default()
        };
        stats.alloc_len_histogram[3] = 9;
        assert_eq!(stats.check_invariants(), Vec::<String>::new());
        stats.validate(); // must not panic
        assert_eq!(
            LlbpStats::default().check_invariants(),
            Vec::<String>::new()
        );
    }

    #[test]
    fn corrupted_counters_are_reported() {
        // More useful+harmful outcomes than provided predictions, and a
        // prefetch classified without being issued: both must be flagged.
        let stats = LlbpStats {
            cond_branches: 10,
            pb_accesses: 10,
            llbp_provided: 3,
            llbp_useful: 3,
            llbp_harmful: 1,
            prefetch_on_time: 1,
            ..LlbpStats::default()
        };
        let violations = stats.check_invariants();
        assert!(
            violations
                .iter()
                .any(|v| v.contains("llbp_useful + llbp_harmful")),
            "outcome invariant flagged: {violations:?}"
        );
        assert!(
            violations.iter().any(|v| v.contains("prefetches_issued")),
            "prefetch invariant flagged: {violations:?}"
        );
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "validate only asserts in debug builds"
    )]
    fn validate_panics_on_violation_in_debug_builds() {
        let stats = LlbpStats {
            mispredicts: 5,
            ..LlbpStats::default()
        };
        let err = std::panic::catch_unwind(|| stats.validate())
            .expect_err("a violated invariant must panic in debug builds");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic carries a message");
        assert!(msg.contains("mispredicts <= cond_branches"), "got: {msg}");
    }

    #[test]
    fn useful_by_len_counts_dynamic_events() {
        let mut a = AnalysisStats::default();
        a.record_useful(1, key(0x10, 2, 1));
        a.record_useful(2, key(0x11, 2, 2));
        a.record_useful(1, key(0x10, 2, 1));
        assert_eq!(a.useful_by_len[2], 3);
    }
}
