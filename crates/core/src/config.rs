//! Configuration of the LLBP and LLBP-X hierarchical predictors.
//!
//! [`LlbpConfig`] holds only what some figure varies: the limit-study knobs
//! of the paper's §III-A (Fig. 5), the sweeps of §VII, and, for LLBP-X, the
//! [`DepthAdaptation`] part (`None` is plain LLBP). The hardware the paper
//! fixes (CD associativity, pattern-set size, D, the two LLBP-X depths, the
//! CTT geometry, ...) is named constants, each citing its paper section.

use tage::{TslConfig, HISTORY_LENGTHS, NUM_TABLES};

/// Which history-length slots a pattern set supports, and how they are
/// organized.
///
/// The original LLBP keeps 16 of TAGE's 21 lengths in 4 buckets of 4
/// (§II-C.4); the "+ No Design Tweaks" limit config keeps all 21, fully
/// associative. LLBP-X partitions by context depth (§V-C): shallow contexts
/// use the first 16 lengths (6..=232), deep contexts the last 16 (37..=3000).
/// Stored inline (no heap) and `Copy`: pattern-set lookup and allocation
/// consult the active set once per conditional branch, so handing it around
/// by value must not allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LengthSet {
    /// `HISTORY_LENGTHS` indices supported, ascending; only the first
    /// `count` entries are meaningful.
    slots: [u8; NUM_TABLES],
    /// Number of live entries in `slots`.
    count: u8,
    /// Membership bitmask over slot indices, for O(1) `contains`.
    mask: u32,
    /// Bucketed (4 buckets × 4 slots) or fully associative.
    bucketed: bool,
}

impl LengthSet {
    fn from_indices(indices: impl IntoIterator<Item = u8>, bucketed: bool) -> Self {
        let mut slots = [0u8; NUM_TABLES];
        let mut count = 0usize;
        let mut mask = 0u32;
        for idx in indices {
            debug_assert!((idx as usize) < NUM_TABLES);
            slots[count] = idx;
            count += 1;
            mask |= 1 << idx;
        }
        LengthSet {
            slots,
            count: count as u8,
            mask,
            bucketed,
        }
    }

    /// The original LLBP selection: 16 of the 21 lengths, bucketed.
    ///
    /// We drop the five least-pattern-bearing intermediate lengths
    /// (indices 1, 4, 8, 12, 14), keeping both endpoints of the range.
    pub fn llbp_default() -> Self {
        let drop = [1usize, 4, 8, 12, 14];
        Self::from_indices(
            (0..NUM_TABLES)
                .filter(|i| !drop.contains(i))
                .map(|i| i as u8),
            true,
        )
    }

    /// All 21 TAGE lengths, fully associative (limit study).
    pub fn all_lengths() -> Self {
        Self::from_indices(0..NUM_TABLES as u8, false)
    }

    /// LLBP-X shallow range: the first 16 lengths (6..=232), bucketed.
    pub fn shallow_range() -> Self {
        Self::from_indices(0..16, true)
    }

    /// LLBP-X deep range: the last 16 lengths (37..=3000), bucketed.
    pub fn deep_range() -> Self {
        Self::from_indices(NUM_TABLES as u8 - 16..NUM_TABLES as u8, true)
    }

    /// Supported slots (ascending `HISTORY_LENGTHS` indices).
    pub fn slots(&self) -> &[u8] {
        &self.slots[..self.count as usize]
    }

    /// Whether the organization is bucketed.
    pub fn bucketed(&self) -> bool {
        self.bucketed
    }

    /// Number of supported slots.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// `true` when no lengths are supported (never constructed).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Whether `len_idx` is a supported history length. O(1) mask test.
    #[inline]
    pub fn contains(&self, len_idx: u8) -> bool {
        (len_idx as usize) < NUM_TABLES && (self.mask >> len_idx) & 1 == 1
    }

    /// Bucket of a supported slot (0..4), or 0 when fully associative.
    ///
    /// Buckets split the supported slots evenly by rank, so each bucket
    /// covers a contiguous history-length range (§II-C.4).
    pub fn bucket_of(&self, len_idx: u8) -> usize {
        if !self.bucketed {
            return 0;
        }
        let rank = self.slots().binary_search(&len_idx).unwrap_or(0);
        rank * 4 / self.len().max(1)
    }

    /// Smallest supported slot whose history length strictly exceeds
    /// `min_bits`. Returns `None` when even the longest is too short.
    pub fn next_longer(&self, min_bits: usize) -> Option<u8> {
        self.slots()
            .iter()
            .copied()
            .find(|&s| HISTORY_LENGTHS[s as usize] > min_bits)
    }
}

/// How pattern-set prefetches interact with wrong-path execution
/// (Fig. 14a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FalsePathMode {
    /// Keep prefetches triggered by wrong-path instructions (default):
    /// more over-prefetch, better coverage.
    #[default]
    Include,
    /// Flush not-yet-consumed prefetches on a misprediction: fewer
    /// over-prefetches, slightly worse coverage and accuracy.
    Flush,
}

// The hardware the paper fixes. No figure varies these, so they are
// constants rather than `LlbpConfig` fields.

/// Context-directory associativity: 2^11 sets × 7 ways are the 14K
/// contexts of the paper's LLBP (§II-C.3).
pub const CD_WAYS: usize = 7;
/// Context tag bits per context-directory entry (§II-C.3). The unbounded
/// store of the "+ Inf Contexts" limit config keeps whole context IDs.
pub const CONTEXT_TAG_BITS: u32 = 14;
/// Patterns per pattern set: 4 buckets of 4, one 288-bit pattern-store
/// transaction (§II-C.4).
pub const PATTERNS_PER_SET: usize = 16;
/// Pattern-buffer entries (§II-C.3).
pub const PB_ENTRIES: usize = 64;
/// Skip depth D: the most recent unconditional branches left out of the
/// context ID, which opens the prefetch window (§II-C.3).
pub const SKIP_DEPTH: usize = 4;
/// LLBP-X's shallow context depth W, the CTT's key (CID₂, §V-B.2).
pub const W_SHALLOW: usize = 2;
/// LLBP-X's deep context depth W (CID₆₄, §V-B.2).
pub const W_DEEP: usize = 64;
/// log2 of CTT sets: 2^10 sets × 6 ways are the 6K-entry, 9 KiB CTT
/// (§V-D.3).
pub const CTT_LOG2_SETS: u32 = 10;
/// CTT tag bits (§V-D.3).
pub const CTT_TAG_BITS: u32 = 6;
/// Confident patterns in a set before the pattern buffer raises the
/// overflow signal (§V-B.1).
pub const OVERFLOW_THRESHOLD: u32 = 7;
/// Saturation value of the CTT's 3-bit avg-hist-len counter (§V-B.1).
pub const AVG_HIST_SATURATION: u8 = 7;

/// Configuration of LLBP (§II-C), its limit-study variants (§III-A) and
/// LLBP-X (§V): every value some figure varies. The rest of the hardware
/// is the constants above.
#[derive(Debug, Clone, PartialEq)]
pub struct LlbpConfig {
    /// Baseline TSL under the hierarchy (the paper pairs LLBP with 64K TSL;
    /// Fig. 16b sweeps it).
    pub tsl: TslConfig,
    /// Human-readable label for reports.
    pub label: String,

    // Context directory / pattern store --------------------------------
    /// log2 of context-directory sets (2^11 sets × [`CD_WAYS`] = 14336
    /// contexts; Fig. 16a sweeps it).
    pub cd_log2_sets: u32,
    /// Unbounded context storage (the "+ Inf Contexts" limit config).
    pub infinite_contexts: bool,

    // Pattern sets ------------------------------------------------------
    /// Unbounded patterns per set (the "+ Inf Patterns" limit config).
    pub infinite_patterns: bool,
    /// Pattern tag width (13 in hardware, 20 in the "+ 20b Tag" study).
    pub pattern_tag_bits: u32,
    /// Supported history lengths and their organization.
    pub lengths: LengthSet,
    /// Suppress the statistical corrector when LLBP provides (§II-C.4
    /// design tweak; disabled in "+ No Design Tweaks").
    pub suppress_sc: bool,

    // Context formation ---------------------------------------------------
    /// Context depth W: unconditional branches hashed into the context ID
    /// (LLBP-X uses [`W_SHALLOW`] and [`W_DEEP`] instead).
    pub w: usize,
    /// Replace the RCR hash with the branch PC ("+ No Contextualization").
    pub no_contextualization: bool,

    // Timing --------------------------------------------------------------
    /// Prefetch latency in branch events (0 = the 0-latency idealization).
    pub latency_events: u64,
    /// Wrong-path prefetch handling.
    pub false_path: FalsePathMode,

    /// Collect per-context/per-pattern analysis statistics (Figs. 6-9).
    /// Costs memory and time; off for plain MPKI runs.
    pub analysis: bool,

    /// LLBP-X's dynamic context depth adaptation (§V); `None` is LLBP.
    pub depth: Option<DepthAdaptation>,
}

/// The part of LLBP-X's depth adaptation (§V) that the paper's figures
/// sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthAdaptation {
    /// History-length threshold H_th steering avg-hist-len (232; §VII-F
    /// sweeps 37..=1444).
    pub h_th: usize,
    /// CTT associativity (6 ways of 2^[`CTT_LOG2_SETS`] sets; §VII-F sweeps
    /// 4K..=8K entries).
    pub ctt_ways: usize,
    /// Partition history lengths by depth (§V-C); disabling this keeps the
    /// original LLBP 16-length set for both depths (ablation §VII-E).
    pub history_range_selection: bool,
}

impl DepthAdaptation {
    /// Total CTT entries.
    pub fn ctt_entries(&self) -> usize {
        (1usize << CTT_LOG2_SETS) * self.ctt_ways
    }

    /// CTT storage in bits: 6b tag + 3b avg-hist-len + 1b depth + 2b
    /// replacement per entry (the paper's 9 KiB).
    pub fn ctt_storage_bits(&self) -> u64 {
        let avg_hist_bits = u64::from(AVG_HIST_SATURATION.ilog2() + 1);
        self.ctt_entries() as u64 * (u64::from(CTT_TAG_BITS) + avg_hist_bits + 1 + 2)
    }
}

impl LlbpConfig {
    /// The hardware LLBP of the paper: 515 KiB total, W=8, D=4, 14K
    /// contexts, 16 patterns per set, 13-bit tags, 16 history lengths,
    /// 6-cycle access latency (modelled as a 3-branch-event prefetch
    /// delay), over a 64K TSL.
    pub fn paper_baseline() -> Self {
        LlbpConfig {
            tsl: TslConfig::kilobytes(64),
            label: "LLBP".to_owned(),
            cd_log2_sets: 11,
            infinite_contexts: false,
            infinite_patterns: false,
            pattern_tag_bits: 13,
            lengths: LengthSet::llbp_default(),
            suppress_sc: true,
            w: 8,
            no_contextualization: false,
            latency_events: 8,
            false_path: FalsePathMode::Include,
            analysis: false,
            depth: None,
        }
    }

    /// The 0-cycle-access-latency LLBP (LLBP-0Lat).
    pub fn zero_latency() -> Self {
        LlbpConfig {
            latency_events: 0,
            label: "LLBP-0Lat".to_owned(),
            ..LlbpConfig::paper_baseline()
        }
    }

    /// Limit study step 1 (+ No Design Tweaks): fully associative sets,
    /// all 21 lengths, SC override re-enabled. 0-latency.
    pub fn no_design_tweaks() -> Self {
        LlbpConfig {
            lengths: LengthSet::all_lengths(),
            suppress_sc: false,
            label: "+No Design Tweaks".to_owned(),
            ..LlbpConfig::zero_latency()
        }
    }

    /// Limit study step 2 (+ 20b Tag).
    pub fn with_20b_tags() -> Self {
        LlbpConfig {
            pattern_tag_bits: 20,
            label: "+20b Tag".to_owned(),
            ..LlbpConfig::no_design_tweaks()
        }
    }

    /// Limit study step 3 (+ Inf Contexts): unlimited contexts, each
    /// stored under its whole context ID.
    pub fn with_infinite_contexts() -> Self {
        LlbpConfig {
            infinite_contexts: true,
            label: "+Inf Contexts".to_owned(),
            ..LlbpConfig::with_20b_tags()
        }
    }

    /// Limit study step 4 (+ Inf Patterns): unlimited patterns per set.
    pub fn with_infinite_patterns() -> Self {
        LlbpConfig {
            infinite_patterns: true,
            label: "+Inf Patterns".to_owned(),
            ..LlbpConfig::with_infinite_contexts()
        }
    }

    /// Limit study step 5 (+ No Contextualization): the branch PC is the
    /// context ID.
    pub fn without_contextualization() -> Self {
        LlbpConfig {
            no_contextualization: true,
            label: "+No Contextualization".to_owned(),
            ..LlbpConfig::with_infinite_patterns()
        }
    }

    /// The paper's LLBP-X: LLBP plus a 6K-entry 6-way CTT, H_th = 232 and
    /// shallow 6..=232 / deep 37..=3000 history ranges.
    pub fn llbpx() -> Self {
        LlbpConfig {
            label: "LLBP-X".to_owned(),
            depth: Some(DepthAdaptation {
                h_th: 232,
                ctt_ways: 6,
                history_range_selection: true,
            }),
            ..LlbpConfig::paper_baseline()
        }
    }

    /// 0-latency LLBP-X (capacity sensitivity studies).
    pub fn llbpx_zero_latency() -> Self {
        LlbpConfig {
            latency_events: 0,
            label: "LLBP-X-0Lat".to_owned(),
            ..LlbpConfig::llbpx()
        }
    }

    /// Sets the context depth W (Figs. 8 and 9 sweep this).
    pub fn with_w(mut self, w: usize) -> Self {
        self.w = w;
        self
    }

    /// Enables per-context/per-pattern analysis statistics.
    pub fn with_analysis(mut self) -> Self {
        self.analysis = true;
        self
    }

    /// Sets H_th (§VII-F sweeps 37..=1444).
    ///
    /// # Panics
    ///
    /// Panics unless this is an LLBP-X configuration.
    pub fn with_h_th(mut self, h_th: usize) -> Self {
        self.depth_mut().h_th = h_th;
        self
    }

    /// Sets the CTT capacity (§VII-F sweeps 4K..=8K entries with 1K sets).
    ///
    /// # Panics
    ///
    /// Panics unless this is an LLBP-X configuration and `entries` fills
    /// whole ways.
    pub fn with_ctt_entries(mut self, entries: usize) -> Self {
        assert!(
            entries.is_multiple_of(1 << CTT_LOG2_SETS),
            "entries must fill whole ways"
        );
        self.depth_mut().ctt_ways = entries >> CTT_LOG2_SETS;
        self
    }

    /// Disables history range selection (optimization breakdown, §VII-E).
    ///
    /// # Panics
    ///
    /// Panics unless this is an LLBP-X configuration.
    pub fn without_history_range_selection(mut self) -> Self {
        self.depth_mut().history_range_selection = false;
        self
    }

    /// The depth part the LLBP-X builders edit; panics on a plain LLBP.
    fn depth_mut(&mut self) -> &mut DepthAdaptation {
        match &mut self.depth {
            Some(depth) => depth,
            None => panic!("`{}` is not an LLBP-X config", self.label),
        }
    }

    /// Total contexts in the directory.
    pub fn total_contexts(&self) -> usize {
        (1usize << self.cd_log2_sets) * CD_WAYS
    }

    /// Bits of one stored pattern: tag + 3-bit counter + 2-bit length
    /// selector (16 patterns × 18 bits = the paper's 288-bit transaction).
    pub fn pattern_bits(&self) -> u64 {
        u64::from(self.pattern_tag_bits) + 3 + 2
    }

    /// Storage of the second level in bits: pattern store + CD + PB + RCR,
    /// plus the CTT for LLBP-X.
    ///
    /// Returns `u64::MAX` for the unbounded limit-study configurations.
    pub fn storage_bits(&self) -> u64 {
        if self.infinite_contexts || self.infinite_patterns {
            return u64::MAX;
        }
        let set_bits = PATTERNS_PER_SET as u64 * self.pattern_bits();
        let store = self.total_contexts() as u64 * set_bits;
        let cd = self.total_contexts() as u64 * (u64::from(CONTEXT_TAG_BITS) + 2);
        let pb = PB_ENTRIES as u64 * set_bits;
        let rcr = self.w as u64 * 28;
        let ctt = self.depth.map_or(0, |depth| depth.ctt_storage_bits());
        store + cd + pb + rcr + ctt
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(8..=31).contains(&self.pattern_tag_bits) {
            return Err("pattern_tag_bits out of range".into());
        }
        if self.w == 0 && !self.no_contextualization {
            return Err("w must be positive".into());
        }
        if self.lengths.is_empty() {
            return Err("length set must not be empty".into());
        }
        if self.lengths.bucketed() && !self.lengths.len().is_multiple_of(4) {
            return Err("bucketed length sets must split into 4 buckets".into());
        }
        if let Some(depth) = self.depth {
            if depth.ctt_ways == 0 {
                return Err("ctt_ways must be positive".into());
            }
            if !HISTORY_LENGTHS.contains(&depth.h_th) {
                return Err(format!("h_th {} is not a TAGE history length", depth.h_th));
            }
        }
        Ok(())
    }
}

impl Default for LlbpConfig {
    fn default() -> Self {
        LlbpConfig::paper_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_configs_validate() {
        assert_eq!(LlbpConfig::paper_baseline().validate(), Ok(()));
        assert_eq!(LlbpConfig::zero_latency().validate(), Ok(()));
        assert_eq!(LlbpConfig::no_design_tweaks().validate(), Ok(()));
        assert_eq!(LlbpConfig::with_20b_tags().validate(), Ok(()));
        assert_eq!(LlbpConfig::with_infinite_contexts().validate(), Ok(()));
        assert_eq!(LlbpConfig::with_infinite_patterns().validate(), Ok(()));
        assert_eq!(LlbpConfig::without_contextualization().validate(), Ok(()));
        assert_eq!(LlbpConfig::llbpx().validate(), Ok(()));
        assert_eq!(LlbpConfig::llbpx_zero_latency().validate(), Ok(()));
    }

    #[test]
    fn paper_llbp_has_14k_contexts_and_515kb() {
        // The fixed LLBP hardware of §II-C.
        assert_eq!(CD_WAYS, 7);
        assert_eq!(CONTEXT_TAG_BITS, 14);
        assert_eq!(PATTERNS_PER_SET, 16);
        assert_eq!(PB_ENTRIES, 64);
        assert_eq!(SKIP_DEPTH, 4);
        let cfg = LlbpConfig::paper_baseline();
        assert_eq!(cfg.total_contexts(), 14336);
        let kib = cfg.storage_bits() as f64 / 8.0 / 1024.0;
        // Paper: 515 KB of second-level storage.
        assert!(
            (490.0..=540.0).contains(&kib),
            "LLBP storage was {kib:.0} KiB"
        );
        assert_eq!(PATTERNS_PER_SET as u64 * cfg.pattern_bits(), 288);
    }

    #[test]
    fn llbp_default_lengths_keep_16_of_21_with_endpoints() {
        let set = LengthSet::llbp_default();
        assert_eq!(set.len(), 16);
        assert!(set.contains(0), "must keep length 6");
        assert!(set.contains(NUM_TABLES as u8 - 1), "must keep length 3000");
    }

    #[test]
    fn shallow_and_deep_ranges_match_the_paper() {
        let shallow = LengthSet::shallow_range();
        let deep = LengthSet::deep_range();
        assert_eq!(shallow.len(), 16);
        assert_eq!(deep.len(), 16);
        assert_eq!(
            HISTORY_LENGTHS[*shallow.slots().first().unwrap() as usize],
            6
        );
        assert_eq!(
            HISTORY_LENGTHS[*shallow.slots().last().unwrap() as usize],
            232
        );
        assert_eq!(HISTORY_LENGTHS[*deep.slots().first().unwrap() as usize], 37);
        assert_eq!(
            HISTORY_LENGTHS[*deep.slots().last().unwrap() as usize],
            3000
        );
    }

    #[test]
    fn buckets_split_supported_slots_evenly() {
        let set = LengthSet::llbp_default();
        let mut per_bucket = [0usize; 4];
        for &s in set.slots() {
            per_bucket[set.bucket_of(s)] += 1;
        }
        assert_eq!(per_bucket, [4, 4, 4, 4]);
        // Buckets must be ordered by history length.
        for w in set.slots().windows(2) {
            assert!(set.bucket_of(w[0]) <= set.bucket_of(w[1]));
        }
    }

    #[test]
    fn next_longer_respects_the_supported_set() {
        let set = LengthSet::llbp_default();
        let idx = set.next_longer(0).expect("shortest exists");
        assert_eq!(HISTORY_LENGTHS[idx as usize], 6);
        let idx = set.next_longer(232).expect("longer than 232 exists");
        assert!(HISTORY_LENGTHS[idx as usize] > 232);
        assert_eq!(set.next_longer(3000), None);
    }

    #[test]
    fn limit_study_configs_are_unbounded() {
        assert_eq!(
            LlbpConfig::with_infinite_contexts().storage_bits(),
            u64::MAX
        );
        assert!(LlbpConfig::with_infinite_patterns().infinite_patterns);
        assert!(LlbpConfig::without_contextualization().no_contextualization);
        assert_eq!(LlbpConfig::with_20b_tags().pattern_tag_bits, 20);
    }

    #[test]
    fn ctt_is_9kib_with_6k_entries() {
        // The fixed LLBP-X hardware of §V.
        assert_eq!((W_SHALLOW, W_DEEP), (2, 64));
        assert_eq!(CTT_LOG2_SETS, 10);
        assert_eq!(CTT_TAG_BITS, 6);
        assert_eq!(OVERFLOW_THRESHOLD, 7);
        assert_eq!(AVG_HIST_SATURATION, 7);
        let depth = LlbpConfig::llbpx().depth.expect("LLBP-X adapts its depth");
        assert_eq!(depth.ctt_entries(), 6144);
        let kib = depth.ctt_storage_bits() as f64 / 8.0 / 1024.0;
        assert!((8.5..=9.5).contains(&kib), "CTT storage was {kib:.2} KiB");
    }

    #[test]
    fn ctt_entry_builder_rejects_partial_ways() {
        let cfg = LlbpConfig::llbpx().with_ctt_entries(4096);
        assert_eq!(cfg.depth.map(|d| d.ctt_ways), Some(4));
        let result = std::panic::catch_unwind(|| LlbpConfig::llbpx().with_ctt_entries(5000));
        assert!(result.is_err());
        assert!(
            LlbpConfig::llbpx().with_ctt_entries(0).validate().is_err(),
            "no CTT ways"
        );
    }

    #[test]
    fn validation_rejects_degenerate_depths() {
        assert!(LlbpConfig::paper_baseline().with_w(0).validate().is_err());
        // 100 is not a TAGE length.
        assert!(LlbpConfig::llbpx().with_h_th(100).validate().is_err());
    }
}
