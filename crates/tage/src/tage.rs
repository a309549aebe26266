//! The TAGE core: tagged geometric-history-length prediction.
//!
//! Prediction by partial matching over [`NUM_TABLES`] tagged tables with the
//! history lengths of [`HISTORY_LENGTHS`]. The longest matching table is the
//! *provider*; the next longest (or the bimodal) is the *alternate*. Newly
//! allocated ("weak") providers defer to the alternate while a global
//! `use_alt_on_na` counter says alternates are more trustworthy.

use crate::bimodal::Bimodal;
use crate::config::{TageConfig, HISTORY_LENGTHS, NUM_TABLES};
use crate::folded::{FoldLanes, OutgoingBits, FOLD_LANES};
use crate::history::{GlobalHistory, PathHistory, PathMixLanes};
use crate::table::{TableStore, TageEntry, TaggedTables};

/// Lanes of [`Tage`]'s folds: the index fold and the two tag folds.
const INDEX: usize = 0;
const TAG: usize = 1;
const TAG2: usize = 2;

/// Useful-bit reset period, in allocation events.
const U_RESET_PERIOD: u64 = 1 << 18;

/// The per-table key constants as `u32` lanes, one per table, so that
/// [`Tage::compute_keys`] is a branch-free pass of multiplies, masks,
/// XORs and shifts by the one index width `size`, which the compiler
/// vectorizes four tables wide on the baseline x86-64 target like
/// [`FoldLanes::update`]. The folds it reads are `u16` lanes, and each tag
/// is computed in `u16` throughout.
///
/// The scalar key of table `t` shifts by per-table counts twice: the PC
/// self-shuffle `pcs >> s` with `s = (t % size) + 1`, and the rotations of
/// Seznec's path mix ([`PathMix`](crate::history::PathMix), the reference;
/// here [`PathMixLanes`], which also holds `size` and the index mask).
/// Both become per-lane multipliers. Split `pcs` at bit `size` into `lo`
/// and `hi`; with `m = 2^(size - s)`, the masked `pcs >> s` is
/// `((lo * m) >> size) | (hi * m)` masked: `lo * m` stays below
/// `2^(2 * size - 1)`, and the index keeps only the low `size` bits of the
/// wrapping `hi * m`. Hence `size ≤ 16`
/// ([`MAX_LANE_INDEX_BITS`](crate::history::MAX_LANE_INDEX_BITS)).
#[derive(Debug, Clone, Copy)]
struct KeyConsts {
    /// `2^(size - s)` for the PC self-shuffle distance `s = (t % size) + 1`.
    pc_mul: [u32; NUM_TABLES],
    /// Seznec's path mix, the index width and the index mask.
    path: PathMixLanes,
    /// `2^tag_bits(t) - 1`.
    tag_mask: [u16; NUM_TABLES],
}

impl KeyConsts {
    /// # Panics
    ///
    /// Panics unless `cfg.log2_entries` is in
    /// `1..=`[`MAX_LANE_INDEX_BITS`](crate::history::MAX_LANE_INDEX_BITS).
    fn new(cfg: &TageConfig) -> Self {
        let size = cfg.log2_entries;
        let path = PathMixLanes::new(size);
        KeyConsts {
            pc_mul: std::array::from_fn(|t| 1 << (size - (t as u32 % size) - 1)),
            path,
            tag_mask: std::array::from_fn(|t| (1 << cfg.tag_bits(t)) - 1),
        }
    }
}

/// Everything TAGE computed for one prediction, kept so the update phase
/// (and the LLBP hierarchy on top) can reuse it without re-hashing.
#[derive(Debug, Clone)]
pub struct TageInfo {
    /// Final TAGE prediction (after the use-alt-on-newly-allocated policy).
    pub pred: bool,
    /// Table index of the providing entry, `None` when the bimodal provided.
    pub provider: Option<usize>,
    /// Direction predicted by the provider entry (or bimodal).
    pub provider_pred: bool,
    /// `true` when the provider entry is newly allocated (weak).
    pub provider_weak: bool,
    /// `true` when the provider counter is saturated.
    pub provider_confident: bool,
    /// Alternate prediction (next-longest match or bimodal).
    pub alt_pred: bool,
    /// Table index of the alternate, `None` when it is the bimodal.
    pub alt_provider: Option<usize>,
    /// Per-table indices computed for this branch.
    pub indices: [u32; NUM_TABLES],
    /// Per-table tags computed for this branch.
    pub tags: [u16; NUM_TABLES],
}

impl TageInfo {
    /// History length (bits) backing the final prediction; 0 for bimodal.
    pub fn provider_history_len(&self) -> usize {
        self.provider.map_or(0, |t| HISTORY_LENGTHS[t])
    }
}

/// The TAGE predictor core (tagged tables + bimodal fallback).
#[derive(Debug, Clone)]
pub struct Tage {
    cfg: TageConfig,
    tables: TaggedTables,
    bimodal: Bimodal,
    history: GlobalHistory,
    path: PathHistory,
    /// The bits the last push moved through every history length's window.
    outgoing: OutgoingBits<FOLD_LANES>,
    /// Index, tag and second-tag folds ([`INDEX`], [`TAG`], [`TAG2`]) of
    /// every history length.
    folds: FoldLanes<u16, FOLD_LANES, 3>,
    keys: KeyConsts,
    /// Signed counter: ≥0 means trust the alternate over weak providers.
    use_alt_on_na: i8,
    /// Deterministic xorshift state for allocation spreading.
    rng: u64,
    /// Allocation events since the last useful-bit reset.
    allocs_since_reset: u64,
}

impl Tage {
    /// Builds a TAGE core from `cfg`.
    pub fn new(cfg: TageConfig) -> Self {
        let tag_bits: [u32; NUM_TABLES] = std::array::from_fn(|t| cfg.tag_bits(t));
        let folds = FoldLanes::new(
            &HISTORY_LENGTHS,
            [
                &[cfg.log2_entries; NUM_TABLES],
                &tag_bits,
                &tag_bits.map(|bits| bits - 1),
            ],
        );
        let keys = KeyConsts::new(&cfg);
        Tage {
            bimodal: Bimodal::new(cfg.log2_bimodal),
            tables: TaggedTables::new(cfg.storage, cfg.log2_entries),
            history: GlobalHistory::new(),
            path: PathHistory::new(),
            outgoing: OutgoingBits::new(&HISTORY_LENGTHS),
            folds,
            keys,
            use_alt_on_na: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
            allocs_since_reset: 0,
            cfg,
        }
    }

    /// The configuration this core was built with.
    pub fn config(&self) -> &TageConfig {
        &self.cfg
    }

    /// Shared global history register.
    pub fn history(&self) -> &GlobalHistory {
        &self.history
    }

    /// The bits the last [`update_history`](Self::update_history) moved
    /// through each history length's window; lane `i` is
    /// `HISTORY_LENGTHS[i]`. LLBP folds its pattern tags from these, so the
    /// history is read once per branch.
    pub fn outgoing(&self) -> &OutgoingBits<FOLD_LANES> {
        &self.outgoing
    }

    /// Fills `indices`/`tags` for every table in one pass over the
    /// [`KeyConsts`] lanes: PC shuffle, path mix, index and tag.
    #[inline]
    fn compute_keys(&self, pc: u64, indices: &mut [u32; NUM_TABLES], tags: &mut [u16; NUM_TABLES]) {
        let k = &self.keys;
        let (size, index_mask) = (k.path.index_bits(), k.path.index_mask());
        let pcs = pc >> 2;
        // Indices and tags keep at most 16 bits, so the casts keep every
        // bit that reaches them.
        let pcs32 = pcs as u32;
        let (lo, hi) = (pcs32 & index_mask, (pcs >> size) as u32);
        let (index_folds, tag_folds, tag_folds2) = (
            self.folds.lane(INDEX),
            self.folds.lane(TAG),
            self.folds.lane(TAG2),
        );
        for t in 0..NUM_TABLES {
            let m = k.pc_mul[t];
            let pc_shuffle = ((lo * m) >> size) | hi.wrapping_mul(m);
            let path_mix = k.path.lane(t, &self.path);
            indices[t] = (pcs32 ^ pc_shuffle ^ u32::from(index_folds[t]) ^ path_mix) & index_mask;
            // A second-tag fold is one bit narrower than the tag, so the
            // shifted fold stays within the tag's ≤ 15 bits.
            let tag_mix = tag_folds[t] ^ (tag_folds2[t] << 1);
            tags[t] = (pcs32 as u16 ^ tag_mix) & k.tag_mask[t];
        }
    }

    /// Computes the full prediction breakdown for `pc`.
    pub fn predict(&self, pc: u64) -> TageInfo {
        let _t = telemetry::scope!("tage::predict");
        let mut indices = [0u32; NUM_TABLES];
        let mut tags = [0u16; NUM_TABLES];
        self.compute_keys(pc, &mut indices, &mut tags);

        // Probe every table and collect the matches as a bit mask: the
        // provider is the longest match (highest set bit), the alternate
        // the next longest. The probed entries are kept by value (they are
        // `Copy`) so neither is looked up a second time.
        let entries = match &self.tables {
            TaggedTables::Direct(s) => probe_all(s, &indices, &tags, pc),
            TaggedTables::Infinite(s) => probe_all(s, &indices, &tags, pc),
        };
        let mut hits = 0u32;
        for t in 0..NUM_TABLES {
            hits |= u32::from(entries[t].tag == tags[t]) << t;
        }
        let provider = hits.checked_ilog2().map(|t| t as usize);
        let alt_provider = provider
            .and_then(|t| (hits & !(1 << t)).checked_ilog2())
            .map(|t| t as usize);

        let (provider_pred, provider_weak, provider_confident) = match provider {
            Some(t) => (
                entries[t].taken(),
                entries[t].is_weak(),
                entries[t].is_confident(),
            ),
            None => (self.bimodal.predict(pc), false, self.bimodal.confident(pc)),
        };
        let alt_pred = match alt_provider {
            Some(t) => entries[t].taken(),
            None => self.bimodal.predict(pc),
        };

        // Newly allocated providers are statistically unreliable; a global
        // counter learns whether the alternate does better in that case.
        let pred = if provider.is_some() && provider_weak && self.use_alt_on_na >= 0 {
            alt_pred
        } else {
            provider_pred
        };

        TageInfo {
            pred,
            provider,
            provider_pred,
            provider_weak,
            provider_confident,
            alt_pred,
            alt_provider,
            indices,
            tags,
        }
    }

    #[inline]
    fn next_rand(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// Trains TAGE on the resolved outcome. `info` must come from
    /// [`predict`](Self::predict) for the same branch under the same history
    /// (i.e. before [`update_history`](Self::update_history)).
    pub fn update(&mut self, pc: u64, taken: bool, info: &TageInfo) {
        let _t = telemetry::scope!("tage::update");
        // use_alt_on_na bookkeeping: when a weak provider and its alternate
        // disagree, learn which side to trust.
        if let Some(t) = info.provider {
            if info.provider_weak && info.provider_pred != info.alt_pred {
                let delta = if info.alt_pred == taken { 1 } else { -1 };
                self.use_alt_on_na = (self.use_alt_on_na + delta).clamp(-8, 7);
            }
            match &mut self.tables {
                TaggedTables::Direct(s) => train_provider(s, t, pc, taken, info),
                TaggedTables::Infinite(s) => train_provider(s, t, pc, taken, info),
            }
            // A weak provider's bimodal alternate trains too (the tagged
            // alternate trained with the provider).
            if info.provider_weak && info.alt_provider.is_none() {
                self.bimodal.update(pc, taken);
            }
        } else {
            self.bimodal.update(pc, taken);
        }

        // Allocate longer-history entries on a TAGE misprediction.
        if info.pred != taken {
            self.allocate(pc, taken, info);
        }
    }

    /// Allocates up to two entries in tables with histories longer than the
    /// provider's, aging victims that refuse (useful bit set).
    fn allocate(&mut self, pc: u64, taken: bool, info: &TageInfo) {
        let start = info.provider.map_or(0, |t| t + 1);
        if start >= NUM_TABLES {
            return;
        }
        // Random skip keeps allocations from piling into the first longer
        // table (Seznec's randomized start).
        let skip = (self.next_rand() % 2) as usize;
        let first = start + skip.min(NUM_TABLES - 1 - start);
        self.allocs_since_reset += match &mut self.tables {
            TaggedTables::Direct(s) => allocate_from(s, first, pc, taken, info),
            TaggedTables::Infinite(s) => allocate_from(s, first, pc, taken, info),
        };
        if self.allocs_since_reset >= U_RESET_PERIOD {
            self.allocs_since_reset = 0;
            self.tables.reset_useful();
        }
    }

    /// Advances global, path and folded histories past `record`.
    ///
    /// Must be called exactly once per dynamic branch (conditional and
    /// unconditional), after [`update`](Self::update).
    pub fn update_history(&mut self, record: &traces::BranchRecord) {
        let _t = telemetry::scope!("tage::update_history");
        self.history.push(crate::history::history_bit(record));
        self.path.push(record.pc);
        self.outgoing.advance(&self.history);
        self.folds.update(&self.outgoing);
    }

    /// Storage in bits (tagged tables + bimodal).
    pub fn storage_bits(&self) -> u64 {
        self.cfg.storage_bits()
    }

    /// Total live entries across the tagged tables (diagnostics).
    pub fn population(&self) -> usize {
        self.tables.population()
    }
}

/// Every table's entry at this branch's keys.
fn probe_all<S: TableStore>(
    s: &S,
    indices: &[u32; NUM_TABLES],
    tags: &[u16; NUM_TABLES],
    pc: u64,
) -> [TageEntry; NUM_TABLES] {
    std::array::from_fn(|t| s.probe(t, indices[t], tags[t], pc))
}

/// Trains provider `t`'s entry on `taken`, and the tagged alternate's while
/// the provider is weak, so the fallback stays warm (Seznec's update of the
/// alt entry).
fn train_provider<S: TableStore>(s: &mut S, t: usize, pc: u64, taken: bool, info: &TageInfo) {
    let entry = s
        .entry_mut(t, info.indices[t], info.tags[t], pc)
        .unwrap_or_else(|| unreachable!("provider entry present during update"));
    // Useful bit: provider beat a disagreeing alternate.
    if info.provider_pred != info.alt_pred {
        if info.provider_pred == taken {
            entry.useful = 1;
        } else {
            entry.useful = entry.useful.saturating_sub(1);
        }
    }
    entry.train(taken);
    if let Some(a) = info.alt_provider.filter(|_| info.provider_weak) {
        if let Some(e) = s.entry_mut(a, info.indices[a], info.tags[a], pc) {
            e.train(taken);
        }
    }
}

/// Allocates up to two entries from table `first` on, every other table
/// after a success, aging each victim that refuses; returns how many it
/// allocated.
fn allocate_from<S: TableStore>(
    s: &mut S,
    first: usize,
    pc: u64,
    taken: bool,
    info: &TageInfo,
) -> u64 {
    let mut allocated = 0;
    let mut t = first;
    while t < NUM_TABLES && allocated < 2 {
        if s.can_allocate(t, info.indices[t]) {
            s.allocate(t, info.indices[t], info.tags[t], pc, taken);
            allocated += 1;
            t += 2; // spread allocations across lengths
        } else {
            s.age_victim(t, info.indices[t]);
            t += 1;
        }
    }
    allocated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TableStorageKind;
    use traces::BranchRecord;

    fn drive(tage: &mut Tage, pc: u64, taken: bool) -> bool {
        let info = tage.predict(pc);
        tage.update(pc, taken, &info);
        tage.update_history(&BranchRecord::cond(pc, pc + 0x40, taken, 0));
        info.pred
    }

    #[test]
    fn learns_a_strongly_biased_branch() {
        let mut tage = Tage::new(TageConfig::base_64k());
        let mut wrong = 0;
        for i in 0..500 {
            if !drive(&mut tage, 0x1000, true) && i > 10 {
                wrong += 1;
            }
        }
        assert!(wrong < 5, "biased branch mispredicted {wrong} times");
    }

    #[test]
    fn learns_a_short_alternating_pattern() {
        let mut tage = Tage::new(TageConfig::base_64k());
        let mut wrong = 0;
        for i in 0..2000u32 {
            let taken = i % 2 == 0;
            if drive(&mut tage, 0x2000, taken) != taken && i > 500 {
                wrong += 1;
            }
        }
        assert!(
            wrong < 30,
            "alternating branch mispredicted {wrong} times after warmup"
        );
    }

    #[test]
    fn learns_a_history_correlated_branch() {
        // Branch B's outcome equals branch A's previous outcome: requires
        // (short) global history, impossible for bimodal alone.
        let mut tage = Tage::new(TageConfig::base_64k());
        let mut a_out = false;
        let mut x = 0x123u64;
        let mut wrong = 0;
        for i in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a_taken = x & 1 == 1;
            drive(&mut tage, 0xA000, a_taken);
            let b_taken = a_out;
            if drive(&mut tage, 0xB000, b_taken) != b_taken && i > 1500 {
                wrong += 1;
            }
            a_out = a_taken;
        }
        assert!(
            wrong < 150,
            "correlated branch mispredicted {wrong}/2500 times"
        );
    }

    #[test]
    fn provider_history_len_is_zero_for_bimodal() {
        let tage = Tage::new(TageConfig::base_64k());
        let info = tage.predict(0x1234);
        assert_eq!(info.provider, None);
        assert_eq!(info.provider_history_len(), 0);
    }

    #[test]
    fn allocation_populates_longer_tables_after_mispredictions() {
        let mut tage = Tage::new(TageConfig::base_64k());
        // Feed an unpredictable branch; every miss allocates.
        let mut x = 7u64;
        for _ in 0..200 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            drive(&mut tage, 0x3000, x & 1 == 1);
        }
        assert!(
            tage.population() > 50,
            "mispredictions should allocate entries"
        );
    }

    #[test]
    fn infinite_storage_outperforms_tiny_storage_under_pressure() {
        // Thousands of history-correlated branches overwhelm a 128-entry
        // TAGE but not the idealized one.
        // 512 branches, each with its own random period-4 direction
        // pattern: a few tagged entries per branch, thousands total — far
        // beyond 21 tables * 32 entries but easy for the idealized
        // organization.
        let mut patterns = [0u8; 512];
        let mut x = 0x5eed_1234u64;
        for p in &mut patterns {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *p = (x & 0xf) as u8;
        }
        let run = |cfg: TageConfig| -> u64 {
            let mut tage = Tage::new(cfg);
            let mut wrong = 0;
            for round in 0..60u64 {
                for b in 0..512u64 {
                    let taken = (patterns[b as usize] >> (round % 4)) & 1 == 1;
                    let pc = 0x10_0000 + b * 64;
                    if drive(&mut tage, pc, taken) != taken && round > 30 {
                        wrong += 1;
                    }
                }
            }
            wrong
        };
        let tiny = run(TageConfig::base_64k().with_log2_entries(5));
        let infinite = run(TageConfig {
            storage: TableStorageKind::Infinite,
            ..TageConfig::base_64k()
        });
        assert!(
            infinite < tiny,
            "infinite TAGE ({infinite} misses) must beat a 32-entry TAGE ({tiny} misses)"
        );
    }

    #[test]
    fn predict_is_pure() {
        let mut tage = Tage::new(TageConfig::base_64k());
        for i in 0..50 {
            drive(&mut tage, 0x4000 + (i % 3) * 0x100, i % 2 == 0);
        }
        let a = tage.predict(0x4000);
        let b = tage.predict(0x4000);
        assert_eq!(a.pred, b.pred);
        assert_eq!(a.indices, b.indices);
        assert_eq!(a.tags, b.tags);
    }

    #[test]
    fn tags_fit_their_width() {
        let mut tage = Tage::new(TageConfig::base_64k());
        for i in 0..200 {
            drive(&mut tage, 0x9000 + i * 4, i % 3 == 0);
        }
        let info = tage.predict(0xdead_beef);
        for t in 0..NUM_TABLES {
            assert!(info.tags[t] < (1 << tage.config().tag_bits(t)), "table {t}");
            assert!(
                info.indices[t] < (1 << tage.config().log2_entries),
                "table {t}"
            );
        }
    }
}
