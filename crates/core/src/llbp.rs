//! The hierarchical predictor: LLBP (§II-C) and LLBP-X (§V) over a TSL.
//!
//! One struct implements both designs: LLBP-X is LLBP plus the context
//! tracking table, dual rolling context IDs and history range selection,
//! enabled by an [`LlbpConfig`] with a [`depth`](LlbpConfig::depth) part.
//! The limit-study configurations of §III-A are [`LlbpConfig`] variants.
//!
//! # Per-branch flow
//!
//! * conditional branch: TAGE lookup → PB pattern match → provider
//!   arbitration by history length → SC (suppressed or re-fed) → loop
//!   override → train everything → allocate on misprediction.
//! * unconditional branch: RCR push → context-ID selection (CTT/oracle for
//!   LLBP-X) → context queue advance (the D-deep temporal window) →
//!   prefetch probe of the CD.

use std::collections::VecDeque;

use tage::folded::{FoldLanes, FOLD_LANES};
use tage::sc::ScInputConfidence;
use tage::{
    DirectionPredictor, FastMap, FastSet, PredictInput, TageScl, Update, HISTORY_LENGTHS,
    NUM_TABLES,
};
use traces::BranchRecord;

use crate::buffer::{Evicted, PatternBuffer, PbLookup};
use crate::config::{
    FalsePathMode, LengthSet, LlbpConfig, AVG_HIST_SATURATION, CD_WAYS, CONTEXT_TAG_BITS,
    CTT_LOG2_SETS, CTT_TAG_BITS, OVERFLOW_THRESHOLD, PATTERNS_PER_SET, PB_ENTRIES, SKIP_DEPTH,
    W_DEEP, W_SHALLOW,
};
use crate::ctt::ContextTrackingTable;
use crate::pattern_set::{PatternMatch, PatternSet};
use crate::rcr::Rcr;
use crate::stats::{AnalysisStats, LlbpStats, PatternKey};
use crate::store::PatternStore;

/// A context selected at RCR-update time: the ID actually used, the shallow
/// ID it was derived from (CTT key), and the depth decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SelectedCtx {
    cid: u64,
    cid2: u64,
    deep: bool,
}

const BOOT_CTX: SelectedCtx = SelectedCtx {
    cid: 0x1,
    cid2: 0x1,
    deep: false,
};

/// The LLBP / LLBP-X hierarchical branch predictor.
///
/// ```
/// use llbpx::{Llbp, LlbpConfig};
/// use tage::{DirectionPredictor, PredictInput};
/// use traces::BranchRecord;
///
/// let mut p = Llbp::new(LlbpConfig::llbpx());
/// let rec = BranchRecord::cond(0x4000, 0x4100, true, 4);
/// assert!(p.process(PredictInput::new(&rec)).pred.is_some());
/// assert_eq!(p.name(), "LLBP-X");
/// ```
#[derive(Debug, Clone)]
pub struct Llbp {
    cfg: LlbpConfig,
    tsl: TageScl,
    /// Per-length tag folds: fold 0 at the pattern tag width, fold 1 at
    /// width-1 (decorrelates tags, as in TAGE). `u32` lanes, because the
    /// limit study folds 20-bit tags.
    folds: FoldLanes<u32, FOLD_LANES, 2>,
    rcr: Rcr,
    ctt: Option<ContextTrackingTable>,
    /// Opt-W oracle: the shallow context IDs that are deep; every other
    /// context is shallow.
    oracle: Option<FastSet<u64>>,
    /// Observed final depth decision per tracked shallow context.
    depth_decisions: FastMap<u64, bool>,
    /// Selected contexts awaiting activation (index 0 = current).
    ctx_queue: VecDeque<SelectedCtx>,
    store: PatternStore,
    pb: PatternBuffer,
    /// Recently active context IDs, for the wrong-path pollution model.
    recent_ctxs: VecDeque<u64>,
    stats: LlbpStats,
    /// Whether the most recent conditional prediction was provided by the
    /// pattern buffer (first-cycle in an overriding pipeline, §VII-C).
    last_provided: bool,
    clock: u64,
    /// Prefetches to issue with zero latency (wrong-path warmed them).
    boosted: u32,
    shallow_lengths: LengthSet,
    deep_lengths: LengthSet,
}

impl Llbp {
    /// Builds LLBP-X when `cfg` has a [`depth`](LlbpConfig::depth) part,
    /// and otherwise the original LLBP (or a limit-study variant).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn new(cfg: LlbpConfig) -> Self {
        Self::build(cfg, None)
    }

    /// Builds LLBP-X with pre-computed depth decisions (the paper's
    /// "LLBP-X Opt-W" upper bound): the shallow context IDs in
    /// `deep_contexts` are deep and every other context is shallow, fixed
    /// from the first instruction, so no retraining is lost on transitions.
    /// The deep entries of a converged LLBP-X run's
    /// [`depth_decisions`](Self::depth_decisions) are exactly such a list.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation or has no depth part.
    pub fn with_oracle(cfg: LlbpConfig, deep_contexts: impl IntoIterator<Item = u64>) -> Self {
        if cfg.depth.is_none() {
            panic!(
                "LLBP-X Opt-W needs a depth-adapting config; `{}` has none",
                cfg.label
            );
        }
        Self::build(cfg, Some(deep_contexts.into_iter().collect()))
    }

    fn build(cfg: LlbpConfig, oracle: Option<FastSet<u64>>) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid LLBP config `{}`: {e}", cfg.label);
        }
        let tag_bits = cfg.pattern_tag_bits;
        let folds = FoldLanes::new(
            &HISTORY_LENGTHS,
            [&[tag_bits; NUM_TABLES], &[tag_bits - 1; NUM_TABLES]],
        );
        let store = if cfg.infinite_contexts {
            PatternStore::infinite()
        } else {
            PatternStore::finite(cfg.cd_log2_sets, CD_WAYS, CONTEXT_TAG_BITS)
        };
        let ctt = cfg.depth.filter(|_| oracle.is_none()).map(|depth| {
            ContextTrackingTable::new(
                CTT_LOG2_SETS,
                depth.ctt_ways,
                CTT_TAG_BITS,
                AVG_HIST_SATURATION,
            )
        });
        let stats = LlbpStats {
            analysis: cfg.analysis.then(AnalysisStats::default),
            ..LlbpStats::default()
        };
        Llbp {
            tsl: TageScl::new(cfg.tsl.clone()),
            folds,
            rcr: Rcr::new(),
            ctt,
            oracle,
            depth_decisions: FastMap::default(),
            ctx_queue: VecDeque::with_capacity(SKIP_DEPTH + 2),
            store,
            pb: PatternBuffer::new(PB_ENTRIES),
            recent_ctxs: VecDeque::with_capacity(32),
            stats,
            last_provided: false,
            clock: 0,
            boosted: 0,
            shallow_lengths: LengthSet::shallow_range(),
            deep_lengths: LengthSet::deep_range(),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &LlbpConfig {
        &self.cfg
    }

    /// Run statistics.
    pub fn stats(&self) -> &LlbpStats {
        &self.stats
    }

    /// Final depth decision observed per tracked shallow context; empty
    /// unless the CTT decides depths (LLBP-X without an oracle).
    pub fn depth_decisions(&self) -> &FastMap<u64, bool> {
        &self.depth_decisions
    }

    /// The context tracking table, when depth adaptation is active
    /// (diagnostics).
    pub fn ctt(&self) -> Option<&ContextTrackingTable> {
        self.ctt.as_ref()
    }

    /// Flushes the pattern buffer so prefetch classifications are final.
    /// Call once at the end of a measurement run.
    pub fn finish(&mut self) {
        for ev in self.pb.drain() {
            Self::account_eviction(&mut self.stats, &mut self.store, ev);
        }
    }

    /// Active history lengths for a context of the given depth.
    fn allowed_lengths(&self, deep: bool) -> &LengthSet {
        match self.cfg.depth {
            Some(depth) if depth.history_range_selection => {
                if deep {
                    &self.deep_lengths
                } else {
                    &self.shallow_lengths
                }
            }
            _ => &self.cfg.lengths,
        }
    }

    /// Pattern tags for every history length under the current history.
    fn pattern_tags(&self, pc: u64) -> [u32; NUM_TABLES] {
        let mask = (1u64 << self.cfg.pattern_tag_bits) - 1;
        let (fold1, fold2) = (self.folds.lane(0), self.folds.lane(1));
        std::array::from_fn(|i| {
            (((pc >> 2) ^ u64::from(fold1[i]) ^ (u64::from(fold2[i]) << 1)) & mask) as u32
        })
    }

    fn current_context(&self) -> SelectedCtx {
        self.ctx_queue.front().copied().unwrap_or(BOOT_CTX)
    }

    fn account_eviction(stats: &mut LlbpStats, store: &mut PatternStore, ev: Evicted) {
        if ev.dirty {
            store.insert(ev.cid, ev.set);
            stats.ps_writes += 1;
        }
        if ev.prefetched {
            if ev.unused {
                stats.prefetch_unused += 1;
            } else if ev.late {
                stats.prefetch_late += 1;
            } else {
                stats.prefetch_on_time += 1;
            }
        }
    }

    /// Ensures the current context's pattern set is present in the PB for
    /// an update-time access; returns its index.
    fn ensure_pb_set(&mut self, cid: u64) -> usize {
        match self.pb.lookup(cid, u64::MAX) {
            // u64::MAX: update happens at commit, in-flight fills are
            // visible to the update path.
            PbLookup::Ready(i) => i,
            PbLookup::Inflight => unreachable!("lookup at u64::MAX is never in flight"),
            PbLookup::Miss => {
                let (set, prefetched) = match self.store.lookup(cid) {
                    Some(set) => {
                        self.stats.demand_fetches += 1;
                        self.stats.ps_reads += 1;
                        (set.clone(), false)
                    }
                    None => {
                        self.stats.sets_created += 1;
                        (PatternSet::new(), false)
                    }
                };
                if let Some(ev) = self.pb.insert(cid, set, self.clock, prefetched) {
                    Self::account_eviction(&mut self.stats, &mut self.store, ev);
                }
                // `insert` pushes the new entry last and stamps it most
                // recently used, so its index needs no second lookup.
                self.pb.len() - 1
            }
        }
    }

    /// Handles one conditional branch: predict, train, allocate.
    fn predict_and_train(&mut self, record: &BranchRecord) -> bool {
        let pc = record.pc;
        let taken = record.taken;
        self.stats.cond_branches += 1;
        self.stats.pb_accesses += 1;

        let tage = self.tsl.tage_info(pc);
        let linfo = self.tsl.loop_info(pc);
        let tags = self.pattern_tags(pc);

        let cur = if self.cfg.no_contextualization {
            SelectedCtx {
                cid: pc,
                cid2: pc,
                deep: false,
            }
        } else {
            self.current_context()
        };
        // `LengthSet` is `Copy` (inline storage): grabbing it by value costs
        // a small memcpy and releases the borrow of `self`.
        let allowed = *self.allowed_lengths(cur.deep);

        // --- LLBP pattern match -----------------------------------------
        // The PB entry that served the match; nothing touches the PB again
        // before training, so the index stays valid until then.
        let mut pb_index = None;
        let m: Option<PatternMatch> = {
            let _t = telemetry::scope!("llbp::pattern_lookup");
            if self.cfg.no_contextualization {
                self.store
                    .lookup(cur.cid)
                    .and_then(|set| set.find_longest(&tags, &allowed))
            } else {
                match self.pb.lookup(cur.cid, self.clock) {
                    PbLookup::Ready(i) => {
                        let found = self.pb.entry(i).set.find_longest(&tags, &allowed);
                        if found.is_some() {
                            self.pb.entry_mut(i).used = true;
                            pb_index = Some(i);
                        }
                        found
                    }
                    PbLookup::Inflight | PbLookup::Miss => None,
                }
            }
        };

        // LLBP overrides only with a same-or-longer pattern (§II-C.3) and,
        // like TAGE's use-alt-on-newly-allocated policy, a still-weak
        // pattern does not overturn a disagreeing primary prediction.
        let llbp_provides = m
            .map(|pm| {
                HISTORY_LENGTHS[pm.len_idx as usize] >= tage.provider_history_len()
                    && !(pm.weak && pm.taken != tage.pred)
            })
            .unwrap_or(false);

        // --- combine ------------------------------------------------------
        let base_pred = if llbp_provides {
            m.unwrap_or_else(|| unreachable!("provides implies match"))
                .taken
        } else {
            tage.pred
        };
        let tage_conf = TageScl::input_confidence(&tage);
        let mut final_pred = base_pred;
        let mut sc_used = None;
        if !(llbp_provides && self.cfg.suppress_sc) {
            let conf = if llbp_provides {
                if m.unwrap_or_else(|| unreachable!("provides implies match"))
                    .confident
                {
                    ScInputConfidence::High
                } else {
                    ScInputConfidence::Medium
                }
            } else {
                tage_conf
            };
            let eval = self.tsl.sc_eval(pc, base_pred, conf);
            if eval.decisive {
                final_pred = eval.pred;
            }
            sc_used = Some((eval, base_pred));
        }
        if self.tsl.loop_enabled() && linfo.hit() && linfo.confident {
            final_pred = linfo.pred;
        }

        // --- statistics (useful/harmful attribution) ----------------------
        if final_pred != taken {
            self.stats.mispredicts += 1;
        }
        self.last_provided = llbp_provides;
        if llbp_provides {
            self.stats.llbp_provided += 1;
            let pm = m.unwrap_or_else(|| unreachable!("provides implies match"));
            // What would the standalone baseline TSL have predicted?
            let baseline_sc = self.tsl.sc_eval(pc, tage.pred, tage_conf);
            let baseline = TageScl::combine(tage.pred, linfo, self.tsl.loop_enabled(), baseline_sc);
            if pm.taken == taken && baseline != taken {
                self.stats.llbp_useful += 1;
                if let Some(analysis) = &mut self.stats.analysis {
                    analysis.record_useful(
                        cur.cid,
                        PatternKey {
                            pc,
                            len_idx: pm.len_idx,
                            tag: tags[pm.len_idx as usize],
                        },
                    );
                }
            } else if pm.taken != taken && baseline == taken {
                self.stats.llbp_harmful += 1;
            }
        }

        // --- train the TSL -------------------------------------------------
        self.tsl.train_without_sc(pc, taken, &tage, &linfo);
        if let Some((eval, input)) = sc_used {
            self.tsl.train_sc_with_input(taken, input, eval);
        }

        // --- train the matched pattern -------------------------------------
        if let Some(pm) = m {
            if self.cfg.no_contextualization {
                if let Some(set) = self.store.lookup_mut(cur.cid) {
                    set.train(pm.slot, taken);
                }
            } else if let Some(i) = pb_index {
                let changed = self.pb.entry_mut(i).set.train(pm.slot, taken);
                if changed {
                    self.pb.entry_mut(i).dirty = true;
                }
                self.check_overflow(i, cur.cid2);
            }
        }

        // --- allocate on a final misprediction ------------------------------
        if final_pred != taken {
            let provider_bits = if llbp_provides {
                HISTORY_LENGTHS[m
                    .unwrap_or_else(|| unreachable!("provides implies match"))
                    .len_idx as usize]
            } else {
                tage.provider_history_len()
            };
            self.allocate(taken, provider_bits, &tags, cur, &allowed);
            self.on_mispredict();
        }

        final_pred
    }

    /// Allocates one pattern with a longer history than the mispredicting
    /// provider, honoring depth-based history ranges and CTT feedback.
    fn allocate(
        &mut self,
        taken: bool,
        provider_bits: usize,
        tags: &[u32; NUM_TABLES],
        cur: SelectedCtx,
        allowed: &LengthSet,
    ) {
        // What TAGE would need (the full 21-length menu) steers the CTT
        // even when the active range drops the allocation (§V-B.1, §V-C).
        let needed_idx =
            (0..NUM_TABLES as u8).find(|&i| HISTORY_LENGTHS[i as usize] > provider_bits);
        let Some(needed_idx) = needed_idx else {
            return; // already at the longest history
        };
        self.stats.alloc_len_histogram[needed_idx as usize] += 1;

        if let (Some(depth), Some(ctt)) = (self.cfg.depth, &mut self.ctt) {
            if ctt.is_tracked(cur.cid2) {
                // "Long" is inclusive of H_th itself: an allocation landing
                // on the threshold rung means the provider already sits just
                // below it, i.e. the context is pushing the shallow ceiling.
                let long = HISTORY_LENGTHS[needed_idx as usize] >= depth.h_th;
                ctt.observe_allocation(cur.cid2, long);
                self.depth_decisions
                    .insert(cur.cid2, ctt.peek_deep(cur.cid2));
                self.stats.depth_transitions = ctt.transitions();
            }
        }

        let Some(alloc_idx) = allowed.next_longer(provider_bits) else {
            if self
                .cfg
                .depth
                .is_some_and(|depth| depth.history_range_selection)
            {
                self.stats.alloc_dropped_range += 1;
            }
            return;
        };

        let capacity = if self.cfg.infinite_patterns {
            None
        } else {
            Some(PATTERNS_PER_SET)
        };

        if self.cfg.no_contextualization {
            if self.store.lookup(cur.cid).is_none() {
                self.store.insert(cur.cid, PatternSet::new());
                self.stats.sets_created += 1;
            }
            let set = self
                .store
                .lookup_mut(cur.cid)
                .unwrap_or_else(|| unreachable!("set just ensured"));
            set.allocate(
                tags[alloc_idx as usize],
                alloc_idx,
                taken,
                capacity,
                allowed,
            );
            self.stats.allocations += 1;
            return;
        }

        let i = self.ensure_pb_set(cur.cid);
        let allowed = *allowed;
        let entry = self.pb.entry_mut(i);
        entry.set.allocate(
            tags[alloc_idx as usize],
            alloc_idx,
            taken,
            capacity,
            &allowed,
        );
        entry.dirty = true;
        self.stats.allocations += 1;
        self.check_overflow(i, cur.cid2);
    }

    /// PB → CTT overflow signal (§V-B.1): the set holds too many confident
    /// patterns, or it has churned through far more allocations than its
    /// capacity (the `T_max` heuristic). Only LLBP-X without an oracle has
    /// a CTT to signal.
    fn check_overflow(&mut self, pb_index: usize, cid2: u64) {
        let Some(ctt) = &mut self.ctt else { return };
        let set = &self.pb.entry(pb_index).set;
        if set.confident_count() >= OVERFLOW_THRESHOLD
            || set.lifetime_allocations() >= 2 * PATTERNS_PER_SET as u16
        {
            ctt.begin_tracking(cid2);
        }
    }

    /// Wrong-path prefetch modelling (Fig. 14a). On a misprediction the
    /// real frontend runs ahead on the wrong path for a few fetch cycles:
    /// in `Include` mode the next prefetches are modelled as already issued
    /// (zero latency) plus one stale-context pollution prefetch; in `Flush`
    /// mode in-flight fills are dropped instead.
    fn on_mispredict(&mut self) {
        match self.cfg.false_path {
            FalsePathMode::Include => {
                self.boosted = 2;
                if !self.recent_ctxs.is_empty() {
                    let pick = (self.stats.mispredicts.wrapping_mul(7) as usize + 3)
                        % self.recent_ctxs.len();
                    let stale = self.recent_ctxs[pick];
                    self.issue_prefetch(stale);
                }
            }
            FalsePathMode::Flush => {
                let _ = self.pb.flush_inflight(self.clock);
            }
        }
    }

    /// Issues a prefetch for `cid` if it is directory-resident and not
    /// already buffered.
    fn issue_prefetch(&mut self, cid: u64) {
        let _t = telemetry::scope!("llbp::prefetch");
        if self.pb.touch(cid) {
            return;
        }
        let Some(set) = self.store.lookup(cid) else {
            return;
        };
        let set = set.clone();
        self.stats.prefetches_issued += 1;
        self.stats.ps_reads += 1;
        let arrival = if self.boosted > 0 {
            self.boosted -= 1;
            self.clock
        } else {
            self.clock + self.cfg.latency_events
        };
        if let Some(ev) = self.pb.insert(cid, set, arrival, true) {
            Self::account_eviction(&mut self.stats, &mut self.store, ev);
        }
    }

    /// RCR update on an unconditional branch: select the upcoming context
    /// and trigger its prefetch (§II-C.3, §V-B.2).
    fn on_unconditional(&mut self, record: &BranchRecord) {
        self.rcr.push(record.pc);
        if self.cfg.no_contextualization {
            return;
        }

        let sel = if self.cfg.depth.is_some() {
            self.stats.ctt_accesses += 1;
            let cid2 = self.rcr.context_id(W_SHALLOW);
            let deep = match (&self.oracle, &mut self.ctt) {
                (Some(deep_contexts), _) => deep_contexts.contains(&cid2),
                (None, Some(ctt)) => ctt.is_deep(cid2),
                (None, None) => false,
            };
            let cid = if deep {
                self.rcr.context_id(W_DEEP)
            } else {
                cid2
            };
            SelectedCtx { cid, cid2, deep }
        } else {
            let cid = self.rcr.context_id(self.cfg.w);
            SelectedCtx {
                cid,
                cid2: cid,
                deep: false,
            }
        };

        self.ctx_queue.push_back(sel);
        if self.ctx_queue.len() > SKIP_DEPTH + 1 {
            let activated = self
                .ctx_queue
                .pop_front()
                .unwrap_or_else(|| unreachable!("queue nonempty"));
            if self.recent_ctxs.len() == 32 {
                self.recent_ctxs.pop_front();
            }
            self.recent_ctxs.push_back(activated.cid);
        }

        self.stats.cd_accesses += 1;
        self.issue_prefetch(sel.cid);
    }
}

impl DirectionPredictor for Llbp {
    fn process(&mut self, input: PredictInput<'_>) -> Update {
        let record = input.record;
        self.clock += 1;
        let pred = record
            .kind
            .is_conditional()
            .then(|| self.predict_and_train(record));
        // Histories advance after prediction/update, exactly once per
        // branch: the pattern-tag folds take the bits TAGE's update read.
        self.tsl.update_history(record);
        self.folds.update(self.tsl.outgoing());
        if record.kind.is_unconditional() {
            self.on_unconditional(record);
        }
        Update {
            pred,
            first_cycle: pred.is_some() && self.last_provided,
        }
    }

    fn name(&self) -> String {
        self.cfg.label.clone()
    }

    fn storage_bits(&self) -> u64 {
        let tsl = self.tsl.storage_bits();
        let second = self.cfg.storage_bits();
        if tsl == u64::MAX || second == u64::MAX {
            return u64::MAX;
        }
        tsl + second
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traces::BranchKind;

    fn cond(pc: u64, taken: bool) -> BranchRecord {
        BranchRecord::cond(pc, pc + 0x100, taken, 4)
    }

    fn drive(p: &mut Llbp, rec: &BranchRecord) -> Option<bool> {
        p.process(PredictInput::new(rec)).pred
    }

    fn call(pc: u64, target: u64) -> BranchRecord {
        BranchRecord::new(pc, target, BranchKind::DirectCall, true, 4)
    }

    #[test]
    fn processes_mixed_branch_streams() {
        let mut p = Llbp::new(LlbpConfig::paper_baseline());
        for i in 0..2000u64 {
            assert!(drive(&mut p, &cond(0x1000 + (i % 8) * 64, i % 3 == 0)).is_some());
            if i % 5 == 0 {
                assert!(drive(&mut p, &call(0x5000 + (i % 4) * 256, 0x9000)).is_none());
            }
        }
        assert_eq!(p.stats().cond_branches, 2000);
        assert!(p.stats().cd_accesses > 0);
    }

    #[test]
    fn context_dependent_branch_is_learned_via_patterns() {
        // A branch whose outcome equals "which caller did we come from" —
        // invisible to the bimodal, trivial for context-tagged patterns.
        let mut p = Llbp::new(LlbpConfig::zero_latency());
        let mut wrong = 0;
        let mut x = 1u64;
        for i in 0..30_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let caller = x % 4;
            // A caller-specific chain of 6 calls: even after the D=4 skip,
            // the W=8 context window still covers caller-specific UBs (as a
            // real call chain to a handler would). The caller is encoded in
            // PC bit 2 as well, so it reaches the global history.
            for k in 0..6u64 {
                drive(
                    &mut p,
                    &call(0x10_000 + caller * 4 + k * 0x100, 0x20_000 + k * 0x100),
                );
            }
            let taken = caller.is_multiple_of(2);
            let pred = drive(&mut p, &cond(0x30_040, taken)).unwrap();
            if i > 20_000 && pred != taken {
                wrong += 1;
            }
            for k in 0..6u64 {
                drive(
                    &mut p,
                    &BranchRecord::new(
                        0x30_100 + k * 0x10,
                        0x10_000 + k * 0x10,
                        BranchKind::Return,
                        true,
                        4,
                    ),
                );
            }
        }
        assert!(
            wrong < 1500,
            "context-correlated branch mispredicted {wrong}/10000"
        );
        assert!(
            p.stats().llbp_provided > 0,
            "LLBP should provide predictions"
        );
    }

    #[test]
    fn llbpx_constructs_with_and_without_oracle() {
        let p = Llbp::new(LlbpConfig::llbpx());
        assert!(p.config().depth.is_some() && p.ctt().is_some());
        assert_eq!(p.name(), "LLBP-X");
        let p = Llbp::with_oracle(LlbpConfig::llbpx(), [42u64]);
        assert!(
            p.config().depth.is_some() && p.ctt().is_none(),
            "the oracle replaces the CTT"
        );
        assert!(Llbp::new(LlbpConfig::paper_baseline()).ctt().is_none());
    }

    #[test]
    #[should_panic(expected = "`LLBP-0Lat` has none")]
    fn opt_w_needs_a_depth_adapting_config() {
        let _ = Llbp::with_oracle(LlbpConfig::zero_latency(), []);
    }

    #[test]
    fn storage_accounts_for_all_levels() {
        let llbp = Llbp::new(LlbpConfig::paper_baseline());
        let llbpx = Llbp::new(LlbpConfig::llbpx());
        let diff = llbpx.storage_bits() as i64 - llbp.storage_bits() as i64;
        // LLBP-X adds the 9 KiB CTT (§V-D.3).
        let kib = diff as f64 / 8.0 / 1024.0;
        assert!((8.0..=10.0).contains(&kib), "CTT overhead was {kib:.2} KiB");
        assert_eq!(
            Llbp::new(LlbpConfig::with_infinite_patterns()).storage_bits(),
            u64::MAX
        );
    }

    #[test]
    fn finish_drains_the_pattern_buffer() {
        let mut p = Llbp::new(LlbpConfig::paper_baseline());
        let mut x = 9u64;
        for _ in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Only two distinct call sites: W=8 contexts recur quickly, so
            // written-back sets are prefetched on later visits. The branch
            // outcome is unpredictable, forcing allocations (and therefore
            // pattern sets, writebacks and prefetch fills) everywhere.
            drive(&mut p, &call(0x10_000 + (x % 2) * 0x40, 0x20_000));
            let noise = x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 63 == 1;
            drive(&mut p, &cond(0x30_000 + (x % 32) * 0x40, noise));
        }
        p.finish();
        let s = p.stats();
        let classified = s.prefetch_on_time + s.prefetch_late + s.prefetch_unused;
        // After finish, every issued prefetch whose fill completed must be
        // classified (still-in-flight fills were drained too).
        assert!(
            classified > 0,
            "prefetches should be classified after finish"
        );
        assert!(classified <= s.prefetches_issued);
    }

    #[test]
    fn zero_latency_never_reports_late_prefetches() {
        let mut p = Llbp::new(LlbpConfig::zero_latency());
        let mut x = 5u64;
        for _ in 0..30_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            drive(&mut p, &call(0x10_000 + (x % 8) * 0x40, 0x20_000));
            drive(&mut p, &cond(0x30_000 + (x % 16) * 0x40, x & 2 == 0));
        }
        p.finish();
        assert_eq!(p.stats().prefetch_late, 0, "0-latency fills are never late");
    }

    #[test]
    fn no_contextualization_uses_pc_contexts() {
        let mut p = Llbp::new(LlbpConfig::without_contextualization());
        let mut x = 3u64;
        for _ in 0..5000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            drive(&mut p, &cond(0x30_000 + (x % 16) * 0x40, x & 2 == 0));
        }
        // No prefetch machinery in PC-context mode.
        assert_eq!(p.stats().prefetches_issued, 0);
        assert!(p.stats().allocations > 0);
    }

    #[test]
    fn depth_decisions_are_recorded_for_oracle_replay() {
        let mut p = Llbp::new(LlbpConfig::llbpx());
        // Hammer one context with long-history mispredictions to push it
        // deep: random outcomes under a stable 2-UB context.
        let mut x = 11u64;
        for _ in 0..60_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            drive(&mut p, &call(0x10_000, 0x20_000));
            drive(&mut p, &call(0x20_010, 0x30_000));
            for b in 0..6u64 {
                drive(&mut p, &cond(0x30_000 + b * 0x40, (x >> b) & 1 == 1));
            }
        }
        // Some contexts should at least be tracked; decisions map exists.
        let _ = p.depth_decisions();
        assert!(p.stats().allocations > 0);
    }
}
