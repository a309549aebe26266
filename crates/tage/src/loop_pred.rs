//! Loop exit predictor (the "L" of TAGE-SC-L).
//!
//! Detects branches with a fixed trip count and predicts the exit iteration
//! exactly — a pattern TAGE can only capture by burning one entry per
//! iteration count.

/// One loop table entry.
#[derive(Debug, Clone, Copy, Default)]
struct LoopEntry {
    tag: u16,
    /// Trip count observed for the last completed loop execution.
    past_iter: u16,
    /// Iterations seen in the current execution.
    current_iter: u16,
    /// Confidence that `past_iter` repeats (saturating).
    confidence: u8,
    /// Age for replacement.
    age: u8,
    /// Direction taken while looping (exit is the opposite).
    dir: bool,
    valid: bool,
}

/// What the loop predictor has to say about a branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopInfo {
    /// Predicted direction.
    pub pred: bool,
    /// The matching valid entry (its slot in the table), `None` on a miss;
    /// [`LoopPredictor::update`] trains this slot without a second scan.
    entry: Option<usize>,
    /// Entry confidence is saturated — prediction is trustworthy.
    pub confident: bool,
}

impl LoopInfo {
    /// A valid entry matched.
    #[inline]
    pub fn hit(&self) -> bool {
        self.entry.is_some()
    }
}

const CONF_MAX: u8 = 3;
const AGE_MAX: u8 = 31;
const ITER_MAX: u16 = 1023; // 10-bit iteration counters

/// A set-associative loop predictor.
///
/// ```
/// use tage::loop_pred::LoopPredictor;
///
/// let mut lp = LoopPredictor::new(6, 4);
/// // A loop taken 5 times then exiting, repeated.
/// for _ in 0..8 {
///     for i in 0..6 {
///         let taken = i < 5;
///         let info = lp.lookup(0x700);
///         lp.update(0x700, &info, taken, info.pred);
///     }
/// }
/// // By now the trip count is locked in with full confidence.
/// for i in 0..6 {
///     let info = lp.lookup(0x700);
///     assert!(info.confident);
///     assert_eq!(info.pred, i < 5);
///     lp.update(0x700, &info, i < 5, info.pred);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct LoopPredictor {
    entries: Vec<LoopEntry>,
    sets_log2: u32,
    ways: usize,
    /// Meta-counter gating loop-predictor use against TAGE.
    with_loop: i8,
}

impl LoopPredictor {
    /// Creates a predictor with `2^sets_log2` sets of `ways` entries.
    pub fn new(sets_log2: u32, ways: usize) -> Self {
        assert!(
            ways > 0 && sets_log2 <= 12,
            "unreasonable loop predictor shape"
        );
        LoopPredictor {
            entries: vec![LoopEntry::default(); (1usize << sets_log2) * ways],
            sets_log2,
            ways,
            with_loop: 0,
        }
    }

    #[inline]
    fn set_base(&self, pc: u64) -> usize {
        let set = (pc >> 2) & ((1 << self.sets_log2) - 1);
        set as usize * self.ways
    }

    #[inline]
    fn tag_of(pc: u64) -> u16 {
        ((pc >> 2) ^ (pc >> 12) ^ (pc >> 18)) as u16 & 0x3fff
    }

    fn find(&self, pc: u64) -> Option<usize> {
        let base = self.set_base(pc);
        let tag = Self::tag_of(pc);
        (base..base + self.ways).find(|&i| self.entries[i].valid && self.entries[i].tag == tag)
    }

    /// Whether the meta-chooser currently trusts the loop predictor.
    pub fn enabled(&self) -> bool {
        self.with_loop >= 0
    }

    /// What the matching entry in `slot` predicts.
    #[inline]
    fn hit_info(slot: usize, e: &LoopEntry) -> LoopInfo {
        // `past_iter` taken iterations precede the exit: once the current
        // execution has seen that many, predict the exit.
        let pred = if e.past_iter > 0 && e.current_iter >= e.past_iter {
            !e.dir
        } else {
            e.dir
        };
        LoopInfo {
            pred,
            entry: Some(slot),
            confident: e.confidence == CONF_MAX,
        }
    }

    /// Queries the predictor (no state change).
    pub fn lookup(&self, pc: u64) -> LoopInfo {
        match self.find(pc) {
            Some(i) => Self::hit_info(i, &self.entries[i]),
            None => LoopInfo {
                pred: false,
                entry: None,
                confident: false,
            },
        }
    }

    /// Trains on the resolved outcome. `info` must be this predictor's
    /// [`lookup`](Self::lookup) of `pc` with no update since, so its slot
    /// and prediction still hold. `tage_pred` is the prediction the rest of
    /// the predictor produced, used to steer the meta-chooser.
    pub fn update(&mut self, pc: u64, info: &LoopInfo, taken: bool, tage_pred: bool) {
        if let Some(i) = info.entry {
            debug_assert!(
                i - i % self.ways == self.set_base(pc)
                    && self.entries[i].valid
                    && self.entries[i].tag == Self::tag_of(pc),
                "loop info of another branch or a stale lookup"
            );
            if info.confident && info.pred != tage_pred {
                // The chooser learns from genuine disagreements only.
                let delta = if info.pred == taken { 1 } else { -1 };
                self.with_loop = (self.with_loop + delta).clamp(-8, 7);
            }

            let e = &mut self.entries[i];
            if taken == e.dir {
                // Still looping.
                e.current_iter = (e.current_iter + 1).min(ITER_MAX);
                if e.past_iter > 0 && e.current_iter > e.past_iter {
                    // Ran longer than recorded: trip count is not stable.
                    e.confidence = 0;
                    e.past_iter = 0;
                    e.valid = e.age > 0;
                    e.age = e.age.saturating_sub(1);
                }
            } else {
                // Loop exited.
                if e.past_iter == e.current_iter && e.past_iter > 0 {
                    e.confidence = (e.confidence + 1).min(CONF_MAX);
                    e.age = (e.age + 2).min(AGE_MAX);
                } else {
                    e.past_iter = e.current_iter;
                    e.confidence = 0;
                }
                e.current_iter = 0;
            }
            return;
        }

        // Allocate on a taken branch only (loops iterate on taken).
        if taken {
            let base = self.set_base(pc);
            let victim = (base..base + self.ways)
                .min_by_key(|&i| (self.entries[i].valid, self.entries[i].age))
                .unwrap_or_else(|| unreachable!("ways > 0"));
            let v = &mut self.entries[victim];
            if v.valid && v.age > 0 {
                v.age -= 1; // protected: age out instead of replacing
            } else {
                *v = LoopEntry {
                    tag: Self::tag_of(pc),
                    past_iter: 0,
                    current_iter: 1,
                    confidence: 0,
                    age: 8,
                    dir: taken,
                    valid: true,
                };
            }
        }
    }

    /// Storage in bits: tag 14 + 2×10 iteration + conf 2 + age 5 + dir 1 +
    /// valid 1 per entry.
    pub fn storage_bits(&self) -> u64 {
        self.entries.len() as u64 * (14 + 10 + 10 + 2 + 5 + 1 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `reps` executions of a loop with `trip` taken iterations and
    /// returns mispredictions over the last `measured` executions when the
    /// predictor is confident.
    fn run_loop(trip: u16, reps: usize, measured: usize) -> usize {
        let mut lp = LoopPredictor::new(6, 4);
        let mut wrong = 0;
        for rep in 0..reps {
            for i in 0..=trip {
                let taken = i < trip;
                let info = lp.lookup(0x900);
                if rep >= reps - measured && info.confident && info.pred != taken {
                    wrong += 1;
                }
                lp.update(0x900, &info, taken, taken /* pretend tage is right */);
            }
        }
        wrong
    }

    #[test]
    fn locks_onto_fixed_trip_counts() {
        for trip in [1u16, 3, 7, 50] {
            assert_eq!(run_loop(trip, 12, 4), 0, "trip={trip}");
        }
    }

    #[test]
    fn unstable_trip_counts_never_reach_confidence() {
        let mut lp = LoopPredictor::new(6, 4);
        let mut confident_hits = 0;
        for rep in 0..30 {
            let trip = 3 + (rep % 5) as u16; // varies every execution
            for i in 0..=trip {
                let taken = i < trip;
                let info = lp.lookup(0x900);
                if info.confident {
                    confident_hits += 1;
                }
                lp.update(0x900, &info, taken, taken);
            }
        }
        assert_eq!(
            confident_hits, 0,
            "varying trip count must not gain confidence"
        );
    }

    #[test]
    fn miss_is_reported_as_miss() {
        let lp = LoopPredictor::new(6, 4);
        let info = lp.lookup(0xabc);
        assert!(!info.hit());
        assert!(!info.confident);
    }

    #[test]
    fn chooser_disables_a_misbehaving_loop_predictor() {
        let mut lp = LoopPredictor::new(6, 4);
        // Train confidence on trip 4, then change behavior and let TAGE win.
        for _ in 0..10 {
            for i in 0..5 {
                let taken = i < 4;
                let info = lp.lookup(0x900);
                lp.update(0x900, &info, taken, taken);
            }
        }
        assert!(lp.enabled());
        // Now the branch stops looping; TAGE predicts correctly, loop wrong.
        for _ in 0..40 {
            let info = lp.lookup(0x900);
            lp.update(0x900, &info, false, false);
        }
        assert!(!lp.enabled(), "chooser should turn the loop predictor off");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "another branch")]
    fn update_rejects_the_lookup_of_another_branch() {
        let mut lp = LoopPredictor::new(6, 4);
        let info = lp.lookup(0x900);
        lp.update(0x900, &info, true, true); // allocates 0x900's entry
        let info = lp.lookup(0x900);
        assert!(info.hit());
        lp.update(0x904, &info, true, true);
    }

    #[test]
    fn storage_is_proportional_to_entries() {
        let small = LoopPredictor::new(4, 2).storage_bits();
        let large = LoopPredictor::new(6, 4).storage_bits();
        assert_eq!(large, small * 8);
    }
}
