//! TAGE-SC-L: the complete baseline predictor ("TSL" in the paper).
//!
//! Combination order follows the deployed design: TAGE produces the primary
//! prediction; the statistical corrector may override it when its perceptron
//! sum is decisive; a confident loop predictor overrides everything.
//!
//! The staged API ([`tage_info`](TageScl::tage_info) /
//! [`sc_eval`](TageScl::sc_eval) / [`train`](TageScl::train) /
//! [`update_history`](TageScl::update_history)) exists for the `llbpx`
//! crate, which splices its pattern buffer between TAGE and the SC exactly
//! as the hardware proposal does.

use crate::config::TslConfig;
use crate::folded::{OutgoingBits, FOLD_LANES};
use crate::history::GlobalHistory;
use crate::loop_pred::{LoopInfo, LoopPredictor};
use crate::predictor::{DirectionPredictor, PredictInput, Update};
use crate::sc::{ScEval, ScInputConfidence, StatisticalCorrector};
use crate::tage::{Tage, TageInfo};
use traces::BranchRecord;

/// Breakdown of one TSL prediction.
#[derive(Debug, Clone)]
pub struct TslInfo {
    /// TAGE component result.
    pub tage: TageInfo,
    /// Loop predictor result.
    pub loop_info: LoopInfo,
    /// Statistical corrector result (evaluated with TAGE's prediction as
    /// input).
    pub sc: ScEval,
    /// Final combined prediction.
    pub pred: bool,
}

/// The TAGE-SC-L predictor.
#[derive(Debug, Clone)]
pub struct TageScl {
    cfg: TslConfig,
    tage: Tage,
    loop_pred: LoopPredictor,
    sc: StatisticalCorrector,
}

impl TageScl {
    /// Builds a TSL from `cfg`.
    pub fn new(cfg: TslConfig) -> Self {
        TageScl {
            tage: Tage::new(cfg.tage.clone()),
            loop_pred: LoopPredictor::new(6, 4),
            sc: StatisticalCorrector::new(10),
            cfg,
        }
    }

    /// The configuration this predictor was built with.
    pub fn config(&self) -> &TslConfig {
        &self.cfg
    }

    /// Shared global history.
    pub fn history(&self) -> &GlobalHistory {
        self.tage.history()
    }

    /// The bits the last history update moved through each history
    /// length's window (the `llbpx` crate folds its pattern tags from
    /// these; see [`Tage::outgoing`]).
    pub fn outgoing(&self) -> &OutgoingBits<FOLD_LANES> {
        self.tage.outgoing()
    }

    /// Stage 1: TAGE lookup.
    pub fn tage_info(&self, pc: u64) -> TageInfo {
        self.tage.predict(pc)
    }

    /// Stage 2: loop predictor lookup.
    pub fn loop_info(&self, pc: u64) -> LoopInfo {
        self.loop_pred.lookup(pc)
    }

    /// Confidence class of a TAGE result, for the SC input term.
    pub fn input_confidence(info: &TageInfo) -> ScInputConfidence {
        if info.provider.is_none() || info.provider_weak {
            ScInputConfidence::Low
        } else if info.provider_confident {
            ScInputConfidence::High
        } else {
            ScInputConfidence::Medium
        }
    }

    /// Stage 3: statistical corrector evaluation for an arbitrary `input`
    /// prediction (TAGE's, or TAGE+LLBP's combined result).
    pub fn sc_eval(&self, pc: u64, input: bool, conf: ScInputConfidence) -> ScEval {
        self.sc.evaluate(pc, input, conf, self.tage.history())
    }

    /// Combines component results the way deployed TSL does.
    pub fn combine(tage_pred: bool, loop_info: LoopInfo, loop_enabled: bool, sc: ScEval) -> bool {
        let mut pred = tage_pred;
        if sc.decisive {
            pred = sc.pred;
        }
        if loop_enabled && loop_info.hit() && loop_info.confident {
            pred = loop_info.pred;
        }
        pred
    }

    /// Full prediction for a conditional branch at `pc`.
    pub fn predict(&self, pc: u64) -> TslInfo {
        let tage = self.tage_info(pc);
        let loop_info = self.loop_info(pc);
        let sc = self.sc_eval(pc, tage.pred, Self::input_confidence(&tage));
        let pred = Self::combine(tage.pred, loop_info, self.loop_pred.enabled(), sc);
        TslInfo {
            tage,
            loop_info,
            sc,
            pred,
        }
    }

    /// Trains every component on the resolved outcome.
    ///
    /// `info` must come from [`predict`](Self::predict) (or the staged
    /// calls) for the same branch, before any history update.
    pub fn train(&mut self, pc: u64, taken: bool, info: &TslInfo) {
        self.loop_pred
            .update(pc, &info.loop_info, taken, info.tage.pred);
        self.sc.train(taken, info.tage.pred, info.sc);
        self.tage.update(pc, taken, &info.tage);
    }

    /// Trains the SC with an explicit input prediction (used by LLBP-X,
    /// which feeds the combined TAGE+PB result into the SC). `eval` is the
    /// [`sc_eval`](Self::sc_eval) result for that `input`.
    pub fn train_sc_with_input(&mut self, taken: bool, input: bool, eval: ScEval) {
        self.sc.train(taken, input, eval);
    }

    /// Trains TAGE and the loop predictor only (no SC) — the original LLBP
    /// suppresses the SC when its pattern provides the prediction.
    /// `loop_info` is this branch's [`loop_info`](Self::loop_info).
    pub fn train_without_sc(
        &mut self,
        pc: u64,
        taken: bool,
        tage: &TageInfo,
        loop_info: &LoopInfo,
    ) {
        self.loop_pred.update(pc, loop_info, taken, tage.pred);
        self.tage.update(pc, taken, tage);
    }

    /// Whether the loop predictor chooser currently trusts loop predictions.
    pub fn loop_enabled(&self) -> bool {
        self.loop_pred.enabled()
    }

    /// Advances all histories past `record`; call once per dynamic branch.
    pub fn update_history(&mut self, record: &BranchRecord) {
        self.tage.update_history(record);
    }

    /// Direct access to the TAGE core (diagnostics).
    pub fn tage(&self) -> &Tage {
        &self.tage
    }
}

impl DirectionPredictor for TageScl {
    fn process(&mut self, input: PredictInput<'_>) -> Update {
        let record = input.record;
        let update = if record.kind.is_conditional() {
            let info = self.predict(record.pc);
            self.train(record.pc, record.taken, &info);
            Update::predicted(info.pred)
        } else {
            Update::unconditional()
        };
        self.update_history(record);
        update
    }

    fn name(&self) -> String {
        self.cfg.label.clone()
    }

    fn storage_bits(&self) -> u64 {
        let tage = self.tage.storage_bits();
        if tage == u64::MAX {
            return u64::MAX;
        }
        tage + self.loop_pred.storage_bits() + self.sc.storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TslConfig;

    fn drive(tsl: &mut TageScl, pc: u64, taken: bool) -> bool {
        let rec = BranchRecord::cond(pc, pc + 0x40, taken, 0);
        tsl.process(PredictInput::new(&rec))
            .pred
            .expect("conditional")
    }

    /// The same branch through a plain TAGE: TSL without its SC and loop
    /// predictor.
    fn drive_tage(tage: &mut Tage, pc: u64, taken: bool) -> bool {
        let rec = BranchRecord::cond(pc, pc + 0x40, taken, 0);
        let info = tage.predict(pc);
        tage.update(pc, taken, &info);
        tage.update_history(&rec);
        info.pred
    }

    #[test]
    fn loop_component_captures_fixed_trip_counts() {
        // Trip count 37 defeats short TAGE tables quickly; the loop
        // predictor should make the exit nearly free.
        let mut with_loop = TageScl::new(TslConfig::kilobytes(64));
        let mut without = Tage::new(TslConfig::kilobytes(64).tage);
        let mut misses = [0u32; 2];
        for rep in 0..120 {
            for i in 0..38 {
                let taken = i < 37;
                let wrong = [
                    drive(&mut with_loop, 0x8000, taken) != taken,
                    drive_tage(&mut without, 0x8000, taken) != taken,
                ];
                for (mi, wrong) in wrong.into_iter().enumerate() {
                    if wrong && rep > 60 {
                        misses[mi] += 1;
                    }
                }
            }
        }
        assert!(
            misses[0] <= misses[1],
            "loop predictor should help on fixed loops: with={} without={}",
            misses[0],
            misses[1]
        );
    }

    #[test]
    fn sc_reduces_mispredictions_on_noisy_biased_branches() {
        // 85%-taken noise branch: TAGE keeps allocating useless long
        // patterns; the SC recognizes the bias.
        let run = |drive: &mut dyn FnMut(bool) -> bool| {
            let mut x = 0xdead_beefu64;
            let mut wrong = 0;
            for i in 0..6000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let taken = (x % 100) < 85;
                if drive(taken) != taken && i > 2000 {
                    wrong += 1;
                }
            }
            wrong
        };
        let mut tsl = TageScl::new(TslConfig::kilobytes(64));
        let with_sc = run(&mut |taken| drive(&mut tsl, 0x9000, taken));
        let mut tage = Tage::new(TslConfig::kilobytes(64).tage);
        let without_sc = run(&mut |taken| drive_tage(&mut tage, 0x9000, taken));
        assert!(
            with_sc <= without_sc + 40,
            "SC should not hurt biased branches: with={with_sc} without={without_sc}"
        );
    }

    #[test]
    fn staged_api_matches_process() {
        let mut a = TageScl::new(TslConfig::kilobytes(64));
        let mut b = TageScl::new(TslConfig::kilobytes(64));
        let mut x = 77u64;
        for _ in 0..3000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pc = 0x1000 + (x % 16) * 64;
            let taken = (x >> 8).is_multiple_of(3);
            let rec = BranchRecord::cond(pc, pc + 0x100, taken, 2);

            let pa = a.process(PredictInput::new(&rec)).pred.unwrap();

            // Staged path, exactly what `process` does internally.
            let info = b.predict(pc);
            b.train(pc, taken, &info);
            b.update_history(&rec);
            assert_eq!(pa, info.pred, "staged and fused paths must agree");
        }
    }

    #[test]
    fn unconditional_branches_only_move_history() {
        let mut tsl = TageScl::new(TslConfig::kilobytes(64));
        let call = BranchRecord::new(0x100, 0x9000, traces::BranchKind::DirectCall, true, 0);
        assert_eq!(tsl.process(PredictInput::new(&call)).pred, None);
        assert_eq!(tsl.history().len(), 1);
    }

    #[test]
    fn storage_budget_is_in_the_declared_class() {
        let tsl = TageScl::new(TslConfig::kilobytes(64));
        let kib = tsl.storage_bits() as f64 / 8.0 / 1024.0;
        assert!((40.0..=80.0).contains(&kib), "64K TSL is {kib:.1} KiB");
        assert_eq!(TageScl::new(TslConfig::infinite()).storage_bits(), u64::MAX);
    }

    #[test]
    fn name_reflects_configuration() {
        assert_eq!(TageScl::new(TslConfig::kilobytes(512)).name(), "512K TSL");
    }
}
