//! The execution-driven core model: block-based fetch + BTB/RAS +
//! direction-misprediction resteers + a retire-bandwidth backend.
//!
//! Cycle accounting. The frontend fetches instruction *blocks*: a block
//! ends at a taken branch (or at the fetch-width boundary), so
//!
//! ```text
//! fetch_cycles  = Σ ceil(block_len / fetch_width)
//! ```
//!
//! Penalty cycles are added for: direction mispredictions (full resteer),
//! taken branches whose target missed in the BTB (decode-time redirect),
//! and return-address-stack mispredictions (same redirect). The backend
//! bounds throughput at `retire_width` with a deterministic long-latency
//! stall component standing in for cache misses. Total cycles are
//!
//! ```text
//! cycles = max(fetch_cycles, retire_cycles) + penalties + backend_stalls
//! ```
//!
//! which is the standard decoupled frontend/backend bound used in
//! analytical pipeline studies, made execution-driven because fetch blocks,
//! BTB contents and predictions all come from the actual trace.

use tage::{DirectionPredictor, PredictInput};
use traces::{BranchKind, BranchRecord, BranchStream};

use crate::btb::Btb;
use crate::ras::ReturnAddressStack;

/// Parameters of the modelled core.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineParams {
    /// Instructions fetched per cycle (block bound).
    pub fetch_width: u64,
    /// Instructions retired per cycle.
    pub retire_width: u64,
    /// Full resteer penalty for a direction misprediction, in cycles.
    pub mispredict_penalty: u64,
    /// Decode-time redirect penalty for a BTB/RAS target miss, in cycles.
    pub redirect_penalty: u64,
    /// Backend long-latency stall cycles per 1000 instructions
    /// (cache/memory stand-in, applied deterministically).
    pub backend_stalls_per_kinstr: u64,
    /// BTB shape: log2 sets.
    pub btb_log2_sets: u32,
    /// BTB associativity.
    pub btb_ways: usize,
    /// Return address stack depth.
    pub ras_depth: usize,
}

impl PipelineParams {
    /// The Table II core: 8-wide, 16K-entry 8-way BTB, deep resteer.
    pub fn paper_table2() -> Self {
        PipelineParams {
            fetch_width: 8,
            retire_width: 8,
            mispredict_penalty: 20,
            redirect_penalty: 3,
            backend_stalls_per_kinstr: 220,
            btb_log2_sets: 11,
            btb_ways: 8,
            ras_depth: 32,
        }
    }
}

/// Cycle breakdown of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineResult {
    /// Instructions retired.
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Fetch-bound cycles (block structure).
    pub fetch_cycles: u64,
    /// Retire-bound cycles.
    pub retire_cycles: u64,
    /// Cycles lost to direction mispredictions.
    pub mispredict_cycles: u64,
    /// Cycles lost to BTB/RAS target redirects.
    pub redirect_cycles: u64,
    /// Backend long-latency stall cycles.
    pub backend_stall_cycles: u64,
    /// Conditional branches predicted.
    pub cond_branches: u64,
    /// Direction mispredictions.
    pub mispredicts: u64,
    /// Taken-branch target lookups that missed (BTB or RAS).
    pub target_misses: u64,
}

impl PipelineResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Speedup of this run over `base` (same instruction budget assumed).
    pub fn speedup_over(&self, base: &PipelineResult) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        (base.cycles as f64 / base.instructions.max(1) as f64)
            / (self.cycles as f64 / self.instructions.max(1) as f64)
    }

    /// Fraction of cycles lost to branch mispredictions (Top-Down style).
    pub fn branch_stall_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.mispredict_cycles as f64 / self.cycles as f64
        }
    }
}

/// The execution-driven pipeline model.
#[derive(Debug, Clone)]
pub struct PipelineModel {
    params: PipelineParams,
    btb: Btb,
    ras: ReturnAddressStack,
    /// Instructions in the current fetch block.
    block: u64,
}

impl PipelineModel {
    /// Builds a model from `params`.
    pub fn new(params: PipelineParams) -> Self {
        PipelineModel {
            btb: Btb::new(params.btb_log2_sets, params.btb_ways),
            ras: ReturnAddressStack::new(params.ras_depth),
            block: 0,
            params,
        }
    }

    /// Drives `predictor` over `stream`, accounting cycles until the
    /// stream ends. The predictor is trained as it goes (execution-driven).
    pub fn run<P, S>(&mut self, predictor: &mut P, mut stream: S) -> PipelineResult
    where
        P: DirectionPredictor + ?Sized,
        S: BranchStream,
    {
        let mut r = PipelineResult::default();
        while let Some(rec) = stream.next_branch() {
            self.step(predictor, &rec, &mut r);
        }
        self.finalize(&mut r);
        r
    }

    fn step<P: DirectionPredictor + ?Sized>(
        &mut self,
        predictor: &mut P,
        rec: &BranchRecord,
        r: &mut PipelineResult,
    ) {
        r.instructions += rec.instructions();
        self.block += rec.instructions();

        let pred = predictor.process(PredictInput::new(rec)).pred;
        if let Some(pred) = pred {
            r.cond_branches += 1;
            if pred != rec.taken {
                r.mispredicts += 1;
                r.mispredict_cycles += self.params.mispredict_penalty;
                // The resteer also ends the current fetch block.
                self.close_block(r);
            }
        }

        if rec.taken {
            // A taken branch terminates the fetch block and needs a target.
            let target_ok = match rec.kind {
                BranchKind::Return => {
                    let predicted = self.ras.pop();
                    predicted == Some(rec.target)
                }
                BranchKind::CondDirect | BranchKind::UncondDirect => {
                    // Direct targets are available at decode even on a BTB
                    // miss; only a miss costs the redirect.
                    let hit = self.btb.lookup(rec.pc).is_some();
                    self.btb.update(rec.pc, rec.target);
                    hit
                }
                BranchKind::UncondIndirect | BranchKind::IndirectCall => {
                    let hit = self.btb.lookup(rec.pc) == Some(rec.target);
                    self.btb.update(rec.pc, rec.target);
                    hit
                }
                BranchKind::DirectCall => {
                    let hit = self.btb.lookup(rec.pc).is_some();
                    self.btb.update(rec.pc, rec.target);
                    hit
                }
            };
            if rec.kind.is_call() {
                self.ras.push(rec.pc.wrapping_add(4));
            }
            if !target_ok {
                r.target_misses += 1;
                r.redirect_cycles += self.params.redirect_penalty;
            }
            self.close_block(r);
        }
    }

    #[inline]
    fn close_block(&mut self, r: &mut PipelineResult) {
        if self.block > 0 {
            r.fetch_cycles += self.block.div_ceil(self.params.fetch_width);
            self.block = 0;
        }
    }

    fn finalize(&mut self, r: &mut PipelineResult) {
        self.close_block(r);
        r.retire_cycles = r.instructions.div_ceil(self.params.retire_width);
        r.backend_stall_cycles = r.instructions * self.params.backend_stalls_per_kinstr / 1000;
        r.cycles = r.fetch_cycles.max(r.retire_cycles)
            + r.mispredict_cycles
            + r.redirect_cycles
            + r.backend_stall_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tage::{TageScl, TslConfig};
    use traces::{StreamExt, VecTrace};

    fn straight_line(n: usize) -> VecTrace {
        // Never-taken conditionals: pure straight-line code.
        VecTrace::new(
            (0..n)
                .map(|i| BranchRecord::cond(0x1000 + i as u64 * 64, 0x9000, false, 7))
                .collect(),
        )
    }

    fn predictor() -> TageScl {
        TageScl::new(TslConfig::kilobytes(64))
    }

    #[test]
    fn straight_line_code_is_fetch_or_retire_bound() {
        let mut model = PipelineModel::new(PipelineParams {
            backend_stalls_per_kinstr: 0,
            ..PipelineParams::paper_table2()
        });
        let r = model.run(&mut predictor(), straight_line(1000));
        // 8 instructions per record, width 8: ~1 cycle per record plus the
        // rare warmup mispredictions.
        assert!(r.ipc() > 5.0, "straight-line IPC was {}", r.ipc());
        assert_eq!(r.instructions, 8000);
    }

    #[test]
    fn mispredictions_cost_cycles() {
        // An unpredictable branch stream: IPC must collapse.
        let mut x = 7u64;
        let noisy: VecTrace = (0..2000)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                BranchRecord::cond(0x1000 + (i % 4) * 64, 0x2000, x & 1 == 1, 7)
            })
            .collect();
        let mut model = PipelineModel::new(PipelineParams {
            backend_stalls_per_kinstr: 0,
            ..PipelineParams::paper_table2()
        });
        let r = model.run(&mut predictor(), noisy);
        assert!(r.mispredicts > 400, "stream should be unpredictable");
        assert!(
            r.ipc() < 2.5,
            "random branches must tank IPC, got {}",
            r.ipc()
        );
        assert!(r.branch_stall_fraction() > 0.3);
    }

    #[test]
    fn ras_predicts_matched_call_return_pairs() {
        let mut records = Vec::new();
        for i in 0..200u64 {
            let call_pc = 0x1000 + (i % 3) * 0x100;
            records.push(BranchRecord::new(
                call_pc,
                0x8000,
                BranchKind::DirectCall,
                true,
                3,
            ));
            records.push(BranchRecord::new(
                0x8040,
                call_pc + 4,
                BranchKind::Return,
                true,
                3,
            ));
        }
        let mut model = PipelineModel::new(PipelineParams::paper_table2());
        let r = model.run(&mut predictor(), VecTrace::new(records));
        // Calls may miss the BTB initially; returns must be near-perfect.
        assert!(
            r.target_misses < 20,
            "matched call/return pairs should rarely miss ({} misses)",
            r.target_misses
        );
    }

    #[test]
    fn btb_misses_cost_redirects_on_indirect_branches() {
        // An indirect jump cycling through many targets defeats the BTB.
        let records: VecTrace = (0..1000u64)
            .map(|i| {
                BranchRecord::new(
                    0x1000,
                    0x4000 + (i % 64) * 0x100,
                    BranchKind::UncondIndirect,
                    true,
                    3,
                )
            })
            .collect();
        let mut model = PipelineModel::new(PipelineParams::paper_table2());
        let r = model.run(&mut predictor(), records);
        assert!(r.target_misses > 900, "changing indirect targets must miss");
        assert!(r.redirect_cycles > 0);
    }

    #[test]
    fn better_prediction_means_speedup_on_real_workloads() {
        let spec = workloads::presets::by_name("NodeApp").unwrap();
        let run = |mut p: Box<dyn tage::DirectionPredictor>| {
            let mut model = PipelineModel::new(PipelineParams::paper_table2());
            let stream = workloads::ServerWorkload::new(&spec).take_branches(400_000);
            model.run(p.as_mut(), stream)
        };
        let base = run(Box::new(TageScl::new(TslConfig::kilobytes(64))));
        let big = run(Box::new(TageScl::new(TslConfig::kilobytes(512))));
        let s = big.speedup_over(&base);
        assert!(s > 1.0, "512K TSL must speed up NodeApp (got {s:.4})");
        assert!(
            s < 1.2,
            "speedup should be single-digit percent (got {s:.4})"
        );
    }

    #[test]
    fn cycle_breakdown_is_consistent() {
        let spec = workloads::presets::by_name("Kafka").unwrap();
        let mut model = PipelineModel::new(PipelineParams::paper_table2());
        let stream = workloads::ServerWorkload::new(&spec).take_branches(100_000);
        let r = model.run(&mut predictor(), stream);
        assert_eq!(
            r.cycles,
            r.fetch_cycles.max(r.retire_cycles)
                + r.mispredict_cycles
                + r.redirect_cycles
                + r.backend_stall_cycles
        );
        assert!(
            r.fetch_cycles >= r.instructions / 8 / 2,
            "fetch bound sanity"
        );
    }
}
