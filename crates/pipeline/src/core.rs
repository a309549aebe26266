//! The frontend observer: block-based fetch and BTB/RAS target prediction,
//! fed by the direction outcomes of the predictor under test.
//!
//! Cycle accounting. The frontend fetches instruction *blocks*: a block
//! ends at a taken branch or at a direction misprediction (the resteer),
//! so
//!
//! ```text
//! fetch_cycles = Σ ceil(block_len / FETCH_WIDTH)
//! ```
//!
//! A taken branch whose target missed in the BTB (or, for a return, in
//! the RAS) is a target miss. [`bpsim::timing::frontend_cycles`] adds the
//! penalties and the backend bound:
//!
//! ```text
//! cycles = max(fetch_cycles, retire_cycles) + penalties + backend_stalls
//! ```
//!
//! which is the standard decoupled frontend/backend bound used in
//! analytical pipeline studies, with the fetch blocks and BTB contents
//! taken from the trace.

use bpsim::predictor::Observation;
use bpsim::timing::{FrontendCounters, FETCH_WIDTH};
use bpsim::SimPredictor;
use tage::{DirectionPredictor, PredictInput, Update};
use traces::{BranchKind, BranchRecord};

use crate::btb::{Btb, BTB_LOG2_SETS, BTB_WAYS};
use crate::ras::{ReturnAddressStack, RAS_DEPTH};

/// The frontend observer: wraps a predictor, forwards every call to it
/// unchanged, and counts the fetch cycles and target misses of the branch
/// stream it sees. [`SimPredictor::observe`] exposes the counts as
/// `frontend`, on top of the wrapped predictor's own observation.
pub struct Frontend<P> {
    inner: P,
    btb: Btb,
    ras: ReturnAddressStack,
    /// Instructions in the open fetch block.
    block: u64,
    counters: FrontendCounters,
}

impl<P> Frontend<P> {
    /// `inner` behind a cold Table II frontend.
    pub fn new(inner: P) -> Self {
        Frontend {
            inner,
            btb: Btb::new(BTB_LOG2_SETS, BTB_WAYS),
            ras: ReturnAddressStack::new(RAS_DEPTH),
            block: 0,
            counters: FrontendCounters::default(),
        }
    }

    /// Accounts one branch, given whether its direction was mispredicted.
    fn account(&mut self, rec: &BranchRecord, mispredicted: bool) {
        self.block += rec.instructions();
        if mispredicted {
            // The resteer ends the current fetch block.
            self.close_block();
        }
        if !rec.taken {
            return;
        }
        // A taken branch ends the fetch block and needs a target.
        let target_ok = match rec.kind {
            BranchKind::Return => self.ras.pop() == Some(rec.target),
            BranchKind::UncondIndirect | BranchKind::IndirectCall => {
                let hit = self.btb.lookup(rec.pc) == Some(rec.target);
                self.btb.update(rec.pc, rec.target);
                hit
            }
            // Direct targets are available at decode even on a BTB miss;
            // only a miss costs the redirect.
            BranchKind::CondDirect | BranchKind::UncondDirect | BranchKind::DirectCall => {
                let hit = self.btb.lookup(rec.pc).is_some();
                self.btb.update(rec.pc, rec.target);
                hit
            }
        };
        if rec.kind.is_call() {
            self.ras.push(rec.pc.wrapping_add(4));
        }
        if !target_ok {
            self.counters.target_misses += 1;
        }
        self.close_block();
    }

    #[inline]
    fn close_block(&mut self) {
        self.counters.fetch_cycles += self.block.div_ceil(FETCH_WIDTH);
        self.block = 0;
    }
}

impl<P: DirectionPredictor> DirectionPredictor for Frontend<P> {
    fn process(&mut self, input: PredictInput<'_>) -> Update {
        let update = self.inner.process(input);
        let rec = input.record;
        self.account(rec, update.pred.is_some_and(|pred| pred != rec.taken));
        update
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }
}

impl<P: SimPredictor> SimPredictor for Frontend<P> {
    /// Closes the open fetch block, then finishes the wrapped predictor.
    fn finish(&mut self) {
        self.close_block();
        self.inner.finish();
    }

    fn observe(&self) -> Observation<'_> {
        Observation {
            frontend: Some(self.counters),
            ..self.inner.observe()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpsim::timing::{frontend_cycles, BACKEND_STALLS_PER_KINSTR, MISPREDICT_PENALTY};
    use bpsim::{RunResult, Simulation};
    use llbpx::{Llbp, LlbpConfig};
    use tage::{TageScl, TslConfig};
    use traces::{BranchStream, StreamExt, VecTrace};

    fn straight_line(n: usize) -> VecTrace {
        // Never-taken conditionals: pure straight-line code.
        VecTrace::new(
            (0..n)
                .map(|i| BranchRecord::cond(0x1000 + i as u64 * 64, 0x9000, false, 7))
                .collect(),
        )
    }

    fn tsl64() -> Box<dyn SimPredictor> {
        Box::new(TageScl::new(TslConfig::kilobytes(64)))
    }

    /// Every record of `stream` measured (zero warmup) behind the observer.
    fn observe(predictor: Box<dyn SimPredictor>, mut stream: impl BranchStream) -> RunResult {
        let sim = Simulation {
            warmup_instructions: 0,
            measure_instructions: u64::MAX,
        };
        sim.run_stream(&mut Frontend::new(predictor), &mut stream, "test")
    }

    fn cycles(run: &RunResult) -> u64 {
        let frontend = run.frontend.expect("the observer was on");
        frontend_cycles(run.instructions, run.mispredicts, &frontend)
    }

    fn target_misses(run: &RunResult) -> u64 {
        run.frontend.expect("the observer was on").target_misses
    }

    #[test]
    fn straight_line_code_is_fetch_or_retire_bound() {
        let r = observe(tsl64(), straight_line(1000));
        assert_eq!(r.instructions, 8000);
        // 8 instructions per record, width 8: ~1 cycle per record plus the
        // rare warmup mispredictions, before the backend's stalls.
        let backend = r.instructions * BACKEND_STALLS_PER_KINSTR / 1000;
        let ipc = r.instructions as f64 / (cycles(&r) - backend) as f64;
        assert!(ipc > 5.0, "straight-line IPC was {ipc}");
        assert_eq!(target_misses(&r), 0, "nothing is taken");
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
        let r = observe(tsl64(), noisy);
        assert!(r.mispredicts > 400, "stream should be unpredictable");
        let ipc = r.instructions as f64 / cycles(&r) as f64;
        assert!(ipc < 2.5, "random branches must tank IPC, got {ipc}");
        let branch_stalls = (r.mispredicts * MISPREDICT_PENALTY) as f64;
        assert!(branch_stalls / cycles(&r) as f64 > 0.3);
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
        let r = observe(tsl64(), VecTrace::new(records));
        // Calls may miss the BTB initially; returns must be near-perfect.
        assert!(
            target_misses(&r) < 20,
            "matched call/return pairs should rarely miss ({} misses)",
            target_misses(&r)
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
        let r = observe(tsl64(), records);
        assert!(
            target_misses(&r) > 900,
            "changing indirect targets must miss"
        );
        let hit_everything = FrontendCounters {
            target_misses: 0,
            ..r.frontend.expect("the observer was on")
        };
        assert!(cycles(&r) > frontend_cycles(r.instructions, r.mispredicts, &hit_everything));
    }

    #[test]
    fn better_prediction_means_speedup_on_real_workloads() {
        let spec = workloads::presets::by_name("NodeApp").unwrap();
        let cpi = |p: Box<dyn SimPredictor>| {
            let r = observe(
                p,
                workloads::ServerWorkload::new(&spec).take_branches(400_000),
            );
            cycles(&r) as f64 / r.instructions as f64
        };
        let s = cpi(tsl64()) / cpi(Box::new(TageScl::new(TslConfig::kilobytes(512))));
        assert!(s > 1.0, "512K TSL must speed up NodeApp (got {s:.4})");
        assert!(
            s < 1.2,
            "speedup should be single-digit percent (got {s:.4})"
        );
    }

    #[test]
    fn cycle_breakdown_is_consistent() {
        let spec = workloads::presets::by_name("Kafka").unwrap();
        let stream = workloads::ServerWorkload::new(&spec).take_branches(100_000);
        let r = observe(tsl64(), stream);
        let f = r.frontend.expect("the observer was on");
        assert_eq!(
            cycles(&r),
            f.fetch_cycles.max(r.instructions.div_ceil(8))
                + 20 * r.mispredicts
                + 3 * f.target_misses
                + r.instructions * 220 / 1000
        );
        assert!(
            f.fetch_cycles >= r.instructions / 8 / 2,
            "fetch bound sanity"
        );
    }

    /// The observer changes nothing the predictor computes: with and
    /// without it, a run agrees on every accuracy field, every
    /// second-level counter and the depth decisions.
    #[test]
    fn the_observer_is_transparent() {
        let spec = workloads::WorkloadSpec::new("tiny", 3)
            .with_request_types(64)
            .with_handlers(8);
        let sim = Simulation {
            warmup_instructions: 50_000,
            measure_instructions: 150_000,
        };
        let llbpx = || Box::new(Llbp::new(LlbpConfig::llbpx())) as Box<dyn SimPredictor>;
        for design in [tsl64, llbpx] {
            let plain = sim.run(design().as_mut(), &spec);
            let observed = sim.run(&mut Frontend::new(design()), &spec);
            let name = &plain.name;
            assert_eq!(observed.name, plain.name);
            assert_eq!(observed.storage_bits, plain.storage_bits, "{name}");
            assert_eq!(observed.instructions, plain.instructions, "{name}");
            assert_eq!(observed.cond_branches, plain.cond_branches, "{name}");
            assert_eq!(observed.mispredicts, plain.mispredicts, "{name}");
            assert_eq!(
                observed.override_candidates, plain.override_candidates,
                "{name}"
            );
            let counters = |r: &RunResult| {
                r.llbp
                    .as_ref()
                    .map(|s| (s.counters(), s.alloc_len_histogram))
            };
            assert_eq!(counters(&observed), counters(&plain), "{name}");
            assert_eq!(observed.deep_contexts, plain.deep_contexts, "{name}");
            assert!(plain.frontend.is_none());
            assert!(observed.frontend.is_some_and(|f| f.fetch_cycles > 0));
            let restored = RunResult::from_json(&observed.to_json(&sim));
            assert_eq!(restored.and_then(|r| r.frontend), observed.frontend);
            if name == "LLBP-X" {
                assert!(plain.llbp.is_some() && plain.deep_contexts.is_some());
            }
        }
    }
}
