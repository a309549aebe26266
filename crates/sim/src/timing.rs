//! Analytical out-of-order core model — the gem5 stand-in.
//!
//! The paper's performance results (Figs. 1, 13, 14b) come from cycle-level
//! gem5 simulations of the Table II core. To first order those results are
//! Top-Down arithmetic: useful work issues at the core's width, each branch
//! misprediction inserts a fixed resteer penalty, and the overriding scheme
//! adds a bubble whenever a slow component overturns the 1-cycle first
//! guess. This module implements exactly that arithmetic, which preserves
//! the relative speedups the figures report (see DESIGN.md, substitution
//! table).
//!
//! Next to it sits the Table II frontend's cycle formula
//! ([`frontend_cycles`]), which turns a run's frontend counters
//! ([`FrontendCounters`], collected by `pipeline::Frontend`) into cycles.

use crate::runner::RunResult;

/// Instructions the Table II frontend fetches per cycle: a fetch block of
/// `n` instructions costs `⌈n / 8⌉` cycles.
pub const FETCH_WIDTH: u64 = 8;

/// Instructions the Table II backend retires per cycle.
pub const RETIRE_WIDTH: u64 = 8;

/// Cycles a direction misprediction costs (full resteer).
pub const MISPREDICT_PENALTY: u64 = 20;

/// Cycles a taken branch whose target missed in the BTB or the RAS costs
/// (decode-time redirect).
pub const REDIRECT_PENALTY: u64 = 3;

/// Backend long-latency stall cycles per 1000 instructions, a
/// deterministic stand-in for cache and memory misses.
pub const BACKEND_STALLS_PER_KINSTR: u64 = 220;

/// What the frontend observer counts over a run's measured window, on top
/// of the instructions and mispredictions every [`RunResult`] holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendCounters {
    /// Cycles spent fetching: `Σ ⌈block_len / FETCH_WIDTH⌉` over the fetch
    /// blocks, each ended by a taken branch or a misprediction.
    pub fetch_cycles: u64,
    /// Taken branches whose target missed in the BTB or the RAS.
    pub target_misses: u64,
}

impl FrontendCounters {
    /// The counts accumulated since `start`, an earlier snapshot of the
    /// same run.
    pub fn delta_since(&self, start: &FrontendCounters) -> FrontendCounters {
        FrontendCounters {
            fetch_cycles: self.fetch_cycles - start.fetch_cycles,
            target_misses: self.target_misses - start.target_misses,
        }
    }
}

/// Cycles on the Table II core, the decoupled frontend/backend bound:
/// `max(fetch, ⌈instr / 8⌉) + 20·mispredicts + 3·target_misses +
/// instr·220/1000`.
pub fn frontend_cycles(instructions: u64, mispredicts: u64, frontend: &FrontendCounters) -> u64 {
    frontend
        .fetch_cycles
        .max(instructions.div_ceil(RETIRE_WIDTH))
        + mispredicts * MISPREDICT_PENALTY
        + frontend.target_misses * REDIRECT_PENALTY
        + instructions * BACKEND_STALLS_PER_KINSTR / 1000
}

/// Parameters of the modelled core.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreParams {
    /// Display name.
    pub name: String,
    /// Sustainable issue width (instructions per cycle).
    pub issue_width: f64,
    /// Non-branch stall cycles per instruction (frontend misses, memory,
    /// dependency stalls) — the Top-Down "everything else" term.
    pub base_stall_cpi: f64,
    /// Cycles lost per branch misprediction (flush + refill).
    pub mispredict_penalty: f64,
    /// Bubble cycles when a slow predictor overrides the 1-cycle first
    /// guess (0 disables the overriding model).
    pub override_bubble: f64,
}

impl CoreParams {
    /// A Skylake-class server core (4-wide, deep flush penalty).
    pub fn skylake_like() -> Self {
        CoreParams {
            name: "Skylake-like".to_owned(),
            issue_width: 4.0,
            base_stall_cpi: 0.32,
            mispredict_penalty: 16.0,
            override_bubble: 0.0,
        }
    }

    /// A Sapphire-Rapids-class core: wider, larger window (fewer non-branch
    /// stalls), slightly longer resteer.
    pub fn sapphire_rapids_like() -> Self {
        CoreParams {
            name: "Sapphire-Rapids-like".to_owned(),
            issue_width: 6.0,
            base_stall_cpi: 0.13,
            mispredict_penalty: 17.0,
            override_bubble: 0.0,
        }
    }

    /// The paper's simulated core (Table II): 8-wide OoO, 576-entry ROB.
    pub fn paper_table2() -> Self {
        CoreParams {
            name: "8-wide OoO (Table II)".to_owned(),
            issue_width: 8.0,
            base_stall_cpi: 0.34,
            mispredict_penalty: 20.0,
            override_bubble: 0.0,
        }
    }

    /// The overriding-pipeline variant of the Table II core (§VII-C):
    /// 3-cycle redirect whenever TAGE/SC overturns the 1-cycle guess.
    pub fn paper_table2_overriding() -> Self {
        CoreParams {
            override_bubble: 3.0,
            ..CoreParams::paper_table2()
        }
    }

    /// Total cycles to retire `instructions` with the given event counts.
    pub fn cycles(&self, instructions: u64, mispredicts: u64, overrides: u64) -> f64 {
        instructions as f64 * (1.0 / self.issue_width + self.base_stall_cpi)
            + mispredicts as f64 * self.mispredict_penalty
            + overrides as f64 * self.override_bubble
    }

    /// Cycles per instruction.
    pub fn cpi(&self, instructions: u64, mispredicts: u64, overrides: u64) -> f64 {
        self.cycles(instructions, mispredicts, overrides) / instructions.max(1) as f64
    }

    /// Fraction of cycles stalled on branch mispredictions (Fig. 1 right).
    pub fn branch_stall_fraction(&self, instructions: u64, mispredicts: u64) -> f64 {
        let total = self.cycles(instructions, mispredicts, 0);
        (mispredicts as f64 * self.mispredict_penalty) / total
    }

    /// Cycles for a [`RunResult`], using the overriding model if enabled.
    ///
    /// `override_candidates` already excludes predictions that were
    /// available in the first cycle (the runner consults the predictor's
    /// pattern buffer per branch, §VII-D.2).
    pub fn cycles_for(&self, result: &RunResult) -> f64 {
        let overrides = if self.override_bubble > 0.0 {
            result.override_candidates
        } else {
            0
        };
        self.cycles(result.instructions, result.mispredicts, overrides)
    }

    /// Speedup of `new` over `base` on this core.
    pub fn speedup(&self, base: &RunResult, new: &RunResult) -> f64 {
        // Normalize to cycles per instruction in case budgets differ by a
        // record's worth of instructions.
        let base_cpi = self.cycles_for(base) / base.instructions.max(1) as f64;
        let new_cpi = self.cycles_for(new) / new.instructions.max(1) as f64;
        base_cpi / new_cpi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(instructions: u64, mispredicts: u64, overrides: u64) -> RunResult {
        RunResult {
            name: "x".into(),
            workload: "w".into(),
            instructions,
            cond_branches: instructions / 5,
            mispredicts,
            override_candidates: overrides,
            ..RunResult::default()
        }
    }

    #[test]
    fn fewer_mispredictions_means_speedup() {
        let core = CoreParams::paper_table2();
        let base = result(1_000_000, 4_000, 0);
        let better = result(1_000_000, 3_500, 0);
        let s = core.speedup(&base, &better);
        assert!(s > 1.0 && s < 1.1, "speedup {s}");
    }

    #[test]
    fn wider_core_has_lower_cpi_but_higher_branch_stall_share() {
        // The Fig. 1 phenomenon: an aggressive core reduces CPI a lot while
        // the *fraction* of cycles lost to mispredictions grows, even with
        // fewer mispredictions.
        let sky = CoreParams::skylake_like();
        let spr = CoreParams::sapphire_rapids_like();
        let instr = 1_000_000;
        let sky_miss = 4_400;
        let spr_miss = 3_100; // ~30% fewer, like the paper's measurement
        let sky_cpi = sky.cpi(instr, sky_miss, 0);
        let spr_cpi = spr.cpi(instr, spr_miss, 0);
        assert!(spr_cpi < sky_cpi * 0.7, "SPR should be much faster");
        let sky_frac = sky.branch_stall_fraction(instr, sky_miss);
        let spr_frac = spr.branch_stall_fraction(instr, spr_miss);
        assert!(
            spr_frac > sky_frac,
            "branch-stall share must grow on the wider core ({spr_frac:.3} vs {sky_frac:.3})"
        );
    }

    #[test]
    fn override_bubbles_cost_cycles_only_in_overriding_mode() {
        let plain = CoreParams::paper_table2();
        let over = CoreParams::paper_table2_overriding();
        let r = result(1_000_000, 1_000, 20_000);
        assert!(over.cycles_for(&r) > plain.cycles_for(&r));
        assert_eq!(plain.cycles_for(&r), plain.cycles(1_000_000, 1_000, 0));
    }

    #[test]
    fn override_candidates_drive_the_bubble_count() {
        let over = CoreParams::paper_table2_overriding();
        let few = result(1_000_000, 1_000, 5_000);
        let many = result(1_000_000, 1_000, 20_000);
        assert!(over.cycles_for(&few) < over.cycles_for(&many));
    }

    #[test]
    fn frontend_cycles_follow_the_table2_formula() {
        let frontend = FrontendCounters {
            fetch_cycles: 150,
            target_misses: 4,
        };
        // Fetch-bound: 150 fetch cycles exceed ⌈1000 / 8⌉ = 125.
        assert_eq!(frontend_cycles(1000, 2, &frontend), 150 + 40 + 12 + 220);
        // Retire-bound: ⌈1001 / 8⌉ = 126 exceeds 100 fetch cycles.
        let fetch_light = FrontendCounters {
            fetch_cycles: 100,
            ..frontend
        };
        assert_eq!(frontend_cycles(1001, 0, &fetch_light), 126 + 12 + 220);
        let later = FrontendCounters {
            fetch_cycles: 170,
            target_misses: 9,
        };
        assert_eq!(
            later.delta_since(&frontend),
            FrontendCounters {
                fetch_cycles: 20,
                target_misses: 5
            }
        );
    }

    #[test]
    fn stall_fraction_is_a_fraction() {
        let core = CoreParams::paper_table2();
        let f = core.branch_stall_fraction(1_000_000, 5_000);
        assert!((0.0..1.0).contains(&f));
        assert_eq!(core.branch_stall_fraction(1_000_000, 0), 0.0);
    }
}
