//! Analyses behind the paper's Figs. 6-9: per-context useful patterns,
//! history-length profiles, duplication, and the context-depth sweep.

use llbpx::{Llbp, LlbpConfig};
use tage::{HISTORY_LENGTHS, NUM_TABLES};

use crate::runner::RunResult;

/// One context's row in the Fig. 6/7 data: distinct useful patterns and
/// their average history length, sorted by useful-pattern count descending.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContextProfile {
    /// Context ID.
    pub cid: u64,
    /// Distinct useful patterns observed in the context.
    pub useful_patterns: usize,
    /// Average history length (bits) of those patterns.
    pub avg_history_len: f64,
}

/// Output of the unlimited-patterns analysis run (Figs. 6, 7, 8).
#[derive(Debug, Clone)]
pub struct ContextAnalysis {
    /// Per-context profiles, sorted by useful patterns descending.
    pub contexts: Vec<ContextProfile>,
    /// Per history length: `(total useful pattern copies, unique)`.
    pub duplication: [(u64, u64); NUM_TABLES],
    /// Dynamic useful predictions per history length.
    pub useful_by_len: [u64; NUM_TABLES],
}

impl ContextAnalysis {
    /// The unlimited-contexts/patterns configuration (the `+ Inf Patterns`
    /// point of Fig. 5) at context depth `w`, with the analysis
    /// instrumentation whose run [`ContextAnalysis::from_run`] reads.
    pub fn predictor(w: usize) -> Llbp {
        Llbp::new(
            LlbpConfig::with_infinite_patterns()
                .with_w(w)
                .with_analysis(),
        )
    }

    /// The context-level data of a finished run of
    /// [`ContextAnalysis::predictor`]; `None` for a run without analysis
    /// data (a failed cell, or another predictor).
    pub fn from_run(run: &RunResult) -> Option<ContextAnalysis> {
        let analysis = run.llbp.as_ref()?.analysis.as_ref()?;
        let contexts = analysis
            .useful_patterns_per_context()
            .into_iter()
            .map(|(cid, useful_patterns)| ContextProfile {
                cid,
                useful_patterns,
                avg_history_len: analysis.avg_history_len(cid).unwrap_or(0.0),
            })
            .collect();
        Some(ContextAnalysis {
            contexts,
            duplication: analysis.duplication_by_len(),
            useful_by_len: analysis.useful_by_len,
        })
    }

    /// Fraction of contexts whose useful patterns exceed `capacity`
    /// (the paper: 14% exceed the 16-pattern set at NodeApp).
    pub fn fraction_exceeding(&self, capacity: usize) -> f64 {
        if self.contexts.is_empty() {
            return 0.0;
        }
        let over = self
            .contexts
            .iter()
            .filter(|c| c.useful_patterns > capacity)
            .count();
        over as f64 / self.contexts.len() as f64
    }

    /// Fraction of contexts with at most `n` useful patterns.
    pub fn fraction_at_most(&self, n: usize) -> f64 {
        if self.contexts.is_empty() {
            return 0.0;
        }
        let under = self
            .contexts
            .iter()
            .filter(|c| c.useful_patterns <= n)
            .count();
        under as f64 / self.contexts.len() as f64
    }

    /// Duplication ratio per history length: `total / unique` (1.0 = no
    /// duplication), `None` where no useful pattern has that length.
    pub fn duplication_ratio(&self) -> [Option<f64>; NUM_TABLES] {
        let mut out = [None; NUM_TABLES];
        for (i, &(total, unique)) in self.duplication.iter().enumerate() {
            if unique > 0 {
                out[i] = Some(total as f64 / unique as f64);
            }
        }
        out
    }
}

/// Relative change in dynamic useful predictions per history length when
/// moving from context depth `w_base` to `w_new` (Fig. 9). `None` where the
/// base has no useful predictions at that length.
pub fn useful_change_by_len(
    base: &ContextAnalysis,
    new: &ContextAnalysis,
) -> [Option<f64>; NUM_TABLES] {
    let mut out = [None; NUM_TABLES];
    for (i, slot) in out.iter_mut().enumerate() {
        if base.useful_by_len[i] > 0 {
            *slot = Some(new.useful_by_len[i] as f64 / base.useful_by_len[i] as f64 - 1.0);
        }
    }
    out
}

/// Pretty label for a history-length index.
pub fn len_label(idx: usize) -> String {
    format!("{}", HISTORY_LENGTHS[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::runner::Simulation;
    use workloads::WorkloadSpec;

    fn tiny() -> (WorkloadSpec, Simulation) {
        (
            WorkloadSpec::new("tiny", 5)
                .with_request_types(64)
                .with_handlers(8),
            Simulation {
                warmup_instructions: 150_000,
                measure_instructions: 300_000,
            },
        )
    }

    /// The analysis of a run at depth `w`, as a figure's grid cell makes it.
    fn analyze_contexts(spec: &WorkloadSpec, w: usize, sim: &Simulation) -> ContextAnalysis {
        let run = sim.run(&mut ContextAnalysis::predictor(w), spec);
        ContextAnalysis::from_run(&run).expect("an analysis run carries its data")
    }

    #[test]
    fn analysis_produces_sorted_contexts() {
        let (spec, sim) = tiny();
        let a = analyze_contexts(&spec, 8, &sim);
        assert!(
            !a.contexts.is_empty(),
            "some contexts should have useful patterns"
        );
        for w in a.contexts.windows(2) {
            assert!(
                w[0].useful_patterns >= w[1].useful_patterns,
                "sorted descending"
            );
        }
    }

    #[test]
    fn fractions_are_complementary() {
        let (spec, sim) = tiny();
        let a = analyze_contexts(&spec, 8, &sim);
        let over = a.fraction_exceeding(16);
        let under = a.fraction_at_most(16);
        assert!((over + under - 1.0).abs() < 1e-9);
        assert!((0.0..=1.0).contains(&over));
    }

    #[test]
    fn duplication_ratio_is_at_least_one() {
        let (spec, sim) = tiny();
        let a = analyze_contexts(&spec, 8, &sim);
        for r in a.duplication_ratio().into_iter().flatten() {
            assert!(r >= 1.0, "duplication ratio below 1: {r}");
        }
    }

    #[test]
    fn depth_sweep_produces_comparable_analyses() {
        // The full Fig. 8 trend (deeper contexts duplicate short patterns
        // more) needs workload-scale runs and is asserted by the
        // reproduction-shape integration test; here we only check the
        // sweep machinery on a tiny run.
        let (spec, sim) = tiny();
        let shallow = analyze_contexts(&spec, 2, &sim);
        let deep = analyze_contexts(&spec, 32, &sim);
        for a in [&shallow, &deep] {
            for r in a.duplication_ratio().into_iter().flatten() {
                assert!(r >= 1.0);
            }
        }
        assert!(!shallow.contexts.is_empty());
        let change = useful_change_by_len(&shallow, &deep);
        assert!(
            change.iter().any(|c| c.is_some()),
            "sweep must be comparable"
        );
    }

    /// An analysis cell of the grid engine comes back as an ordinary run
    /// record, and the analysis is read from that same run.
    #[test]
    fn analysis_carries_its_underlying_run() {
        let (spec, sim) = tiny();
        let designs = [crate::exec::design("W=8", || {
            Box::new(ContextAnalysis::predictor(8))
        })];
        let report = crate::exec::run_matrix(
            &sim,
            std::slice::from_ref(&spec),
            &designs,
            crate::exec::EngineOptions::basic(1),
        );
        let run = &report.rows[0][0];
        assert_eq!(run.workload, "tiny");
        assert!(run.mpki() > 0.0);
        assert!(run.llbp.is_some(), "the run keeps its second-level stats");
        let a = ContextAnalysis::from_run(run).expect("an analysis run carries its data");
        assert_eq!(a.contexts, analyze_contexts(&spec, 8, &sim).contexts);
    }

    #[test]
    fn only_an_analysis_run_yields_an_analysis() {
        let (spec, sim) = tiny();
        let plain = sim.run(&mut Llbp::new(LlbpConfig::with_infinite_patterns()), &spec);
        assert!(plain.llbp.is_some() && ContextAnalysis::from_run(&plain).is_none());
        let failed = RunResult {
            error: Some("boom".into()),
            ..RunResult::default()
        };
        assert!(
            ContextAnalysis::from_run(&failed).is_none(),
            "a failed cell has no data"
        );
    }

    #[test]
    fn useful_change_is_relative_to_base() {
        let (spec, sim) = tiny();
        let base = analyze_contexts(&spec, 8, &sim);
        let same = useful_change_by_len(&base, &base);
        for v in same.into_iter().flatten() {
            assert!(v.abs() < 1e-12, "self-comparison must be zero");
        }
    }
}
