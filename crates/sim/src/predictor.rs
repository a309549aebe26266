//! Simulator-side predictor instrumentation.

use llbpx::{Llbp, LlbpStats};
use tage::{DirectionPredictor, FastMap, TageScl};

use crate::timing::FrontendCounters;

/// A point-in-time snapshot of everything a predictor exposes to the
/// simulator's instrumentation, returned by [`SimPredictor::observe`].
///
/// One struct instead of per-probe trait methods: predictors fill in what
/// they have, the runner reads what it needs, and new gauges extend the
/// struct without touching every implementation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Observation<'a> {
    /// Second-level statistics, for hierarchical predictors.
    pub llbp: Option<&'a LlbpStats>,
    /// Frontend counters so far, for predictors wrapped in the frontend
    /// observer (`pipeline::Frontend`).
    pub frontend: Option<FrontendCounters>,
    /// Depth decision per tracked shallow context, for predictors whose
    /// CTT decides depths (LLBP-X without an oracle).
    pub depth_decisions: Option<&'a FastMap<u64, bool>>,
}

/// A predictor the simulation runner can drive and instrument.
///
/// Extends [`DirectionPredictor`] with end-of-run finalization and a single
/// observation entry point for run statistics.
pub trait SimPredictor: DirectionPredictor {
    /// Called once after the measurement phase (e.g. drain the pattern
    /// buffer so prefetch classifications are final).
    fn finish(&mut self) {}

    /// Snapshots the predictor's observable state. The default is an empty
    /// observation (single-level predictors expose nothing extra).
    fn observe(&self) -> Observation<'_> {
        Observation::default()
    }
}

impl SimPredictor for TageScl {}

impl SimPredictor for Llbp {
    fn finish(&mut self) {
        Llbp::finish(self);
    }

    fn observe(&self) -> Observation<'_> {
        Observation {
            llbp: Some(self.stats()),
            depth_decisions: self.ctt().map(|_| self.depth_decisions()),
            ..Observation::default()
        }
    }
}

impl<P: SimPredictor + ?Sized> SimPredictor for Box<P> {
    fn finish(&mut self) {
        (**self).finish();
    }
    fn observe(&self) -> Observation<'_> {
        (**self).observe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llbpx::LlbpConfig;
    use tage::TslConfig;

    #[test]
    fn tsl_has_no_second_level_stats() {
        let tsl = TageScl::new(TslConfig::kilobytes(64));
        assert!(tsl.observe().llbp.is_none());
        assert!(tsl.observe().frontend.is_none());
    }

    #[test]
    fn llbp_exposes_second_level_stats() {
        let llbp = Llbp::new(LlbpConfig::paper_baseline());
        assert!(llbp.observe().llbp.is_some());
        assert!(llbp.observe().frontend.is_none(), "no observer wraps it");
        assert!(
            llbp.observe().depth_decisions.is_none(),
            "plain LLBP decides no depths"
        );
        assert!(Llbp::new(LlbpConfig::llbpx())
            .observe()
            .depth_decisions
            .is_some());
    }

    #[test]
    fn boxed_predictors_delegate() {
        let boxed: Box<dyn SimPredictor> = Box::new(Llbp::new(LlbpConfig::paper_baseline()));
        assert!(boxed.observe().llbp.is_some());
        assert_eq!(boxed.name(), "LLBP");
    }
}
