//! The common interface every direction predictor in this workspace exposes.

use traces::BranchRecord;

/// Borrowed per-branch context handed to [`DirectionPredictor::process`].
///
/// Today this is just the trace record; bundling it in a struct means future
/// inputs (e.g. fetch-cycle hints, prewarm signals) extend the struct instead
/// of growing positional arguments on every implementation.
#[derive(Debug, Clone, Copy)]
pub struct PredictInput<'a> {
    /// The dynamic branch being processed, in program order.
    pub record: &'a BranchRecord,
}

impl<'a> PredictInput<'a> {
    /// Wraps one dynamic branch record.
    #[inline]
    pub fn new(record: &'a BranchRecord) -> Self {
        PredictInput { record }
    }
}

impl<'a> From<&'a BranchRecord> for PredictInput<'a> {
    #[inline]
    fn from(record: &'a BranchRecord) -> Self {
        PredictInput { record }
    }
}

/// What one [`DirectionPredictor::process`] call produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Update {
    /// The direction predicted *before* training, for conditional branches;
    /// `None` for unconditional ones (which only update internal histories).
    pub pred: Option<bool>,
    /// Whether this prediction was available in the pipeline's first cycle
    /// (bimodal-adjacent), e.g. served from LLBP's pattern buffer. Drives
    /// the overriding-pipeline model (§VII-C); always `false` for
    /// single-level predictors and for unconditional branches.
    pub first_cycle: bool,
}

impl Update {
    /// An update for an unconditional branch (no prediction made).
    #[inline]
    pub fn unconditional() -> Self {
        Update::default()
    }

    /// A conditional prediction from the second (late) pipeline level.
    #[inline]
    pub fn predicted(pred: bool) -> Self {
        Update {
            pred: Some(pred),
            first_cycle: false,
        }
    }
}

/// A trace-driven branch direction predictor.
///
/// Predictors are driven in program order: [`process`](Self::process) is
/// called once per dynamic branch (conditional *and* unconditional — the
/// latter matter because they update global/path history and, for LLBP,
/// the rolling context register). For conditional branches the returned
/// [`Update`] carries the direction that was predicted *before* training on
/// the outcome.
///
/// ```
/// use tage::{DirectionPredictor, PredictInput, TageScl, TslConfig};
/// use traces::BranchRecord;
///
/// let mut p = TageScl::new(TslConfig::kilobytes(64));
/// let rec = BranchRecord::cond(0x1234, 0x2000, true, 0);
/// assert!(p.process(PredictInput::new(&rec)).pred.is_some());
/// let call = BranchRecord::new(0x2000, 0x3000, traces::BranchKind::DirectCall, true, 0);
/// assert!(p.process(PredictInput::new(&call)).pred.is_none(), "unconditionals are not predicted");
/// ```
pub trait DirectionPredictor {
    /// Predicts and then trains on one dynamic branch.
    fn process(&mut self, input: PredictInput<'_>) -> Update;

    /// A short human-readable name for reports (e.g. `"64K TSL"`).
    fn name(&self) -> String;

    /// Total predictor storage in bits, for budget accounting.
    ///
    /// Idealized (infinite) configurations report the storage of their
    /// *finite* organization parameters where meaningful and `u64::MAX`
    /// when genuinely unbounded.
    fn storage_bits(&self) -> u64;
}

impl<P: DirectionPredictor + ?Sized> DirectionPredictor for Box<P> {
    fn process(&mut self, input: PredictInput<'_>) -> Update {
        (**self).process(input)
    }
    fn name(&self) -> String {
        (**self).name()
    }
    fn storage_bits(&self) -> u64 {
        (**self).storage_bits()
    }
}
