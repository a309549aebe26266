//! LLBP and LLBP-X: hierarchical last-level branch prediction.
//!
//! This crate is the reproduction of the paper's primary contribution. It
//! implements:
//!
//! * the original **LLBP** (Schall et al., MICRO'24) as described in §II-C:
//!   a high-capacity pattern store decoupled from an unmodified TAGE-SC-L,
//!   with context-based pattern sets, a prefetched pattern buffer, a rolling
//!   context register and a context directory;
//! * every **limit-study configuration** of §III-A (no design tweaks,
//!   20-bit tags, infinite contexts, infinite patterns, no
//!   contextualization);
//! * **LLBP-X** (§V): dynamic context depth adaptation via the Context
//!   Tracking Table, dual rolling context IDs (CID₂/CID₆₄), depth-partitioned
//!   history range selection, and the Opt-W oracle upper bound.
//!
//! # Quick start
//!
//! ```
//! use llbpx::{Llbp, LlbpConfig};
//! use tage::{DirectionPredictor, PredictInput};
//! use traces::BranchRecord;
//!
//! // LLBP, and LLBP-X: the same config plus a depth-adaptation part.
//! let mut llbp = Llbp::new(LlbpConfig::paper_baseline());
//! let mut llbpx = Llbp::new(LlbpConfig::llbpx());
//!
//! let rec = BranchRecord::cond(0x40_0000, 0x40_0800, true, 6);
//! assert!(llbp.process(PredictInput::new(&rec)).pred.is_some());
//! assert!(llbpx.process(PredictInput::new(&rec)).pred.is_some());
//! assert!(llbpx.storage_bits() > llbp.storage_bits(), "LLBP-X adds the 9 KiB CTT");
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod buffer;
pub mod config;
pub mod ctt;
pub mod llbp;
pub mod pattern;
pub mod pattern_set;
pub mod rcr;
pub mod stats;
pub mod store;

pub use config::{DepthAdaptation, FalsePathMode, LengthSet, LlbpConfig};
pub use ctt::ContextTrackingTable;
pub use llbp::Llbp;
pub use pattern::Pattern;
pub use pattern_set::{PatternMatch, PatternSet};
pub use stats::{AnalysisStats, LlbpStats, PatternKey};
