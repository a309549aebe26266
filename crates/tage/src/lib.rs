//! TAGE-SC-L branch predictor substrate.
//!
//! This crate implements the baseline predictor of the paper: TAGE-SC-L
//! ("TSL"), i.e. a TAGE direction predictor with a statistical corrector and
//! a loop predictor, in the simplified-but-faithful organization the paper
//! itself models (§VI, Fig. 15b): 21 tagged tables with geometric history
//! lengths from 6 to 3000 bits, each entry holding a partial tag, a 3-bit
//! signed prediction counter and a useful bit, plus a bimodal fallback.
//!
//! Configurations cover every size the evaluation needs: the 64 KiB baseline,
//! 128 KiB and 512 KiB scaled versions (Figs. 4, 12, 14b, 16b) and an
//! idealized *infinite* TSL with unbounded associativity and PC-tagged
//! entries (footnote 3 of the paper).
//!
//! The folded-history machinery ([`folded`]) is public because the `llbpx`
//! crate reuses TAGE's partial pattern-matching algorithm at different tag
//! widths, exactly as the hardware proposal shares the hash pipeline.
//!
//! # Example
//!
//! ```
//! use tage::{DirectionPredictor, PredictInput, TageScl, TslConfig};
//! use traces::BranchRecord;
//!
//! let mut tsl = TageScl::new(TslConfig::kilobytes(64));
//! // A loop branch: taken 3 times, then exits; TSL learns the pattern.
//! let mut mispredicts = 0;
//! for round in 0..1000 {
//!     for i in 0..4 {
//!         let taken = i < 3;
//!         let rec = traces::BranchRecord::cond(0x4000, 0x4800, taken, 10);
//!         let pred = tsl.process(PredictInput::new(&rec)).pred
//!             .expect("conditional branches are predicted");
//!         if round > 10 && pred != taken {
//!             mispredicts += 1;
//!         }
//!     }
//! }
//! assert!(mispredicts < 40, "TSL should learn a fixed loop, got {mispredicts}");
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bimodal;
pub mod config;
pub mod fast_map;
pub mod folded;
pub mod history;
pub mod loop_pred;
pub mod predictor;
pub mod sc;
pub mod table;
#[allow(clippy::module_inception)]
pub mod tage;
pub mod tsl;

pub use config::{TableStorageKind, TageConfig, TslConfig, HISTORY_LENGTHS, NUM_TABLES};
pub use fast_map::{FastMap, FastSet};
pub use folded::FoldedHistory;
pub use history::{GlobalHistory, PathHistory};
pub use predictor::{DirectionPredictor, PredictInput, Update};
pub use tage::{Tage, TageInfo};
pub use tsl::{TageScl, TslInfo};
