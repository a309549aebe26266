//! Branch trace model for the LLBP-X reproduction.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: what a dynamic branch looks like ([`BranchRecord`]), how a
//! sequence of them is consumed ([`BranchStream`]) or replayed from memory
//! ([`VecTrace`], [`SharedTrace`]), and summary statistics ([`stats`]).
//!
//! The paper evaluates predictors on ChampSim server traces, which cannot
//! be fetched offline. The seeded generators of the `workloads` crate are
//! the only trace source: they produce [`BranchStream`]s directly, so no
//! trace ever touches disk.
//!
//! # Example
//!
//! ```
//! use traces::{BranchKind, BranchRecord, BranchStream, VecTrace};
//!
//! let trace = VecTrace::new(vec![
//!     BranchRecord::new(0x40_0000, 0x40_0400, BranchKind::DirectCall, true, 7),
//!     BranchRecord::new(0x40_0410, 0x40_0430, BranchKind::CondDirect, false, 3),
//! ]);
//! let total: u64 = trace.clone().into_iter().map(|r| r.instructions()).sum();
//! assert_eq!(total, 12); // each record counts itself plus its gap
//! ```

// Library paths must surface structured errors instead of panicking
// (tests keep their unwrap ergonomics).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod branch;
pub mod stats;
pub mod stream;

pub use branch::{BranchKind, BranchRecord};
pub use stats::TraceStats;
pub use stream::{BranchStream, SharedTrace, StreamExt, Take, VecTrace};
