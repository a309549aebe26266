//! Trace-driven simulation harness for the LLBP-X reproduction.
//!
//! Everything the paper's evaluation needs beyond the predictors
//! themselves:
//!
//! * [`runner`] — drives a predictor over a workload with warmup and
//!   measurement phases (the paper's 100M + 200M instruction protocol,
//!   scaled by configuration) and produces [`runner::RunResult`]s;
//! * [`exec`] — the parallel experiment engine: runs a grid of workloads ×
//!   [`exec::Design`]s over `LLBPX_THREADS` workers with deterministic
//!   cell ordering (each cell streams its workload from its own seeded
//!   generator) and returns one [`RunResult`] per cell; a panicking cell
//!   comes back as a failed run whose `error` names it (`LLBPX_FAULT_CELL`
//!   panics one on purpose; a panic is the only way a cell fails), and
//!   completed cells are journaled to a [`checkpoint`] for crash/resume;
//! * [`checkpoint`] — the `LLBPX_CHECKPOINT` journal: completed matrix
//!   cells keyed by deterministic job fingerprints, restored
//!   bit-identically on re-run;
//! * [`error`] — the [`error::SimError`] hierarchy surfaced by the
//!   library's fallible paths;
//! * [`mod@env`] — the shared warn-once environment-variable parsing used by
//!   every `LLBPX_*`/`REPRO_*` tunable;
//! * [`timing`] — an analytical out-of-order core model standing in for
//!   gem5 (Figs. 1, 13, 14b), including the overriding-pipeline variant;
//! * [`energy`] — a CACTI-like access-energy model for Fig. 15b;
//! * [`analysis`] — the per-context / per-pattern analyses behind
//!   Figs. 6-9;
//! * [`report`] — plain-text table rendering shared by the `fig*`/`table*`
//!   experiment binaries.
//!
//! # Example
//!
//! ```
//! use bpsim::runner::Simulation;
//! use tage::{TageScl, TslConfig};
//! use workloads::WorkloadSpec;
//!
//! let sim = Simulation { warmup_instructions: 50_000, measure_instructions: 100_000 };
//! let spec = WorkloadSpec::new("doc", 1).with_request_types(64).with_handlers(8);
//! let result = sim.run(&mut TageScl::new(TslConfig::kilobytes(64)), &spec);
//! assert!(result.mpki() > 0.0);
//! assert!(result.instructions >= 100_000);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod analysis;
pub mod checkpoint;
pub mod energy;
pub mod env;
pub mod error;
pub mod exec;
pub mod predictor;
pub mod report;
pub mod runner;
pub mod timing;

pub use error::SimError;
pub use predictor::SimPredictor;
pub use runner::{RunResult, Simulation};
pub use timing::CoreParams;
