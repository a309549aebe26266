//! Synthetic server-workload generator for the LLBP-X reproduction.
//!
//! The paper evaluates on fourteen server traces (gem5 full-system captures
//! and Google datacenter traces) that total ~25 GiB and are not available
//! here. This crate synthesizes branch streams with the same *structure*,
//! which is what the hierarchical predictors exploit:
//!
//! * **Request-driven control flow.** A synthetic server dispatches a
//!   Markov/Zipf-distributed stream of typed requests through per-type
//!   route functions into shared handlers — producing the deep chains of
//!   unconditional branches (calls, returns, jumps) that LLBP's rolling
//!   context register hashes.
//! * **Capacity pressure.** Handler branch outcomes are deterministic per
//!   `(branch, request type)`, so the global pattern working set is
//!   learnable but large — tens to hundreds of thousands of TAGE patterns,
//!   overwhelming a 64 KiB predictor while fitting a 512 KiB one.
//! * **Hard-to-predict (H2P) branches.** Selected branches additionally
//!   correlate with the *previous* request's type, hundreds of history bits
//!   away: they need long histories and many patterns, and their patterns
//!   crowd into few LLBP contexts at shallow context depth — exactly the
//!   contention §III-B of the paper analyzes.
//! * **Context-duplicated easy branches.** Shared utility leaves are called
//!   from every handler with outcomes that need only short history, so
//!   contextualization replicates their patterns across pattern sets — the
//!   duplication overhead of §III-C.
//!
//! Fourteen presets ([`presets`]) are tuned so that a 64 KiB TAGE-SC-L
//! lands in the paper's MPKI band for the corresponding workload (Table I).
//!
//! # Example
//!
//! ```
//! use traces::{BranchStream, StreamExt, TraceStats};
//! use workloads::ServerWorkload;
//!
//! let spec = workloads::presets::by_name("NodeApp").expect("preset exists");
//! let stream = ServerWorkload::new(&spec).take_branches(10_000);
//! let stats = TraceStats::from_stream(stream);
//! assert!(stats.conditional_branches() > 1_000);
//! assert!(stats.unconditional_branches() > 500);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod engine;
pub mod hashing;
pub mod presets;
pub mod spec;
pub mod zipf;

pub use engine::ServerWorkload;
pub use spec::WorkloadSpec;
pub use zipf::Zipf;
