//! Observability layer for the LLBP-X reproduction.
//!
//! Everything the rest of the workspace needs to *measure itself*, with no
//! external dependencies so the whole stack builds offline:
//!
//! * [`json`] — a small JSON value type, serializer and parser used for the
//!   machine-readable run records (`BENCH_*.json`);
//! * [`record`] — the record-line schema, plus the `--json` /
//!   `LLBPX_TELEMETRY` sink resolution shared by every experiment binary;
//! * [`profile`] — lightweight RAII scope timers over fixed thread-local
//!   counters, instrumenting the simulator's hot paths;
//! * [`prng`] — a deterministic SplitMix64 generator used by the
//!   randomized tests across the workspace (in place of the former
//!   crates-io `rand` dependency).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod json;
pub mod prng;
pub mod profile;
pub mod record;

pub use json::Json;
pub use prng::SplitMix64;
pub use profile::ScopeTotals;
