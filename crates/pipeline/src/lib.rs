//! Trace-driven frontend cycle model of the Table II core.
//!
//! The paper's performance numbers (Figs. 13, 14b) come from gem5 running
//! the Table II core. `bpsim::timing` reproduces them with Top-Down
//! arithmetic over a run's mispredictions; this crate adds a model of the
//! machine's *frontend*, which is where branch prediction matters:
//!
//! * block-based fetch: a taken branch or a direction misprediction ends
//!   the fetch block, so code layout and taken-branch density set the
//!   fetch bandwidth;
//! * a 16K-entry 8-way **BTB** (Table II) providing taken-branch targets,
//!   where a miss costs a decode-time redirect;
//! * a **return address stack** predicting return targets.
//!
//! [`Frontend`] is an observer: it wraps any [`bpsim::SimPredictor`],
//! forwards every prediction unchanged, and from each branch record and
//! whether its conditional was mispredicted counts the run's fetch cycles
//! and target misses ([`bpsim::timing::FrontendCounters`]). The predictor never
//! sees the frontend, so the model is trace-driven: a BTB miss delays no
//! predictor update. The runner snapshots the counters at the end of
//! warmup, so the BTB and RAS warm up but only the measured window counts,
//! and [`bpsim::timing::frontend_cycles`] turns them into cycles.
//!
//! # Example
//!
//! ```
//! use bpsim::timing::frontend_cycles;
//! use bpsim::Simulation;
//! use pipeline::Frontend;
//! use tage::{TageScl, TslConfig};
//!
//! let spec = workloads::presets::by_name("Chirper").unwrap();
//! let sim = Simulation { warmup_instructions: 20_000, measure_instructions: 100_000 };
//! let run = sim.run(&mut Frontend::new(TageScl::new(TslConfig::kilobytes(64))), &spec);
//! let frontend = run.frontend.expect("the observer was on");
//! let cycles = frontend_cycles(run.instructions, run.mispredicts, &frontend);
//! let ipc = run.instructions as f64 / cycles as f64;
//! assert!(ipc > 0.5 && ipc < 8.0);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod btb;
pub mod core;
pub mod ras;

pub use crate::core::Frontend;
pub use btb::Btb;
pub use ras::ReturnAddressStack;
