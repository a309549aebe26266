//! Structured errors for the simulation engine.
//!
//! The experiment engine is built to survive partial failure: a panicking
//! matrix cell is captured on its worker via `catch_unwind` and comes back
//! as a failed run whose error is its [`cell_failure`] message, instead of
//! aborting the whole matrix. An unreadable checkpoint surfaces a [`SimError`]; an
//! invalid workload spec panics with [`SimError::InvalidSpec`]'s message,
//! which the engine isolates like any other panic.

use std::fmt;
use std::path::PathBuf;

/// Errors surfaced by the simulation library's fallible paths.
#[derive(Debug)]
pub enum SimError {
    /// A workload spec failed [`workloads::WorkloadSpec::validate`].
    InvalidSpec {
        /// Workload name.
        workload: String,
        /// The validation message.
        reason: String,
    },
    /// The checkpoint journal could not be opened or written.
    Checkpoint {
        /// Journal path.
        path: PathBuf,
        /// Underlying IO error, rendered.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidSpec { workload, reason } => {
                write!(f, "invalid workload spec `{workload}`: {reason}")
            }
            SimError::Checkpoint { path, detail } => {
                write!(f, "checkpoint {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The error of matrix cell `index`, the `design` × `workload` cell whose
/// worker failed with `reason`.
pub fn cell_failure(index: usize, design: &str, workload: &str, reason: &str) -> String {
    format!("matrix cell {index} ({design} × {workload}) failed: {reason}")
}

/// Renders a captured panic payload (from `catch_unwind`) as a message.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_errors_render_their_cell() {
        let s = cell_failure(3, "LLBP-X", "NodeApp", "boom");
        assert!(s.contains("cell 3"), "{s}");
        assert!(s.contains("LLBP-X × NodeApp"), "{s}");
        assert!(s.contains("boom"), "{s}");
    }

    /// A failed cell has one kind, a panic, and its record renders as
    /// `failed` with the cell's message.
    #[test]
    fn job_error_kinds_map_to_statuses() {
        use crate::runner::{RunResult, Simulation};
        let s = cell_failure(0, "LLBP", "w", "boom");
        assert!(s.contains("LLBP × w) failed: boom"), "{s}");
        let run = RunResult {
            error: Some(s.clone()),
            ..RunResult::default()
        };
        let sim = Simulation {
            warmup_instructions: 1,
            measure_instructions: 1,
        };
        let json = run.to_json(&sim);
        assert_eq!(
            json.get("status").and_then(telemetry::Json::as_str),
            Some("failed")
        );
        assert_eq!(
            json.get("error").and_then(telemetry::Json::as_str),
            Some(s.as_str())
        );
    }

    #[test]
    fn panic_messages_capture_str_and_string_payloads() {
        let caught = std::panic::catch_unwind(|| panic!("static message")).unwrap_err();
        assert_eq!(panic_message(caught), "static message");
        let caught = std::panic::catch_unwind(|| panic!("formatted {}", 42)).unwrap_err();
        assert_eq!(panic_message(caught), "formatted 42");
        let caught = std::panic::catch_unwind(|| std::panic::panic_any(7u32)).unwrap_err();
        assert!(panic_message(caught).contains("non-string"));
    }

    #[test]
    fn sim_errors_render_every_variant() {
        let invalid = SimError::InvalidSpec {
            workload: "w".into(),
            reason: "bad".into(),
        };
        assert!(invalid.to_string().contains("invalid workload spec `w`"));
        let ckpt = SimError::Checkpoint {
            path: "/tmp/x".into(),
            detail: "denied".into(),
        };
        assert!(ckpt.to_string().contains("/tmp/x"));
    }
}
