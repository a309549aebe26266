//! Structured errors for the simulation engine.
//!
//! The experiment engine is built to survive partial failure: a panicking
//! matrix cell becomes a [`JobError`] (captured on the worker via
//! `catch_unwind`) instead of aborting the whole matrix. An unreadable
//! checkpoint surfaces a [`SimError`]; an invalid workload spec panics with
//! [`SimError::InvalidSpec`]'s message, which the engine isolates like any
//! other panic.

use std::fmt;
use std::path::PathBuf;

/// A failure inside one isolated matrix cell: its worker panicked, in the
/// predictor factory or in the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// Zero-based index of the job in its matrix.
    pub index: usize,
    /// Workload name of the cell.
    pub workload: String,
    /// Predictor label, if the factory got far enough to produce one.
    pub predictor: Option<String>,
    /// The captured panic message.
    pub message: String,
}

impl JobError {
    /// The error of cell `index`, whose worker panicked with `message`.
    pub fn panic(
        index: usize,
        workload: &str,
        predictor: Option<String>,
        message: String,
    ) -> Self {
        JobError { index, workload: workload.to_owned(), predictor, message }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "matrix cell {} ({} × {}) failed: {}",
            self.index,
            self.predictor.as_deref().unwrap_or("unbuilt predictor"),
            self.workload,
            self.message
        )
    }
}

impl std::error::Error for JobError {}

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
        let e = JobError::panic(
            3,
            "NodeApp",
            Some("LLBP-X".into()),
            "boom".into(),
        );
        let s = e.to_string();
        assert!(s.contains("cell 3"), "{s}");
        assert!(s.contains("LLBP-X × NodeApp"), "{s}");
        assert!(s.contains("boom"), "{s}");
    }

    /// A job error has one kind, a panic, and renders as `failed`.
    #[test]
    fn job_error_kinds_map_to_statuses() {
        let s = JobError::panic(0, "w", None, "boom".into()).to_string();
        assert!(s.contains("unbuilt predictor × w) failed: boom"), "{s}");
    }

    #[test]
    fn panic_messages_capture_str_and_string_payloads() {
        let caught =
            std::panic::catch_unwind(|| panic!("static message")).unwrap_err();
        assert_eq!(panic_message(caught), "static message");
        let caught =
            std::panic::catch_unwind(|| panic!("formatted {}", 42)).unwrap_err();
        assert_eq!(panic_message(caught), "formatted 42");
        let caught = std::panic::catch_unwind(|| std::panic::panic_any(7u32)).unwrap_err();
        assert!(panic_message(caught).contains("non-string"));
    }

    #[test]
    fn sim_errors_render_every_variant() {
        let invalid = SimError::InvalidSpec { workload: "w".into(), reason: "bad".into() };
        assert!(invalid.to_string().contains("invalid workload spec `w`"));
        let ckpt = SimError::Checkpoint { path: "/tmp/x".into(), detail: "denied".into() };
        assert!(ckpt.to_string().contains("/tmp/x"));
    }
}
