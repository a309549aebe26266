//! Environment-variable parsing with warn-once fallback.
//!
//! Every tunable the simulator reads from the environment
//! (`LLBPX_THREADS`, `LLBPX_FAULT_CELL`, `LLBPX_JOB_TIMEOUT` and the
//! `REPRO_*` budgets) follows the same
//! contract: an unset variable silently uses the default, a
//! set-but-unparsable value uses the default *and* warns on stderr — but only once per key per process,
//! because binaries resolve some keys more than once (engine fan-out +
//! record emission). This module is the single implementation of that
//! contract.
//!
//! Knobs are declared as [`Knob`] statics next to the subsystem that owns
//! them ([`crate::exec`], [`crate::runner`]), which keeps the key, the
//! expected-value description and the parser in one place and makes the parsing testable without
//! mutating the process environment (see [`Knob::resolve`]).

use std::collections::BTreeSet;
use std::sync::Mutex;

/// One environment tunable: its key, a human description of what a valid
/// value looks like, what happens on fallback, and the parser.
///
/// The parser is a plain `fn` so knobs can be `static`s; it receives the
/// trimmed raw value and returns `None` to reject it.
pub struct Knob<T: 'static> {
    /// Environment variable name (`LLBPX_*` / `REPRO_*`).
    pub key: &'static str,
    /// Human description of a valid value, for the warning.
    pub expected: &'static str,
    /// Human description of the fallback behavior, for the warning.
    pub fallback: &'static str,
    /// Parses a trimmed raw value; `None` rejects it.
    pub parse: fn(&str) -> Option<T>,
}

impl<T> Knob<T> {
    /// Declares a knob.
    pub const fn new(
        key: &'static str,
        expected: &'static str,
        fallback: &'static str,
        parse: fn(&str) -> Option<T>,
    ) -> Self {
        Knob { key, expected, fallback, parse }
    }

    /// Reads the knob from the process environment, falling back to
    /// `default()` when unset or unparsable (the latter warns once).
    pub fn get(&self, default: impl FnOnce() -> T) -> T {
        self.resolve(std::env::var(self.key).ok().as_deref(), default)
    }

    /// Resolves the knob from an explicit raw value (`None` = unset),
    /// so tests can exercise every parse path without touching the
    /// process environment. A rejected value warns once per key:
    /// `warning: KEY="raw" is not <expected>; <fallback>`.
    pub fn resolve(&self, raw: Option<&str>, default: impl FnOnce() -> T) -> T {
        match raw {
            Some(raw) => match (self.parse)(raw.trim()) {
                Some(v) => v,
                None => {
                    warn_once(self.key, raw, self.expected, self.fallback);
                    default()
                }
            },
            None => default(),
        }
    }
}

fn warn_once(key: &str, raw: &str, expected: &str, fallback_desc: &str) {
    static WARNED: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());
    let mut warned = WARNED.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if warned.insert(key.to_owned()) {
        eprintln!("warning: {key}={raw:?} is not {expected}; {fallback_desc}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    // Environment mutation is unsafe in multithreaded test runs, so these
    // tests drive `Knob::resolve` with explicit raw values and only use
    // `get` on keys that are never set (the fallback path).

    #[test]
    fn unset_keys_fall_back_silently() {
        static NEVER_SET: Knob<u32> = Knob::new(
            "LLBPX_TEST_KEY_THAT_IS_NEVER_SET",
            "a number",
            "using 7",
            |raw| raw.parse().ok(),
        );
        assert_eq!(NEVER_SET.get(|| 7), 7);
    }

    #[test]
    fn warn_once_warns_only_once_per_key() {
        // The warning itself goes to stderr; this only checks the once-ness
        // bookkeeping does not panic or double-insert.
        warn_once("LLBPX_TEST_WARN_KEY", "x", "a thing", "using default");
        warn_once("LLBPX_TEST_WARN_KEY", "x", "a thing", "using default");
    }

    /// Exercises one knob on all three contract paths: a valid raw value
    /// parses, an invalid one falls back (warning once, on stderr), and an
    /// unset variable falls back silently.
    fn check<T: PartialEq + std::fmt::Debug + Clone>(
        knob: &Knob<T>,
        valid: &str,
        expect: T,
        invalid: &str,
        default: T,
    ) {
        assert_eq!(
            knob.resolve(Some(valid), || default.clone()),
            expect,
            "{}={valid:?} must parse",
            knob.key
        );
        assert_eq!(
            knob.resolve(Some(invalid), || default.clone()),
            default,
            "{}={invalid:?} must fall back",
            knob.key
        );
        // Calling again with the same bad value must not warn again
        // (warn-once), and must still fall back.
        assert_eq!(knob.resolve(Some(invalid), || default.clone()), default);
        assert_eq!(
            knob.resolve(None, || default.clone()),
            default,
            "unset {} must default",
            knob.key
        );
    }

    /// Satellite: one table-driven test covering every `LLBPX_*`/`REPRO_*`
    /// knob the simulator reads — valid value, invalid-warns-once fallback,
    /// and unset default.
    #[test]
    fn every_knob_parses_valid_rejects_invalid_and_defaults_unset() {
        use crate::{exec, runner};

        check(&exec::THREADS, "8", 8usize, "zero-ish", 3);
        check(&exec::THREADS, "1", 1usize, "0", 4);
        check(&exec::FAULT_CELL, "3", Some(3usize), "x", None);
        check(&exec::FAULT_CELL, " 0 ", Some(0usize), "2:stall", None);
        check(
            &exec::JOB_TIMEOUT,
            "2.5",
            Some(Duration::from_secs_f64(2.5)),
            "fast",
            None,
        );
        // `0` is a *valid* value meaning "deadline off", not a parse error.
        check(&exec::JOB_TIMEOUT, "0", None, "-1", Some(Duration::from_secs(9)));
        check(&exec::JOB_TIMEOUT, "0.001", Some(Duration::from_millis(1)), "nan", None);
        check(&runner::WARMUP, "1_000_000", 1_000_000u64, "ten", 5);
        check(&runner::MEASURE, "2_000_000", 2_000_000u64, "", 6);
        // Zero measured instructions is rejected; zero warmup is valid.
        check(&runner::MEASURE, "1", 1u64, "0", 6);
        check(&runner::WARMUP, "0", 0u64, "-1", 5);
    }
}
