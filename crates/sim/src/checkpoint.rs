//! Durable run-matrix checkpoints: a JSONL journal of completed cells.
//!
//! At paper-scale budgets a sweep is hours of work. With `LLBPX_CHECKPOINT`
//! pointing at a journal file, [`crate::exec::run_matrix`] appends one line
//! per *completed* cell, keyed by a deterministic fingerprint of the cell's
//! index and name, the predictor (label + storage bits, and whether the
//! frontend observer wraps it), the workload spec and the simulation
//! budgets. A re-run of the same matrix restores those cells from the
//! journal instead of re-simulating them.
//!
//! A journal line is the cell's run record ([`RunResult::to_json`], the
//! object a telemetry line holds per run) plus `"v"` (the line format
//! version) and `"fingerprint"`. [`RunResult::from_json`] reads it back:
//! every accuracy field, the second-level counters, the deep contexts, the
//! frontend counters, the storage bits and the original run's
//! `wall_seconds`.
//! The scope profile is not restored, and restored runs are marked
//! `resumed: true` in telemetry.
//!
//! The journal is append-only and crash-tolerant: a SIGKILL mid-write
//! leaves at most one partial trailing line, which the loader drops with a
//! warning, as it drops lines of an older format version; their cells
//! re-run. Lines whose fingerprints no longer match (changed budgets,
//! predictor config or matrix) are never looked up, so one journal can be
//! shared across re-runs with evolving parameters.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use telemetry::Json;
use workloads::WorkloadSpec;

use crate::error::SimError;
use crate::runner::{RunResult, Simulation};

/// Environment variable selecting the checkpoint journal path. Unset or
/// empty disables checkpointing.
pub const ENV_CHECKPOINT: &str = "LLBPX_CHECKPOINT";

/// Journal line format version, also hashed into every fingerprint.
/// Version 1 fingerprints left out the cell name, so equal-label cells of
/// different configurations (e.g. the LLBP-X H_th and CTT sweeps)
/// collided. Version 2 lines held a journal-only encoding of the run;
/// version 3 lines are the run record itself. Version 4 records carry an
/// LLBP-X run's deep contexts, the oracle a dependent Opt-W cell is built
/// from: a version 3 LLBP-X line would restore with none, and its Opt-W
/// would silently equal LLBP-X. Version 5 fingerprints say whether the
/// frontend observer was on, and its records carry the observer's
/// counters (a v4 line of an observed cell would restore without them).
/// A v5 line written before the record dropped its `intervals` series
/// still restores: the reader ignores the key, and no restored field
/// depended on it. Lines of any other version are dropped with a warning
/// and their cells re-run.
const ENTRY_VERSION: i64 = 5;

/// FNV-1a 64-bit hash.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The deterministic identity of one matrix cell: job index, the cell's
/// name (the design label its binary gives it), the predictor's own label
/// and storage budget, whether the frontend observer wraps the predictor,
/// the full workload spec and the simulation budgets.
/// Two cells share a fingerprint exactly when re-running them would
/// produce bit-identical results.
///
/// The cell name tells apart configurations that the predictor label and
/// storage cannot: every `LlbpConfig::with_h_th` variant is labelled
/// "LLBP-X" and has the same storage. The observer flag keeps a plain
/// cell's line (which holds no frontend counters) from restoring an
/// observed cell of the same name and index.
pub fn job_fingerprint(
    index: usize,
    cell: &str,
    predictor: &str,
    storage_bits: u64,
    frontend: bool,
    spec: &WorkloadSpec,
    sim: &Simulation,
) -> String {
    // The spec's `Debug` form covers every field, so any spec change
    // (seed, mix, sizes) changes the fingerprint; `{cell:?}` quotes the
    // name so a `|` inside it cannot shift the fields.
    let canonical = format!(
        "v{ENTRY_VERSION}|{index}|{cell:?}|{predictor}|{storage_bits}|{frontend}|{spec:?}|{}|{}",
        sim.warmup_instructions, sim.measure_instructions
    );
    format!("{:016x}", fnv1a64(canonical.as_bytes()))
}

/// An open checkpoint journal: previously completed cells indexed by
/// fingerprint, plus an append handle for new entries.
pub struct Checkpoint {
    path: PathBuf,
    entries: HashMap<String, RunResult>,
    file: Mutex<File>,
}

impl Checkpoint {
    /// Opens (creating if needed) the journal at `path` and loads every
    /// parseable entry. An unparseable non-empty line — e.g. the partial
    /// trailing line a SIGKILL can leave, or a line of an older format
    /// version — is dropped with a warning on stderr; only that line is
    /// lost (its cell re-runs), never the journal.
    pub fn open(path: &Path) -> Result<Self, SimError> {
        let mut entries = HashMap::new();
        if let Ok(text) = std::fs::read_to_string(path) {
            for (number, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                match parse_line(line) {
                    Some((fingerprint, result)) => {
                        entries.insert(fingerprint, result);
                    }
                    None => eprintln!(
                        "warning: checkpoint {}: dropping unparseable journal line {} \
                         ({} bytes; truncated by a crash mid-write, or an older format?)",
                        path.display(),
                        number + 1,
                        line.len(),
                    ),
                }
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| SimError::Checkpoint {
                path: path.to_path_buf(),
                detail: e.to_string(),
            })?;
        Ok(Checkpoint {
            path: path.to_path_buf(),
            entries,
            file: Mutex::new(file),
        })
    }

    /// The journal resolved from [`ENV_CHECKPOINT`], or `None` when
    /// checkpointing is off. An unopenable path warns on stderr and runs
    /// without a checkpoint rather than failing the sweep.
    pub fn from_env() -> Option<Self> {
        let path = std::env::var(ENV_CHECKPOINT).ok()?;
        if path.trim().is_empty() {
            return None;
        }
        match Checkpoint::open(Path::new(&path)) {
            Ok(cp) => Some(cp),
            Err(e) => {
                eprintln!("warning: {e}; running without a checkpoint");
                None
            }
        }
    }

    /// Completed cells loaded from the journal.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the journal held no completed cells.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The restored run for `fingerprint`, marked `resumed`, if the
    /// journal has one.
    pub fn lookup(&self, fingerprint: &str) -> Option<RunResult> {
        self.entries.get(fingerprint).cloned()
    }

    /// Journals one completed cell; `sim` is the protocol it ran under.
    /// Failed cells are never journaled (a re-run should retry them).
    /// Write errors warn on stderr; losing a checkpoint entry must not fail
    /// the run that produced it.
    pub fn record(&self, fingerprint: &str, result: &RunResult, sim: &Simulation) {
        if result.is_failed() {
            return;
        }
        let line = journal_line(fingerprint, result, sim).to_string();
        let mut file = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // One write_all per line keeps concurrent workers' entries whole.
        if let Err(e) = file.write_all(format!("{line}\n").as_bytes()) {
            eprintln!(
                "warning: checkpoint {}: write failed: {e}",
                self.path.display()
            );
        }
    }
}

/// A journal line: the run record plus the format version and the cell's
/// fingerprint.
fn journal_line(fingerprint: &str, result: &RunResult, sim: &Simulation) -> Json {
    result
        .to_json(sim)
        .set("v", ENTRY_VERSION)
        .set("fingerprint", fingerprint)
}

fn parse_line(line: &str) -> Option<(String, RunResult)> {
    let j = Json::parse(line.trim()).ok()?;
    if j.get("v")?.as_i64()? != ENTRY_VERSION {
        return None;
    }
    let fingerprint = j.get("fingerprint")?.as_str()?.to_owned();
    Some((
        fingerprint,
        RunResult {
            resumed: true,
            ..RunResult::from_json(&j)?
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::FrontendCounters;
    use llbpx::LlbpStats;

    fn sample_result() -> RunResult {
        let mut stats = LlbpStats {
            cond_branches: 1000,
            mispredicts: 31,
            llbp_provided: 400,
            prefetches_issued: 55,
            prefetch_on_time: 44,
            prefetch_late: 8,
            prefetch_unused: 3,
            allocations: 120,
            ..LlbpStats::default()
        };
        stats.alloc_len_histogram[2] = 17;
        RunResult {
            name: "LLBP-X".into(),
            workload: "NodeApp".into(),
            instructions: 200_000,
            cond_branches: 31_000,
            mispredicts: 310,
            override_candidates: 99,
            llbp: Some(stats),
            storage_bits: 4096,
            deep_contexts: Some(vec![0x2a, 0x8000_0000_0000_0001, u64::MAX]),
            frontend: Some(FrontendCounters {
                fetch_cycles: 31_500,
                target_misses: 77,
            }),
            wall_seconds: 0.125,
            ..RunResult::default()
        }
    }

    fn sim() -> Simulation {
        Simulation {
            warmup_instructions: 100_000,
            measure_instructions: 200_000,
        }
    }

    fn line(fingerprint: &str, result: &RunResult) -> String {
        journal_line(fingerprint, result, &sim()).to_string()
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("llbpx-ckpt-{tag}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn fingerprints_separate_cells_and_budgets() {
        let spec = WorkloadSpec::new("w", 1)
            .with_request_types(64)
            .with_handlers(8);
        let sim = Simulation {
            warmup_instructions: 10,
            measure_instructions: 20,
        };
        let base = job_fingerprint(0, "LLBP", "LLBP", 123, false, &spec, &sim);
        assert_eq!(
            base,
            job_fingerprint(0, "LLBP", "LLBP", 123, false, &spec, &sim),
            "deterministic"
        );
        assert_ne!(
            base,
            job_fingerprint(1, "LLBP", "LLBP", 123, false, &spec, &sim),
            "index"
        );
        assert_ne!(
            base,
            job_fingerprint(0, "LLBP 2", "LLBP", 123, false, &spec, &sim),
            "cell name"
        );
        assert_ne!(
            base,
            job_fingerprint(0, "LLBP", "LLBP-X", 123, false, &spec, &sim),
            "label"
        );
        assert_ne!(
            base,
            job_fingerprint(0, "LLBP", "LLBP", 124, false, &spec, &sim),
            "storage"
        );
        assert_ne!(
            base,
            job_fingerprint(0, "LLBP", "LLBP", 123, true, &spec, &sim),
            "frontend observer"
        );
        let other_spec = WorkloadSpec::new("w", 2)
            .with_request_types(64)
            .with_handlers(8);
        assert_ne!(
            base,
            job_fingerprint(0, "LLBP", "LLBP", 123, false, &other_spec, &sim),
            "spec"
        );
        let other_sim = Simulation {
            warmup_instructions: 11,
            measure_instructions: 20,
        };
        assert_ne!(
            base,
            job_fingerprint(0, "LLBP", "LLBP", 123, false, &spec, &other_sim),
            "budgets"
        );
        // A `|` in a cell name cannot move bytes between fields.
        assert_ne!(
            job_fingerprint(0, "a|b", "c", 1, false, &spec, &sim),
            job_fingerprint(0, "a", "b|c", 1, false, &spec, &sim)
        );
    }

    #[test]
    fn entries_round_trip_bit_identically() {
        let result = sample_result();
        let (fp, r) = parse_line(&line("00ff", &result)).expect("parses");
        assert_eq!(fp, "00ff");
        assert!(r.resumed && !r.is_failed() && r.llbp.is_some());
        assert_eq!(
            r.deep_contexts, result.deep_contexts,
            "context IDs beyond i64 survive"
        );
        // Every field the record holds — accuracy, counters, histogram,
        // frontend counters, storage, wall time — reads back
        // unchanged.
        let resumed = RunResult {
            resumed: true,
            ..result
        };
        assert_eq!(r.to_json(&sim()), resumed.to_json(&sim()));
    }

    /// A v5 line written while run records still carried the `intervals`
    /// series restores every field but that series.
    #[test]
    fn a_v5_line_with_intervals_still_restores() {
        const LINE: &str = concat!(
            r#"{"predictor":"LLBP-X","workload":"NodeApp","warmup_instructions":100000,"#,
            r#""measure_instructions":200000,"instructions":200000,"#,
            r#""cond_branches":31000,"mispredicts":310,"mpki":1.55,"#,
            r#""override_candidates":99,"wall_seconds":0.125,"#,
            r#""counters":{"cond_branches":1000,"mispredicts":31,"llbp_provided":400,"#,
            r#""llbp_useful":0,"llbp_harmful":0,"ps_reads":0,"ps_writes":0,"#,
            r#""pb_accesses":0,"cd_accesses":0,"ctt_accesses":0,"prefetches_issued":55,"#,
            r#""prefetch_on_time":44,"prefetch_late":8,"prefetch_unused":3,"#,
            r#""demand_fetches":0,"allocations":120,"alloc_dropped_range":0,"#,
            r#""sets_created":0,"depth_transitions":0},"alloc_len_histogram":[0,0,17,0,"#,
            r#"0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"deep_contexts":["000000000000002a","#,
            r#""8000000000000001","ffffffffffffffff"],"frontend":{"fetch_cycles":31500,"#,
            r#""target_misses":77},"intervals":[{"instructions":100000,"#,
            r#""cond_branches":15000,"mispredicts":160,"mpki":1.6,"#,
            r#""prefetches_issued":20,"prefetch_on_time":18,"prefetch_late":2,"#,
            r#""allocations":60,"allocs_per_kilo":0.6}],"profile":[],"status":"ok","#,
            r#""storage_bits":4096,"v":5,"fingerprint":"00ff"}"#,
        );
        assert!(LINE.contains("\"intervals\":[{"), "the older format");
        let (fp, r) = parse_line(LINE).expect("a v5 line with intervals restores");
        assert_eq!(fp, "00ff");
        assert!(r.resumed && !r.is_failed());
        assert_eq!(r.deep_contexts, sample_result().deep_contexts);
        assert_eq!(r.frontend, sample_result().frontend);
        let resumed = RunResult {
            resumed: true,
            ..sample_result()
        };
        assert_eq!(r.to_json(&sim()), resumed.to_json(&sim()));
    }

    #[test]
    fn infinite_storage_round_trips() {
        let inf = RunResult {
            storage_bits: u64::MAX,
            ..sample_result()
        };
        let (_, r) = parse_line(&line("00ff", &inf)).expect("an Inf TSL cell restores");
        assert_eq!(r.storage_bits, u64::MAX);
    }

    #[test]
    fn a_line_with_a_negative_counter_is_rejected() {
        let good = line("00ff", &sample_result());
        assert!(parse_line(&good).is_some());
        let negative = good.replace("\"ps_reads\":0,", "\"ps_reads\":-1,");
        assert_ne!(negative, good, "the line holds the counter");
        assert!(
            parse_line(&negative).is_none(),
            "-1 must not restore as 2^64-1"
        );
    }

    #[test]
    fn journal_survives_partial_and_garbage_lines() {
        let path = tmp("garbage");
        let _ = std::fs::remove_file(&path);
        let result = sample_result();
        let good = line("aaaa", &result);
        let partial = &good[..good.len() / 2];
        std::fs::write(&path, format!("{good}\nnot json at all\n{partial}")).unwrap();
        let cp = Checkpoint::open(&path).unwrap();
        assert_eq!(cp.len(), 1, "only the whole line loads");
        assert!(cp.lookup("aaaa").is_some());
        let _ = std::fs::remove_file(&path);
    }

    /// Satellite: a crash mid-write can truncate the trailing record at
    /// *any* byte. Every proper prefix must be dropped (with a warning)
    /// while the records before it survive; only the full line loads.
    #[test]
    fn truncated_trailing_records_are_dropped_at_every_byte_offset() {
        let path = tmp("truncate");
        let first = line("aaaa", &sample_result());
        let second = line("bbbb", &sample_result());
        for cut in 0..=second.len() {
            std::fs::write(&path, format!("{first}\n{}", &second[..cut])).unwrap();
            let cp = Checkpoint::open(&path).unwrap();
            assert!(
                cp.lookup("aaaa").is_some(),
                "cut={cut}: earlier records survive"
            );
            if cut == second.len() {
                assert_eq!(cp.len(), 2, "the untruncated line loads");
            } else {
                assert_eq!(cp.len(), 1, "cut={cut}: the partial line is dropped");
                assert!(cp.lookup("bbbb").is_none());
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn record_then_reopen_restores_the_cell() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let cp = Checkpoint::open(&path).unwrap();
            assert!(cp.is_empty());
            cp.record(
                "cell1",
                &RunResult {
                    storage_bits: 77,
                    ..sample_result()
                },
                &sim(),
            );
            let failed = RunResult {
                workload: "NodeApp".into(),
                error: Some("boom".into()),
                ..RunResult::default()
            };
            cp.record("cell2", &failed, &sim());
        }
        let cp = Checkpoint::open(&path).unwrap();
        assert_eq!(cp.len(), 1, "failed cells are never journaled");
        let cell = cp.lookup("cell1").expect("completed cell restores");
        assert_eq!(cell.storage_bits, 77);
        assert_eq!(cell.mispredicts, 310);
        assert!(cp.lookup("cell2").is_none());
        let _ = std::fs::remove_file(&path);
    }
}
