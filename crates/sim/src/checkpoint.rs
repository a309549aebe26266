//! Durable run-matrix checkpoints: a JSONL journal of completed cells.
//!
//! At paper-scale budgets a sweep is hours of work; a crash, an OOM kill or
//! a lost SSH session used to discard all of it. With `LLBPX_CHECKPOINT`
//! pointing at a journal file, [`crate::exec::run_matrix`] appends one JSON
//! line per *completed* cell — keyed by a deterministic fingerprint of the
//! cell's index and name, the predictor (label + storage bits), the
//! workload spec and the simulation budgets — and a re-run of the same matrix skips finished
//! cells by restoring their [`RunResult`]s bit-identically from the
//! journal instead of re-simulating them.
//!
//! The journal is append-only and crash-tolerant: a SIGKILL mid-write
//! leaves at most one partial trailing line, which the loader drops with a
//! warning (the cell simply re-runs). Lines whose fingerprints no longer
//! match (changed budgets, changed predictor config, different matrix) are
//! simply never looked up, so one journal can even be shared across
//! re-runs with evolving parameters — only still-identical cells are
//! reused.
//!
//! What a checkpoint entry restores: every accuracy field, the second-level
//! counter set (so figures that read [`llbpx::LlbpStats`] — prefetch
//! timeliness, traffic, energy — render identically), the interval
//! time-series and storage bits. What it does
//! not restore: the scope profile (its labels are `&'static str`s into the
//! binary) and honest wall-clock — restored cells carry the original run's
//! `wall_seconds` and are marked `resumed: true` in telemetry.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use llbpx::LlbpStats;
use telemetry::{IntervalSample, Json};
use workloads::WorkloadSpec;

use crate::error::SimError;
use crate::runner::{RunResult, RunStatus, Simulation};

/// Environment variable selecting the checkpoint journal path. Unset or
/// empty disables checkpointing.
pub const ENV_CHECKPOINT: &str = "LLBPX_CHECKPOINT";

/// Journal line format version. Version 1 fingerprints left out the cell
/// name, so equal-label cells of different configurations (e.g. the
/// LLBP-X H_th and CTT sweeps) collided; its lines are never matched.
/// Older version-2 lines also carry a per-run trace attribution label,
/// which restoring ignores.
const ENTRY_VERSION: i64 = 2;

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
/// and storage budget, the full workload spec and the simulation budgets.
/// Two cells share a fingerprint exactly when re-running them would
/// produce bit-identical results.
///
/// The cell name tells apart configurations that the predictor label and
/// storage cannot: every `LlbpxConfig::with_h_th` variant is labelled
/// "LLBP-X" and has the same storage.
pub fn job_fingerprint(
    index: usize,
    cell: &str,
    predictor: &str,
    storage_bits: u64,
    spec: &WorkloadSpec,
    sim: &Simulation,
) -> String {
    // The spec's `Debug` form covers every field, so any spec change
    // (seed, mix, sizes) changes the fingerprint; `{cell:?}` quotes the
    // name so a `|` inside it cannot shift the fields.
    let canonical = format!(
        "v{ENTRY_VERSION}|{index}|{cell:?}|{predictor}|{storage_bits}|{spec:?}|{}|{}",
        sim.warmup_instructions, sim.measure_instructions
    );
    format!("{:016x}", fnv1a64(canonical.as_bytes()))
}

/// One cell restored from the journal.
#[derive(Debug, Clone)]
pub struct RestoredCell {
    /// The run, marked `resumed` with status `Ok`.
    pub result: RunResult,
    /// Storage budget recorded for the cell.
    pub storage_bits: u64,
}

/// An open checkpoint journal: previously completed cells indexed by
/// fingerprint, plus an append handle for new entries.
pub struct Checkpoint {
    path: PathBuf,
    entries: HashMap<String, RestoredCell>,
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
                    Some((fingerprint, cell)) => {
                        entries.insert(fingerprint, cell);
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
        let file = OpenOptions::new().create(true).append(true).open(path).map_err(|e| {
            SimError::Checkpoint { path: path.to_path_buf(), detail: e.to_string() }
        })?;
        Ok(Checkpoint { path: path.to_path_buf(), entries, file: Mutex::new(file) })
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

    /// The journal path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Completed cells loaded from the journal.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the journal held no completed cells.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The restored cell for `fingerprint`, if the journal has one.
    pub fn lookup(&self, fingerprint: &str) -> Option<RestoredCell> {
        self.entries.get(fingerprint).cloned()
    }

    /// Journals one completed cell. Failed cells are never journaled (a
    /// re-run should retry them). Write errors warn on stderr; losing a
    /// checkpoint entry must not fail the run that produced it.
    pub fn record(&self, fingerprint: &str, result: &RunResult, storage_bits: u64) {
        if result.is_failed() {
            return;
        }
        let line = entry_to_json(fingerprint, result, storage_bits).to_string();
        let mut file = self.file.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        // One write_all per line keeps concurrent workers' entries whole.
        if let Err(e) = file.write_all(format!("{line}\n").as_bytes()) {
            eprintln!("warning: checkpoint {}: write failed: {e}", self.path.display());
        }
    }
}

fn entry_to_json(fingerprint: &str, result: &RunResult, storage_bits: u64) -> Json {
    let llbp = match &result.llbp {
        None => Json::Null,
        Some(stats) => {
            let mut counters = Json::obj();
            for (name, value) in stats.counters() {
                counters = counters.set(name, value);
            }
            Json::obj().set("counters", counters).set(
                "alloc_len_histogram",
                Json::Arr(stats.alloc_len_histogram.iter().map(|&v| Json::from(v)).collect()),
            )
        }
    };
    Json::obj()
        .set("v", ENTRY_VERSION)
        .set("fingerprint", fingerprint)
        .set("predictor", result.name.as_str())
        .set("workload", result.workload.as_str())
        .set("instructions", result.instructions)
        .set("cond_branches", result.cond_branches)
        .set("mispredicts", result.mispredicts)
        .set("override_candidates", result.override_candidates)
        .set("wall_seconds", result.wall_seconds)
        .set("storage_bits", storage_bits)
        .set("intervals", Json::Arr(result.intervals.iter().map(IntervalSample::to_json).collect()))
        .set("llbp", llbp)
}

fn parse_line(line: &str) -> Option<(String, RestoredCell)> {
    let j = Json::parse(line.trim()).ok()?;
    if j.get("v")?.as_i64()? != ENTRY_VERSION {
        return None;
    }
    let fingerprint = j.get("fingerprint")?.as_str()?.to_owned();
    let u = |key: &str| j.get(key).and_then(Json::as_i64).map(|v| v as u64);
    let result = RunResult {
        name: j.get("predictor")?.as_str()?.to_owned(),
        workload: j.get("workload")?.as_str()?.to_owned(),
        instructions: u("instructions")?,
        cond_branches: u("cond_branches")?,
        mispredicts: u("mispredicts")?,
        override_candidates: u("override_candidates")?,
        llbp: parse_llbp(j.get("llbp")?)?,
        wall_seconds: j.get("wall_seconds")?.as_f64()?,
        intervals: parse_intervals(j.get("intervals")?)?,
        profile: Vec::new(),
        status: RunStatus::Ok,
        resumed: true,
    };
    // Infinite designs report `u64::MAX` storage, which the journal holds
    // as a float; the saturating cast restores it exactly.
    let storage_bits = match j.get("storage_bits")? {
        Json::Num(x) if *x >= i64::MAX as f64 => *x as u64,
        other => other.as_i64()? as u64,
    };
    Some((fingerprint, RestoredCell { result, storage_bits }))
}

fn parse_intervals(j: &Json) -> Option<Vec<IntervalSample>> {
    let mut out = Vec::new();
    for s in j.as_arr()? {
        let u = |key: &str| s.get(key).and_then(Json::as_i64).map(|v| v as u64);
        let f = |key: &str| s.get(key).and_then(Json::as_f64);
        out.push(IntervalSample {
            instructions: u("instructions")?,
            cond_branches: u("cond_branches")?,
            mispredicts: u("mispredicts")?,
            mpki: f("mpki")?,
            prefetches_issued: u("prefetches_issued")?,
            prefetch_on_time: u("prefetch_on_time")?,
            prefetch_late: u("prefetch_late")?,
            allocations: u("allocations")?,
            allocs_per_kilo: f("allocs_per_kilo")?,
            pb_occupancy: match s.get("pb_occupancy") {
                Some(Json::Null) | None => None,
                Some(v) => Some(v.as_f64()?),
            },
        });
    }
    Some(out)
}

fn parse_llbp(j: &Json) -> Option<Option<LlbpStats>> {
    if matches!(j, Json::Null) {
        return Some(None);
    }
    let counters = j.get("counters")?;
    let c = |key: &str| counters.get(key).and_then(Json::as_i64).map(|v| v as u64);
    let mut stats = LlbpStats {
        cond_branches: c("cond_branches")?,
        mispredicts: c("mispredicts")?,
        llbp_provided: c("llbp_provided")?,
        llbp_useful: c("llbp_useful")?,
        llbp_harmful: c("llbp_harmful")?,
        ps_reads: c("ps_reads")?,
        ps_writes: c("ps_writes")?,
        pb_accesses: c("pb_accesses")?,
        cd_accesses: c("cd_accesses")?,
        ctt_accesses: c("ctt_accesses")?,
        prefetches_issued: c("prefetches_issued")?,
        prefetch_on_time: c("prefetch_on_time")?,
        prefetch_late: c("prefetch_late")?,
        prefetch_unused: c("prefetch_unused")?,
        demand_fetches: c("demand_fetches")?,
        allocations: c("allocations")?,
        alloc_dropped_range: c("alloc_dropped_range")?,
        sets_created: c("sets_created")?,
        depth_transitions: c("depth_transitions")?,
        ..LlbpStats::default()
    };
    let histogram = j.get("alloc_len_histogram")?.as_arr()?;
    if histogram.len() != stats.alloc_len_histogram.len() {
        return None;
    }
    for (slot, v) in stats.alloc_len_histogram.iter_mut().zip(histogram) {
        *slot = v.as_i64()? as u64;
    }
    Some(Some(stats))
}

#[cfg(test)]
mod tests {
    use super::*;

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
            wall_seconds: 0.125,
            intervals: vec![IntervalSample {
                instructions: 100_000,
                cond_branches: 15_000,
                mispredicts: 160,
                mpki: 1.6,
                prefetches_issued: 20,
                prefetch_on_time: 18,
                prefetch_late: 2,
                allocations: 60,
                allocs_per_kilo: 0.6,
                pb_occupancy: Some(0.5),
            }],
            ..RunResult::default()
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("llbpx-ckpt-{tag}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn fingerprints_separate_cells_and_budgets() {
        let spec = WorkloadSpec::new("w", 1).with_request_types(64).with_handlers(8);
        let sim = Simulation { warmup_instructions: 10, measure_instructions: 20 };
        let base = job_fingerprint(0, "LLBP", "LLBP", 123, &spec, &sim);
        assert_eq!(base, job_fingerprint(0, "LLBP", "LLBP", 123, &spec, &sim), "deterministic");
        assert_ne!(base, job_fingerprint(1, "LLBP", "LLBP", 123, &spec, &sim), "index");
        assert_ne!(base, job_fingerprint(0, "LLBP 2", "LLBP", 123, &spec, &sim), "cell name");
        assert_ne!(base, job_fingerprint(0, "LLBP", "LLBP-X", 123, &spec, &sim), "label");
        assert_ne!(base, job_fingerprint(0, "LLBP", "LLBP", 124, &spec, &sim), "storage");
        let other_spec = WorkloadSpec::new("w", 2).with_request_types(64).with_handlers(8);
        assert_ne!(base, job_fingerprint(0, "LLBP", "LLBP", 123, &other_spec, &sim), "spec");
        let other_sim = Simulation { warmup_instructions: 11, measure_instructions: 20 };
        assert_ne!(base, job_fingerprint(0, "LLBP", "LLBP", 123, &spec, &other_sim), "budgets");
        // A `|` in a cell name cannot move bytes between fields.
        assert_ne!(
            job_fingerprint(0, "a|b", "c", 1, &spec, &sim),
            job_fingerprint(0, "a", "b|c", 1, &spec, &sim)
        );
    }

    #[test]
    fn entries_round_trip_bit_identically() {
        let result = sample_result();
        let line = entry_to_json("00ff", &result, 4096).to_string();
        let (fp, cell) = parse_line(&line).expect("parses");
        assert_eq!(fp, "00ff");
        assert_eq!(cell.storage_bits, 4096);
        let r = &cell.result;
        assert_eq!(r.name, result.name);
        assert_eq!(r.instructions, result.instructions);
        assert_eq!(r.mispredicts, result.mispredicts);
        assert_eq!(r.override_candidates, result.override_candidates);
        assert_eq!(r.intervals, result.intervals);
        assert_eq!(r.wall_seconds, result.wall_seconds);
        assert!(r.resumed);
        assert!(!r.is_failed());
        let (a, b) = (r.llbp.as_ref().unwrap(), result.llbp.as_ref().unwrap());
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.alloc_len_histogram, b.alloc_len_histogram);
    }

    #[test]
    fn infinite_storage_round_trips() {
        let line = entry_to_json("00ff", &sample_result(), u64::MAX).to_string();
        let (_, cell) = parse_line(&line).expect("an Inf TSL cell restores");
        assert_eq!(cell.storage_bits, u64::MAX);
    }

    #[test]
    fn journal_survives_partial_and_garbage_lines() {
        let path = tmp("garbage");
        let _ = std::fs::remove_file(&path);
        let result = sample_result();
        let good = entry_to_json("aaaa", &result, 1).to_string();
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
        let first = entry_to_json("aaaa", &sample_result(), 1).to_string();
        let second = entry_to_json("bbbb", &sample_result(), 2).to_string();
        for cut in 0..=second.len() {
            std::fs::write(&path, format!("{first}\n{}", &second[..cut])).unwrap();
            let cp = Checkpoint::open(&path).unwrap();
            assert!(cp.lookup("aaaa").is_some(), "cut={cut}: earlier records survive");
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
            cp.record("cell1", &sample_result(), 77);
            let failed = RunResult::failed(None, "NodeApp", "boom".into());
            cp.record("cell2", &failed, 0);
        }
        let cp = Checkpoint::open(&path).unwrap();
        assert_eq!(cp.len(), 1, "failed cells are never journaled");
        let cell = cp.lookup("cell1").expect("completed cell restores");
        assert_eq!(cell.storage_bits, 77);
        assert_eq!(cell.result.mispredicts, 310);
        assert!(cp.lookup("cell2").is_none());
        let _ = std::fs::remove_file(&path);
    }
}
