//! The parallel experiment engine: fans a run matrix out over worker
//! threads, isolates per-cell failures, and journals completed cells to a
//! checkpoint.
//!
//! Every figure/table binary replays the paper's protocol as a *matrix*:
//! one [`MatrixRow`] per workload, one cell per predictor design on it.
//! The cells are embarrassingly parallel and deterministic by construction
//! (the workload generator is seeded, the runner is single-threaded per
//! cell), so this module provides:
//!
//! * [`run_jobs`] — a deterministic-order parallel map: jobs are claimed in
//!   index order by `LLBPX_THREADS` scoped workers and the results come
//!   back in job order, bit-identical to running them serially;
//! * [`run_matrix`] — a run matrix on top of it: every cell streams its
//!   row's workload from its own seeded generator, so the cells of a row
//!   see the same records without sharing any memory; cells keep a flat,
//!   row-major index (their claim order, their fingerprint and their
//!   `LLBPX_FAULT_CELL` number) and come back grouped by row.
//!
//! A cell is a pure function of (predictor config, workload seed,
//! protocol): a real failure fails the same way every time, so there is no
//! retrying. What the engine does instead:
//!
//! * **Cell isolation** — each matrix cell runs under `catch_unwind`, so a
//!   panicking cell becomes an `Err(`[`JobError`]`)` in the report instead
//!   of aborting the whole sweep; every other cell still completes.
//!   `LLBPX_FAULT_CELL=<index>` deliberately panics one cell, to exercise
//!   this path end-to-end.
//! * **Checkpoint/resume** — with `LLBPX_CHECKPOINT=<path>` set, every
//!   completed cell is journaled (keyed by a deterministic fingerprint of
//!   cell name, predictor, workload spec and budgets); re-running after a
//!   crash or kill restores journaled cells bit-identically and simulates
//!   only the rest. See [`crate::checkpoint`].
//! * **Deadline** — with `LLBPX_JOB_TIMEOUT=<seconds>` set, each cell gets
//!   a wall-clock deadline fixed when its worker starts it; the runner's
//!   hot loop checks it every [`crate::runner::DEADLINE_STRIDE`] records
//!   and a cell past it becomes a timeout error.
//!
//! Telemetry stays correct under concurrency because every per-run source
//! is job-local: the scope profiler is thread-local and snapshotted around
//! each run *on the worker that runs it*, the interval recorder lives
//! inside [`Simulation::run_stream`], and each job's sections travel back
//! to the coordinator inside its [`RunResult`]. `wall_seconds` is per-job
//! wall time, so summing it across overlapping runs exceeds the binary's
//! elapsed time — coordinators report elapsed time separately.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use workloads::{ServerWorkload, WorkloadSpec};

use crate::checkpoint::{self, Checkpoint};
use crate::env::Knob;
use crate::error::{panic_message, JobError, JobErrorKind, SimError};
use crate::predictor::SimPredictor;
use crate::runner::{RunResult, Simulation};

/// Environment variable selecting the worker count (default: available
/// parallelism).
pub const ENV_THREADS: &str = "LLBPX_THREADS";

/// Environment variable naming one zero-based matrix cell to deliberately
/// panic, for exercising the failure-isolation path end-to-end (tests,
/// `scripts/verify.sh`).
pub const ENV_FAULT_CELL: &str = "LLBPX_FAULT_CELL";

/// Environment variable: wall-clock deadline per cell, in seconds
/// (fractional allowed; unset or `0` means no deadline).
pub const ENV_JOB_TIMEOUT: &str = "LLBPX_JOB_TIMEOUT";

fn parse_threads(raw: &str) -> Option<usize> {
    raw.parse::<usize>().ok().filter(|&n| n >= 1)
}

fn parse_fault_cell(raw: &str) -> Option<Option<usize>> {
    raw.parse::<usize>().ok().map(Some)
}

fn parse_timeout(raw: &str) -> Option<Option<Duration>> {
    let secs: f64 = raw.parse().ok()?;
    if !secs.is_finite() || secs < 0.0 {
        return None;
    }
    Some((secs > 0.0).then(|| Duration::from_secs_f64(secs)))
}

/// [`ENV_THREADS`] knob.
pub static THREADS: Knob<usize> = Knob::new(
    ENV_THREADS,
    "a positive thread count",
    "using available parallelism",
    parse_threads,
);

/// [`ENV_FAULT_CELL`] knob.
pub static FAULT_CELL: Knob<Option<usize>> = Knob::new(
    ENV_FAULT_CELL,
    "a zero-based cell index",
    "ignoring it",
    parse_fault_cell,
);

/// [`ENV_JOB_TIMEOUT`] knob.
pub static JOB_TIMEOUT: Knob<Option<Duration>> = Knob::new(
    ENV_JOB_TIMEOUT,
    "a non-negative number of seconds (0 disables the deadline)",
    "leaving the deadline off",
    parse_timeout,
);

/// The worker count: `LLBPX_THREADS` if set to a positive integer,
/// otherwise the machine's available parallelism. An unparsable value
/// warns once on stderr and uses the default, like the `REPRO_*` budgets.
pub fn threads_from_env() -> usize {
    THREADS.get(default_threads)
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// A boxed unit of work for [`run_jobs`].
pub type BoxedJob<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// Runs `jobs` across [`threads_from_env`] workers; results return in job
/// order.
pub fn run_jobs<T: Send>(jobs: Vec<BoxedJob<'_, T>>) -> Vec<T> {
    run_jobs_with(threads_from_env(), jobs)
}

/// Runs `jobs` across at most `threads` scoped workers and returns the
/// results in job order.
///
/// Workers claim jobs in index order from a shared counter, each job runs
/// entirely on one worker thread, and its result is stored into the slot
/// of its index — so the output order (and, for deterministic jobs, every
/// output bit) is independent of the thread count. `threads <= 1` runs the
/// jobs serially on the calling thread with no spawning at all.
///
/// A panicking job propagates (aborting the scope); for isolated matrix
/// cells use [`run_matrix`], which wraps each cell in `catch_unwind`.
pub fn run_jobs_with<T: Send>(threads: usize, jobs: Vec<BoxedJob<'_, T>>) -> Vec<T> {
    let n = jobs.len();
    let threads = threads.max(1).min(n);
    if threads <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }

    let queue: Vec<Mutex<Option<BoxedJob<'_, T>>>> =
        jobs.into_iter().map(|job| Mutex::new(Some(job))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let claimed =
                    queue[i].lock().unwrap_or_else(PoisonError::into_inner).take();
                let Some(job) = claimed else {
                    unreachable!("each job is claimed exactly once");
                };
                let result = job();
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some(result) => result,
            None => unreachable!("scope joined every worker"),
        })
        .collect()
}

/// A matrix cell's predictor factory. It receives the row's workload and
/// executes once, on the worker thread that claims the cell, so predictors
/// never cross threads; it may run arbitrary setup (e.g. oracle training).
pub type Factory<'a> = Box<dyn FnOnce(&WorkloadSpec) -> Box<dyn SimPredictor> + Send + 'a>;

/// One row of a run matrix: a workload and the named cells that run on it.
pub struct MatrixRow<'a> {
    /// The workload every cell of the row runs on; each cell streams it
    /// from its own generator.
    pub spec: WorkloadSpec,
    /// The cells: a name (the design label its binary gives it) and a
    /// predictor factory. The name is part of the checkpoint fingerprint,
    /// where it tells apart configurations whose predictors share a label
    /// and storage size.
    pub cells: Vec<(String, Factory<'a>)>,
}

impl<'a> MatrixRow<'a> {
    /// An empty row on workload `spec`.
    pub fn new(spec: &WorkloadSpec) -> Self {
        MatrixRow { spec: spec.clone(), cells: Vec::new() }
    }

    /// Appends a cell named `name`.
    #[must_use]
    pub fn cell(
        mut self,
        name: impl Into<String>,
        factory: impl FnOnce(&WorkloadSpec) -> Box<dyn SimPredictor> + Send + 'a,
    ) -> Self {
        self.cells.push((name.into(), Box::new(factory)));
        self
    }
}

/// One finished matrix cell.
#[derive(Debug, Clone)]
pub struct MatrixOutput {
    /// The run itself (headline metrics plus telemetry sections).
    pub result: RunResult,
    /// Storage budget of the predictor that ran, for the telemetry record.
    pub storage_bits: u64,
}

/// A completed run matrix: per-cell outcomes row by row plus engine
/// bookkeeping for the coordinator's telemetry record.
pub struct MatrixReport {
    /// Per-cell outcomes, one vector per submitted row, cells in submitted
    /// order. A cell that panicked or timed out is an `Err` carrying the
    /// structured error; every other cell completed normally.
    pub rows: Vec<Vec<Result<MatrixOutput, JobError>>>,
    /// Worker threads actually used.
    pub threads: usize,
}

impl MatrixReport {
    /// The failed cells (any kind), in flat index order.
    pub fn failures(&self) -> impl Iterator<Item = &JobError> {
        self.rows.iter().flatten().filter_map(|o| o.as_ref().err())
    }

    /// How many cells failed (panicked or timed out).
    pub fn failed_cells(&self) -> usize {
        self.failures().count()
    }

    /// How many cells ran past their deadline.
    pub fn timed_out_cells(&self) -> usize {
        self.failures().filter(|e| e.kind == JobErrorKind::TimedOut).count()
    }

    /// How many cells were restored from the checkpoint journal instead of
    /// simulated in this invocation.
    pub fn resumed_cells(&self) -> usize {
        self.rows
            .iter()
            .flatten()
            .filter(|o| matches!(o, Ok(out) if out.result.resumed))
            .count()
    }
}

/// Everything that shapes how a matrix executes, beyond the jobs
/// themselves. [`EngineOptions::from_env`] reads the whole knob set;
/// [`EngineOptions::basic`] is the bare engine (no checkpoint, no fault,
/// no deadline) for tests and library callers.
pub struct EngineOptions {
    /// Worker threads.
    pub threads: usize,
    /// Checkpoint journal, if any.
    pub checkpoint: Option<Arc<Checkpoint>>,
    /// One cell to deliberately panic, if any ([`ENV_FAULT_CELL`]).
    pub fault_cell: Option<usize>,
    /// Wall-clock time each cell may take, if limited
    /// ([`ENV_JOB_TIMEOUT`]).
    pub job_timeout: Option<Duration>,
}

impl EngineOptions {
    /// The bare engine: explicit threads, everything else off.
    pub fn basic(threads: usize) -> Self {
        EngineOptions { threads, checkpoint: None, fault_cell: None, job_timeout: None }
    }

    /// The full environment-driven configuration: `LLBPX_THREADS`,
    /// `LLBPX_CHECKPOINT`, `LLBPX_FAULT_CELL` and `LLBPX_JOB_TIMEOUT`.
    pub fn from_env() -> Self {
        EngineOptions {
            threads: threads_from_env(),
            checkpoint: Checkpoint::from_env().map(Arc::new),
            fault_cell: FAULT_CELL.get(|| None),
            job_timeout: JOB_TIMEOUT.get(|| None),
        }
    }
}

/// Runs a matrix under the full environment-driven configuration
/// ([`EngineOptions::from_env`]). See [`run_matrix_opts`].
pub fn run_matrix(sim: &Simulation, rows: Vec<MatrixRow<'_>>) -> MatrixReport {
    run_matrix_opts(sim, rows, EngineOptions::from_env())
}

/// Runs a matrix with an explicit thread count, no checkpoint, no fault
/// injection and no deadline. See [`run_matrix_opts`].
pub fn run_matrix_with(sim: &Simulation, rows: Vec<MatrixRow<'_>>, threads: usize) -> MatrixReport {
    run_matrix_opts(sim, rows, EngineOptions::basic(threads))
}

/// One cell: fix its deadline, build the predictor, consult the journal,
/// stream the workload under `catch_unwind`, journal the completion.
fn run_cell(
    sim: &Simulation,
    opts: &EngineOptions,
    spec: &WorkloadSpec,
    index: usize,
    (cell, factory): (String, Factory<'_>),
) -> Result<MatrixOutput, JobError> {
    let deadline = opts.job_timeout.map(|timeout| Instant::now() + timeout);
    let mut predictor = std::panic::catch_unwind(AssertUnwindSafe(|| factory(spec)))
        .map_err(|payload| JobError::panic(index, &spec.name, None, panic_message(payload)))?;
    let name = predictor.name();
    let storage_bits = predictor.storage_bits();
    let fingerprint = checkpoint::job_fingerprint(index, &cell, &name, storage_bits, spec, sim);
    if let Some(restored) = opts.checkpoint.as_deref().and_then(|cp| cp.lookup(&fingerprint)) {
        return Ok(MatrixOutput { result: restored.result, storage_bits: restored.storage_bits });
    }

    let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
        if opts.fault_cell == Some(index) {
            panic!("deliberate fault injected into cell {index} (see {ENV_FAULT_CELL})");
        }
        let mut stream = ServerWorkload::try_new(spec).unwrap_or_else(|reason| {
            panic!("{}", SimError::InvalidSpec { workload: spec.name.clone(), reason })
        });
        sim.run_stream_until(predictor.as_mut(), &mut stream, &spec.name, deadline)
    }));
    match run {
        Ok(Ok(result)) => {
            if let Some(cp) = opts.checkpoint.as_deref() {
                cp.record(&fingerprint, &result, storage_bits);
            }
            Ok(MatrixOutput { result, storage_bits })
        }
        Ok(Err(exceeded)) => Err(JobError {
            index,
            workload: spec.name.clone(),
            predictor: Some(name),
            message: format!(
                "exceeded the {:.3}s wall-clock deadline ({ENV_JOB_TIMEOUT}) after {} \
                 simulated instructions",
                opts.job_timeout.unwrap_or_default().as_secs_f64(),
                exceeded.instructions,
            ),
            kind: JobErrorKind::TimedOut,
        }),
        Err(payload) => Err(JobError::panic(index, &spec.name, Some(name), panic_message(payload))),
    }
}

/// Runs every cell of `rows` under `sim`, fanning out over at most
/// `opts.threads` workers, and returns the outcomes row by row — completed
/// cells bit-identical to running the same cells serially via
/// [`Simulation::run`].
///
/// Cells are claimed in flat, row-major index order. Each cell streams its
/// row's workload from a generator of its own, exactly as the serial path
/// does: the generator is seeded, so every cell of a row sees the same
/// records, and a row holds no trace memory. A row whose spec is invalid
/// fails each of its cells with [`SimError::InvalidSpec`].
///
/// Each cell runs under `catch_unwind` and, with `opts.job_timeout`, a
/// wall-clock deadline; a failure of either kind yields `Err(JobError)`
/// for that cell and every other cell still completes. With a checkpoint,
/// completed cells are journaled under their deterministic fingerprint and
/// cells already in the journal are restored (marked `resumed`) instead of
/// simulated.
pub fn run_matrix_opts(
    sim: &Simulation,
    rows: Vec<MatrixRow<'_>>,
    opts: EngineOptions,
) -> MatrixReport {
    let widths: Vec<usize> = rows.iter().map(|row| row.cells.len()).collect();

    let opts = &opts;
    let mut jobs: Vec<BoxedJob<'_, Result<MatrixOutput, JobError>>> = Vec::new();
    for MatrixRow { spec, cells } in rows {
        for cell in cells {
            let (index, spec) = (jobs.len(), spec.clone());
            jobs.push(Box::new(move || run_cell(sim, opts, &spec, index, cell)));
        }
    }

    let used_threads = opts.threads.max(1).min(jobs.len().max(1));
    let mut outputs = run_jobs_with(opts.threads, jobs).into_iter();
    let rows = widths.into_iter().map(|width| outputs.by_ref().take(width).collect()).collect();
    MatrixReport { rows, threads: used_threads }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::compare;
    use llbpx::{Llbp, LlbpConfig};
    use std::path::PathBuf;
    use tage::{TageScl, TslConfig};

    fn tiny_spec(name: &str, seed: u64) -> WorkloadSpec {
        WorkloadSpec::new(name, seed).with_request_types(64).with_handlers(8)
    }

    fn tiny_sim() -> Simulation {
        Simulation { warmup_instructions: 60_000, measure_instructions: 150_000 }
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("llbpx-exec-{tag}-{}.jsonl", std::process::id()))
    }

    fn with_fault(
        threads: usize,
        checkpoint: Option<Arc<Checkpoint>>,
        fault_cell: Option<usize>,
    ) -> EngineOptions {
        EngineOptions { checkpoint, fault_cell, ..EngineOptions::basic(threads) }
    }

    fn tsl64(_: &WorkloadSpec) -> Box<dyn SimPredictor> {
        Box::new(TageScl::new(TslConfig::kilobytes(64)))
    }

    fn llbp(_: &WorkloadSpec) -> Box<dyn SimPredictor> {
        Box::new(Llbp::new(LlbpConfig::paper_baseline()))
    }

    #[test]
    fn run_jobs_preserves_submission_order() {
        let jobs: Vec<BoxedJob<'_, usize>> =
            (0..17usize).map(|i| Box::new(move || i * i) as BoxedJob<'_, usize>).collect();
        let results = run_jobs_with(4, jobs);
        assert_eq!(results, (0..17).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn run_jobs_borrows_from_the_caller() {
        let inputs = [1u64, 2, 3];
        let jobs: Vec<BoxedJob<'_, u64>> =
            inputs.iter().map(|v| Box::new(move || v + 10) as BoxedJob<'_, u64>).collect();
        assert_eq!(run_jobs_with(2, jobs), vec![11, 12, 13]);
    }

    #[test]
    fn fault_cells_parse_an_index_and_reject_garbage() {
        assert_eq!(parse_fault_cell("3"), Some(Some(3)));
        assert_eq!(parse_fault_cell("0"), Some(Some(0)));
        for bad in ["", "x", "-1", "1:panic", "2:stall", "0:slow", ":stall"] {
            assert_eq!(parse_fault_cell(bad), None, "{bad:?} must be rejected");
        }
    }

    fn standard_rows(specs: &[WorkloadSpec]) -> Vec<MatrixRow<'static>> {
        let row = |spec| MatrixRow::new(spec).cell("64K TSL", tsl64).cell("LLBP", llbp);
        specs.iter().map(row).collect()
    }

    /// A [`standard_rows`] row run serially through [`compare`].
    fn serial_row(sim: &Simulation, spec: &WorkloadSpec) -> Vec<RunResult> {
        let mut tsl = TageScl::new(TslConfig::kilobytes(64));
        let mut llbp = Llbp::new(LlbpConfig::paper_baseline());
        compare(sim, spec, [&mut tsl as &mut dyn SimPredictor, &mut llbp])
    }

    #[test]
    fn matrix_matches_serial_compare_at_every_thread_count() {
        let sim = tiny_sim();
        let specs = [tiny_spec("a", 3), tiny_spec("b", 4)];
        let serial: Vec<_> = specs.iter().map(|spec| serial_row(&sim, spec)).collect();

        for threads in [1usize, 4] {
            let report = run_matrix_with(&sim, standard_rows(&specs), threads);
            assert_eq!(report.rows.len(), serial.len());
            assert_eq!(report.failed_cells(), 0);
            for (row, serial_row) in report.rows.iter().zip(&serial) {
                assert_eq!(row.len(), serial_row.len());
                for (parallel, serial) in row.iter().zip(serial_row) {
                    assert_same_run(parallel.as_ref().expect("no cell fails"), serial);
                }
            }
        }
    }

    fn assert_same_run(parallel: &MatrixOutput, serial: &RunResult) {
        assert_eq!(parallel.result.name, serial.name);
        assert_eq!(parallel.result.workload, serial.workload);
        assert_eq!(parallel.result.instructions, serial.instructions);
        assert_eq!(parallel.result.mispredicts, serial.mispredicts);
        assert_eq!(parallel.result.override_candidates, serial.override_candidates);
        assert_eq!(parallel.result.intervals, serial.intervals);
        assert!(parallel.storage_bits > 0);
        assert!(!parallel.result.resumed);
    }

    #[test]
    fn an_invalid_spec_fails_each_cell_of_its_row_alone() {
        let sim = tiny_sim();
        let bad = WorkloadSpec::new("bad", 1).with_request_types(0);
        let good = tiny_spec("good", 43);
        let serial = serial_row(&sim, &good);

        let specs = [bad, good];
        for threads in [1usize, 4] {
            let report = run_matrix_with(&sim, standard_rows(&specs), threads);
            assert_eq!(report.failed_cells(), 2);
            for (index, cell) in report.rows[0].iter().enumerate() {
                let err = cell.as_ref().expect_err("an invalid spec cannot run");
                assert_eq!((err.index, err.workload.as_str()), (index, "bad"));
                assert_eq!(err.kind, JobErrorKind::Panic);
                assert!(
                    err.message.starts_with("invalid workload spec `bad`"),
                    "{}",
                    err.message
                );
            }
            for (parallel, serial) in report.rows[1].iter().zip(&serial) {
                assert_same_run(parallel.as_ref().expect("the valid row completes"), serial);
            }
        }
    }

    #[test]
    fn an_invalid_spec_is_rejected_structurally() {
        let bad = WorkloadSpec::new("bad", 1).with_request_types(0);
        let reason = bad.validate().expect_err("zero request types is invalid");
        let expected = SimError::InvalidSpec { workload: "bad".into(), reason }.to_string();
        let row = MatrixRow::new(&bad).cell("64K TSL", tsl64);
        let report = run_matrix_with(&tiny_sim(), vec![row], 1);
        let err = report.rows[0][0].as_ref().expect_err("an invalid spec cannot run");
        assert_eq!(err.message, expected);
        assert!(err.predictor.is_some(), "the factory ran before the spec was rejected");
    }

    #[test]
    fn fault_cells_keep_their_flat_index_across_rows() {
        let specs = [tiny_spec("flat-a", 37), tiny_spec("flat-b", 41)];
        let rows: Vec<MatrixRow<'_>> = specs
            .iter()
            .map(|spec| {
                (0..5).fold(MatrixRow::new(spec), |row, i| row.cell(format!("TSL {i}"), tsl64))
            })
            .collect();
        let sim = Simulation { warmup_instructions: 10_000, measure_instructions: 20_000 };
        let report = run_matrix_opts(&sim, rows, with_fault(2, None, Some(5)));
        assert_eq!(report.failed_cells(), 1);
        let err = report.rows[1][0].as_ref().expect_err("cell 5 opens row 1");
        assert_eq!((err.index, err.workload.as_str()), (5, "flat-b"));
        assert!(err.message.contains(ENV_FAULT_CELL), "{}", err.message);
        assert!(report.rows.iter().flatten().filter(|o| o.is_ok()).count() == 9);
    }

    #[test]
    fn worker_profiles_travel_with_their_runs() {
        let sim = tiny_sim();
        let row = MatrixRow::new(&tiny_spec("prof", 5)).cell("LLBP a", llbp).cell("LLBP b", llbp);
        let report = run_matrix_with(&sim, vec![row], 4);
        for output in report.rows.iter().flatten() {
            let output = output.as_ref().expect("no cell fails");
            let named: Vec<&str> = output.result.profile.iter().map(|s| s.name).collect();
            for scope in ["tage::predict", "tage::update", "llbp::pattern_lookup"] {
                assert!(named.contains(&scope), "{scope} missing from {named:?}");
            }
            assert!(output.result.wall_seconds > 0.0);
        }
    }

    #[test]
    fn a_panicking_cell_is_isolated_from_the_rest_of_the_matrix() {
        let sim = tiny_sim();
        let spec = tiny_spec("iso", 11);
        let clean = sim.run(&mut TageScl::new(TslConfig::kilobytes(64)), &spec);

        for threads in [1usize, 4] {
            let row = MatrixRow::new(&spec)
                .cell("ok a", tsl64)
                .cell("boom", |_| panic!("factory exploded on purpose"))
                .cell("ok b", tsl64);
            let report = run_matrix_with(&sim, vec![row], threads);
            assert_eq!(report.failed_cells(), 1);
            let row = &report.rows[0];
            let err = row[1].as_ref().expect_err("cell 1 fails");
            assert_eq!(err.index, 1);
            assert_eq!(err.workload, spec.name);
            assert_eq!(err.predictor, None, "the factory never produced one");
            assert_eq!(err.kind, JobErrorKind::Panic);
            assert!(err.message.contains("factory exploded"), "{}", err.message);
            for i in [0usize, 2] {
                let ok = row[i].as_ref().expect("survivors complete");
                assert_eq!(ok.result.mispredicts, clean.mispredicts);
                assert!(!ok.result.is_failed());
            }
        }
    }

    #[test]
    fn fault_injection_fails_exactly_the_chosen_cell() {
        let sim = tiny_sim();
        let specs = [tiny_spec("fault", 13)];
        let report = run_matrix_opts(&sim, standard_rows(&specs), with_fault(2, None, Some(1)));
        assert_eq!(report.failed_cells(), 1);
        let err = report.rows[0][1].as_ref().expect_err("cell 1 is the fault cell");
        assert!(err.message.contains(ENV_FAULT_CELL), "{}", err.message);
        assert_eq!(err.predictor.as_deref(), Some("LLBP"), "run-stage failures carry the label");
        assert!(report.rows[0][0].is_ok());
    }

    #[test]
    fn checkpointed_matrix_resumes_bit_identically() {
        let sim = tiny_sim();
        let specs = [tiny_spec("ckpt", 17)];
        let path = tmp("resume");
        let _ = std::fs::remove_file(&path);

        let clean = run_matrix_with(&sim, standard_rows(&specs), 2);

        // First pass: cell 1 faults, so only cell 0 lands in the journal.
        let cp = Arc::new(Checkpoint::open(&path).expect("journal opens"));
        let first = run_matrix_opts(&sim, standard_rows(&specs), with_fault(2, Some(cp), Some(1)));
        assert_eq!(first.failed_cells(), 1);
        assert_eq!(first.resumed_cells(), 0);

        // Second pass with the same journal and no fault: cell 0 restores,
        // cell 1 simulates, and every metric matches the clean run.
        let cp = Arc::new(Checkpoint::open(&path).expect("journal reopens"));
        assert_eq!(cp.len(), 1, "only the completed cell was journaled");
        let second = run_matrix_opts(&sim, standard_rows(&specs), with_fault(2, Some(cp), None));
        assert_eq!(second.failed_cells(), 0);
        assert_eq!(second.resumed_cells(), 1);
        for (resumed, clean) in second.rows[0].iter().zip(&clean.rows[0]) {
            let resumed = resumed.as_ref().expect("no cell fails");
            let clean = clean.as_ref().expect("no cell fails");
            assert_eq!(resumed.result.name, clean.result.name);
            assert_eq!(resumed.result.instructions, clean.result.instructions);
            assert_eq!(resumed.result.mispredicts, clean.result.mispredicts);
            assert_eq!(
                resumed.result.override_candidates,
                clean.result.override_candidates
            );
            assert_eq!(resumed.result.intervals, clean.result.intervals);
            assert_eq!(resumed.storage_bits, clean.storage_bits);
        }
        assert!(second.rows[0][0].as_ref().is_ok_and(|o| o.result.resumed));
        assert!(second.rows[0][1].as_ref().is_ok_and(|o| !o.result.resumed));

        // Third pass: everything restores; nothing is simulated.
        let cp = Arc::new(Checkpoint::open(&path).expect("journal reopens again"));
        assert_eq!(cp.len(), 2);
        let third = run_matrix_opts(&sim, standard_rows(&specs), with_fault(2, Some(cp), None));
        assert_eq!(third.resumed_cells(), 2);

        // A different budget changes every fingerprint: nothing restores.
        let other = Simulation { warmup_instructions: 50_000, ..sim };
        let cp = Arc::new(Checkpoint::open(&path).expect("journal reopens once more"));
        let fourth =
            run_matrix_opts(&other, standard_rows(&specs), with_fault(2, Some(cp), None));
        assert_eq!(fourth.resumed_cells(), 0, "stale fingerprints never match");

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cells_with_equal_labels_and_storage_never_restore_each_other() {
        use llbpx::LlbpxConfig;
        let sim = tiny_sim();
        let spec = tiny_spec("sweep", 47);
        let path = tmp("sweeps");
        let _ = std::fs::remove_file(&path);
        // Two sweeps sharing one journal, like sensitivity's H_th and CTT
        // matrices: each cell 0 is an "LLBP-X" of equal storage, but a
        // different configuration.
        let sweep = |h_th: usize| {
            let cfg = LlbpxConfig::paper_baseline().with_h_th(h_th);
            let cp = Arc::new(Checkpoint::open(&path).expect("journal opens"));
            let row = MatrixRow::new(&spec).cell(format!("LLBP-X H_th={h_th}"), move |_| {
                Box::new(Llbp::new_x(cfg)) as Box<dyn SimPredictor>
            });
            run_matrix_opts(&sim, vec![row], with_fault(1, Some(cp), None))
        };
        let first = sweep(112);
        let second = sweep(522);
        let _ = std::fs::remove_file(&path);
        let (a, b) = (first.rows[0][0].as_ref(), second.rows[0][0].as_ref());
        let (a, b) = (a.expect("completes"), b.expect("completes"));
        assert_eq!((a.result.name.as_str(), b.result.name.as_str()), ("LLBP-X", "LLBP-X"));
        assert_eq!(a.storage_bits, b.storage_bits, "the collision needs equal storage");
        assert_eq!(second.resumed_cells(), 0, "a different H_th must not restore");
    }

    #[test]
    fn stalled_cell_is_cancelled_and_reported_as_a_timeout() {
        let sim = tiny_sim();
        let spec = tiny_spec("stall", 19);
        let path = tmp("deadline");
        let _ = std::fs::remove_file(&path);
        // The factory stalls past the deadline, so the run stops at its
        // first check.
        let stalled = MatrixRow::new(&spec).cell("stalled TSL", |spec| {
            std::thread::sleep(Duration::from_millis(50));
            tsl64(spec)
        });
        let opts = EngineOptions {
            job_timeout: Some(Duration::from_millis(10)),
            ..with_fault(1, Some(Arc::new(Checkpoint::open(&path).expect("opens"))), None)
        };
        let report = run_matrix_opts(&sim, vec![stalled], opts);
        let err = report.rows[0][0].as_ref().expect_err("the stalled cell");
        assert_eq!(err.kind, JobErrorKind::TimedOut);
        assert_eq!(err.kind.status(), "timeout");
        assert!(err.message.contains(ENV_JOB_TIMEOUT), "{}", err.message);
        assert_eq!(report.timed_out_cells(), 1);
        let journal = Checkpoint::open(&path).expect("reopens");
        let _ = std::fs::remove_file(&path);
        assert!(journal.is_empty(), "a timed-out cell is not journaled");
    }

    #[test]
    fn slow_cell_hits_the_wall_clock_deadline() {
        // An unbounded measurement phase on a healthy cell: only the
        // deadline can end it, mid-run.
        let sim = Simulation { warmup_instructions: 0, measure_instructions: u64::MAX };
        let specs = [tiny_spec("slow", 23)];
        let opts = EngineOptions {
            job_timeout: Some(Duration::from_millis(200)),
            ..EngineOptions::basic(2)
        };
        let started = Instant::now();
        let report = run_matrix_opts(&sim, standard_rows(&specs), opts);
        assert!(started.elapsed() < Duration::from_secs(20), "the deadline ends the sweep");
        assert_eq!(report.timed_out_cells(), 2);
        for output in report.rows.iter().flatten() {
            let err = output.as_ref().expect_err("no cell can finish");
            assert_eq!(err.kind, JobErrorKind::TimedOut);
            assert!(err.message.contains("0.200s"), "{}", err.message);
        }
    }
}
