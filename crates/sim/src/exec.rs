//! The parallel experiment engine: runs a grid of workloads × designs
//! over worker threads, isolates per-cell failures, and journals completed
//! cells to a checkpoint.
//!
//! Every figure/table binary replays the paper's protocol as a grid: the
//! same [`Design`]s on every workload, one cell per (workload, design).
//! The cells are embarrassingly parallel and deterministic by construction
//! (the workload generator is seeded, the runner is single-threaded per
//! cell), so this module provides:
//!
//! * [`run_jobs_with`] — a deterministic-order parallel map: jobs are
//!   claimed in index order by scoped workers and the results come back in
//!   job order, bit-identical to running them serially;
//! * [`run_matrix`] — a grid on top of it: every cell streams its
//!   workload from its own seeded generator, so the cells of a row see the
//!   same records without sharing any memory; cells keep a flat, row-major
//!   index (their fingerprint and their `LLBPX_FAULT_CELL` number) and come
//!   back as one [`RunResult`] per cell, grouped by workload. A *dependent*
//!   design ([`design_after`]) builds its predictor from the finished run
//!   of another design on the same workload, as fig12's Opt-W takes its
//!   depth oracle from the row's LLBP-X run.
//!
//! A cell is a pure function of (predictor config, workload seed,
//! protocol): a real failure fails the same way every time, so there is no
//! retrying. What the engine does instead:
//!
//! * **Cell isolation** — each cell runs under `catch_unwind`, so a
//!   panicking cell comes back as a failed [`RunResult`] (its `error`
//!   names the cell index, design and workload) instead of aborting the
//!   whole sweep; every other cell still completes.
//!   `LLBPX_FAULT_CELL=<index>` deliberately panics one cell, to exercise
//!   this path end-to-end.
//! * **Checkpoint/resume** — with `LLBPX_CHECKPOINT=<path>` set, every
//!   completed cell is journaled (keyed by a deterministic fingerprint of
//!   cell name, predictor, frontend observer, workload spec and budgets);
//!   re-running after a crash or kill restores journaled cells bit-identically and simulates
//!   only the rest. See [`crate::checkpoint`].
//!
//! There is no per-cell deadline either: a cell that runs too long does so
//! on every attempt. Bound a whole sweep with a process-level `timeout`
//! instead; the journal keeps every cell finished before it fired.
//!
//! Telemetry stays correct under concurrency because every per-run source
//! is job-local: the scope profiler is thread-local and snapshotted around
//! each run *on the worker that runs it*, and each job's counters and
//! profile travel back to the coordinator inside its [`RunResult`].
//! `wall_seconds` is per-job wall time, so summing it across overlapping
//! runs exceeds the binary's elapsed time — coordinators report elapsed
//! time separately.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use workloads::WorkloadSpec;

use crate::checkpoint::{self, Checkpoint};
use crate::env::Knob;
use crate::error::{cell_failure, panic_message};
use crate::predictor::SimPredictor;
use crate::runner::{RunResult, Simulation};

/// Environment variable selecting the worker count (default: available
/// parallelism).
pub const ENV_THREADS: &str = "LLBPX_THREADS";

/// Environment variable naming one zero-based matrix cell to deliberately
/// panic, for exercising the failure-isolation path end-to-end (tests,
/// `scripts/verify.sh`).
pub const ENV_FAULT_CELL: &str = "LLBPX_FAULT_CELL";

fn parse_threads(raw: &str) -> Option<usize> {
    raw.parse::<usize>().ok().filter(|&n| n >= 1)
}

fn parse_fault_cell(raw: &str) -> Option<Option<usize>> {
    raw.parse::<usize>().ok().map(Some)
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

/// The worker count: `LLBPX_THREADS` if set to a positive integer,
/// otherwise the machine's available parallelism. An unparsable value
/// warns once on stderr and uses the default, like the `REPRO_*` budgets.
pub fn threads_from_env() -> usize {
    THREADS.get(default_threads)
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A boxed unit of work for [`run_jobs_with`].
pub type BoxedJob<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

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
                let claimed = queue[i]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take();
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
        .map(
            |slot| match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
                Some(result) => result,
                None => unreachable!("scope joined every worker"),
            },
        )
        .collect()
}

/// Builds an independent design's predictor.
type Fresh = Box<dyn Fn() -> Box<dyn SimPredictor> + Sync>;

/// Builds a dependent design's predictor from its source's run.
type FromSource = Box<dyn Fn(&RunResult) -> Box<dyn SimPredictor> + Sync>;

/// How a design builds a cell's predictor, on the worker that claims the
/// cell, so predictors never cross threads.
enum Build {
    Plain(Fresh),
    /// From the same workload's run of the design named `source`.
    After {
        source: String,
        factory: FromSource,
    },
}

/// One design of a grid: the name every cell of the design carries and
/// how each cell builds its predictor.
///
/// The name labels the cell in a failed run, so failures name the design,
/// not just the workload, and it is part of the cell's checkpoint
/// fingerprint, where it tells apart configurations whose predictors share
/// a label and storage size: give every design of a grid a distinct name.
pub struct Design {
    name: String,
    build: Build,
}

/// A [`Design`] named `name` whose cells build their predictor with
/// `factory` (`design("LLBP", bench::llbp)`).
pub fn design(
    name: impl Into<String>,
    factory: impl Fn() -> Box<dyn SimPredictor> + Sync + 'static,
) -> Design {
    Design {
        name: name.into(),
        build: Build::Plain(Box::new(factory)),
    }
}

/// A [`Design`] named `name` whose predictor is built from the same
/// workload's run of the design named `source`, which must be a design of
/// the grid without a source of its own: Opt-W takes its depth oracle from
/// the row's LLBP-X run (`design_after("LLBP-X Opt-W", "LLBP-X",
/// bench::llbpx_opt_w_after)`). If the source cell fails, this one fails
/// too, with an error that names it.
pub fn design_after(
    name: impl Into<String>,
    source: impl Into<String>,
    factory: impl Fn(&RunResult) -> Box<dyn SimPredictor> + Sync + 'static,
) -> Design {
    let (source, factory) = (source.into(), Box::new(factory));
    Design {
        name: name.into(),
        build: Build::After { source, factory },
    }
}

/// A completed grid: one run per cell, grouped by workload, plus engine
/// bookkeeping for the coordinator's telemetry record.
pub struct MatrixReport {
    /// One vector per workload, its runs in design order. A cell that
    /// failed is a run with `error` set.
    pub rows: Vec<Vec<RunResult>>,
    /// Worker threads actually used.
    pub threads: usize,
}

impl MatrixReport {
    /// How many cells failed.
    pub fn failed_cells(&self) -> usize {
        self.rows
            .iter()
            .flatten()
            .filter(|run| run.is_failed())
            .count()
    }

    /// How many cells were restored from the checkpoint journal instead of
    /// simulated in this invocation.
    pub fn resumed_cells(&self) -> usize {
        self.rows.iter().flatten().filter(|run| run.resumed).count()
    }
}

/// Everything that shapes how a grid executes, beyond its cells.
/// [`EngineOptions::from_env`] reads the whole knob set;
/// [`EngineOptions::basic`] is the bare engine (no checkpoint, no fault)
/// for tests and library callers.
pub struct EngineOptions {
    /// Worker threads.
    pub threads: usize,
    /// Checkpoint journal, if any.
    pub checkpoint: Option<Arc<Checkpoint>>,
    /// One cell to deliberately panic, if any ([`ENV_FAULT_CELL`]).
    pub fault_cell: Option<usize>,
}

impl EngineOptions {
    /// The bare engine: explicit threads, everything else off.
    pub fn basic(threads: usize) -> Self {
        EngineOptions {
            threads,
            checkpoint: None,
            fault_cell: None,
        }
    }

    /// The full environment-driven configuration: `LLBPX_THREADS`,
    /// `LLBPX_CHECKPOINT` and `LLBPX_FAULT_CELL`.
    pub fn from_env() -> Self {
        EngineOptions {
            threads: threads_from_env(),
            checkpoint: Checkpoint::from_env().map(Arc::new),
            fault_cell: FAULT_CELL.get(|| None),
        }
    }
}

/// A failed run of cell `index`: the design's name, the workload and an
/// error that names all three.
fn failed(index: usize, design: &str, spec: &WorkloadSpec, reason: &str) -> RunResult {
    let workload = spec.name.clone();
    let error = cell_failure(index, design, &workload, reason);
    RunResult {
        name: design.to_owned(),
        workload,
        error: Some(error),
        ..RunResult::default()
    }
}

/// One cell: build the predictor, consult the journal, run it, journal the
/// completion — all under `catch_unwind`.
fn run_cell(
    sim: &Simulation,
    opts: &EngineOptions,
    spec: &WorkloadSpec,
    index: usize,
    design: &str,
    factory: impl FnOnce() -> Box<dyn SimPredictor>,
) -> RunResult {
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let mut predictor = factory();
        let (name, bits) = (predictor.name(), predictor.storage_bits());
        let observed = predictor.observe().frontend.is_some();
        let fingerprint =
            checkpoint::job_fingerprint(index, design, &name, bits, observed, spec, sim);
        if let Some(restored) = opts
            .checkpoint
            .as_deref()
            .and_then(|cp| cp.lookup(&fingerprint))
        {
            return restored;
        }
        if opts.fault_cell == Some(index) {
            panic!("deliberate fault injected into cell {index} (see {ENV_FAULT_CELL})");
        }
        let result = sim.run(predictor.as_mut(), spec);
        if let Some(cp) = opts.checkpoint.as_deref() {
            cp.record(&fingerprint, &result, sim);
        }
        result
    }));
    outcome.unwrap_or_else(|payload| failed(index, design, spec, &panic_message(payload)))
}

/// Finished runs of the cells that others depend on, published by the
/// worker that ran each one to the workers waiting for it.
struct Sources {
    done: Mutex<Vec<Option<RunResult>>>,
    ready: Condvar,
}

impl Sources {
    fn publish(&self, index: usize, run: &RunResult) {
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        done[index] = Some(run.clone());
        self.ready.notify_all();
    }

    /// Blocks until cell `index` has been published, then returns it.
    fn wait(&self, index: usize) -> RunResult {
        let done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        let done = self
            .ready
            .wait_while(done, |done| done[index].is_none())
            .unwrap_or_else(PoisonError::into_inner);
        match &done[index] {
            Some(run) => run.clone(),
            None => unreachable!("wait_while returns once the cell is published"),
        }
    }
}

/// Runs every design on every workload of the grid `specs` × `designs`
/// under `sim`, fanning out over at most `opts.threads` workers, and
/// returns one run per cell, grouped by workload — completed cells
/// bit-identical to running the same cells serially via
/// [`Simulation::run`].
///
/// Cell `w * designs.len() + d` is design `d` on workload `w`: that flat,
/// row-major index is its checkpoint fingerprint and its `LLBPX_FAULT_CELL`
/// number. Workers claim every independent cell in index order before any
/// dependent cell, so a dependent cell's source is finished or running
/// when it is claimed, and it waits for a running one; a single worker
/// never waits. Each cell streams its workload from a generator of its
/// own, exactly as the serial path does: the generator is seeded, so every
/// cell of a row sees the same records, and a row holds no trace memory.
/// A row whose spec is invalid fails each of its cells with
/// [`crate::SimError::InvalidSpec`]'s message.
///
/// Each cell runs under `catch_unwind`; a panic fails that cell and the
/// cells that depend on it, and every other cell still completes. With a
/// checkpoint, completed cells are journaled under their deterministic
/// fingerprint and cells already in the journal are restored (marked
/// `resumed`) instead of simulated; a dependent cell is built from its
/// source's restored run then.
///
/// # Panics
///
/// Panics if a dependent design's source is not an independent design of
/// the grid.
pub fn run_matrix(
    sim: &Simulation,
    specs: &[WorkloadSpec],
    designs: &[Design],
    opts: EngineOptions,
) -> MatrixReport {
    // Each dependent design's source, as a position in `designs`.
    let source_of: Vec<Option<usize>> = designs
        .iter()
        .map(|design| {
            let Build::After { source, .. } = &design.build else {
                return None;
            };
            let independent = |d: &Design| d.name == *source && matches!(d.build, Build::Plain(_));
            match designs.iter().position(independent) {
                Some(position) => Some(position),
                None => panic!(
                    "`{}` depends on `{source}`, which is no independent cell of its row",
                    design.name
                ),
            }
        })
        .collect();
    let width = designs.len();
    let cells = specs.len() * width;
    let sources = Sources {
        done: Mutex::new(vec![None; cells]),
        ready: Condvar::new(),
    };

    let cell = |index: usize| {
        let (spec, d) = (&specs[index / width], index % width);
        let name = designs[d].name.as_str();
        let run = match (&designs[d].build, source_of[d]) {
            (Build::Plain(factory), _) => run_cell(sim, &opts, spec, index, name, factory),
            (Build::After { source, factory }, Some(position)) => {
                let source_index = index - d + position;
                let source_run = sources.wait(source_index);
                match &source_run.error {
                    Some(error) => {
                        let reason =
                            format!("its source cell {source_index} (`{source}`) failed: {error}");
                        failed(index, name, spec, &reason)
                    }
                    None => run_cell(sim, &opts, spec, index, name, || factory(&source_run)),
                }
            }
            (Build::After { .. }, None) => unreachable!("every source was resolved above"),
        };
        if source_of.contains(&Some(d)) {
            sources.publish(index, &run);
        }
        run
    };

    let cell = &cell;
    let (independent, dependent): (Vec<usize>, Vec<usize>) =
        (0..cells).partition(|&index| source_of[index % width].is_none());
    let order: Vec<usize> = independent.into_iter().chain(dependent).collect();
    let job = |index: usize| Box::new(move || cell(index)) as BoxedJob<'_, RunResult>;
    let jobs = order.iter().map(|&index| job(index)).collect();
    let mut runs: Vec<(usize, RunResult)> = order
        .into_iter()
        .zip(run_jobs_with(opts.threads, jobs))
        .collect();
    runs.sort_unstable_by_key(|(index, _)| *index);
    let mut runs = runs.into_iter().map(|(_, run)| run);
    let rows = specs
        .iter()
        .map(|_| runs.by_ref().take(width).collect())
        .collect();
    MatrixReport {
        rows,
        threads: opts.threads.max(1).min(cells.max(1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SimError;
    use crate::runner::compare;
    use llbpx::{Llbp, LlbpConfig};
    use std::path::PathBuf;
    use tage::{TageScl, TslConfig};

    fn tiny_spec(name: &str, seed: u64) -> WorkloadSpec {
        WorkloadSpec::new(name, seed)
            .with_request_types(64)
            .with_handlers(8)
    }

    fn tiny_sim() -> Simulation {
        Simulation {
            warmup_instructions: 60_000,
            measure_instructions: 150_000,
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("llbpx-exec-{tag}-{}.jsonl", std::process::id()))
    }

    fn with_fault(
        threads: usize,
        checkpoint: Option<Arc<Checkpoint>>,
        fault_cell: Option<usize>,
    ) -> EngineOptions {
        EngineOptions {
            checkpoint,
            fault_cell,
            ..EngineOptions::basic(threads)
        }
    }

    fn tsl64() -> Box<dyn SimPredictor> {
        Box::new(TageScl::new(TslConfig::kilobytes(64)))
    }

    fn llbp() -> Box<dyn SimPredictor> {
        Box::new(Llbp::new(LlbpConfig::paper_baseline()))
    }

    /// The error of a cell that must have failed.
    fn error_of(run: &RunResult) -> &str {
        run.error.as_deref().expect("the cell failed")
    }

    /// A run that must have completed.
    fn completed(run: &RunResult) -> &RunResult {
        assert!(
            !run.is_failed(),
            "cell {} × {} failed: {:?}",
            run.name,
            run.workload,
            run.error
        );
        run
    }

    #[test]
    fn run_jobs_preserves_submission_order() {
        let jobs: Vec<BoxedJob<'_, usize>> = (0..17usize)
            .map(|i| Box::new(move || i * i) as BoxedJob<'_, usize>)
            .collect();
        let results = run_jobs_with(4, jobs);
        assert_eq!(results, (0..17).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn run_jobs_borrows_from_the_caller() {
        let inputs = [1u64, 2, 3];
        let jobs: Vec<BoxedJob<'_, u64>> = inputs
            .iter()
            .map(|v| Box::new(move || v + 10) as BoxedJob<'_, u64>)
            .collect();
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

    fn standard_designs() -> [Design; 2] {
        [design("64K TSL", tsl64), design("LLBP", llbp)]
    }

    /// A [`standard_designs`] row run serially through [`compare`].
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
            let opts = EngineOptions::basic(threads);
            let report = run_matrix(&sim, &specs, &standard_designs(), opts);
            assert_eq!(report.rows.len(), serial.len());
            assert_eq!(report.failed_cells(), 0);
            for (row, serial_row) in report.rows.iter().zip(&serial) {
                assert_eq!(row.len(), serial_row.len());
                for (parallel, serial) in row.iter().zip(serial_row) {
                    assert_same_run(completed(parallel), serial);
                }
            }
        }
    }

    /// Every second-level counter and allocation-length bucket of a run.
    fn second_level(r: &RunResult) -> Option<Vec<u64>> {
        let stats = r.llbp.as_ref()?;
        let counters = stats.counters().into_iter().map(|(_, value)| value);
        Some(counters.chain(stats.alloc_len_histogram).collect())
    }

    fn assert_same_run(parallel: &RunResult, serial: &RunResult) {
        assert_eq!(parallel.name, serial.name);
        assert_eq!(parallel.workload, serial.workload);
        assert_eq!(parallel.instructions, serial.instructions);
        assert_eq!(parallel.mispredicts, serial.mispredicts);
        assert_eq!(parallel.override_candidates, serial.override_candidates);
        assert_eq!(second_level(parallel), second_level(serial));
        assert!(parallel.storage_bits > 0);
        assert!(!parallel.resumed);
    }

    #[test]
    fn an_invalid_spec_fails_each_cell_of_its_row_alone() {
        let sim = tiny_sim();
        let bad = WorkloadSpec::new("bad", 1).with_request_types(0);
        let good = tiny_spec("good", 43);
        let serial = serial_row(&sim, &good);

        let specs = [bad, good];
        for threads in [1usize, 4] {
            let opts = EngineOptions::basic(threads);
            let report = run_matrix(&sim, &specs, &standard_designs(), opts);
            assert_eq!(report.failed_cells(), 2);
            for (index, cell) in report.rows[0].iter().enumerate() {
                let error = error_of(cell);
                assert_eq!(cell.workload, "bad");
                assert!(
                    error.starts_with(&format!("matrix cell {index} (")),
                    "{error}"
                );
                assert!(
                    error.contains("failed: invalid workload spec `bad`"),
                    "{error}"
                );
            }
            for (parallel, serial) in report.rows[1].iter().zip(&serial) {
                assert_same_run(completed(parallel), serial);
            }
        }
    }

    #[test]
    fn an_invalid_spec_is_rejected_structurally() {
        let bad = WorkloadSpec::new("bad", 1).with_request_types(0);
        let reason = bad.validate().expect_err("zero request types is invalid");
        let expected = SimError::InvalidSpec {
            workload: "bad".into(),
            reason,
        }
        .to_string();
        let designs = [design("64K TSL", tsl64)];
        let report = run_matrix(&tiny_sim(), &[bad], &designs, EngineOptions::basic(1));
        let run = &report.rows[0][0];
        assert_eq!(
            error_of(run),
            format!("matrix cell 0 (64K TSL × bad) failed: {expected}")
        );
        assert_eq!(
            run.name, "64K TSL",
            "a failed run carries its design's name"
        );
    }

    #[test]
    fn fault_cells_keep_their_flat_index_across_rows() {
        let specs = [tiny_spec("flat-a", 37), tiny_spec("flat-b", 41)];
        let designs: Vec<Design> = (0..5).map(|i| design(format!("TSL {i}"), tsl64)).collect();
        let sim = Simulation {
            warmup_instructions: 10_000,
            measure_instructions: 20_000,
        };
        let report = run_matrix(&sim, &specs, &designs, with_fault(2, None, Some(5)));
        assert_eq!(report.failed_cells(), 1);
        let run = &report.rows[1][0];
        let error = error_of(run);
        assert_eq!(run.workload, "flat-b", "cell 5 opens row 1");
        assert!(
            error.starts_with("matrix cell 5 (TSL 0 × flat-b)"),
            "{error}"
        );
        assert!(error.contains(ENV_FAULT_CELL), "{error}");
        assert!(
            report
                .rows
                .iter()
                .flatten()
                .filter(|run| !run.is_failed())
                .count()
                == 9
        );
    }

    #[test]
    fn worker_profiles_travel_with_their_runs() {
        let sim = tiny_sim();
        let designs = [design("LLBP a", llbp), design("LLBP b", llbp)];
        let report = run_matrix(
            &sim,
            &[tiny_spec("prof", 5)],
            &designs,
            EngineOptions::basic(4),
        );
        for output in report.rows.iter().flatten() {
            let output = completed(output);
            let named: Vec<&str> = output.profile.iter().map(|s| s.name).collect();
            for scope in ["tage::predict", "tage::update", "llbp::pattern_lookup"] {
                assert!(named.contains(&scope), "{scope} missing from {named:?}");
            }
            assert!(output.wall_seconds > 0.0);
        }
    }

    #[test]
    fn a_panicking_cell_is_isolated_from_the_rest_of_the_matrix() {
        let sim = tiny_sim();
        let spec = tiny_spec("iso", 11);
        let clean = sim.run(&mut TageScl::new(TslConfig::kilobytes(64)), &spec);

        for threads in [1usize, 4] {
            let designs = [
                design("ok a", tsl64),
                design("boom", || panic!("factory exploded on purpose")),
                design("ok b", tsl64),
            ];
            let report = run_matrix(
                &sim,
                std::slice::from_ref(&spec),
                &designs,
                EngineOptions::basic(threads),
            );
            assert_eq!(report.failed_cells(), 1);
            let row = &report.rows[0];
            let error = error_of(&row[1]);
            assert!(
                error.starts_with("matrix cell 1 (boom × iso) failed:"),
                "{error}"
            );
            assert_eq!(row[1].workload, spec.name);
            assert_eq!(
                row[1].name, "boom",
                "the factory never produced a predictor label"
            );
            assert!(error.contains("factory exploded"), "{error}");
            for i in [0usize, 2] {
                let ok = completed(&row[i]);
                assert_eq!(ok.mispredicts, clean.mispredicts);
            }
        }
    }

    #[test]
    fn fault_injection_fails_exactly_the_chosen_cell() {
        let sim = tiny_sim();
        let specs = [tiny_spec("fault", 13)];
        let report = run_matrix(
            &sim,
            &specs,
            &standard_designs(),
            with_fault(2, None, Some(1)),
        );
        assert_eq!(report.failed_cells(), 1);
        let run = &report.rows[0][1];
        assert!(error_of(run).contains(ENV_FAULT_CELL), "{}", error_of(run));
        assert_eq!(
            run.name, "LLBP",
            "run-stage failures carry the design's name"
        );
        assert!(!report.rows[0][0].is_failed());
    }

    #[test]
    fn checkpointed_matrix_resumes_bit_identically() {
        let sim = tiny_sim();
        let specs = [tiny_spec("ckpt", 17)];
        let path = tmp("resume");
        let _ = std::fs::remove_file(&path);
        let designs = standard_designs();

        let clean = run_matrix(&sim, &specs, &designs, EngineOptions::basic(2));

        // First pass: cell 1 faults, so only cell 0 lands in the journal.
        let cp = Arc::new(Checkpoint::open(&path).expect("journal opens"));
        let first = run_matrix(&sim, &specs, &designs, with_fault(2, Some(cp), Some(1)));
        assert_eq!(first.failed_cells(), 1);
        assert_eq!(first.resumed_cells(), 0);

        // Second pass with the same journal and no fault: cell 0 restores,
        // cell 1 simulates, and every metric matches the clean run.
        let cp = Arc::new(Checkpoint::open(&path).expect("journal reopens"));
        assert_eq!(cp.len(), 1, "only the completed cell was journaled");
        let second = run_matrix(&sim, &specs, &designs, with_fault(2, Some(cp), None));
        assert_eq!(second.failed_cells(), 0);
        assert_eq!(second.resumed_cells(), 1);
        for (resumed, clean) in second.rows[0].iter().zip(&clean.rows[0]) {
            let (resumed, clean) = (completed(resumed), completed(clean));
            assert_eq!(resumed.name, clean.name);
            assert_eq!(resumed.instructions, clean.instructions);
            assert_eq!(resumed.mispredicts, clean.mispredicts);
            assert_eq!(resumed.override_candidates, clean.override_candidates);
            assert_eq!(second_level(resumed), second_level(clean));
            assert_eq!(resumed.storage_bits, clean.storage_bits);
        }
        assert!(second.rows[0][0].resumed);
        assert!(!second.rows[0][1].resumed);

        // Third pass: everything restores; nothing is simulated.
        let cp = Arc::new(Checkpoint::open(&path).expect("journal reopens again"));
        assert_eq!(cp.len(), 2);
        let third = run_matrix(&sim, &specs, &designs, with_fault(2, Some(cp), None));
        assert_eq!(third.resumed_cells(), 2);

        // A different budget changes every fingerprint: nothing restores.
        let other = Simulation {
            warmup_instructions: 50_000,
            ..sim
        };
        let cp = Arc::new(Checkpoint::open(&path).expect("journal reopens once more"));
        let fourth = run_matrix(&other, &specs, &designs, with_fault(2, Some(cp), None));
        assert_eq!(fourth.resumed_cells(), 0, "stale fingerprints never match");

        let _ = std::fs::remove_file(&path);
    }

    fn llbpx() -> Box<dyn SimPredictor> {
        Box::new(Llbp::new(LlbpConfig::llbpx()))
    }

    /// LLBP-X Opt-W built from its source's depth decisions.
    fn opt_w(source: &RunResult) -> Box<dyn SimPredictor> {
        let Some(deep) = source.deep_contexts.clone() else {
            panic!("`{}` decides no depths", source.name);
        };
        let cfg = LlbpConfig {
            label: "LLBP-X Opt-W".to_owned(),
            ..LlbpConfig::llbpx()
        };
        Box::new(Llbp::with_oracle(cfg, deep))
    }

    /// A dependent design between two independent ones, so its cells'
    /// claim order differs from their index.
    fn dependent_designs() -> [Design; 3] {
        [
            design("LLBP-X", llbpx),
            design_after("Opt-W", "LLBP-X", opt_w),
            design("64K TSL", tsl64),
        ]
    }

    #[test]
    fn a_dependent_cell_is_built_from_its_source_run_at_every_thread_count() {
        let sim = tiny_sim();
        let specs = [tiny_spec("dep-a", 19), tiny_spec("dep-b", 23)];
        let serial: Vec<Vec<RunResult>> = specs
            .iter()
            .map(|spec| {
                let llbpx = sim.run(&mut Llbp::new(LlbpConfig::llbpx()), spec);
                let opt_w = sim.run(opt_w(&llbpx).as_mut(), spec);
                let tsl = sim.run(&mut TageScl::new(TslConfig::kilobytes(64)), spec);
                vec![llbpx, opt_w, tsl]
            })
            .collect();

        for threads in [1usize, 4] {
            // Each dependent records the run it was handed.
            let received = Arc::new(Mutex::new(Vec::new()));
            let seen = Arc::clone(&received);
            let opt_w = move |source: &RunResult| {
                let run = (source.workload.clone(), source.mispredicts);
                seen.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(run);
                opt_w(source)
            };
            let designs = [
                design("LLBP-X", llbpx),
                design_after("Opt-W", "LLBP-X", opt_w),
                design("64K TSL", tsl64),
            ];
            let report = run_matrix(&sim, &specs, &designs, EngineOptions::basic(threads));
            assert_eq!(report.failed_cells(), 0);
            let mut received =
                std::mem::take(&mut *received.lock().unwrap_or_else(PoisonError::into_inner));
            received.sort();
            let source = |row: &Vec<RunResult>| (row[0].workload.clone(), row[0].mispredicts);
            let sources: Vec<_> = report.rows.iter().map(source).collect();
            assert_eq!(
                received, sources,
                "each dependent is handed its own row's run"
            );
            for (row, serial_row) in report.rows.iter().zip(&serial) {
                for (parallel, serial) in row.iter().zip(serial_row) {
                    assert_same_run(completed(parallel), serial);
                    assert_eq!(parallel.deep_contexts, serial.deep_contexts);
                }
            }
        }
    }

    #[test]
    fn a_dependent_of_a_failed_source_fails_naming_it() {
        let sim = tiny_sim();
        let specs = [tiny_spec("dep-fault", 29)];
        for threads in [1usize, 4] {
            let opts = with_fault(threads, None, Some(0));
            let report = run_matrix(&sim, &specs, &dependent_designs(), opts);
            assert_eq!(report.failed_cells(), 2);
            let run = &report.rows[0][1];
            let error = error_of(run);
            assert!(
                error.starts_with("matrix cell 1 (Opt-W × dep-fault)"),
                "{error}"
            );
            assert_eq!(run.storage_bits, 0, "it was never built");
            assert!(error.contains("source cell 0 (`LLBP-X`) failed"), "{error}");
            assert!(error.contains(ENV_FAULT_CELL), "{error}");
            assert!(
                !report.rows[0][2].is_failed(),
                "an unrelated cell still completes"
            );
        }
    }

    #[test]
    fn every_cell_keeps_its_row_major_index_and_fingerprint() {
        let sim = tiny_sim();
        let specs = [tiny_spec("order-a", 31), tiny_spec("order-b", 37)];
        let path = tmp("order");
        let _ = std::fs::remove_file(&path);
        let cp = Arc::new(Checkpoint::open(&path).expect("journal opens"));
        // Cell 4 is row 1's dependent, claimed last of all: the fault cell
        // is numbered row-major, not in claim order.
        let opts = with_fault(2, Some(cp), Some(4));
        let report = run_matrix(&sim, &specs, &dependent_designs(), opts);
        assert_eq!(report.failed_cells(), 1);
        let error = error_of(&report.rows[1][1]);
        assert!(
            error.starts_with("matrix cell 4 (Opt-W × order-b)"),
            "{error}"
        );
        assert!(error.contains(ENV_FAULT_CELL), "{error}");

        let journal = std::fs::read_to_string(&path).expect("the journal was written");
        let _ = std::fs::remove_file(&path);
        let fingerprint = |line: &str| {
            let line = telemetry::Json::parse(line).expect("a journal line is JSON");
            line.get("fingerprint")
                .and_then(telemetry::Json::as_str)
                .map(str::to_owned)
        };
        let mut journaled: Vec<_> = journal.lines().map(fingerprint).collect();
        let mut expected = Vec::new();
        for ((r, row), spec) in report.rows.iter().enumerate().zip(&specs) {
            for (c, (cell, run)) in ["LLBP-X", "Opt-W", "64K TSL"].iter().zip(row).enumerate() {
                if !run.is_failed() {
                    let (index, name, bits) = (3 * r + c, &run.name, run.storage_bits);
                    let fp =
                        checkpoint::job_fingerprint(index, cell, name, bits, false, spec, &sim);
                    expected.push(Some(fp));
                }
            }
        }
        journaled.sort();
        expected.sort();
        assert_eq!(journaled.len(), 5, "every completed cell is journaled");
        assert_eq!(journaled, expected);
    }

    #[test]
    #[should_panic(expected = "`Opt-W` depends on `LLBP-X`, which is no independent cell")]
    fn a_dependent_needs_an_independent_source_in_its_row() {
        let designs = [design_after("Opt-W", "LLBP-X", opt_w)];
        let _ = run_matrix(
            &tiny_sim(),
            &[tiny_spec("no-source", 1)],
            &designs,
            EngineOptions::basic(1),
        );
    }

    #[test]
    fn cells_with_equal_labels_and_storage_never_restore_each_other() {
        let sim = tiny_sim();
        let spec = tiny_spec("sweep", 47);
        let path = tmp("sweeps");
        let _ = std::fs::remove_file(&path);
        // Two sweeps sharing one journal, like sensitivity's H_th and CTT
        // matrices: each cell 0 is an "LLBP-X" of equal storage, but a
        // different configuration.
        let sweep = |h_th: usize| {
            let cfg = LlbpConfig::llbpx().with_h_th(h_th);
            let cp = Arc::new(Checkpoint::open(&path).expect("journal opens"));
            let designs = [design(format!("LLBP-X H_th={h_th}"), move || {
                Box::new(Llbp::new(cfg.clone())) as Box<dyn SimPredictor>
            })];
            run_matrix(
                &sim,
                std::slice::from_ref(&spec),
                &designs,
                with_fault(1, Some(cp), None),
            )
        };
        let first = sweep(112);
        let second = sweep(522);
        let _ = std::fs::remove_file(&path);
        let (a, b) = (completed(&first.rows[0][0]), completed(&second.rows[0][0]));
        assert_eq!((a.name.as_str(), b.name.as_str()), ("LLBP-X", "LLBP-X"));
        assert_eq!(
            a.storage_bits, b.storage_bits,
            "the collision needs equal storage"
        );
        assert_eq!(
            second.resumed_cells(),
            0,
            "a different H_th must not restore"
        );
    }
}
