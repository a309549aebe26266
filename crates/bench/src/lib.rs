//! Shared harness for the experiment binaries (`fig*`, `table*`, ...).
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper.
//! They all honour two environment variables so a single knob rescales the
//! whole evaluation:
//!
//! * `REPRO_WARMUP` — warmup instructions per run (default 10M),
//! * `REPRO_INSTRUCTIONS` — measured instructions per run (default 20M),
//! * `REPRO_WORKLOADS` — comma-separated preset names to restrict to.
//!
//! The paper's protocol is 100M + 200M; the defaults are sized for a
//! single-core laptop while preserving every qualitative trend.
//!
//! Next to the text tables, every binary can also emit a machine-readable
//! record of its runs (full counters, interval time-series, scope profile)
//! through [`Telemetry`]: pass `--json <path>` or set `LLBPX_TELEMETRY=1`
//! and one JSON line per invocation is appended to the sink (default
//! `BENCH_<name>.json`).

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use bpsim::analysis::ContextAnalysis;
use bpsim::exec::{self, MatrixJob};
use bpsim::runner::{RunResult, Simulation};
use bpsim::{CoreParams, SimPredictor};
use llbpx::{Llbp, LlbpConfig, LlbpxConfig};
use tage::{TageScl, TslConfig};
use telemetry::Json;
use workloads::presets::Preset;
use workloads::WorkloadSpec;

/// Process start anchor, set by the first [`sim`] call; [`footer`] reports
/// elapsed wall time against it.
static STARTED: OnceLock<Instant> = OnceLock::new();

/// Matrix cells that failed (panicked or timed out) across this
/// invocation's matrices; [`exit_status`] turns a non-zero
/// count into a failing exit code.
static FAILED_CELLS: AtomicUsize = AtomicUsize::new(0);

/// Matrix cells restored from the `LLBPX_CHECKPOINT` journal instead of
/// simulated in this invocation.
static RESUMED_CELLS: AtomicUsize = AtomicUsize::new(0);

/// Matrix cells stopped at their `LLBPX_JOB_TIMEOUT` deadline; a subset
/// of [`FAILED_CELLS`].
static TIMEDOUT_CELLS: AtomicUsize = AtomicUsize::new(0);

/// The exit code a binary's `main` should return: success when every
/// matrix cell completed, failure (with a stderr summary) when any cell
/// failed. Failed cells still render as `n/a` rows, so one bad cell never
/// hides the rest of a figure — but it must not exit 0 either.
pub fn exit_status() -> ExitCode {
    let failed = FAILED_CELLS.load(Ordering::Relaxed);
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        let timed_out = TIMEDOUT_CELLS.load(Ordering::Relaxed);
        eprintln!(
            "error: {failed} matrix cell(s) failed ({timed_out} timed out); \
             see the n/a rows above"
        );
        ExitCode::FAILURE
    }
}

/// Whether any of `results` is a failed cell — binaries guard per-preset
/// ratio math with this and emit an `n/a` row instead.
pub fn any_failed<'a>(results: impl IntoIterator<Item = &'a RunResult>) -> bool {
    results.into_iter().any(RunResult::is_failed)
}

/// The simulation protocol for this invocation (env-scaled).
pub fn sim() -> Simulation {
    STARTED.get_or_init(Instant::now);
    Simulation::from_env()
}

/// All presets, restricted by `REPRO_WORKLOADS` if set.
pub fn presets() -> Vec<Preset> {
    let all = workloads::presets::all();
    match std::env::var("REPRO_WORKLOADS") {
        Ok(filter) => {
            let wanted: Vec<String> =
                filter.split(',').map(|s| s.trim().to_ascii_lowercase()).collect();
            let picked: Vec<Preset> = all
                .into_iter()
                .filter(|p| wanted.iter().any(|w| w == &p.spec.name.to_ascii_lowercase()))
                .collect();
            assert!(!picked.is_empty(), "REPRO_WORKLOADS matched no preset");
            picked
        }
        Err(_) => all,
    }
}

/// A representative six-workload subset for the expensive limit studies
/// (idealized structures simulate slowly); override via `REPRO_WORKLOADS`.
pub fn representative_presets() -> Vec<Preset> {
    if std::env::var("REPRO_WORKLOADS").is_ok() {
        return presets();
    }
    let keep = ["NodeApp", "TPCC", "Wikipedia", "Spring", "Charlie", "Whiskey"];
    workloads::presets::all()
        .into_iter()
        .filter(|p| keep.contains(&p.spec.name.as_str()))
        .collect()
}

/// The paper's baseline predictor: 64K TAGE-SC-L.
pub fn tsl64() -> Box<dyn SimPredictor> {
    Box::new(TageScl::new(TslConfig::kilobytes(64)))
}

/// A TSL of the given storage class.
pub fn tsl(kb: u32) -> Box<dyn SimPredictor> {
    Box::new(TageScl::new(TslConfig::kilobytes(kb)))
}

/// The idealized infinite TSL.
pub fn tsl_inf() -> Box<dyn SimPredictor> {
    Box::new(TageScl::new(TslConfig::infinite()))
}

/// The original LLBP with its 6-cycle-latency prefetch model.
pub fn llbp() -> Box<dyn SimPredictor> {
    Box::new(Llbp::new(LlbpConfig::paper_baseline()))
}

/// LLBP with a 0-cycle pattern-store latency.
pub fn llbp_0lat() -> Box<dyn SimPredictor> {
    Box::new(Llbp::new(LlbpConfig::zero_latency()))
}

/// LLBP-X, the paper's proposal.
pub fn llbpx() -> Box<dyn SimPredictor> {
    Box::new(Llbp::new_x(LlbpxConfig::paper_baseline()))
}

/// An LLBP limit-study configuration by constructor.
pub fn llbp_with(cfg: LlbpConfig) -> Box<dyn SimPredictor> {
    Box::new(Llbp::new(cfg))
}

/// An LLBP-X variant by configuration.
pub fn llbpx_with(cfg: LlbpxConfig) -> Box<dyn SimPredictor> {
    Box::new(Llbp::new_x(cfg))
}

/// Runs LLBP-X once to convergence and returns its per-context depth
/// decisions — the "found ahead of time" oracle of LLBP-X Opt-W (§VII-A).
pub fn opt_w_oracle(spec: &WorkloadSpec, sim: &Simulation) -> std::collections::HashMap<u64, bool> {
    let mut trainer = Llbp::new_x(LlbpxConfig::paper_baseline());
    let _ = sim.run(&mut trainer, spec);
    trainer.depth_decisions().clone()
}

/// LLBP-X with a fixed depth oracle (no retraining loss on transitions).
pub fn llbpx_opt_w(oracle: std::collections::HashMap<u64, bool>) -> Box<dyn SimPredictor> {
    let mut cfg = LlbpxConfig::paper_baseline();
    cfg.base.label = "LLBP-X Opt-W".to_owned();
    Box::new(Llbp::new_x_with_oracle(cfg, oracle))
}

/// Runs one boxed design over a preset.
pub fn run(design: &mut Box<dyn SimPredictor>, spec: &WorkloadSpec, sim: &Simulation) -> RunResult {
    sim.run(design.as_mut(), spec)
}

/// Fluent description of one run-matrix cell: a display name, the workload
/// it runs on, and the predictor factory that builds the design on the
/// worker thread claiming the job.
///
/// ```no_run
/// # let preset = &workloads::presets::all()[0];
/// # let mut jobs = Vec::new();
/// jobs.push(bench::JobSpec::new("64K TSL").workload(&preset.spec).predictor(bench::tsl64));
/// ```
///
/// Plain constructors pass directly to [`JobSpec::predictor`]; configured
/// designs capture their config in a closure
/// (`.predictor(move || bench::llbpx_with(cfg))`). The name labels the
/// cell in engine error reports, so failures name the design, not just
/// the workload, and it is part of the cell's checkpoint fingerprint, so
/// give every distinct design in a binary a distinct name.
pub struct JobSpec {
    name: String,
    workload: Option<WorkloadSpec>,
    factory: Option<Box<dyn FnOnce() -> Box<dyn SimPredictor> + Send + 'static>>,
}

impl JobSpec {
    /// Starts a cell description named `name` (the design label).
    pub fn new(name: impl Into<String>) -> Self {
        JobSpec { name: name.into(), workload: None, factory: None }
    }

    /// Sets the workload the cell runs on. Cells with equal specs share
    /// one materialized trace in the engine.
    #[must_use]
    pub fn workload(mut self, spec: &WorkloadSpec) -> Self {
        self.workload = Some(spec.clone());
        self
    }

    /// Sets the predictor factory; it runs once, on the worker thread
    /// that claims the cell.
    #[must_use]
    pub fn predictor(
        mut self,
        factory: impl FnOnce() -> Box<dyn SimPredictor> + Send + 'static,
    ) -> Self {
        self.factory = Some(Box::new(factory));
        self
    }

    /// The cell's display label: `name / workload`.
    pub fn label(&self) -> String {
        match &self.workload {
            Some(spec) => format!("{} / {}", self.name, spec.name),
            None => self.name.clone(),
        }
    }

    /// Converts into the engine's job form.
    ///
    /// # Panics
    ///
    /// Panics (naming the cell) when `workload` or `predictor` was never
    /// set — a construction bug in the calling binary.
    fn build(self) -> MatrixJob<'static> {
        let workload = self
            .workload
            .unwrap_or_else(|| panic!("job `{}` has no workload; call .workload(..)", self.name));
        let factory = self
            .factory
            .unwrap_or_else(|| panic!("job `{}` has no predictor; call .predictor(..)", self.name));
        MatrixJob { name: self.name, factory, spec: workload }
    }
}

/// Runs a matrix of jobs through the parallel experiment engine
/// ([`bpsim::exec`]) and records every run, returning the results in job
/// order — bit-identical to running the same cells serially.
///
/// `LLBPX_THREADS` selects the worker count and `LLBPX_TRACE_CACHE_MB`
/// caps the shared trace cache (see the engine docs). The engine's
/// bookkeeping (thread count, cache behavior) lands on the binary's
/// telemetry record line.
pub fn run_matrix(
    telemetry: &mut Telemetry,
    sim: &Simulation,
    jobs: Vec<JobSpec>,
) -> Vec<RunResult> {
    let labels: Vec<String> = jobs.iter().map(JobSpec::label).collect();
    let jobs: Vec<MatrixJob<'static>> = jobs.into_iter().map(JobSpec::build).collect();
    let report = exec::run_matrix(sim, jobs);
    telemetry.record_engine(&report);
    FAILED_CELLS.fetch_add(report.failed_cells(), Ordering::Relaxed);
    RESUMED_CELLS.fetch_add(report.resumed_cells(), Ordering::Relaxed);
    TIMEDOUT_CELLS.fetch_add(report.timed_out_cells(), Ordering::Relaxed);
    report
        .outputs
        .into_iter()
        .zip(labels)
        .map(|(output, label)| match output {
            Ok(mut output) => {
                telemetry.record_run(&mut output.result, sim, Some(output.storage_bits));
                output.result
            }
            Err(err) => {
                eprintln!("error: cell `{label}`: {err}");
                let mut result = RunResult::from_job_error(err);
                telemetry.record_run(&mut result, sim, None);
                result
            }
        })
        .collect()
}

/// Runs several context analyses (Figs. 6-9) in parallel through the
/// engine, recording each underlying simulation run; results come back in
/// job order. Analysis runs always stream their workload (the instrumented
/// predictor dominates their cost), so only the fan-out is shared with
/// [`run_matrix`].
pub fn run_analyses(
    telemetry: &mut Telemetry,
    sim: &Simulation,
    jobs: Vec<(WorkloadSpec, usize)>,
) -> Vec<ContextAnalysis> {
    let boxed: Vec<exec::BoxedJob<'static, ContextAnalysis>> = jobs
        .into_iter()
        .map(|(spec, w)| {
            let sim = *sim;
            Box::new(move || bpsim::analysis::analyze_contexts(&spec, w, &sim))
                as exec::BoxedJob<'static, ContextAnalysis>
        })
        .collect();
    let mut analyses = exec::run_jobs(boxed);
    for analysis in &mut analyses {
        telemetry.record_run(&mut analysis.run, sim, None);
    }
    analyses
}

/// Machine-readable emission for one experiment binary.
///
/// Construct once at the top of `main`, route every simulation through
/// [`Telemetry::run`] / [`Telemetry::analyze`], and on drop (or an explicit
/// [`Telemetry::emit`]) the collected run records are appended as one JSON
/// line to the resolved sink. With no `--json` argument and no
/// `LLBPX_TELEMETRY` variable this is all free: nothing is recorded and
/// nothing is written.
pub struct Telemetry {
    bench: &'static str,
    sink: Option<PathBuf>,
    runs: Vec<Json>,
    extra: Vec<(String, Json)>,
    started: Instant,
    emitted: bool,
}

impl Telemetry {
    /// A recorder for the binary named `bench`, with the sink resolved from
    /// `--json <path>` / `LLBPX_TELEMETRY`.
    pub fn new(bench: &'static str) -> Self {
        Telemetry {
            bench,
            sink: telemetry::record::sink_from_env(bench),
            runs: Vec::new(),
            extra: Vec::new(),
            started: Instant::now(),
            emitted: false,
        }
    }

    /// Whether a sink is configured (records are only collected then).
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Runs one boxed design over a preset and records the run (the serial
    /// path; matrix binaries go through [`run_matrix`] instead).
    pub fn run(
        &mut self,
        design: &mut Box<dyn SimPredictor>,
        spec: &WorkloadSpec,
        sim: &Simulation,
    ) -> RunResult {
        let mut result = sim.run(design.as_mut(), spec);
        self.record_run(&mut result, sim, Some(design.storage_bits()));
        result
    }

    /// Runs the context analysis (Figs. 6-9) and records its underlying
    /// simulation run.
    pub fn analyze(&mut self, spec: &WorkloadSpec, w: usize, sim: &Simulation) -> ContextAnalysis {
        let mut analysis = bpsim::analysis::analyze_contexts(spec, w, sim);
        self.record_run(&mut analysis.run, sim, None);
        analysis
    }

    /// Records an externally produced run (e.g. from [`run`] or
    /// [`bpsim::runner::compare`]). Recording *moves* the run's interval
    /// time-series and scope profile into the record (no cloning), leaving
    /// those sections empty on `result`; headline metrics stay.
    pub fn record_run(
        &mut self,
        result: &mut RunResult,
        sim: &Simulation,
        storage_bits: Option<u64>,
    ) {
        if self.sink.is_none() {
            return;
        }
        let mut rec = result.take_record(sim);
        // A failed cell ran zero instructions; its CPI is meaningless.
        if !result.is_failed() {
            let core = CoreParams::paper_table2();
            rec.extra.push((
                "cpi".to_owned(),
                Json::Num(core.cpi(result.instructions, result.mispredicts, 0)),
            ));
        }
        if let Some(bits) = storage_bits {
            rec.extra.push(("storage_bits".to_owned(), Json::from(bits)));
        }
        self.runs.push(rec.to_json());
    }

    /// Attaches the engine's bookkeeping (thread count, trace-cache
    /// behavior) to the record line; first matrix wins if a binary runs
    /// several.
    pub fn record_engine(&mut self, report: &exec::MatrixReport) {
        if self.sink.is_none() || self.extra.iter().any(|(k, _)| k == "trace_cache") {
            return;
        }
        self.extra.push(("threads".to_owned(), Json::from(report.threads as u64)));
        self.extra.push((
            "trace_cache".to_owned(),
            Json::obj()
                .set("specs_cached", report.cache.specs_cached as u64)
                .set("specs_streamed", report.cache.specs_streamed as u64)
                .set("cached_records", report.cache.cached_records)
                .set("cached_bytes", report.cache.cached_bytes)
                .set("generation_seconds", report.cache.generation_seconds),
        ));
    }

    /// Attaches a top-level field to this binary's record line (for data
    /// that is not a simulation run, e.g. table 2's storage budgets).
    pub fn set_extra(&mut self, key: &str, value: Json) {
        self.extra.push((key.to_owned(), value));
    }

    /// Appends the collected records to the sink now (idempotent; also
    /// invoked on drop).
    pub fn emit(&mut self) {
        if self.emitted {
            return;
        }
        self.emitted = true;
        let Some(sink) = &self.sink else { return };
        let run_count = self.runs.len();
        // Elapsed (coordinator) time of the whole invocation — unlike the
        // per-run `wall_seconds`, this does not multiply under concurrency,
        // so threads=1 vs threads=N lines diff into a speedup directly.
        let mut line = Json::obj()
            .set("schema", telemetry::record::SCHEMA)
            .set("bench", self.bench)
            .set("total_wall_seconds", self.started.elapsed().as_secs_f64())
            .set("runs", Json::Arr(std::mem::take(&mut self.runs)));
        if !self.extra.iter().any(|(k, _)| k == "threads") {
            line = line.set("threads", exec::threads_from_env() as u64);
        }
        let failed = FAILED_CELLS.load(Ordering::Relaxed);
        if failed > 0 {
            line = line.set("failed_cells", failed as u64);
        }
        let resumed = RESUMED_CELLS.load(Ordering::Relaxed);
        if resumed > 0 {
            line = line.set("resumed_cells", resumed as u64);
        }
        let timed_out = TIMEDOUT_CELLS.load(Ordering::Relaxed);
        if timed_out > 0 {
            line = line.set("timed_out_cells", timed_out as u64);
        }
        for (k, v) in &self.extra {
            line = line.set(k.as_str(), v.clone());
        }
        match telemetry::record::append_line(sink, &line) {
            Ok(()) => eprintln!(
                "telemetry: appended {run_count} run record(s) to {}",
                sink.display()
            ),
            Err(e) => eprintln!("telemetry: failed to write {}: {e}", sink.display()),
        }
    }
}

impl Drop for Telemetry {
    fn drop(&mut self) {
        self.emit();
    }
}

/// Prints the standard experiment footer: protocol, engine configuration
/// (threads + elapsed wall time), and paper pointer.
pub fn footer(sim: &Simulation, paper_ref: &str) {
    println!(
        "\nprotocol: {}M warmup + {}M measured instructions per run \
         (REPRO_WARMUP / REPRO_INSTRUCTIONS to rescale)",
        sim.warmup_instructions / 1_000_000,
        sim.measure_instructions / 1_000_000
    );
    if let Some(started) = STARTED.get() {
        println!(
            "engine: {} thread(s) (LLBPX_THREADS), {:.2}s total wall time",
            exec::threads_from_env(),
            started.elapsed().as_secs_f64()
        );
    }
    // Stderr, not stdout: a resumed run's tables must stay byte-identical
    // to an uninterrupted run's.
    let resumed = RESUMED_CELLS.load(Ordering::Relaxed);
    if resumed > 0 {
        eprintln!("checkpoint: {resumed} cell(s) restored from the LLBPX_CHECKPOINT journal");
    }
    let timed_out = TIMEDOUT_CELLS.load(Ordering::Relaxed);
    if timed_out > 0 {
        eprintln!("deadline: {timed_out} cell(s) stopped at the LLBPX_JOB_TIMEOUT deadline");
    }
    println!("paper reference: {paper_ref}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_design_constructors_build() {
        assert_eq!(tsl64().name(), "64K TSL");
        assert_eq!(tsl(512).name(), "512K TSL");
        assert_eq!(tsl_inf().name(), "Inf TSL");
        assert_eq!(llbp().name(), "LLBP");
        assert_eq!(llbp_0lat().name(), "LLBP-0Lat");
        assert_eq!(llbpx().name(), "LLBP-X");
        assert_eq!(llbpx_opt_w(Default::default()).name(), "LLBP-X Opt-W");
    }

    #[test]
    fn representative_subset_is_a_subset() {
        let rep = representative_presets();
        assert!(rep.len() <= presets().len());
        assert!(rep.iter().any(|p| p.spec.name == "NodeApp"));
    }

    #[test]
    fn oracle_helper_produces_decisions() {
        let spec = WorkloadSpec::new("tiny", 2).with_request_types(64).with_handlers(8);
        let sim = Simulation { warmup_instructions: 50_000, measure_instructions: 100_000 };
        let oracle = opt_w_oracle(&spec, &sim);
        // Tiny runs may or may not transition; the call itself must work.
        let mut p = llbpx_opt_w(oracle);
        let r = sim.run(p.as_mut(), &spec);
        assert!(r.cond_branches > 0);
    }
}
