//! Shared harness for the experiment binaries (`fig*`, `table*`, ...).
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper.
//! They all honour three environment variables so a single knob rescales the
//! whole evaluation:
//!
//! * `REPRO_WARMUP` — warmup instructions per run (default 4M),
//! * `REPRO_INSTRUCTIONS` — measured instructions per run (default 8M;
//!   must be positive),
//! * `REPRO_WORKLOADS` — comma-separated preset names to restrict to
//!   ([`WORKLOADS`]; a typo warns and keeps the binary's default presets).
//!
//! The paper's protocol is 100M + 200M; the defaults are the protocol the
//! committed `results/*.txt` files were recorded at, so a bare run prints
//! its committed table.
//!
//! A figure is a table of workloads × designs. A binary declares its
//! designs once (`bench::design("LLBP", bench::llbp)`) and [`run_rows`]
//! runs them on every preset as one engine grid ([`bpsim::exec`]),
//! returning one result row of [`RunResult`]s per preset.
//! [`tabulate`] renders those rows (`n/a` for a row with a failed cell),
//! and the geomean/mean summaries run over the [`completed`] rows, so a
//! summary over no completed rows renders `n/a` too.
//!
//! Next to the text tables, every binary can also emit a machine-readable
//! record of its runs (full counters, interval time-series, scope profile)
//! through [`Telemetry`]: pass `--json <path>` or set `LLBPX_TELEMETRY=1`
//! and one JSON line per invocation is appended to the sink (default
//! `BENCH_<name>.json`).

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use bpsim::analysis::ContextAnalysis;
use bpsim::env::Knob;
use bpsim::exec::{self, EngineOptions};
use bpsim::report::Table;
use bpsim::runner::{RunResult, Simulation};
use bpsim::{CoreParams, SimPredictor};
use llbpx::{Llbp, LlbpConfig};
use tage::{TageScl, TslConfig};
use telemetry::Json;
use workloads::presets::Preset;
use workloads::WorkloadSpec;

pub use bpsim::exec::{design, design_after, Design};

/// Process start anchor, set by the first [`sim`] call; [`footer`] reports
/// elapsed wall time against it.
static STARTED: OnceLock<Instant> = OnceLock::new();

/// Matrix cells that failed (panicked) across this invocation's matrices;
/// [`exit_status`] turns a non-zero count into a failing exit code.
static FAILED_CELLS: AtomicUsize = AtomicUsize::new(0);

/// Matrix cells restored from the `LLBPX_CHECKPOINT` journal instead of
/// simulated in this invocation.
static RESUMED_CELLS: AtomicUsize = AtomicUsize::new(0);

/// The exit code a binary's `main` should return: success when every
/// matrix cell completed, failure (with a stderr summary) when any cell
/// failed. Failed cells still render as `n/a` rows, so one bad cell never
/// hides the rest of a figure — but it must not exit 0 either.
pub fn exit_status() -> ExitCode {
    let failed = FAILED_CELLS.load(Ordering::Relaxed);
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: {failed} matrix cell(s) failed; see the n/a rows above");
        ExitCode::FAILURE
    }
}

/// The simulation protocol for this invocation (env-scaled).
pub fn sim() -> Simulation {
    STARTED.get_or_init(Instant::now);
    Simulation::from_env()
}

/// `REPRO_WORKLOADS` knob: the presets a comma-separated list of names
/// selects (case-insensitive, space-trimmed), in preset-table order with
/// duplicates dropped. An unknown name or an empty list rejects the whole
/// value; `None` means "the binary's default presets".
pub static WORKLOADS: Knob<Option<Vec<Preset>>> = Knob::new(
    "REPRO_WORKLOADS",
    "a comma-separated list of known preset names",
    "using the binary's default workloads",
    parse_workloads,
);

fn parse_workloads(raw: &str) -> Option<Option<Vec<Preset>>> {
    let wanted: Vec<String> = raw.split(',').map(|s| s.trim().to_ascii_lowercase()).collect();
    let all = workloads::presets::all();
    let picked: Vec<Preset> = all
        .into_iter()
        .filter(|p| wanted.contains(&p.spec.name.to_ascii_lowercase()))
        .collect();
    let known = |w: &String| picked.iter().any(|p| p.spec.name.eq_ignore_ascii_case(w));
    wanted.iter().all(known).then_some(Some(picked))
}

/// The presets `REPRO_WORKLOADS` selects, or else every preset `default`
/// keeps.
pub fn presets_where(default: impl Fn(&Preset) -> bool) -> Vec<Preset> {
    WORKLOADS
        .get(|| None)
        .unwrap_or_else(|| workloads::presets::all().into_iter().filter(|p| default(p)).collect())
}

/// All presets, restricted by `REPRO_WORKLOADS` if set.
pub fn presets() -> Vec<Preset> {
    presets_where(|_| true)
}

/// A representative six-workload subset for the expensive limit studies
/// (idealized structures simulate slowly); override via `REPRO_WORKLOADS`.
pub fn representative_presets() -> Vec<Preset> {
    let keep = ["NodeApp", "TPCC", "Wikipedia", "Spring", "Charlie", "Whiskey"];
    presets_where(|p| keep.contains(&p.spec.name.as_str()))
}

/// The workload of the context analyses (Figs. 6-9): NodeApp, or the
/// first selected preset when `REPRO_WORKLOADS` leaves NodeApp out.
pub fn analysis_preset() -> Preset {
    let mut presets = presets();
    let nodeapp = presets.iter().position(|p| p.spec.name == "NodeApp");
    presets.swap_remove(nodeapp.unwrap_or(0))
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
    Box::new(Llbp::new(LlbpConfig::llbpx()))
}

/// An LLBP or LLBP-X variant by configuration (a limit-study step, a sweep
/// point).
pub fn llbp_with(cfg: LlbpConfig) -> Box<dyn SimPredictor> {
    Box::new(Llbp::new(cfg))
}

/// Runs LLBP-X once to convergence and returns its depth decisions as a
/// map, every listed context deep — the "found ahead of time" oracle of
/// LLBP-X Opt-W (§VII-A). A figure takes the same decisions from its row's
/// LLBP-X cell instead ([`llbpx_opt_w_after`]).
pub fn opt_w_oracle(spec: &WorkloadSpec, sim: &Simulation) -> HashMap<u64, bool> {
    let llbpx = sim.run(&mut Llbp::new(LlbpConfig::llbpx()), spec);
    llbpx.deep_contexts.unwrap_or_default().into_iter().map(|cid| (cid, true)).collect()
}

/// LLBP-X with a fixed depth oracle (no retraining loss on transitions):
/// the contexts `oracle` maps to `true` are deep, every other is shallow.
pub fn llbpx_opt_w(oracle: HashMap<u64, bool>) -> Box<dyn SimPredictor> {
    opt_w(oracle.into_iter().filter_map(|(cid, deep)| deep.then_some(cid)))
}

/// LLBP-X Opt-W with the depth decisions of a finished LLBP-X run: the
/// factory of a cell that depends on its row's LLBP-X cell.
///
/// # Panics
///
/// Panics if `llbpx` is not a depth-adapting run (it carries no deep
/// contexts).
pub fn llbpx_opt_w_after(llbpx: &RunResult) -> Box<dyn SimPredictor> {
    let Some(deep) = &llbpx.deep_contexts else {
        panic!("Opt-W needs an LLBP-X run's depth decisions; `{}` made none", llbpx.name);
    };
    opt_w(deep.iter().copied())
}

fn opt_w(deep_contexts: impl IntoIterator<Item = u64>) -> Box<dyn SimPredictor> {
    let cfg = LlbpConfig { label: "LLBP-X Opt-W".to_owned(), ..LlbpConfig::llbpx() };
    Box::new(Llbp::with_oracle(cfg, deep_contexts))
}

/// Runs every design on every preset through the parallel experiment
/// engine ([`bpsim::exec::run_matrix`]), one grid row per preset, records
/// every run and returns one result row per preset: the runs in design
/// order, bit-identical to running the same cells serially. A failed cell
/// comes back as a failed [`RunResult`]; [`tabulate`] renders its row `n/a`.
///
/// ```no_run
/// let sim = bench::sim();
/// let mut telemetry = bench::Telemetry::new("demo");
/// let designs = [
///     bench::design("LLBP-X", bench::llbpx),
///     // Pass 1 of Opt-W is the row's own LLBP-X cell.
///     bench::design_after("LLBP-X Opt-W", "LLBP-X", bench::llbpx_opt_w_after),
/// ];
/// for (preset, runs) in bench::run_rows(&mut telemetry, &sim, bench::presets(), &designs) {
///     println!("{}: {:.3} vs {:.3}", preset.spec.name, runs[0].mpki(), runs[1].mpki());
/// }
/// ```
///
/// The engine's knobs (`LLBPX_THREADS`, `LLBPX_CHECKPOINT`, ...) apply,
/// and its bookkeeping lands on the binary's telemetry record line.
pub fn run_rows(
    telemetry: &mut Telemetry,
    sim: &Simulation,
    presets: Vec<Preset>,
    designs: &[Design],
) -> Vec<(Preset, Vec<RunResult>)> {
    let specs: Vec<WorkloadSpec> = presets.iter().map(|p| p.spec.clone()).collect();
    let rows = run_grid(telemetry, sim, &specs, designs, EngineOptions::from_env());
    presets.into_iter().zip(rows).collect()
}

/// Runs one grid and records it: every run on the telemetry line, every
/// failed cell on stderr and in [`exit_status`]'s count.
fn run_grid(
    telemetry: &mut Telemetry,
    sim: &Simulation,
    specs: &[WorkloadSpec],
    designs: &[Design],
    opts: EngineOptions,
) -> Vec<Vec<RunResult>> {
    let report = exec::run_matrix(sim, specs, designs, opts);
    telemetry.record_engine(&report);
    FAILED_CELLS.fetch_add(report.failed_cells(), Ordering::Relaxed);
    RESUMED_CELLS.fetch_add(report.resumed_cells(), Ordering::Relaxed);
    for run in report.rows.iter().flatten() {
        if let Some(error) = &run.error {
            eprintln!("error: {error}");
        }
        telemetry.record_run(run, sim);
    }
    report.rows
}

/// Adds one table row per result row: the workload name followed by
/// `render`'s cells when every cell of the row completed, and an `n/a`
/// row when any failed — so one bad cell never hides the rest of a figure.
pub fn tabulate(
    table: &mut Table,
    rows: &[(Preset, Vec<RunResult>)],
    mut render: impl FnMut(&Preset, &[RunResult]) -> Vec<String>,
) {
    for (preset, runs) in rows {
        if runs.iter().any(RunResult::is_failed) {
            table.na_row(&preset.spec.name);
        } else {
            let mut cells = vec![preset.spec.name.clone()];
            cells.extend(render(preset, runs));
            table.row(cells);
        }
    }
}

/// The result rows whose every cell completed: what a figure's geomean
/// and mean summaries run over.
pub fn completed(rows: &[(Preset, Vec<RunResult>)]) -> impl Iterator<Item = &[RunResult]> {
    let complete = |runs: &&[RunResult]| !runs.iter().any(RunResult::is_failed);
    rows.iter().map(|(_, runs)| runs.as_slice()).filter(complete)
}

/// Design `i`'s MPKI relative to the row's baseline, design 0.
pub fn mpki_ratio(runs: &[RunResult], i: usize) -> f64 {
    runs[i].mpki() / runs[0].mpki()
}

/// The geomean of design `i`'s [`mpki_ratio`] over the completed rows;
/// `None` when no row completed.
pub fn geomean_ratio(rows: &[(Preset, Vec<RunResult>)], i: usize) -> Option<f64> {
    bpsim::report::geomean(completed(rows).map(|runs| mpki_ratio(runs, i)))
}

/// Runs the context analyses (Figs. 6-9) of `spec` at each context depth
/// of `depths` as one grid row, recording each underlying run; `None` for
/// a failed cell, in depth order.
///
/// The checkpoint journal stays off: a journal line does not hold the
/// analysis data, so a restored cell could not be analyzed.
/// `LLBPX_THREADS` and `LLBPX_FAULT_CELL` apply.
pub fn run_analyses(
    telemetry: &mut Telemetry,
    sim: &Simulation,
    spec: &WorkloadSpec,
    depths: &[usize],
) -> Vec<Option<ContextAnalysis>> {
    let analyzer = |w: usize| {
        design(format!("LLBP W={w} analysis"), move || {
            Box::new(ContextAnalysis::predictor(w)) as Box<dyn SimPredictor>
        })
    };
    let designs: Vec<Design> = depths.iter().map(|&w| analyzer(w)).collect();
    let opts = EngineOptions {
        fault_cell: exec::FAULT_CELL.get(|| None),
        ..EngineOptions::basic(exec::threads_from_env())
    };
    let rows = run_grid(telemetry, sim, std::slice::from_ref(spec), &designs, opts);
    rows.iter().flatten().map(ContextAnalysis::from_run).collect()
}

/// Machine-readable emission for one experiment binary.
///
/// Construct once at the top of `main`, route every simulation through
/// [`run_rows`] / [`run_analyses`] (or [`Telemetry::record_run`]), and on
/// drop (or an explicit [`Telemetry::emit`]) the collected run records are
/// appended as one JSON line to the resolved sink. With no `--json`
/// argument and no `LLBPX_TELEMETRY` variable this is all free: nothing is
/// recorded and nothing is written.
pub struct Telemetry {
    bench: &'static str,
    sink: Option<PathBuf>,
    runs: Vec<Json>,
    extra: Vec<(String, Json)>,
    /// Worker threads the last matrix of this invocation used.
    threads: Option<usize>,
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
            threads: None,
            started: Instant::now(),
            emitted: false,
        }
    }

    /// Records an externally produced run (e.g. from
    /// [`bpsim::runner::compare`]): its run record
    /// ([`RunResult::to_json`]) plus the run's CPI on the paper's core.
    pub fn record_run(&mut self, result: &RunResult, sim: &Simulation) {
        if self.sink.is_none() {
            return;
        }
        let mut rec = result.to_json(sim);
        // A failed cell ran zero instructions; its CPI is meaningless.
        if !result.is_failed() {
            let core = CoreParams::paper_table2();
            rec = rec.set("cpi", core.cpi(result.instructions, result.mispredicts, 0));
        }
        self.runs.push(rec);
    }

    /// Adds one matrix's engine bookkeeping to the record line: the
    /// worker threads it used.
    pub fn record_engine(&mut self, report: &exec::MatrixReport) {
        self.threads = Some(report.threads);
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
        let threads = self.threads.unwrap_or_else(exec::threads_from_env);
        line = line.set("threads", threads as u64);
        let failed = FAILED_CELLS.load(Ordering::Relaxed);
        if failed > 0 {
            line = line.set("failed_cells", failed as u64);
        }
        let resumed = RESUMED_CELLS.load(Ordering::Relaxed);
        if resumed > 0 {
            line = line.set("resumed_cells", resumed as u64);
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
    fn repro_workloads_selects_in_table_order_and_rejects_typos_whole() {
        let names = |raw: &str| {
            let picked = WORKLOADS.resolve(Some(raw), || None)?;
            Some(picked.into_iter().map(|p| p.spec.name).collect::<Vec<_>>())
        };
        let both = Some(vec!["NodeApp".to_owned(), "TPCC".to_owned()]);
        assert_eq!(names(" tpcc , NODEAPP,TPCC"), both, "table order, no duplicates");
        assert_eq!(names("NodeApp,TPPC"), None, "one unknown name rejects the value");
        assert_eq!(names(""), None, "an empty list is rejected");
        assert_eq!(names("NodeApp,"), None, "an empty name is rejected");
        assert!(WORKLOADS.resolve(None, || None).is_none(), "unset selects nothing");
    }

    #[test]
    fn representative_subset_is_a_subset() {
        let rep = representative_presets();
        assert!(rep.len() <= presets().len());
        assert!(rep.iter().any(|p| p.spec.name == "NodeApp"));
    }

    #[test]
    fn engine_threads_land_on_the_record_line() {
        let sink = std::env::temp_dir()
            .join(format!("llbpx-bench-engine-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&sink);
        let mut telemetry = Telemetry::new("engine-test");
        telemetry.sink = Some(sink.clone());
        let matrix = |threads: usize| exec::MatrixReport { rows: Vec::new(), threads };
        telemetry.record_engine(&matrix(3));
        telemetry.record_engine(&matrix(2));
        telemetry.emit();

        let text = std::fs::read_to_string(&sink).expect("the record was written");
        let _ = std::fs::remove_file(&sink);
        let line = Json::parse(text.trim()).expect("one JSON line");
        assert_eq!(line.get("threads").and_then(Json::as_i64), Some(2), "the last matrix's");
    }

    #[test]
    fn oracle_helper_produces_decisions() {
        let spec = WorkloadSpec::new("tiny", 2).with_request_types(64).with_handlers(8);
        let sim = Simulation { warmup_instructions: 50_000, measure_instructions: 100_000 };
        let llbpx_run = sim.run(llbpx().as_mut(), &spec);
        let deep = llbpx_run.deep_contexts.clone().expect("LLBP-X decides depths");
        let oracle = opt_w_oracle(&spec, &sim);
        assert!(oracle.values().all(|&d| d), "the oracle lists deep contexts only");
        let mut listed: Vec<u64> = oracle.keys().copied().collect();
        listed.sort_unstable();
        assert_eq!(listed, deep, "the oracle is the run's deep-context list");
        let from_map = sim.run(llbpx_opt_w(oracle).as_mut(), &spec);
        let from_run = sim.run(llbpx_opt_w_after(&llbpx_run).as_mut(), &spec);
        assert_eq!(from_map.mispredicts, from_run.mispredicts);
        assert!(from_run.deep_contexts.is_none(), "an oracle run decides no depths");
    }

    #[test]
    #[should_panic(expected = "`LLBP` made none")]
    fn opt_w_needs_a_depth_adapting_source_run() {
        let _ = llbpx_opt_w_after(&RunResult { name: "LLBP".into(), ..RunResult::default() });
    }
}
