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
//! A figure is a table of workloads × designs, run by one [`Figure`] per
//! invocation. A binary declares its designs once
//! (`bench::design("LLBP", bench::llbp)`) and [`Figure::run_rows`] runs
//! them on every preset as one engine grid ([`bpsim::exec`]), returning one
//! result row of [`RunResult`]s per preset. [`tabulate`] renders those rows
//! (`n/a` for a row with a failed cell), and the geomean/mean summaries run
//! over the [`completed`] rows, so a summary over no completed rows renders
//! `n/a` too. [`Figure::finish`] prints the footer and returns the exit
//! code, a failure when any cell failed.
//!
//! Next to the text tables, every binary can also emit a machine-readable
//! record of its runs (full counters, scope profile):
//! pass `--json <path>` or set `LLBPX_TELEMETRY=1` and its [`Figure`]
//! appends one JSON line per invocation to the sink (default
//! `BENCH_<name>.json`).

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use bpsim::analysis::ContextAnalysis;
use bpsim::env::Knob;
use bpsim::exec::{self, EngineOptions};
use bpsim::report::Table;
use bpsim::runner::{RunResult, Simulation};
use bpsim::{CoreParams, SimPredictor};
use llbpx::{Llbp, LlbpConfig};
use pipeline::Frontend;
use tage::{TageScl, TslConfig};
use telemetry::Json;
use workloads::presets::Preset;
use workloads::WorkloadSpec;

pub use bpsim::exec::{design, design_after, Design};

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
    let wanted: Vec<String> = raw
        .split(',')
        .map(|s| s.trim().to_ascii_lowercase())
        .collect();
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
    WORKLOADS.get(|| None).unwrap_or_else(|| {
        workloads::presets::all()
            .into_iter()
            .filter(|p| default(p))
            .collect()
    })
}

/// All presets, restricted by `REPRO_WORKLOADS` if set.
pub fn presets() -> Vec<Preset> {
    presets_where(|_| true)
}

/// A representative six-workload subset for the expensive limit studies
/// (idealized structures simulate slowly); override via `REPRO_WORKLOADS`.
pub fn representative_presets() -> Vec<Preset> {
    let keep = [
        "NodeApp",
        "TPCC",
        "Wikipedia",
        "Spring",
        "Charlie",
        "Whiskey",
    ];
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

/// The Fig. 13 grid, shared by `fig13` and `fig13p`: 64K TSL (the
/// baseline), LLBP, LLBP-X and the ideal 512K TSL, each behind the
/// frontend observer ([`pipeline::Frontend`]). `fig13` reads the runs'
/// mispredictions and `fig13p` their frontend counters; the cells are the
/// same, so one binary's journal restores the other's.
pub fn fig13_designs() -> [Design; 4] {
    let observed = |name: &str, factory: fn() -> Box<dyn SimPredictor>| {
        design(name, move || {
            Box::new(Frontend::new(factory())) as Box<dyn SimPredictor>
        })
    };
    [
        observed("64K TSL", tsl64),
        observed("LLBP", llbp),
        observed("LLBP-X", llbpx),
        observed("512K TSL", || tsl(512)),
    ]
}

/// Runs LLBP-X once to convergence and returns its depth decisions as a
/// map, every listed context deep — the "found ahead of time" oracle of
/// LLBP-X Opt-W (§VII-A). A figure takes the same decisions from its row's
/// LLBP-X cell instead ([`llbpx_opt_w_after`]).
pub fn opt_w_oracle(spec: &WorkloadSpec, sim: &Simulation) -> HashMap<u64, bool> {
    let llbpx = sim.run(&mut Llbp::new(LlbpConfig::llbpx()), spec);
    llbpx
        .deep_contexts
        .unwrap_or_default()
        .into_iter()
        .map(|cid| (cid, true))
        .collect()
}

/// LLBP-X with a fixed depth oracle (no retraining loss on transitions):
/// the contexts `oracle` maps to `true` are deep, every other is shallow.
pub fn llbpx_opt_w(oracle: HashMap<u64, bool>) -> Box<dyn SimPredictor> {
    opt_w(
        oracle
            .into_iter()
            .filter_map(|(cid, deep)| deep.then_some(cid)),
    )
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
        panic!(
            "Opt-W needs an LLBP-X run's depth decisions; `{}` made none",
            llbpx.name
        );
    };
    opt_w(deep.iter().copied())
}

fn opt_w(deep_contexts: impl IntoIterator<Item = u64>) -> Box<dyn SimPredictor> {
    let cfg = LlbpConfig {
        label: "LLBP-X Opt-W".to_owned(),
        ..LlbpConfig::llbpx()
    };
    Box::new(Llbp::with_oracle(cfg, deep_contexts))
}

/// One experiment binary's invocation: the protocol, the clock, the run
/// record and the engine bookkeeping of every grid it runs.
///
/// Construct it once at the top of `main` with the binary's name and the
/// paper result it reproduces, run every simulation through
/// [`run_rows`](Figure::run_rows) or
/// [`run_analyses`](Figure::run_analyses), and end `main` with
/// [`finish`](Figure::finish), which prints the footer and returns the exit
/// code.
///
/// With `--json <path>` or `LLBPX_TELEMETRY=1`, every run is recorded and
/// one JSON line is appended to the sink (default `BENCH_<name>.json`)
/// when the `Figure` drops, so a panic in `main` still writes it. Without
/// either, nothing is recorded and nothing is written.
pub struct Figure {
    name: &'static str,
    paper_ref: &'static str,
    sim: Simulation,
    started: Instant,
    sink: Option<PathBuf>,
    runs: Vec<Json>,
    extra: Vec<(String, Json)>,
    /// Workers the last engine call used; `None` until one runs.
    threads: Option<usize>,
    failed: usize,
    resumed: usize,
}

impl Figure {
    /// The invocation of the binary `name`, which reproduces `paper_ref`:
    /// the protocol comes from `REPRO_WARMUP` / `REPRO_INSTRUCTIONS`, the
    /// record sink from `--json <path>` / `LLBPX_TELEMETRY`, and the wall
    /// clock starts now.
    pub fn new(name: &'static str, paper_ref: &'static str) -> Self {
        Figure {
            name,
            paper_ref,
            sim: Simulation::from_env(),
            started: Instant::now(),
            sink: telemetry::record::sink_from_env(name),
            runs: Vec::new(),
            extra: Vec::new(),
            threads: None,
            failed: 0,
            resumed: 0,
        }
    }

    /// The simulation protocol of this invocation.
    pub fn sim(&self) -> &Simulation {
        &self.sim
    }

    /// Attaches a top-level field to the record line (for data that is not
    /// a simulation run, e.g. table 2's storage budgets).
    pub fn set_extra(&mut self, key: &str, value: Json) {
        self.extra.push((key.to_owned(), value));
    }

    /// Runs every design on every preset through the parallel experiment
    /// engine ([`bpsim::exec::run_matrix`]), one grid row per preset, and
    /// returns one result row per preset: the runs in design order,
    /// bit-identical to running the same cells serially. A failed cell
    /// comes back as a failed [`RunResult`]; [`tabulate`] renders its row
    /// `n/a`.
    ///
    /// ```no_run
    /// fn main() -> std::process::ExitCode {
    ///     let mut fig = bench::Figure::new("demo", "Fig. 12");
    ///     let designs = [
    ///         bench::design("LLBP-X", bench::llbpx),
    ///         // Pass 1 of Opt-W is the row's own LLBP-X cell.
    ///         bench::design_after("LLBP-X Opt-W", "LLBP-X", bench::llbpx_opt_w_after),
    ///     ];
    ///     for (preset, runs) in fig.run_rows(bench::presets(), &designs) {
    ///         println!("{}: {:.3} vs {:.3}", preset.spec.name, runs[0].mpki(), runs[1].mpki());
    ///     }
    ///     fig.finish()
    /// }
    /// ```
    ///
    /// The engine's knobs (`LLBPX_THREADS`, `LLBPX_CHECKPOINT`, ...) apply.
    pub fn run_rows(
        &mut self,
        presets: Vec<Preset>,
        designs: &[Design],
    ) -> Vec<(Preset, Vec<RunResult>)> {
        let specs: Vec<WorkloadSpec> = presets.iter().map(|p| p.spec.clone()).collect();
        let rows = self.run_grid(&specs, designs, EngineOptions::from_env());
        presets.into_iter().zip(rows).collect()
    }

    /// Runs the context analyses (Figs. 6-9) of `spec` at each context
    /// depth of `depths` as one grid row, recording each underlying run;
    /// `None` for a failed cell, in depth order.
    ///
    /// The checkpoint journal stays off: a journal line does not hold the
    /// analysis data, so a restored cell could not be analyzed.
    /// `LLBPX_THREADS` and `LLBPX_FAULT_CELL` apply.
    pub fn run_analyses(
        &mut self,
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
        let rows = self.run_grid(std::slice::from_ref(spec), &designs, opts);
        rows.iter()
            .flatten()
            .map(ContextAnalysis::from_run)
            .collect()
    }

    /// Runs one grid and records it: every run on the record line, every
    /// failed cell on stderr and in [`finish`](Figure::finish)'s count.
    fn run_grid(
        &mut self,
        specs: &[WorkloadSpec],
        designs: &[Design],
        opts: EngineOptions,
    ) -> Vec<Vec<RunResult>> {
        let report = exec::run_matrix(&self.sim, specs, designs, opts);
        self.threads = Some(report.threads);
        self.failed += report.failed_cells();
        self.resumed += report.resumed_cells();
        for run in report.rows.iter().flatten() {
            if let Some(error) = &run.error {
                eprintln!("error: {error}");
            }
            self.record_run(run);
        }
        report.rows
    }

    /// Adds `result`'s run record ([`RunResult::to_json`]) plus its CPI on
    /// the paper's core to the record line.
    fn record_run(&mut self, result: &RunResult) {
        if self.sink.is_none() {
            return;
        }
        let mut rec = result.to_json(&self.sim);
        // A failed cell ran zero instructions; its CPI is meaningless.
        if !result.is_failed() {
            let core = CoreParams::paper_table2();
            rec = rec.set("cpi", core.cpi(result.instructions, result.mispredicts, 0));
        }
        self.runs.push(rec);
    }

    /// Prints the footer and returns `main`'s exit code.
    ///
    /// The footer is the protocol, the engine line (the workers the last
    /// engine call used and the elapsed wall time) and the paper
    /// reference; a binary that never ran the engine prints the reference
    /// alone. The exit code is a failure, with a stderr summary, when any
    /// cell failed: failed cells render as `n/a` rows, so one bad cell
    /// never hides the rest of a figure, but it must not exit 0 either.
    pub fn finish(self) -> ExitCode {
        println!();
        if let Some(threads) = self.threads {
            println!(
                "protocol: {}M warmup + {}M measured instructions per run \
                 (REPRO_WARMUP / REPRO_INSTRUCTIONS to rescale)",
                self.sim.warmup_instructions / 1_000_000,
                self.sim.measure_instructions / 1_000_000
            );
            println!(
                "engine: {threads} thread(s) (LLBPX_THREADS), {:.2}s total wall time",
                self.started.elapsed().as_secs_f64()
            );
        }
        // Stderr, not stdout: a resumed run's tables must stay
        // byte-identical to an uninterrupted run's.
        if self.resumed > 0 {
            eprintln!(
                "checkpoint: {} cell(s) restored from the LLBPX_CHECKPOINT journal",
                self.resumed
            );
        }
        println!("paper reference: {}", self.paper_ref);
        if self.failed == 0 {
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "error: {} matrix cell(s) failed; see the n/a rows above",
                self.failed
            );
            ExitCode::FAILURE
        }
    }
}

impl Drop for Figure {
    /// Appends the record line to the sink, if there is one.
    fn drop(&mut self) {
        let Some(sink) = &self.sink else { return };
        let run_count = self.runs.len();
        // Elapsed (coordinator) time of the whole invocation — unlike the
        // per-run `wall_seconds`, this does not multiply under concurrency,
        // so threads=1 vs threads=N lines diff into a speedup directly.
        let threads = self.threads.unwrap_or_else(exec::threads_from_env);
        let mut line = Json::obj()
            .set("schema", telemetry::record::SCHEMA)
            .set("bench", self.name)
            .set("total_wall_seconds", self.started.elapsed().as_secs_f64())
            .set("runs", Json::Arr(std::mem::take(&mut self.runs)))
            .set("threads", threads as u64);
        if self.failed > 0 {
            line = line.set("failed_cells", self.failed as u64);
        }
        if self.resumed > 0 {
            line = line.set("resumed_cells", self.resumed as u64);
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
    rows.iter()
        .map(|(_, runs)| runs.as_slice())
        .filter(complete)
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
        assert_eq!(
            names(" tpcc , NODEAPP,TPCC"),
            both,
            "table order, no duplicates"
        );
        assert_eq!(
            names("NodeApp,TPPC"),
            None,
            "one unknown name rejects the value"
        );
        assert_eq!(names(""), None, "an empty list is rejected");
        assert_eq!(names("NodeApp,"), None, "an empty name is rejected");
        assert!(
            WORKLOADS.resolve(None, || None).is_none(),
            "unset selects nothing"
        );
    }

    #[test]
    fn representative_subset_is_a_subset() {
        let rep = representative_presets();
        assert!(rep.len() <= presets().len());
        assert!(rep.iter().any(|p| p.spec.name == "NodeApp"));
    }

    #[test]
    fn engine_threads_land_on_the_record_line() {
        let sink =
            std::env::temp_dir().join(format!("llbpx-bench-engine-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&sink);
        let mut fig = Figure::new("engine-test", "none");
        fig.sink = Some(sink.clone());
        fig.sim = Simulation {
            warmup_instructions: 1_000,
            measure_instructions: 2_000,
        };
        let spec = WorkloadSpec::new("tiny", 2)
            .with_request_types(64)
            .with_handlers(8);
        let specs = [spec.clone(), spec.clone(), spec];
        let designs = [design("64K TSL", tsl64)];
        fig.run_grid(&specs, &designs, EngineOptions::basic(3));
        fig.run_grid(&specs[..2], &designs, EngineOptions::basic(3));
        assert_eq!(fig.threads, Some(2), "two cells keep two workers busy");
        drop(fig);

        let text = std::fs::read_to_string(&sink).expect("the record was written");
        let _ = std::fs::remove_file(&sink);
        let line = Json::parse(text.trim()).expect("one JSON line");
        assert_eq!(
            line.get("threads").and_then(Json::as_i64),
            Some(2),
            "the last grid's"
        );
        let runs = line.get("runs").and_then(Json::as_arr).map(<[Json]>::len);
        assert_eq!(runs, Some(5), "every run of both grids");
    }

    #[test]
    fn oracle_helper_produces_decisions() {
        let spec = WorkloadSpec::new("tiny", 2)
            .with_request_types(64)
            .with_handlers(8);
        let sim = Simulation {
            warmup_instructions: 50_000,
            measure_instructions: 100_000,
        };
        let llbpx_run = sim.run(llbpx().as_mut(), &spec);
        let deep = llbpx_run
            .deep_contexts
            .clone()
            .expect("LLBP-X decides depths");
        let oracle = opt_w_oracle(&spec, &sim);
        assert!(
            oracle.values().all(|&d| d),
            "the oracle lists deep contexts only"
        );
        let mut listed: Vec<u64> = oracle.keys().copied().collect();
        listed.sort_unstable();
        assert_eq!(listed, deep, "the oracle is the run's deep-context list");
        let from_map = sim.run(llbpx_opt_w(oracle).as_mut(), &spec);
        let from_run = sim.run(llbpx_opt_w_after(&llbpx_run).as_mut(), &spec);
        assert_eq!(from_map.mispredicts, from_run.mispredicts);
        assert!(
            from_run.deep_contexts.is_none(),
            "an oracle run decides no depths"
        );
    }

    #[test]
    #[should_panic(expected = "`LLBP` made none")]
    fn opt_w_needs_a_depth_adapting_source_run() {
        let _ = llbpx_opt_w_after(&RunResult {
            name: "LLBP".into(),
            ..RunResult::default()
        });
    }
}
