//! Fig. 13 (execution-driven variant): speedup over 64K TSL on the
//! cycle-level frontend/pipeline model (BTB + RAS + block-based fetch),
//! cross-checking the analytical `fig13` numbers.
//!
//! Unlike `fig13`, the predictor here interacts with the frontend: fetch
//! blocks end at taken branches, BTB misses redirect, and direction
//! mispredictions resteer — the closest this reproduction gets to the
//! paper's gem5 runs.

use std::process::ExitCode;

use bpsim::exec;
use bpsim::report::{f3, fmt_or_na, geomean, Table};
use bpsim::Simulation;
use pipeline::{PipelineModel, PipelineParams};
use traces::BranchStream;
use workloads::ServerWorkload;

fn run(
    sim: Simulation,
    design: &mut Box<dyn bpsim::SimPredictor>,
    spec: &workloads::WorkloadSpec,
) -> pipeline::PipelineResult {
    let budget = sim.warmup_instructions + sim.measure_instructions;
    let mut model = PipelineModel::new(PipelineParams::paper_table2());
    // Bound the stream by the instruction budget.
    struct Budget<S> {
        inner: S,
        left: i64,
    }
    impl<S: BranchStream> BranchStream for Budget<S> {
        fn next_branch(&mut self) -> Option<traces::BranchRecord> {
            if self.left <= 0 {
                return None;
            }
            let rec = self.inner.next_branch()?;
            self.left -= rec.instructions() as i64;
            Some(rec)
        }
    }
    let stream = Budget {
        inner: ServerWorkload::new(spec),
        left: budget as i64,
    };
    model.run(design.as_mut(), stream)
}

fn main() -> ExitCode {
    let mut fig = bench::Figure::new(
        "fig13p",
        "Fig. 13 (\u{a7}VII-B), execution-driven cross-check: LLBP-X 1% avg \
         (0.08-2.7%), LLBP 0.71%, ideal 512K TSL 2.4%",
    );
    let sim = *fig.sim();
    let mut table = Table::new(
        "Fig. 13 (execution-driven) — speedup over 64K TSL, pipeline model",
        &["workload", "64K IPC", "LLBP", "LLBP-X", "512K TSL (ideal)"],
    );
    let presets = bench::presets_where(|p| p.in_gem5_eval);
    // The pipeline model sits outside the runner, so fan out over the raw
    // job API rather than the run matrix.
    let factories: [fn() -> Box<dyn bpsim::SimPredictor>; 4] =
        [bench::tsl64, bench::llbp, bench::llbpx, || bench::tsl(512)];
    let mut jobs: Vec<exec::BoxedJob<'static, pipeline::PipelineResult>> = Vec::new();
    for preset in &presets {
        for factory in factories {
            let spec = preset.spec.clone();
            jobs.push(Box::new(move || run(sim, &mut factory(), &spec)));
        }
    }
    let mut results = fig.run_jobs(jobs).into_iter();

    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for preset in &presets {
        let base = results.next().expect("one result per job");
        let mut cells = vec![preset.spec.name.clone(), f3(base.ipc())];
        for speedup_col in &mut speedups {
            let r = results.next().expect("one result per job");
            let s = r.speedup_over(&base);
            speedup_col.push(s);
            cells.push(f3(s));
        }
        table.row(cells);
    }
    let mut avg = vec!["geomean".into(), "-".into()];
    for s in &speedups {
        avg.push(f3(geomean(s.iter().copied())));
    }
    table.row(avg);
    print!("{}", table.render());

    // The pipeline model produces IPC speedups rather than run records;
    // attach the summary to the record line directly.
    for (i, label) in ["llbp", "llbpx", "tsl512"].iter().enumerate() {
        fig.set_extra(
            &format!("geomean_speedup_{label}"),
            telemetry::Json::from(geomean(speedups[i].iter().copied())),
        );
    }

    let g = |i: usize| {
        fmt_or_na(geomean(speedups[i].iter().copied()), |g| {
            format!("{:+.2}%", (g - 1.0) * 100.0)
        })
    };
    println!(
        "\naverage speedup: LLBP {}, LLBP-X {}, 512K TSL {}",
        g(0),
        g(1),
        g(2)
    );
    fig.finish()
}
