//! Fig. 13 (frontend cycle model): speedup over 64K TSL on a trace-driven
//! model of the Table II frontend (BTB + RAS + block-based fetch),
//! cross-checking the analytical `fig13` numbers.
//!
//! It runs `fig13`'s grid ([`bench::fig13_designs`]) and prices each run
//! with [`bpsim::timing::frontend_cycles`] instead of the analytical core:
//! fetch blocks end at taken branches and mispredictions, BTB and RAS
//! misses redirect, and direction mispredictions resteer. The frontend
//! observes the predictor's outcomes but never feeds back into it, and it
//! counts the measured window only, like every other figure.

use std::process::ExitCode;

use bpsim::report::{f3, fmt_or_na, geomean, Table};
use bpsim::timing::frontend_cycles;
use bpsim::RunResult;

/// Cycles per instruction of an observed run on the frontend model.
fn cpi(run: &RunResult) -> f64 {
    let Some(frontend) = &run.frontend else {
        panic!("`{}` ran without the frontend observer", run.name);
    };
    frontend_cycles(run.instructions, run.mispredicts, frontend) as f64
        / run.instructions.max(1) as f64
}

fn main() -> ExitCode {
    let mut fig = bench::Figure::new(
        "fig13p",
        "Fig. 13 (\u{a7}VII-B), frontend-cycle-model cross-check: LLBP-X 1% avg \
         (0.08-2.7%), LLBP 0.71%, ideal 512K TSL 2.4%",
    );
    let mut table = Table::new(
        "Fig. 13 (frontend cycle model) — speedup over 64K TSL",
        &["workload", "64K IPC", "LLBP", "LLBP-X", "512K TSL (ideal)"],
    );
    let presets = bench::presets_where(|p| p.in_gem5_eval);
    let designs = bench::fig13_designs();
    let rows = fig.run_rows(presets, &designs);
    let speedup = |runs: &[RunResult], i: usize| cpi(&runs[0]) / cpi(&runs[i]);
    bench::tabulate(&mut table, &rows, |_, runs| {
        let mut cells = vec![f3(1.0 / cpi(&runs[0]))];
        cells.extend((1..designs.len()).map(|i| f3(speedup(runs, i))));
        cells
    });
    let geo = |i| geomean(bench::completed(&rows).map(|runs| speedup(runs, i)));
    let mut avg = vec!["geomean".into(), "-".into()];
    avg.extend((1..designs.len()).map(|i| f3(geo(i))));
    table.row(avg);
    print!("{}", table.render());

    let gain = |i| fmt_or_na(geo(i), |g| format!("{:+.2}%", (g - 1.0) * 100.0));
    println!(
        "\naverage speedup: LLBP {}, LLBP-X {}, 512K TSL {}",
        gain(1),
        gain(2),
        gain(3)
    );
    fig.finish()
}
