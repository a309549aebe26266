//! Fig. 15b: energy of LLBP-X relative to LLBP (CACTI-like model).
//!
//! Per the paper's method: access energy per structure weighted by access
//! frequency — PB every prediction, CD/CTT per unconditional branch,
//! pattern store per 288-bit transaction.

use std::process::ExitCode;

use bpsim::energy::EnergyModel;
use bpsim::report::{mean, pct, Table};
use bpsim::RunResult;
use llbpx::LlbpStats;

fn stats(run: &RunResult) -> &LlbpStats {
    run.llbp.as_ref().expect("LLBP stats")
}

fn main() -> ExitCode {
    let mut fig = bench::Figure::new(
        "fig15b",
        "Fig. 15b (\u{a7}VII-D): LLBP-X saves 5.4% pattern-store access energy, \
         the CTT adds 5.2%, net +1.5% over LLBP",
    );
    let mut table = Table::new(
        "Fig. 15b — LLBP-X energy relative to LLBP",
        &["workload", "PS energy", "CTT energy", "total"],
    );
    let designs = [
        bench::design("LLBP", bench::llbp),
        bench::design("LLBP-X", bench::llbpx),
    ];
    let rows = fig.run_rows(bench::presets(), &designs);
    let (llbp_model, x_model) = (EnergyModel::llbp(), EnergyModel::llbpx());
    let relative_total =
        |runs: &[RunResult]| x_model.total(stats(&runs[1])) / llbp_model.total(stats(&runs[0]));
    bench::tabulate(&mut table, &rows, |_, runs| {
        let (sl, sx) = (stats(&runs[0]), stats(&runs[1]));
        let (_, _, base_ps, _) = llbp_model.breakdown(sl);
        let (_, _, x_ps, x_ctt) = x_model.breakdown(sx);
        vec![
            pct(x_ps / base_ps - 1.0),
            pct(x_ctt / llbp_model.total(sl)),
            pct(relative_total(runs) - 1.0),
        ]
    });
    print!("{}", table.render());

    let avg = mean(bench::completed(&rows).map(relative_total));
    println!(
        "\naverage LLBP-X energy vs LLBP: {}",
        pct(avg.map(|avg| avg - 1.0))
    );
    fig.finish()
}
