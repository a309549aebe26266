//! Table I: the fourteen workloads with their 64K TSL branch MPKI.
//!
//! Regenerates the paper's Table I (absolute MPKI of the baseline 64 KiB
//! TAGE-SC-L on every workload; paper range 0.26-5.38, average 2.92).

use std::process::ExitCode;

use bpsim::report::{f3, mean, Table};

fn main() -> ExitCode {
    let mut fig = bench::Figure::new(
        "table1",
        "Table I (\u{a7}VI): absolute MPKI 0.26-5.38, avg 2.92",
    );
    let mut table = Table::new(
        "Table I — workloads with branch MPKI for 64K TSL",
        &["workload", "measured MPKI", "paper MPKI"],
    );
    let designs = [bench::design("64K TSL", bench::tsl64)];
    let rows = fig.run_rows(bench::presets(), &designs);
    bench::tabulate(&mut table, &rows, |preset, runs| {
        vec![f3(runs[0].mpki()), f3(preset.paper_mpki)]
    });
    let measured = mean(bench::completed(&rows).map(|runs| runs[0].mpki()));
    table.row(["average".into(), f3(measured), "2.92".into()]);
    print!("{}", table.render());
    fig.finish()
}
