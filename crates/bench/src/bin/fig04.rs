//! Fig. 4: branch MPKI of LLBP, LLBP-0Lat, 512K TSL and Inf TSL
//! normalized to the 64K TSL baseline.

use std::process::ExitCode;

use bpsim::report::{f3, pct, Table};

fn main() -> ExitCode {
    let mut fig = bench::Figure::new(
        "fig04",
        "Fig. 4 (\u{a7}II-C.5): LLBP reduces 0.6-25% (avg 8.8%), 512K TSL \
         12.7-46.1% (avg 27.5%), Inf TSL avg 32.5%",
    );
    let mut table = Table::new(
        "Fig. 4 — MPKI normalized to 64K TSL (lower is better)",
        &[
            "workload",
            "64K MPKI",
            "LLBP",
            "LLBP-0Lat",
            "512K TSL",
            "Inf TSL",
        ],
    );
    let designs = [
        bench::design("64K TSL", bench::tsl64),
        bench::design("LLBP", bench::llbp),
        bench::design("LLBP-0Lat", bench::llbp_0lat),
        bench::design("512K TSL", || bench::tsl(512)),
        bench::design("Inf TSL", bench::tsl_inf),
    ];
    let rows = fig.run_rows(bench::presets(), &designs);
    bench::tabulate(&mut table, &rows, |_, runs| {
        let ratios = (1..designs.len()).map(|i| f3(bench::mpki_ratio(runs, i)));
        std::iter::once(f3(runs[0].mpki())).chain(ratios).collect()
    });
    let mut avg = vec!["geomean".into(), "-".into()];
    avg.extend((1..designs.len()).map(|i| f3(bench::geomean_ratio(&rows, i))));
    table.row(avg);
    print!("{}", table.render());

    println!();
    for (i, name) in ["LLBP", "LLBP-0Lat", "512K TSL", "Inf TSL"]
        .iter()
        .enumerate()
    {
        let reduction = bench::geomean_ratio(&rows, i + 1).map(|g| 1.0 - g);
        println!("{name}: average MPKI reduction {}", pct(reduction));
    }
    fig.finish()
}
