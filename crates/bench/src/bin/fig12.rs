//! Fig. 12: MPKI reduction over 64K TSL for LLBP, LLBP-X, LLBP-X Opt-W
//! and the idealized 512K TSL — the paper's headline accuracy result.

use std::process::ExitCode;

use bpsim::report::{f3, pct, Table};

fn main() -> ExitCode {
    let mut fig = bench::Figure::new(
        "fig12",
        "Fig. 12 (\u{a7}VII-A): LLBP-X reduces MPKI 1.4-27% (avg 12.1%), a 36% \
         improvement over LLBP (accuracy gain 0.8-11.5%, avg 3.6%); Opt-W \
         12.6%; 512K TSL 27.5%",
    );
    let mut table = Table::new(
        "Fig. 12 — branch misprediction reduction over 64K TSL",
        &[
            "workload",
            "64K MPKI",
            "LLBP",
            "LLBP-X",
            "LLBP-X Opt-W",
            "512K TSL",
        ],
    );
    // Opt-W is two-pass: pass 1 is the row's own LLBP-X cell, whose final
    // depth decisions become pass 2's fixed oracle. The engine runs the
    // Opt-W cell once that LLBP-X cell has finished.
    let designs = [
        bench::design("64K TSL", bench::tsl64),
        bench::design("LLBP", bench::llbp),
        bench::design("LLBP-X", bench::llbpx),
        bench::design_after("LLBP-X Opt-W", "LLBP-X", bench::llbpx_opt_w_after),
        bench::design("512K TSL", || bench::tsl(512)),
    ];
    let rows = fig.run_rows(bench::presets(), &designs);
    bench::tabulate(&mut table, &rows, |_, runs| {
        let reductions = (1..designs.len()).map(|i| pct(1.0 - bench::mpki_ratio(runs, i)));
        std::iter::once(f3(runs[0].mpki()))
            .chain(reductions)
            .collect()
    });
    let reduction = |i| bench::geomean_ratio(&rows, i).map(|g| 1.0 - g);
    let mut avg = vec!["geomean".into(), "-".into()];
    avg.extend((1..designs.len()).map(|i| pct(reduction(i))));
    table.row(avg);
    print!("{}", table.render());

    let (llbp, llbpx, optw) = (reduction(1), reduction(2), reduction(3));
    println!(
        "\nLLBP-X vs LLBP improvement: {}",
        pct(llbpx.zip(llbp).map(|(x, l)| x - l))
    );
    match llbpx.zip(optw) {
        Some((x, o)) if o > 0.0 => println!("LLBP-X achieves {:.0}% of Opt-W", 100.0 * x / o),
        Some(_) => {}
        None => println!("LLBP-X achieves n/a of Opt-W"),
    }
    fig.finish()
}
