//! §VII-E: optimization breakdown — how much of LLBP-X's gain over LLBP
//! comes from dynamic context depth adaptation vs history range selection.

use std::process::ExitCode;

use bpsim::report::{pct, Table};
use llbpx::LlbpConfig;

fn main() -> ExitCode {
    let mut fig = bench::Figure::new(
        "breakdown",
        "\u{a7}VII-E: depth adaptation contributes 82% of the gain over LLBP, \
         history range selection 18%",
    );
    let mut table = Table::new(
        "\u{a7}VII-E — optimization breakdown (MPKI reduction over LLBP)",
        &["workload", "depth adaptation only", "full LLBP-X"],
    );
    let designs = [
        bench::design("LLBP", bench::llbp),
        bench::design("LLBP-X no-HRS", || {
            bench::llbp_with(LlbpConfig::llbpx().without_history_range_selection())
        }),
        bench::design("LLBP-X", bench::llbpx),
    ];
    let rows = fig.run_rows(bench::presets(), &designs);
    bench::tabulate(&mut table, &rows, |_, runs| {
        (1..designs.len())
            .map(|i| pct(1.0 - bench::mpki_ratio(runs, i)))
            .collect()
    });
    let reduction = |i| bench::geomean_ratio(&rows, i).map(|g| 1.0 - g);
    let (depth, full) = (reduction(1), reduction(2));
    table.row(["geomean".into(), pct(depth), pct(full)]);
    print!("{}", table.render());

    match depth.zip(full) {
        Some((depth, full)) if full > 0.0 => println!(
            "\ncontribution: depth adaptation {:.0}%, history range selection {:.0}%",
            100.0 * depth / full,
            100.0 * (full - depth) / full
        ),
        Some(_) => {}
        None => println!("\ncontribution: depth adaptation n/a, history range selection n/a"),
    }
    fig.finish()
}
