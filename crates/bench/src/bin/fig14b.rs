//! Fig. 14b: LLBP-X vs a 128K TSL under an overriding pipeline.
//!
//! Both configurations pay a 3-cycle bubble whenever the slow component
//! (TAGE/SC) overturns the 1-cycle first guess (bimodal + LLBP's pattern
//! buffer). LLBP-X's PB answers in the first cycle, so its provided
//! predictions never pay the bubble — the structural advantage §VII-C
//! describes.

use std::process::ExitCode;

use bpsim::report::{f3, fmt_or_na, geomean, Table};
use bpsim::{CoreParams, RunResult};

fn main() -> ExitCode {
    let mut fig = bench::Figure::new(
        "fig14b",
        "Fig. 14b (\u{a7}VII-C): with overriding, 128K TSL gains 0.6% while \
         LLBP-X gains 1.4% over 64K TSL",
    );
    let core = CoreParams::paper_table2_overriding();
    let mut table = Table::new(
        "Fig. 14b — speedup over 64K TSL in a 3-cycle overriding scheme",
        &["workload", "128K TSL", "LLBP-X"],
    );
    let presets = bench::presets_where(|p| p.in_gem5_eval);
    let designs = [
        bench::design("64K TSL", bench::tsl64),
        bench::design("128K TSL", || bench::tsl(128)),
        bench::design("LLBP-X", bench::llbpx),
    ];
    let rows = fig.run_rows(presets, &designs);
    let speedup = |runs: &[RunResult], i: usize| core.speedup(&runs[0], &runs[i]);
    bench::tabulate(&mut table, &rows, |_, runs| {
        (1..designs.len()).map(|i| f3(speedup(runs, i))).collect()
    });
    let geo = |i| geomean(bench::completed(&rows).map(|runs| speedup(runs, i)));
    let mut avg = vec!["geomean".into()];
    avg.extend((1..designs.len()).map(|i| f3(geo(i))));
    table.row(avg);
    print!("{}", table.render());

    let gain = |i| fmt_or_na(geo(i), |g| format!("{:+.2}%", (g - 1.0) * 100.0));
    println!(
        "\naverage speedup: 128K TSL {}, LLBP-X {}",
        gain(1),
        gain(2)
    );
    fig.finish()
}
