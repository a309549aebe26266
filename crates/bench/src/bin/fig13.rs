//! Fig. 13: speedup over 64K TSL for LLBP, LLBP-X and the ideal 512K TSL,
//! on the analytical Table II core (the gem5 stand-in).
//!
//! As in the paper, the four Google traces are excluded from the
//! performance evaluation (their gem5 runs are impossible; here we simply
//! honor the same subset).
//!
//! The grid is [`bench::fig13_designs`], behind the frontend observer, so
//! `fig13p` prices the same cells on the frontend cycle model and a
//! journal of either binary restores the other's cells.

use std::process::ExitCode;

use bpsim::report::{f3, fmt_or_na, geomean, Table};
use bpsim::{CoreParams, RunResult};

fn main() -> ExitCode {
    let mut fig = bench::Figure::new(
        "fig13",
        "Fig. 13 (\u{a7}VII-B): LLBP-X 1% avg speedup (0.08-2.7%), LLBP 0.71%, \
         ideal 512K TSL 2.4%",
    );
    let core = CoreParams::paper_table2();
    let mut table = Table::new(
        "Fig. 13 — speedup over 64K TSL (8-wide OoO model)",
        &["workload", "LLBP", "LLBP-X", "512K TSL (ideal)"],
    );
    // Google traces: trace-only, as in the paper.
    let presets = bench::presets_where(|p| p.in_gem5_eval);
    let designs = bench::fig13_designs();
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

    let g = |i| geo(i).map(|g| (g - 1.0) * 100.0);
    let gain = |i| fmt_or_na(g(i), |g| format!("{g:+.2}%"));
    println!(
        "\naverage speedup: LLBP {}, LLBP-X {}, 512K TSL {}",
        gain(1),
        gain(2),
        gain(3)
    );
    match g(2).zip(g(3)) {
        Some((x, ideal)) if ideal > 0.0 => println!(
            "LLBP-X captures {:.0}% of the ideal 512K gain (paper: 42%)",
            100.0 * x / ideal
        ),
        Some(_) => {}
        None => println!("LLBP-X captures n/a of the ideal 512K gain (paper: 42%)"),
    }
    fig.finish()
}
