//! Fig. 16b: baseline TAGE size sensitivity — LLBP-X's MPKI reduction
//! relative to the *corresponding* baseline TSL, sweeping the TAGE from
//! 8K to 64K entries-per-table equivalents (§VII-G).

use std::process::ExitCode;

use bpsim::report::{geomean, pct, Table};
use bpsim::RunResult;
use llbpx::LlbpConfig;
use tage::TslConfig;

fn main() -> ExitCode {
    let mut fig = bench::Figure::new(
        "fig16b",
        "Fig. 16b (\u{a7}VII-G): LLBP-X stays effective over smaller baselines \
         (2.6% reduction even with a 4x smaller 16K TSL)",
    );
    let sizes: &[u32] = &[8, 16, 32, 64];
    let presets = bench::representative_presets();

    let mut header = vec!["workload".to_string()];
    header.extend(sizes.iter().map(|kb| format!("{kb}K TSL base")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "Fig. 16b — LLBP-X MPKI reduction vs its own baseline TSL size",
        &header_refs,
    );

    // Each size is a pair of designs: the baseline TSL, then LLBP-X on it.
    let mut designs = Vec::new();
    for &kb in sizes {
        designs.push(bench::design(format!("{kb}K TSL"), move || bench::tsl(kb)));
        designs.push(bench::design(format!("LLBP-X {kb}K"), move || {
            let tsl = TslConfig::kilobytes(kb);
            bench::llbp_with(LlbpConfig {
                tsl,
                ..LlbpConfig::llbpx_zero_latency()
            })
        }));
    }
    let rows = fig.run_rows(presets, &designs);
    let ratio = |runs: &[RunResult], size: usize| bench::mpki_ratio(&runs[2 * size..], 1);
    bench::tabulate(&mut table, &rows, |_, runs| {
        (0..sizes.len())
            .map(|size| pct(1.0 - ratio(runs, size)))
            .collect()
    });
    let geo = |size| geomean(bench::completed(&rows).map(|runs| ratio(runs, size)));
    let mut avg = vec!["geomean".to_string()];
    avg.extend((0..sizes.len()).map(|size| pct(geo(size).map(|g| 1.0 - g))));
    table.row(avg);
    print!("{}", table.render());
    fig.finish()
}
