//! Fig. 16a: LLBP-X pattern-store capacity sensitivity — MPKI reduction
//! over 64K TSL when sweeping from 8K to 128K contexts (0-latency model,
//! as in the paper's §VII-G).

use std::process::ExitCode;

use bpsim::report::{pct, Table};
use llbpx::LlbpConfig;

fn main() -> ExitCode {
    let mut fig = bench::Figure::new(
        "fig16a",
        "Fig. 16a (\u{a7}VII-G): MPKI reduction grows from 10.5% (8K contexts) \
         to 17.6% (128K contexts)",
    );
    // Contexts = 2^log2_sets × 7 ways. The paper sweeps 8K..128K around
    // the 14K baseline; our synthetic context working set saturates around
    // ~14K contexts, so the sweep extends further down instead to expose
    // the capacity knee (see EXPERIMENTS.md).
    let sweeps: &[(u32, &str)] = &[
        (7, "0.9K"),
        (8, "1.8K"),
        (9, "3.6K"),
        (11, "14K (base)"),
        (14, "114K"),
    ];
    let presets = bench::representative_presets();

    let mut header = vec!["workload".to_string()];
    header.extend(sweeps.iter().map(|(_, n)| format!("{n} ctx")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "Fig. 16a — MPKI reduction over 64K TSL vs pattern-store contexts",
        &header_refs,
    );

    let mut designs = vec![bench::design("64K TSL", bench::tsl64)];
    for &(cd_log2_sets, _) in sweeps {
        designs.push(bench::design(
            format!("LLBP-X CD 2^{cd_log2_sets}"),
            move || {
                bench::llbp_with(LlbpConfig {
                    cd_log2_sets,
                    ..LlbpConfig::llbpx_zero_latency()
                })
            },
        ));
    }
    let rows = fig.run_rows(presets, &designs);
    bench::tabulate(&mut table, &rows, |_, runs| {
        (1..designs.len())
            .map(|i| pct(1.0 - bench::mpki_ratio(runs, i)))
            .collect()
    });
    let mut avg = vec!["geomean".to_string()];
    avg.extend((1..designs.len()).map(|i| pct(bench::geomean_ratio(&rows, i).map(|g| 1.0 - g))));
    table.row(avg);
    print!("{}", table.render());
    fig.finish()
}
