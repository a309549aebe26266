//! §VII-F: sensitivity of LLBP-X to the H_th threshold and the CTT size.

use std::process::ExitCode;

use bpsim::report::{pct, Table};
use llbpx::LlbpConfig;

/// Runs one sweep whose first design is the 64K TSL baseline and prints
/// its table: each configuration's MPKI reduction, then the geomean row.
fn sweep(fig: &mut bench::Figure, title: &str, columns: &[String], designs: &[bench::Design]) {
    let mut header = vec!["workload"];
    header.extend(columns.iter().map(String::as_str));
    let mut table = Table::new(title, &header);
    let rows = fig.run_rows(bench::representative_presets(), designs);
    bench::tabulate(&mut table, &rows, |_, runs| {
        (1..designs.len())
            .map(|i| pct(1.0 - bench::mpki_ratio(runs, i)))
            .collect()
    });
    let mut avg = vec!["geomean".to_string()];
    avg.extend((1..designs.len()).map(|i| pct(bench::geomean_ratio(&rows, i).map(|g| 1.0 - g))));
    table.row(avg);
    print!("{}", table.render());
}

fn main() -> ExitCode {
    let mut fig = bench::Figure::new(
        "sensitivity",
        "\u{a7}VII-F: best H_th = 232 (13.6% vs 12.2% at 1444); CTT saturates \
         at 6K entries (13.6% vs 12.8% at 4K)",
    );
    let baseline = || bench::design("64K TSL", bench::tsl64);

    // --- H_th sweep (must be TAGE history lengths) ---------------------
    let h_ths = [37usize, 112, 232, 522, 1444];
    let mut designs = vec![baseline()];
    designs.extend(h_ths.map(|h| {
        bench::design(format!("LLBP-X H_th={h}"), move || {
            bench::llbp_with(LlbpConfig::llbpx().with_h_th(h))
        })
    }));
    sweep(
        &mut fig,
        "\u{a7}VII-F — H_th sweep: MPKI reduction over 64K TSL",
        &h_ths.map(|h| format!("H_th={h}")),
        &designs,
    );

    // --- CTT size sweep -------------------------------------------------
    let ctt_sizes = [4096usize, 6144, 8192];
    let mut designs = vec![baseline()];
    designs.extend(ctt_sizes.map(|entries| {
        bench::design(format!("LLBP-X CTT={entries}"), move || {
            bench::llbp_with(LlbpConfig::llbpx().with_ctt_entries(entries))
        })
    }));
    sweep(
        &mut fig,
        "\u{a7}VII-F — CTT capacity sweep: MPKI reduction over 64K TSL",
        &ctt_sizes.map(|e| format!("CTT {}K", e / 1024)),
        &designs,
    );

    fig.finish()
}
