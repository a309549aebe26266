//! Fig. 8: pattern duplication as a function of history length, for
//! context depths W ∈ {2, 8, 64} (NodeApp).
//!
//! Duplication of a history length = total useful-pattern copies across
//! contexts / unique useful patterns. Short histories duplicate most, and
//! duplication grows with W (§III-C).

use std::process::ExitCode;

use bpsim::analysis::len_label;
use bpsim::report::{fmt_or_na, Table};
use tage::NUM_TABLES;

fn main() -> ExitCode {
    let mut fig = bench::Figure::new(
        "fig08",
        "Fig. 8 (\u{a7}III-C): short patterns duplicate most; duplication grows \
         with W (e.g. len 6: 8.5% @W=2, 10.1% @W=8, 17.2% @W=64)",
    );
    let preset = bench::analysis_preset();

    let depths = [2usize, 8, 64];
    // A failed cell's column renders `n/a`.
    let analyses = fig.run_analyses(&preset.spec, &depths);

    let mut table = Table::new(
        format!(
            "Fig. 8 — duplicates per unique useful pattern, {}",
            preset.spec.name
        ),
        &["history length", "W=2", "W=8", "W=64"],
    );
    for len_idx in 0..NUM_TABLES {
        let cells: Vec<String> = analyses
            .iter()
            .map(
                |a| match a.as_ref().map(|a| a.duplication_ratio()[len_idx]) {
                    Some(Some(r)) => format!("{r:.2}"),
                    Some(None) => "-".into(),
                    None => "n/a".into(),
                },
            )
            .collect();
        if cells.iter().all(|c| c == "-" || c == "n/a") {
            continue;
        }
        table.row([
            len_label(len_idx),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
        ]);
    }
    print!("{}", table.render());

    // Aggregate short-vs-long comparison per depth.
    println!("\naggregate duplication ratio (copies per unique pattern):");
    for (w, a) in depths.iter().zip(&analyses) {
        let Some(a) = a else {
            println!("  W={w:<3} n/a");
            continue;
        };
        // A range without a useful pattern has no ratio: `n/a`.
        let agg = |range: std::ops::Range<usize>| {
            let (t, u) = a.duplication[range]
                .iter()
                .fold((0u64, 0u64), |(t, u), &(tt, uu)| (t + tt, u + uu));
            let ratio = (u > 0).then(|| t as f64 / u as f64);
            fmt_or_na(ratio, |r| format!("{r:.3}"))
        };
        println!(
            "  W={w:<3} short lengths (6-78): {}   long lengths (93-3000): {}",
            agg(0..10),
            agg(10..NUM_TABLES)
        );
    }
    fig.finish()
}
