//! Fig. 9: useful predictions per history length for W=2 and W=64,
//! relative to the W=8 LLBP baseline (NodeApp).
//!
//! The motivating result for dynamic context depth adaptation: shallow
//! contexts win on short history lengths (less duplication), deep contexts
//! win on long history lengths (better spreading).

use std::process::ExitCode;

use bpsim::analysis::{len_label, useful_change_by_len};
use bpsim::report::{pct, Table};
use tage::NUM_TABLES;

fn main() -> ExitCode {
    let mut fig = bench::Figure::new(
        "fig09",
        "Fig. 9 (\u{a7}IV): short lengths gain 63-213% with W=2; long lengths \
         gain 4.2-95% with W=64 and lose 49-74% with W=2",
    );
    let preset = bench::analysis_preset();

    let analyses = fig.run_analyses(&preset.spec, &[8, 2, 64]);
    let mut table = Table::new(
        format!(
            "Fig. 9 — useful predictions vs W=8 baseline, {}",
            preset.spec.name
        ),
        &["history length", "useful @W=8", "W=2", "W=64"],
    );
    let [Some(base), Some(shallow), Some(deep)] = analyses.as_slice() else {
        table.na_row(preset.spec.name.as_str());
        print!("{}", table.render());
        println!("\naggregate useful predictions vs W=8: n/a");
        return fig.finish();
    };
    let d_shallow = useful_change_by_len(base, shallow);
    let d_deep = useful_change_by_len(base, deep);

    for len_idx in 0..NUM_TABLES {
        if base.useful_by_len[len_idx] == 0 {
            continue;
        }
        table.row([
            len_label(len_idx),
            format!("{}", base.useful_by_len[len_idx]),
            d_shallow[len_idx].map_or("-".into(), pct),
            d_deep[len_idx].map_or("-".into(), pct),
        ]);
    }
    print!("{}", table.render());

    let agg = |a: &bpsim::analysis::ContextAnalysis, range: std::ops::Range<usize>| -> u64 {
        a.useful_by_len[range].iter().sum()
    };
    let short = 0..10; // lengths 6..=78
    let long = 16..NUM_TABLES; // lengths 348..=3000
    println!("\naggregate useful predictions vs W=8:");
    println!(
        "  short lengths: W=2 {}, W=64 {}",
        pct(agg(shallow, short.clone()) as f64 / agg(base, short.clone()).max(1) as f64 - 1.0),
        pct(agg(deep, short.clone()) as f64 / agg(base, short).max(1) as f64 - 1.0),
    );
    println!(
        "  long lengths:  W=2 {}, W=64 {}",
        pct(agg(shallow, long.clone()) as f64 / agg(base, long.clone()).max(1) as f64 - 1.0),
        pct(agg(deep, long.clone()) as f64 / agg(base, long).max(1) as f64 - 1.0),
    );
    fig.finish()
}
