//! Fig. 7: average history length of useful patterns per context, with
//! contexts in the same (descending useful-pattern) order as Fig. 6.
//!
//! The paper's hypothesis check: the most-contended contexts hold the
//! longest-history patterns (avg up to 112 bits on the left, ~17 on the
//! right of the sorted axis).

use std::process::ExitCode;

use bpsim::report::{f3, mean, Table};

fn main() -> ExitCode {
    let mut fig = bench::Figure::new(
        "fig07",
        "Fig. 7 (\u{a7}III-B): contexts with the most useful patterns hold the \
         longest-history patterns",
    );
    let preset = bench::analysis_preset();
    let analysis = fig.run_analyses(&preset.spec, &[8]).remove(0);

    let mut table = Table::new(
        format!(
            "Fig. 7 — avg history length per context, {} (Fig. 6 order)",
            preset.spec.name
        ),
        &["context rank", "useful patterns", "avg history (bits)"],
    );
    let Some(analysis) = analysis else {
        table.na_row(preset.spec.name.as_str());
        print!("{}", table.render());
        println!("\navg history length, most-contended decile: n/a");
        return fig.finish();
    };
    let n = analysis.contexts.len();
    let mut rank = 1usize;
    while rank <= n {
        let c = &analysis.contexts[rank - 1];
        table.row([
            format!("{rank}"),
            format!("{}", c.useful_patterns),
            f3(c.avg_history_len),
        ]);
        rank *= 2;
    }
    print!("{}", table.render());

    // The load-bearing comparison: top decile vs bottom decile.
    // Fewer than ten contexts leave both deciles empty.
    let decile = n / 10;
    let top = mean(
        analysis.contexts[..decile]
            .iter()
            .map(|c| c.avg_history_len),
    );
    let bottom = mean(
        analysis.contexts[n - decile..]
            .iter()
            .map(|c| c.avg_history_len),
    );
    if let Some((top, bottom)) = top.zip(bottom) {
        println!("\navg history length, most-contended decile: {top:.0} bits");
        println!("avg history length, least-contended decile: {bottom:.0} bits");
        println!(
            "ratio: {:.1}x (paper: up to 112 vs ~17 bits)",
            if bottom > 0.0 {
                top / bottom
            } else {
                f64::INFINITY
            }
        );
    }
    fig.finish()
}
