//! Fig. 6: useful patterns per context (sorted descending) for NodeApp,
//! under the unlimited-patterns/contexts configuration.
//!
//! Prints the sorted distribution (log2-bucketed for readability) plus the
//! two headline statistics: the fraction of contexts exceeding the
//! 16-pattern set capacity (paper: 14%) and the fraction with ≤ 8 useful
//! patterns (paper: 68%).

use std::process::ExitCode;

use bpsim::report::{pct, Table};

fn main() -> ExitCode {
    let mut fig = bench::Figure::new(
        "fig06",
        "Fig. 6 (\u{a7}III-B): highly skewed useful-pattern distribution",
    );
    let preset = bench::analysis_preset();
    let analysis = fig.run_analyses(&preset.spec, &[8]).remove(0);

    let mut table = Table::new(
        format!(
            "Fig. 6 — useful patterns per context, {} (W=8)",
            preset.spec.name
        ),
        &["context rank", "useful patterns"],
    );
    let Some(analysis) = analysis else {
        table.na_row(preset.spec.name.as_str());
        print!("{}", table.render());
        println!("\ncontexts analyzed: n/a");
        return fig.finish();
    };
    // Log-spaced ranks, as the figure's log-scale axis suggests.
    let n = analysis.contexts.len();
    let mut rank = 1usize;
    while rank <= n {
        table.row([
            format!("{rank}"),
            format!("{}", analysis.contexts[rank - 1].useful_patterns),
        ]);
        rank *= 2;
    }
    if n > 0 {
        table.row([
            format!("{n}"),
            format!("{}", analysis.contexts[n - 1].useful_patterns),
        ]);
    }
    print!("{}", table.render());

    println!("\ncontexts analyzed: {n}");
    println!(
        "contexts exceeding the 16-pattern set: {} (paper: 14%)",
        pct(analysis.fraction_exceeding(16))
    );
    println!(
        "contexts with at most 8 useful patterns: {} (paper: 68%)",
        pct(analysis.fraction_at_most(8))
    );
    fig.finish()
}
