//! Fig. 14a: prefetch effectiveness of LLBP-X, with and without
//! false-path prefetches.
//!
//! Prefetches are classified at pattern-buffer eviction: *on time* (used,
//! arrived before first use), *late* (wanted before arrival), *unused*
//! (evicted without matching a prediction). The lower bar flushes
//! wrong-path-attributed prefetches on every misprediction.

use std::process::ExitCode;

use bpsim::report::{f3, fmt_or_na, mean, pct, Table};
use bpsim::RunResult;
use llbpx::{FalsePathMode, LlbpConfig};

fn main() -> ExitCode {
    let mut fig = bench::Figure::new(
        "fig14a",
        "Fig. 14a (\u{a7}VII-C): 84% of prefetches on time, ~40% over-prefetch; \
         omitting false-path prefetches cuts over-prefetch 56% but costs 8% \
         coverage and 1.4% accuracy",
    );
    let mut table = Table::new(
        "Fig. 14a — prefetch effectiveness (share of issued prefetches)",
        &["workload", "mode", "on-time", "late", "unused", "MPKI"],
    );
    let modes = [FalsePathMode::Include, FalsePathMode::Flush];
    let designs = modes.map(|mode| {
        bench::design(format!("LLBP-X {mode:?}"), move || {
            bench::llbp_with(LlbpConfig {
                false_path: mode,
                ..LlbpConfig::llbpx()
            })
        })
    });
    let rows = fig.run_rows(bench::presets(), &designs);

    // On-time, late and unused shares of the classified prefetches, and MPKI.
    let shares = |r: &RunResult| {
        let s = r.llbp.as_ref().expect("LLBP stats");
        let classified = (s.prefetch_on_time + s.prefetch_late + s.prefetch_unused).max(1) as f64;
        let share = |n: u64| n as f64 / classified;
        [
            share(s.prefetch_on_time),
            share(s.prefetch_late),
            share(s.prefetch_unused),
            r.mpki(),
        ]
    };
    // Each mode's row stands alone: a failed mode leaves the other's row.
    for (preset, runs) in &rows {
        for (mode, r) in modes.iter().zip(runs) {
            if r.is_failed() {
                table.na_row(format!("{} ({mode:?})", preset.spec.name));
                continue;
            }
            let [on_time, late, unused, mpki] = shares(r);
            table.row([
                preset.spec.name.clone(),
                format!("{mode:?}"),
                pct(on_time),
                pct(late),
                pct(unused),
                f3(mpki),
            ]);
        }
    }
    print!("{}", table.render());

    let avg = |mode: usize, k: usize| {
        let completed = rows
            .iter()
            .map(|(_, runs)| &runs[mode])
            .filter(|r| !r.is_failed());
        mean(completed.map(|r| shares(r)[k]))
    };
    println!("\naverages:");
    for (mi, mode) in [
        "with false-path (upper bar)",
        "flushed false-path (lower bar)",
    ]
    .iter()
    .enumerate()
    {
        println!(
            "  {mode}: on-time {}, late {}, unused {}, MPKI {}",
            pct(avg(mi, 0)),
            pct(avg(mi, 1)),
            pct(avg(mi, 2)),
            fmt_or_na(avg(mi, 3), |mpki| format!("{mpki:.3}")),
        );
    }
    let over_drop = avg(1, 2)
        .zip(avg(0, 2))
        .map(|(flush, all)| 1.0 - flush / all.max(1e-12));
    println!(
        "\nflushing false-path prefetches cuts unused prefetches by {}",
        pct(over_drop)
    );
    fig.finish()
}
