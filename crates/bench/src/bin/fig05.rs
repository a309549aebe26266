//! Fig. 5: the limit study — successively removing LLBP's design
//! constraints, normalized to the 0-latency LLBP baseline.
//!
//! Steps (each inherits the previous):
//!
//! 1. `+ No Design Tweaks`, 2. `+ 20b Tag`, 3. `+ Inf Contexts`,
//!    4. `+ Inf Patterns`, 5. `+ No Contextualization`.
//!
//! The idealized configurations simulate slowly, so the default runs the
//! representative six-workload subset (override with `REPRO_WORKLOADS`).

use std::process::ExitCode;

use bpsim::report::{f3, pct, Table};
use llbpx::LlbpConfig;

fn main() -> ExitCode {
    let mut fig = bench::Figure::new(
        "fig05",
        "Fig. 5 (\u{a7}III-A): tweaks 4.6%, 20b tag 1.3%, inf contexts 3.9%, \
         inf patterns 9.1%, no contextualization 4.3%",
    );
    type StepList = Vec<(&'static str, fn() -> LlbpConfig)>;
    let steps: StepList = vec![
        ("+No Design Tweaks", LlbpConfig::no_design_tweaks),
        ("+20b Tag", LlbpConfig::with_20b_tags),
        ("+Inf Contexts", LlbpConfig::with_infinite_contexts),
        ("+Inf Patterns", LlbpConfig::with_infinite_patterns),
        (
            "+No Contextualization",
            LlbpConfig::without_contextualization,
        ),
    ];

    let mut header = vec!["workload", "LLBP-0Lat MPKI"];
    header.extend(steps.iter().map(|(n, _)| *n));
    let mut table = Table::new(
        "Fig. 5 — removing LLBP's design constraints (MPKI vs LLBP-0Lat)",
        &header,
    );

    let mut designs = vec![bench::design("LLBP-0Lat", bench::llbp_0lat)];
    for &(step_name, cfg) in &steps {
        designs.push(bench::design(format!("LLBP {step_name}"), move || {
            bench::llbp_with(cfg())
        }));
    }
    let rows = fig.run_rows(bench::representative_presets(), &designs);
    bench::tabulate(&mut table, &rows, |_, runs| {
        let ratios = (1..designs.len()).map(|i| f3(bench::mpki_ratio(runs, i)));
        std::iter::once(f3(runs[0].mpki())).chain(ratios).collect()
    });
    let base = if bench::completed(&rows).next().is_some() {
        "1.000"
    } else {
        "n/a"
    };
    let mut avg = vec!["geomean".into(), base.into()];
    avg.extend((1..designs.len()).map(|i| f3(bench::geomean_ratio(&rows, i))));
    table.row(avg);
    print!("{}", table.render());

    println!("\nstepwise reduction relative to the preceding configuration:");
    let mut prev = Some(1.0);
    for (i, (name, _)) in steps.iter().enumerate() {
        let g = bench::geomean_ratio(&rows, i + 1);
        println!(
            "  {name:<22} {}",
            pct(g.zip(prev).map(|(g, prev)| 1.0 - g / prev))
        );
        prev = g;
    }
    fig.finish()
}
