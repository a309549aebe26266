//! Quickstart: build the paper's three main predictors, run them over one
//! synthetic server workload, and compare MPKI.
//!
//! ```sh
//! cargo run --release -p bench --example quickstart
//! ```

use bpsim::report::{f3, pct, Table};
use bpsim::runner::Simulation;
use llbpx::{Llbp, LlbpConfig};
use tage::{TageScl, TslConfig};

fn main() {
    // A workload: the NodeApp preset from the paper's Table I.
    let spec = workloads::presets::by_name("NodeApp").expect("preset exists");

    // A quick protocol: 2M instructions warmup, 4M measured.
    let sim = Simulation {
        warmup_instructions: 2_000_000,
        measure_instructions: 4_000_000,
    };

    // The three contenders.
    let mut tsl = TageScl::new(TslConfig::kilobytes(64));
    let mut llbp = Llbp::new(LlbpConfig::paper_baseline());
    let mut llbpx = Llbp::new(LlbpConfig::llbpx());

    let base = sim.run(&mut tsl, &spec);
    let r_llbp = sim.run(&mut llbp, &spec);
    let r_llbpx = sim.run(&mut llbpx, &spec);

    let mut table = Table::new("quickstart — NodeApp", &["design", "MPKI", "vs 64K TSL"]);
    table.row([base.name.clone(), f3(base.mpki()), "-".into()]);
    for r in [&r_llbp, &r_llbpx] {
        table.row([r.name.clone(), f3(r.mpki()), pct(r.reduction_vs(&base))]);
    }
    print!("{}", table.render());

    // The hierarchical predictors also report second-level activity.
    let stats = r_llbpx.llbp.expect("LLBP-X carries second-level stats");
    println!(
        "\nLLBP-X second level: provided {} predictions ({} useful overrides), \
         {} pattern allocations, {} prefetches",
        stats.llbp_provided, stats.llbp_useful, stats.allocations, stats.prefetches_issued
    );
    println!(
        "pattern-store traffic: {:.1} bits/instruction",
        (stats.ps_reads + stats.ps_writes) as f64 * 288.0 / r_llbpx.instructions as f64
    );
}
