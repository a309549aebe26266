//! Capacity planner: a downstream-user scenario — given a workload, sweep
//! predictor organizations and print accuracy per kilobyte, the trade-off
//! an SoC architect actually reasons about.
//!
//! ```sh
//! cargo run --release -p bench --example capacity_planner [workload]
//! ```

use bpsim::report::{f3, Table};
use bpsim::runner::Simulation;
use bpsim::SimPredictor;
use llbpx::{Llbp, LlbpConfig};
use tage::{TageScl, TslConfig};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "TPCC".to_owned());
    let spec = workloads::presets::by_name(&name)
        .unwrap_or_else(|| panic!("unknown preset {name}; see workloads::presets::names()"));
    let sim = Simulation {
        warmup_instructions: 2_000_000,
        measure_instructions: 4_000_000,
    };

    let designs: Vec<Box<dyn SimPredictor>> = vec![
        Box::new(TageScl::new(TslConfig::kilobytes(32))),
        Box::new(TageScl::new(TslConfig::kilobytes(64))),
        Box::new(TageScl::new(TslConfig::kilobytes(128))),
        Box::new(TageScl::new(TslConfig::kilobytes(512))),
        Box::new(Llbp::new(LlbpConfig::paper_baseline())),
        Box::new(Llbp::new(LlbpConfig::llbpx())),
    ];

    let mut table = Table::new(
        format!("capacity planning, {name}"),
        &[
            "design",
            "storage KiB",
            "MPKI",
            "accuracy",
            "latency-feasible?",
        ],
    );
    let mut base_mpki = None;
    for mut design in designs {
        let kib = design.storage_bits() as f64 / 8.0 / 1024.0;
        let r = sim.run(design.as_mut(), &spec);
        if base_mpki.is_none() {
            base_mpki = Some(r.mpki());
        }
        // The paper's core point: monolithic predictors beyond ~64-128 KiB
        // are not latency-feasible; hierarchical ones are, because only the
        // small pattern buffer sits on the prediction path.
        let feasible = match r.name.as_str() {
            n if n.starts_with("512K") => "no (access latency)",
            n if n.starts_with("128K") => "marginal",
            _ => "yes",
        };
        let acc = 1.0 - r.mispredicts as f64 / r.cond_branches.max(1) as f64;
        table.row([
            r.name.clone(),
            format!("{kib:.0}"),
            f3(r.mpki()),
            format!("{:.3}%", acc * 100.0),
            feasible.into(),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nreading: LLBP/LLBP-X buy a large fraction of the 512K accuracy at \
         feasible prediction latency — the paper's motivating trade-off."
    );
}
