//! Custom workload: build your own synthetic service with the
//! `WorkloadSpec` builder, profile its branch stream, and compare
//! predictors on it.
//!
//! ```sh
//! cargo run --release -p bench --example custom_workload
//! ```

use bpsim::report::{f3, pct, Table};
use bpsim::runner::Simulation;
use llbpx::{Llbp, LlbpConfig};
use tage::{TageScl, TslConfig};
use traces::{StreamExt, TraceStats};
use workloads::{ServerWorkload, WorkloadSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A bursty microservice: few request types, strong sessions, heavy H2P.
    let spec = WorkloadSpec::new("my-service", 0xC0FFEE)
        .with_request_types(384)
        .with_handlers(24)
        .with_branches_per_handler(20)
        .with_h2p_per_handler(4)
        .with_noise(0.05, 0.9, 0.98)
        .with_session_stay(0.9);
    spec.validate().map_err(std::io::Error::other)?;

    // Profile the first 200K branches of the stream.
    let stats = TraceStats::from_stream(ServerWorkload::new(&spec).take_branches(200_000));
    println!("trace profile:\n{stats}\n");

    // Compare predictors on the generated stream.
    let sim = Simulation {
        warmup_instructions: 2_000_000,
        measure_instructions: 4_000_000,
    };
    let base = sim.run(&mut TageScl::new(TslConfig::kilobytes(64)), &spec);
    let x = sim.run(&mut Llbp::new(LlbpConfig::llbpx()), &spec);

    let mut table = Table::new(
        "my-service — predictor comparison",
        &["design", "MPKI", "delta"],
    );
    table.row([base.name.clone(), f3(base.mpki()), "-".into()]);
    table.row([x.name.clone(), f3(x.mpki()), pct(x.reduction_vs(&base))]);
    print!("{}", table.render());
    Ok(())
}
