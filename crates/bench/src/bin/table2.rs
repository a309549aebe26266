//! Table II: parameters of the simulated processor.
//!
//! The paper's Table II configures gem5; our analytical core model
//! ([`bpsim::CoreParams`]) plays that role (see DESIGN.md). This binary
//! prints both the paper's configuration (for the record) and the model
//! parameters derived from it.

use std::process::ExitCode;

use bpsim::report::Table;
use bpsim::CoreParams;
use tage::DirectionPredictor;

fn main() -> ExitCode {
    let mut fig = bench::Figure::new("table2", "Table II (\u{a7}VI)");
    let mut table = Table::new(
        "Table II — parameters of the simulated processor (paper)",
        &["component", "configuration"],
    );
    for (c, v) in [
        ("Core", "4GHz, 8-way OoO, 576 ROB, 190/120 LQ/SQ"),
        ("Branch Pred", "64KiB TAGE-SC-L, LLBP, LLBP-X"),
        ("BTB", "16K entry, 8-way"),
        ("L1-I", "64KiB, 16-way, 4 cycle, 10 MSHRs"),
        ("L1-D", "48KiB, 12-way, 5 cycle, 16 MSHRs"),
        ("L2", "3MiB, 16-way, 16 cycle, 32 MSHRs"),
        ("LLC", "8MiB, 16-way, 30 cycle, 64 MSHRs"),
        ("Prefetchers", "I: FDIP, D: BOP, L2: next-line"),
        ("Memory", "DDR4 3200MHz, 12.5 ns RCD/RP/CAS"),
    ] {
        table.row([c.into(), v.into()]);
    }
    print!("{}", table.render());

    let core = CoreParams::paper_table2();
    let mut model = Table::new(
        "Analytical core model standing in for gem5 (DESIGN.md)",
        &["parameter", "value"],
    );
    model.row(["issue width".into(), format!("{}", core.issue_width)]);
    model.row(["base stall CPI".into(), format!("{}", core.base_stall_cpi)]);
    model.row([
        "mispredict penalty".into(),
        format!("{} cycles", core.mispredict_penalty),
    ]);
    model.row(["override bubble (\u{a7}VII-C)".into(), "3 cycles".into()]);
    print!("{}", model.render());

    let mut storage = telemetry::Json::obj();
    let mut budgets = Table::new("Predictor storage budgets", &["design", "KiB"]);
    for design in [
        bench::tsl64(),
        bench::tsl(512),
        bench::llbp(),
        bench::llbpx(),
    ] {
        let bits = design.storage_bits();
        budgets.row([design.name(), format!("{:.0}", bits as f64 / 8.0 / 1024.0)]);
        storage = storage.set(design.name(), bits);
    }
    // This binary runs no simulations; its record carries the static
    // storage budgets instead of runs.
    fig.set_extra("storage_bits", storage);
    print!("{}", budgets.render());
    fig.finish()
}
