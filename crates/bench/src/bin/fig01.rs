//! Fig. 1: branch MPKI and branch-misprediction stall-cycle fraction on a
//! Skylake-class vs a Sapphire-Rapids-class core.
//!
//! The paper measures real hardware with performance counters; we drive the
//! two analytical core models with simulated predictors of matching class
//! (the newer core also has the stronger predictor). The paper's point —
//! MPKI *drops* on the newer core while the *fraction* of stall cycles due
//! to mispredictions *rises* — must reproduce.

use std::process::ExitCode;

use bpsim::report::{f3, pct, Table};
use bpsim::CoreParams;

fn main() -> ExitCode {
    let mut fig = bench::Figure::new(
        "fig01",
        "Fig. 1 (\u{a7}II-A): SPR has 15-60% fewer mispredictions yet a 7-45% \
         higher branch-stall fraction; CPI drops ~46%",
    );
    let sky_core = CoreParams::skylake_like();
    let spr_core = CoreParams::sapphire_rapids_like();

    let mut table = Table::new(
        "Fig. 1 — MPKI and branch-stall fraction, Skylake-like vs SPR-like",
        &[
            "workload",
            "SKL MPKI",
            "SPR MPKI",
            "dMPKI",
            "SKL stall%",
            "SPR stall%",
            "dstall",
        ],
    );

    // The paper plots three workloads; default to a web/db/java mix.
    let wanted = ["NodeApp", "TPCC", "Wikipedia"];
    let presets = bench::presets_where(|p| wanted.contains(&p.spec.name.as_str()));

    // Skylake-class predictor: 64K TSL. SPR-class: larger (128K).
    let designs = [
        bench::design("64K TSL", bench::tsl64),
        bench::design("128K TSL", || bench::tsl(128)),
    ];
    let rows = fig.run_rows(presets, &designs);

    // A zero-MPKI baseline has no meaningful relative change.
    let rel = |new: f64, base: f64| {
        if base == 0.0 {
            "n/a".to_string()
        } else {
            pct(new / base - 1.0)
        }
    };
    bench::tabulate(&mut table, &rows, |_, runs| {
        let (skl, spr) = (&runs[0], &runs[1]);
        let skl_frac = sky_core.branch_stall_fraction(skl.instructions, skl.mispredicts);
        let spr_frac = spr_core.branch_stall_fraction(spr.instructions, spr.mispredicts);
        vec![
            f3(skl.mpki()),
            f3(spr.mpki()),
            rel(spr.mpki(), skl.mpki()),
            pct(skl_frac),
            pct(spr_frac),
            rel(spr_frac, skl_frac),
        ]
    });
    print!("{}", table.render());
    fig.finish()
}
