//! Fig. 15a: pattern-store transfer bandwidth (bits per instruction) of
//! LLBP vs LLBP-X, split into reads and writes (288-bit transactions).

use std::process::ExitCode;

use bpsim::report::{f3, fmt_or_na, mean, pct, Table};
use bpsim::RunResult;

fn main() -> ExitCode {
    let mut fig = bench::Figure::new(
        "fig15a",
        "Fig. 15a (\u{a7}VII-D): reads dominate (writes ~1/5); LLBP-X moves 9.9 \
         bits/instr vs LLBP's 10.6 (-6.1%)",
    );
    let mut table = Table::new(
        "Fig. 15a — pattern store <-> pattern buffer transfer (bits/instr)",
        &[
            "workload",
            "LLBP reads",
            "LLBP writes",
            "X reads",
            "X writes",
            "total change",
        ],
    );
    let designs = [
        bench::design("LLBP", bench::llbp),
        bench::design("LLBP-X", bench::llbpx),
    ];
    let rows = fig.run_rows(bench::presets(), &designs);
    // Reads and writes of one run, in bits per instruction.
    let transfer = |r: &RunResult| {
        r.llbp
            .as_ref()
            .expect("LLBP stats")
            .transfer_bits_per_instruction(r.instructions)
    };
    bench::tabulate(&mut table, &rows, |_, runs| {
        let ((lr, lw), (xr, xw)) = (transfer(&runs[0]), transfer(&runs[1]));
        vec![
            f3(lr),
            f3(lw),
            f3(xr),
            f3(xw),
            pct((xr + xw) / (lr + lw).max(1e-12) - 1.0),
        ]
    });
    print!("{}", table.render());

    let total = |i: usize| {
        mean(bench::completed(&rows).map(|runs| {
            let (reads, writes) = transfer(&runs[i]);
            reads + writes
        }))
    };
    let (llbp_total, x_total) = (total(0), total(1));
    let two = |bits| fmt_or_na(bits, |bits| format!("{bits:.2}"));
    println!(
        "\naverage bits/instruction: LLBP {}, LLBP-X {}",
        two(llbp_total),
        two(x_total)
    );
    println!(
        "LLBP-X bandwidth change: {}",
        pct(x_total.zip(llbp_total).map(|(x, l)| x / l - 1.0))
    );
    fig.finish()
}
