//! Determinism acceptance for the parallel experiment engine: the same
//! matrix (one row per workload, one cell per predictor) must be
//! bit-identical whether it runs serially ([`bpsim::runner::compare`]), on
//! one engine worker, or on four.
//!
//! The second test drives a real experiment binary end-to-end under
//! `LLBPX_THREADS=1` and `LLBPX_THREADS=4` and diffs every accuracy field
//! of the emitted records (only timing fields may differ).

use std::path::PathBuf;
use std::process::Command;

use bpsim::exec::{run_matrix_with, MatrixRow};
use bpsim::runner::{compare, RunResult, Simulation};
use bpsim::SimPredictor;
use telemetry::Json;
use workloads::WorkloadSpec;

fn specs() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::new("alpha", 3).with_request_types(64).with_handlers(8),
        WorkloadSpec::new("beta", 17).with_request_types(160).with_handlers(24),
    ]
}

fn assert_same_run(serial: &RunResult, engine: &RunResult, how: &str) {
    assert_eq!(serial.name, engine.name, "{how}");
    assert_eq!(serial.workload, engine.workload, "{how}");
    assert_eq!(serial.instructions, engine.instructions, "{how}: instructions");
    assert_eq!(serial.cond_branches, engine.cond_branches, "{how}: cond_branches");
    assert_eq!(serial.mispredicts, engine.mispredicts, "{how}: mispredicts");
    assert_eq!(
        serial.override_candidates, engine.override_candidates,
        "{how}: override_candidates"
    );
    assert_eq!(serial.intervals, engine.intervals, "{how}: interval partitions");
}

#[test]
fn engine_matrix_is_bit_identical_to_serial_compare() {
    let sim = Simulation { warmup_instructions: 60_000, measure_instructions: 160_000 };

    // Serial reference: runner::compare per workload, predictors in order.
    let mut serial = Vec::new();
    for spec in specs() {
        let mut tsl = bench::tsl64();
        let mut llbpx = bench::llbpx();
        serial.push(compare(
            &sim,
            &spec,
            [tsl.as_mut(), llbpx.as_mut()] as [&mut dyn SimPredictor; 2],
        ));
    }

    // Engine: 1 and 4 workers, every cell streaming its own generator.
    for threads in [1usize, 4] {
        let rows: Vec<MatrixRow<'_>> = specs()
            .iter()
            .map(|spec| {
                MatrixRow::new(spec)
                    .cell("64K TSL", |_| bench::tsl64())
                    .cell("LLBP-X", |_| bench::llbpx())
            })
            .collect();
        let report = run_matrix_with(&sim, rows, threads);
        assert_eq!(report.threads, threads);
        assert_eq!(report.failed_cells(), 0);
        assert_eq!(report.rows.len(), serial.len());
        for (serial_row, row) in serial.iter().zip(&report.rows) {
            assert_eq!(serial_row.len(), row.len());
            for (s, out) in serial_row.iter().zip(row) {
                let out = out.as_ref().expect("no cell fails");
                assert_same_run(s, &out.result, &format!("threads={threads}"));
            }
        }
    }
}

fn run_fig01(threads: &str, sink: &PathBuf) -> Json {
    let _ = std::fs::remove_file(sink);
    let output = Command::new(env!("CARGO_BIN_EXE_fig01"))
        .arg("--json")
        .arg(sink)
        .env("LLBPX_THREADS", threads)
        .env("REPRO_WORKLOADS", "NodeApp,TPCC")
        .env("REPRO_WARMUP", "50000")
        .env("REPRO_INSTRUCTIONS", "200000")
        .output()
        .expect("fig01 runs");
    assert!(output.status.success(), "fig01 failed: {}", String::from_utf8_lossy(&output.stderr));
    let text = std::fs::read_to_string(sink).expect("sink was written");
    let _ = std::fs::remove_file(sink);
    Json::parse(text.lines().next().expect("one record line")).expect("valid JSON")
}

#[test]
fn bench_binary_accuracy_is_invariant_under_llbpx_threads() {
    let sink = std::env::temp_dir()
        .join(format!("llbpx-parallel-engine-{}.json", std::process::id()));
    let one = run_fig01("1", &sink);
    let four = run_fig01("4", &sink);

    assert_eq!(one.get("threads").unwrap().as_i64(), Some(1));
    assert_eq!(four.get("threads").unwrap().as_i64(), Some(4));

    let runs1 = one.get("runs").unwrap().as_arr().unwrap();
    let runs4 = four.get("runs").unwrap().as_arr().unwrap();
    assert_eq!(runs1.len(), runs4.len());
    assert!(!runs1.is_empty());
    for (r1, r4) in runs1.iter().zip(runs4) {
        for key in
            ["predictor", "workload", "instructions", "cond_branches", "mispredicts", "mpki"]
        {
            assert_eq!(
                r1.get(key).map(Json::to_string),
                r4.get(key).map(Json::to_string),
                "{key} differs between LLBPX_THREADS=1 and 4"
            );
        }
        assert_eq!(
            r1.get("intervals").map(Json::to_string),
            r4.get("intervals").map(Json::to_string),
            "interval partitions differ between LLBPX_THREADS=1 and 4"
        );
    }
}
