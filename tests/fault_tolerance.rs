//! Fault-tolerance acceptance, end to end against a real experiment
//! binary:
//!
//! * a matrix with one deliberately-panicking cell (`LLBPX_FAULT_CELL`)
//!   completes every other cell, renders the failed preset as an `n/a`
//!   row, marks the run `status: "failed"` in telemetry, and exits
//!   non-zero, in fig01 and in fig13p (whose completed runs carry their
//!   frontend counters); so does a context-analysis binary (fig08) with
//!   one failed analysis cell;
//! * a failed cell is left out of the run's `LLBPX_CHECKPOINT` journal,
//!   so a re-run on that journal without the fault matches an
//!   uninterrupted run;
//! * journal lines of an older format version are dropped with a warning
//!   and their cells re-simulate;
//! * a 4-thread run SIGKILLed mid-matrix resumes from its
//!   `LLBPX_CHECKPOINT` journal and produces stdout byte-identical to an
//!   uninterrupted run (only the wall-time line may differ);
//! * a figure whose only row failed renders its geomean/mean rows and
//!   summary lines as `n/a` instead of numbers computed over no rows.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use telemetry::Json;

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "llbpx-fault-tolerance-{tag}-{}",
        std::process::id()
    ))
}

/// `binary` on NodeApp and TPCC at a small protocol over 4 workers.
fn small_run(binary: &str) -> Command {
    let mut cmd = Command::new(binary);
    cmd.env("REPRO_WORKLOADS", "NodeApp,TPCC")
        .env("REPRO_WARMUP", "50000")
        .env("REPRO_INSTRUCTIONS", "200000")
        .env("LLBPX_THREADS", "4");
    cmd
}

fn fig01() -> Command {
    small_run(env!("CARGO_BIN_EXE_fig01"))
}

#[test]
fn a_panicking_cell_yields_na_row_failed_status_and_nonzero_exit() {
    // fig01 runs 2 designs per preset and fig13p 4, behind the frontend
    // observer.
    let binaries = [
        (env!("CARGO_BIN_EXE_fig01"), 4),
        (env!("CARGO_BIN_EXE_fig13p"), 8),
    ];
    for (binary, cells) in binaries {
        a_panicking_cell_is_isolated(binary, cells);
    }
}

fn a_panicking_cell_is_isolated(binary: &str, cells: usize) {
    let sink = tmp_path("fault-cell.json");
    let _ = std::fs::remove_file(&sink);

    // Cell 1 is NodeApp's second job; TPCC's cells must still complete.
    let output = small_run(binary)
        .arg("--json")
        .arg(&sink)
        .env("LLBPX_FAULT_CELL", "1")
        .output()
        .expect("the binary runs");
    assert!(!output.status.success(), "a failed cell must not exit 0");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("matrix cell(s) failed"), "stderr: {stderr}");

    let stdout = String::from_utf8_lossy(&output.stdout);
    let na_row = stdout
        .lines()
        .find(|l| l.contains("NodeApp"))
        .expect("NodeApp row renders");
    assert!(
        na_row.contains("n/a"),
        "failed preset must render as n/a: {na_row}"
    );
    let tpcc_row = stdout
        .lines()
        .find(|l| l.contains("TPCC"))
        .expect("TPCC row renders");
    assert!(
        !tpcc_row.contains("n/a"),
        "healthy preset must still complete: {tpcc_row}"
    );

    let text = std::fs::read_to_string(&sink).expect("sink was written");
    let _ = std::fs::remove_file(&sink);
    let line = Json::parse(text.lines().next().expect("one record line")).expect("valid JSON");
    assert_eq!(line.get("failed_cells").unwrap().as_i64(), Some(1));
    let runs = line.get("runs").unwrap().as_arr().unwrap();
    assert_eq!(runs.len(), cells, "{binary}");
    let (failed, ok): (Vec<&Json>, Vec<&Json>) = runs
        .iter()
        .partition(|r| r.get("status").unwrap().as_str() == Some("failed"));
    assert_eq!(failed.len(), 1, "exactly the faulted cell fails");
    let error = failed[0].get("error").unwrap().as_str().unwrap();
    assert!(
        error.contains("LLBPX_FAULT_CELL"),
        "error carries the panic message: {error}"
    );
    assert_eq!(failed[0].get("workload").unwrap().as_str(), Some("NodeApp"));
    let observed = binary.ends_with("fig13p");
    for run in ok {
        assert_eq!(
            run.get("frontend").is_some(),
            observed,
            "{binary}: only fig13p's runs carry frontend counters"
        );
    }
}

#[test]
fn a_failed_analysis_cell_renders_na_and_exits_nonzero() {
    let sink = tmp_path("analysis-fault.json");
    let _ = std::fs::remove_file(&sink);

    // fig08's grid is NodeApp × W ∈ {2, 8, 64}: cell 1 is the W=8 analysis.
    let output = Command::new(env!("CARGO_BIN_EXE_fig08"))
        .arg("--json")
        .arg(&sink)
        .env("REPRO_WORKLOADS", "NodeApp")
        .env("REPRO_WARMUP", "20000")
        .env("REPRO_INSTRUCTIONS", "60000")
        .env("LLBPX_THREADS", "2")
        .env("LLBPX_FAULT_CELL", "1")
        .output()
        .expect("fig08 runs");
    assert!(
        !output.status.success(),
        "a failed analysis cell must not exit 0"
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("n/a"),
        "the failed analysis must render as n/a:\n{stdout}"
    );
    assert!(
        !stdout.contains("NaN"),
        "an empty length range renders n/a, not NaN:\n{stdout}"
    );

    let text = std::fs::read_to_string(&sink).expect("sink was written");
    let _ = std::fs::remove_file(&sink);
    let line = Json::parse(text.lines().next().expect("one record line")).expect("valid JSON");
    assert_eq!(line.get("failed_cells").unwrap().as_i64(), Some(1));
    let runs = line.get("runs").unwrap().as_arr().unwrap();
    assert_eq!(runs.len(), 3, "one run per context depth");
    let failed: Vec<&Json> = runs
        .iter()
        .filter(|r| r.get("status").unwrap().as_str() == Some("failed"))
        .collect();
    assert_eq!(failed.len(), 1, "exactly the faulted cell fails");
    let error = failed[0].get("error").unwrap().as_str().unwrap();
    assert!(
        error.contains("LLBPX_FAULT_CELL"),
        "error carries the panic message: {error}"
    );
}

#[test]
fn a_failed_cell_is_not_journaled_and_a_clean_resume_matches() {
    let sink = tmp_path("unjournaled.json");
    let checkpoint = tmp_path("unjournaled.ckpt");
    let _ = std::fs::remove_file(&sink);
    let _ = std::fs::remove_file(&checkpoint);

    // Uninterrupted reference for the re-run diff below.
    let clean = fig01().output().expect("fig01 runs");
    assert!(clean.status.success());

    // Cell 1 panics; the other three complete and are journaled.
    let faulted = fig01()
        .env("LLBPX_FAULT_CELL", "1")
        .env("LLBPX_CHECKPOINT", &checkpoint)
        .output()
        .expect("fig01 runs");
    assert!(!faulted.status.success(), "a failed cell must not exit 0");
    let journaled = std::fs::read_to_string(&checkpoint).expect("journal was written");
    assert_eq!(
        journaled.lines().count(),
        3,
        "only the completed cells are journaled"
    );

    // Re-run on the same journal without the fault: the three completed
    // cells restore, the failed one (never journaled) simulates, and
    // stdout is byte-identical to the uninterrupted reference.
    let rerun = fig01()
        .arg("--json")
        .arg(&sink)
        .env("LLBPX_CHECKPOINT", &checkpoint)
        .output()
        .expect("fig01 re-runs");
    let _ = std::fs::remove_file(&checkpoint);
    assert!(
        rerun.status.success(),
        "re-run after a failed cell failed: {}",
        String::from_utf8_lossy(&rerun.stderr)
    );
    assert_eq!(
        stable_stdout(&clean.stdout),
        stable_stdout(&rerun.stdout),
        "a re-run after a failed cell must match an uninterrupted run"
    );
    let text = std::fs::read_to_string(&sink).expect("sink was written");
    let _ = std::fs::remove_file(&sink);
    let line = Json::parse(text.lines().next().expect("one record line")).expect("valid JSON");
    assert_eq!(line.get("resumed_cells").unwrap().as_i64(), Some(3));
    assert!(
        line.get("failed_cells").is_none(),
        "nothing fails on the re-run"
    );
}

#[test]
fn journal_lines_of_an_older_format_are_dropped_and_their_cells_re_simulate() {
    let checkpoint = tmp_path("v4.ckpt");
    let _ = std::fs::remove_file(&checkpoint);
    let clean = fig01()
        .env("LLBPX_CHECKPOINT", &checkpoint)
        .output()
        .expect("fig01 runs");
    assert!(clean.status.success());

    // Relabel every journaled line as format version 4: even under a
    // matching fingerprint, a line of an older format must not restore.
    let journal = std::fs::read_to_string(&checkpoint).expect("journal was written");
    assert_eq!(
        journal.matches("\"v\":5").count(),
        4,
        "one v5 line per cell"
    );
    std::fs::write(&checkpoint, journal.replace("\"v\":5", "\"v\":4")).unwrap();

    let rerun = fig01()
        .env("LLBPX_CHECKPOINT", &checkpoint)
        .output()
        .expect("fig01 re-runs");
    let journal = std::fs::read_to_string(&checkpoint).expect("journal was appended");
    let _ = std::fs::remove_file(&checkpoint);
    assert!(rerun.status.success());
    let stderr = String::from_utf8_lossy(&rerun.stderr);
    assert_eq!(
        stderr.matches("dropping unparseable journal line").count(),
        4,
        "{stderr}"
    );
    assert!(
        !stderr.contains("restored from"),
        "no cell may restore: {stderr}"
    );
    assert_eq!(stable_stdout(&clean.stdout), stable_stdout(&rerun.stdout));
    assert_eq!(
        journal.matches("\"v\":5").count(),
        4,
        "every cell re-simulated"
    );
}

#[test]
fn summaries_over_no_completed_rows_render_na() {
    let binaries = [
        env!("CARGO_BIN_EXE_fig04"),
        env!("CARGO_BIN_EXE_fig12"),
        env!("CARGO_BIN_EXE_fig15a"),
    ];
    for binary in binaries {
        // Cell 0 opens NodeApp's row, the only one: no row completes.
        let output = Command::new(binary)
            .env("REPRO_WORKLOADS", "NodeApp")
            .env("REPRO_WARMUP", "20000")
            .env("REPRO_INSTRUCTIONS", "60000")
            .env("LLBPX_THREADS", "2")
            .env("LLBPX_FAULT_CELL", "0")
            .output()
            .expect("the binary runs");
        assert!(
            !output.status.success(),
            "{binary}: a failed cell must not exit 0"
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        // The footer quotes the paper's numbers; only the figure counts.
        let figure = stdout.split("\nprotocol:").next().unwrap_or_default();
        let summaries: Vec<&str> = figure
            .lines()
            .filter(|l| {
                [
                    "geomean",
                    "average",
                    "improvement",
                    "achieves",
                    "bandwidth change",
                ]
                .iter()
                .any(|word| l.contains(word))
            })
            .collect();
        assert!(summaries.len() >= 2, "{binary}: no summaries in\n{stdout}");
        for line in summaries {
            assert!(
                line.contains("n/a"),
                "{binary}: a summary over no rows: {line}"
            );
            for number in ["NaN", "100", "0.000", "0.00"] {
                assert!(!line.contains(number), "{binary}: {number} in {line}");
            }
        }
    }
}

/// Drops the only line that may legitimately differ between a clean run
/// and a resumed run (total wall time).
fn stable_stdout(raw: &[u8]) -> String {
    String::from_utf8_lossy(raw)
        .lines()
        .filter(|l| !l.contains("total wall time"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn a_sigkilled_matrix_resumes_bit_identically_from_its_checkpoint() {
    let checkpoint = tmp_path("resume.ckpt");
    let sink = tmp_path("resume.json");
    let _ = std::fs::remove_file(&checkpoint);
    let _ = std::fs::remove_file(&sink);

    // Uninterrupted reference, no checkpoint involved.
    let clean = fig01().output().expect("fig01 runs");
    assert!(clean.status.success());

    // Kill a checkpointed run as soon as its journal holds one complete
    // cell. (On a fast machine the child may finish first; then the resume
    // below restores every cell — the diff must hold either way.)
    let mut child = fig01()
        .env("LLBPX_CHECKPOINT", &checkpoint)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("fig01 spawns");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let journaled = std::fs::read_to_string(&checkpoint)
            .map(|t| t.lines().count())
            .unwrap_or(0);
        if journaled >= 1 || child.try_wait().expect("child pollable").is_some() {
            break;
        }
        assert!(Instant::now() < deadline, "no cell journaled within 60s");
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = child.kill();
    let _ = child.wait();
    assert!(
        std::fs::read_to_string(&checkpoint).is_ok_and(|t| t.lines().count() >= 1),
        "the killed run journaled at least one cell"
    );

    // Resume: finished cells restore from the journal, the rest simulate.
    let resumed = fig01()
        .arg("--json")
        .arg(&sink)
        .env("LLBPX_CHECKPOINT", &checkpoint)
        .output()
        .expect("fig01 resumes");
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        stable_stdout(&clean.stdout),
        stable_stdout(&resumed.stdout),
        "resumed stdout must be byte-identical to an uninterrupted run"
    );
    assert!(
        String::from_utf8_lossy(&resumed.stderr).contains("restored from the LLBPX_CHECKPOINT"),
        "resume notice goes to stderr"
    );

    let text = std::fs::read_to_string(&sink).expect("sink was written");
    let _ = std::fs::remove_file(&sink);
    let _ = std::fs::remove_file(&checkpoint);
    let line = Json::parse(text.lines().next().expect("one record line")).expect("valid JSON");
    assert!(line.get("resumed_cells").unwrap().as_i64().unwrap() >= 1);
    assert!(
        line.get("failed_cells").is_none(),
        "nothing failed on resume"
    );
    let restored = line
        .get("runs")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .filter(|r| r.get("resumed") == Some(&Json::Bool(true)))
        .count();
    assert!(restored >= 1, "at least one run carries resumed: true");
}
