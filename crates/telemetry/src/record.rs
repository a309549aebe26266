//! The record-line schema and the sink plumbing shared by every
//! experiment binary.
//!
//! A run record is one predictor × workload run as a JSON object:
//! protocol (warmup/measure), configuration labels, headline metrics, the
//! full always-on counter set and the scope profile.
//! `bpsim::runner::RunResult::to_json` writes it, closing it with
//! [`with_run_sections`] (the profile, whose type this crate owns, and
//! the run's outcome), and the `LLBPX_CHECKPOINT` journal stores the same
//! object per completed cell.
//! Experiment binaries bundle their runs into one JSON line and append it
//! to `BENCH_<name>.json`, the performance/accuracy trajectory of the
//! repository.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::profile::ScopeTotals;

/// Schema identifier written into every emitted record line.
///
/// v2 added per-run `status` (`"ok"` / `"failed"`), `error`, a trace
/// attribution label (`"streamed"` / `"materialized"`) and `resumed`. v3
/// added the supervision vocabulary (`status` `"timeout"` / `"quarantined"`,
/// per-run `degraded` / `attempts`, record-level `supervision` / `chaos`
/// objects, timeout/quarantine/retry/degraded counts and the trace cache's
/// `evictions` / `demotions`). v4 removes everything of v3 except the
/// `"timeout"` status and the record-level count of timed-out cells.
/// v5 removes the shared-trace fields: the per-run trace attribution label
/// and the record-level trace-cache object are gone, because every run
/// streams its workload from its own generator. v6 removes the per-cell
/// deadline and with it the `"timeout"` status and the timed-out-cell
/// count: `status` is `"ok"` or `"failed"`, and a failed run is one that
/// panicked. Every completed run carries its predictor's `storage_bits`.
/// v7 removes the interval samples' `pb_occupancy` gauge, which read 1 in
/// nearly every LLBP-family sample and so carried no information; a run
/// whose predictor ran behind the frontend observer carries a `frontend`
/// object (`fetch_cycles`, `target_misses`) over its measured window.
/// v8 drops the per-run `intervals` time-series: the last *k*
/// instructions of a run are the measured window of a run with a longer
/// warmup, so the series held nothing the protocol knobs do not give.
pub const SCHEMA: &str = "llbpx-telemetry/8";

/// Environment variable enabling telemetry without touching a binary's
/// argument list. Values: `1`/`true` (default `BENCH_<name>.json` in the
/// working directory), a `*.json` path, or a directory.
pub const ENV_SINK: &str = "LLBPX_TELEMETRY";

/// Appends the closing sections of a run record to `run`: the scope
/// `profile` and the outcome (schema v2) —
/// `status` (`"failed"` when `error` is set, `"ok"` otherwise), the failed
/// run's `error`, and `resumed` for a run restored from a checkpoint
/// journal. Optional fields stay off the line entirely.
pub fn with_run_sections(
    run: Json,
    profile: &[ScopeTotals],
    error: Option<&str>,
    resumed: bool,
) -> Json {
    let profile = profile.iter().map(|s| {
        Json::obj()
            .set("scope", s.name)
            .set("calls", s.calls)
            .set("nanos", s.nanos)
    });
    let mut j = run
        .set("profile", Json::Arr(profile.collect()))
        .set("status", if error.is_some() { "failed" } else { "ok" });
    if let Some(error) = error {
        j = j.set("error", error);
    }
    if resumed {
        j = j.set("resumed", true);
    }
    j
}

/// Resolves the telemetry sink for a bench binary named `bench` from an
/// explicit `--json <path>` argument (checked first) or the
/// [`ENV_SINK`] environment variable. Returns `None` when telemetry is off.
pub fn sink_from<I: IntoIterator<Item = String>>(
    bench: &str,
    args: I,
    env: Option<&str>,
) -> Option<PathBuf> {
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if a == "--json" {
            match args.next() {
                Some(path) => return Some(PathBuf::from(path)),
                None => panic!("--json requires a path argument"),
            }
        }
        if let Some(path) = a.strip_prefix("--json=") {
            return Some(PathBuf::from(path));
        }
    }
    let value = env?;
    let default_name = format!("BENCH_{bench}.json");
    match value {
        "" | "0" | "false" | "off" => None,
        "1" | "true" | "on" => Some(PathBuf::from(default_name)),
        path if path.ends_with(".json") => Some(PathBuf::from(path)),
        dir => Some(Path::new(dir).join(default_name)),
    }
}

/// Resolves the sink from the real process arguments and environment.
pub fn sink_from_env(bench: &str) -> Option<PathBuf> {
    let env = std::env::var(ENV_SINK).ok();
    sink_from(bench, std::env::args().skip(1), env.as_deref())
}

/// Appends `record` as one JSON line to `path` (creating the file if
/// needed), so successive invocations build a trajectory.
pub fn append_line(path: &Path, record: &Json) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{record}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_record_serializes_all_sections() {
        let run = Json::obj()
            .set("predictor", "LLBP")
            .set("workload", "NodeApp")
            .set("counters", Json::obj().set("llbp_provided", 3u64));
        let profile = [ScopeTotals {
            name: "tage::predict",
            calls: 5,
            nanos: 1000,
        }];
        let rec = with_run_sections(run, &profile, None, false).set("cpi", 1.5);
        let j = Json::parse(&rec.to_string()).expect("round-trips");
        assert_eq!(j.get("predictor").unwrap().as_str(), Some("LLBP"));
        assert_eq!(
            j.get("counters")
                .unwrap()
                .get("llbp_provided")
                .unwrap()
                .as_i64(),
            Some(3)
        );
        let profile = j.get("profile").unwrap().as_arr().unwrap();
        assert_eq!(profile.len(), 1);
        assert_eq!(
            profile[0].get("scope").unwrap().as_str(),
            Some("tage::predict")
        );
        assert_eq!(profile[0].get("nanos").unwrap().as_u64(), Some(1000));
        assert_eq!(j.get("cpi").unwrap().as_f64(), Some(1.5));
        // No error reads back as status "ok"; optional fields stay off the
        // line entirely.
        assert_eq!(j.get("status").unwrap().as_str(), Some("ok"));
        assert!(j.get("error").is_none());
        assert!(j.get("resumed").is_none());
    }

    #[test]
    fn failed_and_resumed_records_emit_v2_fields() {
        let run = Json::obj()
            .set("predictor", "LLBP")
            .set("workload", "NodeApp");
        let rec = with_run_sections(run, &[], Some("worker panicked"), true);
        let j = Json::parse(&rec.to_string()).expect("round-trips");
        assert_eq!(j.get("status").unwrap().as_str(), Some("failed"));
        assert_eq!(j.get("error").unwrap().as_str(), Some("worker panicked"));
        assert_eq!(j.get("resumed").unwrap(), &Json::Bool(true));
    }

    #[test]
    fn sink_resolution_prefers_explicit_argument() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            sink_from("fig01", args(&["--json", "out.json"]), Some("1")),
            Some(PathBuf::from("out.json"))
        );
        assert_eq!(
            sink_from("fig01", args(&["--json=x.json"]), None),
            Some(PathBuf::from("x.json"))
        );
        assert_eq!(sink_from("fig01", args(&[]), None), None);
        assert_eq!(
            sink_from("fig01", args(&[]), Some("1")),
            Some(PathBuf::from("BENCH_fig01.json"))
        );
        assert_eq!(
            sink_from("fig01", args(&[]), Some("results")),
            Some(PathBuf::from("results/BENCH_fig01.json"))
        );
        assert_eq!(
            sink_from("fig01", args(&[]), Some("custom.json")),
            Some(PathBuf::from("custom.json"))
        );
        assert_eq!(sink_from("fig01", args(&[]), Some("0")), None);
    }

    #[test]
    fn append_line_builds_a_jsonl_trajectory() {
        let path = std::env::temp_dir().join(format!("telemetry-test-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        append_line(&path, &Json::obj().set("run", 1u64)).unwrap();
        append_line(&path, &Json::obj().set("run", 2u64)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            Json::parse(lines[1]).unwrap().get("run").unwrap().as_i64(),
            Some(2)
        );
        let _ = std::fs::remove_file(&path);
    }
}
