//! Golden accuracy stats for every predictor family the experiment binaries
//! build.
//!
//! `scripts/golden.json` holds the full counter set of each `bench` design
//! constructor, plus fig14a's false-path-flushing LLBP-X, fig16a/16b's
//! 0-latency LLBP-X base and the sensitivity sweep's 4K-entry CTT, on
//! NodeApp and TPCC at a small protocol: the run totals and, for the LLBP
//! family, every `LlbpStats` counter plus the allocation-length histogram. The per-branch
//! kernel is optimization territory; a change that moves a single counter
//! here is a correctness bug, not a speed-up.
//!
//! Opt-W is built as fig12 builds it: from the deep contexts of the row's
//! LLBP-X run, read back from that run's record. NodeApp and TPCC have no
//! deep context at this protocol, so Kafka adds an LLBP-X and an Opt-W
//! line whose oracle is not empty.
//!
//! Re-record (only when a PR deliberately changes accuracy, and says why):
//!
//! ```text
//! cargo test --release --offline -p bench --test golden -- --ignored
//! ```

use std::path::PathBuf;

use bpsim::exec::{design, design_after, run_matrix, EngineOptions};
use bpsim::runner::{RunResult, Simulation};
use bpsim::SimPredictor;
use llbpx::{FalsePathMode, LlbpConfig};
use telemetry::Json;

const PROTOCOL: Simulation = Simulation {
    warmup_instructions: 100_000,
    measure_instructions: 400_000,
};
const WORKLOADS: [&str; 2] = ["NodeApp", "TPCC"];

type Factory = fn() -> Box<dyn SimPredictor>;

/// Every design constructor the figure binaries use, by display name. Opt-W
/// is added to each row: its oracle comes from the row's LLBP-X run.
fn designs() -> Vec<(&'static str, Factory)> {
    vec![
        ("8K TSL", || bench::tsl(8)),
        ("16K TSL", || bench::tsl(16)),
        ("32K TSL", || bench::tsl(32)),
        ("64K TSL", bench::tsl64),
        ("128K TSL", || bench::tsl(128)),
        ("256K TSL", || bench::tsl(256)),
        ("512K TSL", || bench::tsl(512)),
        ("Inf TSL", bench::tsl_inf),
        ("LLBP", bench::llbp),
        ("LLBP-0Lat", bench::llbp_0lat),
        ("LLBP-X", bench::llbpx),
        ("+No Design Tweaks", || {
            bench::llbp_with(LlbpConfig::no_design_tweaks())
        }),
        ("+20b Tag", || bench::llbp_with(LlbpConfig::with_20b_tags())),
        ("+Inf Contexts", || {
            bench::llbp_with(LlbpConfig::with_infinite_contexts())
        }),
        ("+Inf Patterns", || {
            bench::llbp_with(LlbpConfig::with_infinite_patterns())
        }),
        ("+No Contextualization", || {
            bench::llbp_with(LlbpConfig::without_contextualization())
        }),
        ("LLBP-X no-HRS", || {
            bench::llbp_with(LlbpConfig::llbpx().without_history_range_selection())
        }),
        ("LLBP-X Flush", || {
            bench::llbp_with(LlbpConfig {
                false_path: FalsePathMode::Flush,
                ..LlbpConfig::llbpx()
            })
        }),
        ("LLBP-X-0Lat", || {
            bench::llbp_with(LlbpConfig::llbpx_zero_latency())
        }),
        ("LLBP-X CTT=4096", || {
            bench::llbp_with(LlbpConfig::llbpx().with_ctt_entries(4096))
        }),
    ]
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scripts/golden.json")
}

/// The accuracy counters of one run, in a fixed key order.
fn stats(design: &str, r: &RunResult) -> Json {
    let mut j = Json::obj()
        .set("design", design)
        .set("workload", r.workload.as_str())
        .set("instructions", r.instructions)
        .set("cond_branches", r.cond_branches)
        .set("mispredicts", r.mispredicts)
        .set("override_candidates", r.override_candidates);
    if let Some(llbp) = &r.llbp {
        let mut counters = Json::obj();
        for (name, value) in llbp.counters() {
            counters = counters.set(name, value);
        }
        let histogram: Vec<Json> = llbp.alloc_len_histogram.iter().map(|&n| n.into()).collect();
        j = j.set("llbp", counters.set("alloc_len_histogram", histogram));
    }
    j
}

/// Opt-W from the record of an LLBP-X run, as a resumed fig12 builds it.
fn opt_w_from_record(llbpx: &RunResult) -> Box<dyn SimPredictor> {
    let record = RunResult::from_json(&llbpx.to_json(&PROTOCOL)).expect("the record restores");
    bench::llbpx_opt_w_after(&record)
}

/// Runs `designs` plus Opt-W on every one of `workloads` as one engine
/// grid, two cells at a time: each run with its design's name, row-major.
fn grid(
    workloads: &[&str],
    designs: Vec<(&'static str, Factory)>,
) -> Vec<(&'static str, RunResult)> {
    let specs: Vec<_> = workloads
        .iter()
        .map(|w| workloads::presets::by_name(w).expect("golden preset exists"))
        .collect();
    let mut names: Vec<&'static str> = designs.iter().map(|(name, _)| *name).collect();
    let mut designs: Vec<_> = designs
        .into_iter()
        .map(|(name, factory)| design(name, factory))
        .collect();
    names.push("LLBP-X Opt-W");
    designs.push(design_after("LLBP-X Opt-W", "LLBP-X", opt_w_from_record));
    let report = run_matrix(&PROTOCOL, &specs, &designs, EngineOptions::basic(2));
    report
        .rows
        .into_iter()
        .flat_map(|row| names.iter().copied().zip(row))
        .collect()
}

/// Every design on NodeApp and TPCC, then Kafka's LLBP-X and Opt-W.
fn simulate() -> Vec<Json> {
    let mut runs = grid(&WORKLOADS, designs());
    let kafka = grid(&["Kafka"], vec![("LLBP-X", bench::llbpx)]);
    let deep = kafka[0]
        .1
        .deep_contexts
        .as_ref()
        .expect("LLBP-X decides depths");
    assert!(
        !deep.is_empty(),
        "Kafka's Opt-W line must pin a non-empty oracle"
    );
    runs.extend(kafka);
    let stats = |(name, run): &(&str, RunResult)| {
        assert!(!run.is_failed(), "no golden cell fails: {:?}", run.error);
        stats(name, run)
    };
    runs.iter().map(stats).collect()
}

/// One run per line, so a drift shows up as a readable diff.
fn render(runs: &[Json]) -> String {
    let protocol = Json::Arr(vec![
        PROTOCOL.warmup_instructions.into(),
        PROTOCOL.measure_instructions.into(),
    ]);
    let lines: Vec<String> = runs.iter().map(|r| format!("  {r}")).collect();
    format!(
        "{{\"protocol\":{protocol},\"runs\":[\n{}\n]}}\n",
        lines.join(",\n")
    )
}

#[test]
fn every_design_matches_its_golden_stats() {
    let text = std::fs::read_to_string(golden_path()).expect("scripts/golden.json is readable");
    let golden = Json::parse(&text).expect("scripts/golden.json is valid JSON");
    let protocol: Vec<i64> = golden
        .get("protocol")
        .and_then(Json::as_arr)
        .expect("golden protocol")
        .iter()
        .map(|v| v.as_i64().expect("integer protocol"))
        .collect();
    assert_eq!(
        protocol,
        [
            PROTOCOL.warmup_instructions as i64,
            PROTOCOL.measure_instructions as i64
        ],
        "the golden stats were recorded at another protocol"
    );
    let want = golden
        .get("runs")
        .and_then(Json::as_arr)
        .expect("golden runs");
    let got = simulate();
    assert_eq!(
        got.len(),
        want.len(),
        "design list differs from the recorded one"
    );
    for (g, w) in got.iter().zip(want) {
        assert_eq!(
            g, w,
            "accuracy drifted from the golden stats:\n  got  {g}\n  want {w}"
        );
    }
}

/// Rewrites `scripts/golden.json` from the current kernel.
#[test]
#[ignore = "re-records the golden stats; run explicitly"]
fn record_golden_stats() {
    std::fs::write(golden_path(), render(&simulate())).expect("scripts/golden.json is writable");
}
