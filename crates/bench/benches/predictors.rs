//! Microbenchmarks: prediction throughput of the simulated designs, and the
//! cost of the workload generator itself.
//!
//! These complement the `fig*` experiment binaries (which regenerate the
//! paper's tables/figures): here we measure the *simulator's* speed, which
//! bounds how much evaluation a given time budget buys.
//!
//! This is a self-contained `std::time` harness so the offline tier-1 build
//! never needs a registry. Each measurement reports the median of
//! `SAMPLES` trials as branches/second, and the whole run can be captured
//! as one JSON line with `LLBPX_TELEMETRY=1` (or `--json <path>`).

use std::hint::black_box;
use std::time::Instant;

use bpsim::SimPredictor;
use tage::PredictInput;
use telemetry::Json;
use traces::{BranchRecord, BranchStream, StreamExt};
use workloads::ServerWorkload;

const BATCH: u64 = 50_000;
const SAMPLES: usize = 10;

fn trace_batch() -> Vec<BranchRecord> {
    let spec = workloads::presets::by_name("NodeApp").expect("preset exists");
    ServerWorkload::new(&spec).take_branches(BATCH).iter().collect()
}

/// Runs `f` `SAMPLES` times and returns the median wall seconds per run.
fn median_seconds(mut f: impl FnMut()) -> f64 {
    let mut secs: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    secs[secs.len() / 2]
}

fn main() {
    // `cargo test` invokes harness-less bench targets too; stay silent there.
    if std::env::args().any(|a| a == "--test") {
        return;
    }

    let records = trace_batch();
    let mut results: Vec<(String, f64)> = Vec::new();

    type DesignList = Vec<(&'static str, fn() -> Box<dyn SimPredictor>)>;
    let designs: DesignList = vec![
        ("tsl64", bench::tsl64 as fn() -> Box<dyn SimPredictor>),
        ("tsl512", || bench::tsl(512)),
        ("llbp", bench::llbp),
        ("llbpx", bench::llbpx),
    ];
    println!("process_branches ({BATCH} branches, median of {SAMPLES}):");
    for (name, make) in designs {
        let secs = median_seconds(|| {
            let mut p = make();
            for rec in &records {
                black_box(p.process(PredictInput::new(rec)));
            }
        });
        println!("  {name:>8}: {:>10.0} branches/s", BATCH as f64 / secs);
        results.push((format!("process_branches/{name}"), secs));
    }

    let spec = workloads::presets::by_name("NodeApp").expect("preset exists");
    let gen_secs = median_seconds(|| {
        let mut stream = ServerWorkload::new(&spec).take_branches(BATCH);
        let mut count = 0u64;
        while let Some(rec) = stream.next_branch() {
            count += rec.instructions();
        }
        black_box(count);
    });
    println!("workload_generation ({BATCH} branches, median of {SAMPLES}):");
    println!("  nodeapp_stream: {:>10.0} branches/s", BATCH as f64 / gen_secs);
    results.push(("workload_generation/nodeapp_stream".into(), gen_secs));

    if let Some(sink) = telemetry::record::sink_from_env("predictors") {
        let mut runs = Json::obj();
        for (name, secs) in &results {
            runs = runs.set(
                name.as_str(),
                Json::obj()
                    .set("median_seconds", *secs)
                    .set("branches_per_second", BATCH as f64 / secs),
            );
        }
        let line = Json::obj()
            .set("schema", telemetry::record::SCHEMA)
            .set("bench", "predictors")
            .set("batch_branches", BATCH)
            .set("samples", SAMPLES as u64)
            .set("measurements", runs);
        telemetry::record::append_line(&sink, &line).expect("telemetry sink is writable");
        eprintln!("telemetry: appended to {}", sink.display());
    }
}
