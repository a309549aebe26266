//! End-to-end pipeline test: workload generation → in-memory replay →
//! prediction → statistics, across every crate boundary.

use bpsim::runner::Simulation;
use llbpx::{Llbp, LlbpConfig};
use tage::{TageScl, TslConfig};
use traces::{BranchStream, StreamExt, TraceStats, VecTrace};
use workloads::{ServerWorkload, WorkloadSpec};

fn small_spec() -> WorkloadSpec {
    WorkloadSpec::new("pipeline", 77)
        .with_request_types(128)
        .with_handlers(16)
}

#[test]
fn predictors_see_identical_streams_from_identical_specs() {
    // Two different predictors fed from freshly constructed generators
    // must observe the same branches — the property every comparison in
    // the evaluation relies on.
    let sim = Simulation {
        warmup_instructions: 100_000,
        measure_instructions: 200_000,
    };
    let a = sim.run(&mut TageScl::new(TslConfig::kilobytes(64)), &small_spec());
    let b = sim.run(&mut Llbp::new(LlbpConfig::paper_baseline()), &small_spec());
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.cond_branches, b.cond_branches);
}

#[test]
fn replayed_trace_and_live_generator_predict_identically() {
    let sim = Simulation {
        warmup_instructions: 50_000,
        measure_instructions: 100_000,
    };

    let live = sim.run(&mut TageScl::new(TslConfig::kilobytes(64)), &small_spec());

    // Same protocol, but replayed from a captured copy of the stream.
    let mut trace: VecTrace = ServerWorkload::new(&small_spec())
        .take_branches(60_000)
        .iter()
        .collect();
    let replayed = sim.run_stream(
        &mut TageScl::new(TslConfig::kilobytes(64)),
        &mut trace,
        "pipeline",
    );

    assert_eq!(
        live.mispredicts, replayed.mispredicts,
        "replay must not perturb results"
    );
    assert_eq!(live.instructions, replayed.instructions);
}

#[test]
fn trace_statistics_agree_with_run_accounting() {
    let n = 50_000;
    let stats = TraceStats::from_stream(ServerWorkload::new(&small_spec()).take_branches(n));

    let sim = Simulation {
        warmup_instructions: 0,
        measure_instructions: u64::MAX,
    };
    let mut stream = ServerWorkload::new(&small_spec()).take_branches(n);
    let r = sim.run_stream(
        &mut TageScl::new(TslConfig::kilobytes(64)),
        &mut stream,
        "pipeline",
    );
    assert_eq!(r.instructions, stats.instructions);
    assert_eq!(r.cond_branches, stats.conditional_branches());
}

#[test]
fn llbp_second_level_observes_the_unconditional_stream() {
    // No warmup: the result's second-level stats cover the measurement
    // phase only, so the UB reconstruction below must span the same window.
    let sim = Simulation {
        warmup_instructions: 0,
        measure_instructions: 300_000,
    };
    let mut llbp = Llbp::new(LlbpConfig::paper_baseline());
    let r = sim.run(&mut llbp, &small_spec());
    let stats = r.llbp.expect("stats");

    let trace_stats = {
        // Reconstruct how many unconditional branches the run saw.
        let mut stream = ServerWorkload::new(&small_spec());
        let mut instr = 0u64;
        let mut ubs = 0u64;
        while instr < 300_000 {
            let rec = stream.next_branch().unwrap();
            instr += rec.instructions();
            if rec.kind.is_unconditional() {
                ubs += 1;
            }
        }
        ubs
    };
    // Every unconditional branch probes the CD exactly once.
    assert!(stats.cd_accesses > 0);
    assert!(
        (stats.cd_accesses as i64 - trace_stats as i64).abs() <= 2,
        "CD probes ({}) should match the UB count ({trace_stats})",
        stats.cd_accesses
    );
}
