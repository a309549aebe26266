//! Cross-crate interoperability: the seams between traces, workloads,
//! tage, llbpx and bpsim.

use bpsim::analysis::ContextAnalysis;
use bpsim::runner::{RunResult, Simulation};
use bpsim::SimPredictor;
use llbpx::{Llbp, LlbpConfig};
use tage::{DirectionPredictor, FoldedHistory, GlobalHistory, PredictInput, TageScl, TslConfig};
use traces::{BranchKind, BranchRecord};
use workloads::WorkloadSpec;

#[test]
fn storage_budgets_line_up_with_the_paper() {
    // 64K TSL ≈ 64 KiB class, LLBP adds ~515 KiB, LLBP-X adds ~9 KiB CTT.
    let tsl = TageScl::new(TslConfig::kilobytes(64));
    let llbp = Llbp::new(LlbpConfig::paper_baseline());
    let llbpx = Llbp::new(LlbpConfig::llbpx());

    let kib = |bits: u64| bits as f64 / 8.0 / 1024.0;
    let tsl_kib = kib(tsl.storage_bits());
    assert!(
        (40.0..=80.0).contains(&tsl_kib),
        "TSL budget {tsl_kib:.0} KiB"
    );

    let second_level = kib(llbp.storage_bits()) - tsl_kib;
    assert!(
        (480.0..=560.0).contains(&second_level),
        "LLBP adds {second_level:.0} KiB"
    );

    let ctt = kib(llbpx.storage_bits()) - kib(llbp.storage_bits());
    assert!((8.0..=10.0).contains(&ctt), "CTT adds {ctt:.1} KiB");
}

#[test]
fn folded_history_is_shareable_across_crates() {
    // The llbpx crate folds pattern tags off tage's GlobalHistory; verify
    // the public API supports exactly that composition.
    let mut h = GlobalHistory::new();
    let mut fold = FoldedHistory::new(78, 13);
    for i in 0..500 {
        h.push(i % 7 == 0);
        fold.update(&h);
    }
    assert_eq!(fold.value(), fold.compute_reference(&h));
    assert!(fold.value() < (1 << 13));
}

#[test]
fn every_design_accepts_every_branch_kind() {
    let designs: Vec<Box<dyn SimPredictor>> = vec![
        Box::new(TageScl::new(TslConfig::kilobytes(64))),
        Box::new(Llbp::new(LlbpConfig::paper_baseline())),
        Box::new(Llbp::new(LlbpConfig::llbpx())),
    ];
    for mut design in designs {
        for (i, kind) in BranchKind::ALL.into_iter().enumerate() {
            let taken = kind.is_unconditional() || i % 2 == 0;
            let rec = BranchRecord::new(0x1000 + i as u64 * 64, 0x9000, kind, taken, 3);
            let out = design.process(PredictInput::new(&rec));
            assert_eq!(
                out.pred.is_some(),
                kind.is_conditional(),
                "{} kind {kind}",
                design.name()
            );
        }
    }
}

#[test]
fn opt_w_oracle_flows_between_runs() {
    let spec = WorkloadSpec::new("oracle", 9)
        .with_request_types(128)
        .with_handlers(16);
    let sim = Simulation {
        warmup_instructions: 300_000,
        measure_instructions: 600_000,
    };

    // The oracle travels in the LLBP-X run's record, as a journaled cell's
    // does: the deep contexts survive the round trip exactly.
    let first = sim.run(&mut Llbp::new(LlbpConfig::llbpx()), &spec);
    let record = RunResult::from_json(&first.to_json(&sim)).expect("the record restores");
    assert_eq!(record.deep_contexts, first.deep_contexts);
    let deep = record.deep_contexts.expect("LLBP-X decides depths");

    let cfg = LlbpConfig {
        label: "LLBP-X Opt-W".to_owned(),
        ..LlbpConfig::llbpx()
    };
    let mut oracled = Llbp::with_oracle(cfg, deep);
    let second = sim.run(&mut oracled, &spec);

    assert_eq!(second.name, "LLBP-X Opt-W");
    // Opt-W skips retraining on depth transitions: it must not be
    // substantially worse than the adaptive run.
    assert!(
        second.mpki() <= first.mpki() * 1.05,
        "Opt-W ({:.3}) should track adaptive LLBP-X ({:.3})",
        second.mpki(),
        first.mpki()
    );
}

#[test]
fn analysis_statistics_flow_to_the_sim_layer() {
    let spec = WorkloadSpec::new("analysis", 4)
        .with_request_types(128)
        .with_handlers(16);
    let sim = Simulation {
        warmup_instructions: 200_000,
        measure_instructions: 400_000,
    };
    let run = sim.run(&mut ContextAnalysis::predictor(8), &spec);
    let analysis = ContextAnalysis::from_run(&run).expect("an analysis run carries its data");
    assert!(!analysis.contexts.is_empty());
    let total_useful: u64 = analysis.useful_by_len.iter().sum();
    let per_ctx_events: usize = analysis.contexts.iter().map(|c| c.useful_patterns).sum();
    assert!(
        total_useful >= per_ctx_events as u64,
        "dynamic events >= distinct patterns"
    );
}

#[test]
fn workload_presets_drive_all_predictors() {
    // Smoke: one quick run of each design over one real preset.
    let spec = workloads::presets::by_name("Chirper").expect("preset exists");
    let sim = Simulation {
        warmup_instructions: 150_000,
        measure_instructions: 250_000,
    };
    for mut design in [
        Box::new(TageScl::new(TslConfig::kilobytes(64))) as Box<dyn SimPredictor>,
        Box::new(Llbp::new(LlbpConfig::paper_baseline())),
        Box::new(Llbp::new(LlbpConfig::llbpx())),
    ] {
        let r = sim.run(design.as_mut(), &spec);
        assert!(r.cond_branches > 1000, "{}", r.name);
        assert!(
            r.mpki() < 50.0,
            "{} produced absurd MPKI {}",
            r.name,
            r.mpki()
        );
    }
}
