//! Reproduction-shape assertions: the paper's qualitative claims must hold
//! at reduced scale. Absolute numbers move with the protocol length; the
//! *orderings* here are the ones every figure depends on.
//!
//! Budgets are sized so the whole file stays in tens of seconds even in
//! debug builds; the experiment binaries check the same shapes at scale.

use bpsim::runner::Simulation;
use llbpx::{Llbp, LlbpConfig};
use tage::{TageScl, TslConfig};
use workloads::WorkloadSpec;

/// A scaled-down NodeApp-like service that converges quickly.
fn spec() -> WorkloadSpec {
    WorkloadSpec::new("shape", 0x5eed)
        .with_request_types(384)
        .with_handlers(32)
        .with_branches_per_handler(20)
        .with_h2p_per_handler(2)
        .with_noise(0.08, 0.86, 0.96)
        .with_session_stay(0.85)
}

fn sim() -> Simulation {
    Simulation {
        warmup_instructions: 1_500_000,
        measure_instructions: 2_500_000,
    }
}

#[test]
fn capacity_ordering_64k_vs_512k_vs_infinite() {
    let s = sim();
    let m64 = s
        .run(&mut TageScl::new(TslConfig::kilobytes(64)), &spec())
        .mpki();
    let m512 = s
        .run(&mut TageScl::new(TslConfig::kilobytes(512)), &spec())
        .mpki();
    let minf = s
        .run(&mut TageScl::new(TslConfig::infinite()), &spec())
        .mpki();
    assert!(
        m512 < m64 * 0.97,
        "512K TSL must clearly beat 64K ({m512:.3} vs {m64:.3})"
    );
    assert!(
        minf <= m512 * 1.02,
        "Inf TSL must not lose to 512K ({minf:.3} vs {m512:.3})"
    );
}

#[test]
fn llbp_improves_on_the_baseline_and_llbpx_improves_on_llbp() {
    let s = sim();
    let base = s
        .run(&mut TageScl::new(TslConfig::kilobytes(64)), &spec())
        .mpki();
    let llbp = s
        .run(&mut Llbp::new(LlbpConfig::paper_baseline()), &spec())
        .mpki();
    let llbpx = s.run(&mut Llbp::new(LlbpConfig::llbpx()), &spec()).mpki();
    assert!(
        llbp < base,
        "LLBP must reduce MPKI ({llbp:.3} vs {base:.3})"
    );
    assert!(
        llbpx < llbp * 1.005,
        "LLBP-X must not lose to LLBP ({llbpx:.3} vs {llbp:.3})"
    );
    assert!(llbpx < base * 0.99, "LLBP-X must clearly beat the baseline");
}

#[test]
fn zero_latency_llbp_beats_the_latency_constrained_one() {
    let s = sim();
    let lat = s
        .run(&mut Llbp::new(LlbpConfig::paper_baseline()), &spec())
        .mpki();
    let zero = s
        .run(&mut Llbp::new(LlbpConfig::zero_latency()), &spec())
        .mpki();
    assert!(
        zero <= lat * 1.005,
        "removing latency must not hurt ({zero:.3} vs {lat:.3})"
    );
}

#[test]
fn limit_study_relaxations_monotonically_help() {
    // Fig. 5's staircase: each relaxation must not hurt, and the fully
    // relaxed configuration must clearly beat the constrained one.
    let s = sim();
    let base = s
        .run(&mut Llbp::new(LlbpConfig::zero_latency()), &spec())
        .mpki();
    let no_tweaks = s
        .run(&mut Llbp::new(LlbpConfig::no_design_tweaks()), &spec())
        .mpki();
    let inf_pat = s
        .run(
            &mut Llbp::new(LlbpConfig::with_infinite_patterns()),
            &spec(),
        )
        .mpki();
    assert!(
        no_tweaks <= base * 1.03,
        "removing tweaks should help ({no_tweaks:.3} vs {base:.3})"
    );
    assert!(
        inf_pat < base,
        "infinite patterns must clearly help ({inf_pat:.3} vs {base:.3})"
    );
    assert!(
        inf_pat <= no_tweaks * 1.01,
        "staircase must descend ({inf_pat:.3} vs {no_tweaks:.3})"
    );
}

#[test]
fn llbp_generates_useful_overrides() {
    let s = sim();
    let r = s.run(&mut Llbp::new(LlbpConfig::paper_baseline()), &spec());
    let stats = r.llbp.expect("stats");
    assert!(stats.llbp_provided > 0, "LLBP should provide predictions");
    assert!(
        stats.llbp_useful > 0,
        "some provided predictions must be useful overrides"
    );
    assert!(
        stats.llbp_useful > stats.llbp_harmful,
        "useful overrides ({}) must outnumber harmful ones ({})",
        stats.llbp_useful,
        stats.llbp_harmful
    );
}

#[test]
fn bandwidth_shape_reads_dominate_and_llbpx_stays_in_band() {
    // Fig. 15a's robust shape: transfer traffic is read-dominated, and
    // LLBP-X's volume stays in LLBP's band. (The paper reports a 6% saving
    // for LLBP-X; our trace-driven PB-residence model reproduces the
    // magnitude and read/write split but the sign of that small delta
    // depends on cycle-level residence effects — see EXPERIMENTS.md.)
    let s = sim();
    let rl = s.run(&mut Llbp::new(LlbpConfig::paper_baseline()), &spec());
    let rx = s.run(&mut Llbp::new(LlbpConfig::llbpx()), &spec());
    let (lr, lw) = rl
        .llbp
        .as_ref()
        .unwrap()
        .transfer_bits_per_instruction(rl.instructions);
    let (xr, xw) = rx
        .llbp
        .as_ref()
        .unwrap()
        .transfer_bits_per_instruction(rx.instructions);
    assert!(
        lr > lw,
        "reads must dominate writes for LLBP ({lr:.2} vs {lw:.2})"
    );
    assert!(
        xr > xw,
        "reads must dominate writes for LLBP-X ({xr:.2} vs {xw:.2})"
    );
    assert!(
        xr + xw <= (lr + lw) * 1.25,
        "LLBP-X bandwidth ({:.2}) should stay in LLBP's band ({:.2})",
        xr + xw,
        lr + lw
    );
}

#[test]
fn prefetches_mostly_arrive_on_time() {
    // Fig. 14a's headline: a large majority of used prefetches are timely.
    let s = sim();
    let r = s.run(&mut Llbp::new(LlbpConfig::llbpx()), &spec());
    let stats = r.llbp.expect("stats");
    let used = stats.prefetch_on_time + stats.prefetch_late;
    assert!(used > 0, "some prefetches must be used");
    let on_time_share = stats.prefetch_on_time as f64 / used as f64;
    assert!(
        on_time_share > 0.5,
        "on-time share of used prefetches was only {on_time_share:.2}"
    );
}
