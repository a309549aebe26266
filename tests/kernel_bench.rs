//! Manual micro-bench harness for the per-branch kernel, plus accuracy
//! pinning for the optimized hot path.
//!
//! Style follows `crates/tage/tests/randomized.rs`: deterministic seeded
//! inputs, offline, no external harness. The timing tests measure the
//! kernels the hot-path work targets — `TageScl` predict/update,
//! `PatternSet::find_longest`, the three stages of the TAGE core
//! (`tage::update_history`, `tage::predict`, `tage::update`), one history
//! push through TAGE's and LLBP's fold lanes (`fold_lanes`), the pattern
//! buffer lookup, the RCR context hash, workload generation, and one
//! `scope!` entry of the profiler against a whole LLBP-X branch — and emit
//! per-call nanoseconds into the telemetry sink (`LLBPX_TELEMETRY=1`, sink
//! `BENCH_kernel_bench.json`) so a regression names the stage that moved.
//! Assertions stay loose on absolute speed (CI machines vary); the
//! pinned-accuracy test is exact.

use std::time::Instant;

use bpsim::runner::Simulation;
use llbpx::buffer::{PatternBuffer, PbLookup};
use llbpx::config::PB_ENTRIES;
use llbpx::rcr::Rcr;
use llbpx::{LengthSet, Llbp, LlbpConfig, PatternSet};
use tage::folded::{FoldLanes, OutgoingBits, FOLD_LANES};
use tage::{
    DirectionPredictor, GlobalHistory, PredictInput, Tage, TageConfig, TageScl, TslConfig,
    HISTORY_LENGTHS, NUM_TABLES,
};
use telemetry::{Json, SplitMix64};
use traces::{BranchRecord, BranchStream, StreamExt};
use workloads::ServerWorkload;

/// Branches per timing batch — large enough that per-batch overhead
/// (clock reads, loop setup) vanishes into the per-branch cost.
const BATCH: usize = 200_000;

/// Emits one kernel-latency record to the telemetry sink, if configured.
fn emit_kernel_ns(kernel: &str, calls: usize, ns_per_call: f64) {
    let Some(sink) = telemetry::record::sink_from_env("kernel_bench") else {
        return;
    };
    let line = Json::obj()
        .set("schema", telemetry::record::SCHEMA)
        .set("bench", "kernel_bench")
        .set("kernel", kernel)
        .set("calls", calls as u64)
        .set("ns_per_call", ns_per_call);
    telemetry::record::append_line(&sink, &line).expect("telemetry sink is writable");
    eprintln!(
        "telemetry: {kernel} {ns_per_call:.1} ns/call appended to {}",
        sink.display()
    );
}

/// A deterministic conditional-branch batch: a few hundred sites with
/// history-correlated directions, so TAGE exercises allocation, tagged
/// hits and the bimodal fallback rather than a single saturated pattern.
fn branch_batch(seed: u64) -> Vec<BranchRecord> {
    let mut rng = SplitMix64::new(seed);
    let sites: Vec<u64> = (0..512).map(|i| 0x40_0000 + i * 4).collect();
    let mut history = 0u64;
    (0..BATCH)
        .map(|_| {
            let pc = sites[rng.next_below(sites.len() as u64) as usize];
            // Direction correlates with recent global history plus noise:
            // predictable enough to populate tagged tables, noisy enough
            // to keep training active.
            let taken = !(history ^ pc).count_ones().is_multiple_of(3) || rng.next_bool(0.1);
            history = (history << 1) | taken as u64;
            BranchRecord::cond(pc, pc + 0x100, taken, 2)
        })
        .collect()
}

#[test]
fn tage_process_kernel_latency() {
    let records = branch_batch(0x6b65_726e);
    let mut tsl = TageScl::new(TslConfig::kilobytes(64));
    // Warm pass: populate the tables so the timed pass measures the
    // steady-state kernel, not cold allocation.
    for rec in &records {
        tsl.process(PredictInput::new(rec));
    }
    let start = Instant::now();
    let mut taken = 0u64;
    for rec in &records {
        taken += tsl
            .process(PredictInput::new(rec))
            .pred
            .expect("conditional branches always predict") as u64;
    }
    let ns = start.elapsed().as_nanos() as f64 / records.len() as f64;
    assert!(taken > 0, "the batch is not degenerate");
    assert!(ns > 0.0, "the kernel takes measurable time");
    // Guard against catastrophic regression only — the baseline kernel
    // runs in well under a microsecond per branch on any machine.
    assert!(ns < 100_000.0, "predict/update took {ns:.0} ns/branch");
    emit_kernel_ns("tage::process", records.len(), ns);
}

/// Nanoseconds per record of `pass` over `records`, on a fresh clone of
/// the warmed `tage`.
fn pass_ns(tage: &Tage, records: &[BranchRecord], pass: fn(&mut Tage, &BranchRecord)) -> f64 {
    let mut t = tage.clone();
    let start = Instant::now();
    for rec in records {
        pass(&mut t, rec);
    }
    std::hint::black_box(&t);
    start.elapsed().as_nanos() as f64 / records.len() as f64
}

/// Splits one TAGE-core branch into its stages. The stages depend on each
/// other's state, so each is timed as the difference between passes that
/// run successively more of them: history only, predict + history, and the
/// full predict + update + history step. Each repeat runs the three passes
/// back to back, so a drift in the host's speed moves all three, and each
/// pass keeps its best time. A stage whose difference is not positive is
/// below what this host resolves: it is reported as unresolved, with no
/// kernel record.
#[test]
fn tage_stage_latency() {
    const REPEATS: usize = 5;
    let records = branch_batch(0x7374_6167);
    let mut tage = Tage::new(TageConfig::base_64k());
    let step = |t: &mut Tage, rec: &BranchRecord| {
        let info = t.predict(rec.pc);
        t.update(rec.pc, rec.taken, &info);
        t.update_history(rec);
    };
    for rec in &records {
        step(&mut tage, rec);
    }
    let passes: [fn(&mut Tage, &BranchRecord); 3] = [
        |t, rec| t.update_history(rec),
        |t, rec| {
            std::hint::black_box(t.predict(rec.pc));
            t.update_history(rec);
        },
        step,
    ];
    let mut best = [f64::INFINITY; 3];
    for _ in 0..REPEATS {
        for (best, &pass) in best.iter_mut().zip(&passes) {
            *best = best.min(pass_ns(&tage, &records, pass));
        }
    }
    let [history, predicted, full] = best;
    let stages = [
        ("tage::update_history", history),
        ("tage::predict", predicted - history),
        ("tage::update", full - predicted),
    ];
    for (stage, ns) in stages {
        assert!(ns < 100_000.0, "{stage} took {ns:.0} ns/call");
        if ns > 0.0 {
            emit_kernel_ns(stage, records.len(), ns);
        } else {
            eprintln!(
                "{stage}: unresolved, {ns:.1} ns/call: its pass was no slower than the pass \
                 without it ({history:.1} / {predicted:.1} / {full:.1} ns per branch for \
                 history / + predict / + update), so the host's noise exceeds the stage"
            );
        }
    }
    assert!(
        history > 0.0 && full > history,
        "the stages take measurable time"
    );
}

/// One history push through every fold of a TAGE-family predictor: the
/// outgoing bits TAGE reads from the history windows, TAGE's three `u16`
/// folds (index, tag and second tag at the 64K TSL's widths) and LLBP's
/// two `u32` pattern-tag folds, all over the same history.
#[test]
fn fold_lanes_latency() {
    let mut rng = SplitMix64::new(0x666f_6c64);
    let stream: Vec<bool> = (0..4096).map(|_| rng.next_bool(0.5)).collect();
    let cfg = TageConfig::base_64k();
    let tag_bits: [u32; NUM_TABLES] = std::array::from_fn(|t| cfg.tag_bits(t));
    let pattern_bits = LlbpConfig::llbpx().pattern_tag_bits;
    let mut history = GlobalHistory::new();
    let mut outgoing = OutgoingBits::<FOLD_LANES>::new(&HISTORY_LENGTHS);
    let mut tage_folds = FoldLanes::<u16, FOLD_LANES, 3>::new(
        &HISTORY_LENGTHS,
        [
            &[cfg.log2_entries; NUM_TABLES],
            &tag_bits,
            &tag_bits.map(|bits| bits - 1),
        ],
    );
    let mut llbp_folds = FoldLanes::<u32, FOLD_LANES, 2>::new(
        &HISTORY_LENGTHS,
        [&[pattern_bits; NUM_TABLES], &[pattern_bits - 1; NUM_TABLES]],
    );
    let mut i = 0usize;
    let ns = best_ns(BATCH, || {
        history.push(stream[i % stream.len()]);
        outgoing.advance(&history);
        tage_folds.update(&outgoing);
        llbp_folds.update(&outgoing);
        i += 1;
    });
    std::hint::black_box((&tage_folds, &llbp_folds));
    assert!(
        tage_folds.lane(0).iter().any(|&f| f != 0),
        "the folds take the history in"
    );
    assert!(ns < 100_000.0, "a fold push took {ns:.0} ns");
    emit_kernel_ns("fold_lanes", BATCH, ns);
}

#[test]
fn pattern_set_find_longest_latency() {
    let mut rng = SplitMix64::new(0x7061_7474);
    let allowed = LengthSet::llbp_default();
    // A full hardware-shaped set: 16 patterns over the supported lengths.
    let mut set = PatternSet::new();
    let slots: Vec<u8> = allowed.slots().to_vec();
    for i in 0..16u32 {
        let len = slots[(i as usize) % slots.len()];
        set.allocate(0x1000 + i, len, i % 2 == 0, Some(16), &allowed);
    }
    // Per-length tag vectors: a mix of hits and misses, like live lookups.
    let lookups: Vec<Vec<u32>> = (0..256)
        .map(|_| {
            (0..NUM_TABLES)
                .map(|_| {
                    if rng.next_bool(0.25) {
                        0x1000 + rng.next_below(16) as u32
                    } else {
                        rng.next_u64() as u32
                    }
                })
                .collect()
        })
        .collect();
    let rounds = BATCH / lookups.len();
    let start = Instant::now();
    let mut hits = 0u64;
    for _ in 0..rounds {
        for tags in &lookups {
            hits += set.find_longest(tags, &allowed).is_some() as u64;
        }
    }
    let calls = rounds * lookups.len();
    let ns = start.elapsed().as_nanos() as f64 / calls as f64;
    assert!(hits > 0, "some lookups match");
    assert!(ns < 100_000.0, "find_longest took {ns:.0} ns/call");
    emit_kernel_ns("pattern_set::find_longest", calls, ns);
}

/// Best-of-3 nanoseconds per call of `calls` runs of `kernel`.
fn best_ns(calls: usize, mut kernel: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                kernel();
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// A pattern buffer filled to its 64 entries, probed with a mix of
/// resident (90%) and absent context IDs, as the per-branch lookup sees.
#[test]
fn pattern_buffer_lookup_latency() {
    let mut rng = SplitMix64::new(0x7062_6c6b);
    let mut pb = PatternBuffer::new(PB_ENTRIES);
    let resident: Vec<u64> = (0..PB_ENTRIES).map(|_| rng.next_u64()).collect();
    for &cid in &resident {
        pb.insert(cid, PatternSet::new(), 0, true);
    }
    let probes: Vec<u64> = (0..1024)
        .map(|_| {
            if rng.next_bool(0.9) {
                resident[rng.next_below(resident.len() as u64) as usize]
            } else {
                rng.next_u64()
            }
        })
        .collect();
    let (mut i, mut ready) = (0usize, 0u64);
    let ns = best_ns(BATCH, || {
        ready += matches!(pb.lookup(probes[i % probes.len()], 1), PbLookup::Ready(_)) as u64;
        i += 1;
    });
    assert_eq!(pb.len(), PB_ENTRIES, "lookups never evict");
    assert!(ready > 0, "resident probes hit");
    assert!(ns < 100_000.0, "pattern buffer lookup took {ns:.0} ns/call");
    emit_kernel_ns("pattern_buffer::lookup", BATCH, ns);
}

/// The shallow (W = 8) context hash LLBP-X computes on every
/// unconditional branch, interleaved with the RCR push that precedes it.
#[test]
fn rcr_context_id_latency() {
    let mut rng = SplitMix64::new(0x7263_726b);
    let pcs: Vec<u64> = (0..1024)
        .map(|_| 0x1000 + rng.next_below(4096) * 4)
        .collect();
    let mut rcr = Rcr::new();
    let (mut i, mut acc) = (0usize, 0u64);
    let ns = best_ns(BATCH, || {
        rcr.push(pcs[i % pcs.len()]);
        acc ^= rcr.context_id(8);
        i += 1;
    });
    std::hint::black_box(acc);
    assert!(
        ns < 100_000.0,
        "RCR push + context_id(8) took {ns:.0} ns/call"
    );
    emit_kernel_ns("rcr::context_id(8)", BATCH, ns);
}

/// Generating one branch record of the NodeApp stream.
#[test]
fn workload_generation_latency() {
    let spec = workloads::presets::by_name("NodeApp").expect("preset exists");
    let mut stream = ServerWorkload::new(&spec);
    let mut taken = 0u64;
    let ns = best_ns(BATCH, || {
        taken += stream.next_branch().expect("generators never end").taken as u64;
    });
    assert!(taken > 0, "the stream is not degenerate");
    assert!(ns < 100_000.0, "generation took {ns:.0} ns/branch");
    emit_kernel_ns("workload::next_branch", BATCH, ns);
}

/// The profiler's cost next to the work it measures: one `scope!` entry
/// and exit against one LLBP-X branch (prediction, training, prefetch) on
/// a NodeApp stream. The hot-path budget allows the profiler at most 2%
/// of a branch; the profiler's share per branch also counts how many
/// scopes a branch enters.
#[test]
fn scope_entry_cost_against_an_llbpx_branch() {
    let scope_ns = best_ns(BATCH * 5, || {
        let _g = telemetry::scope!("kernel_bench::scope");
        std::hint::black_box(());
    });

    let spec = workloads::presets::by_name("NodeApp").expect("preset exists");
    let records: Vec<BranchRecord> = ServerWorkload::new(&spec)
        .take_branches(BATCH as u64)
        .iter()
        .collect();
    let mut llbpx = Llbp::new(LlbpConfig::llbpx());
    for rec in &records {
        llbpx.process(PredictInput::new(rec));
    }
    let before = telemetry::profile::snapshot();
    let start = Instant::now();
    for rec in &records {
        llbpx.process(PredictInput::new(rec));
    }
    let branch_ns = start.elapsed().as_nanos() as f64 / records.len() as f64;
    let entries: u64 = telemetry::profile::since(&before)
        .iter()
        .map(|t| t.calls)
        .sum();
    let entries_per_branch = entries as f64 / records.len() as f64;

    let share = scope_ns / branch_ns;
    eprintln!(
        "profiler: {scope_ns:.2} ns/entry, LLBP-X {branch_ns:.1} ns/branch ({:.2}% per entry), \
         {entries_per_branch:.2} entries/branch ({:.2}% of a branch)",
        100.0 * share,
        100.0 * share * entries_per_branch
    );
    assert!(
        entries_per_branch > 1.0,
        "TAGE predict and update are scoped on every branch"
    );
    assert!(
        share <= 0.02,
        "one scope entry costs {:.2}% of an LLBP-X branch",
        100.0 * share
    );
    emit_kernel_ns("profile::scope", BATCH * 5, scope_ns);
    emit_kernel_ns("llbpx::process", records.len(), branch_ns);
}

/// Pins exact accuracy stats on two presets: any later change to the hot
/// path must stay bit-identical to the implementation these counts were
/// recorded from (itself verified bit-identical to the pre-optimization
/// kernel over the full fig01 protocol).
#[test]
fn accuracy_stats_are_pinned_on_two_presets() {
    let sim = Simulation {
        warmup_instructions: 300_000,
        measure_instructions: 600_000,
    };
    // (preset, instructions, cond_branches, mispredicts)
    let pins = [("NodeApp", PIN_NODEAPP), ("TPCC", PIN_TPCC)];
    for (name, (instructions, cond_branches, mispredicts)) in pins {
        let spec = workloads::presets::by_name(name).expect("preset exists");
        let mut tsl = TageScl::new(TslConfig::kilobytes(64));
        let r = sim.run(&mut tsl, &spec);
        assert_eq!(
            (r.instructions, r.cond_branches, r.mispredicts),
            (instructions, cond_branches, mispredicts),
            "{name}: accuracy drifted from the pinned pre-optimization stats"
        );
    }
}

const PIN_NODEAPP: (u64, u64, u64) = (600_006, 61_844, 2_939);
const PIN_TPCC: (u64, u64, u64) = (600_000, 61_594, 2_605);
