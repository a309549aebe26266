//! Second-level diagnostics: drive LLBP and LLBP-X over a preset and dump
//! the full second-level counter set — prefetch classes, store traffic,
//! allocation-length histogram, CTT state.
//!
//! ```sh
//! cargo run --release -p llbpx --example diagnostics [workload] [branches]
//! ```

use llbpx::{Llbp, LlbpConfig};
use tage::{DirectionPredictor, PredictInput};
use traces::{BranchStream, StreamExt};
use workloads::ServerWorkload;

fn run(p: &mut Llbp, spec: &workloads::WorkloadSpec, n: u64) {
    let mut stream = ServerWorkload::new(spec);
    let mut warm = (&mut stream).take_branches(n / 2);
    while let Some(rec) = warm.next_branch() {
        p.process(PredictInput::new(&rec));
    }
    let (mut instr, mut miss) = (0u64, 0u64);
    let mut meas = (&mut stream).take_branches(n);
    while let Some(rec) = meas.next_branch() {
        let pred = p.process(PredictInput::new(&rec)).pred;
        instr += rec.instructions();
        if let Some(pr) = pred {
            if pr != rec.taken {
                miss += 1;
            }
        }
    }
    p.finish();
    let s = p.stats();
    println!("=== {} ===", p.name());
    println!(
        "  MPKI                 {:.3}",
        miss as f64 * 1000.0 / instr as f64
    );
    println!(
        "  provided / useful    {} / {}",
        s.llbp_provided, s.llbp_useful
    );
    println!(
        "  allocations          {} ({} dropped by range)",
        s.allocations, s.alloc_dropped_range
    );
    println!("  sets created         {}", s.sets_created);
    println!("  store reads/writes   {} / {}", s.ps_reads, s.ps_writes);
    println!(
        "  prefetches           {} issued: {} on-time, {} late, {} unused",
        s.prefetches_issued, s.prefetch_on_time, s.prefetch_late, s.prefetch_unused
    );
    print!("  allocation lengths  ");
    for (i, &c) in s.alloc_len_histogram.iter().enumerate() {
        if c > 0 {
            print!(" {}:{}", tage::HISTORY_LENGTHS[i], c);
        }
    }
    println!();
    if let Some(ctt) = p.ctt() {
        println!(
            "  CTT                  {} tracked, {} deep, {} transitions",
            ctt.population(),
            ctt.deep_count(),
            ctt.transitions()
        );
    }
}

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "NodeApp".to_owned());
    let n: u64 = std::env::args()
        .nth(2)
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000_000);
    let spec = workloads::presets::by_name(&name)
        .unwrap_or_else(|| panic!("unknown preset {name}; see workloads::presets::names()"));
    run(&mut Llbp::new(LlbpConfig::paper_baseline()), &spec, n);
    run(&mut Llbp::new(LlbpConfig::llbpx()), &spec, n);
}
