//! H2P explorer: find the hard-to-predict branches of a workload, then
//! show how LLBP-X's dynamic context depth treats them.
//!
//! This walks the same analysis path as the paper's §III-B: identify the
//! branches with the most mispredictions under the baseline TSL, classify
//! them against the workload's ground truth (the generator knows which
//! sites are H2P), and report how many contexts LLBP-X pushed deep.
//!
//! ```sh
//! cargo run --release -p bench --example h2p_explorer [workload]
//! ```

use std::collections::HashMap;

use bpsim::report::Table;
use llbpx::{Llbp, LlbpConfig};
use tage::{DirectionPredictor, PredictInput, TageScl, TslConfig};
use traces::{BranchStream, StreamExt};
use workloads::engine::SiteClass;
use workloads::ServerWorkload;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "NodeApp".to_owned());
    let spec = workloads::presets::by_name(&name)
        .unwrap_or_else(|| panic!("unknown preset {name}; see workloads::presets::names()"));

    // Pass 1: per-branch misprediction profile under the 64K TSL baseline.
    let mut tsl = TageScl::new(TslConfig::kilobytes(64));
    let mut per_pc: HashMap<u64, (u64, u64)> = HashMap::new(); // (execs, misses)
    let mut stream = ServerWorkload::new(&spec).take_branches(3_000_000);
    while let Some(rec) = stream.next_branch() {
        if let Some(pred) = tsl.process(PredictInput::new(&rec)).pred {
            let e = per_pc.entry(rec.pc).or_insert((0, 0));
            e.0 += 1;
            if pred != rec.taken {
                e.1 += 1;
            }
        }
    }

    let mut ranked: Vec<(u64, u64, u64)> = per_pc
        .into_iter()
        .map(|(pc, (execs, misses))| (pc, execs, misses))
        .collect();
    ranked.sort_by_key(|&(_, _, misses)| std::cmp::Reverse(misses));

    let mut table = Table::new(
        format!("top misprediction contributors, {name} (64K TSL)"),
        &[
            "pc",
            "executions",
            "mispredicts",
            "miss rate",
            "generator class",
        ],
    );
    let mut h2p_in_top = 0;
    for &(pc, execs, misses) in ranked.iter().take(15) {
        let class = match ServerWorkload::classify_pc(&spec, pc) {
            Some((_, _, SiteClass::H2p)) => {
                h2p_in_top += 1;
                "H2P (prev-request correlated)"
            }
            Some((_, _, SiteClass::Noisy)) => "noisy-biased",
            Some((_, _, SiteClass::Loop)) => "loop",
            Some((_, _, SiteClass::Typed)) => "request-type determined",
            None => "dispatch/leaf/other",
        };
        table.row([
            format!("{pc:#x}"),
            format!("{execs}"),
            format!("{misses}"),
            format!("{:.1}%", 100.0 * misses as f64 / execs as f64),
            class.into(),
        ]);
    }
    print!("{}", table.render());
    println!("\nH2P sites among the top 15 contributors: {h2p_in_top}");

    // Pass 2: how does LLBP-X's depth adaptation react?
    let mut llbpx = Llbp::new(LlbpConfig::llbpx());
    let mut stream = ServerWorkload::new(&spec).take_branches(3_000_000);
    while let Some(rec) = stream.next_branch() {
        llbpx.process(PredictInput::new(&rec));
    }
    let deep = llbpx.depth_decisions().values().filter(|&&d| d).count();
    let tracked = llbpx.depth_decisions().len();
    println!(
        "LLBP-X context tracking: {tracked} contexts saw allocation tracking, \
         {deep} ended at deep depth (W=64)"
    );
    println!(
        "depth transitions during the run: {}",
        llbpx.stats().depth_transitions
    );
}
