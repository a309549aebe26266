//! Randomized tests for the trace model.
//!
//! Property tests driven by the in-repo deterministic PRNG, so the
//! workspace needs no registry access.

use telemetry::SplitMix64;
use traces::{BranchKind, BranchRecord, StreamExt, VecTrace};

fn rand_record(rng: &mut SplitMix64) -> BranchRecord {
    let kind = BranchKind::ALL[rng.next_below(BranchKind::ALL.len() as u64) as usize];
    // Unconditional branches are always taken by construction.
    let taken = rng.next_bool(0.5) || kind.is_unconditional();
    BranchRecord {
        pc: rng.next_u64(),
        target: rng.next_u64(),
        kind,
        taken,
        instr_gap: rng.next_u64() as u32,
    }
}

fn rand_records(rng: &mut SplitMix64, max_len: u64) -> Vec<BranchRecord> {
    let len = rng.next_below(max_len + 1) as usize;
    (0..len).map(|_| rand_record(rng)).collect()
}

/// take_branches(n) yields exactly min(n, len) records, in order.
#[test]
fn take_respects_bounds() {
    let mut rng = SplitMix64::new(0x7461_6b65);
    for _ in 0..128 {
        let records = rand_records(&mut rng, 100);
        let n = rng.next_below(200);
        let taken: Vec<BranchRecord> = VecTrace::new(records.clone())
            .take_branches(n)
            .iter()
            .collect();
        let expected: Vec<BranchRecord> = records.into_iter().take(n as usize).collect();
        assert_eq!(taken, expected);
    }
}

/// Instruction accounting: sum of instructions() equals branches plus the
/// sum of gaps.
#[test]
fn instruction_accounting_is_additive() {
    let mut rng = SplitMix64::new(0x6163_6374);
    for _ in 0..128 {
        let records = rand_records(&mut rng, 100);
        let total: u64 = records.iter().map(|r| r.instructions()).sum();
        let gaps: u64 = records.iter().map(|r| u64::from(r.instr_gap)).sum();
        assert_eq!(total, gaps + records.len() as u64);
    }
}
