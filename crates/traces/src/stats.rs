//! Summary statistics over a branch stream.

use std::collections::HashMap;
use std::fmt;

use crate::branch::{BranchKind, BranchRecord};
use crate::stream::BranchStream;

/// Aggregate statistics of a trace: instruction and branch volumes, kind mix,
/// taken rates, and static footprint (unique branch PCs).
///
/// ```
/// use traces::{BranchRecord, TraceStats, VecTrace};
///
/// let trace = VecTrace::new(vec![
///     BranchRecord::cond(0x10, 0x20, true, 4),
///     BranchRecord::cond(0x10, 0x20, false, 4),
/// ]);
/// let stats = TraceStats::from_stream(trace);
/// assert_eq!(stats.instructions, 10);
/// assert_eq!(stats.branches, 2);
/// assert_eq!(stats.unique_pcs, 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total retired instructions (branches plus gaps).
    pub instructions: u64,
    /// Total dynamic branches of any kind.
    pub branches: u64,
    /// Dynamic branches per kind, indexed by `BranchKind as usize`.
    pub per_kind: [u64; 6],
    /// Dynamic taken branches (unconditional kinds always count).
    pub taken: u64,
    /// Number of distinct static branch PCs.
    pub unique_pcs: usize,
    /// Number of distinct static conditional-branch PCs.
    pub unique_cond_pcs: usize,
}

impl TraceStats {
    /// Computes statistics by draining `stream`.
    pub fn from_stream<S: BranchStream>(mut stream: S) -> Self {
        let mut stats = TraceStats::default();
        // Track per-PC whether the branch was ever conditional.
        let mut pcs: HashMap<u64, bool> = HashMap::new();
        while let Some(record) = stream.next_branch() {
            stats.observe(&record, &mut pcs);
        }
        stats.unique_pcs = pcs.len();
        stats.unique_cond_pcs = pcs.values().filter(|&&c| c).count();
        stats
    }

    fn observe(&mut self, record: &BranchRecord, pcs: &mut HashMap<u64, bool>) {
        self.instructions += record.instructions();
        self.branches += 1;
        self.per_kind[record.kind as usize] += 1;
        if record.taken {
            self.taken += 1;
        }
        let cond = pcs.entry(record.pc).or_insert(false);
        *cond |= record.kind.is_conditional();
    }

    /// Dynamic count of conditional branches.
    pub fn conditional_branches(&self) -> u64 {
        self.per_kind[BranchKind::CondDirect as usize]
    }

    /// Dynamic count of unconditional control transfers.
    pub fn unconditional_branches(&self) -> u64 {
        self.branches - self.conditional_branches()
    }

    /// Fraction of dynamic branches that were taken, or 0 for empty traces.
    pub fn taken_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.taken as f64 / self.branches as f64
        }
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "instructions        {:>14}", self.instructions)?;
        writeln!(f, "branches            {:>14}", self.branches)?;
        for kind in BranchKind::ALL {
            writeln!(
                f,
                "  {:<6}            {:>14}",
                kind.to_string(),
                self.per_kind[kind as usize]
            )?;
        }
        writeln!(
            f,
            "taken rate          {:>13.1}%",
            self.taken_rate() * 100.0
        )?;
        writeln!(f, "static branches     {:>14}", self.unique_pcs)?;
        write!(f, "static conditionals {:>14}", self.unique_cond_pcs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::BranchRecord;
    use crate::stream::VecTrace;

    fn mixed_trace() -> VecTrace {
        VecTrace::new(vec![
            BranchRecord::new(0x100, 0x500, BranchKind::DirectCall, true, 5),
            BranchRecord::new(0x504, 0x520, BranchKind::CondDirect, true, 1),
            BranchRecord::new(0x524, 0x540, BranchKind::CondDirect, false, 1),
            BranchRecord::new(0x544, 0x104, BranchKind::Return, true, 2),
            BranchRecord::new(0x504, 0x520, BranchKind::CondDirect, true, 1),
        ])
    }

    #[test]
    fn counts_instructions_branches_and_kinds() {
        let stats = TraceStats::from_stream(mixed_trace());
        // Gaps 5,1,1,2,1 plus one instruction per branch record.
        assert_eq!(stats.instructions, (5 + 1 + 1 + 2 + 1) + 5);
        assert_eq!(stats.branches, 5);
        assert_eq!(stats.conditional_branches(), 3);
        assert_eq!(stats.unconditional_branches(), 2);
        assert_eq!(stats.per_kind[BranchKind::DirectCall as usize], 1);
        assert_eq!(stats.per_kind[BranchKind::Return as usize], 1);
    }

    #[test]
    fn counts_unique_static_branches() {
        let stats = TraceStats::from_stream(mixed_trace());
        assert_eq!(stats.unique_pcs, 4);
        assert_eq!(stats.unique_cond_pcs, 2);
    }

    #[test]
    fn rates_handle_empty_traces() {
        let stats = TraceStats::from_stream(VecTrace::default());
        assert_eq!(stats.taken_rate(), 0.0);
    }

    #[test]
    fn taken_rate_counts_unconditionals() {
        let stats = TraceStats::from_stream(mixed_trace());
        assert!((stats.taken_rate() - 4.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_core_quantities() {
        let s = TraceStats::from_stream(mixed_trace()).to_string();
        assert!(s.contains("instructions"));
        assert!(s.contains("taken rate"));
    }
}
