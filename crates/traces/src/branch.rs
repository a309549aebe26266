//! Dynamic branch records and branch-kind classification.

use std::fmt;

/// The static class of a branch instruction.
///
/// The split mirrors what the predictors in this workspace care about:
/// conditional branches are the prediction targets, while unconditional
/// control transfers (jumps, calls, returns) feed LLBP's rolling context
/// register. Indirect variants exist so traces can carry realistic control
/// flow even though direction prediction ignores the distinction.
///
/// ```
/// use traces::BranchKind;
///
/// assert!(BranchKind::CondDirect.is_conditional());
/// assert!(BranchKind::Return.is_unconditional());
/// assert!(BranchKind::DirectCall.is_call());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum BranchKind {
    /// Conditional direct branch (the object of direction prediction).
    CondDirect = 0,
    /// Unconditional direct jump.
    UncondDirect = 1,
    /// Unconditional indirect jump (e.g. a jump table).
    UncondIndirect = 2,
    /// Direct function call.
    DirectCall = 3,
    /// Indirect function call (e.g. a virtual dispatch).
    IndirectCall = 4,
    /// Function return.
    Return = 5,
}

impl BranchKind {
    /// All branch kinds, in discriminant order.
    pub const ALL: [BranchKind; 6] = [
        BranchKind::CondDirect,
        BranchKind::UncondDirect,
        BranchKind::UncondIndirect,
        BranchKind::DirectCall,
        BranchKind::IndirectCall,
        BranchKind::Return,
    ];

    /// Returns `true` for branches whose direction must be predicted.
    #[inline]
    pub fn is_conditional(self) -> bool {
        self == BranchKind::CondDirect
    }

    /// Returns `true` for always-taken control transfers.
    ///
    /// These are the branches LLBP hashes into its rolling context register.
    #[inline]
    pub fn is_unconditional(self) -> bool {
        !self.is_conditional()
    }

    /// Returns `true` for calls (direct or indirect).
    #[inline]
    pub fn is_call(self) -> bool {
        matches!(self, BranchKind::DirectCall | BranchKind::IndirectCall)
    }
}

impl fmt::Display for BranchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            BranchKind::CondDirect => "cond",
            BranchKind::UncondDirect => "jmp",
            BranchKind::UncondIndirect => "ijmp",
            BranchKind::DirectCall => "call",
            BranchKind::IndirectCall => "icall",
            BranchKind::Return => "ret",
        };
        f.write_str(name)
    }
}

/// One dynamic branch instance observed in (or synthesized into) a trace.
///
/// Besides the branch itself, a record carries `instr_gap`: the number of
/// non-branch instructions retired since the previous branch. The simulator
/// sums `instr_gap + 1` over all records to obtain the instruction count that
/// MPKI (mispredictions per kilo-instruction) is normalized by, exactly as a
/// ChampSim-style trace would.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchRecord {
    /// Address of the branch instruction.
    pub pc: u64,
    /// Address control transfers to when the branch is taken.
    pub target: u64,
    /// Static classification of the branch.
    pub kind: BranchKind,
    /// Resolved direction. Always `true` for unconditional kinds.
    pub taken: bool,
    /// Non-branch instructions retired since the previous branch.
    pub instr_gap: u32,
}

impl BranchRecord {
    /// Creates a record.
    ///
    /// # Panics
    ///
    /// Panics (debug builds only) if an unconditional branch is marked
    /// not-taken, which would be a malformed trace.
    #[inline]
    pub fn new(pc: u64, target: u64, kind: BranchKind, taken: bool, instr_gap: u32) -> Self {
        debug_assert!(
            kind.is_conditional() || taken,
            "unconditional branch at {pc:#x} recorded as not taken"
        );
        BranchRecord {
            pc,
            target,
            kind,
            taken,
            instr_gap,
        }
    }

    /// Convenience constructor for a conditional direct branch.
    #[inline]
    pub fn cond(pc: u64, target: u64, taken: bool, instr_gap: u32) -> Self {
        BranchRecord::new(pc, target, BranchKind::CondDirect, taken, instr_gap)
    }

    /// Instructions this record accounts for: the branch plus its gap.
    #[inline]
    pub fn instructions(&self) -> u64 {
        u64::from(self.instr_gap) + 1
    }
}

impl fmt::Display for BranchRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:#012x} {} -> {:#012x} [{}] gap={}",
            self.pc,
            self.kind,
            self.target,
            if self.taken { "T" } else { "N" },
            self.instr_gap
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conditional_and_unconditional_partition_kinds() {
        let conditional: Vec<_> = BranchKind::ALL
            .iter()
            .filter(|k| k.is_conditional())
            .collect();
        assert_eq!(conditional, [&BranchKind::CondDirect]);
        for kind in BranchKind::ALL {
            assert_ne!(kind.is_conditional(), kind.is_unconditional());
        }
    }

    #[test]
    fn calls_and_returns_are_classified() {
        assert!(BranchKind::DirectCall.is_call());
        assert!(BranchKind::IndirectCall.is_call());
        assert!(!BranchKind::Return.is_call());
    }

    #[test]
    fn record_counts_itself_plus_gap() {
        let r = BranchRecord::cond(0x1000, 0x2000, true, 9);
        assert_eq!(r.instructions(), 10);
        let r = BranchRecord::cond(0x1000, 0x2000, false, 0);
        assert_eq!(r.instructions(), 1);
    }

    #[test]
    fn display_is_nonempty_and_mentions_direction() {
        let r = BranchRecord::cond(0x1000, 0x2000, true, 3);
        let s = r.to_string();
        assert!(s.contains("[T]"));
        assert!(s.contains("cond"));
    }
}
