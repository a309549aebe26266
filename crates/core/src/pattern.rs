//! Patterns: the unit of metadata LLBP stores per context.
//!
//! A pattern is TAGE's tagged-entry payload lifted out of the tables: a
//! partial tag over (branch PC, global history of one length), the history
//! length it was hashed with, and a 3-bit prediction counter (§II-C.3).

/// One LLBP pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pattern {
    /// Partial tag (width per [`crate::LlbpConfig::pattern_tag_bits`]).
    pub tag: u32,
    /// Index into [`tage::HISTORY_LENGTHS`].
    pub len_idx: u8,
    /// Signed 3-bit prediction counter (-4..=3); sign is the direction.
    pub ctr: i8,
}

impl Pattern {
    /// A freshly allocated pattern: weak counter in direction `taken`.
    pub fn allocate(tag: u32, len_idx: u8, taken: bool) -> Self {
        Pattern {
            tag,
            len_idx,
            ctr: if taken { 0 } else { -1 },
        }
    }

    /// Predicted direction.
    #[inline]
    pub fn taken(&self) -> bool {
        self.ctr >= 0
    }

    /// Counter saturated in either direction: a "high-confidence" pattern
    /// for the PB overflow signal and CD replacement policy.
    #[inline]
    pub fn is_confident(&self) -> bool {
        self.ctr == 3 || self.ctr == -4
    }

    /// Confidence magnitude `|2c + 1|`, used to pick replacement victims
    /// ("replace the least-confident pattern", §II-C.3).
    #[inline]
    pub fn confidence(&self) -> u8 {
        (2 * i16::from(self.ctr) + 1).unsigned_abs() as u8
    }

    /// Saturating counter update toward `taken`. Returns `true` when the
    /// counter actually moved (a saturated counter re-trained in its own
    /// direction is unchanged, so the containing set stays clean).
    #[inline]
    pub fn train(&mut self, taken: bool) -> bool {
        let before = self.ctr;
        if taken {
            self.ctr = (self.ctr + 1).min(3);
        } else {
            self.ctr = (self.ctr - 1).max(-4);
        }
        self.ctr != before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_weak_in_the_right_direction() {
        let t = Pattern::allocate(0x1a, 3, true);
        assert!(t.taken());
        assert_eq!(t.confidence(), 1);
        let n = Pattern::allocate(0x1a, 3, false);
        assert!(!n.taken());
        assert_eq!(n.confidence(), 1);
    }

    #[test]
    fn training_saturates_and_flags_confidence() {
        let mut p = Pattern::allocate(1, 0, true);
        assert!(!p.is_confident());
        for _ in 0..5 {
            p.train(true);
        }
        assert_eq!(p.ctr, 3);
        assert!(p.is_confident());
        assert_eq!(p.confidence(), 7);
        for _ in 0..10 {
            p.train(false);
        }
        assert_eq!(p.ctr, -4);
        assert!(p.is_confident());
        assert_eq!(p.confidence(), 7);
    }

    #[test]
    fn confidence_is_symmetric_around_the_weak_states() {
        assert_eq!(
            Pattern {
                tag: 0,
                len_idx: 0,
                ctr: 0
            }
            .confidence(),
            1
        );
        assert_eq!(
            Pattern {
                tag: 0,
                len_idx: 0,
                ctr: -1
            }
            .confidence(),
            1
        );
        assert_eq!(
            Pattern {
                tag: 0,
                len_idx: 0,
                ctr: 1
            }
            .confidence(),
            3
        );
        assert_eq!(
            Pattern {
                tag: 0,
                len_idx: 0,
                ctr: -2
            }
            .confidence(),
            3
        );
    }
}
