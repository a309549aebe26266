//! Bimodal fallback predictor (the "BIM" of the paper's Fig. 3).

/// A table of 2-bit saturating counters indexed by branch PC.
///
/// Serves as TAGE's default prediction when no tagged table matches, and as
/// the 1-cycle first guess in the overriding-pipeline model (§VII-C).
///
/// ```
/// use tage::bimodal::Bimodal;
///
/// let mut b = Bimodal::new(10);
/// for _ in 0..4 {
///     let pred = b.predict(0x40);
///     b.update(0x40, true);
///     let _ = pred;
/// }
/// assert!(b.predict(0x40));
/// ```
#[derive(Debug, Clone)]
pub struct Bimodal {
    counters: Vec<i8>,
    mask: u64,
}

impl Bimodal {
    /// Creates a bimodal table with `2^log2_entries` counters, initialized
    /// to weakly not-taken.
    ///
    /// # Panics
    ///
    /// Panics if `log2_entries` exceeds 28 (a guard against typo sizes).
    pub fn new(log2_entries: u32) -> Self {
        assert!(
            log2_entries <= 28,
            "bimodal log2_entries {log2_entries} too large"
        );
        Bimodal {
            counters: vec![-1; 1 << log2_entries],
            mask: (1 << log2_entries) - 1,
        }
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }

    /// Predicted direction for `pc`.
    #[inline]
    pub fn predict(&self, pc: u64) -> bool {
        self.counters[self.index(pc)] >= 0
    }

    /// Confidence: `true` when the counter is saturated.
    #[inline]
    pub fn confident(&self, pc: u64) -> bool {
        let c = self.counters[self.index(pc)];
        c == 1 || c == -2
    }

    /// Trains the counter for `pc` toward `taken`.
    #[inline]
    pub fn update(&mut self, pc: u64, taken: bool) {
        let idx = self.index(pc);
        let c = &mut self.counters[idx];
        if taken {
            *c = (*c + 1).min(1);
        } else {
            *c = (*c - 1).max(-2);
        }
    }

    /// Storage in bits (2 bits per counter).
    pub fn storage_bits(&self) -> u64 {
        self.counters.len() as u64 * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_weakly_not_taken() {
        let b = Bimodal::new(8);
        assert!(!b.predict(0x1000));
        assert!(!b.confident(0x1000));
    }

    #[test]
    fn saturates_in_both_directions() {
        let mut b = Bimodal::new(8);
        for _ in 0..10 {
            b.update(0x40, true);
        }
        assert!(b.predict(0x40));
        assert!(b.confident(0x40));
        for _ in 0..10 {
            b.update(0x40, false);
        }
        assert!(!b.predict(0x40));
        assert!(b.confident(0x40));
    }

    #[test]
    fn hysteresis_requires_two_flips() {
        let mut b = Bimodal::new(8);
        for _ in 0..4 {
            b.update(0x40, true);
        }
        b.update(0x40, false); // weakly taken now
        assert!(
            b.predict(0x40),
            "one contrary outcome must not flip a saturated counter"
        );
        b.update(0x40, false);
        assert!(!b.predict(0x40));
    }

    #[test]
    fn different_pcs_use_different_counters() {
        let mut b = Bimodal::new(8);
        b.update(0x40, true);
        b.update(0x40, true);
        assert!(b.predict(0x40));
        assert!(!b.predict(0x44), "neighboring branch must be unaffected");
    }

    #[test]
    fn storage_matches_size() {
        assert_eq!(Bimodal::new(13).storage_bits(), (1 << 13) * 2);
    }
}
