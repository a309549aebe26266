//! Incrementally folded (compressed) history registers.
//!
//! A TAGE table with history length `L` and an index of `w` bits cannot hash
//! all `L` bits per prediction; hardware keeps a *folded* register that XORs
//! the history into `w` bits and updates it in O(1) per branch: shift in the
//! newest bit, XOR out the bit that just left the `L`-bit window.
//!
//! [`FoldedHistory`] is the single-fold reference. The predictors run
//! [`FoldLanes`], which updates every fold over a set of history lengths in
//! one vectorizable pass: TAGE for its indices and tags, and the `llbpx`
//! crate for pattern tags at its own widths (13 / 20 bits) from the same
//! global history.

use crate::history::GlobalHistory;

/// An incrementally maintained `width`-bit fold of the most recent
/// `length` history bits.
///
/// Update protocol: push the new bit into the [`GlobalHistory`] first, then
/// call [`update`](Self::update) exactly once. The fold then equals the XOR
/// of the `length`-bit window sliced into `width`-bit chunks, which
/// [`compute_reference`](Self::compute_reference) evaluates directly (used
/// for verification).
///
/// ```
/// use tage::{FoldedHistory, GlobalHistory};
///
/// let mut h = GlobalHistory::new();
/// let mut f = FoldedHistory::new(7, 4);
/// for i in 0..100 {
///     h.push(i % 5 == 0);
///     f.update(&h);
/// }
/// assert_eq!(f.value(), f.compute_reference(&h));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldedHistory {
    comp: u64,
    length: usize,
    width: u32,
    /// Bit position `length % width` where the outgoing bit re-enters.
    out_pos: u32,
    /// Precomputed `2^width - 1`, so the hot update has no per-call shift
    /// to rebuild it.
    mask: u64,
}

impl FoldedHistory {
    /// Creates a fold of `length` history bits compressed to `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or above 32, or `length` is 0.
    pub fn new(length: usize, width: u32) -> Self {
        assert!(length > 0, "folded history length must be positive");
        assert!(
            length < crate::history::HISTORY_CAPACITY,
            "folded history length {length} exceeds the history ring"
        );
        assert!(
            (1..=32).contains(&width),
            "folded history width {width} unsupported"
        );
        FoldedHistory {
            comp: 0,
            length,
            width,
            out_pos: (length as u32) % width,
            mask: (1u64 << width) - 1,
        }
    }

    /// History window length in bits.
    pub fn length(&self) -> usize {
        self.length
    }

    /// Compressed width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Current folded value (always `< 2^width`).
    #[inline]
    pub fn value(&self) -> u64 {
        self.comp
    }

    /// Folds in the newest bit of `history` (call after `history.push`).
    #[inline]
    pub fn update(&mut self, history: &GlobalHistory) {
        let outbit = history.bit_unchecked(self.length);
        self.comp = (self.comp << 1) | history.bit(0);
        self.comp ^= outbit << self.out_pos;
        self.comp ^= self.comp >> self.width;
        self.comp &= self.mask;
    }

    /// Recomputes the fold from scratch; O(length), for tests and repair.
    ///
    /// The incremental update places the bit of age `a` at position
    /// `a mod width`: every shift increments positions and the
    /// `comp ^= comp >> width` step wraps the single overflow bit back to
    /// position 0, while the `out_pos` XOR cancels the bit aging out of the
    /// window at position `length mod width`.
    pub fn compute_reference(&self, history: &GlobalHistory) -> u64 {
        let mut v = 0u64;
        for age in 0..self.length {
            v ^= history.bit(age) << ((age as u32) % self.width);
        }
        v
    }
}

/// `K` folds for each of `N` history lengths, updated in lock-step.
///
/// TAGE keeps three folds per table (index, tag and second tag) over the
/// same 21 lengths, and LLBP two more at its pattern-tag width. Every fold
/// of one length drops the same outgoing bit, so the lanes read it once per
/// length and share it across the `K` folds.
///
/// The lanes are stored fold-major (`[fold][length]`) as `u32`s, and each
/// lane carries its update as constants instead of shift counts: the
/// outgoing-bit position `1 << (length % width)`, the overflow bit
/// `1 << width` and the mask `2^width - 1`. The lane loop is then
/// branch-free with uniform shifts, which the compiler vectorizes on the
/// baseline x86-64 target.
///
/// Lane `(k, i)` always equals a [`FoldedHistory`] of `(lengths[i],
/// widths[k][i])` driven by the same history, which stays the reference.
///
/// ```
/// use tage::folded::FoldLanes;
/// use tage::{FoldedHistory, GlobalHistory};
///
/// let mut h = GlobalHistory::new();
/// let mut lanes = FoldLanes::new([6, 37], [[10, 10], [8, 7]]);
/// for i in 0..200 {
///     h.push(i % 7 < 3);
///     lanes.update(&h);
/// }
/// assert_eq!(u64::from(lanes.lane(1)[1]), FoldedHistory::new(37, 7).compute_reference(&h));
/// ```
#[derive(Debug, Clone)]
pub struct FoldLanes<const N: usize, const K: usize> {
    comp: [[u32; N]; K],
    /// `1 << (length % width)`: where the outgoing bit re-enters.
    out: [[u32; N]; K],
    /// `1 << width`: the bit the shift pushes out of the fold.
    wrap: [[u32; N]; K],
    /// `2^width - 1`.
    mask: [[u32; N]; K],
    lengths: [usize; N],
}

impl<const N: usize, const K: usize> FoldLanes<N, K> {
    /// Creates the lanes; `widths[k][i]` is the width of fold `k` over
    /// `lengths[i]` history bits.
    ///
    /// # Panics
    ///
    /// Panics if a length is 0 or does not fit the history ring, or a width
    /// is 0 or above 31 (a lane needs a spare bit for the shift).
    pub fn new(lengths: [usize; N], widths: [[u32; N]; K]) -> Self {
        for &length in &lengths {
            assert!(length > 0, "folded history length must be positive");
            assert!(
                length < crate::history::HISTORY_CAPACITY,
                "folded history length {length} exceeds the history ring"
            );
        }
        for &width in widths.iter().flatten() {
            assert!(
                (1..=31).contains(&width),
                "fold lane width {width} unsupported"
            );
        }
        let lane = |f: &dyn Fn(usize, u32) -> u32| {
            std::array::from_fn(|k| std::array::from_fn(|i| f(lengths[i], widths[k][i])))
        };
        FoldLanes {
            comp: [[0; N]; K],
            out: lane(&|length, width| 1 << (length as u32 % width)),
            wrap: lane(&|_, width| 1 << width),
            mask: lane(&|_, width| (1 << width) - 1),
            lengths,
        }
    }

    /// Folds in the newest bit of `history` (call once after every
    /// `history.push`).
    #[inline]
    pub fn update(&mut self, history: &GlobalHistory) {
        let inbit = history.bit_unchecked(0) as u32;
        // All ones where the bit leaving length `i`'s window is set.
        let outgoing: [u32; N] =
            std::array::from_fn(|i| (history.bit_unchecked(self.lengths[i]) as u32).wrapping_neg());
        for (k, comp) in self.comp.iter_mut().enumerate() {
            let (out, wrap, mask) = (&self.out[k], &self.wrap[k], &self.mask[k]);
            for (i, c) in comp.iter_mut().enumerate() {
                let shifted = ((*c << 1) | inbit) ^ (out[i] & outgoing[i]);
                // `FoldedHistory`'s `c ^= c >> width`: the single overflow
                // bit wraps around to bit 0 (the mask then clears it).
                let wrapped = u32::from(shifted & wrap[i] != 0);
                *c = (shifted ^ wrapped) & mask[i];
            }
        }
    }

    /// The values of fold `k`, one per history length.
    #[inline]
    pub fn lane(&self, k: usize) -> &[u32; N] {
        &self.comp[k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Push `n` pseudorandom bits through history + fold and check the fold
    /// only depends on the last `length` bits.
    fn drive(length: usize, width: u32, n: usize, seed: u64) -> (GlobalHistory, FoldedHistory) {
        let mut h = GlobalHistory::new();
        let mut f = FoldedHistory::new(length, width);
        let mut x = seed | 1;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.push(x & 1 == 1);
            f.update(&h);
        }
        (h, f)
    }

    #[test]
    fn fold_is_windowed() {
        // Two histories with identical last-`length` bits but different
        // prefixes must fold identically.
        let length = 37;
        let width = 9;
        let tail: Vec<bool> = (0..length).map(|i| i % 3 != 1).collect();

        let run = |prefix: &[bool]| {
            let mut h = GlobalHistory::new();
            let mut f = FoldedHistory::new(length, width);
            for &b in prefix.iter().chain(tail.iter()) {
                h.push(b);
                f.update(&h);
            }
            f.value()
        };
        let a = run(&[true; 100]);
        let b = run(&[false; 211]);
        assert_eq!(a, b, "fold must depend only on the last {length} bits");
    }

    #[test]
    fn fold_stays_within_width() {
        for width in [1u32, 5, 11, 13, 20, 32] {
            let (_, f) = drive(232, width, 5000, 0xabcd);
            assert!(f.value() < (1u64 << width));
        }
    }

    #[test]
    fn fold_changes_when_history_changes() {
        let (_, f1) = drive(64, 12, 4000, 1);
        let (_, f2) = drive(64, 12, 4000, 2);
        assert_ne!(
            f1.value(),
            f2.value(),
            "different histories should fold differently"
        );
    }

    #[test]
    fn reference_matches_incremental() {
        for (len, width) in [(6, 10), (78, 13), (232, 12), (1444, 11)] {
            let (h, f) = drive(len, width, 3500, 0x5eed);
            assert_eq!(
                f.value(),
                f.compute_reference(&h),
                "len={len} width={width}"
            );
        }
    }

    #[test]
    fn width_equal_length_is_a_plain_window() {
        let mut h = GlobalHistory::new();
        let mut f = FoldedHistory::new(4, 4);
        for b in [true, false, true, true] {
            h.push(b);
            f.update(&h);
        }
        // Bit position equals age: newest (true) at bit 0, then true,
        // false, true at ages 1..3 → 0b1011.
        assert_eq!(f.value(), 0b1011);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_is_rejected() {
        let _ = FoldedHistory::new(10, 0);
    }
    #[test]
    fn fold_lanes_match_single_folds() {
        let lengths = [6usize, 37, 232, 3000];
        let widths = [[10u32, 13, 12, 11], [1, 31, 9, 20]];
        let mut h = GlobalHistory::new();
        let mut lanes = FoldLanes::new(lengths, widths);
        let mut singles: Vec<Vec<FoldedHistory>> = widths
            .iter()
            .map(|ws| {
                lengths
                    .iter()
                    .zip(ws)
                    .map(|(&l, &w)| FoldedHistory::new(l, w))
                    .collect()
            })
            .collect();
        let mut x = 0x1234u64 | 1;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.push(x & 1 == 1);
            lanes.update(&h);
            for fold in singles.iter_mut().flatten() {
                fold.update(&h);
            }
            for (k, folds) in singles.iter().enumerate() {
                for (i, fold) in folds.iter().enumerate() {
                    assert_eq!(u64::from(lanes.lane(k)[i]), fold.value(), "lane ({k}, {i})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "width")]
    fn fold_lanes_reject_a_32_bit_width() {
        let _ = FoldLanes::new([10], [[32]]);
    }
}
