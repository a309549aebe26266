//! Incrementally folded (compressed) history registers.
//!
//! A TAGE table with history length `L` and an index of `w` bits cannot hash
//! all `L` bits per prediction; hardware keeps a *folded* register that XORs
//! the history into `w` bits and updates it in O(1) per branch: shift in the
//! newest bit, XOR out the bit that just left the `L`-bit window.
//!
//! [`FoldedHistory`] is the single-fold reference. The predictors run
//! [`FoldLanes`], which updates every fold over a set of history lengths in
//! one vectorizable pass: TAGE for its indices and tags in `u16` lanes, and
//! the `llbpx` crate for pattern tags at its own widths (13 / 20 bits) in
//! `u32` lanes. Both fold the same [`OutgoingBits`], which TAGE reads from
//! the global history once per push.

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

/// TAGE's 21 history lengths padded to whole SSE2 vectors: three 8-lane
/// vectors of `u16` folds (TAGE's), six 4-lane vectors of `u32` folds
/// (LLBP's). The padding lanes are inert: their folds stay 0.
pub const FOLD_LANES: usize = 24;

/// What one history push moves through each of `N` history windows: the
/// bit entering them all and, per window length, the bit leaving it.
///
/// The outgoing bits are read from 32-bit windows of the
/// [`GlobalHistory`], not bit by bit. For a length of 32 or more, the bits
/// that leave its window over the next 32 pushes are already in the
/// history, so one [`GlobalHistory::window`] load every 32 pushes holds
/// them all, and a push shifts each window by the same count. A shorter
/// window's outgoing bit is still in the 32 newest bits, so a per-lane
/// mask of [`GlobalHistory::recent`] picks it. Either way a push is a
/// branch-free pass with uniform shifts over the lanes.
///
/// TAGE computes these once per push and every [`FoldLanes`] over the
/// same lengths, TAGE's and LLBP's, folds them in.
///
/// ```
/// use tage::folded::OutgoingBits;
/// use tage::GlobalHistory;
///
/// let mut h = GlobalHistory::new();
/// let mut bits = OutgoingBits::<4>::new(&[6, 37, 3000]);
/// for i in 0..5000 {
///     h.push(i % 7 < 3);
///     bits.advance(&h);
/// }
/// assert_eq!(bits.inbit(), h.bit(0) == 1);
/// assert_eq!(bits.outgoing(1), h.bit(37) == 1);
/// assert!(!bits.outgoing(3), "a padding lane has no window");
/// ```
#[derive(Debug, Clone)]
pub struct OutgoingBits<const N: usize> {
    lengths: [usize; N],
    /// Per length of 32 or more, the 32 bits leaving its window from the
    /// last load on, oldest in bit 0; 0 for the other lanes.
    windows: [u32; N],
    /// 1 for the lanes read from `windows`, 0 for the others.
    window_sel: [u32; N],
    /// `1 << length` for the lengths below 32, 0 for the others.
    recent_sel: [u32; N],
    /// The newest history bit.
    inbit: u32,
    /// All ones where the bit leaving that lane's window is set.
    masks: [u32; N],
}

impl<const N: usize> OutgoingBits<N> {
    /// The windows of `lengths`; lanes past `lengths.len()` are padding.
    ///
    /// # Panics
    ///
    /// Panics if there are more than `N` lengths, or a length is 0 or
    /// does not fit the history ring.
    pub fn new(lengths: &[usize]) -> Self {
        assert!(
            lengths.len() <= N,
            "{} lengths for {N} lanes",
            lengths.len()
        );
        let mut bits = OutgoingBits {
            lengths: [0; N],
            windows: [0; N],
            window_sel: [0; N],
            recent_sel: [0; N],
            inbit: 0,
            masks: [0; N],
        };
        for (i, &length) in lengths.iter().enumerate() {
            assert!(length > 0, "folded history length must be positive");
            assert!(
                length < crate::history::HISTORY_CAPACITY,
                "folded history length {length} exceeds the history ring"
            );
            bits.lengths[i] = length;
            if length >= 32 {
                bits.window_sel[i] = 1;
            } else {
                bits.recent_sel[i] = 1 << length;
            }
        }
        bits
    }

    /// Reads the bits the newest push of `history` moved. Call exactly
    /// once after every `history.push`, from the first push on.
    #[inline]
    pub fn advance(&mut self, history: &GlobalHistory) {
        debug_assert!(!history.is_empty(), "advance follows a push");
        let step = ((history.len() - 1) % 32) as u32;
        if step == 0 {
            for (window, &length) in self.windows.iter_mut().zip(&self.lengths) {
                if length >= 32 {
                    *window = history.window(length);
                }
            }
        }
        let recent = history.recent(32) as u32;
        self.inbit = recent & 1;
        for i in 0..N {
            let bit =
                ((self.windows[i] >> step) & self.window_sel[i]) | (recent & self.recent_sel[i]);
            self.masks[i] = u32::from(bit != 0).wrapping_neg();
        }
    }

    /// The bit the last push entered.
    pub fn inbit(&self) -> bool {
        self.inbit != 0
    }

    /// The bit the last push moved out of lane `i`'s window.
    pub fn outgoing(&self, i: usize) -> bool {
        self.masks[i] != 0
    }
}

/// An unsigned integer type that holds fold lanes: `u16` for TAGE's folds,
/// whose index and tag widths are at most 16 bits, 8 to an SSE2 vector;
/// `u32` for LLBP's, whose limit study folds 20-bit pattern tags.
pub trait Lane:
    Copy
    + Default
    + Eq
    + std::fmt::Debug
    + std::ops::BitAnd<Output = Self>
    + std::ops::BitOr<Output = Self>
    + std::ops::BitXor<Output = Self>
    + std::ops::Shl<u32, Output = Self>
    + Into<u32>
{
    /// Width of the type in bits.
    const BITS: u32;
    /// The low [`BITS`](Self::BITS) bits of `v`.
    fn truncate(v: u32) -> Self;
}

impl Lane for u16 {
    const BITS: u32 = u16::BITS;
    #[inline(always)]
    fn truncate(v: u32) -> Self {
        v as u16
    }
}

impl Lane for u32 {
    const BITS: u32 = u32::BITS;
    #[inline(always)]
    fn truncate(v: u32) -> Self {
        v
    }
}

/// `K` folds for each of `N` history lengths, updated in lock-step from
/// one [`OutgoingBits`].
///
/// TAGE keeps three folds per table (index, tag and second tag) over the
/// same 21 lengths in `u16` lanes, and LLBP two more at its pattern-tag
/// width in `u32` lanes. The lanes are stored fold-major (`[fold][length]`)
/// and each carries its update as constants instead of shift counts: the
/// outgoing-bit position `1 << (length % width)`, the top bit
/// `1 << (width - 1)` and the mask `2^width - 1`. A push is then
///
/// `new = (((c << 1) | in) & mask) ^ (outgoing & out) ^ top(c)`,
///
/// where `top(c)` is the bit the shift pushes out of the fold, taken from
/// the old value so that a fold may fill its whole lane. The loop is
/// branch-free with uniform shifts, which the compiler vectorizes on the
/// baseline x86-64 target.
///
/// Lane `(k, i)` always equals a [`FoldedHistory`] of `(lengths[i],
/// widths[k][i])` driven by the same history, which stays the reference.
///
/// ```
/// use tage::folded::{FoldLanes, OutgoingBits};
/// use tage::{FoldedHistory, GlobalHistory};
///
/// let mut h = GlobalHistory::new();
/// let mut bits = OutgoingBits::<8>::new(&[6, 37]);
/// let mut lanes = FoldLanes::<u16, 8, 2>::new(&[6, 37], [&[10, 10], &[8, 7]]);
/// for i in 0..200 {
///     h.push(i % 7 < 3);
///     bits.advance(&h);
///     lanes.update(&bits);
/// }
/// assert_eq!(u64::from(lanes.lane(1)[1]), FoldedHistory::new(37, 7).compute_reference(&h));
/// ```
#[derive(Debug, Clone)]
pub struct FoldLanes<T: Lane, const N: usize, const K: usize> {
    comp: [[T; N]; K],
    /// `1 << (length % width)`: where the outgoing bit re-enters.
    out: [[T; N]; K],
    /// `1 << (width - 1)`: the bit the shift pushes out of the fold.
    top: [[T; N]; K],
    /// `2^width - 1`.
    mask: [[T; N]; K],
}

impl<T: Lane, const N: usize, const K: usize> FoldLanes<T, N, K> {
    /// Creates the lanes; `widths[k][i]` is the width of fold `k` over
    /// `lengths[i]` history bits. Lanes past `lengths.len()` are padding
    /// and stay 0.
    ///
    /// # Panics
    ///
    /// Panics if there are more than `N` lengths, a fold has not one width
    /// per length, a length is 0, or a width is 0 or wider than `T`.
    pub fn new(lengths: &[usize], widths: [&[u32]; K]) -> Self {
        assert!(
            lengths.len() <= N,
            "{} lengths for {N} lanes",
            lengths.len()
        );
        let zero = [[T::default(); N]; K];
        let mut lanes = FoldLanes {
            comp: zero,
            out: zero,
            top: zero,
            mask: zero,
        };
        for (k, ws) in widths.iter().enumerate() {
            assert_eq!(ws.len(), lengths.len(), "one fold width per history length");
            for (i, (&length, &width)) in lengths.iter().zip(ws.iter()).enumerate() {
                assert!(length > 0, "folded history length must be positive");
                assert!(
                    (1..=T::BITS).contains(&width),
                    "fold lane width {width} unsupported by {}-bit lanes",
                    T::BITS
                );
                lanes.out[k][i] = T::truncate(1 << (length as u32 % width));
                lanes.top[k][i] = T::truncate(1 << (width - 1));
                lanes.mask[k][i] = T::truncate(u32::MAX >> (32 - width));
            }
        }
        lanes
    }

    /// Folds in the bits of the last push (call once after every
    /// [`OutgoingBits::advance`] over the same lengths).
    #[inline]
    pub fn update(&mut self, bits: &OutgoingBits<N>) {
        let inbit = T::truncate(bits.inbit);
        let outgoing: [T; N] = std::array::from_fn(|i| T::truncate(bits.masks[i]));
        for (k, comp) in self.comp.iter_mut().enumerate() {
            let (out, top, mask) = (&self.out[k], &self.top[k], &self.mask[k]);
            for (i, c) in comp.iter_mut().enumerate() {
                let wrapped = T::truncate(u32::from(*c & top[i] != T::default()));
                *c = (((*c << 1) | inbit) & mask[i]) ^ (outgoing[i] & out[i]) ^ wrapped;
            }
        }
    }

    /// The values of fold `k`, one per lane.
    #[inline]
    pub fn lane(&self, k: usize) -> &[T; N] {
        &self.comp[k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HISTORY_CAPACITY;

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
        let widths: [&[u32]; 2] = [&[10, 13, 12, 11], &[1, 32, 9, 20]];
        let mut h = GlobalHistory::new();
        let mut bits = OutgoingBits::<4>::new(&lengths);
        let mut lanes = FoldLanes::<u32, 4, 2>::new(&lengths, widths);
        let mut singles: Vec<Vec<FoldedHistory>> = widths
            .iter()
            .map(|ws| {
                lengths
                    .iter()
                    .zip(ws.iter())
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
            bits.advance(&h);
            lanes.update(&bits);
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
    fn outgoing_bits_match_the_history() {
        let lengths = [1usize, 6, 31, 32, 33, 64, 3000, 4095];
        let mut h = GlobalHistory::new();
        let mut bits = OutgoingBits::<10>::new(&lengths);
        let mut x = 0x6f75_7467u64;
        for n in 0..3 * HISTORY_CAPACITY {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.push(x & 1 == 1);
            bits.advance(&h);
            assert_eq!(bits.inbit(), h.bit(0) == 1, "push {n}");
            for (i, &length) in lengths.iter().enumerate() {
                assert_eq!(
                    bits.outgoing(i),
                    h.bit(length) == 1,
                    "push {n}, length {length}"
                );
            }
            assert!(
                !bits.outgoing(8) && !bits.outgoing(9),
                "padding lanes stay clear"
            );
        }
    }

    #[test]
    fn padding_lanes_stay_zero() {
        let mut h = GlobalHistory::new();
        let mut bits = OutgoingBits::<8>::new(&[6, 9]);
        let mut lanes = FoldLanes::<u16, 8, 1>::new(&[6, 9], [&[4, 16]]);
        for i in 0..300 {
            h.push(i % 3 != 0);
            bits.advance(&h);
            lanes.update(&bits);
        }
        assert_ne!(lanes.lane(0)[..2], [0, 0]);
        assert_eq!(lanes.lane(0)[2..], [0; 6]);
    }

    /// TAGE's `u16` lanes cannot hold a fold as wide as LLBP's `u32` ones.
    #[test]
    #[should_panic(expected = "width")]
    fn fold_lanes_reject_a_32_bit_width() {
        let _ = FoldLanes::<u16, 1, 1>::new(&[10], [&[32]]);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn u16_fold_lanes_reject_a_17_bit_width() {
        let _ = FoldLanes::<u16, 1, 1>::new(&[10], [&[17]]);
    }
}
