//! Global branch history and path history.
//!
//! TAGE correlates on a *global history register* holding one bit per
//! retired branch (the outcome for conditionals, a PC-derived path bit for
//! unconditionals) and a short *path history* of low PC bits that is mixed
//! into table indices to break aliasing between branches with identical
//! history (Seznec's `F()` mix).

use crate::config::{HISTORY_LENGTHS, NUM_TABLES};

/// Capacity of the global history ring in bits. Must exceed the longest
/// history length (3000) plus slack for the folded-history update, and be a
/// power of two.
pub const HISTORY_CAPACITY: usize = 4096;

/// A ring buffer of the most recent [`HISTORY_CAPACITY`] history bits.
///
/// Age 0 is the most recently pushed bit. The buffer never shrinks; before
/// `HISTORY_CAPACITY` pushes the old bits read as zero, matching a predictor
/// that starts from cleared history registers.
///
/// ```
/// use tage::GlobalHistory;
///
/// let mut h = GlobalHistory::new();
/// h.push(true);
/// h.push(false);
/// assert_eq!(h.bit(0), 0); // most recent
/// assert_eq!(h.bit(1), 1);
/// ```
#[derive(Debug, Clone)]
pub struct GlobalHistory {
    /// The ring, inline so a history read is one load off the owner.
    words: [u64; HISTORY_CAPACITY / 64],
    /// Total bits pushed so far; the most recent bit lives at
    /// `(pushed - 1) % HISTORY_CAPACITY`.
    pushed: u64,
    /// The 64 most recent bits, newest in bit 0 — a shift register kept
    /// incrementally so [`recent`](Self::recent) is O(1) instead of up to
    /// 64 ring reads per call.
    recent_word: u64,
}

impl GlobalHistory {
    /// Creates an all-zero history.
    pub fn new() -> Self {
        GlobalHistory {
            words: [0; HISTORY_CAPACITY / 64],
            pushed: 0,
            recent_word: 0,
        }
    }

    /// Pushes the newest history bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        let pos = (self.pushed as usize) & (HISTORY_CAPACITY - 1);
        let word = pos / 64;
        let off = pos % 64;
        self.words[word] = (self.words[word] & !(1u64 << off)) | ((bit as u64) << off);
        self.recent_word = (self.recent_word << 1) | (bit as u64);
        self.pushed += 1;
    }

    /// Reads the bit pushed `age` steps ago (0 = most recent).
    ///
    /// # Panics
    ///
    /// Panics if `age >= HISTORY_CAPACITY`.
    #[inline]
    pub fn bit(&self, age: usize) -> u64 {
        assert!(age < HISTORY_CAPACITY, "history age {age} out of range");
        self.bit_unchecked(age)
    }

    /// [`bit`](Self::bit) without the range assertion, for hot loops whose
    /// ages are bounded by construction (history lengths ≤ 3000).
    ///
    /// Before `age + 1` pushes the addressed ring position has never been
    /// written and the zero-initialized word reads 0, matching the cleared-
    /// register semantics without an explicit `pushed` check.
    #[inline(always)]
    pub fn bit_unchecked(&self, age: usize) -> u64 {
        let pos = (self.pushed.wrapping_sub(1 + age as u64) as usize) & (HISTORY_CAPACITY - 1);
        (self.words[pos / 64] >> (pos % 64)) & 1
    }

    /// The 32 bits of ages `age` down to `age - 31` in one two-word load:
    /// bit `k` of the result is [`bit(age - k)`](Self::bit), so the oldest
    /// bit sits in bit 0. These are the bits that leave an `age`-bit window
    /// over the next 32 pushes.
    ///
    /// ```
    /// use tage::GlobalHistory;
    ///
    /// let mut h = GlobalHistory::new();
    /// for i in 0..100 {
    ///     h.push(i % 3 == 0);
    /// }
    /// let w = h.window(40);
    /// assert!((0..32).all(|k| u64::from(w >> k) & 1 == h.bit(40 - k)));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics unless `31 <= age < HISTORY_CAPACITY`.
    #[inline]
    pub fn window(&self, age: usize) -> u32 {
        assert!(
            (31..HISTORY_CAPACITY).contains(&age),
            "history window at age {age} out of range"
        );
        let pos = (self.pushed.wrapping_sub(1 + age as u64) as usize) & (HISTORY_CAPACITY - 1);
        let word = pos / 64;
        let pair = u128::from(self.words[word])
            | (u128::from(self.words[(word + 1) % self.words.len()]) << 64);
        (pair >> (pos % 64)) as u32
    }

    /// Number of bits pushed so far.
    #[inline]
    pub fn len(&self) -> u64 {
        self.pushed
    }

    /// True until the first bit is pushed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pushed == 0
    }

    /// Packs the most recent `n` bits (n ≤ 64) into a word, newest in bit 0.
    ///
    /// Used by the statistical corrector's short-history components. O(1):
    /// masks the incrementally maintained shift register.
    #[inline]
    pub fn recent(&self, n: usize) -> u64 {
        debug_assert!(n <= 64);
        if n >= 64 {
            return self.recent_word;
        }
        self.recent_word & ((1u64 << n) - 1)
    }
}

impl Default for GlobalHistory {
    fn default() -> Self {
        GlobalHistory::new()
    }
}

/// Path history: low-order PC bits of recent branches, newest in bit 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathHistory {
    bits: u64,
}

/// Number of path-history bits retained.
pub const PATH_BITS: u32 = 27;

impl PathHistory {
    /// Creates an all-zero path history.
    pub fn new() -> Self {
        PathHistory::default()
    }

    /// Shifts in one path bit derived from `pc`.
    #[inline]
    pub fn push(&mut self, pc: u64) {
        self.bits = ((self.bits << 1) | ((pc >> 2) & 1)) & ((1 << PATH_BITS) - 1);
    }

    /// Raw path-history bits.
    #[inline]
    pub fn value(&self) -> u64 {
        self.bits
    }

    /// Seznec's `F()` mix of `len` path bits for a table with `log2_size`
    /// index bits: compresses the path history into the index domain while
    /// rotating by the table number so different tables decorrelate.
    #[inline]
    pub fn mix(&self, len: usize, table: usize, log2_size: u32) -> u64 {
        PathMix::new(len, table, log2_size).apply(self)
    }
}

/// Precomputed constants for one `(len, table, log2_size)` instantiation of
/// [`PathHistory::mix`].
///
/// This is the scalar reference of [`PathMixLanes`], the role
/// [`FoldedHistory`](crate::FoldedHistory) plays for
/// [`FoldLanes`](crate::folded::FoldLanes): TAGE runs the lanes, and the
/// tests check every lane against this. Its rotation shifts by a per-table
/// count (`table % log2_size`), which the lanes turn into a multiply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathMix {
    len_mask: u64,
    rot: u32,
    size: u32,
    size_mask: u64,
    back: u32,
}

impl PathMix {
    /// Precomputes the mix constants. `log2_size == 0` yields the
    /// always-zero mix, matching [`PathHistory::mix`].
    pub fn new(len: usize, table: usize, log2_size: u32) -> Self {
        let size = log2_size as u64;
        let len = len.min(PATH_BITS as usize) as u64;
        let rot = if size == 0 { 0 } else { (table as u64) % size };
        PathMix {
            len_mask: (1u64 << len) - 1,
            rot: rot as u32,
            size: log2_size,
            size_mask: if size == 0 { 0 } else { (1u64 << size) - 1 },
            back: size.saturating_sub(rot).max(1) as u32,
        }
    }

    /// Applies the mix to the current path-history bits. Bit-identical to
    /// [`PathHistory::mix`] with the constants this was built from.
    #[inline(always)]
    pub fn apply(&self, path: &PathHistory) -> u64 {
        if self.size == 0 {
            return 0;
        }
        let a = path.bits & self.len_mask;
        let a1 = a & self.size_mask;
        let a2 = a >> self.size;
        let a2 = ((a2 << self.rot) & self.size_mask) | (a2 >> self.back);
        let a = a1 ^ a2;
        ((a << self.rot) & self.size_mask) | (a >> self.back)
    }
}

/// The most path bits TAGE mixes into a table index: table `t` mixes
/// `min(HISTORY_LENGTHS[t], 16)`.
const MIX_PATH_BITS: usize = 16;

/// TAGE's [`PathMix`] of every table at once: lane `t` equals
/// `PathMix::new(min(HISTORY_LENGTHS[t], 16), t, log2_size)`. It also
/// holds the index width and mask that the rest of TAGE's key computation
/// shares.
///
/// Every shift count of a lane is either uniform across the tables (the
/// index width `log2_size`) or turned into a per-lane constant: rotating
/// `x` left by `rot` within `size` bits is `y = x * (1 << rot)` followed by
/// `(y & mask) | (y >> size)`, because `(x << rot) >> size` is the
/// `x >> (size - rot)` of the scalar form. A lane is then multiplies,
/// masks and uniform shifts on `u32`s, which the compiler vectorizes four
/// lanes wide on the baseline x86-64 target (a per-lane shift count has no
/// SSE2 instruction). A lane reads at most 16 path bits, so both rotation
/// inputs stay below `2^size` (the first is `a >> size < 2^(16 - size)`),
/// and with `rot < size` both products stay below `2^(2 * size - 1)`,
/// within a `u32` for every `size ≤ 16`, the widest the lanes accept.
///
/// ```
/// use tage::history::{PathMix, PathMixLanes};
/// use tage::PathHistory;
///
/// let mut path = PathHistory::new();
/// for pc in [0x40u64, 0x84, 0x1c4, 0x204] {
///     path.push(pc);
/// }
/// let lanes = PathMixLanes::new(5);
/// // Table 20's history is longer than 16 bits: it mixes 16 path bits.
/// assert_eq!(u64::from(lanes.lane(20, &path)), PathMix::new(16, 20, 5).apply(&path));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathMixLanes {
    /// `2^min(HISTORY_LENGTHS[t], 16) - 1`: the path bits lane `t` reads.
    len_mask: [u32; NUM_TABLES],
    /// `1 << (t % size)`: lane `t`'s rotation as a multiplier.
    rot: [u32; NUM_TABLES],
    size: u32,
    /// `2^size - 1`.
    mask: u32,
}

/// The widest index [`PathMixLanes`] (and so TAGE) supports: the rotation
/// product of a `size`-bit value must fit a `u32` lane.
pub const MAX_LANE_INDEX_BITS: u32 = 16;

impl PathMixLanes {
    /// Precomputes the lanes of a TAGE with `log2_size` index bits.
    ///
    /// # Panics
    ///
    /// Panics unless `log2_size` is in `1..=`[`MAX_LANE_INDEX_BITS`] (the
    /// scalar mix of size 0 is the constant 0, which no TAGE table uses).
    pub fn new(log2_size: u32) -> Self {
        assert!(
            (1..=MAX_LANE_INDEX_BITS).contains(&log2_size),
            "path mix size {log2_size} outside 1..={MAX_LANE_INDEX_BITS}"
        );
        PathMixLanes {
            len_mask: HISTORY_LENGTHS.map(|len| (1u32 << len.min(MIX_PATH_BITS)) - 1),
            rot: std::array::from_fn(|t| 1 << (t as u32 % log2_size)),
            size: log2_size,
            mask: (1 << log2_size) - 1,
        }
    }

    /// The index width `log2_size`.
    #[inline(always)]
    pub fn index_bits(&self) -> u32 {
        self.size
    }

    /// `2^log2_size - 1`.
    #[inline(always)]
    pub fn index_mask(&self) -> u32 {
        self.mask
    }

    /// The mix of lane `t` over the current path history.
    #[inline(always)]
    pub fn lane(&self, t: usize, path: &PathHistory) -> u32 {
        let (rot, size, mask) = (self.rot[t], self.size, self.mask);
        // The lane reads at most 16 of the path's bits, so the cast keeps
        // every bit it reads.
        let a = path.bits as u32 & self.len_mask[t];
        let y = (a >> size) * rot;
        let a = (a & mask) ^ ((y & mask) | (y >> size));
        let y = a * rot;
        (y & mask) | (y >> size)
    }
}

/// Computes the bit appended to global history for `record`.
///
/// Conditionals contribute their outcome; unconditionals contribute a
/// PC-derived path bit so that different control-flow paths produce distinct
/// histories (as a hardware TAGE inserting target bits would see).
#[inline]
pub fn history_bit(record: &traces::BranchRecord) -> bool {
    if record.kind.is_conditional() {
        record.taken
    } else {
        (((record.pc >> 2) ^ (record.target >> 3)) & 1) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traces::{BranchKind, BranchRecord};

    #[test]
    fn fresh_history_reads_zero_everywhere() {
        let h = GlobalHistory::new();
        for age in [0, 1, 63, 64, 100, HISTORY_CAPACITY - 1] {
            assert_eq!(h.bit(age), 0);
        }
        assert!(h.is_empty());
    }

    #[test]
    fn bits_age_in_push_order() {
        let mut h = GlobalHistory::new();
        let pattern = [true, false, true, true, false, false, true];
        for &b in &pattern {
            h.push(b);
        }
        for (age, &b) in pattern.iter().rev().enumerate() {
            assert_eq!(h.bit(age), b as u64, "age {age}");
        }
        assert_eq!(h.len(), pattern.len() as u64);
    }

    #[test]
    fn ring_wraps_without_corruption() {
        let mut h = GlobalHistory::new();
        // Push a recognizable sequence longer than the capacity.
        for i in 0..(HISTORY_CAPACITY + 123) {
            h.push(i % 3 == 0);
        }
        for age in 0..HISTORY_CAPACITY {
            let i = HISTORY_CAPACITY + 123 - 1 - age;
            assert_eq!(h.bit(age), i.is_multiple_of(3) as u64, "age {age}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_beyond_capacity_panics() {
        let h = GlobalHistory::new();
        let _ = h.bit(HISTORY_CAPACITY);
    }

    #[test]
    fn recent_packs_newest_in_low_bit() {
        let mut h = GlobalHistory::new();
        h.push(true);
        h.push(true);
        h.push(false); // newest
        assert_eq!(h.recent(3), 0b110);
        assert_eq!(h.recent(2), 0b10);
        assert_eq!(h.recent(1), 0b0);
    }

    #[test]
    fn path_history_tracks_pc_bit_two() {
        let mut p = PathHistory::new();
        p.push(0b100); // bit2 = 1
        p.push(0b000); // bit2 = 0
        assert_eq!(p.value() & 0b11, 0b10);
    }

    #[test]
    fn path_mix_is_deterministic_and_bounded() {
        let mut p = PathHistory::new();
        for pc in 0..100u64 {
            p.push(pc * 4);
        }
        let m = p.mix(16, 3, 10);
        assert_eq!(m, p.mix(16, 3, 10));
        assert!(m < (1 << 10));
        // Different table numbers should usually mix differently.
        assert_ne!(p.mix(16, 3, 10), p.mix(16, 4, 10));
    }

    #[test]
    fn history_bit_uses_outcome_for_conditionals() {
        let taken = BranchRecord::cond(0x1000, 0x2000, true, 0);
        let not = BranchRecord::cond(0x1000, 0x2000, false, 0);
        assert!(history_bit(&taken));
        assert!(!history_bit(&not));
    }

    #[test]
    fn history_bit_uses_path_for_unconditionals() {
        let a = BranchRecord::new(0x1000, 0x2000, BranchKind::DirectCall, true, 0);
        let b = BranchRecord::new(0x1004, 0x2000, BranchKind::DirectCall, true, 0);
        // Bit 2 of the PC differs between the two call sites.
        assert_ne!(history_bit(&a), history_bit(&b));
    }
}
