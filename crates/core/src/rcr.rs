//! Rolling Context Register (RCR): context IDs from unconditional-branch
//! history (§II-C.2, §V-B.2).

/// Maximum supported context depth (LLBP-X uses up to W = 64; sweeps in the
/// analysis figures go further). A power of two: the window is a ring
/// indexed by the push count modulo this.
pub const MAX_DEPTH: usize = 128;
const _: () = assert!(MAX_DEPTH.is_power_of_two());

/// The RCR: a window of recent unconditional-branch PCs from which context
/// IDs of any depth can be hashed.
///
/// The hardware keeps per-depth rolling hashes; this model keeps the PC
/// window and hashes on demand, which is bit-equivalent and lets analysis
/// code ask for arbitrary `W`.
///
/// ```
/// use llbpx::rcr::Rcr;
///
/// let mut rcr = Rcr::new();
/// for pc in [0x100u64, 0x200, 0x300] {
///     rcr.push(pc);
/// }
/// // Different depths see different windows.
/// assert_ne!(rcr.context_id(2), rcr.context_id(3));
/// // The ID is a pure function of the window.
/// let before = rcr.context_id(2);
/// rcr.push(0x400);
/// assert_ne!(before, rcr.context_id(2));
/// ```
#[derive(Debug, Clone)]
pub struct Rcr {
    /// The last `MAX_DEPTH` UB PCs as a ring: push `k` (0-based) lands in
    /// slot `k % MAX_DEPTH`. Slots not yet written hold zero.
    window: [u64; MAX_DEPTH],
    pushes: u64,
}

impl Rcr {
    /// An empty register.
    pub fn new() -> Self {
        Rcr {
            window: [0; MAX_DEPTH],
            pushes: 0,
        }
    }

    /// Records the PC of a retired unconditional branch.
    pub fn push(&mut self, pc: u64) {
        self.window[self.pushes as usize % MAX_DEPTH] = pc;
        self.pushes += 1;
    }

    /// Total unconditional branches observed.
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Context ID over the most recent `w` unconditional branches.
    ///
    /// Before `w` branches have been observed the missing slots hash as
    /// zero, matching a cleared hardware register.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0` or `w > MAX_DEPTH`.
    pub fn context_id(&self, w: usize) -> u64 {
        assert!(w > 0 && w <= MAX_DEPTH, "context depth {w} out of range");
        let mut acc = 0x1234_5678_9abc_def0u64 ^ (w as u64);
        // Slot of the `i`-th most recent push. Before `w` pushes the walk
        // wraps into slots no push has written yet, which read zero.
        let newest = self.pushes.wrapping_sub(1) as usize;
        for i in 0..w {
            let pc = self.window[newest.wrapping_sub(i) % MAX_DEPTH];
            acc = splitmix(acc ^ pc.rotate_left((i % 61) as u32));
        }
        acc
    }
}

impl Default for Rcr {
    fn default() -> Self {
        Rcr::new()
    }
}

#[inline]
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rcr_with(pcs: &[u64]) -> Rcr {
        let mut r = Rcr::new();
        for &pc in pcs {
            r.push(pc);
        }
        r
    }

    #[test]
    fn id_depends_only_on_the_last_w_branches() {
        let a = rcr_with(&[1, 2, 3, 4, 5]);
        let b = rcr_with(&[9, 9, 9, 4, 5]);
        assert_eq!(a.context_id(2), b.context_id(2));
        assert_ne!(a.context_id(3), b.context_id(3));
    }

    #[test]
    fn deeper_windows_distinguish_older_paths() {
        let a = rcr_with(&[10, 20, 30, 40]);
        let b = rcr_with(&[11, 20, 30, 40]);
        assert_eq!(a.context_id(3), b.context_id(3));
        assert_ne!(a.context_id(4), b.context_id(4));
    }

    #[test]
    fn different_depths_give_independent_ids() {
        let r = rcr_with(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let ids: Vec<u64> = (1..=8).map(|w| r.context_id(w)).collect();
        for (i, a) in ids.iter().enumerate() {
            for b in &ids[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn cold_register_hashes_missing_slots_as_zero() {
        let r = rcr_with(&[42]);
        // Depth 4 with only one observed UB still yields a stable ID.
        assert_eq!(r.context_id(4), rcr_with(&[42]).context_id(4));
        assert_ne!(r.context_id(4), rcr_with(&[43]).context_id(4));
    }

    #[test]
    fn window_is_bounded() {
        let mut r = Rcr::new();
        for pc in 0..(MAX_DEPTH as u64 * 3) {
            r.push(pc);
        }
        assert_eq!(r.pushes(), MAX_DEPTH as u64 * 3);
        // The oldest entries fell out: IDs at max depth still work.
        let _ = r.context_id(MAX_DEPTH);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_depth_is_rejected() {
        let _ = Rcr::new().context_id(0);
    }

    #[test]
    fn order_matters() {
        let a = rcr_with(&[1, 2]);
        let b = rcr_with(&[2, 1]);
        assert_ne!(a.context_id(2), b.context_id(2));
    }
}
