//! Configuration of the TAGE-SC-L predictor family.

/// Number of tagged TAGE tables (history lengths), per the paper (§III-A:
/// "all 21 history lengths used by the primary TAGE predictor").
pub const NUM_TABLES: usize = 21;

/// The geometric-ish series of global history lengths, in bits.
///
/// Approximately geometric between 6 and 3000, hand-adjusted (as Seznec's
/// deployed predictors are) so that every length the paper cites appears
/// exactly: 6, 17, 37, 78, 112, 232, 1444 and 3000. The paper's range
/// statements then hold by construction:
///
/// * LLBP-X shallow contexts use "the first 16 history lengths" = 6..=232,
/// * deep contexts use "the 16 longer history lengths" = 37..=3000 (§V-C).
pub const HISTORY_LENGTHS: [usize; NUM_TABLES] = [
    6, 9, 12, 17, 26, 37, 44, 53, 64, 78, 93, 112, 134, 161, 193, 232, 348, 522, 809, 1444, 3000,
];

/// Widest supported partial tag. Tags live in a `u16` whose all-ones value
/// marks an empty slot, so a real tag must leave the top bit clear.
pub const MAX_TAG_BITS: u32 = 15;

/// Index of the first history length of the *deep* range (37).
pub const DEEP_RANGE_START: usize = 5;
/// One past the index of the last history length of the *shallow* range (232).
pub const SHALLOW_RANGE_END: usize = 16;

/// How a tagged table stores its entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableStorageKind {
    /// A direct-mapped array of `entries` slots (real hardware).
    Direct,
    /// Unbounded associativity with PC-tagged entries: the idealized
    /// "infinite TSL" of the paper (footnote 3). Aliasing-free.
    Infinite,
}

/// Configuration of the TAGE component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TageConfig {
    /// log2 of entries per tagged table (ignored for infinite storage).
    pub log2_entries: u32,
    /// Partial tag width for the short-history tables (paper: 8 bits).
    pub short_tag_bits: u32,
    /// Partial tag width for the long-history tables (paper: 12 bits).
    pub long_tag_bits: u32,
    /// Tables with index < this use the short tag width.
    pub short_tables: usize,
    /// Storage organization.
    pub storage: TableStorageKind,
    /// log2 of bimodal entries.
    pub log2_bimodal: u32,
}

impl TageConfig {
    /// The 64 KiB-class TAGE: 1K entries per table (paper Fig. 16b).
    pub fn base_64k() -> Self {
        TageConfig {
            log2_entries: 10,
            short_tag_bits: 8,
            long_tag_bits: 12,
            short_tables: 9,
            storage: TableStorageKind::Direct,
            log2_bimodal: 13,
        }
    }

    /// Scales the tagged tables to `log2_entries` entries per table.
    ///
    /// # Panics
    ///
    /// Panics unless `log2_entries` is in `5..=16`: TAGE computes its
    /// indices in `u32` lanes that hold a 16-bit index at most
    /// ([`MAX_LANE_INDEX_BITS`](crate::history::MAX_LANE_INDEX_BITS)).
    pub fn with_log2_entries(mut self, log2_entries: u32) -> Self {
        assert!(
            (5..=crate::history::MAX_LANE_INDEX_BITS).contains(&log2_entries),
            "log2_entries out of range"
        );
        self.log2_entries = log2_entries;
        self
    }

    /// Switches to the idealized infinite organization.
    pub fn infinite() -> Self {
        TageConfig {
            storage: TableStorageKind::Infinite,
            ..TageConfig::base_64k()
        }
    }

    /// Tag width of table `t`.
    ///
    /// # Panics
    ///
    /// Panics if the width is 0 or exceeds [`MAX_TAG_BITS`].
    pub fn tag_bits(&self, t: usize) -> u32 {
        let bits = if t < self.short_tables {
            self.short_tag_bits
        } else {
            self.long_tag_bits
        };
        assert!(
            (1..=MAX_TAG_BITS).contains(&bits),
            "TAGE tag width {bits} outside 1..={MAX_TAG_BITS}"
        );
        bits
    }

    /// Storage in bits of the TAGE component (tagged tables + bimodal).
    ///
    /// Matches the paper's Fig. 15b accounting of TAGE as
    /// `21 tables * (12b tag + 3b ctr + 1b useful)` per entry at the long
    /// tag width; short tables are counted with their narrower tags.
    pub fn storage_bits(&self) -> u64 {
        if self.storage == TableStorageKind::Infinite {
            return u64::MAX;
        }
        let entries = 1u64 << self.log2_entries;
        let tagged: u64 = (0..NUM_TABLES)
            .map(|t| entries * (u64::from(self.tag_bits(t)) + 3 + 1))
            .sum();
        let bimodal = (1u64 << self.log2_bimodal) * 2;
        tagged + bimodal
    }
}

impl Default for TageConfig {
    fn default() -> Self {
        TageConfig::base_64k()
    }
}

/// Configuration of the complete TAGE-SC-L predictor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TslConfig {
    /// The TAGE core.
    pub tage: TageConfig,
    /// Human-readable label used in reports.
    pub label: String,
}

impl TslConfig {
    /// A TSL whose tagged tables scale with a `size_kb` storage class.
    ///
    /// `64` reproduces the paper's 64K TSL baseline (1K entries per table);
    /// each doubling of the class doubles the entries per table, so `512`
    /// yields the "equal storage to LLBP" idealized predictor.
    ///
    /// # Panics
    ///
    /// Panics unless `size_kb` is one of 8, 16, 32, 64, 128, 256, 512.
    pub fn kilobytes(size_kb: u32) -> Self {
        let log2_entries = match size_kb {
            8 => 7,
            16 => 8,
            32 => 9,
            64 => 10,
            128 => 11,
            256 => 12,
            512 => 13,
            _ => panic!("unsupported TSL size class {size_kb} KiB"),
        };
        TslConfig {
            tage: TageConfig::base_64k().with_log2_entries(log2_entries),
            label: format!("{size_kb}K TSL"),
        }
    }

    /// The idealized infinitely-sized TSL (unbounded associativity,
    /// PC-tagged entries, no aliasing).
    pub fn infinite() -> Self {
        TslConfig {
            tage: TageConfig::infinite(),
            label: "Inf TSL".to_owned(),
        }
    }
}

impl Default for TslConfig {
    fn default() -> Self {
        TslConfig::kilobytes(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_lengths_are_strictly_increasing() {
        for w in HISTORY_LENGTHS.windows(2) {
            assert!(w[0] < w[1], "{} !< {}", w[0], w[1]);
        }
    }

    #[test]
    fn paper_cited_lengths_are_present() {
        for cited in [6, 17, 37, 78, 112, 232, 1444, 3000] {
            assert!(
                HISTORY_LENGTHS.contains(&cited),
                "missing paper length {cited}"
            );
        }
    }

    #[test]
    fn shallow_and_deep_ranges_match_the_paper() {
        // Shallow: first 16 lengths, 6..=232 (§VI).
        assert_eq!(HISTORY_LENGTHS[0], 6);
        assert_eq!(HISTORY_LENGTHS[SHALLOW_RANGE_END - 1], 232);
        assert_eq!(SHALLOW_RANGE_END, 16);
        // Deep: last 16 lengths, 37..=3000.
        assert_eq!(HISTORY_LENGTHS[DEEP_RANGE_START], 37);
        assert_eq!(NUM_TABLES - DEEP_RANGE_START, 16);
        assert_eq!(HISTORY_LENGTHS[NUM_TABLES - 1], 3000);
    }

    #[test]
    fn base_tage_is_roughly_64_kilobytes() {
        let bits = TageConfig::base_64k().storage_bits();
        let kib = bits as f64 / 8.0 / 1024.0;
        // Tagged tables plus bimodal; SC and loop add a few KiB on top in
        // the full TSL. The class is what matters.
        assert!(
            (30.0..=64.0).contains(&kib),
            "64K-class TAGE was {kib:.1} KiB"
        );
    }

    #[test]
    fn size_classes_scale_by_powers_of_two() {
        let b64 = TslConfig::kilobytes(64).tage.storage_bits();
        let b512 = TslConfig::kilobytes(512).tage.storage_bits();
        // Bimodal stays fixed, so the ratio is slightly under 8.
        let ratio = b512 as f64 / b64 as f64;
        assert!((6.0..=8.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn infinite_storage_is_unbounded() {
        assert_eq!(TageConfig::infinite().storage_bits(), u64::MAX);
        assert_eq!(TslConfig::infinite().label, "Inf TSL");
    }

    #[test]
    #[should_panic(expected = "unsupported TSL size class")]
    fn odd_size_classes_are_rejected() {
        let _ = TslConfig::kilobytes(100);
    }

    #[test]
    #[should_panic(expected = "log2_entries out of range")]
    fn indices_wider_than_a_key_lane_are_rejected() {
        let _ = TageConfig::base_64k().with_log2_entries(crate::history::MAX_LANE_INDEX_BITS + 1);
    }

    #[test]
    fn tag_width_splits_short_and_long_tables() {
        let c = TageConfig::base_64k();
        assert_eq!(c.tag_bits(0), 8);
        assert_eq!(c.tag_bits(8), 8);
        assert_eq!(c.tag_bits(9), 12);
        assert_eq!(c.tag_bits(NUM_TABLES - 1), 12);
    }

    #[test]
    #[should_panic(expected = "tag width 16")]
    fn tags_wider_than_an_entry_slot_are_rejected() {
        let c = TageConfig {
            long_tag_bits: 16,
            ..TageConfig::base_64k()
        };
        let _ = c.tag_bits(NUM_TABLES - 1);
    }
}
