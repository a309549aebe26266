//! Randomized tests for the TAGE substrate: folded histories and the fold
//! lanes, the path mix and TAGE's table keys, the history ring and its
//! windows, bimodal counters, and predictor determinism.
//!
//! Property tests driven by the in-repo deterministic PRNG, so the
//! workspace needs no registry access.

use tage::config::MAX_TAG_BITS;
use tage::folded::{FoldLanes, Lane, OutgoingBits, FOLD_LANES};
use tage::history::{
    history_bit, PathMix, PathMixLanes, HISTORY_CAPACITY, MAX_LANE_INDEX_BITS, PATH_BITS,
};
use tage::{
    DirectionPredictor, FoldedHistory, GlobalHistory, PathHistory, PredictInput, Tage, TageConfig,
    TageScl, TslConfig, HISTORY_LENGTHS, NUM_TABLES,
};
use telemetry::SplitMix64;
use traces::BranchRecord;

fn rand_bits(rng: &mut SplitMix64, min: u64, max: u64) -> Vec<bool> {
    let len = min + rng.next_below(max - min);
    (0..len).map(|_| rng.next_bool(0.5)).collect()
}

/// The fold equals its closed-form reference after any bit stream.
#[test]
fn folded_history_matches_reference() {
    let mut rng = SplitMix64::new(0x666f_6c64);
    for _ in 0..32 {
        let bits = rand_bits(&mut rng, 1, 3000);
        let length = 1 + rng.next_below(1499) as usize;
        let width = 1 + rng.next_below(20) as u32;
        let mut h = GlobalHistory::new();
        let mut f = FoldedHistory::new(length, width);
        for &b in &bits {
            h.push(b);
            f.update(&h);
        }
        assert_eq!(
            f.value(),
            f.compute_reference(&h),
            "length {length} width {width}"
        );
    }
}

/// The fold is a pure function of the most recent `length` bits: any prefix
/// before them is irrelevant.
#[test]
fn folded_history_is_windowed() {
    let mut rng = SplitMix64::new(0x7769_6e64);
    for _ in 0..32 {
        let prefix_a = rand_bits(&mut rng, 0, 500);
        let prefix_b = rand_bits(&mut rng, 0, 500);
        let tail = rand_bits(&mut rng, 1, 400);
        let width = 1 + rng.next_below(15) as u32;
        let length = tail.len();
        let run = |prefix: &[bool]| {
            let mut h = GlobalHistory::new();
            let mut f = FoldedHistory::new(length, width);
            for &b in prefix.iter().chain(tail.iter()) {
                h.push(b);
                f.update(&h);
            }
            f.value()
        };
        assert_eq!(run(&prefix_a), run(&prefix_b));
    }
}

/// Pushes of a lane check: three passes around the history ring, so the
/// ring wraps twice and every 32-push window load is crossed over 380 times.
const LANE_PUSHES: usize = 3 * HISTORY_CAPACITY;

/// Drives `K` folds of `T` lanes over every history length, fold `k` of
/// length `i` at width `width(k, i)`, with a random stream of
/// [`LANE_PUSHES`] bits, and checks every lane against an incrementally
/// updated [`FoldedHistory`] after every push.
fn check_lanes<T: Lane, const K: usize>(width: impl Fn(usize, usize) -> u32, seed: u64) {
    let widths: [Vec<u32>; K] =
        std::array::from_fn(|k| (0..NUM_TABLES).map(|i| width(k, i)).collect());
    let mut rng = SplitMix64::new(seed);
    let mut h = GlobalHistory::new();
    let mut bits = OutgoingBits::<FOLD_LANES>::new(&HISTORY_LENGTHS);
    let mut lanes = FoldLanes::<T, FOLD_LANES, K>::new(
        &HISTORY_LENGTHS,
        std::array::from_fn(|k| widths[k].as_slice()),
    );
    let mut folds: [Vec<FoldedHistory>; K] = std::array::from_fn(|k| {
        HISTORY_LENGTHS
            .iter()
            .zip(&widths[k])
            .map(|(&length, &width)| FoldedHistory::new(length, width))
            .collect()
    });
    let bias = 0.2 + 0.6 * rng.next_f64();
    for n in 1..=LANE_PUSHES {
        h.push(rng.next_bool(bias));
        bits.advance(&h);
        lanes.update(&bits);
        for (k, folds) in folds.iter_mut().enumerate() {
            for (i, fold) in folds.iter_mut().enumerate() {
                fold.update(&h);
                assert_eq!(
                    u64::from(lanes.lane(k)[i].into()),
                    fold.value(),
                    "push {n}: fold {k} of length {} at width {}",
                    fold.length(),
                    fold.width()
                );
            }
            assert!(
                lanes.lane(k)[NUM_TABLES..]
                    .iter()
                    .all(|&pad| pad == T::default()),
                "push {n}: fold {k} padding"
            );
        }
    }
}

/// TAGE's `u16` lanes equal the reference fold at every width they hold,
/// 1..=16 (index widths up to `MAX_LANE_INDEX_BITS`, tags up to
/// `MAX_TAG_BITS`), at every history length: fold `k` of length `i` has
/// width `1 + (k + i) % 16`, so every length meets every width and each
/// fold mixes widths across its lanes.
#[test]
fn u16_fold_lanes_match_the_reference_at_every_width() {
    const { assert!(MAX_LANE_INDEX_BITS <= u16::BITS && MAX_TAG_BITS < u16::BITS) };
    check_lanes::<u16, 16>(|k, i| 1 + ((k + i) % 16) as u32, 0x6c61_6e65);
}

/// TAGE's own three folds (index, tag, second tag) at the index widths of
/// every TSL size class (7..=13 bits) and at the widest, 16 bits, with the
/// 8/12-bit tag split.
#[test]
fn tage_fold_lanes_match_reference_at_every_size_class() {
    for log2_entries in (7..=13).chain([MAX_LANE_INDEX_BITS]) {
        let cfg = TageConfig::base_64k().with_log2_entries(log2_entries);
        check_lanes::<u16, 3>(
            |k, i| [log2_entries, cfg.tag_bits(i), cfg.tag_bits(i) - 1][k],
            0x7461_6765 ^ u64::from(log2_entries),
        );
    }
}

/// LLBP's two `u32` pattern-tag lanes equal the reference fold at its
/// default 13/12-bit folds and at the limit study's 20/19.
#[test]
fn llbp_fold_lanes_match_reference_at_pattern_tag_widths() {
    for tag_bits in [13, 20] {
        check_lanes::<u32, 2>(|k, _| tag_bits - k as u32, u64::from(tag_bits));
    }
}

/// A history window is the 32 bits it names, at any age and ring offset.
#[test]
fn history_windows_hold_the_bits_they_name() {
    let mut rng = SplitMix64::new(0x7769_6e64_6f77);
    let mut h = GlobalHistory::new();
    for n in 0..2 * HISTORY_CAPACITY {
        h.push(rng.next_bool(0.5));
        if n % 61 == 0 {
            let age = 31 + rng.next_below((HISTORY_CAPACITY - 31) as u64) as usize;
            let w = h.window(age);
            for k in 0..32 {
                assert_eq!(
                    u64::from(w >> k) & 1,
                    h.bit(age - k),
                    "push {n}, age {age}, bit {k}"
                );
            }
        }
    }
}

/// A path history whose 27 bits are all random: one push per bit.
fn random_path(rng: &mut SplitMix64) -> PathHistory {
    let mut path = PathHistory::new();
    for _ in 0..PATH_BITS {
        path.push(rng.next_u64());
    }
    path
}

/// The lane path mix equals the scalar `PathMix` on every table for every
/// index width TAGE accepts (5..=16, the widest a `u32` lane holds), over
/// random 27-bit paths.
#[test]
fn path_mix_lanes_match_the_scalar_mix_at_every_index_width() {
    let mut rng = SplitMix64::new(0x7061_7468);
    for log2_size in 5..=MAX_LANE_INDEX_BITS {
        let lanes = PathMixLanes::new(log2_size);
        for _ in 0..64 {
            let path = random_path(&mut rng);
            for (t, &len) in HISTORY_LENGTHS.iter().enumerate() {
                assert_eq!(
                    u64::from(lanes.lane(t, &path)),
                    PathMix::new(len.min(16), t, log2_size).apply(&path),
                    "table {t}, size {log2_size}, path {:#x}",
                    path.value()
                );
            }
        }
    }
}

/// TAGE's indices and tags equal the scalar formula, evaluated from
/// reference folds and the scalar path mix, at every TSL size class and
/// at the index widths' extremes, for random PCs over a random branch
/// stream.
#[test]
fn tage_keys_match_the_scalar_formula_at_every_size_class() {
    let size_classes = [8, 16, 32, 64, 128, 256, 512].map(|kb| TslConfig::kilobytes(kb).tage);
    let extremes =
        [5, MAX_LANE_INDEX_BITS].map(|log2| TageConfig::base_64k().with_log2_entries(log2));
    for cfg in size_classes.into_iter().chain(extremes) {
        let size = cfg.log2_entries;
        let mut rng = SplitMix64::new(0x6b65_7973 ^ u64::from(size));
        let mut tage = Tage::new(cfg.clone());
        let mut history = GlobalHistory::new();
        let mut path = PathHistory::new();
        let fold = |width: fn(&TageConfig, usize) -> u32| -> Vec<FoldedHistory> {
            (0..NUM_TABLES)
                .map(|t| FoldedHistory::new(HISTORY_LENGTHS[t], width(&cfg, t)))
                .collect()
        };
        let mut index_folds = fold(|cfg, _| cfg.log2_entries);
        let mut tag_folds = fold(|cfg, t| cfg.tag_bits(t));
        let mut tag_folds2 = fold(|cfg, t| cfg.tag_bits(t) - 1);
        for n in 0..3000 {
            let pc = rng.next_u64() & !3;
            let info = tage.predict(pc);
            let pcs = pc >> 2;
            for t in 0..NUM_TABLES {
                let path_mix = PathMix::new(HISTORY_LENGTHS[t].min(16), t, size).apply(&path);
                let index =
                    (pcs ^ (pcs >> ((t as u32 % size) + 1)) ^ index_folds[t].value() ^ path_mix)
                        & ((1 << size) - 1);
                let tag = (pcs ^ tag_folds[t].value() ^ (tag_folds2[t].value() << 1))
                    & ((1 << cfg.tag_bits(t)) - 1);
                assert_eq!(
                    u64::from(info.indices[t]),
                    index,
                    "size {size}, branch {n}, table {t}: index"
                );
                assert_eq!(
                    u64::from(info.tags[t]),
                    tag,
                    "size {size}, branch {n}, table {t}: tag"
                );
            }
            let kind = traces::BranchKind::ALL
                [rng.next_below(traces::BranchKind::ALL.len() as u64) as usize];
            let taken = !kind.is_conditional() || rng.next_bool(0.6);
            let rec = BranchRecord::new(pc, rng.next_u64() & 0xffff_fffc, kind, taken, 1);
            if kind.is_conditional() {
                tage.update(pc, rec.taken, &info);
            }
            tage.update_history(&rec);
            history.push(history_bit(&rec));
            path.push(pc);
            for f in index_folds
                .iter_mut()
                .chain(&mut tag_folds)
                .chain(&mut tag_folds2)
            {
                f.update(&history);
            }
        }
    }
}

/// The history ring returns exactly what was pushed, for any ages within
/// capacity.
#[test]
fn history_ring_is_faithful() {
    let mut rng = SplitMix64::new(0x7269_6e67);
    for _ in 0..16 {
        let bits = rand_bits(&mut rng, 1, 5000);
        let mut h = GlobalHistory::new();
        for &b in &bits {
            h.push(b);
        }
        let n = bits.len();
        for age in 0..n.min(tage::history::HISTORY_CAPACITY) {
            assert_eq!(h.bit(age), bits[n - 1 - age] as u64, "age {age}");
        }
    }
}

/// Bimodal counters never leave their 2-bit range and always predict the
/// direction of a long-enough run.
#[test]
fn bimodal_saturates_and_tracks_runs() {
    let mut rng = SplitMix64::new(0x6269_6d6f);
    for _ in 0..64 {
        let pc = rng.next_u64();
        let flips = rand_bits(&mut rng, 1, 100);
        let mut b = tage::bimodal::Bimodal::new(8);
        for &dir in &flips {
            b.update(pc, dir);
        }
        // Force a run of 3 to dominate any prior state.
        let last = *flips.last().unwrap();
        for _ in 0..3 {
            b.update(pc, last);
        }
        assert_eq!(b.predict(pc), last);
    }
}

/// A TSL fed the same records twice produces identical predictions — no
/// hidden global state or randomness.
#[test]
fn tsl_is_deterministic() {
    let mut rng = SplitMix64::new(0x7473_6c64);
    for _ in 0..8 {
        let seeds: Vec<(u16, bool)> = (0..1 + rng.next_below(300))
            .map(|_| (rng.next_u64() as u16, rng.next_bool(0.5)))
            .collect();
        let run = || {
            let mut tsl = TageScl::new(TslConfig::kilobytes(64));
            seeds
                .iter()
                .map(|&(pc, taken)| {
                    let rec = BranchRecord::cond(0x1000 + u64::from(pc) * 4, 0x9000, taken, 1);
                    tsl.process(PredictInput::new(&rec)).pred.unwrap()
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(), run());
    }
}

/// Predictions are always produced for conditional branches and never for
/// unconditional ones, whatever the record contents.
#[test]
fn prediction_presence_follows_kind() {
    let mut rng = SplitMix64::new(0x6b69_6e64);
    for _ in 0..64 {
        let kind =
            traces::BranchKind::ALL[rng.next_below(traces::BranchKind::ALL.len() as u64) as usize];
        let rec = BranchRecord::new(
            rng.next_u64(),
            rng.next_u64(),
            kind,
            true,
            rng.next_u64() as u32,
        );
        let mut tsl = TageScl::new(TslConfig::kilobytes(64));
        assert_eq!(
            tsl.process(PredictInput::new(&rec)).pred.is_some(),
            kind.is_conditional()
        );
    }
}
