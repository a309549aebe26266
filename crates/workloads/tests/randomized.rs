//! Randomized tests for the synthetic workload generator.
//!
//! Property tests driven by the in-repo deterministic PRNG, so the
//! workspace needs no registry access.

use telemetry::SplitMix64;
use traces::{BranchStream, StreamExt};
use workloads::spec::{GAP_MAX, GAP_MIN};
use workloads::{ServerWorkload, WorkloadSpec, Zipf};

fn rand_spec(rng: &mut SplitMix64) -> WorkloadSpec {
    loop {
        let handlers = 8 << (1 + rng.next_below(5));
        let b = 8 + rng.next_below(22) as usize;
        let spec = WorkloadSpec::new("prop", rng.next_u64())
            .with_handlers(handlers)
            .with_request_types(handlers * (1 + rng.next_below(3) as usize))
            .with_branches_per_handler(b)
            .with_h2p_per_handler((rng.next_below(4) as usize).min(b))
            .with_noise(rng.next_f64() * 0.3, 0.85, 0.98)
            .with_session_stay(0.5 + rng.next_f64() * 0.5);
        if spec.validate().is_ok() {
            return spec;
        }
    }
}

/// Any valid spec generates a well-formed stream: unconditionals are taken,
/// gaps respect bounds, and the stream never ends early.
#[test]
fn generated_streams_are_well_formed() {
    let mut rng = SplitMix64::new(0x776f_726b);
    for _ in 0..8 {
        let spec = rand_spec(&mut rng);
        let mut stream = ServerWorkload::new(&spec);
        for _ in 0..3000 {
            let rec = stream.next_branch().expect("stream is infinite");
            if rec.kind.is_unconditional() {
                assert!(rec.taken, "unconditional not taken at {:#x}", rec.pc);
            }
            assert!((GAP_MIN..=GAP_MAX).contains(&rec.instr_gap));
        }
    }
}

/// Identical specs generate bit-identical streams; different seeds diverge.
#[test]
fn generation_is_seed_deterministic() {
    let mut rng = SplitMix64::new(0x7365_6564);
    for _ in 0..4 {
        let spec = rand_spec(&mut rng);
        let a: Vec<_> = ServerWorkload::new(&spec)
            .take_branches(2000)
            .iter()
            .collect();
        let b: Vec<_> = ServerWorkload::new(&spec)
            .take_branches(2000)
            .iter()
            .collect();
        assert_eq!(a, b);
        let mut other = spec.clone();
        other.seed = spec.seed.wrapping_add(1);
        let c: Vec<_> = ServerWorkload::new(&other)
            .take_branches(2000)
            .iter()
            .collect();
        assert_ne!(a, c);
    }
}

/// Site classification is total and stable over the whole handler grid.
#[test]
fn site_classes_are_stable() {
    let mut rng = SplitMix64::new(0x7369_7465);
    for _ in 0..4 {
        let spec = rand_spec(&mut rng);
        for h in 0..spec.handlers {
            for j in 0..spec.branches_per_handler {
                let a = ServerWorkload::site_class(&spec, h, j);
                let b = ServerWorkload::site_class(&spec, h, j);
                assert_eq!(a, b);
                let pc = workloads::engine::layout::site_base(h, j) + 0x40;
                let (ch, cj, class) =
                    ServerWorkload::classify_pc(&spec, pc).expect("site pcs classify");
                assert_eq!((ch, cj, class), (h, j, a));
            }
        }
    }
}

/// The Zipf CDF is monotone and samples stay in range for any shape.
#[test]
fn zipf_is_well_formed() {
    let mut rng = SplitMix64::new(0x7a69_7066);
    for _ in 0..32 {
        let n = 1 + rng.next_below(1999) as usize;
        let s = rng.next_f64() * 2.5;
        let zipf = Zipf::new(n, s);
        let mut xs = workloads::hashing::XorShift::new(rng.next_u64());
        let mut acc = 0.0;
        for i in 0..n {
            let p = zipf.pmf(i);
            assert!(p >= 0.0);
            acc += p;
        }
        assert!((acc - 1.0).abs() < 1e-6, "pmf sums to {acc}");
        for _ in 0..200 {
            assert!(zipf.sample(&mut xs) < n);
        }
    }
}

/// mix_range is always within its bound.
#[test]
fn mix_range_is_bounded() {
    let mut rng = SplitMix64::new(0x6d69_7872);
    for _ in 0..256 {
        let parts: Vec<u64> = (0..1 + rng.next_below(5)).map(|_| rng.next_u64()).collect();
        let bound = 1 + rng.next_below(9_999);
        assert!(workloads::hashing::mix_range(&parts, bound) < bound);
    }
}

/// FNV-1a over every field of the first `n` records of a preset's stream.
fn stream_fingerprint(spec: &WorkloadSpec, n: u64) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for rec in ServerWorkload::new(spec).take_branches(n).iter() {
        let words = [
            rec.pc,
            rec.target,
            rec.kind as u64,
            u64::from(rec.taken),
            u64::from(rec.instr_gap),
        ];
        for word in words {
            hash = (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Every preset's stream is pinned: the first 200K records of each hash to
/// the value recorded before the generator precomputed its per-site and
/// per-leaf draws. The golden stats cover only NodeApp and TPCC, so this
/// is what holds the other presets' streams in place.
#[test]
fn preset_streams_are_pinned() {
    const RECORDS: u64 = 200_000;
    let got: Vec<(String, u64)> = workloads::presets::all()
        .iter()
        .map(|p| (p.spec.name.clone(), stream_fingerprint(&p.spec, RECORDS)))
        .collect();
    let pinned: &[(&str, u64)] = &STREAM_PINS;
    assert_eq!(got.len(), pinned.len(), "one pin per preset");
    for ((name, hash), (want_name, want)) in got.iter().zip(pinned) {
        assert_eq!(name, want_name, "presets changed order");
        assert_eq!(hash, want, "{name}: the first {RECORDS} records changed");
    }
}

const STREAM_PINS: [(&str, u64); 14] = [
    ("NodeApp", 0x45de078fe806727a),
    ("PHPWiki", 0x05dbc97e516d0d9a),
    ("TPCC", 0x3f1b1b41827e5c88),
    ("Twitter", 0x49ed85003a359590),
    ("Wikipedia", 0x5f0ef33273c297c7),
    ("Kafka", 0xfdd690978812244e),
    ("Spring", 0x969972a294997bb0),
    ("Tomcat", 0x21839600e759d6d7),
    ("Chirper", 0x21e83d0673a52eb9),
    ("FinagleHTTP", 0xdb6cff7df879ff53),
    ("Charlie", 0x9c9a7d7f19a44e39),
    ("Delta", 0xececed959fb48554),
    ("Merced", 0x260a1843af37eed7),
    ("Whiskey", 0x76b97ae4602d7d3f),
];
