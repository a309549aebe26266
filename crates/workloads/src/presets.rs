//! The fourteen named workload presets of the paper's Table I.
//!
//! Each preset is a tuned [`WorkloadSpec`]: the knobs are chosen so the
//! synthetic workload lands in the same 64K-TSL MPKI band as the paper's
//! trace and exercises the same qualitative mechanisms (working-set size,
//! noise floor, session burstiness, H2P intensity). `paper_mpki` records the
//! value from Table I for the EXPERIMENTS.md comparison.

use crate::spec::WorkloadSpec;

/// A preset: spec plus the paper-reported 64K TSL MPKI (Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct Preset {
    /// The workload specification.
    pub spec: WorkloadSpec,
    /// Branch MPKI the paper reports for 64K TAGE-SC-L (Table I).
    pub paper_mpki: f64,
    /// Whether the paper's gem5 (performance) evaluation includes this
    /// workload — the four Google traces are trace-only (§VI).
    pub in_gem5_eval: bool,
}

fn preset(
    name: &str,
    seed: u64,
    paper_mpki: f64,
    in_gem5_eval: bool,
    tune: impl FnOnce(WorkloadSpec) -> WorkloadSpec,
) -> Preset {
    Preset {
        spec: tune(WorkloadSpec::new(name, seed)),
        paper_mpki,
        in_gem5_eval,
    }
}

/// All fourteen presets, in Table I order.
pub fn all() -> Vec<Preset> {
    vec![
        // NodeJS webserver: the paper's headline workload — large working
        // set, strong H2P population (LLBP-X peaks here at 27%).
        preset("NodeApp", 0x6e6f_6465, 4.43, true, |s| {
            s.with_request_types(1536)
                .with_handlers(64)
                .with_branches_per_handler(38)
                .with_h2p_per_handler(3)
                .with_noise(0.095, 0.855, 0.955)
                .with_session_stay(0.82)
        }),
        // PHP wiki web server.
        preset("PHPWiki", 0x7068_7031, 3.08, true, |s| {
            s.with_request_types(1024)
                .with_handlers(48)
                .with_branches_per_handler(32)
                .with_h2p_per_handler(2)
                .with_noise(0.06, 0.88, 0.97)
                .with_session_stay(0.88)
        }),
        // Java BenchBase OLTP: TPC-C.
        preset("TPCC", 0x7470_6363, 3.74, true, |s| {
            s.with_request_types(1280)
                .with_handlers(64)
                .with_branches_per_handler(34)
                .with_h2p_per_handler(2)
                .with_noise(0.078, 0.867, 0.958)
                .with_session_stay(0.85)
        }),
        // Java BenchBase: Twitter.
        preset("Twitter", 0x7477_7472, 3.03, true, |s| {
            s.with_request_types(1024)
                .with_handlers(56)
                .with_branches_per_handler(32)
                .with_h2p_per_handler(2)
                .with_noise(0.06, 0.88, 0.97)
                .with_session_stay(0.88)
        }),
        // Java BenchBase: Wikipedia.
        preset("Wikipedia", 0x7769_6b69, 2.52, true, |s| {
            s.with_request_types(896)
                .with_handlers(48)
                .with_branches_per_handler(30)
                .with_h2p_per_handler(2)
                .with_noise(0.05, 0.89, 0.975)
                .with_session_stay(0.90)
        }),
        // DaCapo: Kafka — near-perfectly predictable event loop.
        preset("Kafka", 0x6b61_666b, 0.26, true, |s| {
            s.with_request_types(192)
                .with_handlers(24)
                .with_branches_per_handler(24)
                .with_h2p_per_handler(1)
                .with_noise(0.01, 0.985, 0.998)
                .with_session_stay(0.993)
        }),
        // DaCapo: Spring.
        preset("Spring", 0x7370_7267, 3.58, true, |s| {
            s.with_request_types(1280)
                .with_handlers(64)
                .with_branches_per_handler(34)
                .with_h2p_per_handler(2)
                .with_noise(0.078, 0.867, 0.958)
                .with_session_stay(0.85)
        }),
        // DaCapo: Tomcat.
        preset("Tomcat", 0x746f_6d63, 3.40, true, |s| {
            s.with_request_types(1152)
                .with_handlers(56)
                .with_branches_per_handler(34)
                .with_h2p_per_handler(2)
                .with_noise(0.072, 0.872, 0.962)
                .with_session_stay(0.862)
        }),
        // Renaissance: finagle-chirper — tight RPC loop, tiny MPKI.
        preset("Chirper", 0x6368_7270, 0.48, true, |s| {
            s.with_request_types(256)
                .with_handlers(24)
                .with_branches_per_handler(24)
                .with_h2p_per_handler(1)
                .with_noise(0.015, 0.975, 0.995)
                .with_session_stay(0.988)
        }),
        // Renaissance: finagle-http.
        preset("FinagleHTTP", 0x6874_7470, 2.81, true, |s| {
            s.with_request_types(896)
                .with_handlers(48)
                .with_branches_per_handler(30)
                .with_h2p_per_handler(2)
                .with_noise(0.055, 0.885, 0.97)
                .with_session_stay(0.89)
        }),
        // Google datacenter traces: wide instruction footprints, trace-only
        // in the paper's gem5 evaluation.
        preset("Charlie", 0x6368_6172, 2.89, false, |s| {
            s.with_request_types(2048)
                .with_handlers(96)
                .with_branches_per_handler(32)
                .with_h2p_per_handler(2)
                .with_noise(0.05, 0.89, 0.97)
                .with_session_stay(0.89)
        }),
        preset("Delta", 0x6465_6c74, 1.09, false, |s| {
            s.with_request_types(768)
                .with_handlers(48)
                .with_branches_per_handler(26)
                .with_h2p_per_handler(1)
                .with_noise(0.025, 0.95, 0.99)
                .with_session_stay(0.965)
        }),
        preset("Merced", 0x6d72_6364, 4.13, false, |s| {
            s.with_request_types(2048)
                .with_handlers(96)
                .with_branches_per_handler(38)
                .with_h2p_per_handler(3)
                .with_noise(0.082, 0.862, 0.952)
                .with_session_stay(0.842)
        }),
        preset("Whiskey", 0x7768_736b, 5.38, false, |s| {
            s.with_request_types(2560)
                .with_handlers(112)
                .with_branches_per_handler(38)
                .with_h2p_per_handler(3)
                .with_noise(0.09, 0.85, 0.95)
                .with_session_stay(0.80)
        }),
    ]
}

/// Looks up one preset by (case-insensitive) name.
pub fn by_name(name: &str) -> Option<WorkloadSpec> {
    all()
        .into_iter()
        .find(|p| p.spec.name.eq_ignore_ascii_case(name))
        .map(|p| p.spec)
}

/// Names of all presets, in Table I order.
pub fn names() -> Vec<String> {
    all().into_iter().map(|p| p.spec.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_fourteen_presets() {
        assert_eq!(all().len(), 14);
    }

    #[test]
    fn all_presets_validate() {
        for p in all() {
            assert_eq!(p.spec.validate(), Ok(()), "{}", p.spec.name);
        }
    }

    #[test]
    fn names_and_seeds_are_unique() {
        let presets = all();
        for (i, a) in presets.iter().enumerate() {
            for b in &presets[i + 1..] {
                assert_ne!(a.spec.name, b.spec.name);
                assert_ne!(
                    a.spec.seed, b.spec.seed,
                    "{} vs {}",
                    a.spec.name, b.spec.name
                );
            }
        }
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(by_name("nodeapp").is_some());
        assert!(by_name("NODEAPP").is_some());
        assert!(by_name("nosuch").is_none());
    }

    #[test]
    fn google_traces_are_excluded_from_gem5_eval() {
        let gem5: Vec<_> = all()
            .into_iter()
            .filter(|p| p.in_gem5_eval)
            .map(|p| p.spec.name)
            .collect();
        assert_eq!(gem5.len(), 10);
        for google in ["Charlie", "Delta", "Merced", "Whiskey"] {
            assert!(
                !gem5.iter().any(|n| n == google),
                "{google} must be trace-only"
            );
        }
    }

    #[test]
    fn paper_mpki_matches_table_one() {
        let presets = all();
        let get = |n: &str| {
            presets
                .iter()
                .find(|p| p.spec.name == n)
                .unwrap()
                .paper_mpki
        };
        assert_eq!(get("NodeApp"), 4.43);
        assert_eq!(get("Kafka"), 0.26);
        assert_eq!(get("Whiskey"), 5.38);
        let avg: f64 = presets.iter().map(|p| p.paper_mpki).sum::<f64>() / 14.0;
        // Table I average is 2.92 per the paper text.
        assert!((avg - 2.92).abs() < 0.15, "Table I average was {avg:.2}");
    }

    #[test]
    fn burstier_presets_have_lower_noise() {
        let presets = all();
        let kafka = presets.iter().find(|p| p.spec.name == "Kafka").unwrap();
        let whiskey = presets.iter().find(|p| p.spec.name == "Whiskey").unwrap();
        assert!(kafka.spec.session_stay > whiskey.spec.session_stay);
        assert!(kafka.spec.noise_fraction < whiskey.spec.noise_fraction);
    }
}
